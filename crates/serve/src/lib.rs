//! uqsj-serve: the online Q/A serving layer.
//!
//! The batch pipeline (`uqsj::pipeline`) produces a `TemplateLibrary`
//! offline; this crate turns that artifact into a long-lived service:
//!
//! - [`TemplateStore`]: signature index over templates (token-count window,
//!   word-multiset containment and the φ bound) so each question is
//!   verified against a pruned candidate set instead of the whole library.
//! - [`ShardedQaServer`]: the one serving core — the library partitioned
//!   into shards by NL-pattern hash, a bounded LRU answer cache, a
//!   `crossbeam`-scoped `answer_batch`, EXPLAIN reports, and
//!   latency/candidate metrics. Answers equal the unfiltered
//!   `uqsj_template::answer_question` over the shard libraries
//!   concatenated in shard order.
//! - [`Ingestor`]: incremental SimJ of a newly arrived question against the
//!   existing `D` side via `JoinIndex` — no full re-join — feeding freshly
//!   mined templates back into the live store.
//! - Durability (via `uqsj-storage`): [`ShardedQaServer::create`] writes a
//!   sharded, replicated data directory; [`ShardedQaServer::open`]
//!   recovers it (snapshot + WAL replay per replica); `insert_templates`
//!   journals accepted templates before applying them;
//!   [`ShardedQaServer::compact`] folds every WAL into a fresh snapshot
//!   generation.

pub mod cache;
pub mod ingest;
pub mod metrics;
pub mod report;
pub mod shard;
pub mod store;

pub use cache::AnswerCache;
pub use ingest::{IngestError, IngestOutcome, Ingestor};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use report::{JoinReport, QueryReport, SlowLog, StageReport};
pub use shard::{shard_of_tokens, ServeConfig, ShardedAnswer, ShardedQaServer};
pub use store::TemplateStore;
