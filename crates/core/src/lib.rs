//! # uqsj — Uncertain graph similarity join for RDF Q/A template generation
//!
//! A from-scratch reproduction of *"How to Build Templates for RDF
//! Question/Answering — An Uncertain Graph Similarity Join Approach"*
//! (SIGMOD 2015). The crate re-exports every subsystem and adds the
//! end-to-end [`pipeline`]:
//!
//! 1. **Uncertain graph generation** ([`nlp`]) — questions become
//!    semantic query graphs; entity linking makes vertex labels
//!    probabilistic.
//! 2. **Finding similar graph pairs** ([`simjoin`], [`ged`],
//!    [`uncertain`]) — the SimJ join with CSS-based structural pruning
//!    (Theorems 1/3), Markov probabilistic pruning (Theorem 4) and
//!    cost-based possible-world grouping (Algorithm 2).
//! 3. **Template generation** ([`template`]) — matched pairs plus their
//!    GED mappings become NL⇄SPARQL templates with slots.
//! 4. **Q/A with templates** ([`template`], [`rdf`]) — new questions are
//!    matched by tree edit distance, slots filled and linked, SPARQL
//!    evaluated over the in-memory RDF store.
//! 5. **Online serving** ([`serve`]) — the mined library behind a
//!    signature-indexed store with answer caching, batch answering and
//!    incremental workload ingestion.
//! 6. **Durability** ([`storage`]) — checksummed binary snapshots plus a
//!    write-ahead log so the serving state survives restarts and crashes
//!    (`uqsj-cli serve --data-dir`, `snapshot`, `compact`).
//!
//! ## Quickstart
//!
//! ```
//! use uqsj::prelude::*;
//!
//! // A tiny workload (synthetic; see DESIGN.md for the substitutions).
//! let dataset = uqsj::workload::qald_like(&DatasetConfig {
//!     questions: 30,
//!     distractors: 20,
//!     ..Default::default()
//! });
//! // Join questions with SPARQL queries and build templates.
//! let result = uqsj::pipeline::generate_templates(&dataset, JoinParams::simj(1, 0.5));
//! assert!(result.library.len() > 0);
//! ```

pub use uqsj_ged as ged;
pub use uqsj_graph as graph;
pub use uqsj_matching as matching;
pub use uqsj_net as net;
pub use uqsj_nlp as nlp;
pub use uqsj_obs as obs;
pub use uqsj_rdf as rdf;
pub use uqsj_sample as sample;
pub use uqsj_serve as serve;
pub use uqsj_simjoin as simjoin;
pub use uqsj_sparql as sparql;
pub use uqsj_storage as storage;
pub use uqsj_template as template;
pub use uqsj_testkit as testkit;
pub use uqsj_uncertain as uncertain;
pub use uqsj_workload as workload;

pub mod pipeline;

/// The names most programs need.
pub mod prelude {
    pub use crate::ged::{ged, ged_bounded, lb_ged_css_certain, lb_ged_css_uncertain};
    pub use crate::graph::{Graph, GraphBuilder, Symbol, SymbolTable, UncertainGraph, VertexId};
    pub use crate::pipeline::{generate_templates, PipelineResult};
    pub use crate::sample::{SimpMode, SimpPolicy};
    pub use crate::serve::{Ingestor, ServeConfig, ShardedQaServer, TemplateStore};
    pub use crate::simjoin::{sim_join, JoinMatch, JoinParams, JoinStats, JoinStrategy};
    pub use crate::template::{answer_question, Template, TemplateLibrary};
    pub use crate::uncertain::{similarity_probability, ub_simp, verify_simp};
    pub use crate::workload::{qald_like, webq_like, Dataset, DatasetConfig};
}
