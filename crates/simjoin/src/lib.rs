//! SimJ: the similarity join between a set `D` of certain graphs (SPARQL
//! queries) and a set `U` of uncertain graphs (natural-language
//! questions), Def. 7 of the paper.
//!
//! The join follows the filtering-and-refinement framework of Sec. 3.3 in
//! three configurations matching the paper's efficiency experiments
//! (Sec. 7.3):
//!
//! * `CSS only` — structural pruning with the CSS bound (Theorem 3), then
//!   verification.
//! * `SimJ` — CSS pruning plus the Markov probabilistic filter
//!   (Theorem 4): Algorithm 1.
//! * `SimJ+opt` — additionally partitions possible worlds into groups
//!   with the cost model of Sec. 6.2 for a tighter probability bound and
//!   group-pruned verification: Algorithm 2.
//!
//! One driver runs every configuration: [`JoinIndex`] (see [`index`])
//! keeps a size window and a filter summary per query, runs the
//! [`cascade`] on the pairs inside the window, and verifies the survivors
//! on any number of threads. [`sim_join`] is that driver at one thread;
//! [`JoinIndex::join_one`] joins one arriving question; [`sim_join_topk`]
//! ranks the same survivors instead of thresholding them.

pub mod cascade;
pub mod filter_eval;
pub mod index;
pub mod join;
mod obs;
pub mod stats;
mod summary;
pub mod topk;

pub use index::JoinIndex;
pub use join::{sim_join, JoinMatch, JoinParams, JoinStrategy};
pub use stats::JoinStats;
pub use topk::{sim_join_topk, TopKMatch};
pub use uqsj_ged::GedEngine;
pub use uqsj_sample::{SimpMode, SimpPolicy, Tier};
