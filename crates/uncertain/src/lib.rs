//! Similarity probability under possible-world semantics, the
//! probabilistic pruning bound and the cost-based possible-world-group
//! optimization.
//!
//! * [`prob`] — exact `SimP_τ(q, g)` (Def. 6) by enumeration with
//!   per-world filtering and early termination against the threshold `α`
//!   (the refinement phase of Algorithm 1, lines 7–15).
//! * [`prob_bound`] — the Markov upper bound on `SimP_τ(q, g)`
//!   (Lemmas 5/6 and Theorem 4): the probabilistic pruning filter.
//! * [`groups`] — possible-world groups, the two split heuristics of
//!   Sec. 6.2 and the cost model that picks between them (Algorithm 2).
//! * [`verifier`] — the [`WorldVerifier`]: g-side topology is built once
//!   per uncertain graph, each query binds its own structure on top of it,
//!   and each possible world is verified by patching only the
//!   uncertain-vertex labels and running τ-bounded A\*.

pub mod groups;
mod obs;
pub mod prob;
pub mod prob_bound;
pub mod verifier;

pub use groups::{
    partition_groups, ub_simp_grouped, verify_simp_groups, verify_simp_groups_with,
    PossibleWorldGroup, SplitHeuristic,
};
pub use prob::{
    similarity_probability, verify_simp, verify_simp_prepared, verify_simp_with, VerifyOutcome,
};
pub use prob_bound::{ub_simp, ub_simp_exact_tail};
pub use uqsj_ged::GedEngine;
pub use verifier::{VerifySplit, VerifyStage, WorldVerifier};
