//! # uqsj-testkit — workspace-wide conformance testing
//!
//! The pipeline's correctness claims are layered: every GED lower bound
//! must hold in **every possible world** (Theorems 1/3), the Markov filter
//! must upper-bound the exact similarity probability (Theorem 4), and all
//! join procedures must return identical result sets. This crate turns
//! those claims into one reusable harness:
//!
//! * [`gen`] — seeded, τ/α-boundary-biased generators: certain graphs,
//!   uncertain graphs with bounded world counts, near-threshold pairs and
//!   full join workloads. Every generator is a pure function of a `u64`
//!   seed, so any failure replays from the seed printed with it.
//! * [`oracle`] — the differential-oracle layer: per generated pair and
//!   per possible world it checks every lower bound against the exact
//!   reference GED, the production engine against `ged::reference`, the
//!   Markov/grouped probability bounds against exact `SimP_τ`, and six
//!   join configurations (the three pruning strategies, the parallel and
//!   indexed drivers, and the forced sampling tier) against a
//!   brute-force membership predicate.
//! * [`sample_oracle`] — the Monte-Carlo tier's differential check:
//!   sampled accept/reject decisions vs. exact enumeration on enumerable
//!   instances, with the aggregate failure rate held to the sampler's δ
//!   budget and hard violations for its deterministic invariants.
//! * [`metamorphic`] — invariance checks: label renaming, vertex/edge
//!   insertion-order permutation, and monotonicity in τ and α.
//! * [`bgp`] — the BGP evaluation oracle: seeded star/path/triangle/
//!   cyclic patterns over synthetic KBs, leapfrog triejoin vs. the
//!   nested-loop reference, metamorphic pattern/rename/monotonicity
//!   relations, estimator q-error sanity, and planner-vs-greedy seek
//!   accounting.
//! * [`runner`] — the conformance runner behind `uqsj-cli conformance`
//!   and the CI quick/deep profiles; [`report`] is its outcome type.
//!
//! The suite is *differential*: it never re-derives a theorem, it compares
//! independent implementations (fast vs. naive, bound vs. exact, pruned
//! vs. enumerated) on seeded workloads biased toward the τ/α decision
//! boundaries where an unsound bound would actually flip an answer.

pub mod bgp;
pub mod gen;
pub mod metamorphic;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod sample_oracle;

pub use gen::{GenConfig, SyntheticFamily, SyntheticSpec};
pub use report::{ConformanceReport, Violation};
pub use runner::{run_conformance, ConformanceConfig, Profile};
