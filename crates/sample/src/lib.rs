//! Monte-Carlo SimP verification tier with `(ε, δ)` guarantees and
//! adaptive tier dispatch.
//!
//! Exact `SimP_τ(q, g)` verification enumerates every possible world —
//! exponential in the number of uncertain vertices, which caps how large
//! an NLQ graph the join can verify at all. This crate trades exactness
//! for a *bounded, tunable* error: worlds are drawn i.i.d. from the
//! vertex-label distributions, verified with the same label-patching
//! [`uqsj_uncertain::WorldVerifier`] fast path the exact tier uses, and
//! the `SimP ≥ α` decision is made by a sequential early-stopping rule
//! built on an anytime-valid confidence sequence. Outside the `±ε`
//! indifference band around α the decision is correct with probability at
//! least `1 − δ`; inside it either answer is acceptable by construction.
//!
//! * [`seed`] — the workspace-wide splitmix64 sub-seed convention; every
//!   sampled decision replays from a printed seed.
//! * [`estimator`] — the Hoeffding / empirical-Bernstein confidence
//!   sequence that survives peeking after every draw.
//! * [`sampler`] — stratified drawing over the possible-world groups:
//!   pruned strata contribute exactly 0, enumerable strata fold in
//!   exactly, and only the residual mass is sampled.
//! * [`tier`] — the [`SimpMode::Auto`] dispatcher routing each candidate
//!   pair to exact enumeration or sampling by its (saturation-aware)
//!   `world_count()`.

pub mod estimator;
mod obs;
pub mod sampler;
pub mod seed;
pub mod tier;

pub use estimator::ConfidenceSequence;
pub use sampler::{
    sample_simp_prepared, sample_simp_with, SampleOutcome, SampleParams, StopReason, MAX_DRAW_CAP,
};
pub use seed::{derive_seed, pair_seed, rng_for};
pub use tier::{choose_tier, verify_pair_with, SimpMode, SimpPolicy, Tier, TierOutcome};
