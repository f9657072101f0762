//! Adaptive verification-tier dispatch: exact enumeration for small world
//! spaces, Monte-Carlo sampling beyond.
//!
//! Exact verification cost grows with `world_count()`; the sampled cost is
//! bounded by the `(ε, δ)` draw budget regardless of the world count. The
//! dispatcher therefore routes each candidate pair by comparing its world
//! count against a threshold — including counts that *saturated* during
//! the `u128` product (graphs with hundreds of uncertain vertices), which
//! are by definition enumeration-infeasible and always sample.

use crate::sampler::{sample_simp_prepared, SampleParams, StopReason};
use uqsj_ged::astar::GedResult;
use uqsj_ged::engine::GedEngine;
use uqsj_graph::{Graph, SymbolTable};
use uqsj_uncertain::groups::PossibleWorldGroup;
use uqsj_uncertain::{verify_simp_prepared, WorldVerifier};

/// How `SimP ≥ α` decisions are made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimpMode {
    /// Always enumerate every possible world (the paper's Algorithm 1).
    Exact,
    /// Always sample, whatever the world count.
    Sample,
    /// Enumerate below [`SimpPolicy::auto_world_threshold`] worlds,
    /// sample at or above it.
    Auto,
}

/// The verification-tier policy carried by join parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimpPolicy {
    /// Tier selection mode.
    pub mode: SimpMode,
    /// Indifference half-width of the sampled decision.
    pub epsilon: f64,
    /// Error probability of the sampled decision outside ±ε.
    pub delta: f64,
    /// Base seed; each pair derives its own sub-seed so parallel drivers
    /// stay order-independent and every decision replays from this value.
    pub seed: u64,
    /// `Auto` samples when `world_count()` meets or exceeds this.
    pub auto_world_threshold: u128,
}

impl SimpPolicy {
    /// Default crossover for [`SimpMode::Auto`] — matches the world-count
    /// ceiling up to which the exact verifier is willing to collect and
    /// sort worlds for its early-exit ordering.
    pub const DEFAULT_AUTO_THRESHOLD: u128 = 4096;

    /// Exact-only verification (the historical behaviour).
    pub fn exact() -> Self {
        Self {
            mode: SimpMode::Exact,
            epsilon: 0.05,
            delta: 0.05,
            seed: 42,
            auto_world_threshold: Self::DEFAULT_AUTO_THRESHOLD,
        }
    }

    /// Always-sample policy with the given guarantee.
    pub fn sample(epsilon: f64, delta: f64, seed: u64) -> Self {
        Self { mode: SimpMode::Sample, epsilon, delta, seed, ..Self::exact() }
    }

    /// Adaptive policy with the given guarantee.
    pub fn auto(epsilon: f64, delta: f64, seed: u64) -> Self {
        Self { mode: SimpMode::Auto, epsilon, delta, seed, ..Self::exact() }
    }

    /// Override the auto crossover threshold.
    pub fn with_threshold(self, auto_world_threshold: u128) -> Self {
        Self { auto_world_threshold, ..self }
    }

    /// The sampler parameters this policy implies.
    pub fn sample_params(&self) -> SampleParams {
        SampleParams::new(self.epsilon, self.delta)
    }
}

/// Which tier verified a pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Exact enumeration.
    Exact,
    /// Monte-Carlo sampling.
    Sample,
}

/// Route one pair given its (possibly saturated) world count. A count of
/// `u128::MAX` means the product saturated — enumeration-infeasible, so
/// `Auto` always samples it.
pub fn choose_tier(policy: &SimpPolicy, world_count: u128) -> Tier {
    match policy.mode {
        SimpMode::Exact => Tier::Exact,
        SimpMode::Sample => Tier::Sample,
        SimpMode::Auto => {
            if world_count >= policy.auto_world_threshold {
                Tier::Sample
            } else {
                Tier::Exact
            }
        }
    }
}

/// Outcome of a tier-dispatched `SimP ≥ α` decision; a superset of the
/// exact tier's `VerifyOutcome` fields.
#[derive(Clone, Debug)]
pub struct TierOutcome {
    /// `SimP_τ(q, g)` — exact (possibly early-exited) on the exact tier,
    /// the certified point estimate on the sampled tier.
    pub prob: f64,
    /// The decision `SimP_τ(q, g) ≥ α`; exact on the exact tier, correct
    /// with probability ≥ 1−δ outside ±ε on the sampled tier.
    pub passed: bool,
    /// Mapping of the most probable qualifying world seen, if any.
    pub best_mapping: Option<GedResult>,
    /// Probability of the world behind `best_mapping`.
    pub best_world_prob: f64,
    /// Worlds on which the τ-bounded decision ran.
    pub worlds_verified: usize,
    /// Which tier decided the pair.
    pub tier: Tier,
    /// Worlds drawn by the sampler (0 on the exact tier).
    pub worlds_sampled: u64,
    /// False only when the sampler's draw budget ran out.
    pub guaranteed: bool,
    /// Why the decision terminated: always
    /// [`StopReason::ExactOnly`] on the exact tier, the sampler's
    /// confidence-sequence stopping rule on the sampled tier.
    pub stop: StopReason,
    /// The pair's replay seed (meaningful on the sampled tier).
    pub seed: u64,
}

/// Verify one candidate pair `(q, g)` through the tier the policy selects,
/// on a caller-owned engine and on verifier state prepared for `g`, which
/// the caller reuses across every query it verifies against `g`. `groups`
/// is an optional possible-world partition (reused by both tiers when
/// present); `pair_seed` should come from [`crate::seed::pair_seed`] so
/// results are independent of driver order.
///
/// A non-finite `alpha` (exact-probability request) always takes the
/// exact tier — the sampler has no meaningful answer for it.
#[allow(clippy::too_many_arguments)] // the join loop's full verification context
pub fn verify_pair_with(
    engine: &mut GedEngine,
    verifier: &mut WorldVerifier<'_>,
    table: &SymbolTable,
    q: &Graph,
    tau: u32,
    alpha: f64,
    groups: Option<&[PossibleWorldGroup]>,
    policy: &SimpPolicy,
    pair_seed: u64,
) -> TierOutcome {
    let obs = crate::obs::sample_obs();
    let world_count = verifier.graph().world_count();
    let tier = if alpha.is_finite() { choose_tier(policy, world_count) } else { Tier::Exact };
    match tier {
        Tier::Exact => {
            obs.dispatch_exact.inc();
            let out = verify_simp_prepared(engine, verifier, table, q, tau, alpha, groups);
            TierOutcome {
                prob: out.prob,
                passed: out.passed,
                best_mapping: out.best_mapping,
                best_world_prob: out.best_world_prob,
                worlds_verified: out.worlds_verified,
                tier: Tier::Exact,
                worlds_sampled: 0,
                guaranteed: true,
                stop: StopReason::ExactOnly,
                seed: pair_seed,
            }
        }
        Tier::Sample => {
            obs.dispatch_sample.inc();
            let out = sample_simp_prepared(
                engine,
                verifier,
                table,
                q,
                tau,
                alpha,
                groups,
                &policy.sample_params(),
                pair_seed,
            );
            debug_assert!(
                !out.passed || alpha <= 0.0 || out.best_mapping.is_some(),
                "sampled accept without a witnessing mapping"
            );
            TierOutcome {
                prob: out.estimate,
                passed: out.passed,
                best_mapping: out.best_mapping,
                best_world_prob: out.best_world_prob,
                worlds_verified: out.worlds_verified,
                tier: Tier::Sample,
                worlds_sampled: out.worlds_sampled,
                guaranteed: out.stop != StopReason::BudgetExhausted,
                stop: out.stop,
                seed: pair_seed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::pair_seed;
    use uqsj_graph::{GraphBuilder, UncertainGraph};

    fn pair(t: &mut SymbolTable) -> (Graph, UncertainGraph) {
        let mut bq = GraphBuilder::new(t);
        bq.vertex("x", "?x");
        bq.vertex("a", "Actor");
        bq.edge("x", "a", "type");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(t);
        bg.vertex("y", "?y");
        bg.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        bg.edge("y", "m", "type");
        (q, bg.into_uncertain())
    }

    #[test]
    fn auto_routes_by_world_count_and_saturation() {
        let policy = SimpPolicy::auto(0.05, 0.05, 1).with_threshold(100);
        assert_eq!(choose_tier(&policy, 1), Tier::Exact);
        assert_eq!(choose_tier(&policy, 99), Tier::Exact);
        assert_eq!(choose_tier(&policy, 100), Tier::Sample);
        // Saturated world counts are enumeration-infeasible by definition.
        assert_eq!(choose_tier(&policy, u128::MAX), Tier::Sample);
        assert_eq!(choose_tier(&SimpPolicy::exact(), u128::MAX), Tier::Exact);
        assert_eq!(choose_tier(&SimpPolicy::sample(0.05, 0.05, 1), 1), Tier::Sample);
    }

    #[test]
    fn tiers_agree_on_a_small_pair() {
        let mut t = SymbolTable::new();
        let (q, g) = pair(&mut t);
        let mut engine = GedEngine::new();
        for alpha in [0.2f64, 0.5, 0.9] {
            let exact = verify_pair_with(
                &mut engine,
                &mut WorldVerifier::prepare(&t, &g),
                &t,
                &q,
                0,
                alpha,
                None,
                &SimpPolicy::exact(),
                pair_seed(1, 0, 0),
            );
            let sampled = verify_pair_with(
                &mut engine,
                &mut WorldVerifier::prepare(&t, &g),
                &t,
                &q,
                0,
                alpha,
                None,
                &SimpPolicy::sample(0.05, 0.05, 1),
                pair_seed(1, 0, 0),
            );
            assert_eq!(exact.tier, Tier::Exact);
            assert_eq!(sampled.tier, Tier::Sample);
            assert_eq!(exact.passed, sampled.passed, "alpha={alpha}");
        }
    }

    #[test]
    fn infinite_alpha_always_takes_the_exact_tier() {
        let mut t = SymbolTable::new();
        let (q, g) = pair(&mut t);
        let mut engine = GedEngine::new();
        let out = verify_pair_with(
            &mut engine,
            &mut WorldVerifier::prepare(&t, &g),
            &t,
            &q,
            0,
            f64::INFINITY,
            None,
            &SimpPolicy::sample(0.05, 0.05, 1),
            7,
        );
        assert_eq!(out.tier, Tier::Exact);
        assert!((out.prob - 0.4).abs() < 1e-9);
    }
}
