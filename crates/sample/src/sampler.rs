//! Stratified Monte-Carlo estimation of `SimP_τ(q, g)` and the sequential
//! `SimP ≥ α` decision.
//!
//! Exact verification enumerates every possible world — exponential in the
//! number of uncertain vertices. The sampler instead draws worlds i.i.d.
//! from the vertex-label distributions and verifies each with the same
//! label-patching [`WorldVerifier`] fast path the exact tier uses (no
//! per-world graph materialization), deciding `SimP_τ(q, g) ≥ α` through
//! the anytime-valid confidence sequence of [`crate::estimator`].
//!
//! # Stratification
//!
//! The possible-world groups of `uqsj-uncertain` (Sec. 6.2) partition the
//! worlds; the sampler exploits the partition three ways:
//!
//! * groups whose restricted CSS bound exceeds τ contribute **exactly 0**
//!   and are dropped (no variance spent on certain rejections);
//! * groups with at most [`SampleParams::exact_stratum_worlds`] worlds are
//!   enumerated **exactly** and their qualifying mass is folded into the
//!   estimate with zero variance;
//! * only the remaining mass `M` is sampled: a stratum is picked with
//!   probability proportional to its mass and a world drawn vertex by
//!   vertex with the conditional probabilities `p_i / mass(v)`, so the
//!   scaled indicator `M · X` is an unbiased estimator of the sampled
//!   contribution. Def. 2 mass slack (`Σ p < 1`) is handled by the same
//!   scaling — no draw is wasted on "no world".
//!
//! # Guarantee
//!
//! With probability at least `1 − δ` the decision is correct whenever
//! `|SimP_τ(q, g) − α| > ε`; inside the `±ε` band either answer may be
//! returned (the indifference region of the sequential test). Every
//! decision is a pure function of the seed — replaying a printed seed
//! reproduces it draw for draw.

use crate::estimator::ConfidenceSequence;
use crate::obs::sample_obs;
use crate::seed::rng_for;
use rand::Rng;
use std::collections::HashMap;
use uqsj_ged::astar::GedResult;
use uqsj_ged::engine::GedEngine;
use uqsj_graph::{Graph, Symbol, SymbolTable, UncertainGraph};
use uqsj_uncertain::groups::PossibleWorldGroup;
use uqsj_uncertain::verifier::{VerifyStage, WorldVerifier};

/// Hard ceiling on draws per decision, protecting against pathological
/// `(ε, δ)` choices; a decision forced by it reports
/// [`StopReason::BudgetExhausted`].
pub const MAX_DRAW_CAP: u64 = 10_000_000;

/// Per-pair memo of draw → verdict; duplicate draws of mid-sized world
/// spaces skip the τ-bounded search entirely. Bounded so adversarial
/// world spaces cannot balloon memory.
const MEMO_CAP: usize = 1 << 16;

/// Tuning knobs of the sampled `SimP ≥ α` decision.
#[derive(Clone, Copy, Debug)]
pub struct SampleParams {
    /// Half-width of the indifference region around α.
    pub epsilon: f64,
    /// Probability that the decision is wrong outside the ±ε band.
    pub delta: f64,
    /// Draw budget; `0` derives the worst-case budget from `(ε, δ)`
    /// (capped at [`MAX_DRAW_CAP`]).
    pub max_samples: u64,
    /// Strata with at most this many worlds are enumerated exactly.
    pub exact_stratum_worlds: u128,
}

impl Default for SampleParams {
    fn default() -> Self {
        Self { epsilon: 0.05, delta: 0.05, max_samples: 0, exact_stratum_worlds: 16 }
    }
}

impl SampleParams {
    /// Params with the given guarantee and defaults elsewhere.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        Self { epsilon, delta, ..Self::default() }
    }
}

/// Why the sampled decision terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Exact strata alone settled the threshold — nothing was sampled.
    ExactOnly,
    /// The confidence interval rose entirely above the threshold.
    CertainAccept,
    /// The confidence interval fell entirely below the threshold.
    CertainReject,
    /// The interval shrank to ±ε; the point estimate decided.
    Resolved,
    /// The draw budget ran out before resolution — the answer is the
    /// point estimate *without* the (ε,δ) certificate.
    BudgetExhausted,
}

impl StopReason {
    /// Stable snake_case label, used by metric labels, EXPLAIN reports,
    /// and the join layer's name-keyed stop-reason counters.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::ExactOnly => "exact_only",
            StopReason::CertainAccept => "certain_accept",
            StopReason::CertainReject => "certain_reject",
            StopReason::Resolved => "resolved",
            StopReason::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// Result of one sampled (or exactly folded) `SimP ≥ α` decision.
#[derive(Clone, Debug)]
pub struct SampleOutcome {
    /// The decision `SimP_τ(q, g) ≥ α`, correct with probability ≥ 1−δ
    /// outside the ±ε indifference band.
    pub passed: bool,
    /// Unbiased point estimate of `SimP_τ(q, g)` (exact part + scaled
    /// sample mean).
    pub estimate: f64,
    /// Anytime-valid confidence interval on `SimP` at the stop.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
    /// Worlds drawn by the sampler (memoized draws included).
    pub worlds_sampled: u64,
    /// Worlds on which the τ-bounded decision actually ran (exact strata
    /// plus non-memoized draws surviving the CSS filter).
    pub worlds_verified: usize,
    /// Mapping of the most probable qualifying world seen, if any —
    /// present on every accept with `α > 0`.
    pub best_mapping: Option<GedResult>,
    /// Probability of the world behind `best_mapping`.
    pub best_world_prob: f64,
    /// Which rule terminated the decision.
    pub stop: StopReason,
    /// Whether the (ε,δ) certificate holds (false only on
    /// [`StopReason::BudgetExhausted`]).
    pub guaranteed: bool,
    /// The seed that replays this decision exactly.
    pub seed: u64,
}

/// One sampling stratum: the group's label sets plus per-vertex masses
/// and the stratum's total (unconditional) mass.
struct Stratum {
    label_sets: Vec<Vec<(Symbol, f64)>>,
    vertex_mass: Vec<f64>,
    mass: f64,
}

/// Decide `SimP_τ(q, g) ≥ alpha` by stratified sequential sampling on a
/// caller-owned engine. `groups` is the possible-world partition to
/// stratify over (e.g. the one `ub_simp_grouped` already computed);
/// `None` samples the full world space as a single stratum. `alpha` must
/// be finite — exact-probability requests belong to the exact tier.
#[allow(clippy::too_many_arguments)] // mirrors verify_simp_groups_with + policy
pub fn sample_simp_with(
    engine: &mut GedEngine,
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
    groups: Option<&[PossibleWorldGroup]>,
    params: &SampleParams,
    seed: u64,
) -> SampleOutcome {
    let mut verifier = WorldVerifier::prepare(table, g);
    sample_simp_prepared(engine, &mut verifier, table, q, tau, alpha, groups, params, seed)
}

/// [`sample_simp_with`] on verifier state already prepared for `g`, which
/// the caller may reuse across queries: `q` is bound to it here.
#[allow(clippy::too_many_arguments)] // sample_simp_with with the verifier for g
pub fn sample_simp_prepared(
    engine: &mut GedEngine,
    verifier: &mut WorldVerifier<'_>,
    table: &SymbolTable,
    q: &Graph,
    tau: u32,
    alpha: f64,
    groups: Option<&[PossibleWorldGroup]>,
    params: &SampleParams,
    seed: u64,
) -> SampleOutcome {
    assert!(alpha.is_finite(), "sampling needs a finite alpha; use the exact tier for SimP itself");
    let obs = sample_obs();
    let g = verifier.graph();

    // Def. 3: a vertex-less graph has zero possible worlds, so SimP = 0.
    if g.vertex_count() == 0 {
        obs.draws.observe(0);
        obs.decide_reject.inc();
        return exact_only_outcome(0.0, 0.0, alpha, None, 0.0, 0, seed);
    }
    verifier.set_query(table, q);

    let full;
    let strata_source: &[PossibleWorldGroup] = match groups {
        Some(parts) => parts,
        None => {
            full = [PossibleWorldGroup::full(g)];
            &full
        }
    };

    // Phase 1: fold what can be folded exactly.
    let mut exact_base = 0.0f64;
    let mut best_mapping = None;
    let mut best_world_prob = 0.0f64;
    let mut worlds_verified = 0usize;
    let mut strata: Vec<Stratum> = Vec::new();
    for grp in strata_source {
        let lb = grp.lb_ged(table, q, g);
        verifier.lap(VerifyStage::Css);
        if lb > tau {
            continue; // contributes exactly 0
        }
        if grp.world_count() <= params.exact_stratum_worlds {
            for (labels, prob) in grp.worlds() {
                obs.exact_fold_worlds.inc();
                verifier.set_labels(&labels);
                if verifier.css_admits(table, q, tau) {
                    worlds_verified += 1;
                    if let Some(result) = verifier.within_tau(engine, tau) {
                        exact_base += prob;
                        if prob > best_world_prob {
                            best_world_prob = prob;
                            best_mapping = Some(result);
                        }
                    }
                }
            }
        } else {
            let vertex_mass: Vec<f64> =
                grp.label_sets.iter().map(|s| s.iter().map(|(_, p)| p).sum()).collect();
            let mass: f64 = vertex_mass.iter().product();
            if mass > 0.0 {
                strata.push(Stratum { label_sets: grp.label_sets.clone(), vertex_mass, mass });
            }
        }
    }
    let sampled_mass: f64 = strata.iter().map(|s| s.mass).sum();

    // Exact mass alone may already settle the threshold in either
    // direction — every sampled world's probability is bounded by the
    // remaining mass.
    if exact_base >= alpha || exact_base + sampled_mass < alpha {
        let passed = exact_base >= alpha;
        obs.draws.observe(0);
        if passed {
            obs.decide_accept.inc();
        } else {
            obs.decide_reject.inc();
        }
        return exact_only_outcome(
            exact_base,
            sampled_mass,
            alpha,
            best_mapping,
            best_world_prob,
            worlds_verified,
            seed,
        );
    }

    // Phase 2: sequential sampling of the residual mass. The threshold
    // and tolerance move to the conditional scale θ = (SimP − E)/M.
    let threshold = (alpha - exact_base) / sampled_mass;
    let eps_c = params.epsilon / sampled_mass;
    let budget = if params.max_samples > 0 {
        params.max_samples.min(MAX_DRAW_CAP)
    } else {
        ConfidenceSequence::budget(eps_c, params.delta).min(MAX_DRAW_CAP)
    };
    let mut rng = rng_for(seed);
    let mut cs = ConfidenceSequence::new(params.delta);
    let mut memo: HashMap<Vec<Symbol>, bool> = HashMap::new();
    let mut labels: Vec<Symbol> = Vec::with_capacity(g.vertex_count());
    let stop;
    loop {
        // Pick a stratum ∝ mass, then a world vertex-conditionally.
        let mut pick = rng.gen::<f64>() * sampled_mass;
        let mut chosen = strata.len() - 1;
        for (i, s) in strata.iter().enumerate() {
            if pick < s.mass {
                chosen = i;
                break;
            }
            pick -= s.mass;
        }
        let stratum = &strata[chosen];
        labels.clear();
        let mut world_prob = 1.0f64;
        for (set, &vmass) in stratum.label_sets.iter().zip(&stratum.vertex_mass) {
            let mut r = rng.gen::<f64>() * vmass;
            let mut idx = set.len() - 1;
            for (i, (_, p)) in set.iter().enumerate() {
                if r < *p {
                    idx = i;
                    break;
                }
                r -= p;
            }
            let (sym, p) = set[idx];
            labels.push(sym);
            world_prob *= p;
        }
        obs.worlds.inc();
        let pass = match memo.get(&labels) {
            Some(&cached) => {
                obs.memo_hits.inc();
                cached
            }
            None => {
                verifier.set_labels(&labels);
                let pass = if verifier.css_admits(table, q, tau) {
                    worlds_verified += 1;
                    match verifier.within_tau(engine, tau) {
                        Some(result) => {
                            if world_prob > best_world_prob {
                                best_world_prob = world_prob;
                                best_mapping = Some(result);
                            }
                            true
                        }
                        None => false,
                    }
                } else {
                    false
                };
                if memo.len() < MEMO_CAP {
                    memo.insert(labels.clone(), pass);
                }
                pass
            }
        };
        cs.observe(pass);
        let mean = cs.mean();
        let radius = cs.radius();
        if mean - radius >= threshold {
            stop = StopReason::CertainAccept;
            break;
        }
        if mean + radius < threshold {
            stop = StopReason::CertainReject;
            break;
        }
        if radius <= eps_c {
            stop = StopReason::Resolved;
            break;
        }
        if cs.n() >= budget {
            stop = StopReason::BudgetExhausted;
            break;
        }
    }

    let mean = cs.mean();
    let radius = cs.radius();
    let passed = match stop {
        StopReason::CertainAccept => true,
        StopReason::CertainReject => false,
        _ => mean >= threshold,
    };
    match stop {
        StopReason::CertainAccept => obs.early_accept.inc(),
        StopReason::CertainReject => obs.early_reject.inc(),
        StopReason::BudgetExhausted => obs.budget_exhausted.inc(),
        _ => {}
    }
    if passed {
        obs.decide_accept.inc();
    } else {
        obs.decide_reject.inc();
    }
    obs.draws.observe(cs.n());
    obs.estimate_error_bp.observe((sampled_mass * radius * 10_000.0).round() as u64);
    SampleOutcome {
        passed,
        estimate: exact_base + sampled_mass * mean,
        lo: exact_base + sampled_mass * (mean - radius).max(0.0),
        hi: exact_base + sampled_mass * (mean + radius).min(1.0),
        worlds_sampled: cs.n(),
        worlds_verified,
        best_mapping,
        best_world_prob,
        stop,
        guaranteed: stop != StopReason::BudgetExhausted,
        seed,
    }
}

/// Outcome of a decision settled without any sampling.
fn exact_only_outcome(
    exact_base: f64,
    sampled_mass: f64,
    alpha: f64,
    best_mapping: Option<GedResult>,
    best_world_prob: f64,
    worlds_verified: usize,
    seed: u64,
) -> SampleOutcome {
    SampleOutcome {
        passed: exact_base >= alpha,
        estimate: exact_base,
        lo: exact_base,
        hi: exact_base + sampled_mass,
        worlds_sampled: 0,
        worlds_verified,
        best_mapping,
        best_world_prob,
        stop: StopReason::ExactOnly,
        guaranteed: true,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::derive_seed;
    use uqsj_graph::GraphBuilder;
    use uqsj_uncertain::similarity_probability;

    /// The paper's running example: SimP_0 = 0.4, SimP_1 = 1.0.
    fn example_pair(t: &mut SymbolTable) -> (Graph, UncertainGraph) {
        let mut bq = GraphBuilder::new(t);
        bq.vertex("x", "?x");
        bq.vertex("a", "Actor");
        bq.vertex("c", "Country");
        bq.edge("x", "a", "type");
        bq.edge("x", "c", "birthPlace");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(t);
        bg.vertex("y", "?y");
        bg.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        bg.vertex("c", "Country");
        bg.edge("y", "m", "type");
        bg.edge("y", "c", "birthPlace");
        let g = bg.into_uncertain();
        (q, g)
    }

    /// A pair with a wider world space (3 × 3 × 2 = 18 worlds) and mass
    /// slack on one vertex.
    fn wide_pair(t: &mut SymbolTable) -> (Graph, UncertainGraph) {
        let mut bq = GraphBuilder::new(t);
        bq.vertex("x", "?x");
        bq.vertex("a", "Actor");
        bq.vertex("c", "City");
        bq.edge("x", "a", "type");
        bq.edge("a", "c", "birthPlace");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(t);
        bg.uncertain_vertex("y", &[("?y", 0.6), ("Film", 0.3)]); // slack 0.1
        bg.uncertain_vertex("m", &[("NBA_Player", 0.5), ("Professor", 0.3), ("Actor", 0.2)]);
        bg.uncertain_vertex("n", &[("State", 0.4), ("City", 0.3), ("Town", 0.3)]);
        bg.edge("y", "m", "type");
        bg.edge("m", "n", "birthPlace");
        (q, bg.into_uncertain())
    }

    fn force_sampling() -> SampleParams {
        SampleParams { exact_stratum_worlds: 0, ..SampleParams::new(0.05, 0.05) }
    }

    #[test]
    fn sampled_decision_matches_exact_away_from_boundary() {
        let mut t = SymbolTable::new();
        let (q, g) = example_pair(&mut t);
        let mut engine = GedEngine::new();
        let exact = similarity_probability(&t, &q, &g, 0);
        assert!((exact - 0.4).abs() < 1e-9);
        for (i, alpha) in [0.1f64, 0.25, 0.6, 0.9].into_iter().enumerate() {
            let out = sample_simp_with(
                &mut engine,
                &t,
                &q,
                &g,
                0,
                alpha,
                None,
                &force_sampling(),
                derive_seed(7, i as u64),
            );
            assert_eq!(out.passed, exact >= alpha, "alpha={alpha}: {out:?}");
            assert!(out.guaranteed);
            assert!((out.estimate - exact).abs() < 0.12, "alpha={alpha}: {}", out.estimate);
        }
    }

    #[test]
    fn wide_pair_estimate_tracks_exact_with_slack_mass() {
        let mut t = SymbolTable::new();
        let (q, g) = wide_pair(&mut t);
        let mut engine = GedEngine::new();
        for tau in [1u32, 2] {
            let exact = similarity_probability(&t, &q, &g, tau);
            let out = sample_simp_with(
                &mut engine,
                &t,
                &q,
                &g,
                tau,
                0.5,
                None,
                &SampleParams { epsilon: 0.02, ..force_sampling() },
                derive_seed(11, u64::from(tau)),
            );
            assert!(
                (out.estimate - exact).abs() <= 0.05,
                "tau={tau}: estimate {} vs exact {exact}",
                out.estimate
            );
            assert_eq!(out.passed, exact >= 0.5, "tau={tau}");
        }
    }

    #[test]
    fn enumerable_strata_fold_exactly() {
        let mut t = SymbolTable::new();
        let (q, g) = example_pair(&mut t);
        let mut engine = GedEngine::new();
        // Default exact_stratum_worlds (16) swallows the 2-world space.
        let out =
            sample_simp_with(&mut engine, &t, &q, &g, 0, 0.3, None, &SampleParams::default(), 1);
        assert_eq!(out.stop, StopReason::ExactOnly);
        assert_eq!(out.worlds_sampled, 0);
        assert!((out.estimate - 0.4).abs() < 1e-12, "exact fold should be exact");
        assert!(out.passed);
        assert!(out.best_mapping.is_some());
    }

    #[test]
    fn accept_always_carries_a_mapping() {
        let mut t = SymbolTable::new();
        let (q, g) = wide_pair(&mut t);
        let mut engine = GedEngine::new();
        for i in 0..8u64 {
            let out = sample_simp_with(
                &mut engine,
                &t,
                &q,
                &g,
                2,
                0.3,
                None,
                &force_sampling(),
                derive_seed(23, i),
            );
            if out.passed {
                assert!(out.best_mapping.is_some(), "seed index {i}");
                assert!(out.best_world_prob > 0.0);
            }
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let mut t = SymbolTable::new();
        let (q, g) = wide_pair(&mut t);
        let mut engine = GedEngine::new();
        let run = |engine: &mut GedEngine| {
            sample_simp_with(engine, &t, &q, &g, 1, 0.5, None, &force_sampling(), 99)
        };
        let a = run(&mut engine);
        let b = run(&mut engine);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.worlds_sampled, b.worlds_sampled);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.stop, b.stop);
    }

    #[test]
    fn empty_graph_rejects_with_zero_worlds() {
        let t = SymbolTable::new();
        let q = Graph::new();
        let g = UncertainGraph::new();
        let mut engine = GedEngine::new();
        let out =
            sample_simp_with(&mut engine, &t, &q, &g, 10, 0.5, None, &SampleParams::default(), 3);
        assert!(!out.passed);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.worlds_sampled, 0);
    }

    #[test]
    fn stratified_groups_agree_with_single_stratum() {
        let mut t = SymbolTable::new();
        let (q, g) = wide_pair(&mut t);
        let mut engine = GedEngine::new();
        let groups = uqsj_uncertain::partition_groups(
            &t,
            &q,
            &g,
            2,
            4,
            uqsj_uncertain::SplitHeuristic::HighestMass,
        );
        let exact = similarity_probability(&t, &q, &g, 2);
        let flat = sample_simp_with(&mut engine, &t, &q, &g, 2, 0.5, None, &force_sampling(), 5);
        let strat =
            sample_simp_with(&mut engine, &t, &q, &g, 2, 0.5, Some(&groups), &force_sampling(), 5);
        assert_eq!(flat.passed, exact >= 0.5);
        assert_eq!(strat.passed, exact >= 0.5);
        assert!((strat.estimate - exact).abs() <= 0.1, "{} vs {exact}", strat.estimate);
    }
}
