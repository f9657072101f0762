//! The differential-oracle layer.
//!
//! Each oracle compares two independent implementations of the same
//! quantity on one generated input and records a
//! [`Violation`](crate::report::Violation) on
//! disagreement — it never re-derives a theorem, it cross-examines the
//! code paths that claim to obey it:
//!
//! | oracle | claim | implementations compared |
//! |---|---|---|
//! | `bound_le_exact` | Thm 1/3 (and the baselines' papers): every lower bound is admissible in every possible world | each [`LowerBound`] vs. `ged::reference` |
//! | `engine_eq_reference` | engine refactors preserve A\* semantics | [`GedEngine`] vs. `ged::reference` (exact and τ-bounded) |
//! | `simp_eq_enumeration` | `verify_simp` computes Def. 6 | engine-backed verifier vs. direct per-world reference enumeration |
//! | `markov_ge_simp` | Thm 4: the Markov filter never under-estimates | `ub_simp` / `ub_simp_exact_tail` vs. exact `SimP_τ` |
//! | `grouped_eq_flat` | Sec. 6.2 grouping changes cost, not answers | grouped bound/verify vs. flat enumeration |
//! | `alpha_decision` | early exits are one-sided but the pass/fail verdict is exact | `verify_simp(α)` vs. exact `SimP_τ ≥ α` |
//! | `joins_agree` | pruning must not change results | six join configurations (three strategies, parallel, indexed, forced sampling tier) vs. brute-force membership |

use crate::gen::derive_seed;
use crate::report::ConformanceReport;
use uqsj_ged::bounds::{all_bounds, LowerBound};
use uqsj_ged::reference::{ged_bounded_reference, ged_reference};
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};
use uqsj_sample::SimpPolicy;
use uqsj_simjoin::{sim_join, JoinIndex, JoinParams, JoinStrategy};
use uqsj_uncertain::groups::{partition_groups, ub_simp_grouped, verify_simp_groups_with};
use uqsj_uncertain::prob::verify_simp_with;
use uqsj_uncertain::prob_bound::{ub_simp, ub_simp_exact_tail};
use uqsj_uncertain::SplitHeuristic;

/// Tolerance for comparing two *different enumeration orders* of the same
/// probability sum (float products accumulate in different orders).
const PROB_EPS: f64 = 1e-9;

/// Guard band around α: pairs whose exact probability lands this close to
/// the threshold are excluded from membership verdicts, since different
/// (all correct) accumulation orders may legitimately disagree there.
const ALPHA_GUARD: f64 = 1e-6;

/// The pair-level oracles. Holds the bound list once; a test-only
/// mutation hook can deliberately weaken one bound to prove the suite
/// detects over-pruning (see `mutation` below).
pub struct PairOracles {
    bounds: Vec<Box<dyn LowerBound + Send + Sync>>,
    /// When set, the named bound's value is inflated by this much before
    /// the admissibility comparison — a deliberate, test-only fault
    /// injection. Compiled only under `cfg(test)`, so release binaries
    /// physically cannot carry a weakened oracle.
    #[cfg(test)]
    pub(crate) mutation: Option<(&'static str, u32)>,
}

impl Default for PairOracles {
    fn default() -> Self {
        Self::new()
    }
}

impl PairOracles {
    /// Oracles over [`all_bounds`].
    pub fn new() -> Self {
        Self {
            bounds: all_bounds(),
            #[cfg(test)]
            mutation: None,
        }
    }

    /// A bound's value with the test-only mutation applied.
    fn certain_value(&self, b: &dyn LowerBound, t: &SymbolTable, q: &Graph, g: &Graph) -> u32 {
        let v = b.certain(t, q, g);
        #[cfg(test)]
        if let Some((name, add)) = self.mutation {
            if name == b.name() {
                return v + add;
            }
        }
        v
    }

    fn uncertain_value(
        &self,
        b: &dyn LowerBound,
        t: &SymbolTable,
        q: &Graph,
        g: &UncertainGraph,
    ) -> u32 {
        let v = b.uncertain(t, q, g);
        #[cfg(test)]
        if let Some((name, add)) = self.mutation {
            if name == b.name() {
                return v + add;
            }
        }
        v
    }

    /// Run every per-pair oracle on `(q, g)`, recording coverage and
    /// violations into `report`. `seed` is the pair's replay seed.
    ///
    /// The caller guarantees `g.world_count()` is small (the generators
    /// cap it); this enumerates every world twice — once against the
    /// reference A\* and once through the production verifier.
    pub fn check_pair(
        &self,
        engine: &mut GedEngine,
        table: &SymbolTable,
        q: &Graph,
        g: &UncertainGraph,
        seed: u64,
        report: &mut ConformanceReport,
    ) {
        report.pairs += 1;
        // Per-world exact distances via the naive reference — the ground
        // truth everything else is measured against.
        let uncertain_values: Vec<(&'static str, u32)> = self
            .bounds
            .iter()
            .map(|b| (b.name(), self.uncertain_value(b.as_ref(), table, q, g)))
            .collect();
        let mut world_dists: Vec<(f64, u32)> = Vec::new();
        for world in g.possible_worlds() {
            report.worlds += 1;
            let exact = ged_reference(table, q, &world.graph).distance;
            world_dists.push((world.prob, exact));

            // Oracle: every bound is admissible in this world, both the
            // certain form (on the materialized world) and the uncertain
            // form (which must hold for *every* world — Theorem 3 for
            // CSS, structure-only soundness for the baselines).
            for b in &self.bounds {
                let lb = self.certain_value(b.as_ref(), table, q, &world.graph);
                *report.bound_checks.entry(b.name()).or_default() += 1;
                if lb > exact {
                    report.violation(
                        "bound_le_exact",
                        seed,
                        format!("{} certain bound {lb} > exact GED {exact}", b.name()),
                    );
                }
            }
            for &(name, lb) in &uncertain_values {
                if lb > exact {
                    report.violation(
                        "bound_le_exact",
                        seed,
                        format!("{name} uncertain bound {lb} > exact world GED {exact}"),
                    );
                }
            }

            // Oracle: the production engine reproduces the reference.
            report.engine_checks += 1;
            let engine_exact = engine.ged(table, q, &world.graph).distance;
            if engine_exact != exact {
                report.violation(
                    "engine_eq_reference",
                    seed,
                    format!("engine GED {engine_exact} != reference {exact}"),
                );
            }
            for tau in [exact.saturating_sub(1), exact, exact + 1] {
                let e = engine.ged_bounded(table, q, &world.graph, tau).map(|r| r.distance);
                let r = ged_bounded_reference(table, q, &world.graph, tau).map(|r| r.distance);
                if e != r {
                    report.violation(
                        "engine_eq_reference",
                        seed,
                        format!("τ-bounded at τ={tau}: engine {e:?} != reference {r:?}"),
                    );
                }
            }
        }

        // τ values straddling the boundary: the extreme world distances
        // plus one on each side.
        let dmin = world_dists.iter().map(|&(_, d)| d).min().unwrap_or(0);
        let dmax = world_dists.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let mut taus = vec![dmin.saturating_sub(1), dmin, dmin.midpoint(dmax), dmax, dmax + 1];
        taus.sort_unstable();
        taus.dedup();

        for tau in taus {
            // Ground-truth SimP_τ from the reference distances.
            let exact_simp: f64 =
                world_dists.iter().filter(|&&(_, d)| d <= tau).map(|&(p, _)| p).sum();

            // Oracle: the production flat verifier computes Def. 6.
            report.simp_flat += 1;
            let flat = verify_simp_with(engine, table, q, g, tau, f64::INFINITY);
            if (flat.prob - exact_simp).abs() > PROB_EPS {
                report.violation(
                    "simp_eq_enumeration",
                    seed,
                    format!("τ={tau}: verifier SimP {} != reference {exact_simp}", flat.prob),
                );
            }

            // Oracle: Theorem 4 and its exact-tail refinement.
            let markov = ub_simp(table, q, g, tau);
            if markov + PROB_EPS < exact_simp {
                report.violation(
                    "markov_ge_simp",
                    seed,
                    format!("τ={tau}: Markov bound {markov} < exact SimP {exact_simp}"),
                );
            }
            let tail = ub_simp_exact_tail(table, q, g, tau);
            if tail + PROB_EPS < exact_simp || tail > markov + PROB_EPS {
                report.violation(
                    "markov_ge_simp",
                    seed,
                    format!(
                        "τ={tau}: exact tail {tail} outside [SimP {exact_simp}, Markov {markov}]"
                    ),
                );
            }

            // Oracle: grouping refines the bound and preserves answers.
            for gn in [2usize, 4] {
                let (grouped_ub, parts) = ub_simp_grouped(table, q, g, tau, gn);
                if grouped_ub + PROB_EPS < exact_simp {
                    report.violation(
                        "grouped_eq_flat",
                        seed,
                        format!("τ={tau} GN={gn}: grouped bound {grouped_ub} < exact {exact_simp}"),
                    );
                }
                if grouped_ub > markov + PROB_EPS {
                    report.violation(
                        "grouped_eq_flat",
                        seed,
                        format!("τ={tau} GN={gn}: grouped bound {grouped_ub} > Markov {markov}"),
                    );
                }
                report.simp_grouped += 1;
                let grouped =
                    verify_simp_groups_with(engine, table, q, g, tau, f64::INFINITY, &parts);
                // Grouped verification skips whole groups whose *group*
                // lower bound exceeds τ — sound (no world in them can
                // pass), so the full-enumeration probability must agree.
                if (grouped.prob - exact_simp).abs() > PROB_EPS {
                    report.violation(
                        "grouped_eq_flat",
                        seed,
                        format!(
                            "τ={tau} GN={gn}: grouped SimP {} != flat enumeration {exact_simp}",
                            grouped.prob
                        ),
                    );
                }
            }
            // Both split heuristics produce valid partitions: their
            // groups tile the world set (mass conservation).
            for h in [SplitHeuristic::HighestMass, SplitHeuristic::MostLabels] {
                let parts = partition_groups(table, q, g, tau, 3, h);
                let mass: f64 = parts.iter().map(|p| p.mass()).sum();
                let total: f64 = g.vertices().iter().map(|v| v.mass()).product();
                let expected = if g.vertex_count() == 0 { 0.0 } else { total };
                if (mass - expected).abs() > PROB_EPS && g.vertex_count() > 0 {
                    report.violation(
                        "grouped_eq_flat",
                        seed,
                        format!("τ={tau} {h:?}: partition mass {mass} != total {expected}"),
                    );
                }
            }

            // Oracle: the α decision is exact despite one-sided early
            // exits, at α values biased toward the boundary.
            for alpha in [
                (exact_simp - 0.05).clamp(0.01, 1.0),
                (exact_simp + 0.05).clamp(0.01, 1.0),
                0.25,
                0.75,
            ] {
                if (exact_simp - alpha).abs() < ALPHA_GUARD {
                    continue;
                }
                let out = verify_simp_with(engine, table, q, g, tau, alpha);
                let want = exact_simp >= alpha;
                if out.passed != want {
                    report.violation(
                        "alpha_decision",
                        seed,
                        format!(
                            "τ={tau} α={alpha}: verifier passed={} but exact SimP {exact_simp}",
                            out.passed
                        ),
                    );
                }
                if out.passed && out.best_mapping.is_none() {
                    report.violation(
                        "alpha_decision",
                        seed,
                        format!("τ={tau} α={alpha}: passed without a best-world mapping"),
                    );
                }
            }
        }
    }
}

/// Sorted result-pair set of a join outcome.
fn pair_set(matches: &[uqsj_simjoin::JoinMatch]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = matches.iter().map(|m| (m.q_index, m.g_index)).collect();
    pairs.sort_unstable();
    pairs
}

/// Nudge α away from every exact pair probability so that legitimate
/// accumulation-order float differences cannot flip a membership verdict.
fn guard_alpha(mut alpha: f64, exact: &[f64]) -> f64 {
    while exact.iter().any(|p| (p - alpha).abs() < ALPHA_GUARD) {
        alpha += 3.7 * ALPHA_GUARD;
    }
    alpha.min(1.0)
}

/// Oracle: the three pruning strategies and the parallel and indexed
/// drivers return exactly `{(q, g) : SimP_τ(q, g) ≥ α}` by brute-force
/// evaluation, and the forced sampling tier does so away from α.
// Mirrors the join signature plus the shared engine/report plumbing.
#[allow(clippy::too_many_arguments)]
pub fn check_join_agreement(
    engine: &mut GedEngine,
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    tau: u32,
    alpha: f64,
    seed: u64,
    report: &mut ConformanceReport,
) {
    // Brute-force membership: exact SimP per pair via full enumeration.
    let mut exact = Vec::with_capacity(d.len() * u.len());
    let mut expected = Vec::new();
    for (gi, g) in u.iter().enumerate() {
        for (qi, q) in d.iter().enumerate() {
            let p = verify_simp_with(engine, table, q, g, tau, f64::INFINITY).prob;
            exact.push(p);
            expected.push(((qi, gi), p));
        }
    }
    let alpha = guard_alpha(alpha, &exact);
    let mut want: Vec<(usize, usize)> =
        expected.iter().filter(|&&(_, p)| p >= alpha).map(|&(pair, _)| pair).collect();
    want.sort_unstable();

    let params = |strategy| JoinParams { strategy, ..JoinParams::simj(tau, alpha) };
    // One driver: `parallel` runs it on 3 threads, `indexed` one question
    // at a time through the ingest entry point.
    let index = JoinIndex::build(d);
    let per_question: Vec<_> = u
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| index.join_one(table, gi, g, params(JoinStrategy::SimJ)).0)
        .collect();
    let runs: Vec<(&'static str, Vec<(usize, usize)>)> = vec![
        ("css_only", pair_set(&sim_join(table, d, u, params(JoinStrategy::CssOnly)).0)),
        ("simj", pair_set(&sim_join(table, d, u, params(JoinStrategy::SimJ)).0)),
        (
            "simj_opt",
            pair_set(&sim_join(table, d, u, params(JoinStrategy::SimJOpt { group_count: 4 })).0),
        ),
        ("parallel", pair_set(&index.join(table, u, params(JoinStrategy::SimJ), 3).0)),
        ("indexed", pair_set(&per_question)),
    ];
    for (name, pairs) in &runs {
        *report.join_runs.entry(name).or_default() += 1;
        if pairs != &want {
            report.violation(
                "joins_agree",
                seed,
                format!(
                    "τ={tau} α={alpha}: {name} returned {pairs:?}, brute force expects {want:?}"
                ),
            );
        }
    }

    // Sixth run: the world-count-adaptive sampling tier, forced onto
    // every refined pair by a world-count threshold of 2. α is re-placed a full
    // guarantee band (ε plus margin) away from every exact probability,
    // and δ is pushed so low that a disagreement is evidence of a bug in
    // the sampler, not sampling noise — which makes a hard violation the
    // right response even for a probabilistic tier.
    let sample_eps = 0.05;
    let sample_alpha = guard_alpha_band(alpha, &exact, sample_eps + 0.01);
    let mut sampled_want: Vec<(usize, usize)> =
        expected.iter().filter(|&&(_, p)| p >= sample_alpha).map(|&(pair, _)| pair).collect();
    sampled_want.sort_unstable();
    let policy = SimpPolicy::auto(sample_eps, 1e-9, derive_seed(seed, 61)).with_threshold(2);
    let sampled_params = JoinParams { simp: policy, ..JoinParams::simj(tau, sample_alpha) };
    let sampled = pair_set(&sim_join(table, d, u, sampled_params).0);
    *report.join_runs.entry("auto_tier").or_default() += 1;
    if sampled != sampled_want {
        report.violation(
            "joins_agree",
            seed,
            format!(
                "τ={tau} α={sample_alpha}: auto_tier returned {sampled:?}, \
                 brute force expects {sampled_want:?}"
            ),
        );
    }
}

/// Like [`guard_alpha`] but with a caller-chosen band: push α upward
/// until it clears every exact probability by more than `band`, so the
/// sampling tier's (ε,δ) guarantee applies to every membership verdict.
fn guard_alpha_band(mut alpha: f64, exact: &[f64], band: f64) -> f64 {
    while exact.iter().any(|p| (p - alpha).abs() <= band) {
        alpha += 1.5 * band;
    }
    alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{near_pair, GenConfig};

    /// The acceptance-criteria mutation test: a deliberately weakened
    /// (inflated) bound must be caught by the admissibility oracle. This
    /// is the suite auditing itself — if fault injection ever stops
    /// producing violations, the oracle has gone blind.
    #[test]
    fn weakened_bound_is_caught() {
        let cfg = GenConfig::default();
        for name in ["CSS", "Size", "LM"] {
            let mut oracles = PairOracles::new();
            oracles.mutation = Some((name, 1));
            let mut engine = GedEngine::new();
            let mut report = ConformanceReport::default();
            let mut table = SymbolTable::new();
            for seed in 0..40u64 {
                let (q, g) = near_pair(&mut table, &cfg, seed);
                oracles.check_pair(&mut engine, &table, &q, &g, seed, &mut report);
            }
            assert!(
                report.violations.iter().any(|v| v.oracle == "bound_le_exact"),
                "a +1-weakened {name} bound slipped past the admissibility oracle"
            );
        }
    }

    /// Sanity: the unmutated oracles pass on the same inputs the mutation
    /// test uses (so the failures above are attributable to the fault).
    #[test]
    fn unmutated_oracles_pass() {
        let cfg = GenConfig::default();
        let oracles = PairOracles::new();
        let mut engine = GedEngine::new();
        let mut report = ConformanceReport::default();
        let mut table = SymbolTable::new();
        for seed in 0..40u64 {
            let (q, g) = near_pair(&mut table, &cfg, seed);
            oracles.check_pair(&mut engine, &table, &q, &g, seed, &mut report);
        }
        assert!(report.passed(), "violations: {:#?}", report.violations);
    }
}
