//! The SimJ procedure (Algorithm 1) and its group-optimized variant
//! (Algorithm 2): the join's parameters and results, [`sim_join`], and the
//! refinement step the driver runs on every candidate.

use crate::cascade::Candidate;
use crate::index::JoinIndex;
use crate::obs::join_obs;
use crate::stats::JoinStats;
use std::time::Instant;
use uqsj_ged::astar::GedResult;
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};
use uqsj_sample::{pair_seed, verify_pair_with, SimpPolicy, Tier};

/// Which pruning pipeline to run (the three lines of Figs. 11–14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// CSS structural pruning only.
    CssOnly,
    /// CSS + Markov probabilistic pruning (Algorithm 1).
    SimJ,
    /// CSS + group-refined probabilistic pruning (Algorithm 2) with the
    /// given group budget `GN`.
    SimJOpt {
        /// Maximum number of possible-world groups per uncertain graph.
        group_count: usize,
    },
}

/// Join parameters: the GED threshold τ and probability threshold α of
/// Def. 7, plus the pruning strategy and the verification-tier policy.
#[derive(Clone, Copy, Debug)]
pub struct JoinParams {
    /// GED threshold τ.
    pub tau: u32,
    /// Similarity probability threshold α ∈ (0, 1].
    pub alpha: f64,
    /// Pruning pipeline.
    pub strategy: JoinStrategy,
    /// How `SimP ≥ α` is decided per candidate: exact enumeration,
    /// Monte-Carlo sampling, or world-count-adaptive dispatch between the
    /// two (see [`uqsj_sample::SimpPolicy`]).
    pub simp: SimpPolicy,
}

impl JoinParams {
    /// Algorithm-1 parameters (`SimJ`) with the paper's default of
    /// exact-only verification.
    pub fn simj(tau: u32, alpha: f64) -> Self {
        Self { tau, alpha, strategy: JoinStrategy::SimJ, simp: SimpPolicy::exact() }
    }

    /// The same parameters with a different verification-tier policy.
    pub fn with_simp(self, simp: SimpPolicy) -> Self {
        Self { simp, ..self }
    }
}

/// One qualifying pair `⟨q, g⟩` with `SimP_τ(q, g) >= α`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinMatch {
    /// Index into `D`.
    pub q_index: usize,
    /// Index into `U`.
    pub g_index: usize,
    /// The similarity probability: on the exact tier a possibly
    /// early-exited value that is always `>= α`; on the sampling tier the
    /// certified point estimate, which may sit up to ε below α.
    pub prob: f64,
    /// GED mapping (q vertex → world vertex) of the most probable
    /// qualifying world — the input to template generation.
    pub mapping: GedResult,
    /// Probability of that world.
    pub world_prob: f64,
}

/// Run SimJ over `d × u` on one thread, the paper's sequential
/// accounting: [`JoinIndex::join`] at `threads = 1`. Returns the
/// qualifying pairs, sorted by `(g_index, q_index)`, and the join
/// statistics.
pub fn sim_join(
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
) -> (Vec<JoinMatch>, JoinStats) {
    JoinIndex::build(d).join(table, u, params, 1)
}

/// Refinement (lines 7-15 of Algorithm 1) of one class of identical
/// queries that survived the cascade, dispatched to the exact or sampling
/// tier by the policy. The pair is verified once, as its representative
/// `members[0]`, and a passing verdict is pushed to `out` once per member,
/// under the member's own `q_index`. `filtered_at` is the clock read that
/// closed the pair's last filter stage; verification time runs from it.
#[allow(clippy::too_many_arguments)] // one pair's full context
pub(crate) fn verify(
    engine: &mut GedEngine,
    table: &SymbolTable,
    (members, q): (&[u32], &Graph),
    (gi, g): (usize, &UncertainGraph),
    candidate: Candidate,
    filtered_at: Instant,
    params: &JoinParams,
    out: &mut Vec<JoinMatch>,
    stats: &mut JoinStats,
) {
    // The sub-seed is a pure function of the representative's pair
    // indices, so sampled decisions are identical whatever thread reaches
    // the pair, shared by the whole class, and replayable from
    // `params.simp.seed` alone.
    let qi = members[0] as usize;
    let expanded_before = engine.cumulative_stats().expanded;
    let outcome = verify_pair_with(
        engine,
        table,
        q,
        g,
        params.tau,
        params.alpha,
        candidate.groups.as_deref(),
        &params.simp,
        pair_seed(params.simp.seed, qi, gi),
    );
    let verify_elapsed = filtered_at.elapsed();
    let obs = join_obs();
    obs.t_verify.observe_duration(verify_elapsed);
    stats.verifications += 1;
    stats.verification_time += verify_elapsed;
    stats.worlds_verified += outcome.worlds_verified as u64;
    stats.worlds_sampled += outcome.worlds_sampled;
    stats.ged_expanded += engine.cumulative_stats().expanded - expanded_before;
    stats.record_stop(outcome.stop.label());
    match outcome.tier {
        Tier::Exact => stats.verified_exact += 1,
        Tier::Sample => stats.verified_sampled += 1,
    }
    if outcome.passed {
        let n = members.len() as u64;
        stats.results += n;
        obs.results.add(n);
        let mapping =
            outcome.best_mapping.expect("a passing pair has at least one qualifying world");
        let matched = JoinMatch {
            q_index: qi,
            g_index: gi,
            prob: outcome.prob,
            mapping,
            world_prob: outcome.best_world_prob,
        };
        out.extend(
            members[1..].iter().map(|&m| JoinMatch { q_index: m as usize, ..matched.clone() }),
        );
        out.push(matched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;

    fn workload(t: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
        // q0: which Actor from Country (matches g0 loosely)
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?x");
        b.vertex("a", "Actor");
        b.vertex("c", "Country");
        b.edge("x", "a", "type");
        b.edge("x", "c", "birthPlace");
        let q0 = b.into_graph();
        // q1: totally different and bigger
        let mut b = GraphBuilder::new(t);
        for i in 0..6 {
            b.vertex(&format!("v{i}"), "Film");
        }
        for i in 0..5 {
            b.edge(&format!("v{i}"), &format!("v{}", i + 1), "starring");
        }
        let q1 = b.into_graph();

        // g0: uncertain version of q0
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?who");
        b.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        b.vertex("c", "Country");
        b.edge("x", "m", "type");
        b.edge("x", "c", "birthPlace");
        let g0 = b.into_uncertain();
        // g1: small unrelated graph
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?x");
        b.vertex("b", "Band");
        b.edge("x", "b", "memberOf");
        let g1 = b.into_uncertain();

        (vec![q0, q1], vec![g0, g1])
    }

    #[test]
    fn join_finds_the_similar_pair() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let (matches, stats) = sim_join(&t, &d, &u, JoinParams::simj(1, 0.9));
        assert_eq!(stats.pairs_total, 4);
        assert!(matches.iter().any(|m| m.q_index == 0 && m.g_index == 0));
        // The big film chain should never match the small questions.
        assert!(matches.iter().all(|m| m.q_index != 1));
    }

    #[test]
    fn strategies_agree_on_results() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let collect = |strategy| {
            let (m, _) = sim_join(&t, &d, &u, JoinParams { strategy, ..JoinParams::simj(1, 0.3) });
            let mut pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.q_index, x.g_index)).collect();
            pairs.sort_unstable();
            pairs
        };
        let css = collect(JoinStrategy::CssOnly);
        let simj = collect(JoinStrategy::SimJ);
        let opt = collect(JoinStrategy::SimJOpt { group_count: 4 });
        assert_eq!(css, simj, "pruning must not change results");
        assert_eq!(simj, opt, "grouping must not change results");
    }

    #[test]
    fn stronger_strategies_have_fewer_candidates() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let candidates = |strategy| {
            sim_join(&t, &d, &u, JoinParams { strategy, ..JoinParams::simj(0, 0.9) }).1.candidates
        };
        let css = candidates(JoinStrategy::CssOnly);
        let simj = candidates(JoinStrategy::SimJ);
        let opt = candidates(JoinStrategy::SimJOpt { group_count: 4 });
        assert!(simj <= css);
        assert!(opt <= simj);
    }

    #[test]
    fn alpha_monotonicity() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let count = |alpha| sim_join(&t, &d, &u, JoinParams::simj(1, alpha)).0.len();
        assert!(count(0.1) >= count(0.5));
        assert!(count(0.5) >= count(0.95));
    }

    #[test]
    fn tau_monotonicity() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let count = |tau| sim_join(&t, &d, &u, JoinParams::simj(tau, 0.5)).0.len();
        assert!(count(0) <= count(1));
        assert!(count(1) <= count(3));
    }
}
