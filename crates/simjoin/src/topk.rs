//! Top-k similarity matching: for each uncertain graph (question), the k
//! SPARQL queries with the highest similarity probability.
//!
//! The paper's goal statement is "find some pairs ⟨q, n⟩ … where SPARQL
//! query q is the *best match* for natural language question n" — the
//! threshold join of Def. 7 is its workhorse, and this module provides
//! the direct best-match form. Candidates are ranked by their Markov
//! upper bound and verified in that order with a threshold-algorithm
//! stop: once the k-th exact probability is at least the next upper
//! bound, no unverified candidate can enter the top k.

use crate::index::JoinIndex;
use crate::join::{JoinParams, JoinStrategy};
use crate::stats::JoinStats;
use crate::summary::VertexMatcher;
use std::time::Instant;
use uqsj_ged::astar::GedResult;
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};
use uqsj_uncertain::prob::verify_simp_with;
use uqsj_uncertain::prob_bound::ub_simp_with_terms;

/// One ranked match for a question.
#[derive(Clone, Debug)]
pub struct TopKMatch {
    /// Index into `D`.
    pub q_index: usize,
    /// Exact `SimP_τ`.
    pub prob: f64,
    /// Witnessing mapping of the most probable qualifying world (present
    /// whenever `prob > 0`).
    pub mapping: Option<GedResult>,
}

/// Statistics of a top-k run.
#[derive(Clone, Debug, Default)]
pub struct TopKStats {
    /// Candidates surviving the structural filter.
    pub candidates: u64,
    /// Candidates whose exact probability was decided, by a verification
    /// of their own or as a copy of an identical query's.
    pub verified: u64,
    /// Exact-probability computations actually run: one per class of
    /// identical queries reached, so at most `verified`.
    pub verifications: u64,
    /// Candidates skipped by the threshold-algorithm stop.
    pub ta_skipped: u64,
    /// Total wall time.
    pub elapsed: std::time::Duration,
}

/// For each `g ∈ u`, the top `k` queries of `d` by `SimP_τ`, descending,
/// ties in `D` order. Queries with zero probability are never reported.
/// Prefilters with the join driver's size window and the `CssOnly`
/// cascade's τ-prunes (a pruned pair has `SimP_τ = 0`); the probabilistic
/// α-stages never apply here because top-k has no α threshold. Identical
/// queries of `D` share one bound and one verification.
pub fn sim_join_topk(
    table: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    tau: u32,
    k: usize,
) -> (Vec<Vec<TopKMatch>>, TopKStats) {
    let started = Instant::now();
    let mut stats = TopKStats::default();
    let mut out = Vec::with_capacity(u.len());
    let mut engine = GedEngine::new();
    let mut matcher = VertexMatcher::default();
    let index = JoinIndex::build(d);
    // α is irrelevant without probabilistic stages; the per-pair prune
    // counters land in a scratch JoinStats the top-k report does not
    // consume.
    let params = JoinParams { strategy: JoinStrategy::CssOnly, ..JoinParams::simj(tau, 0.0) };
    let mut scratch = JoinStats::default();
    for g in u {
        // Structural filter + upper-bound ranking, reusing the CSS stage's
        // terms for the Markov bound: one bound per surviving class, then
        // one `(q_index, bound, class slot)` entry per member.
        let mut candidates: Vec<(usize, f64, usize)> = Vec::new();
        let mut classes = 0;
        index.filter(table, g, &params, &mut matcher, &mut scratch, |members, candidate, _, _| {
            let q = &d[members[0] as usize];
            let ub = ub_simp_with_terms(table, q, g, tau, &candidate.terms);
            candidates.extend(members.iter().map(|&qi| (qi as usize, ub, classes)));
            classes += 1;
        });
        stats.candidates += candidates.len() as u64;
        // Bound descending, ties in `D` order.
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite bound").then(a.0.cmp(&b.0)));

        // Each class's exact outcome, computed when its first member is
        // reached and copied to the rest.
        let mut decided: Vec<Option<(f64, Option<GedResult>)>> = vec![None; classes];
        let mut top: Vec<TopKMatch> = Vec::with_capacity(k + 1);
        for (rank, &(qi, ub, slot)) in candidates.iter().enumerate() {
            if let Some(kth) = k.checked_sub(1).and_then(|i| top.get(i)) {
                // Threshold-algorithm stop: bounds are sorted descending
                // and equal bounds by `q_index`, so no later candidate can
                // beat the current k-th, nor tie it from earlier in `D`.
                if ub < kth.prob || (ub == kth.prob && qi > kth.q_index) {
                    stats.ta_skipped += (candidates.len() - rank) as u64;
                    break;
                }
            }
            stats.verified += 1;
            let (prob, mapping) = decided[slot].get_or_insert_with(|| {
                stats.verifications += 1;
                let outcome = verify_simp_with(&mut engine, table, &d[qi], g, tau, f64::INFINITY);
                (outcome.prob, outcome.best_mapping)
            });
            if *prob > 0.0 {
                top.push(TopKMatch { q_index: qi, prob: *prob, mapping: mapping.clone() });
                top.sort_by(|a, b| {
                    b.prob
                        .partial_cmp(&a.prob)
                        .expect("finite probability")
                        .then(a.q_index.cmp(&b.q_index))
                });
                top.truncate(k);
            }
        }
        out.push(top);
    }
    stats.elapsed = started.elapsed();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;
    use uqsj_uncertain::similarity_probability;

    fn workload(t: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
        let mut d = Vec::new();
        for class in ["Actor", "Band", "City"] {
            let mut b = GraphBuilder::new(t);
            b.vertex("x", "?x");
            b.vertex("c", class);
            b.edge("x", "c", "type");
            d.push(b.into_graph());
        }
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?y");
        b.uncertain_vertex("m", &[("Actor", 0.7), ("Band", 0.3)]);
        b.edge("x", "m", "type");
        let u = vec![b.into_uncertain()];
        (d, u)
    }

    #[test]
    fn topk_agrees_with_bruteforce_ranking() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let (results, stats) = sim_join_topk(&t, &d, &u, 0, 2);
        assert_eq!(results.len(), 1);
        let top = &results[0];
        // Brute force.
        let mut expected: Vec<(usize, f64)> = d
            .iter()
            .enumerate()
            .map(|(qi, q)| (qi, similarity_probability(&t, q, &u[0], 0)))
            .filter(|(_, p)| *p > 0.0)
            .collect();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        expected.truncate(2);
        assert_eq!(top.len(), expected.len());
        for (m, (qi, p)) in top.iter().zip(&expected) {
            assert_eq!(m.q_index, *qi);
            assert!((m.prob - p).abs() < 1e-9);
            assert!(m.mapping.is_some());
        }
        assert!(stats.verified >= top.len() as u64);
    }

    #[test]
    fn k_one_returns_the_best_match() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let (results, _) = sim_join_topk(&t, &d, &u, 0, 1);
        assert_eq!(results[0].len(), 1);
        assert_eq!(results[0][0].q_index, 0); // the Actor query
        assert!((results[0][0].prob - 0.7).abs() < 1e-9);
    }

    #[test]
    fn ta_stop_skips_dominated_candidates() {
        // With tau high, everything qualifies with prob 1; after the
        // first k verifications the rest can be skipped.
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let (results, stats) = sim_join_topk(&t, &d, &u, 4, 1);
        assert_eq!(results[0].len(), 1);
        assert!((results[0][0].prob - 1.0).abs() < 1e-9);
        assert!(stats.ta_skipped > 0, "TA stop never fired");
    }
}
