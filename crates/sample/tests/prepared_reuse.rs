//! Verifier state prepared once for `g` and reused across a stream of
//! queries must decide every pair exactly as fresh per-pair state does, on
//! every tier: flat exact enumeration, the grouped exact path, and the
//! sampler (both its exact stratum fold and its draw loop). Outcomes are
//! compared bit for bit: probability, verdict, mapping, the witnessing
//! world's probability and the number of worlds searched.

use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, GraphBuilder, SymbolTable, UncertainGraph};
use uqsj_sample::{
    sample_simp_prepared, sample_simp_with, verify_pair_with, SampleOutcome, SampleParams,
    SimpPolicy, TierOutcome,
};
use uqsj_uncertain::{partition_groups, SplitHeuristic, WorldVerifier};

/// The uncertain side: a graph with mass slack and 18 worlds, a certain
/// graph (one world) and the vertex-less graph (no worlds).
fn questions(t: &mut SymbolTable) -> Vec<UncertainGraph> {
    let mut b = GraphBuilder::new(t);
    b.uncertain_vertex("y", &[("?y", 0.6), ("Film", 0.3)]);
    b.uncertain_vertex("m", &[("NBA_Player", 0.5), ("Professor", 0.3), ("Actor", 0.2)]);
    b.uncertain_vertex("n", &[("State", 0.4), ("City", 0.3), ("Town", 0.3)]);
    b.edge("y", "m", "type");
    b.edge("m", "n", "birthPlace");
    let wide = b.into_uncertain();
    let mut b = GraphBuilder::new(t);
    b.vertex("y", "?y");
    b.vertex("a", "Actor");
    b.edge("y", "a", "type");
    let certain = b.into_uncertain();
    vec![wide, certain, UncertainGraph::new()]
}

/// The query stream: labels g has, labels it lacks, wildcard vertex and
/// edge labels, the empty query, and a query larger than every g.
fn queries(t: &mut SymbolTable) -> Vec<Graph> {
    let mut out = Vec::new();
    let mut b = GraphBuilder::new(t);
    b.vertex("x", "?x");
    b.vertex("a", "Actor");
    b.vertex("c", "City");
    b.edge("x", "a", "type");
    b.edge("a", "c", "birthPlace");
    out.push(b.into_graph());
    let mut b = GraphBuilder::new(t);
    b.vertex("x", "Song");
    b.vertex("a", "Composer");
    b.edge("x", "a", "composedBy");
    out.push(b.into_graph());
    let mut b = GraphBuilder::new(t);
    b.vertex("x", "?x");
    b.vertex("a", "?a");
    b.vertex("c", "State");
    b.edge("x", "a", "?p");
    b.edge("a", "c", "birthPlace");
    out.push(b.into_graph());
    out.push(Graph::new());
    let mut b = GraphBuilder::new(t);
    for (v, l) in [("x", "?x"), ("a", "Actor"), ("c", "City"), ("d", "Band"), ("e", "?e")] {
        b.vertex(v, l);
    }
    b.edge("x", "a", "type");
    b.edge("a", "c", "birthPlace");
    b.edge("c", "d", "memberOf");
    b.edge("d", "e", "?q");
    out.push(b.into_graph());
    out
}

type Key = (u64, bool, Option<uqsj_ged::astar::GedResult>, u64, usize);

fn tier_key(o: TierOutcome) -> Key {
    (o.prob.to_bits(), o.passed, o.best_mapping, o.best_world_prob.to_bits(), o.worlds_verified)
}

fn sample_key(o: SampleOutcome) -> Key {
    (o.estimate.to_bits(), o.passed, o.best_mapping, o.best_world_prob.to_bits(), o.worlds_verified)
}

#[test]
fn reused_g_state_decides_like_fresh_state_on_every_tier() {
    let mut t = SymbolTable::new();
    let us = questions(&mut t);
    let ds = queries(&mut t);
    let policies = [SimpPolicy::exact(), SimpPolicy::sample(0.05, 0.05, 11)];
    let forced = SampleParams { exact_stratum_worlds: 0, ..SampleParams::new(0.05, 0.05) };
    let mut engine = GedEngine::new();
    let mut checked = 0usize;
    for g in &us {
        let mut shared = WorldVerifier::prepare(&t, g);
        // Forward then backward, so each query follows a different one.
        for (qi, q) in ds.iter().enumerate().chain(ds.iter().enumerate().rev()) {
            for tau in 0..4u32 {
                let parts = partition_groups(&t, q, g, tau, 3, SplitHeuristic::HighestMass);
                for groups in [None, Some(&parts[..])] {
                    for alpha in [0.2f64, 0.5, 0.9, f64::INFINITY] {
                        let seed = qi as u64 * 131 + u64::from(tau);
                        for policy in &policies {
                            let reused = verify_pair_with(
                                &mut engine,
                                &mut shared,
                                &t,
                                q,
                                tau,
                                alpha,
                                groups,
                                policy,
                                seed,
                            );
                            let fresh = verify_pair_with(
                                &mut engine,
                                &mut WorldVerifier::new(&t, q, g),
                                &t,
                                q,
                                tau,
                                alpha,
                                groups,
                                policy,
                                seed,
                            );
                            assert_eq!(reused.tier, fresh.tier);
                            let ctx = format!("g {g:?} q {qi} tau {tau} alpha {alpha} {policy:?}");
                            assert_eq!(tier_key(reused), tier_key(fresh), "{ctx}");
                            checked += 1;
                        }
                        if alpha.is_finite() {
                            let reused = sample_simp_prepared(
                                &mut engine,
                                &mut shared,
                                &t,
                                q,
                                tau,
                                alpha,
                                groups,
                                &forced,
                                seed,
                            );
                            let fresh = sample_simp_with(
                                &mut engine,
                                &t,
                                q,
                                g,
                                tau,
                                alpha,
                                groups,
                                &forced,
                                seed,
                            );
                            assert_eq!(sample_key(reused), sample_key(fresh), "q {qi} tau {tau}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, us.len() * ds.len() * 2 * 4 * 2 * 4 * policies.len());
}
