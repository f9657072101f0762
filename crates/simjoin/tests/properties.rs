//! Property tests for the join: all strategies return the same result
//! set, results really satisfy `SimP_τ >= α`, and no qualifying pair is
//! ever lost (completeness against brute force).

use proptest::prelude::*;
use uqsj_ged::bounds::css::CssBound;
use uqsj_ged::bounds::label_multiset::LabelMultisetBound;
use uqsj_ged::bounds::size::SizeBound;
use uqsj_ged::bounds::LowerBound;
use uqsj_graph::{Graph, LabelAlternative, SymbolTable, UncertainGraph, UncertainVertex, VertexId};
use uqsj_simjoin::{sim_join, JoinIndex, JoinMatch, JoinParams, JoinStats, JoinStrategy};
use uqsj_uncertain::groups::ub_simp_grouped;
use uqsj_uncertain::prob_bound::ub_simp;
use uqsj_uncertain::similarity_probability;

const VLABELS: [&str; 4] = ["A", "B", "C", "?x"];
const ELABELS: [&str; 2] = ["p", "q"];
const STRATEGIES: [JoinStrategy; 3] =
    [JoinStrategy::CssOnly, JoinStrategy::SimJ, JoinStrategy::SimJOpt { group_count: 4 }];

type RawEdge = (u8, u8, u8);
type RawCertain = (Vec<u8>, Vec<RawEdge>);
type RawUncertainGraph = (Vec<Vec<u8>>, Vec<RawEdge>);

#[derive(Clone, Debug)]
struct RawWorkload {
    certain: Vec<RawCertain>,
    uncertain: Vec<RawUncertainGraph>,
}

fn workload_strategy() -> impl Strategy<Value = RawWorkload> {
    let certain = prop::collection::vec(
        (1usize..4).prop_flat_map(|n| {
            (
                prop::collection::vec(0u8..VLABELS.len() as u8, n),
                prop::collection::vec((0..n as u8, 0..n as u8, 0u8..2), 0..3),
            )
        }),
        1..4,
    );
    let uncertain = prop::collection::vec(
        (1usize..4).prop_flat_map(|n| {
            (
                prop::collection::vec(prop::collection::vec(0u8..VLABELS.len() as u8, 1..3), n),
                prop::collection::vec((0..n as u8, 0..n as u8, 0u8..2), 0..3),
            )
        }),
        1..4,
    );
    (certain, uncertain).prop_map(|(certain, uncertain)| RawWorkload { certain, uncertain })
}

fn build(raw: &RawWorkload) -> (SymbolTable, Vec<Graph>, Vec<UncertainGraph>) {
    let mut t = SymbolTable::new();
    let d: Vec<Graph> = raw
        .certain
        .iter()
        .map(|(vl, el)| {
            let mut g = Graph::new();
            for &v in vl {
                let s = t.intern(VLABELS[v as usize]);
                g.add_vertex(s);
            }
            for &(s, dst, l) in el {
                if s != dst {
                    let sym = t.intern(ELABELS[l as usize]);
                    g.add_edge(VertexId(s as u32), VertexId(dst as u32), sym);
                }
            }
            g
        })
        .collect();
    let u: Vec<UncertainGraph> = raw
        .uncertain
        .iter()
        .map(|(vls, el)| {
            let mut g = UncertainGraph::new();
            for alts in vls {
                let mut labels: Vec<u8> = alts.clone();
                labels.sort_unstable();
                labels.dedup();
                let p = 1.0 / labels.len() as f64;
                g.add_vertex(UncertainVertex {
                    alternatives: labels
                        .iter()
                        .map(|&l| LabelAlternative {
                            label: t.intern(VLABELS[l as usize]),
                            prob: p,
                        })
                        .collect(),
                });
            }
            for &(s, dst, l) in el {
                if s != dst {
                    let sym = t.intern(ELABELS[l as usize]);
                    g.add_edge(VertexId(s as u32), VertexId(dst as u32), sym);
                }
            }
            g
        })
        .collect();
    (t, d, u)
}

/// The reference funnel: every pair of `d × u` through the reference
/// bounds in plan order, as a nested loop. Returns the candidate count and
/// the per-stage prune counts in cascade order.
fn reference_funnel(
    t: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
) -> (u64, Vec<(&'static str, u64)>) {
    let tau = params.tau;
    let mut stats = JoinStats::default();
    for g in u {
        for q in d {
            let stage = if SizeBound.uncertain(t, q, g) > tau {
                Some("size")
            } else if LabelMultisetBound.uncertain(t, q, g) > tau {
                Some("label_multiset")
            } else if CssBound.uncertain(t, q, g) > tau {
                Some("css")
            } else {
                match params.strategy {
                    JoinStrategy::CssOnly => None,
                    JoinStrategy::SimJ => {
                        (ub_simp(t, q, g, tau) < params.alpha).then_some("markov")
                    }
                    JoinStrategy::SimJOpt { group_count } => {
                        if ub_simp(t, q, g, tau) < params.alpha {
                            Some("markov_opt")
                        } else {
                            (ub_simp_grouped(t, q, g, tau, group_count).0 < params.alpha)
                                .then_some("grouped")
                        }
                    }
                }
            };
            match stage {
                Some(label) => stats.record_pruned(label, 1),
                None => stats.candidates += 1,
            }
        }
    }
    (stats.candidates, stats.pruned_stages().to_vec())
}

/// One `join_one` per question over one index, concatenated.
fn join_per_question(
    t: &SymbolTable,
    d: &[Graph],
    u: &[UncertainGraph],
    params: JoinParams,
) -> (Vec<JoinMatch>, JoinStats) {
    let index = JoinIndex::build(d);
    let mut matches = Vec::new();
    let mut stats = JoinStats::default();
    for (gi, g) in u.iter().enumerate() {
        let (m, s) = index.join_one(t, gi, g, params);
        matches.extend(m);
        stats.merge(&s);
    }
    (matches, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_is_sound_and_complete(
        raw in workload_strategy(),
        tau in 0u32..3,
        alpha10 in 1u32..10,
    ) {
        let alpha = f64::from(alpha10) / 10.0;
        let (t, d, u) = build(&raw);
        let params = JoinParams::simj(tau, alpha);
        let (matches, stats) = sim_join(&t, &d, &u, params);
        prop_assert_eq!(stats.pairs_total as usize, d.len() * u.len());
        let mut returned: Vec<(usize, usize)> =
            matches.iter().map(|m| (m.q_index, m.g_index)).collect();
        returned.sort_unstable();
        // Brute force: exact SimP for every pair.
        let mut expected = Vec::new();
        for (gi, g) in u.iter().enumerate() {
            for (qi, q) in d.iter().enumerate() {
                if similarity_probability(&t, q, g, tau) >= alpha {
                    expected.push((qi, gi));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(returned, expected, "join result set mismatch");
        // Every match witness is within tau and the mapping is injective.
        for m in &matches {
            prop_assert!(m.mapping.distance <= tau);
            let mut seen = std::collections::HashSet::new();
            for v in m.mapping.mapping.iter().flatten() {
                prop_assert!(seen.insert(*v));
            }
        }
    }

    #[test]
    fn indexed_join_agrees_with_plain(
        raw in workload_strategy(),
        tau in 0u32..3,
    ) {
        let (t, d, u) = build(&raw);
        for strategy in STRATEGIES {
            let params = JoinParams { strategy, ..JoinParams::simj(tau, 0.4) };
            let (batch, bs) = sim_join(&t, &d, &u, params);
            let (stitched, ss) = join_per_question(&t, &d, &u, params);
            prop_assert_eq!(&batch, &stitched, "{:?}", strategy);
            prop_assert_eq!(bs.pairs_total, ss.pairs_total);
            prop_assert_eq!(bs.candidates, ss.candidates, "{:?}", strategy);
            prop_assert_eq!(bs.pruned_stages(), ss.pruned_stages(), "{:?}", strategy);
            // The size window skips exactly the pairs the size bound
            // prunes, and the summaries change no verdict: the funnel is
            // the plain nested loop's over the reference bounds.
            let (candidates, pruned) = reference_funnel(&t, &d, &u, params);
            prop_assert_eq!(bs.candidates, candidates, "{:?}", strategy);
            prop_assert_eq!(bs.pruned_stages(), &pruned[..], "{:?}", strategy);
        }
    }

    #[test]
    fn top1_match_is_the_probability_maximizer(
        raw in workload_strategy(),
        tau in 0u32..3,
    ) {
        let (t, d, u) = build(&raw);
        let (results, _) = uqsj_simjoin::sim_join_topk(&t, &d, &u, tau, 1);
        for (gi, top) in results.iter().enumerate() {
            let best_brute = d
                .iter()
                .map(|q| similarity_probability(&t, q, &u[gi], tau))
                .fold(0.0f64, f64::max);
            match top.first() {
                Some(m) => prop_assert!((m.prob - best_brute).abs() < 1e-9,
                    "top1 {} vs brute {}", m.prob, best_brute),
                None => prop_assert!(best_brute == 0.0),
            }
        }
    }

    #[test]
    fn all_strategies_and_parallel_agree(
        raw in workload_strategy(),
        tau in 0u32..3,
    ) {
        let (t, d, u) = build(&raw);
        let collect = |strategy| {
            let (m, _) = sim_join(&t, &d, &u, JoinParams { tau, strategy, ..JoinParams::simj(tau, 0.5) });
            let mut pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.q_index, x.g_index)).collect();
            pairs.sort_unstable();
            pairs
        };
        let css = collect(JoinStrategy::CssOnly);
        let simj = collect(JoinStrategy::SimJ);
        let opt = collect(JoinStrategy::SimJOpt { group_count: 4 });
        prop_assert_eq!(&css, &simj);
        prop_assert_eq!(&simj, &opt);
        for strategy in STRATEGIES {
            let params = JoinParams { strategy, ..JoinParams::simj(tau, 0.5) };
            let (seq_matches, seq) = sim_join(&t, &d, &u, params);
            let (par, ps) = JoinIndex::build(&d).join(&t, &u, params, 3);
            let (_, is_) = join_per_question(&t, &d, &u, params);
            prop_assert_eq!(&seq_matches, &par, "{:?}", strategy);
            let mut ppairs: Vec<(usize, usize)> =
                par.iter().map(|x| (x.q_index, x.g_index)).collect();
            ppairs.sort_unstable();
            prop_assert_eq!(&ppairs, &css, "{:?}", strategy);
            // The funnel is thread- and entry-point-independent: every
            // run is the same driver over the same pairs.
            for (driver, stats) in [("parallel", &ps), ("indexed", &is_)] {
                prop_assert_eq!(seq.candidates, stats.candidates, "{} {:?}", driver, strategy);
                prop_assert_eq!(
                    seq.pruned_stages(), stats.pruned_stages(), "{} {:?}", driver, strategy
                );
            }
        }
    }
}
