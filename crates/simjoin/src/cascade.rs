//! The join's filter cascade: the paper's fixed per-strategy stage order.
//!
//! Every pair runs through the stages of its strategy's plan, in order,
//! until one fires:
//!
//! | strategy  | plan |
//! |-----------|------|
//! | `CssOnly` | `size → label_multiset → css` |
//! | `SimJ`    | `size → label_multiset → css → markov` (Algorithm 1) |
//! | `SimJOpt` | `size → label_multiset → css → markov_opt → grouped` (Algorithm 2) |
//!
//! # Soundness
//!
//! Each stage is sound on its own, so the plan decides cost, never the
//! result set. The three τ-prunes are GED lower bounds admissible in
//! every possible world: the vertex/edge-count size bound, the
//! label-multiset bound, and the CSS bound of Theorem 3 — a pair they
//! discard has `SimP_τ = 0`. The two α-prunes discard a pair only when an
//! upper bound on `SimP_τ` falls below α: the Markov bound of Theorem 4
//! (`markov`, and the same computation as `SimJOpt`'s pre-filter,
//! `markov_opt`) and the group-refined bound of Algorithm 2 (`grouped`),
//! which also hands its possible-world partition to the verifier.
//!
//! A pruned pair is credited to exactly one stage, in
//! [`crate::JoinStats`] and in `uqsj_join_pruned_total{stage}`; every stage
//! an evaluation reaches records its time in `uqsj_join_stage_us{stage}`.
//! The driver runs the cascade once per class of identical queries inside
//! the size window of [`crate::JoinIndex`] and credits the verdict to
//! every member, so the `size` stage never fires here and its histogram
//! counts in-window evaluations only; the window's skipped pairs are
//! credited to `size` by the driver.
//!
//! # Summaries and hand-offs
//!
//! The τ-stages read per-graph filter summaries, not the graphs, and each
//! hands its partial results to the next:
//!
//! * `label_multiset` computes `λ_E` by a merge of the sorted edge-label
//!   multisets and first tests the certain edge term
//!   `||V(q)| − |V(g)|| + max(|E|) − λ_E`. `λ_V ≤ min(|V|)`, so that term
//!   never exceeds the full bound, and a pair it already puts above τ is
//!   pruned without the vertex matching. Otherwise `λ_V` comes from
//!   an allocation-free matching on reused buffers, and the full bound
//!   decides.
//! * `css` takes both λs and adds only the degree distance.
//! * `markov`/`markov_opt` take the [`CssTerms`] `css` built.
//!
//! Each bound's value is the reference bound's (`SizeBound`,
//! `LabelMultisetBound`, `CssBound` and `ub_simp`), so the verdicts and the
//! crediting stage are those of running the reference bounds in order.
//!
//! # Clock reads
//!
//! The caller reads the clock once before the first stage; each stage then
//! reads it once when it ends, and that read both closes the stage's
//! histogram observation and opens the next stage (or verification).

use crate::join::{JoinParams, JoinStrategy};
use crate::obs::stage_handles;
use crate::summary::{Summary, VertexMatcher};
use std::time::Instant;
use uqsj_ged::bounds::css::{css_terms_from_parts, CssTerms};
use uqsj_ged::label_sets::sorted_multiset_lambda;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};
use uqsj_uncertain::groups::{ub_simp_grouped, PossibleWorldGroup};
use uqsj_uncertain::prob_bound::ub_simp_with_terms;

/// One cascade stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Vertex/edge-count difference bound (τ-prune).
    Size,
    /// Label-multiset difference bound (τ-prune).
    LabelMultiset,
    /// CSS bound, Theorem 3 (τ-prune).
    Css,
    /// Markov upper bound on `SimP_τ`, Theorem 4, as run by `SimJ`.
    Markov,
    /// The same Markov bound as `SimJOpt`'s pre-filter — a separate stage
    /// identity so the two call sites are distinguishable in metrics.
    MarkovOpt,
    /// Group-refined upper bound, Algorithm 2; also partitions the
    /// possible worlds for the verifier.
    Grouped,
}

impl Stage {
    /// Every stage, in the index order of [`Stage::index`].
    pub(crate) const ALL: [Stage; 6] = [
        Stage::Size,
        Stage::LabelMultiset,
        Stage::Css,
        Stage::Markov,
        Stage::MarkovOpt,
        Stage::Grouped,
    ];

    /// The stage's `stage=...` metric label and [`crate::JoinStats`] key.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Stage::Size => "size",
            Stage::LabelMultiset => "label_multiset",
            Stage::Css => "css",
            Stage::Markov => "markov",
            Stage::MarkovOpt => "markov_opt",
            Stage::Grouped => "grouped",
        }
    }

    /// Position in [`Stage::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// The stages `strategy` runs, in execution order.
fn stages(strategy: JoinStrategy) -> &'static [Stage] {
    use Stage::*;
    match strategy {
        JoinStrategy::CssOnly => &[Size, LabelMultiset, Css],
        JoinStrategy::SimJ => &[Size, LabelMultiset, Css, Markov],
        JoinStrategy::SimJOpt { .. } => &[Size, LabelMultiset, Css, MarkovOpt, Grouped],
    }
}

/// Stage labels of `strategy`'s plan, in execution order.
pub fn plan(strategy: JoinStrategy) -> Vec<&'static str> {
    stages(strategy).iter().map(|s| s.label()).collect()
}

/// A pair that survived every stage of its plan.
pub(crate) struct Candidate {
    /// The CSS stage's terms.
    pub(crate) terms: CssTerms,
    /// The grouped stage's world partition, when that stage ran.
    pub(crate) groups: Option<Vec<PossibleWorldGroup>>,
}

/// Run one pair through `params.strategy`'s plan; `Err` names the stage
/// that pruned it. The caller credits that stage, once per logical pair
/// the verdict stands for, so `pairs == pruned_total + candidates` holds.
/// Every stage run records its time. `clock` holds the last clock read on
/// entry and the read that closed the last stage run on return.
pub(crate) fn run_pair(
    table: &SymbolTable,
    (q, qs): (&Graph, &Summary),
    (g, gs): (&UncertainGraph, &Summary),
    params: &JoinParams,
    matcher: &mut VertexMatcher,
    clock: &mut Instant,
) -> Result<Candidate, Stage> {
    let tau = params.tau;
    let (mut lambda_e, mut lambda_v) = (0, 0);
    let mut terms = None;
    let mut groups = None;
    for &stage in stages(params.strategy) {
        let fired = match stage {
            Stage::Size => qs.v.abs_diff(gs.v) + qs.e.abs_diff(gs.e) > tau,
            Stage::LabelMultiset => {
                lambda_e = sorted_multiset_lambda(table, &qs.edge_labels, &gs.edge_labels);
                let edge_term = qs.e.max(gs.e) - lambda_e;
                if qs.v.abs_diff(gs.v) + edge_term > tau {
                    true
                } else {
                    lambda_v = matcher.lambda_v(table, q, g);
                    qs.v.max(gs.v) - lambda_v + edge_term > tau
                }
            }
            Stage::Css => {
                let t = css_terms_from_parts(&qs.degrees, qs.e, &gs.degrees, gs.e, lambda_e);
                terms = Some(t);
                t.bound_with_lambda_v(lambda_v) > tau
            }
            Stage::Markov | Stage::MarkovOpt => {
                let t = terms.as_ref().expect("every plan runs css before markov");
                ub_simp_with_terms(table, q, g, tau, t) < params.alpha
            }
            Stage::Grouped => {
                let JoinStrategy::SimJOpt { group_count } = params.strategy else {
                    unreachable!("only SimJOpt plans the grouped stage")
                };
                let (ub, parts) = ub_simp_grouped(table, q, g, tau, group_count);
                groups = Some(parts);
                ub < params.alpha
            }
        };
        let now = Instant::now();
        let handles = stage_handles(stage);
        handles.time.observe_duration(now - *clock);
        *clock = now;
        if fired {
            return Err(stage);
        }
    }
    Ok(Candidate { terms: terms.expect("every plan runs css"), groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::JoinStats;
    use proptest::prelude::*;
    use uqsj_ged::bounds::css::{css_terms_uncertain, CssBound};
    use uqsj_ged::bounds::label_multiset::LabelMultisetBound;
    use uqsj_ged::bounds::size::SizeBound;
    use uqsj_ged::bounds::LowerBound;
    use uqsj_ged::label_sets::{lambda_e_uncertain, lambda_v_uncertain};
    use uqsj_graph::GraphBuilder;
    use uqsj_uncertain::prob_bound::ub_simp;

    const STRATEGIES: [JoinStrategy; 3] =
        [JoinStrategy::CssOnly, JoinStrategy::SimJ, JoinStrategy::SimJOpt { group_count: 4 }];

    /// `run_pair` on freshly built summaries, with a fresh matcher.
    fn run(
        t: &SymbolTable,
        q: &Graph,
        g: &UncertainGraph,
        params: &JoinParams,
        stats: &mut JoinStats,
    ) -> Option<Candidate> {
        let (qs, gs) = (Summary::of_graph(q), Summary::of_uncertain(g));
        let mut matcher = VertexMatcher::default();
        run_pair(t, (q, &qs), (g, &gs), params, &mut matcher, &mut Instant::now())
            .map_err(|stage| stats.record_pruned(stage.label(), 1))
            .ok()
    }

    fn params(strategy: JoinStrategy, tau: u32, alpha: f64) -> JoinParams {
        JoinParams { strategy, ..JoinParams::simj(tau, alpha) }
    }

    /// A three-vertex chain `q` and an uncertain copy of it whose every
    /// vertex carries `q`'s label with probability `p` (else a foreign
    /// one). Every τ-prune passes at τ = 0 — each vertex *can* match — and
    /// `SimP_0 = p³`.
    fn chain_pair(t: &mut SymbolTable, p: f64) -> (Graph, UncertainGraph) {
        let mut b = GraphBuilder::new(t);
        for v in ["A", "B", "C"] {
            b.vertex(v, v);
        }
        b.edge("A", "B", "e");
        b.edge("B", "C", "e");
        let q = b.into_graph();
        let mut b = GraphBuilder::new(t);
        for v in ["A", "B", "C"] {
            b.uncertain_vertex(v, &[(v, p), ("Z", 1.0 - p)]);
        }
        b.edge("A", "B", "e");
        b.edge("B", "C", "e");
        (q, b.into_uncertain())
    }

    #[test]
    fn fixed_plan_matches_paper_order() {
        assert_eq!(plan(JoinStrategy::CssOnly), ["size", "label_multiset", "css"]);
        assert_eq!(plan(JoinStrategy::SimJ), ["size", "label_multiset", "css", "markov"]);
        assert_eq!(
            plan(JoinStrategy::SimJOpt { group_count: 4 }),
            ["size", "label_multiset", "css", "markov_opt", "grouped"]
        );
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn enrollment_follows_strategy() {
        // SimP_0 = 0.001 sits far below α = 0.5: the α-stage of each
        // probabilistic strategy fires, and CssOnly, which has no α-stage,
        // keeps the pair as a candidate.
        let mut t = SymbolTable::new();
        let (q, g) = chain_pair(&mut t, 0.1);
        let pruned_by = |strategy| {
            let mut stats = JoinStats::default();
            let outcome = run(&t, &q, &g, &params(strategy, 0, 0.5), &mut stats);
            assert_eq!(stats.pruned_total(), u64::from(outcome.is_none()));
            stats.pruned_stages().first().map(|&(label, _)| label)
        };
        assert_eq!(pruned_by(JoinStrategy::CssOnly), None);
        assert_eq!(pruned_by(JoinStrategy::SimJ), Some("markov"));
        let opt = pruned_by(JoinStrategy::SimJOpt { group_count: 4 });
        assert!(matches!(opt, Some("markov_opt" | "grouped")), "{opt:?}");
    }

    #[test]
    fn grouped_stage_is_pinned_last_and_never_dropped() {
        assert_eq!(plan(JoinStrategy::SimJOpt { group_count: 4 }).last(), Some(&"grouped"));
        // A surviving SimJOpt pair carries the grouped stage's world
        // partition to the verifier; the other strategies carry none.
        let mut t = SymbolTable::new();
        let (q, g) = chain_pair(&mut t, 0.9);
        let groups = |strategy| {
            let candidate = run(&t, &q, &g, &params(strategy, 0, 0.5), &mut JoinStats::default())
                .unwrap_or_else(|| panic!("{strategy:?} pruned a pair with SimP > α"));
            candidate.groups.map(|p| p.len())
        };
        assert!(groups(JoinStrategy::SimJOpt { group_count: 4 }).is_some_and(|n| n >= 1));
        assert_eq!(groups(JoinStrategy::SimJ), None);
        assert_eq!(groups(JoinStrategy::CssOnly), None);
    }

    const VERTEX_LABELS: [&str; 5] = ["A", "B", "C", "?x", "_:b"];
    const EDGE_LABELS: [&str; 3] = ["p", "q", "?e"];

    type RawEdges = Vec<(usize, usize, usize)>;

    /// Vertex label choices (one per certain vertex, one or more per
    /// uncertain vertex) and edges, as indices into the label pools.
    fn raw_graph(max_labels: usize) -> impl Strategy<Value = (Vec<Vec<usize>>, RawEdges)> {
        (1usize..6).prop_flat_map(move |n| {
            (
                prop::collection::vec(
                    prop::collection::vec(0..VERTEX_LABELS.len(), 1..=max_labels),
                    n,
                ),
                prop::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 0..7),
            )
        })
    }

    fn build_pair(
        t: &mut SymbolTable,
        (qv, qe): &(Vec<Vec<usize>>, RawEdges),
        (gv, ge): &(Vec<Vec<usize>>, RawEdges),
    ) -> (Graph, UncertainGraph) {
        let key = |i: usize| format!("v{i}");
        let mut b = GraphBuilder::new(t);
        for (i, labels) in qv.iter().enumerate() {
            b.vertex(&key(i), VERTEX_LABELS[labels[0]]);
        }
        for &(s, d, l) in qe.iter().filter(|(s, d, _)| s != d) {
            b.edge(&key(s), &key(d), EDGE_LABELS[l]);
        }
        let q = b.into_graph();
        let mut b = GraphBuilder::new(t);
        for (i, labels) in gv.iter().enumerate() {
            let mut names: Vec<&str> = labels.iter().map(|&l| VERTEX_LABELS[l]).collect();
            names.sort_unstable();
            names.dedup();
            let p = 1.0 / names.len() as f64;
            let alternatives: Vec<(&str, f64)> = names.iter().map(|&n| (n, p)).collect();
            b.uncertain_vertex(&key(i), &alternatives);
        }
        for &(s, d, l) in ge.iter().filter(|(s, d, _)| s != d) {
            b.edge(&key(s), &key(d), EDGE_LABELS[l]);
        }
        (q, b.into_uncertain())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// (a) On summaries, the cascade prunes exactly where the
        /// reference bounds run in plan order prune, credits the same
        /// stage, and hands survivors the reference `CssTerms`.
        #[test]
        fn summary_cascade_agrees_with_the_reference_bounds(
            q in raw_graph(1),
            g in raw_graph(3),
            tau in 0u32..4,
            alpha in 0.05f64..0.95,
        ) {
            let mut t = SymbolTable::new();
            let (q, g) = build_pair(&mut t, &q, &g);
            let reference = |strategy: JoinStrategy| -> Option<&'static str> {
                if SizeBound.uncertain(&t, &q, &g) > tau {
                    return Some("size");
                }
                if LabelMultisetBound.uncertain(&t, &q, &g) > tau {
                    return Some("label_multiset");
                }
                if CssBound.uncertain(&t, &q, &g) > tau {
                    return Some("css");
                }
                match strategy {
                    JoinStrategy::CssOnly => None,
                    JoinStrategy::SimJ => (ub_simp(&t, &q, &g, tau) < alpha).then_some("markov"),
                    JoinStrategy::SimJOpt { group_count } => {
                        if ub_simp(&t, &q, &g, tau) < alpha {
                            Some("markov_opt")
                        } else {
                            (ub_simp_grouped(&t, &q, &g, tau, group_count).0 < alpha)
                                .then_some("grouped")
                        }
                    }
                }
            };
            for strategy in STRATEGIES {
                let mut stats = JoinStats::default();
                let outcome = run(&t, &q, &g, &params(strategy, tau, alpha), &mut stats);
                let credited = stats.pruned_stages().first().map(|&(label, _)| label);
                prop_assert_eq!(credited, reference(strategy), "{:?}", strategy);
                prop_assert_eq!(stats.pruned_total(), u64::from(outcome.is_none()));
                if let Some(candidate) = outcome {
                    prop_assert_eq!(candidate.terms, css_terms_uncertain(&t, &q, &g));
                }
            }
        }

        /// (b) The allocation-free matching equals Hopcroft–Karp on the
        /// Def. 10 bipartite graph, with one matcher reused across pairs.
        #[test]
        fn vertex_matcher_equals_hopcroft_karp(
            pairs in prop::collection::vec((raw_graph(1), raw_graph(3)), 1..6),
        ) {
            let mut t = SymbolTable::new();
            let mut matcher = VertexMatcher::default();
            for (q, g) in &pairs {
                let (q, g) = build_pair(&mut t, q, g);
                prop_assert_eq!(
                    matcher.lambda_v(&t, &q, &g) as usize,
                    lambda_v_uncertain(&t, &q, &g)
                );
            }
        }

        /// (c) The certain edge term the label stage tests first is `λ_E`
        /// of the reference, and never exceeds the full label-multiset
        /// bound, so pruning on it alone is sound.
        #[test]
        fn edge_term_never_exceeds_the_label_multiset_bound(
            q in raw_graph(1),
            g in raw_graph(3),
        ) {
            let mut t = SymbolTable::new();
            let (q, g) = build_pair(&mut t, &q, &g);
            let (qs, gs) = (Summary::of_graph(&q), Summary::of_uncertain(&g));
            let lambda_e = sorted_multiset_lambda(&t, &qs.edge_labels, &gs.edge_labels);
            prop_assert_eq!(lambda_e as usize, lambda_e_uncertain(&t, &q, &g));
            let edge_term = qs.v.abs_diff(gs.v) + qs.e.max(gs.e) - lambda_e;
            prop_assert!(edge_term <= LabelMultisetBound.uncertain(&t, &q, &g));
        }
    }
}
