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
//! A pruned pair is credited to exactly one stage, in [`JoinStats`] and in
//! `uqsj_join_pruned_total{stage}`; every stage a pair reaches records its
//! time in `uqsj_join_stage_us{stage}`.

use crate::join::JoinStrategy;
use crate::obs::stage_handles;
use crate::stats::JoinStats;
use std::time::Instant;
use uqsj_ged::bounds::css::{css_terms_uncertain, CssBound};
use uqsj_ged::bounds::label_multiset::LabelMultisetBound;
use uqsj_ged::bounds::size::SizeBound;
use uqsj_ged::bounds::LowerBound;
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

    /// The stage's `stage=...` metric label and [`JoinStats`] key.
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

/// What one pair's trip through the cascade produced.
pub(crate) enum CascadeOutcome {
    /// Discarded by some stage (already credited in stats and metrics).
    Pruned,
    /// Survived every stage; carries the world partition when the grouped
    /// stage ran.
    Candidate(Option<Vec<PossibleWorldGroup>>),
}

/// Run one pair through `strategy`'s plan. Credits exactly one stage in
/// `stats` and the process metrics when the pair is pruned, so
/// `pairs == pruned_total + candidates` holds for every driver.
pub(crate) fn run_pair(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    strategy: JoinStrategy,
    tau: u32,
    alpha: f64,
    stats: &mut JoinStats,
) -> CascadeOutcome {
    let mut groups = None;
    for &stage in stages(strategy) {
        let handles = stage_handles(stage);
        let started = Instant::now();
        let fired = match stage {
            Stage::Size => SizeBound.uncertain(table, q, g) > tau,
            Stage::LabelMultiset => LabelMultisetBound.uncertain(table, q, g) > tau,
            Stage::Css => CssBound.uncertain(table, q, g) > tau,
            Stage::Markov | Stage::MarkovOpt => {
                let terms = css_terms_uncertain(table, q, g);
                ub_simp_with_terms(table, q, g, tau, &terms) < alpha
            }
            Stage::Grouped => {
                let JoinStrategy::SimJOpt { group_count } = strategy else {
                    unreachable!("only SimJOpt plans the grouped stage")
                };
                let (ub, parts) = ub_simp_grouped(table, q, g, tau, group_count);
                groups = Some(parts);
                ub < alpha
            }
        };
        handles.time.observe_duration(started.elapsed());
        if fired {
            handles.pruned.inc();
            stats.record_pruned(stage.label(), 1);
            return CascadeOutcome::Pruned;
        }
    }
    CascadeOutcome::Candidate(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;

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
            let outcome = run_pair(&t, &q, &g, strategy, 0, 0.5, &mut stats);
            let pruned = matches!(outcome, CascadeOutcome::Pruned);
            assert_eq!(stats.pruned_total(), u64::from(pruned));
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
        let groups =
            |strategy| match run_pair(&t, &q, &g, strategy, 0, 0.5, &mut JoinStats::default()) {
                CascadeOutcome::Candidate(groups) => groups.map(|p| p.len()),
                CascadeOutcome::Pruned => panic!("{strategy:?} pruned a pair with SimP > α"),
            };
        assert!(groups(JoinStrategy::SimJOpt { group_count: 4 }).is_some_and(|n| n >= 1));
        assert_eq!(groups(JoinStrategy::SimJ), None);
        assert_eq!(groups(JoinStrategy::CssOnly), None);
    }
}
