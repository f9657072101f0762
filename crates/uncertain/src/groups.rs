//! Possible-world groups and the cost-based query optimization of
//! Sec. 6.2 (Algorithm 2).
//!
//! All possible worlds of an uncertain graph are divided into disjoint
//! groups `PWG_1 … PWG_k`; each group restricts every vertex to a subset
//! of its label alternatives. Per group we obtain a *tighter* structural
//! bound (the Def. 10 bipartite graph shrinks) and a tighter Markov bound
//! (conditional expectations), so groups whose structural bound exceeds τ
//! are discarded entirely and the remaining upper bounds are summed:
//!
//! ```text
//! ub_SimP(q, g) = Σ_{i : lb_gedCSS(q, PWG_i) <= τ}  ub_SimP(q, PWG_i)
//! ```
//!
//! The split strategy follows the paper's two principles: split the vertex
//! with the highest total existence probability, or the vertex with the
//! most alternative labels; the cost model
//! `argmin Σ ub_SimP(q, PWG_i)` selects between them.

use crate::prob_bound::{self};
use uqsj_ged::bounds::css::{css_terms_uncertain, lb_ged_css_restricted, CssTerms};
use uqsj_graph::{Graph, Symbol, SymbolTable, UncertainGraph};

/// One possible-world group: per-vertex allowed alternatives with their
/// *unconditional* probabilities, so group masses over a partition sum to
/// the total world mass.
#[derive(Clone, Debug)]
pub struct PossibleWorldGroup {
    /// `label_sets[i]` — the alternatives vertex `i` may take within this
    /// group. Never empty.
    pub label_sets: Vec<Vec<(Symbol, f64)>>,
}

/// Which vertex-selection principle to use when splitting a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitHeuristic {
    /// Split the vertex with the highest total existence probability
    /// among its remaining alternatives (first principle in Sec. 6.2).
    HighestMass,
    /// Split the vertex with the most remaining alternatives (second
    /// principle).
    MostLabels,
}

impl PossibleWorldGroup {
    /// The group covering every possible world of `g`.
    pub fn full(g: &UncertainGraph) -> Self {
        Self {
            label_sets: g
                .vertices()
                .iter()
                .map(|v| v.alternatives.iter().map(|a| (a.label, a.prob)).collect())
                .collect(),
        }
    }

    /// Total (unconditional) probability mass of the group's worlds.
    pub fn mass(&self) -> f64 {
        self.label_sets.iter().map(|s| s.iter().map(|(_, p)| p).sum::<f64>()).product()
    }

    /// Number of possible worlds in the group.
    ///
    /// Saturates at [`u128::MAX`] instead of wrapping (mirroring
    /// `UncertainGraph::world_count`): a wrapped product on a group with
    /// hundreds of multi-label vertices could masquerade as a tiny —
    /// enumerable-looking — count and stall the verifier. A saturated
    /// count is detectable via [`Self::world_count_saturated`] and always
    /// exceeds any enumeration threshold, routing the group to the
    /// sampling tier.
    pub fn world_count(&self) -> u128 {
        self.label_sets.iter().map(|s| s.len() as u128).fold(1, |a, b| a.saturating_mul(b))
    }

    /// Whether [`Self::world_count`] overflowed `u128` and clamped; the
    /// group is then enumeration-infeasible by definition.
    pub fn world_count_saturated(&self) -> bool {
        self.world_count() == u128::MAX
    }

    /// Just the labels, for the restricted CSS bound.
    pub fn labels_only(&self) -> Vec<Vec<Symbol>> {
        self.label_sets.iter().map(|s| s.iter().map(|(l, _)| *l).collect()).collect()
    }

    /// Structural lower bound for every world of the group (Theorem 3
    /// over the restricted label sets).
    pub fn lb_ged(&self, table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> u32 {
        lb_ged_css_restricted(table, q, g, &self.labels_only())
    }

    /// Markov upper bound on the group's contribution to `SimP_τ(q, g)`:
    /// `mass · min(1, E[Y | group]/(C − τ), E[Z | group]/(C − τ − W_q))`,
    /// using the conditional expectations of the group's restricted label
    /// sets (and the wildcard refinement of
    /// [`crate::prob_bound::expected_z_total`]).
    pub fn ub_contribution(
        &self,
        table: &SymbolTable,
        q: &Graph,
        tau: u32,
        terms: &CssTerms,
    ) -> f64 {
        let mass = self.mass();
        let t = terms.c_value() - i64::from(tau);
        if t <= 0 {
            return mass;
        }
        let q_labels = q.vertex_labels();
        let ground: Vec<uqsj_graph::Symbol> =
            q_labels.iter().copied().filter(|&l| !table.is_wildcard(l)).collect();
        let wq = (q.vertex_count() - ground.len()) as i64;
        let mut e_y = 0.0;
        let mut e_z = 0.0;
        for set in &self.label_sets {
            let total: f64 = set.iter().map(|(_, p)| p).sum();
            if total <= 0.0 {
                continue;
            }
            let hit_y: f64 = set
                .iter()
                .filter(|(l, _)| q_labels.iter().any(|&ql| uqsj_graph::labels_match(table, *l, ql)))
                .map(|(_, p)| *p)
                .sum();
            e_y += hit_y / total;
            let hit_z: f64 = set
                .iter()
                .filter(|(l, _)| table.is_wildcard(*l) || ground.contains(l))
                .map(|(_, p)| *p)
                .sum();
            e_z += hit_z / total;
        }
        let plain = e_y / t as f64;
        let tz = t - wq;
        let refined = if tz <= 0 { 1.0 } else { e_z / tz as f64 };
        mass * plain.min(refined).min(1.0)
    }

    /// Whether any vertex still has more than one alternative.
    pub fn splittable(&self) -> bool {
        self.label_sets.iter().any(|s| s.len() > 1)
    }

    /// Split this group on `vertex`: the highest-probability alternative
    /// forms one group, the remainder the other. Returns `None` if the
    /// vertex has a single alternative.
    pub fn split_at(&self, vertex: usize) -> Option<(Self, Self)> {
        let set = &self.label_sets[vertex];
        if set.len() < 2 {
            return None;
        }
        let best = set
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("NaN probability"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut head = self.clone();
        head.label_sets[vertex] = vec![set[best]];
        let mut tail = self.clone();
        tail.label_sets[vertex] =
            set.iter().enumerate().filter(|(i, _)| *i != best).map(|(_, a)| *a).collect();
        Some((head, tail))
    }

    /// Choose the vertex to split per the heuristic. Returns `None` when
    /// no vertex is splittable.
    pub fn pick_split_vertex(&self, heuristic: SplitHeuristic) -> Option<usize> {
        let candidates = self.label_sets.iter().enumerate().filter(|(_, s)| s.len() > 1);
        match heuristic {
            SplitHeuristic::HighestMass => candidates
                .max_by(|a, b| {
                    let ma: f64 = a.1.iter().map(|(_, p)| p).sum();
                    let mb: f64 = b.1.iter().map(|(_, p)| p).sum();
                    ma.partial_cmp(&mb).expect("NaN probability")
                })
                .map(|(i, _)| i),
            SplitHeuristic::MostLabels => candidates.max_by_key(|(_, s)| s.len()).map(|(i, _)| i),
        }
    }

    /// Iterate over the group's worlds: `(choice labels, probability)`.
    pub fn worlds(&self) -> GroupWorldIter<'_> {
        GroupWorldIter { group: self, choice: vec![0; self.label_sets.len()], done: false }
    }
}

/// Iterator over the worlds of one group (labels per vertex, probability).
pub struct GroupWorldIter<'a> {
    group: &'a PossibleWorldGroup,
    choice: Vec<usize>,
    done: bool,
}

impl Iterator for GroupWorldIter<'_> {
    type Item = (Vec<Symbol>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut labels = Vec::with_capacity(self.choice.len());
        let mut prob = 1.0;
        for (set, &c) in self.group.label_sets.iter().zip(&self.choice) {
            let (l, p) = set[c];
            labels.push(l);
            prob *= p;
        }
        // Advance mixed-radix counter.
        let mut i = self.choice.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.choice[i] + 1 < self.group.label_sets[i].len() {
                self.choice[i] += 1;
                for c in &mut self.choice[i + 1..] {
                    *c = 0;
                }
                break;
            }
        }
        Some((labels, prob))
    }
}

/// Partition the worlds of `g` into at most `gn` groups with the given
/// heuristic, repeatedly splitting the group with the largest upper-bound
/// contribution (the group with the least pruning power, per Sec. 6.2).
pub fn partition_groups(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    gn: usize,
    heuristic: SplitHeuristic,
) -> Vec<PossibleWorldGroup> {
    assert!(gn >= 1, "need at least one group");
    let terms = css_terms_uncertain(table, q, g);
    let mut groups = vec![PossibleWorldGroup::full(g)];
    while groups.len() < gn {
        // The worst group is the one contributing the largest upper bound
        // among those not already pruned structurally.
        let worst = groups
            .iter()
            .enumerate()
            .filter(|(_, grp)| grp.splittable() && grp.lb_ged(table, q, g) <= tau)
            .max_by(|a, b| {
                let ca = a.1.ub_contribution(table, q, tau, &terms);
                let cb = b.1.ub_contribution(table, q, tau, &terms);
                ca.partial_cmp(&cb).expect("NaN contribution")
            })
            .map(|(i, _)| i);
        let Some(i) = worst else { break };
        let vertex =
            groups[i].pick_split_vertex(heuristic).expect("splittable group has a split vertex");
        let (head, tail) = groups[i].split_at(vertex).expect("vertex has >1 label");
        groups[i] = head;
        groups.push(tail);
    }
    groups
}

/// Group-based upper bound on `SimP_τ(q, g)` (Algorithm 2): the cost model
/// evaluates both split heuristics and keeps the smaller total.
/// Returns the bound and the winning partition (for reuse in
/// verification).
pub fn ub_simp_grouped(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    gn: usize,
) -> (f64, Vec<PossibleWorldGroup>) {
    let terms = css_terms_uncertain(table, q, g);
    let evaluate = |groups: &[PossibleWorldGroup]| -> f64 {
        groups
            .iter()
            .filter(|grp| grp.lb_ged(table, q, g) <= tau)
            .map(|grp| grp.ub_contribution(table, q, tau, &terms))
            .sum::<f64>()
            .min(1.0)
    };
    let a = partition_groups(table, q, g, tau, gn, SplitHeuristic::HighestMass);
    let ub_a = evaluate(&a);
    let b = partition_groups(table, q, g, tau, gn, SplitHeuristic::MostLabels);
    let ub_b = evaluate(&b);
    if ub_a <= ub_b {
        (ub_a, a)
    } else {
        (ub_b, b)
    }
}

/// Exact verification restricted to the surviving groups: worlds of groups
/// with `lb > τ` are skipped without materialization.
///
/// Uses the thread-local [`uqsj_ged::GedEngine`]; join drivers that own
/// an engine should call [`verify_simp_groups_with`] directly.
pub fn verify_simp_groups(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
    groups: &[PossibleWorldGroup],
) -> crate::prob::VerifyOutcome {
    uqsj_ged::engine::with_thread_engine(|engine| {
        verify_simp_groups_with(engine, table, q, g, tau, alpha, groups)
    })
}

/// [`verify_simp_groups`] on a caller-owned [`uqsj_ged::GedEngine`]: the
/// exact driver [`crate::prob::verify_simp_prepared`] over `groups`, on
/// fresh verifier state for `g`.
#[allow(clippy::too_many_arguments)] // mirrors verify_simp_groups + engine
pub fn verify_simp_groups_with(
    engine: &mut uqsj_ged::GedEngine,
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
    groups: &[PossibleWorldGroup],
) -> crate::prob::VerifyOutcome {
    let mut verifier = crate::verifier::WorldVerifier::prepare(table, g);
    crate::prob::verify_simp_prepared(engine, &mut verifier, table, q, tau, alpha, Some(groups))
}

/// Convenience wrapper mirroring [`prob_bound::ub_simp`] at `gn = 1`
/// (must coincide with Theorem 4's single-group bound).
pub fn ub_simp_single_group(table: &SymbolTable, q: &Graph, g: &UncertainGraph, tau: u32) -> f64 {
    prob_bound::ub_simp(table, q, g, tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::similarity_probability;
    use uqsj_graph::GraphBuilder;

    fn pair(t: &mut SymbolTable) -> (Graph, UncertainGraph) {
        let mut bq = GraphBuilder::new(t);
        bq.vertex("x", "?x");
        bq.vertex("a", "Actor");
        bq.vertex("c", "City");
        bq.edge("x", "a", "type");
        bq.edge("a", "c", "birthPlace");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(t);
        bg.vertex("y", "?y");
        bg.uncertain_vertex("m", &[("NBA_Player", 0.5), ("Professor", 0.3), ("Actor", 0.2)]);
        bg.uncertain_vertex("n", &[("State", 0.7), ("City", 0.3)]);
        bg.edge("y", "m", "type");
        bg.edge("m", "n", "birthPlace");
        let g = bg.into_uncertain();
        (q, g)
    }

    #[test]
    fn groups_partition_all_worlds() {
        let mut t = SymbolTable::new();
        let (q, g) = pair(&mut t);
        for gn in [1usize, 2, 3, 4, 6] {
            let groups = partition_groups(&t, &q, &g, 2, gn, SplitHeuristic::HighestMass);
            assert!(groups.len() <= gn);
            let worlds: u128 = groups.iter().map(|g| g.world_count()).sum();
            assert_eq!(worlds, g.world_count(), "gn={gn}");
            let mass: f64 = groups.iter().map(|g| g.mass()).sum();
            assert!((mass - 1.0).abs() < 1e-9, "gn={gn}: mass={mass}");
        }
    }

    #[test]
    fn grouped_bound_dominates_exact_and_tightens() {
        let mut t = SymbolTable::new();
        let (q, g) = pair(&mut t);
        for tau in 0..3u32 {
            let exact = similarity_probability(&t, &q, &g, tau);
            let mut prev = f64::INFINITY;
            for gn in [1usize, 2, 4, 6] {
                let (ub, _) = ub_simp_grouped(&t, &q, &g, tau, gn);
                assert!(ub + 1e-9 >= exact, "tau={tau} gn={gn}: ub={ub} < exact={exact}");
                // More groups should not loosen the bound (monotone
                // refinement is the whole point of the optimization).
                assert!(ub <= prev + 1e-9, "tau={tau} gn={gn}: ub grew");
                prev = ub;
            }
        }
    }

    #[test]
    fn grouped_verification_matches_plain() {
        let mut t = SymbolTable::new();
        let (q, g) = pair(&mut t);
        for tau in 0..3u32 {
            let exact = similarity_probability(&t, &q, &g, tau);
            let groups = partition_groups(&t, &q, &g, tau, 4, SplitHeuristic::MostLabels);
            let out = verify_simp_groups(&t, &q, &g, tau, f64::INFINITY, &groups);
            assert!(
                (out.prob - exact).abs() < 1e-9,
                "tau={tau}: grouped={} plain={exact}",
                out.prob
            );
        }
    }

    #[test]
    fn split_preserves_alternatives() {
        let mut t = SymbolTable::new();
        let (_, g) = pair(&mut t);
        let full = PossibleWorldGroup::full(&g);
        let (head, tail) = full.split_at(1).unwrap();
        assert_eq!(head.label_sets[1].len(), 1);
        assert_eq!(tail.label_sets[1].len(), 2);
        // Highest-probability alternative goes to the head.
        assert!((head.label_sets[1][0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn group_world_count_saturates_instead_of_wrapping() {
        // 2^130 worlds: a wrapping product would hit 0 once 128 factors
        // of 2 accumulate; the count must clamp at u128::MAX so the group
        // never looks enumerable.
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        let grp = PossibleWorldGroup { label_sets: vec![vec![(a, 0.5), (b, 0.5)]; 130] };
        assert_eq!(grp.world_count(), u128::MAX);
        assert!(grp.world_count_saturated());
        // Splitting a saturated group still works and stays saturated.
        let (head, tail) = grp.split_at(0).unwrap();
        assert_eq!(head.world_count(), u128::MAX, "2^129 still saturates");
        assert!(!PossibleWorldGroup { label_sets: vec![vec![(a, 1.0)]] }.world_count_saturated());
        drop(tail);
    }

    #[test]
    fn unsplittable_vertex_returns_none() {
        let mut t = SymbolTable::new();
        let (_, g) = pair(&mut t);
        let full = PossibleWorldGroup::full(&g);
        assert!(full.split_at(0).is_none());
    }
}
