//! The CSS (common structural subgraph) based GED lower bound — the
//! paper's central technical contribution (Sec. 4).
//!
//! For certain graphs (Theorem 1), assuming `|V(q)| <= |V(g)|`:
//!
//! ```text
//! ged(q, g) >= |V(g)| + |E(g)| - λ_E(q, g) + dif(q, g)/2 - λ_V(q, g)
//! ```
//!
//! where `dif` is the *degree distance* of Def. 9 — the component-wise
//! truncated difference (`⊖`, Def. 8) between the sorted degree sequences.
//!
//! For a certain `q` and an **uncertain** `g` (Theorem 3), the same formula
//! applies with `λ_V(q, g)` replaced by the maximum matching in the
//! vertex-label bipartite graph of Def. 10 — a *uniform* bound over every
//! possible world of `g`, the property that lets SimJ prune whole
//! uncertain graphs without enumeration.

use crate::bounds::LowerBound;
use crate::label_sets::{
    lambda_e_certain, lambda_e_uncertain, lambda_v_certain, lambda_v_label_sets, lambda_v_uncertain,
};
use uqsj_graph::{Graph, Symbol, SymbolTable, UncertainGraph};

/// The truncated difference `a ⊖ b` of Def. 8.
#[inline]
pub fn tminus(a: u32, b: u32) -> u32 {
    a.saturating_sub(b)
}

/// Degree distance `dif(q, g)` (Def. 9) between two sorted-non-increasing
/// degree sequences, where `small` has `m <= n = |large|` entries.
///
/// # Panics
/// Panics (debug) if `small` is longer than `large`.
pub fn degree_distance(small: &[u32], large: &[u32]) -> u32 {
    debug_assert!(small.len() <= large.len());
    small.iter().zip(large.iter()).map(|(&a, &b)| tminus(a, b)).sum()
}

/// The structural terms of the CSS bound that do not depend on `λ_V`:
/// `C(q, g) = |V| + |E| - λ_E + ⌈dif/2⌉`, following Theorem 4's constant.
///
/// Splitting the bound this way lets the probabilistic filter (Theorem 4)
/// and the possible-world-group machinery reuse the expensive part while
/// recomputing only `λ_V` per group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CssTerms {
    /// `max(|V(q)|, |V(g)|)`.
    pub v: u32,
    /// Edge count of the graph with more vertices.
    pub e: u32,
    /// `λ_E(q, g)`.
    pub lambda_e: u32,
    /// Degree distance `dif(q, g)`.
    pub dif: u32,
}

impl CssTerms {
    /// `C(q, g) = |V| + |E| - λ_E + ⌈dif/2⌉` (integer, rounded up — valid
    /// because GED is integral).
    pub fn c_value(&self) -> i64 {
        i64::from(self.v) + i64::from(self.e) - i64::from(self.lambda_e)
            + i64::from(self.dif.div_ceil(2))
    }

    /// The CSS lower bound given a value (or upper bound) for `λ_V`.
    pub fn bound_with_lambda_v(&self, lambda_v: u32) -> u32 {
        (self.c_value() - i64::from(lambda_v)).max(0) as u32
    }
}

/// Compute [`CssTerms`] for one orientation: `small` has at most as many
/// vertices as `large`.
fn terms_oriented(
    small_degrees: &[u32],
    large_degrees: &[u32],
    large_v: u32,
    large_e: u32,
    lambda_e: u32,
) -> CssTerms {
    CssTerms {
        v: large_v,
        e: large_e,
        lambda_e,
        dif: degree_distance(small_degrees, large_degrees),
    }
}

/// CSS-based lower bound for two certain graphs (Theorem 1). When the two
/// graphs have the same number of vertices both orientations are valid and
/// the larger bound is returned.
pub fn lb_ged_css_certain(table: &SymbolTable, q: &Graph, g: &Graph) -> u32 {
    let lambda_v = lambda_v_certain(table, q, g) as u32;
    let lambda_e = lambda_e_certain(table, q, g) as u32;
    let dq = q.sorted_degrees();
    let dg = g.sorted_degrees();
    let mut best = 0u32;
    if q.vertex_count() <= g.vertex_count() {
        let t = terms_oriented(&dq, &dg, g.vertex_count() as u32, g.edge_count() as u32, lambda_e);
        best = best.max(t.bound_with_lambda_v(lambda_v));
    }
    if g.vertex_count() <= q.vertex_count() {
        let t = terms_oriented(&dg, &dq, q.vertex_count() as u32, q.edge_count() as u32, lambda_e);
        best = best.max(t.bound_with_lambda_v(lambda_v));
    }
    best
}

/// The [`CssTerms`] for a certain/uncertain pair (Theorem 3), choosing the
/// orientation with the larger vertex count as prescribed. On a vertex
/// count tie the orientation maximizing `C` is returned.
pub fn css_terms_uncertain(table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> CssTerms {
    let lambda_e = lambda_e_uncertain(table, q, g) as u32;
    css_terms_from_parts(
        &q.sorted_degrees(),
        q.edge_count() as u32,
        &g.sorted_degrees(),
        g.edge_count() as u32,
        lambda_e,
    )
}

/// [`css_terms_uncertain`] from its parts: each graph's non-increasing
/// degree sequence (its length is the vertex count) and edge count, and
/// `λ_E`. For callers that keep the parts per graph instead of
/// recomputing them per pair.
pub fn css_terms_from_parts(
    dq: &[u32],
    q_edges: u32,
    dg: &[u32],
    g_edges: u32,
    lambda_e: u32,
) -> CssTerms {
    let fwd =
        (dq.len() <= dg.len()).then(|| terms_oriented(dq, dg, dg.len() as u32, g_edges, lambda_e));
    let bwd =
        (dg.len() <= dq.len()).then(|| terms_oriented(dg, dq, dq.len() as u32, q_edges, lambda_e));
    match (fwd, bwd) {
        (Some(a), Some(b)) => {
            if a.c_value() >= b.c_value() {
                a
            } else {
                b
            }
        }
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => unreachable!("one orientation always applies"),
    }
}

/// CSS-based lower bound on `ged(q, pw(g))` uniform over all possible
/// worlds of `g` (Theorem 3).
pub fn lb_ged_css_uncertain(table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> u32 {
    let terms = css_terms_uncertain(table, q, g);
    let lambda_v = lambda_v_uncertain(table, q, g) as u32;
    terms.bound_with_lambda_v(lambda_v)
}

/// CSS-based lower bound over a *restricted* uncertain graph: vertex `i`
/// may only take the labels in `label_sets[i]`. Used per possible-world
/// group in the cost-based optimization (Algorithm 2).
pub fn lb_ged_css_restricted(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    label_sets: &[Vec<Symbol>],
) -> u32 {
    let terms = css_terms_uncertain(table, q, g);
    let lambda_v = lambda_v_label_sets(table, q, label_sets) as u32;
    terms.bound_with_lambda_v(lambda_v)
}

/// [`LowerBound`] adapter for the CSS bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct CssBound;

impl LowerBound for CssBound {
    fn name(&self) -> &'static str {
        "CSS"
    }

    fn stage_label(&self) -> &'static str {
        "css"
    }

    fn certain(&self, table: &SymbolTable, q: &Graph, g: &Graph) -> u32 {
        lb_ged_css_certain(table, q, g)
    }

    // Unlike the baselines, CSS handles uncertainty natively (Theorem 3).
    fn uncertain(&self, table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> u32 {
        lb_ged_css_uncertain(table, q, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::ged;
    use uqsj_graph::GraphBuilder;

    #[test]
    fn tminus_definition() {
        assert_eq!(tminus(5, 3), 2);
        assert_eq!(tminus(3, 5), 0);
        assert_eq!(tminus(4, 4), 0);
    }

    #[test]
    fn degree_distance_examples() {
        assert_eq!(degree_distance(&[3, 2, 1], &[3, 2, 1]), 0);
        assert_eq!(degree_distance(&[4, 3], &[2, 2, 2]), 3);
        assert_eq!(degree_distance(&[1], &[5, 5]), 0);
        assert_eq!(degree_distance(&[], &[1, 2]), 0);
    }

    fn chain(t: &mut SymbolTable, labels: &[&str], edge: &str) -> Graph {
        let mut b = GraphBuilder::new(t);
        for (i, l) in labels.iter().enumerate() {
            b.vertex(&format!("v{i}"), l);
        }
        for i in 0..labels.len().saturating_sub(1) {
            b.edge(&format!("v{i}"), &format!("v{}", i + 1), edge);
        }
        b.into_graph()
    }

    #[test]
    fn css_bound_is_admissible_on_examples() {
        let mut t = SymbolTable::new();
        let q = chain(&mut t, &["A", "B", "C"], "p");
        let g = chain(&mut t, &["A", "B", "D", "E"], "p");
        let lb = lb_ged_css_certain(&t, &q, &g);
        let exact = ged(&t, &q, &g).distance;
        assert!(lb <= exact, "lb={lb} exact={exact}");
    }

    #[test]
    fn css_bound_zero_for_identical() {
        let mut t = SymbolTable::new();
        let q = chain(&mut t, &["A", "B"], "p");
        let g = chain(&mut t, &["A", "B"], "p");
        assert_eq!(lb_ged_css_certain(&t, &q, &g), 0);
    }

    #[test]
    fn uncertain_bound_holds_for_every_world() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?x");
        b.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Professor", 0.3), ("Actor", 0.1)]);
        b.uncertain_vertex("n", &[("State", 0.7), ("City", 0.3)]);
        b.edge("x", "m", "spouse");
        b.edge("m", "n", "birthPlace");
        let g = b.into_uncertain();

        let mut bq = GraphBuilder::new(&mut t);
        bq.vertex("x", "?p");
        bq.vertex("a", "Actor");
        bq.vertex("c", "City");
        bq.edge("x", "a", "spouse");
        bq.edge("a", "c", "birthPlace");
        let q = bq.into_graph();

        let lb = lb_ged_css_uncertain(&t, &q, &g);
        for w in g.possible_worlds() {
            let exact = ged(&t, &q, &w.graph).distance;
            assert!(lb <= exact, "lb={lb} exceeds exact={exact} in a world");
        }
    }

    #[test]
    fn restricted_bound_at_least_full_bound() {
        // Restricting label sets can only shrink the bipartite graph,
        // so the per-group bound is at least the whole-graph bound.
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.uncertain_vertex("m", &[("A", 0.5), ("B", 0.5)]);
        b.uncertain_vertex("n", &[("C", 0.5), ("D", 0.5)]);
        b.edge("m", "n", "p");
        let g = b.into_uncertain();
        let mut bq = GraphBuilder::new(&mut t);
        bq.vertex("a", "A");
        bq.vertex("c", "C");
        bq.edge("a", "c", "p");
        let q = bq.into_graph();

        let full = lb_ged_css_uncertain(&t, &q, &g);
        let a = t.get("A").unwrap();
        let d = t.get("D").unwrap();
        let restricted = lb_ged_css_restricted(&t, &q, &g, &[vec![a], vec![d]]);
        assert!(restricted >= full);
    }
}
