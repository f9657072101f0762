//! GED lower bounds for the filtering phase.
//!
//! * [`css`] — the paper's novel CSS-based bound (Theorems 1 and 3). It is
//!   the only bound here that handles uncertain graphs *without*
//!   enumerating possible worlds and *without* discarding labels.
//! * [`size`], [`label_multiset`] — the two prior "global filters"
//!   (Sec. 8.2): vertex/edge-count difference (Zeng et al., VLDB'09) and
//!   label-multiset difference (Zhao et al., ICDE'12). Theorem 2 of the
//!   paper proves CSS dominates both; the property tests here check it.
//! * [`cstar`], [`path_gram`], [`partition`], [`segos`] — the n-gram and
//!   partition-based baselines the paper compares against in Fig. 15.
//!   Faithful-in-spirit reimplementations; for uncertain inputs they run
//!   structure-only, exactly as the paper had to run them.

pub mod css;
pub mod cstar;
pub mod kat;
pub mod label_multiset;
pub mod partition;
pub mod path_gram;
pub mod segos;
pub mod size;

use uqsj_graph::{Graph, SymbolTable, UncertainGraph};

/// A uniform interface over all lower bounds, used by the
/// filter-comparison experiment (Fig. 15), the ablation benches, and the
/// join cascade (which runs the size, label-multiset and CSS bounds).
pub trait LowerBound {
    /// Short name for reporting ("CSS", "Path", ...).
    fn name(&self) -> &'static str;

    /// Stable snake_case identifier for metrics and per-stage join
    /// statistics (`uqsj_join_pruned_total{stage=...}`). Unlike
    /// [`LowerBound::name`] this never changes spelling — dashboards and
    /// the CI metric catalogue key on it.
    fn stage_label(&self) -> &'static str;

    /// A lower bound on `ged(q, g)` for two certain graphs.
    fn certain(&self, table: &SymbolTable, q: &Graph, g: &Graph) -> u32;

    /// A lower bound on `ged(q, pw(g))` valid for **every** possible world
    /// of `g`. The default discards label information (keeps structure
    /// only), which is the only sound generic lift — and precisely the
    /// handicap the paper describes for prior bounds (Sec. 1.2). The CSS
    /// bound overrides this with Theorem 3.
    fn uncertain(&self, _table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> u32 {
        let (t2, q2, g2) = structure_only_pair(q, g);
        self.certain(&t2, &q2, &g2)
    }
}

/// Every filtering lower bound at its default configuration, in cheap-to-
/// expensive order: size, label-multiset, CSS, c-star, path n-grams,
/// partition, SEGOS cascade. This is the canonical list the filter
/// comparison (Fig. 15) and the conformance oracles iterate — adding a
/// bound here automatically enrolls it in both.
pub fn all_bounds() -> Vec<Box<dyn LowerBound + Send + Sync>> {
    vec![
        Box::new(size::SizeBound),
        Box::new(label_multiset::LabelMultisetBound),
        Box::new(css::CssBound),
        Box::new(cstar::CStarBound),
        Box::new(path_gram::PathBound),
        Box::new(partition::ParsBound::default()),
        Box::new(segos::SegosBound),
    ]
}

/// Build structure-only copies of `q` and `g` over a fresh symbol table in
/// which every vertex/edge carries the same (non-wildcard) label, so that
/// all label terms vanish from certain-graph bounds.
pub fn structure_only_pair(q: &Graph, g: &UncertainGraph) -> (SymbolTable, Graph, Graph) {
    let mut t = SymbolTable::new();
    let w = t.intern("any");
    let mut q2 = Graph::new();
    for _ in 0..q.vertex_count() {
        q2.add_vertex(w);
    }
    for e in q.edges() {
        q2.add_edge(e.src, e.dst, w);
    }
    let mut g2 = Graph::new();
    for _ in 0..g.vertex_count() {
        g2.add_vertex(w);
    }
    for e in g.edges() {
        g2.add_edge(e.src, e.dst, w);
    }
    (t, q2, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;

    #[test]
    fn structure_only_pair_preserves_shape() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?x");
        b.uncertain_vertex("m", &[("A", 0.5), ("B", 0.5)]);
        b.edge("x", "m", "p");
        let (q, g) = b.into_both();
        let (t2, q2, g2) = structure_only_pair(&q, &g);
        assert_eq!(q2.vertex_count(), 2);
        assert_eq!(g2.vertex_count(), 2);
        assert_eq!(q2.edge_count(), 1);
        assert_eq!(g2.edge_count(), 1);
        // All labels identical.
        assert_eq!(q2.label(uqsj_graph::VertexId(0)), g2.label(uqsj_graph::VertexId(1)));
        assert!(!t2.is_wildcard(q2.label(uqsj_graph::VertexId(0))));
    }
}
