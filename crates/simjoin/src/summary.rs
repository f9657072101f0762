//! Per-graph filter summaries, and the allocation-free `λ_V` matching the
//! cascade's label stage runs beside them.
//!
//! A [`Summary`] holds what the size, label-multiset and CSS bounds read
//! of one graph: its vertex and edge counts, its degree sequence and its
//! edge-label multiset, each sorted once. [`crate::JoinIndex`] builds one
//! per graph of `D` when it is built, and the driver one per graph of `U`
//! per join, so no pair re-sorts or re-allocates them. Vertex labels are
//! read from the graphs themselves.
//!
//! The summaries carry no symbol table (`JoinIndex::build` takes none), so
//! the split of an edge-label multiset into normal labels and wildcards is
//! made by the merge that intersects two of them
//! (`uqsj_ged::label_sets::sorted_multiset_lambda`), one flag lookup per
//! label.

use uqsj_graph::{Graph, Symbol, SymbolTable, UncertainGraph};

/// What the cascade's τ-stages read of one graph.
#[derive(Clone, Debug)]
pub(crate) struct Summary {
    /// `|V|`.
    pub(crate) v: u32,
    /// `|E|`.
    pub(crate) e: u32,
    /// Degree sequence, non-increasing (Def. 9); its length is `v`.
    pub(crate) degrees: Box<[u32]>,
    /// Edge-label multiset, sorted.
    pub(crate) edge_labels: Box<[Symbol]>,
}

impl Summary {
    /// Summary of a certain graph (a query of `D`).
    pub(crate) fn of_graph(q: &Graph) -> Self {
        Self {
            v: q.vertex_count() as u32,
            e: q.edge_count() as u32,
            degrees: q.sorted_degrees().into(),
            edge_labels: q.edge_label_multiset().into(),
        }
    }

    /// Summary of an uncertain graph (a question of `U`); its structure and
    /// edge labels are certain.
    pub(crate) fn of_uncertain(g: &UncertainGraph) -> Self {
        Self {
            v: g.vertex_count() as u32,
            e: g.edge_count() as u32,
            degrees: g.sorted_degrees().into(),
            edge_labels: g.edge_label_multiset().into(),
        }
    }
}

/// Computes `λ_V(q, g)` of Def. 10 — the maximum matching in the
/// vertex-label bipartite graph — on buffers reused across pairs.
///
/// A wildcard vertex of `q`, or a vertex of `g` with a wildcard
/// alternative, is adjacent to every vertex of the other side. So with `M`
/// the maximum matching between the remaining vertices (`g`'s vertex `i`
/// adjacent to `q`'s ground vertex `j` iff `l(u_j)` is among `i`'s
/// alternatives) and `W_q`, `W_g` the two wildcard counts, the matching
/// number is `min(|V(q)|, |V(g)|, M + W_q + W_g)`: every matching edge
/// either joins two remaining vertices or uses a wildcard vertex, and
/// wildcards fill the rest of a maximum `M`-matching greedily up to that
/// cap. `M` comes from augmenting paths (Kuhn's algorithm).
#[derive(Debug, Default)]
pub(crate) struct VertexMatcher {
    /// `g` vertex matched to each `q` vertex, or [`UNMATCHED`].
    partner: Vec<u32>,
    /// Per `q` vertex, the augmentation that last visited it.
    visited: Vec<u32>,
}

const UNMATCHED: u32 = u32::MAX;

impl VertexMatcher {
    /// `λ_V(q, g)`, equal to `uqsj_ged::label_sets::lambda_v_uncertain`.
    pub(crate) fn lambda_v(&mut self, table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> u32 {
        let q_labels = q.vertex_labels();
        let wq = q_labels.iter().filter(|&&l| table.is_wildcard(l)).count() as u32;
        self.partner.clear();
        self.partner.resize(q_labels.len(), UNMATCHED);
        self.visited.clear();
        self.visited.resize(q_labels.len(), 0);
        let (mut wg, mut matched, mut round) = (0u32, 0u32, 0u32);
        for (i, v) in g.vertices().iter().enumerate() {
            if v.alternatives.iter().any(|a| table.is_wildcard(a.label)) {
                wg += 1;
                continue;
            }
            round += 1;
            if self.augment(table, q_labels, g, i as u32, round) {
                matched += 1;
            }
        }
        (matched + wq + wg).min(q_labels.len() as u32).min(g.vertex_count() as u32)
    }

    /// Look for an augmenting path from `g`'s vertex `i`.
    fn augment(
        &mut self,
        table: &SymbolTable,
        q_labels: &[Symbol],
        g: &UncertainGraph,
        i: u32,
        round: u32,
    ) -> bool {
        let alternatives = &g.vertices()[i as usize].alternatives;
        for (j, &l) in q_labels.iter().enumerate() {
            if self.visited[j] == round
                || table.is_wildcard(l)
                || !alternatives.iter().any(|a| a.label == l)
            {
                continue;
            }
            self.visited[j] = round;
            let holder = self.partner[j];
            if holder == UNMATCHED || self.augment(table, q_labels, g, holder, round) {
                self.partner[j] = i;
                return true;
            }
        }
        false
    }
}
