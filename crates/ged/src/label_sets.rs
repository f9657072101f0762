//! Label multiset intersections under the wildcard rule, and the
//! vertex-label bipartite graph of Def. 10.
//!
//! `λ_V(q, g)` / `λ_E(q, g)` count the *maximum number of label pairs that
//! can be matched at zero substitution cost* between two label multisets.
//! Without wildcards this is the ordinary multiset intersection used by the
//! label-multiset bound of Zhao et al.; with wildcards (SPARQL variables)
//! it is a bipartite matching problem, for which we have a closed form
//! (validated against Hopcroft–Karp in the tests).

use uqsj_graph::{Graph, Symbol, SymbolTable, UncertainGraph};
use uqsj_matching::{hopcroft_karp, BipartiteGraph};

/// Maximum zero-cost matching size between two label multisets under the
/// wildcard rule.
///
/// Both inputs may be in any order; they are counted, not consumed.
pub fn multiset_lambda(table: &SymbolTable, a: &[Symbol], b: &[Symbol]) -> usize {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    sorted_multiset_lambda(table, &a, &b) as usize
}

/// [`multiset_lambda`] of two *sorted* multisets, in one merge that
/// allocates nothing: it counts the wildcards it steps over and
/// intersects the normal labels.
pub fn sorted_multiset_lambda(table: &SymbolTable, a: &[Symbol], b: &[Symbol]) -> u32 {
    let (mut i, mut j) = (0, 0);
    // Wildcards of each side, normals of each side left unmatched, and
    // the normal-label intersection.
    let (mut aw, mut bw, mut an, mut bn, mut inter) = (0u32, 0u32, 0u32, 0u32, 0u32);
    loop {
        while i < a.len() && table.is_wildcard(a[i]) {
            aw += 1;
            i += 1;
        }
        while j < b.len() && table.is_wildcard(b[j]) {
            bw += 1;
            j += 1;
        }
        if i == a.len() || j == b.len() {
            break;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                an += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                bn += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    for &s in &a[i..] {
        if table.is_wildcard(s) {
            aw += 1;
        } else {
            an += 1;
        }
    }
    for &s in &b[j..] {
        if table.is_wildcard(s) {
            bw += 1;
        } else {
            bn += 1;
        }
    }
    // Leftover normals on the two sides share no label, so they can only be
    // matched by wildcards of the other side. Saturate the exclusive
    // demands first, then pair leftover wildcards with each other.
    let x = aw.min(bn); // a-wildcards consumed by b-normals
    let z = bw.min(an); // b-wildcards consumed by a-normals
    let y = (aw - x).min(bw - z); // wildcard-to-wildcard
    inter + x + z + y
}

/// `λ_V(q, g^c)` for two certain graphs.
pub fn lambda_v_certain(table: &SymbolTable, a: &Graph, b: &Graph) -> usize {
    multiset_lambda(table, a.vertex_labels(), b.vertex_labels())
}

/// `λ_E(q, g^c)` for two certain graphs.
pub fn lambda_e_certain(table: &SymbolTable, a: &Graph, b: &Graph) -> usize {
    multiset_lambda(table, &a.edge_label_multiset(), &b.edge_label_multiset())
}

/// `λ_E(q, g)` between a certain and an uncertain graph (edge labels are
/// certain in both models).
pub fn lambda_e_uncertain(table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> usize {
    multiset_lambda(table, &q.edge_label_multiset(), &g.edge_label_multiset())
}

/// Upper bound on `λ_V(q, pw(g))` over **all** possible worlds of `g`:
/// the maximum matching in the vertex-label bipartite graph of Def. 10.
///
/// There is an edge between `v_i ∈ V(g)` and `u_j ∈ V(q)` iff some
/// alternative label of `v_i` matches `l(u_j)` under the wildcard rule.
pub fn lambda_v_uncertain(table: &SymbolTable, q: &Graph, g: &UncertainGraph) -> usize {
    let sets: Vec<Vec<Symbol>> =
        g.vertices().iter().map(|v| v.alternatives.iter().map(|a| a.label).collect()).collect();
    lambda_v_label_sets(table, q, &sets)
}

/// Same as [`lambda_v_uncertain`], but over caller-provided per-vertex
/// label sets. This is what the possible-world-group machinery uses: a
/// group restricts each vertex to a subset of its alternatives, and the
/// bound is recomputed over the restricted sets (Sec. 6.2).
pub fn lambda_v_label_sets(table: &SymbolTable, q: &Graph, g_label_sets: &[Vec<Symbol>]) -> usize {
    let mut bg = BipartiteGraph::new(g_label_sets.len(), q.vertex_count());
    for (i, labels) in g_label_sets.iter().enumerate() {
        for (j, &ql) in q.vertex_labels().iter().enumerate() {
            if labels.iter().any(|&l| uqsj_graph::labels_match(table, l, ql)) {
                bg.add_edge(i, j);
            }
        }
    }
    hopcroft_karp(&bg).0
}

/// Substitution cost between two single labels: 0 if they match under the
/// wildcard rule, else 1.
#[inline]
pub fn label_sub_cost(table: &SymbolTable, a: Symbol, b: Symbol) -> u32 {
    u32::from(!uqsj_graph::labels_match(table, a, b))
}

/// Edit cost between two edge-label multisets on the same ordered vertex
/// pair: matched pairs substitute (0 if matching, there is no cheaper
/// option), surplus edges are inserted/deleted.
///
/// Equals `max(|A|, |B|) - λ(A, B)`.
pub fn edge_multiset_cost(table: &SymbolTable, a: &[Symbol], b: &[Symbol]) -> u32 {
    let lam = multiset_lambda(table, a, b);
    (a.len().max(b.len()) - lam) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;

    fn syms(table: &mut SymbolTable, names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| table.intern(n)).collect()
    }

    /// Reference implementation via Hopcroft–Karp.
    fn lambda_ref(table: &SymbolTable, a: &[Symbol], b: &[Symbol]) -> usize {
        let mut g = BipartiteGraph::new(a.len(), b.len());
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                if uqsj_graph::labels_match(table, x, y) {
                    g.add_edge(i, j);
                }
            }
        }
        hopcroft_karp(&g).0
    }

    #[test]
    fn plain_multiset_intersection() {
        let mut t = SymbolTable::new();
        let a = syms(&mut t, &["A", "B", "B", "C"]);
        let b = syms(&mut t, &["B", "C", "C", "D"]);
        assert_eq!(multiset_lambda(&t, &a, &b), 2); // B, C
    }

    #[test]
    fn wildcards_match_anything() {
        let mut t = SymbolTable::new();
        let a = syms(&mut t, &["?x", "A"]);
        let b = syms(&mut t, &["B", "C"]);
        assert_eq!(multiset_lambda(&t, &a, &b), 1); // ?x matches one of B/C
        let c = syms(&mut t, &["?y", "A"]);
        assert_eq!(multiset_lambda(&t, &a, &c), 2); // ?x-?y (or A-A, ?x-A)
    }

    #[test]
    fn closed_form_matches_hopcroft_karp() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut t = SymbolTable::new();
        let pool = syms(&mut t, &["?x", "?y", "A", "B", "C", "D"]);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..500 {
            let na = rng.gen_range(0..8);
            let nb = rng.gen_range(0..8);
            let a: Vec<Symbol> = (0..na).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let b: Vec<Symbol> = (0..nb).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            assert_eq!(multiset_lambda(&t, &a, &b), lambda_ref(&t, &a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn edge_multiset_cost_examples() {
        let mut t = SymbolTable::new();
        let p = syms(&mut t, &["p"]);
        let q = syms(&mut t, &["q"]);
        let pq = syms(&mut t, &["p", "q"]);
        assert_eq!(edge_multiset_cost(&t, &p, &p), 0);
        assert_eq!(edge_multiset_cost(&t, &p, &q), 1); // substitution
        assert_eq!(edge_multiset_cost(&t, &p, &[]), 1); // deletion
        assert_eq!(edge_multiset_cost(&t, &pq, &p), 1); // one delete
        assert_eq!(edge_multiset_cost(&t, &pq, &q), 1);
    }

    #[test]
    fn lambda_v_uncertain_uses_best_alternative() {
        let mut t = SymbolTable::new();
        // q has one vertex labeled Actor.
        let mut bq = GraphBuilder::new(&mut t);
        bq.vertex("a", "Actor");
        let q = bq.into_graph();
        // g has one vertex that may be NBA_Player (0.6) or Actor (0.4).
        let mut bg = GraphBuilder::new(&mut t);
        bg.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        let g = bg.into_uncertain();
        assert_eq!(lambda_v_uncertain(&t, &q, &g), 1);
    }

    #[test]
    fn lambda_v_uncertain_is_a_matching_not_a_count() {
        let mut t = SymbolTable::new();
        // Two g vertices can both be Actor, but q has only one Actor:
        // matching size must be 1, not 2.
        let mut bq = GraphBuilder::new(&mut t);
        bq.vertex("a", "Actor");
        bq.vertex("c", "City");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(&mut t);
        bg.uncertain_vertex("x", &[("Actor", 1.0)]);
        bg.uncertain_vertex("y", &[("Actor", 0.5), ("Band", 0.5)]);
        let g = bg.into_uncertain();
        assert_eq!(lambda_v_uncertain(&t, &q, &g), 1);
    }

    #[test]
    fn paper_figure8_bipartite_matching() {
        // Fig. 8: vertex label bipartite graph of g1 and q2. We reproduce
        // the label sets; the maximum matching should include the variable
        // vertices (wildcards) and the NS/A/Ci/C matches.
        let mut t = SymbolTable::new();
        // q2 vertex labels (8 vertices): ?x, NS, A, C, Ci, ?a, ?b, ?c
        let mut bq = GraphBuilder::new(&mut t);
        for (k, l) in [
            ("u1", "?x"),
            ("u2", "NS"),
            ("u3", "A"),
            ("u4", "C"),
            ("u5", "Ci"),
            ("u6", "?a"),
            ("u7", "?b"),
            ("u8", "?c"),
        ] {
            bq.vertex(k, l);
        }
        let q = bq.into_graph();
        // g1 (10 vertices): ?x, {NS,P,A}, A, C, ?b, {S,Ci}, Ci, ?a, ?c, ?d
        let mut bg = GraphBuilder::new(&mut t);
        bg.vertex("v1", "?x");
        bg.uncertain_vertex("v2", &[("NS", 0.6), ("P", 0.3), ("A", 0.1)]);
        bg.vertex("v3", "A");
        bg.vertex("v4", "C");
        bg.vertex("v5", "?b");
        bg.uncertain_vertex("v6", &[("S", 0.7), ("Ci", 0.3)]);
        bg.vertex("v7", "Ci");
        bg.vertex("v8", "?a");
        bg.vertex("v9", "?c");
        bg.vertex("v10", "?d");
        let g = bg.into_uncertain();
        // All 8 q vertices can be matched (4 wildcards in q match anything;
        // NS, A, C, Ci all available in g).
        assert_eq!(lambda_v_uncertain(&t, &q, &g), 8);
    }
}
