//! GED *upper* bounds: the exact cost of any concrete vertex mapping, and
//! the bipartite (assignment-based) approximation of Riesen & Bunke.
//!
//! The refinement phase (Algorithm 1, lines 8–15) does not use it: every
//! world there is decided by τ-bounded A\*, because a Hungarian assignment
//! per world cost more verification time than the few A\* searches it
//! settled, on the WebQ-like workload and on the Fig. 12/14 sweeps alike.
//! The bound stays as a library function: it is a sound GED upper bound
//! whose assignment mapping is recomputed exactly, so the reported cost is
//! always the true cost of that mapping.

use crate::astar::GedResult;
use crate::label_sets::{edge_multiset_cost, label_sub_cost, multiset_lambda};
use std::collections::HashMap;
use uqsj_graph::{Graph, Symbol, SymbolTable, VertexId};
use uqsj_matching::hungarian;

/// Exact edit cost induced by a specific (injective) vertex mapping from
/// `q` to `g`: vertex substitutions/deletions, insertions of unmapped `g`
/// vertices, and all edge costs under the mapping. For the *optimal*
/// mapping this equals `ged(q, g)`; for any mapping it is an upper bound.
///
/// # Panics
/// Panics if `mapping` has the wrong length or maps two vertices to the
/// same image.
pub fn mapping_cost(
    table: &SymbolTable,
    q: &Graph,
    g: &Graph,
    mapping: &[Option<VertexId>],
) -> u32 {
    assert_eq!(mapping.len(), q.vertex_count(), "mapping length mismatch");
    let mut used = vec![false; g.vertex_count()];
    let mut cost = 0u32;
    // Vertex costs.
    for (u, image) in mapping.iter().enumerate() {
        match image {
            Some(v) => {
                assert!(!used[v.index()], "mapping is not injective");
                used[v.index()] = true;
                cost += label_sub_cost(table, q.label(VertexId(u as u32)), g.label(*v));
            }
            None => cost += 1, // deletion
        }
    }
    // Unmapped g vertices are insertions.
    cost += used.iter().filter(|&&x| !x).count() as u32;

    // Edge costs: group both edge sets by mapped ordered pair.
    let mut q_pairs: HashMap<(u32, u32), Vec<Symbol>> = HashMap::new();
    for e in q.edges() {
        q_pairs.entry((e.src.0, e.dst.0)).or_default().push(e.label);
    }
    let mut g_pairs: HashMap<(u32, u32), Vec<Symbol>> = HashMap::new();
    for e in g.edges() {
        g_pairs.entry((e.src.0, e.dst.0)).or_default().push(e.label);
    }
    let mut g_handled: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for ((s, d), q_labels) in &q_pairs {
        let image = match (mapping[*s as usize], mapping[*d as usize]) {
            (Some(a), Some(b)) => Some((a.0, b.0)),
            _ => None,
        };
        let empty = Vec::new();
        let g_labels = image
            .and_then(|key| {
                g_handled.insert(key);
                g_pairs.get(&key)
            })
            .unwrap_or(&empty);
        cost += edge_multiset_cost(table, q_labels, g_labels);
    }
    // g edges on pairs never touched by a q edge: insertions.
    for (key, labels) in &g_pairs {
        if !g_handled.contains(key) {
            cost += labels.len() as u32;
        }
    }
    cost
}

/// Bipartite GED approximation: assign vertices by a Hungarian matching
/// over label + local-structure costs, then price that mapping exactly.
/// Always `>= ged(q, g)`.
pub fn ged_upper_bipartite(table: &SymbolTable, q: &Graph, g: &Graph) -> GedResult {
    let (nq, ng) = (q.vertex_count(), g.vertex_count());
    let n = nq.max(ng);
    if n == 0 {
        return GedResult { distance: 0, mapping: Vec::new() };
    }
    // Per-vertex incident edge label multisets (both directions), sorted.
    let star = |graph: &Graph, v: VertexId| -> Vec<Symbol> {
        let mut labels: Vec<Symbol> =
            graph.out_edges(v).chain(graph.in_edges(v)).map(|e| e.label).collect();
        labels.sort_unstable();
        labels
    };
    let q_stars: Vec<Vec<Symbol>> = q.vertices().map(|v| star(q, v)).collect();
    let g_stars: Vec<Vec<Symbol>> = g.vertices().map(|v| star(g, v)).collect();

    let mut cost = vec![vec![0u64; n]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (j, c) in row.iter_mut().enumerate() {
            *c = match (i < nq, j < ng) {
                (true, true) => {
                    let vi = VertexId(i as u32);
                    let vj = VertexId(j as u32);
                    let sub = u64::from(label_sub_cost(table, q.label(vi), g.label(vj)));
                    let lam = multiset_lambda(table, &q_stars[i], &g_stars[j]);
                    let edge = (q_stars[i].len().max(g_stars[j].len()) - lam) as u64;
                    2 * sub + edge
                }
                (true, false) => 2 + q_stars[i].len() as u64, // delete
                (false, true) => 2 + g_stars[j].len() as u64, // insert
                (false, false) => 0,
            };
        }
    }
    let (_, assignment) = hungarian(&cost);
    let mapping: Vec<Option<VertexId>> = (0..nq)
        .map(|i| {
            let j = assignment[i];
            (j < ng).then_some(VertexId(j as u32))
        })
        .collect();
    let distance = mapping_cost(table, q, g, &mapping);
    GedResult { distance, mapping }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::ged;
    use uqsj_graph::GraphBuilder;

    #[test]
    fn identity_mapping_on_identical_graphs_costs_zero() {
        let mut t = SymbolTable::new();
        let mk = |t: &mut SymbolTable| {
            let mut b = GraphBuilder::new(t);
            b.vertex("a", "A");
            b.vertex("b", "B");
            b.edge("a", "b", "p");
            b.into_graph()
        };
        let q = mk(&mut t);
        let g = mk(&mut t);
        let identity: Vec<Option<VertexId>> = (0..2).map(|i| Some(VertexId(i))).collect();
        assert_eq!(mapping_cost(&t, &q, &g, &identity), 0);
    }

    #[test]
    fn all_deleted_mapping_costs_both_sizes() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("a", "A");
        b.vertex("b", "B");
        b.edge("a", "b", "p");
        let q = b.into_graph();
        let g = Graph::new();
        assert_eq!(mapping_cost(&t, &q, &g, &[None, None]), 3);
    }

    #[test]
    fn optimal_astar_mapping_prices_to_its_distance() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut t = SymbolTable::new();
        let labels = ["A", "B", "C"].map(|l| t.intern(l));
        let elabels = ["p", "q"].map(|l| t.intern(l));
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..100 {
            let mk = |rng: &mut SmallRng| {
                let n = rng.gen_range(1..5);
                let mut g = Graph::new();
                for _ in 0..n {
                    g.add_vertex(labels[rng.gen_range(0..3usize)]);
                }
                for s in 0..n {
                    for d in 0..n {
                        if s != d && rng.gen_bool(0.3) {
                            g.add_edge(
                                VertexId(s as u32),
                                VertexId(d as u32),
                                elabels[rng.gen_range(0..2usize)],
                            );
                        }
                    }
                }
                g
            };
            let q = mk(&mut rng);
            let g = mk(&mut rng);
            let r = ged(&t, &q, &g);
            // The optimal mapping must price to exactly the distance A*
            // reported — a strong consistency check on both algorithms.
            assert_eq!(mapping_cost(&t, &q, &g, &r.mapping), r.distance);
        }
    }

    #[test]
    fn bipartite_upper_bound_dominates_exact() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut t = SymbolTable::new();
        let labels = ["A", "B", "C", "?x"].map(|l| t.intern(l));
        let elabels = ["p", "q"].map(|l| t.intern(l));
        let mut rng = SmallRng::seed_from_u64(19);
        for _ in 0..100 {
            let mk = |rng: &mut SmallRng| {
                let n = rng.gen_range(1..5);
                let mut g = Graph::new();
                for _ in 0..n {
                    g.add_vertex(labels[rng.gen_range(0..4usize)]);
                }
                for s in 0..n {
                    for d in 0..n {
                        if s != d && rng.gen_bool(0.3) {
                            g.add_edge(
                                VertexId(s as u32),
                                VertexId(d as u32),
                                elabels[rng.gen_range(0..2usize)],
                            );
                        }
                    }
                }
                g
            };
            let q = mk(&mut rng);
            let g = mk(&mut rng);
            let ub = ged_upper_bipartite(&t, &q, &g);
            let exact = ged(&t, &q, &g).distance;
            assert!(ub.distance >= exact, "ub {} < exact {}", ub.distance, exact);
            // And the reported mapping really has the reported cost.
            assert_eq!(mapping_cost(&t, &q, &g, &ub.mapping), ub.distance);
        }
    }

    #[test]
    fn bipartite_is_exact_on_identical_graphs() {
        let mut t = SymbolTable::new();
        let mk = |t: &mut SymbolTable| {
            let mut b = GraphBuilder::new(t);
            b.vertex("x", "?x");
            b.vertex("a", "Actor");
            b.vertex("c", "City");
            b.edge("x", "a", "type");
            b.edge("x", "c", "birthPlace");
            b.into_graph()
        };
        let q = mk(&mut t);
        let g = mk(&mut t);
        assert_eq!(ged_upper_bipartite(&t, &q, &g).distance, 0);
    }
}
