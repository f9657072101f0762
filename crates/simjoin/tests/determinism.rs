//! Determinism and index-boundary guarantees the serving layer relies on:
//! the parallel join must be byte-for-byte interchangeable with the
//! sequential one, and the size-signature window must cut exactly at τ.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uqsj_graph::{Graph, GraphBuilder, SymbolTable, UncertainGraph};
use uqsj_simjoin::{sim_join, JoinIndex, JoinParams};

const LABELS: [&str; 4] = ["Actor", "Band", "Film", "Country"];
const PREDICATES: [&str; 3] = ["type", "starring", "memberOf"];

fn random_graph(t: &mut SymbolTable, rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(1..=4usize);
    let mut b = GraphBuilder::new(t);
    b.vertex("v0", "?x");
    for i in 1..n {
        b.vertex(&format!("v{i}"), LABELS[rng.gen_range(0..LABELS.len())]);
    }
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.edge(&format!("v{parent}"), &format!("v{i}"), PREDICATES[rng.gen_range(0..3usize)]);
    }
    b.into_graph()
}

fn random_uncertain(t: &mut SymbolTable, rng: &mut SmallRng) -> UncertainGraph {
    let n = rng.gen_range(1..=4usize);
    let mut b = GraphBuilder::new(t);
    b.vertex("v0", "?x");
    for i in 1..n {
        if rng.gen_bool(0.5) {
            let a = LABELS[rng.gen_range(0..LABELS.len())];
            let mut c = LABELS[rng.gen_range(0..LABELS.len())];
            if c == a {
                c = LABELS[(LABELS.iter().position(|&l| l == a).unwrap() + 1) % LABELS.len()];
            }
            let p = rng.gen_range(0.3..0.7);
            b.uncertain_vertex(&format!("v{i}"), &[(a, p), (c, 1.0 - p)]);
        } else {
            b.vertex(&format!("v{i}"), LABELS[rng.gen_range(0..LABELS.len())]);
        }
    }
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.edge(&format!("v{parent}"), &format!("v{i}"), PREDICATES[rng.gen_range(0..3usize)]);
    }
    b.into_uncertain()
}

/// The join driver on 4 threads must return *exactly* the same
/// `Vec<JoinMatch>` (order, probabilities, mappings) as the sequential
/// join, on a randomly generated workload.
#[test]
fn parallel_join_is_deterministic_and_equals_sequential() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_u64);
    let mut t = SymbolTable::new();
    let d: Vec<Graph> = (0..12).map(|_| random_graph(&mut t, &mut rng)).collect();
    let u: Vec<UncertainGraph> = (0..9).map(|_| random_uncertain(&mut t, &mut rng)).collect();
    for tau in [0u32, 1, 2] {
        let params = JoinParams::simj(tau, 0.3);
        let index = JoinIndex::build(&d);
        let (seq, seq_stats) = sim_join(&t, &d, &u, params);
        let (par, par_stats) = index.join(&t, &u, params, 4);
        assert_eq!(seq, par, "tau={tau}: full match payloads must agree");
        // And a second run is bit-identical to the first.
        let (par2, _) = index.join(&t, &u, params, 4);
        assert_eq!(par, par2, "tau={tau}: parallel join must be deterministic");
        assert_eq!(seq_stats.pairs_total, par_stats.pairs_total);
        assert_eq!(seq_stats.results, par_stats.results);
    }
}

fn sized_graph(t: &mut SymbolTable, v: usize, e: usize) -> Graph {
    assert!(e < v || v == 0);
    let mut b = GraphBuilder::new(t);
    for i in 0..v {
        b.vertex(&format!("v{i}"), "A");
    }
    for i in 0..e {
        b.edge(&format!("v{i}"), &format!("v{}", i + 1), "p");
    }
    b.into_graph()
}

/// Satellite: window boundaries of `JoinIndex::candidates`. A query at
/// distance exactly τ is kept, τ+1 is pruned.
#[test]
fn index_keeps_distance_tau_and_prunes_tau_plus_one() {
    let mut t = SymbolTable::new();
    // d[0]: 3 vertices / 2 edges. Probe from (v=5, e=3): |Δv|+|Δe| = 3.
    let d = vec![sized_graph(&mut t, 3, 2)];
    let index = JoinIndex::build(&d);
    let at_tau: Vec<usize> = index.candidates(5, 3, 3).collect();
    assert_eq!(at_tau, vec![0], "distance == tau must be kept");
    let below: Vec<usize> = index.candidates(5, 3, 2).collect();
    assert!(below.is_empty(), "distance == tau + 1 must be pruned");
}

#[test]
fn index_tau_zero_keeps_only_exact_sizes() {
    let mut t = SymbolTable::new();
    let d = vec![
        sized_graph(&mut t, 2, 1),
        sized_graph(&mut t, 3, 2),
        sized_graph(&mut t, 3, 1),
        sized_graph(&mut t, 4, 3),
    ];
    let index = JoinIndex::build(&d);
    let mut got: Vec<usize> = index.candidates(3, 2, 0).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1], "tau = 0 admits only exact (v, e)");
    // Same vertex count, different edge count: out at tau = 0, in at 1
    // (d[0] at (2,1) is also distance 1 away; d[3] at (4,3) stays out).
    let mut got: Vec<usize> = index.candidates(3, 1, 1).collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2]);
}

#[test]
fn index_over_empty_d_yields_nothing() {
    let d: Vec<Graph> = Vec::new();
    let index = JoinIndex::build(&d);
    assert_eq!(index.candidates(3, 2, 10).count(), 0);
    assert!(index.queries().is_empty());
}
