//! Oracle for the world-incremental verifier: `verify_simp` (and the
//! grouped variant) must match a naive reference that materializes every
//! possible world as a fresh [`Graph`] and runs the retained reference
//! A\* — same probability (to 1e-12; the accumulation order is identical,
//! so in practice bit-for-bit), same pass/fail decision, same witnessing
//! mapping, and the same `worlds_verified` counter.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use uqsj_ged::bounds::css::lb_ged_css_certain;
use uqsj_ged::reference::ged_bounded_reference;
use uqsj_graph::{Graph, GraphBuilder, SymbolTable, UncertainGraph};
use uqsj_uncertain::{
    partition_groups, similarity_probability, verify_simp, verify_simp_groups, SplitHeuristic,
    VerifyOutcome,
};

/// Replicates `verify_simp`'s decision procedure — total-mass accounting,
/// per-world CSS filter, A\* at limit τ, high-probability-first ordering,
/// both early exits — but materializes each world and searches it with
/// the naive reference A\* instead of patching a shared profile.
fn verify_simp_naive(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
) -> VerifyOutcome {
    let total_mass: f64 = g.vertices().iter().map(|v| v.mass()).product();
    let mut acc = 0.0f64;
    let mut remaining = total_mass;
    let mut best_mapping = None;
    let mut best_world_prob = 0.0f64;
    let mut worlds_verified = 0usize;
    let early = alpha.is_finite();

    let mut worlds: Vec<_> = g.possible_worlds().collect();
    // Mirror the production ordering: high-probability worlds first when
    // early termination is on (stable sort over the lexicographic
    // enumeration, so ties keep the same relative order).
    if early && g.vertex_count() > 0 && g.world_count() != 1 && g.world_count() <= 4096 {
        worlds.sort_by(|a, b| b.prob.partial_cmp(&a.prob).expect("finite probability"));
    }
    for w in &worlds {
        remaining -= w.prob;
        if lb_ged_css_certain(table, q, &w.graph) <= tau {
            worlds_verified += 1;
            if let Some(r) = ged_bounded_reference(table, q, &w.graph, tau) {
                acc += w.prob;
                if w.prob > best_world_prob {
                    best_world_prob = w.prob;
                    best_mapping = Some(r);
                }
            }
        }
        if early && (acc >= alpha || acc + remaining < alpha) {
            break;
        }
    }
    VerifyOutcome {
        prob: acc,
        passed: acc >= alpha,
        best_mapping,
        best_world_prob,
        worlds_verified,
    }
}

fn random_query(rng: &mut SmallRng, t: &mut SymbolTable, vpool: &[&str], epool: &[&str]) -> Graph {
    let n = rng.gen_range(1..5usize);
    let mut b = GraphBuilder::new(t);
    for i in 0..n {
        b.vertex(&format!("v{i}"), vpool[rng.gen_range(0..vpool.len())]);
    }
    for s in 0..n {
        for d in 0..n {
            if s != d && rng.gen_bool(0.3) {
                b.edge(&format!("v{s}"), &format!("v{d}"), epool[rng.gen_range(0..epool.len())]);
            }
        }
    }
    b.into_graph()
}

/// An uncertain graph with 2–3 ambiguous vertices (2–3 alternatives each,
/// sometimes with mass < 1) plus certain vertices, per the paper's Def. 2.
fn random_uncertain(
    rng: &mut SmallRng,
    t: &mut SymbolTable,
    vpool: &[&str],
    epool: &[&str],
) -> UncertainGraph {
    let n = rng.gen_range(2..5usize);
    let ambiguous = rng.gen_range(2..=3usize).min(n);
    let mut b = GraphBuilder::new(t);
    for i in 0..n {
        if i < ambiguous {
            let k = rng.gen_range(2..=3usize);
            let mut alts: Vec<(&str, f64)> = Vec::with_capacity(k);
            let mut mass_left = if rng.gen_bool(0.3) { 0.9 } else { 1.0 };
            for j in 0..k {
                let p = if j + 1 == k { mass_left } else { mass_left * 0.6 };
                alts.push((vpool[(i + j) % vpool.len()], p));
                mass_left -= p;
            }
            b.uncertain_vertex(&format!("v{i}"), &alts);
        } else {
            b.vertex(&format!("v{i}"), vpool[rng.gen_range(0..vpool.len())]);
        }
    }
    for s in 0..n {
        for d in 0..n {
            if s != d && rng.gen_bool(0.3) {
                b.edge(&format!("v{s}"), &format!("v{d}"), epool[rng.gen_range(0..epool.len())]);
            }
        }
    }
    b.into_uncertain()
}

fn assert_same(got: &VerifyOutcome, want: &VerifyOutcome, ctx: &str) {
    assert!(
        (got.prob - want.prob).abs() <= 1e-12,
        "{ctx}: prob {} vs naive {}",
        got.prob,
        want.prob
    );
    assert_eq!(got.prob.to_bits(), want.prob.to_bits(), "{ctx}: prob bits");
    assert_eq!(got.passed, want.passed, "{ctx}: passed");
    assert_eq!(got.worlds_verified, want.worlds_verified, "{ctx}: worlds_verified");
    assert_eq!(
        got.best_world_prob.to_bits(),
        want.best_world_prob.to_bits(),
        "{ctx}: best_world_prob"
    );
    assert_eq!(got.best_mapping, want.best_mapping, "{ctx}: best mapping");
}

#[test]
fn verify_simp_matches_naive_world_materialization() {
    let vpool = ["Actor", "Band", "City", "?x", "?y"];
    let epool = ["type", "birthPlace", "?p"];
    let mut t = SymbolTable::new();
    let mut rng = SmallRng::seed_from_u64(0xacc);
    let mut cases = Vec::new();
    for _ in 0..40 {
        let q = random_query(&mut rng, &mut t, &vpool, &epool);
        let g = random_uncertain(&mut rng, &mut t, &vpool, &epool);
        cases.push((q, g));
    }
    for (i, (q, g)) in cases.iter().enumerate() {
        for tau in 0..=3u32 {
            for alpha in [0.25, 0.7, f64::INFINITY] {
                let got = verify_simp(&t, q, g, tau, alpha);
                let want = verify_simp_naive(&t, q, g, tau, alpha);
                assert_same(&got, &want, &format!("case {i} tau {tau} alpha {alpha}"));
            }
            let exact = similarity_probability(&t, q, g, tau);
            let naive = verify_simp_naive(&t, q, g, tau, f64::INFINITY).prob;
            assert_eq!(exact.to_bits(), naive.to_bits(), "case {i} tau {tau}: SimP");
        }
    }
}

#[test]
fn grouped_verification_matches_naive_probability() {
    // The grouped verifier enumerates worlds in a different order, so the
    // mapping/counter fields legitimately differ; the probability and the
    // decision must still agree with the naive full enumeration.
    let vpool = ["Actor", "Band", "City", "?x"];
    let epool = ["type", "birthPlace"];
    let mut t = SymbolTable::new();
    let mut rng = SmallRng::seed_from_u64(0x96f);
    let mut cases = Vec::new();
    for _ in 0..12 {
        let q = random_query(&mut rng, &mut t, &vpool, &epool);
        let g = random_uncertain(&mut rng, &mut t, &vpool, &epool);
        cases.push((q, g));
    }
    for (i, (q, g)) in cases.iter().enumerate() {
        for tau in 0..=2u32 {
            let want = verify_simp_naive(&t, q, g, tau, f64::INFINITY);
            for heuristic in [SplitHeuristic::HighestMass, SplitHeuristic::MostLabels] {
                let groups = partition_groups(&t, q, g, tau, 3, heuristic);
                let got = verify_simp_groups(&t, q, g, tau, f64::INFINITY, &groups);
                assert!(
                    (got.prob - want.prob).abs() <= 1e-12,
                    "case {i} tau {tau}: grouped {} vs naive {}",
                    got.prob,
                    want.prob
                );
                assert_eq!(got.passed, want.passed, "case {i} tau {tau}");
            }
        }
    }
}

#[test]
fn single_and_zero_world_graphs_match_naive() {
    let mut t = SymbolTable::new();
    let mut b = GraphBuilder::new(&mut t);
    b.vertex("x", "?x");
    b.vertex("a", "Actor");
    b.edge("x", "a", "type");
    let q = b.into_graph();

    // Certain (single-world) uncertain graph: exercises the fast path.
    let mut b = GraphBuilder::new(&mut t);
    b.vertex("x", "?y");
    b.vertex("a", "Band");
    b.edge("x", "a", "type");
    let certain = b.into_uncertain();
    for tau in 0..=2u32 {
        for alpha in [0.5, f64::INFINITY] {
            let got = verify_simp(&t, &q, &certain, tau, alpha);
            let want = verify_simp_naive(&t, &q, &certain, tau, alpha);
            assert_same(&got, &want, &format!("certain tau {tau} alpha {alpha}"));
        }
    }

    // Zero-vertex graph: zero possible worlds under Def. 3.
    let empty = UncertainGraph::new();
    let got = verify_simp(&t, &q, &empty, 5, 0.5);
    let want = verify_simp_naive(&t, &q, &empty, 5, 0.5);
    assert_same(&got, &want, "empty");
}
