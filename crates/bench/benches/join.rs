//! Join-strategy microbenchmarks: CSS-only vs SimJ vs SimJ+opt on a small
//! ER workload (the per-strategy cost behind Figs. 11–13), plus a
//! deep-verification group where every vertex is uncertain and τ sits at
//! the typical edit distance, so verification dominates.
//!
//! Besides the criterion runs, the binary writes `BENCH_join.json` at the
//! repo root: pairs/sec and worlds-verified/sec through the incremental
//! [`GedEngine`], p50/p99 per-pair verification time, and the speedup over
//! the retained naive reference (materialize every possible world, search
//! it from scratch) on the identical deep workload.

use criterion::{criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use uqsj::ged::reference::ged_bounded_reference;
use uqsj::ged::GedEngine;
use uqsj::graph::{SymbolTable, UncertainGraph};
use uqsj::prelude::*;
use uqsj::sample::{sample_simp_with, SampleParams};
use uqsj::uncertain::verify_simp_with;
use uqsj::workload::{erdos_renyi, RandomGraphConfig};

fn bench_join(c: &mut Criterion) {
    let mut table = SymbolTable::new();
    let mut rng = SmallRng::seed_from_u64(21);
    let cfg = RandomGraphConfig {
        count: 24,
        vertices: 10,
        edges: 18,
        avg_labels: 3.0,
        ..Default::default()
    };
    let (d, u) = erdos_renyi(&mut table, &cfg, &mut rng);

    let mut group = c.benchmark_group("sim_join_24x24");
    group.sample_size(10);
    for (name, strategy) in [
        ("css_only", JoinStrategy::CssOnly),
        ("simj", JoinStrategy::SimJ),
        ("simj_opt", JoinStrategy::SimJOpt { group_count: 8 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| sim_join(&table, &d, &u, JoinParams { strategy, ..JoinParams::simj(2, 0.5) }))
        });
    }
    group.bench_function("simj_parallel_4", |b| {
        b.iter(|| uqsj::simjoin::JoinIndex::build(&d).join(&table, &u, JoinParams::simj(2, 0.5), 4))
    });
    group.bench_function("topk_1", |b| {
        b.iter(|| uqsj::simjoin::sim_join_topk(&table, &d, &u, 2, 1))
    });
    group.finish();

    // Deep-verification regime: every vertex uncertain (many worlds per
    // graph) and τ at the typical perturbation distance, so candidate
    // pairs survive the filters and A\* runs on most worlds.
    let (dd, du) = deep_workload(&mut table);
    let mut group = c.benchmark_group("deep_verify_10x10");
    group.sample_size(10);
    group.bench_function("simj", |b| {
        b.iter(|| sim_join(&table, &dd, &du, JoinParams::simj(3, 0.5)))
    });
    group.finish();
}

fn deep_workload(table: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
    let mut rng = SmallRng::seed_from_u64(33);
    let cfg = RandomGraphConfig {
        count: 10,
        vertices: 8,
        edges: 12,
        label_pool: 6,
        avg_labels: 2.0,
        uncertain_fraction: 1.0,
        perturbation: 3,
        ..Default::default()
    };
    erdos_renyi(table, &cfg, &mut rng)
}

/// The pre-engine verification path: materialize each possible world as a
/// fresh `Graph`, CSS-filter it, and search it with the retained naive
/// reference A\* at limit τ — the same decision procedure `verify_simp`
/// runs, minus every amortization of the engine and the verifier.
fn verify_naive(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
) -> (f64, usize) {
    let total_mass: f64 = g.vertices().iter().map(|v| v.mass()).product();
    let mut acc = 0.0f64;
    let mut remaining = total_mass;
    let mut verified = 0usize;
    let mut worlds: Vec<_> = g.possible_worlds().collect();
    if g.vertex_count() > 0 && g.world_count() != 1 && g.world_count() <= 4096 {
        worlds.sort_by(|a, b| b.prob.partial_cmp(&a.prob).expect("finite probability"));
    }
    for w in &worlds {
        remaining -= w.prob;
        if lb_ged_css_certain(table, q, &w.graph) <= tau {
            verified += 1;
            if ged_bounded_reference(table, q, &w.graph, tau).is_some() {
                acc += w.prob;
            }
        }
        if acc >= alpha || acc + remaining < alpha {
            break;
        }
    }
    (acc, verified)
}

/// A chain pair with `k` uncertain vertices of two alternatives each
/// (2^k possible worlds): the certain chain plus a per-vertex 0.7/0.3
/// label split, so a world's GED to `q` is its mismatch count.
fn chain_pair(t: &mut SymbolTable, k: usize) -> (Graph, UncertainGraph) {
    let mut bq = GraphBuilder::new(t);
    for i in 0..k {
        bq.vertex(&format!("v{i}"), &format!("L{}", i % 4));
    }
    for i in 1..k {
        bq.edge(&format!("v{}", i - 1), &format!("v{i}"), "e");
    }
    let q = bq.into_graph();
    let mut bg = GraphBuilder::new(t);
    for i in 0..k {
        let keep = format!("L{}", i % 4);
        let alt = format!("X{}", i % 3);
        bg.uncertain_vertex(&format!("v{i}"), &[(keep.as_str(), 0.7), (alt.as_str(), 0.3)]);
    }
    for i in 1..k {
        bg.edge(&format!("v{}", i - 1), &format!("v{i}"), "e");
    }
    (q, bg.into_uncertain())
}

/// Exact-vs-sample crossover on chain pairs of growing world count: the
/// same decision through full enumeration and through the Monte-Carlo
/// tier, timed on one engine. Returns the `sample_crossover` JSON array
/// embedded in `BENCH_join.json`. τ tracks k so the exact probability
/// (a binomial tail) stays far from α and the two tiers must agree.
fn sample_crossover_json() -> String {
    let mut table = SymbolTable::new();
    let mut engine = GedEngine::new();
    let (eps, alpha) = (0.05f64, 0.5f64);
    let params = SampleParams { epsilon: eps, delta: 0.02, ..SampleParams::default() };
    let mut rows = Vec::new();
    for k in [4usize, 8, 12, 14] {
        let (q, g) = chain_pair(&mut table, k);
        let tau = (3 * k / 10 + 1) as u32;

        let s = Instant::now();
        let exact = verify_simp_with(&mut engine, &table, &q, &g, tau, f64::INFINITY);
        let exact_us = s.elapsed().as_secs_f64() * 1e6;

        let s = Instant::now();
        let sampled =
            sample_simp_with(&mut engine, &table, &q, &g, tau, alpha, None, &params, 17 + k as u64);
        let sample_us = s.elapsed().as_secs_f64() * 1e6;

        let agree = sampled.passed == (exact.prob >= alpha);
        assert!(
            agree || (exact.prob - alpha).abs() <= eps,
            "k={k}: sampled verdict {} disagrees with exact SimP {} outside the ε band",
            sampled.passed,
            exact.prob
        );
        rows.push(format!(
            "{{\"uncertain_vertices\": {k}, \"world_count\": {wc}, \"tau\": {tau}, \
             \"exact_prob\": {p:.4}, \"exact_us\": {exact_us:.1}, \"sample_us\": {sample_us:.1}, \
             \"sample_draws\": {draws}, \"agree\": {agree}}}",
            wc = g.world_count(),
            p = exact.prob,
            draws = sampled.worlds_sampled,
        ));
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Reference-vs-lftj showdown on the cyclic/star/path families over one
/// hub-skewed synthetic KB: alternate the two evaluators (min-of-4 each
/// absorbs scheduler noise), prove the solution sets identical, and
/// require the leapfrog join to beat the nested-loop reference ≥ 2x on
/// the triangle family and be no slower anywhere. Returns the `bgp`
/// JSON array embedded in `BENCH_join.json`.
fn bgp_showdown_json() -> String {
    use uqsj::rdf::{bgp, lftj, BgpEval};
    use uqsj::sparql::{SparqlQuery, Term, Triple};
    use uqsj::testkit::bgp::{build_store, gen_kb, BgpGenConfig};

    // Large enough that the reference's materialized 2-paths dominate on
    // cyclic shapes; the dense hub predicate comes from the generator.
    let cfg = BgpGenConfig { entities: 120, predicates: 6, triples: 6000 };
    let kb = gen_kb(&cfg, 4099);
    let store = build_store(&kb);

    let var = |v: &str| Term::Var(v.to_string());
    let iri = |x: &str| Term::Iri(x.to_string());
    let t = |s: Term, p: Term, o: Term| Triple { subject: s, predicate: p, object: o };
    let q = |triples: Vec<Triple>| SparqlQuery { select: vec![], triples };
    let families: [(&str, SparqlQuery); 3] = [
        (
            "triangle",
            q(vec![
                t(var("a"), iri("q0"), var("b")),
                t(var("b"), iri("q0"), var("c")),
                t(var("c"), iri("q0"), var("a")),
            ]),
        ),
        (
            "star",
            q(vec![
                t(var("x"), iri("q0"), var("o0")),
                t(var("x"), iri("q1"), var("o1")),
                t(var("x"), iri("q2"), var("o2")),
            ]),
        ),
        (
            "path",
            q(vec![
                t(var("a"), iri("q0"), var("b")),
                t(var("b"), iri("q1"), var("c")),
                t(var("c"), iri("q2"), var("d")),
            ]),
        ),
    ];

    let canon = |rows: Vec<uqsj::rdf::Bindings>| {
        let mut out: Vec<Vec<(String, u32)>> = rows
            .into_iter()
            .map(|b| {
                let mut row: Vec<(String, u32)> = b.into_iter().map(|(k, v)| (k, v.0)).collect();
                row.sort();
                row
            })
            .collect();
        out.sort();
        out.dedup();
        out
    };

    let mut entries = Vec::new();
    for (family, query) in &families {
        let mut best = [Duration::MAX; 2]; // 0 = reference, 1 = lftj
        let mut rows = [usize::MAX; 2];
        for round in 0..8 {
            let mode = round % 2;
            let eval = if mode == 0 { BgpEval::Reference } else { BgpEval::Lftj };
            let s = Instant::now();
            let sols = bgp::solutions_with(&store, query, eval);
            let elapsed = s.elapsed();
            best[mode] = best[mode].min(elapsed);
            let n = canon(sols).len();
            assert!(rows[mode] == usize::MAX || rows[mode] == n, "{family}: nondeterministic");
            rows[mode] = n;
        }
        assert_eq!(rows[0], rows[1], "{family}: evaluators disagree on the result set");
        let (_, stats) = lftj::solutions_stats(&store, query);
        let speedup = best[0].as_secs_f64() / best[1].as_secs_f64().max(1e-9);
        // The smoke bars CI relies on: worst-case-optimality must show on
        // the cyclic family, and never cost elsewhere (10% noise headroom).
        if *family == "triangle" {
            assert!(
                speedup >= 2.0,
                "triangle family: lftj only {speedup:.2}x over the reference \
                 ({:?} vs {:?})",
                best[1],
                best[0]
            );
        }
        assert!(
            best[1].as_secs_f64() <= best[0].as_secs_f64() * 1.10,
            "{family}: lftj slower than the nested-loop reference ({:?} vs {:?})",
            best[1],
            best[0]
        );
        eprintln!(
            "bgp showdown {family}: reference {:?}, lftj {:?} ({speedup:.2}x, {} rows)",
            best[0], best[1], rows[0]
        );
        entries.push(format!(
            "{{\"family\": \"{family}\", \"rows\": {rows}, \"reference_ms\": {rf:.3}, \
             \"lftj_ms\": {lf:.3}, \"speedup_lftj_vs_reference\": {speedup:.2}, \
             \"lftj_seeks\": {seeks}, \"estimated_rows\": {est:.1}}}",
            rows = rows[0],
            rf = best[0].as_secs_f64() * 1e3,
            lf = best[1].as_secs_f64() * 1e3,
            seeks = stats.seeks,
            est = stats.estimated_rows,
        ));
    }
    format!("[\n    {}\n  ]", entries.join(",\n    "))
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Measure the deep workload through the engine and through the naive
/// reference, then hand-format `BENCH_join.json` at the repo root.
fn emit_join_json() {
    let mut table = SymbolTable::new();
    let (d, u) = deep_workload(&mut table);
    let (tau, alpha) = (3u32, 0.5f64);

    let mut engine = GedEngine::new();
    let mut times: Vec<Duration> = Vec::new();
    let mut worlds = 0u64;
    let mut prob_sum = 0.0f64;
    let started = Instant::now();
    for g in &u {
        for q in &d {
            if lb_ged_css_uncertain(&table, q, g) <= tau {
                let s = Instant::now();
                let out = verify_simp_with(&mut engine, &table, q, g, tau, alpha);
                times.push(s.elapsed());
                worlds += out.worlds_verified as u64;
                prob_sum += out.prob;
            }
        }
    }
    let engine_total = started.elapsed();

    let mut naive_prob_sum = 0.0f64;
    let mut naive_worlds = 0u64;
    let started = Instant::now();
    for g in &u {
        for q in &d {
            if lb_ged_css_uncertain(&table, q, g) <= tau {
                let (p, w) = verify_naive(&table, q, g, tau, alpha);
                naive_prob_sum += p;
                naive_worlds += w as u64;
            }
        }
    }
    let naive_total = started.elapsed();
    assert_eq!(prob_sum.to_bits(), naive_prob_sum.to_bits(), "engine diverged from reference");
    assert_eq!(worlds, naive_worlds, "engine diverged from reference");

    times.sort();
    let secs = engine_total.as_secs_f64().max(1e-9);
    // Attach the process metric registry (GED engine + world-verification
    // counters accumulated by the run above) so a bench artifact carries
    // the same observability snapshot an operator would scrape.
    let crossover = sample_crossover_json();
    let bgp = bgp_showdown_json();
    let registry = uqsj::obs::global().snapshot_json();
    let json = format!(
        "{{\n  \"bench\": \"deep_verify_10x10\",\n  \"tau\": {tau},\n  \"alpha\": {alpha},\n  \
         \"verified_pairs\": {pairs},\n  \"pairs_per_sec\": {pps:.1},\n  \
         \"worlds_verified\": {worlds},\n  \"worlds_verified_per_sec\": {wps:.1},\n  \
         \"p50_pair_verify_us\": {p50:.1},\n  \"p99_pair_verify_us\": {p99:.1},\n  \
         \"engine_total_ms\": {et:.2},\n  \"naive_reference_total_ms\": {nt:.2},\n  \
         \"speedup_vs_reference\": {speedup:.2},\n  \
         \"bgp\": {bgp},\n  \
         \"sample_crossover\": {crossover},\n  \"registry\": {reg}\n}}\n",
        reg = registry.trim_end(),
        pairs = times.len(),
        pps = times.len() as f64 / secs,
        wps = worlds as f64 / secs,
        p50 = percentile(&times, 50).as_secs_f64() * 1e6,
        p99 = percentile(&times, 99).as_secs_f64() * 1e6,
        et = engine_total.as_secs_f64() * 1e3,
        nt = naive_total.as_secs_f64() * 1e3,
        speedup = naive_total.as_secs_f64() / engine_total.as_secs_f64().max(1e-9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    std::fs::write(path, &json).expect("write BENCH_join.json");
    eprintln!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_join);

fn main() {
    benches();
    emit_join_json();
}
