//! Verification fast-path ablation: τ-bounded A\* alone (the path
//! `verify_simp` takes) versus the bipartite-upper-bound fast accept
//! followed by A\* fallback, which verification no longer runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use uqsj::ged::{ged_bounded, ged_upper_bipartite};
use uqsj::graph::SymbolTable;
use uqsj::workload::{erdos_renyi, RandomGraphConfig};

fn bench_verify(c: &mut Criterion) {
    let mut table = SymbolTable::new();
    let mut rng = SmallRng::seed_from_u64(41);
    let cfg = RandomGraphConfig {
        count: 12,
        vertices: 10,
        edges: 18,
        perturbation: 1,
        ..Default::default()
    };
    let (d, u) = erdos_renyi(&mut table, &cfg, &mut rng);
    // Materialize one world per uncertain graph as the "verification"
    // workload: diagonal pairs are similar, off-diagonal dissimilar.
    let worlds: Vec<_> = u.iter().map(|g| g.possible_worlds().next().unwrap().graph).collect();
    let tau = 3u32;

    let mut group = c.benchmark_group("verification");
    group.sample_size(10);
    group.bench_function("bounded_astar_only", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for q in &d {
                for w in &worlds {
                    hits +=
                        u32::from(ged_bounded(&table, black_box(q), black_box(w), tau).is_some());
                }
            }
            hits
        })
    });
    group.bench_function("upper_bound_fast_accept", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for q in &d {
                for w in &worlds {
                    let accepted = ged_upper_bipartite(&table, q, w).distance <= tau
                        || ged_bounded(&table, q, w, tau).is_some();
                    hits += u32::from(accepted);
                }
            }
            hits
        })
    });
    group.finish();
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
