//! Serving-throughput microbenchmarks: the signature-indexed template
//! store vs the linear-scan baseline on the same mined library, with and
//! without the answer cache.

use criterion::{criterion_group, criterion_main, Criterion};
use uqsj::prelude::*;
use uqsj::serve::{ServeConfig, ShardedQaServer};
use uqsj::template::answer_question;
use uqsj::workload::qald_like;

fn bench_serve(c: &mut Criterion) {
    let dataset =
        qald_like(&DatasetConfig { questions: 60, distractors: 40, ..Default::default() });
    let result = generate_templates(&dataset, JoinParams::simj(1, 0.5));
    let library = result.library;
    let lexicon = dataset.kb.lexicon.clone();
    let triples = dataset.kb.triple_store();
    let questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();

    // One shard: the signature index spans the whole library, like the
    // linear scan it is compared against.
    let server = |cache_capacity| {
        let mut copy = TemplateLibrary::new();
        for t in library.templates() {
            copy.add(t.clone());
        }
        let config = ServeConfig { min_phi: 1.0, cache_capacity, bgp_eval: None };
        ShardedQaServer::new(copy, lexicon.clone(), dataset.kb.triple_store(), 1, config)
    };

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            for q in &questions {
                criterion::black_box(answer_question(&library, &lexicon, &triples, q, 1.0));
            }
        })
    });

    let uncached = server(0);
    group.bench_function("indexed_store", |b| {
        b.iter(|| {
            for q in &questions {
                criterion::black_box(uncached.answer(q));
            }
        })
    });

    let cached = server(1024);
    group.bench_function("indexed_store_cached", |b| {
        b.iter(|| {
            for q in &questions {
                criterion::black_box(cached.answer(q));
            }
        })
    });

    let batch = server(0);
    group.bench_function("answer_batch_4", |b| {
        b.iter(|| criterion::black_box(batch.answer_batch(&questions, 4)))
    });

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
