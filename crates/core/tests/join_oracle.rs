//! Differential oracle for mining: `generate_templates` (the join driver
//! on every available core, then keyed template dedup) must equal a
//! reference built from `sim_join` at one thread plus a linear-scan dedup:
//! the same matches with the same probabilities, mappings and world
//! probabilities, the same join counters and per-stage funnel, and the
//! same library in the same order with the same confidences.

use uqsj::pipeline::generate_templates;
use uqsj::prelude::*;
use uqsj::simjoin::JoinIndex;
use uqsj::template::{generate_template, TemplateSource};

/// Templates of `matches` in match order, deduplicated by a linear scan:
/// the first copy stays where it is and keeps the highest confidence.
fn linear_scan_library(dataset: &Dataset, matches: &[JoinMatch]) -> Vec<Template> {
    let mut library: Vec<Template> = Vec::new();
    for m in matches {
        let source = TemplateSource {
            analysis: &dataset.analyses[m.g_index],
            query: &dataset.d_queries[m.q_index],
            query_terms: &dataset.d_terms[m.q_index],
            mapping: &m.mapping,
            confidence: m.prob,
        };
        let Some(t) = generate_template(&source) else { continue };
        match library.iter_mut().find(|x| x.dedup_key() == t.dedup_key()) {
            Some(existing) => existing.confidence = existing.confidence.max(t.confidence),
            None => library.push(t),
        }
    }
    library
}

/// Every counter of two runs of the same join agrees (times excepted).
fn assert_same_counters(a: &JoinStats, b: &JoinStats, what: &str) {
    assert_eq!(a.pairs_total, b.pairs_total, "{what}: pairs");
    assert_eq!(a.candidates, b.candidates, "{what}: candidates");
    assert_eq!(a.results, b.results, "{what}: results");
    assert_eq!(a.worlds_verified, b.worlds_verified, "{what}: worlds verified");
    assert_eq!(a.worlds_sampled, b.worlds_sampled, "{what}: worlds sampled");
    assert_eq!(a.verified_exact, b.verified_exact, "{what}: exact verifications");
    assert_eq!(a.verified_sampled, b.verified_sampled, "{what}: sampled verifications");
    assert_eq!(a.ged_expanded, b.ged_expanded, "{what}: A* expansions");
    assert_eq!(a.pruned_stages(), b.pruned_stages(), "{what}: per-stage funnel");
    assert_eq!(a.stop_reasons().len(), b.stop_reasons().len(), "{what}: stop reasons");
    for &(label, n) in a.stop_reasons() {
        assert_eq!(b.stopped_by(label), n, "{what}: stops for {label}");
    }
}

#[test]
fn generate_templates_equals_the_sequential_join_and_linear_dedup() {
    let dataset =
        webq_like(&DatasetConfig { questions: 160, distractors: 240, max_relations: 3, seed: 42 });
    let params = JoinParams::simj(1, 0.7);
    let mined = generate_templates(&dataset, params);
    let (matches, stats) = sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params);
    assert!(matches.len() > 100, "only {} matches", matches.len());

    assert_eq!(mined.matches, matches, "matches differ from the sequential join");
    assert_same_counters(&mined.stats, &stats, "generate_templates");
    assert_eq!(stats.pairs_total, stats.pruned_total() + stats.candidates);

    // The same driver on 3 threads, whatever the core count here.
    let (threaded, threaded_stats) =
        JoinIndex::build(&dataset.d_graphs).join(&dataset.table, &dataset.u_graphs, params, 3);
    assert_eq!(threaded, matches, "3-thread matches differ from the sequential join");
    assert_same_counters(&threaded_stats, &stats, "3 threads");

    let reference = linear_scan_library(&dataset, &matches);
    let library = mined.library.templates();
    assert!(reference.len() > 10, "only {} templates", reference.len());
    assert!(reference.len() < matches.len(), "the workload has no duplicate template");
    assert_eq!(library.len(), reference.len(), "library size");
    for (i, (got, want)) in library.iter().zip(&reference).enumerate() {
        assert_eq!(got.dedup_key(), want.dedup_key(), "template {i}");
        assert_eq!(got.confidence, want.confidence, "template {i} confidence");
    }
    assert_eq!(mined.library.signatures().len(), library.len());
}
