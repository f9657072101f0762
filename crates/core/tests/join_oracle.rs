//! Differential oracle for mining: `generate_templates` (the join driver
//! on every available core, then keyed template dedup) must equal a
//! reference built from `sim_join` at one thread plus a linear-scan dedup:
//! the same matches with the same probabilities, mappings and world
//! probabilities, the same join counters and per-stage funnel, and the
//! same library in the same order with the same confidences, although
//! `generate_templates` generates one template per (query class,
//! question) wherever the class's members agree.

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
    for seed in [42, 7] {
        let dataset =
            webq_like(&DatasetConfig { questions: 160, distractors: 240, max_relations: 3, seed });
        let params = JoinParams::simj(1, 0.7);
        let mined = generate_templates(&dataset, params);
        let (matches, stats) =
            sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params);
        assert!(matches.len() > 100, "seed {seed}: only {} matches", matches.len());

        assert_eq!(mined.matches, matches, "seed {seed}: matches differ from the sequential join");
        assert_same_counters(&mined.stats, &stats, "generate_templates");
        assert_eq!(stats.pairs_total, stats.pruned_total() + stats.candidates);

        // The same driver on 3 threads, whatever the core count here.
        let (threaded, threaded_stats) =
            JoinIndex::build(&dataset.d_graphs).join(&dataset.table, &dataset.u_graphs, params, 3);
        assert_eq!(threaded, matches, "seed {seed}: 3-thread matches differ");
        assert_same_counters(&threaded_stats, &stats, "3 threads");

        // The library, built from one template per (query class, question)
        // where the members agree, equals per-match generation: the same
        // templates in the same order, with the same confidences and trees.
        let reference = linear_scan_library(&dataset, &matches);
        let library = mined.library.templates();
        assert!(reference.len() > 10, "seed {seed}: only {} templates", reference.len());
        assert!(reference.len() < matches.len(), "seed {seed}: no duplicate template");
        assert_eq!(library.len(), reference.len(), "seed {seed}: library size");
        for (i, (got, want)) in library.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "seed {seed}: template {i}");
        }
        assert_eq!(mined.library.signatures().len(), library.len());
        let fold = mined.fold;
        assert_eq!(fold.generated + fold.reused, matches.len(), "seed {seed}: fold counts");
        assert!(fold.reused > 0, "seed {seed}: no match reused its class's template");
        println!(
            "seed {seed}: {} matches, {} generate_template calls, {} reused, {} templates",
            matches.len(),
            fold.generated,
            fold.reused,
            library.len()
        );
    }
}

/// The funnel counters of two runs over the same logical pairs agree:
/// these count pairs, however `D` folds into classes.
fn assert_same_funnel(a: &JoinStats, b: &JoinStats, what: &str) {
    assert_eq!(a.pairs_total, b.pairs_total, "{what}: pairs");
    assert_eq!(a.pruned_stages(), b.pruned_stages(), "{what}: per-stage funnel");
    assert_eq!(a.candidates, b.candidates, "{what}: candidates");
    assert_eq!(a.results, b.results, "{what}: results");
}

#[test]
fn folding_identical_queries_equals_one_join_per_query() {
    let dataset =
        webq_like(&DatasetConfig { questions: 160, distractors: 240, max_relations: 3, seed: 42 });
    let (table, d, u) = (&dataset.table, &dataset.d_graphs, &dataset.u_graphs);
    let params = JoinParams::simj(1, 0.7);
    let index = JoinIndex::build(d);
    assert!(index.class_count() < d.len(), "D holds no duplicate query");

    // Reference: the driver over each singleton `D = [d[q]]`, where no
    // class can form, its matches renumbered to `q`.
    let mut reference = Vec::new();
    let mut reference_stats = JoinStats::default();
    for (qi, q) in d.iter().enumerate() {
        let (matches, stats) = sim_join(table, std::slice::from_ref(q), u, params);
        reference.extend(matches.into_iter().map(|m| JoinMatch { q_index: qi, ..m }));
        reference_stats.merge(&stats);
    }
    reference.sort_by_key(|m| (m.g_index, m.q_index));
    assert!(reference.len() > 100, "only {} matches", reference.len());
    assert_eq!(reference_stats.verifications, reference_stats.candidates);

    for threads in [1, 3] {
        let (matches, stats) = index.join(table, u, params, threads);
        let what = format!("{threads} thread(s)");
        assert_eq!(matches, reference, "{what}: matches differ from the singleton joins");
        assert_same_funnel(&stats, &reference_stats, &what);
        // Some surviving pairs took their class's verdict.
        assert!(stats.verifications < stats.candidates, "{what}: nothing was copied out");
        assert_eq!(stats.verified_exact, stats.verifications, "{what}: tier split");
    }

    let mut stitched = Vec::new();
    let mut stitched_stats = JoinStats::default();
    for (gi, g) in u.iter().enumerate() {
        let (matches, stats) = index.join_one(table, gi, g, params);
        stitched.extend(matches);
        stitched_stats.merge(&stats);
    }
    assert_eq!(stitched, reference, "join_one matches differ from the singleton joins");
    assert_same_funnel(&stitched_stats, &reference_stats, "join_one");
}

#[test]
fn topk_over_duplicated_queries_ranks_like_per_pair_verification() {
    let dataset =
        webq_like(&DatasetConfig { questions: 40, distractors: 40, max_relations: 3, seed: 7 });
    let table = &dataset.table;
    // Every graph of a prefix of D appended again, so equal probabilities
    // tie across copies and the D-order tie break decides.
    let mut d = dataset.d_graphs[..40].to_vec();
    d.extend_from_slice(&dataset.d_graphs[..20]);
    let u = &dataset.u_graphs[..20];
    let (tau, k) = (1, 4);
    let (ranked, stats) = uqsj::simjoin::sim_join_topk(table, &d, u, tau, k);
    assert!(stats.verifications < stats.verified, "no verdict was shared");
    let mut ties = 0;
    for (gi, g) in u.iter().enumerate() {
        let mut want: Vec<(usize, f64)> = d
            .iter()
            .enumerate()
            .map(|(qi, q)| (qi, verify_simp(table, q, g, tau, f64::INFINITY).prob))
            .filter(|&(_, p)| p > 0.0)
            .collect();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        want.truncate(k);
        ties += want.windows(2).filter(|w| w[0].1 == w[1].1).count();
        let got: Vec<(usize, f64)> = ranked[gi].iter().map(|m| (m.q_index, m.prob)).collect();
        assert_eq!(got, want, "question {gi}");
        assert!(ranked[gi].iter().all(|m| m.mapping.is_some()), "question {gi}: no mapping");
    }
    assert!(ties > 0, "no tie in any top-{k}");
}
