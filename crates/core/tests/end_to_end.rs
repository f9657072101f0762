//! End-to-end integration tests spanning every crate: workload → NLP →
//! join → templates → Q/A over the RDF store.

use uqsj::pipeline::{generate_templates, join_quality};
use uqsj::prelude::*;
use uqsj::template::metrics::QaScore;
use uqsj::workload::DatasetConfig;

fn dataset() -> Dataset {
    uqsj::workload::qald_like(&DatasetConfig {
        questions: 80,
        distractors: 50,
        seed: 7,
        ..Default::default()
    })
}

#[test]
fn full_pipeline_generates_usable_templates() {
    let d = dataset();
    let result = generate_templates(&d, JoinParams::simj(1, 0.6));
    assert!(!result.matches.is_empty());
    assert!(result.library.len() >= 5, "got {} templates", result.library.len());

    // The templates must answer questions over the KB.
    let store = d.kb.triple_store();
    let mut score = QaScore::new();
    for pair in &d.pairs {
        let gold: Vec<String> = uqsj::rdf::bgp::evaluate(&store, &pair.sparql)
            .into_iter()
            .map(|r| r.join("\t"))
            .collect();
        let out = uqsj::template::answer_question(
            &result.library,
            &d.kb.lexicon,
            &store,
            &pair.question,
            1.0,
        );
        score.record(&out.answers, &gold);
    }
    assert!(score.f1() > 0.6, "template Q/A F1 = {}", score.f1());
}

#[test]
fn join_precision_increases_with_alpha() {
    let d = dataset();
    let mut previous = 0.0f64;
    for alpha in [0.3, 0.9] {
        let result = generate_templates(&d, JoinParams::simj(1, alpha));
        let (_, precision) = join_quality(&d, &result.matches);
        assert!(
            precision + 0.08 >= previous,
            "precision dropped sharply from {previous} to {precision} at alpha={alpha}"
        );
        previous = precision;
    }
}

#[test]
fn strategies_return_identical_pairs_on_real_workload() {
    let d = dataset();
    let collect = |strategy| {
        let (m, _) = uqsj::simjoin::sim_join(
            &d.table,
            &d.d_graphs,
            &d.u_graphs,
            JoinParams { strategy, ..JoinParams::simj(1, 0.8) },
        );
        let mut pairs: Vec<(usize, usize)> = m.iter().map(|x| (x.q_index, x.g_index)).collect();
        pairs.sort_unstable();
        pairs
    };
    let css = collect(JoinStrategy::CssOnly);
    let simj = collect(JoinStrategy::SimJ);
    let opt = collect(JoinStrategy::SimJOpt { group_count: 6 });
    assert_eq!(css, simj);
    assert_eq!(simj, opt);
    assert!(!css.is_empty());
}

#[test]
fn parallel_join_agrees_with_sequential_on_real_workload() {
    let d = dataset();
    let params = JoinParams::simj(1, 0.8);
    let (seq, _) = uqsj::simjoin::sim_join(&d.table, &d.d_graphs, &d.u_graphs, params);
    let (par, _) =
        uqsj::simjoin::JoinIndex::build(&d.d_graphs).join(&d.table, &d.u_graphs, params, 4);
    let key = |m: &JoinMatch| (m.g_index, m.q_index);
    let mut a: Vec<_> = seq.iter().map(key).collect();
    a.sort_unstable();
    let b: Vec<_> = par.iter().map(key).collect();
    assert_eq!(a, b);
}

#[test]
fn gold_pairs_survive_the_join_at_reasonable_thresholds() {
    let d = dataset();
    let (matches, _) =
        uqsj::simjoin::sim_join(&d.table, &d.d_graphs, &d.u_graphs, JoinParams::simj(2, 0.3));
    // Most questions should be matched with their own gold query.
    let mut found = 0;
    for (gi, &qi) in d.gold_of.iter().enumerate() {
        if matches.iter().any(|m| m.g_index == gi && m.q_index == qi) {
            found += 1;
        }
    }
    let frac = found as f64 / d.gold_of.len() as f64;
    assert!(frac > 0.5, "only {found}/{} gold pairs found", d.gold_of.len());
}

#[test]
fn mm_domain_precision_at_least_open_domain() {
    // The paper observes the closed-domain MM workload joins with higher
    // precision than the open-domain ones (Sec. 7.2). Check the trend
    // loosely (same τ/α, same sizes).
    let cfg = DatasetConfig { questions: 70, distractors: 40, seed: 11, ..Default::default() };
    let open = uqsj::workload::qald_like(&cfg);
    let closed = uqsj::workload::mm_like(&cfg);
    let params = JoinParams::simj(1, 0.8);
    let ro = generate_templates(&open, params);
    let rc = generate_templates(&closed, params);
    let (_, po) = join_quality(&open, &ro.matches);
    let (_, pc) = join_quality(&closed, &rc.matches);
    // Loose: closed domain shouldn't be dramatically worse.
    assert!(pc + 0.25 >= po, "closed {pc} much worse than open {po}");
}
