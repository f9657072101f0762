//! Acceptance: replaying a 1,000-question stream through a one-shard
//! `ShardedQaServer` yields, for every single question, exactly the
//! answer the linear-scan `answer_question` baseline produces — while the
//! signature filter keeps the measured candidate ratio strictly below 1.0.

mod common;

use common::{assert_same_outcome, batch_library, clone_library};
use uqsj_serve::{ServeConfig, ShardedQaServer};
use uqsj_simjoin::JoinParams;
use uqsj_template::{answer_question, TemplateLibrary};
use uqsj_workload::{qald_like, Dataset, DatasetConfig};

fn build(questions: usize) -> (Dataset, TemplateLibrary) {
    let dataset = qald_like(&DatasetConfig { questions, distractors: 40, ..Default::default() });
    let library = batch_library(&dataset, questions, JoinParams::simj(1, 0.5));
    (dataset, library)
}

#[test]
fn thousand_question_replay_matches_linear_scan() {
    let (dataset, library) = build(60);
    assert!(!library.is_empty(), "no templates to serve");
    let lexicon = dataset.kb.lexicon.clone();
    let triples = dataset.kb.triple_store();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 256, bgp_eval: None };
    let server = ShardedQaServer::new(
        clone_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        1,
        config,
    );

    // 1,000 sends cycling the dataset's questions (plus a few misses).
    let mut stream: Vec<String> = Vec::with_capacity(1000);
    let base: Vec<&str> = dataset.pairs.iter().map(|p| p.question.as_str()).collect();
    for i in 0..1000usize {
        if i % 97 == 0 {
            stream.push(format!("Name every mountain on planet number {}", i % 7));
        } else {
            stream.push(base[i % base.len()].to_owned());
        }
    }

    for (i, q) in stream.iter().enumerate() {
        let got = server.answer(q).outcome;
        let want = answer_question(&library, &lexicon, &triples, q, config.min_phi);
        assert_same_outcome(&got, &want, &format!("question #{i}: {q:?}"));
    }

    let m = server.metrics();
    assert_eq!(m.questions, 1000);
    assert!(m.cache_hits > 0, "cycling stream must hit the cache");
    assert!(m.library_total > 0, "at least one miss must scan the store");
    assert!(
        m.candidate_ratio < 1.0,
        "signature index pruned nothing: ratio {} ({}/{})",
        m.candidate_ratio,
        m.candidates_total,
        m.library_total
    );
}

#[test]
fn partial_match_serving_matches_linear_scan() {
    let (dataset, library) = build(40);
    assert!(!library.is_empty());
    let lexicon = dataset.kb.lexicon.clone();
    let triples = dataset.kb.triple_store();
    // Cache off so every question exercises the filtered ranking path.
    let config = ServeConfig { min_phi: 0.5, cache_capacity: 0, bgp_eval: None };
    let server = ShardedQaServer::new(
        clone_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        1,
        config,
    );
    for (i, p) in dataset.pairs.iter().enumerate() {
        let noisy = format!("{} according to the records", p.question);
        for q in [p.question.as_str(), noisy.as_str()] {
            let got = server.answer(q).outcome;
            let want = answer_question(&library, &lexicon, &triples, q, config.min_phi);
            assert_same_outcome(&got, &want, &format!("question #{i}: {q:?}"));
        }
    }
}

#[test]
fn batch_answers_equal_sequential_answers() {
    let (dataset, library) = build(30);
    let lexicon = dataset.kb.lexicon.clone();
    let triples = dataset.kb.triple_store();
    let server = ShardedQaServer::new(library, lexicon, triples, 1, ServeConfig::default());
    let questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();
    let sequential: Vec<_> = questions.iter().map(|q| server.answer(q).outcome).collect();
    let batch = server.answer_batch(&questions, 4);
    assert_eq!(batch.len(), sequential.len());
    for (i, (got, want)) in batch.iter().zip(&sequential).enumerate() {
        assert_same_outcome(&got.outcome, want, &format!("batch position {i}"));
    }
}
