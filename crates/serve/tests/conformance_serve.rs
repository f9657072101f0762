//! Serving-layer conformance: restart and compaction answer equivalence
//! on the *testkit*'s seeded Q/A dataset, so the serving checks replay
//! from the same seed discipline as the rest of the conformance suite.

mod common;

use common::{assert_same_outcome, batch_library, clone_library, scratch_dir};
use uqsj_serve::{Ingestor, ServeConfig, ShardedQaServer};
use uqsj_simjoin::JoinParams;
use uqsj_testkit::gen::qa_dataset;

/// Restart + compaction equivalence on the conformance dataset: an
/// in-memory baseline, a durable server that restarts, and a durable
/// server that compacts mid-stream must answer every replayed question
/// identically. One shard, so local template indexes are global ones.
#[test]
fn restart_and_compaction_preserve_answers_on_testkit_dataset() {
    let dataset = qa_dataset(4242, 40, 25);
    let params = JoinParams::simj(1, 0.5);
    let seed = 20usize;
    let library = batch_library(&dataset, seed, params);
    assert!(!library.is_empty(), "no templates generated from the testkit dataset");
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 64, bgp_eval: None };

    let triples = || dataset.kb.triple_store();
    let baseline =
        ShardedQaServer::new(clone_library(&library), lexicon.clone(), triples(), 1, config);
    let restart_dir = scratch_dir("restart");
    let compact_dir = scratch_dir("compact");
    let create = |dir| {
        ShardedQaServer::create(
            dir,
            clone_library(&library),
            lexicon.clone(),
            triples(),
            1,
            1,
            config,
        )
    };
    let durable = create(&restart_dir).expect("bootstrap restart dir");
    let compacting = create(&compact_dir).expect("bootstrap compact dir");

    let mut ingestor = Ingestor::new(
        dataset.table.clone(),
        dataset.d_graphs.clone(),
        dataset.d_queries.clone(),
        dataset.d_terms.clone(),
        params,
        seed,
    );
    let mut ingested = 0usize;
    for (i, pair) in dataset.pairs[seed..].iter().enumerate() {
        let Ok(outcome) = ingestor.ingest(&lexicon, &pair.question) else {
            continue;
        };
        ingested += outcome.templates.len();
        baseline.insert_templates(outcome.templates.clone()).expect("in-memory insert");
        durable.insert_templates(outcome.templates.clone()).expect("journaled insert");
        compacting.insert_templates(outcome.templates).expect("journaled insert");
        // Compact mid-stream a couple of times, with live WAL entries on
        // both sides of each compaction.
        if i % 7 == 3 {
            compacting.compact().expect("mid-stream compaction");
        }
    }
    assert!(ingested > 0, "ingestion produced no templates");
    assert_eq!(baseline.template_count(), durable.template_count());
    assert_eq!(baseline.template_count(), compacting.template_count());

    // Crash-drop both durable servers and recover from disk; the
    // compacted directory must recover past its folded generations too.
    drop(durable);
    drop(compacting);
    let reopened = ShardedQaServer::open(&restart_dir, config).expect("recover restart dir");
    let recompacted = ShardedQaServer::open(&compact_dir, config).expect("recover compact dir");
    assert_eq!(reopened.template_count(), baseline.template_count());
    assert_eq!(recompacted.template_count(), baseline.template_count());
    // Both directories advance by the same steps from here (recovery's
    // convergence compaction, then this one), so the mid-stream
    // compactions must still show as a later generation.
    assert!(
        recompacted.compact().expect("compact") > reopened.compact().expect("compact"),
        "compaction never advanced the snapshot generation"
    );

    let base: Vec<&str> = dataset.pairs.iter().map(|p| p.question.as_str()).collect();
    for i in 0..120usize {
        let question = if i % 17 == 0 {
            format!("Name every mountain on planet number {}", i % 5)
        } else {
            base[i % base.len()].to_owned()
        };
        let want = baseline.answer(&question).outcome;
        let (restart, compaction) = (format!("restart q{i}"), format!("compaction q{i}"));
        assert_same_outcome(&reopened.answer(&question).outcome, &want, &restart);
        assert_same_outcome(&recompacted.answer(&question).outcome, &want, &compaction);
    }

    let _ = std::fs::remove_dir_all(&restart_dir);
    let _ = std::fs::remove_dir_all(&compact_dir);
}

/// A server pinned to the nested-loop reference evaluator must answer
/// every question identically to one on the default leapfrog join — the
/// serving-layer face of the lftj ≡ reference oracle.
#[test]
fn bgp_evaluator_choice_does_not_change_answers() {
    let dataset = qa_dataset(77, 30, 20);
    let params = JoinParams::simj(1, 0.5);
    let library = batch_library(&dataset, dataset.pairs.len(), params);
    assert!(!library.is_empty(), "no templates generated from the testkit dataset");
    let lexicon = dataset.kb.lexicon.clone();

    let server = |eval| {
        let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: Some(eval) };
        let triples = dataset.kb.triple_store();
        ShardedQaServer::new(clone_library(&library), lexicon.clone(), triples, 1, config)
    };
    let lftj = server(uqsj_rdf::BgpEval::Lftj);
    let reference = server(uqsj_rdf::BgpEval::Reference);

    for (i, pair) in dataset.pairs.iter().enumerate() {
        let want = lftj.answer(&pair.question).outcome;
        assert_same_outcome(&reference.answer(&pair.question).outcome, &want, &format!("q{i}"));
    }
    // The batch path installs the scoped override per worker thread too.
    let questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();
    let a = lftj.answer_batch(&questions, 4);
    let b = reference.answer_batch(&questions, 4);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_same_outcome(&y.outcome, &x.outcome, &format!("batch q{i}"));
    }
}
