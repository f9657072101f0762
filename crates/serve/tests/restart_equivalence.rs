//! Restart equivalence: a durable one-shard `ShardedQaServer` that
//! ingests questions, shuts down, and reopens from its data directory
//! answers a 200-question replay *identically* to a server that never
//! restarted.

mod common;

use common::{assert_same_outcome, batch_library, clone_library, scratch_dir};
use uqsj_serve::{Ingestor, ServeConfig, ShardedQaServer};
use uqsj_simjoin::JoinParams;
use uqsj_workload::{qald_like, DatasetConfig};

#[test]
fn reopened_server_replays_identically_to_uninterrupted_one() {
    let dir = scratch_dir("restart");
    let dataset =
        qald_like(&DatasetConfig { questions: 60, distractors: 40, ..Default::default() });
    let params = JoinParams::simj(1, 0.5);
    let seed = 30usize;
    let library = batch_library(&dataset, seed, params);
    assert!(!library.is_empty(), "no templates to seed the server");
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 128, bgp_eval: None };

    // Two servers with the same seed state: one in-memory (never
    // restarted), one durable in the data directory.
    let triples = || dataset.kb.triple_store();
    let baseline =
        ShardedQaServer::new(clone_library(&library), lexicon.clone(), triples(), 1, config);
    let durable = ShardedQaServer::create(
        &dir,
        clone_library(&library),
        lexicon.clone(),
        triples(),
        1,
        1,
        config,
    )
    .expect("bootstrap data dir");

    // The remaining questions arrive online; both servers ingest the
    // same templates. The durable one journals each batch to its WAL.
    let mut ingestor = Ingestor::new(
        dataset.table.clone(),
        dataset.d_graphs.clone(),
        dataset.d_queries.clone(),
        dataset.d_terms.clone(),
        params,
        seed,
    );
    let mut ingested = 0usize;
    for pair in &dataset.pairs[seed..] {
        let Ok(outcome) = ingestor.ingest(&lexicon, &pair.question) else {
            continue;
        };
        ingested += outcome.templates.len();
        baseline.insert_templates(outcome.templates.clone()).expect("in-memory insert");
        durable.insert_templates(outcome.templates).expect("journaled insert");
    }
    assert!(ingested > 0, "ingestion produced no templates");
    assert_eq!(baseline.template_count(), durable.template_count());

    // Kill the durable server (drop = no shutdown hook, like a crash
    // after the last acknowledged ingest) and recover from disk.
    drop(durable);
    let reopened = ShardedQaServer::open(&dir, config).expect("recover from data dir");
    assert_eq!(reopened.template_count(), baseline.template_count());

    // 200-question replay: every dataset question plus periodic misses.
    let base: Vec<&str> = dataset.pairs.iter().map(|p| p.question.as_str()).collect();
    for i in 0..200usize {
        let question = if i % 23 == 0 {
            format!("Name every mountain on planet number {}", i % 5)
        } else {
            base[i % base.len()].to_owned()
        };
        let got = reopened.answer(&question).outcome;
        let want = baseline.answer(&question).outcome;
        assert_same_outcome(&got, &want, &format!("replay #{i}: {question:?}"));
    }

    // Compacting the recovered state and reopening once more still
    // serves the same answers (WAL folded into the new snapshot). `create`
    // committed generation 1 and recovery's convergence compaction 2.
    assert_eq!(reopened.compact().expect("compact"), vec![3]);
    drop(reopened);
    let recompacted = ShardedQaServer::open(&dir, config).expect("reopen after compaction");
    assert_eq!(recompacted.template_count(), baseline.template_count());
    for question in base.iter().take(40) {
        let got = recompacted.answer(question).outcome;
        let want = baseline.answer(question).outcome;
        assert_same_outcome(&got, &want, &format!("post-compaction: {question:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
