//! Sharded-server conformance: a `ShardedQaServer` must answer *exactly*
//! like a single store over the shard libraries concatenated in shard
//! order, for any shard count; a durable sharded directory must recover
//! equivalently after a kill, including with a corrupted replica, and
//! must refuse to open — never serve empty — when bootstrap failed or a
//! whole shard is unreadable.

mod common;

use common::{batch_library, clone_library, scratch_dir};
use std::path::{Path, PathBuf};
use uqsj_serve::{shard_of_tokens, ServeConfig, ShardedQaServer};
use uqsj_simjoin::JoinParams;
use uqsj_template::{answer_question, QaOutcome, TemplateLibrary};
use uqsj_testkit::gen::qa_dataset;

/// Flip 16 bytes in the middle of a replica's snapshot file; returns the
/// file and its corrupted contents.
fn corrupt_snapshot(replica: &Path) -> (PathBuf, Vec<u8>) {
    let snapshot = std::fs::read_dir(replica)
        .expect("replica dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("snapshot-")))
        .expect("snapshot file");
    let mut bytes = std::fs::read(&snapshot).expect("read snapshot");
    let mid = bytes.len() / 2;
    let end = (mid + 16).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xff;
    }
    std::fs::write(&snapshot, &bytes).expect("corrupt snapshot");
    (snapshot, bytes)
}

/// Map a sharded answer's (shard, local index) to the index in the
/// canonical concatenated library.
fn global_index(
    server: &ShardedQaServer,
    shard: Option<usize>,
    local: Option<usize>,
) -> Option<usize> {
    let (shard, local) = (shard?, local?);
    let offset: usize = server.shard_template_counts()[..shard].iter().sum();
    Some(offset + local)
}

fn assert_matches_oracle(
    server: &ShardedQaServer,
    got: &uqsj_serve::ShardedAnswer,
    want: &QaOutcome,
    context: &str,
) {
    assert_eq!(
        got.outcome.sparql.as_ref().map(ToString::to_string),
        want.sparql.as_ref().map(ToString::to_string),
        "sparql diverged: {context}"
    );
    assert_eq!(got.outcome.answers, want.answers, "answers diverged: {context}");
    assert_eq!(
        global_index(server, got.shard, got.outcome.template_index),
        want.template_index,
        "template diverged: {context}\ngot={got:?}\nwant={want:?}"
    );
    assert!((got.outcome.phi - want.phi).abs() < 1e-12, "phi diverged: {context}");
}

/// The tentpole consistency contract: for shard counts 1, 2, 4, 7, every
/// question answers identically to `answer_question` over the canonical
/// concatenated library — including the chosen template, mapped through
/// the shard's offset.
#[test]
fn sharded_answers_equal_canonical_library_for_any_shard_count() {
    let dataset = qa_dataset(777, 40, 25);
    let params = JoinParams::simj(1, 0.5);
    let library = batch_library(&dataset, 40, params);
    assert!(library.len() >= 4, "need a non-trivial library, got {}", library.len());
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };

    for shards in [1usize, 2, 4, 7] {
        let server = ShardedQaServer::new(
            clone_library(&library),
            lexicon.clone(),
            dataset.kb.triple_store(),
            shards,
            config,
        );
        assert_eq!(server.shard_count(), shards);
        assert_eq!(server.template_count(), library.len());
        let canonical = server.canonical_library();
        let triples = dataset.kb.triple_store();
        for pair in &dataset.pairs {
            let want = answer_question(&canonical, &lexicon, &triples, &pair.question, 1.0);
            let got = server.answer(&pair.question);
            assert_matches_oracle(
                &server,
                &got,
                &want,
                &format!("shards={shards} question={:?}", pair.question),
            );
        }
    }
}

/// Kill-and-restart (ISSUE 6 acceptance): a sharded, replicated durable
/// server that ingests templates and is dropped without ceremony (the
/// WAL appends are already fsynced) must reopen to a state equivalent to
/// replaying the surviving WALs — answering exactly like a server that
/// never went down.
#[test]
fn reopened_sharded_directory_answers_like_an_uninterrupted_server() {
    let dir = scratch_dir("reopen");
    let dataset = qa_dataset(778, 40, 25);
    let params = JoinParams::simj(1, 0.5);
    let seed_library = batch_library(&dataset, 20, params);
    let full_library = batch_library(&dataset, 40, params);
    assert!(full_library.len() > seed_library.len(), "need templates to ingest");
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 64, bgp_eval: None };

    let uninterrupted = ShardedQaServer::new(
        clone_library(&seed_library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        3,
        config,
    );
    let durable = ShardedQaServer::create(
        &dir,
        clone_library(&seed_library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        3,
        2,
        config,
    )
    .expect("bootstrap sharded dir");
    assert_eq!(durable.replica_count(), 2);

    // Both servers ingest the same batch; the durable one journals it to
    // every replica WAL of each touched shard.
    let batch: Vec<_> = full_library.templates().to_vec();
    let added_mem = uninterrupted.insert_templates(batch.clone()).expect("in-memory ingest");
    let added_durable = durable.insert_templates(batch).expect("durable ingest");
    assert_eq!(added_mem, added_durable);
    assert!(added_durable > 0);

    // Kill: drop without compaction or shutdown. Appends are durable.
    drop(durable);

    let reopened = ShardedQaServer::open(&dir, config).expect("recover sharded dir");
    assert_eq!(reopened.template_count(), uninterrupted.template_count());
    assert_eq!(reopened.shard_template_counts(), uninterrupted.shard_template_counts());
    let triples = dataset.kb.triple_store();
    let canonical = uninterrupted.canonical_library();
    for pair in &dataset.pairs {
        let want = answer_question(&canonical, &lexicon, &triples, &pair.question, 1.0);
        let got = reopened.answer(&pair.question);
        assert_matches_oracle(&reopened, &got, &want, &format!("question={:?}", pair.question));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache hit must preserve the (shard, local template index)
/// attribution the uncached answer carried — a repeated question used to
/// come back with `shard: None`, making the local index unmappable.
#[test]
fn cached_answers_keep_shard_attribution() {
    let dataset = qa_dataset(780, 40, 25);
    let params = JoinParams::simj(1, 0.5);
    let library = batch_library(&dataset, 40, params);
    assert!(library.len() >= 4);
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 8, bgp_eval: None };
    let server = ShardedQaServer::new(
        clone_library(&library),
        lexicon,
        dataset.kb.triple_store(),
        3,
        config,
    );
    let answered = dataset
        .pairs
        .iter()
        .find(|p| server.answer(&p.question).outcome.template_index.is_some())
        .expect("at least one answerable question");
    let cold = server.answer(&answered.question);
    let hot = server.answer(&answered.question); // second ask: cache hit
    assert_eq!(hot.shards_touched, 0, "second ask should be served from cache");
    assert_eq!(hot.shard, cold.shard, "cache hit lost shard attribution");
    assert_eq!(hot.outcome.template_index, cold.outcome.template_index);
    assert_eq!(
        global_index(&server, hot.shard, hot.outcome.template_index),
        global_index(&server, cold.shard, cold.outcome.template_index),
    );
}

/// Replica failover: trashing one replica of every shard (bit-flipped
/// snapshot, truncated WAL, even a deleted directory) must not lose
/// state — recovery adopts a surviving replica and re-converges the
/// damaged one.
#[test]
fn recovery_survives_a_corrupted_replica_per_shard() {
    let dir = scratch_dir("failover");
    let dataset = qa_dataset(779, 30, 20);
    let params = JoinParams::simj(1, 0.5);
    let library = batch_library(&dataset, 30, params);
    assert!(!library.is_empty());
    let lexicon = dataset.kb.lexicon.clone();
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };

    let durable = ShardedQaServer::create(
        &dir,
        clone_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        2,
        2,
        config,
    )
    .expect("bootstrap sharded dir");
    let counts = durable.shard_template_counts();
    drop(durable);

    // Shard 0: flip bytes in the middle of replica-00's snapshot.
    let (snapshot, bytes) = corrupt_snapshot(&dir.join("shard-0000").join("replica-00"));
    // Shard 1: delete replica-00 wholesale.
    std::fs::remove_dir_all(dir.join("shard-0001").join("replica-00")).expect("drop replica");

    let reopened = ShardedQaServer::open(&dir, config).expect("failover recovery");
    assert_eq!(reopened.shard_template_counts(), counts, "failover lost templates");
    // The unreadable replica was moved aside, not deleted.
    let quarantined = dir
        .join("shard-0000")
        .join("replica-00.quarantine-0")
        .join(snapshot.file_name().expect("snapshot name"));
    assert_eq!(std::fs::read(&quarantined).expect("quarantined snapshot"), bytes);
    let triples = dataset.kb.triple_store();
    let canonical = reopened.canonical_library();
    for pair in dataset.pairs.iter().take(10) {
        let want = answer_question(&canonical, &lexicon, &triples, &pair.question, 1.0);
        let got = reopened.answer(&pair.question);
        assert_matches_oracle(&reopened, &got, &want, &format!("question={:?}", pair.question));
    }

    // And the convergence compaction healed both damaged replicas: a
    // second recovery (no corruption this time) sees identical state.
    drop(reopened);
    let again = ShardedQaServer::open(&dir, config).expect("second recovery");
    assert_eq!(again.shard_template_counts(), counts);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bootstrap writes `SHARDS` last: a `create` that fails on one replica
/// (here a regular file squats on its directory path) leaves no topology
/// file, so `open` refuses the directory instead of serving empty
/// replicas — also when the failed `create` overwrites a good directory.
#[test]
fn failed_bootstrap_leaves_no_topology() {
    let dir = scratch_dir("bootstrap");
    let dataset = qa_dataset(779, 30, 20);
    let library = batch_library(&dataset, 30, JoinParams::simj(1, 0.5));
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };
    let create = |shards| {
        ShardedQaServer::create(
            &dir,
            clone_library(&library),
            dataset.kb.lexicon.clone(),
            dataset.kb.triple_store(),
            shards,
            2,
            config,
        )
    };

    std::fs::create_dir_all(dir.join("shard-0001")).expect("shard dir");
    std::fs::write(dir.join("shard-0001").join("replica-01"), b"squatter").expect("squat");
    assert!(create(2).is_err(), "create must fail on the blocked replica");
    assert!(!dir.join("SHARDS").exists(), "failed create left a topology file");
    assert!(ShardedQaServer::open(&dir, config).is_err());

    // A good bootstrap, then a failed re-bootstrap over it.
    std::fs::remove_file(dir.join("shard-0001").join("replica-01")).expect("unsquat");
    drop(create(2).expect("bootstrap"));
    assert!(dir.join("SHARDS").exists());
    std::fs::create_dir_all(dir.join("shard-0002")).expect("shard dir");
    std::fs::write(dir.join("shard-0002").join("replica-00"), b"squatter").expect("squat");
    assert!(create(3).is_err());
    assert!(!dir.join("SHARDS").exists(), "failed re-create kept the old topology");
    assert!(ShardedQaServer::open(&dir, config).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard none of whose replicas opens is an error, not an empty shard,
/// and recovery leaves the unreadable bytes where they were — on every
/// retry.
#[test]
fn recovery_refuses_a_shard_with_no_readable_replica() {
    let dir = scratch_dir("all-corrupt");
    let dataset = qa_dataset(779, 30, 20);
    let library = batch_library(&dataset, 30, JoinParams::simj(1, 0.5));
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };
    let durable = ShardedQaServer::create(
        &dir,
        library,
        dataset.kb.lexicon.clone(),
        dataset.kb.triple_store(),
        2,
        2,
        config,
    )
    .expect("bootstrap sharded dir");
    drop(durable);

    let corrupted: Vec<(PathBuf, Vec<u8>)> = (0..2)
        .map(|ri| corrupt_snapshot(&dir.join("shard-0001").join(format!("replica-{ri:02}"))))
        .collect();
    for attempt in 0..2 {
        assert!(
            ShardedQaServer::open(&dir, config).is_err(),
            "attempt {attempt}: opened a shard with no readable replica"
        );
        for (path, bytes) in &corrupted {
            assert_eq!(&std::fs::read(path).expect("corrupt bytes survive"), bytes);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dedup keys and confidences of a library, in order.
fn library_keys(library: &TemplateLibrary) -> Vec<((String, String), f64)> {
    library.templates().iter().map(|t| (t.dedup_key(), t.confidence)).collect()
}

/// A deleted replica directory is an unreadable replica, not an empty
/// one: recovery adopts the surviving sibling and re-creates the deleted
/// one. Shard 0 holds no templates here, so a re-created empty replica
/// would tie with its sibling on template count — and shard 0 supplies
/// the whole server's lexicon and RDF store.
#[test]
fn recovery_heals_a_deleted_replica_directory() {
    let dir = scratch_dir("deleted-replica");
    let dataset = qa_dataset(779, 30, 20);
    let mut library = TemplateLibrary::new();
    for t in batch_library(&dataset, 30, JoinParams::simj(1, 0.5)).templates() {
        if shard_of_tokens(&t.nl_tokens, 2) == 1 {
            library.add(t.clone());
        }
    }
    assert!(!library.is_empty(), "shard 1 needs templates");
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };
    let lexicon = &dataset.kb.lexicon;
    let triples = dataset.kb.triple_store();
    let durable = ShardedQaServer::create(
        &dir,
        clone_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        2,
        2,
        config,
    )
    .expect("bootstrap sharded dir");
    assert_eq!(durable.shard_template_counts(), vec![0, library.len()]);
    let canonical = library_keys(&durable.canonical_library());
    drop(durable);

    let replica = dir.join("shard-0000").join("replica-00");
    std::fs::remove_dir_all(&replica).expect("delete replica");
    for attempt in 0..2 {
        let reopened = ShardedQaServer::open(&dir, config).expect("recovery");
        assert_eq!(library_keys(&reopened.canonical_library()), canonical, "attempt {attempt}");
        assert_eq!(reopened.triples().len(), triples.len(), "attempt {attempt}: RDF store lost");
        assert!(!triples.is_empty());
        assert_eq!(reopened.lexicon().predicates, lexicon.predicates, "attempt {attempt}");
        assert_eq!(reopened.lexicon().class_nouns, lexicon.class_nouns, "attempt {attempt}");
        assert_eq!(reopened.lexicon().surface_forms.len(), lexicon.surface_forms.len());
        assert!(replica.is_dir(), "attempt {attempt}: deleted replica was not re-created");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard whose every replica directory is gone has nothing to recover
/// from: `open` is an error, and recovery creates no directory for it.
#[test]
fn recovery_refuses_a_shard_whose_replicas_were_all_deleted() {
    let dir = scratch_dir("deleted-shard");
    let dataset = qa_dataset(779, 30, 20);
    let library = batch_library(&dataset, 30, JoinParams::simj(1, 0.5));
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };
    let durable = ShardedQaServer::create(
        &dir,
        library,
        dataset.kb.lexicon.clone(),
        dataset.kb.triple_store(),
        2,
        2,
        config,
    )
    .expect("bootstrap sharded dir");
    drop(durable);

    let shard0 = dir.join("shard-0000");
    for ri in 0..2 {
        std::fs::remove_dir_all(shard0.join(format!("replica-{ri:02}"))).expect("delete replica");
    }
    for attempt in 0..2 {
        assert!(
            ShardedQaServer::open(&dir, config).is_err(),
            "attempt {attempt}: opened a shard with no replica"
        );
        let left: Vec<_> = std::fs::read_dir(&shard0).expect("shard dir").collect();
        assert!(left.is_empty(), "attempt {attempt}: recovery created {left:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
