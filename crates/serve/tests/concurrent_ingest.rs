//! Concurrent ingest vs. answer conformance (ISSUE 6 satellite): while
//! one thread ingests a template batch into a sharded server, racing
//! answer threads must each see either the complete pre-ingest library
//! or the complete post-ingest library — never a torn state where only
//! some of the batch's shards are visible.

mod common;

use common::{batch_library, clone_library, same_outcome};
use std::sync::atomic::{AtomicBool, Ordering};
use uqsj_serve::{ServeConfig, ShardedQaServer};
use uqsj_simjoin::JoinParams;
use uqsj_template::{answer_question, QaOutcome};
use uqsj_testkit::gen::qa_dataset;

#[test]
fn racing_answers_see_pre_or_post_ingest_library_never_torn() {
    let dataset = qa_dataset(515, 40, 25);
    let params = JoinParams::simj(1, 0.5);
    let seed_library = batch_library(&dataset, 18, params);
    let full_library = batch_library(&dataset, 40, params);
    assert!(full_library.len() > seed_library.len(), "the race needs a non-empty ingest batch");
    let lexicon = dataset.kb.lexicon.clone();
    let shards = 5usize;
    // No cache: every racing answer must hit the store, not a memoized
    // outcome (cache correctness is covered elsewhere).
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 0, bgp_eval: None };

    let server = ShardedQaServer::new(
        clone_library(&seed_library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        shards,
        config,
    );

    // Oracles: the canonical (shard-concatenated) library before the
    // ingest, and after it — computed on a twin server that performs the
    // identical ingest sequentially.
    let pre_canonical = server.canonical_library();
    let post_canonical = {
        let twin = ShardedQaServer::new(
            clone_library(&seed_library),
            lexicon.clone(),
            dataset.kb.triple_store(),
            shards,
            config,
        );
        twin.insert_templates(full_library.templates().to_vec()).expect("twin ingest");
        twin.canonical_library()
    };
    let triples = dataset.kb.triple_store();
    let questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();
    let pre_oracle: Vec<QaOutcome> = questions
        .iter()
        .map(|q| answer_question(&pre_canonical, &lexicon, &triples, q, 1.0))
        .collect();
    let post_oracle: Vec<QaOutcome> = questions
        .iter()
        .map(|q| answer_question(&post_canonical, &lexicon, &triples, q, 1.0))
        .collect();
    let diverging = questions
        .iter()
        .zip(pre_oracle.iter().zip(&post_oracle))
        .filter(|(_, (a, b))| !same_outcome(a, b))
        .count();
    assert!(diverging > 0, "the ingest must change at least one answer for the race to bite");

    // The race: reader threads hammer `answer` and `answer_batch` while
    // the writer lands the whole batch in one `insert_templates` call.
    let ingest_done = AtomicBool::new(false);
    let readers = 4usize;
    let observations: Vec<Vec<(usize, QaOutcome)>> = std::thread::scope(|scope| {
        let writer = {
            let (server, full_library, ingest_done) = (&server, &full_library, &ingest_done);
            scope.spawn(move || {
                // Give readers a head start into their loops.
                std::thread::sleep(std::time::Duration::from_millis(5));
                let added =
                    server.insert_templates(full_library.templates().to_vec()).expect("ingest");
                ingest_done.store(true, Ordering::SeqCst);
                added
            })
        };
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (server, questions, ingest_done) = (&server, &questions, &ingest_done);
                scope.spawn(move || {
                    let mut seen: Vec<(usize, QaOutcome)> = Vec::new();
                    let mut round = 0usize;
                    // Keep racing until we have observed rounds on both
                    // sides of the ingest (bounded, in case the ingest
                    // wins instantly).
                    while round < 12 && !(round >= 4 && ingest_done.load(Ordering::SeqCst)) {
                        if r % 2 == 0 {
                            for (qi, q) in questions.iter().enumerate() {
                                seen.push((qi, server.answer(q).outcome));
                            }
                        } else {
                            for (qi, o) in server.answer_batch(questions, 3).into_iter().enumerate()
                            {
                                seen.push((qi, o.outcome));
                            }
                        }
                        round += 1;
                    }
                    seen
                })
            })
            .collect();
        let added = writer.join().expect("writer thread");
        assert!(added > 0, "ingest added nothing — race degenerate");
        handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });

    // Every observed outcome is valid under the pre- or post-ingest
    // canonical library. A torn cross-shard read would produce an
    // outcome matching neither.
    let mut checked = 0usize;
    for seen in &observations {
        for (qi, outcome) in seen {
            assert!(
                same_outcome(outcome, &pre_oracle[*qi]) || same_outcome(outcome, &post_oracle[*qi]),
                "question {:?} answered outside both pre- and post-ingest libraries:\n\
                 got answers {:?} phi {}\npre {:?}\npost {:?}",
                questions[*qi],
                outcome.answers,
                outcome.phi,
                pre_oracle[*qi].answers,
                post_oracle[*qi].answers,
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "readers observed nothing");

    // Settled state: answers equal the post-ingest oracle exactly.
    for (qi, q) in questions.iter().enumerate() {
        assert!(
            same_outcome(&server.answer(q).outcome, &post_oracle[qi]),
            "post-race answer diverged for {q:?}"
        );
    }
}
