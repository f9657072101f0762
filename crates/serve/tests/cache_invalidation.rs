//! Regression test for answer-cache staleness (ISSUE 6 satellite): a
//! cached answer computed against the pre-ingest library must not survive
//! an ingest that adds a better-matching template — the fresh answer wins
//! on the very next question.

use uqsj_serve::{ServeConfig, ShardedQaServer};
use uqsj_sparql::{SparqlQuery, Term, Triple};
use uqsj_template::template::{slot_term, SlotBinding};
use uqsj_template::{Template, TemplateLibrary};

const SLOT: &str = "<_>";

/// "Which <_> graduated from <_> ?" over the given predicate and
/// confidence. Both templates share tokens (same φ, same TED), so ranking
/// falls through to the confidence tiebreak.
fn graduated_template(predicate: &str, confidence: f64) -> Template {
    let sparql = SparqlQuery {
        select: vec!["x".into()],
        triples: vec![
            Triple {
                subject: Term::Var("x".into()),
                predicate: Term::Iri("type".into()),
                object: slot_term(0),
            },
            Triple {
                subject: Term::Var("x".into()),
                predicate: Term::Iri(predicate.into()),
                object: slot_term(1),
            },
        ],
    };
    Template::new(
        ["Which", SLOT, "graduated", "from", SLOT, "?"].map(String::from).to_vec(),
        sparql,
        vec![SlotBinding::Bound, SlotBinding::Bound],
        confidence,
    )
}

fn server() -> ShardedQaServer {
    let mut lexicon = uqsj_nlp::lexicon::paper_lexicon();
    lexicon.add_class("physicist", "Physicist");
    let mut triples = uqsj_rdf::TripleStore::new();
    triples.insert("Alice", "type", "Physicist");
    triples.insert("Alice", "graduatedFrom", "Carnegie_Mellon_University");
    triples.ensure_indexes();
    let mut library = TemplateLibrary::new();
    // The weak seed template queries a predicate the KB never uses, so it
    // "answers" with an empty result set (the fallback instantiation).
    library.add(graduated_template("wrongPredicate", 0.5));
    let config = ServeConfig { min_phi: 1.0, cache_capacity: 16, bgp_eval: None };
    ShardedQaServer::new(library, lexicon, triples, 1, config)
}

#[test]
fn ingest_invalidates_cached_answers() {
    let qa = server();
    let question = "Which physicist graduated from CMU?";

    // Pre-ingest: the weak template matches but finds nothing.
    let stale = qa.answer(question).outcome;
    assert!(stale.answers.is_empty(), "seed template must not answer");
    // The empty outcome is cached now.
    qa.answer(question);
    assert_eq!(qa.metrics().cache_hits, 1, "second ask must be a cache hit");

    // Ingest a better-matching template (higher confidence, same tokens).
    let added = qa
        .insert_templates([graduated_template("graduatedFrom", 0.99)])
        .expect("in-memory ingest cannot fail");
    assert_eq!(added, 1);

    // Post-ingest: the cached stale outcome must be gone — the fresh
    // template answers.
    let fresh = qa.answer(question).outcome;
    assert_eq!(fresh.answers, vec!["Alice".to_string()], "fresh answer must win after ingest");
}

#[test]
fn answer_batch_clamps_thread_hint() {
    let qa = server();
    let questions: Vec<String> =
        vec!["Which physicist graduated from CMU?".into(), "Name every mountain on Mars".into()];
    // threads == 0 and threads >> batch length are both valid hints now.
    let a = qa.answer_batch(&questions, 0);
    let b = qa.answer_batch(&questions, 64);
    assert_eq!(a.len(), 2);
    assert_eq!(b.len(), 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.outcome.answers, y.outcome.answers);
    }
    // Empty batches spawn nothing and return nothing.
    assert!(qa.answer_batch(&[], 8).is_empty());
}
