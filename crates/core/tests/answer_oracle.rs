//! Differential oracle for the answer path at WebQ-like scale: a library
//! mined from a `webq_like` workload, served from a 4-shard
//! `ShardedQaServer` (signature filter, φ bound, best-first alignment,
//! lazy TED), must answer every held-out question exactly like the eager
//! linear scan `uqsj_template::qa::reference::eager_answer` over the
//! canonical library: same answers, SPARQL, φ and chosen template.

use std::collections::HashSet;
use uqsj::pipeline::generate_templates;
use uqsj::prelude::*;
use uqsj::sample::seed::rng_for;
use uqsj::serve::cache::normalize_question;
use uqsj::template::qa::reference::eager_answer;
use uqsj::workload::{generate_pairs, QaPair, QuestionConfig};

const SHARDS: usize = 4;
const HELD_OUT: usize = 240;

/// Distinct generated questions whose text is not a training question.
fn held_out(dataset: &Dataset, count: usize, seed: u64) -> Vec<QaPair> {
    let mut seen: HashSet<String> = dataset
        .pairs
        .iter()
        .map(|p| &p.question)
        .chain(dataset.failed.iter().map(|(p, _)| &p.question))
        .map(|q| normalize_question(q))
        .collect();
    let mut rng = rng_for(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..64 {
        if out.len() >= count {
            break;
        }
        let batch = QuestionConfig { count: (count - out.len()) * 2, ..QuestionConfig::default() };
        for pair in generate_pairs(&dataset.kb, &batch, &mut rng) {
            if out.len() < count && seen.insert(normalize_question(&pair.question)) {
                out.push(pair);
            }
        }
    }
    out
}

fn copy(library: &TemplateLibrary) -> TemplateLibrary {
    let mut out = TemplateLibrary::new();
    for t in library.templates() {
        out.add(t.clone());
    }
    out
}

#[test]
fn best_first_answers_equal_the_eager_linear_scan() {
    let dataset =
        webq_like(&DatasetConfig { questions: 160, distractors: 240, max_relations: 3, seed: 42 });
    let mined = generate_templates(&dataset, JoinParams::simj(1, 0.7));
    let questions = held_out(&dataset, HELD_OUT, 4242);
    assert!(questions.len() >= 200, "only {} held-out questions", questions.len());
    let triples = dataset.kb.triple_store();

    for min_phi in [1.0, 0.8, 0.6] {
        let server = ShardedQaServer::new(
            copy(&mined.library),
            dataset.kb.lexicon.clone(),
            dataset.kb.triple_store(),
            SHARDS,
            ServeConfig { min_phi, cache_capacity: 0, bgp_eval: None },
        );
        let canonical = server.canonical_library();
        let offsets: Vec<usize> = server
            .shard_template_counts()
            .iter()
            .scan(0, |sum, &n| {
                let start = *sum;
                *sum += n;
                Some(start)
            })
            .collect();
        let (mut answered, mut partial) = (0, 0);
        for pair in &questions {
            let q = pair.question.as_str();
            let want = eager_answer(&canonical, &dataset.kb.lexicon, &triples, q, min_phi);
            let got = server.answer(q);
            let sparql = |o: &uqsj::template::QaOutcome| o.sparql.as_ref().map(|s| s.to_string());
            assert_eq!(sparql(&got.outcome), sparql(&want), "SPARQL at φ≥{min_phi}: {q:?}");
            assert_eq!(got.outcome.answers, want.answers, "answers at φ≥{min_phi}: {q:?}");
            assert_eq!(got.outcome.phi, want.phi, "φ at φ≥{min_phi}: {q:?}");
            let global = got.shard.map(|s| offsets[s] + got.outcome.template_index.unwrap());
            assert_eq!(global, want.template_index, "template at φ≥{min_phi}: {q:?}");
            if want.template_index.is_some() {
                answered += 1;
                if want.phi < 1.0 {
                    partial += 1;
                }
            }
        }
        eprintln!(
            "min_phi {min_phi}: {} questions, {answered} matched a template, {partial} partially",
            questions.len()
        );
        assert!(answered > 0, "no question matched a template at φ≥{min_phi}");
        if min_phi < 1.0 {
            assert!(partial > 0, "no partial match at φ≥{min_phi} — the test is vacuous");
        }
    }
}
