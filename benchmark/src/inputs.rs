//! Inputs of one run, all generated from the run's seed by the
//! repository's own generators (`uqsj-workload`): the mining datasets,
//! the mined library, the held-out read pool and the ingest stream.

use std::collections::HashSet;
use std::time::Instant;
use uqsj::pipeline::{generate_templates, join_quality, PipelineResult};
use uqsj::prelude::*;
use uqsj::sample::seed::{derive_seed, rng_for};
use uqsj::serve::cache::normalize_question;
use uqsj::workload::{generate_pairs, KnowledgeBase, QaPair, QuestionConfig};

/// The `mine` workload's dataset: `uqsj-cli generate`'s join parameters
/// (τ = 1, α = 0.7) on a WebQ-like workload of 800 questions against
/// 2,000 distractor queries.
pub const QUESTIONS: usize = 800;
pub const DISTRACTORS: usize = 2000;
pub const TAU: u32 = 1;
pub const ALPHA: f64 = 0.7;

pub fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig { questions: QUESTIONS, distractors: DISTRACTORS, max_relations: 3, seed }
}

/// Dataset `k` of a run: dataset 0 uses the run seed itself, so seed 42
/// reproduces the figures quoted in the benchmark README.
pub fn dataset_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        derive_seed(seed, k as u64)
    }
}

pub fn join_params() -> JoinParams {
    JoinParams::simj(TAU, ALPHA)
}

/// One mined dataset and what mining it cost.
pub struct Mined {
    pub dataset: Dataset,
    pub result: PipelineResult,
    pub mine_s: f64,
    pub correct: usize,
    pub precision: f64,
}

/// Generate dataset `k` and mine it with `generate_templates`.
pub fn mine(seed: u64, k: usize) -> Mined {
    let dataset = webq_like(&dataset_config(dataset_seed(seed, k)));
    let started = Instant::now();
    let result = generate_templates(&dataset, join_params());
    let mine_s = started.elapsed().as_secs_f64();
    let (correct, precision) = join_quality(&dataset, &result.matches);
    Mined { dataset, result, mine_s, correct, precision }
}

/// Seconds to generate and analyze dataset 0 (`webq_like` builds the
/// knowledge base, the question set, and analyzes every question).
pub fn time_generation(seed: u64) -> f64 {
    let started = Instant::now();
    let dataset = webq_like(&dataset_config(dataset_seed(seed, 0)));
    let elapsed = started.elapsed().as_secs_f64();
    std::hint::black_box(dataset.u_len());
    elapsed
}

/// `count` distinct questions over `kb` (with their gold SPARQL) whose
/// normalized text is not in `exclude`; the texts drawn are added to
/// `exclude`, so successive pools are disjoint.
pub fn held_out(
    kb: &KnowledgeBase,
    exclude: &mut HashSet<String>,
    count: usize,
    seed: u64,
) -> Vec<QaPair> {
    let mut rng = rng_for(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..64 {
        if out.len() >= count {
            break;
        }
        let batch = QuestionConfig { count: (count - out.len()) * 2, ..QuestionConfig::default() };
        for pair in generate_pairs(kb, &batch, &mut rng) {
            if out.len() < count && exclude.insert(normalize_question(&pair.question)) {
                out.push(pair);
            }
        }
    }
    out
}

/// The normalized texts of a dataset's training questions, including
/// those that failed analysis.
pub fn training_texts(dataset: &Dataset) -> HashSet<String> {
    dataset
        .pairs
        .iter()
        .map(|p| &p.question)
        .chain(dataset.failed.iter().map(|(p, _)| &p.question))
        .map(|q| normalize_question(q))
        .collect()
}

/// Gold answers of a question: its gold SPARQL run through the
/// nested-loop reference evaluator.
pub fn gold_answers(store: &uqsj::rdf::TripleStore, pair: &QaPair) -> Vec<String> {
    uqsj::rdf::bgp::evaluate_with(store, &pair.sparql, uqsj::rdf::BgpEval::Reference)
        .into_iter()
        .map(|row| row.join("\t"))
        .collect()
}
