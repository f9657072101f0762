//! Acceptance: incremental ingestion — joining each newly arriving
//! question against `D` one at a time through `JoinIndex::join_one` —
//! reproduces *exactly* the matches and the template library a full batch
//! re-join over the augmented workload builds.

use uqsj_serve::Ingestor;
use uqsj_simjoin::{sim_join, JoinMatch, JoinParams, SimpPolicy};
use uqsj_template::{generate_template, Template, TemplateLibrary, TemplateSource};
use uqsj_workload::{qald_like, Dataset, DatasetConfig};

fn dataset() -> Dataset {
    qald_like(&DatasetConfig { questions: 40, distractors: 30, ..Default::default() })
}

fn params() -> JoinParams {
    JoinParams::simj(1, 0.5)
}

/// Batch join over the first `n` questions, template library in match
/// order — the pipeline the incremental path must replicate.
fn batch(dataset: &Dataset, n: usize) -> (Vec<JoinMatch>, Vec<Template>) {
    let (matches, _) =
        sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs[..n], params());
    let templates = matches
        .iter()
        .filter_map(|m| {
            generate_template(&TemplateSource {
                analysis: &dataset.analyses[m.g_index],
                query: &dataset.d_queries[m.q_index],
                query_terms: &dataset.d_terms[m.q_index],
                mapping: &m.mapping,
                confidence: m.prob,
            })
        })
        .collect();
    (matches, templates)
}

fn library_of(templates: &[Template]) -> TemplateLibrary {
    let mut lib = TemplateLibrary::new();
    for t in templates {
        lib.add(t.clone());
    }
    lib
}

/// The acceptance scenario: a workload of n-1 questions is already joined;
/// question n arrives online. Ingesting it must produce the same final
/// library as re-running the batch join over all n questions.
#[test]
fn ingesting_the_new_question_equals_full_rejoin() {
    let d = dataset();
    let n = d.u_len();
    assert!(n >= 2, "dataset too small to split");

    // Offline state: batch over the first n-1 questions.
    let (_, prefix_templates) = batch(&d, n - 1);
    let mut incremental = library_of(&prefix_templates);

    // The new question arrives; incremental SimJ against the same D.
    let mut ingestor = Ingestor::new(
        d.table.clone(),
        d.d_graphs.clone(),
        d.d_queries.clone(),
        d.d_terms.clone(),
        params(),
        n - 1,
    );
    let outcome = ingestor
        .ingest(&d.kb.lexicon, &d.pairs[n - 1].question)
        .expect("dataset questions are analyzable");
    assert_eq!(outcome.g_index, n - 1);
    assert_eq!(outcome.stats.pairs_total, d.d_len() as u64);
    for t in &outcome.templates {
        incremental.add(t.clone());
    }

    // Ground truth: full batch re-join over the augmented workload.
    let (full_matches, full_templates) = batch(&d, n);
    let full = library_of(&full_templates);

    // The ingested matches are exactly the full join's matches for the
    // last question, in the same order.
    let expected_tail: Vec<&JoinMatch> =
        full_matches.iter().filter(|m| m.g_index == n - 1).collect();
    assert_eq!(outcome.matches.len(), expected_tail.len());
    for (got, want) in outcome.matches.iter().zip(expected_tail) {
        assert_eq!(got, want, "incremental match diverged from batch match");
    }

    assert_eq!(incremental.templates(), full.templates(), "incremental library != batch library");
}

/// Stronger form: growing the whole workload one question at a time from
/// an empty library converges to the batch library — so incremental
/// ingestion composes over any number of arrivals.
#[test]
fn replaying_every_question_incrementally_rebuilds_the_batch_library() {
    let d = dataset();
    let (full_matches, full_templates) = batch(&d, d.u_len());
    assert!(!full_matches.is_empty(), "batch join found nothing — test is vacuous");
    let full = library_of(&full_templates);

    let mut ingestor = Ingestor::new(
        d.table.clone(),
        d.d_graphs.clone(),
        d.d_queries.clone(),
        d.d_terms.clone(),
        params(),
        0,
    );
    let mut incremental = TemplateLibrary::new();
    let mut all_matches: Vec<JoinMatch> = Vec::new();
    let mut ingested_any_templates = false;
    let mut reused = 0;
    for pair in &d.pairs {
        let outcome = ingestor.ingest(&d.kb.lexicon, &pair.question).expect("analyzable");
        ingested_any_templates |= !outcome.templates.is_empty();
        // Every match either generated or reused its query class's outcome.
        assert_eq!(outcome.fold.generated + outcome.fold.reused, outcome.matches.len());
        reused += outcome.fold.reused;
        all_matches.extend(outcome.matches);
        for t in outcome.templates {
            incremental.add(t);
        }
    }
    assert!(ingested_any_templates);
    eprintln!("{} matches, {reused} reused their query class's template", all_matches.len());
    assert!(reused > 0, "no match reused its class's template — the fold is untested here");
    assert_eq!(all_matches, full_matches, "concatenated ingest matches != batch matches");
    assert_eq!(incremental.templates(), full.templates());
}

/// The sampling verification tier through the serving path: an ingestor
/// whose policy forces Monte-Carlo SimP decisions must reproduce the
/// exact ingestor's match set on enumerable questions — except possibly
/// on pairs whose exact probability sits inside the tier's ε band around
/// α, where the (ε,δ) contract permits either verdict.
#[test]
fn sampled_policy_ingestor_agrees_with_exact_ingestor() {
    let d = dataset();
    let exact_params = params();
    let eps = 0.01;
    // δ so small that an out-of-band disagreement means a sampler bug,
    // not sampling noise; threshold 2 forces the tier onto every refined
    // pair with any uncertainty at all.
    let sampled_params =
        JoinParams { simp: SimpPolicy::auto(eps, 1e-9, 7).with_threshold(2), ..exact_params };

    let ingest = |p: JoinParams| -> Vec<JoinMatch> {
        let mut ing = Ingestor::new(
            d.table.clone(),
            d.d_graphs.clone(),
            d.d_queries.clone(),
            d.d_terms.clone(),
            p,
            0,
        );
        let mut matches = Vec::new();
        for pair in &d.pairs {
            let outcome = ing.ingest(&d.kb.lexicon, &pair.question).expect("analyzable");
            matches.extend(outcome.matches);
        }
        matches
    };
    let exact_matches = ingest(exact_params);
    let sampled_matches = ingest(sampled_params);
    assert!(!exact_matches.is_empty(), "exact ingestor found nothing — test is vacuous");

    let keys = |ms: &[JoinMatch]| -> Vec<(usize, usize)> {
        let mut ks: Vec<_> = ms.iter().map(|m| (m.q_index, m.g_index)).collect();
        ks.sort_unstable();
        ks
    };
    let exact_keys = keys(&exact_matches);
    let sampled_keys = keys(&sampled_matches);

    // Any disagreement must lie inside the ε band around α.
    for &(qi, gi) in exact_keys
        .iter()
        .filter(|k| !sampled_keys.contains(k))
        .chain(sampled_keys.iter().filter(|k| !exact_keys.contains(k)))
    {
        let p = uqsj_uncertain::verify_simp(
            &d.table,
            &d.d_graphs[qi],
            &d.u_graphs[gi],
            exact_params.tau,
            f64::INFINITY,
        )
        .prob;
        assert!(
            (p - exact_params.alpha).abs() <= eps + 1e-9,
            "pair ({qi}, {gi}) disagreed with exact SimP {p}, which is outside \
             the ε={eps} band around α={}",
            exact_params.alpha
        );
    }

    // Coverage: the band exemption must not have excused everything.
    let agreed = sampled_keys.iter().filter(|k| exact_keys.contains(k)).count();
    assert!(agreed > 0, "no pair was matched by both tiers");
}
