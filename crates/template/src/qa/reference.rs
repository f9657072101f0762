//! The eager template ranking, retained as the differential-test oracle
//! for [`super::answer_across`] — the same role `bgp::reference` plays
//! for the leapfrog join and `ged::reference` for the GED engine.
//!
//! It aligns every template with the `String` aligners, computes every
//! candidate's TED, and ranks them with one stable sort by (φ desc, TED
//! asc, confidence desc), so equal keys keep template order. It is
//! deliberately *not* optimized — its value is being obviously correct.
//! Production code must call [`super::answer_question`] or
//! [`super::answer_across`] instead.

use super::{fill_and_execute, QaOutcome, TemplateLibrary};
use uqsj_nlp::align::{align_with_slots, partial_align_with_slots};
use uqsj_nlp::deptree::parse_dependency_tokens;
use uqsj_nlp::ted::tree_edit_distance;
use uqsj_nlp::token::tokenize;
use uqsj_nlp::Lexicon;
use uqsj_rdf::TripleStore;

/// Answer `question` with `library` by eager linear scan; the outcome
/// [`super::answer_question`] must reproduce exactly.
pub fn eager_answer(
    library: &TemplateLibrary,
    lexicon: &Lexicon,
    store: &TripleStore,
    question: &str,
    min_phi: f64,
) -> QaOutcome {
    let tokens = tokenize(question);
    if tokens.is_empty() {
        return QaOutcome::default();
    }
    let question_tree = parse_dependency_tokens(&tokens);
    #[allow(clippy::type_complexity)]
    let mut candidates: Vec<(usize, f64, u32, Vec<Vec<String>>)> = Vec::new();
    for (i, t) in library.templates().iter().enumerate() {
        let hit = if let Some(slots) = align_with_slots(&t.nl_tokens, &tokens) {
            Some((1.0, slots))
        } else if min_phi < 1.0 {
            partial_align_with_slots(&t.nl_tokens, &tokens)
                .filter(|(phi, _)| phi + 1e-12 >= min_phi)
        } else {
            None
        };
        if let Some((phi, slots)) = hit {
            let ted = tree_edit_distance(&t.dep_tree, &question_tree);
            candidates.push((i, phi, ted, slots));
        }
    }
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).expect("phi is finite").then(a.2.cmp(&b.2)).then(
            library.templates()[b.0]
                .confidence
                .partial_cmp(&library.templates()[a.0].confidence)
                .expect("confidence is finite"),
        )
    });
    for (i, phi, _, slots) in candidates {
        let template = &library.templates()[i];
        let phrases: Vec<String> = slots.iter().map(|words| words.join(" ")).collect();
        if let Some((sparql, answers)) = fill_and_execute(template, &phrases, lexicon, store) {
            return QaOutcome { sparql: Some(sparql), answers, template_index: Some(i), phi };
        }
    }
    QaOutcome::default()
}
