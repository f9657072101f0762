//! Property tests for template machinery: the text format round-trips
//! arbitrary template libraries, and slot filling is consistent with the
//! alignment that produced the slots.

use proptest::prelude::*;
use uqsj_sparql::{SparqlQuery, Term, Triple};
use uqsj_template::io::{from_text, to_text};
use uqsj_template::template::slot_term;
use uqsj_template::{SlotBinding, Template, TemplateLibrary};

const WORDS: [&str; 8] = ["Which", "graduated", "from", "married", "to", "born", "in", "?"];
const PREDICATES: [&str; 4] = ["type", "graduatedFrom", "spouse", "birthPlace"];

#[derive(Clone, Debug)]
struct RawTemplate {
    words: Vec<u8>,
    slot_positions: Vec<u8>,
    predicates: Vec<u8>,
    confidence: f64,
}

fn template_strategy() -> impl Strategy<Value = RawTemplate> {
    (
        prop::collection::vec(0u8..WORDS.len() as u8, 2..8),
        prop::collection::vec(0u8..8, 1..3),
        prop::collection::vec(0u8..PREDICATES.len() as u8, 1..4),
        0.0f64..1.0,
    )
        .prop_map(|(words, slot_positions, predicates, confidence)| RawTemplate {
            words,
            slot_positions,
            predicates,
            confidence,
        })
}

fn build(raw: &RawTemplate) -> Template {
    let mut nl: Vec<String> = raw.words.iter().map(|&i| WORDS[i as usize].to_owned()).collect();
    // Insert slots at (deduplicated, in-range) positions.
    let mut positions: Vec<usize> =
        raw.slot_positions.iter().map(|&p| p as usize % nl.len()).collect();
    positions.sort_unstable();
    positions.dedup();
    for (offset, p) in positions.iter().enumerate() {
        nl.insert(p + offset, "<_>".to_owned());
    }
    let slot_count = positions.len();
    // SPARQL pattern referencing each slot once.
    let mut triples = Vec::new();
    for (i, &p) in raw.predicates.iter().enumerate() {
        let object = if i < slot_count { slot_term(i) } else { Term::Iri("Thing".into()) };
        triples.push(Triple {
            subject: Term::Var("x".into()),
            predicate: Term::Iri(PREDICATES[p as usize].into()),
            object,
        });
    }
    // Any slot beyond the triples count is unbound.
    let slots: Vec<SlotBinding> = (0..slot_count)
        .map(|i| if i < raw.predicates.len() { SlotBinding::Bound } else { SlotBinding::Unbound })
        .collect();
    Template::new(nl, SparqlQuery { select: vec!["x".into()], triples }, slots, raw.confidence)
}

proptest! {
    #[test]
    fn io_roundtrips_arbitrary_libraries(raws in prop::collection::vec(template_strategy(), 1..6)) {
        let mut lib = TemplateLibrary::new();
        for raw in &raws {
            lib.add(build(raw));
        }
        let text = to_text(&lib);
        let parsed = from_text(&text).expect("own output parses");
        prop_assert_eq!(parsed.len(), lib.len());
        for (a, b) in lib.templates().iter().zip(parsed.templates()) {
            prop_assert_eq!(&a.nl_tokens, &b.nl_tokens);
            prop_assert_eq!(&a.sparql, &b.sparql);
            prop_assert_eq!(&a.slots, &b.slots);
            prop_assert_eq!(a.confidence, b.confidence);
        }
        // Fixpoint.
        prop_assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn dedup_is_idempotent(raw in template_strategy()) {
        let mut lib = TemplateLibrary::new();
        let t = build(&raw);
        prop_assert!(lib.add(t.clone()));
        prop_assert!(!lib.add(t));
        prop_assert_eq!(lib.len(), 1);
    }
}
