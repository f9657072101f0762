//! Property tests for the NLP substrate: tokenizer invariants, tree edit
//! distance metric properties, and alignment consistency.

use proptest::prelude::*;
use std::ops::Range;
use uqsj_nlp::align::{
    align_ids, align_with_slots, matching_proportion, partial_align_with_slots, PartialAligner,
    TokenIds, SLOT_TOKEN,
};
use uqsj_nlp::deptree::parse_dependency_tokens;
use uqsj_nlp::ted::tree_edit_distance;
use uqsj_nlp::token::tokenize;

const WORDS: [&str; 10] =
    ["which", "actor", "from", "usa", "married", "to", "jordan", "born", "in", "city"];

/// Words that differ only in case, ASCII and not, plus a slot marker and
/// a word the signature counts as a slot.
const MIXED: [&str; 14] = [
    "which", "Which", "WHICH", "from", "FROM", "straße", "STRASSE", "Straße", "é", "É", "über",
    "ÜBER", "slot1", SLOT_TOKEN,
];

fn mixed_strategy(max_len: usize) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(0usize..MIXED.len(), 1..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| MIXED[i].to_owned()).collect())
}

fn phrases(question: &[String], spans: &[Range<usize>]) -> Vec<Vec<String>> {
    spans.iter().map(|r| question[r.clone()].to_vec()).collect()
}

fn sentence_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(0usize..WORDS.len(), 1..10)
        .prop_map(|ix| ix.into_iter().map(|i| WORDS[i].to_owned()).collect())
}

proptest! {
    #[test]
    fn tokenizer_never_emits_empty_tokens(s in "[ -~]{0,60}") {
        for t in tokenize(&s) {
            prop_assert!(!t.is_empty());
            prop_assert!(t == "?" || t.chars().any(|c| c.is_alphanumeric() || c == '\'' || c == '_' || c == '-'));
        }
    }

    #[test]
    fn tokenizer_is_idempotent_on_joined_output(s in "[a-zA-Z ?]{0,60}") {
        let once = tokenize(&s);
        let twice = tokenize(&once.join(" "));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn ted_is_a_semimetric(a in sentence_strategy(), b in sentence_strategy()) {
        let ta = parse_dependency_tokens(&a);
        let tb = parse_dependency_tokens(&b);
        prop_assert_eq!(tree_edit_distance(&ta, &ta), 0, "identity");
        prop_assert_eq!(tree_edit_distance(&ta, &tb), tree_edit_distance(&tb, &ta), "symmetry");
        // TED is bounded by delete-all + insert-all.
        prop_assert!(tree_edit_distance(&ta, &tb) <= (ta.len() + tb.len()) as u32);
    }

    #[test]
    fn ted_triangle_inequality(
        a in sentence_strategy(),
        b in sentence_strategy(),
        c in sentence_strategy(),
    ) {
        let ta = parse_dependency_tokens(&a);
        let tb = parse_dependency_tokens(&b);
        let tc = parse_dependency_tokens(&c);
        let ab = tree_edit_distance(&ta, &tb);
        let bc = tree_edit_distance(&tb, &tc);
        let ac = tree_edit_distance(&ta, &tc);
        prop_assert!(ac <= ab + bc, "triangle violated: {} > {} + {}", ac, ab, bc);
    }

    #[test]
    fn full_alignment_implies_phi_one(
        words in prop::collection::vec(0usize..WORDS.len(), 2..8),
        slot_at in 0usize..8,
    ) {
        // Build a template from the sentence by slotting one position.
        let question: Vec<String> = words.iter().map(|&i| WORDS[i].to_owned()).collect();
        let slot_at = slot_at % question.len();
        let mut template = question.clone();
        template[slot_at] = SLOT_TOKEN.to_owned();
        let slots = align_with_slots(&template, &question).expect("must align");
        prop_assert_eq!(slots.len(), 1);
        prop_assert_eq!(&slots[0], &question[slot_at..slot_at + 1]);
        let phi = matching_proportion(&template, &question);
        prop_assert!((phi - 1.0).abs() < 1e-12);
        // Partial alignment agrees on full matches.
        let (pphi, pslots) = partial_align_with_slots(&template, &question).expect("partial");
        prop_assert!((pphi - 1.0).abs() < 1e-12);
        prop_assert_eq!(pslots, slots);
    }

    #[test]
    fn partial_phi_never_exceeds_one(
        t_words in prop::collection::vec(0usize..WORDS.len(), 1..6),
        q_words in prop::collection::vec(0usize..WORDS.len(), 1..10),
    ) {
        let template: Vec<String> = t_words.iter().map(|&i| WORDS[i].to_owned()).collect();
        let question: Vec<String> = q_words.iter().map(|&i| WORDS[i].to_owned()).collect();
        if let Some((phi, slots)) = partial_align_with_slots(&template, &question) {
            prop_assert!(phi > 0.0 && phi <= 1.0 + 1e-12);
            prop_assert!(slots.is_empty()); // template had no slots
        }
    }

    #[test]
    fn partial_alignment_fills_every_slot_with_one_word(
        template in mixed_strategy(7),
        question in mixed_strategy(10),
    ) {
        // The lemma `NlSignature::phi_upper_bound` and the id aligner rest on.
        if let Some((_, slots)) = partial_align_with_slots(&template, &question) {
            for slot in &slots {
                prop_assert_eq!(slot.len(), 1, "{:?} vs {:?}", template, question);
            }
        }
    }

    #[test]
    fn id_aligners_equal_the_string_oracles(
        templates in prop::collection::vec(mixed_strategy(7), 1..4),
        question in mixed_strategy(10),
    ) {
        let mut vocab = TokenIds::default();
        let encoded: Vec<Vec<u32>> = templates.iter().map(|t| vocab.encode_template(t)).collect();
        let question_ids = vocab.encode_question(&question);
        let mut aligner = PartialAligner::default();
        for (template, ids) in templates.iter().zip(&encoded) {
            let mut spans = Vec::new();
            let full = align_ids(ids, &question_ids, &mut spans).then(|| phrases(&question, &spans));
            prop_assert_eq!(full, align_with_slots(template, &question));
            spans.clear();
            let partial = aligner
                .align(ids, &question_ids, &mut spans)
                .map(|phi| (phi, phrases(&question, &spans)));
            prop_assert_eq!(partial, partial_align_with_slots(template, &question));
        }
    }
}

/// Case variants of one word: a template word and a question word match
/// iff they are ASCII-case-insensitively equal.
fn case_variant(word: &str, pick: u64) -> String {
    match pick % 3 {
        0 => word.to_owned(),
        1 => word.to_ascii_uppercase(),
        _ => word.to_uppercase(),
    }
}

#[test]
fn id_aligners_equal_the_oracles_on_templates_cut_from_questions() {
    // Templates cut from the question itself (some words slotted, some
    // re-cased, some dropped) align often, so both aligners are
    // exercised on successes, not just on failures.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let (mut full_hits, mut partial_hits) = (0, 0);
    let mut aligner = PartialAligner::default();
    for _ in 0..2000 {
        let len = 1 + (next() % 9) as usize;
        let question: Vec<String> =
            (0..len).map(|_| MIXED[(next() % (MIXED.len() as u64 - 1)) as usize].into()).collect();
        let mut template = Vec::new();
        for word in &question {
            match next() % 6 {
                0 => template.push(SLOT_TOKEN.to_owned()),
                1 => {} // dropped: the question has extra material
                2 => template.push(case_variant(word, next())),
                _ => template.push(word.clone()),
            }
        }
        if next() % 4 == 0 {
            template.push("?".into()); // a template word the question lacks
        }
        let mut vocab = TokenIds::default();
        let ids = vocab.encode_template(&template);
        let question_ids = vocab.encode_question(&question);
        let mut spans = Vec::new();
        let full = align_ids(&ids, &question_ids, &mut spans).then(|| phrases(&question, &spans));
        assert_eq!(full, align_with_slots(&template, &question), "{template:?} vs {question:?}");
        full_hits += usize::from(full.is_some());
        spans.clear();
        let partial = aligner
            .align(&ids, &question_ids, &mut spans)
            .map(|phi| (phi, phrases(&question, &spans)));
        assert_eq!(
            partial,
            partial_align_with_slots(&template, &question),
            "{template:?} vs {question:?}"
        );
        partial_hits += usize::from(partial.is_some_and(|(phi, _)| phi < 1.0));
    }
    assert!(full_hits > 100 && partial_hits > 100, "full {full_hits}, partial {partial_hits}");
}
