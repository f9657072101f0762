//! Round-trip the text persistence format over a *mined* template library
//! (the offline/online split: templates generated by the join are saved,
//! then reloaded by the serving side).

use uqsj_simjoin::{sim_join, JoinParams};
use uqsj_template::io::{from_text, to_text};
use uqsj_template::{generate_template, TemplateLibrary, TemplateSource};
use uqsj_workload::{qald_like, DatasetConfig};

fn mined_library() -> TemplateLibrary {
    let dataset =
        qald_like(&DatasetConfig { questions: 50, distractors: 30, ..Default::default() });
    let (matches, _) =
        sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, JoinParams::simj(1, 0.5));
    let mut library = TemplateLibrary::new();
    for m in &matches {
        let source = TemplateSource {
            analysis: &dataset.analyses[m.g_index],
            query: &dataset.d_queries[m.q_index],
            query_terms: &dataset.d_terms[m.q_index],
            mapping: &m.mapping,
            confidence: m.prob,
        };
        if let Some(t) = generate_template(&source) {
            library.add(t);
        }
    }
    library
}

#[test]
fn mined_library_roundtrips_through_text() {
    let library = mined_library();
    assert!(!library.is_empty(), "join produced no templates — test is vacuous");

    let text = to_text(&library);
    let reloaded = from_text(&text).expect("serialized library must parse back");

    assert_eq!(reloaded.len(), library.len(), "template count changed");
    for (a, b) in library.templates().iter().zip(reloaded.templates()) {
        assert_eq!(a.nl_tokens, b.nl_tokens);
        assert_eq!(a.sparql, b.sparql);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.dep_tree, b.dep_tree, "dep tree must rebuild identically");
        // Confidence is serialized in its shortest round-trip form, so the
        // reloaded library breaks (TED, confidence) ties like the mined one.
        assert_eq!(a.confidence, b.confidence);
    }
    assert!(
        library
            .templates()
            .iter()
            .any(|t| format!("{:.6}", t.confidence).parse() != Ok(t.confidence)),
        "no confidence needs more than 6 decimals — the exact check is vacuous"
    );

    // A second round trip is textually stable (parse → print is a fixpoint).
    let text2 = to_text(&reloaded);
    assert_eq!(text, text2, "second serialization must be byte-identical");
}

#[test]
fn roundtrip_preserves_deduplication() {
    let library = mined_library();
    let reloaded = from_text(&to_text(&library)).unwrap();
    // Re-adding every reloaded template to itself must change nothing: the
    // library was already deduplicated when mined.
    let mut again = TemplateLibrary::new();
    for t in reloaded.templates() {
        again.add(t.clone());
    }
    for t in reloaded.templates() {
        assert!(!again.add(t.clone()), "duplicate template was not deduplicated");
    }
    assert_eq!(again.len(), library.len());
}
