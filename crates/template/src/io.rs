//! Template library persistence: a plain-text format so generated
//! template sets can be shipped and reloaded without re-running the join
//! (the paper's offline/online split — templates are mined offline and
//! used online).
//!
//! Format, one record per template, blank-line separated:
//!
//! ```text
//! #template confidence=0.93 slots=BU
//! nl: Which <_> graduated from <_> ?
//! sparql: SELECT ?x WHERE { ?x type __SLOT_0__ . ?x graduatedFrom __SLOT_1__ . }
//! ```
//!
//! `slots` encodes each slot's binding: `B`ound or `U`nbound.

use crate::qa::TemplateLibrary;
use crate::template::{SlotBinding, Template};
use std::fmt;

/// Error while parsing a serialized library.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateIoError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based ordinal of the template record being parsed when the
    /// error occurred.
    pub template: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TemplateIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "template parse error in template #{} on line {}: {}",
            self.template, self.line, self.message
        )
    }
}

impl std::error::Error for TemplateIoError {}

/// Serialize a library to text.
pub fn to_text(library: &TemplateLibrary) -> String {
    let mut out = String::new();
    for t in library.templates() {
        let slots: String =
            t.slots.iter().map(|s| if *s == SlotBinding::Bound { 'B' } else { 'U' }).collect();
        // `{}` is the shortest text that parses back to the same f64, so a
        // reloaded library breaks ranking ties exactly as the mined one.
        out.push_str(&format!("#template confidence={} slots={}\n", t.confidence, slots));
        out.push_str(&format!("nl: {}\n", t.nl_tokens.join(" ")));
        let sparql_one_line = t.sparql.to_string().replace('\n', " ");
        out.push_str(&format!("sparql: {}\n\n", sparql_one_line));
    }
    out
}

/// Parse a library from text.
pub fn from_text(text: &str) -> Result<TemplateLibrary, TemplateIoError> {
    let mut library = TemplateLibrary::new();
    let mut lines = text.lines().enumerate().peekable();
    let mut ordinal = 0usize;
    while let Some((i, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Everything until the next blank line belongs to this record.
        ordinal += 1;
        let err =
            |line: usize, message: String| TemplateIoError { line, template: ordinal, message };
        let header = line
            .strip_prefix("#template")
            .ok_or_else(|| err(i + 1, "expected #template header".into()))?;
        let mut confidence = 0.0f64;
        let mut slots: Vec<SlotBinding> = Vec::new();
        for field in header.split_whitespace() {
            if let Some(v) = field.strip_prefix("confidence=") {
                confidence = v.parse().map_err(|_| err(i + 1, format!("bad confidence {v:?}")))?;
            } else if let Some(v) = field.strip_prefix("slots=") {
                slots = v
                    .chars()
                    .map(|c| match c {
                        'B' => Ok(SlotBinding::Bound),
                        'U' => Ok(SlotBinding::Unbound),
                        other => Err(err(i + 1, format!("bad slot flag {other:?}"))),
                    })
                    .collect::<Result<_, _>>()?;
            }
        }
        let (j, nl_line) = lines.next().ok_or_else(|| err(i + 2, "missing nl: line".into()))?;
        let nl = nl_line
            .trim()
            .strip_prefix("nl:")
            .ok_or_else(|| err(j + 1, "expected nl: line".into()))?;
        let nl_tokens: Vec<String> = nl.split_whitespace().map(str::to_owned).collect();
        let (k, sparql_line) =
            lines.next().ok_or_else(|| err(j + 2, "missing sparql: line".into()))?;
        let sparql_text = sparql_line
            .trim()
            .strip_prefix("sparql:")
            .ok_or_else(|| err(k + 1, "expected sparql: line".into()))?;
        let sparql =
            uqsj_sparql::parse(sparql_text.trim()).map_err(|e| err(k + 1, e.to_string()))?;
        let slot_count = nl_tokens.iter().filter(|t| *t == crate::template_slot_token()).count();
        if slots.len() != slot_count {
            return Err(err(
                i + 1,
                format!("slots= lists {} flags but pattern has {slot_count} slots", slots.len()),
            ));
        }
        library.add(Template::new(nl_tokens, sparql, slots, confidence));
    }
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::slot_term;
    use uqsj_sparql::{SparqlQuery, Term, Triple};

    fn library() -> TemplateLibrary {
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
                    predicate: Term::Iri("graduatedFrom".into()),
                    object: slot_term(1),
                },
            ],
        };
        let t = Template::new(
            vec![
                "Which".into(),
                "<_>".into(),
                "graduated".into(),
                "from".into(),
                "<_>".into(),
                "?".into(),
            ],
            sparql,
            vec![SlotBinding::Bound, SlotBinding::Bound],
            0.875,
        );
        let mut lib = TemplateLibrary::new();
        lib.add(t);
        lib
    }

    #[test]
    fn roundtrip() {
        let lib = library();
        let text = to_text(&lib);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        let (a, b) = (&lib.templates()[0], &parsed.templates()[0]);
        assert_eq!(a.nl_tokens, b.nl_tokens);
        assert_eq!(a.sparql, b.sparql);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.confidence, b.confidence);
    }

    #[test]
    fn confidence_roundtrips_exactly_and_fixed_precision_still_parses() {
        let sparql = "SELECT ?x WHERE { ?x type __SLOT_0__ }";
        let mut lib = TemplateLibrary::new();
        lib.add(Template::new(
            vec!["Which".into(), "<_>".into(), "?".into()],
            uqsj_sparql::parse(sparql).unwrap(),
            vec![SlotBinding::Bound],
            0.1 + 0.2,
        ));
        let parsed = from_text(&to_text(&lib)).unwrap();
        assert_eq!(parsed.templates()[0].confidence, 0.1 + 0.2);
        // Files written with six fixed decimals load as before.
        let old =
            format!("#template confidence=0.300000 slots=B\nnl: Which <_> ?\nsparql: {sparql}\n");
        assert_eq!(from_text(&old).unwrap().templates()[0].confidence, 0.3);
    }

    #[test]
    fn parse_errors_carry_line_numbers_and_ordinals() {
        let err = from_text("not a template").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.template, 1);
        let err =
            from_text("#template confidence=x slots=B\nnl: a\nsparql: SELECT ?x WHERE { ?x p ?y }")
                .unwrap_err();
        assert!(err.message.contains("bad confidence"));
        assert_eq!(err.template, 1);
        // An error in the second record names template #2.
        let good = to_text(&library());
        let err =
            from_text(&format!("{good}\n#template confidence=0.5 slots=B\nnl: a\n")).unwrap_err();
        assert_eq!(err.template, 2, "{err}");
        assert!(err.to_string().contains("template #2"), "{err}");
    }

    #[test]
    fn slot_count_mismatch_is_rejected() {
        let text = "#template confidence=0.5 slots=BB\nnl: Which <_> ?\nsparql: SELECT ?x WHERE { ?x type __SLOT_0__ }\n";
        let err = from_text(text).unwrap_err();
        assert!(err.message.contains("slots="), "{err}");
    }

    #[test]
    fn empty_input_is_empty_library() {
        assert!(from_text("").unwrap().is_empty());
        assert!(from_text("\n\n").unwrap().is_empty());
    }
}
