//! Template generation from one similar graph pair (Sec. 2.1, Step 3 /
//! Fig. 4 of the paper).
//!
//! Given a question analysis (the `g` side), a SPARQL query (the `q`
//! side), and the GED vertex mapping between their join graphs, every
//! entity/class *mention* of the question whose vertex maps onto a
//! constant of the query becomes a paired slot: the mention's tokens are
//! replaced by `<_>` in the NL pattern and the constant is replaced by a
//! slot placeholder in the SPARQL pattern, preserving the correspondence.
//!
//! [`fold_templates`] runs [`generate_template`] over a join's matches,
//! once per (query class, question) wherever the class's members would
//! yield the same template.

use crate::template::{slot_index, slot_term, SlotBinding, Template, SPARQL_SLOT_PREFIX};
use uqsj_ged::astar::GedResult;
use uqsj_nlp::align::SLOT_TOKEN;
use uqsj_nlp::semantic::QuestionAnalysis;
use uqsj_sparql::{SparqlQuery, Term};

/// Everything needed to build one template.
pub struct TemplateSource<'a> {
    /// The question analysis (g side of the matched pair).
    pub analysis: &'a QuestionAnalysis,
    /// The matched SPARQL query (q side).
    pub query: &'a SparqlQuery,
    /// SPARQL term behind each vertex of the query's join graph.
    pub query_terms: &'a [Term],
    /// GED mapping from query-graph vertices to question-graph vertices.
    pub mapping: &'a GedResult,
    /// Similarity probability of the pair.
    pub confidence: f64,
}

/// Build a template; `None` when no mention binds into the query (such a
/// pair carries no reusable structure).
pub fn generate_template(src: &TemplateSource<'_>) -> Option<Template> {
    // Invert the q→g mapping to g→q.
    let g_vertex_count = src.analysis.vertices.len();
    let mut g_to_q: Vec<Option<usize>> = vec![None; g_vertex_count];
    for (qv, image) in src.mapping.mapping.iter().enumerate() {
        if let Some(gv) = image {
            if gv.index() < g_vertex_count {
                g_to_q[gv.index()] = Some(qv);
            }
        }
    }

    let mut sparql = src.query.clone();
    let mut nl_tokens: Vec<String> = Vec::new();
    let mut slots: Vec<SlotBinding> = Vec::new();
    let mut bound = 0usize;

    // Mention spans are in token order; walk the tokens, cutting slots.
    let mut cursor = 0usize;
    for &(g_vertex, start, end) in &src.analysis.mention_spans {
        while cursor < start {
            nl_tokens.push(src.analysis.tokens[cursor].clone());
            cursor += 1;
        }
        let slot_id = slots.len();
        nl_tokens.push(SLOT_TOKEN.to_owned());
        cursor = end;

        // Which SPARQL constant does this mention map to?
        let binding = g_to_q[g_vertex]
            .and_then(|qv| src.query_terms.get(qv))
            .filter(|term| !term.is_var())
            .cloned();
        match binding {
            Some(term) => {
                let placeholder = slot_term(slot_id);
                let mut replaced = false;
                for triple in &mut sparql.triples {
                    for t in [&mut triple.subject, &mut triple.object] {
                        if *t == term {
                            *t = placeholder.clone();
                            replaced = true;
                        }
                    }
                }
                if replaced {
                    bound += 1;
                    slots.push(SlotBinding::Bound);
                } else {
                    slots.push(SlotBinding::Unbound);
                }
            }
            None => slots.push(SlotBinding::Unbound),
        }
    }
    while cursor < src.analysis.tokens.len() {
        nl_tokens.push(src.analysis.tokens[cursor].clone());
        cursor += 1;
    }

    if bound == 0 {
        return None;
    }
    Some(Template::new(nl_tokens, sparql, slots, src.confidence))
}

/// One qualifying pair handed to [`fold_templates`].
pub struct ClassPair<'a> {
    /// The question (uncertain graph) of the pair.
    pub g: usize,
    /// The class of identical query graphs that `source.query` belongs to.
    pub class: u32,
    /// What [`generate_template`] reads for this pair.
    pub source: TemplateSource<'a>,
}

/// What one [`fold_templates`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// [`generate_template`] calls: one per (class, question), plus one per
    /// member that could not reuse its class's outcome.
    pub generated: usize,
    /// Members that reused their class's outcome without generating.
    pub reused: usize,
}

/// The first pair of a class within one question's run, and its outcome.
struct Leader<'a> {
    class: u32,
    source: TemplateSource<'a>,
    /// Position of the leader's template in the output, if it made one.
    template: Option<usize>,
}

/// Generate the templates of `pairs`, in order, dropping each template
/// that is identical to one already generated for the same class and
/// question. Adding the result to a [`crate::TemplateLibrary`] builds the
/// library that adding `generate_template` of every pair would.
///
/// Members of a class are the same graph, so a join gives them the same
/// mapping and probability, and their templates differ only through
/// their SPARQL terms. The first pair of each class within a question's
/// run (consecutive pairs with the same `g`) generates its template. A
/// later member reuses that outcome (a template, or none) when
///
/// * its mapping, probability and analysis are the leader's;
/// * the leader's bound slots are exactly the mentions that the mapping
///   sends to a constant of the member (none, when the leader made no
///   template), and none of those constants is itself a slot
///   placeholder;
/// * its SPARQL equals the leader's template once each of those constants
///   is read as its slot's placeholder: the same `select`, predicates,
///   subjects and objects, with every slot filled somewhere (so one
///   constant at two slotted vertices never matches).
///
/// Any other member generates its own template. The check allocates
/// nothing. A reused member's template would equal the leader's, so
/// leaving it out changes neither the first-wins order nor the
/// max-confidence merge of the library.
pub fn fold_templates<'a>(
    pairs: impl IntoIterator<Item = ClassPair<'a>>,
) -> (Vec<Template>, FoldStats) {
    let mut templates = Vec::new();
    let mut stats = FoldStats::default();
    let mut g = None;
    let mut leaders: Vec<Leader<'a>> = Vec::new();
    let mut slotted = Vec::new();
    for pair in pairs {
        if g != Some(pair.g) {
            g = Some(pair.g);
            leaders.clear();
        }
        if let Some(leader) = leaders.iter().find(|l| l.class == pair.class) {
            if reuses(leader, &pair.source, &templates, &mut slotted) {
                stats.reused += 1;
            } else {
                stats.generated += 1;
                templates.extend(generate_template(&pair.source));
            }
            continue;
        }
        stats.generated += 1;
        let template = generate_template(&pair.source).map(|t| {
            templates.push(t);
            templates.len() - 1
        });
        leaders.push(Leader { class: pair.class, source: pair.source, template });
    }
    (templates, stats)
}

/// The query term that `src.mapping` sends to mention `i`, found the way
/// [`generate_template`] finds it (the last query vertex mapped there).
fn mention_term<'a>(src: &TemplateSource<'a>, i: usize) -> Option<&'a Term> {
    let gv = src.analysis.mention_spans[i].0;
    let qv = src.mapping.mapping.iter().rposition(|v| v.is_some_and(|v| v.index() == gv))?;
    src.query_terms.get(qv)
}

/// Whether `member` would generate exactly the leader's outcome. Fills
/// `slotted` with each slotted mention's constant in `member`, and whether
/// it was found in the SPARQL.
fn reuses<'a>(
    leader: &Leader<'_>,
    member: &TemplateSource<'a>,
    templates: &[Template],
    slotted: &mut Vec<(usize, &'a Term, bool)>,
) -> bool {
    let lead = &leader.source;
    if !std::ptr::eq(lead.analysis, member.analysis)
        || lead.mapping != member.mapping
        || lead.confidence != member.confidence
    {
        return false;
    }
    slotted.clear();
    for i in 0..member.analysis.mention_spans.len() {
        if let Some(c) = mention_term(member, i).filter(|t| !t.is_var()) {
            if slot_index(c).is_some() {
                return false;
            }
            slotted.push((i, c, false));
        }
    }
    let Some(at) = leader.template else { return slotted.is_empty() };
    let (Template { sparql, slots, .. }, query) = (&templates[at], member.query);
    let bound = slots.iter().filter(|&s| *s == SlotBinding::Bound).count();
    if bound != slotted.len() || slotted.iter().any(|&(i, _, _)| slots[i] != SlotBinding::Bound) {
        return false;
    }
    if sparql.select != query.select || sparql.triples.len() != query.triples.len() {
        return false;
    }
    for (t, q) in sparql.triples.iter().zip(&query.triples) {
        if t.predicate != q.predicate {
            return false;
        }
        for (t, q) in [(&t.subject, &q.subject), (&t.object, &q.object)] {
            match slotted.iter_mut().find(|(_, c, _)| *c == q) {
                Some((i, _, found)) if is_slot_term(t, *i) => *found = true,
                Some(_) => return false,
                None if t != q => return false,
                None => {}
            }
        }
    }
    slotted.iter().all(|&(_, _, found)| found)
}

/// Whether `t` is exactly [`slot_term`]`(i)`, without building it.
fn is_slot_term(t: &Term, i: usize) -> bool {
    let Term::Iri(iri) = t else { return false };
    iri.strip_prefix(SPARQL_SLOT_PREFIX).and_then(|s| s.strip_suffix("__")).is_some_and(|d| {
        d.bytes().all(|b| b.is_ascii_digit())
            && (d == "0" || !d.starts_with('0'))
            && d.parse() == Ok(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::SymbolTable;
    use uqsj_nlp::lexicon::paper_lexicon;
    use uqsj_nlp::semantic::analyze_question;
    use uqsj_sparql::parse;

    /// Reproduce the paper's Fig. 4: question "which politician graduated
    /// from CIT?" joined with the Artist/Harvard query q1 yields the
    /// template "Which <_> graduated from <_>?" with two SPARQL slots.
    #[test]
    fn reproduces_figure4() {
        let lex = paper_lexicon();
        let analysis = analyze_question(&lex, "Which politician graduated from CIT?").unwrap();
        let mut table = SymbolTable::new();
        let g = analysis.uncertain_graph(&mut table);

        // q1 of the paper.
        let query = parse(
            "SELECT ?person WHERE { ?person type Artist . ?person graduatedFrom Harvard_University . }",
        )
        .unwrap();
        // Build q's join graph with class abstraction by hand: Artist and
        // Harvard_University(→University) mirror the paper's Fig. 3.
        let mut q_graph = uqsj_graph::Graph::new();
        let v_person = q_graph.add_vertex(table.intern("?person"));
        let v_artist = q_graph.add_vertex(table.intern("Artist"));
        let v_univ = q_graph.add_vertex(table.intern("University"));
        q_graph.add_edge(v_person, v_artist, table.intern("type"));
        q_graph.add_edge(v_person, v_univ, table.intern("graduatedFrom"));
        let query_terms = vec![
            uqsj_sparql::Term::Var("person".into()),
            uqsj_sparql::Term::Iri("Artist".into()),
            uqsj_sparql::Term::Iri("Harvard_University".into()),
        ];

        // Verify the pair with SimP and take the best-world mapping, as
        // the join would.
        let outcome = uqsj_uncertain::verify_simp(&table, &q_graph, &g, 2, 0.1);
        assert!(outcome.passed);
        let mapping = outcome.best_mapping.unwrap();

        let template = generate_template(&TemplateSource {
            analysis: &analysis,
            query: &query,
            query_terms: &query_terms,
            mapping: &mapping,
            confidence: outcome.prob,
        })
        .expect("template");

        assert_eq!(template.nl_pattern(), "Which <_> graduated from <_> ?");
        let text = template.sparql.to_string();
        assert!(text.contains("__SLOT_0__"), "{text}");
        assert!(text.contains("__SLOT_1__"), "{text}");
        assert!(!text.contains("Artist") && !text.contains("Harvard_University"), "{text}");
        assert_eq!(template.slots, vec![SlotBinding::Bound, SlotBinding::Bound]);
    }

    #[test]
    fn unbound_when_nothing_maps() {
        let lex = paper_lexicon();
        let analysis = analyze_question(&lex, "Which politician graduated from CIT?").unwrap();
        // A mapping that deletes every query vertex binds nothing.
        let mapping = GedResult { distance: 99, mapping: vec![None, None, None] };
        let query = parse("SELECT ?p WHERE { ?p type Artist . }").unwrap();
        let query_terms =
            vec![uqsj_sparql::Term::Var("p".into()), uqsj_sparql::Term::Iri("Artist".into())];
        let src = TemplateSource {
            analysis: &analysis,
            query: &query,
            query_terms: &query_terms,
            mapping: &mapping,
            confidence: 0.5,
        };
        assert!(generate_template(&src).is_none());
    }
}
