//! The reuse rule of `fold_templates`, one hand-built case per branch.
//!
//! Every case joins the question "Which politician graduated from CIT?"
//! with a leader query and one member of the leader's class under the same
//! mapping: the leader's vertex 1 maps to the "politician" mention, vertex
//! 2 to the "CIT" mention, and every other vertex is deleted. Each case
//! checks the fold's counters and that its templates build the library
//! that `generate_template` of every pair builds.

use uqsj_ged::astar::GedResult;
use uqsj_graph::VertexId;
use uqsj_nlp::lexicon::paper_lexicon;
use uqsj_nlp::semantic::{analyze_question, QuestionAnalysis};
use uqsj_sparql::{parse, SparqlQuery, Term};
use uqsj_template::{
    fold_templates, generate_template, ClassPair, FoldStats, SlotBinding, Template,
    TemplateLibrary, TemplateSource,
};

const LEADER: &str =
    "SELECT ?person WHERE { ?person type Artist . ?person graduatedFrom Harvard_University . }";

fn analysis() -> QuestionAnalysis {
    analyze_question(&paper_lexicon(), "Which politician graduated from CIT?").unwrap()
}

/// Query vertices 1 and 2 map onto the two mentions; the rest are deleted.
fn mapping(analysis: &QuestionAnalysis, vertices: usize) -> GedResult {
    let mut mapping = vec![None; vertices];
    mapping[1] = Some(VertexId(analysis.mention_spans[0].0 as u32));
    mapping[2] = Some(VertexId(analysis.mention_spans[1].0 as u32));
    GedResult { distance: 1, mapping }
}

/// The term behind each vertex, in first-appearance order as the join
/// graph numbers them.
fn terms(query: &SparqlQuery) -> Vec<Term> {
    let mut terms: Vec<Term> = Vec::new();
    for t in &query.triples {
        for term in [&t.subject, &t.object] {
            if !terms.contains(term) {
                terms.push(term.clone());
            }
        }
    }
    terms
}

fn library(templates: impl IntoIterator<Item = Template>) -> Vec<Template> {
    let mut library = TemplateLibrary::new();
    for t in templates {
        library.add(t);
    }
    library.templates().to_vec()
}

/// A question index, a query and the terms behind its vertices.
type Pair<'a> = (usize, &'a SparqlQuery, &'a [Term]);

fn source<'a>(
    analysis: &'a QuestionAnalysis,
    mapping: &'a GedResult,
    &(_, query, query_terms): &Pair<'a>,
) -> TemplateSource<'a> {
    TemplateSource { analysis, query, query_terms, mapping, confidence: 0.75 }
}

/// Fold `pairs` of one class, all under `mapping`, and check the library
/// against per-pair generation. Returns the fold's counters and templates.
fn fold(
    analysis: &QuestionAnalysis,
    mapping: &GedResult,
    pairs: &[Pair<'_>],
) -> (FoldStats, Vec<Template>) {
    let (templates, stats) = fold_templates(pairs.iter().map(|p| ClassPair {
        g: p.0,
        class: 3,
        source: source(analysis, mapping, p),
    }));
    let reference =
        library(pairs.iter().filter_map(|p| generate_template(&source(analysis, mapping, p))));
    assert_eq!(library(templates.clone()), reference, "the fold changed the library");
    assert_eq!(stats.generated + stats.reused, pairs.len());
    (stats, templates)
}

/// Fold the leader query and one member query, both with their own terms.
fn leader_and(member: &str) -> (FoldStats, Vec<Template>) {
    let a = analysis();
    let (leader, member) = (parse(LEADER).unwrap(), parse(member).unwrap());
    let (lt, mt) = (terms(&leader), terms(&member));
    fold(&a, &mapping(&a, lt.len()), &[(0, &leader, &lt), (0, &member, &mt)])
}

#[test]
fn a_member_differing_only_in_slotted_constants_reuses_the_template() {
    let (stats, templates) = leader_and(
        "SELECT ?person WHERE { ?person type Politician . ?person graduatedFrom CIT . }",
    );
    assert_eq!(stats, FoldStats { generated: 1, reused: 1 });
    assert_eq!(templates.len(), 1);
    assert_eq!(templates[0].slots, [SlotBinding::Bound, SlotBinding::Bound]);
}

#[test]
fn a_member_differing_in_an_unslotted_constant_gives_a_second_template() {
    // Boston and Chicago sit at vertex 3, which the mapping deletes, so they
    // stay literal in the templates.
    let leader = "SELECT ?person WHERE { ?person type Artist . \
                  ?person graduatedFrom Harvard_University . ?person bornIn Boston . }";
    let member = "SELECT ?person WHERE { ?person type Politician . \
                  ?person graduatedFrom CIT . ?person bornIn Chicago . }";
    let a = analysis();
    let (leader, member) = (parse(leader).unwrap(), parse(member).unwrap());
    let (lt, mt) = (terms(&leader), terms(&member));
    let (stats, templates) =
        fold(&a, &mapping(&a, lt.len()), &[(0, &leader, &lt), (0, &member, &mt)]);
    assert_eq!(stats, FoldStats { generated: 2, reused: 0 });
    assert_eq!(library(templates).len(), 2);
}

#[test]
fn a_member_differing_in_a_variable_name_gives_a_second_template() {
    let (stats, templates) =
        leader_and("SELECT ?p WHERE { ?p type Politician . ?p graduatedFrom CIT . }");
    assert_eq!(stats, FoldStats { generated: 2, reused: 0 });
    assert_eq!(library(templates).len(), 2);
}

#[test]
fn a_variable_where_the_leader_has_a_constant_generates_its_own_template() {
    // Vertex 1 is `?c`, a variable, where the leader has the constant Artist.
    let (stats, templates) =
        leader_and("SELECT ?person WHERE { ?person type ?c . ?person graduatedFrom CIT . }");
    assert_eq!(stats, FoldStats { generated: 2, reused: 0 });
    assert_eq!(templates[1].slots, [SlotBinding::Unbound, SlotBinding::Bound]);
}

#[test]
fn one_constant_at_two_slotted_vertices_generates_its_own_template() {
    // The member's vertices 1 and 2 both carry CIT: slot 0 takes both of its
    // positions and slot 1 is left unbound.
    let a = analysis();
    let leader = parse(LEADER).unwrap();
    let member =
        parse("SELECT ?person WHERE { ?person type CIT . ?person graduatedFrom CIT . }").unwrap();
    let lt = terms(&leader);
    let mt = vec![Term::Var("person".into()), Term::Iri("CIT".into()), Term::Iri("CIT".into())];
    let (stats, templates) =
        fold(&a, &mapping(&a, lt.len()), &[(0, &leader, &lt), (0, &member, &mt)]);
    assert_eq!(stats, FoldStats { generated: 2, reused: 0 });
    assert_eq!(templates[1].slots, [SlotBinding::Bound, SlotBinding::Unbound]);
}

#[test]
fn a_member_constant_spelled_like_a_slot_placeholder_generates_its_own_template() {
    // The member's vertex 2 is the IRI `__SLOT_0__`. Generating slot 1
    // rewrites it together with slot 0's placeholder, so the member's
    // template is not the leader's even though its SPARQL reads like it.
    let (stats, templates) = leader_and(
        "SELECT ?person WHERE { ?person type Politician . ?person graduatedFrom __SLOT_0__ . }",
    );
    assert_eq!(stats, FoldStats { generated: 2, reused: 0 });
    assert_eq!(library(templates).len(), 2);
}

#[test]
fn a_leader_constant_left_unbound_is_never_reused() {
    // Harvard_University sits at vertex 2 but in no triple, so the leader's
    // slot 1 is unbound; the member's template happens to be the same, but
    // the fold cannot know that without generating it.
    let a = analysis();
    let leader = parse("SELECT ?person WHERE { ?person type Artist . }").unwrap();
    let member = parse("SELECT ?person WHERE { ?person type Politician . }").unwrap();
    let lt = vec![Term::Var("person".into()), Term::Iri("Artist".into()), Term::Iri("H".into())];
    let mt =
        vec![Term::Var("person".into()), Term::Iri("Politician".into()), Term::Iri("C".into())];
    let (stats, templates) =
        fold(&a, &mapping(&a, lt.len()), &[(0, &leader, &lt), (0, &member, &mt)]);
    assert_eq!(stats, FoldStats { generated: 2, reused: 0 });
    assert_eq!(templates[0].slots, [SlotBinding::Bound, SlotBinding::Unbound]);
}

#[test]
fn no_template_is_reused_as_no_template() {
    // Every vertex deleted: no mention binds, so neither pair has a template.
    let a = analysis();
    let (leader, member) = (
        parse(LEADER).unwrap(),
        parse("SELECT ?person WHERE { ?person type Politician . ?person graduatedFrom CIT . }")
            .unwrap(),
    );
    let (lt, mt) = (terms(&leader), terms(&member));
    let deleted = GedResult { distance: 6, mapping: vec![None; lt.len()] };
    let (stats, templates) = fold(&a, &deleted, &[(0, &leader, &lt), (0, &member, &mt)]);
    assert_eq!(stats, FoldStats { generated: 1, reused: 1 });
    assert!(templates.is_empty());
}

#[test]
fn each_question_generates_its_own_leader() {
    // The same class under a new `g` starts over: its first pair generates.
    let a = analysis();
    let leader = parse(LEADER).unwrap();
    let lt = terms(&leader);
    let m = mapping(&a, lt.len());
    let (stats, templates) =
        fold(&a, &m, &[(0, &leader, &lt), (0, &leader, &lt), (1, &leader, &lt)]);
    assert_eq!(stats, FoldStats { generated: 2, reused: 1 });
    assert_eq!(templates.len(), 2);
}
