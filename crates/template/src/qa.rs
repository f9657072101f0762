//! Q/A with templates (Sec. 2.2 of the paper): template matching by
//! dependency-tree edit distance, slot filling by alignment, entity
//! linking, and SPARQL execution.

use crate::template::{slot_index, SlotBinding, Template};
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};
use uqsj_nlp::align::{align_ids, PartialAligner, TokenIds};
use uqsj_nlp::deptree::parse_dependency_tokens;
use uqsj_nlp::signature::NlSignature;
use uqsj_nlp::ted::tree_edit_distance;
use uqsj_nlp::token::tokenize;
use uqsj_nlp::{DepTree, Lexicon};
use uqsj_rdf::TripleStore;
use uqsj_sparql::{SparqlQuery, Term};

pub mod reference;

/// A deduplicated set of templates.
///
/// Beside each template the library keeps what the answer path derives
/// from its NL pattern: the [`NlSignature`] and the tokens as
/// [`TokenIds`] ids. [`TemplateLibrary::add`] builds them, so they are
/// rebuilt on every load and never persisted. A map from
/// [`Template::dedup_key`] to position finds a duplicate without scanning
/// the library.
#[derive(Debug, Default)]
pub struct TemplateLibrary {
    templates: Vec<Template>,
    /// `by_key[&templates[i].dedup_key()] == i`.
    by_key: HashMap<(String, String), usize>,
    /// `signatures[i]` summarizes `templates[i].nl_tokens`.
    signatures: Vec<NlSignature>,
    /// `token_ids[i]` is `templates[i].nl_tokens` encoded by `vocab`.
    token_ids: Vec<Vec<u32>>,
    vocab: TokenIds,
}

impl TemplateLibrary {
    /// Empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a template; returns `false` (and keeps the higher-confidence
    /// copy) when an identical pattern pair already exists.
    pub fn add(&mut self, t: Template) -> bool {
        let key = t.dedup_key();
        if let Some(&i) = self.by_key.get(&key) {
            let existing = &mut self.templates[i];
            if t.confidence > existing.confidence {
                existing.confidence = t.confidence;
            }
            return false;
        }
        self.by_key.insert(key, self.templates.len());
        self.signatures.push(NlSignature::of_tokens(&t.nl_tokens));
        self.token_ids.push(self.vocab.encode_template(&t.nl_tokens));
        self.templates.push(t);
        true
    }

    /// Number of distinct templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// The signature of each template's NL pattern, in template order.
    pub fn signatures(&self) -> &[NlSignature] {
        &self.signatures
    }
}

/// Result of answering one question.
#[derive(Clone, Debug, Default)]
pub struct QaOutcome {
    /// The instantiated SPARQL query, if a template applied.
    pub sparql: Option<SparqlQuery>,
    /// Decoded answers.
    pub answers: Vec<String>,
    /// Index of the chosen template.
    pub template_index: Option<usize>,
    /// Matching proportion φ of the chosen alignment.
    pub phi: f64,
}

/// Answer a question with the library. `min_phi` is the Table-5 knob:
/// `1.0` requires a full template match; lower values admit partial
/// matches ("we can also generate SPARQL queries based on this partial
/// match", Appendix F.2). Every template is a candidate: this is the
/// unfiltered path the serving layer's signature-filtered one is tested
/// against. [`reference::eager_answer`] is the eager oracle both must
/// equal.
pub fn answer_question(
    library: &TemplateLibrary,
    lexicon: &Lexicon,
    store: &TripleStore,
    question: &str,
    min_phi: f64,
) -> QaOutcome {
    let candidates = (0..library.len()).map(|index| CandidateRef { library: 0, index });
    answer_across(&[library], candidates, lexicon, store, question, min_phi).0.outcome
}

/// Verification-side counters reported by [`answer_across`], consumed by
/// the serving layer's metrics and EXPLAIN funnel. Every candidate is
/// either skipped or examined.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnswerStats {
    /// Candidates never aligned: their φ bound fell below `min_phi`, or
    /// below the φ of a group whose fill succeeded.
    pub candidates_skipped: usize,
    /// Candidate templates examined (alignment attempted).
    pub candidates_examined: usize,
    /// Candidates that aligned with φ ≥ `min_phi` and entered TED ranking.
    pub candidates_aligned: usize,
    /// Exact tree-edit-distance computations performed.
    pub ted_computed: usize,
    /// Time spent parsing the question and bounding and ordering the
    /// candidates.
    pub bound_time: Duration,
    /// Time spent aligning candidates.
    pub align_time: Duration,
    /// Time spent ranking equal-φ groups by TED and filling and executing
    /// their templates.
    pub ted_time: Duration,
}

/// One aligned candidate awaiting TED ranking.
struct Aligned {
    /// Which library of the candidate slice the template lives in.
    lib: usize,
    index: usize,
    phi: f64,
    confidence: f64,
    /// The candidate's slot spans, as a range of the call's span arena.
    slots: Range<usize>,
    ted_lb: u32,
}

/// A template reference for [`answer_across`]: position `index` of
/// library `library` in the slice handed to the call. The serving layer's
/// sharded store passes `(shard, local index)` pairs here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateRef {
    /// Index into the library slice.
    pub library: usize,
    /// Template index within that library.
    pub index: usize,
}

/// Result of [`answer_across`]: the outcome plus which library the chosen
/// template came from ([`QaOutcome::template_index`] is the index *within*
/// that library).
#[derive(Clone, Debug, Default)]
pub struct MultiAnswer {
    /// The Q/A outcome; `template_index` is local to `library`.
    pub outcome: QaOutcome,
    /// Library slot of the chosen template, if one applied.
    pub library: Option<usize>,
}

/// A candidate with its φ bound, waiting to be aligned.
struct Bounded {
    bound: f64,
    /// Whether the signature admits a full alignment.
    full: bool,
    candidate: CandidateRef,
}

/// What [`try_group`] needs to know about the question and the store.
struct Ranking<'a> {
    libraries: &'a [&'a TemplateLibrary],
    lexicon: &'a Lexicon,
    store: &'a TripleStore,
    tokens: &'a [String],
    tree: &'a DepTree,
}

/// Answer a question by ranking candidates drawn from *several* libraries
/// at once — the sharded template store's merge path; [`answer_question`]
/// passes one library and every index. The total order is (φ desc, TED
/// asc, confidence desc, (library, index) asc): for a sharded store it
/// equals ranking the concatenation of the shard libraries in shard
/// order. The candidates may arrive in any order, but must include every
/// template that can align (the serving layer passes a signature-pruned
/// subset) for the outcome to equal the unfiltered one.
///
/// Alignment runs best-first. Each candidate's φ is bounded from the
/// signatures — 1 when it could fully align, else
/// [`NlSignature::phi_upper_bound`] — and candidates whose bound is below
/// `min_phi` are skipped. The rest are aligned lazily in order of bound
/// desc, then (library, index) asc. An equal-φ group is ranked only once
/// no unaligned candidate's bound reaches its φ, so it holds exactly the
/// members and order the eager oracle ([`reference::eager_answer`])
/// gives it. The first group whose fill succeeds answers; candidates not
/// yet aligned then are never aligned.
///
/// TED — the expensive step (O(n²·m²) Zhang–Shasha) — is evaluated
/// lazily too: candidates within an equal-φ group are verified best-first
/// by their signature lower bound, and a candidate's exact TED is only
/// computed when the bound says it could still precede the current best.
/// Singleton groups skip TED entirely.
pub fn answer_across(
    libraries: &[&TemplateLibrary],
    candidates: impl IntoIterator<Item = CandidateRef>,
    lexicon: &Lexicon,
    store: &TripleStore,
    question: &str,
    min_phi: f64,
) -> (MultiAnswer, AnswerStats) {
    let started = Instant::now();
    let mut stats = AnswerStats::default();
    let tokens = tokenize(question);
    if tokens.is_empty() {
        stats.candidates_skipped = candidates.into_iter().count();
        return (MultiAnswer::default(), stats);
    }
    let question_tree = parse_dependency_tokens(&tokens);
    let question_sig = NlSignature::of_tokens(&tokens);

    let mut queue: Vec<Bounded> = Vec::new();
    for candidate in candidates {
        let sig = &libraries[candidate.library].signatures[candidate.index];
        let (full, partial_bound) = sig.align_bounds(&question_sig);
        let bound = if full {
            1.0
        } else if min_phi < 1.0 {
            partial_bound
        } else {
            0.0 // full matches only, and this one cannot fully align
        };
        if bound + 1e-12 >= min_phi {
            queue.push(Bounded { bound, full, candidate });
        } else {
            stats.candidates_skipped += 1;
        }
    }
    queue.sort_by(|a, b| {
        let key = |x: &Bounded| (x.candidate.library, x.candidate.index);
        b.bound.total_cmp(&a.bound).then(key(a).cmp(&key(b)))
    });
    stats.bound_time = started.elapsed();

    let ranking = Ranking { libraries, lexicon, store, tokens: &tokens, tree: &question_tree };
    // Question ids per library, encoded on first use.
    let mut question_ids: Vec<Option<Vec<u32>>> = vec![None; libraries.len()];
    let mut aligner = PartialAligner::default();
    let mut spans: Vec<Range<usize>> = Vec::new();
    // Aligned candidates whose group has not been ranked yet.
    let mut aligned: Vec<Aligned> = Vec::new();
    let mut next = 0;
    let answer = loop {
        let next_bound = queue.get(next).map(|b| b.bound);
        let top_phi = aligned.iter().map(|a| a.phi).max_by(f64::total_cmp);
        if let Some(phi) = top_phi.filter(|&phi| !next_bound.is_some_and(|b| b >= phi)) {
            // No unaligned candidate can reach φ: the group is complete.
            let (mut group, rest): (Vec<Aligned>, Vec<Aligned>) =
                aligned.into_iter().partition(|a| a.phi == phi);
            aligned = rest;
            let ted_started = Instant::now();
            let hit = try_group(&ranking, &mut group, &spans, &mut stats);
            stats.ted_time += ted_started.elapsed();
            if hit.is_some() {
                break hit;
            }
            continue;
        }
        let Some(Bounded { full, candidate: c, .. }) = queue.get(next) else {
            break None;
        };
        next += 1;
        stats.candidates_examined += 1;
        let library = libraries[c.library];
        let template_ids = &library.token_ids[c.index];
        let question_ids =
            question_ids[c.library].get_or_insert_with(|| library.vocab.encode_question(&tokens));
        let mark = spans.len();
        let phi = if *full && align_ids(template_ids, question_ids, &mut spans) {
            Some(1.0)
        } else if min_phi < 1.0 {
            aligner
                .align(template_ids, question_ids, &mut spans)
                .filter(|phi| phi + 1e-12 >= min_phi)
        } else {
            None
        };
        let Some(phi) = phi else {
            spans.truncate(mark);
            continue;
        };
        stats.candidates_aligned += 1;
        aligned.push(Aligned {
            lib: c.library,
            index: c.index,
            phi,
            confidence: library.templates[c.index].confidence,
            slots: mark..spans.len(),
            ted_lb: library.signatures[c.index].ted_lower_bound(&question_sig),
        });
    };
    stats.candidates_skipped += queue.len() - next;
    stats.align_time = started.elapsed().saturating_sub(stats.bound_time + stats.ted_time);
    (answer.unwrap_or_default(), stats)
}

/// Try every candidate of one equal-φ group in exact (TED asc, confidence
/// desc, index asc) order, computing exact TEDs only when the signature
/// lower bound cannot already separate candidates.
fn try_group(
    ranking: &Ranking,
    group: &mut [Aligned],
    spans: &[Range<usize>],
    stats: &mut AnswerStats,
) -> Option<MultiAnswer> {
    let attempt = |c: &Aligned| -> Option<MultiAnswer> {
        let template = &ranking.libraries[c.lib].templates()[c.index];
        let phrases: Vec<String> =
            spans[c.slots.clone()].iter().map(|r| ranking.tokens[r.clone()].join(" ")).collect();
        fill_and_execute(template, &phrases, ranking.lexicon, ranking.store).map(
            |(sparql, answers)| MultiAnswer {
                outcome: QaOutcome {
                    sparql: Some(sparql),
                    answers,
                    template_index: Some(c.index),
                    phi: c.phi,
                },
                library: Some(c.lib),
            },
        )
    };

    if let [single] = group {
        // A singleton group needs no TED at all: its rank is decided by φ.
        return attempt(single);
    }

    // Unverified candidates ordered by (lower bound, library, index);
    // exact TEDs fill `verified` only while the smallest outstanding bound
    // could still beat (or tie, which matters for the confidence tiebreak)
    // the best verified candidate.
    group.sort_by_key(|c| (c.ted_lb, c.lib, c.index));
    let mut unverified: std::collections::VecDeque<&Aligned> = group.iter().collect();
    let mut verified: Vec<(u32, &Aligned)> = Vec::new();
    loop {
        while let Some(&next) = unverified.front() {
            let best_ted = verified.iter().map(|&(ted, _)| ted).min();
            if best_ted.is_some_and(|b| next.ted_lb > b) {
                break;
            }
            let template = &ranking.libraries[next.lib].templates()[next.index];
            let ted = tree_edit_distance(&template.dep_tree, ranking.tree);
            stats.ted_computed += 1;
            verified.push((ted, next));
            unverified.pop_front();
        }
        let Some(best) = verified
            .iter()
            .enumerate()
            .min_by(|(_, (ta, a)), (_, (tb, b))| {
                ta.cmp(tb)
                    .then(b.confidence.partial_cmp(&a.confidence).expect("confidence is finite"))
                    .then((a.lib, a.index).cmp(&(b.lib, b.index)))
            })
            .map(|(k, _)| k)
        else {
            return None; // group exhausted
        };
        let (_, candidate) = verified.swap_remove(best);
        if let Some(answer) = attempt(candidate) {
            return Some(answer);
        }
    }
}

/// Instantiate and execute, disambiguating entity slots against the
/// knowledge base: candidate combinations are tried in descending joint
/// confidence and the first non-empty result wins; if every combination
/// is empty, the most confident instantiation is returned. This is where
/// template-based Q/A beats direct translation — the SPARQL pattern
/// supplies enough context to reject linkings the data contradicts.
/// `phrases[i]` is the question phrase slot `i` captured, its words
/// joined by single spaces.
fn fill_and_execute(
    template: &Template,
    phrases: &[String],
    lexicon: &Lexicon,
    store: &TripleStore,
) -> Option<(SparqlQuery, Vec<String>)> {
    // Ranked candidate lists per slot (entities by confidence, or the
    // class resolution).
    let mut options: Vec<Vec<(String, f64)>> = Vec::with_capacity(phrases.len());
    for (i, phrase) in phrases.iter().enumerate() {
        if template.slots.get(i) != Some(&SlotBinding::Bound) {
            options.push(vec![(String::new(), 1.0)]); // unused slot
            continue;
        }
        let mut cands: Vec<(String, f64)> = match lexicon.link(phrase) {
            Some(cs) => cs.iter().map(|c| (c.entity.clone(), c.prob)).collect(),
            None => match lexicon.class_of_noun(phrase) {
                Some(class) => vec![(class.to_owned(), 1.0)],
                None => return None,
            },
        };
        cands.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite confidence"));
        cands.truncate(3);
        options.push(cands);
    }
    // Enumerate combinations in descending joint confidence (small
    // product space: <= 3^slots, slots are few).
    let mut combos: Vec<(Vec<usize>, f64)> = vec![(vec![0; options.len()], 1.0)];
    for (s, opts) in options.iter().enumerate() {
        let mut next = Vec::with_capacity(combos.len() * opts.len());
        for (choice, p) in &combos {
            for (ci, (_, cp)) in opts.iter().enumerate() {
                let mut c = choice.clone();
                c[s] = ci;
                next.push((c, p * cp));
            }
        }
        combos = next;
    }
    combos.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite confidence"));

    let mut fallback: Option<(SparqlQuery, Vec<String>)> = None;
    for (choice, _) in combos {
        let mut sparql = template.sparql.clone();
        for triple in &mut sparql.triples {
            for t in [&mut triple.subject, &mut triple.object] {
                if let Some(i) = slot_index(t) {
                    if template.slots.get(i) != Some(&SlotBinding::Bound) {
                        return None; // placeholder without a usable slot
                    }
                    *t = Term::Iri(options[i][choice[i]].0.clone());
                }
            }
        }
        let answers: Vec<String> =
            uqsj_rdf::bgp::evaluate(store, &sparql).into_iter().map(|row| row.join("\t")).collect();
        if !answers.is_empty() {
            return Some((sparql, answers));
        }
        if fallback.is_none() {
            fallback = Some((sparql, answers));
        }
    }
    fallback
}

/// Instantiate a template's SPARQL with linked slot phrases. Entity
/// phrases link to their most confident candidate; class nouns resolve to
/// their class. Fails if any *bound* slot cannot be linked.
pub fn fill_slots(
    template: &Template,
    slot_phrases: &[Vec<String>],
    lexicon: &Lexicon,
) -> Option<SparqlQuery> {
    if slot_phrases.len() != template.slot_count() {
        return None;
    }
    let mut sparql = template.sparql.clone();
    for triple in &mut sparql.triples {
        for t in [&mut triple.subject, &mut triple.object] {
            if let Some(i) = slot_index(t) {
                if template.slots.get(i) != Some(&SlotBinding::Bound) {
                    return None; // placeholder without a usable slot
                }
                let phrase = slot_phrases[i].join(" ");
                let linked = link_phrase(lexicon, &phrase)?;
                *t = Term::Iri(linked);
            }
        }
    }
    Some(sparql)
}

/// Entity-link a slot phrase: top-confidence entity, else class noun.
fn link_phrase(lexicon: &Lexicon, phrase: &str) -> Option<String> {
    if let Some(cands) = lexicon.link(phrase) {
        return cands
            .iter()
            .max_by(|a, b| a.prob.partial_cmp(&b.prob).expect("finite"))
            .map(|c| c.entity.clone());
    }
    lexicon.class_of_noun(phrase).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::slot_term;
    use uqsj_nlp::align::SLOT_TOKEN;
    use uqsj_sparql::Triple;

    fn library() -> TemplateLibrary {
        // "Which <_> graduated from <_> ?" →
        // SELECT ?x { ?x type SLOT0 . ?x graduatedFrom SLOT1 }
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
                SLOT_TOKEN.into(),
                "graduated".into(),
                "from".into(),
                SLOT_TOKEN.into(),
                "?".into(),
            ],
            sparql,
            vec![SlotBinding::Bound, SlotBinding::Bound],
            0.9,
        );
        let mut lib = TemplateLibrary::new();
        assert!(lib.add(t));
        lib
    }

    #[test]
    fn later_higher_confidence_duplicate_merges_into_the_first_copy() {
        let template = |predicate: &str, confidence| {
            let sparql = SparqlQuery {
                select: vec!["x".into()],
                triples: vec![Triple {
                    subject: Term::Var("x".into()),
                    predicate: Term::Iri(predicate.into()),
                    object: slot_term(0),
                }],
            };
            let nl = vec!["Who".into(), "is".into(), SLOT_TOKEN.into(), "?".into()];
            Template::new(nl, sparql, vec![SlotBinding::Bound], confidence)
        };
        let mut lib = TemplateLibrary::new();
        assert!(lib.add(template("p", 0.4)));
        // Same NL pattern, other SPARQL pattern: a distinct template.
        assert!(lib.add(template("q", 0.5)));
        assert!(!lib.add(template("p", 0.9)), "a duplicate is not added");
        assert!(!lib.add(template("p", 0.2)), "a duplicate is not added");
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.signatures().len(), 2);
        // The first copy keeps its position and takes the maximum
        // confidence; the other template is untouched.
        assert_eq!(lib.templates()[0].dedup_key(), template("p", 0.0).dedup_key());
        assert_eq!(lib.templates()[0].confidence, 0.9);
        assert_eq!(lib.templates()[1].dedup_key(), template("q", 0.0).dedup_key());
        assert_eq!(lib.templates()[1].confidence, 0.5);
        assert!(lib.add(template("r", 0.1)), "the map indexes later templates too");
        assert!(!lib.add(template("r", 0.3)));
        assert_eq!(lib.templates()[2].confidence, 0.3);
    }

    fn store() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert("Alice", "type", "Physicist");
        s.insert("Alice", "graduatedFrom", "Carnegie_Mellon_University");
        s.insert("Bob", "type", "Physicist");
        s.insert("Bob", "graduatedFrom", "Harvard_University");
        s.ensure_indexes();
        s
    }

    #[test]
    fn answers_example1_of_the_paper() {
        let lib = library();
        let lex = uqsj_nlp::lexicon::paper_lexicon();
        let mut lex = lex;
        lex.add_class("physicist", "Physicist");
        let store = store();
        let out = answer_question(&lib, &lex, &store, "Which physicist graduated from CMU?", 1.0);
        assert_eq!(out.answers, vec!["Alice".to_string()]);
        assert!((out.phi - 1.0).abs() < 1e-12);
        let sparql = out.sparql.unwrap().to_string();
        assert!(sparql.contains("Physicist"), "{sparql}");
        assert!(sparql.contains("Carnegie_Mellon_University"), "{sparql}");
    }

    #[test]
    fn no_match_returns_empty() {
        let lib = library();
        let lex = uqsj_nlp::lexicon::paper_lexicon();
        let store = store();
        let out = answer_question(&lib, &lex, &store, "Name every mountain on Mars", 1.0);
        assert!(out.sparql.is_none());
        assert!(out.answers.is_empty());
    }

    #[test]
    fn partial_match_mode_answers_with_trailing_noise() {
        let lib = library();
        let mut lex = uqsj_nlp::lexicon::paper_lexicon();
        lex.add_class("physicist", "Physicist");
        let store = store();
        let q = "Which physicist graduated from CMU please tell me now quickly";
        let strict = answer_question(&lib, &lex, &store, q, 1.0);
        assert!(strict.sparql.is_none(), "full match should fail");
        let lenient = answer_question(&lib, &lex, &store, q, 0.5);
        assert_eq!(lenient.answers, vec!["Alice".to_string()]);
        assert!(lenient.phi < 1.0);
    }

    #[test]
    fn dedup_keeps_highest_confidence() {
        let mut lib = library();
        let t2 = {
            let t = &lib.templates()[0];
            let mut c = t.clone();
            c.confidence = 0.99;
            c
        };
        assert!(!lib.add(t2));
        assert_eq!(lib.len(), 1);
        assert!((lib.templates()[0].confidence - 0.99).abs() < 1e-12);
    }

    /// Several templates sharing token structure so that equal-φ groups
    /// have more than one member and the lazy TED path actually has
    /// ordering decisions to make.
    fn crowded_library() -> TemplateLibrary {
        let mk = |tokens: &[&str], predicate: &str, confidence: f64| {
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
                        predicate: Term::Iri(predicate.into()),
                        object: slot_term(1),
                    },
                ],
            };
            Template::new(
                tokens.iter().map(|t| (*t).to_owned()).collect(),
                sparql,
                vec![SlotBinding::Bound, SlotBinding::Bound],
                confidence,
            )
        };
        let mut lib = TemplateLibrary::new();
        let s = SLOT_TOKEN;
        lib.add(mk(&["Which", s, "graduated", "from", s, "?"], "graduatedFrom", 0.9));
        lib.add(mk(&["Which", s, "graduated", "from", s, "?"], "alumnusOf", 0.95));
        lib.add(mk(&["Which", s, "born", "in", s, "?"], "bornIn", 0.8));
        lib.add(Template::new(
            ["Who", "graduated", "from", s, "?"].map(String::from).to_vec(),
            SparqlQuery {
                select: vec!["x".into()],
                triples: vec![Triple {
                    subject: Term::Var("x".into()),
                    predicate: Term::Iri("graduatedFrom".into()),
                    object: slot_term(0),
                }],
            },
            vec![SlotBinding::Bound],
            0.7,
        ));
        lib.add(mk(&["Which", s, "is", "married", "to", s, "?"], "spouse", 0.85));
        lib.add(mk(&["Which", s, "works", "at", s, "?"], "worksAt", 0.6));
        lib
    }

    #[test]
    fn lazy_ranking_matches_eager_ranking() {
        let lib = crowded_library();
        let mut lex = uqsj_nlp::lexicon::paper_lexicon();
        lex.add_class("physicist", "Physicist");
        let store = store();
        let questions = [
            "Which physicist graduated from CMU?",
            "Which physicist born in CMU?",
            "Who graduated from CMU?",
            "Which physicist graduated from CMU please tell me now",
            "Which physicist is married to CMU?",
            "Name every mountain on Mars",
            "",
        ];
        for q in questions {
            for min_phi in [1.0, 0.6, 0.3] {
                let want = reference::eager_answer(&lib, &lex, &store, q, min_phi);
                let candidates = (0..lib.len()).map(|index| CandidateRef { library: 0, index });
                let (got, stats) = answer_across(&[&lib], candidates, &lex, &store, q, min_phi);
                let got = got.outcome;
                assert_eq!(
                    got.sparql.as_ref().map(ToString::to_string),
                    want.sparql.as_ref().map(ToString::to_string),
                    "sparql diverged on {q:?} min_phi={min_phi}"
                );
                assert_eq!(got.answers, want.answers, "answers diverged on {q:?}");
                assert_eq!(got.template_index, want.template_index, "index diverged on {q:?}");
                assert!((got.phi - want.phi).abs() < 1e-12, "phi diverged on {q:?}");
                assert!(
                    stats.ted_computed <= stats.candidates_aligned,
                    "lazy path must never exceed one TED per aligned candidate"
                );
                assert_eq!(stats.candidates_skipped + stats.candidates_examined, lib.len());
            }
        }
    }

    #[test]
    fn answer_across_split_libraries_matches_whole_library() {
        // Deal the crowded library round-robin into 3 sub-libraries; the
        // (library, index) ascending candidate order then visits templates
        // in an order that differs from insertion, but the concatenation
        // of the sub-libraries in slice order IS a valid library, and
        // answer_across must rank exactly like a linear scan over it.
        let whole = crowded_library();
        let parts_count = 3;
        let mut parts: Vec<TemplateLibrary> =
            (0..parts_count).map(|_| TemplateLibrary::new()).collect();
        for (i, t) in whole.templates().iter().enumerate() {
            parts[i % parts_count].add(t.clone());
        }
        let mut concat = TemplateLibrary::new();
        for p in &parts {
            for t in p.templates() {
                concat.add(t.clone());
            }
        }
        let part_refs: Vec<&TemplateLibrary> = parts.iter().collect();
        let candidates: Vec<CandidateRef> = (0..parts_count)
            .flat_map(|lib| {
                (0..part_refs[lib].len()).map(move |index| CandidateRef { library: lib, index })
            })
            .collect();

        let mut lex = uqsj_nlp::lexicon::paper_lexicon();
        lex.add_class("physicist", "Physicist");
        let store = store();
        let questions = [
            "Which physicist graduated from CMU?",
            "Which physicist born in CMU?",
            "Who graduated from CMU?",
            "Which physicist graduated from CMU please tell me now",
            "Name every mountain on Mars",
        ];
        for q in questions {
            for min_phi in [1.0, 0.5] {
                let want = answer_question(&concat, &lex, &store, q, min_phi);
                let (got, _) =
                    answer_across(&part_refs, candidates.iter().copied(), &lex, &store, q, min_phi);
                assert_eq!(
                    got.outcome.sparql.as_ref().map(ToString::to_string),
                    want.sparql.as_ref().map(ToString::to_string),
                    "sparql diverged on {q:?} min_phi={min_phi}"
                );
                assert_eq!(got.outcome.answers, want.answers, "answers diverged on {q:?}");
                assert!((got.outcome.phi - want.phi).abs() < 1e-12, "phi diverged on {q:?}");
                // The chosen template must be the same one: its global
                // index in the concatenation is the prefix sum of the
                // earlier parts plus the local index.
                let global = got.library.map(|lib| {
                    part_refs[..lib].iter().map(|p| p.len()).sum::<usize>()
                        + got.outcome.template_index.expect("library implies index")
                });
                assert_eq!(global, want.template_index, "template diverged on {q:?}");
            }
        }
    }

    #[test]
    fn unlinkable_slot_fails_gracefully() {
        let lib = library();
        let lex = uqsj_nlp::lexicon::paper_lexicon(); // no "physicist" class
        let store = store();
        let out = answer_question(&lib, &lex, &store, "Which warlock graduated from CMU?", 1.0);
        assert!(out.sparql.is_none());
    }
}
