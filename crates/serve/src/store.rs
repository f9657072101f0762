//! The indexed template store: a [`TemplateLibrary`] plus a
//! token-count-sorted window index over its templates' signatures, so an
//! incoming question verifies alignment and TED only against templates
//! that could possibly match — the serving-side analogue of
//! `uqsj_simjoin::JoinIndex` on the join side. The signatures themselves
//! live in the library ([`TemplateLibrary::signatures`]).

use uqsj_nlp::signature::NlSignature;
use uqsj_template::{Template, TemplateLibrary};

/// A template library with a signature index over its NL patterns.
#[derive(Debug, Default)]
pub struct TemplateStore {
    library: TemplateLibrary,
    /// `(token_count, template index)` sorted — the window index: a
    /// question of `n` tokens can only fully align with templates of at
    /// most `n` tokens (every non-slot token consumes one question token,
    /// every slot at least one).
    by_len: Vec<(u32, u32)>,
}

impl TemplateStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index an existing library.
    pub fn from_library(library: TemplateLibrary) -> Self {
        let mut store = Self { library, by_len: Vec::new() };
        for i in 0..store.library.len() {
            store.index_template(i);
        }
        store
    }

    /// Add template `index` of the library to the window index.
    fn index_template(&mut self, index: usize) {
        let entry = (self.library.signatures()[index].token_count(), index as u32);
        let pos = self.by_len.partition_point(|&e| e < entry);
        self.by_len.insert(pos, entry);
    }

    /// Insert a template into the live store, keeping the index in sync.
    /// Returns `false` when the library deduplicated it (the index is
    /// unchanged — an identical pattern is already indexed).
    pub fn insert(&mut self, t: Template) -> bool {
        if !self.library.add(t) {
            return false;
        }
        self.index_template(self.library.len() - 1);
        true
    }

    /// The indexed library.
    pub fn library(&self) -> &TemplateLibrary {
        &self.library
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.library.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.library.is_empty()
    }

    /// Template indexes (ascending) that could answer a question with
    /// signature `question`, given the serving `min_phi`. Admissible: any
    /// template pruned here can neither fully align (window + multiset
    /// containment fail) nor reach a partial φ of `min_phi` (upper bound
    /// below threshold), so [`uqsj_template::answer_across`] over this set
    /// returns exactly what the full scan would.
    pub fn candidates(&self, question: &NlSignature, min_phi: f64) -> Vec<usize> {
        let signatures = self.library.signatures();
        if min_phi >= 1.0 {
            // Full matches only: walk the token-count window m <= n.
            let n = question.token_count();
            let hi = self.by_len.partition_point(|&(m, _)| m <= n);
            let mut out: Vec<usize> = self.by_len[..hi]
                .iter()
                .map(|&(_, i)| i as usize)
                .filter(|&i| signatures[i].could_fully_align(question))
                .collect();
            out.sort_unstable();
            return out;
        }
        // Partial mode: a template stays if it could fully align or its
        // φ upper bound reaches `min_phi`.
        signatures
            .iter()
            .enumerate()
            .filter(|(_, sig)| {
                let (full, bound) = sig.align_bounds(question);
                full || bound + 1e-12 >= min_phi
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_nlp::token::tokenize;
    use uqsj_sparql::{SparqlQuery, Term, Triple};
    use uqsj_template::template::{slot_term, SlotBinding};

    fn template(tokens: &[&str], predicate: &str) -> Template {
        let slots = tokens.iter().filter(|t| **t == "<_>").count();
        let sparql = SparqlQuery {
            select: vec!["x".into()],
            triples: (0..slots)
                .map(|i| Triple {
                    subject: Term::Var("x".into()),
                    predicate: Term::Iri(predicate.into()),
                    object: slot_term(i),
                })
                .collect(),
        };
        Template::new(
            tokens.iter().map(|t| (*t).to_owned()).collect(),
            sparql,
            vec![SlotBinding::Bound; slots],
            0.8,
        )
    }

    #[test]
    fn insert_keeps_index_aligned_with_library() {
        let mut store = TemplateStore::new();
        assert!(store.insert(template(&["Which", "<_>", "graduated", "from", "<_>", "?"], "p")));
        assert!(store.insert(template(&["Who", "is", "married", "to", "<_>", "?"], "q")));
        // Duplicate: library dedups, index must not grow.
        assert!(!store.insert(template(&["Who", "is", "married", "to", "<_>", "?"], "q")));
        assert_eq!(store.len(), 2);
        assert_eq!(store.library.signatures().len(), 2);
        assert_eq!(store.by_len.len(), 2);
    }

    #[test]
    fn candidates_prune_impossible_templates() {
        let mut store = TemplateStore::new();
        store.insert(template(&["Which", "<_>", "graduated", "from", "<_>", "?"], "p"));
        store.insert(template(&["Who", "is", "married", "to", "<_>", "?"], "q"));
        let q = tokenize("Which physicist graduated from CMU?");
        let sig = NlSignature::of_tokens(&q);
        let c = store.candidates(&sig, 1.0);
        assert_eq!(c, vec![0], "only the graduated-from template can align");
    }

    #[test]
    fn from_library_indexes_everything() {
        let mut lib = TemplateLibrary::new();
        lib.add(template(&["Which", "<_>", "born", "in", "<_>", "?"], "p"));
        lib.add(template(&["Who", "graduated", "from", "<_>", "?"], "q"));
        let store = TemplateStore::from_library(lib);
        assert_eq!(store.len(), 2);
        assert_eq!(store.library.signatures().len(), 2);
        assert_eq!(store.by_len.len(), 2);
    }
}
