//! Cheap token/label signatures for template matching.
//!
//! Every template library (`uqsj-template`) keeps one [`NlSignature`] per
//! template; the serving layer computes one per incoming question and
//! uses them the way `JoinIndex` uses `(|V|, |E|)` on the join side: a
//! cheap filter that can only discard templates which provably cannot
//! match, never one that could. Answering then aligns the survivors
//! best-first by their φ bound. Three bounds are exposed:
//!
//! - [`NlSignature::could_fully_align`] — necessary condition for
//!   `align_with_slots` to succeed (token-count window + multiset
//!   containment of the template's non-slot words);
//! - [`NlSignature::phi_upper_bound`] — upper bound on the matching
//!   proportion φ a partial alignment can reach. It is tight because an
//!   optimal partial alignment fills every slot with exactly one word
//!   (see [`crate::align::PartialAligner`]), so φ = (M + s) / n for M
//!   matched template words, s slots and n question words, and M is at
//!   most the word overlap;
//! - [`NlSignature::ted_lower_bound`] — lower bound on the dependency-tree
//!   edit distance, used to order exact TED verification best-first.
//!
//! All three are proven admissible by the property tests below against the
//! exact routines in [`crate::align`] and [`crate::ted`].

use crate::align::MAX_SLOT_WORDS;
use crate::ted::is_slot_word;

/// Multiset summary of a token sequence: length, slot count, and the
/// (lowercased word, multiplicity) pairs over the non-slot tokens,
/// sorted by (word hash, word) so [`NlSignature::word_overlap`] merges
/// on integer compares and looks at the words only on a hash tie.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NlSignature {
    token_count: u32,
    slot_count: u32,
    counts: Vec<(u64, String, u32)>,
}

/// FNV-1a hash of a word.
fn word_hash(word: &str) -> u64 {
    word.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

impl NlSignature {
    /// Build the signature of a token sequence. Slot tokens (`<_>` or
    /// `SLOTn`, as they appear in template NL patterns and template
    /// dependency trees respectively) are counted separately and excluded
    /// from the word multiset.
    pub fn of_tokens(tokens: &[String]) -> Self {
        let mut words: Vec<(u64, String)> = Vec::with_capacity(tokens.len());
        let mut slot_count = 0u32;
        for t in tokens {
            let lower = t.to_lowercase();
            if is_slot_word(&lower) {
                slot_count += 1;
            } else {
                words.push((word_hash(&lower), lower));
            }
        }
        words.sort_unstable();
        let mut counts: Vec<(u64, String, u32)> = Vec::with_capacity(words.len());
        for (h, w) in words {
            match counts.last_mut() {
                Some((ph, pw, c)) if *ph == h && *pw == w => *c += 1,
                _ => counts.push((h, w, 1)),
            }
        }
        NlSignature { token_count: tokens.len() as u32, slot_count, counts }
    }

    pub fn token_count(&self) -> u32 {
        self.token_count
    }

    pub fn slot_count(&self) -> u32 {
        self.slot_count
    }

    /// Number of non-slot tokens (with multiplicity).
    pub fn non_slot_count(&self) -> u32 {
        self.token_count - self.slot_count
    }

    /// Size of the multiset intersection of the two word multisets.
    pub fn word_overlap(&self, other: &Self) -> u32 {
        let (mut i, mut j, mut total) = (0, 0, 0);
        fn key(c: &(u64, String, u32)) -> (u64, &str) {
            (c.0, &c.1)
        }
        while i < self.counts.len() && j < other.counts.len() {
            let (a, b) = (&self.counts[i], &other.counts[j]);
            match key(a).cmp(&key(b)) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += a.2.min(b.2);
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }

    /// Necessary condition for `align_with_slots(self_tokens, question)`
    /// to succeed: the question length must fall in the window a full
    /// alignment can produce (each of the `s` slots absorbs between 1 and
    /// `MAX_SLOT_WORDS` words, every non-slot token exactly one), and every
    /// non-slot template word must be available in the question multiset.
    pub fn could_fully_align(&self, question: &Self) -> bool {
        self.in_full_window(question) && self.word_overlap(question) == self.non_slot_count()
    }

    fn in_full_window(&self, question: &Self) -> bool {
        let min_len = self.token_count;
        let max_len = self.token_count + (MAX_SLOT_WORDS as u32 - 1) * self.slot_count;
        (min_len..=max_len).contains(&question.token_count)
    }

    /// [`Self::could_fully_align`] and [`Self::phi_upper_bound`] from one
    /// overlap merge: what the answer path screens and ranks a candidate
    /// template by.
    pub fn align_bounds(&self, question: &Self) -> (bool, f64) {
        let overlap = self.word_overlap(question);
        let full = self.in_full_window(question) && overlap == self.non_slot_count();
        (full, self.phi_bound_from(overlap, question))
    }

    /// Upper bound on the matching proportion φ that
    /// [`crate::align::partial_align_with_slots`] can report for this
    /// template over `question`: `(overlap + slots) / n`.
    ///
    /// The bound rests on a lemma: an optimal partial alignment fills
    /// every slot with exactly one question word. A k-word slot scores
    /// `63(k - 1)` below skipping k-1 question words and filling the slot
    /// with one, which reaches the same state. So the alignment covers
    /// its M matched template words plus one word per slot, and M is at
    /// most the word overlap. A valid partial alignment needs at least
    /// one exact match, so zero overlap caps φ at 0. (The laxer
    /// [`crate::align::matching_proportion`] has no exact-match
    /// requirement and lets slots take several words, so it is *not*
    /// bounded by this.)
    pub fn phi_upper_bound(&self, question: &Self) -> f64 {
        self.phi_bound_from(self.word_overlap(question), question)
    }

    fn phi_bound_from(&self, overlap: u32, question: &Self) -> f64 {
        if question.token_count == 0 || overlap == 0 {
            return 0.0;
        }
        let covered = (overlap + self.slot_count).min(question.token_count);
        f64::from(covered) / f64::from(question.token_count)
    }

    /// Lower bound on the tree edit distance between the dependency trees
    /// of the two token sequences (one tree node per token). A node pair
    /// can only be free (cost 0) if the words agree or one side is a slot,
    /// so at most `overlap + slots` nodes on either side avoid an edit
    /// operation; every remaining node costs at least one insert, delete,
    /// or relabel, and the size difference is always a floor.
    pub fn ted_lower_bound(&self, other: &Self) -> u32 {
        let overlap = self.word_overlap(other);
        let wildcards = self.slot_count + other.slot_count;
        let free = overlap + wildcards;
        let size_diff = self.token_count.abs_diff(other.token_count);
        let self_uncovered = self.token_count.saturating_sub(free);
        let other_uncovered = other.token_count.saturating_sub(free);
        size_diff.max(self_uncovered).max(other_uncovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{
        align_with_slots, matching_proportion, partial_align_with_slots, SLOT_TOKEN,
    };
    use crate::deptree::parse_dependency_tokens;
    use crate::ted::tree_edit_distance;

    const WORDS: [&str; 10] =
        ["which", "actor", "from", "usa", "married", "to", "jordan", "born", "in", "city"];

    /// Deterministic exhaustive-ish sample of token sequences with slots.
    fn samples() -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for seed in 0u64..160 {
            let len = 1 + (seed % 8) as usize;
            let mut toks = Vec::with_capacity(len);
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 5 == 0 {
                    toks.push(SLOT_TOKEN.to_owned());
                } else {
                    toks.push(WORDS[(x % WORDS.len() as u64) as usize].to_owned());
                }
            }
            out.push(toks);
        }
        out
    }

    fn slotless(tokens: &[String]) -> Vec<String> {
        tokens.iter().filter(|t| !is_slot_word(t)).cloned().collect()
    }

    #[test]
    fn counts_words_and_slots() {
        let toks: Vec<String> =
            ["Which", "<_>", "graduated", "from", "<_>", "?"].map(String::from).to_vec();
        let sig = NlSignature::of_tokens(&toks);
        assert_eq!(sig.token_count(), 6);
        assert_eq!(sig.slot_count(), 2);
        assert_eq!(sig.non_slot_count(), 4);
    }

    #[test]
    fn overlap_is_a_multiset_intersection() {
        let a = NlSignature::of_tokens(&["to", "to", "To", "?"].map(String::from));
        let b = NlSignature::of_tokens(&["TO", "to", "city"].map(String::from));
        assert_eq!(a.word_overlap(&b), 2);
        assert_eq!(b.word_overlap(&a), 2);
    }

    #[test]
    fn full_alignment_filter_is_admissible() {
        // Whenever the exact aligner succeeds the filter must keep the pair.
        let mut kept_hits = 0;
        for t in samples() {
            let ts = NlSignature::of_tokens(&t);
            for q in samples().iter().map(|s| slotless(s)) {
                let qs = NlSignature::of_tokens(&q);
                if align_with_slots(&t, &q).is_some() {
                    assert!(ts.could_fully_align(&qs), "pruned a true match: {t:?} vs {q:?}");
                    kept_hits += 1;
                }
            }
        }
        assert!(kept_hits > 0, "sample set never aligned — test is vacuous");
    }

    #[test]
    fn partial_alignment_fills_every_slot_with_one_word() {
        // The lemma `phi_upper_bound` rests on.
        let mut slots_seen = 0;
        for t in samples() {
            for q in samples().iter().map(|s| slotless(s)) {
                if let Some((_, slots)) = partial_align_with_slots(&t, &q) {
                    for slot in &slots {
                        assert_eq!(slot.len(), 1, "multi-word slot {slot:?}: {t:?} vs {q:?}");
                    }
                    slots_seen += slots.len();
                }
            }
        }
        assert!(slots_seen > 0, "no sampled alignment filled a slot — test is vacuous");
    }

    #[test]
    fn phi_upper_bound_is_admissible() {
        let (mut nontrivial, mut tight) = (0, 0);
        for t in samples() {
            let ts = NlSignature::of_tokens(&t);
            for q in samples().iter().map(|s| slotless(s)) {
                let qs = NlSignature::of_tokens(&q);
                let bound = ts.phi_upper_bound(&qs);
                if let Some((pphi, _)) = partial_align_with_slots(&t, &q) {
                    assert!(
                        pphi <= bound + 1e-9,
                        "partial phi {pphi} > bound {bound}: {t:?} vs {q:?}"
                    );
                    nontrivial += 1;
                    if pphi == bound && ts.slot_count() > 0 && pphi < 1.0 {
                        tight += 1;
                    }
                }
                // matching_proportion has no exact-match floor, so only the
                // coverage part of the bound (overlap + slot capacity) holds.
                if !q.is_empty() {
                    let cap = MAX_SLOT_WORDS as u32 * ts.slot_count();
                    let coverage = f64::from((ts.word_overlap(&qs) + cap).min(qs.token_count()))
                        / f64::from(qs.token_count());
                    let phi = matching_proportion(&t, &q);
                    assert!(phi <= coverage + 1e-9, "phi {phi} > coverage {coverage}");
                }
            }
        }
        assert!(nontrivial > 0);
        assert!(tight > 0, "the bound never met a partial phi below 1 — it is not tight");
    }

    #[test]
    fn ted_lower_bound_is_admissible() {
        let mut positive = 0;
        for (i, a) in samples().iter().enumerate().step_by(3) {
            let sa = NlSignature::of_tokens(a);
            let ta = parse_dependency_tokens(a);
            for b in samples().iter().skip(i % 5).step_by(4) {
                let sb = NlSignature::of_tokens(b);
                let tb = parse_dependency_tokens(b);
                let lb = sa.ted_lower_bound(&sb);
                let exact = tree_edit_distance(&ta, &tb);
                assert!(lb <= exact, "lb {lb} > ted {exact}: {a:?} vs {b:?}");
                if lb > 0 {
                    positive += 1;
                }
            }
        }
        assert!(positive > 0, "lower bound never fired — test is vacuous");
    }

    #[test]
    fn window_rejects_out_of_range_questions() {
        let t: Vec<String> = ["which", "<_>", "?"].map(String::from).to_vec();
        let sig = NlSignature::of_tokens(&t);
        // Shorter than the template: impossible.
        let short = NlSignature::of_tokens(&["which", "?"].map(String::from));
        assert!(!sig.could_fully_align(&short));
        // Longer than m + (MAX_SLOT_WORDS-1)*s: impossible.
        let long: Vec<String> = ["which", "a", "b", "c", "d", "e", "?"].map(String::from).to_vec();
        assert!(!sig.could_fully_align(&NlSignature::of_tokens(&long)));
    }
}
