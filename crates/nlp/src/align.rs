//! Token-level alignment of a question against a template's NL pattern,
//! used for slot filling and the matching proportion φ.
//!
//! The paper ranks candidate templates by dependency-tree edit distance
//! (Sec. 2.2) and then "fill\[s\] the slot with the corresponding phrases".
//! The filling itself is a sequence alignment: template tokens must match
//! question tokens exactly (case-insensitive), while each slot absorbs a
//! non-empty phrase of up to [`MAX_SLOT_WORDS`] question words.
//! φ (Appendix F.2) is the fraction of question words covered by the
//! template's non-slot words plus slot phrases under the best partial
//! alignment.
//!
//! Two implementations of each aligner live here. [`align_with_slots`]
//! and [`partial_align_with_slots`] work on `String` tokens and are the
//! reference oracles. [`align_ids`] and [`PartialAligner`] are the
//! production aligners: they work on token ids from [`TokenIds`] and
//! report slots as question spans, and they must return exactly what the
//! oracles return.

use std::collections::HashMap;
use std::ops::Range;

/// Maximum words one slot may absorb.
pub const MAX_SLOT_WORDS: usize = 4;

/// The token that marks a slot in template NL patterns.
pub const SLOT_TOKEN: &str = "<_>";

/// Align `template` tokens against `question` tokens. On success returns
/// the phrases captured by each slot, in template order.
pub fn align_with_slots(template: &[String], question: &[String]) -> Option<Vec<Vec<String>>> {
    let mut slots = Vec::new();
    if align_rec(template, question, &mut slots) {
        Some(slots)
    } else {
        None
    }
}

fn align_rec(template: &[String], question: &[String], slots: &mut Vec<Vec<String>>) -> bool {
    match template.first() {
        None => question.is_empty(),
        Some(t) if t == SLOT_TOKEN => {
            for take in 1..=MAX_SLOT_WORDS.min(question.len()) {
                slots.push(question[..take].to_vec());
                if align_rec(&template[1..], &question[take..], slots) {
                    return true;
                }
                slots.pop();
            }
            false
        }
        Some(t) => {
            question.first().is_some_and(|q| q.eq_ignore_ascii_case(t))
                && align_rec(&template[1..], &question[1..], slots)
        }
    }
}

/// Matching proportion φ: words of `question` covered by the best
/// *prefix-partial* alignment of `template` (Table 5 varies the minimum
/// acceptable φ; φ = 1 means a full match).
pub fn matching_proportion(template: &[String], question: &[String]) -> f64 {
    if question.is_empty() {
        return 0.0;
    }
    // Dynamic program over (template position, question position) →
    // maximum covered question words so far.
    let (m, n) = (template.len(), question.len());
    let mut best = vec![vec![0usize; n + 1]; m + 1];
    let mut reachable = vec![vec![false; n + 1]; m + 1];
    reachable[0][0] = true;
    let mut overall = 0usize;
    for i in 0..=m {
        for j in 0..=n {
            if !reachable[i][j] {
                continue;
            }
            overall = overall.max(best[i][j]);
            if i == m {
                continue;
            }
            if template[i] == SLOT_TOKEN {
                for take in 1..=MAX_SLOT_WORDS.min(n - j) {
                    let (ni, nj) = (i + 1, j + take);
                    if best[i][j] + take >= best[ni][nj] {
                        best[ni][nj] = best[i][j] + take;
                        reachable[ni][nj] = true;
                    }
                }
            } else if j < n && question[j].eq_ignore_ascii_case(&template[i]) {
                let (ni, nj) = (i + 1, j + 1);
                if best[i][j] + 1 >= best[ni][nj] {
                    best[ni][nj] = best[i][j] + 1;
                    reachable[ni][nj] = true;
                }
            }
        }
    }
    overall as f64 / n as f64
}

/// Best *partial* alignment: maximize covered question words while still
/// consuming the whole template (slots may be filled even when the
/// question has extra material the template does not cover). Returns the
/// coverage φ and the phrase filled into each slot, or `None` when the
/// template cannot be laid over the question at all.
///
/// This implements the partial-match Q/A mode of Appendix F.2 ("we can
/// also generate SPARQL queries based on this partial match").
pub fn partial_align_with_slots(
    template: &[String],
    question: &[String],
) -> Option<(f64, Vec<Vec<String>>)> {
    if question.is_empty() || template.is_empty() {
        return None;
    }
    let (m, n) = (template.len(), question.len());
    // State: (template position i, question position j). Transitions:
    //  - match template word:   (i, j) -> (i+1, j+1)
    //  - fill slot with k words (i, j) -> (i+1, j+k)
    //  - skip a question word:  (i, j) -> (i, j+1)   (extra material)
    // Goal: i == m. Score tiers: maximize exact word matches; then
    // penalize skipped template words; then minimize total slot length;
    // then prefer slots that start early — so slots capture the argument
    // phrase next to their matched context instead of hoovering up
    // whatever trailing material is available. A valid partial alignment
    // must contain at least one exact match (positive final score).
    const NEG: i64 = i64::MIN / 2;
    let mut best = vec![vec![NEG; n + 1]; m + 1];
    let mut back: Vec<Vec<(usize, usize)>> = vec![vec![(usize::MAX, usize::MAX); n + 1]; m + 1];
    best[0][0] = 0;
    for i in 0..=m {
        for j in 0..=n {
            if best[i][j] == NEG {
                continue;
            }
            // Skip question word.
            if j < n && best[i][j] > best[i][j + 1] {
                best[i][j + 1] = best[i][j];
                back[i][j + 1] = (i, j);
            }
            if i == m {
                continue;
            }
            // Skip a non-slot template word (e.g. a trailing "?").
            if template[i] != SLOT_TOKEN {
                let v = best[i][j] - 256;
                if v > best[i + 1][j] {
                    best[i + 1][j] = v;
                    back[i + 1][j] = (i, j);
                }
            }
            if template[i] == SLOT_TOKEN {
                for take in 1..=MAX_SLOT_WORDS.min(n - j) {
                    // Tier 2: slot length; tier 3: slot start position.
                    let v = best[i][j] - 64 * take as i64 - j as i64;
                    if v > best[i + 1][j + take] {
                        best[i + 1][j + take] = v;
                        back[i + 1][j + take] = (i, j);
                    }
                }
            } else if j < n && question[j].eq_ignore_ascii_case(&template[i]) {
                let v = best[i][j] + 65536; // tier 1: one exact match
                if v > best[i + 1][j + 1] {
                    best[i + 1][j + 1] = v;
                    back[i + 1][j + 1] = (i, j);
                }
            }
        }
    }
    // Best full-template end state; require at least one exact match
    // (penalty tiers are bounded well below one match's worth).
    let (mut j, best_score) = (0..=n).map(|j| (j, best[m][j])).max_by_key(|&(_, v)| v)?;
    if best_score <= 0 {
        return None;
    }
    // Recover slot phrases by walking backpointers, counting coverage.
    let mut i = m;
    let mut covered = 0usize;
    let mut slots_rev: Vec<Vec<String>> = Vec::new();
    while i != 0 || j != 0 {
        let (pi, pj) = back[i][j];
        if pi == usize::MAX {
            return None; // unreachable state (defensive)
        }
        if pi + 1 == i {
            covered += j - pj; // matched word or slot words
            if template[pi] == SLOT_TOKEN {
                slots_rev.push(question[pj..j].to_vec());
            }
        }
        i = pi;
        j = pj;
    }
    slots_rev.reverse();
    let slot_count = template.iter().filter(|t| *t == SLOT_TOKEN).count();
    if slots_rev.len() != slot_count {
        return None;
    }
    Some((covered as f64 / n as f64, slots_rev))
}

/// Id of a slot token in an id-encoded template.
const SLOT_ID: u32 = u32::MAX;

/// Id of a question word that no template of the vocabulary contains.
const UNKNOWN_ID: u32 = u32::MAX - 1;

/// A vocabulary of template words interned under ASCII-case-insensitive
/// equality — exactly the `eq_ignore_ascii_case` relation the aligners
/// match words by — so two tokens get the same id iff they match.
#[derive(Clone, Debug, Default)]
pub struct TokenIds {
    ids: HashMap<String, u32>,
}

impl TokenIds {
    /// Encode a template's NL tokens, interning new words. Slot tokens
    /// get a reserved id no word has.
    pub fn encode_template(&mut self, tokens: &[String]) -> Vec<u32> {
        tokens
            .iter()
            .map(|t| {
                if t == SLOT_TOKEN {
                    return SLOT_ID;
                }
                let next = self.ids.len() as u32;
                *self.ids.entry(t.to_ascii_lowercase()).or_insert(next)
            })
            .collect()
    }

    /// Encode a question's tokens without interning: a word no template
    /// contains gets a reserved id that matches nothing.
    pub fn encode_question(&self, tokens: &[String]) -> Vec<u32> {
        let mut key = String::new();
        tokens
            .iter()
            .map(|t| {
                key.clear();
                key.push_str(t);
                key.make_ascii_lowercase();
                self.ids.get(key.as_str()).copied().unwrap_or(UNKNOWN_ID)
            })
            .collect()
    }
}

/// [`align_with_slots`] over token ids: on success pushes each slot's
/// question span onto `slots`, in template order, and returns `true`; on
/// failure leaves `slots` as it found it.
pub fn align_ids(template: &[u32], question: &[u32], slots: &mut Vec<Range<usize>>) -> bool {
    align_ids_rec(template, question, 0, slots)
}

/// `at` is the position of `question[0]` in the whole question. A failed
/// branch pops every span it pushed.
fn align_ids_rec(
    template: &[u32],
    question: &[u32],
    at: usize,
    slots: &mut Vec<Range<usize>>,
) -> bool {
    match template.first() {
        None => question.is_empty(),
        Some(&SLOT_ID) => {
            for take in 1..=MAX_SLOT_WORDS.min(question.len()) {
                slots.push(at..at + take);
                if align_ids_rec(&template[1..], &question[take..], at + take, slots) {
                    return true;
                }
                slots.pop();
            }
            false
        }
        Some(t) => {
            question.first() == Some(t)
                && align_ids_rec(&template[1..], &question[1..], at + 1, slots)
        }
    }
}

/// [`partial_align_with_slots`] over token ids, with one flat DP buffer
/// reused across calls.
///
/// The oracle's scores make a one-word slot strictly better than a
/// k-word one: a k-word slot at question position `j` scores
/// `-64k - j`, while skipping k-1 question words and filling the slot
/// with the next word scores `-64 - (j + k - 1)`, which is `63(k - 1)`
/// higher and reaches the same state. So no optimal alignment uses a
/// longer slot, and this DP only tries one-word slots. Its best scores
/// and its first-best back pointers are the oracle's.
#[derive(Debug, Default)]
pub struct PartialAligner {
    /// `best[i * (n + 1) + j]`: best score with `i` template and `j`
    /// question tokens consumed.
    best: Vec<i64>,
    /// How each state was reached: `SKIP_QUESTION`, `SKIP_TEMPLATE` or
    /// `DIAGONAL` (a matched word or a one-word slot).
    back: Vec<u8>,
}

const SKIP_QUESTION: u8 = 1;
const SKIP_TEMPLATE: u8 = 2;
const DIAGONAL: u8 = 3;

impl PartialAligner {
    /// Best partial alignment of `template` over `question`: returns φ
    /// and pushes each slot's question span onto `slots`, in template
    /// order; returns `None` (leaving `slots` as it was) when the
    /// template cannot be laid over the question.
    pub fn align(
        &mut self,
        template: &[u32],
        question: &[u32],
        slots: &mut Vec<Range<usize>>,
    ) -> Option<f64> {
        if question.is_empty() || template.is_empty() {
            return None;
        }
        const NEG: i64 = i64::MIN / 2;
        let (m, n) = (template.len(), question.len());
        let w = n + 1;
        self.best.clear();
        self.best.resize((m + 1) * w, NEG);
        self.back.clear();
        self.back.resize((m + 1) * w, 0);
        let (best, back) = (&mut self.best, &mut self.back);
        best[0] = 0;
        // Same visiting order and strict-improvement rule as the oracle,
        // so ties resolve to the same back pointers.
        for i in 0..=m {
            for j in 0..=n {
                let here = best[i * w + j];
                if here == NEG {
                    continue;
                }
                if j < n && here > best[i * w + j + 1] {
                    best[i * w + j + 1] = here;
                    back[i * w + j + 1] = SKIP_QUESTION;
                }
                if i == m {
                    continue;
                }
                let t = template[i];
                if t != SLOT_ID {
                    let v = here - 256;
                    if v > best[(i + 1) * w + j] {
                        best[(i + 1) * w + j] = v;
                        back[(i + 1) * w + j] = SKIP_TEMPLATE;
                    }
                }
                if j < n && (t == SLOT_ID || question[j] == t) {
                    let v = if t == SLOT_ID { here - 64 - j as i64 } else { here + 65536 };
                    if v > best[(i + 1) * w + j + 1] {
                        best[(i + 1) * w + j + 1] = v;
                        back[(i + 1) * w + j + 1] = DIAGONAL;
                    }
                }
            }
        }
        // The oracle takes the last end state of maximal score.
        let mut j = 0;
        for k in 1..=n {
            if best[m * w + k] >= best[m * w + j] {
                j = k;
            }
        }
        if best[m * w + j] <= 0 {
            return None;
        }
        let mark = slots.len();
        let (mut i, mut covered) = (m, 0usize);
        while i != 0 || j != 0 {
            match back[i * w + j] {
                SKIP_QUESTION => j -= 1,
                SKIP_TEMPLATE => i -= 1,
                _ => {
                    covered += 1;
                    if template[i - 1] == SLOT_ID {
                        slots.push(j - 1..j);
                    }
                    i -= 1;
                    j -= 1;
                }
            }
        }
        slots[mark..].reverse();
        Some(covered as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn toks(s: &str) -> Vec<String> {
        tokenize(s)
    }

    fn template(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_owned()).collect()
    }

    #[test]
    fn example1_of_the_paper() {
        // "Which physicist graduated from CMU?" vs
        // "Which <_> graduated from <_>?"
        let t = template("Which <_> graduated from <_> ?");
        let q = toks("Which physicist graduated from CMU?");
        let slots = align_with_slots(&t, &q).expect("must align");
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0], vec!["physicist"]);
        assert_eq!(slots[1], vec!["CMU"]);
    }

    #[test]
    fn slot_absorbs_multiword_phrases() {
        let t = template("Who is married to <_> ?");
        let q = toks("Who is married to Michael Jordan?");
        let slots = align_with_slots(&t, &q).unwrap();
        assert_eq!(slots[0], vec!["Michael", "Jordan"]);
    }

    #[test]
    fn mismatch_fails() {
        let t = template("Which <_> graduated from <_> ?");
        let q = toks("Who directed Jaws?");
        assert!(align_with_slots(&t, &q).is_none());
    }

    #[test]
    fn phi_is_one_on_full_match() {
        let t = template("Which <_> graduated from <_> ?");
        let q = toks("Which physicist graduated from CMU?");
        assert!((matching_proportion(&t, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phi_partial_when_question_has_extra_tail() {
        let t = template("Which <_> graduated from <_>");
        // The trailing slot absorbs at most MAX_SLOT_WORDS words, so a
        // five-word tail cannot be fully covered.
        let q = toks("Which physicist graduated from CMU in the year 1990 exactly");
        let phi = matching_proportion(&t, &q);
        assert!(phi > 0.5 && phi < 1.0, "phi={phi}");
    }

    #[test]
    fn partial_alignment_fills_slots_despite_extra_tail() {
        let t = template("Which <_> graduated from <_>");
        let q = toks("Which physicist graduated from CMU in the year 1990 exactly");
        let (phi, slots) = partial_align_with_slots(&t, &q).unwrap();
        assert!(phi < 1.0 && phi > 0.4, "phi={phi}");
        assert_eq!(slots[0], vec!["physicist"]);
        assert!(slots[1].starts_with(&["CMU".to_string()]), "{:?}", slots[1]);
    }

    #[test]
    fn partial_alignment_agrees_with_full_on_exact_matches() {
        let t = template("Which <_> graduated from <_> ?");
        let q = toks("Which physicist graduated from CMU?");
        let (phi, slots) = partial_align_with_slots(&t, &q).unwrap();
        assert!((phi - 1.0).abs() < 1e-12);
        assert_eq!(slots, align_with_slots(&t, &q).unwrap());
    }

    #[test]
    fn partial_alignment_fails_when_template_cannot_lay_over() {
        let t = template("Which <_> graduated from <_>");
        let q = toks("name every mountain");
        assert!(partial_align_with_slots(&t, &q).is_none());
    }

    #[test]
    fn id_aligners_agree_with_the_string_oracles() {
        let templates = [
            "Which <_> graduated from <_> ?",
            "Which <_> graduated from <_>",
            "Who is married to <_> ?",
            "<_> <_> from",
        ];
        let questions = [
            "which Physicist GRADUATED from CMU?",
            "Which physicist graduated from CMU in the year 1990 exactly",
            "Who is married to Michael Jordan?",
            "name every mountain",
            "from from from",
        ];
        let mut vocab = TokenIds::default();
        let encoded: Vec<_> =
            templates.iter().map(|t| (template(t), vocab.encode_template(&template(t)))).collect();
        let mut aligner = PartialAligner::default();
        for q in questions {
            let q = toks(q);
            let q_ids = vocab.encode_question(&q);
            let phrases = |spans: &[Range<usize>]| -> Vec<Vec<String>> {
                spans.iter().map(|r| q[r.clone()].to_vec()).collect()
            };
            for (t, t_ids) in &encoded {
                let mut spans = Vec::new();
                let full = align_ids(t_ids, &q_ids, &mut spans).then(|| phrases(&spans));
                assert_eq!(full, align_with_slots(t, &q), "{t:?} vs {q:?}");
                spans.clear();
                let partial =
                    aligner.align(t_ids, &q_ids, &mut spans).map(|phi| (phi, phrases(&spans)));
                assert_eq!(partial, partial_align_with_slots(t, &q), "{t:?} vs {q:?}");
            }
        }
    }

    #[test]
    fn phi_zero_on_disjoint_text() {
        let t = template("Which <_> graduated from <_>");
        let q = toks("name every mountain");
        // Only a slot could cover anything, but the first template token
        // "Which" never matches, so nothing is covered.
        assert_eq!(matching_proportion(&t, &q), 0.0);
    }
}
