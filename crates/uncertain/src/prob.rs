//! Exact similarity probability `SimP_τ(q, g)` (Def. 6) and the
//! verification routine of Algorithm 1.
//!
//! ```text
//! SimP_τ(q, g) = Σ_{pw(g) ∈ PW(g)}  Pr{ pw(g) | ged(q, pw(g)) <= τ }
//! ```
//!
//! Enumeration is exponential in the number of ambiguous vertices, so the
//! verifier (a) filters each world with the certain CSS bound before
//! running A\*, (b) uses the τ-bounded A\* rather than the exact distance,
//! and (c) terminates early once the accumulated probability reaches `α`
//! or the remaining mass cannot reach it. A world counts as within τ only
//! when the A\* search at limit τ finds a mapping.
//!
//! Verification is world-incremental: a [`WorldVerifier`] builds g's side
//! of the search structure once, binds each query on top of it, and
//! patches only the uncertain-vertex labels per world. [`verify_simp_prepared`]
//! is the one exact driver, over all worlds or over the surviving
//! possible-world groups; it takes the verifier, so a join reuses g's
//! state across every query it verifies against `g`. The τ-bounded A\*
//! runs on a caller-supplied [`GedEngine`] ([`verify_simp_with`]) so one
//! workspace serves a whole candidate stream. Certain graphs (a single
//! possible world) bypass enumeration entirely.

use crate::groups::PossibleWorldGroup;
use crate::verifier::{VerifyStage, WorldVerifier};
use uqsj_ged::astar::GedResult;
use uqsj_ged::engine::{with_thread_engine, GedEngine};
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};

/// Outcome of verifying one `(q, g)` candidate pair.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// `SimP_τ(q, g)`; exact unless an early exit fired, in which case it
    /// is a certified one-sided value (see [`VerifyOutcome::passed`]).
    pub prob: f64,
    /// Whether `SimP_τ(q, g) >= α` — this field is always exact.
    pub passed: bool,
    /// The GED mapping of the highest-probability world within τ, if any
    /// world qualified. This is the mapping template generation consumes
    /// (Sec. 2.1, Step 3).
    pub best_mapping: Option<GedResult>,
    /// Probability of the world that produced `best_mapping`.
    pub best_world_prob: f64,
    /// Number of worlds on which A\* actually ran (after the per-world
    /// CSS filter) — reported by the efficiency experiments.
    pub worlds_verified: usize,
}

/// Exact `SimP_τ(q, g)` by full enumeration (no early exit).
///
/// ```
/// use uqsj_graph::{GraphBuilder, SymbolTable};
/// let mut t = SymbolTable::new();
/// let mut b = GraphBuilder::new(&mut t);
/// b.vertex("x", "?x");
/// b.vertex("a", "Actor");
/// b.edge("x", "a", "type");
/// let q = b.into_graph();
/// let mut b = GraphBuilder::new(&mut t);
/// b.vertex("x", "?y");
/// b.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
/// b.edge("x", "m", "type");
/// let g = b.into_uncertain();
/// // Only the Actor world (probability 0.4) matches exactly.
/// let p = uqsj_uncertain::similarity_probability(&t, &q, &g, 0);
/// assert!((p - 0.4).abs() < 1e-9);
/// ```
pub fn similarity_probability(table: &SymbolTable, q: &Graph, g: &UncertainGraph, tau: u32) -> f64 {
    verify_simp(table, q, g, tau, f64::INFINITY).prob
}

/// Verify whether `SimP_τ(q, g) >= alpha`, with early termination in both
/// directions. Pass `alpha = f64::INFINITY` to force full enumeration and
/// an exact probability.
///
/// Uses the thread-local [`GedEngine`]; join drivers that own an engine
/// should call [`verify_simp_with`] directly.
pub fn verify_simp(
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
) -> VerifyOutcome {
    with_thread_engine(|engine| verify_simp_with(engine, table, q, g, tau, alpha))
}

/// Accumulator threaded through the per-world verification steps.
struct SimpState {
    acc: f64,
    remaining: f64,
    best_mapping: Option<GedResult>,
    best_world_prob: f64,
    worlds_verified: usize,
}

impl SimpState {
    fn new(remaining: f64) -> Self {
        Self { acc: 0.0, remaining, best_mapping: None, best_world_prob: 0.0, worlds_verified: 0 }
    }

    /// Verify the verifier's current world, of probability `prob`: shed
    /// its mass from `remaining`, CSS-filter it, and on success fold its
    /// probability and best mapping in.
    fn step(
        &mut self,
        engine: &mut GedEngine,
        verifier: &mut WorldVerifier<'_>,
        (table, q): (&SymbolTable, &Graph),
        tau: u32,
        prob: f64,
    ) {
        self.remaining -= prob;
        let obs = crate::obs::world_obs();
        obs.enumerated.inc();
        if verifier.css_admits(table, q, tau) {
            self.worlds_verified += 1;
            obs.verified.inc();
            if let Some(result) = verifier.within_tau(engine, tau) {
                self.acc += prob;
                if prob > self.best_world_prob {
                    self.best_world_prob = prob;
                    self.best_mapping = Some(result);
                }
            }
        } else {
            obs.css_pruned.inc();
        }
    }

    /// Whether an early exit fires against `alpha` (counted when it does).
    fn settled(&self, alpha: f64) -> bool {
        let obs = crate::obs::world_obs();
        if self.acc >= alpha {
            obs.early_exit_pass.inc();
            true
        } else if self.acc + self.remaining < alpha {
            obs.early_exit_fail.inc();
            true
        } else {
            false
        }
    }

    fn into_outcome(self, alpha: f64) -> VerifyOutcome {
        VerifyOutcome {
            prob: self.acc,
            passed: self.acc >= alpha,
            best_mapping: self.best_mapping,
            best_world_prob: self.best_world_prob,
            worlds_verified: self.worlds_verified,
        }
    }
}

/// [`verify_simp`] on a caller-owned [`GedEngine`], amortizing the search
/// workspace across an arbitrary candidate stream.
pub fn verify_simp_with(
    engine: &mut GedEngine,
    table: &SymbolTable,
    q: &Graph,
    g: &UncertainGraph,
    tau: u32,
    alpha: f64,
) -> VerifyOutcome {
    verify_simp_prepared(engine, &mut WorldVerifier::prepare(table, g), table, q, tau, alpha, None)
}

/// The exact verification driver: bind `q` to the verifier's prepared
/// graph `g` and decide `SimP_τ(q, g) >= alpha` by enumeration, with both
/// early exits when `alpha` is finite.
///
/// With `groups` (a possible-world partition, Algorithm 2), the worlds of
/// groups whose CSS bound exceeds τ are skipped without being
/// enumerated, and the rest are visited group by group. Without it, every
/// world of `g` is visited — most probable first when early exits are on
/// and `g` has at most 4,096 worlds, in enumeration order otherwise.
pub fn verify_simp_prepared(
    engine: &mut GedEngine,
    verifier: &mut WorldVerifier<'_>,
    table: &SymbolTable,
    q: &Graph,
    tau: u32,
    alpha: f64,
    groups: Option<&[PossibleWorldGroup]>,
) -> VerifyOutcome {
    verifier.set_query(table, q);
    let g = verifier.graph();
    let early = alpha.is_finite();
    let pair = (table, q);

    if let Some(groups) = groups {
        let live: Vec<&PossibleWorldGroup> =
            groups.iter().filter(|grp| grp.lb_ged(table, q, g) <= tau).collect();
        verifier.lap(VerifyStage::Css);
        let mut st = SimpState::new(live.iter().map(|grp| grp.mass()).sum());
        for grp in live {
            for (labels, prob) in grp.worlds() {
                verifier.set_labels(&labels);
                st.step(engine, verifier, pair, tau, prob);
                if early && st.settled(alpha) {
                    return st.into_outcome(alpha);
                }
            }
        }
        return st.into_outcome(alpha);
    }

    // Total mass of all worlds (<= 1 when some labels carry slack).
    let total_mass: f64 = g.vertices().iter().map(|v| v.mass()).product();
    let mut st = SimpState::new(total_mass);

    // Fast path: a certain graph has exactly one world — verify it
    // directly, no enumeration, no sorting. (A zero-vertex graph has zero
    // worlds under Def. 3 and must fall through to the empty loop below.)
    if g.vertex_count() > 0 && g.world_count() == 1 {
        verifier.set_choice(&vec![0u32; g.vertex_count()]);
        st.step(engine, verifier, pair, tau, total_mass);
        return st.into_outcome(alpha);
    }

    // Verifying high-probability worlds first makes both early exits
    // trigger sooner (the pass exit accumulates mass fastest; the fail
    // exit sheds `remaining` fastest). Only worth collecting for moderate
    // world counts, and pointless without early termination. The sorted
    // list is g's, so it is collected once per prepared verifier.
    if early && g.world_count() <= 4096 {
        for i in 0..verifier.sorted_world_count() {
            let prob = verifier.set_sorted_world(i);
            st.step(engine, verifier, pair, tau, prob);
            if st.settled(alpha) {
                break;
            }
        }
    } else {
        let mut cursor = g.world_choices();
        while let Some((choice, prob)) = cursor.next_world() {
            verifier.set_choice(choice);
            st.step(engine, verifier, pair, tau, prob);
            if early && st.settled(alpha) {
                break;
            }
        }
    }
    st.into_outcome(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_graph::GraphBuilder;

    /// The running example of the paper (Example 3): SimP_4(q2, g1) should
    /// sum the probabilities of the worlds within GED 4.
    fn example_pair(t: &mut SymbolTable) -> (Graph, UncertainGraph) {
        // q: ?x --type--> Actor, ?x --birthPlace--> Country
        let mut bq = GraphBuilder::new(t);
        bq.vertex("x", "?x");
        bq.vertex("a", "Actor");
        bq.vertex("c", "Country");
        bq.edge("x", "a", "type");
        bq.edge("x", "c", "birthPlace");
        let q = bq.into_graph();
        // g: ?y --type--> {NBA_Player 0.6, Actor 0.4}, ?y --birthPlace--> Country
        let mut bg = GraphBuilder::new(t);
        bg.vertex("y", "?y");
        bg.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        bg.vertex("c", "Country");
        bg.edge("y", "m", "type");
        bg.edge("y", "c", "birthPlace");
        let g = bg.into_uncertain();
        (q, g)
    }

    #[test]
    fn simp_sums_passing_world_probabilities() {
        let mut t = SymbolTable::new();
        let (q, g) = example_pair(&mut t);
        // tau = 0: only the Actor world (prob 0.4) matches exactly.
        let p0 = similarity_probability(&t, &q, &g, 0);
        assert!((p0 - 0.4).abs() < 1e-9, "got {p0}");
        // tau = 1: both worlds pass (NBA_Player needs one substitution).
        let p1 = similarity_probability(&t, &q, &g, 1);
        assert!((p1 - 1.0).abs() < 1e-9, "got {p1}");
    }

    #[test]
    fn verify_threshold_and_mapping() {
        let mut t = SymbolTable::new();
        let (q, g) = example_pair(&mut t);
        let out = verify_simp(&t, &q, &g, 0, 0.3);
        assert!(out.passed);
        assert!(out.best_mapping.is_some());
        let out2 = verify_simp(&t, &q, &g, 0, 0.5);
        assert!(!out2.passed);
    }

    #[test]
    fn early_exit_pass_is_sound() {
        let mut t = SymbolTable::new();
        let (q, g) = example_pair(&mut t);
        // alpha far below the exact probability: must pass, and the
        // reported probability is a valid lower estimate.
        let out = verify_simp(&t, &q, &g, 1, 0.1);
        assert!(out.passed);
        assert!(out.prob >= 0.1);
    }

    #[test]
    fn certain_graph_has_simp_zero_or_one() {
        let mut t = SymbolTable::new();
        let mut bq = GraphBuilder::new(&mut t);
        bq.vertex("a", "A");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(&mut t);
        bg.vertex("a", "B");
        let g = bg.into_uncertain();
        assert_eq!(similarity_probability(&t, &q, &g, 0), 0.0);
        assert_eq!(similarity_probability(&t, &q, &g, 1), 1.0);
    }

    #[test]
    fn empty_uncertain_graph_has_zero_worlds() {
        // Def. 3 quirk preserved by the single-world fast path: a graph
        // with no vertices enumerates zero worlds, so SimP is 0 even at
        // large tau and against an empty query.
        let t = SymbolTable::new();
        let q = Graph::new();
        let g = UncertainGraph::new();
        assert_eq!(similarity_probability(&t, &q, &g, 10), 0.0);
        let out = verify_simp(&t, &q, &g, 10, 0.5);
        assert!(!out.passed);
        assert_eq!(out.worlds_verified, 0);
    }

    #[test]
    fn single_world_fast_path_matches_enumeration_shape() {
        // A certain (single-world) graph must produce the same outcome as
        // the general enumeration used to: exact prob, mapping, counters.
        let mut t = SymbolTable::new();
        let mut bq = GraphBuilder::new(&mut t);
        bq.vertex("x", "?x");
        bq.vertex("a", "Actor");
        bq.edge("x", "a", "type");
        let q = bq.into_graph();
        let mut bg = GraphBuilder::new(&mut t);
        bg.vertex("x", "?y");
        bg.vertex("a", "Politician");
        bg.edge("x", "a", "type");
        let g = bg.into_uncertain();
        let out = verify_simp(&t, &q, &g, 1, 0.5);
        assert!(out.passed);
        assert!((out.prob - 1.0).abs() < 1e-12);
        assert_eq!(out.worlds_verified, 1);
        assert!(out.best_mapping.is_some());
        let miss = verify_simp(&t, &q, &g, 0, 0.5);
        assert!(!miss.passed);
        assert_eq!(miss.prob, 0.0);
    }
}
