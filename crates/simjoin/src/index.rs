//! The join driver: one indexed loop that every join entry point runs.
//!
//! [`JoinIndex::build`] groups `D` into classes of identical graphs (the
//! same vertex-label sequence and edge list), sorts the classes by size
//! and summarizes each class once: its vertex and edge counts, degree
//! sequence and edge-label multiset. The vertex/edge-count lower bound
//! (Zeng et al.) prunes any pair with
//! `||V(q)|−|V(g)|| + ||E(q)|−|E(g)|| > τ`, so
//! for a given uncertain graph only the classes inside a small size window
//! reach the cascade at all; the rest are credited to the `size` stage
//! without being touched.
//!
//! The cascade verdict, `SimP_τ(q, g)` and the A\* mapping are pure
//! functions of `q`'s labels and edges, so the driver filters and verifies
//! each class once, through its representative (its lowest query id), and
//! copies a passing verdict to every member under the member's own
//! `q_index`. The funnel counters of [`JoinStats`] (`pairs_total`, the
//! per-stage pruned counts, `candidates`, `results`) still count logical
//! pairs; the work counters (times, `verifications`, worlds, expansions,
//! tiers, stops) count work actually done.
//!
//! Entry points, all over the same per-question probe:
//!
//! * [`JoinIndex::join`] — the batch join over `U` on `threads` workers
//!   that pull uncertain graphs off a shared atomic cursor. Per-graph cost
//!   is heavily skewed (one many-world question can dwarf the rest), so a
//!   worker that claims an expensive graph delays only that graph, not a
//!   chunk. [`crate::sim_join`] is this driver at one thread.
//! * [`JoinIndex::join_one`] / [`JoinIndex::join_one_with`] — one newly
//!   arriving question, for incremental ingestion.
//! * [`crate::sim_join_topk`] — the same filter loop, then top-k
//!   verification instead of threshold verification.
//!
//! Time accounting: `pruning_time`/`verification_time` are the *summed*
//! per-evaluation CPU times whatever the thread count, the paper's
//! single-threaded accounting. A run on more than one worker also stamps
//! [`JoinStats::wall_time`] with its true elapsed time, which
//! [`JoinStats::response_time`] then reports.

use crate::cascade::{run_pair, Candidate, Stage};
use crate::join::{verify, JoinMatch, JoinParams};
use crate::obs::{join_obs, stage_handles};
use crate::stats::JoinStats;
use crate::summary::{Summary, VertexMatcher};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use uqsj_ged::GedEngine;
use uqsj_graph::{Graph, SymbolTable, UncertainGraph};

/// Identical graphs of `D`, filtered and verified as one.
struct Class {
    /// Summary of every member (they are the same graph).
    summary: Summary,
    /// Member query ids, ascending; the first is the representative.
    members: Box<[u32]>,
}

/// The index over `D`: classes of identical queries sorted by size, and
/// one filter summary per class.
pub struct JoinIndex<'a> {
    d: Cow<'a, [Graph]>,
    classes: Vec<Class>,
    /// `class_of[q]` is the id of the class query `q` belongs to.
    class_of: Box<[u32]>,
    /// `(vertex_count, edge_count, class id)`, sorted.
    by_size: Vec<(u32, u32, u32)>,
}

impl<'a> JoinIndex<'a> {
    /// Build the index over `d`.
    pub fn build(d: &'a [Graph]) -> Self {
        Self::over(Cow::Borrowed(d))
    }

    /// Build the index over an owned `d`, for a long-lived joiner that
    /// keeps `D` and its index together.
    pub fn build_owned(d: Vec<Graph>) -> JoinIndex<'static> {
        JoinIndex::over(Cow::Owned(d))
    }

    fn over(d: Cow<'a, [Graph]>) -> Self {
        // A graph is its vertex-label sequence plus its edge list, so two
        // queries with equal slices are the same graph.
        let mut by_graph = HashMap::with_capacity(d.len());
        let mut members: Vec<Vec<u32>> = Vec::new();
        let class_of: Box<[u32]> = d
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let c = *by_graph.entry((q.vertex_labels(), q.edges())).or_insert_with(|| {
                    members.push(Vec::new());
                    members.len() - 1
                });
                members[c].push(i as u32);
                c as u32
            })
            .collect();
        let classes: Vec<Class> = members
            .into_iter()
            .map(|m| Class { summary: Summary::of_graph(&d[m[0] as usize]), members: m.into() })
            .collect();
        let mut by_size: Vec<(u32, u32, u32)> = classes
            .iter()
            .enumerate()
            .map(|(c, class)| (class.summary.v, class.summary.e, c as u32))
            .collect();
        by_size.sort_unstable();
        Self { d, classes, class_of, by_size }
    }

    /// Classes whose size bound against `(v, e)` is within `tau`.
    fn window(&self, v: u32, e: u32, tau: u32) -> impl Iterator<Item = &Class> + '_ {
        let lo = self.by_size.partition_point(|&(qv, _, _)| qv + tau < v);
        let hi = self.by_size.partition_point(|&(qv, _, _)| qv <= v + tau);
        self.by_size[lo..hi]
            .iter()
            .filter(move |&&(qv, qe, _)| qv.abs_diff(v) + qe.abs_diff(e) <= tau)
            .map(|&(_, _, c)| &self.classes[c as usize])
    }

    /// Query ids whose size bound against `(v, e)` is within `tau`.
    pub fn candidates(&self, v: u32, e: u32, tau: u32) -> impl Iterator<Item = usize> + '_ {
        self.window(v, e, tau).flat_map(|class| class.members.iter().map(|&i| i as usize))
    }

    /// The number of classes of identical queries in `D`: the cascade
    /// and the verifier run at most this many times per uncertain graph.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The class of identical queries that query `q` belongs to, an id
    /// below [`JoinIndex::class_count`]. Two queries share a class exactly
    /// when they are the same graph, so they get the same verdict and
    /// mapping from every join.
    ///
    /// # Panics
    /// Panics if `q` is not a query id of the indexed `D`.
    pub fn class_of(&self, q: usize) -> u32 {
        self.class_of[q]
    }

    /// The indexed side.
    pub fn queries(&self) -> &[Graph] {
        &self.d
    }

    /// SimJ over `D × u` on `threads` workers. Returns the qualifying
    /// pairs sorted by `(g_index, q_index)` — the same matches, in the
    /// same order, for every thread count — and the merged statistics.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn join(
        &self,
        table: &SymbolTable,
        u: &[UncertainGraph],
        params: JoinParams,
        threads: usize,
    ) -> (Vec<JoinMatch>, JoinStats) {
        assert!(threads >= 1, "need at least one thread");
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let work = || {
            // One search workspace and matcher per worker, reused across
            // every uncertain graph it claims.
            let mut engine = GedEngine::new();
            let mut matcher = VertexMatcher::default();
            let mut out = Vec::new();
            let mut stats = JoinStats::default();
            loop {
                let gi = next.fetch_add(1, Ordering::Relaxed);
                let Some(g) = u.get(gi) else { break };
                self.probe(&mut engine, &mut matcher, table, gi, g, &params, &mut out, &mut stats);
            }
            (out, stats)
        };
        let workers = threads.min(u.len());
        let parts = if workers <= 1 {
            vec![work()]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
                handles.into_iter().map(|h| h.join().expect("join worker panicked")).collect()
            })
        };
        let mut matches = Vec::new();
        let mut stats = JoinStats::default();
        for (m, s) in parts {
            matches.extend(m);
            stats.merge(&s);
        }
        matches.sort_by_key(|m| (m.g_index, m.q_index));
        if workers > 1 {
            stats.wall_time = started.elapsed();
        }
        (matches, stats)
    }

    /// Join a single uncertain graph against the indexed `D` — the
    /// incremental-ingestion entry point (`uqsj-serve` joins each newly
    /// arriving question without re-running the whole workload join).
    /// `g_index` is stamped into the produced matches. Matches come back
    /// sorted by `q_index`, the same order a full batch join reports them,
    /// so downstream template insertion is order-identical to a re-join.
    pub fn join_one(
        &self,
        table: &SymbolTable,
        g_index: usize,
        g: &UncertainGraph,
        params: JoinParams,
    ) -> (Vec<JoinMatch>, JoinStats) {
        self.join_one_with(&mut GedEngine::new(), table, g_index, g, params)
    }

    /// [`JoinIndex::join_one`] on a caller-owned [`GedEngine`], so a
    /// long-lived ingester reuses one workspace across every question.
    pub fn join_one_with(
        &self,
        engine: &mut GedEngine,
        table: &SymbolTable,
        g_index: usize,
        g: &UncertainGraph,
        params: JoinParams,
    ) -> (Vec<JoinMatch>, JoinStats) {
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        let mut matcher = VertexMatcher::default();
        self.probe(engine, &mut matcher, table, g_index, g, &params, &mut out, &mut stats);
        (out, stats)
    }

    /// Filter and verify `D × {g}`, appending `g`'s matches to `out`
    /// sorted by `q_index`. g's verifier state is built on the first class
    /// that survives the cascade and reused by every later one.
    #[allow(clippy::too_many_arguments)] // one question's full context
    fn probe(
        &self,
        engine: &mut GedEngine,
        matcher: &mut VertexMatcher,
        table: &SymbolTable,
        gi: usize,
        g: &UncertainGraph,
        params: &JoinParams,
        out: &mut Vec<JoinMatch>,
        stats: &mut JoinStats,
    ) {
        let first = out.len();
        let mut prepared = None;
        self.filter(table, g, params, matcher, stats, |members, candidate, filtered_at, stats| {
            let q = (members, &self.d[members[0] as usize]);
            verify(
                engine,
                &mut prepared,
                table,
                q,
                (gi, g),
                candidate,
                filtered_at,
                params,
                out,
                stats,
            );
        });
        out[first..].sort_by_key(|m| m.q_index);
    }

    /// Run every pair of `D × {g}` through the cascade, one evaluation per
    /// class in the size window, handing each surviving class's members
    /// (representative first) to `survivor` with the clock read that
    /// closed its last filter stage. Every pair is counted once in the
    /// funnel: a class's verdict is credited once per member, and pairs
    /// outside the size window fail the size bound by construction, so
    /// they are credited to the `size` stage untouched.
    pub(crate) fn filter(
        &self,
        table: &SymbolTable,
        g: &UncertainGraph,
        params: &JoinParams,
        matcher: &mut VertexMatcher,
        stats: &mut JoinStats,
        mut survivor: impl FnMut(&[u32], Candidate, Instant, &mut JoinStats),
    ) {
        let obs = join_obs();
        let gs = Summary::of_uncertain(g);
        let mut in_window = 0u64;
        for class in self.window(gs.v, gs.e, params.tau) {
            let members = &class.members[..];
            let n = members.len() as u64;
            in_window += n;
            let started = Instant::now();
            let mut clock = started;
            let q = (&self.d[members[0] as usize], &class.summary);
            let outcome = run_pair(table, q, (g, &gs), params, matcher, &mut clock);
            stats.pruning_time += clock - started;
            match outcome {
                Ok(candidate) => {
                    stats.candidates += n;
                    obs.candidates.add(n);
                    survivor(members, candidate, clock, stats);
                }
                Err(stage) => {
                    stats.record_pruned(stage.label(), n);
                    stage_handles(stage).pruned.add(n);
                }
            }
        }
        let pairs = self.d.len() as u64;
        let skipped = pairs - in_window;
        stats.pairs_total += pairs;
        stats.record_pruned(Stage::Size.label(), skipped);
        obs.pairs.add(pairs);
        stage_handles(Stage::Size).pruned.add(skipped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::sim_join;
    use uqsj_graph::GraphBuilder;

    fn workload(t: &mut SymbolTable) -> (Vec<Graph>, Vec<UncertainGraph>) {
        let mut d = Vec::new();
        for n in 1..6usize {
            let mut b = GraphBuilder::new(t);
            for i in 0..n {
                b.vertex(&format!("v{i}"), "A");
            }
            for i in 0..n.saturating_sub(1) {
                b.edge(&format!("v{i}"), &format!("v{}", i + 1), "p");
            }
            d.push(b.into_graph());
        }
        let mut u = Vec::new();
        for n in [2usize, 4] {
            let mut b = GraphBuilder::new(t);
            for i in 0..n {
                b.uncertain_vertex(&format!("v{i}"), &[("A", 0.6), ("B", 0.4)]);
            }
            for i in 0..n - 1 {
                b.edge(&format!("v{i}"), &format!("v{}", i + 1), "p");
            }
            u.push(b.into_uncertain());
        }
        (d, u)
    }

    #[test]
    fn index_window_is_exactly_the_size_bound() {
        let mut t = SymbolTable::new();
        let (d, _) = workload(&mut t);
        let index = JoinIndex::build(&d);
        for tau in 0..4u32 {
            for (v, e) in [(2u32, 1u32), (4, 3), (1, 0)] {
                let mut got: Vec<usize> = index.candidates(v, e, tau).collect();
                got.sort_unstable();
                let expected: Vec<usize> = d
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| {
                        (q.vertex_count() as u32).abs_diff(v) + (q.edge_count() as u32).abs_diff(e)
                            <= tau
                    })
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, expected, "tau={tau} v={v} e={e}");
            }
        }
    }

    #[test]
    fn indexed_join_matches_plain_join() {
        // The batch join and one `join_one` per question are the same
        // driver: same matches, same funnel.
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let index = JoinIndex::build(&d);
        for tau in 0..3u32 {
            let params = JoinParams::simj(tau, 0.3);
            let (batch, bstats) = sim_join(&t, &d, &u, params);
            let mut stitched = Vec::new();
            let mut sstats = JoinStats::default();
            for (gi, g) in u.iter().enumerate() {
                let (m, s) = index.join_one(&t, gi, g, params);
                stitched.extend(m);
                sstats.merge(&s);
            }
            assert_eq!(batch, stitched, "tau={tau}");
            assert_eq!(bstats.pairs_total, sstats.pairs_total);
            assert_eq!(bstats.results, sstats.results);
            assert_eq!(bstats.pruned_stages(), sstats.pruned_stages());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut t = SymbolTable::new();
        let mut d = Vec::new();
        let mut u = Vec::new();
        for i in 0..6 {
            let mut b = GraphBuilder::new(&mut t);
            b.vertex("x", "?x");
            b.vertex("a", if i % 2 == 0 { "Actor" } else { "Band" });
            b.edge("x", "a", "type");
            d.push(b.into_graph());
            let mut b = GraphBuilder::new(&mut t);
            b.vertex("x", "?y");
            b.uncertain_vertex("m", &[("Actor", 0.5), ("Band", 0.5)]);
            b.edge("x", "m", "type");
            u.push(b.into_uncertain());
        }
        let params = JoinParams::simj(1, 0.4);
        let (seq, seq_stats) = sim_join(&t, &d, &u, params);
        let (par, par_stats) = JoinIndex::build(&d).join(&t, &u, params, 3);
        assert_eq!(seq, par);
        assert_eq!(seq_stats.pairs_total, par_stats.pairs_total);
        assert_eq!(seq_stats.results, par_stats.results);
        // A run on several workers measures its own wall clock and reports
        // it as the response time; a one-thread run leaves it unset and
        // falls back to the summed CPU time.
        assert!(par_stats.wall_time > std::time::Duration::ZERO);
        assert_eq!(par_stats.response_time(), par_stats.wall_time);
        assert_eq!(seq_stats.wall_time, std::time::Duration::ZERO);
        assert_eq!(seq_stats.response_time(), seq_stats.cpu_time());
    }

    #[test]
    fn more_workers_than_graphs_is_fine() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "Actor");
        let d = vec![b.into_graph()];
        let mut u = Vec::new();
        for _ in 0..2 {
            let mut b = GraphBuilder::new(&mut t);
            b.vertex("x", "Actor");
            u.push(b.into_uncertain());
        }
        let (par, stats) = JoinIndex::build(&d).join(&t, &u, JoinParams::simj(0, 0.5), 16);
        assert_eq!(par.len(), 2);
        assert_eq!(stats.pairs_total, 2);
        let (none, stats) = JoinIndex::build(&d).join(&t, &[], JoinParams::simj(0, 0.5), 4);
        assert!(none.is_empty());
        assert_eq!(stats.pairs_total, 0);
    }

    #[test]
    fn only_identical_queries_share_a_class() {
        let mut t = SymbolTable::new();
        let (mut d, u) = workload(&mut t);
        d.push(d[2].clone());
        // Same labels and edge count as d[1], edge reversed: a different
        // graph, so a class of its own.
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("v0", "A");
        b.vertex("v1", "A");
        b.edge("v1", "v0", "p");
        d.push(b.into_graph());
        let index = JoinIndex::build(&d);
        assert_eq!(index.class_count(), d.len() - 1);
        assert_eq!(index.class_of(5), index.class_of(2), "the copy joins d[2]'s class");
        let mut ids: Vec<u32> = (0..d.len()).map(|q| index.class_of(q)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), index.class_count(), "every other query is a class of its own");
        let mut window: Vec<usize> = index.candidates(3, 2, 0).collect();
        window.sort_unstable();
        assert_eq!(window, [2, 5], "both copies of d[2] are in the window");
        // The copy takes d[2]'s verdict under its own id.
        let params = JoinParams::simj(2, 0.3);
        let (matches, stats) = index.join(&t, &u, params, 1);
        for m in matches.iter().filter(|m| m.q_index == 5) {
            let original = matches.iter().find(|o| o.q_index == 2 && o.g_index == m.g_index);
            assert_eq!(original.map(|o| (o.prob, &o.mapping)), Some((m.prob, &m.mapping)));
        }
        assert!(matches.iter().any(|m| m.q_index == 5));
        assert!(stats.verifications < stats.candidates);
        assert_eq!(stats.pairs_total, (d.len() * u.len()) as u64);
    }

    #[test]
    fn owned_index_joins_like_a_borrowed_one() {
        let mut t = SymbolTable::new();
        let (d, u) = workload(&mut t);
        let params = JoinParams::simj(1, 0.3);
        let borrowed = JoinIndex::build(&d).join_one(&t, 7, &u[1], params).0;
        let owned = JoinIndex::build_owned(d.clone());
        assert_eq!(owned.queries().len(), d.len());
        assert_eq!(owned.join_one(&t, 7, &u[1], params).0, borrowed);
    }
}
