//! World-incremental verification state, built once per uncertain graph.
//!
//! All possible worlds of one uncertain graph share their entire structure
//! and differ only in uncertain-vertex labels (Def. 2: structure is
//! certain). A [`WorldVerifier`] therefore builds g's side of everything
//! the τ-bounded A\* needs **once** per `g` via
//! [`uqsj_ged::PairProfile::prepare_uncertain`], binds each query on top of
//! it with [`WorldVerifier::set_query`], and re-verifies each world by
//! patching only the chosen vertex labels:
//!
//! * shared per `g`: g-side topology, edge-label buckets, the label-id
//!   table (every alternative label is interned up front), one skeleton
//!   [`Graph`] for the per-world CSS filter, and g's worlds sorted by
//!   probability (collected on first use);
//! * rebuilt per query, on reused buffers: q's processing order, its own
//!   label ids and its per-prefix remainder count tables;
//! * recomputed per world: the g vertex label assignment (O(V)) and the
//!   per-label vertex masks (O(V + L)) — nothing is allocated and no
//!   [`Graph`] is materialized.
//!
//! A world qualifies only through the τ-bounded A\* itself, which returns
//! the exact distance and the search's optimal mapping. Results are
//! bit-identical to rebuilding the search from a materialized world: the
//! engine's oracle tests prove it against the retained reference
//! implementation.
//!
//! The verifier also keeps the stage clock behind [`VerifySplit`]: each
//! step that ends a stage (binding the query, patching a world, the CSS
//! filter, the search) reads the clock once and credits the interval since
//! the previous read to its stage.

use std::time::{Duration, Instant};
use uqsj_ged::astar::GedResult;
use uqsj_ged::bounds::css::lb_ged_css_certain;
use uqsj_ged::engine::GedEngine;
use uqsj_ged::PairProfile;
use uqsj_graph::{Graph, Symbol, SymbolTable, UncertainGraph, VertexId};

/// Verification time by stage, from one clock read per stage boundary, so
/// the stages sum to the verification's elapsed time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifySplit {
    /// Building verifier state: g's side on the first query that needs it,
    /// then each query's side.
    pub profile: Duration,
    /// Drawing or ordering worlds, patching their labels, and the
    /// bookkeeping between worlds.
    pub enumerate: Duration,
    /// Per-world (and per-group) CSS lower bounds.
    pub css: Duration,
    /// τ-bounded A\*.
    pub search: Duration,
}

impl VerifySplit {
    /// The four stages summed.
    pub fn total(&self) -> Duration {
        self.profile + self.enumerate + self.css + self.search
    }

    /// Add another split stage by stage.
    pub fn add(&mut self, other: &VerifySplit) {
        self.profile += other.profile;
        self.enumerate += other.enumerate;
        self.css += other.css;
        self.search += other.search;
    }
}

/// A stage of [`VerifySplit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyStage {
    /// See [`VerifySplit::profile`].
    Profile,
    /// See [`VerifySplit::enumerate`].
    Enumerate,
    /// See [`VerifySplit::css`].
    Css,
    /// See [`VerifySplit::search`].
    Search,
}

/// Reusable verification state for one uncertain graph `g` and the query
/// currently bound to it; see the module docs for what is shared per `g`,
/// per query and per world.
pub struct WorldVerifier<'g> {
    g: &'g UncertainGraph,
    profile: PairProfile,
    /// g's structure with the current world's labels, for the CSS filter
    /// (which takes certain graphs).
    skeleton: Graph,
    /// Per vertex: `(symbol, profile label id)` of each alternative.
    alt: Vec<Vec<(Symbol, u32)>>,
    /// g's worlds, most probable first (a stable sort of the enumeration
    /// order): `g.vertex_count()` choices per world, flat.
    sorted_choices: Vec<u32>,
    sorted_probs: Vec<f64>,
    sorted: bool,
    clock: Instant,
    split: VerifySplit,
}

impl<'g> WorldVerifier<'g> {
    /// Build g's side of the state; bind a query with
    /// [`WorldVerifier::set_query`] before verifying. The current world
    /// starts at alternative 0 of every vertex, and the stage clock starts
    /// now.
    pub fn prepare(table: &SymbolTable, g: &'g UncertainGraph) -> Self {
        let clock = Instant::now();
        let mut profile = PairProfile::new();
        profile.prepare_uncertain(table, g);
        let mut skeleton = Graph::new();
        for v in g.vertices() {
            skeleton.add_vertex(v.alternatives[0].label);
        }
        for e in g.edges() {
            skeleton.add_edge(e.src, e.dst, e.label);
        }
        let alt = g
            .vertices()
            .iter()
            .map(|v| {
                v.alternatives
                    .iter()
                    .map(|a| {
                        let lid = profile.lid(a.label).expect("alternative interned at build");
                        (a.label, lid)
                    })
                    .collect()
            })
            .collect();
        Self {
            g,
            profile,
            skeleton,
            alt,
            sorted_choices: Vec::new(),
            sorted_probs: Vec::new(),
            sorted: false,
            clock,
            split: VerifySplit::default(),
        }
    }

    /// Fresh state for one `(q, g)` pair: [`WorldVerifier::prepare`] then
    /// [`WorldVerifier::set_query`].
    pub fn new(table: &SymbolTable, q: &Graph, g: &'g UncertainGraph) -> Self {
        let mut verifier = Self::prepare(table, g);
        verifier.set_query(table, q);
        verifier
    }

    /// The uncertain graph this state was prepared for.
    #[inline]
    pub fn graph(&self) -> &'g UncertainGraph {
        self.g
    }

    /// Bind `q`, replacing the previously bound query; g's side and the
    /// current world stay. Ends a [`VerifyStage::Profile`] interval.
    pub fn set_query(&mut self, table: &SymbolTable, q: &Graph) {
        self.profile.set_query(table, q);
        self.lap(VerifyStage::Profile);
    }

    /// Select the world given by one alternative index per vertex. Ends a
    /// [`VerifyStage::Enumerate`] interval.
    pub fn set_choice(&mut self, choice: &[u32]) {
        debug_assert_eq!(choice.len(), self.alt.len());
        for (v, &c) in choice.iter().enumerate() {
            let (sym, lid) = self.alt[v][c as usize];
            self.skeleton.set_label(VertexId(v as u32), sym);
            self.profile.set_g_vertex_lid(v, lid);
        }
        self.profile.commit_world();
        self.lap(VerifyStage::Enumerate);
    }

    /// Select the world given by one label per vertex (the possible-world
    ///-group enumeration yields labels, not indices). Every label must be
    /// one of the vertex's alternatives. Ends a [`VerifyStage::Enumerate`]
    /// interval.
    pub fn set_labels(&mut self, labels: &[Symbol]) {
        debug_assert_eq!(labels.len(), self.alt.len());
        for (v, &sym) in labels.iter().enumerate() {
            let lid = self.profile.lid(sym).expect("group label is a known alternative");
            self.skeleton.set_label(VertexId(v as u32), sym);
            self.profile.set_g_vertex_lid(v, lid);
        }
        self.profile.commit_world();
        self.lap(VerifyStage::Enumerate);
    }

    /// The number of g's worlds in most-probable-first order, collecting
    /// and sorting them on the first call for this `g`.
    pub fn sorted_world_count(&mut self) -> usize {
        if !self.sorted {
            let mut all: Vec<(Vec<u32>, f64)> = Vec::new();
            let mut cursor = self.g.world_choices();
            while let Some((choice, prob)) = cursor.next_world() {
                all.push((choice.to_vec(), prob));
            }
            all.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probability"));
            for (choice, prob) in all {
                self.sorted_choices.extend(choice);
                self.sorted_probs.push(prob);
            }
            self.sorted = true;
        }
        self.sorted_probs.len()
    }

    /// Select the `i`-th most probable world (after
    /// [`WorldVerifier::sorted_world_count`]) and return its probability.
    /// Ends a [`VerifyStage::Enumerate`] interval.
    pub fn set_sorted_world(&mut self, i: usize) -> f64 {
        let n = self.alt.len();
        let Self { sorted_choices, profile, skeleton, alt, .. } = self;
        for (v, &c) in sorted_choices[i * n..(i + 1) * n].iter().enumerate() {
            let (sym, lid) = alt[v][c as usize];
            skeleton.set_label(VertexId(v as u32), sym);
            profile.set_g_vertex_lid(v, lid);
        }
        profile.commit_world();
        self.lap(VerifyStage::Enumerate);
        self.sorted_probs[i]
    }

    /// The current world as a certain graph.
    #[inline]
    pub fn world_graph(&self) -> &Graph {
        &self.skeleton
    }

    /// The per-world structural filter (Algorithm 1, line 9): whether the
    /// CSS lower bound between `q` and the current world is within τ. Ends
    /// a [`VerifyStage::Css`] interval.
    pub fn css_admits(&mut self, table: &SymbolTable, q: &Graph, tau: u32) -> bool {
        let admits = lb_ged_css_certain(table, q, &self.skeleton) <= tau;
        self.lap(VerifyStage::Css);
        admits
    }

    /// Decide whether the current world is within τ of the bound query by
    /// τ-bounded A\*, returning the exact distance and the search's
    /// *optimal* mapping — which template generation depends on. Ends a
    /// [`VerifyStage::Search`] interval.
    pub fn within_tau(&mut self, engine: &mut GedEngine, tau: u32) -> Option<GedResult> {
        let result = engine.run_profile(&self.profile, tau);
        self.lap(VerifyStage::Search);
        result
    }

    /// Restart the stage clock at `at` with an empty split — `at` is the
    /// clock read that ended whatever ran before verification.
    pub fn start_split(&mut self, at: Instant) {
        self.clock = at;
        self.split = VerifySplit::default();
    }

    /// Credit the time since the previous clock read to `stage`.
    pub fn lap(&mut self, stage: VerifyStage) {
        let now = Instant::now();
        let d = now - self.clock;
        self.clock = now;
        match stage {
            VerifyStage::Profile => self.split.profile += d,
            VerifyStage::Enumerate => self.split.enumerate += d,
            VerifyStage::Css => self.split.css += d,
            VerifyStage::Search => self.split.search += d,
        }
    }

    /// End the verification: credit the time since the last stage
    /// boundary to [`VerifyStage::Enumerate`] and return the split since
    /// [`WorldVerifier::start_split`].
    pub fn finish_split(&mut self) -> VerifySplit {
        self.lap(VerifyStage::Enumerate);
        self.split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_ged::reference::ged_bounded_reference;
    use uqsj_graph::GraphBuilder;

    #[test]
    fn patched_worlds_match_materialized_reference() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?x");
        b.vertex("a", "Actor");
        b.vertex("c", "Country");
        b.edge("x", "a", "type");
        b.edge("x", "c", "birthPlace");
        let q = b.into_graph();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("y", "?y");
        b.uncertain_vertex("m", &[("NBA_Player", 0.5), ("Professor", 0.3), ("Actor", 0.2)]);
        b.uncertain_vertex("n", &[("Country", 0.7), ("City", 0.3)]);
        b.edge("y", "m", "type");
        b.edge("y", "n", "birthPlace");
        let g = b.into_uncertain();

        let mut verifier = WorldVerifier::new(&t, &q, &g);
        let mut engine = GedEngine::new();
        for world in g.possible_worlds() {
            verifier.set_choice(&world.choice);
            assert_eq!(verifier.world_graph(), &world.graph);
            for tau in 0..4 {
                let got = verifier.within_tau(&mut engine, tau);
                // Mirror the production decision procedure on a freshly
                // materialized graph with the reference search: A* at
                // limit τ.
                let want = ged_bounded_reference(&t, &q, &world.graph, tau);
                assert_eq!(got, want, "choice {:?} tau {tau}", world.choice);
            }
        }
    }

    #[test]
    fn sorted_worlds_are_most_probable_first_and_stable() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.uncertain_vertex("m", &[("A", 0.5), ("B", 0.25), ("C", 0.25)]);
        b.uncertain_vertex("n", &[("D", 0.5), ("E", 0.5)]);
        let g = b.into_uncertain();
        let mut verifier = WorldVerifier::prepare(&t, &g);
        assert_eq!(verifier.sorted_world_count(), 6);
        let probs: Vec<f64> = (0..6).map(|i| verifier.set_sorted_world(i)).collect();
        assert_eq!(probs, [0.25, 0.25, 0.125, 0.125, 0.125, 0.125]);
        // Ties keep enumeration order: (A, D) before (A, E).
        verifier.set_sorted_world(1);
        let e = t.intern("E");
        assert_eq!(verifier.world_graph().label(VertexId(1)), e);
        // A second call reuses the collected list.
        assert_eq!(verifier.sorted_world_count(), 6);
    }

    #[test]
    fn split_stages_sum_to_elapsed() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "A");
        let q = b.into_graph();
        let mut b = GraphBuilder::new(&mut t);
        b.uncertain_vertex("x", &[("A", 0.5), ("B", 0.5)]);
        let g = b.into_uncertain();
        let started = Instant::now();
        let mut verifier = WorldVerifier::prepare(&t, &g);
        verifier.start_split(started);
        verifier.set_query(&t, &q);
        verifier.set_choice(&[1]);
        assert!(verifier.css_admits(&t, &q, 1));
        assert!(verifier.within_tau(&mut GedEngine::new(), 1).is_some());
        let split = verifier.finish_split();
        let elapsed = started.elapsed();
        assert!(split.total() <= elapsed);
    }
}
