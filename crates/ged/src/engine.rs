//! Reusable τ-bounded A\* engine with a counted-multiset heuristic.
//!
//! This is the verification fast path behind [`crate::ged`] /
//! [`crate::ged_bounded`]. It reproduces the reference search in
//! [`crate::reference`] bit-for-bit (same distances, same mappings, same
//! expansion order) while removing its three per-state costs:
//!
//! * **Counted-multiset heuristic** — the admissible label-multiset bound
//!   is evaluated from per-prefix label→count tables plus per-state
//!   scalars (`inter_v`, `inter_e`, remaining-edge counts) that are
//!   updated incrementally, so computing `h` after mapping one vertex is
//!   O(degree) instead of re-collecting and sorting the g-side label
//!   vectors (O(E log E)). Debug builds assert every `h` against a
//!   from-scratch recount.
//! * **Slab states** — search states live in a parent-pointer slab; no
//!   mapping `Vec` is cloned per expansion, and the full mapping is
//!   reconstructed only for the single accepted goal state.
//! * **Reusable workspace** — the heap, slab, and all scratch buffers are
//!   owned by a [`GedEngine`] and reused across calls; a [`PairProfile`]
//!   additionally lets possible-world verification rebuild only the
//!   world-dependent part (g vertex labels) per world.
//!
//! Label identity is tracked through small per-pair integer ids (`lid`s)
//! interned from the global [`Symbol`]s, so all multiset arithmetic runs
//! on dense count arrays.

use crate::astar::GedResult;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BinaryHeap, HashMap};
use uqsj_graph::{Edge, Graph, Symbol, SymbolTable, UncertainGraph, VertexId};

const EPS: u32 = u32::MAX;

/// Edge label ids per ordered vertex pair of one graph, in CSR form: the
/// labels of the pair `(a, b)` are `lids[start[a·n + b]..start[a·n + b + 1]]`.
/// Rebuilt in place, so a reused table allocates only when it grows.
#[derive(Default)]
struct PairLabels {
    n: usize,
    start: Vec<u32>,
    lids: Vec<u32>,
}

impl PairLabels {
    /// Rebuild over `n` vertices from `edges` and the label id of each.
    fn build(&mut self, n: usize, edges: &[Edge], lid: impl Fn(usize) -> u32) {
        self.n = n;
        self.start.clear();
        self.start.resize(n * n + 1, 0);
        for e in edges {
            self.start[e.src.index() * n + e.dst.index()] += 1;
        }
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        // Each pair's slot counts down from its end; afterwards `start[i]`
        // is where pair `i` begins and `start[i + 1]` where it ends.
        self.lids.clear();
        self.lids.resize(edges.len(), 0);
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut self.start[e.src.index() * n + e.dst.index()];
            *slot -= 1;
            self.lids[*slot as usize] = lid(i);
        }
    }

    /// The edge label ids from `a` to `b`.
    #[inline]
    fn get(&self, a: u32, b: u32) -> &[u32] {
        let i = a as usize * self.n + b as usize;
        &self.lids[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Precomputed structure of one `(q, g)` pair: everything the search
/// needs that does not depend on the current possible world except the
/// g-side vertex labels, which can be patched per world via
/// [`PairProfile::set_g_vertex_lid`] + [`PairProfile::commit_world`].
///
/// The profile has a g side and a q side. [`PairProfile::prepare_uncertain`]
/// builds the g side once per graph: its topology, edge-label buckets and
/// the ids of every alternative label, so world patching never allocates.
/// [`PairProfile::set_query`] then binds a query on top of it, adding only
/// the query's own labels and its per-prefix count tables on reused
/// buffers; it can be called again for the next query against the same
/// `g`. [`PairProfile::build_certain`] does both steps for a pair of
/// certain graphs.
#[derive(Default)]
pub struct PairProfile {
    // ---- label space: g's labels first, then the query's own ----
    lid_of: HashMap<Symbol, u32>,
    wild: Vec<bool>,
    /// Label ids below this are g's; the bound query's own labels follow.
    g_labels: usize,
    /// Symbols the bound query added to the label space.
    q_syms: Vec<Symbol>,
    // ---- q side (world-independent) ----
    n_q: usize,
    /// Processing order of q vertices (largest degree first, stable).
    order: Vec<u32>,
    /// Label id of `order[i]`.
    order_lid: Vec<u32>,
    /// Position of each q vertex in `order` (build scratch).
    q_pos: Vec<u32>,
    /// Row `k`: label counts of the q vertices not yet processed
    /// (`order[k..]`), laid out as `(n_q + 1) × L`.
    qv_cnt: Vec<u32>,
    /// Row `k`: label counts of q edges with >= 1 unprocessed endpoint.
    qe_cnt: Vec<u32>,
    /// Non-wildcard / wildcard q vertex remainder sizes per prefix.
    qn: Vec<u32>,
    qw: Vec<u32>,
    /// Non-wildcard / wildcard q edge remainder sizes per prefix.
    qen: Vec<u32>,
    qew: Vec<u32>,
    /// `(lid, multiplicity)` of q edges leaving the remainder at each
    /// expansion step, indexed by `q_removal_start[k]..q_removal_start[k+1]`.
    q_edge_removals: Vec<(u32, u32)>,
    q_removal_start: Vec<u32>,
    /// `(max position in order, lid)` per q edge.
    q_edge_info: Vec<(u32, u32)>,
    /// Edge label ids per ordered q vertex pair.
    q_pairs: PairLabels,
    // ---- g side, world-independent (structure is certain) ----
    n_g: usize,
    g_pairs: PairLabels,
    /// Per g vertex: `(endpoint mask, lid)` of every incident edge.
    g_adj: Vec<Vec<(u128, u32)>>,
    /// Per lid: endpoint masks of the g edges carrying it (empty for the
    /// query's own labels).
    g_edges_by_label: Vec<Vec<u128>>,
    /// `(endpoint mask, lid)` per g edge.
    g_edge_info: Vec<(u128, u32)>,
    ge_total_n: u32,
    ge_total_w: u32,
    g_full_mask: u128,
    // ---- g side, world-dependent (rebuilt by `commit_world`) ----
    /// Current label id of each g vertex.
    g_vlid: Vec<u32>,
    /// Per lid: bitmask of g vertices currently carrying it.
    g_vmask: Vec<u128>,
    /// Per lid: number of g vertices currently carrying it.
    g_vtotal: Vec<u32>,
    /// Bitmask of g vertices whose current label is not a wildcard.
    g_nonwild_mask: u128,
}

impl PairProfile {
    /// An empty profile; build it with [`PairProfile::build_certain`], or
    /// with [`PairProfile::prepare_uncertain`] and
    /// [`PairProfile::set_query`].
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, table: &SymbolTable, s: Symbol) -> u32 {
        match self.lid_of.entry(s) {
            MapEntry::Occupied(e) => *e.get(),
            MapEntry::Vacant(e) => {
                let id = self.wild.len() as u32;
                self.wild.push(table.is_wildcard(s));
                e.insert(id);
                id
            }
        }
    }

    /// Build the profile for a pair of certain graphs.
    pub fn build_certain(&mut self, table: &SymbolTable, q: &Graph, g: &Graph) {
        self.prepare_impl(table, g.vertex_count(), g.edges(), |p, t| {
            for v in g.vertices() {
                let lid = p.intern(t, g.label(v));
                p.g_vlid.push(lid);
            }
        });
        self.set_query(table, q);
    }

    /// Build the g side for the *structure* of an uncertain graph. Every
    /// alternative label is interned so later world patches resolve via
    /// [`PairProfile::lid`] without allocation; the initial world selects
    /// alternative 0 of every vertex. The empty query is bound until
    /// [`PairProfile::set_query`] binds another.
    pub fn prepare_uncertain(&mut self, table: &SymbolTable, g: &UncertainGraph) {
        self.prepare_impl(table, g.vertex_count(), g.edges(), |p, t| {
            for v in g.vertices() {
                let first = p.intern(t, v.alternatives[0].label);
                for alt in &v.alternatives[1..] {
                    p.intern(t, alt.label);
                }
                p.g_vlid.push(first);
            }
        });
        self.set_query(table, &Graph::new());
    }

    /// Reset the profile to g's side alone — topology, edge buckets and
    /// the label ids `fill` interns for g's vertices — leaving the q side
    /// stale until [`PairProfile::set_query`] rebuilds it.
    fn prepare_impl<F>(&mut self, table: &SymbolTable, n_g: usize, g_edges: &[Edge], fill: F)
    where
        F: FnOnce(&mut Self, &SymbolTable),
    {
        assert!(n_g <= 128, "A* GED supports up to 128 vertices");
        self.lid_of.clear();
        self.wild.clear();
        self.q_syms.clear();
        self.n_g = n_g;
        self.g_full_mask = if n_g == 128 { u128::MAX } else { (1u128 << n_g) - 1 };
        self.g_adj.clear();
        self.g_adj.resize(n_g, Vec::new());
        self.g_edge_info.clear();
        for e in g_edges {
            let lid = self.intern(table, e.label);
            let emask = (1u128 << e.src.0) | (1u128 << e.dst.0);
            self.g_edge_info.push((emask, lid));
            self.g_adj[e.src.index()].push((emask, lid));
            if e.dst != e.src {
                self.g_adj[e.dst.index()].push((emask, lid));
            }
        }
        let info = &self.g_edge_info;
        self.g_pairs.build(n_g, g_edges, |i| info[i].1);
        self.g_vlid.clear();
        fill(self, table);
        debug_assert_eq!(self.g_vlid.len(), n_g);
        self.g_labels = self.wild.len();

        // g-side per-label edge buckets (edge labels are certain, so these
        // are world-independent too).
        self.g_edges_by_label.clear();
        self.g_edges_by_label.resize(self.g_labels, Vec::new());
        let (mut gen_t, mut gew_t) = (0u32, 0u32);
        for &(emask, lid) in &self.g_edge_info {
            self.g_edges_by_label[lid as usize].push(emask);
            if self.wild[lid as usize] {
                gew_t += 1;
            } else {
                gen_t += 1;
            }
        }
        self.ge_total_n = gen_t;
        self.ge_total_w = gew_t;
    }

    /// Bind `q` to the prepared g side, replacing the previously bound
    /// query. Only q's own labels and its per-prefix count tables are
    /// built, on reused buffers; g's side and its current world stay.
    pub fn set_query(&mut self, table: &SymbolTable, q: &Graph) {
        for s in self.q_syms.drain(..) {
            self.lid_of.remove(&s);
        }
        self.wild.truncate(self.g_labels);
        self.order.clear();
        self.order_lid.clear();
        self.qv_cnt.clear();
        self.qe_cnt.clear();
        self.qn.clear();
        self.qw.clear();
        self.qen.clear();
        self.qew.clear();
        self.q_edge_removals.clear();
        self.q_removal_start.clear();
        self.q_edge_info.clear();

        let n = q.vertex_count();
        self.n_q = n;
        // Fixed processing order: largest degree first. The sort must stay
        // stable — the reference search uses `sort_by_key`, and expansion
        // order (hence heap tie-breaking and the returned mapping) depends
        // on it.
        self.order.extend(0..n as u32);
        self.order.sort_by_key(|&v| Reverse(q.degree(VertexId(v))));
        self.q_pos.clear();
        self.q_pos.resize(n, 0);
        for (i, &v) in self.order.iter().enumerate() {
            self.q_pos[v as usize] = i as u32;
        }
        for i in 0..n {
            let lid = self.intern_query(table, q.label(VertexId(self.order[i])));
            self.order_lid.push(lid);
        }
        for e in q.edges() {
            let lid = self.intern_query(table, e.label);
            let max_pos = self.q_pos[e.src.index()].max(self.q_pos[e.dst.index()]);
            self.q_edge_info.push((max_pos, lid));
        }
        let info = &self.q_edge_info;
        self.q_pairs.build(n, q.edges(), |i| info[i].1);

        // Per-prefix q-side count tables over the final label space.
        let l = self.wild.len();
        self.qv_cnt.resize((n + 1) * l, 0);
        self.qe_cnt.resize((n + 1) * l, 0);
        for &lid in &self.order_lid {
            self.qv_cnt[lid as usize] += 1;
        }
        for &(_, lid) in &self.q_edge_info {
            self.qe_cnt[lid as usize] += 1;
        }
        let (mut qn, mut qw) = (0u32, 0u32);
        for &lid in &self.order_lid {
            if self.wild[lid as usize] {
                qw += 1;
            } else {
                qn += 1;
            }
        }
        let (mut qen, mut qew) = (0u32, 0u32);
        for &(_, lid) in &self.q_edge_info {
            if self.wild[lid as usize] {
                qew += 1;
            } else {
                qen += 1;
            }
        }
        self.qn.push(qn);
        self.qw.push(qw);
        self.qen.push(qen);
        self.qew.push(qew);
        self.q_removal_start.push(0);
        for k in 0..n {
            let src = k * l;
            let dst = (k + 1) * l;
            self.qv_cnt.copy_within(src..src + l, dst);
            let lu = self.order_lid[k] as usize;
            self.qv_cnt[dst + lu] -= 1;
            if self.wild[lu] {
                qw -= 1;
            } else {
                qn -= 1;
            }
            self.qn.push(qn);
            self.qw.push(qw);

            self.qe_cnt.copy_within(src..src + l, dst);
            let start = self.q_edge_removals.len();
            for i in 0..self.q_edge_info.len() {
                let (max_pos, lid) = self.q_edge_info[i];
                if max_pos as usize == k {
                    if let Some(slot) =
                        self.q_edge_removals[start..].iter_mut().find(|(id, _)| *id == lid)
                    {
                        slot.1 += 1;
                    } else {
                        self.q_edge_removals.push((lid, 1));
                    }
                }
            }
            for i in start..self.q_edge_removals.len() {
                let (lid, mult) = self.q_edge_removals[i];
                self.qe_cnt[dst + lid as usize] -= mult;
                if self.wild[lid as usize] {
                    qew -= mult;
                } else {
                    qen -= mult;
                }
            }
            self.qen.push(qen);
            self.qew.push(qew);
            self.q_removal_start.push(self.q_edge_removals.len() as u32);
        }

        // No g edge carries a label only the query has.
        self.g_edges_by_label.resize(l, Vec::new());
        self.g_vmask.resize(l, 0);
        self.g_vtotal.resize(l, 0);
        self.commit_world();
    }

    /// [`PairProfile::intern`] for the query side: a label g does not
    /// carry is remembered so the next [`PairProfile::set_query`] drops it.
    fn intern_query(&mut self, table: &SymbolTable, s: Symbol) -> u32 {
        let before = self.wild.len();
        let lid = self.intern(table, s);
        if self.wild.len() > before {
            self.q_syms.push(s);
        }
        lid
    }

    /// The profile label id of `s`, if it occurred in the pair (all
    /// alternative labels of an uncertain `g` are interned at build time).
    #[inline]
    pub fn lid(&self, s: Symbol) -> Option<u32> {
        self.lid_of.get(&s).copied()
    }

    /// Patch the label of g vertex `v` for the current world. Call
    /// [`PairProfile::commit_world`] after patching all changed vertices.
    #[inline]
    pub fn set_g_vertex_lid(&mut self, v: usize, lid: u32) {
        debug_assert!((lid as usize) < self.g_labels);
        self.g_vlid[v] = lid;
    }

    /// Rebuild the world-dependent vertex tables (per-label masks and
    /// counts) from the current `g` vertex labels. O(V + L).
    pub fn commit_world(&mut self) {
        for m in &mut self.g_vmask {
            *m = 0;
        }
        for t in &mut self.g_vtotal {
            *t = 0;
        }
        self.g_nonwild_mask = 0;
        for (v, &lid) in self.g_vlid.iter().enumerate() {
            self.g_vmask[lid as usize] |= 1u128 << v;
            self.g_vtotal[lid as usize] += 1;
            if !self.wild[lid as usize] {
                self.g_nonwild_mask |= 1u128 << v;
            }
        }
    }
}

/// One search state in the slab: the mapped prefix is recovered by
/// following `parent` pointers, so expansions copy 48 bytes instead of
/// cloning a mapping `Vec`.
#[derive(Clone, Copy)]
struct Node {
    parent: u32,
    /// Image of `order[k - 1]` (EPS = deleted); unused for the root.
    target: u32,
    /// Prefix length.
    k: u32,
    cost: u32,
    used: u128,
    /// Σ_l min(q remaining, g remaining) over non-wildcard vertex labels.
    inter_v: u32,
    /// Same for edge labels.
    inter_e: u32,
    /// Non-wildcard / wildcard g edges with >= 1 unused endpoint.
    gen_rem: u32,
    gew_rem: u32,
}

#[derive(PartialEq, Eq)]
struct HeapItem {
    f: u32,
    tie: u64,
    node: u32,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.f, self.tie).cmp(&(other.f, other.tie))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-call search effort, accumulated locally (plain integers) and
/// flushed to the `uqsj_ged_*` metrics once per [`GedEngine`] call — the
/// search loop itself never touches an atomic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// States popped from the open list and expanded.
    pub expanded: u64,
    /// Heuristic evaluations (one per child considered).
    pub heuristic_evals: u64,
    /// Children admitted to the open list (`f <= τ`).
    pub enqueued: u64,
    /// High-water mark of the open list.
    pub heap_peak: u64,
}

/// Heap, slab, and scratch buffers, allocated once and reused.
#[derive(Default)]
struct SearchSpace {
    nodes: Vec<Node>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    /// Images of `order[0..k]` of the state being expanded.
    cur_map: Vec<u32>,
    /// Per-lid counter scratch for pairwise edge-label multiset costs.
    lam_cnt: Vec<u32>,
    lam_touch: Vec<u32>,
    /// `(lid, multiplicity)` of g edges leaving the remainder at one child.
    leave_buf: Vec<(u32, u32)>,
    /// Effort counters of the current/last call.
    stats: RunStats,
    /// Effort summed over every call on this engine (counters add,
    /// `heap_peak` max-merges) — the per-question EXPLAIN source.
    cumulative: RunStats,
}

/// Metric handles, registered once in the global registry.
struct EngineObs {
    calls: uqsj_obs::Counter,
    within_tau: uqsj_obs::Counter,
    expanded: uqsj_obs::Histogram,
    heuristic_evals: uqsj_obs::Histogram,
    heap_peak: uqsj_obs::Histogram,
}

fn engine_obs() -> &'static EngineObs {
    use std::sync::OnceLock;
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = uqsj_obs::global();
        EngineObs {
            calls: r.counter("uqsj_ged_calls_total", "tau-bounded A* searches started"),
            within_tau: r
                .counter("uqsj_ged_within_tau_total", "searches that found a mapping within tau"),
            expanded: r.histogram("uqsj_ged_states_expanded", "states expanded per A* call"),
            heuristic_evals: r
                .histogram("uqsj_ged_heuristic_evals", "heuristic evaluations per A* call"),
            heap_peak: r.histogram("uqsj_ged_heap_peak", "open-list high-water mark per A* call"),
        }
    })
}

/// A reusable GED search workspace.
///
/// One engine amortizes every allocation of τ-bounded A\* across an
/// arbitrary candidate stream; join drivers hold one per worker thread,
/// and the free functions [`crate::ged`] / [`crate::ged_bounded`] share a
/// thread-local instance. Results are bit-identical to the reference
/// search in [`crate::reference`].
///
/// ```
/// use uqsj_graph::{GraphBuilder, SymbolTable};
/// use uqsj_ged::engine::GedEngine;
/// let mut t = SymbolTable::new();
/// let mut b = GraphBuilder::new(&mut t);
/// b.vertex("x", "A");
/// let q = b.into_graph();
/// let mut b = GraphBuilder::new(&mut t);
/// b.vertex("x", "B");
/// let g = b.into_graph();
/// let mut engine = GedEngine::new();
/// assert_eq!(engine.ged(&t, &q, &g).distance, 1);
/// assert_eq!(engine.ged(&t, &q, &q).distance, 0); // workspace reused
/// ```
#[derive(Default)]
pub struct GedEngine {
    ws: SearchSpace,
    profile: PairProfile,
}

impl GedEngine {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exact GED; see [`crate::ged`].
    pub fn ged(&mut self, table: &SymbolTable, q: &Graph, g: &Graph) -> GedResult {
        self.ged_bounded(table, q, g, u32::MAX).expect("unbounded search always finds a mapping")
    }

    /// τ-bounded GED; see [`crate::ged_bounded`].
    pub fn ged_bounded(
        &mut self,
        table: &SymbolTable,
        q: &Graph,
        g: &Graph,
        tau: u32,
    ) -> Option<GedResult> {
        self.profile.build_certain(table, q, g);
        let Self { ws, profile } = self;
        run_astar(ws, profile, tau)
    }

    /// τ-bounded GED over an externally owned profile — the possible-world
    /// path: the caller patches the profile per world and re-runs.
    pub fn run_profile(&mut self, profile: &PairProfile, tau: u32) -> Option<GedResult> {
        run_astar(&mut self.ws, profile, tau)
    }

    /// Search-effort counters of the most recent call on this engine.
    pub fn last_run_stats(&self) -> RunStats {
        self.ws.stats
    }

    /// Search effort summed over every call since the engine was built
    /// (`heap_peak` is the high-water mark across calls). A caller that
    /// wants per-section effort — e.g. per verified pair — snapshots this
    /// before and after and subtracts.
    pub fn cumulative_stats(&self) -> RunStats {
        self.ws.cumulative
    }
}

thread_local! {
    static THREAD_ENGINE: RefCell<GedEngine> = RefCell::new(GedEngine::new());
}

/// Run `f` with this thread's shared [`GedEngine`] — the workspace behind
/// the free functions [`crate::ged`] / [`crate::ged_bounded`].
///
/// # Panics
/// Panics if called re-entrantly from inside `f`.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut GedEngine) -> R) -> R {
    THREAD_ENGINE.with(|e| f(&mut e.borrow_mut()))
}

/// Instrumented entry point: counts locally in `ws.stats`, then flushes
/// one batch of atomics to the global registry — the search itself is
/// untouched, so the expansion order (and thus every result and oracle
/// comparison) is bit-identical to the uninstrumented engine.
fn run_astar(ws: &mut SearchSpace, p: &PairProfile, tau: u32) -> Option<GedResult> {
    ws.stats = RunStats::default();
    let result = run_astar_impl(ws, p, tau);
    let obs = engine_obs();
    obs.calls.inc();
    if result.is_some() {
        obs.within_tau.inc();
    }
    obs.expanded.observe(ws.stats.expanded);
    obs.heuristic_evals.observe(ws.stats.heuristic_evals);
    obs.heap_peak.observe(ws.stats.heap_peak);
    ws.cumulative.expanded += ws.stats.expanded;
    ws.cumulative.heuristic_evals += ws.stats.heuristic_evals;
    ws.cumulative.enqueued += ws.stats.enqueued;
    ws.cumulative.heap_peak = ws.cumulative.heap_peak.max(ws.stats.heap_peak);
    result
}

fn run_astar_impl(ws: &mut SearchSpace, p: &PairProfile, tau: u32) -> Option<GedResult> {
    let n = p.n_q;
    let l = p.wild.len();
    ws.nodes.clear();
    ws.heap.clear();
    if ws.lam_cnt.len() < l {
        ws.lam_cnt.resize(l, 0);
    }
    debug_assert!(ws.lam_cnt.iter().all(|&c| c == 0));

    let (mut iv0, mut ie0) = (0u32, 0u32);
    for lid in 0..l {
        if p.wild[lid] {
            continue;
        }
        iv0 += u32::min(p.qv_cnt[lid], p.g_vtotal[lid]);
        ie0 += u32::min(p.qe_cnt[lid], p.g_edges_by_label[lid].len() as u32);
    }
    let root = Node {
        parent: u32::MAX,
        target: EPS,
        k: 0,
        cost: 0,
        used: 0,
        inter_v: iv0,
        inter_e: ie0,
        gen_rem: p.ge_total_n,
        gew_rem: p.ge_total_w,
    };
    let h0 = heuristic_value(p, &root);
    #[cfg(debug_assertions)]
    debug_assert_eq!(h0, heuristic_oracle(p, 0, 0));
    if h0 > tau {
        return None;
    }
    ws.nodes.push(root);
    ws.heap.push(Reverse(HeapItem { f: h0, tie: 0, node: 0 }));
    ws.stats.heap_peak = 1;
    let mut tie = 0u64;

    while let Some(Reverse(HeapItem { f, node, .. })) = ws.heap.pop() {
        ws.stats.expanded += 1;
        if f > tau {
            return None; // best remaining estimate exceeds the bound
        }
        let cur = ws.nodes[node as usize];
        let k = cur.k as usize;
        if k == n {
            let total = cur.cost + completion_cost(p, &cur);
            // completion_cost was already folded into f for enqueued
            // complete states (see push_child), so total == f here.
            debug_assert_eq!(total, f);
            if total > tau {
                return None;
            }
            // Reconstruct the mapping of the single accepted goal state.
            let mut mapping = vec![None; n];
            let (mut idx, mut depth) = (node, k);
            while depth > 0 {
                let nd = ws.nodes[idx as usize];
                let u = p.order[depth - 1] as usize;
                mapping[u] = (nd.target != EPS).then_some(VertexId(nd.target));
                idx = nd.parent;
                depth -= 1;
            }
            return Some(GedResult { distance: total, mapping });
        }

        // Images of order[0..k], recovered once per expansion.
        ws.cur_map.clear();
        ws.cur_map.resize(k, 0);
        {
            let (mut idx, mut depth) = (node, k);
            while depth > 0 {
                let nd = &ws.nodes[idx as usize];
                ws.cur_map[depth - 1] = nd.target;
                idx = nd.parent;
                depth -= 1;
            }
        }

        // q-side removal of order[k], shared by every child: dropping one
        // q occurrence of label `l` changes Σ min(q_l, g_l) by 1 exactly
        // when q_l <= g_l (counts taken before the removal).
        let row_k = k * l;
        let mut iv_q = cur.inter_v;
        let lu = p.order_lid[k] as usize;
        if !p.wild[lu] {
            let qc = p.qv_cnt[row_k + lu];
            let gc = p.g_vtotal[lu] - (cur.used & p.g_vmask[lu]).count_ones();
            if qc <= gc {
                iv_q -= 1;
            }
        }
        let mut ie_q = cur.inter_e;
        let rs = p.q_removal_start[k] as usize;
        let re = p.q_removal_start[k + 1] as usize;
        for &(lid, mult) in &p.q_edge_removals[rs..re] {
            let lid = lid as usize;
            if p.wild[lid] {
                continue;
            }
            let qb = p.qe_cnt[row_k + lid];
            let gb = ge_remaining(p, lid, cur.used);
            ie_q -= u32::min(qb, gb) - u32::min(qb - mult, gb);
        }

        // Expand: map order[k] to each unused g vertex or to EPS — same
        // child order as the reference, so ties are assigned identically.
        for t in 0..p.n_g as u32 {
            if cur.used & (1u128 << t) == 0 {
                push_child(ws, p, tau, &mut tie, node, &cur, iv_q, ie_q, t);
            }
        }
        push_child(ws, p, tau, &mut tie, node, &cur, iv_q, ie_q, EPS);
    }
    None
}

#[allow(clippy::too_many_arguments)] // the expansion's full context
fn push_child(
    ws: &mut SearchSpace,
    p: &PairProfile,
    tau: u32,
    tie: &mut u64,
    parent: u32,
    cur: &Node,
    iv_q: u32,
    ie_q: u32,
    target: u32,
) {
    let k = cur.k as usize;
    let n = p.n_q;
    let l = p.wild.len();
    let row_k1 = (k + 1) * l;
    let delta = extend_cost(ws, p, cur, target);

    let child = if target == EPS {
        Node {
            parent,
            target,
            k: cur.k + 1,
            cost: cur.cost + delta,
            used: cur.used,
            inter_v: iv_q,
            inter_e: ie_q,
            gen_rem: cur.gen_rem,
            gew_rem: cur.gew_rem,
        }
    } else {
        let used2 = cur.used | (1u128 << target);
        // g-side vertex removal: dropping one g occurrence of `lt`
        // changes Σ min by 1 exactly when g_lt <= q_lt (q counts already
        // at prefix k + 1, g count before the removal).
        let mut iv = iv_q;
        let lt = p.g_vlid[target as usize] as usize;
        if !p.wild[lt] {
            let gc = p.g_vtotal[lt] - (cur.used & p.g_vmask[lt]).count_ones();
            let qc = p.qv_cnt[row_k1 + lt];
            if gc <= qc {
                iv -= 1;
            }
        }
        // Edges whose last unmapped endpoint is `target` leave the g
        // remainder now — an O(degree) scan of the adjacency list.
        ws.leave_buf.clear();
        let (mut gen2, mut gew2) = (cur.gen_rem, cur.gew_rem);
        let not_used2 = !used2;
        for &(emask, lid) in &p.g_adj[target as usize] {
            if emask & not_used2 == 0 {
                if p.wild[lid as usize] {
                    gew2 -= 1;
                } else {
                    gen2 -= 1;
                    if let Some(slot) = ws.leave_buf.iter_mut().find(|s| s.0 == lid) {
                        slot.1 += 1;
                    } else {
                        ws.leave_buf.push((lid, 1));
                    }
                }
            }
        }
        let mut ie = ie_q;
        for &(lid, mult) in &ws.leave_buf {
            let lid = lid as usize;
            let qc = p.qe_cnt[row_k1 + lid];
            let gb = ge_remaining(p, lid, cur.used);
            ie -= u32::min(qc, gb) - u32::min(qc, gb - mult);
        }
        Node {
            parent,
            target,
            k: cur.k + 1,
            cost: cur.cost + delta,
            used: used2,
            inter_v: iv,
            inter_e: ie,
            gen_rem: gen2,
            gew_rem: gew2,
        }
    };
    let h = if k + 1 == n { completion_cost(p, &child) } else { heuristic_value(p, &child) };
    #[cfg(debug_assertions)]
    {
        if k + 1 == n {
            debug_assert_eq!(h, completion_oracle(p, child.used));
        } else {
            debug_assert_eq!(h, heuristic_oracle(p, k + 1, child.used));
        }
    }
    let f = child.cost.saturating_add(h);
    ws.stats.heuristic_evals += 1;
    if f <= tau {
        *tie += 1;
        let idx = ws.nodes.len() as u32;
        ws.nodes.push(child);
        ws.heap.push(Reverse(HeapItem { f, tie: *tie, node: idx }));
        ws.stats.enqueued += 1;
        ws.stats.heap_peak = ws.stats.heap_peak.max(ws.heap.len() as u64);
    }
}

/// Incremental cost of extending the current state by mapping `order[k]`
/// to `target`: vertex substitution plus pairwise edge-multiset costs
/// against every previously mapped vertex.
fn extend_cost(ws: &mut SearchSpace, p: &PairProfile, cur: &Node, target: u32) -> u32 {
    let k = cur.k as usize;
    let u = p.order[k];
    let u_lid = p.order_lid[k] as usize;
    let mut cost = if target == EPS {
        1 // vertex deletion
    } else {
        let t_lid = p.g_vlid[target as usize] as usize;
        u32::from(!(u_lid == t_lid || p.wild[u_lid] || p.wild[t_lid]))
    };
    let SearchSpace { cur_map, lam_cnt, lam_touch, .. } = ws;
    for (i, &img) in cur_map.iter().enumerate() {
        let w = p.order[i];
        let q_fwd = p.q_pairs.get(w, u);
        let q_bwd = p.q_pairs.get(u, w);
        let (g_fwd, g_bwd): (&[u32], &[u32]) = if img == EPS || target == EPS {
            (&[], &[])
        } else {
            (p.g_pairs.get(img, target), p.g_pairs.get(target, img))
        };
        cost += edge_cost_lids(lam_cnt, lam_touch, &p.wild, q_fwd, g_fwd);
        cost += edge_cost_lids(lam_cnt, lam_touch, &p.wild, q_bwd, g_bwd);
    }
    cost
}

/// `max(|A|, |B|) - λ(A, B)` over label-id slices, using a zeroed per-lid
/// counter (restored to zero on exit). Equals
/// [`crate::label_sets::edge_multiset_cost`] on the interned symbols.
fn edge_cost_lids(
    cnt: &mut [u32],
    touch: &mut Vec<u32>,
    wild: &[bool],
    a: &[u32],
    b: &[u32],
) -> u32 {
    if a.is_empty() && b.is_empty() {
        return 0;
    }
    let (mut an, mut aw) = (0u32, 0u32);
    for &x in a {
        if wild[x as usize] {
            aw += 1;
        } else {
            an += 1;
            if cnt[x as usize] == 0 {
                touch.push(x);
            }
            cnt[x as usize] += 1;
        }
    }
    let (mut bn, mut bw, mut inter) = (0u32, 0u32, 0u32);
    for &y in b {
        if wild[y as usize] {
            bw += 1;
        } else {
            bn += 1;
            if cnt[y as usize] > 0 {
                cnt[y as usize] -= 1;
                inter += 1;
            }
        }
    }
    for x in touch.drain(..) {
        cnt[x as usize] = 0;
    }
    (a.len().max(b.len()) as u32) - lambda_from_counts(an, aw, bn, bw, inter)
}

/// The closed-form wildcard matching of `label_sets::multiset_lambda`,
/// phrased over counts: leftover normals are saturated by opposing
/// wildcards first, then wildcards pair with each other.
#[inline]
fn lambda_from_counts(an: u32, aw: u32, bn: u32, bw: u32, inter: u32) -> u32 {
    let x = aw.min(bn - inter);
    let z = bw.min(an - inter);
    let y = (aw - x).min(bw - z);
    inter + x + z + y
}

/// `max(|A|, |B|) - λ` from remainder counts.
#[inline]
fn multiset_cost(an: u32, aw: u32, bn: u32, bw: u32, inter: u32) -> u32 {
    (an + aw).max(bn + bw) - lambda_from_counts(an, aw, bn, bw, inter)
}

/// The admissible label-multiset heuristic from per-state scalars — O(1)
/// given the incrementally maintained `inter_v` / `inter_e`.
fn heuristic_value(p: &PairProfile, nd: &Node) -> u32 {
    let k = nd.k as usize;
    let un = !nd.used & p.g_full_mask;
    let gn = (un & p.g_nonwild_mask).count_ones();
    let gw = un.count_ones() - gn;
    multiset_cost(p.qn[k], p.qw[k], gn, gw, nd.inter_v)
        + multiset_cost(p.qen[k], p.qew[k], nd.gen_rem, nd.gew_rem, nd.inter_e)
}

/// Cost of completing a full q mapping: insert remaining g vertices and
/// every g edge with at least one unmapped endpoint.
fn completion_cost(p: &PairProfile, nd: &Node) -> u32 {
    (!nd.used & p.g_full_mask).count_ones() + nd.gen_rem + nd.gew_rem
}

/// Remaining g edges with label `lid` (>= 1 endpoint outside `used`).
#[inline]
fn ge_remaining(p: &PairProfile, lid: usize, used: u128) -> u32 {
    let free = !used;
    p.g_edges_by_label[lid].iter().filter(|&&m| m & free != 0).count() as u32
}

/// From-scratch recount of the heuristic at `(k, used)` — the debug-build
/// oracle guarding the incremental deltas.
#[cfg(debug_assertions)]
fn heuristic_oracle(p: &PairProfile, k: usize, used: u128) -> u32 {
    let l = p.wild.len();
    let row = k * l;
    let (mut iv, mut ie) = (0u32, 0u32);
    for lid in 0..l {
        if p.wild[lid] {
            continue;
        }
        let gv = p.g_vtotal[lid] - (used & p.g_vmask[lid]).count_ones();
        iv += u32::min(p.qv_cnt[row + lid], gv);
        ie += u32::min(p.qe_cnt[row + lid], ge_remaining(p, lid, used));
    }
    let un = !used & p.g_full_mask;
    let gn = (un & p.g_nonwild_mask).count_ones();
    let gw = un.count_ones() - gn;
    let (mut gen_r, mut gew_r) = (0u32, 0u32);
    for &(emask, lid) in &p.g_edge_info {
        if emask & !used != 0 {
            if p.wild[lid as usize] {
                gew_r += 1;
            } else {
                gen_r += 1;
            }
        }
    }
    multiset_cost(p.qn[k], p.qw[k], gn, gw, iv)
        + multiset_cost(p.qen[k], p.qew[k], gen_r, gew_r, ie)
}

#[cfg(debug_assertions)]
fn completion_oracle(p: &PairProfile, used: u128) -> u32 {
    let mut c = (!used & p.g_full_mask).count_ones();
    for &(emask, _) in &p.g_edge_info {
        if emask & !used != 0 {
            c += 1;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ged_bounded_reference, ged_reference};
    use uqsj_graph::GraphBuilder;

    fn pair(t: &mut SymbolTable) -> (Graph, Graph) {
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?x");
        b.vertex("a", "Actor");
        b.vertex("c", "Country");
        b.edge("x", "a", "type");
        b.edge("x", "c", "birthPlace");
        let q = b.into_graph();
        let mut b = GraphBuilder::new(t);
        b.vertex("x", "?y");
        b.vertex("a", "Politician");
        b.vertex("c", "Country");
        b.edge("x", "a", "type");
        b.edge("x", "c", "bornIn");
        let g = b.into_graph();
        (q, g)
    }

    #[test]
    fn engine_matches_reference_and_is_reusable() {
        let mut t = SymbolTable::new();
        let (q, g) = pair(&mut t);
        let mut engine = GedEngine::new();
        for _ in 0..3 {
            let a = engine.ged(&t, &q, &g);
            let b = ged_reference(&t, &q, &g);
            assert_eq!(a, b);
            for tau in 0..4 {
                assert_eq!(
                    engine.ged_bounded(&t, &q, &g, tau),
                    ged_bounded_reference(&t, &q, &g, tau)
                );
            }
        }
    }

    #[test]
    fn profile_world_patching_matches_rebuild() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?x");
        b.vertex("a", "Actor");
        b.edge("x", "a", "type");
        let q = b.into_graph();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?y");
        b.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        b.edge("x", "m", "type");
        let g = b.into_uncertain();

        let mut profile = PairProfile::new();
        profile.prepare_uncertain(&t, &g);
        profile.set_query(&t, &q);
        let mut engine = GedEngine::new();
        for world in g.possible_worlds() {
            for (v, &c) in world.choice.iter().enumerate() {
                let sym = g.vertices()[v].alternatives[c as usize].label;
                let lid = profile.lid(sym).expect("alternative interned at build");
                profile.set_g_vertex_lid(v, lid);
            }
            profile.commit_world();
            for tau in 0..3 {
                let patched = engine.run_profile(&profile, tau);
                let rebuilt = ged_bounded_reference(&t, &q, &world.graph, tau);
                assert_eq!(patched, rebuilt, "choice {:?} tau {tau}", world.choice);
            }
        }
    }

    #[test]
    fn rebinding_queries_matches_a_fresh_build() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?y");
        b.uncertain_vertex("m", &[("NBA_Player", 0.6), ("Actor", 0.4)]);
        b.uncertain_vertex("n", &[("Country", 0.5), ("City", 0.5)]);
        b.edge("x", "m", "type");
        b.edge("x", "n", "birthPlace");
        let g = b.into_uncertain();
        let mut queries = Vec::new();
        // Labels g has, labels it lacks (vertex and edge), a wildcard
        // edge, the empty query, and a query larger than g.
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "?x");
        b.vertex("a", "Actor");
        b.edge("x", "a", "type");
        queries.push(b.into_graph());
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "Film");
        b.vertex("a", "Director");
        b.edge("x", "a", "directedBy");
        b.edge("a", "x", "?p");
        queries.push(b.into_graph());
        queries.push(Graph::new());
        let mut b = GraphBuilder::new(&mut t);
        for (v, l) in [("x", "?x"), ("a", "Actor"), ("c", "City"), ("d", "Band")] {
            b.vertex(v, l);
        }
        b.edge("x", "a", "type");
        b.edge("x", "c", "birthPlace");
        b.edge("c", "d", "memberOf");
        queries.push(b.into_graph());

        let mut reused = PairProfile::new();
        reused.prepare_uncertain(&t, &g);
        let mut engine = GedEngine::new();
        for q in queries.iter().chain(queries.iter().rev()) {
            reused.set_query(&t, q);
            let mut fresh = PairProfile::new();
            fresh.prepare_uncertain(&t, &g);
            fresh.set_query(&t, q);
            for world in g.possible_worlds() {
                for profile in [&mut reused, &mut fresh] {
                    for (v, &c) in world.choice.iter().enumerate() {
                        let sym = g.vertices()[v].alternatives[c as usize].label;
                        let lid = profile.lid(sym).expect("alternative interned at build");
                        profile.set_g_vertex_lid(v, lid);
                    }
                    profile.commit_world();
                }
                for tau in 0..5 {
                    let got = engine.run_profile(&reused, tau);
                    assert_eq!(got, engine.run_profile(&fresh, tau), "tau {tau}");
                    assert_eq!(got, ged_bounded_reference(&t, q, &world.graph, tau), "tau {tau}");
                }
            }
        }
    }

    #[test]
    fn empty_graphs_through_engine() {
        let t = SymbolTable::new();
        let q = Graph::new();
        let g = Graph::new();
        let mut engine = GedEngine::new();
        let r = engine.ged(&t, &q, &g);
        assert_eq!(r.distance, 0);
        assert!(r.mapping.is_empty());
    }

    #[test]
    fn run_stats_track_search_effort() {
        let mut t = SymbolTable::new();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "A");
        b.vertex("y", "B");
        b.edge("x", "y", "e");
        let q = b.into_graph();
        let mut b = GraphBuilder::new(&mut t);
        b.vertex("x", "A");
        b.vertex("y", "C");
        b.edge("x", "y", "e");
        let g = b.into_graph();
        let mut engine = GedEngine::new();
        assert_eq!(engine.ged(&t, &q, &g).distance, 1);
        let s = engine.last_run_stats();
        // Root plus at least the goal state were expanded; every enqueue
        // went through a heuristic evaluation first.
        assert!(s.expanded >= 2, "expanded = {}", s.expanded);
        assert!(s.heuristic_evals >= s.enqueued);
        assert!(s.enqueued >= 1);
        assert!(s.heap_peak >= 1);

        // An infeasible bound still reports the (empty) search.
        assert!(engine.ged_bounded(&t, &q, &g, 0).is_none());
        assert!(engine.last_run_stats().expanded <= 1);
    }
}
