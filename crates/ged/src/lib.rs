//! Graph edit distance (GED) computation and filtering for the uncertain
//! graph similarity join.
//!
//! The paper's cost model (Sec. 3.1.2) uses six unit-cost primitive edit
//! operations: insert/delete an isolated labeled vertex, insert/delete an
//! edge, and substitute a vertex/edge label. Labels that are SPARQL
//! variables (`?x`) are wildcards and substitute for free.
//!
//! * [`astar`] — exact GED by A\* search over vertex mappings (the
//!   verification algorithm, following Riesen & Bunke's bipartite-heuristic
//!   A\* cited as \[17\] in the paper), plus a τ-bounded variant used in the
//!   refinement phase of Algorithm 1.
//! * [`bounds`] — the filtering lower bounds: the paper's novel CSS-based
//!   bound (Theorems 1 and 3), and the prior-work baselines it is compared
//!   against (label-multiset, size, c-star, path n-grams, partition-based,
//!   SEGOS-style cascade).
//! * [`label_sets`] — multiset label intersections `λ_V`, `λ_E` under the
//!   wildcard rule, and the vertex-label bipartite graph of Def. 10.
//! * [`engine`] — the reusable search workspace behind [`ged`] /
//!   [`ged_bounded`]: slab-allocated states, a counted-multiset
//!   incremental heuristic, and pair profiles whose g side is built once
//!   per uncertain graph, whose q side is rebound per query, and which
//!   possible-world verification patches in place instead of rebuilding.
//! * [`mod@reference`] — the original sort-and-merge A\* retained as a test
//!   oracle; the engine must reproduce it bit-for-bit.

pub mod astar;
pub mod bounds;
pub mod engine;
pub mod label_sets;
pub mod reference;
pub mod upper;

pub use astar::{ged, ged_bounded, GedResult};
pub use bounds::css::{lb_ged_css_certain, lb_ged_css_uncertain, CssTerms};
pub use bounds::label_multiset::lb_ged_label_multiset;
pub use bounds::size::lb_ged_size;
pub use engine::{GedEngine, PairProfile, RunStats};
pub use upper::{ged_upper_bipartite, mapping_cost};
