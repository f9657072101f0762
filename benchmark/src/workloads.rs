//! The benchmark's workloads and their fixed load constants.
//!
//! `BENCHMARK.json` asks every workload for every end-to-end metric, so
//! every workload runs the system end to end: mine a template library,
//! bootstrap a durable 4-shard data dir from it, serve it over HTTP to a
//! read stream, and replay questions through the ingest path. The
//! workloads differ in where the work lands:
//!
//! * `mine` times dataset generation as its set-up and evaluates the
//!   mined library on distinct held-out questions in batches, under full
//!   matching (φ = 1), where the signature filter keeps about 2 of ~265
//!   templates; the offline join dominates the run.
//! * `answer_miss` asks distinct held-out questions one at a time under
//!   partial matching (φ ≥ 0.6): the filter keeps nearly every template
//!   and the cache never hits, so alignment, TED and BGP execution
//!   dominate.
//!
//! The rate constants were sized on the parent commit (2 cores): the
//! reference rate sits well below capacity, and the ladder spans from
//! below capacity to several times it.

/// What `setup_s` measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Setup {
    /// Dataset generation plus question analysis.
    Generation,
    /// Cold `ShardedQaServer::open` of the data dir up to its first answer.
    ColdOpen,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub setup: Setup,
    pub min_phi: f64,
    /// Distinct held-out questions asked per read request (a batch
    /// request when more than one); each question is asked once.
    pub per_request: usize,
    /// Fixed read rate at which latency is reported, per second.
    pub reference_rps: f64,
    /// Lowest rung of the rate ladder, per second.
    pub ladder_low: f64,
    /// Number of rungs; rung `k` is `ladder_low * LADDER_RATIO^k`.
    pub ladder_rungs: usize,
    /// A rung passes when p99 read latency stays within this.
    pub p99_limit_us: f64,
}

/// Ratio between adjacent rungs: finer than 0.25, the largest bound a
/// metric may have.
pub const LADDER_RATIO: f64 = 1.07;
/// Least reads per ladder rung (its p99 then has 6 samples beyond it).
pub const RUNG_READS: usize = 600;
/// Least duration of a ladder rung, seconds.
pub const RUNG_SECONDS: f64 = 0.75;
/// Datasets mined with `generate_templates` per run; dataset 0's
/// library is the one served, and each dataset precedes a round of
/// measurement.
pub const DATASETS: usize = 4;
/// Slices per round. Each slice times `SETUP_PER_SLICE` set-ups, then
/// reads for its share of `--seconds` at the reference rate, then
/// replays `INGESTS_PER_SLICE` training questions through the ingest
/// path back to back.
pub const SLICES_PER_ROUND: usize = 3;
pub const SETUP_PER_SLICE: usize = 2;
/// Replaying training questions does the same mining and journaling
/// work as a new question, but their templates are already served, so
/// the library (and with it the cost of a read) stays fixed.
pub const INGESTS_PER_SLICE: usize = 100;
/// Distinct held-out questions set aside for the ladder's reads.
pub const LADDER_POOL: usize = 40_000;
/// Template-store shards (the `serve --listen` default).
pub const SHARDS: usize = 4;

pub const ALL: [Workload; 2] = [
    Workload {
        name: "mine",
        setup: Setup::Generation,
        min_phi: 1.0,
        per_request: 8,
        reference_rps: 200.0,
        ladder_low: 300.0,
        ladder_rungs: 55,
        p99_limit_us: 20_000.0,
    },
    Workload {
        name: "answer_miss",
        setup: Setup::ColdOpen,
        min_phi: 0.6,
        per_request: 1,
        reference_rps: 150.0,
        ladder_low: 200.0,
        ladder_rungs: 40,
        p99_limit_us: 25_000.0,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn rung(&self, k: usize) -> f64 {
        self.ladder_low * LADDER_RATIO.powi(k as i32)
    }
}
