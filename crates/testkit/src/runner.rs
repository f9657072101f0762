//! The conformance runner behind `uqsj-cli conformance` and CI.
//!
//! One run is a pure function of `(profile, seed, pairs)`. Each generated
//! pair gets its own sub-seed derived from the base seed, and every
//! violation carries the sub-seed of the input that produced it — so a
//! failing CI line replays locally with
//! `uqsj-cli conformance --seed <sub-seed> --pairs 1`.
//!
//! Each pair is additionally checked under a request context whose trace
//! id **is** the sub-seed, so a replayed failure's spans can be pulled
//! from the flight recorder with `events_for(sub_seed)` — the same
//! introspection path the serving pipeline uses for `/debug/trace?id=`.

use crate::bgp::{build_store, check_bgp_case, gen_kb, gen_query, BgpGenConfig};
use crate::gen::{
    derive_seed, gen_certain, gen_uncertain, near_pair, rng_for, workload, GenConfig,
};
use crate::metamorphic::check_metamorphic;
use crate::oracle::{check_join_agreement, PairOracles};
use crate::report::ConformanceReport;
use crate::sample_oracle::{allowed_failures, check_sampler_pair, SAMPLE_DELTA};
use uqsj_ged::GedEngine;
use uqsj_graph::SymbolTable;

/// How much work one conformance run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The per-push CI gate: small shapes, tens of pairs, a few seconds.
    Quick,
    /// The scheduled fuzz loop: larger shapes and many more pairs.
    Deep,
}

/// Parameters of one conformance run.
#[derive(Clone, Copy, Debug)]
pub struct ConformanceConfig {
    /// Base seed; every generated object derives its sub-seed from it.
    pub seed: u64,
    /// Number of pairs to generate and check.
    pub pairs: usize,
    /// Workload shapes and depth.
    pub profile: Profile,
}

impl ConformanceConfig {
    /// The per-push profile (~seconds in a release build).
    pub fn quick(seed: u64) -> Self {
        Self { seed, pairs: 48, profile: Profile::Quick }
    }

    /// The scheduled fuzz profile.
    pub fn deep(seed: u64) -> Self {
        Self { seed, pairs: 384, profile: Profile::Deep }
    }

    fn gen_config(&self) -> GenConfig {
        match self.profile {
            Profile::Quick => GenConfig::default(),
            Profile::Deep => GenConfig::deep(),
        }
    }
}

/// Run the full conformance suite: per-pair differential oracles,
/// metamorphic relations, and join-driver agreement. Returns the
/// aggregated report; `report.passed()` is the verdict.
pub fn run_conformance(cfg: &ConformanceConfig) -> ConformanceReport {
    let gen_cfg = cfg.gen_config();
    let mut table = SymbolTable::new();
    let mut engine = GedEngine::new();
    let mut report = ConformanceReport::default();
    let oracles = PairOracles::new();

    // Stage 1+2: pair oracles and metamorphic relations. Two in three
    // pairs are near-threshold (boundary-biased); the rest independent,
    // so clean rejections are covered too.
    for i in 0..cfg.pairs {
        let sub = derive_seed(cfg.seed, i as u64);
        // Trace every pair under its sub-seed: a failing seed replays
        // with its spans addressable via `events_for(sub)`.
        let _ctx = uqsj_obs::ctx::install(uqsj_obs::ctx::RequestCtx::with_trace_id(
            uqsj_obs::ctx::TraceId(sub.max(1)),
        ));
        let _span = uqsj_obs::span("conformance.pair");
        let (q, g) = if i % 3 == 2 {
            (
                gen_certain(&mut table, &gen_cfg, derive_seed(sub, 10)),
                gen_uncertain(&mut table, &gen_cfg, derive_seed(sub, 11)),
            )
        } else {
            near_pair(&mut table, &gen_cfg, sub)
        };
        oracles.check_pair(&mut engine, &table, &q, &g, sub, &mut report);
        if i % 2 == 0 || cfg.profile == Profile::Deep {
            let mut rng = rng_for(derive_seed(sub, 99));
            check_metamorphic(&mut engine, &mut table, &q, &g, sub, &mut rng, &mut report);
        }
    }

    // Stage 3: six-way join agreement on small workloads, at (τ, α)
    // combinations on both sides of typical pair probabilities.
    let join_rounds = match cfg.profile {
        Profile::Quick => 2,
        Profile::Deep => 6,
    };
    let count = match cfg.profile {
        Profile::Quick => 5,
        Profile::Deep => 8,
    };
    for round in 0..join_rounds {
        let sub = derive_seed(cfg.seed, 1_000_000 + round);
        let _ctx = uqsj_obs::ctx::install(uqsj_obs::ctx::RequestCtx::with_trace_id(
            uqsj_obs::ctx::TraceId(sub.max(1)),
        ));
        let _span = uqsj_obs::span("conformance.join");
        let (d, u) = workload(&mut table, &gen_cfg, count, sub);
        let tau = 1 + (round % 2) as u32;
        let alpha = if round % 2 == 0 { 0.3 } else { 0.6 };
        check_join_agreement(&mut engine, &table, &d, &u, tau, alpha, sub, &mut report);
    }

    // Stage 4: the sampling tier vs. exact enumeration, pair by pair.
    // Individual wrong decisions are allowed (the tier is probabilistic);
    // the aggregate failure rate must stay inside the δ budget.
    let sample_pairs = match cfg.profile {
        Profile::Quick => cfg.pairs / 2,
        Profile::Deep => cfg.pairs,
    };
    for i in 0..sample_pairs {
        let sub = derive_seed(cfg.seed, 2_000_000 + i as u64);
        let _ctx = uqsj_obs::ctx::install(uqsj_obs::ctx::RequestCtx::with_trace_id(
            uqsj_obs::ctx::TraceId(sub.max(1)),
        ));
        let _span = uqsj_obs::span("conformance.sample");
        let (q, g) = near_pair(&mut table, &gen_cfg, sub);
        check_sampler_pair(&mut engine, &table, &q, &g, sub, &mut report);
    }
    let allowed = allowed_failures(report.sample_trials, SAMPLE_DELTA);
    if report.sample_failures > allowed {
        report.violation(
            "sampler_delta",
            cfg.seed,
            format!(
                "{} guaranteed sampled decisions failed over {} trials; \
                 the δ={SAMPLE_DELTA} budget allows {allowed}",
                report.sample_failures, report.sample_trials
            ),
        );
    }

    // Stage 5: the BGP evaluation oracle — leapfrog triejoin vs. the
    // nested-loop reference on seeded star/path/triangle/cyclic patterns,
    // plus the BGP metamorphic relations and estimator/planner tracking.
    // The KB rotates every few cases so patterns hit many stores.
    let (bgp_cases, bgp_cfg) = match cfg.profile {
        Profile::Quick => (240usize, BgpGenConfig::quick()),
        Profile::Deep => (960usize, BgpGenConfig::deep()),
    };
    let mut kb = Vec::new();
    let mut store = uqsj_rdf::TripleStore::new();
    for i in 0..bgp_cases {
        let sub = derive_seed(cfg.seed, 3_000_000 + i as u64);
        let _ctx = uqsj_obs::ctx::install(uqsj_obs::ctx::RequestCtx::with_trace_id(
            uqsj_obs::ctx::TraceId(sub.max(1)),
        ));
        let _span = uqsj_obs::span("conformance.bgp");
        if i % 12 == 0 {
            kb = gen_kb(&bgp_cfg, derive_seed(sub, 1));
            store = build_store(&kb);
        }
        let query = gen_query(&kb, derive_seed(sub, 2));
        check_bgp_case(&kb, &store, &query, sub, &mut report);
    }
    // Aggregate ordering check: the summary-based planner may lose to the
    // greedy order on individual patterns, but across the whole workload
    // it must not burn meaningfully more trie seeks.
    let slack = report.bgp_greedy_seeks / 4 + 2_000;
    if report.bgp_planner_seeks > report.bgp_greedy_seeks + slack {
        report.violation(
            "bgp_planner_order",
            cfg.seed,
            format!(
                "planner order cost {} seeks vs {} for the greedy order \
                 (allowed slack {slack})",
                report.bgp_planner_seeks, report.bgp_greedy_seeks
            ),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic() {
        let cfg = ConformanceConfig { seed: 7, pairs: 4, profile: Profile::Quick };
        let a = run_conformance(&cfg);
        let b = run_conformance(&cfg);
        assert_eq!(a.passed(), b.passed());
        assert_eq!(a.worlds, b.worlds);
        assert_eq!(a.bound_checks, b.bound_checks);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn pairs_are_traced_under_their_sub_seed() {
        let cfg = ConformanceConfig { seed: 11, pairs: 2, profile: Profile::Quick };
        run_conformance(&cfg);
        // The first pair's spans are addressable by its sub-seed — the
        // same lookup `/debug/trace?id=` and a failure replay would use.
        let sub = derive_seed(cfg.seed, 0).max(1);
        let events = uqsj_obs::trace::recorder().events_for(sub);
        assert!(
            events.iter().any(|e| e.name == "conformance.pair"),
            "no conformance.pair span recorded under sub-seed {sub:016x}"
        );
    }
}
