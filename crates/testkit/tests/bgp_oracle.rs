//! The BGP differential oracle as a standalone CI gate: ≥ 200 seeded
//! patterns through `check_bgp_case` with zero disagreements, plus
//! stricter estimator-accuracy and planner-order assertions than the
//! lenient in-run sanity bounds.

use uqsj_rdf::lftj;
use uqsj_rdf::plan::{greedy_order, plan, q_error};
use uqsj_testkit::bgp::{build_store, check_bgp_case, gen_kb, gen_query, BgpGenConfig};
use uqsj_testkit::gen::derive_seed;
use uqsj_testkit::ConformanceReport;

/// The quick-gate oracle: 240 seeded patterns (20 KBs × 12 queries, all
/// five shapes), every check in [`check_bgp_case`] — lftj ≡ reference,
/// permutation/rename/monotonicity, estimator sanity — must hold.
#[test]
fn quick_gate_runs_240_patterns_with_zero_disagreements() {
    let cfg = BgpGenConfig::quick();
    let mut report = ConformanceReport::default();
    let base = 0xB6F0_0001u64;
    for kb_round in 0..20u64 {
        let kb = gen_kb(&cfg, derive_seed(base, kb_round));
        let store = build_store(&kb);
        for q in 0..12u64 {
            let sub = derive_seed(base, 1000 * kb_round + q);
            let query = gen_query(&kb, sub);
            check_bgp_case(&kb, &store, &query, sub, &mut report);
        }
    }
    assert_eq!(report.bgp_patterns, 240);
    assert!(report.passed(), "{report}");
    assert!(report.bgp_rows > 0, "oracle never produced a solution row");
    // Every case that got past the differential check ran all six
    // metamorphic relations (two evaluators × three relations).
    assert!(report.bgp_metamorphic >= 6 * 200, "{report}");
}

/// On the generator families the summary estimator must stay well inside
/// the lenient sanity bound: stars and paths with constant predicates are
/// exactly the shapes characteristic sets were built for.
#[test]
fn estimator_q_error_is_bounded_on_generator_families() {
    let cfg = BgpGenConfig::quick();
    let mut worst: f64 = 1.0;
    let mut measured = 0u32;
    for kb_round in 0..6u64 {
        let kb = gen_kb(&cfg, derive_seed(0xE57, kb_round));
        let store = build_store(&kb);
        for q in 0..24u64 {
            let query = gen_query(&kb, derive_seed(0xE57_000 + kb_round, q));
            let (sols, stats) = lftj::solutions_stats(&store, &query);
            // Only judge estimable, non-empty cases: predicate variables
            // fall back to raw scan bounds, and no summary statistic can
            // prove a join empty — both are covered by the lenient
            // sanity check instead.
            if !stats.estimated_rows.is_finite() || sols.is_empty() {
                continue;
            }
            measured += 1;
            worst = worst.max(q_error(stats.estimated_rows, sols.len() as f64));
        }
    }
    assert!(measured >= 100, "too few estimable cases: {measured}");
    assert!(worst <= 512.0, "worst q-error {worst:.1} on the generator families");
}

/// The planner's variable order must not systematically degrade trie
/// seeks vs. the greedy one-step-lookahead baseline, and must agree with
/// it on results for every case.
#[test]
fn planner_order_never_degrades_seeks_vs_greedy() {
    let cfg = BgpGenConfig::quick();
    let (mut planner_seeks, mut greedy_seeks) = (0u64, 0u64);
    for kb_round in 0..6u64 {
        let kb = gen_kb(&cfg, derive_seed(0x9EED, kb_round));
        let store = build_store(&kb);
        for q in 0..24u64 {
            let query = gen_query(&kb, derive_seed(0x09EE_D000 + kb_round, q));
            let (_, stats) = lftj::solutions_stats(&store, &query);
            planner_seeks += stats.seeks;
            let order = greedy_order(&store, &query);
            let (_, gstats) = lftj::solutions_with_order(&store, &query, &order);
            greedy_seeks += gstats.seeks;
            // The plan must cover exactly the query's variables.
            let p = plan(&store, &query);
            let mut planned = p.order.clone();
            planned.sort();
            assert_eq!(planned, query.variables(), "plan order loses variables for {query}");
        }
    }
    // Aggregate, with slack for individual inversions: the planner may
    // lose a few races but not the workload.
    assert!(
        planner_seeks <= greedy_seeks + greedy_seeks / 4 + 1_000,
        "planner spent {planner_seeks} seeks vs greedy {greedy_seeks}"
    );
}
