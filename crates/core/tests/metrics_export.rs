//! End-to-end check of the observability layer: one join + one storage
//! round-trip drive the process-global registry, and the deltas they
//! leave behind must agree exactly with the `JoinStats` the join itself
//! reported.
//!
//! Deliberately a single `#[test]`: the global registry is shared across
//! threads in a test binary, so this file measures deltas around the only
//! instrumented work it performs. (Other integration-test binaries run as
//! separate processes and cannot interfere.)

use std::path::PathBuf;
use uqsj::obs::global;
use uqsj::prelude::*;
use uqsj::workload::DatasetConfig;

/// The per-stage prune counters the fixed cascade reports, in cascade
/// order. `markov` is the SimJ probabilistic filter; `markov_opt` is the
/// *same computation* running as SimJOpt's pre-filter — distinct stage
/// labels so the two call sites are distinguishable in dashboards.
const STAGES: [&str; 6] = ["size", "label_multiset", "css", "markov", "markov_opt", "grouped"];

fn stage_counter(stage: &'static str) -> u64 {
    // Registration is idempotent: this returns the same handle the join
    // cascade increments (labels included).
    let labels: &'static [(&'static str, &'static str)] = match stage {
        "size" => &[("stage", "size")],
        "label_multiset" => &[("stage", "label_multiset")],
        "css" => &[("stage", "css")],
        "markov" => &[("stage", "markov")],
        "markov_opt" => &[("stage", "markov_opt")],
        _ => &[("stage", "grouped")],
    };
    global().counter_with("uqsj_join_pruned_total", labels, "").value()
}

fn counter(name: &'static str) -> u64 {
    global().counter(name, "").value()
}

fn histogram_count(name: &'static str) -> u64 {
    global().histogram(name, "").count()
}

#[test]
fn registry_deltas_match_join_stats() {
    // --- baseline ------------------------------------------------------
    let pairs0 = counter("uqsj_join_pairs_total");
    let candidates0 = counter("uqsj_join_candidates_total");
    let results0 = counter("uqsj_join_results_total");
    let stages0: Vec<u64> = STAGES.iter().map(|s| stage_counter(s)).collect();
    let ged_calls0 = counter("uqsj_ged_calls_total");
    let expanded0 = histogram_count("uqsj_ged_states_expanded");
    let worlds0 = counter("uqsj_worlds_enumerated_total");
    let wal0 = histogram_count("uqsj_wal_append_us");
    let snap0 = histogram_count("uqsj_snapshot_write_us");

    // --- the measured join --------------------------------------------
    let dataset = uqsj::workload::qald_like(&DatasetConfig {
        questions: 40,
        distractors: 20,
        ..Default::default()
    });
    let params = JoinParams {
        strategy: JoinStrategy::SimJOpt { group_count: 8 },
        ..JoinParams::simj(1, 0.5)
    };
    let (matches, stats) = sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params);

    // --- join counters agree exactly with JoinStats --------------------
    // (read before any further instrumented work muddies the deltas)
    let stage_deltas: Vec<u64> =
        STAGES.iter().zip(&stages0).map(|(s, &b)| stage_counter(s) - b).collect();
    for (stage, delta) in STAGES.iter().zip(&stage_deltas) {
        assert_eq!(*delta, stats.pruned_by(stage), "{stage}-stage counter diverged from JoinStats");
    }
    // A SimJOpt run reports its Markov prunes under `markov_opt`, never
    // under the SimJ stage label.
    assert_eq!(stats.pruned_by("markov"), 0);
    assert_eq!(stats.pruned_probabilistic(), stats.pruned_by("markov_opt"));
    assert_eq!(stage_deltas.iter().sum::<u64>(), stats.pruned_total());
    assert_eq!(counter("uqsj_join_pairs_total") - pairs0, stats.pairs_total);
    assert_eq!(counter("uqsj_join_candidates_total") - candidates0, stats.candidates);
    assert_eq!(counter("uqsj_join_results_total") - results0, matches.len() as u64);

    // --- more instrumented work: pipeline + durable serve round-trip ---
    let result = uqsj::pipeline::generate_templates(&dataset, JoinParams::simj(1, 0.5));
    let dir = scratch_dir();
    let server = ShardedQaServer::create(
        &dir,
        result.library,
        dataset.kb.lexicon.clone(),
        dataset.kb.triple_store(),
        1,
        1,
        Default::default(),
    )
    .expect("create durable server");
    let mut ingestor = Ingestor::from_dataset(&dataset, JoinParams::simj(1, 0.5));
    let outcome = ingestor.ingest(&dataset.kb.lexicon, &dataset.pairs[0].question).expect("ingest");
    server.insert_templates(outcome.templates).expect("journal ingest");
    server.compact().expect("compact");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    // --- engine, world, and storage instrumentation all moved ----------
    assert!(counter("uqsj_ged_calls_total") > ged_calls0, "no GED calls recorded");
    assert!(histogram_count("uqsj_ged_states_expanded") > expanded0);
    assert!(counter("uqsj_worlds_enumerated_total") > worlds0);
    assert!(histogram_count("uqsj_wal_append_us") > wal0, "WAL append not observed");
    assert!(histogram_count("uqsj_snapshot_write_us") > snap0, "snapshot write not observed");

    // --- exposition carries the whole catalogue ------------------------
    let text = global().render_prometheus();
    let json = global().snapshot_json();
    for name in [
        "uqsj_join_pairs_total",
        "uqsj_join_pruned_total",
        "uqsj_join_stage_us",
        "uqsj_ged_calls_total",
        "uqsj_ged_states_expanded",
        "uqsj_worlds_enumerated_total",
        "uqsj_wal_append_us",
        "uqsj_snapshot_write_us",
    ] {
        assert!(text.contains(name), "{name} missing from Prometheus text");
        assert!(json.contains(name), "{name} missing from JSON snapshot");
    }
    for stage in STAGES {
        assert!(
            text.contains(&format!("uqsj_join_pruned_total{{stage=\"{stage}\"}}")),
            "stage {stage} missing from Prometheus text"
        );
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uqsj-metrics-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
