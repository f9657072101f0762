//! Metric handles for the join cascade.
//!
//! Per-stage handles (one prune counter + one time histogram, labelled
//! `stage=...`) exist once per cascade stage. The counters mirror the
//! per-run [`crate::JoinStats`] counters but accumulate process-wide, so a
//! serving process exposes its lifetime pruning profile without threading
//! stats through every call site.

use crate::cascade::Stage;
use std::sync::OnceLock;

/// Help text of `uqsj_join_stage_us`, shared by every label set so the
/// exposition shows one text whichever registers first.
const STAGE_US_HELP: &str = "time per evaluation in each cascade stage and per verification, \
     once per class of identical queries; the size stage counts only evaluations inside the \
     join index's size window";

/// Stage-independent join counters.
pub(crate) struct JoinObs {
    pub pairs: uqsj_obs::Counter,
    pub candidates: uqsj_obs::Counter,
    pub results: uqsj_obs::Counter,
    /// Verification time (µs); counts every verification run, one per
    /// surviving class of identical queries.
    pub t_verify: uqsj_obs::Histogram,
}

pub(crate) fn join_obs() -> &'static JoinObs {
    static OBS: OnceLock<JoinObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = uqsj_obs::global();
        JoinObs {
            pairs: r.counter("uqsj_join_pairs_total", "pairs considered by the join cascade"),
            candidates: r.counter("uqsj_join_candidates_total", "pairs surviving all filters"),
            results: r.counter("uqsj_join_results_total", "pairs verified with SimP >= alpha"),
            t_verify: r.histogram_with("uqsj_join_stage_us", &[("stage", "verify")], STAGE_US_HELP),
        }
    })
}

/// Process-global handles for one cascade stage.
pub(crate) struct StageHandles {
    /// Pairs discarded by this stage (`uqsj_join_pruned_total{stage=..}`).
    pub pruned: uqsj_obs::Counter,
    /// Time per evaluation in this stage, µs
    /// (`uqsj_join_stage_us{stage=..}`); counts every class-pair
    /// evaluation that *reached* the stage, which for `size` means every
    /// one inside the size window (the window's skipped pairs are pruned
    /// without being timed).
    pub time: uqsj_obs::Histogram,
}

/// Handles for `stage`, registered together on first use.
pub(crate) fn stage_handles(stage: Stage) -> &'static StageHandles {
    static HANDLES: OnceLock<[StageHandles; 6]> = OnceLock::new();
    let all = HANDLES.get_or_init(|| {
        let r = uqsj_obs::global();
        Stage::ALL.map(|s| {
            // The registry wants `&'static` label slices: one leaked
            // two-element slice per stage, once per process.
            let labels: &'static [(&'static str, &'static str)] =
                Box::leak(Box::new([("stage", s.label())]));
            StageHandles {
                pruned: r.counter_with(
                    "uqsj_join_pruned_total",
                    labels,
                    "pairs discarded by each filter stage",
                ),
                time: r.histogram_with("uqsj_join_stage_us", labels, STAGE_US_HELP),
            }
        })
    });
    &all[stage.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_handles_are_memoized_per_label() {
        stage_handles(Stage::Size).pruned.add(2);
        // Same underlying counter: the second lookup sees the first add.
        assert!(stage_handles(Stage::Size).pruned.value() >= 2);
    }
}
