//! Metric handles for the world-verification path (Algorithm 1 lines
//! 8–14 and the grouped variant of Algorithm 2): how many possible
//! worlds were enumerated, how many the per-world CSS filter discarded,
//! how many reached a search, and how often the early exits fired.
//!
//! Handles are registered once in [`uqsj_obs::global()`] and shared; the
//! per-world increments are single striped-counter adds.

pub(crate) struct WorldObs {
    /// Worlds drawn from an enumeration cursor or group iterator.
    pub enumerated: uqsj_obs::Counter,
    /// Worlds discarded by the per-world certain CSS filter.
    pub css_pruned: uqsj_obs::Counter,
    /// Worlds that reached the τ-bounded A* search.
    pub verified: uqsj_obs::Counter,
    /// Early terminations because the accumulated mass reached α.
    pub early_exit_pass: uqsj_obs::Counter,
    /// Early terminations because the remaining mass cannot reach α.
    pub early_exit_fail: uqsj_obs::Counter,
}

pub(crate) fn world_obs() -> &'static WorldObs {
    use std::sync::OnceLock;
    static OBS: OnceLock<WorldObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = uqsj_obs::global();
        let exits = "verifications cut short by an early exit";
        WorldObs {
            enumerated: r
                .counter("uqsj_worlds_enumerated_total", "possible worlds drawn for verification"),
            css_pruned: r
                .counter("uqsj_worlds_css_pruned_total", "worlds discarded by the CSS filter"),
            verified: r
                .counter("uqsj_worlds_verified_total", "worlds reaching the tau-bounded A* search"),
            early_exit_pass: r.counter_with(
                "uqsj_verify_early_exit_total",
                &[("result", "pass")],
                exits,
            ),
            early_exit_fail: r.counter_with(
                "uqsj_verify_early_exit_total",
                &[("result", "fail")],
                exits,
            ),
        }
    })
}
