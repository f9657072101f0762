//! Join instrumentation: everything the efficiency experiments report.

use crate::cascade::Stage;
use std::time::Duration;

/// Counters and timers accumulated over one join run.
///
/// # Per-stage counters
///
/// Pruned-pair counts are keyed by cascade stage label (the same
/// `stage=...` labels `uqsj_join_pruned_total` carries) and kept in
/// cascade order, so every entry point and thread count reports the
/// identical funnel. The historical per-stage field names survive as
/// accessor methods ([`JoinStats::pruned_size`], ...).
///
/// # Time accounting
///
/// [`JoinStats::pruning_time`] and [`JoinStats::verification_time`] are
/// *CPU* times: per-pair elapsed intervals summed over every pair the run
/// touched, regardless of which worker touched it. A one-thread run
/// ([`crate::sim_join`]) is the paper's single-threaded accounting, where
/// the sum is the wall clock. A run of [`crate::JoinIndex::join`] on more
/// than one worker additionally stamps [`JoinStats::wall_time`] with its
/// true elapsed time; [`JoinStats::response_time`] prefers it when set, so
/// a parallel run does not report a "response time" larger than the time
/// it actually took.
#[derive(Clone, Debug, Default)]
pub struct JoinStats {
    /// `|D| × |U|`.
    pub pairs_total: u64,
    /// Pairs discarded per cascade stage, keyed by stage label in cascade
    /// order; stages that discarded nothing are absent. Small (≤ six
    /// stages), so a linear scan beats a hash map on the per-pair hot
    /// path.
    pruned: Vec<(&'static str, u64)>,
    /// Pairs that reached verification.
    pub candidates: u64,
    /// Pairs verified with `SimP_τ >= α`.
    pub results: u64,
    /// Possible worlds on which A\* ran.
    pub worlds_verified: u64,
    /// Possible worlds drawn by the Monte-Carlo sampler (memoized draws
    /// included); zero under exact-only verification.
    pub worlds_sampled: u64,
    /// Candidates decided by exact enumeration.
    pub verified_exact: u64,
    /// Candidates decided by the sampling tier.
    pub verified_sampled: u64,
    /// A\* states expanded during verification, summed over every world
    /// the run searched (the per-question EXPLAIN figure).
    pub ged_expanded: u64,
    /// Verification decisions per stopping reason, keyed by
    /// `StopReason::label()` in the order the reasons first fired.
    stops: Vec<(&'static str, u64)>,
    /// CPU time spent in the pruning phase (summed per pair).
    pub pruning_time: Duration,
    /// CPU time spent in the refinement (verification) phase.
    pub verification_time: Duration,
    /// True elapsed time of the driving call, set only by drivers whose
    /// workers overlap (zero means "not measured": sequential runs, where
    /// [`JoinStats::cpu_time`] already *is* the wall clock).
    pub wall_time: Duration,
}

impl JoinStats {
    /// Record `n` pairs discarded by the stage labelled `label`.
    pub fn record_pruned(&mut self, label: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(entry) = self.pruned.iter_mut().find(|(l, _)| *l == label) {
            entry.1 += n;
        } else {
            let rank =
                |l: &str| Stage::ALL.iter().position(|s| s.label() == l).unwrap_or(usize::MAX);
            let at = self.pruned.partition_point(|&(l, _)| rank(l) <= rank(label));
            self.pruned.insert(at, (label, n));
        }
    }

    /// Pairs discarded by the stage labelled `label` (0 if it never ran).
    pub fn pruned_by(&self, label: &str) -> u64 {
        self.pruned.iter().find(|(l, _)| *l == label).map_or(0, |(_, n)| *n)
    }

    /// Every stage that discarded at least one pair, with its count, in
    /// cascade order.
    pub fn pruned_stages(&self) -> &[(&'static str, u64)] {
        &self.pruned
    }

    /// Record one verification decision that stopped for `label`.
    pub fn record_stop(&mut self, label: &'static str) {
        if let Some(entry) = self.stops.iter_mut().find(|(l, _)| *l == label) {
            entry.1 += 1;
        } else {
            self.stops.push((label, 1));
        }
    }

    /// Every verification stopping reason seen, with its count.
    pub fn stop_reasons(&self) -> &[(&'static str, u64)] {
        &self.stops
    }

    /// Decisions that stopped for `label` (0 if the reason never fired).
    pub fn stopped_by(&self, label: &str) -> u64 {
        self.stops.iter().find(|(l, _)| *l == label).map_or(0, |(_, n)| *n)
    }

    /// Pairs discarded by the vertex/edge-count size bound — the same
    /// window [`crate::JoinIndex`] skips without touching the pair.
    pub fn pruned_size(&self) -> u64 {
        self.pruned_by("size")
    }

    /// Pairs discarded by the label-multiset bound (uncertain lift).
    pub fn pruned_label_multiset(&self) -> u64 {
        self.pruned_by("label_multiset")
    }

    /// Pairs discarded by the CSS structural filter (Theorem 3).
    pub fn pruned_structural(&self) -> u64 {
        self.pruned_by("css")
    }

    /// Pairs discarded by the single-group Markov filter (Theorem 4),
    /// summed over both probabilistic call sites (the `SimJ` filter and
    /// the `SimJOpt` pre-filter, which report separate stage labels).
    pub fn pruned_probabilistic(&self) -> u64 {
        self.pruned_by("markov") + self.pruned_by("markov_opt")
    }

    /// Pairs discarded by the group-refined bound (Algorithm 2).
    pub fn pruned_grouped(&self) -> u64 {
        self.pruned_by("grouped")
    }

    /// Candidate ratio: candidates / total pairs (the y-axis of
    /// Figs. 11(b), 12(b), 13(b), 14(b), 15(b)).
    pub fn candidate_ratio(&self) -> f64 {
        uqsj_obs::ratio(self.candidates, self.pairs_total)
    }

    /// Result ratio: results / total pairs ("Real" series in the figures).
    pub fn result_ratio(&self) -> f64 {
        uqsj_obs::ratio(self.results, self.pairs_total)
    }

    /// Pairs discarded before verification, across all filter stages.
    pub fn pruned_total(&self) -> u64 {
        self.pruned.iter().map(|(_, n)| n).sum()
    }

    /// Summed per-pair CPU time (pruning + verification) — the paper's
    /// single-threaded response-time metric.
    pub fn cpu_time(&self) -> Duration {
        self.pruning_time + self.verification_time
    }

    /// Total response time: the driver's wall clock when measured
    /// (parallel runs), otherwise the summed CPU time (sequential runs,
    /// where the two coincide).
    pub fn response_time(&self) -> Duration {
        if self.wall_time > Duration::ZERO {
            self.wall_time
        } else {
            self.cpu_time()
        }
    }

    /// Merge another run's counters into this one (used to combine the
    /// join driver's workers). Counters and CPU times
    /// add; `wall_time` max-merges, because concurrent workers' elapsed
    /// intervals overlap — summing them would double-count the clock.
    pub fn merge(&mut self, other: &JoinStats) {
        self.pairs_total += other.pairs_total;
        for &(label, n) in &other.pruned {
            self.record_pruned(label, n);
        }
        self.candidates += other.candidates;
        self.results += other.results;
        self.worlds_verified += other.worlds_verified;
        self.worlds_sampled += other.worlds_sampled;
        self.verified_exact += other.verified_exact;
        self.verified_sampled += other.verified_sampled;
        self.ged_expanded += other.ged_expanded;
        for &(label, n) in &other.stops {
            if let Some(entry) = self.stops.iter_mut().find(|(l, _)| *l == label) {
                entry.1 += n;
            } else {
                self.stops.push((label, n));
            }
        }
        self.pruning_time += other.pruning_time;
        self.verification_time += other.verification_time;
        self.wall_time = self.wall_time.max(other.wall_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = JoinStats { pairs_total: 200, candidates: 10, results: 4, ..Default::default() };
        assert!((s.candidate_ratio() - 0.05).abs() < 1e-12);
        assert!((s.result_ratio() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn empty_join_has_zero_ratios() {
        let s = JoinStats::default();
        assert_eq!(s.candidate_ratio(), 0.0);
        assert_eq!(s.result_ratio(), 0.0);
        assert!(s.candidate_ratio().is_finite());
        assert_eq!(s.response_time(), Duration::ZERO);
    }

    #[test]
    fn pruned_counters_are_keyed_by_stage_label() {
        let mut s = JoinStats::default();
        s.record_pruned("markov_opt", 5);
        s.record_pruned("css", 2);
        s.record_pruned("size", 3);
        s.record_pruned("size", 1);
        s.record_pruned("grouped", 0);
        // Cascade order whatever order the stages fired in; empty stages
        // stay absent.
        assert_eq!(s.pruned_stages(), [("size", 4), ("css", 2), ("markov_opt", 5)]);
        assert_eq!(s.pruned_size(), 4);
        assert_eq!(s.pruned_structural(), 2);
        assert_eq!(s.pruned_probabilistic(), 5);
        assert_eq!(s.pruned_by("segos"), 0);
        assert_eq!(s.pruned_total(), 11);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JoinStats { pairs_total: 5, candidates: 2, ..Default::default() };
        let mut b = JoinStats { pairs_total: 7, candidates: 1, results: 1, ..Default::default() };
        b.record_pruned("size", 3);
        b.record_pruned("label_multiset", 1);
        a.record_pruned("size", 2);
        a.merge(&b);
        assert_eq!(a.pairs_total, 12);
        assert_eq!(a.candidates, 3);
        assert_eq!(a.results, 1);
        assert_eq!(a.pruned_size(), 5);
        assert_eq!(a.pruned_label_multiset(), 1);
        assert_eq!(a.pruned_total(), 6);
    }

    #[test]
    fn stop_reasons_key_count_and_merge() {
        let mut a = JoinStats::default();
        a.record_stop("exact_only");
        a.record_stop("certain_accept");
        a.record_stop("exact_only");
        let mut b = JoinStats { ged_expanded: 7, ..Default::default() };
        b.record_stop("certain_accept");
        b.record_stop("resolved");
        a.merge(&b);
        assert_eq!(a.stopped_by("exact_only"), 2);
        assert_eq!(a.stopped_by("certain_accept"), 2);
        assert_eq!(a.stopped_by("resolved"), 1);
        assert_eq!(a.stopped_by("budget_exhausted"), 0);
        assert_eq!(a.ged_expanded, 7);
        assert_eq!(a.stop_reasons().iter().map(|(_, n)| n).sum::<u64>(), 5);
    }

    #[test]
    fn merge_accumulates_tier_counters() {
        let mut a = JoinStats {
            worlds_sampled: 100,
            verified_exact: 2,
            verified_sampled: 1,
            ..Default::default()
        };
        let b = JoinStats {
            worlds_sampled: 50,
            verified_exact: 1,
            verified_sampled: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.worlds_sampled, 150);
        assert_eq!(a.verified_exact, 3);
        assert_eq!(a.verified_sampled, 5);
    }

    #[test]
    fn wall_time_max_merges_and_drives_response_time() {
        let mut a = JoinStats {
            pruning_time: Duration::from_millis(40),
            verification_time: Duration::from_millis(60),
            wall_time: Duration::from_millis(30),
            ..Default::default()
        };
        let b = JoinStats {
            pruning_time: Duration::from_millis(50),
            verification_time: Duration::from_millis(50),
            wall_time: Duration::from_millis(45),
            ..Default::default()
        };
        a.merge(&b);
        // CPU times add across workers; overlapping wall clocks do not.
        assert_eq!(a.cpu_time(), Duration::from_millis(200));
        assert_eq!(a.wall_time, Duration::from_millis(45));
        assert_eq!(a.response_time(), Duration::from_millis(45));
    }

    #[test]
    fn sequential_runs_report_cpu_time_as_response_time() {
        let s = JoinStats {
            pruning_time: Duration::from_millis(2),
            verification_time: Duration::from_millis(3),
            ..Default::default()
        };
        assert_eq!(s.response_time(), Duration::from_millis(5));
        assert_eq!(s.response_time(), s.cpu_time());
    }
}
