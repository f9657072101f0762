//! Serving metrics: question counts, cache effectiveness, signature-filter
//! effectiveness, and answer-latency percentiles.
//!
//! Backed by a **per-instance** [`uqsj_obs::Registry`] rather than the
//! process-global one: each [`ServeMetrics`] (and therefore each
//! [`crate::ShardedQaServer`]) owns its counters, so parallel tests and
//! side-by-side servers never contaminate each other, while still getting
//! the registry's Prometheus/JSON exposition for free via
//! [`ServeMetrics::registry`]. The latency histogram is the same
//! power-of-two-bucket structure this module used to hand-roll — it was
//! generalized into [`uqsj_obs::Histogram`], and the percentile estimates
//! are bit-identical for any sane latency (the old 30-bucket table capped
//! at ~9 minutes; the shared one covers all of `u64`).

use std::time::Duration;
use uqsj_obs::{Counter, Histogram, Registry};

/// Thread-safe serving counters over a private metric registry.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    questions: Counter,
    cache_hits: Counter,
    candidates_total: Counter,
    library_total: Counter,
    ted_total: Counter,
    slow_queries: Counter,
    explains: Counter,
    latency: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of the counters, with derived rates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Questions served (hits + misses).
    pub questions: u64,
    /// Questions answered from the cache.
    pub cache_hits: u64,
    /// Cache hit rate in `[0, 1]` (0 when nothing served).
    pub cache_hit_rate: f64,
    /// Templates examined after filtering, summed over misses.
    pub candidates_total: u64,
    /// Templates a linear scan would have examined, summed over misses.
    pub library_total: u64,
    /// `candidates_total / library_total` — below 1.0 means the signature
    /// index is pruning (the serving analogue of Fig. 11(b)'s candidate
    /// ratio).
    pub candidate_ratio: f64,
    /// Exact TED computations, summed over misses.
    pub ted_total: u64,
    /// Median answer latency.
    pub p50: Duration,
    /// 99th-percentile answer latency.
    pub p99: Duration,
}

impl ServeMetrics {
    /// Fresh, zeroed metrics over a private registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        Self {
            questions: registry
                .counter("uqsj_serve_questions_total", "questions served (hits + misses)"),
            cache_hits: registry
                .counter("uqsj_serve_cache_hits_total", "questions answered from the cache"),
            candidates_total: registry.counter(
                "uqsj_serve_candidates_total",
                "templates examined after filtering, summed over misses",
            ),
            library_total: registry.counter(
                "uqsj_serve_library_total",
                "templates a linear scan would have examined, summed over misses",
            ),
            ted_total: registry
                .counter("uqsj_serve_ted_total", "exact TED computations, summed over misses"),
            slow_queries: registry.counter(
                "uqsj_serve_slow_queries_total",
                "answers admitted to the worst-N slow-query log",
            ),
            explains: registry
                .counter("uqsj_serve_explain_total", "answers that carried an EXPLAIN request"),
            latency: {
                let h = registry.histogram("uqsj_serve_answer_us", "answer latency per question");
                // Retain the trace id of the worst recent observation per
                // bucket, so a latency spike in the exposition points
                // straight at a replayable request.
                h.enable_exemplars();
                h
            },
            registry,
        }
    }

    /// The registry backing these metrics — exposable as Prometheus text
    /// ([`Registry::render_prometheus`]) or JSON
    /// ([`Registry::snapshot_json`]) without touching the snapshot API.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Record a question served from the cache.
    pub fn record_hit(&self, latency: Duration) {
        self.questions.inc();
        self.cache_hits.inc();
        self.latency.observe_duration(latency);
    }

    /// Record a question that went through the store: `candidates` is the
    /// filtered set size, `library` the full library size, `ted` the exact
    /// TED computations spent.
    pub fn record_miss(&self, latency: Duration, candidates: usize, library: usize, ted: usize) {
        self.questions.inc();
        self.candidates_total.add(candidates as u64);
        self.library_total.add(library as u64);
        self.ted_total.add(ted as u64);
        self.latency.observe_duration(latency);
    }

    /// Record an answer admitted to the slow-query log.
    pub fn record_slow_query(&self) {
        self.slow_queries.inc();
    }

    /// Record an answer that carried `"explain": true`.
    pub fn record_explain(&self) {
        self.explains.inc();
    }

    /// Copy out the counters. Every derived ratio is zero (never NaN or
    /// infinite) when its denominator is zero, so zero-traffic snapshots
    /// format and compare cleanly.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let questions = self.questions.value();
        let cache_hits = self.cache_hits.value();
        let candidates_total = self.candidates_total.value();
        let library_total = self.library_total.value();
        MetricsSnapshot {
            questions,
            cache_hits,
            cache_hit_rate: uqsj_obs::ratio(cache_hits, questions),
            candidates_total,
            library_total,
            candidate_ratio: uqsj_obs::ratio(candidates_total, library_total),
            ted_total: self.ted_total.value(),
            p50: self.latency.quantile_duration(0.50),
            p99: self.latency.quantile_duration(0.99),
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "questions {} | cache hits {} ({:.1}%) | candidate ratio {:.3} ({}/{}) | \
             ted {} | p50 {:?} | p99 {:?}",
            self.questions,
            self.cache_hits,
            self.cache_hit_rate * 100.0,
            self.candidate_ratio,
            self.candidates_total,
            self.library_total,
            self.ted_total,
            self.p50,
            self.p99,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_candidate_ratio() {
        let m = ServeMetrics::new();
        m.record_miss(Duration::from_micros(100), 2, 10, 1);
        m.record_miss(Duration::from_micros(100), 3, 10, 0);
        m.record_hit(Duration::from_micros(3));
        let s = m.snapshot();
        assert_eq!(s.questions, 3);
        assert_eq!(s.cache_hits, 1);
        assert!((s.cache_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.candidate_ratio - 0.25).abs() < 1e-12);
        assert_eq!(s.ted_total, 1);
    }

    #[test]
    fn percentiles_track_bucket_edges() {
        let m = ServeMetrics::new();
        // 98 fast samples, 2 slow ones: the p99 rank (99 of 100) lands in
        // the slow bucket, the p50 rank in the fast one.
        for _ in 0..98 {
            m.record_hit(Duration::from_micros(10));
        }
        m.record_hit(Duration::from_millis(50));
        m.record_hit(Duration::from_millis(50));
        let s = m.snapshot();
        assert!(s.p50 <= Duration::from_micros(16), "p50 {:?}", s.p50);
        assert!(s.p99 >= Duration::from_millis(32), "p99 {:?}", s.p99);
    }

    #[test]
    fn empty_metrics_snapshot_is_zeroed() {
        let s = ServeMetrics::new().snapshot();
        assert_eq!(s.questions, 0);
        assert_eq!(s.candidate_ratio, 0.0);
        assert!(s.cache_hit_rate.is_finite());
        assert!(s.candidate_ratio.is_finite());
        assert_eq!(s.p50, Duration::ZERO);
        // A zero-traffic snapshot still formats NaN-free.
        let text = s.to_string();
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn instances_are_isolated_and_exposable() {
        let a = ServeMetrics::new();
        let b = ServeMetrics::new();
        a.record_hit(Duration::from_micros(5));
        assert_eq!(a.snapshot().questions, 1);
        assert_eq!(b.snapshot().questions, 0, "per-instance registries must not share state");
        let text = a.registry().render_prometheus();
        assert!(text.contains("uqsj_serve_questions_total 1"), "{text}");
        assert!(text.contains("uqsj_serve_answer_us_count 1"), "{text}");
    }
}
