//! The metrics registry: named counters/gauges/histograms with
//! Prometheus-style text exposition and a JSON snapshot export.
//!
//! A process-global registry ([`global`]) backs the pipeline
//! instrumentation (join stages, GED engine, world verification,
//! storage); subsystems that need isolated counters per instance — the
//! serving layer's `ServeMetrics`-style per-server counters, unit
//! tests — construct their own [`Registry`].
//!
//! Registration is idempotent: asking for the same name + label set again
//! returns a handle to the same underlying metric, so instrumentation
//! sites can be initialized lazily from several places without
//! double-counting. Registering the same name with a different *kind* is
//! a programming error and panics.

use crate::metric::{bucket_upper_edge, quantile_of, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Label pairs attached to a metric at registration time.
pub type Labels = &'static [(&'static str, &'static str)];

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    labels: Labels,
    help: &'static str,
    handle: Handle,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    /// `(name, rendered labels)` → index into `entries`.
    index: HashMap<(&'static str, String), usize>,
}

/// A set of named metrics; see the module docs.
#[derive(Default)]
pub struct Registry {
    // (Debug is implemented manually below: handles are atomics, so the
    // useful debug view is the list of registered names, not the guts.)
    inner: RwLock<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("metrics", &self.metric_names()).finish()
    }
}

/// The process-global registry used by the pipeline instrumentation.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn render_labels(labels: Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", body.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(
        &self,
        name: &'static str,
        labels: Labels,
        help: &'static str,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let key = (name, render_labels(labels));
        {
            // One read guard: taking a second read lock while holding the
            // first deadlocks once a writer queues between the two.
            let inner = self.inner.read().expect("registry lock");
            if let Some(&i) = inner.index.get(&key) {
                return inner.entries[i].handle.clone();
            }
        }
        let mut inner = self.inner.write().expect("registry lock");
        if let Some(&i) = inner.index.get(&key) {
            return inner.entries[i].handle.clone();
        }
        let handle = make();
        // Same name must keep one kind across all label sets — mixed
        // kinds cannot be exposed under one metric family.
        if let Some(prev) = inner.entries.iter().find(|e| e.name == name) {
            assert_eq!(
                prev.handle.kind(),
                handle.kind(),
                "metric {name} registered as both {} and {}",
                prev.handle.kind(),
                handle.kind()
            );
        }
        inner.entries.push(Entry { name, labels, help, handle: handle.clone() });
        let i = inner.entries.len() - 1;
        inner.index.insert(key, i);
        handle
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Get or register a counter with labels.
    pub fn counter_with(&self, name: &'static str, labels: Labels, help: &'static str) -> Counter {
        match self.get_or_insert(name, labels, help, || Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Get or register a gauge with labels.
    pub fn gauge_with(&self, name: &'static str, labels: Labels, help: &'static str) -> Gauge {
        match self.get_or_insert(name, labels, help, || Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Get or register a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: Labels,
        help: &'static str,
    ) -> Histogram {
        match self.get_or_insert(name, labels, help, || Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            other => panic!("metric {name} already registered as a {}", other.kind()),
        }
    }

    /// Distinct metric family names, in registration order — the set the
    /// CI golden-name check validates.
    pub fn metric_names(&self) -> Vec<&'static str> {
        let inner = self.inner.read().expect("registry lock");
        let mut names = Vec::new();
        for e in &inner.entries {
            if !names.contains(&e.name) {
                names.push(e.name);
            }
        }
        names
    }

    /// Prometheus text exposition of every registered metric. Histograms
    /// render cumulative `_bucket{le=...}` series (empty buckets elided,
    /// `+Inf` always present) plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.read().expect("registry lock");
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for e in &inner.entries {
            if seen.contains(&e.name) {
                continue;
            }
            seen.push(e.name);
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} {}\n", e.name, e.handle.kind()));
            for f in inner.entries.iter().filter(|f| f.name == e.name) {
                let labels = render_labels(f.labels);
                match &f.handle {
                    Handle::Counter(c) => {
                        out.push_str(&format!("{}{} {}\n", f.name, labels, c.value()));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&format!("{}{} {}\n", f.name, labels, g.value()));
                    }
                    Handle::Histogram(h) => {
                        let buckets = h.buckets();
                        let mut cumulative = 0u64;
                        for (i, &count) in buckets.iter().enumerate() {
                            if count == 0 {
                                continue;
                            }
                            cumulative += count;
                            let le = bucket_upper_edge(i);
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                f.name,
                                merge_le(f.labels, &le.to_string()),
                                cumulative
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            merge_le(f.labels, "+Inf"),
                            cumulative
                        ));
                        out.push_str(&format!("{}_sum{} {}\n", f.name, labels, h.sum()));
                        out.push_str(&format!("{}_count{} {}\n", f.name, labels, h.count()));
                    }
                }
            }
        }
        out
    }

    /// JSON snapshot of every registered metric: counters/gauges with
    /// their value, histograms with count, sum, p50/p99 estimates, and
    /// the non-empty `[upper_edge, count]` buckets. Histograms with
    /// exemplar capture enabled additionally expose
    /// `"exemplars": [[upper_edge, value, "trace_id"], ...]` — the trace
    /// id of the worst recent observation per bucket.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.read().expect("registry lock");
        let mut items = Vec::new();
        for e in &inner.entries {
            let labels: Vec<String> =
                e.labels.iter().map(|(k, v)| format!("\"{k}\":\"{}\"", escape_label(v))).collect();
            let labels = format!("{{{}}}", labels.join(","));
            let body = match &e.handle {
                Handle::Counter(c) => format!("\"kind\":\"counter\",\"value\":{}", c.value()),
                Handle::Gauge(g) => format!("\"kind\":\"gauge\",\"value\":{}", g.value()),
                Handle::Histogram(h) => {
                    let buckets = h.buckets();
                    let pairs: Vec<String> = buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| format!("[{},{}]", bucket_upper_edge(i), c))
                        .collect();
                    let mut body = format!(
                        "\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\
                         \"buckets\":[{}]",
                        h.count(),
                        h.sum(),
                        quantile_of(&buckets, 0.50),
                        quantile_of(&buckets, 0.99),
                        pairs.join(",")
                    );
                    if h.exemplars_enabled() {
                        let exemplars: Vec<String> = h
                            .exemplars()
                            .iter()
                            .map(|x| {
                                format!(
                                    "[{},{},\"{:016x}\"]",
                                    bucket_upper_edge(x.bucket),
                                    x.value,
                                    x.trace_id
                                )
                            })
                            .collect();
                        body.push_str(&format!(",\"exemplars\":[{}]", exemplars.join(",")));
                    }
                    body
                }
            };
            items.push(format!("{{\"name\":\"{}\",\"labels\":{labels},{body}}}", e.name));
        }
        format!("{{\"metrics\":[\n{}\n]}}\n", items.join(",\n"))
    }
}

/// Labels plus the `le` bucket label, rendered.
fn merge_le(labels: Labels, le: &str) -> String {
    let mut body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    body.push(format!("le=\"{le}\""));
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("test_total", "a test counter");
        let b = r.counter("test_total", "a test counter");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(r.metric_names(), vec!["test_total"]);
    }

    #[test]
    fn labeled_series_share_a_family() {
        let r = Registry::new();
        let a = r.counter_with("stage_total", &[("stage", "css")], "per-stage");
        let b = r.counter_with("stage_total", &[("stage", "markov")], "per-stage");
        a.add(2);
        b.add(3);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE stage_total counter"));
        assert!(text.contains("stage_total{stage=\"css\"} 2"));
        assert!(text.contains("stage_total{stage=\"markov\"} 3"));
        assert_eq!(text.matches("# TYPE stage_total").count(), 1);
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency");
        h.observe(1);
        h.observe(1);
        h.observe(10);
        let text = r.render_prometheus();
        assert!(text.contains("lat_us_bucket{le=\"2\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"16\"} 3"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_count 3"));
        assert!(text.contains("lat_us_sum 12"));
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let r = Registry::new();
        r.counter("c_total", "c").add(7);
        let h = r.histogram("h_us", "h");
        h.observe(100);
        let json = r.snapshot_json();
        assert!(json.contains("\"name\":\"c_total\""));
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"kind\":\"histogram\""));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn snapshot_exposes_exemplars_when_enabled() {
        // Serialize with tests that flip the process-wide tracing switch.
        let _serial = crate::trace::test_guard();
        let r = Registry::new();
        let h = r.histogram("ex_us", "exemplar-enabled latency");
        h.enable_exemplars();
        let ctx = crate::ctx::RequestCtx::new();
        {
            let _g = crate::ctx::install(ctx);
            h.observe(100);
        }
        let json = r.snapshot_json();
        let expected = format!("\"exemplars\":[[128,100,\"{:016x}\"]]", ctx.trace_id.0);
        assert!(json.contains(&expected), "{json}");
        // A histogram without exemplars enabled omits the key entirely.
        let plain = Registry::new();
        plain.histogram("plain_us", "no exemplars").observe(5);
        assert!(!plain.snapshot_json().contains("exemplars"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("oops", "first");
        r.gauge("oops", "second");
    }
}
