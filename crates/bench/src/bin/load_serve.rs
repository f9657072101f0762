//! Closed-loop load test against a live `uqsj-net` server.
//!
//! By default the binary hosts its own sharded server on a random
//! loopback port, then drives it with `--clients` keep-alive connections
//! over real sockets: each client loops a mixed workload (single
//! answers, small batches, periodic template ingests, metric scrapes)
//! for `--seconds`, recording per-request latency and status. Pass
//! `--addr HOST:PORT` to aim at an externally started server instead
//! (the self-hosted one is then skipped, and shutdown is the caller's
//! problem).
//!
//! When self-hosted the workload runs **twice**: a baseline phase with
//! span tracing and exemplar capture disabled
//! (`uqsj_obs::trace::set_enabled(false)`) against a fresh server, then
//! the traced phase (the production configuration) against another fresh
//! server. Both p99s land in the JSON and the run fails if tracing moved
//! p99 by more than `--overhead-tolerance` (default 0.05 — the <5%
//! observability budget) beyond a small absolute jitter floor. The
//! traced phase also smokes the `/debug/slow` endpoint and fails on
//! malformed JSON.
//!
//! Emits `BENCH_serve.json` in the working directory (run it from the
//! repository root to refresh the committed file) — p50/p99 latency, QPS,
//! shed rate, status-class counts, plus the server's metric registries —
//! and exits nonzero if the run saw zero successful answers or any 5xx
//! that was not a deadline/drain 503 (CI's acceptance gate).
//!
//! ```text
//! cargo run --release -p uqsj-bench --bin load_serve -- \
//!     [--clients M] [--seconds S] [--shards N] [--workers W]
//!     [--queue-depth Q] [--deadline-ms D] [--scale F]
//!     [--overhead-tolerance F]
//!     [--addr HOST:PORT] [--metrics-out FILE]
//! ```

use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uqsj::net::{Client, NetConfig};
use uqsj::pipeline::generate_templates;
use uqsj::prelude::*;
use uqsj::serve::{ServeConfig, ShardedQaServer};
use uqsj::workload::DatasetConfig;

/// `--key value` lookup over argv.
fn arg(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.windows(2).find(|w| w[0] == format!("--{key}")).map(|w| w[1].clone())
}

fn num<T: std::str::FromStr>(key: &str, default: T) -> T {
    arg(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Per-client tally, merged after the run.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    ok_2xx: u64,
    shed_429: u64,
    unavailable_503: u64,
    other_4xx: u64,
    hard_5xx: u64,
    transport_errors: u64,
    answers_nonempty: u64,
    reconnects: u64,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn client_loop(
    addr: SocketAddr,
    questions: &[String],
    ingest_body: &str,
    worker: usize,
    stop: &AtomicBool,
) -> Tally {
    let mut tally = Tally::default();
    let timeout = Duration::from_secs(5);
    let Ok(mut client) = Client::connect(addr, timeout) else {
        tally.transport_errors += 1;
        return tally;
    };
    let mut i = worker; // deterministic, distinct phase per client
    while !stop.load(Ordering::Relaxed) {
        let question = &questions[i % questions.len()];
        // Mixed workload: mostly single answers, a batch every 7th
        // request, an ingest every 31st, a metrics scrape every 53rd.
        let (path, body): (&str, String) = if i % 53 == 11 {
            ("/metrics", String::new())
        } else if i % 31 == 7 {
            ("/v1/templates", ingest_body.to_owned())
        } else if i % 7 == 3 {
            let batch: Vec<String> = (0..4)
                .map(|k| format!("\"{}\"", questions[(i + k) % questions.len()].replace('"', "")))
                .collect();
            ("/v1/answer", format!("{{\"questions\": [{}], \"threads\": 2}}", batch.join(",")))
        } else {
            ("/v1/answer", format!("{{\"question\": \"{}\"}}", question.replace('"', "")))
        };
        i += 1;
        let started = Instant::now();
        let result = if path == "/metrics" { client.get(path) } else { client.post(path, &body) };
        match result {
            Ok(resp) => {
                tally.latencies_us.push(started.elapsed().as_micros() as u64);
                match resp.status {
                    200..=299 => {
                        tally.ok_2xx += 1;
                        if resp.body.contains("\"answers\":[\"") {
                            tally.answers_nonempty += 1;
                        }
                    }
                    429 => tally.shed_429 += 1,
                    503 => tally.unavailable_503 += 1,
                    400..=499 => tally.other_4xx += 1,
                    _ => tally.hard_5xx += 1,
                }
                if resp.close && client.reconnect(timeout).is_err() {
                    tally.transport_errors += 1;
                    break;
                }
                if resp.close {
                    tally.reconnects += 1;
                }
            }
            Err(_) => {
                tally.transport_errors += 1;
                if client.reconnect(timeout).is_err() {
                    break;
                }
                tally.reconnects += 1;
            }
        }
    }
    tally
}

/// Drive `clients` closed-loop connections for `seconds`; returns the
/// merged tally (latencies sorted) and the measured wall time.
fn drive(
    addr: SocketAddr,
    questions: &[String],
    ingest_body: &str,
    clients: usize,
    seconds: u64,
) -> (Tally, f64) {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|w| {
                let (questions, ingest_body, stop) = (questions, ingest_body, &stop);
                scope.spawn(move || client_loop(addr, questions, ingest_body, w, stop))
            })
            .collect();
        std::thread::sleep(Duration::from_secs(seconds));
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let mut merged = Tally::default();
    for t in tallies {
        merged.latencies_us.extend(t.latencies_us);
        merged.ok_2xx += t.ok_2xx;
        merged.shed_429 += t.shed_429;
        merged.unavailable_503 += t.unavailable_503;
        merged.other_4xx += t.other_4xx;
        merged.hard_5xx += t.hard_5xx;
        merged.transport_errors += t.transport_errors;
        merged.answers_nonempty += t.answers_nonempty;
        merged.reconnects += t.reconnects;
    }
    merged.latencies_us.sort_unstable();
    (merged, elapsed)
}

/// Hit the live-introspection endpoints and check their JSON parses into
/// the expected shape (the CI debug-endpoint smoke).
fn smoke_debug_endpoints(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr, Duration::from_secs(5))
        .map_err(|e| format!("debug smoke connect: {e}"))?;
    let slow = client.get("/debug/slow").map_err(|e| format!("/debug/slow: {e}"))?;
    if slow.status != 200 {
        return Err(format!("/debug/slow returned {}", slow.status));
    }
    let doc = uqsj::net::json::parse(&slow.body)
        .map_err(|e| format!("/debug/slow body is not JSON: {e}"))?;
    let reports =
        doc.get("slow").and_then(uqsj::net::Value::as_array).ok_or("/debug/slow lacks slow[]")?;
    if reports.is_empty() {
        return Err("slow log empty after a full load phase".to_owned());
    }
    Ok(())
}

fn main() -> ExitCode {
    let clients: usize = num("clients", 4);
    let seconds: u64 = num("seconds", 3);
    let shards: usize = num("shards", 4);
    let scale: f64 = num("scale", 1.0);
    let tolerance: f64 = num("overhead-tolerance", 0.05);

    // The workload: a mined library plus its question set. Built even
    // when targeting an external server — the drivers need questions.
    let dataset = uqsj::workload::qald_like(&DatasetConfig {
        questions: ((60.0 * scale) as usize).max(20),
        distractors: ((40.0 * scale) as usize).max(10),
        ..Default::default()
    });
    let result = generate_templates(&dataset, JoinParams::simj(1, 0.5));
    let questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();
    // A small re-ingest payload (idempotent: the server dedups).
    let ingest_slice = {
        let mut lib = TemplateLibrary::new();
        for t in result.library.templates().iter().take(3) {
            lib.add(t.clone());
        }
        uqsj::template::io::to_text(&lib)
    };
    let ingest_body =
        format!("{{\"templates\": {}}}", uqsj::net::Value::from(ingest_slice.as_str()).render());

    let net = NetConfig {
        workers: num("workers", 4),
        queue_depth: num("queue-depth", 64),
        deadline: Duration::from_millis(num("deadline-ms", 2000)),
        ..NetConfig::default()
    };
    // Each self-hosted phase gets its own fresh server (cold cache), so
    // the no-trace and traced measurements see identical state.
    let clone_library = || {
        let mut lib = TemplateLibrary::new();
        for t in result.library.templates() {
            lib.add(t.clone());
        }
        lib
    };
    let host = |library: TemplateLibrary| {
        let qa = Arc::new(ShardedQaServer::new(
            library,
            dataset.kb.lexicon.clone(),
            dataset.kb.triple_store(),
            shards,
            ServeConfig { min_phi: 1.0, cache_capacity: 1024, bgp_eval: None },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        uqsj::net::serve_on(qa, listener, net).expect("start server")
    };
    let scrape = |addr: SocketAddr| {
        Client::connect(addr, Duration::from_secs(5))
            .and_then(|mut c| c.get("/metrics"))
            .map(|r| r.body)
            .unwrap_or_default()
    };

    let external: Option<SocketAddr> = match arg("addr") {
        Some(a) => match a.parse() {
            Ok(addr) => Some(addr),
            Err(e) => {
                eprintln!("bad --addr {a:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let (merged, elapsed, p99_no_trace, registry_json, metrics_text, debug_smoke) =
        if let Some(addr) = external {
            // External server: single traced run, no overhead baseline
            // (the trace switch is process-local and the server is not).
            eprintln!(
                "load_serve: {clients} clients x {seconds}s against {addr} \
                 ({} questions, external)",
                questions.len()
            );
            let (merged, elapsed) = drive(addr, &questions, &ingest_body, clients, seconds);
            let smoke = smoke_debug_endpoints(addr);
            (merged, elapsed, None, "null".to_owned(), scrape(addr), smoke)
        } else {
            // Phase 1 — baseline: span tracing and exemplar capture off.
            uqsj::obs::trace::set_enabled(false);
            let handle = host(clone_library());
            eprintln!(
                "load_serve: baseline (no-trace) phase, {clients} clients x {seconds}s \
                 against {} ({} questions, {shards} shards)",
                handle.local_addr(),
                questions.len()
            );
            let (baseline, _) =
                drive(handle.local_addr(), &questions, &ingest_body, clients, seconds);
            handle.shutdown().expect("baseline drain");
            let p99_base = percentile(&baseline.latencies_us, 99);

            // Phase 2 — traced: the production configuration.
            uqsj::obs::trace::set_enabled(true);
            let handle = host(clone_library());
            let addr = handle.local_addr();
            eprintln!("load_serve: traced phase, {clients} clients x {seconds}s against {addr}");
            let (merged, elapsed) = drive(addr, &questions, &ingest_body, clients, seconds);
            let smoke = smoke_debug_endpoints(addr);
            let metrics_text = scrape(addr);
            let registry_json = format!(
                "{{\"net\":{},\"serve\":{}}}",
                handle.metrics().registry().snapshot_json().trim_end(),
                handle.qa().metrics_registry().snapshot_json().trim_end()
            );
            handle.shutdown().expect("graceful drain");
            (merged, elapsed, Some(p99_base), registry_json, metrics_text, smoke)
        };

    if let Some(path) = arg("metrics-out") {
        if let Err(e) = std::fs::write(&path, &metrics_text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote scraped /metrics to {path}");
    }

    let total = merged.latencies_us.len() as u64;
    let qps = merged.ok_2xx as f64 / elapsed;
    let shed_rate = merged.shed_429 as f64 / (total.max(1)) as f64;
    let p99_traced = percentile(&merged.latencies_us, 99);
    let json = format!(
        "{{\n  \"bench\": \"load_serve\",\n  \"clients\": {clients},\n  \
         \"seconds\": {elapsed:.2},\n  \"shards\": {shards},\n  \
         \"requests\": {total},\n  \"qps_2xx\": {qps:.1},\n  \
         \"p50_request_us\": {p50},\n  \"p99_request_us\": {p99},\n  \
         \"p99_no_trace_us\": {p99_base},\n  \"p99_traced_us\": {p99_traced},\n  \
         \"trace_overhead_tolerance\": {tolerance},\n  \
         \"ok_2xx\": {ok},\n  \"shed_429\": {shed},\n  \"shed_rate\": {shed_rate:.4},\n  \
         \"unavailable_503\": {u503},\n  \"other_4xx\": {o4},\n  \"hard_5xx\": {h5},\n  \
         \"transport_errors\": {terr},\n  \"reconnects\": {rec},\n  \
         \"answers_nonempty\": {nonempty},\n  \"registry\": {registry_json}\n}}\n",
        p50 = percentile(&merged.latencies_us, 50),
        p99 = p99_traced,
        p99_base = p99_no_trace.map(|v| v.to_string()).unwrap_or_else(|| "null".to_owned()),
        ok = merged.ok_2xx,
        shed = merged.shed_429,
        u503 = merged.unavailable_503,
        o4 = merged.other_4xx,
        h5 = merged.hard_5xx,
        terr = merged.transport_errors,
        rec = merged.reconnects,
        nonempty = merged.answers_nonempty,
    );
    // Relative: the working directory, the repository root when run as
    // documented.
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    eprintln!("wrote {path}:\n{json}");

    // Acceptance gates: the server must have answered (non-zero QPS) and
    // must never have produced a 5xx other than a deadline/drain 503.
    if merged.ok_2xx == 0 {
        eprintln!("FAIL: zero successful requests");
        return ExitCode::FAILURE;
    }
    if merged.hard_5xx > 0 {
        eprintln!("FAIL: {} hard 5xx responses (non-deadline)", merged.hard_5xx);
        return ExitCode::FAILURE;
    }
    if let Err(e) = debug_smoke {
        eprintln!("FAIL: debug endpoint smoke: {e}");
        return ExitCode::FAILURE;
    }
    // The observability budget: tracing + exemplars may not move p99 by
    // more than the tolerance. A 250us absolute floor absorbs scheduler
    // jitter on short runs where relative comparison is meaningless.
    if let Some(base) = p99_no_trace {
        let budget = base as f64 * (1.0 + tolerance) + 250.0;
        if p99_traced as f64 > budget {
            eprintln!(
                "FAIL: tracing overhead: p99 {p99_traced}us traced vs {base}us untraced \
                 exceeds budget {budget:.0}us (tolerance {tolerance})"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
