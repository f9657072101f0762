//! One untraced run of a workload: every end-to-end metric, plus the
//! correctness checks whose disagreements count as failed operations.

use rand::Rng;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uqsj::net::{Client, NetConfig, ServerHandle, Value};
use uqsj::prelude::*;
use uqsj::sample::seed::{derive_seed, rng_for};
use uqsj::serve::ShardedQaServer;
use uqsj::template::metrics::QaScore;
use uqsj::workload::QaPair;

use crate::inputs::{self, Mined};
use crate::load::{self, IngestStream, Phase, Tally};
use crate::output::Report;
use crate::stats::{mean, median, p99, peak_rss_mb};
use crate::workloads::{
    Setup, Workload, DATASETS, INGESTS_PER_SLICE, LADDER_POOL, RUNG_READS, RUNG_SECONDS,
    SETUP_PER_SLICE, SHARDS, SLICES_PER_ROUND,
};

/// Returned pairs re-verified with the exact `similarity_probability`.
const REVERIFY_SAMPLE: usize = 200;
/// Reads answered over HTTP and in process on a fresh server.
const COMPARE_SAMPLE: usize = 100;
/// Tries per ladder rung.
const ATTEMPTS: usize = 2;
/// Pause before a rung's second try, so one stall of the machine does
/// not fail both.
const RETRY_PAUSE: Duration = Duration::from_millis(500);
/// A rung whose reads complete at under this share of its rate has a
/// growing backlog.
const KEPT_UP: f64 = 0.95;

/// Operations run and operations that failed, over the whole run.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn tally(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed();
    }
}

/// The served library's server configuration.
pub fn serve_config(w: &Workload) -> ServeConfig {
    ServeConfig { min_phi: w.min_phi, cache_capacity: 1024, bgp_eval: None }
}

pub fn copy_library(library: &TemplateLibrary) -> TemplateLibrary {
    let mut copy = TemplateLibrary::new();
    for t in library.templates() {
        copy.add(t.clone());
    }
    copy
}

/// Worker threads for the server: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, usize::from)
}

/// Re-verify a seeded sample of the returned pairs with the exact
/// similarity probability; returns `(checked, disagreeing)`.
pub fn reverify(mined: &Mined, seed: u64) -> (u64, u64) {
    let ds = &mined.dataset;
    let matches = &mined.result.matches;
    let mut rng = rng_for(derive_seed(seed, 7));
    let n = REVERIFY_SAMPLE.min(matches.len());
    let mut bad = 0;
    for _ in 0..n {
        let m = &matches[rng.gen_range(0..matches.len())];
        let p = uqsj::uncertain::similarity_probability(
            &ds.table,
            &ds.d_graphs[m.q_index],
            &ds.u_graphs[m.g_index],
            inputs::TAU,
        );
        if p + 1e-9 < inputs::ALPHA {
            eprintln!("  re-verify: pair (q {}, g {}) has SimP {p} < α", m.q_index, m.g_index);
            bad += 1;
        }
    }
    (n as u64, bad)
}

/// Hands out the read stream's requests: consecutive distinct
/// questions of the pool, `per_request` to a request.
pub struct ReadSeq {
    per_request: usize,
    questions: Vec<String>,
    cursor: usize,
}

impl ReadSeq {
    pub fn new(per_request: usize, pool: &[QaPair]) -> Self {
        let questions = pool.iter().map(|p| p.question.clone()).collect();
        Self { per_request, questions, cursor: 0 }
    }

    /// Pool indexes of the next `n` questions.
    pub fn take(&mut self, n: usize) -> Vec<usize> {
        let pool = self.questions.len();
        let out = (self.cursor..self.cursor + n).map(|i| i % pool).collect();
        self.cursor += n;
        out
    }

    /// The next `n` request bodies with, per request, the pool indexes
    /// of the questions it asks.
    pub fn requests(&mut self, n: usize) -> (Vec<String>, Vec<Vec<usize>>) {
        let asked: Vec<Vec<usize>> = (0..n).map(|_| self.take(self.per_request)).collect();
        let bodies = asked
            .iter()
            .map(|qs| match qs.as_slice() {
                [one] => load::answer_body(&self.questions[*one]),
                many => load::batch_body(many.iter().map(|&q| self.questions[q].as_str())),
            })
            .collect();
        (bodies, asked)
    }
}

/// Read pool size a run needs: every read distinct.
pub fn read_pool_size(w: &Workload, seconds: u64) -> usize {
    (w.reference_rps * seconds as f64) as usize * w.per_request + LADDER_POOL
}

/// Blocks of consecutive samples for [`block_p99`].
const BLOCKS: usize = 4;
/// Least samples per block.
const BLOCK_SAMPLES: usize = 300;

/// The median of the p99s of `BLOCKS` consecutive blocks of latency
/// samples, so a burst of load elsewhere on the machine that spoils one
/// block does not set the figure; the p99 of all samples when the blocks
/// would be smaller than `BLOCK_SAMPLES`.
pub fn block_p99(latency: &[f64]) -> f64 {
    if latency.len() < BLOCKS * BLOCK_SAMPLES {
        return p99(latency);
    }
    let size = latency.len().div_ceil(BLOCKS);
    median(&latency.chunks(size).map(p99).collect::<Vec<_>>())
}

/// Start the HTTP front end over `qa` on a loopback port.
pub fn start_server(qa: Arc<ShardedQaServer>) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let config = NetConfig { workers: nproc(), ..NetConfig::default() };
    uqsj::net::serve_on(qa, listener, config).map_err(|e| format!("serve: {e}"))
}

/// Answers, SPARQL text and φ of one answered question.
fn parse_outcome(doc: &Value) -> Option<(Vec<String>, Option<String>, f64)> {
    let answers = doc
        .get("answers")?
        .as_array()?
        .iter()
        .map(|a| a.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()?;
    let sparql = doc.get("sparql").and_then(Value::as_str).map(str::to_owned);
    Some((answers, sparql, doc.get("phi")?.as_f64()?))
}

/// The answers of each question in a `/v1/answer` response body, single
/// or batch.
fn parse_answers(body: &str) -> Option<Vec<Vec<String>>> {
    let doc = uqsj::net::json::parse(body).ok()?;
    match doc.get("results").and_then(Value::as_array) {
        Some(results) => results.iter().map(|r| parse_outcome(r).map(|o| o.0)).collect(),
        None => parse_outcome(&doc).map(|o| vec![o.0]),
    }
}

/// Ask a seeded sample of the read pool over HTTP and in process on a
/// fresh server over the same library; returns `(compared, disagreeing)`.
fn compare_http(
    handle: &ServerHandle,
    pool: &[QaPair],
    config: ServeConfig,
    triples: uqsj::rdf::TripleStore,
    seed: u64,
) -> Result<(u64, u64), String> {
    let served = handle.qa();
    let fresh = ShardedQaServer::new(
        served.canonical_library(),
        (**served.lexicon()).clone(),
        triples,
        SHARDS,
        config,
    );
    let mut client = Client::connect(handle.local_addr(), Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    let mut rng = rng_for(derive_seed(seed, 11));
    let mut bad = 0;
    for _ in 0..COMPARE_SAMPLE {
        let q = &pool[rng.gen_range(0..pool.len())].question;
        let want = fresh.answer(q).outcome;
        let got = client
            .post("/v1/answer", &load::answer_body(q))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| uqsj::net::json::parse(&r.body).ok())
            .and_then(|doc| parse_outcome(&doc));
        let agree = got.is_some_and(|(answers, sparql, phi)| {
            answers == want.answers
                && sparql == want.sparql.as_ref().map(ToString::to_string)
                && (phi - want.phi).abs() < 1e-9
        });
        if !agree {
            eprintln!("  http-vs-in-process: disagreement on {q:?}");
            bad += 1;
        }
    }
    Ok((COMPARE_SAMPLE as u64, bad))
}

/// One ladder probe: reads at rung `k` for `RUNG_SECONDS` (at least
/// `RUNG_READS` of them). Passes when nothing failed, p99 stays within
/// the limit, and reads completed at the rung's rate (no growing
/// backlog). Returns `(passed, achieved read rate)`.
fn probe(w: &Workload, k: usize, addr: SocketAddr, reads: &mut ReadSeq) -> (bool, f64) {
    let rate = w.rung(k);
    let (requests, _) = reads.requests(RUNG_READS.max((rate * RUNG_SECONDS) as usize));
    let phase = Phase {
        requests: &requests,
        rate,
        keep_bodies: false,
        abort_over_us: Some(w.p99_limit_us),
    };
    let r = load::run(addr, &phase);
    // Let the server notice the closed connections before the next probe.
    std::thread::sleep(Duration::from_millis(100));
    let p99_us = p99(&r.latency_us);
    let achieved = r.tally.ok as f64 / r.elapsed_s.max(1e-9);
    let passed = !r.aborted
        && r.tally.failed() == 0
        && p99_us <= w.p99_limit_us
        && achieved >= KEPT_UP * rate;
    eprintln!(
        "  rung {k:2} {rate:8.1}/s: {} p99 {p99_us:9.0}us achieved {achieved:8.1}/s | reads {}{}",
        if passed { "pass" } else { "FAIL" },
        r.tally.describe(),
        if r.aborted { " | aborted: >1% over the limit" } else { "" }
    );
    (passed, achieved)
}

/// A rung passes if any of `ATTEMPTS` tries meets the limit: a
/// transient stall elsewhere on the machine does not sink a rung the
/// system sustains.
fn probe_rung(w: &Workload, k: usize, addr: SocketAddr, reads: &mut ReadSeq) -> (bool, f64) {
    let mut last = (false, 0.0);
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(RETRY_PAUSE);
        }
        last = probe(w, k, addr, reads);
        if last.0 {
            break;
        }
    }
    last
}

/// Bisect the fixed ladder for its highest passing rung; the top rung
/// must fail, or the ladder no longer brackets capacity and the run
/// reports no number. The maximum rate is not an end-to-end metric, so
/// a ladder whose lowest rung fails (the machine stalled through every
/// try) is reported as 0 and does not fail the run.
fn max_rps(w: &Workload, addr: SocketAddr, reads: &mut ReadSeq) -> Result<f64, String> {
    let top = w.ladder_rungs - 1;
    if probe(w, top, addr, reads).0 {
        return Err(format!(
            "the top ladder rung ({:.0}/s) meets the p99 limit: raise the ladder",
            w.rung(top)
        ));
    }
    // Invariant: rung `hi` fails and rung `lo` passes (-1: below rung 0).
    let (mut lo, mut hi) = (-1_isize, top as isize);
    let mut best = 0.0;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let (ok, achieved) = probe_rung(w, mid as usize, addr, reads);
        if ok {
            lo = mid;
            best = achieved;
        } else {
            hi = mid;
        }
    }
    if lo < 0 {
        eprintln!("  no passing rung: the lowest ({:.0}/s) misses the limit", w.rung(0));
    } else {
        eprintln!("  highest passing rung: {lo} ({:.1}/s)", w.rung(lo as usize));
    }
    Ok(best)
}

pub fn run(w: &Workload, seed: u64, seconds: u64, work: &Path) -> Result<Report, String> {
    let mut ops = Ops::default();
    let run_started = Instant::now();
    let at = || run_started.elapsed().as_secs_f64();

    // Offline: dataset 0 is mined first, and its library is served.
    let mut mined_s = Vec::new();
    let mut correct = Vec::new();
    let mut precision = Vec::new();
    let mut record = |k: usize, mined: &Mined| {
        eprintln!(
            "mine dataset {k}: |U| {} |D| {} pairs {} candidates {} matches {} templates {} \
             correct {} precision {:.4} in {:.3}s (verify {:.3}s) [{:.1}s]",
            mined.dataset.u_len(),
            mined.dataset.d_len(),
            mined.result.stats.pairs_total,
            mined.result.stats.candidates,
            mined.result.matches.len(),
            mined.result.library.len(),
            mined.correct,
            mined.precision,
            mined.mine_s,
            mined.result.stats.verification_time.as_secs_f64(),
            at(),
        );
        mined_s.push(mined.mine_s);
        correct.push(mined.correct as f64);
        precision.push(mined.precision);
    };
    let mined = inputs::mine(seed, 0);
    record(0, &mined);
    let (checked, bad) = reverify(&mined, seed);
    ops.attempted += checked;
    ops.failed += bad;
    eprintln!("re-verified {checked} returned pairs: {bad} disagree");

    // Held-out inputs over the same knowledge base.
    let dataset = &mined.dataset;
    let mut seen = inputs::training_texts(dataset);
    let read_pool =
        inputs::held_out(&dataset.kb, &mut seen, read_pool_size(w, seconds), derive_seed(seed, 1));
    let ingest_questions: Vec<String> = dataset.pairs.iter().map(|p| p.question.clone()).collect();
    if read_pool.is_empty() {
        return Err("the generator produced no held-out questions".into());
    }
    eprintln!(
        "inputs: {} held-out read questions, {} training questions to replay [{:.1}s]",
        read_pool.len(),
        ingest_questions.len(),
        at()
    );

    // Two data dirs bootstrapped from the same library: one is served,
    // the other is cold-opened for `setup_s` while the served one is live.
    let config = serve_config(w);
    let data_dir = work.join("data");
    let setup_dir = work.join("setup");
    for dir in [&data_dir, &setup_dir] {
        ShardedQaServer::create(
            dir,
            copy_library(&mined.result.library),
            dataset.kb.lexicon.clone(),
            dataset.kb.triple_store(),
            SHARDS,
            1,
            config,
        )
        .map_err(|e| format!("create data dir: {e}"))?;
    }
    let time_setup = || -> Result<f64, String> {
        Ok(match w.setup {
            Setup::Generation => inputs::time_generation(seed),
            Setup::ColdOpen => {
                let started = Instant::now();
                let qa =
                    ShardedQaServer::open(&setup_dir, config).map_err(|e| format!("open: {e}"))?;
                std::hint::black_box(qa.answer(&read_pool[0].question));
                started.elapsed().as_secs_f64()
            }
        })
    };

    // Online: the served store behind HTTP. The measurement is split into
    // `DATASETS` rounds, each after mining one dataset, and each round
    // into `SLICES_PER_ROUND` slices of set-up repeats, reads and
    // ingests, so every figure samples the whole run rather than one
    // stretch of it.
    let qa = Arc::new(ShardedQaServer::open(&data_dir, config).map_err(|e| format!("open: {e}"))?);
    let mut ingest = IngestStream {
        ingestor: Ingestor::from_dataset(dataset, inputs::join_params()),
        lexicon: Arc::clone(qa.lexicon()),
        questions: ingest_questions,
        next: 0,
    };
    let handle = start_server(qa)?;
    let addr = handle.local_addr();
    let mut reads = ReadSeq::new(w.per_request, &read_pool);
    let slices = DATASETS * SLICES_PER_ROUND;
    let per_slice = (w.reference_rps * seconds as f64 / slices as f64).round() as usize;
    let mut setup = Vec::new();
    let mut latency_us = Vec::new();
    let mut late_us = Vec::new();
    let mut answered: Vec<(Vec<usize>, String)> = Vec::new();
    let mut ingest_ms = Vec::new();
    let (mut read_tally, mut ingest_tally, mut rejected, mut added) =
        (Tally::default(), Tally::default(), 0, 0);
    for slice in 0..slices {
        let round = slice / SLICES_PER_ROUND;
        if round > 0 && slice % SLICES_PER_ROUND == 0 {
            record(round, &inputs::mine(seed, round));
        }
        for _ in 0..SETUP_PER_SLICE {
            setup.push(time_setup()?);
        }
        let (requests, asked) = reads.requests(per_slice);
        let r = load::run(
            addr,
            &Phase {
                requests: &requests,
                rate: w.reference_rps,
                keep_bodies: true,
                abort_over_us: None,
            },
        );
        std::thread::sleep(Duration::from_millis(50));
        let g = load::run_ingest(addr, &mut ingest, INGESTS_PER_SLICE);
        eprintln!(
            "slice {slice} at {}/s: reads {} p50 {:.0}us | ingests {} p50 {:.2}ms | set-up {:.4}s \
             | generator late p99 {:.0}us [{:.1}s]",
            w.reference_rps,
            r.tally.describe(),
            median(&r.latency_us),
            g.tally.describe(),
            median(&g.latency_ms),
            median(&setup[setup.len() - SETUP_PER_SLICE..]),
            p99(&r.late_us),
            at()
        );
        read_tally.add(&r.tally);
        ingest_tally.add(&g.tally);
        rejected += g.rejected;
        added += g.added;
        latency_us.extend(r.latency_us);
        late_us.extend(r.late_us);
        ingest_ms.extend(g.latency_ms);
        answered.extend(r.bodies.into_iter().map(|(i, body)| (asked[i].clone(), body)));
    }
    ops.tally(&read_tally);
    ops.tally(&ingest_tally);
    let served = handle.qa().metrics();
    eprintln!(
        "reference: reads {} | ingests {} | input rejections {rejected} ({:.1}% of ingested \
         questions) | templates added {added} | cache hit ratio {:.3} | generator late p99 {:.0}us",
        read_tally.describe(),
        ingest_tally.describe(),
        100.0 * rejected as f64 / (rejected + ingest_tally.attempted).max(1) as f64,
        served.cache_hit_rate,
        p99(&late_us),
    );

    eprintln!("rate ladder (p99 limit {:.0}us) [{:.1}s]:", w.p99_limit_us, at());
    let ladder = max_rps(w, addr, &mut reads);
    let compared = compare_http(&handle, &read_pool, config, dataset.kb.triple_store(), seed);
    handle.shutdown().map_err(|e| format!("drain: {e}"))?;
    let max_rps = ladder?;
    let (checked, bad) = compared?;
    ops.attempted += checked;
    ops.failed += bad;
    eprintln!(
        "compared {checked} HTTP answers with in-process answers: {bad} disagree [{:.1}s]",
        at()
    );

    // Answer quality of the reference reads against gold answers, each
    // distinct question scored once.
    let store = dataset.kb.triple_store();
    let mut score = QaScore::new();
    let mut scored = vec![false; read_pool.len()];
    for (questions, body) in &answered {
        let parsed = parse_answers(body).filter(|a| a.len() == questions.len());
        let Some(answers) = parsed else {
            ops.failed += 1;
            eprintln!("  unparseable answer body: {body:?}");
            continue;
        };
        for (&q, answers) in questions.iter().zip(&answers) {
            if !std::mem::replace(&mut scored[q], true) {
                score.record(answers, &inputs::gold_answers(&store, &read_pool[q]));
            }
        }
    }

    let mut report = Report {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        ..Report::default()
    };
    report.push("setup_s", "s", median(&setup));
    report.push("mine_s", "s", median(&mined_s));
    report.push("mine_correct", "pairs", mean(&correct));
    report.push("mine_precision", "ratio", mean(&precision));
    report.push("answer_p50_us", "us", median(&latency_us));
    report.push("answer_f1", "ratio", score.f1());
    report.push("ingest_p50_ms", "ms", median(&ingest_ms));
    report.push("peak_rss_mb", "MB", peak_rss_mb());
    eprintln!(
        "not gated (see the benchmark README): answer p99 {:.0}us, ingest p99 {:.2}ms, max rate \
         {max_rps:.1}/s; run took {:.1}s",
        block_p99(&latency_us),
        block_p99(&ingest_ms),
        at()
    );
    Ok(report)
}
