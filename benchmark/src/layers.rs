//! The traced run (`--trace 1`): per-layer numbers, measured from the
//! outside in.
//!
//! Nothing is added inside the program. The pass calls each crate's
//! public functions itself — the same calls the untraced workload makes
//! through `generate_templates`, `Ingestor::ingest`, `answer_across` and
//! the HTTP front end, taken one at a time — and records one span per
//! call: name, start, end, parent span and question id. Spans are kept in
//! memory and written to `.bench_out/trace-<workload>-<seed>.json` when
//! the run ends. A span's layer is its name up to the first dot; the
//! bench's own per-question grouping spans are layer `load`. The run
//! reports each layer's self time (duration minus child spans) and the
//! share of the pass's wall time its spans cover.
//!
//! Counters the program already returns (`JoinStats`, `AnswerStats`,
//! `LftjStats`) are read where the call returns them. End-to-end numbers
//! always come from the untraced run.

use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uqsj::nlp::signature::NlSignature;
use uqsj::nlp::{analyze_question, tokenize};
use uqsj::prelude::*;
use uqsj::sample::seed::{derive_seed, rng_for};
use uqsj::serve::{shard_of_tokens, ShardedQaServer};
use uqsj::simjoin::JoinIndex;
use uqsj::storage::StorageEngine;
use uqsj::template::{answer_across, generate_template, CandidateRef, TemplateSource};

use crate::inputs;
use crate::load::{self, Phase};
use crate::output::Report;
use crate::run::{copy_library, serve_config, start_server, ReadSeq};
use crate::stats::{median, p99, us};
use crate::workloads::{Workload, SHARDS};

/// Candidate pairs whose verification is timed one call at a time.
const VERIFY_SAMPLE: usize = 1000;
/// Questions taken through the ingest path call by call.
const INGEST_SAMPLE: usize = 300;
/// Reads taken through the answer path call by call.
const ANSWER_SAMPLE: usize = 500;
/// Reads timed over HTTP and in process for the network overhead.
const OVERHEAD_SAMPLE: usize = 300;
/// Cold opens timed for `storage.open_s`.
const OPEN_REPEATS: usize = 5;
/// Longest HTTP phase of the traced run, seconds.
const HTTP_SECONDS: u64 = 3;

/// Join-cascade stages reported by name; the rest are summed as `other`.
const STAGES: [&str; 4] = ["size", "label_multiset", "css", "markov"];
/// Layers whose self time is reported, in span-name prefix form.
const LAYERS: [&str; 10] = [
    "workload",
    "nlp",
    "simjoin",
    "uncertain",
    "template",
    "rdf",
    "serve",
    "storage",
    "net",
    "load",
];

struct Span {
    name: &'static str,
    parent: Option<usize>,
    question: Option<u64>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder for the single-threaded traced pass.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        us(self.origin.elapsed())
    }

    fn enter(&mut self, name: &'static str, question: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_us = self.now();
        self.spans.push(Span { name, parent, question, start_us, end_us: start_us });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = self.now();
    }

    /// Run `f` inside a span; returns its value and the span's µs.
    fn time<T>(&mut self, name: &'static str, q: Option<u64>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, q);
        let value = f();
        self.exit(id);
        let s = &self.spans[id];
        (value, s.end_us - s.start_us)
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_us - s.start_us).collect()
    }

    /// Self time per layer, seconds: each span's duration minus the part
    /// its children cover (children never overlap: the pass is serial).
    fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end_us - s.start_us - child_us[i]) / 1e6;
        }
        out
    }

    /// Share of `[0, now]` covered by root spans.
    fn coverage(&self) -> f64 {
        let covered: f64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_us - s.start_us).sum();
        covered / self.now().max(1e-9)
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"question\":{}}}{}\n",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.question.map_or("null".to_owned(), |q| q.to_string()),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

pub fn run(w: &Workload, seed: u64, seconds: u64, work: &Path) -> Result<Report, String> {
    let mut tr = Tracer::new();
    let mut report = Report { correct: true, ..Report::default() };
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // workload: dataset generation (the knowledge base, the questions,
    // and their analysis).
    let (dataset, gen_us) = tr.time("workload.generate", None, || {
        webq_like(&inputs::dataset_config(inputs::dataset_seed(seed, 0)))
    });
    report.push("workload.generate_s", "s", gen_us / 1e6);

    // nlp: question analysis, one call per training question.
    let lexicon = &dataset.kb.lexicon;
    let questions: Vec<&str> = dataset
        .pairs
        .iter()
        .map(|p| p.question.as_str())
        .chain(dataset.failed.iter().map(|(p, _)| p.question.as_str()))
        .collect();
    let mut rejected = 0u64;
    for (qi, q) in questions.iter().enumerate() {
        let (result, _) =
            tr.time("nlp.analyze_question", Some(qi as u64), || analyze_question(lexicon, q));
        rejected += u64::from(result.is_err());
    }
    report.push("nlp.analyze_us", "us", median(&tr.durations_us("nlp.analyze_question")));
    report.push("nlp.rejected_ratio", "ratio", rejected as f64 / questions.len().max(1) as f64);

    // simjoin + uncertain + ged: the batch join, then template generation
    // per match (what `generate_templates` does, one call at a time).
    let params = inputs::join_params();
    let ((matches, stats), join_us) = tr.time("simjoin.sim_join", None, || {
        sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params)
    });
    let mut library = TemplateLibrary::new();
    for m in &matches {
        let source = TemplateSource {
            analysis: &dataset.analyses[m.g_index],
            query: &dataset.d_queries[m.q_index],
            query_terms: &dataset.d_terms[m.q_index],
            mapping: &m.mapping,
            confidence: m.prob,
        };
        let (t, _) = tr.time("template.generate_template", Some(m.g_index as u64), || {
            generate_template(&source)
        });
        if let Some(t) = t {
            library.add(t);
        }
    }
    let pairs = stats.pairs_total as f64;
    report.push("simjoin.pairs", "count", pairs);
    report.push("simjoin.candidate_ratio", "ratio", stats.candidates as f64 / pairs.max(1.0));
    let named: u64 = STAGES.iter().map(|s| stats.pruned_by(s)).sum();
    let all: u64 = stats.pruned_stages().iter().map(|(_, n)| n).sum();
    for stage in STAGES {
        report.push(format!("simjoin.pruned.{stage}"), "count", stats.pruned_by(stage) as f64);
    }
    report.push("simjoin.pruned.other", "count", (all - named) as f64);
    report.push("simjoin.prune_s", "s", stats.pruning_time.as_secs_f64());
    report.push("uncertain.verify_s", "s", stats.verification_time.as_secs_f64());
    let verify_share = stats.verification_time.as_secs_f64() / (join_us / 1e6);
    report.push("uncertain.verify_share", "ratio", verify_share);
    report.push("uncertain.worlds_verified", "count", stats.worlds_verified as f64);
    report.push("ged.expanded", "count", stats.ged_expanded as f64);
    report.push(
        "template.generate_us",
        "us",
        median(&tr.durations_us("template.generate_template")),
    );
    eprintln!(
        "join: {} pairs, {} candidates, {} matches, {} templates; pruned by stage {:?}",
        stats.pairs_total,
        stats.candidates,
        matches.len(),
        library.len(),
        stats.pruned_stages()
    );

    // uncertain: per-pair verification, timed around the public verify
    // call, over a seeded sample of pairs that reach verification in the
    // join: inside the size window, within τ by the CSS bound, and not
    // ruled out by the Markov bound.
    let index = JoinIndex::build(&dataset.d_graphs);
    let mut rng = rng_for(derive_seed(seed, 21));
    let mut verified = 0;
    for _ in 0..VERIFY_SAMPLE * 20 {
        if verified == VERIFY_SAMPLE {
            break;
        }
        let gi = rng.gen_range(0..dataset.u_len());
        let g = &dataset.u_graphs[gi];
        let window: Vec<usize> =
            index.candidates(g.vertex_count() as u32, g.edge_count() as u32, inputs::TAU).collect();
        if window.is_empty() {
            continue;
        }
        let q = &dataset.d_graphs[window[rng.gen_range(0..window.len())]];
        if lb_ged_css_uncertain(&dataset.table, q, g) > inputs::TAU
            || ub_simp(&dataset.table, q, g, inputs::TAU) < inputs::ALPHA
        {
            continue;
        }
        verified += 1;
        tr.time("uncertain.verify_simp", Some(gi as u64), || {
            verify_simp(&dataset.table, q, g, inputs::TAU, inputs::ALPHA)
        });
    }
    report.push("uncertain.verify_us_p99", "us", p99(&tr.durations_us("uncertain.verify_simp")));

    // rdf: index build over the knowledge base's triples.
    let mut store = uqsj::rdf::TripleStore::new();
    for e in &dataset.kb.entities {
        store.insert(&e.name, "type", &e.class);
    }
    for (s, p, o) in &dataset.kb.facts {
        store.insert(s, p, o);
    }
    let ((), build_us) = tr.time("rdf.ensure_indexes", None, || store.ensure_indexes());
    report.push("rdf.index_build_ms", "ms", build_us / 1e3);

    // storage + serve: bootstrap the data dir, then cold opens.
    let config = serve_config(w);
    let data_dir = work.join("data");
    let (created, _) = tr.time("serve.create", None, || {
        ShardedQaServer::create(
            &data_dir,
            copy_library(&library),
            lexicon.clone(),
            dataset.kb.triple_store(),
            SHARDS,
            1,
            config,
        )
    });
    drop(created.map_err(|e| format!("create data dir: {e}"))?);
    let mut open_s = Vec::new();
    for _ in 0..OPEN_REPEATS {
        let outer = tr.enter("load.cold_open", None);
        for shard in 0..SHARDS {
            let dir = data_dir.join(format!("shard-{shard:04}")).join("replica-00");
            let (opened, _) = tr.time("storage.open", None, || StorageEngine::open(&dir));
            opened.map_err(|e| format!("open {}: {e}", dir.display()))?;
        }
        tr.exit(outer);
        open_s.push(tr.durations_us("load.cold_open").last().copied().unwrap_or(0.0) / 1e6);
    }
    report.push("storage.open_s", "s", median(&open_s));

    // Held-out questions for the read and ingest paths.
    let mut seen = inputs::training_texts(&dataset);
    let http_reads = (w.reference_rps * HTTP_SECONDS as f64) as usize;
    let pool_size = ANSWER_SAMPLE + OVERHEAD_SAMPLE + http_reads * w.per_request;
    let read_pool = inputs::held_out(&dataset.kb, &mut seen, pool_size, derive_seed(seed, 1));

    // Ingest path, call by call, over replayed training questions as in
    // the untraced run: analysis, index build, join, template generation,
    // then the store insert and the WAL append of the batch.
    let ingest_server = ShardedQaServer::new(
        copy_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        SHARDS,
        config,
    );
    let (mut wal, _) =
        StorageEngine::open(&work.join("wal-probe")).map_err(|e| format!("open WAL probe: {e}"))?;
    let mut table = dataset.table.clone();
    let mut ingest_rejected = 0u64;
    let ingest_questions = dataset.pairs.iter().map(|p| p.question.as_str());
    for (i, q) in ingest_questions.take(INGEST_SAMPLE).enumerate() {
        let qid = Some(i as u64);
        let outer = tr.enter("load.ingest", qid);
        let (analysis, _) = tr.time("nlp.analyze_question", qid, || analyze_question(lexicon, q));
        let Ok(analysis) = analysis else {
            ingest_rejected += 1;
            tr.exit(outer);
            continue;
        };
        let g = analysis.uncertain_graph(&mut table);
        let (index, _) =
            tr.time("simjoin.index_build", qid, || JoinIndex::build(&dataset.d_graphs));
        let g_index = dataset.u_len() + i;
        let ((found, _), _) =
            tr.time("simjoin.join_one", qid, || index.join_one(&table, g_index, &g, params));
        let mut batch = Vec::new();
        for m in &found {
            let source = TemplateSource {
                analysis: &analysis,
                query: &dataset.d_queries[m.q_index],
                query_terms: &dataset.d_terms[m.q_index],
                mapping: &m.mapping,
                confidence: m.prob,
            };
            let (t, _) = tr.time("template.generate_template", qid, || generate_template(&source));
            batch.extend(t);
        }
        let (appended, _) =
            tr.time("storage.append_templates", qid, || wal.append_templates(&batch));
        appended.map_err(|e| format!("WAL append: {e}"))?;
        let (added, _) = tr.time("serve.insert_templates", qid, || {
            ingest_server.insert_templates(batch.iter().cloned())
        });
        added.map_err(|e| format!("insert: {e}"))?;
        tr.exit(outer);
    }
    report.push("simjoin.index_build_us", "us", median(&tr.durations_us("simjoin.index_build")));
    let join_one = tr.durations_us("simjoin.join_one");
    report.push("simjoin.join_one_us_p50", "us", median(&join_one));
    report.push("simjoin.join_one_us_p99", "us", p99(&join_one));
    report.push("storage.append_us", "us", median(&tr.durations_us("storage.append_templates")));
    report.push("serve.insert_us", "us", median(&tr.durations_us("serve.insert_templates")));
    eprintln!(
        "ingest path: {} questions, {ingest_rejected} rejected by analysis",
        INGEST_SAMPLE.min(dataset.pairs.len())
    );

    // Answer path, call by call, over the workload's own read sequence
    // against shard stores partitioned as the server partitions them.
    let mut shards: Vec<TemplateLibrary> = (0..SHARDS).map(|_| TemplateLibrary::new()).collect();
    for t in library.templates() {
        shards[shard_of_tokens(&t.nl_tokens, SHARDS)].add(t.clone());
    }
    let stores: Vec<uqsj::serve::TemplateStore> =
        shards.iter().map(|l| uqsj::serve::TemplateStore::from_library(copy_library(l))).collect();
    let libraries: Vec<&TemplateLibrary> = stores.iter().map(|s| s.library()).collect();
    let triples = dataset.kb.triple_store();
    let mut reads = ReadSeq::new(w.per_request, &read_pool);
    let seq = reads.take(ANSWER_SAMPLE);
    let (mut examined, mut aligned, mut ted_calls, mut seeks, mut candidates_total) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, &qi) in seq.iter().enumerate() {
        let qid = Some(i as u64);
        let question = read_pool[qi].question.as_str();
        let outer = tr.enter("load.answer", qid);
        let (tokens, _) = tr.time("nlp.parse", qid, || {
            let tokens = tokenize(question);
            std::hint::black_box(uqsj::nlp::deptree::parse_dependency_tokens(&tokens));
            tokens
        });
        let (candidates, _) = tr.time("serve.signature", qid, || {
            let sig = NlSignature::of_tokens(&tokens);
            let mut out = Vec::new();
            for (si, store) in stores.iter().enumerate() {
                out.extend(
                    store
                        .candidates(&sig, w.min_phi)
                        .into_iter()
                        .map(|index| CandidateRef { library: si, index }),
                );
            }
            out
        });
        candidates_total += candidates.len() as u64;
        let ((answer, answer_stats), _) = tr.time("template.answer_across", qid, || {
            answer_across(&libraries, candidates, lexicon, &triples, question, w.min_phi)
        });
        examined += answer_stats.candidates_examined as u64;
        aligned += answer_stats.candidates_aligned as u64;
        ted_calls += answer_stats.ted_computed as u64;
        if let Some(sparql) = &answer.outcome.sparql {
            tr.time("rdf.bgp_evaluate", qid, || uqsj::rdf::bgp::evaluate(&triples, sparql));
            let ((_, lftj), _) = tr.time("rdf.lftj_solutions", qid, || {
                uqsj::rdf::lftj::solutions_stats(&triples, sparql)
            });
            seeks += lftj.seeks;
        }
        tr.exit(outer);
    }
    let n = seq.len().max(1) as f64;
    report.push("nlp.parse_us", "us", median(&tr.durations_us("nlp.parse")));
    report.push("serve.signature_us", "us", median(&tr.durations_us("serve.signature")));
    report.push("serve.candidates_per_q", "count", candidates_total as f64 / n);
    report.push(
        "serve.signature_pruned_ratio",
        "ratio",
        1.0 - candidates_total as f64 / (n * library.len().max(1) as f64),
    );
    report.push("nlp.align_calls_per_q", "count", examined as f64 / n);
    report.push("template.aligned_per_q", "count", aligned as f64 / n);
    report.push("nlp.ted_calls_per_q", "count", ted_calls as f64 / n);
    let rank = tr.durations_us("template.answer_across");
    report.push("template.rank_us_p50", "us", median(&rank));
    report.push("template.rank_us_p99", "us", p99(&rank));
    let bgp = tr.durations_us("rdf.bgp_evaluate");
    report.push("rdf.bgp_us_p50", "us", median(&bgp));
    report.push("rdf.bgp_us_p99", "us", p99(&bgp));
    report.push("rdf.trie_seeks_per_q", "count", seeks as f64 / n);

    // serve: in-process answers on a fresh server, over the same reads.
    let fresh = ShardedQaServer::new(
        copy_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        SHARDS,
        config,
    );
    for (i, &qi) in seq.iter().enumerate() {
        tr.time("serve.answer_explained", Some(i as u64), || {
            fresh.answer_explained(&read_pool[qi].question)
        });
    }
    let answer_us = tr.durations_us("serve.answer_explained");
    report.push("serve.answer_us_p50", "us", median(&answer_us));
    report.push("serve.answer_us_p99", "us", p99(&answer_us));

    // net: the same questions asked in process and over HTTP on one
    // connection, each against a fresh server, one question at a time in
    // alternating order so both see the same machine; the overhead is the
    // median per-question difference.
    let overhead_seq = reads.take(OVERHEAD_SAMPLE);
    let in_process = ShardedQaServer::new(
        copy_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        SHARDS,
        config,
    );
    let handle = start_server(Arc::new(ShardedQaServer::new(
        copy_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        SHARDS,
        config,
    )))?;
    let mut client = uqsj::net::Client::connect(handle.local_addr(), Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    let mut overhead_us = Vec::new();
    for (i, &qi) in overhead_seq.iter().enumerate() {
        let question = &read_pool[qi].question;
        let body = load::answer_body(question);
        let local = || {
            let started = Instant::now();
            std::hint::black_box(in_process.answer(question));
            us(started.elapsed())
        };
        let local_first = i % 2 == 0;
        let before = if local_first { local() } else { 0.0 };
        let (response, http_us) =
            tr.time("net.request", Some(i as u64), || client.post("/v1/answer", &body));
        let local_us = if local_first { before } else { local() };
        overhead_us.push(http_us - local_us);
        attempted += 1;
        if !response.is_ok_and(|r| r.status == 200) {
            failed += 1;
        }
    }
    drop(client);
    handle.shutdown().map_err(|e| format!("drain: {e}"))?;
    report.push("net.overhead_us", "us", median(&overhead_us));

    // load: a short open-loop phase at the reference rate, for the read
    // p99 and the generator's lateness.
    let handle = start_server(Arc::new(ShardedQaServer::new(
        copy_library(&library),
        lexicon.clone(),
        dataset.kb.triple_store(),
        SHARDS,
        config,
    )))?;
    let http_seconds = seconds.min(HTTP_SECONDS);
    let (requests, _) = reads.requests((w.reference_rps * http_seconds as f64) as usize);
    let outer = tr.enter("load.http_phase", None);
    let r = load::run(
        handle.local_addr(),
        &Phase {
            requests: &requests,
            rate: w.reference_rps,
            keep_bodies: false,
            abort_over_us: None,
        },
    );
    tr.exit(outer);
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown().map_err(|e| format!("drain: {e}"))?;
    attempted += r.tally.attempted;
    failed += r.tally.failed();
    report.push("load.answer_p99_us", "us", p99(&r.latency_us));
    report.push("load.late_us_p99", "us", p99(&r.late_us));

    // Where the pass's time went.
    let self_s = tr.self_time_s();
    for layer in LAYERS {
        report.push(
            format!("trace.self_s.{layer}"),
            "s",
            self_s.get(layer).copied().unwrap_or(0.0),
        );
    }
    report.push("trace.coverage", "ratio", tr.coverage());
    eprintln!("self time by layer (s): {self_s:.3?}; coverage {:.3}", tr.coverage());
    let path = Path::new(".bench_out").join(format!("trace-{}-{seed}.json", w.name));
    tr.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", tr.spans.len(), path.display());

    report.attempted = attempted.max(1);
    report.failed = failed;
    report.correct = failed == 0;
    Ok(report)
}
