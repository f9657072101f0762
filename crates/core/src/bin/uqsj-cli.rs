//! `uqsj-cli` — file-driven access to the template pipeline.
//!
//! ```text
//! uqsj-cli generate --out-dir artifacts [--questions N] [--distractors M]
//!                   [--tau T] [--alpha A] [--seed S]
//!     Generate a synthetic workload, run the SimJ join, and write
//!     artifacts/templates.txt, artifacts/lexicon.txt, artifacts/kb.nt.
//!
//! uqsj-cli answer --dir artifacts --question "Which politician ...?"
//!                 [--min-phi F] [--bgp-eval lftj|reference]
//!     Load the artifacts and answer a question with the templates.
//!
//! uqsj-cli join [--questions N] [--distractors M] [--tau T] [--alpha A]
//!               [--strategy css|simj|opt] [--metrics-out FILE]
//!               [--trace-out FILE] [--explain N]
//!               [--simp-mode exact|sample|auto]
//!               [--epsilon E] [--delta D] [--sample-seed S]
//!     Run the join only and print per-stage statistics and the cascade
//!     plan. --explain N re-joins the first N questions one at a time
//!     and prints a per-question EXPLAIN report — the filter funnel,
//!     verification tiers, stopping reasons, and GED effort for that
//!     question alone. --metrics-out
//!     writes the process metric registry as Prometheus text to FILE and
//!     as JSON to FILE.json; --trace-out dumps the span flight recorder
//!     as a Chrome trace.
//!
//!     Sampling flags (join and generate): --simp-mode picks the SimP
//!     verification tier — exact enumeration (default), Monte-Carlo
//!     sampling with an (ε,δ) guarantee, or auto (sample only pairs whose
//!     possible-world count exceeds --sample-threshold, default 4096).
//!     --epsilon and --delta (both default 0.05) set the tolerance and
//!     failure probability; --sample-seed (default 42) makes every
//!     sampled decision replayable.
//!
//!     BGP flag (generate, answer, join, serve): --bgp-eval picks the
//!     SPARQL answer-retrieval evaluator — lftj (default), the
//!     leapfrog-triejoin worst-case-optimal join under summary-based
//!     cardinality planning, or reference, the nested-loop oracle. Both
//!     return identical answers; only cost changes.
//!
//! uqsj-cli serve [--dir artifacts | --data-dir DIR] [--shards N] [--replicas R]
//!                [--min-phi F] [--cache C] [--bgp-eval lftj|reference]
//!                [--log-out FILE|-]
//!                [--file questions.txt] [--threads N] [--metrics-out FILE]
//!                [--stats-interval N]
//!                [--listen HOST:PORT] [--workers W] [--queue-depth Q]
//!                [--deadline-ms D]
//!     Serve the templates from a sharded store (--shards, default 4).
//!     Without --data-dir the --dir artifacts are served from memory.
//!     With --data-dir, a directory holding a SHARDS file is recovered
//!     (replicated snapshot + WAL per shard); an empty or absent one is
//!     bootstrapped from the --dir artifacts with --replicas replicas
//!     per shard (default 1); any other non-empty directory is refused.
//!     --log-out installs the structured JSON log sink (FILE, or - for
//!     stderr).
//!
//!     Without --listen, answers questions (one per line, from --file or
//!     stdin) and prints one line per question — question, `#N` (the
//!     template's index in the canonical library: shard libraries
//!     concatenated in shard order), answers — then serving metrics.
//!     --threads answers in parallel; --metrics-out writes the server +
//!     process registries (Prometheus text to FILE, JSON to FILE.json);
//!     --stats-interval prints a metrics line every N questions.
//!
//!     With --listen, serves over HTTP through the uqsj-net front end
//!     until SIGINT/SIGTERM, then drains gracefully: stops accepting,
//!     finishes in-flight requests, fsyncs every shard's replica WALs.
//!
//! uqsj-cli snapshot --dir artifacts --data-dir DIR [--shards N] [--replicas R]
//!     Import text artifacts into a sharded data directory (default 4
//!     shards x 1 replica): every replica gets a fresh binary snapshot
//!     generation, and the SHARDS topology file is written last.
//!
//! uqsj-cli compact --data-dir DIR
//!     Recover a sharded data directory (snapshot + WAL replay per
//!     replica) and fold every WAL into the next snapshot generation.
//!
//! uqsj-cli conformance [--seed S] [--pairs N] [--profile quick|deep]
//!     Run the differential conformance suite: seeded boundary-biased
//!     pairs, every lower bound vs. the exact reference GED per possible
//!     world, both SimP evaluators, all six join configurations
//!     (including the forced sampling tier), the Monte-Carlo sampler vs. exact
//!     enumeration under its δ budget, and the metamorphic relations.
//!     Prints the coverage report; any violation prints the sub-seed
//!     that replays it (re-run with --seed <sub-seed> --pairs 1) and
//!     exits nonzero.
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use uqsj::pipeline::{generate_templates, join_quality};
use uqsj::prelude::*;
use uqsj::workload::DatasetConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: uqsj-cli <generate|answer|join|serve|snapshot|compact|conformance> [options]"
        );
        return ExitCode::FAILURE;
    };
    let opts = Options::parse(&args[1..]);
    match command.as_str() {
        "generate" => generate(&opts),
        "answer" => answer(&opts),
        "join" => join(&opts),
        "serve" => serve(&opts),
        "snapshot" => snapshot(&opts),
        "compact" => compact(&opts),
        "conformance" => conformance(&opts),
        other => {
            eprintln!(
                "unknown command {other:?}; expected \
                 generate|answer|join|serve|snapshot|compact|conformance"
            );
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: `--key value` pairs.
struct Options {
    pairs: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            if let Some(key) = k.strip_prefix("--") {
                if let Some(v) = it.next() {
                    pairs.push((key.to_owned(), v.clone()));
                }
            }
        }
        Self { pairs }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

/// Write a registry's Prometheus text to `path` and its JSON snapshot to
/// `path.json` (sibling file, extension appended).
fn write_metrics(registry: &uqsj::obs::Registry, path: &str) -> std::io::Result<()> {
    std::fs::write(path, registry.render_prometheus())?;
    std::fs::write(format!("{path}.json"), registry.snapshot_json())
}

/// Install the structured-log sink requested by `--log-out` (a file path,
/// or `-` for stderr). Returns false if the file could not be created.
fn install_log_sink(target: &str) -> bool {
    match target {
        "-" => {
            uqsj::obs::log::set_sink(Some(Box::new(std::io::stderr())));
            true
        }
        path => match std::fs::File::create(path) {
            Ok(f) => {
                uqsj::obs::log::set_sink(Some(Box::new(f)));
                true
            }
            Err(e) => {
                eprintln!("cannot create log file {path}: {e}");
                false
            }
        },
    }
}

fn dataset_config(opts: &Options) -> DatasetConfig {
    DatasetConfig {
        questions: opts.num("questions", 150),
        distractors: opts.num("distractors", 80),
        max_relations: opts.num("max-relations", 3),
        seed: opts.num("seed", 42),
    }
}

/// `--bgp-eval lftj|reference`: set the process-default BGP evaluator
/// (answer retrieval for generate/answer/join/serve). Returns the choice
/// so `serve` can also pin it per-server through `ServeConfig`.
fn bgp_eval(opts: &Options) -> Option<uqsj::rdf::BgpEval> {
    let raw = opts.get("bgp-eval")?;
    match uqsj::rdf::BgpEval::parse(raw) {
        Some(eval) => {
            uqsj::rdf::bgp::set_default(eval);
            Some(eval)
        }
        None => {
            eprintln!("unknown --bgp-eval {raw:?}; expected lftj|reference, using lftj");
            None
        }
    }
}

fn simp_policy(opts: &Options) -> SimpPolicy {
    let epsilon = opts.num("epsilon", 0.05);
    let delta = opts.num("delta", 0.05);
    let seed = opts.num("sample-seed", 42u64);
    let policy = match opts.get("simp-mode").unwrap_or("exact") {
        "sample" => SimpPolicy::sample(epsilon, delta, seed),
        "auto" => SimpPolicy::auto(epsilon, delta, seed),
        other => {
            if other != "exact" {
                eprintln!("unknown --simp-mode {other:?}; expected exact|sample|auto, using exact");
            }
            SimpPolicy::exact()
        }
    };
    policy.with_threshold(opts.num("sample-threshold", SimpPolicy::DEFAULT_AUTO_THRESHOLD))
}

fn join_params(opts: &Options) -> JoinParams {
    let strategy = match opts.get("strategy").unwrap_or("simj") {
        "css" => JoinStrategy::CssOnly,
        "opt" => JoinStrategy::SimJOpt { group_count: opts.num("groups", 8) },
        _ => JoinStrategy::SimJ,
    };
    JoinParams {
        tau: opts.num("tau", 1),
        alpha: opts.num("alpha", 0.7),
        strategy,
        simp: simp_policy(opts),
    }
}

fn generate(opts: &Options) -> ExitCode {
    bgp_eval(opts);
    let out_dir = PathBuf::from(opts.get("out-dir").unwrap_or("artifacts"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let dataset = uqsj::workload::qald_like(&dataset_config(opts));
    let params = join_params(opts);
    let result = generate_templates(&dataset, params);
    let (correct, precision) = join_quality(&dataset, &result.matches);
    println!(
        "join: {} pairs, {} correct (precision {:.1}%), {} templates",
        result.matches.len(),
        correct,
        precision * 100.0,
        result.library.len()
    );
    println!(
        "generate: {:.1} ms, {} generate_template calls, {} class members reused",
        result.generate_time.as_secs_f64() * 1e3,
        result.fold.generated,
        result.fold.reused
    );

    let write = |name: &str, contents: String| -> std::io::Result<()> {
        std::fs::write(out_dir.join(name), contents)
    };
    let io = write("templates.txt", uqsj::template::io::to_text(&result.library))
        .and_then(|()| write("lexicon.txt", uqsj::nlp::lexicon_io::to_text(&dataset.kb.lexicon)))
        .and_then(|()| {
            write("kb.nt", uqsj::rdf::ntriples::to_ntriples(&dataset.kb.triple_store()))
        });
    if let Err(e) = io {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote templates.txt, lexicon.txt, kb.nt to {}", out_dir.display());
    ExitCode::SUCCESS
}

fn read(dir: &Path, name: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| {
        eprintln!("cannot read {}/{name}: {e}", dir.display());
        ExitCode::FAILURE
    })
}

/// Load templates + lexicon + RDF store from a `generate` output dir.
fn load_artifacts(
    dir: &Path,
) -> Result<(uqsj::template::TemplateLibrary, uqsj::nlp::Lexicon, uqsj::rdf::TripleStore), ExitCode>
{
    let (templates, lexicon, kb) =
        match (read(dir, "templates.txt"), read(dir, "lexicon.txt"), read(dir, "kb.nt")) {
            (Ok(a), Ok(b), Ok(c)) => (a, b, c),
            _ => return Err(ExitCode::FAILURE),
        };
    let library = uqsj::template::io::from_text(&templates).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    let lexicon = uqsj::nlp::lexicon_io::from_text(&lexicon).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    let mut store = uqsj::rdf::TripleStore::new();
    uqsj::rdf::ntriples::load_str(&mut store, &kb).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    Ok((library, lexicon, store))
}

fn answer(opts: &Options) -> ExitCode {
    let Some(question) = opts.get("question") else {
        eprintln!("answer requires --question \"...\"");
        return ExitCode::FAILURE;
    };
    bgp_eval(opts);
    let dir = PathBuf::from(opts.get("dir").unwrap_or("artifacts"));
    let min_phi: f64 = opts.num("min-phi", 1.0);
    let (library, lexicon, store) = match load_artifacts(&dir) {
        Ok(x) => x,
        Err(code) => return code,
    };

    let out = uqsj::template::answer_question(&library, &lexicon, &store, question, min_phi);
    match out.sparql {
        Some(sparql) => {
            println!("template #{} (phi {:.2})", out.template_index.unwrap_or(0), out.phi);
            println!("{sparql}");
            if out.answers.is_empty() {
                println!("(no answers)");
            }
            for a in &out.answers {
                println!("{a}");
            }
            ExitCode::SUCCESS
        }
        None => {
            println!("no template matched the question");
            ExitCode::FAILURE
        }
    }
}

/// Cooperative shutdown flag raised by SIGINT/SIGTERM. On non-unix
/// targets installation is a no-op and the HTTP server runs until the
/// process is killed.
mod shutdown {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    pub fn install() {
        // Raw libc signal(2) via FFI — the workspace carries no libc
        // crate, and the handler only flips an atomic (async-signal-safe).
        extern "C" fn on_signal(_signum: i32) {
            REQUESTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

/// The server both forms of `serve` run. A `--data-dir` holding a
/// `SHARDS` file is recovered; an empty or absent one is bootstrapped
/// from the `--dir` artifacts; any other non-empty directory is refused.
/// Without `--data-dir`, the artifacts are served from memory.
fn open_server(opts: &Options, config: ServeConfig) -> Result<ShardedQaServer, ExitCode> {
    let shards: usize = opts.num("shards", 4);
    let replicas: usize = opts.num("replicas", 1);
    let artifacts = || load_artifacts(Path::new(opts.get("dir").unwrap_or("artifacts")));
    let Some(data_dir) = opts.get("data-dir") else {
        let (library, lexicon, store) = artifacts()?;
        return Ok(ShardedQaServer::new(library, lexicon, store, shards, config));
    };
    let dir = Path::new(data_dir);
    if dir.join("SHARDS").exists() {
        let qa = ShardedQaServer::open(dir, config).map_err(|e| {
            eprintln!("cannot open sharded data dir {data_dir}: {e}");
            ExitCode::FAILURE
        })?;
        println!(
            "recovered {} templates from {data_dir} ({} shards x {} replicas)",
            qa.template_count(),
            qa.shard_count(),
            qa.replica_count()
        );
        return Ok(qa);
    }
    // Only bootstrap into a fresh directory: scattering shard
    // subdirectories into some other layout would leave two stores
    // diverging in one place.
    let occupied =
        std::fs::read_dir(dir).map(|mut entries| entries.next().is_some()).unwrap_or(false);
    if occupied {
        eprintln!(
            "{data_dir} exists but is not a sharded data dir (no SHARDS file); point \
             --data-dir at a fresh directory to shard the --dir artifacts into"
        );
        return Err(ExitCode::FAILURE);
    }
    let (library, lexicon, store) = artifacts()?;
    let qa = ShardedQaServer::create(dir, library, lexicon, store, shards, replicas, config)
        .map_err(|e| {
            eprintln!("cannot bootstrap sharded data dir {data_dir}: {e}");
            ExitCode::FAILURE
        })?;
    println!(
        "bootstrapped {data_dir}: {} templates over {shards} shards x {replicas} replicas",
        qa.template_count()
    );
    Ok(qa)
}

/// `serve --listen`: the HTTP front end.
fn serve_http(opts: &Options, listen: &str, qa: ShardedQaServer) -> ExitCode {
    use std::sync::Arc;
    use std::time::Duration;
    use uqsj::net::NetConfig;

    let net = NetConfig {
        workers: opts.num("workers", 4),
        queue_depth: opts.num("queue-depth", 64),
        deadline: Duration::from_millis(opts.num("deadline-ms", 2000)),
        ..NetConfig::default()
    };
    let handle = match uqsj::net::serve(Arc::new(qa), listen, net) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "listening on http://{} ({} shards, {} workers, queue {}, deadline {}ms)",
        handle.local_addr(),
        handle.qa().shard_count(),
        net.workers,
        net.queue_depth,
        net.deadline.as_millis()
    );
    shutdown::install();
    while !shutdown::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutdown requested; draining");
    match handle.shutdown() {
        Ok(()) => {
            println!("drained: in-flight requests finished, WALs synced");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("drain failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve(opts: &Options) -> ExitCode {
    let config = ServeConfig {
        min_phi: opts.num("min-phi", 1.0),
        cache_capacity: opts.num("cache", 1024),
        bgp_eval: bgp_eval(opts),
    };
    let listen = opts.get("listen");
    let threads: usize = opts.num("threads", 1);
    if listen.is_none() && threads == 0 {
        eprintln!("--threads must be >= 1");
        return ExitCode::FAILURE;
    }
    if let Some(target) = opts.get("log-out") {
        if !install_log_sink(target) {
            return ExitCode::FAILURE;
        }
    }
    let server = match open_server(opts, config) {
        Ok(server) => server,
        Err(code) => return code,
    };
    if let Some(listen) = listen {
        return serve_http(opts, listen, server);
    }
    println!("serving {} templates (min-phi {})", server.template_count(), config.min_phi);

    let questions: Vec<String> = match opts.get("file") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text.lines().map(str::to_owned).collect(),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use std::io::BufRead;
            match std::io::stdin().lock().lines().collect::<Result<_, _>>() {
                Ok(lines) => lines,
                Err(e) => {
                    eprintln!("cannot read stdin: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let questions: Vec<String> = questions.into_iter().filter(|q| !q.trim().is_empty()).collect();
    if questions.is_empty() {
        eprintln!("no questions to serve (--file or stdin, one per line)");
        return ExitCode::FAILURE;
    }

    // --stats-interval N: answer in chunks of N questions and print a
    // metrics line after each, so a long batch shows serving counters as
    // they accumulate (0 = only the final line).
    let stats_interval: usize = opts.num("stats-interval", 0);
    let chunk = if stats_interval == 0 { questions.len() } else { stats_interval };
    let mut answers = Vec::with_capacity(questions.len());
    for slice in questions.chunks(chunk) {
        answers.extend(server.answer_batch(slice, threads));
        if stats_interval != 0 {
            println!("[stats after {}] {}", answers.len(), server.metrics());
        }
    }
    // `#N` is the chosen template's index in the canonical library (the
    // shard libraries concatenated in shard order), so it names one
    // template whatever shard answered.
    let offsets: Vec<usize> = server
        .shard_template_counts()
        .iter()
        .scan(0, |next, &count| Some(std::mem::replace(next, *next + count)))
        .collect();
    for (q, answered) in questions.iter().zip(&answers) {
        let out = &answered.outcome;
        let index = answered.shard.map_or(0, |s| offsets[s] + out.template_index.unwrap_or(0));
        match (&out.sparql, out.answers.is_empty()) {
            (None, _) => println!("{q}\t-\t(no template matched)"),
            (Some(_), true) => println!("{q}\t#{index}\t(no answers)"),
            (Some(_), false) => println!("{q}\t#{index}\t{}", out.answers.join("|")),
        }
    }
    println!("{}", server.metrics());
    if let Some(path) = opts.get("metrics-out") {
        // The serve counters live in the server's private registry; the
        // process-global one carries whatever the storage/join layers
        // recorded (e.g. WAL replay on a durable open). Expose both:
        // concatenated text (families are disjoint), nested JSON.
        let text = format!(
            "{}{}",
            server.metrics_registry().render_prometheus(),
            uqsj::obs::global().render_prometheus()
        );
        let json = format!(
            "{{\"serve\":{},\"process\":{}}}\n",
            server.metrics_registry().snapshot_json().trim_end(),
            uqsj::obs::global().snapshot_json().trim_end()
        );
        let io =
            std::fs::write(path, text).and_then(|()| std::fs::write(format!("{path}.json"), json));
        if let Err(e) = io {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote metrics to {path} (Prometheus) and {path}.json (JSON)");
    }
    uqsj::obs::log::set_sink(None);
    ExitCode::SUCCESS
}

/// Import the text artifacts of a `generate` run into a fresh sharded
/// data directory (`--shards`, default 4; `--replicas`, default 1).
fn snapshot(opts: &Options) -> ExitCode {
    let dir = PathBuf::from(opts.get("dir").unwrap_or("artifacts"));
    let Some(data_dir) = opts.get("data-dir") else {
        eprintln!("snapshot requires --data-dir DIR");
        return ExitCode::FAILURE;
    };
    let (library, lexicon, store) = match load_artifacts(&dir) {
        Ok(x) => x,
        Err(code) => return code,
    };
    let triples = store.len();
    let (shards, replicas) = (opts.num("shards", 4), opts.num("replicas", 1));
    let config = ServeConfig::default();
    match ShardedQaServer::create(
        Path::new(data_dir),
        library,
        lexicon,
        store,
        shards,
        replicas,
        config,
    ) {
        Ok(qa) => {
            println!(
                "wrote {data_dir}: {} templates over {} shards x {} replicas, {triples} triples",
                qa.template_count(),
                qa.shard_count(),
                qa.replica_count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("snapshot failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Recover a sharded data directory and fold every replica's WAL into
/// the next snapshot generation.
fn compact(opts: &Options) -> ExitCode {
    let Some(data_dir) = opts.get("data-dir") else {
        eprintln!("compact requires --data-dir DIR");
        return ExitCode::FAILURE;
    };
    let qa = match ShardedQaServer::open(Path::new(data_dir), ServeConfig::default()) {
        Ok(qa) => qa,
        Err(e) => {
            eprintln!("cannot open sharded data dir {data_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qa.compact() {
        Ok(generations) => {
            println!(
                "compacted {data_dir}: {} templates over {} shards, generations {generations:?}",
                qa.template_count(),
                qa.shard_count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compaction failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn join(opts: &Options) -> ExitCode {
    bgp_eval(opts);
    let dataset = uqsj::workload::qald_like(&dataset_config(opts));
    let params = join_params(opts);
    let (matches, stats) = sim_join(&dataset.table, &dataset.d_graphs, &dataset.u_graphs, params);
    let (correct, precision) = join_quality(&dataset, &matches);
    println!(
        "pairs {} | pruned: size {} lm {} css {} markov {} grouped {} | candidates {} ({:.2}%)",
        stats.pairs_total,
        stats.pruned_size(),
        stats.pruned_label_multiset(),
        stats.pruned_structural(),
        stats.pruned_probabilistic(),
        stats.pruned_grouped(),
        stats.candidates,
        stats.candidate_ratio() * 100.0
    );
    println!(
        "results {} | correct {} | precision {:.1}% | prune {:?} | verify {:?}",
        matches.len(),
        correct,
        precision * 100.0,
        stats.pruning_time,
        stats.verification_time
    );
    println!(
        "verifications {} ({} candidates took an identical query's verdict)",
        stats.verifications,
        stats.candidates - stats.verifications
    );
    let split = &stats.verify_split;
    println!(
        "verify split: profile {:?} | enumerate {:?} | css {:?} | search {:?}",
        split.profile, split.enumerate, split.css, split.search
    );
    println!(
        "tiers: exact {} sampled {} | worlds verified {} sampled {} | seed {}",
        stats.verified_exact,
        stats.verified_sampled,
        stats.worlds_verified,
        stats.worlds_sampled,
        params.simp.seed
    );
    println!("cascade plan: {}", uqsj::simjoin::cascade::plan(params.strategy).join(" -> "));
    let explain: usize = opts.num("explain", 0);
    if explain > 0 {
        explain_questions(&dataset, params, explain);
    }
    if let Some(path) = opts.get("metrics-out") {
        if let Err(e) = write_metrics(uqsj::obs::global(), path) {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote metrics to {path} (Prometheus) and {path}.json (JSON)");
    }
    if let Some(path) = opts.get("trace-out") {
        if let Err(e) = std::fs::write(path, uqsj::obs::trace::recorder().to_chrome_trace()) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote chrome trace to {path}");
    }
    ExitCode::SUCCESS
}

/// `join --explain N`: re-join each of the first `N` questions alone
/// against the full SPARQL workload and print one EXPLAIN report per
/// question — that question's own filter funnel, verification tiers,
/// stopping reasons, and GED effort, stamped with a fresh trace id.
fn explain_questions(dataset: &uqsj::workload::Dataset, params: JoinParams, n: usize) {
    use uqsj::serve::{JoinReport, QueryReport};

    let count = n.min(dataset.u_graphs.len());
    println!("explain: first {count} of {} questions", dataset.u_graphs.len());
    for i in 0..count {
        let ctx = uqsj::obs::RequestCtx::new().with_explain(true);
        let trace_id = ctx.trace_id.0;
        let _ctx = uqsj::obs::ctx::install(ctx);
        let started = std::time::Instant::now();
        let one = &dataset.u_graphs[i..=i];
        let (_, q_stats) = sim_join(&dataset.table, &dataset.d_graphs, one, params);
        let report = QueryReport {
            trace_id,
            question: dataset.pairs[i].question.clone(),
            total_us: started.elapsed().as_micros() as u64,
            join: Some(JoinReport::from_stats(&q_stats, params.strategy)),
            ..Default::default()
        };
        print!("{}", report.render_text());
    }
}

fn conformance(opts: &Options) -> ExitCode {
    use uqsj::testkit::{run_conformance, ConformanceConfig};
    let seed = opts.num("seed", 42u64);
    let mut cfg = match opts.get("profile").unwrap_or("quick") {
        "deep" => ConformanceConfig::deep(seed),
        "quick" => ConformanceConfig::quick(seed),
        other => {
            eprintln!("unknown profile {other:?}; expected quick|deep");
            return ExitCode::FAILURE;
        }
    };
    cfg.pairs = opts.num("pairs", cfg.pairs);
    println!("running conformance: profile {:?}, seed {seed}, {} pairs", cfg.profile, cfg.pairs);
    let report = run_conformance(&cfg);
    println!("{report}");
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
