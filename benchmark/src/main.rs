//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload mine|answer_miss --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Inputs come from `--seed` through the
//! repository's own workload generators. `--trace 0` measures every
//! end-to-end metric of `BENCHMARK.json`; `--trace 1` runs the traced
//! pass and reports every per-layer metric instead. Progress goes to
//! standard error; the last line of standard output is the result (see
//! `output.rs`). Scratch state lives under `.bench_work/` and is removed
//! on exit; the traced run writes its spans under `.bench_out/`.

mod inputs;
mod layers;
mod load;
mod output;
mod run;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.windows(2)
            .find(|w| w[0] == format!("--{key}"))
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing --{key}"))
    };
    let name = get("workload")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A run's scratch directory, removed when dropped (with `.bench_work`
/// itself once no other run is using it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let expected = match output::expected_metrics(section) {
        Ok(expected) => expected,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("benchmark: cannot create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "benchmark: workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run::nproc()
    );
    let result = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds, &work.0)
    } else {
        run::run(&args.workload, args.seed, args.seconds, &work.0)
    };
    let line = result.and_then(|report| report.render_checked(&expected));
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
