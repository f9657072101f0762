//! `uqsj-cli` round trip over the sharded data-dir layout: `generate`,
//! `snapshot`, `serve --data-dir`, `compact`, and `serve` again must
//! print identical answer lines — the same ones an in-memory `serve
//! --dir` prints — and `serve` must refuse a non-empty directory that is
//! not a sharded data dir without touching it.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use uqsj::workload::{qald_like, DatasetConfig};

const QUESTIONS: usize = 30;
const DISTRACTORS: usize = 20;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uqsj-cli-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the CLI in `cwd` with `stdin` piped in.
fn cli(cwd: &Path, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_uqsj-cli"))
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uqsj-cli");
    // A run that fails before reading stdin closes the pipe early.
    let _ = child.stdin.take().expect("stdin").write_all(stdin.as_bytes());
    child.wait_with_output().expect("wait for uqsj-cli")
}

/// Run the CLI and require success.
fn cli_ok(cwd: &Path, args: &[&str], stdin: &str) -> String {
    let out = cli(cwd, args, stdin);
    assert!(
        out.status.success(),
        "uqsj-cli {args:?} failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The per-question answer lines of a `serve` run (tab-separated; the
/// status and metrics lines have no tabs).
fn answer_lines(stdout: &str) -> Vec<String> {
    stdout.lines().filter(|l| l.contains('\t')).map(str::to_owned).collect()
}

/// Every path under `dir`, with each file's bytes, sorted by path.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.push((path.clone(), Vec::new()));
            out.extend(tree(&path));
        } else {
            out.push((path.clone(), std::fs::read(&path).expect("read file")));
        }
    }
    out.sort();
    out
}

#[test]
fn snapshot_serve_compact_serve_round_trip() {
    let dir = scratch_dir("round-trip");
    let (q, d) = (QUESTIONS.to_string(), DISTRACTORS.to_string());
    cli_ok(&dir, &["generate", "--out-dir", "art", "--questions", &q, "--distractors", &d], "");
    // The same dataset `generate` built: its questions are the stream.
    let dataset = qald_like(&DatasetConfig {
        questions: QUESTIONS,
        distractors: DISTRACTORS,
        ..Default::default()
    });
    let stdin: String = dataset.pairs.iter().map(|p| format!("{}\n", p.question)).collect();

    cli_ok(&dir, &["snapshot", "--dir", "art", "--data-dir", "data"], "");
    assert!(dir.join("data").join("SHARDS").is_file(), "snapshot wrote no sharded data dir");
    let serve = ["serve", "--data-dir", "data", "--threads", "2"];
    let before = answer_lines(&cli_ok(&dir, &serve, &stdin));
    assert_eq!(before.len(), dataset.pairs.len(), "one answer line per question");
    assert!(
        before.iter().any(|l| !l.contains("(no template matched)")),
        "no question matched a template — the round trip is vacuous"
    );

    let compacted = cli_ok(&dir, &["compact", "--data-dir", "data"], "");
    assert!(compacted.contains("compacted data"), "{compacted}");
    let after = answer_lines(&cli_ok(&dir, &serve, &stdin));
    assert_eq!(after, before, "answers changed across compaction and restart");

    let in_memory = answer_lines(&cli_ok(&dir, &["serve", "--dir", "art"], &stdin));
    assert_eq!(in_memory, before, "durable and in-memory serving disagree");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_foreign_data_dir_and_leaves_it_untouched() {
    let dir = scratch_dir("foreign");
    let foreign = dir.join("foreign");
    std::fs::create_dir_all(foreign.join("nested")).expect("create foreign dir");
    std::fs::write(foreign.join("CURRENT"), b"0").expect("write file");
    std::fs::write(foreign.join("nested").join("notes.txt"), b"keep me").expect("write file");
    let before = tree(&foreign);

    let out = cli(&dir, &["serve", "--data-dir", "foreign", "--dir", "art"], "Who?\n");
    assert!(!out.status.success(), "serve accepted a directory with no SHARDS file");
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a sharded data dir"));
    assert_eq!(tree(&foreign), before, "serve modified the refused directory");
    let _ = std::fs::remove_dir_all(&dir);
}
