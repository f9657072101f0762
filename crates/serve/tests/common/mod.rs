//! Shared test scaffolding: unique scratch directories, the offline
//! library the servers start from, and the outcome comparison every
//! equivalence test makes.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use uqsj_simjoin::{sim_join, JoinParams};
use uqsj_template::{generate_template, QaOutcome, TemplateLibrary, TemplateSource};
use uqsj_workload::Dataset;

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory under the system temp dir, unique per test
/// and per process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("uqsj-serve-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The offline pipeline (join + template generation, as
/// `uqsj::pipeline` runs it) over the first `n` questions.
pub fn batch_library(dataset: &Dataset, n: usize, params: JoinParams) -> TemplateLibrary {
    let u = &dataset.u_graphs[..n.min(dataset.u_graphs.len())];
    let (matches, _) = sim_join(&dataset.table, &dataset.d_graphs, u, params);
    let mut library = TemplateLibrary::new();
    for m in &matches {
        let source = TemplateSource {
            analysis: &dataset.analyses[m.g_index],
            query: &dataset.d_queries[m.q_index],
            query_terms: &dataset.d_terms[m.q_index],
            mapping: &m.mapping,
            confidence: m.prob,
        };
        if let Some(t) = generate_template(&source) {
            library.add(t);
        }
    }
    library
}

/// A copy of `library`, template for template.
pub fn clone_library(library: &TemplateLibrary) -> TemplateLibrary {
    let mut clone = TemplateLibrary::new();
    for t in library.templates() {
        clone.add(t.clone());
    }
    clone
}

/// Whether two outcomes agree on SPARQL, answers, and φ.
pub fn same_outcome(a: &QaOutcome, b: &QaOutcome) -> bool {
    a.sparql.as_ref().map(ToString::to_string) == b.sparql.as_ref().map(ToString::to_string)
        && a.answers == b.answers
        && (a.phi - b.phi).abs() < 1e-12
}

/// Assert two outcomes agree on SPARQL, answers, template, and φ.
pub fn assert_same_outcome(got: &QaOutcome, want: &QaOutcome, context: &str) {
    assert_eq!(
        got.sparql.as_ref().map(ToString::to_string),
        want.sparql.as_ref().map(ToString::to_string),
        "sparql diverged: {context}"
    );
    assert_eq!(got.answers, want.answers, "answers diverged: {context}");
    assert_eq!(got.template_index, want.template_index, "template diverged: {context}");
    assert!((got.phi - want.phi).abs() < 1e-12, "phi diverged: {context}");
}
