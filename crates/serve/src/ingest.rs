//! Incremental workload ingestion: a newly arriving NL question is joined
//! against the existing SPARQL workload `D` through a `JoinIndex` built
//! once, with the ingester — one `join_one` call instead of re-running
//! the full `|D| × |U|` batch join — and the qualifying pairs become
//! templates for the live store. Processing new questions one at a time
//! in arrival order reproduces exactly the library a full batch re-join
//! over the augmented workload would build (see
//! `tests/ingest_equivalence.rs`).

use uqsj_graph::{Graph, SymbolTable};
use uqsj_nlp::semantic::AnalysisError;
use uqsj_nlp::{analyze_question, Lexicon};
use uqsj_simjoin::{GedEngine, JoinIndex, JoinMatch, JoinParams, JoinStats};
use uqsj_sparql::{SparqlQuery, Term};
use uqsj_template::{generate_template, Template, TemplateSource};
use uqsj_workload::Dataset;

/// Why a question could not be ingested.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The question's semantic analysis failed (unsupported pattern,
    /// unlinkable argument, …) — no uncertain graph, nothing to join.
    Analysis(AnalysisError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Analysis(e) => write!(f, "question analysis failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<AnalysisError> for IngestError {
    fn from(e: AnalysisError) -> Self {
        IngestError::Analysis(e)
    }
}

/// What one ingested question produced.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The uncertain-graph index stamped into `matches` (the position the
    /// question would occupy in the batch workload's `U`).
    pub g_index: usize,
    /// Qualifying `⟨q, g⟩` pairs, sorted by `q_index` — the order a batch
    /// join visits them.
    pub matches: Vec<JoinMatch>,
    /// Templates generated from the matches, in match order, *before*
    /// library deduplication.
    pub templates: Vec<Template>,
    /// Join counters for this single question (pairs_total = |D|).
    pub stats: JoinStats,
}

/// Joins newly arriving questions against a fixed SPARQL workload.
pub struct Ingestor {
    table: SymbolTable,
    /// The size window and filter summaries over `D`, which it owns.
    index: JoinIndex<'static>,
    d_queries: Vec<SparqlQuery>,
    d_terms: Vec<Vec<Term>>,
    params: JoinParams,
    next_g_index: usize,
    /// GED search workspace reused across every ingested question.
    engine: GedEngine,
}

impl Ingestor {
    /// Ingest against a dataset's `D` side; new questions are numbered
    /// after its existing `U` side.
    pub fn from_dataset(dataset: &Dataset, params: JoinParams) -> Self {
        Self::new(
            dataset.table.clone(),
            dataset.d_graphs.clone(),
            dataset.d_queries.clone(),
            dataset.d_terms.clone(),
            params,
            dataset.u_len(),
        )
    }

    /// Ingest against an explicit workload. `next_g_index` numbers the
    /// first ingested question.
    pub fn new(
        table: SymbolTable,
        d_graphs: Vec<Graph>,
        d_queries: Vec<SparqlQuery>,
        d_terms: Vec<Vec<Term>>,
        params: JoinParams,
        next_g_index: usize,
    ) -> Self {
        assert_eq!(d_graphs.len(), d_queries.len());
        assert_eq!(d_graphs.len(), d_terms.len());
        Self {
            table,
            index: JoinIndex::build_owned(d_graphs),
            d_queries,
            d_terms,
            params,
            next_g_index,
            engine: GedEngine::new(),
        }
    }

    /// Size of the SPARQL workload joined against.
    pub fn d_len(&self) -> usize {
        self.index.queries().len()
    }

    /// Analyze one new question, join its uncertain graph against `D`
    /// through the size index, and generate a template per qualifying
    /// pair. Feed `outcome.templates` to the server's `insert_templates`.
    pub fn ingest(
        &mut self,
        lexicon: &Lexicon,
        question: &str,
    ) -> Result<IngestOutcome, IngestError> {
        let analysis = analyze_question(lexicon, question)?;
        let g = analysis.uncertain_graph(&mut self.table);
        let g_index = self.next_g_index;
        self.next_g_index += 1;

        let (matches, stats) =
            self.index.join_one_with(&mut self.engine, &self.table, g_index, &g, self.params);

        let templates: Vec<Template> = matches
            .iter()
            .filter_map(|m| {
                generate_template(&TemplateSource {
                    analysis: &analysis,
                    query: &self.d_queries[m.q_index],
                    query_terms: &self.d_terms[m.q_index],
                    mapping: &m.mapping,
                    confidence: m.prob,
                })
            })
            .collect();
        // One structured line per generated template — quiet (a single
        // atomic load) unless a log sink is installed, e.g. by the CLI's
        // serve command or a test's `SharedBuf`.
        if uqsj_obs::log::enabled() {
            for t in &templates {
                uqsj_obs::log::emit(
                    &uqsj_obs::log::JsonRecord::new("template_ingested")
                        .u64("g_index", g_index as u64)
                        .str("template", &t.nl_pattern())
                        .f64("confidence", t.confidence)
                        .u64("join_candidates", stats.candidates)
                        .u64("worlds_verified", stats.worlds_verified)
                        .u64("verify_us", stats.verification_time.as_micros() as u64)
                        .finish(),
                );
            }
        }
        Ok(IngestOutcome { g_index, matches, templates, stats })
    }
}
