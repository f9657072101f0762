//! The end-to-end pipeline of Fig. 1: workload → similar graph pairs →
//! templates, plus the evaluation judgments the experiments report.

use uqsj_simjoin::{JoinIndex, JoinMatch, JoinParams, JoinStats};
use uqsj_template::{generate_template, TemplateLibrary, TemplateSource};
use uqsj_workload::Dataset;

/// Everything one pipeline run produces.
pub struct PipelineResult {
    /// Qualifying graph pairs.
    pub matches: Vec<JoinMatch>,
    /// Deduplicated templates generated from the pairs.
    pub library: TemplateLibrary,
    /// Join instrumentation.
    pub stats: JoinStats,
}

/// Run the SimJ join over a dataset and build templates from every
/// qualifying pair (Steps 2 and 3 of Sec. 2.1).
///
/// The join runs on one worker per available core. Its matches come back
/// sorted by `(g_index, q_index)` whatever the thread count, so the
/// library is the one [`uqsj_simjoin::sim_join`] at one thread would
/// build. `stats` carries the summed per-pair times and, when more than
/// one worker ran, the join's wall clock in `wall_time`.
pub fn generate_templates(dataset: &Dataset, params: JoinParams) -> PipelineResult {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (matches, stats) = JoinIndex::build(&dataset.d_graphs).join(
        &dataset.table,
        &dataset.u_graphs,
        params,
        threads,
    );
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
    PipelineResult { matches, library, stats }
}

/// Join-quality judgment of Sec. 7.1.2: the number of correct returned
/// pairs `|C|` and the precision `|C| / |R|`.
pub fn join_quality(dataset: &Dataset, matches: &[JoinMatch]) -> (usize, f64) {
    let correct = matches.iter().filter(|m| dataset.pair_is_correct(m.q_index, m.g_index)).count();
    let precision = if matches.is_empty() { 0.0 } else { correct as f64 / matches.len() as f64 };
    (correct, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uqsj_workload::{qald_like, DatasetConfig};

    #[test]
    fn pipeline_produces_templates_with_decent_precision() {
        let dataset =
            qald_like(&DatasetConfig { questions: 60, distractors: 40, ..Default::default() });
        let result = generate_templates(&dataset, JoinParams::simj(1, 0.5));
        assert!(!result.matches.is_empty(), "join found no pairs");
        assert!(!result.library.is_empty(), "no templates generated");
        let (correct, precision) = join_quality(&dataset, &result.matches);
        assert!(correct > 0);
        assert!(precision > 0.5, "precision {precision} too low");
    }

    #[test]
    fn tau_zero_yields_higher_precision_fewer_matches() {
        let dataset =
            qald_like(&DatasetConfig { questions: 60, distractors: 40, ..Default::default() });
        let strict = generate_templates(&dataset, JoinParams::simj(0, 0.9));
        let loose = generate_templates(&dataset, JoinParams::simj(2, 0.9));
        assert!(strict.matches.len() <= loose.matches.len());
        let (_, p_strict) = join_quality(&dataset, &strict.matches);
        let (_, p_loose) = join_quality(&dataset, &loose.matches);
        if !strict.matches.is_empty() && !loose.matches.is_empty() {
            assert!(p_strict + 1e-9 >= p_loose, "strict {p_strict} < loose {p_loose}");
        }
    }
}
