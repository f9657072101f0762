//! Per-question EXPLAIN: a structured [`QueryReport`] describing exactly
//! how one answer was produced — shard routing, cache behaviour, and a
//! per-stage funnel whose pruned counts sum back to the library size —
//! plus the [`SlowLog`] worst-N ring behind `GET /debug/slow`.
//!
//! The report is assembled from counters the pipeline already keeps
//! ([`uqsj_template::AnswerStats`], `uqsj_simjoin::JoinStats`), so
//! EXPLAIN never changes what work runs — it only snapshots the numbers
//! the metrics layer would aggregate anyway.

use parking_lot::Mutex;
use uqsj_obs::push_json_string;
use uqsj_simjoin::{JoinStats, JoinStrategy};

/// One row of a report's stage funnel: `input` items entered the stage,
/// `pruned` of them were discarded, and the stage spent `us`
/// microseconds (0 where the pipeline does not time the stage
/// separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageReport {
    /// Stage label — the same names the `stage=...` metric labels use.
    pub label: &'static str,
    /// Items entering the stage.
    pub input: u64,
    /// Items the stage discarded.
    pub pruned: u64,
    /// Microseconds spent in the stage (0 when not timed separately).
    pub us: u64,
}

/// The join-side section of a report: everything `JoinStats` knows about
/// one `join_one` call, reshaped as a funnel. Present on ingest-path
/// reports (`uqsj-cli join --explain`); absent on pure serving answers,
/// which never run the similarity join.
#[derive(Clone, Debug, Default)]
pub struct JoinReport {
    /// Pairs that entered the cascade.
    pub pairs: u64,
    /// Pairs that survived every filter.
    pub candidates: u64,
    /// Pairs verified with `SimP >= alpha`.
    pub results: u64,
    /// Per-stage pruned counts, in cascade order — sums to
    /// `pairs - candidates`.
    pub stages: Vec<StageReport>,
    /// The strategy's cascade plan, in execution order.
    pub plan: Vec<&'static str>,
    /// Verifications actually run: one per surviving class of identical
    /// queries, so `candidates - verifications` candidates took their
    /// class's verdict.
    pub verifications: u64,
    /// Verifications decided by exact enumeration.
    pub verified_exact: u64,
    /// Verifications decided by the sampling tier.
    pub verified_sampled: u64,
    /// Possible worlds on which A* ran.
    pub worlds_verified: u64,
    /// Worlds drawn by the Monte-Carlo sampler.
    pub worlds_sampled: u64,
    /// Verification decisions per confidence-sequence stopping reason.
    pub stop_reasons: Vec<(&'static str, u64)>,
    /// A* states expanded during verification.
    pub ged_expanded: u64,
    /// Microseconds spent filtering.
    pub pruning_us: u64,
    /// Microseconds spent verifying.
    pub verification_us: u64,
    /// `verification_us` by stage: building verifier state, world
    /// enumeration, the per-world CSS filter and A* — see
    /// `JoinStats::verify_split`.
    pub verify_profile_us: u64,
    /// See [`JoinReport::verify_profile_us`].
    pub verify_enumerate_us: u64,
    /// See [`JoinReport::verify_profile_us`].
    pub verify_css_us: u64,
    /// See [`JoinReport::verify_profile_us`].
    pub verify_search_us: u64,
}

impl JoinReport {
    /// Reshape one run's `JoinStats` into the report funnel, under the
    /// plan of the `strategy` the run used. Stage rows carry the stats'
    /// name-keyed pruned counters verbatim, so the report's per-stage sum
    /// always reconciles with [`JoinStats::pruned_total`].
    pub fn from_stats(stats: &JoinStats, strategy: JoinStrategy) -> Self {
        let mut entering = stats.pairs_total;
        let stages = stats
            .pruned_stages()
            .iter()
            .map(|&(label, pruned)| {
                let row = StageReport { label, input: entering, pruned, us: 0 };
                entering = entering.saturating_sub(pruned);
                row
            })
            .collect();
        Self {
            pairs: stats.pairs_total,
            candidates: stats.candidates,
            results: stats.results,
            stages,
            plan: uqsj_simjoin::cascade::plan(strategy),
            verifications: stats.verifications,
            verified_exact: stats.verified_exact,
            verified_sampled: stats.verified_sampled,
            worlds_verified: stats.worlds_verified,
            worlds_sampled: stats.worlds_sampled,
            stop_reasons: stats.stop_reasons().to_vec(),
            ged_expanded: stats.ged_expanded,
            pruning_us: stats.pruning_time.as_micros() as u64,
            verification_us: stats.verification_time.as_micros() as u64,
            verify_profile_us: stats.verify_split.profile.as_micros() as u64,
            verify_enumerate_us: stats.verify_split.enumerate.as_micros() as u64,
            verify_css_us: stats.verify_split.css.as_micros() as u64,
            verify_search_us: stats.verify_split.search.as_micros() as u64,
        }
    }
}

/// Everything EXPLAIN reports about one answered question.
#[derive(Clone, Debug, Default)]
pub struct QueryReport {
    /// The request's trace id (0 when no request context was installed);
    /// matches the `X-Request-Id` response header and keys
    /// `/debug/trace?id=`.
    pub trace_id: u64,
    /// The question as asked.
    pub question: String,
    /// Whether the answer came from the cache (the stage funnel is empty
    /// on hits — no filtering ran).
    pub cache_hit: bool,
    /// Shard holding the chosen template, if one applied.
    pub shard: Option<usize>,
    /// Shards whose signature filter left at least one candidate.
    pub shards_touched: usize,
    /// End-to-end answer latency, microseconds.
    pub total_us: u64,
    /// The serving funnel: `signature` (library -> candidates), `bound`
    /// (candidates -> examined; prunes the candidates best-first
    /// alignment never reached), `align` (examined -> aligned), `ted`
    /// (aligned -> chosen; its time includes filling and executing the
    /// tried templates). Pruned counts plus the chosen template sum back
    /// to the library size.
    pub stages: Vec<StageReport>,
    /// Exact tree-edit-distance computations spent ranking.
    pub ted_computed: u64,
    /// Answers decoded.
    pub answers: usize,
    /// Matching proportion of the chosen alignment.
    pub phi: f64,
    /// Chosen template index, local to `shard`.
    pub template_index: Option<usize>,
    /// The join-side section, on reports explaining a join run.
    pub join: Option<JoinReport>,
}

impl QueryReport {
    /// Hand-formatted single-object JSON (the workspace convention — no
    /// serde in-tree). Strings go through the shared escape helper.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        s.push_str(&format!("\"trace_id\":\"{:016x}\"", self.trace_id));
        s.push_str(",\"question\":");
        push_json_string(&mut s, &self.question);
        s.push_str(&format!(",\"cache_hit\":{}", self.cache_hit));
        match self.shard {
            Some(shard) => s.push_str(&format!(",\"shard\":{shard}")),
            None => s.push_str(",\"shard\":null"),
        }
        s.push_str(&format!(",\"shards_touched\":{}", self.shards_touched));
        s.push_str(&format!(",\"total_us\":{}", self.total_us));
        s.push_str(",\"stages\":");
        push_stages(&mut s, &self.stages);
        s.push_str(&format!(",\"ted_computed\":{}", self.ted_computed));
        s.push_str(&format!(",\"answers\":{}", self.answers));
        if self.phi.is_finite() {
            s.push_str(&format!(",\"phi\":{}", self.phi));
        } else {
            s.push_str(",\"phi\":null");
        }
        match self.template_index {
            Some(i) => s.push_str(&format!(",\"template_index\":{i}")),
            None => s.push_str(",\"template_index\":null"),
        }
        match &self.join {
            Some(j) => {
                s.push_str(",\"join\":{");
                s.push_str(&format!("\"pairs\":{}", j.pairs));
                s.push_str(&format!(",\"candidates\":{}", j.candidates));
                s.push_str(&format!(",\"results\":{}", j.results));
                s.push_str(",\"stages\":");
                push_stages(&mut s, &j.stages);
                s.push_str(",\"plan\":[");
                for (i, label) in j.plan.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_json_string(&mut s, label);
                }
                s.push(']');
                s.push_str(&format!(",\"verifications\":{}", j.verifications));
                s.push_str(&format!(",\"verified_exact\":{}", j.verified_exact));
                s.push_str(&format!(",\"verified_sampled\":{}", j.verified_sampled));
                s.push_str(&format!(",\"worlds_verified\":{}", j.worlds_verified));
                s.push_str(&format!(",\"worlds_sampled\":{}", j.worlds_sampled));
                s.push_str(",\"stop_reasons\":{");
                for (i, (label, n)) in j.stop_reasons.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_json_string(&mut s, label);
                    s.push_str(&format!(":{n}"));
                }
                s.push('}');
                s.push_str(&format!(",\"ged_expanded\":{}", j.ged_expanded));
                s.push_str(&format!(",\"pruning_us\":{}", j.pruning_us));
                s.push_str(&format!(",\"verification_us\":{}", j.verification_us));
                s.push_str(&format!(
                    ",\"verify_split_us\":{{\"profile\":{},\"enumerate\":{},\"css\":{},\"search\":{}}}",
                    j.verify_profile_us, j.verify_enumerate_us, j.verify_css_us, j.verify_search_us
                ));
                s.push('}');
            }
            None => s.push_str(",\"join\":null"),
        }
        s.push('}');
        s
    }

    /// Multi-line human rendering for `uqsj-cli join --explain`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query {:016x}  {:?}  {}us  cache={}\n",
            self.trace_id,
            self.question,
            self.total_us,
            if self.cache_hit { "hit" } else { "miss" },
        ));
        for st in &self.stages {
            out.push_str(&format!(
                "  stage {:<14} in={:<8} pruned={:<8} {}us\n",
                st.label, st.input, st.pruned, st.us
            ));
        }
        if let Some(j) = &self.join {
            out.push_str(&format!(
                "  join pairs={} candidates={} results={} plan=[{}]\n",
                j.pairs,
                j.candidates,
                j.results,
                j.plan.join(","),
            ));
            for st in &j.stages {
                out.push_str(&format!(
                    "    filter {:<14} in={:<8} pruned={:<8}\n",
                    st.label, st.input, st.pruned
                ));
            }
            out.push_str(&format!(
                "    verify runs={} exact={} sampled={} worlds={} drawn={} ged_expanded={}\n",
                j.verifications,
                j.verified_exact,
                j.verified_sampled,
                j.worlds_verified,
                j.worlds_sampled,
                j.ged_expanded
            ));
            out.push_str(&format!(
                "    verify {}us = profile {}us + enumerate {}us + css {}us + search {}us\n",
                j.verification_us,
                j.verify_profile_us,
                j.verify_enumerate_us,
                j.verify_css_us,
                j.verify_search_us
            ));
            for (label, n) in &j.stop_reasons {
                out.push_str(&format!("    stop {label}={n}\n"));
            }
        }
        out
    }
}

fn push_stages(s: &mut String, stages: &[StageReport]) {
    s.push('[');
    for (i, st) in stages.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"stage\":");
        push_json_string(s, st.label);
        s.push_str(&format!(",\"input\":{},\"pruned\":{},\"us\":{}}}", st.input, st.pruned, st.us));
    }
    s.push(']');
}

/// A bounded ring of the worst (slowest) reports seen, behind
/// `GET /debug/slow`. Admission is by `total_us`: once full, a report
/// must beat the fastest resident to enter.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    /// Sorted slowest-first; length <= capacity.
    worst: Mutex<Vec<QueryReport>>,
}

impl SlowLog {
    /// A log retaining the `capacity` slowest reports.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, worst: Mutex::new(Vec::new()) }
    }

    /// Offer one report; returns whether it was admitted.
    pub fn offer(&self, report: QueryReport) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut worst = self.worst.lock();
        if worst.len() >= self.capacity {
            match worst.last() {
                Some(fastest) if fastest.total_us >= report.total_us => return false,
                _ => {
                    worst.pop();
                }
            }
        }
        let pos = worst.partition_point(|r| r.total_us >= report.total_us);
        worst.insert(pos, report);
        true
    }

    /// Snapshot the resident reports, slowest first.
    pub fn snapshot(&self) -> Vec<QueryReport> {
        self.worst.lock().clone()
    }

    /// JSON array of the resident reports, slowest first.
    pub fn to_json(&self) -> String {
        let worst = self.worst.lock();
        let mut s = String::from("[");
        for (i, r) in worst.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(us: u64) -> QueryReport {
        QueryReport {
            trace_id: us,
            question: format!("q{us}"),
            total_us: us,
            stages: vec![StageReport { label: "signature", input: 10, pruned: 8, us: 1 }],
            ..Default::default()
        }
    }

    #[test]
    fn slow_log_keeps_the_worst_n() {
        let log = SlowLog::new(3);
        for us in [5, 1, 9, 3, 7] {
            log.offer(report(us));
        }
        let kept: Vec<u64> = log.snapshot().iter().map(|r| r.total_us).collect();
        assert_eq!(kept, vec![9, 7, 5]);
        // Too fast to displace anything.
        assert!(!log.offer(report(2)));
        assert!(log.offer(report(100)));
        let kept: Vec<u64> = log.snapshot().iter().map(|r| r.total_us).collect();
        assert_eq!(kept, vec![100, 9, 7]);
    }

    #[test]
    fn zero_capacity_log_admits_nothing() {
        let log = SlowLog::new(0);
        assert!(!log.offer(report(1)));
        assert!(log.snapshot().is_empty());
        assert_eq!(log.to_json(), "[]");
    }

    #[test]
    fn report_json_escapes_and_nests() {
        let mut r = report(4);
        r.question = "who \"starred\"?".into();
        r.join = Some(JoinReport {
            pairs: 6,
            candidates: 2,
            results: 1,
            plan: vec!["size", "css"],
            verifications: 1,
            stop_reasons: vec![("exact_only", 2)],
            verification_us: 9,
            verify_css_us: 2,
            verify_search_us: 7,
            ..Default::default()
        });
        let json = r.to_json();
        assert!(json.contains("\"question\":\"who \\\"starred\\\"?\""), "{json}");
        assert!(json.contains("\"trace_id\":\"0000000000000004\""), "{json}");
        assert!(json.contains("\"plan\":[\"size\",\"css\"]"), "{json}");
        assert!(json.contains("\"stop_reasons\":{\"exact_only\":2}"), "{json}");
        assert!(json.contains("\"verifications\":1,\"verified_exact\""), "{json}");
        assert!(
            json.contains(
                "\"verification_us\":9,\"verify_split_us\":{\"profile\":0,\"enumerate\":0,\"css\":2,\"search\":7}}"
            ),
            "{json}"
        );
        let text = r.render_text();
        assert!(
            text.contains("verify 9us = profile 0us + enumerate 0us + css 2us + search 7us"),
            "{text}"
        );
        assert!(json.contains("\"stages\":[{\"stage\":\"signature\",\"input\":10"), "{json}");
    }

    #[test]
    fn join_report_funnel_reconciles_with_stats() {
        let mut stats = JoinStats::default();
        stats.pairs_total = 20;
        stats.candidates = 5;
        stats.results = 2;
        stats.verifications = 3;
        stats.record_pruned("size", 10);
        stats.record_pruned("css", 5);
        stats.record_stop("exact_only");
        stats.ged_expanded = 33;
        stats.verify_split.search = std::time::Duration::from_micros(40);
        stats.verify_split.profile = std::time::Duration::from_micros(7);
        let j = JoinReport::from_stats(&stats, JoinStrategy::SimJ);
        assert_eq!(j.plan, ["size", "label_multiset", "css", "markov"]);
        assert_eq!(j.stages[0], StageReport { label: "size", input: 20, pruned: 10, us: 0 });
        assert_eq!(j.stages[1], StageReport { label: "css", input: 10, pruned: 5, us: 0 });
        let pruned: u64 = j.stages.iter().map(|s| s.pruned).sum();
        assert_eq!(pruned, stats.pruned_total());
        assert_eq!(j.pairs - pruned, j.candidates);
        assert_eq!(j.ged_expanded, 33);
        assert_eq!(j.verifications, 3);
        assert_eq!(j.stop_reasons, vec![("exact_only", 1)]);
        assert_eq!((j.verify_profile_us, j.verify_search_us), (7, 40));
        assert_eq!((j.verify_enumerate_us, j.verify_css_us), (0, 0));
    }
}
