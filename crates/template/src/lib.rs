//! Template generation and template-based question answering — Steps 3 of
//! Sec. 2.1 and all of Sec. 2.2 of the paper.
//!
//! * [`template`] — the [`Template`] type: an NL pattern with slots, a
//!   SPARQL pattern with matching slots, and the slot correspondence
//!   (Fig. 4(d)).
//! * [`generate`] — building a template from one similar graph pair and
//!   its GED mapping.
//! * [`qa`] — answering a new question: TED-ranked template selection,
//!   slot filling by alignment, entity linking, SPARQL execution.
//! * [`baselines`] — the gAnswer-like and DEANNA-like comparison systems
//!   of Table 4.
//! * [`metrics`] — the QALD-style precision/recall/F-measure used by
//!   Tables 4 and 5.

pub mod baselines;
pub mod generate;
pub mod io;
pub mod metrics;
pub mod qa;
pub mod template;

pub use generate::{fold_templates, generate_template, ClassPair, FoldStats, TemplateSource};
pub use qa::{
    answer_across, answer_question, AnswerStats, CandidateRef, MultiAnswer, QaOutcome,
    TemplateLibrary,
};
pub use template::{SlotBinding, Template};

/// The NL slot marker (re-exported for the persistence format).
pub fn template_slot_token() -> &'static str {
    uqsj_nlp::align::SLOT_TOKEN
}
