#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-report
//!
//! Trace analytics and reporting: turns a [`nodeshare_engine::DecisionTrace`]
//! (live, or read back from its JSON form with
//! [`DecisionTrace::parse_json`]) into first-class observability
//! artifacts —
//!
//! * [`analysis`] — per-job lifecycle spans and exact step-function
//!   timelines ([`Analysis`]), with aggregates defined identically to
//!   [`nodeshare_metrics::CampaignMetrics`] (the differential suite
//!   proves them equal);
//! * [`perfetto`] — Chrome/Perfetto trace-event JSON export (node-lane
//!   tracks, decision instants, occupancy counters) for
//!   <https://ui.perfetto.dev>;
//! * [`summary`] — a markdown run report.
//!
//! Every reporter walks the engine's own [`nodeshare_engine::TraceEvent`]
//! list, so a report is the same whichever road the trace took. The
//! `nodeshare report <trace.json>` CLI subcommand and the campaign
//! orchestrator's per-cell reports are thin wrappers over
//! [`Report::from_json`] / [`Report::from_trace`].

pub mod analysis;
pub mod perfetto;
pub mod summary;

pub use analysis::{Analysis, JobSpan, StartRecord};
pub use summary::ReportOptions;

use nodeshare_engine::DecisionTrace;

/// The decision trace under its former report-side name. Kept because
/// the benchmark harness (`nsbench/`) names `TraceData::parse_json`, the
/// same way the engine keeps `run_streamed` for it.
pub type TraceData = DecisionTrace;

/// A fully derived report: analysis plus both export formats.
#[derive(Clone, Debug)]
pub struct Report {
    /// The derived analytics.
    pub analysis: Analysis,
    /// Perfetto/Chrome trace-event JSON.
    pub perfetto_json: String,
    /// Markdown run summary.
    pub markdown: String,
}

impl Report {
    /// Builds the report from a trace.
    pub fn from_trace(trace: &DecisionTrace, opts: &ReportOptions) -> Report {
        let analysis = Analysis::from_trace(trace);
        let perfetto_json = perfetto::render(trace);
        let markdown = summary::render_markdown(&analysis, opts);
        Report {
            analysis,
            perfetto_json,
            markdown,
        }
    }

    /// Builds the report from trace JSON
    /// (`nodeshare audit --trace` / campaign `trace.json` output).
    pub fn from_json(text: &str, opts: &ReportOptions) -> Result<Report, String> {
        Ok(Report::from_trace(&DecisionTrace::parse_json(text)?, opts))
    }
}
