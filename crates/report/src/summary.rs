//! Markdown run summaries.
//!
//! Renders an [`Analysis`] as a compact, human-first markdown report:
//! job population, wait-time percentiles, start-reason attribution
//! (head-of-queue vs backfill vs co-scheduling), sharing effects, and
//! machine utilization when the caller knows the cluster's core count
//! (the trace itself does not record cluster shape).

use crate::analysis::Analysis;
use std::fmt::Write;

/// Optional context the trace alone cannot provide.
#[derive(Clone, Debug, Default)]
pub struct ReportOptions {
    /// Report heading (defaults to "nodeshare run report").
    pub title: Option<String>,
    /// Total physical cores of the simulated machine, enabling the
    /// utilization line.
    pub total_cores: Option<u64>,
}

fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.2} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{s:.1} s")
    }
}

/// Renders the markdown report.
pub fn render_markdown(analysis: &Analysis, opts: &ReportOptions) -> String {
    let mut out = String::new();
    let title = opts.title.as_deref().unwrap_or("nodeshare run report");
    let _ = writeln!(out, "# {title}\n");

    let submitted = analysis.spans.len();
    let rejected = analysis.spans.iter().filter(|s| s.rejected).count();
    let finished = analysis.finished().count();
    let killed = analysis.finished().filter(|s| s.killed).count();
    let requeues: u32 = analysis.spans.iter().map(|s| s.requeues).sum();

    let _ = writeln!(out, "## Jobs\n");
    let _ = writeln!(
        out,
        "| submitted | finished | killed | rejected | failure requeues |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
    let _ = writeln!(
        out,
        "| {submitted} | {finished} | {killed} | {rejected} | {requeues} |\n"
    );

    let _ = writeln!(out, "## Machine\n");
    let _ = writeln!(out, "- makespan: {}", fmt_secs(analysis.makespan()));
    let _ = writeln!(
        out,
        "- busy core-seconds: {:.0}",
        analysis.busy_core_seconds()
    );
    if let Some(cores) = opts.total_cores {
        let _ = writeln!(
            out,
            "- utilization over makespan ({cores} cores): {:.1}%",
            analysis.utilization(cores) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "- peak shared nodes: {:.0}",
        analysis.shared_nodes.max_value()
    );
    let _ = writeln!(
        out,
        "- queue depth: mean {:.2}, peak {:.0}\n",
        analysis.mean_queue_depth(),
        analysis.queue_depth.max_value()
    );

    let _ = writeln!(out, "## Queue waits (finished jobs)\n");
    if finished == 0 {
        let _ = writeln!(out, "No job finished; no wait statistics.\n");
    } else {
        let w = analysis.wait_summary();
        let _ = writeln!(out, "| n | mean | p50 | p95 | p99 | max |");
        let _ = writeln!(out, "|---:|---:|---:|---:|---:|---:|");
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |\n",
            w.n,
            fmt_secs(w.mean),
            fmt_secs(analysis.wait_percentile(0.50)),
            fmt_secs(analysis.wait_percentile(0.95)),
            fmt_secs(analysis.wait_percentile(0.99)),
            fmt_secs(w.max),
        );
    }

    let _ = writeln!(out, "## Start attribution\n");
    let reasons = analysis.reason_counts();
    if reasons.is_empty() {
        let _ = writeln!(out, "No start decisions recorded.\n");
    } else {
        let total: usize = reasons.iter().map(|(_, c)| c).sum();
        let _ = writeln!(out, "| reason | starts | share |");
        let _ = writeln!(out, "|---|---:|---:|");
        for (reason, count) in &reasons {
            let _ = writeln!(
                out,
                "| {reason} | {count} | {:.1}% |",
                *count as f64 * 100.0 / total as f64
            );
        }
        let _ = writeln!(
            out,
            "\nBackfill share: {:.1}% of all starts.\n",
            analysis.backfill_share() * 100.0
        );
    }

    let _ = writeln!(out, "## Sharing\n");
    let _ = writeln!(out, "- shared-mode starts: {}", analysis.shared_starts());
    match analysis.shared_run_ratio() {
        Some(r) => {
            let _ = writeln!(
                out,
                "- mean run length, shared vs exclusive starts: {r:.2}x \
                 (co-run slowdown shows up here as > 1.0 for comparable jobs)"
            );
        }
        None => {
            let _ = writeln!(
                out,
                "- mean run length, shared vs exclusive starts: n/a \
                 (need finished jobs in both modes)"
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_engine::DecisionTrace;

    fn analysis() -> Analysis {
        Analysis::from_trace(
            &DecisionTrace::parse_json(
                r#"{"events":[
                  {"type":"submitted","t":0,"job":1,"app":0,"nodes":1,"walltime":100,"share":true},
                  {"type":"started","t":2,"job":1,"mode":"exclusive","nodes":[0],
                   "reason":"head-of-queue","idle_before":2,"partners":[]},
                  {"type":"occupancy","t":2,"busy_cores":4,"shared_nodes":0},
                  {"type":"finished","t":10,"job":1,"killed":false},
                  {"type":"occupancy","t":10,"busy_cores":0,"shared_nodes":0}
                ]}"#,
            )
            .expect("valid trace"),
        )
    }

    #[test]
    fn report_includes_all_sections() {
        let md = render_markdown(&analysis(), &ReportOptions::default());
        for needle in [
            "# nodeshare run report",
            "## Jobs",
            "## Machine",
            "## Queue waits",
            "## Start attribution",
            "## Sharing",
            "head-of-queue",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        // No cores given: no utilization line.
        assert!(!md.contains("utilization over makespan"));
    }

    #[test]
    fn options_add_title_and_utilization() {
        let md = render_markdown(
            &analysis(),
            &ReportOptions {
                title: Some("cell fcfs/saturated".to_string()),
                total_cores: Some(4),
            },
        );
        assert!(md.starts_with("# cell fcfs/saturated"));
        // 32 busy core-seconds over makespan 10 s × 4 cores = 80%.
        assert!(
            md.contains("utilization over makespan (4 cores): 80.0%"),
            "{md}"
        );
    }

    #[test]
    fn empty_analysis_renders_placeholders() {
        let md = render_markdown(
            &Analysis::from_trace(&DecisionTrace::new()),
            &ReportOptions::default(),
        );
        assert!(md.contains("No job finished"));
        assert!(md.contains("No start decisions recorded"));
    }
}
