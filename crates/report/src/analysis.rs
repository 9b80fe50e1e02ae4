//! Derived analytics over a decision trace.
//!
//! [`Analysis::from_trace`] folds the flat event list into per-job
//! lifecycle spans (submit → start(s) → finish, with queue-wait and the
//! policy's start-reason attribution) and exact step-function timelines
//! (busy cores, shared nodes, queue depth). The aggregate accessors
//! mirror [`nodeshare_metrics::CampaignMetrics`] definitions — the
//! differential suite proves the trace-derived numbers against the
//! engine's own records, so a report built from a JSON file on disk can
//! be trusted like one built in-process.

use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_engine::{DecisionTrace, StartReason, TraceEvent};
use nodeshare_metrics::{percentile_sorted, StepSeries, Summary};
use std::collections::BTreeMap;

/// One start decision within a job's lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub struct StartRecord {
    /// Start time.
    pub t: f64,
    /// True for a shared-mode allocation.
    pub shared: bool,
    /// The policy's justification.
    pub reason: StartReason,
    /// Granted nodes.
    pub nodes: Vec<NodeId>,
}

/// A job's full lifecycle, reconstructed from the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpan {
    /// Job id.
    pub job: JobId,
    /// Application id.
    pub app: u64,
    /// Requested node count.
    pub nodes_requested: u32,
    /// Submission time.
    pub submit: f64,
    /// True when rejected at submission as unsatisfiable.
    pub rejected: bool,
    /// Every start, in order — more than one after failure requeues.
    pub starts: Vec<StartRecord>,
    /// Finish time, when the job completed.
    pub finish: Option<f64>,
    /// True when the engine killed it at the walltime bound.
    pub killed: bool,
    /// Node-failure evictions suffered.
    pub requeues: u32,
    /// Width reshapes applied while running (malleable jobs only).
    pub reshapes: u32,
}

impl JobSpan {
    /// Queue wait: final start − submit (matching
    /// [`nodeshare_metrics::JobRecord::wait`], where restarts reset the
    /// clock). `None` until the job starts.
    pub fn wait(&self) -> Option<f64> {
        self.starts.last().map(|s| s.t - self.submit)
    }

    /// Wall time of the final (successful) run attempt.
    pub fn run(&self) -> Option<f64> {
        match (self.starts.last(), self.finish) {
            (Some(s), Some(f)) => Some(f - s.t),
            _ => None,
        }
    }

    /// True when the job ran to completion (including walltime kills).
    pub fn finished(&self) -> bool {
        self.finish.is_some()
    }
}

/// Everything the reporters need, derived from one trace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Per-job lifecycle spans, in job-id order.
    pub spans: Vec<JobSpan>,
    /// Busy physical cores over time (from the engine's occupancy
    /// events).
    pub busy_cores: StepSeries,
    /// Nodes hosting two or more jobs, over time.
    pub shared_nodes: StepSeries,
    /// Waiting-job count over time (submissions enter, rejections and
    /// starts leave, failure requeues re-enter).
    pub queue_depth: StepSeries,
    /// Time of the last trace event.
    pub end_time: f64,
}

impl Analysis {
    /// Folds a trace into spans and timelines.
    pub fn from_trace(trace: &DecisionTrace) -> Analysis {
        let mut spans: BTreeMap<JobId, JobSpan> = BTreeMap::new();
        let mut busy_cores = StepSeries::new();
        let mut shared_nodes = StepSeries::new();
        let mut queue_depth = StepSeries::new();
        let mut depth: i64 = 0;

        fn span(spans: &mut BTreeMap<JobId, JobSpan>, job: JobId, t: f64) -> &mut JobSpan {
            spans.entry(job).or_insert_with(|| JobSpan {
                job,
                app: 0,
                nodes_requested: 0,
                submit: t,
                rejected: false,
                starts: Vec::new(),
                finish: None,
                killed: false,
                requeues: 0,
                reshapes: 0,
            })
        }

        for e in trace.events() {
            match e {
                TraceEvent::Submitted {
                    time,
                    job,
                    app,
                    nodes,
                    ..
                } => {
                    let s = span(&mut spans, *job, *time);
                    s.submit = *time;
                    s.app = u64::from(app.0);
                    s.nodes_requested = *nodes;
                    depth += 1;
                    queue_depth.record(*time, depth as f64);
                }
                TraceEvent::Rejected { time, job } => {
                    span(&mut spans, *job, *time).rejected = true;
                    depth -= 1;
                    queue_depth.record(*time, depth as f64);
                }
                TraceEvent::Started {
                    time,
                    job,
                    mode,
                    nodes,
                    reason,
                    ..
                } => {
                    span(&mut spans, *job, *time).starts.push(StartRecord {
                        t: *time,
                        shared: *mode == ShareMode::Shared,
                        reason: *reason,
                        nodes: nodes.clone(),
                    });
                    depth -= 1;
                    queue_depth.record(*time, depth as f64);
                }
                TraceEvent::Finished { time, job, killed } => {
                    let s = span(&mut spans, *job, *time);
                    s.finish = Some(*time);
                    s.killed = *killed;
                }
                TraceEvent::Requeued { time, job, .. } => {
                    span(&mut spans, *job, *time).requeues += 1;
                    depth += 1;
                    queue_depth.record(*time, depth as f64);
                }
                TraceEvent::Reshape { time, job, .. } => {
                    span(&mut spans, *job, *time).reshapes += 1;
                }
                TraceEvent::Occupancy {
                    time,
                    busy_cores: bc,
                    shared_nodes: sn,
                } => {
                    busy_cores.record(*time, *bc as f64);
                    shared_nodes.record(*time, *sn as f64);
                }
                TraceEvent::NodeDown { .. } | TraceEvent::NodeUp { .. } => {}
            }
        }

        Analysis {
            spans: spans.into_values().collect(),
            busy_cores,
            shared_nodes,
            queue_depth,
            end_time: trace.end_time(),
        }
    }

    /// Spans of jobs that ran to completion (the population
    /// [`nodeshare_metrics::CampaignMetrics`] builds its records from).
    pub fn finished(&self) -> impl Iterator<Item = &JobSpan> {
        self.spans.iter().filter(|s| s.finished())
    }

    /// Campaign makespan: last finish − first submit, over finished jobs
    /// (0 when none finished).
    pub fn makespan(&self) -> f64 {
        let mut first_submit = f64::INFINITY;
        let mut last_finish = f64::NEG_INFINITY;
        for s in self.finished() {
            first_submit = first_submit.min(s.submit);
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            last_finish = last_finish.max(s.finish.expect("finished"));
        }
        if last_finish.is_finite() {
            last_finish - first_submit
        } else {
            0.0
        }
    }

    /// Integrated busy core-seconds (exact step integration of the
    /// trace's occupancy events over the whole run).
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy_cores.integral(0.0, self.end_time)
    }

    /// Mean core utilization over the makespan, given the machine's
    /// core count — the trace does not record cluster size, so the
    /// caller supplies it (or skips utilization in reports).
    pub fn utilization(&self, total_cores: u64) -> f64 {
        let denom = self.makespan() * total_cores as f64;
        if denom > 0.0 {
            self.busy_core_seconds() / denom
        } else {
            0.0
        }
    }

    /// Queue waits of finished jobs, ascending.
    pub fn sorted_waits(&self) -> Vec<f64> {
        let mut waits: Vec<f64> = self.finished().filter_map(JobSpan::wait).collect();
        waits.sort_by(f64::total_cmp);
        waits
    }

    /// Queue-wait summary over finished jobs — same population and
    /// definition as `CampaignMetrics::wait`.
    pub fn wait_summary(&self) -> Summary {
        Summary::of(&self.sorted_waits())
    }

    /// A wait-time percentile (0 when no job finished).
    pub fn wait_percentile(&self, q: f64) -> f64 {
        let waits = self.sorted_waits();
        if waits.is_empty() {
            0.0
        } else {
            percentile_sorted(&waits, q)
        }
    }

    /// Start counts per policy justification label, label-sorted.
    pub fn reason_counts(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.spans {
            for st in &s.starts {
                *counts.entry(st.reason.label()).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Fraction of starts the policy justified as backfill.
    pub fn backfill_share(&self) -> f64 {
        let total: usize = self.spans.iter().map(|s| s.starts.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let backfilled: usize = self
            .spans
            .iter()
            .flat_map(|s| &s.starts)
            .filter(|st| st.reason == StartReason::Backfilled)
            .count();
        backfilled as f64 / total as f64
    }

    /// Number of shared-mode starts.
    pub fn shared_starts(&self) -> usize {
        self.spans
            .iter()
            .flat_map(|s| &s.starts)
            .filter(|st| st.shared)
            .count()
    }

    /// Mean slowdown of the final run attempt relative to the user's
    /// walltime estimate is not derivable from the trace (true exclusive
    /// runtimes are not recorded), but sharing-induced *run-length*
    /// contrast is: mean run seconds of shared-start jobs over mean run
    /// seconds of exclusive-start jobs (`None` when either side is
    /// empty).
    pub fn shared_run_ratio(&self) -> Option<f64> {
        let mut shared = Vec::new();
        let mut exclusive = Vec::new();
        for s in self.finished() {
            if let (Some(run), Some(last)) = (s.run(), s.starts.last()) {
                if last.shared {
                    shared.push(run);
                } else {
                    exclusive.push(run);
                }
            }
        }
        if shared.is_empty() || exclusive.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        Some(mean(&shared) / mean(&exclusive))
    }

    /// Time-weighted mean queue depth over the run (0 for empty traces).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.end_time > 0.0 {
            self.queue_depth.integral(0.0, self.end_time) / self.end_time
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> DecisionTrace {
        DecisionTrace::parse_json(
            r#"{"events":[
              {"type":"submitted","t":0,"job":1,"app":0,"nodes":1,"walltime":100,"share":true},
              {"type":"submitted","t":1,"job":2,"app":1,"nodes":2,"walltime":100,"share":true},
              {"type":"submitted","t":2,"job":3,"app":0,"nodes":9,"walltime":100,"share":false},
              {"type":"rejected","t":2,"job":3},
              {"type":"started","t":2,"job":1,"mode":"exclusive","nodes":[0],
               "reason":"head-of-queue","idle_before":2,"partners":[]},
              {"type":"occupancy","t":2,"busy_cores":4,"shared_nodes":0},
              {"type":"started","t":3,"job":2,"mode":"shared","nodes":[0,1],
               "reason":"co-scheduled","idle_before":1,"partners":[{"node":0,"job":1}]},
              {"type":"occupancy","t":3,"busy_cores":12,"shared_nodes":1},
              {"type":"finished","t":10,"job":1,"killed":false},
              {"type":"occupancy","t":10,"busy_cores":8,"shared_nodes":0},
              {"type":"finished","t":20,"job":2,"killed":false},
              {"type":"occupancy","t":20,"busy_cores":0,"shared_nodes":0}
            ]}"#,
        )
        .expect("valid trace")
    }

    #[test]
    fn spans_capture_lifecycles() {
        let a = Analysis::from_trace(&trace());
        assert_eq!(a.spans.len(), 3);
        let j1 = &a.spans[0];
        assert_eq!(j1.job, JobId(1));
        assert_eq!(j1.wait(), Some(2.0));
        assert_eq!(j1.run(), Some(8.0));
        assert!(!j1.starts[0].shared);
        let j3 = &a.spans[2];
        assert!(j3.rejected);
        assert!(j3.starts.is_empty());
        assert_eq!(a.finished().count(), 2);
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let a = Analysis::from_trace(&trace());
        // Makespan: first submit of finished jobs (0) → last finish (20).
        assert_eq!(a.makespan(), 20.0);
        // Busy: 4×1 + 12×7 + 8×10 = 168 core-seconds.
        assert!((a.busy_core_seconds() - 168.0).abs() < 1e-9);
        assert!((a.utilization(16) - 168.0 / (20.0 * 16.0)).abs() < 1e-12);
        // Waits 2 and 2 → all percentiles 2.
        assert_eq!(a.wait_percentile(0.5), 2.0);
        assert_eq!(a.wait_summary().n, 2);
        assert_eq!(a.shared_starts(), 1);
        assert_eq!(
            a.reason_counts(),
            vec![
                ("co-scheduled".to_string(), 1),
                ("head-of-queue".to_string(), 1)
            ]
        );
        assert_eq!(a.backfill_share(), 0.0);
        // Shared job ran 17 s, exclusive 8 s.
        let ratio = a.shared_run_ratio().expect("both modes present");
        assert!((ratio - 17.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn queue_depth_tracks_submissions_starts_and_rejects() {
        let a = Analysis::from_trace(&trace());
        assert_eq!(a.queue_depth.value_at(0.0), 1.0);
        assert_eq!(a.queue_depth.value_at(1.0), 2.0);
        // t=2: submit(+1) reject(−1) start(−1) → 1.
        assert_eq!(a.queue_depth.value_at(2.0), 1.0);
        assert_eq!(a.queue_depth.value_at(3.0), 0.0);
        assert!(a.mean_queue_depth() > 0.0);
    }

    #[test]
    fn requeues_reset_the_wait_clock() {
        let a = Analysis::from_trace(
            &DecisionTrace::parse_json(
                r#"{"events":[
                  {"type":"submitted","t":0,"job":1,"app":0,"nodes":1,"walltime":50,"share":false},
                  {"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
                   "reason":"head-of-queue","idle_before":1,"partners":[]},
                  {"type":"node_down","t":5,"node":0,"cause":"failed"},
                  {"type":"requeued","t":5,"job":1,"node":0},
                  {"type":"node_up","t":8,"node":0},
                  {"type":"started","t":8,"job":1,"mode":"exclusive","nodes":[0],
                   "reason":"head-of-queue","idle_before":1,"partners":[]},
                  {"type":"finished","t":18,"job":1,"killed":false}
                ]}"#,
            )
            .expect("valid trace"),
        );
        let j = &a.spans[0];
        assert_eq!(j.requeues, 1);
        assert_eq!(j.starts.len(), 2);
        // Wait is measured to the FINAL start, like JobRecord::wait.
        assert_eq!(j.wait(), Some(8.0));
        assert_eq!(j.run(), Some(10.0));
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let a = Analysis::from_trace(&DecisionTrace::new());
        assert_eq!(a.makespan(), 0.0);
        assert_eq!(a.busy_core_seconds(), 0.0);
        assert_eq!(a.utilization(16), 0.0);
        assert_eq!(a.wait_percentile(0.99), 0.0);
        assert_eq!(a.mean_queue_depth(), 0.0);
        assert_eq!(a.shared_run_ratio(), None);
    }
}
