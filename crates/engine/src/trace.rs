//! Structured decision traces.
//!
//! When tracing is on ([`crate::SimConfig::audit`] or
//! [`crate::sim::Observe::trace`]), the engine records every scheduler-visible
//! state change — submissions, start decisions with their justification,
//! completions, kills, requeues, node state changes, and occupancy deltas
//! — as a flat, time-ordered event list. The trace is the input to the
//! replay auditor ([`crate::audit::Auditor`]) and can be exported as JSON
//! (`nodeshare audit --trace`).

use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_perf::AppId;
use nodeshare_workload::{Malleability, Seconds};

/// Why a policy started a job now. Recorded per start decision; policies
/// report it through [`crate::Scheduler::explain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartReason {
    /// The oldest waiting job started — plain FCFS progress.
    HeadOfQueue,
    /// A younger job jumped `ahead` older waiting jobs into a hole the
    /// scheduler judged harmless (backfill).
    Backfilled {
        /// Number of older jobs still waiting when this one started.
        ahead: usize,
    },
    /// The job was co-scheduled in shared mode; `occupied` of its target
    /// nodes already hosted a partner.
    CoScheduled {
        /// Target nodes that already had a resident job.
        occupied: usize,
    },
    /// The policy gave no specific justification.
    Unspecified,
}

impl StartReason {
    /// Derives a reason from the scheduling context — the default
    /// implementation of [`crate::Scheduler::explain`]. Policies with
    /// first-hand knowledge (e.g. an FCFS policy that only ever starts
    /// the head) override `explain` instead.
    pub fn classify(ctx: &crate::view::SchedContext<'_>, decision: &crate::view::Decision) -> Self {
        if decision.is_reshape() {
            // Reshapes are recorded as TraceEvent::Reshape, never as
            // starts; no start justification applies.
            return StartReason::Unspecified;
        }
        let ahead = ctx
            .queue
            .iter()
            .take_while(|j| j.id != decision.job())
            .count();
        if decision.mode() == ShareMode::Shared {
            let occupied = decision
                .nodes()
                .iter()
                .filter(|&&n| ctx.cluster.node(n).is_some_and(|node| !node.is_idle()))
                .count();
            if occupied > 0 {
                return StartReason::CoScheduled { occupied };
            }
        }
        if ahead == 0 {
            StartReason::HeadOfQueue
        } else {
            StartReason::Backfilled { ahead }
        }
    }

    /// Classifies a whole invocation's decisions in one queue scan.
    ///
    /// Semantically identical to calling [`StartReason::classify`] per
    /// decision — the queue-position lookup is shared across decisions
    /// instead of re-scanned each time, which is what audited
    /// trace-heavy campaigns pay for. All reasons are justified against
    /// the same pre-apply context, exactly like the per-decision path.
    pub fn classify_all(
        ctx: &crate::view::SchedContext<'_>,
        decisions: &[crate::view::Decision],
    ) -> Vec<Self> {
        // detlint: allow(D1, first-occurrence position index; per-id lookups only, never iterated)
        let mut position = std::collections::HashMap::new();
        for (i, j) in ctx.queue.iter().enumerate() {
            // First occurrence wins, matching the `take_while` scan.
            position.entry(j.id).or_insert(i);
        }
        decisions
            .iter()
            .map(|decision| {
                if decision.is_reshape() {
                    return StartReason::Unspecified;
                }
                // A job absent from the queue scans past every entry,
                // matching `take_while` in the per-decision classifier.
                let ahead = position
                    .get(&decision.job())
                    .copied()
                    .unwrap_or(ctx.queue.len());
                if decision.mode() == ShareMode::Shared {
                    let occupied = decision
                        .nodes()
                        .iter()
                        .filter(|&&n| ctx.cluster.node(n).is_some_and(|node| !node.is_idle()))
                        .count();
                    if occupied > 0 {
                        return StartReason::CoScheduled { occupied };
                    }
                }
                if ahead == 0 {
                    StartReason::HeadOfQueue
                } else {
                    StartReason::Backfilled { ahead }
                }
            })
            .collect()
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StartReason::HeadOfQueue => "head-of-queue",
            StartReason::Backfilled { .. } => "backfilled",
            StartReason::CoScheduled { .. } => "co-scheduled",
            StartReason::Unspecified => "unspecified",
        }
    }
}

/// Why a node left service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DownCause {
    /// Random failure (resident jobs were requeued).
    Failed,
    /// Planned maintenance drain (resident jobs finish normally).
    Drained,
}

/// One recorded engine event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A job entered the queue.
    Submitted {
        /// Event time.
        time: Seconds,
        /// The job.
        job: JobId,
        /// Application it runs.
        app: AppId,
        /// Requested node count.
        nodes: u32,
        /// User walltime estimate.
        walltime_estimate: Seconds,
        /// Whether the job opted into sharing.
        share_eligible: bool,
        /// The job's width-malleability contract
        /// ([`Malleability::RIGID`] for ordinary jobs) — the auditor
        /// validates every later reshape against it.
        malleable: Malleability,
    },
    /// A job was rejected at submission as unsatisfiable on this machine.
    Rejected {
        /// Event time.
        time: Seconds,
        /// The job.
        job: JobId,
    },
    /// A queued job started on a set of nodes.
    Started {
        /// Event time.
        time: Seconds,
        /// The job.
        job: JobId,
        /// Allocation mode.
        mode: ShareMode,
        /// Granted nodes, in grant order.
        nodes: Vec<NodeId>,
        /// The policy's justification.
        reason: StartReason,
        /// Up-and-idle node count immediately before the grant.
        idle_before: usize,
        /// Oldest job still waiting when this start was applied (id and
        /// its node request), when the started job was not the head —
        /// the input to the queue-jump justification check.
        head_waiting: Option<(JobId, u32)>,
        /// Co-residents after the grant, as `(node, partner)` pairs.
        partners: Vec<(NodeId, JobId)>,
    },
    /// A running exclusive malleable job changed width in place.
    Reshape {
        /// Event time.
        time: Seconds,
        /// The reshaped job.
        job: JobId,
        /// The complete node set held immediately before the reshape.
        from: Vec<NodeId>,
        /// The complete node set held immediately after the reshape.
        to: Vec<NodeId>,
        /// Reshape cost charged against the job's remaining work, in
        /// exclusive node-seconds (the contract's `reshape_cost`).
        cost: f64,
    },
    /// A running job terminated.
    Finished {
        /// Event time.
        time: Seconds,
        /// The job.
        job: JobId,
        /// True when the engine killed it at its walltime bound.
        killed: bool,
    },
    /// A running job was evicted by a node failure and requeued.
    Requeued {
        /// Event time.
        time: Seconds,
        /// The evicted job.
        job: JobId,
        /// The failed node that triggered the eviction.
        node: NodeId,
    },
    /// A node left service.
    NodeDown {
        /// Event time.
        time: Seconds,
        /// The node.
        node: NodeId,
        /// Why it went down.
        cause: DownCause,
    },
    /// A node returned to service.
    NodeUp {
        /// Event time.
        time: Seconds,
        /// The node.
        node: NodeId,
    },
    /// Cluster occupancy after an allocation change — the engine's own
    /// view, cross-checked against the auditor's replay.
    Occupancy {
        /// Event time.
        time: Seconds,
        /// Physical cores busy (cluster-wide).
        busy_cores: u64,
        /// Nodes hosting two or more jobs.
        shared_nodes: usize,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Seconds {
        match self {
            TraceEvent::Submitted { time, .. }
            | TraceEvent::Rejected { time, .. }
            | TraceEvent::Started { time, .. }
            | TraceEvent::Reshape { time, .. }
            | TraceEvent::Finished { time, .. }
            | TraceEvent::Requeued { time, .. }
            | TraceEvent::NodeDown { time, .. }
            | TraceEvent::NodeUp { time, .. }
            | TraceEvent::Occupancy { time, .. } => *time,
        }
    }
}

/// An append-only, time-ordered record of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionTrace {
    events: Vec<TraceEvent>,
}

impl DecisionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        DecisionTrace::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    /// Panics if the event's time precedes the previous event's — the
    /// engine emits events in simulation order.
    pub fn push(&mut self, event: TraceEvent) {
        if let Some(last) = self.events.last() {
            assert!(
                event.time() + 1e-9 >= last.time(),
                "trace event out of order"
            );
        }
        self.events.push(event);
    }

    /// All events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Start events only, in order.
    pub fn starts(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Started { .. }))
    }

    /// Number of shared-mode starts.
    pub fn shared_start_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Started {
                        mode: ShareMode::Shared,
                        ..
                    }
                )
            })
            .count()
    }

    /// Serializes the trace as JSON (hand-written: the vendored `serde`
    /// stand-in provides derives as markers only, so structured output in
    /// this workspace is emitted directly).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.events.len() + 32);
        out.push_str("{\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_event(&mut out, e);
        }
        out.push_str("]}");
        out
    }
}

fn json_event(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    match e {
        TraceEvent::Submitted {
            time,
            job,
            app,
            nodes,
            walltime_estimate,
            share_eligible,
            malleable,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"submitted\",\"t\":{time},\"job\":{},\"app\":{},\
                 \"nodes\":{nodes},\"walltime\":{walltime_estimate},\"share\":{share_eligible}",
                job.0, app.0
            );
            // Rigid jobs — every job before malleability existed — keep
            // their historical JSON byte-identical.
            if !malleable.is_rigid() {
                let _ = write!(
                    out,
                    ",\"malleable\":{{\"min\":{},\"max\":{},\"cost\":{}}}",
                    malleable.min_nodes, malleable.max_nodes, malleable.reshape_cost
                );
            }
            out.push('}');
        }
        TraceEvent::Rejected { time, job } => {
            let _ = write!(
                out,
                "{{\"type\":\"rejected\",\"t\":{time},\"job\":{}}}",
                job.0
            );
        }
        TraceEvent::Started {
            time,
            job,
            mode,
            nodes,
            reason,
            idle_before,
            head_waiting,
            partners,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"started\",\"t\":{time},\"job\":{},\"mode\":\"{}\",\"nodes\":[",
                job.0,
                match mode {
                    ShareMode::Exclusive => "exclusive",
                    ShareMode::Shared => "shared",
                }
            );
            for (i, n) in nodes.iter().enumerate() {
                let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, n.0);
            }
            let _ = write!(
                out,
                "],\"reason\":\"{}\",\"idle_before\":{idle_before}",
                reason.label()
            );
            if let Some((head, head_nodes)) = head_waiting {
                let _ = write!(
                    out,
                    ",\"head_waiting\":{{\"job\":{},\"nodes\":{head_nodes}}}",
                    head.0
                );
            }
            out.push_str(",\"partners\":[");
            for (i, (n, j)) in partners.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"node\":{},\"job\":{}}}",
                    if i > 0 { "," } else { "" },
                    n.0,
                    j.0
                );
            }
            out.push_str("]}");
        }
        TraceEvent::Reshape {
            time,
            job,
            from,
            to,
            cost,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"reshape\",\"t\":{time},\"job\":{},\"from\":[",
                job.0
            );
            for (i, n) in from.iter().enumerate() {
                let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, n.0);
            }
            out.push_str("],\"to\":[");
            for (i, n) in to.iter().enumerate() {
                let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, n.0);
            }
            let _ = write!(out, "],\"cost\":{cost}}}");
        }
        TraceEvent::Finished { time, job, killed } => {
            let _ = write!(
                out,
                "{{\"type\":\"finished\",\"t\":{time},\"job\":{},\"killed\":{killed}}}",
                job.0
            );
        }
        TraceEvent::Requeued { time, job, node } => {
            let _ = write!(
                out,
                "{{\"type\":\"requeued\",\"t\":{time},\"job\":{},\"node\":{}}}",
                job.0, node.0
            );
        }
        TraceEvent::NodeDown { time, node, cause } => {
            let _ = write!(
                out,
                "{{\"type\":\"node_down\",\"t\":{time},\"node\":{},\"cause\":\"{}\"}}",
                node.0,
                match cause {
                    DownCause::Failed => "failed",
                    DownCause::Drained => "drained",
                }
            );
        }
        TraceEvent::NodeUp { time, node } => {
            let _ = write!(
                out,
                "{{\"type\":\"node_up\",\"t\":{time},\"node\":{}}}",
                node.0
            );
        }
        TraceEvent::Occupancy {
            time,
            busy_cores,
            shared_nodes,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"occupancy\",\"t\":{time},\"busy_cores\":{busy_cores},\
                 \"shared_nodes\":{shared_nodes}}}",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_orders_and_serializes() {
        let mut t = DecisionTrace::new();
        t.push(TraceEvent::Submitted {
            time: 0.0,
            job: JobId(1),
            app: AppId(2),
            nodes: 3,
            walltime_estimate: 600.0,
            share_eligible: true,
            malleable: Malleability::RIGID,
        });
        t.push(TraceEvent::Started {
            time: 0.0,
            job: JobId(1),
            mode: ShareMode::Shared,
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            reason: StartReason::HeadOfQueue,
            idle_before: 4,
            head_waiting: None,
            partners: vec![(NodeId(0), JobId(9))],
        });
        t.push(TraceEvent::Finished {
            time: 500.0,
            job: JobId(1),
            killed: false,
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.shared_start_count(), 1);
        let json = t.to_json();
        assert!(json.starts_with("{\"events\":["));
        assert!(json.contains("\"type\":\"submitted\""));
        assert!(json.contains("\"mode\":\"shared\""));
        assert!(json.contains("\"reason\":\"head-of-queue\""));
        assert!(json.contains("\"partners\":[{\"node\":0,\"job\":9}]"));
        // Rigid submissions keep their historical JSON shape.
        assert!(!json.contains("malleable"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn reshape_events_serialize_and_order() {
        let mut t = DecisionTrace::new();
        t.push(TraceEvent::Submitted {
            time: 0.0,
            job: JobId(1),
            app: AppId(0),
            nodes: 2,
            walltime_estimate: 600.0,
            share_eligible: false,
            malleable: Malleability::range(1, 4, 30.0),
        });
        t.push(TraceEvent::Reshape {
            time: 50.0,
            job: JobId(1),
            from: vec![NodeId(0), NodeId(1)],
            to: vec![NodeId(0)],
            cost: 30.0,
        });
        assert_eq!(t.events()[1].time(), 50.0);
        let json = t.to_json();
        assert!(json.contains("\"malleable\":{\"min\":1,\"max\":4,\"cost\":30}"));
        assert!(json.contains("\"type\":\"reshape\""));
        assert!(json.contains("\"from\":[0,1],\"to\":[0],\"cost\":30"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn trace_rejects_time_travel() {
        let mut t = DecisionTrace::new();
        t.push(TraceEvent::Rejected {
            time: 10.0,
            job: JobId(1),
        });
        t.push(TraceEvent::Rejected {
            time: 5.0,
            job: JobId(2),
        });
    }

    #[test]
    fn reason_labels() {
        assert_eq!(StartReason::HeadOfQueue.label(), "head-of-queue");
        assert_eq!(StartReason::Backfilled { ahead: 2 }.label(), "backfilled");
        assert_eq!(
            StartReason::CoScheduled { occupied: 1 }.label(),
            "co-scheduled"
        );
        assert_eq!(StartReason::Unspecified.label(), "unspecified");
    }

    #[test]
    fn classify_all_matches_per_decision_classify() {
        use crate::view::{Decision, SchedContext};
        use nodeshare_cluster::{Cluster, ClusterSpec, NodeSpec};
        use nodeshare_workload::JobSpec;

        let spec = |id: u64, nodes: u32| JobSpec {
            malleable: Default::default(),
            id: JobId(id),
            app: AppId(0),
            nodes,
            submit: 0.0,
            runtime_exclusive: 100.0,
            walltime_estimate: 200.0,
            mem_per_node_mib: 0,
            share_eligible: true,
            user: 0,
        };
        let mut cluster = Cluster::new(ClusterSpec::new(4, NodeSpec::tiny()));
        // Occupy node 0 shared, so a shared decision targeting it is
        // classified co-scheduled.
        cluster
            .allocate_shared(JobId(90), &[NodeId(0)], 0)
            .expect("seed occupant");
        let queue = vec![spec(1, 1), spec(2, 1), spec(3, 2)];
        let ctx = SchedContext {
            now: 0.0,
            queue: &queue,
            cluster: &cluster,
            running: &std::collections::BTreeMap::new(),
            shared_grace: 1.0,
            completed: &[],
            telemetry: None,
        };
        let decisions = vec![
            // Head of queue.
            Decision::StartExclusive {
                job: JobId(1),
                nodes: vec![NodeId(1)],
            },
            // Backfilled past one waiting job.
            Decision::StartExclusive {
                job: JobId(2),
                nodes: vec![NodeId(2)],
            },
            // Shared onto an occupied node: co-scheduled.
            Decision::StartShared {
                job: JobId(3),
                nodes: vec![NodeId(0), NodeId(3)],
            },
            // Not in the queue at all (requeue-style edge case).
            Decision::StartExclusive {
                job: JobId(99),
                nodes: vec![NodeId(3)],
            },
        ];
        let batched = StartReason::classify_all(&ctx, &decisions);
        let single: Vec<StartReason> = decisions
            .iter()
            .map(|d| StartReason::classify(&ctx, d))
            .collect();
        assert_eq!(batched, single);
        assert_eq!(batched[0], StartReason::HeadOfQueue);
        assert_eq!(batched[1], StartReason::Backfilled { ahead: 1 });
        assert_eq!(batched[2], StartReason::CoScheduled { occupied: 1 });
        assert_eq!(batched[3], StartReason::Backfilled { ahead: 3 });
    }
}
