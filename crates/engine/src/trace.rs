//! Structured decision traces.
//!
//! When tracing is on ([`crate::SimConfig::audit`] or
//! [`crate::sim::Observe::trace`]), the engine records every scheduler-visible
//! state change — submissions, start decisions with their justification,
//! completions, kills, requeues, node state changes, and occupancy deltas
//! — as a flat, time-ordered event list. The trace is the input to the
//! replay auditor ([`crate::audit::Auditor`]) and of the report crate,
//! and round-trips through JSON: [`DecisionTrace::to_json`] writes it
//! (`nodeshare audit --trace`) and [`DecisionTrace::parse_json`] reads it
//! back exactly.

use crate::json::JsonValue;
use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_perf::AppId;
use nodeshare_workload::{Malleability, Seconds};

/// Why a policy started a job now. Recorded per start decision; policies
/// report it through [`crate::Scheduler::explain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartReason {
    /// The oldest waiting job started — plain FCFS progress.
    HeadOfQueue,
    /// A younger job started while older jobs still waited, in a hole
    /// the scheduler judged harmless (backfill).
    Backfilled,
    /// The job was co-scheduled in shared mode onto nodes of which at
    /// least one already hosted a partner.
    CoScheduled,
    /// The policy gave no specific justification.
    Unspecified,
}

impl StartReason {
    /// Every reason, in declaration order.
    const ALL: [StartReason; 4] = [
        StartReason::HeadOfQueue,
        StartReason::Backfilled,
        StartReason::CoScheduled,
        StartReason::Unspecified,
    ];

    /// Derives a reason from the scheduling context — the default
    /// implementation of [`crate::Scheduler::explain`]. Policies with
    /// first-hand knowledge (e.g. an FCFS policy that only ever starts
    /// the head) override `explain` instead.
    ///
    /// A shared start onto an occupied node is co-scheduled; otherwise a
    /// start is head-of-queue when the queue is empty or headed by the
    /// started job, and backfilled when an older job still waits.
    pub fn classify(ctx: &crate::view::SchedContext<'_>, decision: &crate::view::Decision) -> Self {
        if decision.is_reshape() {
            // Reshapes are recorded as TraceEvent::Reshape, never as
            // starts; no start justification applies.
            return StartReason::Unspecified;
        }
        if decision.mode() == ShareMode::Shared
            && decision
                .nodes()
                .iter()
                .any(|&n| ctx.cluster.node(n).is_some_and(|node| !node.is_idle()))
        {
            return StartReason::CoScheduled;
        }
        if ctx
            .queue
            .first()
            .is_none_or(|head| head.id == decision.job())
        {
            StartReason::HeadOfQueue
        } else {
            StartReason::Backfilled
        }
    }

    /// Short label for reports and the trace JSON.
    pub fn label(&self) -> &'static str {
        match self {
            StartReason::HeadOfQueue => "head-of-queue",
            StartReason::Backfilled => "backfilled",
            StartReason::CoScheduled => "co-scheduled",
            StartReason::Unspecified => "unspecified",
        }
    }

    /// The reason a [`StartReason::label`] names.
    fn from_label(label: &str) -> Option<StartReason> {
        StartReason::ALL.into_iter().find(|r| r.label() == label)
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

impl DownCause {
    /// Short label for reports and the trace JSON.
    pub fn label(&self) -> &'static str {
        match self {
            DownCause::Failed => "failed",
            DownCause::Drained => "drained",
        }
    }
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

    /// True when this event may follow `last` in a trace: simulation
    /// order, up to float noise.
    fn may_follow(&self, last: &TraceEvent) -> bool {
        self.time() + 1e-9 >= last.time()
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
            assert!(event.may_follow(last), "trace event out of order");
        }
        self.events.push(event);
    }

    /// All events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Time of the last event (0 for an empty trace).
    pub fn end_time(&self) -> Seconds {
        self.events.last().map_or(0.0, TraceEvent::time)
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

    /// Parses the JSON [`DecisionTrace::to_json`] writes, as its exact
    /// inverse: `parse_json(&t.to_json()) == Ok(t)`.
    ///
    /// The text may come from anywhere, so nothing in it is trusted. An
    /// unknown event type, mode, cause or reason label, a missing field,
    /// an id too large for its type, a non-finite number, or an event
    /// earlier than the one before it (the order [`DecisionTrace::push`]
    /// asserts) is an `Err` naming the event index — never a panic.
    pub fn parse_json(text: &str) -> Result<DecisionTrace, String> {
        let doc = JsonValue::parse(text)?;
        let raw = doc
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or("missing top-level \"events\" array")?;
        let mut events: Vec<TraceEvent> = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let event = decode_event(e).map_err(|msg| format!("event {i}: {msg}"))?;
            if let Some(last) = events.last() {
                if !event.may_follow(last) {
                    return Err(format!(
                        "event {i}: time {} precedes the previous event's {}",
                        event.time(),
                        last.time()
                    ));
                }
            }
            events.push(event);
        }
        Ok(DecisionTrace { events })
    }
}

/// Reads field `key` of `e` with `read`; `what` names the expected value
/// in the error.
fn field<'a, T>(
    e: &'a JsonValue,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<T, String> {
    e.get(key)
        .and_then(read)
        .ok_or_else(|| format!("missing or invalid \"{key}\" (want {what})"))
}

fn finite(v: &JsonValue) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

/// An unsigned integer that fits `T`.
fn int<T: TryFrom<u64>>(v: &JsonValue) -> Option<T> {
    v.as_u64().and_then(|n| T::try_from(n).ok())
}

fn node_list(e: &JsonValue, key: &str) -> Result<Vec<NodeId>, String> {
    field(e, key, "an array of node ids", |v| {
        v.as_array()?
            .iter()
            .map(|n| int(n).map(NodeId))
            .collect::<Option<Vec<_>>>()
    })
}

/// The `f32` that [`DecisionTrace::to_json`] wrote as the decimal the
/// reader holds as `v`. The writer spells an `f32` as its shortest
/// decimal; narrowing the `f64` nearest that decimal rounds twice and
/// can land one step off, so the nearest `f32` and its two neighbours
/// are tried for the one whose own spelling reads back as `v`. Other
/// decimals take the nearest `f32`.
fn f32_written_as(v: f64) -> f32 {
    let near = v as f32;
    let bits = near.to_bits();
    [bits, bits.wrapping_add(1), bits.wrapping_sub(1)]
        .into_iter()
        .map(f32::from_bits)
        .find(|c| c.to_string().parse::<f64>() == Ok(v))
        .unwrap_or(near)
}

/// The trace JSON's name for an allocation mode.
fn mode_label(mode: ShareMode) -> &'static str {
    match mode {
        ShareMode::Exclusive => "exclusive",
        ShareMode::Shared => "shared",
    }
}

fn decode_event(e: &JsonValue) -> Result<TraceEvent, String> {
    let time = field(e, "t", "a finite number", finite)?;
    let job = || field(e, "job", "a job id", int).map(JobId);
    let node = || field(e, "node", "a node id", int).map(NodeId);
    let kind = field(e, "type", "a string", JsonValue::as_str)?;
    Ok(match kind {
        "submitted" => TraceEvent::Submitted {
            time,
            job: job()?,
            app: field(e, "app", "an app id", int).map(AppId)?,
            nodes: field(e, "nodes", "a node count", int)?,
            walltime_estimate: field(e, "walltime", "a finite number", finite)?,
            share_eligible: field(e, "share", "a bool", JsonValue::as_bool)?,
            malleable: match e.get("malleable") {
                None => Malleability::RIGID,
                Some(m) => Malleability::range(
                    field(m, "min", "a node count", int)?,
                    // The writer omits rigid (`max == 0`) contracts.
                    field(m, "max", "a positive node count", |v| {
                        int(v).filter(|&n: &u32| n > 0)
                    })?,
                    field(m, "cost", "a finite number", |v| {
                        finite(v).map(f32_written_as).filter(|c| c.is_finite())
                    })?,
                ),
            },
        },
        "rejected" => TraceEvent::Rejected { time, job: job()? },
        "started" => TraceEvent::Started {
            time,
            job: job()?,
            mode: field(e, "mode", "a share mode label", |v| {
                let label = v.as_str()?;
                [ShareMode::Exclusive, ShareMode::Shared]
                    .into_iter()
                    .find(|&m| mode_label(m) == label)
            })?,
            nodes: node_list(e, "nodes")?,
            reason: field(e, "reason", "a start reason label", |v| {
                StartReason::from_label(v.as_str()?)
            })?,
            idle_before: field(e, "idle_before", "a node count", int)?,
            head_waiting: match e.get("head_waiting") {
                None => None,
                Some(h) => Some((
                    field(h, "job", "a job id", int).map(JobId)?,
                    field(h, "nodes", "a node count", int)?,
                )),
            },
            partners: field(e, "partners", "an array of {node, job}", |v| {
                v.as_array()?
                    .iter()
                    .map(|p| Some((NodeId(int(p.get("node")?)?), JobId(int(p.get("job")?)?))))
                    .collect::<Option<Vec<_>>>()
            })?,
        },
        "reshape" => TraceEvent::Reshape {
            time,
            job: job()?,
            from: node_list(e, "from")?,
            to: node_list(e, "to")?,
            cost: field(e, "cost", "a finite number", finite)?,
        },
        "finished" => TraceEvent::Finished {
            time,
            job: job()?,
            killed: field(e, "killed", "a bool", JsonValue::as_bool)?,
        },
        "requeued" => TraceEvent::Requeued {
            time,
            job: job()?,
            node: node()?,
        },
        "node_down" => TraceEvent::NodeDown {
            time,
            node: node()?,
            cause: field(e, "cause", "a down cause label", |v| {
                let label = v.as_str()?;
                [DownCause::Failed, DownCause::Drained]
                    .into_iter()
                    .find(|c| c.label() == label)
            })?,
        },
        "node_up" => TraceEvent::NodeUp {
            time,
            node: node()?,
        },
        "occupancy" => TraceEvent::Occupancy {
            time,
            busy_cores: field(e, "busy_cores", "a core count", int)?,
            shared_nodes: field(e, "shared_nodes", "a node count", int)?,
        },
        other => return Err(format!("unknown event type \"{other}\"")),
    })
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
                mode_label(*mode)
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
                cause.label()
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
        assert_eq!(StartReason::Backfilled.label(), "backfilled");
        assert_eq!(StartReason::CoScheduled.label(), "co-scheduled");
        assert_eq!(StartReason::Unspecified.label(), "unspecified");
        for r in StartReason::ALL {
            assert_eq!(StartReason::from_label(r.label()), Some(r));
        }
        assert_eq!(StartReason::from_label("jumped"), None);
    }

    #[test]
    fn classify_reads_queue_head_and_occupancy() {
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
        let running = std::collections::BTreeMap::new();
        let ctx = |queue| SchedContext {
            now: 0.0,
            queue,
            cluster: &cluster,
            running: &running,
            shared_grace: 1.0,
            completed: &[],
            telemetry: None,
        };
        let exclusive = |job: u64, node: u32| Decision::StartExclusive {
            job: JobId(job),
            nodes: vec![NodeId(node)],
        };
        let cases = [
            (exclusive(1, 1), StartReason::HeadOfQueue),
            // Started past one waiting job.
            (exclusive(2, 2), StartReason::Backfilled),
            // Shared onto an occupied node.
            (
                Decision::StartShared {
                    job: JobId(3),
                    nodes: vec![NodeId(0), NodeId(3)],
                },
                StartReason::CoScheduled,
            ),
            // Shared onto idle nodes only: judged by queue position.
            (
                Decision::StartShared {
                    job: JobId(3),
                    nodes: vec![NodeId(2), NodeId(3)],
                },
                StartReason::Backfilled,
            ),
            // Not in the queue at all (requeue-style edge case).
            (exclusive(99, 3), StartReason::Backfilled),
            (
                Decision::Reshape {
                    job: JobId(1),
                    nodes: vec![NodeId(1)],
                },
                StartReason::Unspecified,
            ),
        ];
        for (decision, want) in &cases {
            assert_eq!(StartReason::classify(&ctx(&queue), decision), *want);
        }
        // With nothing queued every start is the head's.
        assert_eq!(
            StartReason::classify(&ctx(&[]), &exclusive(99, 3)),
            StartReason::HeadOfQueue
        );
    }

    #[test]
    fn json_round_trips_every_field() {
        let mut t = DecisionTrace::new();
        t.push(TraceEvent::Submitted {
            time: 0.0,
            job: JobId(u64::MAX),
            app: AppId(255),
            nodes: 3,
            walltime_estimate: 600.25,
            share_eligible: true,
            malleable: Malleability::range(2, 6, 0.1),
        });
        t.push(TraceEvent::Started {
            time: 1.5,
            job: JobId(1),
            mode: ShareMode::Shared,
            nodes: vec![NodeId(0), NodeId(u32::MAX)],
            reason: StartReason::CoScheduled,
            idle_before: 4,
            head_waiting: Some((JobId(7), 4)),
            partners: vec![(NodeId(0), JobId(9))],
        });
        t.push(TraceEvent::NodeDown {
            time: 2.0,
            node: NodeId(1),
            cause: DownCause::Drained,
        });
        assert_eq!(DecisionTrace::parse_json(&t.to_json()), Ok(t.clone()));
        assert_eq!(t.end_time(), 2.0);
        assert_eq!(DecisionTrace::new().end_time(), 0.0);
    }

    #[test]
    fn f32_costs_survive_double_rounding() {
        // Narrowing the f64 nearest this cost's shortest decimal lands
        // one f32 step off; an exhaustive scan finds no other positive
        // finite f32 that does.
        let cost = f32::from_bits(0x15ae_43fd);
        let v: f64 = cost.to_string().parse().expect("decimal");
        assert_ne!((v as f32).to_bits(), cost.to_bits());
        assert_eq!(f32_written_as(v).to_bits(), cost.to_bits());
    }

    #[test]
    fn bad_input_is_an_error_naming_the_event() {
        let cases = [
            (
                r#"{"events":[{"type":"warp","t":0}]}"#,
                "event 0: unknown event type \"warp\"",
            ),
            (
                r#"{"events":[{"type":"finished","t":1}]}"#,
                "event 0: missing or invalid \"job\" (want a job id)",
            ),
            (
                r#"{"events":[{"type":"rejected","t":1,"job":1},{"type":"rejected","t":0.5,"job":2}]}"#,
                "event 1: time 0.5 precedes the previous event's 1",
            ),
            (
                r#"{"events":[{"type":"submitted","t":0,"job":1,"app":0,"nodes":4294967296,"walltime":1,"share":true}]}"#,
                "event 0: missing or invalid \"nodes\" (want a node count)",
            ),
            (
                r#"{"events":[{"type":"submitted","t":0,"job":1,"app":256,"nodes":1,"walltime":1,"share":true}]}"#,
                "event 0: missing or invalid \"app\" (want an app id)",
            ),
            (
                r#"{"events":[{"type":"node_up","t":1e999,"node":0}]}"#,
                "event 0: missing or invalid \"t\" (want a finite number)",
            ),
            (r#"{"evts":[]}"#, "missing top-level \"events\" array"),
        ];
        for (json, want) in cases {
            assert_eq!(DecisionTrace::parse_json(json), Err(want.to_string()));
        }
    }
}
