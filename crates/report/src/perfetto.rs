//! Chrome/Perfetto trace-event export.
//!
//! Renders a decision trace as the JSON object format both `chrome://
//! tracing` and <https://ui.perfetto.dev> accept: one process for the
//! cluster, one thread ("lane") track per concurrent resident slot of
//! each node, jobs as `X` duration slices, scheduler decisions and node
//! state changes as `i` instants on a dedicated decisions track, and
//! queue-depth / busy-core / shared-node `C` counters.
//!
//! Lane assignment replays the trace: when a job starts on a node it
//! takes the lowest free lane of that node, so exclusive runs occupy
//! lane 0 and co-scheduled partners stack on lane 1+ — the visual
//! counterpart of the paper's node-sharing argument. Lanes are created
//! on demand, so n-way stacking renders without any cluster-shape
//! input.
//!
//! Timestamps are simulation seconds scaled to integer microseconds
//! (the trace-event `ts` unit); events are emitted time-sorted as the
//! format requires.

use nodeshare_cluster::{NodeId, ShareMode};
use nodeshare_engine::json::escape;
use nodeshare_engine::{DecisionTrace, TraceEvent};
use nodeshare_metrics::StepSeries;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The synthetic pid under which all tracks are emitted.
const PID: u64 = 1;
/// The decisions track's tid; node lanes start above it.
const DECISIONS_TID: u64 = 0;
/// Tid stride per node: lane `l` of node `n` is tid `n*16 + l + 1`.
const LANE_STRIDE: u64 = 16;

fn lane_tid(node: u64, lane: usize) -> u64 {
    node * LANE_STRIDE + lane as u64 + 1
}

/// `(ts, json)` pairs the renderer accumulates before the final stable
/// time-sort (equal stamps keep emission order); metadata sorts first
/// via `ts = i64::MIN`.
type EventBuf = Vec<(i64, String)>;

struct OpenSlice {
    node: u64,
    lane: usize,
    start: f64,
    shared: bool,
    reason: &'static str,
}

/// The lane replay: which job holds each lane of each node, the open
/// slices per job (a job spans several nodes), and the name of every
/// track used so far, by tid.
struct Lanes {
    held: BTreeMap<u64, Vec<Option<u64>>>,
    open: BTreeMap<u64, Vec<OpenSlice>>,
    tids: BTreeMap<u64, String>,
}

impl Lanes {
    fn new() -> Lanes {
        let mut tids = BTreeMap::new();
        tids.insert(DECISIONS_TID, "scheduler decisions".to_string());
        Lanes {
            held: BTreeMap::new(),
            open: BTreeMap::new(),
            tids,
        }
    }

    /// Opens one slice of `job` per node, each on the lowest free lane of
    /// its node (a new lane when every lane is held).
    fn occupy(
        &mut self,
        job: u64,
        nodes: &[NodeId],
        start: f64,
        shared: bool,
        reason: &'static str,
    ) {
        for node in nodes.iter().map(|n| u64::from(n.0)) {
            let node_lanes = self.held.entry(node).or_default();
            let lane = match node_lanes.iter().position(Option::is_none) {
                Some(l) => {
                    node_lanes[l] = Some(job);
                    l
                }
                None => {
                    node_lanes.push(Some(job));
                    node_lanes.len() - 1
                }
            };
            self.tids
                .entry(lane_tid(node, lane))
                .or_insert_with(|| format!("node {node} / lane {lane}"));
            self.open.entry(job).or_default().push(OpenSlice {
                node,
                lane,
                start,
                shared,
                reason,
            });
        }
    }

    /// Ends `job`'s open slices at `t`, emitting them, and frees their
    /// lanes.
    fn release(&mut self, events: &mut EventBuf, job: u64, t: f64) {
        for slice in self.open.remove(&job).unwrap_or_default() {
            let ts = micros(slice.start);
            let dur = micros(t) - ts;
            events.push((
                ts,
                format!(
                    "{{\"name\":\"job {job}\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":{ts},\
                         \"dur\":{dur},\"pid\":{PID},\"tid\":{},\"args\":{{\"job\":{job},\
                         \"mode\":\"{}\",\"reason\":\"{}\"}}}}",
                    lane_tid(slice.node, slice.lane),
                    if slice.shared { "shared" } else { "exclusive" },
                    escape(slice.reason),
                ),
            ));
            if let Some(node_lanes) = self.held.get_mut(&slice.node) {
                if node_lanes.get(slice.lane).copied().flatten() == Some(job) {
                    node_lanes[slice.lane] = None;
                }
            }
        }
    }
}

/// Converts sim-seconds to the trace-event integer microsecond unit.
fn micros(t: f64) -> i64 {
    (t * 1e6).round() as i64
}

/// Renders the Perfetto/Chrome trace-event JSON for a decision trace.
pub fn render(trace: &DecisionTrace) -> String {
    let mut events: EventBuf = Vec::new();
    let mut lanes = Lanes::new();
    // Jobs waiting: +1 on submit and requeue, -1 on reject and start.
    let mut queue_depth = StepSeries::new();
    let mut depth: i64 = 0;
    let mut queue_step = |t: f64, delta: i64| {
        depth += delta;
        queue_depth.record(t, depth as f64);
    };

    for e in trace.events() {
        match e {
            TraceEvent::Started {
                time: t,
                job,
                mode,
                nodes,
                reason,
                ..
            } => {
                let job = job.0;
                let reason = reason.label();
                let ts = micros(*t);
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"start job {job} ({})\",\"cat\":\"decision\",\"ph\":\"i\",\
                         \"ts\":{ts},\"pid\":{PID},\"tid\":{DECISIONS_TID},\"s\":\"t\"}}",
                        escape(reason),
                    ),
                ));
                queue_step(*t, -1);
                lanes.occupy(job, nodes, *t, *mode == ShareMode::Shared, reason);
            }
            TraceEvent::Reshape {
                time: t, job, to, ..
            } => {
                let job = job.0;
                // Close the slices on the old node set and reopen on the
                // new one, so the track view shows the width change.
                let ts = micros(*t);
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"reshape job {job} to {} nodes\",\"cat\":\"decision\",\
                         \"ph\":\"i\",\"ts\":{ts},\"pid\":{PID},\"tid\":{DECISIONS_TID},\
                         \"s\":\"t\"}}",
                        to.len(),
                    ),
                ));
                lanes.release(&mut events, job, *t);
                lanes.occupy(job, to, *t, false, "reshape");
            }
            TraceEvent::Finished { time: t, job, .. } => {
                lanes.release(&mut events, job.0, *t);
            }
            TraceEvent::Requeued { time: t, job, .. } => {
                let job = job.0;
                let ts = micros(*t);
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"requeue job {job}\",\"cat\":\"decision\",\"ph\":\"i\",\
                         \"ts\":{ts},\"pid\":{PID},\"tid\":{DECISIONS_TID},\"s\":\"t\"}}"
                    ),
                ));
                lanes.release(&mut events, job, *t);
                queue_step(*t, 1);
            }
            TraceEvent::NodeDown {
                time: t,
                node,
                cause,
            } => {
                let node = node.0;
                let cause = cause.label();
                let ts = micros(*t);
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"node {node} down ({})\",\"cat\":\"node\",\"ph\":\"i\",\
                         \"ts\":{ts},\"pid\":{PID},\"tid\":{DECISIONS_TID},\"s\":\"t\"}}",
                        escape(cause),
                    ),
                ));
            }
            TraceEvent::NodeUp { time: t, node } => {
                let node = node.0;
                let ts = micros(*t);
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"node {node} up\",\"cat\":\"node\",\"ph\":\"i\",\
                         \"ts\":{ts},\"pid\":{PID},\"tid\":{DECISIONS_TID},\"s\":\"t\"}}"
                    ),
                ));
            }
            TraceEvent::Occupancy {
                time: t,
                busy_cores,
                shared_nodes,
            } => {
                let ts = micros(*t);
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"busy_cores\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{PID},\
                         \"args\":{{\"value\":{busy_cores}}}}}"
                    ),
                ));
                events.push((
                    ts,
                    format!(
                        "{{\"name\":\"shared_nodes\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{PID},\
                         \"args\":{{\"value\":{shared_nodes}}}}}"
                    ),
                ));
            }
            TraceEvent::Submitted { time: t, .. } => queue_step(*t, 1),
            TraceEvent::Rejected { time: t, .. } => queue_step(*t, -1),
        }
    }

    // The queue-depth counter goes out once, after the pass: same-instant
    // changes collapse in the series rather than emitting per event.
    for &(t, v) in queue_depth.points() {
        let ts = micros(t);
        events.push((
            ts,
            format!(
                "{{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{PID},\
                 \"args\":{{\"value\":{v}}}}}"
            ),
        ));
    }

    // Jobs still running when the trace ends render to its edge.
    let end = trace.end_time();
    let still_open: Vec<u64> = lanes.open.keys().copied().collect();
    for job in still_open {
        lanes.release(&mut events, job, end);
    }

    // Track metadata: process name plus one thread_name per used tid.
    events.push((
        i64::MIN,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\
             \"args\":{{\"name\":\"cluster\"}}}}"
        ),
    ));
    for (tid, name) in &lanes.tids {
        events.push((
            i64::MIN,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name),
            ),
        ));
        events.push((
            i64::MIN,
            format!(
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ),
        ));
    }

    // Stable: equal timestamps keep their emission order.
    events.sort_by_key(|e| e.0);

    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, (_, json)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{json}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_engine::JsonValue;

    fn trace() -> DecisionTrace {
        DecisionTrace::parse_json(
            r#"{"events":[
              {"type":"submitted","t":0,"job":1,"app":0,"nodes":1,"walltime":100,"share":true},
              {"type":"submitted","t":0,"job":2,"app":1,"nodes":1,"walltime":100,"share":true},
              {"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
               "reason":"head-of-queue","idle_before":2,"partners":[]},
              {"type":"occupancy","t":0,"busy_cores":4,"shared_nodes":0},
              {"type":"started","t":1,"job":2,"mode":"shared","nodes":[0],
               "reason":"co-scheduled","idle_before":1,"partners":[{"node":0,"job":1}]},
              {"type":"occupancy","t":1,"busy_cores":4,"shared_nodes":1},
              {"type":"finished","t":10,"job":1,"killed":false},
              {"type":"finished","t":20,"job":2,"killed":false}
            ]}"#,
        )
        .expect("valid trace")
    }

    #[test]
    fn co_resident_jobs_land_on_distinct_lanes() {
        let doc = JsonValue::parse(&render(&trace())).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        let slices: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        let tids: Vec<u64> = slices
            .iter()
            .map(|s| s.get("tid").and_then(JsonValue::as_u64).expect("tid"))
            .collect();
        assert_ne!(tids[0], tids[1], "partners must stack on separate lanes");
        // Job 1: lane 0 of node 0; job 2 co-resident: lane 1.
        assert_eq!(tids, vec![lane_tid(0, 0), lane_tid(0, 1)]);
        let durs: Vec<f64> = slices
            .iter()
            .map(|s| s.get("dur").and_then(JsonValue::as_f64).expect("dur"))
            .collect();
        assert_eq!(durs, vec![10e6, 19e6]);
    }

    #[test]
    fn lanes_are_reused_after_release() {
        let data = DecisionTrace::parse_json(
            r#"{"events":[
              {"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
               "reason":"head-of-queue","idle_before":1,"partners":[]},
              {"type":"finished","t":5,"job":1,"killed":false},
              {"type":"started","t":6,"job":2,"mode":"exclusive","nodes":[0],
               "reason":"head-of-queue","idle_before":1,"partners":[]},
              {"type":"finished","t":9,"job":2,"killed":false}
            ]}"#,
        )
        .expect("valid trace");
        let doc = JsonValue::parse(&render(&data)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        let tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|s| s.get("tid").and_then(JsonValue::as_u64).expect("tid"))
            .collect();
        assert_eq!(tids, vec![lane_tid(0, 0), lane_tid(0, 0)]);
    }

    #[test]
    fn unfinished_jobs_extend_to_trace_end() {
        let data = DecisionTrace::parse_json(
            r#"{"events":[
              {"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
               "reason":"head-of-queue","idle_before":1,"partners":[]},
              {"type":"occupancy","t":30,"busy_cores":4,"shared_nodes":0}
            ]}"#,
        )
        .expect("valid trace");
        let doc = JsonValue::parse(&render(&data)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .expect("one slice");
        assert_eq!(slice.get("dur").and_then(JsonValue::as_f64), Some(30e6));
    }
}
