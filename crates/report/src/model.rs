//! The exporter's view of a decision trace.
//!
//! [`TraceData`] is a flat, time-ordered event list with plain field
//! types — the common denominator between the two ways a trace reaches
//! the reporter: in-process (a live [`nodeshare_engine::DecisionTrace`]
//! from `simulate` with `Observe::trace`) and from disk (the JSON written
//! by `nodeshare audit --trace` / the campaign orchestrator). Both feed the
//! same [`crate::analysis`] and exporters, so reports are identical
//! whichever road the trace took.

use crate::json::JsonValue;
use nodeshare_cluster::ShareMode;
use nodeshare_engine::{DecisionTrace, DownCause, TraceEvent};

/// One trace event, decoded to plain types.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportEvent {
    /// A job entered the queue.
    Submitted {
        /// Event time (sim seconds).
        t: f64,
        /// Job id.
        job: u64,
        /// Application id.
        app: u64,
        /// Requested node count.
        nodes: u32,
        /// User walltime estimate.
        walltime: f64,
        /// Whether the job opted into sharing.
        share: bool,
        /// Width-malleability contract as `(min, max, cost)`; `None` for
        /// rigid jobs (the writer omits the field entirely for them).
        malleable: Option<(u32, u32, f64)>,
    },
    /// A job was rejected at submission as unsatisfiable.
    Rejected {
        /// Event time.
        t: f64,
        /// Job id.
        job: u64,
    },
    /// A queued job started on a set of nodes.
    Started {
        /// Event time.
        t: f64,
        /// Job id.
        job: u64,
        /// True for shared-mode allocation.
        shared: bool,
        /// Granted nodes, in grant order.
        nodes: Vec<u64>,
        /// The policy's justification label
        /// (`head-of-queue` / `backfilled` / `co-scheduled` / `unspecified`).
        reason: String,
        /// Up-and-idle node count immediately before the grant.
        idle_before: u64,
        /// Co-residents after the grant, as `(node, partner)` pairs.
        partners: Vec<(u64, u64)>,
    },
    /// A running malleable job moved to a new node set.
    Reshape {
        /// Event time.
        t: f64,
        /// Job id.
        job: u64,
        /// Nodes held before the reshape.
        from: Vec<u64>,
        /// Complete node set after the reshape.
        to: Vec<u64>,
        /// Reshape cost charged, node-seconds.
        cost: f64,
    },
    /// A running job terminated.
    Finished {
        /// Event time.
        t: f64,
        /// Job id.
        job: u64,
        /// True when killed at the walltime bound.
        killed: bool,
    },
    /// A running job was evicted by a node failure and requeued.
    Requeued {
        /// Event time.
        t: f64,
        /// Job id.
        job: u64,
        /// The failed node.
        node: u64,
    },
    /// A node left service.
    NodeDown {
        /// Event time.
        t: f64,
        /// Node id.
        node: u64,
        /// `failed` or `drained`.
        cause: String,
    },
    /// A node returned to service.
    NodeUp {
        /// Event time.
        t: f64,
        /// Node id.
        node: u64,
    },
    /// Cluster occupancy after an allocation change.
    Occupancy {
        /// Event time.
        t: f64,
        /// Physical cores busy, cluster-wide.
        busy_cores: u64,
        /// Nodes hosting two or more jobs.
        shared_nodes: u64,
    },
}

impl ReportEvent {
    /// The event's timestamp.
    pub fn time(&self) -> f64 {
        match self {
            ReportEvent::Submitted { t, .. }
            | ReportEvent::Rejected { t, .. }
            | ReportEvent::Started { t, .. }
            | ReportEvent::Reshape { t, .. }
            | ReportEvent::Finished { t, .. }
            | ReportEvent::Requeued { t, .. }
            | ReportEvent::NodeDown { t, .. }
            | ReportEvent::NodeUp { t, .. }
            | ReportEvent::Occupancy { t, .. } => *t,
        }
    }
}

/// A decoded trace, ready for analysis and export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceData {
    /// Events in simulation order.
    pub events: Vec<ReportEvent>,
}

impl TraceData {
    /// Decodes a live in-process trace.
    pub fn from_trace(trace: &DecisionTrace) -> TraceData {
        let events = trace
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Submitted {
                    time,
                    job,
                    app,
                    nodes,
                    walltime_estimate,
                    share_eligible,
                    malleable,
                } => ReportEvent::Submitted {
                    t: *time,
                    job: job.0,
                    app: u64::from(app.0),
                    nodes: *nodes,
                    walltime: *walltime_estimate,
                    share: *share_eligible,
                    malleable: (!malleable.is_rigid()).then(|| {
                        (
                            malleable.min_nodes,
                            malleable.max_nodes,
                            f64::from(malleable.reshape_cost),
                        )
                    }),
                },
                TraceEvent::Rejected { time, job } => ReportEvent::Rejected {
                    t: *time,
                    job: job.0,
                },
                TraceEvent::Started {
                    time,
                    job,
                    mode,
                    nodes,
                    reason,
                    idle_before,
                    head_waiting: _,
                    partners,
                } => ReportEvent::Started {
                    t: *time,
                    job: job.0,
                    shared: *mode == ShareMode::Shared,
                    nodes: nodes.iter().map(|n| u64::from(n.0)).collect(),
                    reason: reason.label().to_string(),
                    idle_before: *idle_before as u64,
                    partners: partners
                        .iter()
                        .map(|(n, j)| (u64::from(n.0), j.0))
                        .collect(),
                },
                TraceEvent::Reshape {
                    time,
                    job,
                    from,
                    to,
                    cost,
                } => ReportEvent::Reshape {
                    t: *time,
                    job: job.0,
                    from: from.iter().map(|n| u64::from(n.0)).collect(),
                    to: to.iter().map(|n| u64::from(n.0)).collect(),
                    cost: *cost,
                },
                TraceEvent::Finished { time, job, killed } => ReportEvent::Finished {
                    t: *time,
                    job: job.0,
                    killed: *killed,
                },
                TraceEvent::Requeued { time, job, node } => ReportEvent::Requeued {
                    t: *time,
                    job: job.0,
                    node: u64::from(node.0),
                },
                TraceEvent::NodeDown { time, node, cause } => ReportEvent::NodeDown {
                    t: *time,
                    node: u64::from(node.0),
                    cause: match cause {
                        DownCause::Failed => "failed",
                        DownCause::Drained => "drained",
                    }
                    .to_string(),
                },
                TraceEvent::NodeUp { time, node } => ReportEvent::NodeUp {
                    t: *time,
                    node: u64::from(node.0),
                },
                TraceEvent::Occupancy {
                    time,
                    busy_cores,
                    shared_nodes,
                } => ReportEvent::Occupancy {
                    t: *time,
                    busy_cores: *busy_cores,
                    shared_nodes: *shared_nodes as u64,
                },
            })
            .collect();
        TraceData { events }
    }

    /// Parses the JSON written by
    /// [`nodeshare_engine::DecisionTrace::to_json`]
    /// (`{"events":[{"type":...},...]}`).
    ///
    /// Unknown event types are an error — a trace from a newer writer
    /// should fail loudly rather than silently drop events.
    pub fn parse_json(text: &str) -> Result<TraceData, String> {
        let doc = JsonValue::parse(text)?;
        let raw = doc
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or("missing top-level \"events\" array")?;
        let mut events = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            events.push(decode_event(e).map_err(|msg| format!("event {i}: {msg}"))?);
        }
        Ok(TraceData { events })
    }

    /// Time of the last event (0 for an empty trace).
    pub fn end_time(&self) -> f64 {
        self.events.last().map_or(0.0, ReportEvent::time)
    }
}

fn field_f64(e: &JsonValue, key: &str) -> Result<f64, String> {
    e.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number \"{key}\""))
}

fn field_u64(e: &JsonValue, key: &str) -> Result<u64, String> {
    e.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer \"{key}\""))
}

fn field_bool(e: &JsonValue, key: &str) -> Result<bool, String> {
    e.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing bool \"{key}\""))
}

fn field_str<'a>(e: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    e.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string \"{key}\""))
}

fn decode_event(e: &JsonValue) -> Result<ReportEvent, String> {
    let t = field_f64(e, "t")?;
    match field_str(e, "type")? {
        "submitted" => Ok(ReportEvent::Submitted {
            t,
            job: field_u64(e, "job")?,
            app: field_u64(e, "app")?,
            nodes: field_u64(e, "nodes")? as u32,
            walltime: field_f64(e, "walltime")?,
            share: field_bool(e, "share")?,
            malleable: match e.get("malleable") {
                None => None,
                Some(m) => Some((
                    field_u64(m, "min")? as u32,
                    field_u64(m, "max")? as u32,
                    field_f64(m, "cost")?,
                )),
            },
        }),
        "rejected" => Ok(ReportEvent::Rejected {
            t,
            job: field_u64(e, "job")?,
        }),
        "started" => {
            let nodes = e
                .get("nodes")
                .and_then(JsonValue::as_array)
                .ok_or("missing \"nodes\" array")?
                .iter()
                .map(|n| n.as_u64().ok_or("non-integer node id"))
                .collect::<Result<Vec<u64>, _>>()?;
            let partners = e
                .get("partners")
                .and_then(JsonValue::as_array)
                .ok_or("missing \"partners\" array")?
                .iter()
                .map(|p| Ok::<(u64, u64), String>((field_u64(p, "node")?, field_u64(p, "job")?)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ReportEvent::Started {
                t,
                job: field_u64(e, "job")?,
                shared: match field_str(e, "mode")? {
                    "shared" => true,
                    "exclusive" => false,
                    other => return Err(format!("unknown mode \"{other}\"")),
                },
                nodes,
                reason: field_str(e, "reason")?.to_string(),
                idle_before: field_u64(e, "idle_before")?,
                partners,
            })
        }
        "reshape" => {
            let node_list = |key: &str| -> Result<Vec<u64>, String> {
                e.get(key)
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("missing \"{key}\" array"))?
                    .iter()
                    .map(|n| n.as_u64().ok_or_else(|| "non-integer node id".to_string()))
                    .collect()
            };
            Ok(ReportEvent::Reshape {
                t,
                job: field_u64(e, "job")?,
                from: node_list("from")?,
                to: node_list("to")?,
                cost: field_f64(e, "cost")?,
            })
        }
        "finished" => Ok(ReportEvent::Finished {
            t,
            job: field_u64(e, "job")?,
            killed: field_bool(e, "killed")?,
        }),
        "requeued" => Ok(ReportEvent::Requeued {
            t,
            job: field_u64(e, "job")?,
            node: field_u64(e, "node")?,
        }),
        "node_down" => Ok(ReportEvent::NodeDown {
            t,
            node: field_u64(e, "node")?,
            cause: field_str(e, "cause")?.to_string(),
        }),
        "node_up" => Ok(ReportEvent::NodeUp {
            t,
            node: field_u64(e, "node")?,
        }),
        "occupancy" => Ok(ReportEvent::Occupancy {
            t,
            busy_cores: field_u64(e, "busy_cores")?,
            shared_nodes: field_u64(e, "shared_nodes")?,
        }),
        other => Err(format!("unknown event type \"{other}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_cluster::{JobId, NodeId};
    use nodeshare_engine::StartReason;

    fn sample_trace() -> DecisionTrace {
        let mut t = DecisionTrace::new();
        t.push(TraceEvent::Submitted {
            time: 0.0,
            job: JobId(1),
            app: nodeshare_perf_appid(2),
            nodes: 3,
            walltime_estimate: 600.0,
            share_eligible: true,
            malleable: nodeshare_workload::Malleability::range(2, 6, 45.0),
        });
        t.push(TraceEvent::Started {
            time: 1.0,
            job: JobId(1),
            mode: ShareMode::Shared,
            nodes: vec![NodeId(0), NodeId(2)],
            reason: StartReason::CoScheduled { occupied: 1 },
            idle_before: 4,
            head_waiting: Some((JobId(7), 4)),
            partners: vec![(NodeId(0), JobId(9))],
        });
        t.push(TraceEvent::Occupancy {
            time: 1.0,
            busy_cores: 8,
            shared_nodes: 1,
        });
        t.push(TraceEvent::Reshape {
            time: 200.0,
            job: JobId(1),
            from: vec![NodeId(0), NodeId(2)],
            to: vec![NodeId(0), NodeId(2), NodeId(3)],
            cost: 45.0,
        });
        t.push(TraceEvent::Finished {
            time: 500.0,
            job: JobId(1),
            killed: false,
        });
        t
    }

    // The test helper avoids a direct dev-dependency on nodeshare-perf
    // types in signatures; AppId is a plain newtype.
    fn nodeshare_perf_appid(id: u8) -> nodeshare_perf::AppId {
        nodeshare_perf::AppId(id)
    }

    #[test]
    fn json_round_trip_matches_in_process_decode() {
        let trace = sample_trace();
        let direct = TraceData::from_trace(&trace);
        let parsed = TraceData::parse_json(&trace.to_json()).expect("parses");
        assert_eq!(direct, parsed);
        assert_eq!(direct.events.len(), 5);
        assert_eq!(direct.end_time(), 500.0);
        match &direct.events[0] {
            ReportEvent::Submitted { malleable, .. } => {
                assert_eq!(*malleable, Some((2, 6, 45.0)));
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &direct.events[3] {
            ReportEvent::Reshape { from, to, cost, .. } => {
                assert_eq!(from, &[0, 2]);
                assert_eq!(to, &[0, 2, 3]);
                assert_eq!(*cost, 45.0);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &direct.events[1] {
            ReportEvent::Started {
                shared,
                reason,
                partners,
                ..
            } => {
                assert!(*shared);
                assert_eq!(reason, "co-scheduled");
                assert_eq!(partners, &[(0, 9)]);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn unknown_event_types_error() {
        let err =
            TraceData::parse_json(r#"{"events":[{"type":"warp","t":0}]}"#).expect_err("must fail");
        assert!(err.contains("unknown event type"), "{err}");
    }

    #[test]
    fn missing_fields_error_with_event_index() {
        let err = TraceData::parse_json(r#"{"events":[{"type":"finished","t":1}]}"#)
            .expect_err("must fail");
        assert!(err.starts_with("event 0:"), "{err}");
    }
}
