//! Properties of the decision-trace JSON codec.
//!
//! * **Exact inverse**: `parse_json(&t.to_json()) == Ok(t)` for arbitrary
//!   traces over all nine event variants — malleable submissions,
//!   `head_waiting`, partners, extreme ids and any finite `f32` reshape
//!   cost included.
//! * **No panic**: arbitrary bytes, and every single-byte mutation of a
//!   valid trace, parse to a trace or an `Err`; whatever parses
//!   re-encodes and reads back unchanged.
//! * **Order**: a timestamp earlier than its predecessor's is an `Err`
//!   naming that event's index.

use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_engine::{DecisionTrace, DownCause, StartReason, TraceEvent};
use nodeshare_perf::AppId;
use nodeshare_workload::Malleability;
use proptest::prelude::*;

/// Any finite `f64`: every bit pattern, with the non-finite ones folded
/// into the finite range by clearing the top exponent bit.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(|b| {
        let x = f64::from_bits(b);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(b & !(1 << 62))
        }
    })
}

/// Any finite `f32`, the same way.
fn finite_f32() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(|b| {
        let x = f32::from_bits(b);
        if x.is_finite() {
            x
        } else {
            f32::from_bits(b & !(1 << 30))
        }
    })
}

fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, 0u64..=u64::MAX]
}

fn job() -> impl Strategy<Value = JobId> {
    any_u64().prop_map(JobId)
}

fn node() -> impl Strategy<Value = NodeId> {
    prop_oneof![0u32..16, 0u32..=u32::MAX].prop_map(NodeId)
}

fn nodes() -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec(node(), 0..5)
}

fn malleability() -> impl Strategy<Value = Malleability> {
    prop_oneof![
        Just(Malleability::RIGID),
        (0u32..=u32::MAX, 1u32..=u32::MAX, finite_f32())
            .prop_map(|(min, max, cost)| Malleability::range(min, max, cost)),
    ]
}

fn reason() -> impl Strategy<Value = StartReason> {
    prop_oneof![
        Just(StartReason::HeadOfQueue),
        Just(StartReason::Backfilled),
        Just(StartReason::CoScheduled),
        Just(StartReason::Unspecified),
    ]
}

/// One event of each of the nine variants, its time still 0.
fn event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            job(),
            0u8..=255,
            0u32..=u32::MAX,
            finite_f64(),
            prop::bool::weighted(0.5),
            malleability(),
        )
            .prop_map(|(job, app, nodes, walltime, share, malleable)| {
                TraceEvent::Submitted {
                    time: 0.0,
                    job,
                    app: AppId(app),
                    nodes,
                    walltime_estimate: walltime,
                    share_eligible: share,
                    malleable,
                }
            }),
        job().prop_map(|job| TraceEvent::Rejected { time: 0.0, job }),
        (
            job(),
            prop::bool::weighted(0.5),
            nodes(),
            reason(),
            0usize..=usize::MAX,
            prop::option::of((job(), 0u32..=u32::MAX)),
            prop::collection::vec((node(), job()), 0..4),
        )
            .prop_map(
                |(job, shared, nodes, reason, idle_before, head_waiting, partners)| {
                    TraceEvent::Started {
                        time: 0.0,
                        job,
                        mode: if shared {
                            ShareMode::Shared
                        } else {
                            ShareMode::Exclusive
                        },
                        nodes,
                        reason,
                        idle_before,
                        head_waiting,
                        partners,
                    }
                }
            ),
        (job(), nodes(), nodes(), finite_f64()).prop_map(|(job, from, to, cost)| {
            TraceEvent::Reshape {
                time: 0.0,
                job,
                from,
                to,
                cost,
            }
        }),
        (job(), prop::bool::weighted(0.5)).prop_map(|(job, killed)| TraceEvent::Finished {
            time: 0.0,
            job,
            killed,
        }),
        (job(), node()).prop_map(|(job, node)| TraceEvent::Requeued {
            time: 0.0,
            job,
            node,
        }),
        (node(), prop::bool::weighted(0.5)).prop_map(|(node, failed)| TraceEvent::NodeDown {
            time: 0.0,
            node,
            cause: if failed {
                DownCause::Failed
            } else {
                DownCause::Drained
            },
        }),
        node().prop_map(|node| TraceEvent::NodeUp { time: 0.0, node }),
        (any_u64(), 0usize..=usize::MAX).prop_map(|(busy_cores, shared_nodes)| {
            TraceEvent::Occupancy {
                time: 0.0,
                busy_cores,
                shared_nodes,
            }
        }),
    ]
}

fn set_time(e: &mut TraceEvent, t: f64) {
    match e {
        TraceEvent::Submitted { time, .. }
        | TraceEvent::Rejected { time, .. }
        | TraceEvent::Started { time, .. }
        | TraceEvent::Reshape { time, .. }
        | TraceEvent::Finished { time, .. }
        | TraceEvent::Requeued { time, .. }
        | TraceEvent::NodeDown { time, .. }
        | TraceEvent::NodeUp { time, .. }
        | TraceEvent::Occupancy { time, .. } => *time = t,
    }
}

/// Events with non-decreasing times: a start anywhere in ±1e9 s, then
/// steps of zero, sub-microsecond, ordinary and huge sizes.
fn events() -> impl Strategy<Value = Vec<TraceEvent>> {
    let step = prop_oneof![Just(0.0), 0.0..1e-6, 0.0..1e4, 0.0..1e300];
    (
        prop_oneof![Just(0.0), -1e9..1e9],
        prop::collection::vec((step, event()), 0..24),
    )
        .prop_map(|(start, steps)| {
            let mut t: f64 = start;
            steps
                .into_iter()
                .map(|(dt, mut e)| {
                    if (t + dt).is_finite() {
                        t += dt;
                    }
                    set_time(&mut e, t);
                    e
                })
                .collect()
        })
}

fn trace_of(events: Vec<TraceEvent>) -> DecisionTrace {
    let mut trace = DecisionTrace::new();
    for e in events {
        trace.push(e);
    }
    trace
}

/// The JSON of `events` as written, with no order check on the way.
fn json_of(events: &[TraceEvent]) -> String {
    let objects: Vec<String> = events
        .iter()
        .map(|e| {
            let one = trace_of(vec![e.clone()]).to_json();
            one["{\"events\":[".len()..one.len() - "]}".len()].to_string()
        })
        .collect();
    format!("{{\"events\":[{}]}}", objects.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_json_inverts_to_json(events in events()) {
        let trace = trace_of(events);
        let json = trace.to_json();
        prop_assert_eq!(json_of(trace.events()), json.clone());
        prop_assert_eq!(DecisionTrace::parse_json(&json), Ok(trace));
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = DecisionTrace::parse_json(&text);
        let _ = DecisionTrace::parse_json(&format!("{{\"events\":[{text}]}}"));
    }

    #[test]
    fn single_byte_mutations_never_panic(
        events in events(),
        at in 0usize..=usize::MAX,
        byte in 0u8..=255,
    ) {
        let mut bytes = trace_of(events).to_json().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        if let Ok(parsed) = DecisionTrace::parse_json(&String::from_utf8_lossy(&bytes)) {
            // Whatever the reader accepts, the writer reproduces.
            prop_assert_eq!(DecisionTrace::parse_json(&parsed.to_json()), Ok(parsed));
        }
    }

    #[test]
    fn decreasing_time_is_an_error_naming_the_event(
        events in prop::collection::vec(event(), 2..12),
        start in -1e9f64..1e9,
        at in 1usize..=usize::MAX,
        back in 1.0f64..1e6,
    ) {
        let mut events = events;
        let at = at % (events.len() - 1) + 1;
        for e in events.iter_mut() {
            set_time(e, start);
        }
        set_time(&mut events[at], start - back);
        let err = DecisionTrace::parse_json(&json_of(&events)).expect_err("out of order");
        prop_assert!(err.starts_with(&format!("event {at}: time ")), "{}", err);
    }
}
