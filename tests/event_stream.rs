//! Pins the engine's event stream on a saturated co-backfill run.
//!
//! Co-backfill starts jobs beside multi-node co-runners, and each start
//! or finish re-rates the jobs it shares nodes with and re-arms their
//! completions. A re-arm that went missing, or one too many, moves
//! `events_processed` (every superseded completion is still popped and
//! counted) even when every job record stays the same; a changed rate
//! moves the records. So this test pins the event count, the end time's
//! bits and an FNV-1a hash over every job record and every trace event.

use nodeshare::prelude::*;
use std::collections::BTreeSet;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of the `Debug` rendering of each item, in order. `Debug` prints
/// every `f64` in its shortest round-trip form, so equal hashes mean
/// equal bits.
fn hash_all<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(FNV_OFFSET, |h, item| {
        fnv1a(h, format!("{item:?}\n").as_bytes())
    })
}

/// Starts placed beside a co-runner that holds two or more of the new
/// job's nodes: the starts whose co-runner re-rates repeat per node.
fn starts_beside_multi_node_co_runners(trace: &DecisionTrace) -> usize {
    trace
        .events()
        .iter()
        .filter(|e| match e {
            TraceEvent::Started { partners, .. } => {
                let distinct: BTreeSet<JobId> = partners.iter().map(|&(_, co)| co).collect();
                distinct.len() < partners.len()
            }
            _ => false,
        })
        .count()
}

#[test]
fn saturated_cobackfill_event_stream_is_pinned() {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let truth = CoRunTruth::build(&catalog, &model);
    let mut spec = WorkloadSpec::evaluation(&catalog, 7);
    spec.n_jobs = 300;
    spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
    let workload = spec.generate(&catalog);
    let config = SimConfig::new(ClusterSpec::evaluation());
    let mut sched = StrategyConfig::sharing(StrategyKind::CoBackfill).build(&catalog, &model);
    let observe = Observe {
        trace: true,
        ..Observe::default()
    };
    let (out, trace) = simulate(
        &mut workload.source(64),
        &truth,
        sched.as_mut(),
        &config,
        observe,
    )
    .expect("in-memory workloads always deliver");
    let trace = trace.expect("trace requested");

    assert!(out.complete());
    let repeats = starts_beside_multi_node_co_runners(&trace);
    assert!(
        repeats > 0,
        "no start shared two nodes with one co-runner: the seed exercises nothing"
    );
    let pinned = (
        out.events_processed,
        out.end_time.to_bits(),
        hash_all(&out.records),
        hash_all(trace.events()),
        repeats,
    );
    assert_eq!(
        pinned,
        (
            2457,
            4682303092989383756,
            0x173c_23bb_1136_0b3a,
            0xa4ce_3d93_e94c_0f8a,
            106
        ),
        "(events, end-time bits, record hash, trace hash, repeat starts)"
    );
}
