//! Proofs that trace-derived reports tell the truth.
//!
//! * **Differential**: the wait/makespan/utilization numbers the report
//!   derives from a trace must equal what the engine's own records give
//!   [`nodeshare_metrics::CampaignMetrics`] — for every strategy in the
//!   lineup, on a real saturated workload.
//! * **Schema**: the Perfetto export must be valid trace-event JSON —
//!   time-sorted, every duration slice non-negative and on a named
//!   node-lane track, decision instants and counters well-formed.
//! * **Round-trip**: every lineup trace reads back from its JSON form
//!   unchanged, and a report built from the JSON file form of a trace
//!   must be identical to one built from the live trace.

use nodeshare_cluster::ClusterSpec;
use nodeshare_core::StrategyConfig;
use nodeshare_engine::{
    simulate, DecisionTrace, JsonValue, Observe, Scheduler, SimConfig, SimOutcome,
};
use nodeshare_perf::{AppCatalog, CoRunTruth, ContentionModel};
use nodeshare_report::{Report, ReportOptions};
use nodeshare_workload::{ArrivalProcess, Workload, WorkloadSpec};

fn saturated_workload(catalog: &AppCatalog, seed: u64, n_jobs: usize) -> Workload {
    let mut spec = WorkloadSpec::evaluation(catalog, seed);
    spec.n_jobs = n_jobs;
    spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
    spec.generate(catalog)
}

/// A run returning its decision trace.
fn simulate_traced(
    workload: &Workload,
    matrix: &CoRunTruth,
    sched: &mut dyn Scheduler,
    config: &SimConfig,
) -> (SimOutcome, DecisionTrace) {
    let observe = Observe {
        trace: true,
        ..Observe::default()
    };
    let (out, trace) = simulate(
        &mut workload.source(workload.len()),
        matrix,
        sched,
        config,
        observe,
    )
    .expect("in-memory workloads always deliver");
    (out, trace.expect("trace requested"))
}

/// Trace-derived aggregates equal the engine's record-derived metrics,
/// across the whole strategy lineup.
#[test]
fn report_aggregates_match_campaign_metrics() {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let cluster = ClusterSpec::evaluation();
    let mut config = SimConfig::new(cluster);
    config.audit = false;

    let workload = saturated_workload(&catalog, 17, 70);
    for cfg in StrategyConfig::lineup() {
        let mut sched = cfg.build(&catalog, &model);
        let (out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);
        assert!(out.complete(), "{}", cfg.label());
        assert_eq!(
            DecisionTrace::parse_json(&trace.to_json()).as_ref(),
            Ok(&trace),
            "{}: parse_json must invert to_json",
            cfg.label()
        );
        let metrics = out.metrics(&cluster);

        let report = Report::from_trace(&trace, &ReportOptions::default());
        let a = &report.analysis;

        assert_eq!(
            a.finished().count(),
            out.records.len(),
            "{}: finished-job population must match the records",
            cfg.label()
        );
        assert_eq!(
            a.finished().filter(|s| s.killed).count(),
            metrics.killed,
            "{}",
            cfg.label()
        );
        assert_eq!(
            a.spans.iter().map(|s| u64::from(s.requeues)).sum::<u64>(),
            metrics.total_restarts,
            "{}",
            cfg.label()
        );

        // Wait statistics: same population, same definition (final
        // start − submit), so equality is exact, not approximate.
        let w = a.wait_summary();
        assert_eq!(w.n, metrics.wait.n, "{}", cfg.label());
        for (got, want, name) in [
            (w.mean, metrics.wait.mean, "mean"),
            (w.median, metrics.wait.median, "median"),
            (w.p95, metrics.wait.p95, "p95"),
            (w.min, metrics.wait.min, "min"),
            (w.max, metrics.wait.max, "max"),
        ] {
            assert!(
                (got - want).abs() <= 1e-9,
                "{}: wait {name} from trace {got} != records {want}",
                cfg.label()
            );
        }

        assert!(
            (a.makespan() - metrics.makespan).abs() <= 1e-9,
            "{}: makespan {} != {}",
            cfg.label(),
            a.makespan(),
            metrics.makespan
        );

        // Busy core-seconds: the trace's occupancy events integrated vs
        // the engine's own running integration. Same step function,
        // different summation order — allow float-accumulation noise.
        let busy = a.busy_core_seconds();
        assert!(
            (busy - out.busy_core_seconds).abs() <= 1e-6 * out.busy_core_seconds.max(1.0),
            "{}: busy core-seconds {busy} != {}",
            cfg.label(),
            out.busy_core_seconds
        );
        let util = a.utilization(cluster.total_cores());
        assert!(
            (util - metrics.utilization).abs() <= 1e-6,
            "{}: utilization {util} != {}",
            cfg.label(),
            metrics.utilization
        );

        // Sharing strategies show co-scheduled starts in the
        // attribution; exclusive baselines must not.
        let co_scheduled: usize = a
            .reason_counts()
            .iter()
            .filter(|(r, _)| r == "co-scheduled")
            .map(|(_, c)| *c)
            .sum();
        if trace.shared_start_count() == 0 {
            assert_eq!(co_scheduled, 0, "{}", cfg.label());
        }
        assert_eq!(
            a.shared_starts(),
            trace.shared_start_count(),
            "{}",
            cfg.label()
        );
    }
}

/// A report built from the serialized trace equals one built from the
/// live trace: the JSON writer/reader round-trips every number
/// bit-exactly (Rust float Display is shortest-round-trip).
#[test]
fn json_and_in_process_reports_are_identical() {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;

    let workload = saturated_workload(&catalog, 5, 50);
    let cfg = &StrategyConfig::lineup()[0];
    let mut sched = cfg.build(&catalog, &model);
    let (_, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);

    let opts = ReportOptions::default();
    let from_live = Report::from_trace(&trace, &opts);
    let from_json = Report::from_json(&trace.to_json(), &opts).expect("trace JSON parses");
    assert_eq!(from_live.perfetto_json, from_json.perfetto_json);
    assert_eq!(from_live.markdown, from_json.markdown);
}

/// Structural validation of the Perfetto export on a real sharing run.
#[test]
fn perfetto_export_is_schema_valid() {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;

    let workload = saturated_workload(&catalog, 29, 60);
    // Pick a sharing strategy so co-resident lanes actually appear.
    let cfg = StrategyConfig::lineup()
        .into_iter()
        .find(|c| c.kind.shares())
        .expect("lineup has a sharing strategy");
    let mut sched = cfg.build(&catalog, &model);
    let (_, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);
    assert!(
        trace.shared_start_count() > 0,
        "workload must exercise sharing"
    );

    let report = Report::from_trace(&trace, &ReportOptions::default());
    let doc = JsonValue::parse(&report.perfetto_json).expect("export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts = i64::MIN;
    let mut named_tracks = std::collections::BTreeSet::new();
    let mut slice_tracks = std::collections::BTreeSet::new();
    let mut slices = 0usize;
    let mut instants = 0usize;
    let mut counters = 0usize;

    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
        assert!(e.get("pid").and_then(JsonValue::as_u64).is_some(), "pid");
        assert!(e.get("name").and_then(JsonValue::as_str).is_some(), "name");
        match ph {
            "M" => {
                // Metadata precedes all timed events.
                assert_eq!(last_ts, i64::MIN, "metadata must lead the file");
                if e.get("name").and_then(JsonValue::as_str) == Some("thread_name") {
                    named_tracks.insert(e.get("tid").and_then(JsonValue::as_u64).expect("tid"));
                }
            }
            ph => {
                let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts") as i64;
                assert!(ts >= last_ts.max(0), "timestamps must be sorted");
                last_ts = ts;
                match ph {
                    "X" => {
                        slices += 1;
                        let dur = e.get("dur").and_then(JsonValue::as_f64).expect("dur");
                        assert!(dur >= 0.0, "durations are non-negative");
                        let tid = e.get("tid").and_then(JsonValue::as_u64).expect("tid");
                        assert_ne!(tid, 0, "job slices live on node lanes, not tid 0");
                        slice_tracks.insert(tid);
                    }
                    "i" => {
                        instants += 1;
                        assert!(e.get("s").and_then(JsonValue::as_str).is_some(), "scope");
                    }
                    "C" => {
                        counters += 1;
                        assert!(
                            e.get("args")
                                .and_then(|a| a.get("value"))
                                .and_then(JsonValue::as_f64)
                                .is_some(),
                            "counter value"
                        );
                    }
                    other => panic!("unexpected phase {other:?}"),
                }
            }
        }
    }

    // Every job start becomes one decision instant; every (job, node)
    // pair becomes exactly one duration slice.
    let expected_slices: usize = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            nodeshare_engine::TraceEvent::Started { nodes, .. } => Some(nodes.len()),
            _ => None,
        })
        .sum();
    assert_eq!(slices, expected_slices);
    assert!(instants >= trace.starts().count());
    assert!(counters > 0, "occupancy/queue-depth counters present");

    // Every track that carries a slice is named via thread_name
    // metadata, and co-residency produced at least one lane-1 track
    // (tid % 16 == 2 under the lane-tid scheme).
    for tid in &slice_tracks {
        assert!(
            named_tracks.contains(tid),
            "slice track {tid} has no thread_name metadata"
        );
    }
    assert!(
        slice_tracks.iter().any(|t| t % 16 == 2),
        "sharing run must stack a job on lane 1 of some node"
    );
}
