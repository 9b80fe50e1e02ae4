//! Integration tests for the runtime telemetry layer against real
//! policies: a telemetered run must leave the outcome untouched, emit a
//! parseable JSONL stream whose node accounting is conserved, and render
//! the core Prometheus families.

use nodeshare_cluster::{ClusterSpec, NodeSpec};
use nodeshare_core::{Backfill, Pairing, PairingPolicy};
use nodeshare_engine::{
    run, simulate, Observe, Scheduler, SimConfig, SimOutcome, SimTelemetry, TelemetrySample,
};
use nodeshare_perf::{AppCatalog, CoRunTruth, ContentionModel, Predictor};
use nodeshare_workload::{Workload, WorkloadSpec};

fn fixture() -> (Workload, CoRunTruth, SimConfig) {
    let catalog = AppCatalog::trinity();
    let truth = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
    let spec = WorkloadSpec {
        n_jobs: 120,
        ..WorkloadSpec::evaluation(&catalog, 11)
    };
    let workload = spec.generate(&catalog);
    // Default nodes (128 GiB): trinity apps need 18-32 GiB per node, so a
    // tiny-node cluster would reject every job at submission and the run
    // would exercise nothing.
    let mut config = SimConfig::new(ClusterSpec::new(16, NodeSpec::default()));
    config.audit = false;
    (workload, truth, config)
}

/// A run collecting telemetry into `telemetry`.
fn simulate_telemetry(
    w: &Workload,
    truth: &CoRunTruth,
    sched: &mut dyn Scheduler,
    config: &SimConfig,
    telemetry: &SimTelemetry,
) -> SimOutcome {
    let observe = Observe {
        trace: false,
        telemetry: Some(telemetry),
    };
    simulate(&mut w.source(w.len()), truth, sched, config, observe)
        .expect("in-memory workloads always deliver")
        .0
}

fn co_backfill(truth: &CoRunTruth) -> Backfill {
    let _ = truth;
    Backfill::co(Pairing::new(
        PairingPolicy::default_threshold(),
        Predictor::oracle(&AppCatalog::trinity(), &ContentionModel::calibrated()),
    ))
}

#[test]
fn telemetry_does_not_change_the_outcome() {
    let (w, truth, config) = fixture();
    let plain = run(&w, &truth, &mut Backfill::easy(), &config);
    let telemetry = SimTelemetry::new(300.0);
    let telemetered = simulate_telemetry(&w, &truth, &mut Backfill::easy(), &config, &telemetry);
    assert_eq!(plain.records, telemetered.records);
    assert_eq!(plain.end_time, telemetered.end_time);
    assert_eq!(plain.rejected, telemetered.rejected);
}

#[test]
fn jsonl_round_trips_and_conserves_node_counts() {
    let (w, truth, config) = fixture();
    let telemetry = SimTelemetry::new(300.0);
    let out = simulate_telemetry(&w, &truth, &mut Backfill::easy(), &config, &telemetry);
    assert!(out.complete());
    assert!(
        !out.records.is_empty(),
        "fixture must actually run jobs, not reject them all"
    );

    let jsonl = telemetry.jsonl();
    let samples: Vec<TelemetrySample> = jsonl
        .lines()
        .map(|l| TelemetrySample::parse(l).unwrap_or_else(|| panic!("unparseable line: {l}")))
        .collect();
    assert!(
        samples.len() >= 20,
        "expected a dense sample stream, got {}",
        samples.len()
    );
    assert_eq!(samples, telemetry.samples(), "jsonl mirrors the buffer");

    let cores_per_node = config.cluster.node.cores() as u64;
    let mut prev_t = f64::NEG_INFINITY;
    for s in &samples {
        assert!(s.t > prev_t, "timestamps must be strictly increasing");
        prev_t = s.t;
        assert_eq!(s.nodes_total, 16);
        assert_eq!(
            s.nodes_occupied + s.nodes_idle + s.nodes_unavailable,
            s.nodes_total,
            "node accounting must be conserved at t={}",
            s.t
        );
        assert_eq!(
            s.busy_cores,
            s.nodes_occupied * cores_per_node,
            "busy cores follow occupancy_snapshot semantics at t={}",
            s.t
        );
        assert!(s.nodes_shared <= s.nodes_occupied);
        assert!((0.0..=1.0).contains(&s.utilization));
        assert!(s.starts_exclusive + s.starts_shared <= s.decisions);
    }
    let last = samples.last().unwrap();
    assert_eq!(last.completed as usize, out.records.len());
    assert_eq!(last.t, out.end_time, "final sample lands at the end time");
}

#[test]
fn prometheus_exposition_has_all_core_families() {
    let (w, truth, config) = fixture();
    let telemetry = SimTelemetry::new(600.0);
    let out = simulate_telemetry(&w, &truth, &mut Backfill::easy(), &config, &telemetry);
    assert!(out.complete());

    let text = telemetry.prometheus();
    for family in [
        "# TYPE sched_decisions_total counter",
        "# TYPE sched_backfill_candidates_scanned_total counter",
        "# TYPE sched_backfill_scan_depth histogram",
        "# TYPE sim_queue_depth gauge",
        "# TYPE sim_nodes_occupied gauge",
        "# TYPE sim_jobs_started_total counter",
        "# TYPE sim_event_duration_seconds histogram",
        "# TYPE cluster_alloc_duration_seconds histogram",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
    assert!(text.contains("sim_strategy_info{strategy=\"easy-backfill\"} 1"));
    assert!(text.contains(&format!("sim_jobs_completed_total {}", out.records.len())));
    assert!(telemetry.sched.decisions.get() >= out.records.len() as u64);
    assert!(telemetry.registry.family_count() >= 20);
    assert!(
        telemetry.sched.head_started.get() + telemetry.sched.backfill_started.get()
            == telemetry.sched.decisions.get(),
        "every backfill decision is either a head start or a backfill"
    );
}

#[test]
fn pairing_counters_fire_for_sharing_policies() {
    let (w, truth, config) = fixture();
    let telemetry = SimTelemetry::new(600.0);
    let mut sched = co_backfill(&truth);
    let out = simulate_telemetry(&w, &truth, &mut sched, &config, &telemetry);
    assert!(out.complete());
    assert!(
        telemetry.sched.pairing_queries.get() > 0,
        "a sharing policy must exercise the pairing counters"
    );
    assert!(telemetry.sched.pairing_hits.get() <= telemetry.sched.pairing_queries.get());
    let rate = telemetry.sched.pairing_hit_rate();
    assert!((0.0..=1.0).contains(&rate));
    let shared_starts: usize = out.records.iter().filter(|r| r.shared_alloc).count();
    assert!(
        shared_starts > 0,
        "co-backfill should co-allocate something"
    );
    assert!(!telemetry.describe().is_empty());
}
