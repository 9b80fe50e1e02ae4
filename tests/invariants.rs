//! Whole-system property tests: accounting identities that must hold for
//! any workload under any strategy, exercised through the full stack.

use nodeshare::prelude::*;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct RawJob {
    nodes: u32,
    runtime: f64,
    gap: f64,
    app: u8,
    share: bool,
    over: f64,
}

fn raw_job() -> impl Strategy<Value = RawJob> {
    (
        1u32..=8,
        30.0f64..2_000.0,
        0.0f64..600.0,
        0u8..8,
        prop::bool::weighted(0.7),
        1.05f64..3.0,
    )
        .prop_map(|(nodes, runtime, gap, app, share, over)| RawJob {
            nodes,
            runtime,
            gap,
            app,
            share,
            over,
        })
}

fn build(raw: Vec<RawJob>) -> Workload {
    let mut t = 0.0;
    Workload::new(
        raw.into_iter()
            .enumerate()
            .map(|(i, r)| {
                t += r.gap;
                JobSpec {
                    malleable: Default::default(),
                    id: nodeshare::cluster::JobId(i as u64),
                    app: AppId(r.app),
                    nodes: r.nodes,
                    submit: t,
                    runtime_exclusive: r.runtime,
                    walltime_estimate: r.runtime * r.over,
                    mem_per_node_mib: 512,
                    share_eligible: r.share,
                    user: i as u32 % 9,
                }
            })
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Accounting identities, checked through the whole stack for every
    /// strategy in the lineup:
    /// * busy time is bounded by makespan × cores and by the series max,
    /// * delivered work never exceeds busy capacity scaled by the best
    ///   possible sharing factor (2×),
    /// * shared time is a subset of busy time,
    /// * per-job shared node-seconds are consistent with occupancy.
    #[test]
    fn accounting_identities_hold(raw in prop::collection::vec(raw_job(), 1..20)) {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        let matrix = CoRunTruth::build(&catalog, &model);
        let cluster = ClusterSpec::new(12, nodeshare::cluster::NodeSpec::tiny());
        let workload = build(raw);
        for cfg in StrategyConfig::lineup() {
            let mut sched = cfg.build(&catalog, &model);
            let out = nodeshare::engine::run(
                &workload, &matrix, sched.as_mut(), &SimConfig::new(cluster),
            );
            prop_assert!(out.complete(), "{}", cfg.label());
            let m = out.metrics(&cluster);
            let cores = cluster.total_cores() as f64;

            prop_assert!(out.busy_core_seconds <= m.makespan * cores + 1e-6);
            prop_assert!(out.shared_core_seconds <= out.busy_core_seconds + 1e-6);
            prop_assert!(out.busy_cores.max_value() <= cores + 1e-9);
            prop_assert!(m.utilization <= 1.0 + 1e-9);
            // Work delivered can never exceed 2× busy capacity (SMT-2).
            prop_assert!(m.work_core_seconds <= 2.0 * out.busy_core_seconds + 1e-6);

            let cores_per_node = cluster.node.cores() as f64;
            let shared_by_records: f64 = out
                .records
                .iter()
                .map(|r| r.shared_node_seconds)
                .sum();
            // Every shared node-second involves exactly two jobs, and the
            // engine's series counts the node once.
            let shared_by_series = out.shared_core_seconds / cores_per_node;
            prop_assert!(
                (shared_by_records - 2.0 * shared_by_series).abs() < 1e-3,
                "{}: records say {shared_by_records}, series says {shared_by_series}",
                cfg.label()
            );
        }
    }

    /// The replay auditor is the oracle on hostile inputs: jobs larger
    /// than the whole cluster (rejected at submission) and walltime
    /// *under*-estimates (killed at the limit) must still satisfy every
    /// conservation and placement invariant, for every strategy.
    #[test]
    fn audit_holds_with_rejections_and_kills(raw in prop::collection::vec(raw_job(), 1..15)) {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        let matrix = CoRunTruth::build(&catalog, &model);
        let cluster = ClusterSpec::new(12, nodeshare::cluster::NodeSpec::tiny());
        // Stretch sizes past the machine (rejections) and shrink some
        // estimates below the true runtime (walltime kills).
        let workload = build(
            raw.into_iter()
                .enumerate()
                .map(|(i, mut r)| {
                    r.nodes += (i as u32 % 3) * 8; // up to 17 > 12 nodes
                    r.over = 0.3 + (i as f64 * 0.37) % 2.7; // under- and over-estimates
                    r
                })
                .collect(),
        );
        let mut config = SimConfig::new(cluster);
        config.audit = false; // audited explicitly, so failures surface as prop errors

        for cfg in StrategyConfig::lineup() {
            let mut sched = cfg.build(&catalog, &model);
            let observe = Observe { trace: true, ..Observe::default() };
            let (out, trace) = simulate(
                &mut workload.source(workload.len()), &matrix, sched.as_mut(), &config, observe,
            )
            .expect("in-memory workloads always deliver");
            let trace = trace.expect("trace requested");
            prop_assert!(out.complete(), "{}", cfg.label());
            let audit = nodeshare::engine::Auditor::new(&matrix, &config)
                .audit(&trace, &out);
            match audit {
                Ok(summary) => {
                    prop_assert_eq!(
                        out.records.len() + out.rejected.len(),
                        workload.len(),
                        "{}", cfg.label()
                    );
                    prop_assert_eq!(summary.killed,
                        out.records.iter().filter(|r| r.killed).count());
                }
                Err(violations) => {
                    return Err(TestCaseError::fail(format!(
                        "{}: {} violation(s), first: {}",
                        cfg.label(), violations.len(), violations[0]
                    )));
                }
            }
        }
    }

    /// The queue-depth series returns to zero and every record appears
    /// exactly once.
    #[test]
    fn queue_drains_and_records_are_unique(raw in prop::collection::vec(raw_job(), 1..15)) {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        let matrix = CoRunTruth::build(&catalog, &model);
        let cluster = ClusterSpec::new(12, nodeshare::cluster::NodeSpec::tiny());
        let workload = build(raw);
        let cfg = StrategyConfig::sharing(StrategyKind::CoBackfill);
        let mut sched = cfg.build(&catalog, &model);
        let out = nodeshare::engine::run(
            &workload, &matrix, sched.as_mut(), &SimConfig::new(cluster),
        );
        prop_assert_eq!(out.queue_depth.value_at(out.end_time + 1.0), 0.0);
        let mut ids: Vec<_> = out.records.iter().map(|r| r.id).collect();
        let n = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);
        prop_assert_eq!(n, workload.len());
    }
}
