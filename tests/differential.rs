//! Differential tests across the full strategy lineup, with the replay
//! auditor as the shared oracle, plus fault-injection tests proving the
//! auditor actually catches accounting bugs.

use nodeshare::cluster::NodeId;
use nodeshare::prelude::*;

fn world() -> (AppCatalog, ContentionModel, CoRunTruth) {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    (catalog, model, matrix)
}

/// A deep-queue campaign: jobs arrive faster than the machine drains
/// them, so throughput (not arrival timing) limits the makespan. This is
/// the regime where node sharing pays.
fn saturated_workload(catalog: &AppCatalog, seed: u64, n_jobs: usize) -> Workload {
    let mut spec = WorkloadSpec::evaluation(catalog, seed);
    spec.n_jobs = n_jobs;
    spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
    spec.generate(catalog)
}

/// Runs `workload` through the engine's one entry point, observing what
/// `observe` asks for.
fn simulate_with(
    workload: &Workload,
    matrix: &CoRunTruth,
    sched: &mut dyn Scheduler,
    config: &SimConfig,
    observe: Observe<'_>,
) -> (SimOutcome, Option<DecisionTrace>) {
    simulate(
        &mut workload.source(workload.len()),
        matrix,
        sched,
        config,
        observe,
    )
    .expect("in-memory workloads always deliver")
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
    let (out, trace) = simulate_with(workload, matrix, sched, config, observe);
    (out, trace.expect("trace requested"))
}

/// A run collecting telemetry into `tele`.
fn simulate_telemetry(
    workload: &Workload,
    matrix: &CoRunTruth,
    sched: &mut dyn Scheduler,
    config: &SimConfig,
    tele: &nodeshare::engine::SimTelemetry,
) -> SimOutcome {
    let observe = Observe {
        trace: false,
        telemetry: Some(tele),
    };
    simulate_with(workload, matrix, sched, config, observe).0
}

/// Every strategy in the lineup, on shared seeds, passes a full replay
/// audit (including the queue-order justification check) and schedules
/// exactly the same job set.
#[test]
fn lineup_passes_audit_on_shared_seeds() {
    let (catalog, model, matrix) = world();
    let cluster = ClusterSpec::evaluation();
    let mut config = SimConfig::new(cluster);
    config.audit = false; // audited explicitly below

    for seed in [11, 23] {
        let workload = saturated_workload(&catalog, seed, 80);
        let mut scheduled: Option<Vec<JobId>> = None;
        for cfg in StrategyConfig::lineup() {
            let mut sched = cfg.build(&catalog, &model);
            let (out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);
            assert!(out.complete(), "{} seed {seed}", cfg.label());

            let summary = Auditor::new(&matrix, &config)
                .with_queue_order_check()
                .audit(&trace, &out)
                .unwrap_or_else(|vs| {
                    panic!(
                        "{} seed {seed}: {} violation(s), first: {}",
                        cfg.label(),
                        vs.len(),
                        vs[0]
                    )
                });
            assert_eq!(
                summary.starts + out.rejected.len(),
                workload.len() + summary.requeues
            );

            // Same seed => same job set scheduled, whatever the order.
            let mut ids: Vec<JobId> = out.records.iter().map(|r| r.id).collect();
            ids.sort();
            match &scheduled {
                None => scheduled = Some(ids),
                Some(prev) => assert_eq!(prev, &ids, "{} seed {seed}", cfg.label()),
            }
        }
    }
}

/// Exclusive strategies must never co-locate: zero shared starts in the
/// trace and zero shared core-seconds in the outcome.
#[test]
fn exclusive_strategies_never_share() {
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let workload = saturated_workload(&catalog, 7, 60);

    for cfg in StrategyConfig::lineup() {
        if cfg.kind.shares() {
            continue;
        }
        let mut sched = cfg.build(&catalog, &model);
        let (out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);
        let summary = Auditor::new(&matrix, &config)
            .audit(&trace, &out)
            .unwrap_or_else(|vs| panic!("{}: {}", cfg.label(), vs[0]));
        assert_eq!(summary.shared_starts, 0, "{}", cfg.label());
        assert_eq!(out.shared_core_seconds, 0.0, "{}", cfg.label());
        assert!(
            out.records.iter().all(|r| !r.shared_alloc),
            "{}",
            cfg.label()
        );
    }
}

/// On a saturated campaign the sharing strategies dominate their
/// exclusive baselines: co-backfill finishes no later than FCFS and
/// actually co-locates work.
#[test]
fn sharing_dominates_exclusive_when_saturated() {
    let (catalog, model, matrix) = world();
    let cluster = ClusterSpec::evaluation();
    let mut config = SimConfig::new(cluster);
    config.audit = false;

    for seed in [3, 19] {
        let workload = saturated_workload(&catalog, seed, 100);

        let run_one = |cfg: &StrategyConfig| {
            let mut sched = cfg.build(&catalog, &model);
            let (out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);
            let summary = Auditor::new(&matrix, &config)
                .audit(&trace, &out)
                .unwrap_or_else(|vs| panic!("{}: {}", cfg.label(), vs[0]));
            (out.metrics(&cluster).makespan, summary.shared_starts)
        };

        let (fcfs_makespan, _) = run_one(&StrategyConfig::exclusive(StrategyKind::Fcfs));
        let (co_makespan, co_shared) = run_one(&StrategyConfig::sharing(StrategyKind::CoBackfill));

        assert!(co_shared > 0, "seed {seed}: co-backfill never co-located");
        assert!(
            co_makespan <= fcfs_makespan + 1e-6,
            "seed {seed}: co-backfill makespan {co_makespan} worse than fcfs {fcfs_makespan}"
        );
    }
}

/// The optimized schedulers (dense pairing tables, cached reservations,
/// allocation-free scans) must be **bit-identical** to the retained
/// pre-optimization implementations: the same decision trace and the
/// same outcome, for every strategy in the lineup (plus the
/// co-backfill-only ablation) across several saturated seeds.
#[test]
fn optimized_schedulers_match_reference_bit_for_bit() {
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;

    let mut lineup = StrategyConfig::lineup();
    lineup.push(StrategyConfig::sharing(StrategyKind::CoBackfillOnly));
    for seed in [2, 5, 11, 17, 23] {
        let workload = saturated_workload(&catalog, seed, 70);
        for cfg in &lineup {
            let mut fast = cfg.build(&catalog, &model);
            let (out_fast, trace_fast) =
                simulate_traced(&workload, &matrix, fast.as_mut(), &config);
            let mut refr = cfg.build_reference(&catalog, &model);
            let (out_ref, trace_ref) = simulate_traced(&workload, &matrix, refr.as_mut(), &config);
            assert_eq!(
                trace_fast.events().len(),
                trace_ref.events().len(),
                "{} seed {seed}: trace lengths diverge",
                cfg.label()
            );
            assert!(
                trace_fast == trace_ref,
                "{} seed {seed}: decision traces diverge",
                cfg.label()
            );
            assert!(
                out_fast == out_ref,
                "{} seed {seed}: outcomes diverge",
                cfg.label()
            );
        }
    }
}

/// The malleable twin of the bit-for-bit check: with 35% of jobs
/// width-malleable (perf_baseline's adaptive mix), `Adaptive`'s shrink
/// and grow decisions must come out identical whether its EASY core is
/// the optimized backfill or the reference oracle.
#[test]
fn adaptive_matches_reference_on_malleable_workloads() {
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let cfg = StrategyConfig::exclusive(StrategyKind::Adaptive);

    let mut reshapes = 0;
    for seed in [2, 5, 11, 17, 23] {
        let mut spec = WorkloadSpec::evaluation(&catalog, seed);
        spec.n_jobs = 70;
        spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
        spec.malleable_fraction = 0.35;
        let workload = spec.generate(&catalog);
        let mut fast = cfg.build(&catalog, &model);
        let (out_fast, trace_fast) = simulate_traced(&workload, &matrix, fast.as_mut(), &config);
        let mut refr = cfg.build_reference(&catalog, &model);
        let (out_ref, trace_ref) = simulate_traced(&workload, &matrix, refr.as_mut(), &config);
        assert!(
            trace_fast == trace_ref,
            "seed {seed}: decision traces diverge"
        );
        assert!(out_fast == out_ref, "seed {seed}: outcomes diverge");
        reshapes += trace_fast
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Reshape { .. }))
            .count();
    }
    assert!(reshapes > 0, "no seed exercised the reshape path");
}

/// The scheduler counters that describe decisions rather than the work
/// spent reaching them: how many starts, of which kind, and where each
/// backfill scan stopped (the scanned total and the scan-depth histogram).
fn decision_counters(tele: &nodeshare::engine::SimTelemetry) -> [(&'static str, u64); 6] {
    let s = &tele.sched;
    [
        ("decisions", s.decisions.get()),
        ("head_started", s.head_started.get()),
        ("backfill_started", s.backfill_started.get()),
        ("backfill_scanned", s.backfill_scanned.get()),
        ("backfill_scan_depth count", s.backfill_scan_depth.count()),
        // Depths are whole numbers, so the sum converts exactly.
        (
            "backfill_scan_depth sum",
            s.backfill_scan_depth.sum() as u64,
        ),
    ]
}

/// The optimized paths must report the *same decision telemetry* as the
/// reference, with the same cached scan that runs unobserved: attaching a
/// sink may not switch off the planner's memo or its early exits. The
/// pairing counters count the evaluations actually performed, so they
/// match the reference only where the memo never engages (the 60-job
/// campaign) and must come out strictly smaller in a saturated one.
#[test]
fn optimized_schedulers_match_reference_telemetry() {
    use nodeshare::engine::SimTelemetry;
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let run_both = |cfg: &StrategyConfig, workload: &Workload| {
        let tele_fast = SimTelemetry::new(300.0);
        let tele_ref = SimTelemetry::new(300.0);
        let mut fast = cfg.build(&catalog, &model);
        let out_fast = simulate_telemetry(workload, &matrix, fast.as_mut(), &config, &tele_fast);
        let mut refr = cfg.build_reference(&catalog, &model);
        let out_ref = simulate_telemetry(workload, &matrix, refr.as_mut(), &config, &tele_ref);
        assert!(out_fast == out_ref, "{}: outcomes diverge", cfg.label());
        for ((name, a), (_, b)) in decision_counters(&tele_fast)
            .into_iter()
            .zip(decision_counters(&tele_ref))
        {
            assert_eq!(a, b, "{}: telemetry counter {name} diverges", cfg.label());
        }
        (tele_fast, tele_ref)
    };

    let workload = saturated_workload(&catalog, 31, 60);
    for cfg in [
        StrategyConfig::sharing(StrategyKind::CoFirstFit),
        StrategyConfig::sharing(StrategyKind::CoBackfill),
        StrategyConfig::sharing(StrategyKind::CoBackfillOnly),
        // Conservative's fast path skips re-planning via its memos; the
        // engine-side decision counter must not notice.
        StrategyConfig::exclusive(StrategyKind::Conservative),
    ] {
        let (tele_fast, tele_ref) = run_both(&cfg, &workload);
        for (name, a, b) in [
            (
                "pairing_queries",
                tele_fast.sched.pairing_queries.get(),
                tele_ref.sched.pairing_queries.get(),
            ),
            (
                "pairing_hits",
                tele_fast.sched.pairing_hits.get(),
                tele_ref.sched.pairing_hits.get(),
            ),
        ] {
            assert_eq!(a, b, "{}: telemetry counter {name} diverges", cfg.label());
        }
    }

    let workload = saturated_workload(&catalog, 31, 400);
    for cfg in [
        StrategyConfig::sharing(StrategyKind::CoFirstFit),
        StrategyConfig::sharing(StrategyKind::CoBackfill),
        StrategyConfig::sharing(StrategyKind::CoBackfillOnly),
    ] {
        let (tele_fast, tele_ref) = run_both(&cfg, &workload);
        let (fast, refr) = (
            tele_fast.sched.pairing_queries.get(),
            tele_ref.sched.pairing_queries.get(),
        );
        assert!(
            fast < refr,
            "{}: observed fast path evaluated {fast} pairings, reference {refr}; \
             the memo must stay on with telemetry attached",
            cfg.label()
        );
    }
}

/// The most jobs any node hosts when a shared start is applied,
/// replayed from the trace's starts and ends.
fn deepest_stack(trace: &DecisionTrace) -> usize {
    use std::collections::BTreeMap;
    let mut held: BTreeMap<JobId, Vec<NodeId>> = BTreeMap::new();
    let mut residents: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut deepest = 0;
    for event in trace.events() {
        match event {
            TraceEvent::Started {
                job, nodes, mode, ..
            } => {
                if *mode == ShareMode::Shared {
                    deepest = deepest.max(residents.values().copied().max().unwrap_or(0));
                }
                for n in nodes {
                    *residents.entry(*n).or_default() += 1;
                }
                held.insert(*job, nodes.clone());
            }
            TraceEvent::Finished { job, .. } | TraceEvent::Requeued { job, .. } => {
                for n in held.remove(job).unwrap_or_default() {
                    *residents.entry(n).or_default() -= 1;
                }
            }
            _ => {}
        }
    }
    deepest
}

/// Shared placement beyond the plain SMT-2 case: the duration-match
/// overlap filter (θ = 0.5) on the evaluation cluster, and resident
/// stacks deeper than one on an SMT-4 cluster, priced by the n-way
/// oracle (which admits no triples but evaluates every pair as a stack)
/// and by the pairwise class-based predictor (which admits triples).
/// Every sharing strategy must keep the reference's traces and outcomes
/// on each saturated seed, and each SMT-4 variant must reach its stack
/// depth: a shared start while a node hosts two jobs walks a two-deep
/// stack, and three jobs on a node means a triple was admitted. The reference counts every pairing
/// evaluation; the fast path skips those its failure memo and early
/// exits prove futile, which on SMT-4 happens even at 60 jobs. So its
/// `(pairing_queries, pairing_hits)` are bounded by the reference's on
/// every run and pinned exactly, summed over the seeds.
#[test]
fn shared_placement_matches_reference_with_duration_match_and_deep_stacks() {
    use nodeshare::engine::SimTelemetry;
    let (catalog, model, matrix) = world();
    let smt4 = ClusterSpec::new(
        128,
        NodeSpec {
            smt: 4,
            ..NodeSpec::trinity_like()
        },
    );
    let mut theta_changed = false;
    // Pinned (pairing_queries, pairing_hits) for co-backfill,
    // co-backfill-only and co-first-fit.
    for (cluster, predictor, theta, depth, pinned) in [
        (
            ClusterSpec::evaluation(),
            PredictorKind::ClassBased,
            Some(0.5),
            2,
            [(66_699, 3_970), (72_967, 7_173), (41_336, 2_113)],
        ),
        (
            smt4,
            PredictorKind::NWayOracle,
            None,
            2,
            [(68_143, 4_941), (61_955, 5_782), (37_108, 3_017)],
        ),
        (
            smt4,
            PredictorKind::ClassBased,
            None,
            3,
            [(36_064, 4_106), (61_530, 10_006), (28_401, 2_473)],
        ),
    ] {
        let mut deepest = 0;
        let mut config = SimConfig::new(cluster);
        config.audit = false;
        let kinds = [
            StrategyKind::CoBackfill,
            StrategyKind::CoBackfillOnly,
            StrategyKind::CoFirstFit,
        ];
        for (kind, pinned) in kinds.into_iter().zip(pinned) {
            let mut cfg = StrategyConfig::sharing(kind);
            cfg.predictor = predictor;
            cfg.duration_match = theta;
            let mut counted = (0, 0);
            for seed in [3, 8, 19, 29] {
                let workload = saturated_workload(&catalog, seed, 60);
                let run = |sched: &mut dyn Scheduler| {
                    let tele = SimTelemetry::new(300.0);
                    let observe = Observe {
                        trace: true,
                        telemetry: Some(&tele),
                    };
                    let (out, trace) = simulate_with(&workload, &matrix, sched, &config, observe);
                    let counters = (
                        tele.sched.pairing_queries.get(),
                        tele.sched.pairing_hits.get(),
                    );
                    (out, trace.expect("trace requested"), counters)
                };
                let case = format!(
                    "{} smt{} {predictor:?} θ={theta:?} seed {seed}",
                    cfg.label(),
                    cluster.node.smt
                );
                let (out_fast, trace_fast, counters_fast) =
                    run(cfg.build(&catalog, &model).as_mut());
                let (out_ref, trace_ref, counters_ref) =
                    run(cfg.build_reference(&catalog, &model).as_mut());
                assert!(trace_fast == trace_ref, "{case}: decision traces diverge");
                assert!(out_fast == out_ref, "{case}: outcomes diverge");
                assert!(
                    counters_fast.0 <= counters_ref.0 && counters_fast.1 <= counters_ref.1,
                    "{case}: pairing counters {counters_fast:?} exceed the reference's \
                     {counters_ref:?}"
                );
                counted.0 += counters_fast.0;
                counted.1 += counters_fast.1;
                deepest = deepest.max(deepest_stack(&trace_fast));
                if theta.is_some() {
                    let mut plain = cfg;
                    plain.duration_match = None;
                    let (_, trace_plain, _) = run(plain.build(&catalog, &model).as_mut());
                    theta_changed |= trace_plain != trace_fast;
                }
            }
            assert_eq!(
                counted,
                pinned,
                "{} smt{} {predictor:?} θ={theta:?}: (pairing_queries, pairing_hits) \
                 summed over seeds",
                cfg.label(),
                cluster.node.smt
            );
        }
        assert!(
            deepest >= depth,
            "smt{} {predictor:?}: no shared start saw a node hosting {depth} jobs",
            cluster.node.smt
        );
    }
    assert!(theta_changed, "θ = 0.5 never changed a schedule");
}

/// The incremental conservative path (version-keyed profile base,
/// in-place reservation splicing, cross-pass prefix memo) must be
/// bit-identical to the from-scratch reference on **every workload
/// mix**, not just the saturated regime: trace, outcome, and records.
#[test]
fn conservative_matches_reference_on_every_workload_mix() {
    use nodeshare::workload::Preset;
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let cfg = StrategyConfig::exclusive(StrategyKind::Conservative);

    for preset in Preset::ALL {
        for seed in [2, 5, 11, 17, 23] {
            let mut spec = preset.spec(&catalog, seed);
            spec.n_jobs = 60;
            let workload = spec.generate(&catalog);

            let mut fast = cfg.build(&catalog, &model);
            let (out_fast, trace_fast) =
                simulate_traced(&workload, &matrix, fast.as_mut(), &config);
            let mut refr = cfg.build_reference(&catalog, &model);
            let (out_ref, trace_ref) = simulate_traced(&workload, &matrix, refr.as_mut(), &config);

            assert!(
                trace_fast == trace_ref,
                "{preset:?} seed {seed}: decision traces diverge"
            );
            assert!(
                out_fast == out_ref,
                "{preset:?} seed {seed}: outcomes diverge"
            );
            assert!(out_fast.complete(), "{preset:?} seed {seed}");
        }
    }
}

/// Wraps the optimized conservative scheduler and corrupts its
/// incremental profile once, the first time the clock reaches `at`.
struct CorruptedConservative {
    inner: Conservative,
    at: f64,
    fired: bool,
}

impl Scheduler for CorruptedConservative {
    fn name(&self) -> &'static str {
        "conservative-backfill"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        if !self.fired && ctx.now >= self.at {
            self.fired = true;
            self.inner.corrupt_next_pass(1);
        }
        self.inner.schedule(ctx)
    }
}

/// Acceptance check for the incremental profile: corrupt one entry of
/// the timeline mid-campaign (one free node vanishes from the anchor
/// step) and the replay auditor names the violated reservation
/// invariant. The corrupted anchor makes the fast path believe the
/// 3-node head cannot start now, so a later 1-node job overtakes it
/// while enough idle nodes sit free — exactly the "queue-order"
/// justification check.
#[test]
fn auditor_catches_corrupted_incremental_profile() {
    use nodeshare::workload::{JobSpec, Workload};
    let (_catalog, _model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::new(4, NodeSpec::tiny()));
    config.audit = false;

    let job = |id: u64, nodes: u32, submit: f64, runtime: f64, est: f64| JobSpec {
        malleable: Default::default(),
        id: JobId(id),
        app: AppId(0),
        nodes,
        submit,
        runtime_exclusive: runtime,
        walltime_estimate: est,
        mem_per_node_mib: 64,
        share_eligible: false,
        user: 0,
    };
    // j0 keeps one node until t=300 (estimated free at 600). The 3-node
    // j1 fits the 3 idle nodes the moment it arrives at t=10 — unless
    // the profile lies about a free node, in which case j2 (1 node,
    // arriving just after) jumps it.
    let workload = Workload::new(vec![
        job(0, 1, 0.0, 300.0, 600.0),
        job(1, 3, 10.0, 100.0, 200.0),
        job(2, 1, 11.0, 50.0, 100.0),
    ])
    .unwrap();

    // Control: the untampered optimized path passes the queue-order audit.
    let mut clean = Conservative::new();
    let (out, trace) = simulate_traced(&workload, &matrix, &mut clean, &config);
    assert!(out.complete());
    Auditor::new(&matrix, &config)
        .with_queue_order_check()
        .audit(&trace, &out)
        .expect("untampered incremental profile must audit clean");

    // Corrupt the anchor entry of the incremental profile at t=10.
    let mut sched = CorruptedConservative {
        inner: Conservative::new(),
        at: 10.0,
        fired: false,
    };
    let (out, trace) = simulate_traced(&workload, &matrix, &mut sched, &config);
    assert!(sched.fired);
    assert!(out.complete(), "corruption delays but must not wedge");

    let violations = Auditor::new(&matrix, &config)
        .with_queue_order_check()
        .audit(&trace, &out)
        .expect_err("corrupted profile must fail the replay audit");
    let v = violations
        .iter()
        .find(|v| v.invariant == "queue-order")
        .expect("the violated reservation invariant must be named");
    assert_eq!(v.job, Some(JobId(2)), "the overtaking job is flagged");
    let msg = v.to_string();
    assert!(
        msg.contains("queue-order") && msg.contains("jumped waiting head job1"),
        "violation must name the invariant and the delayed head: {msg}"
    );
}

/// The parallel campaign orchestrator must be **bit-identical** to the
/// serial reference: the same campaign grid run under `--serial`,
/// `--jobs 1`, and `--jobs 8` produces byte-identical emitted tables and
/// identical per-cell outcomes and decision-trace hashes, across three
/// replication seeds. This is the "two roads" contract end to end —
/// parallelizing the campaign must not change a single byte of the
/// science.
#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    use nodeshare_bench::campaign::{run_campaign, CampaignSpec, CellOptions, PresetVariant};
    use nodeshare_bench::orchestrator::Parallelism;
    use nodeshare_bench::{seeds, World};

    let world = World::evaluation();
    let spec = CampaignSpec::on_evaluation_cluster(
        "differential",
        vec![
            PresetVariant::new(
                "saturated",
                WorkloadSpec {
                    n_jobs: 60,
                    ..world.saturated_spec(0)
                },
            ),
            PresetVariant::new(
                "online",
                WorkloadSpec {
                    n_jobs: 50,
                    ..world.online_spec(0)
                },
            ),
        ],
        vec![
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
            StrategyConfig::exclusive(StrategyKind::Conservative).into(),
        ],
        seeds(3),
    );
    let opts = CellOptions { hash_traces: true };

    let reference = run_campaign(&world, &spec, Parallelism::Serial, &opts)
        .expect("serial reference campaign must succeed");
    assert_eq!(reference.results.len(), spec.n_cells());

    for jobs in [1, 8] {
        let parallel = run_campaign(&world, &spec, Parallelism::Jobs(jobs), &opts)
            .unwrap_or_else(|f| panic!("--jobs {jobs} campaign failed: {}", f[0]));
        for (a, b) in reference.results.iter().zip(&parallel.results) {
            let label = spec.cell_label(&a.coord);
            assert_eq!(a.coord, b.coord, "jobs={jobs}: cell order diverges");
            assert!(
                a.trace_hash.is_some() && a.trace_hash == b.trace_hash,
                "jobs={jobs} cell {label}: decision-trace hashes diverge"
            );
            assert!(
                a.outcome == b.outcome,
                "jobs={jobs} cell {label}: outcomes diverge"
            );
            assert!(
                a.metrics == b.metrics,
                "jobs={jobs} cell {label}: metrics diverge"
            );
        }
        // The emitted artifacts — rendered table and CSV — are byte-equal.
        assert_eq!(
            reference.cell_table.render(),
            parallel.cell_table.render(),
            "jobs={jobs}: rendered cell tables diverge"
        );
        assert_eq!(
            reference.cell_table.to_csv(),
            parallel.cell_table.to_csv(),
            "jobs={jobs}: cell CSVs diverge"
        );
    }
}

/// Observability is read-only: recording a trace, running under the
/// telemetry layer (which arms the scheduler phase-span timers), and
/// generating reports all leave the simulation outcome bit-identical to
/// the plain telemetry-off `run`, across the full strategy lineup — and
/// report generation itself is deterministic. The whole observer matrix
/// (trace × telemetry, with `config.audit` off and on) agrees on the
/// outcome, the telemetry counters and samples, and the trace.
#[test]
fn report_and_phase_spans_leave_outcomes_bit_identical() {
    use nodeshare::engine::SimTelemetry;
    use nodeshare::report::{Report, ReportOptions};
    use nodeshare_bench::campaign::trace_hash;

    let (catalog, model, matrix) = world();
    let cluster = ClusterSpec::evaluation();
    let mut config = SimConfig::new(cluster);
    config.audit = false;

    let workload = saturated_workload(&catalog, 31, 60);
    for cfg in StrategyConfig::lineup() {
        let label = cfg.label();
        let baseline = {
            let mut sched = cfg.build(&catalog, &model);
            run(&workload, &matrix, sched.as_mut(), &config)
        };

        // Tracing must not perturb the simulation.
        let (traced_out, trace) = {
            let mut sched = cfg.build(&catalog, &model);
            simulate_traced(&workload, &matrix, sched.as_mut(), &config)
        };
        assert!(
            baseline == traced_out,
            "{label}: tracing changed the outcome"
        );

        // The telemetry layer arms the wall-clock phase spans inside the
        // schedulers (placement scan, timeline maintenance, pairing
        // lookups); measuring must not steer a single decision.
        let tele = SimTelemetry::new(300.0);
        let tele_out = {
            let mut sched = cfg.build(&catalog, &model);
            simulate_telemetry(&workload, &matrix, sched.as_mut(), &config, &tele)
        };
        assert!(
            baseline == tele_out,
            "{label}: telemetry/phase spans changed the outcome"
        );

        // Both at once — the campaign orchestrator's audited-cell path.
        let tele2 = SimTelemetry::new(300.0);
        let (both_out, both_trace) = {
            let mut sched = cfg.build(&catalog, &model);
            let observe = Observe {
                trace: true,
                telemetry: Some(&tele2),
            };
            let (out, trace) = simulate_with(&workload, &matrix, sched.as_mut(), &config, observe);
            (out, trace.expect("trace requested"))
        };
        assert!(
            baseline == both_out,
            "{label}: trace+telemetry changed the outcome"
        );
        assert_eq!(
            trace_hash(&trace),
            trace_hash(&both_trace),
            "{label}: decision traces diverge across entry points"
        );

        // Report generation is a pure function of the trace: two builds
        // are byte-identical, from either entry point's trace.
        let opts = ReportOptions {
            title: Some(format!("differential: {label}")),
            total_cores: Some(cluster.total_cores()),
        };
        let a = Report::from_trace(&trace, &opts);
        let b = Report::from_trace(&trace, &opts);
        let c = Report::from_trace(&both_trace, &opts);
        assert_eq!(a.perfetto_json, b.perfetto_json, "{label}");
        assert_eq!(a.markdown, b.markdown, "{label}");
        assert_eq!(a.perfetto_json, c.perfetto_json, "{label}");
        assert_eq!(a.markdown, c.markdown, "{label}");

        // Every observer combination, with the implicit audit off and
        // on: the trace comes back exactly when requested, and nothing
        // observed depends on what else was observed.
        for audit in [false, true] {
            let mut config = config.clone();
            config.audit = audit;
            for (want_trace, attach) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let case = format!("{label} audit={audit} trace={want_trace} telemetry={attach}");
                let tele3 = SimTelemetry::new(300.0);
                let observe = Observe {
                    trace: want_trace,
                    telemetry: attach.then_some(&tele3),
                };
                let mut sched = cfg.build(&catalog, &model);
                let (out, got) =
                    simulate_with(&workload, &matrix, sched.as_mut(), &config, observe);
                assert!(baseline == out, "{case}: outcome diverges");
                assert_eq!(
                    got.is_some(),
                    want_trace,
                    "{case}: trace returned iff requested"
                );
                if let Some(got) = &got {
                    assert!(*got == trace, "{case}: trace diverges");
                }
                if attach {
                    for (name, a, b) in [
                        (
                            "decisions",
                            tele.sched.decisions.get(),
                            tele3.sched.decisions.get(),
                        ),
                        (
                            "head_started",
                            tele.sched.head_started.get(),
                            tele3.sched.head_started.get(),
                        ),
                        (
                            "backfill_scanned",
                            tele.sched.backfill_scanned.get(),
                            tele3.sched.backfill_scanned.get(),
                        ),
                        (
                            "backfill_started",
                            tele.sched.backfill_started.get(),
                            tele3.sched.backfill_started.get(),
                        ),
                        (
                            "pairing_queries",
                            tele.sched.pairing_queries.get(),
                            tele3.sched.pairing_queries.get(),
                        ),
                        (
                            "pairing_hits",
                            tele.sched.pairing_hits.get(),
                            tele3.sched.pairing_hits.get(),
                        ),
                    ] {
                        assert_eq!(a, b, "{case}: telemetry counter {name} diverges");
                    }
                    assert_eq!(
                        tele.jsonl(),
                        tele3.jsonl(),
                        "{case}: telemetry samples diverge"
                    );
                }
            }
        }
    }
}

/// The calendar event queue must be a pure performance substitution: for
/// every strategy in the lineup (plus the co-backfill-only ablation), the
/// same campaign run through the calendar backend and the reference
/// binary heap produces identical decision traces and outcomes.
#[test]
fn calendar_event_queue_matches_heap_across_lineup() {
    use nodeshare::engine::QueueBackend;
    let (catalog, model, matrix) = world();
    let mut cal_config = SimConfig::new(ClusterSpec::evaluation());
    cal_config.audit = false;
    cal_config.queue_backend = QueueBackend::Calendar;
    let mut heap_config = cal_config.clone();
    heap_config.queue_backend = QueueBackend::BinaryHeap;

    let mut lineup = StrategyConfig::lineup();
    lineup.push(StrategyConfig::sharing(StrategyKind::CoBackfillOnly));
    for seed in [2, 17, 23] {
        let workload = saturated_workload(&catalog, seed, 70);
        for cfg in &lineup {
            let mut cal = cfg.build(&catalog, &model);
            let (out_cal, trace_cal) =
                simulate_traced(&workload, &matrix, cal.as_mut(), &cal_config);
            let mut heap = cfg.build(&catalog, &model);
            let (out_heap, trace_heap) =
                simulate_traced(&workload, &matrix, heap.as_mut(), &heap_config);
            assert!(
                trace_cal == trace_heap,
                "{} seed {seed}: decision traces diverge across queue backends",
                cfg.label()
            );
            assert!(
                out_cal == out_heap,
                "{} seed {seed}: outcomes diverge across queue backends",
                cfg.label()
            );
        }
    }
}

/// Feeding the engine from a streaming source must be indistinguishable
/// from materializing the workload first: identical decision traces,
/// outcomes, and telemetry counters for every strategy in the lineup,
/// across chunk sizes that exercise mid-tie chunk boundaries.
#[test]
fn streamed_runs_match_materialized_across_lineup() {
    use nodeshare::engine::SimTelemetry;
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;

    let mut spec = WorkloadSpec::evaluation(&catalog, 13);
    spec.n_jobs = 70;
    spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
    let materialized = spec.generate(&catalog);

    let mut lineup = StrategyConfig::lineup();
    lineup.push(StrategyConfig::sharing(StrategyKind::CoBackfillOnly));
    for cfg in &lineup {
        let mut sched = cfg.build(&catalog, &model);
        let (out_mat, trace_mat) = simulate_traced(&materialized, &matrix, sched.as_mut(), &config);
        for chunk in [1, 17, 4096] {
            let mut source = spec.stream(&catalog, chunk);
            let mut sched = cfg.build(&catalog, &model);
            let observe = Observe {
                trace: true,
                ..Observe::default()
            };
            let (out_str, trace_str) =
                simulate(&mut source, &matrix, sched.as_mut(), &config, observe).unwrap();
            let trace_str = trace_str.unwrap();
            assert!(
                trace_mat == trace_str,
                "{} chunk {chunk}: decision traces diverge streamed vs materialized",
                cfg.label()
            );
            assert!(
                out_mat == out_str,
                "{} chunk {chunk}: outcomes diverge streamed vs materialized",
                cfg.label()
            );
        }

        // Telemetry counters (not the periodic gauge samples — the
        // event-queue gauge legitimately reflects fewer queued arrivals
        // in a streamed run) must agree as well.
        let tele_mat = SimTelemetry::new(300.0);
        let mut sched = cfg.build(&catalog, &model);
        simulate_telemetry(&materialized, &matrix, sched.as_mut(), &config, &tele_mat);
        let tele_str = SimTelemetry::new(300.0);
        let mut source = spec.stream(&catalog, 17);
        let mut sched = cfg.build(&catalog, &model);
        let observe = Observe {
            trace: false,
            telemetry: Some(&tele_str),
        };
        simulate(&mut source, &matrix, sched.as_mut(), &config, observe).unwrap();
        for (name, a, b) in [
            (
                "pairing_queries",
                tele_mat.sched.pairing_queries.get(),
                tele_str.sched.pairing_queries.get(),
            ),
            (
                "pairing_hits",
                tele_mat.sched.pairing_hits.get(),
                tele_str.sched.pairing_hits.get(),
            ),
            (
                "decisions",
                tele_mat.sched.decisions.get(),
                tele_str.sched.decisions.get(),
            ),
        ] {
            assert_eq!(
                a,
                b,
                "{}: telemetry counter {name} diverges streamed vs materialized",
                cfg.label()
            );
        }
        // The closing sample carries the engine-side cumulative counters.
        let last_mat = tele_mat.samples().pop().expect("closing sample");
        let last_str = tele_str.samples().pop().expect("closing sample");
        for (name, a, b) in [
            ("completed", last_mat.completed, last_str.completed),
            (
                "starts_exclusive",
                last_mat.starts_exclusive,
                last_str.starts_exclusive,
            ),
            (
                "starts_shared",
                last_mat.starts_shared,
                last_str.starts_shared,
            ),
            (
                "backfill_started",
                last_mat.backfill_started,
                last_str.backfill_started,
            ),
        ] {
            assert_eq!(
                a,
                b,
                "{}: closing-sample counter {name} diverges streamed vs materialized",
                cfg.label()
            );
        }
    }
}

/// Lean mode (`retain_detail = false`) discards per-job records and series
/// points but must keep the aggregate science exact: same event count, end
/// time, completion count, rejections, peak queue depth, and (up to fp
/// regrouping of same-instant updates) the occupancy integrals.
#[test]
fn lean_mode_keeps_exact_counts_and_close_integrals() {
    let (catalog, model, matrix) = world();
    let mut full_config = SimConfig::new(ClusterSpec::evaluation());
    full_config.audit = false;
    let mut lean_config = full_config.clone();
    lean_config.retain_detail = false;

    let workload = saturated_workload(&catalog, 29, 80);
    for cfg in [
        StrategyConfig::exclusive(StrategyKind::EasyBackfill),
        StrategyConfig::sharing(StrategyKind::CoBackfill),
    ] {
        let mut sched = cfg.build(&catalog, &model);
        let full = run(&workload, &matrix, sched.as_mut(), &full_config);
        let mut sched = cfg.build(&catalog, &model);
        let lean = run(&workload, &matrix, sched.as_mut(), &lean_config);

        let label = cfg.label();
        assert!(lean.records.is_empty(), "{label}: lean run kept records");
        assert!(lean.queue_depth.points().is_empty(), "{label}");
        assert_eq!(full.completed_jobs, full.records.len() as u64, "{label}");
        assert_eq!(lean.completed_jobs, full.completed_jobs, "{label}");
        assert_eq!(lean.events_processed, full.events_processed, "{label}");
        assert_eq!(lean.end_time, full.end_time, "{label}");
        assert_eq!(lean.unscheduled, full.unscheduled, "{label}");
        assert_eq!(lean.rejected, full.rejected, "{label}");
        assert_eq!(lean.peak_queue_depth, full.peak_queue_depth, "{label}");
        assert_eq!(
            lean.peak_queue_depth,
            full.queue_depth.max_value(),
            "{label}"
        );
        let rel = (lean.busy_core_seconds - full.busy_core_seconds).abs()
            / full.busy_core_seconds.max(1.0);
        assert!(rel < 1e-9, "{label}: busy integral drifted by {rel}");
    }
}

/// Counts justification calls, proving the engine batches them through
/// `explain_all` — once per invocation that produced decisions — instead
/// of re-scanning per decision, and skips them entirely when not tracing.
struct CountingExplain {
    inner: Box<dyn Scheduler>,
    nonempty_invocations: usize,
    explain_all_calls: std::cell::Cell<usize>,
    explained_decisions: std::cell::Cell<usize>,
}

impl Scheduler for CountingExplain {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        let d = self.inner.schedule(ctx);
        if !d.is_empty() {
            self.nonempty_invocations += 1;
        }
        d
    }
    fn explain_all(
        &self,
        ctx: &SchedContext<'_>,
        decisions: &[Decision],
    ) -> Vec<nodeshare::engine::StartReason> {
        self.explain_all_calls.set(self.explain_all_calls.get() + 1);
        self.explained_decisions
            .set(self.explained_decisions.get() + decisions.len());
        self.inner.explain_all(ctx, decisions)
    }
}

/// The traced path justifies decisions through one `explain_all` batch
/// per productive invocation (never per decision), and the untraced path
/// never pays for justification at all.
#[test]
fn traced_runs_batch_justifications_through_explain_all() {
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let workload = saturated_workload(&catalog, 11, 60);
    let cfg = StrategyConfig::sharing(StrategyKind::CoBackfill);

    let mut counting = CountingExplain {
        inner: cfg.build(&catalog, &model),
        nonempty_invocations: 0,
        explain_all_calls: std::cell::Cell::new(0),
        explained_decisions: std::cell::Cell::new(0),
    };
    let (out, _trace) = simulate_traced(&workload, &matrix, &mut counting, &config);
    assert!(out.complete());
    assert_eq!(
        counting.explain_all_calls.get(),
        counting.nonempty_invocations,
        "tracing must justify via exactly one explain_all per productive invocation"
    );
    assert_eq!(
        counting.explained_decisions.get() as u64,
        out.completed_jobs,
        "every started job is justified exactly once"
    );

    let mut counting = CountingExplain {
        inner: cfg.build(&catalog, &model),
        nonempty_invocations: 0,
        explain_all_calls: std::cell::Cell::new(0),
        explained_decisions: std::cell::Cell::new(0),
    };
    run(&workload, &matrix, &mut counting, &config);
    assert_eq!(
        counting.explain_all_calls.get(),
        0,
        "untraced runs must not pay for justification"
    );
}

/// Acceptance check: a double-charged node-second in the outcome is a
/// conservation violation the auditor reports by name.
#[test]
fn auditor_catches_double_charged_node_seconds() {
    let (catalog, model, matrix) = world();
    let cluster = ClusterSpec::evaluation();
    let mut config = SimConfig::new(cluster);
    config.audit = false;
    let workload = saturated_workload(&catalog, 5, 40);

    let cfg = StrategyConfig::sharing(StrategyKind::CoBackfill);
    let mut sched = cfg.build(&catalog, &model);
    let (mut out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);

    // Sanity: the untampered run is clean.
    Auditor::new(&matrix, &config)
        .audit(&trace, &out)
        .expect("untampered run must audit clean");

    // Inject the bug: one node billed for one extra second.
    out.busy_core_seconds += cluster.node.cores() as f64;

    let violations = Auditor::new(&matrix, &config)
        .audit(&trace, &out)
        .expect_err("double-charged node-second must be caught");
    let v = violations
        .iter()
        .find(|v| v.invariant == "node-second-conservation")
        .expect("conservation violation must be reported by name");
    let msg = v.to_string();
    assert!(msg.contains("node-second-conservation"), "{msg}");
}

/// Acceptance check: a doctored placement (a start on a node that does
/// not exist) is reported with the job, the node, and the violated
/// invariant — enough to act on.
#[test]
fn auditor_catches_doctored_placement() {
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let workload = saturated_workload(&catalog, 5, 40);

    let cfg = StrategyConfig::sharing(StrategyKind::CoBackfill);
    let mut sched = cfg.build(&catalog, &model);
    let (out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);

    // Rewrite the first start to land on a node the cluster doesn't have.
    let phantom = NodeId(9999);
    let mut doctored = DecisionTrace::new();
    let mut victim = None;
    for ev in trace.events() {
        let mut ev = ev.clone();
        if victim.is_none() {
            if let TraceEvent::Started { job, nodes, .. } = &mut ev {
                victim = Some(*job);
                nodes[0] = phantom;
            }
        }
        doctored.push(ev);
    }
    let victim = victim.expect("campaign must start at least one job");

    let violations = Auditor::new(&matrix, &config)
        .audit(&doctored, &out)
        .expect_err("phantom node must be caught");
    let v = violations
        .iter()
        .find(|v| v.invariant == "known-node")
        .expect("placement violation must be reported by name");
    assert_eq!(v.job, Some(victim));
    assert_eq!(v.node, Some(phantom));
    let msg = v.to_string();
    assert!(
        msg.contains("known-node") && msg.contains(&victim.to_string()) && msg.contains("n9999"),
        "violation message must name job, node, and invariant: {msg}"
    );
}

/// D1 regression for the one annotated unordered set in the workload
/// path: the duplicate-id guard in `Workload::with_dedup_capacity`.
/// The set is membership-only, so neither the order jobs are inserted
/// in nor the set's initial capacity (its bucket layout) may influence
/// anything downstream. Build the same job set three ways — natural
/// order, reversed, and interleaved, each with a different dedup
/// capacity — run every lineup strategy on each, and require the
/// decision traces and rendered report artifacts to be byte-identical.
#[test]
fn dedup_set_layout_leaves_campaign_artifacts_bit_identical() {
    use nodeshare::report::{Report, ReportOptions};
    use nodeshare_bench::campaign::trace_hash;

    let (catalog, model, matrix) = world();
    let cluster = ClusterSpec::evaluation();
    let mut config = SimConfig::new(cluster);
    config.audit = false;

    let base = saturated_workload(&catalog, 17, 60);
    let jobs = base.jobs().to_vec();
    let mut reversed = jobs.clone();
    reversed.reverse();
    let mut interleaved: Vec<_> = jobs.iter().step_by(2).cloned().collect();
    interleaved.extend(jobs.iter().skip(1).step_by(2).cloned());

    let variants = [
        Workload::new(jobs).expect("natural order"),
        Workload::with_dedup_capacity(reversed, 0).expect("reversed, no preallocation"),
        Workload::with_dedup_capacity(interleaved, 4096).expect("interleaved, oversized"),
    ];
    for (i, w) in variants.iter().enumerate() {
        assert_eq!(
            w.jobs(),
            base.jobs(),
            "variant {i}: construction order leaked into the job sequence"
        );
    }

    for cfg in StrategyConfig::lineup() {
        let label = cfg.label();
        let mut reference: Option<(u64, String, String)> = None;
        for (i, w) in variants.iter().enumerate() {
            let mut sched = cfg.build(&catalog, &model);
            let (out, trace) = simulate_traced(w, &matrix, sched.as_mut(), &config);
            assert!(out.complete(), "{label} variant {i}");
            let opts = ReportOptions {
                title: Some(format!("d1 differential: {label}")),
                total_cores: Some(cluster.total_cores()),
            };
            let report = Report::from_trace(&trace, &opts);
            let artifact = (trace_hash(&trace), report.markdown, report.perfetto_json);
            match &reference {
                None => reference = Some(artifact),
                Some(prev) => assert_eq!(
                    prev, &artifact,
                    "{label} variant {i}: artifacts diverged with dedup-set layout"
                ),
            }
        }
    }
}

/// The adaptive reshape policy must be a pure pass-through on all-rigid
/// workloads: no job carries a malleability contract, so neither the
/// shrink-to-admit nor the grow-to-fill path may ever fire, and the
/// decision trace and outcome (up to the policy's name) are
/// **byte-identical** to plain EASY backfill on **every workload mix** —
/// the same preset × seed grid the conservative differential sweeps.
#[test]
fn adaptive_is_bit_identical_to_easy_backfill_on_rigid_workloads() {
    use nodeshare::workload::Preset;
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let adaptive = StrategyConfig::exclusive(StrategyKind::Adaptive);
    let easy = StrategyConfig::exclusive(StrategyKind::EasyBackfill);

    for preset in Preset::ALL {
        for seed in [2, 5, 11, 17, 23] {
            let mut spec = preset.spec(&catalog, seed);
            spec.n_jobs = 60;
            let workload = spec.generate(&catalog);
            assert!(
                workload.jobs().iter().all(|j| j.malleable.is_rigid()),
                "{preset:?}: presets generate rigid jobs unless opted in"
            );

            let mut a = adaptive.build(&catalog, &model);
            let (out_a, trace_a) = simulate_traced(&workload, &matrix, a.as_mut(), &config);
            let mut e = easy.build(&catalog, &model);
            let (out_e, trace_e) = simulate_traced(&workload, &matrix, e.as_mut(), &config);

            assert!(
                trace_a
                    .events()
                    .iter()
                    .all(|ev| !matches!(ev, TraceEvent::Reshape { .. })),
                "{preset:?} seed {seed}: reshape on an all-rigid workload"
            );
            assert!(
                trace_a == trace_e,
                "{preset:?} seed {seed}: decision traces diverge"
            );
            let mut renamed = out_a.clone();
            renamed.scheduler = out_e.scheduler.clone();
            assert!(
                renamed == out_e,
                "{preset:?} seed {seed}: outcomes diverge beyond the name"
            );
            assert!(out_e.complete(), "{preset:?} seed {seed}");
        }
    }
}

/// The rigid pass-through also holds under the telemetry layer: the
/// scheduler-side counters and the closing cumulative sample agree
/// between adaptive and EASY backfill when no job is malleable.
#[test]
fn adaptive_matches_easy_backfill_telemetry_on_rigid_workloads() {
    use nodeshare::engine::SimTelemetry;
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    let workload = saturated_workload(&catalog, 31, 60);

    let tele_a = SimTelemetry::new(300.0);
    let mut a = StrategyConfig::exclusive(StrategyKind::Adaptive).build(&catalog, &model);
    let out_a = simulate_telemetry(&workload, &matrix, a.as_mut(), &config, &tele_a);
    let tele_e = SimTelemetry::new(300.0);
    let mut e = StrategyConfig::exclusive(StrategyKind::EasyBackfill).build(&catalog, &model);
    let out_e = simulate_telemetry(&workload, &matrix, e.as_mut(), &config, &tele_e);

    let mut renamed = out_a.clone();
    renamed.scheduler = out_e.scheduler.clone();
    assert!(renamed == out_e, "outcomes diverge beyond the name");
    for (name, a, b) in [
        (
            "decisions",
            tele_a.sched.decisions.get(),
            tele_e.sched.decisions.get(),
        ),
        (
            "head_started",
            tele_a.sched.head_started.get(),
            tele_e.sched.head_started.get(),
        ),
        (
            "backfill_started",
            tele_a.sched.backfill_started.get(),
            tele_e.sched.backfill_started.get(),
        ),
    ] {
        assert_eq!(a, b, "telemetry counter {name} diverges");
    }
    let last_a = tele_a.samples().pop().expect("closing sample");
    let last_e = tele_e.samples().pop().expect("closing sample");
    assert_eq!(last_a.completed, last_e.completed);
    assert_eq!(last_a.starts_exclusive, last_e.starts_exclusive);
    assert_eq!(last_a.starts_shared, last_e.starts_shared);
    assert_eq!(last_a.backfill_started, last_e.backfill_started);
}

/// End to end through the campaign orchestrator: two campaigns over the
/// same rigid preset grid — one running adaptive, one running EASY
/// backfill, both under the same axis label — emit byte-identical cell
/// tables and CSVs, and every cell's decision-trace hash and metrics
/// agree. The reshape machinery costs the rigid science nothing.
#[test]
fn adaptive_campaign_artifacts_match_easy_backfill_on_rigid_presets() {
    use nodeshare_bench::campaign::{
        run_campaign, CampaignSpec, CellOptions, PresetVariant, StrategyVariant,
    };
    use nodeshare_bench::orchestrator::Parallelism;
    use nodeshare_bench::{seeds, World};

    let world = World::evaluation();
    let campaign = |cfg: StrategyConfig| {
        let spec = CampaignSpec::on_evaluation_cluster(
            "rigid-differential",
            vec![
                PresetVariant::new(
                    "saturated",
                    WorkloadSpec {
                        n_jobs: 50,
                        ..world.saturated_spec(0)
                    },
                ),
                PresetVariant::new(
                    "online",
                    WorkloadSpec {
                        n_jobs: 40,
                        ..world.online_spec(0)
                    },
                ),
            ],
            // The same axis label for both policies: any byte that
            // differs below is a behavioral divergence, not a name.
            vec![StrategyVariant::named("policy", cfg)],
            seeds(5),
        );
        run_campaign(
            &world,
            &spec,
            Parallelism::Serial,
            &CellOptions { hash_traces: true },
        )
        .unwrap_or_else(|f| panic!("campaign failed: {}", f[0]))
    };

    let a = campaign(StrategyConfig::exclusive(StrategyKind::Adaptive));
    let e = campaign(StrategyConfig::exclusive(StrategyKind::EasyBackfill));
    assert_eq!(a.results.len(), e.results.len());
    for (ra, re) in a.results.iter().zip(&e.results) {
        assert_eq!(ra.coord, re.coord, "cell order diverges");
        assert!(
            ra.trace_hash.is_some() && ra.trace_hash == re.trace_hash,
            "cell {:?}: decision-trace hashes diverge",
            ra.coord
        );
        assert!(ra.metrics == re.metrics, "cell {:?}: metrics", ra.coord);
    }
    assert_eq!(
        a.cell_table.render(),
        e.cell_table.render(),
        "rendered cell tables diverge"
    );
    assert_eq!(
        a.cell_table.to_csv(),
        e.cell_table.to_csv(),
        "cell CSVs diverge"
    );
}

/// Acceptance check for the reshape invariants: over-shrink one recorded
/// reshape below the job's contract minimum and the replay auditor names
/// the invariant, the job, and the node — same bar as the doctored
/// placement above.
#[test]
fn auditor_catches_overshrunk_reshape() {
    use nodeshare::workload::{JobSpec, Malleability, Workload};
    let (catalog, model, matrix) = world();
    let mut config = SimConfig::new(ClusterSpec::new(4, NodeSpec::tiny()));
    config.audit = false;

    // Job 0 holds all four nodes under a [2, 4] contract; job 1 arrives
    // behind it, so adaptive shrinks job 0 to admit it.
    let job = |id: u64, nodes: u32, submit: f64, runtime: f64, malleable: Malleability| JobSpec {
        malleable,
        id: JobId(id),
        app: AppId(0),
        nodes,
        submit,
        runtime_exclusive: runtime,
        walltime_estimate: 3_000.0,
        mem_per_node_mib: 64,
        share_eligible: false,
        user: 0,
    };
    let workload = Workload::new(vec![
        job(0, 4, 0.0, 400.0, Malleability::range(2, 4, 10.0)),
        job(1, 2, 5.0, 50.0, Malleability::RIGID),
    ])
    .unwrap();

    let cfg = StrategyConfig::exclusive(StrategyKind::Adaptive);
    let mut sched = cfg.build(&catalog, &model);
    let (out, trace) = simulate_traced(&workload, &matrix, sched.as_mut(), &config);
    assert!(out.complete());

    // Control: the engine-produced reshape schedule audits clean.
    Auditor::new(&matrix, &config)
        .audit(&trace, &out)
        .expect("untampered reshape schedule must audit clean");

    // Doctor the first reshape: keep a single node, below the contract's
    // minimum of two.
    let mut doctored = DecisionTrace::new();
    let mut victim = None;
    let mut flagged = None;
    for ev in trace.events() {
        let mut ev = ev.clone();
        if victim.is_none() {
            if let TraceEvent::Reshape { job, to, .. } = &mut ev {
                victim = Some(*job);
                to.truncate(1);
                flagged = to.first().copied();
            }
        }
        doctored.push(ev);
    }
    let victim = victim.expect("adaptive must have reshaped job 0");

    let violations = Auditor::new(&matrix, &config)
        .audit(&doctored, &out)
        .expect_err("over-shrink below min_nodes must be caught");
    let v = violations
        .iter()
        .find(|v| v.invariant == "reshape-width-in-range")
        .expect("the contract-range invariant must be reported by name");
    assert_eq!(v.job, Some(victim), "the over-shrunk job is flagged");
    assert_eq!(v.node, flagged, "the surviving node is flagged");
    let msg = v.to_string();
    assert!(
        msg.contains("reshape-width-in-range") && msg.contains("outside the contract"),
        "violation must name the invariant and the range: {msg}"
    );
}
