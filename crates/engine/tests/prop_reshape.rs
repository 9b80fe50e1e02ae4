//! Property tests for the reshape path: a scheduler issuing *arbitrary*
//! contract-respecting reshape schedules still passes the full replay
//! audit, stays deterministic, and keeps the incrementally-maintained
//! occupancy integral equal to a from-scratch rebuild of the trace.

use std::collections::BTreeMap;

use nodeshare_cluster::{ClusterSpec, JobId, NodeId, NodeSpec, ShareMode};
use nodeshare_engine::{
    first_idle_nodes, simulate, Auditor, Decision, DecisionTrace, Observe, SchedContext, Scheduler,
    SimConfig, SimOutcome, TraceEvent,
};
use nodeshare_perf::{AppCatalog, AppId, CoRunTruth, ContentionModel};
use nodeshare_workload::{JobSpec, Malleability, Workload};
use proptest::prelude::*;

/// FCFS starts plus pseudo-random reshapes: whenever nothing can start,
/// pick a running malleable job with a seeded xorshift and move it to a
/// random admissible width (shrinks drop the tail of its grant, grows
/// take the lowest-id idle nodes). A finite budget bounds the churn so
/// every campaign terminates.
struct ReshapingFcfs {
    rng: u64,
    budget: u32,
}

impl ReshapingFcfs {
    fn new(seed: u64, budget: u32) -> ReshapingFcfs {
        ReshapingFcfs {
            rng: seed | 1,
            budget,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

impl Scheduler for ReshapingFcfs {
    fn name(&self) -> &'static str {
        "reshaping-fcfs"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        if let Some(head) = ctx.queue.first() {
            if let Some(nodes) = first_idle_nodes(ctx.cluster, head.nodes as usize) {
                return vec![Decision::StartExclusive {
                    job: head.id,
                    nodes,
                }];
            }
        }
        if self.budget == 0 {
            return vec![];
        }
        let candidates: Vec<_> = ctx
            .running
            .values()
            .filter(|r| r.mode == ShareMode::Exclusive && !r.malleable.is_rigid())
            .collect();
        if candidates.is_empty() {
            return vec![];
        }
        let pick = candidates[(self.next() as usize) % candidates.len()];
        let held: Vec<NodeId> = ctx
            .cluster
            .allocation(pick.job)
            .map(|a| a.nodes().collect())
            .unwrap_or_default();
        if held.len() != pick.nodes as usize {
            return vec![];
        }
        let mut idle: Vec<NodeId> = ctx.cluster.idle_nodes().collect();
        idle.sort_unstable();
        let lo = pick.malleable.min_nodes.max(1);
        let hi = pick.malleable.max_nodes.min(pick.nodes + idle.len() as u32);
        if lo == hi {
            return vec![]; // only the current width is representable
        }
        let mut target = lo + (self.next() % u64::from(hi - lo + 1)) as u32;
        if target == pick.nodes {
            // The contract requires a width change; nudge inside range.
            target = if target == hi { target - 1 } else { target + 1 };
        }
        let mut nodes = held;
        if target < pick.nodes {
            nodes.truncate(target as usize);
        } else {
            nodes.extend_from_slice(&idle[..(target - pick.nodes) as usize]);
        }
        self.budget -= 1;
        vec![Decision::Reshape {
            job: pick.job,
            nodes,
        }]
    }
}

/// A small mixed workload: every other job carries a non-rigid contract
/// spanning widths below and above its request.
fn rig(n_jobs: usize, wseed: u64) -> (Workload, CoRunTruth, SimConfig) {
    let catalog = AppCatalog::trinity();
    let truth = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
    let jobs: Vec<JobSpec> = (0..n_jobs as u64)
        .map(|i| {
            let nodes = 1 + ((i + wseed) % 3) as u32;
            JobSpec {
                malleable: if (i + wseed) % 2 == 0 {
                    Malleability::range(1, nodes + 2, 5.0)
                } else {
                    Malleability::RIGID
                },
                id: JobId(i),
                app: AppId((i % 8) as u8),
                nodes,
                submit: i as f64 * 40.0,
                runtime_exclusive: 200.0 + (i % 4) as f64 * 100.0,
                // Generous: a shrink stretches the wall-clock run and
                // must not routinely trip the walltime kill.
                walltime_estimate: 6_000.0,
                mem_per_node_mib: 0,
                share_eligible: false,
                user: 0,
            }
        })
        .collect();
    let workload = Workload::new(jobs).unwrap();
    let mut config = SimConfig::new(ClusterSpec::new(4, NodeSpec::tiny()));
    config.audit = false; // audited explicitly so proptest reports cleanly
    (workload, truth, config)
}

/// Re-derives the busy-core integral purely from the trace: each job
/// contributes `width × cores_per_node` between consecutive lifecycle
/// events (start, every reshape, finish). This is an oracle independent
/// of both the engine's incremental accumulator and the auditor's
/// replay machinery.
fn rebuild_busy_core_seconds(trace: &DecisionTrace, cores_per_node: f64) -> f64 {
    let mut open: BTreeMap<JobId, (f64, usize)> = BTreeMap::new();
    let mut busy = 0.0;
    for ev in trace.events() {
        match ev {
            TraceEvent::Started {
                time, job, nodes, ..
            } => {
                let prior = open.insert(*job, (*time, nodes.len()));
                assert!(prior.is_none(), "{job} started twice");
            }
            TraceEvent::Reshape { time, job, to, .. } => {
                let (t0, w) = open
                    .insert(*job, (*time, to.len()))
                    .expect("reshape of a job with no open interval");
                busy += w as f64 * (time - t0) * cores_per_node;
            }
            TraceEvent::Finished { time, job, .. } => {
                let (t0, w) = open
                    .remove(job)
                    .expect("finish of a job with no open interval");
                busy += w as f64 * (time - t0) * cores_per_node;
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "jobs left running at end of trace");
    busy
}

/// A run returning its decision trace.
fn simulate_traced(
    workload: &Workload,
    truth: &CoRunTruth,
    policy: &mut dyn Scheduler,
    config: &SimConfig,
) -> (SimOutcome, DecisionTrace) {
    let observe = Observe {
        trace: true,
        ..Observe::default()
    };
    let (out, trace) = simulate(
        &mut workload.source(workload.len()),
        truth,
        policy,
        config,
        observe,
    )
    .expect("in-memory workloads always deliver");
    (out, trace.expect("trace requested"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any contract-respecting reshape schedule — including none — keeps
    /// every replay invariant intact, completes the campaign, and reruns
    /// bit-identically.
    #[test]
    fn arbitrary_reshape_schedules_audit_clean_and_replay_identically(
        sched_seed in 1u64..10_000,
        budget in 0u32..40,
        n_jobs in 2usize..10,
        wseed in 0u64..1_000,
    ) {
        let (workload, truth, config) = rig(n_jobs, wseed);
        let mut policy = ReshapingFcfs::new(sched_seed, budget);
        let (out, trace) = simulate_traced(&workload, &truth, &mut policy, &config);
        prop_assert!(out.complete(), "unscheduled {:?}", out.unscheduled);

        let summary = Auditor::new(&truth, &config)
            .with_queue_order_check()
            .audit(&trace, &out)
            .map_err(|vs| {
                TestCaseError::fail(format!("{} violation(s), first: {}", vs.len(), vs[0]))
            })?;
        let traced_reshapes = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Reshape { .. }))
            .count();
        prop_assert_eq!(summary.reshapes, traced_reshapes);
        prop_assert!(traced_reshapes <= 40, "budget must bound the churn");

        let mut policy = ReshapingFcfs::new(sched_seed, budget);
        let (out2, trace2) = simulate_traced(&workload, &truth, &mut policy, &config);
        prop_assert!(trace == trace2, "decision traces diverge across reruns");
        prop_assert!(out == out2, "outcomes diverge across reruns");
    }

    /// The engine's incrementally-maintained occupancy integral equals a
    /// from-scratch rebuild of the trace's start/reshape/finish
    /// intervals — and the auditor's own replay re-derivation agrees.
    #[test]
    fn occupancy_rebuilt_from_scratch_matches_incremental_state(
        sched_seed in 1u64..10_000,
        budget in 1u32..40,
        n_jobs in 2usize..10,
        wseed in 0u64..1_000,
    ) {
        let (workload, truth, config) = rig(n_jobs, wseed);
        let mut policy = ReshapingFcfs::new(sched_seed, budget);
        let (out, trace) = simulate_traced(&workload, &truth, &mut policy, &config);
        prop_assert!(out.complete());

        let cores = f64::from(config.cluster.node.cores());
        let rebuilt = rebuild_busy_core_seconds(&trace, cores);
        let rel = (rebuilt - out.busy_core_seconds).abs() / out.busy_core_seconds.max(1.0);
        prop_assert!(
            rel < 1e-9,
            "from-scratch rebuild {rebuilt} vs incremental {} (rel {rel})",
            out.busy_core_seconds
        );

        let summary = Auditor::new(&truth, &config)
            .audit(&trace, &out)
            .map_err(|vs| TestCaseError::fail(format!("audit failed: {}", vs[0])))?;
        let rel = (summary.busy_core_seconds - rebuilt).abs() / rebuilt.max(1.0);
        prop_assert!(rel < 1e-9, "auditor replay disagrees with rebuild");
    }
}
