//! Property tests for the incremental conservative-backfill profile: at
//! **every scheduling decision point** of randomized campaigns, the
//! optimized [`Conservative`] path's incrementally maintained
//! [`nodeshare_core::ReservationTimeline`] must return the same decision
//! as a from-scratch reference replay and — when the pass commits no
//! decision — leave step-for-step identical reservation steps. Campaign
//! variants cover the invalidation sources the timeline must survive:
//! releases, walltime kills (lying estimates), and failure-driven
//! requeues, plus a grid-aligned workload whose breakpoints coincide or
//! lie within `PLAN_EPS` of each other, where the timeline's resume
//! guards decide.

use nodeshare_cluster::{ClusterSpec, JobId, NodeSpec};
use nodeshare_core::util::{pick_exclusive, AvailabilityProfile, PLAN_EPS};
use nodeshare_core::Conservative;
use nodeshare_engine::{run, Decision, FailureModel, SchedContext, Scheduler, SimConfig};
use nodeshare_perf::{AppCatalog, AppId, CoRunTruth, ContentionModel};
use nodeshare_workload::{JobSpec, Workload};
use proptest::prelude::*;

const NODES: u32 = 8;

/// Wraps the optimized scheduler and cross-checks it against a
/// from-scratch replay of the reference planning loop on every call.
struct ProfileChecked {
    inner: Conservative,
    passes: u64,
}

impl ProfileChecked {
    fn new() -> Self {
        ProfileChecked {
            inner: Conservative::new(),
            passes: 0,
        }
    }
}

impl Scheduler for ProfileChecked {
    fn name(&self) -> &'static str {
        // Forward the real name so traces/outcomes match plain runs.
        "conservative-backfill"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        self.passes += 1;
        let fast = self.inner.schedule(ctx);

        // The reference loop, rebuilt from the context with no state
        // carried over from previous passes.
        let mut profile = AvailabilityProfile::from_context(ctx);
        let mut reference: Vec<Decision> = Vec::new();
        for job in ctx.queue {
            let start = profile.earliest_fit(ctx.now, job.nodes as i64, job.walltime_estimate);
            if start <= ctx.now + PLAN_EPS {
                if let Some(nodes) = pick_exclusive(ctx, job, |_| true) {
                    reference = vec![Decision::StartExclusive { job: job.id, nodes }];
                    break;
                }
            }
            if start.is_finite() {
                profile.reserve(start, job.walltime_estimate, job.nodes as i64);
            }
        }

        assert_eq!(
            fast, reference,
            "decision diverged from from-scratch replay at t={} (pass {})",
            ctx.now, self.passes
        );
        if fast.is_empty() {
            // No decision: the incremental profile must equal the rebuilt
            // one bit-for-bit, breakpoint times and levels alike.
            assert_eq!(
                self.inner.profile_steps(),
                profile.steps(),
                "incremental profile diverged from rebuild at t={} (pass {})",
                ctx.now,
                self.passes
            );
        }
        fast
    }
}

#[derive(Clone, Debug)]
struct RawJob {
    nodes: u32,
    runtime: f64,
    submit_gap: f64,
    /// Walltime estimate; below `runtime` it is a lying estimate and the
    /// job is killed, exercising kill-driven profile invalidation.
    estimate: f64,
}

fn raw_job() -> impl Strategy<Value = RawJob> {
    (1u32..=NODES, 10.0f64..400.0, 0.0f64..150.0, 0.5f64..2.5).prop_map(
        |(nodes, runtime, submit_gap, est_factor)| RawJob {
            nodes,
            runtime,
            submit_gap,
            estimate: (runtime * est_factor).max(1.0),
        },
    )
}

/// Submit gaps, runtimes and estimates on a 10 s grid, with some gaps
/// and estimates shifted by ±`PLAN_EPS`/2 off it: estimated ends then
/// coincide with each other and with planned starts, or land within
/// `PLAN_EPS` of them.
fn grid_job() -> impl Strategy<Value = RawJob> {
    const SHIFT: [f64; 4] = [0.0, 0.0, PLAN_EPS / 2.0, -PLAN_EPS / 2.0];
    (
        1u32..=NODES,
        1u32..30,
        0u32..12,
        1u32..45,
        0usize..4,
        0usize..3,
    )
        .prop_map(|(nodes, runtime, gap, est, est_shift, gap_shift)| RawJob {
            nodes,
            runtime: 10.0 * runtime as f64,
            submit_gap: 10.0 * gap as f64 + SHIFT[gap_shift],
            estimate: 10.0 * est as f64 + SHIFT[est_shift],
        })
}

fn build_workload(raw: Vec<RawJob>) -> Workload {
    let mut t = 0.0;
    let jobs: Vec<JobSpec> = raw
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            t += r.submit_gap;
            JobSpec {
                malleable: Default::default(),
                id: JobId(i as u64),
                app: AppId((i % 8) as u8),
                nodes: r.nodes,
                submit: t,
                runtime_exclusive: r.runtime,
                walltime_estimate: r.estimate,
                mem_per_node_mib: 64,
                share_eligible: false,
                user: 0,
            }
        })
        .collect();
    Workload::new(jobs).unwrap()
}

fn world() -> (CoRunTruth, SimConfig) {
    let catalog = AppCatalog::trinity();
    let matrix = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
    let config = SimConfig::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
    (matrix, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Release- and kill-driven invalidation: every decision point of a
    /// plain campaign (including walltime kills from under-estimates)
    /// agrees with the from-scratch rebuild, and the checked run's
    /// outcome equals an unchecked optimized run's.
    #[test]
    fn incremental_profile_matches_rebuild_everywhere(
        raw in prop::collection::vec(raw_job(), 1..30),
    ) {
        let (matrix, config) = world();
        let workload = build_workload(raw);
        let mut checked = ProfileChecked::new();
        let out = run(&workload, &matrix, &mut checked, &config);
        prop_assert!(checked.passes > 0);
        let mut plain = Conservative::new();
        let out_plain = run(&workload, &matrix, &mut plain, &config);
        prop_assert!(out == out_plain);
    }

    /// Requeue-driven invalidation: random node failures kill and requeue
    /// running jobs mid-campaign; the incremental profile must still
    /// agree with the rebuild at every subsequent decision point.
    #[test]
    fn incremental_profile_survives_failure_requeues(
        raw in prop::collection::vec(raw_job(), 1..25),
        mtbf in 2_000.0f64..40_000.0,
        fseed in 0u64..64,
    ) {
        let (matrix, mut config) = world();
        config.failures = Some(FailureModel {
            mtbf_per_node: mtbf,
            repair_time: 120.0,
            seed: fseed,
        });
        let workload = build_workload(raw);
        let mut checked = ProfileChecked::new();
        let out = run(&workload, &matrix, &mut checked, &config);
        prop_assert!(checked.passes > 0);
        let mut plain = Conservative::new();
        let out_plain = run(&workload, &matrix, &mut plain, &config);
        prop_assert!(out == out_plain);
    }
}

proptest! {
    // More cases than above: the guards it exercises fire only when a
    // start or submit meets a near-coincident breakpoint.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coincident and within-ε breakpoints: on a 10 s grid the resume
    /// after a start and after a submit meet equal-time releases, starts
    /// at the edge of the fit-now window, and ends just before another
    /// breakpoint, and must still agree with the rebuild at every pass.
    #[test]
    fn incremental_profile_matches_rebuild_on_a_grid(
        raw in prop::collection::vec(grid_job(), 1..30),
    ) {
        let (matrix, config) = world();
        let workload = build_workload(raw);
        let mut checked = ProfileChecked::new();
        let out = run(&workload, &matrix, &mut checked, &config);
        prop_assert!(checked.passes > 0);
        let mut plain = Conservative::new();
        let out_plain = run(&workload, &matrix, &mut plain, &config);
        prop_assert!(out == out_plain);
    }
}
