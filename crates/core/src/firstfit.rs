//! First-fit scheduling, and its node-sharing extension CoFirstFit.
//!
//! Plain first-fit scans the queue in submission order and starts *any*
//! job that fits on idle nodes right now — no reservations, so large jobs
//! can starve under sustained load (the known first-fit weakness the
//! paper's backfill extension addresses).
//!
//! **CoFirstFit** (the paper's first extension) additionally considers
//! co-allocation: a share-eligible job may take the free hyper-thread
//! lane of nodes whose residents the pairing policy approves. Shared
//! placements are tried first — filling lanes is the whole point — with
//! exclusive placement as the fallback for jobs that did not opt in or
//! found no partners.
//!
//! Like [`crate::Backfill`], the scheduler plans against the incremental
//! [`Planner`] caches; [`crate::reference::FirstFit`] is the oracle the
//! differential tests compare it with.

use crate::pairing::Pairing;
use crate::planner::Planner;
use nodeshare_engine::{Decision, SchedContext, Scheduler};

/// First-fit over the queue, optionally co-allocation-aware.
#[derive(Clone, Debug)]
pub struct FirstFit {
    pairing: Pairing,
    planner: Planner,
}

impl FirstFit {
    /// Plain exclusive first-fit (the paper's baseline).
    pub fn exclusive() -> Self {
        FirstFit::with_pairing(Pairing::never())
    }

    /// Co-allocation-aware first-fit with the given pairing policy.
    pub fn sharing(pairing: Pairing) -> Self {
        FirstFit::with_pairing(pairing)
    }

    fn with_pairing(pairing: Pairing) -> Self {
        FirstFit {
            planner: Planner::new(&pairing),
            pairing,
        }
    }
}

impl Scheduler for FirstFit {
    fn name(&self) -> &'static str {
        if self.pairing.sharing_enabled() {
            "co-first-fit"
        } else {
            "first-fit"
        }
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        // Wall-clock phase span over the placement scan; observes on drop.
        let _placement_span = ctx.telemetry.map(|t| t.time_placement());
        let sharing = self.pairing.sharing_enabled();
        self.planner.begin_pass(ctx);
        if ctx.cluster.idle_count() == 0 && (!sharing || self.planner.eligible_partial_count() == 0)
        {
            // No idle node and no shareable lane: nothing can start.
            return Vec::new();
        }
        for job in ctx.queue {
            // Idle capacity first: sharing never beats running alone.
            if let Some(nodes) = self.planner.pick_exclusive(ctx, job, false) {
                return if sharing && job.share_eligible {
                    vec![Decision::StartShared { job: job.id, nodes }]
                } else {
                    vec![Decision::StartExclusive { job: job.id, nodes }]
                };
            }
            if sharing && job.share_eligible {
                if let Some(nodes) = self.planner.pick_shared(ctx, job, &self.pairing, false) {
                    return vec![Decision::StartShared { job: job.id, nodes }];
                }
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use crate::reference;
    use crate::testkit::{self, job, job_app, oracle};

    fn co_first_fit() -> FirstFit {
        FirstFit::sharing(Pairing::new(PairingPolicy::default_threshold(), oracle()))
    }

    #[test]
    fn skips_blocked_head() {
        // Head needs 4 nodes; job 1 needs 1 and jumps ahead.
        let world = testkit::world(4, vec![job(0, 3, 100.0), job(1, 4, 100.0), job(2, 1, 10.0)]);
        let out = testkit::simulate(&world, &mut FirstFit::exclusive());
        assert!(out.complete());
        let r2 = &out.records[2];
        assert!(r2.wait() < 1.0, "first-fit should start job 2 immediately");
    }

    #[test]
    fn co_first_fit_pairs_complementary_jobs() {
        // A memory-bound and a compute-bound 2-node job on a 2-node
        // cluster: co-first-fit runs them simultaneously on shared lanes.
        let world = testkit::world(
            2,
            vec![job_app(0, 2, 100.0, "AMG"), job_app(1, 2, 100.0, "miniDFT")],
        );
        let out = testkit::simulate(&world, &mut co_first_fit());
        assert!(out.complete());
        let (r0, r1) = (&out.records[0], &out.records[1]);
        assert!(r0.shared_alloc && r1.shared_alloc);
        // Both run concurrently (job 1 starts at its arrival, not after 0).
        assert!(r1.start < 2.0, "start {}", r1.start);
        assert!(r0.shared_node_seconds > 0.0);
        // Makespan beats the serial 200 s.
        let makespan = out.records.iter().map(|r| r.finish).fold(0.0, f64::max);
        assert!(makespan < 160.0, "makespan {makespan}");
    }

    #[test]
    fn co_first_fit_refuses_bad_pairs() {
        // Two memory-bound jobs: pairing threshold rejects, so they run
        // serially (exclusive fallback can't fit while the first runs in
        // shared mode on both nodes... it waits).
        let world = testkit::world(
            2,
            vec![job_app(0, 2, 100.0, "AMG"), job_app(1, 2, 100.0, "miniFE")],
        );
        let out = testkit::simulate(&world, &mut co_first_fit());
        assert!(out.complete());
        let r1 = &out.records[1];
        assert!(
            r1.start >= 99.0,
            "bandwidth-bound pair must not share (start {})",
            r1.start
        );
        // Neither job was slowed.
        for r in &out.records {
            assert!((r.dilation() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn non_eligible_jobs_never_share() {
        let mut a = job_app(0, 2, 100.0, "AMG");
        a.share_eligible = false;
        let b = job_app(1, 2, 100.0, "miniDFT");
        let world = testkit::world(2, vec![a, b]);
        let out = testkit::simulate(&world, &mut co_first_fit());
        assert!(out.complete());
        assert!(!out.records[0].shared_alloc);
        assert_eq!(out.records[0].shared_node_seconds, 0.0);
        assert!(out.records[1].start >= 99.0);
    }

    #[test]
    fn reference_mode_matches_the_optimized_path() {
        let jobs: Vec<_> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    job_app(i, 2, 120.0, "AMG")
                } else {
                    job_app(i, 1, 60.0, "miniDFT")
                }
            })
            .collect();
        let world = testkit::world(3, jobs);
        let fast = testkit::simulate(&world, &mut co_first_fit());
        let refr = testkit::simulate(
            &world,
            &mut reference::FirstFit::sharing(Pairing::new(
                PairingPolicy::default_threshold(),
                oracle(),
            )),
        );
        assert_eq!(fast.records, refr.records);
    }

    #[test]
    fn exclusive_first_fit_never_shares() {
        let world = testkit::world(
            2,
            vec![job_app(0, 2, 100.0, "AMG"), job_app(1, 2, 100.0, "miniDFT")],
        );
        let out = testkit::simulate(&world, &mut FirstFit::exclusive());
        for r in &out.records {
            assert!(!r.shared_alloc);
            assert_eq!(r.shared_node_seconds, 0.0);
        }
        assert_eq!(FirstFit::exclusive().name(), "first-fit");
        assert_eq!(co_first_fit().name(), "co-first-fit");
    }
}
