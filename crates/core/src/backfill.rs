//! EASY backfill and its node-sharing extension **CoBackfill** — the
//! paper's headline strategy.
//!
//! EASY backfill keeps FCFS order for the queue head but lets later jobs
//! jump ahead when doing so cannot delay the head's *reservation*: the
//! earliest time enough nodes will be free, computed from the running
//! jobs' walltime estimates (hard bounds under walltime enforcement).
//!
//! CoBackfill extends both halves with co-allocation:
//!
//! * the **head** may start immediately in shared mode when compatible
//!   lanes exist — the head no longer has to wait for whole idle nodes;
//! * **backfill candidates** may be placed on the free lanes of
//!   compatible busy nodes, subject to the same reservation-safety rule.
//!
//! Reservation safety under sharing: a node occupied by jobs with
//! estimated ends `≤ shadow` stays available to the head at the shadow
//! time *unless* a backfilled co-runner outlives the shadow. The rule
//! "candidates ending after the shadow may not touch reserved nodes"
//! therefore covers shared placements exactly as it covers exclusive
//! ones — the property test in `tests/prop_policies.rs` checks it.
//!
//! The scheduler plans against the incremental [`Planner`] caches.
//! [`crate::reference::Backfill`] is the straight-line oracle that
//! `tests/differential.rs` holds it to, decision for decision.

use crate::pairing::Pairing;
use crate::planner::Planner;
use crate::util::PLAN_EPS;
use nodeshare_engine::{Decision, SchedContext, Scheduler};

/// EASY backfill, optionally co-allocation-aware.
#[derive(Clone, Debug)]
pub struct Backfill {
    pairing: Pairing,
    /// Whether the head itself may start in shared mode (CoBackfill
    /// behavior; disable to share only via backfill).
    share_head: bool,
    planner: Planner,
}

impl Backfill {
    fn new(pairing: Pairing, share_head: bool) -> Self {
        Backfill {
            planner: Planner::new(&pairing),
            pairing,
            share_head,
        }
    }

    /// Plain EASY backfill with exclusive allocation (baseline).
    pub fn easy() -> Self {
        Backfill::new(Pairing::never(), false)
    }

    /// Co-allocation-aware backfill with the given pairing policy.
    pub fn co(pairing: Pairing) -> Self {
        Backfill::new(pairing, true)
    }

    /// Co-allocation restricted to backfill candidates (the head always
    /// waits for exclusive nodes). Used by the ablation experiments.
    pub fn co_backfill_only(pairing: Pairing) -> Self {
        Backfill::new(pairing, false)
    }

    /// The backfill candidate scan, the scheduler's hottest path (it runs
    /// ~10^8 iterations in a saturated campaign; see the `sched_latency`
    /// benches). It takes the planner's memoized and bounded early exits
    /// whether or not telemetry is attached: those shortcuts return the
    /// reference's decisions exactly, and the scan counters record where
    /// the scan stopped, not how much work it took to get there.
    fn scan(&mut self, ctx: &SchedContext<'_>, sharing: bool) -> Vec<Decision> {
        let candidates = &ctx.queue[1..];
        if ctx.cluster.idle_count() == 0 && (!sharing || self.planner.eligible_partial_count() == 0)
        {
            // No idle node and no shareable lane: every candidate fails,
            // so the full scan would stop at the end of the queue.
            record_backfill(ctx, candidates.len(), false);
            return Vec::new();
        }
        let shadow = self.planner.shadow();
        for (i, job) in candidates.iter().enumerate() {
            let excl_end = ctx.now + job.walltime_estimate;
            let shared_end = ctx.now + job.walltime_estimate * ctx.shared_grace.max(1.0);
            let excl_fits = excl_end <= shadow + PLAN_EPS;
            let shared_fits = shared_end <= shadow + PLAN_EPS;

            if sharing && job.share_eligible {
                let restricted = !shared_fits;
                let nodes = self
                    .planner
                    .pick_exclusive(ctx, job, restricted)
                    .or_else(|| {
                        self.planner
                            .pick_shared(ctx, job, &self.pairing, restricted)
                    });
                if let Some(nodes) = nodes {
                    record_backfill(ctx, i + 1, true);
                    return vec![Decision::StartShared { job: job.id, nodes }];
                }
            } else {
                let restricted = !excl_fits;
                if let Some(nodes) = self.planner.pick_exclusive(ctx, job, restricted) {
                    record_backfill(ctx, i + 1, true);
                    return vec![Decision::StartExclusive { job: job.id, nodes }];
                }
            }
        }
        record_backfill(ctx, candidates.len(), false);
        Vec::new()
    }
}

/// Records the counters for one backfill pass that stopped at candidate
/// position `scanned` (1-based behind the head; the queue length minus
/// one when no candidate started) and did (`started`) or did not start
/// one. Shared with [`crate::reference::Backfill`], so the two count
/// alike by construction.
pub(crate) fn record_backfill(ctx: &SchedContext<'_>, scanned: usize, started: bool) {
    if let Some(t) = ctx.telemetry {
        t.backfill_scanned.add(scanned as u64);
        t.backfill_scan_depth.observe(scanned as f64);
        if started {
            t.backfill_started.inc();
        }
    }
}

impl Scheduler for Backfill {
    fn name(&self) -> &'static str {
        if self.pairing.sharing_enabled() {
            "co-backfill"
        } else {
            "easy-backfill"
        }
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        let Some(head) = ctx.queue.first() else {
            return Vec::new();
        };
        // Wall-clock phase span over the whole placement pass (head
        // attempt + reservation + backfill scan); observes on drop.
        let _placement_span = ctx.telemetry.map(|t| t.time_placement());

        let sharing = self.pairing.sharing_enabled();
        self.planner.begin_pass(ctx);

        // 1. Start the head if it fits now: idle nodes first (running
        // alone beats co-running), then, for CoBackfill, compatible lanes
        // (see `reference::Backfill::schedule` for the rationale).
        if let Some(nodes) = self.planner.pick_exclusive(ctx, head, false) {
            if let Some(t) = ctx.telemetry {
                t.head_started.inc();
            }
            return if sharing && head.share_eligible {
                vec![Decision::StartShared {
                    job: head.id,
                    nodes,
                }]
            } else {
                vec![Decision::StartExclusive {
                    job: head.id,
                    nodes,
                }]
            };
        }
        if self.share_head && sharing && head.share_eligible {
            if let Some(nodes) = self.planner.pick_shared(ctx, head, &self.pairing, false) {
                if let Some(t) = ctx.telemetry {
                    t.head_started.inc();
                }
                return vec![Decision::StartShared {
                    job: head.id,
                    nodes,
                }];
            }
        }

        // 2. Reserve for the head, then backfill behind the reservation.
        self.planner.compute_reservation(ctx, head.nodes as usize);
        self.scan(ctx, sharing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::PairingPolicy;
    use crate::reference;
    use crate::testkit::{self, job, job_app, oracle};

    fn co_backfill() -> Backfill {
        Backfill::co(Pairing::new(PairingPolicy::default_threshold(), oracle()))
    }

    #[test]
    fn easy_backfills_short_jobs_behind_blocked_head() {
        // Job 0 holds 3 of 4 nodes for 100 s. Job 1 (head) wants all 4.
        // Job 2 wants 1 node for 10 s (est 20 s ≤ shadow) → backfills.
        let world = testkit::world(4, vec![job(0, 3, 100.0), job(1, 4, 100.0), job(2, 1, 10.0)]);
        let out = testkit::simulate(&world, &mut Backfill::easy());
        assert!(out.complete());
        let r2 = &out.records[2];
        assert!(
            r2.wait() < 1.0,
            "short job should backfill (wait {})",
            r2.wait()
        );
        // The head starts when job 0's walltime estimate expires — not
        // later (the backfill guarantee), and not before its work is done.
        let r1 = &out.records[1];
        assert!(r1.start >= 100.0 - 1e-6 && r1.start <= 200.0 + 1e-6);
    }

    #[test]
    fn easy_refuses_backfill_that_would_delay_head() {
        // Job 0 holds 3 nodes, est end 200. Head (job 1) wants 4: shadow =
        // 200 on all nodes. Job 2 wants 1 node for runtime 150 (est 300):
        // it would outlive the shadow on a reserved node → must wait.
        let world = testkit::world(
            4,
            vec![job(0, 3, 100.0), job(1, 4, 100.0), job(2, 1, 150.0)],
        );
        let out = testkit::simulate(&world, &mut Backfill::easy());
        assert!(out.complete());
        let (r1, r2) = (&out.records[1], &out.records[2]);
        assert!(
            r2.start >= r1.start - 1e-6,
            "long candidate must not start before the head (cand {} head {})",
            r2.start,
            r1.start
        );
    }

    #[test]
    fn co_backfill_shares_lanes_with_compatible_residents() {
        // Memory-bound job 0 holds both nodes. Compute-bound job 1 also
        // wants both nodes: with sharing it starts immediately on the
        // second lanes.
        let world = testkit::world(
            2,
            vec![job_app(0, 2, 100.0, "AMG"), job_app(1, 2, 100.0, "miniDFT")],
        );
        let out = testkit::simulate(&world, &mut co_backfill());
        assert!(out.complete());
        let r1 = &out.records[1];
        assert!(r1.shared_alloc, "compute job should co-allocate");
        assert!(r1.wait() < 1.0);
    }

    #[test]
    fn phase_spans_attribute_placement_wall_time() {
        // A saturating mix with co-allocation: the placement-scan span
        // fires once per non-empty scheduling pass.
        let world = testkit::world(
            2,
            vec![
                job_app(0, 2, 100.0, "AMG"),
                job_app(1, 2, 100.0, "miniDFT"),
                job_app(2, 1, 50.0, "miniFE"),
            ],
        );
        let (out, tele) = testkit::simulate_with_telemetry(&world, &mut co_backfill());
        assert!(out.complete());
        assert!(
            tele.sched.phase_placement_seconds.count() > 0,
            "placement scans must be timed"
        );
        // Spans observe non-negative wall time.
        assert!(tele.sched.phase_placement_seconds.sum() >= 0.0);
    }

    #[test]
    fn co_backfill_beats_easy_on_makespan_for_complementary_mix() {
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    job_app(i, 2, 200.0, "AMG")
                } else {
                    job_app(i, 2, 200.0, "miniDFT")
                }
            })
            .collect();
        let world = testkit::world(4, jobs.clone());
        let easy = testkit::simulate(&world, &mut Backfill::easy());
        let world = testkit::world(4, jobs);
        let co = testkit::simulate(&world, &mut co_backfill());
        assert!(easy.complete() && co.complete());
        let mk = |o: &nodeshare_engine::SimOutcome| {
            o.records.iter().map(|r| r.finish).fold(0.0, f64::max)
        };
        assert!(
            mk(&co) < mk(&easy) * 0.8,
            "co-backfill {} vs easy {}",
            mk(&co),
            mk(&easy)
        );
    }

    #[test]
    fn shared_backfill_respects_the_reservation() {
        // Cluster of 2. Job 0 (AMG, 2 nodes, shared-mode head start) runs
        // with est end 200. Head job 1 wants 2 exclusive nodes (not
        // share-eligible). Candidate job 2 (miniDFT, est 400 > shadow)
        // would pair beautifully with job 0 — but sharing onto reserved
        // nodes would hold lanes past the shadow and delay the head, so
        // CoBackfill must refuse.
        let mut j1 = job(1, 2, 100.0);
        j1.share_eligible = false;
        let mut j2 = job_app(2, 2, 200.0, "miniDFT");
        j2.walltime_estimate = 400.0;
        let world = testkit::world(2, vec![job_app(0, 2, 100.0, "AMG"), j1, j2]);
        let out = testkit::simulate(&world, &mut co_backfill());
        assert!(out.complete());
        let (r1, r2) = (&out.records[1], &out.records[2]);
        assert!(
            r2.start >= r1.start - 1e-6,
            "candidate outliving the shadow must not take reserved lanes"
        );
    }

    #[test]
    fn co_backfill_only_keeps_the_head_exclusive() {
        // Head (miniDFT) could pair beautifully with the running AMG, but
        // the backfill-only variant makes the head wait for idle nodes.
        let world = testkit::world(
            2,
            vec![job_app(0, 2, 100.0, "AMG"), job_app(1, 2, 100.0, "miniDFT")],
        );
        let mut sched =
            Backfill::co_backfill_only(Pairing::new(PairingPolicy::default_threshold(), oracle()));
        let out = testkit::simulate(&world, &mut sched);
        assert!(out.complete());
        let r1 = &out.records[1];
        // Job 1 becomes head once job 0 runs; head never co-allocates.
        assert!(
            r1.start >= 99.0,
            "backfill-only head must wait for exclusive nodes (start {})",
            r1.start
        );
    }

    #[test]
    fn reference_mode_matches_the_optimized_path() {
        // Quick in-crate smoke; the exhaustive check (all strategies,
        // many seeds, full traces) lives in tests/differential.rs.
        let jobs: Vec<_> = (0..12)
            .map(|i| match i % 3 {
                0 => job_app(i, 2, 150.0, "AMG"),
                1 => job_app(i, 1, 80.0, "miniDFT"),
                _ => job_app(i, 3, 220.0, "SNAP"),
            })
            .collect();
        let world = testkit::world(4, jobs);
        let fast = testkit::simulate(&world, &mut co_backfill());
        let refr = testkit::simulate(
            &world,
            &mut reference::Backfill::co(Pairing::new(
                PairingPolicy::default_threshold(),
                oracle(),
            )),
        );
        assert_eq!(fast.records, refr.records);
    }

    #[test]
    fn names() {
        assert_eq!(Backfill::easy().name(), "easy-backfill");
        assert_eq!(co_backfill().name(), "co-backfill");
    }
}
