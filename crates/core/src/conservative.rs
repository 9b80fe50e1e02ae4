//! Conservative backfill: every queued job gets a reservation.
//!
//! A candidate may start early only when doing so delays *no*
//! earlier-queued job's planned start. Implemented with the count-based
//! availability profile: queued jobs are planned in order, each taking
//! the earliest slot that fits its size and estimate; a job whose planned
//! slot is "now" actually starts. Exclusive allocation only — the paper
//! uses it as a second baseline.
//!
//! The scheduler plans against an incrementally maintained
//! [`ReservationTimeline`] (version-keyed base, in-place reservation
//! splicing, cross-pass prefix cache) and places via the planner's O(k)
//! exclusive picker. [`crate::reference::Conservative`], the original
//! from-scratch [`crate::AvailabilityProfile`] loop, is the oracle
//! `tests/differential.rs` holds it byte-equal to.

use crate::pairing::Pairing;
use crate::planner::{Planner, ReservationTimeline};
use crate::util::PLAN_EPS;
use nodeshare_engine::{Decision, SchedContext, Scheduler};

/// Conservative backfill with exclusive allocation.
#[derive(Clone, Debug)]
pub struct Conservative {
    planner: Planner,
    timeline: ReservationTimeline,
    /// Pending one-shot profile corruption (fault-injection tests).
    poison: Option<i64>,
}

impl Conservative {
    /// Creates the policy.
    pub fn new() -> Self {
        Conservative {
            planner: Planner::new(&Pairing::never()),
            timeline: ReservationTimeline::new(),
            poison: None,
        }
    }

    /// Arms a one-shot corruption of the incremental profile's anchor
    /// entry (`free -= delta` at the next pass), for the audit
    /// fault-injection tests.
    #[doc(hidden)]
    pub fn corrupt_next_pass(&mut self, delta: i64) {
        self.poison = Some(delta);
    }

    /// The incremental profile's current steps (for the property tests
    /// that diff it against a from-scratch rebuild).
    #[doc(hidden)]
    pub fn profile_steps(&self) -> &[(f64, i64)] {
        self.timeline.steps()
    }
}

impl Default for Conservative {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Conservative {
    fn name(&self) -> &'static str {
        "conservative-backfill"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        // Wall-clock phase span over the timeline-maintenance pass
        // (profile splice/rebuild + plan/reserve loop); observes on drop.
        let _timeline_span = ctx.telemetry.map(|t| t.time_timeline());
        let resume = self.timeline.begin_pass(ctx);
        if let Some(delta) = self.poison.take() {
            self.timeline.corrupt_anchor_for_test(delta);
        }
        for job in &ctx.queue[resume..] {
            let start = self
                .timeline
                .plan(job.id, job.nodes as i64, job.walltime_estimate);
            if start <= ctx.now + PLAN_EPS {
                if let Some(nodes) = self.planner.pick_exclusive(ctx, job, false) {
                    self.timeline.started(job.nodes as i64);
                    return vec![Decision::StartExclusive { job: job.id, nodes }];
                }
                // Count-based plan said "fits now" but no concrete idle
                // nodes satisfy memory — plan it for later instead.
            }
            if start.is_finite() {
                self.timeline
                    .reserve(start, job.walltime_estimate, job.nodes as i64);
            }
        }
        self.timeline.seal();
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::testkit::{self, job};

    #[test]
    fn backfills_without_delaying_any_reservation() {
        // Job 0: 3 nodes, 100 s (est 200). Job 1: 4 nodes (whole machine).
        // Job 2: 1 node, 10 s (est 20) → fits before job 1's reservation.
        let world = testkit::world(4, vec![job(0, 3, 100.0), job(1, 4, 100.0), job(2, 1, 10.0)]);
        let out = testkit::simulate(&world, &mut Conservative::new());
        assert!(out.complete());
        assert!(out.records[2].wait() < 1.0);
    }

    #[test]
    fn protects_second_in_line_reservations() {
        // Unlike EASY, conservative also refuses backfill that would
        // delay job 2 (not just the head).
        //
        // Cluster 4. Job 0: 2 nodes est 200. Head job 1: 4 nodes (starts
        // at 200, est 200 → [200, 400)). Job 2: 2 nodes est 200 → planned
        // [400, 600). Job 3: 2 nodes est 190: EASY would start it (ends
        // 190 ≤ shadow 200 is false... est 190 ≤ 200 shadow: yes EASY
        // starts it). For conservative it also fits before the shadow, so
        // both agree here; the distinguishing case is a candidate that
        // fits between reservations. Job 3 with est 350 must wait under
        // conservative: its window [0, 350) would overlap job 1's
        // whole-machine slot [200, 400).
        let mut j3 = job(3, 2, 150.0);
        j3.walltime_estimate = 350.0;
        let world = testkit::world(
            4,
            vec![job(0, 2, 100.0), job(1, 4, 100.0), job(2, 2, 100.0), j3],
        );
        let out = testkit::simulate(&world, &mut Conservative::new());
        assert!(out.complete());
        let r1 = &out.records[1];
        let r3 = &out.records[3];
        assert!(
            r3.start >= r1.start - 1e-6,
            "candidate overlapping the head's slot must wait (j3 {} head {})",
            r3.start,
            r1.start
        );
    }

    #[test]
    fn phase_spans_attribute_timeline_wall_time() {
        let world = testkit::world(4, vec![job(0, 3, 100.0), job(1, 4, 100.0), job(2, 1, 10.0)]);
        let (out, tele) = testkit::simulate_with_telemetry(&world, &mut Conservative::new());
        assert!(out.complete());
        assert!(
            tele.sched.phase_timeline_seconds.count() > 0,
            "timeline-maintenance passes must be timed"
        );
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let world = testkit::world(2, vec![job(0, 1, 10.0)]);
        let out = testkit::simulate(&world, &mut Conservative::new());
        assert!(out.complete());
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn reference_mode_matches_the_optimized_path() {
        // In-crate smoke check; the cross-workload battery lives in
        // tests/differential.rs.
        let jobs = || {
            let mut j3 = job(3, 2, 150.0);
            j3.walltime_estimate = 350.0;
            vec![
                job(0, 2, 100.0),
                job(1, 4, 100.0),
                job(2, 2, 100.0),
                j3,
                job(4, 1, 5.0),
                job(5, 3, 40.0),
            ]
        };
        let world = testkit::world(4, jobs());
        let fast = testkit::simulate(&world, &mut Conservative::new());
        let refr = testkit::simulate(&world, &mut reference::Conservative::new());
        assert!(fast.complete() && refr.complete());
        assert_eq!(fast.records, refr.records);
    }
}
