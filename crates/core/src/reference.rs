//! Reference oracles: the straight-line implementations the optimized
//! strategies were derived from.
//!
//! [`crate::Backfill`], [`crate::FirstFit`] and [`crate::Conservative`]
//! plan against incremental caches ([`crate::planner::Planner`],
//! [`crate::ReservationTimeline`]). The schedulers here make the same
//! policy decisions from scratch on every pass, with the pickers and the
//! availability profile in [`crate::util`]: slower, but obviously
//! correct. They are written independently of the optimized bodies, so
//! `tests/differential.rs` (through
//! [`StrategyConfig::build_reference`](crate::StrategyConfig::build_reference))
//! can hold each optimized strategy to bit-identical traces, outcomes and
//! telemetry counters against its oracle. Each oracle reports the same
//! `name()` and records the same telemetry as its optimized twin.

use crate::backfill::record_backfill;
use crate::pairing::Pairing;
use crate::util::{pick_exclusive, pick_shared, AvailabilityProfile, HeadReservation, PLAN_EPS};
use nodeshare_engine::{Decision, SchedContext, Scheduler};

/// Reference EASY backfill, optionally co-allocation-aware (the oracle
/// for [`crate::Backfill`]).
#[derive(Clone, Debug)]
pub struct Backfill {
    pairing: Pairing,
    /// Whether the head itself may start in shared mode.
    share_head: bool,
}

impl Backfill {
    /// Plain EASY backfill with exclusive allocation.
    pub fn easy() -> Self {
        Backfill {
            pairing: Pairing::never(),
            share_head: false,
        }
    }

    /// Co-allocation-aware backfill with the given pairing policy.
    pub fn co(pairing: Pairing) -> Self {
        Backfill {
            pairing,
            share_head: true,
        }
    }

    /// Co-allocation restricted to backfill candidates.
    pub fn co_backfill_only(pairing: Pairing) -> Self {
        Backfill {
            pairing,
            share_head: false,
        }
    }

    /// The backfill candidate scan behind the head's reservation.
    fn scan(
        &self,
        ctx: &SchedContext<'_>,
        reservation: &HeadReservation,
        sharing: bool,
    ) -> Vec<Decision> {
        let candidates = &ctx.queue[1..];
        for (i, job) in candidates.iter().enumerate() {
            let excl_end = ctx.now + job.walltime_estimate;
            let shared_end = ctx.now + job.walltime_estimate * ctx.shared_grace.max(1.0);
            let excl_fits = excl_end <= reservation.shadow + PLAN_EPS;
            let shared_fits = shared_end <= reservation.shadow + PLAN_EPS;
            let allowed_excl = |n| excl_fits || !reservation.nodes.contains(&n);
            let allowed_shared = |n| shared_fits || !reservation.nodes.contains(&n);

            if sharing && job.share_eligible {
                let nodes = pick_exclusive(ctx, job, allowed_shared)
                    .or_else(|| pick_shared(ctx, job, &self.pairing, allowed_shared));
                if let Some(nodes) = nodes {
                    record_backfill(ctx, i + 1, true);
                    return vec![Decision::StartShared { job: job.id, nodes }];
                }
            } else if let Some(nodes) = pick_exclusive(ctx, job, allowed_excl) {
                record_backfill(ctx, i + 1, true);
                return vec![Decision::StartExclusive { job: job.id, nodes }];
            }
        }
        record_backfill(ctx, candidates.len(), false);
        Vec::new()
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
        // Same phase span as the optimized path, so the two report
        // comparable placement-scan wall time.
        let _placement_span = ctx.telemetry.map(|t| t.time_placement());

        let sharing = self.pairing.sharing_enabled();

        // 1. Start the head if it fits now. Idle capacity first — running
        // alone always beats co-running. Share-eligible jobs still start
        // in shared (single-lane) mode so the second lane stays open for
        // later partners. When idle nodes are short, a share-eligible
        // head may instead co-allocate onto compatible lanes (CoBackfill
        // behavior), so the head no longer waits for whole idle nodes.
        if let Some(nodes) = pick_exclusive(ctx, head, |_| true) {
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
            if let Some(nodes) = pick_shared(ctx, head, &self.pairing, |_| true) {
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
        // A candidate's occupancy bound depends on how it would start:
        // shared-mode jobs receive the walltime grace, so their lanes may
        // be held longer — the shadow test must use the padded bound.
        let reservation = HeadReservation::compute(ctx, head.nodes as usize);
        self.scan(ctx, &reservation, sharing)
    }
}

/// Reference first-fit, optionally co-allocation-aware (the oracle for
/// [`crate::FirstFit`]).
#[derive(Clone, Debug)]
pub struct FirstFit {
    pairing: Pairing,
}

impl FirstFit {
    /// Plain exclusive first-fit.
    pub fn exclusive() -> Self {
        FirstFit {
            pairing: Pairing::never(),
        }
    }

    /// Co-allocation-aware first-fit with the given pairing policy.
    pub fn sharing(pairing: Pairing) -> Self {
        FirstFit { pairing }
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
        // Same phase span as the optimized path.
        let _placement_span = ctx.telemetry.map(|t| t.time_placement());
        let sharing = self.pairing.sharing_enabled();
        for job in ctx.queue {
            // Idle capacity first: sharing never beats running alone.
            // Share-eligible jobs still start in shared (single-lane)
            // mode so their second lane stays open for later partners.
            if let Some(nodes) = pick_exclusive(ctx, job, |_| true) {
                return if sharing && job.share_eligible {
                    vec![Decision::StartShared { job: job.id, nodes }]
                } else {
                    vec![Decision::StartExclusive { job: job.id, nodes }]
                };
            }
            // No idle capacity for this job: co-allocate onto compatible
            // lanes when the predicted net throughput gain is positive.
            if sharing && job.share_eligible {
                if let Some(nodes) = pick_shared(ctx, job, &self.pairing, |_| true) {
                    return vec![Decision::StartShared { job: job.id, nodes }];
                }
            }
        }
        Vec::new()
    }
}

/// Reference conservative backfill: rebuilds the [`AvailabilityProfile`]
/// from scratch on every pass (the oracle for [`crate::Conservative`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Conservative;

impl Conservative {
    /// Creates the policy.
    pub fn new() -> Self {
        Conservative
    }
}

impl Scheduler for Conservative {
    fn name(&self) -> &'static str {
        "conservative-backfill"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        // Same phase span as the optimized path: the from-scratch profile
        // build is exactly the maintenance the incremental path avoids.
        let _timeline_span = ctx.telemetry.map(|t| t.time_timeline());
        let mut profile = AvailabilityProfile::from_context(ctx);
        for job in ctx.queue {
            let start = profile.earliest_fit(ctx.now, job.nodes as i64, job.walltime_estimate);
            if start <= ctx.now + PLAN_EPS {
                if let Some(nodes) = pick_exclusive(ctx, job, |_| true) {
                    return vec![Decision::StartExclusive { job: job.id, nodes }];
                }
            }
            if start.is_finite() {
                profile.reserve(start, job.walltime_estimate, job.nodes as i64);
            }
        }
        Vec::new()
    }
}
