//! Planning primitives shared by the scheduling strategies: node free
//! times, head reservations (shadow times), placement pickers, and the
//! count-based availability profile used by conservative backfill.

use crate::pairing::Pairing;
use nodeshare_cluster::{AdminState, NodeId};
use nodeshare_engine::SchedContext;
use nodeshare_workload::{JobSpec, Seconds};
use std::collections::HashSet;

/// Numerical slack for time comparisons in planning.
pub const PLAN_EPS: f64 = 1e-6;

/// Per-node earliest time at which the node is *fully* free (no resident
/// on any lane), for all `Up` nodes in id order.
///
/// Idle nodes are free `now`; occupied nodes free when their last
/// resident's walltime estimate expires — a hard bound when walltime
/// enforcement is on, which is what makes backfill guarantees sound.
pub fn node_free_times(ctx: &SchedContext<'_>) -> Vec<(NodeId, Seconds)> {
    ctx.cluster
        .nodes()
        .iter()
        .filter(|n| n.admin_state() == AdminState::Up)
        .map(|n| {
            let free_at = n
                .occupants()
                .iter()
                .filter_map(|j| ctx.running.get(j))
                .map(|r| r.est_end())
                .fold(ctx.now, f64::max);
            (n.id(), free_at)
        })
        .collect()
}

/// The head job's reservation: when enough nodes will be free, and which
/// nodes are earmarked for it.
#[derive(Clone, Debug, PartialEq)]
pub struct HeadReservation {
    /// Earliest time `k` nodes are simultaneously free (∞ when the
    /// machine can never supply `k` nodes).
    pub shadow: Seconds,
    /// The `k` earliest-free nodes, reserved for the head.
    // detlint: allow(D1, reservation set probed via contains; never iterated)
    pub nodes: HashSet<NodeId>,
}

impl HeadReservation {
    /// Computes the reservation for a head job needing `k` nodes.
    pub fn compute(ctx: &SchedContext<'_>, k: usize) -> HeadReservation {
        let mut free = node_free_times(ctx);
        if free.len() < k {
            return HeadReservation {
                shadow: f64::INFINITY,
                // detlint: allow(D1, empty reservation set for the impossible-head case; never iterated)
                nodes: HashSet::new(),
            };
        }
        // Earliest-free first; ties by node id for determinism.
        free.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let shadow = free[k - 1].1;
        let nodes = free[..k].iter().map(|&(n, _)| n).collect();
        HeadReservation { shadow, nodes }
    }

    /// Whether a candidate running in `[now, now + walltime]` on `node`
    /// could delay the head: it can only if it outlives the shadow *and*
    /// occupies a reserved node.
    pub fn blocks(&self, node: NodeId, candidate_end: Seconds) -> bool {
        candidate_end > self.shadow + PLAN_EPS && self.nodes.contains(&node)
    }
}

/// Picks the `job.nodes` lowest-id idle nodes passing `allowed`, with
/// memory feasibility, for an exclusive start.
pub fn pick_exclusive(
    ctx: &SchedContext<'_>,
    job: &JobSpec,
    mut allowed: impl FnMut(NodeId) -> bool,
) -> Option<Vec<NodeId>> {
    let k = job.nodes as usize;
    let picked: Vec<NodeId> = ctx
        .cluster
        .idle_nodes()
        .filter(|&n| {
            allowed(n)
                && ctx
                    .cluster
                    .node(n)
                    .is_some_and(|node| node.mem_free() >= u64::from(job.mem_per_node_mib))
        })
        .take(k)
        .collect();
    (picked.len() == k).then_some(picked)
}

/// A planned co-allocation: where the job would go and what the pairing
/// is predicted to be worth.
///
/// Because multi-node jobs are bulk-synchronous (they run at the rate of
/// their slowest node), pairing a candidate onto a *subset* of a
/// resident's nodes slows the resident on **all** its nodes. The plan
/// therefore carries a whole-placement **net gain**:
///
/// `net = k·r_cand − Σ_residents A.nodes·(1 − r_A)`
///
/// where `r_cand` is the candidate's predicted rate (min over its
/// partners) and `r_A` each touched resident's predicted rate next to the
/// candidate. Positive net means the placement adds machine throughput
/// versus leaving the candidate in the queue; strategies only co-allocate
/// net-positive plans. Resident rates are conservatively assumed to be
/// 1.0 beforehand (a resident already slowed elsewhere makes the plan
/// look worse than it is, never better).
#[derive(Clone, Debug, PartialEq)]
pub struct SharedPlan {
    /// Target nodes, partial (partnered) nodes first.
    pub nodes: Vec<NodeId>,
    /// Distinct resident jobs the candidate would pair with.
    pub partners: Vec<nodeshare_cluster::JobId>,
    /// Predicted candidate rate under this placement.
    pub candidate_rate: f64,
    /// Predicted net throughput gain in node-equivalents (see above).
    pub net_gain: f64,
}

/// Plans a shared (lane) start for `job`: free lanes of compatible
/// partial nodes first (best predicted pairs first), idle nodes for the
/// remainder, all passing `allowed` and memory checks.
///
/// Returns `None` when the job did not opt in, sharing is disabled, or
/// `job.nodes` nodes cannot be assembled. A returned plan may still have
/// a negative [`SharedPlan::net_gain`]; the caller decides the threshold.
pub fn plan_shared(
    ctx: &SchedContext<'_>,
    job: &JobSpec,
    pairing: &Pairing,
    mut allowed: impl FnMut(NodeId) -> bool,
) -> Option<SharedPlan> {
    if !job.share_eligible || !pairing.sharing_enabled() {
        return None;
    }
    let k = job.nodes as usize;
    // Compatible partial nodes, best predicted pairs first. The whole
    // stack on a node must be acceptable, not just each resident in
    // isolation — with an n-way-capable predictor this prices three- and
    // four-way contention correctly (see the F11 experiment).
    let mut partials: Vec<(NodeId, f64)> = ctx
        .cluster
        .partial_nodes()
        .filter(|&n| allowed(n))
        .filter_map(|n| {
            let node = ctx.cluster.node(n)?;
            // A query is one candidate partial node evaluated against the
            // pairing policy; a hit is one that survives every filter.
            if let Some(t) = ctx.telemetry {
                t.pairing_queries.inc();
            }
            if node.mem_free() < u64::from(job.mem_per_node_mib) {
                return None;
            }
            let mut score = f64::INFINITY;
            let mut resident_apps = Vec::with_capacity(node.occupants().len());
            let cand_bound = job.walltime_estimate * ctx.shared_grace.max(1.0);
            for resident in node.occupants() {
                let r = ctx.running.get(&resident)?;
                if !r.share_eligible {
                    return None;
                }
                if let Some(theta) = pairing.duration_match {
                    let remaining = (r.est_end() - ctx.now).max(0.0);
                    let overlap = remaining.min(cand_bound) / remaining.max(cand_bound).max(1e-9);
                    if overlap < theta {
                        return None;
                    }
                }
                resident_apps.push(r.app);
                score = score.min(pairing.score(job.app, r.app));
            }
            if !pairing.allows_stack(job.app, &resident_apps) {
                return None;
            }
            if let Some(t) = ctx.telemetry {
                t.pairing_hits.inc();
            }
            Some((n, score))
        })
        .collect();
    partials.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut nodes: Vec<NodeId> = partials.into_iter().take(k).map(|(n, _)| n).collect();
    if nodes.len() < k {
        let need = k - nodes.len();
        nodes.extend(
            ctx.cluster
                .idle_nodes()
                .filter(|&n| {
                    allowed(n)
                        && ctx
                            .cluster
                            .node(n)
                            .is_some_and(|node| node.mem_free() >= u64::from(job.mem_per_node_mib))
                })
                .take(need),
        );
    }
    if nodes.len() < k {
        return None;
    }

    // Evaluate the plan node by node: the candidate's rate is the worst
    // predicted stack rate across its nodes; each partner's loss is
    // counted once, at its worst predicted post-placement rate.
    let mut partners: Vec<nodeshare_cluster::JobId> = Vec::new();
    let mut partner_rate: Vec<f64> = Vec::new();
    let mut candidate_rate = 1.0f64;
    for &n in &nodes {
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let node = ctx.cluster.node(n).expect("picked node exists");
        let occupants = node.occupants();
        if occupants.is_empty() {
            continue;
        }
        let apps: Vec<_> = occupants
            .iter()
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            .map(|j| ctx.running.get(j).expect("resident is running").app)
            .collect();
        let sr = pairing.stack_rates(job.app, &apps);
        candidate_rate = candidate_rate.min(sr.candidate);
        for (resident, &rate) in occupants.iter().zip(&sr.residents) {
            match partners.iter().position(|p| p == resident) {
                Some(i) => partner_rate[i] = partner_rate[i].min(rate),
                None => {
                    partners.push(*resident);
                    partner_rate.push(rate);
                }
            }
        }
    }
    let losses: f64 = partners
        .iter()
        .zip(&partner_rate)
        .map(|(p, &rate)| {
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            let r = ctx.running.get(p).expect("partner is running");
            r.nodes as f64 * (1.0 - rate)
        })
        .sum();
    Some(SharedPlan {
        net_gain: k as f64 * candidate_rate - losses,
        nodes,
        partners,
        candidate_rate,
    })
}

/// Plans a shared start and accepts it only when the predicted net gain
/// clears the pairing's floor (default: strictly positive) — the form
/// the strategies use.
pub fn pick_shared(
    ctx: &SchedContext<'_>,
    job: &JobSpec,
    pairing: &Pairing,
    allowed: impl FnMut(NodeId) -> bool,
) -> Option<Vec<NodeId>> {
    let plan = plan_shared(ctx, job, pairing, allowed)?;
    (plan.net_gain > pairing.net_gain_floor).then_some(plan.nodes)
}

/// A count-based future-availability step function used by conservative
/// backfill to plan reservations for every queued job.
///
/// Count-based planning is the standard simulator simplification: node
/// *identity* only matters for jobs starting now (where the concrete
/// pickers above decide); future reservations need only counts.
#[derive(Clone, Debug)]
pub struct AvailabilityProfile {
    /// `(time, free_node_count)` breakpoints, time-ascending; the value
    /// holds from its time until the next breakpoint.
    steps: Vec<(Seconds, i64)>,
}

impl AvailabilityProfile {
    /// Builds the profile from the scheduler context: idle nodes are free
    /// now, each running job returns its nodes at its estimated end.
    pub fn from_context(ctx: &SchedContext<'_>) -> Self {
        let mut deltas: Vec<(Seconds, i64)> = Vec::with_capacity(ctx.running.len() + 1);
        deltas.push((ctx.now, ctx.cluster.idle_count() as i64));
        for r in ctx.running.values() {
            deltas.push((r.est_end().max(ctx.now), r.nodes as i64));
        }
        Self::from_deltas(deltas)
    }

    /// Builds from raw `(time, +count)` release deltas.
    pub fn from_deltas(mut deltas: Vec<(Seconds, i64)>) -> Self {
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut steps: Vec<(Seconds, i64)> = Vec::with_capacity(deltas.len());
        let mut level = 0i64;
        for (t, d) in deltas {
            level += d;
            match steps.last_mut() {
                Some(last) if last.0 == t => last.1 = level,
                _ => steps.push((t, level)),
            }
        }
        AvailabilityProfile { steps }
    }

    /// The `(time, free_node_count)` breakpoints, time-ascending. Exposed
    /// so the incremental [`crate::planner::ReservationTimeline`] can be
    /// checked step-for-step against a from-scratch rebuild.
    pub fn steps(&self) -> &[(Seconds, i64)] {
        &self.steps
    }

    /// Free nodes at `time`.
    pub fn free_at(&self, time: Seconds) -> i64 {
        match self.steps.binary_search_by(|s| s.0.total_cmp(&time)) {
            Ok(i) => self.steps[i].1,
            Err(0) => 0,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Earliest `t ≥ from` such that at least `nodes` are free throughout
    /// `[t, t + duration)`. Returns ∞ if the capacity never materializes.
    pub fn earliest_fit(&self, from: Seconds, nodes: i64, duration: Seconds) -> Seconds {
        let mut candidates: Vec<Seconds> = vec![from];
        candidates.extend(self.steps.iter().map(|&(t, _)| t).filter(|&t| t > from));
        'outer: for &t in &candidates {
            if self.free_at(t) < nodes {
                continue;
            }
            let end = t + duration;
            for &(st, sv) in &self.steps {
                if st > t + PLAN_EPS && st < end - PLAN_EPS && sv < nodes {
                    continue 'outer;
                }
            }
            return t;
        }
        f64::INFINITY
    }

    /// Subtracts `nodes` from availability during `[start, start + duration)`
    /// — a planned reservation.
    pub fn reserve(&mut self, start: Seconds, duration: Seconds, nodes: i64) {
        let mut deltas: Vec<(Seconds, i64)> = Vec::with_capacity(self.steps.len() + 2);
        let mut prev = 0i64;
        for &(t, level) in &self.steps {
            deltas.push((t, level - prev));
            prev = level;
        }
        deltas.push((start, -nodes));
        deltas.push((start + duration, nodes));
        *self = Self::from_deltas(deltas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AvailabilityProfile {
        // 2 free now (t=0); +3 at t=100; +1 at t=200.
        AvailabilityProfile::from_deltas(vec![(0.0, 2), (100.0, 3), (200.0, 1)])
    }

    #[test]
    fn free_levels() {
        let p = profile();
        assert_eq!(p.free_at(-1.0), 0);
        assert_eq!(p.free_at(0.0), 2);
        assert_eq!(p.free_at(99.9), 2);
        assert_eq!(p.free_at(100.0), 5);
        assert_eq!(p.free_at(500.0), 6);
    }

    #[test]
    fn earliest_fit_finds_gaps() {
        let p = profile();
        assert_eq!(p.earliest_fit(0.0, 2, 50.0), 0.0);
        assert_eq!(p.earliest_fit(0.0, 3, 50.0), 100.0);
        assert_eq!(p.earliest_fit(0.0, 6, 10.0), 200.0);
        assert_eq!(p.earliest_fit(0.0, 7, 10.0), f64::INFINITY);
        assert_eq!(p.earliest_fit(150.0, 2, 10.0), 150.0);
    }

    #[test]
    fn reserve_consumes_capacity() {
        let mut p = profile();
        p.reserve(0.0, 150.0, 2);
        assert_eq!(p.free_at(0.0), 0);
        assert_eq!(p.free_at(100.0), 3);
        assert_eq!(p.free_at(150.0), 5);
        // A 2-node job can no longer start at 0.
        assert_eq!(p.earliest_fit(0.0, 2, 10.0), 100.0);
    }

    #[test]
    fn earliest_fit_respects_dips_inside_the_window() {
        // 4 free now; a reservation eats 3 during [50, 100).
        let mut p = AvailabilityProfile::from_deltas(vec![(0.0, 4)]);
        p.reserve(50.0, 50.0, 3);
        // A 2-node 100-second job cannot start at 0 (dip to 1 at t=50).
        assert_eq!(p.earliest_fit(0.0, 2, 100.0), 100.0);
        // But a 1-node job can.
        assert_eq!(p.earliest_fit(0.0, 1, 100.0), 0.0);
        // And a 2-node job short enough to finish by the dip can.
        assert_eq!(p.earliest_fit(0.0, 2, 50.0), 0.0);
    }
}
