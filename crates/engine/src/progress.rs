//! Work-based job progress with co-runner-dependent rates.
//!
//! A running job carries `work_done` in *exclusive-rate seconds*; it
//! completes when `work_done` reaches its exclusive runtime. Its progress
//! rate is the minimum over its nodes of the per-node rate — bulk-
//! synchronous applications advance at the pace of their slowest rank —
//! where a node's rate is 1.0 when the job runs alone there and the pair
//! matrix rate when a co-runner is resident.
//!
//! Rates are piecewise constant between allocation changes, so progress
//! integration is exact. Every re-rate bumps the job's generation,
//! invalidating completion events scheduled under the old rate.
//!
//! A re-rate walks each node's lane owners in lane order, keeping each
//! co-runner at its first lane (the n-way rate depends on that order),
//! into a stack buffer: it allocates nothing.

use nodeshare_cluster::{Cluster, JobId, NodeId, ShareMode};
use nodeshare_perf::{AppId, CoRunTruth};
use nodeshare_workload::{JobSpec, Seconds};

/// Mutable state of one running job.
#[derive(Clone, Debug)]
pub struct RunningJob {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Start time.
    pub start: Seconds,
    /// Nodes held (grant order).
    pub nodes: Vec<NodeId>,
    /// Allocation mode.
    pub mode: ShareMode,
    /// Exclusive-rate seconds of work completed so far.
    pub work_done: f64,
    /// Checkpointed work the job resumed from at this start (0 unless a
    /// node failure requeued it), exclusive-rate seconds.
    pub salvaged: f64,
    /// Current progress rate (exclusive-rate seconds per wall second).
    pub rate: f64,
    /// Wall time of the last progress integration.
    pub last_update: Seconds,
    /// Re-rate generation; completion events carry the generation they
    /// were scheduled under.
    pub generation: u64,
    /// Accumulated node-seconds spent co-resident with another job.
    pub shared_node_seconds: f64,
    /// Number of this job's nodes currently hosting a co-runner
    /// (piecewise constant between events).
    pub shared_nodes_now: u32,
    /// Normalized walltime consumed, in *requested-width seconds*: the
    /// integral of `current_width / requested_width` over wall time.
    /// For rigid jobs this is exactly the elapsed wall time; reshapes
    /// make the walltime budget width-proportional (a job shrunk to
    /// half width burns its allowance at half speed). The engine kills
    /// the job when this reaches `walltime_estimate × grace` plus
    /// [`walltime_credit`](Self::walltime_credit).
    pub walltime_consumed: f64,
    /// Normalized walltime credit granted for system-initiated
    /// reshapes: each reshape charges `cost / requested_width` of extra
    /// work *and* extends the kill bound by the same amount, so a job
    /// is never pushed over its walltime by a reshape the scheduler —
    /// not the user — decided on.
    pub walltime_credit: f64,
    /// Stamp of the currently armed walltime-kill event; a popped kill
    /// whose stamp differs is stale (the job reshaped or restarted since
    /// it was armed).
    pub kill_arm: u64,
}

impl RunningJob {
    /// Remaining work in exclusive-rate seconds.
    #[inline]
    pub fn work_remaining(&self) -> f64 {
        (self.spec.runtime_exclusive - self.work_done).max(0.0)
    }

    /// True when the job's work is (numerically) done.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.work_remaining() <= 1e-9 * self.spec.runtime_exclusive.max(1.0)
    }

    /// Predicted completion time under the current rate.
    #[inline]
    pub fn eta(&self, now: Seconds) -> Seconds {
        now + self.work_remaining() / self.rate
    }

    /// Current width over requested width — 1.0 unless a reshape
    /// changed the allocation.
    #[inline]
    pub fn width_factor(&self) -> f64 {
        if self.nodes.len() as u32 == self.spec.nodes {
            1.0
        } else {
            self.nodes.len() as f64 / self.spec.nodes as f64
        }
    }

    /// Integrates progress from `last_update` to `now`.
    pub fn advance_to(&mut self, now: Seconds) {
        debug_assert!(now + 1e-9 >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).max(0.0);
        self.work_done += self.rate * dt;
        self.shared_node_seconds += self.shared_nodes_now as f64 * dt;
        self.walltime_consumed += self.width_factor() * dt;
        self.last_update = now;
    }

    /// Recomputes `rate`/`shared_nodes_now` from current cluster
    /// occupancy, resolving each co-runner's application through `app_of`,
    /// and bumps the generation.
    ///
    /// Handles any SMT width: a node's rate comes from the n-way truth
    /// over *all* co-residents of that node.
    ///
    /// Call only after [`RunningJob::advance_to`] — the rate change must
    /// not be applied retroactively.
    pub fn rerate_with(
        &mut self,
        cluster: &Cluster,
        truth: &CoRunTruth,
        mut app_of: impl FnMut(JobId) -> AppId,
    ) -> u64 {
        let mut rate = f64::INFINITY;
        let mut shared_nodes = 0u32;
        // A node has at most `u8::MAX` lanes, so fewer co-runners.
        let mut co_apps = [AppId(0); u8::MAX as usize];
        for &node_id in &self.nodes {
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            let node = cluster.node(node_id).expect("running job's node exists");
            let mut len = 0;
            for (lane, owner) in node.lane_owners().enumerate() {
                if owner != self.spec.id && !node.lane_owners().take(lane).any(|o| o == owner) {
                    co_apps[len] = app_of(owner);
                    len += 1;
                }
            }
            if len > 0 {
                shared_nodes += 1;
            }
            rate = rate.min(truth.rate_with(self.spec.app, &co_apps[..len]));
        }
        // Width-malleable jobs progress in proportion to their current
        // width: the work model is perfect speedup inside the contract's
        // [min, max] range, so a job shrunk to half its requested width
        // advances at half the pace its slowest node allows. Rigid jobs
        // (width == requested) take the historical path untouched.
        let width = self.width_factor();
        if width != 1.0 {
            rate *= width;
        }
        debug_assert!(rate.is_finite() && rate > 0.0, "invalid rate {rate}");
        self.rate = rate;
        self.shared_nodes_now = shared_nodes;
        self.generation += 1;
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_cluster::{ClusterSpec, NodeSpec};
    use nodeshare_perf::{AppCatalog, AppId, ContentionModel};

    fn spec(id: u64, app: u8) -> JobSpec {
        JobSpec {
            malleable: Default::default(),
            id: JobId(id),
            app: AppId(app),
            nodes: 1,
            submit: 0.0,
            runtime_exclusive: 100.0,
            walltime_estimate: 200.0,
            mem_per_node_mib: 0,
            share_eligible: true,
            user: 0,
        }
    }

    fn running(id: u64, app: u8, nodes: Vec<NodeId>) -> RunningJob {
        RunningJob {
            spec: spec(id, app),
            start: 0.0,
            nodes,
            mode: ShareMode::Shared,
            work_done: 0.0,
            salvaged: 0.0,
            rate: 1.0,
            last_update: 0.0,
            generation: 0,
            shared_node_seconds: 0.0,
            shared_nodes_now: 0,
            walltime_consumed: 0.0,
            walltime_credit: 0.0,
            kill_arm: 0,
        }
    }

    #[test]
    fn advance_integrates_work_and_sharing() {
        let mut j = running(1, 0, vec![NodeId(0)]);
        j.rate = 0.5;
        j.shared_nodes_now = 1;
        j.advance_to(40.0);
        assert_eq!(j.work_done, 20.0);
        assert_eq!(j.shared_node_seconds, 40.0);
        assert_eq!(j.work_remaining(), 80.0);
        assert!(!j.is_complete());
        assert_eq!(j.eta(40.0), 40.0 + 160.0);
    }

    #[test]
    fn advance_integrates_normalized_walltime() {
        // Rigid path: walltime_consumed tracks wall time exactly.
        let mut j = running(1, 0, vec![NodeId(0)]);
        j.spec.nodes = 1;
        j.advance_to(30.0);
        assert_eq!(j.walltime_consumed, 30.0);
        // Shrunk to half width: the budget burns at half speed.
        let mut half = running(2, 0, vec![NodeId(0)]);
        half.spec.nodes = 2;
        half.advance_to(30.0);
        assert_eq!(half.walltime_consumed, 15.0);
    }

    #[test]
    fn rerate_scales_with_width_for_reshaped_jobs() {
        let truth = CoRunTruth::build(&AppCatalog::trinity(), &ContentionModel::calibrated());
        let mut cluster = Cluster::new(ClusterSpec::new(4, NodeSpec::tiny()));
        cluster
            .allocate_exclusive(JobId(1), &[NodeId(0), NodeId(1)], 0)
            .unwrap();
        // Requested 4 nodes, currently holding 2: half rate.
        let mut j = running(1, 0, vec![NodeId(0), NodeId(1)]);
        j.spec.nodes = 4;
        j.mode = ShareMode::Exclusive;
        j.rerate_with(&cluster, &truth, |_| unreachable!("exclusive"));
        assert!((j.rate - 0.5).abs() < 1e-12);
        assert_eq!(j.shared_nodes_now, 0);
    }

    #[test]
    fn completion_is_numerically_tolerant() {
        let mut j = running(1, 0, vec![NodeId(0)]);
        j.work_done = 100.0 - 1e-12;
        assert!(j.is_complete());
    }

    #[test]
    fn rerate_alone_gives_unit_rate() {
        let truth = CoRunTruth::build(&AppCatalog::trinity(), &ContentionModel::calibrated());
        let mut cluster = Cluster::new(ClusterSpec::new(2, NodeSpec::tiny()));
        cluster
            .allocate_shared(JobId(1), &[NodeId(0), NodeId(1)], 0)
            .unwrap();
        let mut j = running(1, 0, vec![NodeId(0), NodeId(1)]);
        j.spec.nodes = 2;
        let g = j.rerate_with(&cluster, &truth, |_| unreachable!("no co-runners"));
        assert_eq!(j.rate, 1.0);
        assert_eq!(j.shared_nodes_now, 0);
        assert_eq!(g, 1);
    }

    #[test]
    fn rerate_with_uses_slowest_node() {
        let catalog = AppCatalog::trinity();
        let truth = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
        let mut cluster = Cluster::new(ClusterSpec::new(2, NodeSpec::tiny()));
        // Job 1 spans both nodes; job 2 shares only node 1.
        cluster
            .allocate_shared(JobId(1), &[NodeId(0), NodeId(1)], 0)
            .unwrap();
        cluster.allocate_shared(JobId(2), &[NodeId(1)], 0).unwrap();
        let fe = catalog.by_name("miniFE").unwrap().id;
        let amg = catalog.by_name("AMG").unwrap().id;
        let mut j = running(1, fe.0, vec![NodeId(0), NodeId(1)]);
        j.spec.nodes = 2;
        j.spec.app = fe;
        j.rerate_with(&cluster, &truth, |_| amg);
        // Node 0 is alone (rate 1.0); node 1 shares with AMG.
        let expected = truth.pair_matrix().rate(fe, amg);
        assert!((j.rate - expected).abs() < 1e-12);
        assert_eq!(j.shared_nodes_now, 1);
        assert_eq!(j.generation, 1);
    }

    #[test]
    fn symmetric_corun_rates_match_matrix() {
        let catalog = AppCatalog::trinity();
        let truth = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
        let mut cluster = Cluster::new(ClusterSpec::new(1, NodeSpec::tiny()));
        cluster.allocate_shared(JobId(1), &[NodeId(0)], 0).unwrap();
        cluster.allocate_shared(JobId(2), &[NodeId(0)], 0).unwrap();
        let fe = catalog.by_name("miniFE").unwrap().id;
        let mut j = running(1, fe.0, vec![NodeId(0)]);
        j.spec.app = fe;
        j.rerate_with(&cluster, &truth, |_| fe);
        assert!((j.rate - truth.pair_matrix().rate(fe, fe)).abs() < 1e-12);
        assert_eq!(j.shared_nodes_now, 1);
    }
}
