//! The cluster aggregate: nodes, live allocations, and free-capacity
//! indices kept in sync on every mutation.

use crate::alloc::{Allocation, Placement, ShareMode};
use crate::ids::{JobId, Lane, NodeId};
use crate::node::{AdminState, Node, NodeError};
use crate::spec::ClusterSpec;
use std::collections::{BTreeSet, HashMap};

/// Errors from cluster-level allocation operations.
///
/// Cluster operations are *atomic*: on error, no node state has changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// A node-level check failed.
    Node(NodeError),
    /// The job already holds an allocation.
    DuplicateJob(JobId),
    /// The job holds no allocation.
    UnknownJob(JobId),
    /// An allocation request listed no nodes.
    EmptyNodeList,
    /// The same node appeared twice in one request.
    DuplicateNode(NodeId),
    /// A node id outside the cluster.
    NoSuchNode(NodeId),
}

impl From<NodeError> for AllocError {
    fn from(e: NodeError) -> Self {
        AllocError::Node(e)
    }
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Node(e) => write!(f, "{e}"),
            AllocError::DuplicateJob(j) => write!(f, "{j} already holds an allocation"),
            AllocError::UnknownJob(j) => write!(f, "{j} holds no allocation"),
            AllocError::EmptyNodeList => write!(f, "empty node list"),
            AllocError::DuplicateNode(n) => write!(f, "{n} listed twice"),
            AllocError::NoSuchNode(n) => write!(f, "{n} does not exist"),
        }
    }
}

impl std::error::Error for AllocError {}

/// One consistent view of cluster occupancy at an instant (see
/// [`Cluster::occupancy_snapshot`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Physical cores busy (a node's cores count fully once any job
    /// resides on it).
    pub busy_cores: u64,
    /// Nodes hosting two or more jobs.
    pub shared_nodes: usize,
    /// Occupied nodes with their residents, in node-id order.
    pub per_node: Vec<(NodeId, Vec<JobId>)>,
}

/// Cumulative operation counters for one [`Cluster`].
///
/// Plain integers bumped on the allocation paths — cheap enough to be
/// always on, and read out by the telemetry layer without the cluster
/// crate depending on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful exclusive allocations.
    pub exclusive_allocs: u64,
    /// Successful shared (lane) allocations.
    pub shared_allocs: u64,
    /// Successful releases.
    pub releases: u64,
    /// Allocation requests rejected with an [`AllocError`].
    pub failed_allocs: u64,
}

/// Cached occupancy classification of one node, diffed on every index
/// refresh so the cluster-wide counters stay O(1) to read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct NodeClass {
    /// At least one resident job (regardless of admin state).
    occupied: bool,
    /// Two or more distinct resident jobs.
    shared: bool,
    /// Free-lane bucket the node currently sits in (0 = none).
    bucket: u8,
}

/// A cluster of homogeneous nodes with lane-granular allocation tracking.
///
/// Several indices are maintained incrementally so schedulers can
/// enumerate capacity without scanning every node:
///
/// * **idle** — up nodes with no resident job (candidates for exclusive
///   allocation);
/// * **partial** — up nodes with at least one resident job *and* at least
///   one free lane (candidates for co-allocation);
/// * **free-lane buckets** — the partial set split by free-lane count, so
///   SMT>2 lane searches can ask for "nodes with ≥ n free lanes" directly;
/// * **occupancy counters** — occupied/shared node counts, making
///   [`Cluster::occupancy_counts`] O(1) (the per-event occupancy series
///   recorded by the engine reads these instead of walking every node).
///
/// Every successful mutation bumps a [version counter](Cluster::version);
/// together with the process-unique [`Cluster::instance_id`], `(instance,
/// version)` identifies one exact occupancy state, which lets schedulers
/// cache derived planning state and invalidate it by events instead of
/// recomputing it every pass. Each node also records the version its last
/// mutation produced, so a cache kept per node can ask which nodes
/// [changed since](Cluster::changed_since) the version it last saw and
/// re-derive only those.
#[derive(Debug)]
pub struct Cluster {
    spec: ClusterSpec,
    nodes: Vec<Node>,
    // detlint: allow(D1, job-keyed lookup table; the unordered allocations() iterator feeds only order-insensitive tests)
    allocations: HashMap<JobId, Allocation>,
    idle: BTreeSet<NodeId>,
    partial: BTreeSet<NodeId>,
    /// `lane_buckets[f]` = partial nodes with exactly `f` free lanes.
    lane_buckets: Vec<BTreeSet<NodeId>>,
    class: Vec<NodeClass>,
    /// `changed_at[n]` = the version the last mutation of node `n`
    /// produced (0 if it was never mutated).
    changed_at: Vec<u64>,
    occupied_nodes: usize,
    shared_nodes: usize,
    version: u64,
    instance: u64,
    stats: AllocStats,
}

/// Cloning starts a new mutation history: the clone gets a fresh
/// [`Cluster::instance_id`] so `(instance, version)` stays a unique key
/// even when a clone and its original diverge.
impl Clone for Cluster {
    fn clone(&self) -> Self {
        Cluster {
            spec: self.spec,
            nodes: self.nodes.clone(),
            allocations: self.allocations.clone(),
            idle: self.idle.clone(),
            partial: self.partial.clone(),
            lane_buckets: self.lane_buckets.clone(),
            class: self.class.clone(),
            changed_at: self.changed_at.clone(),
            occupied_nodes: self.occupied_nodes,
            shared_nodes: self.shared_nodes,
            version: self.version,
            instance: next_instance_id(),
            stats: self.stats,
        }
    }
}

fn next_instance_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Cluster {
    /// Builds an all-idle cluster from a validated spec.
    ///
    /// # Panics
    /// Panics if the spec is invalid; validate specs at the configuration
    /// boundary.
    pub fn new(spec: ClusterSpec) -> Self {
        // detlint: allow(D5, constructor contract: an invalid spec is a setup programming error)
        spec.validate().expect("invalid cluster spec");
        let nodes: Vec<Node> = (0..spec.node_count)
            .map(|i| Node::new(NodeId(i), spec.node))
            .collect();
        let idle = nodes.iter().map(Node::id).collect();
        let class = vec![NodeClass::default(); nodes.len()];
        let changed_at = vec![0; nodes.len()];
        Cluster {
            spec,
            nodes,
            // detlint: allow(D1, lookup-only allocation table, see the field note)
            allocations: HashMap::new(),
            idle,
            partial: BTreeSet::new(),
            lane_buckets: vec![BTreeSet::new(); spec.node.smt as usize + 1],
            class,
            changed_at,
            occupied_nodes: 0,
            shared_nodes: 0,
            version: 0,
            instance: next_instance_id(),
            stats: AllocStats::default(),
        }
    }

    /// Cumulative allocate/release operation counters.
    #[inline]
    pub fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    /// The static spec this cluster was built from.
    #[inline]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable view of one node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Up-and-idle nodes, in id order.
    pub fn idle_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.idle.iter().copied()
    }

    /// Number of up-and-idle nodes.
    #[inline]
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// Up nodes that host at least one job and still have a free lane —
    /// the co-allocation candidates.
    pub fn partial_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.partial.iter().copied()
    }

    /// Whether `id` is a co-allocation candidate (one of
    /// [`Cluster::partial_nodes`]), in O(1).
    #[inline]
    pub fn is_partial(&self, id: NodeId) -> bool {
        self.class.get(id.index()).is_some_and(|c| c.bucket > 0)
    }

    /// Number of co-allocation candidate nodes.
    #[inline]
    pub fn partial_count(&self) -> usize {
        self.partial.len()
    }

    /// Partial nodes with at least `min_free` free lanes, in id order —
    /// the lane-bucket index, so an SMT>2 search for "room for n more
    /// lanes" does not touch nodes that cannot qualify.
    pub fn partial_nodes_with_free_lanes(&self, min_free: u8) -> impl Iterator<Item = NodeId> + '_ {
        let lo = (min_free as usize).max(1).min(self.lane_buckets.len());
        let mut ids: Vec<NodeId> = self.lane_buckets[lo..]
            .iter()
            .flat_map(|b| b.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Number of partial nodes with exactly `free` free lanes.
    pub fn lane_bucket_count(&self, free: u8) -> usize {
        self.lane_buckets
            .get(free as usize)
            .map_or(0, BTreeSet::len)
    }

    /// Monotone state-change counter: bumped on every successful mutation
    /// (allocate, release, drain, resume, set-down). Equal versions on the
    /// same [`Cluster::instance_id`] mean identical occupancy.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique id of this cluster object's mutation history (a
    /// clone gets a fresh one). Cache keys must pair this with
    /// [`Cluster::version`].
    #[inline]
    pub fn instance_id(&self) -> u64 {
        self.instance
    }

    /// Nodes whose state changed after [`Cluster::version`] was
    /// `version`, in id order: every node a later successful mutation
    /// touched. A cache derived per node at `version` (of this
    /// [`Cluster::instance_id`]) needs re-deriving for exactly these.
    pub fn changed_since(&self, version: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.changed_at
            .iter()
            .enumerate()
            .filter(move |&(_, &v)| v > version)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// The `(instance, version)` invalidation stamp as one value — the
    /// cache key schedulers use to detect occupancy changes. Equal stamps
    /// guarantee identical occupancy (and, because every start and
    /// release mutates the cluster, that no job started or stopped in
    /// between); any allocation, release, drain, resume, or node-down
    /// event yields a fresh stamp.
    #[inline]
    pub fn stamp(&self) -> (u64, u64) {
        (self.instance, self.version)
    }

    /// O(1) occupancy counters: `(busy physical cores, nodes hosting two
    /// or more jobs)` — the same numbers
    /// [`Cluster::occupancy_snapshot`] derives by walking every node.
    #[inline]
    pub fn occupancy_counts(&self) -> (u64, usize) {
        (
            self.occupied_nodes as u64 * self.spec.node.cores() as u64,
            self.shared_nodes,
        )
    }

    /// The live allocation of a job, if any.
    pub fn allocation(&self, job: JobId) -> Option<&Allocation> {
        self.allocations.get(&job)
    }

    /// All live allocations (unordered).
    pub fn allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.allocations.values()
    }

    /// Number of live allocations.
    #[inline]
    pub fn allocation_count(&self) -> usize {
        self.allocations.len()
    }

    fn check_node_ids(&self, nodes: &[NodeId]) -> Result<(), AllocError> {
        if nodes.is_empty() {
            return Err(AllocError::EmptyNodeList);
        }
        let mut seen = BTreeSet::new();
        for &n in nodes {
            if n.index() >= self.nodes.len() {
                return Err(AllocError::NoSuchNode(n));
            }
            if !seen.insert(n) {
                return Err(AllocError::DuplicateNode(n));
            }
        }
        Ok(())
    }

    /// Re-derives the indices of `id` after a mutation of it, and stamps
    /// it with the version that mutation produces (every caller bumps
    /// the version once it succeeds).
    fn refresh_index(&mut self, id: NodeId) {
        self.changed_at[id.index()] = self.version + 1;
        let node = &self.nodes[id.index()];
        let up = node.admin_state() == AdminState::Up;
        let idle = node.is_idle();
        let free_lanes = node.free_lane_count();
        let new = NodeClass {
            occupied: !idle,
            shared: node.occupant_count() >= 2,
            bucket: if up && !idle && free_lanes > 0 {
                free_lanes
            } else {
                0
            },
        };
        if up && idle {
            self.idle.insert(id);
        } else {
            self.idle.remove(&id);
        }
        if new.bucket > 0 {
            self.partial.insert(id);
        } else {
            self.partial.remove(&id);
        }
        let old = std::mem::replace(&mut self.class[id.index()], new);
        if old.occupied != new.occupied {
            if new.occupied {
                self.occupied_nodes += 1;
            } else {
                self.occupied_nodes -= 1;
            }
        }
        if old.shared != new.shared {
            if new.shared {
                self.shared_nodes += 1;
            } else {
                self.shared_nodes -= 1;
            }
        }
        if old.bucket != new.bucket {
            if old.bucket > 0 {
                self.lane_buckets[old.bucket as usize].remove(&id);
            }
            if new.bucket > 0 {
                self.lane_buckets[new.bucket as usize].insert(id);
            }
        }
    }

    /// Grants `job` exclusive ownership of the listed nodes.
    ///
    /// Atomic: either every node is granted or none is.
    pub fn allocate_exclusive(
        &mut self,
        job: JobId,
        nodes: &[NodeId],
        mem_per_node: u64,
    ) -> Result<&Allocation, AllocError> {
        match self.do_allocate_exclusive(job, nodes, mem_per_node) {
            Ok(()) => {
                self.stats.exclusive_allocs += 1;
                self.version += 1;
                Ok(&self.allocations[&job])
            }
            Err(e) => {
                self.stats.failed_allocs += 1;
                Err(e)
            }
        }
    }

    fn do_allocate_exclusive(
        &mut self,
        job: JobId,
        nodes: &[NodeId],
        mem_per_node: u64,
    ) -> Result<(), AllocError> {
        self.check_node_ids(nodes)?;
        if self.allocations.contains_key(&job) {
            return Err(AllocError::DuplicateJob(job));
        }
        // Validate everything before touching state (atomicity).
        for &id in nodes {
            let n = &self.nodes[id.index()];
            if n.admin_state() != AdminState::Up {
                return Err(NodeError::Unavailable(id, n.admin_state()).into());
            }
            if !n.is_idle() {
                return Err(NodeError::NotIdle(id).into());
            }
            if mem_per_node > n.mem_free() {
                return Err(NodeError::InsufficientMemory {
                    node: id,
                    requested: mem_per_node,
                    free: n.mem_free(),
                }
                .into());
            }
        }
        let mut placements = Vec::with_capacity(nodes.len());
        for &id in nodes {
            self.nodes[id.index()]
                .occupy_exclusive(job, mem_per_node)
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                .expect("validated above");
            placements.push(Placement {
                node: id,
                lanes: (0..self.spec.node.smt).map(Lane).collect(),
            });
            self.refresh_index(id);
        }
        let alloc = Allocation {
            job,
            placements,
            mem_per_node,
            mode: ShareMode::Exclusive,
        };
        self.allocations.insert(job, alloc);
        Ok(())
    }

    /// Grants `job` one free lane on each listed node (co-allocation).
    ///
    /// Each node may be idle (the job becomes its first resident) or
    /// partially occupied by *other* jobs. Atomic.
    pub fn allocate_shared(
        &mut self,
        job: JobId,
        nodes: &[NodeId],
        mem_per_node: u64,
    ) -> Result<&Allocation, AllocError> {
        match self.do_allocate_shared(job, nodes, mem_per_node) {
            Ok(()) => {
                self.stats.shared_allocs += 1;
                self.version += 1;
                Ok(&self.allocations[&job])
            }
            Err(e) => {
                self.stats.failed_allocs += 1;
                Err(e)
            }
        }
    }

    fn do_allocate_shared(
        &mut self,
        job: JobId,
        nodes: &[NodeId],
        mem_per_node: u64,
    ) -> Result<(), AllocError> {
        self.check_node_ids(nodes)?;
        if self.allocations.contains_key(&job) {
            return Err(AllocError::DuplicateJob(job));
        }
        let mut chosen: Vec<(NodeId, Lane)> = Vec::with_capacity(nodes.len());
        for &id in nodes {
            let n = &self.nodes[id.index()];
            if n.admin_state() != AdminState::Up {
                return Err(NodeError::Unavailable(id, n.admin_state()).into());
            }
            if n.occupants().contains(&job) {
                return Err(NodeError::AlreadyPresent(id, job).into());
            }
            let lane = n.free_lane().ok_or(NodeError::LaneBusy(
                id,
                Lane(0),
                n.lane_owner(Lane(0)).unwrap_or(job),
            ))?;
            if mem_per_node > n.mem_free() {
                return Err(NodeError::InsufficientMemory {
                    node: id,
                    requested: mem_per_node,
                    free: n.mem_free(),
                }
                .into());
            }
            chosen.push((id, lane));
        }
        let mut placements = Vec::with_capacity(chosen.len());
        for &(id, lane) in &chosen {
            self.nodes[id.index()]
                .occupy_lane(job, lane, mem_per_node)
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                .expect("validated above");
            placements.push(Placement {
                node: id,
                lanes: vec![lane],
            });
            self.refresh_index(id);
        }
        let alloc = Allocation {
            job,
            placements,
            mem_per_node,
            mode: ShareMode::Shared,
        };
        self.allocations.insert(job, alloc);
        Ok(())
    }

    /// Releases every lane held by `job` and returns its allocation record.
    pub fn release(&mut self, job: JobId) -> Result<Allocation, AllocError> {
        let alloc = self
            .allocations
            .remove(&job)
            .ok_or(AllocError::UnknownJob(job))?;
        for p in &alloc.placements {
            self.nodes[p.node.index()]
                .release(job)
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                .expect("allocation table and node state must agree");
            self.refresh_index(p.node);
        }
        self.stats.releases += 1;
        self.version += 1;
        Ok(alloc)
    }

    /// Jobs co-resident with `job`, as `(node, co-runner)` pairs in node
    /// grant order. Empty for exclusive allocations.
    pub fn co_runners(&self, job: JobId) -> Vec<(NodeId, JobId)> {
        let Some(alloc) = self.allocations.get(&job) else {
            return Vec::new();
        };
        alloc
            .placements
            .iter()
            .filter_map(|p| {
                self.nodes[p.node.index()]
                    .co_runner_of(job)
                    .map(|co| (p.node, co))
            })
            .collect()
    }

    /// Drains a node (no new allocations; running jobs finish).
    pub fn drain(&mut self, id: NodeId) -> Result<(), AllocError> {
        if id.index() >= self.nodes.len() {
            return Err(AllocError::NoSuchNode(id));
        }
        self.nodes[id.index()].drain();
        self.refresh_index(id);
        self.version += 1;
        Ok(())
    }

    /// Returns a drained/down node to service.
    pub fn resume(&mut self, id: NodeId) -> Result<(), AllocError> {
        if id.index() >= self.nodes.len() {
            return Err(AllocError::NoSuchNode(id));
        }
        self.nodes[id.index()].resume();
        self.refresh_index(id);
        self.version += 1;
        Ok(())
    }

    /// Marks an empty node down.
    pub fn set_down(&mut self, id: NodeId) -> Result<(), AllocError> {
        if id.index() >= self.nodes.len() {
            return Err(AllocError::NoSuchNode(id));
        }
        self.nodes[id.index()].set_down()?;
        self.refresh_index(id);
        self.version += 1;
        Ok(())
    }

    /// Physical cores currently busy (a node's cores count as busy when any
    /// job resides on it).
    pub fn busy_cores(&self) -> u64 {
        self.nodes.iter().map(|n| n.busy_cores() as u64).sum()
    }

    /// Hardware threads currently owned by jobs.
    pub fn busy_hw_threads(&self) -> u64 {
        self.nodes.iter().map(|n| n.busy_hw_threads() as u64).sum()
    }

    /// Fraction of physical cores busy, in `[0, 1]`.
    pub fn core_utilization(&self) -> f64 {
        self.busy_cores() as f64 / self.spec.total_cores() as f64
    }

    /// Point-in-time occupancy: every occupied node with its residents,
    /// plus the aggregate counters derived from the same walk. One
    /// consistent snapshot for tracing, auditing, and reporting.
    pub fn occupancy_snapshot(&self) -> OccupancySnapshot {
        let mut per_node = Vec::new();
        let mut shared_nodes = 0;
        for node in &self.nodes {
            let occupants = node.occupants();
            if occupants.len() >= 2 {
                shared_nodes += 1;
            }
            if !occupants.is_empty() {
                per_node.push((node.id(), occupants));
            }
        }
        OccupancySnapshot {
            busy_cores: per_node.len() as u64 * self.spec.node.cores() as u64,
            shared_nodes,
            per_node,
        }
    }

    /// Debug-only consistency check: allocation table and node lane state
    /// must describe the same world, and the indices must be exact.
    ///
    /// Intended for tests and property checks; linear in cluster size.
    pub fn check_invariants(&self) -> Result<(), String> {
        for alloc in self.allocations.values() {
            for p in &alloc.placements {
                let node = self
                    .node(p.node)
                    .ok_or_else(|| format!("allocation references missing {}", p.node))?;
                let held = node.lanes_of(alloc.job);
                if held != p.lanes {
                    return Err(format!(
                        "{} on {}: allocation says lanes {:?}, node says {:?}",
                        alloc.job, p.node, p.lanes, held
                    ));
                }
            }
        }
        for node in &self.nodes {
            for occupant in node.occupants() {
                let alloc = self
                    .allocations
                    .get(&occupant)
                    .ok_or_else(|| format!("{} on {} has no allocation", occupant, node.id()))?;
                if !alloc.nodes().any(|n| n == node.id()) {
                    return Err(format!(
                        "{} resident on {} but allocation omits it",
                        occupant,
                        node.id()
                    ));
                }
            }
            let id = node.id();
            let up = node.admin_state() == AdminState::Up;
            let want_idle = up && node.is_idle();
            let want_partial = up && !node.is_idle() && node.free_lane_count() > 0;
            if self.idle.contains(&id) != want_idle {
                return Err(format!("idle index wrong for {id}"));
            }
            if self.partial.contains(&id) != want_partial {
                return Err(format!("partial index wrong for {id}"));
            }
            let want_bucket = if want_partial {
                node.free_lane_count()
            } else {
                0
            };
            if self.class[id.index()].bucket != want_bucket {
                return Err(format!("lane bucket wrong for {id}"));
            }
            for (f, bucket) in self.lane_buckets.iter().enumerate() {
                if bucket.contains(&id) != (want_bucket as usize == f && f > 0) {
                    return Err(format!("lane bucket {f} membership wrong for {id}"));
                }
            }
        }
        let snap = self.occupancy_snapshot();
        let (busy, shared) = self.occupancy_counts();
        if busy != snap.busy_cores || shared != snap.shared_nodes {
            return Err(format!(
                "occupancy counters ({busy}, {shared}) disagree with snapshot ({}, {})",
                snap.busy_cores, snap.shared_nodes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NodeSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::test_small())
    }

    #[test]
    fn fresh_cluster_is_all_idle() {
        let c = cluster();
        assert_eq!(c.idle_count(), 4);
        assert_eq!(c.partial_count(), 0);
        assert_eq!(c.busy_cores(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_allocation_moves_nodes_out_of_idle() {
        let mut c = cluster();
        c.allocate_exclusive(JobId(1), &[NodeId(0), NodeId(1)], 100)
            .unwrap();
        assert_eq!(c.idle_count(), 2);
        assert_eq!(c.partial_count(), 0); // exclusive nodes have no free lane
        assert_eq!(c.busy_cores(), 8);
        assert_eq!(c.allocation(JobId(1)).unwrap().node_count(), 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn shared_allocation_creates_partial_nodes_then_fills_them() {
        let mut c = cluster();
        c.allocate_shared(JobId(1), &[NodeId(0), NodeId(1)], 10)
            .unwrap();
        assert_eq!(c.partial_count(), 2);
        assert_eq!(c.idle_count(), 2);
        c.allocate_shared(JobId(2), &[NodeId(0), NodeId(1)], 10)
            .unwrap();
        assert_eq!(c.partial_count(), 0);
        assert_eq!(
            c.co_runners(JobId(1)),
            vec![(NodeId(0), JobId(2)), (NodeId(1), JobId(2))]
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn release_restores_capacity() {
        let mut c = cluster();
        c.allocate_shared(JobId(1), &[NodeId(0)], 10).unwrap();
        c.allocate_shared(JobId(2), &[NodeId(0)], 10).unwrap();
        let a = c.release(JobId(1)).unwrap();
        assert_eq!(a.job, JobId(1));
        assert_eq!(c.partial_count(), 1);
        c.release(JobId(2)).unwrap();
        assert_eq!(c.idle_count(), 4);
        assert_eq!(c.allocation_count(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn allocation_is_atomic_on_failure() {
        let mut c = cluster();
        c.allocate_exclusive(JobId(1), &[NodeId(2)], 0).unwrap();
        // Second request includes the busy node: nothing must change.
        let err = c
            .allocate_exclusive(JobId(2), &[NodeId(0), NodeId(2)], 0)
            .unwrap_err();
        assert_eq!(err, AllocError::Node(NodeError::NotIdle(NodeId(2))));
        assert!(c.allocation(JobId(2)).is_none());
        assert_eq!(c.idle_count(), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn request_validation() {
        let mut c = cluster();
        assert_eq!(
            c.allocate_exclusive(JobId(1), &[], 0).unwrap_err(),
            AllocError::EmptyNodeList
        );
        assert_eq!(
            c.allocate_exclusive(JobId(1), &[NodeId(0), NodeId(0)], 0)
                .unwrap_err(),
            AllocError::DuplicateNode(NodeId(0))
        );
        assert_eq!(
            c.allocate_exclusive(JobId(1), &[NodeId(99)], 0)
                .unwrap_err(),
            AllocError::NoSuchNode(NodeId(99))
        );
        c.allocate_exclusive(JobId(1), &[NodeId(0)], 0).unwrap();
        assert_eq!(
            c.allocate_exclusive(JobId(1), &[NodeId(1)], 0).unwrap_err(),
            AllocError::DuplicateJob(JobId(1))
        );
        assert_eq!(
            c.release(JobId(7)).unwrap_err(),
            AllocError::UnknownJob(JobId(7))
        );
    }

    #[test]
    fn drained_nodes_leave_the_indices() {
        let mut c = cluster();
        c.drain(NodeId(0)).unwrap();
        assert_eq!(c.idle_count(), 3);
        let err = c.allocate_exclusive(JobId(1), &[NodeId(0)], 0).unwrap_err();
        assert!(matches!(err, AllocError::Node(NodeError::Unavailable(..))));
        c.resume(NodeId(0)).unwrap();
        assert_eq!(c.idle_count(), 4);
        c.check_invariants().unwrap();
    }

    #[test]
    fn down_node_and_utilization() {
        let mut c = cluster();
        c.set_down(NodeId(3)).unwrap();
        assert_eq!(c.idle_count(), 3);
        c.allocate_exclusive(JobId(1), &[NodeId(0)], 0).unwrap();
        let total = ClusterSpec::test_small().total_cores() as f64;
        assert!((c.core_utilization() - 4.0 / total).abs() < 1e-12);
        c.check_invariants().unwrap();
    }

    #[test]
    fn occupancy_snapshot_agrees_with_counters() {
        let mut c = cluster();
        assert_eq!(c.occupancy_snapshot().per_node, vec![]);
        c.allocate_exclusive(JobId(1), &[NodeId(2)], 0).unwrap();
        c.allocate_shared(JobId(2), &[NodeId(0)], 0).unwrap();
        c.allocate_shared(JobId(3), &[NodeId(0)], 0).unwrap();
        let snap = c.occupancy_snapshot();
        assert_eq!(snap.busy_cores, c.busy_cores());
        assert_eq!(snap.shared_nodes, 1);
        assert_eq!(
            snap.per_node,
            vec![
                (NodeId(0), vec![JobId(2), JobId(3)]),
                (NodeId(2), vec![JobId(1)]),
            ]
        );
    }

    #[test]
    fn alloc_stats_count_operations() {
        let mut c = cluster();
        assert_eq!(c.alloc_stats(), AllocStats::default());
        c.allocate_exclusive(JobId(1), &[NodeId(0)], 0).unwrap();
        c.allocate_shared(JobId(2), &[NodeId(1)], 0).unwrap();
        c.allocate_exclusive(JobId(1), &[NodeId(2)], 0).unwrap_err();
        c.release(JobId(2)).unwrap();
        let s = c.alloc_stats();
        assert_eq!(s.exclusive_allocs, 1);
        assert_eq!(s.shared_allocs, 1);
        assert_eq!(s.failed_allocs, 1);
        assert_eq!(s.releases, 1);
        c.check_invariants().unwrap();
    }

    /// The nodes `op` marked as changed.
    fn marks(c: &mut Cluster, op: impl FnOnce(&mut Cluster)) -> Vec<u32> {
        let before = c.version();
        op(c);
        c.changed_since(before).map(|n| n.0).collect()
    }

    #[test]
    fn mutations_mark_exactly_the_nodes_they_touch() {
        let mut c = Cluster::new(ClusterSpec::new(6, NodeSpec::tiny()));
        assert_eq!(c.changed_since(0).count(), 0, "a new cluster marks nothing");
        let excl = |c: &mut Cluster| {
            c.allocate_exclusive(JobId(1), &[NodeId(3), NodeId(1)], 0)
                .unwrap();
        };
        assert_eq!(marks(&mut c, excl), [1, 3]);
        let shared = |c: &mut Cluster| {
            c.allocate_shared(JobId(2), &[NodeId(0), NodeId(2)], 0)
                .unwrap();
        };
        assert_eq!(marks(&mut c, shared), [0, 2]);
        let stack = |c: &mut Cluster| {
            c.allocate_shared(JobId(3), &[NodeId(4), NodeId(2)], 0)
                .unwrap();
        };
        assert_eq!(marks(&mut c, stack), [2, 4]);
        assert_eq!(
            marks(&mut c, |c| drop(c.release(JobId(2)).unwrap())),
            [0, 2]
        );
        assert_eq!(marks(&mut c, |c| c.drain(NodeId(5)).unwrap()), [5]);
        assert_eq!(marks(&mut c, |c| c.resume(NodeId(5)).unwrap()), [5]);
        assert_eq!(marks(&mut c, |c| c.set_down(NodeId(0)).unwrap()), [0]);
        // Failures change no node, so they mark none (nor bump the version).
        let v = c.version();
        let busy = |c: &mut Cluster| {
            c.allocate_exclusive(JobId(4), &[NodeId(5), NodeId(1)], 0)
                .unwrap_err();
        };
        assert_eq!(marks(&mut c, busy), [] as [u32; 0]);
        let occupied = |c: &mut Cluster| {
            c.set_down(NodeId(4)).unwrap_err();
        };
        assert_eq!(marks(&mut c, occupied), [] as [u32; 0]);
        assert_eq!(c.version(), v);
        // A node changed twice between two looks is listed once.
        let twice = |c: &mut Cluster| {
            c.allocate_exclusive(JobId(5), &[NodeId(5)], 0).unwrap();
            c.release(JobId(5)).unwrap();
        };
        assert_eq!(marks(&mut c, twice), [5]);
        assert_eq!(
            c.changed_since(0).map(|n| n.0).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4, 5]
        );
        // A clone keeps the marks under its own instance id.
        let copy = c.clone();
        assert_ne!(copy.instance_id(), c.instance_id());
        assert!(copy.changed_since(3).eq(c.changed_since(3)));
        c.check_invariants().unwrap();
    }

    #[test]
    fn shared_on_idle_node_counts_busy_cores_fully() {
        // A lone shared job still makes the node's cores busy: the node is
        // dedicated hardware from the utilization perspective.
        let mut c = cluster();
        c.allocate_shared(JobId(1), &[NodeId(0)], 0).unwrap();
        assert_eq!(c.busy_cores(), NodeSpec::tiny().cores() as u64);
        assert_eq!(
            c.busy_hw_threads(),
            NodeSpec::tiny().cores() as u64 // one lane
        );
    }
}
