//! Incremental planning state for the optimized scheduler hot path.
//!
//! The reference pickers in [`crate::util`] re-derive everything from the
//! cluster on every call: they walk all nodes for free times, allocate a
//! fresh occupant list per partial node, and re-evaluate the predictor
//! per (candidate, resident) pair. A saturated campaign calls them
//! millions of times against a cluster that changed only once in between.
//!
//! The [`Planner`] keeps the derived state and invalidates it by *events*
//! instead of recomputing it per pass:
//!
//! * **Per-node tables, re-derived where the cluster changed** — the
//!   partial-node facts (residents, memory, eligibility) and the raw free
//!   time of every node sit in one slot per node. When the cluster's
//!   `(instance, version)` stamp moves, a table re-derives only the nodes
//!   the cluster [marked as changed](nodeshare_cluster::Cluster::changed_since)
//!   since the stamp it last saw and keeps every other slot; the first
//!   pass, or a new cluster instance, is the same update with every node
//!   dirty. This rests on one invariant of the engine: every change to a
//!   running job's [`RunningSummary`](nodeshare_engine::RunningSummary) —
//!   a start, a finish, a reshape or a requeue — comes with a cluster
//!   mutation of that job's nodes, so a node the cluster did not mark
//!   derives exactly what it derived before. (Invalidating the whole
//!   cache by the stamp assumed the same for the cluster as a whole.)
//!   Debug builds check every update against the every-node-dirty one.
//!   The free-time table is brought up to date only when a reservation is
//!   computed, so a policy that never reserves never pays for it.
//! * **Sorted free table** — besides the per-node slots, the free-time
//!   table keeps its up nodes sorted by `(free time, id)`, moving a
//!   changed node's entry in place. The head reservation reads the first
//!   `k` entries (or, when `k` or more nodes are already free at `now`,
//!   the `k` lowest ids among those) instead of selecting over every node.
//! * **Reservation as a bitset** — the head reservation is a shadow time
//!   plus a `Vec<bool>` over node ids and the list of the reserved ones,
//!   which is all a new reservation has to clear.
//! * **Pairing table** — all pairwise policy answers come from the dense
//!   [`PairingTable`] instead of predictor evaluations.
//! * **Per-app ranking** — for each candidate app, the eligible partial
//!   nodes whose whole resident stack accepts it, sorted by `(score desc,
//!   node id)`. The order depends only on the cached partials and the
//!   app, so it is built lazily once per cluster stamp; a shared-placement
//!   attempt walks it and applies only the per-candidate filters
//!   (reservation, memory, duration match), which keep its order.
//! * **Per-pass failure memo** — a shared-placement attempt is fully
//!   determined, within one pass, by `(app, node count, reservation
//!   restriction, memory-threshold rank, walltime bits)`; failed keys are
//!   remembered so equivalent queue candidates skip the whole evaluation.
//!   The memo and the exact-upper-bound early exits run whether or not
//!   telemetry is attached: the pairing counters count the evaluations
//!   actually performed, so a skipped evaluation simply adds nothing.
//!
//! Every shortcut here is *exact*: for any context, the pickers return
//! bit-identical results to [`crate::util::pick_exclusive`] and
//! [`crate::util::pick_shared`] — `tests/differential.rs` holds the
//! optimized strategies to byte-equal decision traces against the
//! reference implementations.

use crate::pairing::Pairing;
use crate::pairtab::PairingTable;
use crate::util::PLAN_EPS;
use nodeshare_cluster::{AdminState, Cluster, JobId, NodeId};
use nodeshare_engine::SchedContext;
use nodeshare_perf::AppId;
use nodeshare_workload::JobSpec;
use std::collections::HashSet;

/// One resident of a partial node, denormalized from the running map.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Resident {
    job: JobId,
    app: AppId,
    est_end: f64,
    nodes: u32,
}

/// The content of an unused resident slot.
const VACANT: Resident = Resident {
    job: JobId(0),
    app: AppId(0),
    est_end: 0.0,
    nodes: 0,
};

/// A planning table derived node by node from the cluster and the
/// running map.
trait NodeTable: Default + PartialEq + std::fmt::Debug {
    /// Sizes the table for `cluster` with no node derived yet.
    fn reset(&mut self, cluster: &Cluster);
    /// Re-derives the slot of node `id` from the context.
    fn derive(&mut self, ctx: &SchedContext<'_>, id: NodeId);
}

/// A [`NodeTable`] with the cluster stamp it was last derived at.
#[derive(Clone, Debug, Default, PartialEq)]
struct Synced<T> {
    seen: Option<(u64, u64)>,
    table: T,
}

impl<T> std::ops::Deref for Synced<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.table
    }
}

impl<T: NodeTable> Synced<T> {
    /// Brings the table up to date with `ctx`; returns whether the
    /// cluster changed since the table last saw it. `dirty` is scratch.
    fn sync(&mut self, ctx: &SchedContext<'_>, dirty: &mut Vec<NodeId>) -> bool {
        if self.seen == Some(ctx.cluster.stamp()) {
            return false;
        }
        self.update(ctx, dirty);
        #[cfg(debug_assertions)]
        {
            let mut full = Self::default();
            full.update(ctx, dirty);
            assert_eq!(
                *self, full,
                "per-node update differs from the every-node-dirty one: \
                 a running job changed without a cluster mutation of its nodes"
            );
        }
        true
    }

    /// Re-derives the nodes the cluster changed since the stamp seen
    /// last — every node when that stamp belongs to another cluster
    /// instance, or when there is none — and keeps every other slot.
    fn update(&mut self, ctx: &SchedContext<'_>, dirty: &mut Vec<NodeId>) {
        let (instance, version) = ctx.cluster.stamp();
        dirty.clear();
        match self.seen {
            Some((seen, since)) if seen == instance => {
                dirty.extend(ctx.cluster.changed_since(since));
            }
            _ => {
                self.table.reset(ctx.cluster);
                dirty.extend((0..ctx.cluster.node_count() as u32).map(NodeId));
            }
        }
        for &id in dirty.iter() {
            self.table.derive(ctx, id);
        }
        self.seen = Some((instance, version));
    }
}

/// Cached planning facts of one node as a co-allocation candidate. Its
/// residents fill the first `res_len` of the node's `smt` slots in
/// [`PartialTable::residents`]; a node that is not partial keeps the
/// default slot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct PartialInfo {
    /// The node is partial: up, occupied, and with a free lane.
    partial: bool,
    mem_free: u64,
    /// Every resident is known to the running map and share-eligible —
    /// the per-resident preconditions that do not depend on the candidate.
    eligible: bool,
    res_len: u32,
}

/// The partial-node facts of every node, by node id.
#[derive(Clone, Debug, Default, PartialEq)]
struct PartialTable {
    slots: Vec<PartialInfo>,
    /// `smt` slots per node, node-major; unused slots hold [`VACANT`].
    residents: Vec<Resident>,
    smt: usize,
    /// Partial nodes.
    count: usize,
    /// Eligible partial nodes.
    eligible: usize,
    /// Ascending `mem_free` of all partial nodes, for the memo key's
    /// memory-threshold rank.
    mem_sorted: Vec<u64>,
}

impl PartialTable {
    /// The cached residents of node `i`, in lane order.
    fn residents(&self, i: usize) -> &[Resident] {
        let at = i * self.smt;
        &self.residents[at..at + self.slots[i].res_len as usize]
    }
}

impl NodeTable for PartialTable {
    fn reset(&mut self, cluster: &Cluster) {
        let n = cluster.node_count();
        self.smt = usize::from(cluster.spec().node.smt);
        self.slots.clear();
        self.slots.resize(n, PartialInfo::default());
        self.residents.clear();
        self.residents.resize(n * self.smt, VACANT);
        self.count = 0;
        self.eligible = 0;
        self.mem_sorted.clear();
    }

    fn derive(&mut self, ctx: &SchedContext<'_>, id: NodeId) {
        let i = id.index();
        let old = self.slots[i];
        if old.partial {
            self.count -= 1;
            self.eligible -= old.eligible as usize;
            let at = self.mem_sorted.partition_point(|&m| m < old.mem_free);
            debug_assert_eq!(self.mem_sorted[at], old.mem_free);
            self.mem_sorted.remove(at);
        }
        let base = i * self.smt;
        let mut new = PartialInfo::default();
        if ctx.cluster.is_partial(id) {
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            let node = ctx.cluster.node(id).expect("a partial node exists");
            let mut len = 0;
            let mut eligible = true;
            // A partial node has a free lane, so fewer than `smt` distinct
            // residents.
            for j in node.lane_owners() {
                if self.residents[base..base + len].iter().any(|r| r.job == j) {
                    continue;
                }
                match ctx.running.get(&j) {
                    Some(r) if r.share_eligible => {
                        self.residents[base + len] = Resident {
                            job: j,
                            app: r.app,
                            est_end: r.est_end(),
                            nodes: r.nodes,
                        };
                        len += 1;
                    }
                    // Unknown or non-eligible resident: the node can never
                    // host a co-runner, whatever the candidate.
                    _ => {
                        eligible = false;
                        break;
                    }
                }
            }
            new = PartialInfo {
                partial: true,
                mem_free: node.mem_free(),
                eligible,
                res_len: if eligible { len as u32 } else { 0 },
            };
            self.count += 1;
            self.eligible += eligible as usize;
            let at = self.mem_sorted.partition_point(|&m| m < new.mem_free);
            self.mem_sorted.insert(at, new.mem_free);
        }
        self.residents[base + new.res_len as usize..base + self.smt].fill(VACANT);
        self.slots[i] = new;
    }
}

/// Raw free time of every node, by node id: the max `est_end` of its
/// lane owners, or −∞ when idle (clamped to `now` at reservation time,
/// matching the reference fold that starts at `now`); `None` when the
/// node is not up.
#[derive(Clone, Debug, Default, PartialEq)]
struct FreeTimes {
    raw: Vec<Option<f64>>,
    /// The up nodes (the `Some` slots) as `(raw, id)`, ascending by
    /// [`by_free_time`].
    order: Vec<(f64, NodeId)>,
}

/// The `(free time, id)` order: a unique total order on nodes.
fn by_free_time(a: &(f64, NodeId), b: &(f64, NodeId)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl NodeTable for FreeTimes {
    fn reset(&mut self, cluster: &Cluster) {
        self.raw.clear();
        self.raw.resize(cluster.node_count(), None);
        self.order.clear();
    }

    fn derive(&mut self, ctx: &SchedContext<'_>, id: NodeId) {
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let node = ctx.cluster.node(id).expect("a changed node exists");
        let new = (node.admin_state() == AdminState::Up).then(|| {
            node.lane_owners()
                .filter_map(|j| ctx.running.get(&j))
                .map(|r| r.est_end())
                .fold(f64::NEG_INFINITY, f64::max)
        });
        let slot = &mut self.raw[id.index()];
        if slot.map(f64::to_bits) == new.map(f64::to_bits) {
            return;
        }
        if let Some(old) = *slot {
            let at = self
                .order
                .partition_point(|e| by_free_time(e, &(old, id)).is_lt());
            debug_assert_eq!(self.order[at].1, id);
            self.order.remove(at);
        }
        if let Some(raw) = new {
            let at = self
                .order
                .partition_point(|e| by_free_time(e, &(raw, id)).is_lt());
            self.order.insert(at, (raw, id));
        }
        *slot = new;
    }
}

/// One app's pairing order over the cached partial nodes: best score
/// first, ties by node id.
#[derive(Clone, Debug, Default)]
struct Ranking {
    /// Built for the partial table's current stamp (cleared by every
    /// refresh that changes it).
    fresh: bool,
    order: Vec<NodeId>,
}

/// Event-invalidated planning cache + allocation-free picker scratch.
#[derive(Clone, Debug)]
pub(crate) struct Planner {
    table: PairingTable,
    /// Kept in step with the cluster by every pass.
    partials: Synced<PartialTable>,
    /// Kept in step with the cluster by every reservation.
    free: Synced<FreeTimes>,
    // Per-pass reservation state.
    shadow: f64,
    reserved: Vec<bool>,
    /// The `true` slots of `reserved`.
    reserved_list: Vec<NodeId>,
    reserved_idle: usize,
    eligible_unreserved: usize,
    /// Partial nodes (eligible or not) in the `reserved` set.
    reserved_partials: usize,
    /// Per-app rankings indexed by `AppId::index()`, valid for the
    /// partial table's current stamp once `fresh`.
    rankings: Vec<Ranking>,
    // Shared-planning failure memo (packed keys), valid within one era.
    // detlint: allow(D1, u128-keyed failure memo probed via contains; never iterated)
    failed_shared: HashSet<u128>,
    /// Era the failure memo is valid for: cluster stamp plus the pass
    /// instant (`now` bits). A plan's outcome depends on occupancy, on
    /// `now` (free-time clamping, duration-match overlap), and on the
    /// reservation — tracked separately below — so within one era the
    /// memo carries across engine re-invocations (the same cross-pass
    /// stamp discipline as [`ReservationTimeline::begin_pass`]).
    memo_era: Option<(u64, u64, u64)>,
    /// Head width the current reservation was computed for. `restricted`
    /// memo entries encode the reservation set, which is a deterministic
    /// function of (era, k); a different head width invalidates them.
    memo_resv_k: usize,
    // Scratch buffers reused across calls.
    dirty_buf: Vec<NodeId>,
    rank_buf: Vec<(NodeId, f64)>,
    nodes_buf: Vec<NodeId>,
    apps_buf: Vec<AppId>,
    partner_buf: Vec<(JobId, u32, f64)>,
}

impl Planner {
    pub fn new(pairing: &Pairing) -> Self {
        Planner {
            table: PairingTable::build(pairing),
            partials: Synced::default(),
            free: Synced::default(),
            shadow: f64::INFINITY,
            reserved: Vec::new(),
            reserved_list: Vec::new(),
            reserved_idle: 0,
            eligible_unreserved: 0,
            reserved_partials: 0,
            rankings: Vec::new(),
            // detlint: allow(D1, failure memo construction; membership-only, see the field note)
            failed_shared: HashSet::new(),
            memo_era: None,
            memo_resv_k: usize::MAX,
            dirty_buf: Vec::new(),
            rank_buf: Vec::new(),
            nodes_buf: Vec::new(),
            apps_buf: Vec::new(),
            partner_buf: Vec::new(),
        }
    }

    /// Partial nodes whose whole stack could accept *some* candidate.
    #[inline]
    pub fn eligible_partial_count(&self) -> usize {
        self.partials.eligible
    }

    /// Number of memoized shared-placement failures (test observability).
    #[cfg(test)]
    fn memo_len(&self) -> usize {
        self.failed_shared.len()
    }

    /// The current pass's shadow time (∞ before a reservation is set).
    #[inline]
    pub fn shadow(&self) -> f64 {
        self.shadow
    }

    /// Starts one scheduling pass: brings the partial-node table up to
    /// date if the cluster changed, rolls the failure-memo era, and
    /// resets the reservation to "none" (shadow ∞, nothing restricted).
    ///
    /// The memo is cleared only when the `(cluster stamp, now)` era
    /// actually changed — every input a memoized failure depends on is
    /// then unchanged, so successive invocations within one instant
    /// (e.g. several arrivals at the same event time) keep their misses.
    pub fn begin_pass(&mut self, ctx: &SchedContext<'_>) {
        self.refresh(ctx);
        let (instance, version) = ctx.cluster.stamp();
        let era = (instance, version, ctx.now.to_bits());
        if self.memo_era != Some(era) {
            self.failed_shared.clear();
            self.memo_era = Some(era);
            self.memo_resv_k = usize::MAX;
        }
        self.shadow = f64::INFINITY;
        self.reserved_idle = 0;
        self.eligible_unreserved = self.partials.eligible;
    }

    fn refresh(&mut self, ctx: &SchedContext<'_>) {
        if !self.partials.sync(ctx, &mut self.dirty_buf) {
            return;
        }
        self.clear_reservation();
        self.reserved.resize(ctx.cluster.node_count(), false);
        for r in &mut self.rankings {
            r.fresh = false;
        }
    }

    /// Empties the reserved set.
    fn clear_reservation(&mut self) {
        for &n in &self.reserved_list {
            self.reserved[n.index()] = false;
        }
        self.reserved_list.clear();
        self.reserved_partials = 0;
    }

    /// Computes the head reservation for `k` nodes: same shadow and same
    /// reserved-node set as [`crate::util::HeadReservation::compute`],
    /// which takes the `k` smallest `(max(free time, now), id)` keys.
    /// Read from the sorted free table: the `l` nodes free by `now` all
    /// key at `now`, ahead of every later one. With `l < k` the set is
    /// the first `k` entries and the shadow the `k`-th free time; else
    /// the shadow is `now` and the set the `k` lowest ids of those `l`.
    pub fn compute_reservation(&mut self, ctx: &SchedContext<'_>, k: usize) {
        assert!(k >= 1, "reservation for a zero-node head");
        debug_assert_eq!(
            self.partials.seen,
            Some(ctx.cluster.stamp()),
            "a reservation outside a pass"
        );
        // `restricted` memo entries were computed against the previous
        // reservation; a different head width changes the reserved set,
        // so they (conservatively, the whole memo) must go.
        if k != self.memo_resv_k {
            self.failed_shared.clear();
            self.memo_resv_k = k;
        }
        self.free.sync(ctx, &mut self.dirty_buf);
        self.clear_reservation();
        self.eligible_unreserved = self.partials.eligible;
        self.reserved_idle = 0;
        let order = &self.free.order;
        if order.len() < k {
            self.shadow = f64::INFINITY;
            return;
        }
        let l = order.partition_point(|&(raw, _)| raw <= ctx.now);
        if l < k {
            self.shadow = order[k - 1].0;
            self.reserved_list.extend(order[..k].iter().map(|e| e.1));
        } else {
            self.shadow = ctx.now;
            self.reserved_list.extend(order[..l].iter().map(|e| e.1));
            if l > k {
                self.reserved_list.select_nth_unstable(k - 1);
                self.reserved_list.truncate(k);
            }
        }
        for &n in &self.reserved_list {
            self.reserved[n.index()] = true;
            let p = &self.partials.slots[n.index()];
            self.reserved_partials += p.partial as usize;
            self.eligible_unreserved -= p.eligible as usize;
            self.reserved_idle += ctx.cluster.is_idle(n) as usize;
        }
    }

    /// [`crate::util::pick_exclusive`] with `allowed = !restricted-or-
    /// unreserved`, in O(k): idle nodes always have their full memory
    /// free (memory is charged with lanes and released with them), so the
    /// per-node memory check collapses to one capacity comparison and the
    /// result is simply the first `k` allowed idle ids.
    pub fn pick_exclusive(
        &self,
        ctx: &SchedContext<'_>,
        job: &JobSpec,
        restricted: bool,
    ) -> Option<Vec<NodeId>> {
        let k = job.nodes as usize;
        if k == 0 {
            return Some(Vec::new());
        }
        if u64::from(job.mem_per_node_mib) > ctx.cluster.spec().node.mem_mib {
            return None;
        }
        let avail = ctx.cluster.idle_count() - if restricted { self.reserved_idle } else { 0 };
        if k > avail {
            return None;
        }
        let picked: Vec<NodeId> = if restricted {
            ctx.cluster
                .idle_nodes()
                .filter(|n| !self.reserved[n.index()])
                .take(k)
                .collect()
        } else {
            ctx.cluster.idle_nodes().take(k).collect()
        };
        debug_assert_eq!(picked.len(), k);
        Some(picked)
    }

    /// [`crate::util::pick_shared`] against the cached state. Failed
    /// attempts are memoized under a key that exactly determines the
    /// outcome within one pass, and attempts that provably cannot
    /// assemble `k` nodes exit before evaluating anything; either way the
    /// result equals the reference's, only the work (and so the pairing
    /// counters) is smaller.
    pub fn pick_shared(
        &mut self,
        ctx: &SchedContext<'_>,
        job: &JobSpec,
        pairing: &Pairing,
        restricted: bool,
    ) -> Option<Vec<NodeId>> {
        if !job.share_eligible || !self.table.sharing_enabled() {
            return None;
        }
        let k = job.nodes as usize;
        let idle_ok = u64::from(job.mem_per_node_mib) <= ctx.cluster.spec().node.mem_mib;
        // Rank of the memory requirement among partial nodes: how many
        // pass the memory check. Within one pass this rank pins the exact
        // subset of partial nodes the evaluation would consider, so
        // together with the other fields it determines the outcome.
        let t = self.partials.count
            - self
                .partials
                .mem_sorted
                .partition_point(|&m| m < u64::from(job.mem_per_node_mib));
        let wt = pairing
            .duration_match
            .map_or(0u64, |_| job.walltime_estimate.to_bits());
        let key = job.app.index() as u128
            | (k as u128) << 8
            | (restricted as u128) << 40
            | (idle_ok as u128) << 41
            | (t as u128) << 42
            | (wt as u128) << 64;
        if self.failed_shared.contains(&key) {
            return None;
        }
        // Exact upper bound on assemblable nodes: eligible partial nodes
        // passing the reservation and memory filters, plus allowed idle
        // nodes.
        let avail_partials = if restricted {
            self.eligible_unreserved
        } else {
            self.partials.eligible
        }
        .min(t);
        let avail_idle = if idle_ok {
            ctx.cluster.idle_count() - if restricted { self.reserved_idle } else { 0 }
        } else {
            0
        };
        if k > avail_partials + avail_idle {
            return None;
        }
        match self.plan_and_eval(ctx, job, pairing, restricted, k, idle_ok) {
            Some(net_gain) if net_gain > pairing.net_gain_floor => Some(self.nodes_buf.clone()),
            _ => {
                self.failed_shared.insert(key);
                None
            }
        }
    }

    /// Builds `app`'s [`Ranking`] over the cached partials unless it is
    /// already fresh: every eligible partial node whose whole stack
    /// accepts `app`, scored by the minimum pairwise score over its
    /// residents and sorted by `(score desc, node id)` — a unique total
    /// order, so the unstable sort is deterministic.
    fn rank(&mut self, pairing: &Pairing, app: AppId) {
        let a = app.index();
        if self.rankings.len() <= a {
            self.rankings.resize_with(a + 1, Ranking::default);
        }
        if self.rankings[a].fresh {
            return;
        }
        self.rank_buf.clear();
        for (i, info) in self.partials.slots.iter().enumerate() {
            if !info.eligible {
                continue;
            }
            let res = self.partials.residents(i);
            let mut score = f64::INFINITY;
            for r in res {
                score = score.min(self.table.score(pairing, app, r.app));
            }
            let ok = match res {
                [r] => self.table.allows(pairing, app, r.app),
                _ => {
                    self.apps_buf.clear();
                    self.apps_buf.extend(res.iter().map(|r| r.app));
                    self.table.allows_stack(pairing, app, &self.apps_buf)
                }
            };
            if ok {
                self.rank_buf.push((NodeId(i as u32), score));
            }
        }
        self.rank_buf
            .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let ranking = &mut self.rankings[a];
        ranking.order.clear();
        ranking.order.extend(self.rank_buf.iter().map(|c| c.0));
        ranking.fresh = true;
    }

    /// The body of [`crate::util::plan_shared`] over the cached partials.
    /// The reference scores and sorts the partial nodes for every
    /// candidate; here the candidate app's [`Ranking`] already holds the
    /// nodes that pass the candidate-independent filters in that sorted
    /// order, so the walk applies only the per-candidate filters (the
    /// reservation, memory, and the duration-match overlap at `now`) and
    /// takes the first `k` survivors. Filtering keeps the order, so the
    /// chosen nodes, their rates, and the net gain come out bit-identical.
    /// Counts one pairing query per unreserved partial node and one hit
    /// per node that survives every filter, as the reference does. Leaves
    /// the chosen nodes in `nodes_buf` (the partial ones first) and
    /// returns the net gain.
    fn plan_and_eval(
        &mut self,
        ctx: &SchedContext<'_>,
        job: &JobSpec,
        pairing: &Pairing,
        restricted: bool,
        k: usize,
        idle_ok: bool,
    ) -> Option<f64> {
        self.rank(pairing, job.app);
        let cand_bound = job.walltime_estimate * ctx.shared_grace.max(1.0);
        let mem = u64::from(job.mem_per_node_mib);
        self.nodes_buf.clear();
        let mut hits = 0u64;
        'nodes: for &n in &self.rankings[job.app.index()].order {
            if restricted && self.reserved[n.index()] {
                continue;
            }
            if self.partials.slots[n.index()].mem_free < mem {
                continue;
            }
            if let Some(theta) = pairing.duration_match {
                for r in self.partials.residents(n.index()) {
                    let remaining = (r.est_end - ctx.now).max(0.0);
                    let overlap = remaining.min(cand_bound) / remaining.max(cand_bound).max(1e-9);
                    if overlap < theta {
                        continue 'nodes;
                    }
                }
            }
            hits += 1;
            if self.nodes_buf.len() < k {
                self.nodes_buf.push(n);
            }
        }
        if let Some(t) = ctx.telemetry {
            let reserved = if restricted {
                self.reserved_partials
            } else {
                0
            };
            t.pairing_queries
                .add((self.partials.count - reserved) as u64);
            t.pairing_hits.add(hits);
        }
        let chosen = self.nodes_buf.len();
        if chosen < k && idle_ok {
            let need = k - chosen;
            if restricted {
                self.nodes_buf.extend(
                    ctx.cluster
                        .idle_nodes()
                        .filter(|n| !self.reserved[n.index()])
                        .take(need),
                );
            } else {
                self.nodes_buf.extend(ctx.cluster.idle_nodes().take(need));
            }
        }
        if self.nodes_buf.len() < k {
            return None;
        }
        // Idle nodes host no residents, so only the chosen partial nodes
        // contribute to the rates and losses.
        let mut candidate_rate = 1.0f64;
        self.partner_buf.clear();
        for &n in &self.nodes_buf[..chosen] {
            let res = self.partials.residents(n.index());
            match res {
                [r] => {
                    let (cr, rr) = self.table.stack_pair(pairing, job.app, r.app);
                    candidate_rate = candidate_rate.min(cr);
                    update_partner(&mut self.partner_buf, r, rr);
                }
                _ => {
                    self.apps_buf.clear();
                    self.apps_buf.extend(res.iter().map(|r| r.app));
                    let sr = self.table.stack_rates(pairing, job.app, &self.apps_buf);
                    candidate_rate = candidate_rate.min(sr.candidate);
                    for (r, &rate) in res.iter().zip(&sr.residents) {
                        update_partner(&mut self.partner_buf, r, rate);
                    }
                }
            }
        }
        let losses: f64 = self
            .partner_buf
            .iter()
            .map(|&(_, nodes, rate)| nodes as f64 * (1.0 - rate))
            .sum();
        Some(k as f64 * candidate_rate - losses)
    }
}

/// Tracks each distinct partner once at its worst predicted rate, in
/// first-encounter order (the order the reference's loss sum uses).
fn update_partner(buf: &mut Vec<(JobId, u32, f64)>, r: &Resident, rate: f64) {
    match buf.iter_mut().find(|p| p.0 == r.job) {
        Some(p) => p.2 = p.2.min(rate),
        None => buf.push((r.job, r.nodes, rate)),
    }
}

/// Incrementally maintained availability profile for conservative
/// backfill — the diffable reservation timeline behind the optimized
/// [`crate::Conservative`] path.
///
/// The reference implementation rebuilds an
/// [`crate::util::AvailabilityProfile`] from the context on every
/// scheduling pass and then, per queued job, runs an `earliest_fit` that
/// rescans every step per candidate and a `reserve` that re-sorts and
/// rebuilds the whole step vector. At a 4096-deep queue that is the
/// quadratic outlier of the F6 table (~285 ms per decision).
///
/// This structure produces **bit-identical plans** (same candidate
/// comparisons, same `PLAN_EPS` expressions, same step merging) with
/// three incremental layers:
///
/// 1. **Version-keyed base** — the sorted `(est_end, nodes)` release
///    list is cached under the cluster [`stamp`](nodeshare_cluster::Cluster::stamp)
///    and re-sorted only when an allocation or release actually happened;
///    per pass it is clamped to `now` and merged into the step vector in
///    one O(R) sweep.
/// 2. **Allocation-free planning** — `earliest_fit` walks candidates and
///    deficient steps with two monotone cursors (amortized O(S) per job
///    instead of O(S²)) and skips every candidate a deficient step
///    already rules out; `reserve` splices the two breakpoints in place
///    instead of rebuilding. Jobs whose `(nodes, duration)` already
///    proved unfittable since the last profile mutation are skipped via a
///    memo (the same per-pass failure-memo discipline as
///    [`Planner::pick_shared`]).
/// 3. **Cross-pass placement cache** — every pass leaves its planned
///    queue prefix and steps for the next one: a pass with no decision
///    [`seal`](ReservationTimeline::seal)s the whole prefix, and a pass
///    that starts the job at queue index `k` keeps the `k` jobs before it
///    ([`started`](ReservationTimeline::started)). The next pass resumes
///    after that prefix when it can prove a rebuild would replan it
///    identically — after a submit, after `now` advanced, or after the
///    recorded start, which it then applies to the steps in place — and
///    rebuilds from job 0 otherwise, in particular after every release.
///    [`ReservationTimeline::begin_pass`] states the exact conditions.
///
/// `crates/core/tests/prop_profile.rs` checks the timeline step-for-step
/// against a from-scratch rebuild at every decision point of randomized
/// campaigns, and `tests/differential.rs` holds the full strategy to
/// byte-equal traces against [`crate::reference::Conservative`].
#[derive(Clone, Debug, Default)]
pub struct ReservationTimeline {
    /// Cluster stamp the `ends` cache was built for.
    cache_key: Option<(u64, u64)>,
    /// Raw (unclamped) `(est_end, nodes)` of all running jobs, sorted by
    /// time — the version-keyed base the per-pass profile derives from.
    ends: Vec<(f64, i64)>,
    /// The working profile: `(time, free_node_count)` breakpoints,
    /// strictly time-ascending, value holds until the next breakpoint.
    /// Identical contents to the reference profile's steps at every
    /// point of the planning loop.
    steps: Vec<(f64, i64)>,
    /// `(nodes, duration)` keys proven unfittable (earliest fit = ∞)
    /// against the *current* steps; cleared on any profile mutation.
    // detlint: allow(D1, infeasibility memo probed via contains; never iterated)
    infeasible: HashSet<u128>,
    /// What the previous pass left for this one to resume from.
    carry: Carry,
    /// Whether a committed reservation of the planned prefix was anchored
    /// at `now` (start ≤ `now + PLAN_EPS`) or covers no time at all
    /// (`start + duration == start` in floating point). Either makes the
    /// prefix's plan depend on where the anchor sits and on the free
    /// count there, so neither resume across a change may reuse it.
    memo_anchored: bool,
    /// Queue prefix (job ids, in order) the steps account for, plus —
    /// while a start is carried — the started job as its last entry.
    memo_ids: Vec<JobId>,
    /// `now` of the pass currently being planned.
    pass_now: f64,
}

/// The planned state one pass hands to the next.
#[derive(Clone, Copy, Debug, Default)]
enum Carry {
    /// Nothing reusable: the next pass rebuilds.
    #[default]
    Nothing,
    /// A pass at `now` ended with no decision; the steps account for all
    /// of `memo_ids`.
    Sealed { now: f64 },
    /// A pass at `now` started the last job of `memo_ids` on `nodes`
    /// nodes; the steps account for the jobs before it.
    Started { now: f64, nodes: i64 },
}

impl ReservationTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a scheduling pass and returns the queue index to resume
    /// planning at: `0` means the profile was rebuilt and every queued
    /// job must be planned; `n > 0` means the first `n` jobs are already
    /// accounted for by the previous pass and planning continues at
    /// `queue[n..]` against the retained steps.
    ///
    /// Every resume requires the queue to still begin with the planned
    /// prefix's job ids. After a [`sealed`](ReservationTimeline::seal)
    /// pass it also requires an unchanged cluster stamp (equal stamps
    /// mean identical occupancy, so the base profile and every prefix
    /// decision replay identically), and either
    ///
    /// * `now` is unchanged (the engine re-invokes the policy within one
    ///   instant until it returns no decision), or
    /// * `now` advanced, no committed reservation was anchored at the old
    ///   `now`, and no profile breakpoint lies in `(old now, new now +
    ///   PLAN_EPS]`. Then the anchor level is the same at both instants,
    ///   every planned start lies past the new epsilon window, and a job
    ///   that failed the old `now` candidate fails the new one for the
    ///   same reason (too few nodes at the anchor, or a deficient step
    ///   that is still past `t + PLAN_EPS` and before `end − PLAN_EPS`);
    ///   the later candidates are shared. The rebuild would produce these
    ///   steps with the anchor moved, so the anchor is moved in place.
    ///
    /// After a [`started`](ReservationTimeline::started) pass it requires
    /// the context to be exactly that start applied: the same `now`, the
    /// cluster stamp one version later, and the started job running on
    /// the recorded node count with an estimated end `est_end > now`. A
    /// rebuild's base then differs only by that job's nodes over
    /// `[now, est_end)`. The prefix replays identically against it when,
    /// in addition, no prefix reservation was anchored at `now`, the
    /// prefix's steps keep at least `nodes` free at every breakpoint in
    /// `[now, est_end)` (checked exactly, not within `PLAN_EPS`: each
    /// prefix job then still has its own nodes inside its window), and no
    /// other breakpoint lies in `(est_end, est_end + PLAN_EPS]`. The last
    /// condition holds even when `est_end` is already a breakpoint of the
    /// final steps: a rebuild's base has it from the start, so it is a
    /// candidate for every prefix job, including those planned before the
    /// later reservation that put it here. A job whose candidate before
    /// `est_end` failed on a deficient step then fails at `est_end` on the
    /// same step, which lies past `est_end + PLAN_EPS`. The start is then
    /// occupied in place and `est_end` joins the release cache under the
    /// new stamp.
    ///
    /// Anything else — a release, a node state change, a reordered queue,
    /// time moving backwards — rebuilds.
    pub fn begin_pass(&mut self, ctx: &SchedContext<'_>) -> usize {
        self.pass_now = ctx.now;
        let key = ctx.cluster.stamp();
        let resumed = match std::mem::take(&mut self.carry) {
            Carry::Nothing => false,
            Carry::Sealed { now } => self.resume_sealed(ctx, key, now),
            Carry::Started { now, nodes } => self.resume_started(ctx, key, now, nodes),
        };
        if resumed {
            return self.memo_ids.len();
        }
        self.rebuild(ctx, key);
        0
    }

    /// Whether the queue still begins with the planned prefix.
    fn prefix_queued(&self, ctx: &SchedContext<'_>) -> bool {
        self.memo_ids.len() <= ctx.queue.len()
            && self.memo_ids.iter().zip(ctx.queue).all(|(m, j)| *m == j.id)
    }

    /// The resume after a sealed pass at `sealed_now`.
    fn resume_sealed(&mut self, ctx: &SchedContext<'_>, key: (u64, u64), sealed_now: f64) -> bool {
        if self.cache_key != Some(key) || !self.prefix_queued(ctx) {
            return false;
        }
        if ctx.now == sealed_now {
            return true;
        }
        if ctx.now > sealed_now
            && !self.memo_anchored
            && self.no_breakpoint_in(sealed_now, ctx.now + PLAN_EPS)
        {
            self.steps[0].0 = ctx.now;
            return true;
        }
        false
    }

    /// The resume after a pass at `now` that started the last job of
    /// `memo_ids` on `nodes` nodes. `cache_key` still holds that pass's
    /// stamp: every pass leaves it equal to its own.
    fn resume_started(
        &mut self,
        ctx: &SchedContext<'_>,
        key: (u64, u64),
        now: f64,
        nodes: i64,
    ) -> bool {
        let Some(job) = self.memo_ids.pop() else {
            return false;
        };
        let Some(est_end) = ctx
            .running
            .get(&job)
            .filter(|r| i64::from(r.nodes) == nodes)
            .map(|r| r.est_end())
        else {
            return false;
        };
        let applied = ctx.now == now
            && self.cache_key.is_some_and(|c| key == (c.0, c.1 + 1))
            && est_end > now
            && !self.memo_anchored
            && self.prefix_queued(ctx);
        if !applied {
            return false;
        }
        // The anchor sits at `now`, so these are all the breakpoints the
        // started window covers.
        let covered = self.steps.partition_point(|s| s.0 < est_end);
        if self.steps[..covered].iter().any(|s| s.1 < nodes) {
            return false;
        }
        // Required even when `est_end` is already a breakpoint here: a
        // later prefix reservation may have put it there, after an earlier
        // prefix job was planned without it as a candidate.
        if !self.no_breakpoint_in(est_end, est_end + PLAN_EPS) {
            return false;
        }
        let covered = self.ensure_breakpoint(est_end);
        for s in &mut self.steps[..covered] {
            s.1 -= nodes;
        }
        let at = self.ends.partition_point(|e| e.0 <= est_end);
        self.ends.insert(at, (est_end, nodes));
        self.cache_key = Some(key);
        self.infeasible.clear();
        true
    }

    /// Rebuilds the working steps from the (possibly refreshed) base:
    /// idle nodes free at `now`, each running job returning its nodes at
    /// `max(est_end, now)` — the same deltas, ordering, and equal-time
    /// merging as [`crate::util::AvailabilityProfile::from_context`].
    fn rebuild(&mut self, ctx: &SchedContext<'_>, key: (u64, u64)) {
        if self.cache_key != Some(key) {
            self.ends.clear();
            self.ends
                .extend(ctx.running.values().map(|r| (r.est_end(), r.nodes as i64)));
            self.ends.sort_by(|a, b| a.0.total_cmp(&b.0));
            self.cache_key = Some(key);
        }
        let now = ctx.now;
        // Releases at or before `now` clamp onto the anchor, exactly as
        // the reference's `max(est_end, now)` merges them there.
        let cut = self.ends.partition_point(|e| e.0 <= now);
        let mut level = ctx.cluster.idle_count() as i64;
        for e in &self.ends[..cut] {
            level += e.1;
        }
        self.steps.clear();
        self.steps.push((now, level));
        for &(t, k) in &self.ends[cut..] {
            level += k;
            match self.steps.last_mut() {
                Some(last) if last.0 == t => last.1 = level,
                _ => self.steps.push((t, level)),
            }
        }
        self.infeasible.clear();
        self.memo_ids.clear();
        self.memo_anchored = false;
    }

    /// Whether no breakpoint time `t` satisfies `lo < t ≤ hi`.
    fn no_breakpoint_in(&self, lo: f64, hi: f64) -> bool {
        let i = self.steps.partition_point(|s| s.0 <= lo);
        i >= self.steps.len() || self.steps[i].0 > hi
    }

    /// Plans one queued job: earliest `t ≥ now` with `nodes` free
    /// throughout `[t, t + duration)`, bit-identical to
    /// [`crate::util::AvailabilityProfile::earliest_fit`], plus the
    /// cross-pass memo bookkeeping. The caller then either starts the
    /// job (and reports it with [`ReservationTimeline::started`]) or
    /// commits the finite plan with [`ReservationTimeline::reserve`].
    pub fn plan(&mut self, id: JobId, nodes: i64, duration: f64) -> f64 {
        self.memo_ids.push(id);
        let key = (duration.to_bits() as u128) | (nodes as u128) << 64;
        if self.infeasible.contains(&key) {
            return f64::INFINITY;
        }
        let start = self.earliest_fit(self.pass_now, nodes, duration);
        if start == f64::INFINITY {
            // Deterministic against unchanged steps: an identical later
            // request is ∞ too, with no side effects either way.
            self.infeasible.insert(key);
        }
        start
    }

    /// The reference `earliest_fit` with two monotone cursors. The
    /// candidate sequence (`from`, then each breakpoint after it) and
    /// every comparison — `free_at(t) < nodes`, `st > t + PLAN_EPS`,
    /// `st < end - PLAN_EPS` — are the reference's own expressions; only
    /// the rescans are gone: the deficient-step cursor `q` never moves
    /// backwards because both of its conditions are monotone in the
    /// candidate time (a breakpoint inside the epsilon guard for one
    /// candidate stays inside it for every later candidate, and a level
    /// `≥ nodes` never becomes deficient within one call). A failed
    /// candidate also rules out every later candidate `t'` with
    /// `steps[q].0 > t' + PLAN_EPS`: its window ends no earlier, so step
    /// `q` is deficient inside it too, and those candidates are skipped.
    fn earliest_fit(&self, from: f64, nodes: i64, duration: f64) -> f64 {
        let steps = &self.steps[..];
        let n = steps.len();
        let first_after = steps.partition_point(|s| s.0 <= from);
        let mut free = if first_after > 0 {
            steps[first_after - 1].1
        } else {
            0
        };
        let mut t = from;
        let mut i = first_after;
        let mut q = 0usize;
        loop {
            if free >= nodes {
                let end = t + duration;
                while q < n && !(steps[q].0 > t + PLAN_EPS && steps[q].1 < nodes) {
                    q += 1;
                }
                if !(q < n && steps[q].0 < end - PLAN_EPS) {
                    return t;
                }
                while i < n && steps[q].0 > steps[i].0 + PLAN_EPS {
                    i += 1;
                }
            }
            if i >= n {
                return f64::INFINITY;
            }
            t = steps[i].0;
            free = steps[i].1;
            i += 1;
        }
    }

    /// Subtracts `nodes` during `[start, start + duration)` — the
    /// committed reservation of a planned job. Equivalent to the
    /// reference's delta-rebuild: the two breakpoints are spliced in with
    /// the pre-existing level (so a zero-length reservation still leaves
    /// its breakpoint, as the rebuild would) and the covered range is
    /// decremented in place.
    pub fn reserve(&mut self, start: f64, duration: f64, nodes: i64) {
        let end = start + duration;
        // See `memo_anchored`. An empty window subtracts nothing, so after
        // a start is occupied beneath it the level at `start` no longer
        // proves that this job still fits there.
        if start <= self.pass_now + PLAN_EPS || end == start {
            self.memo_anchored = true;
        }
        let i0 = self.ensure_breakpoint(start);
        let i1 = self.ensure_breakpoint(end);
        for s in &mut self.steps[i0..i1] {
            s.1 -= nodes;
        }
        self.infeasible.clear();
    }

    /// Index of the breakpoint at exactly `t`, inserting one carrying the
    /// current level if absent. (Times here are non-negative event times,
    /// so the `total_cmp` search agrees with the reference's `==` merge;
    /// there is no `-0.0` to disagree on.)
    fn ensure_breakpoint(&mut self, t: f64) -> usize {
        match self.steps.binary_search_by(|s| s.0.total_cmp(&t)) {
            Ok(i) => i,
            Err(i) => {
                let level = if i > 0 { self.steps[i - 1].1 } else { 0 };
                self.steps.insert(i, (t, level));
                i
            }
        }
    }

    /// Ends a no-decision pass: seals the planned prefix so the next
    /// pass may resume after it.
    pub fn seal(&mut self) {
        self.carry = Carry::Sealed { now: self.pass_now };
    }

    /// Ends a pass that starts the job it planned last on `nodes` nodes:
    /// keeps the prefix planned before it, so the next pass may apply the
    /// start in place and resume there (see
    /// [`ReservationTimeline::begin_pass`]).
    pub fn started(&mut self, nodes: i64) {
        self.carry = Carry::Started {
            now: self.pass_now,
            nodes,
        };
    }

    /// The working profile steps (for equivalence tests).
    pub fn steps(&self) -> &[(f64, i64)] {
        &self.steps
    }

    /// Fault-injection hook for the audit tests: corrupts the anchor
    /// entry of the working profile by `delta` free nodes. Not part of
    /// the scheduling API.
    #[doc(hidden)]
    pub fn corrupt_anchor_for_test(&mut self, delta: i64) {
        if let Some(first) = self.steps.first_mut() {
            first.1 -= delta;
        }
        self.infeasible.clear();
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::pairing::{Pairing, PairingPolicy};
    use crate::testkit::oracle;
    use nodeshare_cluster::{Cluster, ClusterSpec, NodeSpec, ShareMode};
    use nodeshare_engine::RunningSummary;
    use nodeshare_perf::AppCatalog;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    struct Rig {
        cluster: Cluster,
        running: BTreeMap<JobId, RunningSummary>,
        queue: Vec<JobSpec>,
    }

    /// Two shared AMG nodes plus an incompatible miniFE candidate: every
    /// shared-placement attempt fails and lands in the memo.
    fn rig() -> Rig {
        let catalog = AppCatalog::trinity();
        let amg = catalog.by_name("AMG").unwrap().id;
        let fe = catalog.by_name("miniFE").unwrap().id;
        let mut cluster = Cluster::new(ClusterSpec::new(2, NodeSpec::tiny()));
        cluster
            .allocate_shared(JobId(1), &[NodeId(0), NodeId(1)], 64)
            .unwrap();
        let mut running = BTreeMap::new();
        running.insert(
            JobId(1),
            RunningSummary {
                job: JobId(1),
                app: amg,
                nodes: 2,
                requested_nodes: 2,
                malleable: Default::default(),
                start: 0.0,
                walltime_estimate: 1_000.0,
                kill_at: 1_000.0,
                share_eligible: true,
                mode: ShareMode::Shared,
            },
        );
        let queue = vec![JobSpec {
            malleable: Default::default(),
            id: JobId(5),
            app: fe,
            nodes: 2,
            submit: 0.0,
            runtime_exclusive: 100.0,
            walltime_estimate: 200.0,
            mem_per_node_mib: 64,
            share_eligible: true,
            user: 0,
        }];
        Rig {
            cluster,
            running,
            queue,
        }
    }

    impl Rig {
        fn ctx(&self, now: f64) -> SchedContext<'_> {
            SchedContext {
                now,
                queue: &self.queue,
                cluster: &self.cluster,
                running: &self.running,
                shared_grace: 1.5,
                completed: &[],
                telemetry: None,
            }
        }
    }

    #[test]
    fn failure_memo_survives_passes_within_one_era() {
        let rig = rig();
        let pairing = Pairing::new(PairingPolicy::default_threshold(), oracle());
        let mut planner = Planner::new(&pairing);
        let ctx = rig.ctx(10.0);
        planner.begin_pass(&ctx);
        assert!(planner
            .pick_shared(&ctx, &rig.queue[0], &pairing, false)
            .is_none());
        assert_eq!(planner.memo_len(), 1);
        // Same stamp, same instant: the miss carries across the pass.
        planner.begin_pass(&ctx);
        assert_eq!(planner.memo_len(), 1, "era unchanged, memo must survive");
        assert!(planner
            .pick_shared(&ctx, &rig.queue[0], &pairing, false)
            .is_none());
        assert_eq!(planner.memo_len(), 1);
    }

    #[test]
    fn advancing_now_rolls_the_memo_era() {
        let rig = rig();
        let pairing = Pairing::new(PairingPolicy::default_threshold(), oracle());
        let mut planner = Planner::new(&pairing);
        let ctx = rig.ctx(10.0);
        planner.begin_pass(&ctx);
        assert!(planner
            .pick_shared(&ctx, &rig.queue[0], &pairing, false)
            .is_none());
        assert_eq!(planner.memo_len(), 1);
        let later = rig.ctx(20.0);
        planner.begin_pass(&later);
        assert_eq!(planner.memo_len(), 0, "new instant, memo must clear");
    }

    #[test]
    fn reservation_width_change_clears_restricted_entries() {
        // 1-node candidate: one eligible unreserved partial remains, so
        // the attempt passes the upper-bound early exit, evaluates, and
        // fails on incompatibility — landing in the memo.
        let mut rig = rig();
        rig.queue[0].nodes = 1;
        let pairing = Pairing::new(PairingPolicy::default_threshold(), oracle());
        let mut planner = Planner::new(&pairing);
        let ctx = rig.ctx(10.0);
        planner.begin_pass(&ctx);
        planner.compute_reservation(&ctx, 1);
        assert!(planner
            .pick_shared(&ctx, &rig.queue[0], &pairing, true)
            .is_none());
        assert_eq!(planner.memo_len(), 1);
        // Same width: entries stay. New width: reservation set differs,
        // so the memo goes.
        planner.compute_reservation(&ctx, 1);
        assert_eq!(planner.memo_len(), 1);
        planner.compute_reservation(&ctx, 2);
        assert_eq!(planner.memo_len(), 0);
    }

    impl Rig {
        /// Runs `job` of `app` in a shared lane on each of `nodes`.
        fn share(&mut self, job: u64, app: AppId, nodes: &[u32], eligible: bool) {
            let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
            self.cluster.allocate_shared(JobId(job), &ids, 64).unwrap();
            self.running.insert(
                JobId(job),
                RunningSummary {
                    job: JobId(job),
                    app,
                    nodes: nodes.len() as u32,
                    requested_nodes: nodes.len() as u32,
                    malleable: Default::default(),
                    start: 0.0,
                    walltime_estimate: 1_000.0,
                    kill_at: 1_000.0,
                    share_eligible: eligible,
                    mode: ShareMode::Shared,
                },
            );
        }

        fn end(&mut self, job: u64) {
            self.cluster.release(JobId(job)).unwrap();
            self.running.remove(&JobId(job));
        }
    }

    /// `app`'s ranking derived from scratch: every partial node whose
    /// residents are all known and share-eligible and whose whole stack
    /// accepts `app`, by (minimum pairwise score desc, node id).
    fn ranked_from_scratch(ctx: &SchedContext<'_>, pairing: &Pairing, app: AppId) -> Vec<NodeId> {
        let mut ranked: Vec<(NodeId, f64)> = ctx
            .cluster
            .partial_nodes()
            .filter_map(|n| {
                let mut apps = Vec::new();
                for j in ctx.cluster.node(n)?.occupants() {
                    apps.push(ctx.running.get(&j).filter(|r| r.share_eligible)?.app);
                }
                let score = apps
                    .iter()
                    .map(|&r| pairing.score(app, r))
                    .fold(f64::INFINITY, f64::min);
                pairing.allows_stack(app, &apps).then_some((n, score))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().map(|r| r.0).collect()
    }

    /// Builds the rankings of `apps`, then checks every fresh ranking —
    /// including ones built in earlier passes — against the current
    /// partial set. Returns how many nodes the checked rankings hold.
    fn check_rankings(
        planner: &mut Planner,
        ctx: &SchedContext<'_>,
        pairing: &Pairing,
        apps: &[AppId],
    ) -> usize {
        planner.begin_pass(ctx);
        for &app in apps {
            planner.rank(pairing, app);
        }
        let mut held = 0;
        for (a, ranking) in planner.rankings.iter().enumerate() {
            if !ranking.fresh {
                continue;
            }
            let app = AppId(a as u8);
            assert_eq!(
                ranking.order,
                ranked_from_scratch(ctx, pairing, app),
                "app {a}"
            );
            held += ranking.order.len();
        }
        held
    }

    #[test]
    fn rankings_track_starts_releases_and_eligibility() {
        let catalog = AppCatalog::trinity();
        let apps: Vec<AppId> = catalog.ids().collect();
        let app = |name: &str| catalog.by_name(name).unwrap().id;
        for pairing in [
            Pairing::new(PairingPolicy::default_threshold(), oracle()),
            Pairing::new(PairingPolicy::Any, oracle()),
        ] {
            let node = NodeSpec {
                smt: 4,
                ..NodeSpec::tiny()
            };
            let mut rig = Rig {
                cluster: Cluster::new(ClusterSpec::new(6, node)),
                running: BTreeMap::new(),
                queue: Vec::new(),
            };
            let mut planner = Planner::new(&pairing);
            let (even, odd) = (&apps[..apps.len() / 2], &apps[apps.len() / 2..]);
            rig.share(1, app("AMG"), &[0, 1], true);
            rig.share(2, app("miniFE"), &[1, 2], true);
            rig.share(3, app("GTC"), &[3], true);
            assert!(check_rankings(&mut planner, &rig.ctx(0.0), &pairing, even) > 0);
            // Same stamp, later instant: the first half's rankings stay
            // fresh beside the second half's.
            check_rankings(&mut planner, &rig.ctx(5.0), &pairing, odd);
            assert!(planner.rankings.iter().filter(|r| r.fresh).count() >= apps.len());
            // A start deepens node 1's stack to three.
            rig.share(4, app("SNAP"), &[1, 4], true);
            check_rankings(&mut planner, &rig.ctx(5.0), &pairing, odd);
            check_rankings(&mut planner, &rig.ctx(5.0), &pairing, &apps);
            // A release leaves node 0 idle.
            rig.end(1);
            check_rankings(&mut planner, &rig.ctx(10.0), &pairing, even);
            // A share-ineligible resident makes node 3 ineligible; its
            // release makes it eligible again.
            rig.share(5, app("AMG"), &[3, 5], false);
            check_rankings(&mut planner, &rig.ctx(10.0), &pairing, &apps);
            rig.end(5);
            assert!(check_rankings(&mut planner, &rig.ctx(15.0), &pairing, &apps) > 0);
        }
    }

    /// Applies one random cluster mutation to `rig` at `now`, keeping the
    /// running map in step as the engine does. `op` picks the mutation,
    /// `x` and `y` its operands; a mutation the cluster refuses (a busy or
    /// down node, too little memory, an occupied node set down) leaves
    /// both unchanged.
    fn mutate(rig: &mut Rig, apps: &[AppId], next_job: &mut u64, now: f64, op: u8, x: u32, y: u32) {
        let n = rig.cluster.node_count() as u32;
        match op {
            0..=3 => {
                let width = 1 + x % 3;
                let ids: Vec<NodeId> = (0..width).map(|d| NodeId((y + d) % n)).collect();
                let mem = [0, 1024, 4096, 6144][(x % 4) as usize];
                let shared = op >= 2;
                let granted = if shared {
                    rig.cluster.allocate_shared(JobId(*next_job), &ids, mem)
                } else {
                    rig.cluster.allocate_exclusive(JobId(*next_job), &ids, mem)
                };
                if granted.is_ok() {
                    let walltime = f64::from(1 + x * 37 % 500);
                    rig.running.insert(
                        JobId(*next_job),
                        RunningSummary {
                            job: JobId(*next_job),
                            app: apps[(x / 4) as usize % apps.len()],
                            nodes: width,
                            requested_nodes: width,
                            malleable: Default::default(),
                            start: now,
                            walltime_estimate: walltime,
                            kill_at: now + walltime,
                            share_eligible: x % 5 != 0,
                            mode: if shared {
                                ShareMode::Shared
                            } else {
                                ShareMode::Exclusive
                            },
                        },
                    );
                }
                *next_job += 1;
            }
            4 | 5 if !rig.running.is_empty() => {
                let job = *rig
                    .running
                    .keys()
                    .nth(x as usize % rig.running.len())
                    .unwrap();
                rig.end(job.0);
            }
            6 => rig.cluster.drain(NodeId(y % n)).unwrap(),
            7 => rig.cluster.resume(NodeId(y % n)).unwrap(),
            8 => {
                // Fails on an occupied node.
                let _ = rig.cluster.set_down(NodeId(y % n));
            }
            // A new mutation history: every node is dirty.
            9 => rig.cluster = rig.cluster.clone(),
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random mutations on an SMT-2 or SMT-4 cluster, with a pass after
        /// a random subset of them so that several versions pile up
        /// between refreshes: after every pass the per-node tables, the
        /// rankings, the reservation and a shared pick equal those of a
        /// planner built fresh on the same context.
        #[test]
        fn dirty_node_refresh_matches_a_fresh_planner(
            smt4 in prop::bool::weighted(0.5),
            any_pairing in prop::bool::weighted(0.5),
            steps in prop::collection::vec((0u8..11, 0u32..1000, 0u32..64, 0u8..4), 1..80),
        ) {
            let catalog = AppCatalog::trinity();
            let apps: Vec<AppId> = catalog.ids().collect();
            let pairing = if any_pairing {
                Pairing::new(PairingPolicy::Any, oracle())
            } else {
                Pairing::new(PairingPolicy::default_threshold(), oracle())
            };
            let node = NodeSpec {
                smt: if smt4 { 4 } else { 2 },
                ..NodeSpec::tiny()
            };
            let mut rig = Rig {
                cluster: Cluster::new(ClusterSpec::new(8, node)),
                running: BTreeMap::new(),
                queue: Vec::new(),
            };
            let mut planner = Planner::new(&pairing);
            let mut next_job = 1;
            for (step, &(op, x, y, pass)) in steps.iter().enumerate() {
                let now = step as f64 * 10.0;
                mutate(&mut rig, &apps, &mut next_job, now, op, x, y);
                if pass == 0 {
                    continue;
                }
                let ctx = rig.ctx(now);
                let mut fresh = Planner::new(&pairing);
                planner.begin_pass(&ctx);
                fresh.begin_pass(&ctx);
                prop_assert_eq!(&planner.partials, &fresh.partials);
                let partial: Vec<NodeId> = (0..planner.partials.slots.len())
                    .filter(|&i| planner.partials.slots[i].partial)
                    .map(|i| NodeId(i as u32))
                    .collect();
                prop_assert_eq!(partial, ctx.cluster.partial_nodes().collect::<Vec<_>>());
                prop_assert_eq!(planner.eligible_partial_count(), fresh.eligible_partial_count());
                // Rankings: this pass's app, plus every one still fresh
                // from an earlier pass at the same stamp.
                planner.rank(&pairing, apps[x as usize % apps.len()]);
                for (a, ranking) in planner.rankings.iter().enumerate() {
                    if ranking.fresh {
                        fresh.rank(&pairing, AppId(a as u8));
                        prop_assert_eq!(&ranking.order, &fresh.rankings[a].order, "app {}", a);
                    }
                }
                if pass >= 2 {
                    let k = 1 + (y % 9) as usize;
                    planner.compute_reservation(&ctx, k);
                    fresh.compute_reservation(&ctx, k);
                    prop_assert_eq!(&planner.free, &fresh.free);
                    prop_assert_eq!(planner.shadow.to_bits(), fresh.shadow.to_bits());
                    prop_assert_eq!(&planner.reserved, &fresh.reserved);
                    prop_assert_eq!(planner.reserved_idle, fresh.reserved_idle);
                    prop_assert_eq!(planner.eligible_unreserved, fresh.eligible_unreserved);
                    prop_assert_eq!(planner.reserved_partials, fresh.reserved_partials);
                    let head = crate::util::HeadReservation::compute(&ctx, k);
                    prop_assert_eq!(planner.shadow.to_bits(), head.shadow.to_bits());
                    for (i, &r) in planner.reserved.iter().enumerate() {
                        prop_assert_eq!(r, head.nodes.contains(&NodeId(i as u32)));
                    }
                }
                let candidate = JobSpec {
                    malleable: Default::default(),
                    id: JobId(next_job),
                    app: apps[y as usize % apps.len()],
                    nodes: 1 + x % 4,
                    submit: now,
                    runtime_exclusive: 50.0,
                    walltime_estimate: f64::from(1 + y * 13),
                    mem_per_node_mib: [0, 2048, 8192][(y % 3) as usize],
                    share_eligible: true,
                    user: 0,
                };
                let restricted = pass == 3;
                prop_assert_eq!(
                    planner.pick_shared(&ctx, &candidate, &pairing, restricted),
                    fresh.pick_shared(&ctx, &candidate, &pairing, restricted)
                );
            }
        }
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::util::AvailabilityProfile;
    use nodeshare_cluster::{Cluster, ClusterSpec, NodeSpec, ShareMode};
    use nodeshare_engine::RunningSummary;
    use std::collections::BTreeMap;

    fn queued(id: u64, nodes: u32, est: f64) -> JobSpec {
        JobSpec {
            malleable: Default::default(),
            id: JobId(id),
            app: AppId(0),
            nodes,
            submit: 0.0,
            runtime_exclusive: est / 2.0,
            walltime_estimate: est,
            mem_per_node_mib: 64,
            share_eligible: false,
            user: 0,
        }
    }

    struct Rig {
        cluster: Cluster,
        running: BTreeMap<JobId, RunningSummary>,
        queue: Vec<JobSpec>,
    }

    /// `total`-node cluster with `busy` = `(job id, nodes, est end)`
    /// exclusive residents packed from node 0 up.
    fn rig(total: u32, busy: &[(u64, u32, f64)], queue: Vec<JobSpec>) -> Rig {
        let mut rig = Rig {
            cluster: Cluster::new(ClusterSpec::new(total, NodeSpec::tiny())),
            running: BTreeMap::new(),
            queue,
        };
        for &(id, nodes, end) in busy {
            rig.occupy(JobId(id), nodes, 0.0, end);
        }
        rig
    }

    impl Rig {
        /// Runs `job` exclusively on the lowest idle node ids from
        /// `start` until its kill bound `end`.
        fn occupy(&mut self, job: JobId, nodes: u32, start: f64, end: f64) {
            let ids: Vec<NodeId> = self.cluster.idle_nodes().take(nodes as usize).collect();
            self.cluster.allocate_exclusive(job, &ids, 64).unwrap();
            self.running.insert(
                job,
                RunningSummary {
                    job,
                    app: AppId(0),
                    nodes,
                    requested_nodes: nodes,
                    malleable: Default::default(),
                    start,
                    walltime_estimate: end - start,
                    kill_at: end,
                    share_eligible: false,
                    mode: ShareMode::Exclusive,
                },
            );
        }

        /// Applies the start of `queue[idx]` at `now`, as the engine does.
        fn start(&mut self, idx: usize, now: f64) {
            let job = self.queue.remove(idx);
            self.occupy(job.id, job.nodes, now, now + job.walltime_estimate);
        }

        fn ctx(&self, now: f64) -> SchedContext<'_> {
            self.ctx_prefix(now, self.queue.len())
        }

        fn ctx_prefix(&self, now: f64, n: usize) -> SchedContext<'_> {
            SchedContext {
                now,
                queue: &self.queue[..n],
                cluster: &self.cluster,
                running: &self.running,
                shared_grace: 1.5,
                completed: &[],
                telemetry: None,
            }
        }
    }

    /// Plans and reserves every queued job against both profiles,
    /// asserting bit-equal plans and identical steps after each commit.
    fn plan_all_checked(tl: &mut ReservationTimeline, ctx: &SchedContext<'_>) {
        plan_rest_checked(tl, ctx, 0);
    }

    /// [`plan_all_checked`] for a timeline resumed at queue index `from`:
    /// its steps must equal a from-scratch replay of `queue[..from]`.
    fn plan_rest_checked(tl: &mut ReservationTimeline, ctx: &SchedContext<'_>, from: usize) {
        let mut profile = AvailabilityProfile::from_context(ctx);
        for job in &ctx.queue[..from] {
            let start = profile.earliest_fit(ctx.now, job.nodes as i64, job.walltime_estimate);
            if start.is_finite() {
                profile.reserve(start, job.walltime_estimate, job.nodes as i64);
            }
        }
        assert_eq!(tl.steps(), profile.steps(), "steps at resume index {from}");
        for job in &ctx.queue[from..] {
            let fast = tl.plan(job.id, job.nodes as i64, job.walltime_estimate);
            let refr = profile.earliest_fit(ctx.now, job.nodes as i64, job.walltime_estimate);
            assert_eq!(fast.to_bits(), refr.to_bits(), "plan for job {}", job.id);
            if fast.is_finite() {
                tl.reserve(fast, job.walltime_estimate, job.nodes as i64);
                profile.reserve(refr, job.walltime_estimate, job.nodes as i64);
                assert_eq!(tl.steps(), profile.steps(), "steps after job {}", job.id);
            }
        }
    }

    #[test]
    fn matches_from_scratch_profile_at_every_step() {
        let rig = rig(
            8,
            &[(100, 4, 50.0), (101, 2, 80.0)],
            vec![
                queued(0, 8, 60.0),
                queued(1, 2, 30.0),
                queued(2, 4, 200.0),
                queued(3, 1, 10.0),
                queued(4, 8, 10_000.0),
                queued(5, 3, 45.0),
            ],
        );
        let ctx = rig.ctx(5.0);
        let mut tl = ReservationTimeline::new();
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
    }

    #[test]
    fn oversized_requests_plan_to_infinity() {
        let rig = rig(4, &[], vec![queued(0, 5, 10.0)]);
        let ctx = rig.ctx(0.0);
        let mut tl = ReservationTimeline::new();
        tl.begin_pass(&ctx);
        assert!(tl.plan(JobId(0), 5, 10.0).is_infinite());
        // Memoized second answer must agree.
        assert!(tl.plan(JobId(0), 5, 10.0).is_infinite());
    }

    #[test]
    fn sealed_pass_resumes_after_the_planned_prefix() {
        let rig = rig(
            4,
            &[(100, 4, 50.0)],
            vec![queued(0, 2, 30.0), queued(1, 4, 60.0), queued(2, 1, 5.0)],
        );
        let mut tl = ReservationTimeline::new();
        let ctx2 = rig.ctx_prefix(0.0, 2);
        assert_eq!(tl.begin_pass(&ctx2), 0);
        plan_all_checked(&mut tl, &ctx2);
        tl.seal();
        let sealed = tl.steps().to_vec();
        // Same instant, the queue grew at the tail: only job 2 is new.
        let ctx3 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx3), 2);
        assert_eq!(tl.steps(), &sealed[..]);
    }

    #[test]
    fn occupancy_change_invalidates_the_sealed_prefix() {
        let mut rig = rig(4, &[(100, 2, 50.0)], vec![queued(0, 4, 60.0)]);
        let mut tl = ReservationTimeline::new();
        {
            let ctx = rig.ctx(0.0);
            assert_eq!(tl.begin_pass(&ctx), 0);
            plan_all_checked(&mut tl, &ctx);
            tl.seal();
        }
        rig.cluster
            .allocate_exclusive(JobId(101), &[NodeId(2)], 64)
            .unwrap();
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0, "stamp change must force a rebuild");
    }

    #[test]
    fn now_advance_shifts_the_anchor_when_provably_safe() {
        // All nodes busy until t=1000; the only plan sits at 1000, far
        // from the anchor, and needs more nodes than are ever free now.
        let rig = rig(4, &[(100, 4, 1_000.0)], vec![queued(0, 2, 10.0)]);
        let mut tl = ReservationTimeline::new();
        let ctx0 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx0), 0);
        plan_all_checked(&mut tl, &ctx0);
        tl.seal();
        let ctx5 = rig.ctx(5.0);
        assert_eq!(tl.begin_pass(&ctx5), 1, "anchor shift should resume");
        // The shifted steps must equal a from-scratch replay at t=5.
        let mut fresh = ReservationTimeline::new();
        assert_eq!(fresh.begin_pass(&ctx5), 0);
        plan_all_checked(&mut fresh, &ctx5);
        assert_eq!(tl.steps(), fresh.steps());
    }

    #[test]
    fn now_advance_rebuilds_when_a_breakpoint_is_crossed() {
        // A release at t=3 lies inside (0, 5 + eps]: the sealed profile
        // is anchor-sensitive, so the pass must rebuild.
        let rig = rig(4, &[(100, 4, 3.0)], vec![queued(0, 2, 10.0)]);
        let mut tl = ReservationTimeline::new();
        let ctx0 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx0), 0);
        plan_all_checked(&mut tl, &ctx0);
        tl.seal();
        let ctx5 = rig.ctx(5.0);
        assert_eq!(tl.begin_pass(&ctx5), 0);
        plan_all_checked(&mut tl, &ctx5);
    }

    /// One policy pass by counts alone: plans from the resume index,
    /// reserving each job, until one fits at `now` on idle nodes — which
    /// it reports started — or seals at the end. Returns the resume index
    /// and the started job's queue index.
    fn pass(tl: &mut ReservationTimeline, ctx: &SchedContext<'_>) -> (usize, Option<usize>) {
        let resume = tl.begin_pass(ctx);
        for (i, job) in ctx.queue.iter().enumerate().skip(resume) {
            let start = tl.plan(job.id, job.nodes as i64, job.walltime_estimate);
            if start <= ctx.now + PLAN_EPS && ctx.cluster.idle_count() >= job.nodes as usize {
                tl.started(job.nodes as i64);
                return (resume, Some(i));
            }
            if start.is_finite() {
                tl.reserve(start, job.walltime_estimate, job.nodes as i64);
            }
        }
        tl.seal();
        (resume, None)
    }

    /// Runs one pass on `rig` at `now` that must start `queue[k]`, then
    /// applies that start.
    fn start_at(tl: &mut ReservationTimeline, rig: &mut Rig, now: f64, k: usize) {
        assert_eq!(pass(tl, &rig.ctx(now)).1, Some(k));
        rig.start(k, now);
    }

    #[test]
    fn pass_after_a_start_resumes_at_its_queue_index() {
        // 2 idle nodes, 6 more at t=100. Job 0 (whole machine) plans at
        // 100; job 1 fits now beside it and starts; job 2 comes after.
        let mut rig = rig(
            8,
            &[(100, 6, 100.0)],
            vec![queued(0, 8, 50.0), queued(1, 2, 30.0), queued(2, 1, 10.0)],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 1);
        let ctx = rig.ctx(0.0);
        assert_eq!(
            tl.begin_pass(&ctx),
            1,
            "the prefix before the start survives"
        );
        plan_rest_checked(&mut tl, &ctx, 1);
    }

    #[test]
    fn start_resume_chains_across_passes() {
        // Jobs 1 and 2 each start beside the reserved job 0; the second
        // start resumes on steps the first one's resume produced.
        let mut rig = rig(
            8,
            &[(100, 4, 100.0)],
            vec![
                queued(0, 8, 50.0),
                queued(1, 2, 30.0),
                queued(2, 2, 60.0),
                queued(3, 8, 10.0),
            ],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 1);
        assert_eq!(pass(&mut tl, &rig.ctx(0.0)), (1, Some(1)));
        rig.start(1, 0.0);
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 1);
        plan_rest_checked(&mut tl, &ctx, 1);
    }

    #[test]
    fn anchored_prefix_blocks_the_start_resume() {
        // Job 0 fits now but is only reserved (as when no concrete idle
        // nodes pass its memory check); job 1 then starts beside it.
        let mut rig = rig(
            8,
            &[(100, 4, 100.0)],
            vec![queued(0, 2, 50.0), queued(1, 2, 30.0)],
        );
        let mut tl = ReservationTimeline::new();
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0);
        assert_eq!(tl.plan(JobId(0), 2, 50.0), 0.0);
        tl.reserve(0.0, 50.0, 2);
        assert_eq!(tl.plan(JobId(1), 2, 30.0), 0.0);
        tl.started(2);
        rig.start(1, 0.0);
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
    }

    #[test]
    fn deficient_step_at_the_window_edge_blocks_the_start_resume() {
        // Job 0 reserves the whole machine from t=10, the release. Job 1
        // ends PLAN_EPS/2 past 10, so its own fit ignores the empty step
        // there, but occupying [0, 10 + ε/2) would drive it negative: a
        // rebuild plans job 0 at 10 + ε/2 instead.
        let mut rig = rig(
            4,
            &[(100, 2, 10.0)],
            vec![queued(0, 4, 100.0), queued(1, 2, 10.0 + PLAN_EPS / 2.0)],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 1);
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
        assert_eq!(tl.steps()[2].0, 10.0 + PLAN_EPS / 2.0, "job 0 moved");
    }

    #[test]
    fn breakpoint_just_after_the_started_end_blocks_the_start_resume() {
        // Job 1 ends PLAN_EPS/2 before the release at 10: its end is a
        // new breakpoint with another one within PLAN_EPS after it.
        let mut rig = rig(
            4,
            &[(100, 2, 10.0)],
            vec![queued(0, 4, 100.0), queued(1, 2, 10.0 - PLAN_EPS / 2.0)],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 1);
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
    }

    #[test]
    fn breakpoint_just_after_an_existing_started_end_blocks_the_start_resume() {
        // 3 nodes idle, 3 more at t=5 and 2 at 10 + ε/2. Job 0 plans at
        // 10 + ε/2; job 1 fails at 0 and 5 on that step and plans at
        // 60 + ε/2; job 2 reserves [5, 10), which makes 10 a breakpoint;
        // job 3 starts now and ends at 10. A rebuild has 10 in its base,
        // so job 1 sees it as a candidate, ignores the step ε/2 later, and
        // plans at 10.
        let mut rig = rig(
            8,
            &[(100, 2, 10.0 + PLAN_EPS / 2.0), (101, 3, 5.0)],
            vec![
                queued(0, 8, 50.0),
                queued(1, 1, 20.0),
                queued(2, 4, 5.0),
                queued(3, 2, 10.0),
            ],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 3);
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
        let mut fresh = AvailabilityProfile::from_context(&ctx);
        fresh.reserve(10.0 + PLAN_EPS / 2.0, 50.0, 8);
        assert_eq!(fresh.earliest_fit(0.0, 1, 20.0), 10.0, "job 1 moved");
    }

    #[test]
    fn release_at_the_same_instant_blocks_the_start_resume() {
        let mut rig = rig(
            8,
            &[(100, 6, 100.0), (101, 1, 5.0)],
            vec![queued(0, 8, 50.0), queued(1, 1, 30.0)],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 1);
        rig.cluster.release(JobId(101)).unwrap();
        rig.running.remove(&JobId(101));
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0, "stamp two versions on must rebuild");
        plan_all_checked(&mut tl, &ctx);
    }

    #[test]
    fn changed_queue_prefix_blocks_the_start_resume() {
        let mut rig = rig(
            8,
            &[(100, 6, 100.0)],
            vec![queued(0, 8, 50.0), queued(1, 2, 30.0)],
        );
        let mut tl = ReservationTimeline::new();
        start_at(&mut tl, &mut rig, 0.0, 1);
        rig.queue.insert(0, queued(7, 1, 20.0));
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
    }

    #[test]
    fn submit_resumes_past_a_job_no_wider_than_the_anchor_level() {
        // 2 nodes free now, all 4 from t=1000. Job 0 plans at 1000; job 1
        // (2 nodes, as many as are free now) fails its now candidate on
        // job 0's reservation and plans at 1100. A job submitted at t=5
        // finds no breakpoint in (0, 5 + ε], so planning resumes after
        // both.
        let rig = rig(
            4,
            &[(100, 2, 1_000.0)],
            vec![
                queued(0, 4, 100.0),
                queued(1, 2, 2_000.0),
                queued(2, 1, 5.0),
            ],
        );
        let mut tl = ReservationTimeline::new();
        assert_eq!(pass(&mut tl, &rig.ctx_prefix(0.0, 2)), (0, None));
        assert_eq!(tl.steps()[0].1, 2, "anchor level equals job 1's width");
        let ctx = rig.ctx(5.0);
        assert_eq!(tl.begin_pass(&ctx), 2);
        plan_rest_checked(&mut tl, &ctx, 2);
    }
}
