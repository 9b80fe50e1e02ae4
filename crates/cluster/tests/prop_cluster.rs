//! Property tests: the cluster's allocation table, node lane state, and
//! capacity indices stay mutually consistent under arbitrary interleavings
//! of allocate/release/drain/resume operations.

use nodeshare_cluster::{
    AdminState, AllocError, Cluster, ClusterSpec, JobId, Node, NodeId, NodeSpec,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    AllocExclusive { job: u64, nodes: Vec<u32>, mem: u64 },
    AllocShared { job: u64, nodes: Vec<u32>, mem: u64 },
    Release { job: u64 },
    Drain { node: u32 },
    Resume { node: u32 },
}

const NODES: u32 = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    ops_over(|| 0..NODES)
}

/// Operations whose node ids `node` draws.
fn ops_over<S: Strategy<Value = u32> + 'static>(node: fn() -> S) -> impl Strategy<Value = Op> {
    let nodes = move || prop::collection::vec(node(), 1..4);
    let job = 0u64..12;
    let mem = 0u64..(NodeSpec::tiny().mem_mib + 1024);
    prop_oneof![
        (job.clone(), nodes(), mem.clone()).prop_map(|(job, nodes, mem)| Op::AllocExclusive {
            job,
            nodes,
            mem
        }),
        (job.clone(), nodes(), mem).prop_map(|(job, nodes, mem)| Op::AllocShared {
            job,
            nodes,
            mem
        }),
        job.prop_map(|job| Op::Release { job }),
        node().prop_map(|node| Op::Drain { node }),
        node().prop_map(|node| Op::Resume { node }),
    ]
}

/// Applies `op`, ignoring whether it succeeds.
fn apply(c: &mut Cluster, op: Op) {
    match op {
        Op::AllocExclusive { job, nodes, mem } => {
            let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
            let _ = c.allocate_exclusive(JobId(job), &ids, mem);
        }
        Op::AllocShared { job, nodes, mem } => {
            let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
            let _ = c.allocate_shared(JobId(job), &ids, mem);
        }
        Op::Release { job } => {
            let _ = c.release(JobId(job));
        }
        Op::Drain { node } => c.drain(NodeId(node)).unwrap(),
        Op::Resume { node } => c.resume(NodeId(node)).unwrap(),
    }
}

/// A cluster wider than two 64-bit words of node ids.
const WIDE_NODES: u32 = 150;

/// Node ids on both sides of the index bitsets' word boundaries (63/64
/// and 127/128), or anywhere on the wide cluster.
fn boundary_node() -> impl Strategy<Value = u32> {
    prop_oneof![61u32..67, 125u32..131, 0..WIDE_NODES]
}

/// The wide cluster's nodes have four lanes, so free-lane buckets 1–3
/// all fill.
fn smt4() -> NodeSpec {
    NodeSpec {
        smt: 4,
        ..NodeSpec::tiny()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every operation — success or failure — all invariants hold,
    /// and failures leave state unchanged (atomicity).
    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        for op in ops {
            let before_allocs = c.allocation_count();
            let before_busy = c.busy_hw_threads();
            match op {
                Op::AllocExclusive { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    if c.allocate_exclusive(JobId(job), &ids, mem).is_err() {
                        prop_assert_eq!(c.allocation_count(), before_allocs);
                        prop_assert_eq!(c.busy_hw_threads(), before_busy);
                    }
                }
                Op::AllocShared { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    if c.allocate_shared(JobId(job), &ids, mem).is_err() {
                        prop_assert_eq!(c.allocation_count(), before_allocs);
                        prop_assert_eq!(c.busy_hw_threads(), before_busy);
                    }
                }
                Op::Release { job } => {
                    let had = c.allocation(JobId(job)).is_some();
                    let res = c.release(JobId(job));
                    prop_assert_eq!(res.is_ok(), had);
                }
                Op::Drain { node } => { c.drain(NodeId(node)).unwrap(); }
                Op::Resume { node } => { c.resume(NodeId(node)).unwrap(); }
            }
            if let Err(e) = c.check_invariants() {
                return Err(TestCaseError::fail(e));
            }
        }
        // Releasing everything returns the cluster to full idle capacity.
        let jobs: Vec<JobId> = c.allocations().map(|a| a.job).collect();
        for j in jobs {
            c.release(j).unwrap();
        }
        prop_assert_eq!(c.busy_hw_threads(), 0);
        prop_assert_eq!(c.busy_cores(), 0);
        c.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The idle, partial and free-lane indices list exactly what a scan
    /// over the nodes finds, in ascending id order, on a cluster whose
    /// node ids span three words, with operations clustered at the word
    /// boundaries.
    #[test]
    fn indices_match_a_scan_across_word_boundaries(
        ops in prop::collection::vec(ops_over(boundary_node), 1..80)
    ) {
        let spec = smt4();
        let mut c = Cluster::new(ClusterSpec::new(WIDE_NODES, spec));
        for op in ops {
            apply(&mut c, op);
            let scan = |keep: &dyn Fn(&Node) -> bool| -> Vec<NodeId> {
                c.nodes().iter().filter(|n| keep(n)).map(Node::id).collect()
            };
            let up = |n: &Node| n.admin_state() == AdminState::Up;
            let idle = scan(&|n| up(n) && n.is_idle());
            prop_assert_eq!(c.idle_nodes().collect::<Vec<_>>(), idle.clone());
            prop_assert_eq!(c.idle_count(), idle.len());
            let partial = |n: &Node| up(n) && !n.is_idle() && n.free_lane_count() > 0;
            let partials = scan(&partial);
            prop_assert_eq!(c.partial_nodes().collect::<Vec<_>>(), partials.clone());
            prop_assert_eq!(c.partial_count(), partials.len());
            for f in 0..=spec.smt + 1 {
                let with_free = scan(&|n| partial(n) && n.free_lane_count() >= f.max(1));
                prop_assert_eq!(
                    c.partial_nodes_with_free_lanes(f).collect::<Vec<_>>(),
                    with_free
                );
                let exactly = scan(&|n| partial(n) && n.free_lane_count() == f);
                prop_assert_eq!(c.lane_bucket_count(f), exactly.len());
            }
            for id in (0..WIDE_NODES).map(NodeId) {
                prop_assert_eq!(c.is_idle(id), idle.contains(&id));
                prop_assert_eq!(c.is_partial(id), partials.contains(&id));
            }
        }
        c.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Memory is conserved: the sum of per-node used memory equals the sum
    /// over live allocations of `mem_per_node × node_count`.
    #[test]
    fn memory_is_conserved(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        for op in ops {
            apply(&mut c, op);
            let node_view: u64 = c.nodes().iter().map(|n| n.mem_used()).sum();
            let alloc_view: u64 = c
                .allocations()
                .map(|a| a.mem_per_node * a.node_count() as u64)
                .sum();
            prop_assert_eq!(node_view, alloc_view);
        }
    }

    /// A node never hosts more jobs than its SMT width, and never hosts the
    /// same job on two lanes.
    #[test]
    fn smt_bound_is_respected(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        for op in ops {
            match op {
                Op::AllocExclusive { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    let _ = c.allocate_exclusive(JobId(job), &ids, mem);
                }
                Op::AllocShared { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    let _ = c.allocate_shared(JobId(job), &ids, mem);
                }
                Op::Release { job } => { let _ = c.release(JobId(job)); }
                _ => {}
            }
            for n in c.nodes() {
                let occ = n.occupants();
                prop_assert!(occ.len() <= NodeSpec::tiny().smt as usize);
                for j in &occ {
                    // lanes_of is deduplicated occupancy: a shared job holds
                    // exactly one lane per node, an exclusive job all lanes.
                    let lanes = n.lanes_of(*j).len();
                    prop_assert!(lanes == 1 || lanes == NodeSpec::tiny().smt as usize);
                }
            }
        }
    }
}

#[test]
fn shared_then_exclusive_conflict_is_clean() {
    let mut c = Cluster::new(ClusterSpec::test_small());
    c.allocate_shared(JobId(1), &[NodeId(0)], 0).unwrap();
    let err = c.allocate_exclusive(JobId(2), &[NodeId(0)], 0).unwrap_err();
    assert!(matches!(err, AllocError::Node(_)));
    c.check_invariants().unwrap();
}
