#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-cluster
//!
//! Machine model for the nodeshare batch-system study: homogeneous clusters
//! of SMT nodes with **lane-granular occupancy**.
//!
//! The paper ("Effects and Benefits of Node Sharing Strategies in HPC Batch
//! Systems", IPDPS 2019) shares nodes by oversubscribing cores through
//! hyper-threading: each of a node's `smt` hardware-thread *lanes* can host
//! one job, so an SMT-2 node runs either one exclusive job or up to two
//! co-allocated jobs. This crate provides:
//!
//! * [`ids`] — shared [`JobId`]/[`NodeId`]/[`Lane`] identifiers,
//! * [`spec`] — static hardware shapes ([`NodeSpec`], [`ClusterSpec`]),
//! * [`node`] — per-node lane/memory/admin state,
//! * [`alloc`] — allocation records ([`Allocation`], [`ShareMode`]),
//! * [`cluster`] — the [`Cluster`] aggregate with atomic allocate/release
//!   and incrementally maintained idle/partial capacity indices (dense
//!   id-ordered bitsets, updated per node a mutation touches).
//!
//! ```
//! use nodeshare_cluster::{Cluster, ClusterSpec, JobId, NodeId};
//!
//! let mut cluster = Cluster::new(ClusterSpec::test_small());
//! cluster.allocate_shared(JobId(1), &[NodeId(0)], 1024).unwrap();
//! cluster.allocate_shared(JobId(2), &[NodeId(0)], 1024).unwrap();
//! assert_eq!(cluster.co_runners(JobId(1)), vec![(NodeId(0), JobId(2))]);
//! ```

pub mod alloc;
pub mod cluster;
pub mod ids;
pub mod node;
pub mod render;
pub mod spec;

pub use alloc::{Allocation, ShareMode};
pub use cluster::{AllocError, AllocStats, Cluster, OccupancySnapshot};
pub use ids::{JobId, Lane, NodeId};
pub use node::{AdminState, Node, NodeError, Occupancy};
pub use render::{node_glyph, render_occupancy};
pub use spec::{ClusterSpec, NodeSpec};
