//! Allocation records: which nodes a job holds, and how. The lanes it
//! holds on each node are the node's own record ([`crate::Node::lanes_of`]).

use crate::ids::{JobId, NodeId};
use serde::{Deserialize, Serialize};

/// How a job occupies its nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShareMode {
    /// The job owns every hardware thread of each of its nodes — the
    /// "standard node allocation" baseline of the paper.
    Exclusive,
    /// The job owns one hardware-thread lane per node and may co-reside
    /// with other jobs — the paper's node-sharing mechanism.
    Shared,
}

impl ShareMode {
    /// True for [`ShareMode::Shared`].
    #[inline]
    pub const fn is_shared(self) -> bool {
        matches!(self, ShareMode::Shared)
    }
}

/// A live allocation held by a job.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Owning job.
    pub job: JobId,
    /// Nodes held, in the order they were granted. An exclusive job holds
    /// every lane of each, a shared job one lane.
    pub nodes: Vec<NodeId>,
    /// Memory charged on each node, MiB.
    pub mem_per_node: u64,
    /// Exclusive or shared occupancy.
    pub mode: ShareMode,
}

impl Allocation {
    /// Number of nodes held.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_accessors() {
        let a = Allocation {
            job: JobId(9),
            nodes: vec![NodeId(2), NodeId(5)],
            mem_per_node: 512,
            mode: ShareMode::Shared,
        };
        assert_eq!(a.node_count(), 2);
        assert!(a.mode.is_shared());
        assert!(!ShareMode::Exclusive.is_shared());
    }
}
