//! Simulated NUMA topology.
//!
//! The paper's testbed is a 4-socket Xeon E5-4650 (8 cores per socket,
//! 32 threads, §5.1) with threads pinned fill-first. The *algorithmic*
//! role of the topology is which Gather&Sort unit each update thread
//! feeds; this module reproduces the paper's placement policy in software
//! so the benchmark harness can run the same sweeps on any machine. The
//! substitution keeps what the algorithm observes — which threads share
//! a Gather&Sort unit, and so contend on its array — and drops what it
//! cannot reproduce, memory locality: threads the paper places on
//! different sockets may share caches here, which moves absolute
//! throughput but not the per-unit contention the figures vary.

/// A machine model: `nodes` NUMA nodes of `cores_per_node` threads each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of NUMA nodes (Gather&Sort units).
    pub nodes: usize,
    /// Hardware threads per node.
    pub cores_per_node: usize,
}

impl Topology {
    /// The paper's testbed: 4 nodes × 8 cores.
    pub fn paper_testbed() -> Self {
        Self { nodes: 4, cores_per_node: 8 }
    }

    /// A single-node machine with `cores` threads.
    pub fn single_node(cores: usize) -> Self {
        Self { nodes: 1, cores_per_node: cores }
    }

    /// Fill-first placement (§5.1): "8 threads use only a single node,
    /// while 9 use two nodes with 8 threads on one and 1 on the second."
    pub fn node_of(&self, thread: usize) -> usize {
        (thread / self.cores_per_node) % self.nodes
    }

    /// How many nodes `threads` threads occupy (the `S` in the relaxation
    /// formula r = 4kS + (N−S)b).
    pub fn nodes_used(&self, threads: usize) -> usize {
        threads.div_ceil(self.cores_per_node).clamp(1, self.nodes)
    }

    /// Per-thread node assignment for a run of `threads` threads.
    pub fn assignment(&self, threads: usize) -> Vec<usize> {
        (0..threads).map(|t| self.node_of(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.node_of(31), 3);
    }

    #[test]
    fn paper_example_node_counts() {
        let t = Topology::paper_testbed();
        // §5.1: 8 threads → one node; 9 threads → two nodes.
        assert_eq!(t.nodes_used(8), 1);
        assert_eq!(t.nodes_used(9), 2);
        assert_eq!(t.nodes_used(32), 4);
        assert_eq!(t.nodes_used(1), 1);
    }

    #[test]
    fn assignment_is_fill_first() {
        let t = Topology { nodes: 2, cores_per_node: 2 };
        assert_eq!(t.assignment(5), vec![0, 0, 1, 1, 0]);
    }

    #[test]
    fn single_node_maps_everything_to_zero() {
        let t = Topology::single_node(16);
        assert!(t.assignment(40).iter().all(|&n| n == 0));
    }
}
