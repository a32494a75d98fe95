//! Edge-list accumulator that freezes into a CSR [`Graph`].

use crate::graph::{Graph, NodeId};

/// Accumulates undirected edges and freezes them into a [`Graph`].
///
/// The builder is forgiving: self-loops are dropped, parallel edges are
/// merged, and endpoints may arrive in any order. `build` runs in
/// O(n + m log m) (one sort per node slice via a global counting pass).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph on `num_nodes` nodes (ids `0..num_nodes`).
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes <= u32::MAX as usize, "node count exceeds u32");
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Pre-reserve capacity for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Record the undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u:?}, {v:?}) out of range for {} nodes",
            self.num_nodes
        );
        if u == v {
            return;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        self.edges.push(e);
    }

    /// Freeze into a CSR [`Graph`], deduplicating parallel edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.num_nodes;
        let mut degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degree {
            acc = acc
                .checked_add(d)
                .expect("adjacency length exceeds u32 range");
            offsets.push(acc);
        }

        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adjacency = vec![NodeId(0); acc as usize];
        for &(u, v) in &self.edges {
            adjacency[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            adjacency[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }

        // Edges were inserted in globally sorted (u, v) order, so each node's
        // forward neighbours are already sorted; backward ones are too, but
        // the two runs interleave. A per-slice sort keeps this simple and is
        // cheap relative to the global sort above.
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            adjacency[lo..hi].sort_unstable();
        }

        Graph::from_csr(offsets, adjacency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2));
    }
}
