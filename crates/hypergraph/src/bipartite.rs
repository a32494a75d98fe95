//! The bipartite drawing graph `B(H)` of a hypergraph.
//!
//! `B(H) = (X, Y, E)` has one node per hypergraph vertex (the set `X`) and
//! one node per hyperedge (the set `Y`); an edge joins `v ∈ X` to `f ∈ Y`
//! iff `v` belongs to `f`. The paper uses `B(H)` both to draw the
//! hypergraph (Fig. 3, via Pajek) and to define degree-2 quantities
//! ("reachable by a path of length two in `B(H)`").

use graphcore::{Graph, GraphBuilder, NodeId};

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// A materialized bipartite view of a hypergraph.
///
/// Node layout: hypergraph vertex `v` is node `v.0`; hyperedge `f` is node
/// `num_vertices + f.0`.
#[derive(Clone, Debug)]
pub struct BipartiteView {
    /// The bipartite graph itself.
    pub graph: Graph,
    /// Number of hypergraph vertices (size of side `X`).
    pub num_vertices: usize,
    /// Number of hyperedges (size of side `Y`).
    pub num_edges: usize,
}

impl BipartiteView {
    /// Build `B(H)`.
    pub fn new(h: &Hypergraph) -> Self {
        let n = h.num_vertices();
        let m = h.num_edges();
        let mut b = GraphBuilder::new(n + m);
        b.reserve(h.num_pins());
        let csr = h.csr();
        for f in 0..m {
            let fnode = NodeId((n + f) as u32);
            for &v in csr.pins(f) {
                b.add_edge(NodeId(v.0), fnode);
            }
        }
        BipartiteView {
            graph: b.build(),
            num_vertices: n,
            num_edges: m,
        }
    }

    /// Bipartite node for hypergraph vertex `v`.
    #[inline]
    pub fn vertex_node(&self, v: VertexId) -> NodeId {
        NodeId(v.0)
    }

    /// Bipartite node for hyperedge `f`.
    #[inline]
    pub fn edge_node(&self, f: EdgeId) -> NodeId {
        NodeId((self.num_vertices + f.index()) as u32)
    }

    /// Inverse mapping: which hypergraph entity a bipartite node stands for.
    #[inline]
    pub fn classify(&self, u: NodeId) -> BipartiteNode {
        if (u.index()) < self.num_vertices {
            BipartiteNode::Vertex(VertexId(u.0))
        } else {
            BipartiteNode::Edge(EdgeId((u.index() - self.num_vertices) as u32))
        }
    }
}

/// What a node of `B(H)` represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BipartiteNode {
    /// A hypergraph vertex (protein).
    Vertex(VertexId),
    /// A hyperedge (complex).
    Edge(EdgeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2, 3]);
        b.build()
    }

    #[test]
    fn structure() {
        let h = toy();
        let bv = BipartiteView::new(&h);
        assert_eq!(bv.graph.num_nodes(), 6);
        assert_eq!(bv.graph.num_edges(), h.num_pins());
        // v1 is in both edges.
        let v1 = bv.vertex_node(VertexId(1));
        assert_eq!(bv.graph.degree(v1), 2);
        // e1 has three pins.
        let e1 = bv.edge_node(EdgeId(1));
        assert_eq!(bv.graph.degree(e1), 3);
        assert!(bv.graph.has_edge(v1, e1));
    }

    #[test]
    fn is_bipartite_by_construction() {
        let h = toy();
        let bv = BipartiteView::new(&h);
        for (a, b) in bv.graph.edges() {
            let ca = matches!(bv.classify(a), BipartiteNode::Vertex(_));
            let cb = matches!(bv.classify(b), BipartiteNode::Vertex(_));
            assert_ne!(ca, cb, "edge within one side of the bipartition");
        }
    }

    #[test]
    fn classify_roundtrip() {
        let h = toy();
        let bv = BipartiteView::new(&h);
        assert_eq!(
            bv.classify(bv.vertex_node(VertexId(3))),
            BipartiteNode::Vertex(VertexId(3))
        );
        assert_eq!(
            bv.classify(bv.edge_node(EdgeId(0))),
            BipartiteNode::Edge(EdgeId(0))
        );
    }

    #[test]
    fn empty_hypergraph_view() {
        let h = HypergraphBuilder::new(0).build();
        let bv = BipartiteView::new(&h);
        assert_eq!(bv.graph.num_nodes(), 0);
    }
}
