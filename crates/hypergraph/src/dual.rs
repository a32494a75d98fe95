//! The dual hypergraph: vertices and hyperedges swap roles.
//!
//! In the protein-complex reading, the dual's vertices are complexes and
//! its hyperedges are proteins (each protein = the set of complexes it
//! belongs to). The complex intersection graph of `H` is exactly the
//! clique expansion of `H*`, which is how the paper's space argument for
//! intersection graphs (a protein in `m` complexes generates `O(m²)`
//! edges) becomes an instance of the clique-expansion argument.

use crate::builder::HypergraphBuilder;
use crate::hypergraph::Hypergraph;

/// Build the dual hypergraph `H*`: `H*.num_vertices() == H.num_edges()`,
/// one hyperedge per original vertex containing the (ids of the)
/// hyperedges incident to it. Degree-0 vertices become empty hyperedges.
pub fn dual(h: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new(h.num_edges());
    b.reserve_pins(h.num_pins());
    let csr = h.csr();
    for v in 0..csr.num_vertices() {
        b.add_edge(csr.edges_of(v).iter().map(|f| f.0));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::{EdgeId, VertexId};
    use crate::projections::{clique_expansion, intersection_graph};

    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([3]);
        b.build()
    }

    #[test]
    fn shape_swaps() {
        let h = toy();
        let d = dual(&h);
        assert_eq!(d.num_vertices(), h.num_edges());
        assert_eq!(d.num_edges(), h.num_vertices());
        assert_eq!(d.num_pins(), h.num_pins());
    }

    #[test]
    fn incidences_transpose() {
        let h = toy();
        let d = dual(&h);
        for f in h.edges() {
            for &v in h.pins(f) {
                // (v ∈ f) in H  <=>  (f ∈ v) in H*.
                assert!(d.contains(EdgeId(v.0), VertexId(f.0)));
            }
        }
    }

    #[test]
    fn double_dual_is_identity() {
        let h = toy();
        let dd = dual(&dual(&h));
        assert_eq!(dd.num_vertices(), h.num_vertices());
        assert_eq!(dd.num_edges(), h.num_edges());
        for f in h.edges() {
            assert_eq!(dd.pins(f), h.pins(f));
        }
    }

    #[test]
    fn intersection_graph_is_clique_expansion_of_dual() {
        let h = toy();
        let (inter, _) = intersection_graph(&h);
        let clique_of_dual = clique_expansion(&dual(&h));
        assert_eq!(inter.num_nodes(), clique_of_dual.num_nodes());
        assert_eq!(inter.num_edges(), clique_of_dual.num_edges());
        assert!(inter.edges().eq(clique_of_dual.edges()));
    }

    #[test]
    fn isolated_vertex_becomes_empty_dual_edge() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0]);
        let h = b.build();
        let d = dual(&h);
        assert_eq!(d.edge_degree(EdgeId(1)), 0); // vertex 1 was isolated
    }

    #[test]
    fn dual_degrees_swap() {
        let h = toy();
        let d = dual(&h);
        for v in h.vertices() {
            assert_eq!(h.vertex_degree(v), d.edge_degree(EdgeId(v.0)));
        }
        for f in h.edges() {
            assert_eq!(h.edge_degree(f), d.vertex_degree(VertexId(f.0)));
        }
    }
}
