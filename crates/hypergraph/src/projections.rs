//! The lossy graph projections of the protein complex data that the paper
//! argues *against* (§1.2), implemented so their costs and distortions can
//! be measured (ablation A1):
//!
//! * **clique expansion** — every complex becomes a clique on its members
//!   (O(n²) edges per complex, inflated clustering);
//! * **star (bait/spoke) expansion** — the bait protein of each complex is
//!   joined to every other member;
//! * **complex intersection graph** — one node per complex, an edge when
//!   two complexes share a protein (proteins disappear; a protein in `m`
//!   complexes generates O(m²) edges).

use graphcore::{Graph, GraphBuilder, NodeId};

use crate::csr_overlap::CsrOverlap;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Clique expansion: node `v` per vertex, edge `{u, w}` whenever some
/// hyperedge contains both. Parallel edges from multiple shared complexes
/// are merged (the graph is simple).
pub fn clique_expansion(h: &Hypergraph) -> Graph {
    let csr = h.csr();
    let mut b = GraphBuilder::new(h.num_vertices());
    for f in 0..csr.num_edges() {
        let pins = csr.pins(f);
        b.reserve(pins.len() * pins.len().saturating_sub(1) / 2);
        for (i, &u) in pins.iter().enumerate() {
            for &w in &pins[i + 1..] {
                b.add_edge(NodeId(u.0), NodeId(w.0));
            }
        }
    }
    b.build()
}

/// Star (bait) expansion: for each hyperedge, join `bait(f)` to every
/// other member.
///
/// # Panics
/// If a bait is not a member of its hyperedge.
pub fn star_expansion(h: &Hypergraph, bait: impl Fn(EdgeId) -> VertexId) -> Graph {
    let csr = h.csr();
    let mut b = GraphBuilder::new(h.num_vertices());
    for f in h.edges() {
        let bv = bait(f);
        let pins = csr.pins(f.index());
        assert!(
            pins.binary_search(&bv).is_ok() || pins.is_empty(),
            "bait {bv:?} is not a member of {f:?}"
        );
        for &w in pins {
            if w != bv {
                b.add_edge(NodeId(bv.0), NodeId(w.0));
            }
        }
    }
    b.build()
}

/// Complex intersection graph: node per hyperedge, edge when two
/// hyperedges share at least one vertex. Returns the graph and, for each
/// graph edge `(f, g)` with `f < g`, the shared-vertex count the paper
/// suggests as an edge weight.
pub fn intersection_graph(h: &Hypergraph) -> (Graph, Vec<(EdgeId, EdgeId, u32)>) {
    let ov = CsrOverlap::build(h);
    let mut b = GraphBuilder::new(h.num_edges());
    let mut weights = Vec::new();
    for f in h.edges() {
        for (g, c) in ov.overlapping(f) {
            if f < g {
                b.add_edge(NodeId(f.0), NodeId(g.0));
                weights.push((f, g, c));
            }
        }
    }
    weights.sort_unstable();
    (b.build(), weights)
}

/// Space accounting for the four representations of the same data,
/// in bytes of adjacency storage (CSR arrays), plus edge counts — the
/// paper's O(n) vs O(n²) argument made measurable.
#[derive(Clone, Debug, PartialEq)]
pub struct SpaceReport {
    /// Bytes for the hypergraph's dual CSR.
    pub hypergraph_bytes: usize,
    /// Bytes for the clique expansion's CSR.
    pub clique_bytes: usize,
    /// Bytes for the star expansion's CSR (first member as bait).
    pub star_bytes: usize,
    /// Bytes for the intersection graph's CSR (weights not counted).
    pub intersection_bytes: usize,
    /// Simple-edge counts of the three projections.
    pub clique_edges: usize,
    /// Edges of the star expansion.
    pub star_edges: usize,
    /// Edges of the intersection graph.
    pub intersection_edges: usize,
    /// Incidence count |E| of the hypergraph.
    pub pins: usize,
}

/// Build all projections and measure their storage.
pub fn space_report(h: &Hypergraph) -> SpaceReport {
    let clique = clique_expansion(h);
    let star = star_expansion(h, |f| h.pins(f).first().copied().unwrap_or(VertexId(0)));
    let (inter, _) = intersection_graph(h);
    SpaceReport {
        hypergraph_bytes: h.storage_bytes(),
        clique_bytes: clique.storage_bytes(),
        star_bytes: star.storage_bytes(),
        intersection_bytes: inter.storage_bytes(),
        clique_edges: clique.num_edges(),
        star_edges: star.num_edges(),
        intersection_edges: inter.num_edges(),
        pins: h.num_pins(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        // e0={0,1,2}, e1={2,3}, e2={4}
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([4]);
        b.build()
    }

    #[test]
    fn clique_expansion_edges() {
        let g = clique_expansion(&toy());
        assert_eq!(g.num_edges(), 3 + 1); // triangle + {2,3}
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(2), NodeId(3)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert_eq!(g.degree(NodeId(4)), 0);
    }

    #[test]
    fn clique_expansion_merges_parallel() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        let g = clique_expansion(&b.build());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn star_expansion_with_first_member_bait() {
        let h = toy();
        let g = star_expansion(&h, |f| h.pins(f)[0]);
        // e0 star at 0: {0,1},{0,2}; e1 star at 2: {2,3}. Singleton: none.
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn star_expansion_validates_bait() {
        let h = toy();
        let _ = star_expansion(&h, |_| VertexId(4));
    }

    #[test]
    fn intersection_graph_nodes_are_complexes() {
        let (g, w) = intersection_graph(&toy());
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1); // e0 and e1 share vertex 2
        assert_eq!(w, vec![(EdgeId(0), EdgeId(1), 1)]);
    }

    #[test]
    fn intersection_weights_count_shared() {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        let (_, w) = intersection_graph(&b.build());
        assert_eq!(w, vec![(EdgeId(0), EdgeId(1), 2)]);
    }

    #[test]
    fn quadratic_blowup_of_clique_vs_linear_hypergraph() {
        // One 40-member complex: hypergraph stores 40 pins; the clique
        // stores 780 edges (1560 CSR entries).
        let mut b = HypergraphBuilder::new(40);
        b.add_edge(0..40u32);
        let h = b.build();
        let r = space_report(&h);
        assert_eq!(r.pins, 40);
        assert_eq!(r.clique_edges, 40 * 39 / 2);
        assert_eq!(r.star_edges, 39);
        assert!(r.clique_bytes > 10 * r.hypergraph_bytes);
    }

    #[test]
    fn hub_protein_blows_up_intersection_graph() {
        // One protein in 20 complexes of size 2 → intersection graph gets
        // C(20,2) = 190 edges from that protein alone.
        let mut b = HypergraphBuilder::new(21);
        for i in 1..=20u32 {
            b.add_edge([0, i]);
        }
        let (g, _) = intersection_graph(&b.build());
        assert_eq!(g.num_edges(), 190);
    }
}
