//! Generalized (k, s)-cores — an extension beyond the paper.
//!
//! Later hypergraph-mining literature generalizes the core idea along a
//! second axis: the **(k, s)-core** is the maximal sub-hypergraph in
//! which every vertex belongs to at least `k` hyperedges *of size at
//! least `s`* (hyperedges that shrink below `s` are discarded rather
//! than reduced). With `s = 1` and no containment rule this is plain
//! degree peeling; the paper's k-core differs by keeping size-≥1 edges
//! and instead removing *non-maximal* ones. Both collapse to the graph
//! k-core on 2-uniform hypergraphs (for `s = 2`).
//!
//! Peeled with alive flags and degree counters over the immutable
//! [`Hypergraph`]; the survivors are cut out with
//! [`Hypergraph::sub_hypergraph`]. `hg ks-core` is the one caller.

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Result of a (k, s)-core computation.
#[derive(Clone, Debug)]
pub struct KsCore {
    /// The degree threshold `k`.
    pub k: u32,
    /// The hyperedge-size threshold `s`.
    pub s: u32,
    /// Surviving vertices, ascending original ids.
    pub vertices: Vec<VertexId>,
    /// Surviving hyperedges, ascending original ids.
    pub edges: Vec<EdgeId>,
    /// The core as a standalone hypergraph (vertex `i` = `vertices[i]`).
    pub sub: Hypergraph,
}

impl KsCore {
    /// `true` when no vertex survives.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Compute the (k, s)-core by alternating peels: drop hyperedges with
/// fewer than `s` surviving members, then vertices in fewer than `k`
/// surviving hyperedges, until stable. Each round scans every vertex and
/// hyperedge once; every incidence is decremented at most once overall.
pub fn ks_core(h: &Hypergraph, k: u32, s: u32) -> KsCore {
    let csr = h.csr();
    let mut alive_v = vec![true; h.num_vertices()];
    let mut alive_e = vec![true; h.num_edges()];
    let mut deg_v: Vec<u32> = csr.vertex_degrees().collect();
    let mut deg_e: Vec<u32> = csr.edge_degrees().collect();
    loop {
        let small: Vec<EdgeId> = h
            .edges()
            .filter(|f| alive_e[f.index()] && deg_e[f.index()] < s)
            .collect();
        for &f in &small {
            alive_e[f.index()] = false;
            for &v in csr.pins(f.index()) {
                if alive_v[v.index()] {
                    deg_v[v.index()] -= 1;
                }
            }
        }
        let doomed: Vec<VertexId> = h
            .vertices()
            .filter(|v| alive_v[v.index()] && deg_v[v.index()] < k)
            .collect();
        if small.is_empty() && doomed.is_empty() {
            break;
        }
        for &v in &doomed {
            alive_v[v.index()] = false;
            for &f in csr.edges_of(v.index()) {
                if alive_e[f.index()] {
                    deg_e[f.index()] -= 1;
                }
            }
        }
    }
    // Keep emptied edges: at `s = 0` an edge with no surviving member
    // still belongs to the core.
    let (sub, vertices, edges) = h.sub_hypergraph(&alive_v, &alive_e, true);
    KsCore {
        k,
        s,
        vertices,
        edges,
        sub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        // Two big overlapping edges + pair edges off the side.
        let mut b = HypergraphBuilder::new(7);
        b.add_edge([0, 1, 2, 3]);
        b.add_edge([1, 2, 3, 4]);
        b.add_edge([0, 5]);
        b.add_edge([5, 6]);
        b.build()
    }

    #[test]
    fn s_threshold_drops_small_edges() {
        let h = toy();
        let core = ks_core(&h, 1, 3);
        // Pair edges die immediately; vertices 5, 6 follow; 0..=4 stay.
        assert_eq!(core.edges, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(core.vertices, (0..5).map(VertexId).collect::<Vec<_>>());
    }

    #[test]
    fn k1_s1_keeps_all_covered_vertices() {
        let h = toy();
        let core = ks_core(&h, 1, 1);
        assert_eq!(core.vertices.len(), 7);
        assert_eq!(core.edges.len(), 4);
    }

    #[test]
    fn cascade_between_thresholds() {
        let h = toy();
        // k=2, s=3: vertices 0 and 4 have only one size->=3 edge each...
        // 0 is in e0 (size 4) and e2 (pair, dies): degree 1 < 2 -> dies;
        // then e0 = {1,2,3} (still size 3), e1 = {1,2,3,4}; 4 has degree
        // 1 -> dies; e1 = {1,2,3}. Vertices 1,2,3 keep degree 2. Stable.
        let core = ks_core(&h, 2, 3);
        assert_eq!(core.vertices, vec![VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(core.edges.len(), 2);
        assert!(core.sub.vertices().all(|v| core.sub.vertex_degree(v) >= 2));
        assert!(core.sub.edges().all(|f| core.sub.edge_degree(f) >= 3));
    }

    #[test]
    fn definition_holds_on_random_inputs() {
        for seed in 0..5u64 {
            // Deterministic pseudo-random hypergraph via an LCG.
            let mut b = HypergraphBuilder::new(30);
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for _ in 0..40 {
                let mut pins = Vec::new();
                for _ in 0..(1 + (x >> 60) % 5) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    pins.push(((x >> 33) % 30) as u32);
                }
                b.add_edge(pins);
            }
            let h = b.build();
            for (k, s) in [(1u32, 2u32), (2, 2), (2, 3), (3, 2)] {
                let core = ks_core(&h, k, s);
                crate::validate::check_structure(&core.sub).unwrap();
                assert!(core
                    .sub
                    .vertices()
                    .all(|v| core.sub.vertex_degree(v) >= k as usize));
                assert!(core
                    .sub
                    .edges()
                    .all(|f| core.sub.edge_degree(f) >= s as usize));
            }
        }
    }

    #[test]
    fn two_uniform_s2_matches_graph_core() {
        // On a simple-graph-as-hypergraph, the (k, 2)-core vertex set is
        // the graph k-core.
        let mut hb = HypergraphBuilder::new(6);
        let mut gb = graphcore::GraphBuilder::new(6);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)] {
            hb.add_edge([u, v]);
            gb.add_edge(graphcore::NodeId(u), graphcore::NodeId(v));
        }
        let h = hb.build();
        let g = gb.build();
        let d = graphcore::core_decomposition(&g);
        for k in 1..=3u32 {
            let hv: Vec<u32> = ks_core(&h, k, 2).vertices.iter().map(|v| v.0).collect();
            let gv: Vec<u32> = d.k_core_nodes(k).iter().map(|u| u.0).collect();
            assert_eq!(hv, gv, "k = {k}");
        }
    }

    #[test]
    fn relation_to_paper_core() {
        // The paper's k-core keeps shrunken-but-maximal edges, so its
        // vertex set can only be a superset of the (k, 2)-core... not in
        // general — but on instances with no singleton-surviving edges
        // they often agree. Check both are valid on the toy.
        let h = toy();
        let paper = crate::csr_kcore(&h, 2);
        let ks = ks_core(&h, 2, 1);
        assert!(crate::validate::check_kcore_invariant(&paper.sub_hypergraph(&h), 2).is_ok());
        assert!(ks.sub.vertices().all(|v| ks.sub.vertex_degree(v) >= 2));
    }
}
