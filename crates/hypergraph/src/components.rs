//! Connected components of a hypergraph.
//!
//! Two vertices are connected when a hypergraph path (alternating vertices
//! and hyperedges) joins them; equivalently, when they are connected in the
//! bipartite view `B(H)`. A hyperedge belongs to the component of its
//! member vertices; an *empty* hyperedge forms a component of its own
//! (0 vertices, 1 hyperedge), matching the bipartite-view convention where
//! its node is isolated.

use graphcore::UnionFind;
use hgobs::{Deadline, DeadlineExceeded};

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Size summary of one connected component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentSummary {
    /// Number of vertices in the component.
    pub num_vertices: usize,
    /// Number of hyperedges in the component.
    pub num_edges: usize,
}

/// Result of the hypergraph connected-components computation.
#[derive(Clone, Debug)]
pub struct HyperComponents {
    /// Component index of each vertex.
    pub vertex_label: Vec<u32>,
    /// Component index of each hyperedge.
    pub edge_label: Vec<u32>,
    /// Per-component sizes.
    pub summary: Vec<ComponentSummary>,
}

impl HyperComponents {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.summary.len()
    }

    /// Index of the component with the most vertices (ties: most edges,
    /// then lowest index). `None` when there are no components.
    pub fn largest(&self) -> Option<usize> {
        (0..self.summary.len()).max_by_key(|&c| {
            (
                self.summary[c].num_vertices,
                self.summary[c].num_edges,
                std::cmp::Reverse(c),
            )
        })
    }

    /// Vertices of component `c`.
    pub fn vertex_members(&self, c: usize) -> Vec<VertexId> {
        self.vertex_label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l as usize == c)
            .map(|(v, _)| VertexId(v as u32))
            .collect()
    }

    /// Extract component `c` as a standalone hypergraph, together with the
    /// original ids of its vertices and edges.
    pub fn extract(&self, h: &Hypergraph, c: usize) -> (Hypergraph, Vec<VertexId>, Vec<EdgeId>) {
        let keep_v: Vec<bool> = self.vertex_label.iter().map(|&l| l as usize == c).collect();
        let keep_e: Vec<bool> = self.edge_label.iter().map(|&l| l as usize == c).collect();
        h.sub_hypergraph(&keep_v, &keep_e, true)
    }
}

/// Connected components via union–find over `|V| + |F|` elements,
/// O(|E| α) time.
pub fn hypergraph_components(h: &Hypergraph) -> HyperComponents {
    match hypergraph_components_with(h, &Deadline::none()) {
        Ok(cc) => cc,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`hypergraph_components`] under a cooperative [`Deadline`] (phase
/// `components`, work = hyperedges unioned): ticked once per hyperedge
/// in the union loop and once per element in the labelling pass, and
/// checked before the summary pass, so an expiry is noticed within
/// [`CHECK_INTERVAL`](hgobs::CHECK_INTERVAL) items.
pub fn hypergraph_components_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<HyperComponents, DeadlineExceeded> {
    let csr = h.csr();
    let (n, m) = (csr.num_vertices(), csr.num_edges());
    let mut uf = UnionFind::new(n + m);
    let mut ticks = 0;
    for f in 0..m {
        if deadline.tick(&mut ticks) {
            return Err(deadline.exceeded("components", f as u64));
        }
        for &v in csr.pins(f) {
            uf.union(n + f, v.index());
        }
    }
    let expired = || deadline.exceeded("components", m as u64);
    let (labels, count) = uf
        .labels_until(|| deadline.tick(&mut ticks))
        .ok_or_else(expired)?;
    deadline.check("components", m as u64)?;

    // Every label is used by at least one element, so the count is the
    // component count directly.
    let vertex_label = labels[..n].to_vec();
    let edge_label = labels[n..].to_vec();
    let mut summary = vec![
        ComponentSummary {
            num_vertices: 0,
            num_edges: 0
        };
        count
    ];
    for &l in &vertex_label {
        summary[l as usize].num_vertices += 1;
    }
    for &l in &edge_label {
        summary[l as usize].num_edges += 1;
    }
    Ok(HyperComponents {
        vertex_label,
        edge_label,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    #[test]
    fn two_components_plus_isolated_vertex() {
        // {0,1,2} via two edges; {3,4} via one; vertex 5 isolated.
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([3, 4]);
        let h = b.build();
        let cc = hypergraph_components(&h);
        assert_eq!(cc.count(), 3);
        let big = cc.largest().unwrap();
        assert_eq!(
            cc.summary[big],
            ComponentSummary {
                num_vertices: 3,
                num_edges: 2
            }
        );
        assert_eq!(
            cc.vertex_members(big),
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
    }

    #[test]
    fn empty_edge_is_own_component() {
        let mut b = HypergraphBuilder::new(1);
        b.add_edge([]);
        b.add_edge([0]);
        let h = b.build();
        let cc = hypergraph_components(&h);
        assert_eq!(cc.count(), 2);
        let sizes: Vec<_> = cc
            .summary
            .iter()
            .map(|s| (s.num_vertices, s.num_edges))
            .collect();
        assert!(sizes.contains(&(0, 1)));
        assert!(sizes.contains(&(1, 1)));
    }

    #[test]
    fn extract_roundtrip() {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([3, 4]);
        let h = b.build();
        let cc = hypergraph_components(&h);
        let big = cc.largest().unwrap();
        let (sub, vmap, emap) = cc.extract(&h, big);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(vmap, vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(emap, vec![EdgeId(0)]);
        assert_eq!(sub.edge_degree(EdgeId(0)), 3);
    }

    #[test]
    fn shared_vertex_merges_components() {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1]);
        b.add_edge([2, 3]);
        b.add_edge([1, 2]); // bridges the two
        b.add_edge([4]);
        let h = b.build();
        let cc = hypergraph_components(&h);
        assert_eq!(cc.count(), 2);
        let big = cc.largest().unwrap();
        assert_eq!(cc.summary[big].num_vertices, 4);
        assert_eq!(cc.summary[big].num_edges, 3);
    }

    #[test]
    fn cancelled_deadline_stops_the_union_loop_within_a_check_interval() {
        // A path over three check intervals of hyperedges: the tick that
        // reads the cancelled flag ends the union loop.
        let m = 3 * hgobs::CHECK_INTERVAL as usize;
        let mut b = HypergraphBuilder::new(m + 1);
        for i in 0..m as u32 {
            b.add_edge([i, i + 1]);
        }
        let h = b.build();
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = hypergraph_components_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "components");
        assert!(err.work_done < hgobs::CHECK_INTERVAL as u64, "{err:?}");
        let cc = hypergraph_components_with(&h, &Deadline::none()).unwrap();
        assert_eq!(cc.count(), 1);
    }

    #[test]
    fn matches_bipartite_components() {
        let mut b = HypergraphBuilder::new(7);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([4, 5]);
        let h = b.build();
        let cc = hypergraph_components(&h);
        let bv = crate::BipartiteView::new(&h);
        let gcc = graphcore::connected_components(&bv.graph);
        // Same number of components once isolated B(H) nodes are counted:
        // vertex 6 is isolated in both views.
        assert_eq!(cc.count(), gcc.count);
        // Labels agree as partitions on the vertex side.
        for v in h.vertices() {
            for w in h.vertices() {
                let same_h = cc.vertex_label[v.index()] == cc.vertex_label[w.index()];
                let same_b = gcc.label[v.index()] == gcc.label[w.index()];
                assert_eq!(same_h, same_b);
            }
        }
    }
}
