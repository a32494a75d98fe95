//! Cache-local vertex/hyperedge renumbering.
//!
//! The hot kernels (the MS-BFS sweep in [`crate::msbfs`], and the
//! overlap-table k-core in [`mod@crate::decompose`]) are bound by random
//! probes into per-vertex and per-hyperedge arrays: every pin of an
//! expanded hyperedge lands on its own cache line when vertex ids are
//! scattered. Renumbering vertices (and hyperedges) in BFS discovery
//! order places ids that are traversed together next to each other, so
//! one hyperedge's pins — and one vertex's incident hyperedges — share
//! cache lines instead of each paying a miss. Degree order is the
//! cheaper variant that still clusters the high-traffic hubs.
//!
//! A [`Relabeling`] is a pure permutation: [`Relabeling::apply`]
//! rebuilds the CSR under the new ids, and the inverse maps translate
//! kernel outputs (core numbers, cover sets, per-source distances) back
//! to the original ids. Distance *statistics* (diameter, APL, reachable
//! pairs) are label-invariant, and since the MS-BFS accumulators are
//! integers the relabeled sweep reproduces them bit-for-bit — the
//! proptest suite pins this down against the unrelabeled scalar oracle.
//!
//! `hgserve` applies a relabeling at dataset load behind the
//! `--relabel` CLI flag, translating ids at the response boundary;
//! `hg bench --kernels` does the same by default (`--no-relabel` to
//! opt out) so the published kernel numbers include the layout win.
//! The MS-BFS sweep takes its sources in traversal order whatever the
//! labels, so what relabeling adds is the lane layout alone: 1.03× at
//! width 2 and 1.06× at width 1 on the hypergen-u6000 sweep, none
//! measurable on cellzome, and 1.16× on hypergen-u20000 at width 2
//! (EXPERIMENTS A20; with file-order sources it was 1.2× on u6000 and
//! 1.15× on cellzome, A17).

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::HypergraphBuilder;

/// A vertex/hyperedge renumbering: forward and inverse permutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeling {
    /// `vertex_to_new[old] = new`.
    vertex_to_new: Vec<u32>,
    /// `vertex_to_old[new] = old`.
    vertex_to_old: Vec<u32>,
    /// `edge_to_old[new] = old`.
    edge_to_old: Vec<u32>,
}

impl Relabeling {
    /// The identity relabeling for `h` (useful as a fallback).
    pub fn identity(h: &Hypergraph) -> Self {
        Relabeling {
            vertex_to_new: (0..h.num_vertices() as u32).collect(),
            vertex_to_old: (0..h.num_vertices() as u32).collect(),
            edge_to_old: (0..h.num_edges() as u32).collect(),
        }
    }

    /// BFS discovery order: start a traversal at the highest-degree
    /// vertex of each component, numbering vertices as they are first
    /// reached and hyperedges as they are first entered. Pins that are
    /// discovered together end up with adjacent ids, which is exactly
    /// the access pattern of the MS-BFS expansion and the k-core peel.
    /// Isolated vertices are appended at the end in old-id order.
    pub fn bfs_order(h: &Hypergraph) -> Self {
        let csr = h.csr();
        let (n, m) = (csr.num_vertices(), csr.num_edges());
        let mut vertex_to_new = vec![u32::MAX; n];
        let mut vertex_to_old = Vec::with_capacity(n);
        let mut edge_seen = vec![false; m];
        let mut edge_to_old = Vec::with_capacity(m);

        // Component seeds, highest degree first (ties: lower old id).
        let mut seeds: Vec<u32> = (0..n as u32).collect();
        seeds.sort_by_key(|&v| (std::cmp::Reverse(csr.vertex_degree(v as usize)), v));

        let mut queue = std::collections::VecDeque::new();
        for s in seeds {
            if vertex_to_new[s as usize] != u32::MAX || csr.vertex_degree(s as usize) == 0 {
                continue;
            }
            vertex_to_new[s as usize] = vertex_to_old.len() as u32;
            vertex_to_old.push(s);
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for &f in csr.edges_of(v as usize) {
                    if edge_seen[f.index()] {
                        continue;
                    }
                    edge_seen[f.index()] = true;
                    edge_to_old.push(f.index() as u32);
                    for &w in csr.pins(f.index()) {
                        if vertex_to_new[w.index()] == u32::MAX {
                            vertex_to_new[w.index()] = vertex_to_old.len() as u32;
                            vertex_to_old.push(w.index() as u32);
                            queue.push_back(w.index() as u32);
                        }
                    }
                }
            }
        }
        // Isolated vertices and (degenerate) empty hyperedges keep
        // their relative order at the tail.
        for v in 0..n as u32 {
            if vertex_to_new[v as usize] == u32::MAX {
                vertex_to_new[v as usize] = vertex_to_old.len() as u32;
                vertex_to_old.push(v);
            }
        }
        for f in 0..m as u32 {
            if !edge_seen[f as usize] {
                edge_to_old.push(f);
            }
        }
        Relabeling {
            vertex_to_new,
            vertex_to_old,
            edge_to_old,
        }
    }

    /// Descending-degree order (ties: lower old id), hyperedge order
    /// untouched. Cheaper to compute than [`Relabeling::bfs_order`] and
    /// still clusters the hubs most probes land on.
    pub fn degree_order(h: &Hypergraph) -> Self {
        let csr = h.csr();
        let mut vertex_to_old: Vec<u32> = (0..h.num_vertices() as u32).collect();
        vertex_to_old.sort_by_key(|&v| (std::cmp::Reverse(csr.vertex_degree(v as usize)), v));
        let mut vertex_to_new = vec![0u32; h.num_vertices()];
        for (new, &old) in vertex_to_old.iter().enumerate() {
            vertex_to_new[old as usize] = new as u32;
        }
        Relabeling {
            vertex_to_new,
            vertex_to_old,
            edge_to_old: (0..h.num_edges() as u32).collect(),
        }
    }

    /// Rebuild `h`'s CSR under this relabeling. The result is the same
    /// hypergraph up to renaming: every distance statistic, degree
    /// histogram, core profile, … is preserved (per-vertex outputs come
    /// back under new ids — translate with [`Relabeling::original_vertex`]).
    pub fn apply(&self, h: &Hypergraph) -> Hypergraph {
        let csr = h.csr();
        let mut b = HypergraphBuilder::new(h.num_vertices());
        b.reserve_pins(h.num_pins());
        for &old_f in &self.edge_to_old {
            b.add_edge(
                csr.pins(old_f as usize)
                    .iter()
                    .map(|&w| self.vertex_to_new[w.index()]),
            );
        }
        b.build()
    }

    /// The raw permutation arrays `(vertex_to_new, vertex_to_old,
    /// edge_to_old)` — for the `.hgb` serializer.
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.vertex_to_new, &self.vertex_to_old, &self.edge_to_old)
    }

    /// Reassemble from raw permutation arrays (the `.hgb` reader
    /// validates bounds and mutual inverses before calling this).
    pub(crate) fn from_parts(
        vertex_to_new: Vec<u32>,
        vertex_to_old: Vec<u32>,
        edge_to_old: Vec<u32>,
    ) -> Self {
        Relabeling {
            vertex_to_new,
            vertex_to_old,
            edge_to_old,
        }
    }

    /// The old id of relabeled vertex `v`.
    #[inline]
    pub fn original_vertex(&self, v: VertexId) -> VertexId {
        VertexId(self.vertex_to_old[v.index()])
    }

    /// The new id of original vertex `v`.
    #[inline]
    pub fn new_vertex(&self, v: VertexId) -> VertexId {
        VertexId(self.vertex_to_new[v.index()])
    }

    /// The old id of relabeled hyperedge `f`.
    #[inline]
    pub fn original_edge(&self, f: EdgeId) -> EdgeId {
        EdgeId(self.edge_to_old[f.index()])
    }

    /// Translate a per-new-vertex array (core numbers, distances, …)
    /// back into old-id indexing.
    pub fn unmap_vertex_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.vertex_to_old.len());
        let mut out = Vec::with_capacity(values.len());
        for old in 0..values.len() {
            out.push(values[self.vertex_to_new[old] as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msbfs::hyper_distance_stats;
    use crate::path::scalar_hyper_distance_stats;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(9);
        b.add_edge([3, 7]);
        b.add_edge([7, 1, 5]);
        b.add_edge([1, 5]);
        b.add_edge([0, 2]); // second component
                            // vertices 4, 6, 8 isolated
        b.build()
    }

    fn is_permutation(p: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.len() == n
            && p.iter().all(|&x| {
                let ok = (x as usize) < n && !seen[x as usize];
                if ok {
                    seen[x as usize] = true;
                }
                ok
            })
    }

    #[test]
    fn bfs_order_is_a_permutation_with_consistent_inverse() {
        let h = sample();
        let r = Relabeling::bfs_order(&h);
        assert!(is_permutation(&r.vertex_to_new, 9));
        assert!(is_permutation(&r.vertex_to_old, 9));
        assert!(is_permutation(&r.edge_to_old, 4));
        for v in h.vertices() {
            assert_eq!(r.original_vertex(r.new_vertex(v)), v);
        }
    }

    #[test]
    fn bfs_order_starts_at_the_max_degree_vertex() {
        let h = sample();
        let r = Relabeling::bfs_order(&h);
        // Vertices 7, 1 and 5 have degree 2; 7 wins the seed by ties
        // going to... degree 2 each, lowest id 1. Vertex 1 is new id 0.
        assert_eq!(r.new_vertex(VertexId(1)), VertexId(0));
    }

    #[test]
    fn isolated_vertices_go_last() {
        let h = sample();
        let r = Relabeling::bfs_order(&h);
        for iso in [4u32, 6, 8] {
            assert!(r.new_vertex(VertexId(iso)).index() >= 6, "{iso}");
        }
    }

    #[test]
    fn apply_preserves_shape_and_distance_stats() {
        let h = sample();
        for r in [
            Relabeling::bfs_order(&h),
            Relabeling::degree_order(&h),
            Relabeling::identity(&h),
        ] {
            let g = r.apply(&h);
            assert_eq!(g.num_vertices(), h.num_vertices());
            assert_eq!(g.num_edges(), h.num_edges());
            assert_eq!(g.num_pins(), h.num_pins());
            // Label-invariant statistics are preserved bit-for-bit.
            assert_eq!(
                scalar_hyper_distance_stats(&g),
                scalar_hyper_distance_stats(&h)
            );
            assert_eq!(hyper_distance_stats(&g), hyper_distance_stats(&h));
            // Per-edge sizes survive as a multiset.
            let mut a: Vec<usize> = h.edges().map(|f| h.pins(f).len()).collect();
            let mut b: Vec<usize> = g.edges().map(|f| g.pins(f).len()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn unmap_vertex_values_round_trips() {
        let h = sample();
        let r = Relabeling::bfs_order(&h);
        let g = r.apply(&h);
        // Degree of each relabeled vertex, mapped back, must equal the
        // original per-vertex degrees.
        let new_degrees: Vec<usize> = g.vertices().map(|v| g.vertex_degree(v)).collect();
        let unmapped = r.unmap_vertex_values(&new_degrees);
        let original: Vec<usize> = h.vertices().map(|v| h.vertex_degree(v)).collect();
        assert_eq!(unmapped, original);
    }

    #[test]
    fn identity_apply_is_identical() {
        let h = sample();
        let r = Relabeling::identity(&h);
        let g = r.apply(&h);
        for f in h.edges() {
            assert_eq!(h.pins(f), g.pins(f));
        }
    }
}
