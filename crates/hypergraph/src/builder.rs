//! Accumulates hyperedges and freezes them into a dual-CSR [`Hypergraph`].

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Builder for a [`Hypergraph`].
///
/// Hyperedges are added as iterables of raw `u32` vertex ids; within each
/// hyperedge duplicates are merged and the pin list is sorted. Identical
/// hyperedges are *kept* (deduplicating containment is the job of the
/// reduced-hypergraph computation, [`crate::reduce()`]). Empty hyperedges are
/// allowed.
#[derive(Clone, Debug, Default)]
pub struct HypergraphBuilder {
    num_vertices: usize,
    /// Flattened pins plus per-edge offsets.
    pins: Vec<u32>,
    offsets: Vec<u32>,
}

impl HypergraphBuilder {
    /// Builder over the vertex set `0..num_vertices`.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "vertex count exceeds u32"
        );
        HypergraphBuilder {
            num_vertices,
            pins: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Number of vertices the built hypergraph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of hyperedges added so far.
    pub fn num_edges(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Grow the vertex-id space to at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32");
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Pre-reserve capacity for `additional_pins` more incidences.
    pub fn reserve_pins(&mut self, additional_pins: usize) {
        self.pins.reserve(additional_pins);
    }

    /// Add one hyperedge; returns its id. Duplicate vertices within the
    /// edge are merged; the pin list is stored sorted.
    ///
    /// # Panics
    /// If any vertex id is out of range.
    pub fn add_edge(&mut self, vertices: impl IntoIterator<Item = u32>) -> EdgeId {
        let start = self.pins.len();
        for v in vertices {
            assert!(
                (v as usize) < self.num_vertices,
                "vertex {v} out of range for {} vertices",
                self.num_vertices
            );
            self.pins.push(v);
        }
        self.pins[start..].sort_unstable();
        // In-place dedup of the new tail.
        let mut write = start;
        for read in start..self.pins.len() {
            if read == start || self.pins[read] != self.pins[write - 1] {
                self.pins[write] = self.pins[read];
                write += 1;
            }
        }
        self.pins.truncate(write);
        assert!(
            self.pins.len() <= u32::MAX as usize,
            "pin count exceeds u32"
        );
        self.offsets.push(self.pins.len() as u32);
        EdgeId(self.offsets.len() as u32 - 2)
    }

    /// Add a hyperedge given [`VertexId`]s.
    pub fn add_edge_ids(&mut self, vertices: impl IntoIterator<Item = VertexId>) -> EdgeId {
        self.add_edge(vertices.into_iter().map(|v| v.0))
    }

    /// Freeze into a [`Hypergraph`], constructing the vertex-side CSR.
    pub fn build(self) -> Hypergraph {
        build_from_edge_csr(self.num_vertices, self.offsets, self.pins)
    }
}

/// Freeze an already-assembled edge-side CSR (per-edge `offsets` into a
/// flat sorted-and-deduplicated `pins` array) into a [`Hypergraph`],
/// constructing the vertex-side CSR by counting sort. Shared by
/// [`HypergraphBuilder::build`], the `.hgr` text reader, and the `.hgb`
/// stream writer — none of which want a second copy of the pin data.
pub(crate) fn build_from_edge_csr(
    num_vertices: usize,
    offsets: Vec<u32>,
    pins: Vec<u32>,
) -> Hypergraph {
    let n = num_vertices;
    let m = offsets.len() - 1;

    // Count vertex degrees.
    let mut vdeg = vec![0u32; n];
    for &v in &pins {
        vdeg[v as usize] += 1;
    }
    let mut vertex_offsets = Vec::with_capacity(n + 1);
    vertex_offsets.push(0u32);
    let mut acc = 0u32;
    for &d in &vdeg {
        acc += d;
        vertex_offsets.push(acc);
    }

    // Scatter edge ids into vertex adjacency lists. Edges are scanned
    // in increasing id order, so each vertex's list comes out sorted.
    let mut cursor: Vec<u32> = vertex_offsets[..n].to_vec();
    let mut adj_list = vec![EdgeId(0); pins.len()];
    for e in 0..m {
        let lo = offsets[e] as usize;
        let hi = offsets[e + 1] as usize;
        for &v in &pins[lo..hi] {
            adj_list[cursor[v as usize] as usize] = EdgeId(e as u32);
            cursor[v as usize] += 1;
        }
    }

    let pin_list: Vec<VertexId> = pins.into_iter().map(VertexId).collect();
    Hypergraph::from_parts(offsets, pin_list, vertex_offsets, adj_list)
}

/// Convenience: build a hypergraph directly from slices of vertex ids.
pub fn hypergraph_from_edges(num_vertices: usize, edges: &[&[u32]]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(num_vertices);
    for e in edges {
        b.add_edge(e.iter().copied());
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_within_edge() {
        let mut b = HypergraphBuilder::new(3);
        let e = b.add_edge([2, 0, 2, 1, 0]);
        let h = b.build();
        assert_eq!(h.pins(e), &[VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(h.num_pins(), 3);
    }

    #[test]
    fn keeps_identical_edges() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.vertex_degree(VertexId(0)), 2);
    }

    #[test]
    fn allows_empty_edges() {
        let mut b = HypergraphBuilder::new(1);
        let e = b.add_edge([]);
        let h = b.build();
        assert_eq!(h.edge_degree(e), 0);
        assert_eq!(h.num_pins(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_vertex() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 2]);
    }

    #[test]
    fn edge_ids_are_sequential() {
        let mut b = HypergraphBuilder::new(3);
        assert_eq!(b.add_edge([0]), EdgeId(0));
        assert_eq!(b.add_edge([1]), EdgeId(1));
        assert_eq!(b.add_edge([2]), EdgeId(2));
        assert_eq!(b.num_edges(), 3);
    }

    #[test]
    fn adjacency_lists_sorted_by_edge_id() {
        let h = hypergraph_from_edges(2, &[&[0, 1], &[0], &[0, 1]]);
        assert_eq!(h.edges_of(VertexId(0)), &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(h.edges_of(VertexId(1)), &[EdgeId(0), EdgeId(2)]);
    }

    #[test]
    fn add_edge_ids_matches_add_edge() {
        let mut b1 = HypergraphBuilder::new(4);
        b1.add_edge([3, 1]);
        let mut b2 = HypergraphBuilder::new(4);
        b2.add_edge_ids([VertexId(3), VertexId(1)]);
        assert_eq!(b1.build().pins(EdgeId(0)), b2.build().pins(EdgeId(0)));
    }
}
