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
        sort_dedup_tail(&mut self.pins, start);
        assert!(
            self.pins.len() <= u32::MAX as usize,
            "pin count exceeds u32"
        );
        self.offsets.push(self.pins.len() as u32);
        EdgeId(self.offsets.len() as u32 - 2)
    }

    /// Freeze into a [`Hypergraph`], constructing the vertex-side CSR.
    pub fn build(self) -> Hypergraph {
        build_from_edge_csr(self.num_vertices, self.offsets, self.pins)
    }
}

/// Sort `pins[start..]`, one hyperedge's ids, and drop its repeats in
/// place: how every hyperedge is closed before it enters a CSR
/// ([`HypergraphBuilder::add_edge`] and the `.hgr` reader's line end).
pub(crate) fn sort_dedup_tail(pins: &mut Vec<u32>, start: usize) {
    pins[start..].sort_unstable();
    let mut write = start;
    for read in start..pins.len() {
        if write == start || pins[read] != pins[write - 1] {
            pins[write] = pins[read];
            write += 1;
        }
    }
    pins.truncate(write);
}

/// Freeze an already-assembled edge-side CSR (per-edge `offsets` into a
/// flat sorted-and-deduplicated `pins` array) into a [`Hypergraph`],
/// constructing the vertex-side CSR by counting sort. Called by
/// [`HypergraphBuilder::build`] and by the `.hgr` text reader, which
/// fills the same two arrays without a builder.
///
/// `vertex_offsets` is the only per-vertex array: `v`'s degree is counted
/// at slot `v + 2`, the prefix sum moves `v`'s start to slot `v + 1`, and
/// the scatter, with that slot as `v`'s cursor, leaves `v + 1`'s start
/// there. Slots `0..=n` are then the offsets.
pub(crate) fn build_from_edge_csr(
    num_vertices: usize,
    offsets: Vec<u32>,
    pins: Vec<u32>,
) -> Hypergraph {
    let n = num_vertices;
    let mut vertex_offsets = vec![0u32; n + 2];
    for &v in &pins {
        vertex_offsets[v as usize + 2] += 1;
    }
    let mut acc = 0u32;
    for slot in &mut vertex_offsets[2..] {
        acc += *slot;
        *slot = acc;
    }

    // Edges are scanned in increasing id order, so each vertex's list
    // comes out sorted.
    let mut adj_list = vec![EdgeId(0); pins.len()];
    for (e, range) in offsets.windows(2).enumerate() {
        for &v in &pins[range[0] as usize..range[1] as usize] {
            let cursor = &mut vertex_offsets[v as usize + 1];
            adj_list[*cursor as usize] = EdgeId(e as u32);
            *cursor += 1;
        }
    }
    vertex_offsets.truncate(n + 1);

    let pin_list: Vec<VertexId> = pins.into_iter().map(VertexId).collect();
    Hypergraph::from_parts(offsets, pin_list, vertex_offsets, adj_list)
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
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0]);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(h.edges_of(VertexId(0)), &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(h.edges_of(VertexId(1)), &[EdgeId(0), EdgeId(2)]);
    }
}
