//! Frozen CSR representation of a hypergraph.

use std::fmt;
use std::sync::Arc;

use crate::probe_kcore::MemoSlot;
use crate::storage::{Storage, StorageKind};

/// Identifier of a vertex (a protein in the paper's application), a dense
/// index in `0..num_vertices`.
///
/// `repr(transparent)` over `u32`: id slices can be served directly out
/// of a memory-mapped `.hgb` section without copying.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct VertexId(pub u32);

/// Identifier of a hyperedge (a protein complex), a dense index in
/// `0..num_edges`. `repr(transparent)` over `u32` like [`VertexId`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct EdgeId(pub u32);

impl VertexId {
    /// The vertex index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hypergraph `H = (V, F)` in frozen dual-CSR form.
///
/// Two compressed-sparse-row structures are kept in sync:
///
/// * **pin lists**: for each hyperedge `f`, the sorted vertex set `pins(f)`;
/// * **adjacency lists**: for each vertex `v`, the sorted set `edges_of(v)`
///   of hyperedges containing it.
///
/// In the paper's notation, `|E|` — the total number of (vertex, hyperedge)
/// incidences, i.e. the space needed to represent the hypergraph — is
/// [`Hypergraph::num_pins`].
///
/// Within a hyperedge each vertex appears at most once (the builder
/// deduplicates); identical hyperedges are allowed (the *reduced*
/// hypergraph computation in [`crate::reduce()`] removes them).
/// The CSR arrays live behind a `Storage`: owned `Vec`s for anything
/// built in-process, or slices into a read-only memory-mapped `.hgb`
/// file ([`crate::hgb::open_hgb`]). [`Hypergraph::storage_kind`]
/// reports which backing is active. Kernels never see the difference:
/// each resolves the backing once per call into the crate's CSR view
/// (`Csr`, four plain slices) and reads pins, incidences and degrees
/// through it. The accessors below delegate to the same view, one
/// resolution per call.
///
/// Beside the CSR, a hypergraph keeps what the probe k-core learns of
/// it alone: its hyperedges' pin signatures, which of them share at
/// most one pin with any other, and which of them lie in another
/// ([`mod@crate::probe_kcore`]). That memo is built whole by the first
/// k-core on the hypergraph, continued by the next one if a deadline
/// cut the build, and shared by its clones. Neither
/// [`Hypergraph::storage_bytes`] nor [`Hypergraph::resident_bytes`]
/// counts it; [`Hypergraph::probe_memo_bytes`] does.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    storage: Storage,
    probe_memo: Arc<MemoSlot>,
}

impl Hypergraph {
    /// Assemble from pre-validated CSR parts (crate-internal; use
    /// [`crate::HypergraphBuilder`]).
    pub(crate) fn from_parts(
        edge_offsets: Vec<u32>,
        pin_list: Vec<VertexId>,
        vertex_offsets: Vec<u32>,
        adj_list: Vec<EdgeId>,
    ) -> Self {
        debug_assert_eq!(pin_list.len(), adj_list.len());
        Hypergraph::from_storage(Storage::Owned {
            edge_offsets,
            pin_list,
            vertex_offsets,
            adj_list,
        })
    }

    /// Wrap an already-validated storage backing (crate-internal; used
    /// by the `.hgb` reader for the mmap path).
    pub(crate) fn from_storage(storage: Storage) -> Self {
        Hypergraph {
            storage,
            probe_memo: Arc::default(),
        }
    }

    /// The CSR view: the backing resolved once, for a kernel to read
    /// for the rest of its call.
    #[inline]
    pub(crate) fn csr(&self) -> Csr<'_> {
        self.storage.csr()
    }

    /// The probe k-core's memo: empty until a k-core builds it.
    pub(crate) fn probe_memo(&self) -> &MemoSlot {
        &self.probe_memo
    }

    /// Which backing the CSR lives in: [`StorageKind::Owned`] heap
    /// `Vec`s or a [`StorageKind::Mapped`] read-only `.hgb` mmap.
    pub fn storage_kind(&self) -> StorageKind {
        self.storage.kind()
    }

    /// Heap bytes of the probe k-core's memo: 0 until a k-core on this
    /// hypergraph or a clone builds it.
    pub fn probe_memo_bytes(&self) -> usize {
        self.probe_memo.bytes()
    }

    /// Process-resident bytes attributable to this hypergraph: heap
    /// bytes when owned; the mapped file length when mmap'd (an upper
    /// bound — pages fault in lazily and can be evicted by the OS).
    pub fn resident_bytes(&self) -> usize {
        self.storage.resident_bytes()
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr().num_vertices()
    }

    /// Number of hyperedges `|F|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.csr().num_edges()
    }

    /// Total number of incidences `|E| = Σ_v d(v) = Σ_f d(f)` — the
    /// paper's measure of the space needed to represent `H`.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.csr().pin_list.len()
    }

    /// `true` if the hypergraph has no vertices and no hyperedges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0 && self.num_edges() == 0
    }

    /// Sorted member vertices of hyperedge `f`.
    #[inline]
    pub fn pins(&self, f: EdgeId) -> &[VertexId] {
        self.csr().pins(f.index())
    }

    /// Sorted hyperedges containing vertex `v`.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> &[EdgeId] {
        self.csr().edges_of(v.index())
    }

    /// Degree of vertex `v`: the number of hyperedges it belongs to.
    #[inline]
    pub fn vertex_degree(&self, v: VertexId) -> usize {
        self.csr().vertex_degree(v.index()) as usize
    }

    /// Degree (cardinality) of hyperedge `f`: the number of vertices in it.
    #[inline]
    pub fn edge_degree(&self, f: EdgeId) -> usize {
        self.csr().edge_degree(f.index()) as usize
    }

    /// `true` iff vertex `v` belongs to hyperedge `f` (binary search).
    pub fn contains(&self, f: EdgeId, v: VertexId) -> bool {
        self.pins(f).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over all hyperedge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Maximum vertex degree `Δ_V` (0 if there are no vertices).
    pub fn max_vertex_degree(&self) -> usize {
        self.csr().vertex_degrees().max().unwrap_or(0) as usize
    }

    /// Maximum hyperedge degree `Δ_F` (0 if there are no hyperedges).
    pub fn max_edge_degree(&self) -> usize {
        self.csr().edge_degrees().max().unwrap_or(0) as usize
    }

    /// A vertex of maximum degree, if any vertex exists.
    pub fn argmax_vertex_degree(&self) -> Option<VertexId> {
        let csr = self.csr();
        self.vertices()
            .max_by_key(|&v| (csr.vertex_degree(v.index()), std::cmp::Reverse(v.0)))
    }

    /// Bytes of heap storage used by the four CSR arrays — the paper's
    /// "space proportional to the sum of the numbers of proteins" claim,
    /// made concrete. Counting both directions of the dual CSR.
    pub fn storage_bytes(&self) -> usize {
        let csr = self.csr();
        std::mem::size_of_val(csr.edge_offsets)
            + std::mem::size_of_val(csr.pin_list)
            + std::mem::size_of_val(csr.vertex_offsets)
            + std::mem::size_of_val(csr.adj_list)
    }

    /// Extract the sub-hypergraph induced by keep-flags over vertices and
    /// edges: each kept hyperedge is restricted to its kept vertices.
    ///
    /// Returns the sub-hypergraph plus the original ids of its vertices and
    /// edges (`vertex_map[i]` = original id of new vertex `i`, similarly
    /// `edge_map`). Kept hyperedges that become empty are preserved as
    /// empty hyperedges only if `keep_empty` is true; otherwise dropped.
    pub fn sub_hypergraph(
        &self,
        keep_vertex: &[bool],
        keep_edge: &[bool],
        keep_empty: bool,
    ) -> (Hypergraph, Vec<VertexId>, Vec<EdgeId>) {
        assert_eq!(keep_vertex.len(), self.num_vertices());
        assert_eq!(keep_edge.len(), self.num_edges());

        let mut vertex_map = Vec::new();
        let mut new_vid = vec![u32::MAX; self.num_vertices()];
        for v in self.vertices() {
            if keep_vertex[v.index()] {
                new_vid[v.index()] = vertex_map.len() as u32;
                vertex_map.push(v);
            }
        }

        let csr = self.csr();
        let mut builder = crate::HypergraphBuilder::new(vertex_map.len());
        let mut edge_map = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for f in self.edges() {
            if !keep_edge[f.index()] {
                continue;
            }
            scratch.clear();
            scratch.extend(
                csr.pins(f.index())
                    .iter()
                    .filter(|v| keep_vertex[v.index()])
                    .map(|v| new_vid[v.index()]),
            );
            if scratch.is_empty() && !keep_empty {
                continue;
            }
            builder.add_edge(scratch.iter().copied());
            edge_map.push(f);
        }
        (builder.build(), vertex_map, edge_map)
    }
}

/// The four CSR arrays of one hypergraph, resolved from its backing
/// once ([`Hypergraph::csr`]): the one way kernels read pins,
/// incidences and degrees. It is `Copy`, so a kernel takes it at the
/// top of a call and hands it to its helpers; after that an owned and a
/// mapped hypergraph cost a loop the same plain slice reads, with no
/// storage match or section lookup per probe.
///
/// Indices are plain `usize` ids below [`Csr::num_edges`] (for `f`) or
/// [`Csr::num_vertices`] (for `v`). Every read goes through a checked
/// slice of the list, so offsets that disagree with it (an unverified
/// `.hgb`) panic instead of yielding a degree larger than the list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Csr<'a> {
    /// Offsets into `pin_list`, `num_edges + 1` of them.
    pub edge_offsets: &'a [u32],
    /// Concatenated sorted pin lists of all hyperedges.
    pub pin_list: &'a [VertexId],
    /// Offsets into `adj_list`, `num_vertices + 1` of them.
    pub vertex_offsets: &'a [u32],
    /// Concatenated sorted incident-hyperedge lists of all vertices.
    pub adj_list: &'a [EdgeId],
}

impl<'a> Csr<'a> {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(self) -> usize {
        self.vertex_offsets.len() - 1
    }

    /// Number of hyperedges `|F|`.
    #[inline]
    pub fn num_edges(self) -> usize {
        self.edge_offsets.len() - 1
    }

    /// Sorted member vertices of hyperedge `f`.
    #[inline]
    pub fn pins(self, f: usize) -> &'a [VertexId] {
        &self.pin_list[self.edge_offsets[f] as usize..self.edge_offsets[f + 1] as usize]
    }

    /// Sorted hyperedges containing vertex `v`.
    #[inline]
    pub fn edges_of(self, v: usize) -> &'a [EdgeId] {
        &self.adj_list[self.vertex_offsets[v] as usize..self.vertex_offsets[v + 1] as usize]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn vertex_degree(self, v: usize) -> u32 {
        self.edges_of(v).len() as u32
    }

    /// Degree (cardinality) of hyperedge `f`.
    #[inline]
    pub fn edge_degree(self, f: usize) -> u32 {
        self.pins(f).len() as u32
    }

    /// Every vertex degree, in id order: the widths of the adjacency
    /// offset windows.
    pub fn vertex_degrees(self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        (0..self.num_vertices()).map(move |v| self.vertex_degree(v))
    }

    /// Every hyperedge degree, in id order: the widths of the pin
    /// offset windows.
    pub fn edge_degrees(self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        (0..self.num_edges()).map(move |f| self.edge_degree(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        // e0 = {0,1,2}, e1 = {1,2,3}, e2 = {4}
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([4]);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let h = toy();
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.num_pins(), 7);
        assert!(!h.is_empty());
    }

    #[test]
    fn degrees() {
        let h = toy();
        assert_eq!(h.vertex_degree(VertexId(1)), 2);
        assert_eq!(h.vertex_degree(VertexId(0)), 1);
        assert_eq!(h.edge_degree(EdgeId(0)), 3);
        assert_eq!(h.edge_degree(EdgeId(2)), 1);
        assert_eq!(h.max_vertex_degree(), 2);
        assert_eq!(h.max_edge_degree(), 3);
    }

    #[test]
    fn pins_and_adjacency_sorted_and_consistent() {
        let h = toy();
        assert_eq!(h.pins(EdgeId(1)), &[VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(h.edges_of(VertexId(2)), &[EdgeId(0), EdgeId(1)]);
        for f in h.edges() {
            for &v in h.pins(f) {
                assert!(h.edges_of(v).contains(&f));
            }
        }
        for v in h.vertices() {
            for &f in h.edges_of(v) {
                assert!(h.contains(f, v));
            }
        }
    }

    #[test]
    fn contains_checks() {
        let h = toy();
        assert!(h.contains(EdgeId(0), VertexId(2)));
        assert!(!h.contains(EdgeId(0), VertexId(3)));
    }

    #[test]
    fn argmax_vertex_degree_prefers_lowest_id_on_tie() {
        let h = toy();
        // vertices 1 and 2 both have degree 2; tie broken to lowest id.
        assert_eq!(h.argmax_vertex_degree(), Some(VertexId(1)));
    }

    #[test]
    fn empty_hypergraph() {
        let h = HypergraphBuilder::new(0).build();
        assert!(h.is_empty());
        assert_eq!(h.max_vertex_degree(), 0);
        assert_eq!(h.max_edge_degree(), 0);
        assert_eq!(h.argmax_vertex_degree(), None);
    }

    #[test]
    fn sub_hypergraph_restricts() {
        let h = toy();
        // Keep vertices {1,2,3} and edges {e0,e1}: e0 -> {1,2}, e1 -> {1,2,3}.
        let keep_v = [false, true, true, true, false];
        let keep_e = [true, true, false];
        let (sub, vmap, emap) = h.sub_hypergraph(&keep_v, &keep_e, false);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(vmap, vec![VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(emap, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(sub.edge_degree(EdgeId(0)), 2);
        assert_eq!(sub.edge_degree(EdgeId(1)), 3);
    }

    #[test]
    fn sub_hypergraph_drops_or_keeps_empty_edges() {
        let h = toy();
        let keep_v = [true, true, true, true, false]; // drop vertex 4
        let keep_e = [true, true, true];
        let (sub, _, emap) = h.sub_hypergraph(&keep_v, &keep_e, false);
        assert_eq!(sub.num_edges(), 2); // e2 became empty and was dropped
        assert_eq!(emap, vec![EdgeId(0), EdgeId(1)]);

        let (sub, _, emap) = h.sub_hypergraph(&keep_v, &keep_e, true);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.edge_degree(EdgeId(2)), 0);
        assert_eq!(emap.len(), 3);
    }

    #[test]
    fn storage_is_linear_in_pins() {
        let h = toy();
        // (4 + 6) offsets * 4 bytes + 7 pins * 4 + 7 adj * 4
        assert_eq!(h.storage_bytes(), 10 * 4 + 7 * 4 + 7 * 4);
    }
}
