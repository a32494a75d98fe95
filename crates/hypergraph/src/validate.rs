//! Structural invariant checks, used by tests and debug assertions.

use crate::hypergraph::{Hypergraph, VertexId};

/// A violated structural invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureError(pub String);

impl std::fmt::Display for StructureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hypergraph structure violation: {}", self.0)
    }
}

impl std::error::Error for StructureError {}

/// Verify the dual-CSR invariants of a [`Hypergraph`]:
///
/// * both offset arrays start at 0, never decrease, and end at the
///   length of the list they index (checked first: every later check
///   slices through them);
/// * pin lists sorted, duplicate-free, in vertex range;
/// * adjacency lists sorted, duplicate-free, in edge range;
/// * the two directions describe the same incidence relation;
/// * `num_pins` consistent with both directions.
pub fn check_structure(h: &Hypergraph) -> Result<(), StructureError> {
    let (edge_offsets, pin_list, vertex_offsets, adj_list) = h.csr_slices();
    check_offsets("edge", edge_offsets, pin_list.len())?;
    check_offsets("vertex", vertex_offsets, adj_list.len())?;
    let n = h.num_vertices();

    let mut pin_total = 0usize;
    for f in h.edges() {
        let pins = h.pins(f);
        pin_total += pins.len();
        if !pins.windows(2).all(|w| w[0] < w[1]) {
            return Err(StructureError(format!(
                "pins of {f:?} unsorted or duplicated"
            )));
        }
        if let Some(v) = pins.iter().find(|v| v.index() >= n) {
            return Err(StructureError(format!("pin {v:?} of {f:?} out of range")));
        }
        for &v in pins {
            if !h.edges_of(v).contains(&f) {
                return Err(StructureError(format!(
                    "incidence ({v:?}, {f:?}) missing from adjacency side"
                )));
            }
        }
    }
    if pin_total != h.num_pins() {
        return Err(StructureError(format!(
            "pin count mismatch: edges sum to {pin_total}, num_pins() = {}",
            h.num_pins()
        )));
    }

    let mut adj_total = 0usize;
    for v in h.vertices() {
        let adj = h.edges_of(v);
        adj_total += adj.len();
        if !adj.windows(2).all(|w| w[0] < w[1]) {
            return Err(StructureError(format!(
                "adjacency of {v:?} unsorted or duplicated"
            )));
        }
        for &f in adj {
            if f.index() >= h.num_edges() {
                return Err(StructureError(format!("edge {f:?} of {v:?} out of range")));
            }
            if !h.contains(f, v) {
                return Err(StructureError(format!(
                    "incidence ({v:?}, {f:?}) missing from pin side"
                )));
            }
        }
    }
    if adj_total != h.num_pins() {
        return Err(StructureError(format!(
            "adjacency count mismatch: vertices sum to {adj_total}, num_pins() = {}",
            h.num_pins()
        )));
    }
    Ok(())
}

/// One CSR offset array: starts at 0, non-decreasing, ends at `len`.
fn check_offsets(side: &str, offsets: &[u32], len: usize) -> Result<(), StructureError> {
    if offsets.first() != Some(&0) {
        return Err(StructureError(format!("{side} offsets do not start at 0")));
    }
    if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(StructureError(format!(
            "{side} offsets decrease at entry {}: {} > {}",
            i + 1,
            offsets[i],
            offsets[i + 1]
        )));
    }
    if offsets.last().map(|&o| o as usize) != Some(len) {
        return Err(StructureError(format!(
            "{side} offsets end at {:?}, not at the list length {len}",
            offsets.last()
        )));
    }
    Ok(())
}

/// Verify the k-core invariant on a standalone core hypergraph: every
/// vertex has degree ≥ k and the hypergraph is reduced.
pub fn check_kcore_invariant(core: &Hypergraph, k: u32) -> Result<(), StructureError> {
    check_structure(core)?;
    if let Some(v) = core
        .vertices()
        .find(|&v| (core.vertex_degree(v) as u32) < k)
    {
        return Err(StructureError(format!(
            "vertex {v:?} has degree {} < k = {k} in claimed k-core",
            core.vertex_degree(VertexId(v.0))
        )));
    }
    let dead = crate::reduce::non_maximal_edges(core);
    if !dead.is_empty() {
        return Err(StructureError(format!(
            "claimed k-core is not reduced: non-maximal edges {dead:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    #[test]
    fn valid_hypergraph_passes() {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        check_structure(&b.build()).unwrap();
    }

    #[test]
    fn empty_passes() {
        check_structure(&HypergraphBuilder::new(0).build()).unwrap();
    }

    #[test]
    fn kcore_invariant_detects_low_degree() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        let h = b.build();
        assert!(check_kcore_invariant(&h, 1).is_ok());
        assert!(check_kcore_invariant(&h, 2).is_err());
    }

    #[test]
    fn kcore_invariant_detects_unreduced() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 1]);
        b.add_edge([0, 2]);
        b.add_edge([1, 2]);
        let h = b.build();
        // every vertex has degree >= 1 but containment exists
        assert!(check_kcore_invariant(&h, 1).is_err());
    }
}
