//! Greedy minimum-weight vertex cover of a hypergraph (paper §4, Fig. 5).
//!
//! Given non-negative vertex weights, find a subset `C ⊆ V` touching every
//! hyperedge, of (approximately) minimum total weight. The greedy rule is
//! Johnson–Chvátal–Lovász: repeatedly pick the vertex minimizing current
//! cost `α(v) = w(v) / |adj(v) ∩ F_i|` — its weight spread over the
//! hyperedges it would newly cover — and delete the covered hyperedges.
//! This is an `H_m = O(log m)` approximation, where `H_m` is the m-th
//! harmonic number.
//!
//! The paper uses this to select **bait proteins**: with unit weights it
//! finds ~109 baits for the Cellzome hypergraph; weighting each protein by
//! the *square of its degree* pushes the cover toward low-degree proteins
//! (better baits, because a promiscuous protein does not unambiguously
//! pull down one complex), giving ~233 baits of average degree ~1.14.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Why a cover could not be computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverError {
    /// Some hyperedge has no vertices, so no vertex set can cover it.
    EmptyEdge(EdgeId),
    /// A vertex weight was negative, NaN, or infinite.
    BadWeight(VertexId),
    /// A multicover requirement exceeds the hyperedge's size
    /// (only produced by [`crate::greedy_multicover`]).
    InfeasibleRequirement(EdgeId),
}

impl std::fmt::Display for CoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverError::EmptyEdge(e) => write!(f, "hyperedge {e:?} is empty and cannot be covered"),
            CoverError::BadWeight(v) => {
                write!(f, "vertex {v:?} has a negative or non-finite weight")
            }
            CoverError::InfeasibleRequirement(e) => write!(
                f,
                "hyperedge {e:?} requires more cover vertices than it contains"
            ),
        }
    }
}

impl std::error::Error for CoverError {}

/// A computed vertex cover.
#[derive(Clone, Debug)]
pub struct CoverResult {
    /// Chosen vertices, in selection order.
    pub vertices: Vec<VertexId>,
    /// Sum of the weights of the chosen vertices.
    pub total_weight: f64,
    /// Number of greedy iterations (equals `vertices.len()`).
    pub iterations: usize,
}

impl CoverResult {
    /// Mean degree (in the original hypergraph) of the cover's vertices —
    /// the paper's figure of merit for bait quality.
    pub fn average_degree(&self, h: &Hypergraph) -> f64 {
        if self.vertices.is_empty() {
            return 0.0;
        }
        let csr = h.csr();
        let sum: usize = self
            .vertices
            .iter()
            .map(|v| csr.vertex_degree(v.index()) as usize)
            .sum();
        sum as f64 / self.vertices.len() as f64
    }
}

/// Totally ordered finite f64 for the lazy heap.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct FiniteF64(f64);

impl Eq for FiniteF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("finite by construction")
    }
}

/// Greedy `H_m`-approximate minimum-weight vertex cover (Fig. 5).
///
/// `weight(v)` must be finite and non-negative for every vertex. Runs in
/// `O(Σ_v d₂(v) + |E| log |V|)` — each vertex's heap entry is refreshed
/// lazily when its uncovered-adjacency count has changed.
///
/// Ties (equal cost) are broken toward the lowest vertex id, making the
/// result deterministic.
pub fn greedy_vertex_cover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
) -> Result<CoverResult, CoverError> {
    let _phase = hgobs::phase("cover.greedy");
    let csr = h.csr();
    let weights: Vec<f64> = h.vertices().map(&weight).collect();
    for v in h.vertices() {
        let w = weights[v.index()];
        if !w.is_finite() || w < 0.0 {
            return Err(CoverError::BadWeight(v));
        }
    }
    if let Some(f) = csr.edge_degrees().position(|d| d == 0) {
        return Err(CoverError::EmptyEdge(EdgeId(f as u32)));
    }

    let mut uncovered_adj: Vec<u32> = csr.vertex_degrees().collect();
    let mut covered = vec![false; h.num_edges()];
    let mut remaining = h.num_edges();
    let mut in_cover = vec![false; h.num_vertices()];

    // Lazy min-heap of (cost, id, count-at-push). Entries whose count is
    // stale are re-pushed with the refreshed cost.
    let mut heap: BinaryHeap<Reverse<(FiniteF64, u32, u32)>> = h
        .vertices()
        .filter(|&v| uncovered_adj[v.index()] > 0)
        .map(|v| {
            let c = weights[v.index()] / uncovered_adj[v.index()] as f64;
            Reverse((FiniteF64(c), v.0, uncovered_adj[v.index()]))
        })
        .collect();

    let mut result = CoverResult {
        vertices: Vec::new(),
        total_weight: 0.0,
        iterations: 0,
    };
    let mut heap_refreshes: u64 = 0;
    let mut edges_covered: u64 = 0;

    while remaining > 0 {
        let Reverse((_, vid, count_at_push)) = heap
            .pop()
            .expect("heap exhausted with uncovered edges remaining");
        let v = vid as usize;
        if in_cover[v] || uncovered_adj[v] == 0 {
            continue;
        }
        if uncovered_adj[v] != count_at_push {
            // Stale: cost has risen since push; refresh and retry.
            heap_refreshes += 1;
            let c = weights[v] / uncovered_adj[v] as f64;
            heap.push(Reverse((FiniteF64(c), vid, uncovered_adj[v])));
            continue;
        }

        in_cover[v] = true;
        result.vertices.push(VertexId(vid));
        result.total_weight += weights[v];
        result.iterations += 1;
        for &f in csr.edges_of(v) {
            if covered[f.index()] {
                continue;
            }
            covered[f.index()] = true;
            remaining -= 1;
            edges_covered += 1;
            for &w in csr.pins(f.index()) {
                uncovered_adj[w.index()] -= 1;
            }
        }
    }

    hgobs::counter!("cover.picks", result.iterations);
    hgobs::counter!("cover.heap_refreshes", heap_refreshes);
    hgobs::counter!("cover.edges_covered", edges_covered);
    Ok(result)
}

/// `true` iff `cover` touches every hyperedge of `h`.
pub fn is_vertex_cover(h: &Hypergraph, cover: &[VertexId]) -> bool {
    let csr = h.csr();
    let mut chosen = vec![false; csr.num_vertices()];
    for &v in cover {
        chosen[v.index()] = true;
    }
    (0..csr.num_edges()).all(|f| csr.pins(f).iter().any(|v| chosen[v.index()]))
}

/// The m-th harmonic number `H_m = 1 + 1/2 + … + 1/m` — the greedy
/// algorithm's approximation guarantee for a hypergraph with `m`
/// hyperedges.
pub fn harmonic(m: usize) -> f64 {
    (1..=m).map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn star() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 2]);
        b.add_edge([0, 3]);
        b.build()
    }

    #[test]
    fn unit_weights_pick_the_hub() {
        let h = star();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0)]);
        assert_eq!(c.total_weight, 1.0);
        assert!(is_vertex_cover(&h, &c.vertices));
    }

    #[test]
    fn degree_squared_weights_avoid_the_hub() {
        // The paper's trick: w(v) = d(v)² discourages promiscuous baits.
        let h = star();
        let c = greedy_vertex_cover(&h, |v| {
            let d = h.vertex_degree(v) as f64;
            d * d
        })
        .unwrap();
        // hub cost = 9/3 = 3; leaf cost = 1/1. Leaves win.
        assert_eq!(c.vertices.len(), 3);
        assert!(!c.vertices.contains(&VertexId(0)));
        assert!(is_vertex_cover(&h, &c.vertices));
        assert!((c.average_degree(&h) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_edge_rejected() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0]);
        b.add_edge([]);
        let h = b.build();
        assert_eq!(
            greedy_vertex_cover(&h, |_| 1.0),
            Err(CoverError::EmptyEdge(EdgeId(1)))
        );
    }

    // CoverError derives PartialEq; CoverResult doesn't, so compare fields.
    impl PartialEq for CoverResult {
        fn eq(&self, other: &Self) -> bool {
            self.vertices == other.vertices && self.total_weight == other.total_weight
        }
    }

    #[test]
    fn bad_weights_rejected() {
        let h = star();
        assert!(matches!(
            greedy_vertex_cover(&h, |_| -1.0),
            Err(CoverError::BadWeight(_))
        ));
        assert!(matches!(
            greedy_vertex_cover(&h, |_| f64::NAN),
            Err(CoverError::BadWeight(_))
        ));
        assert!(matches!(
            greedy_vertex_cover(&h, |_| f64::INFINITY),
            Err(CoverError::BadWeight(_))
        ));
    }

    #[test]
    fn no_edges_gives_empty_cover() {
        let h = HypergraphBuilder::new(3).build();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert!(c.vertices.is_empty());
        assert_eq!(c.total_weight, 0.0);
        assert!(is_vertex_cover(&h, &c.vertices));
    }

    #[test]
    fn deterministic_tiebreak_lowest_id() {
        // Two disjoint pairs: within each, both vertices cost the same;
        // the lower id must be chosen.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([2, 3]);
        let h = b.build();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    fn within_harmonic_bound_of_optimum() {
        // Random-ish small instance; exhaustive optimum as the baseline.
        let mut b = HypergraphBuilder::new(8);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([3, 4, 5]);
        b.add_edge([5, 6]);
        b.add_edge([6, 7, 0]);
        b.add_edge([1, 4, 7]);
        let h = b.build();
        let weight = |v: VertexId| 1.0 + (v.0 % 3) as f64;
        let greedy = greedy_vertex_cover(&h, weight).unwrap();
        assert!(is_vertex_cover(&h, &greedy.vertices));
        let opt = crate::naive::exhaustive_min_cover(&h, weight).unwrap();
        let opt_w: f64 = opt.iter().map(|&v| weight(v)).sum();
        let bound = harmonic(h.num_edges());
        assert!(
            greedy.total_weight <= opt_w * bound + 1e-9,
            "greedy {} vs opt {} (H_m = {})",
            greedy.total_weight,
            opt_w,
            bound
        );
    }

    #[test]
    fn zero_weight_vertices_are_free() {
        let h = star();
        // Leaf 1 free: should be picked before anything else, but the hub
        // still covers the rest more cheaply than the other leaves.
        let c = greedy_vertex_cover(&h, |v| if v.0 == 1 { 0.0 } else { 1.0 }).unwrap();
        assert!(c.vertices.contains(&VertexId(1)));
        assert!(is_vertex_cover(&h, &c.vertices));
        assert_eq!(c.total_weight, 1.0); // hub covers the remaining two
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn covers_duplicated_edges_once_each() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        b.add_edge([0, 1]);
        let h = b.build();
        let c = greedy_vertex_cover(&h, |_| 1.0).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0)]);
    }
}
