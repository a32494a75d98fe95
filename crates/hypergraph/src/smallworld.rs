//! Small-world assessment of a hypergraph (paper §2).
//!
//! The paper calls the yeast hypergraph a small-world network on the
//! evidence of its diameter (6) and average path length (2.568) relative
//! to its size (1361 proteins). This module packages those measurements
//! together with the random-network yardstick `ln n / ln z̄` (the expected
//! path length of a comparable random network, where `z̄` is the mean
//! number of vertices reachable in one step), so the claim is checkable
//! rather than eyeballed.

use crate::hypergraph::{Hypergraph, VertexId};
use crate::msbfs::hyper_distance_stats;
use crate::path::HyperDistanceStats;

/// Small-world summary of a hypergraph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmallWorldReport {
    /// Measured distance statistics.
    pub distances: HyperDistanceStats,
    /// Number of vertices.
    pub num_vertices: usize,
    /// Mean one-step reachability `z̄` = mean vertex degree-2.
    pub mean_reach: f64,
    /// Random-network expectation `ln n / ln z̄` (NaN when `z̄ ≤ 1`).
    pub random_expected_apl: f64,
    /// `true` when the measured average path length is within a factor of
    /// 2 of the random expectation and the diameter is O(log n)
    /// (≤ `3 · ln n`): a conservative operationalization of "small world".
    pub is_small_world: bool,
}

/// Compute the small-world report with exact distances.
pub fn small_world_report(h: &Hypergraph) -> SmallWorldReport {
    let distances = hyper_distance_stats(h);
    report_from_distances(h, distances)
}

/// Assemble a [`SmallWorldReport`] from already-computed distance
/// statistics — the yardstick arithmetic without the BFS sweep.
pub(crate) fn report_from_distances(
    h: &Hypergraph,
    distances: HyperDistanceStats,
) -> SmallWorldReport {
    let n = h.num_vertices();
    let mean_reach = if n == 0 {
        0.0
    } else {
        // One stamp array for the whole sweep: O(|V| + Σ_v Σ_{f ∋ v} |f|).
        let mut stamp = vec![u32::MAX; n];
        h.vertices()
            .map(|v| d2_vertex(h, v, &mut stamp) as f64)
            .sum::<f64>()
            / n as f64
    };
    let random_expected_apl = if mean_reach > 1.0 && n > 1 {
        (n as f64).ln() / mean_reach.ln()
    } else {
        f64::NAN
    };
    let is_small_world = n > 1
        && random_expected_apl.is_finite()
        && distances.average_path_length <= 2.0 * random_expected_apl
        && (distances.diameter as f64) <= 3.0 * (n as f64).ln();
    SmallWorldReport {
        distances,
        num_vertices: n,
        mean_reach,
        random_expected_apl,
        is_small_world,
    }
}

/// Degree-2 of vertex `v`: the number of distinct vertices other than
/// `v` across all hyperedges containing `v` (the vertices one step away).
/// Marks neighbors in `stamp` (`len == num_vertices`) with `v`'s own id,
/// so one array serves every vertex of a sweep without clearing; entries
/// must never equal a live vertex id on entry, which `u32::MAX` ensures.
fn d2_vertex(h: &Hypergraph, v: VertexId, stamp: &mut [u32]) -> usize {
    let mut count = 0usize;
    for &f in h.edges_of(v) {
        for &w in h.pins(f) {
            if w != v && stamp[w.index()] != v.0 {
                stamp[w.index()] = v.0;
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    #[test]
    fn degree2_vertices() {
        // e0={0,1,2}, e1={1,2,3}, e2={3,4}, e3={5}
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([3, 4]);
        b.add_edge([5]);
        let h = b.build();
        let mut stamp = vec![u32::MAX; h.num_vertices()];
        let d2: Vec<usize> = h.vertices().map(|v| d2_vertex(&h, v, &mut stamp)).collect();
        // v1 reaches {0,2,3}; v3 reaches {1,2,4}; v5 reaches nothing.
        assert_eq!(d2, vec![2, 3, 3, 3, 1, 0]);
        let r = report_from_distances(&h, crate::hyper_distance_stats(&h));
        assert_eq!(r.mean_reach, 12.0 / 6.0);
    }

    #[test]
    fn dense_overlapping_hypergraph_is_small_world() {
        // 30 vertices, edges of size 6 tiling with heavy overlap: short
        // distances, high reach.
        let mut b = HypergraphBuilder::new(30);
        for s in (0..30u32).step_by(3) {
            b.add_edge((0..6u32).map(|i| (s + i) % 30));
        }
        // A few long-range "hub" edges.
        b.add_edge([0, 10, 20]);
        b.add_edge([5, 15, 25]);
        let h = b.build();
        let r = small_world_report(&h);
        assert!(r.distances.diameter <= 5);
        assert!(r.is_small_world, "{r:?}");
    }

    #[test]
    fn long_chain_is_not_small_world() {
        // 64 vertices in a chain of pair edges: APL grows linearly.
        let n = 64u32;
        let mut b = HypergraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge([i, i + 1]);
        }
        let r = small_world_report(&b.build());
        assert!(!r.is_small_world, "{r:?}");
        assert_eq!(r.distances.diameter, n - 1);
    }

    #[test]
    fn degenerate_inputs() {
        let r = small_world_report(&HypergraphBuilder::new(0).build());
        assert!(!r.is_small_world);
        assert_eq!(r.num_vertices, 0);

        let mut b = HypergraphBuilder::new(1);
        b.add_edge([0]);
        let r = small_world_report(&b.build());
        assert!(!r.is_small_world);
    }
}
