//! Greedy minimum-weight vertex **multicover** (paper §4.1, last variant).
//!
//! Each hyperedge `f` must be covered by at least `r_f ≥ 1` *distinct*
//! vertices; a vertex may be chosen only once. The greedy rule is the same
//! as for the plain cover, except a hyperedge is only deleted once its
//! requirement is met — the modification the paper describes, with the
//! same `H_m` approximation ratio.
//!
//! The paper covers every Cellzome complex twice (excluding the three
//! singleton complexes, which only contain one protein), obtaining 558
//! baits of average degree ≈ 1.74.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cover::{CoverError, CoverResult};
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct FiniteF64(f64);
impl Eq for FiniteF64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("finite by construction")
    }
}

/// Greedy multicover: cover hyperedge `f` with at least `requirement(f)`
/// distinct vertices.
///
/// Requirements of 0 mean the hyperedge imposes no constraint. Returns
/// [`CoverError::InfeasibleRequirement`] when `requirement(f)` exceeds
/// `f`'s size (a vertex can be chosen only once), and
/// [`CoverError::BadWeight`] for negative or non-finite weights.
pub fn greedy_multicover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
    requirement: impl Fn(EdgeId) -> u32,
) -> Result<CoverResult, CoverError> {
    let _phase = hgobs::phase("cover.multicover");
    let csr = h.csr();
    let weights: Vec<f64> = h.vertices().map(&weight).collect();
    for v in h.vertices() {
        let w = weights[v.index()];
        if !w.is_finite() || w < 0.0 {
            return Err(CoverError::BadWeight(v));
        }
    }
    let mut need: Vec<u32> = h.edges().map(&requirement).collect();
    for f in h.edges() {
        if need[f.index()] > csr.edge_degree(f.index()) {
            return Err(CoverError::InfeasibleRequirement(f));
        }
    }

    // An edge is "active" while its requirement is unmet. A vertex's
    // useful-adjacency is the number of active edges it belongs to and has
    // not yet been counted toward (a chosen vertex counts once per edge).
    let mut active: Vec<bool> = need.iter().map(|&r| r > 0).collect();
    let mut remaining = active.iter().filter(|&&a| a).count();
    let mut useful: Vec<u32> = h
        .vertices()
        .map(|v| {
            csr.edges_of(v.index())
                .iter()
                .filter(|f| active[f.index()])
                .count() as u32
        })
        .collect();
    let mut in_cover = vec![false; h.num_vertices()];

    let mut heap: BinaryHeap<Reverse<(FiniteF64, u32, u32)>> = h
        .vertices()
        .filter(|&v| useful[v.index()] > 0)
        .map(|v| {
            let c = weights[v.index()] / useful[v.index()] as f64;
            Reverse((FiniteF64(c), v.0, useful[v.index()]))
        })
        .collect();

    let mut result = CoverResult {
        vertices: Vec::new(),
        total_weight: 0.0,
        iterations: 0,
    };

    while remaining > 0 {
        let Reverse((_, vid, count_at_push)) = heap
            .pop()
            .expect("heap exhausted with unmet requirements remaining");
        let v = vid as usize;
        if in_cover[v] || useful[v] == 0 {
            continue;
        }
        if useful[v] != count_at_push {
            let c = weights[v] / useful[v] as f64;
            heap.push(Reverse((FiniteF64(c), vid, useful[v])));
            continue;
        }

        in_cover[v] = true;
        result.vertices.push(VertexId(vid));
        result.total_weight += weights[v];
        result.iterations += 1;
        useful[v] = 0;
        for &f in csr.edges_of(v) {
            if !active[f.index()] {
                continue;
            }
            need[f.index()] -= 1;
            if need[f.index()] == 0 {
                // Requirement met: the edge stops contributing usefulness.
                active[f.index()] = false;
                remaining -= 1;
                for &w in csr.pins(f.index()) {
                    if !in_cover[w.index()] {
                        useful[w.index()] -= 1;
                    }
                }
            }
        }
    }

    hgobs::counter!("cover.multicover_picks", result.iterations);
    Ok(result)
}

/// `true` iff `cover` contains at least `requirement(f)` distinct member
/// vertices of every hyperedge `f`.
pub fn is_multicover(
    h: &Hypergraph,
    cover: &[VertexId],
    requirement: impl Fn(EdgeId) -> u32,
) -> bool {
    let csr = h.csr();
    let mut chosen = vec![false; csr.num_vertices()];
    for &v in cover {
        chosen[v.index()] = true;
    }
    h.edges().all(|f| {
        let have = csr
            .pins(f.index())
            .iter()
            .filter(|v| chosen[v.index()])
            .count() as u32;
        have >= requirement(f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn triangle_edges() -> Hypergraph {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([0, 2]);
        b.build()
    }

    #[test]
    fn requirement_one_matches_plain_cover_semantics() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 1).unwrap();
        assert!(is_multicover(&h, &mc.vertices, |_| 1));
        assert!(crate::cover::is_vertex_cover(&h, &mc.vertices));
        assert_eq!(mc.vertices.len(), 2);
    }

    #[test]
    fn requirement_two_takes_all_endpoints() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 2).unwrap();
        assert!(is_multicover(&h, &mc.vertices, |_| 2));
        assert_eq!(mc.vertices.len(), 3); // every vertex needed
    }

    #[test]
    fn infeasible_requirement_detected() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0]);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(
            greedy_multicover(&h, |_| 1.0, |_| 2),
            Err(CoverError::InfeasibleRequirement(EdgeId(0)))
        );
        // Excluding the singleton (requirement 0) makes it feasible —
        // exactly the paper's treatment of the three singleton complexes.
        let mc = greedy_multicover(&h, |_| 1.0, |f| if f.0 == 0 { 0 } else { 2 }).unwrap();
        assert_eq!(mc.vertices.len(), 2);
    }

    #[test]
    fn zero_requirements_mean_no_work() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 0).unwrap();
        assert!(mc.vertices.is_empty());
        assert!(is_multicover(&h, &mc.vertices, |_| 0));
    }

    #[test]
    fn mixed_requirements() {
        // Edge e0 needs 2, others need 1.
        let h = triangle_edges();
        let req = |f: EdgeId| if f.0 == 0 { 2 } else { 1 };
        let mc = greedy_multicover(&h, |_| 1.0, req).unwrap();
        assert!(is_multicover(&h, &mc.vertices, req));
        assert!(mc.vertices.contains(&VertexId(0)));
        assert!(mc.vertices.contains(&VertexId(1)));
    }

    #[test]
    fn weights_steer_selection() {
        // Make vertex 1 prohibitively expensive: cover {0,2} suffices for
        // requirement 1 everywhere.
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |v| if v.0 == 1 { 100.0 } else { 1.0 }, |_| 1).unwrap();
        assert!(is_multicover(&h, &mc.vertices, |_| 1));
        assert!(!mc.vertices.contains(&VertexId(1)));
    }

    #[test]
    fn empty_edge_with_zero_requirement_ok() {
        let mut b = HypergraphBuilder::new(1);
        b.add_edge([]);
        b.add_edge([0]);
        let h = b.build();
        // requirement 0 for the empty edge: feasible.
        let mc = greedy_multicover(&h, |_| 1.0, |f| if f.0 == 0 { 0 } else { 1 }).unwrap();
        assert_eq!(mc.vertices, vec![VertexId(0)]);
        // requirement 1 for the empty edge: infeasible.
        assert_eq!(
            greedy_multicover(&h, |_| 1.0, |_| 1),
            Err(CoverError::InfeasibleRequirement(EdgeId(0)))
        );
    }

    #[test]
    fn multicover_average_degree_reported() {
        let h = triangle_edges();
        let mc = greedy_multicover(&h, |_| 1.0, |_| 2).unwrap();
        assert!((mc.average_degree(&h) - 2.0).abs() < 1e-12);
    }
}
