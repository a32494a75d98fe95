//! Dual / primal-dual vertex cover algorithms (paper §4.1: "Dual and
//! primal-dual algorithms with approximation ratios that depend on the
//! maximum degree of a vertex can also be designed … This is the subject
//! of current work.") — implemented here as the A3 ablation partner of the
//! greedy algorithm.
//!
//! The pricing (Bar-Yehuda–Even) scheme treats the LP dual: each uncovered
//! hyperedge `f` raises its dual variable `y_f` until some member vertex's
//! residual weight hits zero; all such tight vertices join the cover. The
//! resulting cover costs at most `Δ_F · Σ y_f ≤ Δ_F · OPT`, where `Δ_F`
//! is the maximum hyperedge cardinality, and `Σ y_f` is itself a certified
//! lower bound on the optimal cover weight — so every run reports a
//! per-instance approximation certificate.

use hgobs::Deadline;

use crate::cover::{checked_weights, no_empty_edge, CoverError, CoverResult};
use crate::hypergraph::{Hypergraph, VertexId};

/// Outcome of the primal-dual cover: the cover plus its dual certificate.
#[derive(Clone, Debug)]
pub struct PricingCover {
    /// The (pruned) cover.
    pub cover: CoverResult,
    /// `Σ_f y_f`: a feasible dual objective, hence a lower bound on the
    /// minimum cover weight.
    pub dual_lower_bound: f64,
    /// `cover.total_weight / dual_lower_bound` (∞ if the bound is 0 and
    /// the cover is not free): the certified approximation ratio of this
    /// run, always ≤ `Δ_F`.
    pub certified_ratio: f64,
}

/// Primal-dual (pricing) vertex cover with reverse-delete pruning.
///
/// Hyperedges are processed in increasing id order; ties in tightness are
/// resolved by vertex id, so the result is deterministic.
pub fn pricing_vertex_cover(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
) -> Result<PricingCover, CoverError> {
    let _phase = hgobs::phase("cover.pricing");
    let weights = checked_weights(h, weight, &Deadline::none(), "cover.pricing")?;
    let csr = h.csr();
    no_empty_edge(csr)?;

    let mut residual = weights.clone();
    let mut in_cover = vec![false; h.num_vertices()];
    let mut order: Vec<VertexId> = Vec::new();
    let (mut dual_sum, mut dual_raises, mut pruned) = (0.0f64, 0u64, 0u64);

    for f in 0..csr.num_edges() {
        let pins = csr.pins(f);
        if pins.iter().any(|v| in_cover[v.index()]) {
            continue;
        }
        let residuals = pins.iter().map(|v| residual[v.index()]);
        let eps = residuals.fold(f64::INFINITY, f64::min);
        dual_sum += eps;
        dual_raises += 1;
        for &v in pins {
            residual[v.index()] -= eps;
            if residual[v.index()] <= 1e-12 && !in_cover[v.index()] {
                in_cover[v.index()] = true;
                order.push(v);
            }
        }
    }

    // Reverse-delete pruning: drop vertices (latest first) whose removal
    // keeps the cover feasible. Track per-edge cover multiplicity so each
    // feasibility check is O(d(v) + Σ_{f∋v} 1).
    let mut cover_count: Vec<u32> = (0..csr.num_edges())
        .map(|f| csr.pins(f).iter().filter(|v| in_cover[v.index()]).count() as u32)
        .collect();
    for &v in order.iter().rev() {
        let edges = csr.edges_of(v.index());
        if edges.iter().all(|f| cover_count[f.index()] >= 2) {
            pruned += 1;
            in_cover[v.index()] = false;
            for &f in edges {
                cover_count[f.index()] -= 1;
            }
        }
    }

    let mut vertices = order;
    vertices.retain(|v| in_cover[v.index()]);
    hgobs::counter!("cover.dual_raises", dual_raises);
    hgobs::counter!("cover.pruned", pruned);
    hgobs::counter!("cover.pricing_picks", vertices.len());
    let total_weight: f64 = vertices.iter().map(|&v| weights[v.index()]).sum();
    let certified_ratio = if dual_sum > 0.0 {
        total_weight / dual_sum
    } else if total_weight == 0.0 {
        1.0
    } else {
        f64::INFINITY
    };
    Ok(PricingCover {
        cover: CoverResult {
            vertices,
            total_weight,
        },
        dual_lower_bound: dual_sum,
        certified_ratio,
    })
}

/// Just the dual lower bound `Σ y_f` from a pricing pass — a certified
/// lower bound on the minimum-weight vertex cover, usable to report
/// empirical approximation ratios for *any* cover algorithm.
pub fn dual_lower_bound(
    h: &Hypergraph,
    weight: impl Fn(VertexId) -> f64,
) -> Result<f64, CoverError> {
    pricing_vertex_cover(h, weight).map(|p| p.dual_lower_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::is_vertex_cover;
    use crate::HypergraphBuilder;

    fn path_edges() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        b.build()
    }

    #[test]
    fn produces_valid_cover() {
        let h = path_edges();
        let p = pricing_vertex_cover(&h, |_| 1.0).unwrap();
        assert!(is_vertex_cover(&h, &p.cover.vertices));
        assert!(p.dual_lower_bound > 0.0);
        assert!(p.cover.total_weight >= p.dual_lower_bound - 1e-9);
    }

    #[test]
    fn certified_ratio_bounded_by_max_edge_degree() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3, 4]);
        b.add_edge([4, 5, 0]);
        b.add_edge([1, 3, 5]);
        let h = b.build();
        let p = pricing_vertex_cover(&h, |v| 1.0 + v.0 as f64).unwrap();
        assert!(is_vertex_cover(&h, &p.cover.vertices));
        assert!(p.certified_ratio <= h.max_edge_degree() as f64 + 1e-9);
    }

    #[test]
    fn pruning_removes_redundancy() {
        // Star: pricing on edges in order tightens every leaf AND the hub;
        // pruning must strip the redundant vertices.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 2]);
        b.add_edge([0, 3]);
        let h = b.build();
        let p = pricing_vertex_cover(&h, |_| 1.0).unwrap();
        assert!(is_vertex_cover(&h, &p.cover.vertices));
        // Edge {0,1} tightens both 0 and 1; the rest are then covered by 0.
        // Pruning removes 1 if 0 covers its only edge — 1's edge has both
        // endpoints, so 1 goes. Final cover: just the hub.
        assert_eq!(p.cover.vertices, vec![VertexId(0)]);
    }

    #[test]
    fn dual_bound_is_sound_vs_exhaustive() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 3]);
        b.add_edge([2, 4, 5]);
        b.add_edge([3, 5]);
        let h = b.build();
        let weight = |v: VertexId| 1.0 + (v.0 % 2) as f64;
        let lb = dual_lower_bound(&h, weight).unwrap();
        let opt = crate::naive::exhaustive_min_cover(&h, weight).unwrap();
        let opt_w: f64 = opt.iter().map(|&v| weight(v)).sum();
        assert!(lb <= opt_w + 1e-9, "dual {lb} exceeds OPT {opt_w}");
    }

    #[test]
    fn empty_edge_rejected() {
        let mut b = HypergraphBuilder::new(1);
        b.add_edge([]);
        let h = b.build();
        assert!(matches!(
            pricing_vertex_cover(&h, |_| 1.0),
            Err(CoverError::EmptyEdge(_))
        ));
    }

    #[test]
    fn no_edges_is_free() {
        let h = HypergraphBuilder::new(2).build();
        let p = pricing_vertex_cover(&h, |_| 1.0).unwrap();
        assert!(p.cover.vertices.is_empty());
        assert_eq!(p.dual_lower_bound, 0.0);
        assert_eq!(p.certified_ratio, 1.0);
    }

    #[test]
    fn zero_weight_vertices_tighten_immediately() {
        let h = path_edges();
        let p = pricing_vertex_cover(&h, |v| if v.0 == 1 || v.0 == 2 { 0.0 } else { 5.0 }).unwrap();
        assert!(is_vertex_cover(&h, &p.cover.vertices));
        assert_eq!(p.cover.total_weight, 0.0);
        assert_eq!(p.certified_ratio, 1.0);
    }
}
