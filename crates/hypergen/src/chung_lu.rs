//! Chung–Lu random graphs with prescribed expected degrees.

use graphcore::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chung–Lu power-law *graph* with expected degree `weights[v]` for node
/// `v`: edge `{u, v}` present independently with probability
/// `min(1, w_u w_v / S)`, `S = Σ w`. Implemented with the
/// Miller–Hagberg skip-ahead so the cost is O(n + m), not O(n²):
/// weights must be supplied in **non-increasing** order.
///
/// # Panics
/// If weights are not sorted non-increasing, or not finite/non-negative.
pub fn chung_lu_graph(weights: &[f64], seed: u64) -> Graph {
    assert!(
        weights.windows(2).all(|w| w[0] >= w[1]),
        "weights must be non-increasing"
    );
    assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
    let n = weights.len();
    let s: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if s == 0.0 {
        return b.build();
    }

    for u in 0..n {
        let wu = weights[u];
        if wu == 0.0 {
            break; // sorted: all the rest are zero too
        }
        // Walk candidates v > u with geometric skips calibrated to the
        // largest probability in the remaining tail (p = wu*wv/S is
        // non-increasing in v).
        let mut v = u + 1;
        let mut p = (wu * weights.get(v).copied().unwrap_or(0.0) / s).min(1.0);
        while v < n && p > 0.0 {
            if p < 1.0 {
                // Skip ahead geometrically with the current p.
                let r: f64 = rng.gen::<f64>();
                let skip = (r.ln() / (1.0 - p).ln()).floor();
                let skip = if skip.is_finite() { skip as usize } else { n };
                v = v.saturating_add(skip.min(n));
            }
            if v >= n {
                break;
            }
            // Accept with the corrected probability q/p for the actual v.
            let q = (wu * weights[v] / s).min(1.0);
            if rng.gen::<f64>() < q / p {
                b.add_edge(NodeId(u as u32), NodeId(v as u32));
            }
            p = q;
            v += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_mean_degree_close_to_expected() {
        let n = 2000;
        let weights = vec![6.0; n];
        let g = chung_lu_graph(&weights, 4);
        let mean = g.degree_sum() as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.8, "mean degree = {mean}");
    }

    #[test]
    fn graph_power_law_weights_give_heavy_tail() {
        // w_v ∝ v^(-1/(gamma-1)) gives a gamma power-law expected-degree
        // sequence; check the realized max degree dwarfs the median.
        let n = 3000usize;
        let gamma = 2.5f64;
        let mut weights: Vec<f64> = (1..=n)
            .map(|i| 40.0 * (i as f64).powf(-1.0 / (gamma - 1.0)))
            .collect();
        weights.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let g = chung_lu_graph(&weights, 12);
        let mut degs: Vec<usize> = g.nodes().map(|u| g.degree(u)).collect();
        degs.sort_unstable();
        let median = degs[n / 2];
        let max = degs[n - 1];
        assert!(max >= 10 * median.max(1), "max {max}, median {median}");
    }

    #[test]
    fn graph_deterministic() {
        let weights = vec![3.0; 100];
        let a = chung_lu_graph(&weights, 5);
        let b = chung_lu_graph(&weights, 5);
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.edges().eq(b.edges()));
    }

    #[test]
    fn zero_weights_yield_empty() {
        let g = chung_lu_graph(&[0.0; 10], 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn graph_requires_sorted_weights() {
        let _ = chung_lu_graph(&[1.0, 2.0], 0);
    }
}
