//! k-uniform Erdős–Rényi-style random hypergraphs.

use hypergraph::{Hypergraph, HypergraphBuilder};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// `m` hyperedges, each a uniformly random `k`-subset of `n` vertices
/// (distinct vertices within an edge; edges drawn independently, so
/// duplicate edges can occur). Deterministic in `seed`.
///
/// # Panics
/// If `k > n`.
pub fn uniform_random_hypergraph(n: usize, m: usize, k: usize, seed: u64) -> Hypergraph {
    let mut b = HypergraphBuilder::new(n);
    b.reserve_pins(m * k);
    uniform_edges(n, m, k, seed, |pins| {
        b.add_edge(pins.iter().copied());
    });
    b.build()
}

/// The edge stream behind [`uniform_random_hypergraph`]: invokes `emit`
/// once per hyperedge with its pins, drawing from the identical RNG
/// sequence, so a sink that adds each hyperedge to a
/// [`HypergraphBuilder`] reproduces [`uniform_random_hypergraph`] bit for
/// bit. A sink can also look at each hyperedge as it is drawn, as the
/// benchmark's dataset check counts vertex degrees.
///
/// # Panics
/// If `k > n`.
pub fn uniform_edges(n: usize, m: usize, k: usize, seed: u64, mut emit: impl FnMut(&[u32])) {
    assert!(k <= n, "edge size {k} exceeds vertex count {n}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pins = vec![0u32; k];
    for _ in 0..m {
        for (slot, v) in pins.iter_mut().zip(sample(&mut rng, n, k)) {
            *slot = v as u32;
        }
        emit(&pins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let h = uniform_random_hypergraph(30, 12, 4, 3);
        assert_eq!(h.num_vertices(), 30);
        assert_eq!(h.num_edges(), 12);
        assert!(h.edges().all(|f| h.edge_degree(f) == 4));
        assert_eq!(h.num_pins(), 48);
    }

    #[test]
    fn deterministic() {
        let a = uniform_random_hypergraph(20, 8, 3, 77);
        let b = uniform_random_hypergraph(20, 8, 3, 77);
        assert_eq!(hypergraph::io::write_hgr(&a), hypergraph::io::write_hgr(&b));
    }

    #[test]
    fn k_equals_n_gives_full_edges() {
        let h = uniform_random_hypergraph(5, 3, 5, 0);
        assert!(h.edges().all(|f| h.edge_degree(f) == 5));
    }

    #[test]
    fn k_zero_gives_empty_edges() {
        let h = uniform_random_hypergraph(5, 2, 0, 0);
        assert_eq!(h.num_pins(), 0);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds vertex count")]
    fn oversized_k_rejected() {
        let _ = uniform_random_hypergraph(3, 1, 4, 0);
    }

    #[test]
    fn dense_uniform_has_deep_core() {
        // Many size-5 edges over few vertices: every vertex lands in many
        // edges, so the max core is deep.
        let h = uniform_random_hypergraph(12, 60, 5, 42);
        let mc = hypergraph::max_core(&h).expect("non-empty");
        assert!(mc.k >= 3, "max core k = {}", mc.k);
    }
}
