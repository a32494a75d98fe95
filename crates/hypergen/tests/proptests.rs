//! Property-based tests for the generators.

use proptest::prelude::*;

use hypergraph::validate::check_structure;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Uniform hypergraphs are k-uniform and structurally valid.
    #[test]
    fn uniform_is_uniform(
        n in 1usize..50,
        m in 0usize..30,
        seed in any::<u64>(),
    ) {
        let k = (n / 2).min(6);
        let h = hypergen::uniform_random_hypergraph(n, m, k, seed);
        check_structure(&h).unwrap();
        prop_assert!(h.edges().all(|f| h.edge_degree(f) == k));
    }

    /// Chung–Lu graphs: simple, within bounds, deterministic.
    #[test]
    fn chung_lu_graph_valid(
        n in 2usize..120,
        w in 0.5f64..8.0,
        seed in any::<u64>(),
    ) {
        let weights = vec![w; n];
        let g = hypergen::chung_lu_graph(&weights, seed);
        prop_assert_eq!(g.num_nodes(), n);
        // Simple graph invariants hold by construction; determinism:
        let g2 = hypergen::chung_lu_graph(&weights, seed);
        prop_assert!(g.edges().eq(g2.edges()));
    }

    /// Planted-core graphs contain their core exactly, provided the
    /// planted coreness clears the periphery's natural coreness (a
    /// Chung–Lu graph of mean degree ~2 develops 2- and 3-cores of its
    /// own, so the guarantee starts at core_k >= 6 — the DIP baselines
    /// use 8 and 10).
    #[test]
    fn planted_graph_core_exact(
        seed in any::<u64>(),
        core_k in (3u32..6).prop_map(|x| x * 2),
        extra in 0usize..400,
    ) {
        let core_size = (core_k as usize + 2).max(10);
        let n = core_size + extra;
        let g = hypergen::planted_core_graph(n, core_size, core_k, 2.5, 2.0, 0.3, seed);
        let d = graphcore::core_decomposition(&g);
        prop_assert_eq!(d.max_core, core_k);
        let core_nodes = d.max_core_nodes();
        prop_assert_eq!(core_nodes.len(), core_size);
        prop_assert!(core_nodes.iter().all(|u| u.index() < core_size));
    }

    /// Planted-core hypergraphs keep their planted vertices in the max
    /// core.
    #[test]
    fn planted_hypergraph_core_contained(seed in any::<u64>()) {
        let h = hypergen::planted_core_hypergraph(20, 30, 5, 60, seed);
        check_structure(&h).unwrap();
        let mc = hypergraph::max_core(&h).expect("non-empty");
        prop_assert!(mc.k >= 3);
        prop_assert!(mc.vertices.iter().all(|v| v.0 < 20));
    }
}
