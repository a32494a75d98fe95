//! Property-based tests for the plain-graph substrate.

use proptest::prelude::*;

use graphcore::{
    bfs_distances, connected_components, core_decomposition, CoreDecomposition, Graph,
    GraphBuilder, NodeId, UNREACHABLE,
};

/// Random simple graph on up to `max_n` nodes.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v));
                }
            }
            b.build()
        })
    })
}

/// Brute-force core check: every node of the k-core has >= k neighbours
/// inside the k-core, i.e. >= k neighbours with core number >= k.
fn check_core_definition(g: &Graph, d: &CoreDecomposition, k: u32) {
    for u in d.k_core_nodes(k) {
        let inside = g
            .neighbors(u)
            .iter()
            .filter(|&&v| d.core_number(v) >= k)
            .count();
        assert!(
            inside >= k as usize,
            "node with {inside} neighbours in the {k}-core"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants: sorted, dedup'd, symmetric adjacency.
    #[test]
    fn builder_invariants(g in arb_graph(16, 40)) {
        for u in g.nodes() {
            let nbrs = g.neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &v in nbrs {
                prop_assert!(g.neighbors(v).contains(&u));
                prop_assert!(v != u);
            }
        }
        prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
    }

    /// Core decomposition satisfies the definitional check at every k,
    /// and the max core is the last non-empty one.
    #[test]
    fn core_decomposition_definition(g in arb_graph(20, 60)) {
        let d = core_decomposition(&g);
        for k in 1..=d.max_core {
            check_core_definition(&g, &d, k);
            prop_assert!(!d.k_core_nodes(k).is_empty());
        }
        prop_assert!(d.k_core_nodes(d.max_core + 1).is_empty());
        // Core numbers bounded by degree.
        for u in g.nodes() {
            prop_assert!(d.core_number(u) as usize <= g.degree(u));
        }
    }

    /// BFS satisfies the triangle inequality over edges:
    /// |dist(u) - dist(v)| <= 1 for every edge {u, v}.
    #[test]
    fn bfs_edge_lipschitz(g in arb_graph(16, 40)) {
        let src = NodeId(0);
        let dist = bfs_distances(&g, src);
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            match (du == UNREACHABLE, dv == UNREACHABLE) {
                (true, true) => {}
                (false, false) => {
                    prop_assert!(du.abs_diff(dv) <= 1, "edge ({u:?},{v:?}): {du} vs {dv}")
                }
                _ => prop_assert!(false, "edge crosses reachability boundary"),
            }
        }
    }

    /// Components agree with BFS reachability.
    #[test]
    fn components_match_bfs(g in arb_graph(14, 30)) {
        let cc = connected_components(&g);
        let dist = bfs_distances(&g, NodeId(0));
        for u in g.nodes() {
            let same_cc = cc.label[u.index()] == cc.label[0];
            let reachable = dist[u.index()] != UNREACHABLE;
            prop_assert_eq!(same_cc, reachable, "{:?}", u);
        }
        let total: u32 = cc.size.iter().sum();
        prop_assert_eq!(total as usize, g.num_nodes());
    }

    /// Pajek .net round-trips any graph.
    #[test]
    fn pajek_roundtrip(g in arb_graph(16, 40)) {
        let text = graphcore::pajek::write_net(&g, None);
        let (g2, _) = graphcore::pajek::parse_net(&text).unwrap();
        prop_assert_eq!(g.num_nodes(), g2.num_nodes());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        prop_assert!(g.edges().eq(g2.edges()));
    }
}
