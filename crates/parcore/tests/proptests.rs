//! Property-based equivalence tests: parallel implementations must match
//! the sequential ones on arbitrary inputs.

use proptest::prelude::*;

use hypergraph::{Hypergraph, HypergraphBuilder};
use parcore::{
    par_core_decomposition, par_hyper_distance_stats, par_hypergraph_kcore,
    scoped_hyper_distance_stats,
};

fn arb_hypergraph(
    max_v: usize,
    max_e: usize,
    max_size: usize,
) -> impl Strategy<Value = Hypergraph> {
    (1..=max_v).prop_flat_map(move |n| {
        proptest::collection::vec(
            proptest::collection::vec(0..n as u32, 0..=max_size),
            0..=max_e,
        )
        .prop_map(move |edges| {
            let mut b = HypergraphBuilder::new(n);
            for e in edges {
                b.add_edge(e);
            }
            b.build()
        })
    })
}

fn restricted_contents(h: &Hypergraph, core: &hypergraph::KCore) -> Vec<Vec<u32>> {
    let alive: std::collections::HashSet<u32> = core.vertices.iter().map(|v| v.0).collect();
    let mut out: Vec<Vec<u32>> = core
        .edges
        .iter()
        .map(|&f| {
            h.pins(f)
                .iter()
                .map(|v| v.0)
                .filter(|v| alive.contains(v))
                .collect()
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel k-core == sequential k-core (vertices and edge contents).
    #[test]
    fn par_kcore_equivalent((h, k) in arb_hypergraph(12, 12, 6).prop_flat_map(|h| (Just(h), 0u32..5))) {
        let seq = hypergraph::hypergraph_kcore(&h, k);
        let par = par_hypergraph_kcore(&h, k);
        prop_assert_eq!(&seq.vertices, &par.vertices, "k = {}", k);
        prop_assert_eq!(
            restricted_contents(&h, &seq),
            restricted_contents(&h, &par),
            "k = {}", k
        );
    }

    /// Parallel distance stats == sequential.
    #[test]
    fn par_distances_equivalent(h in arb_hypergraph(14, 10, 5)) {
        let seq = hypergraph::hyper_distance_stats(&h);
        prop_assert_eq!(seq, par_hyper_distance_stats(&h));
    }

    /// Scoped-thread (`std::thread::scope`) distance stats == sequential,
    /// any thread count.
    #[test]
    fn scoped_distances_equivalent(
        h in arb_hypergraph(14, 10, 5),
        threads in 1usize..6,
    ) {
        let seq = hypergraph::hyper_distance_stats(&h);
        prop_assert_eq!(seq, scoped_hyper_distance_stats(&h, threads));
    }

    /// Parallel graph core decomposition == sequential.
    #[test]
    fn par_graph_cores_equivalent(
        (n, edges) in (1usize..20).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..50),
        ))
    ) {
        let mut b = graphcore::GraphBuilder::new(n);
        for (u, v) in edges {
            if u != v {
                b.add_edge(graphcore::NodeId(u), graphcore::NodeId(v));
            }
        }
        let g = b.build();
        let seq = graphcore::core_decomposition(&g);
        let par = par_core_decomposition(&g);
        prop_assert_eq!(seq.core, par.core);
        prop_assert_eq!(seq.max_core, par.max_core);
    }

    /// Parallel overlap triples match the sequential table.
    #[test]
    fn par_overlap_equivalent(h in arb_hypergraph(12, 10, 5)) {
        let table = hypergraph::OverlapTable::build(&h);
        for (f, g, c) in parcore::par_overlap_table(&h) {
            prop_assert_eq!(table.overlap(f, g), c);
        }
    }
}
