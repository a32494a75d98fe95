//! Property-based equivalence tests: the parallel engine must match the
//! sequential oracle on arbitrary inputs.

use proptest::prelude::*;

use hypergraph::{Hypergraph, HypergraphBuilder};
use parcore::par_msbfs_distance_stats;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel MS-BFS distance stats == the scalar per-source sweep.
    #[test]
    fn par_distances_equivalent(h in arb_hypergraph(14, 10, 5)) {
        let seq = hypergraph::hyper_distance_stats(&h);
        prop_assert_eq!(seq, par_msbfs_distance_stats(&h));
    }
}
