//! Property-based equivalence tests: parallel implementations must match
//! the sequential ones and the oracles on arbitrary inputs.

use proptest::prelude::*;

use hypergraph::naive::{edge_contents, naive_kcore};
use hypergraph::{Hypergraph, HypergraphBuilder};
use parcore::{par_csr_overlap, par_hypergraph_kcore, par_msbfs_distance_stats};

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

    /// Parallel k-core == the naive oracle (vertices and edge contents).
    #[test]
    fn par_kcore_equivalent((h, k) in arb_hypergraph(12, 12, 6).prop_flat_map(|h| (Just(h), 0u32..5))) {
        let (nv, ne) = naive_kcore(&h, k);
        let par = par_hypergraph_kcore(&h, k);
        prop_assert_eq!(&nv, &par.vertices, "k = {}", k);
        prop_assert_eq!(
            edge_contents(&h, &ne, &nv),
            edge_contents(&h, &par.edges, &par.vertices),
            "k = {}", k
        );
    }

    /// Parallel MS-BFS distance stats == the scalar per-source sweep.
    #[test]
    fn par_distances_equivalent(h in arb_hypergraph(14, 10, 5)) {
        let seq = hypergraph::hyper_distance_stats(&h);
        prop_assert_eq!(seq, par_msbfs_distance_stats(&h));
    }

    /// The sharded overlap build == brute-force pin-set intersection.
    #[test]
    fn par_overlap_equivalent(h in arb_hypergraph(12, 10, 5)) {
        let ov = par_csr_overlap(&h);
        for f in h.edges() {
            for g in h.edges().filter(|&g| g != f) {
                let pg = h.pins(g);
                let shared = h.pins(f).iter().filter(|v| pg.contains(v)).count() as u32;
                prop_assert_eq!(ov.overlap(f, g), shared, "({:?}, {:?})", f, g);
            }
            prop_assert_eq!(ov.overlap(f, f), 0);
        }
        prop_assert_eq!(ov.num_edges(), h.num_edges());
    }
}
