//! MS-BFS equivalence suite: the batched bitset sweep, on the calling
//! thread and on every core, must be *bit-identical* to the scalar
//! per-source BFS oracle on arbitrary hypergraphs — same diameter, same
//! integer pair counts, and the exact same f64 average path length (all
//! accumulators are integers, so no floating-point tolerance is needed
//! or used).

use proptest::prelude::*;

use hgobs::Deadline;
use hypergraph::{
    hyper_distance_stats, par_msbfs_distance_stats, scalar_hyper_distance_stats, Hypergraph,
    HypergraphBuilder,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential MS-BFS == scalar oracle, bit for bit. The generator
    /// produces disconnected hypergraphs, isolated vertices, duplicate
    /// and empty hyperedges as a matter of course.
    #[test]
    fn msbfs_bit_identical_to_scalar(h in arb_hypergraph(90, 40, 6)) {
        let oracle = scalar_hyper_distance_stats(&h);
        let batched = hyper_distance_stats(&h);
        prop_assert_eq!(oracle.diameter, batched.diameter);
        prop_assert_eq!(oracle.reachable_pairs, batched.reachable_pairs);
        // Exact f64 equality is intentional: both engines divide the
        // same u128 total by the same u64 pair count.
        prop_assert_eq!(
            oracle.average_path_length.to_bits(),
            batched.average_path_length.to_bits()
        );
    }

    /// Parallel MS-BFS == scalar oracle, bit for bit.
    #[test]
    fn par_msbfs_bit_identical_to_scalar(h in arb_hypergraph(90, 40, 6)) {
        let oracle = scalar_hyper_distance_stats(&h);
        let batched = par_msbfs_distance_stats(&h);
        prop_assert_eq!(oracle, batched);
        prop_assert_eq!(
            oracle.average_path_length.to_bits(),
            batched.average_path_length.to_bits()
        );
    }
}

#[test]
fn empty_and_single_vertex_edge_cases() {
    let h = HypergraphBuilder::new(0).build();
    assert_eq!(scalar_hyper_distance_stats(&h), hyper_distance_stats(&h));
    assert_eq!(
        scalar_hyper_distance_stats(&h),
        par_msbfs_distance_stats(&h)
    );

    let mut b = HypergraphBuilder::new(1);
    b.add_edge([0]);
    let h = b.build();
    let s = hyper_distance_stats(&h);
    assert_eq!(s, scalar_hyper_distance_stats(&h));
    assert_eq!(s, par_msbfs_distance_stats(&h));
    assert_eq!(s.reachable_pairs, 0);
}

#[test]
fn hypergen_instances_bit_identical_across_engines() {
    for seed in [1u64, 17, 99] {
        let h = hypergen::uniform_random_hypergraph(500, 350, 5, seed);
        let oracle = scalar_hyper_distance_stats(&h);
        assert_eq!(oracle, hyper_distance_stats(&h), "seed {seed}");
        assert_eq!(oracle, par_msbfs_distance_stats(&h), "seed {seed}");
    }
}

/// A deadline that expires mid-sweep surfaces a 504-grade error carrying
/// the batches completed so far — strictly between zero and the total —
/// proving partial work is reported, not discarded or rounded to "none".
#[test]
fn mid_sweep_expiry_reports_partial_batch_count() {
    // Long pair-edge chain: per-batch fixpoint needs ~n levels, so the
    // sweep is slow enough for a microsecond budget to trip mid-way on
    // any realistic machine; escalate the size until it does.
    for n in [4_000u32, 8_000, 16_000] {
        let mut b = HypergraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge([i, i + 1]);
        }
        let h = b.build();
        let total_batches = (n as u64).div_ceil(hypergraph::BATCH as u64);
        let err = match hypergraph::par_msbfs_distance_stats_with(&h, &Deadline::after_ms(3)) {
            Err(e) => e,
            Ok(_) => continue,
        };
        assert_eq!(err.phase, "msbfs");
        assert!(err.work_done < total_batches, "{err:?}");
        return;
    }
    panic!("even the 16k-vertex chain finished inside 3ms; budget too generous");
}
