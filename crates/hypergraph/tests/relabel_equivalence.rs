//! Relabeling + sparsity-sweep equivalence suite: vertex renumbering
//! (`Relabeling::bfs_order` / `degree_order`) and the sparse/dense
//! frontier-sweep switching inside MS-BFS are pure layout optimizations
//! — every observable result must be *bit-identical* to the scalar
//! oracle on the **unrelabeled** hypergraph, including when a deadline
//! expires mid-sweep.

use proptest::prelude::*;

use hgobs::Deadline;
use hypergraph::{
    hyper_distance_stats, hyper_distance_stats_with, msbfs_batch, scalar_hyper_distance_stats,
    Hypergraph, HypergraphBuilder, MsBfsScratch, Relabeling, VertexId, BATCH,
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

/// A chain of pair-edges: `n` vertices, `n-1` hyperedges, diameter `n-1`.
fn chain(n: u32) -> Hypergraph {
    let mut b = HypergraphBuilder::new(n as usize);
    for i in 0..n.saturating_sub(1) {
        b.add_edge([i, i + 1]);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MS-BFS on a relabeled hypergraph == scalar oracle on the
    /// original, bit for bit, and the per-vertex core-number map
    /// translates back exactly. Exercises both relabeling orders.
    #[test]
    fn relabeled_sweeps_match_unrelabeled_oracle(
        (h, by_degree) in (arb_hypergraph(90, 40, 6), any::<bool>())
    ) {
        let r = if by_degree {
            Relabeling::degree_order(&h)
        } else {
            Relabeling::bfs_order(&h)
        };
        let hr = r.apply(&h);

        let oracle = scalar_hyper_distance_stats(&h);
        let relabeled = hyper_distance_stats(&hr);
        prop_assert_eq!(oracle.diameter, relabeled.diameter);
        prop_assert_eq!(oracle.reachable_pairs, relabeled.reachable_pairs);
        // Exact f64 equality: both engines divide the same u128 level
        // total by the same u64 pair count, and distance multisets are
        // label-invariant.
        prop_assert_eq!(
            oracle.average_path_length.to_bits(),
            relabeled.average_path_length.to_bits()
        );

        // Core numbers are per-vertex: compute on the relabeled graph,
        // unmap into the original numbering, compare to the oracle.
        let oracle_cores = hypergraph::naive::naive_cores(&h).core_numbers;
        let relabeled_cores = r.unmap_vertex_values(&hypergraph::core_numbers(&hr));
        prop_assert_eq!(oracle_cores, relabeled_cores);
    }
}

/// Geometry that forces the *sparse* drain (two sources far apart on a
/// long chain: the frontier occupies 2 of ~40 summary words) and
/// geometry that forces the *dense* drain (a scaled instance whose
/// mid-sweep frontiers cover most vertices) must both engage — proven
/// by the scratch telemetry — while the public sweep stays bit-identical
/// to the scalar oracle.
#[test]
fn sparse_and_dense_drains_both_engage_and_match_scalar() {
    // Sparse: 2560-vertex chain, sources at 0 and 2500.
    let h = chain(2560);
    let mut scratch = MsBfsScratch::new(&h);
    let batch = [VertexId(0), VertexId(2500)];
    let mut ticks = 0u32;
    msbfs_batch(
        &h,
        &batch,
        &mut scratch,
        &Deadline::none(),
        &mut ticks,
        None,
    )
    .expect("unlimited deadline cannot expire");
    let c = scratch.sweep_counters();
    assert!(c.sparse_passes > 0, "sparse drain never engaged: {c:?}");
    assert!(c.words_skipped > 0, "no all-zero words skipped: {c:?}");

    let oracle = scalar_hyper_distance_stats(&h);
    let swept = hyper_distance_stats(&h);
    assert_eq!(oracle, swept);
    assert_eq!(
        oracle.average_path_length.to_bits(),
        swept.average_path_length.to_bits()
    );

    // Dense: a random 5-pin blob (deterministic xorshift; the hypergen
    // crate dev-depends on this one, so it can't be used here) where
    // level-2+ frontiers cover most vertices.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = 1200u64;
    let mut b = HypergraphBuilder::new(n as usize);
    for _ in 0..900 {
        let pins: Vec<u32> = (0..5).map(|_| (next() % n) as u32).collect();
        b.add_edge(pins);
    }
    let h = b.build();
    let mut scratch = MsBfsScratch::new(&h);
    let batch: Vec<VertexId> = (0..BATCH as u32).map(VertexId).collect();
    let mut ticks = 0u32;
    msbfs_batch(
        &h,
        &batch,
        &mut scratch,
        &Deadline::none(),
        &mut ticks,
        None,
    )
    .expect("unlimited deadline cannot expire");
    let c = scratch.sweep_counters();
    assert!(c.dense_passes > 0, "dense drain never engaged: {c:?}");

    let oracle = scalar_hyper_distance_stats(&h);
    let swept = hyper_distance_stats(&h);
    assert_eq!(oracle, swept);
    assert_eq!(
        oracle.average_path_length.to_bits(),
        swept.average_path_length.to_bits()
    );
}

/// A deadline expiring mid-sweep on a *relabeled* graph reports partial
/// batch progress (phase `msbfs`, work_done strictly below the total),
/// and an immediate unlimited re-run still matches the unrelabeled
/// scalar oracle bit for bit — expiry must not poison later sweeps.
#[test]
fn relabeled_mid_sweep_expiry_then_clean_rerun() {
    for n in [4_000u32, 8_000, 16_000] {
        let h = chain(n);
        let r = Relabeling::bfs_order(&h);
        let hr = r.apply(&h);
        let total_batches = (n as u64).div_ceil(BATCH as u64);
        let err = match hyper_distance_stats_with(&hr, &Deadline::after_ms(3)) {
            Err(e) => e,
            Ok(_) => continue,
        };
        assert_eq!(err.phase, "msbfs");
        assert!(err.work_done < total_batches, "{err:?}");

        let oracle = scalar_hyper_distance_stats(&h);
        let rerun = hyper_distance_stats(&hr);
        assert_eq!(oracle, rerun);
        assert_eq!(
            oracle.average_path_length.to_bits(),
            rerun.average_path_length.to_bits()
        );
        return;
    }
    panic!("even the 16k-vertex chain finished inside 3ms; budget too generous");
}

/// Degenerate inputs survive relabeling: empty graphs, isolated
/// vertices, and empty hyperedges all round-trip.
#[test]
fn relabel_edge_cases() {
    let empty = HypergraphBuilder::new(0).build();
    let r = Relabeling::bfs_order(&empty);
    let e2 = r.apply(&empty);
    assert_eq!(e2.num_vertices(), 0);
    assert_eq!(
        scalar_hyper_distance_stats(&empty),
        hyper_distance_stats(&e2)
    );

    let mut b = HypergraphBuilder::new(3);
    b.add_edge([] as [u32; 0]);
    b.add_edge([1]);
    let h = b.build();
    let r = Relabeling::degree_order(&h);
    let hr = r.apply(&h);
    assert_eq!(hr.num_vertices(), 3);
    assert_eq!(hr.num_edges(), h.num_edges());
    assert_eq!(scalar_hyper_distance_stats(&h), hyper_distance_stats(&hr));
}
