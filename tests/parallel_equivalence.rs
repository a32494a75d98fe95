//! Parallel implementations must agree with the sequential ones on real
//! workloads — the correctness half of the paper's future-work claim.

use hypergraph::naive::{edge_contents, naive_kcore};
use hypergraph::{csr_kcore, hyper_distance_stats, CsrOverlap, EdgeId, Hypergraph, KCore};
use parcore::{par_csr_overlap, par_hypergraph_kcore, par_msbfs_distance_stats};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

/// Same vertices and edge contents as the naive oracle at `k`.
fn assert_matches_naive(h: &Hypergraph, core: &KCore, k: u32) {
    let (nv, ne) = naive_kcore(h, k);
    assert_eq!(core.vertices, nv, "k = {k}");
    assert_eq!(
        edge_contents(h, &core.edges, &core.vertices),
        edge_contents(h, &ne, &nv),
        "k = {k}"
    );
}

#[test]
fn par_kcore_matches_sequential_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    for k in 1..=7u32 {
        assert_matches_naive(&h, &par_hypergraph_kcore(&h, k), k);
    }
    let seq_max = hypergraph::max_core(&h).unwrap();
    assert_eq!(
        par_hypergraph_kcore(&h, seq_max.k).vertices,
        seq_max.vertices
    );
    assert!(par_hypergraph_kcore(&h, seq_max.k + 1).is_empty());
}

#[test]
fn par_kcore_matches_on_matrix_hypergraph() {
    let h = matrixmarket::row_net(&matrixmarket::stiffness_3d(10, 10, 10));
    for k in [4u32, 8, 14] {
        let par = par_hypergraph_kcore(&h, k);
        assert_matches_naive(&h, &par, k);
        let seq = csr_kcore(&h, k);
        assert_eq!(seq.vertices, par.vertices, "k = {k}");
        assert_eq!(seq.edges, par.edges, "k = {k}");
    }
}

/// hgserve answers `kcore?k=` with the parallel engine for datasets of
/// at least 4096 vertices; check it on the benchmark's kernel-heavy
/// dataset against the CSR engine at every level, and against the naive
/// oracle at the `k` the benchmark asks for.
#[test]
fn par_kcore_matches_csr_kcore_on_kernel_heavy_dataset() {
    let h = hypergen::uniform_random_hypergraph(6000, 4500, 5, 41);
    let k_max = hypergraph::max_core(&h).unwrap().k;
    for k in 0..=k_max + 1 {
        let seq = csr_kcore(&h, k);
        let par = par_hypergraph_kcore(&h, k);
        assert_eq!(seq.vertices, par.vertices, "k = {k}");
        assert_eq!(seq.edges, par.edges, "k = {k}");
    }
    assert!(csr_kcore(&h, k_max + 1).is_empty());
    let three = par_hypergraph_kcore(&h, 3);
    assert_eq!((three.vertices.len(), three.edges.len()), (4306, 4494));
    assert_matches_naive(&h, &three, 3);
}

#[test]
fn par_distances_match_sequential_on_cellzome_giant() {
    let ds = cellzome_like(CELLZOME_SEED);
    let cc = hypergraph::hypergraph_components(&ds.hypergraph);
    let big = cc.largest().unwrap();
    let (giant, _, _) = cc.extract(&ds.hypergraph, big);
    let seq = hyper_distance_stats(&giant);
    let par = par_msbfs_distance_stats(&giant);
    assert_eq!(seq, par);
    assert_eq!(seq.diameter, 6);
}

#[test]
fn par_overlap_matches_table_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let table = CsrOverlap::build(&h);
    let par = par_csr_overlap(&h);
    // Same nonzero overlaps, row by row, in the same (ascending) order.
    let rows = |ov: &CsrOverlap| -> Vec<Vec<(EdgeId, u32)>> {
        h.edges().map(|f| ov.overlapping(f).collect()).collect()
    };
    assert_eq!(rows(&par), rows(&table));
    assert_eq!(par.max_d2_edge(), table.max_d2_edge());
}

#[test]
fn thread_pool_size_does_not_change_results() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let reference = par_hypergraph_kcore(&h, 6);
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let core = pool.install(|| par_hypergraph_kcore(&h, 6));
        assert_eq!(core.vertices, reference.vertices, "threads = {threads}");
        assert_eq!(core.edges, reference.edges, "threads = {threads}");
    }
}
