//! The engines behind the paper's future-work claim must agree with the
//! sequential ones on real workloads: the MS-BFS sweep on every core
//! with the same sweep on one thread, and the level-synchronous
//! subset-probe k-core (the shape a parallel k-core takes; it runs on
//! one thread) with the CSR peeler and the naive oracle.

use hypergraph::naive::{edge_contents, naive_kcore};
use hypergraph::{
    csr_kcore, hyper_distance_stats, par_msbfs_distance_stats, probe_kcore, Hypergraph, KCore,
};
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

/// hgserve answers cellzome's `kcore?k=` with the probe engine: the
/// naive oracle's vertices and edge contents, and `csr_kcore`'s exact
/// vertex and edge ids, at every level up to one past the 6-core.
#[test]
fn probe_kcore_matches_sequential_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    for k in 0..=7u32 {
        let probe = probe_kcore(&h, k);
        assert_matches_naive(&h, &probe, k);
        let seq = csr_kcore(&h, k);
        assert_eq!(seq.vertices, probe.vertices, "k = {k}");
        assert_eq!(seq.edges, probe.edges, "k = {k}");
    }
    let seq_max = hypergraph::max_core(&h).unwrap();
    assert_eq!(probe_kcore(&h, seq_max.k).vertices, seq_max.vertices);
    assert!(probe_kcore(&h, seq_max.k + 1).is_empty());
}

#[test]
fn probe_kcore_matches_on_matrix_hypergraph() {
    let h = matrixmarket::row_net(&matrixmarket::stiffness_3d(10, 10, 10));
    for k in [4u32, 8, 14] {
        let probe = probe_kcore(&h, k);
        assert_matches_naive(&h, &probe, k);
        let seq = csr_kcore(&h, k);
        assert_eq!(seq.vertices, probe.vertices, "k = {k}");
        assert_eq!(seq.edges, probe.edges, "k = {k}");
    }
}

/// hgserve answers `kcore?k=` with the probe engine; check it on the
/// benchmark's kernel-heavy dataset against the CSR engine at every
/// level, and against the naive oracle at the `k` the benchmark asks
/// for.
#[test]
fn probe_kcore_matches_csr_kcore_on_kernel_heavy_dataset() {
    let h = hypergen::uniform_random_hypergraph(6000, 4500, 5, 41);
    let k_max = hypergraph::max_core(&h).unwrap().k;
    for k in 0..=k_max + 1 {
        let seq = csr_kcore(&h, k);
        let probe = probe_kcore(&h, k);
        assert_eq!(seq.vertices, probe.vertices, "k = {k}");
        assert_eq!(seq.edges, probe.edges, "k = {k}");
    }
    assert!(csr_kcore(&h, k_max + 1).is_empty());
    let three = probe_kcore(&h, 3);
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
