//! Owned vs mmap storage must be invisible to every kernel: the same
//! `.hgb` file opened through the owned decoder and through the mmap
//! path has to produce bit-identical MS-BFS distance statistics,
//! k-core decompositions (max-core id sets included), connected
//! components, and degree histograms — on the Cellzome twin and on a
//! hypergen configuration. This is the equality half of the
//! `ci.sh --bench` cold-load acceptance gate.

#![cfg(unix)] // the mmap side of the comparison needs the unix shim

use std::path::PathBuf;

use hypergraph::hgb::{open_hgb, write_hgb_file, HgbOpenMode, HgbOpenOptions};
use hypergraph::{Hypergraph, StorageKind};

fn temp_hgb(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hgb-equiv-{tag}-{}.hgb", std::process::id()))
}

/// Open the same file both ways, verified.
fn both_storages(h: &Hypergraph, tag: &str) -> (Hypergraph, Hypergraph) {
    let path = temp_hgb(tag);
    write_hgb_file(h, None, &path).unwrap();
    let owned = open_hgb(
        &path,
        HgbOpenOptions {
            mode: HgbOpenMode::Owned,
            verify: true,
        },
    )
    .unwrap()
    .hypergraph;
    let mapped = open_hgb(
        &path,
        HgbOpenOptions {
            mode: HgbOpenMode::Mmap,
            verify: true,
        },
    )
    .unwrap()
    .hypergraph;
    std::fs::remove_file(&path).unwrap();
    assert_eq!(owned.storage_kind(), StorageKind::Owned);
    assert_eq!(mapped.storage_kind(), StorageKind::Mapped);
    (owned, mapped)
}

/// Max-core as comparable id sets plus depth.
fn core_sets(h: &Hypergraph) -> Option<(u32, Vec<u32>, Vec<u32>)> {
    hypergraph::max_core(h).map(|c| {
        (
            c.k,
            c.vertices.iter().map(|v| v.0).collect(),
            c.edges.iter().map(|f| f.0).collect(),
        )
    })
}

fn assert_kernels_identical(owned: &Hypergraph, mapped: &Hypergraph, name: &str) {
    // MS-BFS all-pairs distance statistics (integer accumulators, so
    // equality is exact).
    assert_eq!(
        hypergraph::hyper_distance_stats(owned),
        hypergraph::hyper_distance_stats(mapped),
        "{name}: msbfs stats differ"
    );

    // One-pass k-core decomposition: per-vertex core numbers, the level
    // profile, and the max-core id sets.
    let d_owned = hypergraph::decompose(owned);
    let d_mapped = hypergraph::decompose(mapped);
    assert_eq!(
        d_owned.core_numbers, d_mapped.core_numbers,
        "{name}: core numbers differ"
    );
    assert_eq!(
        d_owned.profile, d_mapped.profile,
        "{name}: core profiles differ"
    );
    assert_eq!(
        core_sets(owned),
        core_sets(mapped),
        "{name}: max-core id sets differ"
    );

    // Connected components: membership arrays and summaries.
    let cc_owned = hypergraph::hypergraph_components(owned);
    let cc_mapped = hypergraph::hypergraph_components(mapped);
    assert_eq!(
        cc_owned.vertex_label, cc_mapped.vertex_label,
        "{name}: vertex component labels differ"
    );
    assert_eq!(
        cc_owned.edge_label, cc_mapped.edge_label,
        "{name}: edge component labels differ"
    );
    assert_eq!(
        cc_owned.summary, cc_mapped.summary,
        "{name}: component summaries differ"
    );

    // Degrees: histograms and per-id values.
    assert_eq!(
        hypergraph::vertex_degree_histogram(owned),
        hypergraph::vertex_degree_histogram(mapped),
        "{name}: vertex degree histogram differs"
    );
    assert_eq!(
        hypergraph::edge_degree_histogram(owned),
        hypergraph::edge_degree_histogram(mapped),
        "{name}: edge degree histogram differs"
    );
    for v in owned.vertices() {
        assert_eq!(owned.vertex_degree(v), mapped.vertex_degree(v));
    }
    for f in owned.edges() {
        assert_eq!(owned.edge_degree(f), mapped.edge_degree(f));
    }
}

#[test]
fn cellzome_twin_kernels_identical_owned_vs_mmap() {
    let h = proteome::cellzome_like(proteome::CELLZOME_SEED).hypergraph;
    let (owned, mapped) = both_storages(&h, "cellzome");
    assert_kernels_identical(&owned, &mapped, "cellzome twin");
    // Sanity pin: the twin reproduces the paper's 6-core.
    assert_eq!(core_sets(&mapped).unwrap().0, 6);
}

#[test]
fn hypergen_config_kernels_identical_owned_vs_mmap() {
    let h = hypergen::uniform_random_hypergraph(3_000, 2_250, 5, bench::SCALED_SEED);
    let (owned, mapped) = both_storages(&h, "hypergen");
    assert_kernels_identical(&owned, &mapped, "hypergen-u3000");
}

#[test]
fn relabeled_hgb_kernels_identical_owned_vs_mmap() {
    // The serving path stores relabeled CSRs; equality must hold there
    // too, and label-invariant statistics must match the unrelabeled
    // original.
    let h = proteome::cellzome_like(proteome::CELLZOME_SEED).hypergraph;
    let r = hypergraph::Relabeling::bfs_order(&h);
    let g = r.apply(&h);
    let path = temp_hgb("relabeled");
    write_hgb_file(&g, Some(&r), &path).unwrap();
    let owned = open_hgb(
        &path,
        HgbOpenOptions {
            mode: HgbOpenMode::Owned,
            verify: true,
        },
    )
    .unwrap();
    let mapped = open_hgb(
        &path,
        HgbOpenOptions {
            mode: HgbOpenMode::Mmap,
            verify: true,
        },
    )
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_kernels_identical(&owned.hypergraph, &mapped.hypergraph, "relabeled cellzome");
    assert_eq!(
        hypergraph::hyper_distance_stats(&mapped.hypergraph),
        hypergraph::hyper_distance_stats(&h),
        "relabeling changed label-invariant distance stats"
    );
    assert_eq!(owned.relabeling, mapped.relabeling);
    assert!(owned.relabeling.is_some());
}
