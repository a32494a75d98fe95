//! Property-based and corruption tests for the `.hgb` binary format:
//! any hypergraph must survive `Hypergraph` → `.hgb` → `Hypergraph`
//! bit-for-bit (with and without a baked-in relabeling, through both
//! the owned decoder and the mmap path), and damaged files must fail
//! with structured errors carrying byte offsets — never a panic or a
//! silently wrong graph.

use proptest::prelude::*;

use hypergraph::hgb::{open_hgb, write_hgb, write_hgb_file, HgbOpenMode, HgbOpenOptions};
use hypergraph::{
    hyper_distance, hypergraph_components, Hypergraph, HypergraphBuilder, Relabeling, StorageKind,
    VertexId,
};

/// Random hypergraph: up to `max_v` vertices, up to `max_e` edges of
/// size 0..=max_size (so empty and duplicate edges do occur).
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

fn encode(h: &Hypergraph, r: Option<&Relabeling>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_hgb(h, r, &mut buf).unwrap();
    buf
}

fn decode_owned(bytes: &[u8]) -> hypergraph::HgbDataset {
    // Owned decode goes through a temp file so the whole public API is
    // exercised; `verify: true` runs the full structural validation.
    let path = temp_path("owned");
    std::fs::write(&path, bytes).unwrap();
    let ds = open_hgb(
        &path,
        HgbOpenOptions {
            mode: HgbOpenMode::Owned,
            verify: true,
        },
    )
    .unwrap();
    std::fs::remove_file(&path).unwrap();
    ds
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "hgb-prop-{}-{}-{}.hgb",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_identical(a: &Hypergraph, b: &Hypergraph) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.num_pins(), b.num_pins());
    for f in a.edges() {
        assert_eq!(a.pins(f), b.pins(f));
    }
    for v in a.vertices() {
        assert_eq!(a.edges_of(v), b.edges_of(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_owned(h in arb_hypergraph(40, 30, 8)) {
        let ds = decode_owned(&encode(&h, None));
        prop_assert!(ds.relabeling.is_none());
        assert_identical(&h, &ds.hypergraph);
        prop_assert_eq!(ds.max_vertex_degree, h.max_vertex_degree());
        prop_assert_eq!(ds.max_edge_degree, h.max_edge_degree());
    }

    #[test]
    fn roundtrip_with_relabeling(h in arb_hypergraph(30, 25, 6)) {
        let r = Relabeling::bfs_order(&h);
        let g = r.apply(&h);
        let ds = decode_owned(&encode(&g, Some(&r)));
        let r2 = ds.relabeling.expect("relabeling sections survive");
        prop_assert_eq!(&r, &r2);
        assert_identical(&g, &ds.hypergraph);
        // The recovered mapping still translates back to the original:
        // per-vertex degrees unmapped through it match `h`'s.
        let new_degs: Vec<usize> = ds.hypergraph.vertices()
            .map(|v| ds.hypergraph.vertex_degree(v)).collect();
        let unmapped = r2.unmap_vertex_values(&new_degs);
        let original: Vec<usize> = h.vertices().map(|v| h.vertex_degree(v)).collect();
        prop_assert_eq!(unmapped, original);
    }

    #[cfg(unix)]
    #[test]
    fn roundtrip_mmap(h in arb_hypergraph(30, 25, 6)) {
        let path = temp_path("mmap");
        write_hgb_file(&h, None, &path).unwrap();
        let ds = open_hgb(&path, HgbOpenOptions { mode: HgbOpenMode::Mmap, verify: true }).unwrap();
        prop_assert_eq!(ds.hypergraph.storage_kind(), StorageKind::Mapped);
        assert_identical(&h, &ds.hypergraph);
        std::fs::remove_file(&path).unwrap();
    }

    /// Single-byte corruption anywhere in the header region is caught
    /// (magic, version, counts, section table, or the checksum itself).
    #[test]
    fn header_corruption_never_panics(
        h in arb_hypergraph(20, 15, 5),
        byte in 0usize..64,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode(&h, None);
        let target = byte % bytes.len().min(64);
        bytes[target] ^= flip;
        let path = temp_path("corrupt");
        std::fs::write(&path, &bytes).unwrap();
        let result = open_hgb(&path, HgbOpenOptions { mode: HgbOpenMode::Owned, verify: true });
        std::fs::remove_file(&path).unwrap();
        // The flip XORs a nonzero value into checksummed header bytes,
        // so the open must fail (magic/version checks fire first for
        // the leading bytes; the FNV checksum catches the rest).
        prop_assert!(result.is_err(), "corrupting header byte {target} went unnoticed");
    }

    /// Truncation at any point is rejected with a byte offset.
    #[test]
    fn truncation_never_panics(h in arb_hypergraph(20, 15, 5), frac in 0.0f64..1.0) {
        let bytes = encode(&h, None);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let path = temp_path("trunc");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = open_hgb(&path, HgbOpenOptions { mode: HgbOpenMode::Owned, verify: true })
            .expect_err("truncated file must not open");
        std::fs::remove_file(&path).unwrap();
        prop_assert!(err.offset.is_some(), "truncation error lacks a byte offset: {err}");
    }
}

/// Corrupting a pin inside the data sections (past the checksummed
/// header) is caught by `verify: true` structural validation.
#[test]
fn data_corruption_caught_by_verify() {
    let mut b = HypergraphBuilder::new(6);
    b.add_edge([0, 1, 2]);
    b.add_edge([2, 3, 4, 5]);
    let h = b.build();
    let bytes = encode(&h, None);
    // Stomp PIN_LIST's first entry with an out-of-range vertex id.
    let mut corrupted = bytes.clone();
    let pin_list_off = section_offset(&bytes, hypergraph::hgb::section::PIN_LIST);
    corrupted[pin_list_off..pin_list_off + 4].copy_from_slice(&999u32.to_le_bytes());
    let path = std::env::temp_dir().join(format!("hgb-datacorrupt-{}.hgb", std::process::id()));
    std::fs::write(&path, &corrupted).unwrap();
    let err = open_hgb(
        &path,
        HgbOpenOptions {
            mode: HgbOpenMode::Owned,
            verify: true,
        },
    )
    .expect_err("out-of-range pin must fail verification");
    std::fs::remove_file(&path).unwrap();
    assert!(
        err.message.contains("structural validation failed"),
        "{err}"
    );
}

/// Byte offset of section `id`'s data, read from the section table
/// (entries of `{id, byte_offset, byte_len}` u64s after the fixed
/// header fields).
fn section_offset(bytes: &[u8], id: u64) -> usize {
    let fixed = 4 + 4 + 8 * 7;
    let count = u64::from_le_bytes(bytes[fixed - 8..fixed].try_into().unwrap()) as usize;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    (0..count)
        .map(|i| fixed + i * 24)
        .find(|&entry| word(entry) == id)
        .map(|entry| word(entry + 8) as usize)
        .unwrap_or_else(|| panic!("no section {id}"))
}

const BOTH_MODES: [HgbOpenMode; 2] = [HgbOpenMode::Mmap, HgbOpenMode::Owned];

/// A huge offset inside either CSR offset array is an error under
/// `verify`, not a slice panic in the structural validator.
#[test]
fn non_monotone_offsets_fail_verify_in_both_modes() {
    use hypergraph::hgb::section;
    let h = hypergraph::io::read_hgr("2 3\n1 2\n2 3\n").unwrap();
    let path = temp_path("offsets");
    write_hgb_file(&h, None, &path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    for id in [section::EDGE_OFFSETS, section::VERTEX_OFFSETS] {
        let entry = section_offset(&clean, id) + 4;
        let mut bytes = clean.clone();
        bytes[entry..entry + 4].copy_from_slice(&0x7fff_fff0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        for mode in BOTH_MODES {
            let err = open_hgb(&path, HgbOpenOptions { mode, verify: true })
                .expect_err("a decreasing offset must fail verification");
            assert!(
                err.message.contains("offsets decrease"),
                "{id} {mode:?}: {err}"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Overwriting a few bytes anywhere in a valid file, data sections
    /// included, never panics `open_hgb` with `verify` on, in either
    /// mode; a file that still opens answers a kernel without panicking.
    #[test]
    fn byte_mutations_never_panic_verified_open(
        h in arb_hypergraph(20, 15, 5),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..=4),
    ) {
        let mut bytes = encode(&h, None);
        let mutations: Vec<(usize, u8)> =
            mutations.into_iter().map(|(at, b)| (at % bytes.len(), b)).collect();
        for &(at, b) in &mutations {
            bytes[at] = b;
        }
        let path = temp_path("mutate");
        std::fs::write(&path, &bytes).unwrap();
        for mode in BOTH_MODES {
            let opened = std::panic::catch_unwind(|| {
                let g = open_hgb(&path, HgbOpenOptions { mode, verify: true }).ok()?.hypergraph;
                let n = g.num_vertices() as u32;
                let far = (n > 0).then(|| hyper_distance(&g, VertexId(0), VertexId(n - 1)));
                Some((hypergraph_components(&g).count(), far))
            });
            if opened.is_err() {
                let edges: Vec<&[VertexId]> = h.edges().map(|f| h.pins(f)).collect();
                panic!(
                    "{mode:?} open or kernel panicked: {} vertices, edges {edges:?}, \
                     mutations (offset, byte) {mutations:?}",
                    h.num_vertices()
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
