//! Cross-validation of the k-core engine against the naive oracle, the
//! plain-graph core and reference semantics, on realistic inputs.

use hypergraph::naive::{edge_contents, naive_cores, naive_kcore};
use hypergraph::{csr_kcore, max_core, Hypergraph};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

#[test]
fn optimized_matches_naive_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    for k in [2u32, 6] {
        let fast = csr_kcore(&h, k);
        let (nv, ne) = naive_kcore(&h, k);
        assert_eq!(fast.vertices, nv, "k = {k}");
        assert_eq!(
            edge_contents(&h, &fast.edges, &fast.vertices),
            edge_contents(&h, &ne, &nv),
            "k = {k}"
        );
    }
}

#[test]
fn matrix_hypergraph_cores_validate() {
    let m = matrixmarket::fem_mesh_2d(24, 24, 0.1, 7);
    let h = matrixmarket::row_net(&m);
    let core = max_core(&h).expect("non-empty");
    hypergraph::validate::check_kcore_invariant(&core.sub_hypergraph(&h), core.k)
        .expect("invariant");
    // One deeper is empty.
    assert!(csr_kcore(&h, core.k + 1).is_empty());
}

#[test]
fn two_uniform_hypergraph_equals_graph_core_on_dip() {
    // Build a 2-uniform hypergraph from the DIP-yeast-like PPI graph and
    // compare its hypergraph k-core with the plain-graph k-core.
    let g = proteome::dip_yeast_like(2003);
    let mut b = hypergraph::HypergraphBuilder::new(g.num_nodes());
    for (u, v) in g.edges() {
        b.add_edge([u.0, v.0]);
    }
    let h = b.build();

    let gd = graphcore::core_decomposition(&g);
    for k in [2u32, 5, gd.max_core] {
        let hv: Vec<u32> = csr_kcore(&h, k).vertices.iter().map(|v| v.0).collect();
        let gv: Vec<u32> = gd.k_core_nodes(k).iter().map(|u| u.0).collect();
        assert_eq!(hv, gv, "k = {k}");
    }
    // And the max core depth agrees.
    assert_eq!(max_core(&h).unwrap().k, gd.max_core);
}

#[test]
fn kcore_nested_on_cellzome() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let mut prev: Option<Vec<hypergraph::VertexId>> = None;
    for k in 1..=7u32 {
        let core = csr_kcore(&h, k);
        if let Some(prev) = &prev {
            let prev: std::collections::HashSet<_> = prev.iter().collect();
            assert!(
                core.vertices.iter().all(|v| prev.contains(v)),
                "{k}-core not nested in {}-core",
                k - 1
            );
        }
        prev = Some(core.vertices);
    }
}

/// Full agreement between both decompositions (the incremental CSR
/// sweep and the subset-probe sweep) and the per-k naive oracle on one
/// instance: profile, core numbers, max core, and per-k surviving
/// vertices and edge contents from `csr_kcore`.
fn assert_decompose_matches_oracle(h: &Hypergraph, label: &str) {
    let oracle = naive_cores(h);
    for d in [hypergraph::decompose(h), hypergraph::probe_decompose(h)] {
        assert_eq!(d.profile, oracle.profile, "{label}");
        assert_eq!(d.core_numbers, oracle.core_numbers, "{label}");
        assert_eq!(
            d.max_core
                .map(|c| (c.k, edge_contents(h, &c.edges, &c.vertices), c.vertices)),
            oracle
                .max_core()
                .map(|(k, vs, es)| (k, edge_contents(h, es, vs), vs.to_vec())),
            "{label}: max core"
        );
    }
    for (k, (vs, es)) in oracle.levels.iter().enumerate() {
        let fast = csr_kcore(h, k as u32);
        assert_eq!(&fast.vertices, vs, "{label} k = {k}");
        assert_eq!(
            edge_contents(h, &fast.edges, &fast.vertices),
            edge_contents(h, es, vs),
            "{label} k = {k}"
        );
    }
}

#[test]
fn decompose_matches_oracle_on_cellzome_and_hypergen() {
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    assert_decompose_matches_oracle(&h, "cellzome");
    for seed in [1u64, 7] {
        let h = hypergen::uniform_random_hypergraph(400, 500, 5, seed);
        assert_decompose_matches_oracle(&h, &format!("hypergen-u400 seed {seed}"));
    }
    let h = hypergen::planted_core_hypergraph(12, 18, 9, 40, 3);
    assert_decompose_matches_oracle(&h, "planted-core");
}

#[test]
fn decompose_matches_oracle_on_table1_mesh() {
    let m = matrixmarket::fem_mesh_2d(24, 24, 0.1, 7);
    let h = matrixmarket::row_net(&m);
    assert_decompose_matches_oracle(&h, "fem-mesh-24");
}

#[test]
fn decompose_reports_paper_core_on_cellzome() {
    // Reproduction guard: the paper's Table 1 row for the Cellzome 2004
    // network — a 6-core with 41 proteins and 54 complexes — must come
    // out of the new engine unchanged.
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let d = hypergraph::decompose(&h);
    assert_eq!(d.profile.last().copied(), Some((6, 41, 54)));
    let mc = d.max_core.expect("cellzome has a non-empty max core");
    assert_eq!(mc.k, 6);
    assert_eq!(mc.vertices.len(), 41);
    assert_eq!(mc.edges.len(), 54);
    assert_eq!(
        d.core_numbers.iter().filter(|&&c| c >= 6).count(),
        41,
        "core numbers must place exactly the 41 max-core proteins at 6"
    );
    let six = hypergraph::csr_kcore(&h, 6);
    assert_eq!((six.vertices.len(), six.edges.len()), (41, 54));
}

#[test]
fn reduce_then_kcore_equals_kcore() {
    // Reducing first must not change the k-core (the algorithm's initial
    // sweep does the same thing).
    let h = cellzome_like(CELLZOME_SEED).hypergraph;
    let (reduced, kept) = hypergraph::reduce(&h);
    for k in [1u32, 3, 6] {
        let direct = csr_kcore(&h, k);
        let via_reduce = csr_kcore(&reduced, k);
        assert_eq!(direct.vertices, via_reduce.vertices, "k = {k}");
        // Translate reduced edge ids back to original ids.
        let translated: Vec<hypergraph::EdgeId> =
            via_reduce.edges.iter().map(|f| kept[f.index()]).collect();
        assert_eq!(direct.edges, translated, "k = {k}");
    }
}
