//! Property-based tests for the hypergraph crate's core invariants.
//!
//! Strategy: random hypergraphs (bounded size), then check that the
//! optimized algorithms agree with the naive reference implementations
//! and that definitional invariants hold.

use proptest::prelude::*;

use hypergraph::naive::{edge_contents, exhaustive_min_cover, naive_cores, naive_kcore};
use hypergraph::reduce::{non_maximal_edges, non_maximal_edges_naive};
use hypergraph::validate::check_structure;
use hypergraph::{
    csr_kcore, greedy_multicover, greedy_vertex_cover, is_multicover, is_vertex_cover,
    pricing_vertex_cover, probe_kcore, BipartiteView, CsrOverlap, Hypergraph, HypergraphBuilder,
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

/// Pin-sets of a standalone sub-hypergraph, translated to original ids.
fn sub_contents(core: &hypergraph::KCore) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = core
        .sub
        .edges()
        .map(|f| {
            core.sub
                .pins(f)
                .iter()
                .map(|v| core.vertices[v.index()].0)
                .collect()
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder always produces a structurally valid dual CSR.
    #[test]
    fn builder_structure_valid(h in arb_hypergraph(12, 10, 6)) {
        check_structure(&h).unwrap();
    }

    /// Overlap-based non-maximality detection agrees with subset testing.
    #[test]
    fn maximality_methods_agree(h in arb_hypergraph(10, 12, 5)) {
        prop_assert_eq!(non_maximal_edges(&h), non_maximal_edges_naive(&h));
    }

    /// The CSR k-core matches the naive fixpoint: identical
    /// surviving vertices and identical surviving edge *contents* (ids may
    /// differ only between identical duplicate edges).
    #[test]
    fn kcore_matches_naive((h, k) in arb_hypergraph(10, 10, 5).prop_flat_map(|h| (Just(h), 0u32..5))) {
        let (nv, ne) = naive_kcore(&h, k);
        let fast = csr_kcore(&h, k);
        prop_assert_eq!(&nv, &fast.vertices, "vertex sets differ at k={}", k);
        prop_assert_eq!(
            edge_contents(&h, &ne, &nv),
            edge_contents(&h, &fast.edges, &fast.vertices),
            "edge contents differ at k={}", k
        );
    }

    /// Every k-core output satisfies its definition: structure valid,
    /// reduced, all degrees >= k, and the standalone sub-hypergraph's
    /// contents match the surviving original edges.
    #[test]
    fn kcore_definition_holds((h, k) in arb_hypergraph(12, 12, 6).prop_flat_map(|h| (Just(h), 1u32..5))) {
        let core = csr_kcore(&h, k);
        check_structure(&core.sub).unwrap();
        prop_assert!(non_maximal_edges(&core.sub).is_empty());
        for v in core.sub.vertices() {
            prop_assert!(core.sub.vertex_degree(v) >= k as usize);
        }
        prop_assert_eq!(edge_contents(&h, &core.edges, &core.vertices).len(), core.sub.num_edges());
        prop_assert_eq!(sub_contents(&core), edge_contents(&h, &core.edges, &core.vertices));
    }

    /// k-cores are nested in content: vertices of the (k+1)-core are a
    /// subset of the k-core's vertices.
    #[test]
    fn kcore_vertices_nested(h in arb_hypergraph(12, 12, 5)) {
        let mut prev: Option<Vec<VertexId>> = None;
        for k in 1..5u32 {
            let core = csr_kcore(&h, k);
            if let Some(prev) = &prev {
                for v in &core.vertices {
                    prop_assert!(prev.contains(v), "vertex {:?} in {}-core but not {}-core", v, k, k-1);
                }
            }
            prev = Some(core.vertices);
        }
    }

    /// The one-pass incremental decomposition agrees with the per-k
    /// naive oracle on every output: level profile, core numbers, max
    /// core ids, and single-k surviving id sets (including inputs with
    /// empty, nested, and duplicate hyperedges).
    #[test]
    fn decompose_matches_per_k_oracle(h in arb_hypergraph(12, 12, 6)) {
        let d = hypergraph::decompose(&h);
        let oracle = naive_cores(&h);
        prop_assert_eq!(&d.profile, &oracle.profile);
        prop_assert_eq!(&d.core_numbers, &oracle.core_numbers);
        prop_assert_eq!(
            d.max_core.map(|c| (c.k, edge_contents(&h, &c.edges, &c.vertices), c.vertices)),
            oracle.max_core().map(|(k, vs, es)| (k, edge_contents(&h, es, vs), vs.to_vec()))
        );
        for (k, (vs, es)) in oracle.levels.iter().enumerate() {
            let fast = csr_kcore(&h, k as u32);
            prop_assert_eq!(&fast.vertices, vs, "k = {}", k);
            prop_assert_eq!(
                edge_contents(&h, &fast.edges, &fast.vertices),
                edge_contents(&h, es, vs),
                "k = {}", k
            );
        }
    }

    /// Greedy cover is valid and within the harmonic bound of the
    /// exhaustive optimum on small instances without empty edges.
    #[test]
    fn greedy_cover_valid_and_bounded(h in arb_hypergraph(10, 8, 4)) {
        prop_assume!(h.edges().all(|f| h.edge_degree(f) > 0));
        let weight = |v: VertexId| 1.0 + (v.0 % 4) as f64;
        let c = greedy_vertex_cover(&h, weight).unwrap();
        prop_assert!(is_vertex_cover(&h, &c.vertices));
        let opt = exhaustive_min_cover(&h, weight).unwrap();
        let opt_w: f64 = opt.iter().map(|&v| weight(v)).sum();
        let hm = hypergraph::cover::harmonic(h.num_edges());
        prop_assert!(c.total_weight <= opt_w * hm.max(1.0) + 1e-9,
            "greedy {} > H_m * opt {}", c.total_weight, opt_w * hm);
    }

    /// Pricing cover is valid; its dual bound never exceeds the true
    /// optimum; its weight is within Δ_F of the dual bound.
    #[test]
    fn pricing_cover_sound(h in arb_hypergraph(10, 8, 4)) {
        prop_assume!(h.edges().all(|f| h.edge_degree(f) > 0));
        let weight = |v: VertexId| 1.0 + (v.0 % 3) as f64;
        let p = pricing_vertex_cover(&h, weight).unwrap();
        prop_assert!(is_vertex_cover(&h, &p.cover.vertices));
        let opt = exhaustive_min_cover(&h, weight).unwrap();
        let opt_w: f64 = opt.iter().map(|&v| weight(v)).sum();
        prop_assert!(p.dual_lower_bound <= opt_w + 1e-9);
        let df = h.max_edge_degree() as f64;
        prop_assert!(p.cover.total_weight <= df * p.dual_lower_bound + 1e-9);
    }

    /// Multicover with requirement min(2, d(f)) is feasible and validates.
    #[test]
    fn multicover_valid(h in arb_hypergraph(10, 8, 5)) {
        let req = |f: hypergraph::EdgeId| (h.edge_degree(f) as u32).min(2);
        let mc = greedy_multicover(&h, |_| 1.0, req).unwrap();
        prop_assert!(is_multicover(&h, &mc.vertices, req));
        // No vertex chosen twice.
        let mut seen = std::collections::HashSet::new();
        for v in &mc.vertices {
            prop_assert!(seen.insert(*v));
        }
    }

    /// Multicover with all requirements 1 equals a plain cover in
    /// validity (not necessarily the same vertices).
    #[test]
    fn multicover_r1_is_cover(h in arb_hypergraph(10, 8, 4)) {
        prop_assume!(h.edges().all(|f| h.edge_degree(f) > 0));
        let mc = greedy_multicover(&h, |_| 1.0, |_| 1).unwrap();
        prop_assert!(is_vertex_cover(&h, &mc.vertices));
    }

    /// Hypergraph BFS distances equal half the bipartite BFS distances.
    #[test]
    fn distances_match_bipartite(h in arb_hypergraph(12, 10, 5)) {
        let bv = BipartiteView::new(&h);
        for s in h.vertices() {
            let hd = hypergraph::hyper_distances(&h, s);
            let bd = graphcore::bfs_distances(&bv.graph, bv.vertex_node(s));
            for v in h.vertices() {
                if hd[v.index()] == hypergraph::path::UNREACHABLE {
                    prop_assert_eq!(bd[v.index()], graphcore::UNREACHABLE);
                } else {
                    prop_assert_eq!(2 * hd[v.index()], bd[v.index()]);
                }
            }
        }
    }

    /// The bidirectional pair search answers every (s, t) exactly as the
    /// single-source BFS oracle does. Sparse draws bring isolated
    /// vertices and several components; empty and duplicate edges occur.
    #[test]
    fn pair_distance_matches_single_source_oracle(h in arb_hypergraph(30, 24, 4)) {
        for s in h.vertices() {
            let dist = hypergraph::hyper_distances(&h, s);
            for t in h.vertices() {
                let want = Some(dist[t.index()]).filter(|&d| d != hypergraph::path::UNREACHABLE);
                prop_assert_eq!(hypergraph::hyper_distance(&h, s, t), want, "s={:?} t={:?}", s, t);
            }
        }
    }

    /// `.hgr` round-trips exactly.
    #[test]
    fn hgr_roundtrip(h in arb_hypergraph(12, 10, 6)) {
        let text = hypergraph::io::write_hgr(&h);
        let h2 = hypergraph::io::read_hgr(&text).unwrap();
        prop_assert_eq!(h.num_vertices(), h2.num_vertices());
        prop_assert_eq!(h.num_edges(), h2.num_edges());
        for f in h.edges() {
            prop_assert_eq!(h.pins(f), h2.pins(f));
        }
    }

    /// Reduce is idempotent and output contains no non-maximal edge.
    #[test]
    fn reduce_idempotent(h in arb_hypergraph(10, 12, 5)) {
        let (r1, _) = hypergraph::reduce(&h);
        prop_assert!(non_maximal_edges(&r1).is_empty());
        let (r2, _) = hypergraph::reduce(&r1);
        prop_assert_eq!(r1.num_edges(), r2.num_edges());
        prop_assert_eq!(r1.num_pins(), r2.num_pins());
    }

    /// Components partition vertices and edges; summaries add up.
    #[test]
    fn components_partition(h in arb_hypergraph(12, 10, 5)) {
        let cc = hypergraph::hypergraph_components(&h);
        let vsum: usize = cc.summary.iter().map(|s| s.num_vertices).sum();
        let esum: usize = cc.summary.iter().map(|s| s.num_edges).sum();
        prop_assert_eq!(vsum, h.num_vertices());
        prop_assert_eq!(esum, h.num_edges());
        // Every edge's label matches its members' labels.
        for f in h.edges() {
            for &v in h.pins(f) {
                prop_assert_eq!(cc.edge_label[f.index()], cc.vertex_label[v.index()]);
            }
        }
    }

    /// 2-uniform hypergraph k-core (k >= 2) has the same vertex set as the
    /// plain-graph k-core of the corresponding simple graph.
    #[test]
    fn two_uniform_matches_graph_kcore(
        (n, edges, k) in (2usize..14).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..30),
            2u32..5,
        ))
    ) {
        // Build a *simple* pair set (drop loops, dedup) so the hypergraph
        // has no duplicate edges and matches the simple graph exactly.
        let mut pairs: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();

        let mut hb = HypergraphBuilder::new(n);
        let mut gb = graphcore::GraphBuilder::new(n);
        for &(a, b) in &pairs {
            hb.add_edge([a, b]);
            gb.add_edge(graphcore::NodeId(a), graphcore::NodeId(b));
        }
        let h = hb.build();
        let g = gb.build();

        let hcore = csr_kcore(&h, k);
        let gdecomp = graphcore::core_decomposition(&g);
        let gvertices: Vec<u32> = gdecomp
            .k_core_nodes(k)
            .into_iter()
            .map(|u| u.0)
            .collect();
        let hvertices: Vec<u32> = hcore.vertices.iter().map(|v| v.0).collect();
        prop_assert_eq!(hvertices, gvertices, "k = {}", k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The subset-probe k-core == the naive oracle (vertices and edge
    /// contents).
    #[test]
    fn par_kcore_equivalent((h, k) in arb_hypergraph(12, 12, 6).prop_flat_map(|h| (Just(h), 0u32..5))) {
        let (nv, ne) = naive_kcore(&h, k);
        let probe = probe_kcore(&h, k);
        prop_assert_eq!(&nv, &probe.vertices, "k = {}", k);
        prop_assert_eq!(
            edge_contents(&h, &ne, &nv),
            edge_contents(&h, &probe.edges, &probe.vertices),
            "k = {}", k
        );
    }

    /// The CSR overlap table == brute-force pin-set intersection.
    #[test]
    fn par_overlap_equivalent(h in arb_hypergraph(12, 10, 5)) {
        let ov = CsrOverlap::build(&h);
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
