//! MatrixMarket → hypergraph → k-core integration: text round-trips,
//! model duality, and structural sanity of the synthetic Table 1 suite.

use hypergraph::max_core;
use matrixmarket::{column_net, parse_mtx, row_net, table1_suite, write_mtx, CoordMatrix};

#[test]
fn mtx_roundtrip_preserves_hypergraph() {
    let m = matrixmarket::tokamak_like(200, 4.0, 9);
    let text = write_mtx(&m);
    let m2 = parse_mtx(&text).expect("parse");
    assert_eq!(m, m2);
    let h1 = row_net(&m);
    let h2 = row_net(&m2);
    assert_eq!(h1.num_pins(), h2.num_pins());
    for f in h1.edges() {
        assert_eq!(h1.pins(f), h2.pins(f));
    }
}

#[test]
fn row_and_column_nets_are_transposes() {
    let m = matrixmarket::fem_mesh_2d(12, 9, 0.2, 4);
    let r = row_net(&m);
    let c = column_net(&m);
    assert_eq!(r.num_vertices(), c.num_edges());
    assert_eq!(r.num_edges(), c.num_vertices());
    assert_eq!(r.num_pins(), c.num_pins());
    // Incidence (i, j) in row-net == incidence (j, i) in column-net.
    for f in r.edges() {
        for &v in r.pins(f) {
            assert!(c
                .pins(hypergraph::EdgeId(v.0))
                .contains(&hypergraph::VertexId(f.0)));
        }
    }
}

#[test]
fn symmetric_matrix_gives_symmetric_nets() {
    // stiffness_3d emits both (i,j) and (j,i); row and column nets of a
    // structurally symmetric matrix have identical pin multisets.
    let m = matrixmarket::stiffness_3d(5, 5, 5);
    let r = row_net(&m);
    let c = column_net(&m);
    for f in r.edges() {
        assert_eq!(r.pins(f), c.pins(f));
    }
}

#[test]
fn table1_suite_cores_are_stable() {
    // Pin the suite's core depths: these values are what EXPERIMENTS.md
    // reports for E4; regressions in generators or the core algorithm
    // show up here.
    let expected: &[(&str, u32)] = &[
        ("bfw782s", 17),
        ("fdp2880s", 5),
        ("stk10648s", 9),
        ("utm5940m", 19),
        ("fdp22500h", 5),
    ];
    for ((name, m), &(ename, ek)) in table1_suite().iter().zip(expected) {
        assert_eq!(*name, ename);
        // The two big meshes take a second or two in debug; trim the suite
        // for test time by sampling the smaller three fully.
        if m.nrows > 6000 {
            continue;
        }
        let h = row_net(m);
        let core = max_core(&h).expect("non-empty");
        assert_eq!(core.k, ek, "{name}");
        hypergraph::validate::check_kcore_invariant(&core.sub_hypergraph(&h), core.k)
            .expect("invariant");
    }
}

#[test]
fn pattern_mtx_loads_as_hypergraph() {
    let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                4 4 4\n1 1\n2 1\n3 2\n4 3\n";
    let m = parse_mtx(text).expect("parse");
    let h = row_net(&m);
    assert_eq!(h.num_vertices(), 4);
    assert_eq!(h.num_edges(), 4);
    // Symmetric expansion: (2,1) implies (1,2).
    assert_eq!(h.num_pins(), 7);
}

#[test]
fn empty_rows_do_not_break_cores() {
    let m = CoordMatrix::from_triplets(5, 5, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
    let h = row_net(&m);
    assert_eq!(h.num_edges(), 5);
    // Empty hyperedges are dropped by the core computation.
    let core = hypergraph::csr_kcore(&h, 1);
    assert!(core.edges.iter().all(|f| h.edge_degree(*f) > 0));
}

#[test]
fn probe_and_csr_pin_counts_agree_on_fdp2880s() {
    // A Table 1 row net where a vertex below k from the start also sits
    // in a hyperedge the reduce deletes: queued twice, it once cost the
    // probe engine 15 pins of the 3-core.
    let (_, m) = table1_suite()
        .into_iter()
        .find(|(name, _)| *name == "fdp2880s")
        .expect("fdp2880s in the suite");
    let h = row_net(&m);
    let probe = hypergraph::probe_kcore(&h, 3);
    let csr = hypergraph::csr_kcore(&h, 3);
    assert_eq!(probe.vertices, csr.vertices);
    assert_eq!(probe.edges.len(), csr.edges.len());
    assert_eq!(probe.pins, 21_317);
    assert_eq!(csr.pins, 21_317);
    assert_eq!(probe.sub_hypergraph(&h).num_pins(), 21_317);
}
