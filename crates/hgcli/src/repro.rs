//! The paper-reproduction harness: one function per table/figure
//! (E1–E8) plus the ablations (A1–A4) from DESIGN.md §4.
//!
//! Each function regenerates its artifact from scratch — fixed seeds,
//! synthetic calibrated inputs — and renders a report that places our
//! measured value next to the paper's reported value wherever the paper
//! reports one. `hg repro all` runs everything; EXPERIMENTS.md archives
//! the output and discusses the deltas.

use graphcore::core_decomposition;
use hgobs::{format_time, timed};
use hypergraph::projections::{space_report, SpaceReport};
use hypergraph::{
    fit_power_law, hyper_distance_stats, hypergraph_components, max_core, vertex_degree_histogram,
};
use matrixmarket::{row_net, table1_suite};
use proteome::annotations::{annotate, core_summary};
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};
use proteome::{bait_selection_report, dip_fly_like, dip_yeast_like, fig2_graph};

use crate::cells;
use crate::table::Table;

/// E1 — §2 network statistics of the yeast protein complex hypergraph.
pub fn e1_section2_stats() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;
    let cc = hypergraph_components(h);
    let big = cc.largest().expect("non-empty");
    let (giant, _, _) = cc.extract(h, big);
    let dist = hyper_distance_stats(&giant);
    let hist = vertex_degree_histogram(h);
    let adh1 = h.argmax_vertex_degree().expect("non-empty");

    let mut t = Table::new(&["statistic", "paper", "measured"]);
    t.row(cells!["proteins |V|", 1361, h.num_vertices()]);
    t.row(cells!["complexes |F|", 232, h.num_edges()]);
    t.row(cells!["connected components", 33, cc.count()]);
    t.row(cells![
        "largest component proteins",
        1263,
        cc.summary[big].num_vertices
    ]);
    t.row(cells![
        "largest component complexes",
        99,
        cc.summary[big].num_edges
    ]);
    t.row(cells!["degree-1 proteins", 846, hist[1]]);
    t.row(cells![
        "max protein degree",
        "21 (ADH1)",
        format!("{} ({})", h.vertex_degree(adh1), ds.names[adh1.index()])
    ]);
    t.row(cells!["diameter", 6, dist.diameter]);
    t.row(cells![
        "average path length",
        2.568,
        format!("{:.3}", dist.average_path_length)
    ]);
    format!(
        "E1: yeast protein complex hypergraph, section 2 statistics\n{}",
        t.render()
    )
}

/// E2 — Fig. 1: power-law fit of the protein degree distribution.
pub fn e2_fig1_powerlaw() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let hist = vertex_degree_histogram(&ds.hypergraph);
    let fit = fit_power_law(&hist).expect("fit");

    let mut out = String::from("E2: Fig. 1 — protein degree distribution, log-log fit\n");
    let mut t = Table::new(&["quantity", "paper", "measured"]);
    t.row(cells!["log10 c", 3.161, format!("{:.3}", fit.log10_c)]);
    t.row(cells!["gamma", 2.528, format!("{:.3}", fit.gamma)]);
    t.row(cells!["R^2", 0.963, format!("{:.3}", fit.r_squared)]);
    t.row(cells!["points", "-", fit.points]);
    out.push_str(&t.render());

    out.push_str("\ndegree  frequency  predicted\n");
    for (d, &freq) in hist.iter().enumerate().skip(1).filter(|(_, &f)| f > 0) {
        out.push_str(&format!(
            "{:>6}  {:>9}  {:>9.1}\n",
            d,
            freq,
            fit.predict(d as f64)
        ));
    }
    out
}

/// E3 — Fig. 2: the k-core of a graph (illustration example).
pub fn e3_fig2_graph_core() -> String {
    let g = fig2_graph();
    let d = core_decomposition(&g);
    let profile = d.core_size_profile();

    let mut out = String::from("E3: Fig. 2 — k-core of the illustration graph\n");
    let mut t = Table::new(&["k", "nodes in k-core"]);
    for (k, &size) in profile.iter().enumerate() {
        t.row(cells![k, size]);
    }
    t.row(cells![profile.len(), 0]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "max core: {} (paper: 3); 1-core = whole graph: {}; 2-core == 3-core: {}; 4-core empty: {}\n",
        d.max_core,
        profile[1] == g.num_nodes(),
        d.k_core_nodes(2) == d.k_core_nodes(3),
        d.k_core_nodes(4).is_empty(),
    ));
    out
}

/// E4 — Table 1: hypergraph statistics and maximum cores, Cellzome plus
/// the synthetic Matrix-Market-style suite.
pub fn e4_table1() -> String {
    let mut t = Table::new(&[
        "hypergraph",
        "|V|",
        "|F|",
        "|E|",
        "dV",
        "dF",
        "d2F",
        "max core",
        "core |V|",
        "core |F|",
        "time",
    ]);

    let mut add_row = |name: &str, h: &hypergraph::Hypergraph| {
        let d2f = hypergraph::CsrOverlap::build(h).max_d2_edge();
        // The paper's Fig. 4 by name, so the time column measures it.
        let (core, secs) = timed(|| hypergraph::decompose(h).max_core);
        let (k, cv, ce) = core
            .map(|c| (c.k, c.vertices.len(), c.edges.len()))
            .unwrap_or((0, 0, 0));
        t.row(cells![
            name,
            h.num_vertices(),
            h.num_edges(),
            h.num_pins(),
            h.max_vertex_degree(),
            h.max_edge_degree(),
            d2f,
            k,
            cv,
            ce,
            format_time(secs)
        ]);
    };

    let ds = cellzome_like(CELLZOME_SEED);
    add_row("cellzome", &ds.hypergraph);
    for (name, m) in table1_suite() {
        let h = row_net(&m);
        add_row(name, &h);
    }
    format!(
        "E4: Table 1 — maximum cores of Cellzome and scientific-computing hypergraphs\n\
         (paper's Cellzome row: max core 6, core 41 proteins / 54 complexes, 0.47s on a 2 GHz Xeon)\n{}",
        t.render()
    )
}

/// E5 — §3: the core proteome and its annotation enrichment.
pub fn e5_core_proteome() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let (core, secs) = timed(|| max_core(&ds.hypergraph).expect("non-empty"));
    let ann = annotate(&ds, CELLZOME_SEED);
    let s = core_summary(&ann, &core.vertices);

    let mut t = Table::new(&["quantity", "paper", "measured"]);
    t.row(cells!["max core k", 6, core.k]);
    t.row(cells!["core proteins", 41, core.vertices.len()]);
    t.row(cells!["core complexes", 54, core.edges.len()]);
    t.row(cells!["unknown / unknown function", 9, s.core_unknown]);
    t.row(cells!["known proteins", 32, s.core_known]);
    t.row(cells!["essential among known", 22, s.core_known_essential]);
    t.row(cells!["with homologs", 24, s.core_with_homolog]);
    t.row(cells![
        "homologs among unknown",
        3,
        s.core_unknown_with_homolog
    ]);
    format!(
        "E5: core proteome of the yeast hypergraph (k-core computed in {})\n{}\
         essentiality enrichment vs genome (878/4036): fold {:.2}, hypergeometric p = {:.2e}\n",
        format_time(secs),
        t.render(),
        s.essential_enrichment.fold,
        s.essential_enrichment.p_value
    )
}

/// E6 — §3: DIP protein-interaction-graph baselines.
pub fn e6_dip_baselines() -> String {
    let mut t = Table::new(&[
        "network",
        "proteins",
        "paper max core",
        "measured max core",
        "paper core size",
        "measured core size",
        "time",
    ]);
    for (name, g, pk, psz) in [
        ("DIP yeast (Nov 2003)", dip_yeast_like(2003), 10u32, 33usize),
        ("DIP drosophila", dip_fly_like(2003), 8, 577),
    ] {
        let (d, secs) = timed(|| core_decomposition(&g));
        t.row(cells![
            name,
            g.num_nodes(),
            pk,
            d.max_core,
            psz,
            d.max_core_nodes().len(),
            format_time(secs)
        ]);
    }
    format!(
        "E6: plain-graph maximum cores of DIP-calibrated PPI networks\n{}",
        t.render()
    )
}

/// E7 — §4.2: bait selection by vertex covers.
pub fn e7_covers() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let (r, secs) = timed(|| bait_selection_report(&ds));

    let mut t = Table::new(&[
        "strategy",
        "baits (paper)",
        "baits",
        "avg degree (paper)",
        "avg degree",
    ]);
    t.row(cells![
        "greedy cover, unit weights",
        109,
        r.unweighted.count,
        3.7,
        format!("{:.2}", r.unweighted.average_degree)
    ]);
    t.row(cells![
        "greedy cover, degree^2 weights",
        233,
        r.degree_squared.count,
        1.14,
        format!("{:.2}", r.degree_squared.average_degree)
    ]);
    t.row(cells![
        "greedy 2-multicover (229 complexes)",
        558,
        r.multicover2.count,
        1.74,
        format!("{:.2}", r.multicover2.average_degree)
    ]);
    t.row(cells![
        "Cellzome experiment (reference)",
        589,
        "-",
        1.85,
        "-"
    ]);
    format!(
        "E7: bait selection via hypergraph vertex covers (computed in {})\n{}\
         note: the paper's 558-bait multicover exceeds the 2x229 = 458 greedy\n\
         selection bound; see EXPERIMENTS.md E7 for the discrepancy analysis.\n",
        format_time(secs),
        t.render()
    )
}

/// E8 — Fig. 3: Pajek export of B(H) with maximum-core colouring.
/// Writes `<base>.net` and `<base>.clu`; returns a summary.
pub fn e8_pajek(base: &std::path::Path) -> std::io::Result<String> {
    let ds = cellzome_like(CELLZOME_SEED);
    let core = max_core(&ds.hypergraph).expect("non-empty");
    let export = hypergraph::pajek::export_fig3(
        &ds.hypergraph,
        Some(&ds.names),
        &core.vertices,
        &core.edges,
    );
    let net_path = base.with_extension("net");
    let clu_path = base.with_extension("clu");
    std::fs::write(&net_path, &export.net)?;
    std::fs::write(&clu_path, &export.clu)?;
    Ok(format!(
        "E8: Fig. 3 — wrote {} ({} nodes, {} edges) and {} (4 colour classes:\n\
         0 protein, 1 complex, 2 core protein, 3 core complex)\n",
        net_path.display(),
        ds.hypergraph.num_vertices() + ds.hypergraph.num_edges(),
        ds.hypergraph.num_pins(),
        clu_path.display(),
    ))
}

/// E9 — extension: simulate the TAP experiment (§1.1) and measure the
/// reliability improvement the paper's multicover argues for (§4).
pub fn e9_tap_reliability() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;
    let report = bait_selection_report(&ds);
    let cfg = proteome::TapConfig {
        reproducibility: 0.7,
        detection: 0.95,
    };
    let trials = 20u64;

    let mut t = Table::new(&[
        "bait strategy",
        "baits",
        "targeted",
        "recovery rate",
        "theory",
        "member recall",
    ]);
    for (name, baits, r_theory) in [
        (
            "greedy cover (unit)",
            &report.unweighted.cover.vertices,
            proteome::expected_recovery(cfg.reproducibility, 1),
        ),
        (
            "greedy cover (degree^2)",
            &report.degree_squared.cover.vertices,
            proteome::expected_recovery(cfg.reproducibility, 1),
        ),
        (
            "2-multicover (degree^2)",
            &report.multicover2.cover.vertices,
            proteome::expected_recovery(cfg.reproducibility, 2),
        ),
    ] {
        let mut rate = 0.0;
        let mut recall = 0.0;
        let mut targeted = 0usize;
        for seed in 0..trials {
            let run = proteome::run_tap(h, baits, cfg, seed);
            let rep = proteome::evaluate_recovery(h, baits, &run);
            rate += rep.recovery_rate;
            recall += rep.mean_member_recall;
            targeted = rep.complexes_targeted;
        }
        t.row(cells![
            name,
            baits.len(),
            targeted,
            format!("{:.3}", rate / trials as f64),
            format!(">= {:.3}", r_theory),
            format!("{:.3}", recall / trials as f64)
        ]);
    }
    format!(
        "E9 (extension): simulated TAP runs, reproducibility {:.0}%, detection {:.0}%, {} trials\n\
         (the paper's reliability claim: covering each complex r times lifts recovery to 1-(1-p)^r)\n{}",
        cfg.reproducibility * 100.0,
        cfg.detection * 100.0,
        trials,
        t.render()
    )
}

/// E10 — extension: end-to-end complex reconstruction from simulated
/// pull-downs (consensus clustering), per bait strategy.
pub fn e10_reconstruction() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;
    let report = bait_selection_report(&ds);
    let cfg = proteome::TapConfig {
        reproducibility: 0.7,
        detection: 0.95,
    };
    let trials = 10u64;

    let mut t = Table::new(&[
        "bait strategy",
        "candidates",
        "complex recall",
        "candidate precision",
        "mean Jaccard",
    ]);
    for (name, baits) in [
        ("greedy cover (unit)", &report.unweighted.cover.vertices),
        (
            "greedy cover (degree^2)",
            &report.degree_squared.cover.vertices,
        ),
        (
            "2-multicover (degree^2)",
            &report.multicover2.cover.vertices,
        ),
    ] {
        let mut cands = 0usize;
        let mut recall = 0.0;
        let mut precision = 0.0;
        let mut jac = 0.0;
        for seed in 0..trials {
            let run = proteome::run_tap(h, baits, cfg, seed);
            let cc = proteome::consensus_complexes(&run, 0.6);
            let r = proteome::score_reconstruction(h, &cc);
            cands += r.candidates;
            recall += r.complex_recall;
            precision += r.candidate_precision;
            jac += r.mean_matched_jaccard;
        }
        let tf = trials as f64;
        t.row(cells![
            name,
            cands / trials as usize,
            format!("{:.3}", recall / tf),
            format!("{:.3}", precision / tf),
            format!("{:.3}", jac / tf)
        ]);
    }
    format!(
        "E10 (extension): consensus reconstruction of complexes from simulated pull-downs\n\
         (single-link Jaccard clustering at 0.6, majority-vote membership, {} trials)\n{}",
        trials,
        t.render()
    )
}

/// A1 — ablation: storage cost of the hypergraph vs its projections,
/// on Cellzome and over a sweep of complex sizes.
pub fn a1_space() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let r = space_report(&ds.hypergraph);
    let mut t = Table::new(&["representation", "edges/pins", "bytes"]);
    t.row(cells!["hypergraph (dual CSR)", r.pins, r.hypergraph_bytes]);
    t.row(cells!["clique expansion", r.clique_edges, r.clique_bytes]);
    t.row(cells!["star (bait) expansion", r.star_edges, r.star_bytes]);
    t.row(cells![
        "complex intersection graph",
        r.intersection_edges,
        r.intersection_bytes
    ]);
    let clique = hypergraph::projections::clique_expansion(&ds.hypergraph);
    let mut sweep = Table::new(&[
        "complex size",
        "pins",
        "hypergraph bytes",
        "clique edges",
        "clique bytes",
        "clique/hypergraph",
    ]);
    for (s, r) in a1_size_sweep() {
        sweep.row(cells![
            s,
            r.pins,
            r.hypergraph_bytes,
            r.clique_edges,
            r.clique_bytes,
            format!("{:.1}x", r.clique_bytes as f64 / r.hypergraph_bytes as f64)
        ]);
    }
    format!(
        "A1: space cost of representations (paper §1.2's O(n) vs O(n^2) argument)\n{}\
         clique expansion mean local clustering: {:.3} (inflated by construction)\n\
         complex-size sweep: 64 disjoint complexes of s proteins each \
         (pins = 64*s, clique edges = 64*s(s-1)/2)\n{}",
        t.render(),
        graphcore::mean_local_clustering(&clique),
        sweep.render()
    )
}

/// A1's size sweep: the space report of 64 disjoint complexes of `s`
/// proteins each, for s = 8, 16, 32, 64.
fn a1_size_sweep() -> Vec<(usize, SpaceReport)> {
    [8usize, 16, 32, 64]
        .into_iter()
        .map(|s| {
            let mut b = hypergraph::HypergraphBuilder::new(64 * s);
            for i in 0..64 {
                b.add_edge((0..s as u32).map(|j| (i * s) as u32 + j));
            }
            (s, space_report(&b.build()))
        })
        .collect()
}

/// A2 — ablation: overlap-counting vs naive subset-testing maximality.
pub fn a2_maximality() -> String {
    let mut t = Table::new(&[
        "hypergraph",
        "|F|",
        "overlap method",
        "naive method",
        "agree",
    ]);
    for (name, h) in [
        ("cellzome", cellzome_like(CELLZOME_SEED).hypergraph),
        (
            "uniform n=400 m=600 k=6",
            hypergen::uniform_random_hypergraph(400, 600, 6, 42),
        ),
    ] {
        let (fast, t_fast) = timed(|| hypergraph::non_maximal_edges(&h));
        let (naive, t_naive) = timed(|| hypergraph::reduce::non_maximal_edges_naive(&h));
        t.row(cells![
            name,
            h.num_edges(),
            format_time(t_fast),
            format_time(t_naive),
            fast == naive
        ]);
    }
    format!(
        "A2: non-maximal hyperedge detection, overlap counters vs subset tests\n{}",
        t.render()
    )
}

/// A3 — ablation: greedy vs primal-dual cover quality.
pub fn a3_cover_algorithms() -> String {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;
    let weight = |v: hypergraph::VertexId| {
        let d = h.vertex_degree(v) as f64;
        d * d
    };
    let (greedy, t_g) = timed(|| hypergraph::greedy_vertex_cover(h, weight).expect("cover"));
    let (pricing, t_p) = timed(|| hypergraph::pricing_vertex_cover(h, weight).expect("cover"));

    let mut t = Table::new(&[
        "algorithm",
        "cover size",
        "total weight",
        "time",
        "guarantee",
    ]);
    t.row(cells![
        "greedy (H_m approx)",
        greedy.vertices.len(),
        format!("{:.0}", greedy.total_weight),
        format_time(t_g),
        format!("H_m = {:.2}", hypergraph::cover::harmonic(h.num_edges()))
    ]);
    t.row(cells![
        "primal-dual + prune",
        pricing.cover.vertices.len(),
        format!("{:.0}", pricing.cover.total_weight),
        format_time(t_p),
        format!("certified {:.2}x of LP bound", pricing.certified_ratio)
    ]);
    format!(
        "A3: cover algorithms on the Cellzome hypergraph, degree^2 weights\n{}\
         LP dual lower bound: {:.0} (any cover costs at least this)\n",
        t.render(),
        pricing.dual_lower_bound
    )
}

/// A4 — the paper's future work: the Fig. 4 CSR peeler vs the
/// level-synchronous subset-probe design a parallel k-core would use.
/// Both run on one thread, hence the literal `threads` cells.
pub fn a4_parallel() -> String {
    let h = {
        let m = matrixmarket::stiffness_3d(20, 20, 20);
        row_net(&m)
    };
    let k = 8u32;
    let (seq, t_seq) = timed(|| hypergraph::csr_kcore(&h, k));
    let (probe, t_probe) = timed(|| hypergraph::probe_kcore(&h, k));

    let mut t = Table::new(&["algorithm", "threads", "core |V|", "core |F|", "time"]);
    t.row(cells![
        "sequential (Fig. 4, CSR overlaps)",
        1,
        seq.vertices.len(),
        seq.edges.len(),
        format_time(t_seq)
    ]);
    t.row(cells![
        "parallel level-synchronous",
        1,
        probe.vertices.len(),
        probe.edges.len(),
        format_time(t_probe)
    ]);
    format!(
        "A4: {}-core of the stk-like 8000-vertex hypergraph, sequential vs parallel\n\
         (equal vertex sets: {}; single-CPU hosts still contrast the two designs:\n\
         snapshot subset-probing vs overlap bookkeeping)\n{}",
        k,
        seq.vertices == probe.vertices,
        t.render()
    )
}

/// Run every experiment (E8 writes next to `out_dir`).
pub fn all(out_dir: &std::path::Path) -> std::io::Result<String> {
    let mut out = String::new();
    out.push_str(&e1_section2_stats());
    out.push('\n');
    out.push_str(&e2_fig1_powerlaw());
    out.push('\n');
    out.push_str(&e3_fig2_graph_core());
    out.push('\n');
    out.push_str(&e4_table1());
    out.push('\n');
    out.push_str(&e5_core_proteome());
    out.push('\n');
    out.push_str(&e6_dip_baselines());
    out.push('\n');
    out.push_str(&e7_covers());
    out.push('\n');
    out.push_str(&e8_pajek(&out_dir.join("fig3"))?);
    out.push('\n');
    out.push_str(&e9_tap_reliability());
    out.push('\n');
    out.push_str(&e10_reconstruction());
    out.push('\n');
    out.push_str(&a1_space());
    out.push('\n');
    out.push_str(&a2_maximality());
    out.push('\n');
    out.push_str(&a3_cover_algorithms());
    out.push('\n');
    out.push_str(&a4_parallel());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_mentions_paper_values() {
        let s = e1_section2_stats();
        assert!(s.contains("1361"));
        assert!(s.contains("ADH1"));
        assert!(s.contains("2.568"));
    }

    #[test]
    fn e2_reports_fit() {
        let s = e2_fig1_powerlaw();
        assert!(s.contains("gamma"));
        assert!(s.contains("R^2"));
    }

    #[test]
    fn e3_shows_core_profile() {
        let s = e3_fig2_graph_core();
        assert!(s.contains("max core: 3"));
        assert!(s.contains("4-core empty: true"));
    }

    #[test]
    fn e5_counts() {
        let s = e5_core_proteome();
        assert!(s.contains("essential among known"));
        assert!(s.contains("p ="));
    }

    #[test]
    fn e7_reports_three_strategies() {
        let s = e7_covers();
        assert!(s.contains("unit weights"));
        assert!(s.contains("degree^2"));
        assert!(s.contains("2-multicover"));
        assert!(s.contains("589"));
    }

    #[test]
    fn e8_writes_files() {
        let dir = std::env::temp_dir().join("hg_e8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let s = e8_pajek(&dir.join("fig3")).unwrap();
        assert!(s.contains("fig3.net"));
        let net = std::fs::read_to_string(dir.join("fig3.net")).unwrap();
        assert!(net.starts_with("*Vertices"));
        let clu = std::fs::read_to_string(dir.join("fig3.clu")).unwrap();
        assert!(clu.starts_with("*Vertices"));
    }

    #[test]
    fn e9_shows_reliability_lift() {
        let s = e9_tap_reliability();
        assert!(s.contains("2-multicover"));
        assert!(s.contains("recovery rate"));
    }

    #[test]
    fn e10_reports_reconstruction() {
        let s = e10_reconstruction();
        assert!(s.contains("complex recall"));
        assert!(s.contains("mean Jaccard"));
    }

    #[test]
    fn a1_space_blowup_visible() {
        for (s, r) in a1_size_sweep() {
            assert_eq!(r.pins, 64 * s, "s = {s}");
            assert_eq!(r.clique_edges, 64 * s * (s - 1) / 2, "s = {s}");
            assert!(r.clique_bytes > r.hypergraph_bytes, "s = {s}");
        }
        let s = a1_space();
        assert!(s.contains("clique expansion"));
        // The s = 64 row: 4,096 pins against 129,024 clique edges.
        assert!(s.contains("129024"), "{s}");
    }

    #[test]
    fn a3_reports_bound() {
        let s = a3_cover_algorithms();
        assert!(s.contains("LP dual lower bound"));
    }
}
