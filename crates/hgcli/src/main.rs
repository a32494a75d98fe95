//! `hg` — hypergraph toolkit for the yeast protein complex reproduction.
//!
//! ```text
//! hg stats <file.hgr>                         structural statistics
//! hg kcore <file.hgr> [--k K] [--profile]     k-core / maximum core / level table
//! hg fit <file.hgr>                           power-law fit of degrees
//! hg cover <file.hgr> [--weights unit|deg2] [--multicover R]
//! hg profile <file.hgr>... [--algo A]         per-algorithm metrics JSON
//! hg gen <what> [--seed S] [-o out.hgr|.hgb]  generate datasets
//! hg convert <file> -o <out.hgb> [--relabel]  freeze to binary CSR
//! hg export-pajek <file.hgr> -o <base>        write base.net / base.clu
//! hg repro [e1..e10|a1..a4|all] [-o dir]      regenerate paper artifacts
//! ```
//!
//! Every subcommand accepts the global `--metrics <file.json>` flag,
//! which enables the observability sink and writes the run's counters
//! and histograms (phase timings among them, as `phase_ns.<phase>`) as
//! a schema-versioned JSON report. `HG_LOG=info|debug` turns on
//! structured tracing to stderr; `debug` prints each finished phase.

use std::path::PathBuf;
use std::process::ExitCode;

use hgcli::cells;
use hgcli::repro;
use hgcli::table::Table;
use hgobs::{format_time, timed};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hg: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  hg stats <file.hgr>\n  hg kcore <file.hgr> [--k K] [--profile]\n  hg ks-core <file.hgr> --k K --s S\n  hg fit <file.hgr>\n  hg cover <file.hgr> [--weights unit|deg2] [--multicover R]\n  hg profile <file.hgr>... [--algo all|kcore|bfs|cover]\n  hg reduce <file.hgr> [-o FILE]\n  hg dual <file.hgr> [-o FILE]\n  hg tap-sim <file.hgr> [--baits N|cover|multicover] [--p P] [--seed S]\n  hg gen <cellzome|uniform N M K|table1 NAME> [--seed S] [-o FILE[.hgb]]\n  hg convert <file.hgr|.net|.mtx> -o <out.hgb> [--relabel]\n  hg export-pajek <file.hgr> -o <base>\n  hg serve [--addr HOST:PORT] [--threads N] [--cache-mb MB] [--deadline-ms MS]\n           [--queue N] [--par-threshold N] [--relabel] [--preload FILE...]\n  hg loadgen [--addr HOST:PORT] [--dataset NAME] [--concurrency N]\n             [--requests N] [--mix stats=3,kcore=1,...] [--deadline-ms MS]\n             [--connections N] [--json FILE]\n  hg trace <trace.json>   pretty-print a saved request trace\n  hg bench --kernels [--json FILE] [--reps N] [--scale N] [--cellzome FILE]\n           [--no-relabel]\n  hg bench --coldload [--json FILE] [--scale N] [--dir DIR] [--reps N]\n  hg bench --delta <baseline.json> <current.json>   markdown delta table\n  hg repro [e1..e10|a1..a4|all] [-o DIR]\nglobal flags:\n  --metrics FILE   write a JSON metrics report (counters, histograms incl. phase timings)\n  HG_LOG=info|debug   structured tracing to stderr (debug: one line per finished phase)\n".to_string()
}

fn run(args: &[String]) -> Result<String, String> {
    let (metrics, args) = take_opt(args, "--metrics")?;
    hgobs::log::init_from_env();
    if metrics.is_some() || hgobs::log::debug_enabled() {
        hgobs::enable();
    }
    let result = {
        let _total = hgobs::phase("total");
        dispatch(&args)
    };
    if let Some(path) = metrics {
        let mut json = hgobs::take_report().to_json();
        json.push('\n');
        std::fs::write(&path, json).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    result
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "stats" => cmd_stats(&args[1..]),
        "kcore" => cmd_kcore(&args[1..]),
        "fit" => cmd_fit(&args[1..]),
        "cover" => cmd_cover(&args[1..]),
        "ks-core" => cmd_ks_core(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "reduce" => cmd_reduce(&args[1..]),
        "dual" => cmd_dual(&args[1..]),
        "tap-sim" => cmd_tap_sim(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "convert" => cmd_convert(&args[1..]),
        "export-pajek" => cmd_export_pajek(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "loadgen" => cmd_loadgen(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "repro" => cmd_repro(&args[1..]),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Read a dataset file the way `hg serve --preload` and `POST /datasets`
/// do: the format follows the extension (`.hgb` is mmap-opened), and a
/// file with an unknown extension is read as `.hgr`.
fn load(path: &str) -> Result<hypergraph::Hypergraph, String> {
    use hgserve::registry::{parse_text, Format};
    let format = Format::from_path(path).unwrap_or(Format::Hgr);
    if format == Format::Hgb {
        // Binary CSR: mmap open, O(header). Kernels read straight from
        // the mapped file.
        let ds = hypergraph::open_hgb(
            std::path::Path::new(path),
            hypergraph::HgbOpenOptions::default(),
        )
        .map_err(|e| format!("{path}: {e}"))?;
        return Ok(ds.hypergraph);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_text(format, &text)
}

/// Pull `--flag value` out of an argument list; returns (value, rest).
/// A flag with no following value is an error, not a silent None.
fn take_opt(args: &[String], flag: &str) -> Result<(Option<String>, Vec<String>), String> {
    let mut value = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            value = Some(
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value after {flag}"))?,
            );
        } else {
            rest.push(a.clone());
        }
    }
    Ok((value, rest))
}

/// The `N` positional arguments left once a subcommand has taken its
/// flags. A leftover flag or a surplus positional is an error naming
/// it, so a mistyped or retired flag never runs silently; too few is a
/// usage error.
fn positionals<const N: usize>(rest: &[String]) -> Result<[&String; N], String> {
    let flag = rest.iter().find(|a| a.starts_with('-'));
    if let Some(extra) = flag.or(rest.get(N)) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    rest.iter()
        .collect::<Vec<_>>()
        .try_into()
        .map_err(|_| usage())
}

fn take_switch(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let present = args.iter().any(|a| a == flag);
    (
        present,
        args.iter().filter(|a| *a != flag).cloned().collect(),
    )
}

/// Run `f` with the metrics sink enabled and append its phase breakdown
/// to the output. The drained report is absorbed back into the registry
/// so a surrounding `--metrics` report still carries the run's totals.
fn with_phases(f: impl FnOnce() -> Result<String, String>) -> Result<String, String> {
    let was_enabled = hgobs::enabled();
    hgobs::enable();
    let result = f();
    let report = hgobs::take_report();
    hgobs::absorb(&report);
    if !was_enabled {
        hgobs::disable();
    }
    let mut out = result?;
    let text = report.render_text();
    if !text.is_empty() {
        out.push('\n');
        out.push_str(&text);
    }
    Ok(out)
}

fn cmd_stats(args: &[String]) -> Result<String, String> {
    let [path] = positionals(args)?;
    let h = load(path)?;
    let cc = hypergraph::hypergraph_components(&h);
    let ov = hypergraph::CsrOverlap::build(&h);
    let mut t = Table::new(&["statistic", "value"]);
    t.row(cells!["vertices |V|", h.num_vertices()]);
    t.row(cells!["hyperedges |F|", h.num_edges()]);
    t.row(cells!["pins |E|", h.num_pins()]);
    t.row(cells!["max vertex degree dV", h.max_vertex_degree()]);
    t.row(cells!["max hyperedge degree dF", h.max_edge_degree()]);
    t.row(cells!["max hyperedge degree-2 d2F", ov.max_d2_edge()]);
    t.row(cells!["connected components", cc.count()]);
    if let Some(big) = cc.largest() {
        t.row(cells![
            "largest component (|V|, |F|)",
            format!(
                "({}, {})",
                cc.summary[big].num_vertices, cc.summary[big].num_edges
            )
        ]);
    }
    t.row(cells!["storage bytes", h.storage_bytes()]);
    Ok(t.render())
}

fn cmd_kcore(args: &[String]) -> Result<String, String> {
    let (k_opt, rest) = take_opt(args, "--k")?;
    let (profile, rest) = take_switch(&rest, "--profile");
    let [path] = positionals(&rest)?;
    let h = load(path)?;

    if profile {
        // One probe sweep yields every level's sizes.
        let (profile, secs) = timed(|| hypergraph::core_profile(&h));
        let mut t = Table::new(&["k", "vertices", "hyperedges"]);
        for &(k, nv, ne) in &profile {
            t.row(cells![k, nv, ne]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "max core k = {} ({})\n",
            profile.last().map(|p| p.0).unwrap_or(0),
            format_time(secs)
        ));
        return Ok(out);
    }

    let (core, secs) = match k_opt {
        Some(ks) => {
            let k: u32 = ks.parse().map_err(|e| format!("bad --k: {e}"))?;
            let (c, s) = timed(|| hypergraph::probe_kcore(&h, k));
            (Some(c), s)
        }
        None => timed(|| hypergraph::max_core(&h)),
    };
    match core {
        Some(c) if !c.is_empty() => Ok(format!(
            "{}-core: {} vertices, {} hyperedges, {} pins ({})\n",
            c.k,
            c.vertices.len(),
            c.edges.len(),
            c.pins,
            format_time(secs)
        )),
        _ => Ok(format!("core is empty ({})\n", format_time(secs))),
    }
}

fn cmd_fit(args: &[String]) -> Result<String, String> {
    let [path] = positionals(args)?;
    let h = load(path)?;
    let hist = hypergraph::vertex_degree_histogram(&h);
    match hypergraph::fit_power_law(&hist) {
        Some(fit) => Ok(format!(
            "power law P(d) = c*d^-gamma: log10 c = {:.3}, gamma = {:.3}, R^2 = {:.3} ({} points)\n",
            fit.log10_c, fit.gamma, fit.r_squared, fit.points
        )),
        None => Ok("not enough distinct degrees to fit a power law\n".to_string()),
    }
}

fn cmd_cover(args: &[String]) -> Result<String, String> {
    let (weights, rest) = take_opt(args, "--weights")?;
    let (multi, rest) = take_opt(&rest, "--multicover")?;
    let [path] = positionals(&rest)?;
    let h = load(path)?;

    let weight: Box<dyn Fn(hypergraph::VertexId) -> f64> = match weights.as_deref() {
        None | Some("unit") => Box::new(|_| 1.0),
        Some("deg2") => {
            let degs: Vec<f64> = h.vertices().map(|v| h.vertex_degree(v) as f64).collect();
            Box::new(move |v: hypergraph::VertexId| degs[v.index()] * degs[v.index()])
        }
        Some(other) => return Err(format!("unknown --weights `{other}` (unit|deg2)")),
    };

    let (cover, secs) = match multi {
        Some(rs) => {
            let r: u32 = rs.parse().map_err(|e| format!("bad --multicover: {e}"))?;
            timed(|| hypergraph::greedy_multicover(&h, &weight, |f| r.min(h.edge_degree(f) as u32)))
        }
        None => timed(|| hypergraph::greedy_vertex_cover(&h, &weight)),
    };
    let cover = cover.map_err(|e| e.to_string())?;
    Ok(format!(
        "cover: {} vertices, total weight {:.1}, average degree {:.2} ({})\n",
        cover.vertices.len(),
        cover.total_weight,
        cover.average_degree(&h),
        format_time(secs)
    ))
}

fn cmd_ks_core(args: &[String]) -> Result<String, String> {
    let (k, rest) = take_opt(args, "--k")?;
    let (s, rest) = take_opt(&rest, "--s")?;
    let [path] = positionals(&rest)?;
    let k: u32 = k
        .ok_or("ks-core requires --k")?
        .parse()
        .map_err(|e| format!("bad --k: {e}"))?;
    let s: u32 = s
        .ok_or("ks-core requires --s")?
        .parse()
        .map_err(|e| format!("bad --s: {e}"))?;
    let h = load(path)?;
    let (core, secs) = timed(|| hypergraph::ks_core(&h, k, s));
    Ok(format!(
        "({k}, {s})-core: {} vertices, {} hyperedges, {} pins ({})\n",
        core.vertices.len(),
        core.edges.len(),
        core.sub.num_pins(),
        format_time(secs)
    ))
}

fn cmd_profile(args: &[String]) -> Result<String, String> {
    let (algo, files) = take_opt(args, "--algo")?;
    let algo = algo.unwrap_or_else(|| "all".to_string());
    if !matches!(algo.as_str(), "all" | "kcore" | "bfs" | "cover") {
        return Err(format!("unknown --algo `{algo}` (all|kcore|bfs|cover)"));
    }
    if files.is_empty() {
        return Err(usage());
    }

    let was_enabled = hgobs::enabled();
    hgobs::enable();
    // Stash anything already recorded this run, then profile; the drained
    // per-algo sections are folded into `total` and absorbed back so a
    // surrounding `--metrics` report still sees the whole run.
    let mut total = hgobs::take_report();
    let result = profile_files(&files, &algo, &mut total);
    hgobs::absorb(&total);
    if !was_enabled {
        hgobs::disable();
    }
    result
}

fn profile_files(
    files: &[String],
    algo: &str,
    total: &mut hgobs::Report,
) -> Result<String, String> {
    let mut w = hgobs::json::JsonWriter::new();
    w.begin_object();
    w.key("schema").string("hg-profile/1");
    w.key("algo").string(algo);
    w.key("files").begin_array();
    for path in files {
        let h = load(path)?;
        w.begin_object();
        w.key("file").string(path);
        w.key("vertices").uint(h.num_vertices() as u64);
        w.key("edges").uint(h.num_edges() as u64);
        w.key("algos").begin_object();
        if matches!(algo, "all" | "kcore") {
            profile_section(&mut w, total, "kcore", || {
                let _ = hypergraph::max_core(&h);
            });
        }
        if matches!(algo, "all" | "bfs") {
            profile_section(&mut w, total, "bfs", || {
                let _ = hypergraph::hyper_distance_stats(&h);
            });
        }
        if matches!(algo, "all" | "cover") {
            profile_section(&mut w, total, "cover", || {
                let _ = hypergraph::greedy_vertex_cover(&h, |_| 1.0);
                let _ = hypergraph::pricing_vertex_cover(&h, |_| 1.0);
            });
        }
        w.end_object(); // algos
        w.end_object(); // file entry
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    Ok(out)
}

/// Run one algorithm against a clean registry and emit its drained
/// metrics as a named JSON section.
fn profile_section(
    w: &mut hgobs::json::JsonWriter,
    total: &mut hgobs::Report,
    name: &str,
    run: impl FnOnce(),
) {
    hgobs::reset();
    run();
    let rep = hgobs::take_report();
    w.key(name).begin_object();
    rep.write_body(w);
    w.end_object();
    total.merge(&rep);
}

fn write_or_print(
    h: &hypergraph::Hypergraph,
    out: Option<String>,
    what: &str,
) -> Result<String, String> {
    let text = hypergraph::io::write_hgr(h);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "wrote {what} to {path} ({} vertices, {} hyperedges, {} pins)\n",
                h.num_vertices(),
                h.num_edges(),
                h.num_pins()
            ))
        }
        None => Ok(text),
    }
}

fn cmd_reduce(args: &[String]) -> Result<String, String> {
    let (out, rest) = take_opt(args, "-o")?;
    let [path] = positionals(&rest)?;
    let h = load(path)?;
    let (reduced, kept) = hypergraph::reduce(&h);
    let removed = h.num_edges() - kept.len();
    let mut msg = write_or_print(&reduced, out, "reduced hypergraph")?;
    if msg.starts_with("wrote") {
        msg.push_str(&format!("removed {removed} non-maximal hyperedges\n"));
    }
    Ok(msg)
}

fn cmd_dual(args: &[String]) -> Result<String, String> {
    let (out, rest) = take_opt(args, "-o")?;
    let [path] = positionals(&rest)?;
    let h = load(path)?;
    let d = hypergraph::dual(&h);
    write_or_print(&d, out, "dual hypergraph")
}

fn cmd_tap_sim(args: &[String]) -> Result<String, String> {
    let (baits_opt, rest) = take_opt(args, "--baits")?;
    let (p_opt, rest) = take_opt(&rest, "--p")?;
    let (seed_opt, rest) = take_opt(&rest, "--seed")?;
    let [path] = positionals(&rest)?;
    let h = load(path)?;

    let p: f64 = p_opt
        .map(|s| s.parse().map_err(|e| format!("bad --p: {e}")))
        .transpose()?
        .unwrap_or(0.7);
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("bad --p: {p} is not a probability in [0, 1]"));
    }
    let seed: u64 = seed_opt
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(7);

    let baits: Vec<hypergraph::VertexId> = match baits_opt.as_deref() {
        None | Some("cover") => {
            hypergraph::greedy_vertex_cover(&h, |v| {
                let d = h.vertex_degree(v) as f64;
                d * d
            })
            .map_err(|e| e.to_string())?
            .vertices
        }
        Some("multicover") => {
            hypergraph::greedy_multicover(
                &h,
                |v| {
                    let d = h.vertex_degree(v) as f64;
                    d * d
                },
                |f| 2u32.min(h.edge_degree(f) as u32),
            )
            .map_err(|e| e.to_string())?
            .vertices
        }
        Some(n) => {
            let n: usize = n
                .parse()
                .map_err(|_| "--baits takes `cover`, `multicover`, or a count".to_string())?;
            h.vertices().take(n).collect()
        }
    };

    let cfg = proteome::TapConfig {
        reproducibility: p,
        detection: 0.95,
    };
    let run = proteome::run_tap(&h, &baits, cfg, seed);
    let rec = proteome::evaluate_recovery(&h, &baits, &run);
    let cands = proteome::consensus_complexes(&run, 0.6);
    let recon = proteome::score_reconstruction(&h, &cands);
    Ok(format!(
        "tap-sim: {} baits ({} productive), {} pull-downs of {} attempts\n\
         recovery: {}/{} targeted complexes ({:.1}%)\n\
         reconstruction: {} candidates, recall {:.1}%, precision {:.1}%, mean Jaccard {:.2}\n",
        baits.len(),
        run.productive_baits,
        run.pull_downs.len(),
        run.attempts,
        rec.complexes_recovered,
        rec.complexes_targeted,
        100.0 * rec.recovery_rate,
        recon.candidates,
        100.0 * recon.complex_recall,
        100.0 * recon.candidate_precision,
        recon.mean_matched_jaccard
    ))
}

fn cmd_gen(args: &[String]) -> Result<String, String> {
    let (seed_opt, rest) = take_opt(args, "--seed")?;
    let (out, rest) = take_opt(&rest, "-o")?;
    let seed: u64 = seed_opt
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(proteome::CELLZOME_SEED);

    let what = rest.first().ok_or_else(usage)?;
    let h = match what.as_str() {
        "cellzome" => proteome::cellzome_like(seed).hypergraph,
        "uniform" => {
            let parse = |i: usize, name: &str| -> Result<usize, String> {
                rest.get(i)
                    .ok_or(format!("uniform needs N M K ({name} missing)"))?
                    .parse()
                    .map_err(|e| format!("bad {name}: {e}"))
            };
            let (n, m, k) = (parse(1, "N")?, parse(2, "M")?, parse(3, "K")?);
            if k > n {
                return Err(format!(
                    "uniform needs K <= N (K = {k} pins, N = {n} vertices)"
                ));
            }
            hypergen::uniform_random_hypergraph(n, m, k, seed)
        }
        "table1" => {
            let name = rest.get(1).ok_or("table1 needs a matrix name")?;
            let suite = matrixmarket::table1_suite();
            let (_, m) = suite.iter().find(|(n, _)| n == name).ok_or_else(|| {
                format!(
                    "unknown table1 matrix `{name}` (have: {})",
                    suite.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                )
            })?;
            matrixmarket::row_net(m)
        }
        other => {
            return Err(format!(
                "unknown dataset `{other}` (cellzome|uniform|table1)"
            ))
        }
    };

    let Some(path) = out else {
        return Ok(hypergraph::io::write_hgr(&h));
    };
    let (written, kind) = if path.ends_with(".hgb") {
        let hgb = hypergraph::write_hgb_file(&h, None, std::path::Path::new(&path));
        (hgb, " [.hgb]")
    } else {
        (std::fs::write(&path, hypergraph::io::write_hgr(&h)), "")
    };
    written.map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(format!(
        "wrote {path} ({} vertices, {} hyperedges, {} pins){kind}\n",
        h.num_vertices(),
        h.num_edges(),
        h.num_pins()
    ))
}

/// `hg convert <file.hgr|.net|.mtx|.hgb> -o <out.hgb> [--relabel]` —
/// freeze a dataset into the binary on-disk CSR format. With
/// `--relabel` the stored CSR is BFS-reordered and the id translation
/// is baked into the file, so `hg serve` gets the cache-local layout
/// zero-copy.
fn cmd_convert(args: &[String]) -> Result<String, String> {
    let (out, rest) = take_opt(args, "-o")?;
    let (relabel, rest) = take_switch(&rest, "--relabel");
    let [path] = positionals(&rest)?;
    let out = out.ok_or("convert requires -o <out.hgb>")?;
    if !out.ends_with(".hgb") {
        return Err(format!("convert output must end in .hgb, got `{out}`"));
    }
    let h = load(path)?;
    let (h, rel) = if relabel {
        let r = hypergraph::Relabeling::bfs_order(&h);
        (r.apply(&h), Some(r))
    } else {
        (h, None)
    };
    hypergraph::write_hgb_file(&h, rel.as_ref(), std::path::Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    // Conversion is rare and offline: pay for the full structural
    // verification now so serving can trust the header forever after.
    hypergraph::open_hgb(
        std::path::Path::new(&out),
        hypergraph::HgbOpenOptions {
            mode: hypergraph::HgbOpenMode::Mmap,
            verify: true,
        },
    )
    .map_err(|e| format!("verification of {out} failed: {e}"))?;
    Ok(format!(
        "wrote {} ({} vertices, {} hyperedges, {} pins{}) — verified\n",
        out,
        h.num_vertices(),
        h.num_edges(),
        h.num_pins(),
        if rel.is_some() { ", relabeled" } else { "" }
    ))
}

fn cmd_export_pajek(args: &[String]) -> Result<String, String> {
    let (out, rest) = take_opt(args, "-o")?;
    let [path] = positionals(&rest)?;
    let base = out.ok_or("export-pajek requires -o <base>")?;
    let h = load(path)?;
    let core = hypergraph::max_core(&h);
    let (cv, ce) = core
        .as_ref()
        .map(|c| (c.vertices.clone(), c.edges.clone()))
        .unwrap_or_default();
    let export = hypergraph::pajek::export_fig3(&h, None, &cv, &ce);
    let base = PathBuf::from(base);
    std::fs::write(base.with_extension("net"), &export.net)
        .map_err(|e| format!("write failed: {e}"))?;
    std::fs::write(base.with_extension("clu"), &export.clu)
        .map_err(|e| format!("write failed: {e}"))?;
    Ok(format!(
        "wrote {} and {}\n",
        base.with_extension("net").display(),
        base.with_extension("clu").display()
    ))
}

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let (addr, rest) = take_opt(args, "--addr")?;
    let (threads, rest) = take_opt(&rest, "--threads")?;
    let (cache_mb, rest) = take_opt(&rest, "--cache-mb")?;
    let (deadline_ms, rest) = take_opt(&rest, "--deadline-ms")?;
    let (queue, rest) = take_opt(&rest, "--queue")?;
    let (par_threshold, rest) = take_opt(&rest, "--par-threshold")?;
    let (relabel, rest) = take_switch(&rest, "--relabel");
    // `--preload` is an optional marker; every remaining positional
    // argument is a dataset file to load at startup.
    let (_, preload) = take_switch(&rest, "--preload");

    let mut config = hgserve::ServerConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        ..Default::default()
    };
    if let Some(t) = threads {
        config.threads = t.parse().map_err(|e| format!("bad --threads: {e}"))?;
        if config.threads == 0 {
            return Err("--threads must be >= 1".to_string());
        }
    }
    if let Some(mb) = cache_mb {
        let mb: usize = mb.parse().map_err(|e| format!("bad --cache-mb: {e}"))?;
        config.cache_bytes = mb << 20;
    }
    if let Some(ms) = deadline_ms {
        config.deadline_ms = ms.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?;
    }
    if let Some(q) = queue {
        config.queue_depth = q.parse().map_err(|e| format!("bad --queue: {e}"))?;
        if config.queue_depth == 0 {
            return Err("--queue must be >= 1".to_string());
        }
    }
    if let Some(p) = par_threshold {
        config.par_threshold = p.parse().map_err(|e| format!("bad --par-threshold: {e}"))?;
    }

    let registry = std::sync::Arc::new(hgserve::Registry::with_relabeling(relabel));
    let mut load_lines = Vec::new();
    for path in &preload {
        let ds = registry.load_file(path)?;
        eprintln!(
            "hg serve: loaded `{}` ({} vertices, {} hyperedges)",
            ds.name,
            ds.hypergraph.num_vertices(),
            ds.hypergraph.num_edges()
        );
        load_lines.push(format!(
            "LOAD={} storage={} us={} resident_bytes={}",
            ds.name,
            ds.storage.as_str(),
            ds.load_us,
            ds.resident_bytes()
        ));
    }

    hgserve::install_sigint_flag();
    let handle = hgserve::start(&config, registry).map_err(|e| format!("cannot bind: {e}"))?;
    println!("hg serve: listening on http://{}", handle.addr());
    // Machine-parseable startup lines: one LOAD= per preloaded dataset
    // (load time + resident bytes), then the bound address so scripts
    // can use `--addr 127.0.0.1:0` (ephemeral port) and still find the
    // server.
    for line in &load_lines {
        println!("{line}");
    }
    println!("ADDR={}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Block until Ctrl-C or POST /admin/shutdown: both wake the event
    // loop directly (no polling), which drains, exits, and lets `wait`
    // join the loop and worker threads.
    let state = std::sync::Arc::clone(handle.state());
    handle.wait();
    Ok(format!(
        "hg serve: drained and stopped ({})\n",
        state.state_line()
    ))
}

fn cmd_loadgen(args: &[String]) -> Result<String, String> {
    let (addr, rest) = take_opt(args, "--addr")?;
    let (dataset, rest) = take_opt(&rest, "--dataset")?;
    let (concurrency, rest) = take_opt(&rest, "--concurrency")?;
    let (requests, rest) = take_opt(&rest, "--requests")?;
    let (mix, rest) = take_opt(&rest, "--mix")?;
    let (deadline_ms, rest) = take_opt(&rest, "--deadline-ms")?;
    let (connections, rest) = take_opt(&rest, "--connections")?;
    let (json_out, rest) = take_opt(&rest, "--json")?;
    positionals::<0>(&rest)?;

    let parse_n = |v: Option<String>, flag: &str, default: usize| -> Result<usize, String> {
        v.map_or(Ok(default), |s| {
            s.parse().map_err(|e| format!("bad {flag}: {e}"))
        })
    };
    let cfg = hgserve::LoadgenConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        dataset: dataset.unwrap_or_else(|| "cellzome-2004".to_string()),
        concurrency: parse_n(concurrency, "--concurrency", 4)?,
        requests: parse_n(requests, "--requests", 200)?,
        mix: hgserve::parse_mix(
            mix.as_deref()
                .unwrap_or("stats=4,degrees=2,components=2,kcore=2,powerlaw=2,diameter=1,cover=1"),
        )?,
        deadline_ms: deadline_ms
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|e| format!("bad --deadline-ms: {e}"))
            })
            .transpose()?,
        idle_connections: parse_n(connections, "--connections", 0)?,
    };
    let report = hgserve::loadgen::run(&cfg)?;
    if let Some(path) = json_out {
        std::fs::write(&path, report.render_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // Total transport failure means the server was never reached; the
    // latency numbers are vacuous and must not pass a benchmark gate.
    if report.sent > 0 && report.transport_errors == report.sent {
        return Err(format!(
            "all {} requests failed in transport (is the server up?)\n{}",
            report.sent,
            report.render_text()
        ));
    }
    Ok(report.render_text())
}

/// `hg trace FILE` — pretty-print a saved request trace (a `?trace=1`
/// response body, a `/debug/slowlog` entry, or a bare trace object).
fn cmd_trace(args: &[String]) -> Result<String, String> {
    let [path] = positionals(args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let t = hgobs::trace::parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(render_trace(&t))
}

/// Timeline plus per-phase rollup for one parsed trace. Phase rows can
/// sum past 100% of the total: parallel kernels run phases on several
/// workers at once, so event durations add up CPU time, not wall time.
fn render_trace(t: &hgobs::trace::ParsedTrace) -> String {
    let span_end = t.events.iter().map(|e| e.end_us).max().unwrap_or(0);
    let total = t.total_us.unwrap_or(span_end);
    let id = if t.id.is_empty() { "<no id>" } else { &t.id };
    let mut out = format!("trace {id}: {} events, total {total}us\n", t.events.len());
    const WIDTH: usize = 32;
    let scale = span_end.max(1) as u128;
    for e in &t.events {
        let b0 = ((e.start_us as u128 * WIDTH as u128 / scale) as usize).min(WIDTH - 1);
        let b1 = ((e.end_us as u128 * WIDTH as u128).div_ceil(scale) as usize).clamp(b0 + 1, WIDTH);
        let bar: String = (0..WIDTH)
            .map(|i| if i >= b0 && i < b1 { '#' } else { '.' })
            .collect();
        out.push_str(&format!(
            "  {bar} {:>8}us..{:<8}us {:>8}us  {}  work={}\n",
            e.start_us,
            e.end_us,
            e.end_us - e.start_us,
            e.phase,
            e.work
        ));
    }
    let mut phases: Vec<(&str, u64, u64, u64)> = Vec::new(); // name, events, us, work
    for e in &t.events {
        match phases.iter_mut().find(|(n, ..)| *n == e.phase) {
            Some((_, c, us, w)) => {
                *c += 1;
                *us += e.end_us - e.start_us;
                *w += e.work;
            }
            None => phases.push((&e.phase, 1, e.end_us - e.start_us, e.work)),
        }
    }
    phases.sort_by_key(|&(_, _, us, _)| std::cmp::Reverse(us));
    out.push_str("phase totals:\n");
    for (n, c, us, w) in &phases {
        let pct = if total > 0 {
            100.0 * *us as f64 / total as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {n:<20} {c:>5} events {us:>9}us ({pct:5.1}% of total)  work={w}\n"
        ));
    }
    out
}

fn cmd_bench(args: &[String]) -> Result<String, String> {
    let (delta, rest) = take_switch(args, "--delta");
    if delta {
        // `hg bench --delta BASE CURRENT`: markdown delta table for CI.
        let [base, cur] = rest.as_slice() else {
            return Err("--delta takes exactly two files: baseline.json current.json".to_string());
        };
        let read =
            |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
        return bench::render_delta(&read(base)?, &read(cur)?);
    }
    let (coldload, rest) = take_switch(&rest, "--coldload");
    if coldload {
        // Text parse vs `.hgb` mmap open on a cached hypergen dataset.
        let (json_out, rest) = take_opt(&rest, "--json")?;
        let (scale, rest) = take_opt(&rest, "--scale")?;
        let (dir, rest) = take_opt(&rest, "--dir")?;
        let (reps, rest) = take_opt(&rest, "--reps")?;
        positionals::<0>(&rest)?;
        let mut cfg = bench::ColdloadConfig::default();
        if let Some(s) = scale {
            let n: usize = s.parse().map_err(|e| format!("bad --scale: {e}"))?;
            if n < cfg.k {
                return Err(format!(
                    "--scale must be >= {}, the pins per hyperedge",
                    cfg.k
                ));
            }
            cfg = cfg.with_scale(n);
        }
        if let Some(d) = dir {
            cfg.cache_dir = PathBuf::from(d);
        }
        if let Some(r) = reps {
            cfg.reps = r.parse().map_err(|e| format!("bad --reps: {e}"))?;
            if cfg.reps == 0 {
                return Err("--reps must be >= 1".to_string());
            }
        }
        let report = bench::coldload::run(&cfg)?;
        if let Some(path) = json_out {
            std::fs::write(&path, report.render_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        return Ok(report.render_text());
    }
    let (kernels, rest) = take_switch(&rest, "--kernels");
    if !kernels {
        return Err("bench requires --kernels, --coldload, or --delta".to_string());
    }
    let (json_out, rest) = take_opt(&rest, "--json")?;
    let (reps, rest) = take_opt(&rest, "--reps")?;
    let (scale, rest) = take_opt(&rest, "--scale")?;
    let (cellzome, rest) = take_opt(&rest, "--cellzome")?;
    let (no_relabel, rest) = take_switch(&rest, "--no-relabel");
    positionals::<0>(&rest)?;

    let mut cfg = bench::KernelBenchConfig::default();
    if let Some(r) = reps {
        cfg.reps = r.parse().map_err(|e| format!("bad --reps: {e}"))?;
        if cfg.reps == 0 {
            return Err("--reps must be >= 1".to_string());
        }
    }
    if let Some(s) = scale {
        cfg.scale = s.parse().map_err(|e| format!("bad --scale: {e}"))?;
        // The scaled instance's hyperedges have 5 pins.
        if cfg.scale < 5 {
            return Err("--scale must be >= 5, the pins per hyperedge".to_string());
        }
    }
    if let Some(p) = cellzome {
        cfg.cellzome_path = Some(p);
    }
    cfg.relabel = !no_relabel;

    let report = bench::kernels::run(&cfg)?;
    if let Some(path) = json_out {
        std::fs::write(&path, report.render_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(report.render_text())
}

fn cmd_repro(args: &[String]) -> Result<String, String> {
    let (out_dir, rest) = take_opt(args, "-o")?;
    // One experiment name at most, checked before `-o` is created.
    let what = match &rest[..] {
        [] => "all",
        _ => positionals::<1>(&rest)?[0].as_str(),
    };
    let out_dir = PathBuf::from(out_dir.unwrap_or_else(|| ".".to_string()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create out dir: {e}"))?;
    let io_err = |e: std::io::Error| format!("io error: {e}");
    match what {
        "e1" => with_phases(|| Ok(repro::e1_section2_stats())),
        "e2" => with_phases(|| Ok(repro::e2_fig1_powerlaw())),
        "e3" => with_phases(|| Ok(repro::e3_fig2_graph_core())),
        "e4" => with_phases(|| Ok(repro::e4_table1())),
        "e5" => with_phases(|| Ok(repro::e5_core_proteome())),
        "e6" => with_phases(|| Ok(repro::e6_dip_baselines())),
        "e7" => with_phases(|| Ok(repro::e7_covers())),
        "e8" => with_phases(|| repro::e8_pajek(&out_dir.join("fig3")).map_err(io_err)),
        "e9" => with_phases(|| Ok(repro::e9_tap_reliability())),
        "e10" => with_phases(|| Ok(repro::e10_reconstruction())),
        "a1" => with_phases(|| Ok(repro::a1_space())),
        "a2" => with_phases(|| Ok(repro::a2_maximality())),
        "a3" => with_phases(|| Ok(repro::a3_cover_algorithms())),
        "a4" => with_phases(|| Ok(repro::a4_parallel())),
        "all" => with_phases(|| repro::all(&out_dir).map_err(io_err)),
        other => Err(format!("unknown experiment `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::{render_trace, take_opt};

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn render_trace_timeline_and_rollup() {
        let t = hgobs::trace::parse_trace(
            "{\"id\":\"00000000deadbeef\",\"total_us\":100,\"events\":[\
             {\"phase\":\"msbfs.batch\",\"start_us\":0,\"end_us\":60,\"work\":64},\
             {\"phase\":\"msbfs.batch\",\"start_us\":60,\"end_us\":90,\"work\":22},\
             {\"phase\":\"kcore.peel\",\"start_us\":90,\"end_us\":100,\"work\":4}]}",
        )
        .unwrap();
        let out = render_trace(&t);
        assert!(
            out.starts_with("trace 00000000deadbeef: 3 events, total 100us"),
            "{out}"
        );
        assert!(out.contains("phase totals:"), "{out}");
        assert!(out.contains("msbfs.batch"), "{out}");
        // 60 + 30 = 90us over a 100us total.
        assert!(out.contains("90us ( 90.0% of total)  work=86"), "{out}");
        // Bars exist and are width 32.
        assert!(
            out.lines().nth(1).unwrap().trim_start().starts_with('#'),
            "{out}"
        );
    }

    #[test]
    fn take_opt_extracts_value_and_rest() {
        let (val, rest) = take_opt(&v(&["a", "--k", "3", "b"]), "--k").unwrap();
        assert_eq!(val.as_deref(), Some("3"));
        assert_eq!(rest, v(&["a", "b"]));
    }

    #[test]
    fn take_opt_absent_flag_is_none() {
        let (val, rest) = take_opt(&v(&["a", "b"]), "--k").unwrap();
        assert!(val.is_none());
        assert_eq!(rest, v(&["a", "b"]));
    }

    #[test]
    fn take_opt_missing_value_is_an_error() {
        let err = take_opt(&v(&["a", "--k"]), "--k").unwrap_err();
        assert!(err.contains("missing value after --k"), "{err}");
    }
}
