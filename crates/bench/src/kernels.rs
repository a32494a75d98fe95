//! Deterministic kernel benchmark: scalar per-source BFS vs batched
//! MS-BFS vs parallel MS-BFS on the all-pairs distance sweep, the
//! bidirectional pair search vs the full single-source BFS on a seeded
//! list of vertex pairs, and the paper's one-pass CSR k-core
//! decomposition vs the subset-probe decomposition that serves every
//! k-core query, run from `hg bench --kernels` and gated by
//! `ci.sh --bench`.
//!
//! Unlike the Criterion targets under `benches/`, this harness is a
//! plain library so the CLI can invoke it and CI can diff its JSON
//! (schema `hg-kernels/1`) against a checked-in baseline. Per engine we
//! report best-of-`reps` wall time — the minimum is the standard
//! low-noise estimator for a deterministic kernel — and every engine's
//! [`HyperDistanceStats`] must be bit-identical before any timing is
//! trusted, as must both pair engines' answers and both k-core
//! decompositions' outputs; a mismatch is an error, not a footnote.

use std::time::Instant;

use hypergraph::{HyperDistanceStats, Hypergraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for one `hg bench --kernels` run.
pub struct KernelBenchConfig {
    /// Timed repetitions per engine per dataset (best-of wins).
    pub reps: usize,
    /// Vertex count of the hypergen-scaled instance; the default sits
    /// above hgserve's 4096-vertex parallel-routing threshold so the
    /// benchmark exercises the same engine the server would pick.
    pub scale: usize,
    /// Path to a Cellzome `.hgr` file; when unreadable the benchmark
    /// falls back to the deterministic `proteome::cellzome_like` twin.
    pub cellzome_path: Option<String>,
    /// Renumber each dataset's vertices in BFS discovery order before
    /// timing (default), matching what `hg serve --relabel` does at
    /// load. Distance statistics and core depths are label-invariant,
    /// so baselines stay comparable; `--no-relabel` opts out.
    pub relabel: bool,
}

impl Default for KernelBenchConfig {
    fn default() -> Self {
        KernelBenchConfig {
            reps: 3,
            scale: 6_000,
            cellzome_path: Some("data/cellzome-2004.hgr".to_string()),
            relabel: true,
        }
    }
}

/// Best-of-reps timing for one engine on one dataset.
pub struct EngineResult {
    pub engine: &'static str,
    pub best_us: u64,
    pub median_us: u64,
}

/// One dataset's timings plus the (engine-agreed) distance statistics.
pub struct DatasetResult {
    pub name: String,
    pub vertices: usize,
    pub edges: usize,
    pub stats: HyperDistanceStats,
    pub engines: Vec<EngineResult>,
    /// `distance` answered for the same [`PAIRS`] giant-component pairs
    /// by the full BFS (`full_bfs`, the oracle) and the bidirectional
    /// pair search (`pair`, what hgserve serves); times are for the
    /// whole list.
    pub pair_engines: Vec<EngineResult>,
    /// The k-core decomposition (max core, profile and core numbers
    /// from one sweep) by the paper's CSR engine (`kcore_decompose`) and
    /// by the served subset-probe engine (`kcore_probe`), cross-validated
    /// before either timing is trusted.
    pub kcore_engines: Vec<EngineResult>,
    /// Depth of the maximum core (engine-agreed).
    pub k_max: u32,
}

fn best_of(engines: &[EngineResult], engine: &str) -> Option<u64> {
    engines
        .iter()
        .find(|e| e.engine == engine)
        .map(|e| e.best_us)
}

impl DatasetResult {
    fn best(&self, engine: &str) -> Option<u64> {
        best_of(&self.engines, engine)
    }

    /// Wall-clock speedup of the pair search over the full BFS.
    pub fn speedup_pair(&self) -> f64 {
        match (
            best_of(&self.pair_engines, "full_bfs"),
            best_of(&self.pair_engines, "pair"),
        ) {
            (Some(f), Some(p)) if p > 0 => f as f64 / p as f64,
            _ => 0.0,
        }
    }

    /// Wall-clock speedup of `engine` over the scalar oracle.
    pub fn speedup_over_scalar(&self, engine: &str) -> f64 {
        match (self.best("scalar"), self.best(engine)) {
            (Some(s), Some(e)) if e > 0 => s as f64 / e as f64,
            _ => 0.0,
        }
    }
}

/// Full report of one benchmark run.
pub struct KernelBenchReport {
    pub reps: usize,
    /// Workers the `par_msbfs` engine splits batches over
    /// ([`parcore::split_width`]); its speedup over `msbfs` needs two.
    pub threads: usize,
    /// Whether datasets were BFS-relabeled before timing.
    pub relabel: bool,
    pub datasets: Vec<DatasetResult>,
    /// Best MS-BFS time on the scaled instance, in microseconds: the
    /// single number `ci.sh --bench` gates at +50% over baseline.
    pub gate_msbfs_us: u64,
    /// Best incremental kcore decomposition time on the scaled instance,
    /// in microseconds; gated by `ci.sh --bench` at +50% over baseline.
    pub gate_kcore_us: u64,
}

impl KernelBenchReport {
    /// Render as schema `hg-kernels/1` JSON (one line, trailing newline).
    pub fn render_json(&self) -> String {
        let mut w = hgobs::json::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("hg-kernels/1");
        w.key("reps").uint(self.reps as u64);
        w.key("threads").uint(self.threads as u64);
        w.key("relabel")
            .raw(if self.relabel { "true" } else { "false" });
        w.key("gate_msbfs_us").uint(self.gate_msbfs_us);
        w.key("gate_kcore_us").uint(self.gate_kcore_us);
        w.key("datasets").begin_array();
        for d in &self.datasets {
            w.begin_object();
            w.key("name").string(&d.name);
            w.key("vertices").uint(d.vertices as u64);
            w.key("edges").uint(d.edges as u64);
            w.key("diameter").uint(d.stats.diameter as u64);
            w.key("average_path_length")
                .float(d.stats.average_path_length);
            w.key("reachable_pairs").uint(d.stats.reachable_pairs);
            w.key("engines").begin_array();
            for e in &d.engines {
                w.begin_object();
                w.key("engine").string(e.engine);
                w.key("best_us").uint(e.best_us);
                w.key("median_us").uint(e.median_us);
                w.end_object();
            }
            w.end_array();
            w.key("speedup_msbfs").float(d.speedup_over_scalar("msbfs"));
            w.key("speedup_par_msbfs")
                .float(d.speedup_over_scalar("par_msbfs"));
            w.key("distance_pairs").uint(PAIRS as u64);
            w.key("pair_engines").begin_array();
            for e in &d.pair_engines {
                w.begin_object();
                w.key("engine").string(e.engine);
                w.key("best_us").uint(e.best_us);
                w.key("median_us").uint(e.median_us);
                w.end_object();
            }
            w.end_array();
            w.key("speedup_pair").float(d.speedup_pair());
            w.key("k_max").uint(d.k_max as u64);
            w.key("kcore_engines").begin_array();
            for e in &d.kcore_engines {
                w.begin_object();
                w.key("engine").string(e.engine);
                w.key("best_us").uint(e.best_us);
                w.key("median_us").uint(e.median_us);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Human-readable summary table.
    pub fn render_text(&self) -> String {
        let mut out = format!("threads: {} (par_msbfs workers)\n", self.threads);
        for d in &self.datasets {
            out.push_str(&format!(
                "{} ({} vertices, {} hyperedges): diameter {}, apl {:.3}\n",
                d.name, d.vertices, d.edges, d.stats.diameter, d.stats.average_path_length
            ));
            for e in &d.engines {
                out.push_str(&format!(
                    "  {:<16} best {:>9} us  median {:>9} us  speedup {:.2}x\n",
                    e.engine,
                    e.best_us,
                    e.median_us,
                    d.speedup_over_scalar(e.engine)
                ));
            }
            out.push_str(&format!(
                "  distance over {PAIRS} giant-component pairs (speedup {:.2}x):\n",
                d.speedup_pair()
            ));
            for e in &d.pair_engines {
                out.push_str(&format!(
                    "  {:<16} best {:>9} us  median {:>9} us\n",
                    e.engine, e.best_us, e.median_us
                ));
            }
            out.push_str(&format!("  k-core decomposition (k_max {}):\n", d.k_max));
            for e in &d.kcore_engines {
                out.push_str(&format!(
                    "  {:<16} best {:>9} us  median {:>9} us\n",
                    e.engine, e.best_us, e.median_us
                ));
            }
        }
        out.push_str(&format!("gate_msbfs_us: {}\n", self.gate_msbfs_us));
        out.push_str(&format!("gate_kcore_us: {}\n", self.gate_kcore_us));
        out
    }
}

fn time_engine<T>(engine: &'static str, reps: usize, run: impl Fn() -> T) -> (EngineResult, T) {
    let mut times: Vec<u64> = Vec::with_capacity(reps);
    let mut stats = run();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        stats = run();
        times.push(t.elapsed().as_micros() as u64);
    }
    times.sort_unstable();
    (
        EngineResult {
            engine,
            best_us: times[0],
            median_us: times[times.len() / 2],
        },
        stats,
    )
}

/// The three kcore driver outputs the engines must agree on before the
/// timing counts: max core (k, vertex ids, edge ids), level profile,
/// per-vertex core numbers.
type KcoreOutputs = (
    Option<(u32, Vec<hypergraph::VertexId>, Vec<hypergraph::EdgeId>)>,
    Vec<(u32, usize, usize)>,
    Vec<u32>,
);

fn kcore_outputs(d: hypergraph::Decomposition) -> KcoreOutputs {
    (
        d.max_core.map(|c| (c.k, c.vertices, c.edges)),
        d.profile,
        d.core_numbers,
    )
}

fn bench_dataset(name: &str, h: &Hypergraph, reps: usize) -> Result<DatasetResult, String> {
    let (scalar, s_stats) = time_engine("scalar", reps, || {
        hypergraph::scalar_hyper_distance_stats(h)
    });
    let (msbfs, m_stats) = time_engine("msbfs", reps, || hypergraph::hyper_distance_stats(h));
    let (par, p_stats) = time_engine("par_msbfs", reps, || parcore::par_msbfs_distance_stats(h));
    // Bit-identical across engines or the timings mean nothing.
    if s_stats != m_stats || s_stats != p_stats {
        return Err(format!(
            "engine disagreement on {name}: scalar {s_stats:?}, msbfs {m_stats:?}, par {p_stats:?}"
        ));
    }

    let pairs = giant_component_pairs(h);
    let (full, f_answers) = time_engine("full_bfs", reps, || {
        pairs
            .iter()
            .map(|&(s, t)| {
                Some(hypergraph::hyper_distances(h, s)[t.index()])
                    .filter(|&d| d != hypergraph::path::UNREACHABLE)
            })
            .collect::<Vec<_>>()
    });
    let (pair, p_answers) = time_engine("pair", reps, || {
        pairs
            .iter()
            .map(|&(s, t)| hypergraph::hyper_distance(h, s, t))
            .collect::<Vec<_>>()
    });
    if let Some(i) = (0..pairs.len()).find(|&i| f_answers[i] != p_answers[i]) {
        return Err(format!(
            "distance engine disagreement on {name} for {:?}: full_bfs {:?}, pair {:?}",
            pairs[i], f_answers[i], p_answers[i]
        ));
    }

    // Each decomposition gets all three outputs from one sweep: the
    // paper's Fig. 4 over the overlap table, and the served subset-probe
    // engine without one.
    let (decomp, d_out) = time_engine("kcore_decompose", reps, || {
        kcore_outputs(hypergraph::decompose(h))
    });
    let (probe, p_out) = time_engine("kcore_probe", reps, || {
        kcore_outputs(hypergraph::probe_decompose(h))
    });
    if p_out != d_out {
        return Err(format!(
            "kcore engine disagreement on {name}: probe_decompose (k_max {:?}) vs decompose (k_max {:?})",
            p_out.0.as_ref().map(|c| c.0),
            d_out.0.as_ref().map(|c| c.0)
        ));
    }
    let k_max = d_out.0.as_ref().map(|c| c.0).unwrap_or(0);

    Ok(DatasetResult {
        name: name.to_string(),
        vertices: h.num_vertices(),
        edges: h.num_edges(),
        stats: s_stats,
        engines: vec![scalar, msbfs, par],
        pair_engines: vec![full, pair],
        kcore_engines: vec![decomp, probe],
        k_max,
    })
}

/// Vertex pairs per dataset in the `distance` comparison.
pub const PAIRS: usize = 64;

/// [`PAIRS`] pairs of distinct vertices from the largest connected
/// component, drawn with a fixed seed so every run times the same list.
fn giant_component_pairs(h: &Hypergraph) -> Vec<(VertexId, VertexId)> {
    let cc = hypergraph::hypergraph_components(h);
    let members = cc
        .largest()
        .map(|c| cc.vertex_members(c))
        .unwrap_or_default();
    if members.len() < 2 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(SCALED_SEED);
    let mut pairs = Vec::with_capacity(PAIRS);
    while pairs.len() < PAIRS {
        let s = members[rng.gen_range(0..members.len())];
        let t = members[rng.gen_range(0..members.len())];
        if s != t {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Deterministic seed for the scaled instance (one batch of entropy,
/// fixed forever so baseline comparisons stay apples-to-apples).
pub const SCALED_SEED: u64 = 41;

/// Run the kernel benchmark: Cellzome plus a hypergen-scaled instance.
pub fn run(cfg: &KernelBenchConfig) -> Result<KernelBenchReport, String> {
    let mut cellzome = cfg
        .cellzome_path
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|text| hypergraph::io::read_hgr(&text).ok())
        .unwrap_or_else(|| proteome::cellzome_like(proteome::CELLZOME_SEED).hypergraph);
    let mut scaled =
        hypergen::uniform_random_hypergraph(cfg.scale, cfg.scale * 3 / 4, 5, SCALED_SEED);
    if cfg.relabel {
        for h in [&mut cellzome, &mut scaled] {
            *h = hypergraph::Relabeling::bfs_order(h).apply(h);
        }
    }

    let datasets = vec![
        bench_dataset("cellzome-2004", &cellzome, cfg.reps)?,
        bench_dataset(&format!("hypergen-u{}", cfg.scale), &scaled, cfg.reps)?,
    ];
    let gate_msbfs_us = datasets[1]
        .best("msbfs")
        .ok_or("scaled dataset missing msbfs timing")?;
    let gate_kcore_us = best_of(&datasets[1].kcore_engines, "kcore_decompose")
        .ok_or("scaled dataset missing kcore_decompose timing")?;
    Ok(KernelBenchReport {
        reps: cfg.reps,
        threads: parcore::split_width(),
        relabel: cfg.relabel,
        datasets,
        gate_msbfs_us,
        gate_kcore_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> KernelBenchConfig {
        KernelBenchConfig {
            reps: 1,
            scale: 300,
            cellzome_path: None,
            relabel: true,
        }
    }

    #[test]
    fn report_carries_both_datasets_and_all_engines() {
        let report = run(&tiny_config()).unwrap();
        assert_eq!(report.datasets.len(), 2);
        for d in &report.datasets {
            let names: Vec<_> = d.engines.iter().map(|e| e.engine).collect();
            assert_eq!(names, vec!["scalar", "msbfs", "par_msbfs"], "{}", d.name);
            let pnames: Vec<_> = d.pair_engines.iter().map(|e| e.engine).collect();
            assert_eq!(pnames, vec!["full_bfs", "pair"], "{}", d.name);
            let knames: Vec<_> = d.kcore_engines.iter().map(|e| e.engine).collect();
            assert_eq!(knames, vec!["kcore_decompose", "kcore_probe"], "{}", d.name);
        }
        // Cellzome fallback twin reproduces the paper's diameter and
        // max-core depth (Table 1: the 6-core).
        assert_eq!(report.datasets[0].stats.diameter, 6);
        assert_eq!(report.datasets[0].k_max, 6);
    }

    #[test]
    fn json_matches_schema_and_gate_key_is_extractable() {
        let report = run(&tiny_config()).unwrap();
        let json = report.render_json();
        assert!(json.contains("\"schema\":\"hg-kernels/1\""), "{json}");
        assert!(json.contains("\"gate_msbfs_us\":"), "{json}");
        assert!(json.contains("\"speedup_msbfs\":"), "{json}");
        // The exact patterns ci.sh extracts with sed.
        for (key, want) in [
            ("\"gate_msbfs_us\":", report.gate_msbfs_us),
            ("\"gate_kcore_us\":", report.gate_kcore_us),
            ("\"threads\":", report.threads as u64),
        ] {
            let gate: u64 = json
                .split(key)
                .nth(1)
                .unwrap()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap();
            assert_eq!(gate, want, "{key}");
        }
        // The speedup floor reads the scaled dataset's engine medians
        // from objects of exactly this shape.
        let scaled = json.rsplit("\"name\":\"hypergen-u").next().unwrap();
        for e in &report.datasets[1].engines {
            let obj = format!(
                "\"engine\":\"{}\",\"best_us\":{},\"median_us\":{}",
                e.engine, e.best_us, e.median_us
            );
            assert!(scaled.contains(&obj), "{obj} in {scaled}");
        }
    }
}
