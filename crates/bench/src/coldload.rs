//! Cold-load benchmark: text parsing vs `.hgb` mmap open on a
//! million-vertex generated dataset, run from `hg bench --coldload` and
//! gated by `ci.sh --bench`.
//!
//! The dataset pair (`hypergen-u<N>.hgr` / `.hgb`) is generated once
//! into a cache directory, both files from one generated hypergraph,
//! and reused across runs. Each timed load is open + the first stats answer
//! (degree maxima and shape), which for `.hgb` is O(header): the gate
//! number measures exactly the path `hg serve --preload` takes at
//! startup.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hypergraph::HgbOpenOptions;

/// Configuration for one `hg bench --coldload` run.
pub struct ColdloadConfig {
    /// Vertex count of the generated instance.
    pub n: usize,
    /// Hyperedge count (default `n / 4`).
    pub m: usize,
    /// Pins per hyperedge.
    pub k: usize,
    /// Generator seed (fixed so baselines stay apples-to-apples).
    pub seed: u64,
    /// Where the generated dataset pair is cached between runs.
    pub cache_dir: PathBuf,
    /// Timed repetitions (best-of wins).
    pub reps: usize,
}

impl Default for ColdloadConfig {
    fn default() -> Self {
        let n = 1_000_000;
        ColdloadConfig {
            n,
            m: n / 4,
            k: 8,
            seed: crate::kernels::SCALED_SEED,
            cache_dir: PathBuf::from("target/hgb-cache"),
            reps: 3,
        }
    }
}

impl ColdloadConfig {
    /// A smaller instance for tests and quick local runs.
    pub fn with_scale(mut self, n: usize) -> Self {
        self.n = n;
        self.m = n / 4;
        self
    }

    fn dataset_name(&self) -> String {
        format!("hypergen-u{}", self.n)
    }

    fn hgb_path(&self) -> PathBuf {
        self.cache_dir.join(format!("{}.hgb", self.dataset_name()))
    }

    fn hgr_path(&self) -> PathBuf {
        self.cache_dir.join(format!("{}.hgr", self.dataset_name()))
    }
}

/// Results of one cold-load comparison.
pub struct ColdloadReport {
    pub name: String,
    pub n: usize,
    pub m: usize,
    pub k: usize,
    pub reps: usize,
    /// Best-of-reps: read the `.hgr` text and parse it into owned CSRs.
    pub parse_us: u64,
    /// Best-of-reps: mmap-open the `.hgb` and answer the first stats
    /// query. The number `ci.sh --bench` gates at +50% over baseline.
    pub gate_load_us: u64,
    /// `parse_us / gate_load_us` — the acceptance bar is ≥ 10x.
    pub speedup_x: f64,
    /// On-disk sizes, for the before/after table.
    pub hgr_bytes: u64,
    pub hgb_bytes: u64,
    /// Resident CSR bytes after the mmap open (mapped file length).
    pub resident_bytes: u64,
    /// Storage kind the timed open produced (`"mmap"` unless the
    /// platform forced the owned fallback).
    pub storage: &'static str,
}

impl ColdloadReport {
    /// Render as schema `hg-coldload/1` JSON (one line, trailing newline).
    pub fn render_json(&self) -> String {
        let mut w = hgobs::json::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("hg-coldload/1");
        w.key("name").string(&self.name);
        w.key("vertices").uint(self.n as u64);
        w.key("hyperedges").uint(self.m as u64);
        w.key("pins_per_edge").uint(self.k as u64);
        w.key("reps").uint(self.reps as u64);
        w.key("parse_us").uint(self.parse_us);
        w.key("gate_load_us").uint(self.gate_load_us);
        w.key("speedup_x").float(self.speedup_x);
        w.key("hgr_bytes").uint(self.hgr_bytes);
        w.key("hgb_bytes").uint(self.hgb_bytes);
        w.key("resident_bytes").uint(self.resident_bytes);
        w.key("storage").string(self.storage);
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        format!(
            "{} ({} vertices, {} hyperedges, {} pins/edge):\n\
             \x20 text parse     best {:>9} us  ({} bytes .hgr)\n\
             \x20 .hgb cold load best {:>9} us  ({} bytes .hgb, storage {})\n\
             \x20 speedup {:.1}x\n\
             gate_load_us: {}\n",
            self.name,
            self.n,
            self.m,
            self.k,
            self.parse_us,
            self.hgr_bytes,
            self.gate_load_us,
            self.hgb_bytes,
            self.storage,
            self.speedup_x,
            self.gate_load_us,
        )
    }
}

/// Generate the cached dataset pair if either file is missing: the
/// hypergraph is generated once and written as both `.hgb` and `.hgr`,
/// so both files describe it. Returns `(hgb_path, hgr_path)`.
pub fn ensure_datasets(cfg: &ColdloadConfig) -> Result<(PathBuf, PathBuf), String> {
    std::fs::create_dir_all(&cfg.cache_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.cache_dir.display()))?;
    let hgb = cfg.hgb_path();
    let hgr = cfg.hgr_path();
    if !hgb.exists() || !hgr.exists() {
        let h = hypergen::uniform_random_hypergraph(cfg.n, cfg.m, cfg.k, cfg.seed);
        hypergraph::write_hgb_file(&h, None, &hgb)
            .map_err(|e| format!("cannot write {}: {e}", hgb.display()))?;
        std::fs::write(&hgr, hypergraph::io::write_hgr(&h))
            .map_err(|e| format!("cannot write {}: {e}", hgr.display()))?;
    }
    Ok((hgb, hgr))
}

/// The "first stats query" both sides must answer after loading —
/// consuming the values keeps the loads from being optimized away.
fn first_stats(h: &hypergraph::Hypergraph, dv: usize, df: usize) -> u64 {
    (h.num_vertices() + h.num_edges() + h.num_pins() + dv + df) as u64
}

fn time_best(reps: usize, mut run: impl FnMut() -> Result<u64, String>) -> Result<u64, String> {
    let mut best = u64::MAX;
    let mut sink = 0u64;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        sink = sink.wrapping_add(run()?);
        best = best.min(t.elapsed().as_micros() as u64);
    }
    std::hint::black_box(sink);
    Ok(best)
}

fn open_timed(path: &Path) -> Result<(hypergraph::HgbDataset, u64), String> {
    let opened = hypergraph::open_hgb(path, HgbOpenOptions::default())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let stat = first_stats(
        &opened.hypergraph,
        opened.max_vertex_degree,
        opened.max_edge_degree,
    );
    Ok((opened, stat))
}

/// Run the comparison: best-of-reps text parse vs `.hgb` mmap open,
/// with a shape cross-check between the two loads.
pub fn run(cfg: &ColdloadConfig) -> Result<ColdloadReport, String> {
    let (hgb, hgr) = ensure_datasets(cfg)?;
    let file_len = |p: &Path| -> Result<u64, String> {
        Ok(std::fs::metadata(p)
            .map_err(|e| format!("{}: {e}", p.display()))?
            .len())
    };

    let parse_us = time_best(cfg.reps, || {
        let text = std::fs::read_to_string(&hgr).map_err(|e| format!("{}: {e}", hgr.display()))?;
        let h = hypergraph::io::read_hgr(&text).map_err(|e| e.to_string())?;
        Ok(first_stats(&h, h.max_vertex_degree(), h.max_edge_degree()))
    })?;

    let gate_load_us = time_best(cfg.reps, || open_timed(&hgb).map(|(_, stat)| stat))?;

    // Shape cross-check: the two files must describe the same
    // hypergraph, or the comparison is meaningless.
    let (opened, _) = open_timed(&hgb)?;
    let text = std::fs::read_to_string(&hgr).map_err(|e| format!("{}: {e}", hgr.display()))?;
    let parsed = hypergraph::io::read_hgr(&text).map_err(|e| e.to_string())?;
    if opened.hypergraph.num_vertices() != parsed.num_vertices()
        || opened.hypergraph.num_edges() != parsed.num_edges()
        || opened.hypergraph.num_pins() != parsed.num_pins()
        || opened.max_vertex_degree != parsed.max_vertex_degree()
        || opened.max_edge_degree != parsed.max_edge_degree()
    {
        return Err(format!(
            "cached dataset pair disagrees: .hgb ({}, {}, {}) vs .hgr ({}, {}, {}) — \
             delete {} and rerun",
            opened.hypergraph.num_vertices(),
            opened.hypergraph.num_edges(),
            opened.hypergraph.num_pins(),
            parsed.num_vertices(),
            parsed.num_edges(),
            parsed.num_pins(),
            cfg.cache_dir.display(),
        ));
    }

    let storage = match opened.hypergraph.storage_kind() {
        hypergraph::StorageKind::Mapped => "mmap",
        hypergraph::StorageKind::Owned => "owned",
    };
    Ok(ColdloadReport {
        name: cfg.dataset_name(),
        n: cfg.n,
        m: cfg.m,
        k: cfg.k,
        reps: cfg.reps,
        parse_us,
        gate_load_us,
        speedup_x: parse_us as f64 / gate_load_us.max(1) as f64,
        hgr_bytes: file_len(&hgr)?,
        hgb_bytes: file_len(&hgb)?,
        resident_bytes: opened.hypergraph.resident_bytes() as u64,
        storage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ColdloadConfig {
        let cfg = ColdloadConfig::default().with_scale(2_000);
        ColdloadConfig {
            reps: 1,
            cache_dir: std::env::temp_dir().join(format!("hgb-coldload-{}", std::process::id())),
            ..cfg
        }
    }

    #[test]
    fn report_has_gate_key_and_consistent_speedup() {
        let cfg = tiny();
        let report = run(&cfg).unwrap();
        assert_eq!(report.name, "hypergen-u2000");
        assert!(report.gate_load_us > 0 || report.parse_us >= report.gate_load_us);
        let json = report.render_json();
        assert!(json.contains("\"schema\":\"hg-coldload/1\""), "{json}");
        // The exact pattern ci.sh extracts with sed.
        let gate: u64 = json
            .split("\"gate_load_us\":")
            .nth(1)
            .unwrap()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap();
        assert_eq!(gate, report.gate_load_us);
        assert!(json.contains("\"speedup_x\":"), "{json}");
        #[cfg(unix)]
        assert_eq!(report.storage, "mmap");
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    }

    #[test]
    fn cached_files_are_reused() {
        let cfg = ColdloadConfig {
            cache_dir: std::env::temp_dir().join(format!("hgb-reuse-{}", std::process::id())),
            ..ColdloadConfig::default().with_scale(500)
        };
        let (hgb, _) = ensure_datasets(&cfg).unwrap();
        let stamp = std::fs::metadata(&hgb).unwrap().modified().unwrap();
        let (hgb2, _) = ensure_datasets(&cfg).unwrap();
        assert_eq!(hgb, hgb2);
        assert_eq!(std::fs::metadata(&hgb2).unwrap().modified().unwrap(), stamp);
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);
    }
}
