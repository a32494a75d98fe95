//! In-memory dataset registry: named, immutable, epoch-versioned
//! hypergraphs shared across worker threads.
//!
//! Datasets arrive either from disk at startup (`--preload`) or over
//! `POST /datasets`. Re-posting a name bumps its **epoch**; result-cache
//! keys embed the epoch, so stale cached answers are never served for a
//! replaced dataset and simply age out of the LRU.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use hypergraph::{Hypergraph, Relabeling, StorageKind};

/// Input formats the registry can parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// hMETIS-style `.hgr` (the repo's native format).
    Hgr,
    /// Pajek `.net`; each graph edge becomes a 2-pin hyperedge.
    Pajek,
    /// MatrixMarket coordinate `.mtx`; rows become hyperedges over
    /// column vertices (the row-net model).
    MatrixMarket,
    /// Binary on-disk CSR `.hgb` — file-path loads only (mmap-served);
    /// not accepted as a `POST /datasets` text body.
    Hgb,
}

impl Format {
    /// Parse a format name (`hgr` | `pajek`/`net` | `mtx`/`matrixmarket`
    /// | `hgb`).
    pub fn from_name(name: &str) -> Option<Format> {
        match name.to_ascii_lowercase().as_str() {
            "hgr" => Some(Format::Hgr),
            "pajek" | "net" => Some(Format::Pajek),
            "mtx" | "matrixmarket" => Some(Format::MatrixMarket),
            "hgb" => Some(Format::Hgb),
            _ => None,
        }
    }

    /// Infer from a file extension.
    pub fn from_path(path: &str) -> Option<Format> {
        let ext = path.rsplit('.').next()?;
        Format::from_name(ext)
    }
}

/// One loaded dataset. Immutable once registered; replacement creates a
/// new `Dataset` under the same name with a higher epoch.
#[derive(Debug)]
pub struct Dataset {
    pub name: String,
    /// Bumped each time this name is (re)registered.
    pub epoch: u64,
    pub hypergraph: Hypergraph,
    /// Provenance: `file:<path>` or `upload`.
    pub source: String,
    /// When the registry runs with relabeling (`hg serve --relabel`),
    /// `hypergraph` stores vertices in BFS discovery order for
    /// cache-local kernel sweeps and this mapping translates ids at the
    /// response boundary. `None` means ids are stored as submitted.
    pub relabeling: Option<Arc<Relabeling>>,
    /// How the CSR arrays are backed: owned heap `Vec`s or an mmap'd
    /// read-only `.hgb` file (reported as `"owned"` / `"mmap"`).
    pub storage: StorageKind,
    /// Wall-clock microseconds spent loading this dataset (parse +
    /// relabel for text formats; O(header) open for mapped `.hgb`).
    pub load_us: u64,
}

impl Dataset {
    /// The prefix every result-cache key for this dataset uses.
    pub fn cache_prefix(&self) -> String {
        format!("{}@{}", self.name, self.epoch)
    }

    /// Bytes of CSR data this dataset holds in memory. For mapped
    /// datasets this is the mapped file length — an *upper bound* on
    /// resident pages, since the OS pages lazily.
    pub fn resident_bytes(&self) -> usize {
        self.hypergraph.resident_bytes()
    }
}

/// Thread-safe name → dataset map.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Apply a BFS-order vertex relabeling to every dataset at load.
    relabel: bool,
}

/// Parse `text` in `format` into a hypergraph. Error strings are
/// user-facing (served as 400 bodies) and carry line numbers where the
/// underlying parser provides them.
pub fn parse_text(format: Format, text: &str) -> Result<Hypergraph, String> {
    match format {
        Format::Hgr => hypergraph::io::read_hgr(text).map_err(|e| e.to_string()),
        Format::Pajek => {
            let (g, _labels) =
                graphcore::pajek::parse_net(text).map_err(|e| format!("pajek parse error: {e}"))?;
            let mut b = hypergraph::HypergraphBuilder::new(g.num_nodes());
            for (u, v) in g.edges() {
                b.add_edge([u.0, v.0]);
            }
            Ok(b.build())
        }
        Format::MatrixMarket => {
            let m = matrixmarket::parse_mtx(text).map_err(|e| e.to_string())?;
            Ok(matrixmarket::row_net(&m))
        }
        Format::Hgb => {
            Err("binary .hgb datasets are loaded from a file path, not a text body".to_string())
        }
    }
}

/// The largest length a text document's header declares for a
/// per-vertex (or per-row, per-column) array: the `.hgr` vertex count,
/// the Pajek `*Vertices` count, or the larger MatrixMarket dimension.
/// Read from the header line alone, as each parser reads it, so a cap
/// can refuse the document before anything is allocated. `None` when
/// the header does not parse (the parser then says why).
pub fn declared_size(format: Format, text: &str) -> Option<usize> {
    let mut lines = text.lines();
    match format {
        Format::Hgr => lines
            .find(|l| !l.trim_start().starts_with('%'))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok(),
        Format::Pajek => lines
            .map(str::trim)
            .find(|l| !l.is_empty())?
            .strip_prefix("*Vertices")?
            .trim()
            .parse()
            .ok(),
        Format::MatrixMarket => {
            let size = lines
                .skip(1)
                .map(str::trim)
                .find(|l| !l.is_empty() && !l.starts_with('%'))?;
            let mut dims = size.split_whitespace().map(|d| d.parse::<usize>().ok());
            Some(dims.next()??.max(dims.next()??))
        }
        Format::Hgb => None,
    }
}

fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
    {
        return Err(format!(
            "invalid dataset name `{name}` (use [A-Za-z0-9._-]+)"
        ));
    }
    Ok(())
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry that relabels every dataset at load: vertices are
    /// renumbered in BFS discovery order (seeded from the highest-degree
    /// vertex) so CSR neighbor runs are cache-local for MS-BFS and the
    /// k-core peel. External 1-based ids are translated back at the
    /// query boundary via [`Dataset::relabeling`].
    pub fn with_relabeling(relabel: bool) -> Self {
        Registry {
            relabel,
            ..Registry::default()
        }
    }

    /// Register `text` under `name`, replacing (and epoch-bumping) any
    /// existing dataset of that name.
    pub fn insert_text(
        &self,
        name: &str,
        format: Format,
        text: &str,
        source: &str,
    ) -> Result<Arc<Dataset>, String> {
        validate_name(name)?;
        let started = std::time::Instant::now();
        let parsed = parse_text(format, text)?;
        let (hypergraph, relabeling) = if self.relabel && parsed.num_vertices() > 0 {
            let r = Relabeling::bfs_order(&parsed);
            let relabeled = r.apply(&parsed);
            (relabeled, Some(Arc::new(r)))
        } else {
            (parsed, None)
        };
        let load_us = started.elapsed().as_micros() as u64;
        self.register(name, hypergraph, relabeling, source, load_us)
    }

    /// Load a file from disk; the dataset name is the file stem.
    /// `.hgb` files are opened via mmap (O(header)); text formats are
    /// read and parsed.
    pub fn load_file(&self, path: &str) -> Result<Arc<Dataset>, String> {
        let format = Format::from_path(path)
            .ok_or_else(|| format!("cannot infer format of `{path}` (.hgr/.net/.mtx/.hgb)"))?;
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a dataset name from `{path}`"))?
            .to_string();
        let source = format!("file:{path}");
        if format == Format::Hgb {
            let started = std::time::Instant::now();
            let ds = hypergraph::open_hgb(
                std::path::Path::new(path),
                hypergraph::HgbOpenOptions::default(),
            )
            .map_err(|e| format!("{path}: {e}"))?;
            // A baked-in relabeling travels with the file and wins; a
            // bare file under `--relabel` is relabeled here, which
            // rebuilds the CSR into owned storage (the zero-copy path
            // is to bake the relabeling at `hg convert --relabel`).
            let (hypergraph, relabeling) = match ds.relabeling {
                Some(r) => (ds.hypergraph, Some(Arc::new(r))),
                None if self.relabel && ds.hypergraph.num_vertices() > 0 => {
                    let r = Relabeling::bfs_order(&ds.hypergraph);
                    let relabeled = r.apply(&ds.hypergraph);
                    (relabeled, Some(Arc::new(r)))
                }
                None => (ds.hypergraph, None),
            };
            let load_us = started.elapsed().as_micros() as u64;
            return self.register(&stem, hypergraph, relabeling, &source, load_us);
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        self.insert_text(&stem, format, &text, &source)
    }

    /// Validate the name, bump the epoch, and publish the dataset.
    fn register(
        &self,
        name: &str,
        hypergraph: Hypergraph,
        relabeling: Option<Arc<Relabeling>>,
        source: &str,
        load_us: u64,
    ) -> Result<Arc<Dataset>, String> {
        validate_name(name)?;
        hgobs::hist!("serve.dataset_load_us", load_us);
        let storage = hypergraph.storage_kind();
        let mut inner = self.inner.write().unwrap();
        let epoch = inner.get(name).map_or(0, |d| d.epoch + 1);
        let ds = Arc::new(Dataset {
            name: name.to_string(),
            epoch,
            hypergraph,
            source: source.to_string(),
            relabeling,
            storage,
            load_us,
        });
        inner.insert(name.to_string(), Arc::clone(&ds));
        Ok(ds)
    }

    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.inner.read().unwrap().get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `GET /datasets` body: every dataset with its shape and
    /// provenance, name-sorted for stable output.
    pub fn list_json(&self) -> String {
        let mut w = hgobs::json::JsonWriter::new();
        w.begin_object();
        w.key("datasets").begin_array();
        for name in self.names() {
            if let Some(d) = self.get(&name) {
                w.begin_object();
                w.key("name").string(&d.name);
                w.key("epoch").uint(d.epoch);
                w.key("vertices").uint(d.hypergraph.num_vertices() as u64);
                w.key("hyperedges").uint(d.hypergraph.num_edges() as u64);
                w.key("pins").uint(d.hypergraph.num_pins() as u64);
                w.key("storage_bytes")
                    .uint(d.hypergraph.storage_bytes() as u64);
                w.key("storage").string(d.storage.as_str());
                w.key("resident_bytes").uint(d.resident_bytes() as u64);
                w.key("load_us").uint(d.load_us);
                w.key("relabeled").raw(if d.relabeling.is_some() {
                    "true"
                } else {
                    "false"
                });
                w.key("source").string(&d.source);
                w.end_object();
            }
        }
        w.end_array();
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY_HGR: &str = "2 3\n1 2\n2 3\n";

    #[test]
    fn insert_get_and_epoch_bump() {
        let r = Registry::new();
        let d0 = r
            .insert_text("toy", Format::Hgr, TOY_HGR, "upload")
            .unwrap();
        assert_eq!(d0.epoch, 0);
        assert_eq!(d0.hypergraph.num_vertices(), 3);
        assert_eq!(d0.cache_prefix(), "toy@0");

        let d1 = r
            .insert_text("toy", Format::Hgr, "1 2\n1 2\n", "upload")
            .unwrap();
        assert_eq!(d1.epoch, 1);
        assert_eq!(r.get("toy").unwrap().hypergraph.num_edges(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn bad_hgr_reports_line_number() {
        let r = Registry::new();
        let err = r
            .insert_text("bad", Format::Hgr, "2 3\n1 2\n9\n", "upload")
            .unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(r.get("bad").is_none());
    }

    #[test]
    fn declared_size_reads_each_header_as_its_parser_does() {
        assert_eq!(declared_size(Format::Hgr, "% c\n3 7\n1 2\n"), Some(7));
        assert_eq!(declared_size(Format::Pajek, "\n  *Vertices 5\n"), Some(5));
        let mtx = "%%MatrixMarket matrix coordinate real general\n%c\n\n4 9 1\n1 1 1\n";
        assert_eq!(declared_size(Format::MatrixMarket, mtx), Some(9));
        assert_eq!(declared_size(Format::Hgr, "3 x\n"), None);
        assert_eq!(declared_size(Format::Pajek, "*Edges\n"), None);
    }

    #[test]
    fn invalid_names_rejected() {
        let r = Registry::new();
        assert!(r.insert_text("", Format::Hgr, TOY_HGR, "u").is_err());
        assert!(r.insert_text("a/b", Format::Hgr, TOY_HGR, "u").is_err());
        assert!(r
            .insert_text("ok-name.v2", Format::Hgr, TOY_HGR, "u")
            .is_ok());
    }

    #[test]
    fn pajek_and_mtx_formats() {
        let r = Registry::new();
        let net = "*Vertices 3\n1 \"a\"\n2 \"b\"\n3 \"c\"\n*Edges\n1 2\n2 3\n";
        let d = r.insert_text("net", Format::Pajek, net, "u").unwrap();
        assert_eq!(d.hypergraph.num_vertices(), 3);
        assert_eq!(d.hypergraph.num_edges(), 2);
        assert_eq!(d.hypergraph.max_edge_degree(), 2);

        let mtx =
            "%%MatrixMarket matrix coordinate real general\n2 3 3\n1 1 1.0\n1 2 1.0\n2 3 1.0\n";
        let d = r
            .insert_text("mtx", Format::MatrixMarket, mtx, "u")
            .unwrap();
        assert_eq!(d.hypergraph.num_edges(), 2);
    }

    #[test]
    fn format_inference() {
        assert_eq!(Format::from_path("x/y/z.hgr"), Some(Format::Hgr));
        assert_eq!(Format::from_path("a.net"), Some(Format::Pajek));
        assert_eq!(Format::from_path("a.mtx"), Some(Format::MatrixMarket));
        assert_eq!(Format::from_path("a.csv"), None);
        assert_eq!(Format::from_name("PAJEK"), Some(Format::Pajek));
    }

    #[test]
    fn list_json_is_sorted_and_stable() {
        let r = Registry::new();
        r.insert_text("zz", Format::Hgr, TOY_HGR, "u").unwrap();
        r.insert_text("aa", Format::Hgr, TOY_HGR, "u").unwrap();
        let j = r.list_json();
        assert!(j.find("\"aa\"").unwrap() < j.find("\"zz\"").unwrap());
        assert!(j.contains("\"vertices\":3"));
        assert!(j.contains("\"storage\":\"owned\""), "{j}");
        assert!(j.contains("\"resident_bytes\":"), "{j}");
        assert!(j.contains("\"load_us\":"), "{j}");
    }

    #[cfg(unix)]
    #[test]
    fn hgb_file_loads_as_mmap() {
        let h = parse_text(Format::Hgr, TOY_HGR).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hgserve-reg-{}.hgb", std::process::id()));
        hypergraph::write_hgb_file(&h, None, &path).unwrap();

        let r = Registry::new();
        let ds = r.load_file(path.to_str().unwrap()).unwrap();
        assert_eq!(ds.storage, StorageKind::Mapped);
        assert_eq!(ds.hypergraph.num_vertices(), 3);
        assert_eq!(
            ds.resident_bytes(),
            std::fs::metadata(&path).unwrap().len() as usize
        );
        assert!(r.list_json().contains("\"storage\":\"mmap\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn hgb_baked_relabeling_wins_over_flag() {
        let h = parse_text(Format::Hgr, TOY_HGR).unwrap();
        let rel = Relabeling::bfs_order(&h);
        let g = rel.apply(&h);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hgserve-rel-{}.hgb", std::process::id()));
        hypergraph::write_hgb_file(&g, Some(&rel), &path).unwrap();

        let r = Registry::with_relabeling(true);
        let ds = r.load_file(path.to_str().unwrap()).unwrap();
        // The file's relabeling is used directly — storage stays mapped.
        assert_eq!(ds.storage, StorageKind::Mapped);
        assert!(ds.relabeling.is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hgb_rejected_as_text_body() {
        let r = Registry::new();
        let err = r
            .insert_text("x", Format::Hgb, "junk", "upload")
            .unwrap_err();
        assert!(err.contains("file path"), "{err}");
    }
}
