//! `.hgb` — the binary on-disk CSR hypergraph format.
//!
//! A `.hgb` file is the frozen dual-CSR of a [`Hypergraph`] laid out so
//! it can be memory-mapped and served without parsing:
//!
//! ```text
//! byte 0   magic "HGB1"                 (4 bytes)
//!          version        u32  (= 1)
//!          num_vertices   u64
//!          num_edges      u64
//!          num_pins       u64
//!          flags          u64  (bit 0: relabeling sections present)
//!          max_vertex_deg u64  (precomputed summary statistics,
//!          max_edge_deg   u64   so stats answers are O(1) after open)
//!          section_count  u64
//!          sections       count x { id u64, byte_offset u64, byte_len u64 }
//!          header_fnv1a   u64  (FNV-1a over every header byte above)
//! then the sections, each 64-byte aligned, little-endian u32 arrays:
//!   1 EDGE_OFFSETS    num_edges+1     CSR offsets into PIN_LIST
//!   2 PIN_LIST        num_pins        member vertices per hyperedge
//!   3 VERTEX_OFFSETS  num_vertices+1  CSR offsets into ADJ_LIST
//!   4 ADJ_LIST        num_pins        incident hyperedges per vertex
//!   5 VERTEX_DEGREES  num_vertices    d(v), redundant with offsets but
//!                                     lets degree queries touch one
//!                                     contiguous section
//!   6 EDGE_DEGREES    num_edges       d(f), same rationale
//!   7 REL_V_TO_NEW    num_vertices    (optional) relabeling forward map
//!   8 REL_V_TO_OLD    num_vertices    (optional) relabeling inverse map
//!   9 REL_E_TO_OLD    num_edges       (optional) hyperedge inverse map
//! ```
//!
//! Sections start on 64-byte boundaries, so once the file is mapped
//! (page-aligned) every array is cache-line aligned for the 256-bit
//! lane bitset kernels. The header carries an FNV-1a checksum; the
//! section table is bounds- and alignment-checked against the file
//! length before any array is touched, so [`open_hgb`] is O(header) —
//! it never scans the data sections (pass [`HgbOpenOptions::verify`]
//! to opt into the full O(data) structural validation, which the
//! conversion path and the test suites do).
//!
//! When a relabeling is baked in ([`write_hgb`] with `Some(r)`), the
//! stored CSR is the *relabeled* hypergraph and sections 7–9 carry the
//! id translation, so a server can keep serving external ids while the
//! kernels sweep the cache-local layout.

use std::io::Write;
use std::sync::Arc;

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::relabel::Relabeling;
use crate::storage::{MapRegion, MappedCsr, SectionRange, Storage};

/// File magic, first four bytes of every `.hgb`.
pub const MAGIC: [u8; 4] = *b"HGB1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Every section starts on a multiple of this (cache-line/lane size).
pub const SECTION_ALIGN: usize = 64;

/// Section ids (the `id` field of each section-table entry).
pub mod section {
    pub const EDGE_OFFSETS: u64 = 1;
    pub const PIN_LIST: u64 = 2;
    pub const VERTEX_OFFSETS: u64 = 3;
    pub const ADJ_LIST: u64 = 4;
    pub const VERTEX_DEGREES: u64 = 5;
    pub const EDGE_DEGREES: u64 = 6;
    pub const REL_V_TO_NEW: u64 = 7;
    pub const REL_V_TO_OLD: u64 = 8;
    pub const REL_E_TO_OLD: u64 = 9;
}

/// Flag bit: relabeling sections 7–9 are present.
pub const FLAG_RELABELED: u64 = 1;

/// Structured `.hgb` error: what is wrong and, when attributable to a
/// specific position, the byte offset in the file. Mirrors
/// [`crate::io::HgrError`]'s line numbers for the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HgbError {
    /// Byte offset of the problem in the file; `None` for whole-file
    /// errors (I/O failures, unreadable paths).
    pub offset: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl HgbError {
    fn at(offset: u64, message: impl Into<String>) -> Self {
        HgbError {
            offset: Some(offset),
            message: message.into(),
        }
    }

    fn whole(message: impl Into<String>) -> Self {
        HgbError {
            offset: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HgbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(o) => write!(f, "hgb error at byte {o}: {}", self.message),
            None => write!(f, "hgb error: {}", self.message),
        }
    }
}

impl std::error::Error for HgbError {}

/// 64-bit FNV-1a over a byte slice: the header and section checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn pad_to(len: usize) -> usize {
    len.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Serialize one `u32` array little-endian. On little-endian targets
/// this is a single contiguous write; elsewhere a per-element fallback.
fn write_u32s(w: &mut impl Write, xs: &[u32]) -> std::io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `xs` is `4 * xs.len()` initialized bytes with no
        // padding, and `u8` has alignment 1.
        let bytes = unsafe { std::slice::from_raw_parts(xs.as_ptr() as *const u8, xs.len() * 4) };
        w.write_all(bytes)
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut buf = Vec::with_capacity(8192);
        for chunk in xs.chunks(2048) {
            buf.clear();
            for x in chunk {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        Ok(())
    }
}

/// One planned section: id plus the array to write.
struct Plan<'a> {
    id: u64,
    data: SectionData<'a>,
}

enum SectionData<'a> {
    Raw(&'a [u32]),
    /// Degrees derived from a CSR offsets array (adjacent differences),
    /// computed on the fly so the writer never materializes them.
    Degrees(&'a [u32]),
}

impl SectionData<'_> {
    fn count(&self) -> usize {
        match self {
            SectionData::Raw(xs) => xs.len(),
            SectionData::Degrees(offsets) => offsets.len() - 1,
        }
    }

    fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        match self {
            SectionData::Raw(xs) => write_u32s(w, xs),
            SectionData::Degrees(offsets) => {
                let mut buf = Vec::with_capacity(4096);
                for pair in offsets.windows(2) {
                    buf.extend_from_slice(&(pair[1] - pair[0]).to_le_bytes());
                    if buf.len() >= 4096 {
                        w.write_all(&buf)?;
                        buf.clear();
                    }
                }
                w.write_all(&buf)
            }
        }
    }
}

fn ids_as_u32(ids: &[VertexId]) -> &[u32] {
    // SAFETY: `VertexId` is `repr(transparent)` over `u32`, so the slice
    // reinterprets in place with the same length.
    unsafe { std::slice::from_raw_parts(ids.as_ptr() as *const u32, ids.len()) }
}

fn eids_as_u32(ids: &[EdgeId]) -> &[u32] {
    // SAFETY: `EdgeId` is `repr(transparent)` over `u32`, as above.
    unsafe { std::slice::from_raw_parts(ids.as_ptr() as *const u32, ids.len()) }
}

/// Write `h` (and optionally the relabeling that produced it) as a
/// `.hgb` stream. The caller decides buffering; wrap files in a
/// `BufWriter`.
pub fn write_hgb(
    h: &Hypergraph,
    relabeling: Option<&Relabeling>,
    w: &mut impl Write,
) -> std::io::Result<()> {
    let (edge_offsets, pin_list, vertex_offsets, adj_list) = h.csr_slices();
    let mut plans = vec![
        Plan {
            id: section::EDGE_OFFSETS,
            data: SectionData::Raw(edge_offsets),
        },
        Plan {
            id: section::PIN_LIST,
            data: SectionData::Raw(ids_as_u32(pin_list)),
        },
        Plan {
            id: section::VERTEX_OFFSETS,
            data: SectionData::Raw(vertex_offsets),
        },
        Plan {
            id: section::ADJ_LIST,
            data: SectionData::Raw(eids_as_u32(adj_list)),
        },
        Plan {
            id: section::VERTEX_DEGREES,
            data: SectionData::Degrees(vertex_offsets),
        },
        Plan {
            id: section::EDGE_DEGREES,
            data: SectionData::Degrees(edge_offsets),
        },
    ];
    let mut flags = 0u64;
    if let Some(r) = relabeling {
        let (v_to_new, v_to_old, e_to_old) = r.parts();
        assert_eq!(v_to_new.len(), h.num_vertices(), "relabeling size mismatch");
        assert_eq!(e_to_old.len(), h.num_edges(), "relabeling size mismatch");
        flags |= FLAG_RELABELED;
        plans.push(Plan {
            id: section::REL_V_TO_NEW,
            data: SectionData::Raw(v_to_new),
        });
        plans.push(Plan {
            id: section::REL_V_TO_OLD,
            data: SectionData::Raw(v_to_old),
        });
        plans.push(Plan {
            id: section::REL_E_TO_OLD,
            data: SectionData::Raw(e_to_old),
        });
    }

    // Header layout (see module docs); sections start at the first
    // 64-byte boundary past the header.
    let header_len = 4 + 4 + 8 * 7 + plans.len() * 24 + 8;
    let mut header = Vec::with_capacity(header_len);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(h.num_vertices() as u64).to_le_bytes());
    header.extend_from_slice(&(h.num_edges() as u64).to_le_bytes());
    header.extend_from_slice(&(h.num_pins() as u64).to_le_bytes());
    header.extend_from_slice(&flags.to_le_bytes());
    header.extend_from_slice(&(h.max_vertex_degree() as u64).to_le_bytes());
    header.extend_from_slice(&(h.max_edge_degree() as u64).to_le_bytes());
    header.extend_from_slice(&(plans.len() as u64).to_le_bytes());
    let mut offset = pad_to(header_len);
    let mut section_offsets = Vec::with_capacity(plans.len());
    for p in &plans {
        let len = p.data.count() * 4;
        header.extend_from_slice(&p.id.to_le_bytes());
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(len as u64).to_le_bytes());
        section_offsets.push(offset);
        offset = pad_to(offset + len);
    }
    header.extend_from_slice(&fnv1a(&header).to_le_bytes());
    debug_assert_eq!(header.len(), header_len);

    w.write_all(&header)?;
    let mut written = header.len();
    const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
    for (p, &start) in plans.iter().zip(&section_offsets) {
        w.write_all(&ZEROS[..start - written])?;
        p.data.write(w)?;
        written = start + p.data.count() * 4;
    }
    w.flush()
}

/// Write `h` to `path` as `.hgb` (buffered).
pub fn write_hgb_file(
    h: &Hypergraph,
    relabeling: Option<&Relabeling>,
    path: &std::path::Path,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_hgb(h, relabeling, &mut w)
}

/// Accumulates hyperedges and writes a `.hgb` directly — no
/// [`Hypergraph`] and no text form are ever materialized, so emitting a
/// million-vertex generated dataset peaks at the size of the CSR
/// itself. Used by `hypergen`'s streaming emitters (`hg gen ... -o
/// out.hgb`).
///
/// Semantics match [`crate::HypergraphBuilder`]: pins are sorted and
/// deduplicated per edge, duplicate edges are kept, empty edges are
/// allowed.
pub struct HgbStreamWriter {
    num_vertices: usize,
    pins: Vec<u32>,
    offsets: Vec<u32>,
}

impl HgbStreamWriter {
    /// Writer over the vertex set `0..num_vertices`.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "vertex count exceeds u32"
        );
        HgbStreamWriter {
            num_vertices,
            pins: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Pre-reserve capacity for `additional_pins` more incidences.
    pub fn reserve_pins(&mut self, additional_pins: usize) {
        self.pins.reserve(additional_pins);
    }

    /// Number of hyperedges added so far.
    pub fn num_edges(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Add one hyperedge (sorted + deduplicated in place).
    ///
    /// # Panics
    /// If any vertex id is out of range.
    pub fn add_edge(&mut self, vertices: impl IntoIterator<Item = u32>) {
        let start = self.pins.len();
        for v in vertices {
            assert!(
                (v as usize) < self.num_vertices,
                "vertex {v} out of range for {} vertices",
                self.num_vertices
            );
            self.pins.push(v);
        }
        self.pins[start..].sort_unstable();
        let mut write = start;
        for read in start..self.pins.len() {
            if read == start || self.pins[read] != self.pins[write - 1] {
                self.pins[write] = self.pins[read];
                write += 1;
            }
        }
        self.pins.truncate(write);
        assert!(
            self.pins.len() <= u32::MAX as usize,
            "pin count exceeds u32"
        );
        self.offsets.push(self.pins.len() as u32);
    }

    /// Build the vertex-side CSR and stream the complete `.hgb` out.
    pub fn finish(self, w: &mut impl Write) -> std::io::Result<()> {
        // Same counting-scatter as `HypergraphBuilder::build`, then
        // reuse the normal writer over a transient owned hypergraph —
        // the only allocations are the CSR arrays themselves.
        let h = crate::builder::build_from_edge_csr(self.num_vertices, self.offsets, self.pins);
        write_hgb(&h, None, w)
    }

    /// [`HgbStreamWriter::finish`] into a buffered file.
    pub fn finish_file(self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.finish(&mut w)
    }
}

/// How [`open_hgb`] should back the returned hypergraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HgbOpenMode {
    /// Memory-map the file (read-only); fall back to [`HgbOpenMode::Owned`]
    /// when mmap is unavailable (non-unix) or fails. The default: cold
    /// load is O(header) and resident memory is paged by the OS.
    Mmap,
    /// Decode into owned `Vec`s (one full read + copy) — the portable
    /// path, also what you want when the file lives on storage slower
    /// than a page fault should hit.
    Owned,
}

/// Options for [`open_hgb`].
#[derive(Clone, Copy, Debug)]
pub struct HgbOpenOptions {
    pub mode: HgbOpenMode,
    /// Run the full O(data) structural validation (offset monotonicity,
    /// pin ranges, CSR duality, relabeling permutations). Off by
    /// default — the point of the format is O(header) opens; the
    /// conversion path and the test suites turn it on.
    pub verify: bool,
}

impl Default for HgbOpenOptions {
    fn default() -> Self {
        HgbOpenOptions {
            mode: HgbOpenMode::Mmap,
            verify: false,
        }
    }
}

/// Everything decoded from a `.hgb` file.
#[derive(Debug)]
pub struct HgbDataset {
    pub hypergraph: Hypergraph,
    /// Present when the file was written with a baked-in relabeling:
    /// the stored CSR is under new ids and this maps back to old ids.
    pub relabeling: Option<Relabeling>,
    /// Summary statistics straight from the header (no array touched).
    pub max_vertex_degree: usize,
    pub max_edge_degree: usize,
}

struct ParsedHeader {
    num_vertices: u64,
    num_edges: u64,
    num_pins: u64,
    flags: u64,
    max_vertex_degree: u64,
    max_edge_degree: u64,
    /// id → (byte_offset, byte_len)
    sections: Vec<(u64, u64, u64)>,
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// Parse and checksum the header; validate the section table against
/// `file_len`. O(header).
fn parse_header(bytes: &[u8], file_len: u64) -> Result<ParsedHeader, HgbError> {
    const FIXED: usize = 4 + 4 + 8 * 7; // magic..section_count
    if bytes.len() < FIXED {
        return Err(HgbError::at(
            bytes.len() as u64,
            format!(
                "truncated header: {} bytes, need at least {FIXED}",
                bytes.len()
            ),
        ));
    }
    if bytes[0..4] != MAGIC {
        return Err(HgbError::at(
            0,
            format!("bad magic {:02x?} (expected \"HGB1\")", &bytes[0..4]),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(HgbError::at(
            4,
            format!("unsupported version {version} (this reader understands {VERSION})"),
        ));
    }
    let num_vertices = read_u64(bytes, 8);
    let num_edges = read_u64(bytes, 16);
    let num_pins = read_u64(bytes, 24);
    let flags = read_u64(bytes, 32);
    let max_vertex_degree = read_u64(bytes, 40);
    let max_edge_degree = read_u64(bytes, 48);
    let section_count = read_u64(bytes, 56);
    if section_count > 64 {
        return Err(HgbError::at(
            56,
            format!("implausible section count {section_count}"),
        ));
    }
    let header_len = FIXED + section_count as usize * 24 + 8;
    if bytes.len() < header_len {
        return Err(HgbError::at(
            bytes.len() as u64,
            format!(
                "truncated header: {} bytes, need {header_len} for {section_count} sections",
                bytes.len()
            ),
        ));
    }
    let checksum_off = header_len - 8;
    let want = read_u64(bytes, checksum_off);
    let got = fnv1a(&bytes[..checksum_off]);
    if want != got {
        return Err(HgbError::at(
            checksum_off as u64,
            format!("header checksum mismatch: stored {want:#018x}, computed {got:#018x}"),
        ));
    }
    let mut sections = Vec::with_capacity(section_count as usize);
    for i in 0..section_count as usize {
        let entry = FIXED + i * 24;
        let id = read_u64(bytes, entry);
        let off = read_u64(bytes, entry + 8);
        let len = read_u64(bytes, entry + 16);
        if off % SECTION_ALIGN as u64 != 0 {
            return Err(HgbError::at(
                entry as u64 + 8,
                format!("section {id} offset {off} not {SECTION_ALIGN}-byte aligned"),
            ));
        }
        if len % 4 != 0 {
            return Err(HgbError::at(
                entry as u64 + 16,
                format!("section {id} length {len} not a multiple of 4"),
            ));
        }
        let end = off.checked_add(len).ok_or_else(|| {
            HgbError::at(entry as u64 + 8, format!("section {id} range overflows"))
        })?;
        if end > file_len {
            return Err(HgbError::at(
                entry as u64 + 8,
                format!(
                    "section {id} [{off}, {end}) exceeds file length {file_len} (truncated file?)"
                ),
            ));
        }
        sections.push((id, off, len));
    }
    Ok(ParsedHeader {
        num_vertices,
        num_edges,
        num_pins,
        flags,
        max_vertex_degree,
        max_edge_degree,
        sections,
    })
}

impl ParsedHeader {
    /// Locate a required section and check its element count.
    fn require(&self, id: u64, want_count: u64) -> Result<SectionRange, HgbError> {
        let &(_, off, len) = self
            .sections
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .ok_or_else(|| HgbError::whole(format!("missing required section {id}")))?;
        if len / 4 != want_count {
            return Err(HgbError::at(
                off,
                format!("section {id} holds {} u32s, expected {want_count}", len / 4),
            ));
        }
        Ok(SectionRange {
            byte_off: off as usize,
            count: want_count as usize,
        })
    }
}

/// Open a `.hgb` file. The default is the mmap path: O(header) work,
/// arrays paged in by the OS on first touch. See [`HgbOpenOptions`].
pub fn open_hgb(path: &std::path::Path, opts: HgbOpenOptions) -> Result<HgbDataset, HgbError> {
    let io_err =
        |e: std::io::Error| HgbError::whole(format!("cannot read {}: {e}", path.display()));
    match opts.mode {
        HgbOpenMode::Mmap => match MapRegion::map_path(path) {
            Ok(region) => open_mapped(Arc::new(region), opts.verify),
            // mmap unavailable (non-unix, weird fs): portable fallback.
            Err(_) => {
                let bytes = std::fs::read(path).map_err(io_err)?;
                open_owned(&bytes, opts.verify)
            }
        },
        HgbOpenMode::Owned => {
            let bytes = std::fs::read(path).map_err(io_err)?;
            open_owned(&bytes, opts.verify)
        }
    }
}

/// Resolve the header + section table of an already-mapped region into
/// a zero-copy [`Hypergraph`].
fn open_mapped(region: Arc<MapRegion>, verify: bool) -> Result<HgbDataset, HgbError> {
    let bytes = region.bytes();
    let header = parse_header(bytes, bytes.len() as u64)?;
    let csr = MappedCsr {
        edge_offsets: header.require(section::EDGE_OFFSETS, header.num_edges + 1)?,
        pin_list: header.require(section::PIN_LIST, header.num_pins)?,
        vertex_offsets: header.require(section::VERTEX_OFFSETS, header.num_vertices + 1)?,
        adj_list: header.require(section::ADJ_LIST, header.num_pins)?,
        region: Arc::clone(&region),
    };
    // Degree sections must exist with the right shape even though the
    // mapped path reads degrees off the offsets arrays.
    header.require(section::VERTEX_DEGREES, header.num_vertices)?;
    header.require(section::EDGE_DEGREES, header.num_edges)?;
    let relabeling = decode_relabeling(&header, |r| region.u32s(r.byte_off, r.count).to_vec())?;
    let h = Hypergraph::from_storage(Storage::Mapped(csr));
    finish_open(h, relabeling, &header, verify)
}

/// Decode a `.hgb` byte buffer into owned `Vec`-backed storage.
fn open_owned(bytes: &[u8], verify: bool) -> Result<HgbDataset, HgbError> {
    let header = parse_header(bytes, bytes.len() as u64)?;
    let take = |r: SectionRange| -> Vec<u32> {
        bytes[r.byte_off..r.byte_off + r.count * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    };
    let edge_offsets = take(header.require(section::EDGE_OFFSETS, header.num_edges + 1)?);
    let pin_list: Vec<VertexId> = take(header.require(section::PIN_LIST, header.num_pins)?)
        .into_iter()
        .map(VertexId)
        .collect();
    let vertex_offsets = take(header.require(section::VERTEX_OFFSETS, header.num_vertices + 1)?);
    let adj_list: Vec<EdgeId> = take(header.require(section::ADJ_LIST, header.num_pins)?)
        .into_iter()
        .map(EdgeId)
        .collect();
    header.require(section::VERTEX_DEGREES, header.num_vertices)?;
    header.require(section::EDGE_DEGREES, header.num_edges)?;
    let relabeling = decode_relabeling(&header, take)?;
    let h = Hypergraph::from_storage(Storage::Owned {
        edge_offsets,
        pin_list,
        vertex_offsets,
        adj_list,
    });
    finish_open(h, relabeling, &header, verify)
}

fn decode_relabeling(
    header: &ParsedHeader,
    mut take: impl FnMut(SectionRange) -> Vec<u32>,
) -> Result<Option<Relabeling>, HgbError> {
    if header.flags & FLAG_RELABELED == 0 {
        return Ok(None);
    }
    let n = header.num_vertices;
    let m = header.num_edges;
    let v_to_new = take(header.require(section::REL_V_TO_NEW, n)?);
    let v_to_old = take(header.require(section::REL_V_TO_OLD, n)?);
    let e_to_old = take(header.require(section::REL_E_TO_OLD, m)?);
    // Bounds + mutual-inverse checks: a corrupted map must not become
    // an out-of-bounds index at query time.
    for (i, &x) in v_to_new.iter().enumerate() {
        if x as u64 >= n || v_to_old.get(x as usize).copied() != Some(i as u32) {
            return Err(HgbError::whole(format!(
                "relabeling sections are not a consistent vertex permutation (old id {i})"
            )));
        }
    }
    for &f in &e_to_old {
        if f as u64 >= m {
            return Err(HgbError::whole(format!(
                "relabeling edge map entry {f} out of range 0..{m}"
            )));
        }
    }
    Ok(Some(Relabeling::from_parts(v_to_new, v_to_old, e_to_old)))
}

fn finish_open(
    h: Hypergraph,
    relabeling: Option<Relabeling>,
    header: &ParsedHeader,
    verify: bool,
) -> Result<HgbDataset, HgbError> {
    if verify {
        // The crate's full structural validator: offsets (from 0,
        // non-decreasing, ending at num_pins) before anything slices
        // through them, then sorted pins and CSR duality.
        crate::validate::check_structure(&h)
            .map_err(|e| HgbError::whole(format!("structural validation failed: {e}")))?;
        if h.max_vertex_degree() as u64 != header.max_vertex_degree
            || h.max_edge_degree() as u64 != header.max_edge_degree
        {
            return Err(HgbError::whole(
                "header degree summary disagrees with the CSR",
            ));
        }
    }
    Ok(HgbDataset {
        hypergraph: h,
        relabeling,
        max_vertex_degree: header.max_vertex_degree as usize,
        max_edge_degree: header.max_edge_degree as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([4]);
        b.add_edge([]);
        b.build()
    }

    fn encode(h: &Hypergraph, r: Option<&Relabeling>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_hgb(h, r, &mut buf).unwrap();
        buf
    }

    fn assert_same(a: &Hypergraph, b: &Hypergraph) {
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

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn owned_roundtrip() {
        let h = toy();
        let bytes = encode(&h, None);
        let ds = open_owned(&bytes, true).unwrap();
        assert_same(&h, &ds.hypergraph);
        assert!(ds.relabeling.is_none());
        assert_eq!(ds.max_vertex_degree, h.max_vertex_degree());
        assert_eq!(ds.max_edge_degree, h.max_edge_degree());
    }

    #[cfg(unix)]
    #[test]
    fn mmap_roundtrip_via_file() {
        let h = toy();
        let path = std::env::temp_dir().join(format!("hgb-unit-{}.hgb", std::process::id()));
        write_hgb_file(&h, None, &path).unwrap();
        let ds = open_hgb(
            &path,
            HgbOpenOptions {
                mode: HgbOpenMode::Mmap,
                verify: true,
            },
        )
        .unwrap();
        assert_eq!(
            ds.hypergraph.storage_kind(),
            crate::storage::StorageKind::Mapped
        );
        assert_same(&h, &ds.hypergraph);
        // Mapped resident bytes = the file length.
        assert_eq!(
            ds.hypergraph.resident_bytes(),
            std::fs::metadata(&path).unwrap().len() as usize
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn relabeling_roundtrips() {
        let h = toy();
        let r = Relabeling::bfs_order(&h);
        let g = r.apply(&h);
        let bytes = encode(&g, Some(&r));
        let ds = open_owned(&bytes, true).unwrap();
        let r2 = ds.relabeling.expect("relabeling present");
        assert_eq!(r, r2);
        assert_same(&g, &ds.hypergraph);
    }

    #[test]
    fn sections_are_aligned() {
        let bytes = encode(&toy(), None);
        let header = parse_header(&bytes, bytes.len() as u64).unwrap();
        assert_eq!(header.sections.len(), 6);
        for &(_, off, _) in &header.sections {
            assert_eq!(off % SECTION_ALIGN as u64, 0);
        }
    }

    #[test]
    fn bad_magic_is_reported_at_byte_zero() {
        let mut bytes = encode(&toy(), None);
        bytes[0] = b'X';
        let err = open_owned(&bytes, false).unwrap_err();
        assert_eq!(err.offset, Some(0));
        assert!(err
            .to_string()
            .starts_with("hgb error at byte 0: bad magic"));
    }

    #[test]
    fn corrupted_header_fails_checksum_with_offset() {
        let mut bytes = encode(&toy(), None);
        bytes[16] ^= 0xff; // num_edges field
        let err = open_owned(&bytes, false).unwrap_err();
        assert!(err.message.contains("header checksum mismatch"), "{err}");
        assert!(err.offset.is_some());
    }

    #[test]
    fn truncated_file_points_at_offending_section() {
        let bytes = encode(&toy(), None);
        let cut = &bytes[..bytes.len() - 8];
        let err = open_owned(cut, false).unwrap_err();
        assert!(
            err.message.contains("exceeds file length") || err.message.contains("truncated"),
            "{err}"
        );
        assert!(err.offset.is_some(), "{err}");
    }

    #[test]
    fn truncated_header_is_an_error() {
        let bytes = encode(&toy(), None);
        let err = open_owned(&bytes[..10], false).unwrap_err();
        assert!(err.message.contains("truncated header"), "{err}");
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = encode(&toy(), None);
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        // Re-seal the checksum so the version check, not the checksum,
        // fires.
        let count = read_u64(&bytes, 56) as usize;
        let checksum_off = 4 + 4 + 8 * 7 + count * 24;
        let sum = fnv1a(&bytes[..checksum_off]);
        bytes[checksum_off..checksum_off + 8].copy_from_slice(&sum.to_le_bytes());
        let err = open_owned(&bytes, false).unwrap_err();
        assert_eq!(err.offset, Some(4));
        assert!(err.message.contains("unsupported version 9"), "{err}");
    }

    #[test]
    fn stream_writer_matches_builder_output() {
        let mut sw = HgbStreamWriter::new(5);
        sw.add_edge([2, 0, 1, 2]); // dup within edge collapses
        sw.add_edge([3, 1, 2]);
        sw.add_edge([4]);
        sw.add_edge([]);
        assert_eq!(sw.num_edges(), 4);
        let mut buf = Vec::new();
        sw.finish(&mut buf).unwrap();
        let via_stream = open_owned(&buf, true).unwrap().hypergraph;
        assert_same(&toy(), &via_stream);
    }

    #[test]
    fn empty_hypergraph_roundtrips() {
        let h = HypergraphBuilder::new(0).build();
        let bytes = encode(&h, None);
        let ds = open_owned(&bytes, true).unwrap();
        assert!(ds.hypergraph.is_empty());
    }
}
