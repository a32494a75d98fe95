//! Backing storage for a [`Hypergraph`]'s CSR arrays: owned `Vec`s or
//! a read-only memory-mapped `.hgb` file.
//!
//! The whole kernel stack reads the CSR through one view, [`Csr`]: the
//! four arrays as plain slices. [`Storage::csr`] is the one match on
//! the backing. A kernel takes the view once per call and reads pins,
//! incidences and degrees through it; [`Hypergraph`]'s public accessors
//! delegate to it. `Storage::Owned` is the portable default every
//! builder and parser produces; `Storage::Mapped` serves the same
//! slices straight out of an mmap'd [`crate::hgb`] file, so cold load
//! is O(header) and the OS pages the arrays in on demand — a dataset
//! larger than RAM can still answer degree and stats queries.
//!
//! The mmap wrapper is a minimal `unsafe` shim over `mmap(2)`/
//! `munmap(2)` declared directly (the workspace is dependency-light; no
//! libc crate). On non-unix targets, or when `mmap` fails, callers fall
//! back to reading the file into owned memory — see
//! [`crate::hgb::open_hgb`].
//!
//! [`Hypergraph`]: crate::Hypergraph

use std::sync::Arc;

use crate::hypergraph::{Csr, EdgeId, VertexId};

/// Which backing a hypergraph's CSR lives in. Reported by
/// [`crate::Hypergraph::storage_kind`] and surfaced as
/// `"owned"`/`"mmap"` in `hgserve`'s `/datasets`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// Heap `Vec`s built in-process (builder, parsers, decoded `.hgb`).
    Owned,
    /// Slices into a read-only memory-mapped `.hgb` file.
    Mapped,
}

impl StorageKind {
    /// Stable lowercase name (`"owned"` | `"mmap"`), used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageKind::Owned => "owned",
            StorageKind::Mapped => "mmap",
        }
    }
}

/// A read-only mapped (or loaded) byte region with stable address.
///
/// On unix this is an `mmap(2)` of a whole file, unmapped on drop. The
/// pointer is page-aligned, so the 64-byte-aligned `.hgb` sections stay
/// aligned for the 256-bit-lane bitset kernels.
pub(crate) struct MapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: a `MapRegion` owns its mapping: `ptr` addresses a read-only
// region unmapped exactly once, on drop, and `len` is a plain integer,
// so moving the owner to another thread cannot race.
unsafe impl Send for MapRegion {}
// SAFETY: no `&MapRegion` method writes through `ptr` or changes `len`,
// so shared access from many threads only reads the mapping.
unsafe impl Sync for MapRegion {}

impl std::fmt::Debug for MapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MapRegion({} bytes)", self.len)
    }
}

#[cfg(unix)]
mod sys {
    use std::os::unix::io::AsRawFd;

    // Direct syscall wrappers; values are identical across the unix
    // targets this repo builds on (Linux, macOS).
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MAP_FAILED: isize = -1;

    /// Map `file` read-only. `len` must be the file's length and > 0.
    pub(super) fn map_file(file: &std::fs::File, len: usize) -> std::io::Result<*const u8> {
        // SAFETY: a null hint, a nonzero `len` (checked by the caller) and
        // a descriptor open for the call; `PROT_READ` + `MAP_PRIVATE`
        // means nothing writes through the mapping, and the result is
        // checked against `MAP_FAILED` before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == MAP_FAILED || ptr.is_null() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ptr as *const u8)
    }

    pub(super) fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: `ptr`/`len` are exactly what `map_file` returned for one
        // region, and its `Drop` (the only caller) runs once.
        unsafe {
            munmap(ptr as *mut core::ffi::c_void, len);
        }
    }
}

impl MapRegion {
    /// Memory-map a whole file read-only. Fails on empty files, on
    /// non-unix targets, and whenever `mmap(2)` itself fails — callers
    /// are expected to fall back to an owned read.
    #[cfg(unix)]
    pub fn map_path(path: &std::path::Path) -> std::io::Result<MapRegion> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "empty file",
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file exceeds address space",
            )
        })?;
        let ptr = sys::map_file(&file, len)?;
        Ok(MapRegion { ptr, len })
    }

    /// Non-unix targets have no mmap shim; the owned fallback applies.
    #[cfg(not(unix))]
    pub fn map_path(_path: &std::path::Path) -> std::io::Result<MapRegion> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "mmap unavailable on this target",
        ))
    }

    /// Total mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The whole region as a byte slice.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` addresses `len` bytes mapped `PROT_READ` for as
        // long as `self` lives, and this process never writes through them.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Reinterpret `count` little-endian `u32`s starting at `byte_off`.
    ///
    /// # Panics
    /// If the range is out of bounds or `byte_off` is not 4-aligned —
    /// the `.hgb` reader validates both before building a
    /// [`MappedCsr`], so hitting this is a reader bug, not bad input.
    #[inline]
    pub(crate) fn u32s(&self, byte_off: usize, count: usize) -> &[u32] {
        let end = byte_off
            .checked_add(count.checked_mul(4).expect("section length overflow"))
            .expect("section range overflow");
        assert!(end <= self.len, "section out of bounds");
        assert!(byte_off % 4 == 0, "section misaligned");
        // SAFETY: the asserts keep the range inside the mapping and
        // 4-aligned (the base is page-aligned); every bit pattern is a
        // valid `u32`; lifetime and read-only use are as in `bytes`.
        unsafe { std::slice::from_raw_parts(self.ptr.add(byte_off) as *const u32, count) }
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr, self.len);
    }
}

/// Byte offset + element count of one `u32` section inside a region.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SectionRange {
    pub byte_off: usize,
    pub count: usize,
}

/// The four CSR arrays resolved inside one mapped `.hgb` region.
///
/// Only constructed by [`crate::hgb::open_hgb`] after the header and
/// section table have been validated (bounds, alignment, lengths), so
/// the slice casts in [`Storage::csr`] cannot go out of range.
#[derive(Clone, Debug)]
pub(crate) struct MappedCsr {
    pub region: Arc<MapRegion>,
    pub edge_offsets: SectionRange,
    pub pin_list: SectionRange,
    pub vertex_offsets: SectionRange,
    pub adj_list: SectionRange,
}

/// Backing storage of one hypergraph. See the module docs.
#[derive(Clone, Debug)]
pub(crate) enum Storage {
    Owned {
        /// CSR offsets into `pin_list`, length `num_edges + 1`.
        edge_offsets: Vec<u32>,
        /// Concatenated sorted pin lists of all hyperedges.
        pin_list: Vec<VertexId>,
        /// CSR offsets into `adj_list`, length `num_vertices + 1`.
        vertex_offsets: Vec<u32>,
        /// Concatenated sorted incident-hyperedge lists of all vertices.
        adj_list: Vec<EdgeId>,
    },
    Mapped(MappedCsr),
}

// `VertexId`/`EdgeId` are `#[repr(transparent)]` over `u32`, so a
// `&[u32]` section can be reinterpreted as a typed id slice.
#[inline]
fn as_vertex_ids(raw: &[u32]) -> &[VertexId] {
    // SAFETY: `VertexId` is `repr(transparent)` over `u32`: same size,
    // alignment and validity, so the slice reinterprets in place.
    unsafe { std::slice::from_raw_parts(raw.as_ptr() as *const VertexId, raw.len()) }
}

#[inline]
fn as_edge_ids(raw: &[u32]) -> &[EdgeId] {
    // SAFETY: `EdgeId` is `repr(transparent)` over `u32`, as above.
    unsafe { std::slice::from_raw_parts(raw.as_ptr() as *const EdgeId, raw.len()) }
}

impl Storage {
    /// The CSR view: the one match on the backing.
    #[inline]
    pub fn csr(&self) -> Csr<'_> {
        match self {
            Storage::Owned {
                edge_offsets,
                pin_list,
                vertex_offsets,
                adj_list,
            } => Csr {
                edge_offsets,
                pin_list,
                vertex_offsets,
                adj_list,
            },
            Storage::Mapped(m) => {
                let u32s = |r: SectionRange| m.region.u32s(r.byte_off, r.count);
                Csr {
                    edge_offsets: u32s(m.edge_offsets),
                    pin_list: as_vertex_ids(u32s(m.pin_list)),
                    vertex_offsets: u32s(m.vertex_offsets),
                    adj_list: as_edge_ids(u32s(m.adj_list)),
                }
            }
        }
    }

    pub fn kind(&self) -> StorageKind {
        match self {
            Storage::Owned { .. } => StorageKind::Owned,
            Storage::Mapped(_) => StorageKind::Mapped,
        }
    }

    /// Process-resident footprint attributable to this storage: the
    /// heap bytes for owned CSRs, or the mapped file length for mmap
    /// (an upper bound — the OS pages mapped regions in lazily and may
    /// evict them under pressure).
    pub fn resident_bytes(&self) -> usize {
        match self {
            Storage::Owned {
                edge_offsets,
                pin_list,
                vertex_offsets,
                adj_list,
            } => {
                (edge_offsets.len() + vertex_offsets.len() + pin_list.len() + adj_list.len())
                    * std::mem::size_of::<u32>()
            }
            Storage::Mapped(m) => m.region.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_types_are_layout_compatible_with_u32() {
        assert_eq!(std::mem::size_of::<VertexId>(), std::mem::size_of::<u32>());
        assert_eq!(
            std::mem::align_of::<VertexId>(),
            std::mem::align_of::<u32>()
        );
        assert_eq!(std::mem::size_of::<EdgeId>(), std::mem::size_of::<u32>());
        let raw = [3u32, 1, 4];
        assert_eq!(
            as_vertex_ids(&raw),
            &[VertexId(3), VertexId(1), VertexId(4)]
        );
        assert_eq!(as_edge_ids(&raw), &[EdgeId(3), EdgeId(1), EdgeId(4)]);
    }

    #[cfg(unix)]
    #[test]
    fn map_region_reads_file_bytes() {
        let path = std::env::temp_dir().join(format!("hg-storage-test-{}.bin", std::process::id()));
        let data: Vec<u8> = (0u32..32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let region = MapRegion::map_path(&path).unwrap();
        assert_eq!(region.len(), 128);
        assert_eq!(region.bytes(), &data[..]);
        let words = region.u32s(16, 4);
        assert_eq!(words, &[4, 5, 6, 7]);
        drop(region);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn mapping_an_empty_file_fails_cleanly() {
        let path =
            std::env::temp_dir().join(format!("hg-storage-empty-{}.bin", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        assert!(MapRegion::map_path(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
