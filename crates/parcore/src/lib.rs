//! `parcore` — parallel k-core and distance algorithms.
//!
//! The paper closes its Table 1 discussion with: *"if the numbers of
//! vertices and hyperedges in the core are large, then the run times can
//! be substantial; hence for large hypergraphs, a parallel algorithm will
//! need to be designed."* This crate is that design. Each module is an
//! engine something serves:
//!
//! * [`par_msbfs`] — the batched multi-source bitset BFS engine
//!   (256 sources per batch) split over one scoped thread per core,
//!   each with private scratch; hgserve's diameter engine for datasets
//!   of at least `par_threshold` vertices (the serial engine is
//!   [`hypergraph::msbfs`], the oracle [`hypergraph::path`]).
//! * [`par_kcore`] — a level-synchronous hypergraph k-core: each round
//!   peels every sub-threshold vertex at once (atomic degree counters),
//!   then re-checks the affected hyperedges for maximality by direct
//!   sorted-subset tests against a consistent snapshot. Same surviving
//!   vertices and edge contents as [`hypergraph::csr_kcore`]; hgserve
//!   answers `kcore?k=` with it at or above `par_threshold`, where its
//!   subset probes beat the CSR peeler.
//! * [`par_csr_overlap()`] — sharded assembly of the flat CSR overlap
//!   table, feeding the sequential incremental decomposition
//!   ([`par_decompose`]). Kept only because the benchmark's traced
//!   replay times `par_decompose_with` (`hg kcore --par` also calls it).
//! * [`scoped`] — the `std::thread::scope` work splitter.
//!
//! Only [`par_msbfs`] and [`scoped`] run on more than one core. The
//! other kernels are written against rayon's API, but the vendored
//! rayon executes serially: their level-synchronous rounds and
//! per-shard phases are too short to pay for a thread spawn per phase
//! (EXPERIMENTS A10 has the numbers).
//!
//! Memory-ordering notes: degree counters use `fetch_sub(Relaxed)` — the
//! value is only *read* after the round's barrier (rayon's fork-join
//! guarantees happens-before), so no acquire/release is needed on the
//! counters themselves. Liveness flags are claimed with
//! `compare_exchange(AcqRel)` so each vertex/edge is deleted exactly once.

pub mod par_csr_overlap;
pub mod par_kcore;
pub mod par_msbfs;
pub mod scoped;

pub use par_csr_overlap::{
    par_csr_overlap, par_csr_overlap_with, par_decompose, par_decompose_with,
};
pub use par_kcore::{par_hypergraph_kcore, par_hypergraph_kcore_with};
pub use par_msbfs::{
    par_msbfs_distance_stats, par_msbfs_distance_stats_from, par_msbfs_distance_stats_from_with,
    par_msbfs_distance_stats_with,
};
pub use scoped::{scoped_run, split_width};
