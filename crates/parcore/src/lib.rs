//! `parcore` — parallel k-core and distance algorithms.
//!
//! The paper closes its Table 1 discussion with: *"if the numbers of
//! vertices and hyperedges in the core are large, then the run times can
//! be substantial; hence for large hypergraphs, a parallel algorithm will
//! need to be designed."* This crate is that design:
//!
//! * [`par_kcore`] — a level-synchronous parallel hypergraph k-core:
//!   each round peels every sub-threshold vertex at once (rayon parallel
//!   iterators + atomic degree counters), then re-checks the affected
//!   hyperedges for maximality in parallel by direct sorted-subset tests
//!   against a consistent snapshot. Equivalent to the sequential
//!   algorithm (same surviving vertices; same surviving edge contents).
//! * [`par_graph`] — the level-synchronous parallel core decomposition of
//!   a plain graph (the "ParK" scheme) used for the DIP baselines.
//! * [`par_distance`] — embarrassingly parallel per-source BFS for the
//!   hypergraph distance statistics of §2.
//! * [`par_msbfs`] — the batched multi-source bitset BFS engine
//!   (256 sources per batch) split over one scoped thread per core,
//!   each with private scratch; hgserve's diameter engine for large
//!   datasets.
//! * [`par_overlap`] — parallel construction of the pairwise hyperedge
//!   overlap table.
//! * [`par_csr_overlap()`] — sharded parallel assembly of the flat CSR
//!   overlap engine, feeding the sequential incremental decomposition
//!   ([`par_decompose`]).
//! * [`scoped`] — the `std::thread::scope` work splitter.
//!
//! Only [`par_msbfs`] and [`scoped`] run on more than one core. The
//! other kernels are written against rayon's API, but the vendored
//! rayon executes serially: their level-synchronous rounds and
//! per-source phases are too short to pay for a thread spawn per phase
//! (EXPERIMENTS A10 has the numbers).
//!
//! Memory-ordering notes: degree counters use `fetch_sub(Relaxed)` — the
//! value is only *read* after the round's barrier (rayon's fork-join
//! guarantees happens-before), so no acquire/release is needed on the
//! counters themselves. Liveness flags are claimed with
//! `compare_exchange(AcqRel)` so each vertex/edge is deleted exactly once.

pub mod par_csr_overlap;
pub mod par_distance;
pub mod par_graph;
pub mod par_kcore;
pub mod par_msbfs;
pub mod par_overlap;
pub mod scoped;

pub use par_csr_overlap::{
    par_csr_overlap, par_csr_overlap_with, par_decompose, par_decompose_with,
};
pub use par_distance::{
    par_hyper_distance_stats, par_hyper_distance_stats_from, par_hyper_distance_stats_from_with,
    par_hyper_distance_stats_with,
};
pub use par_graph::par_core_decomposition;
pub use par_kcore::{
    par_hypergraph_kcore, par_hypergraph_kcore_with, par_max_core, par_max_core_with,
};
pub use par_msbfs::{
    par_msbfs_distance_stats, par_msbfs_distance_stats_from, par_msbfs_distance_stats_from_with,
    par_msbfs_distance_stats_with, par_small_world_report, par_small_world_report_with,
};
pub use par_overlap::{par_overlap_table, par_overlap_table_with};
pub use scoped::{
    scoped_hyper_distance_stats, scoped_hyper_distance_stats_with, scoped_run, split_width,
};
