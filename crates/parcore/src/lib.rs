//! `parcore` — the parallel kernels.
//!
//! The paper closes its Table 1 discussion with: *"if the numbers of
//! vertices and hyperedges in the core are large, then the run times can
//! be substantial; hence for large hypergraphs, a parallel algorithm will
//! need to be designed."* This crate holds the code that runs on more
//! than one core:
//!
//! * [`par_msbfs`] — the batched multi-source bitset BFS engine
//!   (256 sources per batch) split over one scoped thread per core,
//!   each with private scratch; hgserve's diameter engine for datasets
//!   of at least `par_threshold` vertices (the serial engine is
//!   [`hypergraph::msbfs`], the oracle [`hypergraph::path`]).
//! * [`scoped`] — the `std::thread::scope` work splitter under it, the
//!   workspace's one parallel substrate.
//!
//! The k-core engines are serial and live in `hypergraph`:
//! [`hypergraph::probe_kcore()`] and [`hypergraph::probe_decompose()`]
//! (level-synchronous subset probes) serve every k-core query;
//! [`hypergraph::csr_kcore`]/[`hypergraph::decompose()`] are the paper's
//! Fig. 4. [`par_decompose_with`] and [`par_hypergraph_kcore_with`]
//! re-export `decompose_with` and `probe_kcore_with` under the names the
//! `hgperf` benchmark's traced replay calls. No request runs
//! `decompose_with` any more; the re-export stays for hgperf.

pub mod par_msbfs;
pub mod scoped;

pub use hypergraph::decompose_with as par_decompose_with;
pub use hypergraph::probe_kcore_with as par_hypergraph_kcore_with;
pub use par_msbfs::{
    par_msbfs_distance_stats, par_msbfs_distance_stats_from, par_msbfs_distance_stats_from_with,
    par_msbfs_distance_stats_with,
};
pub use scoped::{scoped_run, split_width};
