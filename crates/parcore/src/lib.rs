//! `parcore` — the names the `hgperf` benchmark's traced replay imports,
//! re-exported from `hypergraph`, where the engines live:
//!
//! * [`par_msbfs_distance_stats_with`] — the MS-BFS sweep on
//!   [`hypergraph::split_width`] workers;
//! * [`par_hypergraph_kcore_with`] — the subset-probe k-core for one `k`
//!   ([`hypergraph::probe_kcore_with`]);
//! * [`par_decompose_with`] — the paper's Fig. 4 one-pass decomposition
//!   ([`hypergraph::decompose_with`]), which no request runs.
//!
//! No workspace crate depends on this one. The benchmark change that
//! retires hgperf's replay of these names deletes the crate.

pub use hypergraph::decompose_with as par_decompose_with;
pub use hypergraph::par_msbfs_distance_stats_with;
pub use hypergraph::probe_kcore_with as par_hypergraph_kcore_with;
