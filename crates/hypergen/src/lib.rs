//! `hypergen` — deterministic random generators for hypergraphs and
//! power-law graphs.
//!
//! Every generator takes an explicit `u64` seed and is bit-reproducible;
//! the reproduction harness uses fixed seeds so the paper experiments are
//! stable across runs. Provided models:
//!
//! * [`seq`] — truncated discrete power-law degree sequences;
//! * [`config_model`] — the bipartite configuration model: a hypergraph
//!   with prescribed vertex and hyperedge degree sequences;
//! * [`chung_lu`] — bipartite Chung–Lu hypergraphs and power-law plain
//!   graphs with given expected degrees;
//! * [`uniform`] — k-uniform Erdős–Rényi-style hypergraphs;
//! * [`planted`] — hypergraphs and graphs with a planted dense core of a
//!   chosen size and coreness (ground truth for k-core validation and for
//!   the DIP-calibrated PPI baselines).
//!
//! Each returns a built hypergraph (or graph), written to disk like any
//! other: `hypergraph::io::write_hgr` or `hypergraph::write_hgb_file`.

pub mod chung_lu;
pub mod config_model;
pub mod planted;
pub mod seq;
pub mod uniform;

pub use chung_lu::{chung_lu_graph, chung_lu_hypergraph};
pub use config_model::configuration_hypergraph;
pub use planted::{planted_core_graph, planted_core_hypergraph};
pub use seq::{power_law_degrees, power_law_histogram_counts};
pub use uniform::{uniform_edges, uniform_random_hypergraph};
