//! `hypergraph` — the primary contribution of Ramadan, Tarafdar & Pothen,
//! *A Hypergraph Model for the Yeast Protein Complex Network* (IPPS 2004),
//! as a reusable library.
//!
//! A hypergraph `H = (V, F)` has vertices (proteins) and hyperedges
//! (complexes); a hyperedge is an arbitrary subset of vertices. This crate
//! provides:
//!
//! * the frozen CSR [`Hypergraph`] structure and its [`HypergraphBuilder`];
//! * the bipartite drawing graph `B(H)` ([`bipartite`]) and hypergraph
//!   paths/distances/diameter ([`path`]) where the length of a path is the
//!   *number of hyperedges* on it;
//! * the batched multi-source BFS engine behind the diameter sweeps
//!   ([`msbfs`]) and the `std::thread::scope` work splitter that runs
//!   one sweep on every core ([`scoped`]);
//! * connected components ([`components`]) and degree statistics /
//!   power-law fitting ([`degree`], [`powerlaw`]);
//! * the hypergraph **k-core** ([`kcore`]): the maximal *reduced*
//!   sub-hypergraph in which every vertex lies in at least `k` hyperedges.
//!   The level-synchronous subset-probe engine answers every k-core query
//!   without an overlap table (the first on a hypergraph also builds a
//!   memo of what the hypergraph alone decides, in at most a constant
//!   times one round of its probes, and a build a deadline cut is
//!   continued by the next call):
//!   [`probe_kcore()`] for one `k`, and
//!   [`probe_decompose()`] for every level, behind `max_core`,
//!   `core_profile` and `core_numbers`. The paper's Fig. 4 algorithm,
//!   with its overlap-counting maximality test, is [`csr_kcore`] for one
//!   `k` and the one-pass [`decompose()`], kept as the paper's artifact
//!   and the engine's cross-check; [`naive`] holds the fixpoint oracle;
//! * reduced hypergraphs ([`reduce()`](crate::reduce())) and the flat
//!   CSR pairwise overlap table ([`csr_overlap`]);
//! * greedy, dual, and primal-dual **vertex covers**, and greedy
//!   multicovers from the same loop ([`cover`], [`cover_dual`]), for
//!   bait-protein selection;
//! * the lossy graph projections the paper argues against
//!   ([`projections`]): clique expansion, star (bait) expansion, and the
//!   complex intersection graph, with space accounting;
//! * text I/O ([`io`]) and Pajek export of `B(H)` ([`pajek`]).
//!
//! # Quick start
//!
//! ```
//! use hypergraph::{HypergraphBuilder, VertexId};
//!
//! // Three overlapping "complexes" over five "proteins".
//! let mut b = HypergraphBuilder::new(5);
//! b.add_edge([0, 1, 2]);
//! b.add_edge([1, 2, 3]);
//! b.add_edge([2, 3, 4]);
//! let h = b.build();
//!
//! assert_eq!(h.num_vertices(), 5);
//! assert_eq!(h.num_edges(), 3);
//! assert_eq!(h.vertex_degree(VertexId(2)), 3); // protein 2 is in all three
//!
//! // Vertex cover: protein 2 alone covers every complex.
//! let cover = hypergraph::greedy_vertex_cover(&h, |_| 1.0).unwrap();
//! assert_eq!(cover.vertices, vec![VertexId(2)]);
//! ```

// Every `unsafe` block and impl states the condition it relies on.
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bipartite;
mod bitset;
pub mod builder;
pub mod components;
pub mod cover;
pub mod cover_dual;
pub mod csr_overlap;
pub mod decompose;
pub mod degree;
pub mod dual;
pub mod generalized;
pub mod hgb;
pub mod hypergraph;
pub mod io;
pub mod kcore;
pub mod msbfs;
pub mod naive;
pub mod pajek;
pub mod path;
pub mod powerlaw;
pub mod probe_kcore;
pub mod projections;
pub mod reduce;
pub mod relabel;
pub mod scoped;
mod storage;
#[cfg(test)]
mod testgen;
pub mod validate;

pub use bipartite::BipartiteView;
pub use builder::HypergraphBuilder;
pub use components::{
    hypergraph_components, hypergraph_components_with, ComponentSummary, HyperComponents,
};
pub use cover::{
    greedy_multicover, greedy_vertex_cover, greedy_vertex_cover_with, is_multicover,
    is_vertex_cover, CoverError, CoverResult,
};
pub use cover_dual::{dual_lower_bound, pricing_vertex_cover};
pub use csr_overlap::CsrOverlap;
pub use decompose::{csr_kcore, csr_kcore_with, decompose, decompose_with, Decomposition};
pub use degree::{edge_degree_histogram, vertex_degree_histogram};
pub use dual::dual;
pub use generalized::{ks_core, KsCore};
pub use hgb::{
    open_hgb, write_hgb, write_hgb_file, HgbDataset, HgbError, HgbOpenMode, HgbOpenOptions,
    HgbStreamWriter,
};
pub use hypergraph::{EdgeId, Hypergraph, VertexId};
pub use kcore::{core_numbers, core_profile, max_core, max_core_with, KCore};
pub use msbfs::{
    hyper_distance_stats, hyper_distance_stats_with, par_msbfs_distance_stats,
    par_msbfs_distance_stats_with, BATCH,
};
pub use path::{
    hyper_distance, hyper_distance_with, hyper_distance_within, hyper_distances,
    hyper_distances_with, scalar_hyper_distance_stats, scalar_hyper_distance_stats_from,
    HyperDistanceStats, PairStop,
};
pub use powerlaw::{fit_power_law, PowerLawFit};
pub use probe_kcore::{probe_decompose, probe_decompose_with, probe_kcore, probe_kcore_with};
pub use projections::{clique_expansion, intersection_graph, star_expansion, SpaceReport};
pub use reduce::{non_maximal_edges, reduce};
pub use relabel::Relabeling;
pub use scoped::split_width;
pub use storage::StorageKind;
