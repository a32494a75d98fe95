//! `graphcore` — the plain-graph substrate behind the paper's baselines.
//!
//! The paper uses plain graphs only to argue against them, and this crate
//! holds what that argument needs:
//!
//! * a frozen CSR [`Graph`] built once from an edge list
//!   ([`GraphBuilder`]) with `u32` node ids ([`NodeId`]), flat `Vec`
//!   storage and no per-node allocation — the hypergraph crate builds the
//!   bipartite drawing graph `B(H)` and the lossy clique/star/intersection
//!   projections on it;
//! * the linear-time graph k-core ([`core_decomposition`]) that the
//!   hypergraph k-core generalizes, run on the Fig. 2 example and the DIP
//!   protein-interaction baselines;
//! * local clustering ([`mean_local_clustering`]), which shows how the
//!   clique expansion inflates clustering;
//! * connected components, [`UnionFind`], degree statistics, and the
//!   scalar [`bfs_distances`] the hypergraph path tests use as an oracle;
//! * Pajek `.net` / `.clu` I/O ([`pajek`]).
//!
//! # Quick start
//!
//! ```
//! use graphcore::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId(0), NodeId(1));
//! b.add_edge(NodeId(1), NodeId(2));
//! b.add_edge(NodeId(2), NodeId(0));
//! b.add_edge(NodeId(2), NodeId(3));
//! let g = b.build();
//!
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.degree(NodeId(2)), 3);
//!
//! // The triangle {0,1,2} is the maximum (2-)core; node 3 dangles off it.
//! let cores = graphcore::core_decomposition(&g);
//! assert_eq!(cores.max_core, 2);
//! assert_eq!(cores.core_number(NodeId(3)), 1);
//! ```

pub mod bfs;
pub mod builder;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod graph;
pub mod kcore;
pub mod pajek;
pub mod unionfind;

pub use bfs::bfs_distances;
pub use builder::GraphBuilder;
pub use clustering::{local_clustering, mean_local_clustering};
pub use components::{connected_components, Components};
pub use degree::{degree_histogram, DegreeStats};
pub use graph::{Graph, NodeId};
pub use kcore::{core_decomposition, CoreDecomposition};
pub use unionfind::UnionFind;

/// Distance value used throughout: `u32::MAX` encodes "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;
