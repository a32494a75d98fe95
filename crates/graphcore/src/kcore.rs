//! Linear-time k-core decomposition of a plain graph.
//!
//! This is the classical bucket-peeling algorithm (Batagelj–Zaveršnik):
//! repeatedly remove a vertex of minimum degree; the highest minimum degree
//! observed is the maximum core, and the degree at which each vertex is
//! removed is its *core number*. The paper (§3) uses exactly this procedure
//! on the DIP protein-interaction graphs as the baseline its hypergraph
//! k-core generalizes.

use crate::graph::{Graph, NodeId};

/// The full core decomposition of a graph.
#[derive(Clone, Debug)]
pub struct CoreDecomposition {
    /// `core[u]` = core number of node `u`: the largest k such that `u`
    /// belongs to the k-core.
    pub core: Vec<u32>,
    /// Maximum core number over all nodes (0 for an edgeless graph).
    pub max_core: u32,
    /// Nodes in non-decreasing order of removal (i.e. sorted by core
    /// number, the order the peeling deleted them).
    pub peel_order: Vec<NodeId>,
}

impl CoreDecomposition {
    /// Core number of `u`.
    #[inline]
    pub fn core_number(&self, u: NodeId) -> u32 {
        self.core[u.index()]
    }

    /// Nodes whose core number is at least `k` (the vertex set of the
    /// k-core).
    pub fn k_core_nodes(&self, k: u32) -> Vec<NodeId> {
        self.core
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(u, _)| NodeId(u as u32))
            .collect()
    }

    /// Nodes of the maximum core.
    pub fn max_core_nodes(&self) -> Vec<NodeId> {
        self.k_core_nodes(self.max_core)
    }

    /// Number of nodes in the k-core, for k = 0..=max_core.
    pub fn core_size_profile(&self) -> Vec<usize> {
        let mut profile = vec![0usize; self.max_core as usize + 1];
        for &c in &self.core {
            profile[c as usize] += 1;
        }
        // Make it cumulative from the top: k-core size = #nodes with core >= k.
        for k in (0..self.max_core as usize).rev() {
            profile[k] += profile[k + 1];
        }
        profile
    }
}

/// Compute the full core decomposition in O(n + m) time.
///
/// Implementation: counting-sort nodes by degree into a flat `vert` array
/// with bucket starts `bin`, then peel in degree order, moving each
/// affected neighbour one bucket down (constant time per degree decrement).
/// Runs under the `graph.kcore` phase and flushes the
/// `graph.kcore.{nodes_peeled,degree_decrements}` counters.
pub fn core_decomposition(g: &Graph) -> CoreDecomposition {
    let _phase = hgobs::phase("graph.kcore");
    let n = g.num_nodes();
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            max_core: 0,
            peel_order: Vec::new(),
        };
    }

    let mut degree: Vec<u32> = g.nodes().map(|u| g.degree(u) as u32).collect();
    let max_deg = *degree.iter().max().unwrap() as usize;

    // bin[d] = index in `vert` where the block of degree-d nodes starts.
    let mut bin = vec![0u32; max_deg + 2];
    for &d in &degree {
        bin[d as usize + 1] += 1;
    }
    for d in 1..bin.len() {
        bin[d] += bin[d - 1];
    }
    let mut starts = bin.clone(); // starts[d] = first index of degree-d block

    let mut vert = vec![0u32; n]; // nodes sorted by degree
    let mut pos = vec![0u32; n]; // position of each node in `vert`
    {
        let mut cursor = bin.clone();
        for u in 0..n {
            let d = degree[u] as usize;
            vert[cursor[d] as usize] = u as u32;
            pos[u] = cursor[d];
            cursor[d] += 1;
        }
    }

    let mut core = vec![0u32; n];
    let mut max_core = 0u32;
    let mut peel_order = Vec::with_capacity(n);
    let mut degree_decrements: u64 = 0;

    for i in 0..n {
        let u = vert[i] as usize;
        let du = degree[u];
        core[u] = du;
        max_core = max_core.max(du);
        peel_order.push(NodeId(u as u32));

        for &v in g.neighbors(NodeId(u as u32)) {
            let v = v.index();
            if degree[v] > du {
                // Swap v with the first node of its degree block, then
                // shrink that block by one: v's degree drops by one.
                let dv = degree[v] as usize;
                let pv = pos[v] as usize;
                let pw = starts[dv] as usize;
                let w = vert[pw] as usize;
                if v != w {
                    vert[pv] = w as u32;
                    vert[pw] = v as u32;
                    pos[v] = pw as u32;
                    pos[w] = pv as u32;
                }
                starts[dv] += 1;
                degree[v] -= 1;
                degree_decrements += 1;
            }
        }
    }

    hgobs::counter!("graph.kcore.nodes_peeled", n);
    hgobs::counter!("graph.kcore.degree_decrements", degree_decrements);

    // The peeling assigns core[u] = degree at removal; because degrees only
    // decrease as neighbours are peeled, this equals the core number.
    CoreDecomposition {
        core,
        max_core,
        peel_order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The paper's Fig. 2 shape: a triangle-rich kernel whose maximum core
    /// is a 3-core, with a pendant tree so the 1-core is the whole graph
    /// and the 2-core equals the 3-core. Nodes 0..=3 form K4 (the 3-core);
    /// 4 hangs off 0; 5 hangs off 4.
    fn fig2_like() -> Graph {
        let mut b = GraphBuilder::new(6);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(NodeId(u), NodeId(v));
            }
        }
        b.add_edge(NodeId(0), NodeId(4));
        b.add_edge(NodeId(4), NodeId(5));
        b.build()
    }

    #[test]
    fn fig2_core_structure() {
        let g = fig2_like();
        let d = core_decomposition(&g);
        assert_eq!(d.max_core, 3);
        assert_eq!(
            d.max_core_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        // 1-core is everything, 2-core == 3-core, 4-core empty.
        assert_eq!(d.k_core_nodes(1).len(), 6);
        assert_eq!(d.k_core_nodes(2), d.k_core_nodes(3));
        assert!(d.k_core_nodes(4).is_empty());
    }

    #[test]
    fn core_numbers_on_path() {
        let mut b = GraphBuilder::new(4);
        for i in 1..4u32 {
            b.add_edge(NodeId(i - 1), NodeId(i));
        }
        let d = core_decomposition(&b.build());
        assert_eq!(d.max_core, 1);
        assert!(d.core.iter().all(|&c| c == 1));
    }

    #[test]
    fn edgeless_graph_is_zero_core() {
        let d = core_decomposition(&GraphBuilder::new(3).build());
        assert_eq!(d.max_core, 0);
        assert_eq!(d.core, vec![0, 0, 0]);
    }

    #[test]
    fn empty_graph() {
        let d = core_decomposition(&GraphBuilder::new(0).build());
        assert_eq!(d.max_core, 0);
        assert!(d.core.is_empty());
    }

    #[test]
    fn clique_core_is_n_minus_1() {
        let n = 7u32;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(NodeId(u), NodeId(v));
            }
        }
        let d = core_decomposition(&b.build());
        assert_eq!(d.max_core, n - 1);
        assert!(d.core.iter().all(|&c| c == n - 1));
    }

    #[test]
    fn core_size_profile_cumulative() {
        let g = fig2_like();
        let d = core_decomposition(&g);
        let profile = d.core_size_profile();
        assert_eq!(profile, vec![6, 6, 4, 4]); // k=0,1,2,3
    }

    #[test]
    fn peel_order_nondecreasing_core() {
        let g = fig2_like();
        let d = core_decomposition(&g);
        let cores: Vec<u32> = d.peel_order.iter().map(|&u| d.core[u.index()]).collect();
        assert!(cores.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Definitional check: every node with core number ≥ k has at least
    /// k neighbours whose core number is also ≥ k, and no node reaches
    /// max_core + 1.
    #[test]
    fn core_definition_holds_on_random_like_graph() {
        // Deterministic pseudo-random graph via a simple LCG.
        let n = 60u64;
        let mut b = GraphBuilder::new(n as usize);
        let mut x = 12345u64;
        for _ in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) % n;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % n;
            if u != v {
                b.add_edge(NodeId(u as u32), NodeId(v as u32));
            }
        }
        let g = b.build();
        let d = core_decomposition(&g);
        for k in 1..=d.max_core {
            for u in d.k_core_nodes(k) {
                let inside = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&v| d.core_number(v) >= k)
                    .count();
                assert!(
                    inside >= k as usize,
                    "k={k}: node {u:?} has {inside} < k neighbours in the k-core"
                );
            }
        }
        assert!(d.k_core_nodes(d.max_core + 1).is_empty());
    }
}
