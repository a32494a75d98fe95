//! Clustering coefficients.
//!
//! The paper cites Maslov–Sneppen–Alon's observation that representing each
//! complex as a clique inflates clustering coefficients "unusually high";
//! these functions quantify that effect in the projection ablation (A1).

use crate::graph::{Graph, NodeId};

/// Local clustering coefficient of `u`: the fraction of pairs of `u`'s
/// neighbours that are themselves adjacent. Defined as 0 for degree < 2.
pub fn local_clustering(g: &Graph, u: NodeId) -> f64 {
    let nbrs = g.neighbors(u);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if g.has_edge(a, b) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (d * (d - 1)) as f64
}

/// Mean of local clustering coefficients over all nodes (Watts–Strogatz).
/// Returns 0 for the empty graph.
pub fn mean_local_clustering(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    g.nodes().map(|u| local_clustering(g, u)).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.build()
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let g = triangle();
        assert_eq!(local_clustering(&g, NodeId(0)), 1.0);
        assert_eq!(mean_local_clustering(&g), 1.0);
    }

    #[test]
    fn path_has_zero_clustering() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        assert_eq!(mean_local_clustering(&g), 0.0);
    }

    #[test]
    fn paw_graph_values() {
        // Triangle 0-1-2 plus pendant 3 on 0.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(0), NodeId(3));
        let g = b.build();
        // Node 0: degree 3, one closed pair of three -> 1/3.
        assert!((local_clustering(&g, NodeId(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, NodeId(3)), 0.0);
        // mean = (1/3 + 1 + 1 + 0)/4 = 7/12
        assert!((mean_local_clustering(&g) - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn clique_expansion_inflates_clustering() {
        // A 6-clique (what the clique projection makes of a 6-protein
        // complex) is perfectly clustered even though the underlying data
        // says nothing about pairwise binding.
        let n = 6u32;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(NodeId(u), NodeId(v));
            }
        }
        assert_eq!(mean_local_clustering(&b.build()), 1.0);
    }

    #[test]
    fn empty_graph_clustering() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(mean_local_clustering(&g), 0.0);
    }
}
