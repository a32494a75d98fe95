//! Degree distributions of vertices and hyperedges.

use crate::hypergraph::Hypergraph;

/// Histogram of vertex degrees: `hist[d]` = number of vertices belonging
/// to exactly `d` hyperedges (the x-axis of the paper's Fig. 1).
pub fn vertex_degree_histogram(h: &Hypergraph) -> Vec<usize> {
    histogram(h.csr().vertex_degrees())
}

/// Histogram of hyperedge degrees (complex sizes): `hist[d]` = number of
/// hyperedges containing exactly `d` vertices.
pub fn edge_degree_histogram(h: &Hypergraph) -> Vec<usize> {
    histogram(h.csr().edge_degrees())
}

/// `hist[d]` = how many of `degrees` equal `d`, up to the largest
/// (`[0]` when there are none).
fn histogram(degrees: impl Iterator<Item = u32> + Clone) -> Vec<usize> {
    let mut hist = vec![0usize; degrees.clone().max().unwrap_or(0) as usize + 1];
    for d in degrees {
        hist[d as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2]);
        b.add_edge([2]);
        b.build()
    }

    #[test]
    fn vertex_histogram() {
        // degrees: v0=1 v1=2 v2=3 v3=0
        assert_eq!(vertex_degree_histogram(&toy()), vec![1, 1, 1, 1]);
    }

    #[test]
    fn edge_histogram() {
        // sizes: 3, 2, 1
        assert_eq!(edge_degree_histogram(&toy()), vec![0, 1, 1, 1]);
    }

    #[test]
    fn sequences() {
        let h = toy();
        let csr = h.csr();
        assert_eq!(csr.vertex_degrees().collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        assert_eq!(csr.edge_degrees().collect::<Vec<_>>(), vec![3, 2, 1]);
    }

    #[test]
    fn histogram_sums_to_counts() {
        let h = toy();
        assert_eq!(
            vertex_degree_histogram(&h).iter().sum::<usize>(),
            h.num_vertices()
        );
        assert_eq!(
            edge_degree_histogram(&h).iter().sum::<usize>(),
            h.num_edges()
        );
    }

    #[test]
    fn empty() {
        let h = HypergraphBuilder::new(0).build();
        assert_eq!(vertex_degree_histogram(&h), vec![0]);
        assert_eq!(edge_degree_histogram(&h), vec![0]);
    }
}
