//! Breadth-first search on plain graphs: the scalar distance oracle that
//! the hypergraph crate's path tests compare against through its
//! bipartite view.

use crate::graph::{Graph, NodeId};
use crate::UNREACHABLE;

/// Unweighted shortest-path distances from `source` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`]. O(n + m).
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
        }
        b.build()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, NodeId(2));
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }
}
