//! Connected components of a graph.

use crate::graph::{Graph, NodeId};
use crate::unionfind::UnionFind;

/// Result of a connected-components computation.
#[derive(Clone, Debug)]
pub struct Components {
    /// `label[u]` is the component index of node `u`, in `0..count`.
    pub label: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// `size[c]` is the number of nodes in component `c`.
    pub size: Vec<u32>,
}

impl Components {
    /// Index of a largest component (ties broken by lowest index).
    pub fn largest(&self) -> Option<usize> {
        (0..self.count).max_by_key(|&c| (self.size[c], std::cmp::Reverse(c)))
    }

    /// Nodes belonging to component `c`.
    pub fn members(&self, c: usize) -> Vec<NodeId> {
        self.label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l as usize == c)
            .map(|(u, _)| NodeId(u as u32))
            .collect()
    }
}

/// Connected components via union–find, O(m α(n)).
pub fn connected_components(g: &Graph) -> Components {
    let mut uf = UnionFind::new(g.num_nodes());
    for (u, v) in g.edges() {
        uf.union(u.index(), v.index());
    }
    let (label, count) = uf.labels();
    let mut size = vec![0u32; count];
    for &l in &label {
        size[l as usize] += 1;
    }
    Components { label, count, size }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn two_components_and_isolate() {
        // {0-1-2}, {3-4}, {5}
        let mut b = GraphBuilder::new(6);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(3), NodeId(4));
        let g = b.build();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 3);
        let big = cc.largest().unwrap();
        assert_eq!(cc.size[big], 3);
        assert_eq!(cc.members(big), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_and_edgeless() {
        let g = GraphBuilder::new(0).build();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 0);
        assert_eq!(cc.largest(), None);

        let g = GraphBuilder::new(3).build();
        let cc = connected_components(&g);
        assert_eq!(cc.count, 3);
        assert!(cc.size.iter().all(|&s| s == 1));
    }

    #[test]
    fn single_component_cycle() {
        let n = 10;
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32));
        }
        let cc = connected_components(&b.build());
        assert_eq!(cc.count, 1);
        assert_eq!(cc.size[0], n as u32);
    }
}
