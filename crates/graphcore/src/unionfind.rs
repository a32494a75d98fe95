//! Disjoint-set forest with union by rank and path halving.

/// Disjoint-set (union–find) structure over dense `usize` indices.
///
/// Used for connected components of graphs and hypergraphs; near-constant
/// amortized time per operation.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets `{0}, {1}, ..., {n-1}`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p];
            self.parent[x] = gp;
            x = gp as usize;
        }
    }

    /// Merge the sets of `x` and `y`; returns `true` if they were distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        let (hi, lo) = if self.rank[rx] >= self.rank[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }

    /// Dense labelling: returns `(labels, count)` where labels are
    /// `0..count` and equal labels mean same set.
    pub fn labels(&mut self) -> (Vec<u32>, usize) {
        match self.labels_until(|| false) {
            Some(labelled) => labelled,
            None => unreachable!("a labelling that never stops finishes"),
        }
    }

    /// [`UnionFind::labels`], calling `stop` before each element and
    /// giving up with `None` as soon as it returns `true`.
    pub fn labels_until(&mut self, mut stop: impl FnMut() -> bool) -> Option<(Vec<u32>, usize)> {
        let n = self.len();
        let mut label = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut out = vec![0u32; n];
        for (x, slot) in out.iter_mut().enumerate() {
            if stop() {
                return None;
            }
            let r = self.find(x);
            if label[r] == u32::MAX {
                label[r] = next;
                next += 1;
            }
            *slot = label[r];
        }
        Some((out, next as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_ne!(uf.find(0), uf.find(1));
        assert_eq!(uf.labels().1, 4);
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.labels().1, 2);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(1, 3));
        assert_eq!(uf.labels().1, 1);
        assert_eq!(uf.find(0), uf.find(2));
    }

    #[test]
    fn labels_are_dense() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        uf.union(1, 2);
        let (labels, count) = uf.labels();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[4]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[1]);
        assert!(labels.iter().all(|&l| (l as usize) < count));
    }

    #[test]
    fn labels_until_stops_when_asked() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        let mut calls = 0;
        assert!(uf
            .labels_until(|| {
                calls += 1;
                calls == 3
            })
            .is_none());
        assert_eq!(calls, 3);
        assert_eq!(uf.labels_until(|| false), Some(uf.labels()));
    }

    #[test]
    fn empty_ok() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let (labels, count) = uf.labels();
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
