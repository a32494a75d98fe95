//! Pairwise hyperedge overlaps and degree-2 quantities in flat CSR form.
//!
//! The paper's k-core algorithm avoids comparing vertex sets by keeping,
//! for every hyperedge, its *overlaps* — the number of vertices it shares
//! with each intersecting hyperedge. A hyperedge `f` is contained in `g`
//! exactly when its current degree equals its current overlap with `g`.
//! The *degree-2* of a hyperedge `f`, `d₂(f)`, is the number of
//! hyperedges with which it shares a vertex; `Δ₂,F` is the maximum over
//! all hyperedges, and drives the bound `O(|E|(Δ₂,F + Δ_V ln Δ₂,F))`.
//!
//! [`CsrOverlap`] stores this symmetric relation as three flat arrays —
//! `offsets` (CSR row starts), `neighbors` (the overlapping hyperedge
//! ids, **sorted** within each row) and `counts` (`|f ∩ g|`) — plus a
//! `mirror` array holding, for every entry `(f, g)`, the flat index of
//! its twin `(g, f)`. A symmetric decrement is then one binary search on
//! the `f` row followed by two O(1) array writes; the peel loop never
//! hashes.
//!
//! Rows are never physically shrunk during peeling. Instead, deleting a
//! hyperedge zeroes the counts of all its entries *and their mirrors*,
//! which establishes the invariant the peeler relies on: a nonzero count
//! implies the neighbor is still alive.

use hgobs::{Deadline, DeadlineExceeded};

use crate::hypergraph::{EdgeId, Hypergraph};

/// Symmetric nonzero pairwise overlaps in CSR form. See the module docs
/// for the layout; construction is `O(Σ_v d(v)²)` pair generation plus a
/// sort, with no hashing anywhere.
#[derive(Clone, Debug)]
pub struct CsrOverlap {
    /// Row starts, `offsets[f]..offsets[f + 1]` indexes edge `f`'s
    /// entries; length `num_edges + 1`.
    pub(crate) offsets: Vec<u32>,
    /// Overlapping hyperedge ids, ascending within each row.
    pub(crate) neighbors: Vec<u32>,
    /// `counts[i] = |f ∩ neighbors[i]|`; zeroed (never removed) when an
    /// endpoint dies during peeling.
    pub(crate) counts: Vec<u32>,
    /// `mirror[i]` is the flat index of the symmetric twin entry.
    pub(crate) mirror: Vec<u32>,
}

impl CsrOverlap {
    /// Build from `h` sequentially.
    pub fn build(h: &Hypergraph) -> Self {
        match Self::build_with(h, &Deadline::none()) {
            Ok(ov) => ov,
            Err(_) => unreachable!("an unlimited deadline cannot expire"),
        }
    }

    /// [`CsrOverlap::build`] under a cooperative [`Deadline`], checked
    /// every [`hgobs::CHECK_INTERVAL`] vertex-adjacency pairs; the
    /// `overlap.csr.pairs` counter and the error's `work_done` report the
    /// pairs actually generated.
    pub fn build_with(h: &Hypergraph, deadline: &Deadline) -> Result<Self, DeadlineExceeded> {
        let _span = hgobs::Span::enter("overlap.csr.build");
        let mut tp = deadline.trace().phase("overlap.build");
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut generated: u64 = 0;
        let mut ticks = 0u32;
        for v in h.vertices() {
            let adj = h.edges_of(v);
            for (i, &f) in adj.iter().enumerate() {
                for &g in &adj[i + 1..] {
                    if deadline.tick(&mut ticks) {
                        hgobs::counter!("overlap.csr.pairs", generated);
                        return Err(deadline.exceeded("overlap.csr.build", generated));
                    }
                    generated += 1;
                    // Adjacency rows are ascending, so f < g already.
                    pairs.push((f.0, g.0));
                }
            }
        }
        hgobs::counter!("overlap.csr.pairs", generated);
        tp.add_work(generated);
        pairs.sort_unstable();
        // Run-length encode (f, g) repetitions into overlap counts, into
        // a vector of exactly the distinct count, and free the pairs
        // before assembly: this build sets a max-core request's peak
        // memory.
        let distinct = pairs.len() - pairs.windows(2).filter(|w| w[0] == w[1]).count();
        let mut triples: Vec<(u32, u32, u32)> = Vec::with_capacity(distinct);
        for &(f, g) in &pairs {
            match triples.last_mut() {
                Some((lf, lg, c)) if *lf == f && *lg == g => *c += 1,
                _ => triples.push((f, g, 1)),
            }
        }
        drop(pairs);
        Ok(Self::from_triples(h.num_edges(), &triples))
    }

    /// Assemble from distinct overlap triples `(f, g, |f ∩ g|)` sorted by
    /// `(f, g)` with `f < g` and positive counts — the format both the
    /// sequential build and `parcore`'s sharded builder produce. Each
    /// triple fills the `(f, g)` and `(g, f)` entries and links them via
    /// `mirror`.
    ///
    /// Rows come out sorted without any per-row sort: for a fixed row `e`,
    /// the mirror entries (from triples `(f, e)` with `f < e`) are
    /// appended in ascending `f` before any forward entry (from triples
    /// `(e, g)` with `g > e`, ascending in `g`), and every mirror neighbor
    /// `f < e` precedes every forward neighbor `g > e`.
    pub fn from_triples(num_edges: usize, triples: &[(u32, u32, u32)]) -> Self {
        debug_assert!(triples
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        debug_assert!(triples.iter().all(|&(f, g, c)| f < g && c > 0));
        let mut offsets = vec![0u32; num_edges + 1];
        for &(f, g, _) in triples {
            offsets[f as usize + 1] += 1;
            offsets[g as usize + 1] += 1;
        }
        for i in 0..num_edges {
            offsets[i + 1] += offsets[i];
        }
        let nnz = offsets[num_edges] as usize;
        let mut neighbors = vec![0u32; nnz];
        let mut counts = vec![0u32; nnz];
        let mut mirror = vec![0u32; nnz];
        let mut cursor: Vec<u32> = offsets[..num_edges].to_vec();
        for &(f, g, c) in triples {
            let i = cursor[f as usize] as usize;
            cursor[f as usize] += 1;
            let j = cursor[g as usize] as usize;
            cursor[g as usize] += 1;
            neighbors[i] = g;
            counts[i] = c;
            mirror[i] = j as u32;
            neighbors[j] = f;
            counts[j] = c;
            mirror[j] = i as u32;
        }
        let ov = CsrOverlap {
            offsets,
            neighbors,
            counts,
            mirror,
        };
        debug_assert!((0..num_edges).all(|f| {
            let (lo, hi) = ov.bounds(f);
            ov.neighbors[lo..hi].windows(2).all(|w| w[0] < w[1])
        }));
        ov
    }

    /// Number of hyperedges (rows).
    pub fn num_edges(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Flat index range of edge `f`'s row.
    #[inline]
    pub(crate) fn bounds(&self, f: usize) -> (usize, usize) {
        (self.offsets[f] as usize, self.offsets[f + 1] as usize)
    }

    /// `|f ∩ g|` (0 when disjoint, identical ids, or a zeroed entry).
    pub fn overlap(&self, f: EdgeId, g: EdgeId) -> u32 {
        if f == g {
            return 0;
        }
        let (lo, hi) = self.bounds(f.index());
        match self.neighbors[lo..hi].binary_search(&g.0) {
            Ok(pos) => self.counts[lo + pos],
            Err(_) => 0,
        }
    }

    /// Degree-2 of hyperedge `f`: number of hyperedges sharing a vertex
    /// with it (as built; entries zeroed during peeling still count
    /// toward the row length).
    pub fn d2_edge(&self, f: EdgeId) -> usize {
        let (lo, hi) = self.bounds(f.index());
        hi - lo
    }

    /// `Δ₂,F`: maximum degree-2 over all hyperedges.
    pub fn max_d2_edge(&self) -> usize {
        (0..self.num_edges())
            .map(|f| {
                let (lo, hi) = self.bounds(f);
                hi - lo
            })
            .max()
            .unwrap_or(0)
    }

    /// Iterate over the hyperedges overlapping `f` (ascending id) with
    /// their current counts, skipping zeroed entries.
    pub fn overlapping(&self, f: EdgeId) -> impl Iterator<Item = (EdgeId, u32)> + '_ {
        let (lo, hi) = self.bounds(f.index());
        (lo..hi).filter_map(move |i| {
            let c = self.counts[i];
            (c > 0).then(|| (EdgeId(self.neighbors[i]), c))
        })
    }

    /// Symmetrically decrement `|f ∩ g|` by one: binary-search `g` in
    /// `f`'s row, then write the twin through `mirror`. Peeling only calls
    /// this for alive pairs sharing the vertex being deleted, so the entry
    /// must exist with a positive count.
    #[inline]
    pub(crate) fn decrement_pair(&mut self, f: usize, g: u32) {
        let (lo, hi) = self.bounds(f);
        let Ok(pos) = self.neighbors[lo..hi].binary_search(&g) else {
            debug_assert!(false, "decrement of absent overlap ({f}, {g})");
            return;
        };
        let i = lo + pos;
        debug_assert!(self.counts[i] > 0, "decrement of zeroed overlap ({f}, {g})");
        let c = self.counts[i] - 1;
        self.counts[i] = c;
        self.counts[self.mirror[i] as usize] = c;
    }

    /// Zero every entry of dead edge `f` and their mirror twins, so that
    /// from now on a nonzero count anywhere implies both endpoints alive.
    pub(crate) fn kill_edge(&mut self, f: usize) {
        let (lo, hi) = self.bounds(f);
        for i in lo..hi {
            if self.counts[i] != 0 {
                self.counts[self.mirror[i] as usize] = 0;
                self.counts[i] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn toy() -> Hypergraph {
        // e0={0,1,2}, e1={1,2,3}, e2={3,4}, e3={5}
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([1, 2, 3]);
        b.add_edge([3, 4]);
        b.add_edge([5]);
        b.build()
    }

    #[test]
    fn matches_brute_force_on_toy() {
        let h = toy();
        let csr = CsrOverlap::build(&h);
        let shared = |f: EdgeId, g: EdgeId| {
            let pg = h.pins(g);
            h.pins(f).iter().filter(|v| pg.contains(v)).count() as u32
        };
        let mut max_d2 = 0;
        for f in h.edges() {
            let mut d2 = 0;
            for g in h.edges().filter(|&g| g != f) {
                assert_eq!(csr.overlap(f, g), shared(f, g), "({f:?}, {g:?})");
                d2 += usize::from(shared(f, g) > 0);
            }
            assert_eq!(csr.overlap(f, f), 0, "{f:?}");
            assert_eq!(csr.d2_edge(f), d2, "{f:?}");
            max_d2 = max_d2.max(d2);
        }
        assert_eq!(csr.max_d2_edge(), max_d2);
    }

    #[test]
    fn rows_sorted_and_mirrors_consistent() {
        let h = toy();
        let ov = CsrOverlap::build(&h);
        for f in 0..ov.num_edges() {
            let (lo, hi) = ov.bounds(f);
            assert!(ov.neighbors[lo..hi].windows(2).all(|w| w[0] < w[1]));
            for i in lo..hi {
                let m = ov.mirror[i] as usize;
                assert_eq!(ov.neighbors[m], f as u32);
                assert_eq!(ov.mirror[m] as usize, i);
                assert_eq!(ov.counts[m], ov.counts[i]);
            }
        }
    }

    #[test]
    fn overlapping_iterator_skips_zeroed() {
        let h = toy();
        let mut ov = CsrOverlap::build(&h);
        let from1: Vec<_> = ov.overlapping(EdgeId(1)).collect();
        assert_eq!(from1, vec![(EdgeId(0), 2), (EdgeId(2), 1)]);
        ov.kill_edge(2);
        let from1: Vec<_> = ov.overlapping(EdgeId(1)).collect();
        assert_eq!(from1, vec![(EdgeId(0), 2)]);
        // The twin inside row 2 is zeroed too.
        assert_eq!(ov.overlapping(EdgeId(2)).count(), 0);
    }

    #[test]
    fn decrement_pair_is_symmetric() {
        let h = toy();
        let mut ov = CsrOverlap::build(&h);
        ov.decrement_pair(0, 1);
        assert_eq!(ov.overlap(EdgeId(0), EdgeId(1)), 1);
        assert_eq!(ov.overlap(EdgeId(1), EdgeId(0)), 1);
        ov.decrement_pair(1, 0);
        assert_eq!(ov.overlap(EdgeId(0), EdgeId(1)), 0);
    }

    #[test]
    fn identical_edges_overlap_fully() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 1, 2]);
        let h = b.build();
        let ov = CsrOverlap::build(&h);
        assert_eq!(ov.overlap(EdgeId(0), EdgeId(1)), 3);
    }

    #[test]
    fn empty_hypergraph() {
        let h = HypergraphBuilder::new(0).build();
        let ov = CsrOverlap::build(&h);
        assert_eq!(ov.num_edges(), 0);
        assert_eq!(ov.max_d2_edge(), 0);
    }

    #[test]
    fn from_triples_round_trips() {
        // Hand-built triples for the toy hypergraph.
        let triples = vec![(0u32, 1u32, 2u32), (1, 2, 1)];
        let ov = CsrOverlap::from_triples(4, &triples);
        assert_eq!(ov.overlap(EdgeId(0), EdgeId(1)), 2);
        assert_eq!(ov.overlap(EdgeId(1), EdgeId(2)), 1);
        assert_eq!(ov.overlap(EdgeId(0), EdgeId(2)), 0);
        assert_eq!(ov.d2_edge(EdgeId(1)), 2);
        assert_eq!(ov.d2_edge(EdgeId(3)), 0);
    }

    #[test]
    fn pre_expired_deadline_reports_build_phase() {
        // The amortized tick only fires past the check interval, so use
        // enough pairwise-overlapping edges to reach it: C(80,2) pairs
        // per shared vertex.
        let dl = Deadline::after(std::time::Duration::ZERO);
        let mut b = HypergraphBuilder::new(2);
        for _ in 0..80 {
            b.add_edge([0, 1]);
        }
        let big = b.build();
        let err = CsrOverlap::build_with(&big, &dl).unwrap_err();
        assert_eq!(err.phase, "overlap.csr.build");
    }
}
