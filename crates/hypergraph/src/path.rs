//! Hypergraph paths, distances, diameter, and average path length.
//!
//! A path in `H` is an alternating sequence of vertices and hyperedges
//! `v_1, f_1, v_2, f_2, …, f_{i-1}, v_i` with each `f_j` containing both
//! `v_j` and `v_{j+1}`, no repeats; its **length is the number of
//! hyperedges** on it. The distance between two vertices is the length of
//! a shortest path, which equals half their distance in the bipartite view
//! `B(H)`. The diameter is the maximum pairwise vertex distance; the
//! paper reports diameter 6 and average path length 2.568 for the yeast
//! hypergraph and reads these as small-world evidence.
//!
//! Every sweep has a `*_with` variant taking an [`hgobs::Deadline`];
//! the plain functions are unbounded wrappers over those.

use std::cell::RefCell;
use std::collections::VecDeque;

use hgobs::{Deadline, DeadlineExceeded};

use crate::hypergraph::{EdgeId, Hypergraph, VertexId};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

/// Shortest hypergraph distances (in hyperedges) from `source` to every
/// vertex. Runs a BFS that alternates vertex and hyperedge expansions —
/// equivalent to BFS on `B(H)` but without materializing it. O(|E|).
pub fn hyper_distances(h: &Hypergraph, source: VertexId) -> Vec<u32> {
    match hyper_distances_with(h, source, &Deadline::none()) {
        Ok(dist) => dist,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`hyper_distances`] under a cooperative [`Deadline`], checked every
/// [`hgobs::CHECK_INTERVAL`] settled vertices. On expiry the error's
/// `work_done` is the number of vertices settled before the check fired.
pub fn hyper_distances_with(
    h: &Hypergraph,
    source: VertexId,
    deadline: &Deadline,
) -> Result<Vec<u32>, DeadlineExceeded> {
    let mut tp = deadline.trace().phase("bfs");
    // Upfront check: the amortized tick only fires every CHECK_INTERVAL
    // settled vertices, which a small graph may never reach.
    if deadline.expired() {
        return Err(deadline.exceeded("bfs", 0));
    }
    let mut bfs = Bfs::new(h);
    let settled = bfs
        .run(h, source, deadline)
        .map_err(|settled| deadline.exceeded("bfs", settled))?;
    tp.add_work(settled);
    hgobs::counter!("bfs.sources");
    if hgobs::enabled() {
        record_bfs_shape(&bfs.dist);
    }
    Ok(bfs.dist)
}

/// The scalar BFS over its own buffers, run once by
/// [`hyper_distances_with`] and once per source by the scalar sweep.
/// `ticks` is the deadline's amortized counter, kept across runs.
struct Bfs {
    dist: Vec<u32>,
    edge_seen: Vec<bool>,
    frontier: VecDeque<VertexId>,
    ticks: u32,
}

impl Bfs {
    fn new(h: &Hypergraph) -> Self {
        Bfs {
            dist: vec![UNREACHABLE; h.num_vertices()],
            edge_seen: vec![false; h.num_edges()],
            frontier: VecDeque::new(),
            ticks: 0,
        }
    }

    /// BFS from `source`, alternating vertex and hyperedge expansions,
    /// over buffers the caller has cleared (a run that returns `Ok`
    /// leaves `frontier` empty). Returns the vertices settled, or as the
    /// error the number settled when the deadline's tick fired.
    fn run(&mut self, h: &Hypergraph, source: VertexId, deadline: &Deadline) -> Result<u64, u64> {
        let mut settled = 0u64;
        self.dist[source.index()] = 0;
        self.frontier.push_back(source);
        while let Some(u) = self.frontier.pop_front() {
            if deadline.tick(&mut self.ticks) {
                return Err(settled);
            }
            settled += 1;
            let du = self.dist[u.index()];
            for &f in h.edges_of(u) {
                if self.edge_seen[f.index()] {
                    continue;
                }
                self.edge_seen[f.index()] = true;
                for &w in h.pins(f) {
                    if self.dist[w.index()] == UNREACHABLE {
                        self.dist[w.index()] = du + 1;
                        self.frontier.push_back(w);
                    }
                }
            }
        }
        Ok(settled)
    }
}

/// Hypergraph distance from `s` to `t` alone, or `None` when `t` is
/// unreachable. A bidirectional search: in a small world the two
/// half-depth balls meet after touching a small fraction of the
/// component that [`hyper_distances`] (the oracle) sweeps whole.
pub fn hyper_distance(h: &Hypergraph, s: VertexId, t: VertexId) -> Option<u32> {
    match hyper_distance_with(h, s, t, &Deadline::none()) {
        Ok(d) => d,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`hyper_distance`] under a cooperative [`Deadline`]: checked up
/// front, at every level boundary, and every [`hgobs::CHECK_INTERVAL`]
/// settled vertices. The trace phase and the error's `work_done` are
/// both `bfs.pair` and the vertices settled on both sides.
///
/// Each side runs the alternating vertex/hyperedge BFS one full level
/// at a time, always on the side whose frontier has the smaller total
/// vertex degree. The search stops at the first vertex one side labels
/// while the other already holds it, and that sum of the two distances
/// is exact: before this level no vertex was held by both sides, so the
/// radii summed to less than the distance `D`; the new vertex sums to
/// at most the radii after the level, so at most `D`; and it spells a
/// real walk from `s` to `t`, so at least `D`.
///
/// The search allocates nothing per query: it labels vertices and
/// marks hyperedges in a scratch its thread keeps (4 B per vertex and
/// 1 B per hyperedge of the largest hypergraph it searched, plus lists
/// of what it touched kept at up to 2^14 entries; growth is counted in
/// `bfs.pair.scratch_bytes`), and on every exit, an unwind included,
/// clears only the entries it touched.
pub fn hyper_distance_with(
    h: &Hypergraph,
    s: VertexId,
    t: VertexId,
    deadline: &Deadline,
) -> Result<Option<u32>, DeadlineExceeded> {
    match pair_search(h, s, t, usize::MAX, deadline) {
        Ok(found) => Ok(found.distance),
        Err(PairStop::Deadline(e)) => Err(e),
        Err(PairStop::OverBudget) => {
            unreachable!("a search scans each hyperedge once, so it never passes usize::MAX pins")
        }
    }
}

/// Why [`hyper_distance_within`] stopped without an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairStop {
    /// Finishing would scan more pins than the budget.
    OverBudget,
    /// The deadline fired first.
    Deadline(DeadlineExceeded),
}

/// [`hyper_distance_with`] that stops with [`PairStop::OverBudget`]
/// before it scans more than `max_pins` pins in all (a hyperedge's pins
/// are charged when a side enters it). The search is the same step for
/// step, so a budget at least what the unbounded search scans never
/// stops it, and any smaller budget always does. Every pin scanned is
/// at most two units of work (the pin, and the vertex-to-hyperedge step
/// that reached it), so the budget bounds the time spent.
pub fn hyper_distance_within(
    h: &Hypergraph,
    s: VertexId,
    t: VertexId,
    max_pins: usize,
    deadline: &Deadline,
) -> Result<Option<u32>, PairStop> {
    pair_search(h, s, t, max_pins, deadline).map(|found| found.distance)
}

/// A vertex label holds distance + 1 in its low 31 bits (0: unseen),
/// and this bit when the side searching from `t` set it.
const FROM_T: u32 = 1 << 31;
const DEPTH: u32 = FROM_T - 1;

/// Touched-list capacity a thread keeps between searches; a longer
/// search's lists shrink back to it.
const KEEP_TOUCHED: usize = 1 << 14;

/// The pair search's per-thread scratch. Between searches every label
/// is 0, every mark is clear and both lists are empty.
struct PairScratch {
    /// Per vertex: 0 while unseen, else the side bit | distance + 1.
    label: Vec<u32>,
    /// Per hyperedge: whether a side has entered it. One mark serves
    /// both sides: a side that enters a hyperedge labels every pin of
    /// it (or meets the other side and ends), so the other side never
    /// holds a pin of it while the search runs.
    entered: Vec<bool>,
    /// Every vertex labeled, in labeling order; each level a side
    /// expands is one contiguous run.
    seen: Vec<VertexId>,
    /// Every hyperedge entered.
    touched: Vec<EdgeId>,
}

thread_local! {
    static PAIR_SCRATCH: RefCell<PairScratch> = const {
        RefCell::new(PairScratch {
            label: Vec::new(),
            entered: Vec::new(),
            seen: Vec::new(),
            touched: Vec::new(),
        })
    };
}

impl PairScratch {
    /// Grow to `h`'s dimensions; new entries are clean.
    fn fit(&mut self, h: &Hypergraph) {
        assert!(
            h.num_vertices() <= DEPTH as usize,
            "the pair search labels at most 2^31 - 1 vertices"
        );
        if self.label.len() < h.num_vertices() {
            self.label.resize(h.num_vertices(), 0);
        }
        if self.entered.len() < h.num_edges() {
            self.entered.resize(h.num_edges(), false);
        }
    }

    fn bytes(&self) -> usize {
        4 * self.label.capacity()
            + self.entered.capacity()
            + 4 * (self.seen.capacity() + self.touched.capacity())
    }
}

/// Clears what a search touched when dropped, so the scratch is clean
/// however the search ends: answer, budget stop, deadline or unwind.
/// The lists hold only entries written in range, so this cannot panic.
struct Clean<'a>(&'a mut PairScratch);

impl Drop for Clean<'_> {
    fn drop(&mut self) {
        let sc = &mut *self.0;
        for v in sc.seen.drain(..) {
            sc.label[v.index()] = 0;
        }
        for f in sc.touched.drain(..) {
            sc.entered[f.index()] = false;
        }
        sc.seen.shrink_to(KEEP_TOUCHED);
        sc.touched.shrink_to(KEEP_TOUCHED);
    }
}

/// What a finished pair search found, and what it cost.
struct Found {
    distance: Option<u32>,
    /// Vertices whose hyperedges a side scanned.
    settled: u64,
    /// Pins of the hyperedges entered: what the budget counts.
    pins: usize,
}

/// The one search behind [`hyper_distance_with`] and
/// [`hyper_distance_within`].
fn pair_search(
    h: &Hypergraph,
    s: VertexId,
    t: VertexId,
    max_pins: usize,
    deadline: &Deadline,
) -> Result<Found, PairStop> {
    let mut tp = deadline.trace().phase("bfs.pair");
    if deadline.expired() {
        return Err(PairStop::Deadline(deadline.exceeded("bfs.pair", 0)));
    }
    let found = if s == t {
        Found {
            distance: Some(0),
            settled: 0,
            pins: 0,
        }
    } else {
        PAIR_SCRATCH.with(|cell| {
            let mut sc = cell.borrow_mut();
            let before = sc.bytes();
            sc.fit(h);
            let clean = Clean(&mut sc);
            let found = search(h, s, t, max_pins, deadline, clean.0);
            drop(clean);
            let grown = sc.bytes().saturating_sub(before);
            if grown > 0 {
                hgobs::counter!("bfs.pair.scratch_bytes", grown as u64);
            }
            found
        })?
    };
    tp.add_work(found.settled);
    hgobs::counter!("bfs.pair.searches");
    hgobs::counter!("bfs.pair.settled", found.settled);
    hgobs::counter!("bfs.pair.pins", found.pins as u64);
    Ok(found)
}

/// One side of the search: the bit its labels carry, the run of
/// `seen` holding its last level, and that level's total vertex degree
/// (what expanding it costs).
struct Side {
    tag: u32,
    level: std::ops::Range<usize>,
    degree: usize,
}

/// [`pair_search`]'s loop over a clean scratch, for `s != t`.
fn search(
    h: &Hypergraph,
    s: VertexId,
    t: VertexId,
    max_pins: usize,
    deadline: &Deadline,
    sc: &mut PairScratch,
) -> Result<Found, PairStop> {
    let PairScratch {
        label,
        entered,
        seen,
        touched,
    } = sc;
    label[s.index()] = 1;
    seen.push(s);
    label[t.index()] = FROM_T | 1;
    seen.push(t);
    let mut sides = [
        Side {
            tag: 0,
            level: 0..1,
            degree: h.vertex_degree(s),
        },
        Side {
            tag: FROM_T,
            level: 1..2,
            degree: h.vertex_degree(t),
        },
    ];
    let mut ticks = 0u32;
    let mut settled = 0u64;
    let mut pins = 0usize;
    while sides.iter().all(|side| !side.level.is_empty()) {
        if deadline.expired() {
            return Err(PairStop::Deadline(deadline.exceeded("bfs.pair", settled)));
        }
        let near = &mut sides[usize::from(sides[1].degree < sides[0].degree)];
        let next = seen.len();
        let mut degree = 0;
        for i in near.level.clone() {
            if deadline.tick(&mut ticks) {
                return Err(PairStop::Deadline(deadline.exceeded("bfs.pair", settled)));
            }
            settled += 1;
            let u = seen[i];
            let du = label[u.index()] & DEPTH;
            for &f in h.edges_of(u) {
                if entered[f.index()] {
                    continue;
                }
                let f_pins = h.pins(f);
                pins += f_pins.len();
                if pins > max_pins {
                    return Err(PairStop::OverBudget);
                }
                entered[f.index()] = true;
                touched.push(f);
                for &w in f_pins {
                    let lw = label[w.index()];
                    if lw == 0 {
                        label[w.index()] = near.tag | (du + 1);
                        seen.push(w);
                        degree += h.vertex_degree(w);
                    } else if lw & FROM_T != near.tag {
                        return Ok(Found {
                            // Both labels are distance + 1.
                            distance: Some(du + (lw & DEPTH) - 1),
                            settled,
                            pins,
                        });
                    }
                }
            }
        }
        near.level = next..seen.len();
        near.degree = degree;
    }
    Ok(Found {
        distance: None,
        settled,
        pins,
    })
}

/// Record eccentricity and per-level frontier-size histograms for one BFS.
/// Kept out of line so the common disabled path pays only the `enabled()`
/// check at the call site.
#[cold]
fn record_bfs_shape(dist: &[u32]) {
    let ecc = dist
        .iter()
        .copied()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0);
    hgobs::hist!("bfs.eccentricity", ecc);
    if ecc == 0 {
        return;
    }
    let mut level_counts = vec![0u64; ecc as usize + 1];
    for &d in dist {
        if d != UNREACHABLE {
            level_counts[d as usize] += 1;
        }
    }
    for &c in &level_counts[1..] {
        hgobs::hist!("bfs.frontier", c);
    }
}

/// Aggregate vertex-pair distance statistics (paper §2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HyperDistanceStats {
    /// Largest finite vertex-pair distance (in hyperedges).
    pub diameter: u32,
    /// Mean finite distance over reachable ordered vertex pairs.
    pub average_path_length: f64,
    /// Number of reachable ordered pairs contributing to the mean.
    pub reachable_pairs: u64,
}

/// The pre-MS-BFS engine: one scalar BFS per source. Kept as the oracle
/// the batched kernel is tested against, and as the `scalar` engine in
/// `hg bench --kernels`.
pub fn scalar_hyper_distance_stats(h: &Hypergraph) -> HyperDistanceStats {
    let sources: Vec<VertexId> = h.vertices().collect();
    scalar_hyper_distance_stats_from(h, &sources)
}

/// [`scalar_hyper_distance_stats`] restricted to caller-chosen sources.
pub fn scalar_hyper_distance_stats_from(
    h: &Hypergraph,
    sources: &[VertexId],
) -> HyperDistanceStats {
    match scalar_hyper_distance_stats_from_with(h, sources, &Deadline::none()) {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`scalar_hyper_distance_stats_from`] under a cooperative
/// [`Deadline`], checked every [`hgobs::CHECK_INTERVAL`] settled
/// vertices across the whole sweep. The `bfs.sources` counter reflects
/// only the sources actually completed, on both the success and the
/// expiry path, and the error's `work_done` is that same partial count.
pub fn scalar_hyper_distance_stats_from_with(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let _tp = deadline.trace().phase("bfs.sweep");
    let mut diameter = 0u32;
    let mut total = 0u128;
    let mut pairs = 0u64;
    let mut bfs = Bfs::new(h);
    let mut completed = 0u64;

    let expired = 'sweep: {
        for &s in sources {
            // Per-source boundary check: negligible next to a BFS, and
            // it makes expiry deterministic on graphs too small for the
            // amortized tick to ever fire.
            if deadline.expired() {
                break 'sweep true;
            }
            bfs.dist.fill(UNREACHABLE);
            bfs.edge_seen.fill(false);
            if bfs.run(h, s, deadline).is_err() {
                break 'sweep true;
            }
            if hgobs::enabled() {
                record_bfs_shape(&bfs.dist);
            }
            for (v, &d) in bfs.dist.iter().enumerate() {
                if d != UNREACHABLE && v != s.index() {
                    diameter = diameter.max(d);
                    total += d as u128;
                    pairs += 1;
                }
            }
            completed += 1;
        }
        false
    };
    hgobs::counter!("bfs.sources", completed);
    if expired {
        return Err(deadline.exceeded("bfs.sweep", completed));
    }
    Ok(HyperDistanceStats {
        diameter,
        average_path_length: if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        },
        reachable_pairs: pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msbfs::{hyper_distance_stats, hyper_distance_stats_with};
    use crate::testgen::arb_hypergraph;
    use crate::{BipartiteView, HypergraphBuilder};
    use proptest::prelude::*;
    use std::time::Duration;

    /// Chain of three overlapping edges: {0,1}, {1,2}, {2,3}.
    fn chain() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        b.build()
    }

    /// Ring of `n` size-3 edges {i, i+1, i+7} (mod n): connected, large
    /// diameter, cheap to build — a worst-case-ish BFS sweep workload.
    fn big_ring(n: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge([i, (i + 1) % n, (i + 7) % n]);
        }
        b.build()
    }

    #[test]
    fn distances_count_hyperedges() {
        let d = hyper_distances(&chain(), VertexId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_big_edge_gives_distance_one() {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2, 3, 4]);
        let h = b.build();
        let d = hyper_distances(&h, VertexId(3));
        assert_eq!(d, vec![1, 1, 1, 0, 1]);
    }

    #[test]
    fn unreachable_marked() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        let h = b.build();
        let d = hyper_distances(&h, VertexId(0));
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn stats_on_chain() {
        let s = hyper_distance_stats(&chain());
        assert_eq!(s.diameter, 3);
        // ordered pairs: (0,1)=1 (0,2)=2 (0,3)=3 (1,2)=1 (1,3)=2 (2,3)=1 and
        // symmetric: total = 2*(1+2+3+1+2+1) = 20 over 12 pairs.
        assert_eq!(s.reachable_pairs, 12);
        assert!((s.average_path_length - 20.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn matches_half_bipartite_distance() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([3, 4, 5]);
        b.add_edge([0, 5]);
        let h = b.build();
        let bv = BipartiteView::new(&h);
        for s in h.vertices() {
            let hd = hyper_distances(&h, s);
            let bd = graphcore::bfs_distances(&bv.graph, bv.vertex_node(s));
            for v in h.vertices() {
                if hd[v.index()] == UNREACHABLE {
                    assert_eq!(bd[v.index()], graphcore::UNREACHABLE);
                } else {
                    assert_eq!(2 * hd[v.index()], bd[v.index()], "s={s:?} v={v:?}");
                }
            }
        }
    }

    #[test]
    fn default_engine_matches_scalar_oracle() {
        for h in [chain(), big_ring(200)] {
            assert_eq!(hyper_distance_stats(&h), scalar_hyper_distance_stats(&h));
        }
    }

    #[test]
    fn empty_hypergraph_stats() {
        let h = HypergraphBuilder::new(0).build();
        let s = hyper_distance_stats(&h);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.reachable_pairs, 0);
    }

    #[test]
    fn unlimited_deadline_matches_plain_variant() {
        let h = big_ring(200);
        let none = Deadline::none();
        assert_eq!(
            hyper_distances(&h, VertexId(3)),
            hyper_distances_with(&h, VertexId(3), &none).unwrap()
        );
        assert_eq!(
            hyper_distance_stats(&h),
            hyper_distance_stats_with(&h, &none).unwrap()
        );
    }

    #[test]
    fn pre_cancelled_deadline_stops_default_engine_with_zero_batches() {
        let h = big_ring(3000);
        let dl = Deadline::after(Duration::ZERO);
        assert!(dl.expired());
        let err = hyper_distance_stats_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "msbfs");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn pre_cancelled_deadline_stops_scalar_sweep_before_any_source_completes() {
        let h = big_ring(3000);
        let sources: Vec<VertexId> = h.vertices().collect();
        let dl = Deadline::after(Duration::ZERO);
        assert!(dl.expired());
        let err = scalar_hyper_distance_stats_from_with(&h, &sources, &dl).unwrap_err();
        assert_eq!(err.phase, "bfs.sweep");
        // The first tick window (CHECK_INTERVAL settled vertices) spans at
        // most one 3000-vertex source, so no source can have completed.
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn deadline_fires_mid_scalar_sweep_with_partial_source_count() {
        // A full sweep over 3000 sources × 3000 vertices is ~9M settles;
        // walk the budget up from 1ms until one lands mid-sweep. On any
        // machine fast enough to finish the whole sweep inside 1ms the
        // escalation simply ends at Ok and the pre-cancelled test above
        // still covers the expiry path.
        let h = big_ring(3000);
        let sources: Vec<VertexId> = h.vertices().collect();
        for ms in [1u64, 2, 4, 8, 16, 32, 64] {
            match scalar_hyper_distance_stats_from_with(&h, &sources, &Deadline::after_ms(ms)) {
                Err(err) => {
                    assert_eq!(err.phase, "bfs.sweep");
                    assert!(err.work_done < 3000, "{err:?}");
                    assert!(err.elapsed >= Duration::from_millis(ms), "{err:?}");
                    if err.work_done > 0 {
                        return; // observed a genuine mid-sweep stop
                    }
                }
                Ok(_) => return,
            }
        }
    }

    /// The pair engine against its oracle, [`hyper_distances`].
    fn assert_pair_matches_oracle(
        h: &Hypergraph,
        s: VertexId,
        targets: impl Iterator<Item = VertexId>,
    ) {
        let dist = hyper_distances(h, s);
        for t in targets {
            let want = Some(dist[t.index()]).filter(|&d| d != UNREACHABLE);
            assert_eq!(hyper_distance(h, s, t), want, "s={s:?} t={t:?}");
        }
    }

    #[test]
    fn pair_distance_to_itself_is_zero() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(hyper_distance(&h, VertexId(0), VertexId(0)), Some(0));
        // Vertex 2 is isolated.
        assert_eq!(hyper_distance(&h, VertexId(2), VertexId(2)), Some(0));
    }

    #[test]
    fn pair_sharing_one_edge_is_one_apart() {
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2, 3, 4]);
        let h = b.build();
        assert_eq!(hyper_distance(&h, VertexId(1), VertexId(4)), Some(1));
        assert_eq!(hyper_distance(&h, VertexId(4), VertexId(1)), Some(1));
    }

    #[test]
    fn pair_distance_along_a_chain() {
        let h = chain();
        for s in h.vertices() {
            assert_pair_matches_oracle(&h, s, h.vertices());
        }
        assert_eq!(hyper_distance(&h, VertexId(0), VertexId(3)), Some(3));
    }

    #[test]
    fn pair_distance_across_a_big_ring() {
        // Both sides take many levels before they meet.
        let h = big_ring(3000);
        let targets = [1u32, 7, 8, 500, 1499, 1500, 1501, 2999].map(VertexId);
        assert_pair_matches_oracle(&h, VertexId(0), targets.into_iter());
        assert_pair_matches_oracle(&h, VertexId(1234), targets.into_iter());
        assert!(hyper_distance(&h, VertexId(0), VertexId(1500)).unwrap() > 100);
    }

    #[test]
    fn pair_in_different_components_is_unreachable() {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([3, 4]);
        let h = b.build();
        assert_eq!(hyper_distance(&h, VertexId(0), VertexId(4)), None);
        assert_eq!(hyper_distance(&h, VertexId(4), VertexId(0)), None);
        // Vertex 5 is isolated: its side empties at once.
        assert_eq!(hyper_distance(&h, VertexId(5), VertexId(2)), None);
        assert_eq!(hyper_distance(&h, VertexId(2), VertexId(5)), None);
    }

    #[test]
    fn pre_cancelled_deadline_stops_pair_search_with_zero_work() {
        let h = big_ring(3000);
        let dl = Deadline::after(Duration::ZERO);
        let err = hyper_distance_with(&h, VertexId(0), VertexId(1500), &dl).unwrap_err();
        assert_eq!(err.phase, "bfs.pair");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn deadline_fires_mid_pair_search_with_partial_settled_count() {
        // The ring search spans hundreds of levels and checks the clock
        // at each; walk the budget up until one lands mid-search. A
        // machine that finishes inside every budget ends at Ok, and the
        // pre-cancelled test above still covers the expiry path.
        let n = 9000;
        let h = big_ring(n);
        for us in [1u64, 4, 16, 64, 256, 1024, 4096] {
            let dl = Deadline::after(Duration::from_micros(us));
            match hyper_distance_with(&h, VertexId(0), VertexId(n / 2), &dl) {
                Err(err) => {
                    assert_eq!(err.phase, "bfs.pair");
                    assert!(err.work_done < n as u64, "{err:?}");
                    if err.work_done > 0 {
                        return; // observed a genuine mid-search stop
                    }
                }
                Ok(_) => return,
            }
        }
    }

    #[test]
    fn single_bfs_deadline_reports_settled_vertices() {
        let h = big_ring(9000);
        let dl = Deadline::after(Duration::ZERO);
        let err = hyper_distances_with(&h, VertexId(0), &dl).unwrap_err();
        assert_eq!(err.phase, "bfs");
        assert!(err.work_done < 9000, "{err:?}");
    }

    /// Whether this thread's pair scratch is clean: every label 0, every
    /// mark clear, both lists empty.
    fn scratch_is_clean() -> bool {
        PAIR_SCRATCH.with(|cell| {
            let sc = cell.borrow();
            sc.label.iter().all(|&l| l == 0)
                && sc.entered.iter().all(|&e| !e)
                && sc.seen.is_empty()
                && sc.touched.is_empty()
        })
    }

    #[test]
    fn pair_budget_stops_exactly_below_the_search_need() {
        let h = big_ring(3000);
        let (s, t) = (VertexId(0), VertexId(1500));
        let need = pair_search(&h, s, t, usize::MAX, &Deadline::none())
            .unwrap()
            .pins;
        assert!(need > 100, "{need}");
        let within = |budget| hyper_distance_within(&h, s, t, budget, &Deadline::none());
        assert_eq!(within(need), Ok(hyper_distance(&h, s, t)));
        assert_eq!(within(need - 1), Err(PairStop::OverBudget));
        assert!(scratch_is_clean());
    }

    #[test]
    fn an_unwinding_search_leaves_the_scratch_clean() {
        // Size this thread's scratch past the small hypergraph, so an
        // out-of-range target is labeled before the search panics on it.
        assert!(hyper_distance(&big_ring(300), VertexId(0), VertexId(150)).is_some());
        let small = chain();
        let unwound =
            std::panic::catch_unwind(|| hyper_distance(&small, VertexId(0), VertexId(100)));
        assert!(unwound.is_err());
        assert!(scratch_is_clean());
        assert_eq!(hyper_distance(&small, VertexId(0), VertexId(3)), Some(3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On one thread, searches that finish, stop at a random pin
        /// budget, meet a pre-expired deadline or have `s == t` each
        /// leave the scratch clean, so every finished search answers as
        /// the single-source oracle does, on hypergraphs of changing
        /// size. A budget at least the search's need never stops it,
        /// and a smaller one always does.
        #[test]
        fn every_exit_leaves_the_pair_scratch_clean(
            (h, queries) in arb_hypergraph(30, 24, 4).prop_flat_map(|h| {
                let n = h.num_vertices() as u32;
                let query = (0..n, 0..n, 0..4u32, 0..64usize);
                (Just(h), proptest::collection::vec(query, 1..24))
            })
        ) {
            let expired = Deadline::after(Duration::ZERO);
            for (s, t, exit, budget) in queries {
                let (s, t) = (VertexId(s), VertexId(t));
                let dist = hyper_distances(&h, s);
                let want = Some(dist[t.index()]).filter(|&d| d != UNREACHABLE);
                match exit {
                    0 => prop_assert_eq!(hyper_distance(&h, s, t), want),
                    1 => {
                        let need = pair_search(&h, s, t, usize::MAX, &Deadline::none())
                            .unwrap()
                            .pins;
                        let got = hyper_distance_within(&h, s, t, budget, &Deadline::none());
                        if budget >= need {
                            prop_assert_eq!(got, Ok(want));
                        } else {
                            prop_assert_eq!(got, Err(PairStop::OverBudget));
                        }
                    }
                    2 => {
                        let Err(PairStop::Deadline(e)) =
                            hyper_distance_within(&h, s, t, budget, &expired)
                        else {
                            panic!("an expired deadline must stop the search");
                        };
                        prop_assert_eq!((e.phase, e.work_done), ("bfs.pair", 0));
                    }
                    _ => prop_assert_eq!(
                        hyper_distance_within(&h, s, s, 0, &Deadline::none()),
                        Ok(Some(0))
                    ),
                }
                prop_assert!(scratch_is_clean());
            }
        }
    }
}
