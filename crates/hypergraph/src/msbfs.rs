//! Batched multi-source BFS (MS-BFS) over the alternating vertex /
//! hyperedge expansion.
//!
//! The all-pairs sweeps behind the paper's diameter-6 / APL-2.568 claim
//! run one BFS per source, so every source pays the full CSR scan on its
//! own. MS-BFS batches up to [`BATCH`] sources into one traversal: each
//! vertex and each hyperedge carries a `u64` "seen" mask (bit `i` set
//! once source `i` has reached it) and a frontier mask for the current
//! level. One pass over the CSR arrays then advances all 64 frontiers at
//! once — the adjacency and pin lists are streamed once per *batch*
//! instead of once per *source*, cutting memory traffic by up to 64× on
//! exactly the kernels hgserve exposes under deadlines.
//!
//! # Memory layout of one level
//!
//! Each level is two *consuming* passes, with no settle pass in between:
//!
//! 1. **vertex → hyperedge**: every frontier vertex hands its mask to
//!    the incident hyperedges it has not traversed yet, zeroing its own
//!    frontier word as it is expanded;
//! 2. **hyperedge → vertex**: every entered hyperedge hands its mask to
//!    its unseen pins, writing the *next* frontier directly into the
//!    (now empty) vertex frontier and absorbing the newly reached
//!    (source, vertex) pairs into the accumulators on the spot.
//!
//! Both passes are driven by word-level summary bitmaps
//! ([`crate::bitset`]): bit `v` of the summary is set exactly when
//! frontier word `v` is nonzero, so a level only ever touches its active
//! words. A flat watermark scan ([`crate::bitset::scan_active`])
//! picks the strategy per level — sparse levels walk summary bits and
//! skip all-zero stretches outright, dense levels scan the watermark
//! range flat — and the skipped-word / pass-mode tallies surface as
//! `msbfs.sweep.*` counters (see [`MsBfsScratch::flush_counters`]).
//!
//! Distances are never materialized as an n×n matrix: when a vertex is
//! newly reached at level `d` by `c` sources, the running
//! [`HyperDistanceStats`] accumulators absorb `c` pairs of distance `d`
//! on the spot. The per-source eccentricity variant
//! ([`msbfs_eccentricities`]) folds the same level information into a
//! max-per-source-bit instead.
//!
//! Results are bit-identical to the scalar oracle
//! ([`crate::path::scalar_hyper_distance_stats_from_with`]): both count
//! BFS levels of the bipartite expansion, and the accumulators are
//! integers (`u64` pair counts, `u128` distance total), so the sum is
//! independent of accumulation order and even the `f64` average is
//! reproduced exactly.
//!
//! Every sweep has a `*_with` variant taking an [`hgobs::Deadline`] with
//! the same amortized-tick contract as the scalar sweeps; expiry surfaces
//! phase `"msbfs"` and the number of *batches* fully completed.

use hgobs::{Deadline, DeadlineExceeded};

use crate::bitset;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::path::HyperDistanceStats;

/// Sources advanced per traversal: the bit width of a
/// [`bitset::Mask`]. One 64-byte lane per vertex/hyperedge means a
/// random expansion probe still costs a single cache line while
/// amortizing the CSR scan — and every probe's memory latency — across
/// 256 sources at once.
pub const BATCH: usize = bitset::LANE_BITS;

/// Reusable per-traversal mask buffers. One allocation per worker; a
/// batch that ran to completion leaves every frontier mask and summary
/// zero (both passes consume what they read), so the next batch only
/// re-zeroes the `seen` halves of the lanes instead of the whole
/// scratch.
pub struct MsBfsScratch {
    /// Per-vertex interleaved (seen, frontier) masks: one random cache
    /// line per expansion probe instead of two.
    vlanes: Vec<bitset::Lane>,
    /// Per-hyperedge interleaved (traversed, entered-this-level) masks.
    elanes: Vec<bitset::Lane>,
    /// Summary of the vertex frontier: bit `v` set ⟺ `vlanes[v].front != 0`.
    vsum: Vec<u64>,
    /// Summary of the hyperedge frontier, same invariant.
    esum: Vec<u64>,
    /// Bit `v` set while `vlanes[v].seen` is still missing some source
    /// of the current batch — the pull direction's worklist.
    vunsat: Vec<u64>,
    /// Same for hyperedges.
    eunsat: Vec<u64>,
    /// `true` while the mask invariants above hold (every batch so far
    /// ran to completion); a deadline abort mid-pass clears it, forcing
    /// the next batch to re-zero everything.
    clean: bool,
    counters: bitset::DrainStats,
}

impl MsBfsScratch {
    /// Allocate scratch sized for `h`.
    pub fn new(h: &Hypergraph) -> Self {
        MsBfsScratch {
            vlanes: vec![bitset::Lane::ZERO; h.num_vertices()],
            elanes: vec![bitset::Lane::ZERO; h.num_edges()],
            vsum: vec![0; bitset::words_for(h.num_vertices())],
            esum: vec![0; bitset::words_for(h.num_edges())],
            vunsat: vec![0; bitset::words_for(h.num_vertices())],
            eunsat: vec![0; bitset::words_for(h.num_edges())],
            clean: true,
            counters: bitset::DrainStats::default(),
        }
    }

    /// Bytes held by the mask buffers (one 64-byte lane per vertex and
    /// per hyperedge, plus the 1/64-size summaries); what one parallel
    /// worker costs to equip.
    pub fn bytes(&self) -> usize {
        (self.vlanes.len() + self.elanes.len()) * std::mem::size_of::<bitset::Lane>()
            + (self.vsum.len() + self.esum.len() + self.vunsat.len() + self.eunsat.len())
                * std::mem::size_of::<u64>()
    }

    /// `true` when this scratch was sized for a hypergraph of `h`'s
    /// dimensions and can run batches over it.
    pub fn fits(&self, h: &Hypergraph) -> bool {
        self.vlanes.len() == h.num_vertices() && self.elanes.len() == h.num_edges()
    }

    /// Flush the accumulated sparsity telemetry into the global
    /// counters: `msbfs.sweep.sparse_passes`, `msbfs.sweep.dense_passes`
    /// and `msbfs.sweep.words_skipped` (all-zero summary words skipped
    /// without touching their 64 mask words). The sweep entry points
    /// call this once per sweep; callers driving [`msbfs_batch`]
    /// directly may call it whenever a scrape boundary makes sense.
    pub fn flush_counters(&mut self) {
        let c = std::mem::take(&mut self.counters);
        if c.sparse_passes != 0 {
            hgobs::counter!("msbfs.sweep.sparse_passes", c.sparse_passes);
        }
        if c.dense_passes != 0 {
            hgobs::counter!("msbfs.sweep.dense_passes", c.dense_passes);
        }
        if c.words_skipped != 0 {
            hgobs::counter!("msbfs.sweep.words_skipped", c.words_skipped);
        }
        if c.pull_passes != 0 {
            hgobs::counter!("msbfs.sweep.pull_passes", c.pull_passes);
        }
    }

    /// The sparsity telemetry accumulated since the last
    /// [`flush_counters`](Self::flush_counters) — lets tests and callers
    /// driving [`msbfs_batch`] directly verify which sweep strategies
    /// (sparse bit walk, dense flat scan, pull direction) engaged
    /// without going through the global metrics registry.
    pub fn sweep_counters(&self) -> &bitset::DrainStats {
        &self.counters
    }

    /// Ready the masks for a fresh batch. A clean scratch — freshly
    /// allocated, or left by a completed batch — has all-zero frontier
    /// masks and summaries already; only the `seen` halves carry state.
    fn prepare(&mut self) {
        self.vlanes.fill(bitset::Lane::ZERO);
        self.elanes.fill(bitset::Lane::ZERO);
        if !self.clean {
            self.vsum.fill(0);
            self.esum.fill(0);
        }
        self.clean = false;
    }
}

/// Distance-statistic partials of one batch, mergeable across batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Largest finite distance discovered by this batch.
    pub diameter: u32,
    /// Sum of finite distances over the batch's (source, vertex) pairs.
    pub total: u128,
    /// Number of reachable ordered pairs discovered by this batch.
    pub pairs: u64,
}

impl BatchStats {
    /// Fold another batch's partials into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.diameter = self.diameter.max(other.diameter);
        self.total += other.total;
        self.pairs += other.pairs;
    }
}

/// Advance one batch of at most [`BATCH`] sources to fixpoint,
/// accumulating pair statistics (and, when `ecc` is given, per-source
/// eccentricities into `ecc[i]` for batch slot `i`). Returns `None` when
/// the deadline fires mid-traversal; `ticks` is the caller's amortized
/// tick counter, shared across batches so the clock is read every
/// [`hgobs::CHECK_INTERVAL`] expanded vertices/hyperedges regardless of
/// batch size.
///
/// Each level runs its two expansions in whichever direction is
/// cheaper, decided from flat popcount sweeps of the summaries:
///
/// * **push** — drain the frontier, writing masks into the neighbors'
///   lanes (best while the frontier is small);
/// * **pull** — walk the *unsaturated* entries (those still missing a
///   source, tracked in a summary of their own) and gather their
///   neighbors' frontier masks with pure loads, skipping saturated
///   entries outright (best on the late dense levels, where push would
///   probe mostly-saturated lanes for nothing).
///
/// Both directions produce the same per-level set of newly reached
/// (source, vertex) pairs, and the integer accumulators make the
/// statistics independent of discovery order, so the result is
/// bit-identical either way.
///
/// # Panics
/// If `batch.len() > BATCH` or `ecc` is shorter than `batch`.
pub fn msbfs_batch(
    h: &Hypergraph,
    batch: &[VertexId],
    scratch: &mut MsBfsScratch,
    deadline: &Deadline,
    ticks: &mut u32,
    mut ecc: Option<&mut [u32]>,
) -> Option<BatchStats> {
    assert!(batch.len() <= BATCH, "batch wider than the u64 masks");
    if let Some(e) = ecc.as_deref_mut() {
        e[..batch.len()].fill(0);
    }
    if batch.is_empty() {
        return Some(BatchStats::default());
    }
    scratch.prepare();
    let n = h.num_vertices();
    let m = h.num_edges();
    let MsBfsScratch {
        vlanes,
        elanes,
        vsum,
        esum,
        vunsat,
        eunsat,
        clean,
        counters,
    } = scratch;
    // All sources present ⟺ lane saturated; nothing left to deliver.
    let full = bitset::mask_full(batch.len());
    bitset::fill_all(vunsat, n);
    bitset::fill_all(eunsat, m);
    for (i, &s) in batch.iter().enumerate() {
        let lane = &mut vlanes[s.index()];
        lane.seen[i >> 6] |= 1u64 << (i & 63);
        lane.front[i >> 6] |= 1u64 << (i & 63);
        bitset::mark(vsum, s.index());
    }

    let mut stats = BatchStats::default();
    let mut level = 0u32;
    loop {
        let vscan = bitset::scan_active(vsum);
        if vscan.2 == 0 {
            break;
        }
        level += 1;

        // ---- Pass 1: vertex frontier → hyperedge frontier ----
        // Push cost ≈ frontier vertices × avg degree; pull cost ≈
        // unsaturated hyperedges × avg size. Equalized denominators:
        // compare frontier_bits/n against unsat_bits/m.
        let vactive_bits = bitset::count_bits(vsum);
        let eunsat_bits = bitset::count_bits(eunsat);
        if eunsat_bits * n as u64 >= vactive_bits * m as u64 {
            // Push. The loop body is branchless on purpose: `add` is
            // often zero mid-sweep and an `if add != 0` there
            // mispredicts randomly, flushing the pipeline and
            // serializing the independent cache probes this loop lives
            // or dies by. ORing a zero `add`, shifting a zero summary
            // bit and clearing an already-clear unsat bit are no-ops
            // that cost nothing but keep the loads in flight.
            let ok = bitset::drain_level(vsum, vlanes, vscan, counters, |v, fv| {
                if deadline.tick(ticks) {
                    return false;
                }
                for &f in h.edges_of(VertexId(v as u32)) {
                    let fi = f.index();
                    let lane = &mut elanes[fi];
                    let add = lane.fresh(&fv);
                    lane.absorb(&add);
                    esum[fi >> 6] |= ((!bitset::mask_is_zero(&add)) as u64) << (fi & 63);
                    eunsat[fi >> 6] &= !((lane.saturated(&full) as u64) << (fi & 63));
                }
                true
            });
            if !ok {
                return None;
            }
        } else {
            // Pull: gather the pins' frontier masks of every hyperedge
            // that can still accept a source; saturated hyperedges are
            // skipped without a probe. Reads leave the frontier intact,
            // so it is drained (cheaply, no expansion) afterwards.
            counters.pull_passes += 1;
            for w in 0..eunsat.len() {
                let mut bits = eunsat[w];
                let mut still = bits;
                while bits != 0 {
                    let fi = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if deadline.tick(ticks) {
                        return None;
                    }
                    let mut gather = bitset::MASK_ZERO;
                    for &p in h.pins(EdgeId(fi as u32)) {
                        bitset::mask_or_into(&mut gather, &vlanes[p.index()].front);
                    }
                    let lane = &mut elanes[fi];
                    let add = lane.fresh(&gather);
                    lane.absorb(&add);
                    esum[w] |= ((!bitset::mask_is_zero(&add)) as u64) << (fi & 63);
                    still &= !((lane.saturated(&full) as u64) << (fi & 63));
                }
                eunsat[w] = still;
            }
            // Consume the vertex frontier the pull left behind.
            if !bitset::drain_level(vsum, vlanes, vscan, counters, |_, _| true) {
                unreachable!("clearing drain never aborts");
            }
        }

        // ---- Pass 2: hyperedge frontier → next vertex frontier ----
        let escan = bitset::scan_active(esum);
        let mut level_pairs = 0u64;
        let mut level_bits = bitset::MASK_ZERO;
        if escan.2 != 0 {
            let eactive_bits = bitset::count_bits(esum);
            let vunsat_bits = bitset::count_bits(vunsat);
            if vunsat_bits * m as u64 >= eactive_bits * n as u64 {
                // Push, branchless as above. `seen` is updated as masks
                // land, so summing `popcount(add)` counts each newly
                // reached (source, vertex) pair exactly once no matter
                // how many hyperedges deliver it.
                let ok = bitset::drain_level(esum, elanes, escan, counters, |f, ff| {
                    if deadline.tick(ticks) {
                        return false;
                    }
                    for &w in h.pins(EdgeId(f as u32)) {
                        let wi = w.index();
                        let lane = &mut vlanes[wi];
                        let add = lane.fresh(&ff);
                        lane.absorb(&add);
                        vsum[wi >> 6] |= ((!bitset::mask_is_zero(&add)) as u64) << (wi & 63);
                        vunsat[wi >> 6] &= !((lane.saturated(&full) as u64) << (wi & 63));
                        bitset::mask_or_into(&mut level_bits, &add);
                        level_pairs += bitset::mask_count(&add);
                    }
                    true
                });
                if !ok {
                    return None;
                }
            } else {
                // Pull over unsaturated vertices; the union of incident
                // hyperedge frontiers is the same mask push would have
                // delivered piecewise.
                counters.pull_passes += 1;
                for w in 0..vunsat.len() {
                    let mut bits = vunsat[w];
                    let mut still = bits;
                    while bits != 0 {
                        let wi = (w << 6) | bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if deadline.tick(ticks) {
                            return None;
                        }
                        let mut gather = bitset::MASK_ZERO;
                        for &f in h.edges_of(VertexId(wi as u32)) {
                            bitset::mask_or_into(&mut gather, &elanes[f.index()].front);
                        }
                        let lane = &mut vlanes[wi];
                        let add = lane.fresh(&gather);
                        lane.absorb(&add);
                        vsum[w] |= ((!bitset::mask_is_zero(&add)) as u64) << (wi & 63);
                        still &= !((lane.saturated(&full) as u64) << (wi & 63));
                        bitset::mask_or_into(&mut level_bits, &add);
                        level_pairs += bitset::mask_count(&add);
                    }
                    vunsat[w] = still;
                }
                // Consume the hyperedge frontier the pull read from.
                if !bitset::drain_level(esum, elanes, escan, counters, |_, _| true) {
                    unreachable!("clearing drain never aborts");
                }
            }
        }
        if level_pairs != 0 {
            stats.diameter = level;
            stats.pairs += level_pairs;
            stats.total += level_pairs as u128 * level as u128;
            if let Some(e) = ecc.as_deref_mut() {
                for (w, &word) in level_bits.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        e[(w << 6) | bits.trailing_zeros() as usize] = level;
                        bits &= bits - 1;
                    }
                }
            }
        }
    }
    // Both passes consumed everything they read, so the frontier masks
    // and summaries are all-zero again: the next batch may skip them.
    *clean = true;
    Some(stats)
}

/// Exact vertex-pair distance statistics (paper §2) by MS-BFS from every
/// vertex. Bit-identical to the per-source oracle
/// [`crate::path::scalar_hyper_distance_stats`], with a fraction of its
/// memory traffic.
pub fn hyper_distance_stats(h: &Hypergraph) -> HyperDistanceStats {
    match hyper_distance_stats_with(h, &Deadline::none()) {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`hyper_distance_stats`] under a cooperative [`Deadline`]. On expiry
/// the error carries phase `"msbfs"` and counts batches (of up to
/// [`BATCH`] sources) fully completed.
pub fn hyper_distance_stats_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let sources: Vec<VertexId> = h.vertices().collect();
    hyper_distance_stats_from_with(h, &sources, deadline)
}

/// Distance statistics restricted to caller-chosen BFS sources
/// (sampling for large hypergraphs; the diameter becomes a lower bound).
pub fn hyper_distance_stats_from(h: &Hypergraph, sources: &[VertexId]) -> HyperDistanceStats {
    match hyper_distance_stats_from_with(h, sources, &Deadline::none()) {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`hyper_distance_stats_from`] under a cooperative [`Deadline`],
/// checked both at batch boundaries (deterministic on small inputs) and
/// every [`hgobs::CHECK_INTERVAL`] expanded vertices inside a batch. On
/// expiry the error carries phase `"msbfs"` and the number of batches
/// completed; the `msbfs.batches` and `bfs.sources` counters reflect
/// that same partial progress on both the success and expiry paths.
pub fn hyper_distance_stats_from_with(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let mut scratch = MsBfsScratch::new(h);
    let mut ticks = 0u32;
    let mut acc = BatchStats::default();
    let mut batches = 0u64;
    let mut completed_sources = 0u64;
    let trace = deadline.trace();
    let expired = 'sweep: {
        for batch in sources.chunks(BATCH) {
            // The phase guard opens before the boundary check so a trace
            // of an expired request still shows the batch that noticed.
            let mut tp = trace.phase("msbfs.batch");
            // Batch-boundary check: inputs smaller than CHECK_INTERVAL
            // vertices might never reach the amortized tick.
            if deadline.expired() {
                break 'sweep true;
            }
            match msbfs_batch(h, batch, &mut scratch, deadline, &mut ticks, None) {
                Some(b) => acc.merge(&b),
                None => break 'sweep true,
            }
            tp.add_work(batch.len() as u64);
            batches += 1;
            completed_sources += batch.len() as u64;
        }
        false
    };
    scratch.flush_counters();
    hgobs::counter!("msbfs.batches", batches);
    hgobs::counter!("bfs.sources", completed_sources);
    if expired {
        return Err(deadline.exceeded("msbfs", batches));
    }
    Ok(stats_from_acc(acc))
}

/// Per-source eccentricities (max finite distance; 0 for an isolated
/// source) for every vertex in `sources`, by batched MS-BFS.
pub fn msbfs_eccentricities(h: &Hypergraph, sources: &[VertexId]) -> Vec<u32> {
    match msbfs_eccentricities_with(h, sources, &Deadline::none()) {
        Ok(ecc) => ecc,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`msbfs_eccentricities`] under a cooperative [`Deadline`]; same
/// phase/work contract as [`hyper_distance_stats_from_with`].
pub fn msbfs_eccentricities_with(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
) -> Result<Vec<u32>, DeadlineExceeded> {
    let mut scratch = MsBfsScratch::new(h);
    let mut ticks = 0u32;
    let mut ecc = vec![0u32; sources.len()];
    let mut batches = 0u64;
    for (b, batch) in sources.chunks(BATCH).enumerate() {
        let mut tp = deadline.trace().phase("msbfs.batch");
        let out = &mut ecc[b * BATCH..b * BATCH + batch.len()];
        if deadline.expired()
            || msbfs_batch(h, batch, &mut scratch, deadline, &mut ticks, Some(out)).is_none()
        {
            scratch.flush_counters();
            hgobs::counter!("msbfs.batches", batches);
            return Err(deadline.exceeded("msbfs", batches));
        }
        tp.add_work(batch.len() as u64);
        batches += 1;
    }
    scratch.flush_counters();
    hgobs::counter!("msbfs.batches", batches);
    Ok(ecc)
}

/// Final statistics from merged batch partials.
pub fn stats_from_acc(acc: BatchStats) -> HyperDistanceStats {
    HyperDistanceStats {
        diameter: acc.diameter,
        average_path_length: if acc.pairs == 0 {
            0.0
        } else {
            acc.total as f64 / acc.pairs as f64
        },
        reachable_pairs: acc.pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{
        hyper_distances, scalar_hyper_distance_stats, scalar_hyper_distance_stats_from,
    };
    use crate::HypergraphBuilder;
    use std::time::Duration;

    fn chain() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        b.build()
    }

    /// Ring of `n` size-3 edges {i, i+1, i+7} (mod n) — more sources
    /// than one batch, non-trivial diameter.
    fn big_ring(n: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge([i, (i + 1) % n, (i + 7) % n]);
        }
        b.build()
    }

    #[test]
    fn matches_scalar_on_chain() {
        let h = chain();
        assert_eq!(hyper_distance_stats(&h), scalar_hyper_distance_stats(&h));
    }

    #[test]
    fn matches_scalar_across_batch_boundary() {
        // 600 sources = 3 batches (256+256+88).
        let h = big_ring(600);
        assert_eq!(hyper_distance_stats(&h), scalar_hyper_distance_stats(&h));
    }

    #[test]
    fn subset_of_sources_matches_scalar() {
        let h = big_ring(100);
        let some: Vec<VertexId> = (0..70).map(VertexId).collect();
        assert_eq!(
            hyper_distance_stats_from(&h, &some),
            scalar_hyper_distance_stats_from(&h, &some)
        );
    }

    #[test]
    fn duplicate_sources_count_like_scalar() {
        let h = chain();
        let dup = [VertexId(0), VertexId(0), VertexId(2)];
        assert_eq!(
            hyper_distance_stats_from(&h, &dup),
            scalar_hyper_distance_stats_from(&h, &dup)
        );
    }

    #[test]
    fn disconnected_empty_and_single_vertex() {
        // Disconnected: two components plus an isolated vertex.
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1]);
        b.add_edge([2, 3]);
        let h = b.build();
        assert_eq!(hyper_distance_stats(&h), scalar_hyper_distance_stats(&h));

        let empty = HypergraphBuilder::new(0).build();
        let s = hyper_distance_stats(&empty);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.reachable_pairs, 0);

        let single = HypergraphBuilder::new(1).build();
        assert_eq!(
            hyper_distance_stats(&single),
            scalar_hyper_distance_stats(&single)
        );
    }

    #[test]
    fn dirty_scratch_after_abort_still_matches_scalar() {
        // A deadline abort mid-pass leaves the masks half-consumed; the
        // clean flag must force the next batch to re-zero everything.
        let h = big_ring(600);
        let mut scratch = MsBfsScratch::new(&h);
        let mut ticks = 0u32;
        let sources: Vec<VertexId> = h.vertices().collect();
        let gone = Deadline::after(Duration::ZERO);
        let mut aborted = false;
        for batch in sources.chunks(BATCH) {
            aborted |= msbfs_batch(&h, batch, &mut scratch, &gone, &mut ticks, None).is_none();
        }
        assert!(aborted, "zero budget must abort at least one batch");
        // Reuse the same (possibly poisoned) scratch for a full sweep.
        let mut acc = BatchStats::default();
        for batch in sources.chunks(BATCH) {
            let b = msbfs_batch(&h, batch, &mut scratch, &Deadline::none(), &mut ticks, None)
                .expect("unlimited deadline");
            acc.merge(&b);
        }
        assert_eq!(stats_from_acc(acc), scalar_hyper_distance_stats(&h));
    }

    #[test]
    fn scratch_reuse_across_batches_is_clean() {
        // Back-to-back batches on one scratch must not leak frontier
        // state: identical to a fresh-scratch-per-batch run.
        let h = big_ring(600);
        let sources: Vec<VertexId> = h.vertices().collect();
        let mut shared = MsBfsScratch::new(&h);
        let mut ticks = 0u32;
        let mut with_shared = BatchStats::default();
        let mut with_fresh = BatchStats::default();
        for batch in sources.chunks(BATCH) {
            let b =
                msbfs_batch(&h, batch, &mut shared, &Deadline::none(), &mut ticks, None).unwrap();
            with_shared.merge(&b);
            let mut fresh = MsBfsScratch::new(&h);
            let b =
                msbfs_batch(&h, batch, &mut fresh, &Deadline::none(), &mut ticks, None).unwrap();
            with_fresh.merge(&b);
        }
        assert_eq!(with_shared, with_fresh);
    }

    #[test]
    fn eccentricities_match_per_source_bfs() {
        let h = big_ring(150);
        let sources: Vec<VertexId> = h.vertices().collect();
        let ecc = msbfs_eccentricities(&h, &sources);
        for (i, &s) in sources.iter().enumerate() {
            let expect = hyper_distances(&h, s)
                .into_iter()
                .filter(|&d| d != crate::path::UNREACHABLE)
                .max()
                .unwrap_or(0);
            assert_eq!(ecc[i], expect, "source {s:?}");
        }
    }

    #[test]
    fn eccentricity_of_isolated_vertex_is_zero() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([0, 1]);
        let h = b.build();
        assert_eq!(msbfs_eccentricities(&h, &[VertexId(2)]), vec![0]);
    }

    #[test]
    fn pre_expired_deadline_reports_zero_batches() {
        let h = big_ring(300);
        let dl = Deadline::after(Duration::ZERO);
        let err = hyper_distance_stats_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "msbfs");
        assert_eq!(err.work_done, 0, "{err:?}");
        let err = msbfs_eccentricities_with(&h, &[VertexId(0)], &dl).unwrap_err();
        assert_eq!(err.phase, "msbfs");
    }

    #[test]
    fn expired_sweep_still_records_partial_trace_events() {
        // A request that times out mid-kernel must still surface the
        // batches it attempted: the phase guard opens before the
        // boundary expiry check and records on drop, so the trace shows
        // where the budget went even on the 504 path.
        let h = big_ring(300);
        let trace = hgobs::TraceCtx::new(42);
        let dl = Deadline::after(Duration::ZERO).with_trace(trace.clone());
        assert!(hyper_distance_stats_with(&h, &dl).is_err());
        let events = trace.events();
        assert!(!events.is_empty(), "partial trace must not be empty");
        assert!(
            events.iter().all(|e| e.phase == "msbfs.batch"),
            "{events:?}"
        );
        // The aborted batch completed no sources.
        assert_eq!(events.iter().map(|e| e.work).sum::<u64>(), 0);
    }

    #[test]
    fn unlimited_deadline_matches_plain_variant() {
        let h = big_ring(130);
        assert_eq!(
            hyper_distance_stats(&h),
            hyper_distance_stats_with(&h, &Deadline::none()).unwrap()
        );
    }

    #[test]
    fn deadline_can_fire_mid_sweep_with_partial_batch_count() {
        // Enough vertices for many batches; walk the budget up until a
        // stop lands mid-sweep (or the box finishes inside the budget,
        // which the pre-expired test covers).
        let h = big_ring(6000);
        let nb = 6000u64.div_ceil(BATCH as u64);
        for ms in [1u64, 2, 4, 8, 16, 32, 64] {
            match hyper_distance_stats_with(&h, &Deadline::after_ms(ms)) {
                Err(err) => {
                    assert_eq!(err.phase, "msbfs");
                    assert!(err.work_done < nb, "{err:?}");
                    if err.work_done > 0 {
                        return;
                    }
                }
                Ok(_) => return,
            }
        }
    }
}
