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
//! on the spot.
//!
//! Results are bit-identical to the scalar oracle
//! ([`crate::path::scalar_hyper_distance_stats`]): both count BFS levels
//! of the bipartite expansion, and the accumulators are integers (`u64`
//! pair counts, `u128` distance total), so the sum is independent of
//! accumulation order and even the `f64` average is reproduced exactly.
//!
//! # One sweep at any width
//!
//! One batch loop drives the kernel. It hands the batches to
//! `min(width, batches)` workers of the [`crate::scoped`] splitter — the
//! calling thread plus scoped helpers — each with its own scratch leased
//! from a cross-call arena, and merges their integer partials. The
//! public entry points are two widths of it: [`hyper_distance_stats`]
//! runs on the calling thread, and [`par_msbfs_distance_stats`] on
//! [`split_width`](crate::scoped::split_width) workers, which hgserve
//! uses for datasets of at least `par_threshold` vertices (below that
//! the helper spawns cost more than the split saves).
//!
//! Every sweep has a `*_with` variant taking an [`hgobs::Deadline`] with
//! the same amortized-tick contract as the scalar sweeps. Every worker
//! checks the one shared token at each batch boundary and through the
//! amortized in-kernel tick; the first check that trips the budget
//! latches its cancel flag, which the other workers see on their next
//! check. Expiry surfaces phase `"msbfs"` and the number of *batches*
//! fully completed across all workers.

use std::sync::{Mutex, MutexGuard};

use hgobs::{Deadline, DeadlineExceeded};

use crate::bitset;
use crate::hypergraph::{EdgeId, Hypergraph, VertexId};
use crate::path::HyperDistanceStats;
use crate::scoped;

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
    /// per hyperedge, plus the 1/64-size summaries); what one sweep
    /// worker costs to equip.
    pub(crate) fn bytes(&self) -> usize {
        (self.vlanes.len() + self.elanes.len()) * std::mem::size_of::<bitset::Lane>()
            + (self.vsum.len() + self.esum.len() + self.vunsat.len() + self.eunsat.len())
                * std::mem::size_of::<u64>()
    }

    /// `true` when this scratch was sized for a hypergraph of `h`'s
    /// dimensions and can run batches over it.
    pub(crate) fn fits(&self, h: &Hypergraph) -> bool {
        self.vlanes.len() == h.num_vertices() && self.elanes.len() == h.num_edges()
    }

    /// Flush the accumulated sparsity telemetry into the global
    /// counters: `msbfs.sweep.sparse_passes`, `msbfs.sweep.dense_passes`
    /// and `msbfs.sweep.words_skipped` (all-zero summary words skipped
    /// without touching their 64 mask words). The sweep calls this once
    /// per worker; callers driving [`msbfs_batch`] directly may call it
    /// whenever a scrape boundary makes sense.
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
/// accumulating pair statistics. Returns `None` when the deadline fires
/// mid-traversal; `ticks` is the caller's amortized tick counter,
/// shared across batches so the clock is read every
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
/// If `batch.len() > BATCH`.
pub fn msbfs_batch(
    h: &Hypergraph,
    batch: &[VertexId],
    scratch: &mut MsBfsScratch,
    deadline: &Deadline,
    ticks: &mut u32,
) -> Option<BatchStats> {
    assert!(batch.len() <= BATCH, "batch wider than the u64 masks");
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
        }
    }
    // Both passes consumed everything they read, so the frontier masks
    // and summaries are all-zero again: the next batch may skip them.
    *clean = true;
    Some(stats)
}

/// Exact vertex-pair distance statistics (paper §2) by MS-BFS from every
/// vertex, on the calling thread. Bit-identical to the per-source oracle
/// [`crate::path::scalar_hyper_distance_stats`], with a fraction of its
/// memory traffic.
pub fn hyper_distance_stats(h: &Hypergraph) -> HyperDistanceStats {
    unlimited(hyper_distance_stats_with(h, &Deadline::none()))
}

/// [`hyper_distance_stats`] under a cooperative [`Deadline`]. On expiry
/// the error carries phase `"msbfs"` and counts batches (of up to
/// [`BATCH`] sources) fully completed.
pub fn hyper_distance_stats_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let sources: Vec<VertexId> = h.vertices().collect();
    sweep(h, &sources, deadline, 1)
}

/// [`hyper_distance_stats`] with the batches split over
/// [`split_width`](scoped::split_width) workers, the calling thread
/// included.
pub fn par_msbfs_distance_stats(h: &Hypergraph) -> HyperDistanceStats {
    unlimited(par_msbfs_distance_stats_with(h, &Deadline::none()))
}

/// [`par_msbfs_distance_stats`] under a cooperative [`Deadline`] shared
/// by every worker; the same expiry phase and batch count as
/// [`hyper_distance_stats_with`].
pub fn par_msbfs_distance_stats_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let sources: Vec<VertexId> = h.vertices().collect();
    sweep(h, &sources, deadline, scoped::split_width())
}

fn unlimited(stats: Result<HyperDistanceStats, DeadlineExceeded>) -> HyperDistanceStats {
    match stats {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// Cross-call scratch pool: every sweep parks its workers'
/// [`MsBfsScratch`] buffers here, and the next sweep over a hypergraph
/// of the same dimensions leases them back instead of allocating and
/// zeroing a 64-byte lane per vertex and hyperedge again (the A7
/// telemetry showed allocation is the tax batch parallelism pays).
/// Entries whose dimensions no longer fit are left for other datasets.
/// The pool holds its entries oldest first and is capped, so a burst of
/// differently-sized requests cannot hoard memory.
static SCRATCH_ARENA: Mutex<Vec<MsBfsScratch>> = Mutex::new(Vec::new());

/// Upper bound on parked scratches — enough for the workers of the
/// concurrent sweeps on the core counts this engine targets. A full
/// pool drops its oldest entry for each new one, so dimensions no sweep
/// asks for any more age out after this many newer parks.
const SCRATCH_ARENA_CAP: usize = 16;

/// The locked pool. A poisoned lock still hands it out: a parked
/// scratch is only buffers, and a dirty one is re-zeroed on its next
/// batch.
fn arena() -> MutexGuard<'static, Vec<MsBfsScratch>> {
    SCRATCH_ARENA.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lease a scratch sized for `h`: reuse a parked one when the
/// dimensions match (`msbfs.scratch_reused`), otherwise allocate
/// (`msbfs.scratch_allocs` / `msbfs.scratch_bytes`).
fn lease_scratch(h: &Hypergraph) -> MsBfsScratch {
    if let Some(sc) = take_fitting(&mut arena(), h) {
        hgobs::counter!("msbfs.scratch_reused");
        return sc;
    }
    let sc = MsBfsScratch::new(h);
    hgobs::counter!("msbfs.scratch_allocs");
    hgobs::counter!("msbfs.scratch_bytes", sc.bytes() as u64);
    sc
}

/// Park a worker's scratch for the next sweep. An aborted batch may
/// leave it dirty; its `clean` flag makes the next lease zero it again.
fn release_scratch(sc: MsBfsScratch) {
    park(&mut arena(), sc);
}

/// Remove the oldest parked scratch that fits `h`, keeping the rest in
/// parking order.
fn take_fitting(pool: &mut Vec<MsBfsScratch>, h: &Hypergraph) -> Option<MsBfsScratch> {
    let pos = pool.iter().position(|sc| sc.fits(h))?;
    Some(pool.remove(pos))
}

/// Park `sc` as the newest entry, dropping the oldest when the pool is
/// full.
fn park(pool: &mut Vec<MsBfsScratch>, sc: MsBfsScratch) {
    if pool.len() == SCRATCH_ARENA_CAP {
        pool.remove(0);
    }
    pool.push(sc);
}

/// The one batch loop: MS-BFS from every entry of `sources` (a repeated
/// source counts its pairs once per occurrence, as in the scalar
/// oracle), in batches of up to [`BATCH`] claimed by
/// `min(width, batches)` workers of [`scoped::split`]. Each worker
/// leases its own scratch at its first batch and keeps its own
/// amortized tick counter, so workers never contend on traversal state;
/// only the batch cursor and the deadline's cancel latch are shared.
///
/// The `msbfs.batches` and `bfs.sources` counters report the batches
/// and sources fully completed, on the success and expiry paths alike;
/// on expiry the error carries phase `"msbfs"` and that batch count.
fn sweep(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
    width: usize,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let batches: Vec<&[VertexId]> = sources.chunks(BATCH).collect();
    let shares = scoped::split(width, batches.len(), |_, claims| {
        let mut scratch: Option<MsBfsScratch> = None;
        let mut ticks = 0u32;
        let mut acc = BatchStats::default();
        let (mut done, mut swept, mut expired) = (0u64, 0u64, false);
        for i in claims {
            // The phase guard opens before the boundary check so a trace
            // of an expired request still shows the batch that noticed.
            let mut tp = deadline.trace().phase("msbfs.batch");
            // Batch-boundary check: one clock read per batch keeps
            // expiry deterministic on inputs too small for the
            // amortized in-kernel tick to ever fire, and the latch it
            // sets stops the other workers at their next check.
            let stats = if deadline.expired() {
                None
            } else {
                let sc = scratch.get_or_insert_with(|| lease_scratch(h));
                msbfs_batch(h, batches[i], sc, deadline, &mut ticks)
            };
            let Some(b) = stats else {
                expired = true;
                break;
            };
            acc.merge(&b);
            tp.add_work(batches[i].len() as u64);
            done += 1;
            swept += batches[i].len() as u64;
        }
        if let Some(mut sc) = scratch {
            sc.flush_counters();
            release_scratch(sc);
        }
        (acc, done, swept, expired)
    });
    let mut acc = BatchStats::default();
    let (mut done, mut swept, mut expired) = (0u64, 0u64, false);
    for (b, d, s, e) in shares {
        acc.merge(&b);
        done += d;
        swept += s;
        expired |= e;
    }
    hgobs::counter!("msbfs.batches", done);
    hgobs::counter!("bfs.sources", swept);
    if expired {
        return Err(deadline.exceeded("msbfs", done));
    }
    Ok(stats_from_acc(acc))
}

/// Final statistics from merged batch partials.
fn stats_from_acc(acc: BatchStats) -> HyperDistanceStats {
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
    use crate::path::{scalar_hyper_distance_stats, scalar_hyper_distance_stats_from};
    use crate::smallworld::{report_from_distances, small_world_report};
    use crate::testgen::uniform_random_hypergraph;
    use crate::HypergraphBuilder;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

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

    /// Exact equality, the f64 included: every width divides the same
    /// u128 total by the same u64 pair count.
    fn assert_bit_identical(a: HyperDistanceStats, b: HyperDistanceStats) {
        assert_eq!(a, b);
        assert_eq!(
            a.average_path_length.to_bits(),
            b.average_path_length.to_bits()
        );
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
            sweep(&h, &some, &Deadline::none(), 1).unwrap(),
            scalar_hyper_distance_stats_from(&h, &some)
        );
    }

    #[test]
    fn duplicate_sources_count_like_scalar() {
        let h = chain();
        let dup = [VertexId(0), VertexId(0), VertexId(2)];
        assert_eq!(
            sweep(&h, &dup, &Deadline::none(), 1).unwrap(),
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
            aborted |= msbfs_batch(&h, batch, &mut scratch, &gone, &mut ticks).is_none();
        }
        assert!(aborted, "zero budget must abort at least one batch");
        // Reuse the same (possibly poisoned) scratch for a full sweep.
        let mut acc = BatchStats::default();
        for batch in sources.chunks(BATCH) {
            let b = msbfs_batch(&h, batch, &mut scratch, &Deadline::none(), &mut ticks)
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
            let b = msbfs_batch(&h, batch, &mut shared, &Deadline::none(), &mut ticks).unwrap();
            with_shared.merge(&b);
            let mut fresh = MsBfsScratch::new(&h);
            let b = msbfs_batch(&h, batch, &mut fresh, &Deadline::none(), &mut ticks).unwrap();
            with_fresh.merge(&b);
        }
        assert_eq!(with_shared, with_fresh);
    }

    #[test]
    fn pre_expired_deadline_reports_zero_batches() {
        let h = big_ring(300);
        let dl = Deadline::after(Duration::ZERO);
        let err = hyper_distance_stats_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "msbfs");
        assert_eq!(err.work_done, 0, "{err:?}");
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

    #[test]
    fn matches_sequential_msbfs_and_scalar_oracle() {
        // 700 vertices = 3 batches, so width 2 runs two workers.
        for seed in 0..3u64 {
            let h = uniform_random_hypergraph(700, 520, 4, seed);
            let sources: Vec<VertexId> = h.vertices().collect();
            let oracle = scalar_hyper_distance_stats(&h);
            assert_eq!(par_msbfs_distance_stats(&h), hyper_distance_stats(&h));
            for width in [1, 2, 3] {
                let par = sweep(&h, &sources, &Deadline::none(), width).unwrap();
                assert_bit_identical(par, oracle);
            }
        }
    }

    fn arb_hypergraph(
        max_v: usize,
        max_e: usize,
        max_size: usize,
    ) -> impl Strategy<Value = Hypergraph> {
        (1..=max_v).prop_flat_map(move |n| {
            proptest::collection::vec(
                proptest::collection::vec(0..n as u32, 0..=max_size),
                0..=max_e,
            )
            .prop_map(move |edges| {
                let mut b = HypergraphBuilder::new(n);
                for e in edges {
                    b.add_edge(e);
                }
                b.build()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Width 2 == scalar oracle, bit for bit, on the random shapes of
        /// `tests/msbfs_equivalence.rs` (disconnected, isolated vertices,
        /// duplicate and empty hyperedges). The sources cycle through the
        /// vertices until they fill three batches, so two workers claim
        /// batches even on tiny inputs.
        #[test]
        fn width_two_bit_identical_to_scalar(h in arb_hypergraph(90, 40, 6)) {
            let sources: Vec<VertexId> = h.vertices().cycle().take(3 * BATCH).collect();
            let par = sweep(&h, &sources, &Deadline::none(), 2).unwrap();
            assert_bit_identical(par, scalar_hyper_distance_stats_from(&h, &sources));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sweeps from a prefix of the vertices agree too, at both widths.
        #[test]
        fn subset_sources_bit_identical(
            (h, take) in arb_hypergraph(70, 30, 5)
                .prop_flat_map(|h| {
                    let n = h.num_vertices();
                    (Just(h), 0..=n)
                })
        ) {
            let sources: Vec<VertexId> = (0..take as u32).map(VertexId).collect();
            let oracle = scalar_hyper_distance_stats_from(&h, &sources);
            for width in [1, 2] {
                prop_assert_eq!(oracle, sweep(&h, &sources, &Deadline::none(), width).unwrap());
            }
        }
    }

    #[test]
    fn matches_default_engine_on_multi_batch_input() {
        // 600 vertices = 3 batches: exercises the merge across workers.
        let mut b = HypergraphBuilder::new(600);
        for i in 0..599u32 {
            b.add_edge([i, i + 1]);
        }
        let h = b.build();
        assert_eq!(par_msbfs_distance_stats(&h), hyper_distance_stats(&h));
    }

    #[test]
    fn empty_and_subset_sources() {
        let h = HypergraphBuilder::new(0).build();
        assert_eq!(par_msbfs_distance_stats(&h).reachable_pairs, 0);

        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3, 4]);
        let h = b.build();
        let some = [VertexId(0), VertexId(4)];
        assert_eq!(
            sweep(&h, &some, &Deadline::none(), 2).unwrap(),
            scalar_hyper_distance_stats_from(&h, &some)
        );
    }

    #[test]
    fn cancelled_deadline_stops_with_zero_batches() {
        let h = uniform_random_hypergraph(2000, 1500, 5, 3);
        let sources: Vec<VertexId> = h.vertices().collect();
        let dl = Deadline::cancellable();
        dl.cancel();
        for width in [1, 2] {
            let err = sweep(&h, &sources, &dl, width).unwrap_err();
            assert_eq!(err.phase, "msbfs");
            assert_eq!(err.work_done, 0, "{err:?}");
        }
    }

    #[test]
    fn tiny_budget_stops_parallel_sweep_early() {
        let h = uniform_random_hypergraph(6000, 4800, 5, 11);
        let sources: Vec<VertexId> = h.vertices().collect();
        for width in [1, 2] {
            match sweep(&h, &sources, &Deadline::after_ms(1), width) {
                Err(err) => {
                    assert_eq!(err.phase, "msbfs");
                    assert!(
                        (err.work_done as usize) < 6000_usize.div_ceil(BATCH),
                        "{err:?}"
                    );
                }
                // A machine fast enough to finish inside 1ms just proves
                // the Ok path; the cancelled test covers expiry.
                Ok(stats) => assert_eq!(stats, par_msbfs_distance_stats(&h)),
            }
        }
    }

    #[test]
    fn width_two_expiry_mid_sweep_stops_both_workers_promptly() {
        // 24 batches. A watcher cancels the shared token once the trace
        // shows a finished batch, so expiry lands mid-sweep at any host
        // speed; both workers must then stop inside the batch they are
        // in rather than finish their share of the sweep.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        let sources: Vec<VertexId> = h.vertices().collect();
        let total = sources.len().div_ceil(BATCH) as u64;
        let trace = hgobs::TraceCtx::new(1);
        let dl = Deadline::cancellable().with_trace(trace.clone());
        let (result, batch, cancelled_at, returned_at) = std::thread::scope(|s| {
            let watcher = s.spawn(|| loop {
                if let Some(e) = trace.events().into_iter().find(|e| e.work > 0) {
                    let at = Instant::now();
                    dl.cancel();
                    return (e, at);
                }
                std::thread::yield_now();
            });
            let result = sweep(&h, &sources, &dl, 2);
            let returned_at = Instant::now();
            let (batch, cancelled_at) = watcher.join().unwrap();
            (result, batch, cancelled_at, returned_at)
        });
        let err = result.unwrap_err();
        assert_eq!(err.phase, "msbfs");
        assert!(err.work_done >= 1 && err.work_done < total, "{err:?}");
        // Finishing the two shares would take about (total - 1) / 2 = 11
        // batch times; stopping at the next tick takes a few percent of
        // one, and the bound leaves room for a loaded test host.
        let batch_time = Duration::from_micros(batch.end_us - batch.start_us);
        let stop = returned_at.saturating_duration_since(cancelled_at);
        assert!(
            stop < batch_time * 4,
            "stopped {stop:?} after cancel, batch {batch_time:?}"
        );
    }

    #[test]
    fn concurrent_requests_keep_traces_isolated() {
        // Two "requests" run the two-worker sweep at the same time, each
        // with its own TraceCtx riding its own deadline. Their workers
        // run side by side on the same cores, but each event list must
        // see exactly its own run.
        let h = uniform_random_hypergraph(500, 400, 4, 5);
        let sources: Vec<VertexId> = h.vertices().collect();
        let expected_batches = 500usize.div_ceil(BATCH);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2u64)
                .map(|id| {
                    let (h, sources) = (&h, &sources);
                    s.spawn(move || {
                        let trace = hgobs::TraceCtx::new(id);
                        let dl = Deadline::none().with_trace(trace.clone());
                        let stats = sweep(h, sources, &dl, 2).unwrap();
                        (trace, stats)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (trace, _) in &results {
            let events = trace.events();
            assert_eq!(events.len(), expected_batches, "{events:?}");
            assert!(events.iter().all(|e| e.phase == "msbfs.batch"));
            assert_eq!(events.iter().map(|e| e.work).sum::<u64>(), 500);
        }
        assert_eq!(results[0].1, results[1].1);
    }

    #[test]
    fn scratch_arena_leases_fitting_buffers_only() {
        let h1 = uniform_random_hypergraph(50, 40, 3, 1);
        let h2 = uniform_random_hypergraph(80, 10, 3, 1);
        let sc = lease_scratch(&h1);
        assert!(sc.fits(&h1) && !sc.fits(&h2));
        release_scratch(sc);
        // A parked scratch of the right dimensions comes back; asking
        // for different dimensions allocates instead of mis-leasing.
        assert!(lease_scratch(&h1).fits(&h1));
        assert!(lease_scratch(&h2).fits(&h2));
    }

    #[test]
    fn full_arena_drops_its_oldest_scratch() {
        // One more shape than the pool holds, parked oldest first: the
        // first shape is dropped and the newest comes back on lease.
        let shapes: Vec<Hypergraph> = (1..=SCRATCH_ARENA_CAP + 1)
            .map(|n| HypergraphBuilder::new(n).build())
            .collect();
        let mut pool = Vec::new();
        for h in &shapes {
            park(&mut pool, MsBfsScratch::new(h));
        }
        assert_eq!(pool.len(), SCRATCH_ARENA_CAP);
        assert!(take_fitting(&mut pool, &shapes[0]).is_none());
        let newest = shapes.last().unwrap();
        let parked = pool.last().unwrap().vlanes.as_ptr();
        let leased = take_fitting(&mut pool, newest).expect("newest shape is parked");
        assert_eq!(leased.vlanes.as_ptr(), parked);
        assert_eq!(pool.len(), SCRATCH_ARENA_CAP - 1);
    }

    #[test]
    fn repeated_sweeps_reuse_the_pool_and_stay_correct() {
        // Sweep twice so the second run leases the first run's parked
        // (possibly dirty) buffers; results must be identical to the
        // serial engine both times.
        let h = uniform_random_hypergraph(300, 220, 4, 9);
        let a = par_msbfs_distance_stats(&h);
        let b = par_msbfs_distance_stats(&h);
        assert_eq!(a, b);
        assert_eq!(a, hyper_distance_stats(&h));
    }

    #[test]
    fn small_world_report_matches_sequential() {
        let h = uniform_random_hypergraph(120, 90, 4, 7);
        let par = report_from_distances(&h, par_msbfs_distance_stats(&h));
        assert_eq!(par, small_world_report(&h));
    }
}
