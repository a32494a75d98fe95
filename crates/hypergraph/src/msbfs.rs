//! Batched multi-source BFS (MS-BFS) over the alternating vertex /
//! hyperedge expansion.
//!
//! The all-pairs sweeps behind the paper's diameter-6 / APL-2.568 claim
//! run one BFS per source, so every source pays the full CSR scan on its
//! own. MS-BFS batches up to [`BATCH`] = 256 sources into one
//! traversal: each vertex and each hyperedge carries one 64-byte lane,
//! a 256-bit "seen" mask (bit `i` set once source `i` has reached it)
//! beside a 256-bit frontier mask for the current level.
//! One pass over the CSR arrays then advances all 256 frontiers at
//! once — the adjacency and pin lists are streamed once per *batch*
//! instead of once per *source*, cutting memory traffic by up to 256×
//! on exactly the kernels hgserve exposes under deadlines.
//!
//! # One level, two passes
//!
//! Vertices and hyperedges are the two *sides* of the expansion. One
//! private routine moves one side's frontier into the other side, and
//! each level calls it twice, with no settle pass in between:
//!
//! 1. **vertex → hyperedge**: every frontier vertex hands its mask to
//!    the incident hyperedges it has not traversed yet, zeroing its own
//!    frontier mask as it is expanded;
//! 2. **hyperedge → vertex**: every entered hyperedge hands its mask to
//!    its unseen pins, writing the *next* frontier directly into the
//!    (now empty) vertex frontier. Only this pass counts the newly
//!    reached (source, vertex) pairs, into the accumulators on the spot.
//!
//! Each side keeps a word-level summary of its frontier: bit `v` of the
//! summary is set exactly when frontier mask `v` is nonzero. A pass drains the frontier by walking
//! the set summary bits, so it touches only active lanes and skips 64
//! idle ones per all-zero summary word.
//!
//! # Push or pull, by probe cost
//!
//! Each pass runs in one of two directions. *Push* drains the frontier
//! and writes every drained mask into the neighbors' lanes; *pull*
//! walks the entries still missing a source of the batch (the
//! *unsaturated* ones, kept in a summary of their own) and ORs in
//! their neighbors' frontier masks. A push probe is a read-modify-write
//! of a random 64-byte lane plus two summary-word updates; a pull probe
//! is one 32-byte load. So a pass pulls when its estimated pull probes
//! are below α × its estimated push probes, the cost argument of
//! direction-optimizing BFS (Beamer, Asanović & Patterson, SC 2012).
//! α comes from measured per-probe costs and sweep times (EXPERIMENTS
//! A17): 3 for vertex → hyperedge, and 2 for hyperedge → vertex, whose
//! pulls also pay a lane update per vertex, spread over few probes on
//! low-degree inputs such as the protein data. The rule does not wait
//! for saturation: a batch whose sources span two components (the
//! batch where one component's sources end and the next one's begin,
//! in the source order below) never saturates a lane, yet pulls once
//! its frontier is dense. Pull passes are counted as
//! `msbfs.sweep.pull_passes`.
//!
//! # Source order
//!
//! The sweep does not take its sources in file order. One BFS over the
//! CSR, seeded in id order, lists every vertex of nonzero degree in
//! discovery order (trace phase `msbfs.order`), and the batches are cut
//! from that list. Sources one BFS discovers together reach the same
//! vertices at the same levels, so their lanes fill and saturate
//! together — the reason bit-parallel BFS starts a root together with
//! its neighbours (Akiba, Iwata & Yoshida, SIGMOD 2013). Each component
//! comes out contiguous, so only a batch at a component boundary spans
//! two. An isolated vertex reaches no vertex but itself, at distance 0,
//! which no accumulator counts; it is left out, and `bfs.sources`
//! counts the list swept.
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
//! public entry points build the source order on the calling thread
//! and then run two widths of it: [`hyper_distance_stats`]
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
//! check. The order builder ticks the same token once per vertex it
//! dequeues. Expiry surfaces phase `"msbfs"` and the number of
//! *batches* fully completed across all workers (0 while the order is
//! still being built).

use std::sync::{Mutex, MutexGuard};

use hgobs::{Deadline, DeadlineExceeded};

use crate::bitset::{self, Lane, Mask};
use crate::hypergraph::{Hypergraph, VertexId};
use crate::path::HyperDistanceStats;
use crate::scoped;

/// Sources advanced per traversal: the bit width of one lane mask. One
/// 64-byte lane per vertex/hyperedge means a random expansion probe
/// still costs a single cache line while amortizing the CSR scan — and
/// every probe's memory latency — across 256 sources at once.
pub const BATCH: usize = bitset::LANE_BITS;

/// One side of the expansion — the vertices or the hyperedges — as a
/// batch sees it.
struct Side {
    /// Per-entry interleaved (seen, frontier) masks: one random cache
    /// line per expansion probe instead of two.
    lanes: Vec<Lane>,
    /// Summary of the frontier: bit `i` set ⟺ `lanes[i].front != 0`.
    front: Vec<u64>,
    /// Bit `i` set while `lanes[i].seen` is still missing some source
    /// of the batch — the pull direction's worklist.
    unsat: Vec<u64>,
}

impl Side {
    fn new(len: usize) -> Self {
        Side {
            lanes: vec![Lane::ZERO; len],
            front: vec![0; bitset::words_for(len)],
            unsat: vec![0; bitset::words_for(len)],
        }
    }

    fn bytes(&self) -> usize {
        self.lanes.len() * std::mem::size_of::<Lane>()
            + (self.front.len() + self.unsat.len()) * std::mem::size_of::<u64>()
    }

    /// Ready the side for a fresh batch: nothing seen, an empty
    /// frontier, every entry unsaturated. Zeroing the frontier summary
    /// too (1/512 the size of the lanes) means a batch a deadline
    /// aborted mid-pass leaves nothing behind.
    fn reset(&mut self) {
        self.lanes.fill(Lane::ZERO);
        self.front.fill(0);
        bitset::fill_all(&mut self.unsat, self.lanes.len());
    }
}

/// Reusable per-traversal buffers, one allocation per sweep worker.
struct MsBfsScratch {
    /// Vertex lanes hold (seen, frontier) masks.
    v: Side,
    /// Hyperedge lanes hold (traversed, entered-this-level) masks.
    e: Side,
    /// Passes run in the pull direction since the last flush.
    pull_passes: u64,
}

impl MsBfsScratch {
    /// Allocate scratch sized for `h`.
    fn new(h: &Hypergraph) -> Self {
        MsBfsScratch {
            v: Side::new(h.num_vertices()),
            e: Side::new(h.num_edges()),
            pull_passes: 0,
        }
    }

    /// Bytes held by the mask buffers (one 64-byte lane per vertex and
    /// per hyperedge, plus the 1/64-size summaries); what one sweep
    /// worker costs to equip.
    fn bytes(&self) -> usize {
        self.v.bytes() + self.e.bytes()
    }

    /// `true` when this scratch was sized for a hypergraph of `h`'s
    /// dimensions and can run batches over it.
    fn fits(&self, h: &Hypergraph) -> bool {
        self.v.lanes.len() == h.num_vertices() && self.e.lanes.len() == h.num_edges()
    }

    /// Flush the pull tally into the global counter
    /// `msbfs.sweep.pull_passes`; the sweep calls this once per worker.
    fn flush_counters(&mut self) {
        let pulls = std::mem::take(&mut self.pull_passes);
        if pulls != 0 {
            hgobs::counter!("msbfs.sweep.pull_passes", pulls);
        }
    }
}

/// Distance-statistic partials of one batch, mergeable across batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BatchStats {
    /// Largest finite distance discovered by this batch.
    diameter: u32,
    /// Sum of finite distances over the batch's (source, vertex) pairs.
    total: u128,
    /// Number of reachable ordered pairs discovered by this batch.
    pairs: u64,
}

impl BatchStats {
    /// Fold another batch's partials into this one.
    fn merge(&mut self, other: &BatchStats) {
        self.diameter = self.diameter.max(other.diameter);
        self.total += other.total;
        self.pairs += other.pairs;
    }
}

/// α of the vertex → hyperedge pass: one push probe costs about as
/// much as this many pull probes.
const ALPHA_V2E: u128 = 3;

/// α of the hyperedge → vertex pass.
const ALPHA_E2V: u128 = 2;

/// The per-pass direction rule: `true` when pulling into the `unsat`
/// of `unsat_len` targets costs less than pushing from the `active` of
/// `active_len` sources, with a push probe weighted `alpha` pull
/// probes. A pass over `p` pins makes about `active × p / active_len`
/// push probes and `unsat × p / unsat_len` pull probes, so the rule
/// compares the cross products; `u128` keeps the weighted product exact
/// for lengths up to `u32::MAX`.
#[inline]
fn pull_is_cheaper(
    unsat: u64,
    unsat_len: usize,
    active: u64,
    active_len: usize,
    alpha: u128,
) -> bool {
    let pull = unsat as u128 * active_len as u128;
    pull < alpha * active as u128 * unsat_len as u128
}

/// What both passes of one batch share: the mask of a saturated lane,
/// the deadline with the caller's amortized tick counter, and the
/// scratch's pull tally.
struct Walk<'a> {
    full: Mask,
    deadline: &'a Deadline,
    ticks: &'a mut u32,
    pull_passes: &'a mut u64,
}

impl Walk<'_> {
    /// One pass of a level: move `from`'s frontier into `to`, in
    /// whichever direction [`pull_is_cheaper`] picks with a push probe
    /// weighing `alpha` pull probes. `out(i)` lists the `to` entries next
    /// to `from` entry `i`, and `into(j)` the `from` entries next to `to`
    /// entry `j`.
    ///
    /// * **push** drains the frontier, writing each mask into the
    ///   neighbors' lanes (best while the frontier is small);
    /// * **pull** walks the unsaturated `to` entries and gathers their
    ///   neighbors' frontier masks with pure loads, skipping saturated
    ///   entries outright (best once the frontier is dense, where push
    ///   would read-modify-write most lanes), then drains the frontier
    ///   it read.
    ///
    /// Both consume `from`'s frontier and deliver the same fresh bits
    /// into `to`. Returns the (source, entry) pairs newly reached in `to`
    /// when `COUNT` (0 otherwise), or `None` when the deadline fires.
    #[inline(always)]
    fn pass<const COUNT: bool, O, I>(
        &mut self,
        from: &mut Side,
        to: &mut Side,
        out: impl Fn(usize) -> O,
        into: impl Fn(usize) -> I,
        alpha: u128,
    ) -> Option<u64>
    where
        O: Iterator<Item = usize>,
        I: Iterator<Item = usize>,
    {
        let full = self.full;
        let active = bitset::count_bits(&from.front);
        let unsat = bitset::count_bits(&to.unsat);
        let mut reached = 0u64;
        if !pull_is_cheaper(unsat, to.lanes.len(), active, from.lanes.len(), alpha) {
            // Push. The loop body is branchless on purpose: `add` is
            // often zero mid-sweep and an `if add != 0` there mispredicts
            // randomly, flushing the pipeline and serializing the
            // independent cache probes this loop lives or dies by. ORing
            // a zero `add`, shifting a zero summary bit and clearing an
            // already-clear unsat bit are no-ops that cost nothing but
            // keep the loads in flight. `seen` is updated as masks land,
            // so summing `popcount(add)` counts each newly reached pair
            // exactly once no matter how many neighbors deliver it.
            let ok = bitset::drain(&mut from.front, &mut from.lanes, |i, m| {
                if self.deadline.tick(self.ticks) {
                    return false;
                }
                for j in out(i) {
                    let lane = &mut to.lanes[j];
                    let add = lane.fresh(&m);
                    lane.absorb(&add);
                    to.front[j >> 6] |= ((!bitset::mask_is_zero(&add)) as u64) << (j & 63);
                    to.unsat[j >> 6] &= !((lane.saturated(&full) as u64) << (j & 63));
                    if COUNT {
                        reached += bitset::mask_count(&add);
                    }
                }
                true
            });
            return ok.then_some(reached);
        }
        // Pull: the union of the neighbors' frontier masks is the same
        // mask push would have delivered piecewise.
        *self.pull_passes += 1;
        for w in 0..to.unsat.len() {
            let mut bits = to.unsat[w];
            let mut still = bits;
            while bits != 0 {
                let j = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.deadline.tick(self.ticks) {
                    return None;
                }
                let mut gather = bitset::MASK_ZERO;
                for i in into(j) {
                    bitset::mask_or_into(&mut gather, &from.lanes[i].front);
                }
                let lane = &mut to.lanes[j];
                let add = lane.fresh(&gather);
                lane.absorb(&add);
                to.front[w] |= ((!bitset::mask_is_zero(&add)) as u64) << (j & 63);
                still &= !((lane.saturated(&full) as u64) << (j & 63));
                if COUNT {
                    reached += bitset::mask_count(&add);
                }
            }
            to.unsat[w] = still;
        }
        // Consume the frontier the pull read from; this visit never
        // aborts.
        bitset::drain(&mut from.front, &mut from.lanes, |_, _| true);
        Some(reached)
    }
}

/// Advance one batch of at most [`BATCH`] sources to fixpoint,
/// accumulating pair statistics. Returns `None` when the deadline fires
/// mid-traversal; `ticks` is the caller's amortized tick counter,
/// shared across batches so the clock is read every
/// [`hgobs::CHECK_INTERVAL`] expanded vertices/hyperedges regardless of
/// batch size.
///
/// Each level is two [`Walk::pass`]es, vertex → hyperedge and then
/// hyperedge → vertex. The second delivers the next vertex frontier and
/// counts the pairs it reaches, so a level that reaches none ends the
/// batch. Either direction of a pass yields the same per-level set of
/// newly reached (source, vertex) pairs, and the integer accumulators
/// make the statistics independent of discovery order, so the result
/// is bit-identical whichever way each pass runs.
///
/// # Panics
/// If `batch.len() > BATCH`.
fn msbfs_batch(
    h: &Hypergraph,
    batch: &[VertexId],
    scratch: &mut MsBfsScratch,
    deadline: &Deadline,
    ticks: &mut u32,
) -> Option<BatchStats> {
    assert!(
        batch.len() <= BATCH,
        "batch wider than the 256-source lanes"
    );
    if batch.is_empty() {
        return Some(BatchStats::default());
    }
    let MsBfsScratch { v, e, pull_passes } = scratch;
    v.reset();
    e.reset();
    for (i, &s) in batch.iter().enumerate() {
        let lane = &mut v.lanes[s.index()];
        lane.seen[i >> 6] |= 1u64 << (i & 63);
        lane.front[i >> 6] |= 1u64 << (i & 63);
        bitset::mark(&mut v.front, s.index());
    }
    // The CSR once per batch: the closures index the slices directly
    // instead of matching on the storage backing at every probe.
    let (edge_offsets, pin_list, vertex_offsets, adj_list) = h.csr_slices();
    let edges_of = |i: usize| {
        let span = vertex_offsets[i] as usize..vertex_offsets[i + 1] as usize;
        adj_list[span].iter().map(|f| f.index())
    };
    let pins = |j: usize| {
        let span = edge_offsets[j] as usize..edge_offsets[j + 1] as usize;
        pin_list[span].iter().map(|p| p.index())
    };
    let mut walk = Walk {
        // All sources present ⟺ lane saturated; nothing left to deliver.
        full: bitset::mask_full(batch.len()),
        deadline,
        ticks,
        pull_passes,
    };
    let mut stats = BatchStats::default();
    for level in 1u32.. {
        walk.pass::<false, _, _>(v, e, edges_of, pins, ALPHA_V2E)?;
        let reached = walk.pass::<true, _, _>(e, v, pins, edges_of, ALPHA_E2V)?;
        if reached == 0 {
            break;
        }
        stats.diameter = level;
        stats.pairs += reached;
        stats.total += reached as u128 * level as u128;
    }
    Some(stats)
}

/// Every vertex of nonzero degree exactly once, in the discovery order
/// of one BFS over the vertex / hyperedge expansion, seeded in id order:
/// each component comes out contiguous, and the components in the order
/// of their smallest id. Isolated vertices are left out.
///
/// The build ticks `deadline` once per dequeued vertex, and on expiry
/// answers phase `"msbfs"` with 0 work, as the batch loop does before
/// its first batch. One `msbfs.order` trace phase covers it, with the
/// vertices listed as its work (0 on expiry).
fn traversal_order(h: &Hypergraph, deadline: &Deadline) -> Result<Vec<VertexId>, DeadlineExceeded> {
    let mut tp = deadline.trace().phase("msbfs.order");
    let (edge_offsets, pin_list, vertex_offsets, adj_list) = h.csr_slices();
    let n = h.num_vertices();
    let mut seen = vec![false; n];
    let mut entered = vec![false; h.num_edges()];
    // Discovery is branchless: every pin is stored in the next slot and
    // the length advances only if the pin is new. The spare slot takes
    // the stores made once all `n` vertices are listed.
    let mut order = vec![VertexId(0); n + 1];
    let (mut len, mut head, mut ticks) = (0, 0, 0u32);
    for s in 0..n {
        if seen[s] || vertex_offsets[s] == vertex_offsets[s + 1] {
            continue;
        }
        seen[s] = true;
        order[len] = VertexId(s as u32);
        len += 1;
        while head < len {
            if deadline.tick(&mut ticks) {
                return Err(deadline.exceeded("msbfs", 0));
            }
            let v = order[head].index();
            head += 1;
            for &f in &adj_list[vertex_offsets[v] as usize..vertex_offsets[v + 1] as usize] {
                let f = f.index();
                if entered[f] {
                    continue;
                }
                entered[f] = true;
                for &p in &pin_list[edge_offsets[f] as usize..edge_offsets[f + 1] as usize] {
                    order[len] = p;
                    len += !std::mem::replace(&mut seen[p.index()], true) as usize;
                }
            }
        }
    }
    order.truncate(len);
    tp.add_work(len as u64);
    Ok(order)
}

/// Exact vertex-pair distance statistics (paper §2) by MS-BFS from every
/// vertex (an isolated one adds no pair, so the sweep skips it), on the
/// calling thread. Bit-identical to the per-source oracle
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
    let order = traversal_order(h, deadline)?;
    sweep(h, &order, deadline, 1)
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
    let order = traversal_order(h, deadline)?;
    sweep(h, &order, deadline, scoped::split_width())
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
/// leave it dirty; the next batch zeroes it before it starts.
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
    use crate::testgen::{arb_hypergraph, uniform_random_hypergraph};
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
        // next batch must re-zero everything before it starts.
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
        // where the budget went even on the 504 path. 300 vertices are
        // too few for the order builder's amortized tick to read the
        // clock, so the order completes and the first batch boundary
        // notices the expiry.
        let h = big_ring(300);
        let trace = hgobs::TraceCtx::new(42);
        let dl = Deadline::after(Duration::ZERO).with_trace(trace.clone());
        assert!(hyper_distance_stats_with(&h, &dl).is_err());
        let events = trace.events();
        assert!(events.len() >= 2, "partial trace must show both phases");
        assert_eq!((events[0].phase, events[0].work), ("msbfs.order", 300));
        let batches = &events[1..];
        assert!(
            batches.iter().all(|e| e.phase == "msbfs.batch"),
            "{events:?}"
        );
        // The aborted batch completed no sources.
        assert_eq!(batches.iter().map(|e| e.work).sum::<u64>(), 0);
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
    fn pull_engages_on_a_batch_that_never_saturates() {
        // hgperf's u6000 in file order. Its first batch holds 8
        // isolated sources, so no lane ever saturates and every
        // unsaturated entry stays on the pull worklist; the cost rule
        // must still pull once the frontier is dense.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        let batch: Vec<VertexId> = (0..BATCH as u32).map(VertexId).collect();
        let isolated = batch.iter().filter(|&&v| h.vertex_degree(v) == 0);
        assert_eq!(isolated.count(), 8);
        let mut scratch = MsBfsScratch::new(&h);
        let mut ticks = 0u32;
        let b = msbfs_batch(&h, &batch, &mut scratch, &Deadline::none(), &mut ticks).unwrap();
        assert!(scratch.pull_passes > 0, "pull never engaged");
        assert_bit_identical(
            stats_from_acc(b),
            scalar_hyper_distance_stats_from(&h, &batch),
        );
    }

    /// Pull passes of the batches cut from `sources`, all on one scratch.
    fn pull_passes_over(h: &Hypergraph, sources: &[VertexId]) -> u64 {
        let mut scratch = MsBfsScratch::new(h);
        let mut ticks = 0u32;
        for batch in sources.chunks(BATCH) {
            msbfs_batch(h, batch, &mut scratch, &Deadline::none(), &mut ticks).unwrap();
        }
        scratch.pull_passes
    }

    #[test]
    fn pull_passes_pin_the_direction_rule_on_u6000() {
        // hgperf's u6000 in file order, all 24 batches on one scratch.
        // The count moves only if some pass flips direction.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        let sources: Vec<VertexId> = h.vertices().collect();
        assert_eq!(pull_passes_over(&h, &sources), 215);
    }

    #[test]
    fn pull_passes_pin_the_traversal_order_on_u6000() {
        // The 23 batches the public sweeps cut from the traversal order:
        // `hg profile --algo bfs` reads the same 231 pull passes.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        let order = traversal_order(&h, &Deadline::none()).unwrap();
        assert_eq!(pull_passes_over(&h, &order), 231);
    }

    #[test]
    fn u6000_sweeps_its_connected_sources_in_23_batches() {
        // A file-order sweep records 24 batches of 6,000 sources; the
        // traversal order leaves out the 127 isolated vertices. Read
        // from each request's own trace, not from the global counters
        // other tests share.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        let isolated = h.vertices().filter(|&v| h.vertex_degree(v) == 0);
        assert_eq!(isolated.count(), 127);
        let file_order: Vec<VertexId> = h.vertices().collect();
        let oracle = sweep(&h, &file_order, &Deadline::none(), 1).unwrap();
        for par in [false, true] {
            let trace = hgobs::TraceCtx::new(1);
            let dl = Deadline::none().with_trace(trace.clone());
            let stats = if par {
                par_msbfs_distance_stats_with(&h, &dl)
            } else {
                hyper_distance_stats_with(&h, &dl)
            };
            assert_bit_identical(stats.unwrap(), oracle);
            let events = trace.events();
            assert_eq!((events[0].phase, events[0].work), ("msbfs.order", 5873));
            let batches = &events[1..];
            assert!(batches.iter().all(|e| e.phase == "msbfs.batch"));
            assert_eq!(batches.len(), 23, "par {par}");
            assert_eq!(batches.iter().map(|e| e.work).sum::<u64>(), 5873);
        }
    }

    /// One component of `n` vertices: a chain of 2-pin hyperedges.
    fn chain_of(n: u32) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge([i, i + 1]);
        }
        b.build()
    }

    #[test]
    fn cancelled_token_stops_the_order_builder_within_one_interval() {
        // The builder reads the clock at its CHECK_INTERVAL-th dequeue
        // and not before: a cancelled token lets a component of one
        // vertex fewer finish, and stops one of CHECK_INTERVAL vertices
        // or more there, with phase `msbfs` and 0 work.
        let dl = Deadline::cancellable();
        dl.cancel();
        let n = hgobs::CHECK_INTERVAL;
        let long = chain_of(8 * n);
        assert!(traversal_order(&chain_of(n - 1), &dl).is_ok());
        for h in [&chain_of(n), &long] {
            let err = traversal_order(h, &dl).unwrap_err();
            assert_eq!((err.phase, err.work_done), ("msbfs", 0), "{err:?}");
        }
        // The public entry points stop there too: one `msbfs.order`
        // event with no work, and no batch.
        for par in [false, true] {
            let trace = hgobs::TraceCtx::new(4);
            let dl = Deadline::cancellable().with_trace(trace.clone());
            dl.cancel();
            let err = if par {
                par_msbfs_distance_stats_with(&long, &dl)
            } else {
                hyper_distance_stats_with(&long, &dl)
            }
            .unwrap_err();
            assert_eq!((err.phase, err.work_done), ("msbfs", 0), "{err:?}");
            let events = trace.events();
            assert_eq!(events.len(), 1, "{events:?}");
            assert_eq!((events[0].phase, events[0].work), ("msbfs.order", 0));
        }
    }

    /// A random 5-pin blob: 1200 vertices and 900 hyperedges drawn by a
    /// fixed xorshift, so level-2+ frontiers cover most vertices.
    fn blob() -> Hypergraph {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 1200u64;
        let mut b = HypergraphBuilder::new(n as usize);
        for _ in 0..900 {
            let pins: Vec<u32> = (0..5).map(|_| (next() % n) as u32).collect();
            b.add_edge(pins);
        }
        b.build()
    }

    #[test]
    fn sparse_and_dense_frontiers_match_scalar() {
        // Two sources far apart on a 2560-vertex chain keep the frontier
        // on 2 of 40 summary words; the blob's frontiers cover most of
        // them. One batch equals the oracle on its sources, and the
        // public sweep equals it on all of them.
        let mut b = HypergraphBuilder::new(2560);
        for i in 0..2559u32 {
            b.add_edge([i, i + 1]);
        }
        let cases = [
            (b.build(), vec![VertexId(0), VertexId(2500)]),
            (blob(), (0..BATCH as u32).map(VertexId).collect()),
        ];
        for (h, batch) in cases {
            let mut scratch = MsBfsScratch::new(&h);
            let mut ticks = 0u32;
            let b = msbfs_batch(&h, &batch, &mut scratch, &Deadline::none(), &mut ticks).unwrap();
            assert_bit_identical(
                stats_from_acc(b),
                scalar_hyper_distance_stats_from(&h, &batch),
            );
            assert_bit_identical(hyper_distance_stats(&h), scalar_hyper_distance_stats(&h));
        }
    }

    #[test]
    fn direction_rule_is_exact_at_u32_max_dimensions() {
        let max = u32::MAX as usize;
        let all = u32::MAX as u64;
        // Every target unsaturated, every source active: pull is
        // cheaper exactly when a push probe costs more than a pull.
        assert!(!pull_is_cheaper(all, max, all, max, 1));
        assert!(pull_is_cheaper(all, max, all, max, ALPHA_V2E));
        assert!(pull_is_cheaper(all, max, all, max, ALPHA_E2V));
        // One active source among u32::MAX: push.
        assert!(!pull_is_cheaper(all, max, 1, max, ALPHA_V2E));
        // Every target saturated: pulling walks an empty worklist. An
        // empty frontier or an empty hypergraph never pulls.
        assert!(pull_is_cheaper(0, max, 1, max, ALPHA_V2E));
        assert!(!pull_is_cheaper(0, max, 0, max, ALPHA_V2E));
        assert!(!pull_is_cheaper(0, 0, 0, 0, ALPHA_E2V));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The traversal order lists each vertex of nonzero degree once
        /// and no isolated vertex, each component contiguous and the
        /// components in order of their smallest id; the public sweeps
        /// over it, and width 2 over it, equal the scalar oracle bit for
        /// bit. The shapes include isolated vertices, empty and duplicate
        /// hyperedges and several components.
        #[test]
        fn traversal_order_lists_components_and_keeps_the_answer(
            h in arb_hypergraph(90, 40, 6)
        ) {
            let order = traversal_order(&h, &Deadline::none()).unwrap();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let connected: Vec<VertexId> =
                h.vertices().filter(|&v| h.vertex_degree(v) > 0).collect();
            prop_assert_eq!(sorted, connected);

            let components = crate::hypergraph_components(&h);
            let label = &components.vertex_label;
            let mut smallest = vec![u32::MAX; components.count()];
            for v in h.vertices() {
                let c = label[v.index()] as usize;
                smallest[c] = smallest[c].min(v.0);
            }
            // Each run of one label starts at that component's smallest
            // id; the starts increase, so no component comes back.
            let mut last_start = None;
            for (i, v) in order.iter().enumerate() {
                let c = label[v.index()];
                if i == 0 || label[order[i - 1].index()] != c {
                    prop_assert_eq!(v.0, smallest[c as usize]);
                    prop_assert!(last_start < Some(v.0), "{:?} revisits", order);
                    last_start = Some(v.0);
                }
            }

            let oracle = scalar_hyper_distance_stats(&h);
            assert_bit_identical(hyper_distance_stats(&h), oracle);
            assert_bit_identical(par_msbfs_distance_stats(&h), oracle);
            assert_bit_identical(sweep(&h, &order, &Deadline::none(), 2).unwrap(), oracle);
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
        let parked = pool.last().unwrap().v.lanes.as_ptr();
        let leased = take_fitting(&mut pool, newest).expect("newest shape is parked");
        assert_eq!(leased.v.lanes.as_ptr(), parked);
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
