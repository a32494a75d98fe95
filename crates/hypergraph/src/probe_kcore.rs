//! The level-synchronous subset-probe k-core: the engine behind every
//! served k-core query (hgserve's `kcore?k=` and max core, `hg kcore`).
//!
//! Each round runs two phases, and rounds repeat until neither phase has
//! work queued:
//!
//! 1. **Vertex phase** — every candidate still alive with degree < k is
//!    collected against a snapshot, then all of them are removed and the
//!    degrees of their alive hyperedges decremented. Those hyperedges
//!    join the affected set.
//! 2. **Edge phase** — every affected hyperedge is re-checked for
//!    maximality against the state the phase starts from, by a direct
//!    sorted-subset test (no overlap table). The non-maximal ones are
//!    then deleted and their members' degrees decremented; those members
//!    are the next round's candidates.
//!
//! Round one starts with every vertex a candidate and every hyperedge
//! affected, so its edge phase is the reduce: it decides each
//! hyperedge's maximality once, against the smaller state the first peel
//! leaves. The vertex phase may go first because the reduce only deletes
//! hyperedges: a vertex whose raw degree is below k also has a reduced
//! degree below k, so it falls outside the k-core whichever phase runs
//! first, and peeling is confluent. Later vertex phases test only the
//! vertices whose degree fell in the edge phase before: no other vertex's
//! degree changed since it last passed the test. (A new level of the
//! decomposition below raises `k`, so it tests every survivor.)
//!
//! A probe scans the hyperedge's raw pins once. It pivots on the alive
//! pin in the fewest alive hyperedges, and ORs the alive pins into a
//! 64-bit signature, one bit per vertex id by a fixed multiplicative
//! hash. Any container holds every alive pin, so the hyperedges through
//! the pivot are the only candidates. A candidate whose own signature
//! (over its raw pins) lacks one of those bits misses an alive pin, and
//! one AND rejects it: the standard pre-test for set containment (Helmer
//! & Moerkotte, VLDB 1997). Only the candidates that pass are tested by
//! merging the sorted alive pins against their raw pin lists, so the
//! filter changes no decision.
//!
//! **Linear hyperedges.** The paper's Fig. 4 decides containment by
//! counting overlaps: `f ⊆ g` exactly when `deg(f) = overlap(f, g)`. So
//! a hyperedge that shares at most one pin with any other (as every
//! hyperedge of a linear hypergraph does) has no container while two of
//! its pins are alive: if an alive `g ≠ f` held `f`'s two or more alive
//! pins, `f` and `g` would share those raw pins. No tie rule is
//! involved, since no container exists. Every probe is gated on that:
//! an alive hyperedge known to be *linear* with at least two alive pins
//! is maximal, and is neither probed against a snapshot nor given a raw
//! probe (below), in round one, in every later round and at every level
//! of the decomposition. One left with a single alive pin or none is
//! probed as before, and so is every hyperedge not known to be linear:
//! copies and nested hyperedges share all their pins, so they never
//! are, and the pass below may leave a linear one unproven. On hgperf's
//! u6000, 4,387 of the 4,500 hyperedges are linear.
//!
//! **The memo.** Whether a hyperedge is linear, and whether it is
//! contained in another of the raw hypergraph `H` (non-maximal, by the
//! same tie rule), depends on `H` alone. So each [`Hypergraph`] keeps,
//! once its first k-core builds them, every hyperedge's signature and
//! two bitmaps: 8 B and 2 bits per hyperedge, shared by its clones. One
//! pass writes both bitmaps before the memo is kept, and nothing writes
//! them after. For each hyperedge `f` with two or more pins, the pass
//! scans the hyperedges through its pins, stamping each, and stops at
//! the first stamped twice: it shares two pins with `f`, so neither is
//! linear, and a hyperedge ruled out by an earlier one is not scanned.
//! A scan walks `Σ_{v∈f} d(v)` incidences at most, so it runs only while
//! that is at most `SCAN_CAP` (8) times `|f| + min_{v∈f} d(v)`, what a
//! probe of `f` walks; a hyperedge over the cap is left unproven, as if
//! it shared two pins. A hyperedge proven linear with two or more pins
//! is maximal in `H`. Every other one gets a *raw probe*, the probe
//! above on `H` itself (pivot on the first pin of least degree, every
//! candidate weighed by its raw size), and the second bitmap records
//! whether it is *contained*. So the pass costs at most a constant times
//! one round of probes, however skewed the degrees: a star of two-pin
//! hyperedges through one hub costs its pins, not their square. The
//! stamps (4 B per hyperedge) are freed once the bits are written.
//!
//! The pass reads the clock whenever the incidences since the last read
//! would pass [`CHECK_INTERVAL`](hgobs::CHECK_INTERVAL). Once the
//! deadline has expired it stops, marks every hyperedge it has not
//! reached unproven and contained, and the memo is kept with how far it
//! got, so it answers correctly but probes more. The next call that
//! finds it unfinished continues the pass on a copy from that point,
//! under its own deadline, and keeps the further memo in place of the
//! older one. It clears both bitmaps from that point first: a partner
//! found before the cut is found again by the continued scan. Each pass
//! classifies one hyperedge before its first clock read, so even a
//! budget too short for any work advances the build. A complete memo is
//! read without a lock; the unfinished one sits behind a mutex.
//!
//! Round one reads the contained bits, and nothing else does. A
//! hyperedge `f` the first peel left *untouched* (every raw pin alive)
//! that is maximal in `H` is not probed: it is still maximal. Say an
//! alive `g` holds `f`'s alive pins and wins the tie rule now. Those are
//! all of `f`'s pins, so `g` held them in `H` too, with at least as many
//! pins then as now. If `g` now has more pins than `f`, it had more in
//! `H`; if it now ties with a smaller id, it had more in `H` or was
//! `f`'s copy with a smaller id. Either way `f` was non-maximal in `H`.
//! Every other hyperedge is probed against the snapshot as before, the
//! untouched non-maximal ones too, since a larger container can shrink
//! to a tie with one and lose on id
//! (`fold_keeps_the_smaller_id_of_copies_that_end_up_identical`).
//!
//! So round one of any k-core, at any `k` and for either entry point,
//! probes only the touched hyperedges not known to be linear or left
//! fewer than two alive pins, and the untouched ones non-maximal in `H`.
//! It walks the hyperedges in blocks of 64, each queued by one mask with
//! no branch per hyperedge. Later rounds, and later levels of the
//! decomposition, probe every affected hyperedge the gate does not rule
//! out.
//!
//! The vertex phase's collection and the core's id lists write every id
//! and advance by the test's outcome, so no branch depends on a degree.
//!
//! Deleting a hyperedge cannot make another hyperedge non-maximal, and
//! deleting a vertex shrinks containment *candidates* monotonically, so
//! checking only degree-decremented hyperedges each round is exhaustive —
//! the same argument the paper makes for its Fig. 4 algorithm.
//!
//! k-cores are nested and peeling is confluent, so the state that
//! survives the k-peel is a valid start for k + 1. [`probe_decompose`]
//! peels k = 1, 2, … from one state, recording the level at which each
//! vertex and hyperedge dies; the profile, the core numbers and the max
//! core follow without the overlap table, whose build always costs
//! `Σ_v d(v)²`. `max_core`,
//! `core_profile` and `core_numbers` in [`crate::kcore`] call it.
//!
//! The result equals [`csr_kcore`](crate::csr_kcore) in surviving
//! vertices and surviving hyperedge contents. Hyperedge *ids* can differ
//! only between copies that end up identical, where both algorithms keep
//! exactly one: `csr_kcore` reduces the input before it peels, so it may
//! keep the copy that was larger at the start. It is an independent
//! algorithm — snapshot subset probes against CSR overlap counting — so
//! each engine checks the other on inputs too large for the
//! [`naive_kcore`](crate::naive::naive_kcore) oracle. Each phase reads
//! only the snapshot it starts from, so its items are independent; it
//! runs on one thread.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock};

use hgobs::{Deadline, DeadlineExceeded, TraceCtx};

use crate::decompose::Decomposition;
use crate::hypergraph::{Csr, EdgeId, Hypergraph, VertexId};
use crate::kcore::KCore;

/// The bit vertex `v` sets in a pin signature: the top six bits of a
/// multiplicative (Fibonacci) hash of its id.
#[inline]
fn sig_bit(v: VertexId) -> u64 {
    1 << (v.0.wrapping_mul(0x9E37_79B9) >> 26)
}

/// The degree of a deleted vertex or hyperedge. It is never below `k`,
/// and as a pin it is never the pivot, so it doubles as the alive flag.
/// A degree counts pins, so no alive item reaches it while the
/// hypergraph has fewer than `u32::MAX` pins, which [`State::new`]
/// asserts.
const DEAD: u32 = u32::MAX;

/// The memo's pass scans a hyperedge `f` only while `Σ_{v∈f} d(v)` is
/// at most this many times `|f| + min_{v∈f} d(v)` (module docs). Every
/// linear hyperedge of hgperf's uniform inputs and of cellzome is
/// within it; most hyperedges of the stk and utm nets are not.
const SCAN_CAP: usize = 8;

/// What the probe k-core knows of a hypergraph `H` alone, kept with it
/// ([`Hypergraph`]) and built by its first k-core: 8 B of signature and
/// 2 bits per hyperedge, written before the memo is kept and never
/// after.
#[derive(Clone)]
pub(crate) struct ProbeMemo {
    /// Each hyperedge's raw pins ORed through [`sig_bit`].
    sig: Vec<u64>,
    /// Bit `f % 64` of word `f / 64` is clear when the pass proved that
    /// no other hyperedge of `H` shares two of `f`'s pins, and set
    /// otherwise: a partner was found, or `f` was over the scan cap or
    /// not reached. Bits past the last hyperedge mean nothing.
    shared: Vec<u64>,
    /// Laid out as `shared`; a bit is set when `f` is empty, lies in
    /// another hyperedge of `H` that wins the tie rule, or was not
    /// reached. For an uncut build it is
    /// [`non_maximal_edges`](crate::non_maximal_edges)`(H)`.
    contained: Vec<u64>,
    /// How far the build got: every hyperedge below it has its bits, and
    /// the memo is complete once this is the hyperedge count.
    reached: usize,
}

/// Where a [`Hypergraph`] keeps its memo: once complete, in a `OnceLock`
/// that every later call borrows without a lock; until then, the
/// furthest unfinished one, which the next call continues.
#[derive(Debug, Default)]
pub(crate) struct MemoSlot {
    complete: OnceLock<ProbeMemo>,
    unfinished: Mutex<Option<ProbeMemo>>,
}

impl MemoSlot {
    /// The heap bytes of the complete memo, else of the unfinished one.
    pub(crate) fn bytes(&self) -> usize {
        let unfinished = || self.lock().as_ref().map_or(0, ProbeMemo::bytes);
        self.complete
            .get()
            .map_or_else(unfinished, ProbeMemo::bytes)
    }

    /// The unfinished memo's slot. Nothing panics while holding it.
    fn lock(&self) -> MutexGuard<'_, Option<ProbeMemo>> {
        self.unfinished.lock().expect("no panic holds the slot")
    }
}

/// What one build pass did: the incidences it charged to the clock, and
/// the raw probes and sorted merges that the calling k-core counts.
#[derive(Default)]
struct Pass {
    visited: usize,
    raw_probes: u64,
    merges: u64,
}

impl ProbeMemo {
    /// `h`'s memo and what this call's pass did: the first call starts
    /// the build, and a call that finds it unfinished continues a copy.
    /// A complete memo is borrowed from `h`; an unfinished one, which
    /// only a call whose deadline has expired holds, is the call's own.
    /// An expiry among the signatures ([`Self::new`]) stores nothing.
    /// The pass after them cannot fail: an expiry cuts it short
    /// ([`Self::build`]), the further memo is kept in place of the older
    /// one, and the caller reports the expiry at its next tick or check.
    fn of<'h>(
        h: &'h Hypergraph,
        deadline: &Deadline,
        ticks: &mut u32,
    ) -> Result<(Cow<'h, ProbeMemo>, Pass), DeadlineExceeded> {
        let slot = h.probe_memo();
        if let Some(memo) = slot.complete.get() {
            return Ok((Cow::Borrowed(memo), Pass::default()));
        }
        let csr = h.csr();
        let older = slot.lock().clone();
        let mut memo = match older {
            Some(older) => older,
            None => ProbeMemo::new(csr, deadline, ticks)?,
        };
        let pass = memo.build(csr, deadline);
        let mut unfinished = slot.lock();
        if memo.reached == csr.num_edges() {
            *unfinished = None;
            return Ok((Cow::Borrowed(slot.complete.get_or_init(|| memo)), pass));
        }
        if unfinished
            .as_ref()
            .is_none_or(|kept| kept.reached < memo.reached)
        {
            *unfinished = Some(memo.clone());
        }
        Ok((Cow::Owned(memo), pass))
    }

    /// `csr`'s signatures and two bitmaps of clear bits, for
    /// [`Self::build`]. The signatures tick `deadline` once per
    /// hyperedge (phase `kcore.probe.state`, no work done).
    fn new(csr: Csr<'_>, deadline: &Deadline, ticks: &mut u32) -> Result<Self, DeadlineExceeded> {
        let mut sig = Vec::with_capacity(csr.num_edges());
        for f in 0..csr.num_edges() {
            if deadline.tick(ticks) {
                return Err(deadline.exceeded("kcore.probe.state", 0));
            }
            sig.push(csr.pins(f).iter().fold(0, |sig, &v| sig | sig_bit(v)));
        }
        let words = csr.num_edges().div_ceil(64);
        Ok(ProbeMemo {
            sig,
            shared: vec![0; words],
            contained: vec![0; words],
            reached: 0,
        })
    }

    /// The build pass over `csr`, from the first hyperedge not reached
    /// on. It clears both bitmaps from there first: the bits a cut set,
    /// and those a partner before the cut set past it, which the
    /// continued scan finds again. Then it writes every hyperedge `f`'s
    /// bits: `f` is scanned by [`sharer`] unless a partner found earlier
    /// already ruled it out or it is over [`SCAN_CAP`], and given a
    /// [`raw_contained`] probe unless proven linear with two or more
    /// pins. The clock is read before a hyperedge whose work (its pins'
    /// degree reads, its scan, and its pivot's hyperedges) would take
    /// the incidences since the last read past
    /// [`CHECK_INTERVAL`](hgobs::CHECK_INTERVAL); once the deadline has
    /// expired, that hyperedge and every later one get both bits set.
    /// The first hyperedge is classified before any read, so even an
    /// expired deadline advances the build.
    fn build(&mut self, csr: Csr<'_>, deadline: &Deadline) -> Pass {
        let (from, m) = (self.reached, csr.num_edges());
        for bits in [&mut self.shared, &mut self.contained] {
            fill_from(bits, from, false);
        }
        // Per hyperedge, 1 + the last hyperedge whose pins reached it.
        let mut stamp = vec![0u32; m];
        let (mut pass, mut since_read) = (Pass::default(), 0);
        for f in from..m {
            let pins = csr.pins(f);
            // Degrees straight off the offsets: building a slice per pin,
            // as `Csr::vertex_degree` does, cost the nets' passes up to a
            // fifth.
            let offsets = csr.vertex_offsets;
            let (sum, least) = pins.iter().fold((0, usize::MAX), |(sum, least), v| {
                let d = (offsets[v.index() + 1] - offsets[v.index()]) as usize;
                (sum + d, least.min(d))
            });
            let wide = pins.len() >= 2;
            // A partner found earlier already set `f`'s bit, and nothing
            // shares two pins of a hyperedge with fewer.
            let scan = wide
                && self.shared[f / 64] >> (f % 64) & 1 == 0
                && sum <= SCAN_CAP * (pins.len() + least);
            // A raw probe walks the hyperedges of a pin of least degree
            // (none for an empty `f`, whose `sum` is 0).
            let work = pins.len() + least.min(sum) + if scan { sum } else { 0 };
            if f > from && since_read + work > hgobs::CHECK_INTERVAL as usize {
                if deadline.expired() {
                    for bits in [&mut self.shared, &mut self.contained] {
                        fill_from(bits, f, true);
                    }
                    self.reached = f;
                    return pass;
                }
                since_read = 0;
            }
            since_read += work;
            pass.visited += work;
            let mut shared = wide && !scan;
            if let Some(g) = scan.then(|| sharer(csr, f, &mut stamp)).flatten() {
                self.shared[g / 64] |= 1 << (g % 64);
                shared = true;
            }
            self.shared[f / 64] |= (shared as u64) << (f % 64);
            if shared || !wide {
                pass.raw_probes += 1;
                let contained = raw_contained(csr, &self.sig, f, least, &mut pass.merges);
                self.contained[f / 64] |= (contained as u64) << (f % 64);
            }
        }
        self.reached = m;
        pass
    }

    /// The memo's heap bytes: the signatures and the two bitmaps.
    fn bytes(&self) -> usize {
        8 * (self.sig.len() + self.shared.len() + self.contained.len())
    }
}

/// Set every bit of `bits` from hyperedge `f`'s on to `to`.
fn fill_from(bits: &mut [u64], f: usize, to: bool) {
    for (w, word) in bits.iter_mut().enumerate().skip(f / 64) {
        let mask = u64::MAX << if w == f / 64 { f % 64 } else { 0 };
        *word = if to { *word | mask } else { *word & !mask };
    }
}

/// A hyperedge other than `f` that holds two of `f`'s pins, if any:
/// `f`'s pins stamp every hyperedge through them with `f + 1`, and the
/// first one met twice shares two. The first pin's hyperedges need no
/// check, and the last pin's no stamp.
fn sharer(csr: Csr<'_>, f: usize, stamp: &mut [u32]) -> Option<usize> {
    let [first, mid @ .., last] = csr.pins(f) else {
        return None;
    };
    let tag = (f as u32).wrapping_add(1);
    for &g in csr.edges_of(first.index()) {
        stamp[g.index()] = tag;
    }
    for &v in mid {
        for &g in csr.edges_of(v.index()) {
            let g = g.index();
            if stamp[g] == tag && g != f {
                return Some(g);
            }
            stamp[g] = tag;
        }
    }
    csr.edges_of(last.index())
        .iter()
        .map(|g| g.index())
        .find(|&g| stamp[g] == tag && g != f)
}

/// Whether `f` is empty or lies in another hyperedge of `csr` that wins
/// the tie rule by raw sizes (strictly larger, or identical with a
/// smaller id): the probe of the module docs on the raw hypergraph,
/// through the hyperedges of `f`'s first pin of degree `least`, the
/// least of its pins'. `merges` counts the sorted merges.
fn raw_contained(csr: Csr<'_>, sig: &[u64], f: usize, least: usize, merges: &mut u64) -> bool {
    // A pin in `f` alone rules out a container.
    if least < 2 {
        return false;
    }
    let (pins_f, df, sig_f) = (csr.pins(f), csr.edge_degree(f), sig[f]);
    let offsets = csr.vertex_offsets;
    let degree = |v: &&VertexId| (offsets[v.index() + 1] - offsets[v.index()]) as usize;
    // An empty `f` has no pin to pivot on.
    let Some(pivot) = pins_f.iter().find(|v| degree(v) == least) else {
        return true;
    };
    csr.edges_of(pivot.index()).iter().any(|g| {
        let g = g.index();
        // A missing bit proves that `g` lacks a pin of `f`.
        g != f
            && sig_f & !sig[g] == 0
            && {
                let dg = csr.edge_degree(g);
                dg > df || (dg == df && g < f)
            }
            && {
                *merges += 1;
                let mut rest = csr.pins(g).iter();
                pins_f
                    .iter()
                    .all(|v| rest.by_ref().find(|&w| w >= v) == Some(v))
            }
    })
}

impl fmt::Debug for ProbeMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProbeMemo({} hyperedges)", self.sig.len())
    }
}

struct State<'h> {
    /// The raw hypergraph, resolved once for the whole call.
    csr: Csr<'h>,
    /// The threshold being peeled to.
    k: u32,
    /// Alive hyperedges through each vertex, or [`DEAD`].
    deg_v: Vec<u32>,
    /// Alive pins of each hyperedge, or [`DEAD`].
    deg_e: Vec<u32>,
    /// The memo's signatures, linear bits and raw containment bits.
    memo: Cow<'h, ProbeMemo>,
    vertices_alive: usize,
    edges_alive: usize,
    /// `Σ deg_e` over alive hyperedges.
    pins_alive: usize,
    /// Round one's queue: every vertex a candidate and every hyperedge
    /// affected, walked in id order instead of listed (hyperedges in
    /// blocks of 64, [`Self::round_one_mask`]).
    all_queued: bool,
    /// Hyperedges the next edge phase probes, each listed once.
    affected: Vec<u32>,
    in_affected: Vec<bool>,
    /// Vertices the next vertex phase tests, each listed once.
    candidates: Vec<u32>,
    in_candidates: Vec<bool>,
    /// A phase's deletions, collected before any applies.
    doomed: Vec<u32>,
    /// The probed hyperedge's alive pins, sorted.
    pin_buf: Vec<u32>,
    /// Death levels, kept only for the decomposition (empty otherwise):
    /// `k - 1` for an item deleted while peeling to the k-core, so 0 for
    /// the hyperedges level 1's reduce deletes.
    level_v: Vec<u32>,
    level_e: Vec<u32>,
    rounds: u64,
    vertices_peeled: u64,
    edges_deleted: u64,
    subset_tests: u64,
    /// Probes against a snapshot, and the memo build's raw probes.
    edge_probes: u64,
    raw_probes: u64,
}

impl<'h> State<'h> {
    /// Round one's state: every vertex a candidate, every hyperedge
    /// affected. Both are marked, so a vertex that is below `k` from the
    /// start is queued once, and so is a hyperedge that loses a pin to
    /// the first vertex phase. The build ticks `deadline` once per id
    /// (phase `kcore.probe.state`, no work done), and the memo's pass
    /// reads it by incidences ([`ProbeMemo::of`]), whose raw probes and
    /// merges the counters start from.
    fn new(h: &'h Hypergraph, deadline: &Deadline) -> Result<Self, DeadlineExceeded> {
        let csr = h.csr();
        let (n, m) = (csr.num_vertices(), csr.num_edges());
        assert!(h.num_pins() < DEAD as usize, "a degree could read as DEAD");
        let mut ticks = 0;
        let (memo, pass) = ProbeMemo::of(h, deadline, &mut ticks)?;
        let mut expired = || deadline.tick(&mut ticks);
        let mut deg_v = vec![0; n];
        for (v, d) in deg_v.iter_mut().enumerate() {
            if expired() {
                return Err(deadline.exceeded("kcore.probe.state", 0));
            }
            *d = csr.vertex_degree(v);
        }
        let mut deg_e = vec![0; m];
        for (f, d) in deg_e.iter_mut().enumerate() {
            if expired() {
                return Err(deadline.exceeded("kcore.probe.state", 0));
            }
            *d = csr.edge_degree(f);
        }
        Ok(State {
            csr,
            k: 0,
            deg_v,
            deg_e,
            memo,
            vertices_alive: n,
            edges_alive: m,
            pins_alive: h.num_pins(),
            all_queued: n + m > 0,
            affected: Vec::new(),
            in_affected: vec![true; m],
            candidates: Vec::new(),
            in_candidates: vec![true; n],
            doomed: Vec::new(),
            pin_buf: Vec::new(),
            level_v: Vec::new(),
            level_e: Vec::new(),
            rounds: 0,
            vertices_peeled: 0,
            edges_deleted: 0,
            subset_tests: pass.merges,
            edge_probes: 0,
            raw_probes: pass.raw_probes,
        })
    }

    /// `true` iff alive hyperedge `f` is empty or contained in an alive
    /// `g` that wins the tie rule (strictly larger, or identical with a
    /// smaller id): a probe against this snapshot.
    fn is_non_maximal(&mut self, f: usize) -> bool {
        self.edge_probes += 1;
        self.deg_e[f] == 0 || self.container(f).is_some()
    }

    /// `true` iff no other hyperedge of `H` shares two of alive `f`'s
    /// pins and two of them are alive: then nothing holds its alive
    /// pins, and it is maximal without a probe (module docs).
    fn linear_and_wide(&self, f: usize) -> bool {
        self.memo.shared[f / 64] >> (f % 64) & 1 == 0 && self.deg_e[f] >= 2
    }

    /// The first hyperedge through the pivot of alive, nonempty `f` that
    /// holds `f`'s alive pins and wins the tie rule against it by alive
    /// pin counts.
    fn container(&mut self, f: usize) -> Option<usize> {
        let df = self.deg_e[f];
        // One scan for the pivot and the alive pins' signature: a dead
        // pin's degree is `DEAD`, so it is never the pivot and adds no
        // bit.
        let pins_f = self.csr.pins(f);
        let (mut pivot, mut pivot_deg, mut sig_f) = (0, DEAD, 0u64);
        for &v in pins_f {
            let d = self.deg_v[v.index()];
            sig_f |= sig_bit(v) & ((d != DEAD) as u64).wrapping_neg();
            if d < pivot_deg {
                (pivot, pivot_deg) = (v.index(), d);
            }
        }
        // The pivot's alive hyperedges include `f`: with no other, `f`
        // has no container.
        if pivot_deg < 2 {
            return None;
        }
        self.pin_buf.clear();
        // Read through the memo once per probe, not once per candidate.
        let sig: &[u64] = &self.memo.sig;
        for &g in self.csr.edges_of(pivot) {
            let gi = g.index();
            // A missing bit proves that `g` lacks an alive pin of `f`.
            if gi == f || sig_f & !sig[gi] != 0 {
                continue;
            }
            let dg = self.deg_e[gi];
            if dg != DEAD && (dg > df || (dg == df && gi < f)) {
                // The alive pins, gathered for the first candidate that
                // passes the filter.
                if self.pin_buf.is_empty() {
                    let alive = pins_f.iter().filter(|v| self.deg_v[v.index()] != DEAD);
                    self.pin_buf.extend(alive.map(|v| v.0));
                    debug_assert_eq!(self.pin_buf.len(), df as usize);
                }
                self.subset_tests += 1;
                // `pin_buf` holds only alive pins, so `g`'s raw pins
                // need no alive filter.
                let mut rest = self.csr.pins(gi).iter().map(|v| v.0);
                if self
                    .pin_buf
                    .iter()
                    .all(|&x| rest.by_ref().find(|&y| y >= x) == Some(x))
                {
                    return Some(gi);
                }
            }
        }
        None
    }

    fn delete_edge(&mut self, f: usize) {
        self.pins_alive -= self.deg_e[f] as usize;
        self.deg_e[f] = DEAD;
        self.edges_alive -= 1;
        self.edges_deleted += 1;
        if let Some(level) = self.level_e.get_mut(f) {
            *level = self.k - 1;
        }
        for &w in self.csr.pins(f) {
            let w = w.index();
            if self.deg_v[w] != DEAD {
                self.deg_v[w] -= 1;
                if !self.in_candidates[w] {
                    self.in_candidates[w] = true;
                    self.candidates.push(w as u32);
                }
            }
        }
    }

    fn delete_vertex(&mut self, v: usize) {
        self.deg_v[v] = DEAD;
        self.vertices_alive -= 1;
        self.vertices_peeled += 1;
        if let Some(level) = self.level_v.get_mut(v) {
            *level = self.k - 1;
        }
        for &f in self.csr.edges_of(v) {
            let f = f.index();
            if self.deg_e[f] != DEAD {
                self.deg_e[f] -= 1;
                self.pins_alive -= 1;
                if !self.in_affected[f] {
                    self.in_affected[f] = true;
                    self.affected.push(f as u32);
                }
            }
        }
    }

    /// Round one's queue for block `w`, the 64 hyperedges from `64 w`,
    /// as a mask over their offsets in it: the hyperedges to probe
    /// against the snapshot. A hyperedge known to be linear with two
    /// alive pins is maximal, and left out. A hyperedge the first peel
    /// left untouched holds all its raw pins, so it is non-maximal now
    /// only if it is in `H` (module docs): one whose contained bit is
    /// clear is left out too.
    fn round_one_mask(&self, w: usize) -> u64 {
        let (base, end) = (64 * w, (64 * w + 64).min(self.csr.num_edges()));
        // `State::new` read every size through a checked slice, so each
        // offset plus its hyperedge's alive pins stays in range.
        let (start, stop) = (
            &self.csr.edge_offsets[base..end],
            &self.csr.edge_offsets[base + 1..=end],
        );
        let deg = &self.deg_e[base..end];
        let mut untouched = 0u64;
        for i in 0..deg.len() {
            untouched |= ((start[i] + deg[i] == stop[i]) as u64) << i;
        }
        // The linear ones with two alive pins; `wide` holds only this
        // block's ids. A block with no linear hyperedge, as most of a
        // Table 1 net's are, skips the pass.
        let mut maximal = !self.memo.shared[w];
        if maximal != 0 {
            let mut wide = 0u64;
            for (i, &d) in deg.iter().enumerate() {
                wide |= ((d >= 2) as u64) << i;
            }
            maximal &= wide;
        }
        let block = u64::MAX >> (64 - (end - base));
        block & !(maximal | (untouched & !self.memo.contained[w]))
    }

    /// Probe every affected hyperedge against this snapshot, except the
    /// linear ones with two alive pins ([`Self::linear_and_wide`]), then
    /// delete the non-maximal ones. Round one walks every id in blocks
    /// of 64, queued by [`Self::round_one_mask`], and clears every queue
    /// mark.
    fn edge_phase(&mut self, deadline: &Deadline) -> Result<(), DeadlineExceeded> {
        let mut doomed = std::mem::take(&mut self.doomed);
        doomed.clear();
        let (mut ticks, peeled) = (0, self.vertices_peeled);
        let mut settle = |f: usize, non_maximal: bool| {
            if non_maximal {
                doomed.push(f as u32);
            }
            match deadline.tick(&mut ticks) {
                true => Err(deadline.exceeded("kcore.probe.edge_phase", peeled)),
                false => Ok(()),
            }
        };
        if std::mem::take(&mut self.all_queued) {
            self.in_affected.fill(false);
            for w in 0..self.memo.contained.len() {
                bits(self.round_one_mask(w))
                    .map(|i| 64 * w + i)
                    .try_for_each(|f| settle(f, self.is_non_maximal(f)))?;
            }
        } else {
            let affected = std::mem::take(&mut self.affected);
            let probed = affected.iter().try_for_each(|&f| {
                let f = f as usize;
                self.in_affected[f] = false;
                let probe = self.deg_e[f] != DEAD && !self.linear_and_wide(f);
                settle(f, probe && self.is_non_maximal(f))
            });
            self.affected = affected;
            self.affected.clear();
            probed?;
        }
        deadline.check("kcore.probe.edge_phase", self.vertices_peeled)?;
        for &f in &doomed {
            if deadline.tick(&mut ticks) {
                return Err(deadline.exceeded("kcore.probe.edge_phase", self.vertices_peeled));
            }
            self.delete_edge(f as usize);
        }
        self.doomed = doomed;
        Ok(())
    }

    /// Collect the candidates below `k`, then delete them. A dead
    /// vertex's degree is `DEAD`, never below `k`. An expiry among the
    /// deletions reports the vertices peeled before the phase.
    fn vertex_phase(&mut self, deadline: &Deadline) -> Result<(), DeadlineExceeded> {
        let mut doomed = std::mem::take(&mut self.doomed);
        if self.all_queued {
            self.collect_below_k(0..self.csr.num_vertices() as u32, &mut doomed);
        } else {
            let candidates = std::mem::take(&mut self.candidates);
            self.collect_below_k(candidates.iter().copied(), &mut doomed);
            self.candidates = candidates;
            self.candidates.clear();
        }
        let before = self.vertices_peeled;
        deadline.check("kcore.probe.vertex_phase", before)?;
        hgobs::hist!("kcore.probe.frontier", doomed.len());
        let mut ticks = 0;
        for &v in &doomed {
            if deadline.tick(&mut ticks) {
                return Err(deadline.exceeded("kcore.probe.vertex_phase", before));
            }
            self.delete_vertex(v as usize);
        }
        self.doomed = doomed;
        Ok(())
    }

    /// Set `doomed` to the vertices of `ids` whose degree is below `k`,
    /// in `ids` order, clearing their candidate marks. Every id is
    /// written and the length advanced by the test's outcome, so no
    /// branch depends on a degree.
    fn collect_below_k(&mut self, ids: impl ExactSizeIterator<Item = u32>, doomed: &mut Vec<u32>) {
        let (deg_v, k, marks) = (&self.deg_v, self.k, &mut self.in_candidates);
        doomed.clear();
        doomed.resize(ids.len(), 0);
        let mut len = 0;
        for v in ids {
            marks[v as usize] = false;
            doomed[len] = v;
            len += (deg_v[v as usize] < k) as usize;
        }
        doomed.truncate(len);
    }

    /// Peel to the k-core (trace phase `kcore.probe.peel`, work =
    /// vertices peeled): rounds of a vertex phase and then an edge phase,
    /// until neither has work queued.
    fn peel(
        &mut self,
        k: u32,
        deadline: &Deadline,
        trace: &TraceCtx,
    ) -> Result<(), DeadlineExceeded> {
        let mut tp = trace.phase("kcore.probe.peel");
        let before = self.vertices_peeled;
        self.k = k;
        let mut out = Ok(());
        while out.is_ok()
            && (self.all_queued || !(self.candidates.is_empty() && self.affected.is_empty()))
        {
            self.rounds += 1;
            out = deadline
                .check("kcore.probe.round", self.vertices_peeled)
                .and_then(|()| self.vertex_phase(deadline))
                .and_then(|()| self.edge_phase(deadline));
        }
        tp.add_work(self.vertices_peeled - before);
        out
    }

    /// The alive vertices and hyperedges.
    fn core(&self) -> KCore {
        KCore {
            k: self.k,
            vertices: ids(self.vertices_alive, &self.deg_v, |d| d != DEAD, VertexId),
            edges: ids(self.edges_alive, &self.deg_e, |d| d != DEAD, EdgeId),
            pins: self.pins_alive,
        }
    }

    /// Peel k = 1, 2, … until the core is empty, recording death levels.
    fn decompose(&mut self, deadline: &Deadline) -> Result<Decomposition, DeadlineExceeded> {
        let trace = deadline.trace();
        let (n, m) = (self.csr.num_vertices(), self.csr.num_edges());
        self.level_v = vec![0; n];
        self.level_e = vec![0; m];
        let mut profile: Vec<(u32, usize, usize)> = Vec::new();
        let mut max_pins = 0;
        // Survivors, compacted at each level so seeding k + 1 costs
        // O(|k-core|) rather than O(|V|).
        let mut alive: Vec<u32> = (0..n as u32).collect();
        for k in 1u32.. {
            if k > 1 {
                // A new level: no hyperedge changed, every survivor is a
                // candidate.
                alive.retain(|&v| self.deg_v[v as usize] != DEAD);
                self.candidates.extend_from_slice(&alive);
                for &v in &alive {
                    self.in_candidates[v as usize] = true;
                }
            }
            self.peel(k, deadline, trace)?;
            if self.vertices_alive == 0 {
                break;
            }
            profile.push((k, self.vertices_alive, self.edges_alive));
            max_pins = self.pins_alive;
        }
        let max_core = profile.last().map(|&(k, nv, ne)| KCore {
            k,
            vertices: ids(nv, &self.level_v, |level| level == k, VertexId),
            edges: ids(ne, &self.level_e, |level| level == k, EdgeId),
            pins: max_pins,
        });
        Ok(Decomposition {
            profile,
            core_numbers: std::mem::take(&mut self.level_v),
            max_core,
        })
    }

    /// Flush the work counters to the sink (no-op when disabled).
    fn flush_metrics(&self) {
        hgobs::counter!("kcore.probe.rounds", self.rounds);
        hgobs::counter!("kcore.probe.vertices_peeled", self.vertices_peeled);
        hgobs::counter!("kcore.probe.edges_deleted", self.edges_deleted);
        hgobs::counter!("kcore.probe.subset_tests", self.subset_tests);
        hgobs::counter!("kcore.probe.edge_probes", self.edge_probes);
        hgobs::counter!("kcore.probe.raw_probes", self.raw_probes);
    }
}

/// The indices of `mask`'s set bits, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// The `count` ids whose entry in `per_id` passes `keep`, ascending, in
/// a vector of that length. Every id is written to the next free slot,
/// which advances by the test's outcome, so no branch depends on an
/// entry.
fn ids<T: Copy>(
    count: usize,
    per_id: &[u32],
    keep: impl Fn(u32) -> bool,
    id: fn(u32) -> T,
) -> Vec<T> {
    let mut out = vec![id(0); count];
    let mut len = 0;
    for (i, &x) in (0..).zip(per_id) {
        if let Some(slot) = out.get_mut(len) {
            *slot = id(i);
        }
        len += keep(x) as usize;
    }
    debug_assert_eq!(len, count);
    out
}

/// The k-core for one `k` by level-synchronous subset probes. See the
/// module docs for the algorithm and its equivalence to
/// [`csr_kcore`](crate::csr_kcore).
pub fn probe_kcore(h: &Hypergraph, k: u32) -> KCore {
    match probe_kcore_with(h, k, &Deadline::none()) {
        Ok(core) => core,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`probe_kcore`] under a cooperative [`Deadline`], ticked through the
/// state build (phase `kcore.probe.state`), once per edge probe and once
/// per deletion in either phase, and checked at every phase boundary:
/// the round top (`kcore.probe.round`), after the edge probes
/// (`kcore.probe.edge_phase`) and after the vertex scan
/// (`kcore.probe.vertex_phase`), each before the phase's deletions
/// apply. An expiry mid-phase is therefore noticed within
/// [`CHECK_INTERVAL`](hgobs::CHECK_INTERVAL) items. The error's
/// `work_done` counts the vertices peeled by completed phases.
pub fn probe_kcore_with(
    h: &Hypergraph,
    k: u32,
    deadline: &Deadline,
) -> Result<KCore, DeadlineExceeded> {
    let trace = deadline.trace();
    let mut s = State::new(h, deadline)?;
    let out = s.peel(k, deadline, trace);
    s.flush_metrics();
    out?;
    Ok(s.core())
}

/// The whole k-core decomposition by subset probes: peel k = 1, 2, …
/// from one state until the core is empty. Same outputs as
/// [`decompose`](crate::decompose()), without its overlap table.
pub fn probe_decompose(h: &Hypergraph) -> Decomposition {
    match probe_decompose_with(h, &Deadline::none()) {
        Ok(d) => d,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`probe_decompose`] under a cooperative [`Deadline`], with the phases
/// of [`probe_kcore_with`]; each level starts a round. The error's
/// `work_done` counts vertices peeled across all levels.
pub fn probe_decompose_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<Decomposition, DeadlineExceeded> {
    let mut s = State::new(h, deadline)?;
    let out = s.decompose(deadline);
    s.flush_metrics();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{edge_contents, naive_cores, naive_kcore, NaiveCores};
    use crate::testgen::{planted_core_hypergraph, uniform_random_hypergraph};
    use crate::HypergraphBuilder;
    use proptest::prelude::*;
    use std::sync::Barrier;

    /// Same vertices and edge contents as the naive oracle.
    fn assert_equivalent(h: &Hypergraph, k: u32) {
        let (nv, ne) = naive_kcore(h, k);
        let probe = probe_kcore(h, k);
        assert_eq!(nv, probe.vertices, "k = {k}");
        assert_eq!(
            edge_contents(h, &ne, &nv),
            edge_contents(h, &probe.edges, &probe.vertices),
            "k = {k}"
        );
        assert_eq!(probe.pins, probe.sub_hypergraph(h).num_pins(), "k = {k}");
    }

    /// `probe_kcore` at every level, and `probe_decompose`'s profile,
    /// core numbers and max core, against [`naive_cores`].
    fn assert_matches_naive_cores(h: &Hypergraph) {
        let oracle = naive_cores(h);
        for k in 0..oracle.levels.len() as u32 {
            assert_equivalent(h, k);
        }
        assert_decomposition(h, probe_decompose(h), &oracle);
    }

    /// `d`'s profile, core numbers and max core against `oracle`.
    fn assert_decomposition(h: &Hypergraph, d: Decomposition, oracle: &NaiveCores) {
        assert_eq!(d.profile, oracle.profile);
        assert_eq!(d.core_numbers, oracle.core_numbers);
        match (d.max_core, oracle.max_core()) {
            (Some(mc), Some((k, vs, es))) => {
                assert_eq!((mc.k, &mc.vertices[..]), (k, vs));
                assert_eq!(
                    edge_contents(h, &mc.edges, &mc.vertices),
                    edge_contents(h, es, vs)
                );
                assert_eq!(mc.pins, mc.sub_hypergraph(h).num_pins());
            }
            (mc, oracle) => assert!(mc.is_none() && oracle.is_none()),
        }
    }

    #[test]
    fn matches_sequential_on_small_cases() {
        let cases: Vec<Hypergraph> = vec![
            {
                let mut b = HypergraphBuilder::new(6);
                b.add_edge([0, 1, 3]);
                b.add_edge([1, 2, 4]);
                b.add_edge([0, 2, 5]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(5);
                b.add_edge([0, 1, 2, 3, 4]);
                b.add_edge([0, 1, 2]);
                b.add_edge([0, 1]);
                b.add_edge([3, 4]);
                b.add_edge([]);
                b.build()
            },
            {
                let mut b = HypergraphBuilder::new(4);
                b.add_edge([0, 1]);
                b.add_edge([0, 1]);
                b.add_edge([1, 2]);
                b.add_edge([2, 3]);
                b.build()
            },
        ];
        for h in &cases {
            for k in 0..5 {
                assert_equivalent(h, k);
            }
        }
    }

    #[test]
    fn matches_sequential_on_planted_core() {
        let h = planted_core_hypergraph(30, 40, 6, 200, 17);
        for k in 1..8 {
            assert_equivalent(&h, k);
        }
        // The max core is the deepest level the probe engine keeps.
        let seq = crate::decompose(&h).max_core.unwrap();
        assert_eq!(seq.vertices, probe_kcore(&h, seq.k).vertices);
        assert!(probe_kcore(&h, seq.k + 1).is_empty());
    }

    #[test]
    fn matches_sequential_on_uniform_random() {
        for seed in 0..4u64 {
            let h = uniform_random_hypergraph(60, 120, 4, seed);
            for k in 1..7 {
                assert_equivalent(&h, k);
            }
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let h = HypergraphBuilder::new(0).build();
        assert!(probe_kcore(&h, 1).is_empty());
        assert!(probe_decompose(&h).max_core.is_none());
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([]);
        let h = b.build();
        assert!(probe_kcore(&h, 1).is_empty());
        let d = probe_decompose(&h);
        assert!(d.profile.is_empty() && d.max_core.is_none());
        assert_eq!(d.core_numbers, vec![0; 3]);
    }

    #[test]
    fn cancelled_deadline_aborts_before_first_phase_applies() {
        let h = uniform_random_hypergraph(200, 300, 4, 21);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = probe_kcore_with(&h, 2, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.probe.round");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn cancelled_deadline_stops_the_state_build() {
        // Two check intervals of hyperedges: the build reads the clock
        // before it ends, so neither entry point reaches a round.
        let h = uniform_random_hypergraph(100, 2 * hgobs::CHECK_INTERVAL as usize, 3, 5);
        let dl = Deadline::cancellable();
        dl.cancel();
        for err in [
            probe_kcore_with(&h, 2, &dl).unwrap_err(),
            probe_decompose_with(&h, &dl).unwrap_err(),
        ] {
            assert_eq!(err.phase, "kcore.probe.state");
            assert_eq!(err.work_done, 0, "{err:?}");
        }
        // The expiry fell inside the signatures, before the linear pass,
        // so nothing was kept; the next call builds the memo and answers.
        assert!(kept(&h).is_none());
        assert_equivalent(&h, 2);
        assert!(kept(&h).is_some());
    }

    #[test]
    fn cancelled_deadline_stops_round_one_probes_within_a_check_interval() {
        // Over a check interval of copies, all queued for round one's
        // edge phase (k = 0 peels no vertex) and none linear: each random
        // 3-pin hyperedge is followed by a copy, which is non-maximal in H
        // and so probed against the snapshot. Each probe ticks, and the
        // one that reads the cancelled flag is the last.
        let base = uniform_random_hypergraph(400, hgobs::CHECK_INTERVAL as usize + 13, 3, 13);
        let mut b = HypergraphBuilder::new(400);
        for f in base.edges() {
            for _ in 0..2 {
                b.add_edge(base.pins(f).iter().map(|v| v.0));
            }
        }
        let h = b.build();
        let m = h.num_edges();
        let mut s = State::new(&h, &Deadline::none()).unwrap();
        let memo = kept(&h).unwrap();
        assert!((0..m).all(|f| !linear(&memo, f)));
        s.vertex_phase(&Deadline::none()).unwrap();
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = s.edge_phase(&dl).unwrap_err();
        assert_eq!(err.phase, "kcore.probe.edge_phase");
        assert_eq!(err.work_done, 0, "{err:?}");
        // Nothing peeled and nothing deleted; the memo is as built.
        let probed = s.edge_probes as usize;
        assert!(
            probed > 0 && probed <= hgobs::CHECK_INTERVAL as usize,
            "{probed} of {m} hyperedges probed"
        );
        assert_eq!((s.edges_alive, s.edges_deleted), (m, 0));
        assert_contained_match_h(&h);
        for k in [0, 2, 3] {
            let (warm, cold) = (probe_kcore(&h, k), probe_kcore(&rebuilt(&h), k));
            assert_eq!((warm.vertices, warm.edges), (cold.vertices, cold.edges));
        }
    }

    /// A copy of `h` with the same ids and no memo.
    fn rebuilt(h: &Hypergraph) -> Hypergraph {
        let mut b = HypergraphBuilder::new(h.num_vertices());
        for f in h.edges() {
            b.add_edge(h.pins(f).iter().map(|v| v.0));
        }
        b.build()
    }

    #[test]
    fn unlimited_deadline_matches_plain_par_kcore() {
        let h = uniform_random_hypergraph(60, 120, 4, 2);
        for k in 1..5 {
            let a = probe_kcore(&h, k);
            let b = probe_kcore_with(&h, k, &Deadline::none()).unwrap();
            assert_eq!(a.vertices, b.vertices, "k = {k}");
            assert_eq!(a.edges, b.edges, "k = {k}");
        }
    }

    #[test]
    fn core_invariants_hold() {
        let h = uniform_random_hypergraph(40, 80, 5, 9);
        for k in 1..6 {
            let core = probe_kcore(&h, k);
            let sub = core.sub_hypergraph(&h);
            crate::validate::check_structure(&sub).unwrap();
            assert!(crate::non_maximal_edges(&sub).is_empty());
            assert!(sub.vertices().all(|v| sub.vertex_degree(v) >= k as usize));
            assert_eq!(core.pins, sub.num_pins());
        }
    }

    #[test]
    fn vertex_below_k_in_a_reduced_edge_is_peeled_once() {
        // The faces of a tetrahedron on 0..=3, one of them widened by
        // vertex 4, plus {4}. At k = 3, vertex 4 (degree 2) is below k
        // from the start, and {4} is non-maximal from the start. Peeled
        // twice, vertex 4 would take two pins off {0,1,2,4}, which stays
        // in the core.
        let mut b = HypergraphBuilder::new(5);
        b.add_edge([0, 1, 2, 4]);
        b.add_edge([0, 1, 3]);
        b.add_edge([0, 2, 3]);
        b.add_edge([1, 2, 3]);
        b.add_edge([4]);
        let h = b.build();
        let core = probe_kcore(&h, 3);
        assert_eq!(core.vertices, (0..4).map(VertexId).collect::<Vec<_>>());
        assert_eq!(core.edges, (0..4).map(EdgeId).collect::<Vec<_>>());
        assert_eq!(core.pins, 12);
        assert_eq!(core.pins, core.sub_hypergraph(&h).num_pins());
        assert_equivalent(&h, 3);
        let d = probe_decompose(&h);
        assert_eq!(d.core_numbers, vec![3, 3, 3, 3, 1]);
        assert_eq!(d.profile, naive_cores(&h).profile);
    }

    #[test]
    fn decompose_matches_oracle() {
        let mut cases = vec![planted_core_hypergraph(30, 40, 6, 200, 17)];
        cases.extend((0..4).map(|seed| uniform_random_hypergraph(60, 120, 4, seed)));
        for h in &cases {
            assert_matches_naive_cores(h);
        }
    }

    /// Run `k` the way [`probe_kcore_with`] does, keeping the state.
    fn peeled_state(h: &Hypergraph, k: u32) -> State<'_> {
        let dl = Deadline::none();
        let mut s = State::new(h, &dl).unwrap();
        s.peel(k, &dl, dl.trace()).unwrap();
        s
    }

    /// `(rounds, vertices_peeled, edges_deleted, subset_tests,
    /// edge_probes, raw_probes)`.
    fn work(s: &State) -> (u64, u64, u64, u64, u64, u64) {
        (
            s.rounds,
            s.vertices_peeled,
            s.edges_deleted,
            s.subset_tests,
            s.edge_probes,
            s.raw_probes,
        )
    }

    /// Whether hyperedge `f`'s bit is set in one of a memo's bitmaps.
    fn bit(bits: &[u64], f: usize) -> bool {
        bits[f / 64] >> (f % 64) & 1 == 1
    }

    /// Whether `memo` knows hyperedge `f` to be linear.
    fn linear(memo: &ProbeMemo, f: usize) -> bool {
        !bit(&memo.shared, f)
    }

    /// A copy of the memo `h` keeps: the complete one, else the
    /// unfinished one.
    fn kept(h: &Hypergraph) -> Option<ProbeMemo> {
        let slot = h.probe_memo();
        slot.complete.get().cloned().or_else(|| slot.lock().clone())
    }

    /// The hyperedges whose contained bit is set in `h`'s memo.
    fn contained(h: &Hypergraph) -> Vec<EdgeId> {
        let memo = kept(h).expect("a k-core ran");
        h.edges()
            .filter(|f| bit(&memo.contained, f.index()))
            .collect()
    }

    /// Whether no other hyperedge of `h` shares two of `f`'s pins, by
    /// brute force.
    fn brute_linear(h: &Hypergraph, f: EdgeId) -> bool {
        let pins = h.pins(f);
        let overlap = |g: EdgeId| h.pins(g).iter().filter(|v| pins.contains(v)).count();
        h.edges().filter(|&g| g != f).all(|g| overlap(g) <= 1)
    }

    /// `h`'s memo is complete, and its contained bits are the raw
    /// oracle's non-maximal hyperedges.
    fn assert_contained_match_h(h: &Hypergraph) {
        let memo = kept(h).expect("a k-core ran");
        assert_eq!(memo.reached, h.num_edges());
        assert_eq!(contained(h), crate::reduce::non_maximal_edges_naive(h));
    }

    #[test]
    fn u6000_three_core_needs_few_subset_tests() {
        // hgperf's u6000, whose 3-core deletes 6 hyperedges. Probing
        // each hyperedge once per round, behind the signature filter,
        // takes 6 sorted merges to find them; without both, and without
        // the linear bits, 8,182. 4,387 of the 4,500 hyperedges share
        // at most one pin with any other, so they are probed only once
        // a peel leaves them one alive pin or none. The first call's
        // memo build gives the 113 others a raw probe each, and finds
        // them all maximal in H; so round one, cold or warm, skips the
        // untouched ones and probes only the 52 the peel touches that
        // are non-linear or kept fewer than two pins; round two probes
        // none. Exact counts: a change to which hyperedges are probed or
        // merged moves them.
        let h = uniform_random_hypergraph(6000, 4500, 5, 41);
        for (pass, want) in [
            ("cold", (2, 1694, 6, 6, 52, 113)),
            ("warm", (2, 1694, 6, 6, 52, 0)),
        ] {
            let s = peeled_state(&h, 3);
            assert_eq!(work(&s), want, "{pass}");
            let core = s.core();
            assert_eq!(
                (core.vertices.len(), core.edges.len(), core.pins),
                (4306, 4494, 19884)
            );
            assert_eq!(core.vertices.capacity(), 4306);
            assert_eq!(core.edges.capacity(), 4494);
        }
        let dl = Deadline::none();
        let mut s = State::new(&h, &dl).unwrap();
        s.k = 3;
        s.vertex_phase(&dl)
            .and_then(|()| s.edge_phase(&dl))
            .unwrap();
        assert_eq!((s.edge_probes, s.raw_probes), (52, 0));
        assert_contained_match_h(&h);
    }

    /// The Cellzome golden dataset.
    fn cellzome() -> Hypergraph {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/cellzome-2004.hgr");
        let text = std::fs::read_to_string(path).expect("golden dataset present");
        crate::io::read_hgr(&text).unwrap()
    }

    #[test]
    fn contained_bits_are_the_non_maximal_hyperedges() {
        // hgperf's u6000 and the Cellzome golden dataset: a complete
        // memo's contained bits are the reduce's non-maximal hyperedges,
        // found by overlap counting.
        for h in [uniform_random_hypergraph(6000, 4500, 5, 41), cellzome()] {
            probe_kcore(&h, 3);
            assert_eq!(contained(&h), crate::non_maximal_edges(&h));
        }
    }

    #[test]
    fn max_cores_pin_their_work_counters() {
        // hgperf's u6000 and the Cellzome golden dataset, decomposed to
        // the empty core the way `probe_decompose_with` does, on a fresh
        // hypergraph and again on the same one. The first builds the
        // memo, which gives a raw probe to every hyperedge but the linear
        // ones with two or more pins (113 of u6000's 4,500, 220 of
        // Cellzome's 232), and counts their merges (101 on Cellzome,
        // which finds its 101 non-maximal ones). Level 1's first peel
        // takes only isolated vertices, so both decompositions probe
        // only the ones non-maximal in H at level 1 (none of u6000's, 101
        // of Cellzome's). A linear hyperedge is probed only once it is
        // left one alive pin or none.
        for (h, want_cold, want_warm, want_core) in [
            (
                uniform_random_hypergraph(6000, 4500, 5, 41),
                (21, 6000, 4500, 3281, 4740, 113),
                (21, 6000, 4500, 3281, 4740, 0),
                (5, 1473, 3190, 8617),
            ),
            (
                cellzome(),
                (17, 1361, 232, 281, 528, 220),
                (17, 1361, 232, 180, 528, 0),
                (6, 41, 54, 246),
            ),
        ] {
            for want_work in [want_cold, want_warm] {
                let dl = Deadline::none();
                let mut s = State::new(&h, &dl).unwrap();
                let d = s.decompose(&dl).unwrap();
                assert_eq!(work(&s), want_work);
                let mc = d.max_core.unwrap();
                let got = (mc.k, mc.vertices.len(), mc.edges.len(), mc.pins);
                assert_eq!(got, want_core);
                assert_eq!(mc.vertices.capacity(), mc.vertices.len());
                assert_eq!(mc.edges.capacity(), mc.edges.len());
            }
            assert_contained_match_h(&h);
        }
    }

    #[test]
    fn signature_false_positive_falls_to_the_merge() {
        // f = {a, c, d} pivots on c, whose other hyperedge is the larger
        // g = {b, c, d, u}. They share two pins, so neither is linear and
        // f is probed. When b's signature bit is a's, g passes the filter
        // and the merge rejects it; otherwise the filter alone does.
        let bit = |v: u32| sig_bit(VertexId(v));
        let (a, c, d, u, x, y) = (0, 1, 2, 3, 4, 5);
        let collides = (6..).find(|&v| bit(v) == bit(a)).unwrap();
        let misses = (6..)
            .find(|&v| bit(v) & (bit(a) | bit(c) | bit(d)) == 0)
            .unwrap();
        assert_eq!((bit(c) | bit(d) | bit(u)) & bit(a), 0);
        for (b, tests) in [(collides, 1), (misses, 0)] {
            let mut hb = HypergraphBuilder::new(collides.max(misses) as usize + 1);
            hb.add_edge([a, c, d]);
            hb.add_edge([b, c, d, u]);
            hb.add_edge([a, x]);
            hb.add_edge([a, y]);
            let h = hb.build();
            // The memo build makes the probe, and round one none.
            let s = peeled_state(&h, 0);
            assert_eq!((s.subset_tests, s.edges_deleted), (tests, 0), "b = {b}");
            let memo = kept(&h).unwrap();
            let got: Vec<bool> = (0..4).map(|f| linear(&memo, f)).collect();
            assert_eq!(got, [false, false, true, true], "b = {b}");
            assert_matches_naive_cores(&h);
        }
        // Vertex ids from two signature bits: nearly every candidate
        // passes the filter, so the merges decide.
        let ids: Vec<u32> = (0..).filter(|&v| bit(v) & 0b11 != 0).take(24).collect();
        for seed in 0..4u64 {
            let mut hb = HypergraphBuilder::new(*ids.last().unwrap() as usize + 1);
            for r in [2, 3] {
                let g = uniform_random_hypergraph(ids.len(), 40, r, seed + 10 * r as u64);
                for f in g.edges() {
                    hb.add_edge(g.pins(f).iter().map(|v| ids[v.index()]));
                }
            }
            assert_matches_naive_cores(&hb.build());
        }
    }

    #[test]
    fn saturated_signatures_fall_to_the_merge() {
        // Hyperedges of 64+ pins, nested and duplicated: each sets every
        // bit, so the filter passes every candidate among them.
        let mut b = HypergraphBuilder::new(200);
        for r in [0..128, 0..128, 0..100, 1..129, 10..110, 64..192] {
            b.add_edge(r);
        }
        for v in 100..199 {
            b.add_edge([v, v + 1]);
        }
        b.add_edge([0, 150]);
        let h = b.build();
        let s = State::new(&h, &Deadline::none()).unwrap();
        assert!(s.memo.sig[..6].iter().all(|&sig| sig == u64::MAX));
        assert_matches_naive_cores(&h);
    }

    #[test]
    fn star_builds_its_memo_in_work_linear_in_its_pins() {
        // Two-pin hyperedges {0, i} through one hub: a scan of each would
        // walk the hub's m hyperedges, Θ(m²) in all. Each is over the
        // cap (m + 1 > 8 · (2 + 1)), so the pass reads each hyperedge's
        // two degrees and scans none: every hyperedge is left unproven
        // and given a raw probe, which pivots on its leaf and walks the
        // leaf's one hyperedge.
        let m = 3 * hgobs::CHECK_INTERVAL as usize;
        let mut b = HypergraphBuilder::new(m + 1);
        for i in 1..=m as u32 {
            b.add_edge([0, i]);
        }
        let h = b.build();
        let built = |dl: &Deadline| {
            let mut memo = ProbeMemo::new(h.csr(), &Deadline::none(), &mut 0).unwrap();
            let pass = memo.build(h.csr(), dl);
            (memo, pass.visited)
        };
        let (memo, visited) = built(&Deadline::none());
        assert_eq!(visited, 3 * m);
        assert!((0..m).all(|f| !linear(&memo, f) && !bit(&memo.contained, f)));
        let s = peeled_state(&h, 1);
        assert_eq!(work(&s), (1, 0, 0, 0, 0, m as u64));
        assert_eq!((s.vertices_alive, s.edges_alive), (m + 1, m));
        assert!(probe_kcore(&h, 2).is_empty());
        // Pre-cancelled, the pass reads the clock before its work passes
        // one check interval, and leaves the rest unproven.
        let dl = Deadline::cancellable();
        dl.cancel();
        let (memo, visited) = built(&dl);
        assert!(visited <= hgobs::CHECK_INTERVAL as usize, "{visited}");
        assert!((0..m).all(|f| !linear(&memo, f)));
    }

    #[test]
    fn linear_pass_cut_by_the_deadline_keeps_what_it_proved() {
        // The complete graph on 32 vertices as two-pin hyperedges, every
        // fifth followed by a copy: 596 hyperedges, so the signatures
        // tick fewer times than a check interval, while each scan walks
        // over 60 incidences and the pass reads the clock within a
        // dozen or so hyperedges.
        let n = 32u32;
        let mut b = HypergraphBuilder::new(n as usize);
        let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |c| [a, c]));
        for (i, pair) in pairs.enumerate() {
            b.add_edge(pair);
            if i % 5 == 0 {
                b.add_edge(pair);
            }
        }
        let h = b.build();
        let m = h.num_edges();
        let dl = Deadline::cancellable();
        dl.cancel();
        let mut memo = ProbeMemo::new(h.csr(), &dl, &mut 0).unwrap();
        let visited = memo.build(h.csr(), &dl).visited;
        assert!(
            visited > 0 && visited <= hgobs::CHECK_INTERVAL as usize,
            "{visited}"
        );
        // Pre-cancelled, the call still fails in the state build, but the
        // memo is kept with the scanned hyperedges' bits, each right:
        // every linear bit clear is linear by brute force, every
        // contained bit clear is maximal in H, and both bits are set from
        // the cut on.
        let err = probe_kcore_with(&h, 2, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.probe.state");
        assert_eq!(err.work_done, 0, "{err:?}");
        let memo = kept(&h).expect("the cut pass keeps the memo");
        let want: Vec<bool> = h.edges().map(|f| brute_linear(&h, f)).collect();
        let proven: Vec<usize> = (0..m).filter(|&f| linear(&memo, f)).collect();
        assert!(proven.iter().all(|&f| want[f]), "{proven:?}");
        let linear_ones = want.iter().filter(|&&w| w).count();
        assert!(!proven.is_empty() && proven.len() < linear_ones / 10);
        let non_maximal = crate::reduce::non_maximal_edges_naive(&h);
        for f in h.edges() {
            let i = f.index();
            if !bit(&memo.contained, i) {
                assert!(!non_maximal.contains(&f), "{f:?}");
            }
            if i >= memo.reached {
                assert!(bit(&memo.shared, i) && bit(&memo.contained, i), "{f:?}");
            }
        }
        // The next call answers, and a fresh build proves every one.
        for k in [2, 31, 32] {
            assert_equivalent(&h, k);
        }
        let fresh = rebuilt(&h);
        assert_equivalent(&fresh, 31);
        let full = kept(&fresh).unwrap();
        assert_eq!((0..m).map(|f| linear(&full, f)).collect::<Vec<_>>(), want);
    }

    #[test]
    fn build_cut_by_the_deadline_is_continued_by_the_next_call() {
        // Uniform hyperedges plus a nested subset of every third and a
        // copy of every fifth: 307 hyperedges on 100 vertices, so a
        // call's state build ticks fewer times than a check interval,
        // while the memo's pass walks many check intervals of
        // incidences. Each call's deadline is cancelled before it starts.
        let base = uniform_random_hypergraph(100, 200, 4, 7);
        let mut b = HypergraphBuilder::new(base.num_vertices());
        for f in base.edges() {
            let pins: Vec<u32> = base.pins(f).iter().map(|v| v.0).collect();
            b.add_edge(pins.iter().copied());
            if f.0 % 3 == 0 {
                b.add_edge(pins[1..].iter().copied());
            }
            if f.0 % 5 == 0 {
                b.add_edge(pins.iter().copied());
            }
        }
        let h = b.build();
        let m = h.num_edges();
        let fresh = rebuilt(&h);
        probe_kcore(&fresh, 3);
        let full = kept(&fresh).unwrap();
        let (want_v, want_e) = naive_kcore(&h, 3);
        let dl = Deadline::cancellable();
        dl.cancel();
        let (mut reached, mut calls) = (0, 0);
        while reached < m {
            // Each call advances the build, and the memo it keeps holds
            // the fresh build's bits below its cursor, both bits set from
            // it on.
            let mut s = State::new(&h, &dl).expect("no tick reads the clock");
            let memo = kept(&h).unwrap();
            assert!(memo.reached > reached, "call {calls} stalled at {reached}");
            reached = memo.reached;
            calls += 1;
            for f in 0..m {
                let got = (bit(&memo.shared, f), bit(&memo.contained, f));
                let want = (bit(&full.shared, f), bit(&full.contained, f));
                assert_eq!(got, if f < reached { want } else { (true, true) }, "e{f}");
            }
            // The core peeled from that memo is the oracle's.
            let none = Deadline::none();
            s.peel(3, &none, none.trace()).unwrap();
            let core = s.core();
            assert_eq!(core.vertices, want_v);
            assert_eq!(
                edge_contents(&h, &core.edges, &core.vertices),
                edge_contents(&h, &want_e, &want_v)
            );
        }
        assert!(calls >= 4, "{calls} calls");
        let memo = kept(&h).unwrap();
        assert_eq!(
            (&memo.sig, &memo.shared, &memo.contained),
            (&full.sig, &full.shared, &full.contained)
        );
    }

    #[test]
    fn linear_hyperedge_left_one_pin_is_deleted() {
        // f0 = {0,1}, the triangle f1 = {0,2}, f2 = {2,3}, f3 = {0,3},
        // and f4 = {4,5}: no two share two pins, so every bit is set. At
        // k = 2 the first peel takes vertices 1, 4 and 5. f0 is left {0},
        // which f1 and f3 hold, and f4 is left empty: both must go,
        // whatever their bits say. The triangle is still skipped.
        let mut b = HypergraphBuilder::new(6);
        for pins in [[0, 1], [0, 2], [2, 3], [0, 3], [4, 5]] {
            b.add_edge(pins);
        }
        let h = b.build();
        let s = peeled_state(&h, 2);
        let memo = kept(&h).unwrap();
        assert!((0..5).all(|f| linear(&memo, f)));
        let core = s.core();
        assert_eq!(core.vertices, [0, 2, 3].map(VertexId));
        assert_eq!(core.edges, [1, 2, 3].map(EdgeId));
        assert_eq!(work(&s), (2, 3, 2, 1, 2, 0));
        assert_matches_naive_cores(&h);
    }

    /// Random hypergraphs on up to 16 vertices: hyperedges of up to 5
    /// pins, each followed by a random subset of itself or of an earlier
    /// one, so copies, nested, 1-pin and empty hyperedges are common.
    fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
        (1..=16u32).prop_flat_map(|n| {
            let edge = (proptest::collection::vec(0..n, 0..=5), 0..16usize, 0u32..32);
            proptest::collection::vec(edge, 1..=14).prop_map(move |edges| {
                let mut b = HypergraphBuilder::new(n as usize);
                for (i, (pins, of, drop)) in edges.iter().enumerate() {
                    b.add_edge(pins.iter().copied());
                    let kept = edges[of % (i + 1)].0.iter().enumerate();
                    b.add_edge(kept.filter(|&(j, _)| drop >> j & 1 == 0).map(|(_, &v)| v));
                }
                b.build()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each linear bit is a brute-force "no other hyperedge shares
        /// two pins" for every hyperedge within the scan cap, and clear
        /// for every one over it; each contained bit is the naive
        /// reduce's; the gated engine answers as the oracle does:
        /// `probe_kcore` at random k and `probe_decompose`, each on a
        /// fresh hypergraph (cold) and again on the same one (warm).
        #[test]
        fn linear_bits_and_gated_cores_match_the_oracle(
            (h, ks) in arb_hypergraph()
                .prop_flat_map(|h| (Just(h), proptest::collection::vec(0u32..6, 1..5)))
        ) {
            let oracle = naive_cores(&h);
            let fresh = rebuilt(&h);
            assert_decomposition(&fresh, probe_decompose(&fresh), &oracle);
            for &k in &ks {
                assert_equivalent(&h, k);
            }
            assert_decomposition(&h, probe_decompose(&h), &oracle);
            assert_decomposition(&fresh, probe_decompose(&fresh), &oracle);
            for &k in &ks {
                assert_equivalent(&fresh, k);
            }
            let memo = kept(&h).unwrap();
            for f in h.edges() {
                let pins = h.pins(f);
                let degrees = || pins.iter().map(|&v| h.vertex_degree(v));
                let (sum, least) = (degrees().sum::<usize>(), degrees().min().unwrap_or(0));
                let scanned = pins.len() < 2 || sum <= SCAN_CAP * (pins.len() + least);
                let want = scanned && brute_linear(&h, f);
                prop_assert_eq!(linear(&memo, f.index()), want, "{:?}", f);
            }
            prop_assert_eq!(contained(&h), crate::reduce::non_maximal_edges_naive(&h));
        }
    }

    #[test]
    fn fold_keeps_the_smaller_id_of_copies_that_end_up_identical() {
        // At k = 2, round one's vertex phase peels vertex 2 (degree 1)
        // before any probe, so f1 = {0,1,2} ties f0 = {0,1} and the tie
        // rule keeps f0. A reduce before the peel (`naive_kcore`,
        // `csr_kcore`) deletes f0 ⊂ f1 first and keeps f1; both keep
        // the contents {0,1}.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 3]);
        b.add_edge([1, 3]);
        let h = b.build();
        assert_eq!(probe_kcore(&h, 2).edges, [EdgeId(0), EdgeId(2), EdgeId(3)]);
        assert_eq!(naive_kcore(&h, 2).1, [EdgeId(1), EdgeId(2), EdgeId(3)]);
        assert_eq!(
            crate::csr_kcore(&h, 2).edges,
            [EdgeId(1), EdgeId(2), EdgeId(3)]
        );
        assert_equivalent(&h, 2);
    }

    #[test]
    fn memo_keeps_the_tie_rule_at_every_k() {
        // The fixture above, cold at k = 2, then warm at k = 2, 1, 0 and
        // 2 again. f0 = {0,1} lies in f1 = {0,1,2}, so its contained bit
        // is set; at k = 2 it is still probed and kept, since f1 shrinks
        // to a tie with it and loses on id.
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([0, 1, 2]);
        b.add_edge([0, 3]);
        b.add_edge([1, 3]);
        let h = b.build();
        for k in [2, 2, 1, 0, 2] {
            assert_equivalent(&h, k);
            let cold = probe_kcore(&rebuilt(&h), k);
            let warm = probe_kcore(&h, k);
            assert_eq!((&warm.vertices, &warm.edges), (&cold.vertices, &cold.edges));
            if k == 2 {
                assert_eq!(warm.edges, [EdgeId(0), EdgeId(2), EdgeId(3)]);
            }
        }
        // f2 and f3 share one pin with each other hyperedge, so they are
        // maximal in H without a raw probe.
        assert_eq!(contained(&h), [EdgeId(0)]);
        let memo = kept(&h).unwrap();
        let got: Vec<_> = (0..4).map(|f| linear(&memo, f)).collect();
        assert_eq!(got, [false, false, true, true]);
    }

    #[test]
    fn threads_racing_on_a_cold_memo_get_the_oracle_answers() {
        // Uniform hyperedges plus a nested subset of every third and a
        // copy of every fifth, so contained bits of both kinds are set. Two
        // threads start together on one cold hypergraph at different k.
        for seed in 0..6 {
            let base = uniform_random_hypergraph(300, 500, 5, seed);
            let mut b = HypergraphBuilder::new(base.num_vertices());
            for f in base.edges() {
                let pins: Vec<u32> = base.pins(f).iter().map(|v| v.0).collect();
                b.add_edge(pins.iter().copied());
                if f.0 % 3 == 0 {
                    b.add_edge(pins[1..].iter().copied());
                }
                if f.0 % 5 == 0 {
                    b.add_edge(pins.iter().copied());
                }
            }
            let h = b.build();
            let want: Vec<_> = [2, 3].map(|k| naive_kcore(&h, k)).into();
            let start = Barrier::new(2);
            let got: Vec<KCore> = std::thread::scope(|scope| {
                let runs = [2, 3].map(|k| {
                    let (h, start) = (&h, &start);
                    scope.spawn(move || {
                        start.wait();
                        probe_kcore(h, k)
                    })
                });
                runs.map(|run| run.join().unwrap()).into()
            });
            for (core, (nv, ne)) in got.iter().zip(&want) {
                assert_eq!(&core.vertices, nv, "seed {seed}, k = {}", core.k);
                assert_eq!(
                    edge_contents(&h, &core.edges, &core.vertices),
                    edge_contents(&h, ne, nv),
                    "seed {seed}, k = {}",
                    core.k
                );
            }
            assert_contained_match_h(&h);
        }
    }

    #[test]
    fn traced_decompose_records_one_peel_phase_per_level() {
        let h = planted_core_hypergraph(30, 40, 6, 200, 17);
        let trace = hgobs::TraceCtx::new(7);
        let d = probe_decompose_with(&h, &Deadline::none().with_trace(trace.clone())).unwrap();
        let events = trace.events();
        // One peel per level, plus the level that empties the core; the
        // reduce is level 1's first edge phase, inside its peel. Every
        // vertex is peeled exactly once across them.
        assert!(
            events.iter().all(|e| e.phase == "kcore.probe.peel"),
            "{events:?}"
        );
        assert_eq!(events.len(), d.profile.len() + 1, "{events:?}");
        let peeled: u64 = events.iter().map(|e| e.work).sum();
        assert_eq!(peeled, h.num_vertices() as u64);
    }

    #[test]
    fn pre_cancelled_decompose_stops_at_the_round_with_zero_work() {
        let h = uniform_random_hypergraph(200, 300, 4, 21);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = probe_decompose_with(&h, &dl).unwrap_err();
        assert_eq!(err.phase, "kcore.probe.round");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn decompose_cancelled_after_the_first_level_reports_partial_work() {
        // Ten isolated vertices go at level 1; at level 2 the path
        // {i, i+1} unravels from both ends, two vertices per round, for
        // ~10k rounds; the faces of a tetrahedron hold out to level 4.
        // A watcher cancels once level 1's peel is traced.
        let len = 20_000u32;
        let mut b = HypergraphBuilder::new(len as usize + 14);
        for i in 0..len - 1 {
            b.add_edge([i, i + 1]);
        }
        let t = len + 10;
        for skip in 0..4 {
            b.add_edge((t..t + 4).filter(|&v| v != t + skip));
        }
        let h = b.build();
        let n = h.num_vertices() as u64;
        let trace = hgobs::TraceCtx::new(3);
        let dl = Deadline::cancellable().with_trace(trace.clone());
        let watcher = {
            let dl = dl.clone();
            std::thread::spawn(move || {
                while !trace.events().iter().any(|e| e.phase == "kcore.probe.peel") {
                    std::thread::yield_now();
                }
                dl.cancel();
            })
        };
        let out = probe_decompose_with(&h, &dl);
        watcher.join().unwrap();
        match out {
            Err(err) => {
                assert!(err.phase.starts_with("kcore.probe."), "{err:?}");
                assert!(err.work_done >= 10 && err.work_done < n, "{err:?}");
            }
            // A host that finishes the sweep before the watcher runs.
            Ok(d) => assert_eq!(
                d.profile,
                vec![
                    (1, len as usize + 4, len as usize + 3),
                    (2, 4, 4),
                    (3, 4, 4)
                ]
            ),
        }
    }
}
