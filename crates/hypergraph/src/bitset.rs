//! Word-level summary bitmaps for the bitset BFS kernels.
//!
//! The MS-BFS sweeps keep one 256-bit frontier [`Mask`] per vertex (or
//! hyperedge), inside its [`Lane`]. On sparse levels — a handful of
//! frontier vertices in a graph of thousands — scanning every mask to
//! find the few nonzero ones dominates the traversal. A *summary* keeps
//! one bit per mask: bit `i % 64` of `summary[i / 64]` is set exactly
//! when mask `i` is nonzero. The kernels set that bit as they deliver
//! bits into a mask, so skipping a zero summary word skips 64 masks
//! without touching them.
//!
//! [`scan_active`] is the flat, branch-predictable u64-lane sweep that
//! decides each level's strategy: it returns the nonzero-word watermarks
//! (lowest and highest active summary index) and the active-word count,
//! from which the caller picks the sparse (summary-driven, zero words
//! skipped) or dense (flat range scan) expansion path.

/// `u64` words per source mask: each lane carries [`LANE_BITS`]
/// sources. The whole lane — both masks — is exactly one 64-byte cache
/// line, so a random expansion probe costs the same one miss it would
/// at one word per mask, while advancing four times as many sources.
/// The elementwise `|`/`& !` passes over `[u64; 4]` are exactly the
/// shape LLVM autovectorizes to 256-bit SIMD ops.
pub const LANE_WORDS: usize = 4;

/// Sources per lane (and per MS-BFS batch): `64 * LANE_WORDS`.
pub const LANE_BITS: usize = 64 * LANE_WORDS;

/// A multi-word source mask: bit `i` of word `i / 64` stands for batch
/// source `i`.
pub type Mask = [u64; LANE_WORDS];

/// The all-zero mask.
pub const MASK_ZERO: Mask = [0; LANE_WORDS];

/// `true` when no bit of `m` is set — a branchless OR-fold, so callers
/// can use it in arithmetic (`(!mask_is_zero(&m)) as u64`) without a
/// data-dependent branch.
#[inline]
pub fn mask_is_zero(m: &Mask) -> bool {
    m.iter().fold(0, |acc, &w| acc | w) == 0
}

/// Set bits across all words of `m`.
#[inline]
pub fn mask_count(m: &Mask) -> u64 {
    m.iter().map(|w| w.count_ones() as u64).sum()
}

/// `acc |= m`, elementwise (the pull direction's gather step).
#[inline]
pub fn mask_or_into(acc: &mut Mask, m: &Mask) {
    for w in 0..LANE_WORDS {
        acc[w] |= m[w];
    }
}

/// The mask with bits `0..len` set: "every source of a `len`-wide
/// batch". Saturation tests compare `seen` against this.
#[inline]
pub fn mask_full(len: usize) -> Mask {
    let mut m = MASK_ZERO;
    for (w, out) in m.iter_mut().enumerate() {
        let lo = w * 64;
        *out = if len >= lo + 64 {
            u64::MAX
        } else if len > lo {
            (1u64 << (len - lo)) - 1
        } else {
            0
        };
    }
    m
}

/// One vertex's (or hyperedge's) `seen` and `frontier` masks,
/// interleaved. The expansion passes always touch both masks of a
/// randomly addressed entry — `add = frontier & !seen`, then both get
/// the new bits ORed in — so keeping them in separate arrays costs two
/// cache misses per probe. One interleaved pair costs one, and the
/// `align(64)` keeps the 64-byte pair from ever straddling two cache
/// lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct Lane {
    /// Bit `i` set once source `i` has reached this entry.
    pub seen: Mask,
    /// Bit `i` set while source `i`'s frontier holds this entry.
    pub front: Mask,
}

impl Lane {
    /// The all-zero lane.
    pub const ZERO: Lane = Lane {
        seen: MASK_ZERO,
        front: MASK_ZERO,
    };

    /// `frontier & !seen`, the bits `m` would newly deliver here —
    /// elementwise, no branches.
    #[inline]
    pub fn fresh(&self, m: &Mask) -> Mask {
        let mut add = MASK_ZERO;
        for w in 0..LANE_WORDS {
            add[w] = m[w] & !self.seen[w];
        }
        add
    }

    /// OR `add` into both masks (the push/pull delivery step).
    #[inline]
    pub fn absorb(&mut self, add: &Mask) {
        for ((s, f), &a) in self.seen.iter_mut().zip(self.front.iter_mut()).zip(add) {
            *s |= a;
            *f |= a;
        }
    }

    /// `true` once every source in a `full`-masked batch has reached
    /// this entry — it can never produce new bits again.
    #[inline]
    pub fn saturated(&self, full: &Mask) -> bool {
        self.seen == *full
    }
}

/// Tallies of how the level drains ran; flushed to named counters by
/// the kernels that own them.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainStats {
    /// Levels drained by walking summary bits.
    pub sparse_passes: u64,
    /// Levels drained by a flat scan of the watermark range.
    pub dense_passes: u64,
    /// All-zero summary words skipped outright on sparse levels — each
    /// one is 64 mask words never touched.
    pub words_skipped: u64,
    /// Passes run in the pull direction (gather from unsaturated
    /// entries) instead of pushing the frontier.
    pub pull_passes: u64,
}

/// Number of `u64` summary words covering `len` mask words.
#[inline]
pub fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// Record that mask word `i` is (now) nonzero.
#[inline]
pub fn mark(summary: &mut [u64], i: usize) {
    summary[i >> 6] |= 1u64 << (i & 63);
}

/// One flat sweep over a summary: `(lo, hi, active)` where
/// `lo..hi` is the half-open range of summary indices holding any
/// nonzero word (the watermarks) and `active` counts nonzero summary
/// words inside it. `active == 0` means the whole mask is zero (and
/// `lo..hi` is empty).
#[inline]
pub fn scan_active(summary: &[u64]) -> (usize, usize, usize) {
    let mut lo = summary.len();
    let mut hi = 0usize;
    let mut active = 0usize;
    for (i, &w) in summary.iter().enumerate() {
        if w != 0 {
            active += 1;
            hi = i + 1;
            lo = lo.min(i);
        }
    }
    if active == 0 {
        (0, 0, 0)
    } else {
        (lo, hi, active)
    }
}

/// Total set bits across a summary — one flat branchless popcount
/// sweep; the input to the per-level push/pull and sparse/dense
/// strategy decisions.
#[inline]
pub fn count_bits(summary: &[u64]) -> u64 {
    summary.iter().map(|w| w.count_ones() as u64).sum()
}

/// Fill `summary` so bits `0..len` are set and any tail bits of the
/// last word are clear: the all-entries-eligible state (e.g. "every
/// lane still unsaturated" at the start of a batch).
pub fn fill_all(summary: &mut [u64], len: usize) {
    summary.fill(u64::MAX);
    if len & 63 != 0 {
        if let Some(last) = summary.last_mut() {
            *last = (1u64 << (len & 63)) - 1;
        }
    }
}

/// Sparse levels consult the summary bit by bit; dense levels scan the
/// watermark range flat. The crossover: a summary word is worth
/// consulting while fewer than one in [`DENSE_DIVISOR`] words inside
/// the watermark range is active.
pub const DENSE_DIVISOR: usize = 4;

/// `true` when the level should take the dense (flat-scan) path.
#[inline]
pub fn is_dense(lo: usize, hi: usize, active: usize) -> bool {
    active * DENSE_DIVISOR >= hi - lo
}

/// Drain one level's (summary, lanes) pair: visit every entry with a
/// nonzero `front` mask exactly once, zeroing the mask and its summary
/// bit as it is consumed. `(lo, hi, active)` come from a prior
/// [`scan_active`] of `summary`; sparse levels walk summary bits and
/// skip all-zero words outright, dense levels scan the watermark range
/// flat. Returns `false` when `visit` aborts (deadline expiry), leaving
/// the masks half-consumed — callers must treat the buffers as dirty.
#[inline]
pub fn drain_level(
    summary: &mut [u64],
    lanes: &mut [Lane],
    (lo, hi, active): (usize, usize, usize),
    stats: &mut DrainStats,
    mut visit: impl FnMut(usize, Mask) -> bool,
) -> bool {
    if is_dense(lo, hi, active) {
        stats.dense_passes += 1;
        for i in (lo << 6)..((hi << 6).min(lanes.len())) {
            let m = lanes[i].front;
            if mask_is_zero(&m) {
                continue;
            }
            lanes[i].front = MASK_ZERO;
            if !visit(i, m) {
                return false;
            }
        }
        summary[lo..hi].fill(0);
    } else {
        stats.sparse_passes += 1;
        stats.words_skipped += (hi - lo - active) as u64;
        for (w, word) in summary.iter_mut().enumerate().take(hi).skip(lo) {
            let mut sw = *word;
            if sw == 0 {
                continue;
            }
            *word = 0;
            while sw != 0 {
                let i = (w << 6) | sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let m = lanes[i].front;
                lanes[i].front = MASK_ZERO;
                if !visit(i, m) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(6000), 94);
    }

    #[test]
    fn mark_sets_the_word_bit() {
        let mut s = vec![0u64; 2];
        mark(&mut s, 0);
        mark(&mut s, 63);
        mark(&mut s, 64);
        assert_eq!(s[0], 1 | (1 << 63));
        assert_eq!(s[1], 1);
    }

    #[test]
    fn count_bits_and_fill_all() {
        let mut s = vec![0u64; 3];
        fill_all(&mut s, 130);
        assert_eq!(s, vec![u64::MAX, u64::MAX, 3]);
        assert_eq!(count_bits(&s), 130);
        let mut even = vec![0u64; 2];
        fill_all(&mut even, 128);
        assert_eq!(even, vec![u64::MAX, u64::MAX]);
        let mut one = vec![0u64; 1];
        fill_all(&mut one, 5);
        assert_eq!(one, vec![31]);
        assert_eq!(count_bits(&[]), 0);
    }

    #[test]
    fn scan_active_finds_watermarks() {
        assert_eq!(scan_active(&[]), (0, 0, 0));
        assert_eq!(scan_active(&[0, 0, 0]), (0, 0, 0));
        assert_eq!(scan_active(&[0, 4, 0]), (1, 2, 1));
        assert_eq!(scan_active(&[1, 0, 8]), (0, 3, 2));
        assert_eq!(scan_active(&[7]), (0, 1, 1));
    }

    /// Both drain strategies must consume exactly the nonzero lanes and
    /// leave summary and frontier masks all-zero.
    #[test]
    fn drain_consumes_all_active_lanes_in_both_modes() {
        for force_sparse in [false, true] {
            // Two active words 40 summary-words apart force the sparse
            // path; every-third-lane occupancy forces the dense path.
            let n = if force_sparse { 2560 } else { 130 };
            let mut lanes = vec![Lane::ZERO; n];
            let mut summary = vec![0u64; words_for(n)];
            let mut expect = Vec::new();
            let step = if force_sparse { 2500 } else { 3 };
            for i in (0..n).step_by(step) {
                let m = [(i as u64) | 1, 2, 0, i as u64];
                lanes[i].front = m;
                mark(&mut summary, i);
                expect.push((i, m));
            }
            let scan = scan_active(&summary);
            let mut stats = DrainStats::default();
            let mut got = Vec::new();
            let done = drain_level(&mut summary, &mut lanes, scan, &mut stats, |i, m| {
                got.push((i, m));
                true
            });
            assert!(done);
            assert_eq!(got, expect);
            assert!(summary.iter().all(|&w| w == 0));
            assert!(lanes.iter().all(|l| mask_is_zero(&l.front)));
            if force_sparse {
                assert_eq!(stats.sparse_passes, 1, "{stats:?}");
                assert!(stats.words_skipped > 0);
            } else {
                assert_eq!(stats.dense_passes, 1, "{stats:?}");
            }
        }
    }

    #[test]
    fn aborted_drain_reports_false() {
        let mut lanes = vec![Lane::ZERO; 70];
        let mut summary = vec![0u64; words_for(70)];
        for i in [0usize, 69] {
            lanes[i].front = [1, 0, 0, 0];
            mark(&mut summary, i);
        }
        let scan = scan_active(&summary);
        let mut stats = DrainStats::default();
        assert!(!drain_level(
            &mut summary,
            &mut lanes,
            scan,
            &mut stats,
            |_, _| false
        ));
    }

    #[test]
    fn mask_full_covers_partial_and_whole_batches() {
        assert_eq!(mask_full(0), MASK_ZERO);
        assert_eq!(mask_full(1), [1, 0, 0, 0]);
        assert_eq!(mask_full(64), [u64::MAX, 0, 0, 0]);
        assert_eq!(mask_full(65), [u64::MAX, 1, 0, 0]);
        assert_eq!(mask_full(200), [u64::MAX, u64::MAX, u64::MAX, 255]);
        assert_eq!(mask_full(LANE_BITS), [u64::MAX; LANE_WORDS]);
        for len in [0usize, 1, 63, 64, 65, 128, 200, LANE_BITS] {
            assert_eq!(mask_count(&mask_full(len)), len as u64, "{len}");
        }
    }

    #[test]
    fn lane_fresh_absorb_saturated_roundtrip() {
        let mut lane = Lane::ZERO;
        let full = mask_full(130);
        let first = [0b1010, 0, 0, 0];
        let add = lane.fresh(&first);
        assert_eq!(add, first);
        lane.absorb(&add);
        assert_eq!(lane.seen, first);
        assert_eq!(lane.front, first);
        // Re-delivering the same bits is a no-op.
        assert!(mask_is_zero(&lane.fresh(&first)));
        assert!(!lane.saturated(&full));
        let rest = lane.fresh(&full);
        lane.absorb(&rest);
        assert!(lane.saturated(&full));
        assert_eq!(mask_count(&lane.seen), 130);
    }

    #[test]
    fn lane_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Lane>(), 64);
        assert_eq!(std::mem::align_of::<Lane>(), 64);
    }

    #[test]
    fn density_switch_uses_span_not_len() {
        // 2 active words in a 3-word span is dense; 2 in 100 is sparse.
        assert!(is_dense(10, 13, 2));
        assert!(!is_dense(0, 100, 2));
        // A fully active span is always dense.
        assert!(is_dense(0, 5, 5));
    }
}
