//! Lane masks and word-level summary bitmaps for the MS-BFS kernel.
//!
//! The sweep keeps one 256-bit frontier [`Mask`] per vertex (or
//! hyperedge), inside its [`Lane`]. A *summary* keeps one bit per mask:
//! bit `i % 64` of `summary[i / 64]` is set exactly when mask `i` is
//! nonzero. The kernel sets that bit as it delivers bits into a mask, so
//! [`drain`] walks only the set summary bits and an all-zero summary word
//! skips 64 masks without touching them. The pull direction walks its
//! worklist summary the same way.

/// `u64` words per source mask: each lane carries [`LANE_BITS`]
/// sources. The whole lane — both masks — is exactly one 64-byte cache
/// line, so a random expansion probe costs the same one miss it would
/// at one word per mask, while advancing four times as many sources.
/// At the workspace's baseline x86-64 target LLVM compiles each
/// elementwise `|`/`& !` pass over `[u64; 4]` to two 128-bit SSE2 ops;
/// the MS-BFS batch's AVX2 build compiles it to one 256-bit op.
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

/// Total set bits across a summary — one flat branchless popcount
/// sweep; the input to each pass's push/pull decision.
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

/// Drain a frontier: visit every entry marked in `summary` once, in
/// index order, handing `visit` its `front` mask and zeroing the mask and
/// its summary bit as it is consumed. Returns `false` when `visit` aborts
/// (deadline expiry), leaving the rest of the frontier in place; the next
/// batch zeroes every lane and summary before it starts. Always inlined,
/// so each build of the MS-BFS batch compiles its own push loop.
#[inline(always)]
pub fn drain(
    summary: &mut [u64],
    lanes: &mut [Lane],
    mut visit: impl FnMut(usize, Mask) -> bool,
) -> bool {
    for (w, word) in summary.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let i = (w << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let m = std::mem::replace(&mut lanes[i].front, MASK_ZERO);
            if !visit(i, m) {
                return false;
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

    /// Marks spread over 40 summary words, at word boundaries and in
    /// one dense run: every marked entry is visited once, in index order,
    /// with its own mask, and the frontier is all-zero afterwards.
    #[test]
    fn drain_visits_each_marked_entry_once_in_order() {
        let n = 2560;
        let mut lanes = vec![Lane::ZERO; n];
        let mut summary = vec![0u64; words_for(n)];
        let mut expect = Vec::new();
        for i in [0usize, 63, 64, 127, 700, 701, 702, 703, 2500, 2559] {
            let m = [(i as u64) | 1, 2, 0, i as u64];
            lanes[i].seen = m;
            lanes[i].front = m;
            mark(&mut summary, i);
            expect.push((i, m));
        }
        let mut got = Vec::new();
        assert!(drain(&mut summary, &mut lanes, |i, m| {
            got.push((i, m));
            true
        }));
        assert_eq!(got, expect);
        assert!(summary.iter().all(|&w| w == 0));
        assert!(lanes.iter().all(|l| mask_is_zero(&l.front)));
        // Draining consumes the frontier only; `seen` stays.
        for (i, m) in expect {
            assert_eq!(lanes[i].seen, m);
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
        let mut visits = 0;
        assert!(!drain(&mut summary, &mut lanes, |_, _| {
            visits += 1;
            false
        }));
        assert_eq!(visits, 1, "an aborted drain stops at once");
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
}
