//! Global per-run metric registry: counters and histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the global sink is recording. A single relaxed load — this
/// is the entire cost of every `counter!`/`hist!` call while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start recording into the global registry.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording (already-recorded data stays until drained).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

#[derive(Clone, Debug)]
pub(crate) struct Hist {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Dense log-linear bucket counts ([`crate::buckets`]); allocated on
    /// the first observation so untouched names stay four words.
    pub buckets: Vec<u64>,
}

impl Hist {
    const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.buckets.is_empty() {
            self.buckets = vec![0; crate::buckets::NUM_BUCKETS];
        }
        self.buckets[crate::buckets::bucket_index(v)] += 1;
    }
}

#[derive(Clone)]
pub(crate) struct Registry {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Hist>,
}

impl Registry {
    const fn new() -> Self {
        Self {
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

/// The locked registry. A poisoned lock still hands it out: a panic
/// under the lock can leave a merge partly done, but every map in the
/// registry stays valid.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Add `n` to a counter (prefer the `counter!` macro).
#[inline]
pub fn add_counter(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    // Allocate the key only on first use of each counter name.
    if let Some(c) = reg.counters.get_mut(name) {
        *c += n;
    } else {
        reg.counters.insert(name.to_string(), n);
    }
}

/// Record one histogram observation (prefer the `hist!` macro).
#[inline]
pub fn record_hist(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    if let Some(h) = reg.hists.get_mut(name) {
        h.record(value);
    } else {
        let mut h = Hist::new();
        h.record(value);
        reg.hists.insert(name.to_string(), h);
    }
}

/// Discard everything recorded so far.
pub fn reset() {
    let mut reg = registry();
    reg.counters.clear();
    reg.hists.clear();
}

pub(crate) fn drain() -> Registry {
    std::mem::replace(&mut *registry(), Registry::new())
}

/// Clone the registry without draining it. Long-lived processes (the
/// analytics server) render cumulative metrics from this while the
/// registry keeps accumulating.
pub(crate) fn snapshot() -> Registry {
    registry().clone()
}

/// Merge a previously drained [`crate::Report`] back into the registry,
/// bypassing the enabled check. Used by callers (like `hg profile`) that
/// section a run into per-phase drains but still want the run totals
/// present for a final whole-process report.
pub(crate) fn absorb_report(report: &crate::Report) {
    let mut reg = registry();
    for (k, &v) in &report.counters {
        *reg.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, h) in &report.histograms {
        let e = reg.hists.entry(k.clone()).or_insert_with(Hist::new);
        e.count += h.count;
        e.sum = e.sum.saturating_add(h.sum);
        if h.count > 0 {
            e.min = e.min.min(h.min);
            e.max = e.max.max(h.max);
        }
        if !h.buckets.is_empty() && e.buckets.is_empty() {
            e.buckets = vec![0; crate::buckets::NUM_BUCKETS];
        }
        for &(idx, n) in &h.buckets {
            e.buckets[idx as usize] += n;
        }
    }
}
