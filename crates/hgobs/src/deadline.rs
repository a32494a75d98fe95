//! Cooperative deadlines and cancellation for long-running algorithms.
//!
//! A [`Deadline`] is a cheap, cloneable token: an atomic cancel flag, a
//! start instant, and an optional wall-clock budget. Hot loops consult
//! it cooperatively — every iteration via the amortized [`Deadline::tick`]
//! (which only reads the clock every [`CHECK_INTERVAL`] calls), or at
//! coarser natural boundaries via [`Deadline::expired`] — and bail out
//! with a [`DeadlineExceeded`] carrying partial-work counters.
//!
//! # Cross-thread propagation
//!
//! Clones share one flag. The first observer whose clock check trips the
//! budget *latches* the cancel flag, so sibling workers in a
//! `std::thread::scope` (parcore's splitter) notice via a single relaxed
//! atomic load on their next check without ever reading the clock
//! themselves.
//! [`Deadline::cancel`] latches the same flag manually (e.g. from a
//! shutdown path).
//!
//! # Example
//!
//! ```
//! use hgobs::Deadline;
//! use std::time::Duration;
//!
//! let dl = Deadline::after(Duration::from_millis(50));
//! let mut ticks = 0u32;
//! let mut done = 0u64;
//! for _ in 0..10 {
//!     if dl.tick(&mut ticks) {
//!         return; // would return Err(dl.exceeded("phase", done)) in real code
//!     }
//!     done += 1;
//! }
//! assert_eq!(done, 10);
//! assert!(Deadline::none().elapsed() >= Duration::ZERO);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trace::TraceCtx;

/// How many [`Deadline::tick`] calls elapse between wall-clock reads.
///
/// Power of two so the amortization test below stays a cheap mask; at
/// roughly a microsecond of work per loop iteration this bounds deadline
/// overshoot to about a millisecond.
pub const CHECK_INTERVAL: u32 = 1024;

struct Inner {
    cancelled: AtomicBool,
    start: Instant,
    budget: Option<Duration>,
}

/// A cooperative cancellation/deadline token shared by reference or clone.
///
/// [`Deadline::none`] is the zero-cost default: no allocation, and every
/// check is a single `is_none` branch. Budgeted and cancellable tokens
/// allocate one `Arc` at construction and are cheap to clone into worker
/// threads.
#[derive(Clone)]
pub struct Deadline {
    inner: Option<Arc<Inner>>,
    /// The request trace riding along, if any. Living inside the deadline
    /// means every kernel that already threads a `&Deadline` — and every
    /// worker that clones one — can emit trace events with no signature
    /// changes; see [`Deadline::trace`].
    trace: TraceCtx,
}

impl Deadline {
    /// A token that never expires and cannot be cancelled.
    pub fn none() -> Self {
        Deadline {
            inner: None,
            trace: TraceCtx::disabled(),
        }
    }

    /// A token with no wall-clock budget that still honors [`cancel`].
    ///
    /// [`cancel`]: Deadline::cancel
    pub fn cancellable() -> Self {
        Deadline {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                start: Instant::now(),
                budget: None,
            })),
            trace: TraceCtx::disabled(),
        }
    }

    /// A token that expires `budget` after this call.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                start: Instant::now(),
                budget: Some(budget),
            })),
            trace: TraceCtx::disabled(),
        }
    }

    /// Attach a request trace; clones (and the workers they're handed
    /// to) share its event list. The kernels' cost model is unchanged:
    /// a disabled trace makes [`Deadline::trace`] a field read and every
    /// phase open a branch.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// The trace riding on this token ([`TraceCtx::disabled`] when none).
    #[inline]
    pub fn trace(&self) -> &TraceCtx {
        &self.trace
    }

    /// Convenience for [`Deadline::after`] with a millisecond budget.
    pub fn after_ms(ms: u64) -> Self {
        Deadline::after(Duration::from_millis(ms))
    }

    /// True when this token can never expire ([`Deadline::none`]).
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Latch the cancel flag; every clone observes it on its next check.
    /// No-op on [`Deadline::none`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Flag-only check: one relaxed load, no clock read. True once the
    /// token was cancelled or another observer latched budget expiry.
    /// Use inside parallel inner loops where siblings do the clock work.
    #[inline]
    pub fn cancelled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.cancelled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Time since the token was created (zero for [`Deadline::none`]).
    pub fn elapsed(&self) -> Duration {
        match &self.inner {
            Some(inner) => inner.start.elapsed(),
            None => Duration::ZERO,
        }
    }

    /// The wall-clock budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.inner.as_ref().and_then(|inner| inner.budget)
    }

    /// Full check: cancel flag first, then the clock against the budget.
    /// A tripped budget latches the shared flag so sibling observers see
    /// cancellation without reading the clock.
    #[inline]
    pub fn expired(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match inner.budget {
            Some(budget) if inner.start.elapsed() >= budget => {
                inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Amortized per-iteration check for hot loops. The caller owns the
    /// counter; the clock is consulted only every [`CHECK_INTERVAL`]
    /// calls (a wrapping increment and mask otherwise). Returns true
    /// when the work should stop.
    #[inline]
    pub fn tick(&self, counter: &mut u32) -> bool {
        if self.inner.is_none() {
            return false;
        }
        *counter = counter.wrapping_add(1);
        if *counter & (CHECK_INTERVAL - 1) != 0 {
            return false;
        }
        self.expired()
    }

    /// [`Deadline::expired`] as a `Result`, for `?`-style propagation at
    /// phase boundaries.
    pub fn check(&self, phase: &'static str, work_done: u64) -> Result<(), DeadlineExceeded> {
        if self.expired() {
            Err(self.exceeded(phase, work_done))
        } else {
            Ok(())
        }
    }

    /// Build the error describing this token's expiry, recording the
    /// phase that noticed and how much work completed before it.
    pub fn exceeded(&self, phase: &'static str, work_done: u64) -> DeadlineExceeded {
        DeadlineExceeded {
            elapsed: self.elapsed(),
            budget: self.budget(),
            phase,
            work_done,
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

impl fmt::Debug for Deadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Deadline::none"),
            Some(inner) => f
                .debug_struct("Deadline")
                .field("cancelled", &inner.cancelled.load(Ordering::Relaxed))
                .field("elapsed", &inner.start.elapsed())
                .field("budget", &inner.budget)
                .finish(),
        }
    }
}

/// Returned by `*_with` algorithm variants when their [`Deadline`] fired.
///
/// Carries enough context to render an actionable 504 body: how long the
/// work ran, the budget it was given, which phase noticed, and a
/// phase-specific partial-work counter (BFS sources completed, vertices
/// peeled, overlap pairs counted, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// Wall-clock time from token creation to the failed check.
    pub elapsed: Duration,
    /// The budget the token was created with (`None` if cancelled manually).
    pub budget: Option<Duration>,
    /// The algorithm phase whose check fired, e.g. `"kcore.peel"`.
    pub phase: &'static str,
    /// Units of work completed before expiry; what a unit means is
    /// documented by each `*_with` function.
    pub work_done: u64,
}

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline exceeded after {:.1?} in {} ({} work units done",
            self.elapsed, self.phase, self.work_done
        )?;
        match self.budget {
            Some(budget) => write!(f, ", budget {:.1?})", budget),
            None => write!(f, ", cancelled)"),
        }
    }
}

impl std::error::Error for DeadlineExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let dl = Deadline::none();
        assert!(dl.is_unlimited());
        assert!(!dl.expired());
        assert!(!dl.cancelled());
        dl.cancel(); // no-op
        assert!(!dl.expired());
        let mut ticks = 0u32;
        for _ in 0..(3 * CHECK_INTERVAL) {
            assert!(!dl.tick(&mut ticks));
        }
        assert_eq!(ticks, 0, "none() must not even count ticks");
        assert!(dl.check("phase", 7).is_ok());
        assert_eq!(dl.budget(), None);
    }

    #[test]
    fn zero_budget_expires_immediately_and_latches() {
        let dl = Deadline::after(Duration::ZERO);
        assert!(!dl.cancelled(), "flag is only latched by a clock check");
        assert!(dl.expired());
        assert!(dl.cancelled(), "expiry must latch the shared flag");
        let err = dl.check("bfs.sweep", 42).unwrap_err();
        assert_eq!(err.phase, "bfs.sweep");
        assert_eq!(err.work_done, 42);
        assert_eq!(err.budget, Some(Duration::ZERO));
        let msg = err.to_string();
        assert!(msg.contains("bfs.sweep") && msg.contains("42"), "{msg}");
    }

    #[test]
    fn cancel_is_visible_through_clones() {
        let dl = Deadline::cancellable();
        let clone = dl.clone();
        assert!(!clone.expired());
        dl.cancel();
        assert!(clone.cancelled());
        assert!(clone.expired());
        let err = clone.exceeded("peel", 3);
        assert_eq!(err.budget, None);
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn tick_amortizes_clock_reads() {
        let dl = Deadline::after(Duration::ZERO);
        let mut ticks = 0u32;
        // The first CHECK_INTERVAL - 1 ticks never consult the clock.
        for _ in 0..CHECK_INTERVAL - 1 {
            assert!(!dl.tick(&mut ticks));
        }
        assert!(dl.tick(&mut ticks), "interval boundary must check");
    }

    #[test]
    fn trace_rides_through_clones() {
        let _g = crate::serial();
        let dl = Deadline::none();
        assert!(!dl.trace().is_enabled(), "traces are opt-in");
        let dl = Deadline::cancellable().with_trace(TraceCtx::new(9));
        let clone = dl.clone();
        clone.trace().phase("worker.phase").finish();
        let events = dl.trace().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, "worker.phase");
        assert_eq!(dl.trace().id(), 9);
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let dl = Deadline::after(Duration::from_secs(3600));
        assert!(!dl.expired());
        assert!(dl.check("phase", 0).is_ok());
        assert_eq!(dl.budget(), Some(Duration::from_secs(3600)));
        assert!(dl.elapsed() < Duration::from_secs(3600));
    }
}
