//! Scoped-thread parallelism on `std::thread::scope`: the workspace's
//! one parallel substrate. Two entry points share one fan-out:
//!
//! * [`scoped_run`] — a fixed number of workers, one result each;
//! * `split` — one worker per core, claiming item indices from a
//!   shared cursor, so uneven items balance themselves; the engine
//!   behind [`par_msbfs`](crate::par_msbfs).
//!
//! Helper threads are spawned per call and joined before it returns;
//! there is no persistent pool. The calling thread is always worker 0,
//! so a single worker spawns nothing. A helper the OS refuses to start
//! runs on the calling thread instead, after worker 0, so a thread limit
//! costs parallelism but never an answer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Builder;

/// How many workers `split` runs when it has enough items:
/// `std::thread::available_parallelism()`, read once per process (1
/// when the platform cannot tell).
pub fn split_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Fan `f` out over `threads` workers and collect one result per
/// worker, in worker-index order. The closure receives its worker index
/// so callers can do static partitioning (`sources[i::threads]`) or
/// per-thread seeding. Worker 0 is the calling thread; the other
/// `threads - 1` are scoped OS threads spawned for this call, and any
/// the OS refuses run on the calling thread after worker 0.
///
/// # Panics
/// If `threads == 0` or any worker panics.
pub fn scoped_run<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_with(Builder::new, threads, f)
}

/// [`scoped_run`] with every helper spawned from `builder()`, so tests
/// can configure a spawn the OS refuses.
fn run_with<R, F>(builder: fn() -> Builder, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let f = &f;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|i| builder().spawn_scoped(scope, move || f(i)).ok())
            .collect();
        let mut out = Vec::with_capacity(threads);
        out.push(f(0));
        for (i, helper) in (1..threads).zip(helpers) {
            out.push(match helper {
                Some(h) => h.join().expect("worker panicked"),
                None => f(i),
            });
        }
        out
    })
}

/// The item indices one [`split`] worker claims: each `next` takes the
/// lowest index no worker has taken yet, until none are left.
pub(crate) struct Claims<'a> {
    cursor: &'a AtomicUsize,
    items: usize,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // Relaxed: `fetch_add` alone hands each index out exactly once,
        // and the cursor publishes no other data; results travel back
        // through the scope's join.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.items).then_some(i)
    }
}

/// Run `work(worker, claims)` on `min(width, items)` workers (at least
/// one) that claim the indices `0..items` from one shared cursor, so
/// every index goes to exactly one worker; returns one result per
/// worker, in worker order. Production callers pass [`split_width`];
/// tests force the widths a host may lack. A refused helper runs after
/// worker 0 has drained the cursor, so its share falls to the caller.
pub(crate) fn split<R, F>(width: usize, items: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Claims<'_>) -> R + Sync,
{
    split_with(Builder::new, width, items, work)
}

/// [`split`] with every helper spawned from `builder()`.
fn split_with<R, F>(builder: fn() -> Builder, width: usize, items: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Claims<'_>) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    run_with(builder, width.min(items).max(1), |worker| {
        work(
            worker,
            Claims {
                cursor: &cursor,
                items,
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = scoped_run(0, |i| i);
    }

    #[test]
    fn scoped_run_returns_in_index_order() {
        let out = scoped_run(8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn scoped_run_shares_state_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        scoped_run(4, |i| total.fetch_add(i + 1, Ordering::Relaxed));
        assert_eq!(total.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
    }

    #[test]
    fn split_claims_every_item_once_in_worker_order() {
        let caller = std::thread::current().id();
        for width in [1, 2, 3, 8] {
            for items in [0, 1, 2, 5, 64] {
                let out = split(width, items, |worker, claims| {
                    (
                        worker,
                        std::thread::current().id(),
                        claims.collect::<Vec<_>>(),
                    )
                });
                // Capped at the item count, never below one worker.
                assert_eq!(out.len(), width.min(items).max(1), "{width}/{items}");
                for (i, (worker, _, _)) in out.iter().enumerate() {
                    assert_eq!(*worker, i, "{width}/{items}");
                }
                // Worker 0 runs on the calling thread; helpers do not.
                assert_eq!(out[0].1, caller, "{width}/{items}");
                assert!(out[1..].iter().all(|w| w.1 != caller), "{width}/{items}");
                let mut claimed: Vec<usize> =
                    out.iter().flat_map(|w| w.2.iter().copied()).collect();
                claimed.sort_unstable();
                assert_eq!(claimed, (0..items).collect::<Vec<_>>(), "{width}/{items}");
            }
        }
    }

    /// A 1 TiB stack: the OS refuses to map it (`EAGAIN` on Linux), so
    /// every helper spawned from this builder fails to start.
    fn refused() -> Builder {
        Builder::new().stack_size(1 << 40)
    }

    #[test]
    fn refused_spawns_run_on_the_caller_in_worker_order() {
        assert_eq!(run_with(refused, 3, |i| i), vec![0, 1, 2]);
        for width in [2, 3] {
            for items in [0, 1, 5, 64] {
                let out = split_with(refused, width, items, |worker, claims| {
                    (worker, claims.collect::<Vec<_>>())
                });
                assert_eq!(out.len(), width.min(items).max(1), "{width}/{items}");
                for (i, (worker, _)) in out.iter().enumerate() {
                    assert_eq!(*worker, i, "{width}/{items}");
                }
                let mut claimed: Vec<usize> =
                    out.iter().flat_map(|w| w.1.iter().copied()).collect();
                claimed.sort_unstable();
                assert_eq!(claimed, (0..items).collect::<Vec<_>>(), "{width}/{items}");
            }
        }
    }
}
