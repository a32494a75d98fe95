//! Scoped-thread work splitting on `std::thread::scope`: the
//! workspace's one parallel substrate, under the MS-BFS sweep
//! ([`crate::msbfs`]).
//!
//! The paper closes its Table 1 discussion with: *"if the numbers of
//! vertices and hyperedges in the core are large, then the run times can
//! be substantial; hence for large hypergraphs, a parallel algorithm
//! will need to be designed."* The all-pairs distance sweep is the
//! kernel here long enough to pay for helper threads.
//!
//! `split` runs up to [`split_width`] workers that claim item indices
//! from a shared cursor, so uneven items balance themselves. Helper
//! threads are spawned per call and joined before it returns; there is
//! no persistent pool. The calling thread is always worker 0, so a
//! single worker spawns nothing. A helper the OS refuses to start runs
//! on the calling thread instead, after worker 0, so a thread limit
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

/// The item indices one [`split`] worker claims: each `next` takes the
/// lowest index no worker has taken yet, until none are left.
#[derive(Clone, Copy)]
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
/// worker, in worker order. Production callers pass 1 or
/// [`split_width`]; tests force the widths a host may lack. A refused
/// helper runs after worker 0 has drained the cursor, so its share
/// falls to the caller.
///
/// # Panics
/// If any worker panics.
pub(crate) fn split<R, F>(width: usize, items: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Claims<'_>) -> R + Sync,
{
    split_with(Builder::new, width, items, work)
}

/// [`split`] with every helper spawned from `builder()`, so tests can
/// configure a spawn the OS refuses.
fn split_with<R, F>(builder: fn() -> Builder, width: usize, items: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Claims<'_>) -> R + Sync,
{
    let workers = width.min(items).max(1);
    let cursor = AtomicUsize::new(0);
    let claims = Claims {
        cursor: &cursor,
        items,
    };
    let work = &work;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|i| builder().spawn_scoped(scope, move || work(i, claims)).ok())
            .collect();
        let mut out = Vec::with_capacity(workers);
        out.push(work(0, claims));
        for (i, helper) in (1..workers).zip(helpers) {
            out.push(match helper {
                Some(h) => h.join().expect("worker panicked"),
                None => work(i, claims),
            });
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let caller = std::thread::current().id();
        for width in [2, 3] {
            for items in [0, 1, 5, 64] {
                let out = split_with(refused, width, items, |worker, claims| {
                    (
                        worker,
                        std::thread::current().id(),
                        claims.collect::<Vec<_>>(),
                    )
                });
                assert_eq!(out.len(), width.min(items).max(1), "{width}/{items}");
                for (i, (worker, thread, _)) in out.iter().enumerate() {
                    assert_eq!(*worker, i, "{width}/{items}");
                    assert_eq!(*thread, caller, "{width}/{items}");
                }
                let mut claimed: Vec<usize> =
                    out.iter().flat_map(|w| w.2.iter().copied()).collect();
                claimed.sort_unstable();
                assert_eq!(claimed, (0..items).collect::<Vec<_>>(), "{width}/{items}");
            }
        }
    }
}
