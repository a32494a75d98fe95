//! Scoped-thread parallelism on `std::thread::scope`: the one substrate
//! in this crate that runs on more than one core (the vendored `rayon`
//! executes serially). Three entry points share one fan-out:
//!
//! * [`scoped_run`] — a fixed number of workers, one result each;
//! * `split` — one worker per core, claiming item indices from a
//!   shared cursor, so uneven items balance themselves; the engine
//!   behind [`par_msbfs`](crate::par_msbfs);
//! * [`scoped_hyper_distance_stats`] — static chunking of BFS sources
//!   over a caller-chosen thread count, the counterpoint to dynamic
//!   claiming. Results are identical either way, which the tests pin
//!   down.
//!
//! Helper threads are spawned per call and joined before it returns;
//! there is no persistent pool. The calling thread is always worker 0,
//! so a single worker spawns nothing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use hgobs::{Deadline, DeadlineExceeded};
use hypergraph::path::UNREACHABLE;
use hypergraph::{HyperDistanceStats, Hypergraph, VertexId};

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
/// `threads - 1` are scoped OS threads spawned for this call.
///
/// # Panics
/// If `threads == 0` or any worker panics.
pub fn scoped_run<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|i| {
                let f = &f;
                scope.spawn(move || f(i))
            })
            .collect();
        let mut out = Vec::with_capacity(threads);
        out.push(f(0));
        out.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
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
/// tests force the widths a host may lack.
pub(crate) fn split<R, F>(width: usize, items: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Claims<'_>) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    scoped_run(width.min(items).max(1), |worker| {
        work(
            worker,
            Claims {
                cursor: &cursor,
                items,
            },
        )
    })
}

/// Distance statistics via `threads` scoped OS threads, each sweeping a
/// static chunk of BFS sources. Matches
/// [`hypergraph::hyper_distance_stats`] exactly.
///
/// # Panics
/// If `threads == 0`.
pub fn scoped_hyper_distance_stats(h: &Hypergraph, threads: usize) -> HyperDistanceStats {
    match scoped_hyper_distance_stats_with(h, threads, &Deadline::none()) {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`scoped_hyper_distance_stats`] under a cooperative [`Deadline`]
/// shared across the scoped threads: each worker pre-checks the shared
/// flag per source, the per-BFS amortized ticks do the clock work, and
/// the first tripped check latches cancellation for every sibling. The
/// error's `work_done` counts BFS sources fully completed by all threads.
///
/// # Panics
/// If `threads == 0`.
pub fn scoped_hyper_distance_stats_with(
    h: &Hypergraph,
    threads: usize,
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    assert!(threads > 0, "need at least one thread");
    let sources: Vec<VertexId> = h.vertices().collect();
    if sources.is_empty() {
        return Ok(HyperDistanceStats {
            diameter: 0,
            average_path_length: 0.0,
            reachable_pairs: 0,
        });
    }
    let chunks: Vec<&[VertexId]> = sources.chunks(sources.len().div_ceil(threads)).collect();
    let completed = AtomicU64::new(0);

    let partials: Vec<Option<(u32, u128, u64)>> = scoped_run(chunks.len(), |i| {
        let mut diameter = 0u32;
        let mut total = 0u128;
        let mut pairs = 0u64;
        for &s in chunks[i] {
            if deadline.cancelled() {
                return None;
            }
            let Ok(dist) = hypergraph::hyper_distances_with(h, s, deadline) else {
                return None;
            };
            for (v, &d) in dist.iter().enumerate() {
                if d != UNREACHABLE && v != s.index() {
                    diameter = diameter.max(d);
                    total += d as u128;
                    pairs += 1;
                }
            }
            completed.fetch_add(1, Ordering::Relaxed);
        }
        Some((diameter, total, pairs))
    });

    let mut acc = (0u32, 0u128, 0u64);
    for partial in partials {
        match partial {
            Some(b) => acc = (acc.0.max(b.0), acc.1 + b.1, acc.2 + b.2),
            None => {
                return Err(deadline.exceeded("bfs.scoped.sweep", completed.load(Ordering::Relaxed)))
            }
        }
    }
    let (diameter, total, pairs) = acc;
    Ok(HyperDistanceStats {
        diameter,
        average_path_length: if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        },
        reachable_pairs: pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{hyper_distance_stats, HypergraphBuilder};

    #[test]
    fn matches_sequential_across_thread_counts() {
        let h = hypergen::uniform_random_hypergraph(60, 50, 4, 11);
        let seq = hyper_distance_stats(&h);
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(seq, scoped_hyper_distance_stats(&h, threads), "{threads}");
        }
    }

    #[test]
    fn more_threads_than_sources_ok() {
        let mut b = HypergraphBuilder::new(2);
        b.add_edge([0, 1]);
        let h = b.build();
        let s = scoped_hyper_distance_stats(&h, 16);
        assert_eq!(s.reachable_pairs, 2);
        assert_eq!(s.diameter, 1);
    }

    #[test]
    fn empty_hypergraph() {
        let h = HypergraphBuilder::new(0).build();
        let s = scoped_hyper_distance_stats(&h, 4);
        assert_eq!(s.reachable_pairs, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let h = HypergraphBuilder::new(1).build();
        let _ = scoped_hyper_distance_stats(&h, 0);
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

    #[test]
    fn matches_rayon_variant() {
        let h = hypergen::uniform_random_hypergraph(80, 70, 5, 3);
        let rayon = crate::par_hyper_distance_stats(&h);
        let scoped = scoped_hyper_distance_stats(&h, 4);
        assert_eq!(rayon, scoped);
    }

    #[test]
    fn cancelled_deadline_stops_every_scoped_worker() {
        let h = hypergen::uniform_random_hypergraph(1500, 1200, 5, 5);
        let dl = Deadline::cancellable();
        dl.cancel();
        let err = scoped_hyper_distance_stats_with(&h, 4, &dl).unwrap_err();
        assert_eq!(err.phase, "bfs.scoped.sweep");
        assert_eq!(err.work_done, 0, "{err:?}");
    }

    #[test]
    fn unlimited_deadline_matches_plain_scoped_variant() {
        let h = hypergen::uniform_random_hypergraph(60, 50, 4, 11);
        assert_eq!(
            scoped_hyper_distance_stats(&h, 3),
            scoped_hyper_distance_stats_with(&h, 3, &Deadline::none()).unwrap()
        );
    }
}
