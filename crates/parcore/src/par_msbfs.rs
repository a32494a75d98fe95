//! Parallel batched multi-source BFS: batches of up to
//! [`hypergraph::BATCH`] sources claimed by the workers of
//! `scoped::split` — one per core, the calling thread included —
//! each worker holding private [`MsBfsScratch`] mask buffers, integer
//! [`BatchStats`] partials merged at the end. Exactly matches the
//! sequential [`hypergraph::hyper_distance_stats`], which itself
//! matches the scalar per-source oracle bit for bit.
//!
//! hgserve answers `/diameter` with this engine for datasets of at
//! least `par_threshold` vertices; below that the thread spawns cost
//! more than the split saves, and the serial engine answers.
//!
//! Cancellation: one shared [`Deadline`] token. Every worker checks it
//! at each batch boundary and through the amortized in-kernel tick; the
//! first check that trips the budget latches the cancel flag, which the
//! other workers see on their next check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hgobs::{Deadline, DeadlineExceeded};
use hypergraph::msbfs::{msbfs_batch, stats_from_acc, BatchStats, MsBfsScratch, BATCH};
use hypergraph::{HyperDistanceStats, Hypergraph, VertexId};

use crate::scoped;

/// Cross-call scratch pool: completed sweeps park their workers'
/// [`MsBfsScratch`] buffers here, and the next sweep over a hypergraph
/// of the same dimensions leases them back instead of allocating and
/// zeroing ~1 MB per worker again (the A7 telemetry showed allocation
/// is the tax batch parallelism pays). Entries whose dimensions no
/// longer fit are left for other datasets; the pool is capped so a
/// burst of differently-sized requests cannot hoard memory.
static SCRATCH_ARENA: Mutex<Vec<MsBfsScratch>> = Mutex::new(Vec::new());

/// Upper bound on parked scratches — enough for every worker of one
/// sweep on the core counts this engine targets, small enough that
/// stale dimensions age out quickly.
const SCRATCH_ARENA_CAP: usize = 16;

/// Lease a scratch sized for `h`: reuse a parked one when the
/// dimensions match (`msbfs.par.scratch_reused`), otherwise allocate
/// (`msbfs.par.scratch_allocs` / `msbfs.par.scratch_bytes`).
fn lease_scratch(h: &Hypergraph) -> MsBfsScratch {
    let mut pool = SCRATCH_ARENA.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(pos) = pool.iter().position(|sc| sc.fits(h)) {
        let sc = pool.swap_remove(pos);
        drop(pool);
        hgobs::counter!("msbfs.par.scratch_reused");
        return sc;
    }
    drop(pool);
    let sc = MsBfsScratch::new(h);
    hgobs::counter!("msbfs.par.scratch_allocs");
    hgobs::counter!("msbfs.par.scratch_bytes", sc.bytes() as u64);
    sc
}

/// Park a worker's scratch for the next sweep (dropped if the pool is
/// full). An aborted batch may leave it dirty; `MsBfsScratch` tracks
/// that itself and re-zeroes on next use.
fn release_scratch(sc: MsBfsScratch) {
    let mut pool = SCRATCH_ARENA.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < SCRATCH_ARENA_CAP {
        pool.push(sc);
    }
}

/// Parallel MS-BFS distance statistics from every vertex.
pub fn par_msbfs_distance_stats(h: &Hypergraph) -> HyperDistanceStats {
    let sources: Vec<VertexId> = h.vertices().collect();
    par_msbfs_distance_stats_from(h, &sources)
}

/// [`par_msbfs_distance_stats`] under a cooperative [`Deadline`] shared
/// by every worker. The error's phase is `"msbfs.par"` and `work_done`
/// counts batches fully completed across all threads.
pub fn par_msbfs_distance_stats_with(
    h: &Hypergraph,
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let sources: Vec<VertexId> = h.vertices().collect();
    par_msbfs_distance_stats_from_with(h, &sources, deadline)
}

/// Parallel MS-BFS distance statistics from caller-chosen sources.
pub fn par_msbfs_distance_stats_from(h: &Hypergraph, sources: &[VertexId]) -> HyperDistanceStats {
    match par_msbfs_distance_stats_from_with(h, sources, &Deadline::none()) {
        Ok(stats) => stats,
        Err(_) => unreachable!("an unlimited deadline cannot expire"),
    }
}

/// [`par_msbfs_distance_stats_from`] under a cooperative [`Deadline`].
///
/// Runs on [`scoped::split_width`] workers, capped at the batch count.
/// Each worker leases its own [`MsBfsScratch`] (mask buffers sized
/// n + m lanes) and keeps its own amortized tick counter, so workers
/// never contend on traversal state; only the batch cursor, the
/// completed-batch counter and the deadline's latch are shared.
pub fn par_msbfs_distance_stats_from_with(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    sweep(h, sources, deadline, scoped::split_width())
}

/// The sweep behind every entry point, on at most `width` workers.
fn sweep(
    h: &Hypergraph,
    sources: &[VertexId],
    deadline: &Deadline,
    width: usize,
) -> Result<HyperDistanceStats, DeadlineExceeded> {
    let completed = AtomicU64::new(0);
    let batches: Vec<&[VertexId]> = sources.chunks(BATCH).collect();
    let partials = scoped::split(width, batches.len(), |_, claims| {
        let mut scratch: Option<MsBfsScratch> = None;
        let mut ticks = 0u32;
        let mut acc = BatchStats::default();
        let mut finished = true;
        for i in claims {
            let mut tp = deadline.trace().phase("msbfs.par.batch");
            // Batch-boundary check: one clock read per batch keeps
            // expiry deterministic on inputs too small for the
            // amortized in-kernel tick to ever fire, and the latch it
            // sets stops the other workers at their next check.
            let stats = if deadline.expired() {
                None
            } else {
                let sc = scratch.get_or_insert_with(|| lease_scratch(h));
                msbfs_batch(h, batches[i], sc, deadline, &mut ticks, None)
            };
            let Some(b) = stats else {
                finished = false;
                break;
            };
            acc.merge(&b);
            tp.add_work(batches[i].len() as u64);
            completed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(mut sc) = scratch {
            sc.flush_counters();
            release_scratch(sc);
        }
        finished.then_some(acc)
    });
    let done = completed.load(Ordering::Relaxed);
    hgobs::counter!("msbfs.par.batches", done);
    let mut acc = BatchStats::default();
    for partial in partials {
        match partial {
            Some(b) => acc.merge(&b),
            None => return Err(deadline.exceeded("msbfs.par", done)),
        }
    }
    Ok(stats_from_acc(acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{
        hyper_distance_stats, scalar_hyper_distance_stats, scalar_hyper_distance_stats_from,
        small_world_report, HypergraphBuilder,
    };
    use proptest::prelude::*;
    use std::time::Instant;

    /// Exact equality, the f64 included: every engine divides the same
    /// u128 total by the same u64 pair count.
    fn assert_bit_identical(a: HyperDistanceStats, b: HyperDistanceStats) {
        assert_eq!(a, b);
        assert_eq!(
            a.average_path_length.to_bits(),
            b.average_path_length.to_bits()
        );
    }

    #[test]
    fn matches_sequential_msbfs_and_scalar_oracle() {
        // 700 vertices = 3 batches, so width 2 runs two workers.
        for seed in 0..3u64 {
            let h = hypergen::uniform_random_hypergraph(700, 520, 4, seed);
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
            par_msbfs_distance_stats_from(&h, &some),
            hypergraph::hyper_distance_stats_from(&h, &some)
        );
    }

    #[test]
    fn cancelled_deadline_stops_with_zero_batches() {
        let h = hypergen::uniform_random_hypergraph(2000, 1500, 5, 3);
        let sources: Vec<VertexId> = h.vertices().collect();
        let dl = Deadline::cancellable();
        dl.cancel();
        for width in [1, 2] {
            let err = sweep(&h, &sources, &dl, width).unwrap_err();
            assert_eq!(err.phase, "msbfs.par");
            assert_eq!(err.work_done, 0, "{err:?}");
        }
    }

    #[test]
    fn tiny_budget_stops_parallel_sweep_early() {
        let h = hypergen::uniform_random_hypergraph(6000, 4800, 5, 11);
        let sources: Vec<VertexId> = h.vertices().collect();
        for width in [1, 2] {
            match sweep(&h, &sources, &Deadline::after_ms(1), width) {
                Err(err) => {
                    assert_eq!(err.phase, "msbfs.par");
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
        let h = hypergen::uniform_random_hypergraph(6000, 4500, 5, 41);
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
        assert_eq!(err.phase, "msbfs.par");
        assert!(err.work_done >= 1 && err.work_done < total, "{err:?}");
        // Finishing the two shares would take about (total - 1) / 2 = 11
        // batch times; stopping at the next tick takes a few percent of
        // one, and the bound leaves room for a loaded test host.
        let batch_time = std::time::Duration::from_micros(batch.end_us - batch.start_us);
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
        let h = hypergen::uniform_random_hypergraph(500, 400, 4, 5);
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
            assert!(events.iter().all(|e| e.phase == "msbfs.par.batch"));
            assert_eq!(events.iter().map(|e| e.work).sum::<u64>(), 500);
        }
        assert_eq!(results[0].1, results[1].1);
    }

    #[test]
    fn scratch_arena_leases_fitting_buffers_only() {
        let h1 = hypergen::uniform_random_hypergraph(50, 40, 3, 1);
        let h2 = hypergen::uniform_random_hypergraph(80, 10, 3, 1);
        let sc = lease_scratch(&h1);
        assert!(sc.fits(&h1) && !sc.fits(&h2));
        release_scratch(sc);
        // A parked scratch of the right dimensions comes back; asking
        // for different dimensions allocates instead of mis-leasing.
        assert!(lease_scratch(&h1).fits(&h1));
        assert!(lease_scratch(&h2).fits(&h2));
    }

    #[test]
    fn repeated_sweeps_reuse_the_pool_and_stay_correct() {
        // Sweep twice so the second run leases the first run's parked
        // (possibly dirty) buffers; results must be identical to the
        // sequential engine both times.
        let h = hypergen::uniform_random_hypergraph(300, 220, 4, 9);
        let a = par_msbfs_distance_stats(&h);
        let b = par_msbfs_distance_stats(&h);
        assert_eq!(a, b);
        assert_eq!(a, hyper_distance_stats(&h));
    }

    #[test]
    fn small_world_report_matches_sequential() {
        let h = hypergen::uniform_random_hypergraph(120, 90, 4, 7);
        let par = hypergraph::report_from_distances(&h, par_msbfs_distance_stats(&h));
        assert_eq!(par, small_world_report(&h));
    }
}
