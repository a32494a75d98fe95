//! Observability budget: with the sink off, the `hgobs` calls threaded
//! through the hot kernels must cost under 2% of a maximum-core run on
//! the Cellzome hypergraph.
//!
//! The bound is derived, not diffed: time a tight loop of disabled
//! `counter!` and phase-guard calls, multiply the per-op
//! cost by the number of recording operations an enabled run actually
//! performs (read from its report), and compare against a measured
//! disabled run. This binary toggles hgobs's global sink, so it holds a
//! single test and runs as a process of its own.

use std::hint::black_box;
use std::time::Instant;

use hypergraph::max_core;
use proteome::cellzome::{cellzome_like, CELLZOME_SEED};

/// Nanoseconds per disabled recording call (a counter plus a phase
/// guard on a disabled trace), measured over a tight loop long enough
/// to swamp timer resolution.
fn disabled_ns_per_op() -> f64 {
    hgobs::disable();
    const OPS: u64 = 4_000_000;
    let trace = hgobs::TraceCtx::disabled();
    let start = Instant::now();
    for i in 0..OPS {
        hgobs::counter!("obs.overhead.probe", black_box(i));
        let mut tp = black_box(&trace).phase("obs.overhead.probe");
        tp.add_work(black_box(i));
    }
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// Number of recording operations (counter flushes + histogram
/// observations, phase records included) one enabled `max_core` run
/// performs.
fn recording_ops(h: &hypergraph::Hypergraph) -> u64 {
    hgobs::reset();
    hgobs::enable();
    let _ = max_core(h);
    hgobs::disable();
    let r = hgobs::take_report();
    let counters = r.counters.len() as u64;
    let hist_records: u64 = r.histograms.values().map(|h| h.count).sum();
    counters + hist_records
}

#[test]
fn disabled_sink_costs_under_two_percent_of_max_core() {
    let ds = cellzome_like(CELLZOME_SEED);
    let h = &ds.hypergraph;
    let ns_per_op = disabled_ns_per_op();
    let ops = recording_ops(h);
    let start = Instant::now();
    let _ = max_core(black_box(h));
    let run_ns = start.elapsed().as_nanos() as f64;
    let overhead = ns_per_op * ops as f64 / run_ns;
    eprintln!(
        "obs_overhead: {ops} recording sites x {ns_per_op:.2} ns disabled = \
         {:.4}% of a {:.1} ms run (bound: 2%)",
        100.0 * overhead,
        run_ns / 1e6,
    );
    assert!(
        overhead < 0.02,
        "disabled-sink overhead {:.4}% exceeds the 2% budget",
        100.0 * overhead
    );
}
