//! `hgobs` — the workspace's observability layer.
//!
//! One consistent substrate for answering "*why* was this run fast or
//! slow": one RAII phase guard, typed counters, and value histograms,
//! aggregated in a global per-run registry and exportable as a
//! schema-versioned JSON report or a human-readable phase breakdown.
//!
//! The paper's Table 1 reports single elapsed-seconds numbers; the cost
//! of hypergraph algorithms is actually driven by structural quantities
//! (peeling rounds, edge overlap, degree-2 neighborhoods, BFS frontier
//! widths) that this crate surfaces as first-class metrics.
//!
//! # Design
//!
//! - **Two metric kinds, one timing guard.** Counters and histograms.
//!   A phase guard ([`phase`], or [`TraceCtx::phase`] inside a traced
//!   request) times its scope: on drop it records the nanoseconds as one
//!   observation of histogram `phase_ns.<name>` when the sink is on and,
//!   when a request trace is live, appends the trace event. Under `HG_LOG=debug` each
//!   finished phase prints one line with its time.
//! - **Disabled by default, near-zero cost when off.** Every recording
//!   call first checks one relaxed atomic load ([`enabled`]); when the
//!   sink is off and no trace is live, a phase guard reads no clock and
//!   `counter!` / `hist!` are a branch over a load. The `obs_overhead`
//!   test in `crates/bench` holds the disabled-path overhead under 2%.
//! - **Thread-safe.** The registry lives behind a `std::sync::Mutex`,
//!   and phases are flat names, so guards on worker threads aggregate
//!   under the same histogram as on the caller.
//! - **Deterministic output.** All maps are `BTreeMap`s and the JSON
//!   emitter writes fixed key order, so two runs over the same input
//!   produce byte-identical counter sections.
//!
//! # Example
//!
//! ```
//! hgobs::enable();
//! {
//!     let _phase = hgobs::phase("kcore");
//!     hgobs::counter!("kcore.rounds");
//!     hgobs::hist!("kcore.frontier", 17);
//! }
//! let report = hgobs::take_report();
//! assert_eq!(report.counters["kcore.rounds"], 1);
//! assert_eq!(report.histograms["phase_ns.kcore"].count, 1);
//! assert!(report.to_json().starts_with("{\"schema\":\"hgobs/2\""));
//! hgobs::disable();
//! ```

pub mod buckets;
mod deadline;
pub mod json;
pub mod log;
mod metrics;
mod report;
mod time;
pub mod trace;

pub use deadline::{Deadline, DeadlineExceeded, CHECK_INTERVAL};
pub use metrics::{add_counter, disable, enable, enabled, record_hist, reset};
pub use report::{
    absorb, sanitize_metric_name, snapshot_report, take_report, HistSummary, Report, SCHEMA_VERSION,
};
pub use time::{format_time, timed};
pub use trace::{phase, TraceCtx, TraceEvent, TracePhase};

/// Increment a named counter: `counter!("kcore.rounds")` adds 1,
/// `counter!("kcore.edges_deleted", n)` adds `n`. No-op while the sink
/// is disabled. In hot loops prefer a local accumulator flushed once.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::add_counter($name, 1)
    };
    ($name:literal, $n:expr) => {
        $crate::add_counter($name, ($n) as u64)
    };
}

/// Record one observation into a named histogram:
/// `hist!("bfs.frontier", len)`. No-op while the sink is disabled.
#[macro_export]
macro_rules! hist {
    ($name:literal, $value:expr) => {
        $crate::record_hist($name, ($value) as u64)
    };
}

/// The registry is global, so tests that drain it or open phases share
/// one lock to avoid cross-talk under the multi-threaded test runner.
/// A test that fails while holding it poisons the lock; the others
/// still take it.
#[cfg(test)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = serial();
        disable();
        reset();
        counter!("t.disabled");
        hist!("t.disabled.h", 5);
        phase("t.disabled.phase").finish();
        let r = take_report();
        assert!(r.counters.is_empty());
        assert!(r.histograms.is_empty());
    }

    #[test]
    fn counters_hists_and_phases_aggregate() {
        let _g = serial();
        reset();
        enable();
        {
            let _outer = phase("t.outer");
            {
                let _inner = phase("t.inner");
                counter!("t.rounds");
                counter!("t.rounds", 2);
            }
            {
                let _inner = phase("t.inner");
                hist!("t.sizes", 3);
                hist!("t.sizes", 9);
            }
        }
        disable();
        let r = take_report();
        assert_eq!(r.counters["t.rounds"], 3);
        let h = &r.histograms["t.sizes"];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 12, 3, 9));
        // Phases are flat: a nested guard records under its own name.
        let (outer, inner) = (
            &r.histograms["phase_ns.t.outer"],
            &r.histograms["phase_ns.t.inner"],
        );
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(outer.sum >= inner.sum);
        assert!(!r.histograms.keys().any(|k| k.contains('/')));
    }

    #[test]
    fn one_guard_records_into_each_live_sink() {
        let _g = serial();
        for sink in [false, true] {
            for live in [false, true] {
                reset();
                if sink {
                    enable();
                }
                let trace = if live {
                    TraceCtx::new(1)
                } else {
                    TraceCtx::disabled()
                };
                {
                    let mut tp = trace.phase("t.guard");
                    tp.add_work(7);
                }
                disable();
                let events = trace.events();
                assert_eq!(events.len(), usize::from(live), "sink {sink}, trace {live}");
                if live {
                    assert_eq!((events[0].phase, events[0].work), ("t.guard", 7));
                }
                let recorded = take_report()
                    .histograms
                    .get("phase_ns.t.guard")
                    .map(|h| h.count);
                assert_eq!(recorded, sink.then_some(1), "trace {live}");
            }
        }
    }

    #[test]
    fn guard_dropped_by_early_return_records_once() {
        fn bail(trace: &TraceCtx) -> Result<(), String> {
            let mut tp = trace.phase("t.bail");
            tp.add_work(3);
            Err("expired".to_string())?;
            tp.add_work(100);
            Ok(())
        }
        let _g = serial();
        reset();
        enable();
        let trace = TraceCtx::new(2);
        assert!(bail(&trace).is_err());
        disable();
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].phase, events[0].work), ("t.bail", 3));
        assert_eq!(take_report().histograms["phase_ns.t.bail"].count, 1);
    }

    #[test]
    fn snapshot_report_does_not_drain() {
        let _g = serial();
        reset();
        enable();
        counter!("t.snap", 2);
        let snap = snapshot_report();
        disable();
        assert_eq!(snap.counters["t.snap"], 2);
        let drained = take_report();
        assert_eq!(drained.counters["t.snap"], 2);
    }

    #[test]
    fn take_report_drains() {
        let _g = serial();
        reset();
        enable();
        counter!("t.once");
        let first = take_report();
        disable();
        assert_eq!(first.counters["t.once"], 1);
        let second = take_report();
        assert!(second.counters.is_empty());
    }

    #[test]
    fn absorb_restores_drained_metrics() {
        let _g = serial();
        reset();
        enable();
        counter!("t.absorb", 4);
        hist!("t.absorb.h", 2);
        let section = take_report();
        assert!(take_report().is_empty());
        absorb(&section);
        counter!("t.absorb", 1);
        disable();
        let total = take_report();
        assert_eq!(total.counters["t.absorb"], 5);
        assert_eq!(total.histograms["t.absorb.h"].count, 1);
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = Report::default();
        a.counters.insert("c".into(), 1);
        a.histograms
            .insert("h".into(), HistSummary::from_values(&[5]));
        let mut b = Report::default();
        b.counters.insert("c".into(), 2);
        b.histograms
            .insert("h".into(), HistSummary::from_values(&[1, 3]));
        b.histograms
            .insert("phase_ns.p".into(), HistSummary::from_values(&[10]));
        a.merge(&b);
        assert_eq!(a.counters["c"], 3);
        let h = &a.histograms["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 9, 1, 5));
        assert_eq!(a.histograms["phase_ns.p"].count, 1);
    }

    #[test]
    fn json_has_versioned_schema_and_stable_order() {
        let _g = serial();
        reset();
        enable();
        counter!("b.two");
        counter!("a.one");
        hist!("z.h", 4);
        phase("total").finish();
        disable();
        let js = take_report().to_json();
        assert!(js.starts_with("{\"schema\":\"hgobs/2\","));
        let a = js.find("\"a.one\"").unwrap();
        let b = js.find("\"b.two\"").unwrap();
        assert!(a < b, "counters must be sorted: {js}");
        assert!(js.contains("\"phase_ns.total\":{\"count\":1,"));
        assert!(js.ends_with('}'));
    }
}
