//! `hgobs` — the workspace's observability layer.
//!
//! One consistent substrate for answering "*why* was this run fast or
//! slow": RAII timing spans, typed counters, and value histograms,
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
//! - **Disabled by default, near-zero cost when off.** Every recording
//!   call first checks one relaxed atomic load ([`enabled`]); when the
//!   sink is off, [`Span::enter`] allocates nothing and `counter!` /
//!   `hist!` are a branch over a load. The `obs_overhead` test in
//!   `crates/bench` holds the disabled-path overhead under 2%.
//! - **Thread-safe.** The registry lives behind a `parking_lot` mutex;
//!   span nesting uses a thread-local name stack, so spans opened on
//!   worker threads aggregate under that thread's own root.
//! - **Deterministic output.** All maps are `BTreeMap`s and the JSON
//!   emitter writes fixed key order, so two runs over the same input
//!   produce byte-identical counter sections.
//!
//! # Example
//!
//! ```
//! hgobs::enable();
//! {
//!     let _span = hgobs::Span::enter("kcore");
//!     hgobs::counter!("kcore.rounds");
//!     hgobs::hist!("kcore.frontier", 17);
//! }
//! let report = hgobs::take_report();
//! assert_eq!(report.counters["kcore.rounds"], 1);
//! assert!(report.to_json().starts_with("{\"schema\":\"hgobs/1\""));
//! hgobs::disable();
//! ```

pub mod buckets;
mod deadline;
pub mod json;
pub mod log;
mod metrics;
mod report;
mod span;
mod time;
pub mod trace;

pub use deadline::{Deadline, DeadlineExceeded, CHECK_INTERVAL};
pub use metrics::{
    add_counter, add_gauge, disable, enable, enabled, record_hist, reset, set_gauge,
};
pub use report::{
    absorb, sanitize_metric_name, snapshot_report, take_report, HistSummary, Report, SpanSummary,
    SCHEMA_VERSION,
};
pub use span::Span;
pub use time::{format_time, timed};
pub use trace::{TraceCtx, TraceEvent, TracePhase};

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

/// Set a named gauge to an absolute level:
/// `gauge!("serve.conn.open", open)`. Gauges are point-in-time levels
/// (signed), not monotone counters; `add_gauge` adjusts by a delta.
/// No-op while the sink is disabled.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {
        $crate::set_gauge($name, ($value) as i64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global, so tests that drain it share one lock to
    // avoid cross-talk under the default multi-threaded test runner.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
        GATE.lock()
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = serial();
        disable();
        reset();
        counter!("t.disabled");
        hist!("t.disabled.h", 5);
        let _s = Span::enter("t.disabled.span");
        drop(_s);
        let r = take_report();
        assert!(r.counters.is_empty());
        assert!(r.histograms.is_empty());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn counters_hists_and_spans_aggregate() {
        let _g = serial();
        reset();
        enable();
        {
            let _outer = Span::enter("outer");
            {
                let _inner = Span::enter("inner");
                counter!("t.rounds");
                counter!("t.rounds", 2);
            }
            {
                let _inner = Span::enter("inner");
                hist!("t.sizes", 3);
                hist!("t.sizes", 9);
            }
        }
        disable();
        let r = take_report();
        assert_eq!(r.counters["t.rounds"], 3);
        let h = &r.histograms["t.sizes"];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 12, 3, 9));
        assert_eq!(r.spans["outer"].count, 1);
        assert_eq!(r.spans["outer/inner"].count, 2);
        assert!(r.spans["outer"].total_ns >= r.spans["outer/inner"].total_ns);
    }

    #[test]
    fn gauges_set_add_and_render() {
        let _g = serial();
        reset();
        enable();
        gauge!("t.level", 4);
        add_gauge("t.level", 3);
        add_gauge("t.level", -9);
        gauge!("t.other", 1);
        disable();
        // Disabled: further gauge calls record nothing.
        gauge!("t.level", 99);
        let r = take_report();
        assert_eq!(r.gauges["t.level"], -2);
        assert_eq!(r.gauges["t.other"], 1);
        let prom = r.render_prometheus();
        assert!(prom.contains("hg_t_level -2\n"), "{prom}");
        assert!(prom.contains("# TYPE hg_t_other gauge\n"), "{prom}");
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
        b.spans.insert(
            "s".into(),
            SpanSummary {
                count: 1,
                total_ns: 10,
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["c"], 3);
        let h = &a.histograms["h"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 9, 1, 5));
        assert_eq!(a.spans["s"].count, 1);
    }

    #[test]
    fn json_has_versioned_schema_and_stable_order() {
        let _g = serial();
        reset();
        enable();
        counter!("b.two");
        counter!("a.one");
        hist!("z.h", 4);
        {
            let _s = Span::enter("total");
        }
        disable();
        let js = take_report().to_json();
        assert!(js.starts_with("{\"schema\":\"hgobs/1\","));
        let a = js.find("\"a.one\"").unwrap();
        let b = js.find("\"b.two\"").unwrap();
        assert!(a < b, "counters must be sorted: {js}");
        assert!(js.contains("\"spans\":{\"total\":{\"count\":1,"));
        assert!(js.ends_with('}'));
    }
}
