//! Request-scoped tracing and the one phase guard.
//!
//! A [`TraceCtx`] belongs to one request: a deterministic trace id and
//! an append-only list of `(phase, start_us, end_us, work)` events. The
//! global registry ([`crate::take_report`]) answers "how did this
//! *process* spend its time"; a trace answers "how did this *request*".
//! A `TraceCtx` rides inside [`crate::Deadline`]
//! (see [`Deadline::with_trace`](crate::Deadline::with_trace)), so every
//! kernel that takes a deadline can emit per-phase events with no new
//! plumbing: clone the deadline into a worker and the worker's events
//! land in the same shared list.
//!
//! [`TracePhase`] is the workspace's one timing guard. Open it with
//! [`TraceCtx::phase`], or with [`crate::phase`] where no trace is at
//! hand. On drop it appends the trace event when a trace is live, and
//! records the phase's nanoseconds into histogram `phase_ns.<name>`
//! when the sink is on.
//!
//! # Cost model
//!
//! With no live trace and the sink off, opening a phase is one branch
//! and one relaxed load, with no clock read; that keeps the kernel hot
//! paths inside the `obs_overhead` test's <2% budget. An enabled
//! context allocates one `Arc` per request and takes a short mutex
//! section per *event* (a batch, a peel level — never per vertex).
//!
//! # Partial traces
//!
//! [`TracePhase`] records on drop, so a kernel that bails out mid-phase
//! with [`DeadlineExceeded`](crate::DeadlineExceeded) still leaves the
//! in-flight phase in the event list with the time it consumed — exactly
//! the requests whose traces matter most.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::JsonWriter;

/// Hard cap on events retained per trace; later events are counted in
/// [`TraceCtx::dropped`] instead of stored, bounding memory on
/// pathological inputs (e.g. a peel with millions of levels).
pub const MAX_TRACE_EVENTS: usize = 4096;

/// One timed phase execution inside a traced request. Times are
/// microseconds since the trace was created; `work` is the phase's own
/// unit (sources swept, vertices peeled, pairs generated, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub phase: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub work: u64,
}

struct TraceInner {
    id: u64,
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceInner {
    fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock();
        if events.len() >= MAX_TRACE_EVENTS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            events.push(event);
        }
    }

    /// Microseconds from the trace's start to `t`.
    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_micros() as u64
    }
}

/// A cheap, cloneable handle to one request's trace, or a no-op token.
#[derive(Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<TraceInner>>,
}

/// Deterministic trace id: FNV-1a (the workspace's unseeded hash) over
/// the labelling parts plus a caller-owned sequence number, so a given
/// server assigns reproducible ids to a reproducible request sequence.
pub fn trace_id(parts: &[&str], seq: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in parts {
        eat(p.as_bytes());
        eat(&[0]);
    }
    eat(&seq.to_le_bytes());
    h
}

impl TraceCtx {
    /// The no-op token: every operation is a branch, nothing allocates.
    pub fn disabled() -> Self {
        TraceCtx { inner: None }
    }

    /// A live trace with the given id; the clock starts now.
    pub fn new(id: u64) -> Self {
        TraceCtx {
            inner: Some(Arc::new(TraceInner {
                id,
                start: Instant::now(),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether events are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// The trace id as the 16-hex-digit form used in `X-Trace-Id`.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id())
    }

    /// Microseconds since the trace was created (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.start.elapsed().as_micros() as u64)
    }

    /// Open a phase; it records itself on drop (explicitly via
    /// [`TracePhase::finish`] or implicitly on early return). With this
    /// context disabled and the sink off, the guard is inert and reads
    /// no clock.
    #[inline]
    pub fn phase(&self, phase: &'static str) -> TracePhase<'_> {
        TracePhase::open(self.inner.as_deref(), phase)
    }

    /// Append one event with explicit bounds (prefer [`TraceCtx::phase`]).
    pub fn record(&self, phase: &'static str, start_us: u64, end_us: u64, work: u64) {
        if let Some(inner) = &self.inner {
            inner.push(TraceEvent {
                phase,
                start_us,
                end_us,
                work,
            });
        }
    }

    /// Snapshot of the events so far, sorted by start time then phase so
    /// concurrent workers' interleavings render deterministically.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut events = inner.events.lock().clone();
        events.sort_by(|a, b| {
            (a.start_us, a.end_us, a.phase)
                .cmp(&(b.start_us, b.end_us, b.phase))
                .then_with(|| a.work.cmp(&b.work))
        });
        events
    }

    /// Events discarded after [`MAX_TRACE_EVENTS`] was reached.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Write the trace as a JSON object:
    /// `{"id":"…","total_us":…,"events":[{"phase":…,"start_us":…,"end_us":…,"work":…}],"dropped":n}`.
    ///
    /// `total_us` is the caller-measured wall-clock total (e.g. the
    /// value the server records to its latency histogram); `None` omits
    /// the field.
    pub fn write_json(&self, w: &mut JsonWriter, total_us: Option<u64>) {
        w.begin_object();
        w.key("id").string(&self.id_hex());
        if let Some(us) = total_us {
            w.key("total_us").uint(us);
        }
        w.key("events").begin_array();
        for e in self.events() {
            w.begin_object();
            w.key("phase").string(e.phase);
            w.key("start_us").uint(e.start_us);
            w.key("end_us").uint(e.end_us);
            w.key("work").uint(e.work);
            w.end_object();
        }
        w.end_array();
        w.key("dropped").uint(self.dropped());
        w.end_object();
    }
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("TraceCtx::disabled"),
            Some(inner) => f
                .debug_struct("TraceCtx")
                .field("id", &format_args!("{:016x}", inner.id))
                .field("events", &inner.events.lock().len())
                .finish(),
        }
    }
}

/// Name prefix of the per-phase duration histograms.
pub(crate) const PHASE_HIST: &str = "phase_ns.";

/// Open a phase with no trace attached, for code that holds no
/// deadline: the same guard as [`TraceCtx::phase`], which on drop
/// records only the `phase_ns.<name>` histogram (when the sink is on).
#[inline]
pub fn phase(name: &'static str) -> TracePhase<'static> {
    TracePhase::open(None, name)
}

/// RAII guard for one phase execution; see [`TraceCtx::phase`] and
/// [`phase`].
pub struct TracePhase<'a> {
    trace: Option<&'a TraceInner>,
    phase: &'static str,
    /// When the phase opened; `None` when neither a trace nor the sink
    /// was live then, and the guard records nothing.
    start: Option<Instant>,
    work: u64,
}

impl<'a> TracePhase<'a> {
    #[inline]
    fn open(trace: Option<&'a TraceInner>, phase: &'static str) -> Self {
        let start = (trace.is_some() || crate::enabled()).then(Instant::now);
        TracePhase {
            trace,
            phase,
            start,
            work: 0,
        }
    }

    /// Add to the phase's work counter.
    #[inline]
    pub fn add_work(&mut self, w: u64) {
        self.work += w;
    }

    /// Record now instead of at scope exit.
    pub fn finish(self) {}
}

impl Drop for TracePhase<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        if let Some(inner) = self.trace {
            inner.push(TraceEvent {
                phase: self.phase,
                start_us: inner.us(start),
                end_us: inner.us(end),
                work: self.work,
            });
        }
        let ns = end.duration_since(start).as_nanos().min(u64::MAX as u128) as u64;
        crate::log::debug(|| format!("{} ({})", self.phase, crate::format_time(ns as f64 / 1e9)));
        if crate::enabled() {
            crate::record_hist(&format!("{PHASE_HIST}{}", self.phase), ns);
        }
    }
}

/// A trace event parsed back out of JSON (phases become owned strings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedEvent {
    pub phase: String,
    pub start_us: u64,
    pub end_us: u64,
    pub work: u64,
}

/// A trace block parsed from saved JSON (`hg trace`, slowlog entries).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedTrace {
    pub id: String,
    /// `total_us` when the surrounding document carried one (the server
    /// embeds the request's `serve.latency_us` observation here).
    pub total_us: Option<u64>,
    pub events: Vec<ParsedEvent>,
}

/// Extract the first trace block from a JSON document: the first
/// `"events"` array of `{phase,start_us,end_us,work}` objects, plus the
/// nearest preceding `"id"` and `"total_us"` fields. This is a scanner
/// for the fixed schema this module writes, not a general JSON parser
/// (the workspace has no serde); anything shaped differently is an error.
pub fn parse_trace(json: &str) -> Result<ParsedTrace, String> {
    fn find_str_field(s: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let at = s.find(&pat)? + pat.len();
        let end = s[at..].find('"')? + at;
        Some(s[at..end].to_string())
    }
    fn find_uint_field(s: &str, key: &str) -> Option<u64> {
        let pat = format!("\"{key}\":");
        let at = s.find(&pat)? + pat.len();
        let digits: String = s[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }

    let ev_at = json
        .find("\"events\":[")
        .ok_or_else(|| "no \"events\" array found".to_string())?;
    let head = &json[..ev_at];
    let mut body = &json[ev_at + "\"events\":[".len()..];

    let mut events = Vec::new();
    loop {
        body = body.trim_start_matches([',', ' ', '\n', '\t']);
        if body.starts_with(']') || body.is_empty() {
            break;
        }
        let Some(open) = body.find('{') else { break };
        let close = body[open..]
            .find('}')
            .ok_or_else(|| "unterminated event object".to_string())?
            + open;
        let obj = &body[open..=close];
        let phase =
            find_str_field(obj, "phase").ok_or_else(|| format!("event missing phase: {obj}"))?;
        let start_us = find_uint_field(obj, "start_us")
            .ok_or_else(|| format!("event missing start_us: {obj}"))?;
        let end_us =
            find_uint_field(obj, "end_us").ok_or_else(|| format!("event missing end_us: {obj}"))?;
        let work = find_uint_field(obj, "work").unwrap_or(0);
        if end_us < start_us {
            return Err(format!("event ends before it starts: {obj}"));
        }
        events.push(ParsedEvent {
            phase,
            start_us,
            end_us,
            work,
        });
        body = &body[close + 1..];
    }

    Ok(ParsedTrace {
        id: find_str_field(head, "id").unwrap_or_default(),
        total_us: find_uint_field(head, "total_us").or_else(|| find_uint_field(json, "total_us")),
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let _g = crate::serial();
        let t = TraceCtx::disabled();
        assert!(!t.is_enabled());
        {
            let mut p = t.phase("x");
            p.add_work(5);
        }
        t.record("y", 0, 1, 2);
        assert!(t.events().is_empty());
        assert_eq!(t.id(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn phases_record_on_drop_with_work() {
        let _g = crate::serial();
        let t = TraceCtx::new(7);
        {
            let mut p = t.phase("alpha");
            p.add_work(3);
            p.add_work(4);
        }
        {
            let p = t.phase("beta");
            p.finish();
        }
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].phase, "alpha");
        assert_eq!(ev[0].work, 7);
        assert!(ev[0].start_us <= ev[0].end_us);
        assert_eq!(ev[1].phase, "beta");
        assert_eq!(ev[1].work, 0);
    }

    #[test]
    fn clones_share_one_event_list() {
        let _g = crate::serial();
        let t = TraceCtx::new(1);
        let c = t.clone();
        c.phase("from-clone").finish();
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn event_cap_counts_drops() {
        let t = TraceCtx::new(1);
        for _ in 0..MAX_TRACE_EVENTS + 5 {
            t.record("p", 0, 1, 0);
        }
        assert_eq!(t.events().len(), MAX_TRACE_EVENTS);
        assert_eq!(t.dropped(), 5);
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = trace_id(&["/v1/kcore", "cellzome"], 1);
        let b = trace_id(&["/v1/kcore", "cellzome"], 1);
        let c = trace_id(&["/v1/kcore", "cellzome"], 2);
        let d = trace_id(&["/v1/kcorecellzome"], 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "part boundaries must be separated");
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let t = TraceCtx::new(0xabcd);
        t.record("msbfs.batch", 10, 250, 64);
        t.record("kcore.peel", 260, 300, 12);
        let mut w = JsonWriter::new();
        t.write_json(&mut w, Some(321));
        let js = w.finish();
        assert!(js.starts_with("{\"id\":\"000000000000abcd\""), "{js}");
        let parsed = parse_trace(&js).unwrap();
        assert_eq!(parsed.id, "000000000000abcd");
        assert_eq!(parsed.total_us, Some(321));
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.events[0].phase, "msbfs.batch");
        assert_eq!(parsed.events[0].end_us, 250);
        assert_eq!(parsed.events[1].work, 12);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_trace("{}").is_err());
        assert!(parse_trace("{\"events\":[{\"phase\":\"x\"}]}").is_err());
    }

    #[test]
    fn concurrent_contexts_stay_isolated() {
        let _g = crate::serial();
        let a = TraceCtx::new(1);
        let b = TraceCtx::new(2);
        std::thread::scope(|s| {
            let ac = a.clone();
            let bc = b.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    ac.phase("a.only").finish();
                }
            });
            s.spawn(move || {
                for _ in 0..100 {
                    bc.phase("b.only").finish();
                }
            });
        });
        assert_eq!(a.events().len(), 100);
        assert!(a.events().iter().all(|e| e.phase == "a.only"));
        assert_eq!(b.events().len(), 100);
        assert!(b.events().iter().all(|e| e.phase == "b.only"));
    }
}
