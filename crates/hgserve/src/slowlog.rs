//! Slow-query log: bounded in-memory retention of request traces,
//! served at `GET /debug/slowlog`.
//!
//! Two fixed-size views are kept: the most *recent* requests (a ring)
//! and the *slowest* requests seen so far (a min-evicting set). Both
//! hold complete [`SlowLogEntry`] records including the rendered trace
//! JSON, so a latency spike can be diagnosed after the fact without
//! having re-run the request with `?trace=1`.
//!
//! One mutex guards both views and the slowest set's minimum. The
//! thread that answered a request records it (the event loop for cache
//! hits, a worker for computed answers): it takes the lock once, for a
//! comparison against that minimum and a ring push/pop of an
//! already-built entry. Only a request slow enough to enter the slowest
//! set also copies its entry there.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Retained most-recent requests.
pub const RECENT_CAP: usize = 16;
/// Retained slowest requests.
pub const SLOW_CAP: usize = 16;

/// One retained request record.
#[derive(Clone, Debug)]
pub struct SlowLogEntry {
    /// Trace id in zero-padded hex — the response's `X-Trace-Id`.
    pub id: String,
    /// Endpoint label, as used in `serve.latency_us.{endpoint}`.
    pub endpoint: &'static str,
    pub status: u16,
    /// Wall-clock latency in microseconds: the exact value this request
    /// recorded to its latency histogram.
    pub total_us: u64,
    /// Unix time in milliseconds when the request finished.
    pub unix_ms: u64,
    /// Rendered `{"id":…,"events":[…],"dropped":…}` trace object.
    pub trace_json: String,
}

impl SlowLogEntry {
    fn write_json(&self, w: &mut hgobs::json::JsonWriter) {
        w.begin_object();
        w.key("id").string(&self.id);
        w.key("endpoint").string(self.endpoint);
        w.key("status").uint(self.status as u64);
        w.key("total_us").uint(self.total_us);
        w.key("unix_ms").uint(self.unix_ms);
        w.key("trace").raw(&self.trace_json);
        w.end_object();
    }
}

/// Current unix time in milliseconds (0 if the clock is before 1970).
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The retention buffer shared by the event loop and every worker.
#[derive(Default)]
pub struct SlowLog(Mutex<Retained>);

#[derive(Default)]
struct Retained {
    recent: VecDeque<SlowLogEntry>,
    slow: Vec<SlowLogEntry>,
    /// Admission threshold for `slow`: the smallest `total_us` in the
    /// set once it is full, 0 before that.
    min_slow_us: u64,
}

impl SlowLog {
    pub fn new() -> SlowLog {
        SlowLog::default()
    }

    /// Retain one finished request.
    pub fn record(&self, entry: SlowLogEntry) {
        let mut log = self.0.lock().expect("slowlog lock poisoned");
        if entry.total_us >= log.min_slow_us {
            log.slow.push(entry.clone());
            if log.slow.len() > SLOW_CAP {
                let (mi, _) = log
                    .slow
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.total_us)
                    .expect("non-empty");
                log.slow.swap_remove(mi);
            }
            if log.slow.len() == SLOW_CAP {
                log.min_slow_us = log
                    .slow
                    .iter()
                    .map(|e| e.total_us)
                    .min()
                    .expect("non-empty");
            }
        }
        if log.recent.len() == RECENT_CAP {
            log.recent.pop_front();
        }
        log.recent.push_back(entry);
    }

    /// The `GET /debug/slowlog` body: `{"schema":"hg-slowlog/1",
    /// "slowest":[…],"recent":[…]}` — slowest ordered by descending
    /// latency, recent newest-first, newline-terminated.
    pub fn render_json(&self) -> String {
        let (mut slowest, recent) = {
            let log = self.0.lock().expect("slowlog lock poisoned");
            (log.slow.clone(), log.recent.clone())
        };
        slowest.sort_by_key(|e| std::cmp::Reverse(e.total_us));
        let mut w = hgobs::json::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("hg-slowlog/1");
        w.key("slowest").begin_array();
        for e in &slowest {
            e.write_json(&mut w);
        }
        w.end_array();
        w.key("recent").begin_array();
        for e in recent.iter().rev() {
            e.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, total_us: u64) -> SlowLogEntry {
        SlowLogEntry {
            id: format!("{id:016x}"),
            endpoint: "diameter",
            status: 200,
            total_us,
            unix_ms: 1_700_000_000_000,
            trace_json: format!("{{\"id\":\"{id:016x}\",\"events\":[],\"dropped\":0}}"),
        }
    }

    #[test]
    fn recent_is_a_ring_newest_first() {
        let log = SlowLog::new();
        for i in 0..(RECENT_CAP as u64 + 4) {
            log.record(entry(i, 10));
        }
        let body = log.render_json();
        let recent = body.split("\"recent\"").nth(1).unwrap();
        // The oldest 4 ids fell off the ring.
        for i in 0..4u64 {
            assert!(
                !recent.contains(&format!("\"id\":\"{i:016x}\"")),
                "{recent}"
            );
        }
        // Newest-first: the last-recorded id appears before the one
        // recorded just prior.
        let last = format!("{:016x}", RECENT_CAP as u64 + 3);
        let prior = format!("{:016x}", RECENT_CAP as u64 + 2);
        assert!(recent.find(&last).unwrap() < recent.find(&prior).unwrap());
    }

    #[test]
    fn slowest_set_keeps_the_top_by_latency() {
        let log = SlowLog::new();
        // 64 requests, latencies 1..=64: the slowest SLOW_CAP survive.
        for i in 1..=64u64 {
            log.record(entry(i, i));
        }
        let body = log.render_json();
        let slowest = body
            .split("\"slowest\"")
            .nth(1)
            .unwrap()
            .split("\"recent\"")
            .next()
            .unwrap();
        for us in (64 - SLOW_CAP as u64 + 1)..=64 {
            assert!(slowest.contains(&format!("\"total_us\":{us}")), "{slowest}");
        }
        assert!(!slowest.contains("\"total_us\":1,"), "{slowest}");
        // Descending order: 64 before 63.
        assert!(
            slowest.find("\"total_us\":64").unwrap() < slowest.find("\"total_us\":63").unwrap()
        );
    }

    #[test]
    fn fast_requests_skip_the_slow_set_once_full() {
        let log = SlowLog::new();
        for i in 0..SLOW_CAP as u64 {
            log.record(entry(i, 1_000 + i));
        }
        log.record(entry(99, 5)); // below the full set's minimum
        let body = log.render_json();
        let slowest = body
            .split("\"slowest\"")
            .nth(1)
            .unwrap()
            .split("\"recent\"")
            .next()
            .unwrap();
        assert!(!slowest.contains("\"total_us\":5"), "{slowest}");
    }

    #[test]
    fn body_is_parseable_shape() {
        let log = SlowLog::new();
        log.record(entry(7, 42));
        let body = log.render_json();
        assert!(body.starts_with("{\"schema\":\"hg-slowlog/1\""), "{body}");
        assert!(body.ends_with("}\n"), "{body}");
        assert!(body.contains("\"trace\":{\"id\":\"0000000000000007\""));
    }
}
