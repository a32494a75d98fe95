//! Concurrent HTTP load generator for `hgserve`, used by `hg loadgen`
//! for manual benchmarking and by the end-to-end test for a mixed
//! workload with correctness assertions.
//!
//! Deterministic: worker `i` walks the weighted endpoint mix with its
//! own seeded LCG, so two runs with the same config issue the same
//! request sequences (timing aside). No external deps — the client is
//! a thin keep-alive wrapper over `std::net::TcpStream`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One weighted endpoint in the workload mix, e.g. `("stats", 3)`.
/// The endpoint is the path suffix under `/v1/{dataset}/`, optionally
/// with parameters (`kcore?k=2`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixEntry {
    pub endpoint: String,
    pub weight: u32,
}

/// Parse `stats=3,kcore?k=2=1,diameter=1` style mix specs: comma-split,
/// the portion after the **last** `=` is the weight.
pub fn parse_mix(spec: &str) -> Result<Vec<MixEntry>, String> {
    let mut mix = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (endpoint, weight) = part
            .rsplit_once('=')
            .ok_or_else(|| format!("mix entry `{part}` missing `=weight`"))?;
        let weight: u32 = weight
            .parse()
            .map_err(|e| format!("bad weight in `{part}`: {e}"))?;
        if endpoint.is_empty() || weight == 0 {
            return Err(format!(
                "mix entry `{part}` needs an endpoint and weight >= 1"
            ));
        }
        mix.push(MixEntry {
            endpoint: endpoint.to_string(),
            weight,
        });
    }
    if mix.is_empty() {
        return Err("empty mix".to_string());
    }
    Ok(mix)
}

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Dataset every query targets.
    pub dataset: String,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Weighted endpoint mix.
    pub mix: Vec<MixEntry>,
    /// When set, every request carries `X-Deadline-Ms: <ms>` and the
    /// report tallies the resulting 504s.
    pub deadline_ms: Option<u64>,
    /// Extra keep-alive connections opened before the query phase and
    /// held idle (no bytes sent) for the whole run — they exercise the
    /// event loop's parked-connection path. The report tallies how many
    /// connected, failed to connect, or were reset by the server.
    pub idle_connections: usize,
}

/// One tail-latency request: its latency and the server-assigned
/// trace id, so the matching trace can be pulled from
/// `GET /debug/slowlog` (or the request replayed with `?trace=1`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowSample {
    pub latency_us: u64,
    pub trace_id: String,
}

/// Outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    pub sent: u64,
    /// 2xx responses with a parseable JSON body.
    pub ok: u64,
    /// Non-2xx HTTP responses (includes `shed` and `deadline_exceeded`).
    pub http_errors: u64,
    /// Connection-level failures.
    pub transport_errors: u64,
    /// 503 responses: the server's admission queue was full.
    pub shed: u64,
    /// 504 responses: the request's deadline fired mid-compute.
    pub deadline_exceeded: u64,
    pub elapsed: Duration,
    /// Sorted request latencies in microseconds.
    pub latencies_us: Vec<u64>,
    /// The p99-and-above outliers (slowest first, at most
    /// [`MAX_SLOW_SAMPLES`]) with their `X-Trace-Id`s.
    pub slowest: Vec<SlowSample>,
    /// `hgserve_cache_hits` delta over the run, when `/metrics` was
    /// reachable before and after.
    pub cache_hits_delta: Option<u64>,
    pub cache_misses_delta: Option<u64>,
    /// Idle keep-alive fleet ([`LoadgenConfig::idle_connections`]):
    /// how many were requested, actually connected, failed to connect,
    /// and were found closed or reset when probed after the run.
    pub idle_requested: u64,
    pub idle_connected: u64,
    pub idle_connect_errors: u64,
    pub idle_resets: u64,
}

/// Cap on [`LoadgenReport::slowest`].
pub const MAX_SLOW_SAMPLES: usize = 5;

impl LoadgenReport {
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = (p / 100.0 * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[rank.min(self.latencies_us.len() - 1)]
    }

    pub fn throughput_rps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.sent as f64 / s
        }
    }

    /// Human-readable summary for the CLI.
    pub fn render_text(&self) -> String {
        let mean = if self.latencies_us.is_empty() {
            0.0
        } else {
            self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
        };
        let mut out = format!(
            "loadgen: {} requests in {:.3}s ({:.0} req/s)\n\
             responses: {} ok, {} http errors, {} transport errors\n\
             latency us: mean {:.0}, p50 {}, p95 {}, p99 {}, max {}\n",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
            self.ok,
            self.http_errors,
            self.transport_errors,
            mean,
            self.percentile_us(50.0),
            self.percentile_us(95.0),
            self.percentile_us(99.0),
            self.latencies_us.last().copied().unwrap_or(0),
        );
        if self.shed > 0 || self.deadline_exceeded > 0 {
            let pct = |n: u64| {
                if self.sent == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / self.sent as f64
                }
            };
            out.push_str(&format!(
                "robustness: {} shed ({:.1}%), {} deadline exceeded ({:.1}%)\n",
                self.shed,
                pct(self.shed),
                self.deadline_exceeded,
                pct(self.deadline_exceeded),
            ));
        }
        if self.idle_requested > 0 {
            out.push_str(&format!(
                "idle connections: {} requested, {} connected, {} connect errors, {} resets\n",
                self.idle_requested,
                self.idle_connected,
                self.idle_connect_errors,
                self.idle_resets,
            ));
        }
        if !self.slowest.is_empty() {
            out.push_str("slowest traces:");
            for s in &self.slowest {
                out.push_str(&format!(" {}={}us", s.trace_id, s.latency_us));
            }
            out.push('\n');
        }
        if let (Some(h), Some(m)) = (self.cache_hits_delta, self.cache_misses_delta) {
            let total = h + m;
            let rate = if total == 0 {
                0.0
            } else {
                100.0 * h as f64 / total as f64
            };
            out.push_str(&format!(
                "cache: {h} hits, {m} misses ({rate:.1}% hit rate)\n"
            ));
        }
        out
    }

    /// Machine-readable one-line JSON summary for benchmark gating
    /// (`ci.sh --bench` extracts fields with `sed`).
    pub fn render_json(&self) -> String {
        let hit_rate = match (self.cache_hits_delta, self.cache_misses_delta) {
            (Some(h), Some(m)) if h + m > 0 => 100.0 * h as f64 / (h + m) as f64,
            _ => 0.0,
        };
        let mut w = hgobs::json::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("hg-loadgen/2");
        w.key("sent").uint(self.sent);
        w.key("ok").uint(self.ok);
        w.key("http_errors").uint(self.http_errors);
        w.key("transport_errors").uint(self.transport_errors);
        w.key("shed").uint(self.shed);
        w.key("deadline_exceeded").uint(self.deadline_exceeded);
        w.key("elapsed_s").float(self.elapsed.as_secs_f64());
        w.key("throughput_rps").float(self.throughput_rps());
        w.key("p50_us").uint(self.percentile_us(50.0));
        w.key("p95_us").uint(self.percentile_us(95.0));
        w.key("p99_us").uint(self.percentile_us(99.0));
        w.key("max_us")
            .uint(self.latencies_us.last().copied().unwrap_or(0));
        w.key("cache_hit_rate_pct").float(hit_rate);
        w.key("idle_connections").begin_object();
        w.key("requested").uint(self.idle_requested);
        w.key("connected").uint(self.idle_connected);
        w.key("connect_errors").uint(self.idle_connect_errors);
        w.key("resets").uint(self.idle_resets);
        w.end_object();
        w.key("slowest").begin_array();
        for s in &self.slowest {
            w.begin_object();
            w.key("us").uint(s.latency_us);
            w.key("trace_id").string(&s.trace_id);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// A keep-alive HTTP/1.1 client for one connection.
pub struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    deadline_ms: Option<u64>,
    last_trace_id: Option<String>,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            deadline_ms: None,
            last_trace_id: None,
        }
    }

    /// The `X-Trace-Id` header of the most recent response, if any.
    pub fn last_trace_id(&self) -> Option<&str> {
        self.last_trace_id.as_deref()
    }

    /// Send `X-Deadline-Ms: <ms>` with every subsequent request.
    pub fn with_deadline_ms(mut self, ms: Option<u64>) -> Client {
        self.deadline_ms = ms;
        self
    }

    fn connect(&mut self) -> Result<(), String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    /// Issue `GET path`, reusing the connection; one reconnect attempt
    /// on failure. Returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            self.connect()?;
        }
        match self.request("GET", path, "") {
            Ok(r) => Ok(r),
            Err(_) => {
                self.connect()?;
                self.request("GET", path, "")
            }
        }
    }

    /// Issue `POST path` with a text body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            self.connect()?;
        }
        match self.request("POST", path, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.connect()?;
                self.request("POST", path, body)
            }
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let deadline_header = self
            .deadline_ms
            .map(|ms| format!("X-Deadline-Ms: {ms}\r\n"))
            .unwrap_or_default();
        let reader = self.stream.as_mut().ok_or("not connected")?;
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n{deadline_header}\r\n{body}",
            self.addr,
            body.len(),
        );
        reader
            .get_mut()
            .write_all(raw.as_bytes())
            .map_err(|e| e.to_string())?;

        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|e| e.to_string())?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{}`", status_line.trim()))?;

        let mut content_length = 0usize;
        let mut close = false;
        self.last_trace_id = None;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).map_err(|e| e.to_string())?;
            let h = h.trim();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value.parse().map_err(|e| format!("content-length: {e}"))?;
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if name == "x-trace-id" {
                    self.last_trace_id = Some(value.to_string());
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        if close {
            self.stream = None;
        }
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// Fetch one `name value` line from `GET /metrics`.
pub fn fetch_metric(addr: &str, name: &str) -> Option<u64> {
    let (status, body) = Client::new(addr).get("/metrics").ok()?;
    if status != 200 {
        return None;
    }
    body.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        if n == name {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}

/// Tiny deterministic LCG (Numerical Recipes constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Run the workload and collect a report. A response counts as `ok`
/// when its status is 2xx and the body looks like a JSON object.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.concurrency == 0 || cfg.requests == 0 {
        return Err("concurrency and requests must be >= 1".to_string());
    }
    // Expand the weighted mix into a pick table.
    let mut table: Vec<&str> = Vec::new();
    for e in &cfg.mix {
        for _ in 0..e.weight {
            table.push(e.endpoint.as_str());
        }
    }
    if table.is_empty() {
        return Err("empty mix".to_string());
    }

    let hits_before = fetch_metric(&cfg.addr, "hgserve_cache_hits");
    let misses_before = fetch_metric(&cfg.addr, "hgserve_cache_misses");

    // Open the idle keep-alive fleet before the query phase and hold
    // it for the whole run: the sockets never send a byte, so every
    // one of them must be parked by the server's event loop at zero
    // worker cost while the live queries below are answered.
    let mut idle_connect_errors = 0u64;
    let idle_fleet: Vec<TcpStream> = (0..cfg.idle_connections)
        .filter_map(|_| match TcpStream::connect(&cfg.addr) {
            Ok(s) => Some(s),
            Err(_) => {
                idle_connect_errors += 1;
                None
            }
        })
        .collect();
    let idle_connected = idle_fleet.len() as u64;

    let ok = AtomicU64::new(0);
    let http_errors = AtomicU64::new(0);
    let transport_errors = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let deadline_exceeded = AtomicU64::new(0);
    let started = Instant::now();

    let per_worker = cfg.requests.div_ceil(cfg.concurrency);
    let samples: Vec<Vec<(u64, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.concurrency)
            .map(|w| {
                let table = &table;
                let ok = &ok;
                let http_errors = &http_errors;
                let transport_errors = &transport_errors;
                let shed = &shed;
                let deadline_exceeded = &deadline_exceeded;
                let budget = per_worker.min(cfg.requests.saturating_sub(w * per_worker));
                scope.spawn(move || {
                    let mut rng = Lcg(0x9e37_79b9 + w as u64);
                    let mut client = Client::new(&cfg.addr).with_deadline_ms(cfg.deadline_ms);
                    let mut lat = Vec::with_capacity(budget);
                    for _ in 0..budget {
                        let endpoint = table[(rng.next() as usize) % table.len()];
                        let path = format!("/v1/{}/{endpoint}", cfg.dataset);
                        let t0 = Instant::now();
                        match client.get(&path) {
                            Ok((status, body)) => {
                                lat.push((
                                    t0.elapsed().as_micros() as u64,
                                    client.last_trace_id().unwrap_or("").to_string(),
                                ));
                                if (200..300).contains(&status)
                                    && body.trim_start().starts_with('{')
                                {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    http_errors.fetch_add(1, Ordering::Relaxed);
                                    match status {
                                        503 => {
                                            shed.fetch_add(1, Ordering::Relaxed);
                                        }
                                        504 => {
                                            deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                        }
                                        _ => {}
                                    }
                                }
                            }
                            Err(_) => {
                                transport_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = started.elapsed();

    // Probe the fleet: a healthy idle keep-alive socket has nothing to
    // read (`WouldBlock`); EOF or a connection error means the server
    // dropped it mid-run.
    let mut idle_resets = 0u64;
    for conn in &idle_fleet {
        let alive = conn.set_nonblocking(true).is_ok()
            && matches!(
                (&*conn).read(&mut [0u8; 16]),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
            );
        if !alive {
            idle_resets += 1;
        }
    }
    drop(idle_fleet);

    let mut samples: Vec<(u64, String)> = samples.into_iter().flatten().collect();
    samples.sort_unstable();
    let latencies_us: Vec<u64> = samples.iter().map(|(us, _)| *us).collect();
    // p99 tail with trace ids: the slowest requests at or above the p99
    // mark, slowest first — the ids to look up in `/debug/slowlog`.
    let p99 = {
        let tmp = LoadgenReport {
            latencies_us: latencies_us.clone(),
            ..LoadgenReport::default()
        };
        tmp.percentile_us(99.0)
    };
    let slowest: Vec<SlowSample> = samples
        .iter()
        .rev()
        .take_while(|(us, _)| *us >= p99)
        .take(MAX_SLOW_SAMPLES)
        .filter(|(_, id)| !id.is_empty())
        .map(|(us, id)| SlowSample {
            latency_us: *us,
            trace_id: id.clone(),
        })
        .collect();

    let hits_after = fetch_metric(&cfg.addr, "hgserve_cache_hits");
    let misses_after = fetch_metric(&cfg.addr, "hgserve_cache_misses");

    Ok(LoadgenReport {
        sent: (ok.load(Ordering::Relaxed)
            + http_errors.load(Ordering::Relaxed)
            + transport_errors.load(Ordering::Relaxed)),
        ok: ok.load(Ordering::Relaxed),
        http_errors: http_errors.load(Ordering::Relaxed),
        transport_errors: transport_errors.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        deadline_exceeded: deadline_exceeded.load(Ordering::Relaxed),
        elapsed,
        latencies_us,
        slowest,
        cache_hits_delta: hits_before
            .zip(hits_after)
            .map(|(b, a)| a.saturating_sub(b)),
        cache_misses_delta: misses_before
            .zip(misses_after)
            .map(|(b, a)| a.saturating_sub(b)),
        idle_requested: cfg.idle_connections as u64,
        idle_connected,
        idle_connect_errors,
        idle_resets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parsing() {
        let mix = parse_mix("stats=3,kcore?k=2=1,diameter=1").unwrap();
        assert_eq!(
            mix,
            vec![
                MixEntry {
                    endpoint: "stats".into(),
                    weight: 3
                },
                MixEntry {
                    endpoint: "kcore?k=2".into(),
                    weight: 1
                },
                MixEntry {
                    endpoint: "diameter".into(),
                    weight: 1
                },
            ]
        );
        assert!(parse_mix("").is_err());
        assert!(parse_mix("stats").is_err());
        assert!(parse_mix("stats=0").is_err());
        assert!(parse_mix("stats=x").is_err());
    }

    #[test]
    fn lcg_is_deterministic() {
        let seq = |seed: u64| {
            let mut r = Lcg(seed);
            (0..8).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn report_percentiles_and_render() {
        let r = LoadgenReport {
            sent: 4,
            ok: 4,
            elapsed: Duration::from_millis(100),
            latencies_us: vec![10, 20, 30, 1000],
            cache_hits_delta: Some(3),
            cache_misses_delta: Some(1),
            ..LoadgenReport::default()
        };
        assert_eq!(r.percentile_us(50.0), 30);
        assert_eq!(r.percentile_us(100.0), 1000);
        assert!((r.throughput_rps() - 40.0).abs() < 1.0);
        let text = r.render_text();
        assert!(text.contains("4 requests"));
        assert!(text.contains("75.0% hit rate"));
        assert!(!text.contains("robustness"), "{text}");
    }

    #[test]
    fn report_slowest_samples_render() {
        let r = LoadgenReport {
            sent: 3,
            ok: 3,
            latencies_us: vec![10, 20, 5000],
            slowest: vec![SlowSample {
                latency_us: 5000,
                trace_id: "00000000deadbeef".into(),
            }],
            ..LoadgenReport::default()
        };
        let text = r.render_text();
        assert!(
            text.contains("slowest traces: 00000000deadbeef=5000us"),
            "{text}"
        );
        let json = r.render_json();
        assert!(
            json.contains("\"slowest\":[{\"us\":5000,\"trace_id\":\"00000000deadbeef\"}]"),
            "{json}"
        );
    }

    #[test]
    fn report_shed_and_deadline_rates() {
        let r = LoadgenReport {
            sent: 10,
            ok: 7,
            http_errors: 3,
            shed: 2,
            deadline_exceeded: 1,
            elapsed: Duration::from_millis(50),
            latencies_us: vec![100, 200, 300],
            ..LoadgenReport::default()
        };
        let text = r.render_text();
        assert!(
            text.contains("robustness: 2 shed (20.0%), 1 deadline exceeded (10.0%)"),
            "{text}"
        );
        let json = r.render_json();
        assert!(json.contains("\"schema\":\"hg-loadgen/2\""), "{json}");
        assert!(json.contains("\"shed\":2"), "{json}");
        assert!(json.contains("\"deadline_exceeded\":1"), "{json}");
        assert!(json.contains("\"p99_us\":300"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn report_idle_connection_stats() {
        let quiet = LoadgenReport {
            sent: 1,
            ok: 1,
            latencies_us: vec![10],
            ..LoadgenReport::default()
        };
        assert!(
            !quiet.render_text().contains("idle connections"),
            "no idle line unless a fleet was requested"
        );
        assert!(
            quiet.render_json().contains(
                "\"idle_connections\":{\"requested\":0,\"connected\":0,\
                 \"connect_errors\":0,\"resets\":0}"
            ),
            "{}",
            quiet.render_json()
        );

        let r = LoadgenReport {
            sent: 1,
            ok: 1,
            latencies_us: vec![10],
            idle_requested: 2048,
            idle_connected: 2047,
            idle_connect_errors: 1,
            idle_resets: 3,
            ..LoadgenReport::default()
        };
        let text = r.render_text();
        assert!(
            text.contains(
                "idle connections: 2048 requested, 2047 connected, 1 connect errors, 3 resets"
            ),
            "{text}"
        );
        let json = r.render_json();
        assert!(
            json.contains(
                "\"idle_connections\":{\"requested\":2048,\"connected\":2047,\
                 \"connect_errors\":1,\"resets\":3}"
            ),
            "{json}"
        );
    }
}
