//! Robustness acceptance tests: deadline-bounded queries answer 504
//! promptly, a saturated server sheds with 503 + `Retry-After`, and a
//! deadline-carrying loadgen run never observes a latency far past its
//! budget.
//!
//! Kept separate from `e2e.rs` on purpose: that test asserts *exact*
//! process-global hgobs counter deltas, which the extra traffic here
//! would break. Everything asserted below is per-server (`AppState`)
//! state or observed client-side, so the tests in this file can share
//! one process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hgserve::loadgen::{self, Client, LoadgenConfig};
use hgserve::{parse_mix, Format, Registry, ServerConfig, ServerHandle};
use hypergraph::io::write_hgr;

/// Debug builds run the kernels ~10-30x slower; scale the latency
/// bounds so the assertions stay meaningful in release without being
/// flaky under `cargo test` defaults.
fn scale_ms(release_ms: u64) -> Duration {
    if cfg!(debug_assertions) {
        Duration::from_millis(release_ms * 10)
    } else {
        Duration::from_millis(release_ms)
    }
}

fn boot(config: ServerConfig, vertices: usize, edges: usize, seed: u64) -> (ServerHandle, String) {
    let registry = Arc::new(Registry::new());
    let text = write_hgr(&hypergen::uniform_random_hypergraph(
        vertices, edges, 5, seed,
    ));
    registry
        .insert_text("big", Format::Hgr, &text, "robustness")
        .expect("preload dataset");
    let handle = hgserve::start(&config, registry).expect("server boots");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn tight_deadline_answers_504_promptly() {
    let (handle, addr) = boot(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        },
        6_000,
        4_800,
        17,
    );

    let mut client = Client::new(&addr).with_deadline_ms(Some(1));
    let t0 = Instant::now();
    let (status, body) = client.get("/v1/big/diameter").expect("answered");
    let elapsed = t0.elapsed();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline exceeded"), "{body}");
    // The cooperative checks fire within one CHECK_INTERVAL of vertex
    // pops, so the answer should arrive within ~deadline + scheduling
    // slack — not after the full multi-second sweep.
    assert!(
        elapsed < scale_ms(250),
        "504 should be prompt, took {elapsed:?}"
    );
    assert_eq!(handle.state().deadline_exceeded_total(), 1);

    // A 504 must never be cached: without the header the same query
    // completes (unbounded) and answers 200.
    let mut unbounded = Client::new(&addr);
    let (status, body) = unbounded.get("/v1/big/diameter").expect("answered");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"diameter\""), "{body}");

    handle.shutdown();
}

#[test]
fn saturated_server_sheds_with_503_and_retry_after() {
    // One worker, one queue slot. Idle connections are free under the
    // event loop, so saturation needs real in-flight compute: requests
    // A and B are slow uncacheable diameter sweeps (`?trace=1` bypasses
    // the result cache) that pin the worker and fill the queue slot;
    // request C then has nowhere to go and must be shed by the event
    // loop without waiting on either.
    let (handle, addr) = boot(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
        12_000,
        9_600,
        5,
    );

    let slow_request =
        |path: &str| format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    let mut conn_a = TcpStream::connect(&addr).expect("conn A");
    conn_a
        .write_all(slow_request("/v1/big/diameter?trace=1").as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut conn_b = TcpStream::connect(&addr).expect("conn B");
    conn_b
        .write_all(slow_request("/v1/big/diameter?trace=1&pad=b").as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    // Conn C must be rejected immediately with 503 + Retry-After.
    let mut conn_c = TcpStream::connect(&addr).expect("conn C");
    conn_c
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn_c
        .write_all(b"GET /v1/big/stats HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let t0 = Instant::now();
    let mut raw = String::new();
    conn_c.read_to_string(&mut raw).expect("read 503");
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("\r\nRetry-After: 1\r\n"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    // The shed happens in the event loop while the worker is busy: it
    // must not wait for the multi-hundred-ms sweeps to finish.
    assert!(
        t0.elapsed() < scale_ms(150),
        "503 should be immediate, took {:?}",
        t0.elapsed()
    );

    assert!(
        handle.state().shed_total() >= 1,
        "shed counter must record the rejection"
    );

    // A and B were admitted and eventually answer 200 in full.
    for (label, conn) in [("A", &mut conn_a), ("B", &mut conn_b)] {
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw)
            .unwrap_or_else(|e| panic!("read response {label}: {e}"));
        assert!(raw.starts_with("HTTP/1.1 200 "), "{label}: {raw}");
        assert!(raw.contains("\"diameter\""), "{label}: {raw}");
    }

    handle.shutdown();
}

#[test]
fn idle_keepalive_connections_do_not_pin_workers() {
    // With the old thread-per-connection design, 50 parked keep-alive
    // connections starved a single-worker server. The event loop holds
    // them for free: a live query must still answer promptly.
    let (handle, addr) = boot(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
        200,
        160,
        7,
    );

    let idle: Vec<TcpStream> = (0..50)
        .map(|i| TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let mut client = Client::new(&addr);
    let t0 = Instant::now();
    let (status, body) = client.get("/v1/big/stats").expect("served among idles");
    assert_eq!(status, 200, "{body}");
    assert!(
        t0.elapsed() < scale_ms(500),
        "query stuck behind idle connections: {:?}",
        t0.elapsed()
    );

    let [idle_gauge, _, _, _] = handle.state().open_connections();
    assert!(
        idle_gauge >= 50,
        "open-connection gauge should count the parked fleet, saw {idle_gauge}"
    );
    assert!(handle.state().accept_total() >= 51);

    drop(idle);
    handle.shutdown();
}

#[test]
fn trickling_header_answers_408_and_closes() {
    // Slow-loris: a request head that stalls past --header-timeout-ms
    // gets 408 from the event loop's timer, not a pinned worker.
    let (handle, addr) = boot(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            header_timeout_ms: 300,
            ..ServerConfig::default()
        },
        200,
        160,
        9,
    );

    let mut conn = TcpStream::connect(&addr).expect("conn");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"GET /v1/big/stats HTT").unwrap(); // head never completes
    let t0 = Instant::now();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 408");
    let elapsed = t0.elapsed();
    assert!(raw.starts_with("HTTP/1.1 408 "), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    assert!(
        elapsed >= Duration::from_millis(250),
        "408 must not fire before the timeout, took {elapsed:?}"
    );
    assert!(
        elapsed < scale_ms(2_000),
        "408 should fire promptly after the timeout, took {elapsed:?}"
    );

    // The connection is gone; the server still serves new clients.
    let mut client = Client::new(&addr);
    let (status, _) = client.get("/healthz").expect("alive after 408");
    assert_eq!(status, 200);

    handle.shutdown();
}

#[test]
fn loadgen_with_deadline_never_blows_the_budget() {
    let (handle, addr) = boot(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            ..ServerConfig::default()
        },
        12_000,
        9_600,
        23,
    );

    let deadline_ms = 5u64;
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        dataset: "big".to_string(),
        concurrency: 3,
        requests: 12,
        mix: parse_mix("diameter=1").unwrap(),
        deadline_ms: Some(deadline_ms),
        idle_connections: 0,
    })
    .expect("loadgen runs");

    assert_eq!(report.sent, 12, "{}", report.render_text());
    assert_eq!(report.transport_errors, 0, "{}", report.render_text());
    // A 12k-vertex full diameter sweep cannot finish in 5ms, and 504s
    // are never cached, so every request must report the deadline.
    assert_eq!(
        report.deadline_exceeded,
        report.sent,
        "{}",
        report.render_text()
    );
    // No request may overshoot its budget by more than scheduling and
    // check-interval slack.
    let max = Duration::from_micros(report.latencies_us.last().copied().unwrap_or(0));
    let bound = Duration::from_millis(deadline_ms) + scale_ms(200);
    assert!(
        max <= bound,
        "worst latency {max:?} exceeds deadline+slack {bound:?}\n{}",
        report.render_text()
    );
    // The JSON report carries the robustness counters for ci.sh.
    let json = report.render_json();
    assert!(json.contains("\"deadline_exceeded\":12"), "{json}");

    handle.shutdown();
}

#[test]
fn kernel_panics_answer_500_and_the_workers_live_on() {
    // A `.hgb` whose header checks out but whose pin and incidence lists
    // start with an out-of-range id. `load_file` opens without scanning
    // the data, so the first kernel to read the id panics.
    let mut b = hypergraph::HypergraphBuilder::new(4);
    b.add_edge([0, 1]);
    b.add_edge([1, 2]);
    b.add_edge([2, 3]);
    let dir = std::env::temp_dir().join(format!("hgserve-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.hgb");
    hypergraph::write_hgb_file(&b.build(), None, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let u64_at =
        |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    // Header: 64 fixed bytes, then `count` entries of {id, offset, len}.
    for entry in (0..u64_at(&bytes, 56) as usize).map(|i| 64 + i * 24) {
        let id = u64_at(&bytes, entry);
        if id == hypergraph::hgb::section::PIN_LIST || id == hypergraph::hgb::section::ADJ_LIST {
            let at = u64_at(&bytes, entry + 8) as usize;
            bytes[at..at + 4].copy_from_slice(&0x7fff_fff0u32.to_le_bytes());
        }
    }
    std::fs::write(&path, &bytes).unwrap();
    let registry = Arc::new(Registry::new());
    registry
        .load_file(path.to_str().unwrap())
        .expect("the header is intact");
    // A path 1-2-3-4-5-6: a search from 3 to 6 passes vertex 4, which
    // the panicking search labeled from its target, so labels left
    // behind would make it meet there, one hyperedge from 3.
    let mut path6 = hypergraph::HypergraphBuilder::new(6);
    for i in 0..5 {
        path6.add_edge([i, i + 1]);
    }
    let healthy = path6.build();
    registry
        .insert_text("healthy", Format::Hgr, &write_hgr(&healthy), "robustness")
        .expect("healthy dataset");
    std::fs::remove_dir_all(&dir).unwrap();
    let handle = hgserve::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server boots");
    let addr = handle.addr().to_string();

    // Two panics on workers, and a distance that panics in the event
    // loop's pair search.
    for endpoint in ["components", "diameter", "distance?from=1&to=4"] {
        let (status, body) = Client::new(&addr)
            .get(&format!("/v1/corrupt/{endpoint}"))
            .unwrap_or_else(|e| panic!("{endpoint} went unanswered: {e}"));
        assert_eq!(status, 500, "{endpoint}: {body}");
    }
    let mut client = Client::new(&addr);
    let (status, body) = client.get("/healthz").expect("alive after three panics");
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = client.get("/metrics").expect("metrics");
    assert!(metrics.contains("\nhgserve_panics_total 3\n"), "{metrics}");
    assert!(metrics.contains("\nhgserve_workers_live 2\n"), "{metrics}");
    // The loop's pair scratch came through the unwind clean.
    let (status, body) = client
        .get("/v1/healthy/distance?from=3&to=6")
        .expect("distance");
    assert_eq!(status, 200, "{body}");
    let d = hypergraph::hyper_distances(&healthy, hypergraph::VertexId(2))[5];
    assert_eq!(d, 3);
    assert_eq!(
        body,
        format!("{{\"query\":\"distance?from=3&to=6\",\"from\":3,\"to\":6,\"distance\":{d}}}\n")
    );
    let (_, slowlog) = client.get("/debug/slowlog").expect("slowlog");
    let recent = &slowlog[slowlog.find("\"recent\":").expect("recent ring")..];
    assert_eq!(
        recent
            .matches("\"endpoint\":\"panic\",\"status\":500")
            .count(),
        3,
        "{slowlog}"
    );
    handle.shutdown();
}
