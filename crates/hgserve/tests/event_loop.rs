//! Event-loop I/O acceptance tests: the nonblocking connection engine
//! must answer fragmented, pipelined, oversized, and truncated input
//! exactly like the blocking reader used to — the incremental parser
//! is equivalence-tested against `read_request` in unit tests; here the
//! same cases run against a live server over real sockets, together
//! with the cache-hit path the loop answers itself.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use hgserve::loadgen::fetch_metric;
use hgserve::{Format, Registry, ServerConfig, ServerHandle};
use hypergraph::io::write_hgr;
use hypergraph::HypergraphBuilder;

/// `serve.requests` is one process-wide hgobs counter. The test that
/// asserts its exact delta holds this lock exclusively; every other
/// test holds it shared while its server runs.
static GLOBAL_COUNTERS: RwLock<()> = RwLock::new(());

fn toy_registry() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    let mut b = HypergraphBuilder::new(4);
    b.add_edge([0, 1]);
    b.add_edge([1, 2]);
    b.add_edge([2, 3]);
    registry
        .insert_text(
            "toy",
            Format::Hgr,
            &write_hgr(&b.build()),
            "event-loop test",
        )
        .expect("preload dataset");
    registry
}

fn boot_with(registry: Arc<Registry>, config: ServerConfig) -> (ServerHandle, String) {
    let handle = hgserve::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config
        },
        registry,
    )
    .expect("server boots");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn boot() -> (ServerHandle, String, RwLockReadGuard<'static, ()>) {
    let counters = GLOBAL_COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let (handle, addr) = boot_with(
        toy_registry(),
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    );
    (handle, addr, counters)
}

fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn
}

/// Read exactly one `Content-Length`-framed response off the stream.
/// Bytes past the frame (the next pipelined response) stay in `carry`
/// for the following call.
fn read_response_carry(conn: &mut TcpStream, carry: &mut Vec<u8>) -> String {
    let mut raw = std::mem::take(carry);
    let mut buf = [0u8; 4096];
    loop {
        // Head complete?
        if let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
            let content_length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("framed response")
                .trim()
                .parse()
                .expect("numeric content length");
            let body_have = raw.len() - (head_end + 4);
            if body_have >= content_length {
                let frame_end = head_end + 4 + content_length;
                *carry = raw.split_off(frame_end);
                return String::from_utf8_lossy(&raw).to_string();
            }
        }
        let n = conn.read(&mut buf).expect("read response bytes");
        assert!(n > 0, "connection closed mid-response: {raw:?}");
        raw.extend_from_slice(&buf[..n]);
    }
}

fn read_response(conn: &mut TcpStream) -> String {
    read_response_carry(conn, &mut Vec::new())
}

/// A keep-alive `GET` for `target`.
fn get(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n")
}

fn body_of(raw: &str) -> &str {
    raw.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

fn header<'a>(raw: &'a str, name: &str) -> Option<&'a str> {
    raw.split("\r\n\r\n").next()?.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn byte_at_a_time_request_parses_and_answers_200() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    let request = b"GET /v1/toy/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    for &byte in request.iter() {
        conn.write_all(&[byte]).expect("write one byte");
        conn.flush().unwrap();
    }
    let raw = read_response(&mut conn);
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert!(raw.contains("\"vertices\":4"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    handle.shutdown();
}

#[test]
fn fragmented_post_body_is_reassembled() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    let head = b"POST /datasets?name=frag HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n";
    let body = b"1 2\n1 2\n";
    conn.write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    conn.write_all(&body[..3]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    conn.write_all(&body[3..]).unwrap();
    let raw = read_response(&mut conn);
    assert!(raw.starts_with("HTTP/1.1 201 "), "{raw}");
    assert!(raw.contains("\"name\":\"frag\""), "{raw}");
    handle.shutdown();
}

#[test]
fn two_pipelined_requests_in_one_write_answer_in_order() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    conn.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
          GET /v1/toy/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut carry = Vec::new();
    let first = read_response_carry(&mut conn, &mut carry);
    assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    assert!(first.contains("Connection: keep-alive"), "{first}");
    let second = read_response_carry(&mut conn, &mut carry);
    assert!(carry.is_empty(), "bytes past second response: {carry:?}");
    assert!(second.contains("\"vertices\":4"), "{second}");
    assert!(second.contains("Connection: close"), "{second}");
    // The server closes after the second response (Connection: close).
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
    handle.shutdown();
}

#[test]
fn oversized_headers_answer_431_and_close() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    conn.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Pad: {}\r\n", "y".repeat(120));
    // Never send the terminating blank line: the parser must reject on
    // size alone once the head can no longer fit.
    for _ in 0..200 {
        if conn.write_all(filler.as_bytes()).is_err() {
            break; // server already rejected and closed
        }
    }
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 431");
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    handle.shutdown();
}

#[test]
fn a_reject_reads_on_until_the_client_stops_sending() {
    // A client mid-upload goes on sending after the server has answered
    // 431. The server shuts its write side and discards that input
    // instead of closing on it (which would reset the connection), so
    // the client's writes succeed and it then reads a clean EOF.
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    while head.len() <= 20 * 1024 {
        head.push_str(&format!("X-Pad: {}\r\n", "y".repeat(120)));
    }
    conn.write_all(head.as_bytes()).unwrap();
    let raw = read_response(&mut conn);
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
    for _ in 0..64 {
        conn.write_all(&[b'z'; 4096])
            .expect("the server still reads after its answer");
    }
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest)
        .expect("a clean EOF, not a reset");
    assert!(rest.is_empty(), "unexpected bytes after the 431: {rest:?}");
    handle.shutdown();
}

#[test]
fn mid_request_fin_answers_400() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    conn.write_all(b"GET /v1/toy/stats HTT").unwrap();
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 400");
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("truncated request"), "{raw}");
    handle.shutdown();
}

#[test]
fn clean_fin_on_idle_connection_just_closes() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    // One complete exchange, then a clean client close with no partial
    // request buffered: the server must close without an error reply.
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let first = read_response(&mut conn);
    assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "unexpected bytes after FIN: {rest:?}");
    handle.shutdown();
}

#[test]
fn twenty_thousand_pipelined_hits_answer_in_order() {
    // Hits are answered on the event loop a capped batch per turn, in a
    // loop: never one stack frame per pipelined request, which
    // overflowed the loop's stack at this depth.
    const DEPTH: usize = 20_000;
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    let mut carry = Vec::new();
    let targets = ["/v1/toy/stats", "/v1/toy/diameter"];
    let mut bodies = Vec::new();
    for target in targets {
        conn.write_all(get(target).as_bytes()).unwrap();
        let raw = read_response_carry(&mut conn, &mut carry);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        bodies.push(body_of(&raw).to_string());
    }
    let pipeline: String = (0..DEPTH).map(|i| get(targets[i % 2])).collect();
    // One write from a second thread while this one reads, so neither
    // side depends on socket buffer sizes.
    let mut writer = conn.try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || writer.write_all(pipeline.as_bytes()));
    let mut ids = HashSet::new();
    for i in 0..DEPTH {
        let raw = read_response_carry(&mut conn, &mut carry);
        assert!(raw.starts_with("HTTP/1.1 200 "), "response {i}: {raw}");
        assert_eq!(body_of(&raw), bodies[i % 2], "response {i} out of order");
        ids.insert(header(&raw, "x-trace-id").expect("trace id").to_string());
    }
    writer.join().unwrap().expect("pipeline written");
    assert_eq!(ids.len(), DEPTH, "every hit carries its own trace id");
    assert_eq!(handle.state().cache.stats().hits, DEPTH as u64);
    conn.write_all(get("/healthz").as_bytes()).unwrap();
    let raw = read_response_carry(&mut conn, &mut carry);
    assert!(raw.contains("\"status\":\"ok\""), "{raw}");
    handle.shutdown();
}

#[test]
fn a_hit_answers_while_the_only_worker_computes() {
    let _counters = GLOBAL_COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let registry = Arc::new(Registry::new());
    let text = write_hgr(&hypergen::uniform_random_hypergraph(20_000, 16_000, 5, 3));
    registry
        .insert_text("big", Format::Hgr, &text, "event-loop test")
        .expect("preload dataset");
    let (handle, addr) = boot_with(
        registry,
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    );
    let mut hits = connect(&addr);
    hits.write_all(get("/v1/big/stats").as_bytes()).unwrap();
    let warm = read_response(&mut hits);
    assert!(warm.starts_with("HTTP/1.1 200 "), "{warm}");

    // An uncached sweep takes over a second on two cores here; the
    // deadline bounds it, so debug builds end promptly too.
    let mut busy = connect(&addr);
    busy.write_all(b"GET /v1/big/diameter HTTP/1.1\r\nHost: x\r\nX-Deadline-Ms: 1500\r\n\r\n")
        .unwrap();
    let dispatched = |h: &ServerHandle| h.state().open_connections()[2];
    let t0 = Instant::now();
    while dispatched(&handle) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the sweep never reached the worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    hits.write_all(get("/v1/big/stats").as_bytes()).unwrap();
    let hit = read_response(&mut hits);
    assert!(hit.starts_with("HTTP/1.1 200 "), "{hit}");
    assert_eq!(body_of(&hit), body_of(&warm));
    assert_eq!(
        dispatched(&handle),
        1,
        "the hit was answered only after the sweep finished"
    );
    let swept = read_response(&mut busy);
    assert!(
        swept.starts_with("HTTP/1.1 200 ") || swept.starts_with("HTTP/1.1 504 "),
        "{swept}"
    );
    handle.shutdown();
}

#[test]
fn a_near_distance_is_answered_on_the_loop_and_a_far_one_by_a_worker() {
    // Exclusive: the loop counters below are process-global.
    let _counters = GLOBAL_COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    // A ring of size-3 hyperedges {i, i+1, i+7}: the far pair is
    // thousands of hyperedges apart, past any loop budget.
    let n = 100_000u32;
    let mut b = HypergraphBuilder::new(n as usize);
    for i in 0..n {
        b.add_edge([i, (i + 1) % n, (i + 7) % n]);
    }
    let ring = b.build();
    let registry = Arc::new(Registry::new());
    registry
        .insert_text("ring", Format::Hgr, &write_hgr(&ring), "event-loop test")
        .expect("preload dataset");
    let (handle, addr) = boot_with(
        registry,
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    );
    let counter = |name: &str| fetch_metric(&addr, name).unwrap_or(0);
    let computed = counter("hg_serve_loop_computed_total");
    let handoffs = counter("hg_serve_loop_handoffs_total");
    let oracle = hypergraph::hyper_distances(&ring, hypergraph::VertexId(0));
    let body = |to: u32| {
        let query = format!("distance?from=1&to={to}");
        let d = oracle[to as usize - 1];
        format!("{{\"query\":\"{query}\",\"from\":1,\"to\":{to},\"distance\":{d}}}\n")
    };
    let far = n / 2 + 1;
    assert!(oracle[far as usize - 1] > 5_000);
    // Pipelined in one write: the loop answers the near pair, which
    // ends the connection's turn, then hands the far one to the worker.
    let mut conn = connect(&addr);
    conn.write_all(
        format!(
            "{}{}",
            get("/v1/ring/distance?from=1&to=2"),
            get(&format!("/v1/ring/distance?from=1&to={far}"))
        )
        .as_bytes(),
    )
    .unwrap();
    let mut carry = Vec::new();
    for to in [2, far] {
        let raw = read_response_carry(&mut conn, &mut carry);
        assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
        assert_eq!(body_of(&raw), body(to));
    }
    assert_eq!(counter("hg_serve_loop_computed_total") - computed, 1);
    assert_eq!(counter("hg_serve_loop_handoffs_total") - handoffs, 1);
    handle.shutdown();
}

#[test]
fn every_cacheable_get_is_one_lookup_and_every_request_one_count() {
    // Exclusive: the `serve.requests` delta below is process-global.
    let _counters = GLOBAL_COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let cacheable = [
        "/v1/toy/stats",
        "/v1/toy/stats",
        "/v1/toy/diameter",
        "/v1/toy/stats",
        "/v1/toy/kcore?k=1",
        "/v1/toy/diameter",
        "/v1/toy/distance?from=1&to=4",
    ];
    let others = [
        "/healthz",
        "/datasets",
        "/v1/toy/stats?trace=1",
        "/v1/none/stats",
        "/v1/toy/bogus",
    ];
    for (cache_bytes, hits) in [(1 << 20, 3), (0, 0)] {
        let (handle, addr) = boot_with(
            toy_registry(),
            ServerConfig {
                threads: 2,
                cache_bytes,
                ..ServerConfig::default()
            },
        );
        let requests = || fetch_metric(&addr, "hg_serve_requests_total").expect("exported");
        let before = requests();
        let mut conn = connect(&addr);
        let mut carry = Vec::new();
        for target in cacheable.iter().chain(&others) {
            conn.write_all(get(target).as_bytes()).unwrap();
            let raw = read_response_carry(&mut conn, &mut carry);
            assert!(raw.starts_with("HTTP/1.1 "), "{target}: {raw}");
        }
        let cs = handle.state().cache.stats();
        assert_eq!(
            cs.hits + cs.misses,
            cacheable.len() as u64,
            "cache_bytes {cache_bytes}: {cs:?}"
        );
        assert_eq!(cs.hits, hits, "cache_bytes {cache_bytes}: {cs:?}");
        // The second `/metrics` read counts itself.
        assert_eq!(
            requests() - before,
            (cacheable.len() + others.len() + 1) as u64,
            "cache_bytes {cache_bytes}"
        );
        handle.shutdown();
    }
}

#[test]
fn trace_deadline_and_trace_id_on_the_hit_path_match_route() {
    let (handle, addr, _counters) = boot();
    let mut conn = connect(&addr);
    let mut carry = Vec::new();
    let mut exchange = |request: &str| {
        conn.write_all(request.as_bytes()).unwrap();
        read_response_carry(&mut conn, &mut carry)
    };
    let plain = exchange(&get("/v1/toy/diameter"));
    assert!(plain.starts_with("HTTP/1.1 200 "), "{plain}");
    assert!(!body_of(&plain).contains("\"trace\""), "{plain}");
    let hit = exchange(&get("/v1/toy/diameter"));
    assert_eq!(body_of(&hit), body_of(&plain));
    let hit_id = header(&hit, "x-trace-id").expect("a hit carries X-Trace-Id");
    assert_eq!(hit_id.len(), 16, "{hit}");
    assert_ne!(Some(hit_id), header(&plain, "x-trace-id"));
    // Both opt-ins skip the cache and embed the trace of a fresh compute.
    for traced in [
        exchange(&get("/v1/toy/diameter?trace=1")),
        exchange("GET /v1/toy/diameter HTTP/1.1\r\nHost: x\r\nX-Trace: 1\r\n\r\n"),
    ] {
        assert!(traced.starts_with("HTTP/1.1 200 "), "{traced}");
        assert!(
            body_of(&traced).contains("\"trace\":{\"id\":\""),
            "{traced}"
        );
        assert!(body_of(&traced).contains("msbfs.batch"), "{traced}");
    }
    // A cached answer ignores the deadline: it costs no compute.
    let deadlined =
        exchange("GET /v1/toy/diameter HTTP/1.1\r\nHost: x\r\nX-Deadline-Ms: 1\r\n\r\n");
    assert!(deadlined.starts_with("HTTP/1.1 200 "), "{deadlined}");
    assert_eq!(body_of(&deadlined), body_of(&plain));
    let cs = handle.state().cache.stats();
    assert_eq!((cs.hits, cs.misses, cs.insertions), (2, 1, 1), "{cs:?}");
    handle.shutdown();
}
