//! End-to-end acceptance test: boot the server on an ephemeral port,
//! drive it with the load generator's concurrent mixed workload, prove
//! the cache serves repeats without re-running the algorithms (via the
//! hgobs BFS work counter), exercise dataset upload, and shut down
//! gracefully with a request in flight.
//!
//! Everything lives in one `#[test]` because the hgobs registry and
//! its work counters are process-global: parallel test threads would
//! race the before/after counter comparisons.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hgserve::loadgen::{self, fetch_metric, Client, LoadgenConfig};
use hgserve::{parse_mix, Format, Registry, ServerConfig};
use hypergraph::io::write_hgr;

fn hgr_text(n: usize, m: usize, k: usize, seed: u64) -> String {
    write_hgr(&hypergen::uniform_random_hypergraph(n, m, k, seed))
}

#[test]
fn end_to_end_serve_loadgen_cache_and_drain() {
    let registry = Arc::new(Registry::new());
    registry
        .insert_text("gen", Format::Hgr, &hgr_text(300, 220, 5, 42), "e2e")
        .expect("preload gen");
    registry
        .insert_text("fresh", Format::Hgr, &hgr_text(800, 600, 5, 7), "e2e")
        .expect("preload fresh");

    let handle = hgserve::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            cache_bytes: 8 << 20,
            ..ServerConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("server boots on an ephemeral port");
    let addr = handle.addr().to_string();

    let mut client = Client::new(&addr);
    let (status, body) = client.get("/healthz").expect("healthz reachable");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Concurrent mixed workload: every response must be a correct 2xx.
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        dataset: "gen".to_string(),
        concurrency: 6,
        requests: 240,
        mix: parse_mix(
            "stats=4,degrees=2,components=2,kcore=2,kcore?k=2=1,powerlaw=2,diameter=1,cover=1",
        )
        .unwrap(),
        deadline_ms: None,
        idle_connections: 24,
    })
    .expect("loadgen runs");
    assert_eq!(report.sent, 240, "{}", report.render_text());
    assert_eq!(report.ok, 240, "{}", report.render_text());
    assert_eq!(report.http_errors, 0, "{}", report.render_text());
    assert_eq!(report.transport_errors, 0, "{}", report.render_text());
    // The idle fleet parks on the event loop for the whole run: every
    // socket connects and none get dropped while queries are answered.
    assert_eq!(report.idle_connected, 24, "{}", report.render_text());
    assert_eq!(report.idle_connect_errors, 0, "{}", report.render_text());
    assert_eq!(report.idle_resets, 0, "{}", report.render_text());
    assert!(
        report.cache_hits_delta.unwrap_or(0) > 0,
        "repeated queries must hit the cache: {}",
        report.render_text()
    );

    // Repeat-query speedup, proven by work counters: the first diameter
    // query on `fresh` runs the full BFS sweep from every vertex of
    // nonzero degree (the sweep leaves isolated vertices out); the
    // second must be answered from the cache without a single
    // additional BFS source.
    let fresh = hypergen::uniform_random_hypergraph(800, 600, 5, 7);
    let connected = fresh.vertices().filter(|&v| fresh.vertex_degree(v) > 0);
    let sources = connected.count() as u64;
    let bfs_before = fetch_metric(&addr, "hg_bfs_sources_total").expect("bfs counter exported");
    let t0 = Instant::now();
    let (status, first) = client.get("/v1/fresh/diameter").expect("first diameter");
    let cold = t0.elapsed();
    assert_eq!(status, 200, "{first}");
    let bfs_mid = fetch_metric(&addr, "hg_bfs_sources_total").unwrap();
    assert!(
        bfs_mid >= bfs_before + sources,
        "cold query must sweep all {sources} connected sources ({bfs_before} -> {bfs_mid})"
    );

    let t1 = Instant::now();
    let (status, second) = client.get("/v1/fresh/diameter").expect("second diameter");
    let warm = t1.elapsed();
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "cached body must be byte-identical");
    let bfs_after = fetch_metric(&addr, "hg_bfs_sources_total").unwrap();
    assert_eq!(
        bfs_mid, bfs_after,
        "cache hit must not re-run the BFS sweep"
    );
    assert!(
        warm < cold,
        "cached repeat should be measurably faster (cold {cold:?}, warm {warm:?})"
    );

    // Upload a dataset over HTTP, then query it; a replacement bumps the
    // epoch so stale cache entries can never be served.
    let (status, body) = client
        .post(
            "/datasets?name=uploaded&format=hgr",
            &hgr_text(40, 30, 4, 3),
        )
        .expect("upload");
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"epoch\":0"), "{body}");
    let (status, body) = client.get("/v1/uploaded/stats").expect("query upload");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"vertices\":40"), "{body}");

    // Malformed upload: structured parse error with the offending line.
    let (status, body) = client
        .post("/datasets?name=bad&format=hgr", "2 2\n1 2\n1 nope\n")
        .expect("bad upload answered");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("line 3"), "error should cite line 3: {body}");
    assert!(registry.get("bad").is_none(), "malformed dataset not kept");

    // Acceptance: a traced diameter on the paper's Cellzome-scale
    // dataset (sequential path: 1361 vertices sits under the parallel
    // threshold) embeds per-phase events whose summed durations account
    // for at least 90% of the request's recorded latency — `total_us`
    // in the block is byte-for-byte the `serve.latency_us` observation.
    let cellzome = proteome::cellzome::cellzome_like(proteome::cellzome::CELLZOME_SEED);
    registry
        .insert_text(
            "cellzome",
            Format::Hgr,
            &write_hgr(&cellzome.hypergraph),
            "e2e",
        )
        .expect("preload cellzome");
    let (status, traced) = client
        .get("/v1/cellzome/diameter?trace=1")
        .expect("traced diameter");
    assert_eq!(status, 200, "{traced}");
    let header_id = client
        .last_trace_id()
        .expect("every response carries X-Trace-Id")
        .to_string();
    let block = &traced[traced.find("\"trace\":").expect("trace block embedded")..];
    let trace = hgobs::trace::parse_trace(block).expect("trace block parses");
    assert_eq!(trace.id, header_id, "body id matches the response header");
    let total = trace.total_us.expect("trace carries total_us") as f64;
    let phase_sum: u64 = trace.events.iter().map(|e| e.end_us - e.start_us).sum();
    assert!(
        !trace.events.is_empty()
            && trace.events.iter().any(|e| e.phase == "msbfs.batch")
            && phase_sum as f64 >= 0.9 * total,
        "kernel phases must account for >=90% of the {total}us request: \
         sum {phase_sum}us over {} events: {traced}",
        trace.events.len()
    );

    // The traced request is retained by the slow-query log under the
    // same id, and the endpoint answers well-formed JSON.
    let (status, slowlog) = client.get("/debug/slowlog").expect("slowlog");
    assert_eq!(status, 200, "{slowlog}");
    assert!(slowlog.contains("\"schema\":\"hg-slowlog/1\""), "{slowlog}");
    assert!(
        slowlog.contains(&header_id),
        "slowlog should retain trace {header_id}: {slowlog}"
    );

    // Graceful shutdown with a request in flight: the uncached diameter
    // on `gen2` is dispatched, then shutdown starts; the worker must
    // finish and deliver the complete response before draining.
    registry
        .insert_text("gen2", Format::Hgr, &hgr_text(800, 600, 5, 99), "e2e")
        .expect("preload gen2");
    let inflight = std::thread::spawn({
        let addr = addr.clone();
        move || Client::new(&addr).get("/v1/gen2/diameter")
    });
    std::thread::sleep(Duration::from_millis(20));
    let t2 = Instant::now();
    handle.shutdown();
    assert!(
        t2.elapsed() < Duration::from_secs(10),
        "drain must not hang on idle keep-alive connections"
    );
    let (status, body) = inflight
        .join()
        .expect("in-flight thread")
        .expect("in-flight request completes during drain");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"diameter\""), "complete body: {body}");

    // The listener is gone: new requests fail.
    assert!(
        Client::new(&addr).get("/healthz").is_err(),
        "server should refuse connections after shutdown"
    );
}
