//! `hgserve` — an embedded analytics server for hypergraph queries.
//!
//! The rest of the workspace computes each answer from scratch per CLI
//! invocation; this crate turns those computations into a long-lived
//! HTTP/1.1 daemon with an in-memory dataset registry and a sharded
//! LRU **result cache**, so the paper's read-mostly query set (k-cores,
//! components, distances/diameter, degree distributions and power-law
//! fits, vertex covers) is computed once per dataset epoch and served
//! from memory thereafter.
//!
//! Built entirely on `std::net` — no async runtime, no HTTP library:
//! a single nonblocking **readiness event loop** ([`server`], on raw
//! `epoll` via [`poller`]; Linux is the one serving target) owns
//! accept, read, and write for every connection as a small state
//! machine (idle → reading → dispatched → writing), so thousands of
//! parked keep-alive connections cost zero threads. The loop looks
//! each complete query up in the result cache and answers a hit itself,
//! without copying its body, and a `distance` miss too when its pair
//! search finishes within a fixed pin budget; other misses and routes
//! are handed to a fixed worker pool over a **bounded** mpsc channel,
//! and workers push
//! serialized responses back through a completion queue and an eventfd
//! wakeup. Requests are parsed by a minimal hand-rolled
//! incremental HTTP/1.1 parser ([`http`]), query execution lives in
//! [`query`], datasets in [`registry`], and the cache in [`cache`]. A
//! deterministic load generator ([`loadgen`]) doubles as benchmark
//! driver and end-to-end test client.
//!
//! # Robustness
//!
//! The server degrades predictably instead of queueing without bound:
//!
//! * **Admission control** — when all workers are busy and the job
//!   queue (`--queue`) is full, the event loop answers `503` +
//!   `Retry-After: 1` directly — no worker is touched — counted in
//!   `hgserve_shed_total`.
//! * **Deadlines** — each request runs under a cooperative
//!   [`hgobs::Deadline`] (server default `--deadline-ms`, per-request
//!   `X-Deadline-Ms` header capped by the server). Expiry unwinds the
//!   algorithm mid-loop and answers `504` (`hgserve_deadline_exceeded_total`).
//! * **Slow-loris protection** — a request head that trickles in
//!   longer than the header timeout gets `408` and the connection is
//!   closed, enforced by the event loop's timer wheel rather than a
//!   blocked worker. Every reject half-closes and drains the connection
//!   before closing, so the client reads the answer, not a reset.
//! * **Panic containment** — a panicking handler or kernel answers
//!   `500` and closes its connection; the worker lives on
//!   (`hgserve_panics_total`, `hgserve_workers_live`).
//! * **Parallel offload** — on datasets at or above `par_threshold`
//!   vertices, the diameter sweep runs `hypergraph`'s one MS-BFS sweep
//!   at `split_width()`, one scoped thread per core, all sharing one
//!   deadline token; smaller datasets run it on the worker's own thread.
//!
//! # Endpoints
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /healthz` | liveness + dataset count |
//! | `GET /datasets` | registered datasets with shapes |
//! | `POST /datasets?name=N&format=hgr\|pajek\|mtx` | load a dataset from the body |
//! | `GET /v1/{ds}/stats` | structural summary |
//! | `GET /v1/{ds}/degrees` | degree histograms |
//! | `GET /v1/{ds}/components` | connected components |
//! | `GET /v1/{ds}/kcore?k=K` | k-core (max core when `k` omitted) |
//! | `GET /v1/{ds}/distance?from=A&to=B` | shortest hypergraph distance |
//! | `GET /v1/{ds}/diameter` | diameter + average path length |
//! | `GET /v1/{ds}/powerlaw` | degree power-law fit |
//! | `GET /v1/{ds}/cover` | greedy vertex cover |
//! | `GET /metrics` | hgobs counters/histograms (`hg_phase_ns_*` per kernel phase) + `hgserve_*` server series (Prometheus text) |
//! | `GET /debug/slowlog` | retained traces of the slowest + most recent requests |
//! | `POST /admin/shutdown` | graceful drain |
//!
//! # Tracing
//!
//! Every response carries an `X-Trace-Id` header (deterministic from
//! method, path, and a per-process sequence number). Adding `?trace=1`
//! to a query — or sending `X-Trace: 1` — embeds a `"trace"` block in
//! the JSON body: per-kernel-phase events (`msbfs.order` for the
//! diameter sweep's source order, `msbfs.batch` per MS-BFS batch,
//! `kcore.probe.peel` per k-core level, `bfs.pair` per pair search)
//! with microsecond bounds and work counts, plus `total_us`,
//! the exact latency the request recorded to its
//! `serve.latency_us.{endpoint}` histogram. Traced requests bypass the
//! result cache so the events describe the compute that produced the
//! body. Saved trace JSON pretty-prints with `hg trace <file>`, and
//! [`slowlog`] retains the slowest/most recent traces for
//! `GET /debug/slowlog`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let registry = Arc::new(hgserve::Registry::new());
//! registry
//!     .insert_text("toy", hgserve::Format::Hgr, "2 3\n1 2\n2 3\n", "doc")
//!     .unwrap();
//! let handle = hgserve::start(
//!     &hgserve::ServerConfig {
//!         addr: "127.0.0.1:0".into(),
//!         threads: 2,
//!         ..Default::default()
//!     },
//!     registry,
//! )
//! .unwrap();
//! let addr = handle.addr().to_string();
//! let (status, body) = hgserve::Client::new(&addr).get("/v1/toy/stats").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"vertices\":3"));
//! handle.shutdown();
//! ```

// Every `unsafe` block and impl states the condition it relies on.
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod http;
pub mod loadgen;
pub mod poller;
pub mod query;
pub mod registry;
pub mod server;
pub mod slowlog;

pub use cache::{CacheStats, ShardedLru};
pub use loadgen::{
    fetch_dataset_load, parse_mix, Client, LoadgenConfig, LoadgenReport, MixEntry, SlowSample,
};
pub use query::{ExecOpts, Query, QueryError};
pub use registry::{Dataset, Format, Registry};
pub use server::{install_sigint_flag, start, AppState, ServerConfig, ServerHandle};
pub use slowlog::{SlowLog, SlowLogEntry};
