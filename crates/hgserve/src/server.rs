//! The analytics daemon: readiness event loop → registry and cache
//! probe (hits and budgeted `distance` misses answered there) → fixed
//! worker pool → algorithms.
//!
//! ```text
//!              ┌────────────────────────────────┐  bounded   ┌─────────┐
//!   accept ───▶│ event loop (1 thread, epoll)   │── mpsc ───▶│ worker 0│──┐
//!   read  ◀──▶│ conn slab:                      │   misses   │   …     │  │ ┌──────────┐
//!   write ◀──▶│  idle → reading → dispatched →  │            │ worker N│──┼▶│ registry │
//!   close ───▶│  writing → idle  (per conn)     │◀─ completions + wake ─┘  │ ├──────────┤
//!              │ probe: registry + cache get ───┼─────────────────────────┴▶│ LRU cache│
//!              │   hit: written from the loop   │   (eventfd)               └──────────┘
//!              │   distance miss: pair search   │
//!              │     ≤ 2^13 pins, else a worker │
//!              └────────────────────────────────┘
//!                     ▲ waker wakeups
//!                     └── SIGINT handler / POST /admin/shutdown / workers
//! ```
//!
//! One nonblocking event loop owns the listener and every connection:
//! it accepts, drains reads into per-connection buffers, parses
//! complete requests with the incremental HTTP parser, and writes
//! serialized responses back with vectored writes — so thousands of
//! idle keep-alive connections cost zero threads and zero syscalls
//! until bytes actually move. [`route`] has two halves. The loop runs
//! the first, the *probe*, on every parsed request: for an untraced
//! `GET /v1/{dataset}/{endpoint}` it resolves the dataset and query and
//! looks the answer up in the result cache. A hit is answered on the
//! loop, its body shared with the cache (no copy), pipelined hits
//! coalesced into one vectored write. Everything else goes to the
//! worker pool (bounded — the admission-control valve) carrying what the
//! probe resolved; a worker runs the second half, the *compute*, and
//! hands the serialized response back via a completion queue plus a
//! waker write. The loop runs a kernel only where it can bound it: a
//! `distance` miss is searched for on the loop under a fixed budget of
//! `LOOP_PAIR_PINS` (2^13) pins scanned, answered and cached there if the
//! search finishes, and handed to a worker unchanged if it would pass
//! the budget (`serve.loop_computed`, `serve.loop_handoffs`). Such a
//! miss ends its connection's turn. Every other endpoint scans the
//! whole dataset and has no budget to stop at, so it stays on the
//! workers, as do traced requests. The loop also answers the
//! protocol-robustness errors (`503` queue-full, `408` slow-loris,
//! `400`/`413`/`431` parse failures) itself, then half-closes and
//! drains the connection before closing it so the client reads the
//! answer instead of a reset.
//!
//! A panic in either half answers `500` and closes that connection; the
//! worker (or the loop) lives on, and `hgserve_panics_total` counts it.
//!
//! Graceful shutdown: the flag wakes the loop, which closes the
//! listener and idle connections, lets dispatched and mid-read
//! requests finish (answering `Connection: close`) within a drain
//! grace period, then exits; the dropped job queue drains the workers.
//! `ServerHandle::shutdown` joins everything, so when it returns no
//! request is lost.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hgobs::trace::trace_id;
use hgobs::{Deadline, TraceCtx};

use crate::cache::ShardedLru;
use crate::http::{parse_request_bytes, ParseOutcome, Request, Response};
use crate::poller::{self, Interest, Poller, Waker};
use crate::query::{ExecOpts, Query, QueryError};
use crate::registry::{declared_size, Dataset, Format, Registry};
use crate::slowlog::{unix_ms_now, SlowLog, SlowLogEntry};

/// Server tunables. `hg serve` has a flag for each field except
/// `max_body_bytes`, `max_deadline_ms` and `header_timeout_ms`, which it
/// runs at their defaults; library callers can set every field.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Result-cache budget in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Largest accepted `POST /datasets` body.
    pub max_body_bytes: usize,
    /// Parsed requests waiting for a worker before the event loop
    /// starts shedding new ones with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Default per-request compute budget in milliseconds; `0` disables
    /// the default (requests without `X-Deadline-Ms` run unbounded).
    pub deadline_ms: u64,
    /// Upper cap applied to client-requested `X-Deadline-Ms` values;
    /// `0` means uncapped.
    pub max_deadline_ms: u64,
    /// Wall-clock budget for reading one request head (slow-loris
    /// protection); exceeded → `408`.
    pub header_timeout_ms: u64,
    /// Datasets with at least this many vertices run the MS-BFS diameter
    /// sweep on every core ([`hypergraph::par_msbfs_distance_stats_with`]);
    /// no other query depends on it.
    pub par_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache_bytes: 64 << 20,
            max_body_bytes: 64 << 20,
            queue_depth: 64,
            deadline_ms: 0,
            max_deadline_ms: 60_000,
            header_timeout_ms: 5_000,
            par_threshold: 4_096,
        }
    }
}

/// State shared by the event loop and every worker.
pub struct AppState {
    pub registry: Arc<Registry>,
    pub cache: ShardedLru,
    /// Retained traces of the slowest and most recent requests,
    /// served at `GET /debug/slowlog`.
    pub slowlog: SlowLog,
    pub started: Instant,
    /// Sequence number feeding each request's deterministic trace id.
    trace_seq: AtomicU64,
    shutdown: AtomicBool,
    max_body_bytes: usize,
    /// Requests rejected with 503 because the job queue was full.
    shed: AtomicU64,
    /// Requests answered 504 because their deadline fired mid-compute.
    deadline_hits: AtomicU64,
    /// Requests answered 500 because their handler panicked.
    panics: AtomicU64,
    /// Worker threads currently running.
    workers_live: AtomicU64,
    /// Parsed requests currently sitting in the job queue.
    queued: AtomicU64,
    queue_capacity: usize,
    /// Connections accepted over the process lifetime.
    accepts: AtomicU64,
    /// Live connections by event-loop state, indexed by [`ConnState`];
    /// rendered as the labelled `hgserve_open_connections` gauge.
    conn_states: [AtomicU64; 4],
    /// The event loop's waker, so shutdown requests (workers handling
    /// `/admin/shutdown`, `ServerHandle`) interrupt a blocked wait.
    /// Holding the `Waker` keeps the descriptor alive for the life of
    /// this state, so a late wake can never hit a recycled fd.
    loop_waker: Mutex<Option<Waker>>,
    deadline_ms: u64,
    max_deadline_ms: u64,
    header_timeout: Duration,
    par_threshold: usize,
}

impl AppState {
    fn from_config(config: &ServerConfig, registry: Arc<Registry>) -> AppState {
        AppState {
            registry,
            cache: ShardedLru::new(config.cache_bytes, config.threads.max(1) * 2),
            slowlog: SlowLog::new(),
            started: Instant::now(),
            trace_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            max_body_bytes: config.max_body_bytes,
            shed: AtomicU64::new(0),
            deadline_hits: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            workers_live: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            queue_capacity: config.queue_depth.max(1),
            accepts: AtomicU64::new(0),
            conn_states: Default::default(),
            loop_waker: Mutex::new(None),
            deadline_ms: config.deadline_ms,
            max_deadline_ms: config.max_deadline_ms,
            header_timeout: Duration::from_millis(config.header_timeout_ms.max(1)),
            par_threshold: config.par_threshold,
        }
    }

    /// Requests shed with 503 so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Parsed requests currently waiting in the job queue for a worker.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Requests whose handler panicked (each answered 500) so far.
    pub fn panics_total(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Worker threads currently running.
    pub fn workers_live(&self) -> u64 {
        self.workers_live.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn accept_total(&self) -> u64 {
        self.accepts.load(Ordering::Relaxed)
    }

    /// Live connections by event-loop state:
    /// `[idle, reading, dispatched, writing]`.
    pub fn open_connections(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.conn_states[i].load(Ordering::Relaxed))
    }

    fn conn_gauge(&self, state: ConnState) -> &AtomicU64 {
        &self.conn_states[state as usize]
    }

    /// Requests that answered 504 so far.
    pub fn deadline_exceeded_total(&self) -> u64 {
        self.deadline_hits.load(Ordering::Relaxed)
    }

    /// The [`Deadline`] governing one request: an explicit
    /// `X-Deadline-Ms` header (clamped to the server cap) wins over the
    /// server-wide default. A requested `0` asks for as long as the
    /// server allows: the cap, or unlimited when `max_deadline_ms` is
    /// 0. No header and no default also means unlimited. Unparseable
    /// header values are ignored.
    pub fn request_deadline(&self, req: &Request) -> Deadline {
        let requested = req
            .header("x-deadline-ms")
            .and_then(|v| v.trim().parse::<u64>().ok());
        let ms = match requested {
            Some(0) => self.max_deadline_ms,
            Some(ms) if self.max_deadline_ms > 0 => ms.min(self.max_deadline_ms),
            Some(ms) => ms,
            None => self.deadline_ms,
        };
        if ms == 0 {
            Deadline::none()
        } else {
            Deadline::after_ms(ms)
        }
    }

    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Request a graceful shutdown (idempotent) and wake the event
    /// loop so the drain starts immediately.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(guard) = self.loop_waker.lock() {
            if let Some(waker) = guard.as_ref() {
                waker.wake();
            }
        }
    }

    /// One-line lifetime summary for shutdown logs.
    pub fn state_line(&self) -> String {
        let requests = hgobs::snapshot_report()
            .counters
            .get("serve.requests")
            .copied()
            .unwrap_or(0);
        let cs = self.cache.stats();
        format!(
            "{requests} requests, cache {} hits / {} misses / {} evictions",
            cs.hits, cs.misses, cs.evictions
        )
    }

    /// Count and log a handler panic; the request answers 500.
    fn panicked(&self, req: &Request, message: &str) -> Response {
        self.panics.fetch_add(1, Ordering::Relaxed);
        hgobs::log::warn(|| {
            format!(
                "handler panicked on {} {}: {message}; answering 500",
                req.method, req.path
            )
        });
        Response::error(500, "internal error: the request handler panicked")
    }
}

/// A running server; dropping it without `shutdown()` detaches threads.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    event_loop: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Signal shutdown, drain connections, and join every thread.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        self.join_all();
    }

    /// Block until something (SIGINT handler, `/admin/shutdown`)
    /// requests shutdown and the drain completes. No polling: this
    /// joins the event loop, which only exits once shutdown was
    /// requested and every in-flight request finished.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(l) = self.event_loop.take() {
            let _ = l.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Token the listener is registered under; connection tokens encode
/// `(generation << 32) | slab_index` and stay far below this.
const LISTENER_TOKEN: u64 = poller::RESERVED_TOKEN - 1;

/// How long a graceful shutdown waits for dispatched and mid-read
/// requests before closing whatever is left.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Cache hits one connection may have answered per loop turn. A
/// connection with input left after its turn waits on the ready list,
/// so one pipelining client cannot hold the loop. It also bounds the
/// write queue at two chunks per hit, well under `IOV_MAX` (1024).
const HITS_PER_TURN: usize = 64;

/// Pins a `distance` cache miss may scan on the event loop. Sized by
/// loop stall, not by any workload: a search that spends it all stalls
/// the loop about as long as one turn of [`HITS_PER_TURN`] hits. On a
/// million-vertex instance, where nearly every label is a cache miss, a
/// search costs 20–45 ns per pin on a 2-vCPU x86 host, so 2^13 pins
/// stall the loop 0.16–0.37 ms, against 0.14–0.31 ms for a 64-hit turn
/// (EXPERIMENTS.md A16). A search that would pass it goes to a worker
/// unchanged, which runs it again, unbounded, so at most this much work
/// is thrown away.
const LOOP_PAIR_PINS: usize = 1 << 13;

/// After an answer that rejects input, bytes discarded before closing
/// (see [`Close::DrainAfterFlush`]).
const REJECT_DRAIN_BYTES: usize = 1 << 20;
/// After an answer that rejects input, how long to wait for the client
/// to stop sending before closing anyway.
const REJECT_DRAIN_TIME: Duration = Duration::from_secs(2);

/// SIGINT sets this flag (via [`install_sigint_flag`]'s handler); the
/// event loop translates it into a graceful shutdown request.
static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);
/// The live event loop's waker fd, for the signal handler (which can
/// only do an atomic load plus one `write(2)`).
static SIGINT_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// One connection's position in its lifecycle; doubles as the index
/// into the `hgserve_open_connections` gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Parked keep-alive connection: zero cost until bytes arrive.
    Idle = 0,
    /// A partial request head (or body) is buffered; the slow-loris
    /// clock is running.
    Reading = 1,
    /// A complete request is on the job queue or under compute (hits
    /// answered ahead of it may still be writing out).
    Dispatched = 2,
    /// Response bytes are queued for (possibly partial) writeout.
    Writing = 3,
}

/// How a connection ends once its write queue drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Close {
    /// Keep-alive: go on to the next buffered request.
    No,
    /// Close.
    AfterFlush,
    /// The answer rejected a request the client may still be sending.
    /// Closing with unread input makes the kernel reset the connection,
    /// and the reset can reach the client before the answer does; so
    /// shut the write side and discard input until EOF,
    /// [`REJECT_DRAIN_BYTES`] or [`REJECT_DRAIN_TIME`] before closing.
    DrainAfterFlush,
    /// The write side is shut; input is discarded until EOF, `until`,
    /// or `left` more bytes.
    Draining { until: Instant, left: usize },
}

/// What [`probe`] found for one request.
enum Probe {
    /// An untraced query whose answer the cache holds.
    Hit {
        body: Arc<String>,
        endpoint: &'static str,
    },
    /// An untraced pair query the cache does not hold, answered by the
    /// probe's search within [`LOOP_PAIR_PINS`] (a 200 is cached).
    Computed {
        resp: Response,
        endpoint: &'static str,
    },
    /// An untraced query the cache does not hold (counted as the miss),
    /// resolved once so the compute half neither resolves it again nor
    /// counts a second miss.
    Miss {
        ds: Arc<Dataset>,
        query: Query,
        key: String,
    },
    /// Everything else — other routes, traced queries and queries that
    /// do not resolve — routed in full by the compute half.
    Route,
    /// The probe panicked, with this message; answered 500.
    Panicked(String),
}

/// How answering one request leaves its connection's turn.
enum Turn {
    /// Go on to the next buffered request.
    Next,
    /// End the turn; input left puts the connection on the ready list.
    Yield,
    /// End the turn: the request went to a worker or the connection
    /// closes.
    End,
}

/// One request handed to the worker pool, tagged with the connection
/// token so the completion finds its way back (or is dropped if the
/// connection died meanwhile), with what the loop's probe resolved.
struct Job {
    token: u64,
    req: Request,
    probe: Probe,
}

/// A serialized response traveling back from a worker: the head and
/// shared body for the loop's vectored writeout, plus the keep-alive
/// decision.
struct Completion {
    token: u64,
    head: Vec<u8>,
    body: Arc<String>,
    close: bool,
}

/// One queued piece of response output: a rendered head, or a body
/// shared with the result cache, so a hit copies no body bytes.
enum Chunk {
    Owned(Vec<u8>),
    Shared(Arc<String>),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared(text) => text.as_bytes(),
        }
    }
}

/// Per-connection state machine owned by the event loop.
struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    /// Accumulated unparsed input; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Pending response chunks; `wpos` is the written prefix of the
    /// front chunk.
    wqueue: VecDeque<Chunk>,
    wpos: usize,
    /// When the current (incomplete) request head started arriving —
    /// the slow-loris clock behind the 408 timer.
    head_started: Option<Instant>,
    peer_closed: bool,
    close: Close,
    /// Interest currently armed with the poller, to skip no-op MODs.
    armed: Interest,
}

fn raw_fd(stream: &TcpStream) -> poller::RawFd {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

fn listener_fd(listener: &TcpListener) -> poller::RawFd {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        listener.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = listener;
        -1
    }
}

/// The readiness event loop: owns the listener, the connection slab,
/// and the poller; single-threaded, nonblocking throughout.
struct EventLoop {
    state: Arc<AppState>,
    poller: Poller,
    listener: Option<TcpListener>,
    /// Connection slab; freed slots are recycled via `free` with a
    /// bumped generation so stale completions can never hit a new
    /// connection that reused the index.
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    /// Tokens of connections that ended their turn at the hit cap with
    /// input still buffered; serviced before the next blocking wait.
    ready: Vec<u64>,
    jobs: SyncSender<Job>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
}

impl EventLoop {
    fn conn_index(&self, token: u64) -> Option<usize> {
        let idx = (token & u64::from(u32::MAX)) as usize;
        match self.conns.get(idx) {
            Some(Some(c)) if c.token == token => Some(idx),
            _ => None,
        }
    }

    fn set_state(&mut self, idx: usize, new: ConnState) {
        if let Some(conn) = self.conns[idx].as_mut() {
            if conn.state != new {
                self.state
                    .conn_gauge(conn.state)
                    .fetch_sub(1, Ordering::Relaxed);
                self.state.conn_gauge(new).fetch_add(1, Ordering::Relaxed);
                conn.state = new;
            }
        }
    }

    /// Park a connection with nothing in flight or queued: `Reading`
    /// while a partial request is buffered (the 408 clock runs), else
    /// `Idle`.
    fn park(&mut self, idx: usize) {
        let parked = match self.conns[idx].as_ref() {
            Some(c) if c.state != ConnState::Dispatched && c.wqueue.is_empty() => {
                if c.head_started.is_some() {
                    ConnState::Reading
                } else {
                    ConnState::Idle
                }
            }
            _ => return,
        };
        self.set_state(idx, parked);
    }

    /// Re-arm the poller registration if the interest set changed.
    fn rearm(&mut self, idx: usize, interest: Interest) {
        if let Some(conn) = self.conns[idx].as_mut() {
            if conn.armed != interest {
                let (fd, token) = (raw_fd(&conn.stream), conn.token);
                if self.poller.modify(fd, token, interest).is_ok() {
                    conn.armed = interest;
                }
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.delete(raw_fd(&conn.stream));
            self.state
                .conn_gauge(conn.state)
                .fetch_sub(1, Ordering::Relaxed);
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
            self.open -= 1;
        }
    }

    /// Accept every pending connection (edge-triggered: drain to
    /// `WouldBlock`), register it, and probe for bytes that raced the
    /// registration.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.state.accepts.fetch_add(1, Ordering::Relaxed);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.gens.push(0);
                        self.conns.len() - 1
                    });
                    assert!(idx < u32::MAX as usize, "connection slab overflow");
                    let token = (u64::from(self.gens[idx]) << 32) | idx as u64;
                    if self
                        .poller
                        .add(raw_fd(&stream), token, Interest::READ)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    self.conns[idx] = Some(Conn {
                        stream,
                        token,
                        state: ConnState::Idle,
                        rbuf: Vec::new(),
                        rpos: 0,
                        wqueue: VecDeque::new(),
                        wpos: 0,
                        head_started: None,
                        peer_closed: false,
                        close: Close::No,
                        armed: Interest::READ,
                    });
                    self.open += 1;
                    self.state
                        .conn_gauge(ConnState::Idle)
                        .fetch_add(1, Ordering::Relaxed);
                    self.conn_readable(idx);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // EMFILE and friends: log, stop this round; the
                    // next arrival re-reports the listener readable.
                    hgobs::log::warn(|| format!("accept failed: {e}"));
                    return;
                }
            }
        }
    }

    /// Drain the socket into the read buffer (edge-triggered: until
    /// `WouldBlock` or EOF), then service the connection. A connection
    /// already answered for closing never parses again, so its input is
    /// discarded.
    fn conn_readable(&mut self, idx: usize) {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    let drained = match &mut conn.close {
                        Close::No => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            false
                        }
                        Close::Draining { left, .. } => {
                            *left = left.saturating_sub(n);
                            *left == 0
                        }
                        Close::AfterFlush | Close::DrainAfterFlush => false,
                    };
                    if drained {
                        self.close_conn(idx);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.service(idx);
    }

    /// Move a connection as far as it goes without blocking: write out
    /// its queue, answer what it has buffered, and write again. One
    /// call is one turn; a connection the hit cap stopped with input
    /// left joins the ready list. Every path iterates — nothing here
    /// re-enters `service`, however deep the client pipelines.
    fn service(&mut self, idx: usize) {
        if !self.flush(idx) {
            return;
        }
        let more = self.answer_buffered(idx);
        if self.flush(idx) && more {
            if let Some(conn) = self.conns[idx].as_ref() {
                self.ready.push(conn.token);
            }
        }
    }

    /// Answer the connection's buffered requests in order, once its
    /// write queue has drained: up to [`HITS_PER_TURN`] cache hits are
    /// answered here, into the queue. The turn ends at the first
    /// request that needs a worker (dispatched), at a miss answered
    /// here (so one turn buys at most one [`LOOP_PAIR_PINS`] search),
    /// at an answer that closes, at a protocol error (rejected) and at
    /// a partial request (parked). Returns whether the cap or a miss
    /// answered here ended it with input left.
    fn answer_buffered(&mut self, idx: usize) -> bool {
        let max_body = self.state.max_body_bytes;
        for _ in 0..HITS_PER_TURN {
            let parsed = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return false;
                };
                if conn.state == ConnState::Dispatched || conn.close != Close::No {
                    return false;
                }
                // Compact the consumed prefix before growing further.
                if conn.rpos == conn.rbuf.len() {
                    conn.rbuf.clear();
                    conn.rpos = 0;
                } else if conn.rpos > 16 * 1024 {
                    conn.rbuf.drain(..conn.rpos);
                    conn.rpos = 0;
                }
                if conn.rbuf.is_empty() {
                    conn.head_started = None;
                    if conn.peer_closed {
                        conn.close = Close::AfterFlush;
                    }
                    None
                } else {
                    match parse_request_bytes(&conn.rbuf[conn.rpos..], max_body) {
                        ParseOutcome::Complete(req, used) => {
                            conn.rpos += used;
                            conn.head_started = None;
                            Some(Ok(req))
                        }
                        ParseOutcome::Partial if conn.peer_closed => {
                            Some(Err((400, "truncated request".to_string())))
                        }
                        ParseOutcome::Partial => {
                            conn.head_started.get_or_insert_with(Instant::now);
                            None
                        }
                        ParseOutcome::Error { status, message } => Some(Err((status, message))),
                    }
                }
            };
            match parsed {
                None => {
                    self.park(idx);
                    return false;
                }
                Some(Ok(req)) => match self.answer_or_dispatch(idx, req) {
                    Turn::Next => {}
                    Turn::Yield => break,
                    Turn::End => return false,
                },
                Some(Err((status, message))) => {
                    self.reject(idx, status, &message);
                    return false;
                }
            }
        }
        self.conns[idx]
            .as_ref()
            .is_some_and(|c| c.rpos < c.rbuf.len())
    }

    /// Probe one parsed request: answer what the probe answered (a
    /// cache hit, a pair query within its budget, a panic) here, into
    /// the write queue, and hand anything else to a worker.
    fn answer_or_dispatch(&mut self, idx: usize, req: Request) -> Turn {
        let t0 = Instant::now();
        let probed = probe_contained(&self.state, &req);
        let computed = match probed {
            Probe::Hit { .. } | Probe::Panicked(_) => false,
            Probe::Computed { .. } => true,
            Probe::Miss { .. } | Probe::Route => {
                self.dispatch(idx, req, probed);
                return Turn::End;
            }
        };
        let resp = answer(&self.state, &req, probed, t0);
        let close = closes_after(&self.state, &req, &resp);
        let (head, body) = resp.to_bytes(close);
        self.queue(idx, head, body, close_after(close));
        match (close, computed) {
            (true, _) => Turn::End,
            (false, true) => Turn::Yield,
            (false, false) => Turn::Next,
        }
    }

    /// Hand a request to the worker pool, or answer `503` +
    /// `Retry-After` directly when the bounded queue is full — the
    /// admission-control valve, entirely inside the event loop — or no
    /// worker is left to take it.
    fn dispatch(&mut self, idx: usize, req: Request, probe: Probe) {
        let Some(token) = self.conns[idx].as_ref().map(|c| c.token) else {
            return;
        };
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        let refused = match self.jobs.try_send(Job { token, req, probe }) {
            Ok(()) => {
                self.set_state(idx, ConnState::Dispatched);
                return;
            }
            Err(TrySendError::Full(_)) => {
                let shed_total = self.state.shed.fetch_add(1, Ordering::Relaxed) + 1;
                hgobs::log::warn(|| {
                    format!("shedding request with 503: job queue full ({shed_total} shed so far)")
                });
                "server overloaded; queue full"
            }
            Err(TrySendError::Disconnected(_)) => "no worker is running",
        };
        self.state.queued.fetch_sub(1, Ordering::Relaxed);
        let (head, body) = Response::error(503, refused)
            .with_retry_after(1)
            .to_bytes(true);
        self.queue(idx, head, body, Close::DrainAfterFlush);
    }

    /// Answer a request the loop refuses (400/408/413/431/505), then
    /// close once the client has stopped sending.
    fn reject(&mut self, idx: usize, status: u16, message: &str) {
        hgobs::counter!("serve.bad_requests");
        let (head, body) = Response::error(status, message).to_bytes(true);
        self.queue(idx, head, body, Close::DrainAfterFlush);
    }

    /// Queue one response for writeout; `close` says how the
    /// connection ends once it is written.
    fn queue(&mut self, idx: usize, head: Vec<u8>, body: Arc<String>, close: Close) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        conn.wqueue.push_back(Chunk::Owned(head));
        if !body.is_empty() {
            conn.wqueue.push_back(Chunk::Shared(body));
        }
        if close != Close::No {
            conn.close = close;
        }
        self.set_state(idx, ConnState::Writing);
    }

    /// Write queued chunks with vectored writes until drained or
    /// `WouldBlock` (then arm write interest and wait for the edge).
    /// Returns whether the queue drained with the connection open for
    /// more requests; a drained queue ends a closing connection, or
    /// half-closes it and starts its drain.
    fn flush(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            if conn.wqueue.is_empty() {
                conn.wpos = 0;
                break;
            }
            let slices: Vec<IoSlice<'_>> = conn
                .wqueue
                .iter()
                .enumerate()
                .map(|(i, chunk)| {
                    IoSlice::new(&chunk.bytes()[if i == 0 { conn.wpos } else { 0 }..])
                })
                .collect();
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    self.close_conn(idx);
                    return false;
                }
                Ok(n) => {
                    let mut done = conn.wpos + n;
                    while let Some(front) = conn.wqueue.front() {
                        let len = front.bytes().len();
                        if done >= len {
                            done -= len;
                            conn.wqueue.pop_front();
                        } else {
                            break;
                        }
                    }
                    conn.wpos = done;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.rearm(idx, Interest::READ_WRITE);
                    return false;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return false;
                }
            }
        }
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        match conn.close {
            Close::No => {
                self.rearm(idx, Interest::READ);
                self.park(idx);
                true
            }
            // A drain during shutdown would only hold the exit up.
            Close::DrainAfterFlush if !conn.peer_closed && !self.state.shutting_down() => {
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.close = Close::Draining {
                    until: Instant::now() + REJECT_DRAIN_TIME,
                    left: REJECT_DRAIN_BYTES,
                };
                conn.rbuf = Vec::new();
                conn.rpos = 0;
                self.rearm(idx, Interest::READ);
                false
            }
            Close::Draining { .. } if !conn.peer_closed => false,
            _ => {
                self.close_conn(idx);
                false
            }
        }
    }

    /// Hand worker results back to their connections.
    fn drain_completions(&mut self) {
        loop {
            let completion = self.completions.lock().unwrap().pop_front();
            let Some(c) = completion else { return };
            let Some(idx) = self.conn_index(c.token) else {
                continue; // connection died while the worker computed
            };
            self.queue(idx, c.head, c.body, close_after(c.close));
            self.service(idx);
        }
    }

    /// Answer `408` on connections whose request head has been
    /// trickling in longer than the header timeout (slow-loris), and
    /// close drains that ran out of time.
    fn check_timers(&mut self) {
        let budget = self.state.header_timeout;
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if let Close::Draining { until, .. } = conn.close {
                if now >= until {
                    self.close_conn(idx);
                }
                continue;
            }
            let expired = conn.state == ConnState::Reading
                && conn
                    .head_started
                    .is_some_and(|t0| now.duration_since(t0) >= budget);
            if expired {
                hgobs::log::warn(|| {
                    "closing slow connection with 408: request header read timed out".to_string()
                });
                self.reject(idx, 408, "request header read timed out");
                self.service(idx);
            }
        }
    }

    /// The nearest timer deadline: the earliest slow-loris or drain
    /// expiry, capped by the shutdown drain deadline. `None` blocks
    /// until readiness or a wake.
    fn next_timeout(&self, drain_deadline: Option<Instant>) -> Option<Duration> {
        let mut next: Option<Instant> = drain_deadline;
        for conn in self.conns.iter().flatten() {
            let deadline = match (conn.close, conn.state, conn.head_started) {
                (Close::Draining { until, .. }, _, _) => until,
                (_, ConnState::Reading, Some(t0)) => t0 + self.state.header_timeout,
                _ => continue,
            };
            next = Some(next.map_or(deadline, |n| n.min(deadline)));
        }
        next.map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// Start the graceful drain: stop accepting and drop parked idle
    /// connections and finished rejects; reading/dispatched/writing
    /// connections get the grace period to finish.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener_fd(&listener));
        }
        for idx in 0..self.conns.len() {
            if self.conns[idx].as_ref().is_some_and(|c| {
                c.state == ConnState::Idle || matches!(c.close, Close::Draining { .. })
            }) {
                self.close_conn(idx);
            }
        }
    }

    fn run(&mut self) {
        let mut events: Vec<poller::Event> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if SIGINT_FLAG.load(Ordering::Relaxed) && !self.state.shutting_down() {
                self.state.request_shutdown();
            }
            if self.state.shutting_down() && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                self.begin_drain();
            }
            if let Some(deadline) = drain_deadline {
                if self.open == 0 {
                    break;
                }
                if Instant::now() >= deadline {
                    for idx in 0..self.conns.len() {
                        self.close_conn(idx);
                    }
                    break;
                }
            }
            // Connections on the ready list already have work: poll
            // without blocking so other sockets get their turn first.
            let timeout = if self.ready.is_empty() {
                self.next_timeout(drain_deadline)
            } else {
                Some(Duration::ZERO)
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                if let Some(idx) = self.conn_index(ev.token) {
                    if ev.readable {
                        self.conn_readable(idx);
                    }
                }
                if let Some(idx) = self.conn_index(ev.token) {
                    if ev.writable {
                        self.service(idx);
                    }
                }
            }
            self.drain_completions();
            for token in std::mem::take(&mut self.ready) {
                if let Some(idx) = self.conn_index(token) {
                    self.service(idx);
                }
            }
            self.check_timers();
        }
        // Dropping self (and with it `jobs`) closes the queue; workers
        // finish whatever is already queued, then exit.
    }
}

/// Holds one count in [`AppState::workers_live`] for the life of a
/// worker thread, however the thread ends.
struct LiveWorker(Arc<AppState>);

impl LiveWorker {
    fn enter(state: Arc<AppState>) -> LiveWorker {
        state.workers_live.fetch_add(1, Ordering::Relaxed);
        LiveWorker(state)
    }
}

impl Drop for LiveWorker {
    fn drop(&mut self) {
        self.0.workers_live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Bind and start the server. Enables the hgobs sink — the server's
/// `/metrics` endpoint is cumulative over the process lifetime.
pub fn start(config: &ServerConfig, registry: Arc<Registry>) -> std::io::Result<ServerHandle> {
    hgobs::enable();
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let mut poller = Poller::new()?;
    poller.add(listener_fd(&listener), LISTENER_TOKEN, Interest::READ)?;

    let state = Arc::new(AppState::from_config(config, registry));
    let waker = poller.waker();
    *state.loop_waker.lock().unwrap() = Some(waker.clone());
    SIGINT_WAKE_FD.store(waker.raw_fd(), Ordering::SeqCst);

    // The *bounded* job queue is the admission-control valve: when
    // every worker is busy and `queue_depth` requests are already
    // waiting, the event loop sheds new requests immediately instead
    // of letting latency grow without bound.
    let (tx, rx): (SyncSender<Job>, Receiver<Job>) =
        std::sync::mpsc::sync_channel(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let completions = Arc::new(Mutex::new(VecDeque::new()));

    let workers: Vec<_> = (0..config.threads.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let completions = Arc::clone(&completions);
            let waker = waker.clone();
            std::thread::Builder::new()
                .name(format!("hgserve-worker-{i}"))
                .spawn(move || {
                    let live = LiveWorker::enter(state);
                    let state = &live.0;
                    loop {
                        let job = rx.lock().unwrap().recv();
                        // An error means the event loop is gone: drained.
                        let Ok(Job { token, req, probe }) = job else {
                            break;
                        };
                        state.queued.fetch_sub(1, Ordering::Relaxed);
                        let resp = answer(state, &req, probe, Instant::now());
                        let close = closes_after(state, &req, &resp);
                        let (head, body) = resp.to_bytes(close);
                        completions.lock().unwrap().push_back(Completion {
                            token,
                            head,
                            body,
                            close,
                        });
                        waker.wake();
                    }
                })
                .expect("spawn worker")
        })
        .collect();

    let event_loop = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("hgserve-events".to_string())
            .spawn(move || {
                let mut el = EventLoop {
                    state,
                    poller,
                    listener: Some(listener),
                    conns: Vec::new(),
                    gens: Vec::new(),
                    free: Vec::new(),
                    open: 0,
                    ready: Vec::new(),
                    jobs: tx,
                    completions,
                };
                el.run();
            })
            .expect("spawn event loop")
    };

    hgobs::log::info(|| format!("hgserve listening on {addr}"));
    Ok(ServerHandle {
        addr,
        state,
        event_loop: Some(event_loop),
        workers,
    })
}

/// Does the client want the trace block embedded in the response body?
/// Either `?trace=1` or an `X-Trace: 1` header opts in.
fn wants_trace(req: &Request) -> bool {
    req.param("trace").is_some_and(|v| v == "1")
        || req.header("x-trace").is_some_and(|v| v.trim() == "1")
}

/// Whether a response ends its connection: the client asked, the
/// server is draining (checked after answering, so the answer to
/// `/admin/shutdown` itself already says so), or a handler panicked
/// (the only source of a 500).
fn closes_after(state: &AppState, req: &Request, resp: &Response) -> bool {
    req.wants_close() || state.shutting_down() || resp.status == 500
}

fn close_after(close: bool) -> Close {
    if close {
        Close::AfterFlush
    } else {
        Close::No
    }
}

/// Path segments with empty ones dropped: what the routing table
/// matches on.
fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// Dispatch one request to its handler, recording request counters, a
/// per-endpoint latency histogram, and a slow-query-log entry carrying
/// the request's trace. Every response gets an `X-Trace-Id` header;
/// `?trace=1` (or `X-Trace: 1`) additionally embeds the trace block —
/// with `total_us` equal to the latency observation — in a 200 body.
///
/// The composition the server splits between its threads: `probe`
/// (the cache lookup and a budgeted pair search, on the event loop)
/// then `answer` (on the loop for what the probe answered, on a worker
/// for anything else).
pub fn route(state: &AppState, req: &Request) -> Response {
    let t0 = Instant::now();
    answer(state, req, probe_contained(state, req), t0)
}

/// The first half of [`route`]: for an untraced
/// `GET /v1/{dataset}/{endpoint}`, resolve the dataset and query and
/// look the answer up in the result cache (which counts the hit or
/// miss). A missed pair query is searched for here, within
/// [`LOOP_PAIR_PINS`]; no other kernel runs, so the event loop can
/// afford it.
fn probe(state: &AppState, req: &Request) -> Probe {
    let segments = segments(&req.path);
    let ("GET", ["v1", dataset, endpoint]) = (req.method.as_str(), segments.as_slice()) else {
        return Probe::Route;
    };
    // An explicitly traced request bypasses the cache entirely (both
    // lookup and insert): its trace block must describe the compute
    // that produced *this* body, and the freshly traced body must not
    // displace the cached untraced answer other clients share.
    if wants_trace(req) {
        return Probe::Route;
    }
    let Ok((ds, query)) = resolve(state, dataset, endpoint, req) else {
        return Probe::Route;
    };
    let key = format!("{}:{}", ds.cache_prefix(), query.canonical());
    if let Some(body) = state.cache.get(&key) {
        return Probe::Hit {
            body,
            endpoint: query.endpoint(),
        };
    }
    // Only a pair query has a budget to stop at.
    if !matches!(query, Query::Distance { .. }) {
        return Probe::Miss { ds, query, key };
    }
    let opts = exec_opts(state, req, &ds, TraceCtx::default());
    match query.run_within(&ds.hypergraph, &opts, LOOP_PAIR_PINS) {
        Some(result) => {
            hgobs::counter!("serve.loop_computed");
            Probe::Computed {
                resp: respond(state, result, Some(&key)),
                endpoint: query.endpoint(),
            }
        }
        None => {
            hgobs::counter!("serve.loop_handoffs");
            Probe::Miss { ds, query, key }
        }
    }
}

/// [`probe`], with a panic turned into [`Probe::Panicked`]: on the
/// event loop a panic would end every connection, not one request.
fn probe_contained(state: &AppState, req: &Request) -> Probe {
    panic::catch_unwind(AssertUnwindSafe(|| probe(state, req)))
        .unwrap_or_else(|payload| Probe::Panicked(panic_message(&*payload)))
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    }
}

/// The second half of [`route`]: produce the answer the probe left —
/// serve its hit, compute its miss, or route the request in full — and
/// record the request once: `serve.requests`, one trace-id step, the
/// latency histogram, error counters and the slowlog entry. A panic
/// answers 500 and is counted in `hgserve_panics_total`.
fn answer(state: &AppState, req: &Request, probe: Probe, t0: Instant) -> Response {
    hgobs::counter!("serve.requests");
    let seq = state.trace_seq.fetch_add(1, Ordering::Relaxed);
    let trace = TraceCtx::new(trace_id(&[req.method.as_str(), req.path.as_str()], seq));
    let explicit = wants_trace(req);
    let (mut resp, endpoint) = panic::catch_unwind(AssertUnwindSafe(|| match probe {
        Probe::Hit { body, endpoint } => (Response::json(200, body), endpoint),
        Probe::Computed { resp, endpoint } => (resp, endpoint),
        Probe::Miss { ds, query, key } => (
            compute(state, req, &ds, &query, Some(&key), &trace),
            query.endpoint(),
        ),
        Probe::Route => route_inner(state, req, &trace),
        Probe::Panicked(message) => (state.panicked(req, &message), "panic"),
    }))
    .unwrap_or_else(|payload| (state.panicked(req, &panic_message(&*payload)), "panic"));
    let us = t0.elapsed().as_micros() as u64;
    hgobs::record_hist(&format!("serve.latency_us.{endpoint}"), us);
    if resp.status >= 400 {
        hgobs::add_counter(&format!("serve.errors.{}", resp.status), 1);
    }
    if resp.status == 504 {
        state.deadline_hits.fetch_add(1, Ordering::Relaxed);
        hgobs::log::warn(|| {
            format!(
                "deadline exceeded: {} {} answered 504 after {us}us (trace {})",
                req.method,
                req.path,
                trace.id_hex()
            )
        });
    }
    let mut w = hgobs::json::JsonWriter::new();
    trace.write_json(&mut w, Some(us));
    let trace_json = w.finish();
    if explicit && resp.status == 200 && resp.content_type == "application/json" {
        if let Some(stripped) = resp.body.strip_suffix("}\n") {
            let mut body = stripped.to_string();
            if !body.ends_with('{') {
                body.push(',');
            }
            body.push_str("\"trace\":");
            body.push_str(&trace_json);
            body.push_str("}\n");
            resp.body = Arc::new(body);
        }
    }
    // Only real work lands in the slow-query log: health/metrics
    // polling and the log endpoint itself would drown it in noise.
    if !matches!(endpoint, "healthz" | "metrics" | "slowlog") {
        state.slowlog.record(SlowLogEntry {
            id: trace.id_hex(),
            endpoint,
            status: resp.status,
            total_us: us,
            unix_ms: unix_ms_now(),
            trace_json,
        });
    }
    resp.with_header("X-Trace-Id", trace.id_hex())
}

fn route_inner(state: &AppState, req: &Request, trace: &TraceCtx) -> (Response, &'static str) {
    match (req.method.as_str(), segments(&req.path).as_slice()) {
        ("GET", ["healthz"]) => (healthz(state), "healthz"),
        ("GET", ["metrics"]) => (metrics(state), "metrics"),
        ("GET", ["debug", "slowlog"]) => {
            (Response::json(200, state.slowlog.render_json()), "slowlog")
        }
        ("GET", ["datasets"]) => (Response::json(200, state.registry.list_json()), "datasets"),
        ("POST", ["datasets"]) => (post_dataset(state, req), "post_dataset"),
        ("POST", ["admin", "shutdown"]) => {
            state.request_shutdown();
            (
                Response::json(200, "{\"status\":\"shutting down\"}\n".to_string()),
                "shutdown",
            )
        }
        // Queries reach this arm when the probe left them: traced ones,
        // which bypass the cache, and ones that do not resolve.
        ("GET", ["v1", dataset, endpoint]) => match resolve(state, dataset, endpoint, req) {
            Ok((ds, query)) => (
                compute(state, req, &ds, &query, None, trace),
                query.endpoint(),
            ),
            Err(answer) => answer,
        },
        (_, ["healthz" | "metrics" | "v1", ..]) | (_, ["datasets"]) => (
            Response::error(405, &format!("method {} not allowed here", req.method)),
            "method_not_allowed",
        ),
        _ => (
            Response::error(404, &format!("no route for {}", req.path)),
            "other",
        ),
    }
}

fn healthz(state: &AppState) -> Response {
    let mut w = hgobs::json::JsonWriter::new();
    w.begin_object();
    w.key("status").string("ok");
    w.key("datasets").uint(state.registry.len() as u64);
    w.key("uptime_seconds")
        .float(state.started.elapsed().as_secs_f64());
    w.end_object();
    let mut body = w.finish();
    body.push('\n');
    Response::json(200, body)
}

/// Cumulative metrics: the hgobs registry (counters, and histograms
/// including the `hg_phase_ns_*` kernel phases) rendered as Prometheus
/// text, followed by the server's own cache, admission, connection and
/// uptime series.
fn metrics(state: &AppState) -> Response {
    let mut body = hgobs::snapshot_report().render_prometheus();
    let cs = state.cache.stats();
    body.push_str(&format!(
        "hgserve_cache_hits {}\nhgserve_cache_misses {}\nhgserve_cache_insertions {}\n\
         hgserve_cache_evictions {}\nhgserve_cache_entries {}\nhgserve_cache_bytes {}\n\
         hgserve_cache_capacity_bytes {}\nhgserve_uptime_seconds {:.3}\n",
        cs.hits,
        cs.misses,
        cs.insertions,
        cs.evictions,
        cs.entries,
        cs.bytes,
        cs.capacity_bytes,
        state.started.elapsed().as_secs_f64(),
    ));
    body.push_str(&format!(
        "hgserve_shed_total {}\nhgserve_deadline_exceeded_total {}\n\
         hgserve_panics_total {}\nhgserve_workers_live {}\n\
         hgserve_queue_depth {}\nhgserve_queue_capacity {}\n",
        state.shed.load(Ordering::Relaxed),
        state.deadline_hits.load(Ordering::Relaxed),
        state.panics_total(),
        state.workers_live(),
        state.queued.load(Ordering::Relaxed),
        state.queue_capacity,
    ));
    // Connection engine gauges: the slab population by state machine
    // position, plus lifetime accepts.
    let [idle, reading, dispatched, writing] = state.open_connections();
    body.push_str(&format!(
        "hgserve_open_connections{{state=\"idle\"}} {idle}\n\
         hgserve_open_connections{{state=\"reading\"}} {reading}\n\
         hgserve_open_connections{{state=\"dispatched\"}} {dispatched}\n\
         hgserve_open_connections{{state=\"writing\"}} {writing}\n\
         hgserve_accept_total {}\n",
        state.accept_total(),
    ));
    // Per-dataset CSR memory (labelled gauge) plus the fleet total. For
    // mmap-backed datasets the value is the mapped length — an upper
    // bound on actual resident pages.
    let mut total_resident = 0u64;
    for name in state.registry.names() {
        if let Some(d) = state.registry.get(&name) {
            let bytes = d.resident_bytes() as u64;
            total_resident += bytes;
            body.push_str(&format!(
                "hgserve_dataset_resident_bytes{{dataset=\"{}\",storage=\"{}\"}} {bytes}\n",
                d.name,
                d.storage.as_str(),
            ));
            body.push_str(&format!(
                "hgserve_dataset_load_us{{dataset=\"{}\"}} {}\n",
                d.name, d.load_us,
            ));
        }
    }
    body.push_str(&format!(
        "hgserve_datasets_resident_bytes_total {total_resident}\n"
    ));
    Response::text(200, body)
}

fn post_dataset(state: &AppState, req: &Request) -> Response {
    let Some(name) = req.param("name").map(str::to_string) else {
        return Response::error(400, "POST /datasets requires `name` parameter");
    };
    let format = match req.param("format") {
        Some(f) => match Format::from_name(f) {
            Some(f) => f,
            None => return Response::error(400, &format!("unknown format `{f}` (hgr|pajek|mtx)")),
        },
        None => Format::Hgr,
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "dataset body must be UTF-8 text");
    };
    // A declared count sizes per-vertex arrays before any data line is
    // read, so a few header bytes could ask for gigabytes. Cap it by
    // the body limit.
    if let Some(n) = declared_size(format, text).filter(|&n| n > state.max_body_bytes) {
        return Response::error(
            400,
            &format!(
                "declared size {n} exceeds this server's limit of {} (its body limit)",
                state.max_body_bytes
            ),
        );
    }
    match state.registry.insert_text(&name, format, text, "upload") {
        Ok(ds) => {
            hgobs::counter!("serve.datasets_loaded");
            let mut w = hgobs::json::JsonWriter::new();
            w.begin_object();
            w.key("name").string(&ds.name);
            w.key("epoch").uint(ds.epoch);
            w.key("vertices").uint(ds.hypergraph.num_vertices() as u64);
            w.key("hyperedges").uint(ds.hypergraph.num_edges() as u64);
            w.key("pins").uint(ds.hypergraph.num_pins() as u64);
            w.end_object();
            let mut body = w.finish();
            body.push('\n');
            Response::json(201, body)
        }
        Err(msg) => Response::error(400, &msg),
    }
}

/// Resolve a `/v1/{dataset}/{endpoint}` request to its dataset and
/// query, or to the error answer and its endpoint label.
fn resolve(
    state: &AppState,
    dataset: &str,
    endpoint: &str,
    req: &Request,
) -> Result<(Arc<Dataset>, Query), (Response, &'static str)> {
    let Some(ds) = state.registry.get(dataset) else {
        return Err((
            Response::error(404, &format!("unknown dataset `{dataset}`")),
            "unknown_dataset",
        ));
    };
    match Query::parse(endpoint, |k| req.param(k).map(str::to_string)) {
        Ok(query) => Ok((ds, query)),
        Err(e) => Err((Response::error(e.status, &e.message), "bad_query")),
    }
}

/// Run a resolved query under the request's deadline and trace. Only
/// successful bodies are inserted, under `key` when there is one
/// (traced requests bypass the cache): a 504 reflects this request's
/// budget, not the dataset, and must never mask a later answer.
fn compute(
    state: &AppState,
    req: &Request,
    ds: &Dataset,
    query: &Query,
    key: Option<&str>,
    trace: &TraceCtx,
) -> Response {
    let opts = exec_opts(state, req, ds, trace.clone());
    respond(state, query.run_opts(&ds.hypergraph, &opts), key)
}

/// How a query on `ds` runs for `req`: under the request's deadline,
/// with `trace`, on every core for large datasets, in the dataset's
/// vertex order.
fn exec_opts(state: &AppState, req: &Request, ds: &Dataset, trace: TraceCtx) -> ExecOpts {
    ExecOpts {
        deadline: state.request_deadline(req),
        parallel: ds.hypergraph.num_vertices() >= state.par_threshold,
        trace,
        relabel: ds.relabeling.clone(),
    }
}

/// The response to a query's result, inserting a successful body under
/// `key` when there is one.
fn respond(state: &AppState, result: Result<String, QueryError>, key: Option<&str>) -> Response {
    match result {
        Ok(body) => {
            let body = Arc::new(body);
            if let Some(key) = key {
                state.cache.insert(key, Arc::clone(&body));
            }
            Response::json(200, body)
        }
        Err(e) => Response::error(e.status, &e.message),
    }
}

/// Install a `SIGINT` handler that flips the returned flag on Ctrl-C
/// and wakes the event loop, which turns the flag into a graceful
/// shutdown. Pure `std` + a direct `signal(2)` declaration; the
/// handler body is one atomic store plus one `write(2)` on the waker
/// eventfd — both async-signal-safe.
#[cfg(unix)]
pub fn install_sigint_flag() -> &'static AtomicBool {
    extern "C" fn on_sigint(_sig: i32) {
        SIGINT_FLAG.store(true, Ordering::SeqCst);
        poller::wake_fd(SIGINT_WAKE_FD.load(Ordering::SeqCst));
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    let handler: extern "C" fn(i32) = on_sigint;
    // SAFETY: `on_sigint` is a program-lifetime `extern "C" fn(i32)`
    // that does only async-signal-safe work (one atomic store and one
    // write(2)), which is all signal(2) requires of a handler.
    unsafe {
        signal(SIGINT, handler as usize);
    }
    &SIGINT_FLAG
}

/// Non-unix fallback: a flag nothing ever sets (shutdown then comes
/// from `/admin/shutdown` only).
#[cfg(not(unix))]
pub fn install_sigint_flag() -> &'static AtomicBool {
    &SIGINT_FLAG
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::HypergraphBuilder;

    fn toy_state() -> AppState {
        let registry = Arc::new(Registry::new());
        let mut b = HypergraphBuilder::new(4);
        b.add_edge([0, 1]);
        b.add_edge([1, 2]);
        b.add_edge([2, 3]);
        let text = hypergraph::io::write_hgr(&b.build());
        registry
            .insert_text("toy", Format::Hgr, &text, "test")
            .unwrap();
        AppState::from_config(
            &ServerConfig {
                threads: 2,
                cache_bytes: 1 << 20,
                max_body_bytes: 1 << 20,
                ..ServerConfig::default()
            },
            registry,
        )
    }

    fn get(path: &str) -> Request {
        let (path, query) = crate::http::split_target(path);
        Request {
            method: "GET".to_string(),
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn routing_table() {
        let state = toy_state();
        assert_eq!(route(&state, &get("/healthz")).status, 200);
        assert_eq!(route(&state, &get("/datasets")).status, 200);
        assert_eq!(route(&state, &get("/metrics")).status, 200);
        assert_eq!(route(&state, &get("/v1/toy/stats")).status, 200);
        assert_eq!(route(&state, &get("/v1/toy/kcore?k=1")).status, 200);
        assert_eq!(route(&state, &get("/v1/none/stats")).status, 404);
        assert_eq!(route(&state, &get("/v1/toy/bogus")).status, 404);
        assert_eq!(route(&state, &get("/v1/toy/kcore?k=no")).status, 400);
        assert_eq!(route(&state, &get("/nope")).status, 404);
        let mut post = get("/datasets");
        post.method = "DELETE".to_string();
        assert_eq!(route(&state, &post).status, 405);
    }

    #[test]
    fn repeated_query_hits_cache() {
        let state = toy_state();
        let r1 = route(&state, &get("/v1/toy/diameter"));
        let r2 = route(&state, &get("/v1/toy/diameter"));
        assert_eq!(r1.status, 200);
        assert_eq!(r1.body, r2.body);
        let cs = state.cache.stats();
        assert_eq!(cs.hits, 1, "{cs:?}");
        assert_eq!(cs.misses, 1, "{cs:?}");
        assert_eq!(cs.entries, 1, "{cs:?}");
    }

    #[test]
    fn post_dataset_then_query_and_epoch_isolation() {
        let state = toy_state();
        let mut req = get("/datasets?name=up&format=hgr");
        req.method = "POST".to_string();
        req.body = b"1 2\n1 2\n".to_vec();
        let r = route(&state, &req);
        assert_eq!(r.status, 201, "{}", r.body);
        assert!(r.body.contains("\"epoch\":0"));

        let r = route(&state, &get("/v1/up/stats"));
        assert!(r.body.contains("\"hyperedges\":1"), "{}", r.body);

        // Replace the dataset: epoch bumps, cached answer must not leak.
        req.body = b"2 3\n1 2\n2 3\n".to_vec();
        let r = route(&state, &req);
        assert!(r.body.contains("\"epoch\":1"), "{}", r.body);
        let r = route(&state, &get("/v1/up/stats"));
        assert!(r.body.contains("\"hyperedges\":2"), "{}", r.body);
    }

    #[test]
    fn post_malformed_hgr_is_400_with_line_number() {
        let state = toy_state();
        let mut req = get("/datasets?name=bad");
        req.method = "POST".to_string();
        req.body = b"2 3\n1 2\nwat\n".to_vec();
        let r = route(&state, &req);
        assert_eq!(r.status, 400);
        assert!(r.body.contains("line 3"), "{}", r.body);
    }

    #[test]
    fn post_hostile_header_counts_are_400_and_server_keeps_answering() {
        // Declared counts that once panicked a parser (ids past u32) or
        // aborted the process (allocations sized by the declared count).
        let state = toy_state();
        let mtx = "%%MatrixMarket matrix coordinate real general\n";
        let cases = [
            ("hgr", "0 4294967296\n".to_string()),
            ("hgr", "1000000000000 1\n1\n".to_string()),
            ("pajek", "*Vertices 4294967296\n".to_string()),
            ("mtx", format!("{mtx}2 2 1000000000000\n1 1 1\n")),
            ("mtx", format!("{mtx}4294967297 1 1\n1 1 1\n")),
        ];
        for (format, body) in cases {
            let mut req = get(&format!("/datasets?name=hostile&format={format}"));
            req.method = "POST".to_string();
            req.body = body.clone().into_bytes();
            let r = route(&state, &req);
            assert_eq!(r.status, 400, "{format} {body:?}: {}", r.body);
        }
        assert_eq!(route(&state, &get("/healthz")).status, 200);
        assert_eq!(route(&state, &get("/v1/hostile/stats")).status, 404);
    }

    #[test]
    fn post_declared_sizes_past_the_body_limit_are_400_before_allocating() {
        // Each declares 4e9 vertices, rows or columns (under u32::MAX,
        // so the parsers alone would allocate for them) in a few bytes.
        let state = toy_state();
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n";
        let cases = [
            ("hgr", "0 4000000000\n".to_string()),
            ("pajek", "*Vertices 4000000000\n".to_string()),
            ("mtx", format!("{mtx}4000000000 3 0\n")),
            ("mtx", format!("{mtx}% no data\n3 4000000000 0\n")),
        ];
        for (format, body) in cases {
            let mut req = get(&format!("/datasets?name=huge&format={format}"));
            req.method = "POST".to_string();
            req.body = body.clone().into_bytes();
            let r = route(&state, &req);
            assert_eq!(r.status, 400, "{format} {body:?}: {}", r.body);
            assert!(r.body.contains("declared size 4000000000"), "{}", r.body);
        }
        assert_eq!(route(&state, &get("/healthz")).status, 200);
        assert_eq!(route(&state, &get("/v1/huge/stats")).status, 404);
        assert_eq!(route(&state, &get("/v1/toy/stats")).status, 200);
    }

    #[test]
    fn metrics_exposes_cache_and_hgobs_counters() {
        let state = toy_state();
        let _ = route(&state, &get("/v1/toy/stats"));
        let _ = route(&state, &get("/v1/toy/stats"));
        let r = route(&state, &get("/metrics"));
        assert!(r.body.contains("hgserve_cache_hits "), "{}", r.body);
        assert!(r.body.contains("hgserve_cache_capacity_bytes "));
        assert!(r.body.contains("hgserve_shed_total 0"), "{}", r.body);
        assert!(
            r.body.contains("hgserve_deadline_exceeded_total "),
            "{}",
            r.body
        );
        assert!(r.body.contains("hgserve_queue_depth 0"), "{}", r.body);
        assert!(r.body.contains("hgserve_queue_capacity 64"), "{}", r.body);
        assert!(
            r.body
                .contains("hgserve_open_connections{state=\"idle\"} 0"),
            "{}",
            r.body
        );
        assert!(
            r.body
                .contains("hgserve_open_connections{state=\"dispatched\"} 0"),
            "{}",
            r.body
        );
        assert!(r.body.contains("hgserve_accept_total 0"), "{}", r.body);
        assert!(
            r.body
                .contains("hgserve_dataset_resident_bytes{dataset=\"toy\",storage=\"owned\"}"),
            "{}",
            r.body
        );
        assert!(
            r.body.contains("hgserve_dataset_load_us{dataset=\"toy\"}"),
            "{}",
            r.body
        );
        assert!(
            r.body.contains("hgserve_datasets_resident_bytes_total "),
            "{}",
            r.body
        );
    }

    fn with_header(mut req: Request, name: &str, value: &str) -> Request {
        req.headers.push((name.to_string(), value.to_string()));
        req
    }

    #[test]
    fn request_deadline_resolution() {
        let state = toy_state();
        // No header, no default → unlimited.
        assert!(state
            .request_deadline(&get("/v1/toy/diameter"))
            .is_unlimited());
        // Header wins and is clamped to max_deadline_ms (60s default).
        let req = with_header(get("/v1/toy/diameter"), "x-deadline-ms", "999999999");
        let dl = state.request_deadline(&req);
        assert_eq!(dl.budget(), Some(Duration::from_secs(60)));
        // Unparseable header values fall back to the server default.
        let req = with_header(get("/v1/toy/diameter"), "x-deadline-ms", "soon");
        assert!(state.request_deadline(&req).is_unlimited());
        // An explicit 0 cannot lift the cap: it gets the full 60s.
        let req = with_header(get("/v1/toy/diameter"), "x-deadline-ms", "0");
        let dl = state.request_deadline(&req);
        assert_eq!(dl.budget(), Some(Duration::from_secs(60)));
        // Only a server without a cap leaves a requested 0 unlimited.
        let uncapped = AppState {
            max_deadline_ms: 0,
            ..toy_state()
        };
        assert!(uncapped.request_deadline(&req).is_unlimited());
    }

    #[test]
    fn every_response_carries_a_trace_id() {
        let state = toy_state();
        for path in ["/healthz", "/v1/toy/stats", "/nope"] {
            let r = route(&state, &get(path));
            assert!(
                r.extra_headers
                    .iter()
                    .any(|(n, v)| *n == "X-Trace-Id" && v.len() == 16),
                "{path}: {:?}",
                r.extra_headers
            );
        }
    }

    #[test]
    fn traced_query_embeds_trace_and_bypasses_cache() {
        let state = toy_state();
        let plain = route(&state, &get("/v1/toy/diameter"));
        assert_eq!(plain.status, 200);
        assert!(!plain.body.contains("\"trace\""), "{}", plain.body);
        let traced = route(&state, &get("/v1/toy/diameter?trace=1"));
        assert_eq!(traced.status, 200);
        assert!(
            traced.body.contains("\"trace\":{\"id\":\""),
            "{}",
            traced.body
        );
        assert!(traced.body.contains("\"total_us\":"), "{}", traced.body);
        assert!(traced.body.contains("msbfs.batch"), "{}", traced.body);
        // The plain request warmed the cache; the traced one bypassed
        // both lookup and insert, so no hit was recorded.
        let cs = state.cache.stats();
        assert_eq!(cs.hits, 0, "{cs:?}");
        assert_eq!(cs.misses, 1, "{cs:?}");
        assert_eq!(cs.insertions, 1, "{cs:?}");
    }

    #[test]
    fn x_trace_header_also_opts_in() {
        let state = toy_state();
        let req = with_header(get("/v1/toy/stats"), "x-trace", "1");
        let r = route(&state, &req);
        assert!(r.body.contains("\"trace\":{\"id\":\""), "{}", r.body);
    }

    #[test]
    fn slowlog_retains_query_traces_but_not_probes() {
        let state = toy_state();
        let _ = route(&state, &get("/v1/toy/diameter"));
        let _ = route(&state, &get("/healthz"));
        let _ = route(&state, &get("/metrics"));
        let r = route(&state, &get("/debug/slowlog"));
        assert_eq!(r.status, 200);
        assert!(
            r.body.starts_with("{\"schema\":\"hg-slowlog/1\""),
            "{}",
            r.body
        );
        assert!(r.body.contains("\"endpoint\":\"diameter\""), "{}", r.body);
        assert!(!r.body.contains("\"endpoint\":\"healthz\""), "{}", r.body);
        assert!(!r.body.contains("\"endpoint\":\"metrics\""), "{}", r.body);
    }

    #[test]
    fn cached_answer_bypasses_the_deadline() {
        // A cached 200 is served even under a tight deadline — the
        // budget bounds *compute*, and a hit costs none. (The 504 path
        // itself is deterministic in the query-layer tests.)
        let state = toy_state();
        let ok = route(&state, &get("/v1/toy/diameter"));
        assert_eq!(ok.status, 200);
        let req = with_header(get("/v1/toy/diameter"), "x-deadline-ms", "1");
        let again = route(&state, &req);
        assert_eq!(again.status, 200, "cache hit should bypass the deadline");
        assert_eq!(again.body, ok.body);
    }
}
