//! The analytics daemon: readiness event loop → fixed worker pool →
//! registry lookup → result cache → algorithms.
//!
//! ```text
//!              ┌────────────────────────────────┐  bounded   ┌─────────┐
//!   accept ───▶│ event loop (1 thread, epoll)   │── mpsc ───▶│ worker 0│──┐
//!   read  ◀──▶│ conn slab:                      │  job queue │   …     │  │ ┌──────────┐
//!   write ◀──▶│  idle → reading → dispatched →  │            │ worker N│──┼▶│ registry │
//!   close ───▶│  writing → idle  (per conn)     │◀─ completions + wake ─┘  │ ├──────────┤
//!              └────────────────────────────────┘   (eventfd)             └▶│ LRU cache│
//!                     ▲ waker wakeups                                       └──────────┘
//!                     └── SIGINT handler / POST /admin/shutdown / workers
//! ```
//!
//! One nonblocking event loop owns the listener and every connection:
//! it accepts, drains reads into per-connection buffers, parses
//! complete requests with the incremental HTTP parser, and writes
//! serialized responses back with vectored writes — so thousands of
//! idle keep-alive connections cost zero threads and zero syscalls
//! until bytes actually move. Compute stays on the worker pool: a
//! parsed request is enqueued (bounded — the admission-control valve),
//! a worker runs [`route`] and hands the serialized response back via
//! a completion queue plus a waker write. The loop itself answers the
//! protocol-robustness errors (`503` queue-full, `408` slow-loris,
//! `400`/`413`/`431` parse failures) without touching a worker.
//!
//! Graceful shutdown: the flag wakes the loop, which closes the
//! listener and idle connections, lets dispatched and mid-read
//! requests finish (answering `Connection: close`) within a drain
//! grace period, then exits; the dropped job queue drains the workers.
//! `ServerHandle::shutdown` joins everything, so when it returns no
//! request is lost.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hgobs::trace::trace_id;
use hgobs::{Deadline, TraceCtx};

use crate::cache::ShardedLru;
use crate::http::{parse_request_bytes, ParseOutcome, Request, Response};
use crate::poller::{self, Interest, Poller, Waker};
use crate::query::{ExecOpts, Query};
use crate::registry::{Format, Registry};
use crate::slowlog::{unix_ms_now, SlowLog, SlowLogEntry};

/// Server tunables, all CLI-exposed.
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
    /// Datasets with at least this many vertices run the diameter sweep
    /// on every core (`parcore`'s MS-BFS); no other query depends on it.
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
    /// server-wide default; `0` (or no header and no default) means
    /// unlimited. Unparseable header values are ignored.
    pub fn request_deadline(&self, req: &Request) -> Deadline {
        let requested = req
            .header("x-deadline-ms")
            .and_then(|v| v.trim().parse::<u64>().ok());
        let ms = match requested {
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
    /// A complete request is on the job queue or under compute.
    Dispatched = 2,
    /// Response bytes are queued for (possibly partial) writeout.
    Writing = 3,
}

/// One request handed to the worker pool, tagged with the connection
/// token so the completion finds its way back (or is dropped if the
/// connection died meanwhile).
struct Job {
    token: u64,
    req: Request,
}

/// A serialized response traveling back from a worker: byte chunks for
/// the loop's vectored writeout plus the keep-alive decision.
struct Completion {
    token: u64,
    head: Vec<u8>,
    body: Vec<u8>,
    close: bool,
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
    wqueue: VecDeque<Vec<u8>>,
    wpos: usize,
    /// When the current (incomplete) request head started arriving —
    /// the slow-loris clock behind the 408 timer.
    head_started: Option<Instant>,
    peer_closed: bool,
    close_after_flush: bool,
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
            hgobs::gauge!("serve.conn.open", self.open as i64);
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
                    hgobs::counter!("serve.connections");
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
                        close_after_flush: false,
                        armed: Interest::READ,
                    });
                    self.open += 1;
                    self.state
                        .conn_gauge(ConnState::Idle)
                        .fetch_add(1, Ordering::Relaxed);
                    hgobs::gauge!("serve.conn.open", self.open as i64);
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
    /// `WouldBlock` or EOF), then try to advance the state machine.
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
                Ok(n) => conn.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.advance(idx);
    }

    /// Try to move the connection forward: parse one buffered request
    /// and dispatch it, park it idle/reading, or answer a protocol
    /// error directly. At most one request is in flight per connection
    /// (responses stay in order); the next pipelined request is parsed
    /// when the current response finishes flushing.
    fn advance(&mut self, idx: usize) {
        enum Act {
            Busy,
            CloseNow,
            ParkIdle,
            ParkReading,
            Dispatch(Box<Request>),
            Respond { status: u16, message: String },
        }
        let max_body = self.state.max_body_bytes;
        let act = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if matches!(conn.state, ConnState::Dispatched | ConnState::Writing) {
                Act::Busy
            } else {
                // Compact the consumed prefix before growing further.
                if conn.rpos == conn.rbuf.len() {
                    conn.rbuf.clear();
                    conn.rpos = 0;
                } else if conn.rpos > 16 * 1024 {
                    conn.rbuf.drain(..conn.rpos);
                    conn.rpos = 0;
                }
                if conn.rbuf.len() == conn.rpos {
                    if conn.peer_closed {
                        Act::CloseNow
                    } else {
                        conn.head_started = None;
                        Act::ParkIdle
                    }
                } else {
                    match parse_request_bytes(&conn.rbuf[conn.rpos..], max_body) {
                        ParseOutcome::Complete(req, used) => {
                            conn.rpos += used;
                            conn.head_started = None;
                            Act::Dispatch(Box::new(req))
                        }
                        ParseOutcome::Partial => {
                            if conn.peer_closed {
                                Act::Respond {
                                    status: 400,
                                    message: "truncated request".to_string(),
                                }
                            } else {
                                conn.head_started.get_or_insert_with(Instant::now);
                                Act::ParkReading
                            }
                        }
                        ParseOutcome::Error { status, message } => Act::Respond { status, message },
                    }
                }
            }
        };
        match act {
            Act::Busy => {}
            Act::CloseNow => self.close_conn(idx),
            Act::ParkIdle => self.set_state(idx, ConnState::Idle),
            Act::ParkReading => self.set_state(idx, ConnState::Reading),
            Act::Dispatch(req) => self.dispatch(idx, *req),
            Act::Respond { status, message } => {
                hgobs::counter!("serve.bad_requests");
                let (head, body) = Response::error(status, &message).to_bytes(true);
                self.enqueue_write(idx, head, body, true);
            }
        }
    }

    /// Hand a parsed request to the worker pool, or answer `503` +
    /// `Retry-After` directly when the bounded queue is full — the
    /// admission-control valve, now entirely inside the event loop.
    fn dispatch(&mut self, idx: usize, req: Request) {
        let Some(token) = self.conns[idx].as_ref().map(|c| c.token) else {
            return;
        };
        self.state.queued.fetch_add(1, Ordering::Relaxed);
        match self.jobs.try_send(Job { token, req }) {
            Ok(()) => self.set_state(idx, ConnState::Dispatched),
            Err(TrySendError::Full(_)) => {
                self.state.queued.fetch_sub(1, Ordering::Relaxed);
                let shed_total = self.state.shed.fetch_add(1, Ordering::Relaxed) + 1;
                hgobs::counter!("serve.shed");
                hgobs::log::warn(|| {
                    format!("shedding request with 503: job queue full ({shed_total} shed so far)")
                });
                let (head, body) = Response::error(503, "server overloaded; queue full")
                    .with_retry_after(1)
                    .to_bytes(true);
                self.enqueue_write(idx, head, body, true);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.state.queued.fetch_sub(1, Ordering::Relaxed);
                self.close_conn(idx);
            }
        }
    }

    /// Queue response chunks and start (or continue) writing them out.
    fn enqueue_write(&mut self, idx: usize, head: Vec<u8>, body: Vec<u8>, close: bool) {
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if !head.is_empty() {
                conn.wqueue.push_back(head);
            }
            if !body.is_empty() {
                conn.wqueue.push_back(body);
            }
            conn.close_after_flush |= close;
        }
        self.set_state(idx, ConnState::Writing);
        self.flush(idx);
    }

    /// Write queued chunks with vectored writes until drained or
    /// `WouldBlock` (then arm write interest and wait for the edge).
    /// A finished flush closes the connection or parses the next
    /// pipelined request from the buffer.
    fn flush(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.wqueue.is_empty() {
                conn.wpos = 0;
                break;
            }
            let slices: Vec<IoSlice<'_>> = conn
                .wqueue
                .iter()
                .enumerate()
                .map(|(i, chunk)| IoSlice::new(&chunk[if i == 0 { conn.wpos } else { 0 }..]))
                .collect();
            match conn.stream.write_vectored(&slices) {
                Ok(n) => {
                    let mut done = conn.wpos + n;
                    while let Some(front) = conn.wqueue.front() {
                        if done >= front.len() {
                            done -= front.len();
                            conn.wqueue.pop_front();
                        } else {
                            break;
                        }
                    }
                    conn.wpos = done;
                    if n == 0 {
                        self.close_conn(idx);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.rearm(idx, Interest::READ_WRITE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        let close = self.conns[idx]
            .as_ref()
            .is_some_and(|c| c.close_after_flush);
        if close {
            self.close_conn(idx);
            return;
        }
        self.rearm(idx, Interest::READ);
        self.set_state(idx, ConnState::Idle);
        self.advance(idx);
    }

    /// Hand worker results back to their connections.
    fn drain_completions(&mut self) {
        loop {
            let completion = self.completions.lock().unwrap().pop_front();
            let Some(c) = completion else { return };
            let Some(idx) = self.conn_index(c.token) else {
                continue; // connection died while the worker computed
            };
            self.enqueue_write(idx, c.head, c.body, c.close);
        }
    }

    /// Answer `408` on connections whose request head has been
    /// trickling in longer than the header timeout (slow-loris).
    fn check_head_timeouts(&mut self) {
        let budget = self.state.header_timeout;
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let expired = self.conns[idx].as_ref().is_some_and(|c| {
                c.state == ConnState::Reading
                    && c.head_started
                        .is_some_and(|t0| now.duration_since(t0) >= budget)
            });
            if expired {
                hgobs::counter!("serve.bad_requests");
                hgobs::log::warn(|| {
                    "closing slow connection with 408: request header read timed out".to_string()
                });
                let (head, body) =
                    Response::error(408, "request header read timed out").to_bytes(true);
                self.enqueue_write(idx, head, body, true);
            }
        }
    }

    /// The nearest timer deadline: the earliest slow-loris expiry,
    /// capped by the drain deadline during shutdown. `None` blocks
    /// until readiness or a wake.
    fn next_timeout(&self, drain_deadline: Option<Instant>) -> Option<Duration> {
        let mut next: Option<Instant> = drain_deadline;
        for conn in self.conns.iter().flatten() {
            if conn.state == ConnState::Reading {
                if let Some(t0) = conn.head_started {
                    let deadline = t0 + self.state.header_timeout;
                    next = Some(next.map_or(deadline, |n| n.min(deadline)));
                }
            }
        }
        next.map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// Start the graceful drain: stop accepting and drop parked idle
    /// connections; reading/dispatched/writing connections get the
    /// grace period to finish.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener_fd(&listener));
        }
        for idx in 0..self.conns.len() {
            if self.conns[idx]
                .as_ref()
                .is_some_and(|c| c.state == ConnState::Idle)
            {
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
            let timeout = self.next_timeout(drain_deadline);
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
                        self.flush(idx);
                    }
                }
            }
            self.drain_completions();
            self.check_head_timeouts();
        }
        // Dropping self (and with it `jobs`) closes the queue; workers
        // finish whatever is already queued, then exit.
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
                .spawn(move || loop {
                    let job = rx.lock().unwrap().recv();
                    match job {
                        Ok(Job { token, req }) => {
                            state.queued.fetch_sub(1, Ordering::Relaxed);
                            let resp = route(&state, &req);
                            // Re-check the flag after routing so the
                            // response to `/admin/shutdown` itself
                            // already says `Connection: close`.
                            let close = req.wants_close() || state.shutting_down();
                            let (head, body) = resp.to_bytes(close);
                            completions.lock().unwrap().push_back(Completion {
                                token,
                                head,
                                body,
                                close,
                            });
                            waker.wake();
                        }
                        Err(_) => break, // event loop gone: drained
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

/// Dispatch one request to its handler, recording request counters, a
/// per-endpoint latency histogram, and a slow-query-log entry carrying
/// the request's trace. Every response gets an `X-Trace-Id` header;
/// `?trace=1` (or `X-Trace: 1`) additionally embeds the trace block —
/// with `total_us` equal to the latency observation — in a 200 body.
pub fn route(state: &AppState, req: &Request) -> Response {
    let t0 = Instant::now();
    hgobs::counter!("serve.requests");
    let seq = state.trace_seq.fetch_add(1, Ordering::Relaxed);
    let trace = TraceCtx::new(trace_id(&[req.method.as_str(), req.path.as_str()], seq));
    let explicit = wants_trace(req);
    let (mut resp, endpoint) = route_inner(state, req, &trace, explicit);
    let us = t0.elapsed().as_micros() as u64;
    hgobs::record_hist(&format!("serve.latency_us.{endpoint}"), us);
    if resp.status >= 400 {
        hgobs::add_counter(&format!("serve.errors.{}", resp.status), 1);
    }
    if resp.status == 504 {
        state.deadline_hits.fetch_add(1, Ordering::Relaxed);
        hgobs::counter!("serve.deadline_exceeded");
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
            resp.body = body;
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

fn route_inner(
    state: &AppState,
    req: &Request,
    trace: &TraceCtx,
    explicit_trace: bool,
) -> (Response, &'static str) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
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
        ("GET", ["v1", dataset, endpoint]) => {
            query(state, dataset, endpoint, req, trace, explicit_trace)
        }
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

/// Cumulative metrics: the hgobs registry (counters, histograms, spans)
/// rendered as Prometheus text, followed by cache and uptime gauges.
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
         hgserve_queue_depth {}\nhgserve_queue_capacity {}\n",
        state.shed.load(Ordering::Relaxed),
        state.deadline_hits.load(Ordering::Relaxed),
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

fn query(
    state: &AppState,
    dataset: &str,
    endpoint: &str,
    req: &Request,
    trace: &TraceCtx,
    explicit_trace: bool,
) -> (Response, &'static str) {
    let Some(ds) = state.registry.get(dataset) else {
        return (
            Response::error(404, &format!("unknown dataset `{dataset}`")),
            "unknown_dataset",
        );
    };
    let q = match Query::parse(endpoint, |k| req.param(k).map(str::to_string)) {
        Ok(q) => q,
        Err(e) => return (Response::error(e.status, &e.message), "bad_query"),
    };
    let label = q.endpoint();
    let key = format!("{}:{}", ds.cache_prefix(), q.canonical());
    // An explicit `?trace=1` request bypasses the cache entirely (both
    // lookup and insert): its trace block must describe the compute
    // that produced *this* body, and the freshly traced body must not
    // displace the cached untraced answer other clients share.
    if !explicit_trace {
        if let Some(body) = state.cache.get(&key) {
            hgobs::counter!("serve.cache.hit");
            return (Response::json(200, body.as_str().to_string()), label);
        }
        hgobs::counter!("serve.cache.miss");
    }
    let opts = ExecOpts {
        deadline: state.request_deadline(req),
        parallel: ds.hypergraph.num_vertices() >= state.par_threshold,
        trace: trace.clone(),
        relabel: ds.relabeling.clone(),
    };
    // Only successful bodies are cached: a 504 reflects this request's
    // budget, not the dataset, and must never mask a later answer.
    match q.run_opts(&ds.hypergraph, &opts) {
        Ok(body) => {
            let body = Arc::new(body);
            if !explicit_trace {
                state.cache.insert(&key, Arc::clone(&body));
            }
            (Response::json(200, body.as_str().to_string()), label)
        }
        Err(e) => (Response::error(e.status, &e.message), label),
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
        // Explicit 0 disables the deadline for this request.
        let req = with_header(get("/v1/toy/diameter"), "x-deadline-ms", "0");
        assert!(state.request_deadline(&req).is_unlimited());
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
