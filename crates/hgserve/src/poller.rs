//! Readiness polling for the server's connection event loop.
//!
//! This is raw `epoll(7)` — edge-triggered, with an `eventfd(2)` waker
//! so worker threads (and the SIGINT handler) can interrupt a blocked
//! `epoll_wait`. Linux is the one target: elsewhere a stub's
//! constructor fails with `Unsupported`, which [`crate::server::start`]
//! surfaces as a clean start-up error. In the style of
//! `hypergraph::storage`'s mmap shim, the syscalls are declared
//! directly with `extern "C"` — the workspace stays free of a libc
//! dependency. The two descriptors are owned through std (`OwnedFd`
//! for the epoll instance, a `File` for the eventfd), which closes
//! them and does the waker's reads and writes.
//!
//! The interface is deliberately small: register a file descriptor
//! under a caller-chosen token, adjust its interest set, and block in
//! [`Poller::wait`] for readiness [`Event`]s. Waker wakeups are
//! consumed internally and surface as a plain (possibly event-free)
//! return from `wait`, so the caller's loop re-checks its own queues
//! after every return.

#[cfg(target_os = "linux")]
use std::fs::File;
use std::io;
#[cfg(target_os = "linux")]
use std::io::{Read, Write};
#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::Arc;
use std::time::Duration;

#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type RawFd = i32;

/// Token values at or above this are reserved for the poller itself
/// (the waker); callers must stay below.
pub const RESERVED_TOKEN: u64 = u64::MAX - 15;

#[cfg(target_os = "linux")]
const WAKER_TOKEN: u64 = u64::MAX;

/// Which readiness directions a registration asks for. Read interest
/// also reports peer hangup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report. `readable`/`writable` include error and
/// hangup conditions so a stalled connection always makes progress
/// (the subsequent read/write observes the actual error).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer closed its end (or the socket errored): the connection
    /// should be drained and torn down.
    pub hangup: bool,
}

/// Handle for interrupting [`Poller::wait`] from another thread.
/// Cheap to clone; safe to use from worker threads. The eventfd is
/// shared by the [`Poller`] and every clone and closed on the last
/// drop, so a wake can never hit a recycled descriptor after the loop
/// exits.
#[derive(Clone)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    fd: Arc<File>,
    #[cfg(not(target_os = "linux"))]
    _unused: Arc<()>,
}

impl Waker {
    /// Make the next (or current) `wait` return promptly: one 8-byte
    /// `write(2)`, an eventfd's `u64` of 1, which writes all 8 bytes or
    /// none. A full counter (`WouldBlock`) already wakes the loop.
    pub fn wake(&self) {
        #[cfg(target_os = "linux")]
        let _ = (&*self.fd).write(&1u64.to_ne_bytes());
    }

    /// The raw descriptor behind this waker, for contexts that cannot
    /// hold the `Waker` itself (the SIGINT handler stores it in an
    /// atomic and calls [`wake_fd`]).
    pub fn raw_fd(&self) -> RawFd {
        #[cfg(target_os = "linux")]
        {
            self.fd.as_raw_fd()
        }
        #[cfg(not(target_os = "linux"))]
        {
            -1
        }
    }
}

/// Wake a raw waker descriptor: one `write(2)`, which is
/// async-signal-safe — this is the only call a signal handler makes,
/// and why it cannot go through [`Waker::wake`]'s `File`.
/// An eventfd takes exactly eight bytes: a `u64` of 1.
#[cfg(target_os = "linux")]
pub fn wake_fd(fd: RawFd) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    if fd < 0 {
        return;
    }
    let one: u64 = 1;
    // SAFETY: the buffer is the 8 bytes of the live local `one`, which
    // write(2) only reads.
    unsafe {
        write(fd, (&one as *const u64).cast(), 8);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn wake_fd(_fd: RawFd) {}

/// Drain a nonblocking waker until empty; wakeups coalesce.
#[cfg(target_os = "linux")]
fn drain(mut file: &File) {
    let mut buf = [0u8; 64];
    while let Ok(n) = file.read(&mut buf) {
        if n < buf.len() {
            return;
        }
    }
}

/// Millisecond timeout for `epoll_wait`: `None` blocks forever (-1);
/// sub-millisecond durations round *up* so timer deadlines are never
/// spun on at zero.
#[cfg(target_os = "linux")]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
    }
}

// ---------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
mod epoll_sys {
    // Layout matches the kernel ABI: packed on x86 only, like the
    // uapi headers declare it.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, max: i32, timeout_ms: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EFD_NONBLOCK: i32 = 0x800;
    pub const EFD_CLOEXEC: i32 = 0x80000;
}

/// Edge-triggered `epoll` poller. Registrations carry `EPOLLET`, so
/// the event loop must always drain reads and writes to `WouldBlock`
/// before the next `wait` — a readiness edge is reported once.
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: OwnedFd,
    waker: Waker,
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        use epoll_sys::*;
        // Each descriptor is owned from the moment it exists, so an
        // error below closes what was made before it.
        // SAFETY: no pointer arguments; the result is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `epfd` is a fresh descriptor that nothing else owns.
        let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
        // SAFETY: no pointer arguments; the result is checked below.
        let wfd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `wfd` is a fresh descriptor that nothing else owns.
        let wake = unsafe { File::from_raw_fd(wfd) };
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLET,
            data: WAKER_TOKEN,
        };
        // SAFETY: `ev` is a live `EpollEvent` in the kernel's layout,
        // read by the kernel only for the duration of the call.
        if unsafe { epoll_ctl(epfd.as_raw_fd(), EPOLL_CTL_ADD, wfd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            waker: Waker { fd: Arc::new(wake) },
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    fn events_mask(interest: Interest) -> u32 {
        use epoll_sys::*;
        let mut ev = EPOLLET | EPOLLRDHUP;
        if interest.readable {
            ev |= EPOLLIN;
        }
        if interest.writable {
            ev |= EPOLLOUT;
        }
        ev
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = epoll_sys::EpollEvent {
            events: Self::events_mask(interest),
            data: token,
        };
        // SAFETY: `ev` is a live `EpollEvent` in the kernel's layout,
        // read by the kernel only for the duration of the call.
        if unsafe { epoll_sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` (edge-triggered).
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert!(token < RESERVED_TOKEN);
        self.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arm `fd` with a new interest set (and/or token).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert!(token < RESERVED_TOKEN);
        self.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove `fd` from the interest set (must precede closing it).
    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        // A dummy event for kernels that reject a null pointer on DEL.
        self.ctl(epoll_sys::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    /// Block until readiness, timeout, or a wake. `events` is cleared
    /// and refilled; waker wakeups and signal interrupts return with
    /// whatever (possibly zero) events arrived.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        use epoll_sys::*;
        events.clear();
        // SAFETY: `buf` holds `buf.len()` initialized `EpollEvent`s and
        // the kernel writes at most `maxevents = buf.len()` of them.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        let n = n as usize;
        for i in 0..n {
            // Copy out of the (possibly packed) kernel struct first.
            let (mask, token) = {
                let e = self.buf[i];
                (e.events, e.data)
            };
            if token == WAKER_TOKEN {
                drain(&self.waker.fd);
                continue;
            }
            events.push(Event {
                token,
                readable: mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                writable: mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                hangup: mask & (EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Saturated: double capacity so a big fleet drains in one
            // syscall next round.
            let len = self.buf.len() * 2;
            self.buf.resize(len, EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

// ------------------------------------------------------------ other

/// Stub for every target but Linux: construction fails, so the server
/// reports readiness serving as unsupported instead of half-working.
#[cfg(not(target_os = "linux"))]
pub struct Poller;

#[cfg(not(target_os = "linux"))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling requires Linux (epoll)",
        ))
    }

    pub fn waker(&self) -> Waker {
        Waker {
            _unused: Arc::new(()),
        }
    }

    pub fn add(&mut self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        unreachable!("Poller::new always fails off Linux")
    }

    pub fn modify(&mut self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        unreachable!("Poller::new always fails off Linux")
    }

    pub fn delete(&mut self, _fd: RawFd) -> io::Result<()> {
        unreachable!("Poller::new always fails off Linux")
    }

    pub fn wait(&mut self, _events: &mut Vec<Event>, _t: Option<Duration>) -> io::Result<()> {
        unreachable!("Poller::new always fails off Linux")
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn timeout_rounds_up_and_blocks_map_to_minus_one() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(5))), 5);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no event before a client connects");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{events:?}"
        );
    }

    #[test]
    fn connected_stream_reports_data_and_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .add(served.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        let mut readable = false;
        for _ in 0..50 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.readable) {
                readable = true;
                break;
            }
        }
        assert!(readable, "data must surface as readability");

        // Drain so the next edge is the FIN, then close the peer.
        let mut buf = [0u8; 16];
        let _ = std::io::Read::read(&mut &served, &mut buf);
        drop(client);
        let mut hangup = false;
        for _ in 0..50 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.hangup) {
                hangup = true;
                break;
            }
        }
        assert!(hangup, "peer close must surface as hangup");
        poller.delete(served.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let t0 = Instant::now();
        let mut events = Vec::new();
        // No registered fds and no timeout: only the wake can end this.
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "wake should interrupt promptly"
        );
        assert!(events.is_empty(), "waker is internal: {events:?}");
        handle.join().unwrap();

        // Coalesced wakes drain in one wait; the next wait times out.
        poller.waker().wake();
        poller.waker().wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let t1 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(t1.elapsed() >= Duration::from_millis(15), "drained waker");
    }

    #[test]
    fn raw_fd_wake_works_like_the_waker() {
        let mut poller = Poller::new().unwrap();
        let fd = poller.waker().raw_fd();
        assert!(fd >= 0);
        wake_fd(fd);
        let t0 = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
