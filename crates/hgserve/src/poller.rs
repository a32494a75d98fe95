//! Readiness polling for the server's connection event loop.
//!
//! On Linux this is raw `epoll(7)` — edge-triggered, with an
//! `eventfd(2)` waker so worker threads (and the SIGINT handler) can
//! interrupt a blocked `epoll_wait`. Every other unix target gets a
//! portable `poll(2)` backend with a self-pipe waker; non-unix targets
//! get a stub whose constructor fails, which [`crate::server::start`]
//! surfaces as a clean bind error. In the style of
//! `hypergraph::storage`'s mmap shim, the syscalls are declared
//! directly with `extern "C"` — the workspace stays free of a libc
//! dependency.
//!
//! The interface is deliberately small: register a file descriptor
//! under a caller-chosen token, adjust its interest set, and block in
//! [`Poller::wait`] for readiness [`Event`]s. Waker wakeups are
//! consumed internally and surface as a plain (possibly event-free)
//! return from `wait`, so the caller's loop re-checks its own queues
//! after every return — the same discipline both edge- and
//! level-triggered backends need.

use std::io;
use std::sync::Arc;
use std::time::Duration;

#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type RawFd = i32;

/// Token values at or above this are reserved for the poller itself
/// (the waker); callers must stay below.
pub const RESERVED_TOKEN: u64 = u64::MAX - 15;

const WAKER_TOKEN: u64 = u64::MAX;

/// Which readiness directions a registration asks for. Read interest
/// also reports peer hangup on both backends.
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

/// Syscalls shared by both unix backends.
#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// An owned waker file descriptor, closed on last drop. Shared by the
/// [`Poller`] and every [`Waker`] clone so a wake can never hit a
/// recycled descriptor after the loop exits.
#[cfg(unix)]
struct WakeFd(RawFd);

#[cfg(unix)]
impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `self.0` is a descriptor this `WakeFd` owns alone, and
        // drop runs once, so it is closed exactly once.
        unsafe {
            sys::close(self.0);
        }
    }
}

/// Handle for interrupting [`Poller::wait`] from another thread.
/// Cheap to clone; safe to use from worker threads.
#[derive(Clone)]
pub struct Waker {
    #[cfg(unix)]
    fd: Arc<WakeFd>,
    #[cfg(not(unix))]
    _unused: Arc<()>,
}

impl Waker {
    /// Make the next (or current) `wait` return promptly.
    pub fn wake(&self) {
        #[cfg(unix)]
        wake_fd(self.fd.0);
    }

    /// The raw descriptor behind this waker, for contexts that cannot
    /// hold the `Waker` itself (the SIGINT handler stores it in an
    /// atomic and calls [`wake_fd`]).
    pub fn raw_fd(&self) -> RawFd {
        #[cfg(unix)]
        {
            self.fd.0
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }
}

/// Wake a raw waker descriptor: one `write(2)`, which is
/// async-signal-safe — this is the only call a signal handler makes.
/// Writing a `u64` of 1 satisfies both backends (an eventfd requires
/// exactly eight bytes; a pipe just buffers them).
#[cfg(unix)]
pub fn wake_fd(fd: RawFd) {
    if fd < 0 {
        return;
    }
    let one: u64 = 1;
    // SAFETY: the buffer is the 8 bytes of the live local `one`, which
    // write(2) only reads.
    unsafe {
        sys::write(fd, (&one as *const u64).cast(), 8);
    }
}

#[cfg(not(unix))]
pub fn wake_fd(_fd: RawFd) {}

/// Drain a nonblocking waker fd until empty; wakeups coalesce.
#[cfg(unix)]
fn drain_fd(fd: RawFd) {
    let mut buf = [0u8; 64];
    loop {
        // SAFETY: `buf` is a live local of exactly `buf.len()` writable
        // bytes, so read(2) stays in bounds.
        let n = unsafe { sys::read(fd, buf.as_mut_ptr(), buf.len()) };
        if n < buf.len() as isize {
            return;
        }
    }
}

/// Millisecond timeout for `epoll_wait`/`poll`: `None` blocks forever
/// (-1); sub-millisecond durations round *up* so timer deadlines are
/// never spun on at zero.
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
    epfd: RawFd,
    waker: Waker,
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        use epoll_sys::*;
        // SAFETY: no pointer arguments; the result is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: no pointer arguments; the result is checked below.
        let wfd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wfd < 0 {
            let err = io::Error::last_os_error();
            // SAFETY: `epfd` was created above, is owned only here, and
            // is closed once before returning.
            unsafe { sys::close(epfd) };
            return Err(err);
        }
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLET,
            data: WAKER_TOKEN,
        };
        // SAFETY: `ev` is a live `EpollEvent` in the kernel's layout,
        // read by the kernel only for the duration of the call.
        if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wfd, &mut ev) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: both descriptors were created above, are owned
            // only here, and are closed once before returning.
            unsafe {
                sys::close(wfd);
                sys::close(epfd);
            }
            return Err(err);
        }
        Ok(Poller {
            epfd,
            waker: Waker {
                fd: Arc::new(WakeFd(wfd)),
            },
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
        if unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
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
                self.epfd,
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
                drain_fd(self.waker.fd.0);
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

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this poller alone, and drop runs
        // once, so it is closed exactly once.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

// ----------------------------------------------------------- poll(2)

#[cfg(all(unix, not(target_os = "linux")))]
mod poll_sys {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: usize, timeout_ms: i32) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }

    // Identical across the unix targets this repo builds on.
    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;
    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    // O_NONBLOCK is 0x800 on Linux but 0x4 on the BSD family this
    // fallback actually serves (macOS and friends).
    pub const O_NONBLOCK: i32 = 0x4;
}

/// Level-triggered `poll(2)` poller with a self-pipe waker: the
/// portable fallback for unix targets without epoll. Registrations
/// live in a vector scanned per wait — fine for the fleet sizes a dev
/// laptop throws at it; Linux production serving uses the epoll
/// backend above.
#[cfg(all(unix, not(target_os = "linux")))]
pub struct Poller {
    fds: Vec<(RawFd, u64, Interest)>,
    wake_rx: WakeFd,
    waker: Waker,
    buf: Vec<poll_sys::PollFd>,
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        use poll_sys::*;
        let mut ends = [0i32; 2];
        // SAFETY: `ends` is a live `[i32; 2]`, exactly the two slots
        // pipe(2) writes.
        if unsafe { pipe(ends.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in ends {
            // SAFETY: no pointer arguments; the result is checked below.
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            // SAFETY: as above; `F_SETFL` takes an integer argument.
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                // SAFETY: both pipe ends were created above, are owned
                // only here, and are closed once before returning.
                unsafe {
                    sys::close(ends[0]);
                    sys::close(ends[1]);
                }
                return Err(err);
            }
        }
        Ok(Poller {
            fds: Vec::new(),
            wake_rx: WakeFd(ends[0]),
            waker: Waker {
                fd: Arc::new(WakeFd(ends[1])),
            },
            buf: Vec::new(),
        })
    }

    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert!(token < RESERVED_TOKEN);
        self.fds.push((fd, token, interest));
        Ok(())
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        for slot in &mut self.fds {
            if slot.0 == fd {
                *slot = (fd, token, interest);
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        self.fds.retain(|&(f, _, _)| f != fd);
        Ok(())
    }

    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        use poll_sys::*;
        events.clear();
        self.buf.clear();
        self.buf.push(PollFd {
            fd: self.wake_rx.0,
            events: POLLIN,
            revents: 0,
        });
        for &(fd, _, interest) in &self.fds {
            let mut ev = 0i16;
            if interest.readable {
                ev |= POLLIN;
            }
            if interest.writable {
                ev |= POLLOUT;
            }
            self.buf.push(PollFd {
                fd,
                events: ev,
                revents: 0,
            });
        }
        // SAFETY: `buf` holds `buf.len()` initialized `PollFd`s, which
        // poll(2) reads and whose `revents` it writes in place.
        let n = unsafe { poll(self.buf.as_mut_ptr(), self.buf.len(), timeout_ms(timeout)) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        if self.buf[0].revents & POLLIN != 0 {
            drain_fd(self.wake_rx.0);
        }
        for (slot, &(_, token, _)) in self.buf[1..].iter().zip(&self.fds) {
            let r = slot.revents;
            if r == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: r & (POLLIN | POLLERR | POLLHUP) != 0,
                writable: r & (POLLOUT | POLLERR | POLLHUP) != 0,
                hangup: r & (POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------- non-unix

/// Stub for non-unix targets: construction fails, so the server
/// reports readiness serving as unsupported instead of half-working.
#[cfg(not(unix))]
pub struct Poller;

#[cfg(not(unix))]
impl Poller {
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling requires a unix target",
        ))
    }

    pub fn waker(&self) -> Waker {
        Waker {
            _unused: Arc::new(()),
        }
    }

    pub fn add(&mut self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        unreachable!("Poller::new always fails on non-unix targets")
    }

    pub fn modify(&mut self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        unreachable!("Poller::new always fails on non-unix targets")
    }

    pub fn delete(&mut self, _fd: RawFd) -> io::Result<()> {
        unreachable!("Poller::new always fails on non-unix targets")
    }

    pub fn wait(&mut self, _events: &mut Vec<Event>, _t: Option<Duration>) -> io::Result<()> {
        unreachable!("Poller::new always fails on non-unix targets")
    }
}

#[cfg(all(test, unix))]
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
