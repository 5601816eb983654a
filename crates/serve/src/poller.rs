//! Socket readiness and cross-thread wake-ups, abstracted behind a small
//! [`Poller`] registry trait.
//!
//! The server's event loop is written against `register` / `reregister` /
//! `deregister` / `poll` — the same shape as epoll or mio's `Poll` — so a
//! platform backend (epoll, kqueue, io_uring) can slot in without touching
//! the connection state machine. The loop blocks in [`Poller::poll`] with
//! no timeout; besides sockets, the one thing that ends the wait is the
//! poller's [`PollWaker`] ([`Poller::waker`]), a handle any thread may
//! [`wake`](PollWaker::wake) and whose readiness is reported under the
//! reserved [`WAKER`] token. That is how runtime workers hand results to a
//! server thread asleep on quiet sockets, and how shutdown reaches it.
//!
//! Two std-only backends ship here:
//!
//! * [`SysPoller`] (unix): real readiness via the `poll(2)` syscall,
//!   declared directly against the C library the Rust runtime already
//!   links — no crate dependency, no busy-waiting. Its waker is an
//!   `eventfd(2)` on Linux (declared the same way) and a socket pair from
//!   std elsewhere, always polled alongside the registered sockets.
//! * [`ScanPoller`] (any platform): the degenerate fallback — with no
//!   readiness source it sleeps one scan interval (cut short by its waker,
//!   a condvar), then reports every registered interest as ready, relying
//!   on the non-blocking sockets' `WouldBlock` to sort out reality.
//!   Correct, portable, and proportionally wasteful; only the seam's last
//!   resort.
//!
//! [`default_poller`] picks the best available backend.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Identifies one registered socket across the poller API.
pub type Token = u32;

/// The token a poller reports its own [`PollWaker`]'s readiness under.
/// Reserved: sockets cannot register it.
pub const WAKER: Token = Token::MAX;

/// A cloneable, thread-safe handle that ends a blocked [`Poller::poll`]
/// early — see the [module docs](self). Waking is level-triggered until
/// observed: a wake that lands while the poller is not polling makes the
/// next `poll` return at once, and any number of wakes before that collapse
/// into one [`WAKER`] readiness report.
#[derive(Clone)]
pub struct PollWaker(Arc<dyn Fn() + Send + Sync>);

impl PollWaker {
    /// A handle running `wake` on every [`PollWaker::wake`] (the
    /// constructor custom [`Poller`] backends use).
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> PollWaker {
        PollWaker(Arc::new(wake))
    }

    /// Make the poller's current (or next) `poll` return, reporting
    /// [`WAKER`] readable.
    pub fn wake(&self) {
        (self.0)();
    }
}

/// Which readiness a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the socket is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the socket accepts writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Read + write interest.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    /// No interest (parked registration; never reported ready).
    pub const NONE: Interest = Interest { readable: false, writable: false };

    /// Is any readiness requested?
    pub fn is_none(self) -> bool {
        !self.readable && !self.writable
    }
}

/// One readiness report from [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Readiness {
    /// The registration this readiness belongs to.
    pub token: Token,
    /// Reading will make progress (data, EOF, or an error to collect).
    pub readable: bool,
    /// Writing will make progress.
    pub writable: bool,
}

/// The raw handle a registration polls. On unix this is the socket's file
/// descriptor; backends that do not inspect handles (like [`ScanPoller`])
/// ignore it.
#[cfg(unix)]
pub type RawHandle = std::os::unix::io::RawFd;
/// Fallback handle type on platforms without unix fds.
#[cfg(not(unix))]
pub type RawHandle = i64;

/// A readiness registry — see the [module docs](self).
pub trait Poller: Send {
    /// Start watching `handle` under `token`.
    fn register(&mut self, token: Token, handle: RawHandle, interest: Interest);

    /// Change what an existing registration waits for.
    fn reregister(&mut self, token: Token, interest: Interest);

    /// Stop watching a registration.
    fn deregister(&mut self, token: Token);

    /// A handle that cuts this poller's `poll` short from any thread.
    fn waker(&self) -> PollWaker;

    /// Wait for readiness — up to `timeout`, or with `None` until a socket
    /// is ready or the [`PollWaker`] is woken. Pushes one [`Readiness`] per
    /// ready registration onto `out` (which the caller has cleared), plus
    /// one under [`WAKER`] if the waker was woken since the last report.
    fn poll(&mut self, out: &mut Vec<Readiness>, timeout: Option<Duration>) -> io::Result<()>;
}

/// The best backend for this platform: [`SysPoller`] on unix,
/// [`ScanPoller`] elsewhere.
pub fn default_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(unix)]
    {
        Ok(Box::new(SysPoller::new()?))
    }
    #[cfg(not(unix))]
    {
        Ok(Box::new(ScanPoller::new()))
    }
}

const WAKER_READY: Readiness = Readiness { token: WAKER, readable: true, writable: false };

#[derive(Debug, Clone, Copy)]
struct Entry {
    token: Token,
    handle: RawHandle,
    interest: Interest,
}

/// Registry bookkeeping shared by both backends.
#[derive(Debug, Default)]
struct Registry {
    entries: Vec<Entry>,
    index: HashMap<Token, usize>,
}

impl Registry {
    fn register(&mut self, token: Token, handle: RawHandle, interest: Interest) {
        assert!(token != WAKER, "token {token} is reserved for the poller's waker");
        assert!(
            !self.index.contains_key(&token),
            "token {token} is already registered; reregister to change interest"
        );
        self.index.insert(token, self.entries.len());
        self.entries.push(Entry { token, handle, interest });
    }

    fn reregister(&mut self, token: Token, interest: Interest) {
        let i = *self.index.get(&token).expect("reregister of an unregistered token");
        self.entries[i].interest = interest;
    }

    fn deregister(&mut self, token: Token) {
        let i = self.index.remove(&token).expect("deregister of an unregistered token");
        self.entries.swap_remove(i);
        if let Some(moved) = self.entries.get(i) {
            self.index.insert(moved.token, i);
        }
    }
}

/// `poll(2)`-backed readiness on unix — see the [module docs](self).
#[cfg(unix)]
pub struct SysPoller {
    registry: Registry,
    /// Read end of the wake channel: always `fds[0]`, reported as
    /// [`WAKER`].
    wake_rx: std::fs::File,
    /// Write end, shared with every [`PollWaker`] handed out.
    wake_tx: Arc<std::fs::File>,
    /// Scratch pollfd array, kept between calls to avoid re-allocation.
    fds: Vec<sys::PollFd>,
    /// Entry index behind each scratch pollfd after the first.
    back: Vec<usize>,
}

#[cfg(unix)]
mod sys {
    //! The symbols of `poll(2)` and `eventfd(2)`, declared against the libc
    //! the Rust std runtime already links (this crate stays
    //! dependency-free), and the wake channel built on them.
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: core::ffi::c_int,
        ) -> core::ffi::c_int;
    }

    /// `poll(2)`'s millisecond timeout: `None` blocks (−1); a duration
    /// rounds *up*, so a sub-millisecond wait sleeps one millisecond
    /// instead of degenerating into a zero-timeout spin.
    pub fn timeout_ms(timeout: Option<Duration>) -> core::ffi::c_int {
        match timeout {
            None => -1,
            Some(d) => core::ffi::c_int::try_from(d.as_nanos().div_ceil(1_000_000))
                .unwrap_or(core::ffi::c_int::MAX),
        }
    }

    /// The wake channel as (read end, write end), both non-blocking: eight
    /// bytes written to the one make the other readable until drained.
    ///
    /// Linux: one `eventfd` behind both ends — a kernel counter, so any
    /// number of wakes cost one 8-byte read. The flag values below are the
    /// generic ones; the architectures that renumber `O_NONBLOCK` /
    /// `O_CLOEXEC` take the portable path instead.
    #[cfg(all(
        any(target_os = "linux", target_os = "android"),
        any(
            target_arch = "x86",
            target_arch = "x86_64",
            target_arch = "arm",
            target_arch = "aarch64",
            target_arch = "riscv32",
            target_arch = "riscv64"
        )
    ))]
    pub fn wake_channel() -> io::Result<(File, File)> {
        use std::os::unix::io::FromRawFd;

        const EFD_CLOEXEC: core::ffi::c_int = 0o2000000;
        const EFD_NONBLOCK: core::ffi::c_int = 0o4000;
        extern "C" {
            fn eventfd(initval: core::ffi::c_uint, flags: core::ffi::c_int) -> core::ffi::c_int;
        }

        // SAFETY: `eventfd` takes two integers and no pointers.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a descriptor `eventfd` just returned: open, and
        // owned by nothing else, so the `File` may close it.
        let rx = unsafe { File::from_raw_fd(fd) };
        let tx = rx.try_clone()?;
        Ok((rx, tx))
    }

    /// Other unix: no `eventfd` (or unknown flag values).
    #[cfg(not(all(
        any(target_os = "linux", target_os = "android"),
        any(
            target_arch = "x86",
            target_arch = "x86_64",
            target_arch = "arm",
            target_arch = "aarch64",
            target_arch = "riscv32",
            target_arch = "riscv64"
        )
    )))]
    pub fn wake_channel() -> io::Result<(File, File)> {
        socket_wake_channel()
    }

    /// The portable wake channel: a connected socket pair from std (the
    /// classic self-pipe), each end unwrapped to a plain descriptor.
    /// Compiled everywhere so the tests exercise it on eventfd hosts too.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn socket_wake_channel() -> io::Result<(File, File)> {
        use std::os::unix::io::OwnedFd;
        use std::os::unix::net::UnixStream;

        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((File::from(OwnedFd::from(rx)), File::from(OwnedFd::from(tx))))
    }

    /// Signal the channel. Failure means it is already signalled as far as
    /// it can hold (`WouldBlock`: counter or socket buffer full), which is
    /// as good as success; nothing else can usefully be done from a waker.
    pub fn signal(mut tx: &File) {
        let _ = tx.write(&1u64.to_ne_bytes());
    }

    /// Reset the channel. An eventfd read returns its 8-byte counter and
    /// zeroes it; a socket returns what is queued — either way a short read
    /// means nothing is left.
    pub fn drain(mut rx: &File) {
        let mut buf = [0u8; 64];
        while matches!(rx.read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

#[cfg(unix)]
impl SysPoller {
    /// An empty registry and its wake channel.
    pub fn new() -> io::Result<SysPoller> {
        sys::wake_channel().map(SysPoller::with_wake_channel)
    }

    fn with_wake_channel((wake_rx, wake_tx): (std::fs::File, std::fs::File)) -> SysPoller {
        SysPoller {
            registry: Registry::default(),
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            fds: Vec::new(),
            back: Vec::new(),
        }
    }
}

#[cfg(unix)]
impl Poller for SysPoller {
    fn register(&mut self, token: Token, handle: RawHandle, interest: Interest) {
        self.registry.register(token, handle, interest);
    }

    fn reregister(&mut self, token: Token, interest: Interest) {
        self.registry.reregister(token, interest);
    }

    fn deregister(&mut self, token: Token) {
        self.registry.deregister(token);
    }

    fn waker(&self) -> PollWaker {
        let tx = Arc::clone(&self.wake_tx);
        PollWaker::new(move || sys::signal(&tx))
    }

    fn poll(&mut self, out: &mut Vec<Readiness>, timeout: Option<Duration>) -> io::Result<()> {
        use std::os::unix::io::AsRawFd;

        self.fds.clear();
        self.back.clear();
        self.fds.push(sys::PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for (i, e) in self.registry.entries.iter().enumerate() {
            if e.interest.is_none() {
                continue; // parked: not polled at all
            }
            let mut events = 0i16;
            if e.interest.readable {
                events |= sys::POLLIN;
            }
            if e.interest.writable {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd { fd: e.handle, events, revents: 0 });
            self.back.push(i);
        }
        // SAFETY: `fds` is a live, exclusively borrowed array of exactly
        // the length passed, which `poll` only reads and writes in place.
        let n = unsafe {
            sys::poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as core::ffi::c_ulong,
                sys::timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // EINTR: an early, empty return
            }
            return Err(err);
        }
        if self.fds[0].revents != 0 {
            sys::drain(&self.wake_rx);
            out.push(WAKER_READY);
        }
        for (pfd, &i) in self.fds[1..].iter().zip(&self.back) {
            if pfd.revents == 0 {
                continue;
            }
            let entry = self.registry.entries[i];
            // HUP/ERR surface as readability: the next read collects the
            // EOF or the error, which is how the connection learns.
            let fatal = pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0;
            out.push(Readiness {
                token: entry.token,
                readable: pfd.revents & sys::POLLIN != 0 || fatal,
                writable: pfd.revents & sys::POLLOUT != 0 || fatal,
            });
        }
        Ok(())
    }
}

/// Portable fallback backend — see the [module docs](self).
pub struct ScanPoller {
    registry: Registry,
    wake: Arc<ScanWake>,
}

/// [`ScanPoller`]'s waker state: the flag a wake sets, and the condvar that
/// cuts the scan sleep short.
#[derive(Default)]
struct ScanWake {
    woken: Mutex<bool>,
    cv: Condvar,
}

/// How long [`ScanPoller`] sleeps between scans when nothing wakes it: with
/// no readiness source this is its socket latency floor, whatever timeout
/// the caller allows.
const SCAN_INTERVAL: Duration = Duration::from_millis(1);

impl ScanPoller {
    /// An empty registry.
    pub fn new() -> ScanPoller {
        ScanPoller { registry: Registry::default(), wake: Arc::default() }
    }
}

impl Default for ScanPoller {
    fn default() -> ScanPoller {
        ScanPoller::new()
    }
}

impl Poller for ScanPoller {
    fn register(&mut self, token: Token, handle: RawHandle, interest: Interest) {
        self.registry.register(token, handle, interest);
    }

    fn reregister(&mut self, token: Token, interest: Interest) {
        self.registry.reregister(token, interest);
    }

    fn deregister(&mut self, token: Token) {
        self.registry.deregister(token);
    }

    fn waker(&self) -> PollWaker {
        let wake = Arc::clone(&self.wake);
        PollWaker::new(move || {
            *wake.woken.lock().expect("scan waker flag") = true;
            wake.cv.notify_one();
        })
    }

    fn poll(&mut self, out: &mut Vec<Readiness>, timeout: Option<Duration>) -> io::Result<()> {
        // No readiness source: pace the loop (a wake ends the sleep early),
        // then let WouldBlock decide.
        let pace = timeout.map_or(SCAN_INTERVAL, |t| t.min(SCAN_INTERVAL));
        let flag = self.wake.woken.lock().expect("scan waker flag");
        let (mut woken, _) =
            self.wake.cv.wait_timeout_while(flag, pace, |woken| !*woken).expect("scan waker flag");
        if std::mem::take(&mut *woken) {
            out.push(WAKER_READY);
        }
        drop(woken);
        for e in &self.registry.entries {
            if e.interest.is_none() {
                continue;
            }
            out.push(Readiness {
                token: e.token,
                readable: e.interest.readable,
                writable: e.interest.writable,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_tracks_register_reregister_deregister() {
        let mut r = Registry::default();
        r.register(1, 10, Interest::READ);
        r.register(2, 20, Interest::BOTH);
        r.register(3, 30, Interest::WRITE);
        r.reregister(2, Interest::NONE);
        r.deregister(1); // swap_remove moves token 3 into slot 0
        assert_eq!(r.entries.len(), 2);
        r.reregister(3, Interest::READ);
        let e3 = r.entries[*r.index.get(&3).unwrap()];
        assert_eq!(e3.interest, Interest::READ);
        r.deregister(3);
        r.deregister(2);
        assert!(r.entries.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn sys_poller_reports_loopback_readiness() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut p = SysPoller::new().unwrap();
        p.register(7, server.as_raw_fd(), Interest::READ);

        // Nothing to read yet: the poll times out empty.
        let mut out = Vec::new();
        p.poll(&mut out, Some(Duration::from_millis(1))).unwrap();
        assert!(out.is_empty(), "{out:?}");

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut out = Vec::new();
        // Generous bound; readiness normally arrives on the first poll.
        for _ in 0..1000 {
            p.poll(&mut out, Some(Duration::from_millis(5))).unwrap();
            if !out.is_empty() {
                break;
            }
        }
        assert!(out.iter().any(|r| r.token == 7 && r.readable), "{out:?}");

        // Parked interest is silent even with data pending.
        p.reregister(7, Interest::NONE);
        let mut out = Vec::new();
        p.poll(&mut out, Some(Duration::from_millis(1))).unwrap();
        assert!(out.is_empty(), "{out:?}");
        p.deregister(7);
    }

    #[cfg(unix)]
    #[test]
    fn sys_timeout_blocks_on_none_and_rounds_sub_millisecond_waits_up() {
        assert_eq!(sys::timeout_ms(None), -1);
        assert_eq!(sys::timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(sys::timeout_ms(Some(Duration::from_nanos(1))), 1, "not a zero-timeout spin");
        assert_eq!(sys::timeout_ms(Some(Duration::from_micros(999))), 1);
        assert_eq!(sys::timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(sys::timeout_ms(Some(Duration::from_micros(1001))), 2);
        assert_eq!(sys::timeout_ms(Some(Duration::MAX)), core::ffi::c_int::MAX);
    }

    #[cfg(unix)]
    #[test]
    fn sys_poller_with_no_sockets_waits_in_poll_not_in_a_sleep() {
        // The waker descriptor is always polled, so an empty registry
        // honours the timeout through poll(2) itself...
        let mut p = SysPoller::new().unwrap();
        let mut out = Vec::new();
        let t0 = std::time::Instant::now();
        p.poll(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20), "{:?}", t0.elapsed());
        assert!(out.is_empty(), "{out:?}");
        // ... and a pending wake cuts even an hour-long wait to nothing.
        p.waker().wake();
        p.poll(&mut out, Some(Duration::from_secs(3600))).unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
    }

    /// The waker contract every backend keeps: a wake from another thread
    /// ends a timeout-less poll, wakes collapse into one report, and the
    /// report consumes them.
    fn waker_contract(mut p: impl Poller) {
        let is_waker =
            |out: &[Readiness]| matches!(out, [r] if r.token == WAKER && r.readable && !r.writable);
        let waker = p.waker();
        let (polling_tx, polling_rx) = std::sync::mpsc::channel();
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            polling_rx.recv().unwrap();
            remote.wake();
        });
        let mut out = Vec::new();
        polling_tx.send(()).unwrap();
        // Returns only through the wake: before or after this thread
        // blocks, it is not lost.
        while out.is_empty() {
            p.poll(&mut out, None).unwrap();
        }
        assert!(is_waker(&out), "{out:?}");
        t.join().unwrap();

        // Consumed: the next bounded poll is quiet.
        out.clear();
        p.poll(&mut out, Some(Duration::from_millis(1))).unwrap();
        assert!(out.is_empty(), "{out:?}");

        // Many wakes, one report, then quiet again.
        for _ in 0..100 {
            waker.wake();
        }
        p.poll(&mut out, None).unwrap();
        assert!(is_waker(&out), "{out:?}");
        out.clear();
        p.poll(&mut out, Some(Duration::from_millis(1))).unwrap();
        assert!(out.is_empty(), "{out:?}");
    }

    #[cfg(unix)]
    #[test]
    fn sys_poller_waker_keeps_the_contract_on_both_wake_channels() {
        waker_contract(SysPoller::new().unwrap());
        waker_contract(SysPoller::with_wake_channel(sys::socket_wake_channel().unwrap()));
    }

    #[test]
    fn scan_poller_waker_keeps_the_contract() {
        waker_contract(ScanPoller::new());
    }

    #[cfg(unix)]
    #[test]
    fn socket_wake_channel_survives_more_wakes_than_it_can_buffer() {
        // The write end is non-blocking: once the socket buffer is full,
        // further wakes are dropped — the channel is already as signalled
        // as it gets — and one report drains all of it.
        let mut p = SysPoller::with_wake_channel(sys::socket_wake_channel().unwrap());
        let waker = p.waker();
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut out = Vec::new();
        p.poll(&mut out, None).unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        out.clear();
        p.poll(&mut out, Some(Duration::from_millis(1))).unwrap();
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_waker_token_cannot_be_registered() {
        ScanPoller::new().register(WAKER, 0, Interest::READ);
    }
}
