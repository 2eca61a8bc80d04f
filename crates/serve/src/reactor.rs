//! The event-driven connection engine: a single-threaded nonblocking
//! `epoll(7)` reactor replacing the old thread-per-connection accept
//! loop.
//!
//! ## Shape
//!
//! One reactor thread owns the listener, a wake pipe, and every client
//! connection. All sockets are nonblocking; readiness comes from a
//! level-triggered epoll set (hand-declared against libc, same
//! dependency-free discipline as the `mmap(2)` shim in `fs-store` —
//! see the safety argument on [`sys`]). Per connection the reactor
//! runs three little state machines:
//!
//! * **read → parse**: bytes feed an incremental
//!   [`RequestParser`](crate::http::RequestParser); every complete
//!   request is routed immediately, so a pipelined burst is answered
//!   in order without extra round trips. A framing error poisons the
//!   connection: one 400 goes out and the connection closes — the
//!   parser refuses to resynchronise (request-smuggling hygiene).
//! * **write**: responses append to an output buffer flushed as far
//!   as the socket allows; on `EAGAIN` the remainder parks behind an
//!   `EPOLLOUT` interest and continues when the peer drains — short
//!   writes, `EINTR`, and tiny receive windows are all continuation,
//!   never data loss (pinned by the dribbled-read protocol test).
//! * **stream**: a connection subscribed to a job's estimate emits one
//!   chunked-transfer NDJSON line per fresh snapshot generation. Job
//!   workers poke the wake pipe after every chunk, the reactor polls
//!   subscriptions, and the terminal snapshot ends the chunked body —
//!   after which the same connection serves pipelined requests again.
//!   If the client reads slower than snapshots arrive, intermediate
//!   generations are skipped (snapshots are cumulative), so a slow
//!   consumer bounds memory, not the job.
//!
//! ## Why a reactor
//!
//! The serving bottleneck was never sampling (millions of steps/s) but
//! per-request overhead: a fresh TCP connection, a handed-off thread,
//! and a full parse for every job. With keep-alive + pipelining one
//! connection amortises all three, and one reactor thread multiplexes
//! thousands of connections while the job workers do the actual CPU
//! work.

use crate::http::{self, HttpError, Limits, Request, RequestParser};
use crate::obs::ServeObs;
use fs_graph::failpoint::{self, Fault};
use fs_obs::FieldValue;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failpoint site consulted before every connection read.
pub const READ_SITE: &str = "reactor.read";
/// Failpoint site consulted before every connection write.
pub const WRITE_SITE: &str = "reactor.write";

/// A connection read routed through the failpoint registry. The chaos
/// suite uses this to make every socket flaky — `EINTR` storms,
/// spurious `EAGAIN`, short reads — and the reactor's continuation
/// arms must keep all of them invisible to clients (level-triggered
/// epoll re-reports readiness, so a deferred byte is never lost).
/// Injected hard errors close the connection, exactly like a real
/// peer reset.
fn fp_read(stream: &TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut s = stream;
    match failpoint::check(READ_SITE) {
        Some(Fault::Eintr) => Err(ErrorKind::Interrupted.into()),
        Some(Fault::Eagain) => Err(ErrorKind::WouldBlock.into()),
        Some(Fault::ShortRead) => {
            let cap = (buf.len() / 2).max(1);
            // fs-lint: allow(panic-path) — `cap = (len / 2).max(1) <= len` for the reactor's fixed non-empty buffers
            s.read(&mut buf[..cap])
        }
        Some(Fault::Enospc | Fault::Error) => Err(std::io::Error::new(
            ErrorKind::ConnectionReset,
            "injected read error (failpoint reactor.read)",
        )),
        // Write-flavoured faults have no read analogue.
        Some(Fault::ShortWrite) | None => s.read(buf),
    }
}

/// The write-side twin of [`fp_read`]: short writes and `EAGAIN` park
/// the remainder behind `EPOLLOUT` (continuation, never data loss —
/// the same path a tiny receive window exercises).
fn fp_write(stream: &TcpStream, data: &[u8]) -> std::io::Result<usize> {
    let mut s = stream;
    match failpoint::check(WRITE_SITE) {
        Some(Fault::Eintr) => Err(ErrorKind::Interrupted.into()),
        Some(Fault::Eagain) => Err(ErrorKind::WouldBlock.into()),
        Some(Fault::ShortWrite) => {
            let cap = (data.len() / 2).max(1);
            // fs-lint: allow(panic-path) — `cap = (len / 2).max(1) <= len`: flush never calls with an empty slice
            s.write(&data[..cap])
        }
        Some(Fault::Enospc | Fault::Error) => Err(std::io::Error::new(
            ErrorKind::ConnectionReset,
            "injected write error (failpoint reactor.write)",
        )),
        Some(Fault::ShortRead) | None => s.write(data),
    }
}

/// Thin safe wrapper over the four `epoll(7)` libc entry points.
///
/// ## Safety argument
///
/// This module is the only `unsafe` in `fs-serve`, confined to the
/// four FFI calls, and each is used under the narrowest contract the
/// man pages state:
///
/// * `epoll_create1(EPOLL_CLOEXEC)` takes no pointers; a negative
///   return is surfaced as `io::Error` and nothing else happens.
/// * `epoll_ctl` passes a pointer to a stack-owned `epoll_event` that
///   outlives the call (the kernel copies it before returning); the
///   `fd` arguments come from live `TcpListener`/`TcpStream`/
///   `UnixStream` objects owned by the reactor, which it keeps alive
///   until after the matching `EPOLL_CTL_DEL`/`close`.
/// * `epoll_wait` writes at most `maxevents` entries into a buffer
///   whose length is exactly `maxevents`; the kernel initialises every
///   entry it reports, and we read only the first `n` returned.
/// * `close` runs once, in `Drop`, on the fd `epoll_create1` returned
///   — the reactor never duplicates it.
///
/// `epoll_event` is `#[repr(C, packed)]` on x86-64 and `#[repr(C)]`
/// elsewhere, matching the kernel ABI exactly as glibc declares it.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel ABI for one readiness event (`data` carries our fd).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Copy, Clone)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // SAFETY: signatures transcribed from the Linux epoll(7)/libc ABI;
    // `EpollEvent` matches the kernel's packed layout above, and every
    // pointer argument the wrappers pass is a live, correctly-sized
    // buffer owned by the caller for the duration of the call.
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// RAII epoll instance.
    pub struct Epoll {
        fd: c_int,
    }

    impl Epoll {
        pub fn new() -> std::io::Result<Epoll> {
            // SAFETY: no pointers; return value checked below.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: c_int, fd: c_int, events: u32) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: fd as u64,
            };
            // SAFETY: `ev` lives across the call on our stack; the
            // kernel copies it synchronously. `fd` is a live
            // descriptor owned by the caller (see module docs).
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: c_int, events: u32) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events)
        }

        pub fn modify(&self, fd: c_int, events: u32) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events)
        }

        pub fn delete(&self, fd: c_int) {
            // Deregistration failures (fd already closed) are benign.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0);
        }

        /// Waits up to `timeout_ms`, filling `buf`; returns how many
        /// events were reported. `EINTR` reads as zero events.
        pub fn wait(&self, buf: &mut [EpollEvent], timeout_ms: c_int) -> std::io::Result<usize> {
            // SAFETY: `buf.as_mut_ptr()` is valid for `buf.len()`
            // entries and the kernel writes at most that many.
            let rc =
                unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
            if rc < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(rc as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` came from `epoll_create1` and is
            // closed exactly once, here.
            unsafe { close(self.fd) };
        }
    }
}

use sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// What the application wants done with one routed request.
pub enum Action {
    /// Send a response; the connection stays open if the client asked
    /// for keep-alive.
    Respond {
        /// HTTP status code.
        status: u16,
        /// Media type for the `Content-Type` header (JSON for the API,
        /// Prometheus text for `/metrics`, NDJSON for `/v1/trace`).
        content_type: &'static str,
        /// Response body.
        body: String,
    },
    /// Start a chunked NDJSON stream subscribed to job `job`.
    Stream {
        /// Job id to follow.
        job: u64,
    },
}

/// One poll of a stream subscription.
pub enum StreamEvent {
    /// A fresh non-terminal snapshot line (without trailing newline).
    Chunk(String),
    /// The terminal snapshot line; the stream ends after it.
    End(String),
    /// Nothing new since the subscriber's generation.
    Idle,
}

/// The application half of the reactor: routing and stream polling.
/// Implementations must be cheap and non-blocking — they run on the
/// reactor thread (job execution lives on the worker pool, not here).
pub trait AppLogic: Send + Sync {
    /// Routes one parsed request.
    fn handle(&self, request: &Request) -> Action;
    /// Polls job `job` for a snapshot newer than `*last_gen`,
    /// advancing `*last_gen` when one is returned.
    fn stream_poll(&self, job: u64, last_gen: &mut u64) -> StreamEvent;
    /// Formats an error body for protocol-level failures (400/413).
    fn error_body(&self, message: &str) -> String;
}

/// Wakes the reactor from other threads (job workers after each chunk
/// update, and the server on shutdown). Cloneable and cheap: one byte
/// into a nonblocking socketpair; a full pipe means a wakeup is
/// already pending, which is exactly as good.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Signals the reactor to run a stream/shutdown scan.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Reactor tuning knobs (compiled-in defaults; `Limits` carries the
/// parser bounds).
struct Tuning {
    /// Mid-request read stall allowance (slow-loris bound).
    read_timeout: Duration,
    /// Idle keep-alive connection lifetime.
    idle_timeout: Duration,
    /// Output buffer high-water mark: streaming snapshots are skipped
    /// (not queued) past this, and pipelined parsing pauses.
    write_high_water: usize,
    /// Hard cap on concurrently open connections.
    max_conns: usize,
    /// Grace period for flushing after quit is signalled.
    quit_grace: Duration,
    /// How long a closing connection waits for the peer's EOF after
    /// its last byte went out (see [`Reactor::linger`]).
    linger_timeout: Duration,
}

impl Default for Tuning {
    fn default() -> Tuning {
        Tuning {
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(75),
            write_high_water: 4 * 1024 * 1024,
            max_conns: 4096,
            quit_grace: Duration::from_secs(2),
            linger_timeout: Duration::from_secs(2),
        }
    }
}

/// A stream subscription's cursor.
struct StreamSub {
    job: u64,
    last_gen: u64,
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending output; `wpos` bytes already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Live chunked-stream subscription, if any. While set, pipelined
    /// requests stay buffered in the parser (responses must be
    /// ordered).
    streaming: Option<StreamSub>,
    /// Close once `wbuf` (and any stream) drains.
    close_after_flush: bool,
    /// Stop reading/parsing (framing error or client half-close).
    read_closed: bool,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    want_out: bool,
    last_activity: Instant,
    /// Set once a close-after-flush connection has sent everything:
    /// our side is shut down, and the connection closes at the peer's
    /// EOF or at this deadline.
    linger_until: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, limits: Limits) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(limits),
            wbuf: Vec::new(),
            wpos: 0,
            streaming: None,
            close_after_flush: false,
            read_closed: false,
            want_out: false,
            last_activity: Instant::now(),
            linger_until: None,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the connection has nothing left to do and may be
    /// reaped: no bytes to flush, no live stream, and either marked
    /// for close or the peer stopped sending mid-nothing.
    fn drained(&self) -> bool {
        self.pending_write() == 0 && self.streaming.is_none()
    }
}

/// The reactor: see the [module docs](self). Owns the listener and
/// every connection; runs until `quit` is set *and* in-flight output
/// has drained (bounded by a grace period).
pub struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    logic: Arc<dyn AppLogic>,
    limits: Limits,
    tuning: Tuning,
    quit: Arc<AtomicBool>,
    conns: HashMap<i32, Conn>,
    /// Connection/request telemetry; `None` only in unit harnesses.
    obs: Option<Arc<ServeObs>>,
}

impl Reactor {
    /// Builds a reactor over an already-bound listener and spawns its
    /// thread. Returns the waker and the join handle.
    pub fn spawn(
        listener: TcpListener,
        logic: Arc<dyn AppLogic>,
        limits: Limits,
        quit: Arc<AtomicBool>,
        obs: Option<Arc<ServeObs>>,
    ) -> std::io::Result<(Waker, std::thread::JoinHandle<()>)> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN)?;
        let mut reactor = Reactor {
            epoll,
            listener,
            wake_rx,
            logic,
            limits,
            tuning: Tuning::default(),
            quit,
            conns: HashMap::new(),
            obs,
        };
        let waker = Waker {
            tx: Arc::new(wake_tx),
        };
        let handle = std::thread::Builder::new()
            .name("fs-serve-reactor".into())
            .spawn(move || reactor.run())?;
        Ok((waker, handle))
    }

    fn run(&mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        let mut quit_deadline: Option<Instant> = None;
        loop {
            // EINTR (or any other wait error) degrades to an empty tick;
            // the timeout/quit logic below still runs.
            let n = self.epoll.wait(&mut events, 100).unwrap_or_default();
            let mut scan_streams = false;
            // fs-lint: allow(panic-path) — epoll_wait returns at most the `maxevents` we pass (= events.len())
            for ev in &events[..n] {
                let fd = ev.data as i32;
                if fd == self.listener.as_raw_fd() {
                    self.accept_ready();
                } else if fd == self.wake_rx.as_raw_fd() {
                    let mut sink = [0u8; 256];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    scan_streams = true;
                } else {
                    self.conn_ready(fd, ev.events);
                }
            }
            // Job updates arrive via the wake pipe; a timeout tick also
            // scans so a lost wakeup only costs latency, not progress.
            if scan_streams || n == 0 {
                self.scan_streams();
            }
            self.reap_timeouts();
            if self.quit.load(Ordering::SeqCst) {
                let deadline =
                    *quit_deadline.get_or_insert_with(|| Instant::now() + self.tuning.quit_grace);
                // Stop taking new work, let pending output (including
                // stream terminators — jobs are already cancelled by
                // the shutdown sequence) flush, then leave.
                self.scan_streams();
                let drained: Vec<i32> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.drained())
                    .map(|(&fd, _)| fd)
                    .collect();
                for fd in drained {
                    self.close_conn(fd);
                }
                if self.conns.is_empty() || Instant::now() >= deadline {
                    return;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.quit.load(Ordering::SeqCst) || self.conns.len() >= self.tuning.max_conns
                    {
                        drop(stream); // refused: shutting down or full
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP).is_err() {
                        continue;
                    }
                    self.conns.insert(fd, Conn::new(stream, self.limits));
                    if let Some(obs) = &self.obs {
                        obs.conns_accepted.incr();
                        obs.conns_open.set(self.conns.len() as u64);
                        obs.event(
                            "reactor.accept",
                            None,
                            &[("open", FieldValue::from(self.conns.len()))],
                        );
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, fd: i32, events: u32) {
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(fd);
            return;
        }
        if events & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(fd);
        }
        if self.conns.contains_key(&fd) && events & EPOLLOUT != 0 {
            self.writable(fd);
        }
    }

    fn readable(&mut self, fd: i32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if conn.read_closed {
            // Half-closed: drain-and-discard so RDHUP stops firing. A
            // lingering connection closes at the peer's EOF.
            let mut sink = [0u8; 16 * 1024];
            let eof = loop {
                match fp_read(&conn.stream, &mut sink) {
                    Ok(0) => break true,
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => break e.kind() != ErrorKind::WouldBlock,
                }
            };
            if eof && conn.linger_until.is_some() {
                self.close_conn(fd);
            }
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        let mut peer_closed = false;
        loop {
            // While a stream is live, pipelined requests must wait;
            // stop pulling bytes once the backlog bound is hit so a
            // client spraying requests can't grow the buffer.
            if conn.streaming.is_some() && conn.parser.buffered() > self.limits.max_body + 64 * 1024
            {
                break;
            }
            match fp_read(&conn.stream, &mut buf) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    // fs-lint: allow(panic-path) — `io::Read` guarantees `n <= buf.len()`
                    conn.parser.feed(&buf[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(fd);
                    return;
                }
            }
        }
        if peer_closed {
            // The read loop above never removes the connection on this
            // path, but degrading to a return is free and keeps the
            // reactor alive if that ever changes.
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            conn.read_closed = true;
            // A clean disconnect between requests with nothing queued:
            // reap immediately. Otherwise keep flushing what we owe.
            if conn.parser.at_boundary() && conn.drained() {
                self.close_conn(fd);
                return;
            }
        }
        self.advance(fd);
    }

    /// Drives one connection as far as it can go without blocking:
    /// drains fresh stream snapshots, then parses and routes buffered
    /// pipelined requests (in order — a live stream holds later
    /// requests back), then flushes. Iterative, so a burst of
    /// instantly-ending streams cannot recurse.
    fn advance(&mut self, fd: i32) {
        let logic = Arc::clone(&self.logic);
        let high_water = self.tuning.write_high_water;
        let mut fatal = false;
        loop {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            // ---- Streaming phase -------------------------------------
            if let Some(sub) = conn.streaming.as_mut() {
                // Skip-not-queue back-pressure: past the high-water
                // mark the subscriber keeps its generation cursor and
                // catches up with the next (cumulative) snapshot once
                // the socket drains.
                if conn.wbuf.len() - conn.wpos > high_water {
                    break;
                }
                let mut ended = false;
                loop {
                    match logic.stream_poll(sub.job, &mut sub.last_gen) {
                        StreamEvent::Chunk(line) => {
                            http::push_chunk(&mut conn.wbuf, &[line.as_bytes(), b"\n"]);
                            if conn.wbuf.len() - conn.wpos > high_water {
                                break;
                            }
                        }
                        StreamEvent::End(line) => {
                            http::push_chunk(&mut conn.wbuf, &[line.as_bytes(), b"\n"]);
                            conn.wbuf.extend_from_slice(http::encode_last_chunk());
                            ended = true;
                            break;
                        }
                        StreamEvent::Idle => break,
                    }
                }
                if !ended {
                    break;
                }
                // The stream is over; pipelined requests behind it
                // resume on the next loop turn.
                conn.streaming = None;
                continue;
            }
            // ---- Request phase ---------------------------------------
            if conn.read_closed && conn.parser.at_boundary()
                || conn.close_after_flush
                || conn.wbuf.len() - conn.wpos > high_water
            {
                break;
            }
            match conn.parser.poll() {
                Ok(Some(request)) => {
                    let keep = request.keep_alive;
                    if let Some(obs) = &self.obs {
                        obs.requests.incr();
                    }
                    match logic.handle(&request) {
                        Action::Respond {
                            status,
                            content_type,
                            body,
                        } => {
                            conn.wbuf.extend_from_slice(&http::encode_response_typed(
                                status,
                                content_type,
                                &body,
                                keep,
                            ));
                            if !keep {
                                conn.close_after_flush = true;
                                conn.read_closed = true;
                            }
                        }
                        Action::Stream { job } => {
                            conn.wbuf.extend_from_slice(&http::encode_stream_head(200));
                            conn.streaming = Some(StreamSub { job, last_gen: 0 });
                            if !keep {
                                conn.close_after_flush = true;
                                conn.read_closed = true;
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let (status, message) = match e {
                        HttpError::PayloadTooLarge => (413, "request body too large".to_string()),
                        HttpError::BadRequest(m) => (400, format!("malformed request: {m}")),
                        HttpError::Closed | HttpError::Io(_) => {
                            fatal = true;
                            break;
                        }
                    };
                    if let Some(obs) = &self.obs {
                        obs.parse_errors.incr();
                        obs.event(
                            "reactor.parse_error",
                            None,
                            &[
                                ("status", FieldValue::from(u64::from(status))),
                                ("reason", FieldValue::from(message.as_str())),
                            ],
                        );
                    }
                    let body = logic.error_body(&message);
                    conn.wbuf
                        .extend_from_slice(&http::encode_response(status, &body, false));
                    conn.close_after_flush = true;
                    conn.read_closed = true;
                    break;
                }
            }
        }
        if fatal {
            self.close_conn(fd);
            return;
        }
        self.flush(fd);
    }

    fn scan_streams(&mut self) {
        let streaming: Vec<i32> = self
            .conns
            .iter()
            .filter(|(_, c)| c.streaming.is_some())
            .map(|(&fd, _)| fd)
            .collect();
        for fd in streaming {
            self.advance(fd);
        }
    }

    /// Flushes as much pending output as the socket accepts; parks the
    /// rest behind `EPOLLOUT`.
    fn flush(&mut self, fd: i32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            // fs-lint: allow(panic-path) — the loop guard `wpos < wbuf.len()` bounds the slice
            match fp_write(&conn.stream, &conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close_conn(fd);
                    return;
                }
                Ok(n) => {
                    conn.wpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(fd);
                    return;
                }
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.wpos > 64 * 1024 {
            // Reclaim flushed prefix so a long dribble doesn't pin the
            // whole history in memory.
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        let want_out = conn.pending_write() > 0;
        if want_out != conn.want_out {
            let events = EPOLLIN | EPOLLRDHUP | if want_out { EPOLLOUT } else { 0 };
            if self.epoll.modify(fd, events).is_ok() {
                conn.want_out = want_out;
            }
        }
        if !want_out && conn.close_after_flush && conn.streaming.is_none() {
            self.linger(fd);
        }
    }

    /// Closes a connection whose response is all sent, without losing
    /// that response: shut down our side, then discard what the peer
    /// still sends until its EOF (`readable`) or the linger deadline
    /// (`reap_timeouts`). Closing with the peer's bytes unread — a 413
    /// goes out while the client is still uploading its body — would
    /// make the kernel answer them with a reset, and the reset can
    /// destroy the response before the client reads it.
    fn linger(&mut self, fd: i32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if conn.linger_until.is_some() {
            return;
        }
        if conn.stream.shutdown(Shutdown::Write).is_err() {
            self.close_conn(fd);
            return;
        }
        conn.read_closed = true;
        conn.linger_until = Some(Instant::now() + self.tuning.linger_timeout);
    }

    fn writable(&mut self, fd: i32) {
        self.flush(fd);
        // The drain may have made room for parked pipelined requests
        // or skipped stream snapshots.
        if self.conns.contains_key(&fd) {
            self.advance(fd);
        }
    }

    fn reap_timeouts(&mut self) {
        let now = Instant::now();
        let lingered: Vec<i32> = self
            .conns
            .iter()
            .filter(|(_, c)| c.linger_until.is_some_and(|deadline| now >= deadline))
            .map(|(&fd, _)| fd)
            .collect();
        for fd in lingered {
            self.close_conn(fd);
        }
        let stale: Vec<i32> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let idle = now.duration_since(c.last_activity);
                if c.streaming.is_some() || c.linger_until.is_some() {
                    false // the job's business, or the linger deadline's
                } else if !c.parser.at_boundary() || c.pending_write() > 0 {
                    idle > self.tuning.read_timeout // mid-request stall
                } else {
                    idle > self.tuning.idle_timeout // idle keep-alive
                }
            })
            .map(|(&fd, _)| fd)
            .collect();
        for fd in stale {
            if let Some(obs) = &self.obs {
                obs.timeouts.incr();
                obs.event("reactor.timeout", None, &[]);
            }
            self.close_conn(fd);
        }
    }

    fn close_conn(&mut self, fd: i32) {
        if let Some(conn) = self.conns.remove(&fd) {
            self.epoll.delete(fd);
            drop(conn); // TcpStream close
            if let Some(obs) = &self.obs {
                obs.conns_open.set(self.conns.len() as u64);
            }
        }
    }
}
