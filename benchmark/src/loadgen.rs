//! The load generator for everything that crosses the loopback socket.
//!
//! One thread, one non-blocking `TcpStream`, built directly on
//! `flux_serve::protocol::{encode_frame, FrameDecoder}`: the blocking
//! `Client` cannot timestamp `RESULT` frames while it paces sends, and this
//! generator does both.
//!
//! * **Open loop** ([`Generator::open_loop`]): chunk `g` of the run is *due*
//!   at `t0 + g·interval` whatever the server does. Each result is timed
//!   from its chunk's due time, so a stall charges every chunk it delays;
//!   how late the generator itself sent is recorded separately as lag.
//! * **Closed loop** ([`Generator::closed_loop_doc`]): the whole document is
//!   written as fast as the socket takes it and the call returns on `DONE`;
//!   the caller sends the next document after that.
//!
//! Pacing is hybrid. While the next chunk is far off the thread sleeps in
//! `ppoll(2)` on the socket, so an arriving frame wakes it at once and is
//! stamped on arrival; the last [`SPIN`] before a due time it spins on
//! non-blocking reads, because a timed wait still overshoots by the wake-up
//! latency of an idle virtual CPU. (`SO_RCVTIMEO` and `poll(2)` round their
//! timeouts to a scheduler tick or a millisecond, far coarser than the
//! 256 µs chunk schedule; and the open loop lowers the thread's timer slack,
//! which otherwise adds up to 50 µs to every `ppoll`. Spinning all the time
//! instead keeps the generator punctual but takes one of two CPUs from the
//! server's two threads, whose tail latency then is the generator's doing.)

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use flux_serve::protocol::{encode_frame, DecodePoll, FrameDecoder, FrameKind};

use crate::fixture::CHUNK;

/// Spin, rather than sleep, this close to a due time.
const SPIN: Duration = Duration::from_micros(150);
/// A document that takes longer than this has failed.
const DOC_TIMEOUT: Duration = Duration::from_secs(30);

/// One document run as it goes over the wire, encoded once.
pub struct DocPlan {
    /// `OPEN`(s), one `CHUNK` per [`CHUNK`] bytes, `FINISH`.
    wire: Vec<u8>,
    /// `chunk_end[k]`: wire offset just past chunk `k`'s frame. Chunk 0
    /// carries the `OPEN`s before it, the last chunk the `FINISH` behind it.
    chunk_end: Vec<usize>,
    /// Per subscriber, the `DONE` counters a correct run reports.
    expect: Vec<(u64, u64)>,
    /// Cumulative result bytes after each chunk (single-subscriber plans
    /// that time results; empty otherwise) and the chunks that advance it.
    out_after: Vec<u64>,
    eligible: Vec<usize>,
    pub doc_bytes: usize,
}

impl DocPlan {
    /// `ids`: one `OPEN` per entry (several = shared fan-out mode, where the
    /// server tags every per-run frame with the subscriber index).
    pub fn new(ids: &[String], doc: &[u8], expect: Vec<(u64, u64)>, out_after: Vec<u64>) -> Self {
        assert_eq!(ids.len(), expect.len());
        let mut wire = Vec::with_capacity(doc.len() + doc.len() / CHUNK * 8 + 64);
        for id in ids {
            encode_frame(&mut wire, FrameKind::Open, id.as_bytes());
        }
        let mut chunk_end = Vec::with_capacity(doc.len().div_ceil(CHUNK));
        for chunk in doc.chunks(CHUNK) {
            encode_frame(&mut wire, FrameKind::Chunk, chunk);
            chunk_end.push(wire.len());
        }
        encode_frame(&mut wire, FrameKind::Finish, &[]);
        *chunk_end.last_mut().expect("documents are not empty") = wire.len();
        let eligible = eligible_chunks(&out_after);
        DocPlan { wire, chunk_end, expect, out_after, eligible, doc_bytes: doc.len() }
    }

    pub fn chunks(&self) -> usize {
        self.chunk_end.len()
    }

    fn tagged(&self) -> bool {
        self.expect.len() > 1
    }
}

/// The chunks whose feed advances the output: the ones a result can be
/// attributed to.
pub fn eligible_chunks(out_after: &[u64]) -> Vec<usize> {
    let mut prev = 0;
    let mut eligible = Vec::new();
    for (k, &after) in out_after.iter().enumerate() {
        if after > prev {
            eligible.push(k);
        }
        prev = after;
    }
    eligible
}

/// Advance `next` (an index into `eligible`) past every chunk whose result
/// is complete once `received` result bytes have arrived; returns the new
/// `next`. Chunk `k` is complete when `received >= out_after[k]`.
pub fn resolve_upto(
    out_after: &[u64],
    eligible: &[usize],
    mut next: usize,
    received: u64,
) -> usize {
    while next < eligible.len() && out_after[eligible[next]] <= received {
        next += 1;
    }
    next
}

/// What one closed-loop document run produced.
pub struct DocOutcome {
    /// First write to last `DONE`.
    pub secs: f64,
    /// Subscriber 0's concatenated `RESULT` payloads, when asked for.
    pub result: Option<Vec<u8>>,
}

#[derive(Default)]
pub struct OpenLoopReport {
    /// Per eligible chunk: due time → its result complete, in µs.
    pub latency_us: Vec<f64>,
    /// Per chunk: how late it was fully written, in µs, against the later
    /// of its due time and the moment the protocol allowed it (the previous
    /// document's `DONE`).
    pub lag_us: Vec<f64>,
    /// Largest number of chunks due but not yet written, in each half of
    /// a slice of the phase: a second half above the first is a growing
    /// backlog.
    pub backlog_max: [u64; 2],
    pub docs: u64,
    pub chunks: u64,
}

impl OpenLoopReport {
    /// Fold in the report of a later slice of the same phase.
    pub fn absorb(&mut self, later: OpenLoopReport) {
        self.latency_us.extend(later.latency_us);
        self.lag_us.extend(later.lag_us);
        for (mine, theirs) in self.backlog_max.iter_mut().zip(later.backlog_max) {
            *mine = (*mine).max(theirs);
        }
        self.docs += later.docs;
        self.chunks += later.chunks;
    }
}

/// Per-document receive state.
struct DocState<'p> {
    plan: &'p DocPlan,
    received: Vec<u64>,
    done: usize,
    capture: Option<Vec<u8>>,
}

impl<'p> DocState<'p> {
    fn new(plan: &'p DocPlan, capture: bool) -> Self {
        DocState {
            plan,
            received: vec![0; plan.expect.len()],
            done: 0,
            capture: capture.then(Vec::new),
        }
    }

    fn finished(&self) -> bool {
        self.done == self.plan.expect.len()
    }

    fn on_frame(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
        if matches!(kind, FrameKind::Stalled | FrameKind::Resumed) {
            return Ok(()); // connection-level flow control; counted by STATS
        }
        let (sub, body) = if self.plan.tagged() {
            if payload.len() < 4 {
                return Err(format!("{kind:?} frame without its subscriber tag"));
            }
            let (tag, body) = payload.split_at(4);
            (u32::from_be_bytes(tag.try_into().expect("4 bytes")) as usize, body)
        } else {
            (0, payload)
        };
        if sub >= self.received.len() {
            return Err(format!("{kind:?} frame for unknown subscriber {sub}"));
        }
        match kind {
            FrameKind::Result => {
                self.received[sub] += body.len() as u64;
                if sub == 0 {
                    if let Some(c) = &mut self.capture {
                        c.extend_from_slice(body);
                    }
                }
                Ok(())
            }
            FrameKind::Done => {
                self.done += 1;
                if body.len() < 17 || body[0] != 0 {
                    return Err(format!("subscriber {sub}: run ended without finishing"));
                }
                let events = u64::from_be_bytes(body[1..9].try_into().expect("8 bytes"));
                let output = u64::from_be_bytes(body[9..17].try_into().expect("8 bytes"));
                let want = self.plan.expect[sub];
                if (events, output) != want || self.received[sub] != output {
                    return Err(format!(
                        "subscriber {sub}: DONE reports {events} events / {output} output bytes \
                         after {} RESULT bytes, reference {} / {}",
                        self.received[sub], want.0, want.1
                    ));
                }
                Ok(())
            }
            FrameKind::Error => Err(format!(
                "subscriber {sub}: ERROR frame: {}",
                String::from_utf8_lossy(body.get(1..).unwrap_or_default())
            )),
            other => Err(format!("unexpected {other:?} frame mid-run")),
        }
    }
}

enum Recv {
    Data,
    Nothing,
}

pub struct Generator {
    stream: TcpStream,
    decoder: FrameDecoder,
    scratch: Vec<u8>,
}

impl Generator {
    pub fn connect(addr: SocketAddr) -> Result<Generator, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(Generator { stream, decoder: FrameDecoder::new(64 << 20), scratch: vec![0; 64 << 10] })
    }

    /// Read whatever the socket has into the decoder. With `wait`, sleep up
    /// to that long for the socket to become readable first (waking the
    /// moment it does).
    fn recv(&mut self, wait: Option<Duration>) -> Result<Recv, String> {
        if let Some(wait) = wait {
            sys::wait_readable(&self.stream, wait);
        }
        match self.stream.read(&mut self.scratch) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.decoder.feed(&self.scratch[..n]);
                Ok(Recv::Data)
            }
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                Ok(Recv::Nothing)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Non-blocking write of as much of `bytes` as the socket takes.
    fn send(&mut self, bytes: &[u8]) -> Result<usize, String> {
        match self.stream.write(bytes) {
            Ok(n) => Ok(n),
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                Ok(0)
            }
            Err(e) => Err(format!("write: {e}")),
        }
    }

    /// Hand every complete buffered frame to `state`.
    fn drain(&mut self, state: &mut DocState<'_>) -> Result<(), String> {
        loop {
            match self.decoder.poll().map_err(|e| format!("decode: {e}"))? {
                DecodePoll::Frame { kind, payload } => state.on_frame(kind, payload)?,
                DecodePoll::NeedMoreData => return Ok(()),
            }
        }
    }

    /// One document, closed loop: write it all, return on the last `DONE`.
    pub fn closed_loop_doc(&mut self, plan: &DocPlan, capture: bool) -> Result<DocOutcome, String> {
        let mut state = DocState::new(plan, capture);
        let mut sent = 0;
        let start = Instant::now();
        while !state.finished() {
            let mut progressed = false;
            if sent < plan.wire.len() {
                let n = self.send(&plan.wire[sent..])?;
                sent += n;
                progressed = n > 0;
            }
            if let Recv::Data = self.recv(None)? {
                self.drain(&mut state)?;
                progressed = true;
            }
            if !progressed {
                // Socket full or document sent: wait for results, briefly
                // while there is still something to write.
                let wait = if sent < plan.wire.len() { 100 } else { 2000 };
                if let Recv::Data = self.recv(Some(Duration::from_micros(wait)))? {
                    self.drain(&mut state)?;
                }
            }
            if start.elapsed() > DOC_TIMEOUT {
                return Err("document timed out".into());
            }
        }
        Ok(DocOutcome { secs: start.elapsed().as_secs_f64(), result: state.capture })
    }

    /// Documents back to back on a fixed chunk schedule for `duration`
    /// (the document in flight when time is up is completed).
    pub fn open_loop(
        &mut self,
        plan: &DocPlan,
        interval: Duration,
        duration: Duration,
    ) -> Result<OpenLoopReport, String> {
        // The schedule's timed waits must not be rounded up by the default
        // 50 µs timer slack; threads spawned later must not inherit this.
        sys::set_timer_slack_ns(1);
        let report = self.open_loop_paced(plan, interval, duration);
        sys::set_timer_slack_ns(0);
        report
    }

    fn open_loop_paced(
        &mut self,
        plan: &DocPlan,
        interval: Duration,
        duration: Duration,
    ) -> Result<OpenLoopReport, String> {
        assert!(!plan.tagged() && plan.out_after.len() == plan.chunks());
        let n = plan.chunks();
        let mut report = OpenLoopReport::default();
        let t0 = Instant::now() + Duration::from_millis(1);
        let due = |g: u64| t0 + interval.mul_f64(g as f64);
        // The moment the protocol allowed the current document to start.
        let mut allowed = t0;
        let mut first = 0u64; // global index of the current document's chunk 0
        while due(first) < t0 + duration {
            let mut state = DocState::new(plan, false);
            let (mut sent, mut sent_chunks, mut released, mut resolved) = (0, 0, 0, 0);
            let started = Instant::now();
            loop {
                let now = Instant::now();
                while released < n && now >= due(first + released as u64) {
                    released += 1;
                }
                let half = usize::from(now >= t0 + duration / 2);
                let backlog = (released - sent_chunks) as u64;
                report.backlog_max[half] = report.backlog_max[half].max(backlog);
                if sent_chunks < released {
                    sent += self.send(&plan.wire[sent..plan.chunk_end[released - 1]])?;
                    let wrote = Instant::now();
                    while sent_chunks < released && plan.chunk_end[sent_chunks] <= sent {
                        let from = due(first + sent_chunks as u64).max(allowed);
                        report.lag_us.push(micros(wrote.saturating_duration_since(from)));
                        sent_chunks += 1;
                    }
                }
                if let Recv::Data = self.recv(None)? {
                    self.note_results(plan, &mut state, &mut resolved, first, &due, &mut report)?;
                }
                if state.finished() {
                    break;
                }
                if started.elapsed() > DOC_TIMEOUT {
                    return Err("document timed out".into());
                }
                let now = Instant::now();
                let got = if sent_chunks < released {
                    // The socket refused bytes: results are what frees it.
                    self.recv(Some(Duration::from_micros(50)))?
                } else if released < n {
                    let next = due(first + released as u64);
                    let left = next.saturating_duration_since(now);
                    if left > SPIN {
                        self.recv(Some(left - SPIN))?
                    } else {
                        let mut got = Recv::Nothing;
                        while Instant::now() < next {
                            if let Recv::Data = self.recv(None)? {
                                got = Recv::Data;
                                break;
                            }
                            std::hint::spin_loop();
                        }
                        got
                    }
                } else {
                    // Everything sent: only the tail of the results and
                    // `DONE` are outstanding.
                    self.recv(Some(Duration::from_millis(1)))?
                };
                if let Recv::Data = got {
                    self.note_results(plan, &mut state, &mut resolved, first, &due, &mut report)?;
                    if state.finished() {
                        break;
                    }
                }
            }
            if resolved != plan.eligible.len() {
                return Err(format!(
                    "run finished with {} of {} chunk results never seen",
                    plan.eligible.len() - resolved,
                    plan.eligible.len()
                ));
            }
            allowed = Instant::now();
            report.docs += 1;
            report.chunks += n as u64;
            first += n as u64;
        }
        Ok(report)
    }

    /// Decode what just arrived and time every chunk result it completes,
    /// all stamped with one arrival time.
    fn note_results(
        &mut self,
        plan: &DocPlan,
        state: &mut DocState<'_>,
        resolved: &mut usize,
        first: u64,
        due: &impl Fn(u64) -> Instant,
        report: &mut OpenLoopReport,
    ) -> Result<(), String> {
        let arrived = Instant::now();
        self.drain(state)?;
        let upto = resolve_upto(&plan.out_after, &plan.eligible, *resolved, state.received[0]);
        for &k in &plan.eligible[*resolved..upto] {
            let waited = arrived.saturating_duration_since(due(first + k as u64));
            report.latency_us.push(micros(waited));
        }
        *resolved = upto;
        Ok(())
    }

    /// One `STATS` scrape: the server's metrics as Prometheus text.
    pub fn scrape(&mut self) -> Result<String, String> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, FrameKind::Stats, &[]);
        let mut sent = 0;
        let start = Instant::now();
        loop {
            if sent < frame.len() {
                sent += self.send(&frame[sent..])?;
            }
            if let Recv::Data = self.recv(Some(Duration::from_millis(1)))? {
                match self.decoder.poll().map_err(|e| format!("decode: {e}"))? {
                    DecodePoll::Frame { kind: FrameKind::StatsReply, payload } => {
                        return Ok(String::from_utf8_lossy(payload).into_owned());
                    }
                    DecodePoll::Frame { kind, .. } => {
                        return Err(format!("unexpected {kind:?} frame answering STATS"));
                    }
                    DecodePoll::NeedMoreData => {}
                }
            }
            if start.elapsed() > DOC_TIMEOUT {
                return Err("STATS scrape timed out".into());
            }
        }
    }
}

/// Sleeping until a socket is readable, with a sub-millisecond timeout.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` on 64-bit Linux: two `long`s.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x001;

    extern "C" {
        // Declared against the C library std already links, as
        // `flux_serve::poller` does for `poll`.
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
    }

    const PR_SET_TIMERSLACK: c_int = 29;

    /// Set the calling thread's timer slack: the kernel may fire a timed
    /// wait this many nanoseconds late to batch wake-ups (50 µs by default,
    /// a fifth of the chunk interval). `0` restores the thread's default.
    /// Per thread, so the server's threads keep theirs. A failure leaves the
    /// default in place, which the reported generator lag then shows.
    pub fn set_timer_slack_ns(ns: u64) {
        // SAFETY: `PR_SET_TIMERSLACK` takes one integer argument and reads
        // no memory; the unused arguments are zero as prctl(2) requires.
        unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong, 0, 0, 0) };
    }

    /// Sleep until `stream` is readable or `timeout` has passed. Errors
    /// (e.g. `EINTR`) read as a timeout: the caller's next non-blocking
    /// `read` reports whatever is really there.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) {
        let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are live, correctly laid out (`repr(C)`,
        // matching the 64-bit Linux ABI this module is compiled for) and
        // outlive the call; `nfds` is the length of the one-element array;
        // a null `sigmask` asks for no signal-mask change.
        unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    }
}

/// Elsewhere there is no portable sub-millisecond readiness wait: yield and
/// let the caller's non-blocking read and clock check decide.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub fn wait_readable(_stream: &std::net::TcpStream, _timeout: std::time::Duration) {
        std::thread::yield_now();
    }

    pub fn set_timer_slack_ns(_ns: u64) {}
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_chunks_that_advance_output_are_eligible() {
        assert_eq!(eligible_chunks(&[0, 0, 10, 10, 25, 25, 26]), [2, 4, 6]);
        assert_eq!(eligible_chunks(&[7, 7]), [0]);
        assert!(eligible_chunks(&[0, 0, 0]).is_empty());
        assert!(eligible_chunks(&[]).is_empty());
    }

    #[test]
    fn a_chunk_resolves_once_its_cumulative_output_has_arrived() {
        let out_after = [0, 0, 10, 10, 25, 25, 26];
        let eligible = eligible_chunks(&out_after);
        // Nothing yet; a partial RESULT for chunk 2 does not complete it.
        assert_eq!(resolve_upto(&out_after, &eligible, 0, 0), 0);
        assert_eq!(resolve_upto(&out_after, &eligible, 0, 9), 0);
        // Exactly chunk 2's bytes: chunk 2 resolves, chunk 4 does not.
        assert_eq!(resolve_upto(&out_after, &eligible, 0, 10), 1);
        assert_eq!(resolve_upto(&out_after, &eligible, 1, 24), 1);
        // One RESULT frame may complete several chunks at once.
        assert_eq!(resolve_upto(&out_after, &eligible, 1, 26), 3);
        // Already-resolved chunks are never revisited.
        assert_eq!(resolve_upto(&out_after, &eligible, 3, 1000), 3);
    }

    #[test]
    fn the_wire_plan_carries_opens_first_and_finish_with_the_last_chunk() {
        let doc = vec![b'x'; CHUNK + 10];
        let ids = ["q20".to_string()];
        let plan = DocPlan::new(&ids, &doc, vec![(1, 2)], vec![0, 5]);
        assert_eq!(plan.chunks(), 2);
        assert_eq!(plan.eligible, [1]);
        let mut dec = FrameDecoder::new(1 << 20);
        dec.feed(&plan.wire[..plan.chunk_end[0]]);
        let mut kinds = Vec::new();
        while let DecodePoll::Frame { kind, .. } = dec.poll().unwrap() {
            kinds.push(kind);
        }
        assert_eq!(kinds, [FrameKind::Open, FrameKind::Chunk]);
        dec.feed(&plan.wire[plan.chunk_end[0]..plan.chunk_end[1]]);
        kinds.clear();
        while let DecodePoll::Frame { kind, .. } = dec.poll().unwrap() {
            kinds.push(kind);
        }
        assert_eq!(kinds, [FrameKind::Chunk, FrameKind::Finish]);
        assert_eq!(plan.chunk_end[1], plan.wire.len());
    }

    #[test]
    fn done_counters_are_checked_against_the_reference() {
        let doc = vec![b'x'; 10];
        let plan = DocPlan::new(&["q".to_string()], &doc, vec![(3, 4)], Vec::new());
        let done = flux_serve::protocol::done_finished_payload(
            3,
            4,
            Default::default(),
            Default::default(),
        );
        let mut ok = DocState::new(&plan, true);
        ok.on_frame(FrameKind::Result, b"abcd").unwrap();
        ok.on_frame(FrameKind::Done, &done).unwrap();
        assert!(ok.finished());
        assert_eq!(ok.capture.as_deref(), Some(&b"abcd"[..]));
        // Same DONE, but a RESULT byte went missing on the way.
        let mut short = DocState::new(&plan, false);
        short.on_frame(FrameKind::Result, b"abc").unwrap();
        assert!(short.on_frame(FrameKind::Done, &done).is_err());
        // An aborted run.
        let mut aborted = DocState::new(&plan, false);
        assert!(aborted.on_frame(FrameKind::Done, &[1]).is_err());
    }
}
