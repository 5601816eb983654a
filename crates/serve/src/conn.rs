//! Per-connection state: the inbound frame decoder, the outbound write
//! buffer, the session lifecycle, and the engine→socket output seam.
//!
//! A connection is a small state machine ([`ConnState`]): `Idle` until an
//! `OPEN` frame binds it to a runtime session, `Running` while `CHUNK`s
//! flow, then `Finishing`/`Aborting` until the runtime confirms with its
//! terminal event. Engine output crosses threads through a [`SharedOut`]
//! buffer: the session's [`FrameSink`] (executing on a runtime worker)
//! appends raw result bytes, and the server thread drains them into
//! `RESULT` frames on the connection's write buffer. The server thread
//! sleeps in its poller, so it has to be *told* to come and drain: the
//! runtime's notifier does that whenever a worker's mailbox runs dry, and
//! the buffer itself fires the same waker the moment undelivered output
//! reaches one full `RESULT` frame ([`OutputWake`]) — a session flooded
//! with input streams full frames instead of holding its output until the
//! flood ends.
//!
//! Backpressure is structural, not buffered: when the socket stops
//! accepting writes and the outbound buffer crosses the server's high-water
//! mark — or the session stalls on the shared admission budget — the
//! connection's *read* interest is parked ([`Conn::wants_read`] turns
//! false). No further frames are decoded, no further chunks reach the
//! engine, so no further output is produced; TCP pushes the wait back to
//! the client. Bytes already in flight are bounded by what was read before
//! the mark was crossed.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flux::RuntimeId;
use flux_engine::EdgeWaker;
use flux_xml::{ScanTelemetry, Sink, TapeTelemetry};

use crate::metrics::{Dir, ServeMetrics};
use crate::poller::Interest;
use crate::protocol::{done_finished_payload, encode_frame, ErrorCode, FrameDecoder, FrameKind};

/// Where a connection is in the session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// No session: `OPEN` is the only acceptable next frame.
    Idle,
    /// One or more valid `OPEN`s received, no document bytes yet. Further
    /// `OPEN`s join the set ([`Conn::pending_opens`]); the first `CHUNK`
    /// or `FINISH` seals it into a session (single for one id, shared
    /// fan-out for several).
    Collecting,
    /// An `OPEN` was refused (unknown query id) but the connection lives
    /// on. A pipelining client may already have the doomed run's `CHUNK`s
    /// and `FINISH` in flight: they are absorbed silently (`FINISH` /
    /// `ABORT` return the state to `Idle`, and a fresh `OPEN` is accepted
    /// directly — the client moved on without ever chunking).
    Rejected,
    /// A session is live: `CHUNK` / `FINISH` / `ABORT` are acceptable.
    Running(RuntimeId),
    /// `FINISH` sent to the runtime; awaiting its `Finished` event.
    Finishing(RuntimeId),
    /// `ABORT` sent to the runtime; awaiting its `Aborted` event.
    Aborting(RuntimeId),
}

impl ConnState {
    /// The session to abort if this connection dies right now. Only
    /// `Running` qualifies: `Finishing`/`Aborting` ids are already dead to
    /// commands — their terminal event is in flight.
    pub(crate) fn abort_on_death(self) -> Option<RuntimeId> {
        match self {
            ConnState::Running(id) => Some(id),
            _ => None,
        }
    }
}

/// How output buffers reach the sleeping server thread: the runtime
/// notifier's waker (shared, so every source coalesces into one wake-up per
/// server pass) and the amount of undelivered output worth waking it for.
pub(crate) struct OutputWake {
    /// The server's runtime notifier (see [`Server`](crate::Server) for
    /// the protocol): armed by the server before each drain.
    pub(crate) notifier: Arc<EdgeWaker>,
    /// One full `RESULT` frame (`ServerConfig::result_frame_max`).
    pub(crate) frame_max: usize,
    pub(crate) metrics: Option<Arc<ServeMetrics>>,
}

/// The engine→connection output buffer, shared between a session's
/// [`FrameSink`] (on a runtime worker thread) and the server thread.
pub(crate) struct SharedOut {
    buf: Mutex<Vec<u8>>,
    /// Mirror of `buf.len()`, so the server's per-pass scan costs one
    /// relaxed load per connection instead of a lock. Relaxed is enough:
    /// the server reads it after arming the notifier, and every append is
    /// followed (here on a full frame, else by the worker's next event or
    /// idle flush) by a `fire` of that notifier — the flag's
    /// read-modify-writes order the two (see [`EdgeWaker`]).
    len: AtomicUsize,
    wake: Arc<OutputWake>,
}

impl SharedOut {
    pub(crate) fn new(wake: &Arc<OutputWake>) -> Arc<SharedOut> {
        Arc::new(SharedOut {
            buf: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
            wake: Arc::clone(wake),
        })
    }

    /// Bytes currently buffered (racy read; the drain locks).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn append(&self, bytes: &[u8]) {
        let (before, after) = {
            let mut buf = self.buf.lock().expect("session output buffer");
            let before = buf.len();
            buf.extend_from_slice(bytes);
            self.len.store(buf.len(), Ordering::Relaxed);
            (before, buf.len())
        };
        // Crossing one full frame: worth a wake-up of its own. Once per
        // drain — the buffer has to be emptied before it can cross again —
        // and outside the lock, so the callback's syscall never holds up
        // the drain it asks for.
        let frame = self.wake.frame_max;
        if before < frame && after >= frame {
            let fired = self.wake.notifier.fire();
            if let Some(m) = &self.wake.metrics {
                m.note_notify(fired);
            }
        }
    }

    /// Swap everything buffered so far into `spare` (output order is append
    /// order), leaving `spare`'s old allocation behind for the worker to
    /// append into: both sides keep their capacity across drains instead of
    /// one freeing and the other regrowing a buffer per drain.
    pub(crate) fn take_into(&self, spare: &mut Vec<u8>) {
        spare.clear();
        let mut buf = self.buf.lock().expect("session output buffer");
        self.len.store(0, Ordering::Relaxed);
        std::mem::swap(&mut *buf, spare);
    }
}

/// The [`Sink`] handed to the runtime for each server session: appends the
/// engine's output bytes to the connection's [`SharedOut`]. Framing into
/// `RESULT` frames happens on the server thread at drain time, so the
/// engine's write granularity never dictates frame sizes.
pub(crate) struct FrameSink(pub(crate) Arc<SharedOut>);

impl Sink for FrameSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.append(bytes);
        Ok(())
    }

    fn flush_sink(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one non-blocking read pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadPass {
    /// Bytes were fed to the decoder; there may be more to read.
    Progress,
    /// The socket has no more bytes right now.
    Drained,
    /// The peer closed (EOF or a hard error).
    PeerGone,
}

/// One client connection — see the [module docs](self).
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) decoder: FrameDecoder,
    /// Encoded outbound frames waiting for the socket.
    out: Vec<u8>,
    /// Consumed prefix of `out` (partial writes).
    out_pos: usize,
    pub(crate) state: ConnState,
    /// Query ids collected from `OPEN` frames, awaiting the seal
    /// (`Collecting` only).
    pub(crate) pending_opens: Vec<String>,
    /// Query ids of the sealed run, in subscriber order — what a
    /// `SNAPSHOT` records in the snapshot envelope so `RESUME` can
    /// recompile the same plan.
    pub(crate) run_ids: Vec<String>,
    /// The live session's output seam (present from `OPEN` to the terminal
    /// runtime event).
    pub(crate) shared: Option<Arc<SharedOut>>,
    /// Shared fan-out mode: one output seam per subscriber, drained into
    /// subscriber-tagged `RESULT` frames. Empty in single mode.
    pub(crate) multi: Vec<Arc<SharedOut>>,
    /// The session is paused on the shared admission budget: reads are
    /// parked so the client's chunks queue in its own socket, not here.
    pub(crate) stalled: bool,
    /// A fatal frame was sent (`ERROR`): flush `out`, then close.
    pub(crate) close_after_flush: bool,
    /// The peer disconnected: reap this connection this pass.
    pub(crate) peer_gone: bool,
    /// Interest currently registered with the poller (to skip redundant
    /// reregistration).
    pub(crate) registered: Interest,
    /// When the current run's opens were sealed into a session — feeds the
    /// per-query `flux_serve_run_duration_us` histogram at `DONE` time.
    pub(crate) run_started: Option<std::time::Instant>,
    /// What this connection's output seams wake the server with — and the
    /// server's instrument bundle, if metrics are configured: every frame
    /// and byte through this connection counts against it.
    pub(crate) output_wake: Arc<OutputWake>,
    /// The drained half of the output double buffer (see
    /// [`SharedOut::take_into`]).
    spare: Vec<u8>,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        max_frame_payload: usize,
        output_wake: Arc<OutputWake>,
    ) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_frame_payload),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Idle,
            pending_opens: Vec::new(),
            run_ids: Vec::new(),
            shared: None,
            multi: Vec::new(),
            stalled: false,
            close_after_flush: false,
            peer_gone: false,
            registered: Interest::READ,
            run_started: None,
            output_wake,
            spare: Vec::new(),
        }
    }

    /// Bytes queued for the socket.
    pub(crate) fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queue one frame for the client — the single outbound funnel, so
    /// every server→client frame counts once in the metrics.
    pub(crate) fn queue(&mut self, kind: FrameKind, payload: &[u8]) {
        if let Some(m) = &self.output_wake.metrics {
            m.note_frame(Dir::Out, kind);
        }
        encode_frame(&mut self.out, kind, payload);
    }

    /// Queue a structured `ERROR` frame.
    pub(crate) fn queue_error(&mut self, code: ErrorCode, message: &str) {
        let mut payload = Vec::with_capacity(1 + message.len());
        payload.push(code.byte());
        payload.extend_from_slice(message.as_bytes());
        self.queue(FrameKind::Error, &payload);
    }

    /// Queue the `DONE` frame for a completed run.
    pub(crate) fn queue_done_finished(
        &mut self,
        events: u64,
        output_bytes: u64,
        scan: ScanTelemetry,
        tape: TapeTelemetry,
    ) {
        let payload = done_finished_payload(events, output_bytes, scan, tape);
        self.queue(FrameKind::Done, &payload);
    }

    /// Queue the `DONE` frame acknowledging an abort.
    pub(crate) fn queue_done_aborted(&mut self) {
        self.queue(FrameKind::Done, &[1]);
    }

    /// Queue a subscriber-tagged frame (shared fan-out mode): the payload
    /// is prefixed with the 4-byte big-endian subscriber index.
    pub(crate) fn queue_tagged(&mut self, sub: u32, kind: FrameKind, payload: &[u8]) {
        let mut tagged = Vec::with_capacity(4 + payload.len());
        tagged.extend_from_slice(&sub.to_be_bytes());
        tagged.extend_from_slice(payload);
        self.queue(kind, &tagged);
    }

    /// Queue a subscriber-tagged `ERROR` frame.
    pub(crate) fn queue_error_tagged(&mut self, sub: u32, code: ErrorCode, message: &str) {
        let mut payload = Vec::with_capacity(1 + message.len());
        payload.push(code.byte());
        payload.extend_from_slice(message.as_bytes());
        self.queue_tagged(sub, FrameKind::Error, &payload);
    }

    /// Queue a subscriber-tagged finished-`DONE` frame.
    pub(crate) fn queue_done_finished_tagged(
        &mut self,
        sub: u32,
        events: u64,
        output_bytes: u64,
        scan: ScanTelemetry,
        tape: TapeTelemetry,
    ) {
        self.queue_tagged(
            sub,
            FrameKind::Done,
            &done_finished_payload(events, output_bytes, scan, tape),
        );
    }

    /// Queue a subscriber-tagged aborted-`DONE` frame.
    pub(crate) fn queue_done_aborted_tagged(&mut self, sub: u32) {
        self.queue_tagged(sub, FrameKind::Done, &[1]);
    }

    /// Drain the session's output into `RESULT` frames of at most
    /// `frame_max` payload bytes each — untagged in single mode, tagged
    /// per subscriber in shared mode.
    pub(crate) fn drain_results(&mut self, frame_max: usize) {
        if !self.multi.is_empty() {
            for sub in 0..self.multi.len() {
                self.drain_sub(sub, frame_max);
            }
            return;
        }
        let Some(shared) = &self.shared else { return };
        if shared.len() == 0 {
            return;
        }
        let mut bytes = std::mem::take(&mut self.spare);
        shared.take_into(&mut bytes);
        for chunk in bytes.chunks(frame_max.max(1)) {
            self.queue(FrameKind::Result, chunk);
        }
        self.spare = bytes;
    }

    /// Drain one shared-mode subscriber's output into tagged `RESULT`
    /// frames. The tag rides inside the payload, so the data slice shrinks
    /// by the tag's 4 bytes to respect the configured payload cap.
    pub(crate) fn drain_sub(&mut self, sub: usize, frame_max: usize) {
        if self.multi[sub].len() == 0 {
            return;
        }
        let mut bytes = std::mem::take(&mut self.spare);
        self.multi[sub].take_into(&mut bytes);
        for chunk in bytes.chunks(frame_max.saturating_sub(4).max(1)) {
            self.queue_tagged(sub as u32, FrameKind::Result, chunk);
        }
        self.spare = bytes;
    }

    /// Should the poller watch this connection for readability?
    pub(crate) fn wants_read(&self, high_water: usize) -> bool {
        !self.peer_gone && !self.close_after_flush && !self.stalled && self.out_len() <= high_water
    }

    /// One non-blocking read pass: pull at most one buffer of bytes into
    /// the decoder. The caller decodes frames between passes so state
    /// changes (errors, backpressure) take effect mid-stream.
    pub(crate) fn read_pass(&mut self, scratch: &mut [u8]) -> ReadPass {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ReadPass::PeerGone,
                Ok(n) => {
                    if let Some(m) = &self.output_wake.metrics {
                        m.bytes_in.add(n as u64);
                    }
                    self.decoder.feed(&scratch[..n]);
                    return ReadPass::Progress;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadPass::Drained,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadPass::PeerGone,
            }
        }
    }

    /// Write as much of `out` as the socket accepts right now.
    pub(crate) fn flush_pass(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    if let Some(m) = &self.output_wake.metrics {
                        m.bytes_out.add(n as u64);
                    }
                    self.out_pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.peer_gone = true;
                    break;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > (64 << 10) {
            // Reclaim the written prefix so slow readers do not pin the
            // whole history of their stream.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(frame_max: usize, fired: &Arc<AtomicUsize>) -> Arc<OutputWake> {
        let fired = Arc::clone(fired);
        let notifier = EdgeWaker::new(move || {
            fired.fetch_add(1, Ordering::SeqCst);
        });
        Arc::new(OutputWake { notifier, frame_max, metrics: None })
    }

    #[test]
    fn a_drain_swaps_buffers_so_capacity_survives_it() {
        let out = SharedOut::new(&wake(usize::MAX, &Arc::default()));
        let mut spare = Vec::with_capacity(8192);
        out.append(&[7; 4096]);
        let grown = out.buf.lock().unwrap().capacity();
        out.take_into(&mut spare);
        assert_eq!((spare.as_slice(), out.len()), (&[7; 4096][..], 0));
        // Swapped, not reallocated: each side now holds the other's buffer,
        assert_eq!(spare.capacity(), grown);
        assert_eq!(out.buf.lock().unwrap().capacity(), 8192);
        // so the worker's next append does not regrow from nothing, and the
        // next drain hands the same two allocations back.
        out.append(&[8; 4096]);
        assert_eq!(out.buf.lock().unwrap().capacity(), 8192);
        out.take_into(&mut spare);
        assert_eq!(spare.as_slice(), &[8; 4096][..]);
        assert_eq!((spare.capacity(), out.buf.lock().unwrap().capacity()), (8192, grown));
    }

    #[test]
    fn output_crossing_one_frame_fires_the_notifier_once_per_drain() {
        let fired = Arc::new(AtomicUsize::new(0));
        let wake = wake(100, &fired);
        let out = SharedOut::new(&wake);
        let mut spare = Vec::new();

        wake.notifier.arm();
        out.append(&[0; 99]);
        assert_eq!(fired.load(Ordering::SeqCst), 0, "below one frame: the idle flush covers it");
        out.append(&[0; 1]);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "crossed");
        wake.notifier.arm();
        out.append(&[0; 500]);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "already announced, not yet drained");

        out.take_into(&mut spare);
        out.append(&[0; 250]);
        assert_eq!(fired.load(Ordering::SeqCst), 2, "a fresh crossing after the drain");
        assert!(!wake.notifier.is_armed());
    }
}
