//! A small blocking client for the flux-serve wire protocol — what the
//! loopback tests and the example speak. Production clients in other
//! languages only need the frame table in [`protocol`](crate::protocol).
//!
//! Writes are internally buffered and flushed opportunistically without
//! blocking, and reads drain whenever a write would block — so a caller may
//! push an arbitrarily large document before collecting results without
//! deadlocking on full TCP buffers in both directions.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use flux_xml::{Backend, ScanTelemetry, TapeTelemetry};

use crate::protocol::{
    encode_frame, DecodePoll, ErrorCode, FrameDecoder, FrameKind, StallReason, HEADER_LEN,
};

/// One decoded server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// A chunk of query output.
    Result(Vec<u8>),
    /// The run finished; counters from the engine's `RunStats`.
    Done {
        /// Input events the engine processed.
        events: u64,
        /// Total output bytes (across all `RESULT` frames).
        output_bytes: u64,
        /// Scanner telemetry from the server's tokenizer; `None` when the
        /// server speaks the pre-telemetry 17-byte `DONE` payload.
        scan: Option<ScanTelemetry>,
        /// Delivery-tape telemetry (batches, tape-delivered events,
        /// fast-forwarded events); `None` when the server speaks a
        /// pre-tape `DONE` payload.
        tape: Option<TapeTelemetry>,
    },
    /// The run was aborted (acknowledges `ABORT`).
    AbortAck,
    /// The session paused on the server's admission control.
    Stalled {
        /// Why (from the frame's reason byte; [`StallReason::Unknown`] from
        /// a pre-reason server's empty payload).
        reason: StallReason,
    },
    /// The stalled session resumed.
    Resumed,
    /// The server's metrics snapshot, Prometheus text (answers
    /// [`Client::scrape`]; empty if the server has no registry).
    Stats {
        /// The rendered text exposition.
        text: String,
    },
    /// Structured failure.
    Error {
        /// Decoded error code (`None` for a code this client is too old to
        /// know).
        code: Option<ErrorCode>,
        /// Human-readable cause.
        message: String,
    },
    /// The run was suspended server-side (acknowledges `SNAPSHOT`); present
    /// the token in a later [`Client::resume`] — on any connection, even
    /// after a server restart — to continue it.
    Snapshotted {
        /// The opaque resume token.
        token: String,
    },
}

/// Everything a full client→server run produced, collected by
/// [`Client::collect`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Concatenated `RESULT` payloads, in order.
    pub output: Vec<u8>,
    /// `(events, output_bytes)` from the `DONE` frame, if the run finished.
    pub done: Option<(u64, u64)>,
    /// Scanner telemetry from the `DONE` frame (`None` until the run
    /// finishes, or from a pre-telemetry server).
    pub scan: Option<ScanTelemetry>,
    /// Delivery-tape telemetry from the `DONE` frame (`None` until the
    /// run finishes, or from a pre-tape server).
    pub tape: Option<TapeTelemetry>,
    /// The run acknowledged an abort.
    pub aborted: bool,
    /// The `ERROR` frame, if any ended the run.
    pub error: Option<(Option<ErrorCode>, String)>,
    /// `STALLED` frames observed.
    pub stalls: usize,
    /// The reason byte of each `STALLED` frame, in arrival order (always
    /// `stalls` entries).
    pub stall_reasons: Vec<StallReason>,
    /// `RESUMED` frames observed.
    pub resumes: usize,
    /// The resume token, if a `SNAPSHOTTED` frame suspended the run.
    pub snapshot: Option<String>,
}

/// A blocking protocol client — see the [module docs](self).
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded frames not yet accepted by the socket.
    pending: Vec<u8>,
    pending_pos: usize,
    /// Complete inbound frames, decoded lazily: shared fan-out runs read
    /// them tagged, everything else as plain [`ServerMsg`]s.
    inbox: VecDeque<(FrameKind, Vec<u8>)>,
    scratch: Vec<u8>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            // Generous: the client accepts whatever the server frames.
            decoder: FrameDecoder::new(64 << 20),
            pending: Vec::new(),
            pending_pos: 0,
            inbox: VecDeque::new(),
            scratch: vec![0; 16 << 10],
        })
    }

    /// Queue an `OPEN` for the registered query `id`.
    pub fn open(&mut self, id: &str) -> io::Result<()> {
        self.send(FrameKind::Open, id.as_bytes())
    }

    /// Queue the next document chunk.
    pub fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.send(FrameKind::Chunk, bytes)
    }

    /// Queue end-of-document.
    pub fn finish(&mut self) -> io::Result<()> {
        self.send(FrameKind::Finish, &[])
    }

    /// Queue a mid-stream abort.
    pub fn abort(&mut self) -> io::Result<()> {
        self.send(FrameKind::Abort, &[])
    }

    /// Ask the server to suspend the running session to a snapshot and
    /// detach; the token arrives as [`ServerMsg::Snapshotted`] (after any
    /// remaining `RESULT` frames).
    pub fn snapshot(&mut self) -> io::Result<()> {
        self.send(FrameKind::Snapshot, &[])
    }

    /// Re-attach a suspended run by its snapshot token; on success the
    /// connection is mid-run again and `chunk`/`finish` continue it.
    pub fn resume(&mut self, token: &str) -> io::Result<()> {
        self.send(FrameKind::Resume, token.as_bytes())
    }

    /// Scrape the server's metrics: send a `STATS` frame and block for the
    /// `STATS_REPLY`, returning the Prometheus text snapshot (empty if the
    /// server has no registry). Legal in any state, even mid-run — frames
    /// of an in-flight run that arrive first are stashed and re-queued, so
    /// a following [`Client::collect`] still sees them in order.
    pub fn scrape(&mut self) -> io::Result<String> {
        self.send(FrameKind::Stats, &[])?;
        let mut stash = Vec::new();
        loop {
            let (kind, payload) = self.next_frame()?;
            if kind == FrameKind::StatsReply {
                for frame in stash.into_iter().rev() {
                    self.inbox.push_front(frame);
                }
                return Ok(String::from_utf8_lossy(&payload).into_owned());
            }
            stash.push((kind, payload));
        }
    }

    /// Queue raw pre-encoded bytes (protocol-violation testing).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.pending.extend_from_slice(bytes);
        self.drive()
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
        encode_frame(&mut self.pending, kind, payload);
        self.drive()
    }

    /// Non-blocking progress: push pending writes, drain available reads.
    fn drive(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let res = self.drive_nonblocking();
        // Restore blocking mode for `next_msg` before surfacing any error.
        self.stream.set_nonblocking(false)?;
        res
    }

    fn drive_nonblocking(&mut self) -> io::Result<()> {
        loop {
            let mut progressed = false;
            while self.pending_pos < self.pending.len() {
                match self.stream.write(&self.pending[self.pending_pos..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        self.pending_pos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            if self.pending_pos == self.pending.len() {
                self.pending.clear();
                self.pending_pos = 0;
            }
            // Drain whatever the server already produced so neither side's
            // TCP buffer can deadlock a large exchange.
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.decoder.feed(&self.scratch[..n]);
                    self.decode_into_inbox()?;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            if self.pending.is_empty() || !progressed {
                return Ok(());
            }
        }
    }

    fn decode_into_inbox(&mut self) -> io::Result<()> {
        loop {
            match self.decoder.poll() {
                Ok(DecodePoll::Frame { kind, payload }) => {
                    self.inbox.push_back((kind, payload.to_vec()));
                }
                Ok(DecodePoll::NeedMoreData) => return Ok(()),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        }
    }

    /// The next server message, blocking until one arrives. Pending writes
    /// keep flushing while waiting.
    pub fn next_msg(&mut self) -> io::Result<ServerMsg> {
        let (kind, payload) = self.next_frame()?;
        decode_msg(kind, &payload)
    }

    /// The next raw frame, blocking until one arrives.
    fn next_frame(&mut self) -> io::Result<(FrameKind, Vec<u8>)> {
        loop {
            if let Some(frame) = self.inbox.pop_front() {
                return Ok(frame);
            }
            if !self.pending.is_empty() {
                self.drive()?;
                if !self.pending.is_empty() && self.inbox.is_empty() {
                    // The server is not draining us yet (backpressure):
                    // yield rather than spin.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                continue;
            }
            // Blocking read (stream is left in blocking mode by drive()).
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.decoder.feed(&self.scratch[..n]);
                    self.decode_into_inbox()?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Collect messages until the run ends (`DONE` or `ERROR`).
    pub fn collect(&mut self) -> io::Result<Outcome> {
        let mut out = Outcome::default();
        loop {
            match self.next_msg()? {
                ServerMsg::Result(bytes) => out.output.extend_from_slice(&bytes),
                ServerMsg::Done { events, output_bytes, scan, tape } => {
                    out.done = Some((events, output_bytes));
                    out.scan = scan;
                    out.tape = tape;
                    return Ok(out);
                }
                ServerMsg::AbortAck => {
                    out.aborted = true;
                    return Ok(out);
                }
                ServerMsg::Stalled { reason } => {
                    out.stalls += 1;
                    out.stall_reasons.push(reason);
                }
                ServerMsg::Resumed => out.resumes += 1,
                // A scrape answer that outran a previous caller: not part
                // of the run, skip it.
                ServerMsg::Stats { .. } => {}
                ServerMsg::Error { code, message } => {
                    out.error = Some((code, message));
                    return Ok(out);
                }
                ServerMsg::Snapshotted { token } => {
                    out.snapshot = Some(token);
                    return Ok(out);
                }
            }
        }
    }

    /// Open `id`, stream `doc` in `chunk_size`-byte chunks, finish, and
    /// collect the whole exchange.
    pub fn run_document(&mut self, id: &str, doc: &[u8], chunk_size: usize) -> io::Result<Outcome> {
        self.open(id)?;
        for chunk in doc.chunks(chunk_size.max(1)) {
            self.chunk(chunk)?;
        }
        self.finish()?;
        self.collect()
    }

    /// Queue one `OPEN` per id: a shared fan-out run (the server parses the
    /// document once for all of them). Follow with `chunk`/`finish` and
    /// [`Client::collect_shared`].
    pub fn open_many<I: AsRef<str>>(&mut self, ids: &[I]) -> io::Result<()> {
        for id in ids {
            self.open(id.as_ref())?;
        }
        Ok(())
    }

    /// Collect a shared fan-out run of `subs` subscribers: demultiplex the
    /// subscriber-tagged `RESULT`/`DONE`/`ERROR` frames into one
    /// [`Outcome`] per subscriber (in `OPEN` order), until every
    /// subscriber has its terminal frame. `STALLED`/`RESUMED` are
    /// connection-level — the shared parse pauses as a whole — and are
    /// counted on every subscriber.
    ///
    /// A connection-level (untagged) `ERROR` ends every remaining
    /// subscriber with that error.
    pub fn collect_shared(&mut self, subs: usize) -> io::Result<Vec<Outcome>> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut outs = vec![Outcome::default(); subs];
        let mut open = vec![true; subs];
        while open.iter().any(|&o| o) {
            let (kind, payload) = self.next_frame()?;
            match kind {
                FrameKind::Stalled => {
                    let reason = StallReason::from_payload(&payload);
                    outs.iter_mut().for_each(|o| {
                        o.stalls += 1;
                        o.stall_reasons.push(reason);
                    });
                }
                FrameKind::Resumed => outs.iter_mut().for_each(|o| o.resumes += 1),
                // A scrape answer that outran a previous caller: not part
                // of the run, skip it.
                FrameKind::StatsReply => {}
                // A snapshot suspends the shared run as a whole: one
                // untagged token answers every subscriber.
                FrameKind::Snapshotted => {
                    let token = String::from_utf8_lossy(&payload).into_owned();
                    outs.iter_mut().for_each(|o| o.snapshot = Some(token.clone()));
                    return Ok(outs);
                }
                FrameKind::Error if untagged_error(&payload, subs) => {
                    // Connection-fatal refusal (protocol/state/compile):
                    // one untagged frame answers the whole run.
                    let msg = decode_msg(kind, &payload)?;
                    let ServerMsg::Error { code, message } = msg else { unreachable!() };
                    for (o, live) in outs.iter_mut().zip(&open) {
                        if *live {
                            o.error = Some((code, message.clone()));
                        }
                    }
                    return Ok(outs);
                }
                FrameKind::Result | FrameKind::Done | FrameKind::Error => {
                    if payload.len() < 4 {
                        return Err(bad("shared-mode frame shorter than its subscriber tag"));
                    }
                    let sub =
                        u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
                    if sub >= subs {
                        return Err(bad("subscriber tag out of range"));
                    }
                    match decode_msg(kind, &payload[4..])? {
                        ServerMsg::Result(bytes) => outs[sub].output.extend_from_slice(&bytes),
                        ServerMsg::Done { events, output_bytes, scan, tape } => {
                            outs[sub].done = Some((events, output_bytes));
                            outs[sub].scan = scan;
                            outs[sub].tape = tape;
                            open[sub] = false;
                        }
                        ServerMsg::AbortAck => {
                            outs[sub].aborted = true;
                            open[sub] = false;
                        }
                        ServerMsg::Error { code, message } => {
                            outs[sub].error = Some((code, message));
                            open[sub] = false;
                        }
                        ServerMsg::Stalled { .. }
                        | ServerMsg::Resumed
                        | ServerMsg::Stats { .. }
                        | ServerMsg::Snapshotted { .. } => {
                            return Err(bad("tagged flow-control frame"))
                        }
                    }
                }
                _ => return Err(bad("client-to-server frame from server")),
            }
        }
        Ok(outs)
    }

    /// Open every id as one shared run, stream `doc` once, and collect the
    /// per-subscriber outcomes.
    pub fn run_document_shared<I: AsRef<str>>(
        &mut self,
        ids: &[I],
        doc: &[u8],
        chunk_size: usize,
    ) -> io::Result<Vec<Outcome>> {
        self.open_many(ids)?;
        for chunk in doc.chunks(chunk_size.max(1)) {
            self.chunk(chunk)?;
        }
        self.finish()?;
        self.collect_shared(ids.len())
    }

    /// The underlying stream (for tests that need raw socket control).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Is this `ERROR` payload connection-level (untagged)? A tagged payload
/// starts with a valid in-range 4-byte subscriber index followed by a known
/// error-code byte; an untagged one starts with the code byte itself (1-4,
/// never 0 — the high byte of any real subscriber index).
fn untagged_error(payload: &[u8], subs: usize) -> bool {
    let tagged = payload.len() >= 5
        && (u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) as usize) < subs
        && ErrorCode::from_byte(payload[4]).is_some();
    !tagged
}

fn decode_msg(kind: FrameKind, payload: &[u8]) -> io::Result<ServerMsg> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    Ok(match kind {
        FrameKind::Result => ServerMsg::Result(payload.to_vec()),
        FrameKind::Done => match payload.first() {
            // The current 58-byte payload (scanner + tape telemetry), the
            // pre-tape 34-byte one, and the pre-telemetry 17-byte one all
            // decode: a new client can talk to an old server.
            Some(0) if matches!(payload.len(), 17 | 34 | 58) => ServerMsg::Done {
                events: u64::from_be_bytes(payload[1..9].try_into().expect("8 bytes")),
                output_bytes: u64::from_be_bytes(payload[9..17].try_into().expect("8 bytes")),
                scan: if payload.len() >= 34 {
                    Some(ScanTelemetry {
                        backend: Backend::from_code(payload[17])
                            .ok_or_else(|| bad("unknown scanner backend code in DONE"))?,
                        fast_path_bytes: u64::from_be_bytes(
                            payload[18..26].try_into().expect("8 bytes"),
                        ),
                        general_path_bytes: u64::from_be_bytes(
                            payload[26..34].try_into().expect("8 bytes"),
                        ),
                    })
                } else {
                    None
                },
                tape: if payload.len() >= 58 {
                    Some(TapeTelemetry {
                        batches: u64::from_be_bytes(payload[34..42].try_into().expect("8 bytes")),
                        events: u64::from_be_bytes(payload[42..50].try_into().expect("8 bytes")),
                        fast_forwarded: u64::from_be_bytes(
                            payload[50..58].try_into().expect("8 bytes"),
                        ),
                        ..TapeTelemetry::default()
                    })
                } else {
                    None
                },
            },
            Some(1) => ServerMsg::AbortAck,
            _ => return Err(bad("malformed DONE payload")),
        },
        FrameKind::Stalled => ServerMsg::Stalled { reason: StallReason::from_payload(payload) },
        FrameKind::Resumed => ServerMsg::Resumed,
        FrameKind::StatsReply => {
            ServerMsg::Stats { text: String::from_utf8_lossy(payload).into_owned() }
        }
        FrameKind::Error => {
            let (code, message) = payload.split_first().ok_or_else(|| bad("empty ERROR"))?;
            ServerMsg::Error {
                code: ErrorCode::from_byte(*code),
                message: String::from_utf8_lossy(message).into_owned(),
            }
        }
        FrameKind::Snapshotted => {
            ServerMsg::Snapshotted { token: String::from_utf8_lossy(payload).into_owned() }
        }
        FrameKind::Open
        | FrameKind::Chunk
        | FrameKind::Finish
        | FrameKind::Abort
        | FrameKind::Snapshot
        | FrameKind::Resume
        | FrameKind::Stats => return Err(bad("client-to-server frame from server")),
    })
}

/// A valid frame header for `len` payload bytes of `kind` (testing aid).
pub fn header(kind: FrameKind, len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0] = kind.byte();
    h[1..].copy_from_slice(&len.to_be_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_decodes_current_and_legacy_payloads() {
        // Current 58-byte payload: counters + scanner + tape telemetry.
        let scan = ScanTelemetry {
            backend: Backend::Avx2,
            fast_path_bytes: 4096,
            general_path_bytes: 128,
        };
        let tape =
            TapeTelemetry { batches: 2, events: 9, fast_forwarded: 4, ..TapeTelemetry::default() };
        let payload = crate::protocol::done_finished_payload(10, 20, scan, tape);
        match decode_msg(FrameKind::Done, &payload).unwrap() {
            ServerMsg::Done { events: 10, output_bytes: 20, scan: Some(got), tape: Some(t) } => {
                assert_eq!(got.backend, Backend::Avx2);
                assert_eq!(got.fast_path_bytes, 4096);
                assert_eq!(got.general_path_bytes, 128);
                assert_eq!(t.batches, 2);
                assert_eq!(t.events, 9);
                assert_eq!(t.fast_forwarded, 4);
            }
            other => panic!("{other:?}"),
        }

        // Pre-tape 34-byte payload still decodes, with tape absent.
        match decode_msg(FrameKind::Done, &payload[..34]).unwrap() {
            ServerMsg::Done { events: 10, output_bytes: 20, scan: Some(_), tape: None } => {}
            other => panic!("{other:?}"),
        }

        // Pre-telemetry 17-byte payload still decodes, with scan absent.
        match decode_msg(FrameKind::Done, &payload[..17]).unwrap() {
            ServerMsg::Done { events: 10, output_bytes: 20, scan: None, tape: None } => {}
            other => panic!("{other:?}"),
        }

        // An unknown backend code is malformed, not silently mislabeled.
        let mut bad_code = payload;
        bad_code[17] = 0xFF;
        assert!(decode_msg(FrameKind::Done, &bad_code).is_err());

        // Any other length is malformed.
        assert!(decode_msg(FrameKind::Done, &payload[..20]).is_err());
    }
}
