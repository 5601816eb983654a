//! The flux-serve wire protocol: length-prefixed frames over a byte
//! stream.
//!
//! Every frame is `[1-byte kind][4-byte big-endian payload length][payload]`
//! — trivially incremental to encode and decode, self-describing enough for
//! a client in any language, and free of per-byte escaping so document
//! chunks travel verbatim.
//!
//! | kind | dir | name      | payload |
//! |------|-----|-----------|---------|
//! | 0x01 | c→s | `OPEN`    | UTF-8 query id (resolved against the server's [`QueryRegistry`](flux::QueryRegistry)) |
//! | 0x02 | c→s | `CHUNK`   | next bytes of the XML document (any split) |
//! | 0x03 | c→s | `FINISH`  | empty — end of document, complete the run |
//! | 0x04 | c→s | `ABORT`   | empty — drop the run mid-stream |
//! | 0x05 | c→s | `SNAPSHOT`| empty — suspend the run to a server-side snapshot and detach |
//! | 0x06 | c→s | `RESUME`  | UTF-8 snapshot token — re-attach a suspended run |
//! | 0x07 | c→s | `STATS`   | empty — scrape the server's metrics registry |
//! | 0x81 | s→c | `RESULT`  | next bytes of the query output (any split) |
//! | 0x82 | s→c | `DONE`    | 1 status byte (0 finished / 1 aborted); on 0: two u64-BE — events, output bytes — then scanner telemetry: 1 backend-code byte ([`Backend::code`](flux_xml::Backend::code)) + two u64-BE — fast-path bytes, general-path bytes — then tape telemetry: three u64-BE — batches drained, tape-delivered events, fast-forwarded events (all 0 under per-event delivery). Decoders accept the pre-tape 34-byte body for compatibility. |
//! | 0x83 | s→c | `STALLED` | 1 [`StallReason`] byte — the session paused on a shared resource; ease off. Pre-reason servers send an empty payload, which decodes as [`StallReason::Unknown`]. |
//! | 0x84 | s→c | `RESUMED` | empty — the session is executing again |
//! | 0x85 | s→c | `ERROR`   | 1 [`ErrorCode`] byte + UTF-8 message |
//! | 0x86 | s→c | `SNAPSHOTTED` | UTF-8 snapshot token |
//! | 0x87 | s→c | `STATS_REPLY` | Prometheus text exposition of the aggregated metrics snapshot; empty when the server runs without a metrics registry |
//!
//! ## Suspend / resume
//!
//! A client mid-run may send `SNAPSHOT`: the server serializes the
//! session's complete resumable state (`flux-state` bytes plus the query
//! ids) under its snapshot directory, flushes the output produced so far,
//! and answers `SNAPSHOTTED` with an opaque token. The run is then
//! *detached* — the connection returns to idle and may close. Any client
//! presenting the token in a `RESUME` frame later — on a new connection,
//! even to a freshly restarted server process over the same registry —
//! continues the run exactly where it left off: the concatenation of
//! `RESULT` bytes before the snapshot and after the resume is
//! byte-identical to an uninterrupted run. Tokens are single-use; the
//! snapshot file is consumed by a successful `RESUME`.
//!
//! ## Shared fan-out mode
//!
//! A client may send *several* `OPEN` frames before its first `CHUNK`:
//! the server collects the query ids and seals the set when document bytes
//! start flowing. One `OPEN` is the classic single-query run above. Two or
//! more compile into one shared plan
//! ([`SubscriptionSet`](flux::SubscriptionSet)) executed in a **single
//! pass** over the document — and the per-run frames demultiplex: in
//! shared mode every `RESULT`, `DONE` and `ERROR` payload is prefixed with
//! a 4-byte big-endian subscriber index (the position of the `OPEN` that
//! created it), each subscriber getting its own result stream, terminal
//! status and counters. `OPEN`s that name the same query are still
//! separate subscribers on the wire, but the server evaluates, buffers and
//! budget-charges their plan once and copies the output to each.
//! `STALLED`/`RESUMED` stay connection-level — the
//! shared parse pauses as a whole. `ABORT` before the terminal frames
//! drops the whole run and is acknowledged with one tagged aborted-`DONE`
//! per subscriber.
//!
//! [`FrameDecoder`] mirrors the incremental reader's `FeedSource` style:
//! bytes arrive via [`FrameDecoder::feed`] with arbitrary boundaries,
//! [`FrameDecoder::poll`] yields complete frames (borrowing the payload
//! from the window — committed on the *next* poll, so no copy) or
//! [`DecodePoll::NeedMoreData`], and the committed prefix is reclaimed on
//! the next feed so a long-lived connection retains only the tail of one
//! unfinished frame. Malformed input — an unknown kind byte, or a declared
//! payload length over the decoder's cap — is a [`FrameError`], detected
//! from the 5 header bytes alone (an oversized length never waits for, or
//! buffers, its payload).

use std::fmt;

use flux_xml::{ScanTelemetry, TapeTelemetry};

/// Bytes of a frame header: kind + u32 payload length.
pub const HEADER_LEN: usize = 5;

/// Frame type tags. Values `< 0x80` travel client→server, `>= 0x80`
/// server→client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client→server: start a run of the registered query named in the
    /// payload.
    Open,
    /// Client→server: the next chunk of the document.
    Chunk,
    /// Client→server: end of document.
    Finish,
    /// Client→server: drop the run mid-stream.
    Abort,
    /// Client→server: suspend the run to a server-side snapshot, detach,
    /// and hand back a resume token.
    Snapshot,
    /// Client→server: re-attach a suspended run by its snapshot token.
    Resume,
    /// Client→server: scrape the server's metrics registry.
    Stats,
    /// Server→client: the next chunk of query output.
    Result,
    /// Server→client: the run is over (status byte: 0 finished, 1
    /// aborted).
    Done,
    /// Server→client: the session paused on a shared resource; the
    /// payload is one [`StallReason`] byte (empty from pre-reason
    /// servers).
    Stalled,
    /// Server→client: the stalled session resumed.
    Resumed,
    /// Server→client: structured failure ([`ErrorCode`] + message).
    Error,
    /// Server→client: the run was suspended; the payload is the resume
    /// token.
    Snapshotted,
    /// Server→client: the metrics scrape, as Prometheus text.
    StatsReply,
}

impl FrameKind {
    /// Wire tag of this kind.
    pub fn byte(self) -> u8 {
        match self {
            FrameKind::Open => 0x01,
            FrameKind::Chunk => 0x02,
            FrameKind::Finish => 0x03,
            FrameKind::Abort => 0x04,
            FrameKind::Snapshot => 0x05,
            FrameKind::Resume => 0x06,
            FrameKind::Stats => 0x07,
            FrameKind::Result => 0x81,
            FrameKind::Done => 0x82,
            FrameKind::Stalled => 0x83,
            FrameKind::Resumed => 0x84,
            FrameKind::Error => 0x85,
            FrameKind::Snapshotted => 0x86,
            FrameKind::StatsReply => 0x87,
        }
    }

    /// Parse a wire tag.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Open,
            0x02 => FrameKind::Chunk,
            0x03 => FrameKind::Finish,
            0x04 => FrameKind::Abort,
            0x05 => FrameKind::Snapshot,
            0x06 => FrameKind::Resume,
            0x07 => FrameKind::Stats,
            0x81 => FrameKind::Result,
            0x82 => FrameKind::Done,
            0x83 => FrameKind::Stalled,
            0x84 => FrameKind::Resumed,
            0x85 => FrameKind::Error,
            0x86 => FrameKind::Snapshotted,
            0x87 => FrameKind::StatsReply,
            _ => return None,
        })
    }
}

/// Why a `STALLED` frame was sent — its one-byte payload.
///
/// [`StallReason::Unknown`] never travels: it is what a *decoder* reports
/// for the zero-length payload a pre-reason server sends, so new clients
/// interoperate with old servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The shared buffer budget refused new growth; headroom returns when
    /// other sessions release buffers.
    Budget,
    /// The admission controller's re-entry reserve refused to wake a
    /// parked (suspended/migrated) session back in.
    AdmissionReserve,
    /// The peer predates reason codes (empty payload).
    Unknown,
}

impl StallReason {
    /// Wire value ([`StallReason::Unknown`] has none).
    pub fn byte(self) -> u8 {
        match self {
            StallReason::Budget => 1,
            StallReason::AdmissionReserve => 2,
            StallReason::Unknown => 0,
        }
    }

    /// Decode a `STALLED` payload: the first byte when present and known,
    /// [`StallReason::Unknown`] for the legacy empty payload or an
    /// unrecognized value.
    pub fn from_payload(payload: &[u8]) -> StallReason {
        match payload.first() {
            Some(1) => StallReason::Budget,
            Some(2) => StallReason::AdmissionReserve,
            _ => StallReason::Unknown,
        }
    }
}

/// First payload byte of an `ERROR` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or oversized frame; the server closes the connection.
    Protocol,
    /// `OPEN` named an id the server's registry does not hold; the
    /// connection stays open.
    UnknownQuery,
    /// The run failed (XML syntax, schema violation, budget denial …); the
    /// connection stays open for the next `OPEN`.
    Engine,
    /// A frame arrived in a state that cannot accept it (e.g. `CHUNK`
    /// before `OPEN`, or a second `OPEN` mid-run); the server closes the
    /// connection.
    State,
}

impl ErrorCode {
    /// Wire value.
    pub fn byte(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::UnknownQuery => 2,
            ErrorCode::Engine => 3,
            ErrorCode::State => 4,
        }
    }

    /// Parse a wire value.
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownQuery,
            3 => ErrorCode::Engine,
            4 => ErrorCode::State,
            _ => return None,
        })
    }
}

/// What [`FrameDecoder::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodePoll<'a> {
    /// A complete frame. The payload borrows the decoder's window and is
    /// committed (reclaimed) on the next `poll`/`feed`.
    Frame {
        /// The frame type.
        kind: FrameKind,
        /// The frame payload.
        payload: &'a [u8],
    },
    /// The fed bytes end mid-frame: feed more and poll again.
    NeedMoreData,
}

/// A protocol violation in the inbound byte stream. Fatal for the
/// connection: framing is lost, so the peer gets a structured
/// [`ErrorCode::Protocol`] and the stream is closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The kind byte is not a known frame tag.
    BadKind(u8),
    /// The declared payload length exceeds the decoder's cap.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The decoder's configured maximum.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadKind(b) => write!(f, "unknown frame kind byte 0x{b:02x}"),
            FrameError::Oversized { len, max } => {
                write!(f, "declared payload of {len} bytes exceeds the {max}-byte frame cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental, resumable frame decoder — see the [module docs](self).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes of the last returned frame, committed on the next poll so the
    /// returned payload can borrow the window.
    defer: usize,
    max_payload: usize,
}

impl FrameDecoder {
    /// A decoder refusing frames with payloads over `max_payload` bytes.
    pub fn new(max_payload: usize) -> FrameDecoder {
        FrameDecoder { buf: Vec::new(), pos: 0, defer: 0, max_payload }
    }

    /// Append the next bytes off the stream (any boundary).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.commit();
        // Reclaim the consumed prefix before growing, like `FeedSource`: a
        // long-lived connection retains only one unfinished frame's tail.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame out of the fed bytes.
    pub fn poll(&mut self) -> Result<DecodePoll<'_>, FrameError> {
        self.commit();
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(DecodePoll::NeedMoreData);
        }
        let kind = FrameKind::from_byte(avail[0]).ok_or(FrameError::BadKind(avail[0]))?;
        let len = u32::from_be_bytes(avail[1..HEADER_LEN].try_into().expect("4 bytes")) as usize;
        if len > self.max_payload {
            // Checked from the header alone: an oversized declaration is
            // refused before a single payload byte is buffered.
            return Err(FrameError::Oversized { len, max: self.max_payload });
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(DecodePoll::NeedMoreData);
        }
        self.defer = HEADER_LEN + len;
        Ok(DecodePoll::Frame { kind, payload: &avail[HEADER_LEN..HEADER_LEN + len] })
    }

    /// Bytes fed but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos - self.defer
    }

    fn commit(&mut self) {
        self.pos += self.defer;
        self.defer = 0;
    }
}

/// Append one encoded frame to `out`.
pub fn encode_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payloads fit in u32");
    out.push(kind.byte());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Append an `ERROR` frame.
pub fn encode_error(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    let mut payload = Vec::with_capacity(1 + message.len());
    payload.push(code.byte());
    payload.extend_from_slice(message.as_bytes());
    encode_frame(out, FrameKind::Error, &payload);
}

/// The payload of a finished-run `DONE` frame: status 0, two u64-BE run
/// counters, the scanner telemetry (backend code byte + two u64-BE
/// per-path byte counters), then the delivery-tape telemetry (three
/// u64-BE: batches, tape-delivered events, fast-forwarded events — all 0
/// under per-event delivery). Shared fan-out prefixes this with a
/// subscriber tag, so the body is built separately from the frame.
pub fn done_finished_payload(
    events: u64,
    output_bytes: u64,
    scan: ScanTelemetry,
    tape: TapeTelemetry,
) -> [u8; 58] {
    let mut payload = [0u8; 58];
    payload[1..9].copy_from_slice(&events.to_be_bytes());
    payload[9..17].copy_from_slice(&output_bytes.to_be_bytes());
    payload[17] = scan.backend.code();
    payload[18..26].copy_from_slice(&scan.fast_path_bytes.to_be_bytes());
    payload[26..34].copy_from_slice(&scan.general_path_bytes.to_be_bytes());
    payload[34..42].copy_from_slice(&tape.batches.to_be_bytes());
    payload[42..50].copy_from_slice(&tape.events.to_be_bytes());
    payload[50..58].copy_from_slice(&tape.fast_forwarded.to_be_bytes());
    payload
}

/// Append a `DONE` frame for a completed run.
pub fn encode_done_finished(
    out: &mut Vec<u8>,
    events: u64,
    output_bytes: u64,
    scan: ScanTelemetry,
    tape: TapeTelemetry,
) {
    encode_frame(out, FrameKind::Done, &done_finished_payload(events, output_bytes, scan, tape));
}

/// Append a `DONE` frame acknowledging an abort.
pub fn encode_done_aborted(out: &mut Vec<u8>) {
    encode_frame(out, FrameKind::Done, &[1]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(dec: &mut FrameDecoder) -> Vec<(FrameKind, Vec<u8>)> {
        let mut out = Vec::new();
        while let DecodePoll::Frame { kind, payload } = dec.poll().unwrap() {
            out.push((kind, payload.to_vec()));
        }
        out
    }

    #[test]
    fn roundtrip_at_every_split_offset() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, FrameKind::Open, b"q1");
        encode_frame(&mut wire, FrameKind::Chunk, b"<bib><book>");
        encode_frame(&mut wire, FrameKind::Chunk, b"");
        encode_frame(&mut wire, FrameKind::Finish, b"");
        let expect = vec![
            (FrameKind::Open, b"q1".to_vec()),
            (FrameKind::Chunk, b"<bib><book>".to_vec()),
            (FrameKind::Chunk, Vec::new()),
            (FrameKind::Finish, Vec::new()),
        ];
        for split in 0..=wire.len() {
            let mut dec = FrameDecoder::new(1 << 10);
            let mut got = Vec::new();
            dec.feed(&wire[..split]);
            got.extend(frames(&mut dec));
            dec.feed(&wire[split..]);
            got.extend(frames(&mut dec));
            assert_eq!(got, expect, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_retains_only_the_open_frame_tail() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, FrameKind::Chunk, &[7u8; 100]);
        encode_frame(&mut wire, FrameKind::Chunk, &[9u8; 100]);
        let mut dec = FrameDecoder::new(1 << 10);
        let mut seen = 0;
        for &b in &wire {
            dec.feed(std::slice::from_ref(&b));
            while let DecodePoll::Frame { kind, payload } = dec.poll().unwrap() {
                assert_eq!(kind, FrameKind::Chunk);
                assert_eq!(payload.len(), 100);
                seen += 1;
            }
            assert!(dec.buffered() <= HEADER_LEN + 100);
        }
        assert_eq!(seen, 2);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn bad_kind_and_oversized_are_errors_from_the_header_alone() {
        let mut dec = FrameDecoder::new(1 << 10);
        dec.feed(&[0x7f, 0, 0, 0, 0]);
        assert_eq!(dec.poll(), Err(FrameError::BadKind(0x7f)));

        let mut dec = FrameDecoder::new(16);
        // Header declares 1 GiB; not a single payload byte follows.
        let mut hdr = vec![FrameKind::Chunk.byte()];
        hdr.extend_from_slice(&(1u32 << 30).to_be_bytes());
        dec.feed(&hdr);
        assert!(
            matches!(dec.poll(), Err(FrameError::Oversized { len, max: 16 }) if len == 1 << 30)
        );
    }

    #[test]
    fn done_frames_carry_status_and_stats() {
        let scan = ScanTelemetry {
            backend: flux_xml::Backend::Sse2,
            fast_path_bytes: 900,
            general_path_bytes: 100,
        };
        let tape = TapeTelemetry {
            batches: 3,
            events: 40,
            fast_forwarded: 11,
            ..TapeTelemetry::default()
        };
        let mut out = Vec::new();
        encode_done_finished(&mut out, 42, 7, scan, tape);
        let mut dec = FrameDecoder::new(64);
        dec.feed(&out);
        match dec.poll().unwrap() {
            DecodePoll::Frame { kind: FrameKind::Done, payload } => {
                assert_eq!(payload.len(), 58);
                assert_eq!(payload[0], 0);
                assert_eq!(u64::from_be_bytes(payload[1..9].try_into().unwrap()), 42);
                assert_eq!(u64::from_be_bytes(payload[9..17].try_into().unwrap()), 7);
                assert_eq!(payload[17], flux_xml::Backend::Sse2.code());
                assert_eq!(u64::from_be_bytes(payload[18..26].try_into().unwrap()), 900);
                assert_eq!(u64::from_be_bytes(payload[26..34].try_into().unwrap()), 100);
                assert_eq!(u64::from_be_bytes(payload[34..42].try_into().unwrap()), 3);
                assert_eq!(u64::from_be_bytes(payload[42..50].try_into().unwrap()), 40);
                assert_eq!(u64::from_be_bytes(payload[50..58].try_into().unwrap()), 11);
            }
            other => panic!("{other:?}"),
        }
        let mut out = Vec::new();
        encode_done_aborted(&mut out);
        let mut dec = FrameDecoder::new(64);
        dec.feed(&out);
        assert!(matches!(
            dec.poll().unwrap(),
            DecodePoll::Frame { kind: FrameKind::Done, payload: &[1] }
        ));
    }

    #[test]
    fn error_frames_are_structured() {
        let mut out = Vec::new();
        encode_error(&mut out, ErrorCode::UnknownQuery, "no such query: zz");
        let mut dec = FrameDecoder::new(1 << 10);
        dec.feed(&out);
        match dec.poll().unwrap() {
            DecodePoll::Frame { kind: FrameKind::Error, payload } => {
                assert_eq!(ErrorCode::from_byte(payload[0]), Some(ErrorCode::UnknownQuery));
                assert_eq!(&payload[1..], b"no such query: zz");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_kind_roundtrips_its_tag() {
        for kind in [
            FrameKind::Open,
            FrameKind::Chunk,
            FrameKind::Finish,
            FrameKind::Abort,
            FrameKind::Snapshot,
            FrameKind::Resume,
            FrameKind::Stats,
            FrameKind::Result,
            FrameKind::Done,
            FrameKind::Stalled,
            FrameKind::Resumed,
            FrameKind::Error,
            FrameKind::Snapshotted,
            FrameKind::StatsReply,
        ] {
            assert_eq!(FrameKind::from_byte(kind.byte()), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0x00), None);
    }

    #[test]
    fn stall_reasons_roundtrip_and_empty_payload_is_unknown() {
        for reason in [StallReason::Budget, StallReason::AdmissionReserve] {
            assert_eq!(StallReason::from_payload(&[reason.byte()]), reason);
        }
        // The legacy empty payload and unrecognized bytes both decode —
        // a reason-aware client never fails on an old server.
        assert_eq!(StallReason::from_payload(&[]), StallReason::Unknown);
        assert_eq!(StallReason::from_payload(&[0xEE]), StallReason::Unknown);
    }
}
