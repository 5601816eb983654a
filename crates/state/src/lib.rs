//! Versioned binary encoding for resumable session state.
//!
//! A FluX `Session` is an owned, borrow-free value (the PR 3 sans-IO
//! refactor made every piece of pump state plan-index-based), so its
//! complete resumable state can leave the process: this crate defines the
//! byte format and the primitive codec the `flux-xml`, `flux-engine` and
//! facade layers use to write and read it. Three consumers build on the
//! encoding: live cross-shard migration, suspend-to-disk for idle
//! sessions, and serve-level session handoff across server restarts.
//!
//! # Format
//!
//! A snapshot is an *envelope*:
//!
//! ```text
//! "FLXS"                magic (4 bytes)
//! version               u8 (currently 1)
//! section-count         varint
//! sections              section-count × (id u8, len varint, payload)
//! ```
//!
//! Section payloads are sequences of primitives: LEB128 varints for all
//! integers, length-prefixed byte strings, one-byte booleans and option
//! tags. Everything is written in a deterministic order (no hash-map
//! iteration ever reaches the wire), so the same state always produces the
//! same bytes — which is what lets a committed golden fixture pin format
//! stability in CI.
//!
//! Unknown trailing sections are skipped on read: a version-1 reader stays
//! compatible with version-1 writers that append new optional sections.
//! Anything that would change the meaning of existing sections must bump
//! [`VERSION`].
//!
//! # The FANOUT payload
//!
//! A shared session runs one pump per *plan class* (the subscribers with
//! an identical plan), so the payload is per-subscriber in shape and
//! per-class in content:
//!
//! ```text
//! slot-count            varint, = subscriptions of the plan
//! slots                 slot-count × one of, in subscription order:
//!                         0            live; its class is being fed;  + PUMP payload
//!                         1 parked-at  live; its class is parked;     + PUMP payload
//!                         2 message    failed (engine or sink error text)
//!                         3            detached (aborted, sink handed back)
//!                         4            live; served by the pump another slot
//!                                      of its class carries
//! feed list             count, then one subscription index per fed class
//! wake buckets          count × (count, subscription indices), by wake depth
//! depth, events         varints
//! ```
//!
//! Tags 0 and 1 appear in the slot of a class's *first live member*; the
//! other live members of the class write tag 4. Feed list and wake buckets
//! name a class by the subscription index of its first member. A set
//! without duplicate plans therefore never writes tag 4 and encodes
//! byte-for-byte as it did when every subscriber ran its own pump (the
//! golden `shared_v1.fsnap` pins that).
//!
//! Payloads written before plan classes existed, for a set *with*
//! duplicates, carry tag 0/1 and a pump in every live slot and list every
//! subscriber in the feed list. Identical plans over identical events are
//! in identical states, so the reader keeps the first pump of each class,
//! decodes and drops the rest (a pre-granted restore hands their share of
//! the reservation back to the hook), and folds the feed list to classes.
//! Inconsistent payloads — tag 4 in a class nobody carries, an index out of
//! range, a class parked later than `events` — fail with
//! [`StateError::Corrupt`].

use std::fmt;

/// Envelope magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"FLXS";

/// Current envelope version.
pub const VERSION: u8 = 1;

/// Well-known section ids of the session envelope. Kept here (rather than
/// in the facade) so every layer agrees and the golden-fixture test can
/// name them.
pub mod section {
    /// Snapshot kind, plan fingerprint, symbol-table fingerprint.
    pub const META: u8 = 1;
    /// Incremental reader: unconsumed window, open-element stack, offset.
    pub const READER: u8 = 2;
    /// Single-subscriber pump (scope stack, captures, observers, …).
    pub const PUMP: u8 = 3;
    /// Shared fan-out driver: M subscriber slots, one pump per plan class,
    /// wake buckets — layout in the [crate docs](crate#the-fanout-payload).
    pub const FANOUT: u8 = 4;
    /// Aggregate budget charges (validated against the per-pump charges).
    pub const BUDGET: u8 = 5;
}

/// META kind byte: a single-subscriber session snapshot (PUMP section).
pub const KIND_SESSION: u8 = 0;

/// META kind byte: a shared fan-out session snapshot (FANOUT section).
pub const KIND_SHARED: u8 = 1;

/// Read the kind byte out of a snapshot envelope without restoring it —
/// the dispatch a server needs before it knows which plan to rebuild.
pub fn snapshot_kind(bytes: &[u8]) -> Result<u8, StateError> {
    let sections = Sections::parse(bytes)?;
    sections.require(section::META)?.get_u8()
}

/// Peek the aggregate budget charges the snapshotted run held against its
/// shared [`BudgetHook`](../flux_engine) when the snapshot was taken (the
/// envelope's BUDGET section), without decoding any execution state. A
/// runtime that wants a refusal-free restore reserves exactly this amount
/// through its hook first, then restores pre-granted.
pub fn snapshot_charges(bytes: &[u8]) -> Result<usize, StateError> {
    let sections = Sections::parse(bytes)?;
    sections.require(section::BUDGET)?.get_usize()
}

/// Why a snapshot could not be produced or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateError {
    /// The byte stream ended inside a value.
    Truncated,
    /// The envelope does not start with [`MAGIC`].
    BadMagic,
    /// The envelope version is newer than this build understands.
    UnsupportedVersion(u8),
    /// A structurally impossible value (bad tag, inconsistent lengths, …).
    Corrupt(&'static str),
    /// A required section is missing from the envelope.
    MissingSection(u8),
    /// The snapshot was taken against a different compiled plan (or an
    /// incompatible symbol table): restoring would misinterpret every
    /// plan index in the state.
    PlanMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the plan offered for restore.
        found: u64,
    },
    /// The session is not at a quiescent point (mid-replay, failed, or
    /// holding a deferred borrow) — snapshot only between `feed` calls.
    NotQuiescent(&'static str),
    /// Restoring would re-charge `requested` bytes to the shared budget
    /// hook, and the hook denied the grant — the stalled-restore refusal.
    /// Retry once headroom frees up.
    BudgetDenied {
        /// Bytes the restore tried to re-grant.
        requested: usize,
    },
    /// Reading or writing a spill file failed.
    Io(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated => write!(f, "snapshot truncated"),
            StateError::BadMagic => write!(f, "not a FluX snapshot (bad magic)"),
            StateError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads ≤ {VERSION})")
            }
            StateError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            StateError::MissingSection(id) => write!(f, "snapshot missing section {id}"),
            StateError::PlanMismatch { expected, found } => write!(
                f,
                "snapshot was taken against a different plan \
                 (fingerprint {expected:#018x}, offered {found:#018x})"
            ),
            StateError::NotQuiescent(what) => {
                write!(f, "session not at a quiescent point: {what}")
            }
            StateError::BudgetDenied { requested } => write!(
                f,
                "restore refused: re-granting {requested} bytes exceeds the budget headroom \
                 (retry when the pool drains)"
            ),
            StateError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Streaming FNV-1a (64-bit): the fingerprint hash used for plan and
/// symbol-table identity checks. Deterministic across platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an integer (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Primitive encoder: appends values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Nothing written yet?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 unsigned varint (all integers in the format use this).
    pub fn put_uint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// A `usize` as a varint.
    pub fn put_usize(&mut self, v: usize) {
        self.put_uint(v as u64);
    }

    /// A boolean as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Option tag (`0` = None, `1` = Some); the caller writes the payload
    /// after a `true` return.
    pub fn put_opt(&mut self, present: bool) -> bool {
        self.put_bool(present);
        present
    }
}

/// Primitive decoder over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Everything consumed?
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        let b = *self.buf.get(self.pos).ok_or(StateError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128 unsigned varint.
    pub fn get_uint(&mut self) -> Result<u64, StateError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(StateError::Corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint checked to fit `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.get_uint()?).map_err(|_| StateError::Corrupt("length exceeds usize"))
    }

    /// A varint additionally bounded by the bytes remaining — the right
    /// check for any count that prefixes per-item payloads of ≥ 1 byte, so
    /// corrupt lengths fail fast instead of provoking huge allocations.
    pub fn get_count(&mut self) -> Result<usize, StateError> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(StateError::Corrupt("count exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// One byte as a boolean; anything but 0/1 is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, StateError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Corrupt("boolean byte not 0/1")),
        }
    }

    /// Length-prefixed byte string (borrowed).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.get_usize()?;
        let end = self.pos.checked_add(len).ok_or(StateError::Truncated)?;
        if end > self.buf.len() {
            return Err(StateError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Length-prefixed UTF-8 string (borrowed).
    pub fn get_str(&mut self) -> Result<&'a str, StateError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| StateError::Corrupt("string is not UTF-8"))
    }

    /// Option tag; on `true` the caller reads the payload.
    pub fn get_opt(&mut self) -> Result<bool, StateError> {
        self.get_bool()
    }
}

/// Envelope writer: collects sections, then serializes
/// `magic · version · count · (id, len, payload)*`.
#[derive(Debug, Default)]
pub struct Envelope {
    sections: Vec<(u8, Vec<u8>)>,
}

impl Envelope {
    /// An empty envelope.
    pub fn new() -> Envelope {
        Envelope::default()
    }

    /// Append a section (order is preserved on the wire).
    pub fn add(&mut self, id: u8, payload: Enc) {
        self.sections.push((id, payload.into_bytes()));
    }

    /// Serialize the envelope.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut e = Enc::new();
        e.buf.extend_from_slice(&MAGIC);
        e.put_u8(VERSION);
        e.put_usize(self.sections.len());
        for (id, payload) in &self.sections {
            e.put_u8(*id);
            e.put_bytes(payload);
        }
        e.into_bytes()
    }
}

/// A parsed envelope: the section table of a snapshot.
#[derive(Debug)]
pub struct Sections<'a> {
    /// Envelope version (≤ [`VERSION`]).
    pub version: u8,
    table: Vec<(u8, &'a [u8])>,
}

impl<'a> Sections<'a> {
    /// Parse an envelope, checking magic and version.
    pub fn parse(bytes: &'a [u8]) -> Result<Sections<'a>, StateError> {
        let mut d = Dec::new(bytes);
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = d.get_u8().map_err(|_| StateError::BadMagic)?;
        }
        if magic != MAGIC {
            return Err(StateError::BadMagic);
        }
        let version = d.get_u8()?;
        if version > VERSION {
            return Err(StateError::UnsupportedVersion(version));
        }
        let n = d.get_count()?;
        let mut table = Vec::with_capacity(n);
        for _ in 0..n {
            let id = d.get_u8()?;
            table.push((id, d.get_bytes()?));
        }
        Ok(Sections { version, table })
    }

    /// A section by id, if present.
    pub fn get(&self, id: u8) -> Option<Dec<'a>> {
        self.table.iter().find(|(i, _)| *i == id).map(|(_, b)| Dec::new(b))
    }

    /// A section that must be present.
    pub fn require(&self, id: u8) -> Result<Dec<'a>, StateError> {
        self.get(id).ok_or(StateError::MissingSection(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values =
            [0u64, 1, 127, 128, 129, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut e = Enc::new();
        for &v in &values {
            e.put_uint(v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for &v in &values {
            assert_eq!(d.get_uint().unwrap(), v);
        }
        assert!(d.is_done());
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_bool(false);
        e.put_str("héllo");
        e.put_bytes(b"");
        e.put_usize(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_bytes().unwrap(), b"");
        assert_eq!(d.get_usize().unwrap(), 42);
        assert!(d.is_done());
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Enc::new();
        e.put_str("abcdef");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.get_str().is_err(), "cut at {cut} must not parse");
        }
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut d = Dec::new(&[2]);
        assert!(matches!(d.get_bool(), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes: > 64 bits of payload.
        let bytes = [0xffu8; 11];
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.get_uint(), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn envelope_roundtrip_and_unknown_sections() {
        let mut env = Envelope::new();
        let mut a = Enc::new();
        a.put_str("alpha");
        env.add(1, a);
        let mut b = Enc::new();
        b.put_uint(99);
        env.add(250, b); // an id this build knows nothing about
        let bytes = env.into_bytes();

        assert_eq!(&bytes[..4], b"FLXS");
        assert_eq!(bytes[4], VERSION);

        let s = Sections::parse(&bytes).unwrap();
        assert_eq!(s.get(1).unwrap().get_str().unwrap(), "alpha");
        assert!(s.get(7).is_none());
        assert!(matches!(s.require(7), Err(StateError::MissingSection(7))));
        // Unknown sections are carried, not rejected.
        assert_eq!(s.get(250).unwrap().get_uint().unwrap(), 99);
    }

    #[test]
    fn envelope_rejects_garbage() {
        assert!(matches!(Sections::parse(b""), Err(StateError::BadMagic)));
        assert!(matches!(Sections::parse(b"NOPE\x01\x00"), Err(StateError::BadMagic)));
        let mut future = Envelope::new().into_bytes();
        future[4] = VERSION + 1;
        assert!(matches!(Sections::parse(&future), Err(StateError::UnsupportedVersion(_))));
    }

    #[test]
    fn count_guard_rejects_huge_lengths() {
        let mut e = Enc::new();
        e.put_uint(1 << 40);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.get_count(), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn fnv_is_stable() {
        // Check against a direct FNV-1a computation: the fingerprint
        // scheme must never drift silently.
        let reference = b"flux\x04\x00\x00\x00\x00\x00\x00\x00"
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |acc, &b| {
                (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let mut h = Fnv64::new();
        h.write(b"flux");
        h.write_u64(4);
        assert_eq!(h.finish(), reference);
        let mut h3 = Fnv64::new();
        h3.write(b"flux");
        h3.write_u64(5);
        assert_ne!(h.finish(), h3.finish());
    }
}
