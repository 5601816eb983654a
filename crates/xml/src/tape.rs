//! Batched event tape: amortizing the per-event pull-API cost.
//!
//! # Architecture
//!
//! The pull API ([`poll_resolved`](crate::reader::Reader::poll_resolved))
//! pays a fixed toll per event: a checkpoint copy, the `advance`/`current`
//! slot handshake, a `Polled` match in the caller, and a virtual-ish hop
//! into the consumer. At XMark density (~14 bytes/event) that toll is the
//! dominant cost once structural classification is SIMD-cheap. The tape
//! batches it away: [`Reader::fill_tape`](crate::reader::Reader::fill_tape)
//! runs the same incremental state machine but records a whole batch of
//! fully-resolved events — interned [`NameId`]s plus payload spans — into a
//! reusable [`EventTape`], and the consumer walks the batch with a tight
//! index-advance loop. A consumer that wants to skip a subtree scans the
//! recorded open/close kinds ([`EventTape::skip_scan`]) instead of stepping
//! the parser event by event.
//!
//! # Lifecycle: anchor → batch → drain → rollback
//!
//! 1. **Anchor** — a fill begins at a quiescent reader (no deferred window
//!    borrow, no half-delivered pending events) and stamps the tape with
//!    the generation of the window it reads: the caller's chunk during an
//!    in-place feed ([`Reader::feed_in_place`](crate::reader::Reader::feed_in_place)),
//!    the reader's own buffer otherwise.
//! 2. **Batch** — lean constructs (plain tags, clean text) are recorded
//!    by an in-window *burst*: a local cursor walks the structural index
//!    without consuming, and the reader's position, offset and counters
//!    are committed in bulk when the burst exits — at the last event
//!    boundary, so anything non-lean falls back to the per-event
//!    checkpoint/rollback machinery with nothing to undo. Scanner-verified
//!    ASCII payloads — clean text runs and lean tag names — are recorded
//!    as *window spans* (origin + length into that window) and never
//!    copied; only the general path copies name bytes into the tape's
//!    arena. The one window change a batch can see — an in-place feed
//!    crossing from the stitched carry to the chunk itself — turns the few
//!    spans recorded so far into arena copies, so a batch never points
//!    into two windows.
//! 3. **Drain** — the consumer materializes each item back into a
//!    [`ResolvedEvent`](crate::events::ResolvedEvent) via
//!    [`InPlace::tape_event`](crate::reader::InPlace::tape_event). Window
//!    spans stay valid because the window only moves when the feed ends
//!    (or, for the owning [`Reader::feed`](crate::reader::Reader::feed), on
//!    the next one), which by contract happens after the drain (enforced
//!    by the generation stamp in debug builds).
//! 4. **Rollback** — a construct that runs out of fed bytes mid-parse is
//!    rolled back exactly as in pull mode; only the trailing partial event
//!    is discarded, everything already on the tape stands.
//!
//! # Why the tape is never serialized
//!
//! A `FLXS` snapshot is taken at *batch-drain quiescence*: the facade
//! drains every filled batch before control returns to the caller, so at
//! any snapshot point the tape is empty and the reader satisfies the same
//! invariants as in pull mode. Serializing the tape would also pin a
//! snapshot to transient window offsets. The tape is therefore a purely
//! in-memory accelerator — snapshot bytes are identical across
//! [`DeliveryMode`]s, and restoring under the opposite mode is always
//! legal.

use crate::symbols::NameId;

/// How a session delivers parser events to the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Batch events through an [`EventTape`] (the default).
    #[default]
    Tape,
    /// Pull one event at a time through `poll_resolved`.
    PerEvent,
}

impl DeliveryMode {
    /// The mode actually in effect: `FLUX_FORCE_PULL` (any non-empty
    /// value) forces [`DeliveryMode::PerEvent`] regardless of the builder
    /// setting, mirroring the `FLUX_FORCE_SWAR` scanner kill switch.
    #[inline]
    pub fn resolved(self) -> DeliveryMode {
        if force_pull() {
            DeliveryMode::PerEvent
        } else {
            self
        }
    }
}

/// Cached `FLUX_FORCE_PULL` check (the environment cannot change
/// mid-process in any way we support).
fn force_pull() -> bool {
    use std::sync::OnceLock;
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| std::env::var_os("FLUX_FORCE_PULL").is_some_and(|v| !v.is_empty()))
}

/// Delivery-layer counters, threaded through run stats like
/// `ScanTelemetry`.
///
/// Like the scan counters, these are observability, not semantics: two
/// runs that differ only in delivery mode produce equal stats, so the
/// telemetry compares as always-equal and is never serialized into
/// snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeTelemetry {
    /// Tape batches drained (0 in per-event mode).
    pub batches: u64,
    /// Events delivered via the tape.
    pub events: u64,
    /// Events fast-forwarded by in-tape skip scans instead of per-event
    /// dispatch.
    pub fast_forwarded: u64,
    /// Name resolutions answered by the `Symbols` quick table.
    pub quick_hits: u64,
    /// Name resolutions that fell through to the FNV map.
    pub quick_misses: u64,
    /// Skip-subtree pre-screens that armed a skip (no handler fired).
    pub prescreen_hits: u64,
    /// Pre-screens where some handler fired and the child was entered.
    pub prescreen_misses: u64,
}

/// Telemetry never participates in stats equality: a forced-pull run and
/// a tape run of the same document are the *same run* as far as tests and
/// snapshot compatibility are concerned.
impl PartialEq for TapeTelemetry {
    fn eq(&self, _: &TapeTelemetry) -> bool {
        true
    }
}

impl Eq for TapeTelemetry {}

/// The structural kind of one tape item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeKind {
    /// Element open; payload is the name.
    Start,
    /// Element close; payload is the name.
    End,
    /// Character data; payload is the (unescaped) text.
    Text,
}

/// One recorded event: kind, interned id, and a payload span that lives
/// either in the tape's arena or directly in the reader's window.
#[derive(Debug, Clone, Copy)]
pub struct TapeItem {
    pub(crate) kind: TapeKind,
    pub(crate) id: NameId,
    pub(crate) off: u32,
    pub(crate) len: u32,
    /// Payload lives in the reader's window, not the arena.
    pub(crate) window: bool,
}

impl TapeItem {
    /// The structural kind of this item.
    #[inline]
    pub fn kind(&self) -> TapeKind {
        self.kind
    }
}

/// Outcome of an in-tape skip scan (see [`EventTape::skip_scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipScan {
    /// The close event that ends the subtree is at index `at`; `skipped`
    /// events lie strictly inside (the close event itself is *not*
    /// counted — it is delivered normally, matching the pull-mode
    /// skip contract).
    Close { at: usize, skipped: u64 },
    /// The batch ended inside the subtree: all `skipped` remaining events
    /// were inside it, and the skip is still `depth` levels deep.
    Tail { depth: u32, skipped: u64 },
}

/// Soft batch size: small enough that items + payloads stay cache-warm
/// through the drain, large enough to amortize the per-batch handshake.
/// Skips spanning batches are handled by the `SkipScan::Tail` arm, so the
/// cap costs nothing on large skipped subtrees.
pub(crate) const TAPE_BATCH_EVENTS: usize = 1024;

/// Soft arena cap: a batch also ends once its copied payload bytes reach
/// this mark, so the arena allocated up front in [`EventTape::new`] is
/// (almost) never grown — the tape contributes zero allocations in steady
/// state and a *fixed* two at construction, which is what keeps whole-run
/// allocation counts independent of document size. A single oversized
/// payload (one giant name or non-window text run) may overshoot the cap
/// once; the grown capacity is then kept by `clear`.
pub(crate) const TAPE_ARENA_BYTES: usize = 32 * 1024;

/// A reusable batch of resolved events. See the [module docs](self) for
/// the lifecycle; constructed once per session and recycled every batch.
#[derive(Debug)]
pub struct EventTape {
    pub(crate) items: Vec<TapeItem>,
    /// Copied payload bytes (names, escaped/assembled text). Window-span
    /// items do not touch this arena.
    pub(crate) arena: String,
    /// Generation of the window this batch's spans point into; used to
    /// assert (in debug builds) that they are materialized before the
    /// window moves.
    pub(crate) epoch: u64,
}

impl Default for EventTape {
    fn default() -> EventTape {
        EventTape::new()
    }
}

impl EventTape {
    /// An empty tape with its batch capacity allocated up front.
    pub fn new() -> EventTape {
        EventTape {
            items: Vec::with_capacity(TAPE_BATCH_EVENTS),
            arena: String::with_capacity(TAPE_ARENA_BYTES),
            epoch: 0,
        }
    }

    /// Number of recorded events.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no events are recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when the batch has reached its soft capacity — either the
    /// item count or the copied-payload arena mark (`TAPE_ARENA_BYTES`,
    /// 32 KiB).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() >= TAPE_BATCH_EVENTS || self.arena.len() >= TAPE_ARENA_BYTES
    }

    /// Discard all recorded events, keeping the allocations.
    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
        self.arena.clear();
    }

    /// The item at `i` (panics when out of bounds).
    #[inline]
    pub fn item(&self, i: usize) -> TapeItem {
        self.items[i]
    }

    /// The structural kind at `i` without touching the payload.
    #[inline]
    pub fn kind(&self, i: usize) -> TapeKind {
        self.items[i].kind
    }

    /// Arena payload for a non-window item.
    #[inline]
    pub(crate) fn arena_str(&self, off: u32, len: u32) -> &str {
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Record an event whose payload is copied into the arena.
    #[inline]
    pub(crate) fn push_arena(&mut self, kind: TapeKind, id: NameId, payload: &str) {
        let off = self.arena.len();
        self.arena.push_str(payload);
        assert!(self.arena.len() <= u32::MAX as usize, "tape arena exceeds 4 GiB");
        self.items.push(TapeItem {
            kind,
            id,
            off: off as u32,
            len: payload.len() as u32,
            window: false,
        });
    }

    /// Record an event whose payload stays in the reader's window: `len`
    /// bytes at window offset `off` — a scanner-verified ASCII text run,
    /// or the in-window name bytes of a lean tag.
    #[inline]
    pub(crate) fn push_window(&mut self, kind: TapeKind, id: NameId, off: usize, len: usize) {
        assert!(off + len <= u32::MAX as usize, "source window exceeds 4 GiB");
        self.items.push(TapeItem { kind, id, off: off as u32, len: len as u32, window: true });
    }

    /// Turn every window span into an arena copy of its bytes in `window`:
    /// the reader is about to leave that window mid-batch (an in-place
    /// feed crossing from its stitch buffer to the chunk itself).
    pub(crate) fn own_spans(&mut self, window: &[u8]) {
        for it in self.items.iter_mut().filter(|it| it.window) {
            let run = &window[it.off as usize..(it.off + it.len) as usize];
            it.off = self.arena.len() as u32;
            it.window = false;
            self.arena.push_str(std::str::from_utf8(run).expect("window spans are UTF-8"));
        }
    }

    /// Scan forward from `from` for the close event that brings an active
    /// skip of `depth` levels back to its parent frame. Text and start
    /// events inside the subtree only bump counters; the caller
    /// fast-forwards the consumer by `skipped` events in one call.
    pub fn skip_scan(&self, from: usize, depth: u32) -> SkipScan {
        let mut d = depth;
        for (k, it) in self.items[from..].iter().enumerate() {
            match it.kind {
                TapeKind::Start => d += 1,
                TapeKind::Text => {}
                TapeKind::End => {
                    if d == 1 {
                        return SkipScan::Close { at: from + k, skipped: k as u64 };
                    }
                    d -= 1;
                }
            }
        }
        SkipScan::Tail { depth: d, skipped: (self.items.len() - from) as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tape_of(kinds: &[TapeKind]) -> EventTape {
        let mut t = EventTape::new();
        for &k in kinds {
            match k {
                TapeKind::Text => t.push_window(TapeKind::Text, NameId::UNKNOWN, 0, 0),
                k => t.push_arena(k, NameId::UNKNOWN, "x"),
            }
        }
        t
    }

    #[test]
    fn skip_scan_finds_the_matching_close() {
        use TapeKind::{End, Start, Text};
        // <a> <b> t </b> </a>  — skip armed right after <a> at depth 1.
        let t = tape_of(&[Start, Text, End, End]);
        assert_eq!(t.skip_scan(0, 1), SkipScan::Close { at: 3, skipped: 3 });
        // Already at the close.
        assert_eq!(t.skip_scan(3, 1), SkipScan::Close { at: 3, skipped: 0 });
    }

    #[test]
    fn skip_scan_reports_batch_tail_depth() {
        use TapeKind::{Start, Text};
        let t = tape_of(&[Start, Start, Text]);
        // Still two levels deeper than the armed frame, three events in.
        assert_eq!(t.skip_scan(0, 1), SkipScan::Tail { depth: 3, skipped: 3 });
        assert_eq!(t.skip_scan(3, 7), SkipScan::Tail { depth: 7, skipped: 0 });
    }

    #[test]
    fn arena_and_window_payloads_round_trip() {
        let mut t = EventTape::new();
        t.push_arena(TapeKind::Start, NameId(3), "person");
        t.push_window(TapeKind::Text, NameId::UNKNOWN, 17, 4);
        t.push_arena(TapeKind::End, NameId(3), "person");
        assert_eq!(t.len(), 3);
        let it = t.item(0);
        assert_eq!(t.arena_str(it.off, it.len), "person");
        assert!(!it.window);
        let tx = t.item(1);
        assert!(tx.window);
        assert_eq!((tx.off, tx.len), (17, 4));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn forced_pull_resolution_is_stable() {
        // Whatever the environment says, resolved() is deterministic and
        // idempotent within a process.
        let a = DeliveryMode::Tape.resolved();
        assert_eq!(a, DeliveryMode::Tape.resolved());
        assert_eq!(DeliveryMode::PerEvent.resolved(), DeliveryMode::PerEvent);
    }
}
