//! Two-stage structural scan: wide classification, then mask-driven parsing.
//!
//! The tokenizer's cost model changed once the engine path became
//! zero-alloc: the profile is dominated by the byte loops that find the
//! next structural character (`<`, `>`, `&`, quotes) and classify the run
//! in front of it. This module splits that work simdjson-style into two
//! stages:
//!
//! 1. **Stage 1 — classification.** A [`Scanner`] turns each 32-byte block
//!    of the source window into a [`BlockClasses`] record: one bitmask per
//!    character class (bit *i* set ⇔ byte *i* belongs to the class). The
//!    kernel is chosen **once per reader** by runtime feature detection —
//!    AVX2 (one 32-byte vector per class), SSE2 (two 16-byte halves), or a
//!    portable fallback that classifies through a 256-entry class table
//!    and transposes the flag bytes into masks with word arithmetic
//!    (SWAR), needing no `std::arch` at all — the only option off x86,
//!    and forced everywhere by `FLUX_FORCE_SWAR=1`. Each backend's whole
//!    batch loop lives inside one `#[target_feature]` function, so the
//!    per-block kernel inlines and there is a single call per batch, not
//!    per block.
//! 2. **Stage 2 — resolution.** Batches land in a reusable
//!    [`StructuralIndex`] anchored at a stream offset, and the reader's
//!    text / tag-name / attribute hot loops consume it with word
//!    operations (`trailing_zeros` over the masks) instead of
//!    byte-at-a-time dispatch: "first `<`", "properties of the text run
//!    before it", "length of this name", "end of this attribute value"
//!    are all O(1) per 32-byte block.
//!
//! The index is **amortized across events**: one anchor call classifies up
//! to [`ANCHOR_BYTES`] of the window, and the next few hundred events
//! resolve against the same batch (their positions differ from the anchor
//! by a delta the reader tracks). When the parse reaches the end of the
//! covered range the index is extended in place ([`EXTEND_BYTES`] at a
//! time, so a construct longer than one batch grows the index only to the
//! construct's own size — the same memory class as the general path's
//! accumulation buffer), and re-anchored once the parse moves past it
//! entirely. Classification cost is therefore ~one pass per input byte,
//! not per event.
//!
//! # The `FeedSource` batch-boundary contract
//!
//! Stage 1 is a **pure memo over the bytes of the stream**: block *k* of
//! an index anchored at stream offset `o` describes stream bytes
//! `[o + 32k, o + 32k + 32)`, which are immutable once read from the
//! source (a `FeedSource` only ever appends, and an in-place feed shows
//! the same stream bytes through a different window). The memo never
//! consumes, never looks past `fill_buf`, and holds no state the parser
//! would have to roll back. The incremental reader's checkpoint/rollback protocol
//! (`Reader::poll_resolved`) therefore holds by construction — a parse
//! attempt that runs off the end of the fed bytes rolls back reader state
//! only, and the still-valid memo is simply extended once more bytes
//! arrive. Chunk boundaries can split the input at any byte, including
//! mid-block: batches are an artifact of the *window*, not of the
//! chunking, and the every-offset chunking suites pin that the emitted
//! event stream is byte-identical for every split and every backend.
//!
//! # Why masks instead of an offset list
//!
//! simdjson emits a flat array of structural *offsets*. XML needs slightly
//! richer per-byte information (the same byte stream is scanned for
//! different classes depending on whether the cursor is in text or inside
//! a tag), so the index keeps the per-class masks themselves — each block
//! is a batch of 32 classifications — and lets the consumer pick the class
//! it cares about. The masks for one block live in one cache line.

use std::sync::OnceLock;

/// Bytes per classified block: one AVX2 vector, two SSE2 vectors, four
/// SWAR words. Mask type is [`u32`] — bit *i* describes byte *i* of the
/// block.
pub const BLOCK: usize = 32;

/// Bytes classified by one re-anchor (multiple of [`BLOCK`]): the steady-
/// state mask footprint, sized to a buffered-reader window.
pub const ANCHOR_BYTES: usize = 8192;

/// Bytes added per in-place extension (multiple of [`BLOCK`]).
pub const EXTEND_BYTES: usize = 8192;

/// One classified block: a bitmask per character class. Bits past the end
/// of a partial block (a window tail shorter than [`BLOCK`]) are zero in
/// every mask.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockClasses {
    /// `<`
    pub lt: u32,
    /// `>`
    pub gt: u32,
    /// `&`
    pub amp: u32,
    /// `"`
    pub quot: u32,
    /// `'`
    pub apos: u32,
    /// ASCII whitespace: 0x09–0x0D and 0x20 (the `char::is_whitespace`
    /// ASCII subset the reader's paths agree on).
    pub ws: u32,
    /// Bytes ≥ 0x80 (non-ASCII; routes to the general UTF-8 path).
    pub hi: u32,
    /// ASCII XML name characters after the first: `[A-Za-z0-9_\-.:]`.
    pub name: u32,
}

/// The classification kernel in use. Ordered by preference; see
/// [`Scanner::detect`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Class-table + word-transpose scan on `u64`s: portable, no
    /// `std::arch`.
    #[default]
    Swar,
    /// `std::arch` SSE2 (x86/x86_64).
    Sse2,
    /// `std::arch` AVX2 (x86/x86_64).
    Avx2,
}

impl Backend {
    /// Stable lowercase label ("swar" / "sse2" / "avx2") for stats lines,
    /// bench sections and the wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Swar => "swar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Wire encoding (see `flux-serve`'s `DONE` frame).
    pub fn code(self) -> u8 {
        match self {
            Backend::Swar => 0,
            Backend::Sse2 => 1,
            Backend::Avx2 => 2,
        }
    }

    /// Inverse of [`Backend::code`].
    pub fn from_code(code: u8) -> Option<Backend> {
        match code {
            0 => Some(Backend::Swar),
            1 => Some(Backend::Sse2),
            2 => Some(Backend::Avx2),
            _ => None,
        }
    }
}

/// How a [`Reader`](crate::reader::Reader) picks its scanner backend
/// (`ReaderOptions::scanner`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ScannerChoice {
    /// Best available backend for this CPU (AVX2 → SSE2 → SWAR).
    #[default]
    Auto,
    /// Portable SWAR, unconditionally.
    ForceSwar,
    /// SSE2 if the CPU has it, otherwise the best available below it.
    ForceSse2,
    /// AVX2 if the CPU has it, otherwise the best available below it.
    ForceAvx2,
}

/// Process-wide environment: detected CPU features plus the
/// `FLUX_FORCE_SWAR` kill switch, probed once.
struct Detected {
    forced_swar: bool,
    has_sse2: bool,
    has_avx2: bool,
}

fn detected() -> &'static Detected {
    static DETECTED: OnceLock<Detected> = OnceLock::new();
    DETECTED.get_or_init(|| {
        let forced_swar = std::env::var_os("FLUX_FORCE_SWAR").is_some_and(|v| !v.is_empty());
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let (has_sse2, has_avx2) =
            (is_x86_feature_detected!("sse2"), is_x86_feature_detected!("avx2"));
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let (has_sse2, has_avx2) = (false, false);
        Detected { forced_swar, has_sse2, has_avx2 }
    })
}

/// Scan-path observability counters, carried on `RunStats` and the serve
/// `DONE` frame so benches and logs show which tokenizer path actually
/// ran.
///
/// Deliberately **excluded from equality**: how many bytes flow through
/// the structural fast path versus the accumulating general path depends
/// on chunk geometry (a construct split across a feed boundary takes the
/// general path), and run-equivalence suites compare `RunStats` across
/// different chunkings of the same input. Telemetry must never make two
/// semantically identical runs compare unequal.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanTelemetry {
    /// The classification kernel the reader selected.
    pub backend: Backend,
    /// Bytes consumed via the structural-index fast paths.
    pub fast_path_bytes: u64,
    /// Bytes consumed via the accumulating general path.
    pub general_path_bytes: u64,
}

impl PartialEq for ScanTelemetry {
    /// Always equal — see the type docs.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ScanTelemetry {}

/// Stage-1 classifier, selected once per reader. Copy-sized: just the
/// backend discriminant; all kernels are stateless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scanner {
    backend: Backend,
}

impl Scanner {
    /// The best backend available on this CPU, honouring the
    /// `FLUX_FORCE_SWAR=1` kill switch (which wins over everything,
    /// including explicit choices — it exists so the whole workspace can
    /// be release-tested on the portable path).
    pub fn detect() -> Scanner {
        Scanner::with_choice(ScannerChoice::Auto)
    }

    /// Resolve a [`ScannerChoice`] against this CPU. Forced choices
    /// degrade to the best available backend at or below the request;
    /// `FLUX_FORCE_SWAR=1` overrides them all.
    pub fn with_choice(choice: ScannerChoice) -> Scanner {
        let d = detected();
        if d.forced_swar {
            return Scanner { backend: Backend::Swar };
        }
        let cap = match choice {
            ScannerChoice::ForceSwar => Backend::Swar,
            ScannerChoice::ForceSse2 => Backend::Sse2,
            ScannerChoice::Auto | ScannerChoice::ForceAvx2 => Backend::Avx2,
        };
        let best = if d.has_avx2 {
            Backend::Avx2
        } else if d.has_sse2 {
            Backend::Sse2
        } else {
            Backend::Swar
        };
        Scanner { backend: best.min(cap) }
    }

    /// The backend this scanner dispatches to.
    pub fn backend(self) -> Backend {
        self.backend
    }

    /// Classify one block (`block.len() <= BLOCK`). Partial blocks report
    /// zero bits past their end in every mask. (Test/diagnostic entry
    /// point; the reader goes through [`Scanner::anchor`] /
    /// [`Scanner::extend`].)
    pub fn classify_block(self, block: &[u8]) -> BlockClasses {
        assert!(block.len() <= BLOCK);
        let mut idx = StructuralIndex::new();
        self.anchor(&mut idx, 0, block);
        idx.blocks.first().copied().unwrap_or_default()
    }

    /// Re-anchor `idx` at stream offset `at` (= the offset of `window[0]`)
    /// and classify up to [`ANCHOR_BYTES`] of `window`, replacing the
    /// previous batch.
    pub fn anchor(self, idx: &mut StructuralIndex, at: u64, window: &[u8]) {
        idx.blocks.clear();
        idx.origin = at;
        idx.len = 0;
        self.classify_append(idx, window, ANCHOR_BYTES);
    }

    /// Grow the covered range in place: `tail` must be the window slice
    /// beginning at the index's current end (requires the covered length
    /// to be block-aligned, which holds whenever the previous batch was
    /// capped rather than window-exhausted). Classifies up to
    /// [`EXTEND_BYTES`] more.
    pub fn extend(self, idx: &mut StructuralIndex, tail: &[u8]) {
        debug_assert!(idx.len.is_multiple_of(BLOCK), "extend from a block-aligned boundary");
        self.classify_append(idx, tail, EXTEND_BYTES);
    }

    #[inline]
    fn classify_append(self, idx: &mut StructuralIndex, hay: &[u8], cap: usize) {
        debug_assert!(cap.is_multiple_of(BLOCK));
        let take = &hay[..hay.len().min(cap)];
        idx.len += take.len();
        // One exact reservation per batch: the kernels push block by block,
        // and amortized doubling would make a run's allocation count depend
        // on how much of the anchor budget its documents fill (pinned by
        // the zero-per-event-allocation suite).
        idx.blocks.reserve_exact(take.len().div_ceil(BLOCK));
        match self.backend {
            Backend::Swar => classify_batch_swar(&mut idx.blocks, take),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `Scanner::with_choice` only selects Sse2/Avx2 after
            // `is_x86_feature_detected!` confirmed the feature on this CPU
            // (cached in `detected()`), so the target-feature batch loops
            // are safe to call here.
            Backend::Sse2 => unsafe { x86::classify_batch_sse2(&mut idx.blocks, take) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: as above — Avx2 is only ever selected when
            // `is_x86_feature_detected!("avx2")` reported support.
            Backend::Avx2 => unsafe { x86::classify_batch_avx2(&mut idx.blocks, take) },
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => classify_batch_swar(&mut idx.blocks, take),
        }
    }

    /// Position of the first `needle` in `hay`, dispatched to the widest
    /// available compare. Used where a bare find is all that's needed
    /// (e.g. the incremental reader's text-scan hint, which runs over raw
    /// fed bytes before any parse attempt).
    #[inline]
    pub fn find_byte(self, needle: u8, hay: &[u8]) -> Option<usize> {
        match self.backend {
            Backend::Swar => swar_find(needle, hay),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: backend selection guarantees SSE2 support (see
            // `classify_append`).
            Backend::Sse2 => unsafe { x86::find_byte_sse2(needle, hay) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: backend selection guarantees AVX2 support (see
            // `classify_append`).
            Backend::Avx2 => unsafe { x86::find_byte_avx2(needle, hay) },
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => swar_find(needle, hay),
        }
    }
}

/// Stage-1 output, reused across events: a batch of classified blocks
/// covering stream bytes `[origin, origin + covered)`. All query
/// positions are index-relative byte offsets (stream offset − origin);
/// results never exceed [`covered`](StructuralIndex::covered).
#[derive(Debug, Default)]
pub struct StructuralIndex {
    blocks: Vec<BlockClasses>,
    /// Stream offset of block 0, bit 0.
    origin: u64,
    /// Classified bytes from the origin (the final block may be partial).
    len: usize,
}

impl StructuralIndex {
    /// An empty index (no allocation until first use).
    pub fn new() -> StructuralIndex {
        StructuralIndex::default()
    }

    /// Stream offset this index is anchored at.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Classified bytes from the origin.
    pub fn covered(&self) -> usize {
        self.len
    }

    /// One-past-the-last classified stream offset.
    pub fn end(&self) -> u64 {
        self.origin + self.len as u64
    }

    /// The classified blocks of the current batch.
    pub fn blocks(&self) -> &[BlockClasses] {
        &self.blocks
    }

    #[inline]
    fn first_set(&self, class: impl Fn(&BlockClasses) -> u32, from: usize) -> Option<usize> {
        let mut blk = from / BLOCK;
        let mut shift = from % BLOCK;
        while let Some(b) = self.blocks.get(blk) {
            let m = class(b) >> shift << shift;
            if m != 0 {
                let pos = blk * BLOCK + m.trailing_zeros() as usize;
                return (pos < self.len).then_some(pos);
            }
            blk += 1;
            shift = 0;
        }
        None
    }

    /// First position `>= from` whose bit is **clear** in `class`, clamped
    /// to the covered range. (Partial-block padding reads as clear, which
    /// is exactly the "run ends here" answer.)
    #[inline]
    fn first_clear(&self, class: impl Fn(&BlockClasses) -> u32, from: usize) -> usize {
        let mut blk = from / BLOCK;
        let mut shift = from % BLOCK;
        while let Some(b) = self.blocks.get(blk) {
            let m = !(class(b) >> shift << shift) & (u32::MAX << shift);
            if m != 0 {
                return (blk * BLOCK + m.trailing_zeros() as usize).min(self.len);
            }
            blk += 1;
            shift = 0;
        }
        self.len
    }

    /// Position of the first `<` at or after `from`.
    #[inline]
    pub fn first_lt(&self, from: usize) -> Option<usize> {
        self.first_set(|b| b.lt, from)
    }

    /// Position of the first `>` at or after `from`.
    #[inline]
    pub fn first_gt(&self, from: usize) -> Option<usize> {
        self.first_set(|b| b.gt, from)
    }

    /// Properties of the text run `[from, upto)`: (any non-ASCII byte, any
    /// `&`, any non-whitespace). Requires `upto <= covered()`.
    #[inline]
    pub fn text_props(&self, from: usize, upto: usize) -> (bool, bool, bool) {
        debug_assert!(from <= upto && upto <= self.len);
        let (mut hi, mut amp, mut nonws) = (0u32, 0u32, 0u32);
        let mut blk = from / BLOCK;
        let mut lo = from % BLOCK;
        while blk * BLOCK < upto {
            let b = &self.blocks[blk];
            let hi_bits = upto - blk * BLOCK;
            let keep_hi = if hi_bits >= BLOCK { u32::MAX } else { (1u32 << hi_bits) - 1 };
            let keep = keep_hi & (u32::MAX << lo);
            hi |= b.hi & keep;
            amp |= b.amp & keep;
            nonws |= !b.ws & keep;
            blk += 1;
            lo = 0;
        }
        (hi != 0, amp != 0, nonws != 0)
    }

    /// Any byte ≥ 0x80 in `[from, upto)`? Requires `upto <= covered()`.
    #[inline]
    pub fn any_hi(&self, from: usize, upto: usize) -> bool {
        debug_assert!(from <= upto && upto <= self.len);
        let mut blk = from / BLOCK;
        let mut lo = from % BLOCK;
        while blk * BLOCK < upto {
            let b = &self.blocks[blk];
            let hi_bits = upto - blk * BLOCK;
            let keep_hi = if hi_bits >= BLOCK { u32::MAX } else { (1u32 << hi_bits) - 1 };
            if b.hi & keep_hi & (u32::MAX << lo) != 0 {
                return true;
            }
            blk += 1;
            lo = 0;
        }
        false
    }

    /// End of the ASCII-name-character run starting at `from` (exclusive),
    /// clamped to the covered range.
    #[inline]
    pub fn name_run(&self, from: usize) -> usize {
        self.first_clear(|b| b.name, from)
    }

    /// First non-whitespace position `>= from`, clamped to the covered
    /// range.
    #[inline]
    pub fn skip_ws(&self, from: usize) -> usize {
        self.first_clear(|b| b.ws, from)
    }

    /// First position `>= from` holding the given quote character or `&`
    /// (the two bytes that end an attribute-value scan). `quote` must be
    /// `b'"'` or `b'\''`.
    #[inline]
    pub fn value_end(&self, from: usize, quote: u8) -> Option<usize> {
        debug_assert!(quote == b'"' || quote == b'\'');
        if quote == b'"' {
            self.first_set(|b| b.quot | b.amp, from)
        } else {
            self.first_set(|b| b.apos | b.amp, from)
        }
    }
}

// ---------------------------------------------------------------------------
// Class table (shared by the SWAR kernel and the unit-test oracle).

/// Bit index of each class in [`CLASS_TABLE`] flag bytes.
const C_LT: u32 = 0;
const C_GT: u32 = 1;
const C_AMP: u32 = 2;
const C_QUOT: u32 = 3;
const C_APOS: u32 = 4;
const C_WS: u32 = 5;
const C_HI: u32 = 6;
const C_NAME: u32 = 7;

/// Per-byte class flags: the whole classification problem as one 256-byte
/// lookup (the eight classes fit a `u8` exactly).
static CLASS_TABLE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        let mut f = 0u8;
        if c == b'<' {
            f |= 1 << C_LT;
        }
        if c == b'>' {
            f |= 1 << C_GT;
        }
        if c == b'&' {
            f |= 1 << C_AMP;
        }
        if c == b'"' {
            f |= 1 << C_QUOT;
        }
        if c == b'\'' {
            f |= 1 << C_APOS;
        }
        if c == b' ' || (c >= 0x09 && c <= 0x0D) {
            f |= 1 << C_WS;
        }
        if c >= 0x80 {
            f |= 1 << C_HI;
        }
        if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
            f |= 1 << C_NAME;
        }
        t[b] = f;
        b += 1;
    }
    t
};

// ---------------------------------------------------------------------------
// SWAR kernel: table lookups, then a word transpose that turns the flag
// bytes of 8 consecutive input bytes into per-class mask bits.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Pack a 0x80-per-byte indicator into 8 bits, byte *k* (little-endian) →
/// bit *k*. The multiply accumulates each byte's bit into the top byte
/// without carries (every partial sum stays below 0x100).
#[inline]
fn movemask_swar(m80: u64) -> u32 {
    (((m80 >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56) as u32
}

/// Extract class-bit `c` of each flag byte in `flags` as a packed 8-bit
/// mask: shift the class bit up to bit 7 of its byte, then movemask.
#[inline]
fn class_mask(flags: u64, c: u32) -> u32 {
    movemask_swar((flags << (7 - c)) & HI)
}

fn classify_swar(block: &[u8; BLOCK]) -> BlockClasses {
    let mut out = BlockClasses::default();
    for (k, chunk) in block.chunks_exact(8).enumerate() {
        let flags = u64::from_le_bytes([
            CLASS_TABLE[chunk[0] as usize],
            CLASS_TABLE[chunk[1] as usize],
            CLASS_TABLE[chunk[2] as usize],
            CLASS_TABLE[chunk[3] as usize],
            CLASS_TABLE[chunk[4] as usize],
            CLASS_TABLE[chunk[5] as usize],
            CLASS_TABLE[chunk[6] as usize],
            CLASS_TABLE[chunk[7] as usize],
        ]);
        let shift = (k * 8) as u32;
        out.lt |= class_mask(flags, C_LT) << shift;
        out.gt |= class_mask(flags, C_GT) << shift;
        out.amp |= class_mask(flags, C_AMP) << shift;
        out.quot |= class_mask(flags, C_QUOT) << shift;
        out.apos |= class_mask(flags, C_APOS) << shift;
        out.ws |= class_mask(flags, C_WS) << shift;
        out.hi |= class_mask(flags, C_HI) << shift;
        out.name |= class_mask(flags, C_NAME) << shift;
    }
    out
}

/// Stamp the batch loop for one kernel: classify full blocks straight off
/// the slice, pad the tail into a zeroed block (zero bytes belong to no
/// class).
macro_rules! classify_batch_loop {
    ($out:expr, $hay:expr, $kernel:expr) => {{
        let out: &mut Vec<BlockClasses> = $out;
        let hay: &[u8] = $hay;
        let mut chunks = hay.chunks_exact(BLOCK);
        for block in &mut chunks {
            out.push($kernel(block.try_into().expect("BLOCK bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; BLOCK];
            padded[..tail.len()].copy_from_slice(tail);
            out.push($kernel(&padded));
        }
    }};
}

fn classify_batch_swar(out: &mut Vec<BlockClasses>, hay: &[u8]) {
    classify_batch_loop!(out, hay, classify_swar)
}

/// SWAR byte search (the `memchr` of the portable path — `std`'s is
/// private). Hoisted from the reader, where it predates the structural
/// index; the incremental text-scan hint and the SWAR find path still use
/// it directly.
#[inline]
pub fn swar_find(needle: u8, hay: &[u8]) -> Option<usize> {
    let pat = u64::from(needle).wrapping_mul(LO);
    let mut i = 0usize;
    while i + 8 <= hay.len() {
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk")) ^ pat;
        if w.wrapping_sub(LO) & !w & HI != 0 {
            for (j, &b) in hay[i..i + 8].iter().enumerate() {
                if b == needle {
                    return Some(i + j);
                }
            }
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == needle).map(|p| p + i)
}

/// Branchless property scan of a candidate text run: (any non-ASCII byte,
/// any `&`, any non-whitespace). Whitespace is the `char::is_whitespace`
/// ASCII subset (0x09–0x0D, 0x20); non-ASCII bytes read as non-whitespace
/// but also set the first flag, which routes to the general path. Hoisted
/// from the reader; the structural paths now get the same answers from
/// [`StructuralIndex::text_props`], and this byte-exact version is their
/// test oracle.
#[inline]
pub fn scan_text_props(run: &[u8]) -> (bool, bool, bool) {
    let (mut hi, mut amp, mut nonws) = (0u8, 0u8, 0u8);
    for &b in run {
        hi |= b & 0x80;
        amp |= u8::from(b == b'&');
        nonws |= u8::from(b != b' ' && !(0x09..=0x0D).contains(&b));
    }
    (hi != 0, amp != 0, nonws != 0)
}

// ---------------------------------------------------------------------------
// x86/x86_64 kernels.

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{BlockClasses, BLOCK};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2 (callers hold a positive
    /// `is_x86_feature_detected!("avx2")` result).
    #[target_feature(enable = "avx2")]
    unsafe fn classify_avx2(block: &[u8; BLOCK]) -> BlockClasses {
        // SAFETY: `block` is exactly BLOCK = 32 bytes; unaligned load.
        let v = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
        let eq =
            |n: u8| _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(n as i8))) as u32;
        // Unsigned `lo <= b <= hi` via saturating subtraction: both
        // differences are zero exactly when `b` is in range.
        let range = |lo: u8, hi: u8| {
            let z = _mm256_setzero_si256();
            let ge = _mm256_cmpeq_epi8(_mm256_subs_epu8(_mm256_set1_epi8(lo as i8), v), z);
            let le = _mm256_cmpeq_epi8(_mm256_subs_epu8(v, _mm256_set1_epi8(hi as i8)), z);
            _mm256_and_si256(ge, le)
        };
        let alnum = _mm256_or_si256(
            range(b'0', b'9'),
            _mm256_or_si256(range(b'A', b'Z'), range(b'a', b'z')),
        );
        let punct = {
            let eqv = |n: u8| _mm256_cmpeq_epi8(v, _mm256_set1_epi8(n as i8));
            _mm256_or_si256(
                _mm256_or_si256(eqv(b'_'), eqv(b'-')),
                _mm256_or_si256(eqv(b'.'), eqv(b':')),
            )
        };
        BlockClasses {
            lt: eq(b'<'),
            gt: eq(b'>'),
            amp: eq(b'&'),
            quot: eq(b'"'),
            apos: eq(b'\''),
            ws: _mm256_movemask_epi8(_mm256_or_si256(
                _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b' ' as i8)),
                range(0x09, 0x0D),
            )) as u32,
            hi: _mm256_movemask_epi8(v) as u32,
            name: _mm256_movemask_epi8(_mm256_or_si256(alnum, punct)) as u32,
        }
    }

    /// # Safety
    /// Requires SSE2 (callers hold a positive
    /// `is_x86_feature_detected!("sse2")` result).
    #[target_feature(enable = "sse2")]
    unsafe fn classify_sse2(block: &[u8; BLOCK]) -> BlockClasses {
        let mut out = BlockClasses::default();
        for half in 0..2 {
            // SAFETY: `block` is 32 bytes; each half is a full 16-byte
            // unaligned load.
            let v = _mm_loadu_si128(block.as_ptr().add(half * 16) as *const __m128i);
            let shift = (half * 16) as u32;
            let eq = |n: u8| _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(n as i8))) as u32;
            let range = |lo: u8, hi: u8| {
                let z = _mm_setzero_si128();
                let ge = _mm_cmpeq_epi8(_mm_subs_epu8(_mm_set1_epi8(lo as i8), v), z);
                let le = _mm_cmpeq_epi8(_mm_subs_epu8(v, _mm_set1_epi8(hi as i8)), z);
                _mm_and_si128(ge, le)
            };
            let alnum =
                _mm_or_si128(range(b'0', b'9'), _mm_or_si128(range(b'A', b'Z'), range(b'a', b'z')));
            let punct = {
                let eqv = |n: u8| _mm_cmpeq_epi8(v, _mm_set1_epi8(n as i8));
                _mm_or_si128(_mm_or_si128(eqv(b'_'), eqv(b'-')), _mm_or_si128(eqv(b'.'), eqv(b':')))
            };
            out.lt |= eq(b'<') << shift;
            out.gt |= eq(b'>') << shift;
            out.amp |= eq(b'&') << shift;
            out.quot |= eq(b'"') << shift;
            out.apos |= eq(b'\'') << shift;
            out.ws |= (_mm_movemask_epi8(_mm_or_si128(
                _mm_cmpeq_epi8(v, _mm_set1_epi8(b' ' as i8)),
                range(0x09, 0x0D),
            )) as u32)
                << shift;
            out.hi |= (_mm_movemask_epi8(v) as u32) << shift;
            out.name |= (_mm_movemask_epi8(_mm_or_si128(alnum, punct)) as u32) << shift;
        }
        out
    }

    /// # Safety
    /// Requires AVX2 (callers hold a positive feature-detection result).
    #[target_feature(enable = "avx2")]
    pub unsafe fn classify_batch_avx2(out: &mut Vec<BlockClasses>, hay: &[u8]) {
        classify_batch_loop!(out, hay, classify_avx2)
    }

    /// # Safety
    /// Requires SSE2 (callers hold a positive feature-detection result).
    #[target_feature(enable = "sse2")]
    pub unsafe fn classify_batch_sse2(out: &mut Vec<BlockClasses>, hay: &[u8]) {
        classify_batch_loop!(out, hay, classify_sse2)
    }

    /// # Safety
    /// Requires AVX2 (callers hold a positive feature-detection result).
    #[target_feature(enable = "avx2")]
    pub unsafe fn find_byte_avx2(needle: u8, hay: &[u8]) -> Option<usize> {
        let pat = _mm256_set1_epi8(needle as i8);
        let mut i = 0usize;
        while i + 32 <= hay.len() {
            // SAFETY: `i + 32 <= hay.len()` bounds the unaligned load.
            let v = _mm256_loadu_si256(hay.as_ptr().add(i) as *const __m256i);
            let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, pat)) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 32;
        }
        hay[i..].iter().position(|&b| b == needle).map(|p| p + i)
    }

    /// # Safety
    /// Requires SSE2 (callers hold a positive feature-detection result).
    #[target_feature(enable = "sse2")]
    pub unsafe fn find_byte_sse2(needle: u8, hay: &[u8]) -> Option<usize> {
        let pat = _mm_set1_epi8(needle as i8);
        let mut i = 0usize;
        while i + 16 <= hay.len() {
            // SAFETY: `i + 16 <= hay.len()` bounds the unaligned load.
            let v = _mm_loadu_si128(hay.as_ptr().add(i) as *const __m128i);
            let m = _mm_movemask_epi8(_mm_cmpeq_epi8(v, pat)) as u32;
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 16;
        }
        hay[i..].iter().position(|&b| b == needle).map(|p| p + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-exact reference classifier, built from first principles (not
    /// the table, which it cross-checks).
    fn naive(block: &[u8]) -> BlockClasses {
        let mut out = BlockClasses::default();
        for (i, &b) in block.iter().enumerate() {
            let bit = 1u32 << i;
            if b == b'<' {
                out.lt |= bit;
            }
            if b == b'>' {
                out.gt |= bit;
            }
            if b == b'&' {
                out.amp |= bit;
            }
            if b == b'"' {
                out.quot |= bit;
            }
            if b == b'\'' {
                out.apos |= bit;
            }
            if b == b' ' || (0x09..=0x0D).contains(&b) {
                out.ws |= bit;
            }
            if b >= 0x80 {
                out.hi |= bit;
            }
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                out.name |= bit;
            }
        }
        out
    }

    fn backends() -> Vec<Scanner> {
        let mut out = vec![Scanner::with_choice(ScannerChoice::ForceSwar)];
        for choice in [ScannerChoice::ForceSse2, ScannerChoice::ForceAvx2] {
            let s = Scanner::with_choice(choice);
            if !out.iter().any(|o| o.backend() == s.backend()) {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn every_byte_value_classifies_exactly_at_every_offset() {
        // Each of the 256 byte values, at each offset of a block otherwise
        // filled with 'x', must classify identically to the reference on
        // every available backend.
        for scanner in backends() {
            for byte in 0..=255u8 {
                for offset in 0..BLOCK {
                    let mut block = [b'x'; BLOCK];
                    block[offset] = byte;
                    assert_eq!(
                        scanner.classify_block(&block),
                        naive(&block),
                        "backend {:?} byte {byte:#x} offset {offset}",
                        scanner.backend(),
                    );
                }
            }
        }
    }

    #[test]
    fn partial_blocks_zero_the_padding() {
        for scanner in backends() {
            for len in 0..BLOCK {
                let block = vec![b'<'; len];
                let c = scanner.classify_block(&block);
                assert_eq!(c, naive(&block), "len {len}");
                let past_end = !((1u64 << len) as u32).wrapping_sub(1);
                assert_eq!(c.lt & past_end, 0, "len {len}");
            }
        }
    }

    #[test]
    fn swar_transpose_is_exact() {
        // The movemask pack and the class-bit transpose are per-byte
        // exact for arbitrary flag patterns.
        assert_eq!(movemask_swar(0x8080_8080_8080_8080), 0xFF);
        assert_eq!(movemask_swar(0x0080_0000_0000_8000), 0b0100_0010);
        for b in 0..=255u8 {
            let flags = u64::from_le_bytes([CLASS_TABLE[b as usize]; 8]);
            for c in 0..8 {
                let expect = if CLASS_TABLE[b as usize] >> c & 1 != 0 { 0xFF } else { 0 };
                assert_eq!(class_mask(flags, c), expect, "byte {b:#x} class {c}");
            }
        }
    }

    #[test]
    fn find_byte_agrees_with_naive_at_every_offset() {
        let mut hay = vec![b'a'; 3 * BLOCK + 7];
        for scanner in backends() {
            assert_eq!(scanner.find_byte(b'<', &hay), None);
            for at in 0..hay.len() {
                hay[at] = b'<';
                assert_eq!(
                    scanner.find_byte(b'<', &hay),
                    Some(at),
                    "backend {:?} offset {at}",
                    scanner.backend()
                );
                hay[at] = b'a';
            }
        }
        assert_eq!(swar_find(b'z', b""), None);
        assert_eq!(swar_find(b'z', b"abcz"), Some(3));
    }

    #[test]
    fn hoisted_scan_text_props_matches_spec() {
        assert_eq!(scan_text_props(b"   \t\n"), (false, false, false));
        assert_eq!(scan_text_props(b"  x "), (false, false, true));
        assert_eq!(scan_text_props(b"a&b"), (false, true, true));
        assert_eq!(scan_text_props("é".as_bytes()), (true, false, true));
        assert_eq!(scan_text_props(b""), (false, false, false));
    }

    #[test]
    fn index_queries_walk_blocks_and_clamp() {
        let scanner = Scanner::detect();
        let mut idx = StructuralIndex::new();
        // Text: 40 spaces (crossing a block boundary), then "ab&cd<tail".
        let mut hay = vec![b' '; 40];
        hay.extend_from_slice(b"ab&cd<tail");
        scanner.anchor(&mut idx, 0, &hay);
        let lt = idx.first_lt(0).unwrap();
        assert_eq!(lt, 45);
        assert_eq!(idx.text_props(0, lt), (false, true, true));
        assert_eq!(idx.text_props(0, 40), (false, false, false));
        assert_eq!(idx.text_props(45, 45), (false, false, false));
        // Sub-ranges honour `from`.
        assert_eq!(idx.text_props(43, lt), (false, false, true));

        // Tag: name run, whitespace skip, quoted value with '&'.
        let body = br#"name  attr = "v&w" > rest"#;
        scanner.anchor(&mut idx, 0, body);
        assert_eq!(idx.first_gt(0), Some(19));
        assert_eq!(idx.name_run(0), 4);
        assert_eq!(idx.skip_ws(4), 6);
        assert_eq!(idx.name_run(6), 10);
        assert_eq!(idx.value_end(14, b'"'), Some(15), "the & ends the scan");
        assert_eq!(idx.value_end(16, b'"'), Some(17));
        assert!(!idx.any_hi(0, 19));

        // Clamping: runs that reach the end of a partial final block.
        scanner.anchor(&mut idx, 0, b"abc");
        assert_eq!(idx.name_run(0), 3);
        assert_eq!(idx.skip_ws(0), 0);
        assert_eq!(idx.first_gt(0), None);
        assert_eq!(idx.covered(), 3);
    }

    #[test]
    fn anchor_caps_and_extend_grows_in_place() {
        for scanner in backends() {
            let mut idx = StructuralIndex::new();
            let mut hay = vec![b'x'; ANCHOR_BYTES + 2 * BLOCK];
            let at = hay.len() - 5;
            hay[at] = b'<';
            scanner.anchor(&mut idx, 100, &hay);
            assert_eq!(idx.covered(), ANCHOR_BYTES, "anchor is capped");
            assert_eq!(idx.origin(), 100);
            assert_eq!(idx.end(), 100 + ANCHOR_BYTES as u64);
            assert_eq!(idx.first_lt(0), None, "the `<` is past the cap");
            let covered = idx.covered();
            scanner.extend(&mut idx, &hay[covered..]);
            assert_eq!(idx.covered(), hay.len());
            assert_eq!(idx.first_lt(0), Some(at));
            // Queries starting past the old boundary see the new blocks.
            assert_eq!(idx.first_lt(ANCHOR_BYTES), Some(at));
            assert_eq!(idx.name_run(ANCHOR_BYTES), at, "x-run ends at `<`");
        }
    }

    #[test]
    fn backend_selection_degrades_and_labels() {
        let auto = Scanner::detect();
        let swar = Scanner::with_choice(ScannerChoice::ForceSwar);
        assert_eq!(swar.backend(), Backend::Swar);
        assert!(auto.backend() >= Backend::Swar);
        for b in [Backend::Swar, Backend::Sse2, Backend::Avx2] {
            assert_eq!(Backend::from_code(b.code()), Some(b));
            assert!(!b.name().is_empty());
        }
        assert_eq!(Backend::from_code(9), None);
        // Forced choices never exceed their cap.
        assert!(Scanner::with_choice(ScannerChoice::ForceSse2).backend() <= Backend::Sse2);
        assert!(Scanner::with_choice(ScannerChoice::ForceAvx2).backend() <= Backend::Avx2);
        // The kill switch wins over detection and every explicit choice.
        if std::env::var_os("FLUX_FORCE_SWAR").is_some_and(|v| !v.is_empty()) {
            assert_eq!(auto.backend(), Backend::Swar, "FLUX_FORCE_SWAR must force detect()");
            for choice in [
                ScannerChoice::Auto,
                ScannerChoice::ForceSwar,
                ScannerChoice::ForceSse2,
                ScannerChoice::ForceAvx2,
            ] {
                assert_eq!(
                    Scanner::with_choice(choice).backend(),
                    Backend::Swar,
                    "FLUX_FORCE_SWAR must override {choice:?}"
                );
            }
        }
    }

    #[test]
    fn telemetry_compares_equal_by_design() {
        let a =
            ScanTelemetry { backend: Backend::Avx2, fast_path_bytes: 10, general_path_bytes: 2 };
        let b = ScanTelemetry::default();
        assert_eq!(a, b, "telemetry must never fail run-equivalence comparisons");
    }
}
