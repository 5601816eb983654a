//! Pull-based streaming XML parser.
//!
//! [`Reader`] reads from any [`BufRead`] source and yields one
//! [`Event`] at a time without ever materializing the document — the property
//! the whole FluX approach depends on. It performs well-formedness checking
//! (matching tags, a single root element) and resolves entity references.
//!
//! # Name resolution
//!
//! A reader may carry a shared [`Symbols`] table
//! ([`Reader::with_symbols`]); [`Reader::next_resolved`] then yields
//! [`ResolvedEvent`]s whose tag names were hashed **once at tokenization**
//! into dense [`NameId`]s. Names outside the table resolve to
//! [`NameId::UNKNOWN`] but still carry their text. End tags never re-hash:
//! the id is remembered on the open-element stack, which itself is a flat
//! byte arena — the streaming path performs no per-event heap allocation.
//!
//! Attribute handling follows the paper's experimental setup (Appendix A):
//! the prototype's "XSAX parser converted attributes into subelements
//! on-the-fly". [`AttributeMode::ConvertToSubelements`] reproduces this:
//! `<person id="person0">` is reported as
//! `<person><person_id>person0</person_id>` with the synthesized element name
//! `{element}_{attribute}` (so `person`+`id` → `person_id`, `buyer`+`person`
//! → `buyer_person`, exactly the names the adapted XMark queries use).

use std::fmt;
use std::io::{self, BufRead};
use std::sync::Arc;

use crate::evbuf::EventBuf;
use crate::events::{Event, OwnedEvent, ResolvedEvent};
use crate::scan::{ScanTelemetry, Scanner, ScannerChoice, StructuralIndex, BLOCK};
use crate::symbols::{NameId, Symbols};
use crate::tape::{DeliveryMode, EventTape, TapeKind, TAPE_BATCH_EVENTS};
use crate::xsax::converted_name_into;

/// How the reader treats attributes in start tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttributeMode {
    /// Error out when an attribute is encountered (the paper's core data
    /// model is attribute-free).
    Reject,
    /// Parse and discard attributes.
    Drop,
    /// Convert each attribute into a subelement named
    /// `{element}_{attribute}`, placed before the element's other children
    /// (the paper's XSAX behaviour).
    #[default]
    ConvertToSubelements,
}

/// Reader configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReaderOptions {
    /// Attribute handling; defaults to XSAX-style conversion.
    pub attributes: AttributeMode,
    /// Report whitespace-only text nodes. Off by default: element-content
    /// documents (like XMark) routinely contain indentation that carries no
    /// data and would only inflate buffers.
    pub keep_whitespace: bool,
    /// Structural-scanner backend selection (see [`crate::scan`]); defaults
    /// to the best kernel the CPU supports.
    pub scanner: ScannerChoice,
    /// Event delivery strategy (see [`crate::tape`]); defaults to batched
    /// tape delivery. Like the scanner backend, this is a performance
    /// knob, not a semantic one: the event stream, all errors, and all
    /// snapshot bytes are identical across modes.
    pub delivery: DeliveryMode,
}

/// Classification of parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Byte stream is not valid UTF-8.
    Utf8,
    /// Underlying I/O failure.
    Io(String),
    /// `</b>` closing `<a>`, or close with nothing open.
    MismatchedTag { expected: Option<String>, found: String },
    /// Document ended with open elements.
    UnexpectedEof,
    /// Content after the root element was closed.
    TrailingContent,
    /// Character data outside the root element.
    TextOutsideRoot,
    /// Malformed tag, bad name, bad attribute syntax, bad entity, …
    Syntax(String),
    /// An attribute was seen under [`AttributeMode::Reject`].
    AttributeRejected { element: String, attribute: String },
}

/// A parse error with the byte offset at which it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: XmlErrorKind,
    /// Byte offset into the input stream.
    pub offset: u64,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            XmlErrorKind::Utf8 => write!(f, "invalid UTF-8 at byte {}", self.offset),
            XmlErrorKind::Io(e) => write!(f, "I/O error at byte {}: {e}", self.offset),
            XmlErrorKind::MismatchedTag { expected, found } => match expected {
                Some(e) => write!(
                    f,
                    "mismatched end tag </{found}> at byte {}, expected </{e}>",
                    self.offset
                ),
                None => {
                    write!(f, "end tag </{found}> with no open element at byte {}", self.offset)
                }
            },
            XmlErrorKind::UnexpectedEof => {
                write!(f, "unexpected end of input at byte {}", self.offset)
            }
            XmlErrorKind::TrailingContent => {
                write!(f, "content after document root at byte {}", self.offset)
            }
            XmlErrorKind::TextOutsideRoot => {
                write!(f, "character data outside the root element at byte {}", self.offset)
            }
            XmlErrorKind::Syntax(m) => write!(f, "XML syntax error at byte {}: {m}", self.offset),
            XmlErrorKind::AttributeRejected { element, attribute } => {
                write!(
                    f,
                    "attribute `{attribute}` on `<{element}>` at byte {} (attribute-free mode)",
                    self.offset
                )
            }
        }
    }
}

impl std::error::Error for XmlError {}

enum Slot {
    None,
    /// Borrow target for a text event (decoded into `text_buf`).
    Text,
    /// Text served directly from the source's buffer (zero-copy fast
    /// path): the first `len` bytes of the *unconsumed* window, verified
    /// ASCII and entity-free. `defer_consume` keeps the window in place
    /// until the next pull.
    SrcText {
        len: usize,
    },
    /// Borrow target for an end tag name (`name_buf` + `cur_id`).
    EndName,
    /// Borrow target for a start tag name (attribute-free fast path).
    StartName,
    /// Start tag served straight from the stack arena: the name is the
    /// topmost `stack` entry, which the fast path just pushed — no copy
    /// into `name_buf`.
    StackTop,
    /// End tag served straight from the stack arena: the name is the
    /// topmost `stack` entry; the pop (and arena truncate) is deferred to
    /// the next pull so the borrow needs no copy, mirroring
    /// `defer_consume`.
    StackPop,
    /// Index into the `pending` event buffer.
    Pending(usize),
}

/// Outcome of a fast-path attempt. `Fallback` guarantees no state was
/// consumed or mutated: the general path re-reads the same bytes.
enum Fast {
    /// Event produced (slot set).
    Emitted,
    /// Handled without an event (whitespace dropped, tag opened).
    Skipped,
    /// Not a fast-path shape; use the general path.
    Fallback,
}

/// Per-event name resolution with quick-table hit accounting. A free
/// function over the reader's disjoint fields so call sites may keep the
/// name borrowed from the input buffers while the counters are bumped.
#[inline]
fn resolve_counted(
    symbols: &Option<Arc<Symbols>>,
    quick_hits: &mut u64,
    quick_misses: &mut u64,
    name: &str,
) -> NameId {
    match symbols {
        Some(s) => {
            let (id, quick) = s.resolve_traced(name);
            if quick {
                *quick_hits += 1;
            } else {
                *quick_misses += 1;
            }
            id
        }
        None => NameId::UNKNOWN,
    }
}

/// Record an element opening: a self-closing tag queues its end event in
/// the pending buffer (reclaiming it first if fully drained); an open tag
/// appends its name bytes to the flat stack arena. A free function over the
/// reader's disjoint fields, so callers may keep `name` borrowed from the
/// input buffers.
fn open_element(
    pending: &mut EventBuf,
    pending_pos: &mut usize,
    stack: &mut Vec<(u32, NameId)>,
    stack_buf: &mut String,
    id: NameId,
    name: &str,
    self_closing: bool,
) {
    if self_closing {
        if *pending_pos == pending.len() {
            pending.clear();
            *pending_pos = 0;
        }
        pending.push_end(id, name);
    } else {
        let off = stack_buf.len() as u32;
        stack_buf.push_str(name);
        stack.push((off, id));
    }
}

/// Ensure the structural index covers the current parse position
/// (`offset` = stream offset of `buf[0]`), re-anchoring when the parse has
/// moved past — or, after an incremental rollback, before — the covered
/// range. Returns the index-relative position of `buf[0]`.
///
/// One anchor batch serves the next few hundred events; classification is
/// amortized to ~one pass per input byte. Free function (not a method) so
/// it can run while `buf` still borrows the source field.
#[inline]
fn ensure_index(scanner: Scanner, idx: &mut StructuralIndex, offset: u64, buf: &[u8]) -> usize {
    if let Some(d) = offset.checked_sub(idx.origin()) {
        if d < idx.covered() as u64 {
            let d = d as usize;
            // A batch ending mid-block (the anchor ran out of window) can't
            // be extended in place; if the window has since grown past it —
            // an incremental feed landed — re-anchor so `extend` always
            // continues from a block-aligned boundary.
            if idx.covered().is_multiple_of(BLOCK) || idx.covered() - d >= buf.len() {
                return d;
            }
        }
    }
    scanner.anchor(idx, offset, buf);
    0
}

/// First `<` (`gt == false`) or `>` (`gt == true`) in the window, searching
/// the index from position `*delta` (= the window start) and classifying
/// more of the window while uncovered bytes remain. Returns a
/// window-relative position; `None` means the construct crosses the window
/// (the caller falls back to the accumulating path, exactly as the raw
/// byte-search did).
///
/// On a miss past the covered range the index is *re-anchored* at the
/// window start (updating `*delta` for the caller's later mask queries)
/// rather than extended in place: extension would let the index span the
/// whole stream on a one-shot source, growing mask storage with document
/// size. Re-anchoring bounds it at one anchor batch plus one construct;
/// only the partial tail beyond the old coverage is classified twice.
/// In-place extension still handles a single construct outgrowing a fresh
/// anchor (`*delta == 0`).
#[inline]
fn find_structural(
    scanner: Scanner,
    idx: &mut StructuralIndex,
    offset: u64,
    delta: &mut usize,
    buf: &[u8],
    gt: bool,
) -> Option<usize> {
    let mut from = *delta;
    loop {
        let hit = if gt { idx.first_gt(from) } else { idx.first_lt(from) };
        if let Some(p) = hit {
            return Some(p - *delta);
        }
        let covered_rel = idx.covered() - *delta;
        if covered_rel >= buf.len() {
            return None;
        }
        if *delta > 0 {
            scanner.anchor(idx, offset, buf);
            *delta = 0;
            from = 0;
        } else {
            from = idx.covered();
            scanner.extend(idx, &buf[covered_rel..]);
        }
    }
}

/// [`find_structural`] for the burst walk of [`InPlace::skip_events`]: the
/// window is anchored at the *burst start* (which never moves — the walk
/// does not consume), so the search position `start` is an arbitrary
/// window-relative offset rather than always `0`. `shift` maps
/// window-relative positions to index positions (`idx_pos = pos + shift`);
/// it goes negative once the walk re-anchors mid-window. The re-anchor
/// policy is the same as [`find_structural`]'s: anchor at the current
/// search position when the walk has moved past the batch start (bounding
/// mask storage at one anchor batch regardless of burst length), extend in
/// place only while sitting on a fresh anchor.
#[inline]
fn skip_find(
    scanner: Scanner,
    idx: &mut StructuralIndex,
    off0: u64,
    shift: &mut isize,
    buf: &[u8],
    start: usize,
    gt: bool,
) -> Option<usize> {
    loop {
        let from = start.wrapping_add_signed(*shift);
        let hit = if gt { idx.first_gt(from) } else { idx.first_lt(from) };
        if let Some(p) = hit {
            return Some(p.wrapping_add_signed(-*shift));
        }
        let covered_rel = idx.covered().wrapping_add_signed(-*shift);
        if covered_rel >= buf.len() {
            return None;
        }
        if from > 0 {
            scanner.anchor(idx, off0 + start as u64, &buf[start..]);
            *shift = -(start as isize);
        } else {
            scanner.extend(idx, &buf[covered_rel..]);
        }
    }
}

/// Streaming pull parser. See the [module documentation](self).
pub struct Reader<R> {
    src: R,
    st: ParseState,
}

/// Everything a parse carries except its bytes. Every parse routine is a
/// method here taking the byte source as a parameter, so one state can be
/// driven over whichever window currently holds the stream's next bytes —
/// a blocking `BufRead`, the incremental reader's own buffer, or the
/// caller's chunk during [`Reader::feed_in_place`].
struct ParseState {
    opts: ReaderOptions,
    /// Stage-1 structural classifier, resolved once from
    /// `opts.scanner` (see [`crate::scan`]).
    scanner: Scanner,
    /// Reusable stage-1 output the fast paths parse from.
    sidx: StructuralIndex,
    /// Bytes consumed via the structural fast paths (telemetry).
    fast_bytes: u64,
    /// Bytes consumed via the accumulating general path (telemetry).
    general_bytes: u64,
    /// Name resolutions answered by the `Symbols` quick table (telemetry).
    quick_hits: u64,
    /// Name resolutions that fell through to the FNV map (telemetry).
    quick_misses: u64,
    /// Static vocabulary for [`Reader::next_resolved`]; without it every
    /// name resolves to [`NameId::UNKNOWN`].
    symbols: Option<Arc<Symbols>>,
    /// Open elements: `(offset into stack_buf, resolved id)`. The name
    /// bytes live in `stack_buf`, so opening an element allocates nothing.
    stack: Vec<(u32, NameId)>,
    stack_buf: String,
    /// Queued events (attribute conversion, self-closing end tags), arena
    /// backed — no per-event allocation.
    pending: EventBuf,
    pending_pos: usize,
    slot: Slot,
    /// Resolved id of the tag in `name_buf` (slots `StartName`/`EndName`).
    cur_id: NameId,
    text_buf: String,
    name_buf: String,
    /// Scratch for synthesized `{element}_{attribute}` names.
    synth_buf: String,
    /// Scratch spans for the attribute fast path: `(name, value)` byte
    /// ranges of the tag body, validated before anything is mutated.
    attr_spans: Vec<(u32, u32, u32, u32)>,
    raw: Vec<u8>,
    /// Bytes of the source's buffered window that belong to the event
    /// currently held in `slot` (zero-copy text): consumed on the next
    /// pull, after the borrow ends.
    defer_consume: usize,
    offset: u64,
    seen_root: bool,
    /// True when the next bytes to parse are the inside of a `<…>` tag (the
    /// `<` has already been consumed while scanning text).
    in_tag: bool,
    finished: bool,
}

impl<'s> Reader<&'s [u8]> {
    /// Parse from an in-memory string.
    #[allow(clippy::should_implement_trait)] // fallible trait shape does not fit
    pub fn from_str(s: &'s str) -> Self {
        Self::new(s.as_bytes(), ReaderOptions::default())
    }
}

impl ParseState {
    fn new(opts: ReaderOptions) -> Self {
        ParseState {
            opts,
            scanner: Scanner::with_choice(opts.scanner),
            sidx: StructuralIndex::new(),
            fast_bytes: 0,
            general_bytes: 0,
            quick_hits: 0,
            quick_misses: 0,
            symbols: None,
            stack: Vec::new(),
            stack_buf: String::new(),
            pending: EventBuf::new(),
            pending_pos: 0,
            slot: Slot::None,
            cur_id: NameId::UNKNOWN,
            text_buf: String::new(),
            name_buf: String::new(),
            synth_buf: String::new(),
            attr_spans: Vec::new(),
            raw: Vec::new(),
            defer_consume: 0,
            offset: 0,
            seen_root: false,
            in_tag: false,
            finished: false,
        }
    }
}

impl<R> Reader<R> {
    /// Create a reader over any buffered byte source.
    pub fn new(src: R, opts: ReaderOptions) -> Self {
        Reader { src, st: ParseState::new(opts) }
    }

    /// Create a reader that resolves tag names against a shared symbol
    /// table (see the [module docs](self)).
    pub fn with_symbols(src: R, opts: ReaderOptions, symbols: Arc<Symbols>) -> Self {
        let mut r = Self::new(src, opts);
        r.st.symbols = Some(symbols);
        r
    }

    /// Number of bytes consumed from the source so far.
    pub fn offset(&self) -> u64 {
        self.st.offset
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        // An End event just delivered from the fast path leaves its pop
        // pending until the next pull; it is closed as far as callers are
        // concerned.
        self.st.stack.len() - usize::from(matches!(self.st.slot, Slot::StackPop))
    }

    /// Scan-path observability: selected backend and bytes consumed per
    /// path. See [`ScanTelemetry`] for why this never affects equality.
    pub fn scan_telemetry(&self) -> ScanTelemetry {
        ScanTelemetry {
            backend: self.st.scanner.backend(),
            fast_path_bytes: self.st.fast_bytes,
            general_path_bytes: self.st.general_bytes,
        }
    }

    /// Quick-resolve cache counters `(hits, misses)` — see
    /// [`Symbols::resolve_traced`]. Telemetry only; never serialized.
    pub fn quick_counters(&self) -> (u64, u64) {
        (self.st.quick_hits, self.st.quick_misses)
    }
}

impl<R: BufRead> Reader<R> {
    /// Pull the next event. Returns `Ok(None)` at a well-formed end of
    /// document. The returned event borrows from the reader and must be
    /// released (dropped) before the next call.
    pub fn next_event(&mut self) -> Result<Option<Event<'_>>, XmlError> {
        Ok(self.next_resolved()?.map(ResolvedEvent::to_event))
    }

    /// Pull the next event with its tag name resolved to a [`NameId`]
    /// (see the [module docs](self)). Identical stream to
    /// [`Reader::next_event`], plus ids.
    ///
    /// Dispatches to a zero-copy fast path whenever the next construct sits
    /// entirely inside the source's buffered window and has the common
    /// shape (entity-free ASCII text, attribute-free ASCII tags); anything
    /// else — buffer boundaries, entities, attributes, comments, CDATA,
    /// DOCTYPE, non-ASCII names — takes the general accumulating path,
    /// which the fast path leaves completely untouched on fallback.
    pub fn next_resolved(&mut self) -> Result<Option<ResolvedEvent<'_>>, XmlError> {
        if !self.st.advance(&mut self.src)? {
            return Ok(None);
        }
        // Only a zero-copy text event reads the window (still held by
        // `defer_consume`); anything else must not touch the source, which
        // for a drained `BufReader` would mean a read the caller never
        // asked for.
        let window = match self.st.slot {
            Slot::SrcText { .. } => self.src.fill_buf().map_err(|e| XmlError {
                kind: XmlErrorKind::Io(e.to_string()),
                offset: self.st.offset,
            })?,
            _ => &[],
        };
        Ok(Some(self.st.current(window)))
    }

    /// Drain the whole document into owned events (testing convenience).
    pub fn read_to_end(&mut self) -> Result<Vec<OwnedEvent>, XmlError> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event()? {
            out.push(ev.to_owned());
        }
        Ok(out)
    }
}

impl ParseState {
    fn err<T>(&self, kind: XmlErrorKind) -> Result<T, XmlError> {
        Err(XmlError { kind, offset: self.offset })
    }

    /// Commit what the previously delivered event left borrowed: a
    /// zero-copy text run still held in the source window, or an End
    /// event's name still on top of the element stack.
    fn commit_deferred<R: BufRead>(&mut self, src: &mut R) {
        if self.defer_consume > 0 {
            src.consume(self.defer_consume);
            self.defer_consume = 0;
        }
        if let Slot::StackPop = self.slot {
            let (off, _) = self.stack.pop().expect("deferred pop has an open element");
            self.stack_buf.truncate(off as usize);
            self.slot = Slot::None;
        }
    }

    /// Parse up to the next event, leaving it described in `self.slot`.
    /// Returns `false` at a well-formed end of document. Split from the
    /// event materialization ([`ParseState::current`]) so the incremental
    /// mode can inspect reader state between parsing and borrowing the
    /// event.
    fn advance<R: BufRead>(&mut self, src: &mut R) -> Result<bool, XmlError> {
        self.commit_deferred(src);
        loop {
            // Deliver queued events first (attribute conversion etc.).
            if self.pending_pos < self.pending.len() {
                self.slot = Slot::Pending(self.pending_pos);
                self.pending_pos += 1;
                break;
            }
            if self.finished {
                return Ok(false);
            }
            if self.in_tag {
                self.in_tag = false;
                match self.fast_tag(src)? {
                    Fast::Emitted => break,
                    Fast::Skipped => continue,
                    Fast::Fallback => {
                        if self.parse_tag(src)? {
                            break;
                        }
                        continue; // comment / PI / doctype: nothing to report
                    }
                }
            }
            match self.fast_text(src)? {
                Fast::Emitted => break,
                Fast::Skipped => continue,
                Fast::Fallback => {}
            }
            // General path: scan character data until the next '<',
            // accumulating across buffer refills.
            self.raw.clear();
            let n = src.read_until(b'<', &mut self.raw).map_err(|e| XmlError {
                kind: XmlErrorKind::Io(e.to_string()),
                offset: self.offset,
            })?;
            self.offset += n as u64;
            self.general_bytes += n as u64;
            let saw_lt = self.raw.last() == Some(&b'<');
            let text_len = if saw_lt { self.raw.len() - 1 } else { self.raw.len() };
            let had_text = self.take_text(text_len)?;
            if saw_lt {
                self.in_tag = true;
            } else {
                // EOF.
                if !self.stack.is_empty() {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                if !self.seen_root {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.finished = true;
            }
            if had_text {
                self.slot = Slot::Text;
                break;
            }
        }
        Ok(true)
    }

    /// Materialize the event described by `self.slot` (set by
    /// [`ParseState::advance`]). `window` is the source's unconsumed
    /// window; only a [`Slot::SrcText`] event reads it.
    fn current<'a>(&'a self, window: &'a [u8]) -> ResolvedEvent<'a> {
        match &self.slot {
            Slot::Text => ResolvedEvent::Text(&self.text_buf),
            Slot::SrcText { len } => {
                let run = &window[..*len];
                debug_assert!(run.is_ascii(), "SrcText runs are scanner-verified ASCII");
                // SAFETY: `fast_text` emits `SrcText` only when the
                // structural scan's high-bit class over this exact run was
                // empty — the bytes are pure ASCII, hence valid UTF-8, and
                // the window cannot have moved (consume is deferred until
                // the next pull).
                let s = unsafe { std::str::from_utf8_unchecked(run) };
                ResolvedEvent::Text(s)
            }
            Slot::EndName => ResolvedEvent::End(self.cur_id, &self.name_buf),
            Slot::StartName => ResolvedEvent::Start(self.cur_id, &self.name_buf),
            Slot::StackTop => {
                let &(off, id) = self.stack.last().expect("open element for start slot");
                ResolvedEvent::Start(id, &self.stack_buf[off as usize..])
            }
            Slot::StackPop => {
                let &(off, id) = self.stack.last().expect("open element for end slot");
                ResolvedEvent::End(id, &self.stack_buf[off as usize..])
            }
            Slot::Pending(i) => self.pending.get(*i).expect("pending index in range"),
            Slot::None => unreachable!("slot set before break"),
        }
    }

    /// Zero-copy text scan: when the run up to the next `<` sits inside the
    /// buffered window and is entity-free ASCII, the text event borrows the
    /// window directly — no copy into `raw` or `text_buf`, and dropped
    /// whitespace runs are never even UTF-8 validated.
    fn fast_text<R: BufRead>(&mut self, src: &mut R) -> Result<Fast, XmlError> {
        let buf = src
            .fill_buf()
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        if buf.is_empty() {
            // EOF, with nothing pending: same checks as the general path.
            if !self.stack.is_empty() || !self.seen_root {
                return self.err(XmlErrorKind::UnexpectedEof);
            }
            self.finished = true;
            return Ok(Fast::Skipped);
        }
        if buf[0] == b'<' {
            src.consume(1);
            self.offset += 1;
            self.fast_bytes += 1;
            self.in_tag = true;
            return Ok(Fast::Skipped);
        }
        // Stage 2 against the shared amortized index: find the `<`, then
        // read the run's properties straight from the masks.
        let mut delta = ensure_index(self.scanner, &mut self.sidx, self.offset, buf);
        let found =
            find_structural(self.scanner, &mut self.sidx, self.offset, &mut delta, buf, false);
        let Some(pos) = found else {
            return Ok(Fast::Fallback); // run crosses the window: accumulate
        };
        let (any_hi, any_amp, any_nonws) = self.sidx.text_props(delta, delta + pos);
        if any_hi || any_amp {
            return Ok(Fast::Fallback); // entities / non-ASCII: decode path
        }
        let emit = if !any_nonws {
            // Whitespace-only: reported only on request, inside the root.
            self.opts.keep_whitespace && !self.stack.is_empty()
        } else {
            if self.stack.is_empty() {
                // Report the error at the end of the run without moving
                // `self.offset`: nothing is consumed here, and the index
                // anchors on `offset` matching the window start.
                return Err(XmlError {
                    kind: XmlErrorKind::TextOutsideRoot,
                    offset: self.offset + pos as u64 + 1,
                });
            }
            true
        };
        self.offset += pos as u64 + 1;
        self.fast_bytes += pos as u64 + 1;
        self.in_tag = true;
        if emit {
            self.defer_consume = pos + 1;
            self.slot = Slot::SrcText { len: pos };
            Ok(Fast::Emitted)
        } else {
            src.consume(pos + 1);
            Ok(Fast::Skipped)
        }
    }

    /// Zero-copy tag parse: attribute-free ASCII start and end tags whose
    /// `>` sits inside the buffered window. Everything else (comments,
    /// CDATA, DOCTYPE, PIs, attributes, unicode names, mismatch errors)
    /// falls back to the general path, which re-reads the same bytes.
    fn fast_tag<R: BufRead>(&mut self, src: &mut R) -> Result<Fast, XmlError> {
        let buf = src
            .fill_buf()
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        let mut delta = ensure_index(self.scanner, &mut self.sidx, self.offset, buf);
        let found =
            find_structural(self.scanner, &mut self.sidx, self.offset, &mut delta, buf, true);
        let Some(pos) = found else {
            return Ok(Fast::Fallback);
        };
        let body = &buf[..pos];
        match body.first() {
            None => Ok(Fast::Fallback), // `<>`: let the general path error
            Some(b'!' | b'?') => Ok(Fast::Fallback),
            Some(b'/') => {
                // End tag: the byte-compare against the open element *is*
                // the validity check; any mismatch (including trailing
                // whitespace or bad names) goes to the general path.
                let name = &body[1..];
                match self.stack.last() {
                    Some(&(off, _)) if self.stack_buf.as_bytes()[off as usize..] == *name => {
                        // Emit straight from the stack arena; the pop is
                        // deferred until the borrow ends (next pull).
                        src.consume(pos + 1);
                        self.offset += pos as u64 + 1;
                        self.fast_bytes += pos as u64 + 1;
                        self.slot = Slot::StackPop;
                        Ok(Fast::Emitted)
                    }
                    _ => Ok(Fast::Fallback),
                }
            }
            Some(&first) => {
                // Start tag. Name must be ASCII; after it either nothing, a
                // bare `/`, or an ASCII attribute list (handled by
                // `fast_attr_tag`); anything else falls back.
                if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
                    return Ok(Fast::Fallback);
                }
                if self.seen_root && self.stack.is_empty() {
                    return Ok(Fast::Fallback); // TrailingContent error path
                }
                // The index found the `>`, so it covers the whole tag body;
                // the name/attribute runs below parse from the same masks.
                let i = (self.sidx.name_run(delta + 1) - delta).min(body.len());
                let self_closing = match body.len() - i {
                    0 => false,
                    1 if body[i] == b'/' => true,
                    _ => return self.fast_attr_tag(src, delta, pos, i),
                };
                let name = std::str::from_utf8(&body[..i]).expect("ASCII-checked name");
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                self.seen_root = true;
                if self_closing {
                    // The end event goes to `pending`; the start borrows
                    // `name_buf` since nothing stays on the stack.
                    self.cur_id = id;
                    self.name_buf.clear();
                    self.name_buf.push_str(name);
                }
                open_element(
                    &mut self.pending,
                    &mut self.pending_pos,
                    &mut self.stack,
                    &mut self.stack_buf,
                    id,
                    name,
                    self_closing,
                );
                src.consume(pos + 1);
                self.offset += pos as u64 + 1;
                self.fast_bytes += pos as u64 + 1;
                self.slot = if self_closing { Slot::StartName } else { Slot::StackTop };
                Ok(Fast::Emitted)
            }
        }
    }

    /// Fast path for attribute-bearing ASCII start tags (the previously
    /// missing piece of the zero-copy path — XSAX conversion used to take
    /// the allocating fallback for every attributed tag). The attribute
    /// list is validated and sliced directly from the buffered window, then
    /// the conversion is synthesized straight into the pending arena: no
    /// raw-buffer accumulation, no UTF-8 revalidation, no per-attribute
    /// `String`s. Any deviation from the clean shape — non-ASCII bytes,
    /// entities in values, malformed syntax, reject mode — falls back with
    /// nothing consumed or mutated, and the general path re-reads the same
    /// bytes (so error offsets stay identical to the accumulating path).
    ///
    /// `delta` is the window start's position in the structural index,
    /// `pos` the index of the closing `>` in the buffered window, and
    /// `name_len` the length of the already-validated element name.
    fn fast_attr_tag<R: BufRead>(
        &mut self,
        src: &mut R,
        delta: usize,
        pos: usize,
        name_len: usize,
    ) -> Result<Fast, XmlError> {
        if matches!(self.opts.attributes, AttributeMode::Reject) {
            return Ok(Fast::Fallback); // pure error path; let the slow path report it
        }
        let buf = src
            .fill_buf()
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        let body = &buf[..pos];
        let ParseState { sidx, attr_spans, pending, pending_pos, stack, stack_buf, .. } = self;
        // `fast_tag` just found the `>` through this same (unconsumed)
        // window, so the index covers at least `delta + pos + 1` bytes and
        // is queried here at `delta`-shifted positions.
        debug_assert!(sidx.covered() > delta + pos);
        if sidx.any_hi(delta, delta + pos) {
            return Ok(Fast::Fallback);
        }
        // Phase 1: validate the whole attribute list before mutating
        // anything (`Fast::Fallback` must leave no trace).
        attr_spans.clear();
        let mut self_closing = false;
        let mut i = name_len;
        loop {
            // The `>` at `pos` is in no whitespace/name class, so the
            // mask-run queries below never pass `body.len()`.
            i = sidx.skip_ws(delta + i) - delta;
            if i == body.len() {
                break;
            }
            if body[i] == b'/' {
                if i + 1 == body.len() {
                    self_closing = true;
                    break;
                }
                return Ok(Fast::Fallback);
            }
            let ns = i;
            if !(body[i].is_ascii_alphabetic() || body[i] == b'_' || body[i] == b':') {
                return Ok(Fast::Fallback);
            }
            let ne = sidx.name_run(delta + i + 1) - delta;
            i = sidx.skip_ws(delta + ne) - delta;
            if i == body.len() || body[i] != b'=' {
                return Ok(Fast::Fallback);
            }
            i = sidx.skip_ws(delta + i + 1) - delta;
            if i == body.len() || (body[i] != b'"' && body[i] != b'\'') {
                return Ok(Fast::Fallback);
            }
            let quote = body[i];
            let vs = i + 1;
            // `&` needs entity decoding — the general path owns that; a
            // close quote at or past the `>` means the value runs off the
            // tag body, which the general path rejects too.
            i = match sidx.value_end(delta + vs, quote).map(|end| end - delta) {
                Some(end) if end < body.len() && body[end] == quote => end,
                _ => return Ok(Fast::Fallback),
            };
            attr_spans.push((ns as u32, ne as u32, vs as u32, i as u32));
            i += 1;
        }
        // Phase 2: commit. All slices are ASCII-checked above.
        let name = std::str::from_utf8(&body[..name_len]).expect("ASCII-checked name");
        let mut resolve = |n: &str| {
            resolve_counted(&self.symbols, &mut self.quick_hits, &mut self.quick_misses, n)
        };
        let id = resolve(name);
        self.seen_root = true;
        let emitted = if attr_spans.is_empty() || self.opts.attributes == AttributeMode::Drop {
            // `<a  >` / drop mode: a plain start tag.
            open_element(pending, pending_pos, stack, stack_buf, id, name, self_closing);
            self.slot = if self_closing {
                self.cur_id = id;
                self.name_buf.clear();
                self.name_buf.push_str(name);
                Slot::StartName
            } else {
                Slot::StackTop
            };
            true
        } else {
            // XSAX conversion into the pending arena, exactly as the
            // general path does it (which guarantees the batch invariant:
            // the previous batch was fully delivered before a new tag).
            if *pending_pos == pending.len() {
                pending.clear();
                *pending_pos = 0;
            }
            pending.push_start(id, name);
            for &(ns, ne, vs, ve) in attr_spans.iter() {
                let attr = std::str::from_utf8(&body[ns as usize..ne as usize])
                    .expect("ASCII-checked attribute name");
                converted_name_into(name, attr, &mut self.synth_buf);
                let synth_buf = &self.synth_buf;
                let sub_id = resolve(synth_buf);
                pending.push_start(sub_id, synth_buf);
                if ve > vs {
                    let value = std::str::from_utf8(&body[vs as usize..ve as usize])
                        .expect("ASCII-checked attribute value");
                    pending.push_text(value);
                }
                pending.push_end(sub_id, synth_buf);
            }
            open_element(pending, pending_pos, stack, stack_buf, id, name, self_closing);
            false // caller loop pops from `pending`
        };
        src.consume(pos + 1);
        self.offset += pos as u64 + 1;
        self.fast_bytes += pos as u64 + 1;
        Ok(if emitted { Fast::Emitted } else { Fast::Skipped })
    }

    /// Decode and stash the first `len` bytes of `self.raw` as character
    /// data; returns whether a text event should be emitted.
    fn take_text(&mut self, len: usize) -> Result<bool, XmlError> {
        if len == 0 {
            return Ok(false);
        }
        let s = std::str::from_utf8(&self.raw[..len])
            .map_err(|_| XmlError { kind: XmlErrorKind::Utf8, offset: self.offset })?;
        let is_ws = s.chars().all(char::is_whitespace);
        if is_ws && (!self.opts.keep_whitespace || self.stack.is_empty()) {
            return Ok(false);
        }
        if self.stack.is_empty() {
            if is_ws {
                return Ok(false);
            }
            return self.err(XmlErrorKind::TextOutsideRoot);
        }
        self.text_buf.clear();
        crate::escape::unescape_into(s, &mut self.text_buf)
            .map_err(|m| XmlError { kind: XmlErrorKind::Syntax(m), offset: self.offset })?;
        Ok(true)
    }

    /// Parse one `<…>` construct (the leading `<` is already consumed).
    /// Returns true when an event was produced (in `slot` or `pending`).
    fn parse_tag<R: BufRead>(&mut self, src: &mut R) -> Result<bool, XmlError> {
        self.raw.clear();
        let n = src
            .read_until(b'>', &mut self.raw)
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        self.offset += n as u64;
        self.general_bytes += n as u64;
        if self.raw.last() != Some(&b'>') {
            return self.err(XmlErrorKind::UnexpectedEof);
        }
        self.raw.pop();

        // Comments, CDATA and DOCTYPE may legitimately contain '>'.
        if self.raw.starts_with(b"!--") {
            while !self.raw.ends_with(b"--") || self.raw.len() < 5 {
                let m = src.read_until(b'>', &mut self.raw).map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                if m == 0 {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.offset += m as u64;
                self.general_bytes += m as u64;
                if self.raw.last() == Some(&b'>') {
                    self.raw.pop();
                } else {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
            }
            return Ok(false);
        }
        if self.raw.starts_with(b"![CDATA[") {
            while !self.raw.ends_with(b"]]") {
                // The '>' we consumed was CDATA content, not the terminator.
                self.raw.push(b'>');
                let m = src.read_until(b'>', &mut self.raw).map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                if m == 0 {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.offset += m as u64;
                self.general_bytes += m as u64;
                if self.raw.last() == Some(&b'>') {
                    self.raw.pop();
                } else {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
            }
            if self.stack.is_empty() {
                return self.err(XmlErrorKind::TextOutsideRoot);
            }
            let inner = &self.raw[8..self.raw.len() - 2];
            let s = std::str::from_utf8(inner)
                .map_err(|_| XmlError { kind: XmlErrorKind::Utf8, offset: self.offset })?;
            self.text_buf.clear();
            self.text_buf.push_str(s);
            self.slot = Slot::Text;
            return Ok(true);
        }
        if self.raw.starts_with(b"!") {
            // DOCTYPE (possibly with an internal subset containing '>').
            let mut depth = self.raw.iter().filter(|&&b| b == b'[').count() as i64
                - self.raw.iter().filter(|&&b| b == b']').count() as i64;
            while depth > 0 {
                let m = src.read_until(b'>', &mut self.raw).map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                if m == 0 {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.offset += m as u64;
                self.general_bytes += m as u64;
                let added = &self.raw[self.raw.len() - m..];
                depth += added.iter().filter(|&&b| b == b'[').count() as i64
                    - added.iter().filter(|&&b| b == b']').count() as i64;
                if self.raw.last() == Some(&b'>') {
                    self.raw.pop();
                } else {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
            }
            return Ok(false);
        }
        if self.raw.starts_with(b"?") {
            // Processing instruction / XML declaration; ignored.
            return Ok(false);
        }

        let body = std::str::from_utf8(&self.raw)
            .map_err(|_| XmlError { kind: XmlErrorKind::Utf8, offset: self.offset })?;
        if let Some(name_part) = body.strip_prefix('/') {
            // End tag. The match against the open element is the validity
            // check (the name was checked when it was opened); only the
            // mismatch path re-examines it.
            let name = name_part.trim();
            match self.stack.last().copied() {
                Some((off, id)) if self.stack_buf[off as usize..] == *name => {
                    self.stack.pop();
                    self.stack_buf.truncate(off as usize);
                    self.cur_id = id;
                    self.name_buf.clear();
                    self.name_buf.push_str(name);
                    self.slot = Slot::EndName;
                    return Ok(true);
                }
                top => {
                    check_name(name).map_err(|m| XmlError {
                        kind: XmlErrorKind::Syntax(m),
                        offset: self.offset,
                    })?;
                    let expected = top.map(|(off, _)| self.stack_buf[off as usize..].to_string());
                    return self
                        .err(XmlErrorKind::MismatchedTag { expected, found: name.to_string() });
                }
            }
        }

        // Start tag.
        if self.seen_root && self.stack.is_empty() {
            return self.err(XmlErrorKind::TrailingContent);
        }
        let (body, self_closing) = match body.strip_suffix('/') {
            Some(b) => (b, true),
            None => (body, false),
        };
        let body = body.trim_end();
        let name_end = body.find(|c: char| c.is_whitespace()).unwrap_or(body.len());
        let name = &body[..name_end];
        check_name(name)
            .map_err(|m| XmlError { kind: XmlErrorKind::Syntax(m), offset: self.offset })?;
        let attr_src = body[name_end..].trim();

        self.seen_root = true;
        if attr_src.is_empty() {
            // Fast path: no attributes. One hash, no allocation — the open
            // element's name bytes go to the flat stack arena.
            let id =
                resolve_counted(&self.symbols, &mut self.quick_hits, &mut self.quick_misses, name);
            self.cur_id = id;
            self.name_buf.clear();
            self.name_buf.push_str(name);
            open_element(
                &mut self.pending,
                &mut self.pending_pos,
                &mut self.stack,
                &mut self.stack_buf,
                id,
                name,
                self_closing,
            );
            self.slot = Slot::StartName;
            return Ok(true);
        }

        let attrs = parse_attributes(attr_src)
            .map_err(|m| XmlError { kind: XmlErrorKind::Syntax(m), offset: self.offset })?;
        match self.opts.attributes {
            AttributeMode::Reject => self.err(XmlErrorKind::AttributeRejected {
                element: name.to_string(),
                attribute: attrs[0].0.clone(),
            }),
            AttributeMode::Drop => {
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                self.cur_id = id;
                self.name_buf.clear();
                self.name_buf.push_str(name);
                open_element(
                    &mut self.pending,
                    &mut self.pending_pos,
                    &mut self.stack,
                    &mut self.stack_buf,
                    id,
                    name,
                    self_closing,
                );
                self.slot = Slot::StartName;
                Ok(true)
            }
            AttributeMode::ConvertToSubelements => {
                // XSAX conversion straight into the pending arena: the
                // element's start, one Start/Text/End triple per attribute
                // and (for self-closing tags) the end. The loop invariant
                // guarantees the previous pending batch was delivered.
                if self.pending_pos == self.pending.len() {
                    self.pending.clear();
                    self.pending_pos = 0;
                }
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                self.pending.push_start(id, name);
                for (attr, value) in &attrs {
                    converted_name_into(name, attr, &mut self.synth_buf);
                    let sub_id = resolve_counted(
                        &self.symbols,
                        &mut self.quick_hits,
                        &mut self.quick_misses,
                        &self.synth_buf,
                    );
                    self.pending.push_start(sub_id, &self.synth_buf);
                    if !value.is_empty() {
                        self.pending.push_text(value);
                    }
                    self.pending.push_end(sub_id, &self.synth_buf);
                }
                // The pending buffer is non-empty (start pushed above), so
                // `open_element` will not reclaim it mid-batch.
                open_element(
                    &mut self.pending,
                    &mut self.pending_pos,
                    &mut self.stack,
                    &mut self.stack_buf,
                    id,
                    name,
                    self_closing,
                );
                // Caller loop pops from `pending`.
                Ok(false)
            }
        }
    }
}

/// The bytes an incremental (sans-IO) reader owns between calls — no worker
/// thread, no blocking reads. After an in-place feed
/// ([`Reader::feed_in_place`]) `buf` is the *carry*: the unparsed tail of
/// the one construct the chunk ended in, nothing more. The owning door
/// ([`Reader::feed`]) appends whole chunks to the same buffer — the
/// degenerate case "the window is the carry" — and reclaims the parsed
/// prefix on the next feed. Running out of window is recorded in `hit_end`,
/// which the parse uses to distinguish "no more bytes *yet*" from true end
/// of input and to roll back attempts that ran off the end.
#[derive(Debug, Default)]
pub struct FeedSource {
    buf: Vec<u8>,
    /// Parse position in the active window (see [`Window`]).
    pos: usize,
    closed: bool,
    /// A read touched the end of the window while the source was open.
    hit_end: bool,
    /// Text-scan position hint: `window[pos..lt_scanned]` is known to
    /// contain no `<`. A text run fed in many tiny chunks is scanned once
    /// per *byte*, not once per *poll* — without the hint every poll
    /// re-scans the run from its start, worst-case O(n²) on pathological
    /// fragmentation. May lag behind `pos` (then it is simply ignored).
    lt_scanned: usize,
    /// Window generation, bumped whenever window offsets change meaning (a
    /// feed, a compaction, a switch between carry and chunk). Tape window
    /// spans record the generation they were taken against, so
    /// materializing a stale span is caught in debug builds.
    epoch: u64,
}

/// Capacity the carry may keep while (nearly) empty, so steady-state feeds
/// whose chunks end mid-construct do not allocate.
const CARRY_KEEP: usize = 4096;

/// First stitch prefix: how many bytes of a new chunk are copied behind a
/// non-empty carry before the first parse attempt (doubling from there).
const STITCH_MIN: usize = 64;

impl FeedSource {
    /// Reclaim the parsed prefix, and hand back capacity the tail no longer
    /// needs: `drain` and `clear` keep capacity, so without this a reader
    /// that once buffered a 1 MiB chunk (or construct) would pin 1 MiB for
    /// life while reporting a few unconsumed bytes.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.lt_scanned = self.lt_scanned.saturating_sub(self.pos);
            self.pos = 0;
        }
        if self.buf.capacity() > CARRY_KEEP.max(4 * self.buf.len()) {
            self.buf.shrink_to(2 * self.buf.len());
        }
    }
}

/// The bytes one parse call runs over: the source's own buffer, or — during
/// an in-place feed — the caller's chunk. A feed that finds a carry first
/// *stitches*: it copies a short prefix of the chunk behind the carry and
/// parses from that buffer until the position passes the old carry's end,
/// then switches to the chunk itself at the matching offset
/// ([`Window::advance`]). `src.pos`/`src.lt_scanned` always refer to the
/// active window.
struct Window<'a> {
    src: &'a mut FeedSource,
    /// The chunk being fed (empty for the owning door).
    chunk: &'a [u8],
    /// The active window is `chunk`, not `src.buf`.
    in_chunk: bool,
    /// Carry length when the feed began.
    tail: usize,
    /// Chunk bytes copied behind the carry so far.
    taken: usize,
    /// The parse reported the end of the fed bytes: whatever is unparsed is
    /// the tail the next feed needs.
    exhausted: bool,
}

impl<'a> Window<'a> {
    /// The owning door: the window is whatever the source holds.
    fn owned(src: &'a mut FeedSource) -> Self {
        Window { src, chunk: &[], in_chunk: false, tail: 0, taken: 0, exhausted: false }
    }

    /// Start an in-place feed of `chunk`.
    fn over(src: &'a mut FeedSource, chunk: &'a [u8]) -> Self {
        src.compact();
        src.epoch += 1;
        let tail = src.buf.len();
        let mut win = Window { src, chunk, in_chunk: tail == 0, tail, taken: 0, exhausted: false };
        if win.in_chunk {
            win.src.lt_scanned = 0;
        } else {
            win.stitch_more();
        }
        win
    }

    fn bytes(&self) -> &[u8] {
        if self.in_chunk {
            self.chunk
        } else {
            &self.src.buf
        }
    }

    /// Copy the next (doubling) prefix of the chunk behind the carry.
    fn stitch_more(&mut self) {
        let more = (self.chunk.len() - self.taken).min(self.taken.max(STITCH_MIN));
        self.src.buf.extend_from_slice(&self.chunk[self.taken..self.taken + more]);
        self.taken += more;
    }

    /// The parse ran out of window. Returns `true` when this feed has more
    /// bytes to offer — the rest of the chunk in place once the position is
    /// past everything the carry held, a longer stitch otherwise — and the
    /// attempt should be repeated. Events the tape recorded as spans into
    /// the stitch buffer are turned into arena copies before that buffer is
    /// dropped, so a batch never holds spans into two windows.
    fn advance(&mut self, tape: &mut EventTape) -> bool {
        if self.in_chunk || self.taken == self.chunk.len() {
            self.exhausted = true;
            return false;
        }
        if self.src.pos >= self.tail {
            tape.own_spans(&self.src.buf);
            self.src.pos -= self.tail;
            self.src.lt_scanned = self.src.lt_scanned.saturating_sub(self.tail);
            self.src.buf.clear();
            self.src.epoch += 1;
            tape.epoch = self.src.epoch;
            self.in_chunk = true;
        } else {
            self.stitch_more();
        }
        true
    }

    /// End an in-place feed: the unparsed tail of the chunk becomes the
    /// carry. A run that stopped early (a parse or engine error — the
    /// reader is never polled again) carries nothing. A window that is the
    /// source's own buffer (the owning door, or a chunk that fit the stitch
    /// whole) stays as it is; the next feed compacts it.
    fn park(&mut self) {
        if !self.in_chunk {
            return;
        }
        if self.exhausted {
            self.src.buf.extend_from_slice(&self.chunk[self.src.pos..]);
        }
        self.src.lt_scanned = self.src.lt_scanned.saturating_sub(self.src.pos);
        self.src.pos = 0;
        self.src.epoch += 1;
        self.src.compact();
    }
}

impl io::Read for Window<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// `fill_buf` exposes the whole unconsumed window, so the zero-copy fast
/// paths see maximal runs.
impl BufRead for Window<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.src.pos >= self.bytes().len() && !self.src.closed {
            self.src.hit_end = true;
        }
        Ok(&self.bytes()[self.src.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.src.pos = (self.src.pos + amt).min(self.bytes().len());
    }
}

/// One step of the incremental parse ([`Reader::poll_resolved`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled<'a> {
    /// The next event of the stream.
    Event(ResolvedEvent<'a>),
    /// The fed bytes end mid-construct: [`Reader::feed`] more (or
    /// [`Reader::close`]) and poll again.
    NeedMoreData,
    /// The source is closed and the document fully parsed.
    End,
}

/// Outcome of one [`Reader::fill_tape`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeFill {
    /// The batch reached capacity: drain the tape and fill again.
    Full,
    /// The fed bytes ended mid-construct: drain the tape, then
    /// [`Reader::feed`] more (or [`Reader::close`]) and fill again.
    NeedMoreData,
    /// The source is closed and the document fully parsed.
    End,
}

/// Outcome of one [`InPlace::skip_events`] structural fast-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipPoll {
    /// The subtree is fully scanned past: `events` interior events were
    /// skipped, and the end tag closing it is next — still unconsumed (the
    /// next [`Reader::fill_tape`] batch opens with it), unless the general
    /// machinery had already committed it, in which case it is the single
    /// event on the tape passed in (drain it before the next fill).
    Closed { events: u64 },
    /// The fed bytes ran out `depth` levels inside the subtree after
    /// skipping `events` events: [`Reader::feed`] more (or
    /// [`Reader::close`]) and re-enter.
    More { events: u64, depth: u32 },
}

/// Rollback point for the incremental mode: everything an event-parse
/// attempt may mutate *before* the construct is known to fit in the
/// window, the byte counters included — so a repeated attempt (more bytes
/// arrived, or the window moved from a stitch to the chunk) counts every
/// stream byte once. State the parser only touches once a construct is
/// complete (pending-arena reclaim, element-stack pops) needs no undo —
/// completion is immediately followed by event delivery, never by another
/// source read.
#[derive(Clone, Copy)]
struct Checkpoint {
    src_pos: usize,
    offset: u64,
    fast_bytes: u64,
    general_bytes: u64,
    seen_root: bool,
    in_tag: bool,
    finished: bool,
    stack_len: usize,
    stack_buf_len: usize,
    pending_len: usize,
    pending_pos: usize,
}

/// Outcome of one rolled-back-on-exhaustion step of the general machinery
/// ([`ParseState::try_advance`]).
enum Step {
    /// An event is parsed and described by the slot.
    Event,
    /// The window ended mid-construct; the state is back at the checkpoint.
    NeedMoreData,
    /// The source is closed and the document fully parsed.
    End,
}

impl Reader<FeedSource> {
    /// An incremental reader: push bytes with [`Reader::feed`], pull events
    /// with [`Reader::poll_resolved`]. See the [module docs](self).
    pub fn incremental(opts: ReaderOptions) -> Reader<FeedSource> {
        Reader::new(FeedSource::default(), opts)
    }

    /// [`Reader::incremental`] resolving names against a shared symbol
    /// table, like [`Reader::with_symbols`].
    pub fn incremental_with_symbols(
        opts: ReaderOptions,
        symbols: Arc<Symbols>,
    ) -> Reader<FeedSource> {
        Reader::with_symbols(FeedSource::default(), opts, symbols)
    }

    /// Append the next chunk of the document. Chunks may split the XML at
    /// any byte boundary, including inside tags and multi-byte characters.
    ///
    /// This is the *owning* door: every byte of `bytes` is copied into the
    /// reader's buffer and stays there until a later feed reclaims the
    /// parsed prefix, which lets [`Reader::poll_resolved`],
    /// [`Reader::fill_tape`] and [`Reader::tape_event`] be called at
    /// leisure afterwards. A caller that can parse while it still holds
    /// the chunk uses [`Reader::feed_in_place`], which copies only the
    /// unparsed tail.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.src.compact();
        self.src.buf.extend_from_slice(bytes);
        self.src.epoch += 1;
    }

    /// Feed the next chunk *without copying it*: for the lifetime of the
    /// returned [`InPlace`] the reader's window is `chunk` itself, and
    /// every parse call on it runs over the caller's bytes where they lie.
    /// Only what cannot be parsed yet — the tail of the one tag or text run
    /// the chunk ends in — is copied, into a small carry, when the
    /// [`InPlace`] is dropped; the next feed stitches that carry to a short
    /// prefix of its chunk to get across the seam. The event stream, every
    /// error and its offset, and the serialized state are identical to
    /// [`Reader::feed`] with the same chunks.
    ///
    /// Drive the parse to [`TapeFill::NeedMoreData`] / [`SkipPoll::More`]
    /// before dropping: bytes a feed leaves unparsed for any other reason
    /// (the caller stopped on an error) are not carried.
    pub fn feed_in_place<'a>(&'a mut self, chunk: &'a [u8]) -> InPlace<'a> {
        InPlace { st: &mut self.st, win: Window::over(&mut self.src, chunk) }
    }

    /// The owning door's view of its own buffer.
    fn window(&mut self) -> InPlace<'_> {
        InPlace { st: &mut self.st, win: Window::owned(&mut self.src) }
    }

    /// Signal end of input: subsequent polls parse to completion instead of
    /// asking for more data.
    pub fn close(&mut self) {
        self.src.closed = true;
    }

    /// Has [`Reader::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.src.closed
    }

    /// Bytes fed but not yet consumed by the parser (at a quiescent point:
    /// the tail of an incomplete construct).
    pub fn unconsumed_bytes(&self) -> usize {
        self.src.buf.len() - self.src.pos
    }

    /// Parse the next event from the fed bytes. Returns
    /// [`Polled::NeedMoreData`] — with the reader state fully rolled back —
    /// when the bytes end mid-construct and the source is not closed, so
    /// the event stream (and every error, with its offset) is byte-for-byte
    /// identical to a blocking [`Reader::next_resolved`] run over the
    /// concatenation of the chunks.
    pub fn poll_resolved(&mut self) -> Result<Polled<'_>, XmlError> {
        let Reader { src, st } = self;
        let mut win = Window::owned(src);
        // Commit the previous event's deferred borrows before taking the
        // checkpoint: its bytes are delivered and must never re-parse, and
        // rollback can only truncate the element stack.
        st.commit_deferred(&mut win);
        if st.text_needs_more(&mut win) {
            return Ok(Polled::NeedMoreData);
        }
        let cp = st.checkpoint(&win);
        Ok(match st.try_advance(&mut win, cp)? {
            Step::Event => Polled::Event(st.current(&src.buf[src.pos..])),
            Step::NeedMoreData => Polled::NeedMoreData,
            Step::End => Polled::End,
        })
    }

    /// [`InPlace::fill_tape`] over the reader's own buffer. Everything
    /// recorded must be drained (via [`Reader::tape_event`]) before the
    /// next [`Reader::feed`], which reclaims the bytes the tape's window
    /// spans point into.
    pub fn fill_tape(&mut self, tape: &mut EventTape) -> Result<TapeFill, XmlError> {
        self.window().fill_tape(tape)
    }

    /// [`InPlace::tape_event`] for a batch filled by [`Reader::fill_tape`].
    #[inline]
    pub fn tape_event<'a>(&'a self, tape: &'a EventTape, i: usize) -> ResolvedEvent<'a> {
        tape_event(&self.src.buf, self.src.epoch, tape, i)
    }

    /// Serialize the complete resumable parse state at a quiescent point
    /// (the last poll returned [`Polled::NeedMoreData`] or [`Polled::End`]).
    ///
    /// What is written: the unconsumed byte window (the tail of an
    /// incomplete construct), the stream offset of that window's start —
    /// which is exactly where a restored reader re-anchors its
    /// [`StructuralIndex`] — the open-element stack with resolved ids, the
    /// parser phase flags, and the per-path telemetry counters. The
    /// structural index itself, the scan hints and all scratch buffers are
    /// *re-derivable caches* and are deliberately not part of the format.
    pub fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        let st = &self.st;
        if st.defer_consume > 0 || matches!(st.slot, Slot::StackPop) {
            return Err(flux_state::StateError::NotQuiescent(
                "reader holds a deferred event borrow",
            ));
        }
        if st.pending_pos < st.pending.len() {
            return Err(flux_state::StateError::NotQuiescent(
                "reader has undelivered pending events",
            ));
        }
        enc.put_bytes(&self.src.buf[self.src.pos..]);
        enc.put_bool(self.src.closed);
        enc.put_uint(st.offset);
        enc.put_bool(st.seen_root);
        enc.put_bool(st.in_tag);
        enc.put_bool(st.finished);
        enc.put_usize(st.stack.len());
        for (i, &(off, id)) in st.stack.iter().enumerate() {
            let end = st.stack.get(i + 1).map_or(st.stack_buf.len(), |&(next, _)| next as usize);
            enc.put_uint(u64::from(id.0));
            enc.put_str(&st.stack_buf[off as usize..end]);
        }
        enc.put_uint(st.fast_bytes);
        enc.put_uint(st.general_bytes);
        Ok(())
    }

    /// Rebuild an incremental reader saved by [`Reader::state_save`].
    /// `opts` and `symbols` come from the compiled plan the snapshot was
    /// taken against (the caller has already verified the plan
    /// fingerprint); the structural index re-anchors lazily at the restored
    /// offset on the first poll.
    pub fn state_restore(
        opts: ReaderOptions,
        symbols: Arc<Symbols>,
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<Reader<FeedSource>, flux_state::StateError> {
        let mut r = Reader::incremental_with_symbols(opts, symbols);
        r.src.buf = dec.get_bytes()?.to_vec();
        r.src.closed = dec.get_bool()?;
        let st = &mut r.st;
        st.offset = dec.get_uint()?;
        st.seen_root = dec.get_bool()?;
        st.in_tag = dec.get_bool()?;
        st.finished = dec.get_bool()?;
        let depth = dec.get_count()?;
        for _ in 0..depth {
            let id = u32::try_from(dec.get_uint()?)
                .map_err(|_| flux_state::StateError::Corrupt("NameId exceeds u32"))?;
            let name = dec.get_str()?;
            let off = st.stack_buf.len() as u32;
            st.stack_buf.push_str(name);
            st.stack.push((off, NameId(id)));
        }
        st.fast_bytes = dec.get_uint()?;
        st.general_bytes = dec.get_uint()?;
        Ok(r)
    }
}

/// An incremental reader while one chunk is being fed in place (see
/// [`Reader::feed_in_place`]): the batched parse calls, run over the
/// caller's bytes. Dropping it ends the feed and carries the unparsed tail.
pub struct InPlace<'a> {
    st: &'a mut ParseState,
    win: Window<'a>,
}

impl InPlace<'_> {
    /// Parse as many events as fit into one tape batch. See
    /// [`crate::tape`] for the lifecycle; this is the batched sibling of
    /// [`Reader::poll_resolved`] — same state machine, same rollback
    /// discipline, same event stream — minus the per-event slot handshake:
    /// each event is recorded onto the tape as it is parsed, with deferred
    /// window/stack borrows committed immediately.
    ///
    /// On [`TapeFill::NeedMoreData`] only the trailing *partial* construct
    /// is rolled back; everything recorded stands and must be drained
    /// (via [`InPlace::tape_event`]) before this feed ends — the tape's
    /// window spans point into the chunk.
    pub fn fill_tape(&mut self, tape: &mut EventTape) -> Result<TapeFill, XmlError> {
        self.st.fill_tape(&mut self.win, tape)
    }

    /// Materialize one recorded tape event. Window spans borrow the chunk
    /// being fed (or, for the owning door, the reader's buffer); arena
    /// spans borrow the tape.
    #[inline]
    pub fn tape_event<'t>(&'t self, tape: &'t EventTape, i: usize) -> ResolvedEvent<'t> {
        tape_event(self.win.bytes(), self.win.src.epoch, tape, i)
    }

    /// Structurally fast-forward over a subtree the consumer declared dead
    /// (a pump reporting `SkipSubtree`): parse past events until the end
    /// tag closing the subtree — `depth` unclosed levels deep at entry —
    /// is next, *counting* them but never recording, materializing or
    /// copying them. The common shape — entity-free text runs and
    /// attribute-free ASCII tags — costs one structural-index probe and a
    /// counter update per event; everything else (attributes, entities,
    /// comments, CDATA, window-crossing constructs) takes exactly one step
    /// of the identical general machinery per event.
    ///
    /// Transparency: byte accounting, name interning, stack discipline and
    /// error surfacing mirror [`InPlace::fill_tape`] pulling the same
    /// events, and a window-exhausted return rolls back to the same event
    /// boundary a per-event poll would report `NeedMoreData` from — so a
    /// snapshot taken at any quiescent point is byte-identical to a run
    /// that delivered every event.
    ///
    /// `tape` must be drained; it is written only when the general
    /// machinery has already committed the closing end tag, which then
    /// rides back as the tape's single event (see [`SkipPoll::Closed`]).
    pub fn skip_events(&mut self, depth: u32, tape: &mut EventTape) -> Result<SkipPoll, XmlError> {
        self.st.skip_events(&mut self.win, depth, tape)
    }
}

impl Drop for InPlace<'_> {
    fn drop(&mut self) {
        self.win.park();
    }
}

/// Materialize tape item `i` against the window its spans were recorded in.
#[inline]
fn tape_event<'a>(
    window: &'a [u8],
    epoch: u64,
    tape: &'a EventTape,
    i: usize,
) -> ResolvedEvent<'a> {
    let it = tape.item(i);
    let payload: &str = if it.window {
        debug_assert_eq!(tape.epoch, epoch, "tape drained after its window moved");
        let run = &window[it.off as usize..(it.off + it.len) as usize];
        debug_assert!(std::str::from_utf8(run).is_ok(), "window spans are verified UTF-8");
        // SAFETY: window spans are recorded only for bytes known to be
        // UTF-8 — scanner-verified ASCII (clean `SrcText` runs, lean burst
        // start tags: first byte ASCII-checked, rest a `name_run`) or, for
        // a lean end tag, bytes equal to the open element's name, a `str`;
        // the window has not moved between record and drain
        // (generation-checked above).
        unsafe { std::str::from_utf8_unchecked(run) }
    } else {
        tape.arena_str(it.off, it.len)
    };
    match it.kind {
        TapeKind::Start => ResolvedEvent::Start(it.id, payload),
        TapeKind::End => ResolvedEvent::End(it.id, payload),
        TapeKind::Text => ResolvedEvent::Text(payload),
    }
}

impl ParseState {
    /// Text-scan fast exit: at a quiescent point outside a tag, no event
    /// can complete before the next `<` arrives (a text run only ends at
    /// `<` or at close). Scans just the bytes the hint has not covered —
    /// a parse attempt would otherwise re-scan (and the general path
    /// re-copy) the whole pending run on every poll, O(n²) when a long run
    /// is fed in tiny chunks. Returns `true` when the window holds no `<`.
    fn text_needs_more(&mut self, win: &mut Window<'_>) -> bool {
        if self.in_tag || self.finished || win.src.closed || self.pending_pos < self.pending.len() {
            return false;
        }
        let from = win.src.pos.max(win.src.lt_scanned);
        let hit = self.scanner.find_byte(b'<', &win.bytes()[from..]);
        win.src.lt_scanned = hit.map_or(win.bytes().len(), |i| from + i);
        hit.is_none()
    }

    /// One step of the general machinery from `cp`, the last event
    /// boundary: an attempt that runs off the end of an open window is
    /// rolled back to `cp` instead of surfacing its (premature) outcome.
    fn try_advance(&mut self, win: &mut Window<'_>, cp: Checkpoint) -> Result<Step, XmlError> {
        win.src.hit_end = false;
        let res = self.advance(win);
        let ran_out = win.src.hit_end && !win.src.closed;
        match res {
            Ok(true) => {
                debug_assert!(
                    !ran_out,
                    "an emitted event must not depend on bytes past the fed window"
                );
                Ok(Step::Event)
            }
            Ok(false) if !ran_out => Ok(Step::End),
            Err(e) if !ran_out => Err(e),
            _ => {
                self.restore(win, cp);
                Ok(Step::NeedMoreData)
            }
        }
    }

    /// See [`InPlace::fill_tape`].
    fn fill_tape(
        &mut self,
        win: &mut Window<'_>,
        tape: &mut EventTape,
    ) -> Result<TapeFill, XmlError> {
        debug_assert!(tape.is_empty(), "previous batch must be drained before a refill");
        tape.clear();
        tape.epoch = win.src.epoch;
        // Commit borrows a preceding per-event pull may have left open
        // (the two modes may be mixed freely on one reader).
        self.commit_deferred(win);
        loop {
            match self.fill_window(win, tape)? {
                // Out of stitch, not out of chunk: the batch continues.
                TapeFill::NeedMoreData if win.advance(tape) => {}
                fill => return Ok(fill),
            }
        }
    }

    /// [`ParseState::fill_tape`] up to the end of the active window.
    fn fill_window(
        &mut self,
        win: &mut Window<'_>,
        tape: &mut EventTape,
    ) -> Result<TapeFill, XmlError> {
        loop {
            if tape.is_full() {
                return Ok(TapeFill::Full);
            }
            // Inside the root with no queued events, a lean burst records
            // straight off the window; the document edges, pending drains
            // and everything non-lean take the per-event machinery below.
            if !self.finished && self.pending_pos >= self.pending.len() && !self.stack.is_empty() {
                if let Some(fill) = self.fill_burst(win, tape)? {
                    return Ok(fill);
                }
                continue;
            }
            if self.text_needs_more(win) {
                return Ok(TapeFill::NeedMoreData);
            }
            let cp = self.checkpoint(win);
            match self.try_advance(win, cp)? {
                Step::Event => self.record(win, tape),
                Step::NeedMoreData => return Ok(TapeFill::NeedMoreData),
                Step::End => return Ok(TapeFill::End),
            }
        }
    }

    /// One lean recording burst inside [`ParseState::fill_tape`]: walk the
    /// window *without consuming*, recording entity-free clean text runs
    /// and attribute-free ASCII tags straight onto the tape as window
    /// spans — no advance/slot handshake, no per-event checkpoint, no
    /// arena copies. Position, stream offset and byte counters are
    /// committed in bulk at burst exits; `(b_lpos, b_in_tag)` track the
    /// last event boundary so a window-exhausted exit rolls back to
    /// exactly the state a per-event fill would report `NeedMoreData`
    /// from (see [`ParseState::skip_events`], which uses the same
    /// discipline without the recording).
    ///
    /// Lean end tags are gated to `stack.len() >= 2` so closing the root
    /// (and the `finished` transition) always rides the general path.
    /// Returns `Some` when the fill is over, `None` after one general
    /// fallback step to let the caller re-enter.
    fn fill_burst(
        &mut self,
        win: &mut Window<'_>,
        tape: &mut EventTape,
    ) -> Result<Option<TapeFill>, XmlError> {
        /// How the burst ended.
        enum BurstExit {
            /// A construct the burst does not handle: one general step.
            Fallback,
            /// The tape reached its event cap at a boundary.
            Full,
            /// No `<` before the end of a still-open window.
            NoLt,
        }
        let start = win.src.pos;
        let off0 = self.offset;
        let closed = win.src.closed;
        let keep_ws = self.opts.keep_whitespace;
        let buf = &win.bytes()[start..];
        let end = start + buf.len();
        let mut shift = ensure_index(self.scanner, &mut self.sidx, off0, buf) as isize;
        let mut lpos = 0usize;
        let mut in_tag = self.in_tag;
        let mut b_lpos = 0usize;
        let mut b_in_tag = in_tag;
        let exit = 'burst: loop {
            if tape.items.len() >= TAPE_BATCH_EVENTS {
                break 'burst BurstExit::Full;
            }
            if !in_tag {
                // ---- text step: mirrors `fast_text` ----
                if lpos >= buf.len() {
                    break 'burst if closed { BurstExit::Fallback } else { BurstExit::NoLt };
                }
                if buf[lpos] == b'<' {
                    lpos += 1;
                    in_tag = true;
                    continue 'burst;
                }
                let found =
                    skip_find(self.scanner, &mut self.sidx, off0, &mut shift, buf, lpos, false);
                let Some(p) = found else {
                    break 'burst if closed { BurstExit::Fallback } else { BurstExit::NoLt };
                };
                let (any_hi, any_amp, any_nonws) = self
                    .sidx
                    .text_props(lpos.wrapping_add_signed(shift), p.wrapping_add_signed(shift));
                if any_hi || any_amp {
                    break 'burst BurstExit::Fallback; // entities / non-ASCII: decode path
                }
                if any_nonws || keep_ws {
                    tape.push_window(TapeKind::Text, NameId::UNKNOWN, start + lpos, p - lpos);
                    lpos = p + 1;
                    in_tag = true;
                    b_lpos = lpos;
                    b_in_tag = true;
                } else {
                    lpos = p + 1;
                    in_tag = true;
                }
                continue 'burst;
            }
            // ---- tag step: mirrors `fast_tag` ----
            let found = skip_find(self.scanner, &mut self.sidx, off0, &mut shift, buf, lpos, true);
            let Some(p) = found else {
                break 'burst BurstExit::Fallback; // crossing tag or EOF
            };
            let body = &buf[lpos..p];
            let Some(&first) = body.first() else {
                break 'burst BurstExit::Fallback; // `<>`: the general path errors
            };
            if first == b'/' {
                if self.stack.len() < 2 {
                    break 'burst BurstExit::Fallback; // root close: general path
                }
                match self.stack.last() {
                    Some(&(off, _)) if self.stack_buf.as_bytes()[off as usize..] == body[1..] => {}
                    // Trailing whitespace or a genuine mismatch: the
                    // general path re-examines it.
                    _ => break 'burst BurstExit::Fallback,
                }
                let (off, id) = self.stack.pop().expect("open element inside the root");
                self.stack_buf.truncate(off as usize);
                tape.push_window(TapeKind::End, id, start + lpos + 1, body.len() - 1);
                lpos = p + 1;
                in_tag = false;
                b_lpos = lpos;
                b_in_tag = false;
                continue 'burst;
            }
            if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
                break 'burst BurstExit::Fallback; // comments, PIs, DOCTYPE
            }
            let bpos = lpos.wrapping_add_signed(shift);
            let i = (self.sidx.name_run(bpos + 1) - bpos).min(body.len());
            let self_closing = match body.len() - i {
                0 => false,
                1 if body[i] == b'/' => true,
                _ => break 'burst BurstExit::Fallback, // attribute list: conversion path
            };
            if self_closing && tape.items.len() + 2 > TAPE_BATCH_EVENTS {
                // The pair would overshoot the batch cap: the general path
                // records the start and queues the end for the next batch,
                // exactly as per-event delivery splits it.
                break 'burst BurstExit::Fallback;
            }
            // SAFETY: `first` was checked ASCII above and `body[1..i]` lies
            // inside the scanner's name-class run, an ASCII subset.
            let name = unsafe { std::str::from_utf8_unchecked(&body[..i]) };
            let id =
                resolve_counted(&self.symbols, &mut self.quick_hits, &mut self.quick_misses, name);
            if self_closing {
                tape.push_window(TapeKind::Start, id, start + lpos, i);
                tape.push_window(TapeKind::End, id, start + lpos, i);
            } else {
                let off = self.stack_buf.len() as u32;
                self.stack_buf.push_str(name);
                self.stack.push((off, id));
                tape.push_window(TapeKind::Start, id, start + lpos, i);
            }
            lpos = p + 1;
            in_tag = false;
            b_lpos = lpos;
            b_in_tag = false;
        };
        match exit {
            BurstExit::NoLt | BurstExit::Full => {
                // Both exits sit on an event boundary (the text step always
                // does; the cap is checked at boundaries), so the walk
                // position *is* the rollback point.
                debug_assert_eq!(b_lpos, lpos, "exit on an event boundary");
                self.commit_walk(win, lpos, in_tag);
                if let BurstExit::Full = exit {
                    return Ok(Some(TapeFill::Full));
                }
                // The poll fast-exit's scan hint: no `<` between the
                // committed position and the window end.
                win.src.lt_scanned = end;
                Ok(Some(TapeFill::NeedMoreData))
            }
            BurstExit::Fallback => {
                // One full per-event step from the walk position. The
                // rollback point is the last event boundary *behind* it:
                // progress past the boundary (a whitespace run and its `<`)
                // is what per-event delivery has consumed when `fast_text`
                // skips the run and the following construct then fails to
                // fit the window, and is rolled back with it.
                self.commit_walk(win, b_lpos, b_in_tag);
                let cp = self.checkpoint(win);
                self.commit_walk(win, lpos - b_lpos, in_tag);
                Ok(match self.try_advance(win, cp)? {
                    Step::Event => {
                        self.record(win, tape);
                        None
                    }
                    Step::NeedMoreData => Some(TapeFill::NeedMoreData),
                    Step::End => Some(TapeFill::End),
                })
            }
        }
    }

    /// Commit `n` more bytes of a burst's walk — consumed, all of them on
    /// the fast path — leaving the parse inside a tag or not.
    fn commit_walk(&mut self, win: &mut Window<'_>, n: usize, in_tag: bool) {
        win.src.pos += n;
        self.offset += n as u64;
        self.fast_bytes += n as u64;
        self.in_tag = in_tag;
    }

    /// Record the event described by `self.slot` onto the tape, committing
    /// any deferred borrow on the spot (the tape holds its own copy — or,
    /// for zero-copy text, a window span that outlives the consume: the
    /// window's bytes stay put until the feed ends or, for the owning
    /// door, the next one begins).
    fn record(&mut self, win: &mut Window<'_>, tape: &mut EventTape) {
        match self.slot {
            Slot::Text => tape.push_arena(TapeKind::Text, NameId::UNKNOWN, &self.text_buf),
            Slot::SrcText { len } => {
                debug_assert!(win.bytes()[win.src.pos..win.src.pos + len].is_ascii());
                tape.push_window(TapeKind::Text, NameId::UNKNOWN, win.src.pos, len);
                // Release the window hold immediately: the recorded span
                // stays addressable for as long as the window does.
                win.consume(self.defer_consume);
                self.defer_consume = 0;
            }
            Slot::EndName => tape.push_arena(TapeKind::End, self.cur_id, &self.name_buf),
            Slot::StartName => tape.push_arena(TapeKind::Start, self.cur_id, &self.name_buf),
            Slot::StackTop => {
                let &(off, id) = self.stack.last().expect("open element for start slot");
                tape.push_arena(TapeKind::Start, id, &self.stack_buf[off as usize..]);
            }
            Slot::StackPop => {
                // Record, then commit the pop on the spot (per-event mode
                // defers it across the borrow; the tape copy needs no
                // borrow).
                let (off, id) = self.stack.pop().expect("open element for end slot");
                tape.push_arena(TapeKind::End, id, &self.stack_buf[off as usize..]);
                self.stack_buf.truncate(off as usize);
            }
            Slot::Pending(i) => match self.pending.get(i).expect("pending index in range") {
                ResolvedEvent::Start(id, name) => tape.push_arena(TapeKind::Start, id, name),
                ResolvedEvent::End(id, name) => tape.push_arena(TapeKind::End, id, name),
                ResolvedEvent::Text(t) => tape.push_arena(TapeKind::Text, NameId::UNKNOWN, t),
            },
            Slot::None => unreachable!("slot set before record"),
        }
        self.slot = Slot::None;
    }

    /// See [`InPlace::skip_events`].
    fn skip_events(
        &mut self,
        win: &mut Window<'_>,
        depth: u32,
        tape: &mut EventTape,
    ) -> Result<SkipPoll, XmlError> {
        debug_assert!(tape.is_empty(), "previous batch must be drained before a skip");
        debug_assert!(depth >= 1, "a skip is only active inside its subtree");
        debug_assert!(!self.finished, "a document cannot finish inside a subtree");
        tape.clear();
        tape.epoch = win.src.epoch;
        // Commit borrows a preceding per-event pull may have left open.
        self.commit_deferred(win);
        let mut depth = depth;
        let mut events = 0u64;
        /// How a lean burst over the buffered window ended.
        enum BurstExit {
            /// A construct the burst does not handle (attributes, entities,
            /// comments, CDATA, window-crossing constructs, EOF errors):
            /// one step of the general machinery takes over.
            Fallback,
            /// `</` at depth 1: the subtree is closed, the end tag itself
            /// left for the next ordinary batch to deliver.
            Closed,
            /// No `<` between the walk position and the end of a still-open
            /// window: nothing can complete before more bytes arrive.
            NoLt,
        }
        loop {
            // Queued conversion events (attribute children, self-closing
            // ends) are counted straight off the pending buffer — no slot
            // handshake, no materialization.
            if self.pending_pos < self.pending.len() {
                while self.pending_pos < self.pending.len() {
                    match self.pending.get(self.pending_pos).expect("pending index in range") {
                        ResolvedEvent::Start(..) => depth += 1,
                        ResolvedEvent::End(..) if depth > 1 => depth -= 1,
                        ResolvedEvent::End(..) => {
                            // A self-closing subtree root: its queued End
                            // closes the skip. Hand it back on the tape.
                            self.slot = Slot::Pending(self.pending_pos);
                            self.pending_pos += 1;
                            self.record(win, tape);
                            return Ok(SkipPoll::Closed { events });
                        }
                        ResolvedEvent::Text(_) => {}
                    }
                    self.pending_pos += 1;
                    events += 1;
                }
                continue;
            }
            // ---- lean burst: walk the window without consuming ----
            //
            // The hot loop touches no reader state it might have to undo:
            // `lpos` cursors through a window snapshot, and position /
            // offset / byte counters are committed in bulk only when the
            // burst exits. `(b_lpos, b_in_tag)` track the last *event*
            // boundary — non-event progress (dropped whitespace runs, the
            // consumed `<` opening a tag) advances `lpos` past it, so a
            // window-exhausted exit rolls back to exactly the state a
            // per-event poll would report `NeedMoreData` from. Stack pushes
            // and pops happen only *at* boundaries and need no undo.
            let start = win.src.pos;
            let off0 = self.offset;
            let closed = win.src.closed;
            let keep_ws = self.opts.keep_whitespace;
            let buf = &win.bytes()[start..];
            let end = start + buf.len();
            let mut shift = ensure_index(self.scanner, &mut self.sidx, off0, buf) as isize;
            let mut lpos = 0usize;
            let mut in_tag = self.in_tag;
            let mut b_lpos = 0usize;
            let mut b_in_tag = in_tag;
            let exit = 'burst: loop {
                if !in_tag {
                    // ---- text step: mirrors `fast_text` ----
                    if lpos >= buf.len() {
                        // Out of bytes at a boundary: EOF error (general
                        // path) or feed more.
                        break 'burst if closed { BurstExit::Fallback } else { BurstExit::NoLt };
                    }
                    if buf[lpos] == b'<' {
                        lpos += 1;
                        in_tag = true;
                        continue 'burst;
                    }
                    let found =
                        skip_find(self.scanner, &mut self.sidx, off0, &mut shift, buf, lpos, false);
                    let Some(p) = found else {
                        // Text runs to the window end: EOF errors on the
                        // general path; otherwise no event can complete
                        // before more bytes arrive.
                        break 'burst if closed { BurstExit::Fallback } else { BurstExit::NoLt };
                    };
                    let (any_hi, any_amp, any_nonws) = self
                        .sidx
                        .text_props(lpos.wrapping_add_signed(shift), p.wrapping_add_signed(shift));
                    if any_hi || any_amp {
                        break 'burst BurstExit::Fallback; // entities / non-ASCII: decode path
                    }
                    debug_assert!(!self.stack.is_empty(), "skip runs inside the root");
                    lpos = p + 1;
                    in_tag = true;
                    if any_nonws || keep_ws {
                        events += 1;
                        b_lpos = lpos;
                        b_in_tag = true;
                    }
                    continue 'burst;
                }
                // ---- tag step: mirrors `fast_tag`, minus materialization ----
                let found =
                    skip_find(self.scanner, &mut self.sidx, off0, &mut shift, buf, lpos, true);
                let Some(p) = found else {
                    break 'burst BurstExit::Fallback; // crossing tag or EOF
                };
                let body = &buf[lpos..p];
                let Some(&first) = body.first() else {
                    break 'burst BurstExit::Fallback; // `<>`: the general path errors
                };
                if first == b'/' {
                    if depth == 1 {
                        break 'burst BurstExit::Closed;
                    }
                    match self.stack.last() {
                        Some(&(off, _))
                            if self.stack_buf.as_bytes()[off as usize..] == body[1..] => {}
                        // Trailing whitespace or a genuine mismatch: the
                        // general path re-examines it.
                        _ => break 'burst BurstExit::Fallback,
                    }
                    let (off, _) = self.stack.pop().expect("open element inside the subtree");
                    self.stack_buf.truncate(off as usize);
                    depth -= 1;
                    events += 1;
                    lpos = p + 1;
                    in_tag = false;
                    b_lpos = lpos;
                    b_in_tag = false;
                    continue 'burst;
                }
                if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
                    break 'burst BurstExit::Fallback; // comments, PIs, DOCTYPE
                }
                let bpos = lpos.wrapping_add_signed(shift);
                let i = (self.sidx.name_run(bpos + 1) - bpos).min(body.len());
                let self_closing = match body.len() - i {
                    0 => false,
                    1 if body[i] == b'/' => true,
                    _ => break 'burst BurstExit::Fallback, // attribute list: conversion path
                };
                // SAFETY: `first` was checked ASCII above and `body[1..i]`
                // lies inside the scanner's name-class run, an ASCII subset.
                let name = unsafe { std::str::from_utf8_unchecked(&body[..i]) };
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                if self_closing {
                    // Start + queued End cancel out: two events, no stack
                    // or pending traffic (the queue's contents are never
                    // observable at a quiescent point).
                    events += 2;
                } else {
                    let off = self.stack_buf.len() as u32;
                    self.stack_buf.push_str(name);
                    self.stack.push((off, id));
                    depth += 1;
                    events += 1;
                }
                lpos = p + 1;
                in_tag = false;
                b_lpos = lpos;
                b_in_tag = false;
            };
            match exit {
                BurstExit::NoLt => {
                    // The text step always sits on an event boundary
                    // (non-event progress ends inside a tag), so the walk
                    // position *is* the rollback point.
                    debug_assert_eq!(b_lpos, lpos, "text step is a boundary");
                    self.commit_walk(win, lpos, in_tag);
                    // The poll fast-exit's scan hint: no `<` between the
                    // committed position and the window end.
                    win.src.lt_scanned = end;
                    if !win.advance(tape) {
                        return Ok(SkipPoll::More { events, depth });
                    }
                }
                BurstExit::Closed => {
                    // Commit through the consumed `<`; the complete closing
                    // end tag (`>` was found in-window) is delivered by the
                    // next ordinary batch — or, on a tag mismatch, surfaces
                    // its error there.
                    self.commit_walk(win, lpos, true);
                    return Ok(SkipPoll::Closed { events });
                }
                BurstExit::Fallback => {
                    // One full per-event step; the rollback point stays
                    // at the last event boundary (see `fill_burst`).
                    self.commit_walk(win, b_lpos, b_in_tag);
                    let cp = self.checkpoint(win);
                    self.commit_walk(win, lpos - b_lpos, in_tag);
                    match self.skip_fallback_step(win, tape, &mut depth, &mut events, cp)? {
                        Some(SkipPoll::More { .. }) if win.advance(tape) => {}
                        Some(poll) => return Ok(poll),
                        None => {}
                    }
                }
            }
        }
    }

    /// One general-machinery step inside [`ParseState::skip_events`]: run
    /// [`ParseState::advance`] exactly as a tape fill would — `cp` is the
    /// last event boundary, the rollback point a window-exhausted attempt
    /// restores — then interpret the completed slot as depth/count
    /// bookkeeping instead of recording it. An End event at depth 1 *is* the tag closing the
    /// skipped subtree — its stack pop may already be committed, so it is
    /// recorded onto `tape` for the caller to deliver rather than rolled
    /// back. Returns `Some` when the skip is over (closed, or out of
    /// window), `None` to continue scanning.
    fn skip_fallback_step(
        &mut self,
        win: &mut Window<'_>,
        tape: &mut EventTape,
        depth: &mut u32,
        events: &mut u64,
        cp: Checkpoint,
    ) -> Result<Option<SkipPoll>, XmlError> {
        match self.try_advance(win, cp)? {
            Step::Event => {}
            Step::NeedMoreData => {
                return Ok(Some(SkipPoll::More { events: *events, depth: *depth }))
            }
            Step::End => unreachable!("a document cannot end inside a skipped subtree"),
        }
        let closing = match self.slot {
            Slot::Text => false,
            Slot::SrcText { .. } => {
                // Commit the window borrow on the spot, as a recording
                // fill would.
                win.consume(self.defer_consume);
                self.defer_consume = 0;
                false
            }
            // A self-closing start (`StartName`) has its End queued in
            // pending, which brings the depth back down when counted.
            Slot::StackTop | Slot::StartName => {
                *depth += 1;
                false
            }
            // General-path end tag: `parse_tag` already popped.
            Slot::EndName => {
                if *depth == 1 {
                    true
                } else {
                    *depth -= 1;
                    false
                }
            }
            Slot::StackPop => {
                if *depth == 1 {
                    true
                } else {
                    // Commit the deferred pop, as a recording fill would.
                    let (off, _) = self.stack.pop().expect("open element for end slot");
                    self.stack_buf.truncate(off as usize);
                    *depth -= 1;
                    false
                }
            }
            Slot::Pending(i) => match self.pending.get(i).expect("pending index in range") {
                ResolvedEvent::Start(..) => {
                    *depth += 1;
                    false
                }
                ResolvedEvent::End(..) => {
                    if *depth == 1 {
                        true
                    } else {
                        *depth -= 1;
                        false
                    }
                }
                ResolvedEvent::Text(_) => false,
            },
            Slot::None => unreachable!("slot set before interpret"),
        };
        if closing {
            // The event closing the subtree is already parsed (and any
            // stack pop committed): hand it back on the tape for normal
            // delivery instead of rolling back.
            self.record(win, tape);
            return Ok(Some(SkipPoll::Closed { events: *events }));
        }
        self.slot = Slot::None;
        *events += 1;
        Ok(None)
    }

    fn checkpoint(&self, win: &Window<'_>) -> Checkpoint {
        Checkpoint {
            src_pos: win.src.pos,
            offset: self.offset,
            fast_bytes: self.fast_bytes,
            general_bytes: self.general_bytes,
            seen_root: self.seen_root,
            in_tag: self.in_tag,
            finished: self.finished,
            stack_len: self.stack.len(),
            stack_buf_len: self.stack_buf.len(),
            pending_len: self.pending.len(),
            pending_pos: self.pending_pos,
        }
    }

    fn restore(&mut self, win: &mut Window<'_>, cp: Checkpoint) {
        debug_assert!(
            self.stack.len() >= cp.stack_len && self.pending.len() >= cp.pending_len,
            "rollback cannot restore popped state (see Checkpoint docs)"
        );
        win.src.pos = cp.src_pos;
        self.offset = cp.offset;
        self.fast_bytes = cp.fast_bytes;
        self.general_bytes = cp.general_bytes;
        self.seen_root = cp.seen_root;
        self.in_tag = cp.in_tag;
        self.finished = cp.finished;
        self.stack.truncate(cp.stack_len);
        self.stack_buf.truncate(cp.stack_buf_len);
        self.pending.truncate(cp.pending_len);
        self.pending_pos = cp.pending_pos;
        self.slot = Slot::None;
        self.defer_consume = 0;
    }
}

/// Validate an XML name (loose check: letters/`_`/`:` then name characters).
/// ASCII names — the overwhelmingly common case — take a byte-wise path.
fn check_name(name: &str) -> Result<(), String> {
    let bytes = name.as_bytes();
    match bytes.first() {
        Some(&b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
        Some(&b) if !b.is_ascii() => return check_name_unicode(name),
        Some(&b) => {
            return Err(format!("invalid name start character `{}` in `{name}`", b as char))
        }
        None => return Err("empty element name".into()),
    }
    for &b in &bytes[1..] {
        if !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')) {
            if !b.is_ascii() {
                return check_name_unicode(name);
            }
            return Err(format!("invalid name character `{}` in `{name}`", b as char));
        }
    }
    Ok(())
}

/// The general (non-ASCII) name check.
fn check_name_unicode(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        Some(c) => return Err(format!("invalid name start character `{c}` in `{name}`")),
        None => return Err("empty element name".into()),
    }
    for c in chars {
        if !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')) {
            return Err(format!("invalid name character `{c}` in `{name}`"));
        }
    }
    Ok(())
}

/// Parse `a="v" b='w'` attribute syntax. Values are entity-decoded.
fn parse_attributes(src: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = src.trim_start();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("expected `=` in attribute list near `{rest}`"))?;
        let name = rest[..eq].trim();
        check_name(name)?;
        let after = rest[eq + 1..].trim_start();
        let quote = after
            .chars()
            .next()
            .filter(|&c| c == '"' || c == '\'')
            .ok_or_else(|| format!("attribute `{name}` value must be quoted"))?;
        let val_rest = &after[1..];
        let end = val_rest
            .find(quote)
            .ok_or_else(|| format!("unterminated value for attribute `{name}`"))?;
        let value = crate::escape::unescape(&val_rest[..end])?;
        out.push((name.to_string(), value.into_owned()));
        rest = val_rest[end + 1..].trim_start();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Vec<OwnedEvent> {
        Reader::from_str(xml).read_to_end().unwrap()
    }

    fn flat(xml: &str) -> String {
        events(xml).iter().map(|e| e.to_string()).collect()
    }

    #[test]
    fn simple_document() {
        assert_eq!(flat("<a><b>hi</b></a>"), "<a><b>hi</b></a>");
    }

    #[test]
    fn whitespace_dropped_by_default() {
        assert_eq!(flat("<a>\n  <b>x</b>\n</a>"), "<a><b>x</b></a>");
    }

    #[test]
    fn whitespace_kept_on_request() {
        let mut r = Reader::new(
            "<a> <b>x</b> </a>".as_bytes(),
            ReaderOptions { keep_whitespace: true, ..Default::default() },
        );
        let evs = r.read_to_end().unwrap();
        assert_eq!(evs.iter().map(|e| e.to_string()).collect::<String>(), "<a> <b>x</b> </a>");
    }

    #[test]
    fn entities_resolved() {
        let evs = events("<a>x &lt; y &amp; z</a>");
        assert_eq!(evs[1], OwnedEvent::Text("x < y & z".into()));
    }

    #[test]
    fn self_closing() {
        assert_eq!(flat("<a><b/></a>"), "<a><b></b></a>");
    }

    #[test]
    fn attributes_converted_to_subelements() {
        assert_eq!(
            flat(r#"<person id="person0"><name>Jo</name></person>"#),
            "<person><person_id>person0</person_id><name>Jo</name></person>"
        );
    }

    #[test]
    fn multiple_attributes_in_order() {
        assert_eq!(
            flat(r#"<item featured="yes" id="item3"/>"#),
            "<item><item_featured>yes</item_featured><item_id>item3</item_id></item>"
        );
    }

    #[test]
    fn attributes_dropped_mode() {
        let mut r = Reader::new(
            r#"<a x="1">t</a>"#.as_bytes(),
            ReaderOptions { attributes: AttributeMode::Drop, ..Default::default() },
        );
        let evs = r.read_to_end().unwrap();
        assert_eq!(evs.iter().map(|e| e.to_string()).collect::<String>(), "<a>t</a>");
    }

    #[test]
    fn attributes_rejected_mode() {
        let mut r = Reader::new(
            r#"<a x="1">t</a>"#.as_bytes(),
            ReaderOptions { attributes: AttributeMode::Reject, ..Default::default() },
        );
        let err = r.read_to_end().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::AttributeRejected { .. }));
    }

    #[test]
    fn prolog_comments_pi_doctype_skipped() {
        let xml = r#"<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><!-- note --><a>x<?pi data?><!-- more --></a>"#;
        assert_eq!(flat(xml), "<a>x</a>");
    }

    #[test]
    fn comment_containing_gt() {
        assert_eq!(flat("<a><!-- x > y --->ok</a>"), "<a>ok</a>");
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let evs = events("<a><![CDATA[1 < 2 & so]]></a>");
        assert_eq!(evs[1], OwnedEvent::Text("1 < 2 & so".into()));
    }

    #[test]
    fn cdata_containing_gt() {
        let evs = events("<a><![CDATA[x > y]]></a>");
        assert_eq!(evs[1], OwnedEvent::Text("x > y".into()));
    }

    #[test]
    fn mismatched_tag_rejected() {
        let err = Reader::from_str("<a><b></a></b>").read_to_end().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn mismatch_reports_expected_open_tag() {
        let err = Reader::from_str("<a><b></c>").read_to_end().unwrap_err();
        match err.kind {
            XmlErrorKind::MismatchedTag { expected, found } => {
                assert_eq!(expected.as_deref(), Some("b"));
                assert_eq!(found, "c");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn truncated_document_rejected() {
        let err = Reader::from_str("<a><b>").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
        let err = Reader::from_str("<a").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_content_rejected() {
        let err = Reader::from_str("<a/><b/>").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TrailingContent);
        let err = Reader::from_str("<a/>junk").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TextOutsideRoot);
    }

    #[test]
    fn text_outside_root_rejected() {
        let err = Reader::from_str("junk<a/>").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TextOutsideRoot);
    }

    #[test]
    fn empty_input_rejected() {
        let err = Reader::from_str("   ").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_entity_reported() {
        let err = Reader::from_str("<a>&bogus;</a>").read_to_end().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::Syntax(_)));
    }

    #[test]
    fn bad_names_reported() {
        assert!(Reader::from_str("<1a/>").read_to_end().is_err());
        assert!(Reader::from_str("<a b c/>").read_to_end().is_err());
        assert!(Reader::from_str("<a></1a>").read_to_end().is_err());
    }

    #[test]
    fn unicode_names_accepted() {
        assert_eq!(flat("<多><é>x</é></多>"), "<多><é>x</é></多>");
    }

    #[test]
    fn depth_and_offset_track() {
        let mut r = Reader::from_str("<a><b>x</b></a>");
        assert_eq!(r.depth(), 0);
        r.next_event().unwrap(); // <a>
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // <b>
        assert_eq!(r.depth(), 2);
        assert!(r.offset() > 0);
    }

    #[test]
    fn deeply_nested() {
        let mut xml = String::new();
        for i in 0..200 {
            xml.push_str(&format!("<e{i}>"));
        }
        for i in (0..200).rev() {
            xml.push_str(&format!("</e{i}>"));
        }
        let evs = events(&xml);
        assert_eq!(evs.len(), 400);
    }

    #[test]
    fn single_quoted_attributes() {
        assert_eq!(flat("<a k='v'/>"), "<a><a_k>v</a_k></a>");
    }

    #[test]
    fn attribute_value_entities() {
        assert_eq!(flat(r#"<a k="x &amp; y"/>"#), "<a><a_k>x &amp; y</a_k></a>");
    }

    fn bib_symbols() -> Arc<Symbols> {
        let mut s = Symbols::new();
        for n in ["bib", "book", "title", "book_id"] {
            s.intern(n);
        }
        Arc::new(s)
    }

    #[test]
    fn resolved_ids_match_the_table() {
        let syms = bib_symbols();
        let doc = "<bib><book><title>T</title><zzz>u</zzz></book></bib>";
        let mut r = Reader::with_symbols(doc.as_bytes(), ReaderOptions::default(), syms.clone());
        let mut seen = Vec::new();
        while let Some(ev) = r.next_resolved().unwrap() {
            if let ResolvedEvent::Start(id, name) | ResolvedEvent::End(id, name) = ev {
                seen.push((id, name.to_string()));
            }
        }
        assert_eq!(seen[0], (syms.resolve("bib"), "bib".to_string()));
        assert_eq!(seen[1], (syms.resolve("book"), "book".to_string()));
        assert_eq!(seen[2], (syms.resolve("title"), "title".to_string()));
        // End ids come from the stack, not a re-hash; they must agree.
        assert_eq!(seen[3], (syms.resolve("title"), "title".to_string()));
        // Out-of-vocabulary names resolve to UNKNOWN but keep their text.
        assert_eq!(seen[4], (NameId::UNKNOWN, "zzz".to_string()));
        assert_eq!(seen[5], (NameId::UNKNOWN, "zzz".to_string()));
        assert!(seen[4].0.is_unknown());
    }

    #[test]
    fn resolved_ids_flow_through_attribute_conversion() {
        let syms = bib_symbols();
        let doc = r#"<bib><book id="b1"/></bib>"#;
        let mut r = Reader::with_symbols(doc.as_bytes(), ReaderOptions::default(), syms.clone());
        let mut starts = Vec::new();
        while let Some(ev) = r.next_resolved().unwrap() {
            if let ResolvedEvent::Start(id, name) = ev {
                starts.push((id, name.to_string()));
            }
        }
        assert_eq!(starts[1], (syms.resolve("book"), "book".to_string()));
        assert_eq!(starts[2], (syms.resolve("book_id"), "book_id".to_string()));
    }

    #[test]
    fn reader_without_symbols_resolves_unknown() {
        let mut r = Reader::from_str("<a>x</a>");
        match r.next_resolved().unwrap().unwrap() {
            ResolvedEvent::Start(id, "a") => assert!(id.is_unknown()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attributed_tags_fast_and_slow_paths_agree() {
        // The attribute fast path must produce the identical event stream
        // to the accumulating path (exercised via 1-byte read windows).
        let docs = [
            r#"<a k="v">t</a>"#,
            r#"<a k="v"/>"#,
            r#"<a k = 'v' l="w"  />"#,
            r#"<a  >x</a>"#,
            r#"<item featured="yes" id="item3"><x y=""/></item>"#,
            r#"<a k="x &amp; y">t</a>"#,
            r#"<a k="köln">t</a>"#,
        ];
        for doc in docs {
            let fast = Reader::from_str(doc).read_to_end().unwrap();
            let slow = Reader::new(
                std::io::BufReader::with_capacity(1, doc.as_bytes()),
                ReaderOptions::default(),
            )
            .read_to_end()
            .unwrap();
            assert_eq!(fast, slow, "doc: {doc}");
        }
    }

    #[test]
    fn attributed_tag_errors_agree_between_paths() {
        // `<a k="a>b">` is here deliberately: both paths truncate the tag at
        // the first `>` (pre-existing contract) and report it unterminated.
        for doc in [
            r#"<a k=v>t</a>"#,
            r#"<a k>t</a>"#,
            r#"<a 1k="v"/>"#,
            r#"<a k="v>more text"#,
            r#"<a k="a>b">t</a>"#,
        ] {
            let fast = Reader::from_str(doc).read_to_end().unwrap_err();
            let slow = Reader::new(
                std::io::BufReader::with_capacity(1, doc.as_bytes()),
                ReaderOptions::default(),
            )
            .read_to_end()
            .unwrap_err();
            assert_eq!(fast, slow, "doc: {doc}");
        }
    }

    /// Drive an incremental reader over `doc` split into `chunks`, closing
    /// after the last one.
    fn poll_all(doc: &str, chunks: &[&[u8]]) -> Result<Vec<OwnedEvent>, XmlError> {
        let mut r = Reader::incremental(ReaderOptions::default());
        let mut out = Vec::new();
        let mut next = 0usize;
        loop {
            match r.poll_resolved()? {
                Polled::Event(ev) => out.push(ev.to_event().to_owned()),
                Polled::NeedMoreData => {
                    if next < chunks.len() {
                        r.feed(chunks[next]);
                        next += 1;
                    } else {
                        assert!(!r.is_closed(), "closed reader must not ask for more data");
                        r.close();
                    }
                }
                Polled::End => break,
            }
        }
        assert_eq!(r.offset(), doc.len() as u64);
        Ok(out)
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        // Constructs that stress rollback: tags, attributes, entities,
        // comments (with `>`), CDATA, DOCTYPE, PIs, unicode names and
        // multi-byte text, self-closing tags, whitespace runs.
        let docs = [
            "<a><b>hi</b></a>",
            r#"<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x<?pi d?><!-- c > d --->y</a>"#,
            r#"<person id="person0"><name>Jo &amp; Bo</name><多>é</多></person>"#,
            "<a><![CDATA[1 < 2 & x > y]]></a>",
            "<a>\n  <b k='v' l=\"w\"/>tail</a>",
            "  <a>täxt</a>  ",
        ];
        for doc in docs {
            let reference = Reader::from_str(doc).read_to_end().unwrap();
            for at in 0..=doc.len() {
                let (head, tail) = doc.as_bytes().split_at(at);
                let got = poll_all(doc, &[head, tail])
                    .unwrap_or_else(|e| panic!("split {at} of {doc}: {e}"));
                assert_eq!(got, reference, "split {at} of {doc}");
            }
            // And fully byte-at-a-time.
            let bytes: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
            assert_eq!(poll_all(doc, &bytes).unwrap(), reference, "byte-at-a-time {doc}");
        }
    }

    #[test]
    fn incremental_errors_match_one_shot_at_every_split() {
        let docs =
            ["<a><b></a></b>", "<a>&bogus;</a>", "<a/>junk", "junk<a/>", "<a/><b/>", "<a k=v/>"];
        for doc in docs {
            let reference = Reader::from_str(doc).read_to_end().unwrap_err();
            for at in 0..=doc.len() {
                let (head, tail) = doc.as_bytes().split_at(at);
                let err = poll_all(doc, &[head, tail]).expect_err("must fail");
                assert_eq!(err, reference, "split {at} of {doc}");
            }
        }
    }

    #[test]
    fn incremental_truncation_errors_only_after_close() {
        let mut r = Reader::incremental(ReaderOptions::default());
        r.feed(b"<a><b>");
        assert_eq!(
            r.poll_resolved().unwrap(),
            Polled::Event(ResolvedEvent::Start(NameId::UNKNOWN, "a"))
        );
        assert_eq!(
            r.poll_resolved().unwrap(),
            Polled::Event(ResolvedEvent::Start(NameId::UNKNOWN, "b"))
        );
        // Mid-document: not an error yet, just hungry.
        assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
        assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
        r.close();
        let err = r.poll_resolved().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn fragmented_text_is_not_rescanned_quadratically() {
        // A long text run fed in many tiny chunks: the scan-position hint
        // must cover the whole fed window after every poll, so the next
        // poll scans only the bytes it has not seen — without the hint each
        // poll re-scans (and re-copies) the run from its start, O(n²).
        let mut r = Reader::incremental(ReaderOptions::default());
        r.feed(b"<a>");
        assert!(matches!(r.poll_resolved().unwrap(), Polled::Event(ResolvedEvent::Start(..))));
        assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
        let chunk = [b'x'; 64];
        let chunks = 512usize;
        for _ in 0..chunks {
            r.feed(&chunk);
            assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
            assert_eq!(r.src.lt_scanned, r.src.buf.len(), "hint covers the fed window");
        }
        r.feed(b"</a>");
        match r.poll_resolved().unwrap() {
            Polled::Event(ResolvedEvent::Text(t)) => {
                assert_eq!(t.len(), chunks * chunk.len());
                assert!(t.bytes().all(|b| b == b'x'));
            }
            other => panic!("expected the completed text run, got {other:?}"),
        }
        assert!(matches!(r.poll_resolved().unwrap(), Polled::Event(ResolvedEvent::End(..))));
        r.close();
        assert_eq!(r.poll_resolved().unwrap(), Polled::End);
    }

    #[test]
    fn scan_hint_survives_interleaved_tags_and_rollbacks() {
        // The hint is a pure memo over buffer content: tags completing,
        // checkpoint rollbacks and buffer reclaims in between must never
        // make it skip a `<` or corrupt an event. Byte-at-a-time feeding of
        // a tag-and-text mix exercises every interleaving.
        let doc = "<a>alpha<b>beta</b>gamma &amp; delta<c/>  tail</a>";
        let reference = Reader::from_str(doc).read_to_end().unwrap();
        let bytes: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
        assert_eq!(poll_all(doc, &bytes).unwrap(), reference);
    }

    /// Feed `chunk` through one door and drain it, returning the events seen.
    fn feed_and_drain(r: &mut Reader<FeedSource>, chunk: &[u8], in_place: bool) -> usize {
        let mut tape = EventTape::new();
        let mut events = 0;
        let mut feed = if in_place {
            r.feed_in_place(chunk)
        } else {
            r.feed(chunk);
            r.window()
        };
        loop {
            let fill = feed.fill_tape(&mut tape).unwrap();
            events += tape.len();
            tape.clear();
            if fill != TapeFill::Full {
                return events;
            }
        }
    }

    #[test]
    fn whole_document_in_place_never_allocates_the_carry() {
        // What distinguishes parsing in place from chopping the slice into
        // small copying feeds: nothing straddles, so nothing is ever copied.
        let doc = format!("<r>{}</r>", "<e a=\"1\">t &amp; u<f/></e>\n".repeat(4000));
        let mut r = Reader::incremental(ReaderOptions::default());
        assert!(feed_and_drain(&mut r, doc.as_bytes(), true) > 4 * 4000);
        assert_eq!(r.src.buf.capacity(), 0, "the carry was allocated");
        assert_eq!(r.unconsumed_bytes(), 0);
        assert_eq!(r.offset(), doc.len() as u64);
    }

    #[test]
    fn the_carry_gives_memory_back() {
        let mut big = String::from("<r>");
        while big.len() < 1 << 20 {
            big.push_str("<e>text</e>");
        }
        big.push_str("<unfinished");
        for in_place in [false, true] {
            // One 1 MiB chunk ending mid-tag …
            let mut r = Reader::incremental(ReaderOptions::default());
            feed_and_drain(&mut r, big.as_bytes(), in_place);
            assert_eq!(r.unconsumed_bytes(), "<unfinished".len());
            // (the owning door held all of it; in place only the tail was kept)
            assert_eq!(r.src.buf.capacity() >= 1 << 20, !in_place);
            // … then 1 000 small ones, each ending mid-tag again.
            for _ in 0..1000 {
                assert_eq!(feed_and_drain(&mut r, b">t</unfinished><unfinished", in_place), 3);
            }
            assert!(r.src.buf.capacity() < 4096, "pinned {}", r.src.buf.capacity());
            // A construct that straddles many feeds grows the carry to its
            // own size, and no further; it shrinks again once the construct
            // is parsed.
            feed_and_drain(&mut r, b">", in_place);
            for _ in 0..256 {
                feed_and_drain(&mut r, &[b'x'; 1024], in_place);
            }
            assert_eq!(r.unconsumed_bytes(), 256 << 10);
            assert!(r.src.buf.capacity() < 4 * (256 << 10), "pinned {}", r.src.buf.capacity());
            for _ in 0..3 {
                feed_and_drain(&mut r, b"</unfinished><unfinished>y", in_place);
            }
            assert!(r.src.buf.capacity() < 4096, "pinned {}", r.src.buf.capacity());
        }
    }

    #[test]
    fn incremental_reclaims_consumed_bytes() {
        let mut r = Reader::incremental(ReaderOptions::default());
        r.feed(b"<a>");
        while let Polled::Event(_) = r.poll_resolved().unwrap() {}
        for _ in 0..1000 {
            r.feed(b"<b>x</b>");
            while let Polled::Event(_) = r.poll_resolved().unwrap() {}
        }
        // Only the unparsed tail is retained, not the whole stream.
        assert!(r.unconsumed_bytes() < 16, "retained {}", r.unconsumed_bytes());
    }
}
