//! # flux-xml — streaming XML substrate for the FluX query engine
//!
//! The FluX paper (Koch et al., VLDB 2004) evaluates queries directly on
//! streams of SAX events. This crate provides everything the engine needs
//! from the XML layer, built from scratch:
//!
//! * [`reader::Reader`] — a pull-based streaming parser producing
//!   [`events::Event`]s (start element / end element / text). It checks
//!   well-formedness (tag nesting, single root) as it goes and can convert
//!   attributes into subelements on the fly, mirroring the paper's "XSAX"
//!   parser (Appendix A: `<person id="x">` becomes
//!   `<person><person_id>x</person_id>…`).
//! * [`writer::Writer`] — a streaming serializer that is the exact inverse of
//!   the reader; the FluX engine writes its output through it.
//! * [`tree::Node`] — a small DOM used by the baseline engines and by the
//!   runtime buffers (the paper's buffers hold well-formed event sequences,
//!   which are isomorphic to these subtrees).
//! * [`events::OwnedEvent`] — owned events for buffering and replay; data
//!   replayed from a buffer is indistinguishable from stream input
//!   (paper, Section 5).
//! * [`symbols::Symbols`] — the compile-time symbol table. Element names of
//!   the static vocabulary (DTD + query) are interned once into dense
//!   [`symbols::NameId`]s; a reader carrying the table
//!   ([`reader::Reader::with_symbols`]) hashes each tag name once at
//!   tokenization and yields [`events::ResolvedEvent`]s, so automaton
//!   steps, handler dispatch and buffer trees downstream work on integers.
//!   Out-of-vocabulary names map to the reserved
//!   [`symbols::NameId::UNKNOWN`].
//! * [`evbuf::EventBuf`] — arena-backed owned event sequences (`NameId`
//!   tags, `(offset, len)` text spans): the runtime buffer representation,
//!   with no per-event heap allocation.
//! * [`scan`] — the two-stage structural scanner behind the reader's fast
//!   paths: runtime-detected SIMD (AVX2/SSE2) or portable SWAR
//!   classification of each 32-byte block into per-class bitmasks, which
//!   the reader's text/name/attribute loops consume instead of
//!   byte-at-a-time dispatch. See the module docs for the feature-detection
//!   story and the `FeedSource` batch-boundary contract.
//! * [`tape`] — batched event delivery: the reader records whole batches
//!   of resolved events into a reusable [`tape::EventTape`] that consumers
//!   walk with a tight index loop (and skip subtrees inside with a scan
//!   over recorded close events), amortizing the per-event pull-API cost.
//!   See the module docs for the anchor → batch → drain → rollback
//!   lifecycle and why the tape is never serialized.
//!
//! The data model follows the paper: elements and character data only; the
//! reader either rejects, drops, or converts attributes. Namespaces, DTD
//! internal-subset entity definitions and other XML arcana are out of scope,
//! exactly as in the paper's prototype.

pub mod escape;
pub mod evbuf;
pub mod events;
pub mod idtrie;
pub mod reader;
pub mod scan;
pub mod sink;
pub mod symbols;
pub mod tape;
pub mod tree;
pub mod writer;
pub mod xsax;

pub use evbuf::EventBuf;
pub use events::{Event, OwnedEvent, ResolvedEvent};
pub use idtrie::IdTrie;
pub use reader::{
    AttributeMode, FeedSource, InPlace, Polled, Reader, ReaderOptions, SkipPoll, TapeFill,
    XmlError, XmlErrorKind,
};
pub use scan::{Backend, ScanTelemetry, Scanner, ScannerChoice};
pub use sink::{Sink, StringSink};
pub use symbols::{NameId, Symbols};
pub use tape::{DeliveryMode, EventTape, SkipScan, TapeKind, TapeTelemetry};
pub use tree::{Child, Node};
pub use writer::Writer;
