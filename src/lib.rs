//! # flux — Schema-based Scheduling of Event Processors and Buffer Minimization
//!
//! Umbrella crate for the Rust reproduction of Koch, Scherzinger, Schweikardt
//! and Stegmaier, *"Schema-based Scheduling of Event Processors and Buffer
//! Minimization for Queries on Structured Data Streams"*, VLDB 2004.
//!
//! The pieces (see `DESIGN.md` for the full inventory):
//!
//! * [`xml`] — streaming XML parser/serializer, DOM trees, XSAX attribute
//!   conversion, and the [`Sink`](xml::Sink) output abstraction.
//! * [`dtd`] — DTDs, Glushkov automata, order constraints `Ord_ρ(a,b)`,
//!   `first-past` punctuation.
//! * [`query`] — the XQuery− fragment: AST, parser, normal form (Figure 1),
//!   tree evaluator.
//! * [`core`] — the FluX language, safety (Definition 3.6), and the
//!   `rewrite` scheduling algorithm (Figure 2).
//! * [`engine`] — the buffer-conscious streaming runtime (Section 5).
//! * [`baseline`] — DOM-based XQuery− engines standing in for Galax / AnonX.
//! * [`xmark`] — the XMark-like data generator and the paper's adapted
//!   benchmark queries (Appendix A).
//!
//! ## Quickstart: prepare once, run many
//!
//! The paper's central claim is a cost split: a query is *scheduled once*
//! against the DTD (cheap, static) and then executed over arbitrarily long
//! streams with provably minimal buffering. The API mirrors that split.
//! An [`Engine`] holds the schema; [`Engine::prepare`] performs the whole
//! static pipeline (parse → normalize → Figure 2 rewrite → safety check →
//! buffer planning) and yields a [`PreparedQuery`] that is `Send + Sync`,
//! cheap to clone, and reusable for any number of documents:
//!
//! ```
//! use flux::prelude::*;
//!
//! // The paper's introductory example: XMP Q3 over a bibliography.
//! let engine = Engine::builder()
//!     .dtd_str(r#"
//!         <!ELEMENT bib (book)*>
//!         <!ELEMENT book (title,(author+|editor+),publisher,price)>
//!         <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
//!         <!ELEMENT editor (#PCDATA)> <!ELEMENT publisher (#PCDATA)>
//!         <!ELEMENT price (#PCDATA)>
//!     "#)
//!     .build().unwrap();
//!
//! // Prepare once: with this schema the scheduler proves no buffering is
//! // needed — titles and authors stream straight through.
//! let q = engine.prepare(
//!     "<results>{ for $b in $ROOT/bib/book return \
//!        <result> {$b/title} {$b/author} </result> }</results>",
//! ).unwrap();
//! assert!(q.is_fully_streaming());
//!
//! // …run many: the same preparation serves document after document.
//! let doc1 = "<bib><book><title>T</title><author>A</author>\
//!             <publisher>P</publisher><price>1</price></book></bib>";
//! let doc2 = "<bib><book><title>U</title><editor>E</editor>\
//!             <publisher>P</publisher><price>2</price></book></bib>";
//! let run1 = q.run_str(doc1).unwrap();
//! let run2 = q.run_str(doc2).unwrap();
//! assert_eq!(run1.output, "<results><result><title>T</title><author>A</author></result></results>");
//! assert_eq!(run2.output, "<results><result><title>U</title></result></results>");
//! assert_eq!(run1.stats.peak_buffer_bytes, 0); // fully streamed
//! assert_eq!(run2.stats.peak_buffer_bytes, 0);
//!
//! // Push-based input: a Session accepts the document chunk-by-chunk (as
//! // from a socket) and streams output to a Sink; boundaries may fall
//! // anywhere and the stats match the one-shot run exactly.
//! let mut session = q.session(StringSink::new());
//! let (head, tail) = doc1.as_bytes().split_at(23);
//! session.feed(head).unwrap();
//! session.feed(tail).unwrap();
//! let fin = session.finish().unwrap();
//! assert_eq!(fin.sink.as_str(), run1.output);
//! assert_eq!(fin.stats.peak_buffer_bytes, 0);
//! ```
//!
//! ## Prepare vs execute: where the time goes
//!
//! * **Prepare** (once per query): parsing, normalization (Theorem 4.1),
//!   the Figure 2 schedule, safety checking, Glushkov/`PastTable`
//!   punctuation tables, and buffer-tree pruning. Cost depends only on
//!   query and schema size — never on data.
//! * **Execute** (per document): one pass over the input, one validating
//!   DFA transition plus one table lookup per token (Appendix B), and only
//!   the buffering the schedule proved necessary. Fully-streaming plans
//!   run in constant memory — `peak_buffer_bytes == 0`.
//!
//! Services should hold `PreparedQuery` values (they are `Send + Sync`;
//! clone them freely across threads) and open a [`Session`] per
//! connection, optionally bounding per-run memory with
//! [`EngineBuilder::max_buffer_bytes`]. Sessions execute *inline* on the
//! caller's thread — the engine core is a sans-IO resumable state machine
//! (see [`engine::Pump`]), so a session is a plain value, not a thread.
//! The [`runtime`] module stacks the service layers on top: a [`Shard`]
//! multiplexes thousands of live streams from one thread, a [`Runtime`]
//! spreads N shards over N worker threads with least-loaded placement, and
//! an [`AdmissionController`] bounds the *aggregate* buffer bytes across
//! every session — feeds past the shared budget report
//! [`FeedOutcome::Backpressure`] and resume on the budget-release wakeup.
//! For content-based dissemination, a [`SubscriptionSet`] compiles many
//! prepared queries into *one* shared single-pass plan and a
//! [`SharedSession`] fans one parse of each document out to all of them —
//! M subscriptions cost one tokenization, not M.
//! (The `flux-serve` crate puts a TCP front-end on the whole stack: a
//! [`QueryRegistry`] of prepared queries served over a length-prefixed
//! wire protocol, one `Runtime` behind the sockets.)
//!
//! ```
//! use flux::prelude::*;
//!
//! # let engine = Engine::builder()
//! #     .dtd_str("<!ELEMENT bib (book)*>\
//! #       <!ELEMENT book (title,(author+|editor+),publisher,price)>\
//! #       <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>\
//! #       <!ELEMENT editor (#PCDATA)> <!ELEMENT publisher (#PCDATA)>\
//! #       <!ELEMENT price (#PCDATA)>")
//! #     .build().unwrap();
//! # let q = engine.prepare(
//! #     "<results>{ for $b in $ROOT/bib/book return \
//! #        <result> {$b/title} {$b/author} </result> }</results>").unwrap();
//! # let doc1 = "<bib><book><title>T</title><author>A</author>\
//! #             <publisher>P</publisher><price>1</price></book></bib>";
//! // One thread, many concurrent streams, interleaved arbitrarily.
//! let mut shard = Shard::new();
//! let ids: Vec<_> = (0..64).map(|_| shard.open(&q, StringSink::new())).collect();
//! for chunk in doc1.as_bytes().chunks(7) {
//!     for &id in &ids {
//!         let _ = shard.feed(id, chunk).unwrap();   // runs the engine inline
//!     }
//! }
//! for id in ids {
//!     assert_eq!(shard.finish(id).unwrap().sink.as_str(),
//!                q.run_str(doc1).unwrap().output);
//! }
//!
//! // N worker threads behind one poll-shaped handle.
//! let mut rt = RuntimeBuilder::new(2).build();
//! let ids: Vec<_> = (0..16).map(|_| rt.open(&q, StringSink::new())).collect();
//! let chunk: std::sync::Arc<[u8]> = doc1.as_bytes().into();
//! for &id in &ids {
//!     rt.feed_shared(id, chunk.clone());  // one copy, fanned out
//!     rt.finish(id);
//! }
//! let mut done = 0;
//! while done < ids.len() {
//!     if let Some(RuntimeEvent::Finished { result, sink, .. }) = rt.wait_event() {
//!         result.unwrap();
//!         assert_eq!(sink.unwrap().as_str(), q.run_str(doc1).unwrap().output);
//!         done += 1;
//!     }
//! }
//! ```

pub use flux_baseline as baseline;
pub use flux_core as core;
pub use flux_dtd as dtd;
pub use flux_engine as engine;
pub use flux_obs as obs;
pub use flux_query as query;
pub use flux_state as state;
pub use flux_xmark as xmark;
pub use flux_xml as xml;

mod api;
mod error;
mod fanout;
pub mod runtime;

pub use api::{Engine, EngineBuilder, PreparedQuery, QueryRegistry};
pub use error::FluxError;
pub use fanout::SubscriptionSet;
pub use flux_obs::{
    MetricsRegistry, MetricsSnapshot, NoopTracer, StallCause, TraceBuffer, TraceEvent, Tracer,
};
pub use runtime::{
    AdmissionController, FeedOutcome, Finished, Runtime, RuntimeBuilder, RuntimeEvent, RuntimeId,
    Session, SessionId, Shard, SharedSession, SharedSessionId, SuspendPolicy,
};

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::api::{Engine, EngineBuilder, PreparedQuery, QueryRegistry};
    pub use crate::error::FluxError;
    pub use crate::fanout::SubscriptionSet;
    pub use crate::runtime::{
        AdmissionController, FeedOutcome, Finished, Runtime, RuntimeBuilder, RuntimeEvent,
        RuntimeId, Session, SessionId, Shard, SharedSession, SharedSessionId, SuspendPolicy,
    };
    pub use flux_baseline::{DomEngine, PreparedDomQuery, ProjectionMode};
    pub use flux_core::{rewrite_query, FluxExpr, Handler};
    pub use flux_dtd::Dtd;
    pub use flux_engine::{BudgetHook, BudgetWaker, EdgeWaker, Pump, RunOutcome, RunStats};
    pub use flux_obs::{MetricsRegistry, StallCause, TraceBuffer, TraceEvent, Tracer};
    pub use flux_query::{parse_xquery, Expr};
    pub use flux_xml::{Node, Reader, Sink, StringSink};
}
