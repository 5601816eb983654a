//! # flux-engine — the buffer-conscious streaming FluX runtime (Section 5)
//!
//! Executes safe FluX queries directly on an XML event stream:
//!
//! * [`bufplan`] — buffer paths Π, prefix trees, marking and pruning
//!   (Figure 3): decides statically which slivers of the input are buffered.
//! * [`budget`] — pluggable accounting ([`BudgetHook`]) so a fleet of
//!   concurrent runs can share one aggregate byte budget on top of the
//!   per-run [`EngineOptions::max_buffer_bytes`] limit.
//! * [`flags`] — on-the-fly Boolean accumulators for constant comparisons
//!   and `exists` conditions ("only a Boolean flag is required", §5).
//! * [`buffer`] — runtime buffers; nodes are attached eagerly so partially
//!   filled buffers are always well-formed trees, and every buffered byte is
//!   accounted against the run's peak-memory statistic.
//! * [`compile`] — turns a safe FluX query plus the DTD into an executable
//!   plan: per-scope handler tables (`PastTable`s for punctuation), buffer
//!   trees, flag registrations, and streamable fast paths for simple
//!   handlers.
//! * [`exec`] — the event loop. Children are processed at node granularity:
//!   record into buffers, then fire the step's handlers in ζ order. When a
//!   single `on` handler fires with nothing buffered and no earlier
//!   `on-first` at the same step, the child streams straight through —
//!   the zero-copy path that lets XMark Q1/Q13 report **0 bytes** of
//!   buffer memory.
//!
//! The engine insists on *safe* queries (Definition 3.6) — that is the
//! contract that makes buffers complete whenever they are read.
//!
//! The compiled plan is the unit of reuse: [`CompiledQuery`] owns its DTD
//! (shared via `Arc`) and is `Send + Sync`, so one compilation serves any
//! number of concurrent runs — the paper's *schedule once, stream forever*
//! reading, made literal.
//!
//! ```
//! use std::sync::Arc;
//! use flux_core::rewrite_query;
//! use flux_dtd::Dtd;
//! use flux_engine::{CompiledQuery, EngineOptions};
//! use flux_query::parse_xquery;
//!
//! let dtd = Arc::new(Dtd::parse(
//!     "<!ELEMENT bib (book)*>\
//!      <!ELEMENT book (title,(author+|editor+),publisher,price)>",
//! ).unwrap());
//! let q = parse_xquery(
//!     "<results>{ for $b in $ROOT/bib/book return \
//!        <result> {$b/title} {$b/author} </result> }</results>").unwrap();
//! let flux = rewrite_query(&q, &dtd).unwrap();
//!
//! // Prepare once …
//! let plan = CompiledQuery::compile_with(&flux, dtd, EngineOptions::default()).unwrap();
//! // … execute many times, each run streaming to its own sink.
//! let doc = "<bib><book><title>T</title><author>A</author>\
//!            <publisher>P</publisher><price>1</price></book></bib>";
//! for _ in 0..3 {
//!     let mut out = Vec::new();
//!     let stats = plan.run(doc.as_bytes(), &mut out).unwrap();
//!     assert_eq!(out, b"<results><result><title>T</title><author>A</author></result></results>");
//!     assert_eq!(stats.peak_buffer_bytes, 0);
//! }
//! ```

pub mod budget;
pub mod buffer;
pub mod bufplan;
pub mod compile;
pub mod exec;
pub mod fanout;
pub mod flags;
pub mod stats;

pub use budget::{BudgetHook, BudgetObserver, BudgetWaker, EdgeWaker, ObservedHook};
pub use compile::{CompiledQuery, EngineError, EngineOptions};
pub use exec::{Pump, RunOutcome, StreamInterest};
pub use fanout::{FanoutDriver, FanoutPlan, FanoutQuery, SubTeardown};
pub use stats::RunStats;
