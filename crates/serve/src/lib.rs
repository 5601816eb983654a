//! # flux-serve — a std-only TCP front-end over the FluX runtime
//!
//! FluX evaluates XQuery over XML *streams* in provably minimal memory —
//! and the natural production source of such streams is the network. This
//! crate turns the facade's poll-shaped [`Runtime`](flux::Runtime) into a
//! socket server with nothing beyond the standard library: non-blocking
//! `std::net` sockets driven by a readiness loop, so the offline build
//! stays dependency-free and a tokio/io_uring backend can layer on later
//! without reshaping anything underneath.
//!
//! The pieces:
//!
//! * [`protocol`] — the length-prefixed wire protocol (`OPEN` / `CHUNK` /
//!   `FINISH` / `ABORT` in; `RESULT` / `DONE` / `STALLED` / `RESUMED` /
//!   `ERROR` out) with an incremental, resumable [`FrameDecoder`] in the
//!   style of the XML reader's `FeedSource`.
//! * [`poller`] — socket readiness and cross-thread wake-ups behind the
//!   small [`Poller`] trait (registry + poll + [`PollWaker`]), with a
//!   `poll(2)`/`eventfd(2)`-backed unix backend and a portable fallback;
//!   the seam where epoll/io_uring slot in.
//! * [`server`] — the [`Server`]: a connection state machine per socket,
//!   sessions multiplexed onto a [`Runtime`](flux::Runtime), per-connection
//!   write-backpressure (an unwritable socket parks the session's reads
//!   instead of buffering without bound), and admission-control stalls
//!   surfaced as `STALLED`/`RESUMED` frames. The loop is wake-driven: it
//!   blocks until a socket is ready or a runtime worker has results for
//!   it, so output leaves when it is produced and an idle server is idle.
//! * [`client`] — a small blocking [`Client`] for tests, benches and
//!   examples.
//!
//! Observability rides the same loop: give [`ServerConfig::metrics`] a
//! [`MetricsRegistry`](flux::MetricsRegistry) and the server instruments
//! itself and its runtime; a `STATS` frame (any state, even mid-run) or a
//! GET against the optional [`ServerConfig::admin`] listener answers with
//! the registry's aggregated Prometheus text snapshot.
//!
//! ## Quickstart
//!
//! ```no_run
//! use flux::prelude::*;
//! use flux_serve::{Client, Server, ServerConfig};
//!
//! let engine = Engine::builder()
//!     .dtd_str("<!ELEMENT doc (#PCDATA)>")
//!     .build().unwrap();
//! let mut registry = QueryRegistry::new();
//! registry.register("all", engine.prepare("{ $ROOT/doc }").unwrap());
//!
//! let server = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let outcome = client.run_document("all", b"<doc>hi</doc>", 4).unwrap();
//! assert_eq!(outcome.output, b"<doc>hi</doc>");
//! server.shutdown().unwrap();
//! ```

mod conn;
mod metrics;

pub mod client;
pub mod poller;
pub mod protocol;
pub mod server;

pub use client::{Client, Outcome, ServerMsg};
#[cfg(unix)]
pub use poller::SysPoller;
pub use poller::{
    default_poller, Interest, PollWaker, Poller, Readiness, ScanPoller, Token, WAKER,
};
pub use protocol::{DecodePoll, ErrorCode, FrameDecoder, FrameError, FrameKind, StallReason};
pub use server::{Server, ServerConfig, ServerHandle};
