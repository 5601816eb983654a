//! The server: many TCP connections multiplexed onto one
//! [`flux::Runtime`].
//!
//! One thread owns all the sockets, and it is wake-driven end to end: it
//! blocks in the [`Poller`] with no timeout and runs one pass
//! ([`Server::step`]) per wake-up — accepts new connections, decodes
//! inbound frames into runtime commands (`OPEN` → [`Runtime::open`],
//! `CHUNK` → [`Runtime::feed`], …), drains the runtime's
//! completion/flow-control events back into outbound frames, moves engine
//! output from the per-session `SharedOut` buffers into `RESULT` frames,
//! and flushes write buffers. The engine itself executes on the runtime's
//! worker threads; the server thread only shovels bytes — which is why a
//! single poll loop drives thousands of connections.
//!
//! Two things end the wait: a socket turning ready, and the poller's
//! [`PollWaker`]. The runtime's workers reach the latter through the
//! notifier this server hands the [`RuntimeBuilder`] — fired after every
//! [`RuntimeEvent`], whenever a worker's mailbox runs dry with output
//! possibly pending, and by an output buffer that fills a whole `RESULT`
//! frame — so a result leaves when it is ready, not when the next chunk
//! happens to arrive; shutdown uses the same handle. An idle server makes
//! no system calls at all.
//!
//! Shared fan-out composes with all of it: a client sending several
//! `OPEN`s before its first `CHUNK` gets them compiled (through a
//! catalog-validated [`SubscriptionSet`] cache) into **one** shared
//! session — the document is parsed once for all of them, each distinct
//! plan among them is evaluated once, and every subscriber's
//! `RESULT`/`DONE`/`ERROR` frames come back tagged with its subscriber
//! index.
//!
//! Admission control composes: configure a budget
//! ([`ServerConfig::budget`]) and sessions that would outgrow the shared
//! pool stall inside the runtime, surface here as `STALLED` frames, park
//! the connection's reads (TCP backpressure does the rest), and resume on
//! the budget-release wakeup with a `RESUMED` frame.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flux::{
    MetricsRegistry, QueryRegistry, Runtime, RuntimeBuilder, RuntimeEvent, RuntimeId, StallCause,
    SubscriptionSet, TraceEvent, Tracer,
};
use flux_engine::{BudgetHook, EdgeWaker};

use crate::conn::{Conn, ConnState, FrameSink, OutputWake, ReadPass, SharedOut};
use crate::metrics::{Dir, ServeMetrics};
use crate::poller::{default_poller, Interest, PollWaker, Poller, Readiness, Token, WAKER};
use crate::protocol::{DecodePoll, ErrorCode, FrameKind, StallReason};

/// Tuning knobs for a [`Server`].
pub struct ServerConfig {
    /// Worker threads in the underlying [`Runtime`]; at least 1.
    pub shards: usize,
    /// Shared buffer budget all sessions charge (admission control); `None`
    /// = unbounded.
    pub budget: Option<Arc<dyn BudgetHook>>,
    /// Largest accepted inbound frame payload; a header declaring more is a
    /// protocol error. Also the cap for outbound `RESULT` payloads the
    /// server produces.
    pub max_frame_payload: usize,
    /// Outbound high-water mark: a connection whose write buffer exceeds
    /// this stops reading (and so stops feeding the engine) until the
    /// socket drains.
    pub outbuf_high_water: usize,
    /// Largest `RESULT` frame payload the server emits.
    pub result_frame_max: usize,
    /// Where `SNAPSHOT` frames persist suspended runs (the envelope: query
    /// ids + the session's `flux-state` bytes). `None` disables the
    /// suspend/resume frames — a `SNAPSHOT` is answered with an `ERROR`.
    /// Point a restarted server at the same directory and outstanding
    /// tokens keep resuming.
    pub snapshot_dir: Option<PathBuf>,
    /// Metrics registry the server and its runtime record into. The
    /// runtime's workers own shards `0..shards`, the server thread owns
    /// shard `shards`. `STATS` frames (and the admin listener) answer
    /// with this registry's aggregated snapshot; without one they answer
    /// empty. The handle stays usable by the caller — scrape it whenever.
    pub metrics: Option<MetricsRegistry>,
    /// Tracer receiving lifecycle [`TraceEvent`]s from the runtime plus
    /// this server's connection open/close events. `None` = tracing off
    /// (one branch per would-be event), unless the `trace` feature routes
    /// the runtime's events to its global buffer.
    pub tracer: Option<Arc<dyn Tracer>>,
    /// Bind an admin listener on this address (e.g. `"127.0.0.1:0"`) that
    /// answers every HTTP request with the metrics registry's Prometheus
    /// text exposition. `None` = no admin endpoint. The data-plane wire
    /// protocol never travels this listener.
    pub admin: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 1,
            budget: None,
            max_frame_payload: 1 << 20,
            outbuf_high_water: 256 << 10,
            result_frame_max: 32 << 10,
            snapshot_dir: None,
            metrics: None,
            tracer: None,
            admin: None,
        }
    }
}

const LISTENER: Token = 0;
/// Poller token of the optional admin (metrics scrape) listener.
const ADMIN: Token = 1;

/// A TCP front-end over a [`Runtime`] — see the [module docs](self).
pub struct Server {
    listener: TcpListener,
    /// The optional metrics-scrape listener (HTTP, Prometheus text).
    admin: Option<TcpListener>,
    poller: Box<dyn Poller>,
    runtime: Runtime<FrameSink>,
    registry: QueryRegistry,
    /// The server thread's own instrument bundle (shard `cfg.shards` of
    /// `cfg.metrics`).
    metrics: Option<Arc<ServeMetrics>>,
    cfg: ServerConfig,
    conns: HashMap<Token, Conn>,
    by_session: HashMap<RuntimeId, Token>,
    /// Compiled shared plans keyed by their subscriber-ordered id list, so
    /// repeat fan-out opens (the dissemination hot path) skip compilation.
    /// Entries are revalidated against the registry catalog on every hit.
    set_cache: HashMap<Vec<String>, SubscriptionSet>,
    next_token: Token,
    /// Monotonic counter behind snapshot tokens (unique per process; the
    /// process id in the token keeps restarts from colliding).
    next_snap: u64,
    scratch: Vec<u8>,
    readiness: Vec<Readiness>,
    /// Ends the poller's wait from another thread (shutdown; and, wrapped
    /// in the notifier, the runtime's workers).
    waker: PollWaker,
    /// The runtime→server notifier and what output buffers need to fire it
    /// — shared by every connection's output seams.
    ///
    /// The wake protocol. Producers (workers, output buffers) make their
    /// state visible *first* — the event is on the channel, the bytes are
    /// in the buffer — and *then* `fire` the notifier; an armed notifier
    /// wakes the poller and disarms, an unarmed one does nothing. This
    /// thread arms it once at bind time and then again on every pass
    /// *before* draining events and output. No wake-up is lost: a `fire`
    /// that finds the notifier unarmed is ordered (both are
    /// read-modify-writes of one flag) before this thread's next `arm`,
    /// which precedes a drain that therefore sees what was produced; a
    /// `fire` that finds it armed wakes the poller, whose wake is sticky
    /// until observed, so the pass after the current one drains it. And
    /// none is wasted: between two passes the notifier disarms at most
    /// once, so a burst of any size costs one poller wake-up.
    output_wake: Arc<OutputWake>,
}

impl Server {
    /// Bind on `addr` with the platform's default [`Poller`] backend.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: QueryRegistry,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_with_poller(addr, registry, cfg, default_poller()?)
    }

    /// Bind with an explicit poller backend (the epoll/io_uring seam).
    /// A config with `shards: 0` is refused with
    /// [`io::ErrorKind::InvalidInput`] before anything is bound or spawned.
    pub fn bind_with_poller(
        addr: impl ToSocketAddrs,
        registry: QueryRegistry,
        cfg: ServerConfig,
        mut poller: Box<dyn Poller>,
    ) -> io::Result<Server> {
        if cfg.shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ServerConfig::shards must be at least 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let waker = poller.waker();
        let notifier = {
            let waker = waker.clone();
            EdgeWaker::new(move || waker.wake())
        };
        // Armed from the start: the first pass begins with a wait, not a
        // drain, so whatever is produced before it must be able to wake it.
        notifier.arm();
        let mut builder = RuntimeBuilder::new(cfg.shards).notifier(Arc::clone(&notifier));
        if let Some(hook) = &cfg.budget {
            builder = builder.budget(Arc::clone(hook));
        }
        if let Some(registry) = &cfg.metrics {
            builder = builder.metrics(registry);
        }
        if let Some(tracer) = &cfg.tracer {
            builder = builder.tracer(Arc::clone(tracer));
        }
        let runtime = builder.build();
        let metrics = cfg.metrics.as_ref().map(|r| ServeMetrics::register(r, cfg.shards));
        let output_wake =
            Arc::new(OutputWake { notifier, frame_max: cfg.result_frame_max, metrics });
        poller.register(LISTENER, raw_handle_listener(&listener), Interest::READ);
        let admin = match &cfg.admin {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                poller.register(ADMIN, raw_handle_listener(&l), Interest::READ);
                Some(l)
            }
            None => None,
        };
        Ok(Server {
            listener,
            admin,
            poller,
            runtime,
            registry,
            metrics: output_wake.metrics.clone(),
            cfg,
            conns: HashMap::new(),
            by_session: HashMap::new(),
            set_cache: HashMap::new(),
            next_token: ADMIN + 1,
            next_snap: 0,
            scratch: vec![0; 16 << 10],
            readiness: Vec::new(),
            waker,
            output_wake,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The admin (metrics scrape) listener's bound address, if configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Connections currently accepted.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Sessions currently live in the runtime.
    pub fn live_sessions(&self) -> usize {
        self.runtime.live_sessions()
    }

    /// Serve forever.
    pub fn run(mut self) -> io::Result<()> {
        self.run_until(|| false)
    }

    /// A handle that wakes the loop from another thread — what a
    /// [`Server::run_until`] caller pairs its stop condition with.
    pub fn waker(&self) -> PollWaker {
        self.waker.clone()
    }

    /// Serve until `stop` returns true. `stop` is checked after every
    /// pass, and a pass begins only when something wakes the loop: flip
    /// the condition, *then* [`wake`](PollWaker::wake) the
    /// [`Server::waker`], or an idle server never looks.
    pub fn run_until(&mut self, stop: impl Fn() -> bool) -> io::Result<()> {
        while !stop() {
            self.step()?;
        }
        Ok(())
    }

    /// Bind + serve on a background thread; the returned handle stops and
    /// joins it on [`ServerHandle::shutdown`] (or drop).
    pub fn spawn(
        addr: impl ToSocketAddrs,
        registry: QueryRegistry,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let mut server = Server::bind(addr, registry, cfg)?;
        let addr = server.local_addr()?;
        let admin_addr = server.admin_addr();
        let waker = server.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("flux-serve".into())
            .spawn(move || server.run_until(|| stop_flag.load(Ordering::SeqCst)))
            .expect("spawn server thread");
        Ok(ServerHandle { addr, admin_addr, stop, waker, join: Some(join) })
    }

    /// One pass of the event loop: wait (indefinitely) for a socket or the
    /// waker, do all I/O that is ready, pump runtime events and session
    /// output, flush writes.
    pub fn step(&mut self) -> io::Result<()> {
        let mut readiness = std::mem::take(&mut self.readiness);
        readiness.clear();
        self.poller.poll(&mut readiness, None)?;
        if let Some(m) = &self.metrics {
            // Counted before dispatch, so a scrape sees the pass serving it.
            if readiness.iter().any(|r| r.token != WAKER) {
                m.wakeups_socket.inc();
            }
            if readiness.iter().any(|r| r.token == WAKER) {
                m.wakeups_runtime.inc();
            }
        }
        for r in &readiness {
            if r.token == LISTENER {
                self.accept_ready();
            } else if r.token == ADMIN {
                self.admin_ready();
            } else if r.token == WAKER {
                // Nothing to read: the pumps below are the response.
            } else if r.readable {
                self.read_ready(r.token);
            }
            // Writability is consumed by the flush pass below.
        }
        self.readiness = readiness;
        // Arm, then drain — in that order, every pass (see `output_wake`).
        self.output_wake.notifier.arm();
        self.pump_runtime_events();
        self.pump_session_output();
        self.flush_and_sweep();
        Ok(())
    }

    /// Accept every pending connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // broken before it began
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.alloc_token();
                    self.poller.register(token, raw_handle(&stream), Interest::READ);
                    if let Some(m) = &self.metrics {
                        m.accepted.inc();
                        m.active.inc();
                    }
                    if let Some(t) = &self.cfg.tracer {
                        t.emit(TraceEvent::ConnOpen);
                    }
                    let conn = Conn::new(
                        stream,
                        self.cfg.max_frame_payload,
                        Arc::clone(&self.output_wake),
                    );
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED etc): skip.
                Err(_) => break,
            }
        }
    }

    fn alloc_token(&mut self) -> Token {
        loop {
            let t = self.next_token;
            self.next_token = self.next_token.wrapping_add(1).max(ADMIN + 1);
            if t != WAKER && !self.conns.contains_key(&t) {
                return t;
            }
        }
    }

    /// Answer every pending admin connection with one Prometheus text
    /// scrape. Admin exchanges are synchronous on the server thread — one
    /// short read (the request line is ignored), one buffered write, close
    /// — with a short timeout so a wedged scraper cannot hold the loop.
    fn admin_ready(&mut self) {
        let Some(listener) = &self.admin else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(m) = &self.metrics {
                        m.scrapes_http.inc();
                    }
                    let body =
                        self.cfg.metrics.as_ref().map(|r| r.render_text()).unwrap_or_default();
                    answer_scrape(stream, &body);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Read and decode everything one connection has for us, translating
    /// frames into runtime commands as they complete.
    fn read_ready(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        loop {
            if !conn.wants_read(self.cfg.outbuf_high_water) {
                break; // backpressured, stalled, or closing: leave it in TCP
            }
            let pass = conn.read_pass(&mut self.scratch);
            // Decode whatever is buffered, even on EOF: the peer may have
            // written complete frames and closed.
            loop {
                match conn.decoder.poll() {
                    Ok(DecodePoll::Frame { kind, payload }) => {
                        if let Some(m) = &self.metrics {
                            m.note_frame(Dir::In, kind);
                        }
                        match kind {
                            FrameKind::Stats => {
                                // Control-plane: answered inline in any state,
                                // so a client can scrape mid-run. Counted before
                                // rendering, so a scrape sees itself.
                                if let Some(m) = &self.metrics {
                                    m.scrapes_wire.inc();
                                }
                                let text = self
                                    .cfg
                                    .metrics
                                    .as_ref()
                                    .map(|r| r.render_text())
                                    .unwrap_or_default();
                                conn.queue(FrameKind::StatsReply, text.as_bytes());
                            }
                            FrameKind::Open => {
                                let query_id = String::from_utf8_lossy(payload).into_owned();
                                match conn.state {
                                    // `Rejected` accepts a fresh OPEN directly:
                                    // the client abandoned the refused run
                                    // without ever chunking it. Further OPENs
                                    // while `Collecting` join the fan-out set;
                                    // the first document bytes seal it.
                                    ConnState::Idle
                                    | ConnState::Rejected
                                    | ConnState::Collecting => {
                                        if self.registry.get(&query_id).is_some() {
                                            conn.pending_opens.push(query_id);
                                            conn.state = ConnState::Collecting;
                                        } else {
                                            conn.queue_error(
                                                ErrorCode::UnknownQuery,
                                                &format!(
                                                    "no query registered under id {query_id:?}"
                                                ),
                                            );
                                            conn.pending_opens.clear();
                                            conn.state = ConnState::Rejected;
                                        }
                                    }
                                    _ => {
                                        fail_state(conn, &mut self.runtime, "OPEN during a run");
                                        break;
                                    }
                                }
                            }
                            FrameKind::Chunk => match conn.state {
                                ConnState::Running(id) => self.runtime.feed(id, payload),
                                ConnState::Collecting => {
                                    // Copy releases the decoder borrow before
                                    // the seal takes the connection mutably —
                                    // once per run, on its first chunk only.
                                    let first = payload.to_vec();
                                    if let Some(id) = seal(
                                        conn,
                                        token,
                                        &mut self.runtime,
                                        &self.registry,
                                        &mut self.set_cache,
                                        &mut self.by_session,
                                    ) {
                                        self.runtime.feed(id, &first);
                                    }
                                    // A failed seal left the connection
                                    // `Rejected`: absorb the doomed chunks.
                                }
                                // A pipelined chunk of a refused OPEN: absorb.
                                ConnState::Rejected => {}
                                _ => {
                                    fail_state(
                                        conn,
                                        &mut self.runtime,
                                        "CHUNK without an open run",
                                    );
                                    break;
                                }
                            },
                            FrameKind::Finish => match conn.state {
                                ConnState::Running(id) => {
                                    self.runtime.finish(id);
                                    conn.state = ConnState::Finishing(id);
                                }
                                // An empty document is a legal run: seal and
                                // finish in one step.
                                ConnState::Collecting => {
                                    match seal(
                                        conn,
                                        token,
                                        &mut self.runtime,
                                        &self.registry,
                                        &mut self.set_cache,
                                        &mut self.by_session,
                                    ) {
                                        Some(id) => {
                                            self.runtime.finish(id);
                                            conn.state = ConnState::Finishing(id);
                                        }
                                        // The seal's ERROR frame answered the
                                        // run; this FINISH closes it out.
                                        None => conn.state = ConnState::Idle,
                                    }
                                }
                                // End of the refused run's pipelined frames;
                                // the ERROR already answered it.
                                ConnState::Rejected => conn.state = ConnState::Idle,
                                _ => {
                                    fail_state(
                                        conn,
                                        &mut self.runtime,
                                        "FINISH without an open run",
                                    );
                                    break;
                                }
                            },
                            FrameKind::Abort => match conn.state {
                                ConnState::Running(id) => {
                                    self.runtime.abort(id);
                                    conn.state = ConnState::Aborting(id);
                                }
                                // Aborting before any document bytes: nothing
                                // ran, acknowledge each pending open directly.
                                ConnState::Collecting => {
                                    let opens = std::mem::take(&mut conn.pending_opens);
                                    if opens.len() == 1 {
                                        conn.queue_done_aborted();
                                    } else {
                                        for sub in 0..opens.len() {
                                            conn.queue_done_aborted_tagged(sub as u32);
                                        }
                                    }
                                    conn.state = ConnState::Idle;
                                }
                                ConnState::Rejected => conn.state = ConnState::Idle,
                                _ => {
                                    fail_state(
                                        conn,
                                        &mut self.runtime,
                                        "ABORT without an open run",
                                    );
                                    break;
                                }
                            },
                            FrameKind::Snapshot => match conn.state {
                                ConnState::Running(id) => {
                                    snapshot_run(
                                        conn,
                                        id,
                                        &mut self.runtime,
                                        self.cfg.snapshot_dir.as_deref(),
                                        self.cfg.result_frame_max,
                                        &mut self.by_session,
                                        &mut self.next_snap,
                                    );
                                }
                                _ => {
                                    fail_state(
                                        conn,
                                        &mut self.runtime,
                                        "SNAPSHOT without a running session",
                                    );
                                    break;
                                }
                            },
                            FrameKind::Resume => match conn.state {
                                ConnState::Idle | ConnState::Rejected => {
                                    let snap = String::from_utf8_lossy(payload).into_owned();
                                    resume_run(
                                        conn,
                                        token,
                                        &snap,
                                        &mut self.runtime,
                                        &self.registry,
                                        &mut self.set_cache,
                                        self.cfg.snapshot_dir.as_deref(),
                                        &mut self.by_session,
                                    );
                                }
                                _ => {
                                    fail_state(conn, &mut self.runtime, "RESUME during a run");
                                    break;
                                }
                            },
                            // Server→client tags coming *from* a client are a
                            // protocol violation.
                            FrameKind::Result
                            | FrameKind::Done
                            | FrameKind::Stalled
                            | FrameKind::Resumed
                            | FrameKind::Error
                            | FrameKind::Snapshotted
                            | FrameKind::StatsReply => {
                                fail_protocol(
                                    conn,
                                    &mut self.runtime,
                                    &format!(
                                        "server-to-client frame 0x{:02x} from client",
                                        kind.byte()
                                    ),
                                );
                                break;
                            }
                        }
                    }
                    Ok(DecodePoll::NeedMoreData) => break,
                    Err(e) => {
                        if let Some(m) = &self.metrics {
                            m.decode_errors.inc();
                        }
                        fail_protocol(conn, &mut self.runtime, &e.to_string());
                        break;
                    }
                }
            }
            match pass {
                ReadPass::Progress => continue,
                ReadPass::Drained => break,
                ReadPass::PeerGone => {
                    conn.peer_gone = true;
                    break;
                }
            }
        }
    }

    /// Translate runtime events into outbound frames.
    fn pump_runtime_events(&mut self) {
        for ev in self.runtime.poll_events() {
            match ev {
                RuntimeEvent::Stalled { id, cause } => {
                    if let Some(conn) = self.by_session.get(&id).and_then(|t| self.conns.get_mut(t))
                    {
                        let reason = match cause {
                            StallCause::Budget => StallReason::Budget,
                            StallCause::AdmissionReserve => StallReason::AdmissionReserve,
                        };
                        conn.stalled = true;
                        conn.queue(FrameKind::Stalled, &[reason.byte()]);
                    }
                }
                RuntimeEvent::Resumed { id } => {
                    if let Some(conn) = self.by_session.get(&id).and_then(|t| self.conns.get_mut(t))
                    {
                        conn.stalled = false;
                        conn.queue(FrameKind::Resumed, &[]);
                    }
                }
                RuntimeEvent::Finished { id, result, sink } => {
                    let token = self.by_session.remove(&id);
                    drop(sink); // same SharedOut the connection holds
                    if let Some(conn) = token.and_then(|t| self.conns.get_mut(&t)) {
                        note_run_latency(&self.metrics, conn);
                        conn.stalled = false;
                        conn.state = ConnState::Idle;
                        if conn.close_after_flush {
                            // A fatal error already ended this stream on
                            // the wire: the `ERROR` frame is the last word.
                            conn.shared = None;
                            continue;
                        }
                        conn.drain_results(self.cfg.result_frame_max);
                        conn.shared = None;
                        match result {
                            Ok(stats) => {
                                conn.queue_done_finished(
                                    stats.events,
                                    stats.output_bytes,
                                    stats.scan,
                                    stats.tape,
                                );
                            }
                            Err(e) => {
                                conn.queue_error(ErrorCode::Engine, &e.to_string());
                            }
                        }
                    }
                }
                RuntimeEvent::FinishedShared { id, results } => {
                    let token = self.by_session.remove(&id);
                    if let Some(conn) = token.and_then(|t| self.conns.get_mut(&t)) {
                        note_run_latency(&self.metrics, conn);
                        conn.stalled = false;
                        conn.state = ConnState::Idle;
                        if conn.close_after_flush {
                            conn.multi.clear();
                            continue;
                        }
                        // Flush each subscriber's remaining output before
                        // its terminal frame, so tagged RESULTs never trail
                        // the tagged DONE.
                        for sub in 0..conn.multi.len() {
                            conn.drain_sub(sub, self.cfg.result_frame_max);
                        }
                        conn.multi.clear();
                        for (sub, (result, sink)) in results.into_iter().enumerate() {
                            drop(sink); // same SharedOut the connection held
                            match result {
                                Ok(stats) => conn.queue_done_finished_tagged(
                                    sub as u32,
                                    stats.events,
                                    stats.output_bytes,
                                    stats.scan,
                                    stats.tape,
                                ),
                                Err(e) => conn.queue_error_tagged(
                                    sub as u32,
                                    ErrorCode::Engine,
                                    &e.to_string(),
                                ),
                            }
                        }
                    }
                }
                // The server never detaches individual subscribers (the
                // wire protocol aborts whole runs), but the runtime API
                // allows embedders to: tolerate the event.
                RuntimeEvent::SubAborted { .. } => {}
                // Shard rebalancing and idle spills keep the session id
                // valid and its output seam in place — nothing for the
                // wire. (A refused `Runtime::detach` also re-adopts the
                // session onto its own shard, confirmed this way.)
                RuntimeEvent::Migrated { .. } | RuntimeEvent::Suspended { .. } => {}
                RuntimeEvent::Aborted { id } => {
                    let token = self.by_session.remove(&id);
                    if let Some(conn) = token.and_then(|t| self.conns.get_mut(&t)) {
                        conn.run_started = None; // aborted runs don't record latency
                        conn.shared = None;
                        let subs = conn.multi.len();
                        conn.multi.clear();
                        conn.stalled = false;
                        let acked = matches!(conn.state, ConnState::Aborting(_));
                        conn.state = ConnState::Idle;
                        if acked && !conn.close_after_flush {
                            if subs > 0 {
                                for sub in 0..subs {
                                    conn.queue_done_aborted_tagged(sub as u32);
                                }
                            } else {
                                conn.queue_done_aborted();
                            }
                        }
                    }
                }
            }
        }
    }

    /// Move engine output from the shared buffers into `RESULT` frames.
    fn pump_session_output(&mut self) {
        for conn in self.conns.values_mut() {
            conn.drain_results(self.cfg.result_frame_max);
        }
    }

    /// Flush write buffers, update poll interests, reap dead connections.
    fn flush_and_sweep(&mut self) {
        let mut dead = Vec::new();
        for (&token, conn) in &mut self.conns {
            if conn.out_len() > 0 && !conn.peer_gone {
                conn.flush_pass();
            }
            if conn.peer_gone || (conn.close_after_flush && conn.out_len() == 0) {
                dead.push(token);
                continue;
            }
            let interest = Interest {
                readable: conn.wants_read(self.cfg.outbuf_high_water),
                writable: conn.out_len() > 0,
            };
            if interest != conn.registered {
                // Count the park only when it is the outbound buffer (not a
                // stall or teardown) that took the read interest away.
                if conn.registered.readable
                    && !interest.readable
                    && conn.out_len() > self.cfg.outbuf_high_water
                {
                    if let Some(m) = &self.metrics {
                        m.write_parks.inc();
                    }
                }
                self.poller.reregister(token, interest);
                conn.registered = interest;
            }
        }
        for token in dead {
            let conn = self.conns.remove(&token).expect("dead list tracks live conns");
            self.poller.deregister(token);
            if let Some(m) = &self.metrics {
                m.active.dec();
            }
            if let Some(t) = &self.cfg.tracer {
                t.emit(TraceEvent::ConnClose);
            }
            if let Some(id) = conn.state.abort_on_death() {
                // Mid-stream disconnect: abort the session. Its buffers and
                // budget charges release inside the runtime; the Aborted
                // event finds the connection gone and is dropped.
                self.runtime.abort(id);
            }
            // Finishing/Aborting sessions complete on their own; their
            // terminal event cleans up `by_session` above.
        }
    }
}

/// Seal a `Collecting` connection's pending opens into a session: a plain
/// runtime session for one id, a shared fan-out session for several.
/// Returns the session id, or `None` if compilation refused the set (the
/// connection is left `Rejected` with the `ERROR` frame queued, exactly
/// like an unknown-query refusal — the client's pipelined document frames
/// are absorbed).
fn seal(
    conn: &mut Conn,
    token: Token,
    runtime: &mut Runtime<FrameSink>,
    registry: &QueryRegistry,
    set_cache: &mut HashMap<Vec<String>, SubscriptionSet>,
    by_session: &mut HashMap<RuntimeId, Token>,
) -> Option<RuntimeId> {
    let ids = std::mem::take(&mut conn.pending_opens);
    if ids.len() == 1 {
        // Single-query run: the classic untagged path, byte-identical on
        // the wire to the pre-fan-out protocol.
        let Some(q) = registry.get(&ids[0]).cloned() else {
            conn.queue_error(
                ErrorCode::UnknownQuery,
                &format!("no query registered under id {:?}", ids[0]),
            );
            conn.state = ConnState::Rejected;
            return None;
        };
        let shared = SharedOut::new(&conn.output_wake);
        let id = runtime.open(&q, FrameSink(Arc::clone(&shared)));
        conn.shared = Some(shared);
        conn.run_ids = ids;
        conn.run_started = Some(Instant::now());
        conn.state = ConnState::Running(id);
        by_session.insert(id, token);
        return Some(id);
    }
    let set = match cached_set(registry, set_cache, &ids) {
        Ok(set) => set,
        Err(e) => {
            conn.queue_error(ErrorCode::Engine, &e.to_string());
            conn.state = ConnState::Rejected;
            return None;
        }
    };
    let outs: Vec<Arc<SharedOut>> =
        (0..ids.len()).map(|_| SharedOut::new(&conn.output_wake)).collect();
    let sinks = outs.iter().map(|o| FrameSink(Arc::clone(o))).collect();
    let id = runtime.open_shared(&set, sinks);
    conn.multi = outs;
    conn.run_ids = ids;
    conn.run_started = Some(Instant::now());
    conn.state = ConnState::Running(id);
    by_session.insert(id, token);
    Some(id)
}

/// Record one completed run's wall-clock latency under its query-id label
/// (shared fan-out runs record once, under the joined id list).
fn note_run_latency(metrics: &Option<Arc<ServeMetrics>>, conn: &mut Conn) {
    if let (Some(m), Some(t0)) = (metrics, conn.run_started.take()) {
        let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        m.run_histogram(&conn.run_ids.join("+")).record(us);
    }
}

/// Suspend a running session to a snapshot file and detach it: the
/// envelope (the run's query ids + the session's `flux-state` bytes)
/// lands under the server's snapshot directory, the output produced so
/// far flushes to the client, and the resume token comes back in a
/// `SNAPSHOTTED` frame. Refusals are `ERROR Engine` frames: with no
/// snapshot directory, or a session that cannot serialize right now
/// (failed, or stalled with queued chunks), the run continues in place.
fn snapshot_run(
    conn: &mut Conn,
    id: RuntimeId,
    runtime: &mut Runtime<FrameSink>,
    snapshot_dir: Option<&Path>,
    result_frame_max: usize,
    by_session: &mut HashMap<RuntimeId, Token>,
    next_snap: &mut u64,
) {
    let Some(dir) = snapshot_dir else {
        conn.queue_error(ErrorCode::Engine, "snapshots are not enabled on this server");
        return;
    };
    let state = match runtime.detach(id) {
        Ok(bytes) => bytes,
        Err(e) => {
            // Refused: the session is still running in place with its id
            // valid — the client may keep chunking or retry later.
            conn.queue_error(ErrorCode::Engine, &e.to_string());
            return;
        }
    };
    // The id is dead from here on: the run exists only as bytes.
    by_session.remove(&id);
    let snap = format!("s{}-{}", std::process::id(), *next_snap);
    *next_snap += 1;
    let envelope = encode_envelope(&conn.run_ids, &state);
    let path = dir.join(format!("{snap}.fsnap"));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &envelope));
    // Flush the output streamed so far ahead of the marker frame, then
    // return the connection to idle — detached, it has no run.
    conn.drain_results(result_frame_max);
    conn.shared = None;
    conn.multi.clear();
    conn.stalled = false;
    conn.run_started = None; // the suspended run records at its resumed finish
    conn.state = ConnState::Idle;
    match written {
        Ok(()) => conn.queue(FrameKind::Snapshotted, snap.as_bytes()),
        Err(e) => {
            // The state was already detached and could not be saved: the
            // run is gone. Say so rather than pretend it is resumable.
            conn.queue_error(ErrorCode::Engine, &format!("snapshot write failed, run lost: {e}"));
        }
    }
}

/// Re-attach a suspended run by its snapshot token: read the envelope,
/// recompile the plan from the registry (single query or shared set),
/// restore the session onto the runtime with fresh output seams, and put
/// the connection back into `Running`. Tokens are single-use — the file
/// is consumed on success. All refusals are `ERROR Engine` frames and
/// leave the connection idle and usable.
#[allow(clippy::too_many_arguments)]
fn resume_run(
    conn: &mut Conn,
    token: Token,
    snap: &str,
    runtime: &mut Runtime<FrameSink>,
    registry: &QueryRegistry,
    set_cache: &mut HashMap<Vec<String>, SubscriptionSet>,
    snapshot_dir: Option<&Path>,
    by_session: &mut HashMap<RuntimeId, Token>,
) {
    let Some(dir) = snapshot_dir else {
        conn.queue_error(ErrorCode::Engine, "snapshots are not enabled on this server");
        return;
    };
    let well_formed = !snap.is_empty()
        && snap.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if !well_formed {
        // Tokens never need escaping, so anything else (path separators,
        // `..`) is refused before it touches the filesystem.
        conn.queue_error(ErrorCode::Engine, "malformed snapshot token");
        return;
    }
    let path = dir.join(format!("{snap}.fsnap"));
    let Ok(envelope) = std::fs::read(&path) else {
        conn.queue_error(ErrorCode::Engine, &format!("unknown snapshot token {snap:?}"));
        return;
    };
    let Some((ids, state)) = decode_envelope(&envelope) else {
        conn.queue_error(ErrorCode::Engine, "corrupt snapshot envelope");
        return;
    };
    let attached = if ids.len() == 1 {
        let Some(q) = registry.get(&ids[0]).cloned() else {
            conn.queue_error(
                ErrorCode::Engine,
                &format!("no query registered under id {:?}", ids[0]),
            );
            return;
        };
        let shared = SharedOut::new(&conn.output_wake);
        runtime.attach(&q, FrameSink(Arc::clone(&shared)), state).inspect(|_| {
            conn.shared = Some(shared);
        })
    } else {
        let set = match cached_set(registry, set_cache, &ids) {
            Ok(set) => set,
            Err(e) => {
                conn.queue_error(ErrorCode::Engine, &e.to_string());
                return;
            }
        };
        let outs: Vec<Arc<SharedOut>> =
            (0..ids.len()).map(|_| SharedOut::new(&conn.output_wake)).collect();
        let sinks = outs.iter().map(|o| Some(FrameSink(Arc::clone(o)))).collect();
        runtime.attach_shared(&set, sinks, state).inspect(|_| {
            conn.multi = outs;
        })
    };
    match attached {
        Ok(id) => {
            let _ = std::fs::remove_file(&path); // tokens are single-use
            conn.run_ids = ids;
            conn.run_started = Some(Instant::now());
            conn.state = ConnState::Running(id);
            by_session.insert(id, token);
        }
        // Plan mismatch (the registry changed under the token), budget
        // refusal, corrupt state bytes: the file stays for a later retry.
        Err(e) => {
            conn.shared = None;
            conn.multi.clear();
            conn.queue_error(ErrorCode::Engine, &e.to_string());
        }
    }
}

/// Snapshot-envelope layout: `[u32-BE id count]` then per id
/// `[u32-BE length][UTF-8 bytes]`, then the session's `flux-state` bytes
/// to the end of the file.
fn encode_envelope(ids: &[String], state: &[u8]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(4 + ids.iter().map(|i| 4 + i.len()).sum::<usize>() + state.len());
    out.extend_from_slice(&u32::try_from(ids.len()).expect("id count fits u32").to_be_bytes());
    for id in ids {
        out.extend_from_slice(&u32::try_from(id.len()).expect("id fits u32").to_be_bytes());
        out.extend_from_slice(id.as_bytes());
    }
    out.extend_from_slice(state);
    out
}

/// Decode [`encode_envelope`]'s layout; `None` on any truncation.
fn decode_envelope(bytes: &[u8]) -> Option<(Vec<String>, &[u8])> {
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if rest.len() < n {
            return None;
        }
        let (head, tail) = rest.split_at(n);
        *rest = tail;
        Some(head)
    }
    let mut rest = bytes;
    let count = u32::from_be_bytes(take(&mut rest, 4)?.try_into().expect("4 bytes")) as usize;
    if count == 0 || count > 1 << 16 {
        return None;
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u32::from_be_bytes(take(&mut rest, 4)?.try_into().expect("4 bytes")) as usize;
        ids.push(String::from_utf8(take(&mut rest, len)?.to_vec()).ok()?);
    }
    Some((ids, rest))
}

/// The compiled shared plan for `ids`, from the cache when its snapshot
/// still matches the registry's catalog, recompiled (and re-cached)
/// otherwise.
fn cached_set(
    registry: &QueryRegistry,
    set_cache: &mut HashMap<Vec<String>, SubscriptionSet>,
    ids: &[String],
) -> Result<SubscriptionSet, flux::FluxError> {
    if let Some(set) = set_cache.get(ids) {
        if set.is_current(registry) {
            return Ok(set.clone());
        }
    }
    let set = SubscriptionSet::compile_subset(registry, ids)?;
    set_cache.insert(ids.to_vec(), set.clone());
    Ok(set)
}

/// Put a connection into fatal-protocol-error teardown.
fn fail_protocol(conn: &mut Conn, runtime: &mut Runtime<FrameSink>, message: &str) {
    conn.queue_error(ErrorCode::Protocol, message);
    teardown(conn, runtime);
}

/// Put a connection into fatal-state-error teardown.
fn fail_state(conn: &mut Conn, runtime: &mut Runtime<FrameSink>, message: &str) {
    conn.queue_error(ErrorCode::State, message);
    teardown(conn, runtime);
}

fn teardown(conn: &mut Conn, runtime: &mut Runtime<FrameSink>) {
    if let Some(id) = conn.state.abort_on_death() {
        runtime.abort(id);
        conn.state = ConnState::Aborting(id);
    }
    // The `ERROR` frame is the stream's last word: drop the output seams so
    // result bytes the aborted run already produced cannot trail it.
    conn.shared = None;
    conn.multi.clear();
    conn.pending_opens.clear();
    conn.close_after_flush = true;
}

/// Answer one admin connection: swallow the request head, write the whole
/// Prometheus text page, close. Blocking with short timeouts — a wedged
/// scraper costs the loop at most ~half a second, and admin listeners are
/// expected to be loopback-only.
fn answer_scrape(mut stream: TcpStream, body: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut req = [0u8; 1024];
    let _ = stream.read(&mut req); // request line + headers, ignored
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// A running server on a background thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    waker: PollWaker,
    join: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin (metrics scrape) listener's address, if one is configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Raise the stop flag, then wake the loop so it looks: the server
    /// blocks without a timeout, and an idle one would otherwise never see
    /// the flag.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Stop the loop and join the thread, surfacing any I/O error the loop
    /// died with.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.request_stop();
        match self.join.take() {
            Some(join) => join.join().expect("server thread panicked"),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(unix)]
fn raw_handle(stream: &TcpStream) -> crate::poller::RawHandle {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_handle(_stream: &TcpStream) -> crate::poller::RawHandle {
    -1
}

#[cfg(unix)]
fn raw_handle_listener(listener: &TcpListener) -> crate::poller::RawHandle {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_handle_listener(_listener: &TcpListener) -> crate::poller::RawHandle {
    -1
}
