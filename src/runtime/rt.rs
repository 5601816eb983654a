//! The multi-core runtime: N [`Shard`](crate::Shard)-style workers on N
//! threads behind one poll-shaped handle.
//!
//! A [`Runtime`] owns its worker threads; each worker single-threadedly
//! multiplexes the sessions placed on it, exactly like a
//! [`Shard`](crate::Shard) does, and all workers optionally share one
//! [`AdmissionController`](crate::AdmissionController). The handle is
//! *poll-shaped* by design: commands ([`Runtime::open`], [`Runtime::feed`],
//! [`Runtime::finish`], [`Runtime::abort`]) enqueue onto the owning
//! worker's mailbox and return immediately; results flow back as
//! [`RuntimeEvent`]s drained with [`Runtime::poll_events`] (non-blocking)
//! or [`Runtime::wait_event`] (blocking). Nothing in the contract assumes
//! a blocked caller, so an async front-end (a tokio feature gate mapping
//! mailboxes onto tasks and events onto wakers) can drop in behind the
//! same surface without touching the layers below — that is the planned
//! next step in `ROADMAP.md`.
//!
//! Placement is least-loaded by *weight*, not session count: each worker
//! publishes live-session count and buffered bytes (session buffers plus
//! chunks queued behind the admission gate), and a new session goes to the
//! worker minimizing `live * SESSION_WEIGHT + buffered` — so one shard
//! drowning in out-of-order buffers stops attracting new sessions even
//! when its session count is lowest. Ids are global and generation-checked
//! ([`RuntimeId`]), so a stale id panics instead of touching a stranger's
//! stream. [`Runtime::drain`] is the graceful shutdown: every queued
//! command is processed, workers join, and the remaining events are handed
//! back (sessions still open at that point are aborted, returning whatever
//! they charged to the admission budget).
//!
//! Because sessions serialize (`flux-state`), they are also *mobile*:
//! [`Runtime::migrate`] moves one across shards mid-stream through its own
//! snapshot bytes (the id survives; output is byte-identical to never
//! moving), and a [`SuspendPolicy`] spills sessions idle past a threshold
//! to disk — sinks and plan stay resident, buffers and budget charges are
//! released — restoring transparently on the next command that touches
//! them. A parked session's recorded budget charges are *reserved* through
//! the hook (`try_grow`) before the pre-granted restore, so re-admission
//! never loses a race for headroom: a refusal leaves the parked state
//! intact and the entry joins the ordinary stalled/retry machinery.
//!
//! Sessions paused on the shared budget resume on the *release edge*: each
//! worker subscribes a [`BudgetWaker`] to the budget hook, arms it before
//! sleeping on its mailbox, and the release that restores headroom (a
//! session finishing on any core — or outside the runtime entirely) fires
//! the waker, which enqueues a retry onto the worker's own mailbox. There
//! is no retry tick and no polling: a stalled fleet sleeps until the exact
//! moment the pool frees. The [`RuntimeEvent::Stalled`] /
//! [`RuntimeEvent::Resumed`] notifications exist for observability and
//! source-side flow control.
//!
//! The same edge-triggered idiom runs in the other direction. A front-end
//! that cannot block in [`Runtime::wait_event`] — a server thread asleep in
//! its socket poller — hands the builder one [`EdgeWaker`]
//! ([`RuntimeBuilder::notifier`]); workers fire it after every
//! [`RuntimeEvent`] they enqueue and whenever their mailbox runs dry after
//! processing commands ("flush on idle": the sinks may hold output no event
//! announces). The front-end arms the waker *before* it drains events and
//! sink output, so a fire that finds it unarmed is already covered by the
//! drain about to happen, and a whole burst costs one notification. Without
//! a notifier nothing changes: no flag is touched, no callback runs.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flux_engine::{
    BudgetHook, BudgetObserver, BudgetWaker, CompiledQuery, EdgeWaker, FanoutPlan, ObservedHook,
    RunStats,
};
use flux_obs::{Counter, Gauge, Histogram, MetricsRegistry, StallCause, TraceEvent, Tracer};
use flux_xml::Sink;

use crate::api::PreparedQuery;
use crate::error::FluxError;
use crate::fanout::SubscriptionSet;
use crate::runtime::{AdmissionController, FeedOutcome, Session, SharedSession};

/// When and where a [`Runtime`] spills idle sessions to disk.
///
/// A session untouched for `idle_after` is serialized (the same
/// `flux-state` bytes [`Session::snapshot`] produces), written to
/// `dir/flux-session-<slot>-<gen>.state`, and the live value is dropped —
/// releasing its buffers and its admission-budget charges while the sink
/// and compiled plan stay resident. The next command touching the session
/// restores it transparently and removes the file. Sessions still parked
/// at shutdown are dropped with their worker and their files removed;
/// aborting a parked session removes its file too.
#[derive(Debug, Clone)]
pub struct SuspendPolicy {
    /// Idle time (no feed/resume/finish touching the session) after which
    /// it is spilled. Also the worker's sweep tick granularity.
    pub idle_after: Duration,
    /// Directory for spill files (created on first use).
    pub dir: PathBuf,
}

/// Global handle to one session inside a [`Runtime`]. Generation-checked:
/// using an id after its session finished (and the slot was reused) panics
/// instead of touching the wrong stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuntimeId {
    slot: u32,
    gen: u32,
}

/// Completion and flow-control notifications from the workers, drained via
/// [`Runtime::poll_events`] / [`Runtime::wait_event`].
#[derive(Debug)]
pub enum RuntimeEvent<S> {
    /// A [`Runtime::finish`] completed ([`Session::finish_parts`]
    /// semantics: the sink comes back on success *and* on failure).
    Finished {
        /// Which session.
        id: RuntimeId,
        /// The run outcome.
        result: Result<RunStats, FluxError>,
        /// The session's sink with everything written so far.
        sink: Option<S>,
    },
    /// A [`Runtime::finish`] of a shared fan-out session completed
    /// ([`SharedSession::finish_parts`] semantics).
    FinishedShared {
        /// Which shared session.
        id: RuntimeId,
        /// One entry per subscriber, in [`SubscriptionSet::ids`] order:
        /// the outcome plus the sink (`None` only for subscribers aborted
        /// earlier, whose sinks came back via
        /// [`RuntimeEvent::SubAborted`]).
        #[allow(clippy::type_complexity)]
        results: Vec<(Result<RunStats, FluxError>, Option<S>)>,
    },
    /// A [`Runtime::abort`] completed; the slot is free again.
    Aborted {
        /// Which session.
        id: RuntimeId,
    },
    /// A [`Runtime::abort_shared_sub`] completed: one subscriber of a
    /// shared session detached mid-stream. The session itself stays live
    /// (its slot retires on [`RuntimeEvent::FinishedShared`] /
    /// [`RuntimeEvent::Aborted`]).
    SubAborted {
        /// Which shared session.
        id: RuntimeId,
        /// The subscriber index.
        sub: usize,
        /// Its sink with the output streamed so far (`None` if that
        /// subscriber was already aborted).
        sink: Option<S>,
    },
    /// The session paused on the shared budget
    /// ([`FeedOutcome::Backpressure`]) or on a denied re-admission
    /// reservation; its worker retries automatically — the caller should
    /// stop feeding it until [`RuntimeEvent::Resumed`].
    Stalled {
        /// Which session.
        id: RuntimeId,
        /// Why it stalled: [`StallCause::Budget`] when the admission gate
        /// refused the next chunk, [`StallCause::AdmissionReserve`] when a
        /// parked session's re-admission reservation was denied.
        cause: StallCause,
    },
    /// A previously stalled session is executing again.
    Resumed {
        /// Which session.
        id: RuntimeId,
    },
    /// A [`Runtime::migrate`] completed: the session now runs on `shard`,
    /// rebuilt from its own snapshot bytes (emitted by the adopting
    /// worker). The id stays live and keeps working unchanged.
    Migrated {
        /// Which session.
        id: RuntimeId,
        /// The shard it now runs on.
        shard: usize,
    },
    /// The [`SuspendPolicy`] spilled an idle session to disk (or
    /// [`Runtime::suspend`] forced it). The session restores transparently
    /// on the next command that touches it; the id stays live.
    Suspended {
        /// Which session.
        id: RuntimeId,
        /// Size of the snapshot written to disk.
        bytes: usize,
    },
}

/// Mailbox commands, one queue per worker. The session travels boxed so
/// the hot `Feed` variant stays a couple of words wide on the channel.
enum Cmd<S: Sink> {
    Open {
        slot: u32,
        gen: u32,
        session: Box<Session<S>>,
    },
    OpenShared {
        slot: u32,
        gen: u32,
        session: Box<SharedSession<S>>,
    },
    Feed {
        slot: u32,
        chunk: Arc<[u8]>,
    },
    Resume {
        slot: u32,
    },
    Finish {
        slot: u32,
    },
    Abort {
        slot: u32,
    },
    /// Detach one subscriber of a shared session mid-stream.
    AbortSub {
        slot: u32,
        sub: usize,
    },
    /// Migration step 1 (source worker): detach the slot's entry —
    /// serialized through its own snapshot if resident — and send it back
    /// to the blocked main thread. Mailbox FIFO order keeps the byte
    /// stream intact: chunks fed before the migrate are executed before
    /// the extraction, chunks fed after it enqueue on the target.
    Extract {
        slot: u32,
        reply: Sender<Extracted<S>>,
    },
    /// Migration step 2 (target worker): install an extracted entry and
    /// resume it (a mid-migration serialized body restores immediately;
    /// one the suspend sweep had spilled stays on disk until touched).
    Adopt {
        slot: u32,
        shard: usize,
        extracted: Extracted<S>,
    },
    /// Spill one quiescent session to disk now (requires a
    /// [`SuspendPolicy`]).
    Suspend {
        slot: u32,
    },
    /// Budget-release wakeup (sent by the worker's [`BudgetWaker`]): no
    /// payload — receiving any command re-runs the stalled retries.
    RetryStalled,
    Shutdown,
}

/// A session in transit between shards: everything its worker knew about
/// it, with a resident body converted to snapshot bytes (a failed session
/// refuses to serialize and crosses as a live value — its only remaining
/// job is reporting its error at finish).
struct Extracted<S: Sink> {
    gen: u32,
    body: Body<S>,
    pending: VecDeque<Arc<[u8]>>,
    pending_bytes: usize,
    finishing: bool,
    aborts: Vec<usize>,
    opened: Instant,
    stalled_since: Option<Instant>,
}

struct WorkerHandle<S: Sink> {
    tx: Sender<Cmd<S>>,
    /// Live sessions on this worker (for placement; the worker decrements
    /// on finish/abort/extract, the main thread increments on open/adopt).
    live: Arc<AtomicUsize>,
    /// Bytes this worker's sessions hold in buffers plus gate-refused
    /// queued chunks (the second placement signal; published by the worker
    /// after every command it processes).
    buffered: Arc<AtomicUsize>,
    /// Commands enqueued and not yet received (mailbox depth: the sender
    /// side increments, the worker decrements — mirrored into the
    /// `flux_runtime_mailbox_depth` gauge when metrics are on).
    depth: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

/// Slot table entry: who owns the session and which id generation is
/// current.
struct Slot {
    gen: u32,
    worker: u16,
    open: bool,
}

/// N single-threaded session multiplexers on N worker threads — see the
/// [`runtime`](crate::runtime) module docs.
pub struct Runtime<S: Sink + Send + 'static> {
    workers: Vec<WorkerHandle<S>>,
    events: Receiver<(Instant, RuntimeEvent<S>)>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    budget: Option<Arc<dyn BudgetHook>>,
    suspend: Option<SuspendPolicy>,
    live: usize,
}

/// Configuration for a [`Runtime`]: shard count plus the optional budget,
/// suspend policy, metrics registry, tracer and owner notifier. The only
/// way to build a runtime: `RuntimeBuilder::new(shards)…build()`.
pub struct RuntimeBuilder {
    shards: usize,
    budget: Option<Arc<dyn BudgetHook>>,
    suspend: Option<SuspendPolicy>,
    metrics: Option<MetricsRegistry>,
    tracer: Option<Arc<dyn Tracer>>,
    notifier: Option<Arc<EdgeWaker>>,
}

impl RuntimeBuilder {
    /// A builder for a runtime with `shards` worker threads.
    pub fn new(shards: usize) -> RuntimeBuilder {
        RuntimeBuilder {
            shards,
            budget: None,
            suspend: None,
            metrics: None,
            tracer: None,
            notifier: None,
        }
    }

    /// Charge every session against this [`AdmissionController`].
    pub fn admission(self, admission: AdmissionController) -> RuntimeBuilder {
        self.budget(admission.hook())
    }

    /// Charge every session against an arbitrary [`BudgetHook`] — the seam
    /// for wrapping an [`AdmissionController`] with counting or logging
    /// decoration. The hook must deliver budget-release wakeups
    /// ([`BudgetHook::subscribe_waker`]) if it ever pauses sessions;
    /// wrapping hooks should forward all five trait methods to the inner
    /// controller.
    pub fn budget(mut self, budget: Arc<dyn BudgetHook>) -> RuntimeBuilder {
        self.budget = Some(budget);
        self
    }

    /// Spill idle sessions to disk per `policy`. Combined with a budget, the
    /// spill releases a parked session's charges, so suspension is also a
    /// pressure valve: idle sessions hand their headroom to active ones and
    /// reclaim it (through the gate) when they wake.
    pub fn suspend(mut self, policy: SuspendPolicy) -> RuntimeBuilder {
        self.suspend = Some(policy);
        self
    }

    /// Record runtime and engine metrics into `registry`: worker `i` owns
    /// registry shard `i` (per-shard gauges, shard-summed counters and
    /// histograms), and a configured budget hook is wrapped so
    /// grants/denials/releases count too. The registry handle stays with
    /// the caller — scrape it whenever.
    pub fn metrics(mut self, registry: &MetricsRegistry) -> RuntimeBuilder {
        self.metrics = Some(registry.clone());
        self
    }

    /// Emit lifecycle [`TraceEvent`]s to `tracer`. Without this (and
    /// without the `trace` feature's global buffer) tracing is off and
    /// costs one branch per would-be event.
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> RuntimeBuilder {
        self.tracer = Some(tracer);
        self
    }

    /// Fire `waker` whenever the runtime has something for its owner: after
    /// every [`RuntimeEvent`] a worker enqueues, and whenever a worker's
    /// mailbox runs dry after it processed commands (sinks may then hold
    /// output that no event announces). For front-ends that sleep somewhere
    /// other than [`Runtime::wait_event`] — the waker's callback is what
    /// reaches them (an `eventfd` write, a condvar signal).
    ///
    /// The owner's half of the protocol: [`arm`](EdgeWaker::arm) the waker
    /// *before* draining [`Runtime::poll_events`] and the sinks, every
    /// time, and once before first blocking. A fire that finds the waker
    /// unarmed is then always followed by a drain that sees what was
    /// produced, so notifications coalesce (one callback per burst) and
    /// none is lost.
    pub fn notifier(mut self, waker: Arc<EdgeWaker>) -> RuntimeBuilder {
        self.notifier = Some(waker);
        self
    }

    /// Spawn the workers and hand back the runtime. Panics if `shards` is
    /// 0.
    pub fn build<S: Sink + Send + 'static>(self) -> Runtime<S> {
        Runtime::build(self)
    }
}

/// Budget-traffic counters behind the [`ObservedHook`] wrapper a
/// metrics-enabled runtime installs around its configured hook.
struct BudgetCounters {
    grants: Arc<Counter>,
    granted_bytes: Arc<Counter>,
    denials: Arc<Counter>,
    releases: Arc<Counter>,
    released_bytes: Arc<Counter>,
}

impl BudgetObserver for BudgetCounters {
    fn granted(&self, bytes: usize) {
        self.grants.inc();
        self.granted_bytes.add(bytes as u64);
    }
    fn denied(&self, _bytes: usize) {
        self.denials.inc();
    }
    fn released(&self, bytes: usize) {
        self.releases.inc();
        self.released_bytes.add(bytes as u64);
    }
}

/// One worker's metric instruments, registered in its own registry shard
/// at spawn (the hot path only ever touches these `Arc`s).
struct ShardMetrics {
    live: Arc<Gauge>,
    buffered: Arc<Gauge>,
    mailbox: Arc<Gauge>,
    stalls_budget: Arc<Counter>,
    stalls_reserve: Arc<Counter>,
    resumes: Arc<Counter>,
    suspends: Arc<Counter>,
    migrates: Arc<Counter>,
    stall_us: Arc<Histogram>,
    runs: Arc<Counter>,
    run_errors: Arc<Counter>,
    run_us: Arc<Histogram>,
    events: Arc<Counter>,
    output_bytes: Arc<Counter>,
    tape_batches: Arc<Counter>,
    fast_forwards: Arc<Counter>,
    fanout_subscribers: Arc<Counter>,
    fanout_pumps: Arc<Counter>,
    notifies_fired: Arc<Counter>,
    notifies_coalesced: Arc<Counter>,
}

impl ShardMetrics {
    fn register(registry: &MetricsRegistry, shard: usize) -> ShardMetrics {
        let s = registry.shard(shard);
        ShardMetrics {
            live: s.gauge(&format!("flux_runtime_live_sessions{{shard=\"{shard}\"}}")),
            buffered: s.gauge(&format!("flux_runtime_buffered_bytes{{shard=\"{shard}\"}}")),
            mailbox: s.gauge(&format!("flux_runtime_mailbox_depth{{shard=\"{shard}\"}}")),
            stalls_budget: s.counter("flux_runtime_stalls_total{cause=\"budget\"}"),
            stalls_reserve: s.counter("flux_runtime_stalls_total{cause=\"admission_reserve\"}"),
            resumes: s.counter("flux_runtime_resumes_total"),
            suspends: s.counter("flux_runtime_suspends_total"),
            migrates: s.counter("flux_runtime_migrates_total"),
            stall_us: s.histogram("flux_runtime_stall_duration_us"),
            runs: s.counter("flux_engine_runs_total"),
            run_errors: s.counter("flux_engine_run_errors_total"),
            run_us: s.histogram("flux_engine_run_duration_us"),
            events: s.counter("flux_engine_events_total"),
            output_bytes: s.counter("flux_engine_output_bytes_total"),
            tape_batches: s.counter("flux_engine_tape_batches_total"),
            fast_forwards: s.counter("flux_engine_fast_forwards_total"),
            fanout_subscribers: s.counter("flux_engine_fanout_subscribers_total"),
            fanout_pumps: s.counter("flux_engine_fanout_pumps_total"),
            notifies_fired: s.counter("flux_runtime_notifies_total{result=\"fired\"}"),
            notifies_coalesced: s.counter("flux_runtime_notifies_total{result=\"coalesced\"}"),
        }
    }

    /// Fold one finished run's [`RunStats`] into the shard counters and
    /// latency histogram. Called *before* the completion event is sent, so
    /// a scrape taken after observing the event always includes the run.
    fn note_run(&self, opened: Instant, result: &Result<RunStats, FluxError>) {
        self.runs.inc();
        self.run_us.record(opened.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        match result {
            Ok(stats) => {
                self.events.add(stats.events);
                self.output_bytes.add(stats.output_bytes);
                self.tape_batches.add(stats.tape.batches);
                self.fast_forwards.add(stats.tape.fast_forwarded);
            }
            Err(_) => self.run_errors.inc(),
        }
    }

    /// Count one completed shared session: how many subscribers it served
    /// with how many pumps (one per plan class). `1 − pumps/subscribers` is
    /// the share of subscriptions that rode another subscriber's pump.
    fn note_fanout(&self, plan: &FanoutPlan) {
        self.fanout_subscribers.add(plan.len() as u64);
        self.fanout_pumps.add(plan.classes().len() as u64);
    }
}

/// The default tracer when none is configured explicitly: with the
/// `trace` feature, a process-global [`flux_obs::TraceBuffer`] so every
/// runtime in the process exercises the seam; without it, nothing — the
/// disabled path is one branch.
#[cfg(feature = "trace")]
fn default_tracer() -> Option<Arc<dyn Tracer>> {
    static GLOBAL: std::sync::OnceLock<Arc<flux_obs::TraceBuffer>> = std::sync::OnceLock::new();
    Some(Arc::clone(GLOBAL.get_or_init(|| flux_obs::TraceBuffer::with_capacity(4096))) as _)
}

#[cfg(not(feature = "trace"))]
fn default_tracer() -> Option<Arc<dyn Tracer>> {
    None
}

/// Placement weight of one live session relative to one buffered byte: a
/// session with no buffered state still costs scheduling and cache
/// footprint, so it counts as this many bytes when comparing shard loads.
const SESSION_WEIGHT: usize = 4096;

impl<S: Sink + Send + 'static> Runtime<S> {
    fn build(cfg: RuntimeBuilder) -> Runtime<S> {
        let RuntimeBuilder { shards, budget, suspend, metrics, tracer, notifier } = cfg;
        assert!(shards > 0, "a Runtime needs at least one shard");
        let tracer = tracer.or_else(default_tracer);
        // With metrics on, the configured hook is wrapped so every
        // grant/denial/release of every session counts; sessions are built
        // from `self.budget`, so they charge through the wrapper too.
        let budget = match (&metrics, budget) {
            (Some(registry), Some(hook)) => {
                let s = registry.shard(0);
                let counters = Arc::new(BudgetCounters {
                    grants: s.counter("flux_budget_grants_total"),
                    granted_bytes: s.counter("flux_budget_granted_bytes_total"),
                    denials: s.counter("flux_budget_denials_total"),
                    releases: s.counter("flux_budget_releases_total"),
                    released_bytes: s.counter("flux_budget_released_bytes_total"),
                });
                Some(ObservedHook::new(hook, counters) as Arc<dyn BudgetHook>)
            }
            (_, budget) => budget,
        };
        let (events_tx, events) = channel();
        let workers = (0..shards)
            .map(|i| {
                let (tx, rx) = channel();
                let live = Arc::new(AtomicUsize::new(0));
                let buffered = Arc::new(AtomicUsize::new(0));
                let depth = Arc::new(AtomicUsize::new(0));
                // The worker's budget-release wakeup: fired on the release
                // edge (possibly from another worker's thread, or from a
                // session outside this runtime entirely), it lands in the
                // worker's own mailbox and re-runs the stalled retries.
                let worker_budget = budget.as_ref().map(|hook| {
                    let wake_tx = tx.clone();
                    let wake_depth = Arc::clone(&depth);
                    let waker = BudgetWaker::new(move || {
                        // The worker may already be shutting down: a wakeup
                        // with nobody to wake is fine to drop.
                        wake_depth.fetch_add(1, Ordering::Relaxed);
                        let _ = wake_tx.send(Cmd::RetryStalled);
                    });
                    hook.subscribe_waker(&waker);
                    (Arc::clone(hook), waker)
                });
                let ctx = WorkerCtx {
                    shard: i as u32,
                    events: events_tx.clone(),
                    live: Arc::clone(&live),
                    buffered: Arc::clone(&buffered),
                    depth: Arc::clone(&depth),
                    suspend: suspend.clone(),
                    metrics: metrics.as_ref().map(|m| ShardMetrics::register(m, i)),
                    tracer: tracer.clone(),
                    notifier: notifier.clone(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("flux-shard-{i}"))
                    .spawn(move || worker_loop(rx, worker_budget, ctx))
                    .expect("spawn shard worker");
                WorkerHandle { tx, live, buffered, depth, handle: Some(handle) }
            })
            .collect();
        Runtime { workers, events, slots: Vec::new(), free: Vec::new(), budget, suspend, live: 0 }
    }

    /// Number of worker threads.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Sessions opened and not yet drained as
    /// [`RuntimeEvent::Finished`]/[`RuntimeEvent::Aborted`].
    pub fn live_sessions(&self) -> usize {
        self.live
    }

    /// Live sessions per worker (placement snapshot, for observability).
    pub fn session_counts(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.live.load(Ordering::Relaxed)).collect()
    }

    /// Buffered bytes per worker — session buffers plus gate-refused
    /// queued chunks, as last published by each worker (the second
    /// placement signal, for observability).
    pub fn buffered_counts(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.buffered.load(Ordering::Relaxed)).collect()
    }

    /// The shard a session currently runs on.
    pub fn shard_of(&self, id: RuntimeId) -> usize {
        self.check(id)
    }

    /// Open a session on the least-loaded worker.
    pub fn open(&mut self, query: &PreparedQuery, sink: S) -> RuntimeId {
        let session = match &self.budget {
            Some(hook) => query.session_with_budget(sink, Arc::clone(hook)),
            None => query.session(sink),
        };
        let (worker, slot, gen) = self.place();
        self.send(worker, Cmd::Open { slot, gen, session: Box::new(session) });
        RuntimeId { slot, gen }
    }

    /// Open a shared fan-out session over a compiled [`SubscriptionSet`]
    /// on the least-loaded worker: one parse, `set.len()` subscribers, one
    /// sink each (in [`SubscriptionSet::ids`] order). Drive it with the
    /// ordinary [`Runtime::feed`] / [`Runtime::finish`] / [`Runtime::abort`]
    /// commands; completion arrives as [`RuntimeEvent::FinishedShared`].
    pub fn open_shared(&mut self, set: &SubscriptionSet, sinks: Vec<S>) -> RuntimeId {
        let session = match &self.budget {
            Some(hook) => set.session_with_budget(sinks, Arc::clone(hook)),
            None => set.session(sinks),
        };
        let (worker, slot, gen) = self.place();
        self.send(worker, Cmd::OpenShared { slot, gen, session: Box::new(session) });
        RuntimeId { slot, gen }
    }

    /// Least-loaded placement: claim a slot and a worker for a new
    /// session. Load is recomputed from the live signals at every open —
    /// session count *and* buffered bytes — so a shard whose few sessions
    /// hold megabytes of out-of-order buffers (or stalled queues) stops
    /// winning ties against genuinely idle shards.
    fn place(&mut self) -> (usize, u32, u32) {
        let worker = self
            .workers
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| {
                w.live.load(Ordering::Relaxed) * SESSION_WEIGHT + w.buffered.load(Ordering::Relaxed)
            })
            .map(|(i, _)| i)
            .expect("at least one worker");
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.worker = worker as u16;
                s.open = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 sessions");
                self.slots.push(Slot { gen: 0, worker: worker as u16, open: true });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.workers[worker].live.fetch_add(1, Ordering::Relaxed);
        self.live += 1;
        (worker, slot, gen)
    }

    /// Enqueue a chunk for one session (copied once into a shared buffer;
    /// use [`Runtime::feed_shared`] to fan the same bytes out to many
    /// sessions without re-copying).
    pub fn feed(&mut self, id: RuntimeId, chunk: &[u8]) {
        self.feed_shared(id, Arc::from(chunk));
    }

    /// Enqueue an already-shared chunk for one session.
    pub fn feed_shared(&mut self, id: RuntimeId, chunk: Arc<[u8]>) {
        let worker = self.check(id);
        self.send(worker, Cmd::Feed { slot: id.slot, chunk });
    }

    /// Ask a stalled session's worker to retry it now (workers also retry
    /// on their own whenever their mailbox goes quiet).
    pub fn resume(&mut self, id: RuntimeId) {
        let worker = self.check(id);
        self.send(worker, Cmd::Resume { slot: id.slot });
    }

    /// Enqueue end-of-input for one session; the result arrives as
    /// [`RuntimeEvent::Finished`]. The id is dead from here on.
    pub fn finish(&mut self, id: RuntimeId) {
        let worker = self.check(id);
        self.slots[id.slot as usize].open = false;
        self.send(worker, Cmd::Finish { slot: id.slot });
    }

    /// Enqueue a mid-stream abort; confirmed by [`RuntimeEvent::Aborted`].
    /// The id is dead from here on.
    pub fn abort(&mut self, id: RuntimeId) {
        let worker = self.check(id);
        self.slots[id.slot as usize].open = false;
        self.send(worker, Cmd::Abort { slot: id.slot });
    }

    /// Detach one subscriber of a shared session mid-stream; its sink
    /// comes back via [`RuntimeEvent::SubAborted`] while the shared parse
    /// keeps running for the rest. The id stays live.
    pub fn abort_shared_sub(&mut self, id: RuntimeId, sub: usize) {
        let worker = self.check(id);
        self.send(worker, Cmd::AbortSub { slot: id.slot, sub });
    }

    /// Move one live session to another shard mid-stream. The session
    /// crosses as its own `flux-state` snapshot (sinks and plan travel as
    /// values), the id survives unchanged, and output is byte-identical
    /// to never having moved; confirmed by [`RuntimeEvent::Migrated`].
    ///
    /// Ordering is safe by construction: this blocks until the source
    /// worker has executed every previously enqueued command for the
    /// session and handed its state over, and commands issued after this
    /// returns enqueue on the target. No feed can slip between the two
    /// halves. A no-op when the session is already on `shard`.
    pub fn migrate(&mut self, id: RuntimeId, shard: usize) {
        assert!(shard < self.workers.len(), "target shard out of range");
        let from = self.check(id);
        if from == shard {
            return;
        }
        let (reply_tx, reply_rx) = channel();
        self.send(from, Cmd::Extract { slot: id.slot, reply: reply_tx });
        let extracted = reply_rx.recv().expect("source shard worker alive");
        self.slots[id.slot as usize].worker = shard as u16;
        self.workers[shard].live.fetch_add(1, Ordering::Relaxed);
        self.send(shard, Cmd::Adopt { slot: id.slot, shard, extracted });
    }

    /// Spill one session to disk now instead of waiting out the policy's
    /// idle threshold; confirmed by [`RuntimeEvent::Suspended`]. The
    /// session restores transparently on the next command touching it.
    /// Best-effort: a stalled, failed or already-parked session is left
    /// as it is. Panics unless the runtime was built with a
    /// [`SuspendPolicy`].
    pub fn suspend(&mut self, id: RuntimeId) {
        assert!(self.suspend.is_some(), "Runtime::suspend requires a SuspendPolicy");
        let worker = self.check(id);
        self.send(worker, Cmd::Suspend { slot: id.slot });
    }

    /// Detach one live session from the runtime as portable `flux-state`
    /// snapshot bytes, retiring its id. The sinks are dropped — output
    /// already streamed left through them — and the session's budget
    /// charges release with the serialized state;
    /// [`Runtime::attach`] / [`Runtime::attach_shared`] rebuild it later
    /// (in this runtime, another one, or another process) with fresh
    /// sinks, re-granting the recorded charges. Blocks like
    /// [`Runtime::migrate`] until the owning worker has executed every
    /// previously enqueued command for the session, so the bytes reflect
    /// all prior feeds.
    ///
    /// Refuses ([`flux_state::StateError::NotQuiescent`]) when the
    /// session cannot serialize right now — it failed earlier, or holds
    /// gate-refused chunks / deferred finish or subscriber-abort work —
    /// leaving it running in place with its id still valid.
    pub fn detach(&mut self, id: RuntimeId) -> Result<Vec<u8>, FluxError> {
        let from = self.check(id);
        let (reply_tx, reply_rx) = channel();
        self.send(from, Cmd::Extract { slot: id.slot, reply: reply_tx });
        let extracted = reply_rx.recv().expect("source shard worker alive");
        let quiescent = extracted.pending.is_empty()
            && !extracted.finishing
            && extracted.aborts.is_empty()
            && matches!(extracted.body, Body::Parked(_));
        if !quiescent {
            // Hand it straight back to its own worker (which resumes a
            // transport-parked body immediately) and refuse.
            self.workers[from].live.fetch_add(1, Ordering::Relaxed);
            self.send(from, Cmd::Adopt { slot: id.slot, shard: from, extracted });
            return Err(FluxError::Snapshot(flux_state::StateError::NotQuiescent(
                "session is failed or holds gate-refused or deferred work",
            )));
        }
        let Body::Parked(parked) = extracted.body else { unreachable!() };
        let s = &mut self.slots[id.slot as usize];
        s.open = false;
        s.gen += 1;
        self.free.push(id.slot);
        self.live -= 1;
        match parked.bytes {
            ParkedBytes::Mem(bytes) => Ok(bytes),
            ParkedBytes::Disk(path) => {
                let data = std::fs::read(&path)
                    .map_err(|e| FluxError::Snapshot(flux_state::StateError::Io(e.to_string())))?;
                let _ = std::fs::remove_file(&path);
                Ok(data)
            }
        }
    }

    /// Rebuild a detached single-query session from snapshot bytes on the
    /// least-loaded worker with a fresh sink — the resume half of
    /// [`Runtime::detach`], equally happy with bytes from
    /// [`Session::snapshot`]. Under admission control the snapshot's
    /// recorded charges are re-granted before the session lands; a hook
    /// without headroom refuses
    /// ([`flux_state::StateError::BudgetDenied`]) charging nothing.
    pub fn attach(
        &mut self,
        query: &PreparedQuery,
        sink: S,
        snapshot: &[u8],
    ) -> Result<RuntimeId, FluxError> {
        let session = match &self.budget {
            Some(hook) => query.restore_session_with_budget(sink, Arc::clone(hook), snapshot)?,
            None => query.restore_session(sink, snapshot)?,
        };
        let (worker, slot, gen) = self.place();
        self.send(worker, Cmd::Open { slot, gen, session: Box::new(session) });
        Ok(RuntimeId { slot, gen })
    }

    /// The fan-out twin of [`Runtime::attach`]: rebuild a detached shared
    /// session over the same compiled [`SubscriptionSet`], one fresh sink
    /// per subscriber in set order (`None` exactly for subscribers the
    /// snapshot recorded as detached).
    pub fn attach_shared(
        &mut self,
        set: &SubscriptionSet,
        sinks: Vec<Option<S>>,
        snapshot: &[u8],
    ) -> Result<RuntimeId, FluxError> {
        let session = match &self.budget {
            Some(hook) => set.restore_session_with_budget(sinks, Arc::clone(hook), snapshot)?,
            None => set.restore_session(sinks, snapshot)?,
        };
        let (worker, slot, gen) = self.place();
        self.send(worker, Cmd::OpenShared { slot, gen, session: Box::new(session) });
        Ok(RuntimeId { slot, gen })
    }

    /// Drain every event the workers have produced so far (non-blocking;
    /// an empty drain allocates nothing).
    pub fn poll_events(&mut self) -> Vec<RuntimeEvent<S>> {
        self.drain_events(|(_, ev)| ev)
    }

    /// Like [`Runtime::poll_events`], with each event's enqueue timestamp
    /// (the monotonic [`Instant`] taken on the worker as it emitted the
    /// event). A stall episode's wall time is the span from its
    /// [`RuntimeEvent::Stalled`] stamp to its [`RuntimeEvent::Resumed`]
    /// stamp — unaffected by how late the caller polls; the runtime's own
    /// `flux_runtime_stall_duration_us` histogram measures the same span.
    pub fn poll_events_stamped(&mut self) -> Vec<(Instant, RuntimeEvent<S>)> {
        self.drain_events(|stamped| stamped)
    }

    /// One pass over the event channel: retire each event's slot, keep
    /// what `keep` makes of it.
    fn drain_events<T>(&mut self, keep: impl Fn((Instant, RuntimeEvent<S>)) -> T) -> Vec<T> {
        let mut evs = Vec::new();
        while let Ok(stamped) = self.events.try_recv() {
            self.retire(&stamped.1);
            evs.push(keep(stamped));
        }
        evs
    }

    /// Block for the next event. Returns `None` only when every worker has
    /// exited (after [`Runtime::drain`] started the shutdown).
    pub fn wait_event(&mut self) -> Option<RuntimeEvent<S>> {
        let (_, ev) = self.events.recv().ok()?;
        self.retire(&ev);
        Some(ev)
    }

    /// Graceful shutdown: process every queued command, join the workers,
    /// and hand back the events not yet drained. Sessions never finished or
    /// aborted are dropped with their worker (their budget charges are
    /// released; no event is emitted for them).
    pub fn drain(mut self) -> Vec<RuntimeEvent<S>> {
        self.shutdown();
        let mut evs = Vec::new();
        while let Ok((_, ev)) = self.events.recv() {
            self.retire(&ev);
            evs.push(ev);
        }
        evs
    }

    /// Send shutdown to all workers and join them (idempotent).
    fn shutdown(&mut self) {
        for w in &mut self.workers {
            w.depth.fetch_add(1, Ordering::Relaxed);
            let _ = w.tx.send(Cmd::Shutdown); // queued behind all prior work
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                h.join().expect("shard worker panicked");
            }
        }
    }

    /// Free the slot behind a completed session's event.
    fn retire(&mut self, ev: &RuntimeEvent<S>) {
        let id = match ev {
            RuntimeEvent::Finished { id, .. }
            | RuntimeEvent::FinishedShared { id, .. }
            | RuntimeEvent::Aborted { id } => *id,
            RuntimeEvent::Stalled { .. }
            | RuntimeEvent::Resumed { .. }
            | RuntimeEvent::Migrated { .. }
            | RuntimeEvent::Suspended { .. }
            | RuntimeEvent::SubAborted { .. } => return,
        };
        let s = &mut self.slots[id.slot as usize];
        debug_assert_eq!(s.gen, id.gen, "events retire in id order");
        s.gen += 1;
        self.free.push(id.slot);
        self.live -= 1;
    }

    fn send(&self, worker: usize, cmd: Cmd<S>) {
        let w = &self.workers[worker];
        w.depth.fetch_add(1, Ordering::Relaxed);
        w.tx.send(cmd).expect("shard worker alive while the runtime is");
    }

    /// Generation check; returns the owning worker.
    fn check(&self, id: RuntimeId) -> usize {
        let s = &self.slots[id.slot as usize];
        assert!(
            s.open && s.gen == id.gen,
            "stale RuntimeId: that session already finished or aborted"
        );
        s.worker as usize
    }
}

impl<S: Sink + Send + 'static> Drop for Runtime<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A worker entry's execution: one single-query session or one shared
/// fan-out session. Both expose the same feed/gate surface, so the
/// stall/retry machinery is agnostic to the shape.
// Boxed so the enum (and every worker map entry) stays pointer-sized
// regardless of how the two session layouts grow.
enum AnySession<S: Sink> {
    Single(Box<Session<S>>),
    Shared(Box<SharedSession<S>>),
}

impl<S: Sink> AnySession<S> {
    fn feed_outcome(&mut self, chunk: &[u8]) -> Result<FeedOutcome, FluxError> {
        match self {
            AnySession::Single(s) => s.feed_outcome(chunk),
            AnySession::Shared(s) => s.feed_outcome(chunk),
        }
    }

    fn feed(&mut self, chunk: &[u8]) -> Result<(), FluxError> {
        match self {
            AnySession::Single(s) => s.feed(chunk),
            AnySession::Shared(s) => s.feed(chunk),
        }
    }

    fn buffered_bytes(&self) -> usize {
        match self {
            AnySession::Single(s) => s.buffered_bytes(),
            AnySession::Shared(s) => s.buffered_bytes(),
        }
    }

    /// Serialize, if the session is healthy enough to (a failed one
    /// refuses and keeps living as a value until finish reports its
    /// cause).
    fn snapshot(&self) -> Result<Vec<u8>, FluxError> {
        match self {
            AnySession::Single(s) => s.snapshot(),
            AnySession::Shared(s) => s.snapshot(),
        }
    }
}

/// An entry's execution state: resident, serialized, or dead.
enum Body<S: Sink> {
    /// Resident in memory, executing.
    Live(AnySession<S>),
    /// Serialized to `flux-state` bytes — in memory mid-migration, on
    /// disk after a suspend — plus the parts that do not serialize: the
    /// compiled plan handle and the sinks.
    Parked(Parked<S>),
    /// Park/unpark failed irrecoverably (unreadable spill file, corrupt
    /// bytes). The entry's only remaining job is reporting `error` at
    /// finish; sinks survive when the failure came before the rebuild
    /// consumed them.
    Lost { error: String, sinks: Option<SinkSlots<S>>, shared: bool },
}

/// Placeholder body while the real one is temporarily moved out (and the
/// wreck left behind if a park/unpark panics mid-flight).
fn placeholder<S: Sink>() -> Body<S> {
    Body::Lost { error: String::new(), sinks: None, shared: false }
}

struct Parked<S: Sink> {
    bytes: ParkedBytes,
    plan: PlanHandle,
    sinks: SinkSlots<S>,
    /// Budget charges recorded in the snapshot's BUDGET section —
    /// reserved back through `try_grow` before the pre-granted restore.
    charged: usize,
}

enum ParkedBytes {
    Mem(Vec<u8>),
    Disk(PathBuf),
}

enum PlanHandle {
    Single(Arc<CompiledQuery>),
    Shared(Arc<FanoutPlan>),
}

enum SinkSlots<S: Sink> {
    Single(S),
    /// One per subscriber in set order; `None` for already-detached ones.
    Shared(Vec<Option<S>>),
}

struct Entry<S: Sink> {
    gen: u32,
    body: Body<S>,
    /// Chunks refused by the admission gate — or arriving while the body
    /// was parked under a denied re-admission reservation — waiting to be
    /// re-fed in order. Non-empty ⇒ the entry is stalled.
    pending: VecDeque<Arc<[u8]>>,
    /// Total bytes queued in `pending`.
    pending_bytes: usize,
    /// Finish arrived while the budget refused the re-admission
    /// reservation; completes on the retry that wakes the body.
    finishing: bool,
    /// Subscriber aborts deferred the same way.
    aborts: Vec<usize>,
    /// Last command that touched this entry (idle measure for the sweep).
    last_touch: Instant,
    /// Bytes currently published into the worker's shared buffered-bytes
    /// counter on behalf of this entry.
    reported: usize,
    /// When the session landed on a worker (run-latency measure).
    opened: Instant,
    /// `Some` from the moment a stall was announced
    /// ([`RuntimeEvent::Stalled`]) until the matching
    /// [`RuntimeEvent::Resumed`] — the announce guard *and* the
    /// stall-duration clock. Tracking announcement here (instead of
    /// inferring it from queued chunks) is what keeps a stall visible even
    /// when it carries no pending bytes (a finish or subscriber abort
    /// deferred behind a denied re-admission) and guarantees the
    /// stall/resume pair is emitted in order even when both happen within
    /// one poll window.
    stalled_since: Option<Instant>,
}

impl<S: Sink> Entry<S> {
    fn new(gen: u32, body: Body<S>) -> Entry<S> {
        Entry {
            gen,
            body,
            pending: VecDeque::new(),
            pending_bytes: 0,
            finishing: false,
            aborts: Vec::new(),
            last_touch: Instant::now(),
            reported: 0,
            opened: Instant::now(),
            stalled_since: None,
        }
    }

    /// Bytes this entry holds in memory right now: session buffers (or
    /// the in-memory snapshot mid-migration) plus queued chunks.
    /// Disk-parked state costs nothing.
    fn buffered_now(&self) -> usize {
        self.pending_bytes
            + match &self.body {
                Body::Live(s) => s.buffered_bytes(),
                Body::Parked(p) => match &p.bytes {
                    ParkedBytes::Mem(b) => b.len(),
                    ParkedBytes::Disk(_) => 0,
                },
                Body::Lost { .. } => 0,
            }
    }

    /// Quiescent enough to park: resident, nothing queued, nothing
    /// deferred.
    fn parkable(&self) -> bool {
        matches!(self.body, Body::Live(_))
            && self.pending.is_empty()
            && !self.finishing
            && self.aborts.is_empty()
    }
}

/// Publish an entry's current buffered footprint into the worker's shared
/// load counter (the placement signal) as a delta against what it last
/// reported.
fn republish<S: Sink>(e: &mut Entry<S>, buffered: &AtomicUsize) {
    let now = e.buffered_now();
    if now >= e.reported {
        buffered.fetch_add(now - e.reported, Ordering::Relaxed);
    } else {
        buffered.fetch_sub(e.reported - now, Ordering::Relaxed);
    }
    e.reported = now;
}

/// Everything one worker thread needs besides its mailbox: the event
/// channel, the shared load signals, and the (optional) observability
/// hooks. Bundled so the helper functions below take one context instead
/// of six loose arguments.
struct WorkerCtx<S: Sink> {
    shard: u32,
    events: Sender<(Instant, RuntimeEvent<S>)>,
    live: Arc<AtomicUsize>,
    buffered: Arc<AtomicUsize>,
    depth: Arc<AtomicUsize>,
    suspend: Option<SuspendPolicy>,
    metrics: Option<ShardMetrics>,
    tracer: Option<Arc<dyn Tracer>>,
    notifier: Option<Arc<EdgeWaker>>,
}

impl<S: Sink> WorkerCtx<S> {
    /// Emit one runtime event, stamped with its enqueue [`Instant`], and
    /// tell the owner it is there.
    fn send(&self, ev: RuntimeEvent<S>) {
        let _ = self.events.send((Instant::now(), ev));
        self.notify();
    }

    /// Fire the owner's notifier, if one is configured — always *after*
    /// the state it announces is in place (the event is on the channel, the
    /// output is in the sink), which is what the owner's arm-then-drain
    /// relies on.
    fn notify(&self) {
        if let Some(notifier) = &self.notifier {
            let fired = notifier.fire();
            if let Some(m) = &self.metrics {
                if fired {
                    m.notifies_fired.inc();
                } else {
                    m.notifies_coalesced.inc();
                }
            }
        }
    }

    /// Emit one trace event if a tracer is attached — the inlined `None`
    /// check is the whole cost of disabled tracing (no allocation either
    /// way; pinned by the counting-allocator test).
    #[inline]
    fn trace(&self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_deref() {
            t.emit(ev);
        }
    }

    /// Mirror the shared load signals into this shard's gauges.
    fn publish_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.live.set(self.live.load(Ordering::Relaxed) as i64);
            m.buffered.set(self.buffered.load(Ordering::Relaxed) as i64);
            m.mailbox.set(self.depth.load(Ordering::Relaxed) as i64);
        }
    }
}

/// Announce a stall exactly once per episode: counter, trace event, and
/// the [`RuntimeEvent::Stalled`] notification, with `stalled_since`
/// starting the duration clock. A second cause while already stalled is
/// absorbed (the episode keeps its original cause).
fn note_stall<S: Sink>(ctx: &WorkerCtx<S>, e: &mut Entry<S>, slot: u32, cause: StallCause) {
    if e.stalled_since.is_some() {
        return;
    }
    e.stalled_since = Some(Instant::now());
    if let Some(m) = &ctx.metrics {
        match cause {
            StallCause::Budget => m.stalls_budget.inc(),
            StallCause::AdmissionReserve => m.stalls_reserve.inc(),
        }
    }
    ctx.trace(TraceEvent::Stall { shard: ctx.shard, cause });
    ctx.send(RuntimeEvent::Stalled { id: RuntimeId { slot, gen: e.gen }, cause });
}

/// Close a stall episode if one is open: record its duration, emit the
/// [`RuntimeEvent::Resumed`] pair for the earlier `Stalled`. Also runs on
/// the way into a finish, so a stall resolved *by* the finish still emits
/// both events, in order, within the same poll window.
fn note_resume<S: Sink>(ctx: &WorkerCtx<S>, e: &mut Entry<S>, slot: u32) {
    if let Some(since) = e.stalled_since.take() {
        if let Some(m) = &ctx.metrics {
            m.resumes.inc();
            m.stall_us.record(since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        ctx.trace(TraceEvent::Resume { shard: ctx.shard });
        ctx.send(RuntimeEvent::Resumed { id: RuntimeId { slot, gen: e.gen } });
    }
}

/// One worker thread: a mailbox-driven session multiplexer. (The admission
/// gate lives inside each `Session`; workers only see its `FeedOutcome`.)
/// With sessions stalled on the shared budget the worker sleeps on its
/// mailbox with its [`BudgetWaker`] armed — the release edge that restores
/// headroom enqueues [`Cmd::RetryStalled`], so resumption is event-driven,
/// not polled.
fn worker_loop<S: Sink + Send + 'static>(
    rx: Receiver<Cmd<S>>,
    budget: Option<(Arc<dyn BudgetHook>, Arc<BudgetWaker>)>,
    ctx: WorkerCtx<S>,
) {
    let hook = budget.as_ref().map(|(h, _)| Arc::clone(h));
    let mut sessions: HashMap<u32, Entry<S>> = HashMap::new();
    let mut stalled: Vec<u32> = Vec::new();
    let mut last_sweep = Instant::now();
    // Commands ran since the owner was last told: sinks may hold output
    // that no event announced.
    let mut unflushed = false;
    loop {
        // Flush on idle: about to sleep on an empty mailbox with work done
        // since the last notification. Telling the owner per burst rather
        // than per command is what keeps a busy mailbox cheap. (`depth`
        // counts sends *before* they land, so a command in flight defers
        // the flush to the iteration that processes it.)
        if unflushed && ctx.depth.load(Ordering::Relaxed) == 0 {
            unflushed = false;
            ctx.notify();
        }
        let cmd = if stalled.is_empty() {
            match wait(&rx, &ctx.suspend) {
                Ok(c) => c,
                Err(()) => return, // runtime dropped without Shutdown
            }
        } else {
            // Sessions are stalled on the shared budget (the only stall
            // cause, so a budget is necessarily present). Arm the wakeup,
            // then make one *genuine* retry attempt — real `try_grow`
            // calls, not a `should_pause` peek, because a parked entry's
            // re-admission reservation can be refused while the pool sits
            // above its pause line. Progress skips the sleep; otherwise a
            // release edge landing anywhere after the arm still fires into
            // this mailbox, so the blocking recv can never sleep through
            // it.
            let (_, waker) = budget.as_ref().expect("stalled sessions imply an admission budget");
            waker.arm();
            if retry_pass(&mut sessions, &mut stalled, hook.as_ref(), &ctx) {
                waker.disarm();
                unflushed = true;
                None
            } else {
                match wait(&rx, &ctx.suspend) {
                    Ok(c) => {
                        waker.disarm();
                        c
                    }
                    Err(()) => return,
                }
            }
        };
        if cmd.is_some() {
            ctx.depth.fetch_sub(1, Ordering::Relaxed);
            unflushed = true;
        }
        match cmd {
            Some(Cmd::Open { slot, gen, session }) => {
                ctx.trace(TraceEvent::SessionOpen { shard: ctx.shard });
                let prev =
                    sessions.insert(slot, Entry::new(gen, Body::Live(AnySession::Single(session))));
                debug_assert!(prev.is_none(), "slot reused before retirement");
            }
            Some(Cmd::OpenShared { slot, gen, session }) => {
                ctx.trace(TraceEvent::SessionOpen { shard: ctx.shard });
                let prev =
                    sessions.insert(slot, Entry::new(gen, Body::Live(AnySession::Shared(session))));
                debug_assert!(prev.is_none(), "slot reused before retirement");
            }
            Some(Cmd::Feed { slot, chunk }) => {
                let e = sessions.get_mut(&slot).expect("feed addresses a live session");
                e.last_touch = Instant::now();
                if e.pending.is_empty() {
                    let mut progressed = false;
                    match wake_entry(e, hook.as_ref(), &mut progressed) {
                        Wake::Ready => {
                            apply_aborts(e, slot, &ctx);
                            let Body::Live(session) = &mut e.body else {
                                unreachable!("woken above")
                            };
                            match session.feed_outcome(&chunk) {
                                Ok(FeedOutcome::Accepted) => {}
                                Ok(FeedOutcome::Backpressure) => {
                                    // First refusal: queue the chunk and
                                    // tell the source to ease off.
                                    e.pending_bytes += chunk.len();
                                    e.pending.push_back(chunk);
                                    stalled.push(slot);
                                    note_stall(&ctx, e, slot, StallCause::Budget);
                                }
                                // Failed earlier; the cause surfaces at
                                // finish.
                                Err(_) => {}
                            }
                        }
                        Wake::Denied => {
                            // The pool cannot re-admit the parked state
                            // yet: queue the chunk and stall; the
                            // release-edge retry unparks and drains.
                            e.pending_bytes += chunk.len();
                            e.pending.push_back(chunk);
                            stalled.push(slot);
                            note_stall(&ctx, e, slot, StallCause::AdmissionReserve);
                        }
                        // Absorbed; the cause surfaces at finish.
                        Wake::Dead => {}
                    }
                } else {
                    // Keep byte order: behind the already-refused chunks.
                    e.pending_bytes += chunk.len();
                    e.pending.push_back(chunk);
                }
                republish(e, &ctx.buffered);
            }
            Some(Cmd::Resume { slot }) => {
                let e = sessions.get_mut(&slot).expect("resume addresses a live session");
                e.last_touch = Instant::now();
                let (still, _) = retry_entry(e, slot, hook.as_ref(), &ctx);
                let finish_ready = !still && e.finishing;
                if still {
                    if !stalled.contains(&slot) {
                        stalled.push(slot);
                    }
                } else {
                    stalled.retain(|&s| s != slot);
                }
                if finish_ready {
                    finish_now(slot, &mut sessions, &mut stalled, &ctx);
                }
            }
            Some(Cmd::Finish { slot }) => {
                let e = sessions.get_mut(&slot).expect("finish addresses a live session");
                e.last_touch = Instant::now();
                let mut progressed = false;
                match wake_entry(e, hook.as_ref(), &mut progressed) {
                    Wake::Denied => {
                        // The pool cannot re-admit the parked state yet;
                        // the finish completes on the release-edge retry
                        // that unparks it.
                        e.finishing = true;
                        if !stalled.contains(&slot) {
                            stalled.push(slot);
                        }
                        note_stall(&ctx, e, slot, StallCause::AdmissionReserve);
                    }
                    Wake::Ready | Wake::Dead => finish_now(slot, &mut sessions, &mut stalled, &ctx),
                }
            }
            Some(Cmd::AbortSub { slot, sub }) => {
                let e = sessions.get_mut(&slot).expect("abort-sub addresses a live session");
                e.last_touch = Instant::now();
                let mut progressed = false;
                match wake_entry(e, hook.as_ref(), &mut progressed) {
                    Wake::Ready => {
                        let Body::Live(AnySession::Shared(s)) = &mut e.body else {
                            panic!("abort-sub addresses a shared session");
                        };
                        let sink = s.abort_sub(sub);
                        let id = RuntimeId { slot, gen: e.gen };
                        ctx.send(RuntimeEvent::SubAborted { id, sub, sink });
                    }
                    Wake::Denied => {
                        // Defer: applies the moment re-admission succeeds.
                        e.aborts.push(sub);
                        if !stalled.contains(&slot) {
                            stalled.push(slot);
                        }
                        note_stall(&ctx, e, slot, StallCause::AdmissionReserve);
                    }
                    Wake::Dead => {
                        let id = RuntimeId { slot, gen: e.gen };
                        ctx.send(RuntimeEvent::SubAborted { id, sub, sink: None });
                    }
                }
                republish(e, &ctx.buffered);
            }
            Some(Cmd::Abort { slot }) => {
                let e = sessions.remove(&slot).expect("abort addresses a live session");
                stalled.retain(|&s| s != slot);
                ctx.buffered.fetch_sub(e.reported, Ordering::Relaxed);
                let gen = e.gen;
                // A parked session's spill file goes with it; buffers and
                // budget charges release on drop.
                if let Body::Parked(Parked { bytes: ParkedBytes::Disk(path), .. }) = &e.body {
                    let _ = std::fs::remove_file(path);
                }
                drop(e);
                ctx.live.fetch_sub(1, Ordering::Relaxed);
                ctx.trace(TraceEvent::SessionAbort { shard: ctx.shard });
                ctx.send(RuntimeEvent::Aborted { id: RuntimeId { slot, gen } });
            }
            Some(Cmd::Extract { slot, reply }) => {
                let mut e = sessions.remove(&slot).expect("migrate addresses a live session");
                stalled.retain(|&s| s != slot);
                ctx.buffered.fetch_sub(e.reported, Ordering::Relaxed);
                e.reported = 0;
                ctx.live.fetch_sub(1, Ordering::Relaxed);
                // A healthy resident session crosses shards as its own
                // snapshot — migration rides the exact bytes a suspend
                // writes to disk. A failed session refuses to serialize
                // and moves as a live value; an already-spilled one just
                // hands over its file path.
                let body = std::mem::replace(&mut e.body, placeholder());
                e.body = match body {
                    Body::Live(session) => match park(session, None) {
                        Ok((parked, _)) => Body::Parked(parked),
                        Err(session) => Body::Live(session),
                    },
                    other => other,
                };
                let _ = reply.send(Extracted {
                    gen: e.gen,
                    body: e.body,
                    pending: e.pending,
                    pending_bytes: e.pending_bytes,
                    finishing: e.finishing,
                    aborts: e.aborts,
                    opened: e.opened,
                    stalled_since: e.stalled_since,
                });
            }
            Some(Cmd::Adopt { slot, shard, extracted }) => {
                let Extracted {
                    gen,
                    mut body,
                    pending,
                    pending_bytes,
                    finishing,
                    aborts,
                    opened,
                    stalled_since,
                } = extracted;
                // A body serialized purely for transport resumes right
                // away (the restore half of the migration); one the
                // suspend sweep had spilled stays on disk until touched.
                let mut denied = false;
                if matches!(&body, Body::Parked(Parked { bytes: ParkedBytes::Mem(_), .. })) {
                    let Body::Parked(parked) = body else { unreachable!() };
                    body = match unpark(parked, hook.as_ref()) {
                        Unparked::Live(s) => Body::Live(s),
                        Unparked::Denied(p) => {
                            denied = true;
                            Body::Parked(p)
                        }
                        Unparked::Lost { error, sinks, shared } => {
                            Body::Lost { error, sinks, shared }
                        }
                    };
                }
                let stall = denied || !pending.is_empty() || finishing || !aborts.is_empty();
                let mut e = Entry {
                    gen,
                    body,
                    pending,
                    pending_bytes,
                    finishing,
                    aborts,
                    last_touch: Instant::now(),
                    reported: 0,
                    opened,
                    stalled_since,
                };
                republish(&mut e, &ctx.buffered);
                if let Some(m) = &ctx.metrics {
                    m.migrates.inc();
                }
                ctx.trace(TraceEvent::Migrate { shard: ctx.shard });
                ctx.send(RuntimeEvent::Migrated { id: RuntimeId { slot, gen }, shard });
                if stall {
                    if !stalled.contains(&slot) {
                        stalled.push(slot);
                    }
                    let cause =
                        if denied { StallCause::AdmissionReserve } else { StallCause::Budget };
                    note_stall(&ctx, &mut e, slot, cause);
                }
                let prev = sessions.insert(slot, e);
                debug_assert!(prev.is_none(), "slot reused before retirement");
            }
            Some(Cmd::Suspend { slot }) => {
                if let Some(policy) = ctx.suspend.clone() {
                    suspend_entry(slot, &mut sessions, &policy, &ctx);
                }
            }
            Some(Cmd::Shutdown) => {
                // Drops remaining sessions; their spill files go too.
                for e in sessions.values() {
                    if let Body::Parked(Parked { bytes: ParkedBytes::Disk(path), .. }) = &e.body {
                        let _ = std::fs::remove_file(path);
                    }
                }
                return;
            }
            // A budget-release wakeup, a spurious one after a disarm race,
            // or a sweep tick: nothing to do here — the passes below are
            // the point.
            Some(Cmd::RetryStalled) | None => {}
        }
        // Budget may have freed (here or on another worker): retry stalled
        // sessions. Cheap when nothing changed — the admission gate is one
        // atomic read per stalled session.
        unflushed |= retry_pass(&mut sessions, &mut stalled, hook.as_ref(), &ctx);
        if let Some(policy) = ctx.suspend.clone() {
            sweep(&policy, &mut last_sweep, &mut sessions, &ctx);
        }
        ctx.publish_gauges();
    }
}

/// Block for the next command; `Ok(None)` is a sweep tick (mailbox quiet
/// for one idle threshold with a suspend policy configured).
fn wait<S: Sink>(
    rx: &Receiver<Cmd<S>>,
    suspend: &Option<SuspendPolicy>,
) -> Result<Option<Cmd<S>>, ()> {
    match suspend {
        Some(policy) => match rx.recv_timeout(policy.idle_after) {
            Ok(c) => Ok(Some(c)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(()),
        },
        None => rx.recv().map(Some).map_err(|_| ()),
    }
}

/// Serialize a live session into a [`Parked`] body (spilled to `spill` if
/// given, held in memory otherwise) and release the live value — buffers
/// and budget charges go, plan and sinks stay. Hands the session back
/// untouched if it refuses to serialize (it failed earlier) or the spill
/// file cannot be written. Returns the snapshot size alongside.
#[allow(clippy::result_large_err)]
fn park<S: Sink>(
    session: AnySession<S>,
    spill: Option<PathBuf>,
) -> Result<(Parked<S>, usize), AnySession<S>> {
    let bytes = match session.snapshot() {
        Ok(b) => b,
        Err(_) => return Err(session),
    };
    let charged = flux_state::snapshot_charges(&bytes).unwrap_or(0);
    let size = bytes.len();
    let stored = match spill {
        Some(path) => {
            let writable = path.parent().is_none_or(|d| std::fs::create_dir_all(d).is_ok())
                && std::fs::write(&path, &bytes).is_ok();
            if !writable {
                return Err(session); // unwritable spill dir: stay resident
            }
            ParkedBytes::Disk(path)
        }
        None => ParkedBytes::Mem(bytes),
    };
    // Only now that the bytes are safe does the live value come apart.
    let (plan, sinks) = match session {
        AnySession::Single(s) => {
            (PlanHandle::Single(s.plan_arc()), SinkSlots::Single(s.into_sink()))
        }
        AnySession::Shared(s) => {
            (PlanHandle::Shared(s.plan_arc()), SinkSlots::Shared(s.into_sinks()))
        }
    };
    Ok((Parked { bytes: stored, plan, sinks, charged }, size))
}

enum Unparked<S: Sink> {
    Live(AnySession<S>),
    /// The budget refused the re-admission reservation; everything is
    /// intact — retry on the next release edge.
    Denied(Parked<S>),
    /// The state could not be rebuilt (unreadable spill file, corrupt
    /// bytes): the session is gone. Sinks survive when the failure came
    /// before the rebuild consumed them.
    Lost {
        error: String,
        sinks: Option<SinkSlots<S>>,
        shared: bool,
    },
}

/// Rebuild a parked body into a live session. Reserves the snapshot's
/// recorded budget charges through `try_grow` *before* rebuilding
/// anything, then restores pre-granted: the restore can never lose a race
/// for headroom, and a refusal leaves every piece intact for the retry.
fn unpark<S: Sink>(parked: Parked<S>, hook: Option<&Arc<dyn BudgetHook>>) -> Unparked<S> {
    let Parked { bytes, plan, sinks, charged } = parked;
    let shared = matches!(plan, PlanHandle::Shared(_));
    let (data, spill) = match bytes {
        ParkedBytes::Mem(b) => (b, None),
        ParkedBytes::Disk(path) => match std::fs::read(&path) {
            Ok(v) => (v, Some(path)),
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                return Unparked::Lost {
                    error: format!("spill file unreadable: {e}"),
                    sinks: Some(sinks),
                    shared,
                };
            }
        },
    };
    if charged > 0 {
        if let Some(h) = hook {
            if !h.try_grow(charged) {
                let bytes = match spill {
                    Some(path) => ParkedBytes::Disk(path),
                    None => ParkedBytes::Mem(data),
                };
                return Unparked::Denied(Parked { bytes, plan, sinks, charged });
            }
        }
    }
    let restored = match (plan, sinks) {
        (PlanHandle::Single(plan), SinkSlots::Single(sink)) => {
            Session::restore(plan, sink, hook.cloned(), &data, true)
                .map(|s| AnySession::Single(Box::new(s)))
        }
        (PlanHandle::Shared(plan), SinkSlots::Shared(sv)) => {
            SharedSession::restore(plan, sv, hook.cloned(), &data, true)
                .map(|s| AnySession::Shared(Box::new(s)))
        }
        _ => unreachable!("plan and sinks park as a matched pair"),
    };
    match restored {
        Ok(live) => {
            if let Some(path) = spill {
                let _ = std::fs::remove_file(path);
            }
            Unparked::Live(live)
        }
        Err(e) => {
            // Bytes this runtime wrote itself failing to decode is a
            // storage-level fault. Give the reservation back; pumps built
            // before a shared restore failed released their adopted
            // shares on drop, so this can over-release — the accounting
            // skew is confined to this already-corrupt path.
            if charged > 0 {
                if let Some(h) = hook {
                    h.release(charged);
                }
            }
            Unparked::Lost { error: e.to_string(), sinks: None, shared }
        }
    }
}

enum Wake {
    /// The body is (now) live.
    Ready,
    /// Parked and the budget refused re-admission; still parked.
    Denied,
    /// The body is lost; only its error remains.
    Dead,
}

/// Transparently restore a parked body. `progressed` is set when the
/// entry actually changed state.
fn wake_entry<S: Sink>(
    e: &mut Entry<S>,
    hook: Option<&Arc<dyn BudgetHook>>,
    progressed: &mut bool,
) -> Wake {
    match &e.body {
        Body::Live(_) => Wake::Ready,
        Body::Lost { .. } => Wake::Dead,
        Body::Parked(_) => {
            let Body::Parked(parked) = std::mem::replace(&mut e.body, placeholder()) else {
                unreachable!()
            };
            match unpark(parked, hook) {
                Unparked::Live(s) => {
                    e.body = Body::Live(s);
                    *progressed = true;
                    Wake::Ready
                }
                Unparked::Denied(p) => {
                    e.body = Body::Parked(p);
                    Wake::Denied
                }
                Unparked::Lost { error, sinks, shared } => {
                    e.body = Body::Lost { error, sinks, shared };
                    *progressed = true;
                    Wake::Dead
                }
            }
        }
    }
}

/// Apply deferred subscriber aborts the moment the body is live again.
fn apply_aborts<S: Sink>(e: &mut Entry<S>, slot: u32, ctx: &WorkerCtx<S>) {
    if e.aborts.is_empty() {
        return;
    }
    let id = RuntimeId { slot, gen: e.gen };
    let Body::Live(AnySession::Shared(s)) = &mut e.body else {
        e.aborts.clear();
        return;
    };
    for sub in e.aborts.drain(..) {
        let sink = s.abort_sub(sub);
        ctx.send(RuntimeEvent::SubAborted { id, sub, sink });
    }
}

/// Wake one stalled (or parked) entry and feed as many queued chunks as
/// the gate now admits. Returns (still stalled, made progress).
///
/// Resumption is announced iff a [`RuntimeEvent::Stalled`] went out for
/// this entry (`stalled_since` is set) — the old heuristic ("pending
/// queue non-empty") silently coalesced the pair away when a session
/// stalled and resumed within one poll window, and never paired the
/// stalls that carry no pending bytes (deferred finishes and
/// sub-aborts).
fn retry_entry<S: Sink>(
    e: &mut Entry<S>,
    slot: u32,
    hook: Option<&Arc<dyn BudgetHook>>,
    ctx: &WorkerCtx<S>,
) -> (bool, bool) {
    if e.parkable() {
        return (false, false); // live and idle: was not stalled
    }
    let mut progressed = false;
    match wake_entry(e, hook, &mut progressed) {
        Wake::Denied => return (true, progressed),
        Wake::Dead => {
            // The queued bytes can never execute; the cause surfaces at
            // finish.
            e.pending.clear();
            e.pending_bytes = 0;
            e.aborts.clear();
            republish(e, &ctx.buffered);
            note_resume(ctx, e, slot);
            return (false, true);
        }
        Wake::Ready => {}
    }
    apply_aborts(e, slot, ctx);
    let mut still = false;
    while !e.pending.is_empty() {
        let outcome = {
            let chunk = e.pending.front().expect("checked non-empty");
            let Body::Live(session) = &mut e.body else { unreachable!("woken above") };
            session.feed_outcome(chunk)
        };
        match outcome {
            Ok(FeedOutcome::Accepted) => {
                let chunk = e.pending.pop_front().expect("checked non-empty");
                e.pending_bytes -= chunk.len();
                progressed = true;
            }
            Ok(FeedOutcome::Backpressure) => {
                still = true;
                break;
            }
            // Failed: drop the queue, the cause surfaces at finish.
            Err(_) => {
                e.pending.clear();
                e.pending_bytes = 0;
                break;
            }
        }
    }
    republish(e, &ctx.buffered);
    if !still {
        note_resume(ctx, e, slot);
    }
    (still, progressed)
}

/// One pass over the stalled list: genuine retries (real `try_grow`
/// attempts) plus completion of finishes deferred behind a denied
/// re-admission. Returns whether anything progressed.
fn retry_pass<S: Sink>(
    sessions: &mut HashMap<u32, Entry<S>>,
    stalled: &mut Vec<u32>,
    hook: Option<&Arc<dyn BudgetHook>>,
    ctx: &WorkerCtx<S>,
) -> bool {
    let mut progressed = false;
    let mut to_finish = Vec::new();
    stalled.retain(|&slot| {
        let e = sessions.get_mut(&slot).expect("stalled list tracks live sessions");
        let (still, prog) = retry_entry(e, slot, hook, ctx);
        progressed |= prog;
        if !still && e.finishing {
            to_finish.push(slot);
        }
        still
    });
    for slot in to_finish {
        finish_now(slot, sessions, stalled, ctx);
        progressed = true;
    }
    progressed
}

/// Complete a finish for an entry whose body is woken (or lost): drain
/// the committed pending bytes past the admission gate, finish the run,
/// and emit the completion event.
///
/// Metric/trace ordering matters here: the run is recorded into the
/// shard's registry *before* the completion event is sent, so a scrape
/// taken after a client observes DONE always includes that run.
fn finish_now<S: Sink>(
    slot: u32,
    sessions: &mut HashMap<u32, Entry<S>>,
    stalled: &mut Vec<u32>,
    ctx: &WorkerCtx<S>,
) {
    let mut e = sessions.remove(&slot).expect("finish addresses a live session");
    stalled.retain(|&s| s != slot);
    ctx.buffered.fetch_sub(e.reported, Ordering::Relaxed);
    ctx.live.fetch_sub(1, Ordering::Relaxed);
    // A stall resolved by end-of-input still announces the resumption —
    // strictly before the completion event, so consumers always observe
    // Stalled → Resumed → Finished in order.
    note_resume(ctx, &mut e, slot);
    let id = RuntimeId { slot, gen: e.gen };
    let opened = e.opened;
    match e.body {
        Body::Live(mut session) => {
            // Deferred subscriber aborts go first — their sinks return
            // via SubAborted, not the finish.
            if !e.aborts.is_empty() {
                if let AnySession::Shared(s) = &mut session {
                    for sub in e.aborts.drain(..) {
                        let sink = s.abort_sub(sub);
                        ctx.send(RuntimeEvent::SubAborted { id, sub, sink });
                    }
                }
            }
            // End of input: the remaining bytes are committed, so they
            // bypass the admission gate (budget still strictly enforced)
            // and the run completes or fails on its merits.
            for chunk in e.pending {
                if session.feed(&chunk).is_err() {
                    break; // already failed; finish reports the cause
                }
            }
            match session {
                AnySession::Single(s) => {
                    let (result, sink) = s.finish_parts();
                    if let Some(m) = &ctx.metrics {
                        m.note_run(opened, &result);
                    }
                    ctx.trace(TraceEvent::SessionFinish { shard: ctx.shard, ok: result.is_ok() });
                    ctx.send(RuntimeEvent::Finished { id, result, sink });
                }
                AnySession::Shared(s) => {
                    let plan = s.plan_arc();
                    let results = s.finish_parts();
                    if let Some(m) = &ctx.metrics {
                        for (result, _) in &results {
                            m.note_run(opened, result);
                        }
                        m.note_fanout(&plan);
                    }
                    let ok = results.iter().all(|(r, _)| r.is_ok());
                    ctx.trace(TraceEvent::SessionFinish { shard: ctx.shard, ok });
                    ctx.send(RuntimeEvent::FinishedShared { id, results });
                }
            }
        }
        Body::Lost { error, sinks, shared } => {
            let mk = |msg: &str| FluxError::Snapshot(flux_state::StateError::Io(msg.to_string()));
            if shared {
                let results: Vec<_> = match sinks {
                    Some(SinkSlots::Shared(v)) => {
                        v.into_iter().map(|s| (Err(mk(&error)), s)).collect()
                    }
                    _ => Vec::new(),
                };
                if let Some(m) = &ctx.metrics {
                    for (result, _) in &results {
                        m.note_run(opened, result);
                    }
                }
                ctx.trace(TraceEvent::SessionFinish { shard: ctx.shard, ok: false });
                ctx.send(RuntimeEvent::FinishedShared { id, results });
            } else {
                let sink = match sinks {
                    Some(SinkSlots::Single(s)) => Some(s),
                    _ => None,
                };
                let result = Err(mk(&error));
                if let Some(m) = &ctx.metrics {
                    m.note_run(opened, &result);
                }
                ctx.trace(TraceEvent::SessionFinish { shard: ctx.shard, ok: false });
                ctx.send(RuntimeEvent::Finished { id, result, sink });
            }
        }
        Body::Parked(_) => unreachable!("finish completes only on woken entries"),
    }
}

/// Spill one quiescent entry to disk: serialize, write the file, then
/// release the live value. Best-effort — a failed, stalled or
/// already-parked entry stays as it is.
fn suspend_entry<S: Sink>(
    slot: u32,
    sessions: &mut HashMap<u32, Entry<S>>,
    policy: &SuspendPolicy,
    ctx: &WorkerCtx<S>,
) {
    let Some(e) = sessions.get_mut(&slot) else { return };
    if !e.parkable() {
        return;
    }
    let Body::Live(session) = std::mem::replace(&mut e.body, placeholder()) else {
        unreachable!("parkable() checked Live")
    };
    let path = policy.dir.join(format!("flux-session-{slot}-{}.state", e.gen));
    match park(session, Some(path)) {
        Ok((parked, size)) => {
            e.body = Body::Parked(parked);
            republish(e, &ctx.buffered);
            if let Some(m) = &ctx.metrics {
                m.suspends.inc();
            }
            ctx.trace(TraceEvent::Suspend { shard: ctx.shard, bytes: size as u64 });
            let id = RuntimeId { slot, gen: e.gen };
            ctx.send(RuntimeEvent::Suspended { id, bytes: size });
        }
        Err(session) => e.body = Body::Live(session),
    }
}

/// Throttled idle sweep: at most once per quarter idle-threshold, spill
/// every quiescent entry idle past the policy's threshold.
fn sweep<S: Sink>(
    policy: &SuspendPolicy,
    last_sweep: &mut Instant,
    sessions: &mut HashMap<u32, Entry<S>>,
    ctx: &WorkerCtx<S>,
) {
    let now = Instant::now();
    if now.duration_since(*last_sweep) < policy.idle_after / 4 {
        return;
    }
    *last_sweep = now;
    let idle: Vec<u32> = sessions
        .iter()
        .filter(|(_, e)| e.parkable() && now.duration_since(e.last_touch) >= policy.idle_after)
        .map(|(&slot, _)| slot)
        .collect();
    for slot in idle {
        suspend_entry(slot, sessions, policy, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use flux_xml::StringSink;

    const DTD: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
    const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
        <result> {$b/title} {$b/author} </result> }</results>";

    fn doc(i: usize) -> String {
        format!(
            "<bib><book><title>T{i}</title><author>A{i}</author>\
             <publisher>P</publisher><price>{}</price></book></bib>",
            i % 89
        )
    }

    #[test]
    fn sessions_complete_across_shards_with_identical_results() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        const N: usize = 64;
        let docs: Vec<String> = (0..N).map(doc).collect();
        let refs: Vec<String> = docs.iter().map(|d| q.run_str(d).unwrap().output).collect();

        let mut rt = RuntimeBuilder::new(3).build();
        let ids: Vec<RuntimeId> = (0..N).map(|_| rt.open(&q, StringSink::new())).collect();
        // Chunked, interleaved feeding across all sessions.
        for step in 0..8 {
            for (i, &id) in ids.iter().enumerate() {
                let bytes = docs[i].as_bytes();
                let lo = bytes.len() * step / 8;
                let hi = bytes.len() * (step + 1) / 8;
                rt.feed(id, &bytes[lo..hi]);
            }
        }
        for &id in &ids {
            rt.finish(id);
        }
        let mut seen = [false; N];
        let by_id: HashMap<RuntimeId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for _ in 0..N {
            match rt.wait_event().expect("workers alive") {
                RuntimeEvent::Finished { id, result, sink } => {
                    let i = by_id[&id];
                    result.unwrap();
                    assert_eq!(sink.unwrap().as_str(), refs[i], "session {i}");
                    seen[i] = true;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rt.live_sessions(), 0);
        assert!(rt.drain().is_empty());
    }

    #[test]
    fn placement_is_least_loaded() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut rt = RuntimeBuilder::new(4).build();
        let _ids: Vec<RuntimeId> = (0..12).map(|_| rt.open(&q, StringSink::new())).collect();
        let counts = rt.session_counts();
        assert_eq!(counts.iter().sum::<usize>(), 12);
        assert!(counts.iter().all(|&c| c == 3), "balanced placement: {counts:?}");
        let _ = rt.drain();
    }

    #[test]
    fn slots_are_reused_and_stale_ids_panic() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut rt = RuntimeBuilder::new(2).build();
        let a = rt.open(&q, StringSink::new());
        rt.feed(a, doc(0).as_bytes());
        rt.finish(a);
        // Wait for the completion so the slot retires.
        match rt.wait_event().unwrap() {
            RuntimeEvent::Finished { id, result, .. } => {
                assert_eq!(id, a);
                result.unwrap();
            }
            other => panic!("unexpected {other:?}"),
        }
        let b = rt.open(&q, StringSink::new());
        assert_ne!(a, b, "generation bumped on reuse");
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.feed(a, b"x");
        }));
        assert!(stale.is_err(), "stale id must panic");
        rt.abort(b);
        let evs = rt.drain();
        assert!(matches!(evs[..], [RuntimeEvent::Aborted { id }] if id == b), "{evs:?}");
    }

    #[test]
    fn failed_sessions_report_their_cause_at_finish() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut rt = RuntimeBuilder::new(2).build();
        let bad = rt.open(&q, StringSink::new());
        rt.feed(bad, b"<bib><zzz/>"); // schema violation, fails inline
        rt.feed(bad, b"<book>"); // feed-after-error: absorbed, not fatal
        rt.finish(bad);
        match rt.wait_event().unwrap() {
            RuntimeEvent::Finished { id, result, sink } => {
                assert_eq!(id, bad);
                let err = result.unwrap_err();
                assert!(err.to_string().contains("zzz"), "{err}");
                assert!(sink.is_some(), "sink recovered on failure");
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = rt.drain();
    }

    #[test]
    fn shared_sessions_fan_out_across_the_runtime() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut reg = crate::QueryRegistry::new();
        reg.register("a", q.clone());
        reg.register("b", q.clone());
        reg.register("c", q.clone());
        let set = crate::SubscriptionSet::compile(&reg).unwrap();
        let d = doc(7);
        let reference = q.run_str(&d).unwrap();

        let mut rt = RuntimeBuilder::new(2).build();
        let id = rt.open_shared(&set, (0..3).map(|_| StringSink::new()).collect());
        // A plain session rides alongside on the same runtime.
        let single = rt.open(&q, StringSink::new());
        for chunk in d.as_bytes().chunks(11) {
            rt.feed(id, chunk);
            rt.feed(single, chunk);
        }
        // Detach one subscriber mid-stream; its sink comes back early.
        rt.abort_shared_sub(id, 1);
        rt.finish(id);
        rt.finish(single);
        let (mut saw_shared, mut saw_sub, mut saw_single) = (false, false, false);
        while !(saw_shared && saw_sub && saw_single) {
            match rt.wait_event().expect("workers alive") {
                RuntimeEvent::SubAborted { id: sid, sub, sink } => {
                    assert_eq!(sid, id);
                    assert_eq!(sub, 1);
                    assert!(sink.is_some());
                    saw_sub = true;
                }
                RuntimeEvent::FinishedShared { id: sid, results } => {
                    assert_eq!(sid, id);
                    assert_eq!(results.len(), 3);
                    for (i, (res, sink)) in results.into_iter().enumerate() {
                        if i == 1 {
                            assert!(res.is_err() && sink.is_none(), "aborted subscriber");
                        } else {
                            res.unwrap();
                            assert_eq!(sink.unwrap().as_str(), reference.output);
                        }
                    }
                    saw_shared = true;
                }
                RuntimeEvent::Finished { id: sid, result, sink } => {
                    assert_eq!(sid, single);
                    result.unwrap();
                    assert_eq!(sink.unwrap().as_str(), reference.output);
                    saw_single = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(rt.live_sessions(), 0);
        assert!(rt.drain().is_empty());
    }

    #[test]
    fn migrate_moves_sessions_mid_stream_with_identical_output() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut reg = crate::QueryRegistry::new();
        reg.register("a", q.clone());
        reg.register("b", q.clone());
        let set = crate::SubscriptionSet::compile(&reg).unwrap();
        let d = doc(11);
        let reference = q.run_str(&d).unwrap().output;
        let bytes = d.as_bytes();

        let mut rt = RuntimeBuilder::new(2).build();
        let single = rt.open(&q, StringSink::new());
        let shared = rt.open_shared(&set, (0..2).map(|_| StringSink::new()).collect());
        rt.feed(single, &bytes[..bytes.len() / 2]);
        rt.feed(shared, &bytes[..bytes.len() / 2]);
        // Move both to the other shard mid-stream; the ids survive.
        let (sf, shf) = (rt.shard_of(single), rt.shard_of(shared));
        rt.migrate(single, 1 - sf);
        rt.migrate(shared, 1 - shf);
        assert_eq!(rt.shard_of(single), 1 - sf);
        assert_eq!(rt.shard_of(shared), 1 - shf);
        rt.feed(single, &bytes[bytes.len() / 2..]);
        rt.feed(shared, &bytes[bytes.len() / 2..]);
        rt.finish(single);
        rt.finish(shared);
        let (mut migrations, mut done) = (0, 0);
        while done < 2 {
            match rt.wait_event().expect("workers alive") {
                RuntimeEvent::Migrated { id, shard } => {
                    migrations += 1;
                    let expected = if id == single { 1 - sf } else { 1 - shf };
                    assert_eq!(shard, expected);
                }
                RuntimeEvent::Finished { id, result, sink } => {
                    assert_eq!(id, single);
                    result.unwrap();
                    assert_eq!(sink.unwrap().as_str(), reference);
                    done += 1;
                }
                RuntimeEvent::FinishedShared { id, results } => {
                    assert_eq!(id, shared);
                    assert_eq!(results.len(), 2);
                    for (res, sink) in results {
                        res.unwrap();
                        assert_eq!(sink.unwrap().as_str(), reference);
                    }
                    done += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(migrations, 2);
        assert_eq!(rt.live_sessions(), 0);
        assert!(rt.drain().is_empty());
    }

    #[test]
    fn suspend_policy_spills_idle_sessions_and_restores_on_feed() {
        let dir = std::env::temp_dir().join(format!("flux-rt-suspend-{}-auto", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let d = doc(23);
        let reference = q.run_str(&d).unwrap().output;
        let bytes = d.as_bytes();

        let mut rt = RuntimeBuilder::new(1)
            .suspend(SuspendPolicy { idle_after: Duration::from_millis(20), dir: dir.clone() })
            .build();
        let id = rt.open(&q, StringSink::new());
        rt.feed(id, &bytes[..bytes.len() / 2]);
        match rt.wait_event().expect("workers alive") {
            RuntimeEvent::Suspended { id: sid, bytes: size } => {
                assert_eq!(sid, id);
                assert!(size > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one spill file while parked");
        // The next feed restores transparently; the spill file goes away.
        rt.feed(id, &bytes[bytes.len() / 2..]);
        rt.finish(id);
        match rt.wait_event().expect("workers alive") {
            RuntimeEvent::Finished { id: fid, result, sink } => {
                assert_eq!(fid, id);
                result.unwrap();
                assert_eq!(sink.unwrap().as_str(), reference);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "spill removed on resume");
        let _ = rt.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_suspend_survives_migration_and_restores_on_the_new_shard() {
        let dir =
            std::env::temp_dir().join(format!("flux-rt-suspend-{}-explicit", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let d = doc(42);
        let reference = q.run_str(&d).unwrap().output;
        let bytes = d.as_bytes();

        let mut rt = RuntimeBuilder::new(2)
            .suspend(SuspendPolicy { idle_after: Duration::from_secs(3600), dir: dir.clone() })
            .build();
        let id = rt.open(&q, StringSink::new());
        rt.feed(id, &bytes[..bytes.len() / 2]);
        rt.suspend(id);
        match rt.wait_event().expect("workers alive") {
            RuntimeEvent::Suspended { id: sid, .. } => assert_eq!(sid, id),
            other => panic!("unexpected {other:?}"),
        }
        // A spilled session migrates as its file and stays parked on the
        // new shard until the next feed touches it.
        let from = rt.shard_of(id);
        rt.migrate(id, 1 - from);
        rt.feed(id, &bytes[bytes.len() / 2..]);
        rt.finish(id);
        let (mut migrated, mut finished) = (false, false);
        while !(migrated && finished) {
            match rt.wait_event().expect("workers alive") {
                RuntimeEvent::Migrated { id: mid, shard } => {
                    assert_eq!((mid, shard), (id, 1 - from));
                    migrated = true;
                }
                RuntimeEvent::Finished { id: fid, result, sink } => {
                    assert_eq!(fid, id);
                    result.unwrap();
                    assert_eq!(sink.unwrap().as_str(), reference);
                    finished = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "spill removed on resume");
        let _ = rt.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn placement_accounts_for_buffered_bytes_not_just_session_count() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        // Swapped output order: the title must buffer until the author
        // arrives (the paper's out-of-order case), so an unfinished book
        // pins its title bytes in session buffers.
        let q = engine
            .prepare(
                "<results>{ for $b in $ROOT/bib/book return \
                 <result> {$b/author} {$b/title} </result> }</results>",
            )
            .unwrap();
        let mut rt = RuntimeBuilder::new(2).build();
        let heavy = rt.open(&q, StringSink::new());
        let big = format!("<bib><book><title>{}</title>", "x".repeat(200 << 10));
        rt.feed(heavy, big.as_bytes());
        // Wait for the worker to publish the buffered footprint.
        let start = Instant::now();
        while rt.buffered_counts().iter().sum::<usize>() < (100 << 10) {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "buffered bytes never published: {:?}",
                rt.buffered_counts()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let loaded = rt.shard_of(heavy);
        // 200 KiB of buffers outweighs 8 idle sessions at the 4 KiB floor:
        // every new session lands on the other worker.
        let idle: Vec<RuntimeId> = (0..8).map(|_| rt.open(&q, StringSink::new())).collect();
        let counts = rt.session_counts();
        assert_eq!(counts[1 - loaded], 8, "idle sessions avoid the loaded shard: {counts:?}");
        rt.abort(heavy);
        for id in idle {
            rt.abort(id);
        }
        let evs = rt.drain();
        assert_eq!(evs.len(), 9);
    }

    /// A sink the test can read while the session runs.
    #[derive(Debug)]
    struct Tee(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Sink for Tee {
        fn write_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(())
        }
        fn flush_sink(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn notifier_announces_events_and_idle_flushes_and_stays_quiet_when_idle() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let d = doc(5);
        let reference = q.run_str(&d).unwrap().output;
        // Everything up to the first book's end tag: enough input to
        // determine a prefix of the output, with the run still open.
        let cut = d.find("</book>").unwrap();
        let early = reference.find("</result>").unwrap();

        let (wake_tx, wake_rx) = channel();
        let waker = EdgeWaker::new(move || {
            let _ = wake_tx.send(());
        });
        let mut rt: Runtime<Tee> = RuntimeBuilder::new(1).notifier(Arc::clone(&waker)).build();
        let out = Arc::new(std::sync::Mutex::new(Vec::new()));
        // The owner's half of the protocol: arm, drain, and only then
        // sleep. A lost wakeup shows as the timeout, not as a hang.
        let owner_loop =
            |rt: &mut Runtime<Tee>, done: &mut dyn FnMut(&mut Runtime<Tee>) -> bool| loop {
                waker.arm();
                if done(rt) {
                    return;
                }
                wake_rx.recv_timeout(Duration::from_secs(30)).expect("lost wakeup");
            };

        // Idle runtime, armed waker: silence.
        waker.arm();
        assert!(wake_rx.recv_timeout(Duration::from_millis(50)).is_err(), "fired while idle");

        // Output with no event behind it is announced by the idle flush.
        let id = rt.open(&q, Tee(Arc::clone(&out)));
        rt.feed(id, &d.as_bytes()[..cut]);
        let mut events = 0;
        owner_loop(&mut rt, &mut |rt| {
            events += rt.poll_events().len();
            out.lock().unwrap().len() >= early
        });
        assert_eq!(events, 0, "no event announced that output");

        // A completion event is announced, and is on the channel by the
        // time the notification lands.
        rt.feed(id, &d.as_bytes()[cut..]);
        rt.finish(id);
        let mut finished = false;
        owner_loop(&mut rt, &mut |rt| {
            for ev in rt.poll_events() {
                match ev {
                    RuntimeEvent::Finished { result, .. } => {
                        result.unwrap();
                        finished = true;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            finished
        });
        assert_eq!(out.lock().unwrap().as_slice(), reference.as_bytes());

        // Quiescent again: let the worker's last idle flush (if it is still
        // due) land, then an armed waker stays silent.
        while wake_rx.recv_timeout(Duration::from_millis(50)).is_ok() {
            waker.arm();
        }
        assert!(waker.is_armed());
        assert!(wake_rx.recv_timeout(Duration::from_millis(50)).is_err(), "fired while idle");
        assert!(rt.drain().is_empty());
    }

    #[test]
    fn poll_events_on_an_empty_channel_allocates_nothing() {
        let mut rt: Runtime<StringSink> = RuntimeBuilder::new(1).build();
        assert_eq!(rt.poll_events().capacity(), 0);
        assert_eq!(rt.poll_events_stamped().capacity(), 0);
        let _ = rt.drain();
    }

    #[test]
    fn drain_aborts_still_open_sessions_cleanly() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut rt = RuntimeBuilder::new(2).build();
        let a = rt.open(&q, StringSink::new());
        rt.feed(a, b"<bib><book><title>mid-stream");
        // Never finished: drain drops it without an event, budget-clean.
        let evs = rt.drain();
        assert!(evs.is_empty(), "{evs:?}");
    }
}
