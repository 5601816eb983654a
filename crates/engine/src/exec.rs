//! The streaming event loop (paper, Section 5) as a resumable, sans-IO
//! state machine.
//!
//! Children of the current scope are processed at node granularity. For each
//! child the engine (a) lets the active recorders and condition flags
//! observe its events, then (b) fires the step's handlers in ζ order:
//!
//! * when exactly one `on` handler fires, it is first in ζ among the firing
//!   handlers, nothing records the child, and its body is streamable, the
//!   child's events flow straight from the parser to the sub-scope or the
//!   output — the zero-buffer path;
//! * otherwise the child is consumed first (captured to a pooled event
//!   arena only if some `on` handler needs to replay it), and the handlers
//!   then fire in ζ order — `on-first` expressions over the now-complete
//!   buffers, `on` handlers over the replayed events. Data replayed from a
//!   buffer is indistinguishable from stream input (Section 5).
//!
//! Punctuation is exactly Appendix B: one validating DFA transition per
//! child plus one `PastTable` lookup per `on-first` handler.
//!
//! # Control flow: an explicit scope stack, not recursion
//!
//! The paper's engine is a *pull* loop that recurses over scopes and blocks
//! on the parser. Here the recursion is an explicit stack of `Frame`s and
//! control is inverted: the `Machine` consumes one resolved event at a
//! time and *returns* when it needs more input, so a caller can run many
//! executions concurrently on one thread ([`Pump`] is the public face; the
//! facade's `Session` couples one to an incremental reader). Only the live
//! stream suspends — replays of captured children are driven to completion
//! within the event that finishes the capture, from an internal source
//! stack (`replays`), exactly mirroring the recursive engine's nested
//! loops. One code path serves both the one-shot [`CompiledQuery::run`]
//! (which feeds the machine from a blocking reader) and push-based
//! sessions, so chunked execution is byte- and statistic-identical to the
//! one-shot run by construction.

use std::io::BufRead;
use std::sync::Arc;

use flux_core::DOC_ELEM;
use flux_dtd::Glushkov;
use flux_query::eval::{eval_cond_with, eval_expr_indexed, wrap_document, AtomResolver, Env};
use flux_query::{Atom, Cond, Expr, JoinMemo, ROOT_VAR};
use flux_xml::{Event, EventBuf, NameId, Node, Reader, ResolvedEvent, Sink, Writer};

use crate::budget::{Budget, BudgetHook};
use crate::buffer::Recorder;
use crate::compile::{
    atom_is_join, atom_root_var, CBody, CHandler, CompiledQuery, EngineError, ScopeSpec,
    SimpleItem, Top,
};
use crate::flags::FlagMatcher;
use crate::stats::RunStats;

/// Result of a streaming run that collected its output in memory.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The serialized query result.
    pub output: String,
    /// Run statistics (peak buffer memory, event counts, …).
    pub stats: RunStats,
}

impl CompiledQuery {
    /// Run the compiled plan over an input stream.
    pub fn run<R: BufRead, S: Sink>(&self, input: R, out: S) -> Result<RunStats, EngineError> {
        self.run_sink(input, out).0
    }

    /// Run the compiled plan, handing the sink back afterwards — on success
    /// *and* on failure (a session must recover its capture buffer either
    /// way). On success the sink is flushed (a flush failure is the run's
    /// error); on failure it is returned unflushed so the original failure
    /// is never masked by a flush error.
    pub fn run_sink<R: BufRead, S: Sink>(
        &self,
        input: R,
        out: S,
    ) -> (Result<RunStats, EngineError>, S) {
        // The reader resolves each tag name once against the plan's symbol
        // table; everything downstream dispatches on NameIds.
        let mut reader = Reader::with_symbols(input, self.opts.reader, Arc::clone(&self.symbols));
        let mut st = Machine::new(Writer::new(out), self.opts.max_buffer_bytes, None);
        let res = (|| {
            while let Some(ev) = reader.next_resolved()? {
                st.feed_event(self, ev)?;
            }
            st.finish(self)
        })()
        .map(|mut stats| {
            stats.scan = reader.scan_telemetry();
            stats
        });
        let mut sink = st.into_sink();
        if res.is_ok() {
            if let Err(e) = sink.flush_sink() {
                return (Err(io_err(e)), sink);
            }
        }
        (res, sink)
    }

    /// Start a resumable, sans-IO execution of this plan: feed it resolved
    /// events as they become available. See [`Pump`].
    pub fn pump<S: Sink>(self: &Arc<Self>, sink: S) -> Pump<S> {
        Pump::new(Arc::clone(self), sink)
    }
}

/// What a [`Pump`] needs from the event stream right now — the seam that
/// lets a shared multi-subscriber driver ([`crate::fanout::FanoutDriver`])
/// stop feeding a pump that is provably indifferent to the next events.
///
/// The claim behind [`StreamInterest::SkipSubtree`] is exact, not
/// heuristic: while the machine is skipping an unhandled subtree *and* has
/// no active observers, feeding it an event inside that subtree does
/// nothing but bump the event counter and the skip depth — no output, no
/// buffering, no budget traffic, no validation. A driver may therefore
/// withhold those events entirely and later reconcile the counter with
/// [`Pump::fast_forward_skip`] before delivering the end tag that closes
/// the skipped subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamInterest {
    /// Every event matters (or withholding is not provably safe): keep
    /// feeding.
    All,
    /// The machine is inside a skipped subtree, currently `depth` levels
    /// deep, with no observers. It next changes state at the end tag that
    /// closes the element `depth` levels up; everything before that tag
    /// may be withheld.
    SkipSubtree {
        /// Current skip depth (≥ 1).
        depth: u32,
    },
}

/// A resumable, push-based execution of a [`CompiledQuery`].
///
/// The pump is the engine's sans-IO core: it owns no input source and never
/// blocks. Feed it [`ResolvedEvent`]s (typically from an incremental
/// [`flux_xml::Reader`]) with [`Pump::feed_event`]; each call runs the
/// schedule — handler dispatch, punctuation, buffering, output — inline on
/// the calling thread and returns when the event is fully processed. Call
/// [`Pump::finish`] at end of input to run the final validation and collect
/// the [`RunStats`] and the sink.
///
/// Output, statistics and errors are identical to a one-shot
/// [`CompiledQuery::run`] over the same event sequence: the one-shot path
/// is itself implemented by feeding this machine.
///
/// After an error the pump is poisoned: further calls return an error
/// without touching the stream state. Dropping a pump mid-stream is cheap
/// and clean — there is no thread or channel behind it.
pub struct Pump<S: Sink> {
    plan: Arc<CompiledQuery>,
    st: Machine<S>,
}

impl<S: Sink> Pump<S> {
    /// A pump over a shared plan, writing to `sink`.
    pub fn new(plan: Arc<CompiledQuery>, sink: S) -> Pump<S> {
        let st = Machine::new(Writer::new(sink), plan.opts.max_buffer_bytes, None);
        Pump { plan, st }
    }

    /// A pump whose retained-byte deltas are additionally charged to a
    /// shared [`BudgetHook`] — the seam an admission controller plugs into
    /// (see [`crate::budget`]). Charges the hook denies fail the run with
    /// [`EngineError::BudgetDenied`]; everything charged is released by the
    /// time the pump is finished, aborted or dropped.
    pub fn with_budget(plan: Arc<CompiledQuery>, sink: S, hook: Arc<dyn BudgetHook>) -> Pump<S> {
        let st = Machine::new(Writer::new(sink), plan.opts.max_buffer_bytes, Some(hook));
        Pump { plan, st }
    }

    /// Process the next input event. All output the schedule allows is
    /// written to the sink before this returns.
    #[inline]
    pub fn feed_event(&mut self, ev: ResolvedEvent<'_>) -> Result<(), EngineError> {
        let Pump { plan, st } = self;
        st.feed_event(plan, ev)
    }

    /// Signal end of input: final punctuation, validation of the document
    /// scope, and the flush of the sink. Returns the outcome together with
    /// the sink (handed back on success *and* on failure).
    pub fn finish(mut self) -> (Result<RunStats, EngineError>, S) {
        let res = {
            let Pump { plan, st } = &mut self;
            st.finish(plan)
        };
        let mut sink = self.st.into_sink();
        if res.is_ok() {
            if let Err(e) = sink.flush_sink() {
                return (Err(io_err(e)), sink);
            }
        }
        (res, sink)
    }

    /// Abandon the run and recover the sink as-is — *without* the
    /// end-of-input epilogue [`Pump::finish`] would write. This is the
    /// right teardown when the input already failed upstream (e.g. a parse
    /// error): the sink holds exactly the output a one-shot run produced
    /// before the same failure, nothing more.
    pub fn abort(self) -> S {
        self.st.into_sink()
    }

    /// Bytes currently held in runtime buffers and captures — the same
    /// quantity bounded by
    /// [`EngineOptions::max_buffer_bytes`](crate::EngineOptions). Lets a
    /// multiplexer account memory across many live pumps.
    pub fn buffered_bytes(&self) -> usize {
        self.st.cur_bytes
    }

    /// Bytes this pump currently has charged to its shared [`BudgetHook`]
    /// (0 without one). Unlike [`Pump::buffered_bytes`] this includes the
    /// `Top::Simple` materialization, so it is the admission-gate measure:
    /// a run with outstanding charges must keep draining — its progress is
    /// what releases them back to the pool.
    pub fn budget_charged(&self) -> usize {
        self.st.budget.charged()
    }

    /// Statistics accumulated so far (final values come from
    /// [`Pump::finish`]).
    pub fn stats_so_far(&self) -> RunStats {
        self.st.stats
    }

    /// Does this pump need the next events? See [`StreamInterest`].
    ///
    /// Reports [`StreamInterest::SkipSubtree`] exactly when the machine is
    /// in the bare-counter skip state with no observers installed: no
    /// recorder or condition flag can see the withheld events (observers
    /// are pushed only on scope entry, which cannot happen inside a skipped
    /// subtree), no capture is in flight (the top frame is a scope frame),
    /// and the skip path touches nothing but the event counter.
    pub fn stream_interest(&self) -> StreamInterest {
        if !self.st.failed && self.st.skip > 0 && self.st.observers.is_empty() {
            StreamInterest::SkipSubtree { depth: self.st.skip }
        } else {
            StreamInterest::All
        }
    }

    /// Reconcile this pump after a driver withheld `skipped_events` events
    /// under a [`StreamInterest::SkipSubtree`] contract.
    ///
    /// The withheld events are everything strictly inside the skipped
    /// subtree after the pump was parked, *excluding* the end tag that
    /// closes the subtree — feed that tag normally right after this call
    /// (it pops the skip state and fires the enclosing scope's pending
    /// handlers exactly as an unwithheld run would). Since the subtree is
    /// balanced, the logical skip depth just before that end tag is 1
    /// regardless of the depth at park time, and the only state the
    /// withheld events would have changed is the event counter.
    pub fn fast_forward_skip(&mut self, skipped_events: u64) {
        self.fast_forward_skip_to(1, skipped_events);
    }

    /// [`Pump::fast_forward_skip`] for a driver that withheld
    /// `skipped_events` but stopped *inside* the skipped subtree (e.g. a
    /// tape batch ended mid-subtree): the skip is still `remaining_depth`
    /// levels deep, so subsequent events resume from that depth instead of
    /// right before the closing tag.
    pub fn fast_forward_skip_to(&mut self, remaining_depth: u32, skipped_events: u64) {
        debug_assert!(
            !self.st.failed && self.st.skip > 0 && self.st.observers.is_empty(),
            "fast_forward_skip outside a SkipSubtree parking contract"
        );
        debug_assert!(remaining_depth >= 1, "a completed skip ends at its closing tag");
        self.st.skip = remaining_depth;
        self.st.stats.events += skipped_events;
    }

    /// The compiled plan this pump executes.
    pub fn plan(&self) -> &Arc<CompiledQuery> {
        &self.plan
    }

    /// The sink this pump writes to.
    pub fn sink(&self) -> &S {
        self.st.writer.get_ref()
    }

    /// The sink, mutably (see [`Writer::get_mut`]).
    pub fn sink_mut(&mut self) -> &mut S {
        self.st.writer.get_mut()
    }

    /// Serialize the pump's complete resumable state (the `flux_state` PUMP
    /// section payload). Only *quiescent* pumps snapshot — the state between
    /// two `feed_event` calls, which is the only state a session layer can
    /// observe: replays drained, no handler mid-fire (both are invariants at
    /// every `feed_event` return, so a refusal here indicates a caller
    /// snapshotting from inside a handler). A failed pump also refuses —
    /// restore must not resurrect a poisoned run.
    pub fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        self.st.state_save(enc)
    }

    /// Rebuild a pump saved by [`Pump::state_save`] against the same plan
    /// (plan identity is validated by fingerprint at the session layer),
    /// writing further output to a fresh `sink`. The saved budget charges
    /// are re-granted through `hook` — pass the restoring runtime's hook, or
    /// `None` to restore without admission control. A hook that refuses the
    /// re-grant fails the restore with
    /// [`flux_state::StateError::BudgetDenied`] and charges nothing, so the
    /// caller can retry when headroom returns.
    pub fn state_load(
        plan: Arc<CompiledQuery>,
        sink: S,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<Pump<S>, flux_state::StateError> {
        let st = Machine::state_load(&plan, sink, hook, dec, false)?;
        Ok(Pump { plan, st })
    }

    /// [`Pump::state_load`] for a caller that has already reserved the
    /// pump's recorded charges through `hook` (e.g. by `try_grow`ing the
    /// snapshot's BUDGET-section total before tearing the old pump down).
    /// The rebuilt budget adopts the reservation instead of growing again,
    /// so the restore cannot fail with `BudgetDenied` and the aggregate
    /// accounting never dips or double-counts across the handoff.
    pub fn state_load_pregranted(
        plan: Arc<CompiledQuery>,
        sink: S,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<Pump<S>, flux_state::StateError> {
        let st = Machine::state_load(&plan, sink, hook, dec, true)?;
        Ok(Pump { plan, st })
    }
}

pub(crate) fn io_err(e: std::io::Error) -> EngineError {
    EngineError::Eval(flux_query::eval::EvalError::Io(e.to_string()))
}

fn save_simple_rest(enc: &mut flux_state::Enc, r: &SimpleRest) {
    enc.put_usize(r.sidx);
    enc.put_usize(r.hidx);
    enc.put_usize(r.item);
}

fn load_simple_rest(
    plan: &CompiledQuery,
    dec: &mut flux_state::Dec<'_>,
) -> Result<SimpleRest, flux_state::StateError> {
    let sidx = dec.get_usize()?;
    let hidx = dec.get_usize()?;
    let item = dec.get_usize()?;
    if plan.scopes.get(sidx).and_then(|s| s.handlers.get(hidx)).is_none() {
        return Err(flux_state::StateError::Corrupt("handler continuation out of range"));
    }
    Ok(SimpleRest { sidx, hidx, item })
}

/// The error a poisoned machine reports if used again after a failure.
fn poisoned() -> EngineError {
    EngineError::Eval(flux_query::eval::EvalError::Io(
        "pump already failed or finished; start a new one".into(),
    ))
}

/// Per-scope-instance observation state (recording + flags). Holds no
/// borrow of the plan: the scope index addresses the specs, and the
/// recorder's tree cursor is index-based.
struct Observer {
    sidx: usize,
    rec: Option<Recorder>,
    flags: Vec<FlagMatcher>,
}

/// What kind of event the machine currently holds (payload is in
/// `Machine::cur_name` / `Machine::cur_text`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pulled {
    Start,
    End,
    Text,
}

/// How a scope terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Term {
    /// On the matching end tag of the scope element.
    End,
    /// At end of input (the document scope).
    Eof,
}

/// A stream scope being executed (its start tag already consumed).
struct ScopeFrame {
    sidx: usize,
    term: Term,
    /// Validating DFA state within the scope's content model.
    state: u32,
    obs_created: bool,
    /// Which `on-first` handlers have fired (pooled).
    fired: Vec<bool>,
    /// Handlers of the current child's firing list still to run after the
    /// in-flight zero-copy consumption returns — all `on-first` (pooled).
    rest: Vec<usize>,
}

/// What to do when a `Consume` frame completes.
enum AfterConsume {
    /// Capture path: become a [`Frame::Fire`] over these handlers (the
    /// captured events are the top of `Machine::captures`).
    /// (Plain no-continuation skips never build a frame at all — they use
    /// the machine's `skip` counter.)
    Fire { sidx: usize, handlers: Vec<usize> },
    /// A simple handler body consumed the child: write its trailing items.
    Simple(SimpleRest),
}

/// Continuation inside a simple (streamable) handler body: resume at
/// `item` of handler `hidx` of scope `sidx` once the child is consumed.
#[derive(Clone, Copy)]
struct SimpleRest {
    sidx: usize,
    hidx: usize,
    item: usize,
}

/// One entry of the explicit control stack. Events are always consumed by
/// the top frame; frames below hold the continuations of enclosing scopes.
enum Frame {
    Scope(ScopeFrame),
    /// Consume (skip or capture) the rest of the current child's subtree.
    Consume {
        depth: u32,
        capturing: bool,
        after: AfterConsume,
    },
    /// Copy the rest of the current child's subtree to the output.
    Copy {
        depth: u32,
        rest: SimpleRest,
    },
    /// Fire the remaining handlers of a captured child, one at a time; each
    /// `on` handler replays the capture (top of `Machine::captures`) from
    /// the start. Never consumes events — advanced by the machine between
    /// them.
    Fire {
        sidx: usize,
        handlers: Vec<usize>,
        next: usize,
    },
}

/// An in-flight replay of a captured child. Events above `obs_base` in the
/// observer stack have not seen this data; everything below observed it
/// live during the capture.
struct Replay {
    capture: usize,
    pos: usize,
    obs_base: usize,
}

/// A captured child subtree awaiting (or under) replay.
struct Capture {
    buf: EventBuf,
    /// Bytes charged against the buffer accounting; released when the
    /// capture is retired.
    bytes: usize,
    /// The child's label (kept only when a `Captured` body materializes it).
    label: String,
}

/// Top-level execution mode.
enum Mode {
    /// Normal scoped execution (`Top::Scope`).
    Scoped,
    /// Degenerate `Top::Simple` (no `process-stream`): materialize the
    /// document incrementally — with the buffer limit enforced while
    /// materializing — and evaluate at finish.
    Simple { stack: Vec<Node>, root: Option<Node>, bytes: usize },
}

/// The resumable engine state. All plan references are by index (scope,
/// handler, item, trie node), so the machine is a plain owned value that
/// lives across `feed` calls without borrowing the plan.
struct Machine<S: Sink> {
    writer: Writer<S>,
    mode: Mode,
    frames: Vec<Frame>,
    replays: Vec<Replay>,
    captures: Vec<Capture>,
    observers: Vec<Observer>,
    /// (scope index, observer index) for active scopes with observers.
    env_stack: Vec<(usize, usize)>,
    stats: RunStats,
    cur_bytes: usize,
    /// Enforces `EngineOptions::max_buffer_bytes` on `cur_bytes` and
    /// forwards every retained-byte delta to the shared [`BudgetHook`]
    /// (when installed) — releasing whatever is still charged on drop.
    budget: Budget,
    /// The current event: kind, interned id and payload.
    cur_kind: Pulled,
    cur_id: NameId,
    cur_name: String,
    cur_text: String,
    cur_text_ws: bool,
    /// Observer-stack base of the current event's source (0 = live stream).
    cur_base: usize,
    /// Pools: scope entry/exit and capture cycles recycle their vectors and
    /// arenas, so the streaming path allocates nothing per scope instance
    /// and buffering plans reuse one arena per captured child.
    bool_pool: Vec<Vec<bool>>,
    idx_pool: Vec<Vec<usize>>,
    flag_pool: Vec<Vec<FlagMatcher>>,
    evbuf_pool: Vec<EventBuf>,
    /// Scratch for the per-child firing list.
    firing_scratch: Vec<usize>,
    /// Fast path for the most common frame: when > 0, the machine is
    /// skipping an unhandled child subtree, currently `skip` levels deep,
    /// with no capture and no continuation beyond the scope's `rest`.
    /// Equivalent to a `Consume { capturing: false, after: Nothing }`
    /// frame, but costs a register instead of stack traffic per event.
    skip: u32,
    started: bool,
    failed: bool,
}

/// Account freshly buffered bytes: peak statistic, per-run limit, and the
/// shared budget hook (when installed).
fn charge_to(
    stats: &mut RunStats,
    cur_bytes: &mut usize,
    budget: &mut Budget,
    grew: usize,
) -> Result<(), EngineError> {
    stats.buffer_grow(cur_bytes, grew);
    budget.check(*cur_bytes, grew)
}

/// Copy one event into the machine's current-event slots (shared by the
/// stream and replay ingest paths, whose borrow shapes differ).
#[inline]
fn load_current(
    ev: ResolvedEvent<'_>,
    cur_kind: &mut Pulled,
    cur_id: &mut NameId,
    cur_name: &mut String,
    cur_text: &mut String,
    cur_text_ws: &mut bool,
) {
    match ev {
        ResolvedEvent::Start(id, n) => {
            *cur_id = id;
            cur_name.clear();
            cur_name.push_str(n);
            *cur_kind = Pulled::Start;
        }
        ResolvedEvent::End(id, n) => {
            *cur_id = id;
            cur_name.clear();
            cur_name.push_str(n);
            *cur_kind = Pulled::End;
        }
        ResolvedEvent::Text(t) => {
            cur_text.clear();
            cur_text.push_str(t);
            // Byte-wise whitespace scan with an early exit on the first
            // ASCII non-whitespace byte (the overwhelmingly common case);
            // only text containing non-ASCII falls back to the full
            // `char::is_whitespace` walk.
            *cur_text_ws = match t.bytes().find(|b| !matches!(b, b' ' | 0x09..=0x0D)) {
                None => true,
                Some(b) if b.is_ascii() => false,
                Some(_) => t.chars().all(char::is_whitespace),
            };
            *cur_kind = Pulled::Text;
        }
    }
}

/// The `Top::Simple` accounting: the materialized tree's bytes, checked
/// against the limit (and charged to the shared budget) as they arrive —
/// an oversized input aborts before it is ever fully held in memory.
fn charge_simple(bytes: &mut usize, budget: &mut Budget, grew: usize) -> Result<(), EngineError> {
    *bytes += grew;
    budget.check(*bytes, grew)
}

impl<S: Sink> Machine<S> {
    fn new(
        writer: Writer<S>,
        limit: Option<usize>,
        hook: Option<Arc<dyn BudgetHook>>,
    ) -> Machine<S> {
        Machine {
            writer,
            mode: Mode::Scoped,
            frames: Vec::new(),
            replays: Vec::new(),
            captures: Vec::new(),
            observers: Vec::new(),
            env_stack: Vec::new(),
            stats: RunStats::default(),
            cur_bytes: 0,
            budget: Budget::new(limit, hook),
            cur_kind: Pulled::Text,
            cur_id: NameId::UNKNOWN,
            cur_name: String::new(),
            cur_text: String::new(),
            cur_text_ws: true,
            cur_base: 0,
            bool_pool: Vec::new(),
            idx_pool: Vec::new(),
            flag_pool: Vec::new(),
            evbuf_pool: Vec::new(),
            firing_scratch: Vec::new(),
            skip: 0,
            started: false,
            failed: false,
        }
    }

    fn into_sink(self) -> S {
        self.writer.into_sink()
    }

    /// See [`Pump::state_save`]. Pools and the firing scratch are recycled
    /// capacity, not state — restored machines start them empty. The
    /// environment stack is not saved either: an observer is pushed together
    /// with its env entry and popped with it, so `env_stack[i]` is always
    /// `(observers[i].sidx, i)` and the restore rebuilds it from the
    /// observer list.
    fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        use flux_state::StateError;
        if self.failed {
            return Err(StateError::NotQuiescent("pump has failed"));
        }
        if !self.replays.is_empty() {
            return Err(StateError::NotQuiescent("capture replay in flight"));
        }
        enc.put_bool(self.started);
        enc.put_uint(self.writer.bytes_written());
        match &self.mode {
            Mode::Scoped => enc.put_u8(0),
            Mode::Simple { stack, root, bytes } => {
                enc.put_u8(1);
                enc.put_usize(stack.len());
                for n in stack {
                    n.state_save(enc);
                }
                if enc.put_opt(root.is_some()) {
                    root.as_ref().expect("present").state_save(enc);
                }
                enc.put_usize(*bytes);
            }
        }
        enc.put_usize(self.frames.len());
        for f in &self.frames {
            match f {
                Frame::Scope(sf) => {
                    enc.put_u8(0);
                    enc.put_usize(sf.sidx);
                    enc.put_u8(match sf.term {
                        Term::End => 0,
                        Term::Eof => 1,
                    });
                    enc.put_uint(u64::from(sf.state));
                    enc.put_bool(sf.obs_created);
                    enc.put_usize(sf.fired.len());
                    for &b in &sf.fired {
                        enc.put_bool(b);
                    }
                    enc.put_usize(sf.rest.len());
                    for &h in &sf.rest {
                        enc.put_usize(h);
                    }
                }
                Frame::Consume { depth, capturing, after } => {
                    enc.put_u8(1);
                    enc.put_uint(u64::from(*depth));
                    enc.put_bool(*capturing);
                    match after {
                        AfterConsume::Fire { sidx, handlers } => {
                            enc.put_u8(0);
                            enc.put_usize(*sidx);
                            enc.put_usize(handlers.len());
                            for &h in handlers {
                                enc.put_usize(h);
                            }
                        }
                        AfterConsume::Simple(r) => {
                            enc.put_u8(1);
                            save_simple_rest(enc, r);
                        }
                    }
                }
                Frame::Copy { depth, rest } => {
                    enc.put_u8(2);
                    enc.put_uint(u64::from(*depth));
                    save_simple_rest(enc, rest);
                }
                Frame::Fire { .. } => {
                    return Err(StateError::NotQuiescent("handler dispatch in flight"));
                }
            }
        }
        enc.put_usize(self.captures.len());
        for c in &self.captures {
            c.buf.state_save(enc);
            enc.put_usize(c.bytes);
            enc.put_str(&c.label);
        }
        enc.put_usize(self.observers.len());
        for o in &self.observers {
            enc.put_usize(o.sidx);
            if enc.put_opt(o.rec.is_some()) {
                o.rec.as_ref().expect("present").state_save(enc);
            }
            enc.put_usize(o.flags.len());
            for m in &o.flags {
                m.state_save(enc);
            }
        }
        // Stats, minus the scanner telemetry: which SIMD kernel tokenized
        // which bytes is a property of each host's run, not of the query
        // state, and must not pin a snapshot to a CPU feature set.
        enc.put_usize(self.stats.peak_buffer_bytes);
        enc.put_usize(self.stats.final_buffer_bytes);
        enc.put_uint(self.stats.events);
        enc.put_uint(self.stats.output_bytes);
        enc.put_uint(self.stats.on_firings);
        enc.put_uint(self.stats.on_first_firings);
        enc.put_uint(self.stats.buffers_created);
        enc.put_uint(self.stats.captures);
        enc.put_usize(self.cur_bytes);
        enc.put_usize(self.budget.charged());
        enc.put_u8(match self.cur_kind {
            Pulled::Start => 0,
            Pulled::End => 1,
            Pulled::Text => 2,
        });
        enc.put_uint(u64::from(self.cur_id.0));
        enc.put_str(&self.cur_name);
        enc.put_str(&self.cur_text);
        enc.put_bool(self.cur_text_ws);
        enc.put_usize(self.cur_base);
        enc.put_uint(u64::from(self.skip));
        Ok(())
    }

    /// See [`Pump::state_load`]. Every plan-relative index is range-checked
    /// against the live plan before it is trusted — a corrupt or mismatched
    /// snapshot must fail the restore, never panic the next event.
    fn state_load(
        plan: &CompiledQuery,
        sink: S,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
        pre_granted: bool,
    ) -> Result<Machine<S>, flux_state::StateError> {
        use flux_state::StateError;
        let started = dec.get_bool()?;
        let written = dec.get_uint()?;
        let mode = match dec.get_u8()? {
            0 => Mode::Scoped,
            1 => {
                let n = dec.get_count()?;
                let mut stack = Vec::with_capacity(n);
                for _ in 0..n {
                    stack.push(Node::state_load(dec)?);
                }
                let root = if dec.get_opt()? { Some(Node::state_load(dec)?) } else { None };
                let bytes = dec.get_usize()?;
                Mode::Simple { stack, root, bytes }
            }
            _ => return Err(StateError::Corrupt("unknown execution mode")),
        };
        let nframes = dec.get_count()?;
        let mut frames = Vec::with_capacity(nframes);
        for _ in 0..nframes {
            frames.push(match dec.get_u8()? {
                0 => {
                    let sidx = dec.get_usize()?;
                    let spec = plan
                        .scopes
                        .get(sidx)
                        .ok_or(StateError::Corrupt("scope index out of range"))?;
                    let term = match dec.get_u8()? {
                        0 => Term::End,
                        1 => Term::Eof,
                        _ => return Err(StateError::Corrupt("unknown scope terminator")),
                    };
                    let state = u32::try_from(dec.get_uint()?)
                        .map_err(|_| StateError::Corrupt("DFA state exceeds u32"))?;
                    let obs_created = dec.get_bool()?;
                    let nf = dec.get_count()?;
                    if nf != spec.handlers.len() {
                        return Err(StateError::Corrupt("fired set does not match the plan"));
                    }
                    let mut fired = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        fired.push(dec.get_bool()?);
                    }
                    let nr = dec.get_count()?;
                    let mut rest = Vec::with_capacity(nr);
                    for _ in 0..nr {
                        let h = dec.get_usize()?;
                        if h >= spec.handlers.len() {
                            return Err(StateError::Corrupt("handler index out of range"));
                        }
                        rest.push(h);
                    }
                    Frame::Scope(ScopeFrame { sidx, term, state, obs_created, fired, rest })
                }
                1 => {
                    let depth = u32::try_from(dec.get_uint()?)
                        .map_err(|_| StateError::Corrupt("consume depth exceeds u32"))?;
                    let capturing = dec.get_bool()?;
                    let after = match dec.get_u8()? {
                        0 => {
                            let sidx = dec.get_usize()?;
                            let spec = plan
                                .scopes
                                .get(sidx)
                                .ok_or(StateError::Corrupt("scope index out of range"))?;
                            let nh = dec.get_count()?;
                            let mut handlers = Vec::with_capacity(nh);
                            for _ in 0..nh {
                                let h = dec.get_usize()?;
                                if h >= spec.handlers.len() {
                                    return Err(StateError::Corrupt("handler index out of range"));
                                }
                                handlers.push(h);
                            }
                            AfterConsume::Fire { sidx, handlers }
                        }
                        1 => AfterConsume::Simple(load_simple_rest(plan, dec)?),
                        _ => return Err(StateError::Corrupt("unknown consume continuation")),
                    };
                    Frame::Consume { depth, capturing, after }
                }
                2 => {
                    let depth = u32::try_from(dec.get_uint()?)
                        .map_err(|_| StateError::Corrupt("copy depth exceeds u32"))?;
                    Frame::Copy { depth, rest: load_simple_rest(plan, dec)? }
                }
                _ => return Err(StateError::Corrupt("unknown frame kind")),
            });
        }
        let ncap = dec.get_count()?;
        let mut captures = Vec::with_capacity(ncap);
        for _ in 0..ncap {
            let buf = EventBuf::state_load(dec)?;
            let bytes = dec.get_usize()?;
            let label = dec.get_str()?.to_string();
            captures.push(Capture { buf, bytes, label });
        }
        let nobs = dec.get_count()?;
        let mut observers = Vec::with_capacity(nobs);
        for _ in 0..nobs {
            let sidx = dec.get_usize()?;
            let spec =
                plan.scopes.get(sidx).ok_or(StateError::Corrupt("scope index out of range"))?;
            let rec = if dec.get_opt()? { Some(Recorder::state_load(dec)?) } else { None };
            let nflags = dec.get_count()?;
            if nflags != spec.flags.len() {
                return Err(StateError::Corrupt("flag set does not match the plan"));
            }
            let mut flags = Vec::with_capacity(nflags);
            for _ in 0..nflags {
                flags.push(FlagMatcher::state_load(dec)?);
            }
            observers.push(Observer { sidx, rec, flags });
        }
        let env_stack = observers.iter().enumerate().map(|(i, o)| (o.sidx, i)).collect();
        let mut stats = RunStats {
            peak_buffer_bytes: dec.get_usize()?,
            final_buffer_bytes: dec.get_usize()?,
            ..RunStats::default()
        };
        stats.events = dec.get_uint()?;
        stats.output_bytes = dec.get_uint()?;
        stats.on_firings = dec.get_uint()?;
        stats.on_first_firings = dec.get_uint()?;
        stats.buffers_created = dec.get_uint()?;
        stats.captures = dec.get_uint()?;
        let cur_bytes = dec.get_usize()?;
        let charged = dec.get_usize()?;
        let budget = Budget::resume(plan.opts.max_buffer_bytes, hook, charged, pre_granted)?;
        let cur_kind = match dec.get_u8()? {
            0 => Pulled::Start,
            1 => Pulled::End,
            2 => Pulled::Text,
            _ => return Err(StateError::Corrupt("unknown event kind")),
        };
        let cur_id = NameId(
            u32::try_from(dec.get_uint()?)
                .map_err(|_| StateError::Corrupt("NameId exceeds u32"))?,
        );
        let cur_name = dec.get_str()?.to_string();
        let cur_text = dec.get_str()?.to_string();
        let cur_text_ws = dec.get_bool()?;
        let cur_base = dec.get_usize()?;
        if cur_base > observers.len() {
            return Err(StateError::Corrupt("observer base out of range"));
        }
        let skip = u32::try_from(dec.get_uint()?)
            .map_err(|_| StateError::Corrupt("skip depth exceeds u32"))?;
        Ok(Machine {
            writer: Writer::resume(sink, written),
            mode,
            frames,
            replays: Vec::new(),
            captures,
            observers,
            env_stack,
            stats,
            cur_bytes,
            budget,
            cur_kind,
            cur_id,
            cur_name,
            cur_text,
            cur_text_ws,
            cur_base,
            bool_pool: Vec::new(),
            idx_pool: Vec::new(),
            flag_pool: Vec::new(),
            evbuf_pool: Vec::new(),
            firing_scratch: Vec::new(),
            skip,
            started,
            failed: false,
        })
    }

    fn charge(&mut self, grew: usize) -> Result<(), EngineError> {
        charge_to(&mut self.stats, &mut self.cur_bytes, &mut self.budget, grew)
    }

    /// Lazy start: write the top pre string and enter the document scope
    /// (or switch to the materializing mode).
    fn start(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        self.started = true;
        match &plan.top {
            Top::Simple(_) => {
                // The synthetic document node is buffered too (as in the
                // seed's accounting, which measured the wrapped tree).
                self.mode = Mode::Simple { stack: Vec::new(), root: None, bytes: 0 };
                let Mode::Simple { bytes, .. } = &mut self.mode else {
                    unreachable!("just assigned")
                };
                charge_simple(bytes, &mut self.budget, 2 * DOC_ELEM.len())?;
            }
            Top::Scope { pre, idx, .. } => {
                if let Some(s) = pre {
                    self.writer.write_raw(s).map_err(io_err)?;
                }
                self.enter_scope(plan, *idx, Term::Eof)?;
            }
        }
        Ok(())
    }

    #[inline]
    fn feed_event(
        &mut self,
        plan: &CompiledQuery,
        ev: ResolvedEvent<'_>,
    ) -> Result<(), EngineError> {
        if self.failed {
            return Err(poisoned());
        }
        let r = self.feed_inner(plan, ev);
        if r.is_err() {
            self.failed = true;
        }
        r
    }

    fn finish(&mut self, plan: &CompiledQuery) -> Result<RunStats, EngineError> {
        if self.failed {
            return Err(poisoned());
        }
        let r = self.finish_inner(plan);
        if r.is_err() {
            self.failed = true;
        }
        r
    }

    #[inline]
    fn feed_inner(
        &mut self,
        plan: &CompiledQuery,
        ev: ResolvedEvent<'_>,
    ) -> Result<(), EngineError> {
        if !self.started {
            self.start(plan)?;
        }
        if matches!(self.mode, Mode::Simple { .. }) {
            return self.simple_event(ev);
        }
        self.stats.events += 1;
        if !self.observers.is_empty() {
            let grew = dispatch(plan, &mut self.observers, 0, ev);
            if grew > 0 {
                charge_to(&mut self.stats, &mut self.cur_bytes, &mut self.budget, grew)?;
            }
        }
        self.cur_base = 0;
        if self.skip > 0 {
            // Skipped subtree: only the event kind matters, so the
            // name/text copy in `set_current` is skipped along with it.
            // (`process_current` keeps its own skip branch for replayed
            // events, which enter below this screen.)
            match ev {
                ResolvedEvent::Start(..) => self.skip += 1,
                ResolvedEvent::Text(_) => {}
                ResolvedEvent::End(..) => {
                    self.skip -= 1;
                    if self.skip == 0 {
                        // The skipped child is done; fire the scope's rest.
                        self.set_current(ev);
                        self.on_frame_pop(plan)?;
                        return if self.replays.is_empty() {
                            Ok(())
                        } else {
                            self.drain_replays(plan)
                        };
                    }
                }
            }
            return Ok(());
        }
        self.set_current(ev);
        self.process_current(plan)?;
        if self.replays.is_empty() {
            Ok(())
        } else {
            self.drain_replays(plan)
        }
    }

    #[inline]
    fn set_current(&mut self, ev: ResolvedEvent<'_>) {
        load_current(
            ev,
            &mut self.cur_kind,
            &mut self.cur_id,
            &mut self.cur_name,
            &mut self.cur_text,
            &mut self.cur_text_ws,
        );
    }

    /// Feed pending replay events until every replay source is drained —
    /// this is where captured children are consumed by their handlers, all
    /// within the stream event that completed the capture.
    fn drain_replays(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        while let Some(r) = self.replays.last() {
            let (cap_idx, pos, base) = (r.capture, r.pos, r.obs_base);
            if pos >= self.captures[cap_idx].buf.len() {
                // This handler's replay is complete; run the next one.
                self.replays.pop();
                debug_assert!(
                    matches!(self.frames.last(), Some(Frame::Fire { .. })),
                    "a drained replay resumes its Fire frame"
                );
                self.advance_fire(plan)?;
                continue;
            }
            self.replays.last_mut().expect("checked above").pos += 1;
            self.ingest_replay(plan, cap_idx, pos, base)?;
            self.process_current(plan)?;
        }
        Ok(())
    }

    /// Load one captured event as the current event, dispatching it to the
    /// observers above `base` (outer observers saw it live at capture time).
    fn ingest_replay(
        &mut self,
        plan: &CompiledQuery,
        cap_idx: usize,
        pos: usize,
        base: usize,
    ) -> Result<(), EngineError> {
        let Machine {
            captures,
            observers,
            cur_id,
            cur_name,
            cur_text,
            cur_text_ws,
            cur_kind,
            cur_base,
            stats,
            cur_bytes,
            budget,
            ..
        } = self;
        let ev = captures[cap_idx].buf.get(pos).expect("replay position in range");
        let grew = dispatch(plan, observers, base, ev);
        *cur_base = base;
        load_current(ev, cur_kind, cur_id, cur_name, cur_text, cur_text_ws);
        if grew > 0 {
            charge_to(stats, cur_bytes, budget, grew)?;
        }
        Ok(())
    }

    /// Route the current event to the top frame — one frame access on the
    /// hot paths; completions branch out to dedicated (colder) methods.
    #[inline]
    fn process_current(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        if self.skip > 0 {
            match self.cur_kind {
                Pulled::Start => self.skip += 1,
                Pulled::Text => {}
                Pulled::End => {
                    self.skip -= 1;
                    if self.skip == 0 {
                        // The skipped child is done; fire the scope's rest.
                        return self.on_frame_pop(plan);
                    }
                }
            }
            return Ok(());
        }
        match self.frames.last_mut() {
            Some(Frame::Scope(sf)) => {
                let spec: &ScopeSpec = &plan.scopes[sf.sidx];
                match self.cur_kind {
                    Pulled::Start => {
                        // One indexed load: the validating DFA transition by
                        // interned id (UNKNOWN names have no transition).
                        let automaton = spec
                            .prod
                            .expect("scope entered ⇒ production present")
                            .resolve(plan.dtd())
                            .automaton();
                        let old_state = sf.state;
                        let new = match automaton.step_id(old_state, self.cur_id) {
                            Some(n) => n,
                            None => {
                                return Err(EngineError::Validation {
                                    element: spec.elem.clone(),
                                    message: format!(
                                        "element `{}` not allowed here",
                                        self.cur_name
                                    ),
                                })
                            }
                        };
                        sf.state = new;
                        // Which handlers fire on this child, in ζ order.
                        let sidx = sf.sidx;
                        let mut firing = std::mem::take(&mut self.firing_scratch);
                        firing.clear();
                        for (h_idx, h) in spec.handlers.iter().enumerate() {
                            match h {
                                CHandler::On { label_id, .. } => {
                                    if *label_id == self.cur_id {
                                        firing.push(h_idx);
                                    }
                                }
                                CHandler::OnFirst { table, defer_to_end, .. } => {
                                    if !*defer_to_end
                                        && !sf.fired[h_idx]
                                        && table
                                            .as_ref()
                                            .is_some_and(|t| t.fires_on(old_state, new))
                                    {
                                        firing.push(h_idx);
                                    }
                                }
                            }
                        }
                        if firing.is_empty() {
                            // Unhandled child — the common case on selective
                            // queries: skip its whole subtree.
                            self.stats.tape.prescreen_hits += 1;
                            self.firing_scratch = firing;
                            self.skip = 1;
                            return Ok(());
                        }
                        self.stats.tape.prescreen_misses += 1;
                        let firing = self.handle_child(plan, sidx, firing)?;
                        self.firing_scratch = firing;
                        Ok(())
                    }
                    Pulled::Text => {
                        if !spec.allows_text && !self.cur_text_ws {
                            return Err(EngineError::Validation {
                                element: spec.elem.clone(),
                                message: "character data not allowed by the content model".into(),
                            });
                        }
                        Ok(())
                    }
                    Pulled::End => {
                        if sf.term == Term::Eof {
                            return Err(EngineError::Validation {
                                element: spec.elem.clone(),
                                message: "unexpected end tag at document level".into(),
                            });
                        }
                        self.exit_scope(plan)
                    }
                }
            }
            Some(Frame::Consume { depth, capturing, .. }) => {
                let done = match self.cur_kind {
                    Pulled::Start => {
                        *depth += 1;
                        false
                    }
                    Pulled::Text => false,
                    Pulled::End => {
                        if *depth == 0 {
                            true
                        } else {
                            *depth -= 1;
                            false
                        }
                    }
                };
                if *capturing {
                    let grew = {
                        let cap =
                            self.captures.last_mut().expect("capturing consume has a capture");
                        let grew = match self.cur_kind {
                            Pulled::Start => cap.buf.push_start(self.cur_id, &self.cur_name),
                            Pulled::Text => cap.buf.push_text(&self.cur_text),
                            Pulled::End => cap.buf.push_end(self.cur_id, &self.cur_name),
                        };
                        cap.bytes += grew;
                        grew
                    };
                    self.charge(grew)?;
                }
                if done {
                    self.complete_consume(plan)
                } else {
                    Ok(())
                }
            }
            Some(Frame::Copy { depth, .. }) => {
                let done = match self.cur_kind {
                    Pulled::Start => {
                        *depth += 1;
                        false
                    }
                    Pulled::Text => false,
                    Pulled::End => {
                        if *depth == 0 {
                            true
                        } else {
                            *depth -= 1;
                            false
                        }
                    }
                };
                let ev = match self.cur_kind {
                    Pulled::Start => Event::Start(&self.cur_name),
                    Pulled::Text => Event::Text(&self.cur_text),
                    Pulled::End => Event::End(&self.cur_name),
                };
                self.writer.write_event(ev).map_err(io_err)?;
                if done {
                    self.complete_copy(plan)
                } else {
                    Ok(())
                }
            }
            Some(Frame::Fire { .. }) => unreachable!("Fire frames never receive events"),
            None => Err(poisoned()), // events after the document completed
        }
    }

    /// Process one child of the current scope. `cur_name` holds its label;
    /// its start event has been dispatched to the observers. Returns a
    /// (possibly different) vector for the firing scratch slot.
    fn handle_child(
        &mut self,
        plan: &CompiledQuery,
        sidx: usize,
        firing: Vec<usize>,
    ) -> Result<Vec<usize>, EngineError> {
        let spec = &plan.scopes[sidx];
        let base = self.cur_base;
        // Is the child being recorded into some buffer right now?
        let recorded = self.observers[base..]
            .iter()
            .any(|o| o.rec.as_ref().is_some_and(Recorder::is_recording));
        // Could a condition flag still change within this child? If so, an
        // `on` handler must not evaluate conditions while the child streams;
        // consuming the child first (capture path) finalizes the flags.
        let flags_pending = self.observers[base..].iter().any(|o| {
            plan.scopes[o.sidx].flags.iter().zip(&o.flags).any(|(fs, m)| m.may_change_below(fs))
        });

        let mut on_count = 0usize;
        let mut first_is_on = false;
        let mut all_bodies_streamable = true;
        let mut any_captured = false;
        for (i, &h_idx) in firing.iter().enumerate() {
            if let CHandler::On { body, .. } = &spec.handlers[h_idx] {
                on_count += 1;
                if i == 0 {
                    first_is_on = true;
                }
                match body {
                    CBody::Captured(_) => {
                        all_bodies_streamable = false;
                        any_captured = true;
                    }
                    CBody::Scope(_) | CBody::Stream(_) => {}
                }
            }
        }

        if on_count == 1 && first_is_on && all_bodies_streamable && !recorded && !flags_pending {
            // Zero-copy path: the child streams through the single `on`
            // handler; any later on-first handlers fire once it completes
            // (stashed as the scope's `rest`).
            let h_idx = firing[0];
            if firing.len() > 1 {
                if let Some(Frame::Scope(sf)) = self.frames.last_mut() {
                    sf.rest.extend_from_slice(&firing[1..]);
                }
            }
            self.stats.on_firings += 1;
            match &spec.handlers[h_idx] {
                CHandler::On { body: CBody::Scope(i), .. } => {
                    self.enter_scope(plan, *i, Term::End)?
                }
                CHandler::On { body: CBody::Stream(_), .. } => {
                    self.start_simple(plan, sidx, h_idx)?
                }
                _ => unreachable!("checked streamable on-handler"),
            }
            return Ok(firing);
        }

        // Consume the child first (observers see it); keep its events only
        // if an `on` handler must replay them.
        let need_events = on_count > 0;
        if need_events {
            let label = if any_captured { self.cur_name.clone() } else { String::new() };
            let mut buf = self.evbuf_pool.pop().unwrap_or_default();
            buf.clear();
            self.captures.push(Capture { buf, bytes: 0, label });
            self.frames.push(Frame::Consume {
                depth: 0,
                capturing: true,
                after: AfterConsume::Fire { sidx, handlers: firing },
            });
            Ok(self.idx_pool.pop().unwrap_or_default())
        } else {
            // Only on-first handlers fire: skip the child, then fire them.
            if !firing.is_empty() {
                if let Some(Frame::Scope(sf)) = self.frames.last_mut() {
                    sf.rest.extend_from_slice(&firing);
                }
            }
            self.skip = 1;
            Ok(firing)
        }
    }

    /// A `Consume` frame saw its child's end tag: retire it and run its
    /// continuation (port of the code after `consume_child` returned).
    fn complete_consume(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        let Some(Frame::Consume { after, .. }) = self.frames.pop() else {
            unreachable!("complete_consume pops a consume frame")
        };
        match after {
            AfterConsume::Fire { sidx, handlers } => {
                self.stats.captures += 1;
                self.frames.push(Frame::Fire { sidx, handlers, next: 0 });
                self.advance_fire(plan)
            }
            AfterConsume::Simple(rest) => {
                self.finish_simple(plan, rest)?;
                self.on_frame_pop(plan)
            }
        }
    }

    /// A `Copy` frame wrote its child's end tag: trailing simple items,
    /// then the parent's continuation.
    fn complete_copy(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        let Some(Frame::Copy { rest, .. }) = self.frames.pop() else {
            unreachable!("complete_copy pops a copy frame")
        };
        self.finish_simple(plan, rest)?;
        self.on_frame_pop(plan)
    }

    /// Run the next handlers of the top `Fire` frame until one needs a
    /// replay (pushed, fed by `drain_replays`) or the list is done.
    fn advance_fire(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        loop {
            let (sidx, h_idx) = match self.frames.last_mut() {
                Some(Frame::Fire { sidx, handlers, next }) => {
                    if *next >= handlers.len() {
                        break;
                    }
                    let h = handlers[*next];
                    *next += 1;
                    (*sidx, h)
                }
                _ => unreachable!("advance_fire on a fire frame"),
            };
            match &plan.scopes[sidx].handlers[h_idx] {
                CHandler::OnFirst { expr, .. } => {
                    self.mark_fired_below(h_idx);
                    self.fire_onfirst(plan, expr)?;
                }
                CHandler::On { var, body, .. } => {
                    self.stats.on_firings += 1;
                    match body {
                        CBody::Scope(i) => {
                            self.replays.push(Replay {
                                capture: self.captures.len() - 1,
                                pos: 0,
                                obs_base: self.observers.len(),
                            });
                            self.enter_scope(plan, *i, Term::End)?;
                            return Ok(()); // drain_replays feeds it
                        }
                        CBody::Stream(_) => {
                            // cur_name must hold the child label for the
                            // copy fast path; restore it from the capture
                            // tail (the final End event carries the label).
                            if let Some(ResolvedEvent::End(id, n)) =
                                self.captures.last().expect("fire has a capture").buf.last()
                            {
                                self.cur_id = id;
                                self.cur_name.clear();
                                self.cur_name.push_str(n);
                            }
                            self.replays.push(Replay {
                                capture: self.captures.len() - 1,
                                pos: 0,
                                obs_base: self.observers.len(),
                            });
                            self.start_simple(plan, sidx, h_idx)?;
                            return Ok(()); // drain_replays feeds it
                        }
                        CBody::Captured(expr) => {
                            let node = {
                                let cap = self.captures.last().expect("fire has a capture");
                                build_child_node(&cap.label, &cap.buf)
                            };
                            self.fire_captured(plan, var, expr, &node)?;
                        }
                    }
                }
            }
        }
        // All handlers ran: retire the capture and pop the frame.
        let Some(Frame::Fire { handlers, .. }) = self.frames.pop() else {
            unreachable!("loop ended on a fire frame")
        };
        let mut handlers = handlers;
        handlers.clear();
        self.idx_pool.push(handlers);
        let cap = self.captures.pop().expect("fire frame owns the top capture");
        if cap.bytes > 0 {
            RunStats::buffer_shrink(&mut self.cur_bytes, cap.bytes);
            self.budget.release(cap.bytes);
        }
        self.evbuf_pool.push(cap.buf);
        self.on_frame_pop(plan)
    }

    /// Mark an on-first handler fired in the scope frame directly below the
    /// top `Fire` frame.
    fn mark_fired_below(&mut self, h_idx: usize) {
        let below = self.frames.len().checked_sub(2).expect("Fire sits above its scope");
        match &mut self.frames[below] {
            Frame::Scope(sf) => sf.fired[h_idx] = true,
            _ => unreachable!("Fire sits directly above its scope frame"),
        }
    }

    /// A frame above the top scope completed: fire the scope's stashed
    /// rest-handlers (the on-first tail of a zero-copy child's firing list).
    fn on_frame_pop(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        let (sidx, rest) = match self.frames.last_mut() {
            Some(Frame::Scope(sf)) if !sf.rest.is_empty() => {
                (sf.sidx, std::mem::take(&mut sf.rest))
            }
            _ => return Ok(()),
        };
        for &h_idx in &rest {
            if let Some(Frame::Scope(sf)) = self.frames.last_mut() {
                sf.fired[h_idx] = true;
            }
            let CHandler::OnFirst { expr, .. } = &plan.scopes[sidx].handlers[h_idx] else {
                unreachable!("zero-copy rest handlers are on-first")
            };
            self.fire_onfirst(plan, expr)?;
        }
        let mut rest = rest;
        rest.clear();
        if let Some(Frame::Scope(sf)) = self.frames.last_mut() {
            sf.rest = rest; // hand the (empty) vector back for reuse
        } else {
            self.idx_pool.push(rest);
        }
        Ok(())
    }

    /// Enter a scope (its start tag has been consumed): pre string,
    /// observers, the i = 0 on-first pass, and the frame push.
    fn enter_scope(
        &mut self,
        plan: &CompiledQuery,
        sidx: usize,
        term: Term,
    ) -> Result<(), EngineError> {
        let spec = &plan.scopes[sidx];
        if spec.prod.is_none() {
            return Err(EngineError::Undeclared(spec.elem.clone()));
        }
        if let Some(s) = &spec.pre {
            self.writer.write_raw(s).map_err(io_err)?;
        }
        let mut obs_created = false;
        if spec.needs_observer() {
            let rec = if spec.buffer_rt.is_empty() {
                None
            } else {
                self.stats.buffers_created += 1;
                Some(Recorder::new(&spec.elem))
            };
            let mut flags = self.flag_pool.pop().unwrap_or_default();
            flags.truncate(spec.flags.len());
            for m in &mut flags {
                m.reset();
            }
            flags.resize_with(spec.flags.len(), FlagMatcher::new);
            self.observers.push(Observer { sidx, rec, flags });
            self.env_stack.push((sidx, self.observers.len() - 1));
            obs_created = true;
        }
        let mut fired = self.bool_pool.pop().unwrap_or_default();
        fired.clear();
        fired.resize(spec.handlers.len(), false);
        // i = 0: on-first handlers whose past set can already not occur.
        for (h_idx, h) in spec.handlers.iter().enumerate() {
            if let CHandler::OnFirst { table, expr, defer_to_end } = h {
                if !defer_to_end && table.as_ref().is_some_and(|t| t.fires_initially()) {
                    fired[h_idx] = true;
                    self.fire_onfirst(plan, expr)?;
                }
            }
        }
        let rest = self.idx_pool.pop().unwrap_or_default();
        debug_assert!(rest.is_empty(), "pooled index vectors are recycled empty");
        self.frames.push(Frame::Scope(ScopeFrame {
            sidx,
            term,
            state: Glushkov::INITIAL,
            obs_created,
            fired,
            rest,
        }));
        Ok(())
    }

    /// Leave the top scope: accepting check, the i = n+1 on-first pass,
    /// post string, observer teardown, then the parent's continuation.
    fn exit_scope(&mut self, plan: &CompiledQuery) -> Result<(), EngineError> {
        let Some(Frame::Scope(sf)) = self.frames.pop() else {
            unreachable!("exit_scope pops a scope frame")
        };
        let spec = &plan.scopes[sf.sidx];
        let automaton =
            spec.prod.expect("scope entered ⇒ production present").resolve(plan.dtd()).automaton();
        if !automaton.accepting(sf.state) {
            return Err(EngineError::Validation {
                element: spec.elem.clone(),
                message: "content ended prematurely (content model not satisfied)".into(),
            });
        }
        // i = n+1: remaining on-first handlers fire now, in ζ order.
        for (h_idx, h) in spec.handlers.iter().enumerate() {
            if let CHandler::OnFirst { expr, .. } = h {
                if !sf.fired[h_idx] {
                    self.fire_onfirst(plan, expr)?;
                }
            }
        }
        if let Some(s) = &spec.post {
            self.writer.write_raw(s).map_err(io_err)?;
        }
        if sf.obs_created {
            self.env_stack.pop();
            let o = self.observers.pop().expect("observer pushed at scope entry");
            if let Some(rec) = o.rec {
                RunStats::buffer_shrink(&mut self.cur_bytes, rec.bytes());
                self.budget.release(rec.bytes());
            }
            self.flag_pool.push(o.flags);
        }
        // Recycle the scratch vectors.
        let ScopeFrame { mut fired, mut rest, .. } = sf;
        debug_assert!(rest.is_empty(), "rest handlers fire before the scope's end tag");
        fired.clear();
        rest.clear();
        self.bool_pool.push(fired);
        self.idx_pool.push(rest);
        self.on_frame_pop(plan)
    }

    /// Begin a streamable simple handler body over the current child
    /// (port of `exec_simple`): leading items now, then a `Copy`/`Consume`
    /// frame for the child, trailing items on its completion.
    fn start_simple(
        &mut self,
        plan: &CompiledQuery,
        sidx: usize,
        hidx: usize,
    ) -> Result<(), EngineError> {
        let CHandler::On { body: CBody::Stream(sp), .. } = &plan.scopes[sidx].handlers[hidx] else {
            unreachable!("start_simple on a stream body")
        };
        let items = &sp.items;
        let mut i = 0usize;
        while i < items.len() {
            match &items[i] {
                SimpleItem::Raw(s) => self.writer.write_raw(s).map_err(io_err)?,
                SimpleItem::CondRaw(c, s) => {
                    if self.eval_cond_runtime(plan, c)? {
                        self.writer.write_raw(s).map_err(io_err)?;
                    }
                }
                SimpleItem::CopyChild => {
                    self.writer.write_event(Event::Start(&self.cur_name)).map_err(io_err)?;
                    self.frames.push(Frame::Copy {
                        depth: 0,
                        rest: SimpleRest { sidx, hidx, item: i + 1 },
                    });
                    return Ok(());
                }
                SimpleItem::CondCopyChild(c) => {
                    let rest = SimpleRest { sidx, hidx, item: i + 1 };
                    if self.eval_cond_runtime(plan, c)? {
                        self.writer.write_event(Event::Start(&self.cur_name)).map_err(io_err)?;
                        self.frames.push(Frame::Copy { depth: 0, rest });
                    } else {
                        self.frames.push(Frame::Consume {
                            depth: 0,
                            capturing: false,
                            after: AfterConsume::Simple(rest),
                        });
                    }
                    return Ok(());
                }
            }
            i += 1;
        }
        // No item consumed the child: skip it, then nothing remains.
        self.frames.push(Frame::Consume {
            depth: 0,
            capturing: false,
            after: AfterConsume::Simple(SimpleRest { sidx, hidx, item: items.len() }),
        });
        Ok(())
    }

    /// The trailing items of a simple body, after its child was consumed.
    fn finish_simple(&mut self, plan: &CompiledQuery, rest: SimpleRest) -> Result<(), EngineError> {
        let CHandler::On { body: CBody::Stream(sp), .. } =
            &plan.scopes[rest.sidx].handlers[rest.hidx]
        else {
            unreachable!("finish_simple on a stream body")
        };
        for item in &sp.items[rest.item..] {
            match item {
                SimpleItem::Raw(s) => self.writer.write_raw(s).map_err(io_err)?,
                SimpleItem::CondRaw(c, s) => {
                    if self.eval_cond_runtime(plan, c)? {
                        self.writer.write_raw(s).map_err(io_err)?;
                    }
                }
                SimpleItem::CopyChild | SimpleItem::CondCopyChild(_) => {
                    unreachable!("at most one consuming item per simple plan")
                }
            }
        }
        Ok(())
    }

    /// Fire an `on-first` handler: bind buffers and evaluate, resolving
    /// flag-owned atoms on the fly — no expression clone per firing.
    fn fire_onfirst(&mut self, plan: &CompiledQuery, expr: &Expr) -> Result<(), EngineError> {
        self.stats.on_first_firings += 1;
        self.fire_buffered(plan, expr, None)
    }

    /// Fire a captured `on` handler body over the materialized child.
    fn fire_captured(
        &mut self,
        plan: &CompiledQuery,
        var: &str,
        expr: &Expr,
        child: &Node,
    ) -> Result<(), EngineError> {
        self.fire_buffered(plan, expr, Some((var, child)))
    }

    /// Evaluate a buffered XQuery− expression over the active scopes'
    /// buffers (plus the captured child of an `on` handler, bound to its
    /// variable).
    fn fire_buffered(
        &mut self,
        plan: &CompiledQuery,
        expr: &Expr,
        captured: Option<(&str, &Node)>,
    ) -> Result<(), EngineError> {
        let Machine { writer, observers, env_stack, stats, cur_bytes, budget, .. } = self;
        let (observers, env_stack) = (&*observers, &*env_stack);
        let mut env = Env::new();
        for &(sidx, obs) in env_stack {
            if let Some(rec) = &observers[obs].rec {
                env.push(&plan.scopes[sidx].var, rec.root());
            }
        }
        if let Some((var, child)) = captured {
            env.push(var, child);
        }
        let resolve = |atom: &Atom, bound: &[&str]| {
            // The handler variable is bound to the captured child: atoms
            // rooted at it are never flag-owned.
            if captured.is_some_and(|(var, _)| atom_root_var(atom) == var) {
                return None;
            }
            lookup_flag_in(plan, env_stack, observers, atom, bound)
        };
        eval_with_join_indexes(expr, &mut env, writer, &resolve, stats, cur_bytes, budget)
    }

    /// Evaluate a condition: flag-owned atoms on the fly, residual atoms
    /// over buffers. Allocation-free when everything resolves from flags
    /// (the fully streaming case).
    fn eval_cond_runtime(&mut self, plan: &CompiledQuery, c: &Cond) -> Result<bool, EngineError> {
        let mut env = Env::new();
        for &(sidx, obs) in &self.env_stack {
            if let Some(rec) = &self.observers[obs].rec {
                env.push(&plan.scopes[sidx].var, rec.root());
            }
        }
        let (env_stack, observers) = (&self.env_stack, &self.observers);
        let resolve =
            |atom: &Atom, bound: &[&str]| lookup_flag_in(plan, env_stack, observers, atom, bound);
        Ok(eval_cond_with(c, &env, &resolve)?)
    }

    /// `Top::Simple`: materialize one event into the document tree.
    fn simple_event(&mut self, ev: ResolvedEvent<'_>) -> Result<(), EngineError> {
        let Machine { mode, budget, .. } = self;
        let Mode::Simple { stack, root, bytes } = mode else {
            unreachable!("simple_event in simple mode")
        };
        match ev {
            ResolvedEvent::Start(_, n) => {
                stack.push(Node::new(n));
                charge_simple(bytes, budget, 2 * n.len())?;
            }
            ResolvedEvent::Text(t) => {
                if let Some(top) = stack.last_mut() {
                    top.push_text(t);
                    charge_simple(bytes, budget, t.len())?;
                }
            }
            ResolvedEvent::End(..) => {
                // Readers guarantee balanced tags, but `Pump::feed_event`
                // is hand-feedable: poison instead of panicking.
                let Some(done) = stack.pop() else {
                    return Err(EngineError::Validation {
                        element: "#document".into(),
                        message: "unbalanced end event".into(),
                    });
                };
                match stack.last_mut() {
                    Some(top) => top.children.push(flux_xml::Child::Elem(done)),
                    None => *root = Some(done),
                }
            }
        }
        Ok(())
    }

    /// `Top::Simple`: wrap and evaluate at end of input.
    fn simple_finish(&mut self, plan: &CompiledQuery) -> Result<RunStats, EngineError> {
        let Top::Simple(e) = &plan.top else { unreachable!("simple_finish in simple mode") };
        let (root, bytes) = match &mut self.mode {
            Mode::Simple { root, bytes, .. } => (root.take(), *bytes),
            Mode::Scoped => unreachable!("simple_finish in simple mode"),
        };
        let root = root.ok_or(EngineError::Validation {
            element: "#document".into(),
            message: "empty input".into(),
        })?;
        let doc = wrap_document(root);
        debug_assert_eq!(bytes, doc.buffered_bytes());
        let mut stats =
            RunStats { peak_buffer_bytes: bytes, buffers_created: 1, ..RunStats::default() };
        let mut env = Env::with(ROOT_VAR, &doc);
        let mut cur_bytes = bytes;
        eval_with_join_indexes(
            e,
            &mut env,
            &mut self.writer,
            &|_, _| None,
            &mut stats,
            &mut cur_bytes,
            &mut self.budget,
        )?;
        stats.output_bytes = self.writer.bytes_written();
        self.stats = stats;
        Ok(stats)
    }

    /// End of input: run the document scope's epilogue (or report where the
    /// stream broke off), write the top post string, finalize stats.
    fn finish_inner(&mut self, plan: &CompiledQuery) -> Result<RunStats, EngineError> {
        if !self.started {
            self.start(plan)?;
        }
        if matches!(self.mode, Mode::Simple { .. }) {
            return self.simple_finish(plan);
        }
        if self.skip > 0 {
            return Err(EngineError::Validation {
                element: "#stream".into(),
                message: "events ended inside an element".into(),
            });
        }
        match self.frames.last() {
            Some(Frame::Scope(sf)) if sf.term == Term::Eof => {
                debug_assert_eq!(self.frames.len(), 1, "document scope is the stack bottom");
                self.exit_scope(plan)?;
            }
            Some(Frame::Scope(sf)) => {
                return Err(EngineError::Validation {
                    element: plan.scopes[sf.sidx].elem.clone(),
                    message: "events ended inside the scope".into(),
                });
            }
            Some(Frame::Consume { .. } | Frame::Copy { .. }) => {
                return Err(EngineError::Validation {
                    element: "#stream".into(),
                    message: "events ended inside an element".into(),
                });
            }
            Some(Frame::Fire { .. }) => unreachable!("machine quiesces with Fire resolved"),
            None => return Err(poisoned()), // finish after finish
        }
        if let Top::Scope { post: Some(s), .. } = &plan.top {
            self.writer.write_raw(s).map_err(io_err)?;
        }
        self.stats.output_bytes = self.writer.bytes_written();
        self.stats.final_buffer_bytes = self.cur_bytes;
        Ok(self.stats)
    }
}

/// Evaluate a buffered expression with indexed joins: each index the
/// evaluator wants is charged to the run's buffer accounting *before* it is
/// built — peak statistic, per-run limit and shared hook, like any buffered
/// byte — and everything granted is returned when the evaluation ends,
/// however it ends. A charge that does not fit is not an error: that loop
/// runs as the nested loop it is defined as.
fn eval_with_join_indexes<'a, S: Sink>(
    expr: &'a Expr,
    env: &mut Env<'a>,
    writer: &mut Writer<S>,
    resolve: AtomResolver<'_>,
    stats: &mut RunStats,
    cur_bytes: &mut usize,
    budget: &mut Budget,
) -> Result<(), EngineError> {
    let mut grant = |bytes: usize| {
        let fits = budget.check(*cur_bytes + bytes, bytes).is_ok();
        if fits {
            stats.buffer_grow(cur_bytes, bytes);
        }
        fits
    };
    let mut memo = JoinMemo::new(&mut grant);
    let res = eval_expr_indexed(expr, env, writer, resolve, &mut memo);
    let held = memo.granted_bytes();
    RunStats::buffer_shrink(cur_bytes, held);
    budget.release(held);
    Ok(res?)
}

/// Current value of the flag evaluating `atom`, if the atom is flag-owned
/// by an active scope. `bound` carries the variables rebound inside the
/// expression being evaluated (their atoms belong to the buffer evaluator).
fn lookup_flag_in(
    plan: &CompiledQuery,
    env_stack: &[(usize, usize)],
    observers: &[Observer],
    atom: &Atom,
    bound: &[&str],
) -> Option<bool> {
    if atom_is_join(atom) {
        return None;
    }
    let var = atom_root_var(atom);
    if bound.contains(&var) {
        return None; // rebound inside the expression
    }
    for &(sidx, obs) in env_stack.iter().rev() {
        if plan.scopes[sidx].var == var {
            let o = &observers[obs];
            for (k, spec) in plan.scopes[sidx].flags.iter().enumerate() {
                if spec.matches_atom(atom) {
                    return Some(o.flags[k].value);
                }
            }
            return None;
        }
    }
    None
}

/// Route one event through the observers at or above `base`. Flag and
/// recorder decisions compare interned ids only.
fn dispatch(
    plan: &CompiledQuery,
    observers: &mut [Observer],
    base: usize,
    ev: ResolvedEvent<'_>,
) -> usize {
    let mut grew = 0usize;
    for o in &mut observers[base..] {
        let spec = &plan.scopes[o.sidx];
        for (fspec, m) in spec.flags.iter().zip(&mut o.flags) {
            match ev {
                ResolvedEvent::Start(id, _) => m.on_start(fspec, id),
                ResolvedEvent::Text(t) => m.on_text(t),
                ResolvedEvent::End(..) => m.on_end(fspec),
            }
        }
        if let Some(rec) = &mut o.rec {
            grew += match ev {
                ResolvedEvent::Start(id, n) => rec.on_start(&spec.buffer_rt, id, n),
                ResolvedEvent::Text(t) => rec.on_text(&spec.buffer_rt, t),
                ResolvedEvent::End(..) => {
                    rec.on_end();
                    0
                }
            };
        }
    }
    grew
}

/// Build a node for a captured child from its label and remaining events
/// (which end with the child's end tag).
fn build_child_node(label: &str, events: &EventBuf) -> Node {
    let mut stack = vec![Node::new(label)];
    for ev in events.iter() {
        match ev {
            ResolvedEvent::Start(_, n) => stack.push(Node::new(n)),
            ResolvedEvent::Text(t) => stack.last_mut().expect("balanced events").push_text(t),
            ResolvedEvent::End(..) => {
                let done = stack.pop().expect("balanced events");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(flux_xml::Child::Elem(done)),
                    None => return done,
                }
            }
        }
    }
    stack.pop().expect("non-empty build stack")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_core::{interp_flux, parse_flux, rewrite_query, FluxExpr};
    use flux_dtd::Dtd;
    use flux_query::eval::eval_query;
    use flux_query::parse_xquery;

    /// Compile and run over an in-memory document (what the deprecated
    /// `run_streaming` shim used to do; the shim is gone, the prepared
    /// path is the only path).
    fn run_once(q: &FluxExpr, dtd: &Dtd, doc: &str) -> Result<RunOutcome, EngineError> {
        let compiled = CompiledQuery::compile(q, dtd)?;
        let mut out = Vec::new();
        let stats = compiled.run(doc.as_bytes(), &mut out)?;
        Ok(RunOutcome { output: String::from_utf8(out).expect("writer emits UTF-8"), stats })
    }

    const BIB_WEAK: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
    const BIB_STRONG: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";

    const WEAK_DOC: &str = "<bib><book><title>T1</title><author>A1</author><title>T1b</title>\
        <author>A2</author></book><book><author>B1</author></book></bib>";
    const STRONG_DOC: &str = "<bib>\
        <book><title>TCP</title><author>Stevens</author><author>Wright</author>\
          <publisher>AW</publisher><price>65</price></book>\
        <book><title>Web</title><editor>Abiteboul</editor><publisher>MK</publisher>\
          <price>39</price></book></bib>";

    /// Rewrite, run streamed, and check the result against the DOM
    /// evaluation of the original query (Theorem 4.3 + engine correctness).
    #[track_caller]
    fn check_equiv(query: &str, dtd_src: &str, doc_src: &str) -> RunStats {
        let dtd = Dtd::parse(dtd_src).unwrap();
        let q = parse_xquery(query).unwrap();
        let flux = rewrite_query(&q, &dtd).unwrap();
        let run = run_once(&flux, &dtd, doc_src)
            .unwrap_or_else(|e| panic!("engine failed on {query}: {e}\nplan: {flux}"));
        let doc = wrap_document(Node::parse_str(doc_src).unwrap());
        let expected = eval_query(&q, &doc).unwrap();
        assert_eq!(run.output, expected, "query: {query}\nplan: {flux}");
        // The tree-semantics interpreter must agree as well.
        let via_interp = interp_flux(&flux, &dtd, &doc).unwrap();
        assert_eq!(via_interp, expected, "interp disagrees on {query}");
        run.stats
    }

    #[test]
    fn intro_query_streams_with_strong_dtd() {
        let stats = check_equiv(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            BIB_STRONG,
            STRONG_DOC,
        );
        assert_eq!(stats.peak_buffer_bytes, 0, "fully streaming plan must not buffer");
        assert_eq!(stats.captures, 0);
    }

    #[test]
    fn intro_query_buffers_authors_with_weak_dtd() {
        let stats = check_equiv(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            BIB_WEAK,
            WEAK_DOC,
        );
        // Authors of one book at a time: strictly positive, but far below
        // the document size.
        assert!(stats.peak_buffer_bytes > 0);
        let doc_bytes = WEAK_DOC.len();
        assert!(
            stats.peak_buffer_bytes < doc_bytes / 2,
            "peak {} too large",
            stats.peak_buffer_bytes
        );
        assert_eq!(stats.final_buffer_bytes, 0, "all buffers released");
    }

    #[test]
    fn condition_flags_stream_without_buffers() {
        let dtd_src = "<!ELEMENT bib (book)*><!ELEMENT book (publisher,year,title)>\
            <!ELEMENT publisher (#PCDATA)><!ELEMENT year (#PCDATA)><!ELEMENT title (#PCDATA)>";
        let doc = "<bib><book><publisher>AW</publisher><year>1994</year><title>yes</title></book>\
             <book><publisher>AW</publisher><year>1990</year><title>no-year</title></book>\
             <book><publisher>MK</publisher><year>1999</year><title>no-pub</title></book></bib>";
        let stats = check_equiv(
            "<hits>{ for $b in $ROOT/bib/book where $b/publisher = \"AW\" and $b/year > 1991 \
               return <hit> {$b/title} </hit> }</hits>",
            dtd_src,
            doc,
        );
        assert_eq!(stats.peak_buffer_bytes, 0, "flags must not buffer");
    }

    #[test]
    fn whole_subtree_buffering_is_one_element_at_a_time() {
        // Q20-style: output whole elements failing a condition.
        let dtd_src = "<!ELEMENT people (person)*><!ELEMENT person (name,income?)>\
            <!ELEMENT name (#PCDATA)><!ELEMENT income (#PCDATA)>";
        let doc = "<people><person><name>poor</name></person>\
            <person><name>rich</name><income>9999999</income></person>\
            <person><name>alsopoor</name></person></people>";
        let stats = check_equiv(
            "{ for $p in $ROOT/people/person where empty($p/income) return {$p} }",
            dtd_src,
            doc,
        );
        assert!(stats.peak_buffer_bytes > 0);
        // Peak is a single person, not all persons.
        let rich = "<person><name>rich</name><income>9999999</income></person>";
        assert!(
            stats.peak_buffer_bytes <= rich.len() + 16,
            "peak {} should be one person at a time",
            stats.peak_buffer_bytes
        );
    }

    #[test]
    fn join_query_example_4_6() {
        let dtd_src = "<!ELEMENT bib (book*,article*)>\
            <!ELEMENT book (title,(author+|editor+),publisher)>\
            <!ELEMENT article (title,author+,journal)>\
            <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
            <!ELEMENT publisher (#PCDATA)><!ELEMENT journal (#PCDATA)>";
        let doc = "<bib>\
            <book><title>B1</title><editor>smith</editor><publisher>P</publisher></book>\
            <book><title>B2</title><author>jones</author><publisher>P</publisher></book>\
            <article><title>A1</title><author>smith</author><author>lee</author><journal>J</journal></article>\
            <article><title>A2</title><author>kim</author><journal>J</journal></article></bib>";
        let stats = check_equiv(
            "<results>{ for $bib in $ROOT/bib return \
               { for $article in $bib/article return \
                 { for $book in $bib/book where $article/author = $book/editor return \
                   <result> {$article/author} </result> } } }</results>",
            dtd_src,
            doc,
        );
        assert!(stats.peak_buffer_bytes > 0, "joins must buffer");
    }

    #[test]
    fn two_loops_over_the_same_streamed_path() {
        // β1 streams titles via an on-handler while β2 buffers them — the
        // tee/capture path.
        let stats = check_equiv(
            "{ for $b in $ROOT/bib/book return <one>{$b/title}</one><two>{$b/title}</two> }",
            BIB_WEAK,
            WEAK_DOC,
        );
        assert!(stats.peak_buffer_bytes > 0, "second pass needs the titles buffered");
    }

    #[test]
    fn strings_and_conditionals_only() {
        let stats = check_equiv(
            "<count>{ for $b in $ROOT/bib/book return <book-seen/> }</count>",
            BIB_WEAK,
            WEAK_DOC,
        );
        assert_eq!(stats.peak_buffer_bytes, 0);
    }

    #[test]
    fn nested_structure_queries() {
        check_equiv(
            "{ for $b in $ROOT/bib/book return { for $t in $b/title return { for $a in $b/author return <r>{$t}{$a}</r> } } }",
            BIB_WEAK,
            WEAK_DOC,
        );
        check_equiv(
            "{ for $b in $ROOT/bib/book return { for $t in $b/title return { for $a in $b/author return <r>{$t}{$a}</r> } } }",
            BIB_STRONG,
            STRONG_DOC,
        );
    }

    #[test]
    fn empty_document_and_empty_results() {
        check_equiv(
            "<results>{ for $b in $ROOT/bib/book return <r/> }</results>",
            BIB_WEAK,
            "<bib></bib>",
        );
        check_equiv(
            "<results>{ for $b in $ROOT/bib/book where $b/title = \"nope\" return <r/> }</results>",
            BIB_WEAK,
            WEAK_DOC,
        );
    }

    #[test]
    fn output_path_queries() {
        check_equiv("<all>{ $ROOT/bib/book/author }</all>", BIB_WEAK, WEAK_DOC);
        check_equiv("<all>{ $ROOT/bib/book }</all>", BIB_WEAK, WEAK_DOC);
    }

    #[test]
    fn invalid_document_rejected() {
        let dtd = Dtd::parse(BIB_STRONG).unwrap();
        let q = parse_xquery("<r>{ for $b in $ROOT/bib/book return {$b/title} }</r>").unwrap();
        let flux = rewrite_query(&q, &dtd).unwrap();
        // Wrong child order for the strong DTD:
        let bad = "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>1</price></book></bib>";
        let err = run_once(&flux, &dtd, bad).unwrap_err();
        assert!(matches!(err, EngineError::Validation { .. }), "{err}");
    }

    #[test]
    fn malformed_xml_rejected() {
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let q = parse_xquery("<r>{ for $b in $ROOT/bib/book return <x/> }</r>").unwrap();
        let flux = rewrite_query(&q, &dtd).unwrap();
        let err = run_once(&flux, &dtd, "<bib><book></bib>").unwrap_err();
        assert!(matches!(err, EngineError::Xml(_)), "{err}");
    }

    #[test]
    fn handwritten_flux_with_pre_post_strings() {
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let flux = parse_flux(
            "<results> { ps $ROOT: on bib as $bib return \
               { ps $bib: on book as $b return <b/> } } </results>",
        )
        .unwrap();
        let run = run_once(&flux, &dtd, WEAK_DOC).unwrap();
        assert_eq!(run.output, "<results><b/><b/></results>");
    }

    #[test]
    fn on_first_before_on_at_same_step() {
        // ζ = [on-first past(book); on book]: both fire on the single book;
        // ζ order puts the on-first output before the book copy.
        let dtd = Dtd::parse("<!ELEMENT bib (book)><!ELEMENT book (#PCDATA)>").unwrap();
        let flux = parse_flux(
            "{ ps $ROOT: on bib as $b return \
               { ps $b: on-first past(book) return <flush/>; on book as $k return {$k} } }",
        )
        .unwrap();
        let run = run_once(&flux, &dtd, "<bib><book>x</book></bib>").unwrap();
        assert_eq!(run.output, "<flush/><book>x</book>");
        // And the converse order:
        let flux2 = parse_flux(
            "{ ps $ROOT: on bib as $b return \
               { ps $b: on book as $k return {$k}; on-first past(book) return <flush/> } }",
        )
        .unwrap();
        let run2 = run_once(&flux2, &dtd, "<bib><book>x</book></bib>").unwrap();
        assert_eq!(run2.output, "<book>x</book><flush/>");
    }

    #[test]
    fn stats_are_populated() {
        let stats = check_equiv(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            BIB_STRONG,
            STRONG_DOC,
        );
        assert!(stats.events > 10);
        assert!(stats.output_bytes > 10);
        assert!(stats.on_firings >= 4, "title/author handlers fired: {stats:?}");
        assert!(stats.on_first_firings >= 2);
    }

    #[test]
    fn simple_plan_peak_matches_wrapped_document() {
        // A hand-written plan with no process-stream takes the Top::Simple
        // path; its peak must equal the wrapped document's buffered bytes
        // (the `#document` node included, as the seed reported).
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let flux = parse_flux("{ $ROOT/bib/book/title }").unwrap();
        let compiled = CompiledQuery::compile(&flux, &dtd).unwrap();
        let mut out = Vec::new();
        let stats = compiled.run(WEAK_DOC.as_bytes(), &mut out).unwrap();
        let doc = wrap_document(Node::parse_str(WEAK_DOC).unwrap());
        assert_eq!(stats.peak_buffer_bytes, doc.buffered_bytes());
        assert!(!out.is_empty());
    }

    #[test]
    fn simple_plan_respects_the_buffer_limit_while_materializing() {
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let flux = parse_flux("{ $ROOT/bib }").unwrap();
        let compiled = CompiledQuery::compile_with(
            &flux,
            std::sync::Arc::new(dtd),
            crate::compile::EngineOptions { max_buffer_bytes: Some(32), ..Default::default() },
        )
        .unwrap();
        let err = compiled.run(WEAK_DOC.as_bytes(), Vec::new()).unwrap_err();
        assert!(matches!(err, EngineError::BufferLimit { limit: 32, .. }), "{err}");
    }

    #[test]
    fn degenerate_whole_document_query() {
        // {$ROOT}-style queries have no process-stream: the engine
        // materializes (and says so in the stats).
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let q = parse_xquery("{ $ROOT/bib }").unwrap();
        let flux = rewrite_query(&q, &dtd).unwrap();
        let run = run_once(&flux, &dtd, WEAK_DOC).unwrap();
        let doc = wrap_document(Node::parse_str(WEAK_DOC).unwrap());
        assert_eq!(run.output, eval_query(&q, &doc).unwrap());
    }

    #[test]
    fn condition_descending_into_the_fired_child() {
        // Regression: the flag for $ROOT/lib/meta can still change *inside*
        // the single <meta> child the on-handler fires on; the engine must
        // consume the child (finalizing the flag) before deciding.
        let dtd_src = "<!ELEMENT lib (shelf*,meta?)><!ELEMENT shelf (#PCDATA)>\
            <!ELEMENT meta (owner,year)><!ELEMENT owner (#PCDATA)><!ELEMENT year (#PCDATA)>";
        let doc = "<lib><shelf>s</shelf><meta><owner>1999</owner><year>42</year></meta></lib>";
        let stats =
            check_equiv("{ if $ROOT/lib/meta >= 1841 then {$ROOT/lib/meta} }", dtd_src, doc);
        assert!(stats.captures > 0, "the meta child must take the capture path");
        // And the negative case stays negative:
        check_equiv("{ if $ROOT/lib/meta >= 999999999 then {$ROOT/lib/meta} }", dtd_src, doc);
    }

    #[test]
    fn scaled_join_condition() {
        let dtd_src = "<!ELEMENT r (a*,b*)><!ELEMENT a (v)><!ELEMENT b (w)>\
            <!ELEMENT v (#PCDATA)><!ELEMENT w (#PCDATA)>";
        let doc = "<r><a><v>100</v></a><a><v>10</v></a><b><w>30</w></b></r>";
        check_equiv(
            "{ for $a in $ROOT/r/a return { for $b in $ROOT/r/b where $a/v > (3 * $b/w) return <hit>{$a/v}</hit> } }",
            dtd_src,
            doc,
        );
    }

    #[test]
    fn pump_driven_by_hand_matches_one_shot() {
        // Drive the sans-IO machine event by event from an incremental
        // reader and compare with the blocking one-shot run.
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let q = parse_xquery(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
        )
        .unwrap();
        let flux = rewrite_query(&q, &dtd).unwrap();
        let plan = Arc::new(CompiledQuery::compile(&flux, &dtd).unwrap());

        let mut reference = Vec::new();
        let ref_stats = plan.run(WEAK_DOC.as_bytes(), &mut reference).unwrap();

        let mut pump = plan.pump(Vec::new());
        let mut reader =
            Reader::incremental_with_symbols(plan.options().reader, Arc::clone(plan.symbols()));
        for chunk in WEAK_DOC.as_bytes().chunks(3) {
            reader.feed(chunk);
            loop {
                match reader.poll_resolved().unwrap() {
                    flux_xml::Polled::Event(ev) => pump.feed_event(ev).unwrap(),
                    flux_xml::Polled::NeedMoreData => break,
                    flux_xml::Polled::End => break,
                }
            }
        }
        reader.close();
        loop {
            match reader.poll_resolved().unwrap() {
                flux_xml::Polled::Event(ev) => pump.feed_event(ev).unwrap(),
                flux_xml::Polled::NeedMoreData => unreachable!("closed"),
                flux_xml::Polled::End => break,
            }
        }
        let (res, sink) = pump.finish();
        assert_eq!(sink, reference);
        assert_eq!(res.unwrap(), ref_stats);
    }

    #[test]
    fn pump_is_poisoned_after_an_error() {
        let dtd = Dtd::parse(BIB_STRONG).unwrap();
        let q = parse_xquery("<r>{ for $b in $ROOT/bib/book return {$b/title} }</r>").unwrap();
        let flux = rewrite_query(&q, &dtd).unwrap();
        let plan = Arc::new(CompiledQuery::compile(&flux, &dtd).unwrap());
        let mut pump = plan.pump(Vec::new());
        let syms = Arc::clone(plan.symbols());
        // <bib><zzz> — unknown element at a validated position.
        pump.feed_event(ResolvedEvent::Start(syms.resolve("bib"), "bib")).unwrap();
        let err = pump.feed_event(ResolvedEvent::Start(NameId::UNKNOWN, "zzz")).unwrap_err();
        assert!(matches!(err, EngineError::Validation { .. }), "{err}");
        // Poisoned from here on.
        assert!(pump.feed_event(ResolvedEvent::End(NameId::UNKNOWN, "zzz")).is_err());
        let (res, _sink) = pump.finish();
        assert!(res.is_err());
    }
}
