//! Shared single-pass multi-query fan-out: one event stream drives M
//! subscriptions.
//!
//! N prepared queries over one document used to cost N full runs — N
//! tokenizations of the same bytes and N walks of the same event stream.
//! The production shape of a subscription service is the opposite: *one*
//! parse fans out to every registered query, and a query two clients
//! subscribed to is evaluated *once*. This module is that engine seam:
//!
//! * [`FanoutPlan`] — the compile-time artifact. It unifies the
//!   subscriptions' symbol tables into one *union* vocabulary over the
//!   shared DTD (ids the DTD assigned are preserved, so every dense
//!   Glushkov transition table stays valid), recompiles any plan whose
//!   table disagrees ([`CompiledQuery::compile_with_symbols`]), and
//!   partitions the subscriptions into *plan classes*
//!   ([`FanoutPlan::classes`]): subscriptions with the same compiled plan
//!   (the same `Arc`, or structurally equal [`FluxExpr`]s) are one class.
//! * [`FanoutDriver`] — the run-time fan-out. One resumable [`Pump`] **per
//!   class** advances in lockstep with the others over a single
//!   resolved-event stream; a class has one validation state, one set of
//!   buffers and one [`BudgetHook`] charge however many subscribers it
//!   serves, and its output is tee'd to every member's own sink. A
//!   single-member class writes straight through to its sink; a
//!   multi-member class stages output in a bounded buffer (4 KiB) and
//!   copies it to each member once per drained batch, so no stage is ever
//!   non-empty when a public call returns. The
//!   driver exploits [`Pump::stream_interest`]: a pump that is skipping
//!   an unhandled subtree with no observers is *parked* — removed from the
//!   hot feed list and woken (with its event counter reconciled via
//!   [`Pump::fast_forward_skip`]) exactly at the end tag that closes the
//!   skipped subtree. On selective queries most classes are parked
//!   through most of the document, so the marginal cost of a class
//!   approaches an integer compare per *element close at its wake depth*
//!   instead of per event — and the marginal cost of one more subscriber
//!   to an existing class is a copy of its output.
//!
//! The per-subscriber surface is unchanged by the sharing. A member whose
//! *sink* errors is failed alone, with the error an independent run
//! reports, while its class streams on; an engine error (validation,
//! buffer limit, budget denial) is a property of the plan over this input,
//! so it fails every member of the class with that same error — and no
//! other class. A subscriber aborted mid-stream
//! ([`FanoutDriver::abort_sub`]) hands back its sink immediately. A
//! class's pump — buffers and budget charge with it — is dropped the
//! moment its *last* member has failed or been aborted; failures and sinks
//! are surfaced at [`FanoutDriver::finish`]. The stream itself is never
//! blocked by one subscriber: stall semantics are a *stream-level*
//! decision made by the session layer above (see `SharedSession` in the
//! facade), pinned there by tests.
//!
//! Output equivalence is exact, not approximate: for every subscriber, the
//! bytes written to its sink and its final [`RunStats`] are identical to an
//! independent run of the same prepared query over the same document. The
//! facade's `tests/fanout_equivalence.rs` pins this for every paper-query
//! subset, with and without duplicates, at several chunk sizes.

use std::io;
use std::sync::Arc;

use flux_core::FluxExpr;
use flux_dtd::Dtd;
use flux_xml::{EventTape, InPlace, ResolvedEvent, Sink, Symbols, TapeKind};

use crate::budget::BudgetHook;
use crate::compile::{CompiledQuery, EngineError, EngineOptions};
use crate::exec::{io_err, Pump, StreamInterest};
use crate::stats::RunStats;

/// One subscription handed to [`FanoutPlan::compile`]: the scheduled FluX
/// plan (needed in case the compiled form must be re-derived over the
/// union symbol table, and to recognise subscriptions with an equal plan)
/// plus its existing compilation.
#[derive(Clone)]
pub struct FanoutQuery {
    /// The scheduled FluX plan.
    pub plan: Arc<FluxExpr>,
    /// The plan compiled on its own (per-query) symbol table.
    pub compiled: Arc<CompiledQuery>,
}

/// The compiled fan-out artifact: M subscriptions over one union symbol
/// table, partitioned into plan classes. See the [module docs](self).
pub struct FanoutPlan {
    dtd: Arc<Dtd>,
    symbols: Arc<Symbols>,
    opts: EngineOptions,
    queries: Vec<Arc<CompiledQuery>>,
    classes: Vec<Vec<u32>>,
    reused: usize,
}

fn symbols_equal(a: &Symbols, b: &Symbols) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

impl FanoutPlan {
    /// Compile a set of subscriptions into one shared plan.
    ///
    /// All subscriptions must share one DTD (the same `Arc`, as queries
    /// prepared by one `Engine` do) and identical [`EngineOptions`] — the
    /// tokenization they will share is configured by those options. The
    /// set must be non-empty. Subscriptions whose symbol table already
    /// equals the union are reused as-is (the common case when every query
    /// mentions the same vocabulary); the rest are recompiled against the
    /// union, preserving every DTD-assigned id.
    pub fn compile(subs: &[FanoutQuery]) -> Result<FanoutPlan, EngineError> {
        let first = subs.first().ok_or_else(|| {
            EngineError::Unsupported("fan-out over an empty subscription set".into())
        })?;
        let dtd = first.compiled.dtd_arc();
        let opts = first.compiled.options();
        for s in subs {
            if !Arc::ptr_eq(&s.compiled.dtd_arc(), &dtd) {
                return Err(EngineError::Unsupported(
                    "fan-out subscriptions must share one DTD instance".into(),
                ));
            }
            if s.compiled.options() != opts {
                return Err(EngineError::Unsupported(
                    "fan-out subscriptions must share identical engine options".into(),
                ));
            }
        }
        // The union vocabulary: the DTD's table (ids preserved) extended
        // with every subscription's names, in subscription order — so the
        // result is deterministic for a given subscription sequence.
        let mut union = (**dtd.symbols()).clone();
        for s in subs {
            for (_, name) in s.compiled.symbols().iter() {
                union.intern(name);
            }
        }
        let union = Arc::new(union);
        let mut queries = Vec::with_capacity(subs.len());
        let mut reused = 0;
        for s in subs {
            if symbols_equal(s.compiled.symbols(), &union) {
                reused += 1;
                queries.push(Arc::clone(&s.compiled));
            } else {
                let c = CompiledQuery::compile_with_symbols(
                    &s.plan,
                    Arc::clone(&dtd),
                    opts,
                    (*union).clone(),
                )?;
                debug_assert!(
                    symbols_equal(c.symbols(), &union),
                    "recompilation over the union table introduces no new names"
                );
                queries.push(Arc::new(c));
            }
        }
        // Plan classes, in order of first member. DTD, options and symbol
        // table are common to the whole set by now, so the compiled form
        // is a function of the FluX plan alone: equal plans are the proof
        // (the `Arc` identity is the shortcut for one prepared query
        // subscribed to twice), never a fingerprint.
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for (i, s) in subs.iter().enumerate() {
            let same_plan = |class: &&mut Vec<u32>| {
                let r = &subs[class[0] as usize];
                Arc::ptr_eq(&s.compiled, &r.compiled) || s.plan == r.plan
            };
            match classes.iter_mut().find(same_plan) {
                Some(class) => class.push(i as u32),
                None => classes.push(vec![i as u32]),
            }
        }
        Ok(FanoutPlan { dtd, symbols: union, opts, queries, classes, reused })
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the set empty? (Never true for a compiled plan.)
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The shared DTD.
    pub fn dtd_arc(&self) -> Arc<Dtd> {
        Arc::clone(&self.dtd)
    }

    /// The union symbol table every subscription's ids agree with — hand
    /// this to the one reader that tokenizes the shared stream.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// The shared engine options.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// The per-subscription compiled plans (all over the union table).
    pub fn queries(&self) -> &[Arc<CompiledQuery>] {
        &self.queries
    }

    /// The plan classes: one entry per distinct plan, in order of first
    /// member, each listing its member subscriptions in ascending order. A
    /// [`FanoutDriver`] runs one pump per entry, so `classes().len()` is
    /// the number of pumps `len()` subscriptions cost.
    pub fn classes(&self) -> &[Vec<u32>] {
        &self.classes
    }

    /// How many subscriptions were shared as-is (no recompilation).
    pub fn reused_plans(&self) -> usize {
        self.reused
    }

    /// Structural fingerprint of the whole fan-out plan, folding every
    /// subscription's [`CompiledQuery::state_fingerprint`] in order over the
    /// union symbol table. A snapshot taken from one plan only restores into
    /// a plan with the same fingerprint — same queries, same order, same
    /// vocabulary (scanner backend excluded, so snapshots migrate across
    /// hosts with different SIMD tiers).
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = flux_state::Fnv64::new();
        h.write_u64(self.symbols.fingerprint());
        h.write_u64(self.queries.len() as u64);
        for q in &self.queries {
            h.write_u64(q.state_fingerprint());
        }
        h.finish()
    }
}

/// Most output a multi-member class holds back before copying it to its
/// members. Every public [`FanoutDriver`] call drains the stages it
/// filled, so this bounds the memory of a class's tee, not its latency.
const STAGE_BYTES: usize = 4096;

/// One subscriber's end of a class's [`Tee`]. Live while `sink` is there
/// and `error` is not; failed with both; detached with neither.
struct Member<S> {
    /// The subscription's index in the plan.
    sub: u32,
    sink: Option<S>,
    error: Option<EngineError>,
}

impl<S> Member<S> {
    fn is_live(&self) -> bool {
        self.sink.is_some() && self.error.is_none()
    }
}

/// The sink of a class's pump: fans the pump's output out to the member
/// sinks. See the [module docs](self).
struct Tee<S> {
    members: Vec<Member<S>>,
    /// Members neither failed nor detached.
    live: usize,
    /// Output not yet copied to the members (multi-member classes only;
    /// allocated at the first write, never beyond [`STAGE_BYTES`]).
    stage: Vec<u8>,
}

impl<S: Sink> Tee<S> {
    /// A tee over `members` (none: a placeholder) with no sink attached yet.
    fn detached(members: &[u32]) -> Tee<S> {
        let members = members.iter().map(|&sub| Member { sub, sink: None, error: None }).collect();
        Tee { members, live: 0, stage: Vec::new() }
    }

    fn attach(&mut self, pos: u32, sink: S, error: Option<EngineError>) {
        self.live += usize::from(error.is_none());
        let m = &mut self.members[pos as usize];
        m.sink = Some(sink);
        m.error = error;
    }

    /// Take member `pos`'s sink out (`None` if already taken).
    fn detach(&mut self, pos: u32) -> Option<S> {
        let m = &mut self.members[pos as usize];
        let sink = m.sink.take()?;
        if m.error.take().is_none() {
            self.live -= 1;
        }
        Some(sink)
    }

    /// Apply `op` to every live member's sink; a sink that errors fails its
    /// member — alone, with the error an independent run reports.
    fn each_live(&mut self, mut op: impl FnMut(&mut S) -> io::Result<()>) {
        for m in &mut self.members {
            if let (Some(sink), None) = (&mut m.sink, &m.error) {
                if let Err(e) = op(sink) {
                    m.error = Some(io_err(e));
                    self.live -= 1;
                }
            }
        }
    }

    /// Copy the staged output to every live member.
    fn flush_stage(&mut self) {
        if !self.stage.is_empty() {
            let stage = std::mem::take(&mut self.stage);
            self.each_live(|sink| sink.write_bytes(&stage));
            self.stage = stage;
            self.stage.clear();
        }
    }

    /// Fail every live member with the class's engine error.
    fn fail_live(&mut self, error: &EngineError) {
        for m in self.members.iter_mut().filter(|m| m.is_live()) {
            m.error = Some(error.clone());
        }
        self.live = 0;
    }
}

impl<S: Sink> Sink for Tee<S> {
    #[inline]
    fn write_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let [only] = &mut self.members[..] {
            // A lone subscriber's sink errors are its pump's errors, as in
            // an independent run.
            return match &mut only.sink {
                Some(sink) => sink.write_bytes(bytes),
                None => Ok(()),
            };
        }
        if self.stage.len() + bytes.len() > STAGE_BYTES {
            self.flush_stage();
            if bytes.len() > STAGE_BYTES {
                self.each_live(|sink| sink.write_bytes(bytes));
                return Ok(());
            }
        }
        if self.stage.capacity() == 0 {
            self.stage.reserve_exact(STAGE_BYTES);
        }
        self.stage.extend_from_slice(bytes);
        Ok(())
    }

    fn flush_sink(&mut self) -> io::Result<()> {
        if let [only] = &mut self.members[..] {
            return only.sink.as_mut().map_or(Ok(()), Sink::flush_sink);
        }
        self.flush_stage();
        self.each_live(Sink::flush_sink);
        Ok(())
    }
}

/// One plan class at run time. (`Live` is the normal state and the large
/// variant; boxing the pump would put a pointer chase on the per-event path.)
#[allow(clippy::large_enum_variant)]
enum Class<S: Sink> {
    /// At least one member is live: the class's pump runs, writing to the
    /// tee. `parked_at` is the driver's event counter when the pump was
    /// parked ([`StreamInterest::SkipSubtree`]; the park event itself
    /// already counted by the pump), `None` while it is in the feed list.
    Live { pump: Pump<Tee<S>>, parked_at: Option<u64> },
    /// Every member has failed or been aborted: the pump, its buffers and
    /// its budget charge are gone; failed members' sinks wait in the tee
    /// for [`FanoutDriver::finish`].
    Retired(Tee<S>),
}

impl<S: Sink> Class<S> {
    fn tee(&self) -> &Tee<S> {
        match self {
            Class::Live { pump, .. } => pump.sink(),
            Class::Retired(tee) => tee,
        }
    }

    fn tee_mut(&mut self) -> &mut Tee<S> {
        match self {
            Class::Live { pump, .. } => pump.sink_mut(),
            Class::Retired(tee) => tee,
        }
    }

    /// The member sinks of a class that is being torn down (no stage is
    /// ever non-empty between the driver's public calls).
    fn into_tee(self) -> Tee<S> {
        match self {
            Class::Live { pump, .. } => pump.abort(),
            Class::Retired(tee) => tee,
        }
    }

    /// Drop the pump — releasing its buffers and its budget charge — and
    /// keep the tee. Output staged before the failure still reaches the
    /// members; then `error`, the pump's own, fails whoever is still live.
    fn retire(&mut self, error: Option<&EngineError>) {
        if let Class::Live { pump, .. } =
            std::mem::replace(self, Class::Retired(Tee::detached(&[])))
        {
            let mut tee = pump.abort();
            tee.flush_stage();
            if let Some(e) = error {
                tee.fail_live(e);
            }
            *self = Class::Retired(tee);
        }
    }
}

/// Per-subscriber teardown of [`FanoutDriver::abort_all`].
pub enum SubTeardown<S> {
    /// Previously removed via [`FanoutDriver::abort_sub`]; nothing left.
    Detached,
    /// Failed mid-stream (before the teardown) on its class's engine error
    /// or its own sink's.
    Failed(EngineError, S),
    /// Healthy until the stream-level teardown; the sink holds exactly the
    /// output written so far, with no end-of-input epilogue.
    Aborted(S),
}

/// The run-time fan-out: one pump per plan class over one resolved-event
/// stream, M sinks. See the [module docs](self).
pub struct FanoutDriver<S: Sink> {
    classes: Vec<Class<S>>,
    /// Subscription → (class, position among the class's members).
    slots: Vec<(u32, u32)>,
    /// Classes currently fed (order is irrelevant — pumps are independent).
    active: Vec<u32>,
    /// Parked classes by wake depth: `wake[d]` holds everyone to revive at
    /// the end tag that brings the open-element count back to `d`.
    wake: Vec<Vec<u32>>,
    /// The multi-member classes — the ones with an output stage to drain.
    staged: Vec<u32>,
    /// Open elements in the shared stream.
    depth: u32,
    /// Events fed to the driver so far — equals every non-parked pump's
    /// event counter (parked pumps are reconciled on wake).
    events: u64,
}

fn slots_of(plan: &FanoutPlan) -> Vec<(u32, u32)> {
    let mut slots = vec![(0, 0); plan.len()];
    for (c, members) in plan.classes.iter().enumerate() {
        for (pos, &sub) in members.iter().enumerate() {
            slots[sub as usize] = (c as u32, pos as u32);
        }
    }
    slots
}

fn staged_of(plan: &FanoutPlan) -> Vec<u32> {
    (0..plan.classes.len() as u32).filter(|&c| plan.classes[c as usize].len() > 1).collect()
}

impl<S: Sink> FanoutDriver<S> {
    /// A driver with one sink per subscription (same order as the plan).
    pub fn new(plan: &FanoutPlan, sinks: Vec<S>) -> FanoutDriver<S> {
        Self::build(plan, sinks, None)
    }

    /// A driver whose classes all charge the shared [`BudgetHook`]. A class
    /// charges its buffers **once**, however many subscribers it serves,
    /// and releases them when its last member finishes, fails or is
    /// aborted — aborting one of several members of a class returns
    /// nothing to the pool.
    pub fn with_budget(
        plan: &FanoutPlan,
        sinks: Vec<S>,
        hook: Arc<dyn BudgetHook>,
    ) -> FanoutDriver<S> {
        Self::build(plan, sinks, Some(hook))
    }

    fn build(plan: &FanoutPlan, sinks: Vec<S>, hook: Option<Arc<dyn BudgetHook>>) -> Self {
        assert_eq!(sinks.len(), plan.len(), "one sink per subscription");
        let slots = slots_of(plan);
        let mut tees: Vec<Tee<S>> = plan.classes.iter().map(|m| Tee::detached(m)).collect();
        for (sink, &(c, pos)) in sinks.into_iter().zip(&slots) {
            tees[c as usize].attach(pos, sink, None);
        }
        let classes: Vec<Class<S>> = tees
            .into_iter()
            .zip(&plan.classes)
            .map(|(tee, members)| {
                let q = Arc::clone(&plan.queries[members[0] as usize]);
                let pump = match &hook {
                    Some(h) => Pump::with_budget(q, tee, Arc::clone(h)),
                    None => Pump::new(q, tee),
                };
                Class::Live { pump, parked_at: None }
            })
            .collect();
        let active = (0..classes.len() as u32).collect();
        let staged = staged_of(plan);
        FanoutDriver { classes, slots, active, wake: Vec::new(), staged, depth: 0, events: 0 }
    }

    /// Advance every live subscription by one shared stream event.
    ///
    /// Infallible at the stream level: a class whose pump errors is retired
    /// (the error surfaces per member at [`FanoutDriver::finish`]) and the
    /// rest stream on.
    pub fn feed_event(&mut self, ev: ResolvedEvent<'_>) {
        self.dispatch(ev);
        self.drain_stages();
    }

    fn dispatch(&mut self, ev: ResolvedEvent<'_>) {
        self.events += 1;
        match ev {
            ResolvedEvent::End(..) => {
                // The element closing here sits at depth `new_depth + 1`;
                // everyone parked to wake at `new_depth` gets this tag.
                let new_depth = self.depth.saturating_sub(1);
                self.wake_at(new_depth);
                self.depth = new_depth;
                self.feed_active(ev);
            }
            ResolvedEvent::Start(..) => {
                self.feed_active(ev);
                self.depth += 1;
                self.park_indifferent();
            }
            ResolvedEvent::Text(_) => self.feed_active(ev),
        }
    }

    /// Advance every live subscription by one drained tape batch (the
    /// batched sibling of [`FanoutDriver::feed_event`]; identical dispatch,
    /// identical counters; multi-member classes copy their output to the
    /// members once, at the end of the batch). Returns the number of events
    /// the driver *scanned* instead of dispatching: while every class is
    /// parked (or retired), only an end tag closing at a populated wake
    /// depth matters, so the driver walks the recorded kinds directly — the
    /// fan-out analogue of the single-pump in-tape skip scan.
    pub fn feed_tape(&mut self, reader: &InPlace<'_>, tape: &EventTape) -> u64 {
        let mut scanned = 0u64;
        let mut i = 0;
        while i < tape.len() {
            if self.active.is_empty() {
                while i < tape.len() {
                    match tape.kind(i) {
                        TapeKind::Start => self.depth += 1,
                        TapeKind::Text => {}
                        TapeKind::End => {
                            let new_depth = self.depth.saturating_sub(1);
                            if self.wake.get(new_depth as usize).is_some_and(|b| !b.is_empty()) {
                                // Someone wakes on this close: feed it
                                // through the full path below.
                                break;
                            }
                            self.depth = new_depth;
                        }
                    }
                    // Same counter discipline as `feed_event`: every event,
                    // dispatched or withheld, counts once (parked pumps
                    // reconcile against it on wake).
                    self.events += 1;
                    scanned += 1;
                    i += 1;
                }
                if i >= tape.len() {
                    break;
                }
            }
            self.dispatch(reader.tape_event(tape, i));
            i += 1;
        }
        self.drain_stages();
        scanned
    }

    /// Copy every multi-member class's staged output to its members, and
    /// retire a class whose last live member's sink just failed. Ends every
    /// public call that feeds pumps, so between calls no stage holds
    /// anything: sinks handed back, snapshots and teardowns see it all.
    fn drain_stages(&mut self) {
        for k in 0..self.staged.len() {
            let c = self.staged[k];
            if let Class::Live { pump, .. } = &mut self.classes[c as usize] {
                pump.sink_mut().flush_stage();
                self.retire_if_deserted(c);
            }
        }
    }

    /// Retire class `c` if its last live member is gone (aborted, or failed
    /// on its sink): nobody is left to read what its pump would produce.
    fn retire_if_deserted(&mut self, c: u32) {
        let class = &mut self.classes[c as usize];
        if let Class::Live { pump, parked_at } = class {
            if pump.sink().live == 0 {
                // A parked class may sit in a wake bucket; the stale entry
                // is skipped lazily on wake (the class is no longer live).
                if parked_at.is_none() {
                    self.active.retain(|&a| a != c);
                }
                class.retire(None);
            }
        }
    }

    /// Revive every class parked at `wake_depth`, reconciling its pump's
    /// event counter for the events withheld while it was parked. Must run
    /// *before* the end tag is fed: the woken pump consumes that tag
    /// normally, popping its skip state and firing the enclosing scope's
    /// pending handlers exactly as an unwithheld run would.
    fn wake_at(&mut self, wake_depth: u32) {
        let Some(bucket) = self.wake.get_mut(wake_depth as usize) else { return };
        if bucket.is_empty() {
            return;
        }
        let mut woken = std::mem::take(bucket);
        for &c in &woken {
            // Entries for since-retired classes are stale; skip them.
            if let Class::Live { pump, parked_at } = &mut self.classes[c as usize] {
                if let Some(at) = parked_at.take() {
                    // Everything after the park event, excluding the end
                    // tag about to be fed (already counted in self.events).
                    pump.fast_forward_skip(self.events - 1 - at);
                    self.active.push(c);
                }
            }
        }
        woken.clear();
        self.wake[wake_depth as usize] = woken; // keep the allocation
    }

    fn feed_active(&mut self, ev: ResolvedEvent<'_>) {
        let mut j = 0;
        while j < self.active.len() {
            let class = &mut self.classes[self.active[j] as usize];
            let Class::Live { pump, .. } = class else { unreachable!("fed classes are live") };
            match pump.feed_event(ev) {
                Ok(()) => j += 1,
                Err(e) => {
                    // Isolate the failure: this class is done (the cause
                    // surfaces at finish), every other one streams on.
                    class.retire(Some(&e));
                    self.active.swap_remove(j);
                }
            }
        }
    }

    /// Park every active class whose pump just became indifferent. Only a
    /// start tag can put a pump into the skip state, so this runs after
    /// start events only; `self.depth` already counts the element just
    /// opened.
    fn park_indifferent(&mut self) {
        let mut j = 0;
        while j < self.active.len() {
            let c = self.active[j];
            let Class::Live { pump, parked_at } = &mut self.classes[c as usize] else {
                unreachable!("fed classes are live")
            };
            match pump.stream_interest() {
                StreamInterest::All => j += 1,
                StreamInterest::SkipSubtree { depth } => {
                    // A skip deeper than the open elements only comes out of
                    // a damaged snapshot; such a pump is simply never parked.
                    let Some(wake_depth) = self.depth.checked_sub(depth) else {
                        j += 1;
                        continue;
                    };
                    if self.wake.len() <= wake_depth as usize {
                        self.wake.resize_with(wake_depth as usize + 1, Vec::new);
                    }
                    self.wake[wake_depth as usize].push(c);
                    *parked_at = Some(self.events);
                    self.active.swap_remove(j);
                }
            }
        }
    }

    fn member(&self, i: usize) -> &Member<S> {
        let (c, pos) = self.slots[i];
        &self.classes[c as usize].tee().members[pos as usize]
    }

    fn pumps(&self) -> impl Iterator<Item = &Pump<Tee<S>>> {
        self.classes.iter().filter_map(|c| match c {
            Class::Live { pump, .. } => Some(pump),
            Class::Retired(_) => None,
        })
    }

    /// Number of subscriptions (in any state).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the driver empty? (Never true: plans are non-empty.)
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events fed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Subscribers whose class is currently fed every event (not parked,
    /// failed or detached).
    pub fn active_subscribers(&self) -> usize {
        self.active.iter().map(|&c| self.classes[c as usize].tee().live).sum()
    }

    /// Subscribers still live (their class active or parked).
    pub fn live_subscribers(&self) -> usize {
        self.pumps().map(|p| p.sink().live).sum()
    }

    /// Bytes currently held across all live classes' buffers and captures
    /// (a class's bytes count once, however many subscribers share them).
    pub fn buffered_bytes(&self) -> usize {
        self.pumps().map(Pump::buffered_bytes).sum()
    }

    /// Aggregate bytes currently charged to the shared budget hook — one
    /// charge per live class.
    pub fn budget_charged(&self) -> usize {
        self.pumps().map(Pump::budget_charged).sum()
    }

    /// Has subscriber `i` failed (its class's engine error, or its own
    /// sink's)?
    pub fn is_failed(&self, i: usize) -> bool {
        self.member(i).error.is_some()
    }

    /// Abort one subscriber mid-stream, recovering its sink as-is (no
    /// end-of-input epilogue). The shared parse, every other class and the
    /// other members of its own class are untouched; if it was the class's
    /// last live member, the class's pump is dropped here and its buffers
    /// and budget charge are released. Returns `None` if `i` was already
    /// aborted.
    pub fn abort_sub(&mut self, i: usize) -> Option<S> {
        let (c, pos) = self.slots[i];
        let tee = self.classes[c as usize].tee_mut();
        debug_assert!(tee.stage.is_empty(), "stages drain before every public call returns");
        let sink = tee.detach(pos)?;
        self.retire_if_deserted(c);
        Some(sink)
    }

    /// Signal end of input and complete every subscription.
    ///
    /// Per subscriber, in plan order: `Some((Ok(stats), sink))` for a
    /// completed run (identical to an independent run's outcome),
    /// `Some((Err(e), sink))` for one that failed (its class's engine
    /// error, end-of-input validation, or its own sink's error — the sink
    /// holds the pre-failure output, no epilogue), and `None` for one
    /// aborted earlier via [`FanoutDriver::abort_sub`].
    #[allow(clippy::type_complexity)]
    pub fn finish(self) -> Vec<Option<(Result<RunStats, EngineError>, S)>> {
        let events = self.events;
        let mut out: Vec<_> = self.slots.iter().map(|_| None).collect();
        for class in self.classes {
            let (stats, tee) = match class {
                Class::Retired(tee) => (None, tee),
                Class::Live { mut pump, parked_at } => {
                    if let Some(at) = parked_at {
                        // Input ended inside the skipped subtree: reconcile
                        // the counter, then let finish report the same
                        // truncation error an independent run would.
                        pump.fast_forward_skip(events - at);
                    }
                    let (res, mut tee) = pump.finish();
                    match res {
                        Ok(stats) => (Some(stats), tee),
                        Err(e) => {
                            // A failed finish skips the sink flush; what
                            // the pump wrote before failing is still owed.
                            tee.flush_stage();
                            tee.fail_live(&e);
                            (None, tee)
                        }
                    }
                }
            };
            for m in tee.members {
                let Some(sink) = m.sink else { continue };
                let res = match m.error {
                    Some(e) => Err(e),
                    None => Ok(stats.expect("a live member's class finished cleanly")),
                };
                out[m.sub as usize] = Some((res, sink));
            }
        }
        out
    }

    /// Serialize the complete fan-out state as the `flux_state` FANOUT
    /// section payload (layout documented there): per subscription slot, in
    /// plan order, its state tag — and, in the slot of each live class's
    /// first live member, the class's pump — then the parking/wake
    /// structure and the shared counters. Each live pump must be quiescent
    /// (between `feed_event` calls); failed subscribers save only their
    /// error text, detached ones only their tag. A set without duplicate
    /// plans encodes exactly as it did when every subscriber ran its own
    /// pump.
    pub fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        enc.put_usize(self.slots.len());
        // A class's pump goes into the slot of its first live member.
        let mut carried = vec![false; self.classes.len()];
        for &(c, pos) in &self.slots {
            let class = &self.classes[c as usize];
            let tee = class.tee();
            debug_assert!(tee.stage.is_empty(), "stages drain before every public call returns");
            let m = &tee.members[pos as usize];
            match (class, &m.error) {
                _ if m.sink.is_none() => enc.put_u8(TAG_DETACHED),
                (_, Some(e)) => {
                    enc.put_u8(TAG_FAILED);
                    enc.put_str(&e.to_string());
                }
                (Class::Live { pump, parked_at }, None) => {
                    if std::mem::replace(&mut carried[c as usize], true) {
                        enc.put_u8(TAG_SHARED);
                        continue;
                    }
                    match parked_at {
                        None => enc.put_u8(TAG_ACTIVE),
                        Some(at) => {
                            enc.put_u8(TAG_PARKED);
                            enc.put_uint(*at);
                        }
                    }
                    pump.state_save(enc)?;
                }
                (Class::Retired(_), None) => unreachable!("a retired class has no live member"),
            }
        }
        // Classes go by the subscription index of their first member — for
        // a set without duplicates, the subscriber index itself.
        let first = |c: u32| u64::from(self.classes[c as usize].tee().members[0].sub);
        enc.put_usize(self.active.len());
        for &c in &self.active {
            enc.put_uint(first(c));
        }
        enc.put_usize(self.wake.len());
        for bucket in &self.wake {
            enc.put_usize(bucket.len());
            for &c in bucket {
                enc.put_uint(first(c));
            }
        }
        enc.put_uint(u64::from(self.depth));
        enc.put_uint(self.events);
        Ok(())
    }

    /// Rebuild a driver saved by [`FanoutDriver::state_save`] against the
    /// same plan, with one fresh sink per subscription slot. `sinks[i]` may
    /// be `None` only for a slot that was detached at save time (its sink
    /// was recovered then); failed slots still take a sink so
    /// [`FanoutDriver::finish`] can hand one back with the restored error.
    /// Budget re-grants happen per class through `hook`; a denied re-grant
    /// fails the whole restore (already-granted classes release on drop, so
    /// the accounting stays balanced). A payload from before plan classes —
    /// one pump per subscriber, duplicates included — restores too: the
    /// copies of a class's pump state beyond the first are decoded and
    /// dropped.
    pub fn state_load(
        plan: &FanoutPlan,
        sinks: Vec<Option<S>>,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<FanoutDriver<S>, flux_state::StateError> {
        Self::state_load_inner(plan, sinks, hook, dec, false)
    }

    /// [`FanoutDriver::state_load`] for a caller that already reserved the
    /// snapshot's total recorded charges through `hook` — see
    /// [`Pump::state_load_pregranted`]. Every class's budget adopts its
    /// share of the reservation, so the restore cannot be refused; the
    /// shares of a pre-class payload's duplicate pumps go back to the hook.
    pub fn state_load_pregranted(
        plan: &FanoutPlan,
        sinks: Vec<Option<S>>,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<FanoutDriver<S>, flux_state::StateError> {
        Self::state_load_inner(plan, sinks, hook, dec, true)
    }

    fn state_load_inner(
        plan: &FanoutPlan,
        mut sinks: Vec<Option<S>>,
        hook: Option<Arc<dyn BudgetHook>>,
        dec: &mut flux_state::Dec<'_>,
        pre_granted: bool,
    ) -> Result<FanoutDriver<S>, flux_state::StateError> {
        use flux_state::StateError;
        let nsubs = dec.get_count()?;
        if nsubs != plan.len() || sinks.len() != plan.len() {
            return Err(StateError::Corrupt("subscription count does not match the plan"));
        }
        let slots = slots_of(plan);
        // Every class starts out pump-less; the first slot that carries its
        // pump brings it to life.
        let mut classes: Vec<Class<S>> =
            plan.classes.iter().map(|m| Class::Retired(Tee::detached(m))).collect();
        for (i, &(c, pos)) in slots.iter().enumerate() {
            let class = &mut classes[c as usize];
            let tag = dec.get_u8()?;
            if tag == TAG_DETACHED {
                continue;
            }
            let error = match tag {
                TAG_ACTIVE | TAG_PARKED => {
                    let parked_at = if tag == TAG_PARKED { Some(dec.get_uint()?) } else { None };
                    let q = Arc::clone(&plan.queries[plan.classes[c as usize][0] as usize]);
                    if let Class::Retired(tee) = class {
                        let mut pump =
                            load_pump(q, Tee::detached(&[]), hook.clone(), dec, pre_granted)?;
                        std::mem::swap(pump.sink_mut(), tee);
                        *class = Class::Live { pump, parked_at };
                    } else {
                        // A pre-class payload: this member's own copy of
                        // the state its class already loaded. Decode past
                        // it; under a pre-granted restore the copy adopts
                        // its share of the reservation and, dropped, hands
                        // it back.
                        let hook = hook.clone().filter(|_| pre_granted);
                        load_pump(q, Tee::<S>::detached(&[]), hook, dec, pre_granted)?;
                    }
                    None
                }
                // The failed pump itself is not serializable (and gone);
                // the slot's sink comes back at finish with the saved text.
                TAG_FAILED => Some(EngineError::Eval(flux_query::eval::EvalError::Io(
                    dec.get_str()?.to_string(),
                ))),
                TAG_SHARED => None,
                _ => return Err(StateError::Corrupt("unknown subscriber state")),
            };
            let sink =
                sinks[i].take().ok_or(StateError::Corrupt("live subscriber without a sink"))?;
            class.tee_mut().attach(pos, sink, error);
        }
        let class_of = |v: u64| {
            usize::try_from(v)
                .ok()
                .and_then(|i| slots.get(i))
                .map(|&(c, _)| c)
                .ok_or(StateError::Corrupt("subscriber index out of range"))
        };
        // Only live, unparked classes may be fed, each once (a pre-class
        // payload lists every member of a class).
        let mut listed = vec![false; classes.len()];
        let nactive = dec.get_count()?;
        let mut active = Vec::with_capacity(nactive.min(classes.len()));
        for _ in 0..nactive {
            let c = class_of(dec.get_uint()?)?;
            let fed = matches!(classes[c as usize], Class::Live { parked_at: None, .. });
            if fed && !std::mem::replace(&mut listed[c as usize], true) {
                active.push(c);
            }
        }
        let nbuckets = dec.get_count()?;
        let mut wake = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            let blen = dec.get_count()?;
            let mut bucket = Vec::with_capacity(blen);
            for _ in 0..blen {
                bucket.push(class_of(dec.get_uint()?)?);
            }
            wake.push(bucket);
        }
        let depth = u32::try_from(dec.get_uint()?)
            .map_err(|_| StateError::Corrupt("stream depth exceeds u32"))?;
        let events = dec.get_uint()?;
        for class in &classes {
            match class {
                Class::Retired(tee) if tee.live > 0 => {
                    return Err(StateError::Corrupt("live subscriber without a pump"));
                }
                Class::Live { parked_at: Some(at), .. } if *at > events => {
                    return Err(StateError::Corrupt("class parked in the future"));
                }
                _ => {}
            }
        }
        let staged = staged_of(plan);
        Ok(FanoutDriver { classes, slots, active, wake, staged, depth, events })
    }

    /// Tear the whole run down without the end-of-input epilogue — the
    /// right teardown when the shared input failed upstream (e.g. an XML
    /// parse error): every sink holds exactly what an independent run wrote
    /// before the same failure.
    pub fn abort_all(self) -> Vec<SubTeardown<S>> {
        let mut out: Vec<_> = self.slots.iter().map(|_| SubTeardown::Detached).collect();
        for class in self.classes {
            for m in class.into_tee().members {
                let Some(sink) = m.sink else { continue };
                out[m.sub as usize] = match m.error {
                    Some(e) => SubTeardown::Failed(e, sink),
                    None => SubTeardown::Aborted(sink),
                };
            }
        }
        out
    }
}

/// FANOUT payload subscriber tags (see `flux_state`).
const TAG_ACTIVE: u8 = 0;
const TAG_PARKED: u8 = 1;
const TAG_FAILED: u8 = 2;
const TAG_DETACHED: u8 = 3;
const TAG_SHARED: u8 = 4;

fn load_pump<S: Sink>(
    plan: Arc<CompiledQuery>,
    sink: S,
    hook: Option<Arc<dyn BudgetHook>>,
    dec: &mut flux_state::Dec<'_>,
    pre_granted: bool,
) -> Result<Pump<S>, flux_state::StateError> {
    if pre_granted {
        Pump::state_load_pregranted(plan, sink, hook, dec)
    } else {
        Pump::state_load(plan, sink, hook, dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_xml::{Reader, StringSink};

    const DTD: &str = "<!ELEMENT lib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const Q_BOOKS: &str = "<books>{ for $b in $ROOT/lib/book return \
        <hit> {$b/title} </hit> }</books>";
    const Q_ARTICLES: &str = "<articles>{ for $a in $ROOT/lib/article return \
        <hit> {$a/headline} {$a/author} </hit> }</articles>";
    const DOC: &str = "<lib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        <article><headline>H2</headline><author>B2</author></article>\
        </lib>";

    fn prep(dtd: &Arc<Dtd>, q: &str) -> FanoutQuery {
        let parsed = flux_query::parse_xquery(q).unwrap();
        let flux = flux_core::rewrite_query(&parsed, dtd).unwrap();
        let compiled = Arc::new(
            CompiledQuery::compile_with(&flux, Arc::clone(dtd), EngineOptions::default()).unwrap(),
        );
        FanoutQuery { plan: Arc::new(flux), compiled }
    }

    fn drive(plan: &FanoutPlan, doc: &str) -> Vec<Option<(Result<RunStats, EngineError>, String)>> {
        let sinks = (0..plan.len()).map(|_| StringSink::new()).collect();
        let mut driver = FanoutDriver::new(plan, sinks);
        let mut reader =
            Reader::with_symbols(doc.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        while let Some(ev) = reader.next_resolved().unwrap() {
            driver.feed_event(ev);
        }
        driver
            .finish()
            .into_iter()
            .map(|e| e.map(|(res, sink)| (res, sink.into_string())))
            .collect()
    }

    #[test]
    fn shared_run_matches_independent_runs_exactly() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let outs = drive(&plan, DOC);
        for (s, out) in subs.iter().zip(outs) {
            let (res, text) = out.expect("no subscriber aborted");
            let (ref_res, ref_sink) = s.compiled.run_sink(DOC.as_bytes(), StringSink::new());
            assert_eq!(text, ref_sink.into_string());
            // Stats equality pins the parking reconciliation: the withheld
            // events must be counted exactly once.
            assert_eq!(res.unwrap(), ref_res.unwrap());
        }
    }

    #[test]
    fn subscribers_park_through_foreign_subtrees() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let sinks = vec![StringSink::new(), StringSink::new()];
        let mut driver = FanoutDriver::new(&plan, sinks);
        let mut reader =
            Reader::with_symbols(DOC.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        let mut saw_parked = false;
        while let Some(ev) = reader.next_resolved().unwrap() {
            driver.feed_event(ev);
            saw_parked |= driver.active_subscribers() < driver.live_subscribers();
        }
        assert!(saw_parked, "each query must park through the other's subtrees");
        assert_eq!(driver.active_subscribers(), 2, "all woken by the root close");
        for out in driver.finish() {
            out.unwrap().0.unwrap();
        }
    }

    #[test]
    fn one_failing_subscriber_does_not_stop_the_rest() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        // The zzz element violates article's content model: the articles
        // subscription fails there; the books one skips the whole article
        // subtree and never notices.
        let doc = "<lib>\
            <book><title>T1</title><author>A1</author></book>\
            <article><zzz/><headline>H</headline><author>B</author></article>\
            <book><title>T2</title><author>A2</author></book>\
            </lib>";
        let outs = drive(&plan, doc);
        let (books_res, books_out) = outs[0].as_ref().unwrap();
        assert!(books_res.is_ok());
        assert_eq!(books_out.matches("<hit>").count(), 2);
        let (articles_res, _) = outs[1].as_ref().unwrap();
        let err = articles_res.as_ref().unwrap_err();
        assert!(err.to_string().contains("zzz"), "{err}");
        // And the failing run matches its independent twin bit-for-bit.
        let (ref_res, ref_sink) = subs[1].compiled.run_sink(doc.as_bytes(), StringSink::new());
        assert!(ref_res.is_err());
        assert_eq!(outs[1].as_ref().unwrap().1, ref_sink.into_string());
    }

    #[test]
    fn abort_sub_recovers_the_sink_and_spares_the_rest() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_ARTICLES)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let mut driver = FanoutDriver::new(&plan, vec![StringSink::new(), StringSink::new()]);
        let mut reader =
            Reader::with_symbols(DOC.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        let mut fed = 0;
        while let Some(ev) = reader.next_resolved().unwrap() {
            driver.feed_event(ev);
            fed += 1;
            if fed == 8 {
                let sink = driver.abort_sub(0).expect("first abort returns the sink");
                assert!(sink.into_string().starts_with("<books>"));
                assert!(driver.abort_sub(0).is_none(), "second abort is a no-op");
            }
        }
        let outs = driver.finish();
        assert!(outs[0].is_none(), "aborted subscriber has no finish entry");
        let (res, sink) = outs.into_iter().nth(1).unwrap().unwrap();
        res.unwrap();
        let reference = subs[1].compiled.run_sink(DOC.as_bytes(), StringSink::new());
        assert_eq!(sink.into_string(), reference.1.into_string());
    }

    #[test]
    fn truncated_input_fails_parked_subscribers_like_independent_runs() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd, Q_BOOKS)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        // Events stop inside an article subtree: the books pump is parked
        // there and must report the same mid-element truncation an
        // independent run does.
        let doc = "<lib><article><headline>H</headline>";
        let mut driver = FanoutDriver::new(&plan, vec![StringSink::new()]);
        let mut reader =
            Reader::with_symbols(doc.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        while let Ok(Some(ev)) = reader.next_resolved() {
            driver.feed_event(ev);
        }
        let outs = driver.finish();
        let (res, _) = outs.into_iter().next().unwrap().unwrap();
        let err = res.unwrap_err();
        assert!(err.to_string().contains("ended inside"), "{err}");
    }

    #[test]
    fn plans_with_equal_vocabulary_are_reused() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        // Same query twice: identical symbol tables, so compilation must
        // reuse both plans as-is.
        let subs = vec![prep(&dtd, Q_BOOKS), prep(&dtd, Q_BOOKS)];
        let plan = FanoutPlan::compile(&subs).unwrap();
        assert_eq!(plan.reused_plans(), 2);
        assert!(Arc::ptr_eq(&plan.queries()[0], &subs[0].compiled));
        // Every declared element lives in the DTD's table, so per-query
        // tables normally equal the union and plans are always reused; the
        // recompile path is the safety net for seed tables that grew past
        // the DTD's. Exercise it directly: a strict-superset seed must
        // yield an equivalent plan …
        let mut grown = (**dtd.symbols()).clone();
        grown.intern("not-in-the-dtd");
        let re = CompiledQuery::compile_with_symbols(
            &subs[0].plan,
            Arc::clone(&dtd),
            EngineOptions::default(),
            grown.clone(),
        )
        .unwrap();
        let (res, sink) = re.run_sink(DOC.as_bytes(), StringSink::new());
        let reference = subs[0].compiled.run_sink(DOC.as_bytes(), StringSink::new());
        assert_eq!(sink.into_string(), reference.1.into_string());
        assert_eq!(res.unwrap(), reference.0.unwrap());
        // … and a seed whose ids disagree with the DTD's is refused.
        let mut moved = Symbols::new();
        moved.intern("stolen-id");
        for (_, name) in dtd.symbols().iter() {
            moved.intern(name);
        }
        let bad = CompiledQuery::compile_with_symbols(
            &subs[0].plan,
            Arc::clone(&dtd),
            EngineOptions::default(),
            moved,
        );
        assert!(bad.is_err(), "shifted DTD ids must be rejected");
    }

    #[test]
    fn equal_plans_form_one_class() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let books = prep(&dtd, Q_BOOKS);
        // The same prepared query twice (one `Arc`), a separately prepared
        // copy (its own plan and compilation, structurally equal), and a
        // different query.
        let subs = vec![books.clone(), prep(&dtd, Q_ARTICLES), books, prep(&dtd, Q_BOOKS)];
        assert!(!Arc::ptr_eq(&subs[0].compiled, &subs[3].compiled));
        let plan = FanoutPlan::compile(&subs).unwrap();
        assert_eq!(plan.classes(), [vec![0, 2, 3], vec![1]]);
        assert_eq!(plan.len(), 4);
        // One pump per class, and every member still gets the bytes and the
        // statistics of its independent run.
        let outs = drive(&plan, DOC);
        for (s, out) in subs.iter().zip(outs) {
            let (res, text) = out.expect("no subscriber aborted");
            let (ref_res, ref_sink) = s.compiled.run_sink(DOC.as_bytes(), StringSink::new());
            assert_eq!(text, ref_sink.into_string());
            assert_eq!(res.unwrap(), ref_res.unwrap());
        }
        // No duplicates: M singleton classes.
        let plan = FanoutPlan::compile(&subs[..2]).unwrap();
        assert_eq!(plan.classes(), [vec![0], vec![1]]);
    }

    #[test]
    fn an_engine_error_fails_every_member_of_the_class_and_no_other() {
        let dtd = Arc::new(Dtd::parse(DTD).unwrap());
        let articles = prep(&dtd, Q_ARTICLES);
        let subs = vec![articles.clone(), prep(&dtd, Q_BOOKS), articles];
        let plan = FanoutPlan::compile(&subs).unwrap();
        let doc = "<lib>\
            <article><headline>H0</headline><author>B0</author></article>\
            <article><zzz/><headline>H</headline><author>B</author></article>\
            <book><title>T2</title><author>A2</author></book>\
            </lib>";
        let outs = drive(&plan, doc);
        let (ref_res, ref_sink) = subs[0].compiled.run_sink(doc.as_bytes(), StringSink::new());
        let (ref_err, ref_out) = (ref_res.unwrap_err().to_string(), ref_sink.into_string());
        for i in [0, 2] {
            let (res, out) = outs[i].as_ref().unwrap();
            assert_eq!(res.as_ref().unwrap_err().to_string(), ref_err);
            assert_eq!(*out, ref_out, "output staged before the error still arrives");
        }
        assert!(outs[1].as_ref().unwrap().0.is_ok());
    }

    const WEAK_DTD: &str = "<!ELEMENT lib (book)*><!ELEMENT book (title|author)*>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
    const Q_HOLD: &str = "<r>{ for $b in $ROOT/lib/book return \
        <hit> {$b/title} {$b/author} </hit> }</r>";
    const Q_TITLES: &str = "<t>{ for $b in $ROOT/lib/book return {$b/title} }</t>";
    const WEAK_HEAD: &str = "<lib><book><title>T0</title></book><book><author>held</author>";
    const WEAK_TAIL: &str = "<title>T1</title></book></lib>";

    /// A ledger hook: what is charged right now.
    #[derive(Default)]
    struct Ledger(std::sync::atomic::AtomicUsize);

    impl Ledger {
        fn used(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl BudgetHook for Ledger {
        fn try_grow(&self, bytes: usize) -> bool {
            self.0.fetch_add(bytes, std::sync::atomic::Ordering::SeqCst);
            true
        }
        fn release(&self, bytes: usize) {
            self.0.fetch_sub(bytes, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Feed `doc`'s events (as far as it parses) from event `skip` on.
    fn feed_from<S: Sink>(plan: &FanoutPlan, driver: &mut FanoutDriver<S>, doc: &str, skip: u64) {
        let mut reader =
            Reader::with_symbols(doc.as_bytes(), plan.options().reader, Arc::clone(plan.symbols()));
        let mut n = 0;
        while let Ok(Some(ev)) = reader.next_resolved() {
            if n >= skip {
                driver.feed_event(ev);
            }
            n += 1;
        }
    }

    /// Feed the part of the weak document after [`WEAK_HEAD`].
    fn feed_tail<S: Sink>(plan: &FanoutPlan, driver: &mut FanoutDriver<S>) {
        let skip = driver.events();
        feed_from(plan, driver, &format!("{WEAK_HEAD}{WEAK_TAIL}"), skip);
    }

    /// `[hold, titles, hold]` over the weak DTD: a class of two that
    /// buffers, and a singleton.
    fn weak_plan() -> (Vec<FanoutQuery>, FanoutPlan) {
        let dtd = Arc::new(Dtd::parse(WEAK_DTD).unwrap());
        let hold = prep(&dtd, Q_HOLD);
        let subs = vec![hold.clone(), prep(&dtd, Q_TITLES), hold];
        let plan = FanoutPlan::compile(&subs).unwrap();
        assert_eq!(plan.classes(), [vec![0, 2], vec![1]]);
        (subs, plan)
    }

    /// The FANOUT payload a build from before plan classes wrote for this
    /// set after `WEAK_HEAD`: one pump per subscriber — the class's state
    /// twice — and every subscriber in the feed list. (After the head every
    /// pump is unparked, so the hand encoding needs no wake schedule.)
    fn pre_class_payload(subs: &[FanoutQuery], hook: &Arc<Ledger>) -> (Vec<u8>, Vec<String>) {
        let mut enc = flux_state::Enc::new();
        let mut prefixes = Vec::new();
        enc.put_usize(subs.len());
        let mut events = 0;
        for s in subs {
            let mut pump =
                Pump::with_budget(Arc::clone(&s.compiled), StringSink::new(), hook.clone() as _);
            let mut reader = Reader::with_symbols(
                WEAK_HEAD.as_bytes(),
                s.compiled.options().reader,
                Arc::clone(s.compiled.symbols()),
            );
            events = 0;
            while let Ok(Some(ev)) = reader.next_resolved() {
                pump.feed_event(ev).unwrap();
                events += 1;
            }
            assert_eq!(pump.stream_interest(), StreamInterest::All);
            enc.put_u8(TAG_ACTIVE);
            pump.state_save(&mut enc).unwrap();
            prefixes.push(pump.abort().into_string());
        }
        enc.put_usize(subs.len());
        for i in 0..subs.len() {
            enc.put_uint(i as u64);
        }
        enc.put_usize(0);
        enc.put_uint(2); // <lib><book> are open
        enc.put_uint(events);
        (enc.into_bytes(), prefixes)
    }

    #[test]
    fn a_pre_class_payload_restores_and_hands_back_the_surplus() {
        let (subs, plan) = weak_plan();
        let ledger = Arc::new(Ledger::default());
        let (payload, prefixes) = pre_class_payload(&subs, &ledger);
        assert_eq!(ledger.used(), 0, "the encoder's pumps are gone");

        // What the class holds after the head, from a live run.
        let mut live = FanoutDriver::with_budget(
            &plan,
            (0..3).map(|_| StringSink::new()).collect(),
            ledger.clone() as _,
        );
        feed_from(&plan, &mut live, WEAK_HEAD, 0);
        let class_charge = ledger.used();
        assert!(class_charge > 0, "the held author is charged, once");
        assert_eq!(live.budget_charged(), class_charge);
        drop(live);
        assert_eq!(ledger.used(), 0);

        for pre_granted in [false, true] {
            // The old snapshot's BUDGET total: the class's charge per member.
            let recorded = 2 * class_charge;
            if pre_granted {
                assert!(ledger.try_grow(recorded));
            }
            let sinks = (0..3).map(|_| Some(StringSink::new())).collect();
            let mut dec = flux_state::Dec::new(&payload);
            let hook = Some(ledger.clone() as Arc<dyn BudgetHook>);
            let mut driver = if pre_granted {
                FanoutDriver::state_load_pregranted(&plan, sinks, hook, &mut dec)
            } else {
                FanoutDriver::state_load(&plan, sinks, hook, &mut dec)
            }
            .unwrap();
            assert!(dec.is_done(), "every member's pump state was consumed");
            assert_eq!(ledger.used(), class_charge, "one charge per class ({pre_granted})");
            assert_eq!(driver.active_subscribers(), 3);

            feed_tail(&plan, &mut driver);
            for ((s, prefix), out) in subs.iter().zip(&prefixes).zip(driver.finish()) {
                let (res, sink) = out.unwrap();
                let doc = format!("{WEAK_HEAD}{WEAK_TAIL}");
                let (ref_res, ref_sink) = s.compiled.run_sink(doc.as_bytes(), StringSink::new());
                assert_eq!(format!("{prefix}{}", sink.into_string()), ref_sink.into_string());
                assert_eq!(res.unwrap(), ref_res.unwrap());
            }
            assert_eq!(ledger.used(), 0, "ledger balanced ({pre_granted})");
        }
    }

    #[test]
    fn damaged_payloads_fail_typed_or_run_on_but_never_panic() {
        let (_, plan) = weak_plan();
        let mut live = FanoutDriver::new(&plan, (0..3).map(|_| StringSink::new()).collect());
        feed_from(&plan, &mut live, WEAK_HEAD, 0);
        live.abort_sub(0).unwrap(); // the class's second member now carries its pump
        let mut enc = flux_state::Enc::new();
        live.state_save(&mut enc).unwrap();
        let good = enc.into_bytes();
        assert_eq!(good[1], TAG_DETACHED);

        let load = |bytes: &[u8]| {
            let sinks = vec![None, Some(StringSink::new()), Some(StringSink::new())];
            FanoutDriver::state_load(&plan, sinks, None, &mut flux_state::Dec::new(bytes))
        };
        load(&good).unwrap();

        // A member that claims to share a pump nobody carries.
        let mut bad = vec![3, TAG_DETACHED, TAG_DETACHED, TAG_SHARED];
        bad.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            load(&bad).err(),
            Some(flux_state::StateError::Corrupt("live subscriber without a pump"))
        ));

        // Every single-byte damage to the driver-level fields — the slot
        // count, the detached slot's tag, and the feed list / wake schedule
        // / counters after the last pump — is a typed error, or a driver
        // that still runs to the end.
        let mut trailer = flux_state::Enc::new();
        trailer.put_usize(live.active.len());
        live.active.iter().for_each(|_| trailer.put_u8(0));
        trailer.put_usize(live.wake.len());
        for bucket in &live.wake {
            trailer.put_usize(bucket.len());
            bucket.iter().for_each(|_| trailer.put_u8(0));
        }
        trailer.put_uint(u64::from(live.depth));
        trailer.put_uint(live.events);
        let damaged = (0..2).chain(good.len() - trailer.len()..good.len());
        for at in damaged {
            for delta in [1u8, 2, 3, 0x7f, 0x80] {
                let mut bytes = good.clone();
                bytes[at] = bytes[at].wrapping_add(delta);
                if let Ok(mut driver) = load(&bytes) {
                    feed_tail(&plan, &mut driver);
                    driver.finish();
                }
            }
        }
    }

    #[test]
    fn mismatched_dtds_or_options_are_refused() {
        let dtd_a = Arc::new(Dtd::parse(DTD).unwrap());
        let dtd_b = Arc::new(Dtd::parse(DTD).unwrap());
        let subs = vec![prep(&dtd_a, Q_BOOKS), prep(&dtd_b, Q_ARTICLES)];
        assert!(FanoutPlan::compile(&subs).is_err());
        assert!(FanoutPlan::compile(&[]).is_err());
    }
}
