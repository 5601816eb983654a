//! One incremental parse fanned out to M subscriptions.
//!
//! [`SharedSession`] is to a [`SubscriptionSet`](crate::SubscriptionSet)
//! what [`Session`](crate::Session) is to a single
//! [`PreparedQuery`](crate::PreparedQuery): a plain resumable value — one
//! incremental reader plus an engine-level
//! [`FanoutDriver`](flux_engine::FanoutDriver) — fed chunk by chunk on the
//! caller's thread. The document is tokenized **once**; every resolved
//! event fans out to the *plan classes* still interested in the current
//! subtree (the rest are parked, see `flux_engine::fanout`). A class is
//! the set of subscribers with an identical plan: it runs one pump, holds
//! one set of buffers and one budget charge, and copies its output to each
//! member's sink — so each subscriber keeps its own sink, statistics and
//! outcome, and M readers of one query cost one evaluation.
//!
//! The per-subscriber semantics are deliberate and pinned by tests:
//!
//! * **A subscriber's failure detaches the subscriber, never the stream.**
//!   A validation error only one query cares about stops that query — for
//!   every subscriber of it, with the same error, as in their independent
//!   runs — while the other queries keep streaming; a subscriber whose own
//!   *sink* fails is stopped alone. Either way the error surfaces in that
//!   subscriber's entry of [`SharedSession::finish_parts`]. (A *parse*
//!   error is a property of the shared input itself, so it fails every
//!   subscriber — exactly as it would fail each independent run.)
//! * **Aborting a subscriber detaches it immediately**
//!   ([`SharedSession::abort_sub`]): its sink comes back with the output
//!   streamed so far and the parse continues for the rest. Its plan's
//!   buffers and shared-budget charge are released with the *last*
//!   subscriber of that plan to finish, fail or be aborted.
//! * **Budget stalls are stream-level.** The admission gate
//!   ([`SharedSession::feed_outcome`]) pauses the *whole* shared parse
//!   while the pool is tight and no subscriber holds charges — a single
//!   parse cannot advance subscribers selectively, and a stalled
//!   subscriber that held the only charges would starve the rest anyway.
//!   This is the stall-the-stream choice; detaching slow subscribers to a
//!   catch-up replay is a policy the caller can build with
//!   [`SharedSession::abort_sub`].

use std::sync::Arc;

use flux_engine::{BudgetHook, EngineError, FanoutDriver, FanoutPlan, RunStats};
use flux_xml::{
    DeliveryMode, EventTape, FeedSource, Polled, Reader, Sink, TapeFill, TapeTelemetry, XmlError,
};

use crate::error::FluxError;
use crate::runtime::FeedOutcome;

/// One shared incremental execution of a compiled
/// [`SubscriptionSet`](crate::SubscriptionSet). See the [module docs](self).
pub struct SharedSession<S: Sink> {
    reader: Reader<FeedSource>,
    driver: FanoutDriver<S>,
    /// A stream-level failure (XML parse error) — fatal for every
    /// subscriber, fanned out at finish. Per-subscriber engine errors
    /// never land here; they detach their subscriber inside the driver.
    error: Option<XmlError>,
    budget: Option<Arc<dyn BudgetHook>>,
    paused: bool,
    /// The compiled fan-out plan, kept so a snapshot can stamp the plan
    /// identity it must restore against and so runtime layers can
    /// re-associate spilled/migrated state with its plan.
    plan: Arc<FanoutPlan>,
    /// Event delivery mode, resolved once at construction (the
    /// `FLUX_FORCE_PULL` kill switch wins over the compiled option).
    delivery: DeliveryMode,
    /// Reusable batch buffer for [`DeliveryMode::Tape`]; always drained
    /// (and cleared) before the next feed, never serialized.
    tape: EventTape,
    /// Stream-level tape telemetry, fanned out to every subscriber's
    /// [`RunStats`] at finish — one shared parse, one tape.
    tape_stats: TapeTelemetry,
}

impl<S: Sink> SharedSession<S> {
    pub(crate) fn new(
        plan: Arc<FanoutPlan>,
        sinks: Vec<S>,
        budget: Option<Arc<dyn BudgetHook>>,
    ) -> SharedSession<S> {
        let reader =
            Reader::incremental_with_symbols(plan.options().reader, Arc::clone(plan.symbols()));
        let driver = match &budget {
            Some(hook) => FanoutDriver::with_budget(&plan, sinks, Arc::clone(hook)),
            None => FanoutDriver::new(&plan, sinks),
        };
        let delivery = plan.options().reader.delivery.resolved();
        SharedSession {
            reader,
            driver,
            error: None,
            budget,
            paused: false,
            plan,
            delivery,
            tape: EventTape::new(),
            tape_stats: TapeTelemetry::default(),
        }
    }

    /// Push the next chunk of the shared document; every event it
    /// completes is dispatched to all interested subscribers before the
    /// call returns. Chunks may split the XML at any byte boundary.
    ///
    /// Returns [`FluxError::SessionAborted`] once the shared input has
    /// failed to parse (per-subscriber failures do *not* abort the
    /// session — see the [module docs](self)).
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), FluxError> {
        if self.error.is_some() {
            return Err(FluxError::SessionAborted);
        }
        self.paused = false;
        self.run(chunk);
        Ok(())
    }

    /// [`SharedSession::feed`] behind the admission gate, mirroring
    /// [`Session::feed_outcome`](crate::Session::feed_outcome): while the
    /// shared budget is tight and no subscriber holds charges, the chunk
    /// is refused ([`FeedOutcome::Backpressure`]) and nothing is absorbed.
    /// One stalled *stream* parks all its subscribers — the stream-level
    /// stall semantics pinned in the [module docs](self).
    pub fn feed_outcome(&mut self, chunk: &[u8]) -> Result<FeedOutcome, FluxError> {
        if self.error.is_some() {
            return Err(FluxError::SessionAborted);
        }
        if self.gated() {
            self.paused = true;
            return Ok(FeedOutcome::Backpressure);
        }
        self.paused = false;
        self.run(chunk);
        Ok(FeedOutcome::Accepted)
    }

    /// Re-check the admission gate after [`FeedOutcome::Backpressure`];
    /// [`FeedOutcome::Accepted`] means feeds are admitted again (the
    /// refused chunk was never absorbed — re-feed it).
    pub fn resume(&mut self) -> Result<FeedOutcome, FluxError> {
        if self.error.is_some() {
            return Err(FluxError::SessionAborted);
        }
        if self.gated() {
            return Ok(FeedOutcome::Backpressure);
        }
        self.paused = false;
        Ok(FeedOutcome::Accepted)
    }

    /// Did the last [`SharedSession::feed_outcome`] refuse its chunk (and
    /// no [`SharedSession::resume`] has succeeded since)?
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    fn gated(&self) -> bool {
        match &self.budget {
            Some(b) => b.should_pause() && self.driver.budget_charged() == 0,
            None => false,
        }
    }

    /// Parse `chunk` and dispatch every event it completes. In tape mode
    /// the chunk is parsed where it lies: batch, dispatch, repeat — events
    /// taped before a parse error are dispatched first, so subscribers see
    /// exactly the prefix a per-event pull would have delivered before the
    /// failure.
    fn run(&mut self, chunk: &[u8]) {
        let res = match self.delivery {
            DeliveryMode::Tape => {
                let mut feed = self.reader.feed_in_place(chunk);
                loop {
                    let fill = feed.fill_tape(&mut self.tape);
                    if !self.tape.is_empty() {
                        self.tape_stats.batches += 1;
                        self.tape_stats.events += self.tape.len() as u64;
                        self.tape_stats.fast_forwarded += self.driver.feed_tape(&feed, &self.tape);
                        self.tape.clear();
                    }
                    match fill {
                        Ok(TapeFill::Full) => {}
                        Ok(TapeFill::NeedMoreData | TapeFill::End) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                }
            }
            DeliveryMode::PerEvent => {
                self.reader.feed(chunk);
                loop {
                    match self.reader.poll_resolved() {
                        // Dispatch is infallible at the stream level: a
                        // subscriber whose pump errors is detached inside
                        // the driver.
                        Ok(Polled::Event(ev)) => self.driver.feed_event(ev),
                        Ok(Polled::NeedMoreData | Polled::End) => break Ok(()),
                        Err(e) => break Err(e),
                    }
                }
            }
        };
        self.error = res.err();
    }

    /// Number of subscriptions (in any state).
    pub fn len(&self) -> usize {
        self.driver.len()
    }

    /// Is the session empty? (Never true: sets are non-empty.)
    pub fn is_empty(&self) -> bool {
        self.driver.is_empty()
    }

    /// Subscribers still live: not failed, not aborted.
    pub fn live_subscribers(&self) -> usize {
        self.driver.live_subscribers()
    }

    /// Has the shared input failed to parse? (Fatal for all subscribers;
    /// the cause is fanned out by [`SharedSession::finish_parts`].)
    pub fn is_aborted(&self) -> bool {
        self.error.is_some()
    }

    /// Has subscriber `i` failed on its own engine error?
    pub fn sub_failed(&self, i: usize) -> bool {
        self.driver.is_failed(i)
    }

    /// Abort one subscriber mid-stream: its sink comes back with the
    /// output streamed so far (no end-of-input epilogue) and the shared
    /// parse continues for everyone else. If it was the last live
    /// subscriber of its plan, that plan's buffers and budget charge are
    /// released here. `None` if `i` was already aborted.
    pub fn abort_sub(&mut self, i: usize) -> Option<S> {
        self.driver.abort_sub(i)
    }

    /// Bytes this session currently holds: every live plan class's
    /// buffers and captures (once each, however many subscribers read
    /// them) plus the unparsed tail of the fed input.
    pub fn buffered_bytes(&self) -> usize {
        self.driver.buffered_bytes() + self.reader.unconsumed_bytes()
    }

    /// Aggregate bytes currently charged to the shared budget hook.
    pub fn budget_charged(&self) -> usize {
        self.driver.budget_charged()
    }

    /// Serialize the complete resumable state of the shared session —
    /// reader window plus **every subscriber slot** (live, failed and
    /// detached alike), each plan class's pump and the wake schedule — into a
    /// `flux-state` envelope. Restores via
    /// [`SubscriptionSet::restore_session`](crate::SubscriptionSet::restore_session)
    /// against a set with the same queries in the same order; resumed
    /// subscribers produce byte-identical output to never having
    /// snapshotted. Refuses once the shared input has failed to parse.
    pub fn snapshot(&self) -> Result<Vec<u8>, FluxError> {
        if self.error.is_some() {
            return Err(FluxError::Snapshot(flux_state::StateError::NotQuiescent(
                "shared session has failed; finish_parts() reports the cause",
            )));
        }
        // Snapshots happen between feeds, and every feed drains its tape
        // batches to quiescence — the tape is transient and never
        // serialized, so its bytes must not (and cannot) reach the
        // envelope.
        debug_assert!(self.tape.is_empty(), "snapshot between feeds implies a drained tape");
        let mut env = flux_state::Envelope::new();

        let mut meta = flux_state::Enc::new();
        meta.put_u8(flux_state::KIND_SHARED);
        meta.put_uint(self.plan.state_fingerprint());
        meta.put_bool(self.paused);
        env.add(flux_state::section::META, meta);

        let mut reader = flux_state::Enc::new();
        self.reader.state_save(&mut reader).map_err(FluxError::Snapshot)?;
        env.add(flux_state::section::READER, reader);

        let mut fanout = flux_state::Enc::new();
        self.driver.state_save(&mut fanout).map_err(FluxError::Snapshot)?;
        env.add(flux_state::section::FANOUT, fanout);

        let mut budget = flux_state::Enc::new();
        budget.put_usize(self.driver.budget_charged());
        env.add(flux_state::section::BUDGET, budget);

        Ok(env.into_bytes())
    }

    /// Rebuild a shared session from [`SharedSession::snapshot`] bytes.
    /// `sinks` holds one fresh sink per subscription in set order; `None`
    /// is allowed exactly for subscribers the snapshot records as detached
    /// (their sinks were handed back before the snapshot).
    pub(crate) fn restore(
        plan: Arc<FanoutPlan>,
        sinks: Vec<Option<S>>,
        budget: Option<Arc<dyn BudgetHook>>,
        snapshot: &[u8],
        pre_granted: bool,
    ) -> Result<SharedSession<S>, FluxError> {
        let sections = flux_state::Sections::parse(snapshot).map_err(FluxError::Snapshot)?;
        let mut meta = sections.require(flux_state::section::META).map_err(FluxError::Snapshot)?;
        let kind = meta.get_u8().map_err(FluxError::Snapshot)?;
        if kind != flux_state::KIND_SHARED {
            return Err(FluxError::Snapshot(flux_state::StateError::Corrupt(
                "snapshot holds a single-query session, not a shared fan-out one",
            )));
        }
        let found = meta.get_uint().map_err(FluxError::Snapshot)?;
        let expected = plan.state_fingerprint();
        if found != expected {
            return Err(FluxError::Snapshot(flux_state::StateError::PlanMismatch {
                expected,
                found,
            }));
        }
        let paused = meta.get_bool().map_err(FluxError::Snapshot)?;

        let mut rdec =
            sections.require(flux_state::section::READER).map_err(FluxError::Snapshot)?;
        let reader =
            Reader::state_restore(plan.options().reader, Arc::clone(plan.symbols()), &mut rdec)
                .map_err(FluxError::Snapshot)?;

        let mut fdec =
            sections.require(flux_state::section::FANOUT).map_err(FluxError::Snapshot)?;
        let driver = if pre_granted {
            FanoutDriver::state_load_pregranted(&plan, sinks, budget.clone(), &mut fdec)
        } else {
            FanoutDriver::state_load(&plan, sinks, budget.clone(), &mut fdec)
        }
        .map_err(FluxError::Snapshot)?;

        let delivery = plan.options().reader.delivery.resolved();
        Ok(SharedSession {
            reader,
            driver,
            error: None,
            budget,
            paused,
            plan,
            delivery,
            tape: EventTape::new(),
            tape_stats: TapeTelemetry::default(),
        })
    }

    /// The compiled fan-out plan this session executes.
    pub(crate) fn plan_arc(&self) -> Arc<FanoutPlan> {
        Arc::clone(&self.plan)
    }

    /// Tear the session down and hand every subscriber's sink back without
    /// finishing: `None` for slots already detached via
    /// [`SharedSession::abort_sub`] (matching what
    /// [`SharedSession::restore`] expects), `Some` for the rest — failed
    /// subscribers included. Outstanding budget charges are released.
    pub(crate) fn into_sinks(self) -> Vec<Option<S>> {
        self.driver
            .abort_all()
            .into_iter()
            .map(|t| match t {
                flux_engine::SubTeardown::Detached => None,
                flux_engine::SubTeardown::Failed(_, sink)
                | flux_engine::SubTeardown::Aborted(sink) => Some(sink),
            })
            .collect()
    }

    /// Signal end of input and complete every subscription.
    ///
    /// One entry per subscriber, in subscription order, mirroring
    /// [`Session::finish_parts`](crate::Session::finish_parts): the
    /// outcome plus the sink (returned on success *and* on failure; `None`
    /// only for subscribers aborted earlier via
    /// [`SharedSession::abort_sub`], whose sinks were already handed
    /// back — their outcome reads [`FluxError::SessionAborted`]). Every
    /// completed subscriber's output and statistics are identical to an
    /// independent [`Session`](crate::Session) run over the same bytes.
    #[allow(clippy::type_complexity)]
    pub fn finish_parts(mut self) -> Vec<(Result<RunStats, FluxError>, Option<S>)> {
        if self.error.is_none() {
            self.reader.close();
            self.run(&[]);
        }
        match self.error {
            // The shared input itself is broken: every subscriber fails
            // with the same cause, holding the output an independent run
            // would have streamed before the same failure.
            Some(xml) => self
                .driver
                .abort_all()
                .into_iter()
                .map(|t| match t {
                    flux_engine::SubTeardown::Detached => (Err(FluxError::SessionAborted), None),
                    flux_engine::SubTeardown::Failed(e, sink) => {
                        (Err(FluxError::Engine(e)), Some(sink))
                    }
                    flux_engine::SubTeardown::Aborted(sink) => {
                        (Err(FluxError::Engine(EngineError::Xml(xml.clone()))), Some(sink))
                    }
                })
                .collect(),
            None => {
                // One shared parse serves every subscriber: the scanner
                // and tape telemetry of the single reader is the telemetry
                // of each subscription. Skip-pre-screen counters stay
                // per-subscriber — each pump screened its own subtrees.
                let scan = self.reader.scan_telemetry();
                let tape = self.tape_stats;
                let (quick_hits, quick_misses) = self.reader.quick_counters();
                self.driver
                    .finish()
                    .into_iter()
                    .map(|entry| match entry {
                        None => (Err(FluxError::SessionAborted), None),
                        Some((res, sink)) => (
                            res.map(|mut stats| {
                                stats.scan = scan;
                                stats.tape.batches = tape.batches;
                                stats.tape.events = tape.events;
                                stats.tape.fast_forwarded = tape.fast_forwarded;
                                stats.tape.quick_hits = quick_hits;
                                stats.tape.quick_misses = quick_misses;
                                stats
                            })
                            .map_err(Into::into),
                            Some(sink),
                        ),
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, QueryRegistry, SubscriptionSet};
    use flux_xml::StringSink;

    const DTD: &str = "<!ELEMENT bib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const Q_BOOKS: &str = "<books>{ for $b in $ROOT/bib/book return \
        <hit> {$b/title} </hit> }</books>";
    const Q_ARTICLES: &str = "<articles>{ for $a in $ROOT/bib/article return \
        <hit> {$a/headline} </hit> }</articles>";
    const DOC: &str = "<bib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        </bib>";

    fn set() -> SubscriptionSet {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let mut reg = QueryRegistry::new();
        reg.register("articles", engine.prepare(Q_ARTICLES).unwrap());
        reg.register("books", engine.prepare(Q_BOOKS).unwrap());
        SubscriptionSet::compile(&reg).unwrap()
    }

    #[test]
    fn chunked_shared_run_matches_independent_sessions() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let set = set();
        for chunk in [1usize, 7, 64] {
            let mut s = set.session_strings();
            for c in DOC.as_bytes().chunks(chunk) {
                s.feed(c).unwrap();
            }
            let outs = s.finish_parts();
            for (id, (res, sink)) in set.ids().iter().zip(outs) {
                let q = match id.as_str() {
                    "articles" => Q_ARTICLES,
                    _ => Q_BOOKS,
                };
                let reference = engine.prepare(q).unwrap().run_str(DOC).unwrap();
                assert_eq!(sink.unwrap().as_str(), reference.output);
                assert_eq!(res.unwrap(), reference.stats);
            }
        }
    }

    #[test]
    fn parse_error_fans_out_to_every_subscriber() {
        let set = set();
        let mut s = set.session_strings();
        // A mismatched end tag is a well-formedness error of the shared
        // input itself.
        s.feed(b"<bib><book><title>T</zzz>").unwrap();
        assert!(s.is_aborted());
        assert!(matches!(s.feed(b"x"), Err(FluxError::SessionAborted)));
        let outs = s.finish_parts();
        assert_eq!(outs.len(), 2);
        for (res, sink) in outs {
            assert!(matches!(res, Err(FluxError::Engine(EngineError::Xml(_)))));
            assert!(sink.is_some(), "partial output recovered");
        }
    }

    #[test]
    fn abort_sub_detaches_one_and_finishes_the_rest() {
        let set = set();
        let mut s = set.session_strings();
        let (head, tail) = DOC.as_bytes().split_at(40);
        s.feed(head).unwrap();
        let sink = s.abort_sub(0).expect("first abort yields the sink");
        let _ = sink.into_string();
        assert_eq!(s.live_subscribers(), 1);
        s.feed(tail).unwrap();
        let outs = s.finish_parts();
        assert!(matches!(outs[0], (Err(FluxError::SessionAborted), None)));
        let (res, sink) = &outs[1];
        assert!(res.is_ok());
        assert!(sink.as_ref().unwrap().as_str().contains("<title>T1</title>"));
    }

    #[test]
    fn one_failing_subscriber_leaves_the_stream_running() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let set = set();
        let mut s = set.session_strings();
        // zzz violates article's content model: the articles subscription
        // fails; books never looks inside articles and streams on.
        let doc = "<bib>\
            <article><zzz/><headline>H</headline><author>B</author></article>\
            <book><title>T</title><author>A</author></book>\
            </bib>";
        for c in doc.as_bytes().chunks(9) {
            s.feed(c).unwrap();
        }
        assert!(!s.is_aborted(), "per-subscriber failure is not a stream failure");
        assert!(s.sub_failed(0));
        assert_eq!(s.live_subscribers(), 1);
        let outs = s.finish_parts();
        let (articles_res, articles_sink) = &outs[0];
        assert!(articles_res.is_err());
        assert!(articles_sink.is_some());
        let (books_res, books_sink) = &outs[1];
        let reference = engine.prepare(Q_BOOKS).unwrap().run_str(doc).unwrap();
        assert_eq!(books_sink.as_ref().unwrap().as_str(), reference.output);
        assert_eq!(*books_res.as_ref().unwrap(), reference.stats);
    }

    #[test]
    fn unbudgeted_gate_always_admits() {
        let set = set();
        let mut s = set.session_strings();
        for c in DOC.as_bytes().chunks(11) {
            assert_eq!(s.feed_outcome(c).unwrap(), FeedOutcome::Accepted);
            assert!(!s.is_paused());
        }
        assert_eq!(s.resume().unwrap(), FeedOutcome::Accepted);
        for (res, _) in s.finish_parts() {
            res.unwrap();
        }
    }

    #[test]
    fn dropped_shared_session_is_clean() {
        let set = set();
        let mut s = set.session_strings();
        s.feed(b"<bib><book><title>T").unwrap();
        drop(s);
    }

    #[test]
    fn truncated_input_fails_every_subscriber_like_independent_runs() {
        let set = set();
        let mut s = set.session(vec![StringSink::new(), StringSink::new()]);
        s.feed(b"<bib><book><title>T</title>").unwrap();
        let outs = s.finish_parts();
        for (res, sink) in outs {
            assert!(res.is_err());
            assert!(sink.is_some());
        }
    }
}
