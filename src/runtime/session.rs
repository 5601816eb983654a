//! Incremental, push-based query execution — sans IO, sans threads.
//!
//! The paper's engine is a *pull* loop: it recurses over scopes and blocks
//! on the parser for the next event. A network service sees the opposite
//! shape — bytes are *pushed* at it, chunk by chunk, with arbitrary
//! boundaries. [`Session`] inverts the control flow *inside the engine*:
//! the execution is a resumable state machine ([`flux_engine::Pump`]) fed
//! by an incremental parser, so [`Session::feed`] runs the plan inline on
//! the caller's thread until the fed bytes are exhausted, then returns.
//! There is no worker thread, no channel, no condition variable, and no
//! copy of the payload: each chunk is parsed where the caller holds it (the
//! session carries over only the tail of the construct a chunk's end cuts
//! in two), and output streams to the session's [`Sink`] as soon as the
//! schedule allows — a fully-streaming plan emits results while the
//! document is still arriving.
//!
//! Chunk boundaries are invisible to the engine — the incremental reader
//! rolls back any construct that runs off the end of the fed bytes and
//! re-parses it when more arrive — so output bytes *and* every statistic
//! (`peak_buffer_bytes` in particular) are identical to a one-shot run over
//! the concatenation of the chunks. `tests/session_chunking.rs` asserts
//! this for every possible split position.
//!
//! Because a session is just a plain value (reader state + machine state),
//! serving N concurrent streams costs N small structs — not N OS threads —
//! and a single thread can multiplex thousands of live sessions: that is
//! the [`Shard`](crate::Shard) layer, and [`Runtime`](crate::Runtime)
//! spreads shards across cores. Memory per session is bounded by the
//! engine's buffer plan (plus the tail of one unparsed construct); the
//! per-session buffer-limit policy is
//! [`EngineBuilder::max_buffer_bytes`](crate::EngineBuilder::max_buffer_bytes),
//! and an [`AdmissionController`](crate::AdmissionController) additionally
//! bounds the *aggregate* across sessions — a session under admission
//! control reports [`FeedOutcome::Backpressure`] from
//! [`Session::feed_outcome`] when the shared budget runs tight.

use std::sync::Arc;

use flux_engine::{BudgetHook, CompiledQuery, EngineError, Pump, RunStats, StreamInterest};
use flux_xml::{
    DeliveryMode, EventTape, FeedSource, InPlace, Polled, Reader, Sink, SkipPoll, SkipScan,
    TapeFill, TapeTelemetry,
};

use crate::error::FluxError;
use crate::runtime::FeedOutcome;

/// What a finished session produced.
#[derive(Debug)]
pub struct Finished<S> {
    /// Run statistics — identical to a one-shot run over the same bytes.
    pub stats: RunStats,
    /// The sink handed to [`PreparedQuery::session`](crate::PreparedQuery::session),
    /// with all output written.
    pub sink: S,
}

/// One incremental execution of a [`PreparedQuery`](crate::PreparedQuery).
///
/// Feed chunks as they arrive, then [`finish`](Session::finish) to signal
/// end of input and collect the [`RunStats`] and the sink. Execution
/// happens *inside* `feed`, on the caller's thread; a session holds no
/// thread or other OS resource, so dropping one mid-stream is trivially
/// clean and thousands can be live at once (see [`Shard`](crate::Shard)).
pub struct Session<S: Sink> {
    reader: Reader<FeedSource>,
    pump: Pump<S>,
    /// The first error the run hit; later calls report `SessionAborted`
    /// and [`Session::finish_parts`] surfaces this cause.
    error: Option<FluxError>,
    /// Shared admission hook: consulted between events to pause execution
    /// while aggregate headroom is scarce. `None` = never pause.
    budget: Option<Arc<dyn BudgetHook>>,
    /// The last [`Session::feed_outcome`] was refused with
    /// [`FeedOutcome::Backpressure`] and no [`Session::resume`] has
    /// succeeded since. The refused chunk was never absorbed — nothing
    /// waits in the reader; the caller re-feeds it.
    paused: bool,
    /// Resolved event delivery strategy (builder choice ∘ `FLUX_FORCE_PULL`).
    delivery: DeliveryMode,
    /// Reusable tape for batched delivery; always empty between feeds
    /// (drained before control returns), so it never appears in snapshots.
    tape: EventTape,
    /// Session-side delivery counters (batches, events, fast-forwards);
    /// merged into [`RunStats::tape`] at finish.
    tape_stats: TapeTelemetry,
}

impl<S: Sink> Session<S> {
    pub(crate) fn new(plan: Arc<CompiledQuery>, sink: S) -> Session<S> {
        Session::with_budget(plan, sink, None)
    }

    pub(crate) fn with_budget(
        plan: Arc<CompiledQuery>,
        sink: S,
        budget: Option<Arc<dyn BudgetHook>>,
    ) -> Session<S> {
        let reader =
            Reader::incremental_with_symbols(plan.options().reader, Arc::clone(plan.symbols()));
        let delivery = plan.options().reader.delivery.resolved();
        let pump = match &budget {
            Some(hook) => Pump::with_budget(plan, sink, Arc::clone(hook)),
            None => Pump::new(plan, sink),
        };
        Session {
            reader,
            pump,
            error: None,
            budget,
            paused: false,
            delivery,
            tape: EventTape::new(),
            tape_stats: TapeTelemetry::default(),
        }
    }

    /// Push the next chunk of the document. Chunks may split the XML at any
    /// byte boundary, including inside tags and multi-byte characters.
    ///
    /// The engine runs inline: every event completed by this chunk is
    /// processed (and its output written) before `feed` returns, so a
    /// caller is naturally back-pressured by its own sink. The chunk is
    /// parsed where it lies — the session never holds raw input beyond the
    /// tail of one unparsed construct, in bytes retained *and* in heap (a
    /// [`DeliveryMode::PerEvent`] session still copies each chunk first).
    ///
    /// Returns [`FluxError::SessionAborted`] when the run has already
    /// failed on earlier input; call [`finish`](Session::finish) (or
    /// [`finish_parts`](Session::finish_parts)) to learn the cause.
    ///
    /// This method bypasses the admission gate: the chunk is absorbed and
    /// executed even while the shared budget is tight (every charge is
    /// still strictly enforced — see [`Session::feed_outcome`] for the
    /// flow-controlled variant). That makes it the right call for input
    /// the caller has already committed to deliver, e.g. to complete a
    /// document whose buffers are exactly what will free the pool.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), FluxError> {
        if self.error.is_some() {
            return Err(FluxError::SessionAborted);
        }
        // A bypass feed executes: the session is no longer waiting.
        self.paused = false;
        self.run(chunk);
        Ok(())
    }

    /// [`Session::feed`] behind the admission gate. While the shared
    /// budget is tight *and* this session holds no buffers, the chunk is
    /// refused — nothing is absorbed, [`FeedOutcome::Backpressure`] is
    /// returned, and the caller re-feeds the same chunk once
    /// [`Session::resume`] reports [`FeedOutcome::Accepted`] (budget frees
    /// when other sessions release buffers: scope exits, finishes, aborts).
    ///
    /// A session that already holds buffers is always admitted: processing
    /// its input is what completes and releases those buffers, so gating it
    /// would trade memory pressure for livelock. The aggregate can still
    /// never exceed the budget — a charge the pool cannot grant fails the
    /// run with [`flux_engine::EngineError::BudgetDenied`].
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

    /// Re-check the admission gate after [`FeedOutcome::Backpressure`]:
    /// [`FeedOutcome::Accepted`] means feeds will be admitted again (the
    /// refused chunk was never absorbed — re-feed it). Cheap to call
    /// speculatively: one atomic read.
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

    /// Did the last [`Session::feed_outcome`] refuse its chunk (and no
    /// [`Session::resume`] has succeeded since)?
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Is the admission gate closed for this session right now? Keyed on
    /// the session's *outstanding shared-budget charges* (not its local
    /// buffer count, which `Top::Simple` plans never touch): a session
    /// with charges must keep draining, because its progress is what
    /// releases them back to the pool.
    fn gated(&self) -> bool {
        match &self.budget {
            Some(b) => b.should_pause() && self.pump.budget_charged() == 0,
            None => false,
        }
    }

    /// Parse `chunk` and pump every event it completes through the
    /// machine; errors are stored for [`Session::finish_parts`], like the
    /// one-shot run would surface them.
    fn run(&mut self, chunk: &[u8]) {
        let res = match self.delivery {
            DeliveryMode::Tape => {
                let mut feed = self.reader.feed_in_place(chunk);
                Self::drain_events_tape(
                    &mut feed,
                    &mut self.pump,
                    &mut self.tape,
                    &mut self.tape_stats,
                )
            }
            DeliveryMode::PerEvent => {
                self.reader.feed(chunk);
                loop {
                    match self.reader.poll_resolved() {
                        Ok(Polled::Event(ev)) => {
                            if let Err(e) = self.pump.feed_event(ev) {
                                break Err(e.into());
                            }
                        }
                        Ok(Polled::NeedMoreData | Polled::End) => break Ok(()),
                        // Parse errors surface exactly as the engine reports
                        // them on the one-shot path.
                        Err(e) => break Err(FluxError::Engine(EngineError::Xml(e))),
                    }
                }
            }
        };
        if let Err(e) = res {
            self.error = Some(e);
        }
    }

    /// Batched drain: fill the tape, walk it with a tight index loop, and
    /// repeat until the chunk being fed is exhausted. Semantically identical
    /// to the per-event loop — a parse error is surfaced only after the
    /// events parsed before it are delivered, exactly as pulling would.
    fn drain_events_tape(
        feed: &mut InPlace<'_>,
        pump: &mut Pump<S>,
        tape: &mut EventTape,
        stats: &mut TapeTelemetry,
    ) -> Result<(), FluxError> {
        loop {
            // Reader-side fast-forward: when the pump wants a whole subtree
            // skipped, the reader scans past it structurally — no
            // recording, no materialization, no per-event pump feed. The
            // closing end tag is delivered normally: by the next batch, or
            // — when the general machinery had already committed it — as
            // the single event `skip_events` hands back on the tape.
            if let StreamInterest::SkipSubtree { depth } = pump.stream_interest() {
                match feed.skip_events(depth, tape) {
                    Ok(SkipPoll::Closed { events }) => {
                        if events > 0 {
                            pump.fast_forward_skip(events);
                            stats.events += events;
                            stats.fast_forwarded += events;
                        }
                        if !tape.is_empty() {
                            stats.batches += 1;
                            stats.events += tape.len() as u64;
                            Self::drain_tape(feed, pump, tape, stats)?;
                        }
                    }
                    Ok(SkipPoll::More { events, depth }) => {
                        if events > 0 {
                            pump.fast_forward_skip_to(depth, events);
                            stats.events += events;
                            stats.fast_forwarded += events;
                        }
                        return Ok(());
                    }
                    Err(e) => return Err(FluxError::Engine(EngineError::Xml(e))),
                }
            }
            let fill = feed.fill_tape(tape);
            if !tape.is_empty() {
                stats.batches += 1;
                stats.events += tape.len() as u64;
                Self::drain_tape(feed, pump, tape, stats)?;
            }
            match fill {
                Ok(TapeFill::Full) => {}
                Ok(TapeFill::NeedMoreData | TapeFill::End) => return Ok(()),
                Err(e) => return Err(FluxError::Engine(EngineError::Xml(e))),
            }
        }
    }

    /// Feed one drained batch to the pump. A pump reporting
    /// [`StreamInterest::SkipSubtree`] fast-forwards *within the tape*:
    /// the recorded close events are scanned directly and the pump is
    /// reconciled in one call instead of fed event by event.
    fn drain_tape(
        feed: &InPlace<'_>,
        pump: &mut Pump<S>,
        tape: &mut EventTape,
        stats: &mut TapeTelemetry,
    ) -> Result<(), FluxError> {
        let n = tape.len();
        let mut i = 0;
        let res = loop {
            if i >= n {
                break Ok(());
            }
            if let StreamInterest::SkipSubtree { depth } = pump.stream_interest() {
                match tape.skip_scan(i, depth) {
                    SkipScan::Close { at, skipped } => {
                        if skipped > 0 {
                            pump.fast_forward_skip(skipped);
                            stats.fast_forwarded += skipped;
                        }
                        // The closing tag itself is fed normally: it pops
                        // the skip state and fires pending handlers.
                        i = at;
                    }
                    SkipScan::Tail { depth, skipped } => {
                        // Batch ends inside the subtree; the skip resumes
                        // `depth` deep on the next batch.
                        if skipped > 0 {
                            pump.fast_forward_skip_to(depth, skipped);
                            stats.fast_forwarded += skipped;
                        }
                        break Ok(());
                    }
                }
            }
            if let Err(e) = pump.feed_event(feed.tape_event(tape, i)) {
                break Err(FluxError::from(e));
            }
            i += 1;
        };
        // The tape is cleared even when the pump failed mid-batch: its
        // remaining events are never delivered (the session is poisoned),
        // and stale window spans must not outlive the feed.
        tape.clear();
        res
    }

    /// Signal end of input and complete the run.
    ///
    /// On failure the sink is dropped with the session; use
    /// [`finish_parts`](Session::finish_parts) to recover it (partial
    /// streamed output, an open connection) alongside the error.
    pub fn finish(self) -> Result<Finished<S>, FluxError> {
        let (res, sink) = self.finish_parts();
        let stats = res?;
        Ok(Finished { stats, sink: sink.expect("sink present when the run succeeded") })
    }

    /// Signal end of input, complete the run, and return the outcome
    /// together with the sink — which is handed back on success *and* on
    /// failure.
    ///
    /// Finishing ignores the admission gate: the remaining input drains to
    /// completion here, with the budget still strictly enforced — a charge
    /// the shared pool genuinely cannot grant fails the run with
    /// [`flux_engine::EngineError::BudgetDenied`].
    pub fn finish_parts(mut self) -> (Result<RunStats, FluxError>, Option<S>) {
        if self.error.is_none() {
            self.reader.close();
            self.run(&[]);
        }
        match self.error.take() {
            // A failed run is abandoned, not finished: the recovered sink
            // holds exactly what a one-shot run wrote before the same
            // failure — no end-of-input epilogue is appended.
            Some(e) => (Err(e), Some(self.pump.abort())),
            None => {
                let scan = self.reader.scan_telemetry();
                let (quick_hits, quick_misses) = self.reader.quick_counters();
                let tape = self.tape_stats;
                let (fin, sink) = self.pump.finish();
                (
                    fin.map(|mut stats| {
                        stats.scan = scan;
                        // Session- and reader-side delivery counters; the
                        // pre-screen counters are the machine's own.
                        stats.tape.batches = tape.batches;
                        stats.tape.events = tape.events;
                        stats.tape.fast_forwarded = tape.fast_forwarded;
                        stats.tape.quick_hits = quick_hits;
                        stats.tape.quick_misses = quick_misses;
                        stats
                    })
                    .map_err(Into::into),
                    Some(sink),
                )
            }
        }
    }

    /// Serialize the complete resumable state of this session into a
    /// versioned `flux-state` envelope: the incremental reader's unparsed
    /// tail and open-element stack, the pump's scope stack, captures,
    /// observers and statistics, and the outstanding budget charges. The
    /// bytes restore via
    /// [`PreparedQuery::restore_session`](crate::PreparedQuery::restore_session)
    /// — in this process, in another process, or on another machine — and
    /// the resumed run's output and stats are byte-identical to never having
    /// snapshotted (`tests/snapshot_equivalence.rs` asserts this at every
    /// chunk boundary).
    ///
    /// Sessions are quiescent between `feed` calls, which is the only time a
    /// caller can invoke this, so the engine-level quiescence refusals are
    /// unreachable from safe use; a session that has already failed refuses
    /// (restoring a poisoned run is never meaningful).
    pub fn snapshot(&self) -> Result<Vec<u8>, FluxError> {
        if self.error.is_some() {
            return Err(FluxError::Snapshot(flux_state::StateError::NotQuiescent(
                "session has failed; finish_parts() reports the cause",
            )));
        }
        // Batch-drain quiescence: every fill is drained before control
        // returns to the caller, so the tape never has anything to save —
        // snapshot bytes are identical across delivery modes.
        debug_assert!(self.tape.is_empty(), "snapshot between feeds implies a drained tape");
        let mut env = flux_state::Envelope::new();

        let mut meta = flux_state::Enc::new();
        meta.put_u8(flux_state::KIND_SESSION);
        meta.put_uint(self.pump.plan().state_fingerprint());
        meta.put_bool(self.paused);
        env.add(flux_state::section::META, meta);

        let mut reader = flux_state::Enc::new();
        self.reader.state_save(&mut reader).map_err(FluxError::Snapshot)?;
        env.add(flux_state::section::READER, reader);

        let mut pump = flux_state::Enc::new();
        self.pump.state_save(&mut pump).map_err(FluxError::Snapshot)?;
        env.add(flux_state::section::PUMP, pump);

        let mut budget = flux_state::Enc::new();
        budget.put_usize(self.pump.budget_charged());
        env.add(flux_state::section::BUDGET, budget);

        Ok(env.into_bytes())
    }

    /// Rebuild a session from [`Session::snapshot`] bytes. The plan must
    /// fingerprint-match the one the snapshot was taken from; recorded
    /// budget charges are re-granted through `budget` (refusal fails the
    /// restore with [`flux_state::StateError::BudgetDenied`], charging
    /// nothing, so the caller can retry when headroom returns). With
    /// `pre_granted` the caller already reserved the snapshot's recorded
    /// charges through `budget` (see [`flux_state::snapshot_charges`]) and
    /// the restore adopts the reservation instead of growing again.
    pub(crate) fn restore(
        plan: Arc<CompiledQuery>,
        sink: S,
        budget: Option<Arc<dyn BudgetHook>>,
        snapshot: &[u8],
        pre_granted: bool,
    ) -> Result<Session<S>, FluxError> {
        let sections = flux_state::Sections::parse(snapshot).map_err(FluxError::Snapshot)?;
        let mut meta = sections.require(flux_state::section::META).map_err(FluxError::Snapshot)?;
        let kind = meta.get_u8().map_err(FluxError::Snapshot)?;
        if kind != flux_state::KIND_SESSION {
            return Err(FluxError::Snapshot(flux_state::StateError::Corrupt(
                "snapshot holds a shared fan-out session, not a single-query one",
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

        let delivery = plan.options().reader.delivery.resolved();
        let mut pdec = sections.require(flux_state::section::PUMP).map_err(FluxError::Snapshot)?;
        let pump = if pre_granted {
            Pump::state_load_pregranted(plan, sink, budget.clone(), &mut pdec)
        } else {
            Pump::state_load(plan, sink, budget.clone(), &mut pdec)
        }
        .map_err(FluxError::Snapshot)?;

        Ok(Session {
            reader,
            pump,
            error: None,
            budget,
            paused,
            delivery,
            tape: EventTape::new(),
            tape_stats: TapeTelemetry::default(),
        })
    }

    /// The compiled plan this session executes (for runtime layers that
    /// must re-associate a snapshot with its plan).
    pub(crate) fn plan_arc(&self) -> Arc<CompiledQuery> {
        Arc::clone(self.pump.plan())
    }

    /// Tear the session down and hand its sink back without finishing the
    /// run; outstanding budget charges are released. The spill/migrate
    /// half-step: callers snapshot first, then reclaim the sink here and
    /// later restore around it.
    pub(crate) fn into_sink(self) -> S {
        self.pump.abort()
    }

    /// Bytes this session currently holds: runtime buffers and captures
    /// (the quantity bounded by
    /// [`EngineBuilder::max_buffer_bytes`](crate::EngineBuilder::max_buffer_bytes))
    /// plus the unparsed tail of the fed input.
    pub fn buffered_bytes(&self) -> usize {
        self.pump.buffered_bytes() + self.reader.unconsumed_bytes()
    }

    /// Has this session failed on earlier input? (The cause is reported by
    /// [`Session::finish_parts`].)
    pub fn is_aborted(&self) -> bool {
        self.error.is_some()
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
    const DOC: &str = "<bib><book><title>T</title><author>A</author>\
        <publisher>P</publisher><price>1</price></book></bib>";

    #[test]
    fn chunked_session_matches_one_shot() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let reference = q.run_str(DOC).unwrap();

        let mut s = q.session(StringSink::new());
        let (a, b) = DOC.as_bytes().split_at(17);
        s.feed(a).unwrap();
        s.feed(b).unwrap();
        let fin = s.finish().unwrap();
        assert_eq!(fin.sink.as_str(), reference.output);
        assert_eq!(fin.stats, reference.stats);
    }

    #[test]
    fn byte_at_a_time_feed() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let reference = q.run_str(DOC).unwrap();
        let mut s = q.session_string();
        for b in DOC.as_bytes() {
            s.feed(std::slice::from_ref(b)).unwrap();
        }
        let fin = s.finish().unwrap();
        assert_eq!(fin.sink.into_string(), reference.output);
        assert_eq!(fin.stats, reference.stats);
    }

    #[test]
    fn unbudgeted_feed_outcome_is_always_accepted() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        for chunk in DOC.as_bytes().chunks(7) {
            assert_eq!(s.feed_outcome(chunk).unwrap(), FeedOutcome::Accepted);
            assert!(!s.is_paused());
        }
        assert_eq!(s.resume().unwrap(), FeedOutcome::Accepted);
        s.finish().unwrap();
    }

    #[test]
    fn truncated_input_reports_xml_error() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        s.feed(b"<bib><book><title>T</title>").unwrap();
        let err = s.finish().unwrap_err();
        assert!(matches!(err, crate::FluxError::Engine(_)), "{err}");
    }

    #[test]
    fn finish_parts_recovers_the_sink_on_failure() {
        // Partial streamed output must survive a failed run.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session(StringSink::new());
        // One complete book streams through before the input breaks off.
        s.feed(
            b"<bib><book><title>T</title><author>A</author>\
              <publisher>P</publisher><price>1</price></book><book>",
        )
        .unwrap();
        let (res, sink) = s.finish_parts();
        assert!(res.is_err());
        let partial = sink.expect("sink recovered on failure").into_string();
        assert!(partial.contains("<title>T</title>"), "partial output kept: {partial}");
    }

    #[test]
    fn dropped_session_is_clean() {
        // No worker, no pipe: dropping mid-stream releases everything.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        s.feed(b"<bib><book><title>T").unwrap();
        drop(s);
    }

    #[test]
    fn feed_after_error_reports_aborted_and_finish_reports_the_cause() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut s = q.session_string();
        // An element the schema forbids at this position: the run fails
        // inline, during this very feed.
        s.feed(b"<bib><zzz>").unwrap();
        assert!(s.is_aborted());
        let err = s.feed(b"<book>").unwrap_err();
        assert!(matches!(err, FluxError::SessionAborted), "{err}");
        let (res, sink) = s.finish_parts();
        let cause = res.unwrap_err();
        assert!(cause.to_string().contains("zzz"), "{cause}");
        assert!(sink.is_some(), "sink recovered after feed-after-error");
    }

    #[test]
    fn failed_session_sink_matches_the_one_shot_partial() {
        // A failed run must not append the end-of-input epilogue (post
        // strings, end-deferred on-first output): the recovered sink has to
        // be byte-identical to the one-shot run's partial sink.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let doc = b"<bib><book><title>T</title><author>A</author>\
                    <publisher>P</publisher><price>1</price></book></bib>junk";
        let (one_shot_res, one_shot_sink) = q.compiled().run_sink(&doc[..], StringSink::new());
        assert!(one_shot_res.is_err());
        let mut s = q.session(StringSink::new());
        s.feed(doc).unwrap();
        let (res, sink) = s.finish_parts();
        assert!(res.is_err());
        assert_eq!(sink.unwrap().as_str(), one_shot_sink.as_str());
    }

    #[test]
    fn large_document_streams_in_constant_memory() {
        // A multi-megabyte document must flow through without the session
        // retaining it: the streaming plan buffers nothing, and the reader
        // keeps only the unparsed tail of the current construct.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let book = "<book><title>T</title><author>A</author>\
                    <publisher>P</publisher><price>1</price></book>";
        let books = (3 << 20) / book.len() + 1;
        let mut s = q.session_string();
        s.feed(b"<bib>").unwrap();
        for _ in 0..books {
            s.feed(book.as_bytes()).unwrap();
            assert!(s.buffered_bytes() < 128, "retained {}", s.buffered_bytes());
        }
        s.feed(b"</bib>").unwrap();
        let fin = s.finish().unwrap();
        assert_eq!(fin.stats.peak_buffer_bytes, 0);
        assert_eq!(fin.sink.as_str().matches("<result>").count(), books);
    }

    #[test]
    fn many_sessions_from_one_preparation() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let reference = q.run_str(DOC).unwrap();
        let sessions: Vec<_> = (0..8).map(|_| q.session_string()).collect();
        let mut outs = Vec::new();
        for mut s in sessions {
            s.feed(DOC.as_bytes()).unwrap();
            outs.push(s.finish().unwrap());
        }
        for fin in outs {
            assert_eq!(fin.sink.as_str(), reference.output);
            assert_eq!(fin.stats.peak_buffer_bytes, 0);
        }
    }
}
