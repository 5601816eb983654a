//! One shard: single-threaded multiplexing of many live [`Session`]s.

use std::sync::Arc;

use flux_engine::{BudgetHook, RunStats};
use flux_xml::Sink;

use crate::api::PreparedQuery;
use crate::error::FluxError;
use crate::fanout::SubscriptionSet;
use crate::runtime::{FeedOutcome, Finished, Session, SharedSession};

/// Handle to one session inside a [`Shard`].
///
/// Ids are generation-checked: using an id after its session finished (and
/// the slot was reused) panics instead of touching the wrong stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Handle to one [`SharedSession`] inside a [`Shard`] — a separate id
/// space from [`SessionId`], equally generation-checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedSessionId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// A single-threaded multiplexer of many live [`Session`]s — the unit the
/// multi-core [`Runtime`](crate::Runtime) schedules, usable on its own
/// wherever one thread is enough.
///
/// Because sessions execute inline on `feed`, mass concurrency needs no
/// scheduler: hold the sessions in a shard, feed whichever stream has
/// bytes, finish whichever closed. One thread comfortably drives tens of
/// thousands of sessions this way (see `examples/session_multiplex.rs` and
/// the `flux-bench` `concurrency` bin); each session keeps its own sink,
/// and the shard exposes aggregate buffer accounting. Plug in an
/// [`AdmissionController`](crate::AdmissionController) (or any
/// [`BudgetHook`]) with [`Shard::with_budget`] and every session opened on
/// the shard charges the shared budget — [`Shard::feed`] then reports
/// [`FeedOutcome::Backpressure`] when the pool runs tight, and
/// [`Shard::resume`] picks a paused session back up.
///
/// ```
/// use flux::prelude::*;
///
/// let engine = Engine::builder()
///     .dtd_str("<!ELEMENT a (#PCDATA)>")
///     .build().unwrap();
/// let q = engine.prepare("<r>{ for $x in $ROOT/a return {$x} }</r>").unwrap();
///
/// let mut shard = Shard::new();
/// let ids: Vec<_> = (0..100).map(|_| shard.open(&q, StringSink::new())).collect();
/// // Interleave: feed all sessions round-robin, byte by byte.
/// let doc = b"<a>hi</a>";
/// for i in 0..doc.len() {
///     for &id in &ids {
///         let _ = shard.feed(id, &doc[i..i + 1]).unwrap();
///     }
/// }
/// for id in ids {
///     let fin = shard.finish(id).unwrap();
///     assert_eq!(fin.sink.as_str(), "<r><a>hi</a></r>");
/// }
/// assert!(shard.is_empty());
/// ```
pub struct Shard<S: Sink> {
    slots: Vec<(u32, Option<Session<S>>)>,
    free: Vec<u32>,
    live: usize,
    /// Shared fan-out sessions, in their own slot space (most shards never
    /// open one; single-query sessions stay on the dense hot path).
    shared: Vec<(u32, Option<SharedSession<S>>)>,
    shared_free: Vec<u32>,
    shared_live: usize,
    /// Shared budget every session opened here charges (None = unbudgeted).
    budget: Option<Arc<dyn BudgetHook>>,
}

impl<S: Sink> Default for Shard<S> {
    fn default() -> Self {
        Shard::new()
    }
}

impl<S: Sink> Shard<S> {
    /// An empty, unbudgeted shard.
    pub fn new() -> Shard<S> {
        Self::build(None)
    }

    /// An empty shard whose sessions all charge `budget` — typically an
    /// [`AdmissionController`](crate::AdmissionController) hook shared by
    /// every shard of a service.
    pub fn with_budget(budget: Arc<dyn BudgetHook>) -> Shard<S> {
        Self::build(Some(budget))
    }

    fn build(budget: Option<Arc<dyn BudgetHook>>) -> Shard<S> {
        Shard {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            shared: Vec::new(),
            shared_free: Vec::new(),
            shared_live: 0,
            budget,
        }
    }

    /// Open a new session for `query`, writing to `sink`.
    pub fn open(&mut self, query: &PreparedQuery, sink: S) -> SessionId {
        let session = match &self.budget {
            Some(hook) => query.session_with_budget(sink, Arc::clone(hook)),
            None => query.session(sink),
        };
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.1 = Some(session);
                SessionId { idx, gen: slot.0 }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 sessions");
                self.slots.push((0, Some(session)));
                SessionId { idx, gen: 0 }
            }
        }
    }

    fn slot(&mut self, id: SessionId) -> &mut Session<S> {
        let (gen, session) = &mut self.slots[id.idx as usize];
        assert_eq!(*gen, id.gen, "stale SessionId: that session already finished");
        session.as_mut().expect("session present while the generation matches")
    }

    /// Close a slot, bumping its generation so stale ids are caught.
    fn take(&mut self, id: SessionId) -> Session<S> {
        let (gen, session) = &mut self.slots[id.idx as usize];
        assert_eq!(*gen, id.gen, "stale SessionId: that session already finished");
        let s = session.take().expect("session present while the generation matches");
        *gen += 1;
        self.free.push(id.idx);
        self.live -= 1;
        s
    }

    /// Feed a chunk to one session ([`Session::feed_outcome`]): on
    /// [`FeedOutcome::Backpressure`] the chunk was refused — re-feed the
    /// same bytes once [`Shard::resume`] succeeds (budget frees when other
    /// sessions release buffers). Use
    /// [`session(id).feed(..)`](Session::feed) to bypass the admission
    /// gate for bytes already committed.
    pub fn feed(&mut self, id: SessionId, chunk: &[u8]) -> Result<FeedOutcome, FluxError> {
        self.slot(id).feed_outcome(chunk)
    }

    /// Re-check the admission gate for a session whose chunk was refused
    /// ([`Session::resume`]).
    pub fn resume(&mut self, id: SessionId) -> Result<FeedOutcome, FluxError> {
        self.slot(id).resume()
    }

    /// Finish one session and release its slot ([`Session::finish`]).
    pub fn finish(&mut self, id: SessionId) -> Result<Finished<S>, FluxError> {
        self.take(id).finish()
    }

    /// Finish one session, recovering the sink on failure too
    /// ([`Session::finish_parts`]).
    pub fn finish_parts(&mut self, id: SessionId) -> (Result<RunStats, FluxError>, Option<S>) {
        self.take(id).finish_parts()
    }

    /// Drop one session mid-stream (its slot is released, and so is
    /// everything it charged to the shared budget; no output is produced
    /// beyond what already streamed to its sink).
    pub fn abort(&mut self, id: SessionId) {
        drop(self.take(id));
    }

    /// Direct access to one live session.
    pub fn session(&mut self, id: SessionId) -> &mut Session<S> {
        self.slot(id)
    }

    /// Open a shared fan-out session over a compiled [`SubscriptionSet`]:
    /// one parse, `set.len()` subscribers, one sink each (in
    /// [`SubscriptionSet::ids`] order). Shares the shard's budget hook
    /// like every single-query session, charging it once per distinct plan
    /// in the set.
    pub fn open_shared(&mut self, set: &SubscriptionSet, sinks: Vec<S>) -> SharedSessionId {
        let session = match &self.budget {
            Some(hook) => set.session_with_budget(sinks, Arc::clone(hook)),
            None => set.session(sinks),
        };
        self.shared_live += 1;
        match self.shared_free.pop() {
            Some(idx) => {
                let slot = &mut self.shared[idx as usize];
                slot.1 = Some(session);
                SharedSessionId { idx, gen: slot.0 }
            }
            None => {
                let idx =
                    u32::try_from(self.shared.len()).expect("fewer than 2^32 shared sessions");
                self.shared.push((0, Some(session)));
                SharedSessionId { idx, gen: 0 }
            }
        }
    }

    fn shared_slot(&mut self, id: SharedSessionId) -> &mut SharedSession<S> {
        let (gen, session) = &mut self.shared[id.idx as usize];
        assert_eq!(*gen, id.gen, "stale SharedSessionId: that session already finished");
        session.as_mut().expect("shared session present while the generation matches")
    }

    fn take_shared(&mut self, id: SharedSessionId) -> SharedSession<S> {
        let (gen, session) = &mut self.shared[id.idx as usize];
        assert_eq!(*gen, id.gen, "stale SharedSessionId: that session already finished");
        let s = session.take().expect("shared session present while the generation matches");
        *gen += 1;
        self.shared_free.push(id.idx);
        self.shared_live -= 1;
        s
    }

    /// Feed a chunk to a shared session
    /// ([`SharedSession::feed_outcome`]) — the one tokenization that
    /// drives all its subscribers. Backpressure is stream-level: on
    /// [`FeedOutcome::Backpressure`] the chunk was refused for the whole
    /// fan-out; re-feed after [`Shard::resume_shared`] succeeds.
    pub fn feed_shared(
        &mut self,
        id: SharedSessionId,
        chunk: &[u8],
    ) -> Result<FeedOutcome, FluxError> {
        self.shared_slot(id).feed_outcome(chunk)
    }

    /// Re-check the admission gate for a stalled shared session.
    pub fn resume_shared(&mut self, id: SharedSessionId) -> Result<FeedOutcome, FluxError> {
        self.shared_slot(id).resume()
    }

    /// Finish a shared session, releasing its slot: one entry per
    /// subscriber ([`SharedSession::finish_parts`]).
    #[allow(clippy::type_complexity)]
    pub fn finish_shared(
        &mut self,
        id: SharedSessionId,
    ) -> Vec<(Result<RunStats, FluxError>, Option<S>)> {
        self.take_shared(id).finish_parts()
    }

    /// Drop a whole shared session mid-stream, releasing its slot and
    /// everything its subscribers charged to the shared budget.
    pub fn abort_shared(&mut self, id: SharedSessionId) {
        drop(self.take_shared(id));
    }

    /// Abort a single subscriber of a shared session
    /// ([`SharedSession::abort_sub`]); the parse keeps running for the
    /// rest.
    pub fn abort_shared_sub(&mut self, id: SharedSessionId, sub: usize) -> Option<S> {
        self.shared_slot(id).abort_sub(sub)
    }

    /// Direct access to one live shared session.
    pub fn shared_session(&mut self, id: SharedSessionId) -> &mut SharedSession<S> {
        self.shared_slot(id)
    }

    /// Number of live single-query sessions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of live shared fan-out sessions.
    pub fn shared_len(&self) -> usize {
        self.shared_live
    }

    /// Is the shard empty (no live sessions of either kind)?
    pub fn is_empty(&self) -> bool {
        self.live == 0 && self.shared_live == 0
    }

    /// Total bytes held across all live sessions of both kinds (buffers,
    /// captures, and unparsed input tails) — the admission-control
    /// quantity for a multi-tenant service.
    pub fn buffered_bytes(&self) -> usize {
        let single: usize =
            self.slots.iter().filter_map(|(_, s)| s.as_ref()).map(Session::buffered_bytes).sum();
        let shared: usize = self
            .shared
            .iter()
            .filter_map(|(_, s)| s.as_ref())
            .map(SharedSession::buffered_bytes)
            .sum();
        single + shared
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
    fn shard_reuses_slots_and_checks_generations() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut shard = Shard::new();
        let a = shard.open(&q, StringSink::new());
        assert_eq!(shard.feed(a, DOC.as_bytes()).unwrap(), FeedOutcome::Accepted);
        shard.finish(a).unwrap();
        assert!(shard.is_empty());
        let b = shard.open(&q, StringSink::new());
        assert_eq!(a.idx, b.idx, "slot reused");
        assert_ne!(a.gen, b.gen, "generation bumped");
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.feed(a, b"x").ok();
        }));
        assert!(stale.is_err(), "stale id must panic, not cross streams");
        shard.abort(b);
        assert!(shard.is_empty());
    }

    #[test]
    fn shard_multiplexes_shared_sessions_alongside_single_ones() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut reg = crate::QueryRegistry::new();
        reg.register("q", q.clone());
        reg.register("q2", q.clone());
        let set = crate::SubscriptionSet::compile(&reg).unwrap();
        let reference = q.run_str(DOC).unwrap();

        let mut shard = Shard::new();
        let single = shard.open(&q, StringSink::new());
        let shared = shard.open_shared(&set, vec![StringSink::new(), StringSink::new()]);
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.shared_len(), 1);
        assert!(!shard.is_empty());
        for chunk in DOC.as_bytes().chunks(5) {
            let _ = shard.feed(single, chunk).unwrap();
            let _ = shard.feed_shared(shared, chunk).unwrap();
        }
        assert_eq!(shard.resume_shared(shared).unwrap(), FeedOutcome::Accepted);
        for (res, sink) in shard.finish_shared(shared) {
            res.unwrap();
            assert_eq!(sink.unwrap().as_str(), reference.output);
        }
        shard.finish(single).unwrap();
        assert!(shard.is_empty());
        // Slot reuse bumps the generation; stale shared ids must panic.
        let again = shard.open_shared(&set, vec![StringSink::new(), StringSink::new()]);
        assert_eq!(again.idx, shared.idx);
        assert_ne!(again.gen, shared.gen);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.feed_shared(shared, b"x").ok();
        }));
        assert!(stale.is_err(), "stale shared id must panic");
        let sink = shard.abort_shared_sub(again, 0).expect("sub abort yields the sink");
        let _ = sink.into_string();
        shard.abort_shared(again);
        assert!(shard.is_empty());
    }

    #[test]
    fn shard_accounts_buffers() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let mut shard = Shard::new();
        let a = shard.open(&q, StringSink::new());
        let b = shard.open(&q, StringSink::new());
        // Unfinished tag tails are retained and accounted.
        let _ = shard.feed(a, b"<bib><book><title>very long pending text").unwrap();
        let _ = shard.feed(b, b"<bib").unwrap();
        assert!(shard.buffered_bytes() > 0);
        shard.abort(a);
        shard.abort(b);
        assert_eq!(shard.buffered_bytes(), 0);
    }
}
