//! Fleet-wide admission control: one byte budget across many sessions.
//!
//! The paper bounds buffer memory per run; these tests pin the *aggregate*
//! bound across a fleet:
//!
//! * the recorded aggregate never exceeds the configured budget — asserted
//!   through an independent counting accounting hook wrapped around the
//!   [`AdmissionController`];
//! * budget exhaustion mid-stream across ≥ 3 sessions refuses new growth
//!   with [`FeedOutcome::Backpressure`] (nothing absorbed, nothing lost);
//! * a backpressured session resumes once a competing session completes;
//! * sessions release everything they charged on finish, abort and drop;
//! * a single event larger than the whole budget is denied (error), not
//!   deadlocked;
//! * the multi-core [`Runtime`] queues refused chunks and resumes them
//!   automatically, with deterministic stall/resume events on one worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flux::prelude::*;

/// The weak schema forces author buffering until each book closes — the
/// paper's Section 1 motivation, here used to park bytes in session
/// buffers at will.
const WEAK_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

fn prepared() -> PreparedQuery {
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    engine.prepare(QUERY).unwrap()
}

/// `<bib><book><author>xxx…` — feeding this parks ~`payload` bytes in the
/// session's buffer until the book closes.
fn hold_prefix(payload: usize) -> String {
    format!("<bib><book><author>{}</author>", "x".repeat(payload))
}

const SUFFIX: &str = "<title>t</title></book></bib>";

/// An independent counting hook wrapped around the controller: the tests'
/// witness that the recorded aggregate never exceeds the budget, whatever
/// the controller claims about itself.
struct CountingHook {
    inner: Arc<dyn BudgetHook>,
    used: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingHook {
    fn over(ctrl: &AdmissionController) -> Arc<CountingHook> {
        Arc::new(CountingHook {
            inner: ctrl.hook(),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }
    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

impl BudgetHook for CountingHook {
    fn try_grow(&self, bytes: usize) -> bool {
        if !self.inner.try_grow(bytes) {
            return false;
        }
        let now = self.used.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.peak.fetch_max(now, Ordering::SeqCst);
        true
    }
    fn release(&self, bytes: usize) {
        // Count down *before* returning the bytes to the pool: once the
        // pool may re-grant them to another thread, this witness must not
        // still be holding them, or its peak could transiently read above
        // the budget. (No underflow: a release happens-after its own grant
        // on the same session's thread.)
        self.used.fetch_sub(bytes, Ordering::SeqCst);
        self.inner.release(bytes);
    }
    fn should_pause(&self) -> bool {
        self.inner.should_pause()
    }
    // Wrapping hooks must forward wakeup subscriptions, or sessions they
    // pause would sleep through the release edge.
    fn subscribe_waker(&self, waker: &Arc<flux::engine::BudgetWaker>) {
        self.inner.subscribe_waker(waker);
    }
}

#[test]
fn exhaustion_across_three_sessions_then_resume_after_a_completion() {
    let q = prepared();
    let reference = q.run_str(&(hold_prefix(1000) + SUFFIX)).unwrap();

    let ctrl = AdmissionController::with_reserve(3000, 1200);
    let mut shard = Shard::with_budget(ctrl.hook());
    let a = shard.open(&q, StringSink::new());
    let b = shard.open(&q, StringSink::new());
    let c = shard.open(&q, StringSink::new());

    let prefix = hold_prefix(1000);
    // Two sessions park ~1012 bytes each: headroom drops under the reserve.
    assert_eq!(shard.feed(a, prefix.as_bytes()).unwrap(), FeedOutcome::Accepted);
    let after_one = ctrl.used();
    assert!(after_one >= 1000, "author buffered: {after_one}");
    assert_eq!(shard.feed(b, prefix.as_bytes()).unwrap(), FeedOutcome::Accepted);
    assert!(ctrl.is_tight(), "two holders exhaust the headroom");

    // The third session holds nothing: the gate refuses its chunk.
    assert_eq!(shard.feed(c, prefix.as_bytes()).unwrap(), FeedOutcome::Backpressure);
    assert!(shard.session(c).is_paused());
    assert_eq!(ctrl.used(), 2 * after_one, "refused chunk charged nothing");
    assert_eq!(shard.resume(c).unwrap(), FeedOutcome::Backpressure, "still tight");

    // Holders keep draining (that is what frees the pool): complete A.
    assert_eq!(shard.feed(a, SUFFIX.as_bytes()).unwrap(), FeedOutcome::Accepted);
    let fin_a = shard.finish(a).unwrap();
    assert_eq!(fin_a.sink.as_str(), reference.output);
    assert_eq!(ctrl.used(), after_one, "A released its buffers");

    // Now the gate opens for C: re-feed the refused chunk.
    assert_eq!(shard.resume(c).unwrap(), FeedOutcome::Accepted);
    assert_eq!(shard.feed(c, prefix.as_bytes()).unwrap(), FeedOutcome::Accepted);
    assert_eq!(shard.feed(c, SUFFIX.as_bytes()).unwrap(), FeedOutcome::Accepted);
    assert_eq!(shard.feed(b, SUFFIX.as_bytes()).unwrap(), FeedOutcome::Accepted);
    assert_eq!(shard.finish(b).unwrap().sink.as_str(), reference.output);
    assert_eq!(shard.finish(c).unwrap().sink.as_str(), reference.output);
    assert_eq!(ctrl.used(), 0, "everything released");
    assert!(ctrl.peak_used() <= ctrl.budget());
}

#[test]
fn counting_hook_proves_the_aggregate_never_exceeds_the_budget() {
    const BUDGET: usize = 4000;
    const N: usize = 6;
    let q = prepared();
    let ctrl = AdmissionController::with_reserve(BUDGET, 1500);
    let counting = CountingHook::over(&ctrl);
    let mut shard: Shard<StringSink> = Shard::with_budget(counting.clone());

    // Three books per session, chunks split right after each author so a
    // chunk boundary always parks a buffer.
    let docs: Vec<String> = (0..N)
        .map(|i| {
            let books: String = (0..3)
                .map(|j| {
                    format!(
                        "<book><author>{}</author><title>t{i}-{j}</title></book>",
                        "a".repeat(600)
                    )
                })
                .collect();
            format!("<bib>{books}</bib>")
        })
        .collect();
    let references: Vec<String> = docs.iter().map(|d| q.run_str(d).unwrap().output).collect();
    let chunks: Vec<Vec<&[u8]>> = docs
        .iter()
        .map(|d| {
            let bytes = d.as_bytes();
            let mut cuts = vec![0usize];
            let mut at = 0;
            while let Some(i) = d[at..].find("</author>") {
                at += i + "</author>".len();
                cuts.push(at);
            }
            cuts.push(bytes.len());
            cuts.windows(2).map(|w| &bytes[w[0]..w[1]]).filter(|c| !c.is_empty()).collect()
        })
        .collect();

    let ids: Vec<SessionId> = (0..N).map(|_| shard.open(&q, StringSink::new())).collect();
    let mut off = [0usize; N];
    let mut outputs: Vec<Option<String>> = vec![None; N];
    let mut saw_backpressure = false;
    while outputs.iter().any(Option::is_none) {
        let mut progressed = false;
        for i in 0..N {
            if outputs[i].is_some() {
                continue;
            }
            if off[i] < chunks[i].len() {
                match shard.feed(ids[i], chunks[i][off[i]]).unwrap() {
                    FeedOutcome::Accepted => {
                        off[i] += 1;
                        progressed = true;
                    }
                    FeedOutcome::Backpressure => saw_backpressure = true,
                }
            }
            if off[i] == chunks[i].len() {
                outputs[i] = Some(shard.finish(ids[i]).unwrap().sink.into_string());
                progressed = true;
            }
        }
        assert!(progressed, "the admission gate must not livelock the fleet");
    }
    for (i, out) in outputs.into_iter().enumerate() {
        assert_eq!(out.unwrap(), references[i], "session {i}");
    }
    assert!(saw_backpressure, "the budget must actually bite in this workload");
    assert!(
        counting.peak() <= BUDGET,
        "aggregate peak {} exceeded the {BUDGET}-byte budget",
        counting.peak()
    );
    assert!(counting.peak() > 0);
    assert_eq!(ctrl.used(), 0);
}

#[test]
fn budget_releases_on_abort_and_drop() {
    let q = prepared();
    let ctrl = AdmissionController::new(1 << 20);

    // Shard-managed: abort mid-hold returns the charge.
    let mut shard = Shard::with_budget(ctrl.hook());
    let a = shard.open(&q, StringSink::new());
    assert_eq!(shard.feed(a, hold_prefix(2000).as_bytes()).unwrap(), FeedOutcome::Accepted);
    assert!(ctrl.used() >= 2000);
    shard.abort(a);
    assert_eq!(ctrl.used(), 0, "abort released the charge");

    // Bare session: dropping mid-hold returns the charge too.
    let mut s = q.session_with_budget(StringSink::new(), ctrl.hook());
    s.feed(hold_prefix(2000).as_bytes()).unwrap();
    assert!(ctrl.used() >= 2000);
    drop(s);
    assert_eq!(ctrl.used(), 0, "drop released the charge");

    // And a failed session as well (validation error mid-hold).
    let mut s = q.session_with_budget(StringSink::new(), ctrl.hook());
    s.feed(hold_prefix(2000).as_bytes()).unwrap();
    s.feed(b"<zzz>").unwrap(); // schema violation: run fails inline
    assert!(s.is_aborted());
    let (res, _sink) = s.finish_parts();
    assert!(res.is_err());
    assert_eq!(ctrl.used(), 0, "failed run released the charge");
}

#[test]
fn materializing_plans_stay_admitted_while_they_hold_the_pool() {
    // A hand-written FluX plan with no process-stream makes the engine
    // materialize the document (Top::Simple), charging the shared budget
    // without touching the scoped-buffer counter. The admission gate must
    // key on the session's outstanding *charges*, not its scoped buffers —
    // otherwise the one session able to free the pool gets refused forever.
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    let q = engine.prepare_flux_str("{ $ROOT/bib }").unwrap();
    let doc = hold_prefix(1500) + SUFFIX;
    let reference = q.run_str(&doc).unwrap();

    let ctrl = AdmissionController::with_reserve(4000, 2600);
    let mut s = q.session_with_budget(StringSink::new(), ctrl.hook());
    assert_eq!(s.feed_outcome(hold_prefix(1500).as_bytes()).unwrap(), FeedOutcome::Accepted);
    assert!(ctrl.used() >= 1500, "materialized tree charged: {}", ctrl.used());
    assert!(ctrl.is_tight(), "the charges push headroom under the reserve");

    // A fresh session holding nothing is gated …
    let mut fresh = q.session_with_budget(StringSink::new(), ctrl.hook());
    assert_eq!(fresh.feed_outcome(b"<bib>").unwrap(), FeedOutcome::Backpressure);
    // … but the holder keeps draining to completion.
    assert_eq!(s.feed_outcome(SUFFIX.as_bytes()).unwrap(), FeedOutcome::Accepted);
    let fin = s.finish().unwrap();
    assert_eq!(fin.sink.as_str(), reference.output);
    drop(fresh);
    assert_eq!(ctrl.used(), 0, "materialized tree released at finish/drop");
}

#[test]
fn oversized_event_is_denied_not_deadlocked() {
    let q = prepared();
    let ctrl = AdmissionController::new(256);
    let mut s = q.session_with_budget(StringSink::new(), ctrl.hook());
    // A single author larger than the entire budget can never fit: the
    // strict hook denies the charge and the run fails — no silent overrun,
    // no waiting for a release that cannot come.
    s.feed(hold_prefix(4096).as_bytes()).unwrap();
    let (res, _sink) = s.finish_parts();
    match res.unwrap_err() {
        FluxError::Engine(flux::engine::EngineError::BudgetDenied { requested }) => {
            assert!(requested > 256, "the oversized charge is the one denied: {requested}");
        }
        other => panic!("expected BudgetDenied, got {other}"),
    }
    assert_eq!(ctrl.used(), 0, "denied run released everything");
    assert!(ctrl.peak_used() <= ctrl.budget());
}

#[test]
fn runtime_queues_refused_chunks_and_resumes_deterministically() {
    let q = prepared();
    let reference = q.run_str(&(hold_prefix(1000) + SUFFIX)).unwrap();
    let ctrl = AdmissionController::with_reserve(3000, 1200);

    // One worker: the mailbox is FIFO and retries run after every command,
    // so the stall/resume sequence is fully deterministic.
    let mut rt: Runtime<StringSink> = Runtime::with_admission(1, ctrl.clone());
    let a = rt.open(&q, StringSink::new());
    let b = rt.open(&q, StringSink::new());
    let c = rt.open(&q, StringSink::new());
    let prefix = hold_prefix(1000);
    rt.feed(a, prefix.as_bytes());
    rt.feed(b, prefix.as_bytes()); // two holders: pool goes tight
    rt.feed(c, prefix.as_bytes()); // refused: queued behind the gate
    rt.feed(a, SUFFIX.as_bytes()); // closes A's book → the retry admits C
    rt.finish(a);
    rt.feed(b, SUFFIX.as_bytes());
    rt.feed(c, SUFFIX.as_bytes());
    rt.finish(b);
    rt.finish(c);

    let mut log = Vec::new();
    for _ in 0..5 {
        match rt.wait_event().expect("workers alive") {
            RuntimeEvent::Stalled { id, .. } => log.push(format!("stalled-{}", name(id, a, b, c))),
            RuntimeEvent::Resumed { id } => log.push(format!("resumed-{}", name(id, a, b, c))),
            RuntimeEvent::Finished { id, result, sink } => {
                result.unwrap();
                assert_eq!(sink.unwrap().as_str(), reference.output);
                log.push(format!("finished-{}", name(id, a, b, c)));
            }
            other => unreachable!("nothing aborts and nothing is shared here: {other:?}"),
        }
    }
    assert_eq!(
        log,
        ["stalled-c", "resumed-c", "finished-a", "finished-b", "finished-c"],
        "deterministic single-worker stall/resume order"
    );
    assert_eq!(ctrl.used(), 0);
    assert!(ctrl.peak_used() <= ctrl.budget());
    assert!(rt.drain().is_empty());
}

#[test]
fn stalled_sessions_resume_on_the_release_edge_without_a_tick() {
    // PR 4 resumed cross-worker stalls on a 200 µs mailbox-idle retry tick;
    // the tick is gone, so a stalled worker sleeps until the release edge
    // fires its BudgetWaker. This test would *hang* (not merely slow down)
    // if the wakeup were lost: after the Stalled event no further command
    // is ever sent to the runtime — the only thing that can un-stall the
    // session is the budget release performed on this thread.
    let q = prepared();
    let reference = q.run_str(&(hold_prefix(1000) + SUFFIX)).unwrap();
    let ctrl = AdmissionController::with_reserve(3000, 1200);

    // An external holder (a bare session on this thread, not managed by the
    // runtime) parks enough bytes to close the admission gate.
    let mut holder = q.session_with_budget(StringSink::new(), ctrl.hook());
    holder.feed(hold_prefix(2200).as_bytes()).unwrap();
    assert!(ctrl.is_tight(), "the holder closes the gate");

    // Deterministic 1-worker runtime: its only session stalls immediately.
    let mut rt: Runtime<StringSink> = Runtime::with_admission(1, ctrl.clone());
    let s = rt.open(&q, StringSink::new());
    rt.feed(s, hold_prefix(1000).as_bytes());
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Stalled { id, .. } => assert_eq!(id, s),
        other => panic!("expected a stall, got {other:?}"),
    }

    // Release the pool from this thread. No command accompanies it: the
    // Resumed event below can only come from the wakeup channel.
    drop(holder);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Resumed { id } => assert_eq!(id, s),
        other => panic!("expected the release-edge resume, got {other:?}"),
    }

    rt.feed(s, SUFFIX.as_bytes());
    rt.finish(s);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Finished { id, result, sink } => {
            assert_eq!(id, s);
            result.unwrap();
            assert_eq!(sink.unwrap().as_str(), reference.output);
        }
        other => panic!("expected the finish, got {other:?}"),
    }
    assert_eq!(ctrl.used(), 0);
    assert!(rt.drain().is_empty());
}

#[test]
fn wrapped_hooks_deliver_wakeups_through_the_forwarded_subscription() {
    // Same release-edge shape, but the runtime charges the CountingHook
    // wrapper: the subscription must reach the controller through the
    // wrapper's subscribe_waker forwarding for the resume to ever arrive.
    let q = prepared();
    let ctrl = AdmissionController::with_reserve(3000, 1200);
    let counting = CountingHook::over(&ctrl);

    let mut holder = q.session_with_budget(StringSink::new(), counting.clone());
    holder.feed(hold_prefix(2200).as_bytes()).unwrap();
    assert!(ctrl.is_tight());

    let mut rt: Runtime<StringSink> = Runtime::with_budget(1, counting.clone());
    let s = rt.open(&q, StringSink::new());
    rt.feed(s, hold_prefix(1000).as_bytes());
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Stalled { id, .. } => assert_eq!(id, s),
        other => panic!("expected a stall, got {other:?}"),
    }
    drop(holder);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Resumed { id } => assert_eq!(id, s),
        other => panic!("expected the release-edge resume, got {other:?}"),
    }
    rt.feed(s, SUFFIX.as_bytes());
    rt.finish(s);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Finished { result, .. } => {
            result.unwrap();
        }
        other => panic!("expected the finish, got {other:?}"),
    }
    assert_eq!(ctrl.used(), 0);
    assert_eq!(counting.peak(), counting.peak().min(ctrl.budget()));
    let _ = rt.drain();
}

/// Three buffering queries with three different plans (the constructors
/// differ), each parking the held author text like [`QUERY`] does — three
/// plan classes, three charges.
fn distinct_buffering_registry() -> (QueryRegistry, Vec<PreparedQuery>) {
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    let mut reg = QueryRegistry::new();
    let mut queries = Vec::new();
    for id in ["a", "b", "c"] {
        let q = engine
            .prepare(&format!(
                "<{id}>{{ for $b in $ROOT/bib/book return <r> {{$b/title}} {{$b/author}} </r> }}</{id}>"
            ))
            .unwrap();
        reg.register(id, q.clone());
        queries.push(q);
    }
    (reg, queries)
}

/// Three subscriptions to one and the same query: one plan class.
fn identical_registry() -> (QueryRegistry, PreparedQuery) {
    let q = prepared();
    let mut reg = QueryRegistry::new();
    for id in ["a", "b", "c"] {
        reg.register(id, q.clone());
    }
    (reg, q)
}

/// What one independent session of `q` charges after the 500-byte hold.
fn solo_charge(q: &PreparedQuery) -> usize {
    let ctrl = AdmissionController::new(1 << 20);
    let mut s = q.session_with_budget(StringSink::new(), ctrl.hook());
    s.feed(hold_prefix(500).as_bytes()).unwrap();
    ctrl.used()
}

fn string_sinks(set: &SubscriptionSet) -> Vec<StringSink> {
    (0..set.len()).map(|_| StringSink::new()).collect()
}

#[test]
fn shared_fanout_charges_each_plan_class_once_and_returns_to_zero_on_finish() {
    // The counting-hook aggregate over a *shared* run. Three subscribers
    // with three different plans each buffer their own copy of the held
    // author text — their charges are their own, exactly as in three
    // independent sessions — and the whole aggregate returns to zero on
    // finish.
    let (reg, queries) = distinct_buffering_registry();
    let set = SubscriptionSet::compile(&reg).unwrap();
    assert_eq!(set.plan().classes().len(), 3);
    let doc = hold_prefix(500) + SUFFIX;

    let ctrl = AdmissionController::new(1 << 20);
    let counting = CountingHook::over(&ctrl);
    let mut s = set.session_with_budget(string_sinks(&set), counting.clone());

    s.feed(hold_prefix(500).as_bytes()).unwrap();
    let held = ctrl.used();
    assert!(held >= 3 * 500, "three plans each hold the author: {held}");
    assert_eq!(held, queries.iter().map(solo_charge).sum::<usize>());
    assert_eq!(s.budget_charged(), held, "session accounting agrees with the pool");

    s.feed(SUFFIX.as_bytes()).unwrap();
    assert_eq!(ctrl.used(), 0, "buffers flush when each book closes");
    for ((res, sink), q) in s.finish_parts().into_iter().zip(&queries) {
        res.unwrap();
        assert_eq!(sink.unwrap().as_str(), q.run_str(&doc).unwrap().output);
    }
    assert_eq!(ctrl.used(), 0);
    assert!(counting.peak() >= held);
}

#[test]
fn identical_shared_subscribers_hold_one_charge_released_by_the_last() {
    // Three subscribers of *one* plan are one class: one pump, one copy of
    // the held author text, one charge — what a single independent session
    // holds, not three times that. Aborting a member that is not the last
    // releases nothing (the survivors still need the buffer); the last one
    // out releases all of it, there and then.
    let (reg, q) = identical_registry();
    let reference = q.run_str(&(hold_prefix(500) + SUFFIX)).unwrap();
    let set = SubscriptionSet::compile(&reg).unwrap();
    assert_eq!(set.plan().classes(), [vec![0, 1, 2]]);

    let ctrl = AdmissionController::new(1 << 20);
    let counting = CountingHook::over(&ctrl);
    let mut s = set.session_with_budget(string_sinks(&set), counting.clone());
    s.feed(hold_prefix(500).as_bytes()).unwrap();
    let held = ctrl.used();
    assert_eq!(held, solo_charge(&q), "three identical subscribers hold one charge");
    assert_eq!(s.budget_charged(), held);

    let first = s.abort_sub(1).expect("sink recovered");
    assert!(reference.output.starts_with(first.as_str()));
    assert_eq!(ctrl.used(), held, "a non-last member's abort releases nothing");
    s.abort_sub(0).expect("sink recovered");
    assert_eq!(ctrl.used(), held);
    assert_eq!(s.live_subscribers(), 1);
    s.abort_sub(2).expect("sink recovered");
    assert_eq!(ctrl.used(), 0, "the last member out releases the class's charge");
    assert_eq!(s.budget_charged(), 0);

    // The parse itself goes on (other classes would keep streaming).
    s.feed(SUFFIX.as_bytes()).unwrap();
    for (res, sink) in s.finish_parts() {
        assert!(matches!(res, Err(FluxError::SessionAborted)));
        assert!(sink.is_none());
    }
    assert_eq!(ctrl.used(), 0);
    assert_eq!(counting.peak(), held);

    // And the plain path: all three finish, byte-identical, ledger at 0.
    let mut s = set.session_with_budget(string_sinks(&set), counting.clone());
    s.feed(hold_prefix(500).as_bytes()).unwrap();
    assert_eq!(ctrl.used(), held);
    s.feed(SUFFIX.as_bytes()).unwrap();
    for (res, sink) in s.finish_parts() {
        assert_eq!(res.unwrap(), reference.stats);
        assert_eq!(sink.unwrap().as_str(), reference.output);
    }
    assert_eq!(ctrl.used(), 0);
}

#[test]
fn aborting_one_shared_subscriber_returns_exactly_its_own_charge() {
    // Mid-stream abort of one subscriber out of three *different* plans
    // releases that subscriber's share immediately; the survivors keep
    // their holdings, finish normally, and the aggregate ends at zero.
    let (reg, queries) = distinct_buffering_registry();
    let doc = hold_prefix(500) + SUFFIX;
    let set = SubscriptionSet::compile(&reg).unwrap();

    let ctrl = AdmissionController::new(1 << 20);
    let counting = CountingHook::over(&ctrl);
    let mut s = set.session_with_budget(string_sinks(&set), counting.clone());

    s.feed(hold_prefix(500).as_bytes()).unwrap();
    let held = ctrl.used();
    assert!(held >= 3 * 500);

    let aborted = s.abort_sub(0).expect("sink recovered");
    // The streamed constructor prefix is already out, but the held author
    // text never flushed: the recovered sink is a strict prefix.
    assert!(queries[0].run_str(&doc).unwrap().output.starts_with(aborted.as_str()));
    assert!(!aborted.as_str().contains("xxx"));
    assert_eq!(ctrl.used(), held - solo_charge(&queries[0]), "exactly its own charge released");

    s.feed(SUFFIX.as_bytes()).unwrap();
    let parts = s.finish_parts();
    assert!(parts[0].1.is_none(), "the aborted subscriber's sink is already gone");
    for ((res, sink), q) in parts.into_iter().zip(&queries).skip(1) {
        res.unwrap();
        assert_eq!(sink.unwrap().as_str(), q.run_str(&doc).unwrap().output);
    }
    assert_eq!(ctrl.used(), 0, "survivors released everything on finish");
}

#[test]
fn dropping_a_shared_session_mid_stream_releases_the_whole_aggregate() {
    let (distinct, _) = distinct_buffering_registry();
    let (identical, _) = identical_registry();
    for (reg, classes) in [(distinct, 3), (identical, 1)] {
        let set = SubscriptionSet::compile(&reg).unwrap();
        let ctrl = AdmissionController::new(1 << 20);
        let mut s = set.session_with_budget(string_sinks(&set), CountingHook::over(&ctrl));
        s.feed(hold_prefix(500).as_bytes()).unwrap();
        assert!(ctrl.used() >= classes * 500);
        assert!(ctrl.used() < (classes + 1) * 500);
        drop(s);
        assert_eq!(ctrl.used(), 0, "drop mid-stream returns every charge");
    }
}

#[test]
fn restore_regrants_exactly_the_recorded_charges() {
    // ISSUE satellite: a snapshot's BUDGET section records the session's
    // outstanding charges; restore re-grants exactly that through the
    // hook, a pool without headroom refuses charging nothing, and the
    // aggregate returns to zero after the resumed run finishes.
    let q = prepared();
    let reference = q.run_str(&(hold_prefix(1000) + SUFFIX)).unwrap();
    let ctrl = AdmissionController::new(1 << 20);
    let counting = CountingHook::over(&ctrl);

    let mut s = q.session_with_budget(StringSink::new(), counting.clone());
    s.feed(hold_prefix(1000).as_bytes()).unwrap();
    let held = ctrl.used();
    assert!(held >= 1000, "the author text is charged: {held}");
    let snap = s.snapshot().unwrap();
    assert_eq!(
        flux::state::snapshot_charges(&snap).unwrap(),
        held,
        "the BUDGET section records exactly the outstanding charges"
    );
    drop(s);
    assert_eq!(ctrl.used(), 0, "the snapshotted original released everything");

    let mut resumed =
        q.restore_session_with_budget(StringSink::new(), counting.clone(), &snap).unwrap();
    assert_eq!(ctrl.used(), held, "restore re-granted exactly the recorded charges");
    resumed.feed(SUFFIX.as_bytes()).unwrap();
    let fin = resumed.finish().unwrap();
    assert_eq!(fin.stats, reference.stats);
    assert_eq!(ctrl.used(), 0, "aggregate returns to zero after the resumed finish");
    assert!(counting.peak() >= held);

    // A pool that cannot hold the recorded charges refuses the restore —
    // and the refusal charges nothing.
    let tight = AdmissionController::new(held / 2);
    let tight_counting = CountingHook::over(&tight);
    let err = q
        .restore_session_with_budget(StringSink::new(), tight_counting, &snap)
        .err()
        .expect("no headroom refuses the restore");
    assert!(
        matches!(err, FluxError::Snapshot(flux::state::StateError::BudgetDenied { .. })),
        "{err}"
    );
    assert_eq!(tight.used(), 0, "a refused restore charges nothing");
}

#[test]
fn unsuspending_into_a_tight_pool_stalls_and_resumes_on_the_release_edge() {
    // The runtime half of the re-grant contract: a suspended session's
    // charges went back to the pool with its buffers; if another holder
    // takes them, the re-admission reservation is refused — surfacing as a
    // Stalled event with the touching chunk queued — and the session
    // unparks on the exact release edge, finishing byte-identically.
    let q = prepared();
    let reference = q.run_str(&(hold_prefix(1000) + SUFFIX)).unwrap();
    let ctrl = AdmissionController::new(3000);
    let counting = CountingHook::over(&ctrl);
    let dir = std::env::temp_dir().join(format!("flux-admission-suspend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let policy =
        SuspendPolicy { idle_after: std::time::Duration::from_secs(3600), dir: dir.clone() };
    let mut rt: Runtime<StringSink> = Runtime::with_budget_and_suspend(1, counting.clone(), policy);
    let s = rt.open(&q, StringSink::new());
    rt.feed(s, hold_prefix(1000).as_bytes());
    rt.suspend(s);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Suspended { id, bytes } => {
            assert_eq!(id, s);
            assert!(bytes > 1000, "the spilled state carries the held author: {bytes}");
        }
        other => panic!("expected the suspend, got {other:?}"),
    }
    assert_eq!(ctrl.used(), 0, "suspend returned the charges to the pool");

    // An external holder takes (most of) the pool: the suspended session's
    // ~1012-byte re-admission no longer fits the 3000-byte budget.
    let mut holder = q.session_with_budget(StringSink::new(), counting.clone());
    holder.feed(hold_prefix(2200).as_bytes()).unwrap();
    assert!(ctrl.used() >= 2200);

    rt.feed(s, SUFFIX.as_bytes()); // touching it must re-admit first
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Stalled { id, .. } => assert_eq!(id, s),
        other => panic!("expected the refused re-admission stall, got {other:?}"),
    }

    // No command accompanies the release: the resume can only come from
    // the budget-release wakeup re-running the parked retry.
    drop(holder);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Resumed { id } => assert_eq!(id, s),
        other => panic!("expected the release-edge resume, got {other:?}"),
    }
    rt.finish(s);
    match rt.wait_event().expect("worker alive") {
        RuntimeEvent::Finished { id, result, sink } => {
            assert_eq!(id, s);
            result.unwrap();
            assert_eq!(
                sink.unwrap().as_str(),
                reference.output,
                "output spans suspend, stall and resume byte-identically"
            );
        }
        other => panic!("expected the finish, got {other:?}"),
    }
    assert_eq!(ctrl.used(), 0);
    assert!(rt.drain().is_empty());
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the spill file was consumed");
    let _ = std::fs::remove_dir_all(&dir);
}

fn name(id: RuntimeId, a: RuntimeId, b: RuntimeId, c: RuntimeId) -> &'static str {
    if id == a {
        "a"
    } else if id == b {
        "b"
    } else if id == c {
        "c"
    } else {
        "?"
    }
}

// ---------------------------------------------------------------------------
// Join indexes: transient bytes of a buffered join's firing, charged like
// any buffered byte and never a new way to fail.
// ---------------------------------------------------------------------------

/// A standalone pool that logs every request, can refuse one of them by
/// position, and tracks the aggregate and its peak.
#[derive(Default)]
struct LoggingHook {
    used: AtomicUsize,
    peak: AtomicUsize,
    requests: std::sync::Mutex<Vec<usize>>,
    deny_request: Option<usize>,
}

impl LoggingHook {
    fn used(&self) -> usize {
        self.used.load(Ordering::SeqCst)
    }
    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
    fn requests(&self) -> Vec<usize> {
        self.requests.lock().unwrap().clone()
    }
}

impl BudgetHook for LoggingHook {
    fn try_grow(&self, bytes: usize) -> bool {
        let mut requests = self.requests.lock().unwrap();
        requests.push(bytes);
        if self.deny_request == Some(requests.len() - 1) {
            return false;
        }
        let now = self.used.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.peak.fetch_max(now, Ordering::SeqCst);
        true
    }
    fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::SeqCst);
    }
}

/// XMark Q8 (a hash join) and Q11 (a key-column scan) over one small
/// document: source, prepared query and unconstrained reference run of each.
fn join_fixture() -> (String, Vec<(&'static str, PreparedQuery, RunOutcome)>) {
    use flux::xmark::{generate_string, XmarkConfig, Q11, Q8, XMARK_DTD};
    let (doc, _) = generate_string(&XmarkConfig::new(48 << 10));
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let runs = [Q8, Q11]
        .map(|src| {
            let q = engine.prepare(src).unwrap();
            let reference = q.run_str(&doc).unwrap();
            (src, q, reference)
        })
        .into();
    (doc, runs)
}

#[test]
fn join_index_is_charged_during_the_firing_and_returned_after_it() {
    let (doc, runs) = join_fixture();
    for (_, q, reference) in &runs {
        let hook = Arc::new(LoggingHook::default());
        let mut s = q.session_with_budget(StringSink::new(), hook.clone());
        s.feed(doc.as_bytes()).unwrap();
        // The join fired inside `feed`, once both sections had been seen.
        // Its index was the last thing requested, on top of all the buffers…
        let requests = hook.requests();
        let index = *requests.last().unwrap();
        let buffers: usize = requests[..requests.len() - 1].iter().sum();
        assert!(index > 0 && buffers > 0);
        assert_eq!(hook.peak(), buffers + index, "index charged while the join ran");
        // …and is gone again, with every buffer, before the run is over.
        assert_eq!(hook.used(), 0, "nothing is held at quiescence");
        let fin = s.finish().unwrap();
        assert_eq!(fin.sink.as_str(), reference.output);
        assert_eq!(fin.stats.peak_buffer_bytes, buffers + index, "the paper's metric sees it");
        assert_eq!(fin.stats.peak_buffer_bytes, reference.stats.peak_buffer_bytes);
        assert_eq!(fin.stats.final_buffer_bytes, 0);
        assert_eq!(hook.used(), 0);
    }
}

#[test]
fn a_refused_join_index_falls_back_to_the_nested_loop() {
    let (doc, runs) = join_fixture();
    for (_, q, reference) in &runs {
        // Learn the request sequence, then refuse exactly the index.
        let probe = Arc::new(LoggingHook::default());
        q.session_with_budget(StringSink::new(), probe.clone()).feed(doc.as_bytes()).unwrap();
        let requests = probe.requests();
        let (index, buffers) = (requests.len() - 1, probe.peak() - requests[requests.len() - 1]);

        let hook = Arc::new(LoggingHook { deny_request: Some(index), ..Default::default() });
        let mut s = q.session_with_budget(StringSink::new(), hook.clone());
        s.feed(doc.as_bytes()).unwrap();
        let fin = s.finish().expect("a refused index is not BudgetDenied");
        assert_eq!(fin.sink.as_str(), reference.output, "same bytes through the nested loop");
        assert_eq!(hook.requests().len(), requests.len(), "asked once, not once per person");
        assert_eq!(hook.peak(), buffers, "nothing was charged for the refused index");
        assert_eq!(fin.stats.peak_buffer_bytes, buffers);
        assert_eq!(hook.used(), 0);
    }
}

#[test]
fn a_buffer_limit_between_buffers_and_index_falls_back_too() {
    use flux::xmark::XMARK_DTD;
    let (doc, runs) = join_fixture();
    for (src, q, reference) in &runs {
        let probe = Arc::new(LoggingHook::default());
        q.session_with_budget(StringSink::new(), probe.clone()).feed(doc.as_bytes()).unwrap();
        let index = *probe.requests().last().unwrap();
        let buffers = probe.peak() - index;

        // Room for the buffers and half an index: the run completes on the
        // nested path, byte-identical, and stays under its limit.
        let limited = Engine::builder()
            .dtd_str(XMARK_DTD)
            .max_buffer_bytes(buffers + index / 2)
            .build()
            .unwrap()
            .prepare(src)
            .unwrap();
        let run = limited.run_str(&doc).expect("a limit that fits the buffers is not BufferLimit");
        assert_eq!(run.output, reference.output);
        assert_eq!(run.stats.peak_buffer_bytes, buffers);

        // The limit itself is as strict as ever.
        let starved = Engine::builder()
            .dtd_str(XMARK_DTD)
            .max_buffer_bytes(buffers - 1)
            .build()
            .unwrap()
            .prepare(src)
            .unwrap();
        assert!(matches!(
            starved.run_str(&doc),
            Err(FluxError::Engine(flux::engine::EngineError::BufferLimit { .. }))
        ));
    }
}

#[test]
fn join_index_is_returned_on_abort_and_on_an_error_inside_the_join() {
    /// Accepts `room` bytes, then fails every write.
    struct FailingSink {
        room: usize,
    }
    impl std::io::Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.room {
                return Err(std::io::Error::other("sink full"));
            }
            self.room -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let (doc, runs) = join_fixture();
    let cut = doc.rfind("</closed_auctions>").unwrap();
    for (_, q, reference) in &runs {
        // Abort with both join sides buffered (before the join fires)…
        let hook = Arc::new(LoggingHook::default());
        let mut s = q.session_with_budget(StringSink::new(), hook.clone());
        s.feed(&doc.as_bytes()[..cut]).unwrap();
        let buffers = hook.used();
        assert!(buffers > 0);
        drop(s);
        assert_eq!(hook.used(), 0, "abort released the buffers");

        // …and fail half-way through the join's output: the index goes back
        // at once, the buffers with the failed session.
        let hook = Arc::new(LoggingHook::default());
        let sink = FailingSink { room: reference.output.len() / 2 };
        let mut s = q.session_with_budget(sink, hook.clone());
        let failed = s.feed(doc.as_bytes()).is_err() || s.is_aborted();
        assert!(failed, "the sink error surfaced");
        let index = *hook.requests().last().unwrap();
        assert!(hook.peak() > buffers && hook.peak() <= buffers + index, "the join had started");
        assert!(hook.used() <= buffers, "the index did not outlive the failed evaluation");
        let (res, _) = s.finish_parts();
        assert!(res.is_err_and(|e| e.to_string().contains("sink full")));
        assert_eq!(hook.used(), 0, "failed run released index and buffers");
    }
}
