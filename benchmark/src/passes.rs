//! One *pass* of a fixture through each way of driving the engine: the
//! one-shot call, a chunk-fed session, a 1-shard runtime, the loopback
//! server. A pass sends the document through every query of the workload in
//! turn (`join`: Q8 then Q11) or once through the fan-out set, and checks
//! each run's counters against the reference before it counts.
//!
//! The end-to-end workloads and the traced ladder call the same functions;
//! the ladder passes a live [`Recorder`], the workloads a disabled one.

use std::sync::Arc;
use std::time::Instant;

use flux::prelude::*;

use crate::fixture::{Fixture, Query, CHUNK};
use crate::loadgen::{DocPlan, Generator};
use crate::trace::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// The whole document in one call (`PreparedQuery::run_to` on a slice).
    Whole,
    /// [`CHUNK`]-byte `feed` calls.
    Chunked,
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Counters of one pass, summed from its runs' `RunStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Σ over runs — Figure 4's memory column.
    pub peak_buffer_bytes: u64,
    pub on_firings: u64,
    pub captures: u64,
    pub buffers_created: u64,
    /// Σ over *parses*: a fan-out pass tokenizes once for all subscribers.
    pub events: u64,
    pub tape_batches: u64,
    pub tape_fast_forwarded: u64,
}

impl PassStats {
    fn add(&mut self, stats: &RunStats, own_parse: bool) {
        self.peak_buffer_bytes += stats.peak_buffer_bytes as u64;
        self.on_firings += stats.on_firings;
        self.captures += stats.captures;
        self.buffers_created += stats.buffers_created;
        if own_parse {
            self.events += stats.events;
            self.tape_batches += stats.tape.batches;
            self.tape_fast_forwarded += stats.tape.fast_forwarded;
        }
    }
}

/// In-process pass; `sink` makes one sink per run.
pub fn session_pass<S: Sink>(
    fx: &Fixture,
    feed: Feed,
    sink: impl Fn(&Query) -> S,
    rec: &mut Recorder,
) -> Result<PassStats, String> {
    let doc = fx.doc.as_bytes();
    let mut pass = PassStats::default();
    if let Some(f) = &fx.fanout {
        let sinks = f.subs.iter().map(|&i| sink(&fx.queries[i])).collect();
        let mut session = f.set.session(sinks);
        rec.span("SharedSession::feed", |_| match feed {
            Feed::Whole => session.feed(doc),
            Feed::Chunked => doc.chunks(CHUNK).try_for_each(|c| session.feed(c)),
        })
        .map_err(err("shared feed"))?;
        let results = rec.span("SharedSession::finish_parts", |_| session.finish_parts());
        for (sub, ((result, _), &i)) in results.into_iter().zip(&f.subs).enumerate() {
            let stats = result.map_err(err(fx.queries[i].name))?;
            fx.queries[i].check(&stats)?;
            pass.add(&stats, sub == 0);
        }
        return Ok(pass);
    }
    for q in &fx.queries {
        let stats = match feed {
            Feed::Whole => rec.span("PreparedQuery::run_to", |_| q.prepared.run_to(doc, sink(q))),
            Feed::Chunked => {
                let mut session = q.prepared.session(sink(q));
                rec.span("Session::feed", |_| doc.chunks(CHUNK).try_for_each(|c| session.feed(c)))
                    .and_then(|()| rec.span("Session::finish", |_| session.finish()))
                    .map(|fin| fin.stats)
            }
        }
        .map_err(err(q.name))?;
        q.check(&stats)?;
        pass.add(&stats, true);
    }
    Ok(pass)
}

/// The document as shared chunks, the form `Runtime::feed_shared` takes.
pub fn shared_chunks(fx: &Fixture) -> Vec<Arc<[u8]>> {
    fx.chunks().map(Arc::from).collect()
}

/// The same pass through a runtime's mailbox and worker thread.
pub fn runtime_pass(
    fx: &Fixture,
    rt: &mut Runtime<Vec<u8>>,
    chunks: &[Arc<[u8]>],
    rec: &mut Recorder,
) -> Result<(), String> {
    let out = |q: &Query| Vec::with_capacity(q.reference.output.len());
    let feed_all = |rt: &mut Runtime<Vec<u8>>, id, rec: &mut Recorder| {
        rec.span("Runtime::feed_shared", |_| {
            for c in chunks {
                rt.feed_shared(id, Arc::clone(c));
            }
        });
        rt.finish(id);
    };
    if let Some(f) = &fx.fanout {
        let sinks = f.subs.iter().map(|&i| out(&fx.queries[i])).collect();
        let id = rec.span("Runtime::open_shared", |_| rt.open_shared(&f.set, sinks));
        feed_all(rt, id, rec);
        let results = rec.span("Runtime::wait_event", |_| loop {
            match rt.wait_event() {
                Some(RuntimeEvent::FinishedShared { results, .. }) => break Ok(results),
                Some(_) => {}
                None => break Err("runtime workers exited".to_string()),
            }
        })?;
        for ((result, _), &i) in results.into_iter().zip(&f.subs) {
            fx.queries[i].check(&result.map_err(err(fx.queries[i].name))?)?;
        }
        return Ok(());
    }
    for q in &fx.queries {
        let id = rec.span("Runtime::open", |_| rt.open(&q.prepared, out(q)));
        feed_all(rt, id, rec);
        let result = rec.span("Runtime::wait_event", |_| loop {
            match rt.wait_event() {
                Some(RuntimeEvent::Finished { result, .. }) => break Ok(result),
                Some(_) => {}
                None => break Err("runtime workers exited".to_string()),
            }
        })?;
        q.check(&result.map_err(err(q.name))?)?;
    }
    Ok(())
}

/// The same pass over the loopback socket, closed loop: one document run
/// per plan, the next sent when the previous `DONE` has arrived.
pub fn loopback_pass(
    plans: &[DocPlan],
    generator: &mut Generator,
    rec: &mut Recorder,
) -> Result<(), String> {
    for plan in plans {
        rec.span("Generator::closed_loop_doc", |_| generator.closed_loop_doc(plan, false))?;
    }
    Ok(())
}

/// Timed passes of one kind.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall seconds of each timed pass that checked out.
    pub secs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Window {
    pub fn note(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }
}

/// `warmups` discarded passes, then passes until `seconds` have gone by (at
/// least `min_passes`). Every pass is checked; a failed one is counted and
/// contributes no timing.
pub fn timed_window(
    seconds: f64,
    warmups: usize,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Window {
    let mut w = Window::default();
    let mut run = |w: &mut Window, timed: bool| {
        let t = Instant::now();
        let result = pass();
        let secs = t.elapsed().as_secs_f64();
        w.attempted += 1;
        match result {
            Ok(()) if timed => w.secs.push(secs),
            Ok(()) => {}
            Err(e) => w.note(e),
        }
    };
    for _ in 0..warmups {
        run(&mut w, false);
    }
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || start.elapsed().as_secs_f64() < seconds {
        run(&mut w, true);
        passes += 1;
    }
    w
}
