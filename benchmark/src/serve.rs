//! The `serve` workload: an in-process `flux_serve` server (one shard), one
//! generator thread, one connection — three threads in all, which is as many
//! as a 2-CPU host can give without the generator and the server taking
//! turns on a core.
//!
//! * **Phase A, open loop:** one [`CHUNK`]-byte frame is due every
//!   [`OPEN_LOOP_INTERVAL`] (32 MB/s, far below capacity). Latency comes
//!   from here: at this rate the server's poll tick and the hand-offs
//!   between its threads set it, not the engine.
//! * **Phase B, closed loop:** the next document is sent when `DONE`
//!   arrives. Capacity (`throughput_mb_s`) comes from here.
//!
//! The window alternates between the phases in [`CYCLES`] slices each: a
//! busy spell of the host lasts seconds, and would own most of a phase run
//! in one piece, but only its own share of a phase spread over the window.
//! Capacity is the median over the slices of each slice's bytes per second:
//! closed-loop documents come in stretches of 10–30 at ~220 MB/s or at
//! ~150 MB/s, and a median over single documents jumps between the two when
//! the slow stretches near half of a run; a slice averages over them.

use std::time::{Duration, Instant};

use flux::{MetricsRegistry, QueryRegistry};
use flux_serve::{Server, ServerConfig, ServerHandle};

use crate::fixture::{out_after, Fixture, Sizes, Workload};
use crate::loadgen::{DocPlan, Generator, OpenLoopReport};
use crate::passes::Window;

/// One 8 KiB chunk every 256 µs = 32 MB/s offered.
pub const OPEN_LOOP_INTERVAL: Duration = Duration::from_micros(256);
/// Share of the measured window spent in the open-loop phase. Latency needs
/// thousands of chunk samples; capacity needs only a few hundred documents.
const PHASE_A_SHARE: f64 = 0.7;
/// Slices each phase is cut into.
const CYCLES: u32 = 10;

/// A one-shard server over `registry`; with `metrics`, instrumented so a
/// `STATS` scrape answers.
pub fn spawn_server(
    registry: &QueryRegistry,
    metrics: Option<MetricsRegistry>,
) -> Result<ServerHandle, String> {
    let cfg = ServerConfig { shards: 1, metrics, ..ServerConfig::default() };
    Server::spawn("127.0.0.1:0", registry.clone(), cfg).map_err(|e| format!("spawn server: {e}"))
}

/// The wire plans of one pass: one per query, or one multi-`OPEN` plan for
/// the fan-out set. `timed` adds the chunk→output map that lets the open
/// loop time results (single-query fixtures only).
pub fn plans(fx: &Fixture, timed: bool) -> Result<Vec<DocPlan>, String> {
    let doc = fx.doc.as_bytes();
    let counters =
        |q: &crate::fixture::Query| (q.reference.stats.events, q.reference.stats.output_bytes);
    if let Some(f) = &fx.fanout {
        let ids: Vec<String> = f.subs.iter().map(|&i| fx.queries[i].id()).collect();
        let expect = f.subs.iter().map(|&i| counters(&fx.queries[i])).collect();
        return Ok(vec![DocPlan::new(&ids, doc, expect, Vec::new())]);
    }
    fx.queries
        .iter()
        .map(|q| {
            let after = if timed { out_after(q, doc)?.0 } else { Vec::new() };
            Ok(DocPlan::new(&[q.id()], doc, vec![counters(q)], after))
        })
        .collect()
}

pub struct ServeFixture {
    pub fx: Fixture,
    pub plan: DocPlan,
    pub server: ServerHandle,
}

impl ServeFixture {
    pub fn build(
        seed: u64,
        sizes: Sizes,
        metrics: Option<MetricsRegistry>,
    ) -> Result<Self, String> {
        let fx = Fixture::build(Workload::Serve, seed, sizes)?;
        let plan = plans(&fx, true)?.pop().expect("serve runs one query");
        let server = spawn_server(&fx.registry, metrics)?;
        Ok(ServeFixture { fx, plan, server })
    }
}

pub struct ServeRun {
    pub window: Window,
    /// Phase B: input MB per second of each slice, and documents in all.
    pub slice_mb_s: Vec<f64>,
    pub closed_loop_docs: u64,
    pub open_loop: OpenLoopReport,
}

/// Both phases over one connection. The first document is also compared
/// byte-for-byte with the in-process reference output.
pub fn run(sf: &ServeFixture, generator: &mut Generator, seconds: f64, warmups: usize) -> ServeRun {
    let mut run = ServeRun {
        window: Window::default(),
        slice_mb_s: Vec::new(),
        closed_loop_docs: 0,
        open_loop: OpenLoopReport::default(),
    };
    let window = &mut run.window;
    let reference = sf.fx.queries[0].reference.output.as_bytes();

    for i in 0..warmups.max(1) {
        window.attempted += 1;
        match generator.closed_loop_doc(&sf.plan, i == 0) {
            Ok(out) if i == 0 && out.result.as_deref() != Some(reference) => {
                window.note("RESULT bytes differ from the in-process output".into());
            }
            Ok(_) => {}
            Err(e) => window.note(e),
        }
    }
    if window.failed > 0 {
        return run;
    }

    let slice = seconds / f64::from(CYCLES);
    for _ in 0..CYCLES {
        let phase_a = Duration::from_secs_f64(slice * PHASE_A_SHARE);
        match generator.open_loop(&sf.plan, OPEN_LOOP_INTERVAL, phase_a) {
            Ok(report) => {
                window.attempted += report.docs;
                run.open_loop.absorb(report);
            }
            Err(e) => {
                // The generator stops at the first failure: framing may be lost.
                window.attempted += 1;
                window.note(format!("open loop: {e}"));
                return run;
            }
        }
        let start = Instant::now();
        let (mut docs, mut busy) = (0u64, 0.0);
        while start.elapsed().as_secs_f64() < slice * (1.0 - PHASE_A_SHARE) {
            window.attempted += 1;
            match generator.closed_loop_doc(&sf.plan, false) {
                Ok(out) => {
                    docs += 1;
                    busy += out.secs;
                }
                Err(e) => {
                    window.note(format!("closed loop: {e}"));
                    return run;
                }
            }
        }
        run.slice_mb_s.push(docs as f64 * sf.plan.doc_bytes as f64 / 1e6 / busy);
        run.closed_loop_docs += docs;
    }
    run
}
