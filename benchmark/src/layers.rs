//! The traced run: per-layer metrics, measured from outside.
//!
//! **The ladder** re-runs the workload's own document and queries through a
//! cumulative sequence of rungs — classify → tape fill → `run_to(NullSink)`
//! → `run_to(Vec)` → chunk-fed session → 1-shard runtime → loopback server —
//! each doing everything the rung below does plus one more layer. A layer's
//! self time is its rung's median pass time minus the rung below's, so the
//! deltas telescope to the top rung. Every pass is wrapped in spans (see
//! [`crate::trace`]) written to `benchmark/out/trace-<workload>.json`.
//!
//! **The probes** measure what no rung isolates, on the fixture that
//! exercises the layer in question: join capture vs evaluation and the DOM
//! comparator on the `join` fixture, per-subscriber fan-out cost on the
//! `fanout` fixture, the open-loop diagnostics on the `serve` fixture, plus
//! writer, frame codec, snapshot and set-up costs. Ladder metrics therefore
//! differ per workload; probe metrics are the same measurement whichever
//! workload's traced run reports them.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux::xml::scan::{Scanner, StructuralIndex, ANCHOR_BYTES};
use flux::xml::writer::NullSink;
use flux::xml::{EventTape, TapeFill, Writer};
use flux::MetricsRegistry;
use flux_serve::protocol::{encode_frame, DecodePoll, FrameDecoder, FrameKind};

use crate::e2e::{Metric, Options, RunResult, MAX_GENERATOR_LAG_US};
use crate::fixture::{Fixture, Workload, CHUNK, FANOUT_SUBS};
use crate::json::Json;
use crate::loadgen::Generator;
use crate::passes::{
    loopback_pass, runtime_pass, session_pass, shared_chunks, timed_window, Feed, PassStats,
};
use crate::serve::{plans, spawn_server, OPEN_LOOP_INTERVAL};
use crate::stats::{median, percentile, sorted};
use crate::trace::Recorder;

/// Share of `--seconds` each ladder rung and each probe measures for.
const RUNG_SHARE: f64 = 0.06;
const PROBE_SHARE: f64 = 0.03;
const OPEN_LOOP_SHARE: f64 = 0.15;
const OVERHEAD_SHARE: f64 = 0.10;

pub fn run(workload: Workload, opts: &Options) -> RunResult {
    run_traced(workload, opts).unwrap_or_else(RunResult::failed_setup)
}

/// One measured quantity: median seconds per pass, with the passes counted
/// into the run's attempted/failed totals.
fn measure(result: &mut RunResult, seconds: f64, pass: impl FnMut() -> Result<(), String>) -> f64 {
    let window = timed_window(seconds, 1, 2, pass);
    let secs = median(&window.secs);
    result.absorb(window);
    secs
}

/// [`measure`] for a micro-probe that sends no document through the
/// program: its repetitions are not passes, so only failures are counted.
fn measure_micro(
    result: &mut RunResult,
    seconds: f64,
    pass: impl FnMut() -> Result<(), String>,
) -> f64 {
    let mut window = timed_window(seconds, 1, 2, pass);
    let secs = median(&window.secs);
    window.attempted = window.failed;
    result.absorb(window);
    secs
}

fn run_traced(workload: Workload, opts: &Options) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut rec = Recorder::new();
    let build = |w: Workload| Fixture::build(w, opts.seed, opts.sizes);
    let fx = build(workload)?;
    // Probe fixtures: the workload's own where it is the one, else built.
    let other = |w: Workload| (w != workload).then(|| build(w)).transpose();
    let (join_own, fanout_own, serve_own) =
        (other(Workload::Join)?, other(Workload::Fanout)?, other(Workload::Serve)?);
    let join_fx = join_own.as_ref().unwrap_or(&fx);
    let fanout_fx = fanout_own.as_ref().unwrap_or(&fx);
    let serve_fx = serve_own.as_ref().unwrap_or(&fx);

    // One instrumented server for everything that crosses the socket: the
    // workload's queries plus the serve fixture's.
    let mut registry = fx.registry.clone();
    for (id, q) in serve_fx.registry.iter() {
        if registry.get(id).is_none() {
            registry.register(id, q.clone());
        }
    }
    let server = spawn_server(&registry, Some(MetricsRegistry::new()))?;
    let mut generator = Generator::connect(server.addr())?;

    let ladder = ladder(&fx, &mut generator, opts.seconds, &mut rec, &mut result)?;
    writer_probe(&fx, opts.seconds, &mut result);
    codec_probe(&fx, opts.seconds, &mut result);
    state_probe(&fx, &mut result)?;
    join_probe(join_fx, &mut result)?;
    dom_probe(join_fx, &mut result)?;
    fanout_probe(fanout_fx, opts.seconds, &mut result)?;
    open_loop_probe(serve_fx, &mut generator, opts.seconds, &mut result)?;
    setup_probe(fanout_fx, opts, &mut result)?;
    overhead(&fx, &mut generator, opts.seconds, &mut rec, &mut result)?;

    // Counts at the server boundary, from one scrape after everything.
    let stats = generator.scrape()?;
    let sum = |prefix: &str| -> f64 {
        stats
            .lines()
            .filter(|l| l.starts_with(prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    for (name, prefix) in [
        ("serve.frames_in", "flux_serve_frames_total{dir=\"in\""),
        ("serve.frames_out", "flux_serve_frames_total{dir=\"out\""),
        ("serve.write_parks", "flux_serve_write_parks_total"),
        ("serve.stalls", "flux_runtime_stalls_total"),
        ("serve.decode_errors", "flux_serve_decode_errors_total"),
    ] {
        result.metrics.push(Metric::exact(name, "count", sum(prefix)));
    }
    drop(generator);
    server.shutdown().map_err(|e| format!("server loop died: {e}"))?;

    let failed_fraction = result.failed as f64 / result.attempted.max(1) as f64;
    result.metrics.push(Metric::exact("failed_fraction", "ratio", failed_fraction));

    let path = write_trace(workload, opts, &ladder, &rec)?;
    result.notes.push(format!("spans: {} in {}", rec.spans().len(), path.display()));
    Ok(result)
}

/// One rung's outcome, for the trace file.
struct Rung {
    name: &'static str,
    secs: f64,
}

/// One stage-1 pass: classify the document in anchor-sized batches, no
/// parsing — once per parse the workload's pass makes.
fn classify_pass(fx: &Fixture, parses: usize) {
    let scanner = Scanner::detect();
    let mut idx = StructuralIndex::new();
    let bytes = fx.doc.as_bytes();
    for _ in 0..parses {
        let mut off = 0;
        while off < bytes.len() {
            scanner.anchor(&mut idx, off as u64, &bytes[off..]);
            std::hint::black_box(idx.blocks());
            off += ANCHOR_BYTES.min(bytes.len() - off);
        }
    }
}

/// One tokenizer pass: `Reader::fill_tape` batches plus the index walk a
/// consumer does, nothing executed. Returns the events seen.
fn fill_pass(fx: &Fixture) -> Result<u64, String> {
    let readers: Vec<_> = match &fx.fanout {
        Some(f) => vec![(f.set.plan().options().reader, f.set.plan().symbols().clone())],
        None => fx
            .queries
            .iter()
            .map(|q| {
                (q.prepared.compiled().options().reader, q.prepared.compiled().symbols().clone())
            })
            .collect(),
    };
    let mut events = 0;
    let mut tape = EventTape::new();
    for (opts, symbols) in readers {
        let mut reader = Reader::incremental_with_symbols(opts, symbols);
        reader.feed(fx.doc.as_bytes());
        reader.close();
        loop {
            let fill = reader.fill_tape(&mut tape).map_err(|e| format!("fill_tape: {e}"))?;
            for i in 0..tape.len() {
                std::hint::black_box(tape.kind(i));
            }
            events += tape.len() as u64;
            tape.clear();
            if !matches!(fill, TapeFill::Full) {
                break;
            }
        }
    }
    Ok(events)
}

fn vec_sink(q: &crate::fixture::Query) -> Vec<u8> {
    Vec::with_capacity(q.reference.output.len())
}

fn ladder(
    fx: &Fixture,
    generator: &mut Generator,
    seconds: f64,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<Vec<Rung>, String> {
    let slice = seconds * RUNG_SHARE;
    let parses = if fx.fanout.is_some() { 1 } else { fx.queries.len() };
    let mut rungs = Vec::new();
    let mut rung = |name: &'static str,
                    result: &mut RunResult,
                    rec: &mut Recorder,
                    pass: &mut dyn FnMut(&mut Recorder) -> Result<(), String>| {
        let secs = measure(result, slice, || {
            rec.next_pass();
            rec.span(name, |rec| pass(rec))
        });
        rungs.push(Rung { name, secs });
        secs
    };

    let classify = rung("ladder.classify", result, rec, &mut |rec| {
        rec.span("Scanner::anchor", |_| classify_pass(fx, parses));
        Ok(())
    });
    let mut tape_events = 0;
    let fill = rung("ladder.tape_fill", result, rec, &mut |rec| {
        tape_events = rec.span("Reader::fill_tape", |_| fill_pass(fx))?;
        Ok(())
    });
    let mut counts = PassStats::default();
    let run_null = rung("ladder.run_to_null", result, rec, &mut |rec| {
        counts = session_pass(fx, Feed::Whole, |_| NullSink::default(), rec)?;
        Ok(())
    });
    let run_vec = rung("ladder.run_to_vec", result, rec, &mut |rec| {
        session_pass(fx, Feed::Whole, vec_sink, rec).map(drop)
    });
    let chunked = rung("ladder.session_chunked", result, rec, &mut |rec| {
        session_pass(fx, Feed::Chunked, vec_sink, rec).map(drop)
    });
    let shared = shared_chunks(fx);
    let mut rt = RuntimeBuilder::new(1).build::<Vec<u8>>();
    let runtime = rung("ladder.runtime_one_shard", result, rec, &mut |rec| {
        runtime_pass(fx, &mut rt, &shared, rec)
    });
    drop(rt);
    let wire = plans(fx, false)?;
    let loopback =
        rung("ladder.loopback", result, rec, &mut |rec| loopback_pass(&wire, generator, rec));

    let events = counts.events as f64;
    let chunks = (fx.chunk_count() * parses) as f64;
    let bytes = fx.bytes_per_pass() as f64;
    let ns = 1e9;
    let mut push = |name, unit, value| result.metrics.push(Metric::exact(name, unit, value));
    push("xml.scan.classify_gb_s", "GB/s", bytes / classify / 1e9);
    push("xml.tape.fill_ns_per_event", "ns", fill * ns / events);
    push("xml.tape.batches", "count", counts.tape_batches as f64);
    push("xml.tape.fast_forwarded_events", "count", counts.tape_fast_forwarded as f64);
    push("xml.reader.events", "count", events);
    push("engine.pump.self_ns_per_event", "ns", (run_null - fill) * ns / events);
    push("engine.pump.on_firings", "count", counts.on_firings as f64);
    push("engine.pump.captures", "count", counts.captures as f64);
    push("engine.pump.buffers_created", "count", counts.buffers_created as f64);
    push("peak_buffer_bytes", "B", counts.peak_buffer_bytes as f64);
    push("runtime.session.chunk_overhead_ns_per_event", "ns", (chunked - run_vec) * ns / events);
    push("runtime.rt.overhead_us_per_chunk", "us", (runtime - chunked) * 1e6 / chunks);
    push("serve.wire_overhead_us_per_chunk", "us", (loopback - runtime) * 1e6 / chunks);
    if counts.peak_buffer_bytes != fx.reference_peak_buffer_bytes() {
        result.attempted += 1;
        result.failed += 1;
        result.errors.push(format!(
            "peak_buffer_bytes {} differs from the reference runs' {}",
            counts.peak_buffer_bytes,
            fx.reference_peak_buffer_bytes()
        ));
    }
    if tape_events != counts.events {
        result.notes.push(format!(
            "the tokenizer alone sees {tape_events} events per pass; the runs report {}",
            counts.events
        ));
    }
    Ok(rungs)
}

/// `xml.writer.ns_per_out_byte`: the reference output's events replayed
/// through `Writer` into a `NullSink` — serialization and escaping alone.
fn writer_probe(fx: &Fixture, seconds: f64, result: &mut RunResult) {
    // The query with the most output is the one the writer matters for.
    let q = fx.queries.iter().max_by_key(|q| q.reference.output.len()).expect("a query");
    let events = Reader::from_str(&q.reference.output)
        .read_to_end()
        .expect("the engine's own output parses");
    let secs = measure_micro(result, seconds * PROBE_SHARE, || {
        let mut w = Writer::new(NullSink::default());
        for ev in &events {
            w.write_event(ev.as_event()).map_err(|e| format!("writer: {e}"))?;
        }
        std::hint::black_box(w.bytes_written());
        Ok(())
    });
    let bytes = q.reference.output.len() as f64;
    result.metrics.push(Metric::exact("xml.writer.ns_per_out_byte", "ns", secs * 1e9 / bytes));
}

/// Frame encode and decode over the workload's chunk sequence, no socket.
fn codec_probe(fx: &Fixture, seconds: f64, result: &mut RunResult) {
    let frames = fx.chunk_count() as f64;
    let mut wire = Vec::with_capacity(fx.doc.len() + fx.chunk_count() * 8);
    let encode = measure_micro(result, seconds * PROBE_SHARE, || {
        wire.clear();
        for chunk in fx.chunks() {
            encode_frame(&mut wire, FrameKind::Chunk, chunk);
        }
        std::hint::black_box(wire.len());
        Ok(())
    });
    let decode = measure_micro(result, seconds * PROBE_SHARE, || {
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut seen = 0;
        // Fed as a socket read would deliver it: 64 KiB at a time.
        for piece in wire.chunks(64 << 10) {
            decoder.feed(piece);
            while let DecodePoll::Frame { payload, .. } =
                decoder.poll().map_err(|e| format!("decode: {e}"))?
            {
                std::hint::black_box(payload);
                seen += 1;
            }
        }
        if seen != fx.chunk_count() {
            return Err(format!("decoded {seen} of {} frames", fx.chunk_count()));
        }
        Ok(())
    });
    let mut push = |name, value| result.metrics.push(Metric::exact(name, "ns", value));
    push("serve.protocol.encode_ns_per_frame", encode * 1e9 / frames);
    push("serve.protocol.decode_ns_per_frame", decode * 1e9 / frames);
}

/// Median wall time, in µs, of `repeats` calls of `f`.
fn median_us(repeats: usize, f: &mut dyn FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut us = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        f()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// `Session::snapshot` / `restore_session` at the document midpoint of the
/// workload's first query (the shared session for the fan-out set).
fn state_probe(fx: &Fixture, result: &mut RunResult) -> Result<(), String> {
    let half: Vec<&[u8]> = fx.chunks().take(fx.chunk_count() / 2).collect();
    let time = |f: &mut dyn FnMut() -> Result<(), String>| median_us(20, f);
    let e = |e: FluxError| format!("snapshot probe: {e}");
    let (snapshot_us, restore_us, bytes);
    if let Some(f) = &fx.fanout {
        let mut session = f.set.session((0..f.subs.len()).map(|_| NullSink::default()).collect());
        half.iter().try_for_each(|c| session.feed(c)).map_err(e)?;
        let snap = session.snapshot().map_err(e)?;
        snapshot_us = time(&mut || session.snapshot().map(drop).map_err(e))?;
        restore_us = time(&mut || {
            let sinks = (0..f.subs.len()).map(|_| Some(NullSink::default())).collect();
            f.set.restore_session(sinks, &snap).map(drop).map_err(e)
        })?;
        bytes = snap.len();
    } else {
        let q = &fx.queries[0];
        let mut session = q.prepared.session(NullSink::default());
        half.iter().try_for_each(|c| session.feed(c)).map_err(e)?;
        let snap = session.snapshot().map_err(e)?;
        snapshot_us = time(&mut || session.snapshot().map(drop).map_err(e))?;
        restore_us = time(&mut || {
            q.prepared.restore_session(NullSink::default(), &snap).map(drop).map_err(e)
        })?;
        bytes = snap.len();
    }
    result.metrics.push(Metric::exact("state.snapshot_us", "us", snapshot_us));
    result.metrics.push(Metric::exact("state.restore_us", "us", restore_us));
    result.metrics.push(Metric::exact("state.snapshot_bytes", "B", bytes as f64));
    Ok(())
}

/// Time inside `Session::feed` attributed by document section, on the
/// `join` fixture: everything up to the last join input is *capture* (the
/// engine buffers both join sides), the closing tags and `finish` — where
/// the nested-loop replay runs — are *evaluation*.
fn join_probe(fx: &Fixture, result: &mut RunResult) -> Result<(), String> {
    let doc = fx.doc.as_bytes();
    // The benchmark locates the section boundary itself: the nested loop
    // cannot start before the closed auctions (Q8's inner side, and the last
    // section of `site`) have ended.
    let tail = fx.doc.rfind("</closed_auctions>").ok_or("join document has no closed_auctions")?;
    let (mut capture_ms, mut eval_ms) = (0.0, 0.0);
    for q in &fx.queries {
        let mut session = q.prepared.session(NullSink::default());
        let e = |e: FluxError| format!("{}: {e}", q.name);
        let t = Instant::now();
        doc[..tail].chunks(CHUNK).try_for_each(|c| session.feed(c)).map_err(e)?;
        let captured = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        session.feed(&doc[tail..]).map_err(e)?;
        let fin = session.finish().map_err(e)?;
        let evaluated = t.elapsed().as_secs_f64() * 1e3;
        result.attempted += 1;
        if let Err(e) = q.check(&fin.stats) {
            result.failed += 1;
            result.errors.push(e);
        }
        capture_ms += captured;
        eval_ms += evaluated;
        let name = match q.name {
            "Q8" => "engine.join.q8_pass_ms",
            _ => "engine.join.q11_pass_ms",
        };
        result.metrics.push(Metric::exact(name, "ms", captured + evaluated));
    }
    result.metrics.push(Metric::exact("engine.join.capture_ms", "ms", capture_ms));
    result.metrics.push(Metric::exact("engine.join.eval_ms", "ms", eval_ms));
    Ok(())
}

/// The DOM baseline on the same document: Figure 4's other column.
fn dom_probe(fx: &Fixture, result: &mut RunResult) -> Result<(), String> {
    let mut peak = 0;
    for q in &fx.queries {
        let source = PAPER_QUERIES.iter().find(|p| p.name == q.name).expect("paper query").source;
        let dom = DomEngine::default().prepare(&parse_xquery(source).expect("parsed in set-up"));
        let t = Instant::now();
        let stats = dom
            .run_to(fx.doc.as_bytes(), NullSink::default())
            .map_err(|e| format!("DOM baseline {}: {e}", q.name))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        result.attempted += 1;
        if stats.output_bytes != q.reference.stats.output_bytes {
            result.failed += 1;
            result.errors.push(format!("DOM baseline {}: output size differs", q.name));
        }
        peak += stats.tree_bytes;
        let name = match q.name {
            "Q8" => "baseline.dom_q8_pass_ms",
            _ => "baseline.dom_q11_pass_ms",
        };
        result.metrics.push(Metric::exact(name, "ms", ms));
    }
    result.metrics.push(Metric::exact("baseline.dom_peak_bytes", "B", peak as f64));
    Ok(())
}

/// What one more subscriber costs, and what the shared machinery costs a
/// lone one, on the `fanout` fixture (chunk-fed, `NullSink`s).
fn fanout_probe(fx: &Fixture, seconds: f64, result: &mut RunResult) -> Result<(), String> {
    let f = fx.fanout.as_ref().expect("the fanout fixture has its set");
    let first = &fx.queries[f.subs[0]];
    let solo_set = SubscriptionSet::compile_subset(&fx.registry, &[first.id()])
        .map_err(|e| format!("compile M=1 set: {e}"))?;
    let mut off = Recorder::disabled();
    let slice = seconds * PROBE_SHARE;
    let all = measure(result, slice, || {
        session_pass(fx, Feed::Chunked, |_| NullSink::default(), &mut off).map(drop)
    });
    let shared_one = measure(result, slice, || {
        let mut session = solo_set.session(vec![NullSink::default()]);
        fx.chunks().try_for_each(|c| session.feed(c)).map_err(|e| e.to_string())?;
        let (stats, _) = session.finish_parts().pop().expect("one subscriber");
        first.check(&stats.map_err(|e| e.to_string())?)
    });
    let solo = measure(result, slice, || {
        let mut session = first.prepared.session(NullSink::default());
        fx.chunks().try_for_each(|c| session.feed(c)).map_err(|e| e.to_string())?;
        first.check(&session.finish().map_err(|e| e.to_string())?.stats)
    });
    let events = first.reference.stats.events as f64;
    let per_sub = (all - shared_one) / (FANOUT_SUBS - 1) as f64 * 1e9 / events;
    result.metrics.push(Metric::exact("engine.fanout.per_sub_ns_per_event", "ns", per_sub));
    result.metrics.push(Metric::exact(
        "engine.fanout.m1_vs_solo_ratio",
        "ratio",
        shared_one / solo,
    ));
    Ok(())
}

/// Phase A diagnostics on the `serve` fixture: how late the generator ran,
/// what the poll tick adds over the bare service time, and the backlog.
fn open_loop_probe(
    fx: &Fixture,
    generator: &mut Generator,
    seconds: f64,
    result: &mut RunResult,
) -> Result<(), String> {
    let plan = plans(fx, true)?.pop().expect("serve runs one query");
    // Closed loop first: the per-chunk service time at capacity.
    let doc_secs = measure(result, seconds * PROBE_SHARE, || {
        generator.closed_loop_doc(&plan, false).map(drop)
    });
    let phase = Duration::from_secs_f64(seconds * OPEN_LOOP_SHARE);
    let report = generator.open_loop(&plan, OPEN_LOOP_INTERVAL, phase)?;
    result.attempted += report.docs;
    let lag_p99 = percentile(&sorted(&report.lag_us), 99.0);
    let p50_us = percentile(&sorted(&report.latency_us), 50.0);
    let service_us = doc_secs * 1e6 / plan.chunks() as f64;
    let backlog = report.backlog_max[0].max(report.backlog_max[1]);
    let mut push = |name, unit, value| result.metrics.push(Metric::exact(name, unit, value));
    push("serve.generator_lag_p99_us", "us", lag_p99);
    push("serve.idle_wake_us", "us", p50_us - service_us);
    push("serve.backlog_max_chunks", "count", backlog as f64);
    if lag_p99 > MAX_GENERATOR_LAG_US {
        result.notes.push(format!(
            "UNRESOLVED: serve.idle_wake_us — generator lag p99 {lag_p99:.0} us exceeds \
             {MAX_GENERATOR_LAG_US} us"
        ));
    }
    if report.backlog_max[1] > 2 * report.backlog_max[0].max(8) {
        result.notes.push(format!(
            "open-loop backlog grew: max {} chunks in the first half, {} in the second",
            report.backlog_max[0], report.backlog_max[1]
        ));
    }
    Ok(())
}

/// The parts of `setup_s`, each on its own.
fn setup_probe(fanout_fx: &Fixture, opts: &Options, result: &mut RunResult) -> Result<(), String> {
    let time_us = |f: &mut dyn FnMut() -> Result<(), String>| median_us(9, f);
    let parse = time_us(&mut || Dtd::parse(XMARK_DTD).map(drop).map_err(|e| e.to_string()))?;
    let engine = Engine::new(Dtd::parse(XMARK_DTD).map_err(|e| e.to_string())?);
    // All five paper queries, as a server registering them would.
    let prepare = time_us(&mut || {
        PAPER_QUERIES
            .iter()
            .try_for_each(|q| engine.prepare(q.source).map(drop))
            .map_err(|e| e.to_string())
    })?;
    let f = fanout_fx.fanout.as_ref().expect("the fanout fixture has its set");
    let ids: Vec<String> = f.subs.iter().map(|&i| fanout_fx.queries[i].id()).collect();
    let compile = time_us(&mut || {
        SubscriptionSet::compile_subset(&fanout_fx.registry, &ids)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let cfg = XmarkConfig { seed: opts.seed, ..XmarkConfig::new(opts.sizes.fanout) };
    let mut generated = 0;
    let generate = time_us(&mut || {
        generated = generate_string(&cfg).0.len();
        Ok(())
    })?;
    let mut push = |name, unit, value| result.metrics.push(Metric::exact(name, unit, value));
    push("dtd.parse_us", "us", parse);
    push("core.prepare_us", "us", prepare);
    push("fanout.compile_us", "us", compile);
    push("xmark.generate_mb_s", "MB/s", generated as f64 / generate);
    Ok(())
}

/// `trace.overhead_pct`: the workload's own way of driving the engine with
/// the span recorder on against the same passes with it off, alternating.
fn overhead(
    fx: &Fixture,
    generator: &mut Generator,
    seconds: f64,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<(), String> {
    let wire = plans(fx, false)?;
    let feed = if fx.fanout.is_some() { Feed::Chunked } else { Feed::Whole };
    let mut pass = |rec: &mut Recorder| -> Result<(), String> {
        rec.next_pass();
        rec.span("overhead.pass", |rec| match fx.workload {
            Workload::Serve => loopback_pass(&wire, generator, rec),
            _ => session_pass(fx, feed, |_| NullSink::default(), rec).map(drop),
        })
    };
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < seconds * OVERHEAD_SHARE {
        for on in [true, false] {
            rec.enabled = on;
            let t = Instant::now();
            let outcome = pass(rec);
            let secs = t.elapsed().as_secs_f64();
            result.attempted += 1;
            match outcome {
                Ok(()) => if on { &mut traced } else { &mut plain }.push(secs),
                Err(e) => {
                    result.failed += 1;
                    result.errors.push(e);
                }
            }
        }
    }
    rec.enabled = true;
    // Throughput is bytes over time, so its loss is the time ratio's excess.
    let pct = (median(&traced) / median(&plain) - 1.0) * 100.0;
    result.metrics.push(Metric::exact("trace.overhead_pct", "%", pct));
    Ok(())
}

/// Write the spans and the ladder summary; returns the file's path.
fn write_trace(
    workload: Workload,
    opts: &Options,
    ladder: &[Rung],
    rec: &Recorder,
) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let mut below = 0.0;
    let rungs = ladder
        .iter()
        .map(|r| {
            let delta = r.secs - below;
            below = r.secs;
            Json::obj([
                ("rung", Json::str(r.name)),
                ("median_ms_per_pass", Json::Num(r.secs * 1e3)),
                ("self_ms", Json::Num(delta * 1e3)),
            ])
        })
        .collect();
    let Json::Obj(mut fields) = rec.to_json() else { unreachable!("recorder renders an object") };
    fields.insert(0, ("ladder".into(), Json::Arr(rungs)));
    fields.insert(0, ("seconds".into(), Json::Num(opts.seconds)));
    fields.insert(0, ("seed".into(), Json::Num(opts.seed as f64)));
    fields.insert(0, ("workload".into(), Json::str(workload.name())));
    std::fs::write(&path, Json::Obj(fields).render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
