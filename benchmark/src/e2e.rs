//! The untraced run of one workload: set-up (timed, repeated), warm-up,
//! the timed window, one untimed heap-counting pass — and the end-to-end
//! metrics computed from them.

use std::time::Instant;

use flux::xml::writer::NullSink;

use crate::alloc;
use crate::fixture::{Fixture, Sizes, Workload};
use crate::loadgen::Generator;
use crate::passes::{session_pass, timed_window, Feed, Window};
use crate::serve::{self, ServeFixture};
use crate::stats::{percentile, sorted, windowed_p99, Summary};
use crate::trace::Recorder;

/// Discarded passes before every timed window.
pub const WARMUPS: usize = 2;
/// Above this p99 generator lag the open-loop latencies describe the
/// generator as much as the server, and are flagged unresolved.
pub const MAX_GENERATOR_LAG_US: f64 = 128.0;
/// Untimed, heap-counted documents behind `serve`'s `heap_peak_bytes`.
const SERVE_HEAP_DOCS: usize = 21;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Median, quartiles and count of the per-pass samples behind `value`,
    /// where it is a median of samples.
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, summary: None }
    }

    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric { name, unit, value: summary.median, summary: Some(summary) }
    }
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Set-up runs at least `.0` times and then again while fewer than `.1`
    /// seconds have gone into it (a 10 ms set-up needs more repeats than a
    /// 700 ms one before its median is steady); `setup_s` is the median.
    pub setup_repeats: (usize, f64),
}

/// However cheap set-up is, it is not repeated more often than this.
const MAX_SETUP_REPEATS: usize = 15;

#[derive(Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Remarks for the human-readable report (e.g. an unresolved latency).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn failed_setup(error: String) -> RunResult {
        RunResult { attempted: 1, failed: 1, errors: vec![error], ..RunResult::default() }
    }

    pub fn absorb(&mut self, window: Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        self.errors.extend(window.errors);
    }
}

/// Build the fixture repeatedly (see [`Options::setup_repeats`]), timing
/// each build; keeps the last. The previous fixture is dropped (servers
/// joined, documents freed) before the next build starts, outside the timing.
pub fn setup_timed<T>(
    (at_least, budget_s): (usize, f64),
    build: impl Fn() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while last.is_none()
        || secs.len() < at_least
        || (secs.len() < MAX_SETUP_REPEATS && secs.iter().sum::<f64>() < budget_s)
    {
        drop(last.take());
        let t = Instant::now();
        let built = build()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one build"), secs))
}

/// The two latency metrics from samples in the order they were taken.
fn latency_metrics(ms: &[f64]) -> [Metric; 2] {
    [
        Metric::median("result_latency_p50_ms", "ms", ms),
        Metric::exact("result_latency_p99_ms", "ms", windowed_p99(ms)),
    ]
}

/// Throughput and latency metrics from per-pass wall times over
/// `bytes_per_pass` input bytes. In process the caller hands the engine a
/// whole document and has its result when the pass returns, so the pass
/// time is the result latency.
fn pass_metrics(secs: &[f64], bytes_per_pass: usize) -> Vec<Metric> {
    let mb_s: Vec<f64> = secs.iter().map(|s| bytes_per_pass as f64 / 1e6 / s).collect();
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let mut metrics = vec![Metric::median("throughput_mb_s", "MB/s", &mb_s)];
    metrics.extend(latency_metrics(&ms));
    metrics
}

pub fn run(workload: Workload, opts: &Options) -> RunResult {
    let outcome = match workload {
        Workload::Serve => run_serve(opts),
        _ => run_in_process(workload, opts),
    };
    outcome.unwrap_or_else(RunResult::failed_setup)
}

/// `select`, `copy`, `join`, `fanout`: single-threaded, in-process.
fn run_in_process(workload: Workload, opts: &Options) -> Result<RunResult, String> {
    let (fx, setup) =
        setup_timed(opts.setup_repeats, || Fixture::build(workload, opts.seed, opts.sizes))?;
    // `fanout` is defined as a chunk-fed shared session; the others are the
    // one-shot call.
    let feed = if fx.fanout.is_some() { Feed::Chunked } else { Feed::Whole };
    let mut off = Recorder::disabled();
    let mut pass = || session_pass(&fx, feed, |_| NullSink::default(), &mut off).map(drop);
    let window = timed_window(opts.seconds, WARMUPS, 1, &mut pass);
    // Counting is on for this one pass only, and nothing is timed in it.
    let (heap_pass, heap_peak) = alloc::peak_during(&mut pass);

    let mut result = RunResult::default();
    result.metrics.push(Metric::median("setup_s", "s", &setup));
    result.metrics.extend(pass_metrics(&window.secs, fx.bytes_per_pass()));
    result.metrics.push(Metric::exact("heap_peak_bytes", "B", heap_peak as f64));
    result.absorb(window);
    result.attempted += 1;
    if let Err(e) = heap_pass {
        result.failed += 1;
        result.errors.push(e);
    }
    Ok(result)
}

fn run_serve(opts: &Options) -> Result<RunResult, String> {
    let (sf, setup) =
        setup_timed(opts.setup_repeats, || ServeFixture::build(opts.seed, opts.sizes, None))?;
    let mut generator = Generator::connect(sf.server.addr())?;
    let run = serve::run(&sf, &mut generator, opts.seconds, WARMUPS);
    // How much of a flooded document queues between the server's threads
    // depends on their timing, so one document's peak is a draw, not a
    // reading: count several (untimed) documents and take the highest. The
    // draws are bounded by the whole document queued at once, and some
    // document of the series reaches that on every run observed; a run's
    // median sits anywhere up to 12 % below it.
    let mut heap_peaks = Vec::with_capacity(SERVE_HEAP_DOCS);
    let mut heap_pass = Ok(());
    for _ in 0..SERVE_HEAP_DOCS {
        let (doc, peak) = alloc::peak_during(|| generator.closed_loop_doc(&sf.plan, false));
        heap_peaks.push(peak as f64);
        heap_pass = heap_pass.and(doc.map(drop));
    }
    drop(generator);
    let ServeFixture { server, .. } = sf;
    server.shutdown().map_err(|e| format!("server loop died: {e}"))?;

    let mut result = RunResult::default();
    result.metrics.push(Metric::median("setup_s", "s", &setup));
    result.metrics.push(Metric::median("throughput_mb_s", "MB/s", &run.slice_mb_s));
    let ms: Vec<f64> = run.open_loop.latency_us.iter().map(|us| us / 1e3).collect();
    result.metrics.extend(latency_metrics(&ms));
    result.metrics.push(Metric {
        value: heap_peaks.iter().copied().fold(0.0, f64::max),
        ..Metric::median("heap_peak_bytes", "B", &heap_peaks)
    });

    let lag_p99 = percentile(&sorted(&run.open_loop.lag_us), 99.0);
    result.notes.push(format!(
        "open loop: {} documents, {} chunks, {} timed results, generator lag p99 {lag_p99:.1} us, \
         backlog max {} then {} chunks; closed loop: {} documents",
        run.open_loop.docs,
        run.open_loop.chunks,
        ms.len(),
        run.open_loop.backlog_max[0],
        run.open_loop.backlog_max[1],
        run.closed_loop_docs,
    ));
    if lag_p99 > MAX_GENERATOR_LAG_US {
        result.notes.push(format!(
            "UNRESOLVED: result_latency_* — the generator itself ran {lag_p99:.0} us late at p99 \
             (limit {MAX_GENERATOR_LAG_US} us), so the latencies are not the server's alone"
        ));
    }
    result.absorb(run.window);
    result.attempted += SERVE_HEAP_DOCS as u64;
    if let Err(e) = heap_pass {
        result.failed += 1;
        result.errors.push(e);
    }
    if run.slice_mb_s.is_empty() || ms.is_empty() {
        result.failed += 1;
        result.errors.push("a phase produced no samples".into());
    }
    Ok(result)
}
