//! Zero per-event heap allocation on the streaming no-buffer path.
//!
//! The acceptance bar for the interned pipeline: once a run's reusable
//! structures exist, processing more events must not allocate. A counting
//! global allocator measures whole runs over a small and a much larger
//! document of identical shape; equal counts prove the per-event cost is
//! allocation-free (any per-event or per-element allocation would scale
//! with the document).
//!
//! The same allocator keeps a live-bytes high-water mark, for the memory
//! claim itself: a run's heap follows its buffers, not its document — the
//! input is parsed where the caller holds it, never copied whole.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux_xml::writer::NullSink;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(change: i64) {
    let now = LIVE.fetch_add(change, Ordering::Relaxed) + change;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        note(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DTD: &str = "<!ELEMENT bib (book)*>\
    <!ELEMENT book (title,(author+|editor+),publisher,price)>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
    <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";

const BOOK: &str =
    "<book><title>Streaming</title><author>Koch</author><author>Scherzinger</author>\
    <publisher>VLDB</publisher><price>65</price></book>";

fn doc(books: usize) -> String {
    let mut s = String::with_capacity(10 + books * BOOK.len());
    s.push_str("<bib>");
    for _ in 0..books {
        s.push_str(BOOK);
    }
    s.push_str("</bib>");
    s
}

/// Allocations of one full run (prepare done beforehand).
fn allocs_of_run(q: &PreparedQuery, doc: &str) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    q.run_to(doc.as_bytes(), NullSink::default()).unwrap();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Peak live heap during `run`, above the level it started from.
fn peak_above_baseline<T>(run: impl FnOnce() -> T) -> (T, i64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = run();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// The memory itself: over a 4 MiB XMark document, a streaming query's
/// heap stays a small constant — whether the document arrives as one slice
/// or through a `BufReader` (whose own buffer is allocated before the
/// baseline) — and a buffering query's heap is what its buffers and join
/// index cost, the same as when the document trickles in 8 KiB at a time.
/// (That cost is several times `peak_buffer_bytes`, the payload bytes the
/// budget ledger counts; the representation overhead is the engine's, not
/// the input's, and not this test's subject.)
fn heap_follows_the_buffers_not_the_document() {
    const SLACK: i64 = 256 << 10;
    let (doc, _) = generate_string(&XmarkConfig::new(4 << 20));
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let prepare = |name: &str| {
        let q = PAPER_QUERIES.iter().find(|q| q.name == name).expect("paper query");
        engine.prepare(q.source).unwrap()
    };
    for name in ["Q1", "Q20"] {
        let q = prepare(name);
        let (stats, peak) = peak_above_baseline(|| q.run_to(doc.as_bytes(), NullSink::default()));
        let buffers = stats.unwrap().peak_buffer_bytes;
        assert!(buffers < 1024, "{name} streams (buffers at most one small element): {buffers}");
        assert!(peak < SLACK, "{name} over a slice peaked {peak} B above baseline");

        let input = BufReader::with_capacity(1 << 20, doc.as_bytes());
        let (stats, peak) = peak_above_baseline(|| q.run_to(input, NullSink::default()));
        stats.unwrap();
        assert!(peak < SLACK, "{name} over a BufReader peaked {peak} B above its buffer");
    }
    let q8 = prepare("Q8");
    let (stats, peak) = peak_above_baseline(|| q8.run_to(doc.as_bytes(), NullSink::default()));
    let buffers = stats.unwrap().peak_buffer_bytes as i64;
    assert!(buffers > SLACK, "Q8 buffers: {buffers}");
    let (fin, trickled) = peak_above_baseline(|| {
        let mut session = q8.session(NullSink::default());
        doc.as_bytes().chunks(8 << 10).try_for_each(|c| session.feed(c))?;
        session.finish()
    });
    assert_eq!(fin.unwrap().stats.peak_buffer_bytes as i64, buffers);
    assert!(
        (peak - trickled).abs() < SLACK,
        "Q8 peaked {peak} B over a slice, {trickled} B fed 8 KiB at a time"
    );
}

/// One test function (not several) so no parallel test thread perturbs the
/// global counters mid-measurement.
#[test]
fn streaming_runs_allocate_independently_of_document_size() {
    heap_follows_the_buffers_not_the_document();

    let engine = Engine::builder().dtd_str(DTD).build().unwrap();

    // (a) pure structural streaming: no conditions, no buffers;
    // (b) Q1-style on-the-fly flag condition — still zero-buffer.
    let queries = [
        "<results>{ for $b in $ROOT/bib/book return \
            <result> {$b/title} {$b/author} </result> }</results>",
        // (title precedes price in the content model, so the flag is final
        // before the output streams — the paper's on-the-fly condition.)
        "<hits>{ for $b in $ROOT/bib/book where $b/title = \"Streaming\" \
            return <hit> {$b/price} </hit> }</hits>",
    ];
    for query in queries {
        let q = engine.prepare(query).unwrap();
        let small = doc(4);
        let large = doc(400);

        // Sanity: the plan must be the zero-buffer streaming path.
        let run = q.run_str(&small).unwrap();
        assert_eq!(run.stats.peak_buffer_bytes, 0, "{query} must stream");
        assert!(q.is_fully_streaming(), "{query} must stream");

        // Warm up both documents once (first run sizes the reusable
        // buffers), then measure.
        allocs_of_run(&q, &small);
        allocs_of_run(&q, &large);
        let a_small = allocs_of_run(&q, &small);
        let a_large = allocs_of_run(&q, &large);
        assert_eq!(
            a_small, a_large,
            "allocation count must not scale with events for {query}: \
             {a_small} allocs for 4 books vs {a_large} for 400"
        );
    }

    // The tracing seam rides the same bar (same function: no parallel test
    // thread may perturb the counter). Disabled — the default — it is one
    // branch and zero heap traffic per would-be event…
    let disabled: Option<std::sync::Arc<dyn Tracer>> = None;
    let before = ALLOCS.load(Ordering::Relaxed);
    for shard in 0..10_000u32 {
        if let Some(t) = &disabled {
            t.emit(TraceEvent::Resume { shard });
        }
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "a disabled tracer must not allocate on the emit path"
    );

    // …and the default subscriber, the bounded ring, pre-allocates at
    // construction and never allocates on emit.
    let ring = TraceBuffer::with_capacity(64);
    let tracer: std::sync::Arc<dyn Tracer> = ring.clone();
    let before = ALLOCS.load(Ordering::Relaxed);
    for shard in 0..10_000u32 {
        tracer.emit(TraceEvent::Stall { shard, cause: StallCause::Budget });
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "TraceBuffer::emit must not allocate once the ring exists"
    );
    assert_eq!(ring.recorded(), 10_000, "every emit was recorded (ring overwrites, never drops)");

    // A shared session with duplicate subscribers rides the same bar: the
    // class's tee stages output in one buffer that reaches its (bounded)
    // capacity on the first write and is reused from then on, so once the
    // reader window and the pump's pools exist, further feeds — each one
    // copying staged output to three members — allocate nothing.
    let mut registry = QueryRegistry::new();
    registry.register("results", engine.prepare(queries[0]).unwrap());
    registry.register("hits", engine.prepare(queries[1]).unwrap());
    let set =
        SubscriptionSet::compile_subset(&registry, &["results", "hits", "results", "results"])
            .unwrap();
    assert_eq!(set.plan().classes().len(), 2, "three subscribers share one pump");
    let mut shared = set.session((0..set.len()).map(|_| NullSink::default()).collect());
    shared.feed(b"<bib>").unwrap();
    for _ in 0..8 {
        shared.feed(BOOK.as_bytes()).unwrap(); // warm-up
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..400 {
        shared.feed(BOOK.as_bytes()).unwrap();
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "steady-state feeds of a shared session with duplicates must not allocate"
    );
    // Every seam above falls on a `>`. Cut the same stream every 97 bytes
    // instead and almost every chunk ends mid-construct: each feed carries
    // a tail over and stitches it to the next chunk. The carry keeps its
    // (small) capacity between feeds, so the bar is still zero.
    let books = BOOK.repeat(300);
    for chunk in books.as_bytes().chunks(97) {
        shared.feed(chunk).unwrap(); // warm-up
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for chunk in books.as_bytes().chunks(97) {
        shared.feed(chunk).unwrap();
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "steady-state feeds that end mid-construct must not allocate"
    );
    shared.feed(b"</bib>").unwrap();
    let written: Vec<u64> = shared
        .finish_parts()
        .into_iter()
        .map(|(res, sink)| res.map(|_| sink.expect("not aborted").bytes).unwrap())
        .collect();
    assert!(written[0] > 1008 * 8, "every book produced output: {written:?}");
    assert_eq!((written[0], written[0]), (written[2], written[3]), "each member got it all");
}
