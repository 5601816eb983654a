//! End-to-end XMark pipeline: generate an auction site document, run all
//! five Appendix-A queries on the FluX engine and the DOM baseline, and
//! print a miniature of the paper's Figure 4.
//!
//! ```text
//! cargo run --release --example xmark_auctions          # 1 MB document
//! cargo run --release --example xmark_auctions -- 8     # 8 MB document
//! ```

use std::time::Instant;

use flux::baseline::{DomEngine, ProjectionMode};
use flux::prelude::Engine;
use flux::query::parse_xquery;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux::xml::writer::NullSink;

fn main() {
    let mb: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(1);
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().expect("XMark DTD parses");

    eprint!("generating {mb} MB XMark document … ");
    let (doc, summary) = generate_string(&XmarkConfig::megabytes(mb));
    eprintln!(
        "{} bytes: {} persons, {} open auctions, {} closed auctions, {} australian items",
        summary.bytes,
        summary.persons,
        summary.open_auctions,
        summary.closed_auctions,
        summary.australia_items
    );

    println!(
        "\n{:<6} {:>14} {:>14} {:>14} {:>14}",
        "query", "flux time", "flux buffer", "dom time", "dom tree"
    );
    for q in PAPER_QUERIES {
        // Prepare both engines once, outside the timed region, so the
        // numbers measure execution rather than planning.
        let prepared = engine.prepare(q.source).expect("paper query schedules");
        let query = parse_xquery(q.source).expect("paper query parses");
        let dom = DomEngine { projection: ProjectionMode::Paths, memory_cap: None }.prepare(&query);

        let t0 = Instant::now();
        let stats = prepared.run_to(doc.as_bytes(), NullSink::default()).expect("flux run");
        let flux_time = t0.elapsed();

        let t1 = Instant::now();
        let dom_stats = dom.run_to(doc.as_bytes(), NullSink::default()).expect("dom run");
        let dom_time = t1.elapsed();

        assert_eq!(stats.output_bytes, dom_stats.output_bytes, "{}: engines disagree!", q.name);
        println!(
            "{:<6} {:>12.1?} {:>12} B {:>12.1?} {:>12} B",
            q.name, flux_time, stats.peak_buffer_bytes, dom_time, dom_stats.tree_bytes
        );
    }
    println!("\nQ1/Q13 stream with 0-byte buffers; Q20 buffers one person at a time;");
    println!("Q8/Q11 buffer both join sides; the buffered join is a hash probe (Q8) and a");
    println!("key-column scan (Q11) where the paper — and the DOM baseline — loop nested.");
}
