//! Regenerate the paper's Figure 4 (Section 6 benchmark results).
//!
//! ```text
//! cargo run -p flux-bench --release --bin figure4               # scaled-down sizes
//! cargo run -p flux-bench --release --bin figure4 -- --full     # the paper's 5/10/50/100 MB
//! cargo run -p flux-bench --release --bin figure4 -- --sizes 1,2,4 --queries Q1,Q13
//! ```
//!
//! Options:
//!   --full              use the paper's sizes (5,10,50,100 MB)
//!   --sizes LIST        comma-separated sizes in MB (default 1,2,5,10)
//!   --queries LIST      subset of Q1,Q8,Q11,Q13,Q20 (default: all)
//!   --cap-mb N          DOM memory cap in MB (default 512, the paper's box)
//!   --max-join-mb N     skip join queries (Q8/Q11) above this size
//!                       (default 25; the DOM baselines keep the paper's
//!                       naive nested loops, which are quadratic — its own
//!                       Q8\@100M ran for 3.2 hours)
//!   --seed N            generator seed (default 42)
//!   --data-dir PATH     where to cache generated documents
//!   --weak-dtd          schedule with the order-free DTD (ablation)
//!   --verify            also cross-check FluX vs galax-sim output sizes

use std::collections::BTreeSet;
use std::path::PathBuf;

use flux_bench::harness::{dataset, prepare_cell, EngineKind};
use flux_bench::report::{format_figure4, Row};
use flux_bench::XMARK_DTD_WEAK;
use flux_dtd::Dtd;
use flux_xmark::{PAPER_QUERIES, XMARK_DTD};

struct Args {
    sizes_mb: Vec<usize>,
    queries: BTreeSet<String>,
    cap_mb: usize,
    max_join_mb: usize,
    seed: u64,
    data_dir: PathBuf,
    weak_dtd: bool,
    verify: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes_mb: vec![1, 2, 5, 10],
        queries: PAPER_QUERIES.iter().map(|q| q.name.to_string()).collect(),
        cap_mb: 512,
        max_join_mb: 25,
        seed: 42,
        data_dir: PathBuf::from("target/xmark-data"),
        weak_dtd: false,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--full" => args.sizes_mb = vec![5, 10, 50, 100],
            "--sizes" => {
                args.sizes_mb = val("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().expect("size in MB"))
                    .collect()
            }
            "--queries" => {
                args.queries = val("--queries").split(',').map(|s| s.trim().to_string()).collect()
            }
            "--cap-mb" => args.cap_mb = val("--cap-mb").parse().expect("cap in MB"),
            "--max-join-mb" => args.max_join_mb = val("--max-join-mb").parse().expect("MB"),
            "--seed" => args.seed = val("--seed").parse().expect("seed"),
            "--data-dir" => args.data_dir = PathBuf::from(val("--data-dir")),
            "--weak-dtd" => args.weak_dtd = true,
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of figure4.rs");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let dtd = Dtd::parse(if args.weak_dtd { XMARK_DTD_WEAK } else { XMARK_DTD })
        .expect("XMark DTD parses");
    let cap = Some(args.cap_mb << 20);

    eprintln!(
        "figure4: sizes {:?} MB, queries {:?}, cap {} MB, seed {}{}",
        args.sizes_mb,
        args.queries,
        args.cap_mb,
        args.seed,
        if args.weak_dtd { ", WEAK DTD (ablation)" } else { "" }
    );

    // Generate datasets first so generation time never pollutes the cells.
    let mut datasets = Vec::new();
    for &mb in &args.sizes_mb {
        eprint!("generating {mb}MB dataset … ");
        let d = dataset(&args.data_dir, &format!("{mb}M"), mb << 20, args.seed)
            .expect("dataset generation");
        eprintln!(
            "{} bytes ({} persons, {} open, {} closed, {} australian items)",
            d.bytes,
            d.summary.persons,
            d.summary.open_auctions,
            d.summary.closed_auctions,
            d.summary.australia_items
        );
        datasets.push((mb, d));
    }

    let mut rows = Vec::new();
    for q in PAPER_QUERIES {
        if !args.queries.contains(q.name) {
            continue;
        }
        // Prepare each engine once per query; the timed cells below measure
        // execution only, and re-use the preparation across all sizes.
        let flux_cell = prepare_cell(EngineKind::Flux, q.source, &dtd, None);
        let galax_cell = prepare_cell(EngineKind::GalaxSim, q.source, &dtd, cap);
        let anonx_cell = prepare_cell(EngineKind::AnonxSim, q.source, &dtd, cap);
        for (mb, d) in &datasets {
            let skip_join = q.is_join && *mb > args.max_join_mb;
            if skip_join {
                eprintln!("{} @ {}M: skipped (join above --max-join-mb; quadratic)", q.name, mb);
                rows.push(Row {
                    query: q.name,
                    size: format!("{mb}M"),
                    flux: None,
                    galax: None,
                    anonx: None,
                });
                continue;
            }
            eprint!("{} @ {}M: flux … ", q.name, mb);
            let flux = flux_cell.execute(&d.path);
            eprint!("galax-sim … ");
            let galax = galax_cell.execute(&d.path);
            eprint!("anonx-sim … ");
            let anonx = anonx_cell.execute(&d.path);
            eprintln!("done");
            if args.verify {
                if let (None, None) = (&flux.aborted, &galax.aborted) {
                    assert_eq!(
                        flux.output_bytes, galax.output_bytes,
                        "{} @ {}M: FluX and galax-sim disagree on output size",
                        q.name, mb
                    );
                    eprintln!(
                        "  verified: both engines produced {} output bytes",
                        flux.output_bytes
                    );
                }
            }
            rows.push(Row {
                query: q.name,
                size: format!("{mb}M"),
                flux: Some(flux),
                galax: Some(galax),
                anonx: Some(anonx),
            });
        }
    }

    println!("\nFigure 4 (reproduced) — time / peak memory");
    println!("{}", format_figure4(&rows));
    println!("notes:");
    println!(
        "  - galax-sim = DOM + path projection [14]; anonx-sim = DOM, time-only (see DESIGN.md §3)"
    );
    println!("  - '- / >NM cap' = materialization aborted at the memory cap, like the paper's '- / >500M'");
    println!("  - FluX memory is peak runtime buffer bytes; 0 means fully streamed");
}
