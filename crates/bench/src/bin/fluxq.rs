//! `fluxq` — run XQuery− queries over XML files with the FluX engine.
//!
//! ```text
//! fluxq --dtd schema.dtd --query 'QUERY'        data.xml    # run, print result
//! fluxq --dtd schema.dtd --query-file q.xq      data.xml
//! fluxq --dtd schema.dtd --query 'QUERY' --explain          # show plan + buffers
//! fluxq --dtd schema.dtd --query 'QUERY' --stats data.xml   # result + statistics
//! fluxq --dtd schema.dtd --query 'QUERY' --dom   data.xml   # DOM baseline instead
//! ```
//!
//! The query is scheduled against the DTD (normalization → singleton
//! sharing → Figure 2 rewrite → safety check) and executed in one streaming
//! pass over the file.

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::exit;

use flux::Engine;
use flux_baseline::{DomEngine, ProjectionMode};
use flux_dtd::Dtd;
use flux_query::parse_xquery;

struct Args {
    dtd_path: Option<String>,
    query: Option<String>,
    query_file: Option<String>,
    data: Option<String>,
    explain: bool,
    stats: bool,
    dom: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fluxq --dtd <schema.dtd> (--query <q> | --query-file <f>) [data.xml]\n\
         \x20      --explain   print the FluX plan, buffer trees and join strategies, do not run\n\
         \x20      --stats     print run statistics to stderr\n\
         \x20      --dom       evaluate with the DOM baseline (projection on)"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dtd_path: None,
        query: None,
        query_file: None,
        data: None,
        explain: false,
        stats: false,
        dom: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dtd" => args.dtd_path = it.next(),
            "--query" => args.query = it.next(),
            "--query-file" => args.query_file = it.next(),
            "--explain" => args.explain = true,
            "--stats" => args.stats = true,
            "--dom" => args.dom = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && args.data.is_none() => {
                args.data = Some(other.to_string())
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    args
}

fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("fluxq: {context}: {err}");
    exit(1);
}

fn main() {
    let args = parse_args();
    let Some(dtd_path) = &args.dtd_path else { usage() };
    let dtd_src = std::fs::read_to_string(dtd_path)
        .unwrap_or_else(|e| die(&format!("reading {dtd_path}"), e));
    let dtd = Dtd::parse(&dtd_src).unwrap_or_else(|e| die("parsing DTD", e));

    let query_src = match (&args.query, &args.query_file) {
        (Some(q), None) => q.clone(),
        (None, Some(f)) => {
            std::fs::read_to_string(f).unwrap_or_else(|e| die(&format!("reading {f}"), e))
        }
        _ => usage(),
    };
    let query = parse_xquery(&query_src).unwrap_or_else(|e| die("parsing query", e));

    // Prepare once (parse → schedule → safety check → buffer plan); every
    // execution below reuses this compilation.
    let engine = Engine::new(dtd);
    let prepared = engine.prepare_expr(&query).unwrap_or_else(|e| die("scheduling query", e));

    if args.explain {
        println!("FluX plan:\n  {}\n", prepared.plan());
        let buffers = prepared.buffer_plan();
        if buffers.is_empty() {
            println!("buffers: none — the query streams in constant memory");
        } else {
            println!("buffers (scope variable → buffer tree, • = whole subtree):");
            for (var, tree) in buffers {
                println!("  ${var}: {tree}");
            }
        }
        let joins = prepared.join_plan();
        if !joins.is_empty() {
            println!("\nbuffered conditional loops:");
            for line in joins {
                println!("  {line}");
            }
        }
        return;
    }

    let Some(data) = &args.data else { usage() };
    let file = File::open(data).unwrap_or_else(|e| die(&format!("opening {data}"), e));
    let input = BufReader::with_capacity(1 << 20, file);

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if args.dom {
        let dom = DomEngine { projection: ProjectionMode::Paths, memory_cap: None };
        let stats = dom
            .prepare(&query)
            .run_to(input, &mut out)
            .unwrap_or_else(|e| die("evaluating (DOM)", e));
        out.write_all(b"\n").ok();
        if args.stats {
            eprintln!(
                "fluxq [dom]: tree {} bytes, {} nodes, output {} bytes",
                stats.tree_bytes, stats.nodes, stats.output_bytes
            );
        }
    } else {
        let stats =
            prepared.run_to(input, &mut out).unwrap_or_else(|e| die("evaluating (streaming)", e));
        out.write_all(b"\n").ok();
        if args.stats {
            eprintln!(
                "fluxq: peak buffer {} bytes, {} events, {} on / {} on-first firings, output {} bytes",
                stats.peak_buffer_bytes,
                stats.events,
                stats.on_firings,
                stats.on_first_firings,
                stats.output_bytes
            );
        }
    }
}
