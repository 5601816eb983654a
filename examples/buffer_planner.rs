//! Buffer planning walkthrough: Example 5.1 and Figure 3 of the paper.
//!
//! Computes Π($bib) and Π($article) for the CEO query, prints the marked
//! and pruned buffer trees, then shows the compiled buffer plan of a full
//! query against the XMark schema and how its buffered join is evaluated.
//!
//! ```text
//! cargo run --example buffer_planner
//! ```

use flux::engine::bufplan::{buffer_tree_for, pi};
use flux::prelude::Engine;
use flux::query::parse_xquery;
use flux::xmark::{Q8, XMARK_DTD};

fn main() {
    // Example 5.1: all book publishers whose CEO has published articles.
    let alpha = parse_xquery(
        "{ for $book in $bib/book return \
           { for $p in $book/publisher return \
             { if $article/author = $book/publisher/ceo then {$p} } } }",
    )
    .expect("expression parses");

    println!("Example 5.1 — buffered paths:");
    for var in ["bib", "article"] {
        println!("  Π(${var}):");
        for (path, mark) in pi(var, &alpha, true) {
            println!("    ${var}/{}  [{mark:?}]", path.join("/"));
        }
    }

    println!("\nFigure 3 — pruned buffer trees (• marks 'record whole subtree'):");
    for var in ["bib", "article"] {
        let tree = buffer_tree_for(var, [&alpha]);
        println!("  T^p(${var}) = {}", tree.render());
    }
    println!("  (the `ceo` leaf was pruned: its marked ancestor `publisher` covers it)");

    // A real query's buffer plan: XMark Q8 against the auction schema.
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().expect("DTD parses");
    let q8 = engine.prepare(Q8).expect("Q8 schedules");
    println!("\nXMark Q8 — compiled buffer plan (scope variable → buffer tree):");
    for (var, tree) in q8.buffer_plan() {
        println!("  ${var}: {tree}");
    }
    println!("\nOnly person ids/names and closed auctions are buffered — the");
    println!("\"effective projection scheme\" of Section 6.");

    // What is buffered is the paper's subject; how the buffered join is then
    // evaluated is the engine's: an index over the loop-invariant side,
    // charged to the same byte budget as the buffers while the join runs.
    println!("\nXMark Q8 — how the buffered join is evaluated:");
    for line in q8.join_plan() {
        println!("  {line}");
    }
}
