//! Shared fan-out quickstart: M standing queries, one parse.
//!
//! Registers the paper's streaming XMark queries in a [`QueryRegistry`],
//! compiles one [`SubscriptionSet`] over them — one shared symbol table,
//! subscriptions with an identical plan grouped into one *plan class* — and
//! streams a generated XMark document through a single [`SharedSession`].
//! Every subscriber gets exactly the bytes its own independent run would
//! have produced, but the document is tokenized once and each distinct
//! plan is evaluated once: the second subscriber to Q13 below costs a copy
//! of Q13's output, not a second pump.
//!
//! ```text
//! cargo run --example fanout
//! ```

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};

fn main() {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().expect("XMark DTD parses");
    let mut registry = QueryRegistry::new();
    for q in PAPER_QUERIES.iter().filter(|q| !q.is_join) {
        registry.register(q.name, engine.prepare(q.source).expect("paper query compiles"));
    }

    // One compile for the whole catalog, plus a second client on Q13. The
    // set snapshots the registry: `is_current` flips to false if the
    // registry is mutated later.
    let mut ids: Vec<&str> = registry.ids().collect();
    ids.sort_unstable();
    ids.push("Q13");
    let set = SubscriptionSet::compile_subset(&registry, &ids).expect("same engine, one plan");
    let classes = set.plan().classes();
    println!("compiled {:?}: {} subscriptions → {} pumps", set.ids(), set.len(), classes.len());
    println!(
        "  plan classes (subscriber indices): {classes:?}, {} per-query plans reused as-is",
        set.plan().reused_plans(),
    );

    // One incremental parse serves every subscriber.
    let (doc, summary) = generate_string(&XmarkConfig::new(96 << 10));
    let mut session = set.session_strings();
    for chunk in doc.as_bytes().chunks(4096) {
        session.feed(chunk).expect("well-formed XMark input");
    }
    println!("\nstreamed {} bytes ({} items) through one shared parse:", doc.len(), summary.items);
    for (id, (result, sink)) in set.ids().iter().zip(session.finish_parts()) {
        let stats = result.expect("run succeeds");
        let out = sink.expect("subscriber not aborted");
        println!(
            "  {id:<4} {:>7} output bytes  {:>6} events  peak buffer {} bytes",
            out.as_str().len(),
            stats.events,
            stats.peak_buffer_bytes,
        );
    }

    // The snapshot check: mutate the registry, and the compiled set says
    // it needs recompiling.
    let q20 = registry.unregister("Q20").expect("was registered");
    println!("\nafter unregister(\"Q20\"): set.is_current = {}", set.is_current(&registry));
    registry.register("Q20", q20);
    println!(
        "after re-register:         set.is_current = {} (still a different catalog)",
        set.is_current(&registry)
    );
}
