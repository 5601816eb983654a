//! Property-based validation of Theorem 4.3 and the engine: for random
//! valid documents and random (schema-aware) queries, the rewritten FluX
//! plan — executed by the tree interpreter and by the streaming engine —
//! agrees with the direct XQuery− evaluation.

mod common;

use common::{random_doc, random_query, TEST_DTD, TEST_DTD_WEAK};
use flux::core::{check_safety, interp_flux};
use flux::prelude::Engine;
use flux::query::eval::{eval_query, wrap_document};
use proptest::prelude::*;

fn check_one(engine: &Engine, doc_seed: u64, query_seed: u64) {
    let dtd = engine.dtd();
    let root = random_doc(dtd, doc_seed);
    let doc_src = root.to_xml();
    let doc = wrap_document(root);
    let query = random_query(dtd, query_seed);

    let reference = match eval_query(&query, &doc) {
        Ok(r) => r,
        Err(e) => panic!("reference eval failed: {e}\nquery {query}"),
    };
    let prepared = engine
        .prepare_expr(&query)
        .unwrap_or_else(|e| panic!("prepare failed: {e}\nquery {query}"));
    let flux = prepared.plan();
    check_safety(flux, dtd)
        .unwrap_or_else(|v| panic!("unsafe plan: {v}\nquery {query}\nplan {flux}"));

    let via_interp = interp_flux(flux, dtd, &doc)
        .unwrap_or_else(|e| panic!("interp failed: {e}\nquery {query}\nplan {flux}"));
    assert_eq!(
        via_interp, reference,
        "interp ≠ reference\nquery {query}\nplan {flux}\ndoc {doc_src}"
    );

    let run = prepared.run_str(&doc_src).unwrap_or_else(|e| {
        panic!("engine failed: {e}\nquery {query}\nplan {flux}\ndoc {doc_src}")
    });
    assert_eq!(
        run.output, reference,
        "engine ≠ reference\nquery {query}\nplan {flux}\ndoc {doc_src}"
    );
    assert_eq!(run.stats.final_buffer_bytes, 0, "buffer leak\nquery {query}");
}

/// The interned pipeline against the DOM baseline on generated XMark: for
/// random fragments (size and seed vary), every paper query must produce
/// byte-identical output from the FluX engine, the projected DOM baseline,
/// and the reference evaluator.
fn check_xmark_fragment(size_seed: u64, gen_seed: u64) {
    use flux::baseline::{DomEngine, ProjectionMode};
    use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
    use flux::xml::writer::NullSink;

    let target = 2048 + (size_seed % 7) * 3000;
    let cfg = XmarkConfig { seed: gen_seed, ..XmarkConfig::new(target as usize) };
    let (doc, _) = generate_string(&cfg);
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    for q in PAPER_QUERIES {
        let query = flux::query::parse_xquery(q.source).unwrap();
        let prepared = engine.prepare_expr(&query).unwrap();
        let run = prepared.run_str(&doc).unwrap_or_else(|e| {
            panic!("{} failed on fragment ({size_seed},{gen_seed}): {e}", q.name)
        });
        let dom = DomEngine { projection: ProjectionMode::Paths, memory_cap: None }
            .prepare(&query)
            .run(doc.as_bytes())
            .unwrap();
        assert_eq!(
            run.output, dom.output,
            "{} differs from DOM baseline on fragment ({size_seed},{gen_seed})",
            q.name
        );
        // And the byte counts through a NullSink agree with the string run.
        let stats = prepared.run_to(doc.as_bytes(), NullSink::default()).unwrap();
        assert_eq!(stats.output_bytes as usize, run.output.len(), "{}", q.name);
    }
}

/// Join-shaped queries over the XMark vocabulary: (outer sequence, inner
/// sequence, conditions relating `$a` (outer) and `$b` (inner), what to
/// output of `$b`). The engine evaluates these through its join indexes
/// whenever both sides end up buffered; the DOM baseline runs the nested
/// loop the paper describes and is the oracle.
const JOIN_SIDES: &[(&str, &str, &[&str], &str)] = &[
    (
        "/site/people/person",
        "/site/closed_auctions/closed_auction",
        &["$b/buyer/buyer_person = $a/person_id", "$a/person_id = $b/seller"],
        "{$b/price}",
    ),
    (
        "/site/people/person",
        "/site/open_auctions/open_auction",
        &[
            // Multi-valued key: an auction has any number of bidders.
            "$b/bidder/personref = $a/person_id",
            "$a/profile/profile_income > (5000 * $b/initial)",
            "$b/current <= $a/profile/profile_income",
            "$b/initial < (0.001 * $a/person_income)",
        ],
        "{$b/open_auction_id}",
    ),
    (
        "/site/open_auctions/open_auction",
        "/site/closed_auctions/closed_auction",
        &["$b/itemref = $a/itemref", "$b/price > $a/current", "$b/seller = $a/bidder/personref"],
        "<sold>{$b/price}</sold>",
    ),
    (
        // The later section outside: the scheduler can stream `$a` and
        // probe the buffered people once per auction.
        "/site/closed_auctions/closed_auction",
        "/site/people/person",
        &["$a/buyer/buyer_person = $b/person_id", "$b/person_income >= (100 * $a/price)"],
        "{$b/name}",
    ),
];

const JOIN_RESIDUALS: &[&str] = &["", " and exists $b/quantity", " and $a/quantity >= 1"];

fn check_xmark_join(sides: usize, atom: usize, residual: usize, gen_seed: u64) {
    use flux::baseline::{DomEngine, ProjectionMode};
    use flux::xmark::{generate_string, XmarkConfig, XMARK_DTD};

    let (outer, inner, atoms, body) = JOIN_SIDES[sides % JOIN_SIDES.len()];
    let atom = atoms[atom % atoms.len()];
    // (`quantity` exists on auctions only; persons take the bare atom.)
    let residual = if outer.ends_with("person") || inner.ends_with("person") {
        ""
    } else {
        JOIN_RESIDUALS[residual % JOIN_RESIDUALS.len()]
    };
    let source = format!(
        "<joins>{{ for $a in {outer} return <row>{{ for $b in {inner} \
            where {atom}{residual} return {body} }}</row> }}</joins>"
    );
    let cfg = XmarkConfig { seed: gen_seed, ..XmarkConfig::new(24 * 1024) };
    let (doc, _) = generate_string(&cfg);
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let query = flux::query::parse_xquery(&source).unwrap();
    let prepared = engine.prepare_expr(&query).unwrap();
    let run = prepared
        .run_str(&doc)
        .unwrap_or_else(|e| panic!("engine failed on seed {gen_seed}: {e}\nquery {source}"));
    let dom = DomEngine { projection: ProjectionMode::Paths, memory_cap: None }
        .prepare(&query)
        .run(doc.as_bytes())
        .unwrap();
    assert_eq!(
        run.output,
        dom.output,
        "engine ≠ DOM baseline on seed {gen_seed}\nquery {source}\njoins {:?}",
        prepared.join_plan()
    );
    assert_eq!(run.stats.final_buffer_bytes, 0, "buffer leak\nquery {source}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn rewrite_is_equivalent_on_ordered_dtd(doc_seed in 0u64..10_000, query_seed in 0u64..10_000) {
        let engine = Engine::builder().dtd_str(TEST_DTD).build().unwrap();
        check_one(&engine, doc_seed, query_seed);
    }

    #[test]
    fn rewrite_is_equivalent_on_weak_dtd(doc_seed in 0u64..10_000, query_seed in 0u64..10_000) {
        let engine = Engine::builder().dtd_str(TEST_DTD_WEAK).build().unwrap();
        check_one(&engine, doc_seed, query_seed);
    }
}

proptest! {
    // XMark generation is heavier than the random-doc cases above; fewer
    // cases keep the suite fast while still varying size and content.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn interned_pipeline_matches_dom_on_xmark_fragments(
        size_seed in 0u64..1_000,
        gen_seed in 0u64..10_000,
    ) {
        check_xmark_fragment(size_seed, gen_seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn generated_joins_match_dom_on_xmark_fragments(
        sides in 0usize..4,
        atom in 0usize..4,
        residual in 0usize..3,
        gen_seed in 0u64..10_000,
    ) {
        check_xmark_join(sides, atom, residual, gen_seed);
    }
}
