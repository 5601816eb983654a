//! Chunk-boundary invariance of the push-based [`flux::Session`].
//!
//! The session contract: however the input bytes are split across
//! [`Session::feed`](flux::Session::feed) calls, the output is
//! byte-identical to the one-shot pull run and so is every statistic —
//! `peak_buffer_bytes` in particular, since the paper's buffer-minimization
//! guarantee would be worthless if it depended on packet boundaries.
//! Exhaustively checked at *every* byte offset (splits inside tags, inside
//! text, and inside multi-byte UTF-8 sequences included), plus random
//! multi-way splits.

mod common;

use flux::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STRONG_DTD: &str = "<!ELEMENT bib (book)*>\
    <!ELEMENT book (title,(author+|editor+),publisher,price)>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
    <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
const WEAK_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";

/// XMP Q3, the paper's introductory example.
const Q3: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

const STRONG_DOC: &str = "<bib>\
    <book><title>Größenwahn &amp; Mäßigung</title><author>Köch</author><author>Señor</author>\
    <publisher>VLDB €</publisher><price>65</price></book>\
    <book><title>Web</title><editor>Abiteboul</editor><publisher>MK</publisher>\
    <price>39</price></book></bib>";

const WEAK_DOC: &str = "<bib><book><title>T1</title><author>A1</author><title>T1b</title>\
    <author>Ä2</author></book><book><author>B1</author></book></bib>";

/// Feed `doc` split at the given offsets and compare against the one-shot
/// run of the same preparation.
#[track_caller]
fn check_split(q: &PreparedQuery, reference: &RunOutcome, doc: &[u8], splits: &[usize]) {
    let mut session = q.session(StringSink::new());
    for chunk in common::pieces(doc, splits) {
        session.feed(chunk).expect("worker alive");
    }
    let fin = session.finish().unwrap_or_else(|e| panic!("session failed at {splits:?}: {e}"));
    assert_eq!(fin.sink.as_str(), reference.output, "output differs for splits {splits:?}");
    assert_eq!(
        fin.stats, reference.stats,
        "stats (incl. peak_buffer_bytes) differ for splits {splits:?}"
    );
    // Telemetry compares always-equal inside `RunStats`; this one is a
    // property of the document, not of how it was delivered.
    assert_eq!(
        fin.stats.tape.fast_forwarded, reference.stats.tape.fast_forwarded,
        "fast-forwarded events differ for splits {splits:?}"
    );
}

/// The exhaustive property: one preparation, every possible two-chunk split.
fn every_offset(dtd_src: &str, query: &str, doc: &str, expect_zero_peak: bool) {
    let engine = Engine::builder().dtd_str(dtd_src).build().unwrap();
    let q = engine.prepare(query).unwrap();
    let reference = q.run_str(doc).unwrap();
    assert_eq!(expect_zero_peak, reference.stats.peak_buffer_bytes == 0);
    for at in 0..=doc.len() {
        check_split(&q, &reference, doc.as_bytes(), &[at]);
    }
}

#[test]
fn q3_streams_identically_at_every_split_offset() {
    // The paper's zero-buffer case: peak stays exactly 0 for all splits.
    every_offset(STRONG_DTD, Q3, STRONG_DOC, true);
}

#[test]
fn buffering_plan_is_split_invariant_too() {
    // The weak schema forces author buffering; the peak must still be
    // byte-for-byte identical however the input is chunked.
    every_offset(WEAK_DTD, Q3, WEAK_DOC, false);
}

#[test]
fn random_multiway_splits_on_generated_documents() {
    let engine = Engine::builder().dtd_str(common::TEST_DTD).build().unwrap();
    let q = engine
        .prepare(
            "<out>{ for $s in $ROOT/lib/shelf return \
               { for $b in $s/book return <hit> {$s/label} {$b/title} </hit> } }</out>",
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for doc_seed in 0..12u64 {
        let doc = common::random_doc(engine.dtd(), doc_seed).to_xml();
        let reference = q.run_str(&doc).unwrap();
        for _ in 0..8 {
            let n_splits = rng.random_range(1..6usize);
            let mut splits: Vec<usize> =
                (0..n_splits).map(|_| rng.random_range(0..=doc.len())).collect();
            splits.sort_unstable();
            check_split(&q, &reference, doc.as_bytes(), &splits);
        }
    }
}

#[test]
fn unknown_names_stream_identically_at_every_split_offset() {
    // Elements absent from both DTD and query carry the reserved UNKNOWN
    // NameId. They flow through copies below the validated level; chunk
    // boundaries (including ones splitting the unknown tag itself) must
    // not change output or stats.
    let dtd = "<!ELEMENT r (a)*><!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>";
    let doc = "<r><a><b>x<zzz>mid<deep>d</deep></zzz>y</b></a><a><b><zzz/></b></a></r>";
    every_offset(dtd, "<out>{ for $x in $ROOT/r/a return {$x} }</out>", doc, true);
}

#[test]
fn unknown_name_validation_error_is_split_invariant() {
    // An unknown element at a validated position must fail identically
    // however the bytes are chunked.
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    let q = engine.prepare(Q3).unwrap();
    let doc = b"<bib><zzz>x</zzz></bib>";
    for at in 0..=doc.len() {
        let mut s = q.session(StringSink::new());
        let _ = s.feed(&doc[..at]);
        let _ = s.feed(&doc[at..]);
        let (res, _) = s.finish_parts();
        let err = res.expect_err("unknown element at scope position must fail");
        assert!(err.to_string().contains("zzz"), "split {at}: {err}");
    }
}

#[test]
fn empty_chunks_are_harmless() {
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    let q = engine.prepare(Q3).unwrap();
    let reference = q.run_str(STRONG_DOC).unwrap();
    let mid = STRONG_DOC.len() / 2;
    check_split(&q, &reference, STRONG_DOC.as_bytes(), &[0, 0, mid, mid, STRONG_DOC.len()]);
}

/// Both seam queries plus a duplicate of the first (a two-member class).
fn seam_set(engine: &Engine) -> SubscriptionSet {
    let mut reg = QueryRegistry::new();
    reg.register("t", engine.prepare(common::SEAM_QUERIES[0]).unwrap());
    reg.register("u", engine.prepare(common::SEAM_QUERIES[1]).unwrap());
    SubscriptionSet::compile_subset(&reg, &["t", "u", "t"]).unwrap()
}

/// Outcome of a shared session over `doc` cut at `cuts`: per subscriber the
/// stats (or the error text), the fast-forward count and the output.
fn shared_split(
    set: &SubscriptionSet,
    doc: &[u8],
    cuts: &[usize],
) -> Vec<(Result<RunStats, String>, u64, String)> {
    let mut s = set.session_strings();
    for chunk in common::pieces(doc, cuts) {
        let _ = s.feed(chunk); // a parse error refuses later chunks
    }
    s.finish_parts()
        .into_iter()
        .map(|(res, sink)| {
            let ff = res.as_ref().map_or(0, |st| st.tape.fast_forwarded);
            (res.map_err(|e| e.to_string()), ff, sink.unwrap().into_string())
        })
        .collect()
}

#[test]
fn constructs_straddling_two_and_three_chunks_are_invisible() {
    // The in-place feed's window switch: a construct longer than the first
    // stitch prefix, cut once or twice, on every backend, for a single and
    // a shared session.
    let doc = common::seam_doc(200);
    for choice in common::scanner_choices() {
        let engine = Engine::builder().dtd_str(common::SEAM_DTD).scanner(choice).build().unwrap();
        let q = engine.prepare(common::SEAM_QUERIES[0]).unwrap();
        let reference = q.run_str(&doc).unwrap();
        assert!(reference.output.contains("é€"), "{}", reference.output);
        let set = seam_set(&engine);
        let shared_reference = shared_split(&set, doc.as_bytes(), &[]);
        assert_eq!(shared_reference[0].2, reference.output);
        assert_eq!(shared_reference[0].0.as_ref().unwrap(), &reference.stats);
        for at in 0..=doc.len() {
            for cuts in common::seam_cuts(doc.len(), at) {
                check_split(&q, &reference, doc.as_bytes(), &cuts);
                let shared = shared_split(&set, doc.as_bytes(), &cuts);
                assert_eq!(shared, shared_reference, "{choice:?} shared session, cuts {cuts:?}");
            }
        }
    }
}

#[test]
fn errors_behind_a_straddling_construct_keep_their_offsets() {
    for doc in common::seam_error_docs(200) {
        let doc = doc.as_bytes();
        for choice in common::scanner_choices() {
            let engine =
                Engine::builder().dtd_str(common::SEAM_DTD).scanner(choice).build().unwrap();
            let q = engine.prepare(common::SEAM_QUERIES[0]).unwrap();
            // The error's text carries its byte offset.
            let reference = q.run_bytes(doc).unwrap_err().to_string();
            assert!(reference.contains("byte"), "{reference}");
            let set = seam_set(&engine);
            let shared_reference = shared_split(&set, doc, &[]);
            assert_eq!(shared_reference[0].0.as_ref().unwrap_err(), &reference);
            // Every offset for the short documents, a stride plus the last
            // 200 for the 10 KB one.
            let dense = doc.len() < 2000;
            for at in (0..=doc.len()).filter(|at| dense || at % 61 == 0 || at + 200 > doc.len()) {
                for cuts in common::seam_cuts(doc.len(), at) {
                    let mut s = q.session(StringSink::new());
                    for chunk in common::pieces(doc, &cuts) {
                        let _ = s.feed(chunk);
                    }
                    let err = s.finish_parts().0.expect_err("malformed input must fail");
                    assert_eq!(err.to_string(), reference, "{choice:?} cuts {cuts:?}");
                    let shared = shared_split(&set, doc, &cuts);
                    assert_eq!(shared, shared_reference, "{choice:?} shared, cuts {cuts:?}");
                }
            }
        }
    }
}
