//! Delivery-mode transparency: the batched event tape is a perf knob,
//! never an observable one.
//!
//! Every test runs the same prepared query twice — once under the default
//! [`DeliveryMode::Tape`], once with [`DeliveryMode::PerEvent`] forced
//! through the builder — and asserts outputs, statistics and FLXS
//! snapshot envelopes are **byte-identical**: at every two-chunk split
//! offset, at every snapshot offset (including restoring a tape-mode
//! snapshot into a per-event session and vice versa — the delivery mode
//! is deliberately excluded from the plan fingerprint), through the
//! `run_to` BufRead path with a tiny buffer, and across an M=3 shared
//! fan-out session. Since tape sessions parse each chunk in place and
//! per-event sessions copy it into the reader first, the same assertions
//! pin the in-place feed against the owning one.

mod common;

use std::io::BufReader;

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux::xml::DeliveryMode;

const STRONG_DTD: &str = "<!ELEMENT bib (book)*>\
    <!ELEMENT book (title,(author+|editor+),publisher,price)>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
    <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
const WEAK_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const Q3: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";
const STRONG_DOC: &str = "<bib>\
    <book><title>Größenwahn &amp; Mäßigung</title><author>Köch</author><author>Señor</author>\
    <publisher>VLDB €</publisher><price>65</price></book>\
    <book><title>Web</title><editor>Abiteboul</editor><publisher>MK</publisher>\
    <price>39</price></book></bib>";
const WEAK_DOC: &str = "<bib><book><title>T1</title><author>A1</author><title>T1b</title>\
    <author>Ä2</author></book><book><author>B1</author></book></bib>";

/// The same DTD+query prepared under both delivery modes.
fn prepare_pair(dtd: &str, query: &str) -> (PreparedQuery, PreparedQuery) {
    let tape = Engine::builder().dtd_str(dtd).delivery(DeliveryMode::Tape).build().unwrap();
    let pull = Engine::builder().dtd_str(dtd).delivery(DeliveryMode::PerEvent).build().unwrap();
    (tape.prepare(query).unwrap(), pull.prepare(query).unwrap())
}

/// Feed `doc` cut at `cuts` into a session of `q` and return its outcome.
fn run_split(q: &PreparedQuery, doc: &[u8], cuts: &[usize]) -> (RunStats, String) {
    let mut s = q.session_string();
    for chunk in common::pieces(doc, cuts) {
        s.feed(chunk).expect("chunk feeds clean");
    }
    let fin = s.finish().unwrap_or_else(|e| panic!("finish at cuts {cuts:?}: {e}"));
    (fin.stats, fin.sink.into_string())
}

#[track_caller]
fn assert_modes_agree(dtd: &str, query: &str, doc: &str) {
    assert_modes_agree_cut(dtd, query, doc, |at| vec![vec![at]]);
}

/// `cuts_at(at)` lists the chunkings to try for first cut `at`.
#[track_caller]
fn assert_modes_agree_cut(
    dtd: &str,
    query: &str,
    doc: &str,
    cuts_at: impl Fn(usize) -> Vec<Vec<usize>>,
) {
    let (tape_q, pull_q) = prepare_pair(dtd, query);
    let reference = pull_q.run_str(doc).unwrap();
    // One-shot: the tape-mode run_str must match the per-event run.
    let got = tape_q.run_str(doc).unwrap();
    assert_eq!(got.output, reference.output, "one-shot output differs");
    assert_eq!(got.stats, reference.stats, "one-shot stats differ");
    // Every first cut, both modes.
    for at in 0..=doc.len() {
        for cuts in cuts_at(at) {
            for (q, mode) in [(&tape_q, "tape"), (&pull_q, "pull")] {
                let (stats, out) = run_split(q, doc.as_bytes(), &cuts);
                assert_eq!(out, reference.output, "{mode} output differs at cuts {cuts:?}");
                assert_eq!(stats, reference.stats, "{mode} stats differ at cuts {cuts:?}");
            }
        }
    }
}

#[test]
fn streaming_plan_is_delivery_invariant_at_every_split() {
    // Zero-buffer plan: pure event-loop path, skip fast-forwarding live.
    assert_modes_agree(STRONG_DTD, Q3, STRONG_DOC);
}

#[test]
fn buffering_plan_is_delivery_invariant_at_every_split() {
    // The weak schema forces author buffering: capture/replay under tape
    // batches must byte-match the per-event run, peak included.
    assert_modes_agree(WEAK_DTD, Q3, WEAK_DOC);
}

#[test]
fn straddling_constructs_are_delivery_invariant_at_every_split() {
    // Comments, CDATA, a long attribute, entities, multi-byte text and a
    // long text run, each longer than the in-place feed's first stitch
    // prefix: the window switch must be as invisible as the tape itself.
    let doc = common::seam_doc(200);
    for query in common::SEAM_QUERIES {
        assert_modes_agree_cut(common::SEAM_DTD, query, &doc, |at| {
            common::seam_cuts(doc.len(), at)
        });
    }
}

#[test]
fn all_five_paper_queries_are_delivery_invariant() {
    let (doc, _) = generate_string(&XmarkConfig::new(2 << 10));
    for q in PAPER_QUERIES {
        assert_modes_agree(XMARK_DTD, q.source, &doc);
    }
}

#[test]
fn run_to_buffered_reads_are_delivery_invariant() {
    // The BufRead path with a 7-byte buffer: tape mode sees dozens of
    // tiny feeds (every batch ends NeedMoreData), per-event pulls through
    // the same chunks. Output bytes and stats must agree.
    let (tape_q, pull_q) = prepare_pair(STRONG_DTD, Q3);
    let reference = pull_q.run_str(STRONG_DOC).unwrap();
    for q in [&tape_q, &pull_q] {
        let mut sink = StringSink::new();
        let reader = BufReader::with_capacity(7, STRONG_DOC.as_bytes());
        let stats = q.run_to(reader, &mut sink).unwrap();
        assert_eq!(sink.as_str(), reference.output);
        assert_eq!(stats, reference.stats);
    }
}

#[test]
fn snapshot_envelopes_are_byte_identical_across_modes_at_every_offset() {
    // The FLXS v1 bytes must not know how events were delivered: snapshot
    // the same prefix under both modes and compare envelopes byte for
    // byte. Then cross-restore — tape snapshot into a per-event session
    // and the reverse — and finish both against the reference.
    let (tape_q, pull_q) = prepare_pair(STRONG_DTD, Q3);
    let doc = STRONG_DOC.as_bytes();
    let reference = pull_q.run_str(STRONG_DOC).unwrap();
    for at in 0..=doc.len() {
        let snap_tape = {
            let mut s = tape_q.session(flux_xml::writer::NullSink::default());
            s.feed(&doc[..at]).unwrap();
            s.snapshot().unwrap_or_else(|e| panic!("tape snapshot at {at}: {e}"))
        };
        let snap_pull = {
            let mut s = pull_q.session(flux_xml::writer::NullSink::default());
            s.feed(&doc[..at]).unwrap();
            s.snapshot().unwrap_or_else(|e| panic!("pull snapshot at {at}: {e}"))
        };
        assert_eq!(snap_tape, snap_pull, "FLXS envelopes differ at offset {at}");

        // Cross-mode restore: delivery mode is not part of the plan
        // fingerprint, so a snapshot taken under either mode resumes
        // under the other. The resumed suffix output must complete the
        // reference exactly (the prefix streamed through the old sink).
        for (q, snap, label) in
            [(&pull_q, &snap_tape, "tape→pull"), (&tape_q, &snap_pull, "pull→tape")]
        {
            let mut resumed = q
                .restore_session(StringSink::new(), snap)
                .unwrap_or_else(|e| panic!("{label} restore at {at}: {e}"));
            resumed.feed(&doc[at..]).unwrap();
            let fin = resumed.finish().unwrap_or_else(|e| panic!("{label} finish at {at}: {e}"));
            assert_eq!(fin.stats, reference.stats, "{label} stats differ at {at}");
            assert!(
                reference.output.ends_with(fin.sink.as_str()),
                "{label} suffix output at {at} does not complete the reference"
            );
        }
    }
}

#[test]
fn shared_fanout_is_delivery_invariant_at_every_split() {
    const DTD: &str = "<!ELEMENT bib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const DOC: &str = "<bib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        </bib>";
    let sets: Vec<SubscriptionSet> = [DeliveryMode::Tape, DeliveryMode::PerEvent]
        .into_iter()
        .map(|mode| {
            let engine = Engine::builder().dtd_str(DTD).delivery(mode).build().unwrap();
            let mut reg = QueryRegistry::new();
            reg.register(
                "books",
                engine
                    .prepare(
                        "<books>{ for $b in $ROOT/bib/book return <hit> {$b/title} </hit> }</books>",
                    )
                    .unwrap(),
            );
            reg.register(
                "articles",
                engine
                    .prepare(
                        "<articles>{ for $a in $ROOT/bib/article return \
                         <hit> {$a/headline} </hit> }</articles>",
                    )
                    .unwrap(),
            );
            SubscriptionSet::compile(&reg).unwrap()
        })
        .collect();

    // Per-event reference, fed one-shot.
    let mut r = sets[1].session_strings();
    r.feed(DOC.as_bytes()).unwrap();
    let reference: Vec<(RunStats, String)> = r
        .finish_parts()
        .into_iter()
        .map(|(res, sink)| (res.unwrap(), sink.unwrap().into_string()))
        .collect();

    for at in 0..=DOC.len() {
        for (set, mode) in [(&sets[0], "tape"), (&sets[1], "pull")] {
            let mut s = set.session_strings();
            s.feed(&DOC.as_bytes()[..at]).unwrap();
            s.feed(&DOC.as_bytes()[at..]).unwrap();
            for (i, ((res, sink), (ref_stats, ref_out))) in
                s.finish_parts().into_iter().zip(&reference).enumerate()
            {
                let stats = res.unwrap_or_else(|e| panic!("{mode} sub {i} at {at}: {e}"));
                assert_eq!(stats, *ref_stats, "{mode} sub {i} stats differ at split {at}");
                assert_eq!(sink.unwrap().as_str(), *ref_out, "{mode} sub {i} at split {at}");
            }
        }
    }
}

#[test]
fn tape_telemetry_reflects_the_active_mode() {
    // Not an equivalence property but the observability contract: tape
    // runs report batches/events, per-event runs report zeros (the
    // counters are excluded from stats equality and snapshots).
    let (tape_q, pull_q) = prepare_pair(STRONG_DTD, Q3);
    let tape_stats = tape_q.run_str(STRONG_DOC).unwrap().stats;
    if std::env::var_os("FLUX_FORCE_PULL").is_none_or(|v| v.is_empty()) {
        assert!(tape_stats.tape.batches > 0, "tape run must count batches");
        assert_eq!(tape_stats.tape.events, tape_stats.events, "every event rides the tape");
    } else {
        // The kill switch outranks the builder: even the tape-mode engine
        // runs per-event and the counters stay zero.
        assert_eq!(tape_stats.tape.batches, 0, "FLUX_FORCE_PULL must win over the builder");
    }
    let pull_stats = pull_q.run_str(STRONG_DOC).unwrap().stats;
    assert_eq!(pull_stats.tape.batches, 0, "per-event run must not touch the tape");
    assert_eq!(pull_stats.tape.events, 0);
}
