//! Snapshot/restore equivalence of the `flux-state` persistence layer.
//!
//! The contract: a session snapshotted after any feed boundary and restored
//! — in this process, into another shard, or on another machine — produces
//! output and statistics **byte-identical** to a session that never
//! snapshotted. Checked at *every* chunk offset (splits inside tags, text
//! and multi-byte UTF-8 included) for all five Appendix-A paper queries,
//! for a shared M=3 fan-out session, and for fan-out sets with duplicate
//! subscribers (plan classes), one of them aborted before the snapshot.

mod common;

use std::cell::RefCell;
use std::io;
use std::rc::Rc;

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};
use flux::xml::DeliveryMode;

/// A sink whose contents stay observable while the session is live — so a
/// prefix run's streamed output can be read at the snapshot point without
/// finishing (and thereby mutating) the session.
#[derive(Clone, Default)]
struct SharedSink(Rc<RefCell<Vec<u8>>>);

impl SharedSink {
    fn contents(&self) -> String {
        String::from_utf8(self.0.borrow().clone()).unwrap()
    }
}

impl Sink for SharedSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.borrow_mut().extend_from_slice(bytes);
        Ok(())
    }

    fn flush_sink(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Split `doc` at `at`: run the prefix in one session, snapshot, restore
/// into a fresh session+sink, run the suffix, and compare the concatenated
/// output and final stats against the uninterrupted reference.
#[track_caller]
fn check_snapshot_at(q: &PreparedQuery, reference: &RunOutcome, doc: &[u8], at: usize) {
    let prefix_sink = SharedSink::default();
    let mut first = q.session(prefix_sink.clone());
    first.feed(&doc[..at]).expect("prefix feeds clean");
    let snap = first.snapshot().unwrap_or_else(|e| panic!("snapshot at {at}: {e}"));

    // Determinism: the same quiescent state encodes to the same bytes.
    assert_eq!(snap, first.snapshot().unwrap(), "snapshot at {at} is not deterministic");

    // Output streamed before the snapshot left through the old sink; the
    // prefix session is simply dropped, as a crashed process would be.
    let prefix_out = prefix_sink.contents();
    drop(first);

    let mut resumed = q
        .restore_session(StringSink::new(), &snap)
        .unwrap_or_else(|e| panic!("restore at {at}: {e}"));

    // A restored quiescent session re-encodes to the very same envelope.
    assert_eq!(snap, resumed.snapshot().unwrap(), "restore at {at} is not canonical");

    resumed.feed(&doc[at..]).expect("suffix feeds clean");
    let fin = resumed.finish().unwrap_or_else(|e| panic!("resumed finish at {at}: {e}"));
    assert_eq!(
        format!("{prefix_out}{}", fin.sink.as_str()),
        reference.output,
        "output differs for snapshot at {at}"
    );
    assert_eq!(fin.stats, reference.stats, "stats differ for snapshot at {at}");
}

fn check_every_offset(q: &PreparedQuery, doc: &str) {
    let reference = q.run_str(doc).unwrap();
    for at in 0..=doc.len() {
        check_snapshot_at(q, &reference, doc.as_bytes(), at);
    }
}

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

#[test]
fn streaming_plan_snapshots_at_every_offset() {
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    check_every_offset(&engine.prepare(Q3).unwrap(), STRONG_DOC);
}

#[test]
fn buffering_plan_snapshots_at_every_offset() {
    // The weak schema forces author buffering: snapshots here carry live
    // recorder trees, capture buffers and observer stacks mid-scope.
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    check_every_offset(&engine.prepare(Q3).unwrap(), WEAK_DOC);
}

#[test]
fn snapshots_between_in_place_feeds_equal_the_owning_path_and_restore() {
    // A tape session parses each chunk where it lies and carries only the
    // unparsed tail; a per-event session copies every chunk into the reader
    // (the owning `Reader::feed`). Between any two feeds — with constructs
    // straddling two and three chunks — both must serialize to the same
    // envelope, the reader section must hold exactly the unconsumed tail,
    // and the snapshot must resume byte-identically.
    let doc = common::seam_doc(200);
    let doc = doc.as_bytes();
    let prepare = |mode| {
        let engine = Engine::builder().dtd_str(common::SEAM_DTD).delivery(mode).build().unwrap();
        engine.prepare(common::SEAM_QUERIES[0]).unwrap()
    };
    let (tape_q, pull_q) = (prepare(DeliveryMode::Tape), prepare(DeliveryMode::PerEvent));
    let reference = tape_q.run_bytes(doc).unwrap();
    for at in 0..=doc.len() {
        for cuts in common::seam_cuts(doc.len(), at) {
            let prefix_sink = SharedSink::default();
            let mut in_place = tape_q.session(prefix_sink.clone());
            let mut owning = pull_q.session(StringSink::new());
            let mut prev = 0;
            for (k, &cut) in cuts.iter().enumerate() {
                in_place.feed(&doc[prev..cut]).unwrap();
                owning.feed(&doc[prev..cut]).unwrap();
                prev = cut;
                let snap = in_place.snapshot().unwrap();
                assert_eq!(snap, owning.snapshot().unwrap(), "cuts {cuts:?}, after feed {k}");

                let sections = flux::state::Sections::parse(&snap).unwrap();
                let mut reader = sections.require(flux::state::section::READER).unwrap();
                let tail = reader.get_bytes().unwrap();
                assert!(!reader.get_bool().unwrap(), "not closed");
                let offset = reader.get_uint().unwrap() as usize;
                assert_eq!(tail, &doc[offset..cut], "cuts {cuts:?}: reader section is the tail");
                assert_eq!(in_place.buffered_bytes(), owning.buffered_bytes());

                let mut resumed = tape_q.restore_session(StringSink::new(), &snap).unwrap();
                for chunk in &common::pieces(doc, &cuts)[k + 1..] {
                    resumed.feed(chunk).unwrap();
                }
                let fin = resumed.finish().unwrap();
                assert_eq!(
                    format!("{}{}", prefix_sink.contents(), fin.sink.as_str()),
                    reference.output,
                    "cuts {cuts:?}, resumed after feed {k}"
                );
                assert_eq!(fin.stats, reference.stats, "cuts {cuts:?}, resumed after feed {k}");
            }
        }
    }
}

#[test]
fn all_five_paper_queries_snapshot_at_every_offset() {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (doc, _) = generate_string(&XmarkConfig::new(2 << 10));
    for q in PAPER_QUERIES {
        let prepared = engine.prepare(q.source).unwrap();
        check_every_offset(&prepared, &doc);
    }
}

#[test]
fn shared_fanout_session_snapshots_at_every_offset() {
    const DTD: &str = "<!ELEMENT bib (book|article)*>\
        <!ELEMENT book (title,author)><!ELEMENT article (headline,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>\
        <!ELEMENT headline (#PCDATA)>";
    const DOC: &str = "<bib>\
        <book><title>T1</title><author>A1</author></book>\
        <article><headline>H1</headline><author>B1</author></article>\
        <book><title>T2</title><author>A2</author></book>\
        </bib>";
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let mut reg = QueryRegistry::new();
    reg.register(
        "books",
        engine
            .prepare("<books>{ for $b in $ROOT/bib/book return <hit> {$b/title} </hit> }</books>")
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
    reg.register(
        "authors",
        engine
            .prepare(
                "<authors>{ for $b in $ROOT/bib/book return {$b/author} }\
                 { for $a in $ROOT/bib/article return {$a/author} }</authors>",
            )
            .unwrap(),
    );
    let set = SubscriptionSet::compile(&reg).unwrap();
    assert_eq!(set.len(), 3, "M=3 fan-out");
    check_shared_every_offset(&set, DOC, None);

    // The same catalog with duplicates: five subscribers, three pumps.
    // The class's pump state travels in the slot of its first live member.
    let dup = SubscriptionSet::compile_subset(
        &reg,
        &["books", "articles", "books", "authors", "articles"],
    )
    .unwrap();
    assert_eq!(dup.plan().classes(), [vec![0, 2], vec![1, 4], vec![3]]);
    check_shared_every_offset(&dup, DOC, None);
    // … also when that first member (or a later one) was aborted before
    // the snapshot: its slot restores detached, the class lives on.
    check_shared_every_offset(&dup, DOC, Some(0));
    check_shared_every_offset(&dup, DOC, Some(4));
}

#[test]
fn duplicate_buffering_subscribers_snapshot_at_every_offset() {
    // One class of three over the weak schema: the shared pump carries
    // live recorder trees and captures mid-scope, once, for all three.
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    let mut reg = QueryRegistry::new();
    reg.register("q3", engine.prepare(Q3).unwrap());
    reg.register(
        "titles",
        engine.prepare("<titles>{ for $b in $ROOT/bib/book return {$b/title} }</titles>").unwrap(),
    );
    let set = SubscriptionSet::compile_subset(&reg, &["q3", "titles", "q3", "q3"]).unwrap();
    assert_eq!(set.plan().classes(), [vec![0, 2, 3], vec![1]]);
    check_shared_every_offset(&set, WEAK_DOC, None);
    check_shared_every_offset(&set, WEAK_DOC, Some(2));
}

/// The shared twin of [`check_every_offset`]: at every offset, feed the
/// prefix, optionally abort subscriber `abort`, snapshot, restore into
/// fresh sinks, feed the suffix — every surviving subscriber's output and
/// statistics must equal the uninterrupted run's.
fn check_shared_every_offset(set: &SubscriptionSet, doc: &str, abort: Option<usize>) {
    let mut r = set.session_strings();
    r.feed(doc.as_bytes()).unwrap();
    let reference: Vec<(RunStats, String)> = r
        .finish_parts()
        .into_iter()
        .map(|(res, sink)| (res.unwrap(), sink.unwrap().into_string()))
        .collect();

    for at in 0..=doc.len() {
        let prefix_sinks: Vec<SharedSink> = (0..set.len()).map(|_| SharedSink::default()).collect();
        let mut first = set.session(prefix_sinks.clone());
        first.feed(&doc.as_bytes()[..at]).unwrap();
        if let Some(i) = abort {
            first.abort_sub(i).expect("first abort yields the sink");
        }
        let snap = first.snapshot().unwrap_or_else(|e| panic!("shared snapshot at {at}: {e}"));
        assert_eq!(snap, first.snapshot().unwrap(), "shared snapshot at {at} not deterministic");
        let prefixes: Vec<String> = prefix_sinks.iter().map(SharedSink::contents).collect();
        drop(first);

        let sinks = (0..set.len()).map(|i| (Some(i) != abort).then(StringSink::new)).collect();
        let mut resumed = set
            .restore_session(sinks, &snap)
            .unwrap_or_else(|e| panic!("shared restore at {at}: {e}"));
        assert_eq!(snap, resumed.snapshot().unwrap(), "shared restore at {at} not canonical");
        resumed.feed(&doc.as_bytes()[at..]).unwrap();
        let outs = resumed.finish_parts();
        for (i, ((res, sink), (ref_stats, ref_out))) in outs.into_iter().zip(&reference).enumerate()
        {
            if Some(i) == abort {
                assert!(matches!(res, Err(FluxError::SessionAborted)), "sub {i} at {at}");
                assert!(sink.is_none());
                continue;
            }
            let stats = res.unwrap_or_else(|e| panic!("sub {i} at {at}: {e}"));
            assert_eq!(stats, *ref_stats, "sub {i} stats differ for snapshot at {at}");
            let full = format!("{}{}", prefixes[i], sink.unwrap().as_str());
            assert_eq!(full, *ref_out, "sub {i} output differs for snapshot at {at}");
        }
    }
}

#[test]
fn cross_shard_migration_is_equivalent_at_every_offset() {
    // The runtime's migrate rides the same flux-state bytes as an
    // in-process snapshot: for every paper query, a session moved to the
    // other shard after any chunk boundary finishes with output and
    // statistics byte-identical to one that never moved. The sink travels
    // with the session, so the full output lands in one place.
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (doc, _) = generate_string(&XmarkConfig::new(1 << 10));
    let mut rt = Runtime::new(2);
    for q in PAPER_QUERIES {
        let prepared = engine.prepare(q.source).unwrap();
        let reference = prepared.run_str(&doc).unwrap();
        for at in 0..=doc.len() {
            let id = rt.open(&prepared, StringSink::new());
            rt.feed(id, &doc.as_bytes()[..at]);
            let from = rt.shard_of(id);
            rt.migrate(id, 1 - from);
            assert_eq!(rt.shard_of(id), 1 - from, "{} at {at}", q.name);
            rt.feed(id, &doc.as_bytes()[at..]);
            rt.finish(id);
            loop {
                match rt.wait_event().expect("runtime alive") {
                    RuntimeEvent::Migrated { id: got, shard } => {
                        assert_eq!(got, id);
                        assert_eq!(shard, 1 - from, "{} at {at}", q.name);
                    }
                    RuntimeEvent::Finished { id: got, result, sink } => {
                        assert_eq!(got, id);
                        let stats = result.unwrap_or_else(|e| panic!("{} at {at}: {e}", q.name));
                        assert_eq!(stats, reference.stats, "{} at {at}", q.name);
                        assert_eq!(
                            sink.expect("sink returns").as_str(),
                            reference.output,
                            "{} migrated at {at} must match the unmigrated run",
                            q.name
                        );
                        break;
                    }
                    _ => panic!("unexpected event for {} at {at}", q.name),
                }
            }
        }
    }
    assert_eq!(rt.live_sessions(), 0);
}

#[test]
fn snapshot_rejects_the_wrong_plan() {
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    let q = engine.prepare(Q3).unwrap();
    let other =
        engine.prepare("<prices>{ for $b in $ROOT/bib/book return {$b/price} }</prices>").unwrap();
    let mut s = q.session_string();
    s.feed(&STRONG_DOC.as_bytes()[..25]).unwrap();
    let snap = s.snapshot().unwrap();
    let err = other.restore_session(StringSink::new(), &snap).err().expect("plan mismatch fails");
    assert!(
        matches!(err, FluxError::Snapshot(flux::state::StateError::PlanMismatch { .. })),
        "{err}"
    );
    // The *same* query prepared again restores fine: identity is
    // structural, not pointer-based.
    let again = engine.prepare(Q3).unwrap();
    again.restore_session(StringSink::new(), &snap).unwrap();
}

#[test]
fn corrupt_and_truncated_snapshots_error_cleanly() {
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    let q = engine.prepare(Q3).unwrap();
    let mut s = q.session_string();
    s.feed(&STRONG_DOC.as_bytes()[..40]).unwrap();
    let snap = s.snapshot().unwrap();

    // Every truncation errors; none panics or loops.
    for cut in 0..snap.len() {
        assert!(
            q.restore_session(StringSink::new(), &snap[..cut]).is_err(),
            "truncation to {cut} bytes must fail"
        );
    }
    // Bad magic.
    let mut bad = snap.clone();
    bad[0] ^= 0xff;
    let err = q.restore_session(StringSink::new(), &bad).err().expect("bad magic fails");
    assert!(matches!(err, FluxError::Snapshot(flux::state::StateError::BadMagic)), "{err}");
    // Future version byte.
    let mut future = snap.clone();
    future[4] = 99;
    let err = q.restore_session(StringSink::new(), &future).err().expect("future version fails");
    assert!(
        matches!(err, FluxError::Snapshot(flux::state::StateError::UnsupportedVersion(99))),
        "{err}"
    );
}

#[test]
fn failed_sessions_refuse_to_snapshot() {
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    let q = engine.prepare(Q3).unwrap();
    let mut s = q.session_string();
    s.feed(b"<bib><zzz>").unwrap();
    assert!(s.is_aborted());
    assert!(matches!(s.snapshot(), Err(FluxError::Snapshot(_))));
}

#[test]
fn single_and_shared_kinds_do_not_cross_restore() {
    let engine = Engine::builder().dtd_str(STRONG_DTD).build().unwrap();
    let q = engine.prepare(Q3).unwrap();
    let mut reg = QueryRegistry::new();
    reg.register("q3", q.clone());
    let set = SubscriptionSet::compile(&reg).unwrap();

    let mut single = q.session_string();
    single.feed(&STRONG_DOC.as_bytes()[..10]).unwrap();
    let single_snap = single.snapshot().unwrap();
    assert_eq!(flux::state::snapshot_kind(&single_snap).unwrap(), flux::state::KIND_SESSION);
    assert!(set.restore_session(vec![Some(StringSink::new())], &single_snap).is_err());

    let mut shared = set.session_strings();
    shared.feed(&STRONG_DOC.as_bytes()[..10]).unwrap();
    let shared_snap = shared.snapshot().unwrap();
    assert_eq!(flux::state::snapshot_kind(&shared_snap).unwrap(), flux::state::KIND_SHARED);
    assert!(q.restore_session(StringSink::new(), &shared_snap).is_err());
}

#[test]
fn detached_subscribers_survive_the_round_trip() {
    const DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title,author)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
    const DOC: &str = "<bib><book><title>T1</title><author>A1</author></book>\
        <book><title>T2</title><author>A2</author></book></bib>";
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let mut reg = QueryRegistry::new();
    let q = engine.prepare("<t>{ for $b in $ROOT/bib/book return {$b/title} }</t>").unwrap();
    reg.register("a", q.clone());
    reg.register("b", q);
    let set = SubscriptionSet::compile(&reg).unwrap();

    let mut s = set.session_strings();
    s.feed(&DOC.as_bytes()[..30]).unwrap();
    s.abort_sub(0).expect("abort hands the sink back");
    let snap = s.snapshot().unwrap();

    // The detached slot takes no sink; the live one must get one.
    let mut resumed = set.restore_session(vec![None, Some(StringSink::new())], &snap).unwrap();
    resumed.feed(&DOC.as_bytes()[30..]).unwrap();
    let outs = resumed.finish_parts();
    assert!(matches!(outs[0], (Err(FluxError::SessionAborted), None)));
    assert!(outs[1].0.is_ok());

    // A live subscriber restored without a sink is refused.
    assert!(set.restore_session::<StringSink>(vec![None, None], &snap).is_err());
}
