//! Per-subscriber isolation inside a plan class.
//!
//! Subscribers with an identical plan share one pump (see
//! `flux_engine::fanout`), but not their fate: a member whose *sink* fails
//! is failed alone, with the error its independent run reports, and a
//! member aborted mid-stream leaves alone. The class's pump — and the one
//! budget charge it holds for all its members — goes when its last member
//! goes, and not before; the shared parse and the other classes never
//! notice.

use std::io;

use flux::prelude::*;

/// The weak schema forces author buffering until each book closes, so the
/// class under test holds budget charges mid-book.
const WEAK_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const Q3: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";
const TITLES: &str = "<titles>{ for $b in $ROOT/bib/book return {$b/title} }</titles>";

fn doc(books: usize) -> String {
    let mut s = String::from("<bib>");
    for i in 0..books {
        s.push_str(&format!(
            "<book><author>A{i} &amp; co</author><title>T{i}</title><author>B{i}</author></book>"
        ));
    }
    s.push_str("</bib>");
    s
}

/// Accepts `left` bytes, then refuses every write.
struct FailAfter {
    left: usize,
    got: Vec<u8>,
}

impl FailAfter {
    fn new(left: usize) -> FailAfter {
        FailAfter { left, got: Vec::new() }
    }
}

impl Sink for FailAfter {
    fn write_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > self.left {
            self.left = 0;
            return Err(io::Error::other("subscriber's disk is full"));
        }
        self.left -= bytes.len();
        self.got.extend_from_slice(bytes);
        Ok(())
    }

    fn flush_sink(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Fixture {
    q3: PreparedQuery,
    titles: PreparedQuery,
    /// `q3` three times (one class of three) with `titles` in between.
    set: SubscriptionSet,
    doc: String,
}

const CLASS: [usize; 3] = [0, 2, 3];
const OTHER: usize = 1;

fn fixture() -> Fixture {
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    let q3 = engine.prepare(Q3).unwrap();
    let titles = engine.prepare(TITLES).unwrap();
    let mut reg = QueryRegistry::new();
    reg.register("q3", q3.clone());
    reg.register("titles", titles.clone());
    let set = SubscriptionSet::compile_subset(&reg, &["q3", "titles", "q3", "q3"]).unwrap();
    assert_eq!(set.plan().classes(), [vec![0, 2, 3], vec![1]]);
    Fixture { q3, titles, set, doc: doc(40) }
}

impl Fixture {
    fn string_session(&self, ctrl: &AdmissionController) -> SharedSession<StringSink> {
        let sinks = (0..self.set.len()).map(|_| StringSink::new()).collect();
        self.set.session_with_budget(sinks, ctrl.hook())
    }

    fn reference(&self, sub: usize) -> RunOutcome {
        if sub == OTHER { &self.titles } else { &self.q3 }.run_str(&self.doc).unwrap()
    }
}

#[test]
fn a_failing_sink_fails_its_member_alone() {
    let fx = fixture();
    let limit = fx.reference(0).output.len() / 3;

    // What the independent run reports for the same sink.
    let mut solo = fx.q3.session(FailAfter::new(limit));
    let _ = fx.doc.as_bytes().chunks(61).try_for_each(|chunk| solo.feed(chunk));
    let solo = solo.finish_parts().0.expect_err("the sink fails the independent run").to_string();
    assert!(solo.contains("disk is full"), "{solo}");

    let sinks = (0..fx.set.len())
        .map(|i| FailAfter::new(if i == CLASS[1] { limit } else { usize::MAX }))
        .collect();
    let mut s = fx.set.session(sinks);
    let mut failed_at = None;
    for (n, chunk) in fx.doc.as_bytes().chunks(61).enumerate() {
        s.feed(chunk).unwrap();
        if failed_at.is_none() && s.sub_failed(CLASS[1]) {
            failed_at = Some(n);
            assert_eq!(s.live_subscribers(), 3, "the class streams on for its other members");
        }
    }
    assert!(failed_at.is_some_and(|n| n > 0), "the member fails mid-stream: {failed_at:?}");
    assert!(!s.is_aborted());

    for (i, (res, sink)) in s.finish_parts().into_iter().enumerate() {
        let sink = sink.expect("sinks come back on success and on failure");
        if i == CLASS[1] {
            assert_eq!(res.expect_err("its own sink failed").to_string(), solo);
            let reference = fx.reference(i).output;
            assert!(reference.as_bytes().starts_with(&sink.got), "a prefix of its output");
            assert!(sink.got.len() <= limit);
        } else {
            let reference = fx.reference(i);
            assert_eq!(String::from_utf8(sink.got).unwrap(), reference.output, "sub {i}");
            assert_eq!(res.unwrap(), reference.stats, "sub {i}");
        }
    }
}

#[test]
fn a_class_whose_every_sink_failed_is_dropped_with_its_charge() {
    let fx = fixture();
    let ctrl = AdmissionController::new(1 << 20);
    let limit = fx.reference(0).output.len() / 3;
    let sinks = (0..fx.set.len())
        .map(|i| FailAfter::new(if i == OTHER { usize::MAX } else { limit + i }))
        .collect();
    let mut s = fx.set.session_with_budget(sinks, ctrl.hook());
    // Stop inside a book, where a live Q3 pump holds the first author.
    let cut = fx.doc.rfind("<title>").unwrap();
    for chunk in fx.doc.as_bytes()[..cut].chunks(61) {
        s.feed(chunk).unwrap();
    }
    assert!(CLASS.iter().all(|&i| s.sub_failed(i)));
    assert_eq!(s.live_subscribers(), 1);
    assert_eq!(ctrl.used(), 0, "the class's pump went with its last live member");
    assert_eq!(s.budget_charged(), 0);

    s.feed(&fx.doc.as_bytes()[cut..]).unwrap();
    let parts = s.finish_parts();
    for &i in &CLASS {
        assert!(parts[i].0.as_ref().is_err_and(|e| e.to_string().contains("disk is full")));
        assert!(parts[i].1.is_some());
    }
    let reference = fx.reference(OTHER);
    assert_eq!(parts[OTHER].0.as_ref().unwrap(), &reference.stats);
    assert_eq!(parts[OTHER].1.as_ref().unwrap().got, reference.output.as_bytes());
    assert_eq!(ctrl.used(), 0);
}

#[test]
fn aborting_any_member_leaves_its_class_mates_alone() {
    let fx = fixture();
    // Abort inside a book: the class holds a charge at that moment.
    let cut = fx.doc[..fx.doc.len() / 2].rfind("<title>").unwrap();
    for victim in CLASS {
        let ctrl = AdmissionController::new(1 << 20);
        let mut s = fx.string_session(&ctrl);
        for chunk in fx.doc.as_bytes()[..cut].chunks(97) {
            s.feed(chunk).unwrap();
        }
        let held = ctrl.used();
        assert!(held > 0, "mid-book, the class holds the first author");

        // The sink comes back with everything an independent session has
        // written at this point — nothing is left behind in the class's
        // output stage.
        let sink = s.abort_sub(victim).expect("first abort yields the sink");
        let mut solo = fx.q3.session_string();
        solo.feed(&fx.doc.as_bytes()[..cut]).unwrap();
        let solo = solo.finish_parts().1.expect("a truncated run hands its sink back");
        assert_eq!(sink.as_str(), solo.as_str());
        assert!(!sink.as_str().is_empty(), "earlier books already streamed to it");
        assert!(s.abort_sub(victim).is_none(), "second abort is a no-op");
        assert_eq!(ctrl.used(), held, "two members still need the class's buffers");
        assert_eq!(s.live_subscribers(), 3);

        for chunk in fx.doc.as_bytes()[cut..].chunks(97) {
            s.feed(chunk).unwrap();
        }
        for (i, (res, sink)) in s.finish_parts().into_iter().enumerate() {
            if i == victim {
                assert!(matches!(res, Err(FluxError::SessionAborted)));
                assert!(sink.is_none());
                continue;
            }
            let reference = fx.reference(i);
            assert_eq!(sink.unwrap().as_str(), reference.output, "sub {i}, victim {victim}");
            assert_eq!(res.unwrap(), reference.stats, "sub {i}, victim {victim}");
        }
        assert_eq!(ctrl.used(), 0);
    }
}

#[test]
fn aborting_every_member_drops_the_class_and_the_parse_goes_on() {
    let fx = fixture();
    let ctrl = AdmissionController::new(1 << 20);
    let mut s = fx.string_session(&ctrl);
    let cut = fx.doc[..fx.doc.len() / 2].rfind("<title>").unwrap();
    s.feed(&fx.doc.as_bytes()[..cut]).unwrap();
    let held = ctrl.used();
    assert!(held > 0);

    // Last, first, middle: whichever goes last takes the charge with it.
    for (left, victim) in [(2, CLASS[2]), (1, CLASS[0])] {
        s.abort_sub(victim).unwrap();
        assert_eq!(ctrl.used(), held, "{left} member(s) left: nothing released");
    }
    s.abort_sub(CLASS[1]).unwrap();
    assert_eq!(ctrl.used(), 0, "the class's charge returns with its last member");
    assert_eq!(s.live_subscribers(), 1);

    // Every member of every class aborted: the ledger is at zero and the
    // session still accepts (and parses) the rest of the document.
    let mut all_gone = fx.string_session(&ctrl);
    all_gone.feed(&fx.doc.as_bytes()[..cut]).unwrap();
    for i in 0..fx.set.len() {
        all_gone.abort_sub(i).unwrap();
    }
    assert_eq!(ctrl.used(), 0);
    all_gone.feed(&fx.doc.as_bytes()[cut..]).unwrap();
    assert!(all_gone.finish_parts().iter().all(|(r, s)| r.is_err() && s.is_none()));

    s.feed(&fx.doc.as_bytes()[cut..]).unwrap();
    let parts = s.finish_parts();
    let reference = fx.reference(OTHER);
    assert_eq!(parts[OTHER].1.as_ref().unwrap().as_str(), reference.output);
    assert_eq!(parts[OTHER].0.as_ref().unwrap(), &reference.stats);
    assert_eq!(ctrl.used(), 0);
}
