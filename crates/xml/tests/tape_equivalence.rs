//! Tape-vs-pull equivalence at the tokenizer layer: the batched event
//! tape is a delivery mechanism, never an observable one.
//!
//! Every test drives the same incremental [`Reader`] twice — once pulling
//! events one at a time through [`Reader::poll_resolved`], once draining
//! [`Reader::fill_tape`] batches — and asserts the materialized event
//! streams are identical: per classification backend the host can run,
//! with the input chunk-split at *every* byte offset, across batch
//! boundaries forced by both the event-count and arena-byte caps, and in
//! the presence of parse errors (the taped prefix must be delivered
//! before the error surfaces, exactly as the pull loop would).

use flux_xml::scan::{Scanner, ScannerChoice};
use flux_xml::{EventTape, OwnedEvent, Polled, Reader, ReaderOptions, TapeFill, XmlError};

/// One forced choice per backend this host can actually run (forcing a
/// kernel the CPU lacks degrades, so dedup on the selected backend).
fn backends() -> Vec<ScannerChoice> {
    let mut out: Vec<(ScannerChoice, flux_xml::Backend)> = Vec::new();
    for choice in [ScannerChoice::ForceSwar, ScannerChoice::ForceSse2, ScannerChoice::ForceAvx2] {
        let b = Scanner::with_choice(choice).backend();
        if out.iter().all(|&(_, seen)| seen != b) {
            out.push((choice, b));
        }
    }
    out.into_iter().map(|(c, _)| c).collect()
}

fn opts(choice: ScannerChoice) -> ReaderOptions {
    ReaderOptions { scanner: choice, ..ReaderOptions::default() }
}

/// Events up to (not including) the first error, pulled one at a time,
/// with the document fed as two chunks split at `split`.
fn pull_split(
    choice: ScannerChoice,
    doc: &[u8],
    split: usize,
) -> (Vec<OwnedEvent>, Option<XmlError>) {
    let chunks = [&doc[..split], &doc[split..]];
    let mut r = Reader::incremental(opts(choice));
    let mut out = Vec::new();
    let mut next = 0usize;
    loop {
        match r.poll_resolved() {
            Ok(Polled::Event(ev)) => out.push(ev.to_event().to_owned()),
            Ok(Polled::NeedMoreData) => {
                if next < chunks.len() {
                    r.feed(chunks[next]);
                    next += 1;
                } else {
                    r.close();
                }
            }
            Ok(Polled::End) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

/// The same stream drained through the event tape. Also returns the
/// number of non-empty batches, so tests can assert a cap really forced
/// multiple fills.
fn tape_split(
    choice: ScannerChoice,
    doc: &[u8],
    split: usize,
) -> (Vec<OwnedEvent>, Option<XmlError>, u64) {
    let chunks = [&doc[..split], &doc[split..]];
    let mut r = Reader::incremental(opts(choice));
    let mut tape = EventTape::new();
    let mut out = Vec::new();
    let mut next = 0usize;
    let mut batches = 0u64;
    loop {
        let fill = r.fill_tape(&mut tape);
        // Drain before inspecting the fill result: events taped ahead of
        // an error are part of the stream, exactly as in the pull loop.
        if !tape.is_empty() {
            batches += 1;
            for i in 0..tape.len() {
                out.push(r.tape_event(&tape, i).to_event().to_owned());
            }
            tape.clear();
        }
        match fill {
            Ok(TapeFill::Full) => {}
            Ok(TapeFill::NeedMoreData) => {
                if next < chunks.len() {
                    r.feed(chunks[next]);
                    next += 1;
                } else {
                    r.close();
                }
            }
            Ok(TapeFill::End) => return (out, None, batches),
            Err(e) => return (out, Some(e), batches),
        }
    }
}

#[track_caller]
fn assert_tape_matches_pull(doc: &str) -> u64 {
    let mut max_batches = 0;
    for choice in backends() {
        for split in 0..=doc.len() {
            let (pull, pull_err) = pull_split(choice, doc.as_bytes(), split);
            let (tape, tape_err, batches) = tape_split(choice, doc.as_bytes(), split);
            assert_eq!(tape, pull, "{choice:?} split {split}: event streams diverge");
            assert_eq!(tape_err, pull_err, "{choice:?} split {split}: errors diverge");
            max_batches = max_batches.max(batches);
        }
    }
    max_batches
}

#[test]
fn tape_matches_pull_at_every_split_on_every_backend() {
    // The scan-equivalence stress document: attributes in both quote
    // kinds, entities, comments with `>`, CDATA, multi-byte text — every
    // construct a split can land inside.
    assert_tape_matches_pull(
        "<r a=\"1&gt;2\" b='&amp;'>pad<!-- x > y --><![CDATA[<&]]>é&lt;<e/>t</r>",
    );
}

#[test]
fn structural_bytes_at_every_simd_alignment_tape_identically() {
    // Slide entity-escaped text across a full 64-byte classification
    // window so tape batch anchoring sees a structural byte at every
    // alignment. Single split (whole doc) keeps this O(64) parses.
    for off in 0..64 {
        let pad = "a".repeat(off);
        let doc = format!("<r>{pad}&lt;&amp;&gt;z<e a=\"{pad}\"/></r>");
        for choice in backends() {
            let (pull, pull_err) = pull_split(choice, doc.as_bytes(), doc.len());
            let (tape, tape_err, _) = tape_split(choice, doc.as_bytes(), doc.len());
            assert_eq!((tape, tape_err), (pull, pull_err), "{choice:?} offset {off}");
        }
    }
}

#[test]
fn event_count_cap_forces_multiple_batches_invisibly() {
    // ~1800 events (> the 1024-event batch cap): the stream must cross a
    // batch seam mid-document and still match the pull run byte for byte.
    let mut doc = String::from("<r>");
    for i in 0..600 {
        doc.push_str(&format!("<e i=\"{i}\">t{i}</e>"));
    }
    doc.push_str("</r>");
    for choice in backends() {
        let (pull, pull_err) = pull_split(choice, doc.as_bytes(), doc.len() / 2);
        let (tape, tape_err, batches) = tape_split(choice, doc.as_bytes(), doc.len() / 2);
        assert_eq!((tape, tape_err), (pull, pull_err), "{choice:?}");
        assert!(batches > 1, "{choice:?}: expected the event cap to split batches ({batches})");
    }
}

#[test]
fn arena_byte_cap_forces_multiple_batches_invisibly() {
    // Few events but entity-heavy kilobyte texts: every text unescapes
    // into the tape arena, overflowing its byte cap long before the event
    // cap. Batches must end early and the stream must not change.
    // ~600 B of *unescaped* arena bytes per element (the arena holds the
    // decoded text, so `&amp;` counts as one byte); 80 elements ≈ 47 KiB,
    // past the 32 KiB cap.
    let chunk = "x&amp;y".repeat(200);
    let mut doc = String::from("<r>");
    for _ in 0..80 {
        doc.push_str(&format!("<e>{chunk}</e>"));
    }
    doc.push_str("</r>");
    for choice in backends() {
        let (pull, pull_err) = pull_split(choice, doc.as_bytes(), doc.len());
        let (tape, tape_err, batches) = tape_split(choice, doc.as_bytes(), doc.len());
        assert_eq!((tape, tape_err), (pull, pull_err), "{choice:?}");
        assert!(batches > 1, "{choice:?}: expected the arena cap to split batches ({batches})");
    }
}

#[test]
fn errors_surface_after_the_taped_prefix_at_every_split() {
    // Malformed documents: the tape must deliver exactly the events the
    // pull loop would have delivered before the error, then the *same*
    // error. Prefix divergence here would make tape-mode session aborts
    // observable.
    for doc in [
        "<r><a>text</a>",      // truncated document
        "<r><a>x</a></s>",     // mismatched end tag
        "<r><e a=>x</e></r>",  // malformed attribute
        "<r>&bogus;</r>",      // unknown entity
        "<r><a>ok</a>tail</r", // truncated end tag
    ] {
        assert_tape_matches_pull(doc);
    }
}

// ---- the in-place feed: a window switch is as invisible as a batch seam ----

/// What a chunked run produced: the events, the first error, and the
/// reader's serialized state after every feed (`None` once it has failed).
#[derive(Debug, PartialEq)]
struct Chunked {
    events: Vec<OwnedEvent>,
    err: Option<XmlError>,
    states: Vec<Vec<u8>>,
}

fn state_of(r: &Reader<flux_xml::FeedSource>) -> Vec<u8> {
    let mut enc = flux_state::Enc::new();
    r.state_save(&mut enc).expect("quiescent between feeds");
    enc.into_bytes()
}

/// The two doors to the same batched parse.
trait Door {
    fn fill(&mut self, tape: &mut EventTape) -> Result<TapeFill, XmlError>;
    fn event<'a>(&'a self, tape: &'a EventTape, i: usize) -> flux_xml::ResolvedEvent<'a>;
}

impl Door for Reader<flux_xml::FeedSource> {
    fn fill(&mut self, tape: &mut EventTape) -> Result<TapeFill, XmlError> {
        self.fill_tape(tape)
    }
    fn event<'a>(&'a self, tape: &'a EventTape, i: usize) -> flux_xml::ResolvedEvent<'a> {
        self.tape_event(tape, i)
    }
}

impl Door for flux_xml::InPlace<'_> {
    fn fill(&mut self, tape: &mut EventTape) -> Result<TapeFill, XmlError> {
        self.fill_tape(tape)
    }
    fn event<'a>(&'a self, tape: &'a EventTape, i: usize) -> flux_xml::ResolvedEvent<'a> {
        self.tape_event(tape, i)
    }
}

/// Fill and drain until the fed bytes are used up.
fn drain(door: &mut impl Door, tape: &mut EventTape, out: &mut Chunked) {
    loop {
        let fill = door.fill(tape);
        for i in 0..tape.len() {
            out.events.push(door.event(tape, i).to_event().to_owned());
        }
        tape.clear();
        match fill {
            Ok(TapeFill::Full) => {}
            Ok(TapeFill::NeedMoreData | TapeFill::End) => return,
            Err(e) => return out.err = Some(e),
        }
    }
}

/// `doc` cut at `cuts`, each chunk fed through the owning door
/// ([`Reader::feed`] + [`Reader::fill_tape`]) or parsed where it lies
/// ([`Reader::feed_in_place`]); a final empty feed runs the closed reader
/// to the end.
fn run_chunked(choice: ScannerChoice, doc: &[u8], cuts: &[usize], in_place: bool) -> Chunked {
    let mut r = Reader::incremental(opts(choice));
    let mut tape = EventTape::new();
    let mut out = Chunked { events: Vec::new(), err: None, states: Vec::new() };
    let bounds: Vec<usize> =
        std::iter::once(0).chain(cuts.iter().copied()).chain([doc.len(), doc.len()]).collect();
    for (k, pair) in bounds.windows(2).enumerate() {
        if k + 2 == bounds.len() {
            r.close();
        }
        let chunk = &doc[pair[0]..pair[1]];
        if in_place {
            drain(&mut r.feed_in_place(chunk), &mut tape, &mut out);
        } else {
            r.feed(chunk);
            drain(&mut r, &mut tape, &mut out);
        }
        if out.err.is_some() {
            break;
        }
        out.states.push(state_of(&r));
    }
    out
}

/// Constructs long enough to straddle two and three chunks and to outgrow
/// the first stitch prefix several times over.
fn straddlers() -> Vec<String> {
    let long = "v".repeat(700);
    vec![
        // A long attribute value, clean and with an entity; one with `>`
        // inside (an error both doors must report at the same offset).
        format!("<r><e a=\"{long}\" b='x'>t</e><f/></r>"),
        format!("<r><e a=\"{long}&amp;{long}\"/>tail</r>"),
        format!("<r><e a=\"{long}>{long}\">t</e></r>"),
        // Comment, CDATA and DOCTYPE bodies containing `>`.
        format!("<r>a<!-- {long} > {long} -->b</r>"),
        format!("<r><![CDATA[{long} ]> <x> {long}]]>z</r>"),
        format!("<!DOCTYPE r [<!ELEMENT r (#PCDATA)> <!-- {long} -->]><r>x</r>"),
        // A text run with no `<` for several chunks: clean, with an entity
        // reference, and with multi-byte characters.
        format!("<r><a>{long}{long}{long}</a><b>x</b></r>"),
        format!("<r><a>{long}&lt;{long}&amp;</a></r>"),
        format!("<r><a>{long}é{long}€{long}</a><é>ü</é></r>"),
        // Many short constructs, so chunks end exactly on `>` too.
        format!("<r>{}</r>", "<e><f>t</f><g/></e>".repeat(40)),
        // Errors past the seam.
        format!("<r><a>{long}</b></r>"),
        format!("<r>{long}&bogus;{long}</r>"),
    ]
}

#[test]
fn in_place_feed_matches_the_owning_door_at_every_two_and_three_chunk_split() {
    for doc in straddlers() {
        let doc = doc.as_bytes();
        for choice in backends() {
            // The unsplit in-place run is the reference for events and error.
            let whole = run_chunked(choice, doc, &[], true);
            assert_eq!(whole, run_chunked(choice, doc, &[], false), "{choice:?} unsplit");
            for at in 0..=doc.len() {
                // One cut, then a second 1 / 70 / 300 bytes later: the
                // construct under the first cut straddles two or three
                // chunks, with a middle chunk shorter and longer than the
                // first stitch prefix.
                for second in [None, Some(1), Some(70), Some(300)] {
                    let cuts: Vec<usize> = std::iter::once(at)
                        .chain(second.map(|d| at + d).filter(|&c| c <= doc.len()))
                        .collect();
                    if second.is_some() && cuts.len() == 1 {
                        continue;
                    }
                    let got = run_chunked(choice, doc, &cuts, true);
                    let own = run_chunked(choice, doc, &cuts, false);
                    assert_eq!(got, own, "{choice:?} cuts {cuts:?}: doors diverge");
                    assert_eq!(got.events, whole.events, "{choice:?} cuts {cuts:?}: events");
                    assert_eq!(got.err, whole.err, "{choice:?} cuts {cuts:?}: error");
                }
            }
        }
    }
}

#[test]
fn a_ten_kilobyte_attribute_crosses_many_small_in_place_feeds() {
    let value = "a>b ".repeat(2560); // 10 KiB, `>` throughout
    let bad = format!("<r><e k=\"{value}\"/></r>");
    let good = format!("<r><e k=\"{}\">t</e></r>", "ab c".repeat(2560));
    for doc in [bad, good] {
        let doc = doc.as_bytes();
        for choice in backends() {
            let whole = run_chunked(choice, doc, &[], true);
            for size in [1usize, 7, 64, 1000, 4096] {
                let cuts: Vec<usize> = (size..doc.len()).step_by(size).collect();
                let got = run_chunked(choice, doc, &cuts, true);
                assert_eq!(got, run_chunked(choice, doc, &cuts, false), "{choice:?} {size}");
                assert_eq!(
                    (&got.events, &got.err),
                    (&whole.events, &whole.err),
                    "{choice:?} {size}"
                );
            }
        }
    }
}
