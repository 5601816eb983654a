//! Mass-concurrency session multiplexing: many live [`flux::Session`]s on
//! one thread.
//!
//! The sans-IO core makes a session a plain value — no worker thread, no
//! pipe — so concurrency is limited by memory, not OS threads. These tests
//! pin the multiplexing contract:
//!
//! * ≥ 1000 sessions driven to completion concurrently on a single thread
//!   ([`flux::Shard`]), interleaved at arbitrary chunk boundaries, each
//!   byte-identical (output *and* stats) to its one-shot run;
//! * shuffled feed orders across sessions never cross streams;
//! * sessions dropped or aborted mid-stream release their slots cleanly;
//! * the multi-core [`flux::Runtime`] delivers the same per-session results
//!   when the fleet is spread over worker threads.

mod common;

use flux::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DTD: &str = "<!ELEMENT bib (book)*>\
    <!ELEMENT book (title,(author+|editor+),publisher,price)>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
    <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

/// A small per-session document, parameterized so every session has
/// distinct content (catches any cross-session state bleed).
fn doc(i: usize) -> String {
    format!(
        "<bib><book><title>T{i}</title><author>A{i}</author>\
         <publisher>P</publisher><price>{}</price></book>\
         <book><title>U{i}</title><editor>E{i}</editor>\
         <publisher>Q</publisher><price>1</price></book></bib>",
        i % 97
    )
}

#[test]
fn a_thousand_concurrent_sessions_on_one_thread() {
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let q = engine.prepare(QUERY).unwrap();

    const N: usize = 1200;
    let docs: Vec<String> = (0..N).map(doc).collect();
    let references: Vec<RunOutcome> = docs.iter().map(|d| q.run_str(d).unwrap()).collect();

    // All N sessions live at once; feed them in small chunks, round-robin, so
    // every session is mid-parse while every other advances.
    let mut set = Shard::new();
    let ids: Vec<SessionId> = (0..N).map(|_| set.open(&q, StringSink::new())).collect();
    assert_eq!(set.len(), N);

    let chunk = 13usize;
    let longest = docs.iter().map(String::len).max().unwrap();
    let mut off = 0;
    while off < longest {
        for (i, &id) in ids.iter().enumerate() {
            let bytes = docs[i].as_bytes();
            if off < bytes.len() {
                let end = (off + chunk).min(bytes.len());
                let _ = set.feed(id, &bytes[off..end]).unwrap();
            }
        }
        off += chunk;
    }

    for (i, id) in ids.into_iter().enumerate() {
        let fin = set.finish(id).unwrap();
        assert_eq!(fin.sink.as_str(), references[i].output, "session {i}");
        assert_eq!(fin.stats, references[i].stats, "session {i}");
    }
    assert!(set.is_empty());
}

#[test]
fn shuffled_chunk_orders_across_sessions() {
    // Feed steps are drawn in random order across sessions with random
    // chunk sizes: the interleaving schedule must be invisible.
    let engine = Engine::builder().dtd_str(common::TEST_DTD).build().unwrap();
    let q = engine
        .prepare(
            "<out>{ for $s in $ROOT/lib/shelf return \
               { for $b in $s/book return <hit> {$s/label} {$b/title} </hit> } }</out>",
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5E55104);

    const N: usize = 24;
    let docs: Vec<String> =
        (0..N).map(|i| common::random_doc(engine.dtd(), i as u64).to_xml()).collect();
    let references: Vec<RunOutcome> = docs.iter().map(|d| q.run_str(d).unwrap()).collect();

    for _ in 0..6 {
        let mut set = Shard::new();
        let ids: Vec<SessionId> = (0..N).map(|_| set.open(&q, StringSink::new())).collect();
        let mut sent = [0usize; N];
        // Random schedule: pick a session with bytes left, send a random
        // amount (possibly zero).
        let mut remaining: Vec<usize> = (0..N).collect();
        while !remaining.is_empty() {
            let pick = rng.random_range(0..remaining.len());
            let i = remaining[pick];
            let bytes = docs[i].as_bytes();
            let n = rng.random_range(0..=32usize).min(bytes.len() - sent[i]);
            let _ = set.feed(ids[i], &bytes[sent[i]..sent[i] + n]).unwrap();
            sent[i] += n;
            if sent[i] == bytes.len() {
                remaining.swap_remove(pick);
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            let fin = set.finish(id).unwrap();
            assert_eq!(fin.sink.as_str(), references[i].output, "session {i}");
            assert_eq!(fin.stats, references[i].stats, "session {i}");
        }
    }
}

#[test]
fn sessions_drop_and_abort_cleanly_mid_stream() {
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let q = engine.prepare(QUERY).unwrap();

    // Bare sessions: drop at every interesting phase.
    for cut in [0, 3, 12, 25, 40] {
        let d = doc(7);
        let mut s = q.session_string();
        s.feed(&d.as_bytes()[..cut.min(d.len())]).unwrap();
        drop(s); // no thread to join, nothing to hang on
    }

    // Set-managed sessions: abort releases the slot; survivors unaffected.
    let mut set = Shard::new();
    let keep = set.open(&q, StringSink::new());
    let kill = set.open(&q, StringSink::new());
    let d = doc(1);
    let reference = q.run_str(&d).unwrap();
    let _ = set.feed(keep, &d.as_bytes()[..20]).unwrap();
    let _ = set.feed(kill, &d.as_bytes()[..33]).unwrap();
    set.abort(kill);
    assert_eq!(set.len(), 1);
    let _ = set.feed(keep, &d.as_bytes()[20..]).unwrap();
    let fin = set.finish(keep).unwrap();
    assert_eq!(fin.sink.as_str(), reference.output);
    assert_eq!(fin.stats, reference.stats);
}

#[test]
fn runtime_spreads_the_fleet_across_worker_threads() {
    use std::collections::HashMap;
    use std::sync::Arc;

    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let q = engine.prepare(QUERY).unwrap();

    const N: usize = 400;
    let docs: Vec<String> = (0..N).map(doc).collect();
    let references: Vec<RunOutcome> = docs.iter().map(|d| q.run_str(d).unwrap()).collect();

    let mut rt = RuntimeBuilder::new(4).build();
    let ids: Vec<RuntimeId> = (0..N).map(|_| rt.open(&q, StringSink::new())).collect();
    let by_id: HashMap<RuntimeId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    // Feed round-robin in small shared chunks: every session mid-parse
    // while every worker runs.
    let chunk = 16usize;
    let longest = docs.iter().map(String::len).max().unwrap();
    let mut off = 0;
    while off < longest {
        for (i, &id) in ids.iter().enumerate() {
            let bytes = docs[i].as_bytes();
            if off < bytes.len() {
                let end = (off + chunk).min(bytes.len());
                let shared: Arc<[u8]> = bytes[off..end].into();
                rt.feed_shared(id, shared);
            }
        }
        off += chunk;
    }
    for &id in &ids {
        rt.finish(id);
    }
    let mut done = 0usize;
    while done < N {
        match rt.wait_event().expect("workers alive until drained") {
            RuntimeEvent::Finished { id, result, sink } => {
                let i = by_id[&id];
                let stats = result.unwrap();
                assert_eq!(sink.unwrap().as_str(), references[i].output, "session {i}");
                assert_eq!(stats, references[i].stats, "session {i}");
                done += 1;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(rt.live_sessions(), 0);
    assert!(rt.drain().is_empty());
}

#[test]
fn failed_sessions_do_not_poison_their_neighbours() {
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let q = engine.prepare(QUERY).unwrap();
    let d = doc(2);
    let reference = q.run_str(&d).unwrap();

    let mut set = Shard::new();
    let good = set.open(&q, StringSink::new());
    let bad = set.open(&q, StringSink::new());
    let _ = set.feed(good, &d.as_bytes()[..17]).unwrap();
    let _ = set.feed(bad, b"<bib><zzz/>").unwrap(); // schema violation, fails inline
    assert!(set.session(bad).is_aborted());
    let _ = set.feed(good, &d.as_bytes()[17..]).unwrap();
    let (res, sink) = set.finish_parts(bad);
    assert!(res.is_err());
    assert!(sink.is_some());
    let fin = set.finish(good).unwrap();
    assert_eq!(fin.sink.as_str(), reference.output);
}
