//! Loopback integration: the wire protocol, the connection state machine,
//! admission-control stalls, and budget hygiene — all over real TCP.
//!
//! The acceptance bar: results over the network are byte-identical to
//! in-process `CompiledQuery` runs for every query in the paper's suite,
//! whatever the chunking, including under admission-control stalls; and a
//! dropped connection aborts its session with *full* budget release
//! (witnessed by an independent counting hook returning to zero).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flux::prelude::*;
use flux_serve::{Client, ErrorCode, FrameKind, Server, ServerConfig, ServerMsg, StallReason};
use flux_xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};

/// The weak schema forces author buffering until each book closes — the
/// workload that parks bytes in the shared budget at will.
const WEAK_DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

fn hold_prefix(payload: usize) -> String {
    format!("<bib><book><author>{}</author>", "x".repeat(payload))
}

const SUFFIX: &str = "<title>t</title></book></bib>";

fn weak_registry() -> (QueryRegistry, PreparedQuery) {
    let engine = Engine::builder().dtd_str(WEAK_DTD).build().unwrap();
    let q = engine.prepare(QUERY).unwrap();
    let mut registry = QueryRegistry::new();
    registry.register("weak", q.clone());
    (registry, q)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn concurrent_clients_with_tiny_chunks_match_one_shot_for_every_query() {
    // Every query of the paper's suite over the same XMark document, many
    // concurrent connections, chunk sizes from pathological to sane — all
    // byte-identical to the in-process run.
    let (doc, _) = generate_string(&XmarkConfig::new(24 << 10));
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let mut registry = QueryRegistry::new();
    let mut references = Vec::new();
    for q in PAPER_QUERIES {
        let prepared = engine.prepare(q.source).unwrap();
        let reference = prepared.run_str(&doc).unwrap();
        registry.register(q.name, prepared);
        references.push((q.name, reference));
    }

    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();
    let addr = server.addr();
    let doc = Arc::new(doc);
    let references = Arc::new(references);

    let mut handles = Vec::new();
    for qi in 0..references.len() {
        for chunk_size in [3usize, 17, 257, 4096] {
            let doc = Arc::clone(&doc);
            let references = Arc::clone(&references);
            handles.push(std::thread::spawn(move || {
                let (name, reference) = &references[qi];
                let mut client = Client::connect(addr).expect("connect");
                let outcome = client.run_document(name, doc.as_bytes(), chunk_size).expect("run");
                assert_eq!(outcome.error, None, "{name}/{chunk_size}");
                assert_eq!(
                    String::from_utf8(outcome.output).unwrap(),
                    reference.output,
                    "{name} chunked at {chunk_size} must match the one-shot run"
                );
                let (events, output_bytes) = outcome.done.expect("finished");
                assert_eq!(events, reference.stats.events, "{name}/{chunk_size}");
                assert_eq!(output_bytes, reference.stats.output_bytes, "{name}/{chunk_size}");
                // The DONE frame carries the scanner telemetry: the
                // server-side kernel label plus non-trivial byte counters.
                let scan = outcome.scan.expect("scanner telemetry in DONE");
                assert_eq!(scan.backend, flux::xml::Scanner::detect().backend());
                assert!(scan.fast_path_bytes + scan.general_path_bytes > 0, "{name}/{chunk_size}");
                // …and the delivery-tape telemetry: under tape delivery
                // every event travels a batch; under FLUX_FORCE_PULL the
                // counters are present but zero.
                let tape = outcome.tape.expect("tape telemetry in DONE");
                if std::env::var_os("FLUX_FORCE_PULL").is_none_or(|v| v.is_empty()) {
                    assert!(tape.batches > 0, "{name}/{chunk_size}");
                    assert_eq!(tape.events, events, "{name}/{chunk_size}");
                } else {
                    assert_eq!((tape.batches, tape.events), (0, 0), "{name}/{chunk_size}");
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown().unwrap();
}

#[test]
fn admission_stalls_surface_on_the_wire_and_preserve_results() {
    // Deterministic stall choreography: two connections park enough bytes
    // to close the admission gate, a third *must* receive STALLED, and
    // once the first completes it must receive RESUMED — with all three
    // results byte-identical to the in-process run.
    let (registry, q) = weak_registry();
    let reference = q.run_str(&(hold_prefix(1000) + SUFFIX)).unwrap();
    let ctrl = AdmissionController::with_reserve(3000, 1200);
    let cfg = ServerConfig { shards: 1, budget: Some(ctrl.hook()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();
    let addr = server.addr();

    let prefix = hold_prefix(1000);
    let mut a = Client::connect(addr).unwrap();
    a.open("weak").unwrap();
    a.chunk(prefix.as_bytes()).unwrap();
    wait_until("A's buffers to charge the pool", || ctrl.used() >= 1000);

    let mut b = Client::connect(addr).unwrap();
    b.open("weak").unwrap();
    b.chunk(prefix.as_bytes()).unwrap();
    wait_until("the pool to go tight", || ctrl.is_tight());

    // C holds nothing: its first chunk stalls, and the client sees it.
    let mut c = Client::connect(addr).unwrap();
    c.open("weak").unwrap();
    c.chunk(prefix.as_bytes()).unwrap();
    assert_eq!(
        c.next_msg().unwrap(),
        ServerMsg::Stalled { reason: StallReason::Budget },
        "C must stall on the tight pool, blaming the budget"
    );

    // A completes: its release re-opens the gate, C resumes on the edge.
    a.chunk(SUFFIX.as_bytes()).unwrap();
    a.finish().unwrap();
    let out_a = a.collect().unwrap();
    assert_eq!(String::from_utf8(out_a.output).unwrap(), reference.output);
    // RESUMED must arrive — but the resumed run's first RESULT bytes may
    // legitimately beat it onto the wire (output is produced on the worker
    // before the resume notification crosses the event channel).
    let mut early_results = Vec::new();
    loop {
        match c.next_msg().unwrap() {
            ServerMsg::Resumed => break,
            ServerMsg::Result(bytes) => early_results.extend_from_slice(&bytes),
            other => panic!("expected RESUMED after A's release, got {other:?}"),
        }
    }

    c.chunk(SUFFIX.as_bytes()).unwrap();
    c.finish().unwrap();
    let out_c = c.collect().unwrap();
    let full_c = [early_results, out_c.output].concat();
    assert_eq!(String::from_utf8(full_c).unwrap(), reference.output);

    b.chunk(SUFFIX.as_bytes()).unwrap();
    b.finish().unwrap();
    let out_b = b.collect().unwrap();
    assert_eq!(String::from_utf8(out_b.output).unwrap(), reference.output);

    wait_until("all budget to release", || ctrl.used() == 0);
    assert!(ctrl.peak_used() <= ctrl.budget());
    server.shutdown().unwrap();
}

#[test]
fn malformed_and_oversized_frames_get_structured_errors_and_close() {
    let (registry, _) = weak_registry();
    let cfg = ServerConfig { max_frame_payload: 1 << 10, ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();
    let addr = server.addr();

    // Unknown kind byte: structured protocol error, then EOF.
    let mut bad = Client::connect(addr).unwrap();
    bad.send_raw(&[0x7f, 0, 0, 0, 0]).unwrap();
    match bad.next_msg().unwrap() {
        ServerMsg::Error { code, message } => {
            assert_eq!(code, Some(ErrorCode::Protocol));
            assert!(message.contains("0x7f"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let eof = bad.next_msg();
    assert!(eof.is_err(), "connection must close after a protocol error: {eof:?}");

    // Oversized declared length: refused from the header alone (no payload
    // follows), mid-run — and the half-run session is torn down with it.
    let mut big = Client::connect(addr).unwrap();
    big.open("weak").unwrap();
    big.chunk(b"<bib><book>").unwrap();
    big.send_raw(&flux_serve::client::header(FrameKind::Chunk, 1 << 20)).unwrap();
    // The accepted chunk already determined some output, and results leave
    // when they are ready: a RESULT may overtake the refusal.
    let mut refusal = big.next_msg().unwrap();
    while matches!(refusal, ServerMsg::Result(_)) {
        refusal = big.next_msg().unwrap();
    }
    match refusal {
        ServerMsg::Error { code, message } => {
            assert_eq!(code, Some(ErrorCode::Protocol));
            assert!(message.contains("1048576"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(big.next_msg().is_err(), "connection must close after an oversized frame");

    // State violation: CHUNK before OPEN.
    let mut early = Client::connect(addr).unwrap();
    early.chunk(b"<bib>").unwrap();
    match early.next_msg().unwrap() {
        ServerMsg::Error { code, .. } => assert_eq!(code, Some(ErrorCode::State)),
        other => panic!("expected a state error, got {other:?}"),
    }
    assert!(early.next_msg().is_err(), "connection must close after a state error");

    // Unknown query id: structured error, but the connection survives and
    // a valid OPEN still works.
    let mut retry = Client::connect(addr).unwrap();
    retry.open("nope").unwrap();
    match retry.next_msg().unwrap() {
        ServerMsg::Error { code, message } => {
            assert_eq!(code, Some(ErrorCode::UnknownQuery));
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected an unknown-query error, got {other:?}"),
    }
    let doc = hold_prefix(10) + SUFFIX;
    let outcome = retry.run_document("weak", doc.as_bytes(), 16).unwrap();
    assert!(outcome.done.is_some(), "the connection stays usable: {outcome:?}");

    // The documented recovery also holds for a *pipelining* client: the
    // doomed run's CHUNKs and FINISH were already in flight when the
    // refusal arrived — the server absorbs them, and the same connection
    // serves the corrected run.
    let mut pipelined = Client::connect(addr).unwrap();
    let bad = pipelined.run_document("nope", doc.as_bytes(), 8).unwrap();
    assert!(
        matches!(bad.error, Some((Some(ErrorCode::UnknownQuery), _))),
        "refusal answers the pipelined run: {bad:?}"
    );
    let ok = pipelined.run_document("weak", doc.as_bytes(), 8).unwrap();
    assert!(ok.done.is_some(), "pipelined client recovers on the same connection: {ok:?}");
    server.shutdown().unwrap();
}

#[test]
fn engine_errors_are_structured_and_keep_the_connection_open() {
    let (registry, _) = weak_registry();
    let server = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A schema violation fails the run; the error arrives at FINISH with
    // the engine's own message, and the connection accepts the next OPEN.
    let outcome = client.run_document("weak", b"<bib><zzz/></bib>", 4).unwrap();
    let (code, message) = outcome.error.expect("schema violation surfaces");
    assert_eq!(code, Some(ErrorCode::Engine));
    assert!(message.contains("zzz"), "{message}");

    let doc = hold_prefix(10) + SUFFIX;
    let ok = client.run_document("weak", doc.as_bytes(), 16).unwrap();
    assert!(ok.done.is_some(), "connection survives an engine error: {ok:?}");
    server.shutdown().unwrap();
}

#[test]
fn abort_frame_is_acknowledged_and_releases_the_budget() {
    let (registry, _) = weak_registry();
    let ctrl = AdmissionController::new(1 << 20);
    let cfg = ServerConfig { budget: Some(ctrl.hook()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.open("weak").unwrap();
    client.chunk(hold_prefix(2000).as_bytes()).unwrap();
    wait_until("the session to charge the pool", || ctrl.used() >= 2000);
    client.abort().unwrap();
    let outcome = client.collect().unwrap();
    assert!(outcome.aborted, "{outcome:?}");
    wait_until("the aborted session to release", || ctrl.used() == 0);

    // The connection is immediately reusable.
    let doc = hold_prefix(10) + SUFFIX;
    assert!(client.run_document("weak", doc.as_bytes(), 16).unwrap().done.is_some());
    server.shutdown().unwrap();
}

#[test]
fn multiple_opens_share_one_parse_and_demux_per_subscriber() {
    // Shared fan-out over the wire: several OPENs before the first CHUNK
    // become one shared parse, and every subscriber's tagged result stream
    // is byte-identical to its in-process one-shot run — including a
    // duplicate subscription of the same query.
    let (doc, _) = generate_string(&XmarkConfig::new(24 << 10));
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let mut registry = QueryRegistry::new();
    let mut references = std::collections::HashMap::new();
    for q in PAPER_QUERIES {
        let prepared = engine.prepare(q.source).unwrap();
        references.insert(q.name, prepared.run_str(&doc).unwrap());
        registry.register(q.name, prepared);
    }
    let server = Server::spawn("127.0.0.1:0", registry, ServerConfig::default()).unwrap();

    let ids = ["Q1", "Q13", "Q20", "Q1"];
    for chunk_size in [3usize, 257, 4096] {
        let mut client = Client::connect(server.addr()).unwrap();
        let outs = client.run_document_shared(&ids, doc.as_bytes(), chunk_size).unwrap();
        assert_eq!(outs.len(), ids.len());
        for (id, out) in ids.iter().zip(&outs) {
            let reference = &references[id];
            assert_eq!(out.error, None, "{id}@{chunk_size}");
            assert_eq!(
                String::from_utf8(out.output.clone()).unwrap(),
                reference.output,
                "{id} over the shared parse must match its one-shot run @{chunk_size}"
            );
            let (events, output_bytes) = out.done.expect("finished");
            assert_eq!(events, reference.stats.events, "{id}@{chunk_size}");
            assert_eq!(output_bytes, reference.stats.output_bytes, "{id}@{chunk_size}");
        }
        // The same connection runs a classic single-query request next:
        // the seal picks the untagged path again.
        let single = client.run_document("Q13", doc.as_bytes(), chunk_size).unwrap();
        assert_eq!(
            String::from_utf8(single.output).unwrap(),
            references["Q13"].output,
            "single mode on the same connection @{chunk_size}"
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn shared_abort_acknowledges_every_subscriber_and_releases_the_budget() {
    let (registry, _) = weak_registry();
    let ctrl = AdmissionController::new(1 << 20);
    let cfg = ServerConfig { budget: Some(ctrl.hook()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Three OPENs of one id are one plan class: one pump buffers the held
    // author once, and charges it once.
    client.open_many(&["weak", "weak", "weak"]).unwrap();
    client.chunk(hold_prefix(2000).as_bytes()).unwrap();
    wait_until("the subscribers' class to charge the pool", || ctrl.used() >= 2000);
    assert!(ctrl.used() < 2 * 2000, "three identical subscribers hold one charge");

    client.abort().unwrap();
    let outs = client.collect_shared(3).unwrap();
    for out in &outs {
        assert!(out.aborted, "{outs:?}");
    }
    wait_until("the aborted shared session to release every byte", || ctrl.used() == 0);

    // Aborting a collected-but-never-chunked set acks without a session …
    client.open_many(&["weak", "weak"]).unwrap();
    client.abort().unwrap();
    let outs = client.collect_shared(2).unwrap();
    assert!(outs.iter().all(|o| o.aborted), "{outs:?}");

    // … and the connection stays usable for a fresh shared run.
    let doc = hold_prefix(10) + SUFFIX;
    let outs = client.run_document_shared(&["weak", "weak"], doc.as_bytes(), 16).unwrap();
    assert!(outs.iter().all(|o| o.done.is_some()), "{outs:?}");
    assert_eq!(outs[0].output, outs[1].output);
    server.shutdown().unwrap();
}

#[test]
fn shared_stall_pauses_the_whole_parse_and_resumes_for_all() {
    // Budget stalls in shared mode are stream-level: the connection gets
    // one untagged STALLED/RESUMED pair while another session holds the
    // pool, and both subscribers' results still match the reference.
    let (registry, q) = weak_registry();
    // The shared run's document is small enough that both subscribers fit
    // beside the remaining holder once the gate reopens.
    let shared_prefix = hold_prefix(300);
    let reference = q.run_str(&(shared_prefix.clone() + SUFFIX)).unwrap();
    let ctrl = AdmissionController::with_reserve(3000, 1200);
    let cfg = ServerConfig { shards: 1, budget: Some(ctrl.hook()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();

    let prefix = hold_prefix(1000);
    let mut holder = Client::connect(server.addr()).unwrap();
    holder.open("weak").unwrap();
    holder.chunk(prefix.as_bytes()).unwrap();
    wait_until("the holder to charge the pool", || ctrl.used() >= 1000);
    let mut holder2 = Client::connect(server.addr()).unwrap();
    holder2.open("weak").unwrap();
    holder2.chunk(prefix.as_bytes()).unwrap();
    wait_until("the pool to go tight", || ctrl.is_tight());

    let mut shared = Client::connect(server.addr()).unwrap();
    shared.open_many(&["weak", "weak"]).unwrap();
    shared.chunk(shared_prefix.as_bytes()).unwrap();
    assert_eq!(
        shared.next_msg().unwrap(),
        ServerMsg::Stalled { reason: StallReason::Budget },
        "shared run stalls as a whole, blaming the budget"
    );

    // Free the pool; the shared parse resumes and completes.
    holder.chunk(SUFFIX.as_bytes()).unwrap();
    holder.finish().unwrap();
    assert!(holder.collect().unwrap().done.is_some());
    holder2.chunk(SUFFIX.as_bytes()).unwrap();
    holder2.finish().unwrap();
    assert!(holder2.collect().unwrap().done.is_some());

    shared.chunk(SUFFIX.as_bytes()).unwrap();
    shared.finish().unwrap();
    let outs = shared.collect_shared(2).unwrap();
    for out in &outs {
        assert_eq!(String::from_utf8(out.output.clone()).unwrap(), reference.output);
        assert!(out.resumes >= 1, "the resume reached the client: {out:?}");
        assert_eq!(out.stall_reasons.len(), out.stalls, "one reason per STALLED: {out:?}");
        assert!(
            out.stall_reasons.iter().all(|&r| r == StallReason::Budget),
            "every stall here is a budget stall: {out:?}"
        );
    }
    wait_until("all budget to release", || ctrl.used() == 0);
    server.shutdown().unwrap();
}

/// An independent witness wrapped around the controller: the disconnect
/// test's proof that *everything* charged was released, whatever the
/// controller claims about itself.
struct CountingHook {
    inner: Arc<dyn BudgetHook>,
    used: AtomicUsize,
    grown: AtomicUsize,
}

impl BudgetHook for CountingHook {
    fn try_grow(&self, bytes: usize) -> bool {
        if !self.inner.try_grow(bytes) {
            return false;
        }
        self.used.fetch_add(bytes, Ordering::SeqCst);
        self.grown.fetch_add(bytes, Ordering::SeqCst);
        true
    }
    fn release(&self, bytes: usize) {
        // Count down before returning the bytes to the pool (see the
        // CountingHook in tests/admission.rs): keeps the witness's view
        // from transiently exceeding the pool's under concurrency.
        self.used.fetch_sub(bytes, Ordering::SeqCst);
        self.inner.release(bytes);
    }
    fn should_pause(&self) -> bool {
        self.inner.should_pause()
    }
    fn subscribe_waker(&self, waker: &Arc<BudgetWaker>) {
        self.inner.subscribe_waker(waker);
    }
}

#[test]
fn mid_stream_disconnect_aborts_the_session_and_releases_every_byte() {
    let (registry, _) = weak_registry();
    let ctrl = AdmissionController::new(1 << 20);
    let counting = Arc::new(CountingHook {
        inner: ctrl.hook(),
        used: AtomicUsize::new(0),
        grown: AtomicUsize::new(0),
    });
    let cfg = ServerConfig {
        budget: Some(counting.clone() as Arc<dyn BudgetHook>),
        ..ServerConfig::default()
    };
    let server = Server::spawn("127.0.0.1:0", registry, cfg).unwrap();

    // Three connections park buffers, then vanish mid-stream.
    for _ in 0..3 {
        let mut client = Client::connect(server.addr()).unwrap();
        client.open("weak").unwrap();
        // `grown` is monotonic and sampled before the chunk goes out, so
        // this wait can neither race the charge nor the release of a
        // previously dropped session.
        let before = counting.grown.load(Ordering::SeqCst);
        client.chunk(hold_prefix(2000).as_bytes()).unwrap();
        wait_until("the session to charge the pool", || {
            counting.grown.load(Ordering::SeqCst) >= before + 2000
        });
        drop(client); // TCP close, no ABORT frame
    }
    wait_until("dropped connections to release every charged byte", || {
        counting.used.load(Ordering::SeqCst) == 0
    });
    assert!(
        counting.grown.load(Ordering::SeqCst) >= 6000,
        "the sessions really did charge: {}",
        counting.grown.load(Ordering::SeqCst)
    );
    assert_eq!(ctrl.used(), 0, "controller agrees: aggregate back to zero");
    server.shutdown().unwrap();
}
