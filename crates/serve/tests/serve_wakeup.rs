//! The wake-driven server loop: results leave when they are ready, nothing
//! is ever lost to a missed wake-up, and an idle server does not run.
//!
//! The loop blocks in its poller with no timeout, so every hand-off here is
//! carried by an explicit wake-up — a socket turning ready, or a runtime
//! worker firing the server's notifier. A lost one is a hang, not a delay:
//! every blocking read in this file runs under a generous timeout (and
//! every shutdown under a watchdog) so it shows up as a failure instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flux::prelude::*;
use flux_serve::{Client, ScanPoller, Server, ServerConfig, ServerMsg};
use flux_xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};

/// Far beyond any scheduling hiccup; a wake-up that takes this long is lost.
const LOST: Duration = Duration::from_secs(60);

const DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title,author)>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

fn books_query() -> PreparedQuery {
    Engine::builder().dtd_str(DTD).build().unwrap().prepare(QUERY).unwrap()
}

fn registry() -> QueryRegistry {
    let mut registry = QueryRegistry::new();
    registry.register("books", books_query());
    registry
}

fn book(i: usize) -> String {
    format!("<book><title>t{i}</title><author>a{i}</author></book>")
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let client = Client::connect(addr).unwrap();
    client.stream().set_read_timeout(Some(LOST)).unwrap();
    client
}

/// Run `f` on its own thread and wait for it under the [`LOST`] watchdog.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx.recv_timeout(LOST).unwrap_or_else(|_| panic!("{what} hung"));
    t.join().unwrap();
    out
}

/// One document of `books` books, one book per `CHUNK`, the next chunk sent
/// only once the previous book's result has arrived — so every result has
/// to cross a *quiet* socket, carried by the worker's idle flush alone.
/// Returns the number of chunk round trips made.
fn round_trips(client: &mut Client, reference_query: &PreparedQuery, books: usize) -> usize {
    let chunks: Vec<String> =
        (0..books).map(|i| if i == 0 { format!("<bib>{}", book(0)) } else { book(i) }).collect();
    let doc = chunks.concat() + "</bib>";
    let reference = reference_query.run_str(&doc).unwrap().output;
    // Where each book's result ends in the output: what must have arrived
    // before the next chunk goes out.
    let ends: Vec<usize> =
        reference.match_indices("</result>").map(|(at, m)| at + m.len()).collect();
    assert_eq!(ends.len(), books);

    client.open("books").unwrap();
    let mut output = Vec::new();
    for (chunk, &end) in chunks.iter().zip(&ends) {
        client.chunk(chunk.as_bytes()).unwrap();
        while output.len() < end {
            match client.next_msg().expect("a result is due: lost wake-up?") {
                ServerMsg::Result(bytes) => output.extend_from_slice(&bytes),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    client.chunk(b"</bib>").unwrap();
    client.finish().unwrap();
    let rest = client.collect().expect("DONE is due: lost wake-up?");
    assert!(rest.done.is_some(), "{rest:?}");
    output.extend_from_slice(&rest.output);
    assert_eq!(String::from_utf8(output).unwrap(), reference);
    books
}

#[test]
fn results_leave_on_a_quiet_socket() {
    let server = Server::spawn("127.0.0.1:0", registry(), ServerConfig::default()).unwrap();
    let mut client = connect(server.addr());

    // One chunk that determines output, then silence: nothing else will
    // ever make the socket readable, yet the result must arrive.
    client.open("books").unwrap();
    client.chunk(format!("<bib>{}", book(0)).as_bytes()).unwrap();
    match client.next_msg().unwrap() {
        ServerMsg::Result(bytes) => {
            let text = String::from_utf8(bytes).unwrap();
            assert!(text.contains("<title>t0</title>"), "{text}");
        }
        other => panic!("expected the first book's result, got {other:?}"),
    }

    // Likewise the completion: FINISH is the last thing the client says.
    client.chunk(b"</bib>").unwrap();
    client.finish().unwrap();
    let rest = client.collect().unwrap();
    assert!(rest.done.is_some(), "{rest:?}");
    assert!(rest.output.ends_with(b"</results>"), "{rest:?}");
    within_deadline("shutdown", move || server.shutdown()).unwrap();
}

#[test]
fn twenty_thousand_quiet_round_trips_lose_no_wakeup() {
    let server = Server::spawn("127.0.0.1:0", registry(), ServerConfig::default()).unwrap();
    let mut client = connect(server.addr());
    let q = books_query();
    let mut trips = 0;
    // 200 runs of 100 books: the idle-flush path 20 000 times, the
    // completion-event path 200 times, all on one connection.
    while trips < 20_000 {
        trips += round_trips(&mut client, &q, 100);
    }
    within_deadline("shutdown", move || server.shutdown()).unwrap();
}

#[test]
fn concurrent_connections_lose_no_wakeup() {
    // Four connections over two workers: notifications from different
    // threads coalesce into shared wake-ups, and each must still cover
    // every producer that found the notifier unarmed.
    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry(), cfg).unwrap();
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let q = books_query();
                let mut trips = 0;
                while trips < 5_000 {
                    trips += round_trips(&mut client, &q, 50);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    within_deadline("shutdown", move || server.shutdown()).unwrap();
}

#[test]
fn an_idle_server_does_not_wake() {
    let metrics = MetricsRegistry::new();
    let cfg = ServerConfig { metrics: Some(metrics.clone()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry(), cfg).unwrap();
    // Read the registry handle directly: a STATS frame would itself wake
    // the loop.
    let wakeups = || {
        let snap = metrics.snapshot();
        ["socket", "runtime"].map(|cause| {
            snap.counter(&format!("flux_serve_loop_wakeups_total{{cause=\"{cause}\"}}"))
        })
    };

    // A connection that has done work and then gone quiet stays connected
    // throughout: idle means no traffic, not no clients.
    let mut client = connect(server.addr());
    round_trips(&mut client, &books_query(), 10);
    let [by_socket, by_runtime] = wakeups();
    assert!(by_socket > 0 && by_runtime > 0, "the run woke the loop both ways");

    // Let the run's last notification land, then watch 100 ms of nothing.
    let mut before = wakeups();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = wakeups();
        if now == before {
            break;
        }
        before = now;
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(wakeups(), before, "an idle server's loop must not run");

    // Still fully alive afterwards.
    round_trips(&mut client, &books_query(), 1);
    within_deadline("shutdown", move || server.shutdown()).unwrap();
}

#[test]
fn shutdown_and_drop_reach_an_idle_server() {
    // No connection at all: nothing but the handle's wake-up can end the
    // loop's wait.
    let server = Server::spawn("127.0.0.1:0", registry(), ServerConfig::default()).unwrap();
    within_deadline("shutdown with no connection", move || server.shutdown()).unwrap();

    // One accepted, quiet connection.
    let server = Server::spawn("127.0.0.1:0", registry(), ServerConfig::default()).unwrap();
    let mut client = connect(server.addr());
    assert_eq!(client.scrape().unwrap(), "", "the server has accepted and answered");
    within_deadline("shutdown with a quiet connection", move || server.shutdown()).unwrap();
    assert!(client.next_msg().is_err(), "the connection died with the server");

    // Dropping the handle is the same request.
    let server = Server::spawn("127.0.0.1:0", registry(), ServerConfig::default()).unwrap();
    let _quiet = connect(server.addr());
    within_deadline("drop", move || drop(server));
}

#[test]
fn a_paper_query_is_byte_identical_through_the_scan_poller() {
    // The portable backend has no readiness source, only its scan interval
    // and its waker: the same loop must work over it unchanged.
    let (doc, _) = generate_string(&XmarkConfig::new(64 << 10));
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let q20 = PAPER_QUERIES.iter().find(|q| q.name == "Q20").expect("Q20 is a paper query");
    let prepared = engine.prepare(q20.source).unwrap();
    let reference = prepared.run_str(&doc).unwrap();
    let mut registry = QueryRegistry::new();
    registry.register("Q20", prepared);

    let mut server = Server::bind_with_poller(
        "127.0.0.1:0",
        registry,
        ServerConfig::default(),
        Box::new(ScanPoller::new()),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let waker = server.waker();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let serving = std::thread::spawn(move || server.run_until(|| stop_flag.load(Ordering::SeqCst)));

    let mut client = connect(addr);
    for chunk_size in [257, 8 << 10] {
        let outcome = client.run_document("Q20", doc.as_bytes(), chunk_size).unwrap();
        assert_eq!(outcome.error, None);
        assert_eq!(String::from_utf8(outcome.output).unwrap(), reference.output);
        let (events, output_bytes) = outcome.done.expect("finished");
        assert_eq!((events, output_bytes), (reference.stats.events, reference.stats.output_bytes));
    }

    // `run_until`'s contract: flip the condition, then wake the loop.
    stop.store(true, Ordering::SeqCst);
    waker.wake();
    within_deadline("run_until", move || serving.join().unwrap()).unwrap();
}
