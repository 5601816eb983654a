//! Observability loopback: the `STATS` wire frame and the admin HTTP
//! listener, both answering with the shared registry's Prometheus text.
//!
//! The acceptance bar: a scrape taken mid-run reports the live pressure
//! gauges (sessions, connections) truthfully, and once every `DONE` frame
//! has been collected the scraped engine counters equal the *sum* of the
//! per-run `RunStats` those frames carried — the registry is the same
//! story the wire tells, aggregated.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use flux::prelude::*;
use flux::MetricsRegistry;
use flux_serve::{Client, Server, ServerConfig};

const DTD: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
    <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
    <result> {$b/title} {$b/author} </result> }</results>";

fn registry() -> QueryRegistry {
    let engine = Engine::builder().dtd_str(DTD).build().unwrap();
    let mut registry = QueryRegistry::new();
    registry.register("books", engine.prepare(QUERY).unwrap());
    registry
}

fn doc(books: usize) -> String {
    let mut d = String::from("<bib>");
    for i in 0..books {
        d.push_str(&format!("<book><title>t{i}</title><author>a{i}</author></book>"));
    }
    d.push_str("</bib>");
    d
}

/// Sum every series of `family` in a rendered exposition (all label sets),
/// skipping `# TYPE` lines and longer names sharing the prefix.
fn family_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn stats_mid_run_gauges_and_final_counters_match_summed_done_stats() {
    let metrics = MetricsRegistry::new();
    let cfg = ServerConfig { shards: 2, metrics: Some(metrics.clone()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry(), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Mid-run: a session is open with the document half-fed. The scrape
    // must see it live — worker gauges publish on the worker's own loop, so
    // poll until the publication lands.
    let body = doc(50);
    let split = body.len() / 2;
    client.open("books").unwrap();
    client.chunk(&body.as_bytes()[..split]).unwrap();
    wait_for("the live-session gauge to reflect the open run", || {
        let text = client.scrape().unwrap();
        family_sum(&text, "flux_runtime_live_sessions") == 1.0
    });
    let text = client.scrape().unwrap();
    assert_eq!(family_sum(&text, "flux_serve_active_connections"), 1.0, "{text}");
    assert!(
        family_sum(&text, "flux_serve_frames_total") >= 2.0,
        "OPEN and CHUNK were counted: {text}"
    );
    assert!(family_sum(&text, "flux_serve_scrapes_total") >= 1.0, "a scrape sees itself: {text}");
    assert_eq!(family_sum(&text, "flux_engine_runs_total"), 0.0, "nothing finished yet: {text}");

    // Finish this run and push two more through; sum what the DONE frames
    // claim.
    client.chunk(&body.as_bytes()[split..]).unwrap();
    client.finish().unwrap();
    let mut done = vec![client.collect().unwrap().done.expect("finished")];
    for books in [1, 17] {
        let out = client.run_document("books", doc(books).as_bytes(), 64).unwrap();
        done.push(out.done.expect("finished"));
    }
    let events: u64 = done.iter().map(|d| d.0).sum();
    let output_bytes: u64 = done.iter().map(|d| d.1).sum();

    // note_run folds a run into the registry *before* its completion event
    // is sent, so a scrape taken after collecting the DONEs must already
    // include every run — strict equality, no polling.
    let text = client.scrape().unwrap();
    assert_eq!(family_sum(&text, "flux_engine_runs_total"), done.len() as f64, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_events_total"), events as f64, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_output_bytes_total"), output_bytes as f64, "{text}");
    assert_eq!(
        family_sum(&text, "flux_serve_frames_total{dir=\"out\",kind=\"done\"}"),
        done.len() as f64,
        "{text}"
    );
    assert_eq!(family_sum(&text, "flux_engine_run_errors_total"), 0.0, "{text}");
    wait_for("the live-session gauge to drain", || {
        let text = client.scrape().unwrap();
        family_sum(&text, "flux_runtime_live_sessions") == 0.0
    });

    // The wire text and a direct registry render are the same exposition.
    let direct = metrics.render_text();
    for family in
        ["flux_engine_runs_total", "flux_engine_events_total", "flux_engine_output_bytes_total"]
    {
        assert_eq!(family_sum(&direct, family), family_sum(&text, family), "{family}");
    }
    server.shutdown().unwrap();
}

#[test]
fn loop_wakeup_and_notify_counters_say_who_woke_the_loop() {
    let metrics = MetricsRegistry::new();
    let cfg = ServerConfig { metrics: Some(metrics.clone()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry(), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // All four series exist from the start, so dashboards never see a gap.
    let text = client.scrape().unwrap();
    for series in [
        "flux_serve_loop_wakeups_total{cause=\"socket\"}",
        "flux_serve_loop_wakeups_total{cause=\"runtime\"}",
        "flux_runtime_notifies_total{result=\"fired\"}",
        "flux_runtime_notifies_total{result=\"coalesced\"}",
    ] {
        assert!(text.lines().any(|l| l.starts_with(series)), "{series} missing: {text}");
    }
    assert!(
        family_sum(&text, "flux_serve_loop_wakeups_total{cause=\"socket\"}") >= 1.0,
        "the scrape's own pass is counted: {text}"
    );

    for books in [1, 17, 50] {
        let out = client.run_document("books", doc(books).as_bytes(), 64).unwrap();
        assert!(out.done.is_some());
    }

    // Every wake-up of the loop through its waker was paid for by a fired
    // notification (several can share one wake-up, never the reverse). The
    // worker counts a firing just after making it, so give the last one a
    // moment to land.
    let mut last = String::new();
    wait_for("the notify bookkeeping to settle", || {
        last = client.scrape().unwrap();
        let fired = family_sum(&last, "flux_runtime_notifies_total{result=\"fired\"}");
        let by_runtime = family_sum(&last, "flux_serve_loop_wakeups_total{cause=\"runtime\"}");
        by_runtime >= 3.0 && by_runtime <= fired
    });
    // A notification is attempted at least once per completion event; the
    // ones that found the loop already awake were coalesced, not dropped.
    let attempts = family_sum(&last, "flux_runtime_notifies_total");
    assert!(attempts >= 3.0, "{last}");
    server.shutdown().unwrap();
}

#[test]
fn a_multi_open_of_one_id_counts_two_subscribers_on_one_pump() {
    let metrics = MetricsRegistry::new();
    let cfg = ServerConfig { metrics: Some(metrics.clone()), ..ServerConfig::default() };
    let server = Server::spawn("127.0.0.1:0", registry(), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Both series exist before any shared session ran.
    let text = client.scrape().unwrap();
    assert_eq!(family_sum(&text, "flux_engine_fanout_subscribers_total"), 0.0, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_fanout_pumps_total"), 0.0, "{text}");
    assert!(text.contains("# TYPE flux_engine_fanout_pumps_total counter"), "{text}");

    // Two OPENs of the same id: two subscribers, one plan class, one pump —
    // and still one result (one `runs_total`) per subscriber.
    let outs = client.run_document_shared(&["books", "books"], doc(9).as_bytes(), 48).unwrap();
    assert_eq!(outs.len(), 2);
    assert!(outs.iter().all(|o| o.done.is_some() && o.error.is_none()), "{outs:?}");
    assert_eq!(outs[0].output, outs[1].output);

    let text = client.scrape().unwrap();
    assert_eq!(family_sum(&text, "flux_engine_fanout_subscribers_total"), 2.0, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_fanout_pumps_total"), 1.0, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_runs_total"), 2.0, "{text}");

    // A single-query run moves neither.
    client.run_document("books", doc(3).as_bytes(), 48).unwrap();
    let text = client.scrape().unwrap();
    assert_eq!(family_sum(&text, "flux_engine_fanout_subscribers_total"), 2.0, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_fanout_pumps_total"), 1.0, "{text}");
    assert_eq!(family_sum(&text, "flux_engine_runs_total"), 3.0, "{text}");
    server.shutdown().unwrap();
}

#[test]
fn admin_listener_answers_http_with_the_prometheus_exposition() {
    let metrics = MetricsRegistry::new();
    let cfg = ServerConfig {
        metrics: Some(metrics.clone()),
        admin: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    };
    let server = Server::spawn("127.0.0.1:0", registry(), cfg).unwrap();
    let admin = server.admin_addr().expect("admin listener configured");

    // One data-plane run first, so the scrape has engine series to show.
    let mut client = Client::connect(server.addr()).unwrap();
    let out = client.run_document("books", doc(5).as_bytes(), 32).unwrap();
    assert!(out.done.is_some());

    let mut stream = TcpStream::connect(admin).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();

    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("header/body split");
    assert!(body.contains("# TYPE flux_engine_runs_total counter"), "{body}");
    assert_eq!(family_sum(body, "flux_engine_runs_total"), 1.0, "{body}");
    assert_eq!(family_sum(body, "flux_serve_scrapes_total{via=\"http\"}"), 1.0, "{body}");

    // The admin endpoint and the wire frame render the same registry.
    let wire = client.scrape().unwrap();
    assert_eq!(family_sum(&wire, "flux_engine_runs_total"), 1.0, "{wire}");
    server.shutdown().unwrap();
}

#[test]
fn stats_without_a_registry_answers_empty() {
    let server = Server::spawn("127.0.0.1:0", registry(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.scrape().unwrap(), "");
    // The connection stays fully usable after the empty scrape.
    let out = client.run_document("books", doc(3).as_bytes(), 16).unwrap();
    assert!(out.done.is_some());
    server.shutdown().unwrap();
}
