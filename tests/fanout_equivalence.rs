//! Fan-out equivalence: shared single-pass execution is observationally
//! identical to independent runs.
//!
//! The fan-out subsystem's contract is exact, not approximate: for every
//! subscriber of a [`SubscriptionSet`], the bytes its sink receives and
//! its final [`RunStats`] must be byte-for-byte identical to an
//! independent [`PreparedQuery`] run over the same document — whatever the
//! mix of co-subscribers and however the input is chunked. This suite pins
//! that property over the paper's own workload: **every non-empty subset**
//! of the five Appendix-A XMark queries, fed at chunk sizes {3, 257, 4096}
//! over a generated XMark document, extending the chunk-invariance harness
//! of `tests/session_chunking.rs` to the shared path — and, since
//! subscribers with an identical plan share one pump (a *plan class*), sets
//! with duplicates: the same `Arc`, a separately prepared copy, a join.

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};

/// Chunk sizes exercising the resumable-parse seams: sub-token feeds,
/// a prime stride, and a bulk stride.
const CHUNKS: &[usize] = &[3, 257, 4096];

struct Fixture {
    engine: Engine,
    registry: QueryRegistry,
    doc: String,
    /// Reference output + stats per paper query, from independent runs.
    refs: Vec<(String, RunOutcome)>,
}

fn fixture(doc_bytes: usize) -> Fixture {
    let engine = Engine::builder().dtd_str(XMARK_DTD).build().unwrap();
    let (doc, _) = generate_string(&XmarkConfig::new(doc_bytes));
    let mut registry = QueryRegistry::new();
    let mut refs = Vec::new();
    for q in PAPER_QUERIES {
        let prepared = engine.prepare(q.source).unwrap();
        let reference = prepared.run_str(&doc).unwrap();
        registry.register(q.name, prepared);
        refs.push((q.name.to_string(), reference));
    }
    Fixture { engine, registry, doc, refs }
}

impl Fixture {
    fn reference(&self, name: &str) -> &RunOutcome {
        &self.refs.iter().find(|(n, _)| n == name).unwrap().1
    }

    /// Run `ids` as one shared fan-out at the given chunk size and compare
    /// every subscriber against its independent reference run.
    fn check_subset(&self, ids: &[&str], chunk: usize) {
        let set = SubscriptionSet::compile_subset(&self.registry, ids).unwrap();
        let mut session = set.session_strings();
        for c in self.doc.as_bytes().chunks(chunk) {
            session.feed(c).unwrap();
        }
        let outs = session.finish_parts();
        assert_eq!(outs.len(), ids.len());
        for (id, (res, sink)) in ids.iter().zip(outs) {
            let reference = self.reference(id);
            let stats = res.unwrap_or_else(|e| panic!("{id} in {ids:?} @{chunk}: {e}"));
            assert_eq!(
                sink.unwrap().as_str(),
                reference.output,
                "{id} output differs in subset {ids:?} at chunk size {chunk}"
            );
            assert_eq!(
                stats, reference.stats,
                "{id} stats differ in subset {ids:?} at chunk size {chunk}"
            );
        }
    }
}

/// Every non-empty subset of the five paper queries × every chunk size.
/// The joins (Q8, Q11) are quadratic, so the exhaustive sweep runs on a
/// compact document; the streaming trio gets a larger one below.
#[test]
fn every_paper_query_subset_is_byte_identical_at_every_chunk_size() {
    let fx = fixture(24 << 10);
    let names: Vec<&str> = PAPER_QUERIES.iter().map(|q| q.name).collect();
    for mask in 1u32..(1 << names.len()) {
        let ids: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        for &chunk in CHUNKS {
            fx.check_subset(&ids, chunk);
        }
    }
}

/// The streaming queries (the fan-out service's hot shape) on a larger
/// document, including duplicate subscriptions of the same query.
#[test]
fn streaming_queries_share_one_larger_parse() {
    let fx = fixture(192 << 10);
    for &chunk in CHUNKS {
        fx.check_subset(&["Q1", "Q13", "Q20"], chunk);
        fx.check_subset(&["Q13", "Q1", "Q13", "Q1"], chunk);
    }
}

/// The benchmark's `fanout` shape: 16 subscribers cycling three queries
/// are three plan classes of 6/5/5 members — each member still gets its
/// own bytes and its own statistics.
#[test]
fn sixteen_subscribers_of_three_plans_run_three_pumps() {
    let fx = fixture(192 << 10);
    let ids: Vec<&str> = (0..16).map(|i| ["Q1", "Q13", "Q20"][i % 3]).collect();
    let set = SubscriptionSet::compile_subset(&fx.registry, &ids).unwrap();
    let members: Vec<usize> = set.plan().classes().iter().map(Vec::len).collect();
    assert_eq!(members, [6, 5, 5]);
    for &chunk in CHUNKS {
        fx.check_subset(&ids, chunk);
    }
}

/// Classes are found by *structural* plan equality, not only by `Arc`
/// identity: a second `prepare` of the same source (its own plan, its own
/// compilation) lands in the class of the first.
#[test]
fn separately_prepared_copies_of_one_query_share_a_class() {
    let mut fx = fixture(48 << 10);
    let q20 = PAPER_QUERIES.iter().find(|q| q.name == "Q20").unwrap();
    fx.registry.register("Q20-copy", fx.engine.prepare(q20.source).unwrap());
    fx.refs.push(("Q20-copy".to_string(), fx.reference("Q20").clone()));

    let ids = ["Q20", "Q1", "Q20-copy"];
    let set = SubscriptionSet::compile_subset(&fx.registry, &ids).unwrap();
    assert_eq!(set.plan().classes(), [vec![0, 2], vec![1]]);
    for &chunk in CHUNKS {
        fx.check_subset(&ids, chunk);
    }
}

/// A duplicated *join*: both Q8 subscribers read one pump's buffers and
/// one join index, and report the peak an independent run reports.
#[test]
fn duplicate_join_subscribers_share_buffers_and_index() {
    let fx = fixture(24 << 10);
    assert!(fx.reference("Q8").stats.peak_buffer_bytes > 0, "Q8 buffers");
    let ids = ["Q8", "Q1", "Q8"];
    let set = SubscriptionSet::compile_subset(&fx.registry, &ids).unwrap();
    assert_eq!(set.plan().classes(), [vec![0, 2], vec![1]]);
    for &chunk in CHUNKS {
        fx.check_subset(&ids, chunk);
    }
}

/// The shared parse must also agree with the *session* path (not just the
/// one-shot pull run): chunk-fed independent sessions and one chunk-fed
/// shared session see identical bytes and stats.
#[test]
fn shared_run_matches_independent_sessions_too() {
    let fx = fixture(48 << 10);
    let ids = ["Q1", "Q13", "Q20"];
    let set = SubscriptionSet::compile_subset(&fx.registry, &ids).unwrap();
    let mut shared = set.session_strings();
    let mut singles: Vec<_> =
        ids.iter().map(|id| fx.registry.get(id).unwrap().session_string()).collect();
    for c in fx.doc.as_bytes().chunks(257) {
        shared.feed(c).unwrap();
        for s in &mut singles {
            s.feed(c).unwrap();
        }
    }
    let outs = shared.finish_parts();
    for (s, (res, sink)) in singles.into_iter().zip(outs) {
        let fin = s.finish().unwrap();
        assert_eq!(sink.unwrap().as_str(), fin.sink.as_str());
        assert_eq!(res.unwrap(), fin.stats);
    }
}
