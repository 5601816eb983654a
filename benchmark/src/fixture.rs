//! Set-up: everything a workload needs before its first timed pass, built
//! from `--seed` alone. The program under test only ever sees the generated
//! bytes.
//!
//! Set-up is also where the correctness gate starts: every (query, document)
//! reference output is the engine's own one-shot result *compared
//! byte-for-byte with the DOM baseline's* before anything is timed against
//! it.

use std::cell::Cell;
use std::io;
use std::rc::Rc;

use flux::prelude::*;
use flux::xmark::{generate_string, XmarkConfig, PAPER_QUERIES, XMARK_DTD};

/// Feed granularity of every chunked path (sessions, runtime, wire).
pub const CHUNK: usize = 8 << 10;
/// Subscriptions in the fan-out set: Q1/Q13/Q20 cycled.
pub const FANOUT_SUBS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Select,
    Copy,
    Join,
    Fanout,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 5] =
        [Workload::Select, Workload::Copy, Workload::Join, Workload::Fanout, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Select => "select",
            Workload::Copy => "copy",
            Workload::Join => "join",
            Workload::Fanout => "fanout",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper queries this workload runs, in pass order.
    pub fn queries(self) -> &'static [&'static str] {
        match self {
            Workload::Select => &["Q1"],
            Workload::Copy | Workload::Serve => &["Q20"],
            Workload::Join => &["Q8", "Q11"],
            Workload::Fanout => &["Q1", "Q13", "Q20"],
        }
    }
}

/// Document sizes per workload. The full sizes are the citable ones; the
/// smoke sizes only exercise the code.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `select` and `copy`: eight times a core's L2, so the document
    /// streams through the cache hierarchy as a real one would — and below
    /// 32 MiB, where glibc starts to serve the reader's document-sized
    /// buffer with a fresh `mmap` on every pass (its mmap threshold grows no
    /// further) and ~9.4 k page faults per pass put a tenth of the pass time
    /// in the kernel's and the hypervisor's hands.
    pub stream: usize,
    /// `join`: the nested loop is quadratic in this, so it sets the pass
    /// length and with it how many passes a run has to take a tail from. At
    /// 1 MiB a pass takes ~90 ms, the tokenizer is 3 % of it and the buffers
    /// peak at ~245 KB.
    pub join: usize,
    pub fanout: usize,
    pub serve: usize,
}

impl Sizes {
    pub const FULL: Sizes =
        Sizes { stream: 16 << 20, join: 1 << 20, fanout: 4 << 20, serve: 1 << 20 };
    pub const SMOKE: Sizes =
        Sizes { stream: 1 << 20, join: 1 << 20, fanout: 1 << 20, serve: 1 << 20 };

    pub fn of(self, w: Workload) -> usize {
        match w {
            Workload::Select | Workload::Copy => self.stream,
            Workload::Join => self.join,
            Workload::Fanout => self.fanout,
            Workload::Serve => self.serve,
        }
    }
}

/// One prepared paper query with its verified reference result on the
/// fixture's document.
pub struct Query {
    pub name: &'static str,
    pub prepared: PreparedQuery,
    pub reference: RunOutcome,
}

impl Query {
    /// Registry id on the wire.
    pub fn id(&self) -> String {
        self.name.to_ascii_lowercase()
    }

    /// The per-pass check: a run's counters against the reference.
    pub fn check(&self, stats: &RunStats) -> Result<(), String> {
        let r = &self.reference.stats;
        if stats.events != r.events || stats.output_bytes != r.output_bytes {
            return Err(format!(
                "{}: run reports {} events / {} output bytes, reference {} / {}",
                self.name, stats.events, stats.output_bytes, r.events, r.output_bytes
            ));
        }
        Ok(())
    }
}

/// The fan-out part of a fixture: the compiled set and, per subscriber, the
/// index of its query in [`Fixture::queries`].
pub struct Fanout {
    pub set: SubscriptionSet,
    pub subs: Vec<usize>,
}

pub struct Fixture {
    pub workload: Workload,
    pub doc: String,
    pub queries: Vec<Query>,
    /// Every query of the fixture under its lowercase id.
    pub registry: QueryRegistry,
    /// Present for `fanout` only.
    pub fanout: Option<Fanout>,
}

impl Fixture {
    /// Generate the document, parse the DTD, prepare every query, compute
    /// and verify every reference output (and, for `fanout`, compile the
    /// subscription set). `serve` adds its server and chunk→output map on
    /// top, in `serve::ServeFixture`.
    pub fn build(workload: Workload, seed: u64, sizes: Sizes) -> Result<Fixture, String> {
        let cfg = XmarkConfig { seed, ..XmarkConfig::new(sizes.of(workload)) };
        let (doc, _) = generate_string(&cfg);
        let dtd = Dtd::parse(XMARK_DTD).map_err(|e| format!("XMark DTD: {e}"))?;
        let engine = Engine::new(dtd);
        let mut queries = Vec::new();
        let mut registry = QueryRegistry::new();
        for &name in workload.queries() {
            let source = PAPER_QUERIES
                .iter()
                .find(|q| q.name == name)
                .map(|q| q.source)
                .expect("workloads name paper queries");
            let prepared = engine.prepare(source).map_err(|e| format!("prepare {name}: {e}"))?;
            let reference = prepared.run_str(&doc).map_err(|e| format!("reference {name}: {e}"))?;
            let expr = parse_xquery(source).map_err(|e| format!("parse {name}: {e}"))?;
            let dom = DomEngine::default()
                .run(&expr, doc.as_bytes())
                .map_err(|e| format!("DOM baseline {name}: {e}"))?;
            if dom.output != reference.output {
                return Err(format!(
                    "{name}: engine output ({} bytes) differs from the DOM baseline's ({} bytes)",
                    reference.output.len(),
                    dom.output.len()
                ));
            }
            let query = Query { name, prepared, reference };
            registry.register(query.id(), query.prepared.clone());
            queries.push(query);
        }
        let fanout = match workload {
            Workload::Fanout => {
                let subs: Vec<usize> = (0..FANOUT_SUBS).map(|i| i % queries.len()).collect();
                let ids: Vec<String> = subs.iter().map(|&i| queries[i].id()).collect();
                let set = SubscriptionSet::compile_subset(&registry, &ids)
                    .map_err(|e| format!("compile fan-out set: {e}"))?;
                Some(Fanout { set, subs })
            }
            _ => None,
        };
        Ok(Fixture { workload, doc, queries, registry, fanout })
    }

    pub fn chunks(&self) -> std::slice::Chunks<'_, u8> {
        self.doc.as_bytes().chunks(CHUNK)
    }

    pub fn chunk_count(&self) -> usize {
        self.doc.len().div_ceil(CHUNK)
    }

    /// Input bytes one pass consumes: one parse per query, or one shared
    /// parse for the fan-out set.
    pub fn bytes_per_pass(&self) -> usize {
        match &self.fanout {
            Some(_) => self.doc.len(),
            None => self.doc.len() * self.queries.len(),
        }
    }

    /// Σ over the workload's queries of the reference `peak_buffer_bytes`
    /// (per subscriber for the fan-out set) — Figure 4's memory column.
    pub fn reference_peak_buffer_bytes(&self) -> u64 {
        let peak = |q: &Query| q.reference.stats.peak_buffer_bytes as u64;
        match &self.fanout {
            Some(f) => f.subs.iter().map(|&i| peak(&self.queries[i])).sum(),
            None => self.queries.iter().map(peak).sum(),
        }
    }
}

/// A sink that counts into a cell the owner can read while a session still
/// holds the sink — how set-up observes output growth chunk by chunk.
pub struct SharedCount(pub Rc<Cell<u64>>);

impl io::Write for SharedCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `out_after[k]`: cumulative output bytes once chunk `k` has been fed to an
/// in-process session, for the identical chunk sequence the wire carries.
/// The second value is the total after `finish`.
pub fn out_after(query: &Query, doc: &[u8]) -> Result<(Vec<u64>, u64), String> {
    let count = Rc::new(Cell::new(0));
    let mut session = query.prepared.session(SharedCount(Rc::clone(&count)));
    let mut after = Vec::with_capacity(doc.len().div_ceil(CHUNK));
    for chunk in doc.chunks(CHUNK) {
        session.feed(chunk).map_err(|e| format!("{}: chunked reference run: {e}", query.name))?;
        after.push(count.get());
    }
    let fin =
        session.finish().map_err(|e| format!("{}: chunked reference run: {e}", query.name))?;
    query.check(&fin.stats)?;
    Ok((after, count.get()))
}
