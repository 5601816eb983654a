//! The prepared-query facade: compile once, run many.
//!
//! A FluX query is *scheduled once* against the DTD and then executed over
//! arbitrarily many streams. The facade makes the cost split explicit:
//!
//! * [`Engine`] — built once per schema. Holds the parsed [`Dtd`] (shared
//!   via `Arc`), reader options, the rewrite options, and the buffer-limit
//!   policy.
//! * [`Engine::prepare`] — the amortized phase: parse → normalize →
//!   schedule (Figure 2) → safety check → buffer planning → compiled plan.
//!   Linear in the query and schema, independent of any document.
//! * [`PreparedQuery`] — the reusable product. It is cheap to clone and
//!   `Send + Sync`: one preparation serves any number of concurrent runs
//!   or [`Session`](crate::Session)s. Each execution is a single pass over
//!   the input with exactly the buffering the schedule proves necessary.

use std::io::BufRead;
use std::sync::Arc;

use flux_core::{parse_flux, rewrite_query_with, FluxExpr, RewriteOptions};
use flux_dtd::Dtd;
use flux_engine::{BudgetHook, CompiledQuery, EngineOptions, RunOutcome, RunStats};
use flux_query::{parse_xquery, Expr};
use flux_xml::{AttributeMode, DeliveryMode, ScannerChoice, Sink, StringSink};

use crate::error::FluxError;
use crate::runtime::Session;

/// A configured query engine for one schema. See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct Engine {
    dtd: Arc<Dtd>,
    opts: EngineOptions,
    rewrite: RewriteOptions,
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Default, Clone)]
pub struct EngineBuilder {
    dtd: Option<Arc<Dtd>>,
    dtd_src: Option<String>,
    opts: EngineOptions,
    rewrite: RewriteOptions,
}

impl EngineBuilder {
    /// Use an already-parsed DTD.
    pub fn dtd(mut self, dtd: Dtd) -> Self {
        self.dtd = Some(Arc::new(dtd));
        self
    }

    /// Share a DTD that other engines or code also hold.
    pub fn dtd_arc(mut self, dtd: Arc<Dtd>) -> Self {
        self.dtd = Some(dtd);
        self
    }

    /// Parse the DTD from source at [`EngineBuilder::build`] time.
    pub fn dtd_str(mut self, src: &str) -> Self {
        self.dtd_src = Some(src.to_string());
        self
    }

    /// How start-tag attributes are handled (default: XSAX-style conversion
    /// to subelements, the paper's setup).
    pub fn attributes(mut self, mode: AttributeMode) -> Self {
        self.opts.reader.attributes = mode;
        self
    }

    /// Report whitespace-only text nodes (default: off).
    /// Which structural-scanner backend the tokenizer uses (default:
    /// [`ScannerChoice::Auto`] — the best kernel the CPU supports, or SWAR
    /// when `FLUX_FORCE_SWAR` is set). Forcing a kernel the CPU lacks
    /// degrades to the best available one.
    pub fn scanner(mut self, choice: ScannerChoice) -> Self {
        self.opts.reader.scanner = choice;
        self
    }

    /// How resolved events travel from the tokenizer into the engine
    /// (default: [`DeliveryMode::Tape`] — batched event-tape delivery).
    /// Setting the `FLUX_FORCE_PULL` environment variable forces
    /// [`DeliveryMode::PerEvent`] regardless of this option, mirroring
    /// `FLUX_FORCE_SWAR` for the scanner. The mode is transparent: output,
    /// statistics and snapshot bytes are identical either way.
    pub fn delivery(mut self, mode: DeliveryMode) -> Self {
        self.opts.reader.delivery = mode;
        self
    }

    pub fn keep_whitespace(mut self, keep: bool) -> Self {
        self.opts.reader.keep_whitespace = keep;
        self
    }

    /// Abort any run whose live buffers exceed this many bytes — a
    /// back-pressure guard for multi-tenant services (default: unlimited).
    pub fn max_buffer_bytes(mut self, limit: usize) -> Self {
        self.opts.max_buffer_bytes = Some(limit);
        self
    }

    /// Override the scheduler's rewrite options (Section 7 optimizations).
    pub fn rewrite_options(mut self, rewrite: RewriteOptions) -> Self {
        self.rewrite = rewrite;
        self
    }

    /// Build the engine. Fails if no DTD was provided or `dtd_str` does not
    /// parse.
    pub fn build(self) -> Result<Engine, FluxError> {
        let dtd = match (self.dtd, self.dtd_src) {
            (Some(dtd), None) => dtd,
            (None, Some(src)) => Arc::new(Dtd::parse(&src)?),
            (Some(_), Some(_)) => {
                return Err(FluxError::Config(
                    "provide the DTD either parsed or as source, not both".into(),
                ))
            }
            (None, None) => {
                return Err(FluxError::Config(
                    "an Engine needs a DTD (builder.dtd(..) or builder.dtd_str(..))".into(),
                ))
            }
        };
        Ok(Engine { dtd, opts: self.opts, rewrite: self.rewrite })
    }
}

impl Engine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine over a parsed DTD with default options.
    pub fn new(dtd: Dtd) -> Engine {
        Engine {
            dtd: Arc::new(dtd),
            opts: EngineOptions::default(),
            rewrite: RewriteOptions::default(),
        }
    }

    /// The schema this engine schedules against.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Prepare an XQuery− query: the full compile-once pipeline
    /// (parse → schedule → safety check → buffer plan).
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery, FluxError> {
        self.prepare_expr(&parse_xquery(query)?)
    }

    /// Prepare an already-parsed XQuery− expression.
    pub fn prepare_expr(&self, query: &Expr) -> Result<PreparedQuery, FluxError> {
        let plan = rewrite_query_with(query, &self.dtd, self.rewrite)?;
        self.prepare_flux(plan)
    }

    /// Prepare a hand-written FluX plan from source (checked for safety).
    pub fn prepare_flux_str(&self, plan: &str) -> Result<PreparedQuery, FluxError> {
        self.prepare_flux(parse_flux(plan)?)
    }

    /// Prepare an explicit FluX plan (checked for safety).
    pub fn prepare_flux(&self, plan: FluxExpr) -> Result<PreparedQuery, FluxError> {
        let compiled = CompiledQuery::compile_with(&plan, Arc::clone(&self.dtd), self.opts)?;
        Ok(PreparedQuery { compiled: Arc::new(compiled), plan: Arc::new(plan) })
    }
}

/// A fully compiled query pipeline, reusable across documents, threads and
/// sessions. Produced by [`Engine::prepare`]; cloning is an `Arc` bump.
#[derive(Clone)]
pub struct PreparedQuery {
    compiled: Arc<CompiledQuery>,
    plan: Arc<FluxExpr>,
}

impl PreparedQuery {
    /// The scheduled FluX plan (for explain output).
    pub fn plan(&self) -> &FluxExpr {
        &self.plan
    }

    /// Scope variables with a non-empty buffer tree and its rendering —
    /// empty iff the whole query streams in constant memory.
    pub fn buffer_plan(&self) -> Vec<(String, String)> {
        self.compiled.buffer_plan()
    }

    /// How each `for … where` of the buffered subexpressions is evaluated:
    /// `hash join on <atom>`, `key-column scan on <atom>` or
    /// `nested loop (<reason>)`, one line per loop — decided by the same
    /// predicate the engine's buffer evaluator consults. Empty when no
    /// buffered loop carries a condition.
    pub fn join_plan(&self) -> Vec<String> {
        self.compiled.join_plan()
    }

    /// Does the schedule prove the query needs no buffering at all?
    pub fn is_fully_streaming(&self) -> bool {
        self.compiled.buffer_tree_nodes() == 0
    }

    /// Execute over a complete in-memory document, capturing the output.
    pub fn run_str(&self, doc: &str) -> Result<RunOutcome, FluxError> {
        self.run_bytes(doc.as_bytes())
    }

    /// Execute over a complete byte slice, capturing the output. The slice
    /// is scanned where it lies (see [`PreparedQuery::run_to`]).
    pub fn run_bytes(&self, doc: &[u8]) -> Result<RunOutcome, FluxError> {
        let (res, sink) = self.run_parts(doc, StringSink::new());
        let stats = res?;
        Ok(RunOutcome {
            output: sink.expect("sink present when the run succeeded").into_string(),
            stats,
        })
    }

    /// Execute over any buffered reader, streaming the output to a
    /// [`Sink`]. Nothing is collected unless the plan's buffer trees
    /// demand it, and no input is copied beyond the tail of the one
    /// construct a buffer refill cuts in two: each window `fill_buf` hands
    /// out — for a `&[u8]` the whole slice — is parsed in place by a
    /// [`Session`], so events travel the batched tape. Under
    /// [`DeliveryMode::PerEvent`] (or `FLUX_FORCE_PULL`) the run takes the
    /// classic per-event pull path instead; output and statistics are
    /// identical.
    pub fn run_to<R: BufRead, S: Sink>(&self, input: R, sink: S) -> Result<RunStats, FluxError> {
        self.run_parts(input, sink).0
    }

    /// One-shot run behind [`PreparedQuery::run_bytes`] and
    /// [`PreparedQuery::run_to`]; hands the sink back like
    /// [`Session::finish_parts`].
    fn run_parts<R: BufRead, S: Sink>(
        &self,
        mut input: R,
        sink: S,
    ) -> (Result<RunStats, FluxError>, Option<S>) {
        if self.compiled.options().reader.delivery.resolved() == DeliveryMode::PerEvent {
            let (res, sink) = self.compiled.run_sink(input, sink);
            return (res.map_err(Into::into), Some(sink));
        }
        let mut session = self.session(sink);
        loop {
            let buf = match input.fill_buf() {
                Ok(buf) => buf,
                // What std's own `BufRead` loops do: a signal is no failure.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let e = flux_query::eval::EvalError::Io(e.to_string());
                    let e = FluxError::Engine(flux_engine::EngineError::Eval(e));
                    return (Err(e), Some(session.into_sink()));
                }
            };
            // An empty window is end of input. A refused feed means an
            // earlier one failed; finishing reports the cause.
            if buf.is_empty() || session.feed(buf).is_err() {
                return session.finish_parts();
            }
            let n = buf.len();
            input.consume(n);
        }
    }

    /// Start an incremental push session: bytes arrive chunk-by-chunk via
    /// [`Session::feed`] (e.g. straight off a socket), output streams to
    /// `sink` as soon as the schedule allows. The session executes inline
    /// on the caller's thread — no worker thread is spawned — so any number
    /// of sessions can be multiplexed from one thread (see
    /// [`Shard`](crate::Shard)) or spread across cores
    /// ([`Runtime`](crate::Runtime)).
    pub fn session<S: Sink>(&self, sink: S) -> Session<S> {
        Session::new(Arc::clone(&self.compiled), sink)
    }

    /// A push session whose retained buffer bytes charge a shared budget —
    /// usually an [`AdmissionController`](crate::AdmissionController)'s
    /// [`hook`](crate::AdmissionController::hook), shared with every other
    /// session of the service. While the budget runs tight
    /// [`Session::feed_outcome`] reports
    /// [`FeedOutcome::Backpressure`](crate::FeedOutcome) and the session
    /// resumes once the pool frees (see [`crate::runtime`]).
    pub fn session_with_budget<S: Sink>(&self, sink: S, budget: Arc<dyn BudgetHook>) -> Session<S> {
        Session::with_budget(Arc::clone(&self.compiled), sink, Some(budget))
    }

    /// A push session capturing its output in memory.
    pub fn session_string(&self) -> Session<StringSink> {
        self.session(StringSink::new())
    }

    /// Rebuild a session from [`Session::snapshot`] bytes, resuming exactly
    /// where the snapshot left off: further feeds continue the same
    /// document mid-construct, and the finished output and statistics are
    /// byte-identical to a session that never snapshotted. The prepared
    /// query must structurally match the one the snapshot was taken from
    /// (validated by fingerprint —
    /// [`flux_state::StateError::PlanMismatch`] otherwise); the scanner
    /// backend may differ, so snapshots move freely between hosts with
    /// different SIMD tiers. Output already streamed before the snapshot
    /// is *not* replayed into `sink` — it left through the old sink.
    pub fn restore_session<S: Sink>(
        &self,
        sink: S,
        snapshot: &[u8],
    ) -> Result<Session<S>, FluxError> {
        Session::restore(Arc::clone(&self.compiled), sink, None, snapshot, false)
    }

    /// [`PreparedQuery::restore_session`] under admission control: the
    /// snapshot's recorded buffer charges are re-granted through `budget`
    /// before the session resumes. A hook without headroom refuses the
    /// restore ([`flux_state::StateError::BudgetDenied`]) charging nothing,
    /// so the caller can retry once the pool frees.
    pub fn restore_session_with_budget<S: Sink>(
        &self,
        sink: S,
        budget: Arc<dyn BudgetHook>,
        snapshot: &[u8],
    ) -> Result<Session<S>, FluxError> {
        Session::restore(Arc::clone(&self.compiled), sink, Some(budget), snapshot, false)
    }

    /// The underlying compiled plan.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    pub(crate) fn compiled_arc(&self) -> Arc<CompiledQuery> {
        Arc::clone(&self.compiled)
    }

    pub(crate) fn plan_arc(&self) -> Arc<FluxExpr> {
        Arc::clone(&self.plan)
    }
}

/// A shared, immutable catalog of prepared queries addressed by string id —
/// what a network front-end (e.g. the `flux-serve` crate) resolves an
/// `OPEN <query-id>` request against.
///
/// Build it once at startup ([`QueryRegistry::register`] each prepared
/// query, then hand the registry out); cloning is cheap (`Arc` bump) and
/// the registry is `Send + Sync`, so every server thread can hold one. Ids
/// are arbitrary non-empty UTF-8 — typically short names like `"q1"`.
///
/// The catalog is copy-on-write: mutation ([`QueryRegistry::register`],
/// [`QueryRegistry::unregister`]) never disturbs clones handed out earlier,
/// and any clone can tell whether it still sees the same catalog as another
/// via [`QueryRegistry::same_catalog`] — which is how a compiled
/// [`SubscriptionSet`](crate::SubscriptionSet) detects it has gone stale.
///
/// ```
/// use flux::{Engine, QueryRegistry};
///
/// let engine = Engine::builder()
///     .dtd_str("<!ELEMENT bib (book)*><!ELEMENT book (title)>\
///               <!ELEMENT title (#PCDATA)>")
///     .build()?;
/// let q = "<r>{ for $b in $ROOT/bib/book return <hit> {$b/title} </hit> }</r>";
///
/// let mut reg = QueryRegistry::new();
/// reg.register("titles", engine.prepare(q)?);
/// let served = reg.clone(); // what the server threads see
///
/// reg.register("titles-v2", engine.prepare(q)?);
/// reg.unregister("titles");
/// assert_eq!(reg.len(), 1);
/// assert_eq!(reg.iter().count(), 1);
/// // Earlier clones keep the catalog they saw …
/// assert!(served.get("titles").is_some());
/// // … and the divergence is observable.
/// assert!(!served.same_catalog(&reg));
/// # Ok::<(), flux::FluxError>(())
/// ```
#[derive(Clone, Default)]
pub struct QueryRegistry {
    queries: Arc<std::collections::HashMap<String, PreparedQuery>>,
}

impl QueryRegistry {
    /// An empty registry.
    pub fn new() -> QueryRegistry {
        QueryRegistry::default()
    }

    /// Add (or replace) a prepared query under `id`.
    ///
    /// Registration is a startup-time operation: if the registry has
    /// already been cloned and shared, this clones the underlying map
    /// (copy-on-write) — existing clones keep the catalog they saw.
    pub fn register(&mut self, id: impl Into<String>, query: PreparedQuery) {
        Arc::make_mut(&mut self.queries).insert(id.into(), query);
    }

    /// Remove the query registered under `id`, returning it if present.
    ///
    /// Copy-on-write like [`QueryRegistry::register`]: clones that already
    /// exist keep serving the old catalog.
    pub fn unregister(&mut self, id: &str) -> Option<PreparedQuery> {
        Arc::make_mut(&mut self.queries).remove(id)
    }

    /// Look up a prepared query by id.
    pub fn get(&self, id: &str) -> Option<&PreparedQuery> {
        self.queries.get(id)
    }

    /// Registered ids, in arbitrary order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.queries.keys().map(String::as_str)
    }

    /// Iterate over `(id, query)` pairs, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PreparedQuery)> {
        self.queries.iter().map(|(id, q)| (id.as_str(), q))
    }

    /// Do `self` and `other` see the very same catalog (the same underlying
    /// copy-on-write map)? Any mutation of either side after they diverged
    /// makes this `false` — even a register/unregister round-trip that
    /// restores equal contents, which is exactly the conservative behavior
    /// a compiled-artifact cache wants.
    pub fn same_catalog(&self, other: &QueryRegistry) -> bool {
        Arc::ptr_eq(&self.queries, &other.queries)
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRegistry").field("ids", &self.ids().collect::<Vec<_>>()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
    const QUERY: &str = "<results>{ for $b in $ROOT/bib/book return \
        <result> {$b/title} {$b/author} </result> }</results>";
    const DOC: &str = "<bib><book><title>T</title><author>A</author>\
        <publisher>P</publisher><price>1</price></book></bib>";

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn prepared_queries_are_shareable() {
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<Engine>();
    }

    #[test]
    fn one_preparation_many_runs_and_threads() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        assert!(q.is_fully_streaming());
        let first = q.run_str(DOC).unwrap();
        assert_eq!(first.stats.peak_buffer_bytes, 0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.run_str(DOC).unwrap().output)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), first.output);
        }
    }

    #[test]
    fn run_to_retries_interrupted_reads() {
        /// A source on which every other `fill_buf` is cut short by a signal.
        struct Interrupting<'a> {
            data: &'a [u8],
            calls: usize,
        }
        impl std::io::Read for Interrupting<'_> {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                unreachable!("run_to reads through fill_buf")
            }
        }
        impl BufRead for Interrupting<'_> {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                self.calls += 1;
                if self.calls % 2 == 1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                Ok(&self.data[..self.data.len().min(7)])
            }
            fn consume(&mut self, n: usize) {
                self.data = &self.data[n..];
            }
        }
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        if q.compiled().options().reader.delivery.resolved() == DeliveryMode::PerEvent {
            return; // `FLUX_FORCE_PULL`: the blocking reader owns the loop
        }
        let reference = q.run_str(DOC).unwrap();
        let mut out = StringSink::new();
        let stats = q.run_to(Interrupting { data: DOC.as_bytes(), calls: 0 }, &mut out).unwrap();
        assert_eq!(out.as_str(), reference.output);
        assert_eq!(stats, reference.stats);
    }

    #[test]
    fn run_to_reports_the_cause_of_a_failure_in_an_earlier_window() {
        // The failing window is followed by more input: the run must report
        // the validation error, not that a later feed was refused.
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let doc = "<bib><zzz>x</zzz><book><title>T</title></book></bib>";
        let input = std::io::BufReader::with_capacity(7, doc.as_bytes());
        let err = q.run_to(input, StringSink::new()).unwrap_err();
        assert!(err.to_string().contains("zzz"), "{err}");
    }

    #[test]
    fn builder_misuse_is_reported() {
        assert!(matches!(Engine::builder().build(), Err(FluxError::Config(_))));
        let both = Engine::builder().dtd_str(DTD).dtd(Dtd::parse(DTD).unwrap()).build();
        assert!(matches!(both, Err(FluxError::Config(_))));
        assert!(matches!(Engine::builder().dtd_str("<!ELEMENT").build(), Err(FluxError::Dtd(_))));
    }

    #[test]
    fn buffer_limit_aborts_buffering_plans() {
        // The weak schema forces author buffering; a tiny limit must abort.
        let weak = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
            <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
        let engine = Engine::builder().dtd_str(weak).max_buffer_bytes(4).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        let doc = "<bib><book><title>T</title><author>quite-long-author-name</author></book></bib>";
        let err = q.run_str(doc).unwrap_err();
        assert!(
            matches!(err, FluxError::Engine(flux_engine::EngineError::BufferLimit { .. })),
            "{err}"
        );
        // Streaming plans are untouched by the limit.
        let strong = Engine::builder().dtd_str(DTD).max_buffer_bytes(4).build().unwrap();
        assert_eq!(strong.prepare(QUERY).unwrap().run_str(DOC).unwrap().stats.peak_buffer_bytes, 0);
    }

    #[test]
    fn registry_shares_prepared_queries_by_id() {
        assert_send_sync::<QueryRegistry>();
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let mut reg = QueryRegistry::new();
        assert!(reg.is_empty());
        reg.register("q", engine.prepare(QUERY).unwrap());
        let shared = reg.clone();
        // Copy-on-write: late registration is invisible to earlier clones.
        reg.register("other", engine.prepare(QUERY).unwrap());
        assert_eq!(reg.len(), 2);
        assert_eq!(shared.len(), 1);
        assert!(shared.get("q").is_some());
        assert!(shared.get("missing").is_none());
        let out = shared.get("q").unwrap().run_str(DOC).unwrap();
        assert!(out.output.contains("<title>T</title>"));
    }

    #[test]
    fn registry_unregister_iter_and_catalog_identity() {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let mut reg = QueryRegistry::new();
        reg.register("a", engine.prepare(QUERY).unwrap());
        reg.register("b", engine.prepare(QUERY).unwrap());
        let snapshot = reg.clone();
        assert!(reg.same_catalog(&snapshot));

        assert!(reg.unregister("a").is_some());
        assert!(reg.unregister("a").is_none());
        assert_eq!(reg.len(), 1);
        let mut seen: Vec<&str> = reg.iter().map(|(id, _)| id).collect();
        seen.sort_unstable();
        assert_eq!(seen, ["b"]);
        // The snapshot kept the pre-unregister catalog, and the divergence
        // is visible through catalog identity.
        assert_eq!(snapshot.len(), 2);
        assert!(!reg.same_catalog(&snapshot));
    }

    #[test]
    fn explain_surface() {
        let weak = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
            <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";
        let engine = Engine::builder().dtd_str(weak).build().unwrap();
        let q = engine.prepare(QUERY).unwrap();
        assert!(!q.is_fully_streaming());
        let plan = q.buffer_plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].0, "b");
        assert!(q.plan().to_string().contains("ps"));
    }
}
