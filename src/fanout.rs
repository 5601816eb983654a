//! Registry-wide fan-out: one parse serves every registered query.
//!
//! The paper's engine makes a *single* query cheap: one pass, minimal
//! buffers. The production shape of such an engine (ROADMAP north star) is
//! content-based dissemination — M registered subscriptions stand by while
//! documents stream past, and every document should be tokenized and
//! walked **once**, not M times. [`SubscriptionSet`] is that compile step
//! at the facade level: it takes a [`QueryRegistry`] (or an explicit
//! subset of it), unifies the per-query symbol tables over the shared DTD,
//! and groups subscriptions with an identical plan into *plan classes* of
//! one [`FanoutPlan`](flux_engine::FanoutPlan).
//! [`SubscriptionSet::session`] then opens a [`SharedSession`]: one
//! incremental parse fanned out to M subscriptions, each with its own
//! sink, its own statistics and its own failure isolation — and one pump,
//! one set of buffers and one budget charge per *distinct* plan, so a query
//! ten clients subscribed to is evaluated and buffered once.
//!
//! A compiled set is an immutable snapshot of the registry's catalog
//! (which is copy-on-write): when the registry is later mutated,
//! [`SubscriptionSet::is_current`] turns `false` and the caller recompiles
//! — the cheap check makes cache invalidation explicit rather than silent.

use std::sync::Arc;

use flux_engine::{BudgetHook, FanoutPlan, FanoutQuery};
use flux_xml::{Sink, StringSink};

use crate::api::QueryRegistry;
use crate::error::FluxError;
use crate::runtime::SharedSession;

/// A set of prepared queries compiled into one shared single-pass plan.
/// See the [crate docs](crate).
#[derive(Clone)]
pub struct SubscriptionSet {
    plan: Arc<FanoutPlan>,
    ids: Vec<String>,
    /// The registry snapshot this set was compiled from. Holding a clone
    /// both anchors [`SubscriptionSet::is_current`] and pins the catalog's
    /// refcount above one, so any later `register`/`unregister` on the
    /// source registry is forced down the copy-on-write path and becomes
    /// observable as a catalog change.
    registry: QueryRegistry,
}

impl SubscriptionSet {
    /// Compile every query in the registry, in sorted-id order (the
    /// subscriber order of every [`SharedSession`] opened from this set).
    ///
    /// Fails if the registry is empty, or if the queries do not share one
    /// DTD instance and identical engine options — i.e. they must all come
    /// from the same [`Engine`](crate::Engine) (or engines sharing a DTD
    /// via [`dtd_arc`](crate::EngineBuilder::dtd_arc)).
    pub fn compile(registry: &QueryRegistry) -> Result<SubscriptionSet, FluxError> {
        let mut ids: Vec<String> = registry.ids().map(str::to_string).collect();
        ids.sort_unstable();
        Self::compile_ids(registry, ids)
    }

    /// Compile an explicit subset, preserving the given subscriber order.
    /// Duplicates are allowed and normal — two network clients opening the
    /// same query id get distinct subscriptions (own sink, own result, own
    /// abort) served by one pump: subscriptions with an identical plan,
    /// whether the same id or equal queries registered under two, form one
    /// plan class ([`FanoutPlan::classes`]).
    pub fn compile_subset<I: AsRef<str>>(
        registry: &QueryRegistry,
        ids: &[I],
    ) -> Result<SubscriptionSet, FluxError> {
        Self::compile_ids(registry, ids.iter().map(|i| i.as_ref().to_string()).collect())
    }

    fn compile_ids(
        registry: &QueryRegistry,
        ids: Vec<String>,
    ) -> Result<SubscriptionSet, FluxError> {
        if ids.is_empty() {
            return Err(FluxError::Config("a SubscriptionSet needs at least one query".into()));
        }
        let mut subs = Vec::with_capacity(ids.len());
        for id in &ids {
            let q = registry
                .get(id)
                .ok_or_else(|| FluxError::Config(format!("query id {id:?} is not registered")))?;
            subs.push(FanoutQuery { plan: q.plan_arc(), compiled: q.compiled_arc() });
        }
        let plan = FanoutPlan::compile(&subs)?;
        Ok(SubscriptionSet { plan: Arc::new(plan), ids, registry: registry.clone() })
    }

    /// The subscriber ids, in subscription order (one sink per entry when
    /// opening a session; duplicates are distinct subscribers).
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the set empty? (Never true for a compiled set.)
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The engine-level plan (union symbol table, per-subscription compiled
    /// queries, plan classes).
    pub fn plan(&self) -> &FanoutPlan {
        &self.plan
    }

    /// Was this set compiled from the catalog `registry` currently serves?
    /// `false` as soon as the registry is mutated after compilation — the
    /// signal to recompile a cached set.
    pub fn is_current(&self, registry: &QueryRegistry) -> bool {
        self.registry.same_catalog(registry)
    }

    /// Open a shared incremental session: one sink per subscription, in
    /// [`SubscriptionSet::ids`] order.
    ///
    /// # Panics
    /// If `sinks.len() != self.len()`.
    pub fn session<S: Sink>(&self, sinks: Vec<S>) -> SharedSession<S> {
        SharedSession::new(Arc::clone(&self.plan), sinks, None)
    }

    /// A shared session charging `budget` — see
    /// [`PreparedQuery::session_with_budget`](crate::PreparedQuery::session_with_budget).
    /// Each plan class charges its buffers once, however many subscribers
    /// read them, and releases them when its last member finishes, fails or
    /// is aborted: aborting the only subscriber of a plan returns exactly
    /// its bytes to the pool, aborting one of several returns nothing yet.
    pub fn session_with_budget<S: Sink>(
        &self,
        sinks: Vec<S>,
        budget: Arc<dyn BudgetHook>,
    ) -> SharedSession<S> {
        SharedSession::new(Arc::clone(&self.plan), sinks, Some(budget))
    }

    /// A shared session capturing every subscriber's output in memory.
    pub fn session_strings(&self) -> SharedSession<StringSink> {
        self.session((0..self.len()).map(|_| StringSink::new()).collect())
    }

    /// Rebuild a shared session from [`SharedSession::snapshot`] bytes.
    /// The set must compile the same queries in the same subscriber order
    /// as the snapshotted one (validated by fingerprint). `sinks` holds one
    /// fresh sink per subscription; pass `None` exactly for subscribers the
    /// snapshot recorded as detached — their sinks were handed back by
    /// [`SharedSession::abort_sub`](crate::SharedSession::abort_sub)
    /// before the snapshot was taken.
    pub fn restore_session<S: Sink>(
        &self,
        sinks: Vec<Option<S>>,
        snapshot: &[u8],
    ) -> Result<SharedSession<S>, FluxError> {
        SharedSession::restore(Arc::clone(&self.plan), sinks, None, snapshot, false)
    }

    /// [`SubscriptionSet::restore_session`] under admission control: each
    /// plan class's recorded charges are re-granted through `budget` before
    /// the stream resumes (refusal fails the restore with
    /// [`flux_state::StateError::BudgetDenied`], charging nothing).
    pub fn restore_session_with_budget<S: Sink>(
        &self,
        sinks: Vec<Option<S>>,
        budget: Arc<dyn BudgetHook>,
        snapshot: &[u8],
    ) -> Result<SharedSession<S>, FluxError> {
        SharedSession::restore(Arc::clone(&self.plan), sinks, Some(budget), snapshot, false)
    }
}

impl std::fmt::Debug for SubscriptionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionSet")
            .field("ids", &self.ids)
            .field("classes", &self.plan.classes())
            .field("reused_plans", &self.plan.reused_plans())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    const DTD: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
    const Q_TITLES: &str = "<results>{ for $b in $ROOT/bib/book return \
        <result> {$b/title} </result> }</results>";
    const Q_PRICES: &str = "<prices>{ for $b in $ROOT/bib/book return \
        <p> {$b/price} </p> }</prices>";
    const DOC: &str = "<bib><book><title>T</title><author>A</author>\
        <publisher>P</publisher><price>1</price></book></bib>";

    fn registry() -> QueryRegistry {
        let engine = Engine::builder().dtd_str(DTD).build().unwrap();
        let mut reg = QueryRegistry::new();
        reg.register("titles", engine.prepare(Q_TITLES).unwrap());
        reg.register("prices", engine.prepare(Q_PRICES).unwrap());
        reg
    }

    #[test]
    fn whole_registry_compiles_in_sorted_id_order() {
        let reg = registry();
        let set = SubscriptionSet::compile(&reg).unwrap();
        assert_eq!(set.ids(), ["prices", "titles"]);
        assert_eq!(set.len(), 2);
        let mut s = set.session_strings();
        s.feed(DOC.as_bytes()).unwrap();
        let outs = s.finish_parts();
        assert!(outs[0].1.as_ref().unwrap().as_str().contains("<price>1</price>"));
        assert!(outs[1].1.as_ref().unwrap().as_str().contains("<title>T</title>"));
        for (res, _) in &outs {
            let stats = res.as_ref().unwrap();
            assert_eq!(stats.peak_buffer_bytes, 0);
        }
    }

    #[test]
    fn subsets_preserve_order_and_allow_duplicates() {
        let reg = registry();
        let set = SubscriptionSet::compile_subset(&reg, &["titles", "prices", "titles"]).unwrap();
        assert_eq!(set.ids(), ["titles", "prices", "titles"]);
        let mut s = set.session_strings();
        s.feed(DOC.as_bytes()).unwrap();
        let outs = s.finish_parts();
        assert_eq!(outs[0].1.as_ref().unwrap().as_str(), outs[2].1.as_ref().unwrap().as_str());
        let missing = SubscriptionSet::compile_subset(&reg, &["nope"]);
        assert!(matches!(missing, Err(FluxError::Config(_))));
        let empty: &[&str] = &[];
        assert!(matches!(SubscriptionSet::compile_subset(&reg, empty), Err(FluxError::Config(_))));
    }

    #[test]
    fn registry_mutation_invalidates_compiled_sets() {
        let mut reg = registry();
        let set = SubscriptionSet::compile(&reg).unwrap();
        assert!(set.is_current(&reg));
        // Any mutation — even one that leaves equal contents — must flip
        // the check: register …
        let extra = reg.get("titles").unwrap().clone();
        reg.register("extra", extra);
        assert!(!set.is_current(&reg));
        // … recompile picks the new catalog up …
        let set2 = SubscriptionSet::compile(&reg).unwrap();
        assert!(set2.is_current(&reg));
        assert_eq!(set2.len(), 3);
        // … and unregister invalidates again.
        reg.unregister("extra");
        assert!(!set2.is_current(&reg));
        assert!(set.is_current(&set.registry.clone()));
    }

    #[test]
    fn mixed_engines_are_refused() {
        let a = Engine::builder().dtd_str(DTD).build().unwrap();
        let b = Engine::builder().dtd_str(DTD).build().unwrap();
        let mut reg = QueryRegistry::new();
        reg.register("a", a.prepare(Q_TITLES).unwrap());
        reg.register("b", b.prepare(Q_PRICES).unwrap());
        // Distinct DTD instances: the shared tokenization has no single
        // authoritative vocabulary, so compilation refuses.
        assert!(SubscriptionSet::compile(&reg).is_err());
    }
}
