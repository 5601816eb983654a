//! Pluggable buffer-budget accounting: the seam between one run's byte
//! counting and a fleet-wide admission controller.
//!
//! The paper bounds buffer memory *per query* — the schedule proves how
//! little one run may hold. A multi-tenant service additionally needs an
//! *aggregate* bound: N concurrent sessions must not together retain more
//! than the machine affords, however each one's schedule behaves. The
//! engine therefore reports every retained-byte delta (recorder growth,
//! child captures, `Top::Simple` materialization) through a [`BudgetHook`]
//! when one is installed ([`Pump::with_budget`](crate::Pump::with_budget)),
//! in addition to the per-run counter behind
//! [`EngineOptions::max_buffer_bytes`](crate::EngineOptions).
//!
//! The hook is *strict*: a charge either fits under the shared budget or is
//! denied, so the recorded aggregate can never exceed the configured
//! ceiling. Denial surfaces as
//! [`EngineError::BudgetDenied`](crate::EngineError) and poisons the run —
//! it is the hard backstop. Orderly flow control happens one layer up:
//! a multiplexer consults [`BudgetHook::should_pause`] *between* events and
//! suspends sessions (backpressure) while headroom is scarce, so the
//! backstop only fires when a single event outgrows the controller's
//! reserve. Every granted byte is paired with a release: scope exits and
//! capture retirements release eagerly, and dropping a run mid-stream
//! (abort, error, early drop) releases whatever it still held.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared accounting for bytes retained in runtime buffers, across any
/// number of concurrent runs. Implementations must be thread-safe: pumps on
/// different worker threads charge the same hook.
///
/// The engine guarantees balanced accounting: over a run's lifetime (up to
/// and including its drop) the sum of granted [`try_grow`] bytes equals the
/// sum of [`release`] bytes.
///
/// [`try_grow`]: BudgetHook::try_grow
/// [`release`]: BudgetHook::release
pub trait BudgetHook: Send + Sync {
    /// One run wants to retain `bytes` more. Return `false` to deny the
    /// charge (the run fails with
    /// [`EngineError::BudgetDenied`](crate::EngineError)); on `true` the
    /// bytes are considered held until released.
    fn try_grow(&self, bytes: usize) -> bool;

    /// `bytes` previously granted by [`BudgetHook::try_grow`] are no longer
    /// held.
    fn release(&self, bytes: usize);

    /// Should runs pause *before their next event* because headroom is
    /// scarce? Advisory flow control, checked by session layers between
    /// events (the engine itself never blocks): pausing early keeps
    /// per-event charges inside the remaining headroom so
    /// [`BudgetHook::try_grow`] never has to deny. Default: never pause.
    fn should_pause(&self) -> bool {
        false
    }

    /// Subscribe a [`BudgetWaker`] to *release edges*: whenever a
    /// [`BudgetHook::release`] leaves the pool with enough headroom that
    /// [`BudgetHook::should_pause`] turns false, every armed subscribed
    /// waker must be fired. This is how multiplexers sleep on a tight
    /// budget instead of polling it: a worker with paused sessions arms its
    /// waker, blocks on its own mailbox, and the release that frees the
    /// pool delivers the resume — on the release *edge*, with no retry
    /// tick.
    ///
    /// The default implementation ignores the waker, which is only correct
    /// for hooks that never pause: **a hook that can return `true` from
    /// [`BudgetHook::should_pause`] must deliver wakeups** (or forward
    /// subscriptions to an inner hook that does, as wrapping hooks should
    /// forward all five methods) — otherwise sessions it pauses resume only
    /// on unrelated mailbox traffic.
    fn subscribe_waker(&self, waker: &Arc<BudgetWaker>) {
        let _ = waker;
    }
}

/// An *armable*, edge-triggered wake-up callback: the one cross-thread
/// "something changed, come and look" primitive of the stack. Firing is
/// idempotent — only an armed waker invokes its callback, and doing so
/// consumes the arm — so any number of producers can fire it per burst and
/// the owner pays for at most one notification.
///
/// The cycle is always *arm, then re-check, then block*: the owner
/// [`arm`](EdgeWaker::arm)s the waker, re-checks the condition it waits on
/// (arming *before* checking closes the race with a concurrent producer),
/// and blocks; a producer that changes the condition afterwards
/// [`fire`](EdgeWaker::fire)s the waker, whose callback delivers the
/// wake-up (a mailbox message, an `eventfd` write). Because `arm` and
/// `fire` are both read-modify-writes of one flag, a `fire` that finds the
/// waker unarmed is ordered before the owner's next `arm`: whatever the
/// producer did before firing is visible to the re-check that follows that
/// `arm`. A wake-up can be spurious, never lost.
///
/// Two users today: budget release edges (as [`BudgetWaker`], see
/// [`BudgetHook::subscribe_waker`] — a worker with paused sessions sleeps
/// on its mailbox until the pool frees) and the runtime's front-end
/// notifier (`flux::RuntimeBuilder::notifier` — a server thread blocked in
/// its poller until a worker has events or output for it).
pub struct EdgeWaker {
    armed: AtomicBool,
    /// Aggregate armed count of the hook this waker subscribed to, bound at
    /// [`BudgetHook::subscribe_waker`] time. Lets the hook's release path
    /// skip the subscriber scan with one relaxed load while nobody waits.
    /// Unbound (and unused) for wakers that subscribe to no hook.
    armed_hint: std::sync::OnceLock<Arc<std::sync::atomic::AtomicUsize>>,
    notify: Box<dyn Fn() + Send + Sync>,
}

/// An [`EdgeWaker`] subscribed to budget release edges (see
/// [`BudgetHook::subscribe_waker`]).
pub type BudgetWaker = EdgeWaker;

impl EdgeWaker {
    /// A waker invoking `notify` on every edge it is armed for. `notify`
    /// runs on whatever thread fires the waker: keep it to a wakeup (a
    /// channel send, a condvar signal, an `eventfd` write), not work.
    pub fn new(notify: impl Fn() + Send + Sync + 'static) -> Arc<EdgeWaker> {
        Arc::new(EdgeWaker {
            armed: AtomicBool::new(false),
            armed_hint: std::sync::OnceLock::new(),
            notify: Box::new(notify),
        })
    }

    /// Bind the subscriber-side armed counter (called by the hook the waker
    /// subscribes to; at most one hook per waker).
    pub fn bind_armed_hint(&self, hint: Arc<std::sync::atomic::AtomicUsize>) {
        self.armed_hint.set(hint).expect("a BudgetWaker subscribes to one hook");
    }

    /// Arm for the next edge. Arm *before* re-checking the awaited
    /// condition ([`BudgetHook::should_pause`], a queue's emptiness): a
    /// producer acting between the check and the blocking wait then still
    /// fires the waker.
    pub fn arm(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            if let Some(hint) = self.armed_hint.get() {
                hint.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Cancel a pending arm (the owner woke up for another reason). A
    /// concurrent [`EdgeWaker::fire`] may still have won the flag — a
    /// spurious notification must be tolerated (retries are cheap no-ops).
    pub fn disarm(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            if let Some(hint) = self.armed_hint.get() {
                hint.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Invoke the callback if armed, consuming the arm; returns whether it
    /// did (`false` = coalesced into a notification already on its way).
    /// Called by producers after the state change the owner waits on. The
    /// flag is swapped unconditionally, never peeked first: it is this
    /// read-modify-write that orders an unarmed `fire` before the owner's
    /// next `arm`.
    pub fn fire(&self) -> bool {
        let armed = self.armed.swap(false, Ordering::SeqCst);
        if armed {
            if let Some(hint) = self.armed_hint.get() {
                hint.fetch_sub(1, Ordering::SeqCst);
            }
            (self.notify)();
        }
        armed
    }

    /// Is the waker currently armed?
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

impl Drop for EdgeWaker {
    fn drop(&mut self) {
        // An owner can die while armed (a runtime dropped mid-stall):
        // return the arm so the subscriber-side armed count stays exact.
        self.disarm();
    }
}

impl std::fmt::Debug for EdgeWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeWaker").field("armed", &self.is_armed()).finish()
    }
}

/// A sink for budget traffic: every grant, denial and release flowing
/// through an [`ObservedHook`] is reported here, with its byte size. The
/// observability layer implements this with plain counters; tests with
/// whatever they want to assert. Implementations must be thread-safe and
/// cheap — calls happen on the engine's charge path.
pub trait BudgetObserver: Send + Sync {
    /// `bytes` were granted by the inner hook.
    fn granted(&self, bytes: usize);
    /// A charge of `bytes` was denied.
    fn denied(&self, bytes: usize);
    /// `bytes` were released back to the pool.
    fn released(&self, bytes: usize);
}

/// A [`BudgetHook`] wrapper that forwards everything to an inner hook while
/// reporting grants/denials/releases to a [`BudgetObserver`] — the seam the
/// metrics layer uses to watch an [`AdmissionController`-style] pool without
/// the pool knowing about metrics.
///
/// All five hook methods forward (see [`BudgetHook::subscribe_waker`] on why
/// wrappers must), so pause/wake semantics are unchanged.
///
/// [`AdmissionController`-style]: BudgetHook
pub struct ObservedHook {
    inner: Arc<dyn BudgetHook>,
    obs: Arc<dyn BudgetObserver>,
}

impl ObservedHook {
    /// Wrap `inner`, reporting its traffic to `obs`.
    pub fn new(inner: Arc<dyn BudgetHook>, obs: Arc<dyn BudgetObserver>) -> Arc<ObservedHook> {
        Arc::new(ObservedHook { inner, obs })
    }
}

impl BudgetHook for ObservedHook {
    fn try_grow(&self, bytes: usize) -> bool {
        let ok = self.inner.try_grow(bytes);
        if ok {
            self.obs.granted(bytes);
        } else {
            self.obs.denied(bytes);
        }
        ok
    }

    fn release(&self, bytes: usize) {
        self.obs.released(bytes);
        self.inner.release(bytes);
    }

    fn should_pause(&self) -> bool {
        self.inner.should_pause()
    }

    fn subscribe_waker(&self, waker: &Arc<BudgetWaker>) {
        self.inner.subscribe_waker(waker);
    }
}

/// One run's view of the accounting: the per-run limit from
/// [`EngineOptions`](crate::EngineOptions), the optional shared hook, and
/// how much this run has charged to the hook so far (released on drop, so
/// aborted and dropped runs can never leak shared budget).
pub(crate) struct Budget {
    limit: Option<usize>,
    hook: Option<Arc<dyn BudgetHook>>,
    charged: usize,
}

impl Budget {
    pub(crate) fn new(limit: Option<usize>, hook: Option<Arc<dyn BudgetHook>>) -> Budget {
        Budget { limit, hook, charged: 0 }
    }

    /// Check `used` against the per-run limit, then charge `grew` to the
    /// shared hook. Call *after* adding `grew` to the run's counter.
    pub(crate) fn check(&mut self, used: usize, grew: usize) -> Result<(), crate::EngineError> {
        if let Some(limit) = self.limit {
            if used > limit {
                return Err(crate::EngineError::BufferLimit { used, limit });
            }
        }
        if let Some(hook) = &self.hook {
            if !hook.try_grow(grew) {
                return Err(crate::EngineError::BudgetDenied { requested: grew });
            }
            self.charged += grew;
        }
        Ok(())
    }

    /// Bytes this run currently has charged to the shared hook (0 without
    /// one). The admission-gate measure: a run with outstanding charges
    /// must keep draining, because its progress is what releases them.
    pub(crate) fn charged(&self) -> usize {
        self.charged
    }

    /// Rebuild a budget from a snapshot: re-grant exactly the `charged`
    /// bytes the saved run held through the (new) hook, so the aggregate
    /// accounting stays balanced across suspend/restore — a spilled
    /// session's drop released its charges, and restoring re-acquires them.
    /// If the hook refuses the re-grant (the pool has since filled), the
    /// restore is refused with [`flux_state::StateError::BudgetDenied`];
    /// nothing is charged and the caller can retry when headroom returns.
    ///
    /// With `pre_granted` the caller has already reserved the full charge
    /// through the hook (the runtime does this before tearing the old
    /// session down, so a migrate/unspill can never lose a race for
    /// headroom); the budget adopts the reservation instead of growing.
    pub(crate) fn resume(
        limit: Option<usize>,
        hook: Option<Arc<dyn BudgetHook>>,
        charged: usize,
        pre_granted: bool,
    ) -> Result<Budget, flux_state::StateError> {
        if let Some(hook) = &hook {
            if charged > 0 && !pre_granted && !hook.try_grow(charged) {
                return Err(flux_state::StateError::BudgetDenied { requested: charged });
            }
        }
        let charged = if hook.is_some() { charged } else { 0 };
        Ok(Budget { limit, hook, charged })
    }

    /// Return `bytes` to the shared hook (no-op without one).
    pub(crate) fn release(&mut self, bytes: usize) {
        if let Some(hook) = &self.hook {
            let n = bytes.min(self.charged);
            if n > 0 {
                self.charged -= n;
                hook.release(n);
            }
        }
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        // Whatever the run still held — a failed run's captures, an aborted
        // session's buffers, a Top::Simple tree — goes back to the pool.
        if let Some(hook) = &self.hook {
            if self.charged > 0 {
                hook.release(self.charged);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter {
        used: AtomicUsize,
        cap: usize,
    }

    impl BudgetHook for Counter {
        fn try_grow(&self, bytes: usize) -> bool {
            let mut cur = self.used.load(Ordering::Relaxed);
            loop {
                if cur + bytes > self.cap {
                    return false;
                }
                match self.used.compare_exchange_weak(
                    cur,
                    cur + bytes,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return true,
                    Err(c) => cur = c,
                }
            }
        }
        fn release(&self, bytes: usize) {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    #[test]
    fn drop_releases_outstanding_charges() {
        let hook = Arc::new(Counter { used: AtomicUsize::new(0), cap: 100 });
        {
            let mut b = Budget::new(None, Some(hook.clone()));
            b.check(30, 30).unwrap();
            b.check(50, 20).unwrap();
            assert_eq!(hook.used.load(Ordering::Relaxed), 50);
            b.release(10);
            assert_eq!(hook.used.load(Ordering::Relaxed), 40);
        }
        assert_eq!(hook.used.load(Ordering::Relaxed), 0, "drop releases the rest");
    }

    #[test]
    fn denial_is_reported_and_not_charged() {
        let hook = Arc::new(Counter { used: AtomicUsize::new(0), cap: 10 });
        let mut b = Budget::new(None, Some(hook.clone()));
        assert!(matches!(b.check(11, 11), Err(crate::EngineError::BudgetDenied { requested: 11 })));
        assert_eq!(hook.used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn waker_fires_once_per_arm_and_tracks_the_hint() {
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        let w = BudgetWaker::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let hint = Arc::new(AtomicUsize::new(0));
        w.bind_armed_hint(hint.clone());

        assert!(!w.fire(), "unarmed: nothing happens");
        assert_eq!(fired.load(Ordering::SeqCst), 0);

        w.arm();
        w.arm(); // idempotent: the hint counts armed wakers, not arm calls
        assert_eq!(hint.load(Ordering::SeqCst), 1);
        assert!(w.is_armed());
        assert!(w.fire());
        assert!(!w.fire(), "edge-triggered: the arm was consumed");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(hint.load(Ordering::SeqCst), 0);

        w.arm();
        w.disarm();
        w.fire();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "disarm cancels the pending arm");
        assert_eq!(hint.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn observed_hook_reports_grants_denials_releases_and_forwards() {
        #[derive(Default)]
        struct Tally {
            granted: AtomicUsize,
            denied: AtomicUsize,
            released: AtomicUsize,
        }
        impl BudgetObserver for Tally {
            fn granted(&self, bytes: usize) {
                self.granted.fetch_add(bytes, Ordering::Relaxed);
            }
            fn denied(&self, bytes: usize) {
                self.denied.fetch_add(bytes, Ordering::Relaxed);
            }
            fn released(&self, bytes: usize) {
                self.released.fetch_add(bytes, Ordering::Relaxed);
            }
        }

        let pool = Arc::new(Counter { used: AtomicUsize::new(0), cap: 100 });
        let tally = Arc::new(Tally::default());
        let hook = ObservedHook::new(pool.clone(), tally.clone());

        assert!(hook.try_grow(60));
        assert!(!hook.try_grow(50), "denied by the inner pool");
        hook.release(25);
        assert_eq!(tally.granted.load(Ordering::Relaxed), 60);
        assert_eq!(tally.denied.load(Ordering::Relaxed), 50);
        assert_eq!(tally.released.load(Ordering::Relaxed), 25);
        assert_eq!(pool.used.load(Ordering::Relaxed), 35, "inner accounting unchanged");
        assert!(!hook.should_pause(), "forwards the inner default");
    }

    #[test]
    fn per_run_limit_checked_before_the_hook() {
        let hook = Arc::new(Counter { used: AtomicUsize::new(0), cap: 1000 });
        let mut b = Budget::new(Some(8), Some(hook.clone()));
        assert!(matches!(b.check(9, 9), Err(crate::EngineError::BufferLimit { .. })));
        assert_eq!(hook.used.load(Ordering::Relaxed), 0, "denied runs charge nothing");
    }
}
