//! Fleet-wide buffer-budget admission control.
//!
//! The paper proves a *per-query* buffer bound; a service hosting many
//! concurrent sessions needs the *aggregate* bounded too. The
//! [`AdmissionController`] is a shared byte budget implementing the
//! engine's [`BudgetHook`]: every retained-byte delta of every plugged-in
//! session (recorder growth, child captures, `Top::Simple`
//! materialization) is charged against one pool, strictly — a charge
//! either fits or is denied, so the recorded aggregate can never exceed
//! the configured budget.
//!
//! Flow control happens a layer up, between events: while headroom is
//! below the controller's *reserve*, sessions pause with
//! [`FeedOutcome::Backpressure`](crate::FeedOutcome) instead of growing
//! further, and resume once other sessions release buffers (scope exits,
//! finishes, aborts, drops). The reserve is the controller's safety
//! margin: it should comfortably exceed the largest single-event growth a
//! workload can see (roughly the largest text node times the number of
//! buffers observing it), because an event that outgrows the remaining
//! headroom *after* the pause check is denied outright and fails its
//! session with [`flux_engine::EngineError::BudgetDenied`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use flux_engine::{BudgetHook, BudgetWaker};

/// A shared byte budget across any number of sessions, shards and worker
/// threads. Cheap to clone (an `Arc` bump); plug it into a
/// [`Shard`](crate::Shard) with [`Shard::with_budget`](crate::Shard) or a
/// [`Runtime`](crate::Runtime) with
/// [`RuntimeBuilder::admission`](crate::RuntimeBuilder::admission).
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<Inner>,
}

struct Inner {
    budget: usize,
    reserve: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    /// Release-edge subscribers ([`BudgetHook::subscribe_waker`]): workers
    /// sleeping on a tight pool. Held weakly so a dropped runtime's wakers
    /// unsubscribe themselves — dead entries are pruned on every
    /// subscription and on every armed release edge. The `armed` count is
    /// the release hot path's fast exit — one relaxed load while nobody
    /// waits ([`BudgetWaker`]'s drop returns any pending arm, so the count
    /// stays exact across runtime teardown).
    wakers: Mutex<Vec<std::sync::Weak<BudgetWaker>>>,
    armed: Arc<AtomicUsize>,
}

impl BudgetHook for Inner {
    fn try_grow(&self, bytes: usize) -> bool {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_add(bytes) else { return false };
            if next > self.budget {
                return false;
            }
            match self.used.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(observed) => cur = observed,
            }
        }
    }

    fn release(&self, bytes: usize) {
        // SeqCst pairs with the SeqCst arm in `BudgetWaker::arm`: either
        // this release observes the waker armed, or the arming worker's
        // subsequent `should_pause` observes the subtracted `used` — a
        // wakeup can be spurious but never lost.
        let prev = self.used.fetch_sub(bytes, Ordering::SeqCst);
        debug_assert!(prev >= bytes, "admission accounting underflow");
        if self.armed.load(Ordering::SeqCst) > 0 && !self.should_pause() {
            // Release edge with sleepers: the pool just crossed back over
            // the reserve. Fire every live armed waker (each consumes its
            // arm, so an already-woken worker is not poked twice) and drop
            // registrations whose owner died.
            self.wakers.lock().expect("waker registry").retain(|w| match w.upgrade() {
                Some(w) => {
                    w.fire();
                    true
                }
                None => false,
            });
        }
    }

    fn should_pause(&self) -> bool {
        self.budget - self.used.load(Ordering::SeqCst).min(self.budget) < self.reserve
    }

    fn subscribe_waker(&self, waker: &Arc<BudgetWaker>) {
        waker.bind_armed_hint(Arc::clone(&self.armed));
        let mut wakers = self.wakers.lock().expect("waker registry");
        // A controller can outlive many runtimes: prune the registrations
        // of dropped subscribers so the registry tracks live wakers only.
        wakers.retain(|w| w.strong_count() > 0);
        wakers.push(Arc::downgrade(waker));
    }
}

impl AdmissionController {
    /// A controller over `budget` bytes with a default reserve (a quarter
    /// of the budget, capped at 64 KiB).
    pub fn new(budget: usize) -> AdmissionController {
        AdmissionController::with_reserve(budget, (budget / 4).clamp(1, 64 << 10).min(budget))
    }

    /// A controller over `budget` bytes pausing sessions once headroom
    /// drops below `reserve` (clamped to the budget). Size the reserve
    /// above the largest per-event growth of the workload: roughly the
    /// largest text node times the number of buffers observing it.
    pub fn with_reserve(budget: usize, reserve: usize) -> AdmissionController {
        AdmissionController {
            inner: Arc::new(Inner {
                budget,
                reserve: reserve.min(budget),
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                wakers: Mutex::new(Vec::new()),
                armed: Arc::new(AtomicUsize::new(0)),
            }),
        }
    }

    /// The configured aggregate budget in bytes.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// Bytes currently held across all plugged-in sessions.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Remaining headroom under the budget.
    pub fn headroom(&self) -> usize {
        self.inner.budget - self.used().min(self.inner.budget)
    }

    /// High-water mark of [`AdmissionController::used`] over the
    /// controller's lifetime — by construction never above the budget.
    pub fn peak_used(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Would sessions pause before their next event right now?
    pub fn is_tight(&self) -> bool {
        self.inner.should_pause()
    }

    /// The controller as the engine-facing accounting hook (what
    /// [`Shard::with_budget`](crate::Shard) and session constructors take;
    /// also the seam for wrapping — e.g. a counting/logging hook in tests).
    pub fn hook(&self) -> Arc<dyn BudgetHook> {
        self.inner.clone()
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("budget", &self.inner.budget)
            .field("reserve", &self.inner.reserve)
            .field("used", &self.used())
            .field("peak_used", &self.peak_used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_accounting_and_peak() {
        let c = AdmissionController::with_reserve(100, 10);
        let h = c.hook();
        assert!(h.try_grow(60));
        assert!(h.try_grow(40));
        assert!(!h.try_grow(1), "past the budget");
        assert_eq!(c.used(), 100);
        h.release(50);
        assert_eq!(c.used(), 50);
        assert_eq!(c.peak_used(), 100);
        assert!(c.peak_used() <= c.budget());
    }

    #[test]
    fn pause_hint_tracks_the_reserve() {
        let c = AdmissionController::with_reserve(100, 30);
        let h = c.hook();
        assert!(!c.is_tight());
        assert!(h.try_grow(69));
        assert!(!c.is_tight(), "headroom 31 >= reserve 30");
        assert!(h.try_grow(2));
        assert!(c.is_tight(), "headroom 29 < reserve 30");
        h.release(71);
        assert!(!c.is_tight());
    }

    #[test]
    fn release_edges_fire_armed_wakers_exactly_once() {
        let c = AdmissionController::with_reserve(100, 30);
        let h = c.hook();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        let w = BudgetWaker::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        h.subscribe_waker(&w);

        assert!(h.try_grow(80));
        assert!(c.is_tight());
        w.arm();
        h.release(5); // headroom 25: still under the reserve — no edge
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        h.release(10); // headroom 35: the release edge
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        h.release(10); // waker no longer armed: edge-triggered, not level
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // Re-arming catches the next episode.
        h.release(55);
        assert!(h.try_grow(80));
        assert!(c.is_tight());
        w.arm();
        h.release(80);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn dropped_subscribers_unsubscribe_and_return_their_arm() {
        // A controller outlives many runtimes: dying subscribers must not
        // accumulate in the registry or strand the armed count.
        let c = AdmissionController::with_reserve(100, 30);
        let h = c.hook();
        let w1 = BudgetWaker::new(|| {});
        h.subscribe_waker(&w1);
        w1.arm();
        assert_eq!(c.inner.armed.load(Ordering::SeqCst), 1);
        drop(w1); // the runtime died mid-stall
        assert_eq!(c.inner.armed.load(Ordering::SeqCst), 0, "drop returns the arm");

        // The next subscription prunes the dead registration …
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        let w2 = BudgetWaker::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        h.subscribe_waker(&w2);
        assert_eq!(c.inner.wakers.lock().unwrap().len(), 1, "dead waker pruned");

        // … and release edges keep working for the live one.
        assert!(h.try_grow(80));
        w2.arm();
        h.release(80);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unarmed_wakers_never_fire() {
        let c = AdmissionController::with_reserve(100, 30);
        let h = c.hook();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        let w = BudgetWaker::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        h.subscribe_waker(&w);
        assert!(h.try_grow(90));
        h.release(90);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reserve_is_clamped_to_the_budget() {
        let c = AdmissionController::with_reserve(8, 1000);
        assert!(c.is_tight() || c.headroom() == 8);
        // With used == 0, headroom == budget == clamped reserve: not tight.
        assert!(!c.is_tight());
    }
}
