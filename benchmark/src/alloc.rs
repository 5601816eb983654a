//! The benchmark binary's counting allocator: peak live heap above a
//! baseline, during one dedicated untimed pass.
//!
//! While counting is off (every timed pass) the allocator forwards straight
//! to the system allocator after one relaxed load. While it is on, every
//! allocation adds to — and every free subtracts from — a signed byte delta
//! relative to the moment counting started, and the high-water mark of that
//! delta is the pass's `heap_peak_bytes`. Freeing a block that predates the
//! baseline takes the delta below zero, which is what "above the post-setup
//! baseline" means. This sees all heap memory, including what bypasses the
//! engine's `BudgetHook` ledger.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static DELTA: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn note(change: i64) {
    if ON.load(Ordering::Relaxed) {
        let now = DELTA.fetch_add(change, Ordering::Relaxed) + change;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `pass` with counting on; returns its result and the peak number of
/// bytes the heap stood above where it was when `pass` began. Counts every
/// thread of the process, so the caller keeps other threads quiet.
pub fn peak_during<T>(pass: impl FnOnce() -> T) -> (T, u64) {
    DELTA.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = pass();
    ON.store(false, Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed).max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_high_water_mark_above_the_baseline() {
        // The test binary installs `Counting` too (see `main.rs`).
        let held = vec![0u8; 1 << 20]; // predates the baseline
        let ((), peak) = peak_during(|| {
            let a = vec![1u8; 3 << 20];
            std::hint::black_box(&a);
            drop(a);
            let b = vec![2u8; 1 << 20];
            std::hint::black_box(&b);
        });
        drop(held);
        // Other test threads may allocate concurrently; the 3 MiB block
        // dominates either way.
        assert!(peak >= 3 << 20, "{peak}");
        assert!(peak < 5 << 20, "{peak}");
    }
}
