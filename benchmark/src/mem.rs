//! Heap accounting: a counting wrapper around the system allocator.
//!
//! Resident-set readings from `/proc/self/status` moved by ±25 KiB between
//! identical runs here (page-cache fault-around, ASLR page alignment) on a
//! system under test that holds under 1 MiB — 3% noise against a 5% bound.
//! Bytes requested from the allocator are exact and repeat to the byte, so
//! memory is reported as the peak of live heap bytes instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

// Relaxed throughout: the counters publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Heap bytes live right now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Starts a new peak measurement at the current live size.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_sees_a_freed_allocation() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let before = live();
        reset_peak();
        let v = vec![1u8; 1 << 20];
        assert!(live() >= before + (1 << 20) || live() >= 1 << 20);
        std::hint::black_box(&v);
        drop(v);
        assert!(peak() >= 1 << 20, "the dropped MiB is still in the peak");
    }
}
