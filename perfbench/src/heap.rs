//! A counting global allocator: the bytes of heap currently live.
//!
//! The allocation pattern of one seed is deterministic, so its live heap
//! is too — unlike the process RSS, which also counts allocator retention
//! and page-level effects of the machine. The epoch loop runs on one
//! thread, so the counter uses relaxed loads and stores rather than
//! read-modify-write instructions: a concurrent allocation on another
//! thread could lose an update, which only skews a statistic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.load(Ordering::Relaxed);
    LIVE.store(live.saturating_add(bytes), Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    let live = LIVE.load(Ordering::Relaxed);
    LIVE.store(live.saturating_sub(bytes), Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters besides, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as this method's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as this method's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this method's.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as this method's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Heap bytes live now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}
