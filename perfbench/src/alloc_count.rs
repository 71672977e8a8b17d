//! Heap-allocation counter shared with the binary's global allocator.
//!
//! The counting allocator itself needs `unsafe` and so lives in the
//! binary (`main.rs`); this library only holds the counter it bumps. It
//! counts only while [`enable`] is in force, which the benchmark turns on
//! for the traced run alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// Called by the global allocator on every allocation and reallocation.
pub fn on_alloc() {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

/// Start or stop counting.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
#[must_use]
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}
