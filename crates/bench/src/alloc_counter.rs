//! A counting global allocator, for pinning "this loop does not allocate"
//! claims as tests instead of comments.
//!
//! Enabled by the `alloc-counter` feature. A test binary opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: vg_bench::alloc_counter::CountingAllocator =
//!     vg_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! and then brackets the section under scrutiny with [`snapshot`] /
//! [`Snapshot::delta`]. Counting is process-global and thread-safe; tests
//! that measure must run single-threaded (`--test-threads=1` or a dedicated
//! integration-test binary with one test) so concurrent tests cannot
//! pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` wrapper around [`System`] that counts calls.
pub struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// full `GlobalAlloc` contract (alignment, provenance, non-aliasing); the
// added counter updates are lock-free atomics with no allocation of their
// own, so they cannot reenter the allocator or unwind across it.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, who per
        // the `GlobalAlloc` contract guarantees it has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` are forwarded unchanged; our caller
        // guarantees `ptr` came from this allocator (which always handed
        // out `System` blocks) with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: arguments forwarded unchanged; our caller guarantees
        // `ptr` is a live `System` block of `layout`, and that `new_size`
        // is non-zero and does not overflow when rounded up to the layout's
        // alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` calls so far.
    pub allocs: u64,
    /// `dealloc` calls so far.
    pub deallocs: u64,
    /// `realloc` calls so far.
    pub reallocs: u64,
    /// Bytes requested so far (alloc + realloc).
    pub bytes: u64,
}

impl Snapshot {
    /// Counter deltas since `earlier`.
    #[must_use]
    pub fn delta(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            deallocs: self.deallocs - earlier.deallocs,
            reallocs: self.reallocs - earlier.reallocs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// True when no allocator activity happened in the delta.
    #[must_use]
    // tidy:allow(dead_pub): the zero-allocation gate, tests/zero_alloc.rs, asserts each measured window is quiet
    pub fn is_quiet(self) -> bool {
        self.allocs == 0 && self.reallocs == 0
    }
}

/// Reads the current counters.
#[must_use]
// tidy:allow(dead_pub): the zero-allocation gate, tests/zero_alloc.rs, reads the counters around each measured window
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        reallocs: REALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}
