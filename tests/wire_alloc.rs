//! The wire codec's reused-buffer paths allocate nothing in steady
//! state: once `encode_into` and `decode_fetch_into` have grown their
//! scratch buffers, every further frame reuses them.
//!
//! This file is its own test binary with a single test because it
//! installs a process-wide counting allocator: any other test running
//! beside it would allocate into the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fgcache::net::{decode_fetch_into, Message};
use fgcache::types::FileId;

/// Counts every allocation and reallocation, then defers to [`System`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract passes straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`, and the caller's contract on
        // `layout` and `new_size` passes straight through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_wire_scratch_buffers_never_allocate() {
    let fetch = Message::Fetch {
        request_id: 42,
        files: (0..5).map(FileId).collect(),
    };
    let mut frame = Vec::new();
    let mut files: Vec<FileId> = Vec::new();
    // Warm: the first calls grow the scratch buffers to steady capacity.
    fetch.encode_into(&mut frame);
    decode_fetch_into(&frame[4..], &mut files)
        .expect("well-formed")
        .expect("a fetch frame");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        fetch.encode_into(&mut frame);
        decode_fetch_into(&frame[4..], &mut files)
            .expect("well-formed")
            .expect("a fetch frame");
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "wire encode/decode must be allocation-free on warm scratch buffers"
    );
    assert_eq!(files, (0..5).map(FileId).collect::<Vec<_>>());
}
