//! A refused registration frees the system it built. Registry entries are
//! leaked into `&'static` for the life of the process, so a registration
//! that fails after the leak would grow memory on every refusal, outside
//! the `--registry-cap` bound. A counting global allocator tracks live
//! heap bytes across many refusals.
//!
//! This binary holds a single test so no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sd_core::CompileBudget;
use sd_server::{ErrorKind, Registry, SystemDesc};

/// Live heap bytes: allocated minus freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged, so its guarantees carry over; the counter update
// does not touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn refused_registrations_do_not_leak() {
    let reg = Registry::new(8, CompileBudget::default(), None);
    // 2·10⁹ states, above the enumeration limit: every registration is
    // refused after the system is built.
    let desc = SystemDesc::Example {
        name: "flag_copy".into(),
        params: vec![1000],
    };
    let refuse = || {
        let err = reg.register(&desc).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid, "{}", err.message);
    };
    // One refusal first, so lazily initialised statics are not counted.
    refuse();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..100 {
        refuse();
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        grown < 64 * 1024,
        "100 refused registrations left {grown} live heap bytes behind"
    );
    assert!(reg.is_empty());
}
