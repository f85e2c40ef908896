//! Allocation pin for the predictor's steady state: once a job's feature
//! values are tracked, observing another runtime for them allocates
//! nothing — no key strings, no index entries, no median buffer. A
//! counting allocator, installed for this test binary alone, holds it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use threesigma_predict::{Predictor, PredictorConfig};

thread_local! {
    /// Allocations made by the current thread (tests run on threads of their
    /// own, so one test's count never sees another's). Const-initialised and
    /// without a destructor, so reading it from inside the allocator neither
    /// allocates nor touches freed thread-local storage.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`/`alloc_zeroed`/`realloc`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one upheld; the only addition is a
// thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: as above, for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above, for `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations one call of `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn job(user: &'static str, name: &'static str) -> [(&'static str, &'static str); 4] {
    [
        ("user", user),
        ("job_name", name),
        ("priority", "5"),
        ("tasks", "4"),
    ]
}

/// Without an LRU cap or TTL (the batch configuration) the predictor keeps
/// no recency index, so nothing but a new feature value allocates.
#[test]
fn observing_a_tracked_value_allocates_nothing() {
    for sample_cap in [None, Some(5)] {
        let mut p = Predictor::new(PredictorConfig {
            sample_cap,
            ..PredictorConfig::default()
        });
        let jobs = [job("ana", "etl"), job("bo", "ml"), job("ana", "ml")];
        // Warm up: every feature value tracked, windows full, and more
        // distinct runtimes than the histogram has bins, so inserts merge.
        for i in 0..300 {
            p.observe(&jobs[i % 3], 50.0 + (i * 37 % 211) as f64);
        }
        for i in 0..300 {
            let n = allocations_of(|| p.observe(&jobs[i % 3], 40.0 + (i * 53 % 307) as f64));
            assert_eq!(
                n, 0,
                "observe {i} (sample cap {sample_cap:?}) allocated {n} times"
            );
        }
        // Choosing the expert reads the kept estimates and copies no
        // history; only the multi-key features' join buffer allocates.
        let n = allocations_of(|| assert!(p.choose(&jobs[0]).is_some()));
        assert!(n <= 1, "choose allocated {n} times");
    }
}
