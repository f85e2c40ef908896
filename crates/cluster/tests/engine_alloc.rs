//! A batch run borrows its trace: `Engine::run` holds each job's spec by
//! reference, so ingesting a job costs no copy of its attributes. A
//! counting allocator, installed for this test binary alone, pins that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use threesigma_cluster::{
    Attributes, ClusterSpec, Engine, EngineConfig, JobKind, JobSpec, Scheduler, SchedulingDecision,
    SimulationView,
};

/// Length of every attribute key and value in the trace below; no other
/// allocation of the run has this size.
const ATTR_LEN: usize = 37;

thread_local! {
    /// Allocations made by the current thread (tests run on threads of their
    /// own). Const-initialised and without a destructor, so reading it from
    /// inside the allocator neither allocates nor touches freed storage.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Of those, allocations of exactly `ATTR_LEN` bytes.
    static ATTR_SIZED: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    if size == ATTR_LEN {
        ATTR_SIZED.with(|c| c.set(c.get() + 1));
    }
}

/// The system allocator, counting every `alloc`/`alloc_zeroed`/`realloc`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one upheld; the only addition is a
// thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Places nothing: the run is ingest, one cycle and the outcome fold.
struct Idle;

impl Scheduler for Idle {
    fn schedule(&mut self, _view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
        SchedulingDecision::noop()
    }
}

/// `n` jobs at t = 0, each with five attribute pairs of `ATTR_LEN` bytes.
fn trace(n: u64) -> Vec<JobSpec> {
    let text = |tag: char, i: u64, k: u64| format!("{tag}{i:018}{k:018}");
    assert_eq!(text('k', n, 4).len(), ATTR_LEN);
    (0..n)
        .map(|i| {
            let attrs = (0..5).fold(Attributes::new(), |a, k| {
                a.with(text('k', i, k), text('v', i, k))
            });
            JobSpec::new(i + 1, 0.0, 1, 60.0, JobKind::BestEffort).with_attributes(attrs)
        })
        .collect()
}

/// Allocations (all, and attribute-sized) made by one batch run of `jobs`.
fn run(jobs: &[JobSpec]) -> (usize, usize) {
    let engine = Engine::new(
        ClusterSpec::uniform(2, 4),
        EngineConfig {
            cycle_interval: 2.0,
            drain: Some(0.0),
            ..EngineConfig::default()
        },
    );
    let before = (ALLOCATIONS.with(Cell::get), ATTR_SIZED.with(Cell::get));
    let metrics = engine.run(jobs, &mut Idle).unwrap();
    let after = (ALLOCATIONS.with(Cell::get), ATTR_SIZED.with(Cell::get));
    assert_eq!(metrics.outcomes.len(), jobs.len());
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_batch_run_borrows_its_specs() {
    let (small, large) = (trace(1_000), trace(2_000));
    let (all_small, attr_small) = run(&small);
    let (all_large, attr_large) = run(&large);
    // Cloning a spec would copy its ten attribute strings.
    assert_eq!((attr_small, attr_large), (0, 0), "attribute strings copied");
    // What is left per job is the amortised growth of the run's own tables.
    let per_job = (all_large - all_small) as f64 / 1_000.0;
    assert!(
        per_job < 1.0,
        "{per_job} allocations per ingested job ({all_small} for 1,000, {all_large} for 2,000)"
    );
}
