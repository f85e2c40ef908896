//! The row-CSR [`Model`] keeps the semantics of the row-per-`Vec` builder
//! it replaced, and its buffers do not grow the allocation count.
//!
//! 1. *builder ≡ reference*: over random term lists — duplicates, exact
//!    zeros of either sign, pre-sorted and reverse-sorted — every row the
//!    CSR builder appends is bit-equal to the row the old builder made
//!    (kept below as [`reference_row`]).
//! 2. *clear ≡ fresh*: a model cleared and rebuilt serialises exactly as a
//!    freshly built one.
//! 3. *raw rows*: `from_text → to_text` round-trips every fixture, and rows
//!    written unsorted, with duplicates and zeros, byte for byte.
//! 4. *allocation budget*: [`Presolve::run`] — a no-op pass and a reducing
//!    one — allocates as often whatever the number of nonzeros. A counting
//!    allocator, installed for this test binary alone, pins it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use threesigma_milp::{Cmp, Model, Presolve, VarId};

thread_local! {
    /// Allocations made by the current thread (tests run on threads of their
    /// own). Const-initialised and without a destructor, so reading it from
    /// inside the allocator neither allocates nor touches freed storage.
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
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The row-per-`Vec` builder's normal form, as `add_constraint` computed it
/// before rows moved into one buffer: sort by column, sum duplicates in
/// order, drop exact zeros.
fn reference_row(terms: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut sparse = terms.to_vec();
    sparse.sort_unstable_by_key(|(i, _)| *i);
    let mut merged: Vec<(usize, f64)> = Vec::with_capacity(sparse.len());
    for (i, c) in sparse {
        match merged.last_mut() {
            Some((j, acc)) if *j == i => *acc += c,
            _ => merged.push((i, c)),
        }
    }
    merged.retain(|(_, c)| *c != 0.0);
    merged
}

/// A row as the text form spells it: sense, rhs bits, `(column, bits)`.
type TextRow = (String, u64, Vec<(usize, u64)>);

/// `model`'s rows, read back from its bit-exact text form.
fn rows(model: &Model) -> Vec<TextRow> {
    let hex = |s: &str| u64::from_str_radix(s, 16).expect("f64 hex");
    let text = model.to_text();
    let mut lines = text.lines().skip_while(|l| !l.starts_with("rows "));
    let n: usize = lines.next().expect("rows line")[5..]
        .parse()
        .expect("row count");
    lines
        .take(n)
        .map(|line| {
            let mut parts = line.split(' ');
            let cmp = parts.next().expect("cmp").to_string();
            let rhs = hex(parts.next().expect("rhs"));
            let terms = parts
                .skip(1)
                .map(|t| {
                    let (j, c) = t.split_once(':').expect("term");
                    (j.parse().expect("column"), hex(c))
                })
                .collect();
            (cmp, rhs, terms)
        })
        .collect()
}

fn bits(row: &[(usize, f64)]) -> Vec<(usize, u64)> {
    row.iter().map(|(j, c)| (*j, c.to_bits())).collect()
}

/// Coefficients the sampled terms draw from: exact zeros of both signs,
/// values whose sums cancel to zero, and ones whose sums round.
const COEFFS: [f64; 10] = [0.0, -0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 2.5e-7, 1e300, -1e300];

proptest! {
    #[test]
    fn csr_rows_match_the_vec_per_row_builder_bit_for_bit(
        n_vars in 1usize..10,
        row_lens in prop::collection::vec(0usize..12, 1..8),
        cols in prop::collection::vec(0usize..10, 96),
        coeffs in prop::collection::vec(0usize..10, 96),
        orders in prop::collection::vec(0u8..3, 8),
    ) {
        let mut model = Model::new();
        let vars: Vec<VarId> = (0..n_vars).map(|_| model.add_binary(1.0)).collect();
        let mut want = Vec::new();
        let mut at = 0;
        for (r, &len) in row_lens.iter().enumerate() {
            let mut terms: Vec<(usize, f64)> = (at..at + len)
                .map(|k| (cols[k] % n_vars, COEFFS[coeffs[k]]))
                .collect();
            at += len;
            match orders[r] {
                0 => {}
                1 => terms.sort_by_key(|(j, _)| *j),
                _ => terms.sort_by_key(|(j, _)| std::cmp::Reverse(*j)),
            }
            let typed: Vec<(VarId, f64)> = terms.iter().map(|(j, c)| (vars[*j], *c)).collect();
            let index = model.add_constraint(&typed, Cmp::Le, r as f64);
            prop_assert_eq!(index, r);
            want.push(bits(&reference_row(&terms)));
        }
        let got: Vec<Vec<(usize, u64)>> = rows(&model).into_iter().map(|r| r.2).collect();
        prop_assert_eq!(got, want);
    }
}

/// A small scheduler-shaped model: `jobs` jobs of `options` binaries with a
/// demand row and SOS1 group each, `running` continuous columns, and one
/// capacity row per `width`-wide window of options (terms in reverse, so
/// the builder sorts them) plus every running column. A better option
/// always uses more capacity, so none dominates another.
fn scheduler_model(model: &mut Model, jobs: usize, options: usize, running: usize, width: usize) {
    let mut opts = Vec::new();
    for j in 0..jobs {
        let vars: Vec<VarId> = (0..options)
            .map(|o| model.add_binary(10.0 - (j + o) as f64 * 0.5))
            .collect();
        let demand: Vec<(VarId, f64)> = vars.iter().map(|v| (*v, 1.0)).collect();
        model.add_constraint(&demand, Cmp::Le, 1.0);
        model.add_sos1(&vars);
        opts.extend(vars);
    }
    let held: Vec<VarId> = (0..running)
        .map(|r| model.add_continuous(0.0, 1.0, -1.5 - r as f64))
        .collect();
    for (r, window) in opts.windows(width).step_by(width).enumerate() {
        let mut terms: Vec<(VarId, f64)> = (window.iter().rev())
            .map(|v| (*v, model.objective_coeff(*v)))
            .collect();
        terms.extend(held.iter().map(|v| (*v, -0.25)));
        model.add_constraint(&terms, Cmp::Le, 4.0 + r as f64);
    }
}

#[test]
fn a_cleared_model_rebuilds_the_fresh_model() {
    let mut fresh = Model::new();
    scheduler_model(&mut fresh, 4, 3, 5, 2);
    let mut reused = Model::new();
    scheduler_model(&mut reused, 7, 5, 2, 3);
    reused.clear();
    assert_eq!(reused.to_text(), Model::new().to_text());
    scheduler_model(&mut reused, 4, 3, 5, 2);
    assert_eq!(reused.to_text(), fresh.to_text());
}

#[test]
fn raw_rows_round_trip_byte_for_byte() {
    // Every fixture: `common::fixtures` asserts to_text == the file.
    assert!(common::fixtures().len() >= 16);
    // Unsorted, duplicated and zero terms survive as written.
    let text = "milp v1\nvars 3\n\
                b 0000000000000000 3ff0000000000000 3ff0000000000000\n\
                b 0000000000000000 3ff0000000000000 4000000000000000\n\
                c 0000000000000000 4024000000000000 8000000000000000\n\
                rows 2\n\
                le 4010000000000000 4 2:3ff0000000000000 0:0000000000000000 2:bff0000000000000 1:8000000000000000\n\
                ge 0000000000000000 0\n\
                sos1 1\n0 1\nend\n";
    let model = Model::from_text(text).expect("parses");
    assert_eq!(model.to_text(), text);
    assert_eq!(model.num_constraints(), 2);
}

/// Allocations of one [`Presolve::run`] over a scheduler model whose
/// capacity rows are `width` options wide, and whether it reduced.
fn presolve_allocations(width: usize, fix_one: bool) -> (usize, bool) {
    let mut model = Model::new();
    scheduler_model(&mut model, 4, 6, 6, width);
    if fix_one {
        // A collapsed continuous column: substituted and eliminated.
        let fixed = model.add_continuous(2.0, 2.0, 1.0);
        let first = model.binary_vars()[0];
        model.add_constraint(&[(first, 1.0), (fixed, 1.0)], Cmp::Le, 3.5);
    }
    let (reduced, spent) = allocations_of(|| Presolve::run(&model).stats().total() > 0);
    (spent, reduced)
}

#[test]
fn presolve_allocates_the_same_whatever_the_nonzeros() {
    for fix_one in [false, true] {
        let counts: Vec<(usize, usize, bool)> = [1, 2, 3, 6, 12]
            .into_iter()
            .map(|width| {
                let (spent, reduced) = presolve_allocations(width, fix_one);
                (width, spent, reduced)
            })
            .collect();
        assert!(
            counts.iter().all(|c| c.2 == fix_one),
            "reducing {fix_one}: {counts:?}"
        );
        assert!(
            counts.iter().all(|c| c.1 == counts[0].1),
            "allocations per Presolve::run (width, count, reduced): {counts:?}"
        );
    }
}
