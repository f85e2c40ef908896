//! The two properties branch-and-bound's single [`LpWorkspace`] rests on.
//!
//! 1. *reset ≡ new*: a workspace that has already solved any number of LPs
//!    answers the next one exactly as a freshly built workspace would —
//!    outcome, objective bits, value bits, iteration count and the returned
//!    basis. No state leaks from one solve into the next, which is why
//!    reusing one workspace per search cannot move a pivot.
//! 2. *allocation budget*: after its first solve, a warm re-solve allocates
//!    only what it returns, building one allocates a fixed number of
//!    buffers whatever the model's size, and inside branch-and-bound only a
//!    node that branches snapshots its basis. A counting allocator,
//!    installed for this test binary alone, pins all three.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{bound_set, Rng};
use threesigma_milp::{
    Basis, BranchAndBound, LpOutcome, LpSolution, LpWorkspace, Model, SolverConfig,
};

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

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// A named model with its variables' own bounds.
type Case = (String, Model, Vec<(f64, f64)>);

/// Every checked-in fixture (bounds read from the text form: `Model` does
/// not expose them).
fn cases() -> Vec<Case> {
    common::fixtures()
        .into_iter()
        .map(|(name, model)| {
            let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("f64 hex"));
            let bounds: Vec<(f64, f64)> = model
                .to_text()
                .lines()
                .filter(|l| l.starts_with("b ") || l.starts_with("c "))
                .map(|l| {
                    let mut f = l.split(' ').skip(1);
                    (hex(f.next().unwrap()), hex(f.next().unwrap()))
                })
                .collect();
            assert_eq!(bounds.len(), model.num_vars(), "{name}");
            (name, model, bounds)
        })
        .collect()
}

/// A small LP with continuous columns and `≥`/`=` rows, so the composite
/// phase 1 and unbounded-above columns are driven too (the fixtures are
/// all-binary `≤` models).
fn mixed_model() -> Case {
    use threesigma_milp::Cmp;
    let mut m = Model::new();
    let mut bounds = Vec::new();
    let mut vars = Vec::new();
    for k in 0..6 {
        vars.push(m.add_binary(1.0 + k as f64));
        bounds.push((0.0, 1.0));
    }
    for k in 0..4 {
        let hi = if k % 2 == 0 { 3.0 } else { f64::INFINITY };
        vars.push(m.add_continuous(0.0, hi, 0.5 - k as f64 * 0.25));
        bounds.push((0.0, hi));
    }
    m.add_constraint(
        &[
            (vars[0], 2.0),
            (vars[1], 3.0),
            (vars[2], 1.5),
            (vars[6], 1.0),
        ],
        Cmp::Le,
        4.0,
    );
    m.add_constraint(
        &[(vars[3], 1.0), (vars[4], 1.0), (vars[5], 1.0)],
        Cmp::Le,
        2.0,
    );
    m.add_constraint(
        &[(vars[6], 1.0), (vars[7], 1.0), (vars[0], -1.0)],
        Cmp::Ge,
        0.5,
    );
    m.add_constraint(
        &[(vars[8], 1.0), (vars[9], -1.0), (vars[3], 2.0)],
        Cmp::Eq,
        1.0,
    );
    m.add_constraint(&[(vars[7], 1.0), (vars[9], 1.0)], Cmp::Le, 6.0);
    ("mixed".to_string(), m, bounds)
}

fn assert_same(name: &str, step: usize, a: &(LpSolution, Basis), b: &(LpSolution, Basis)) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.0.outcome, b.0.outcome, "{name} step {step}");
    assert_eq!(
        a.0.objective.to_bits(),
        b.0.objective.to_bits(),
        "{name} step {step}"
    );
    assert_eq!(bits(&a.0.values), bits(&b.0.values), "{name} step {step}");
    assert_eq!(a.0.iterations, b.0.iterations, "{name} step {step}");
    assert_eq!(a.1, b.1, "{name} step {step}: returned basis");
}

#[test]
fn a_reused_workspace_answers_exactly_as_a_fresh_one() {
    const STEPS: usize = 240;
    let mut cases = cases();
    cases.push(mixed_model());
    let mut outcomes = [0usize; 4];
    for (index, (name, model, own)) in cases.iter().enumerate() {
        let binaries: Vec<usize> = model.binary_vars().iter().map(|v| v.index()).collect();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (index as u64 + 1).wrapping_mul(0xff51_afd7));
        let mut reused = LpWorkspace::new(model);
        // Bases returned by earlier solves, handed back as warm starts.
        let mut pool: Vec<Basis> = Vec::new();
        for step in 0..STEPS {
            let bounds = bound_set(&mut rng, own, &binaries);
            let warm = if !pool.is_empty() && rng.below(2) == 0 {
                Some(&pool[rng.below(pool.len())])
            } else {
                None
            };
            let got = reused.solve(bounds.as_deref(), warm);
            let want = LpWorkspace::new(model).solve(bounds.as_deref(), warm);
            assert_same(name, step, &got, &want);
            outcomes[match got.0.outcome {
                LpOutcome::Optimal => 0,
                LpOutcome::Infeasible => 1,
                LpOutcome::Unbounded => 2,
                LpOutcome::IterationLimit => 3,
            }] += 1;
            if pool.len() < 16 {
                pool.push(got.1);
            } else {
                let slot = rng.below(pool.len());
                pool[slot] = got.1;
            }
        }
    }
    // The sequence must really have mixed solvable and unsolvable LPs.
    assert!(outcomes[0] > 1_000, "optimal solves: {}", outcomes[0]);
    assert!(outcomes[1] > 1_000, "infeasible solves: {}", outcomes[1]);
}

/// Allocations one warm node re-solve may make: the returned
/// `LpSolution::values` and the two vectors of the returned `Basis`.
const NODE_SOLVE_ALLOCATIONS: usize = 3;

#[test]
fn a_warm_node_resolve_allocates_only_what_it_returns() {
    let mut checked = 0usize;
    for (name, model, own) in cases() {
        let mut ws = LpWorkspace::new(&model);
        let (root, root_basis) = ws.solve(Some(&own), None);
        assert_eq!(root.outcome, LpOutcome::Optimal, "{name}");
        // Branch as the search would: fix the most fractional column to 0.
        let Some((j, _)) = root
            .values
            .iter()
            .map(|v| (v - v.round()).abs())
            .enumerate()
            .filter(|(_, d)| *d > 1e-6)
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue; // integral root: nothing to branch on
        };
        let mut node = own.clone();
        node[j] = (0.0, 0.0);

        let mut counts = Vec::new();
        for _ in 0..3 {
            let before = allocations();
            let (lp, basis) = ws.solve(Some(&node), Some(&root_basis));
            let spent = allocations() - before;
            assert_eq!(lp.outcome, LpOutcome::Optimal, "{name}");
            assert!(lp.iterations > 0, "{name}: the child LP must pivot");
            drop((lp, basis));
            counts.push(spent);
        }
        assert!(
            counts[0] <= NODE_SOLVE_ALLOCATIONS,
            "{name}: a warm node re-solve made {} allocations",
            counts[0]
        );
        assert!(
            counts.iter().all(|c| *c == counts[0]),
            "{name}: allocation count does not repeat: {counts:?}"
        );
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} fixtures branch at the root");
}

#[test]
fn building_a_workspace_allocates_a_fixed_number_of_times() {
    // Every fixture has rows and columns, so every buffer is non-empty; the
    // count must not grow with n + m (one allocation per column would).
    let counts: Vec<(String, usize, usize)> = cases()
        .into_iter()
        .map(|(name, model, _)| {
            let before = allocations();
            let ws = LpWorkspace::new(&model);
            let spent = allocations() - before;
            drop(ws);
            (name, model.num_vars() + model.num_constraints(), spent)
        })
        .collect();
    let sizes: Vec<usize> = counts.iter().map(|c| c.1).collect();
    assert!(
        sizes.iter().max() > sizes.iter().min(),
        "fixtures of one size cannot show growth"
    );
    assert!(
        counts.iter().all(|c| c.2 == counts[0].2),
        "allocations per LpWorkspace::new (name, n + m, count): {counts:?}"
    );
}

/// Most allocations a branch-and-bound node that does not branch may make:
/// its LP values, and — as the first of two siblings to be expanded — the
/// copy of the shared inverse it leaves the other. A basis snapshot would
/// add two more (its two vectors).
const LEAF_NODE_ALLOCATIONS: usize = 2;

/// Fewest allocations a node that branches makes: its values (1), the basis
/// its children share (two vectors and the shared handle: 3), and its
/// children (the list, and each child's changes and their handle: 5).
const BRANCH_NODE_ALLOCATIONS: usize = 9;

#[test]
fn only_branching_nodes_snapshot_their_basis() {
    // The search is deterministic, so a solve capped at `k` nodes repeats
    // the one capped at `k − 1` and then expands node `k`: the difference in
    // allocations is node `k`'s own.
    let config = |node_limit| SolverConfig {
        node_limit,
        gap_tolerance: 1e-4,
        ..SolverConfig::default()
    };
    let (mut checked, mut leaves, mut branchings) = (0usize, 0usize, 0usize);
    for (name, model, _) in cases() {
        let warm = vec![0.0; model.num_vars()];
        let full =
            BranchAndBound::with_config(config(40)).solve_with_warm_start(&model, Some(&warm));
        if full.nodes < 8 {
            continue; // too little search to be worth replaying
        }
        let spent = |k| {
            let before = allocations();
            let sol =
                BranchAndBound::with_config(config(k)).solve_with_warm_start(&model, Some(&warm));
            let spent = allocations() - before;
            assert_eq!(sol.nodes, k, "{name}");
            drop(sol);
            spent
        };
        let mut previous = spent(0);
        for k in 1..=full.nodes {
            let total = spent(k);
            let node = total - previous;
            previous = total;
            assert!(
                node <= LEAF_NODE_ALLOCATIONS || node >= BRANCH_NODE_ALLOCATIONS,
                "{name}: node {k} made {node} allocations: a node that does not \
                 branch must not snapshot its basis"
            );
            if node <= LEAF_NODE_ALLOCATIONS {
                leaves += 1;
            } else {
                branchings += 1;
            }
        }
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} fixtures search");
    assert!(
        leaves > 0,
        "no node among the first 40 of any fixture was a leaf"
    );
    assert!(branchings > 0, "no node branched");
}
