//! Bounded-variable revised simplex on a reusable workspace.
//!
//! Solves the LP relaxations branch-and-bound needs: maximise `c·x` subject
//! to sparse rows and finite-or-infinite variable bounds, with an explicit
//! dense basis inverse.
//!
//! * **Cold solves** are primal: a composite phase 1 (minimise total bound
//!   infeasibility with dynamically recomputed costs) finds a feasible basis
//!   from the all-slack start, phase 2 then optimises the true objective.
//!   Dantzig pricing with a Bland's-rule fallback guards against cycling,
//!   and the inverse is refactorised periodically to bound drift.
//! * **Warm solves** start from a [`Basis`] an earlier solve returned. A
//!   branch-and-bound child differs from its parent in a handful of bounds,
//!   so the parent's optimal basis is still dual feasible and a bounded
//!   dual-simplex loop restores primal feasibility in a few pivots; a capped
//!   primal cleanup follows. Anything but a clean outcome abandons the warm
//!   attempt and redoes the solve cold, so a warm start can change which
//!   optimal vertex is reported, never the solution quality.
//! * **One [`LpWorkspace`] per search.** The column structure (two CSR
//!   arrays, whatever the model's size), costs and right-hand sides of a
//!   model are built once; each LP only resets bounds, resting states, the
//!   basis and the inverse in place, and every intermediate vector (duals,
//!   the entering column, the eta row, phase-1 costs, Gauss-Jordan scratch,
//!   reduced costs, extracted values) lives in the workspace. A reset
//!   workspace is in exactly the state a freshly built one is in, so reuse
//!   cannot move a pivot — `tests/lp_workspace.rs` holds it to that and to
//!   its allocation budget.
//!
//! Scheduling-cycle LPs are small (tens to hundreds of rows) but re-solved
//! at every branch-and-bound node, so the implementation keeps a dense
//! `O(m²)` inverse and skips only work that is provably a no-op: the
//! Gauss-Jordan refactorisation, the eta update, the ratio-test row `ρ·A`
//! and pricing `c − y·A` visit nonzeros only, the latter two row-wise over
//! the model's own row CSR. Skipped terms are all ±0, and every accumulator
//! they would feed starts at +0 or at a cost, so no nonzero bit and no
//! comparison moves (DESIGN.md §9; `simplex/exactness.rs` holds each kernel
//! to its dense counterpart).

// Dense kernel loops index several parallel arrays at once; the indexed
// form is clearer than zipped iterators here.
#![allow(clippy::needless_range_loop)]
use std::cell::RefCell;

use crate::model::{Cmp, Model};

/// Feasibility tolerance on bounds and rows.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost optimality tolerance.
pub(crate) const OPT_TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-9;
/// Pivots between basis-inverse refactorisations.
const REFACTOR_EVERY: usize = 100;
/// Most `f64`s one workspace lets [`SharedBasis`] inverses hold at a time
/// (8 MiB). Past it a sibling recomputes the inverse instead of copying it:
/// slower, never different.
const SHARED_INVERSE_WORDS: usize = 1 << 20;

/// Terminal status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpOutcome {
    /// Optimal within tolerances.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded above.
    Unbounded,
    /// Iteration limit hit before convergence (solution is feasible but may
    /// be suboptimal).
    IterationLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Terminal status.
    pub outcome: LpOutcome,
    /// Objective value of `values` (meaningful unless infeasible).
    pub objective: f64,
    /// One value per model variable (structural columns only).
    pub values: Vec<f64>,
    /// Simplex iterations performed across both phases.
    pub iterations: usize,
}

impl LpSolution {
    fn infeasible(iterations: usize) -> Self {
        Self {
            outcome: LpOutcome::Infeasible,
            objective: f64::NEG_INFINITY,
            values: Vec::new(),
            iterations,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// A snapshot of a simplex basis: which variable occupies each basis row and
/// which bound every nonbasic variable rests on.
///
/// Opaque to callers — obtain one from [`LpWorkspace::solve`] and feed it
/// back to a later solve of a model with the *same* variable and row counts
/// to reoptimise from that vertex (dual simplex first, then primal) instead
/// of restarting from the all-slack basis. An incompatible or singular
/// snapshot is ignored and the solve falls back to a cold start, so reuse is
/// always safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    state: Vec<VarState>,
    basis: Vec<usize>,
}

impl Basis {
    /// True when the snapshot's dimensions match an (n structural, m rows)
    /// tableau — the precondition for installing it.
    pub fn fits(&self, num_vars: usize, num_constraints: usize) -> bool {
        self.state.len() == num_vars + num_constraints && self.basis.len() == num_constraints
    }

    /// True when the snapshot fits and is consistent: every basis row names
    /// a column marked basic for that row, and states and rows agree in
    /// count. Every snapshot a solve returns is.
    fn is_consistent(&self, num_vars: usize, num_constraints: usize) -> bool {
        if !self.fits(num_vars, num_constraints) {
            return false;
        }
        let mut basic_seen = 0usize;
        for (j, s) in self.state.iter().enumerate() {
            if let VarState::Basic(r) = s {
                if *r >= num_constraints || self.basis[*r] != j {
                    return false;
                }
                basic_seen += 1;
            }
        }
        basic_seen == num_constraints
    }
}

/// A parent's optimal basis as its branch-and-bound children share it,
/// together with the inverse the first child to install it computed.
///
/// That inverse is a pure function of the basis and the workspace's columns
/// (Gauss-Jordan from the identity, before any pivot), so the sibling copies
/// it instead of eliminating again and gets the same bits. Only ever hand one
/// to the workspace whose solve produced the basis.
#[derive(Debug)]
pub(crate) struct SharedBasis {
    basis: Basis,
    inverse: RefCell<Option<Vec<f64>>>,
}

impl SharedBasis {
    pub(crate) fn new(basis: Basis) -> Self {
        Self {
            basis,
            inverse: RefCell::new(None),
        }
    }
}

/// A [`SharedBasis`]'s inverse slot, and whether a later solve will want the
/// inverse left in it.
type SharedInverse<'a> = (&'a RefCell<Option<Vec<f64>>>, bool);

/// How much of the phase-2 pricing in a [`Tableau`] belongs to its current
/// basis and inverse: nothing, the duals `y`, or `y` and the structural
/// reduced costs. A basis or inverse change, or phase-1 pricing, makes it
/// stale; a bound flip does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fresh {
    Stale,
    Duals,
    ReducedCosts,
}

/// Outcome of the dual-simplex reoptimisation loop.
enum DualResult {
    /// Primal feasibility restored; continue with primal phase 2.
    Feasible,
    /// Dual unbounded: the LP is primal infeasible.
    Infeasible,
    /// Numerical trouble or iteration cap; fall back to composite phase 1.
    Stalled,
}

#[cfg_attr(test, derive(Clone))]
struct Tableau {
    /// Sparse columns in CSR form, structural then slack: column `j` is
    /// `col_entries[col_start[j]..col_start[j + 1]]`, `(row, coefficient)`
    /// in row order.
    col_start: Vec<usize>,
    col_entries: Vec<(usize, f64)>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// True (phase-2) objective per column.
    cost: Vec<f64>,
    rhs: Vec<f64>,
    n_structural: usize,
    m: usize,
    state: Vec<VarState>,
    /// The direction each column can move in: +1 off its lower bound, −1
    /// off its upper, 0 when basic or fixed ([`Tableau::set_state`]).
    dir: Vec<f64>,
    /// Variable occupying each basis row.
    basis: Vec<usize>,
    /// Dense row-major basis inverse.
    binv: Vec<f64>,
    /// Current values of basic variables, by row.
    xb: Vec<f64>,
    /// Current values of nonbasic variables (their resting bound).
    xn: Vec<f64>,
    pivots_since_refactor: usize,
    iterations: usize,
    /// What [`Tableau::duals`] and [`Tableau::price`] need not recompute.
    fresh: Fresh,
    // Scratch, each fully overwritten by its producer before anything reads
    // it, so nothing carries from one LP to the next.
    /// Phase-1 cost per column ([`Tableau::phase1_cost`]).
    phase1: Vec<f64>,
    /// Dual values ([`Tableau::duals`]).
    y: Vec<f64>,
    /// Reduced cost `c_j − y·A_j` per structural column
    /// ([`Tableau::price`]).
    dj: Vec<f64>,
    /// `ρ·A_j` per structural column for the dual ratio test's row `ρ` of
    /// the inverse.
    alpha: Vec<f64>,
    /// `Binv · A_q` for the entering column ([`Tableau::ftran`]).
    w: Vec<f64>,
    /// The scaled pivot row of an eta update, and where it is nonzero.
    pivot_row: Vec<f64>,
    pivot_nz: Vec<usize>,
    /// `b − Σ_nonbasic A_j x_j` ([`Tableau::recompute_xb`]).
    adjusted: Vec<f64>,
    /// Gauss-Jordan working copies of the basis matrix and its inverse, and
    /// where the current pivot row of each is nonzero.
    gj_a: Vec<f64>,
    gj_inv: Vec<f64>,
    gj_a_nz: Vec<usize>,
    gj_inv_nz: Vec<usize>,
    /// Structural values ([`Tableau::extract`]).
    values: Vec<f64>,
}

impl Tableau {
    /// Builds everything about `model` that no LP over it changes: columns,
    /// costs, right-hand sides, slack bounds, and every buffer at its final
    /// size. [`Tableau::reset`] makes it solvable.
    fn new(model: &Model) -> Self {
        let n = model.num_vars();
        let m = model.num_constraints();
        // Transpose the model's row-CSR: count each structural column's
        // terms into `col_start[j + 1]` (every slack column holds one
        // entry), prefix-sum, then fill row by row through `col_start[j]` as
        // the write cursor and shift it back.
        let mut col_start = vec![0usize; n + m + 1];
        for (j, _) in &model.entries {
            col_start[*j + 1] += 1;
        }
        col_start[n + 1..].fill(1);
        for k in 0..n + m {
            col_start[k + 1] += col_start[k];
        }
        let mut col_entries = vec![(0usize, 0.0); col_start[n + m]];
        for r in 0..m {
            for (j, coef) in model.row(r) {
                col_entries[col_start[*j]] = (r, *coef);
                col_start[*j] += 1;
            }
            col_entries[col_start[n + r]] = (r, 1.0);
            col_start[n + r] += 1;
        }
        col_start.copy_within(0..n + m, 1);
        col_start[0] = 0;
        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        let mut cost = Vec::with_capacity(n + m);
        for v in &model.vars {
            lower.push(v.lower);
            upper.push(v.upper);
            cost.push(v.objective);
        }
        for cmp in &model.cmp {
            let (lo, hi) = match cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
            cost.push(0.0);
        }
        Self {
            col_start,
            col_entries,
            lower,
            upper,
            cost,
            rhs: model.rhs.clone(),
            n_structural: n,
            m,
            state: vec![VarState::AtLower; n + m],
            dir: vec![0.0; n + m],
            basis: vec![0; m],
            binv: vec![0.0; m * m],
            xb: vec![0.0; m],
            xn: vec![0.0; n + m],
            pivots_since_refactor: 0,
            iterations: 0,
            fresh: Fresh::Stale,
            phase1: vec![0.0; n + m],
            y: vec![0.0; m],
            dj: vec![0.0; n],
            alpha: vec![0.0; n],
            w: vec![0.0; m],
            pivot_row: vec![0.0; m],
            pivot_nz: vec![0; m],
            adjusted: vec![0.0; m],
            gj_a: vec![0.0; m * m],
            gj_inv: vec![0.0; m * m],
            gj_a_nz: vec![0; m],
            gj_inv_nz: vec![0; m],
            values: vec![0.0; n],
        }
    }

    /// Structural plus slack columns.
    fn num_cols(&self) -> usize {
        self.n_structural + self.m
    }

    /// Column `j`'s `(row, coefficient)` entries, in row order.
    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.col_entries[self.col_start[j]..self.col_start[j + 1]]
    }

    /// Starts a new LP: installs the structural bounds (`bounds[j]`, or the
    /// model's own). The basis is left as the last LP left it; the caller
    /// installs one ([`Tableau::install`]) or takes the cold start
    /// ([`Tableau::reset_cold`]) before solving.
    fn reset(&mut self, model: &Model, bounds: Option<&[(f64, f64)]>) {
        for (j, v) in model.vars.iter().enumerate() {
            let (lo, hi) = match bounds {
                Some(b) => b[j],
                None => (v.lower, v.upper),
            };
            self.lower[j] = lo;
            self.upper[j] = hi;
        }
        self.iterations = 0;
        self.fresh = Fresh::Stale;
    }

    /// Discards the current basis and returns to the all-slack cold start:
    /// nonbasic structural variables rest on a finite bound, slacks form the
    /// (identity) basis. Also the escape hatch when a warm basis leads
    /// phase 1 into a degenerate cycle that even Bland's rule cannot break —
    /// the composite phase-1 cost changes every iteration, so no pivoting
    /// rule guarantees termination from an arbitrary starting basis.
    fn reset_cold(&mut self) {
        let n = self.n_structural;
        let m = self.m;
        for j in 0..n {
            if self.lower[j].is_finite() {
                self.set_state(j, VarState::AtLower);
                self.xn[j] = self.lower[j];
            } else {
                self.set_state(j, VarState::AtUpper);
                self.xn[j] = self.upper[j];
            }
        }
        for r in 0..m {
            self.set_state(n + r, VarState::Basic(r));
            self.basis[r] = n + r;
            self.xn[n + r] = 0.0;
        }
        self.binv.fill(0.0);
        for k in 0..m {
            self.binv[k * m + k] = 1.0;
        }
        self.pivots_since_refactor = 0;
        self.fresh = Fresh::Stale;
        self.recompute_xb();
    }

    /// Replaces the all-slack start with a previously captured basis. The
    /// nonbasic resting values are recomputed from the *current* bounds (a
    /// branch-and-bound child tightens bounds between solves), resting each
    /// variable on a finite bound. `inverse`, when given, is this basis's
    /// inverse as an earlier install computed it and is copied instead of
    /// eliminating again. `b` must be [`Basis::is_consistent`]. Returns
    /// `false` when its basis matrix is singular under the current column
    /// set; the tableau then needs [`Tableau::reset_cold`] before it can
    /// solve.
    fn install(&mut self, b: &Basis, inverse: Option<&[f64]>) -> bool {
        debug_assert!(b.is_consistent(self.n_structural, self.m));
        self.basis.copy_from_slice(&b.basis);
        self.fresh = Fresh::Stale;
        match inverse {
            Some(inv) => {
                self.binv.copy_from_slice(inv);
                self.pivots_since_refactor = 0;
            }
            None => {
                if !self.refactorize() {
                    return false;
                }
            }
        }
        for (j, &state) in b.state.iter().enumerate() {
            let state = match state {
                VarState::Basic(_) => state,
                VarState::AtLower if self.lower[j].is_finite() => {
                    self.xn[j] = self.lower[j];
                    state
                }
                VarState::AtLower => {
                    self.xn[j] = self.upper[j];
                    VarState::AtUpper
                }
                VarState::AtUpper if self.upper[j].is_finite() => {
                    self.xn[j] = self.upper[j];
                    state
                }
                VarState::AtUpper => {
                    self.xn[j] = self.lower[j];
                    VarState::AtLower
                }
            };
            self.set_state(j, state);
        }
        self.recompute_xb();
        true
    }

    /// Rests column `j` in `state`, keeping `dir[j]` in step with it and
    /// with the current bounds.
    fn set_state(&mut self, j: usize, state: VarState) {
        self.state[j] = state;
        self.dir[j] = match state {
            VarState::Basic(_) => 0.0,
            // A fixed variable (equal bounds) can never move.
            _ if self.upper[j] - self.lower[j] <= 0.0 => 0.0,
            VarState::AtLower => 1.0,
            VarState::AtUpper => -1.0,
        };
    }

    fn snapshot(&self) -> Basis {
        Basis {
            state: self.state.clone(),
            basis: self.basis.clone(),
        }
    }

    /// True when no nonbasic column prices out as improving for the true
    /// objective — the precondition for dual-simplex reoptimisation.
    fn dual_feasible(&mut self, model: &Model) -> bool {
        self.duals(false);
        self.price(model, false);
        // `dir · d > tol` is `d > tol` off a lower bound, `d < −tol` off an
        // upper one, and never for a column that cannot move.
        !(0..self.num_cols()).any(|j| self.dir[j] * self.priced_cost(j, false) > OPT_TOL)
    }

    /// Dual-simplex reoptimisation for the true objective: starting from a
    /// dual-feasible basis with primal violations (the warm-start case after
    /// bound/rhs changes), drives the most-violated basic variable to its
    /// bound per iteration while the ratio test preserves dual feasibility.
    fn dual_loop(&mut self, model: &Model, iter_limit: usize) -> DualResult {
        loop {
            // Leaving row: largest bound violation among basic variables.
            let mut leaving: Option<(usize, f64, f64)> = None; // (row, violation, target)
            for i in 0..self.m {
                let j = self.basis[i];
                let x = self.xb[i];
                let (viol, target) = if x < self.lower[j] - FEAS_TOL {
                    (self.lower[j] - x, self.lower[j])
                } else if x > self.upper[j] + FEAS_TOL {
                    (x - self.upper[j], self.upper[j])
                } else {
                    continue;
                };
                if leaving.is_none_or(|(_, v, _)| viol > v) {
                    leaving = Some((i, viol, target));
                }
            }
            let Some((r, _, target)) = leaving else {
                return DualResult::Feasible;
            };
            if self.iterations >= iter_limit {
                return DualResult::Stalled;
            }

            let delta_r = target - self.xb[r];
            self.duals(false);
            // Row r of Binv·A: every structural column's at once, row-wise;
            // a slack column's from its one entry.
            let m = self.m;
            let n = self.n_structural;
            let rho = &self.binv[r * m..(r + 1) * m];
            self.alpha.fill(0.0);
            scatter_rows(model, rho, &mut self.alpha, |alpha, t| alpha + t);
            let sign = delta_r.signum();
            let mut entering: Option<(usize, f64, f64)> = None; // (col, ratio, sigma)
            for (j, &sigma) in self.dir.iter().enumerate() {
                let alpha = if j < n {
                    self.alpha[j]
                } else {
                    let mut alpha = 0.0;
                    for (row, coef) in self.col(j) {
                        alpha += self.binv[r * m + row] * coef;
                    }
                    alpha
                };
                // xb[r] moves at rate −sigma·alpha per unit step of x_j; a
                // candidate can move and moves it toward the violated bound.
                let rate = -sigma * alpha;
                if (sigma == 0.0) | (rate * sign <= PIVOT_TOL) {
                    continue;
                }
                // Reduced costs priced for this `y` are reused; after a
                // pivot only the candidates' are walked.
                let d = if self.fresh == Fresh::ReducedCosts {
                    self.priced_cost(j, false)
                } else {
                    self.reduced_cost(j, false)
                };
                let ratio = d.abs() / alpha.abs();
                if entering
                    .is_none_or(|(ej, er, _)| ratio < er - 1e-12 || (ratio < er + 1e-12 && j < ej))
                {
                    entering = Some((j, ratio, sigma));
                }
            }
            let Some((q, _, sigma)) = entering else {
                // No column can reduce the violation: dual unbounded, primal
                // infeasible.
                return DualResult::Infeasible;
            };

            self.ftran(q);
            let alpha_r = self.w[r];
            let rate = -sigma * alpha_r;
            if rate.abs() <= PIVOT_TOL {
                return DualResult::Stalled;
            }
            let t_needed = delta_r / rate;
            let own_range = self.upper[q] - self.lower[q];
            self.iterations += 1;
            if t_needed > own_range {
                // Entering variable hits its opposite bound first: bound
                // flip; the violated row stays leaving next iteration.
                // The basis, and with it `y`, is unchanged.
                let t = own_range;
                for i in 0..m {
                    self.xb[i] += -sigma * self.w[i] * t;
                }
                let new_state = match self.state[q] {
                    VarState::AtLower => VarState::AtUpper,
                    VarState::AtUpper => VarState::AtLower,
                    VarState::Basic(_) => return DualResult::Stalled,
                };
                self.set_state(q, new_state);
                self.xn[q] = match new_state {
                    VarState::AtLower => self.lower[q],
                    VarState::AtUpper => self.upper[q],
                    VarState::Basic(_) => return DualResult::Stalled,
                };
                continue;
            }
            let t = t_needed;
            let entering_value = self.xn[q] + sigma * t;
            for i in 0..m {
                self.xb[i] += -sigma * self.w[i] * t;
            }
            let leaving_var = self.basis[r];
            let leaving_state = if target == self.upper[leaving_var] {
                VarState::AtUpper
            } else {
                VarState::AtLower
            };
            self.set_state(leaving_var, leaving_state);
            self.xn[leaving_var] = target;
            let piv = self.w[r];
            if piv.abs() < PIVOT_TOL {
                self.refactorize();
                self.recompute_xb();
                return DualResult::Stalled;
            }
            self.pivot(r, q, piv, entering_value);
        }
    }

    /// Makes nonbasic column `q` basic in row `r` on pivot element `piv`
    /// (= `w[r]` of the current [`Tableau::ftran`]): eta-updates the
    /// inverse where the scaled pivot row is nonzero, records the new basis
    /// row and its value, and refactorises when due. The leaving variable's
    /// state is the caller's business.
    fn pivot(&mut self, r: usize, q: usize, piv: f64, entering_value: f64) {
        let m = self.m;
        self.pivot_row
            .copy_from_slice(&self.binv[r * m..(r + 1) * m]);
        let nz = scale_nonzeros(&mut self.pivot_row, 0, piv, &mut self.pivot_nz);
        for (i, (row, &f)) in self.binv.chunks_exact_mut(m).zip(&self.w).enumerate() {
            if i != r && f != 0.0 {
                for &k in nz {
                    row[k] -= f * self.pivot_row[k];
                }
            }
        }
        self.binv[r * m..(r + 1) * m].copy_from_slice(&self.pivot_row);
        self.basis[r] = q;
        self.set_state(q, VarState::Basic(r));
        self.xb[r] = entering_value;
        self.fresh = Fresh::Stale;
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= REFACTOR_EVERY {
            self.refactorize();
            self.recompute_xb();
        }
    }

    fn recompute_xb(&mut self) {
        // x_B = Binv · (b − Σ_nonbasic A_j x_j).
        self.adjusted.copy_from_slice(&self.rhs);
        for j in 0..self.num_cols() {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.xn[j];
            if xj != 0.0 {
                for (r, coef) in &self.col_entries[self.col_start[j]..self.col_start[j + 1]] {
                    self.adjusted[*r] -= coef * xj;
                }
            }
        }
        if self.m == 0 {
            return; // `chunks_exact(0)` panics
        }
        for (x, row) in self.xb.iter_mut().zip(self.binv.chunks_exact(self.m)) {
            let mut acc = 0.0;
            for (b, a) in row.iter().zip(&self.adjusted) {
                acc += b * a;
            }
            *x = acc;
        }
    }

    /// Rebuilds `binv` by inverting the basis matrix with Gauss-Jordan from
    /// the identity; on a singular basis returns `false` with `binv` as it
    /// was. The result depends on `basis` and the columns alone.
    ///
    /// Partial pivoting and the row order are the textbook dense
    /// elimination's, but only nonzeros are touched: a column at or before
    /// the pivot column is never read again, so `a` is eliminated to its
    /// right only, and both matrices are updated only where the scaled pivot
    /// row is nonzero. A skipped update subtracts ±0, which can change only
    /// the sign of a zero, so every entry equals the dense result under `==`
    /// and every nonzero has the same bits (DESIGN.md §9).
    fn refactorize(&mut self) -> bool {
        let m = self.m;
        let a = &mut self.gj_a;
        let inv = &mut self.gj_inv;
        a.fill(0.0);
        for (col_pos, &j) in self.basis.iter().enumerate() {
            for (r, coef) in &self.col_entries[self.col_start[j]..self.col_start[j + 1]] {
                a[*r * m + col_pos] = *coef;
            }
        }
        inv.fill(0.0);
        for k in 0..m {
            inv[k * m + k] = 1.0;
        }
        for col in 0..m {
            // Partial pivoting.
            let mut best = col;
            let mut best_abs = a[col * m + col].abs();
            for row in col + 1..m {
                let v = a[row * m + col].abs();
                if v > best_abs {
                    best_abs = v;
                    best = row;
                }
            }
            if best_abs < PIVOT_TOL {
                return false;
            }
            if best != col {
                for k in col..m {
                    a.swap(col * m + k, best * m + k);
                }
                for k in 0..m {
                    inv.swap(col * m + k, best * m + k);
                }
            }
            // Scale the pivot row where it is nonzero, then eliminate the
            // pivot column from every other row that has a nonzero in it.
            let piv = a[col * m + col];
            let a_nz = scale_nonzeros(
                &mut a[col * m..(col + 1) * m],
                col + 1,
                piv,
                &mut self.gj_a_nz,
            );
            let inv_nz = scale_nonzeros(
                &mut inv[col * m..(col + 1) * m],
                0,
                piv,
                &mut self.gj_inv_nz,
            );
            for row in 0..m {
                let f = a[row * m + col];
                if row == col || f == 0.0 {
                    continue;
                }
                for &k in a_nz.iter() {
                    a[row * m + k] -= f * a[col * m + k];
                }
                for &k in inv_nz.iter() {
                    inv[row * m + k] -= f * inv[col * m + k];
                }
            }
        }
        // inv now maps original row space through the permuted elimination;
        // because we performed identical row ops on both, inv = B^{-1}.
        std::mem::swap(&mut self.binv, &mut self.gj_inv);
        self.pivots_since_refactor = 0;
        self.fresh = Fresh::Stale;
        true
    }

    /// `w = Binv · A_j` for column `j`.
    fn ftran(&mut self, j: usize) {
        let col = &self.col_entries[self.col_start[j]..self.col_start[j + 1]];
        if self.m == 0 {
            return; // `chunks_exact(0)` panics
        }
        for (wi, row) in self.w.iter_mut().zip(self.binv.chunks_exact(self.m)) {
            let mut acc = 0.0;
            for (r, coef) in col {
                acc += row[*r] * coef;
            }
            *wi = acc;
        }
    }

    /// Dual values `y = c_B · Binv` for the given phase's costs; phase-2
    /// duals still fresh for this basis and inverse are kept.
    fn duals(&mut self, phase1: bool) {
        if !phase1 && self.fresh >= Fresh::Duals {
            return;
        }
        let cost = if phase1 { &self.phase1 } else { &self.cost };
        self.y.fill(0.0);
        if self.m > 0 {
            for (&bj, row) in self.basis.iter().zip(self.binv.chunks_exact(self.m)) {
                let cb = cost[bj];
                if cb != 0.0 {
                    for (yk, b) in self.y.iter_mut().zip(row) {
                        *yk += cb * b;
                    }
                }
            }
        }
        self.fresh = if phase1 { Fresh::Stale } else { Fresh::Duals };
    }

    /// Every structural column's reduced cost against the current
    /// [`Tableau::duals`], into `dj`, row-wise; phase-2 reduced costs still
    /// fresh are kept.
    fn price(&mut self, model: &Model, phase1: bool) {
        if !phase1 && self.fresh == Fresh::ReducedCosts {
            return;
        }
        let cost = if phase1 { &self.phase1 } else { &self.cost };
        self.dj.copy_from_slice(&cost[..self.n_structural]);
        scatter_rows(model, &self.y, &mut self.dj, |d, t| d - t);
        if !phase1 {
            self.fresh = Fresh::ReducedCosts;
        }
    }

    /// Column `j`'s reduced cost: a structural column's from the last
    /// [`Tableau::price`], a slack's from its one entry.
    fn priced_cost(&self, j: usize, phase1: bool) -> f64 {
        if j < self.n_structural {
            self.dj[j]
        } else {
            self.reduced_cost(j, phase1)
        }
    }

    /// Reduced cost of column `j` against the current [`Tableau::duals`],
    /// by walking the column.
    fn reduced_cost(&self, j: usize, phase1: bool) -> f64 {
        let mut d = if phase1 { self.phase1[j] } else { self.cost[j] };
        for (r, coef) in self.col(j) {
            d -= self.y[*r] * coef;
        }
        d
    }

    /// Total bound infeasibility of the current basic solution.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (i, &j) in self.basis.iter().enumerate() {
            let x = self.xb[i];
            if x < self.lower[j] {
                total += self.lower[j] - x;
            } else if x > self.upper[j] {
                total += x - self.upper[j];
            }
        }
        total
    }

    /// Phase-1 costs: gradient of −(total infeasibility) w.r.t. basic vars.
    fn phase1_cost(&mut self) {
        self.phase1.fill(0.0);
        for (i, &j) in self.basis.iter().enumerate() {
            let x = self.xb[i];
            if x < self.lower[j] - FEAS_TOL {
                self.phase1[j] = 1.0;
            } else if x > self.upper[j] + FEAS_TOL {
                self.phase1[j] = -1.0;
            }
        }
    }

    /// One pricing-ratio-pivot step against the phase-1 costs (as last
    /// computed by [`Tableau::phase1_cost`]) or the objective. Returns:
    /// * `Ok(true)` — step taken,
    /// * `Ok(false)` — no improving column (optimal for these costs),
    /// * `Err(())` — unbounded in the improving direction.
    fn step(&mut self, model: &Model, bland: bool, phase1: bool) -> Result<bool, ()> {
        self.duals(phase1);
        self.price(model, phase1);
        // Pricing.
        let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, sigma)
        for (j, &sigma) in self.dir.iter().enumerate() {
            let d = self.priced_cost(j, phase1);
            // Improving: `d > tol` off a lower bound, `d < −tol` off an
            // upper one, never for a column that cannot move.
            if sigma * d > OPT_TOL {
                let score = d.abs();
                if bland {
                    entering = Some((j, score, sigma));
                    break;
                }
                if entering.is_none_or(|(_, s, _)| score > s) {
                    entering = Some((j, score, sigma));
                }
            }
        }
        let Some((q, _, sigma)) = entering else {
            return Ok(false);
        };

        self.ftran(q);
        // Ratio test: the entering variable moves by t ≥ 0 in direction
        // sigma; basic row i changes at rate delta_i = −sigma·w_i.
        let own_range = self.upper[q] - self.lower[q];
        let mut t_max = own_range; // entering may flip to its other bound
        let mut leaving: Option<usize> = None;
        for i in 0..self.m {
            let delta = -sigma * self.w[i];
            if delta.abs() <= PIVOT_TOL {
                continue;
            }
            let j = self.basis[i];
            let x = self.xb[i];
            // The blocking bound is the nearest bound in the direction of
            // travel that the variable has not already crossed; a variable
            // that is currently infeasible blocks when it reaches
            // feasibility (composite phase-1 rule).
            let target = if delta > 0.0 {
                if x < self.lower[j] - FEAS_TOL {
                    self.lower[j]
                } else {
                    self.upper[j]
                }
            } else if x > self.upper[j] + FEAS_TOL {
                self.upper[j]
            } else {
                self.lower[j]
            };
            if !target.is_finite() {
                continue;
            }
            let ratio = ((target - x) / delta).max(0.0);
            let better = match leaving {
                None => ratio < t_max,
                Some(cur) => {
                    ratio < t_max - 1e-12 || (ratio < t_max + 1e-12 && bland && j < self.basis[cur])
                }
            };
            if better {
                t_max = ratio;
                leaving = Some(i);
            }
        }

        if !t_max.is_finite() {
            return if phase1 {
                // Phase 1 is always bounded (infeasibility ≥ 0); numerical
                // noise only — treat as no progress.
                Ok(false)
            } else {
                Err(())
            };
        }

        self.iterations += 1;
        match leaving {
            None => {
                // Bound flip: entering jumps to its opposite bound; the
                // basis, and with it `y`, is unchanged.
                let t = t_max;
                for i in 0..self.m {
                    self.xb[i] += -sigma * self.w[i] * t;
                }
                let new_state = match self.state[q] {
                    VarState::AtLower => VarState::AtUpper,
                    VarState::AtUpper => VarState::AtLower,
                    VarState::Basic(_) => unreachable!("entering var is nonbasic"),
                };
                self.set_state(q, new_state);
                self.xn[q] = match new_state {
                    VarState::AtLower => self.lower[q],
                    VarState::AtUpper => self.upper[q],
                    VarState::Basic(_) => unreachable!(),
                };
                Ok(true)
            }
            Some(r) => {
                // Check the pivot element BEFORE mutating any state: bailing
                // out after the leaving variable has been marked nonbasic
                // (while `basis[r]` still holds it) leaves the tableau
                // inconsistent and pricing chases phantom columns forever.
                let piv = self.w[r];
                if piv.abs() < PIVOT_TOL {
                    // Numerically hopeless pivot; refactorise and retry later.
                    self.refactorize();
                    self.recompute_xb();
                    return Ok(true);
                }
                let t = t_max;
                let entering_value = self.xn[q] + sigma * t;
                for i in 0..self.m {
                    self.xb[i] += -sigma * self.w[i] * t;
                }
                let leaving_var = self.basis[r];
                // The leaving variable rests at whichever bound it hit.
                let x_leave = self.xb[r];
                let to_upper = (x_leave - self.upper[leaving_var]).abs()
                    <= (x_leave - self.lower[leaving_var]).abs();
                let leaving_state = if to_upper {
                    VarState::AtUpper
                } else {
                    VarState::AtLower
                };
                self.set_state(leaving_var, leaving_state);
                self.xn[leaving_var] = if to_upper {
                    self.upper[leaving_var]
                } else {
                    self.lower[leaving_var]
                };
                self.pivot(r, q, piv, entering_value);
                Ok(true)
            }
        }
    }

    /// Writes the structural part of the current point into `values`.
    fn extract(&mut self) {
        for (j, xj) in self.values.iter_mut().enumerate() {
            *xj = match self.state[j] {
                VarState::Basic(r) => self.xb[r],
                _ => self.xn[j],
            };
        }
    }
}

/// Folds `v[r] · A[r][j]` into `out[j]` with `op` for every structural
/// column `j`, walking the model's rows in ascending order — so each column
/// receives its terms in the order a walk down that column would — and
/// skipping rows where `v[r]` is zero, whose terms are all ±0.
fn scatter_rows(model: &Model, v: &[f64], out: &mut [f64], op: impl Fn(f64, f64) -> f64) {
    for (r, &vr) in v.iter().enumerate() {
        if vr != 0.0 {
            for (j, coef) in model.row(r) {
                out[*j] = op(out[*j], vr * coef);
            }
        }
    }
}

/// Divides the nonzeros of `row` at positions `k ≥ from` by `piv` and
/// lists, in `buf` (as long as `row`), the positions that stay nonzero.
fn scale_nonzeros<'b>(row: &mut [f64], from: usize, piv: f64, buf: &'b mut [usize]) -> &'b [usize] {
    let mut len = 0;
    for (k, v) in row.iter_mut().enumerate().skip(from) {
        if *v != 0.0 {
            *v /= piv;
            if *v != 0.0 {
                buf[len] = k;
                len += 1;
            }
        }
    }
    &buf[..len]
}

/// The LP kernel's state for one model: everything a solve needs that does
/// not depend on the bounds is built once by [`LpWorkspace::new`], and each
/// [`LpWorkspace::solve`] resets the rest in place — to exactly the state a
/// fresh workspace starts from, so a reused workspace and a new one return
/// bit-identical answers. After the first solve a further one allocates
/// only what it returns (the values, and from [`LpWorkspace::solve`] the
/// basis snapshot).
///
/// Branch-and-bound owns one per search and sends the root LP, every node
/// LP and every round-and-repair LP through it.
pub struct LpWorkspace<'m> {
    model: &'m Model,
    t: Tableau,
    /// `f64`s currently held by [`SharedBasis`] inverses this workspace
    /// stored and no sibling has yet consumed.
    shared_words: usize,
}

impl<'m> LpWorkspace<'m> {
    /// Builds the workspace for `model`'s LP relaxation (integrality is
    /// ignored).
    pub fn new(model: &'m Model) -> Self {
        Self {
            model,
            t: Tableau::new(model),
            shared_words: 0,
        }
    }

    /// The model this workspace solves.
    pub fn model(&self) -> &'m Model {
        self.model
    }

    /// Solves the LP relaxation under per-variable bound overrides
    /// (`bounds[j]` replaces variable `j`'s bounds; `None` keeps the
    /// model's), optionally reoptimising from a previous [`Basis`] instead
    /// of the all-slack cold start.
    ///
    /// When `warm` fits and is dual feasible for the objective, primal
    /// feasibility is restored by dual simplex (the textbook reoptimisation
    /// after bound changes — exactly what branch-and-bound children
    /// produce); otherwise the composite phase 1 runs from the installed
    /// basis, which still tends to be far closer to optimal than the
    /// all-slack start. The returned basis snapshot seeds the next solve.
    /// Warm and cold solves may finish on *different* optimal vertices of a
    /// degenerate face, so callers that require bit-identical results must
    /// not mix warm and cold paths (see DESIGN.md §9).
    pub fn solve(
        &mut self,
        bounds: Option<&[(f64, f64)]>,
        warm: Option<&Basis>,
    ) -> (LpSolution, Basis) {
        let (n, m) = (self.t.n_structural, self.t.m);
        let warm = warm.filter(|b| b.is_consistent(n, m));
        let sol = self.run(bounds, warm, None);
        (sol, self.basis())
    }

    /// [`LpWorkspace::solve`] from a basis this workspace's earlier solve
    /// returned and several node LPs start from, without the basis
    /// snapshot: take [`LpWorkspace::basis`] before the next solve if the
    /// node branches. `keep` says another of them is still to come: the
    /// inverse computed here is then left in `warm` for it (within
    /// [`SHARED_INVERSE_WORDS`]); the last user takes it away.
    pub(crate) fn solve_shared(
        &mut self,
        bounds: &[(f64, f64)],
        warm: &SharedBasis,
        keep: bool,
    ) -> LpSolution {
        self.run(Some(bounds), Some(&warm.basis), Some((&warm.inverse, keep)))
    }

    /// The basis the last solve ended on.
    pub(crate) fn basis(&self) -> Basis {
        self.t.snapshot()
    }

    /// Installs `basis`, through the shared inverse slot when there is one.
    fn install(&mut self, basis: &Basis, shared: Option<SharedInverse<'_>>) -> bool {
        let Some((slot, keep)) = shared else {
            return self.t.install(basis, None);
        };
        let mut slot = slot.borrow_mut();
        let installed = self.t.install(basis, slot.as_deref());
        match slot.as_ref().map(Vec::len) {
            Some(words) if !keep => {
                self.shared_words -= words;
                *slot = None;
            }
            None if installed
                && keep
                && self.shared_words + self.t.binv.len() <= SHARED_INVERSE_WORDS =>
            {
                // Straight after a successful install `binv` is the
                // refactorised inverse, untouched by any pivot.
                self.shared_words += self.t.binv.len();
                *slot = Some(self.t.binv.clone());
            }
            _ => {}
        }
        installed
    }

    fn run(
        &mut self,
        bounds: Option<&[(f64, f64)]>,
        warm: Option<&Basis>,
        shared: Option<SharedInverse<'_>>,
    ) -> LpSolution {
        self.t.reset(self.model, bounds);
        if let Some(b) = bounds {
            debug_assert_eq!(b.len(), self.model.num_vars());
            if b.iter().any(|(lo, hi)| lo > hi) {
                self.t.reset_cold();
                return LpSolution::infeasible(0);
            }
        }
        let iter_limit = 200 * (self.t.m + self.t.n_structural) + 2000;

        // Warm path: a pure accelerator. Either it finishes with a clean,
        // trustworthy outcome (optimal / unbounded / dual-proven infeasible),
        // or it gives up and the solve restarts below from the all-slack
        // basis with cold-start semantics — a clipped or drifted warm result
        // never escapes, so warm starts can only change *which* optimal
        // vertex is reported, never the solution quality (see DESIGN.md §9).
        if warm.is_some_and(|basis| self.install(basis, shared)) {
            if let Some(sol) = self.warm_attempt(iter_limit) {
                return sol;
            }
        }
        self.t.reset_cold();
        self.cold(iter_limit)
    }

    /// Owned copy of the current structural values.
    fn values(&mut self) -> Vec<f64> {
        self.t.extract();
        self.t.values.clone()
    }

    /// Objective of the current point, summed as [`Model::objective_value`]
    /// sums it.
    fn objective(&mut self) -> f64 {
        self.t.extract();
        self.model.objective_value(&self.t.values)
    }

    /// The current point as a solution with the given outcome.
    fn solution(&mut self, outcome: LpOutcome) -> LpSolution {
        let values = self.values();
        LpSolution {
            outcome,
            objective: match outcome {
                LpOutcome::Unbounded => f64::INFINITY,
                _ => self.model.objective_value(&values),
            },
            values,
            iterations: self.t.iterations,
        }
    }

    /// The cold path, from the all-slack basis. The budget is relative to
    /// the iterations already spent so an abandoned warm attempt cannot
    /// starve the solve that actually produces the answer.
    fn cold(&mut self, iter_limit: usize) -> LpSolution {
        let budget = self.t.iterations + iter_limit;

        // Phase 1: drive infeasibility to zero with dynamically recomputed
        // costs.
        let mut stall = 0usize;
        let mut last_inf = f64::INFINITY;
        while self.t.infeasibility() > FEAS_TOL {
            if self.t.iterations >= budget {
                return LpSolution {
                    outcome: LpOutcome::IterationLimit,
                    objective: f64::NEG_INFINITY,
                    values: self.values(),
                    iterations: self.t.iterations,
                };
            }
            self.t.phase1_cost();
            let bland = stall > 2 * (self.t.m + 10);
            match self.t.step(self.model, bland, true) {
                Ok(true) => {
                    let inf = self.t.infeasibility();
                    if inf < last_inf - FEAS_TOL {
                        stall = 0;
                        last_inf = inf;
                    } else {
                        stall += 1;
                    }
                }
                Ok(false) => return LpSolution::infeasible(self.t.iterations),
                Err(()) => unreachable!("phase 1 reported unbounded"),
            }
        }

        // Phase 2: optimise the true objective from the feasible basis.
        let mut stall = 0usize;
        let mut last_obj = f64::NEG_INFINITY;
        loop {
            if self.t.iterations >= budget {
                return self.solution(LpOutcome::IterationLimit);
            }
            let bland = stall > 2 * (self.t.m + 10);
            match self.t.step(self.model, bland, false) {
                Ok(true) => {
                    let obj = self.objective();
                    if obj > last_obj + OPT_TOL {
                        stall = 0;
                        last_obj = obj;
                    } else {
                        stall += 1;
                    }
                    // Phase-1 invariant can be perturbed by numerical noise;
                    // re-enter phase 1 if feasibility degraded materially.
                    if self.t.infeasibility() > 1e3 * FEAS_TOL {
                        self.t.refactorize();
                        self.t.recompute_xb();
                        if self.t.infeasibility() > 1e3 * FEAS_TOL {
                            self.t.phase1_cost();
                            let _ = self.t.step(self.model, false, true);
                        }
                    }
                }
                Ok(false) => return self.solution(LpOutcome::Optimal),
                Err(()) => return self.solution(LpOutcome::Unbounded),
            }
        }
    }

    /// Runs the warm-start fast path from an installed basis: dual-simplex
    /// reoptimisation, then tightly-capped primal cleanup. Returns `Some`
    /// only for clean terminal outcomes (optimal, unbounded, or dual-proven
    /// infeasible); `None` means the basis led into degenerate cycling or
    /// numerical drift and the caller must redo the solve from the all-slack
    /// basis — so a warm start can never degrade solution quality, it can
    /// only pick a different optimal vertex or waste its bounded effort
    /// budget.
    fn warm_attempt(&mut self, iter_limit: usize) -> Option<LpSolution> {
        if self.t.dual_feasible(self.model) {
            // Dual reoptimisation normally needs a handful of pivots (one
            // per changed bound), but on degenerate faces it can cycle — the
            // leaving rule has no anti-cycling guarantee. Cap its effort.
            let dual_budget = (self.t.iterations + 2 * self.t.m + 100).min(iter_limit);
            match self.t.dual_loop(self.model, dual_budget) {
                DualResult::Feasible => {}
                // Dual unboundedness proves primal infeasibility from any
                // starting basis.
                DualResult::Infeasible => return Some(LpSolution::infeasible(self.t.iterations)),
                DualResult::Stalled => return None,
            }
        }

        // Primal cleanup. The stall caps are deliberately tight: a warm basis
        // that needs a long degenerate primal phase is no better than a cold
        // start, and the cold path has the proven convergence behaviour.
        let cap = 4 * (self.t.m + 10);

        let mut stall = 0usize;
        let mut last_inf = f64::INFINITY;
        while self.t.infeasibility() > FEAS_TOL {
            if self.t.iterations >= iter_limit || stall > cap {
                return None;
            }
            self.t.phase1_cost();
            let bland = stall > 2 * (self.t.m + 10);
            match self.t.step(self.model, bland, true) {
                Ok(true) => {
                    let inf = self.t.infeasibility();
                    if inf < last_inf - FEAS_TOL {
                        stall = 0;
                        last_inf = inf;
                    } else {
                        stall += 1;
                    }
                }
                // Phase-1 optimality with residual infeasibility is an
                // infeasibility certificate, but let the cold path confirm it
                // rather than trusting one derived from a reused basis.
                Ok(false) => return None,
                Err(()) => unreachable!("phase 1 reported unbounded"),
            }
        }

        let mut stall = 0usize;
        let mut last_obj = f64::NEG_INFINITY;
        loop {
            if self.t.iterations >= iter_limit || stall > cap {
                return None;
            }
            let bland = stall > 2 * (self.t.m + 10);
            match self.t.step(self.model, bland, false) {
                Ok(true) => {
                    let obj = self.objective();
                    if obj > last_obj + OPT_TOL {
                        stall = 0;
                        last_obj = obj;
                    } else {
                        stall += 1;
                    }
                    // Reused bases drift more than cold ones; on material
                    // infeasibility try one refactorisation, then hand the
                    // solve back to the cold path rather than repairing in
                    // place.
                    if self.t.infeasibility() > 1e3 * FEAS_TOL {
                        self.t.refactorize();
                        self.t.recompute_xb();
                        if self.t.infeasibility() > 1e3 * FEAS_TOL {
                            return None;
                        }
                    }
                }
                Ok(false) => {
                    if self.t.infeasibility() > FEAS_TOL {
                        // "Optimal" on a drifted, slightly infeasible point
                        // is not a clean outcome — redo cold.
                        return None;
                    }
                    return Some(self.solution(LpOutcome::Optimal));
                }
                Err(()) => return Some(self.solution(LpOutcome::Unbounded)),
            }
        }
    }
}

#[cfg(test)]
mod exactness;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    /// The LP relaxation of `m` on a fresh workspace.
    fn lp(m: &Model) -> LpSolution {
        LpWorkspace::new(m).solve(None, None).0
    }

    fn lp_with_bounds(m: &Model, bounds: Option<&[(f64, f64)]>) -> LpSolution {
        LpWorkspace::new(m).solve(bounds, None).0
    }

    fn lp_warm(
        m: &Model,
        bounds: Option<&[(f64, f64)]>,
        warm: Option<&Basis>,
    ) -> (LpSolution, Basis) {
        LpWorkspace::new(m).solve(bounds, warm)
    }

    #[test]
    fn one_var_hits_its_upper_bound() {
        let mut m = Model::new();
        m.add_continuous(0.0, 4.0, 2.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, 8.0);
        assert_near(s.values[0], 4.0);
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 3.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 5.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, 36.0);
        assert_near(s.values[0], 2.0);
        assert_near(s.values[1], 6.0);
    }

    #[test]
    fn equality_rows_force_phase_one() {
        // max x + y s.t. x + y = 5, x − y = 1 → (3, 2), obj 5.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
        m.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.values[0], 3.0);
        assert_near(s.values[1], 2.0);
    }

    #[test]
    fn ge_rows_are_respected() {
        // min x + 2y ≡ max −x − 2y s.t. x + y ≥ 4, y ≥ 1 → (3, 1), obj −5.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -2.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_constraint(&[(y, 1.0)], Cmp::Ge, 1.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, -5.0);
        assert_near(s.values[0], 3.0);
        assert_near(s.values[1], 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_work() {
        // max x s.t. x ∈ [−5, −2] → −2.
        let mut m = Model::new();
        m.add_continuous(-5.0, -2.0, 1.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.values[0], -2.0);
    }

    #[test]
    fn nonzero_lower_bounds_feed_rows() {
        // max y s.t. x + y ≤ 10, x ≥ 4 (as bound) → y = 6.
        let mut m = Model::new();
        let x = m.add_continuous(4.0, f64::INFINITY, 0.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, 6.0);
    }

    #[test]
    fn bound_overrides_replace_model_bounds() {
        let mut m = Model::new();
        m.add_continuous(0.0, 10.0, 1.0);
        let s = lp_with_bounds(&m, Some(&[(0.0, 3.0)]));
        assert_near(s.objective, 3.0);
        let s = lp_with_bounds(&m, Some(&[(5.0, 2.0)]));
        assert_eq!(s.outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn degenerate_rows_terminate() {
        // Several redundant rows through the same vertex.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 2.0);
        m.add_constraint(&[(x, 2.0), (y, 2.0)], Cmp::Le, 4.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 2.0);
        m.add_constraint(&[(y, 1.0)], Cmp::Le, 2.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, 2.0);
    }

    #[test]
    fn fractional_lp_relaxation_of_knapsack() {
        // max 10a + 6b, 5a + 4b ≤ 7, binaries relaxed → a=1, b=0.5, obj 13.
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(6.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0)], Cmp::Le, 7.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, 13.0);
        assert_near(s.values[0], 1.0);
        assert_near(s.values[1], 0.5);
    }

    #[test]
    fn fixed_variables_via_equal_bounds() {
        // x fixed at 2 by bounds; maximize y with x + y ≤ 5 → y = 3.
        let mut m = Model::new();
        let _x = m.add_continuous(2.0, 2.0, 0.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(_x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.values[0], 2.0);
        assert_near(s.values[1], 3.0);
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new();
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn rows_without_variables_are_constants() {
        // 0 ≤ 1 is vacuous; 0 ≥ 1 is infeasible.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(&[(x, 0.0)], Cmp::Le, 1.0);
        assert_eq!(lp(&m).outcome, LpOutcome::Optimal);
        let mut bad = Model::new();
        let y = bad.add_continuous(0.0, 1.0, 1.0);
        bad.add_constraint(&[(y, 0.0)], Cmp::Ge, 1.0);
        assert_eq!(lp(&bad).outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn redundant_equalities_are_consistent() {
        // x + y = 4 twice, maximize x with x ≤ 3 → (3, 1).
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 3.0, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 0.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        m.add_constraint(&[(x, 2.0), (y, 2.0)], Cmp::Eq, 8.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.values[0], 3.0);
        assert_near(s.values[1], 1.0);
    }

    #[test]
    fn conflicting_equalities_are_infeasible() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Eq, 3.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Eq, 4.0);
        assert_eq!(lp(&m).outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn transportation_style_lp() {
        // Two suppliers (cap 5, 7), two consumers (need 4, 6); minimise a
        // cost matrix — classic demand/capacity structure of 3σSched's
        // allocation subproblem.
        let mut m = Model::new();
        let costs = [[2.0, 3.0], [4.0, 1.0]];
        let mut x = Vec::new();
        for i in 0..2 {
            for j in 0..2 {
                x.push(m.add_continuous(0.0, f64::INFINITY, -costs[i][j]));
            }
        }
        m.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], Cmp::Le, 5.0);
        m.add_constraint(&[(x[2], 1.0), (x[3], 1.0)], Cmp::Le, 7.0);
        m.add_constraint(&[(x[0], 1.0), (x[2], 1.0)], Cmp::Eq, 4.0);
        m.add_constraint(&[(x[1], 1.0), (x[3], 1.0)], Cmp::Eq, 6.0);
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        // Optimal: x00 = 4 (cost 8), x11 = 6 (cost 6) → total −14.
        assert_near(s.objective, -14.0);
    }

    #[test]
    fn large_diagonal_problem_is_fast_and_exact() {
        let mut m = Model::new();
        let n = 120;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_continuous(0.0, 1.0 + (i % 3) as f64, 1.0 + (i % 5) as f64))
            .collect();
        for (i, v) in vars.iter().enumerate() {
            m.add_constraint(&[(*v, 1.0)], Cmp::Le, 0.5 + (i % 2) as f64);
        }
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        let expected: f64 = (0..n)
            .map(|i| {
                let ub = (1.0 + (i % 3) as f64).min(0.5 + (i % 2) as f64);
                (1.0 + (i % 5) as f64) * ub
            })
            .sum();
        assert!((s.objective - expected).abs() < 1e-5);
    }

    #[test]
    fn solution_is_feasible_for_dense_random_problem() {
        // Deterministic pseudo-random LP; asserts feasibility and that the
        // reported objective matches the returned point.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut m = Model::new();
        let vars: Vec<_> = (0..12)
            .map(|_| m.add_continuous(0.0, 1.0 + 4.0 * next(), 2.0 * next() - 0.5))
            .collect();
        for _ in 0..8 {
            let terms: Vec<_> = vars.iter().map(|v| (*v, next())).collect();
            m.add_constraint(&terms, Cmp::Le, 2.0 + 3.0 * next());
        }
        let s = lp(&m);
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert!(m.is_feasible(
            &s.values.iter().map(|v| v.max(0.0)).collect::<Vec<_>>(),
            1e-5
        ));
        assert_near(s.objective, m.objective_value(&s.values));
    }

    fn two_var_model() -> (Model, crate::model::VarId, crate::model::VarId) {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 3.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 5.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        (m, x, y)
    }

    #[test]
    fn warm_basis_reoptimises_after_bound_tightening() {
        let (m, _, _) = two_var_model();
        let (cold, basis) = lp_warm(&m, None, None);
        assert_eq!(cold.outcome, LpOutcome::Optimal);
        // Tighten x ≤ 1 via bound overrides and reoptimise from the optimal
        // basis: dual simplex should need far fewer pivots than a cold solve
        // and land on the same optimum the cold path finds.
        let bounds = [(0.0, 1.0), (0.0, f64::INFINITY)];
        let (warm, _) = lp_warm(&m, Some(&bounds), Some(&basis));
        let cold2 = lp_with_bounds(&m, Some(&bounds));
        assert_eq!(warm.outcome, LpOutcome::Optimal);
        assert_near(warm.objective, cold2.objective);
        assert!(
            warm.iterations <= cold2.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold2.iterations
        );
    }

    #[test]
    fn warm_basis_detects_infeasibility_after_bound_change() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
        let (cold, basis) = lp_warm(&m, None, None);
        assert_eq!(cold.outcome, LpOutcome::Optimal);
        // x ∈ [0, 2] conflicts with x ≥ 5: the dual loop must certify
        // infeasibility from the warm basis.
        let (warm, _) = lp_warm(&m, Some(&[(0.0, 2.0)]), Some(&basis));
        assert_eq!(warm.outcome, LpOutcome::Infeasible);
    }

    #[test]
    fn incompatible_basis_falls_back_to_cold_start() {
        let (m, _, _) = two_var_model();
        let (_, basis) = lp_warm(&m, None, None);
        // A different model shape must ignore the stale snapshot entirely.
        let mut other = Model::new();
        other.add_continuous(0.0, 4.0, 2.0);
        assert!(!basis.fits(other.num_vars(), other.num_constraints()));
        let (s, _) = lp_warm(&other, None, Some(&basis));
        assert_eq!(s.outcome, LpOutcome::Optimal);
        assert_near(s.objective, 8.0);
    }

    #[test]
    fn warm_basis_roundtrip_matches_on_identical_model() {
        let (m, _, _) = two_var_model();
        let (cold, basis) = lp_warm(&m, None, None);
        // Re-solving the identical model from its own optimal basis is a
        // no-pivot dual/primal pass at the same vertex.
        let (warm, _) = lp_warm(&m, None, Some(&basis));
        assert_eq!(warm.outcome, LpOutcome::Optimal);
        assert_near(warm.objective, cold.objective);
        for (a, b) in warm.values.iter().zip(&cold.values) {
            assert_near(*a, *b);
        }
        assert_eq!(warm.iterations, 0, "optimal basis needs no pivots");
    }

    #[test]
    fn warm_basis_survives_random_bound_flips() {
        // Fuzz warm-vs-cold agreement across random bound overrides of a
        // dense LP: objectives must agree to tolerance at every step.
        let mut seed = 0xabcdef1234567890u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut m = Model::new();
        let vars: Vec<_> = (0..10)
            .map(|_| m.add_continuous(0.0, 2.0 + 2.0 * next(), next() * 3.0 - 0.5))
            .collect();
        for _ in 0..6 {
            let terms: Vec<_> = vars.iter().map(|v| (*v, next())).collect();
            m.add_constraint(&terms, Cmp::Le, 2.0 + 2.0 * next());
        }
        let (_, mut basis) = lp_warm(&m, None, None);
        for _ in 0..12 {
            let bounds: Vec<(f64, f64)> = (0..vars.len())
                .map(|j| {
                    if next() < 0.3 {
                        (0.0, next())
                    } else {
                        (0.0, m.vars[j].upper)
                    }
                })
                .collect();
            let (warm, next_basis) = lp_warm(&m, Some(&bounds), Some(&basis));
            let cold = lp_with_bounds(&m, Some(&bounds));
            assert_eq!(warm.outcome, cold.outcome);
            if warm.outcome == LpOutcome::Optimal {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-6,
                    "warm {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
            }
            basis = next_basis;
        }
    }
}
