//! Exactness pins for the sparse kernels. Each must equal its dense
//! textbook counterpart, kept here as the oracle — every entry equal under
//! `==`, every nonzero bit-identical — on random models with random bases
//! and on the bases real solves of the fixture corpus reach (DESIGN.md §9):
//!
//! * [`Tableau::refactorize`] against the dense Gauss-Jordan;
//! * the eta update in [`Tableau::pivot`] against the dense one;
//! * the row-wise ratio-test row `ρ·A_j` and reduced costs `c_j − y·A_j`
//!   against walks down each column.
//!
//! Run in release with `PROPTEST_CASES=512` in CI.

use proptest::prelude::*;

#[path = "../../tests/common/mod.rs"]
mod common;

use super::*;
use crate::model::VarKind;
use common::{bound_set, Rng};

/// Equal under `==`, and bit-identical unless zero: a skipped ±0 term may
/// flip the sign of a zero, never anything else.
fn same(a: f64, b: f64) -> bool {
    a == b && (a == 0.0 || a.to_bits() == b.to_bits())
}

impl Tableau {
    /// The dense Gauss-Jordan [`Tableau::refactorize`] must match: every
    /// column of every row, from the identity.
    fn refactorize_dense(&mut self) -> bool {
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
                for k in 0..m {
                    a.swap(col * m + k, best * m + k);
                    inv.swap(col * m + k, best * m + k);
                }
            }
            let piv = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= piv;
                inv[col * m + k] /= piv;
            }
            for row in 0..m {
                if row == col {
                    continue;
                }
                let f = a[row * m + col];
                if f != 0.0 {
                    for k in 0..m {
                        a[row * m + k] -= f * a[col * m + k];
                        inv[row * m + k] -= f * inv[col * m + k];
                    }
                }
            }
        }
        std::mem::swap(&mut self.binv, &mut self.gj_inv);
        self.pivots_since_refactor = 0;
        true
    }

    /// The dense eta update [`Tableau::pivot`] must match, on the inverse
    /// alone, with `w` the entering column's [`Tableau::ftran`].
    fn eta_dense(&mut self, r: usize, piv: f64) {
        let m = self.m;
        for k in 0..m {
            self.pivot_row[k] = self.binv[r * m + k] / piv;
        }
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = self.w[i];
            if f != 0.0 {
                for k in 0..m {
                    self.binv[i * m + k] -= f * self.pivot_row[k];
                }
            }
        }
        self.binv[r * m..(r + 1) * m].copy_from_slice(&self.pivot_row);
    }

    /// Row `r` of `Binv · A_j`, walking column `j`.
    fn alpha_by_column(&self, r: usize, j: usize) -> f64 {
        let mut alpha = 0.0;
        for (row, coef) in self.col(j) {
            alpha += self.binv[r * self.m + row] * coef;
        }
        alpha
    }
}

/// Holds every sparse kernel to its dense oracle on `t`'s current basis.
/// Returns whether the basis was nonsingular.
fn check(model: &Model, t: &Tableau, rng: &mut Rng) -> bool {
    let (n, m) = (t.n_structural, t.m);
    let mut sparse = t.clone();
    let mut dense = t.clone();
    let ok = sparse.refactorize();
    prop_assert_eq!(ok, dense.refactorize_dense(), "singularity verdicts differ");
    if !ok {
        return false;
    }
    for (k, (s, d)) in sparse.binv.iter().zip(&dense.binv).enumerate() {
        prop_assert!(same(*s, *d), "inverse entry {}: {:e} vs {:e}", k, s, d);
    }

    // Row-wise ρ·A against column walks, for every row of the inverse.
    for r in 0..m {
        let rho = &sparse.binv[r * m..(r + 1) * m];
        sparse.alpha.fill(0.0);
        scatter_rows(model, rho, &mut sparse.alpha, |alpha, t| alpha + t);
        for j in 0..n {
            let want = sparse.alpha_by_column(r, j);
            prop_assert!(same(sparse.alpha[j], want), "alpha r {} j {}", r, j);
        }
    }

    // Row-wise reduced costs against column walks, for the true costs and
    // for a phase-1 cost vector.
    sparse.fresh = Fresh::Stale;
    sparse.duals(false);
    sparse.price(model, false);
    for j in 0..n {
        let want = sparse.reduced_cost(j, false);
        prop_assert!(same(sparse.dj[j], want), "phase-2 d_{}", j);
    }
    for c in sparse.phase1.iter_mut() {
        *c = [-1.0, 0.0, 1.0][rng.below(3)];
    }
    sparse.duals(true);
    sparse.price(model, true);
    for j in 0..n {
        let want = sparse.reduced_cost(j, true);
        prop_assert!(same(sparse.dj[j], want), "phase-1 d_{}", j);
    }

    // One eta update from the fresh inverse, into a random row.
    if m > 0 {
        let q = (0..n + m)
            .map(|k| (k + rng.below(n + m)) % (n + m))
            .find(|&q| !matches!(sparse.state[q], VarState::Basic(_)));
        if let Some(q) = q {
            sparse.ftran(q);
            let r = rng.below(m);
            let piv = sparse.w[r];
            if piv.abs() >= PIVOT_TOL {
                let mut eta = sparse.clone();
                eta.eta_dense(r, piv);
                sparse.pivots_since_refactor = 0;
                sparse.pivot(r, q, piv, 0.0);
                for (k, (s, d)) in sparse.binv.iter().zip(&eta.binv).enumerate() {
                    prop_assert!(same(*s, *d), "eta entry {}: {:e} vs {:e}", k, s, d);
                }
            }
        }
    }
    true
}

/// A coefficient drawn from a mix of the shapes scheduling models hold.
fn coefficient(rng: &mut Rng) -> f64 {
    let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    match rng.below(4) {
        0 => 1.0,
        1 => -((1 + rng.below(4)) as f64),
        2 => 0.25 + 8.0 * unit,
        _ => 1e-3 * unit - 5e-4,
    }
}

/// A random model with `n` columns and `m` rows, and a random basis on it:
/// mostly slacks, as in the solves, in a random row order.
fn random_tableau(rng: &mut Rng) -> (Model, Tableau) {
    let n = 1 + rng.below(12);
    let m = rng.below(11);
    let mut model = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|k| match k % 3 {
            0 => model.add_binary(coefficient(rng)),
            // A negative zero cost: its reduced cost may only change sign.
            1 if rng.below(4) == 0 => model.add_continuous(0.0, 4.0, -0.0),
            _ => model.add_continuous(0.0, 2.0 + k as f64, coefficient(rng)),
        })
        .collect();
    let density = 1 + rng.below(3);
    for _ in 0..m {
        let mut terms = Vec::new();
        for v in &vars {
            if rng.below(4) < density {
                terms.push((*v, coefficient(rng)));
            }
        }
        let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.below(3)];
        model.add_constraint(&terms, cmp, coefficient(rng));
    }
    let mut t = Tableau::new(&model);
    let mut cols: Vec<usize> = (0..n + m).collect();
    for k in (1..cols.len()).rev() {
        cols.swap(k, rng.below(k + 1));
    }
    let mut basis: Vec<usize> = cols
        .iter()
        .copied()
        .filter(|&j| j >= n || rng.below(3) == 0)
        .take(m)
        .collect();
    let rest: Vec<usize> = cols
        .iter()
        .copied()
        .filter(|j| !basis.contains(j))
        .collect();
    basis.extend(rest.into_iter().take(m - basis.len()));
    t.state.fill(VarState::AtLower);
    for (r, &j) in basis.iter().enumerate() {
        t.basis[r] = j;
        t.state[j] = VarState::Basic(r);
    }
    (model, t)
}

fn fixtures() -> &'static [(String, Model)] {
    static FIXTURES: std::sync::OnceLock<Vec<(String, Model)>> = std::sync::OnceLock::new();
    FIXTURES.get_or_init(common::fixtures)
}

proptest! {
    /// Random models, random (mostly slack) bases.
    #[test]
    fn sparse_kernels_equal_the_dense_ones_on_random_bases(seed in 1u64..u64::MAX) {
        let mut rng = Rng(seed);
        let mut nonsingular = 0;
        for _ in 0..8 {
            let (model, t) = random_tableau(&mut rng);
            nonsingular += usize::from(check(&model, &t, &mut rng));
        }
        prop_assert!(nonsingular > 0, "no nonsingular basis among eight");
    }

    /// The fixture corpus, at the bases a sequence of node solves (random
    /// fixings, warm starts from earlier ones) ends on.
    #[test]
    fn sparse_kernels_equal_the_dense_ones_on_solved_bases(
        seed in 1u64..u64::MAX,
        which in 0usize..1_000,
    ) {
        let (_, model) = &fixtures()[which % fixtures().len()];
        let own: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let binaries: Vec<usize> = (0..model.num_vars())
            .filter(|&j| model.vars[j].kind == VarKind::Binary)
            .collect();
        let mut rng = Rng(seed);
        let mut ws = LpWorkspace::new(model);
        let mut warm: Option<Basis> = None;
        let mut nonsingular = 0;
        for _ in 0..6 {
            let bounds = bound_set(&mut rng, &own, &binaries);
            let (_, basis) = ws.solve(bounds.as_deref(), warm.as_ref());
            nonsingular += usize::from(check(model, &ws.t, &mut rng));
            warm = Some(basis);
        }
        prop_assert!(nonsingular > 0, "every solve ended on a singular basis");
    }
}
