//! Sparse MILP problem builder.
//!
//! 3σSched's MILP generator (§4.3.3) produces, per pending job, one binary
//! indicator per placement option plus continuous per-partition allocation
//! variables, a demand row tying them together, and shared capacity rows.
//! This module is the neutral representation those pieces compile into.

use std::fmt;

/// Identifier of a variable within a [`Model`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense column index of this variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Continuous or binary variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous within `[lower, upper]`.
    Continuous,
    /// Binary: integer restricted to `{0, 1}` (bounds may tighten further).
    Binary,
}

/// Comparison sense of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`.
    Le,
    /// `expr ≥ rhs`.
    Ge,
    /// `expr = rhs`.
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
    pub name: Option<String>,
}

/// A MILP in build form: maximise `objective · x` subject to linear rows,
/// variable bounds, integrality, and SOS1 groups.
///
/// Rows are stored compressed (row-CSR): row `r`'s sparse `(column,
/// coefficient)` terms are `entries[row_start[r]..row_start[r + 1]]`, with
/// its sense and right-hand side at `cmp[r]` and `rhs[r]`. A built row is
/// sorted by column, deduplicated and free of zeros; a row read by
/// [`Model::from_text`] is kept exactly as written. SOS1 groups are stored
/// the same way: group `g` is `sos1[sos1_start[g]..sos1_start[g + 1]]`.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    /// `num_constraints() + 1` offsets into `entries`; `row_start[0] == 0`.
    pub(crate) row_start: Vec<usize>,
    pub(crate) entries: Vec<(usize, f64)>,
    pub(crate) cmp: Vec<Cmp>,
    pub(crate) rhs: Vec<f64>,
    /// One offset into `sos1` per group, plus one; `sos1_start[0] == 0`.
    pub(crate) sos1_start: Vec<usize>,
    pub(crate) sos1: Vec<usize>,
}

impl Default for Model {
    fn default() -> Self {
        Self {
            vars: Vec::new(),
            row_start: vec![0],
            entries: Vec::new(),
            cmp: Vec::new(),
            rhs: Vec::new(),
            sos1_start: vec![0],
            sos1: Vec::new(),
        }
    }
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the model, keeping its buffers: a model rebuilt after
    /// `clear` is the model built fresh, without the allocations.
    pub fn clear(&mut self) {
        self.vars.clear();
        self.row_start.truncate(1);
        self.entries.clear();
        self.cmp.clear();
        self.rhs.clear();
        self.sos1_start.truncate(1);
        self.sos1.clear();
    }

    /// Reserves room for `vars` more variables, `rows` more rows and
    /// `entries` more row terms.
    pub(crate) fn reserve(&mut self, vars: usize, rows: usize, entries: usize) {
        self.vars.reserve(vars);
        self.row_start.reserve(rows);
        self.cmp.reserve(rows);
        self.rhs.reserve(rows);
        self.entries.reserve(entries);
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and the given
    /// objective coefficient. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`, either bound is NaN, or `lower` is not
    /// finite (the simplex rests non-basic variables on finite bounds; every
    /// scheduling variable is naturally `≥ 0`).
    pub fn add_continuous(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        assert!(lower <= upper, "lower {lower} > upper {upper}");
        assert!(lower.is_finite(), "lower bound must be finite");
        self.push(Variable {
            kind: VarKind::Continuous,
            lower,
            upper,
            objective,
            name: None,
        })
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, objective: f64) -> VarId {
        self.push(Variable {
            kind: VarKind::Binary,
            lower: 0.0,
            upper: 1.0,
            objective,
            name: None,
        })
    }

    fn push(&mut self, v: Variable) -> VarId {
        self.vars.push(v);
        VarId(self.vars.len() - 1)
    }

    /// Attaches a debug name to a variable (shows up in [`Model`] display).
    pub fn set_name(&mut self, var: VarId, name: impl Into<String>) {
        self.vars[var.0].name = Some(name.into());
    }

    /// Adds the linear row `Σ coeff·var  cmp  rhs`. Duplicate variable
    /// entries are summed. Zero coefficients are dropped. Returns the row
    /// index.
    ///
    /// # Panics
    ///
    /// Panics on NaN coefficients/rhs or out-of-model variable ids.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> usize {
        assert!(!rhs.is_nan(), "NaN rhs");
        let start = self.entries.len();
        // Strictly ascending columns and no zero coefficient: the row is
        // already in normal form.
        let mut normal = true;
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "unknown variable {v:?}");
            assert!(!c.is_nan(), "NaN coefficient");
            let ascending =
                self.entries.len() == start || self.entries[self.entries.len() - 1].0 < v.0;
            normal &= ascending && c != 0.0;
            self.entries.push((v.0, c));
        }
        if !normal {
            let kept = normalise(&mut self.entries[start..]);
            self.entries.truncate(start + kept);
        }
        self.push_row(cmp, rhs)
    }

    /// Closes the row whose terms are `entries[row_start.last()..]`;
    /// returns its index.
    pub(crate) fn push_row(&mut self, cmp: Cmp, rhs: f64) -> usize {
        self.row_start.push(self.entries.len());
        self.cmp.push(cmp);
        self.rhs.push(rhs);
        self.cmp.len() - 1
    }

    /// Row `r`'s `(column, coefficient)` terms.
    pub(crate) fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.entries[self.row_start[r]..self.row_start[r + 1]]
    }

    /// Declares an SOS1 group: at most one of `vars` may be non-zero in an
    /// integral solution. 3σSched uses one group per job ("at most one
    /// placement option", §4.3.3); branch-and-bound branches on the group
    /// rather than single variables.
    ///
    /// Note this is a *branching hint* only — the caller still adds the
    /// corresponding `Σ I ≤ 1` demand row (the hint does not imply the
    /// constraint).
    pub fn add_sos1(&mut self, vars: &[VarId]) {
        for v in vars {
            assert!(v.0 < self.vars.len(), "unknown variable {v:?}");
        }
        if vars.len() > 1 {
            self.sos1.extend(vars.iter().map(|v| v.0));
            self.sos1_start.push(self.sos1.len());
        }
    }

    /// SOS1 group `g`'s members.
    pub(crate) fn sos1_group(&self, g: usize) -> &[usize] {
        &self.sos1[self.sos1_start[g]..self.sos1_start[g + 1]]
    }

    /// Every SOS1 group's members, in group order.
    pub(crate) fn sos1_groups(&self) -> impl Iterator<Item = &[usize]> {
        (self.sos1_start.windows(2)).map(|span| &self.sos1[span[0]..span[1]])
    }

    /// Tightens a variable's bounds (used by branch-and-bound node fixing).
    ///
    /// # Panics
    ///
    /// Panics if the new bounds are inverted.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "lower {lower} > upper {upper}");
        self.vars[var.0].lower = lower;
        self.vars[var.0].upper = upper;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.cmp.len()
    }

    /// Ids of all binary variables.
    pub fn binary_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Objective coefficient of one variable.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.vars[var.0].objective
    }

    /// Objective value of an assignment (no feasibility check).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars
            .iter()
            .zip(x)
            .map(|(v, xi)| v.objective * xi)
            .sum()
    }

    /// Checks whether `x` satisfies all rows, bounds, and integrality within
    /// `tol`. Useful for tests and for vetting warm starts.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, xi) in self.vars.iter().zip(x) {
            if *xi < v.lower - tol || *xi > v.upper + tol {
                return false;
            }
            if v.kind == VarKind::Binary && (xi - xi.round()).abs() > tol {
                return false;
            }
        }
        for (r, (cmp, rhs)) in self.cmp.iter().zip(&self.rhs).enumerate() {
            let lhs: f64 = self.row(r).iter().map(|(i, coef)| coef * x[*i]).sum();
            let ok = match cmp {
                Cmp::Le => lhs <= rhs + tol,
                Cmp::Ge => lhs >= rhs - tol,
                Cmp::Eq => (lhs - rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Brings a row's terms to normal form in place — sorted by column,
/// duplicates summed in order, exact zeros (either sign) dropped — and
/// returns how many it keeps. Distinct ascending columns are what any sort
/// returns, so the sort is skipped for them and moves no bits.
fn normalise(row: &mut [(usize, f64)]) -> usize {
    if !row.windows(2).all(|w| w[0].0 < w[1].0) {
        row.sort_unstable_by_key(|(i, _)| *i);
    }
    let mut merged = 0;
    for k in 0..row.len() {
        let (i, c) = row[k];
        if merged > 0 && row[merged - 1].0 == i {
            row[merged - 1].1 += c;
        } else {
            row[merged] = (i, c);
            merged += 1;
        }
    }
    let mut kept = 0;
    for k in 0..merged {
        if row[k].1 != 0.0 {
            row[kept] = row[k];
            kept += 1;
        }
    }
    kept
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "max {}",
            self.vars
                .iter()
                .enumerate()
                .filter(|(_, v)| v.objective != 0.0)
                .map(|(i, v)| format!(
                    "{:+}·{}",
                    v.objective,
                    v.name.clone().unwrap_or_else(|| format!("x{i}"))
                ))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        for (r, (cmp, rhs)) in self.cmp.iter().zip(&self.rhs).enumerate() {
            let lhs = self
                .row(r)
                .iter()
                .map(|(i, coef)| {
                    let name = self.vars[*i]
                        .name
                        .clone()
                        .unwrap_or_else(|| format!("x{i}"));
                    format!("{coef:+}·{name}")
                })
                .collect::<Vec<_>>()
                .join(" ");
            let op = match cmp {
                Cmp::Le => "<=",
                Cmp::Ge => ">=",
                Cmp::Eq => "=",
            };
            writeln!(f, "  {lhs} {op} {rhs}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        let b = m.add_continuous(0.0, 5.0, 2.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.binary_vars(), vec![a]);
    }

    #[test]
    fn duplicate_terms_merge_and_zeros_drop() {
        let mut m = Model::new();
        let a = m.add_binary(0.0);
        let b = m.add_binary(0.0);
        m.add_constraint(&[(a, 1.0), (a, 2.0), (b, 0.0)], Cmp::Le, 4.0);
        assert_eq!(m.row(0), [(0, 3.0)]);
    }

    #[test]
    fn feasibility_check_covers_bounds_rows_integrality() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        let b = m.add_continuous(0.0, 2.0, 1.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 2.0);
        assert!(m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 1.5], 1e-9), "row violated");
        assert!(!m.is_feasible(&[0.5, 0.5], 1e-9), "binary fractional");
        assert!(!m.is_feasible(&[0.0, 3.0], 1e-9), "upper bound violated");
        assert!(!m.is_feasible(&[0.0], 1e-9), "wrong arity");
    }

    #[test]
    fn objective_value_is_a_dot_product() {
        let mut m = Model::new();
        m.add_binary(3.0);
        m.add_continuous(0.0, 10.0, -1.0);
        assert_eq!(m.objective_value(&[1.0, 4.0]), -1.0);
    }

    #[test]
    fn singleton_sos1_is_ignored() {
        let mut m = Model::new();
        let a = m.add_binary(0.0);
        m.add_sos1(&[a]);
        assert_eq!(m.sos1_groups().count(), 0);
        let b = m.add_binary(0.0);
        m.add_sos1(&[a, b]);
        assert_eq!(m.sos1_groups().collect::<Vec<_>>(), [[0, 1]]);
    }

    #[test]
    #[should_panic(expected = "lower")]
    fn inverted_bounds_panic() {
        let mut m = Model::new();
        m.add_continuous(2.0, 1.0, 0.0);
    }

    #[test]
    fn objective_coeff_accessor() {
        let mut m = Model::new();
        let a = m.add_binary(7.5);
        let b = m.add_continuous(0.0, 1.0, -2.0);
        assert_eq!(m.objective_coeff(a), 7.5);
        assert_eq!(m.objective_coeff(b), -2.0);
    }

    #[test]
    fn constraint_index_is_returned() {
        let mut m = Model::new();
        let a = m.add_binary(0.0);
        assert_eq!(m.add_constraint(&[(a, 1.0)], Cmp::Le, 1.0), 0);
        assert_eq!(m.add_constraint(&[(a, 2.0)], Cmp::Ge, 0.0), 1);
        assert_eq!(m.num_constraints(), 2);
    }

    #[test]
    fn set_bounds_tightens() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        m.set_bounds(a, 1.0, 1.0);
        assert!(m.is_feasible(&[1.0], 1e-9));
        assert!(!m.is_feasible(&[0.0], 1e-9));
    }

    #[test]
    fn display_is_readable() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        m.set_name(a, "I_slo_0");
        m.add_constraint(&[(a, 1.0)], Cmp::Le, 1.0);
        let s = format!("{m}");
        assert!(s.contains("I_slo_0"));
        assert!(s.contains("<= 1"));
    }
}
