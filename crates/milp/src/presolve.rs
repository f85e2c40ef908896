//! Equivalence-preserving model reduction shared by every solver tier.
//!
//! Three deterministic transformations run to a fixpoint before the simplex
//! matrix is ever built:
//!
//! 1. **Bound tightening** — constant and singleton rows become variable
//!    bounds (rounded inward for binaries) and are dropped.
//! 2. **Fixed-variable elimination** — variables whose bounds have collapsed
//!    are substituted into every row and the objective (tracked as an
//!    objective offset) and removed from the column space.
//! 3. **Dominated-option removal** — inside an SOS1 group protected by its
//!    `Σ ≤ 1` demand row, an option that is *strictly* worse than a
//!    groupmate in the objective and no less constraining in *every* row it
//!    touches can be fixed to zero: swapping it for the dominator strictly
//!    improves any solution using it, so it appears in no optimal solution.
//!
//! Every transformation preserves the optimal objective value and every
//! eliminated variable has a recorded assignment, so a reduced-space solution
//! restores to a full-space one via [`Presolve::restore`]. Reductions iterate
//! in index order only — the pass is bit-deterministic.

use std::borrow::Cow;

use crate::model::{Cmp, Model, VarId, VarKind};

/// Feasibility slack used when a row collapses to a constant.
const TOL: f64 = 1e-9;

/// Counts of what a presolve pass removed (mirrored into
/// [`crate::MipSolution`] so schedulers can export them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Variables eliminated because their bounds collapsed to a point.
    pub fixed_vars: usize,
    /// Constant and singleton rows absorbed into bounds.
    pub rows_removed: usize,
    /// SOS1 options fixed to zero by strict domination.
    pub dominated: usize,
    /// Variable bounds tightened by singleton rows.
    pub bounds_tightened: usize,
}

impl PresolveStats {
    /// Sum of all reductions — zero means presolve was a no-op.
    pub fn total(&self) -> usize {
        self.fixed_vars + self.rows_removed + self.dominated + self.bounds_tightened
    }
}

/// Where each original variable went.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// Kept, at this column index in the reduced model.
    Kept(usize),
    /// Eliminated at this value.
    Fixed(f64),
}

/// The result of presolving a [`Model`]: the reduced model plus the mapping
/// back to the original variable space. A pass that reduces nothing builds
/// nothing: the "reduced" model is the input itself, borrowed, and the map
/// is the identity.
#[derive(Debug, Clone)]
pub struct Presolve<'m> {
    reduced: Cow<'m, Model>,
    /// Where each original variable went; empty for the identity.
    map: Vec<VarMap>,
    offset: f64,
    infeasible: bool,
    stats: PresolveStats,
}

/// The rows during reduction: the model's entries, with row `r` the
/// segment `entries[rows[r].start..][..rows[r].len]` of its original span.
/// The entries are borrowed until the first substitution copies them;
/// substituting a fixed variable shifts the rest of its row down within the
/// segment, so terms keep their order.
struct WorkRows<'m> {
    entries: Cow<'m, [(usize, f64)]>,
    rows: Vec<WorkRow>,
}

/// One row's live segment, sense and (substituted) right-hand side.
struct WorkRow {
    start: usize,
    len: usize,
    cmp: Cmp,
    rhs: f64,
    removed: bool,
}

impl WorkRow {
    /// The row's live terms within `entries`.
    fn terms<'e>(&self, entries: &'e [(usize, f64)]) -> &'e [(usize, f64)] {
        &entries[self.start..self.start + self.len]
    }
}

impl<'m> WorkRows<'m> {
    /// `model`'s rows, all live.
    fn of(model: &'m Model) -> Self {
        let rows = model
            .row_start
            .windows(2)
            .zip(model.cmp.iter().zip(&model.rhs))
            .map(|(span, (&cmp, &rhs))| WorkRow {
                start: span[0],
                len: span[1] - span[0],
                cmp,
                rhs,
                removed: false,
            })
            .collect();
        Self {
            entries: Cow::Borrowed(&model.entries),
            rows,
        }
    }
}

impl<'m> Presolve<'m> {
    /// Runs the presolve passes on `model`.
    pub fn run(model: &'m Model) -> Self {
        let n = model.num_vars();
        let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
        let kinds: Vec<VarKind> = model.vars.iter().map(|v| v.kind).collect();
        let objective: Vec<f64> = model.vars.iter().map(|v| v.objective).collect();
        let mut work = WorkRows::of(model);
        let mut stats = PresolveStats::default();
        let mut infeasible = false;
        // A variable is "absorbed" once its fixed value has been substituted
        // into the rows; its (equal) bounds carry the value.
        let mut absorbed = vec![false; n];

        let fixpoint = |lower: &mut Vec<f64>,
                        upper: &mut Vec<f64>,
                        work: &mut WorkRows,
                        absorbed: &mut Vec<bool>,
                        stats: &mut PresolveStats|
         -> bool {
            let WorkRows { entries, rows } = work;
            // Alternate bound tightening and fixed-variable substitution
            // until neither changes anything (bounded pass count for
            // safety; real models settle in two or three).
            for _pass in 0..16 {
                let mut changed = false;
                for row in rows.iter_mut() {
                    if row.removed {
                        continue;
                    }
                    let terms = row.terms(entries);
                    if terms.is_empty() {
                        // Constant row: feasible or the whole model dies.
                        let ok = match row.cmp {
                            Cmp::Le => 0.0 <= row.rhs + TOL,
                            Cmp::Ge => 0.0 >= row.rhs - TOL,
                            Cmp::Eq => row.rhs.abs() <= TOL,
                        };
                        if !ok {
                            return false;
                        }
                        row.removed = true;
                        stats.rows_removed += 1;
                        changed = true;
                        continue;
                    }
                    if terms.len() == 1 {
                        let (j, a) = terms[0];
                        if a == 0.0 || a.is_nan() || row.rhs.is_nan() {
                            continue;
                        }
                        let bound = row.rhs / a;
                        // a·x ≤ rhs tightens an upper bound when a > 0 and a
                        // lower bound when a < 0 (mirrored for ≥; = does
                        // both).
                        let (new_lo, new_hi) = match (row.cmp, a > 0.0) {
                            (Cmp::Le, true) | (Cmp::Ge, false) => (f64::NEG_INFINITY, bound),
                            (Cmp::Le, false) | (Cmp::Ge, true) => (bound, f64::INFINITY),
                            (Cmp::Eq, _) => (bound, bound),
                        };
                        let mut lo = lower[j].max(new_lo);
                        let mut hi = upper[j].min(new_hi);
                        if kinds[j] == VarKind::Binary {
                            // Round inward WITHOUT clamping to {0, 1}: a bound
                            // like `I ≥ 2` must stay visible as infeasible.
                            // `+ 0.0` normalises a `-0.0` from `ceil`.
                            lo = (lo - 1e-6).ceil() + 0.0;
                            hi = (hi + 1e-6).floor() + 0.0;
                        }
                        if lo > hi + TOL {
                            return false;
                        }
                        // Guard against an inverted continuous interval from
                        // rounding: collapse to the midpoint-free exact fix.
                        if lo > hi {
                            hi = lo;
                        }
                        if lo > lower[j] || hi < upper[j] {
                            stats.bounds_tightened += 1;
                        }
                        lower[j] = lo;
                        upper[j] = hi;
                        row.removed = true;
                        stats.rows_removed += 1;
                        changed = true;
                        continue;
                    }
                }
                // Substitute any newly fixed variables into the live rows.
                for j in 0..n {
                    if absorbed[j] || lower[j] != upper[j] || lower[j].is_nan() {
                        continue;
                    }
                    let value = lower[j];
                    for row in rows.iter_mut() {
                        if row.removed {
                            continue;
                        }
                        if let Some(pos) = row.terms(entries).iter().position(|(k, _)| *k == j) {
                            let segment = &mut entries.to_mut()[row.start..row.start + row.len];
                            let (_, coef) = segment[pos];
                            segment.copy_within(pos + 1.., pos);
                            row.len -= 1;
                            row.rhs -= coef * value;
                        }
                    }
                    absorbed[j] = true;
                    changed = true;
                }
                if !changed {
                    break;
                }
            }
            true
        };

        if !fixpoint(&mut lower, &mut upper, &mut work, &mut absorbed, &mut stats) {
            infeasible = true;
        }

        // Dominated-option removal, then another fixpoint to absorb the
        // zero-fixed options.
        if !infeasible {
            let dominated = dominated_options(model, &lower, &upper, &work);
            if !dominated.is_empty() {
                for j in dominated {
                    upper[j] = 0.0;
                    stats.dominated += 1;
                }
                if !fixpoint(&mut lower, &mut upper, &mut work, &mut absorbed, &mut stats) {
                    infeasible = true;
                }
            }
        }

        stats.fixed_vars = absorbed.iter().filter(|a| **a).count();
        if !infeasible && stats.total() == 0 {
            return Presolve {
                reduced: Cow::Borrowed(model),
                map: Vec::new(),
                offset: 0.0,
                infeasible,
                stats,
            };
        }

        // Materialise the reduced model, its buffers sized up front.
        let WorkRows { entries, rows } = &work;
        let live = || rows.iter().filter(|row| !row.removed);
        let mut map = vec![VarMap::Fixed(0.0); n];
        let mut reduced = Model::new();
        reduced.reserve(
            n - stats.fixed_vars,
            live().count(),
            live().map(|row| row.len).sum(),
        );
        reduced.sos1_start.reserve(model.sos1_start.len());
        reduced.sos1.reserve(model.sos1.len());
        let mut offset = 0.0;
        for j in 0..n {
            if absorbed[j] {
                let value = lower[j];
                map[j] = VarMap::Fixed(value);
                offset += objective[j] * value;
                continue;
            }
            let idx = reduced.num_vars();
            map[j] = VarMap::Kept(idx);
            match kinds[j] {
                VarKind::Binary => {
                    let v = reduced.add_binary(objective[j]);
                    // Tightened-but-not-collapsed binary bounds survive the
                    // rebuild (e.g. a [1, 1] pair is absorbed above, so only
                    // genuine [0, 1] binaries reach here).
                    reduced.set_bounds(v, lower[j], upper[j]);
                }
                VarKind::Continuous => {
                    reduced.add_continuous(lower[j], upper[j], objective[j]);
                }
            }
        }
        if !infeasible {
            let widest = live().map(|row| row.len).max().unwrap_or(0);
            let mut terms: Vec<(VarId, f64)> = Vec::with_capacity(widest);
            for row in live() {
                if row.len == 0 {
                    let ok = match row.cmp {
                        Cmp::Le => 0.0 <= row.rhs + TOL,
                        Cmp::Ge => 0.0 >= row.rhs - TOL,
                        Cmp::Eq => row.rhs.abs() <= TOL,
                    };
                    if !ok {
                        infeasible = true;
                        break;
                    }
                    continue;
                }
                terms.clear();
                terms.extend(row.terms(entries).iter().map(|(j, coef)| match map[*j] {
                    VarMap::Kept(idx) => (VarId(idx), *coef),
                    VarMap::Fixed(_) => unreachable!("fixed vars were substituted"),
                }));
                reduced.add_constraint(&terms, row.cmp, row.rhs);
            }
            let mut members: Vec<VarId> = Vec::new();
            for group in model.sos1_groups() {
                members.clear();
                members.extend(group.iter().filter_map(|j| match map[*j] {
                    VarMap::Kept(idx) => Some(VarId(idx)),
                    VarMap::Fixed(_) => None,
                }));
                reduced.add_sos1(&members);
            }
        }

        Presolve {
            reduced: Cow::Owned(reduced),
            map,
            offset,
            infeasible,
            stats,
        }
    }

    /// The dominated-option pass alone, over `model`'s own rows and bounds:
    /// the SOS1 members [`Presolve::run`] fixes to zero when no other
    /// reduction applies first, in the order it finds them.
    pub fn dominated(model: &Model) -> Vec<usize> {
        let lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
        dominated_options(model, &lower, &upper, &WorkRows::of(model))
    }

    /// The reduced model (empty when [`Presolve::is_infeasible`]; the input
    /// model itself when nothing was reduced).
    pub fn reduced(&self) -> &Model {
        &self.reduced
    }

    /// True when presolve proved the original model infeasible.
    pub fn is_infeasible(&self) -> bool {
        self.infeasible
    }

    /// Objective contribution of the eliminated variables; add to a
    /// reduced-space objective to recover the full-space one.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// What presolve removed.
    pub fn stats(&self) -> PresolveStats {
        self.stats
    }

    /// Maps a reduced-space assignment back to the original variable space;
    /// eliminated variables take their recorded fixed values.
    pub fn restore(&self, reduced_values: &[f64]) -> Vec<f64> {
        if self.map.is_empty() {
            return (0..self.reduced.num_vars())
                .map(|j| reduced_values.get(j).copied().unwrap_or(0.0))
                .collect();
        }
        self.map
            .iter()
            .map(|m| match m {
                VarMap::Kept(idx) => reduced_values.get(*idx).copied().unwrap_or(0.0),
                VarMap::Fixed(v) => *v,
            })
            .collect()
    }

    /// Projects a full-space warm start into the reduced space (fixed
    /// entries are dropped; the solver repairs any conflict with a fix the
    /// same way it repairs any other infeasible seed).
    pub fn project_warm(&self, warm: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.reduced.num_vars()];
        if self.map.is_empty() {
            let n = out.len().min(warm.len());
            out[..n].copy_from_slice(&warm[..n]);
            return out;
        }
        for (j, m) in self.map.iter().enumerate() {
            if let VarMap::Kept(idx) = m {
                if let Some(v) = warm.get(j) {
                    out[*idx] = *v;
                }
            }
        }
        out
    }
}

/// Live-row membership with coefficients of the SOS1 members, in CSR form:
/// the entries of variable `j` are `entries[start[j]..start[j + 1]]`,
/// sorted by row (empty for a variable in no group); a duplicate term in
/// one row keeps its first coefficient.
struct Occurrences {
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Occurrences {
    fn new(membership: &[usize], work: &WorkRows) -> Self {
        let n = membership.len();
        let WorkRows { entries, rows } = work;
        let live = || {
            (rows.iter().enumerate())
                .filter(|(_, row)| !row.removed)
                .flat_map(|(r, row)| row.terms(entries).iter().map(move |term| (r, term)))
                .filter(|(_, (j, _))| membership[*j] > 0)
        };
        // Count each variable's rows into `start[j + 1]`, with `last` as
        // the per-variable "row already counted" mark.
        let mut start = vec![0usize; n + 1];
        let mut last = vec![usize::MAX; n];
        for (r, (j, _)) in live() {
            if last[*j] != r {
                last[*j] = r;
                start[*j + 1] += 1;
            }
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        // Fill, with `last` reused as each variable's write cursor.
        last.copy_from_slice(&start[..n]);
        let mut entries = vec![(0usize, 0.0); start[n]];
        for (r, (j, coef)) in live() {
            let at = last[*j];
            if at == start[*j] || entries[at - 1].0 != r {
                entries[at] = (r, *coef);
                last[*j] += 1;
            }
        }
        Self { start, entries }
    }

    /// Variable `j`'s `(row, coefficient)` entries.
    fn of(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.start[j]..self.start[j + 1]]
    }
}

/// Finds SOS1 members that are strictly dominated by a groupmate.
///
/// Domination is only sound when the group carries its `Σ members ≤ 1`
/// demand row (the scheduler always emits one): swapping a used dominated
/// option `b` for its dominator `a` is then guaranteed not to collide with
/// `a` already being selected. `a` dominates `b` when `obj(a) > obj(b)`
/// **strictly** and in every live row `a`'s coefficient is no more
/// constraining than `b`'s (`≤` for `Le`, `≥` for `Ge`, `=` for `Eq`).
///
/// Strictness is load-bearing: with `obj(a) > obj(b)` the swap improves any
/// solution using `b`, so `b` appears in *no* optimal solution and removing
/// it preserves the optimal solution **set**, not just the optimal value.
/// An objective tie would preserve the value but could flip which
/// assignment the solver returns — and callers (the scheduler reads the
/// chosen option's placement mask off the assignment) care about the
/// solution itself, so ties are never removed. The dominator must also
/// belong to no other SOS1 group: a second, branching-enforced group could
/// make the swap infeasible without any row revealing it.
fn dominated_options(model: &Model, lower: &[f64], upper: &[f64], work: &WorkRows) -> Vec<usize> {
    let n = model.num_vars();
    // SOS1 membership counts: a dominator gets set to 1 by the swap, which
    // could violate a second (row-less, branching-enforced) group.
    let mut membership = vec![0usize; n];
    for &j in &model.sos1 {
        membership[j] += 1;
    }
    let occurs = Occurrences::new(&membership, work);
    let WorkRows { entries, rows } = work;
    // Rows that can be a group's demand row, whatever the group.
    let demand_shaped: Vec<bool> = rows
        .iter()
        .map(|row| {
            !row.removed
                && row.cmp == Cmp::Le
                && (row.rhs - 1.0).abs() <= TOL
                && (row.terms(entries).iter()).all(|(_, c)| (*c - 1.0).abs() <= TOL)
        })
        .collect();
    let mut out = Vec::new();
    let mut gone = vec![false; n];
    for group in model.sos1_groups() {
        // Only groups protected by their demand row qualify: a live row
        // with exactly the group's length whose every term is a member at
        // coefficient 1. Such a row holds some member, so the members'
        // occurrence lists reach every candidate.
        let has_demand_row = group.iter().any(|&j| {
            occurs.of(j).iter().any(|&(r, _)| {
                demand_shaped[r]
                    && rows[r].len == group.len()
                    && (rows[r].terms(entries).iter()).all(|(k, _)| group.contains(k))
            })
        });
        if !has_demand_row {
            continue;
        }
        let free =
            |j: usize| model.vars[j].kind == VarKind::Binary && lower[j] <= 0.0 && upper[j] >= 1.0;
        for &b in group {
            if gone[b] || !free(b) {
                continue;
            }
            'dominators: for &a in group {
                if a == b || gone[a] || !free(a) || membership[a] != 1 {
                    continue;
                }
                let oa = model.vars[a].objective;
                let ob = model.vars[b].objective;
                // Strict improvement only; NaN-safe (unordered never
                // dominates). See the function doc for why a tie must
                // keep both options alive.
                if oa <= ob || oa.is_nan() || ob.is_nan() {
                    continue;
                }
                // Every live row touching either variable must prefer `a`.
                // Both occurrence lists are sorted by row, so a single
                // merge-walk visits each touched row once (an absent
                // variable contributes coefficient 0).
                let (la, lb) = (occurs.of(a), occurs.of(b));
                let (mut ia, mut ib) = (0usize, 0usize);
                while ia < la.len() || ib < lb.len() {
                    let ra = la.get(ia).map_or(usize::MAX, |(r, _)| *r);
                    let rb = lb.get(ib).map_or(usize::MAX, |(r, _)| *r);
                    let r = ra.min(rb);
                    let mut ca = 0.0;
                    let mut cb = 0.0;
                    if ra == r {
                        ca = la[ia].1;
                        ia += 1;
                    }
                    if rb == r {
                        cb = lb[ib].1;
                        ib += 1;
                    }
                    let ok = match rows[r].cmp {
                        Cmp::Le => ca <= cb,
                        Cmp::Ge => ca >= cb,
                        Cmp::Eq => ca == cb,
                    };
                    if !ok {
                        continue 'dominators;
                    }
                }
                gone[b] = true;
                out.push(b);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    #[test]
    fn singleton_rows_become_bounds() {
        // x ≤ 3 as a row collapses into the bound and the row disappears.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
        let p = Presolve::run(&m);
        assert!(!p.is_infeasible());
        assert_eq!(p.reduced().num_constraints(), 0);
        assert_eq!(p.reduced().num_vars(), 1);
        assert_eq!(p.stats().rows_removed, 1);
        assert_eq!(p.stats().bounds_tightened, 1);
    }

    #[test]
    fn binary_singleton_rounds_inward_and_fixes() {
        // I ≥ 0.4 with I binary means I = 1; the variable is eliminated.
        let mut m = Model::new();
        let i = m.add_binary(5.0);
        m.add_constraint(&[(i, 1.0)], Cmp::Ge, 0.4);
        let p = Presolve::run(&m);
        assert!(!p.is_infeasible());
        assert_eq!(p.reduced().num_vars(), 0);
        assert_eq!(p.offset(), 5.0);
        let restored = p.restore(&[]);
        assert_eq!(restored, vec![1.0]);
    }

    #[test]
    fn conflicting_singletons_prove_infeasible() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 7.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
        assert!(Presolve::run(&m).is_infeasible());
    }

    #[test]
    fn binary_above_one_is_infeasible() {
        let mut m = Model::new();
        let i = m.add_binary(1.0);
        m.add_constraint(&[(i, 1.0)], Cmp::Ge, 2.0);
        assert!(Presolve::run(&m).is_infeasible());
    }

    #[test]
    fn fixed_variable_substitutes_into_rows() {
        // x fixed at 2 by equal bounds; x + y ≤ 5 becomes y ≤ 3.
        let mut m = Model::new();
        let x = m.add_continuous(2.0, 2.0, 3.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        let p = Presolve::run(&m);
        assert!(!p.is_infeasible());
        assert_eq!(p.reduced().num_vars(), 1);
        assert_eq!(p.offset(), 6.0);
        let restored = p.restore(&[3.0]);
        assert_eq!(restored, vec![2.0, 3.0]);
    }

    #[test]
    fn dominated_option_is_fixed_to_zero() {
        // Two options of one job: equal capacity use, worse utility → the
        // weaker one is dominated and eliminated.
        let mut m = Model::new();
        let a = m.add_binary(5.0);
        let b = m.add_binary(3.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        m.add_sos1(&[a, b]);
        m.add_constraint(&[(a, 2.0), (b, 2.0)], Cmp::Le, 4.0);
        let p = Presolve::run(&m);
        assert!(!p.is_infeasible());
        assert_eq!(p.stats().dominated, 1);
        let restored = p.restore(&vec![0.0; p.reduced().num_vars()]);
        assert_eq!(restored[b.index()], 0.0);
    }

    #[test]
    fn cheaper_capacity_does_not_dominate() {
        // b uses less capacity than a, so neither dominates: b survives.
        let mut m = Model::new();
        let a = m.add_binary(5.0);
        let b = m.add_binary(3.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        m.add_sos1(&[a, b]);
        m.add_constraint(&[(a, 3.0), (b, 1.0)], Cmp::Le, 4.0);
        let p = Presolve::run(&m);
        assert_eq!(p.stats().dominated, 0);
    }

    #[test]
    fn exact_ties_are_never_removed() {
        // Equal objective and equal rows: removing either side would
        // preserve the optimal value but shrink the optimal solution set —
        // callers read the assignment, so both options must survive.
        let mut m = Model::new();
        let a = m.add_binary(4.0);
        let b = m.add_binary(4.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        m.add_sos1(&[a, b]);
        let p = Presolve::run(&m);
        assert_eq!(p.stats().dominated, 0);
        assert_eq!(p.reduced().num_vars(), 2);
    }

    #[test]
    fn dominator_in_a_second_sos1_group_is_disqualified() {
        // `a` strictly beats `b`, but `a` also sits in another SOS1 group
        // with no demand row: the swap b→a could violate that group via
        // branching alone, so nothing may be removed.
        let mut m = Model::new();
        let a = m.add_binary(5.0);
        let b = m.add_binary(3.0);
        let c = m.add_binary(1.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        m.add_sos1(&[a, b]);
        m.add_sos1(&[a, c]);
        let p = Presolve::run(&m);
        assert_eq!(p.stats().dominated, 0);
    }

    #[test]
    fn domination_requires_the_demand_row() {
        // Same shape but no Σ ≤ 1 row: the swap argument doesn't hold, so
        // nothing may be removed.
        let mut m = Model::new();
        let a = m.add_binary(5.0);
        let b = m.add_binary(3.0);
        m.add_sos1(&[a, b]);
        m.add_constraint(&[(a, 2.0), (b, 2.0)], Cmp::Le, 4.0);
        let p = Presolve::run(&m);
        assert_eq!(p.stats().dominated, 0);
    }

    #[test]
    fn constant_rows_check_feasibility() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(&[(x, 0.0)], Cmp::Le, 1.0);
        assert!(!Presolve::run(&m).is_infeasible());
        let mut bad = Model::new();
        let y = bad.add_continuous(0.0, 1.0, 1.0);
        bad.add_constraint(&[(y, 0.0)], Cmp::Ge, 1.0);
        assert!(Presolve::run(&bad).is_infeasible());
    }

    #[test]
    fn warm_start_projection_drops_fixed_entries() {
        let mut m = Model::new();
        let _x = m.add_continuous(2.0, 2.0, 0.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(&[(_x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        let p = Presolve::run(&m);
        let projected = p.project_warm(&[2.0, 7.5]);
        assert_eq!(projected, vec![7.5]);
    }

    #[test]
    fn noop_presolve_keeps_the_model_intact() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        let b = m.add_binary(2.0);
        m.add_constraint(&[(a, 2.0), (b, 3.0)], Cmp::Le, 4.0);
        let p = Presolve::run(&m);
        assert_eq!(p.stats().total(), 0);
        assert_eq!(p.reduced().num_vars(), 2);
        assert_eq!(p.reduced().num_constraints(), 1);
        assert_eq!(p.offset(), 0.0);
    }
}
