//! Best-bound branch-and-bound over the LP relaxation.
//!
//! Mirrors the external-solver contract 3σSched relies on (§4.3.6): accept a
//! warm start (the previous cycle's schedule — "leaving the cluster state
//! unchanged is a feasible solution"), improve on it, and return the best
//! incumbent found within a time/node budget rather than insisting on a
//! proved optimum.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Duration;

use crate::clock::Stopwatch;

use crate::model::{Model, VarKind};
use crate::presolve::{Presolve, PresolveStats};
use crate::simplex::{LpOutcome, LpWorkspace, SharedBasis};

/// Distance from an integer at which a binary is considered integral. The
/// paper hands 3σSched's MILP (§4.3.4) to an off-the-shelf solver; this is
/// that solver's integer-feasibility tolerance, fixed rather than tuned.
const INTEGRALITY_TOL: f64 = 1e-6;

/// Terminal status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proved optimal (within the gap tolerance).
    Optimal,
    /// Feasible incumbent returned, optimality not proved (budget hit).
    Feasible,
    /// No feasible assignment exists.
    Infeasible,
    /// LP relaxation unbounded.
    Unbounded,
    /// Budget exhausted before any feasible assignment was found.
    NoSolution,
}

/// Result of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipSolution {
    /// Terminal status.
    pub status: MipStatus,
    /// Objective of `values` (−∞ when no incumbent).
    pub objective: f64,
    /// Incumbent assignment, one value per model variable (empty when no
    /// incumbent).
    pub values: Vec<f64>,
    /// Best remaining upper bound on the optimum.
    pub best_bound: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves.
    pub lp_iterations: usize,
    /// Times the incumbent was created or improved (warm-start seed,
    /// integral node, or round-and-repair heuristic).
    pub incumbent_updates: usize,
    /// True when the wall-clock budget ended the search.
    pub timed_out: bool,
    /// What the shared presolve pass eliminated before the search.
    pub presolve: PresolveStats,
}

impl MipSolution {
    /// True if a usable assignment was produced.
    pub fn has_solution(&self) -> bool {
        matches!(self.status, MipStatus::Optimal | MipStatus::Feasible)
    }
}

/// Budgets and tolerances for [`BranchAndBound`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Wall-clock budget; best incumbent so far is returned when exceeded.
    pub time_limit: Option<Duration>,
    /// Maximum branch-and-bound nodes to expand.
    pub node_limit: usize,
    /// Relative optimality gap at which the incumbent is declared optimal.
    pub gap_tolerance: f64,
    /// Run the round-and-repair heuristic every this many nodes (at nodes
    /// 1, 1 + n, 1 + 2n, …); `0` never runs it periodically.
    pub heuristic_every: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            time_limit: None,
            node_limit: 50_000,
            gap_tolerance: 1e-6,
            heuristic_every: 64,
        }
    }
}

/// Branch-and-bound MIP solver (the tier-2 backend; see [`crate::tiers`]).
#[derive(Debug, Clone, Default)]
pub struct BranchAndBound {
    config: SolverConfig,
}

/// A node's bound changes, chained to its parent to avoid cloning the full
/// bound vector per node.
struct NodeChanges {
    changes: Vec<(usize, f64, f64)>,
    parent: Option<Rc<NodeChanges>>,
}

struct Node {
    bound: f64,
    changes: Option<Rc<NodeChanges>>,
    depth: usize,
    /// Optimal basis of the parent's LP relaxation; the child LP differs
    /// only in a handful of bounds, so dual simplex reoptimises from here
    /// instead of running phase 1 from scratch. Siblings share it, and with
    /// it the inverse the first of them to be expanded computes.
    basis: Rc<SharedBasis>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on LP bound (best-bound-first), deeper first on ties to
        // reach incumbents sooner.
        self.bound
            .total_cmp(&other.bound)
            .then(self.depth.cmp(&other.depth))
    }
}

impl BranchAndBound {
    /// Solver with default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with explicit budgets/tolerances.
    pub fn with_config(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Convenience: sets only the wall-clock budget.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.config.time_limit = Some(limit);
        self
    }

    /// Solves `model` to (attempted) optimality.
    pub fn solve(&self, model: &Model) -> MipSolution {
        self.solve_with_warm_start(model, None)
    }

    /// Solves `model`, optionally seeding the incumbent from `warm` — a full
    /// assignment whose binary components are fixed and repaired via an LP
    /// solve (the previous scheduling cycle's solution, §4.3.6).
    ///
    /// A presolve pass ([`Presolve`]) runs first; the search operates on the
    /// reduced model and the solution is restored to the original variable
    /// space before returning.
    pub fn solve_with_warm_start(&self, model: &Model, warm: Option<&[f64]>) -> MipSolution {
        let pre = Presolve::run(model);
        if pre.is_infeasible() {
            return MipSolution {
                status: MipStatus::Infeasible,
                objective: f64::NEG_INFINITY,
                values: Vec::new(),
                best_bound: f64::NEG_INFINITY,
                nodes: 0,
                lp_iterations: 0,
                incumbent_updates: 0,
                timed_out: false,
                presolve: pre.stats(),
            };
        }
        if pre.stats().total() == 0 {
            let mut sol = self.solve_reduced(model, warm);
            sol.presolve = pre.stats();
            return sol;
        }
        let projected = warm.map(|w| pre.project_warm(w));
        let mut sol = self.solve_reduced(pre.reduced(), projected.as_deref());
        // Restore any reduced-space assignment (including a fully-reduced
        // model's empty one) to original variable indices; statuses with no
        // assignment keep their empty `values`.
        if sol.has_solution() || !sol.values.is_empty() {
            sol.values = pre.restore(&sol.values);
        }
        sol.objective += pre.offset();
        sol.best_bound += pre.offset();
        sol.presolve = pre.stats();
        sol
    }

    /// Branch-and-bound search proper, on an already-presolved model.
    fn solve_reduced(&self, model: &Model, warm: Option<&[f64]>) -> MipSolution {
        let started = Stopwatch::start();
        let base: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let binaries: Vec<usize> = model
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| i)
            .collect();
        let groups = GroupIndex::new(model);
        // Every LP of the search — warm-start repair, root, nodes, the
        // periodic heuristic — runs on this one workspace.
        let mut ws = LpWorkspace::new(model);
        let mut bounds = Vec::with_capacity(base.len());
        // A node's chain of changes, leaf to root. A branching fixes at least
        // one binary its LP left fractional, hence free, so a chain is
        // rarely longer than `binaries`, and the buffer rarely grows.
        let mut chain = Vec::with_capacity(binaries.len());
        let mut lp_iterations = 0usize;
        let mut incumbent_updates = 0usize;
        let mut timed_out = false;

        let mut incumbent: Option<(f64, Vec<f64>)> = None;

        // Seed from the warm start, if it repairs to feasible.
        if let Some(w) = warm {
            if w.len() == model.num_vars() {
                if let Some((obj, x)) =
                    self.fix_and_solve(&mut ws, &base, &binaries, w, &mut lp_iterations)
                {
                    incumbent = Some((obj, x));
                    incumbent_updates += 1;
                }
            }
        }

        // Root relaxation.
        let (root, root_basis) = ws.solve(Some(&base), None);
        lp_iterations += root.iterations;
        match root.outcome {
            LpOutcome::Infeasible => {
                return MipSolution {
                    status: MipStatus::Infeasible,
                    objective: incumbent.as_ref().map_or(f64::NEG_INFINITY, |(o, _)| *o),
                    values: incumbent.map(|(_, x)| x).unwrap_or_default(),
                    best_bound: f64::NEG_INFINITY,
                    nodes: 0,
                    lp_iterations,
                    incumbent_updates,
                    timed_out: false,
                    presolve: PresolveStats::default(),
                };
            }
            LpOutcome::Unbounded => {
                return MipSolution {
                    status: MipStatus::Unbounded,
                    objective: f64::INFINITY,
                    values: Vec::new(),
                    best_bound: f64::INFINITY,
                    nodes: 0,
                    lp_iterations,
                    incumbent_updates,
                    timed_out: false,
                    presolve: PresolveStats::default(),
                };
            }
            LpOutcome::Optimal | LpOutcome::IterationLimit => {}
        }

        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: root.objective,
            changes: None,
            depth: 0,
            basis: Rc::new(SharedBasis::new(root_basis)),
        });

        let mut nodes = 0usize;
        let mut best_bound = root.objective;
        let out_of_budget = |nodes: usize, started: Stopwatch| {
            nodes >= self.config.node_limit
                || self
                    .config
                    .time_limit
                    .is_some_and(|l| started.elapsed() >= l)
        };

        while let Some(node) = heap.pop() {
            best_bound = node.bound;
            if let Some((obj, _)) = &incumbent {
                if node.bound <= obj + gap_slack(*obj, self.config.gap_tolerance) {
                    // Best remaining bound cannot beat the incumbent.
                    best_bound = node.bound;
                    return self.finish(
                        MipStatus::Optimal,
                        incumbent,
                        best_bound,
                        nodes,
                        lp_iterations,
                        incumbent_updates,
                        false,
                    );
                }
            }
            if out_of_budget(nodes, started) {
                timed_out = self
                    .config
                    .time_limit
                    .is_some_and(|l| started.elapsed() >= l);
                heap.push(node);
                break;
            }
            nodes += 1;

            materialise(&mut bounds, &mut chain, &base, node.changes.as_ref());
            // A sibling still queued holds the other reference.
            let shared = Rc::strong_count(&node.basis) > 1;
            let lp = ws.solve_shared(&bounds, &node.basis, shared);
            lp_iterations += lp.iterations;
            match lp.outcome {
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    return MipSolution {
                        status: MipStatus::Unbounded,
                        objective: f64::INFINITY,
                        values: Vec::new(),
                        best_bound: f64::INFINITY,
                        nodes,
                        lp_iterations,
                        incumbent_updates,
                        timed_out: false,
                        presolve: PresolveStats::default(),
                    };
                }
                LpOutcome::Optimal | LpOutcome::IterationLimit => {}
            }
            if let Some((obj, _)) = &incumbent {
                if lp.objective <= obj + gap_slack(*obj, self.config.gap_tolerance) {
                    continue;
                }
            }

            let frac = most_fractional(&binaries, &lp.values);
            match frac {
                None => {
                    // Integral: candidate incumbent.
                    let obj = lp.objective;
                    if incumbent.as_ref().is_none_or(|(o, _)| obj > *o) {
                        incumbent = Some((obj, lp.values));
                        incumbent_updates += 1;
                    }
                }
                Some(branch_var) => {
                    // The children start from this LP's basis; snapshot it
                    // before the heuristic below reuses the workspace.
                    let parent_basis = Rc::new(SharedBasis::new(ws.basis()));
                    // Periodic round-and-repair heuristic for an early
                    // incumbent (mirrors "query best solution found so far").
                    if nodes.checked_rem(self.config.heuristic_every) == Some(1) {
                        if let Some((obj, x)) = self.fix_and_solve(
                            &mut ws,
                            &bounds,
                            &binaries,
                            &lp.values,
                            &mut lp_iterations,
                        ) {
                            if incumbent.as_ref().is_none_or(|(o, _)| obj > *o) {
                                incumbent = Some((obj, x));
                                incumbent_updates += 1;
                            }
                        }
                    }
                    // SOS1 branching if the variable belongs to a group with
                    // several fractional members; variable dichotomy
                    // otherwise.
                    let children =
                        self.branch_children(model, &groups, &lp.values, branch_var, &node);
                    for changes in children {
                        let child = Node {
                            bound: lp.objective,
                            changes: Some(Rc::new(changes)),
                            depth: node.depth + 1,
                            basis: Rc::clone(&parent_basis),
                        };
                        heap.push(child);
                    }
                }
            }
        }

        let best_remaining = heap
            .peek()
            .map(|n| n.bound)
            .unwrap_or(f64::NEG_INFINITY)
            .max(incumbent.as_ref().map_or(f64::NEG_INFINITY, |(o, _)| *o));
        let status = match (&incumbent, heap.is_empty()) {
            (Some(_), true) => MipStatus::Optimal,
            (Some(_), false) => MipStatus::Feasible,
            (None, true) => MipStatus::Infeasible,
            (None, false) => MipStatus::NoSolution,
        };
        self.finish(
            status,
            incumbent,
            best_remaining.min(best_bound),
            nodes,
            lp_iterations,
            incumbent_updates,
            timed_out,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        status: MipStatus,
        incumbent: Option<(f64, Vec<f64>)>,
        best_bound: f64,
        nodes: usize,
        lp_iterations: usize,
        incumbent_updates: usize,
        timed_out: bool,
    ) -> MipSolution {
        match incumbent {
            Some((objective, mut values)) => {
                // Snap near-integral binaries exactly.
                for v in &mut values {
                    if (*v - v.round()).abs() <= 1e-5 {
                        *v = v.round();
                    }
                }
                MipSolution {
                    status,
                    objective,
                    values,
                    best_bound,
                    nodes,
                    lp_iterations,
                    incumbent_updates,
                    timed_out,
                    presolve: PresolveStats::default(),
                }
            }
            None => MipSolution {
                status,
                objective: f64::NEG_INFINITY,
                values: Vec::new(),
                best_bound,
                nodes,
                lp_iterations,
                incumbent_updates,
                timed_out,
                presolve: PresolveStats::default(),
            },
        }
    }

    /// Fixes every binary to its rounding in `reference`, solves the LP for
    /// the continuous variables on the search's workspace, and repairs
    /// infeasibility by unsetting the most weakly selected binaries. Shared
    /// with the tier-0 greedy backend.
    pub(crate) fn fix_and_solve(
        &self,
        ws: &mut LpWorkspace<'_>,
        bounds: &[(f64, f64)],
        binaries: &[usize],
        reference: &[f64],
        lp_iterations: &mut usize,
    ) -> Option<(f64, Vec<f64>)> {
        let model = ws.model();
        let mut fixed = bounds.to_vec();
        // (value, index) of binaries rounded up, weakest first for repair.
        let mut ones: Vec<(f64, usize)> = Vec::new();
        for &j in binaries {
            let v = reference[j];
            let up = v >= 0.5 && bounds[j].1 >= 1.0;
            let target: f64 = if up { 1.0 } else { 0.0 };
            let target = target.clamp(bounds[j].0, bounds[j].1);
            fixed[j] = (target, target);
            if target == 1.0 {
                ones.push((v, j));
            }
        }
        ones.sort_by(|a, b| a.0.total_cmp(&b.0));
        for _attempt in 0..=ones.len().min(8) {
            let (lp, _) = ws.solve(Some(&fixed), None);
            *lp_iterations += lp.iterations;
            match lp.outcome {
                LpOutcome::Optimal | LpOutcome::IterationLimit
                    if model.is_feasible(&snap(&lp.values), 1e-5) =>
                {
                    let vals = snap(&lp.values);
                    let obj = model.objective_value(&vals);
                    return Some((obj, vals));
                }
                _ => {
                    // Drop the weakest selected binary and retry.
                    let (_, j) = ones.pop()?;
                    let zero = 0.0f64.clamp(bounds[j].0, bounds[j].1);
                    fixed[j] = (zero, zero);
                }
            }
        }
        None
    }

    fn branch_children(
        &self,
        model: &Model,
        groups: &GroupIndex,
        lp_values: &[f64],
        branch_var: usize,
        parent: &Node,
    ) -> Vec<NodeChanges> {
        // Prefer SOS1 branching: split the group containing the branch
        // variable into two halves ordered by LP value.
        for &g in groups.of(branch_var) {
            let fractional: Vec<usize> = model
                .sos1_group(g)
                .iter()
                .copied()
                .filter(|&j| {
                    let v = lp_values[j];
                    v > INTEGRALITY_TOL && v < 1.0 - INTEGRALITY_TOL
                })
                .collect();
            if fractional.len() >= 2 {
                let mut ordered = fractional;
                ordered.sort_by(|&a, &b| lp_values[b].total_cmp(&lp_values[a]));
                let half = ordered.len() / 2;
                let (keep, rest) = ordered.split_at(half.max(1));
                let fix_zero = |vars: &[usize]| NodeChanges {
                    changes: vars.iter().map(|&j| (j, 0.0, 0.0)).collect(),
                    parent: parent.changes.clone(),
                };
                return vec![fix_zero(keep), fix_zero(rest)];
            }
        }
        // Variable dichotomy.
        vec![
            NodeChanges {
                changes: vec![(branch_var, 0.0, 0.0)],
                parent: parent.changes.clone(),
            },
            NodeChanges {
                changes: vec![(branch_var, 1.0, 1.0)],
                parent: parent.changes.clone(),
            },
        ]
    }
}

pub(crate) fn gap_slack(obj: f64, gap: f64) -> f64 {
    gap * obj.abs().max(1.0)
}

fn snap(values: &[f64]) -> Vec<f64> {
    values
        .iter()
        .map(|v| {
            if (*v - v.round()).abs() <= INTEGRALITY_TOL {
                v.round()
            } else {
                *v
            }
        })
        .collect()
}

/// `(v - v.round()).abs()`, bit for bit for every finite `v`, without the
/// libm call `f64::round` compiles to on the baseline x86-64 target.
///
/// Below 2^52 the truncating cast is exact, so `a = |v - trunc(v)|` is
/// exact too, and the distance to the nearest integer is `a` or, from
/// 0.5 up (where `round` goes away from zero), `1 - a`, which is exact by
/// Sterbenz's lemma. Both forms compute the same exact value, so they
/// agree bit for bit. From 2^52 up every finite `v` is an integer, at
/// distance +0; infinities and NaN give NaN, as `v - v.round()` does.
fn distance_to_nearest_integer(v: f64) -> f64 {
    const INTEGRAL: f64 = 4_503_599_627_370_496.0; // 2^52
    if v.abs() < INTEGRAL {
        let a = (v - (v as i64) as f64).abs();
        if a < 0.5 {
            a
        } else {
            1.0 - a
        }
    } else if v.is_finite() {
        0.0
    } else {
        f64::NAN
    }
}

fn most_fractional(binaries: &[usize], values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &j in binaries {
        let dist = distance_to_nearest_integer(values[j]);
        if dist > INTEGRALITY_TOL && best.is_none_or(|(_, d)| dist > d) {
            best = Some((j, dist));
        }
    }
    best.map(|(j, _)| j)
}

/// Which SOS1 groups each variable belongs to, in group order, built once
/// per search (compressed rows: variable `j`'s groups are
/// `groups[starts[j]..starts[j + 1]]`).
struct GroupIndex {
    starts: Vec<usize>,
    groups: Vec<usize>,
}

impl GroupIndex {
    fn new(model: &Model) -> Self {
        let mut starts = vec![0usize; model.num_vars() + 1];
        for &j in &model.sos1 {
            starts[j + 1] += 1;
        }
        for j in 0..model.num_vars() {
            starts[j + 1] += starts[j];
        }
        let mut next = starts.clone();
        let mut groups = vec![0usize; starts[model.num_vars()]];
        for (g, group) in model.sos1_groups().enumerate() {
            for &j in group {
                groups[next[j]] = g;
                next[j] += 1;
            }
        }
        Self { starts, groups }
    }

    fn of(&self, var: usize) -> &[usize] {
        &self.groups[self.starts[var]..self.starts[var + 1]]
    }
}

/// Fills `bounds` with `base` overridden by the node's chain of changes;
/// `chain` is scratch and is left empty.
fn materialise(
    bounds: &mut Vec<(f64, f64)>,
    chain: &mut Vec<Rc<NodeChanges>>,
    base: &[(f64, f64)],
    changes: Option<&Rc<NodeChanges>>,
) {
    bounds.clear();
    bounds.extend_from_slice(base);
    // Child changes override ancestors; apply root-to-leaf.
    let mut cur = changes.cloned();
    while let Some(c) = cur {
        cur = c.parent.clone();
        chain.push(c);
    }
    for c in chain.drain(..).rev() {
        for (j, lo, hi) in &c.changes {
            bounds[*j] = (*lo, *hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    proptest::proptest! {
        /// The libm-free branching score equals `(v - v.round()).abs()`
        /// bit for bit: on raw bit patterns (every exponent, subnormals,
        /// both zeros), on LP-like values near integers, on halves and
        /// their neighbouring ulps, and around 2^52, 2^53 and 2^63.
        #[test]
        fn distance_to_nearest_integer_matches_round(
            bits in 0u64..u64::MAX,
            int in -5_000i64..5_000,
            frac in 0.0f64..1.0,
            ulps in -3i64..4,
            shape in 0u8..6,
        ) {
            let nudge = |x: f64| f64::from_bits((x.to_bits() as i64 + ulps) as u64);
            let v = match shape {
                0 => f64::from_bits(bits),
                1 => int as f64 + frac,
                2 => nudge(int as f64 + 0.5),
                3 => nudge(int as f64),
                4 => nudge(2f64.powi(52 + (int.rem_euclid(12)) as i32)) * if frac < 0.5 { -1.0 } else { 1.0 },
                _ => nudge(frac * 1e-300),
            };
            if v.is_finite() {
                proptest::prop_assert_eq!(
                    distance_to_nearest_integer(v).to_bits(),
                    (v - v.round()).abs().to_bits(),
                    "v = {:e} ({:#x})", v, v.to_bits()
                );
            }
        }
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new();
        m.add_continuous(0.0, 4.0, 2.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 8.0);
    }

    /// max 10a + 6b + 4c, 5a + 4b + 3c ≤ 10 → a + b = 16 (a+c=14, b+c=10).
    fn knapsack() -> Model {
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(6.0);
        let c = m.add_binary(4.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Cmp::Le, 10.0);
        m
    }

    #[test]
    fn knapsack_finds_integer_optimum() {
        let s = BranchAndBound::new().solve(&knapsack());
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 16.0);
        assert_near(s.values[0], 1.0);
        assert_near(s.values[1], 1.0);
        assert_near(s.values[2], 0.0);
    }

    #[test]
    fn heuristic_every_zero_disables_the_periodic_heuristic() {
        // `0` used to be a remainder by zero inside the search loop; it now
        // means "never", and branching alone reaches the same optimum.
        let cfg = SolverConfig {
            heuristic_every: 0,
            ..SolverConfig::default()
        };
        let s = BranchAndBound::with_config(cfg).solve(&knapsack());
        let reference = BranchAndBound::new().solve(&knapsack());
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(s.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(s.values, reference.values);
        assert!(s.nodes > 1, "the model must branch for the guard to be hit");
    }

    #[test]
    fn infeasible_mip_reports_infeasible() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        m.add_constraint(&[(a, 1.0)], Cmp::Ge, 2.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Infeasible);
        assert!(!s.has_solution());
    }

    #[test]
    fn sos1_groups_branch_correctly() {
        // Two jobs, each with three placement options, shared capacity:
        // classic 3σSched shape. Optimal picks the best compatible pair.
        let mut m = Model::new();
        let a: Vec<_> = [5.0, 4.0, 3.0].iter().map(|&u| m.add_binary(u)).collect();
        let b: Vec<_> = [5.0, 4.0, 3.0].iter().map(|&u| m.add_binary(u)).collect();
        m.add_constraint(&[(a[0], 1.0), (a[1], 1.0), (a[2], 1.0)], Cmp::Le, 1.0);
        m.add_constraint(&[(b[0], 1.0), (b[1], 1.0), (b[2], 1.0)], Cmp::Le, 1.0);
        m.add_sos1(&a);
        m.add_sos1(&b);
        // Option 0 of both jobs collide on a unit resource.
        m.add_constraint(&[(a[0], 1.0), (b[0], 1.0)], Cmp::Le, 1.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 9.0);
    }

    #[test]
    fn warm_start_seeds_incumbent() {
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(6.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0)], Cmp::Le, 7.0);
        let warm = vec![0.0, 1.0]; // feasible but suboptimal
        let s = BranchAndBound::new().solve_with_warm_start(&m, Some(&warm));
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 10.0);
    }

    #[test]
    fn node_budget_returns_best_incumbent() {
        // Tight budget still yields a feasible (possibly optimal) solution
        // thanks to the rounding heuristic.
        let mut m = Model::new();
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(1.0 + (i % 5) as f64))
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, 1.0 + (i % 3) as f64))
            .collect();
        m.add_constraint(&terms, Cmp::Le, 7.0);
        let cfg = SolverConfig {
            node_limit: 1,
            ..SolverConfig::default()
        };
        let s = BranchAndBound::with_config(cfg).solve(&m);
        assert!(s.has_solution());
        assert!(m.is_feasible(&s.values, 1e-5));
        assert!(s.best_bound + 1e-6 >= s.objective);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 3I + y, y ≤ 4I, y ≤ 3, I binary → I=1, y=3, obj 6.
        let mut m = Model::new();
        let i = m.add_binary(3.0);
        let y = m.add_continuous(0.0, 3.0, 1.0);
        m.add_constraint(&[(y, 1.0), (i, -4.0)], Cmp::Le, 0.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 6.0);
        assert_near(s.values[i.index()], 1.0);
        assert_near(s.values[y.index()], 3.0);
    }

    #[test]
    fn equality_coupled_binaries() {
        // Allocation must equal 2·I across partitions (3σSched demand shape).
        let mut m = Model::new();
        let i = m.add_binary(5.0);
        let a1 = m.add_continuous(0.0, f64::INFINITY, 0.0);
        let a2 = m.add_continuous(0.0, f64::INFINITY, 0.0);
        m.add_constraint(&[(a1, 1.0), (a2, 1.0), (i, -2.0)], Cmp::Eq, 0.0);
        m.add_constraint(&[(a1, 1.0)], Cmp::Le, 1.5);
        m.add_constraint(&[(a2, 1.0)], Cmp::Le, 1.5);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 5.0);
        let total = s.values[a1.index()] + s.values[a2.index()];
        assert_near(total, 2.0);
    }

    #[test]
    fn all_negative_objective_prefers_all_zero() {
        let mut m = Model::new();
        for _ in 0..6 {
            m.add_binary(-1.0 - 0.5);
        }
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 0.0);
        assert!(s.values.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn time_limit_zero_still_returns_warm_start() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        let cfg = SolverConfig {
            time_limit: Some(Duration::from_millis(0)),
            ..SolverConfig::default()
        };
        let warm = vec![1.0, 0.0];
        let s = BranchAndBound::with_config(cfg).solve_with_warm_start(&m, Some(&warm));
        assert!(s.has_solution());
        assert!(s.objective >= 1.0 - 1e-6);
        assert!(m.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn infeasible_warm_start_is_repaired_or_discarded() {
        let mut m = Model::new();
        let a = m.add_binary(3.0);
        let b = m.add_binary(2.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0)], Cmp::Le, 1.0);
        // Warm start violates the row; the repair drops the weaker binary.
        let warm = vec![1.0, 1.0];
        let s = BranchAndBound::new().solve_with_warm_start(&m, Some(&warm));
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 3.0);
    }

    #[test]
    fn incumbent_updates_and_timeout_are_reported() {
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(6.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0)], Cmp::Le, 7.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert!(s.incumbent_updates >= 1);
        assert!(!s.timed_out);

        // A zero wall-clock budget must be reported as a timeout hit.
        let cfg = SolverConfig {
            time_limit: Some(Duration::from_millis(0)),
            ..SolverConfig::default()
        };
        let warm = vec![0.0, 1.0];
        let s = BranchAndBound::with_config(cfg).solve_with_warm_start(&m, Some(&warm));
        assert!(s.timed_out);
        assert!(s.incumbent_updates >= 1); // warm-start seed counted
    }

    #[test]
    fn wrong_length_warm_start_is_ignored() {
        let mut m = Model::new();
        m.add_binary(1.0);
        let s = BranchAndBound::new().solve_with_warm_start(&m, Some(&[1.0, 0.0, 0.0]));
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 1.0);
    }

    #[test]
    fn best_bound_dominates_incumbent() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|i| m.add_binary(1.0 + i as f64)).collect();
        let terms: Vec<_> = vars.iter().map(|v| (*v, 2.0)).collect();
        m.add_constraint(&terms, Cmp::Le, 5.0);
        let s = BranchAndBound::new().solve(&m);
        assert!(s.has_solution());
        assert!(s.best_bound + 1e-6 >= s.objective);
    }

    #[test]
    fn equality_constrained_binaries() {
        // Exactly two of four must be picked; maximise their value.
        let mut m = Model::new();
        let vars: Vec<_> = [4.0, 1.0, 3.0, 2.0]
            .iter()
            .map(|&u| m.add_binary(u))
            .collect();
        let terms: Vec<_> = vars.iter().map(|v| (*v, 1.0)).collect();
        m.add_constraint(&terms, Cmp::Eq, 2.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, 7.0);
        assert_near(s.values[vars[0].index()], 1.0);
        assert_near(s.values[vars[2].index()], 1.0);
    }

    #[test]
    fn continuous_only_negative_costs() {
        // min-style: maximize -x - y with x + y >= 3 → objective -3.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, -1.0);
        let y = m.add_continuous(0.0, 10.0, -1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        let s = BranchAndBound::new().solve(&m);
        assert_eq!(s.status, MipStatus::Optimal);
        assert_near(s.objective, -3.0);
    }

    #[test]
    fn deep_sos1_chain_terminates() {
        // 20 jobs, 5 options each, shared scarce capacity — forces real
        // branching but must terminate quickly at default budgets.
        let mut m = Model::new();
        let mut cap_terms = Vec::new();
        for j in 0..20 {
            let vars: Vec<_> = (0..5)
                .map(|o| m.add_binary(1.0 + ((j * 5 + o) % 7) as f64))
                .collect();
            let d: Vec<_> = vars.iter().map(|v| (*v, 1.0)).collect();
            m.add_constraint(&d, Cmp::Le, 1.0);
            m.add_sos1(&vars);
            for (o, v) in vars.iter().enumerate() {
                cap_terms.push((*v, 1.0 + (o % 3) as f64));
            }
        }
        m.add_constraint(&cap_terms, Cmp::Le, 12.0);
        let s = BranchAndBound::new().solve(&m);
        assert!(s.has_solution());
        assert!(m.is_feasible(&s.values, 1e-5));
    }

    #[test]
    fn nan_objective_coefficient_terminates_with_sane_status() {
        // Regression for the NaN-deadline class of bug: a NaN objective
        // coefficient flows into LP objectives and node bounds, where
        // `partial_cmp`-based ordering used to make the best-bound heap and
        // incumbent comparisons unstable. `total_cmp` gives NaN a fixed
        // place in the order, so the search must run to a terminal status
        // within its node budget instead of looping or panicking.
        let mut m = Model::new();
        let a = m.add_binary(f64::NAN);
        let b = m.add_binary(1.0);
        let c = m.add_binary(2.0);
        m.add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 2.0);
        m.add_sos1(&[a, b, c]);
        let cfg = SolverConfig {
            node_limit: 1_000,
            ..SolverConfig::default()
        };
        let s = BranchAndBound::with_config(cfg).solve(&m);
        assert!(s.nodes <= 1_000, "budget respected: {} nodes", s.nodes);
        // Any terminal status is acceptable under a poisoned objective; what
        // matters is that one is reached and reported coherently.
        if s.has_solution() {
            assert_eq!(s.values.len(), m.num_vars());
            assert!(m.is_feasible(&s.values, 1e-5));
        } else {
            assert!(s.values.is_empty());
        }
    }

    #[test]
    fn brute_force_agreement_on_random_binary_problems() {
        // Deterministic xorshift stream; compare against exhaustive search.
        let mut seed = 0xdeadbeefcafef00du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let n = 6;
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|_| m.add_binary(next() * 10.0 - 2.0)).collect();
            for _ in 0..3 {
                let terms: Vec<_> = vars.iter().map(|v| (*v, next() * 4.0 - 1.0)).collect();
                m.add_constraint(&terms, Cmp::Le, next() * 6.0);
            }
            // Exhaustive optimum.
            let mut best = f64::NEG_INFINITY;
            for mask in 0u32..(1 << n) {
                let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
                if m.is_feasible(&x, 1e-9) {
                    best = best.max(m.objective_value(&x));
                }
            }
            let s = BranchAndBound::new().solve(&m);
            if best == f64::NEG_INFINITY {
                assert_eq!(s.status, MipStatus::Infeasible, "trial {trial}");
            } else {
                assert!(s.has_solution(), "trial {trial}");
                assert!(
                    (s.objective - best).abs() < 1e-5,
                    "trial {trial}: got {} want {best}",
                    s.objective
                );
                assert!(m.is_feasible(&s.values, 1e-5), "trial {trial}");
            }
        }
    }
}
