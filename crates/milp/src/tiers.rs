//! The tiered solver ladder behind a common [`Solver`] trait.
//!
//! The degradation governor (core crate) trades schedule quality for cycle
//! latency one rung at a time; each rung maps to a solver tier here:
//!
//! | tier | backend | contract |
//! |------|---------|----------|
//! | 0 | [`GreedyRounding`] | LP relaxation, round at 0.5, repair — no search |
//! | 1 | [`LpRepair`] | root node only: LP + round-and-repair incumbent |
//! | 2 | [`BranchAndBound`] | full best-bound search within budgets |
//!
//! All tiers share the same presolve pass and the same always-feasible
//! warm-start contract (§4.3.6: "leaving the cluster state unchanged is a
//! feasible solution"), so every tier returns a usable assignment whenever
//! one exists. Lower tiers may return weaker objectives but never infeasible
//! assignments — the differential solver-oracle suite
//! (`tests/solver_oracle.rs`) enforces exactly that ordering.

use crate::branch::{BranchAndBound, MipSolution, MipStatus, SolverConfig};
use crate::model::{Model, VarKind};
use crate::presolve::Presolve;
use crate::simplex::{LpOutcome, LpWorkspace};

/// Common interface of the solver tiers.
pub trait Solver {
    /// Degradation tier this backend implements (0, 1, or 2).
    fn tier(&self) -> u8;
    /// Stable human-readable backend name (used in traces and stats).
    fn name(&self) -> &'static str;
    /// Solves `model` with no warm start.
    fn solve(&self, model: &Model) -> MipSolution {
        self.solve_with_warm_start(model, None)
    }
    /// Solves `model`, optionally seeding from a known-feasible assignment.
    fn solve_with_warm_start(&self, model: &Model, warm: Option<&[f64]>) -> MipSolution;
}

/// Builds the backend for a governor tier with the given budgets.
pub fn solver_for_tier(tier: u8, config: SolverConfig) -> Box<dyn Solver> {
    match tier {
        0 => Box::new(GreedyRounding::with_config(config)),
        1 => Box::new(LpRepair::with_config(config)),
        _ => Box::new(BranchAndBound::with_config(config)),
    }
}

impl Solver for BranchAndBound {
    fn tier(&self) -> u8 {
        2
    }
    fn name(&self) -> &'static str {
        "branch-and-bound"
    }
    fn solve_with_warm_start(&self, model: &Model, warm: Option<&[f64]>) -> MipSolution {
        BranchAndBound::solve_with_warm_start(self, model, warm)
    }
}

/// Tier 1: solve the root LP relaxation, then round-and-repair — branching
/// children are generated but never expanded.
#[derive(Debug, Clone, Default)]
pub struct LpRepair {
    config: SolverConfig,
}

impl LpRepair {
    /// Tier-1 backend with default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tier-1 backend with explicit budgets (the node limit is clamped to
    /// the single root node that defines this tier).
    pub fn with_config(config: SolverConfig) -> Self {
        Self { config }
    }
}

impl Solver for LpRepair {
    fn tier(&self) -> u8 {
        1
    }
    fn name(&self) -> &'static str {
        "lp-repair"
    }
    fn solve_with_warm_start(&self, model: &Model, warm: Option<&[f64]>) -> MipSolution {
        let config = SolverConfig {
            node_limit: self.config.node_limit.min(1),
            // Guarantee the round-and-repair heuristic fires at the root.
            heuristic_every: 2,
            ..self.config.clone()
        };
        BranchAndBound::with_config(config).solve_with_warm_start(model, warm)
    }
}

/// Tier 0: greedy rounding of the LP relaxation — one LP, one rounding
/// pass with repair, zero branch-and-bound nodes.
#[derive(Debug, Clone, Default)]
pub struct GreedyRounding {
    config: SolverConfig,
}

impl GreedyRounding {
    /// Tier-0 backend with default tolerances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tier-0 backend with explicit tolerances (node/time budgets are moot:
    /// the tier performs no search).
    pub fn with_config(config: SolverConfig) -> Self {
        Self { config }
    }
}

impl Solver for GreedyRounding {
    fn tier(&self) -> u8 {
        0
    }
    fn name(&self) -> &'static str {
        "greedy-rounding"
    }
    fn solve_with_warm_start(&self, model: &Model, warm: Option<&[f64]>) -> MipSolution {
        let pre = Presolve::run(model);
        let fail = |status: MipStatus, bound: f64, lp_iterations: usize| MipSolution {
            status,
            objective: if status == MipStatus::Unbounded {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            },
            values: Vec::new(),
            best_bound: bound,
            nodes: 0,
            lp_iterations,
            incumbent_updates: 0,
            timed_out: false,
            presolve: pre.stats(),
        };
        if pre.is_infeasible() {
            return fail(MipStatus::Infeasible, f64::NEG_INFINITY, 0);
        }
        let reduced = pre.reduced();
        let base: Vec<(f64, f64)> = reduced.vars.iter().map(|v| (v.lower, v.upper)).collect();
        let binaries: Vec<usize> = reduced
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Binary)
            .map(|(i, _)| i)
            .collect();
        let mut lp_iterations = 0usize;
        let mut ws = LpWorkspace::new(reduced);
        let (lp, _basis) = ws.solve(Some(&base), None);
        lp_iterations += lp.iterations;
        match lp.outcome {
            LpOutcome::Infeasible => {
                return fail(MipStatus::Infeasible, f64::NEG_INFINITY, lp_iterations)
            }
            LpOutcome::Unbounded => {
                return fail(MipStatus::Unbounded, f64::INFINITY, lp_iterations)
            }
            LpOutcome::Optimal | LpOutcome::IterationLimit => {}
        }

        // Round the relaxation; fall back to the warm start if the rounding
        // cannot be repaired (the warm start is feasible by contract).
        let helper = BranchAndBound::with_config(self.config.clone());
        let mut incumbent_updates = 0usize;
        let mut incumbent =
            helper.fix_and_solve(&mut ws, &base, &binaries, &lp.values, &mut lp_iterations);
        if incumbent.is_some() {
            incumbent_updates += 1;
        }
        if incumbent.is_none() {
            if let Some(w) = warm {
                if w.len() == model.num_vars() {
                    let projected = pre.project_warm(w);
                    incumbent = helper.fix_and_solve(
                        &mut ws,
                        &base,
                        &binaries,
                        &projected,
                        &mut lp_iterations,
                    );
                    if incumbent.is_some() {
                        incumbent_updates += 1;
                    }
                }
            }
        }
        let best_bound = lp.objective + pre.offset();
        match incumbent {
            Some((objective, values)) => {
                let gap = crate::branch::gap_slack(objective, self.config.gap_tolerance);
                let objective = objective + pre.offset();
                MipSolution {
                    // Rounding that meets the LP bound is proved optimal.
                    status: if lp.objective <= objective - pre.offset() + gap {
                        MipStatus::Optimal
                    } else {
                        MipStatus::Feasible
                    },
                    objective,
                    values: pre.restore(&values),
                    best_bound,
                    nodes: 0,
                    lp_iterations,
                    incumbent_updates,
                    timed_out: false,
                    presolve: pre.stats(),
                }
            }
            None => fail(MipStatus::NoSolution, best_bound, lp_iterations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    fn knapsack() -> Model {
        // max 10a + 6b + 4c, 5a + 4b + 3c ≤ 10 → optimum 16 (a + b).
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(6.0);
        let c = m.add_binary(4.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Cmp::Le, 10.0);
        m
    }

    fn scheduler_shape() -> (Model, Vec<f64>) {
        // Two jobs × three options + shared capacity; zero warm start.
        let mut m = Model::new();
        let a: Vec<_> = [5.0, 4.0, 3.0].iter().map(|&u| m.add_binary(u)).collect();
        let b: Vec<_> = [5.0, 4.0, 3.0].iter().map(|&u| m.add_binary(u)).collect();
        m.add_constraint(&[(a[0], 1.0), (a[1], 1.0), (a[2], 1.0)], Cmp::Le, 1.0);
        m.add_constraint(&[(b[0], 1.0), (b[1], 1.0), (b[2], 1.0)], Cmp::Le, 1.0);
        m.add_sos1(&a);
        m.add_sos1(&b);
        m.add_constraint(&[(a[0], 1.0), (b[0], 1.0)], Cmp::Le, 1.0);
        let warm = vec![0.0; m.num_vars()];
        (m, warm)
    }

    #[test]
    fn tiers_report_identity() {
        assert_eq!(GreedyRounding::new().tier(), 0);
        assert_eq!(LpRepair::new().tier(), 1);
        assert_eq!(Solver::tier(&BranchAndBound::new()), 2);
        for t in 0..=2u8 {
            assert_eq!(solver_for_tier(t, SolverConfig::default()).tier(), t);
        }
        assert_eq!(solver_for_tier(9, SolverConfig::default()).tier(), 2);
    }

    #[test]
    fn every_tier_solves_the_knapsack_feasibly() {
        let m = knapsack();
        let reference = BranchAndBound::new().solve(&m);
        for t in 0..=2u8 {
            let s = solver_for_tier(t, SolverConfig::default());
            let sol = s.solve(&m);
            assert!(sol.has_solution(), "tier {t}");
            assert!(m.is_feasible(&sol.values, 1e-6), "tier {t}");
            assert!(
                sol.objective <= reference.objective + 1e-6,
                "tier {t}: {} > {}",
                sol.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn every_tier_honours_the_warm_start_contract() {
        let (m, warm) = scheduler_shape();
        for t in 0..=2u8 {
            let s = solver_for_tier(t, SolverConfig::default());
            let sol = s.solve_with_warm_start(&m, Some(&warm));
            assert!(sol.has_solution(), "tier {t}");
            assert!(m.is_feasible(&sol.values, 1e-6), "tier {t}");
        }
    }

    #[test]
    fn tier0_expands_no_nodes() {
        let (m, warm) = scheduler_shape();
        let sol = GreedyRounding::new().solve_with_warm_start(&m, Some(&warm));
        assert_eq!(sol.nodes, 0);
        assert!(sol.has_solution());
    }

    #[test]
    fn tier1_expands_at_most_the_root() {
        let (m, warm) = scheduler_shape();
        let sol = LpRepair::new().solve_with_warm_start(&m, Some(&warm));
        assert!(sol.nodes <= 1, "{} nodes", sol.nodes);
        assert!(sol.has_solution());
    }

    #[test]
    fn tier0_detects_infeasibility() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        m.add_constraint(&[(a, 1.0)], Cmp::Ge, 2.0);
        let sol = GreedyRounding::new().solve(&m);
        assert_eq!(sol.status, MipStatus::Infeasible);
        assert!(!sol.has_solution());
    }

    #[test]
    fn tier0_proves_optimality_when_rounding_meets_the_bound() {
        // Single binary, positive utility: LP relaxation is integral.
        let mut m = Model::new();
        m.add_binary(3.0);
        let sol = GreedyRounding::new().solve(&m);
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }
}
