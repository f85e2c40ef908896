//! The degradation governor (DESIGN.md "Graceful degradation"): it judges
//! each cycle's cost against the configured [`CycleBudget`] and walks a
//! ladder of three levels, each with its own caps on the cycle's MILP work
//! ([`LevelCaps`]) and its own solver tier (tier = 2 − level).

use std::time::Duration;

use crate::sched::threesigma::{SchedConfig, SchedStats};

/// Per-cycle cost budget driving the degradation governor.
///
/// Production clusters overrun their scheduling-cycle budget under load;
/// rather than let one slow MILP stall the cycle clock, the governor
/// watches each cycle's cost against this budget and walks a degradation
/// ladder (see [`SchedConfig::cycle_budget`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CycleBudget {
    /// No budget: every cycle runs the full plan-ahead MILP and the
    /// governor never engages (the default — keeps default-config runs
    /// bit-identical to pre-governor behaviour).
    Unlimited,
    /// Wall-clock budget per cycle, in milliseconds (the production knob,
    /// exposed as `--cycle-budget-ms`). Inherently nondeterministic:
    /// level transitions follow real latency, so replay of a budgeted run
    /// is not byte-stable.
    WallClockMs(f64),
    /// Deterministic work-unit budget: (space, slot) options valued by
    /// Eq. 1 plus branch-and-bound nodes expanded, per cycle. A machine-
    /// independent stand-in for wall-clock that the simtest harness uses
    /// so byte-stable replay survives governor activity.
    WorkUnits(u64),
}

/// Consecutive on-budget cycles required before the governor steps the
/// ladder back *down* one level, so a load spike straddling the budget does
/// not flap between levels every cycle. The paper runs one fixed budget
/// per cycle (§4.3.6); the ladder and this hysteresis go beyond it.
const BUDGET_HYSTERESIS: u32 = 3;

/// Hysteresis state of the degradation governor.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Governor {
    /// Current ladder level (0 = full MILP, 1 = shrunken window at tier 1,
    /// 2 = minimal window at tier 0).
    pub(crate) level: u8,
    /// Consecutive on-budget cycles since the last transition.
    pub(crate) streak: u32,
    /// Previous cycle's cost as (work units, wall clock); `None` before
    /// the first cycle, so the first cycle is never judged.
    pub(crate) last_cost: Option<(u64, Duration)>,
}

impl Governor {
    /// Judges the previous cycle against `budget` and moves the ladder by
    /// at most one level. Called at the top of every cycle, *before* any
    /// work, so a cycle runs entirely at one level and transitions are
    /// visible in the cycle trace as ±1 steps.
    pub(crate) fn step(&mut self, budget: CycleBudget, totals: &mut SchedStats) -> u8 {
        let over = match (budget, self.last_cost) {
            (CycleBudget::Unlimited, _) | (_, None) => None,
            (CycleBudget::WallClockMs(ms), Some((_, wall))) => Some(wall.as_secs_f64() * 1e3 > ms),
            (CycleBudget::WorkUnits(units), Some((cost, _))) => Some(cost > units),
        };
        match over {
            None => {}
            Some(true) => {
                totals.budget_overruns += 1;
                self.streak = 0;
                if self.level < 2 {
                    self.level += 1;
                    totals.governor_step_ups += 1;
                }
            }
            Some(false) => {
                self.streak += 1;
                if self.level > 0 && self.streak >= BUDGET_HYSTERESIS {
                    self.level -= 1;
                    totals.governor_step_downs += 1;
                    self.streak = 0;
                }
            }
        }
        totals.degradation_level = self.level as u64;
        self.level
    }
}

/// A cycle's caps on MILP work at its ladder level.
pub(crate) struct LevelCaps {
    /// Start slots in the plan-ahead window.
    pub(crate) plan_slots: usize,
    /// Pending jobs considered.
    pub(crate) max_jobs: usize,
    /// Branch-and-bound node budget.
    pub(crate) solver_nodes: usize,
    /// Solver wall-clock budget.
    pub(crate) solver_time: Duration,
    /// Aggressive §4.3.6 prune: keep at most this many options per job
    /// (degraded levels only).
    pub(crate) max_options: Option<usize>,
}

impl LevelCaps {
    /// The caps at `level`. Level 0 runs the configured plan. Level 1
    /// shrinks the window to 2–4 slots; level 2 runs a minimal 2-slot
    /// window at solver tier 0 (greedy rounding, no search) instead of
    /// bypassing the MILP. Both keep at most `plan_slots` options per job.
    ///
    /// A [`CycleBudget::WorkUnits`] budget `b` bounds the cycle's cost by
    /// construction: options valued ≤ `max_jobs · 2 spaces · plan_slots ≤
    /// b/2^level` and solver nodes ≤ `b/8`, so a level-1 cycle costs at
    /// most 5b/8 and a level-2 one at most 3b/8 (tier 0 expands no nodes
    /// unless the tier is pinned upward). That holds only when `b ≥
    /// 2^level · 2 · plan_slots` (16 units at either level by default):
    /// below it the floors of one job and one node are more than those
    /// shares, and a cycle can overrun `b`. A wall-clock (or, defensively,
    /// no) budget has no exact unit conversion: level 1 quarters the work
    /// and halves the solver clock, level 2 takes an eighth and a quarter.
    pub(crate) fn new(level: u8, cfg: &SchedConfig) -> Self {
        let level = level.min(2);
        if level == 0 {
            return Self {
                plan_slots: cfg.plan_slots,
                max_jobs: cfg.max_jobs_per_cycle,
                solver_nodes: cfg.solver_nodes,
                solver_time: cfg.solver_time,
                max_options: None,
            };
        }
        let plan_slots = if level == 1 {
            cfg.plan_slots.clamp(2, 4)
        } else {
            2
        };
        let (max_jobs, solver_nodes, solver_time) = match cfg.cycle_budget {
            CycleBudget::WorkUnits(b) => {
                let max_jobs = ((b >> level) / (2 * plan_slots as u64)).max(1) as usize;
                let nodes = (b / 8).max(1) as usize;
                (
                    max_jobs.min(cfg.max_jobs_per_cycle),
                    nodes.min(cfg.solver_nodes),
                    cfg.solver_time,
                )
            }
            CycleBudget::WallClockMs(_) | CycleBudget::Unlimited => {
                let cut = 2 << level;
                (
                    (cfg.max_jobs_per_cycle / cut).max(1),
                    (cfg.solver_nodes / cut).max(1),
                    cfg.solver_time / (1 << level),
                )
            }
        };
        Self {
            plan_slots,
            max_jobs,
            solver_nodes,
            solver_time,
            max_options: Some(plan_slots),
        }
    }
}
