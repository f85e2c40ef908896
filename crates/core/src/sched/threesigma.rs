//! 3σSched: the distribution-based MILP scheduler (§4.3).
//!
//! A busy cycle ([`Scheduler::schedule`]) is a pipeline of four stages,
//! one function each, over typed hand-offs:
//!
//! 1. `generate` picks the most urgent pending jobs (bounded by
//!    `max_jobs_per_cycle`), homes each to a mask group and values every
//!    placement option — (equivalence set, start slot) over a plan-ahead
//!    window — by expected utility (Eq. 1) under the job's runtime
//!    distribution, with over-estimate handling adjusting the utility
//!    curve (§4.2.2–4.2.3). Distributions come from the cross-cycle
//!    [`EstimateCache`] (pending jobs only, re-estimated when the predictor
//!    learns; a placed job's estimate moves to its running attempt), by
//!    way of `super::estimate`. → `Generated`
//! 2. `RunningTable::compile` (`super::compile`) charges each option its
//!    expected resource consumption over time (Eq. 3), conditions running
//!    jobs' distributions on their elapsed time (Eq. 2) with
//!    exponential-increment under-estimate handling (§4.2.1), and builds the
//!    MILP: binary indicators per option, demand rows, capacity rows per
//!    (equivalence set, time slot) and preemption indicators for running
//!    best-effort jobs. It owns the per-attempt state it keeps across
//!    cycles. → `CompiledModel`
//! 3. `solve` runs the MILP from a warm start (the status quo is always
//!    feasible) under the level's node/time budget. → [`MipSolution`]
//! 4. `extract` turns slot-zero selections into concrete per-rack gang
//!    allocations and hands placed jobs' estimates to their attempts.
//!    → [`SchedulingDecision`]
//!
//! The degradation governor (`super::governor`) sets each cycle's caps
//! before stage 1. A cycle with nothing pending skips all four and only
//! advances the running side; both paths end in one `CycleTiming`.
//!
//! Capacity rows are kept per *equivalence set* (each distinct preferred
//! rack set, plus the whole cluster) rather than per rack; the extraction
//! step re-validates against true per-rack free capacity and leaves a job
//! pending if its gang cannot actually be packed (a rare Hall-condition
//! corner; see DESIGN.md).

use std::time::Duration;

use super::clock::Stopwatch;

use serde::{Deserialize, Serialize};

use threesigma_cluster::{
    JobId, JobSpec, PartitionId, Placement, Scheduler, SchedulingDecision, SimulationView,
};
use threesigma_milp::{solver_for_tier, MipSolution, Model, SolverConfig};
use threesigma_obs::{Counter, Gauge, Histogram, Recorder};
use threesigma_predict::{EstimatorKind, Predictor, PredictorConfig};

use crate::sched::compile::{Generated, RunningTable};
use crate::sched::estimate::{estimate, unshared_estimate, Attrs, Discretised, EstimateSource};
use crate::sched::governor::{CycleBudget, Governor, LevelCaps};
use crate::sched::groups::MaskGroups;
use crate::sched::options::{self, CacheStats, CompiledOption, EstimateCache, GenInput, RackMask};
use crate::utility::UtilityCurve;
use crate::DiscreteDist;

/// Over-estimate handling policy (§4.2.2–4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverestimateMode {
    /// Hard step utility (PointPerfEst / PointRealEst / 3SigmaNoOE).
    Off,
    /// Decaying utility tail for every SLO job (3SigmaNoAdapt).
    Always,
    /// Decaying tail only for jobs whose distribution says the deadline is
    /// likely unreachable even from submission (3Sigma).
    Adaptive,
}

/// §4.2.3 adaptive over-estimate handling: an SLO job gets the decaying
/// utility tail when `P(runtime ≤ deadline − submit)` is below this.
const OE_THRESHOLD: f64 = 0.15;

/// §3.1 best-effort utility: it decays linearly to its floor over this many
/// seconds after submission. A quarter of it is also a best-effort job's
/// urgency horizon when pending jobs are ordered.
const BE_HORIZON: f64 = 4.0 * 3600.0;

/// §3.1 best-effort utility floor, as a fraction of the job's weight
/// (> 0, so a best-effort job never starves).
const BE_FLOOR: f64 = 0.02;

/// 3σSched tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Start slots in the plan-ahead window (§4.3.6: "plan-ahead window
    /// bounds the complexity").
    pub plan_slots: usize,
    /// Slot width in seconds.
    pub slot_width: f64,
    /// Pending jobs considered per cycle (urgency-ordered; the rest wait).
    pub max_jobs_per_cycle: usize,
    /// Branch-and-bound node budget per cycle.
    pub solver_nodes: usize,
    /// Solver wall-clock budget per cycle (the paper queries the best
    /// solution within a fraction of the scheduling interval).
    pub solver_time: Duration,
    /// Over-estimate handling policy.
    pub oe_mode: OverestimateMode,
    /// Consider preempting running best-effort jobs.
    pub preemption_enabled: bool,
    /// Objective cost of preempting one BE job (in utility units).
    pub preemption_cost: f64,
    /// Read by nothing: a prediction is one mass point per histogram bin,
    /// and an injected or analytic distribution is built with its own point
    /// count. The field stays only because the repo benchmark
    /// (`benchmark/src/batch.rs`) still passes it to
    /// [`DiscreteDist::from_distribution`]; both go together.
    pub mass_points: usize,
    /// Cancel SLO jobs whose every option has zero expected utility.
    pub cancel_hopeless: bool,
    /// Scheduler cycle length hint (exp-inc under-estimate steps, §4.2.1).
    pub cycle_hint: f64,
    /// Record a [`PlanRecord`] per cycle (debugging/introspection; costs
    /// memory proportional to cycles × planned jobs).
    pub record_plans: bool,
    /// Record every cycle's compiled MILP in the bit-exact fixture text
    /// format (see [`ThreeSigmaScheduler::models`]) — the source of the
    /// differential solver-oracle corpus. Costs memory proportional to
    /// cycles × model size; off by default.
    pub record_models: bool,
    /// Per-cycle cost budget for the degradation governor. When a cycle
    /// overruns it, the next cycle runs one level further down the ladder:
    /// level 0 = full plan-ahead MILP (solver tier 2), level 1 = shrunken
    /// window plus aggressive §4.3.6 option pruning at solver tier 1
    /// (LP-relax + repair), level 2 = minimal window at solver tier 0
    /// (greedy rounding, no branch-and-bound search). It steps back down
    /// after a few on-budget cycles in a row.
    pub cycle_budget: CycleBudget,
    /// Pins the solver tier (0 = greedy rounding, 1 = LP-relax + repair,
    /// 2 = full branch-and-bound) instead of deriving it from the
    /// degradation ladder (`--solver-tier`). The governor still walks the
    /// ladder and applies its work caps; only the solve backend is forced.
    pub solver_tier: Option<u8>,
    /// Entry cap for the cross-cycle [`EstimateCache`] (serve mode; see
    /// [`EstimateCache::with_capacity`] for the eviction contract). `None`
    /// leaves the cache unbounded, which batch run lengths already bound.
    pub cache_capacity: Option<usize>,
    /// Cap on retained per-cycle [`CycleTiming`] records, oldest dropped
    /// first. A long-running service must set this: the default unbounded
    /// `Vec` grows one record per cycle forever.
    pub max_timings: Option<usize>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            plan_slots: 8,
            slot_width: 60.0,
            max_jobs_per_cycle: 96,
            solver_nodes: 150,
            // Generous wall-clock budget: the deterministic node budget is
            // the binding limit by default, so runs are exactly
            // reproducible; tighten this (as the paper does, to a fraction
            // of the cycle) when wall-clock matters more than replay.
            solver_time: Duration::from_secs(2),
            oe_mode: OverestimateMode::Adaptive,
            preemption_enabled: true,
            preemption_cost: 1.5,
            mass_points: 40,
            cancel_hopeless: true,
            cycle_hint: 2.0,
            record_plans: false,
            record_models: false,
            cycle_budget: CycleBudget::Unlimited,
            solver_tier: None,
            cache_capacity: None,
            max_timings: None,
        }
    }
}

/// One planned assignment inside a [`PlanRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// The job.
    pub job: JobId,
    /// Chosen start slot (0 = start now; >0 = deferred into the window).
    pub slot: usize,
    /// Absolute planned start time.
    pub start: f64,
    /// Expected utility of the chosen option (Eq. 1).
    pub expected_utility: f64,
    /// Whether the chosen option allows only the job's preferred racks.
    pub preferred_space: bool,
}

/// A cycle's full plan: what the MILP decided, including deferrals that
/// produce no immediate placement (re-planned next cycle, §4.3.1). An idle
/// cycle (nothing pending) solves no MILP; its record is empty but for
/// `now`, the status quo it keeps.
#[derive(Debug, Clone, Default)]
pub struct PlanRecord {
    /// Simulated time of the cycle.
    pub now: f64,
    /// Jobs selected to start now.
    pub started: Vec<PlannedJob>,
    /// Jobs deliberately deferred to a later slot.
    pub deferred: Vec<PlannedJob>,
    /// Jobs chosen to start now whose gang extraction could not pack into
    /// the chosen racks (nodes taken by gangs placed before it in the same
    /// cycle); they stay pending. With `started` and `deferred`, this
    /// partitions the chosen options.
    pub unpackable: Vec<PlannedJob>,
    /// Running jobs the plan preempts.
    pub preempted: Vec<JobId>,
    /// Pending jobs abandoned as hopeless.
    pub cancelled: Vec<JobId>,
    /// MILP objective of the chosen plan.
    pub objective: f64,
}

/// Per-cycle timing record (the §6.5 scalability measurements), with a
/// per-stage latency breakdown. The stages are disjoint, so
/// `generate + compile + solver + extract ≤ total`. An idle cycle (nothing
/// pending) builds no MILP: `compile` is the time it spent advancing the
/// running-side table, and its other stage times, `milp_vars`, `milp_rows`,
/// `nodes` and `cost_units` are zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleTiming {
    /// Pending jobs visible this cycle.
    pub pending: usize,
    /// Jobs actually compiled into the MILP.
    pub considered: usize,
    /// MILP columns.
    pub milp_vars: usize,
    /// MILP rows.
    pub milp_rows: usize,
    /// Whole-cycle latency (option generation + compile + solve + extract).
    pub total: Duration,
    /// Option-generation latency: job selection, estimate-cache refresh,
    /// and Eq. 1 valuation of every (space, slot) option.
    pub generate: Duration,
    /// MILP compilation latency: demand rows, running-job conditioning
    /// (Eq. 2), and bucketed capacity rows (Eq. 3).
    pub compile: Duration,
    /// Solver latency alone.
    pub solver: Duration,
    /// Extraction latency: preemptions, slot-zero gang packing, plan
    /// records, and estimate-cache bookkeeping.
    pub extract: Duration,
    /// Branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Degradation-ladder level this cycle ran at (0 = full MILP,
    /// 1 = shrunken window at tier 1, 2 = minimal window at tier 0).
    pub level: u8,
    /// Solver tier the cycle's MILP ran at (0 = greedy rounding,
    /// 1 = LP-relax + repair, 2 = full branch-and-bound).
    pub solver_tier: u8,
    /// Deterministic cycle cost in work units (options valued + solver
    /// nodes expanded) — what [`CycleBudget::WorkUnits`] is charged
    /// against.
    pub cost_units: u64,
}

/// Deterministic cumulative scheduler counters, kept as plain integers on
/// the hot path and mirrored into the metrics [`Recorder`] once per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Scheduling cycles executed.
    pub cycles: u64,
    /// (space, slot) options valued by Eq. 1, including pruned ones.
    pub options_enumerated: u64,
    /// Options dropped by the §4.3.6 zero-value prune.
    pub options_pruned: u64,
    /// Options that became concrete placements.
    pub options_placed: u64,
    /// Estimate-cache stats (base and scaled lookups).
    pub cache: CacheStats,
    /// Branch-and-bound nodes expanded across all cycles.
    pub milp_nodes: u64,
    /// Simplex pivots (LP iterations) across all cycles.
    pub milp_pivots: u64,
    /// Times the solver created or improved an incumbent.
    pub milp_incumbent_updates: u64,
    /// Cycles whose solve ended on the wall-clock budget.
    pub solver_timeouts: u64,
    /// Cycles where the accepted plan is the warm-started status quo (the
    /// search never improved on the seed incumbent).
    pub warm_start_reuses: u64,
    /// Times the predictor's chosen (feature, estimator) expert changed
    /// between consecutive submission-time predictions.
    pub expert_switches: u64,
    /// Current degradation-ladder level (0 = full MILP; not cumulative,
    /// but kept here so the obs flush carries it with the counters).
    pub degradation_level: u64,
    /// Times the governor stepped the ladder up (degrading) by one level.
    pub governor_step_ups: u64,
    /// Times the governor stepped the ladder back down by one level.
    pub governor_step_downs: u64,
    /// Cycles whose cost exceeded the configured [`CycleBudget`].
    pub budget_overruns: u64,
    /// Solver tier of the most recent cycle (0/1/2; not cumulative, kept
    /// here so the obs flush carries it with the counters).
    pub solver_tier: u64,
    /// Cycles solved at tier 0 (greedy rounding of the LP relaxation).
    pub tier0_cycles: u64,
    /// Cycles solved at tier 1 (root LP + round-and-repair).
    pub tier1_cycles: u64,
    /// Cycles solved at tier 2 (full branch-and-bound).
    pub tier2_cycles: u64,
    /// Retired: tier-2 solves once answered from a cross-cycle solution
    /// cache that no longer exists. Nothing adds to it and it is not
    /// exported as a metric; it stays because the repository benchmark
    /// reads it.
    pub incremental_reuses: u64,
    /// Presolve reductions across all cycles: variables fixed, rows
    /// absorbed, dominated options removed, and bounds tightened.
    pub presolve_reductions: u64,
}

impl SchedStats {
    /// Records the solver tier a cycle ran at.
    fn count_tier(&mut self, tier: u8) {
        self.solver_tier = u64::from(tier);
        match tier {
            0 => self.tier0_cycles += 1,
            1 => self.tier1_cycles += 1,
            _ => self.tier2_cycles += 1,
        }
    }
}

/// Serialisable scheduler state for serve-mode restarts: the predictor's
/// sketches and NMAE expert accounts, the cumulative counters, the
/// degradation-governor ladder position, and the estimate-cache epoch and
/// lifetime stats. Cache *entries* are deliberately absent — the cache
/// holds pending jobs only (a placed job's estimate leaves it for the
/// running attempt), a quiescent session has none, and any entry is
/// re-derived on demand from the restored predictor. The solver keeps
/// nothing between cycles, so there is no solver state to save.
///
/// Field order is the byte-stability contract: serialisation is
/// `serde_json` over this struct in declaration order, so the same state
/// always produces the same bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedSnapshot {
    /// Predictor sketches, expert scores, and LRU touch order.
    pub predictor: threesigma_predict::Snapshot,
    /// Cumulative counters (the `cache` field inside is ignored; see
    /// `cache_stats`).
    pub totals: SchedStats,
    /// Estimate-cache lifetime counters.
    pub cache_stats: CacheStats,
    /// Estimate-cache history epoch.
    pub cache_epoch: u64,
    /// Degradation-ladder level at snapshot time.
    pub governor_level: u8,
    /// Governor on-budget streak at snapshot time.
    pub governor_streak: u32,
    /// Last (feature, estimator) expert chosen before the snapshot, by
    /// feature name.
    pub last_expert: Option<(String, EstimatorKind)>,
}

/// Metric handles registered against the attached [`Recorder`]; kept
/// alongside the scheduler so the per-cycle flush only touches atomics.
struct SchedMetrics {
    cycles: Counter,
    options_enumerated: Counter,
    options_pruned: Counter,
    options_placed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_lookups: Counter,
    cache_entries: Gauge,
    cache_capacity: Gauge,
    cache_evictions: Counter,
    milp_nodes: Counter,
    milp_pivots: Counter,
    incumbent_updates: Counter,
    solver_timeouts: Counter,
    warm_start_reuses: Counter,
    expert_switches: Counter,
    degradation_level: Gauge,
    cycle_cost_units: Gauge,
    governor_step_ups: Counter,
    governor_step_downs: Counter,
    budget_overruns: Counter,
    solver_tier: Gauge,
    tier0_cycles: Counter,
    tier1_cycles: Counter,
    tier2_cycles: Counter,
    presolve_reductions: Counter,
    predict_tracked_values: Gauge,
    predict_tracked_values_limit: Gauge,
    predict_evicted_values: Counter,
    predict_censored: Counter,
    predict_observations: Counter,
    predict_bin_merges: Counter,
    predict_best_nmae: Gauge,
    generate_seconds: Histogram,
    compile_seconds: Histogram,
    solve_seconds: Histogram,
    extract_seconds: Histogram,
    cycle_seconds: Histogram,
}

impl SchedMetrics {
    fn register(rec: &Recorder) -> Self {
        Self {
            cycles: rec.counter("sched_cycles_total", "Scheduling cycles executed"),
            options_enumerated: rec.counter(
                "sched_options_enumerated_total",
                "(space, slot) options valued by Eq. 1, including pruned",
            ),
            options_pruned: rec.counter(
                "sched_options_pruned_total",
                "Options dropped by the zero-value prune",
            ),
            options_placed: rec.counter(
                "sched_options_placed_total",
                "Options that became concrete placements",
            ),
            cache_hits: rec.counter("sched_cache_hits_total", "Estimate-cache hits"),
            cache_misses: rec.counter("sched_cache_misses_total", "Estimate-cache misses"),
            cache_lookups: rec.counter("sched_cache_lookups_total", "Estimate-cache lookups"),
            cache_entries: rec.gauge(
                "sched_cache_entries",
                "Estimate-cache entries currently held",
            ),
            cache_capacity: rec.gauge(
                "sched_cache_capacity",
                "Configured estimate-cache entry cap (0 = unbounded)",
            ),
            cache_evictions: rec.counter(
                "sched_cache_evictions_total",
                "Estimate-cache entries evicted by the capacity cap",
            ),
            milp_nodes: rec.counter("sched_milp_nodes_total", "Branch-and-bound nodes expanded"),
            milp_pivots: rec.counter("sched_milp_pivots_total", "Simplex pivots (LP iterations)"),
            incumbent_updates: rec.counter(
                "sched_milp_incumbent_updates_total",
                "Times the solver created or improved an incumbent",
            ),
            solver_timeouts: rec.counter(
                "sched_solver_timeouts_total",
                "Cycles whose solve ended on the wall-clock budget",
            ),
            warm_start_reuses: rec.counter(
                "sched_warm_start_reuse_total",
                "Cycles where the plan is the warm-started status quo",
            ),
            expert_switches: rec.counter(
                "sched_expert_switches_total",
                "Predictor (feature, estimator) expert changes between predictions",
            ),
            degradation_level: rec.gauge(
                "sched_degradation_level",
                "Current degradation-ladder level (0 = full MILP, 2 = minimal greedy)",
            ),
            cycle_cost_units: rec.gauge(
                "sched_cycle_cost_units",
                "Last cycle's deterministic cost (options valued + solver nodes)",
            ),
            governor_step_ups: rec.counter(
                "sched_governor_step_ups_total",
                "Governor degradations (ladder stepped up one level)",
            ),
            governor_step_downs: rec.counter(
                "sched_governor_step_downs_total",
                "Governor recoveries (ladder stepped down one level)",
            ),
            budget_overruns: rec.counter(
                "sched_budget_overruns_total",
                "Cycles whose cost exceeded the configured budget",
            ),
            solver_tier: rec.gauge(
                "sched_solver_tier",
                "Solver tier of the last cycle (0 greedy, 1 LP+repair, 2 B&B)",
            ),
            tier0_cycles: rec.counter(
                "sched_solver_tier0_cycles_total",
                "Cycles solved at tier 0 (greedy rounding)",
            ),
            tier1_cycles: rec.counter(
                "sched_solver_tier1_cycles_total",
                "Cycles solved at tier 1 (LP-relax + repair)",
            ),
            tier2_cycles: rec.counter(
                "sched_solver_tier2_cycles_total",
                "Cycles solved at tier 2 (full branch-and-bound)",
            ),
            presolve_reductions: rec.counter(
                "sched_presolve_reductions_total",
                "Presolve reductions (fixed vars, rows, dominated options, bounds)",
            ),
            predict_censored: rec.counter(
                "predict_censored_observations_total",
                "Killed/failed runs recorded as censored lower bounds only",
            ),
            predict_tracked_values: rec.gauge(
                "predict_tracked_values",
                "Attribute values with per-value runtime history",
            ),
            predict_tracked_values_limit: rec.gauge(
                "predict_tracked_values_limit",
                "Configured cap on tracked feature values (0 = unbounded)",
            ),
            predict_evicted_values: rec.counter(
                "predict_evicted_values_total",
                "Feature-value states evicted by the LRU/TTL bound",
            ),
            predict_observations: rec.counter(
                "predict_observations_total",
                "Runtime observations folded into the predictor",
            ),
            predict_bin_merges: rec.counter(
                "predict_bin_merges_total",
                "Streaming-histogram bin merges across all tracked values",
            ),
            predict_best_nmae: rec.gauge(
                "predict_best_nmae",
                "Best (lowest) per-feature NMAE currently achieved",
            ),
            generate_seconds: rec.timer(
                "sched_generate_seconds",
                "Option-generation stage latency per cycle",
            ),
            compile_seconds: rec.timer(
                "sched_compile_seconds",
                "MILP compilation stage latency per cycle",
            ),
            solve_seconds: rec.timer("sched_solve_seconds", "MILP solver latency per cycle"),
            extract_seconds: rec.timer(
                "sched_extract_seconds",
                "Placement extraction stage latency per cycle",
            ),
            cycle_seconds: rec.timer("sched_cycle_seconds", "Whole scheduling cycle latency"),
        }
    }

    fn flush(
        &self,
        stats: &SchedStats,
        predictor: &Predictor,
        cache: &EstimateCache,
        timing: &CycleTiming,
    ) {
        self.cycles.set_total(stats.cycles);
        self.options_enumerated.set_total(stats.options_enumerated);
        self.options_pruned.set_total(stats.options_pruned);
        self.options_placed.set_total(stats.options_placed);
        self.cache_hits.set_total(stats.cache.hits);
        self.cache_misses.set_total(stats.cache.misses);
        self.cache_lookups.set_total(stats.cache.lookups);
        self.cache_entries.set(cache.len() as f64);
        self.cache_capacity
            .set(cache.capacity().unwrap_or(0) as f64);
        self.cache_evictions.set_total(stats.cache.evictions);
        self.milp_nodes.set_total(stats.milp_nodes);
        self.milp_pivots.set_total(stats.milp_pivots);
        self.incumbent_updates
            .set_total(stats.milp_incumbent_updates);
        self.solver_timeouts.set_total(stats.solver_timeouts);
        self.warm_start_reuses.set_total(stats.warm_start_reuses);
        self.expert_switches.set_total(stats.expert_switches);
        self.degradation_level.set(stats.degradation_level as f64);
        self.cycle_cost_units.set(timing.cost_units as f64);
        self.governor_step_ups.set_total(stats.governor_step_ups);
        self.governor_step_downs
            .set_total(stats.governor_step_downs);
        self.budget_overruns.set_total(stats.budget_overruns);
        self.solver_tier.set(stats.solver_tier as f64);
        self.tier0_cycles.set_total(stats.tier0_cycles);
        self.tier1_cycles.set_total(stats.tier1_cycles);
        self.tier2_cycles.set_total(stats.tier2_cycles);
        self.presolve_reductions
            .set_total(stats.presolve_reductions);
        // O(1): the full `predictor.stats()` scan over every tracked
        // feature value is far too slow to run once per cycle.
        let ps = predictor.quick_stats();
        self.predict_tracked_values.set(ps.tracked_values as f64);
        self.predict_tracked_values_limit
            .set(predictor.tracked_values_limit().unwrap_or(0) as f64);
        self.predict_evicted_values.set_total(ps.evictions);
        self.predict_observations.set_total(ps.observations);
        self.predict_bin_merges.set_total(ps.bin_merges);
        self.predict_censored.set_total(ps.censored);
        if let Some(best) = ps.best_nmae {
            self.predict_best_nmae.set(best);
        }
        self.generate_seconds.observe_duration(timing.generate);
        self.compile_seconds.observe_duration(timing.compile);
        self.solve_seconds.observe_duration(timing.solver);
        self.extract_seconds.observe_duration(timing.extract);
        self.cycle_seconds.observe_duration(timing.total);
    }
}

/// The 3σSched scheduler (and, via its config, all Table 1 baselines
/// except `Prio`).
pub struct ThreeSigmaScheduler {
    config: SchedConfig,
    source: EstimateSource,
    predictor: Predictor,
    /// Cross-cycle cache of pending jobs' discretised distributions (base
    /// and slowdown-scaled), epoch-invalidated as the predictor learns.
    cache: EstimateCache,
    /// Discretised predictions, shared per predictor state version.
    discretised: Discretised,
    /// Per-attempt state of the running set (prior, exp-inc, Eq. 2
    /// conditionals), owned by the compile stage.
    running: RunningTable,
    timings: Vec<CycleTiming>,
    plans: Vec<PlanRecord>,
    /// Per-cycle MILP dumps in fixture text (empty unless `record_models`).
    models: Vec<String>,
    /// Cumulative deterministic counters (excluding cache stats, which
    /// live on the cache itself).
    totals: SchedStats,
    /// Last (feature, estimator) expert the predictor chose.
    last_expert: Option<(&'static str, EstimatorKind)>,
    /// Degradation-governor state (level, hysteresis streak, last cost).
    governor: Governor,
    /// Registered metric handles when a recorder is attached.
    obs: Option<SchedMetrics>,
    /// Runs idle cycles through the full MILP path (the differential
    /// tests' reference for the idle fast path).
    #[cfg(test)]
    full_idle_cycles: bool,
}

impl ThreeSigmaScheduler {
    /// Creates a scheduler with the given estimate source.
    pub fn new(
        config: SchedConfig,
        source: EstimateSource,
        predictor_config: PredictorConfig,
    ) -> Self {
        let cache = match config.cache_capacity {
            Some(cap) => EstimateCache::with_capacity(cap),
            None => EstimateCache::new(),
        };
        Self {
            config,
            source,
            predictor: Predictor::new(predictor_config),
            cache,
            discretised: Discretised::default(),
            running: RunningTable::default(),
            timings: Vec::new(),
            plans: Vec::new(),
            models: Vec::new(),
            totals: SchedStats::default(),
            last_expert: None,
            governor: Governor::default(),
            obs: None,
            #[cfg(test)]
            full_idle_cycles: false,
        }
    }

    /// Current degradation-ladder level (0 = full MILP at tier 2, 1 =
    /// capped MILP at tier 1, 2 = minimal window at tier 0).
    pub fn degradation_level(&self) -> u8 {
        self.governor.level
    }

    /// Solver tier the most recent cycle ran at (2 until a cycle runs).
    pub fn solver_tier(&self) -> u8 {
        self.timings.last().map(|t| t.solver_tier).unwrap_or(2)
    }

    /// Attaches a metrics recorder; cumulative counters and stage timers
    /// are published through it at the end of every scheduling cycle.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        // A disabled recorder registers nothing: the per-cycle flush (which
        // also aggregates predictor stats) is skipped entirely, keeping the
        // default path free of observability overhead.
        if recorder.is_enabled() {
            self.obs = Some(SchedMetrics::register(recorder));
        }
        self
    }

    /// Cumulative deterministic scheduler counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            cache: self.cache.stats(),
            ..self.totals
        }
    }

    /// Captures the scheduler state a serve-mode restart must carry (see
    /// [`SchedSnapshot`]). Meant to be taken at engine quiescence: running
    /// attempts' priors and exp-inc state are transient per-attempt
    /// bookkeeping that an idle scheduler does not hold.
    pub fn serve_snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            predictor: self.predictor.snapshot(),
            totals: self.totals,
            cache_stats: self.cache.stats(),
            cache_epoch: self.cache.epoch(),
            governor_level: self.governor.level,
            governor_streak: self.governor.streak,
            last_expert: self.last_expert.map(|(f, k)| (f.to_string(), k)),
        }
    }

    /// Restores state captured by [`Self::serve_snapshot`] into a freshly
    /// constructed scheduler (same config). The governor's previous-cycle
    /// cost restores as "unknown", so the first cycle after a restart is
    /// never judged against the budget — identical to the very first cycle
    /// of any run.
    pub fn serve_restore(&mut self, snapshot: SchedSnapshot) -> Result<(), String> {
        self.predictor
            .restore(snapshot.predictor)
            .map_err(|e| format!("predictor snapshot: {e}"))?;
        self.totals = snapshot.totals;
        self.cache
            .restore_stats(snapshot.cache_stats, snapshot.cache_epoch);
        self.governor = Governor {
            level: snapshot.governor_level,
            streak: snapshot.governor_streak,
            last_cost: None,
        };
        self.last_expert = match snapshot.last_expert {
            Some((name, kind)) => {
                let feature = self.predictor.canonical_feature(&name).ok_or_else(|| {
                    format!("snapshot expert feature {name:?} is not in the feature set")
                })?;
                Some((feature, kind))
            }
            None => None,
        };
        Ok(())
    }

    /// Feeds completed history jobs to the predictor (the §5 pre-training
    /// step). No-op for sources that do not read the predictor (oracle and
    /// injected).
    pub fn pretrain(&mut self, history: &[JobSpec]) {
        if !self.source.reads_predictor() {
            return;
        }
        for job in history {
            self.predictor
                .observe(&Attrs(&job.attributes), job.duration);
        }
    }

    /// Per-cycle timing records collected so far.
    pub fn timings(&self) -> &[CycleTiming] {
        &self.timings
    }

    /// Per-cycle plan records (empty unless `record_plans` is set).
    pub fn plans(&self) -> &[PlanRecord] {
        &self.plans
    }

    /// Per-cycle MILP dumps in the bit-exact fixture text format (empty
    /// unless `record_models` is set). Feed these to
    /// `threesigma_milp::Model::from_text` to replay a cycle's solve.
    pub fn models(&self) -> &[String] {
        &self.models
    }

    /// Stage 1: selects the most urgent pending jobs, homes each to a mask
    /// group, refreshes their cached estimates, and values every (space,
    /// slot) option by Eq. 1.
    fn generate<'v>(
        &mut self,
        view: &SimulationView<'v>,
        now: f64,
        caps: &LevelCaps,
    ) -> Generated<'v> {
        let Self {
            config: cfg,
            source,
            predictor,
            cache,
            discretised,
            totals,
            ..
        } = self;
        let mut order: Vec<usize> = (0..view.pending.len()).collect();
        let urgency = |spec: &JobSpec| match spec.kind.deadline() {
            Some(d) => d,
            None => spec.submit_time + 0.25 * BE_HORIZON,
        };
        // `total_cmp` keeps the sort well-defined even for a NaN deadline
        // (NaN orders last), so one malformed job cannot stop the engine.
        order.sort_by(|&a, &b| urgency(view.pending[a]).total_cmp(&urgency(view.pending[b])));
        order.truncate(caps.max_jobs);
        let considered: Vec<&JobSpec> = order.iter().map(|&i| view.pending[i]).collect();

        // Partition → mask-group layout. Clusters that fit one RackMask get
        // a single group whose local coordinates equal global coordinates.
        // Larger clusters split into contiguous ≤128-rack groups and every
        // job is homed to exactly one group.
        let groups = MaskGroups::new(view.cluster.num_partitions());
        let multi_group = groups.num_groups() > 1;

        // Distinct (group, equivalence-set mask) pairs that need capacity
        // rows: each group's full mask first, then per-job preferred masks.
        let mut space_masks: Vec<(usize, RackMask)> = (0..groups.num_groups())
            .map(|g| (g, groups.group_mask(g)))
            .collect();
        let mut gen_inputs: Vec<GenInput> = Vec::with_capacity(considered.len());
        // Home mask group per considered job (parallel to `gen_inputs`).
        let mut job_groups: Vec<usize> = Vec::with_capacity(considered.len());
        for spec in &considered {
            let g = groups.home_group(spec, view.cluster);
            let gmask = groups.group_mask(g);
            let base = cache.base(spec.id, || estimate(source, predictor, discretised, spec).0);
            let curve = utility_curve(cfg, spec, &base);
            // Equivalence sets for this job: preferred racks (unscaled
            // runtime) and the job's whole home group (slowed runtime), or
            // just the home group for indifferent jobs. On a single-group
            // cluster the home group *is* the whole cluster.
            // The base() call above guarantees an entry, so scaled() cannot
            // miss; if bookkeeping ever slips, fall back to the unscaled
            // base — a degraded valuation, not a panic.
            let mut spaces = Vec::new();
            match &spec.preferred {
                Some(pref) => {
                    // Remap preferred racks into group-local mask bits; at
                    // scale, preferred racks outside the job's home group
                    // are ignored (DESIGN.md §8).
                    let pmask = if multi_group {
                        pref.iter()
                            .filter(|p| {
                                p.index() < view.cluster.num_partitions()
                                    && groups.group_of(**p) == g
                            })
                            .fold(RackMask::EMPTY, |m, p| {
                                m.with(RackMask::single(groups.to_local(g, *p)))
                            })
                    } else {
                        RackMask::of(pref)
                    };
                    let unit = cache.scaled(spec.id, 1.0).unwrap_or_else(|| base.clone());
                    let slowed = cache
                        .scaled(spec.id, spec.nonpreferred_slowdown)
                        .unwrap_or_else(|| base.clone());
                    if multi_group && pmask.is_empty() {
                        // Every preferred rack fell outside the home group:
                        // the job can only run off-preferred there.
                        spaces.push((gmask, slowed));
                    } else {
                        spaces.push((pmask, unit));
                        spaces.push((gmask, slowed));
                        if !space_masks.contains(&(g, pmask)) {
                            space_masks.push((g, pmask));
                        }
                    }
                }
                None => {
                    let unit = cache.scaled(spec.id, 1.0).unwrap_or_else(|| base.clone());
                    spaces.push((gmask, unit));
                }
            }
            gen_inputs.push(GenInput { spaces, curve });
            job_groups.push(g);
        }
        let slots = slot_times(now, cfg.slot_width, caps.plan_slots);
        let job_options = options::generate(&gen_inputs, &slots, caps.max_options);
        for jo in &job_options {
            totals.options_enumerated += jo.enumerated as u64;
            totals.options_pruned += jo.pruned as u64;
        }
        Generated {
            considered,
            job_groups,
            job_options,
            space_masks,
            groups,
            slots,
        }
    }

    /// Stage 4: reads the chosen plan back into the cycle's decision.
    /// Preemptions go first (their nodes are free now), then slot-zero
    /// choices are packed fullest-first, best utility first; a gang that
    /// does not pack stays pending. Cancelled jobs leave the estimate
    /// cache, and a placed job's estimate moves to the attempt it starts.
    fn extract(
        &mut self,
        view: &SimulationView<'_>,
        now: f64,
        generated: &Generated<'_>,
        solution: &MipSolution,
    ) -> SchedulingDecision {
        let Generated {
            considered,
            groups,
            slots,
            ..
        } = generated;
        let cm = self.running.compiled();
        let mut decision = SchedulingDecision {
            cancellations: cm.hopeless.clone(),
            ..SchedulingDecision::noop()
        };
        if solution.has_solution() {
            let x = &solution.values;
            let mut freed: Vec<u32> = vec![0; view.cluster.num_partitions()];
            for (ri, r) in cm.running.iter().zip(&view.running) {
                if let Some(pv) = ri.preempt_var {
                    if x[pv.index()] > 0.5 {
                        decision.preemptions.push(ri.id);
                        for (p, n) in r.allocation {
                            if let Some(f) = freed.get_mut(p.index()) {
                                *f += n;
                            }
                        }
                    }
                }
            }
            let mut free: Vec<u32> = view.free.iter().zip(&freed).map(|(f, e)| f + e).collect();
            let mut chosen: Vec<&CompiledOption> = cm
                .compiled
                .iter()
                .filter(|o| o.slot == 0 && x[o.var.index()] > 0.5)
                .collect();
            chosen.sort_by(|a, b| {
                let ua = cm.model.objective_coeff(a.var);
                let ub = cm.model.objective_coeff(b.var);
                ub.total_cmp(&ua)
            });
            for opt in chosen {
                let spec = considered[opt.job_idx];
                let (start, len) = groups.group_range(opt.group);
                if let Some(alloc) =
                    pack_gang(spec.tasks, opt.mask, &free[start..start + len], start)
                {
                    for (p, n) in &alloc {
                        free[p.index()] -= n;
                    }
                    decision.placements.push(Placement {
                        job: spec.id,
                        allocation: alloc,
                    });
                } // else: Hall corner — job stays pending this cycle.
            }

            if self.config.record_plans {
                let mut record = PlanRecord {
                    now,
                    preempted: decision.preemptions.clone(),
                    cancelled: decision.cancellations.clone(),
                    objective: solution.objective,
                    ..PlanRecord::default()
                };
                let placed: std::collections::HashSet<JobId> =
                    decision.placements.iter().map(|p| p.job).collect();
                for opt in &cm.compiled {
                    if x[opt.var.index()] <= 0.5 {
                        continue;
                    }
                    let spec = considered[opt.job_idx];
                    let planned = PlannedJob {
                        job: spec.id,
                        slot: opt.slot,
                        start: slots[opt.slot],
                        expected_utility: cm.model.objective_coeff(opt.var),
                        preferred_space: opt.mask != groups.group_mask(opt.group),
                    };
                    if opt.slot > 0 {
                        record.deferred.push(planned);
                    } else if placed.contains(&spec.id) {
                        record.started.push(planned);
                    } else {
                        record.unpackable.push(planned);
                    }
                }
                self.plans.push(record);
            }
        }
        // A preempted job's estimate left with its placement; back in
        // pending, it is re-estimated from fresh history.
        for id in &decision.cancellations {
            self.cache.invalidate(*id);
        }
        for p in &decision.placements {
            if let Some(base) = self.cache.take(p.job) {
                self.running.place(p.job, base);
            }
        }
        self.totals.options_placed += decision.placements.len() as u64;
        decision
    }

    /// Closes a cycle: records its cost for the governor, flushes the
    /// counters to the attached recorder and keeps its timing record.
    fn finish_cycle(&mut self, timing: CycleTiming) {
        self.discretised.prune();
        self.governor.last_cost = Some((timing.cost_units, timing.total));
        if let Some(obs) = &self.obs {
            obs.flush(&self.stats(), &self.predictor, &self.cache, &timing);
        }
        self.timings.push(timing);
        if let Some(cap) = self.config.max_timings {
            if self.timings.len() > cap {
                let excess = self.timings.len() - cap;
                self.timings.drain(..excess);
            }
        }
    }

    /// The estimate distribution for a job, per the configured source
    /// (uncached; the scheduling cycle goes through the [`EstimateCache`]).
    #[cfg(test)]
    fn estimate(&self, spec: &JobSpec) -> DiscreteDist {
        unshared_estimate(&self.source, &self.predictor, spec)
    }
}

/// Stage 3: solves the cycle's MILP from the status quo (every indicator
/// zero, always feasible) with the `tier` backend under the level's node
/// and time budgets, and counts its work.
fn solve(model: &Model, caps: &LevelCaps, tier: u8, totals: &mut SchedStats) -> MipSolution {
    let config = SolverConfig {
        node_limit: caps.solver_nodes,
        time_limit: Some(caps.solver_time),
        gap_tolerance: 1e-4,
        ..SolverConfig::default()
    };
    let warm = vec![0.0; model.num_vars()];
    let solution = solver_for_tier(tier, config).solve_with_warm_start(model, Some(&warm));
    totals.presolve_reductions += solution.presolve.total() as u64;
    totals.milp_nodes += solution.nodes as u64;
    totals.milp_pivots += solution.lp_iterations as u64;
    totals.milp_incumbent_updates += solution.incumbent_updates as u64;
    totals.solver_timeouts += u64::from(solution.timed_out);
    // Exactly one incumbent event means the warm-start seed was never
    // improved on: the accepted plan is the status quo.
    totals.warm_start_reuses +=
        u64::from(solution.has_solution() && solution.incumbent_updates == 1);
    solution
}

/// The utility curve for a job, applying over-estimate handling.
fn utility_curve(cfg: &SchedConfig, spec: &JobSpec, dist: &DiscreteDist) -> UtilityCurve {
    match spec.kind.deadline() {
        None => UtilityCurve::BeLinear {
            weight: spec.utility_weight,
            submit: spec.submit_time,
            horizon: BE_HORIZON,
            floor: BE_FLOOR,
        },
        Some(deadline) => {
            let decay = match cfg.oe_mode {
                OverestimateMode::Off => false,
                OverestimateMode::Always => true,
                OverestimateMode::Adaptive => {
                    // §4.2.3: time-to-deadline is a proxy upper bound on
                    // the true runtime; if the distribution says the job
                    // almost surely cannot fit that bound, the
                    // distribution is likely skewed high.
                    let bound = deadline - spec.submit_time;
                    dist.cdf(bound) < OE_THRESHOLD
                }
            };
            if decay {
                // §4.2.2: utility decays to zero one time-to-deadline past
                // the deadline. The decay must span the distribution's
                // support, or a fully over-estimated job would still see
                // zero utility everywhere (§4.2.2 wants non-zero utility
                // even when all completion times exceed the deadline).
                let span = (deadline - spec.submit_time)
                    .max(dist.upper())
                    .max(cfg.slot_width);
                UtilityCurve::SloDecay {
                    weight: spec.utility_weight,
                    deadline,
                    zero_at: deadline + span,
                }
            } else {
                UtilityCurve::SloStep {
                    weight: spec.utility_weight,
                    deadline,
                }
            }
        }
    }
}

/// Start-slot times: slot 0 is "now"; later slots snap to absolute
/// `slot_width` boundaries so a deferred plan (e.g. "start when the running
/// job's distribution is exhausted") stays stable across scheduling cycles
/// instead of drifting with the cycle clock.
fn slot_times(now: f64, width: f64, slots: usize) -> Vec<f64> {
    let mut ts = Vec::with_capacity(slots);
    ts.push(now);
    let base = (now / width).floor();
    for k in 1..slots {
        ts.push((base + k as f64) * width);
    }
    ts
}

impl Scheduler for ThreeSigmaScheduler {
    fn on_job_submitted(&mut self, spec: &JobSpec, _now: f64) {
        let (d, expert) = estimate(&self.source, &self.predictor, &mut self.discretised, spec);
        // Seed the cache; the entry is lazily refreshed every time the
        // history epoch moves while the job is still pending.
        let _ = self.cache.base(spec.id, || d);
        // Track which (feature, estimator) expert the predictor currently
        // trusts; a change between consecutive predictions is an expert
        // switch (estimator-competition churn, §4.1).
        if let Some(expert) = expert {
            if self.last_expert.is_some_and(|prev| prev != expert) {
                self.totals.expert_switches += 1;
            }
            self.last_expert = Some(expert);
        }
    }

    fn on_job_completed(
        &mut self,
        spec: &JobSpec,
        outcome: &threesigma_cluster::JobOutcome,
        _now: f64,
    ) {
        if let Some(rt) = outcome.measured_runtime {
            self.predictor.observe(&Attrs(&spec.attributes), rt);
            // The predictor learned: pending jobs' estimates are stale.
            self.cache.bump_epoch();
        }
    }

    fn on_job_killed(&mut self, spec: &JobSpec, elapsed: f64, _will_retry: bool, _now: f64) {
        // A killed run's elapsed time is a *censored* lower bound on the
        // true runtime — it must never enter the per-feature histograms as
        // a completion (that would bias every history short, since long
        // jobs are exactly the ones most likely to be killed). No epoch
        // bump either: the histories did not change.
        self.predictor
            .observe_censored(&Attrs(&spec.attributes), elapsed);
    }

    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
        let cycle_start = Stopwatch::start();
        // Judge the previous cycle against the budget and settle this
        // cycle's ladder level before doing any work. Each rung maps to a
        // solver tier (tier = 2 − level unless pinned by `solver_tier`).
        let level = self
            .governor
            .step(self.config.cycle_budget, &mut self.totals);
        self.totals.cycles += 1;
        let caps = LevelCaps::new(level, &self.config);
        let tier = self.config.solver_tier.unwrap_or(2 - level.min(2)).min(2);
        let mut timing = CycleTiming {
            pending: view.pending.len(),
            level,
            solver_tier: tier,
            ..CycleTiming::default()
        };

        // Idle cycle: nothing pending. The MILP's only columns are
        // preemption indicators of negative cost and every capacity row
        // admits the all-zero plan, so the status quo is its unique optimum
        // (DESIGN.md "Idle cycles"). Only the running side advances.
        let idle = view.pending.is_empty() && self.config.preemption_cost > 0.0;
        #[cfg(test)]
        let idle = idle && !self.full_idle_cycles;
        let decision = if idle {
            let compile_start = Stopwatch::start();
            let estimate = |spec: &JobSpec| unshared_estimate(&self.source, &self.predictor, spec);
            self.running
                .advance(&self.config, view, now, estimate, None);
            timing.compile = compile_start.elapsed();
            if self.config.record_plans {
                self.plans.push(PlanRecord {
                    now,
                    ..PlanRecord::default()
                });
            }
            SchedulingDecision::noop()
        } else {
            let generated = self.generate(view, now, &caps);
            timing.generate = cycle_start.elapsed();

            let compile_start = Stopwatch::start();
            let estimate = |spec: &JobSpec| unshared_estimate(&self.source, &self.predictor, spec);
            let cm = self
                .running
                .compile(&self.config, view, now, &generated, estimate);
            self.totals.options_pruned += cm.pruned;
            timing.compile = compile_start.elapsed();
            if self.config.record_models {
                self.models.push(cm.model.to_text());
            }

            let solve_start = Stopwatch::start();
            let solution = solve(&cm.model, &caps, tier, &mut self.totals);
            timing.solver = solve_start.elapsed();
            timing.milp_vars = cm.model.num_vars();
            timing.milp_rows = cm.model.num_constraints();

            let extract_start = Stopwatch::start();
            let decision = self.extract(view, now, &generated, &solution);
            timing.extract = extract_start.elapsed();

            // Deterministic cycle cost: every (space, slot) pair valued by
            // Eq. 1 plus every branch-and-bound node expanded.
            let enumerated: u64 = generated
                .job_options
                .iter()
                .map(|jo| jo.enumerated as u64)
                .sum();
            timing.considered = generated.considered.len();
            timing.nodes = solution.nodes;
            timing.cost_units = enumerated + solution.nodes as u64;
            decision
        };
        self.totals.count_tier(tier);
        timing.total = cycle_start.elapsed();
        self.finish_cycle(timing);
        decision
    }
}

/// Greedily packs a gang of `tasks` nodes into the racks of `allowed`,
/// fullest-first. `free` is the group-local free slice and `base` its global
/// partition offset (0 on single-group clusters), so mask bit `i` lines up
/// with `free[i]` and yields partition `base + i`. Returns `None` if the
/// allowed racks cannot hold the gang.
fn pack_gang(
    tasks: u32,
    allowed: RackMask,
    free: &[u32],
    base: usize,
) -> Option<Vec<(PartitionId, u32)>> {
    let mut racks: Vec<(usize, u32)> = free
        .iter()
        .enumerate()
        .filter(|(p, f)| allowed.contains(*p) && **f > 0)
        .map(|(p, f)| (p, *f))
        .collect();
    racks.sort_by_key(|r| std::cmp::Reverse(r.1));
    let mut remaining = tasks;
    let mut alloc = Vec::new();
    for (p, f) in racks {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(f);
        alloc.push((PartitionId(base + p), take));
        remaining -= take;
    }
    (remaining == 0).then_some(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use threesigma_cluster::{ClusterSpec, Engine, EngineConfig, JobKind, Metrics};

    fn scheduler(source: EstimateSource) -> ThreeSigmaScheduler {
        ThreeSigmaScheduler::new(SchedConfig::default(), source, PredictorConfig::default())
    }

    fn engine(racks: usize, per_rack: u32) -> Engine {
        Engine::new(
            ClusterSpec::uniform(racks, per_rack),
            EngineConfig {
                cycle_interval: 2.0,
                drain: Some(4.0 * 3600.0),
                seed: 1,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn oracle_scheduler_completes_simple_jobs() {
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 100.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 2, 100.0, JobKind::BestEffort),
        ];
        let m = engine(1, 4).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
        // Cluster fits both: they run concurrently.
        let f1 = m.outcomes[0].finish_time.unwrap();
        let f2 = m.outcomes[1].finish_time.unwrap();
        assert!((f1 - f2).abs() < 5.0);
    }

    #[test]
    fn meets_deadlines_it_can_meet() {
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 4, 100.0, JobKind::Slo { deadline: 400.0 }),
            JobSpec::new(2, 0.0, 4, 100.0, JobKind::Slo { deadline: 400.0 }),
        ];
        // One job at a time: both can still finish by t=400.
        let m = engine(1, 4).run(&jobs, &mut s).unwrap();
        assert_eq!(m.slo_miss_pct(), 0.0, "{:?}", m.outcomes);
    }

    #[test]
    fn worked_example_scenario_one_prioritises_the_slo_job() {
        // §2.3 / Fig. 5 scenario 1: single node, SLO deadline 15 min, both
        // runtimes ~ U(0, 10) min. The distribution scheduler must run the
        // SLO job first.
        let dist = DiscreteDist::uniform(0.0, 600.0, 40);
        let mut map = HashMap::new();
        map.insert(JobId(1), dist.clone());
        map.insert(JobId(2), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                slot_width: 150.0,
                plan_slots: 8,
                ..SchedConfig::default()
            },
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 300.0, JobKind::Slo { deadline: 900.0 }).with_weight(10.0),
            JobSpec::new(2, 0.0, 1, 300.0, JobKind::BestEffort),
        ];
        let m = engine(1, 1).run(&jobs, &mut s).unwrap();
        let slo_start = m.outcomes[0].start_time.unwrap();
        let be_start = m.outcomes[1].start_time.unwrap();
        assert!(
            slo_start < be_start,
            "SLO first: slo={slo_start} be={be_start}"
        );
        assert_eq!(m.slo_miss_pct(), 0.0);
    }

    #[test]
    fn worked_example_scenario_two_lets_the_be_job_go_first() {
        // Fig. 5 scenario 2: runtimes ~ U(2.5, 7.5) min; the SLO job is safe
        // even if both hit worst case, so the BE job should start first.
        let dist = DiscreteDist::uniform(150.0, 450.0, 40);
        let mut map = HashMap::new();
        map.insert(JobId(1), dist.clone());
        map.insert(JobId(2), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                slot_width: 150.0,
                plan_slots: 8,
                ..SchedConfig::default()
            },
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 300.0, JobKind::Slo { deadline: 900.0 }).with_weight(10.0),
            JobSpec::new(2, 0.0, 1, 300.0, JobKind::BestEffort),
        ];
        let m = engine(1, 1).run(&jobs, &mut s).unwrap();
        let slo = &m.outcomes[0];
        let be = &m.outcomes[1];
        assert!(
            be.start_time.unwrap() < slo.start_time.unwrap(),
            "BE first: be={:?} slo={:?}",
            be.start_time,
            slo.start_time
        );
        assert_eq!(m.slo_miss_pct(), 0.0);
    }

    #[test]
    fn prefers_preferred_racks() {
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 100.0, JobKind::Slo { deadline: 1000.0 })
                .with_preference(vec![PartitionId(1)], 1.5)
                .with_weight(10.0),
        ];
        let m = engine(2, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.outcomes[0].on_preferred, Some(true));
        assert_eq!(m.outcomes[0].measured_runtime, Some(100.0));
    }

    #[test]
    fn sixty_five_rack_cluster_schedules_on_high_racks() {
        // Regression: the seed's u64 masks wrapped at 64 partitions
        // (`1u64 << 64` is a masked shift in release builds, so rack 64
        // aliased rack 0). A job preferring rack 64 must run there,
        // unscaled, on a 65-rack cluster.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 100.0, JobKind::Slo { deadline: 1000.0 })
                .with_preference(vec![PartitionId(64)], 1.5)
                .with_weight(10.0),
            JobSpec::new(2, 0.0, 4, 100.0, JobKind::BestEffort),
        ];
        let m = engine(65, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.outcomes[0].on_preferred, Some(true));
        assert_eq!(m.outcomes[0].measured_runtime, Some(100.0));
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn overestimated_job_is_rescued_by_adaptive_oe() {
        // History says ~2000 s, the job actually runs 100 s, deadline in
        // 400 s. Step utility would be ~0 (cancelled); adaptive OE keeps it
        // alive and it completes in time.
        let dist = DiscreteDist::from_samples(&[1900.0, 2000.0, 2100.0], 16).unwrap();
        let mut map = HashMap::new();
        map.insert(JobId(1), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig::default(),
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::Slo { deadline: 400.0 }).with_weight(10.0),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.slo_miss_pct(), 0.0, "{:?}", m.outcomes[0]);
    }

    #[test]
    fn overestimated_job_is_cancelled_without_oe() {
        let dist = DiscreteDist::from_samples(&[1900.0, 2000.0, 2100.0], 16).unwrap();
        let mut map = HashMap::new();
        map.insert(JobId(1), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                oe_mode: OverestimateMode::Off,
                ..SchedConfig::default()
            },
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::Slo { deadline: 400.0 }).with_weight(10.0),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.slo_miss_pct(), 100.0);
        assert_eq!(m.count(threesigma_cluster::JobState::Canceled), 1);
    }

    #[test]
    fn underestimated_job_does_not_wedge_the_schedule() {
        // History says 50 s but the job runs 500 s; a second job queued
        // behind it must still complete (exp-inc handling keeps updating
        // the expected finish).
        let dist = DiscreteDist::from_samples(&[45.0, 50.0, 55.0], 16).unwrap();
        let mut map = HashMap::new();
        map.insert(JobId(1), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig::default(),
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 500.0, JobKind::BestEffort),
            JobSpec::new(2, 10.0, 2, 50.0, JobKind::BestEffort),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0, "{:?}", m.outcomes);
    }

    #[test]
    fn pending_job_is_reestimated_after_history_sharpens() {
        // Stale-estimate regression: the seed froze a job's distribution at
        // submission. Here history says ~2000 s; job 1 (same attributes)
        // actually runs 60 s while job 2 waits behind it with a 400 s
        // deadline. Frozen at submission, job 2's step utility is zero at
        // every slot forever — it would never be placed. Re-estimating
        // pending jobs once the history epoch moves lets job 1's completion
        // sharpen job 2's distribution, so it is placed and meets its
        // deadline.
        let attrs = || {
            threesigma_cluster::Attributes::new()
                .with("user", "u")
                .with("job_name", "j")
        };
        let history: Vec<JobSpec> = (0..3)
            .map(|i| {
                JobSpec::new(100 + i, 0.0, 1, 2000.0, JobKind::BestEffort).with_attributes(attrs())
            })
            .collect();
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                oe_mode: OverestimateMode::Off,
                cancel_hopeless: false,
                ..SchedConfig::default()
            },
            EstimateSource::Predicted,
            PredictorConfig::default(),
        );
        s.pretrain(&history);
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 60.0, JobKind::BestEffort).with_attributes(attrs()),
            JobSpec::new(2, 5.0, 1, 60.0, JobKind::Slo { deadline: 400.0 })
                .with_weight(10.0)
                .with_attributes(attrs()),
        ];
        let m = engine(1, 1).run(&jobs, &mut s).unwrap();
        assert_eq!(m.slo_miss_pct(), 0.0, "{:?}", m.outcomes);
        let finish1 = m.outcomes[0].finish_time.unwrap();
        let start2 = m.outcomes[1].start_time.unwrap();
        assert!(
            start2 >= finish1,
            "job 2 placed only after the completion at {finish1} sharpened its estimate \
             (started {start2})"
        );
    }

    #[test]
    fn preempts_be_for_urgent_slo() {
        // BE job occupies the whole cluster for a long time; an SLO job
        // arrives with a tight deadline — only preemption can meet it.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 5000.0, JobKind::BestEffort),
            JobSpec::new(2, 10.0, 2, 100.0, JobKind::Slo { deadline: 400.0 }).with_weight(10.0),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.slo_miss_pct(), 0.0, "{:?}", m.outcomes);
        assert!(m.outcomes[0].preemptions >= 1, "BE was preempted");
    }

    #[test]
    fn timings_are_recorded() {
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![JobSpec::new(1, 0.0, 1, 50.0, JobKind::BestEffort)];
        let _ = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert!(!s.timings().is_empty());
        let t = s.timings()[0];
        assert!(t.total >= t.solver);
        // The stage breakdown covers disjoint intervals of the cycle.
        let staged = t.generate + t.compile + t.solver + t.extract;
        assert!(
            t.total >= staged,
            "total {:?} < sum of stages {:?}",
            t.total,
            staged
        );
        assert!(t.generate > Duration::ZERO);
        assert!(t.compile > Duration::ZERO);
    }

    #[test]
    fn plan_records_show_deferrals() {
        // Fig. 5 scenario 2 (BE first, SLO deferred): the first cycle's
        // plan must record the SLO job as deliberately deferred.
        let dist = DiscreteDist::uniform(150.0, 450.0, 40);
        let mut map = HashMap::new();
        map.insert(JobId(1), dist.clone());
        map.insert(JobId(2), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                slot_width: 150.0,
                plan_slots: 8,
                record_plans: true,
                ..SchedConfig::default()
            },
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 300.0, JobKind::Slo { deadline: 900.0 }).with_weight(10.0),
            JobSpec::new(2, 0.0, 1, 300.0, JobKind::BestEffort),
        ];
        let _ = engine(1, 1).run(&jobs, &mut s).unwrap();
        let first = &s.plans()[0];
        assert_eq!(first.started.len(), 1);
        assert_eq!(first.started[0].job, JobId(2), "BE starts now");
        assert!(
            first
                .deferred
                .iter()
                .any(|p| p.job == JobId(1) && p.slot > 0),
            "SLO deferred: {first:?}"
        );
        assert!(first.objective > 0.0);
        // Recording off by default.
        let plain = scheduler(EstimateSource::OraclePoint);
        assert!(plain.plans().is_empty());
    }

    #[test]
    fn an_unpackable_slot_zero_choice_is_recorded_as_unpackable_not_deferred() {
        // Racks of 1/2/1 free nodes; two 2-task gangs prefer racks {0, 1}
        // and {1, 2}. Hall's condition holds (any one mask holds 3 nodes,
        // both together 4), so the MILP starts both now on their preferred
        // racks. Extraction packs the higher-utility gang fullest-first
        // into rack 1, which leaves the other mask 1 free node.
        let cluster = ClusterSpec::new(vec![1, 2, 1]);
        let jobs = [
            JobSpec::new(1, 0.0, 2, 100.0, JobKind::BestEffort)
                .with_preference(vec![PartitionId(0), PartitionId(1)], 3.0)
                .with_weight(2.0),
            JobSpec::new(2, 0.0, 2, 100.0, JobKind::BestEffort)
                .with_preference(vec![PartitionId(1), PartitionId(2)], 3.0),
        ];
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                record_plans: true,
                ..SchedConfig::default()
            },
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        for j in &jobs {
            s.on_job_submitted(j, 0.0);
        }
        let view = SimulationView {
            cluster: &cluster,
            pending: jobs.iter().collect(),
            running: Vec::new(),
            free: &[1, 2, 1],
            now: 0.0,
        };
        let d = s.schedule(&view, 0.0);
        let plan = &s.plans()[0];
        let jobs_of = |v: &[PlannedJob]| {
            v.iter()
                .map(|p| (p.job, p.slot, p.preferred_space))
                .collect::<Vec<_>>()
        };
        assert_eq!(jobs_of(&plan.started), [(JobId(1), 0, true)], "{plan:?}");
        assert_eq!(jobs_of(&plan.unpackable), [(JobId(2), 0, true)], "{plan:?}");
        assert!(plan.deferred.is_empty(), "{plan:?}");
        assert_eq!(d.placements.len(), 1);
        assert_eq!(d.placements[0].allocation, [(PartitionId(1), 2)]);
    }

    #[test]
    fn slot_grid_is_stable_across_cycles() {
        let a = slot_times(42.0, 150.0, 5);
        assert_eq!(a[0], 42.0);
        assert_eq!(&a[1..], &[150.0, 300.0, 450.0, 600.0]);
        // Two cycles later, the deferred slots have not drifted.
        let b = slot_times(44.0, 150.0, 5);
        assert_eq!(&b[1..], &a[1..]);
        // Slot 0 is always "now".
        let c = slot_times(0.0, 60.0, 3);
        assert_eq!(c, vec![0.0, 60.0, 120.0]);
    }

    #[test]
    fn pack_gang_fullest_first() {
        // free = [1, 4, 2]; allowed = all; gang of 5 → racks 1 then 2.
        let all = RackMask::all(3);
        let alloc = pack_gang(5, all, &[1, 4, 2], 0).unwrap();
        assert_eq!(alloc[0], (PartitionId(1), 4));
        assert_eq!(alloc[1], (PartitionId(2), 1));
        // Gang of 8 overflows: None.
        assert!(pack_gang(8, all, &[1, 4, 2], 0).is_none());
        // Mask restricts racks.
        let only0 = RackMask::of(&[PartitionId(0)]);
        let alloc0 = pack_gang(1, only0, &[1, 4, 2], 0).unwrap();
        assert_eq!(alloc0, vec![(PartitionId(0), 1)]);
        assert!(pack_gang(2, only0, &[1, 4, 2], 0).is_none());
        // A non-zero base maps group-local racks back to global partitions.
        let g1 = pack_gang(3, all, &[1, 4, 2], 130).unwrap();
        assert_eq!(g1[0], (PartitionId(131), 3));
    }

    fn bimodal_history() -> Vec<JobSpec> {
        (0..30)
            .map(|i| {
                let rt = if i % 2 == 0 { 50.0 } else { 150.0 };
                JobSpec::new(1000 + i, i as f64, 1, rt, JobKind::BestEffort)
                    .with_attributes(threesigma_cluster::Attributes::new().with("user", "pat"))
            })
            .collect()
    }

    fn pat_probe() -> JobSpec {
        JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort)
            .with_attributes(threesigma_cluster::Attributes::new().with("user", "pat"))
    }

    /// A state version builds its distribution once: a second estimate
    /// from the same unchanged history hands out the same distribution and
    /// allocates nothing beyond choosing the expert (no mass points, no
    /// survival table);
    /// a new observation makes a new version, and pruning keeps exactly
    /// the distributions something still holds.
    #[test]
    fn a_repeated_state_version_shares_one_discretisation() {
        let mut s = scheduler(EstimateSource::Predicted);
        s.pretrain(&bimodal_history());
        let probe = pat_probe();
        let mut shared = Discretised::default();
        let first = estimate(&s.source, &s.predictor, &mut shared, &probe).0;
        assert_eq!(*first, s.estimate(&probe), "shared ≡ a fresh build");
        let mut again = None;
        let spent = crate::sched::compile::tests::allocations_of(|| {
            again = Some(estimate(&s.source, &s.predictor, &mut shared, &probe).0);
        });
        let again = again.unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "same version, same distribution"
        );
        // Choosing the expert may fill its key buffer; nothing else runs.
        let choosing = crate::sched::compile::tests::allocations_of(|| {
            assert!(s.predictor.choose(&Attrs(&probe.attributes)).is_some());
        });
        assert!(choosing <= 1, "choose allocated {choosing} times");
        assert_eq!(spent, choosing, "a repeated version builds nothing");

        s.predictor.observe(&Attrs(&probe.attributes), 400.0);
        let newer = estimate(&s.source, &s.predictor, &mut shared, &probe).0;
        assert!(
            !Arc::ptr_eq(&first, &newer),
            "a new observation is a new version"
        );
        assert_eq!(*newer, s.estimate(&probe));
        shared.prune();
        assert_eq!(shared.len(), 2, "both versions are still held");
        drop((first, again));
        shared.prune();
        assert_eq!(shared.len(), 1, "the released version is pruned");

        // Through the scheduler: two pending jobs with one history share
        // the cached distribution.
        let twin = JobSpec {
            id: JobId(2),
            ..probe.clone()
        };
        s.on_job_submitted(&probe, 0.0);
        s.on_job_submitted(&twin, 0.0);
        let a = s
            .cache
            .base(probe.id, || unreachable!("seeded at submission"));
        let b = s
            .cache
            .base(twin.id, || unreachable!("seeded at submission"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn padded_source_is_more_conservative_than_point() {
        // Same history; the padded estimate must exceed the raw point.
        let history = bimodal_history();
        let probe = pat_probe();
        let mut plain = scheduler(EstimateSource::PredictedPoint);
        plain.pretrain(&history);
        let mut padded = scheduler(EstimateSource::PredictedPadded { sigmas: 1.0 });
        padded.pretrain(&history);
        let p_plain = plain.estimate(&probe).mean();
        let p_padded = padded.estimate(&probe).mean();
        assert!(
            p_padded > p_plain + 10.0,
            "padded {p_padded} vs plain {p_plain}"
        );
    }

    #[test]
    fn padded_source_pads_around_its_own_distribution_mean() {
        // The padding base and the variance must come from the same
        // estimator: at 0σ the padded estimate degenerates to the
        // distribution's mean, and it grows linearly in σ around that base.
        let history = bimodal_history();
        let probe = pat_probe();
        let est = |sigmas: f64| {
            let mut s = scheduler(EstimateSource::PredictedPadded { sigmas });
            s.pretrain(&history);
            s.estimate(&probe).mean()
        };
        let e0 = est(0.0);
        let e1 = est(1.0);
        let e2 = est(2.0);
        let mut dist_sched = scheduler(EstimateSource::Predicted);
        dist_sched.pretrain(&history);
        let dist_mean = dist_sched.estimate(&probe).mean();
        assert!(
            (e0 - dist_mean).abs() < 1e-9,
            "0σ padding is the distribution mean: {e0} vs {dist_mean}"
        );
        assert!(e1 > e0, "padding is positive: {e1} vs {e0}");
        assert!(
            ((e2 - e1) - (e1 - e0)).abs() < 1e-6,
            "linear in σ around one base: {e0} {e1} {e2}"
        );
    }

    #[test]
    fn preemption_disabled_is_respected() {
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                preemption_enabled: false,
                ..SchedConfig::default()
            },
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 5000.0, JobKind::BestEffort),
            JobSpec::new(2, 10.0, 2, 100.0, JobKind::Slo { deadline: 400.0 }).with_weight(10.0),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.preemptions, 0);
        assert_eq!(
            m.slo_miss_pct(),
            100.0,
            "without preemption the SLO job is stuck"
        );
    }

    #[test]
    fn be_jobs_are_never_cancelled() {
        // Even a hopeless-looking BE job keeps its utility floor.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 400.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 2, 400.0, JobKind::BestEffort),
            JobSpec::new(3, 0.0, 2, 400.0, JobKind::BestEffort),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.count(threesigma_cluster::JobState::Canceled), 0);
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn underestimated_job_survives_saturated_doubling_in_simulation() {
        // End-to-end: a grossly under-estimated job (history ~1 s, actual
        // 5000 s) with a tiny cycle hint accumulates many exp-inc steps;
        // the run must complete rather than wedge or panic on overflow.
        let dist = DiscreteDist::from_samples(&[0.9, 1.0, 1.1], 16).unwrap();
        let mut map = HashMap::new();
        map.insert(JobId(1), dist);
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                cycle_hint: 1e-3,
                ..SchedConfig::default()
            },
            EstimateSource::Injected(Arc::new(map)),
            PredictorConfig::default(),
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 5000.0, JobKind::BestEffort),
            JobSpec::new(2, 10.0, 2, 50.0, JobKind::BestEffort),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0, "{:?}", m.outcomes);
    }

    #[test]
    fn nan_deadline_does_not_panic_the_urgency_sort() {
        // Regression: the urgency sort used `partial_cmp().expect(...)`,
        // so a single NaN deadline killed the engine. With `total_cmp` the
        // malformed job just sorts last and the healthy jobs schedule.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 50.0, JobKind::Slo { deadline: f64::NAN }),
            JobSpec::new(2, 0.0, 1, 50.0, JobKind::Slo { deadline: 400.0 }).with_weight(10.0),
            JobSpec::new(3, 0.0, 1, 50.0, JobKind::BestEffort),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.outcomes[1].state, threesigma_cluster::JobState::Completed);
        assert_eq!(m.outcomes[2].state, threesigma_cluster::JobState::Completed);
    }

    #[test]
    fn stats_and_recorder_stay_consistent() {
        let recorder = Recorder::enabled();
        let mut s = scheduler(EstimateSource::OraclePoint).with_recorder(&recorder);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 100.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 2, 100.0, JobKind::Slo { deadline: 600.0 }).with_weight(5.0),
        ];
        let m = engine(1, 4).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0);

        let stats = s.stats();
        assert!(stats.cycles > 0);
        assert!(stats.options_enumerated >= stats.options_pruned + stats.options_placed);
        assert_eq!(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
        assert_eq!(stats.options_placed, 2);

        // The recorder mirrors the deterministic totals exactly.
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("sched_cycles_total"), Some(stats.cycles));
        assert_eq!(
            snap.counter("sched_options_enumerated_total"),
            Some(stats.options_enumerated)
        );
        assert_eq!(
            snap.counter("sched_cache_lookups_total"),
            Some(stats.cache.lookups)
        );
        assert_eq!(
            snap.counter("sched_milp_nodes_total"),
            Some(stats.milp_nodes)
        );
    }

    #[test]
    fn expert_switches_are_counted_between_predictions() {
        // Jobs alternate between carrying only a `user` attribute and only
        // a `job_name` attribute, so consecutive predictions must come from
        // different *features* — a guaranteed expert switch.
        let mk = |key: &str, val: &str, rt: f64, id: u64, t: f64| {
            JobSpec::new(id, t, 1, rt, JobKind::BestEffort)
                .with_attributes(threesigma_cluster::Attributes::new().with(key, val))
        };
        let mut history = Vec::new();
        for i in 0..20 {
            history.push(mk("user", "alice", 100.0, 1000 + i, i as f64));
            history.push(mk("job_name", "etl", 200.0, 2000 + i, i as f64));
        }
        let mut s = scheduler(EstimateSource::Predicted);
        s.pretrain(&history);
        let jobs = vec![
            mk("user", "alice", 100.0, 1, 0.0),
            mk("job_name", "etl", 200.0, 2, 1.0),
            mk("user", "alice", 100.0, 3, 2.0),
        ];
        let m = engine(1, 4).run(&jobs, &mut s).unwrap();
        assert!(m.completion_rate() > 0.0);
        assert!(s.stats().expert_switches >= 2, "stats: {:?}", s.stats());
    }

    #[test]
    fn predicted_source_uses_pretraining() {
        let mut s = scheduler(EstimateSource::Predicted);
        let history: Vec<JobSpec> = (0..20)
            .map(|i| {
                JobSpec::new(1000 + i, i as f64, 1, 100.0, JobKind::BestEffort).with_attributes(
                    threesigma_cluster::Attributes::new()
                        .with("user", "alice")
                        .with("job_name", "etl"),
                )
            })
            .collect();
        s.pretrain(&history);
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::Slo { deadline: 250.0 })
                .with_weight(10.0)
                .with_attributes(
                    threesigma_cluster::Attributes::new()
                        .with("user", "alice")
                        .with("job_name", "etl"),
                ),
        ];
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.slo_miss_pct(), 0.0);
    }

    #[test]
    fn pretraining_reads_history_only_for_sources_that_read_the_predictor() {
        let cluster = ClusterSpec::uniform(1, 4);
        let view = SimulationView {
            cluster: &cluster,
            pending: Vec::new(),
            running: Vec::new(),
            free: &[4],
            now: 0.0,
        };
        let observed = |source| {
            let recorder = Recorder::enabled();
            let mut s = scheduler(source).with_recorder(&recorder);
            s.pretrain(&bimodal_history());
            // One idle cycle flushes the counters.
            s.schedule(&view, 0.0);
            recorder.snapshot().counter("predict_observations_total")
        };
        assert_eq!(observed(EstimateSource::OraclePoint), Some(0));
        assert_ne!(observed(EstimateSource::Predicted), Some(0));
    }

    /// The level-1/2 caps across budgets and windows, the rest of the
    /// config at its defaults: (level, budget, plan_slots) → ([window,
    /// max_jobs, solver_nodes], solver_time ms). The option cap is the
    /// window. A work-unit cycle values at most `max_jobs · 2 · window`
    /// options and expands at most `solver_nodes` nodes; that stays within
    /// `b/2^level + b/8` only where `b ≥ 2^level · 2 · window`: below it the
    /// one-job and one-node floors take over.
    #[test]
    fn level_caps_table() {
        use CycleBudget::{Unlimited as U, WallClockMs as W, WorkUnits as B};
        #[rustfmt::skip]
        let rows: &[(u8, CycleBudget, usize, [usize; 3], u64)] = &[
            (1, B(1), 2, [2, 1, 1], 2000),
            (1, B(1), 4, [4, 1, 1], 2000),
            (1, B(1), 8, [4, 1, 1], 2000),
            (1, B(8), 2, [2, 1, 1], 2000),
            (1, B(8), 4, [4, 1, 1], 2000),
            (1, B(8), 8, [4, 1, 1], 2000),
            (1, B(15), 2, [2, 1, 1], 2000),
            (1, B(15), 4, [4, 1, 1], 2000),
            (1, B(15), 8, [4, 1, 1], 2000),
            (1, B(16), 2, [2, 2, 2], 2000),
            (1, B(16), 4, [4, 1, 2], 2000),
            (1, B(16), 8, [4, 1, 2], 2000),
            (1, B(64), 2, [2, 8, 8], 2000),
            (1, B(64), 4, [4, 4, 8], 2000),
            (1, B(64), 8, [4, 4, 8], 2000),
            (1, B(1000), 2, [2, 96, 125], 2000),
            (1, B(1000), 4, [4, 62, 125], 2000),
            (1, B(1000), 8, [4, 62, 125], 2000),
            (1, W(50.0), 2, [2, 24, 37], 1000),
            (1, W(50.0), 4, [4, 24, 37], 1000),
            (1, W(50.0), 8, [4, 24, 37], 1000),
            (1, U, 2, [2, 24, 37], 1000),
            (1, U, 4, [4, 24, 37], 1000),
            (1, U, 8, [4, 24, 37], 1000),
            (2, B(1), 2, [2, 1, 1], 2000),
            (2, B(1), 4, [2, 1, 1], 2000),
            (2, B(1), 8, [2, 1, 1], 2000),
            (2, B(8), 2, [2, 1, 1], 2000),
            (2, B(8), 4, [2, 1, 1], 2000),
            (2, B(8), 8, [2, 1, 1], 2000),
            (2, B(15), 2, [2, 1, 1], 2000),
            (2, B(15), 4, [2, 1, 1], 2000),
            (2, B(15), 8, [2, 1, 1], 2000),
            (2, B(16), 2, [2, 1, 2], 2000),
            (2, B(16), 4, [2, 1, 2], 2000),
            (2, B(16), 8, [2, 1, 2], 2000),
            (2, B(64), 2, [2, 4, 8], 2000),
            (2, B(64), 4, [2, 4, 8], 2000),
            (2, B(64), 8, [2, 4, 8], 2000),
            (2, B(1000), 2, [2, 62, 125], 2000),
            (2, B(1000), 4, [2, 62, 125], 2000),
            (2, B(1000), 8, [2, 62, 125], 2000),
            (2, W(50.0), 2, [2, 12, 18], 500),
            (2, W(50.0), 4, [2, 12, 18], 500),
            (2, W(50.0), 8, [2, 12, 18], 500),
            (2, U, 2, [2, 12, 18], 500),
            (2, U, 4, [2, 12, 18], 500),
            (2, U, 8, [2, 12, 18], 500),
        ];
        let mut broken = 0;
        for &(level, budget, plan_slots, [window, max_jobs, nodes], ms) in rows {
            let cfg = SchedConfig {
                plan_slots,
                cycle_budget: budget,
                ..SchedConfig::default()
            };
            let c = LevelCaps::new(level, &cfg);
            let at = format!("level {level}, {budget:?}, plan_slots {plan_slots}");
            assert_eq!(c.plan_slots, window, "{at}");
            assert_eq!(c.max_jobs, max_jobs, "{at}");
            assert_eq!(c.solver_nodes, nodes, "{at}");
            assert_eq!(c.solver_time, Duration::from_millis(ms), "{at}");
            assert_eq!(c.max_options, Some(window), "{at}");
            if let B(b) = budget {
                let cost = (max_jobs * 2 * window + nodes) as u64;
                let within = cost <= (b >> level) + b / 8;
                if b >= (2 * window as u64) << level {
                    assert!(within, "{at}: cost {cost}");
                } else {
                    broken += usize::from(!within);
                }
            }
        }
        assert!(broken > 0, "the floors break the bound on small budgets");
    }

    #[test]
    fn unlimited_budget_never_engages_the_governor() {
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs: Vec<JobSpec> = (0..30)
            .map(|i| JobSpec::new(i + 1, i as f64, 1, 50.0, JobKind::BestEffort))
            .collect();
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
        let stats = s.stats();
        assert_eq!(stats.budget_overruns, 0);
        assert_eq!(stats.governor_step_ups, 0);
        assert_eq!(stats.degradation_level, 0);
        assert!(s.timings().iter().all(|t| t.level == 0));
    }

    #[test]
    fn governor_degrades_under_overload_and_recovers() {
        // 2 nodes, 24 pending single-task jobs at t=0: level-0 cycles value
        // 24 jobs × 8 slots = 192 options (> 100), so the governor must
        // step up; level-1 caps derived from budget 100 keep the cost
        // under it, so after three on-budget cycles it steps back down.
        let budget = 100u64;
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                cycle_budget: CycleBudget::WorkUnits(budget),
                ..SchedConfig::default()
            },
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        let jobs: Vec<JobSpec> = (0..24)
            .map(|i| JobSpec::new(i + 1, 0.0, 1, 60.0, JobKind::BestEffort))
            .collect();
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0, "degraded cycles still place");
        let stats = s.stats();
        assert!(stats.budget_overruns >= 1, "stats: {stats:?}");
        assert!(stats.governor_step_ups >= 1);
        assert!(stats.governor_step_downs >= 1, "hysteresis recovery ran");
        // The queue drains long before the run ends, so the final level
        // is back at 0.
        assert_eq!(s.degradation_level(), 0);
        for (i, t) in s.timings().iter().enumerate() {
            assert!(t.level <= 2);
            if i > 0 {
                let prev = s.timings()[i - 1].level;
                assert!(
                    t.level.abs_diff(prev) <= 1,
                    "level moved {prev} → {} in one cycle",
                    t.level
                );
            }
            // The governor's contract: degraded cycles fit the budget.
            if t.level >= 1 {
                assert!(
                    t.cost_units <= budget,
                    "level-{} cycle cost {} > budget {budget}",
                    t.level,
                    t.cost_units
                );
            }
        }
    }

    #[test]
    fn level_two_places_jobs_through_tier_zero() {
        // Budget 0: every non-trivial cycle overruns, so the ladder climbs
        // to level 2, where a *minimal* plan-ahead window (one job, two
        // slots) is solved by the tier-0 greedy backend — zero search
        // nodes — and jobs still start.
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                cycle_budget: CycleBudget::WorkUnits(0),
                ..SchedConfig::default()
            },
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        let jobs: Vec<JobSpec> = (0..10)
            .map(|i| JobSpec::new(i + 1, i as f64 * 3.0, 1, 40.0, JobKind::BestEffort))
            .collect();
        let m = engine(1, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0, "tier-0 fallback still places");
        let reached_two = s.timings().iter().any(|t| t.level == 2);
        assert!(reached_two, "ladder reached the emergency level");
        for t in s.timings() {
            if t.level == 2 {
                assert_eq!(t.solver_tier, 0, "level 2 maps to solver tier 0");
                assert_eq!(t.nodes, 0, "tier 0 expands no search nodes");
                assert!(t.considered <= 1, "level 2 plans a minimal window");
            }
        }
        assert!(s.stats().budget_overruns >= 2);
        let stats = s.stats();
        assert!(stats.tier0_cycles >= 1, "tier-0 cycles were counted");
        assert_eq!(s.solver_tier(), s.timings().last().unwrap().solver_tier);
    }

    #[test]
    fn solver_tier_override_pins_the_backend() {
        // `solver_tier: Some(0)` forces the greedy backend even at level 0;
        // jobs still complete and no branch-and-bound nodes are expanded.
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                solver_tier: Some(0),
                ..SchedConfig::default()
            },
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| JobSpec::new(i + 1, i as f64 * 2.0, 1, 30.0, JobKind::BestEffort))
            .collect();
        let m = engine(1, 4).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
        let stats = s.stats();
        assert_eq!(stats.tier1_cycles + stats.tier2_cycles, 0);
        assert!(stats.tier0_cycles >= 1);
        for t in s.timings() {
            assert_eq!(t.solver_tier, 0);
            assert_eq!(t.nodes, 0);
        }
    }

    /// Runs the inner scheduler, optionally dropping every carried Eq. 2
    /// conditional first, and logs what it decided and what its running-side
    /// table holds after every cycle.
    struct Recording {
        inner: ThreeSigmaScheduler,
        forget: bool,
        decisions: Vec<String>,
        running_at_level: [usize; 3],
        /// Per cycle: (now, anything pending, running attempts).
        cycles: Vec<(f64, bool, usize)>,
        /// Per cycle: the running-side table after it.
        tables: Vec<String>,
        /// Idle cycles that carried an exp-inc attempt.
        idle_exhausted: usize,
    }

    impl Scheduler for Recording {
        fn on_job_submitted(&mut self, spec: &JobSpec, now: f64) {
            self.inner.on_job_submitted(spec, now);
        }
        fn on_job_completed(
            &mut self,
            spec: &JobSpec,
            outcome: &threesigma_cluster::JobOutcome,
            now: f64,
        ) {
            self.inner.on_job_completed(spec, outcome, now);
        }
        fn on_job_killed(&mut self, spec: &JobSpec, elapsed: f64, will_retry: bool, now: f64) {
            self.inner.on_job_killed(spec, elapsed, will_retry, now);
        }
        fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
            if self.forget {
                self.inner.running.forget_conditionals();
            }
            let cache = self.inner.cache.stats();
            let d = self.inner.schedule(view, now);
            let busy = !view.pending.is_empty();
            if !busy {
                assert_eq!(
                    self.inner.cache.stats(),
                    cache,
                    "idle cycle at {now} probed the cache"
                );
            }
            // One owner: a running or just-placed job has no cache entry.
            let live = view.running.iter().map(|r| r.spec.id);
            for job in live.chain(d.placements.iter().map(|p| p.job)) {
                assert!(!self.inner.cache.contains(job), "{job:?} cached at {now}");
            }
            self.running_at_level[self.inner.degradation_level() as usize] += view.running.len();
            self.decisions.push(format!("{now}: {d:?}"));
            self.cycles.push((now, busy, view.running.len()));
            self.tables.push(self.inner.running.state());
            if !busy && self.inner.running.exhausted() > 0 {
                self.idle_exhausted += 1;
            }
            d
        }
    }

    /// Runs the running-table scenario: one job family whose runtimes spread
    /// over 30–300 s, so a running attempt's elapsed time keeps crossing
    /// mass points, and jobs that run past 300 s outlive the prior
    /// (exp-inc). BE and SLO gangs on 4 racks × 4 nodes, every third job
    /// preferring rack 1; a burst at t = 40 overruns the work-unit budget,
    /// so the governor shrinks the window while attempts run and grows it
    /// back once the queue drains. A second, sparse wave from t = 250
    /// follows idle stretches with busy cycles. Job 1 is killed at t = 21
    /// and retried.
    fn table_scenario(forget: bool, full_idle_cycles: bool) -> (Metrics, Recording) {
        use threesigma_cluster::FaultEvent;
        let attrs = || {
            threesigma_cluster::Attributes::new()
                .with("user", "u")
                .with("job_name", "j")
        };
        let history: Vec<JobSpec> = (0..40)
            .map(|i| {
                let runtime = 30.0 + (i * 37 % 270) as f64;
                JobSpec::new(1000 + i, 0.0, 1, runtime, JobKind::BestEffort)
                    .with_attributes(attrs())
            })
            .collect();
        let mut jobs: Vec<JobSpec> = Vec::new();
        for i in 0..26u64 {
            let submit = match i {
                0..=7 => i as f64 * 6.0,
                8..=19 => 40.0 + (i - 8) as f64 * 0.5,
                _ => 250.0 + (i - 20) as f64 * 97.0,
            };
            let duration = 25.0 + (i * 53 % 380) as f64;
            let kind = if i % 2 == 0 {
                JobKind::Slo {
                    deadline: submit + 700.0,
                }
            } else {
                JobKind::BestEffort
            };
            let mut spec = JobSpec::new(i + 1, submit, 1 + (i % 4) as u32, duration, kind)
                .with_weight(if i % 2 == 0 { 10.0 } else { 1.0 })
                .with_attributes(attrs());
            if i % 3 == 0 {
                spec = spec.with_preference(vec![PartitionId(1)], 1.5);
            }
            jobs.push(spec);
        }
        let mut inner = ThreeSigmaScheduler::new(
            SchedConfig {
                record_models: true,
                record_plans: true,
                solver_nodes: 12,
                cycle_budget: CycleBudget::WorkUnits(100),
                ..SchedConfig::default()
            },
            EstimateSource::Predicted,
            PredictorConfig::default(),
        );
        inner.pretrain(&history);
        inner.full_idle_cycles = full_idle_cycles;
        let mut s = Recording {
            inner,
            forget,
            decisions: Vec::new(),
            running_at_level: [0; 3],
            cycles: Vec::new(),
            tables: Vec::new(),
            idle_exhausted: 0,
        };
        let eng = Engine::new(
            ClusterSpec::uniform(4, 4),
            EngineConfig {
                cycle_interval: 2.0,
                drain: Some(4.0 * 3600.0),
                seed: 1,
                faults: vec![FaultEvent::TaskKill {
                    at: 21.0,
                    job: JobId(1),
                }],
                ..EngineConfig::default()
            },
        );
        let m = eng.run(&jobs, &mut s).unwrap();
        (m, s)
    }

    #[test]
    fn carried_running_state_compiles_the_same_models_as_a_cleared_table() {
        let (m, carried) = table_scenario(false, true);
        let (m_cleared, cleared) = table_scenario(true, true);

        // The run exercises what the table has to survive.
        let stats = carried.inner.stats();
        assert_eq!(m.kills, 1, "an attempt was killed");
        assert!(m.outcomes[0].finish_time.is_some(), "and retried");
        assert!(m.preemptions >= 1, "preemption columns were taken");
        assert!(stats.governor_step_ups >= 1 && stats.governor_step_downs >= 1);
        assert!(
            carried.running_at_level[0] > 0 && carried.running_at_level[1] > 0,
            "attempts ran across a window change: {:?}",
            carried.running_at_level
        );

        let (a, b) = (carried.inner.models(), cleared.inner.models());
        assert_eq!(a.len(), b.len());
        let diverged = a.iter().zip(b).position(|(x, y)| x != y);
        assert_eq!(diverged, None, "first cycle whose MILP text differs");
        assert_eq!(carried.decisions, cleared.decisions);
        assert_eq!(stats, cleared.inner.stats());
        assert_eq!(m.outcomes, m_cleared.outcomes);
    }

    #[test]
    fn idle_cycles_skip_the_milp_and_leave_the_same_state() {
        let (m, fast) = table_scenario(false, false);
        let (m_full, full) = table_scenario(false, true);

        // The scenario has what the fast path must get right: idle cycles
        // with attempts running across slot-grid boundaries, exp-inc
        // attempts that stay exhausted while idle, busy cycles right after
        // idle ones, preemption, a kill and retry, and a governor that
        // steps up and down.
        let idle = |&(_, busy, running): &(f64, bool, usize)| !busy && running > 0;
        assert!(fast.cycles.iter().filter(|c| idle(c)).count() > 100);
        let crosses = fast.cycles.windows(2).any(|w| {
            idle(&w[0]) && idle(&w[1]) && (w[0].0 / 60.0).floor() != (w[1].0 / 60.0).floor()
        });
        assert!(crosses, "an idle stretch crossed a slot-grid boundary");
        assert!(
            fast.idle_exhausted > 0,
            "exp-inc attempts stayed exhausted while idle"
        );
        let resumes = fast
            .cycles
            .windows(2)
            .any(|w| idle(&w[0]) && w[1].1 && w[1].2 > 0);
        assert!(
            resumes,
            "a busy cycle followed an idle one with attempts running"
        );
        assert_eq!(m.kills, 1);
        assert!(m.outcomes[0].finish_time.is_some());
        assert!(m.preemptions >= 1);
        let stats = fast.inner.stats();
        assert!(stats.governor_step_ups >= 1 && stats.governor_step_downs >= 1);

        // Same decisions, outcomes and running-side table after every cycle.
        assert_eq!(fast.decisions, full.decisions);
        assert_eq!(m.outcomes, m_full.outcomes);
        assert_eq!(fast.cycles, full.cycles);
        let diverged = fast
            .tables
            .iter()
            .zip(&full.tables)
            .position(|(x, y)| x != y);
        assert_eq!(diverged, None, "first cycle whose running table differs");
        // Every busy cycle compiled the same MILP; idle ones compiled none.
        let busy_models: Vec<&String> = full
            .inner
            .models()
            .iter()
            .zip(&full.cycles)
            .filter(|(_, c)| c.1)
            .map(|(model, _)| model)
            .collect();
        assert_eq!(full.inner.models().len(), full.cycles.len());
        assert_eq!(fast.inner.models().iter().collect::<Vec<_>>(), busy_models);
        // One plan record and one timing per cycle, at the same level/tier.
        assert_eq!(fast.inner.plans().len(), full.inner.plans().len());
        let ladder = |s: &ThreeSigmaScheduler| {
            s.timings()
                .iter()
                .map(|t| (t.level, t.solver_tier, t.pending))
                .collect::<Vec<_>>()
        };
        assert_eq!(ladder(&fast.inner), ladder(&full.inner));
        let kept = |s: SchedStats| {
            (
                (
                    s.cycles,
                    s.options_enumerated,
                    s.options_pruned,
                    s.options_placed,
                ),
                (
                    s.cache,
                    s.solver_tier,
                    s.tier0_cycles,
                    s.tier1_cycles,
                    s.tier2_cycles,
                ),
                (
                    s.degradation_level,
                    s.governor_step_ups,
                    s.governor_step_downs,
                ),
                (s.budget_overruns, s.expert_switches),
            )
        };
        assert_eq!(kept(stats), kept(full.inner.stats()));
    }

    #[test]
    fn only_a_positive_preemption_cost_takes_the_idle_fast_path() {
        for (cost, fast) in [(1.5, true), (0.0, false), (-1.0, false), (f64::NAN, false)] {
            let mut s = ThreeSigmaScheduler::new(
                SchedConfig {
                    preemption_cost: cost,
                    ..SchedConfig::default()
                },
                EstimateSource::OraclePoint,
                PredictorConfig::default(),
            );
            let jobs = vec![JobSpec::new(1, 0.0, 2, 30.0, JobKind::BestEffort)];
            // A negative cost makes preempting pay, so that run churns
            // until the drain horizon; the others finish the job.
            engine(1, 4).run(&jobs, &mut s).unwrap();
            let idle: Vec<&CycleTiming> = s.timings().iter().filter(|t| t.pending == 0).collect();
            assert!(idle.len() > 10);
            // The full path compiles the running job's preemption column.
            let compiled = idle.iter().any(|t| t.milp_vars > 0);
            assert_eq!(compiled, !fast, "preemption cost {cost}");
            assert_eq!(s.stats().tier2_cycles, s.stats().cycles);
        }
    }

    #[test]
    fn a_recorded_model_reproduces_its_plan() {
        // The solver keeps nothing between cycles, so a busy cycle's dumped
        // model, solved alone from the status-quo warm start, must give that
        // cycle's answer. The text format carries no variable names, so the
        // objective bits and node count stand in for the chosen jobs.
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                record_models: true,
                record_plans: true,
                ..SchedConfig::default()
            },
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        let jobs: Vec<JobSpec> = (0..12u64)
            .map(|i| {
                let submit = (i / 3) as f64 * 20.0;
                let duration = 30.0 + (i * 37 % 90) as f64;
                let kind = if i % 2 == 0 {
                    JobKind::Slo {
                        deadline: submit + 300.0 + (i * 13 % 120) as f64,
                    }
                } else {
                    JobKind::BestEffort
                };
                JobSpec::new(i + 1, submit, 1 + (i % 4) as u32, duration, kind)
                    .with_weight(if i % 2 == 0 { 10.0 } else { 1.0 })
            })
            .collect();
        engine(2, 4).run(&jobs, &mut s).unwrap();

        let busy: Vec<(&CycleTiming, &PlanRecord)> = s
            .timings()
            .iter()
            .zip(s.plans())
            .filter(|(t, _)| t.pending > 0)
            .collect();
        assert_eq!(busy.len(), s.models().len());
        assert!(busy.len() >= 10, "only {} busy cycles", busy.len());
        assert!(busy.iter().any(|(t, _)| t.nodes > 1), "no cycle branched");
        let config = SolverConfig {
            node_limit: s.config.solver_nodes,
            time_limit: None,
            gap_tolerance: 1e-4,
            ..SolverConfig::default()
        };
        for (i, ((timing, plan), text)) in busy.iter().zip(s.models()).enumerate() {
            let model = threesigma_milp::Model::from_text(text).unwrap();
            let warm = vec![0.0; model.num_vars()];
            let replay =
                solver_for_tier(2, config.clone()).solve_with_warm_start(&model, Some(&warm));
            assert_eq!(
                replay.objective.to_bits(),
                plan.objective.to_bits(),
                "busy cycle {i} at t={}",
                plan.now
            );
            assert_eq!(
                replay.nodes, timing.nodes,
                "busy cycle {i} at t={}",
                plan.now
            );
        }
    }

    #[test]
    fn killed_jobs_are_censored_not_observed() {
        let mut s = scheduler(EstimateSource::Predicted);
        let history: Vec<JobSpec> = (0..20)
            .map(|i| {
                JobSpec::new(1000 + i, i as f64, 1, 100.0, JobKind::BestEffort)
                    .with_attributes(threesigma_cluster::Attributes::new().with("user", "alice"))
            })
            .collect();
        s.pretrain(&history);
        let obs_before = s.predictor.quick_stats().observations;
        let spec = JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort)
            .with_attributes(threesigma_cluster::Attributes::new().with("user", "alice"));
        s.on_job_submitted(&spec, 0.0);
        // Placed: the estimate moves to the attempt, which the engine
        // reports killed 30 s in.
        assert!(s.cache.take(spec.id).is_some());
        s.on_job_killed(&spec, 30.0, true, 30.0);

        let qs = s.predictor.quick_stats();
        assert_eq!(qs.censored, 1, "kill recorded as a censored lower bound");
        assert_eq!(
            qs.observations, obs_before,
            "the truncated runtime never reached the histograms"
        );
        // The dead attempt's estimate left the cache when it was placed,
        // so the retry re-estimates from (unchanged) history.
        let d = s
            .cache
            .base(spec.id, || Arc::new(DiscreteDist::point(999.0)));
        assert!(
            (d.mean() - 999.0).abs() < 1e-9,
            "no cache entry outlived the attempt"
        );
    }

    #[test]
    fn engine_kills_reach_the_scheduler_as_censored_observations() {
        use threesigma_cluster::FaultEvent;
        let mut s = scheduler(EstimateSource::Predicted);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 200.0, JobKind::BestEffort),
            JobSpec::new(2, 5.0, 1, 50.0, JobKind::BestEffort),
        ];
        let eng = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                cycle_interval: 2.0,
                drain: Some(4.0 * 3600.0),
                seed: 1,
                faults: vec![FaultEvent::TaskKill {
                    at: 20.0,
                    job: JobId(1),
                }],
                ..EngineConfig::default()
            },
        );
        let m = eng.run(&jobs, &mut s).unwrap();
        assert_eq!(m.kills, 1);
        assert_eq!(s.predictor.quick_stats().censored, 1);
        // The killed job retried and completed; its *completed* runtime is
        // a legitimate observation, the truncated one is not.
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn scaled_estimate_miss_degrades_to_the_base_distribution() {
        // Satellite: the `EstimateCache::scaled → None` fallback path. A
        // cache with no entry for the job returns `None` from `scaled`;
        // the cycle must fall back to the unscaled base instead of
        // panicking — observable as a completed run even when the cache
        // is invalidated between submission and the first cycle.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let spec = JobSpec::new(1, 0.0, 1, 50.0, JobKind::BestEffort)
            .with_preference(vec![PartitionId(0)], 1.5);
        s.on_job_submitted(&spec, 0.0);
        // Simulate bookkeeping slippage: drop the entry `scaled` relies on.
        s.cache.invalidate(spec.id);
        assert!(
            s.cache.scaled(spec.id, 1.5).is_none(),
            "precondition: the scaled lookup misses"
        );
        let m = engine(2, 2).run(&[spec], &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn clusters_beyond_128_racks_schedule_on_preferred_at_default_config() {
        // A 130-rack cluster needs two mask groups. The default scheduler
        // must accept it, home the job preferring rack 129 into the second
        // group, remap the mask to group-local bits, and still place it on
        // its preferred rack.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 2, 100.0, JobKind::Slo { deadline: 1000.0 })
                .with_preference(vec![PartitionId(129)], 1.5)
                .with_weight(10.0),
            JobSpec::new(2, 0.0, 4, 100.0, JobKind::BestEffort),
        ];
        let m = engine(130, 2).run(&jobs, &mut s).unwrap();
        assert_eq!(m.outcomes[0].on_preferred, Some(true));
        assert_eq!(m.outcomes[0].measured_runtime, Some(100.0));
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn rack_mask_boundary_127_128_129_all_accepted_at_default_config() {
        // One mask holds 128 racks; one rack more is a second mask group,
        // not an error. (The engine's `ClusterTooLarge` rejection is
        // covered in `engine.rs` with a scheduler that declares a ceiling.)
        for racks in [127, 128, 129] {
            let mut s = scheduler(EstimateSource::OraclePoint);
            assert_eq!(s.max_partitions(), None);
            let jobs = vec![JobSpec::new(1, 0.0, 1, 50.0, JobKind::BestEffort)];
            let m = engine(racks, 1).run(&jobs, &mut s).unwrap();
            assert_eq!(m.completion_rate(), 1.0, "{racks} racks must work");
        }
    }

    #[test]
    fn gang_too_wide_for_its_first_group_is_homed_where_it_fits() {
        // 129 racks × 2 nodes = groups of 130 and 128 nodes. Job 1 is
        // spread by id to the 128-node group, which can never hold its 130
        // tasks: it must be planned in group 0 instead (after job 2, which
        // fills it) — not sit pending with every option pruned.
        let mut s = scheduler(EstimateSource::OraclePoint);
        let jobs = vec![
            JobSpec::new(1, 0.0, 130, 100.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 130, 100.0, JobKind::BestEffort),
        ];
        let m = engine(129, 2).run(&jobs, &mut s).unwrap();
        for o in &m.outcomes {
            assert_eq!(o.state, threesigma_cluster::JobState::Completed, "{o:?}");
        }
    }

    #[test]
    fn gang_wider_than_every_group_is_cancelled_not_left_pending() {
        // 130 racks × 2 nodes = two 130-node groups; a 140-task gang fits
        // the cluster but no group, so it can never run under group-local
        // masks. It is cancelled in its first cycle whatever its kind (and
        // with `cancel_hopeless` off), while its neighbours run.
        for kind in [JobKind::BestEffort, JobKind::Slo { deadline: 5000.0 }] {
            let mut s = ThreeSigmaScheduler::new(
                SchedConfig {
                    cancel_hopeless: false,
                    ..SchedConfig::default()
                },
                EstimateSource::OraclePoint,
                PredictorConfig::default(),
            );
            let jobs = vec![
                JobSpec::new(1, 0.0, 140, 100.0, kind),
                JobSpec::new(2, 0.0, 4, 100.0, JobKind::BestEffort),
            ];
            let m = engine(130, 2).run(&jobs, &mut s).unwrap();
            assert_eq!(m.outcomes[0].state, threesigma_cluster::JobState::Canceled);
            assert_eq!(m.outcomes[0].start_time, None);
            assert_eq!(m.outcomes[1].state, threesigma_cluster::JobState::Completed);
        }
    }

    #[test]
    fn completion_in_one_mask_group_invalidates_estimates_in_the_other() {
        // The estimate cache is one global structure — a completion handled
        // while group 0's jobs are planned must stale-out estimates
        // consulted for group 1's jobs in the same cycle. This test fails
        // if epoch bumps or invalidation ever become group-local.
        let mut s = scheduler(EstimateSource::Predicted);
        let attrs = threesigma_cluster::Attributes::new().with("user", "pat");
        let a = JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort)
            .with_preference(vec![PartitionId(0)], 1.5)
            .with_attributes(attrs.clone());
        let b = JobSpec::new(2, 0.0, 1, 100.0, JobKind::BestEffort)
            .with_preference(vec![PartitionId(129)], 1.5)
            .with_attributes(attrs);
        let groups = MaskGroups::new(130);
        let cluster = ClusterSpec::uniform(130, 2);
        assert_ne!(
            groups.home_group(&a, &cluster),
            groups.home_group(&b, &cluster),
            "precondition: the two jobs live in different mask groups"
        );
        s.on_job_submitted(&a, 0.0);
        s.on_job_submitted(&b, 0.0);
        // b's estimate is cached: the probe closure must NOT run.
        let before = s.cache.base(b.id, || Arc::new(DiscreteDist::point(999.0)));
        assert!(
            (before.mean() - 999.0).abs() > 1e-9,
            "precondition: b's estimate is cached"
        );
        // a completes — the predictor learned, so every pending estimate
        // is stale, including b's in the other group.
        s.on_job_completed(&a, &completed(&a, 42.0), 42.0);
        let after = s.cache.base(b.id, || Arc::new(DiscreteDist::point(999.0)));
        assert!(
            (after.mean() - 999.0).abs() < 1e-9,
            "b's estimate must be re-derived after the cross-group completion"
        );
    }

    fn completed(spec: &JobSpec, runtime: f64) -> threesigma_cluster::JobOutcome {
        threesigma_cluster::JobOutcome {
            id: spec.id,
            kind: spec.kind,
            submit_time: spec.submit_time,
            tasks: spec.tasks,
            state: threesigma_cluster::JobState::Completed,
            start_time: Some(spec.submit_time),
            finish_time: Some(spec.submit_time + runtime),
            measured_runtime: Some(runtime),
            preemptions: 0,
            kills: 0,
            on_preferred: Some(true),
        }
    }

    #[test]
    fn capped_cache_spares_pending_jobs_and_never_resurrects_evicted_estimates() {
        // Satellite (serve-mode cache bounds), at the scheduler level: a
        // capped cache must (a) keep every entry estimated in the current
        // epoch — those belong to still-pending jobs the in-flight cycle
        // consults — and (b) after an eviction plus further epoch bumps,
        // re-derive the evicted job's estimate from *current* history, never
        // replay the evicted distribution.
        let attrs = threesigma_cluster::Attributes::new().with("user", "u");
        let mut s = ThreeSigmaScheduler::new(
            SchedConfig {
                cache_capacity: Some(4),
                ..SchedConfig::default()
            },
            EstimateSource::Predicted,
            PredictorConfig::default(),
        );
        let spec = |id: u64| {
            JobSpec::new(id, 0.0, 1, 100.0, JobKind::BestEffort).with_attributes(attrs.clone())
        };
        let jobs: Vec<JobSpec> = (1..=12).map(spec).collect();
        for j in &jobs {
            s.on_job_submitted(j, 0.0);
        }
        assert_eq!(s.cache.len(), 12, "current-epoch entries all survive");
        assert_eq!(s.stats().cache.evictions, 0);
        // Job 1 runs (its estimate leaves the cache) and completes: the
        // epoch moves, the backlog goes stale, and the next insert evicts
        // down toward the cap (smallest id first).
        assert!(s.cache.take(jobs[0].id).is_some());
        s.on_job_completed(&jobs[0], &completed(&jobs[0], 42.0), 42.0);
        s.on_job_submitted(&spec(13), 42.0);
        assert_eq!(s.cache.len(), 4, "stale backlog evicted down to the cap");
        assert_eq!(s.stats().cache.evictions, 8);
        // Another completion bumps the epoch past the eviction. Touching an
        // evicted job must now run the estimator afresh — the pre-eviction
        // distribution is gone for good.
        assert!(s.cache.take(jobs[9].id).is_some());
        s.on_job_completed(&jobs[9], &completed(&jobs[9], 42.0), 84.0);
        let d = s
            .cache
            .base(JobId(2), || Arc::new(DiscreteDist::point(777.0)));
        assert!(
            (d.mean() - 777.0).abs() < 1e-9,
            "evicted entry re-estimates as a fresh miss, got mean {}",
            d.mean()
        );
    }

    #[test]
    fn serve_snapshot_restore_is_byte_stable_and_preserves_predictions() {
        // A restored scheduler must serialize back to the identical bytes
        // and predict identically — the scheduler-side half of the serve
        // restart-equivalence contract.
        let attrs = || {
            threesigma_cluster::Attributes::new()
                .with("user", "u")
                .with("job_name", "j")
        };
        let config = SchedConfig {
            cache_capacity: Some(64),
            max_timings: Some(16),
            ..SchedConfig::default()
        };
        let mut s = ThreeSigmaScheduler::new(
            config.clone(),
            EstimateSource::Predicted,
            PredictorConfig::default(),
        );
        let history: Vec<JobSpec> = (0..5)
            .map(|i| {
                JobSpec::new(
                    100 + i,
                    0.0,
                    1,
                    200.0 + 10.0 * i as f64,
                    JobKind::BestEffort,
                )
                .with_attributes(attrs())
            })
            .collect();
        s.pretrain(&history);
        let probe = JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort).with_attributes(attrs());
        s.on_job_submitted(&probe, 0.0);
        s.on_job_completed(&probe, &completed(&probe, 150.0), 150.0);
        let snap = s.serve_snapshot();
        let bytes = serde_json::to_string(&snap).unwrap();
        assert_eq!(
            bytes,
            serde_json::to_string(&s.serve_snapshot()).unwrap(),
            "snapshotting twice yields identical bytes"
        );

        let mut r = ThreeSigmaScheduler::new(
            config,
            EstimateSource::Predicted,
            PredictorConfig::default(),
        );
        r.serve_restore(serde_json::from_str(&bytes).unwrap())
            .unwrap();
        assert_eq!(
            serde_json::to_string(&r.serve_snapshot()).unwrap(),
            bytes,
            "restore followed by snapshot reproduces the bytes"
        );
        assert_eq!(r.stats(), s.stats(), "counters carry across the restart");
        assert_eq!(r.cache.epoch(), s.cache.epoch());
        assert_eq!(r.last_expert, s.last_expert);
        let a = s
            .estimate(&JobSpec::new(2, 0.0, 1, 50.0, JobKind::BestEffort).with_attributes(attrs()));
        let b = r
            .estimate(&JobSpec::new(2, 0.0, 1, 50.0, JobKind::BestEffort).with_attributes(attrs()));
        assert_eq!(a, b, "restored predictor predicts identically");
    }
}
