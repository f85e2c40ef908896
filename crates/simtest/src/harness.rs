//! The campaign driver: one seed in, one byte-stable report out.
//!
//! [`run_seed`] expands the seed into a [`Scenario`], runs it through all
//! three schedulers (3σSched, priority, backfill) under the full invariant
//! battery, then applies the cross-scheduler differential checks. The
//! rendered report is deterministic down to the byte — its FNV digest is
//! printed so replay divergence is visible at a glance.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use threesigma::{
    BackfillScheduler, CycleBudget, EstimateSource, PointSource, PrioScheduler, SchedConfig,
    ThreeSigmaScheduler,
};
use threesigma_cluster::{
    ClusterSpec, Engine, EngineConfig, JobOutcome, JobState, Metrics, Scheduler,
};
use threesigma_obs::Recorder;
use threesigma_predict::PredictorConfig;

use crate::fnv1a;
use crate::invariants::{CheckedScheduler, FeasibilityLog, InvariantChecker};
use crate::scenario::Scenario;

/// One scheduler's verdict for one seed.
#[derive(Debug)]
pub struct SchedulerReport {
    /// Scheduler name (`threesigma` / `prio` / `backfill`).
    pub scheduler: &'static str,
    /// Checks performed per invariant.
    pub counts: BTreeMap<&'static str, u64>,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
    /// End-of-run metrics, if the run finished without a [`SimError`].
    ///
    /// [`SimError`]: threesigma_cluster::SimError
    pub metrics: Option<Metrics>,
}

impl SchedulerReport {
    /// No violations and the run finished.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.metrics.is_some()
    }
}

/// Everything one seed produced.
#[derive(Debug)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Stress profile name.
    pub profile: &'static str,
    /// Trace size.
    pub jobs: usize,
    /// Fault-script size.
    pub faults: usize,
    /// Per-scheduler results.
    pub schedulers: Vec<SchedulerReport>,
    /// Cross-scheduler differential violations.
    pub differential: Vec<String>,
}

impl SeedReport {
    /// True when every scheduler and every differential check passed.
    pub fn passed(&self) -> bool {
        self.schedulers.iter().all(SchedulerReport::passed) && self.differential.is_empty()
    }

    /// Renders the byte-stable report (ends with its own FNV digest line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "seed {} profile={} jobs={} faults={}\n",
            self.seed, self.profile, self.jobs, self.faults
        ));
        for s in &self.schedulers {
            let m = match &s.metrics {
                Some(m) => format!(
                    "cycles={} completed={} canceled={} preemptions={} miss_pct={:.4} goodput_h={:.6}",
                    m.cycles,
                    m.count(JobState::Completed),
                    m.count(JobState::Canceled),
                    m.preemptions,
                    m.slo_miss_pct(),
                    m.goodput_hours(),
                ),
                None => "run failed (SimError)".to_string(),
            };
            out.push_str(&format!("  [{:<10}] {}\n", s.scheduler, m));
            let checks: u64 = s.counts.values().sum();
            out.push_str(&format!(
                "  [{:<10}] invariant checks={checks} violations={}\n",
                s.scheduler,
                s.violations.len()
            ));
            for v in &s.violations {
                out.push_str(&format!("  [{:<10}] VIOLATION {v}\n", s.scheduler));
            }
        }
        out.push_str(&format!(
            "  differential violations={}\n",
            self.differential.len()
        ));
        for v in &self.differential {
            out.push_str(&format!("  DIFFERENTIAL {v}\n"));
        }
        out.push_str(&format!(
            "verdict {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out.push_str(&format!("digest {:016x}\n", fnv1a(out.as_bytes())));
        out
    }
}

/// Runs one scheduler over a scenario under the full invariant battery.
fn run_one(
    scenario: &Scenario,
    name: &'static str,
    scheduler: &mut dyn Scheduler,
    recorder: &Recorder,
) -> SchedulerReport {
    let engine = Engine::new(
        ClusterSpec::uniform(scenario.racks, scenario.nodes_per_rack),
        EngineConfig {
            cycle_interval: scenario.cycle_interval,
            drain: Some(scenario.drain),
            seed: scenario.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            faults: scenario.faults.clone(),
            retry: scenario.retry,
        },
    )
    .with_recorder(recorder.clone());
    let mut checker = InvariantChecker::new(&scenario.jobs)
        .with_recorder(recorder)
        .with_retry(scenario.retry)
        .with_budget(scenario.cycle_budget);
    let log = Rc::new(RefCell::new(FeasibilityLog::default()));
    let mut checked = CheckedScheduler::new(DynScheduler(scheduler), log.clone());
    let result = engine.run_observed(&scenario.jobs, &mut checked, &mut checker);

    let (metrics, sim_error) = match result {
        Ok(m) => {
            checker.check_final_metrics(&m, scenario.total_nodes());
            (Some(m), None)
        }
        Err(e) => (None, Some(e)),
    };
    let mut violations = checker.violations().to_vec();
    let mut counts = checker.counts().clone();
    {
        let log = log.borrow();
        *counts.get_mut("decision-feasibility").unwrap() += log.checks;
        violations.extend(log.violations.iter().cloned());
    }
    if let Some(e) = sim_error {
        violations.push(format!("[engine] SimError: {e:?}"));
    }
    SchedulerReport {
        scheduler: name,
        counts,
        violations,
        metrics,
    }
}

/// `&mut dyn Scheduler` adapter so one `run_one` serves all three schedulers.
struct DynScheduler<'a>(&'a mut dyn Scheduler);

impl Scheduler for DynScheduler<'_> {
    fn max_partitions(&self) -> Option<usize> {
        self.0.max_partitions()
    }
    fn on_job_submitted(&mut self, spec: &threesigma_cluster::JobSpec, now: f64) {
        self.0.on_job_submitted(spec, now);
    }
    fn on_job_completed(
        &mut self,
        spec: &threesigma_cluster::JobSpec,
        outcome: &JobOutcome,
        now: f64,
    ) {
        self.0.on_job_completed(spec, outcome, now);
    }
    fn on_job_killed(
        &mut self,
        spec: &threesigma_cluster::JobSpec,
        elapsed: f64,
        will_retry: bool,
        now: f64,
    ) {
        self.0.on_job_killed(spec, elapsed, will_retry, now);
    }
    fn schedule(
        &mut self,
        view: &threesigma_cluster::SimulationView<'_>,
        now: f64,
    ) -> threesigma_cluster::SchedulingDecision {
        self.0.schedule(view, now)
    }
}

/// Command-line overrides applied on top of a generated scenario
/// (`threesigma simtest --max-retries N --cycle-budget-ms MS`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeedOverrides {
    /// Replaces the scenario's kill-retry budget.
    pub max_retries: Option<u32>,
    /// Imposes a *wall-clock* cycle budget on 3σSched instead of the
    /// scenario's deterministic work-unit budget. Wall-clock budgets are
    /// inherently nondeterministic, so reports under this override are not
    /// byte-stable and the work-unit governor acceptance checks are skipped.
    pub cycle_budget_ms: Option<f64>,
    /// Pins the MILP backend (`--solver-tier 0|1|2`) regardless of the
    /// degradation level. Tiers 0/1 change which plan is chosen, so reports
    /// are tier-specific — but still byte-stable per tier.
    pub solver_tier: Option<u8>,
}

impl SeedOverrides {
    fn is_default(&self) -> bool {
        // A pinned solver tier changes which ladder rung does the work, so
        // it disarms acceptance.
        self.max_retries.is_none() && self.cycle_budget_ms.is_none() && self.solver_tier.is_none()
    }
}

/// The 3σSched instance for a scenario: injected estimates when the profile
/// scripted them, oracle points otherwise. `wall_budget_ms` (from
/// `--cycle-budget-ms`) takes precedence over the scenario's deterministic
/// work-unit budget.
fn three_sigma_for_with(scenario: &Scenario, overrides: &SeedOverrides) -> ThreeSigmaScheduler {
    let source = if scenario.estimates.is_empty() {
        EstimateSource::OraclePoint
    } else {
        EstimateSource::Injected(Arc::new(scenario.estimates.clone()))
    };
    let cycle_budget = match (overrides.cycle_budget_ms, scenario.cycle_budget) {
        (Some(ms), _) => CycleBudget::WallClockMs(ms),
        (None, Some(units)) => CycleBudget::WorkUnits(units),
        (None, None) => CycleBudget::Unlimited,
    };
    ThreeSigmaScheduler::new(
        SchedConfig {
            cycle_hint: scenario.cycle_interval,
            cycle_budget,
            solver_tier: overrides.solver_tier,
            ..SchedConfig::default()
        },
        source,
        PredictorConfig::default(),
    )
}

fn three_sigma_for(scenario: &Scenario) -> ThreeSigmaScheduler {
    three_sigma_for_with(scenario, &SeedOverrides::default())
}

/// Cross-scheduler shared-safety checks over completed runs: every
/// scheduler must account for the same trace (same job ids, one outcome per
/// job) and no run may have errored.
fn differential_safety(reports: &[SchedulerReport], trace_len: usize) -> Vec<String> {
    let mut out = Vec::new();
    for r in reports {
        match &r.metrics {
            None => out.push(format!(
                "{}: run errored; differential oracle void",
                r.scheduler
            )),
            Some(m) if m.outcomes.len() != trace_len => out.push(format!(
                "{}: {} outcomes for a {}-job trace",
                r.scheduler,
                m.outcomes.len(),
                trace_len
            )),
            Some(_) => {}
        }
    }
    if out.is_empty() {
        let ids: Vec<Vec<u64>> = reports
            .iter()
            .map(|r| {
                r.metrics
                    .as_ref()
                    .unwrap()
                    .outcomes
                    .iter()
                    .map(|o| o.id.0)
                    .collect()
            })
            .collect();
        for (r, i) in reports.iter().zip(&ids).skip(1) {
            if *i != ids[0] {
                out.push(format!(
                    "{}: outcome job-id order diverges from {}",
                    r.scheduler, reports[0].scheduler
                ));
            }
        }
    }
    out
}

/// Dominance oracle: on the contention-free trace with perfect point
/// estimates, 3σSched must meet every SLO that backfill meets. Returns one
/// violation string per dominated deadline.
pub fn dominance_violations(seed: u64) -> Vec<String> {
    let scenario = Scenario::no_contention(seed);
    let ts_rec = Recorder::enabled();
    let bf_rec = Recorder::enabled();
    let mut ts = three_sigma_for(&scenario).with_recorder(&ts_rec);
    let mut bf = BackfillScheduler::new(PointSource::Oracle, PredictorConfig::default());
    let ts_report = run_one(&scenario, "threesigma", &mut ts, &ts_rec);
    let bf_report = run_one(&scenario, "backfill", &mut bf, &bf_rec);
    let mut out: Vec<String> = ts_report
        .violations
        .iter()
        .chain(&bf_report.violations)
        .map(|v| format!("dominance-trace invariant: {v}"))
        .collect();
    let (Some(ts_m), Some(bf_m)) = (&ts_report.metrics, &bf_report.metrics) else {
        out.push("dominance trace: a run errored".into());
        return out;
    };
    for (t, b) in ts_m.outcomes.iter().zip(&bf_m.outcomes) {
        if b.deadline_met() == Some(true) && t.deadline_met() != Some(true) {
            out.push(format!(
                "seed {seed}: 3sigma missed SLO job {:?} that backfill met (no contention, perfect estimates)",
                t.id
            ));
        }
    }
    out
}

/// Runs the full campaign for one seed (see module docs).
pub fn run_seed(seed: u64) -> SeedReport {
    run_seed_with(seed, SeedOverrides::default())
}

/// [`run_seed`] with command-line overrides applied on top of the generated
/// scenario. With default overrides this is exactly `run_seed`.
pub fn run_seed_with(seed: u64, overrides: SeedOverrides) -> SeedReport {
    let mut scenario = Scenario::generate(seed);
    if let Some(max_retries) = overrides.max_retries {
        scenario.retry.max_retries = max_retries;
    }
    if overrides.cycle_budget_ms.is_some() {
        // A wall-clock budget replaces the deterministic work-unit budget;
        // dropping it here disarms the work-unit cost bound in
        // `governor-sanity` (which would not hold under wall-clock caps).
        scenario.cycle_budget = None;
    }
    let ts_rec = Recorder::enabled();
    let prio_rec = Recorder::enabled();
    let bf_rec = Recorder::enabled();
    let mut ts = three_sigma_for_with(&scenario, &overrides).with_recorder(&ts_rec);
    let mut prio = PrioScheduler::new();
    let mut bf = BackfillScheduler::new(PointSource::Oracle, PredictorConfig::default());
    let mut ts_report = run_one(&scenario, "threesigma", &mut ts, &ts_rec);
    // Governor acceptance on budgeted profiles: the run must have tripped
    // the budget at least once (the profile is built to overload the
    // cycle), and the degradation ladder must have stepped all the way
    // back to level 0 by the time the backlog drained. Skipped under
    // command-line overrides, which change what the budget means.
    if scenario.cycle_budget.is_some() && overrides.is_default() {
        let snap = ts_rec.snapshot();
        let overruns = snap.counter("sched_budget_overruns_total").unwrap_or(0);
        let level = snap.gauge("sched_degradation_level").unwrap_or(0.0);
        if overruns == 0 {
            ts_report.violations.push(
                "[governor-sanity] budgeted profile never overran its cycle budget".to_string(),
            );
        }
        if level != 0.0 {
            ts_report.violations.push(format!(
                "[governor-sanity] governor still degraded (level {level}) after the run drained"
            ));
        }
    }
    let schedulers = vec![
        ts_report,
        run_one(&scenario, "prio", &mut prio, &prio_rec),
        run_one(&scenario, "backfill", &mut bf, &bf_rec),
    ];
    let mut differential = differential_safety(&schedulers, scenario.jobs.len());
    differential.extend(dominance_violations(seed));
    SeedReport {
        seed,
        profile: scenario.profile.name(),
        jobs: scenario.jobs.len(),
        faults: scenario.faults.len(),
        schedulers,
        differential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_byte_identical_across_runs() {
        let a = run_seed(3).render();
        let b = run_seed(3).render();
        assert_eq!(a, b);
    }

    #[test]
    fn every_profile_runs_all_invariants() {
        for seed in 0..7u64 {
            let r = run_seed(seed);
            assert!(r.passed(), "seed {seed}:\n{}", r.render());
            for s in &r.schedulers {
                for (name, n) in &s.counts {
                    assert!(*n > 0, "seed {seed}: {} never checked {name}", s.scheduler);
                }
            }
        }
    }

    #[test]
    fn two_mask_groups_pass_the_invariant_battery_at_default_config() {
        // 256 racks × 2 nodes = two 128-rack mask groups, scheduled by the
        // default `SchedConfig` (preemption on). Best-effort gangs fill most
        // of the cluster, then tight SLO gangs arrive; preferences point
        // into both groups.
        use threesigma_cluster::{JobKind, JobSpec, PartitionId};
        let mut jobs = Vec::new();
        for id in 1..=10u64 {
            let j = JobSpec::new(id, 0.0, 48, 400.0, JobKind::BestEffort);
            jobs.push(match id % 3 {
                0 => j.with_preference(vec![PartitionId(5), PartitionId(6)], 1.5),
                1 => j.with_preference(vec![PartitionId(130 + id as usize)], 1.5),
                _ => j,
            });
        }
        for id in 11..=22u64 {
            let submit = 20.0 + id as f64;
            let deadline = submit + 200.0;
            let j = JobSpec::new(id, submit, 30, 60.0, JobKind::Slo { deadline }).with_weight(10.0);
            jobs.push(match id % 3 {
                0 => j.with_preference(vec![PartitionId(255)], 1.5),
                1 => j.with_preference(vec![PartitionId(0), PartitionId(127)], 1.5),
                _ => j,
            });
        }
        let scenario = Scenario {
            racks: 256,
            nodes_per_rack: 2,
            cycle_interval: 2.0,
            jobs,
            ..Scenario::no_contention(0)
        };
        let rec = Recorder::enabled();
        let mut ts = ThreeSigmaScheduler::new(
            SchedConfig::default(),
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        )
        .with_recorder(&rec);
        let report = run_one(&scenario, "threesigma", &mut ts, &rec);
        assert!(report.passed(), "{:?}", report.violations);
        let m = report.metrics.expect("run finished");
        assert_eq!(m.count(JobState::Completed), scenario.jobs.len());
        assert!(m.preemptions > 0, "the SLO wave must preempt its way in");
        for (name, n) in &report.counts {
            assert!(*n > 0, "never checked {name}");
        }
    }

    #[test]
    fn threesigma_counters_tick_under_the_harness() {
        let scenario = Scenario::generate(1);
        let rec = Recorder::enabled();
        let mut ts = three_sigma_for(&scenario).with_recorder(&rec);
        let report = run_one(&scenario, "threesigma", &mut ts, &rec);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.counts["counter-consistency"] > 0);
        let snap = rec.snapshot();
        assert!(snap.counter("engine_cycles_total").unwrap_or(0) > 0);
        assert!(snap.counter("sched_options_enumerated_total").unwrap_or(0) > 0);
        assert!(snap.counter("sched_cache_lookups_total").unwrap_or(0) > 0);
    }

    #[test]
    fn node_crashes_profile_kills_retries_and_censors() {
        let scenario = Scenario::generate(5);
        assert_eq!(scenario.profile.name(), "node-crashes");
        let rec = Recorder::enabled();
        let mut ts = three_sigma_for(&scenario).with_recorder(&rec);
        let report = run_one(&scenario, "threesigma", &mut ts, &rec);
        assert!(report.passed(), "{:?}", report.violations);
        let m = report.metrics.unwrap();
        assert!(m.kills > 0, "fault script never killed a running attempt");
        // No killed job is lost: every traced job still reaches a terminal
        // state once the run drains.
        assert_eq!(
            m.count(JobState::Completed) + m.count(JobState::Canceled),
            scenario.jobs.len(),
            "a job was lost under kill/retry"
        );
        // Every kill reached the predictor as a censored observation — the
        // truncated runtimes were never fed to the histograms as completions.
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("predict_censored_observations_total"),
            Some(m.kills as u64)
        );
    }

    #[test]
    fn overload_profile_engages_the_governor_and_recovers() {
        let scenario = Scenario::generate(6);
        assert_eq!(scenario.profile.name(), "overload");
        let budget = scenario.cycle_budget.expect("overload sets a budget");
        let rec = Recorder::enabled();
        let mut ts = three_sigma_for(&scenario).with_recorder(&rec);
        let report = run_one(&scenario, "threesigma", &mut ts, &rec);
        assert!(report.passed(), "{:?}", report.violations);
        let snap = rec.snapshot();
        assert!(
            snap.counter("sched_budget_overruns_total").unwrap_or(0) >= 1,
            "overload profile never tripped the {budget}-unit budget"
        );
        assert!(snap.counter("sched_governor_step_ups_total").unwrap_or(0) >= 1);
        assert!(snap.counter("sched_governor_step_downs_total").unwrap_or(0) >= 1);
        assert_eq!(
            snap.gauge("sched_degradation_level"),
            Some(0.0),
            "governor failed to recover to full fidelity after the drain"
        );
    }

    #[test]
    fn dominance_oracle_is_clean_on_crafted_traces() {
        for seed in [1u64, 9, 23] {
            let v = dominance_violations(seed);
            assert!(v.is_empty(), "{v:?}");
        }
    }
}
