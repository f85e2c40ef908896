//! The invariant registry: what is checked after every scheduling cycle.
//!
//! Two vantage points cover the whole loop:
//!
//! * [`InvariantChecker`] is a [`CycleObserver`] fed engine *ground truth*
//!   ([`EngineSnapshot`]) after each cycle — capacity conservation under
//!   fault injection, job conservation under preemption/requeue, clock
//!   monotonicity, terminal-state immutability, per-cycle metrics sanity,
//!   and `DiscreteDist` CDF/survival consistency probes.
//! * [`CheckedScheduler`] wraps the scheduler under test and re-validates
//!   every extracted [`SchedulingDecision`] against the raw capacity rows
//!   of the view it was derived from ([`threesigma::check_decision`]),
//!   *before* the engine applies it.
//!
//! Every check increments a named counter; violations carry the cycle time
//! and enough context to diagnose from the report alone.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use threesigma::{check_decision, DiscreteDist};
use threesigma_cluster::{
    CycleObserver, EngineSnapshot, JobOutcome, JobSpec, JobState, Metrics, RetryPolicy, Scheduler,
    SchedulingDecision, SimulationView,
};
use threesigma_obs::{Counter, Gauge, Recorder};

/// Names of every invariant checked per cycle, in report order.
pub const INVARIANTS: [&str; 13] = [
    "capacity-conservation",
    "clock-monotonic",
    "counter-consistency",
    "decision-feasibility",
    "dist-consistency",
    "elapsed-sane",
    "governor-sanity",
    "job-conservation",
    "metrics-sanity",
    "no-oversubscription",
    "retry-accounting",
    "solver-tier-sanity",
    "terminal-immutability",
];

const EPS: f64 = 1e-6;

/// Engine-side invariant checker (see module docs). Feed it to
/// [`threesigma_cluster::Engine::run_observed`]; read the verdict with
/// [`InvariantChecker::counts`] / [`InvariantChecker::violations`].
pub struct InvariantChecker {
    submit_times: Vec<f64>,
    /// Per-job probe distribution for the CDF/survival consistency checks.
    dists: Vec<DiscreteDist>,
    counts: BTreeMap<&'static str, u64>,
    violations: Vec<String>,
    last_now: f64,
    last_cycles: usize,
    /// `(state, start, finish)` at the previous cycle, for immutability.
    prev: Vec<(JobState, Option<f64>, Option<f64>)>,
    /// Per-job kill count at the previous cycle, for retry accounting.
    prev_kills: Vec<u32>,
    /// Observability counters under test, when a recorder is attached.
    probe: Option<CounterProbe>,
    /// Retry policy of the run, when known — tightens `retry-accounting`.
    retry: Option<RetryPolicy>,
    /// Per-cycle work-unit budget of the run, when the scenario set one —
    /// arms the cost-bound half of `governor-sanity`.
    budget: Option<u64>,
    /// Degradation level at the previous cycle (from the published gauge).
    last_level: Option<f64>,
    /// Solver tier at the previous cycle (from the published gauge).
    last_tier: Option<f64>,
}

/// Resolved handles to the published counters the `counter-consistency`
/// invariant cross-checks. Registration is idempotent, so resolving here
/// shares storage with the engine/scheduler handles regardless of order;
/// counters a scheduler never publishes (prio, backfill) read 0 and the
/// inequalities hold vacuously.
struct CounterProbe {
    engine_cycles: Counter,
    enumerated: Counter,
    pruned: Counter,
    placed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_lookups: Counter,
    /// Degradation-governor level gauge (`governor-sanity`). Reads 0 for
    /// schedulers without a governor.
    level: Gauge,
    /// Work-unit cost of the last cycle (`governor-sanity` budget bound).
    cost: Gauge,
    /// Solver tier of the last cycle (`solver-tier-sanity`). Reads 0 for
    /// schedulers without a MILP stage.
    tier: Gauge,
}

impl CounterProbe {
    fn resolve(recorder: &Recorder) -> Self {
        let c = |name| recorder.counter(name, "simtest counter-consistency probe");
        let g = |name| recorder.gauge(name, "simtest governor-sanity probe");
        Self {
            engine_cycles: c("engine_cycles_total"),
            enumerated: c("sched_options_enumerated_total"),
            pruned: c("sched_options_pruned_total"),
            placed: c("sched_options_placed_total"),
            cache_hits: c("sched_cache_hits_total"),
            cache_misses: c("sched_cache_misses_total"),
            cache_lookups: c("sched_cache_lookups_total"),
            level: g("sched_degradation_level"),
            cost: g("sched_cycle_cost_units"),
            tier: g("sched_solver_tier"),
        }
    }
}

impl InvariantChecker {
    /// A checker for a run over `jobs`.
    pub fn new(jobs: &[JobSpec]) -> Self {
        let dists = jobs
            .iter()
            .map(|j| {
                DiscreteDist::from_points(vec![
                    (j.duration * 0.5, 0.25),
                    (j.duration, 0.5),
                    (j.duration * 2.0, 0.25),
                ])
            })
            .collect();
        Self {
            submit_times: jobs.iter().map(|j| j.submit_time).collect(),
            dists,
            counts: INVARIANTS.iter().map(|n| (*n, 0)).collect(),
            violations: Vec::new(),
            last_now: f64::NEG_INFINITY,
            last_cycles: 0,
            prev: vec![(JobState::Pending, None, None); jobs.len()],
            prev_kills: vec![0; jobs.len()],
            probe: None,
            retry: None,
            budget: None,
            last_level: None,
            last_tier: None,
        }
    }

    /// Attaches the recorder whose published counters the
    /// `counter-consistency` invariant audits every cycle. Without one the
    /// invariant still ticks but passes vacuously.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.probe = Some(CounterProbe::resolve(recorder));
        self
    }

    /// Declares the retry policy the engine runs under, tightening
    /// `retry-accounting`: no outcome may ever exceed `max_retries + 1`
    /// kills, and end-of-run cancellation counts must match exactly.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Declares the per-cycle work-unit budget the scheduler runs under,
    /// arming the cost bound of `governor-sanity`: once degraded (level ≥ 1)
    /// the published cycle cost must stay within the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = budget;
        self
    }

    /// Checks-performed counter per invariant (every invariant ticks every
    /// cycle).
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Records one named check; failures append a violation message.
    fn check(&mut self, name: &'static str, ok: bool, msg: impl FnOnce() -> String) {
        *self.counts.get_mut(name).expect("registered invariant") += 1;
        if !ok {
            self.violations.push(format!("[{name}] {}", msg()));
        }
    }

    /// End-of-run metrics sanity: unit ranges and machine-hour conservation
    /// against the space-time capacity of the run.
    pub fn check_final_metrics(&mut self, metrics: &Metrics, total_nodes: u32) {
        let miss = metrics.slo_miss_pct();
        let rate = metrics.completion_rate();
        let budget_hours = total_nodes as f64 * metrics.end_time / 3600.0 + EPS;
        let used = metrics.goodput_hours() + metrics.wasted_hours();
        let ok = (0.0..=100.0).contains(&miss)
            && (0.0..=1.0).contains(&rate)
            && metrics.goodput_hours() >= 0.0
            && metrics.wasted_hours() >= 0.0
            && metrics.slo_goodput_hours() + metrics.be_goodput_hours() <= budget_hours
            && used <= budget_hours
            && metrics.mean_be_latency().is_none_or(|l| l >= 0.0);
        self.check("metrics-sanity", ok, || {
            format!(
                "final metrics out of range: miss={miss} rate={rate} goodput={} wasted={} budget={}",
                metrics.goodput_hours(),
                metrics.wasted_hours(),
                budget_hours
            )
        });

        // retry-accounting (end of run): the aggregate kill counter is
        // exactly the sum of per-job kills, and every retry-budget
        // cancellation is backed by a job whose kills exceeded the budget.
        let outcome_kills: u64 = metrics.outcomes.iter().map(|o| u64::from(o.kills)).sum();
        let mut retry_ok =
            metrics.kills as u64 == outcome_kills && metrics.retry_cancellations <= metrics.kills;
        if let Some(retry) = self.retry {
            let exhausted = metrics
                .outcomes
                .iter()
                .filter(|o| o.kills > retry.max_retries)
                .count();
            retry_ok &= metrics.retry_cancellations == exhausted;
        }
        self.check("retry-accounting", retry_ok, || {
            format!(
                "final retry accounting inconsistent: kills={} sum(outcome.kills)={outcome_kills} retry_cancellations={}",
                metrics.kills, metrics.retry_cancellations
            )
        });
    }
}

impl CycleObserver for InvariantChecker {
    fn on_cycle(&mut self, s: &EngineSnapshot<'_>) {
        let now = s.now;
        let parts = s.capacity.len();
        let outcomes: Vec<&JobOutcome> = s.outcomes().collect();

        // clock-monotonic: time never runs backwards, cycles count up by 1.
        let (last_now, last_cycles) = (self.last_now, self.last_cycles);
        self.check(
            "clock-monotonic",
            now >= last_now && s.cycles == last_cycles + 1,
            || format!("clock {last_now}→{now}, cycle {last_cycles}→{}", s.cycles),
        );
        self.last_now = now;
        self.last_cycles = s.cycles;

        // Per-partition allocation totals from the running set.
        let mut allocated = vec![0u32; parts];
        for r in &s.running {
            for (p, n) in r.allocation {
                if p.index() < parts {
                    allocated[p.index()] += n;
                }
            }
        }

        // capacity-conservation: free + allocated + offline == capacity.
        let conserved =
            (0..parts).all(|p| s.free[p] + allocated[p] + s.offline[p] == s.capacity[p]);
        self.check("capacity-conservation", conserved, || {
            format!(
                "t={now}: free={:?} allocated={allocated:?} offline={:?} capacity={:?}",
                s.free, s.offline, s.capacity
            )
        });

        // no-oversubscription: each component individually within capacity.
        let within = (0..parts).all(|p| {
            allocated[p] <= s.capacity[p]
                && s.free[p] <= s.capacity[p]
                && s.offline[p] <= s.capacity[p]
        });
        self.check("no-oversubscription", within, || {
            format!(
                "t={now}: allocated={allocated:?} exceeds capacity={:?}",
                s.capacity
            )
        });

        // job-conservation: every arrived job is in exactly one place.
        let arrived: Vec<usize> = (0..self.submit_times.len())
            .filter(|&i| self.submit_times[i] <= now + EPS)
            .collect();
        let mut where_is = vec![0u8; self.submit_times.len()]; // bitset: 1=pending 2=running
        let mut conservation_ok = true;
        for &i in s.pending {
            if where_is[i] != 0 {
                conservation_ok = false;
            }
            where_is[i] |= 1;
        }
        for r in &s.running {
            if where_is[r.idx] != 0 {
                conservation_ok = false;
            }
            where_is[r.idx] |= 2;
        }
        let mut terminal = 0usize;
        for &i in &arrived {
            let state = outcomes[i].state;
            match state {
                JobState::Pending => conservation_ok &= where_is[i] == 1,
                JobState::Running => conservation_ok &= where_is[i] == 2,
                JobState::Completed | JobState::Canceled => {
                    terminal += 1;
                    conservation_ok &= where_is[i] == 0;
                }
            }
        }
        conservation_ok &= arrived.len() == s.pending.len() + s.running.len() + terminal;
        self.check("job-conservation", conservation_ok, || {
            format!(
                "t={now}: {} arrived != {} pending + {} running + {terminal} terminal (or a job is in two places)",
                arrived.len(),
                s.pending.len(),
                s.running.len()
            )
        });

        // elapsed-sane: submit ≤ start ≤ now for running attempts, and
        // submit ≤ start ≤ finish ≤ now for completed jobs.
        let mut elapsed_ok = true;
        for r in &s.running {
            elapsed_ok &= r.start >= self.submit_times[r.idx] - EPS && r.start <= now + EPS;
        }
        for &i in &arrived {
            let o = outcomes[i];
            if o.state == JobState::Completed {
                let (start, finish) = (o.start_time.unwrap_or(-1.0), o.finish_time.unwrap_or(-1.0));
                elapsed_ok &= start >= self.submit_times[i] - EPS
                    && finish >= start - EPS
                    && finish <= now + EPS;
            }
        }
        self.check("elapsed-sane", elapsed_ok, || {
            format!("t={now}: a job's start/finish ordering violates submit ≤ start ≤ finish ≤ now")
        });

        // terminal-immutability: terminal states and their timestamps are
        // frozen once reached.
        let mut immutable_ok = true;
        for (i, o) in outcomes.iter().enumerate() {
            let (pstate, pstart, pfinish) = self.prev[i];
            if matches!(pstate, JobState::Completed | JobState::Canceled) {
                immutable_ok &=
                    o.state == pstate && o.start_time == pstart && o.finish_time == pfinish;
            }
            self.prev[i] = (o.state, o.start_time, o.finish_time);
        }
        self.check("terminal-immutability", immutable_ok, || {
            format!("t={now}: a terminal job changed state or timestamps")
        });

        // retry-accounting: per-job kill counts only ever grow, and (when
        // the run's retry policy is declared) never exceed the retry budget
        // of `max_retries + 1` killed attempts. Together with
        // job-conservation above this is the "killed job is never lost"
        // guarantee: a killed job re-pends (and stays accounted) or is
        // cancelled (terminal), never vanishes.
        let kill_cap = self.retry.map(|r| r.max_retries + 1);
        let mut retry_ok = true;
        for (i, o) in outcomes.iter().enumerate() {
            retry_ok &= o.kills >= self.prev_kills[i];
            if let Some(cap) = kill_cap {
                retry_ok &= o.kills <= cap;
            }
            self.prev_kills[i] = o.kills;
        }
        self.check("retry-accounting", retry_ok, || {
            format!("t={now}: a job's kill count shrank or exceeded the retry budget {kill_cap:?}")
        });

        // governor-sanity: the published degradation level is an integer in
        // {0, 1, 2}, moves at most one step per cycle, and — once degraded —
        // the published cycle cost respects the declared work-unit budget.
        // Schedulers without a governor never touch the gauge, so it reads a
        // constant 0 and the checks hold vacuously.
        let (governor_ok, detail) = match &self.probe {
            Some(p) => {
                let level = p.level.get();
                let cost = p.cost.get();
                let prev = self.last_level;
                let mut ok = level.fract() == 0.0 && (0.0..=2.0).contains(&level);
                if let Some(last) = prev {
                    ok &= (level - last).abs() <= 1.0;
                }
                if let (Some(budget), true) = (self.budget, level >= 1.0) {
                    ok &= cost <= budget as f64;
                }
                self.last_level = Some(level);
                (
                    ok,
                    format!(
                        "level={level} (prev {prev:?}) cost={cost} budget={:?}",
                        self.budget
                    ),
                )
            }
            None => (true, String::new()),
        };
        self.check("governor-sanity", governor_ok, || {
            format!("t={now}: degradation governor misbehaved: {detail}")
        });

        // solver-tier-sanity: the published solver tier is an integer in
        // {0, 1, 2}, moves at most one step per cycle (the ladder-mapped
        // tier inherits the governor's hysteresis; a pinned tier is
        // constant). Schedulers without a MILP stage leave the gauge at 0,
        // so the checks hold vacuously.
        let (tier_ok, detail) = match &self.probe {
            Some(p) => {
                let tier = p.tier.get();
                let prev = self.last_tier;
                let mut ok = tier.fract() == 0.0 && (0.0..=2.0).contains(&tier);
                if let Some(last) = prev {
                    ok &= (tier - last).abs() <= 1.0;
                }
                self.last_tier = Some(tier);
                (ok, format!("tier={tier} (prev {prev:?})"))
            }
            None => (true, String::new()),
        };
        self.check("solver-tier-sanity", tier_ok, || {
            format!("t={now}: solver tier misbehaved: {detail}")
        });

        // metrics-sanity: aggregate metrics stay in-unit mid-run too.
        let live = Metrics {
            outcomes: s.outcomes().cloned().collect(),
            end_time: now,
            cycles: s.cycles,
            preemptions: 0,
            kills: 0,
            retry_cancellations: 0,
            wasted_machine_seconds: 0.0,
        };
        let total_nodes: u32 = s.capacity.iter().sum();
        let miss = live.slo_miss_pct();
        let rate = live.completion_rate();
        let completed_ms: f64 = live.outcomes.iter().map(|o| o.machine_seconds()).sum();
        let metrics_ok = (0.0..=100.0).contains(&miss)
            && (0.0..=1.0).contains(&rate)
            && completed_ms <= total_nodes as f64 * now + EPS;
        self.check("metrics-sanity", metrics_ok, || {
            format!(
                "t={now}: miss={miss} rate={rate} completed_machine_seconds={completed_ms} budget={}",
                total_nodes as f64 * now
            )
        });

        // dist-consistency: the precomputed survival table agrees exactly
        // with the linear scan, cdf + survival ≈ 1, and survival is
        // monotone non-increasing — probed on the jobs currently in play.
        let mut dist_ok = true;
        for &i in s
            .pending
            .iter()
            .chain(s.running.iter().map(|r| &r.idx))
            .take(8)
        {
            let d = &self.dists[i];
            let probes = [
                d.lower() - 1.0,
                d.lower(),
                now % (d.upper() + 1.0),
                d.upper() + 1.0,
            ];
            let mut prev_t = f64::NEG_INFINITY;
            let mut prev_s = f64::INFINITY;
            for t in probes {
                let s_fast = d.survival(t);
                let s_ref = d.survival_linear(t);
                dist_ok &= s_fast.to_bits() == s_ref.to_bits();
                dist_ok &= (d.cdf(t) + s_fast - 1.0).abs() < EPS;
                if t >= prev_t {
                    dist_ok &= s_fast <= prev_s + EPS;
                    prev_s = s_fast;
                    prev_t = t;
                }
            }
            dist_ok &= d.survival(d.upper() + 1.0) == 0.0;
        }
        self.check("dist-consistency", dist_ok, || {
            format!("t={now}: DiscreteDist survival/cdf inconsistency on an in-play job")
        });

        // counter-consistency: the published observability counters must
        // agree with themselves and with engine ground truth — options
        // enumerated covers everything placed or pruned, cache lookups
        // split exactly into hits and misses, and the engine's cycle
        // counter tracks the snapshot. Counters a scheduler never publishes
        // read 0, so the checks hold vacuously for prio/backfill.
        let (counter_ok, detail) = match &self.probe {
            Some(p) => {
                let (enumerated, pruned, placed) =
                    (p.enumerated.get(), p.pruned.get(), p.placed.get());
                let (hits, misses, lookups) = (
                    p.cache_hits.get(),
                    p.cache_misses.get(),
                    p.cache_lookups.get(),
                );
                let cycles = p.engine_cycles.get();
                let ok = enumerated >= pruned.saturating_add(placed)
                    && hits.saturating_add(misses) == lookups
                    && cycles as usize == s.cycles;
                (
                    ok,
                    format!(
                        "enumerated={enumerated} pruned={pruned} placed={placed} \
                         hits={hits} misses={misses} lookups={lookups} \
                         engine_cycles={cycles} snapshot_cycles={}",
                        s.cycles
                    ),
                )
            }
            None => (true, String::new()),
        };
        self.check("counter-consistency", counter_ok, || {
            format!("t={now}: published counters inconsistent: {detail}")
        });

        // decision-feasibility is checked by CheckedScheduler before the
        // engine applies the decision; tick the counter here so the
        // registry reports one check per cycle from this vantage too (the
        // engine applying `s.decision` without SimError is the ground-truth
        // confirmation).
        self.check("decision-feasibility", true, String::new);
        let _ = &s.decision;
    }
}

/// Shared log for [`CheckedScheduler`]: cycles checked and violations found.
#[derive(Debug, Default)]
pub struct FeasibilityLog {
    /// Decisions validated.
    pub checks: u64,
    /// Violation descriptions (empty = all feasible).
    pub violations: Vec<String>,
}

/// Wraps a scheduler and re-validates every decision it extracts against
/// the raw capacity rows of the view, via [`threesigma::check_decision`].
pub struct CheckedScheduler<S> {
    inner: S,
    log: Rc<RefCell<FeasibilityLog>>,
}

impl<S: Scheduler> CheckedScheduler<S> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: S, log: Rc<RefCell<FeasibilityLog>>) -> Self {
        Self { inner, log }
    }
}

impl<S: Scheduler> Scheduler for CheckedScheduler<S> {
    fn max_partitions(&self) -> Option<usize> {
        self.inner.max_partitions()
    }

    fn on_job_submitted(&mut self, spec: &JobSpec, now: f64) {
        self.inner.on_job_submitted(spec, now);
    }

    fn on_job_completed(&mut self, spec: &JobSpec, outcome: &JobOutcome, now: f64) {
        self.inner.on_job_completed(spec, outcome, now);
    }

    fn on_job_killed(&mut self, spec: &JobSpec, elapsed: f64, will_retry: bool, now: f64) {
        self.inner.on_job_killed(spec, elapsed, will_retry, now);
    }

    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
        let decision = self.inner.schedule(view, now);
        let mut log = self.log.borrow_mut();
        log.checks += 1;
        for v in check_decision(view, &decision) {
            log.violations
                .push(format!("[decision-feasibility] t={now}: {v}"));
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_cluster::{ClusterSpec, Engine, EngineConfig, JobKind, PartitionId, Placement};

    struct Fifo;
    impl Scheduler for Fifo {
        fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
            let mut free = view.free.to_vec();
            let mut placements = Vec::new();
            for job in &view.pending {
                let mut remaining = job.tasks;
                let mut alloc = Vec::new();
                for (p, f) in free.iter_mut().enumerate() {
                    let take = remaining.min(*f);
                    if take > 0 {
                        alloc.push((PartitionId(p), take));
                        remaining -= take;
                        *f -= take;
                    }
                }
                if remaining == 0 {
                    placements.push(Placement {
                        job: job.id,
                        allocation: alloc,
                    });
                } else {
                    for (p, n) in alloc {
                        free[p.index()] += n;
                    }
                }
            }
            SchedulingDecision {
                placements,
                ..SchedulingDecision::noop()
            }
        }
    }

    /// Drops one pending job on the floor every cycle (never places it,
    /// via an illegal "cancel a job twice" decision shape is caught by the
    /// engine, so instead: places the same job twice) — used to prove the
    /// checker catches scheduler misbehaviour before the engine does.
    struct DoublePlacer;
    impl Scheduler for DoublePlacer {
        fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
            let mut d = SchedulingDecision::noop();
            if let Some(job) = view.pending.first() {
                let pl = Placement {
                    job: job.id,
                    allocation: vec![(PartitionId(0), job.tasks)],
                };
                d.placements.push(pl.clone());
                d.placements.push(pl);
            }
            d
        }
    }

    fn jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(1, 0.0, 2, 50.0, JobKind::BestEffort),
            JobSpec::new(2, 5.0, 1, 30.0, JobKind::Slo { deadline: 500.0 }),
        ]
    }

    #[test]
    fn clean_run_checks_every_invariant_with_no_violations() {
        let trace = jobs();
        let recorder = Recorder::enabled();
        let engine = Engine::new(ClusterSpec::uniform(2, 2), EngineConfig::default())
            .with_recorder(recorder.clone());
        let mut checker = InvariantChecker::new(&trace).with_recorder(&recorder);
        let log = Rc::new(RefCell::new(FeasibilityLog::default()));
        let mut sched = CheckedScheduler::new(Fifo, log.clone());
        let m = engine
            .run_observed(&trace, &mut sched, &mut checker)
            .unwrap();
        checker.check_final_metrics(&m, 4);
        assert!(
            checker.violations().is_empty(),
            "{:?}",
            checker.violations()
        );
        for name in INVARIANTS {
            assert!(checker.counts()[name] > 0, "{name} never checked");
        }
        assert!(log.borrow().checks > 0);
        assert!(log.borrow().violations.is_empty());
    }

    #[test]
    fn checked_scheduler_flags_double_placement_before_the_engine() {
        let trace = jobs();
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let log = Rc::new(RefCell::new(FeasibilityLog::default()));
        let mut sched = CheckedScheduler::new(DoublePlacer, log.clone());
        // The engine rejects the duplicate placement with an error…
        let err = engine.run(&trace, &mut sched);
        assert!(err.is_err());
        // …but the wrapper already recorded the structured violation.
        let log = log.borrow();
        assert!(
            log.violations.iter().any(|v| v.contains("placed twice")),
            "{:?}",
            log.violations
        );
    }
}
