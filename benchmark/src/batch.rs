//! The two in-process simulation workloads, `batch-solver` and
//! `batch-compile`: a generated trace driven through the discrete-event
//! engine with the full 3σPredict → 3σSched → MILP cycle, timed from outside.

use std::hint::black_box;
use std::time::{Duration, Instant};

use threesigma::{
    CycleTiming, DiscreteDist, EstimateSource, OverestimateMode, SchedConfig, SchedStats,
    ThreeSigmaScheduler,
};
use threesigma_cluster::{
    Attributes, Engine, JobOutcome, JobSpec, Metrics, Scheduler, SchedulingDecision, SimulationView,
};
use threesigma_milp::{solver_for_tier, Model, SolverConfig};
use threesigma_obs::Recorder;
use threesigma_predict::{AttributeSource, Predictor};

use crate::inputs::{batch_input, BatchInput, BatchKind};
use crate::metrics::{RunResult, Values};
use crate::proc::{repo_root, Usage};
use crate::stats::{mean, median, median_percentile, sorted};
use crate::trace::{SpanId, Tracer};
use crate::RunOpts;

/// Iterations every run makes even when `--seconds` is already spent, so
/// the quality metrics (taken from these) never depend on machine speed.
pub const MIN_ITERATIONS: u32 = 3;

/// Wraps a scheduler and times every call the engine makes into it. This
/// is how the `core` layer is measured without touching it.
pub struct Timed<'t, S> {
    /// The scheduler under test.
    pub inner: S,
    tracer: &'t mut Tracer,
    parent: Option<SpanId>,
    /// Milliseconds of every `schedule` call that had pending jobs to
    /// decide about — Fig. 12's quantity. Idle cycles are left out: a
    /// simulation spends most of its tail in them, and how long that tail
    /// is depends on one long job, not on the scheduler.
    pub busy_ms: Vec<f64>,
}

impl<'t, S: Scheduler> Timed<'t, S> {
    /// Wraps `inner`; spans become children of `parent`.
    pub fn new(inner: S, tracer: &'t mut Tracer, parent: Option<SpanId>) -> Self {
        Self {
            inner,
            tracer,
            parent,
            busy_ms: Vec::new(),
        }
    }

    fn callback(&mut self, start: Instant) {
        self.tracer
            .record("core.callbacks", start, Instant::now(), self.parent);
    }
}

impl<S: Scheduler> Scheduler for Timed<'_, S> {
    fn on_job_submitted(&mut self, spec: &JobSpec, now: f64) {
        let start = Instant::now();
        self.inner.on_job_submitted(spec, now);
        self.callback(start);
    }

    fn on_job_completed(&mut self, spec: &JobSpec, outcome: &JobOutcome, now: f64) {
        let start = Instant::now();
        self.inner.on_job_completed(spec, outcome, now);
        self.callback(start);
    }

    fn on_job_killed(&mut self, spec: &JobSpec, elapsed: f64, will_retry: bool, now: f64) {
        let start = Instant::now();
        self.inner.on_job_killed(spec, elapsed, will_retry, now);
        self.callback(start);
    }

    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
        let start = Instant::now();
        let decision = self.inner.schedule(view, now);
        let end = Instant::now();
        if !view.pending.is_empty() {
            self.busy_ms.push((end - start).as_secs_f64() * 1e3);
        }
        self.tracer.record("core.schedule", start, end, self.parent);
        decision
    }

    fn max_partitions(&self) -> Option<usize> {
        self.inner.max_partitions()
    }
}

/// Sums of the scheduler's own per-cycle stage clocks.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageSums {
    /// Option generation.
    pub generate_s: f64,
    /// MILP compilation.
    pub compile_s: f64,
    /// Solver.
    pub solve_s: f64,
    /// Solution extraction.
    pub extract_s: f64,
    /// Mean MILP columns over cycles that built a model.
    pub vars_mean: f64,
    /// Mean MILP rows over cycles that built a model.
    pub rows_mean: f64,
}

impl StageSums {
    /// Folds the public `CycleTiming` records of one run.
    pub fn of(timings: &[CycleTiming]) -> Self {
        let sum =
            |f: fn(&CycleTiming) -> Duration| timings.iter().map(f).sum::<Duration>().as_secs_f64();
        let models: Vec<&CycleTiming> = timings.iter().filter(|t| t.milp_vars > 0).collect();
        let avg = |f: fn(&CycleTiming) -> usize| {
            mean(&models.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
        };
        Self {
            generate_s: sum(|t| t.generate),
            compile_s: sum(|t| t.compile),
            solve_s: sum(|t| t.solver),
            extract_s: sum(|t| t.extract),
            vars_mean: avg(|t| t.milp_vars),
            rows_mean: avg(|t| t.milp_rows),
        }
    }

    /// Σ of the four stages.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.compile_s + self.solve_s + self.extract_s
    }
}

/// Everything one simulated run produced.
pub struct Iteration {
    /// Pre-training plus engine run, as `driver::run` does both.
    pub wall_s: f64,
    /// Busy-cycle `schedule` latencies, ascending.
    pub busy_ms: Vec<f64>,
    /// The run's §5 metrics and per-job outcomes.
    pub metrics: Metrics,
    /// The scheduler's deterministic counters.
    pub stats: SchedStats,
    /// The scheduler's own stage clocks.
    pub stages: StageSums,
}

/// Runs one simulation. Spans go to `tracer`; metrics to `recorder`.
pub fn iterate(
    input: &BatchInput,
    tracer: &mut Tracer,
    recorder: &Recorder,
) -> Result<Iteration, String> {
    let exp = &input.exp;
    let root = tracer.begin("bench.iteration", None);
    let start = Instant::now();
    // Configured as `driver::run(SchedulerKind::ThreeSigma, …)` configures
    // it: predicted distributions, adaptive over-estimate handling.
    let config = SchedConfig {
        oe_mode: OverestimateMode::Adaptive,
        cycle_hint: exp.engine.cycle_interval,
        ..exp.sched.clone()
    };
    let mut sched =
        ThreeSigmaScheduler::new(config, EstimateSource::Predicted, exp.predictor.clone())
            .with_recorder(recorder);
    let span = tracer.begin("predict.pretrain", Some(root));
    sched.pretrain(&input.trace.pretrain);
    tracer.end(span);

    let engine =
        Engine::new(exp.cluster.clone(), exp.engine.clone()).with_recorder(recorder.clone());
    let span = tracer.begin("cluster.engine", Some(root));
    let mut timed = Timed::new(sched, tracer, Some(span));
    let metrics = engine
        .run(&input.trace.jobs, &mut timed)
        .map_err(|e| format!("simulation failed: {e}"))?;
    let Timed {
        inner: sched,
        mut busy_ms,
        ..
    } = timed;
    tracer.end(span);
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end(root);
    sorted(&mut busy_ms);
    Ok(Iteration {
        wall_s,
        busy_ms,
        metrics,
        stats: sched.stats(),
        stages: StageSums::of(sched.timings()),
    })
}

/// Output checks every iteration must pass; returns jobs without an outcome.
fn check(it: &Iteration, input: &BatchInput, which: &str, result: &mut RunResult) -> u64 {
    let jobs = input.trace.jobs.len();
    if it.metrics.outcomes.len() != jobs {
        result.violation(format!(
            "{which}: {} outcomes for {jobs} jobs",
            it.metrics.outcomes.len()
        ));
    }
    // The 2 s wall-clock solver limit must never fire: a timed-out solve is
    // the one machine-dependent outcome, and it would make results timing-
    // dependent.
    if it.stats.solver_timeouts != 0 {
        result.violation(format!(
            "{which}: {} solver timeouts",
            it.stats.solver_timeouts
        ));
    }
    jobs.saturating_sub(it.metrics.outcomes.len()) as u64
}

/// Runs a batch workload as `opts` asks.
pub fn run(kind: BatchKind, opts: &RunOpts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut tracer = Tracer::new(opts.trace);
    let off = Recorder::disabled();

    let make_input = |tracer: &mut Tracer, iteration: u32| {
        let span = tracer.begin("workload.generate", None);
        let input = batch_input(kind, opts.seed, iteration, opts.scale);
        tracer.end(span);
        input
    };

    // Set-up: generate iteration 0's input and run it once, untimed, so
    // caches, the allocator and the page cache are in their steady state.
    let setup = Instant::now();
    let mut input = make_input(&mut tracer, 0);
    let warm = iterate(&input, &mut Tracer::new(false), &off)?;
    result.values.set("setup_s", setup.elapsed().as_secs_f64());

    let measure = Instant::now();
    let cpu_before = Usage::of_self().cpu_s;
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut jobs = 0usize;
    let mut i = 0u32;
    while i < MIN_ITERATIONS || measure.elapsed().as_secs_f64() < opts.seconds {
        tracer.set_iteration(i);
        if i > 0 {
            input = make_input(&mut tracer, i);
        }
        let which = format!("iteration {i}");
        let it = iterate(&input, &mut Tracer::new(false), &off)?;
        result.failed += check(&it, &input, &which, &mut result);
        // Iteration 0 repeats the warm-up's input: the simulator is
        // deterministic, so every job must end exactly as it did then.
        if i == 0 && it.metrics.outcomes != warm.metrics.outcomes {
            result.violation("iteration 0 did not reproduce the warm-up's outcomes");
        }
        if opts.trace {
            let again = iterate(&input, &mut tracer, &off)?;
            check(&again, &input, &format!("traced {which}"), &mut result);
            if again.metrics.outcomes != it.metrics.outcomes {
                result.violation(format!("traced {which} decided differently"));
            }
            traced.push(again);
        }
        jobs += input.trace.jobs.len();
        untraced.push(it);
        i += 1;
    }
    let cpu_s = Usage::of_self().cpu_s - cpu_before;
    result.attempted = jobs as u64;

    if opts.trace {
        layer_metrics(&mut result, &tracer, &untraced, &traced, jobs);
        // The last input is still at hand; its untraced run is the baseline.
        probes(&mut result, &input, &untraced[untraced.len() - 1])?;
        crate::write_trace(opts, &tracer)?;
        return Ok(result);
    }

    let wall: f64 = untraced.iter().map(|it| it.wall_s).sum();
    let cycles = || untraced.iter().map(|it| it.busy_ms.as_slice());
    let quality = |f: fn(&Metrics) -> f64| {
        let first = &untraced[..MIN_ITERATIONS as usize];
        mean(&first.iter().map(|it| f(&it.metrics)).collect::<Vec<_>>())
    };
    let v = &mut result.values;
    v.set("jobs_per_s", jobs as f64 / wall);
    v.set("latency_p50_ms", median_percentile(cycles(), 0.50));
    v.set("latency_p99_ms", median_percentile(cycles(), 0.99));
    v.set("cpu_ms_per_job", cpu_s * 1e3 / jobs as f64);
    v.set("peak_rss_mb", Usage::of_self().peak_rss_mb);
    v.set("slo_met_pct", quality(|m| 100.0 - m.slo_miss_pct()));
    v.set("goodput_mh", quality(Metrics::goodput_hours));
    eprintln!(
        "{} iterations, {jobs} jobs, {} busy cycles, iteration wall {:.3} s (median)",
        untraced.len(),
        cycles().map(<[f64]>::len).sum::<usize>(),
        median(&untraced.iter().map(|it| it.wall_s).collect::<Vec<_>>())
    );
    Ok(result)
}

/// Per-run means of what the scheduler's public counters and stage clocks
/// say about `runs`; `schedule_s` is the mean time the runs spent inside
/// `schedule`, which the stages must add up to.
pub fn scheduler_layers(v: &mut Values, runs: &[(SchedStats, StageSums)], schedule_s: f64) {
    let n = runs.len() as f64;
    let count = |f: fn(&SchedStats) -> u64| runs.iter().map(|(s, _)| f(s) as f64).sum::<f64>() / n;
    let stage = |f: fn(&StageSums) -> f64| runs.iter().map(|(_, g)| f(g)).sum::<f64>() / n;
    let stages = stage(StageSums::total_s);
    let enumerated = count(|s| s.options_enumerated);
    v.set("core.schedule_s", schedule_s);
    v.set("core.cycles", count(|s| s.cycles));
    v.set("core.generate_s", stage(|g| g.generate_s));
    v.set("core.compile_s", stage(|g| g.compile_s));
    v.set("core.extract_s", stage(|g| g.extract_s));
    v.set("core.unattributed_s", schedule_s - stages);
    v.set("core.options_enumerated", enumerated);
    v.set("core.options_pruned", count(|s| s.options_pruned));
    v.set("core.options_placed", count(|s| s.options_placed));
    v.set(
        "core.option_yield",
        ratio(count(|s| s.options_placed), enumerated),
    );
    v.set(
        "core.cache_hit_ratio",
        ratio(count(|s| s.cache.hits), count(|s| s.cache.lookups)),
    );
    v.set("core.milp_vars_mean", stage(|g| g.vars_mean));
    v.set("core.milp_rows_mean", stage(|g| g.rows_mean));
    v.set("milp.solve_s", stage(|g| g.solve_s));
    v.set("milp.nodes", count(|s| s.milp_nodes));
    v.set("milp.pivots", count(|s| s.milp_pivots));
    v.set(
        "milp.incremental_reuse_ratio",
        ratio(count(|s| s.incremental_reuses), count(|s| s.tier2_cycles)),
    );
    v.set("milp.timeouts", count(|s| s.solver_timeouts));
    v.set("bench.stages_sum_pct", 100.0 * ratio(stages, schedule_s));
}

/// Per-iteration means of everything the spans and the scheduler's public
/// counters say about the traced iterations.
fn layer_metrics(
    result: &mut RunResult,
    tracer: &Tracer,
    untraced: &[Iteration],
    traced: &[Iteration],
    jobs: usize,
) {
    let n = traced.len() as f64;
    let per_iter = |f: fn(&Iteration) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let wall = per_iter(|it| it.wall_s);
    let schedule_s = tracer.total_s("core.schedule") / n;
    let callbacks_s = tracer.total_s("core.callbacks") / n;
    let pretrain_s = tracer.total_s("predict.pretrain") / n;
    let engine_self_s = tracer.self_s("cluster.engine") / n;
    let runs: Vec<_> = traced.iter().map(|it| (it.stats, it.stages)).collect();
    let v = &mut result.values;
    scheduler_layers(v, &runs, schedule_s);
    v.set(
        "workload.generate_s",
        tracer.total_s("workload.generate") / n,
    );
    v.set("workload.jobs", jobs as f64 / n);
    v.set("predict.pretrain_s", pretrain_s);
    v.set("core.callbacks_s", callbacks_s);
    v.set("core.busy_cycles", per_iter(|it| it.busy_ms.len() as f64));
    v.set("cluster.engine_self_s", engine_self_s);
    v.set(
        "cluster.engine_cycles",
        per_iter(|it| it.metrics.cycles as f64),
    );
    v.set(
        "cluster.preemptions",
        per_iter(|it| it.metrics.preemptions as f64),
    );
    v.set("bench.iterations", n);
    v.set("bench.iteration_wall_s", wall);
    // Parts must sum to the whole: the four layer times against the
    // iteration wall.
    v.set(
        "bench.parts_sum_pct",
        100.0 * ratio(pretrain_s + schedule_s + callbacks_s + engine_self_s, wall),
    );
    let plain: f64 = untraced.iter().map(|it| it.wall_s).sum();
    v.set("bench.trace_overhead_pct", 100.0 * (wall * n / plain - 1.0));
    v.set("bench.traced_wall_s", wall * n);
}

pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

struct Attrs<'a>(&'a Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// Micro-loops over single public functions of the layers under `core`,
/// on this workload's own input.
fn probes(result: &mut RunResult, input: &BatchInput, plain: &Iteration) -> Result<(), String> {
    // 3σPredict: the observe/predict loop Fig. 12 times.
    let history = &input.trace.pretrain;
    let mut predictor = Predictor::new(input.exp.predictor.clone());
    let start = Instant::now();
    for job in history {
        predictor.observe(&Attrs(&job.attributes), job.duration);
    }
    let observe_us = start.elapsed().as_secs_f64() * 1e6 / history.len().max(1) as f64;
    let start = Instant::now();
    for job in history {
        black_box(predictor.predict(&Attrs(black_box(&job.attributes))));
    }
    let predict_us = start.elapsed().as_secs_f64() * 1e6 / history.len().max(1) as f64;

    // `DiscreteDist::survival`: the capacity-row inner loop of compilation.
    let dists: Vec<DiscreteDist> = history
        .iter()
        .take(256)
        .filter_map(|j| predictor.predict(&Attrs(&j.attributes)))
        .map(|p| DiscreteDist::from_distribution(&p.distribution, input.exp.sched.mass_points))
        .collect();
    const SURVIVAL_CALLS: usize = 4_000_000;
    let mut acc = 0.0;
    let start = Instant::now();
    if !dists.is_empty() {
        for k in 0..SURVIVAL_CALLS {
            let d = &dists[k % dists.len()];
            acc += d.survival(black_box(d.upper() * (k % 97) as f64 / 97.0));
        }
    }
    black_box(acc);
    let survival_ns = start.elapsed().as_secs_f64() * 1e9 / SURVIVAL_CALLS as f64;

    // The solver alone, over the checked-in scheduling-cycle models, with
    // the budgets the scheduler gives it minus the wall-clock limit.
    let dir = repo_root().join("crates/milp/tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "milp"))
        .collect();
    paths.sort();
    let models = paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
            Model::from_text(&text).map_err(|e| format!("parse {}: {e}", p.display()))
        })
        .collect::<Result<Vec<Model>, String>>()?;
    let config = SolverConfig {
        node_limit: input.exp.sched.solver_nodes,
        time_limit: None,
        gap_tolerance: 1e-4,
        ..SolverConfig::default()
    };
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for model in &models {
                black_box(solver_for_tier(2, config.clone()).solve(black_box(model)));
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // What the metrics recorder costs: the same iteration with it enabled.
    let recorded = iterate(input, &mut Tracer::new(false), &Recorder::enabled())?;

    let v = &mut result.values;
    v.set("predict.observe_us", observe_us);
    v.set("predict.predict_us", predict_us);
    v.set("predict.tracked_values", predictor.tracked_values() as f64);
    v.set("core.dist.survival_ns", survival_ns);
    v.set("milp.fixture_solve_ms", median(&passes));
    v.set(
        "obs.recorder_overhead_pct",
        100.0 * (recorded.wall_s / plain.wall_s - 1.0),
    );
    Ok(())
}
