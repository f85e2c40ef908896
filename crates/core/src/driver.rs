//! End-to-end experiment driver: Table 1's systems over a generated trace.
//!
//! Wires a workload [`Trace`] (pre-training history + jobs), a scheduler
//! configuration, and the discrete-event [`Engine`] together, exactly like
//! the paper's harness: pre-train 3σPredict on history, replay the trace,
//! collect the §5 success metrics.

use std::sync::Arc;

use threesigma_cluster::{
    ClusterSpec, CycleObserver, Engine, EngineConfig, EngineSnapshot, Metrics, RcFidelity, SimError,
};
use threesigma_obs::Recorder;
use threesigma_predict::PredictorConfig;
use threesigma_workload::Trace;

use crate::sched::prio::PrioScheduler;
use crate::sched::threesigma::{
    CycleTiming, EstimateSource, OverestimateMode, SchedConfig, SchedStats, ThreeSigmaScheduler,
};

/// The scheduling systems compared in the paper (Table 1 + §6.2 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Full system: predicted distributions + adaptive OE handling.
    ThreeSigma,
    /// Ablation: point estimates instead of distributions (keeps OE).
    ThreeSigmaNoDist,
    /// Ablation: distributions without over-estimate handling.
    ThreeSigmaNoOE,
    /// Ablation: over-estimate handling always on (non-adaptive).
    ThreeSigmaNoAdapt,
    /// Hypothetical: perfect point estimates (oracle).
    PointPerfEst,
    /// State of the art: point estimates from the real predictor.
    PointRealEst,
    /// Extension baseline: point estimates padded by one standard
    /// deviation (the "stochastic scheduler" heuristic of §2.2).
    PointPaddedEst,
    /// Extension baseline: EASY backfilling with predicted point estimates
    /// (the classic HPC scheduler family of the paper's related work).
    Backfill,
    /// Runtime-unaware strict priority (Borg-like).
    Prio,
}

impl SchedulerKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::ThreeSigma => "3Sigma",
            SchedulerKind::ThreeSigmaNoDist => "3SigmaNoDist",
            SchedulerKind::ThreeSigmaNoOE => "3SigmaNoOE",
            SchedulerKind::ThreeSigmaNoAdapt => "3SigmaNoAdapt",
            SchedulerKind::PointPerfEst => "PointPerfEst",
            SchedulerKind::PointRealEst => "PointRealEst",
            SchedulerKind::PointPaddedEst => "PointPaddedEst",
            SchedulerKind::Backfill => "Backfill",
            SchedulerKind::Prio => "Prio",
        }
    }

    /// The four headline systems of Figs. 1/6/7/10/11.
    pub fn headline() -> [SchedulerKind; 4] {
        [
            SchedulerKind::ThreeSigma,
            SchedulerKind::PointPerfEst,
            SchedulerKind::PointRealEst,
            SchedulerKind::Prio,
        ]
    }

    /// Estimate source + OE mode for the MILP scheduler; `None` for Prio.
    fn milp_config(&self) -> Option<(EstimateSource, OverestimateMode)> {
        match self {
            SchedulerKind::ThreeSigma => {
                Some((EstimateSource::Predicted, OverestimateMode::Adaptive))
            }
            SchedulerKind::ThreeSigmaNoDist => {
                Some((EstimateSource::PredictedPoint, OverestimateMode::Adaptive))
            }
            SchedulerKind::ThreeSigmaNoOE => {
                Some((EstimateSource::Predicted, OverestimateMode::Off))
            }
            SchedulerKind::ThreeSigmaNoAdapt => {
                Some((EstimateSource::Predicted, OverestimateMode::Always))
            }
            SchedulerKind::PointPerfEst => {
                Some((EstimateSource::OraclePoint, OverestimateMode::Off))
            }
            SchedulerKind::PointRealEst => {
                Some((EstimateSource::PredictedPoint, OverestimateMode::Off))
            }
            SchedulerKind::PointPaddedEst => Some((
                EstimateSource::PredictedPadded { sigmas: 1.0 },
                OverestimateMode::Off,
            )),
            SchedulerKind::Backfill | SchedulerKind::Prio => None,
        }
    }
}

/// A full experiment configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Cluster topology (and RC-fidelity noise, if any).
    pub cluster: ClusterSpec,
    /// Engine settings (cycle interval, drain, seed).
    pub engine: EngineConfig,
    /// 3σSched settings.
    pub sched: SchedConfig,
    /// 3σPredict settings.
    pub predictor: PredictorConfig,
}

impl Experiment {
    /// The simulated 256-node cluster of the paper (SC256): 8 racks × 32.
    pub fn paper_sc256() -> Self {
        let engine = EngineConfig {
            cycle_interval: 10.0,
            drain: None,
            seed: 0x5C256,
            ..EngineConfig::default()
        };
        let sched = SchedConfig {
            cycle_hint: engine.cycle_interval,
            ..SchedConfig::default()
        };
        Self {
            cluster: ClusterSpec::uniform(8, 32),
            engine,
            sched,
            predictor: PredictorConfig::default(),
        }
    }

    /// The "real" 256-node cluster (RC256): SC256 plus fidelity noise.
    pub fn paper_rc256() -> Self {
        let mut e = Self::paper_sc256();
        e.cluster = e.cluster.with_rc_fidelity(RcFidelity::default());
        e.engine.seed = 0x2C256;
        e
    }

    /// Overrides the scheduling-cycle interval (keeps exp-inc hint in sync).
    pub fn with_cycle(mut self, seconds: f64) -> Self {
        self.engine.cycle_interval = seconds;
        self.sched.cycle_hint = seconds;
        self
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The §5 success metrics.
    pub metrics: Metrics,
    /// Per-cycle scheduler timings (empty for Prio).
    pub timings: Vec<CycleTiming>,
    /// Cumulative deterministic scheduler counters (None for the
    /// non-MILP baselines, which keep no such bookkeeping).
    pub stats: Option<SchedStats>,
}

/// A [`CycleObserver`] that renders one JSON line per scheduling cycle —
/// the per-run trace file format consumed by the simtest reports and the
/// Fig. 12 tooling. Lines are hand-formatted from [`CycleStats`]'s
/// numeric fields, so the output is byte-stable for a fixed seed.
///
/// [`CycleStats`]: threesigma_cluster::CycleStats
#[derive(Debug, Clone, Default)]
pub struct CycleTraceWriter {
    lines: Vec<String>,
    /// Resolved `sched_degradation_level` gauge when a recorder is
    /// attached; the scheduler flushes its metrics inside `schedule()`,
    /// before the engine calls `on_cycle`, so the gauge is current.
    level: Option<threesigma_obs::Gauge>,
    /// Resolved `sched_solver_tier` gauge; same lifecycle as `level`.
    tier: Option<threesigma_obs::Gauge>,
}

impl CycleTraceWriter {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Includes the scheduler's degradation-governor level in each trace
    /// line, read from `recorder`'s `sched_degradation_level` gauge
    /// (registration is idempotent, so this shares storage with the
    /// scheduler's own handle). Without a recorder — or for baselines that
    /// never publish the gauge — the field reads 0.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &threesigma_obs::Recorder) -> Self {
        if recorder.is_enabled() {
            self.level = Some(recorder.gauge(
                "sched_degradation_level",
                "Current degradation-ladder level (0 = full MILP, 2 = minimal greedy)",
            ));
            self.tier = Some(recorder.gauge(
                "sched_solver_tier",
                "Solver tier of the last cycle (0 greedy, 1 LP+repair, 2 B&B)",
            ));
        }
        self
    }

    /// The collected JSON lines, one per cycle.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The whole trace as JSON-lines text (trailing newline included when
    /// non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl CycleObserver for CycleTraceWriter {
    fn on_cycle(&mut self, snapshot: &EngineSnapshot<'_>) {
        let s = snapshot.cycle_stats();
        let level = self.level.as_ref().map_or(0.0, |g| g.get()) as u8;
        let tier = self.tier.as_ref().map_or(0.0, |g| g.get()) as u8;
        self.lines.push(format!(
            "{{\"cycle\":{},\"now\":{},\"queue_depth\":{},\"running\":{},\"free_nodes\":{},\
             \"offline_nodes\":{},\"fault_debt_nodes\":{},\"capacity_nodes\":{},\
             \"utilization\":{},\"placements\":{},\"preemptions\":{},\"cancellations\":{},\
             \"degradation_level\":{},\"solver_tier\":{}}}",
            s.cycle,
            s.now,
            s.queue_depth,
            s.running,
            s.free_nodes,
            s.offline_nodes,
            s.fault_debt_nodes,
            s.capacity_nodes,
            s.utilization,
            s.placements,
            s.preemptions,
            s.cancellations,
            level,
            tier,
        ));
    }
}

struct NoopObserver;

impl CycleObserver for NoopObserver {
    fn on_cycle(&mut self, _snapshot: &EngineSnapshot<'_>) {}
}

/// Runs one system over a trace.
pub fn run(kind: SchedulerKind, trace: &Trace, exp: &Experiment) -> Result<RunResult, SimError> {
    run_observed(kind, trace, exp, &Recorder::disabled(), &mut NoopObserver)
}

/// Like [`run`], but publishes per-cycle engine and scheduler metrics
/// through `recorder` and hands `observer` an [`EngineSnapshot`] after
/// every cycle — the instrumented path behind `threesigma metrics` and the
/// simtest counter-consistency invariant.
pub fn run_observed(
    kind: SchedulerKind,
    trace: &Trace,
    exp: &Experiment,
    recorder: &Recorder,
    observer: &mut dyn CycleObserver,
) -> Result<RunResult, SimError> {
    match kind.milp_config() {
        None => {
            let engine = Engine::new(exp.cluster.clone(), exp.engine.clone())
                .with_recorder(recorder.clone());
            let metrics = match kind {
                SchedulerKind::Backfill => {
                    let mut sched = crate::sched::backfill::BackfillScheduler::new(
                        crate::sched::backfill::PointSource::Predicted,
                        exp.predictor.clone(),
                    );
                    sched.pretrain(&trace.pretrain);
                    engine.run_observed(&trace.jobs, &mut sched, observer)?
                }
                _ => {
                    let mut sched = PrioScheduler::new();
                    engine.run_observed(&trace.jobs, &mut sched, observer)?
                }
            };
            Ok(RunResult {
                metrics,
                timings: Vec::new(),
                stats: None,
            })
        }
        Some((source, oe_mode)) => {
            run_with_source_observed(source, oe_mode, trace, exp, recorder, observer)
        }
    }
}

/// Runs the MILP scheduler with an explicit estimate source and OE mode —
/// the hook the §6.3 perturbation study uses to inject synthetic
/// distributions.
pub fn run_with_source(
    source: EstimateSource,
    oe_mode: OverestimateMode,
    trace: &Trace,
    exp: &Experiment,
) -> Result<RunResult, SimError> {
    run_with_source_observed(
        source,
        oe_mode,
        trace,
        exp,
        &Recorder::disabled(),
        &mut NoopObserver,
    )
}

/// [`run_with_source`] with metrics and cycle observation attached.
pub fn run_with_source_observed(
    source: EstimateSource,
    oe_mode: OverestimateMode,
    trace: &Trace,
    exp: &Experiment,
    recorder: &Recorder,
    observer: &mut dyn CycleObserver,
) -> Result<RunResult, SimError> {
    let sched_config = SchedConfig {
        oe_mode,
        cycle_hint: exp.engine.cycle_interval,
        ..exp.sched.clone()
    };
    let needs_history = matches!(
        source,
        EstimateSource::Predicted
            | EstimateSource::PredictedPoint
            | EstimateSource::PredictedPadded { .. }
    );
    let mut sched = ThreeSigmaScheduler::new(sched_config, source, exp.predictor.clone())
        .with_recorder(recorder);
    if needs_history {
        sched.pretrain(&trace.pretrain);
    }
    let engine =
        Engine::new(exp.cluster.clone(), exp.engine.clone()).with_recorder(recorder.clone());
    let metrics = engine.run_observed(&trace.jobs, &mut sched, observer)?;
    Ok(RunResult {
        metrics,
        timings: sched.timings().to_vec(),
        stats: Some(sched.stats()),
    })
}

/// Convenience: an injected-distribution source from a prebuilt map.
pub fn injected(
    map: std::collections::HashMap<
        threesigma_cluster::JobId,
        threesigma_histogram::RuntimeDistribution,
    >,
) -> EstimateSource {
    EstimateSource::Injected(Arc::new(map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_workload::{generate, Environment, WorkloadConfig};

    fn tiny_trace() -> Trace {
        let config = WorkloadConfig {
            duration: 900.0,
            pretrain_jobs: 400,
            ..WorkloadConfig::e2e(Environment::Google, 99)
        };
        generate(&config)
    }

    #[test]
    fn all_kinds_run_to_completion() {
        let trace = tiny_trace();
        let exp = Experiment::paper_sc256().with_cycle(20.0);
        for kind in [
            SchedulerKind::ThreeSigma,
            SchedulerKind::PointPerfEst,
            SchedulerKind::PointRealEst,
            SchedulerKind::Prio,
        ] {
            let r = run(kind, &trace, &exp).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(r.metrics.outcomes.len(), trace.jobs.len(), "{kind:?}");
            assert!(
                r.metrics.completion_rate() > 0.5,
                "{kind:?} completed {}",
                r.metrics.completion_rate()
            );
            if kind != SchedulerKind::Prio {
                assert!(!r.timings.is_empty());
            }
        }
    }

    #[test]
    fn results_are_deterministic() {
        let trace = tiny_trace();
        let exp = Experiment::paper_sc256().with_cycle(20.0);
        let a = run(SchedulerKind::ThreeSigma, &trace, &exp).unwrap();
        let b = run(SchedulerKind::ThreeSigma, &trace, &exp).unwrap();
        // Bit-identical replay: every per-job outcome matches exactly.
        assert_eq!(a.metrics.outcomes, b.metrics.outcomes);
        assert_eq!(a.metrics.preemptions, b.metrics.preemptions);
    }

    #[test]
    fn observed_run_publishes_metrics_and_a_byte_stable_trace() {
        let trace = tiny_trace();
        let exp = Experiment::paper_sc256().with_cycle(20.0);

        let recorder = Recorder::enabled();
        let mut writer = CycleTraceWriter::new().with_recorder(&recorder);
        let r = run_observed(
            SchedulerKind::ThreeSigma,
            &trace,
            &exp,
            &recorder,
            &mut writer,
        )
        .unwrap();
        let stats = r.stats.expect("MILP kinds report stats");
        assert!(stats.cycles > 0);
        assert!(stats.options_enumerated >= stats.options_pruned + stats.options_placed);

        // Engine and scheduler metrics land in the same registry.
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter("engine_cycles_total"),
            Some(r.metrics.cycles as u64)
        );
        assert_eq!(snap.counter("sched_cycles_total"), Some(stats.cycles));

        // One trace line per cycle, and the whole run replays byte-stable.
        assert_eq!(writer.lines().len(), r.metrics.cycles);
        assert!(writer.lines()[0].starts_with("{\"cycle\":1,"));
        // Unbudgeted run: the governor stays at level 0 (solver tier 2) on
        // every line.
        assert!(writer
            .lines()
            .iter()
            .all(|l| l.ends_with(",\"degradation_level\":0,\"solver_tier\":2}")));
        let rec2 = Recorder::enabled();
        let mut writer2 = CycleTraceWriter::new().with_recorder(&rec2);
        let r2 =
            run_observed(SchedulerKind::ThreeSigma, &trace, &exp, &rec2, &mut writer2).unwrap();
        assert_eq!(writer.to_jsonl(), writer2.to_jsonl());
        assert_eq!(
            recorder.snapshot().to_stable_json(),
            rec2.snapshot().to_stable_json()
        );
        assert_eq!(r.metrics.outcomes, r2.metrics.outcomes);

        // The unobserved path produces identical simulation results: the
        // observability layer must not perturb decisions.
        let plain = run(SchedulerKind::ThreeSigma, &trace, &exp).unwrap();
        assert_eq!(plain.metrics.outcomes, r.metrics.outcomes);

        // Baselines run through the same path without scheduler stats.
        let mut w3 = CycleTraceWriter::new();
        let prio = run_observed(
            SchedulerKind::Prio,
            &trace,
            &exp,
            &Recorder::enabled(),
            &mut w3,
        )
        .unwrap();
        assert!(prio.stats.is_none());
        assert!(!w3.lines().is_empty());
    }

    #[test]
    fn kind_names_match_the_paper() {
        assert_eq!(SchedulerKind::ThreeSigma.name(), "3Sigma");
        assert_eq!(SchedulerKind::PointPerfEst.name(), "PointPerfEst");
        assert_eq!(SchedulerKind::headline().len(), 4);
    }

    #[test]
    fn backfill_kind_runs_without_timings() {
        let trace = tiny_trace();
        let exp = Experiment::paper_sc256().with_cycle(20.0);
        let r = run(SchedulerKind::Backfill, &trace, &exp).unwrap();
        assert_eq!(r.metrics.outcomes.len(), trace.jobs.len());
        assert!(r.timings.is_empty(), "backfill has no MILP timings");
        assert!(r.metrics.completion_rate() > 0.4);
    }

    #[test]
    fn rc256_experiment_has_fidelity_noise() {
        let exp = Experiment::paper_rc256();
        assert!(exp.cluster.rc_fidelity.is_some());
        assert_eq!(exp.cluster.total_nodes(), 256);
        let sc = Experiment::paper_sc256();
        assert!(sc.cluster.rc_fidelity.is_none());
    }

    #[test]
    fn with_cycle_keeps_exp_inc_hint_in_sync() {
        let exp = Experiment::paper_sc256().with_cycle(7.5);
        assert_eq!(exp.engine.cycle_interval, 7.5);
        assert_eq!(exp.sched.cycle_hint, 7.5);
    }
}
