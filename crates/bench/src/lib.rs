//! Shared plumbing for the figure/table reproduction harnesses.
//!
//! Every `fig*` bench binary reproduces one table or figure of the paper:
//! it generates the corresponding workload, runs the schedulers, prints the
//! same rows/series the paper reports, and writes machine-readable JSON to
//! `bench_results/`.
//!
//! Scale is controlled by `THREESIGMA_BENCH_SCALE`:
//!
//! * `quick` (default) — shortened traces and coarser scheduling cycles so
//!   the whole suite finishes in CI-scale time. Shapes (who wins, rough
//!   ratios, crossovers) are preserved.
//! * `paper` — the paper's 5-hour traces and near-paper cycle times.

use std::path::PathBuf;

use serde::Serialize;

use threesigma::driver::{run, Experiment, RunResult, SchedulerKind};
use threesigma_workload::{Environment, Trace, WorkloadConfig};

/// Harness scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shortened traces, coarse cycles (default).
    Quick,
    /// Paper-scale traces and cycles.
    Paper,
}

impl Scale {
    /// Reads `THREESIGMA_BENCH_SCALE` (`quick` | `paper`).
    pub fn from_env() -> Self {
        match std::env::var("THREESIGMA_BENCH_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Trace length for the E2E workloads of an environment. Mustang jobs
    /// are huge gangs, so its traces must be longer to hold enough jobs.
    pub(crate) fn trace_secs(&self, env: Environment) -> f64 {
        let hours = match (self, env) {
            (Scale::Quick, Environment::Google) => 2.0,
            (Scale::Quick, Environment::HedgeFund) => 1.5,
            (Scale::Quick, Environment::Mustang) => 8.0,
            (Scale::Paper, Environment::Google) => 5.0,
            (Scale::Paper, Environment::HedgeFund) => 5.0,
            (Scale::Paper, Environment::Mustang) => 15.0,
        };
        hours * 3600.0
    }

    /// Scheduling-cycle interval (the paper runs 1–2 s cycles; quick mode
    /// trades temporal resolution for wall-clock).
    pub fn cycle(&self) -> f64 {
        match self {
            Scale::Quick => 15.0,
            Scale::Paper => 5.0,
        }
    }

    /// Label for output.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// The standard experiment at this scale (SC256).
///
/// The measurement window is cut off shortly after the last arrival
/// (`drain`): jobs that have not completed by then contribute no goodput
/// (and missed SLOs count as misses), matching a fixed-length evaluation
/// window. Without the cut-off every scheduler eventually completes all
/// best-effort work and BE goodput stops discriminating.
pub fn sc256(scale: Scale) -> Experiment {
    let mut exp = Experiment::paper_sc256().with_cycle(scale.cycle());
    exp.engine.drain = Some(match scale {
        Scale::Quick => 1800.0,
        Scale::Paper => 3600.0,
    });
    exp
}

/// The standard E2E workload config for an environment at this scale.
pub fn e2e_config(env: Environment, scale: Scale, seed: u64) -> WorkloadConfig {
    WorkloadConfig::e2e(env, seed).with_duration(scale.trace_secs(env))
}

/// Runs one system, panicking on simulation errors (bench context).
pub fn run_system(kind: SchedulerKind, trace: &Trace, exp: &Experiment) -> RunResult {
    run(kind, trace, exp).unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()))
}

/// A row of metric results for JSON output.
#[derive(Debug, Serialize)]
pub struct MetricRow {
    /// System name.
    pub system: String,
    /// Workload / sweep-point label.
    pub label: String,
    /// SLO miss rate, percent.
    pub slo_miss_pct: f64,
    /// SLO goodput, machine-hours.
    pub slo_goodput_mh: f64,
    /// BE goodput, machine-hours.
    pub be_goodput_mh: f64,
    /// Total goodput, machine-hours.
    pub goodput_mh: f64,
    /// Mean best-effort latency, seconds (-1 when no BE job completed).
    pub be_latency_s: f64,
    /// Preemptions applied.
    pub preemptions: usize,
    /// Machine-hours destroyed by preemption.
    pub wasted_mh: f64,
}

impl MetricRow {
    /// Builds a row from a run result.
    pub fn new(system: &str, label: &str, r: &RunResult) -> Self {
        let m = &r.metrics;
        Self {
            system: system.to_owned(),
            label: label.to_owned(),
            slo_miss_pct: m.slo_miss_pct(),
            slo_goodput_mh: m.slo_goodput_hours(),
            be_goodput_mh: m.be_goodput_hours(),
            goodput_mh: m.goodput_hours(),
            be_latency_s: m.mean_be_latency().unwrap_or(-1.0),
            preemptions: m.preemptions,
            wasted_mh: m.wasted_hours(),
        }
    }
}

/// Prints the standard metric table header.
pub fn print_header(label_name: &str) {
    println!(
        "{:<22} {:<14} {:>10} {:>12} {:>12} {:>12} {:>10}",
        label_name, "system", "SLO miss%", "SLO gp(M-h)", "BE gp(M-h)", "BE lat(s)", "waste(M-h)"
    );
}

/// Prints one standard metric row.
pub fn print_row(row: &MetricRow) {
    println!(
        "{:<22} {:<14} {:>10.1} {:>12.1} {:>12.1} {:>12.0} {:>10.1}",
        row.label,
        row.system,
        row.slo_miss_pct,
        row.slo_goodput_mh,
        row.be_goodput_mh,
        row.be_latency_s,
        row.wasted_mh
    );
}

/// Directory for machine-readable results (created on demand).
pub(crate) fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir).expect("create bench_results/");
    dir
}

/// Writes a JSON artefact next to the printed table.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialisable");
    std::fs::write(&path, json).expect("write bench result");
    println!("\n[wrote {}]", path.display());
}

/// Banner printed by every harness.
pub fn banner(figure: &str, what: &str, scale: Scale) {
    println!("==========================================================");
    println!("{figure}: {what}");
    println!(
        "scale={} (set THREESIGMA_BENCH_SCALE=paper for full scale)",
        scale.name()
    );
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_workload::generate;

    #[test]
    fn scale_parsing_defaults_to_quick() {
        // Note: avoids mutating the process environment (tests run in
        // parallel); from_env's default path is what CI exercises.
        let s = Scale::from_env();
        assert!(matches!(s, Scale::Quick | Scale::Paper));
        assert_eq!(Scale::Quick.name(), "quick");
        assert_eq!(Scale::Paper.name(), "paper");
    }

    #[test]
    fn quick_traces_are_shorter_than_paper() {
        for env in [
            Environment::Google,
            Environment::HedgeFund,
            Environment::Mustang,
        ] {
            assert!(Scale::Quick.trace_secs(env) < Scale::Paper.trace_secs(env));
        }
        assert!(Scale::Quick.cycle() >= Scale::Paper.cycle());
    }

    #[test]
    fn metric_row_mirrors_metrics() {
        let config = e2e_config(Environment::Google, Scale::Quick, 3);
        let config = WorkloadConfig {
            duration: 600.0,
            pretrain_jobs: 100,
            ..config
        };
        let trace = generate(&config);
        let exp = sc256(Scale::Quick);
        let r = run_system(SchedulerKind::Prio, &trace, &exp);
        let row = MetricRow::new("Prio", "test", &r);
        assert_eq!(row.system, "Prio");
        assert!((row.slo_miss_pct - r.metrics.slo_miss_pct()).abs() < 1e-12);
        assert!((row.goodput_mh - r.metrics.goodput_hours()).abs() < 1e-12);
        assert!(row.wasted_mh >= 0.0);
    }

    #[test]
    fn sc256_applies_measurement_window() {
        let exp = sc256(Scale::Quick);
        assert_eq!(exp.engine.drain, Some(1800.0));
        assert_eq!(exp.cluster.total_nodes(), 256);
    }
}
