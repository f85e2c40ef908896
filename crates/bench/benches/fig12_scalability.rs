//! Fig. 12 — scalability at Google scale (12,583 nodes).
//!
//! Runs the SCALABILITY-n workloads (n ∈ {2000, 3000, 4000} jobs/hour,
//! offered load 0.95) on a simulated 12,584-node cluster and reports the
//! distribution of (a) whole scheduling-cycle runtime and (b) solver
//! runtime, for distribution-based (3Sigma) vs point-based (PointRealEst)
//! scheduling, plus the 3σPredict lookup latency.
//!
//! Expected shape (paper §6.5): both fit comfortably within the cycle;
//! distribution-based scheduling adds a moderate constant factor
//! (more constraint terms, same number of decision variables), and
//! predictor latency is negligible (≤ ~14 ms in the paper).

use std::time::Instant;

use serde::Serialize;
use threesigma::driver::{Experiment, SchedulerKind};
use threesigma::CycleTiming;
use threesigma_bench::{banner, run_system, write_json, Scale};
use threesigma_cluster::ClusterSpec;
use threesigma_predict::{AttributeSource, Predictor, PredictorConfig};
use threesigma_workload::{generate, ArrivalTarget, Environment, Trace, WorkloadConfig};

struct Attrs<'a>(&'a threesigma_cluster::Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

const NODES: u32 = 12_584; // 8 racks × 1573 ≈ the trace's 12,583 machines
const RACKS: usize = 8;

/// Rescales gang sizes so the offered load hits the target (the paper sets
/// load 0.95 independently of the submission rate).
fn rescale_load(trace: &mut Trace, duration: f64, target: f64) {
    let work: f64 = trace.jobs.iter().map(|j| j.tasks as f64 * j.duration).sum();
    let factor = target * NODES as f64 * duration / work;
    for j in &mut trace.jobs {
        let t = (j.tasks as f64 * factor).round() as u32;
        j.tasks = t.clamp(1, NODES);
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

#[derive(Serialize)]
struct Row {
    jobs_per_hour: f64,
    system: String,
    cycle_mean_ms: f64,
    cycle_p95_ms: f64,
    cycle_max_ms: f64,
    solver_mean_ms: f64,
    solver_p95_ms: f64,
    solver_max_ms: f64,
    // Per-stage breakdown of the cycle (means): option generation, MILP
    // compilation, and solution extraction; the solver is above.
    generate_mean_ms: f64,
    compile_mean_ms: f64,
    extract_mean_ms: f64,
    cycles: usize,
}

fn stats(timings: &[CycleTiming]) -> (Vec<f64>, Vec<f64>) {
    let mut cyc: Vec<f64> = timings
        .iter()
        .map(|t| t.total.as_secs_f64() * 1e3)
        .collect();
    let mut sol: Vec<f64> = timings
        .iter()
        .map(|t| t.solver.as_secs_f64() * 1e3)
        .collect();
    cyc.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sol.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (cyc, sol)
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Fig. 12",
        "scheduler scalability at 12,584 nodes (SCALABILITY-n)",
        scale,
    );
    let duration = match scale {
        Scale::Quick => 0.4 * 3600.0,
        Scale::Paper => 5.0 * 3600.0,
    };
    let cycle = match scale {
        Scale::Quick => 5.0,
        Scale::Paper => 2.0,
    };

    // 3σPredict lookup latency at job-submission time (§6.5 reports a
    // 14 ms maximum).
    let hist_config = WorkloadConfig {
        duration: 60.0,
        pretrain_jobs: 20_000,
        ..WorkloadConfig::e2e(Environment::Google, 5)
    };
    let hist = generate(&hist_config);
    let mut predictor = Predictor::new(PredictorConfig::default());
    for j in &hist.pretrain {
        predictor.observe(&Attrs(&j.attributes), j.duration);
    }
    let mut max_us = 0.0f64;
    let mut total_us = 0.0f64;
    for j in hist.pretrain.iter().take(5000) {
        let t0 = Instant::now();
        let _ = predictor.predict(&Attrs(&j.attributes));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        max_us = max_us.max(us);
        total_us += us;
    }
    println!(
        "3σPredict lookup over {} tracked feature values: mean {:.0} µs, max {:.0} µs\n",
        predictor.tracked_values(),
        total_us / 5000.0,
        max_us
    );

    let mut rows = Vec::new();
    println!(
        "{:<8} {:<14} {:>22} {:>22}",
        "jobs/h", "system", "cycle mean/p95/max ms", "solver mean/p95/max ms"
    );
    for rate in [2000.0, 3000.0, 4000.0] {
        let mut config = WorkloadConfig {
            cluster_nodes: NODES,
            num_partitions: RACKS,
            duration,
            arrival: ArrivalTarget::JobsPerHour(rate),
            pretrain_jobs: 6000,
            ..WorkloadConfig::e2e(Environment::Google, 31)
        };
        config.seed = 31 + rate as u64;
        let mut trace = generate(&config);
        rescale_load(&mut trace, duration, 0.95);

        for (kind, label) in [
            (SchedulerKind::ThreeSigma, "Dist"),
            (SchedulerKind::PointRealEst, "Point"),
        ] {
            let exp = Experiment {
                cluster: ClusterSpec::uniform(RACKS, NODES / RACKS as u32),
                ..Experiment::paper_sc256().with_cycle(cycle)
            };
            let r = run_system(kind, &trace, &exp);
            let (cyc, sol) = stats(&r.timings);
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let stage_mean = |f: &dyn Fn(&CycleTiming) -> f64| {
                let v: Vec<f64> = r.timings.iter().map(f).collect();
                mean(&v)
            };
            let gen_ms = stage_mean(&|t| t.generate.as_secs_f64() * 1e3);
            let com_ms = stage_mean(&|t| t.compile.as_secs_f64() * 1e3);
            let ext_ms = stage_mean(&|t| t.extract.as_secs_f64() * 1e3);
            println!(
                "{:<8} {:<14} {:>7.1}/{:>5.1}/{:>6.1} {:>9.1}/{:>5.1}/{:>6.1}   \
                 (gen {:.1} + compile {:.1} + extract {:.1} ms)",
                rate,
                label,
                mean(&cyc),
                percentile(&cyc, 0.95),
                cyc.last().copied().unwrap_or(0.0),
                mean(&sol),
                percentile(&sol, 0.95),
                sol.last().copied().unwrap_or(0.0),
                gen_ms,
                com_ms,
                ext_ms,
            );
            rows.push(Row {
                jobs_per_hour: rate,
                system: label.to_owned(),
                cycle_mean_ms: mean(&cyc),
                cycle_p95_ms: percentile(&cyc, 0.95),
                cycle_max_ms: cyc.last().copied().unwrap_or(0.0),
                solver_mean_ms: mean(&sol),
                solver_p95_ms: percentile(&sol, 0.95),
                solver_max_ms: sol.last().copied().unwrap_or(0.0),
                generate_mean_ms: gen_ms,
                compile_mean_ms: com_ms,
                extract_mean_ms: ext_ms,
                cycles: cyc.len(),
            });
        }
    }
    println!(
        "\n(paper Fig. 12: both systems stay within single-digit seconds per\n\
         cycle; Dist adds a moderate constant factor over Point)"
    );
    write_json("fig12_scalability", &rows);
}
