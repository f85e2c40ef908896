//! Quickstart: generate a workload, run 3Sigma, read the metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use threesigma::driver::{run, Experiment, SchedulerKind};
use threesigma_workload::{generate, Environment, WorkloadConfig};

fn main() {
    // A 30-minute Google-like workload on the paper's 256-node cluster:
    // half SLO jobs (deadline slack 20–80 %), half latency-sensitive
    // best-effort jobs, offered load 1.4.
    let config = WorkloadConfig::e2e(Environment::Google, 42).with_duration(1800.0);
    let trace = generate(&config);
    println!(
        "generated {} jobs (+{} pre-training) at offered load {:.2}",
        trace.jobs.len(),
        trace.pretrain.len(),
        trace.offered_load(256, config.duration),
    );

    // The full 3Sigma system: 3σPredict distributions + adaptive
    // over-estimate handling + MILP packing with preemption.
    let experiment = Experiment::paper_sc256();
    let result = run(SchedulerKind::ThreeSigma, &trace, &experiment).expect("simulation runs");

    let m = &result.metrics;
    println!("SLO miss rate     : {:>6.1} %", m.slo_miss_pct());
    println!(
        "goodput           : {:>6.1} machine-hours",
        m.goodput_hours()
    );
    println!(
        "  SLO / BE        : {:>6.1} / {:.1}",
        m.slo_goodput_hours(),
        m.be_goodput_hours()
    );
    if let Some(lat) = m.mean_be_latency() {
        println!("mean BE latency   : {:>6.0} s", lat);
    }
    println!("jobs completed    : {:>6.1} %", m.completion_rate() * 100.0);
    println!("preemptions       : {:>6}", m.preemptions);
    println!(
        "scheduling cycles : {:>6} (mean latency {:.1} ms)",
        m.cycles,
        result
            .timings
            .iter()
            .map(|t| t.total.as_secs_f64() * 1e3)
            .sum::<f64>()
            / result.timings.len().max(1) as f64
    );
}
