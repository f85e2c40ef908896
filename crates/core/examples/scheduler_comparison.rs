//! Compare all Table 1 scheduling systems on one workload.
//!
//! Reproduces the flavour of Fig. 1/Fig. 6 at example scale: a one-hour
//! Google-like trace on the simulated 256-node cluster, all four headline
//! systems plus the §6.2 ablations.
//!
//! ```sh
//! cargo run --release --example scheduler_comparison [hours] [env]
//! # env ∈ {google, hedgefund, mustang}
//! ```

use threesigma::driver::{run, Experiment, SchedulerKind};
use threesigma_workload::{generate, Environment, WorkloadConfig};

fn main() {
    let hours: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let env = match std::env::args().nth(2).as_deref() {
        Some("hedgefund") => Environment::HedgeFund,
        Some("mustang") => Environment::Mustang,
        _ => Environment::Google,
    };

    let config = WorkloadConfig::e2e(env, 42).with_duration(hours * 3600.0);
    let trace = generate(&config);
    println!(
        "{} workload: {} jobs over {hours} h, offered load {:.2}\n",
        env.name(),
        trace.jobs.len(),
        trace.offered_load(config.cluster_nodes, config.duration),
    );
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "system", "SLO miss %", "SLO gp (M-h)", "BE gp (M-h)", "BE lat (s)", "preempts"
    );

    let systems = [
        SchedulerKind::ThreeSigma,
        SchedulerKind::ThreeSigmaNoDist,
        SchedulerKind::ThreeSigmaNoOE,
        SchedulerKind::ThreeSigmaNoAdapt,
        SchedulerKind::PointPerfEst,
        SchedulerKind::PointRealEst,
        SchedulerKind::Prio,
    ];
    let experiment = Experiment::paper_sc256();
    for kind in systems {
        let result = run(kind, &trace, &experiment).expect("simulation runs");
        let m = &result.metrics;
        println!(
            "{:<14} {:>10.1} {:>14.1} {:>14.1} {:>12.0} {:>12}",
            kind.name(),
            m.slo_miss_pct(),
            m.slo_goodput_hours(),
            m.be_goodput_hours(),
            m.mean_be_latency().unwrap_or(f64::NAN),
            m.preemptions,
        );
    }
    println!(
        "\nExpected shape (paper Figs. 1/6): 3Sigma ≈ PointPerfEst on SLO miss,\n\
         both well below PointRealEst and Prio; Prio pays in BE goodput/latency."
    );
}
