//! The paper's worked example (§2.3, Figs. 3 and 5), end to end.
//!
//! Two jobs arrive simultaneously on a single-node cluster: an SLO job with
//! a 15-minute deadline and a latency-sensitive best-effort job. Both have
//! mean runtime 5 minutes — but the *distribution* decides the right order:
//!
//! * Scenario 1: runtimes ~ U(0, 10) min — scheduling BE first risks a
//!   12.5 % deadline miss, so the SLO job must go first.
//! * Scenario 2: runtimes ~ U(2.5, 7.5) min — even back-to-back worst cases
//!   fit the deadline, so the BE job can safely go first.
//!
//! A point-estimate scheduler sees "5 minutes" in both scenarios and cannot
//! tell them apart.
//!
//! ```sh
//! cargo run --release --example worked_example
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use threesigma::sched::threesigma::{EstimateSource, SchedConfig, ThreeSigmaScheduler};
use threesigma::{DiscreteDist, UtilityCurve};
use threesigma_cluster::{ClusterSpec, Engine, EngineConfig, JobId, JobKind, JobSpec, Metrics};
use threesigma_predict::PredictorConfig;

const MIN: f64 = 60.0;

fn run_scenario(name: &str, lo_min: f64, hi_min: f64) -> Metrics {
    // Print the expected-utility curve of the SLO job (Fig. 5(e)/(f)).
    let d = DiscreteDist::uniform(lo_min * MIN, hi_min * MIN, 64);
    let curve = UtilityCurve::SloStep {
        weight: 1.0,
        deadline: 15.0 * MIN,
    };
    println!("\n=== {name}: runtimes ~ U({lo_min}, {hi_min}) min ===");
    println!("SLO job's expected utility by start time (Fig. 5e/f):");
    for start_min in [0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0] {
        let eu = curve.expected(start_min * MIN, &d);
        let bar = "#".repeat((eu * 40.0).round() as usize);
        println!("  start {start_min:>4.1} min  E[U] = {eu:4.2}  {bar}");
    }

    // Run it for real through the MILP scheduler.
    let dist = DiscreteDist::uniform(lo_min * MIN, hi_min * MIN, 40);
    let mut estimates = HashMap::new();
    estimates.insert(JobId(1), dist.clone());
    estimates.insert(JobId(2), dist);
    let mut scheduler = ThreeSigmaScheduler::new(
        SchedConfig {
            slot_width: 2.5 * MIN,
            plan_slots: 8,
            ..SchedConfig::default()
        },
        EstimateSource::Injected(Arc::new(estimates)),
        PredictorConfig::default(),
    );
    // Both actually run for exactly 5 minutes (the shared mean).
    let jobs = vec![
        JobSpec::new(
            1,
            0.0,
            1,
            5.0 * MIN,
            JobKind::Slo {
                deadline: 15.0 * MIN,
            },
        )
        .with_weight(10.0),
        JobSpec::new(2, 0.0, 1, 5.0 * MIN, JobKind::BestEffort),
    ];
    let engine = Engine::new(
        ClusterSpec::uniform(1, 1),
        EngineConfig {
            cycle_interval: 2.0,
            drain: Some(3600.0),
            seed: 7,
            ..EngineConfig::default()
        },
    );
    let metrics = engine.run(&jobs, &mut scheduler).expect("runs");
    let slo = &metrics.outcomes[0];
    let be = &metrics.outcomes[1];
    println!(
        "schedule chosen : {} first (SLO start {:.0}s, BE start {:.0}s)",
        if slo.start_time < be.start_time {
            "SLO"
        } else {
            "BE"
        },
        slo.start_time.unwrap(),
        be.start_time.unwrap(),
    );
    println!(
        "SLO deadline    : {} (finished at {:.0}s, deadline 900s)",
        if slo.deadline_met() == Some(true) {
            "met"
        } else {
            "MISSED"
        },
        slo.finish_time.unwrap(),
    );
    println!("BE latency      : {:.0}s", be.latency().unwrap());
    metrics
}

fn main() {
    let s1 = run_scenario("Scenario 1", 0.0, 10.0);
    let s2 = run_scenario("Scenario 2", 2.5, 7.5);

    let be1 = s1.outcomes[1].latency().unwrap();
    let be2 = s2.outcomes[1].latency().unwrap();
    println!("\nDistribution awareness at work:");
    println!("  scenario 1 protects the deadline (BE waits, latency {be1:.0}s);");
    println!("  scenario 2 exploits the narrow distribution (BE latency {be2:.0}s).");
    assert!(
        be2 < be1,
        "scenario 2 should deliver the BE job sooner than scenario 1"
    );
}
