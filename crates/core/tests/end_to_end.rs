//! End-to-end integration tests spanning workload → predict → core → cluster.
//!
//! Debug builds are slow, so these use short traces; the full-scale
//! experiments live in the bench harnesses.

use threesigma::driver::{run, Experiment, SchedulerKind};
use threesigma_cluster::JobState;
use threesigma_workload::{generate, Environment, Trace, WorkloadConfig};

fn small_trace(env: Environment, seed: u64) -> Trace {
    generate(&WorkloadConfig {
        duration: 1200.0,
        pretrain_jobs: 600,
        ..WorkloadConfig::e2e(env, seed)
    })
}

fn quick_exp() -> Experiment {
    Experiment::paper_sc256().with_cycle(30.0)
}

#[test]
fn every_system_processes_every_job() {
    let trace = small_trace(Environment::Google, 1);
    for kind in [
        SchedulerKind::ThreeSigma,
        SchedulerKind::ThreeSigmaNoDist,
        SchedulerKind::ThreeSigmaNoOE,
        SchedulerKind::ThreeSigmaNoAdapt,
        SchedulerKind::PointPerfEst,
        SchedulerKind::PointRealEst,
        SchedulerKind::Backfill,
        SchedulerKind::Prio,
    ] {
        let r = run(kind, &trace, &quick_exp()).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(r.metrics.outcomes.len(), trace.jobs.len());
        // Every job reached a terminal or explicable state and most work
        // completed despite overload.
        assert!(
            r.metrics.completion_rate() > 0.4,
            "{kind:?}: completed only {:.0}%",
            r.metrics.completion_rate() * 100.0
        );
    }
}

#[test]
fn accounting_is_conserved() {
    let trace = small_trace(Environment::Google, 2);
    let r = run(SchedulerKind::ThreeSigma, &trace, &quick_exp()).unwrap();
    let m = &r.metrics;
    let total = m.count(JobState::Completed)
        + m.count(JobState::Canceled)
        + m.count(JobState::Pending)
        + m.count(JobState::Running);
    assert_eq!(total, trace.jobs.len(), "every job in exactly one state");
    // Goodput is bounded by cluster space-time actually simulated.
    let capacity_hours = 256.0 * m.end_time / 3600.0;
    assert!(m.goodput_hours() <= capacity_hours + 1e-6);
}

#[test]
fn completed_jobs_have_consistent_timestamps() {
    let trace = small_trace(Environment::HedgeFund, 3);
    let r = run(SchedulerKind::ThreeSigma, &trace, &quick_exp()).unwrap();
    for o in &r.metrics.outcomes {
        if o.state == JobState::Completed {
            let start = o.start_time.unwrap();
            let finish = o.finish_time.unwrap();
            let rt = o.measured_runtime.unwrap();
            assert!(start >= o.submit_time, "{o:?}");
            assert!((finish - start - rt).abs() < 1e-6, "{o:?}");
            assert!(rt > 0.0);
        }
    }
}

#[test]
fn oracle_beats_or_matches_realistic_point_estimates() {
    // The central premise: perfect estimates beat realistic ones; the full
    // distribution system lands close to the oracle (Fig. 1). A short trace
    // is noisy, so allow a modest tolerance band.
    let trace = small_trace(Environment::Google, 4);
    let exp = quick_exp();
    let oracle = run(SchedulerKind::PointPerfEst, &trace, &exp).unwrap();
    let realist = run(SchedulerKind::PointRealEst, &trace, &exp).unwrap();
    let threesigma = run(SchedulerKind::ThreeSigma, &trace, &exp).unwrap();
    assert!(
        oracle.metrics.slo_miss_pct() <= realist.metrics.slo_miss_pct() + 5.0,
        "oracle {:.1}% vs realist {:.1}%",
        oracle.metrics.slo_miss_pct(),
        realist.metrics.slo_miss_pct()
    );
    assert!(
        threesigma.metrics.slo_miss_pct() <= realist.metrics.slo_miss_pct() + 5.0,
        "3sigma {:.1}% vs realist {:.1}%",
        threesigma.metrics.slo_miss_pct(),
        realist.metrics.slo_miss_pct()
    );
}

#[test]
fn rc_and_sc_clusters_agree_broadly() {
    // Table 2: real-cluster fidelity shifts metrics only modestly.
    let trace = small_trace(Environment::Google, 5);
    let sc = run(SchedulerKind::PointPerfEst, &trace, &quick_exp()).unwrap();
    let rc_exp = Experiment {
        cluster: Experiment::paper_rc256().cluster,
        ..quick_exp()
    };
    let rc = run(SchedulerKind::PointPerfEst, &trace, &rc_exp).unwrap();
    let delta = (sc.metrics.slo_miss_pct() - rc.metrics.slo_miss_pct()).abs();
    assert!(delta < 25.0, "SC/RC miss-rate delta {delta:.1} too large");
    assert!(rc.metrics.completion_rate() > 0.4);
}

#[test]
fn timings_exist_for_milp_schedulers_only() {
    let trace = small_trace(Environment::Google, 6);
    let exp = quick_exp();
    let milp = run(SchedulerKind::ThreeSigma, &trace, &exp).unwrap();
    assert!(!milp.timings.is_empty());
    assert!(milp.timings.iter().all(|t| t.total >= t.solver));
    let prio = run(SchedulerKind::Prio, &trace, &exp).unwrap();
    assert!(prio.timings.is_empty());
}

#[test]
fn padded_estimates_run_end_to_end() {
    let trace = small_trace(Environment::Google, 8);
    let r = run(SchedulerKind::PointPaddedEst, &trace, &quick_exp()).unwrap();
    assert_eq!(r.metrics.outcomes.len(), trace.jobs.len());
    assert!(r.metrics.completion_rate() > 0.3);
}

#[test]
fn injected_distributions_flow_through_driver() {
    use threesigma::sched::threesigma::OverestimateMode;
    use threesigma::DiscreteDist;

    let trace = small_trace(Environment::Google, 9);
    // Oracle-centred uniform bands: a well-informed distribution source.
    let map: std::collections::HashMap<_, _> = trace
        .jobs
        .iter()
        .map(|j| {
            let d = DiscreteDist::uniform(j.duration * 0.8, j.duration * 1.2, 40);
            (j.id, d)
        })
        .collect();
    let r = threesigma::driver::run_with_source(
        threesigma::driver::injected(map),
        OverestimateMode::Adaptive,
        &trace,
        &quick_exp(),
    )
    .unwrap();
    // Near-perfect information: should be in oracle territory.
    let oracle = run(SchedulerKind::PointPerfEst, &trace, &quick_exp()).unwrap();
    assert!(
        r.metrics.slo_miss_pct() <= oracle.metrics.slo_miss_pct() + 10.0,
        "injected {:.1}% vs oracle {:.1}%",
        r.metrics.slo_miss_pct(),
        oracle.metrics.slo_miss_pct()
    );
}

#[test]
fn wasted_work_is_accounted() {
    let trace = small_trace(Environment::Google, 10);
    for kind in [SchedulerKind::ThreeSigma, SchedulerKind::Prio] {
        let r = run(kind, &trace, &quick_exp()).unwrap();
        let m = &r.metrics;
        if m.preemptions > 0 {
            assert!(m.wasted_hours() > 0.0, "{kind:?}");
        } else {
            assert_eq!(m.wasted_hours(), 0.0, "{kind:?}");
        }
        // Waste is bounded by simulated cluster space-time.
        assert!(m.wasted_hours() <= 256.0 * m.end_time / 3600.0);
    }
}

#[test]
fn mustang_environment_runs_end_to_end() {
    let trace = small_trace(Environment::Mustang, 7);
    let r = run(SchedulerKind::ThreeSigma, &trace, &quick_exp()).unwrap();
    assert_eq!(r.metrics.outcomes.len(), trace.jobs.len());
}
