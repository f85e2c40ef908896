//! Fig. 9 — robustness to runtime-distribution perturbation.
//!
//! Feeds the scheduler synthetic per-job distributions
//! `N(µ = runtime·(1 + shift_j), σ = runtime·CoV)` with per-job shift
//! `shift_j ~ N(shift, 0.1)`, sweeping the centre shift and the width
//! (CoV ∈ {point, 10 %, 20 %, 50 %}) on the 2-hour E2E workload.
//!
//! Expected shape (paper §6.3): distributions always beat the point
//! estimate; narrow distributions win near zero shift; wide distributions
//! win at large |shift| (they hedge the risk). Also prints the Fig. 9(c)
//! shift profile.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use threesigma::driver::{run_with_source, Experiment, SchedulerKind};
use threesigma::{EstimateSource, OverestimateMode};
use threesigma_bench::{banner, e2e_config, run_system, sc256, write_json, Scale};
use threesigma_histogram::DiscreteDist;
use threesigma_workload::{generate, Environment, Trace};

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0f64 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Builds the injected distribution map; returns it plus the Fig. 9(c)
/// shift-profile fractions (≤ −10 %, within ±10 %, ≥ +10 %).
fn injected_map(
    trace: &Trace,
    shift: f64,
    cov: Option<f64>,
    seed: u64,
) -> (EstimateSource, [f64; 3]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = HashMap::new();
    let mut profile = [0usize; 3];
    for job in &trace.jobs {
        let shift_j = shift + 0.1 * standard_normal(&mut rng);
        if shift_j <= -0.1 {
            profile[0] += 1;
        } else if shift_j < 0.1 {
            profile[1] += 1;
        } else {
            profile[2] += 1;
        }
        let mu = (job.duration * (1.0 + shift_j)).max(1.0);
        // 40 quantile-grid points: the resolution of the recorded results.
        let dist = match cov {
            None => DiscreteDist::point(mu),
            Some(c) => DiscreteDist::normal(mu, (job.duration * c).max(0.1), 40),
        };
        map.insert(job.id, dist);
    }
    let n = trace.jobs.len().max(1) as f64;
    (
        EstimateSource::Injected(std::sync::Arc::new(map)),
        [
            profile[0] as f64 / n,
            profile[1] as f64 / n,
            profile[2] as f64 / n,
        ],
    )
}

#[derive(Serialize)]
struct Point9 {
    shift_pct: f64,
    cov_label: String,
    slo_miss_pct: f64,
    slo_goodput_mh: f64,
    shift_profile: [f64; 3],
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Fig. 9",
        "artificial distribution shift × width sweep",
        scale,
    );
    // The paper uses the 2-hour E2E variant for this study.
    let mut config = e2e_config(Environment::Google, scale, 42);
    config.duration = config.duration.min(2.0 * 3600.0);
    let trace = generate(&config);
    let exp: Experiment = sc256(scale);

    let shifts = [-0.5, -0.2, 0.0, 0.2, 0.5, 1.0];
    let covs: [(Option<f64>, &str); 4] = [
        (None, "point"),
        (Some(0.1), "CoV=10%"),
        (Some(0.2), "CoV=20%"),
        (Some(0.5), "CoV=50%"),
    ];

    let mut out = Vec::new();
    println!(
        "{:<8} {:<9} {:>10} {:>14} {:>26}",
        "shift", "width", "SLO miss%", "SLO gp(M-h)", "profile(under/ok/over)"
    );
    for &shift in &shifts {
        for (cov, label) in covs {
            let (source, profile) = injected_map(&trace, shift, cov, 7 + (shift * 100.0) as u64);
            let r = run_with_source(source, OverestimateMode::Adaptive, &trace, &exp)
                .expect("simulation runs");
            let m = &r.metrics;
            println!(
                "{:<8} {:<9} {:>10.1} {:>14.1} {:>8.2}/{:.2}/{:.2}",
                format!("{}%", shift * 100.0),
                label,
                m.slo_miss_pct(),
                m.slo_goodput_hours(),
                profile[0],
                profile[1],
                profile[2]
            );
            out.push(Point9 {
                shift_pct: shift * 100.0,
                cov_label: label.to_owned(),
                slo_miss_pct: m.slo_miss_pct(),
                slo_goodput_mh: m.slo_goodput_hours(),
                shift_profile: profile,
            });
        }
        println!();
    }

    // Reference row: the oracle point scheduler on the same trace.
    let oracle = run_system(SchedulerKind::PointPerfEst, &trace, &exp);
    println!(
        "reference PointPerfEst: SLO miss {:.1} %, SLO goodput {:.1} M-h",
        oracle.metrics.slo_miss_pct(),
        oracle.metrics.slo_goodput_hours()
    );
    write_json("fig09_perturb", &out);
}
