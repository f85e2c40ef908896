//! Integration of 3σPredict with the synthetic environments: the predictor
//! must reproduce the paper's qualitative accuracy profiles (§2.1, Fig. 2).

use threesigma_cluster::Attributes;
use threesigma_predict::{AttributeSource, Predictor, PredictorConfig};
use threesigma_workload::analysis::{
    cov_by_attribute, fraction_off_by_factor, high_variability_fraction, runtime_cdf,
};
use threesigma_workload::{generate, Environment, WorkloadConfig};

struct Attrs<'a>(&'a Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// Replays a stream of jobs through the predictor (train on the first
/// 60 %, prequentially evaluate the rest); returns (estimate, actual)
/// pairs. Uses the pre-training stream — arrival times are irrelevant to
/// estimate quality, and big-gang environments (Mustang) produce too few
/// timed jobs per trace hour for statistics.
fn replay(env: Environment, seed: u64) -> Vec<(f64, f64)> {
    let config = WorkloadConfig {
        duration: 60.0,
        pretrain_jobs: 4000,
        ..WorkloadConfig::e2e(env, seed)
    };
    let trace = generate(&config);
    let split = trace.pretrain.len() * 3 / 5;
    let mut predictor = Predictor::new(PredictorConfig::default());
    for job in &trace.pretrain[..split] {
        predictor.observe(&Attrs(&job.attributes), job.duration);
    }
    let mut pairs = Vec::new();
    for job in &trace.pretrain[split..] {
        if let Some(point) = predictor.predict_point(&Attrs(&job.attributes)) {
            pairs.push((point, job.duration));
        }
        predictor.observe(&Attrs(&job.attributes), job.duration);
    }
    pairs
}

#[test]
fn most_estimates_are_good_but_a_real_tail_exists() {
    // §2.1: 77–92 % of estimates within a factor of two; 8–23 % beyond.
    for env in [
        Environment::Google,
        Environment::HedgeFund,
        Environment::Mustang,
    ] {
        let pairs = replay(env, 11);
        assert!(pairs.len() > 50, "{env:?}: enough predictions");
        let off2 = fraction_off_by_factor(&pairs, 2.0);
        assert!(
            (0.02..0.45).contains(&off2),
            "{env:?}: {:.1}% off by ≥2x — outside the plausible band",
            off2 * 100.0
        );
    }
}

#[test]
fn hedgefund_is_harder_to_predict_than_google() {
    let google = fraction_off_by_factor(&replay(Environment::Google, 13), 2.0);
    let hedge = fraction_off_by_factor(&replay(Environment::HedgeFund, 13), 2.0);
    assert!(
        hedge > google,
        "hedgefund {hedge:.3} should exceed google {google:.3}"
    );
}

#[test]
fn mustang_has_many_very_accurate_estimates() {
    // Fig. 2(d): Mustang has a large spike of ±5 % estimates.
    let pairs = replay(Environment::Mustang, 17);
    let within5 = pairs
        .iter()
        .filter(|(e, a)| ((e - a) / a).abs() <= 0.05)
        .count() as f64
        / pairs.len() as f64;
    assert!(
        within5 > 0.35,
        "only {:.0}% of Mustang estimates within ±5%",
        within5 * 100.0
    );
}

#[test]
fn runtimes_are_heavy_tailed_in_all_environments() {
    // Fig. 2(a): orders of magnitude between median and the tail.
    for env in [
        Environment::Google,
        Environment::HedgeFund,
        Environment::Mustang,
    ] {
        let trace = generate(&WorkloadConfig {
            duration: 60.0,
            pretrain_jobs: 4000,
            ..WorkloadConfig::e2e(env, 19)
        });
        let cdf = runtime_cdf(&trace.pretrain);
        let at = |q: f64| cdf[(q * (cdf.len() - 1) as f64) as usize].0;
        assert!(
            at(0.99) / at(0.5) > 4.0,
            "{env:?}: p99/p50 = {:.1}",
            at(0.99) / at(0.5)
        );
    }
}

#[test]
fn per_user_variability_is_high_for_many_users() {
    // Fig. 2(b): a large share of per-user subsets have CoV near/above 1.
    for env in [Environment::HedgeFund, Environment::Mustang] {
        let trace = generate(&WorkloadConfig {
            duration: 3.0 * 3600.0,
            pretrain_jobs: 3000,
            ..WorkloadConfig::e2e(env, 23)
        });
        let mut jobs = trace.pretrain.clone();
        jobs.extend(trace.jobs.clone());
        let covs = cov_by_attribute(&jobs, "user", 5);
        assert!(covs.len() > 20, "{env:?}: enough user groups");
        let high = high_variability_fraction(&covs, 1.0);
        assert!(
            high > 0.05,
            "{env:?}: only {:.0}% of users have CoV > 1",
            high * 100.0
        );
    }
}
