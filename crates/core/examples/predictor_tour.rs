//! Tour of 3σPredict: histories, experts, and the estimate-error profile.
//!
//! Replays a generated trace through the predictor the way the cluster
//! manager would (predict at submission, observe at completion), then
//! prints which features/estimators won and the resulting Fig. 2(d)-style
//! error histogram for each environment.
//!
//! ```sh
//! cargo run --release --example predictor_tour
//! ```

use std::collections::HashMap;

use threesigma::DiscreteDist;
use threesigma_predict::{AttributeSource, Predictor, PredictorConfig};
use threesigma_workload::analysis::{error_histogram, estimate_error_pct, fraction_off_by_factor};
use threesigma_workload::{generate, Environment, WorkloadConfig};

/// Adapter from cluster attributes to the predictor's attribute trait.
struct Attrs<'a>(&'a threesigma_cluster::Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// Smallest mass point `t` with `P(T ≤ t) ≥ q`.
fn quantile(dist: &DiscreteDist, q: f64) -> f64 {
    let mut acc = 0.0;
    for &(t, p) in dist.points() {
        acc += p;
        if acc >= q {
            return t;
        }
    }
    dist.upper()
}

fn main() {
    for env in [
        Environment::Google,
        Environment::HedgeFund,
        Environment::Mustang,
    ] {
        let config = WorkloadConfig {
            duration: 3.0 * 3600.0,
            pretrain_jobs: 4000,
            ..WorkloadConfig::e2e(env, 7)
        };
        let trace = generate(&config);

        let mut predictor = Predictor::new(PredictorConfig::default());
        for job in &trace.pretrain {
            predictor.observe(&Attrs(&job.attributes), job.duration);
        }

        let mut errors = Vec::new();
        let mut pairs = Vec::new();
        let mut winners: HashMap<(&str, &str), usize> = HashMap::new();
        let mut sample_dist = None;
        for job in &trace.jobs {
            if let Some(p) = predictor.predict(&Attrs(&job.attributes)) {
                errors.push(estimate_error_pct(p.point, job.duration));
                pairs.push((p.point, job.duration));
                *winners.entry((p.feature, p.estimator.name())).or_default() += 1;
                if sample_dist.is_none() && p.history >= 20 {
                    sample_dist = Some((job.attributes.clone(), p.distribution.clone()));
                }
            }
            // The scheduler records the measured runtime on completion;
            // here completion order ≈ submission order is close enough.
            predictor.observe(&Attrs(&job.attributes), job.duration);
        }

        println!("\n=== {} ===", env.name());
        println!(
            "predicted {} of {} jobs; off by ≥2x: {:.1} % (paper: 8–23 %)",
            errors.len(),
            trace.jobs.len(),
            100.0 * fraction_off_by_factor(&pairs, 2.0),
        );

        let hist = error_histogram(&errors);
        println!("estimate-error histogram (Fig. 2d):");
        for (center, pct) in &hist.buckets {
            println!(
                "  {center:>5}%  {:>5.1}%  {}",
                pct,
                "#".repeat((*pct).round() as usize)
            );
        }
        println!(
            "   tail  {:>5.1}%  {}",
            hist.tail_pct,
            "#".repeat(hist.tail_pct.round() as usize)
        );

        let mut top: Vec<_> = winners.into_iter().collect();
        top.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        println!("winning experts (feature : estimator):");
        for ((feature, estimator), n) in top.into_iter().take(5) {
            println!("  {feature:<16} : {estimator:<10} won {n} jobs");
        }

        if let Some((attrs, dist)) = sample_dist {
            println!(
                "example distribution for user={} job={}: p10={:.0}s p50={:.0}s p90={:.0}s",
                attrs.get("user").unwrap_or("?"),
                attrs.get("job_name").unwrap_or("?"),
                quantile(&dist, 0.1),
                quantile(&dist, 0.5),
                quantile(&dist, 0.9),
            );
        }
    }
}
