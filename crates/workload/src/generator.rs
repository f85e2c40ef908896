//! Synthetic trace generation (the paper's E2E workload recipe, §5).
//!
//! Jobs are drawn from an environment's class mixture: each (class, user)
//! subgroup has a persistent runtime scale, each job adds class-dependent
//! log-normal noise (and an occasional slow mode), arrival times follow a
//! hyperexponential process with `c_a² = 4`, and every job is labelled SLO
//! (with a deadline at `submit + runtime · (1 + slack)`) or best-effort.
//! SLO jobs carry a soft preference for 75 % of the cluster and run 1.5×
//! longer elsewhere. The arrival rate is calibrated so the offered load
//! (machine-time submitted / cluster capacity) matches the target.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

pub use threesigma_cluster::MAX_DURATION;
use threesigma_cluster::{Attributes, JobKind, JobSpec, PartitionId};

use crate::env::{Environment, JobClass};
use crate::sampling::{lognormal, standard_normal, weighted_choice, HyperExp};

/// How the arrival rate is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalTarget {
    /// Offered load as a fraction of cluster space-time capacity (the
    /// paper's nominal setting is 1.4).
    Load(f64),
    /// Fixed submission rate (the SCALABILITY-n workloads of §6.5).
    JobsPerHour(f64),
}

/// Full workload recipe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Which environment's class mixture to draw from.
    pub env: Environment,
    /// Total nodes of the target cluster (jobs needing more are redrawn, as
    /// the paper filters jobs larger than the cluster).
    pub cluster_nodes: u32,
    /// Number of partitions (racks) preference sets are expressed over.
    pub num_partitions: usize,
    /// Trace length in seconds (arrivals stop after this).
    pub duration: f64,
    /// Arrival-rate target.
    pub arrival: ArrivalTarget,
    /// Squared CoV of inter-arrival times (paper: 4).
    pub arrival_cov2: f64,
    /// Fraction of jobs that are SLO (paper: even mixture, 0.5).
    pub slo_fraction: f64,
    /// Deadline-slack choices, drawn uniformly per SLO job
    /// (paper default: 20 %, 40 %, 60 %, 80 %).
    pub deadline_slacks: Vec<f64>,
    /// Fraction of partitions an SLO job prefers (paper: 0.75).
    pub preferred_fraction: f64,
    /// Runtime multiplier off-preferred (paper: 1.5).
    pub nonpreferred_slowdown: f64,
    /// Utility weight of SLO jobs relative to BE jobs (weight 1).
    pub slo_weight: f64,
    /// Number of history jobs generated for predictor pre-training.
    pub pretrain_jobs: usize,
    /// RNG seed; everything is deterministic given the config.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's E2E defaults for a 256-node, 8-rack cluster.
    pub fn e2e(env: Environment, seed: u64) -> Self {
        Self {
            env,
            cluster_nodes: 256,
            num_partitions: 8,
            duration: 5.0 * 3600.0,
            arrival: ArrivalTarget::Load(1.4),
            arrival_cov2: 4.0,
            slo_fraction: 0.5,
            deadline_slacks: vec![0.2, 0.4, 0.6, 0.8],
            preferred_fraction: 0.75,
            nonpreferred_slowdown: 1.5,
            slo_weight: 10.0,
            pretrain_jobs: 3000,
            seed,
        }
    }

    /// Uses a single fixed deadline slack (the DEADLINE-n workloads, Fig. 8).
    pub fn with_slack(mut self, slack: f64) -> Self {
        self.deadline_slacks = vec![slack];
        self
    }

    /// Overrides the offered load (the E2E-LOAD-ℓ workloads, Fig. 10).
    pub fn with_load(mut self, load: f64) -> Self {
        self.arrival = ArrivalTarget::Load(load);
        self
    }

    /// Overrides the trace length.
    pub fn with_duration(mut self, secs: f64) -> Self {
        self.duration = secs;
        self
    }
}

/// A generated trace: pre-training history plus the experiment jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Jobs completed "before the trace window": fed to predictors as
    /// history, never simulated (§5 "Estimates").
    pub pretrain: Vec<JobSpec>,
    /// The jobs injected into the simulated cluster.
    pub jobs: Vec<JobSpec>,
}

impl Trace {
    /// Offered load: submitted machine-time over cluster space-time.
    pub fn offered_load(&self, cluster_nodes: u32, duration: f64) -> f64 {
        let work: f64 = self.jobs.iter().map(|j| j.tasks as f64 * j.duration).sum();
        work / (cluster_nodes as f64 * duration)
    }

    /// Serialises the trace to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialises")
    }

    /// Parses a trace from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the trace to a JSON file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a trace from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let data = std::fs::read_to_string(path)?;
        Self::from_json(&data).map_err(std::io::Error::other)
    }
}

/// One (class, user) subgroup with its persistent runtime scale.
struct UserGroup {
    class_idx: usize,
    user: String,
    job_name: String,
    scale: f64,
}

struct BodySampler {
    classes: Vec<JobClass>,
    class_weights: Vec<f64>,
    /// Groups laid out per class: `group_offsets[c] .. group_offsets[c+1]`.
    groups: Vec<UserGroup>,
    group_offsets: Vec<usize>,
    max_tasks: u32,
}

struct JobBody {
    tasks: u32,
    duration: f64,
    attributes: Attributes,
}

impl BodySampler {
    fn new(env: Environment, max_tasks: u32, rng: &mut StdRng) -> Self {
        let classes = env.classes();
        let class_weights: Vec<f64> = classes.iter().map(|c| c.weight).collect();
        let mut groups = Vec::new();
        let mut group_offsets = vec![0];
        for (ci, class) in classes.iter().enumerate() {
            for u in 0..class.num_users {
                let scale = (class.ln_runtime_mu + class.scale_sigma * standard_normal(rng)).exp();
                groups.push(UserGroup {
                    class_idx: ci,
                    user: format!("{}_u{}", class.name, u),
                    job_name: format!("{}_v{}", class.name, u % 5),
                    scale,
                });
            }
            group_offsets.push(groups.len());
        }
        Self {
            classes,
            class_weights,
            groups,
            group_offsets,
            max_tasks,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> JobBody {
        let ci = weighted_choice(rng, &self.class_weights);
        let class = &self.classes[ci];
        let lo = self.group_offsets[ci];
        let hi = self.group_offsets[ci + 1];
        let group = &self.groups[lo + (rng.random::<u64>() as usize) % (hi - lo)];
        debug_assert_eq!(group.class_idx, ci);

        let mut duration = group.scale * lognormal(rng, 0.0, class.noise_sigma);
        if let Some(b) = class.bimodal {
            if rng.random::<f64>() < b.prob {
                duration *= b.factor;
            }
        }
        let duration = duration.clamp(1.0, MAX_DURATION);

        // Redraw oversized gangs (the paper filters jobs larger than the
        // cluster out of the trace).
        let weights: Vec<f64> = class.tasks.iter().map(|(_, w)| *w).collect();
        let mut tasks = class.tasks[weighted_choice(rng, &weights)].0;
        for _ in 0..8 {
            if tasks <= self.max_tasks {
                break;
            }
            tasks = class.tasks[weighted_choice(rng, &weights)].0;
        }
        let tasks = tasks.min(self.max_tasks);

        let attributes = Attributes::new()
            .with("user", group.user.clone())
            .with("job_name", group.job_name.clone())
            .with("priority", class.priority.to_string())
            .with("tasks", tasks.to_string())
            // Recorded for analysis; honest predictors must not use it (the
            // paper excludes the class-membership feature, §5).
            .with("class", class.name);

        JobBody {
            tasks,
            duration,
            attributes,
        }
    }

    /// Mean machine-seconds per job, estimated by Monte Carlo.
    fn mean_machine_seconds(&self, rng: &mut StdRng, samples: usize) -> f64 {
        let total: f64 = (0..samples)
            .map(|_| {
                let b = self.sample(rng);
                b.tasks as f64 * b.duration
            })
            .sum();
        total / samples as f64
    }
}

/// Generates a trace from a config. Deterministic in `config.seed`.
pub fn generate(config: &WorkloadConfig) -> Trace {
    assert!(config.duration > 0.0, "duration must be positive");
    assert!(
        (0.0..=1.0).contains(&config.slo_fraction),
        "slo_fraction in [0,1]"
    );
    assert!(
        !config.deadline_slacks.is_empty(),
        "need at least one deadline slack"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sampler = BodySampler::new(config.env, config.cluster_nodes, &mut rng);

    // Calibrate the arrival rate.
    let mut calib_rng = StdRng::seed_from_u64(config.seed ^ 0xCA11B);
    let mean_ia = match config.arrival {
        ArrivalTarget::JobsPerHour(rate) => {
            assert!(rate > 0.0, "rate must be positive");
            3600.0 / rate
        }
        ArrivalTarget::Load(load) => {
            assert!(load > 0.0, "load must be positive");
            let mean_ms = sampler.mean_machine_seconds(&mut calib_rng, 4000);
            mean_ms / (load * config.cluster_nodes as f64)
        }
    };
    let arrivals = HyperExp::new(mean_ia, config.arrival_cov2);

    let mut next_id = 1u64;
    // Pre-training history: nominal one-per-second submissions in the past.
    let mut pretrain = Vec::with_capacity(config.pretrain_jobs);
    for i in 0..config.pretrain_jobs {
        let body = sampler.sample(&mut rng);
        let job = JobSpec::new(
            next_id,
            i as f64,
            body.tasks,
            body.duration,
            JobKind::BestEffort,
        )
        .with_attributes(body.attributes);
        pretrain.push(job);
        next_id += 1;
    }

    let preferred_count = ((config.num_partitions as f64 * config.preferred_fraction).round()
        as usize)
        .clamp(1, config.num_partitions);

    let mut jobs = Vec::new();
    let mut t = 0.0;
    loop {
        t += arrivals.sample(&mut rng);
        if t > config.duration {
            break;
        }
        let body = sampler.sample(&mut rng);
        let is_slo = rng.random::<f64>() < config.slo_fraction;
        let kind = if is_slo {
            let slack = config.deadline_slacks
                [(rng.random::<u64>() as usize) % config.deadline_slacks.len()];
            JobKind::Slo {
                deadline: t + body.duration * (1.0 + slack),
            }
        } else {
            JobKind::BestEffort
        };
        let mut job = JobSpec::new(next_id, t, body.tasks, body.duration, kind)
            .with_attributes(body.attributes);
        next_id += 1;
        if is_slo {
            // Preferred partitions: a random contiguous rotation covering
            // `preferred_fraction` of the racks.
            let start = (rng.random::<u64>() as usize) % config.num_partitions;
            let preferred: Vec<PartitionId> = (0..preferred_count)
                .map(|k| PartitionId((start + k) % config.num_partitions))
                .collect();
            job = job
                .with_preference(preferred, config.nonpreferred_slowdown)
                .with_weight(config.slo_weight);
        }
        jobs.push(job);
    }

    Trace { pretrain, jobs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            duration: 1800.0,
            pretrain_jobs: 200,
            ..WorkloadConfig::e2e(Environment::Google, 7)
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.pretrain, b.pretrain);
        assert!(!a.jobs.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_config());
        let b = generate(&WorkloadConfig {
            seed: 8,
            ..small_config()
        });
        assert_ne!(a.jobs, b.jobs);
    }

    #[test]
    fn offered_load_is_near_target() {
        let config = WorkloadConfig {
            duration: 4.0 * 3600.0,
            ..WorkloadConfig::e2e(Environment::Google, 11)
        };
        let trace = generate(&config);
        let load = trace.offered_load(config.cluster_nodes, config.duration);
        // Heavy-tailed job sizes make per-trace load noisy; a generous band
        // still catches calibration bugs (which are order-of-magnitude).
        assert!((0.6..=2.6).contains(&load), "load {load}");
    }

    #[test]
    fn jobs_respect_structural_invariants() {
        let config = small_config();
        let trace = generate(&config);
        let mut prev = 0.0;
        for j in &trace.jobs {
            assert!(j.submit_time >= prev, "arrivals sorted");
            prev = j.submit_time;
            assert!(j.tasks >= 1 && j.tasks <= config.cluster_nodes);
            assert!(j.duration >= 1.0);
            assert!(j.attributes.get("user").is_some());
            assert!(j.attributes.get("job_name").is_some());
            if let JobKind::Slo { deadline } = j.kind {
                let slack = j.deadline_slack().unwrap();
                assert!(
                    config
                        .deadline_slacks
                        .iter()
                        .any(|s| (s - slack).abs() < 1e-9),
                    "slack {slack} from the configured set"
                );
                assert!(deadline > j.submit_time);
                let pref = j.preferred.as_ref().expect("SLO jobs have preference");
                assert_eq!(pref.len(), 6, "75% of 8 racks");
                assert_eq!(j.nonpreferred_slowdown, 1.5);
                assert_eq!(j.utility_weight, config.slo_weight);
            } else {
                assert!(j.preferred.is_none());
                assert_eq!(j.utility_weight, 1.0);
            }
        }
    }

    #[test]
    fn slo_fraction_is_respected() {
        let config = WorkloadConfig {
            duration: 4.0 * 3600.0,
            ..WorkloadConfig::e2e(Environment::Google, 13)
        };
        let trace = generate(&config);
        let slo = trace.jobs.iter().filter(|j| j.kind.is_slo()).count();
        let frac = slo as f64 / trace.jobs.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "SLO fraction {frac}");
    }

    #[test]
    fn jobs_per_hour_target() {
        let config = WorkloadConfig {
            arrival: ArrivalTarget::JobsPerHour(600.0),
            duration: 3600.0 * 3.0,
            pretrain_jobs: 0,
            ..WorkloadConfig::e2e(Environment::Google, 17)
        };
        let trace = generate(&config);
        let rate = trace.jobs.len() as f64 / 3.0;
        assert!((rate - 600.0).abs() < 120.0, "rate {rate}/h");
    }

    #[test]
    fn pretrain_shares_feature_pools_with_run() {
        let trace = generate(&WorkloadConfig {
            pretrain_jobs: 2000,
            ..small_config()
        });
        let users: std::collections::HashSet<_> = trace
            .pretrain
            .iter()
            .filter_map(|j| j.attributes.get("user").map(str::to_owned))
            .collect();
        let overlap = trace
            .jobs
            .iter()
            .filter(|j| users.contains(j.attributes.get("user").unwrap()))
            .count();
        assert!(
            overlap as f64 / trace.jobs.len() as f64 > 0.8,
            "most run-phase users have history"
        );
    }

    #[test]
    fn trace_json_roundtrip() {
        let trace = generate(&WorkloadConfig {
            duration: 300.0,
            pretrain_jobs: 20,
            ..small_config()
        });
        let json = trace.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.jobs, trace.jobs);
        assert_eq!(back.pretrain, trace.pretrain);
        assert!(Trace::from_json("not json").is_err());
    }

    #[test]
    fn trace_file_roundtrip() {
        let trace = generate(&WorkloadConfig {
            duration: 120.0,
            pretrain_jobs: 5,
            ..small_config()
        });
        let path = std::env::temp_dir().join("threesigma_trace_roundtrip.json");
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back.jobs, trace.jobs);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn runtime_distribution_is_heavy_tailed() {
        let config = WorkloadConfig {
            duration: 6.0 * 3600.0,
            ..WorkloadConfig::e2e(Environment::Mustang, 23)
        };
        let trace = generate(&config);
        let mut rts: Vec<f64> = trace.jobs.iter().map(|j| j.duration).collect();
        rts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rts[rts.len() / 2];
        let p99 = rts[(rts.len() as f64 * 0.99) as usize];
        assert!(p99 / median > 5.0, "p99/median = {}", p99 / median);
    }
}
