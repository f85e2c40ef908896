//! Seeded scenario generation: the stress regimes of the campaign.
//!
//! A [`Scenario`] is everything one simulation run needs — cluster shape,
//! job trace, fault script, retry policy, optional cycle budget, and (for
//! the adversarial profile) an injected estimate map — derived
//! deterministically from a single `u64` seed via the same xoshiro
//! `StdRng` the engine uses. The seven [`Profile`]s target the regimes the
//! paper's mis-estimation handling exists for: burstiness, heavy-tailed
//! runtimes, adversarial over/under-estimates, preemption churn, capacity
//! loss underneath the scheduler, abrupt node crashes with job retries,
//! and sustained overload that forces the degradation governor up its
//! ladder.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use threesigma_cluster::{FaultEvent, JobId, JobKind, JobSpec, PartitionId, RetryPolicy};
use threesigma_histogram::DiscreteDist;

/// The stress regime a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Synchronized arrival bursts that spike queue depth.
    Bursty,
    /// Pareto-tailed true runtimes (a few jobs dominate machine-time).
    HeavyTail,
    /// Injected point estimates off by up to 8× in either direction.
    Adversarial,
    /// Long best-effort background plus waves of tight-deadline SLO jobs,
    /// forcing preemption churn and requeues.
    PreemptionStorm,
    /// Partition capacity loss and restore while jobs are running.
    PartitionFaults,
    /// Abrupt node crashes and targeted task kills: running gangs die
    /// mid-flight and cycle through the retry state machine.
    NodeCrashes,
    /// Arrival rate sized to exceed the per-cycle work-unit budget, forcing
    /// the degradation governor up the ladder (and back down as the
    /// backlog drains).
    Overload,
}

/// All profiles, in the order seeds cycle through them.
pub(crate) const PROFILES: [Profile; 7] = [
    Profile::Bursty,
    Profile::HeavyTail,
    Profile::Adversarial,
    Profile::PreemptionStorm,
    Profile::PartitionFaults,
    Profile::NodeCrashes,
    Profile::Overload,
];

impl Profile {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Bursty => "bursty",
            Profile::HeavyTail => "heavy-tail",
            Profile::Adversarial => "adversarial",
            Profile::PreemptionStorm => "preemption-storm",
            Profile::PartitionFaults => "partition-faults",
            Profile::NodeCrashes => "node-crashes",
            Profile::Overload => "overload",
        }
    }
}

/// One fully-specified simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// Stress regime.
    pub profile: Profile,
    /// Rack count.
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: u32,
    /// Scheduling-cycle interval in seconds.
    pub cycle_interval: f64,
    /// Drain horizon after the last arrival.
    pub drain: f64,
    /// The job trace, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Scripted capacity faults.
    pub faults: Vec<FaultEvent>,
    /// Retry policy for jobs killed by `NodeCrash`/`TaskKill` faults.
    pub retry: RetryPolicy,
    /// Deterministic per-cycle work-unit budget for the 3σSched degradation
    /// governor (`None` = unlimited, the governor never engages).
    pub cycle_budget: Option<u64>,
    /// Adversarial estimates injected into 3σSched (empty = oracle points).
    pub estimates: HashMap<JobId, DiscreteDist>,
}

impl Scenario {
    /// Total cluster nodes.
    pub fn total_nodes(&self) -> u32 {
        self.racks as u32 * self.nodes_per_rack
    }

    /// Expands `seed` into a scenario. The profile rotates with the seed so
    /// a contiguous seed range covers every regime.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce9_a51c_0ffe_e000);
        let profile = PROFILES[(seed % PROFILES.len() as u64) as usize];
        let mut racks = 2 + (rng.random::<u32>() % 3) as usize; // 2..=4
        let mut nodes_per_rack = 4 + rng.random::<u32>() % 5; // 4..=8
        if profile == Profile::Overload {
            // A small cluster keeps the backlog (and with it the per-cycle
            // option-enumeration cost) high for hundreds of seconds.
            racks = 2;
            nodes_per_rack = 4;
        }
        let total = racks as u32 * nodes_per_rack;
        let cycle_interval = 5.0;
        let mut jobs = Vec::new();
        let mut faults = Vec::new();
        let mut estimates = HashMap::new();
        let mut retry = RetryPolicy::default();
        let mut cycle_budget = None;
        match profile {
            Profile::Bursty => {
                let bursts = 3 + rng.random::<u32>() % 3;
                let mut id = 1u64;
                for b in 0..bursts {
                    let at = b as f64 * (40.0 + uniform(&mut rng, 0.0, 40.0));
                    let width = 6 + rng.random::<u32>() % 8;
                    for _ in 0..width {
                        jobs.push(random_job(&mut rng, id, at, total, 20.0, 180.0, 1.0, 2.0));
                        id += 1;
                    }
                }
            }
            Profile::HeavyTail => {
                let n = 35 + rng.random::<u32>() % 15;
                let alpha = uniform(&mut rng, 0.9, 1.6);
                let mut at = 0.0;
                for id in 1..=n as u64 {
                    at += uniform(&mut rng, 1.0, 15.0);
                    // Pareto via inverse transform, capped so the drain
                    // horizon stays bounded.
                    let u = rng.random::<f64>().max(1e-9);
                    let runtime = (12.0 * u.powf(-1.0 / alpha)).min(2500.0);
                    let mut job = random_job(&mut rng, id, at, total, runtime, runtime, 1.5, 3.0);
                    job.duration = runtime;
                    jobs.push(job);
                }
            }
            Profile::Adversarial => {
                let n = 30 + rng.random::<u32>() % 15;
                let mut at = 0.0;
                for id in 1..=n as u64 {
                    at += uniform(&mut rng, 2.0, 12.0);
                    let job = random_job(&mut rng, id, at, total, 30.0, 300.0, 1.0, 2.5);
                    // Mis-estimate by a log-uniform factor in [1/8, 8].
                    let factor = 2f64.powf(uniform(&mut rng, -3.0, 3.0));
                    estimates.insert(
                        job.id,
                        DiscreteDist::point((job.duration * factor).max(1.0)),
                    );
                    jobs.push(job);
                }
            }
            Profile::PreemptionStorm => {
                let mut id = 1u64;
                // Background: enough long best-effort gangs to fill the
                // cluster early.
                let background = 1 + total / 3;
                for _ in 0..background {
                    let tasks = 1 + rng.random::<u32>() % 4;
                    jobs.push(JobSpec::new(
                        id,
                        uniform(&mut rng, 0.0, 10.0),
                        tasks.min(total),
                        uniform(&mut rng, 300.0, 700.0),
                        JobKind::BestEffort,
                    ));
                    id += 1;
                }
                // Storm: waves of tight-deadline SLO jobs.
                let waves = 3 + rng.random::<u32>() % 3;
                for w in 0..waves {
                    let at = 30.0 + w as f64 * uniform(&mut rng, 30.0, 60.0);
                    for _ in 0..(4 + rng.random::<u32>() % 5) {
                        let tasks = (1 + rng.random::<u32>() % 4).min(total);
                        let runtime = uniform(&mut rng, 20.0, 90.0);
                        let slack = uniform(&mut rng, 0.2, 0.6);
                        jobs.push(
                            JobSpec::new(
                                id,
                                at,
                                tasks,
                                runtime,
                                JobKind::Slo {
                                    deadline: at + runtime * (1.0 + slack),
                                },
                            )
                            .with_weight(8.0),
                        );
                        id += 1;
                    }
                }
            }
            Profile::PartitionFaults => {
                let n = 30 + rng.random::<u32>() % 15;
                let mut at = 0.0;
                for id in 1..=n as u64 {
                    at += uniform(&mut rng, 2.0, 12.0);
                    jobs.push(random_job(&mut rng, id, at, total, 40.0, 250.0, 1.2, 2.5));
                }
                let hits = 1 + rng.random::<u32>() % 3;
                for _ in 0..hits {
                    let partition = PartitionId((rng.random::<u32>() as usize) % racks);
                    let nodes = 1 + rng.random::<u32>() % nodes_per_rack;
                    let down_at = uniform(&mut rng, 30.0, 200.0);
                    faults.push(FaultEvent::PartitionDown {
                        at: down_at,
                        partition,
                        nodes,
                    });
                    // Most outages recover; some last to the end of the run.
                    if rng.random::<f64>() < 0.8 {
                        faults.push(FaultEvent::PartitionUp {
                            at: down_at + uniform(&mut rng, 60.0, 300.0),
                            partition,
                            nodes,
                        });
                    }
                }
            }
            Profile::NodeCrashes => {
                // Lightly loaded on purpose: this regime stresses kill /
                // retry / censoring semantics, not contention, and the
                // aimed TaskKills below assume jobs start within a cycle
                // or two of submission (small gangs, ~50% utilization).
                let n = 18 + rng.random::<u32>() % 8;
                let mut at = 0.0;
                for id in 1..=n as u64 {
                    at += uniform(&mut rng, 15.0, 30.0);
                    let tasks = 1 + rng.random::<u32>() % 2;
                    let runtime = uniform(&mut rng, 40.0, 120.0);
                    let kind = if rng.random::<f64>() < 0.4 {
                        JobKind::Slo {
                            deadline: at + runtime * uniform(&mut rng, 3.0, 6.0),
                        }
                    } else {
                        JobKind::BestEffort
                    };
                    jobs.push(JobSpec::new(id, at, tasks, runtime, kind));
                }
                // Abrupt crashes: free nodes absorb what they can, then
                // running gangs on the partition die and enter retry.
                let crashes = 2 + rng.random::<u32>() % 3;
                for _ in 0..crashes {
                    let partition = PartitionId((rng.random::<u32>() as usize) % racks);
                    let nodes = 1 + rng.random::<u32>() % (nodes_per_rack / 2).max(1);
                    let crash_at = uniform(&mut rng, 30.0, 250.0);
                    faults.push(FaultEvent::NodeCrash {
                        at: crash_at,
                        partition,
                        nodes,
                    });
                    // Crashed nodes usually come back (recovery reuses the
                    // graceful restore path).
                    if rng.random::<f64>() < 0.7 {
                        faults.push(FaultEvent::PartitionUp {
                            at: crash_at + uniform(&mut rng, 60.0, 240.0),
                            partition,
                            nodes,
                        });
                    }
                }
                // Targeted task-level failures, aimed inside the victim's
                // expected execution window (jobs start within a cycle or
                // two of submission on this lightly-loaded cluster). Kills
                // of jobs that are not running at `at` are engine no-ops,
                // which is fine — queueing delay only shifts the window.
                // Victims come from the front of the trace so the retried
                // attempt still completes well inside the drain horizon.
                let kills = 3 + rng.random::<u32>() % 4;
                for _ in 0..kills {
                    let idx = (rng.random::<u64>() % (n as u64 * 2 / 3).max(1)) as usize;
                    let frac = uniform(&mut rng, 0.3, 0.7);
                    faults.push(FaultEvent::TaskKill {
                        at: jobs[idx].submit_time
                            + 2.0 * cycle_interval
                            + frac * jobs[idx].duration,
                        job: jobs[idx].id,
                    });
                }
                // Short saturating backoff so retries (and retry-budget
                // exhaustion) happen well inside the drain horizon.
                retry = RetryPolicy {
                    max_retries: 2,
                    backoff_base: 4.0,
                    backoff_cap: 64.0,
                };
            }
            Profile::Overload => {
                // A steady torrent of small jobs on the shrunken cluster:
                // queue depth quickly exceeds what the MILP path can value
                // within the budget below, then drains in a long tail of
                // cheap cycles so hysteresis can step the governor back to
                // level 0.
                let n = 80 + rng.random::<u32>() % 30;
                let mut at = 0.0;
                for id in 1..=n as u64 {
                    at += uniform(&mut rng, 0.5, 1.5);
                    let tasks = 1 + rng.random::<u32>() % 2;
                    let runtime = uniform(&mut rng, 15.0, 60.0);
                    let kind = if rng.random::<f64>() < 0.4 {
                        JobKind::Slo {
                            // Generous slack: misses here should come from
                            // backlog, not from an impossible deadline.
                            deadline: at + runtime * uniform(&mut rng, 8.0, 16.0),
                        }
                    } else {
                        JobKind::BestEffort
                    };
                    jobs.push(JobSpec::new(id, at, tasks, runtime, kind));
                }
                // Work units = options valued + branch-and-bound nodes per
                // cycle; level 0 with a deep queue enumerates well over
                // this, while the level-1 caps derived from it provably
                // fit (see `sched::threesigma`).
                cycle_budget = Some(250);
            }
        }
        Scenario {
            seed,
            profile,
            racks,
            nodes_per_rack,
            cycle_interval,
            drain: 1800.0,
            jobs,
            faults,
            retry,
            cycle_budget,
            estimates,
        }
    }

    /// The crafted contention-free trace behind the dominance oracle: with
    /// perfect point estimates and no resource contention, 3σSched must not
    /// miss SLOs that backfill meets. Demand never exceeds half the
    /// cluster and every deadline leaves ≥ 4× runtime of slack plus a
    /// cycle-quantization cushion.
    pub fn no_contention(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00d0_51ab_1e00_0000);
        let racks = 2usize;
        let nodes_per_rack = 8u32;
        let mut jobs = Vec::new();
        let mut at = 0.0;
        for id in 1..=8u64 {
            at += uniform(&mut rng, 45.0, 90.0);
            let tasks = 1 + rng.random::<u32>() % 4;
            let runtime = uniform(&mut rng, 30.0, 120.0);
            jobs.push(JobSpec::new(
                id,
                at,
                tasks,
                runtime,
                JobKind::Slo {
                    deadline: at + 4.0 * runtime + 120.0,
                },
            ));
        }
        for id in 9..=10u64 {
            at += uniform(&mut rng, 10.0, 30.0);
            jobs.push(JobSpec::new(
                id,
                at,
                1 + rng.random::<u32>() % 2,
                uniform(&mut rng, 20.0, 60.0),
                JobKind::BestEffort,
            ));
        }
        Scenario {
            seed,
            profile: Profile::Bursty, // unused label; trace is crafted
            racks,
            nodes_per_rack,
            cycle_interval: 5.0,
            drain: 1800.0,
            jobs,
            faults: Vec::new(),
            retry: RetryPolicy::default(),
            cycle_budget: None,
            estimates: HashMap::new(),
        }
    }
}

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + rng.random::<f64>() * (hi - lo)
}

/// A random job: mixed SLO/BE, sized for the cluster, with occasional rack
/// preference (slowdown 1.5× off-preferred).
#[allow(clippy::too_many_arguments)]
fn random_job(
    rng: &mut StdRng,
    id: u64,
    submit: f64,
    total_nodes: u32,
    min_runtime: f64,
    max_runtime: f64,
    min_slack: f64,
    max_slack: f64,
) -> JobSpec {
    let tasks = (1 + rng.random::<u32>() % (total_nodes / 3).max(1)).min(total_nodes);
    let runtime = if max_runtime > min_runtime {
        uniform(rng, min_runtime, max_runtime)
    } else {
        min_runtime
    };
    let kind = if rng.random::<f64>() < 0.5 {
        JobKind::Slo {
            deadline: submit + runtime * (1.0 + uniform(rng, min_slack, max_slack)),
        }
    } else {
        JobKind::BestEffort
    };
    let mut job = JobSpec::new(id, submit, tasks, runtime, kind);
    if rng.random::<f64>() < 0.3 {
        job = job.with_preference(vec![PartitionId(0)], 1.5);
    }
    if job.kind.is_slo() {
        job = job.with_weight(uniform(rng, 4.0, 10.0));
    }
    job
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 2, 3, 4, 17, 12345] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.jobs.len(), b.jobs.len());
            for (x, y) in a.jobs.iter().zip(&b.jobs) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.submit_time, y.submit_time);
                assert_eq!(x.duration, y.duration);
                assert_eq!(x.tasks, y.tasks);
            }
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn profiles_rotate_with_seed() {
        let names: Vec<&str> = (0..7)
            .map(|s| Scenario::generate(s).profile.name())
            .collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 7, "seven consecutive seeds → seven profiles");
    }

    #[test]
    fn jobs_fit_the_cluster() {
        for seed in 0..28u64 {
            let s = Scenario::generate(seed);
            assert!(!s.jobs.is_empty());
            for j in &s.jobs {
                assert!(j.tasks >= 1 && j.tasks <= s.total_nodes(), "seed {seed}");
                assert!(j.duration > 0.0 && j.duration.is_finite());
                assert!(j.submit_time >= 0.0);
            }
            for f in &s.faults {
                if let Some(p) = f.partition() {
                    assert!(p.index() < s.racks);
                }
            }
        }
    }

    #[test]
    fn node_crashes_profile_scripts_kills() {
        // Profile index 5 = node-crashes.
        let s = Scenario::generate(5);
        assert_eq!(s.profile, Profile::NodeCrashes);
        assert!(s
            .faults
            .iter()
            .any(|f| matches!(f, FaultEvent::NodeCrash { .. })));
        assert!(s
            .faults
            .iter()
            .any(|f| matches!(f, FaultEvent::TaskKill { .. })));
        assert!(s.retry.max_retries > 0, "kills must be retryable");
        // Kill targets reference jobs that exist in the trace.
        let n = s.jobs.len() as u64;
        for f in &s.faults {
            if let FaultEvent::TaskKill { job, .. } = f {
                assert!(job.0 >= 1 && job.0 <= n);
            }
        }
    }

    #[test]
    fn overload_profile_sets_a_cycle_budget() {
        // Profile index 6 = overload.
        let s = Scenario::generate(6);
        assert_eq!(s.profile, Profile::Overload);
        let budget = s.cycle_budget.expect("overload runs under a budget");
        // Deep enough backlog that level-0 enumeration alone (≥ 8 valued
        // options per pending job) must overshoot the budget.
        assert!(s.jobs.len() as u64 * 8 > 2 * budget);
        // Small cluster so the backlog actually builds up.
        assert!(s.total_nodes() <= 8);
        // Arrivals are monotone (engine submission order).
        for w in s.jobs.windows(2) {
            assert!(w[0].submit_time <= w[1].submit_time);
        }
    }

    #[test]
    fn adversarial_profile_injects_estimates() {
        // Profile index 2 = adversarial.
        let s = Scenario::generate(2);
        assert_eq!(s.profile, Profile::Adversarial);
        assert_eq!(s.estimates.len(), s.jobs.len());
    }

    #[test]
    fn no_contention_trace_is_underloaded() {
        let s = Scenario::no_contention(7);
        let total = s.total_nodes();
        for j in &s.jobs {
            assert!(j.tasks <= total / 2);
            if let JobKind::Slo { deadline } = j.kind {
                assert!(deadline >= j.submit_time + 4.0 * j.duration);
            }
        }
    }
}
