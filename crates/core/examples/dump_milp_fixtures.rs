//! Regenerates the differential solver-oracle fixture corpus.
//!
//! Runs a handful of small, fully deterministic scheduling scenarios with
//! `record_models` enabled, dedupes the per-cycle MILP dumps, and writes
//! them to `crates/milp/tests/fixtures/*.milp` in the bit-exact text
//! format. The `solver_oracle` integration test replays every fixture
//! through all three solver tiers.
//!
//! ```sh
//! cargo run --release -p threesigma --example dump_milp_fixtures
//! ```
//!
//! The corpus is checked in; re-run this only when the model compiler
//! changes shape (new constraint classes, different option enumeration).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use threesigma::sched::threesigma::{
    CycleBudget, EstimateSource, SchedConfig, ThreeSigmaScheduler,
};
use threesigma_cluster::{ClusterSpec, Engine, EngineConfig, JobId, JobKind, JobSpec};
use threesigma_histogram::DiscreteDist;
use threesigma_predict::PredictorConfig;

/// FNV-1a, for content-addressed dedup of the dumped models.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Scenario {
    name: &'static str,
    racks: usize,
    nodes_per_rack: u32,
    config: SchedConfig,
    source: EstimateSource,
    jobs: Vec<JobSpec>,
}

fn mixed_injected(seed_jobs: usize) -> (Vec<JobSpec>, EstimateSource) {
    // Interleaved SLO deadlines and best-effort gangs with injected
    // runtime *distributions*, so demand rows carry non-trivial survival
    // coefficients and preemption binaries appear.
    let mut jobs = Vec::new();
    let mut estimates = HashMap::new();
    for i in 0..seed_jobs as u64 {
        let submit = i as f64 * 7.0;
        let (kind, tasks, duration) = if i % 3 == 0 {
            (
                JobKind::Slo {
                    deadline: submit + 900.0,
                },
                2,
                240.0,
            )
        } else {
            (
                JobKind::BestEffort,
                1 + (i % 4) as u32,
                150.0 + 30.0 * (i % 5) as f64,
            )
        };
        let spec = JobSpec::new(i + 1, submit, tasks, duration, kind);
        // 40 quantile-grid points: the resolution the checked-in corpus was
        // recorded at.
        let dist = if i % 2 == 0 {
            DiscreteDist::uniform(duration * 0.5, duration * 1.5, 40)
        } else {
            DiscreteDist::log_normal(duration.ln(), 0.4, 40)
        };
        estimates.insert(JobId(i + 1), dist);
        jobs.push(spec);
    }
    (jobs, EstimateSource::Injected(Arc::new(estimates)))
}

fn scenarios() -> Vec<Scenario> {
    let record = SchedConfig {
        record_models: true,
        ..SchedConfig::default()
    };
    let (mixed_jobs, mixed_source) = mixed_injected(12);
    vec![
        Scenario {
            name: "contended-oracle",
            racks: 2,
            nodes_per_rack: 3,
            config: record.clone(),
            source: EstimateSource::OraclePoint,
            jobs: (0..10)
                .map(|i| {
                    JobSpec::new(
                        i + 1,
                        i as f64 * 4.0,
                        1 + (i % 3) as u32,
                        200.0,
                        JobKind::BestEffort,
                    )
                })
                .collect(),
        },
        Scenario {
            name: "mixed-injected",
            racks: 3,
            nodes_per_rack: 2,
            config: record.clone(),
            source: mixed_source,
            jobs: mixed_jobs,
        },
        Scenario {
            name: "degraded-ladder",
            racks: 1,
            nodes_per_rack: 4,
            config: SchedConfig {
                cycle_budget: CycleBudget::WorkUnits(40),
                ..record.clone()
            },
            source: EstimateSource::OraclePoint,
            jobs: (0..14)
                .map(|i| JobSpec::new(i + 1, i as f64 * 2.0, 1, 120.0, JobKind::BestEffort))
                .collect(),
        },
        Scenario {
            name: "slo-deadlines",
            racks: 2,
            nodes_per_rack: 2,
            config: record,
            source: EstimateSource::OraclePoint,
            jobs: (0..8)
                .map(|i| {
                    let submit = i as f64 * 10.0;
                    JobSpec::new(
                        i + 1,
                        submit,
                        2,
                        300.0,
                        JobKind::Slo {
                            deadline: submit + 1200.0,
                        },
                    )
                })
                .collect(),
        },
    ]
}

fn main() {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/milp/tests/fixtures");
    std::fs::create_dir_all(&out_dir).expect("create fixture dir");

    let mut seen = std::collections::BTreeSet::new();
    let mut kept: Vec<(String, String)> = Vec::new();
    for sc in scenarios() {
        let mut sched = ThreeSigmaScheduler::new(sc.config, sc.source, PredictorConfig::default());
        let engine = Engine::new(
            ClusterSpec::uniform(sc.racks, sc.nodes_per_rack),
            EngineConfig {
                cycle_interval: 20.0,
                ..EngineConfig::default()
            },
        );
        engine.run(&sc.jobs, &mut sched).expect("scenario runs");
        let mut from_scenario = 0;
        for (cycle, text) in sched.models().iter().enumerate() {
            // Dedup identical cycles (steady state repeats itself), skip
            // the degenerate empty model, and bound the per-scenario
            // contribution so every scenario shape is represented.
            let digest = fnv1a(text.as_bytes());
            if text.lines().count() <= 5 || !seen.insert(digest) {
                continue;
            }
            kept.push((
                format!("{}_{cycle:02}_{digest:016x}.milp", sc.name),
                text.clone(),
            ));
            from_scenario += 1;
            if from_scenario >= 8 {
                break;
            }
        }
    }
    for stale in std::fs::read_dir(&out_dir).expect("read fixture dir") {
        let p = stale.expect("dir entry").path();
        if p.extension().is_some_and(|e| e == "milp") {
            std::fs::remove_file(p).expect("remove stale fixture");
        }
    }
    let mut total = 0usize;
    for (name, text) in &kept {
        total += text.len();
        std::fs::write(out_dir.join(name), text).expect("write fixture");
    }
    println!(
        "wrote {} fixtures ({} bytes) to {}",
        kept.len(),
        total,
        out_dir.display()
    );
}
