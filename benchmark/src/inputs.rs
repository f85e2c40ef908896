//! Seeded inputs for the four workloads. The program under test only ever
//! sees what is generated here.

use threesigma::driver::Experiment;
use threesigma_cluster::{Attributes, ClusterSpec, JobKind, JobSpec};
use threesigma_workload::{generate, ArrivalTarget, Environment, Trace, WorkloadConfig};

/// SplitMix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// How much of each workload to run: the comparable size, or the `--quick`
/// smoke size that walks the same code paths in a fraction of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size every recorded number uses.
    Full,
    /// Smoke size; numbers are not comparable with anything.
    Quick,
}

/// The two in-process simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Paper E2E on SC256: a deep queue, branch-and-bound dominates.
    Solver,
    /// Fig. 12 SCALABILITY-3000 on 12,584 nodes: MILP compilation dominates.
    Compile,
}

/// One simulation to run: the trace and the cluster/scheduler settings.
pub struct BatchInput {
    /// Pre-training history plus the jobs to simulate.
    pub trace: Trace,
    /// Cluster, engine, scheduler and predictor settings.
    pub exp: Experiment,
}

/// Generator seed of both batch workloads' base traces.
///
/// What a simulation costs is heavy-tailed in the trace. With the
/// `batch-solver` configuration, generator seeds 1–12 take 2.2–13.1 s per
/// simulation, because branch-and-bound cost follows the handful of wide
/// jobs a trace happens to hold; a fresh trace per `--seed` would leave
/// every timing on that workload unresolvable. So the base trace is pinned
/// here, and `--seed` (with the iteration number) perturbs every job's
/// runtime by up to ±1 %. That is enough to move completions across cycle
/// boundaries, and with them every MILP the run builds and solves, while
/// the offered load and the job mix stay put.
const BASE_SEED: u64 = 4;
const RUNTIME_JITTER: f64 = 0.01;

const COMPILE_RACKS: usize = 8;
const COMPILE_NODES_PER_RACK: u32 = 1573; // 8 × 1573 = 12,584 ≈ the Google trace's machines
const COMPILE_JOBS_PER_HOUR: f64 = 3000.0;
const COMPILE_LOAD: f64 = 0.95;

/// Input of iteration `iteration` of a batch workload under `seed`.
pub fn batch_input(kind: BatchKind, seed: u64, iteration: u32, scale: Scale) -> BatchInput {
    let full = scale == Scale::Full;
    let (mut trace, exp) = match kind {
        BatchKind::Solver => {
            // Two simulated hours at load 1.4 build a queue deep enough for
            // branch-and-bound to dominate; longer traces cost more per
            // iteration and diverge further under the jitter, so the same
            // measuring time would average fewer, noisier samples.
            let hours = if full { 2.0 } else { 0.75 };
            let config =
                WorkloadConfig::e2e(Environment::Google, BASE_SEED).with_duration(hours * 3600.0);
            (generate(&config), Experiment::paper_sc256())
        }
        BatchKind::Compile => {
            let duration = if full { 3600.0 } else { 360.0 };
            let nodes = COMPILE_RACKS as u32 * COMPILE_NODES_PER_RACK;
            let config = WorkloadConfig {
                cluster_nodes: nodes,
                num_partitions: COMPILE_RACKS,
                duration,
                arrival: ArrivalTarget::JobsPerHour(COMPILE_JOBS_PER_HOUR),
                pretrain_jobs: 6000,
                ..WorkloadConfig::e2e(Environment::Google, BASE_SEED)
            };
            let mut trace = generate(&config);
            // Fig. 12 fixes the offered load independently of the
            // submission rate by rescaling gang sizes.
            let work: f64 = trace
                .jobs
                .iter()
                .map(|j| f64::from(j.tasks) * j.duration)
                .sum();
            let factor = COMPILE_LOAD * f64::from(nodes) * duration / work;
            for job in &mut trace.jobs {
                job.tasks = ((f64::from(job.tasks) * factor).round() as u32).clamp(1, nodes);
            }
            let exp = Experiment {
                cluster: ClusterSpec::uniform(COMPILE_RACKS, COMPILE_NODES_PER_RACK),
                ..Experiment::paper_sc256().with_cycle(2.0)
            };
            (trace, exp)
        }
    };
    let mut rng = Rng::new(seed, u64::from(iteration));
    for job in &mut trace.jobs {
        job.duration *= 1.0 + RUNTIME_JITTER * (2.0 * rng.unit() - 1.0);
    }
    BatchInput { trace, exp }
}

/// One job of the light serve stream: the JSONL line a client sends, and
/// the `JobSpec` the serve front-end makes of that line.
#[derive(Debug, Clone)]
pub struct LightJob {
    /// What `threesigma serve` parses the line into.
    pub spec: JobSpec,
    /// The wire line, newline included.
    pub line: String,
}

const TENANTS: u64 = 16;
const JOB_NAMES: u64 = 8;
/// Mean inter-arrival of the light stream: ~1800 jobs per simulated hour,
/// which with 1–8 tasks × 20–120 s is load ≈ 0.6 on the default 256 nodes.
const LIGHT_INTERARRIVAL_S: f64 = 2.0;

/// The first `n` jobs of the light serve stream of `seed`: cheap to
/// schedule (no queue builds), so the wire and the journal do the work.
pub fn light_stream(seed: u64, n: usize) -> Vec<LightJob> {
    let mut rng = Rng::new(seed, 0x005E_127E);
    let mut now = 0.0f64;
    (1..=n as u64)
        .map(|id| {
            now += -(1.0 - rng.unit()).ln() * LIGHT_INTERARRIVAL_S;
            let tenant = rng.between(0, TENANTS - 1);
            let name = rng.between(0, JOB_NAMES - 1);
            let tasks = rng.between(1, 8);
            // Each (tenant, job name) has its own runtime band, so the
            // predictor has something to learn; all bands lie in 20–120 s.
            let centre = 25.0 + 75.0 * (tenant * JOB_NAMES + name) as f64 / 127.0;
            let duration = centre * (0.8 + 0.4 * rng.unit());
            let deadline = (rng.unit() < 0.5).then(|| now + duration * (1.5 + 1.5 * rng.unit()));
            light_job(id, now, tenant, name, tasks, duration, deadline)
        })
        .collect()
}

fn light_job(
    id: u64,
    submit: f64,
    tenant: u64,
    name: u64,
    tasks: u64,
    duration: f64,
    deadline: Option<f64>,
) -> LightJob {
    // Numbers go on the wire with three decimals; the spec takes the values
    // a reader of the line gets, so both describe the same job exactly.
    let wire = |x: f64| format!("{x:.3}");
    let read = |x: f64| -> f64 { wire(x).parse().expect("formatted float parses") };
    let tenant = format!("t{tenant:02}");
    let name = format!("j{name}");
    let deadline_field = deadline.map_or(String::new(), |d| format!(",\"deadline\":{}", wire(d)));
    let line = format!(
        "{{\"id\":{id},\"tenant\":\"{tenant}\",\"submit_time\":{},\"tasks\":{tasks},\"duration\":{}{deadline_field},\"job_name\":\"{name}\"}}\n",
        wire(submit),
        wire(duration),
    );
    let kind = match deadline {
        Some(d) => JobKind::Slo { deadline: read(d) },
        None => JobKind::BestEffort,
    };
    // Attribute order as the serve front-end builds it: tenant, the extra
    // string fields in line order, then `user` mirrored from the tenant.
    let attributes = Attributes::new()
        .with("tenant", tenant.as_str())
        .with("job_name", name)
        .with("user", tenant.as_str());
    let spec = JobSpec::new(id, read(submit), tasks as u32, read(duration), kind)
        .with_attributes(attributes);
    LightJob { spec, line }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = light_stream(7, 50);
        let b = light_stream(7, 50);
        let c = light_stream(8, 50);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.line == y.line && x.spec == y.spec));
        assert!(a.iter().zip(&c).any(|(x, y)| x.line != y.line));
        assert!(a
            .windows(2)
            .all(|w| w[0].spec.submit_time <= w[1].spec.submit_time));
        assert!(a.iter().all(|j| (1..=8).contains(&j.spec.tasks)));
        assert!(a.iter().all(|j| (20.0..=120.0).contains(&j.spec.duration)));
    }

    #[test]
    fn batch_inputs_follow_seed_and_iteration() {
        let a = batch_input(BatchKind::Solver, 3, 0, Scale::Quick);
        let b = batch_input(BatchKind::Solver, 3, 0, Scale::Quick);
        let c = batch_input(BatchKind::Solver, 3, 1, Scale::Quick);
        assert_eq!(a.trace.jobs, b.trace.jobs);
        assert_ne!(a.trace.jobs, c.trace.jobs);
        assert_eq!(a.trace.jobs.len(), c.trace.jobs.len());
        let d = batch_input(BatchKind::Compile, 3, 0, Scale::Quick);
        let load = d.trace.offered_load(12_584, 360.0);
        assert!((load - 0.95).abs() < 0.05, "load {load}");
        let e = batch_input(BatchKind::Compile, 4, 0, Scale::Quick);
        assert_ne!(d.trace.jobs, e.trace.jobs);
    }
}
