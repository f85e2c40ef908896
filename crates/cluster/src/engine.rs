//! The batch driver of the simulation core, and the scheduler-facing types.
//!
//! Drives a trace of [`JobSpec`]s against a pluggable [`Scheduler`]:
//! arrivals and completions are events; every `cycle_interval` seconds the
//! scheduler is shown the cluster state and returns placements, preemptions,
//! and cancellations, which are validated and applied. The state machine
//! itself — the event kinds, `decide`, `commit`, fault handling — lives in
//! `crate::sim`; [`Engine::run_observed`] queues a whole trace into it,
//! steps it to a horizon, and folds the result into [`Metrics`]. Completion
//! events carry an epoch so that preempting a job invalidates its stale
//! finish event.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use threesigma_obs::{Counter, Gauge, Recorder};

use crate::job::{JobId, JobSpec, RetryPolicy};
use crate::metrics::{JobOutcome, Metrics};
use crate::sim::{config_problem, JobRecord, Sim, SpecRef};
use crate::spec::{ClusterSpec, PartitionId};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Seconds between scheduling cycles (the paper uses 1–2 s; long sweeps
    /// in the bench harness use coarser cycles).
    pub cycle_interval: f64,
    /// Extra simulated time after the last arrival before the run is cut
    /// off and unfinished jobs are recorded as such. `None` derives
    /// `max(4 × longest job, 3600 s)` from the trace.
    pub drain: Option<f64>,
    /// RNG seed for RC-fidelity noise (unused in the clean simulator).
    pub seed: u64,
    /// Scripted capacity faults injected during the run (empty = none).
    pub faults: Vec<FaultEvent>,
    /// Retry policy applied to jobs killed by [`FaultEvent::NodeCrash`] or
    /// [`FaultEvent::TaskKill`].
    pub retry: RetryPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cycle_interval: 2.0,
            drain: None,
            seed: 0x3516,
            faults: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }
}

/// A scripted fault (see [`EngineConfig::faults`]).
///
/// Faults model nodes failing and recovering underneath the scheduler.
/// [`PartitionDown`](FaultEvent::PartitionDown) is *graceful* drain: nodes
/// taken down while busy are *owed*, the loss applied as soon as running
/// jobs release capacity in that partition, so running gangs are never
/// killed (the scheduler simply sees less free capacity). Capacity a
/// scheduling decision reclaims by preemption is fully spendable by that
/// same decision's placements — the owed debt settles only from capacity
/// still free after the decision applies, since the scheduler cannot
/// observe `owed` through [`SimulationView`]. The engine maintains
/// `free + allocated + offline == capacity` per partition at all times.
///
/// [`NodeCrash`](FaultEvent::NodeCrash) and
/// [`TaskKill`](FaultEvent::TaskKill) are *abrupt*: they kill running gangs
/// mid-flight. Killed jobs re-enter the pending queue under the engine's
/// [`RetryPolicy`] (exponential backoff, bounded retry budget, then
/// cancellation), and the scheduler is told via
/// [`Scheduler::on_job_killed`] so predictors can record the truncated run
/// as a censored observation rather than a completion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// `nodes` of `partition` drain gracefully at time `at` (busy nodes are
    /// owed; no gang is killed).
    PartitionDown {
        /// Injection time (simulated seconds).
        at: f64,
        /// Affected partition.
        partition: PartitionId,
        /// Number of nodes lost.
        nodes: u32,
    },
    /// `nodes` of `partition` recover at time `at`. Restoring more nodes
    /// than are currently offline (or owed) is clamped, not an error.
    PartitionUp {
        /// Injection time (simulated seconds).
        at: f64,
        /// Affected partition.
        partition: PartitionId,
        /// Number of nodes restored.
        nodes: u32,
    },
    /// `nodes` of `partition` crash *abruptly* at time `at`: free nodes are
    /// taken offline first, then running gangs holding nodes on the
    /// partition are killed (smallest job id first) until the crash is
    /// covered. Killed jobs follow the retry state machine. Recovery is via
    /// [`PartitionUp`](FaultEvent::PartitionUp).
    NodeCrash {
        /// Injection time (simulated seconds).
        at: f64,
        /// Affected partition.
        partition: PartitionId,
        /// Number of nodes crashing.
        nodes: u32,
    },
    /// The single running job `job` is killed at time `at` (a task-level
    /// failure: the gang dies, its nodes stay healthy and return to the
    /// free pool). A no-op if the job is not running at `at`.
    TaskKill {
        /// Injection time (simulated seconds).
        at: f64,
        /// The job to kill.
        job: JobId,
    },
}

impl FaultEvent {
    /// The fault's injection time.
    ///
    /// Exhaustive on purpose: adding a fault variant must be a compile
    /// error here, not a silently wrong default.
    pub fn at(&self) -> f64 {
        match self {
            FaultEvent::PartitionDown { at, .. } => *at,
            FaultEvent::PartitionUp { at, .. } => *at,
            FaultEvent::NodeCrash { at, .. } => *at,
            FaultEvent::TaskKill { at, .. } => *at,
        }
    }

    /// The fault's target partition; `None` for job-targeted faults.
    ///
    /// Exhaustive on purpose: adding a fault variant must be a compile
    /// error here, not a silently wrong default.
    pub fn partition(&self) -> Option<PartitionId> {
        match self {
            FaultEvent::PartitionDown { partition, .. } => Some(*partition),
            FaultEvent::PartitionUp { partition, .. } => Some(*partition),
            FaultEvent::NodeCrash { partition, .. } => Some(*partition),
            FaultEvent::TaskKill { .. } => None,
        }
    }
}

/// One gang placement: `allocation[i]` nodes taken from each partition;
/// counts must sum to the job's `tasks`.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The pending job to start.
    pub job: JobId,
    /// Nodes per partition.
    pub allocation: Vec<(PartitionId, u32)>,
}

/// What a scheduler returns from one cycle.
#[derive(Debug, Clone, Default)]
pub struct SchedulingDecision {
    /// Pending jobs to start now.
    pub placements: Vec<Placement>,
    /// Running jobs to kill and requeue (work lost).
    pub preemptions: Vec<JobId>,
    /// Pending jobs to abandon permanently (e.g. SLO jobs judged hopeless).
    pub cancellations: Vec<JobId>,
}

impl SchedulingDecision {
    /// A decision that changes nothing.
    pub fn noop() -> Self {
        Self::default()
    }
}

/// A running job as exposed to the scheduler.
#[derive(Debug, Clone)]
pub struct RunningJob<'a> {
    /// The job's spec.
    pub spec: &'a JobSpec,
    /// When its current execution attempt started.
    pub start_time: f64,
    /// Its allocation.
    pub allocation: &'a [(PartitionId, u32)],
}

impl RunningJob<'_> {
    /// Elapsed execution time at `now`.
    pub fn elapsed(&self, now: f64) -> f64 {
        (now - self.start_time).max(0.0)
    }
}

/// Read-only cluster state handed to the scheduler each cycle.
///
/// `pending` exposes full [`JobSpec`]s including the true `duration`;
/// reading `duration` is *oracle* knowledge that only `PointPerfEst`-style
/// baselines may use — honest schedulers must rely on attributes plus their
/// own predictors, as the real system would.
#[derive(Debug)]
pub struct SimulationView<'a> {
    /// Cluster topology.
    pub cluster: &'a ClusterSpec,
    /// Jobs awaiting placement, in arrival order.
    pub pending: Vec<&'a JobSpec>,
    /// Currently running jobs.
    pub running: Vec<RunningJob<'a>>,
    /// Free nodes per partition (indexed by `PartitionId`).
    pub free: &'a [u32],
    /// Current simulated time.
    pub now: f64,
}

impl SimulationView<'_> {
    /// Total free nodes.
    pub fn total_free(&self) -> u32 {
        self.free.iter().sum()
    }
}

/// A scheduler driven by the engine.
pub trait Scheduler {
    /// Called when a job arrives (before the next cycle).
    fn on_job_submitted(&mut self, _spec: &JobSpec, _now: f64) {}

    /// Called when a job completes; `outcome.measured_runtime` is what a
    /// cluster manager would log (and what a predictor should learn from).
    fn on_job_completed(&mut self, _spec: &JobSpec, _outcome: &JobOutcome, _now: f64) {}

    /// Called when a fault kills a running job mid-flight. `elapsed` is the
    /// execution time the attempt had accumulated — a *lower bound* on the
    /// true runtime (a censored observation), never a completed sample;
    /// feeding it to a predictor as a completion would poison its
    /// histories. `will_retry` is false when the retry budget is exhausted
    /// and the job has been cancelled.
    fn on_job_killed(&mut self, _spec: &JobSpec, _elapsed: f64, _will_retry: bool, _now: f64) {}

    /// One scheduling cycle.
    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision;

    /// Largest cluster (in partitions) this scheduler can represent, or
    /// `None` for no limit. The engine rejects over-limit cluster specs at
    /// ingest with [`SimError::ClusterTooLarge`] instead of letting a
    /// scheduler silently truncate or panic on out-of-range partitions.
    fn max_partitions(&self) -> Option<usize> {
        None
    }
}

/// Errors produced by invalid scheduler decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Decision referenced a job that is not pending (placement/cancel) or
    /// not running (preemption).
    BadJobReference {
        /// The offending id.
        job: JobId,
        /// What the decision tried to do.
        action: &'static str,
    },
    /// Allocation node counts do not sum to the job's `tasks`, or reference
    /// an unknown partition.
    BadAllocation {
        /// The offending id.
        job: JobId,
    },
    /// Placements exceed free capacity in a partition.
    OverCapacity {
        /// The saturated partition.
        partition: PartitionId,
    },
    /// The trace contains two jobs with the same id.
    DuplicateJobId {
        /// The repeated id.
        job: JobId,
    },
    /// A job spec is unusable: non-finite/negative submit time or
    /// duration, a zero-task gang, or a non-finite or non-positive
    /// off-preferred slowdown.
    MalformedJobSpec {
        /// The offending id.
        job: JobId,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The cluster spec has more partitions than the scheduler can
    /// represent (see [`Scheduler::max_partitions`]).
    ClusterTooLarge {
        /// Partitions in the cluster spec.
        partitions: usize,
        /// The scheduler's representable maximum.
        max: usize,
    },
    /// A serve-session configuration or snapshot is unusable (see
    /// [`ServeSession`](crate::serve::ServeSession)).
    BadServeConfig {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A streamed job arrived with a submit time earlier than a previously
    /// accepted submission or earlier than the session's current simulated
    /// time. The serve boundary requires time-ordered input.
    OutOfOrderSubmit {
        /// The offending id.
        job: JobId,
    },
    /// A serve-session snapshot was requested while events, pending jobs,
    /// or running jobs were still in flight.
    SnapshotNotQuiescent,
    /// Admission control: the session's bounded queue of non-terminal jobs
    /// is full, so the submission is rejected (typed, echoed on the wire).
    QueueFull {
        /// The rejected id.
        job: JobId,
        /// Non-terminal jobs currently held.
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
    /// Admission control: the submitting tenant already has its quota of
    /// in-flight (non-terminal) jobs.
    TenantQuotaExceeded {
        /// The rejected id.
        job: JobId,
        /// The tenant at quota.
        tenant: String,
        /// The tenant's current in-flight count.
        in_flight: u64,
        /// The configured per-tenant quota.
        quota: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadJobReference { job, action } => {
                write!(f, "decision {action} references job {job:?} in wrong state")
            }
            SimError::BadAllocation { job } => {
                write!(f, "allocation for job {job:?} malformed")
            }
            SimError::OverCapacity { partition } => {
                write!(f, "placements exceed capacity of partition {partition:?}")
            }
            SimError::DuplicateJobId { job } => {
                write!(f, "trace contains job {job:?} more than once")
            }
            SimError::MalformedJobSpec { job, reason } => {
                write!(f, "job {job:?} has a malformed spec: {reason}")
            }
            SimError::ClusterTooLarge { partitions, max } => {
                write!(
                    f,
                    "cluster has {partitions} partitions but the scheduler \
                     represents at most {max}"
                )
            }
            SimError::BadServeConfig { reason } => {
                write!(f, "serve configuration rejected: {reason}")
            }
            SimError::OutOfOrderSubmit { job } => {
                write!(
                    f,
                    "job {job:?} submitted out of order (serve input must be \
                     sorted by submit time)"
                )
            }
            SimError::SnapshotNotQuiescent => {
                write!(
                    f,
                    "snapshot requires a quiescent session (no queued events, \
                     nothing pending, nothing running)"
                )
            }
            SimError::QueueFull { job, depth, limit } => {
                write!(
                    f,
                    "job {job:?} rejected: submit queue full ({depth} \
                     non-terminal jobs at limit {limit})"
                )
            }
            SimError::TenantQuotaExceeded {
                job,
                tenant,
                in_flight,
                quota,
            } => {
                write!(
                    f,
                    "job {job:?} rejected: tenant {tenant:?} has {in_flight} \
                     jobs in flight at quota {quota}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One running attempt as reported in an [`EngineSnapshot`] (ground truth,
/// not the scheduler-facing view).
#[derive(Debug)]
pub struct SnapshotRunning<'a> {
    /// Trace index of the job.
    pub idx: usize,
    /// Start time of the current attempt.
    pub start: f64,
    /// Nodes held per partition.
    pub allocation: &'a [(PartitionId, u32)],
}

/// Ground-truth engine state handed to a [`CycleObserver`] after every
/// scheduling cycle's decision has been validated and applied.
///
/// Unlike [`SimulationView`] (what the scheduler is shown *before* its
/// decision), a snapshot exposes the engine's own bookkeeping — per-job
/// terminal states, fault-offline capacity, and the applied decision — so
/// an external harness can check conservation invariants against the
/// simulator rather than against the component under test.
#[derive(Debug)]
pub struct EngineSnapshot<'a> {
    /// Simulated time of the cycle.
    pub now: f64,
    /// 1-based cycle count so far.
    pub cycles: usize,
    /// Raw partition capacities (constant over the run).
    pub capacity: &'a [u32],
    /// Free nodes per partition.
    pub free: &'a [u32],
    /// Nodes currently offline due to injected faults, per partition.
    pub offline: &'a [u32],
    /// Nodes owed to faults (loss deferred until running jobs release
    /// capacity), per partition.
    pub owed: &'a [u32],
    /// The per-job table in trace order (read through
    /// [`outcomes`](Self::outcomes)).
    pub(crate) jobs: &'a VecDeque<JobRecord<'a>>,
    /// Trace indices of jobs currently queued for placement.
    pub pending: &'a [usize],
    /// Currently running attempts, sorted by trace index.
    pub running: Vec<SnapshotRunning<'a>>,
    /// The scheduling decision that was just applied.
    pub decision: &'a SchedulingDecision,
}

/// Per-cycle summary numbers derived from an [`EngineSnapshot`] — the
/// shape consumed by simtest invariants and per-cycle trace files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleStats {
    /// Simulated time of the cycle.
    pub now: f64,
    /// 1-based cycle count.
    pub cycle: usize,
    /// Jobs queued for placement after the decision applied.
    pub queue_depth: usize,
    /// Jobs running after the decision applied.
    pub running: usize,
    /// Free nodes across all partitions.
    pub free_nodes: u32,
    /// Nodes offline due to injected faults.
    pub offline_nodes: u32,
    /// Nodes owed to faults (loss deferred until jobs release them).
    pub fault_debt_nodes: u32,
    /// Raw cluster capacity (constant over the run).
    pub capacity_nodes: u32,
    /// Allocated fraction of raw capacity, in `[0, 1]`.
    pub utilization: f64,
    /// Placements in this cycle's decision.
    pub placements: usize,
    /// Preemptions in this cycle's decision.
    pub preemptions: usize,
    /// Cancellations in this cycle's decision.
    pub cancellations: usize,
}

impl EngineSnapshot<'_> {
    /// Live per-job records in trace order; `state` is current engine truth
    /// (jobs that have not arrived yet are still `Pending` — compare
    /// `submit_time` with `now`).
    pub fn outcomes(&self) -> impl ExactSizeIterator<Item = &JobOutcome> {
        self.jobs.iter().map(|rec| &rec.outcome)
    }

    /// Summarises the snapshot into per-cycle observability numbers.
    pub fn cycle_stats(&self) -> CycleStats {
        let capacity_nodes: u32 = self.capacity.iter().sum();
        let free_nodes: u32 = self.free.iter().sum();
        let offline_nodes: u32 = self.offline.iter().sum();
        let allocated = capacity_nodes - free_nodes - offline_nodes;
        CycleStats {
            now: self.now,
            cycle: self.cycles,
            queue_depth: self.pending.len(),
            running: self.running.len(),
            free_nodes,
            offline_nodes,
            fault_debt_nodes: self.owed.iter().sum(),
            capacity_nodes,
            utilization: if capacity_nodes == 0 {
                0.0
            } else {
                f64::from(allocated) / f64::from(capacity_nodes)
            },
            placements: self.decision.placements.len(),
            preemptions: self.decision.preemptions.len(),
            cancellations: self.decision.cancellations.len(),
        }
    }
}

/// Per-cycle observer of engine ground truth (the simulation-test hook).
pub trait CycleObserver {
    /// Called after each cycle's decision has been validated and applied.
    fn on_cycle(&mut self, snapshot: &EngineSnapshot<'_>);
}

/// Observer that ignores every snapshot (used by [`Engine::run`]).
struct NoopObserver;

impl CycleObserver for NoopObserver {
    fn on_cycle(&mut self, _snapshot: &EngineSnapshot<'_>) {}
}

/// The discrete-event engine.
#[derive(Debug, Clone)]
pub struct Engine {
    cluster: ClusterSpec,
    config: EngineConfig,
    recorder: Recorder,
}

/// Engine metric handles, registered once per run so the per-cycle path
/// only touches atomics.
struct EngineMetrics {
    cycles: Counter,
    preemptions: Counter,
    placements: Counter,
    cancellations: Counter,
    queue_depth: Gauge,
    running_jobs: Gauge,
    free_nodes: Gauge,
    offline_nodes: Gauge,
    fault_debt_nodes: Gauge,
    utilization: Gauge,
}

impl EngineMetrics {
    fn register(rec: &Recorder) -> Self {
        Self {
            cycles: rec.counter("engine_cycles_total", "Scheduling cycles executed"),
            preemptions: rec.counter("engine_preemptions_total", "Tasks preempted mid-run"),
            placements: rec.counter("engine_placements_total", "Job placements applied"),
            cancellations: rec.counter("engine_cancellations_total", "Jobs cancelled by decision"),
            queue_depth: rec.gauge("engine_queue_depth", "Pending jobs after the last cycle"),
            running_jobs: rec.gauge("engine_running_jobs", "Running jobs after the last cycle"),
            free_nodes: rec.gauge("engine_free_nodes", "Free nodes across all partitions"),
            offline_nodes: rec.gauge("engine_offline_nodes", "Nodes offline due to faults"),
            fault_debt_nodes: rec.gauge(
                "engine_fault_debt_nodes",
                "Nodes owed to faults, pending release",
            ),
            utilization: rec.gauge(
                "engine_utilization",
                "Allocated fraction of raw cluster capacity",
            ),
        }
    }

    fn record(&self, stats: &CycleStats) {
        self.cycles.set_total(stats.cycle as u64);
        self.preemptions.add(stats.preemptions as u64);
        self.placements.add(stats.placements as u64);
        self.cancellations.add(stats.cancellations as u64);
        self.queue_depth.set(stats.queue_depth as f64);
        self.running_jobs.set(stats.running as f64);
        self.free_nodes.set(f64::from(stats.free_nodes));
        self.offline_nodes.set(f64::from(stats.offline_nodes));
        self.fault_debt_nodes.set(f64::from(stats.fault_debt_nodes));
        self.utilization.set(stats.utilization);
    }
}

impl Engine {
    /// Creates an engine over the given cluster.
    ///
    /// # Panics
    ///
    /// Panics if the cycle interval is not positive or a configured fault
    /// references an unknown partition or a non-finite/negative time.
    pub fn new(cluster: ClusterSpec, config: EngineConfig) -> Self {
        if let Some(reason) = config_problem(&cluster, config.cycle_interval, &config.faults) {
            panic!("{reason}");
        }
        Self {
            cluster,
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a metrics recorder; per-cycle counters and gauges are
    /// published through it during [`Engine::run`]. The default recorder is
    /// disabled and records nothing.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs `jobs` against `scheduler` until every job reaches a terminal
    /// state or the drain horizon passes.
    pub fn run(
        &self,
        jobs: &[JobSpec],
        scheduler: &mut dyn Scheduler,
    ) -> Result<Metrics, SimError> {
        self.run_observed(jobs, scheduler, &mut NoopObserver)
    }

    /// Like [`Engine::run`], but hands `observer` an [`EngineSnapshot`] of
    /// engine ground truth after every scheduling cycle.
    ///
    /// This is the batch driver of the simulation core: it queues the whole
    /// trace and the first cycle at t = 0 (cycles then tick every
    /// `cycle_interval` for as long as anything is pending, running or yet
    /// to arrive), steps the core until the horizon, and folds the per-job
    /// table into [`Metrics`].
    pub fn run_observed(
        &self,
        jobs: &[JobSpec],
        scheduler: &mut dyn Scheduler,
        observer: &mut dyn CycleObserver,
    ) -> Result<Metrics, SimError> {
        let metrics = EngineMetrics::register(&self.recorder);
        let mut sim = self.ingest(jobs, scheduler)?;
        // Nothing is placed or offline yet: every node is free.
        let capacity = sim.free.clone();

        let last_arrival = jobs.iter().map(|j| j.submit_time).fold(0.0, f64::max);
        let longest = jobs.iter().map(|j| j.duration).fold(0.0, f64::max);
        let drain = self
            .config
            .drain
            .unwrap_or_else(|| (4.0 * longest).max(3600.0));
        let horizon = last_arrival + drain;

        // The run ends when the queue empties, or at the first event past
        // the horizon — which is not applied, but whose time is the run's
        // reported end.
        let end_time = loop {
            match sim.next_time() {
                None => break sim.now,
                Some(t) if t > horizon => break t,
                Some(_) => {}
            }
            let Some(decision) = sim.step(scheduler)?.decision else {
                continue;
            };
            let mut running: Vec<SnapshotRunning<'_>> = sim
                .running
                .values()
                .map(|r| SnapshotRunning {
                    idx: r.idx,
                    start: r.start,
                    allocation: &r.allocation,
                })
                .collect();
            running.sort_by_key(|r| r.idx);
            let snapshot = EngineSnapshot {
                now: sim.now,
                cycles: sim.cycles,
                capacity: &capacity,
                free: &sim.free,
                offline: &sim.offline,
                owed: &sim.owed,
                jobs: &sim.jobs,
                pending: &sim.pending,
                running,
                decision: &decision,
            };
            metrics.record(&snapshot.cycle_stats());
            observer.on_cycle(&snapshot);
        };

        Ok(Metrics {
            outcomes: sim.jobs.into_iter().map(|rec| rec.outcome).collect(),
            end_time,
            cycles: sim.cycles,
            preemptions: sim.preemptions,
            kills: sim.kills,
            retry_cancellations: sim.retry_cancellations,
            wasted_machine_seconds: sim.wasted,
        })
    }

    /// Ingest stage: validates the trace and the cluster against the
    /// scheduler's representable size, then queues every arrival (a trace
    /// need not be sorted), the fault script and the first cycle. Every
    /// typed rejection that does not depend on a decision happens here,
    /// before any event is processed.
    fn ingest<'a>(
        &self,
        jobs: &'a [JobSpec],
        scheduler: &dyn Scheduler,
    ) -> Result<Sim<'a>, SimError> {
        let parts = self.cluster.num_partitions();
        if let Some(max) = scheduler.max_partitions() {
            if parts > max {
                return Err(SimError::ClusterTooLarge {
                    partitions: parts,
                    max,
                });
            }
        }
        let mut sim = Sim::new(
            self.cluster.clone(),
            self.config.cycle_interval,
            self.config.retry,
            self.config.seed,
        );
        // The trace outlives the run: records borrow their specs from it.
        sim.jobs.reserve_exact(jobs.len());
        for j in jobs {
            sim.push_job(SpecRef::Borrowed(j))?;
            if let Some(reason) = spec_problem(j) {
                return Err(SimError::MalformedJobSpec { job: j.id, reason });
            }
        }
        for fault in &self.config.faults {
            sim.queue_fault(*fault);
        }
        sim.ensure_cycle(0.0);
        Ok(sim)
    }
}

/// Why a job spec is unusable, if it is: non-finite/negative submit time or
/// duration, a zero-task gang, or a non-finite or non-positive off-preferred
/// slowdown (a runtime scale factor). Shared by batch ingest and the serve
/// boundary, so a streamed job is held to exactly the trace contract.
pub(crate) fn spec_problem(j: &JobSpec) -> Option<&'static str> {
    if !j.submit_time.is_finite() || j.submit_time < 0.0 {
        Some("submit time must be finite and non-negative")
    } else if !j.duration.is_finite() || j.duration < 0.0 {
        Some("duration must be finite and non-negative")
    } else if j.tasks == 0 {
        Some("task count must be positive")
    } else if !j.nonpreferred_slowdown.is_finite() || j.nonpreferred_slowdown <= 0.0 {
        Some("non-preferred slowdown must be finite and positive")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use crate::metrics::JobState;
    use crate::sim::retry_tick_eps;
    use crate::spec::RcFidelity;

    /// Greedy FIFO scheduler used to exercise the engine.
    struct Fifo;

    impl Scheduler for Fifo {
        fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
            let mut free = view.free.to_vec();
            let mut placements = Vec::new();
            for job in &view.pending {
                let mut remaining = job.tasks;
                let mut alloc = Vec::new();
                for (p, f) in free.iter_mut().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let take = remaining.min(*f);
                    if take > 0 {
                        alloc.push((PartitionId(p), take));
                        remaining -= take;
                        *f -= take;
                    }
                }
                if remaining == 0 {
                    placements.push(Placement {
                        job: job.id,
                        allocation: alloc,
                    });
                } else {
                    // Roll back tentative take for this job.
                    for (p, n) in alloc {
                        free[p.index()] += n;
                    }
                }
            }
            SchedulingDecision {
                placements,
                ..SchedulingDecision::noop()
            }
        }
    }

    fn be(id: u64, submit: f64, tasks: u32, duration: f64) -> JobSpec {
        JobSpec::new(id, submit, tasks, duration, JobKind::BestEffort)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 2, 100.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.count(JobState::Completed), 1);
        let o = &m.outcomes[0];
        assert_eq!(o.measured_runtime, Some(100.0));
        assert!(o.finish_time.unwrap() >= 100.0);
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        // 4-node cluster; two 4-node jobs must serialise.
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 4, 50.0), be(2, 0.0, 4, 50.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.count(JobState::Completed), 2);
        let f1 = m.outcomes[0].finish_time.unwrap();
        let s2 = m.outcomes[1].start_time.unwrap();
        assert!(s2 >= f1, "second job starts after first finishes");
    }

    #[test]
    fn off_preferred_placement_runs_slower() {
        let engine = Engine::new(ClusterSpec::uniform(2, 2), EngineConfig::default());
        // Preferred partition 0 is fully used by job 1; job 2 prefers
        // partition 0 but FIFO places it on partition 1 → 1.5× runtime.
        let jobs = vec![
            be(1, 0.0, 2, 1000.0),
            be(2, 0.0, 2, 100.0).with_preference(vec![PartitionId(0)], 1.5),
        ];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        let o2 = &m.outcomes[1];
        assert_eq!(o2.measured_runtime, Some(150.0));
        assert_eq!(o2.on_preferred, Some(false));
    }

    #[test]
    fn deadline_bookkeeping() {
        let engine = Engine::new(ClusterSpec::uniform(1, 1), EngineConfig::default());
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::Slo { deadline: 200.0 }),
            JobSpec::new(2, 0.0, 1, 100.0, JobKind::Slo { deadline: 150.0 }),
        ];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        // Job 1 completes ≈ t=102 (first cycle at t=2·k); job 2 serialised
        // after it, finishing ≈ 204 > 150: one miss.
        assert!((m.slo_miss_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unplaceable_job_left_pending_at_horizon() {
        // Job wants 8 nodes, cluster has 4: it can never be placed.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                drain: Some(100.0),
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 8, 10.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.count(JobState::Pending), 1);
        assert_eq!(m.completion_rate(), 0.0);
    }

    #[test]
    fn rc_fidelity_perturbs_runtime_deterministically() {
        let cluster = ClusterSpec::uniform(1, 4).with_rc_fidelity(RcFidelity {
            runtime_jitter_cov: 0.05,
            placement_latency: 2.0,
        });
        let engine = Engine::new(cluster.clone(), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 2, 100.0)];
        let m1 = engine.run(&jobs, &mut Fifo).unwrap();
        let m2 = engine.run(&jobs, &mut Fifo).unwrap();
        let r1 = m1.outcomes[0].measured_runtime.unwrap();
        let r2 = m2.outcomes[0].measured_runtime.unwrap();
        assert_eq!(r1, r2, "same seed → same jitter");
        assert!((r1 - 100.0).abs() > 1e-9, "jitter applied");
        assert!((r1 - 100.0).abs() < 30.0, "jitter bounded");
        // Placement latency delays the start.
        assert!(m1.outcomes[0].start_time.unwrap() >= 2.0);
    }

    #[test]
    fn preemption_requeues_and_invalidates_finish() {
        /// Places the first pending job, then preempts it at t≈10 once.
        struct PreemptOnce {
            preempted: bool,
        }
        impl Scheduler for PreemptOnce {
            fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                if !self.preempted && now >= 10.0 && !view.running.is_empty() {
                    d.preemptions.push(view.running[0].spec.id);
                    self.preempted = true;
                    return d;
                }
                if let Some(job) = view.pending.first() {
                    if view.free[0] >= job.tasks {
                        d.placements.push(Placement {
                            job: job.id,
                            allocation: vec![(PartitionId(0), job.tasks)],
                        });
                    }
                }
                d
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 2, 50.0)];
        let m = engine
            .run(&jobs, &mut PreemptOnce { preempted: false })
            .unwrap();
        let o = &m.outcomes[0];
        assert_eq!(o.preemptions, 1);
        assert_eq!(o.state, JobState::Completed);
        // Work was lost: completion happens after restart + full runtime.
        assert!(o.finish_time.unwrap() > 60.0);
        assert_eq!(m.preemptions, 1);
        // Wasted work ≈ 10 s elapsed × 2 tasks.
        assert!(
            (m.wasted_machine_seconds - 20.0).abs() <= 4.0,
            "wasted {}",
            m.wasted_machine_seconds
        );
    }

    #[test]
    fn invalid_placement_is_an_error() {
        struct Bad;
        impl Scheduler for Bad {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                if let Some(job) = view.pending.first() {
                    d.placements.push(Placement {
                        job: job.id,
                        allocation: vec![(PartitionId(0), job.tasks + 5)],
                    });
                }
                d
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 1, 10.0)];
        let err = engine.run(&jobs, &mut Bad).unwrap_err();
        assert!(matches!(err, SimError::BadAllocation { .. }));
    }

    #[test]
    fn over_capacity_is_an_error() {
        struct Bad;
        impl Scheduler for Bad {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                for job in &view.pending {
                    d.placements.push(Placement {
                        job: job.id,
                        allocation: vec![(PartitionId(0), job.tasks)],
                    });
                }
                d
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 3, 10.0), be(2, 0.0, 3, 10.0)];
        let err = engine.run(&jobs, &mut Bad).unwrap_err();
        assert_eq!(
            err,
            SimError::OverCapacity {
                partition: PartitionId(0)
            }
        );
    }

    #[test]
    fn cancellation_is_terminal() {
        struct CancelAll;
        impl Scheduler for CancelAll {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                SchedulingDecision {
                    cancellations: view.pending.iter().map(|j| j.id).collect(),
                    ..SchedulingDecision::noop()
                }
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![JobSpec::new(
            1,
            0.0,
            1,
            10.0,
            JobKind::Slo { deadline: 100.0 },
        )];
        let m = engine.run(&jobs, &mut CancelAll).unwrap();
        assert_eq!(m.count(JobState::Canceled), 1);
        assert_eq!(m.slo_miss_pct(), 100.0);
    }

    #[test]
    fn gangs_span_partitions() {
        // 3 racks × 2 nodes; a 5-node gang must span racks.
        let engine = Engine::new(ClusterSpec::uniform(3, 2), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 5, 60.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.count(JobState::Completed), 1);
    }

    #[test]
    fn drain_cutoff_freezes_states() {
        // Long job + tiny drain: the run ends with the job still running.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                drain: Some(10.0),
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 1, 1e6)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.count(JobState::Running), 1);
        assert_eq!(m.goodput_hours(), 0.0, "incomplete work is not goodput");
        assert!(m.end_time <= 12.0 + 1e-9);
    }

    #[test]
    fn same_time_finish_frees_capacity_for_same_cycle() {
        // Job 2 arrives exactly when job 1 finishes; the cycle at that
        // timestamp must see the freed capacity (event ordering contract).
        let engine = Engine::new(
            ClusterSpec::uniform(1, 1),
            EngineConfig {
                cycle_interval: 10.0,
                ..EngineConfig::default()
            },
        );
        // Job 1 placed at the t=0 cycle, runs 20 s → finishes exactly at a
        // t=20 cycle boundary. Job 2 arrives at 20 too.
        let jobs = vec![be(1, 0.0, 1, 20.0), be(2, 20.0, 1, 5.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.outcomes[1].start_time, Some(20.0));
    }

    #[test]
    fn preempting_unknown_job_is_an_error() {
        struct BadPreempt;
        impl Scheduler for BadPreempt {
            fn schedule(&mut self, _v: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                SchedulingDecision {
                    preemptions: vec![JobId(999)],
                    ..SchedulingDecision::noop()
                }
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 1), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 1, 5.0)];
        let err = engine.run(&jobs, &mut BadPreempt).unwrap_err();
        assert!(matches!(err, SimError::BadJobReference { .. }));
    }

    #[test]
    fn cancelling_running_job_is_an_error() {
        struct CancelRunning;
        impl Scheduler for CancelRunning {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                if let Some(job) = view.pending.first() {
                    d.placements.push(Placement {
                        job: job.id,
                        allocation: vec![(PartitionId(0), job.tasks)],
                    });
                }
                if let Some(r) = view.running.first() {
                    d.cancellations.push(r.spec.id);
                }
                d
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 2), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 1, 50.0)];
        let err = engine.run(&jobs, &mut CancelRunning).unwrap_err();
        assert!(matches!(
            err,
            SimError::BadJobReference {
                action: "cancel",
                ..
            }
        ));
    }

    #[test]
    fn view_elapsed_tracks_simulation_time() {
        struct CheckElapsed {
            checked: bool,
        }
        impl Scheduler for CheckElapsed {
            fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                if let Some(r) = view.running.first() {
                    if now >= 10.0 && !self.checked {
                        assert!((r.elapsed(now) - (now - r.start_time)).abs() < 1e-9);
                        assert!(r.elapsed(now) >= 8.0);
                        self.checked = true;
                    }
                    return d;
                }
                if let Some(job) = view.pending.first() {
                    d.placements.push(Placement {
                        job: job.id,
                        allocation: vec![(PartitionId(0), job.tasks)],
                    });
                }
                d
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 1), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 1, 30.0)];
        let mut s = CheckElapsed { checked: false };
        engine.run(&jobs, &mut s).unwrap();
        assert!(s.checked);
    }

    #[test]
    fn duplicate_job_ids_are_a_typed_error() {
        let engine = Engine::new(ClusterSpec::uniform(1, 1), EngineConfig::default());
        let jobs = vec![be(7, 0.0, 1, 5.0), be(7, 1.0, 1, 5.0)];
        let err = engine.run(&jobs, &mut Fifo).unwrap_err();
        assert_eq!(err, SimError::DuplicateJobId { job: JobId(7) });
    }

    #[test]
    fn malformed_job_specs_are_a_typed_error() {
        let engine = Engine::new(ClusterSpec::uniform(1, 1), EngineConfig::default());

        let mut nan_submit = be(1, 0.0, 1, 5.0);
        nan_submit.submit_time = f64::NAN;
        let mut negative_duration = be(2, 0.0, 1, 5.0);
        negative_duration.duration = -1.0;
        let mut infinite_duration = be(3, 0.0, 1, 5.0);
        infinite_duration.duration = f64::INFINITY;
        let mut zero_tasks = be(4, 0.0, 1, 5.0);
        zero_tasks.tasks = 0;
        // A trace may carry any slowdown; `with_preference` would refuse these.
        let slowdown = |id, s| {
            let mut j = be(id, 0.0, 1, 5.0);
            j.preferred = Some(vec![PartitionId(0)]);
            j.nonpreferred_slowdown = s;
            j
        };

        for bad in [
            nan_submit,
            negative_duration,
            infinite_duration,
            zero_tasks,
            slowdown(5, 0.0),
            slowdown(6, -1.0),
            slowdown(7, f64::NAN),
            slowdown(8, f64::INFINITY),
        ] {
            let id = bad.id;
            let err = engine.run(&[bad], &mut Fifo).unwrap_err();
            assert!(
                matches!(err, SimError::MalformedJobSpec { job, .. } if job == id),
                "expected MalformedJobSpec for {id:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn recorder_publishes_per_cycle_counters_and_gauges() {
        let recorder = Recorder::enabled();
        let engine = Engine::new(ClusterSpec::uniform(1, 2), EngineConfig::default())
            .with_recorder(recorder.clone());
        let jobs = vec![be(1, 0.0, 1, 5.0), be(2, 0.0, 1, 5.0)];
        let metrics = engine.run(&jobs, &mut Fifo).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter("engine_cycles_total"),
            Some(metrics.cycles as u64)
        );
        assert_eq!(snap.counter("engine_placements_total"), Some(2));
        assert_eq!(snap.gauge("engine_queue_depth"), Some(0.0));
        assert_eq!(snap.gauge("engine_running_jobs"), Some(0.0));
    }

    #[test]
    fn total_free_view_helper() {
        struct Check;
        impl Scheduler for Check {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                assert_eq!(view.total_free(), view.free.iter().sum::<u32>());
                SchedulingDecision::noop()
            }
        }
        let engine = Engine::new(
            ClusterSpec::uniform(2, 3),
            EngineConfig {
                drain: Some(5.0),
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 1, 5.0)];
        engine.run(&jobs, &mut Check).unwrap();
    }

    #[test]
    fn fault_takes_free_capacity_and_restores_it() {
        // 4 nodes; 3 go down at t=5 and come back at t=30. A 4-node job
        // arriving at t=10 cannot start until the recovery.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![
                    FaultEvent::PartitionDown {
                        at: 5.0,
                        partition: PartitionId(0),
                        nodes: 3,
                    },
                    FaultEvent::PartitionUp {
                        at: 30.0,
                        partition: PartitionId(0),
                        nodes: 3,
                    },
                ],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 10.0, 4, 20.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        let o = &m.outcomes[0];
        assert_eq!(o.state, JobState::Completed);
        assert!(
            o.start_time.unwrap() >= 30.0,
            "started at {:?} despite 3 nodes down",
            o.start_time
        );
    }

    #[test]
    fn fault_on_busy_partition_defers_until_jobs_release() {
        // Both nodes busy until t=50; the t=10 down-fault must not kill the
        // running gang, but the released capacity is owed to the fault, so
        // the second job can never start (drain cuts the run off).
        let engine = Engine::new(
            ClusterSpec::uniform(1, 2),
            EngineConfig {
                drain: Some(200.0),
                faults: vec![FaultEvent::PartitionDown {
                    at: 10.0,
                    partition: PartitionId(0),
                    nodes: 2,
                }],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 50.0), be(2, 20.0, 2, 5.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(
            m.outcomes[0].state,
            JobState::Completed,
            "fault kills no gang"
        );
        assert_eq!(
            m.outcomes[1].state,
            JobState::Pending,
            "capacity owed to fault"
        );
    }

    #[test]
    fn preempted_capacity_is_spendable_before_fault_debt_settles() {
        // 2 nodes, all busy; a down-fault at t=5 leaves the partition owing
        // both nodes. At t=10 the scheduler preempts the running gang and
        // places a new one into the reclaimed nodes in the same decision —
        // legal, because `owed` is invisible through SimulationView. The
        // debt settles only once the new gang releases.
        struct Swap;
        impl Scheduler for Swap {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                let wants = view.pending.iter().find(|j| j.id == JobId(2));
                let victim = view.running.iter().find(|r| r.spec.id == JobId(1));
                if let (Some(job), Some(victim)) = (wants, victim) {
                    d.preemptions.push(victim.spec.id);
                    d.placements.push(Placement {
                        job: job.id,
                        allocation: vec![(PartitionId(0), job.tasks)],
                    });
                } else if let Some(job) = view.pending.iter().find(|j| j.id == JobId(1)) {
                    if view.free[0] >= job.tasks {
                        d.placements.push(Placement {
                            job: job.id,
                            allocation: vec![(PartitionId(0), job.tasks)],
                        });
                    }
                }
                d
            }
        }
        let engine = Engine::new(
            ClusterSpec::uniform(1, 2),
            EngineConfig {
                drain: Some(200.0),
                faults: vec![FaultEvent::PartitionDown {
                    at: 5.0,
                    partition: PartitionId(0),
                    nodes: 2,
                }],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 500.0), be(2, 10.0, 2, 5.0)];
        let m = engine.run(&jobs, &mut Swap).unwrap();
        assert_eq!(
            m.outcomes[1].state,
            JobState::Completed,
            "{:?}",
            m.outcomes[1]
        );
        assert_eq!(m.outcomes[0].preemptions, 1);
        // After job 2 released, the owed nodes went offline: job 1 (now
        // pending again) can never restart.
        assert_eq!(m.outcomes[0].state, JobState::Pending);
    }

    #[test]
    fn overlapping_restore_is_clamped() {
        // Restoring more nodes than ever went down must not mint capacity.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 2),
            EngineConfig {
                drain: Some(100.0),
                faults: vec![
                    FaultEvent::PartitionDown {
                        at: 1.0,
                        partition: PartitionId(0),
                        nodes: 1,
                    },
                    FaultEvent::PartitionUp {
                        at: 2.0,
                        partition: PartitionId(0),
                        nodes: 5,
                    },
                ],
                ..EngineConfig::default()
            },
        );
        struct CheckFree;
        impl Scheduler for CheckFree {
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                assert!(view.free[0] <= 2, "free {} exceeds capacity", view.free[0]);
                SchedulingDecision::noop()
            }
        }
        let jobs = vec![be(1, 50.0, 4, 10.0)]; // unplaceable; keeps cycles alive
        engine.run(&jobs, &mut CheckFree).unwrap();
    }

    #[test]
    fn fault_on_unknown_partition_panics() {
        let result = std::panic::catch_unwind(|| {
            Engine::new(
                ClusterSpec::uniform(1, 2),
                EngineConfig {
                    faults: vec![FaultEvent::PartitionDown {
                        at: 0.0,
                        partition: PartitionId(9),
                        nodes: 1,
                    }],
                    ..EngineConfig::default()
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn observer_sees_conserved_capacity_under_faults() {
        struct Conservation {
            cycles_seen: usize,
            last_now: f64,
        }
        impl CycleObserver for Conservation {
            fn on_cycle(&mut self, s: &EngineSnapshot<'_>) {
                assert!(s.now >= self.last_now, "clock went backwards");
                self.last_now = s.now;
                self.cycles_seen += 1;
                let mut allocated = vec![0u32; s.capacity.len()];
                for r in &s.running {
                    for (p, n) in r.allocation {
                        allocated[p.index()] += n;
                    }
                }
                for (p, &alloc) in allocated.iter().enumerate() {
                    assert_eq!(
                        s.free[p] + alloc + s.offline[p],
                        s.capacity[p],
                        "partition {p} capacity leak at t={}",
                        s.now
                    );
                }
            }
        }
        let engine = Engine::new(
            ClusterSpec::uniform(2, 3),
            EngineConfig {
                drain: Some(300.0),
                faults: vec![
                    FaultEvent::PartitionDown {
                        at: 6.0,
                        partition: PartitionId(0),
                        nodes: 2,
                    },
                    FaultEvent::PartitionUp {
                        at: 60.0,
                        partition: PartitionId(0),
                        nodes: 2,
                    },
                ],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![
            be(1, 0.0, 4, 40.0),
            be(2, 5.0, 3, 20.0),
            be(3, 30.0, 2, 10.0),
        ];
        let mut obs = Conservation {
            cycles_seen: 0,
            last_now: 0.0,
        };
        engine.run_observed(&jobs, &mut Fifo, &mut obs).unwrap();
        assert!(
            obs.cycles_seen > 5,
            "observer saw {} cycles",
            obs.cycles_seen
        );
    }

    #[test]
    fn node_crash_kills_running_gang_and_job_retries() {
        // 4 nodes, job 1 holds 2. A 3-node crash at t=10 absorbs the 2 free
        // nodes and must kill the gang for the third. Recovery at t=20
        // restores capacity; the job retries (after its 5 s backoff) and
        // completes on the second attempt.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![
                    FaultEvent::NodeCrash {
                        at: 10.0,
                        partition: PartitionId(0),
                        nodes: 3,
                    },
                    FaultEvent::PartitionUp {
                        at: 20.0,
                        partition: PartitionId(0),
                        nodes: 3,
                    },
                ],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 50.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        let o = &m.outcomes[0];
        assert_eq!(o.state, JobState::Completed, "{o:?}");
        assert_eq!(o.kills, 1);
        assert_eq!(m.kills, 1);
        assert_eq!(m.retry_cancellations, 0);
        assert_eq!(o.start_time, Some(20.0), "retry starts after recovery");
        // Work lost to the kill: 10 s elapsed × 2 tasks.
        assert!((m.wasted_machine_seconds - 20.0).abs() < 1e-9);
    }

    #[test]
    fn node_crash_prefers_free_nodes() {
        // Crash of 2 nodes with 2 free: no gang dies.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![FaultEvent::NodeCrash {
                    at: 10.0,
                    partition: PartitionId(0),
                    nodes: 2,
                }],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 50.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.kills, 0);
        assert_eq!(m.outcomes[0].state, JobState::Completed);
        assert_eq!(m.outcomes[0].kills, 0);
    }

    #[test]
    fn task_kill_requeues_under_backoff() {
        // Kill at t=10 with a 5 s backoff: the job is withheld from the
        // scheduler until t=15 even though capacity is free the whole time,
        // so the retry starts at the t=16 cycle.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![FaultEvent::TaskKill {
                    at: 10.0,
                    job: JobId(1),
                }],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 50.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        let o = &m.outcomes[0];
        assert_eq!(o.state, JobState::Completed);
        assert_eq!(o.kills, 1);
        assert_eq!(o.start_time, Some(16.0), "backoff gates the retry");
        assert!((m.wasted_machine_seconds - 20.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_retry_budget_cancels_the_job() {
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![
                    FaultEvent::TaskKill {
                        at: 10.0,
                        job: JobId(1),
                    },
                    FaultEvent::TaskKill {
                        at: 40.0,
                        job: JobId(1),
                    },
                ],
                retry: RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                },
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 100.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        let o = &m.outcomes[0];
        assert_eq!(o.state, JobState::Canceled, "{o:?}");
        assert_eq!(o.kills, 2);
        assert_eq!(m.kills, 2);
        assert_eq!(m.retry_cancellations, 1);
    }

    #[test]
    fn kill_callback_reports_censored_elapsed() {
        #[derive(Default)]
        struct Observed {
            kills: Vec<(f64, bool)>,
            completions: usize,
        }
        impl Scheduler for Observed {
            fn on_job_killed(&mut self, _s: &JobSpec, elapsed: f64, will_retry: bool, _now: f64) {
                self.kills.push((elapsed, will_retry));
            }
            fn on_job_completed(&mut self, _s: &JobSpec, _o: &JobOutcome, _now: f64) {
                self.completions += 1;
            }
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                if let Some(job) = view.pending.first() {
                    if view.free[0] >= job.tasks {
                        d.placements.push(Placement {
                            job: job.id,
                            allocation: vec![(PartitionId(0), job.tasks)],
                        });
                    }
                }
                d
            }
        }
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![FaultEvent::TaskKill {
                    at: 10.0,
                    job: JobId(1),
                }],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 50.0)];
        let mut s = Observed::default();
        engine.run(&jobs, &mut s).unwrap();
        assert_eq!(s.kills.len(), 1);
        let (elapsed, will_retry) = s.kills[0];
        assert!(
            (elapsed - 10.0).abs() < 1e-9,
            "censored elapsed is the truncated runtime, got {elapsed}"
        );
        assert!(elapsed < 50.0, "a censored sample is a lower bound");
        assert!(will_retry);
        assert_eq!(s.completions, 1, "the retry still completes");
    }

    #[test]
    fn task_kill_on_idle_job_is_a_noop() {
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                faults: vec![FaultEvent::TaskKill {
                    at: 2.5,
                    job: JobId(9),
                }],
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 20.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        assert_eq!(m.kills, 0);
        assert_eq!(m.outcomes[0].state, JobState::Completed);
    }

    #[test]
    fn retry_expiring_exactly_on_tick_repends_that_cycle() {
        // Cycle ticks accumulate `now + 0.1` float drift: the 8th tick is
        // 0.7999999999999999, a few ulps below the exact retry time
        // 0.5 + 0.3 = 0.8. The eligibility gate must tolerate that drift so
        // the retry re-pends on that tick instead of one full cycle later.
        let engine = Engine::new(
            ClusterSpec::uniform(1, 4),
            EngineConfig {
                cycle_interval: 0.1,
                faults: vec![FaultEvent::TaskKill {
                    at: 0.5,
                    job: JobId(1),
                }],
                retry: RetryPolicy {
                    max_retries: 3,
                    backoff_base: 0.3,
                    backoff_cap: 300.0,
                },
                ..EngineConfig::default()
            },
        );
        let jobs = vec![be(1, 0.0, 2, 5.0)];
        let m = engine.run(&jobs, &mut Fifo).unwrap();
        let o = &m.outcomes[0];
        assert_eq!(o.state, JobState::Completed);
        assert_eq!(o.kills, 1);
        let restart = o.start_time.unwrap();
        assert!(
            (restart - 0.8).abs() < 0.05,
            "retry restarted at {restart}, not on the t≈0.8 tick"
        );
    }

    #[test]
    fn retry_eps_is_ulp_aware_at_long_service_horizons() {
        // At now = 2^46 one ulp is ~0.016 s. The old gate scaled a fixed
        // 1e-9 by |now|, yielding a ~7×10^4 s tolerance that made every
        // backoff shorter than ~19 hours eligible immediately. The
        // ulp-aware gate forgives boundary drift (at least 1 ulp) but is
        // capped at a quarter cycle / floored at 64 ulps of now.
        let now = (1u64 << 46) as f64;
        let ulp = f64::EPSILON * now; // exactly 2^-6 at 2^46
        let eps = retry_tick_eps(now, 2.0);
        assert!(eps >= ulp, "on-tick drift must be forgiven: {eps} < {ulp}");
        assert!(
            eps <= 64.0 * ulp + 1e-12,
            "tolerance must not collapse backoffs: {eps}"
        );
        assert!(
            eps < 5.0,
            "a default 5 s backoff must survive the gate: {eps}"
        );
        // Short horizons keep the historical tolerance exactly, so existing
        // traces replay byte-identically.
        assert_eq!(retry_tick_eps(0.8, 0.1), 1e-9);
        assert_eq!(retry_tick_eps(100.0, 2.0), 1e-9 * 100.0);
    }

    #[test]
    fn cluster_beyond_scheduler_limit_is_a_typed_error() {
        /// FIFO with a declared 128-partition representation ceiling.
        struct Capped;
        impl Scheduler for Capped {
            fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
                Fifo.schedule(view, now)
            }
            fn max_partitions(&self) -> Option<usize> {
                Some(128)
            }
        }
        // 127 and 128 partitions are accepted and schedule normally.
        for racks in [127, 128] {
            let engine = Engine::new(ClusterSpec::uniform(racks, 1), EngineConfig::default());
            let jobs = vec![be(1, 0.0, 2, 10.0)];
            let m = engine.run(&jobs, &mut Capped).unwrap();
            assert_eq!(m.count(JobState::Completed), 1, "{racks} racks");
        }
        // 129 partitions are rejected at ingest, before any event runs.
        let engine = Engine::new(ClusterSpec::uniform(129, 1), EngineConfig::default());
        let jobs = vec![be(1, 0.0, 2, 10.0)];
        let err = engine.run(&jobs, &mut Capped).unwrap_err();
        assert_eq!(
            err,
            SimError::ClusterTooLarge {
                partitions: 129,
                max: 128
            }
        );
    }

    #[test]
    fn scheduler_callbacks_fire() {
        #[derive(Default)]
        struct Counting {
            submitted: usize,
            completed: usize,
            observed_runtime: f64,
        }
        impl Scheduler for Counting {
            fn on_job_submitted(&mut self, _spec: &JobSpec, _now: f64) {
                self.submitted += 1;
            }
            fn on_job_completed(&mut self, _spec: &JobSpec, outcome: &JobOutcome, _now: f64) {
                self.completed += 1;
                self.observed_runtime = outcome.measured_runtime.unwrap();
            }
            fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
                let mut d = SchedulingDecision::noop();
                if let Some(job) = view.pending.first() {
                    d.placements.push(Placement {
                        job: job.id,
                        allocation: vec![(PartitionId(0), job.tasks)],
                    });
                }
                d
            }
        }
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let jobs = vec![be(1, 5.0, 1, 42.0)];
        let mut s = Counting::default();
        let m = engine.run(&jobs, &mut s).unwrap();
        assert_eq!(s.submitted, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.observed_runtime, 42.0);
        assert!(m.cycles > 0);
    }
}
