//! Long-running serve session: the streaming driver of the simulation core.
//!
//! [`Engine::run`](crate::Engine::run) is batch-run-to-completion: it holds
//! every job record for the whole run and returns one
//! [`Metrics`](crate::Metrics) at the end. A [`ServeSession`] instead
//! accepts jobs one at a time over an open boundary
//! ([`ServeSession::submit`]), steps the same state machine (`crate::sim`),
//! and keeps memory bounded by **retiring** completed-job state once a
//! configurable retention window has passed. Retired outcomes are folded
//! into running aggregates plus an order-sensitive FNV-1a digest, so two
//! sessions that processed the same stream agree on a single `u64` even
//! after all per-job state is gone.
//!
//! What the session adds to the core is admission (submit order, duplicate
//! ids, gang size, queue and tenant bounds), the pump (`pump_until` /
//! `drain`), retirement, the `serve_*` metrics, and snapshot/restore. A
//! submission that finds the cycle chain dead restarts it at its own
//! submit time, so an idle daemon costs nothing and a new job is offered to
//! the scheduler the moment it arrives.
//!
//! # Determinism and restart equivalence
//!
//! The session is deterministic: the same submissions produce the same
//! decisions, aggregates, and digest. A **quiescent** session (no queued
//! events, nothing pending, nothing running) can be serialized to a
//! [`ServeSnapshot`] and a fresh process can [`ServeSession::restore`] it
//! and continue the stream; the continued session is state-identical to one
//! that never restarted. Quiescence is reached whenever the job stream goes
//! idle long enough for in-flight work to drain — the natural snapshot
//! point for a daemon (the scheduler's own learned state is snapshotted
//! alongside by the caller).
//!
//! # Bounded structures
//!
//! * per-job records (spec, outcome, epoch) — retired after `retention`
//!   seconds past the terminal event (prefix order, so indices stay dense);
//! * the id index — entries removed at retirement (duplicate-id detection
//!   therefore covers live jobs only);
//! * the event queue — holds only in-flight finishes, scripted faults, the
//!   cycle tick, and not-yet-arrived submissions.
//!
//! Every bound is exported as an obs gauge (`serve_live_jobs`,
//! `serve_retired_jobs_total`, `serve_retention_seconds`, …) so saturation
//! is visible in the Prometheus exposition.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use threesigma_obs::{sanitize, Counter, Gauge, Recorder};

use crate::engine::{spec_problem, FaultEvent, Scheduler, SimError};
use crate::job::{JobSpec, RetryPolicy};
use crate::metrics::{JobOutcome, JobState};
use crate::sim::{config_problem, fault_problem, JobRecord, Sim, SpecRef};
use crate::spec::ClusterSpec;

/// Serve-session configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seconds between scheduling cycles.
    pub cycle_interval: f64,
    /// Retry policy for fault-killed jobs.
    pub retry: RetryPolicy,
    /// Seconds a terminal job record is kept before it is retired into the
    /// running aggregates. `f64::INFINITY` disables retirement.
    pub retention: f64,
    /// Scripted capacity faults (empty in production; used by soak and
    /// regression scenarios).
    pub faults: Vec<FaultEvent>,
    /// Admission bound on non-terminal jobs held by the session (queued,
    /// pending, or running). `None` disables the bound. Submissions over
    /// the bound are rejected with [`SimError::QueueFull`].
    pub max_queue: Option<usize>,
    /// Admission bound on non-terminal jobs per tenant (the `tenant` job
    /// attribute; jobs without one are exempt). `None` disables the bound.
    /// Submissions over the bound are rejected with
    /// [`SimError::TenantQuotaExceeded`].
    pub tenant_quota: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cycle_interval: 2.0,
            retry: RetryPolicy::default(),
            retention: 3600.0,
            faults: Vec::new(),
            max_queue: None,
            tenant_quota: None,
        }
    }
}

/// Aggregates folded out of retired job records. Mirrors the formulas of
/// [`Metrics`](crate::Metrics) so a serve summary over a fully retired
/// stream equals the batch metrics over the same trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RetiredAggregate {
    /// Jobs retired.
    pub jobs: u64,
    /// Retired jobs that completed.
    pub completed: u64,
    /// Retired jobs that were cancelled.
    pub canceled: u64,
    /// Retired SLO jobs.
    pub slo_jobs: u64,
    /// Retired SLO jobs that missed their deadline.
    pub slo_misses: u64,
    /// Machine-seconds of SLO work completed within deadline.
    pub slo_goodput_machine_seconds: f64,
    /// Machine-seconds of completed best-effort work.
    pub be_goodput_machine_seconds: f64,
    /// Sum of best-effort response times (completion − submission).
    pub be_latency_sum: f64,
    /// Completed best-effort jobs (denominator for the latency mean).
    pub be_completed: u64,
}

impl RetiredAggregate {
    fn fold(&mut self, o: &JobOutcome) {
        self.jobs += 1;
        match o.state {
            JobState::Completed => self.completed += 1,
            JobState::Canceled => self.canceled += 1,
            // Prefix retirement only removes terminal records.
            JobState::Pending | JobState::Running => {}
        }
        if o.is_slo() {
            self.slo_jobs += 1;
            if o.deadline_met() == Some(false) {
                self.slo_misses += 1;
            }
            if o.deadline_met() == Some(true) {
                self.slo_goodput_machine_seconds += o.machine_seconds();
            }
        } else if o.state == JobState::Completed {
            self.be_goodput_machine_seconds += o.machine_seconds();
            if let Some(lat) = o.latency() {
                self.be_latency_sum += lat;
                self.be_completed += 1;
            }
        }
    }
}

/// Deterministic summary of everything a session has processed: retired
/// aggregates plus the still-live records, combined. Two sessions that
/// consumed the same stream produce identical summaries (including the
/// digest), whether or not one of them snapshotted and restarted in the
/// middle — that is the restart-equivalence contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Simulated time of the last processed event.
    pub now: f64,
    /// Scheduling cycles executed.
    pub cycles: usize,
    /// Jobs accepted over the boundary.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs cancelled (decision or retry exhaustion).
    pub canceled: u64,
    /// Jobs retired out of per-job state.
    pub retired: u64,
    /// Jobs currently live (terminal-but-retained + pending + running).
    pub live: usize,
    /// Fault kills applied.
    pub kills: usize,
    /// Preemptions applied.
    pub preemptions: usize,
    /// Retry-budget cancellations (subset of `canceled`).
    pub retry_cancellations: usize,
    /// Machine-seconds destroyed by kills/preemptions.
    pub wasted_machine_seconds: f64,
    /// Percentage (0–100) of SLO jobs that missed their deadline.
    pub slo_miss_pct: f64,
    /// Goodput (SLO-within-deadline + completed BE), machine-hours.
    pub goodput_hours: f64,
    /// Order-sensitive FNV-1a digest over every job outcome the session has
    /// produced (retired first, then live, in ingest order).
    pub digest: u64,
}

/// Serialized form of a quiescent session. Byte-stable: serializing the
/// same session state always produces identical JSON (all floats are finite
/// and serde_json's shortest-roundtrip formatting is deterministic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Simulated time of the last processed event.
    pub now: f64,
    /// Latest accepted submission time.
    pub last_submit: f64,
    /// Cycles executed so far.
    pub cycles: usize,
    /// Event sequence counter (FIFO tie-break continuity).
    pub seq: u64,
    /// Ingest index of the first live record.
    pub base: usize,
    /// Counters.
    pub submitted: u64,
    /// Completed jobs.
    pub completed: u64,
    /// Placements applied.
    pub placements: u64,
    /// Decision cancellations applied.
    pub cancellations: u64,
    /// Preemptions applied.
    pub preemptions: usize,
    /// Fault kills applied.
    pub kills: usize,
    /// Retry-budget cancellations.
    pub retry_cancellations: usize,
    /// Machine-seconds destroyed by kills/preemptions.
    pub wasted_machine_seconds: f64,
    /// Aggregates of retired records.
    pub retired: RetiredAggregate,
    /// Digest over retired records.
    pub retired_digest: u64,
    /// Free nodes per partition.
    pub free: Vec<u32>,
    /// Fault-offline nodes per partition.
    pub offline: Vec<u32>,
    /// Fault debt per partition.
    pub owed: Vec<u32>,
    /// Live records: `(spec, outcome, epoch)` in ingest order. At
    /// quiescence every live record is terminal (retained, not yet past the
    /// retention window).
    pub live: Vec<(JobSpec, JobOutcome, u32)>,
    /// Every tenant the session has seen, so a restored session
    /// re-registers the same per-tenant in-flight gauges and its metrics
    /// dump stays byte-identical to a never-restarted run. At quiescence
    /// every in-flight count is zero, so only names persist.
    pub tenants: Vec<String>,
}

/// Serve metric handles (all totals published with `set_total`, so a
/// restored session reports stream-lifetime totals, not process totals).
struct ServeMetrics {
    cycles: Counter,
    placements: Counter,
    preemptions: Counter,
    cancellations: Counter,
    kills: Counter,
    retry_cancellations: Counter,
    submitted: Counter,
    completed: Counter,
    retired: Counter,
    live_jobs: Gauge,
    queue_depth: Gauge,
    running_jobs: Gauge,
    free_nodes: Gauge,
    retention: Gauge,
}

impl ServeMetrics {
    fn register(rec: &Recorder) -> Self {
        Self {
            cycles: rec.counter("serve_cycles_total", "Scheduling cycles executed"),
            placements: rec.counter("serve_placements_total", "Job placements applied"),
            preemptions: rec.counter("serve_preemptions_total", "Jobs preempted mid-run"),
            cancellations: rec.counter(
                "serve_cancellations_total",
                "Jobs cancelled by scheduler decision",
            ),
            kills: rec.counter("serve_kills_total", "Running attempts killed by faults"),
            retry_cancellations: rec.counter(
                "serve_retry_cancellations_total",
                "Jobs cancelled after exhausting the retry budget",
            ),
            submitted: rec.counter("serve_jobs_submitted_total", "Jobs accepted for scheduling"),
            completed: rec.counter("serve_jobs_completed_total", "Jobs run to completion"),
            retired: rec.counter(
                "serve_jobs_retired_total",
                "Terminal job records retired into aggregates",
            ),
            live_jobs: rec.gauge(
                "serve_live_jobs",
                "Per-job records currently held (bounded by retention)",
            ),
            queue_depth: rec.gauge("serve_queue_depth", "Pending jobs after the last cycle"),
            running_jobs: rec.gauge("serve_running_jobs", "Running jobs after the last cycle"),
            free_nodes: rec.gauge("serve_free_nodes", "Free nodes across all partitions"),
            retention: rec.gauge(
                "serve_retention_seconds",
                "Configured retention window for terminal job records",
            ),
        }
    }
}

/// A long-running scheduling session over a streaming job boundary.
pub struct ServeSession {
    config: ServeConfig,
    metrics: ServeMetrics,
    // Kept for lazily registering per-tenant in-flight gauges; cheap
    // (Arc-backed) clone of the recorder passed to `new`/`restore`.
    recorder: Recorder,

    /// The cluster state machine this session drives.
    sim: Sim<'static>,
    last_submit: f64,

    // Admission state: non-terminal jobs per tenant. Entries persist at
    // zero once seen, so the per-tenant gauge set (and the byte-stable
    // metrics dump) is a function of the stream, not of restart timing.
    in_flight: BTreeMap<String, u64>,
    tenant_gauges: BTreeMap<String, Gauge>,

    // Counters the core does not keep.
    submitted: u64,
    completed: u64,
    placements_total: u64,
    cancellations_total: u64,

    // Retired state.
    retired: RetiredAggregate,
    retired_digest: u64,
}

impl ServeSession {
    /// Creates a fresh session.
    ///
    /// # Errors
    ///
    /// Rejects non-positive cycle intervals, negative/non-finite retention,
    /// RC-fidelity clusters (their runtime jitter draws would make restarts
    /// depend on RNG replay), and malformed fault scripts — all as typed
    /// [`SimError::BadServeConfig`] values, since a daemon must refuse bad
    /// config instead of panicking.
    pub fn new(
        cluster: ClusterSpec,
        config: ServeConfig,
        recorder: &Recorder,
    ) -> Result<Self, SimError> {
        let mut session = Self::idle(cluster, config, recorder)?;
        for fault in &session.config.faults {
            session.sim.queue_fault(*fault);
        }
        Ok(session)
    }

    /// Validates the configuration and builds a session with nothing
    /// queued, not even the fault script.
    fn idle(
        cluster: ClusterSpec,
        config: ServeConfig,
        recorder: &Recorder,
    ) -> Result<Self, SimError> {
        if let Some(reason) = config_problem(&cluster, config.cycle_interval, &config.faults) {
            return Err(SimError::BadServeConfig { reason });
        }
        if config.retention.is_nan() || config.retention < 0.0 {
            return Err(SimError::BadServeConfig {
                reason: "retention must be non-negative",
            });
        }
        if cluster.rc_fidelity.is_some() {
            return Err(SimError::BadServeConfig {
                reason: "serve sessions do not support RC-fidelity clusters",
            });
        }
        // The seed is never drawn from: jitter is RC-fidelity only.
        let sim = Sim::new(cluster, config.cycle_interval, config.retry, 0);
        Ok(Self {
            metrics: ServeMetrics::register(recorder),
            recorder: recorder.clone(),
            sim,
            last_submit: 0.0,
            in_flight: BTreeMap::new(),
            tenant_gauges: BTreeMap::new(),
            submitted: 0,
            completed: 0,
            placements_total: 0,
            cancellations_total: 0,
            retired: RetiredAggregate::default(),
            retired_digest: FNV_OFFSET,
            config,
        })
    }

    /// Rebuilds a session from a [`ServeSnapshot`] taken by
    /// [`ServeSession::snapshot`]. Scripted faults dated after the snapshot
    /// time are re-queued; earlier ones already acted on the captured
    /// capacity state.
    pub fn restore(
        cluster: ClusterSpec,
        config: ServeConfig,
        recorder: &Recorder,
        snap: &ServeSnapshot,
    ) -> Result<Self, SimError> {
        let mut session = Self::idle(cluster, config, recorder)?;
        let parts = session.sim.cluster.num_partitions();
        if snap.free.len() != parts || snap.offline.len() != parts || snap.owed.len() != parts {
            return Err(SimError::BadServeConfig {
                reason: "snapshot partition count does not match the cluster",
            });
        }
        let sim = &mut session.sim;
        sim.seq = snap.seq;
        for fault in session.config.faults.iter().filter(|f| f.at() > snap.now) {
            sim.queue_fault(*fault);
        }
        sim.now = snap.now;
        sim.cycles = snap.cycles;
        sim.base = snap.base;
        sim.free.copy_from_slice(&snap.free);
        sim.offline.copy_from_slice(&snap.offline);
        sim.owed.copy_from_slice(&snap.owed);
        sim.preemptions = snap.preemptions;
        sim.kills = snap.kills;
        sim.retry_cancellations = snap.retry_cancellations;
        sim.wasted = snap.wasted_machine_seconds;
        for (i, (spec, outcome, epoch)) in snap.live.iter().enumerate() {
            if sim.index_of.insert(spec.id, snap.base + i).is_some() {
                return Err(SimError::BadServeConfig {
                    reason: "snapshot contains duplicate live job ids",
                });
            }
            sim.jobs.push_back(JobRecord {
                spec: SpecRef::Owned(Box::new(spec.clone())),
                outcome: outcome.clone(),
                epoch: *epoch,
            });
        }
        session.last_submit = snap.last_submit;
        session.submitted = snap.submitted;
        session.completed = snap.completed;
        session.placements_total = snap.placements;
        session.cancellations_total = snap.cancellations;
        session.retired = snap.retired;
        session.retired_digest = snap.retired_digest;
        // Re-register every tenant the stream has seen (all at zero: the
        // snapshot was quiescent), so restored gauge sets match a
        // never-restarted run byte for byte.
        for tenant in &snap.tenants {
            session.tenant_gauge(tenant);
            session.in_flight.entry(tenant.clone()).or_insert(0);
        }
        session.publish_gauges();
        Ok(session)
    }

    /// Checks whether a job would be accepted by [`submit`](Self::submit)
    /// right now, without mutating the session. The check is deterministic
    /// (a pure function of session state), so a caller that journals
    /// accepted jobs between `admit` and `submit` replays to the identical
    /// accept/reject sequence. Validation order: spec (including a gang
    /// larger than the whole cluster, which no cycle could ever place and
    /// which would therefore keep the cycle chain — and a `drain` — alive
    /// forever), submit-time order, duplicate id, queue bound, tenant quota.
    ///
    /// # Errors
    ///
    /// The typed rejection `submit` would return.
    pub fn admit(&self, spec: &JobSpec) -> Result<(), SimError> {
        let oversized = spec.tasks > self.sim.cluster.total_nodes();
        let problem =
            spec_problem(spec).or(oversized.then_some("task count exceeds cluster capacity"));
        if let Some(reason) = problem {
            return Err(SimError::MalformedJobSpec {
                job: spec.id,
                reason,
            });
        }
        if spec.submit_time < self.last_submit || spec.submit_time < self.sim.now {
            return Err(SimError::OutOfOrderSubmit { job: spec.id });
        }
        if self.sim.index_of.contains_key(&spec.id) {
            return Err(SimError::DuplicateJobId { job: spec.id });
        }
        if let Some(limit) = self.config.max_queue {
            let depth = self.non_terminal();
            if depth >= limit {
                return Err(SimError::QueueFull {
                    job: spec.id,
                    depth,
                    limit,
                });
            }
        }
        if let Some(quota) = self.config.tenant_quota {
            if let Some(tenant) = spec.attributes.get("tenant") {
                let in_flight = self.in_flight.get(tenant).copied().unwrap_or(0);
                if in_flight >= quota {
                    return Err(SimError::TenantQuotaExceeded {
                        job: spec.id,
                        tenant: tenant.to_owned(),
                        in_flight,
                        quota,
                    });
                }
            }
        }
        Ok(())
    }

    /// Jobs accepted but not yet terminal (queued arrivals + pending +
    /// running + retained records still mid-retry) — the depth the
    /// [`ServeConfig::max_queue`] admission bound applies to.
    pub fn non_terminal(&self) -> usize {
        let terminal =
            self.completed + self.cancellations_total + self.sim.retry_cancellations as u64;
        usize::try_from(self.submitted - terminal).unwrap_or(usize::MAX)
    }

    /// Accepts a job for scheduling. Jobs must arrive in non-decreasing
    /// `submit_time` order, at or after the session's current time; the
    /// arrival itself is processed when the event loop reaches that time
    /// ([`ServeSession::pump_until`]/[`ServeSession::drain`]).
    ///
    /// # Errors
    ///
    /// Any typed rejection from [`admit`](Self::admit): malformed spec,
    /// out-of-order submission, duplicate id, or an admission-control
    /// bound ([`SimError::QueueFull`], [`SimError::TenantQuotaExceeded`]).
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), SimError> {
        self.admit(&spec)?;
        if let Some(tenant) = spec.attributes.get("tenant") {
            let tenant = tenant.to_owned();
            self.tenant_gauge(&tenant);
            let n = self.in_flight.entry(tenant.clone()).or_insert(0);
            *n += 1;
            let v = *n;
            if let Some(g) = self.tenant_gauges.get(&tenant) {
                g.set(v as f64);
            }
        }
        // Revive the cycle chain if it went idle: the first cycle that can
        // see this job runs at its arrival time (arrivals order before
        // cycles at equal timestamps).
        self.sim.ensure_cycle(spec.submit_time);
        self.last_submit = spec.submit_time;
        self.sim.push_job(SpecRef::Owned(Box::new(spec)))?;
        self.submitted += 1;
        Ok(())
    }

    /// Processes every queued event strictly before `limit`. Call with the
    /// next submission's time before submitting it, so simulated time never
    /// runs ahead of the stream.
    pub fn pump_until(
        &mut self,
        limit: f64,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(), SimError> {
        while self.sim.next_time().is_some_and(|t| t < limit) {
            self.advance(scheduler)?;
        }
        Ok(())
    }

    /// Processes queued events until the queue is empty or the next event
    /// lies beyond `horizon`. Returns `true` when the session reached
    /// quiescence (queue empty — which implies nothing pending and nothing
    /// running, since the cycle chain stays alive while work remains).
    pub fn drain(&mut self, horizon: f64, scheduler: &mut dyn Scheduler) -> Result<bool, SimError> {
        while self.sim.next_time().is_some_and(|t| t <= horizon) {
            self.advance(scheduler)?;
        }
        Ok(self.is_quiescent())
    }

    /// Injects a runtime fault into the live session — the serve-boundary
    /// counterpart of scripted [`ServeConfig::faults`]. The fault must
    /// reference a known partition and be dated (finite) at or after the
    /// session's current time; it fires through the normal event loop.
    /// Injected faults are not part of a snapshot (a quiescent session has
    /// no queued events, so every injected fault has already fired), which
    /// is why a durable caller journals them and re-injects on replay.
    ///
    /// # Errors
    ///
    /// [`SimError::BadServeConfig`] for unknown partitions or invalid times.
    pub fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), SimError> {
        let stale = (fault.at() < self.sim.now)
            .then_some("injected fault must be dated at or after the current time");
        if let Some(reason) = fault_problem(&self.sim.cluster, &fault).or(stale) {
            return Err(SimError::BadServeConfig { reason });
        }
        self.sim.queue_fault(fault);
        Ok(())
    }

    /// True when no event is queued, nothing is pending, and nothing runs —
    /// the only state a snapshot may be taken in.
    pub fn is_quiescent(&self) -> bool {
        self.sim.is_idle()
    }

    /// Serializes the session. Fails unless the session
    /// [is quiescent](Self::is_quiescent).
    pub fn snapshot(&self) -> Result<ServeSnapshot, SimError> {
        if !self.is_quiescent() {
            return Err(SimError::SnapshotNotQuiescent);
        }
        let live: Vec<(JobSpec, JobOutcome, u32)> = self
            .sim
            .jobs
            .iter()
            .map(|rec| ((*rec.spec).clone(), rec.outcome.clone(), rec.epoch))
            .collect();
        Ok(ServeSnapshot {
            now: self.sim.now,
            last_submit: self.last_submit,
            cycles: self.sim.cycles,
            seq: self.sim.seq,
            base: self.sim.base,
            submitted: self.submitted,
            completed: self.completed,
            placements: self.placements_total,
            cancellations: self.cancellations_total,
            preemptions: self.sim.preemptions,
            kills: self.sim.kills,
            retry_cancellations: self.sim.retry_cancellations,
            wasted_machine_seconds: self.sim.wasted,
            retired: self.retired,
            retired_digest: self.retired_digest,
            free: self.sim.free.clone(),
            offline: self.sim.offline.clone(),
            owed: self.sim.owed.clone(),
            live,
            tenants: self.in_flight.keys().cloned().collect(),
        })
    }

    /// The deterministic stream summary (retired aggregates + live records).
    pub fn summary(&self) -> ServeSummary {
        let mut agg = self.retired;
        let mut digest = self.retired_digest;
        for o in self.live_outcomes() {
            agg.fold(o);
            digest = fold_outcome(digest, o);
        }
        let canceled = agg.canceled;
        let slo_miss_pct = if agg.slo_jobs == 0 {
            0.0
        } else {
            100.0 * agg.slo_misses as f64 / agg.slo_jobs as f64
        };
        let goodput_hours =
            (agg.slo_goodput_machine_seconds + agg.be_goodput_machine_seconds) / 3600.0;
        ServeSummary {
            now: self.sim.now,
            cycles: self.sim.cycles,
            submitted: self.submitted,
            completed: self.completed,
            canceled,
            retired: self.retired.jobs,
            live: self.sim.jobs.len(),
            kills: self.sim.kills,
            preemptions: self.sim.preemptions,
            retry_cancellations: self.sim.retry_cancellations,
            wasted_machine_seconds: self.sim.wasted,
            slo_miss_pct,
            goodput_hours,
            digest,
        }
    }

    /// Simulated time of the last processed event.
    pub fn now(&self) -> f64 {
        self.sim.now
    }

    /// Scheduling cycles executed so far.
    pub fn cycles(&self) -> usize {
        self.sim.cycles
    }

    /// Per-job records currently held.
    pub fn live_jobs(&self) -> usize {
        self.sim.jobs.len()
    }

    /// Jobs retired into the aggregates.
    pub fn retired_jobs(&self) -> u64 {
        self.retired.jobs
    }

    /// Live job outcomes in ingest order (terminal records awaiting
    /// retirement, plus pending/running jobs mid-stream).
    pub fn live_outcomes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.sim.jobs.iter().map(|rec| &rec.outcome)
    }

    /// Applies the next queued event, then does the session's own
    /// bookkeeping for it: admission counts for every job it made terminal
    /// and, after a cycle, decision totals, retirement and the gauges.
    fn advance(&mut self, scheduler: &mut dyn Scheduler) -> Result<(), SimError> {
        let step = self.sim.step(scheduler)?;
        for idx in step.ended {
            let Some(rec) = self.sim.record(idx) else {
                continue;
            };
            if rec.outcome.state == JobState::Completed {
                self.completed += 1;
            }
            let Some(tenant) = rec.spec.attributes.get("tenant") else {
                continue;
            };
            if let Some(n) = self.in_flight.get_mut(tenant) {
                *n = n.saturating_sub(1);
                if let Some(g) = self.tenant_gauges.get(tenant) {
                    g.set(*n as f64);
                }
            }
        }
        if let Some(decision) = step.decision {
            self.placements_total += decision.placements.len() as u64;
            self.cancellations_total += decision.cancellations.len() as u64;
            self.retire_eligible();
            self.publish_gauges();
        }
        Ok(())
    }

    /// Registers (idempotently) the in-flight gauge for `tenant`.
    fn tenant_gauge(&mut self, tenant: &str) {
        if !self.tenant_gauges.contains_key(tenant) {
            let name = format!("serve_tenant_in_flight_{}", sanitize(tenant));
            let gauge = self
                .recorder
                .gauge(&name, "Non-terminal jobs in flight for one tenant");
            self.tenant_gauges.insert(tenant.to_owned(), gauge);
        }
    }

    /// Retires the terminal prefix of per-job state once its retention
    /// window has passed, folding each record into the aggregates and the
    /// digest chain. Prefix-only retirement keeps ingest indices dense and
    /// preserves the summary's fold order.
    fn retire_eligible(&mut self) {
        if self.config.retention.is_infinite() {
            return;
        }
        let cutoff = self.sim.now - self.config.retention;
        while let Some(front) = self.sim.jobs.front().map(|rec| &rec.outcome) {
            let terminal = matches!(front.state, JobState::Completed | JobState::Canceled);
            // Cancelled records have no finish time; their submit time is a
            // conservative (earlier) stand-in, so they retire no later than
            // a completion would.
            let done_at = front.finish_time.unwrap_or(front.submit_time);
            if !terminal || done_at > cutoff {
                break;
            }
            let Some(rec) = self.sim.pop_front() else {
                break;
            };
            self.retired.fold(&rec.outcome);
            self.retired_digest = fold_outcome(self.retired_digest, &rec.outcome);
        }
    }

    fn publish_gauges(&self) {
        let m = &self.metrics;
        m.cycles.set_total(self.sim.cycles as u64);
        m.placements.set_total(self.placements_total);
        m.preemptions.set_total(self.sim.preemptions as u64);
        m.cancellations.set_total(self.cancellations_total);
        m.kills.set_total(self.sim.kills as u64);
        m.retry_cancellations
            .set_total(self.sim.retry_cancellations as u64);
        m.submitted.set_total(self.submitted);
        m.completed.set_total(self.completed);
        m.retired.set_total(self.retired.jobs);
        m.live_jobs.set(self.sim.jobs.len() as f64);
        m.queue_depth.set(self.sim.pending.len() as f64);
        m.running_jobs.set(self.sim.running.len() as f64);
        m.free_nodes
            .set(f64::from(self.sim.free.iter().sum::<u32>()));
        m.retention.set(self.config.retention);
        for (tenant, n) in &self.in_flight {
            if let Some(g) = self.tenant_gauges.get(tenant) {
                g.set(*n as f64);
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fold_bytes(h, &v.to_le_bytes())
}

fn fold_f64_opt(h: u64, v: Option<f64>) -> u64 {
    match v {
        None => fold_u64(h, 0),
        Some(x) => fold_u64(fold_u64(h, 1), x.to_bits()),
    }
}

/// Folds one outcome into the digest chain: every field, bit-exact, in a
/// fixed order. Two streams agree on the digest iff they produced the same
/// outcomes in the same ingest order.
fn fold_outcome(mut h: u64, o: &JobOutcome) -> u64 {
    h = fold_u64(h, o.id.0);
    h = match o.kind.deadline() {
        None => fold_u64(h, 0),
        Some(d) => fold_u64(fold_u64(h, 1), d.to_bits()),
    };
    h = fold_u64(h, o.submit_time.to_bits());
    h = fold_u64(h, u64::from(o.tasks));
    h = fold_u64(
        h,
        match o.state {
            JobState::Pending => 0,
            JobState::Running => 1,
            JobState::Completed => 2,
            JobState::Canceled => 3,
        },
    );
    h = fold_f64_opt(h, o.start_time);
    h = fold_f64_opt(h, o.finish_time);
    h = fold_f64_opt(h, o.measured_runtime);
    h = fold_u64(h, u64::from(o.preemptions));
    h = fold_u64(h, u64::from(o.kills));
    h = fold_u64(
        h,
        match o.on_preferred {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
    );
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, Placement, SchedulingDecision, SimulationView};
    use crate::job::{JobId, JobKind};
    use crate::spec::{PartitionId, RcFidelity};
    use proptest::prelude::*;

    /// Greedy FIFO placement in pending order (mirrors the engine test
    /// double). With `preempt`, an SLO job that does not fit also evicts the
    /// highest-id running best-effort job, to be placed on a later cycle.
    fn fifo_decision(view: &SimulationView<'_>, preempt: bool) -> SchedulingDecision {
        let mut free = view.free.to_vec();
        let mut decision = SchedulingDecision::noop();
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
                decision.placements.push(Placement {
                    job: job.id,
                    allocation: alloc,
                });
                continue;
            }
            for (p, n) in alloc {
                free[p.index()] += n;
            }
            if preempt && job.kind.deadline().is_some() {
                let victim =
                    view.running.iter().rev().map(|r| r.spec).find(|s| {
                        s.kind.deadline().is_none() && !decision.preemptions.contains(&s.id)
                    });
                decision.preemptions.extend(victim.map(|s| s.id));
            }
        }
        decision
    }

    struct Fifo;

    impl Scheduler for Fifo {
        fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
            fifo_decision(view, false)
        }
    }

    /// [`Fifo`] that preempts best-effort work for SLO jobs.
    struct SloFirst;

    impl Scheduler for SloFirst {
        fn schedule(&mut self, view: &SimulationView<'_>, _now: f64) -> SchedulingDecision {
            fifo_decision(view, true)
        }
    }

    fn be(id: u64, submit: f64, tasks: u32, duration: f64) -> JobSpec {
        JobSpec::new(id, submit, tasks, duration, JobKind::BestEffort)
    }

    fn slo(id: u64, submit: f64, tasks: u32, duration: f64, deadline: f64) -> JobSpec {
        JobSpec::new(id, submit, tasks, duration, JobKind::Slo { deadline })
    }

    fn config(retention: f64, faults: Vec<FaultEvent>) -> ServeConfig {
        ServeConfig {
            retention,
            faults,
            ..ServeConfig::default()
        }
    }

    fn mixed_trace() -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for i in 0..40u64 {
            let t = i as f64 * 7.0;
            if i % 3 == 0 {
                jobs.push(slo(i + 1, t, 2, 30.0, t + 90.0));
            } else {
                jobs.push(be(i + 1, t, 1, 20.0));
            }
        }
        jobs
    }

    /// The equivalence oracle. With the whole (sorted, first arrival at
    /// t = 0) trace submitted up front and drained to the batch horizon, a
    /// session is event-for-event the batch engine: same arrival queue,
    /// same cycle chain, same fault ordering. Returns the drained session.
    fn assert_session_matches_batch<S: Scheduler>(
        jobs: &[JobSpec],
        faults: Vec<FaultEvent>,
        scheduler: impl Fn() -> S,
    ) -> ServeSession {
        const DRAIN: f64 = 3600.0;
        let engine = Engine::new(
            ClusterSpec::uniform(2, 4),
            EngineConfig {
                faults: faults.clone(),
                drain: Some(DRAIN),
                ..EngineConfig::default()
            },
        );
        let batch = engine.run(jobs, &mut scheduler()).unwrap();

        let rec = Recorder::enabled();
        let mut session = ServeSession::new(
            ClusterSpec::uniform(2, 4),
            config(f64::INFINITY, faults),
            &rec,
        )
        .unwrap();
        for j in jobs {
            session.submit(j.clone()).unwrap();
        }
        let last_arrival = jobs.iter().map(|j| j.submit_time).fold(0.0, f64::max);
        session
            .drain(last_arrival + DRAIN, &mut scheduler())
            .unwrap();

        let live: Vec<JobOutcome> = session.live_outcomes().cloned().collect();
        assert_eq!(live.len(), batch.outcomes.len());
        for (s, b) in live.iter().zip(batch.outcomes.iter()) {
            assert_eq!(s, b, "serve and batch outcomes diverged for {:?}", s.id);
        }
        assert_eq!(session.cycles(), batch.cycles);
        let summary = session.summary();
        assert_eq!(summary.kills, batch.kills);
        assert_eq!(summary.preemptions, batch.preemptions);
        assert_eq!(summary.retry_cancellations, batch.retry_cancellations);
        assert_eq!(summary.wasted_machine_seconds, batch.wasted_machine_seconds);
        session
    }

    #[test]
    fn streaming_session_matches_batch_engine() {
        let faults = vec![
            FaultEvent::NodeCrash {
                at: 31.0,
                partition: PartitionId(0),
                nodes: 3,
            },
            FaultEvent::PartitionUp {
                at: 61.0,
                partition: PartitionId(0),
                nodes: 3,
            },
            FaultEvent::TaskKill {
                at: 45.0,
                job: JobId(7),
            },
        ];
        let session = assert_session_matches_batch(&mixed_trace(), faults, || Fifo);
        assert!(session.is_quiescent());
        assert!(session.summary().kills > 0);
    }

    proptest! {
        /// The oracle over random traces: mixed BE/SLO gangs that fit the
        /// 8-node cluster, and random crash / task-kill / drain-and-restore
        /// scripts, under a scheduler that also preempts.
        #[test]
        fn random_streams_match_the_batch_engine(
            n in 1usize..40,
            gaps in prop::collection::vec(0.0f64..15.0, 40),
            tasks in prop::collection::vec(1u32..9, 40),
            durations in prop::collection::vec(1.0f64..60.0, 40),
            slack in prop::collection::vec(0.0f64..4.0, 40),
            fault_kinds in prop::collection::vec(0u8..3, 0..6),
            fault_times in prop::collection::vec(0.0f64..300.0, 6),
            fault_nodes in prop::collection::vec(1u32..5, 6),
            fault_targets in prop::collection::vec(0u64..40, 6),
        ) {
            let mut t = 0.0;
            let jobs: Vec<JobSpec> = (0..n)
                .map(|i| {
                    if i > 0 {
                        t += gaps[i];
                    }
                    // Slack below 1 makes a best-effort job; the rest are
                    // SLO jobs with that multiple of their runtime to spare.
                    if slack[i] < 1.0 {
                        be(i as u64 + 1, t, tasks[i], durations[i])
                    } else {
                        let deadline = t + slack[i] * durations[i];
                        slo(i as u64 + 1, t, tasks[i], durations[i], deadline)
                    }
                })
                .collect();
            let mut faults = Vec::new();
            for (i, kind) in fault_kinds.iter().enumerate() {
                let (at, nodes) = (fault_times[i], fault_nodes[i]);
                let partition = PartitionId(fault_targets[i] as usize % 2);
                match kind {
                    0 => faults.push(FaultEvent::NodeCrash { at, partition, nodes }),
                    1 => faults.push(FaultEvent::TaskKill {
                        at,
                        job: JobId(fault_targets[i] % n as u64 + 1),
                    }),
                    _ => {
                        faults.push(FaultEvent::PartitionDown { at, partition, nodes });
                        faults.push(FaultEvent::PartitionUp {
                            at: at + 40.0,
                            partition,
                            nodes,
                        });
                    }
                }
            }
            assert_session_matches_batch(&jobs, faults, || SloFirst);
        }
    }

    /// The one deliberate phase difference between the drivers: a batch run
    /// ticks from t = 0, so a lone job arriving between ticks waits for the
    /// next one; a session restarts its dead cycle chain at the submit time.
    #[test]
    fn batch_ticks_from_zero_but_a_session_revives_at_the_submit_time() {
        let job = be(1, 3.5, 1, 10.0);
        let engine = Engine::new(ClusterSpec::uniform(1, 4), EngineConfig::default());
        let batch = engine.run(std::slice::from_ref(&job), &mut Fifo).unwrap();
        assert_eq!(batch.outcomes[0].start_time, Some(4.0));

        let rec = Recorder::enabled();
        let mut session =
            ServeSession::new(ClusterSpec::uniform(1, 4), ServeConfig::default(), &rec).unwrap();
        session.submit(job).unwrap();
        assert!(session.drain(f64::INFINITY, &mut Fifo).unwrap());
        let o = session.live_outcomes().next().unwrap();
        assert_eq!(o.start_time, Some(3.5));
    }

    /// A gang larger than the whole cluster can never be placed, so a
    /// session that took it in would keep its cycle chain alive forever and
    /// `drain(∞)` would never return; admission refuses it instead.
    #[test]
    fn oversized_gang_is_rejected_at_admission() {
        let rec = Recorder::enabled();
        let mut session =
            ServeSession::new(ClusterSpec::uniform(2, 4), ServeConfig::default(), &rec).unwrap();
        assert_eq!(
            session.submit(be(1, 0.0, 9, 5.0)),
            Err(SimError::MalformedJobSpec {
                job: JobId(1),
                reason: "task count exceeds cluster capacity",
            })
        );
        session.submit(be(2, 0.0, 8, 5.0)).unwrap();
        assert!(session.drain(f64::INFINITY, &mut Fifo).unwrap());
        assert_eq!(session.summary().completed, 1);
    }

    /// The finish event of a killed attempt can outlive its record: the job
    /// is cancelled on an exhausted retry budget and retired while the event
    /// is still queued. It must be dropped as stale, not looked up.
    #[test]
    fn stale_finish_of_a_retired_job_is_ignored() {
        let cfg = ServeConfig {
            retention: 5.0,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            faults: vec![FaultEvent::TaskKill {
                at: 10.0,
                job: JobId(1),
            }],
            ..ServeConfig::default()
        };
        let rec = Recorder::enabled();
        let mut session = ServeSession::new(ClusterSpec::uniform(1, 4), cfg, &rec).unwrap();
        session.submit(be(1, 0.0, 2, 1000.0)).unwrap();
        // Keeps the cycle chain (and with it retirement) going past the kill.
        session.submit(be(2, 0.0, 1, 30.0)).unwrap();
        assert!(session.drain(f64::INFINITY, &mut Fifo).unwrap());
        assert_eq!(session.now(), 1000.0, "the stale finish was reached");
        let summary = session.summary();
        assert_eq!((summary.completed, summary.canceled), (1, 1));
        assert!(session.retired_jobs() >= 1);
    }

    /// Retirement bounds live per-job state without changing the stream
    /// summary: a short-retention session plateaus well below the total job
    /// count yet agrees digest-for-digest with an unbounded one.
    #[test]
    fn retirement_bounds_live_state_and_preserves_the_digest() {
        let jobs = mixed_trace();

        let run = |retention: f64| {
            let rec = Recorder::enabled();
            let mut session =
                ServeSession::new(ClusterSpec::uniform(2, 4), config(retention, vec![]), &rec)
                    .unwrap();
            let mut peak_live = 0usize;
            for j in &jobs {
                session.pump_until(j.submit_time, &mut Fifo).unwrap();
                session.submit(j.clone()).unwrap();
                peak_live = peak_live.max(session.live_jobs());
            }
            assert!(session.drain(f64::INFINITY, &mut Fifo).unwrap());
            let gauge_live = rec.snapshot().gauge("serve_live_jobs").unwrap();
            assert_eq!(gauge_live as usize, session.live_jobs());
            (session.summary(), peak_live, session.retired_jobs())
        };

        let (unbounded, unbounded_peak, unbounded_retired) = run(f64::INFINITY);
        let (bounded, bounded_peak, bounded_retired) = run(40.0);

        assert_eq!(unbounded_retired, 0);
        assert_eq!(unbounded_peak, jobs.len());
        assert!(
            bounded_peak < jobs.len() / 2,
            "short retention must bound live state (peak {bounded_peak} of {})",
            jobs.len()
        );
        assert!(bounded_retired > 0);
        // The stream summary — including the order-sensitive digest — is
        // identical: retirement folds records in ingest order, exactly as
        // summary() does. Only the live/retired bookkeeping split differs.
        let normalize = |mut s: ServeSummary| {
            s.retired = 0;
            s.live = 0;
            s
        };
        assert_eq!(normalize(unbounded), normalize(bounded));
    }

    /// Snapshot at quiescence, restore in a "new process", continue the
    /// stream: state-identical to a session that never restarted, and the
    /// snapshot serialization is byte-stable and roundtrip-exact.
    #[test]
    fn snapshot_restart_is_equivalent_to_an_uninterrupted_run() {
        let cluster = || ClusterSpec::uniform(2, 4);
        let cfg = || config(50.0, vec![]);
        let part_a: Vec<JobSpec> = (0..20u64)
            .map(|i| be(i + 1, i as f64 * 5.0, 2, 15.0))
            .collect();
        // Idle gap: part B starts long after part A drains.
        let part_b: Vec<JobSpec> = (0..20u64)
            .map(|i| be(100 + i, 500.0 + i as f64 * 5.0, 2, 15.0))
            .collect();

        // Straight-through run.
        let rec = Recorder::enabled();
        let mut straight = ServeSession::new(cluster(), cfg(), &rec).unwrap();
        for j in part_a.iter().chain(part_b.iter()) {
            straight.pump_until(j.submit_time, &mut Fifo).unwrap();
            straight.submit(j.clone()).unwrap();
        }
        assert!(straight.drain(f64::INFINITY, &mut Fifo).unwrap());

        // Interrupted run: drain part A, snapshot, "restart", stream part B.
        let rec1 = Recorder::enabled();
        let mut first = ServeSession::new(cluster(), cfg(), &rec1).unwrap();
        for j in &part_a {
            first.pump_until(j.submit_time, &mut Fifo).unwrap();
            first.submit(j.clone()).unwrap();
        }
        assert!(first.drain(f64::INFINITY, &mut Fifo).unwrap());
        let snap = first.snapshot().unwrap();

        // Byte-stable: serializing the same state twice is identical, and a
        // restored session re-snapshots to the same bytes.
        let bytes1 = serde_json::to_string(&snap).unwrap();
        let bytes2 = serde_json::to_string(&first.snapshot().unwrap()).unwrap();
        assert_eq!(bytes1, bytes2);

        let decoded: ServeSnapshot = serde_json::from_str(&bytes1).unwrap();
        let rec2 = Recorder::enabled();
        let mut second = ServeSession::restore(cluster(), cfg(), &rec2, &decoded).unwrap();
        assert_eq!(
            serde_json::to_string(&second.snapshot().unwrap()).unwrap(),
            bytes1,
            "restore → snapshot must reproduce the original bytes"
        );
        for j in &part_b {
            second.pump_until(j.submit_time, &mut Fifo).unwrap();
            second.submit(j.clone()).unwrap();
        }
        assert!(second.drain(f64::INFINITY, &mut Fifo).unwrap());

        let a = straight.summary();
        let b = second.summary();
        assert_eq!(a, b, "restarted stream must match the uninterrupted one");
        assert!(a.digest != FNV_OFFSET, "digest must have folded outcomes");
    }

    /// Satellite regression: at service horizons around 2^46 simulated
    /// seconds, the old fixed retry tolerance (1e-6) was smaller than one
    /// f64 ulp, so a backoff expiring between cycles was withheld for extra
    /// cycles. The ulp-aware tolerance admits the retry on the first cycle
    /// within 64 ulps (here 1.0 s) of expiry.
    #[test]
    fn huge_now_backoff_is_not_skipped_for_extra_cycles() {
        let t0 = (1u64 << 46) as f64; // ulp = 2^-6 s; 64 ulps = 1.0 s
        let cfg = ServeConfig {
            faults: vec![FaultEvent::TaskKill {
                at: t0 + 10.0,
                job: JobId(1),
            }],
            ..ServeConfig::default()
        };
        let rec = Recorder::enabled();
        let mut session = ServeSession::new(ClusterSpec::uniform(1, 4), cfg, &rec).unwrap();
        session.submit(be(1, t0, 2, 50.0)).unwrap();
        assert!(session.drain(f64::INFINITY, &mut Fifo).unwrap());

        let o = session.live_outcomes().next().unwrap().clone();
        assert_eq!(o.state, JobState::Completed);
        assert_eq!(o.kills, 1);
        // Kill at t0+10 ⇒ retry_at = t0+15 (5 s backoff). Cycles tick at
        // t0+2k; eps = 64 ulps = 1.0 s, so the retry is admitted at t0+14.
        // The old fixed 1e-6 tolerance (≪ one ulp here) delayed it to t0+16.
        assert_eq!(o.start_time, Some(t0 + 14.0));
        assert_eq!(o.finish_time, Some(t0 + 64.0));
    }

    #[test]
    fn out_of_order_and_duplicate_submissions_are_typed_errors() {
        let rec = Recorder::enabled();
        let mut session =
            ServeSession::new(ClusterSpec::uniform(1, 4), ServeConfig::default(), &rec).unwrap();
        session.submit(be(1, 10.0, 1, 5.0)).unwrap();
        assert_eq!(
            session.submit(be(2, 9.0, 1, 5.0)),
            Err(SimError::OutOfOrderSubmit { job: JobId(2) })
        );
        assert_eq!(
            session.submit(be(1, 11.0, 1, 5.0)),
            Err(SimError::DuplicateJobId { job: JobId(1) })
        );
        // Malformed specs are rejected before entering the session.
        let mut bad = be(3, 12.0, 1, 5.0);
        bad.duration = f64::NAN;
        assert!(matches!(
            session.submit(bad),
            Err(SimError::MalformedJobSpec { job: JobId(3), .. })
        ));
    }

    #[test]
    fn snapshot_requires_quiescence() {
        let rec = Recorder::enabled();
        let mut session =
            ServeSession::new(ClusterSpec::uniform(1, 4), ServeConfig::default(), &rec).unwrap();
        session.submit(be(1, 0.0, 1, 100.0)).unwrap();
        session.pump_until(50.0, &mut Fifo).unwrap();
        assert!(!session.is_quiescent());
        assert_eq!(
            session.snapshot().unwrap_err(),
            SimError::SnapshotNotQuiescent
        );
        assert!(session.drain(f64::INFINITY, &mut Fifo).unwrap());
        assert!(session.snapshot().is_ok());
    }

    #[test]
    fn serve_rejects_rc_fidelity_and_bad_config() {
        let rec = Recorder::enabled();
        let rc = ClusterSpec::uniform(1, 4).with_rc_fidelity(RcFidelity::default());
        assert!(matches!(
            ServeSession::new(rc, ServeConfig::default(), &rec),
            Err(SimError::BadServeConfig { .. })
        ));
        let bad_retention = ServeConfig {
            retention: -1.0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeSession::new(ClusterSpec::uniform(1, 4), bad_retention, &rec),
            Err(SimError::BadServeConfig { .. })
        ));
        let bad_fault = ServeConfig {
            faults: vec![FaultEvent::PartitionDown {
                at: 1.0,
                partition: PartitionId(9),
                nodes: 1,
            }],
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeSession::new(ClusterSpec::uniform(1, 4), bad_fault, &rec),
            Err(SimError::BadServeConfig { .. })
        ));
    }

    /// `pump_until` is strictly exclusive of its limit so a cycle at
    /// exactly a new job's submit time still sees the arrival.
    #[test]
    fn pump_until_is_exclusive_of_the_limit() {
        let rec = Recorder::enabled();
        let mut session =
            ServeSession::new(ClusterSpec::uniform(1, 4), ServeConfig::default(), &rec).unwrap();
        session.submit(be(1, 5.0, 1, 10.0)).unwrap();
        session.pump_until(5.0, &mut Fifo).unwrap();
        assert_eq!(session.now(), 0.0, "events at the limit stay queued");
        session.pump_until(6.0, &mut Fifo).unwrap();
        assert!(session.now() >= 5.0);
    }
}
