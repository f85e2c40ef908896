//! The simulation core: one owned cluster state machine.
//!
//! [`Sim`] owns everything a run mutates — per-partition capacity, the
//! event queue, the per-job table, the pending and running sets, the retry
//! backoffs and the kill/preempt/waste counters — and its methods are the
//! only implementation of the four event kinds (arrival, finish, fault,
//! cycle), of the two stages of a cycle (`decide`, `commit`) and of the
//! capacity bookkeeping under them (`release`, `kill_attempt`). It
//! registers no metrics and knows nothing of admission, retirement or
//! observers: those belong to its two drivers,
//! [`Engine::run_observed`](crate::Engine::run_observed) (a whole trace,
//! run to a horizon) and [`ServeSession`](crate::ServeSession) (an open
//! stream with bounded memory), which queue work, call [`Sim::step`] and
//! read the state back.
//!
//! Per-job records live in one table indexed by *ingest index* − `base`;
//! `base` is the ingest index of the first record still held, so a driver
//! may drop a terminal prefix ([`Sim::pop_front`]) without renumbering
//! anything the queue, `pending` or `running` refer to.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Deref;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::{
    FaultEvent, RunningJob, Scheduler, SchedulingDecision, SimError, SimulationView,
};
use crate::job::{JobId, JobSpec, RetryPolicy};
use crate::metrics::{JobOutcome, JobState};
use crate::spec::{ClusterSpec, PartitionId};

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Finish { job: usize, epoch: u32 },
    Fault { fault: FaultEvent },
    Arrival { job: usize },
    Cycle,
}

// Same-time ordering classes, one per event kind: finishes before faults
// before arrivals before cycles, so a cycle sees freed capacity and fresh
// arrivals.
const FINISH: u8 = 0;
const FAULT: u8 = 1;
const ARRIVAL: u8 = 2;
const CYCLE: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    class: u8,
    /// FIFO tie-break among same-time events of one class.
    seq: u64,
    kind: EventKind,
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.class.cmp(&self.class))
            .then(other.seq.cmp(&self.seq))
    }
}

/// One running attempt.
#[derive(Debug)]
pub(crate) struct Running {
    pub(crate) idx: usize,
    epoch: u32,
    pub(crate) start: f64,
    pub(crate) allocation: Vec<(PartitionId, u32)>,
    measured_runtime: f64,
    on_preferred: bool,
}

/// A record's spec: borrowed from the caller's trace in a batch run, boxed
/// in a serve session. Two words, where a `Cow` carried a whole `JobSpec`
/// inline even when it only borrowed one.
#[derive(Debug)]
pub(crate) enum SpecRef<'a> {
    Borrowed(&'a JobSpec),
    Owned(Box<JobSpec>),
}

impl Deref for SpecRef<'_> {
    type Target = JobSpec;

    fn deref(&self) -> &JobSpec {
        match self {
            SpecRef::Borrowed(spec) => spec,
            SpecRef::Owned(spec) => spec,
        }
    }
}

/// One row of the per-job table.
#[derive(Debug)]
pub(crate) struct JobRecord<'a> {
    pub(crate) spec: SpecRef<'a>,
    pub(crate) outcome: JobOutcome,
    /// Bumped whenever an attempt starts or dies, so the finish event of a
    /// preempted or killed attempt no longer matches.
    pub(crate) epoch: u32,
}

impl<'a> JobRecord<'a> {
    /// A fresh (pre-arrival) record.
    fn new(spec: SpecRef<'a>) -> Self {
        let outcome = JobOutcome {
            id: spec.id,
            kind: spec.kind,
            submit_time: spec.submit_time,
            tasks: spec.tasks,
            state: JobState::Pending,
            start_time: None,
            finish_time: None,
            measured_runtime: None,
            preemptions: 0,
            kills: 0,
            on_preferred: None,
        };
        Self {
            spec,
            outcome,
            epoch: 0,
        }
    }
}

/// What one [`Sim::step`] did, for the driver's own bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct Step {
    /// Ingest indices of the jobs the event made terminal (completed,
    /// cancelled by decision, or cancelled on an exhausted retry budget).
    pub(crate) ended: Vec<usize>,
    /// The decision a cycle validated and applied; `None` for every other
    /// event.
    pub(crate) decision: Option<SchedulingDecision>,
}

/// Why a cluster/cycle/fault-script combination is unusable, if it is.
/// `Engine::new` turns the reason into a panic, `ServeSession::new` into
/// [`SimError::BadServeConfig`].
pub(crate) fn config_problem(
    cluster: &ClusterSpec,
    cycle_interval: f64,
    faults: &[FaultEvent],
) -> Option<&'static str> {
    if cycle_interval.is_nan() || cycle_interval <= 0.0 {
        return Some("cycle interval must be positive");
    }
    faults.iter().find_map(|f| fault_problem(cluster, f))
}

/// Why a fault cannot be queued against `cluster`, if it cannot.
pub(crate) fn fault_problem(cluster: &ClusterSpec, fault: &FaultEvent) -> Option<&'static str> {
    let parts = cluster.num_partitions();
    if fault.partition().is_some_and(|p| p.index() >= parts) {
        Some("fault references unknown partition")
    } else if !fault.at().is_finite() || fault.at() < 0.0 {
        Some("fault time must be finite and non-negative")
    } else {
        None
    }
}

/// The cluster state machine (see the module docs).
pub(crate) struct Sim<'a> {
    pub(crate) cluster: ClusterSpec,
    cycle_interval: f64,
    retry: RetryPolicy,

    // Capacity: `offline[p]` nodes are down; `owed[p]` nodes are scheduled
    // to go down as soon as running jobs release them. `free + allocated +
    // offline == capacity` holds per partition throughout.
    pub(crate) free: Vec<u32>,
    pub(crate) offline: Vec<u32>,
    pub(crate) owed: Vec<u32>,

    queue: BinaryHeap<Event>,
    pub(crate) seq: u64,
    arrivals_queued: usize,
    cycle_scheduled: bool,
    pub(crate) now: f64,

    pub(crate) base: usize,
    pub(crate) jobs: VecDeque<JobRecord<'a>>,
    /// Id → ingest index of every record held.
    pub(crate) index_of: BTreeMap<JobId, usize>,

    /// Ingest indices of jobs awaiting placement, in arrival order.
    pub(crate) pending: Vec<usize>,
    pub(crate) running: BTreeMap<JobId, Running>,
    /// Killed jobs awaiting retry: ingest index → earliest time the job may
    /// be offered for placement again. The job stays in `pending`
    /// (conservation: arrived == pending + running + terminal) but is
    /// withheld from the scheduler's view until the backoff elapses.
    retry_at: BTreeMap<usize, f64>,
    /// RC-fidelity jitter; drawn from only when the cluster has one.
    rng: StdRng,

    pub(crate) cycles: usize,
    pub(crate) kills: usize,
    pub(crate) preemptions: usize,
    pub(crate) retry_cancellations: usize,
    pub(crate) wasted: f64,
}

impl<'a> Sim<'a> {
    /// An idle cluster at t = 0 with nothing queued. The inputs (and any
    /// fault queued later) must have passed [`config_problem`].
    pub(crate) fn new(
        cluster: ClusterSpec,
        cycle_interval: f64,
        retry: RetryPolicy,
        seed: u64,
    ) -> Self {
        let parts = cluster.num_partitions();
        Self {
            free: cluster
                .partition_ids()
                .map(|p| cluster.partition_size(p))
                .collect(),
            offline: vec![0; parts],
            owed: vec![0; parts],
            queue: BinaryHeap::new(),
            seq: 0,
            arrivals_queued: 0,
            cycle_scheduled: false,
            now: 0.0,
            base: 0,
            jobs: VecDeque::new(),
            index_of: BTreeMap::new(),
            pending: Vec::new(),
            running: BTreeMap::new(),
            retry_at: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            cycles: 0,
            kills: 0,
            preemptions: 0,
            retry_cancellations: 0,
            wasted: 0.0,
            cluster,
            cycle_interval,
            retry,
        }
    }

    fn push(&mut self, time: f64, class: u8, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Event {
            time,
            class,
            seq: self.seq,
            kind,
        });
    }

    /// Queues `fault` to fire at its own time.
    pub(crate) fn queue_fault(&mut self, fault: FaultEvent) {
        self.push(fault.at(), FAULT, EventKind::Fault { fault });
    }

    /// Takes a job in: a fresh record at the next ingest index plus its
    /// arrival, queued at the spec's submit time. Fails if the id is
    /// already held.
    pub(crate) fn push_job(&mut self, spec: SpecRef<'a>) -> Result<(), SimError> {
        let idx = self.base + self.jobs.len();
        if self.index_of.insert(spec.id, idx).is_some() {
            return Err(SimError::DuplicateJobId { job: spec.id });
        }
        self.push(spec.submit_time, ARRIVAL, EventKind::Arrival { job: idx });
        self.arrivals_queued += 1;
        self.jobs.push_back(JobRecord::new(spec));
        Ok(())
    }

    /// Drops the oldest record (the driver has established it is terminal).
    pub(crate) fn pop_front(&mut self) -> Option<JobRecord<'a>> {
        let rec = self.jobs.pop_front()?;
        self.index_of.remove(&rec.spec.id);
        self.base += 1;
        Some(rec)
    }

    /// The record at ingest index `idx`, if it is still held.
    pub(crate) fn record(&self, idx: usize) -> Option<&JobRecord<'a>> {
        self.jobs.get(idx.checked_sub(self.base)?)
    }

    /// Queues a scheduling cycle at `at` unless one is queued already. Each
    /// cycle re-arms the next one as long as anything is pending, running or
    /// yet to arrive; a driver starts the chain, and restarts it once it
    /// has died.
    pub(crate) fn ensure_cycle(&mut self, at: f64) {
        if !self.cycle_scheduled {
            self.push(at, CYCLE, EventKind::Cycle);
            self.cycle_scheduled = true;
        }
    }

    /// Time of the next queued event.
    pub(crate) fn next_time(&self) -> Option<f64> {
        self.queue.peek().map(|ev| ev.time)
    }

    /// True when no event is queued, nothing is pending and nothing runs.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.pending.is_empty() && self.running.is_empty()
    }

    /// Pops the next event, advances `now` to it and applies it. A no-op on
    /// an empty queue.
    pub(crate) fn step(&mut self, scheduler: &mut dyn Scheduler) -> Result<Step, SimError> {
        let mut step = Step::default();
        let Some(ev) = self.queue.pop() else {
            return Ok(step);
        };
        self.now = ev.time;
        match ev.kind {
            EventKind::Arrival { job } => {
                self.arrivals_queued -= 1;
                self.pending.push(job);
                scheduler.on_job_submitted(&self.jobs[job - self.base].spec, self.now);
            }
            EventKind::Finish { job, epoch } => {
                self.finish(job, epoch, scheduler, &mut step.ended);
            }
            EventKind::Fault { fault } => self.apply_fault(fault, scheduler, &mut step.ended),
            EventKind::Cycle => {
                self.cycle_scheduled = false;
                self.cycles += 1;
                let decision = self.decide(scheduler);
                self.commit(&decision, &mut step.ended)?;
                if !self.pending.is_empty() || !self.running.is_empty() || self.arrivals_queued > 0
                {
                    self.ensure_cycle(self.now + self.cycle_interval);
                }
                step.decision = Some(decision);
            }
        }
        Ok(step)
    }

    /// Completes attempt `epoch` of job `job`, unless the attempt was
    /// preempted or killed since (or its record already dropped): such a
    /// finish is stale and ignored.
    fn finish(
        &mut self,
        job: usize,
        epoch: u32,
        scheduler: &mut dyn Scheduler,
        ended: &mut Vec<usize>,
    ) {
        let Some(id) = self.record(job).map(|rec| rec.spec.id) else {
            return;
        };
        if self.running.get(&id).is_none_or(|r| r.epoch != epoch) {
            return;
        }
        let Some(r) = self.running.remove(&id) else {
            return;
        };
        self.release(&r.allocation);
        let rec = &mut self.jobs[job - self.base];
        let o = &mut rec.outcome;
        o.state = JobState::Completed;
        o.start_time = Some(r.start);
        o.finish_time = Some(self.now);
        o.measured_runtime = Some(r.measured_runtime);
        o.on_preferred = Some(r.on_preferred);
        ended.push(job);
        scheduler.on_job_completed(&rec.spec, &rec.outcome, self.now);
    }

    /// Applies one fault to capacity (and, for the abrupt kinds, to the
    /// running gangs on it).
    fn apply_fault(
        &mut self,
        fault: FaultEvent,
        scheduler: &mut dyn Scheduler,
        ended: &mut Vec<usize>,
    ) {
        match fault {
            FaultEvent::PartitionDown {
                partition, nodes, ..
            } => {
                let pi = partition.index();
                let taken = self.seize(pi, nodes);
                self.owed[pi] += nodes - taken;
            }
            FaultEvent::PartitionUp {
                partition, nodes, ..
            } => {
                let pi = partition.index();
                // Cancel still-owed losses first, then bring offline nodes
                // back; restores beyond that are clamped.
                let cancelled = nodes.min(self.owed[pi]);
                self.owed[pi] -= cancelled;
                let restored = (nodes - cancelled).min(self.offline[pi]);
                self.offline[pi] -= restored;
                self.free[pi] += restored;
            }
            FaultEvent::NodeCrash {
                partition, nodes, ..
            } => {
                let pi = partition.index();
                // Free nodes absorb the crash first.
                let mut remaining = nodes - self.seize(pi, nodes);
                // Then running gangs holding nodes on the crashed partition
                // die, smallest job id first (the map's own order), until
                // the crash is covered.
                let victims: Vec<JobId> = self
                    .running
                    .iter()
                    .filter(|(_, r)| r.allocation.iter().any(|(p, n)| p.index() == pi && *n > 0))
                    .map(|(id, _)| *id)
                    .collect();
                for id in victims {
                    if remaining == 0 {
                        break;
                    }
                    let Some(r) = self.running.remove(&id) else {
                        continue;
                    };
                    self.kill_attempt(r, scheduler, ended);
                    remaining -= self.seize(pi, remaining);
                }
                // Anything still uncovered (capacity already owed or
                // offline) becomes debt, as with PartitionDown.
                self.owed[pi] += remaining;
            }
            FaultEvent::TaskKill { job, .. } => {
                // Task-level failure: the gang dies but its nodes stay
                // healthy. A no-op unless the job is running.
                if let Some(r) = self.running.remove(&job) {
                    self.kill_attempt(r, scheduler, ended);
                }
            }
        }
    }

    /// Takes up to `want` free nodes of partition `pi` offline; returns how
    /// many there were to take.
    fn seize(&mut self, pi: usize, want: u32) -> u32 {
        let taken = want.min(self.free[pi]);
        self.free[pi] -= taken;
        self.offline[pi] += taken;
        taken
    }

    /// Moves released nodes back to `free`, paying down owed fault capacity
    /// first.
    fn release(&mut self, allocation: &[(PartitionId, u32)]) {
        for (p, n) in allocation {
            let pi = p.index();
            let seized = (*n).min(self.owed[pi]);
            self.owed[pi] -= seized;
            self.offline[pi] += seized;
            self.free[pi] += n - seized;
        }
    }

    /// Bookkeeping shared by the fault-kill paths: releases the dead gang,
    /// invalidates its finish event, charges the lost work, and either
    /// requeues the job under retry backoff or cancels it once the retry
    /// budget is exhausted. The scheduler hears about the kill through its
    /// censored-observation callback.
    fn kill_attempt(&mut self, r: Running, scheduler: &mut dyn Scheduler, ended: &mut Vec<usize>) {
        self.release(&r.allocation);
        let tasks: u32 = r.allocation.iter().map(|(_, n)| n).sum();
        let elapsed = (self.now - r.start).max(0.0);
        self.wasted += elapsed * f64::from(tasks);
        self.kills += 1;
        let rec = &mut self.jobs[r.idx - self.base];
        rec.epoch += 1;
        let o = &mut rec.outcome;
        o.kills += 1;
        let will_retry = o.kills <= self.retry.max_retries;
        if will_retry {
            o.state = JobState::Pending;
            self.retry_at
                .insert(r.idx, self.now + self.retry.delay_for(o.kills));
            self.pending.push(r.idx);
        } else {
            o.state = JobState::Canceled;
            self.retry_cancellations += 1;
            ended.push(r.idx);
        }
        scheduler.on_job_killed(&rec.spec, elapsed, will_retry, self.now);
    }

    /// Decide stage: builds the scheduler-facing view (running jobs in id
    /// order — the map's own — and the backoff-gated pending set) and asks
    /// the scheduler for a decision. Reads state, mutates none.
    fn decide(&self, scheduler: &mut dyn Scheduler) -> SchedulingDecision {
        let now = self.now;
        let spec = |idx: usize| &*self.jobs[idx - self.base].spec;
        let eps = retry_tick_eps(now, self.cycle_interval);
        let view = SimulationView {
            cluster: &self.cluster,
            // Jobs backing off after a kill are withheld from the scheduler
            // until their retry time.
            pending: self
                .pending
                .iter()
                .filter(|&&i| self.retry_at.get(&i).is_none_or(|&t| t <= now + eps))
                .map(|&i| spec(i))
                .collect(),
            running: self
                .running
                .values()
                .map(|r| RunningJob {
                    spec: spec(r.idx),
                    start_time: r.start,
                    allocation: &r.allocation,
                })
                .collect(),
            free: &self.free,
            now,
        };
        scheduler.schedule(&view, now)
    }

    /// Commit stage: validates and applies a decision — cancellations, then
    /// preemptions, then placements — and settles outstanding fault debt
    /// from post-decision free capacity.
    fn commit(
        &mut self,
        decision: &SchedulingDecision,
        ended: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let now = self.now;
        let parts = self.free.len();
        // Resolves a decision's job id to (ingest index, position in
        // `pending`).
        let pending_pos = |sim: &Self, job: JobId, action: &'static str| {
            let idx = sim.index_of.get(&job).copied();
            idx.and_then(|idx| Some((idx, sim.pending.iter().position(|&i| i == idx)?)))
                .ok_or(SimError::BadJobReference { job, action })
        };

        // 1. Cancellations.
        for id in &decision.cancellations {
            let (idx, pos) = pending_pos(self, *id, "cancel")?;
            self.pending.remove(pos);
            self.retry_at.remove(&idx);
            self.jobs[idx - self.base].outcome.state = JobState::Canceled;
            ended.push(idx);
        }

        // 2. Preemptions: free capacity, requeue the job.
        //
        // Reclaimed capacity is fully spendable by this same decision's
        // placements: `SimulationView` cannot expose `owed`, so schedulers
        // (and the feasibility oracle) necessarily assume preempted nodes
        // are reusable. Outstanding fault debt is settled from whatever is
        // still free *after* the decision is applied.
        for id in &decision.preemptions {
            let r = self.running.remove(id).ok_or(SimError::BadJobReference {
                job: *id,
                action: "preempt",
            })?;
            for (p, n) in &r.allocation {
                self.free[p.index()] += n;
            }
            let rec = &mut self.jobs[r.idx - self.base];
            rec.epoch += 1;
            rec.outcome.preemptions += 1;
            rec.outcome.state = JobState::Pending;
            let tasks: u32 = r.allocation.iter().map(|(_, n)| n).sum();
            self.wasted += (now - r.start).max(0.0) * tasks as f64;
            self.pending.push(r.idx);
            self.preemptions += 1;
        }

        // 3. Placements.
        for pl in &decision.placements {
            let (idx, pos) = pending_pos(self, pl.job, "place")?;
            let spec = &self.jobs[idx - self.base].spec;
            let total: u32 = pl.allocation.iter().map(|(_, n)| n).sum();
            if total != spec.tasks || pl.allocation.iter().any(|(p, _)| p.index() >= parts) {
                return Err(SimError::BadAllocation { job: pl.job });
            }
            for (p, n) in &pl.allocation {
                if *n > self.free[p.index()] {
                    return Err(SimError::OverCapacity { partition: *p });
                }
            }
            self.pending.remove(pos);
            self.retry_at.remove(&idx);
            for (p, n) in &pl.allocation {
                self.free[p.index()] -= n;
            }
            let nominal = spec.runtime_on(&pl.allocation);
            let (start, runtime) = match self.cluster.rc_fidelity {
                None => (now, nominal),
                Some(fid) => {
                    let z = standard_normal(&mut self.rng);
                    let jitter = (1.0 + fid.runtime_jitter_cov * z).max(0.3);
                    (now + fid.placement_latency, nominal * jitter)
                }
            };
            let on_preferred = spec.preferred.as_ref().is_none_or(|pref| {
                pl.allocation
                    .iter()
                    .all(|(p, n)| *n == 0 || pref.contains(p))
            });
            let rec = &mut self.jobs[idx - self.base];
            rec.epoch += 1;
            let epoch = rec.epoch;
            rec.outcome.state = JobState::Running;
            rec.outcome.start_time = Some(start);
            self.running.insert(
                pl.job,
                Running {
                    idx,
                    epoch,
                    start,
                    allocation: pl.allocation.clone(),
                    measured_runtime: runtime,
                    on_preferred,
                },
            );
            self.push(
                start + runtime,
                FINISH,
                EventKind::Finish { job: idx, epoch },
            );
        }

        // Settle outstanding fault debt from post-decision free capacity
        // (preemptions above released nodes without paying it down).
        for pi in 0..parts {
            self.owed[pi] -= self.seize(pi, self.owed[pi]);
        }
        Ok(())
    }
}

/// Retry-backoff eligibility tolerance at a cycle boundary.
///
/// Cycle ticks are produced by repeated `now + cycle_interval` additions, so
/// a tick nominally at `t` can sit a few ulps below the `kill_time + delay`
/// retry timestamp computed for the same instant, and the eligibility gate
/// must tolerate that drift: a backoff expiring exactly on a cycle boundary
/// re-pends on that cycle, not one cycle late.
///
/// The tolerance is relative and ulp-aware. The base term
/// `RETRY_TICK_TOLERANCE * max(|now|, 1)` (~1 ns at t = 1 s) covers the
/// short-horizon regime. At long service horizons (`now ≳ 2^46` s) that term
/// alone would grow to tens of thousands of seconds — collapsing every
/// backoff — so it is capped at a quarter cycle. The cap in turn is floored
/// at 64 ulps of `now`, because once a single ulp exceeds the nominal
/// tolerance (one ulp of 2^46 is ~0.016 s), drift must still be forgiven or
/// an on-tick expiry is skipped for a full cycle.
pub(crate) fn retry_tick_eps(now: f64, cycle_interval: f64) -> f64 {
    (RETRY_TICK_TOLERANCE * now.abs().max(1.0))
        .min(0.25 * cycle_interval)
        .max(64.0 * f64::EPSILON * now.abs())
}

/// Relative tolerance for retry-backoff eligibility at a cycle boundary
/// (see [`retry_tick_eps`]).
const RETRY_TICK_TOLERANCE: f64 = 1e-9;

/// Standard normal via Box–Muller (keeps the dependency surface to `rand`).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0f64 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch run holds one record per trace job for the whole run, so the
    /// spec handle is two words; an inline `Cow<JobSpec>` made the record
    /// 216 bytes.
    #[test]
    fn a_job_record_holds_its_spec_in_two_words() {
        assert_eq!(size_of::<SpecRef<'_>>(), 2 * size_of::<usize>());
        assert!(
            size_of::<JobRecord<'_>>() <= size_of::<JobOutcome>() + 3 * size_of::<usize>(),
            "JobRecord is {} bytes",
            size_of::<JobRecord<'_>>()
        );
    }
}
