//! EASY backfilling: the classic estimate-driven HPC baseline.
//!
//! An extension baseline beyond the paper's Table 1 (the paper's related
//! work discusses backfilling via Tsafrir et al. (ref. 26), whose exponential
//! under-estimate correction 3σSched borrows). EASY backfilling keeps a
//! priority queue (SLO jobs by deadline, then best-effort FIFO), starts the
//! head job whenever it fits, and otherwise *reserves* the head's start
//! time based on running jobs' estimated completions; later jobs may jump
//! the queue only if they fit now and — by their own runtime estimate —
//! finish before the reservation (or use nodes the reservation does not
//! need).
//!
//! Like `PointRealEst`, it consumes point estimates; unlike the MILP
//! schedulers it reasons about one reservation only, so it cannot trade
//! SLO risk against best-effort latency.

use std::collections::HashMap;

use threesigma_cluster::{
    JobId, JobSpec, PartitionId, Placement, Scheduler, SchedulingDecision, SimulationView,
};
use threesigma_predict::{Predictor, PredictorConfig};

/// Where the backfill scheduler's point estimates come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSource {
    /// True runtimes (oracle).
    Oracle,
    /// 3σPredict point estimates (JVuPredict-equivalent).
    Predicted,
}

/// Adapter exposing cluster attributes to the predictor.
struct Attrs<'a>(&'a threesigma_cluster::Attributes);

impl threesigma_predict::AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// EASY-backfilling scheduler.
pub struct BackfillScheduler {
    source: PointSource,
    predictor: Predictor,
    /// Cached estimate per job (at submission), seconds.
    estimates: HashMap<JobId, f64>,
    /// Fallback estimate when no history exists.
    default_estimate: f64,
}

impl BackfillScheduler {
    /// Creates a backfill scheduler.
    pub fn new(source: PointSource, predictor_config: PredictorConfig) -> Self {
        Self {
            source,
            predictor: Predictor::new(predictor_config),
            estimates: HashMap::new(),
            default_estimate: 300.0,
        }
    }

    /// Feeds completed history jobs to the predictor.
    pub fn pretrain(&mut self, history: &[JobSpec]) {
        for job in history {
            self.predictor
                .observe(&Attrs(&job.attributes), job.duration);
        }
    }

    fn estimate(&self, spec: &JobSpec) -> f64 {
        match self.source {
            PointSource::Oracle => spec.duration,
            PointSource::Predicted => self
                .predictor
                .predict_point(&Attrs(&spec.attributes))
                .unwrap_or(self.default_estimate),
        }
    }
}

/// Greedy preferred-first gang packing (same policy as `Prio`).
fn pack(spec: &JobSpec, free: &[u32]) -> Option<Vec<(PartitionId, u32)>> {
    let preferred = |p: usize| -> bool {
        spec.preferred
            .as_ref()
            .is_none_or(|pref| pref.contains(&PartitionId(p)))
    };
    let mut racks: Vec<(usize, u32)> = free
        .iter()
        .enumerate()
        .filter(|(_, f)| **f > 0)
        .map(|(p, f)| (p, *f))
        .collect();
    racks.sort_by(|a, b| preferred(b.0).cmp(&preferred(a.0)).then(b.1.cmp(&a.1)));
    let mut remaining = spec.tasks;
    let mut alloc = Vec::new();
    for (p, f) in racks {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(f);
        alloc.push((PartitionId(p), take));
        remaining -= take;
    }
    (remaining == 0).then_some(alloc)
}

impl Scheduler for BackfillScheduler {
    fn on_job_submitted(&mut self, spec: &JobSpec, _now: f64) {
        let est = self.estimate(spec);
        self.estimates.insert(spec.id, est);
    }

    fn on_job_completed(
        &mut self,
        spec: &JobSpec,
        outcome: &threesigma_cluster::JobOutcome,
        _now: f64,
    ) {
        if let Some(rt) = outcome.measured_runtime {
            self.predictor.observe(&Attrs(&spec.attributes), rt);
        }
        self.estimates.remove(&spec.id);
    }

    fn schedule(&mut self, view: &SimulationView<'_>, now: f64) -> SchedulingDecision {
        let estimates = &self.estimates;
        let default = self.default_estimate;
        backfill_plan(view, now, |spec| {
            estimates.get(&spec.id).copied().unwrap_or(default)
        })
    }
}

/// One EASY-backfill placement pass over `view`, with runtime point
/// estimates supplied by `estimate` (seconds on preferred resources).
///
/// This is the whole of [`BackfillScheduler::schedule`] as a free
/// function so other schedulers can reuse it — 3σSched's degradation
/// governor falls back to it at level 2, where a cycle must place jobs
/// without paying for option enumeration or the MILP.
pub(crate) fn backfill_plan(
    view: &SimulationView<'_>,
    now: f64,
    mut estimate: impl FnMut(&JobSpec) -> f64,
) -> SchedulingDecision {
    let mut decision = SchedulingDecision::noop();
    let mut free = view.free.to_vec();

    // Priority order: SLO by deadline, then BE by submission.
    let mut queue: Vec<&JobSpec> = view.pending.clone();
    queue.sort_by(|a, b| {
        let key = |s: &JobSpec| match s.kind.deadline() {
            Some(d) => (0, d),
            None => (1, s.submit_time),
        };
        let (ka, kb) = (key(a), key(b));
        ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
    });

    // Estimated completion times of running jobs, soonest first.
    let mut completions: Vec<(f64, Vec<(PartitionId, u32)>)> = view
        .running
        .iter()
        .map(|r| {
            let est = estimate(r.spec);
            // If the estimate is already exceeded, assume one more
            // cycle (the engine replans constantly anyway).
            let finish = (r.start_time + est).max(now + 1.0);
            (finish, r.allocation.to_vec())
        })
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut iter = queue.into_iter();
    // Phase 1: start queue-head jobs while they fit.
    let mut blocked: Option<(&JobSpec, f64)> = None; // (head, shadow time)
    for spec in iter.by_ref() {
        if let Some(alloc) = pack(spec, &free) {
            for (p, n) in &alloc {
                free[p.index()] -= n;
            }
            decision.placements.push(Placement {
                job: spec.id,
                allocation: alloc,
            });
            continue;
        }
        // Head blocked: compute its shadow time — when enough nodes
        // free up (by estimates) for it to start.
        let mut avail: u32 = free.iter().sum();
        let mut shadow = f64::INFINITY;
        for (finish, alloc) in &completions {
            avail += alloc.iter().map(|(_, n)| n).sum::<u32>();
            if avail >= spec.tasks {
                shadow = *finish;
                break;
            }
        }
        blocked = Some((spec, shadow));
        break;
    }

    // Phase 2: backfill — remaining jobs may start now only if their
    // estimate says they finish before the head's shadow time.
    if let Some((_head, shadow)) = blocked {
        for spec in iter {
            let est = estimate(spec);
            if now + est > shadow {
                continue;
            }
            if let Some(alloc) = pack(spec, &free) {
                for (p, n) in &alloc {
                    free[p.index()] -= n;
                }
                decision.placements.push(Placement {
                    job: spec.id,
                    allocation: alloc,
                });
            }
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_cluster::{ClusterSpec, Engine, EngineConfig, JobKind};

    fn engine(racks: usize, per_rack: u32) -> Engine {
        Engine::new(
            ClusterSpec::uniform(racks, per_rack),
            EngineConfig {
                cycle_interval: 2.0,
                drain: Some(4.0 * 3600.0),
                seed: 1,
                ..EngineConfig::default()
            },
        )
    }

    fn oracle() -> BackfillScheduler {
        BackfillScheduler::new(PointSource::Oracle, PredictorConfig::default())
    }

    #[test]
    fn places_in_priority_order_when_capacity_allows() {
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 1, 100.0, JobKind::Slo { deadline: 5000.0 }),
        ];
        let m = engine(1, 2).run(&jobs, &mut oracle()).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn short_job_backfills_around_blocked_head() {
        // 2 nodes. Running: a 2-node job for 100 s (placed first). Queue:
        // head wants 2 nodes (blocked until 100), a 1-node 30 s job can
        // backfill... but free is 0. Instead: running job uses 1 node;
        // head wants 2 (blocked); a 1-node job with est 30 ≤ shadow can
        // start on the free node.
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort),
            JobSpec::new(
                2,
                5.0,
                2,
                50.0,
                JobKind::Slo {
                    deadline: 100_000.0,
                },
            ),
            JobSpec::new(3, 6.0, 1, 30.0, JobKind::BestEffort),
        ];
        let m = engine(1, 2).run(&jobs, &mut oracle()).unwrap();
        let head_start = m.outcomes[1].start_time.unwrap();
        let bf_start = m.outcomes[2].start_time.unwrap();
        assert!(
            bf_start < head_start,
            "short job backfilled: bf={bf_start} head={head_start}"
        );
        assert!(bf_start < 60.0, "backfill started while head waited");
    }

    #[test]
    fn long_job_does_not_delay_the_reservation() {
        // Same setup, but the queued 1-node job is LONG (300 s > shadow):
        // it must NOT backfill ahead of the blocked head.
        let jobs = vec![
            JobSpec::new(1, 0.0, 1, 100.0, JobKind::BestEffort),
            JobSpec::new(
                2,
                5.0,
                2,
                50.0,
                JobKind::Slo {
                    deadline: 100_000.0,
                },
            ),
            JobSpec::new(3, 6.0, 1, 300.0, JobKind::BestEffort),
        ];
        let m = engine(1, 2).run(&jobs, &mut oracle()).unwrap();
        let head_start = m.outcomes[1].start_time.unwrap();
        let long_start = m.outcomes[2].start_time.unwrap();
        assert!(
            head_start < long_start,
            "reservation respected: head={head_start} long={long_start}"
        );
        // Head starts right after the running job's estimated completion.
        assert!(head_start <= 104.0, "head start {head_start}");
    }

    #[test]
    fn predicted_source_learns_from_history() {
        let mut s = BackfillScheduler::new(PointSource::Predicted, PredictorConfig::default());
        let history: Vec<JobSpec> = (0..20)
            .map(|i| {
                JobSpec::new(100 + i, i as f64, 1, 50.0, JobKind::BestEffort)
                    .with_attributes(threesigma_cluster::Attributes::new().with("user", "bf"))
            })
            .collect();
        s.pretrain(&history);
        let probe = JobSpec::new(1, 0.0, 1, 50.0, JobKind::BestEffort)
            .with_attributes(threesigma_cluster::Attributes::new().with("user", "bf"));
        assert!((s.estimate(&probe) - 50.0).abs() < 1e-9);
        // Unknown job falls back to the default.
        let unknown = JobSpec::new(2, 0.0, 1, 50.0, JobKind::BestEffort);
        let e = s.estimate(&unknown);
        assert!(e > 0.0);
    }

    #[test]
    fn completes_a_mixed_stream() {
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    JobKind::Slo {
                        deadline: i as f64 * 10.0 + 2000.0,
                    }
                } else {
                    JobKind::BestEffort
                };
                JobSpec::new(
                    i as u64 + 1,
                    i as f64 * 10.0,
                    1 + (i as u32 % 3),
                    60.0,
                    kind,
                )
            })
            .collect();
        let m = engine(2, 3).run(&jobs, &mut oracle()).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
        assert_eq!(m.slo_miss_pct(), 0.0);
    }

    #[test]
    fn mask_free_backfill_scales_past_the_rack_mask_ceiling() {
        // Backfill plans on raw free lists, not RackMasks, so it has no
        // 128-rack ceiling and reports no `max_partitions` limit: a
        // 200-rack cluster must be accepted and scheduled as-is.
        let mut s = oracle();
        assert_eq!(
            threesigma_cluster::Scheduler::max_partitions(&s),
            None,
            "backfill is mask-free — no scale ceiling to declare"
        );
        let jobs = vec![
            JobSpec::new(1, 0.0, 150, 60.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 10, 60.0, JobKind::Slo { deadline: 2000.0 }),
        ];
        let m = engine(200, 1).run(&jobs, &mut s).unwrap();
        assert_eq!(m.completion_rate(), 1.0);
        assert_eq!(m.slo_miss_pct(), 0.0);
    }
}
