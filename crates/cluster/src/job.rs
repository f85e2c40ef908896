//! Job model: what the cluster manager knows about a job.
//!
//! The *actual* runtime is carried in the spec (the trace knows it) but is
//! hidden from schedulers by the engine — only `PointPerfEst`-style oracle
//! schedulers are handed it explicitly by the experiment harness.

use serde::{Deserialize, Serialize};

use crate::spec::PartitionId;

/// Longest job runtime, in seconds (30 days). Ingest rejects a longer
/// `duration` as a malformed spec (a job that runs for years keeps a run
/// cycling for as long), the serve wire format rejects it, and the
/// workload generator clamps every sampled duration to it.
pub const MAX_DURATION: f64 = 30.0 * 86_400.0;

/// Unique job identifier within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// SLO (deadline) or latency-sensitive best-effort job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobKind {
    /// Production job with a completion deadline (absolute time).
    Slo {
        /// Absolute deadline (seconds since trace start).
        deadline: f64,
    },
    /// Latency-sensitive best-effort job (the sooner the better).
    BestEffort,
}

impl JobKind {
    /// True for SLO jobs.
    pub fn is_slo(&self) -> bool {
        matches!(self, JobKind::Slo { .. })
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<f64> {
        match self {
            JobKind::Slo { deadline } => Some(*deadline),
            JobKind::BestEffort => None,
        }
    }
}

/// Opaque job attributes (user, job name, priority, ...) — the features
/// 3σPredict builds histories over. Order-preserving list of key/value
/// pairs; keys are unique.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attributes(Vec<(String, String)>);

impl Attributes {
    /// Empty attribute set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces an attribute.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.0.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.0.push((key, value)),
        }
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up an attribute value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no attributes are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Retry policy for jobs killed mid-flight by faults.
///
/// A killed job re-enters the pending queue after an exponential backoff
/// (`backoff_base · 2^(attempt−1)`, saturating at `backoff_cap` — the same
/// saturating-doubling shape as the §4.2.1 exp-inc fix, so repeated kills
/// can neither overflow nor collapse the delay). After `max_retries` killed
/// attempts have been retried, the next kill cancels the job permanently
/// and it is counted as a retry cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Kills tolerated before the job is cancelled (0 = cancel on the
    /// first kill).
    pub max_retries: u32,
    /// Backoff before the first retry, in seconds.
    pub backoff_base: f64,
    /// Saturation cap on the backoff, in seconds.
    pub backoff_cap: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base: 5.0,
            backoff_cap: 300.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry number `attempt` (1-based; `0` means "no
    /// kill yet" and gets no delay). Monotone non-decreasing in `attempt`
    /// and saturating at [`Self::backoff_cap`].
    pub fn delay_for(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        // Saturating doubling: 2^(attempt-1) clamps to u64::MAX rather than
        // wrapping, so the min() below always lands on the cap.
        let factor = 1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX) as f64;
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

/// Full specification of one job in a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Arrival time (seconds since trace start).
    pub submit_time: f64,
    /// Nodes required, gang-scheduled (the paper models Mapper-only jobs;
    /// one task per node).
    pub tasks: u32,
    /// Actual runtime in seconds on *preferred* resources. Hidden from
    /// schedulers; the engine uses it to generate completion events.
    pub duration: f64,
    /// SLO or best-effort.
    pub kind: JobKind,
    /// Preferred partitions (soft constraint). `None` — indifferent.
    pub preferred: Option<Vec<PartitionId>>,
    /// Runtime multiplier when any allocation is off-preferred (§5 uses
    /// 1.5×). Ignored when `preferred` is `None`; must be finite and
    /// positive either way (ingest rejects anything else as malformed).
    pub nonpreferred_slowdown: f64,
    /// Relative weight of this job's utility (SLO jobs outweigh BE jobs).
    pub utility_weight: f64,
    /// Attributes used by 3σPredict for history grouping.
    pub attributes: Attributes,
}

impl JobSpec {
    /// Minimal valid job; customise via struct update or the setters.
    pub fn new(id: u64, submit_time: f64, tasks: u32, duration: f64, kind: JobKind) -> Self {
        assert!(tasks > 0, "a job needs at least one task");
        assert!(duration > 0.0, "duration must be positive");
        assert!(submit_time >= 0.0, "submit time must be non-negative");
        Self {
            id: JobId(id),
            submit_time,
            tasks,
            duration,
            kind,
            preferred: None,
            nonpreferred_slowdown: 1.0,
            utility_weight: 1.0,
            attributes: Attributes::new(),
        }
    }

    /// Sets soft placement preference with the given off-preferred slowdown.
    pub fn with_preference(mut self, preferred: Vec<PartitionId>, slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be ≥ 1");
        self.preferred = Some(preferred);
        self.nonpreferred_slowdown = slowdown;
        self
    }

    /// Sets the utility weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.utility_weight = weight;
        self
    }

    /// Sets the attribute map.
    pub fn with_attributes(mut self, attributes: Attributes) -> Self {
        self.attributes = attributes;
        self
    }

    /// Runtime if executed on the given allocation: `duration`, scaled by
    /// the slowdown when any node is outside the preferred set.
    pub fn runtime_on(&self, allocation: &[(PartitionId, u32)]) -> f64 {
        match &self.preferred {
            None => self.duration,
            Some(pref) => {
                let off = allocation.iter().any(|(p, n)| *n > 0 && !pref.contains(p));
                if off {
                    self.duration * self.nonpreferred_slowdown
                } else {
                    self.duration
                }
            }
        }
    }

    /// Deadline slack fraction `(deadline − submit − duration) / duration`,
    /// if this is an SLO job (the workload knob of §5).
    pub fn deadline_slack(&self) -> Option<f64> {
        let deadline = self.kind.deadline()?;
        Some((deadline - self.submit_time - self.duration) / self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_set_get_replace() {
        let mut a = Attributes::new();
        a.set("user", "alice");
        a.set("job_name", "etl");
        assert_eq!(a.get("user"), Some("alice"));
        a.set("user", "bob");
        assert_eq!(a.get("user"), Some("bob"));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn runtime_scales_off_preferred() {
        let job = JobSpec::new(1, 0.0, 4, 100.0, JobKind::BestEffort)
            .with_preference(vec![PartitionId(0), PartitionId(1)], 1.5);
        let on = vec![(PartitionId(0), 2), (PartitionId(1), 2)];
        let off = vec![(PartitionId(0), 2), (PartitionId(2), 2)];
        assert_eq!(job.runtime_on(&on), 100.0);
        assert_eq!(job.runtime_on(&off), 150.0);
    }

    #[test]
    fn zero_count_allocations_do_not_trigger_slowdown() {
        let job = JobSpec::new(1, 0.0, 2, 50.0, JobKind::BestEffort)
            .with_preference(vec![PartitionId(0)], 2.0);
        let alloc = vec![(PartitionId(0), 2), (PartitionId(1), 0)];
        assert_eq!(job.runtime_on(&alloc), 50.0);
    }

    #[test]
    fn indifferent_jobs_never_slow_down() {
        let job = JobSpec::new(1, 0.0, 2, 50.0, JobKind::BestEffort);
        assert_eq!(job.runtime_on(&[(PartitionId(7), 2)]), 50.0);
    }

    #[test]
    fn deadline_slack_matches_definition() {
        // slack 60%: deadline = submit + 1.6·runtime.
        let job = JobSpec::new(1, 100.0, 1, 50.0, JobKind::Slo { deadline: 180.0 });
        assert!((job.deadline_slack().unwrap() - 0.6).abs() < 1e-12);
        let be = JobSpec::new(2, 0.0, 1, 50.0, JobKind::BestEffort);
        assert_eq!(be.deadline_slack(), None);
    }

    #[test]
    fn attributes_iterate_in_insertion_order() {
        let a = Attributes::new()
            .with("z", "1")
            .with("a", "2")
            .with("m", "3");
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
        assert!(!a.is_empty());
        assert!(Attributes::new().is_empty());
    }

    #[test]
    fn kind_helpers() {
        let slo = JobKind::Slo { deadline: 42.0 };
        assert!(slo.is_slo());
        assert_eq!(slo.deadline(), Some(42.0));
        assert!(!JobKind::BestEffort.is_slo());
        assert_eq!(JobKind::BestEffort.deadline(), None);
    }

    #[test]
    fn spec_json_roundtrip() {
        let job = JobSpec::new(9, 5.0, 3, 120.0, JobKind::Slo { deadline: 500.0 })
            .with_preference(vec![PartitionId(1), PartitionId(2)], 1.5)
            .with_weight(10.0)
            .with_attributes(Attributes::new().with("user", "u1"));
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn sub_unit_slowdown_panics() {
        let _ = JobSpec::new(1, 0.0, 1, 10.0, JobKind::BestEffort)
            .with_preference(vec![PartitionId(0)], 0.5);
    }

    #[test]
    #[should_panic(expected = "task")]
    fn zero_tasks_panic() {
        let _ = JobSpec::new(1, 0.0, 0, 10.0, JobKind::BestEffort);
    }

    mod backoff_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Safety envelope of the retry state machine: for any policy,
            // the backoff is finite, non-negative, monotone non-decreasing
            // in the attempt number, and saturates exactly at the cap —
            // even for attempt counts far past where 2^(attempt-1) would
            // overflow.
            #[test]
            fn backoff_is_monotone_and_saturating(
                base in 0.0f64..1e4,
                cap_factor in 1.0f64..1e6,
                attempts in prop::collection::vec(0u32..10_000, 2..32),
            ) {
                let policy = RetryPolicy {
                    max_retries: 3,
                    backoff_base: base,
                    backoff_cap: base * cap_factor,
                };
                let mut sorted = attempts;
                sorted.sort_unstable();
                let mut prev = 0.0f64;
                for &a in &sorted {
                    let d = policy.delay_for(a);
                    prop_assert!(d.is_finite(), "delay_for({a}) = {d}");
                    prop_assert!(d >= 0.0);
                    prop_assert!(
                        d <= policy.backoff_cap,
                        "delay {d} above cap {}",
                        policy.backoff_cap
                    );
                    prop_assert!(d >= prev, "backoff shrank: {prev} → {d} at attempt {a}");
                    prev = d;
                }
                // Far past the doubling range the delay IS the cap.
                prop_assert_eq!(policy.delay_for(100), policy.backoff_cap.min(
                    if policy.backoff_base > 0.0 { policy.backoff_cap } else { 0.0 }
                ));
            }
        }
    }

    #[test]
    fn retry_backoff_doubles_then_saturates() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff_base: 5.0,
            backoff_cap: 30.0,
        };
        assert_eq!(p.delay_for(0), 0.0);
        assert_eq!(p.delay_for(1), 5.0);
        assert_eq!(p.delay_for(2), 10.0);
        assert_eq!(p.delay_for(3), 20.0);
        assert_eq!(p.delay_for(4), 30.0, "saturates at the cap");
        assert_eq!(p.delay_for(1000), 30.0, "huge attempts cannot overflow");
    }
}
