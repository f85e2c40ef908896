//! Discrete-event cluster simulator substrate for 3Sigma.
//!
//! The paper evaluates on a 256-node physical cluster driven through YARN
//! (RC256) and on a faster simulated twin (SC256), and validates that both
//! agree (Table 2). This crate is our substitute for both: a deterministic
//! discrete-event engine that models
//!
//! * a cluster as a set of resource **partitions** (racks) holding
//!   interchangeable nodes — the "equivalence set" granularity 3σSched
//!   reasons at (§4.3.3),
//! * **gang-scheduled** jobs: all `tasks` nodes are held from placement until
//!   the job finishes or is preempted (kill-based, as in container clusters),
//! * **placement preference**: a job runs `nonpreferred_slowdown`× longer if
//!   any of its allocation lands outside its preferred partitions (§5),
//! * a pluggable [`Scheduler`] invoked on a periodic scheduling cycle with a
//!   full view of pending/running jobs and free capacity,
//! * an optional **real-cluster fidelity** mode ([`RcFidelity`]) adding the
//!   runtime jitter and placement latency that separate RC256 from SC256.
//!
//! The engine is single-threaded and fully deterministic given a seed, so
//! every experiment in the bench harness is reproducible.

pub mod engine;
pub mod job;
pub mod metrics;
pub mod serve;
mod sim;
pub mod spec;
pub mod wal;

pub use engine::{
    CycleObserver, CycleStats, Engine, EngineConfig, EngineSnapshot, FaultEvent, Placement,
    RunningJob, Scheduler, SchedulingDecision, SimError, SimulationView, SnapshotRunning,
};
pub use job::{Attributes, JobId, JobKind, JobSpec, RetryPolicy};
pub use metrics::{JobOutcome, JobState, Metrics};
pub use serve::{RetiredAggregate, ServeConfig, ServeSession, ServeSnapshot, ServeSummary};
pub use spec::{ClusterSpec, PartitionId, RcFidelity};
pub use wal::{
    DataDir, Durable, FrameDefect, JournalDecode, Recovered, Recovery, SnapshotFile, Wal, WalEntry,
    WalError, WalRecord, WalRecovery, SNAPSHOT_FORMAT_VERSION, WAL_MAGIC,
};
