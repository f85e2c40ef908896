//! 3σSched: distribution-based cluster scheduling for runtime uncertainty.
//!
//! This crate is the paper's primary contribution (EuroSys'18): a
//! cycle-based MILP scheduler that plans over *runtime distributions*
//! instead of point estimates, together with the baseline schedulers the
//! paper compares against and an end-to-end experiment driver.
//!
//! # Architecture (Fig. 4)
//!
//! 1. Jobs arrive via the cluster manager ([`threesigma_cluster::Engine`]).
//! 2. [`threesigma_predict::Predictor`] supplies each job's estimated
//!    runtime distribution from history, as a [`DiscreteDist`].
//! 3. Each scheduling cycle, [`ThreeSigmaScheduler`] enumerates
//!    placement options (equivalence set × start slot within a plan-ahead
//!    window), values each by **expected utility** ([`utility`], Eq. 1),
//!    charges **expected resource consumption** ([`DiscreteDist`], Eq. 2/3),
//!    compiles everything into a MILP ([`threesigma_milp`]) including
//!    preemption options, solves with a warm start and time budget, and
//!    converts the solution into placements.
//! 4. Measured runtimes feed back into the predictor on completion.
//!
//! Mis-estimation handling (§4.2): exponential-increment under-estimate
//! handling, graceful-decay over-estimate handling, and the adaptive policy
//! that enables the decay only for jobs whose distribution says the
//! deadline is likely unreachable.
//!
//! # Quickstart
//!
//! ```
//! use threesigma::driver::{Experiment, SchedulerKind};
//! use threesigma_workload::{generate, Environment, WorkloadConfig};
//!
//! let config = WorkloadConfig::e2e(Environment::Google, 42)
//!     .with_duration(600.0); // 10-minute toy trace
//! let trace = generate(&config);
//! let experiment = Experiment::paper_sc256();
//! let result = threesigma::driver::run(SchedulerKind::ThreeSigma, &trace, &experiment)
//!     .expect("simulation runs");
//! println!("SLO miss rate: {:.1}%", result.metrics.slo_miss_pct());
//! ```

pub mod driver;
pub mod paper;
pub mod sched;
pub mod serve;
pub mod utility;

pub use driver::{
    run, run_observed, run_with_source, run_with_source_observed, CycleTraceWriter, Experiment,
    RunResult, SchedulerKind,
};
pub use sched::backfill::{BackfillScheduler, PointSource};
pub use sched::estimate::EstimateSource;
pub use sched::feasibility::{check_decision, FeasibilityViolation};
pub use sched::governor::CycleBudget;
pub use sched::groups::MaskGroups;
pub use sched::options::{CacheStats, EstimateCache, RackMask};
pub use sched::prio::PrioScheduler;
pub use sched::threesigma::{
    CycleTiming, OverestimateMode, PlanRecord, PlannedJob, SchedConfig, SchedSnapshot, SchedStats,
    ThreeSigmaScheduler,
};
pub use serve::{ServeError, ServeNode};
pub use threesigma_histogram::DiscreteDist;
pub use utility::UtilityCurve;
