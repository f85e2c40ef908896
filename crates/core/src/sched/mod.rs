//! Schedulers: 3σSched and the baselines of Table 1.
//!
//! [`threesigma::ThreeSigmaScheduler`] implements the MILP-based
//! distribution scheduler; its [`threesigma::EstimateSource`] and
//! [`threesigma::OverestimateMode`] knobs also yield the `PointPerfEst`,
//! `PointRealEst`, and ablation configurations. [`prio::PrioScheduler`] is
//! the runtime-unaware strict-priority baseline (Borg-like).

pub mod backfill;
pub mod clock;
pub(crate) mod compile;
pub mod feasibility;
pub mod groups;
pub mod options;
pub mod prio;
pub mod threesigma;
