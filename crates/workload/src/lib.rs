//! Synthetic trace generation and trace analysis for the 3Sigma evaluation.
//!
//! The paper's E2E workloads are themselves synthetic: jobs are clustered
//! from the original traces (Google 2011, a hedge-fund's two Mesos clusters,
//! LANL's Mustang) and regenerated from per-class parameter distributions
//! with an exponential arrival process of squared arrival CoV 4 (§5). We do
//! not have the raw traces, so the [`env`](mod@env) module encodes per-environment
//! *job-class mixtures* tuned to match the published summary statistics —
//! the heavy-tailed runtime CDFs, per-feature CoV spreads, and
//! JVuPredict-style estimate-error profiles of Fig. 2 — and [`generator`]
//! regenerates traces from them exactly as the paper's GridMix-based
//! generator does.
//!
//! [`analysis`] computes the Fig. 2 statistics from any generated trace so
//! the bench harness can verify the match.

pub mod analysis;
pub mod env;
pub mod generator;
pub mod sampling;

pub use env::{Environment, JobClass};
pub use generator::{generate, ArrivalTarget, Trace, WorkloadConfig, MAX_DURATION};
