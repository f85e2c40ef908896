//! 3σPredict: black-box runtime-distribution prediction from job history.
//!
//! For every incoming job, 3σPredict (§4.1) must hand the scheduler an
//! estimated *distribution* of the job's runtime, without user-provided
//! estimates or knowledge of job structure. It does so by
//!
//! 1. associating each job with multiple **features** — attributes such as
//!    the submitting user or job name, and attribute combinations
//!    ([`feature`]),
//! 2. maintaining, per feature *value*, a constant-memory history sketch of
//!    observed runtimes — a Ben-Haim/Tom-Tov streaming histogram plus the
//!    state of four point **estimators** (mean, median-of-recent, rolling
//!    EWMA with α = 0.6, average-of-recent-X) ([`expert`]),
//! 3. scoring every `feature-value:estimator` pair ("expert") online by the
//!    normalised mean absolute error of its past point estimates, and
//! 4. answering a prediction with the histogram of the expert with the
//!    lowest NMAE ([`predictor`]).
//!
//! The same machinery with the winning expert's *point* estimate is the
//! JVuPredict baseline the paper's `PointRealEst` scheduler uses.
//!
//! # Example
//!
//! ```
//! use threesigma_predict::{Predictor, PredictorConfig};
//! use threesigma_histogram::Dist;
//!
//! let mut predictor = Predictor::new(PredictorConfig::default());
//! for runtime in [100.0, 110.0, 95.0, 105.0] {
//!     predictor.observe(&[("user", "alice"), ("job_name", "etl")], runtime);
//! }
//! let p = predictor
//!     .predict(&[("user", "alice"), ("job_name", "etl")])
//!     .expect("history exists");
//! assert!((p.distribution.mean() - 102.5).abs() < 5.0);
//! ```

pub mod expert;
pub mod feature;
pub mod predictor;

pub use expert::{EstimatorKind, ValueState, ESTIMATORS};
pub use feature::{AttributeSource, Feature, FeatureSet};
pub use predictor::{
    Choice, FeatureStats, Prediction, Predictor, PredictorConfig, PredictorStats, QuickStats,
    Snapshot,
};
