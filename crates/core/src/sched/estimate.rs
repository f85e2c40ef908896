//! Where a job's runtime estimate comes from (Table 1): the
//! [`EstimateSource`]s, and the one place that decides whether a source
//! reads 3σPredict ([`EstimateSource::reads_predictor`]). Oracle and
//! injected sources ignore the predictor; the predicted ones turn its
//! choice of expert into a distribution, shared per predictor state
//! version ([`Discretised`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use threesigma_cluster::{Attributes, JobId, JobSpec};
use threesigma_predict::{AttributeSource, Choice, EstimatorKind, Predictor};

use crate::DiscreteDist;

/// Where runtime estimates come from (Table 1).
#[derive(Clone)]
pub enum EstimateSource {
    /// Full distributions from 3σPredict (the 3Sigma system).
    Predicted,
    /// Point estimates from 3σPredict (PointRealEst / 3SigmaNoDist).
    PredictedPoint,
    /// Point estimates padded by `k` standard deviations of the predicted
    /// distribution — the conservative "stochastic scheduler" heuristic the
    /// paper discusses among the mis-estimate mitigations (§2.2).
    PredictedPadded {
        /// Standard deviations of padding added to the point estimate.
        sigmas: f64,
    },
    /// Oracle: the job's true runtime as a point (PointPerfEst).
    OraclePoint,
    /// Externally injected distributions keyed by job id (the §6.3
    /// perturbation study); falls back to the oracle point when missing.
    Injected(Arc<HashMap<JobId, DiscreteDist>>),
}

impl std::fmt::Debug for EstimateSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateSource::Predicted => write!(f, "Predicted"),
            EstimateSource::PredictedPoint => write!(f, "PredictedPoint"),
            EstimateSource::PredictedPadded { sigmas } => {
                write!(f, "PredictedPadded({sigmas}σ)")
            }
            EstimateSource::OraclePoint => write!(f, "OraclePoint"),
            EstimateSource::Injected(m) => write!(f, "Injected({} jobs)", m.len()),
        }
    }
}

impl EstimateSource {
    /// Whether this source's estimates come from 3σPredict, so that its
    /// history (pretraining) moves them.
    pub(crate) fn reads_predictor(&self) -> bool {
        match self {
            EstimateSource::Predicted
            | EstimateSource::PredictedPoint
            | EstimateSource::PredictedPadded { .. } => true,
            EstimateSource::OraclePoint | EstimateSource::Injected(_) => false,
        }
    }
}

/// Adapter exposing cluster attributes to the predictor.
pub(crate) struct Attrs<'a>(pub(crate) &'a Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// The (feature, estimator) expert a prediction came from.
pub(crate) type Expert = (&'static str, EstimatorKind);

/// Predicted distributions by predictor state version
/// ([`Choice::version`]): a version names one unchanged history, so every
/// pending job whose prediction picks it shares one distribution instead
/// of building it from the same histogram again.
#[derive(Default)]
pub(crate) struct Discretised(BTreeMap<u64, Arc<DiscreteDist>>);

impl Discretised {
    /// The distribution of `choice`'s winning state.
    fn get(&mut self, choice: &Choice<'_>) -> Arc<DiscreteDist> {
        let d = self.0.entry(choice.version).or_insert_with(|| {
            // A chosen state has history, so it has a distribution.
            Arc::new(choice.distribution().unwrap_or_else(cold_start_dist))
        });
        Arc::clone(d)
    }

    /// Drops every distribution no estimate holds any more. Called once a
    /// cycle: what a pending or running job holds stays (its version may
    /// still be current), and the rest is at most one cycle's new entries.
    pub(crate) fn prune(&mut self) {
        self.0.retain(|_, d| Arc::strong_count(d) > 1);
    }

    /// Distributions held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// A job's estimate distribution from `source`, and the expert the
/// predictor chose for it (sources that read the predictor, once it has
/// history).
///
/// Free function (rather than a method) so the scheduling cycle can call it
/// from inside [`EstimateCache::base`](super::options::EstimateCache::base)
/// closures while the cache itself is mutably borrowed.
pub(crate) fn estimate(
    source: &EstimateSource,
    predictor: &Predictor,
    discretised: &mut Discretised,
    spec: &JobSpec,
) -> (Arc<DiscreteDist>, Option<Expert>) {
    if !source.reads_predictor() {
        let injected = match source {
            EstimateSource::Injected(map) => map.get(&spec.id).cloned(),
            _ => None,
        };
        let d = injected.unwrap_or_else(|| DiscreteDist::point(spec.duration));
        return (Arc::new(d), None);
    }
    let choice = predictor.choose(&Attrs(&spec.attributes));
    let d = from_choice(source, choice.as_ref(), discretised);
    (d, choice.map(|c| (c.feature, c.estimator)))
}

/// [`estimate`] outside the scheduling cycle's sharing (a running attempt
/// seen without a hand-off, and tests).
pub(crate) fn unshared_estimate(
    source: &EstimateSource,
    predictor: &Predictor,
    spec: &JobSpec,
) -> DiscreteDist {
    let (d, _) = estimate(source, predictor, &mut Discretised::default(), spec);
    Arc::unwrap_or_clone(d)
}

/// The estimate a predicted source ([`EstimateSource::Predicted`],
/// [`EstimateSource::PredictedPoint`] or
/// [`EstimateSource::PredictedPadded`]) makes from the predictor's
/// `choice` (`None`: no history yet).
fn from_choice(
    source: &EstimateSource,
    choice: Option<&Choice<'_>>,
    discretised: &mut Discretised,
) -> Arc<DiscreteDist> {
    match (source, choice) {
        (EstimateSource::PredictedPadded { sigmas }, Some(c)) => {
            // Pad around the predicted distribution's own mean: the base
            // and the variance must come from the same estimator.
            let d = discretised.get(c);
            Arc::new(DiscreteDist::point(d.mean() + sigmas * d.variance().sqrt()))
        }
        (EstimateSource::PredictedPadded { .. } | EstimateSource::PredictedPoint, None) => {
            Arc::new(DiscreteDist::point(300.0))
        }
        (EstimateSource::PredictedPoint, Some(c)) => Arc::new(DiscreteDist::point(c.point)),
        (_, Some(c)) => discretised.get(c),
        (_, None) => Arc::new(cold_start_dist()),
    }
}

/// With zero history anywhere (cold start), assume a broad prior.
fn cold_start_dist() -> DiscreteDist {
    DiscreteDist::log_normal(300f64.ln(), 1.0, 16)
}
