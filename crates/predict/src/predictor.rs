//! The predictor: expert selection across features.
//!
//! For a new job, every feature value the job matches contributes up to four
//! experts. The expert with the lowest NMAE over its past predictions wins;
//! its feature value's histogram becomes the job's distribution estimate and
//! its point estimate is the JVuPredict-style point prediction (§4.1).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use threesigma_histogram::RuntimeDistribution;

use crate::expert::{EstimatorKind, ValueState, ESTIMATORS};
use crate::feature::{value_of, AttributeSource, FeatureSet};

#[cfg(test)]
mod reference;

/// Predictor tuning knobs.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Streaming-histogram bin budget (paper: 80).
    pub max_bins: usize,
    /// Window for the median / recent-average experts.
    pub recent_window: usize,
    /// Rolling-expert smoothing factor (paper: 0.6).
    pub ewma_alpha: f64,
    /// Optional cap on visible samples per feature value (Fig. 11 study).
    pub sample_cap: Option<usize>,
    /// Minimum scored predictions before an expert's NMAE is trusted.
    pub min_expert_evals: u64,
    /// Optional cap on distinct `(feature, value)` states tracked. When a
    /// new value would exceed it, the least-recently-*observed* state is
    /// evicted (prediction reads do not refresh recency, keeping `predict`
    /// immutable and deterministic). `None` = unbounded (batch runs).
    pub max_tracked_values: Option<usize>,
    /// Optional TTL, in *observations* (the predictor's logical clock): a
    /// state untouched for more than this many observation-touches is
    /// evicted on the next observe. `None` = no expiry.
    pub value_ttl: Option<u64>,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            max_bins: 80,
            recent_window: 10,
            ewma_alpha: 0.6,
            sample_cap: None,
            min_expert_evals: 3,
            max_tracked_values: None,
            value_ttl: None,
        }
    }
}

/// A runtime prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Estimated runtime distribution (the winning feature value's history).
    pub distribution: RuntimeDistribution,
    /// The winning expert's point estimate (JVuPredict's output).
    pub point: f64,
    /// Name of the winning feature.
    pub feature: &'static str,
    /// The winning estimator.
    pub estimator: EstimatorKind,
    /// Number of history samples behind the distribution.
    pub history: u64,
    /// Version of the winning feature value's history (see
    /// [`Choice::version`]).
    pub version: u64,
}

/// The winning expert of a prediction, before its distribution is built
/// (see [`Predictor::choose`]).
#[derive(Debug, Clone, Copy)]
pub struct Choice<'a> {
    state: &'a ValueState,
    /// The winning expert's point estimate (JVuPredict's output).
    pub point: f64,
    /// Name of the winning feature.
    pub feature: &'static str,
    /// The winning estimator.
    pub estimator: EstimatorKind,
    /// Number of history samples behind the distribution.
    pub history: u64,
    /// Version of the winning feature value's history: its last touch.
    /// Touches are unique across every tracked value and each observation
    /// makes a new one, so two choices with one version read the same
    /// history and have the same distribution.
    pub version: u64,
}

impl Choice<'_> {
    /// The winning feature value's runtime distribution (a copy of its
    /// histogram, or one built from its capped sample window).
    pub fn distribution(&self) -> Option<RuntimeDistribution> {
        self.state.distribution()
    }

    /// The full prediction: this choice plus its distribution.
    pub fn prediction(&self) -> Option<Prediction> {
        Some(Prediction {
            distribution: self.distribution()?,
            point: self.point,
            feature: self.feature,
            estimator: self.estimator,
            history: self.history,
            version: self.version,
        })
    }
}

/// One tracked feature value.
#[derive(Debug)]
struct Tracked {
    state: ValueState,
    /// The state's four estimates, indexed by [`EstimatorKind::index`], as
    /// its last observation left them: the next observation is scored
    /// against them and predictions read them.
    estimates: [Option<f64>; 4],
    /// The clock at the last observation (the state's version).
    touch: u64,
}

/// 3σPredict: per-feature-value histories plus online expert selection.
#[derive(Debug)]
pub struct Predictor {
    config: PredictorConfig,
    features: FeatureSet,
    /// Tracked values per feature (indexed like `features`), by value.
    /// Ordered maps: `stats`/`snapshot`/`restore` iterate them, and both
    /// expert scoring and snapshot bytes must not depend on hash order.
    values: Vec<BTreeMap<String, Tracked>>,
    /// Logical observation clock: advances once per feature-value touch in
    /// [`observe`](Self::observe). Drives LRU/TTL eviction and is persisted
    /// in snapshots so eviction order survives restarts bit-for-bit.
    clock: u64,
    /// Recency index, kept only under an LRU cap or a TTL: touch →
    /// `(feature index, value)`. Touches are unique, so ascending touch is
    /// `(touch, feature, value)` order and the least-recently-observed
    /// entry is always first.
    by_touch: BTreeMap<u64, (usize, String)>,
    /// Feature-value states evicted by the LRU cap or TTL (memory gauge).
    evictions: u64,
    /// Running totals maintained by [`observe`](Self::observe) so
    /// [`quick_stats`](Self::quick_stats) is O(1); [`stats`](Self::stats)
    /// recomputes the same sums exactly by scanning.
    observations: u64,
    bin_merges: u64,
    /// Truncated (killed/failed) runs recorded as censored lower bounds —
    /// counted for telemetry, never folded into the histories.
    censored: u64,
    /// Lowest scored-expert NMAE seen so far (historical minimum).
    best_nmae_seen: Option<f64>,
    /// Reused buffers: a multi-key feature value's join, and the median
    /// expert's sorted window.
    key: String,
    scratch: Vec<f64>,
}

impl Predictor {
    /// Predictor with the standard feature set.
    pub fn new(config: PredictorConfig) -> Self {
        Self::with_features(config, FeatureSet::standard())
    }

    /// Predictor with an explicit feature set.
    fn with_features(config: PredictorConfig, features: FeatureSet) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        Self {
            config,
            values: features.features.iter().map(|_| BTreeMap::new()).collect(),
            features,
            clock: 0,
            by_touch: BTreeMap::new(),
            evictions: 0,
            observations: 0,
            bin_merges: 0,
            censored: 0,
            best_nmae_seen: None,
            key: String::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of distinct feature values tracked (memory gauge).
    pub fn tracked_values(&self) -> usize {
        self.values.iter().map(BTreeMap::len).sum()
    }

    /// True when eviction needs the recency index.
    fn keeps_recency(&self) -> bool {
        self.config.max_tracked_values.is_some() || self.config.value_ttl.is_some()
    }

    /// The canonical `&'static str` for a feature name this predictor
    /// tracks, or `None` for an unknown feature. Lets callers rehydrate
    /// borrowed feature names from serialized state (serve-mode restore).
    pub fn canonical_feature(&self, name: &str) -> Option<&'static str> {
        self.features
            .features
            .iter()
            .map(|f| f.name)
            .find(|n| *n == name)
    }

    /// Records a completed job's measured runtime against all its features.
    pub fn observe(&mut self, attrs: &impl AttributeSource, runtime: f64) {
        if !(runtime.is_finite() && runtime > 0.0) {
            return; // defensive: never poison history with bad samples
        }
        let recency = self.keeps_recency();
        let Self {
            config: cfg,
            features,
            values,
            clock,
            by_touch,
            observations,
            bin_merges,
            best_nmae_seen,
            key,
            scratch,
            ..
        } = self;
        for (fi, (feature, map)) in features.features.iter().zip(values).enumerate() {
            let Some(value) = value_of(feature, attrs, key) else {
                continue;
            };
            *clock += 1;
            let now = *clock;
            let tracked = match map.get_mut(value) {
                Some(tracked) => {
                    // Move the index entry (if kept), key and all.
                    if let Some(entry) = by_touch.remove(&tracked.touch) {
                        by_touch.insert(now, entry);
                    }
                    tracked
                }
                None => {
                    if recency {
                        by_touch.insert(now, (fi, value.to_owned()));
                    }
                    let state = ValueState::new(
                        cfg.max_bins,
                        cfg.recent_window,
                        cfg.ewma_alpha,
                        cfg.sample_cap,
                    );
                    map.entry(value.to_owned()).or_insert(Tracked {
                        state,
                        estimates: [None; 4],
                        touch: now,
                    })
                }
            };
            tracked.touch = now;
            let state = &mut tracked.state;
            let (count_before, merges_before) = (state.count(), state.bin_merges());
            state.fold(runtime, &tracked.estimates);
            tracked.estimates = state.estimates(scratch);
            // Count deltas rather than inserts: a sample cap keeps
            // `count()` flat, and one insert can trigger several merges.
            *observations += state.count().saturating_sub(count_before);
            *bin_merges += state.bin_merges().saturating_sub(merges_before);
            if let Some(n) = state.best_nmae() {
                *best_nmae_seen = Some(best_nmae_seen.map_or(n, |cur| cur.min(n)));
            }
        }
        self.enforce_bounds();
    }

    /// Applies the LRU cap and TTL (see [`PredictorConfig`]), evicting
    /// least-recently-observed states first. Running totals shrink with the
    /// evicted history so `quick_stats` keeps agreeing with a full scan.
    fn enforce_bounds(&mut self) {
        if let Some(ttl) = self.config.value_ttl {
            while let Some((&oldest, _)) = self.by_touch.first_key_value() {
                if self.clock.saturating_sub(oldest) <= ttl {
                    break;
                }
                self.evict_oldest();
            }
        }
        if let Some(cap) = self.config.max_tracked_values {
            while self.tracked_values() > cap && self.evict_oldest() {}
        }
    }

    /// Evicts the least-recently-observed state; false when none is left.
    fn evict_oldest(&mut self) -> bool {
        let Some((_, (fi, value))) = self.by_touch.pop_first() else {
            return false;
        };
        if let Some(tracked) = self.values[fi].remove(&value) {
            let state = &tracked.state;
            self.observations = self.observations.saturating_sub(state.count());
            self.bin_merges = self.bin_merges.saturating_sub(state.bin_merges());
            self.evictions += 1;
        }
        true
    }

    /// Feature-value states evicted so far by the LRU cap or TTL.
    pub fn evicted_values(&self) -> u64 {
        self.evictions
    }

    /// The configured cap on tracked values, if any (bound gauge).
    pub fn tracked_values_limit(&self) -> Option<usize> {
        self.config.max_tracked_values
    }

    /// Records a *censored* observation: a run that was killed after
    /// `elapsed` seconds, so the true runtime is only known to be ≥
    /// `elapsed`.
    ///
    /// Censored samples must never enter the per-feature histograms or the
    /// expert NMAE scores — folding a truncated runtime in as if it were a
    /// completion would bias every history toward shorter runtimes (the
    /// jobs most likely to be killed are exactly the long ones). The full
    /// Kaplan–Meier-style reweighting the stochastic-scheduling literature
    /// uses needs the whole history per value; until that lands, the
    /// lower bound is recorded for telemetry only so runs can prove no
    /// truncated runtime leaked into the histories.
    pub fn observe_censored(&mut self, _attrs: &impl AttributeSource, elapsed: f64) {
        if !(elapsed.is_finite() && elapsed >= 0.0) {
            return; // same defensive posture as `observe`
        }
        self.censored += 1;
    }

    /// Censored (killed/failed) runs recorded so far. These are *not*
    /// included in [`quick_stats`](Self::quick_stats)' `observations`.
    pub fn censored_observations(&self) -> u64 {
        self.censored
    }

    /// Predicts the runtime distribution for a job with the given
    /// attributes. `None` when no matching feature value has any history.
    pub fn predict(&self, attrs: &impl AttributeSource) -> Option<Prediction> {
        self.choose(attrs)?.prediction()
    }

    /// The expert [`predict`](Self::predict) picks, without building its
    /// distribution: the scored expert with the lowest trusted NMAE (ties
    /// to more history), else the one with the most history, preferring
    /// the median estimator.
    pub fn choose(&self, attrs: &impl AttributeSource) -> Option<Choice<'_>> {
        let mut best_scored: Option<(f64, u64, &Tracked, usize, EstimatorKind)> = None;
        let mut best_fallback: Option<(u64, &Tracked, usize, EstimatorKind)> = None;
        let mut key = String::new();

        for (fi, (feature, map)) in self.features.features.iter().zip(&self.values).enumerate() {
            let Some(tracked) = value_of(feature, attrs, &mut key).and_then(|v| map.get(v)) else {
                continue;
            };
            let history = tracked.state.count();
            if history == 0 {
                continue;
            }
            for kind in ESTIMATORS {
                if tracked.estimates[kind.index()].is_none() {
                    continue;
                }
                let score = tracked.state.score(kind);
                match score.nmae() {
                    Some(nmae) if score.evals >= self.config.min_expert_evals => {
                        let better = match &best_scored {
                            None => true,
                            Some((b_nmae, b_hist, ..)) => {
                                nmae < *b_nmae - 1e-12
                                    || ((nmae - *b_nmae).abs() <= 1e-12 && history > *b_hist)
                            }
                        };
                        if better {
                            best_scored = Some((nmae, history, tracked, fi, kind));
                        }
                    }
                    _ => {
                        let pref = kind == EstimatorKind::RecentMedian;
                        let better = match &best_fallback {
                            None => true,
                            Some((b_hist, _, _, b_kind)) => {
                                history > *b_hist
                                    || (history == *b_hist
                                        && pref
                                        && *b_kind != EstimatorKind::RecentMedian)
                            }
                        };
                        if better {
                            best_fallback = Some((history, tracked, fi, kind));
                        }
                    }
                }
            }
        }

        let (tracked, fi, kind) = match (best_scored, best_fallback) {
            (Some((_, _, t, fi, k)), _) => (t, fi, k),
            (None, Some((_, t, fi, k))) => (t, fi, k),
            (None, None) => return None,
        };
        Some(Choice {
            state: &tracked.state,
            point: tracked.estimates[kind.index()]?,
            feature: self.features.features[fi].name,
            estimator: kind,
            history: tracked.state.count(),
            version: tracked.touch,
        })
    }

    /// JVuPredict: just the winning expert's point estimate.
    pub fn predict_point(&self, attrs: &impl AttributeSource) -> Option<f64> {
        self.choose(attrs).map(|c| c.point)
    }

    /// Every tracked value as `(feature index, value, tracked)`, in
    /// `(feature, value)` order.
    fn tracked(&self) -> impl Iterator<Item = (usize, &String, &Tracked)> {
        (self.values.iter().enumerate())
            .flat_map(|(fi, map)| map.iter().map(move |(value, t)| (fi, value, t)))
    }

    /// Aggregate telemetry over the predictor's state: per-feature history
    /// sizes, sketch compression (bin merges), and the best expert NMAE.
    pub fn stats(&self) -> PredictorStats {
        let mut per_feature: Vec<FeatureStats> = self
            .features
            .features
            .iter()
            .map(|f| FeatureStats {
                feature: f.name,
                values: 0,
                observations: 0,
                bin_merges: 0,
                best_nmae: None,
            })
            .collect();
        for (fi, _, tracked) in self.tracked() {
            let (fs, state) = (&mut per_feature[fi], &tracked.state);
            fs.values += 1;
            fs.observations += state.count();
            fs.bin_merges += state.bin_merges();
            if let Some(n) = state.best_nmae() {
                fs.best_nmae = Some(fs.best_nmae.map_or(n, |cur| cur.min(n)));
            }
        }
        PredictorStats {
            tracked_values: self.tracked_values(),
            observations: per_feature.iter().map(|f| f.observations).sum(),
            bin_merges: per_feature.iter().map(|f| f.bin_merges).sum(),
            per_feature,
        }
    }

    /// O(1) aggregate telemetry from the running totals maintained by
    /// [`observe`](Self::observe) — the per-scheduling-cycle metrics flush
    /// uses this instead of [`stats`](Self::stats), whose full scan over
    /// every tracked feature value is too slow for a hot path.
    ///
    /// `observations` and `bin_merges` agree exactly with [`stats`];
    /// `best_nmae` is the *historical* minimum (lowest scored-expert NMAE
    /// seen so far), whereas [`stats`] reports the current minimum.
    pub fn quick_stats(&self) -> QuickStats {
        QuickStats {
            tracked_values: self.tracked_values(),
            observations: self.observations,
            bin_merges: self.bin_merges,
            censored: self.censored,
            evictions: self.evictions,
            best_nmae: self.best_nmae_seen,
        }
    }

    /// Serialisable snapshot of the trained state (histories + scores).
    ///
    /// Restoring requires the same feature set and config; this is how a
    /// long-lived deployment persists its history database across restarts.
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = Snapshot {
            entries: Vec::with_capacity(self.tracked_values()),
            touches: Vec::with_capacity(self.tracked_values()),
            clock: self.clock,
            evictions: self.evictions,
            censored: self.censored,
            best_nmae: self.best_nmae_seen,
        };
        for (fi, map) in self.values.iter().enumerate() {
            for (value, t) in map {
                snapshot.entries.push((fi, value.clone(), t.state.clone()));
                snapshot.touches.push(t.touch);
            }
        }
        snapshot
    }

    /// Restores a snapshot taken by [`snapshot`](Self::snapshot), replacing
    /// any current state.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the predictor unchanged, a snapshot that
    /// references a feature this predictor does not have, whose touch
    /// list does not pair one touch with each entry, or that repeats a
    /// touch or a `(feature, value)` entry (touches name state versions,
    /// so they must be unique).
    pub fn restore(&mut self, snapshot: Snapshot) -> Result<(), String> {
        for (fi, _, _) in &snapshot.entries {
            if *fi >= self.features.len() {
                return Err(format!("entry references unknown feature {fi}"));
            }
        }
        if snapshot.touches.len() != snapshot.entries.len() {
            return Err(format!(
                "{} touches for {} entries",
                snapshot.touches.len(),
                snapshot.entries.len()
            ));
        }
        let mut seen = BTreeSet::new();
        if let Some(t) = snapshot.touches.iter().find(|t| !seen.insert(**t)) {
            return Err(format!("touch {t} is repeated"));
        }
        let mut values: Vec<BTreeMap<String, Tracked>> = self
            .features
            .features
            .iter()
            .map(|_| BTreeMap::new())
            .collect();
        for ((fi, value, state), touch) in snapshot.entries.into_iter().zip(snapshot.touches) {
            if values[fi].contains_key(&value) {
                return Err(format!("entry ({fi}, {value:?}) is repeated"));
            }
            let estimates = state.estimates(&mut self.scratch);
            values[fi].insert(
                value,
                Tracked {
                    state,
                    estimates,
                    touch,
                },
            );
        }
        self.values = values;
        let max_touch = self.tracked().map(|(_, _, t)| t.touch).max().unwrap_or(0);
        self.by_touch = BTreeMap::new();
        if self.keeps_recency() {
            let index: Vec<_> = (self.tracked())
                .map(|(fi, value, t)| (t.touch, (fi, value.clone())))
                .collect();
            self.by_touch.extend(index);
        }
        self.clock = snapshot.clock.max(max_touch);
        self.evictions = snapshot.evictions;
        self.censored = snapshot.censored;
        // Rebuild the running totals from the restored state (one-off scan —
        // exact, since eviction subtracts the departing history from both).
        self.observations = self.tracked().map(|(_, _, t)| t.state.count()).sum();
        self.bin_merges = self.tracked().map(|(_, _, t)| t.state.bin_merges()).sum();
        // The historical-best NMAE travels in the snapshot (a restarted
        // serve session must republish the same gauge). `observe` already
        // folded every state's score into it.
        self.best_nmae_seen = snapshot.best_nmae;
        Ok(())
    }
}

/// Serialisable predictor state (see [`Predictor::snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// `(feature index, feature value, state)` triples.
    entries: Vec<(usize, String, ValueState)>,
    /// Last-touch clock per entry (same order and length as `entries`).
    touches: Vec<u64>,
    /// Logical observation clock at snapshot time.
    clock: u64,
    /// Evictions performed before the snapshot (gauge continuity).
    evictions: u64,
    /// Censored observations recorded before the snapshot.
    censored: u64,
    /// Lowest scored-expert NMAE ever seen (including evicted states and
    /// past scores); `None` until an expert is scored.
    best_nmae: Option<f64>,
}

/// Telemetry for one feature (see [`Predictor::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStats {
    /// Feature name.
    pub feature: &'static str,
    /// Distinct values tracked for this feature.
    pub values: usize,
    /// Total runtimes folded into this feature's histories.
    pub observations: u64,
    /// Histogram bin merges across this feature's sketches.
    pub bin_merges: u64,
    /// Lowest scored-expert NMAE across this feature's values, `None`
    /// before any expert evaluation.
    pub best_nmae: Option<f64>,
}

/// O(1) aggregate telemetry (see [`Predictor::quick_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuickStats {
    /// Distinct `(feature, value)` pairs tracked (memory gauge).
    pub tracked_values: usize,
    /// Total observations across all feature values.
    pub observations: u64,
    /// Total histogram bin merges across all sketches.
    pub bin_merges: u64,
    /// Censored (killed/failed) runs recorded as lower bounds only — never
    /// folded into the histories, so disjoint from `observations`.
    pub censored: u64,
    /// Feature-value states evicted by the LRU cap or TTL (memory gauge;
    /// their history left `observations`/`bin_merges` when they went).
    pub evictions: u64,
    /// Lowest scored-expert NMAE seen so far, `None` before any expert
    /// evaluation.
    pub best_nmae: Option<f64>,
}

/// Aggregate predictor telemetry (see [`Predictor::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorStats {
    /// Distinct `(feature, value)` pairs tracked (memory gauge).
    pub tracked_values: usize,
    /// Total observations across all feature values.
    pub observations: u64,
    /// Total histogram bin merges across all sketches.
    pub bin_merges: u64,
    /// Per-feature breakdown, in feature-set order.
    pub per_feature: Vec<FeatureStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use threesigma_histogram::Dist;

    fn attrs(user: &str, name: &str) -> [(String, String); 4] {
        [
            ("user".to_owned(), user.to_owned()),
            ("job_name".to_owned(), name.to_owned()),
            ("priority".to_owned(), "5".to_owned()),
            ("tasks".to_owned(), "4".to_owned()),
        ]
    }

    #[test]
    fn no_history_yields_none() {
        let p = Predictor::new(PredictorConfig::default());
        assert!(p.predict(&attrs("alice", "etl")).is_none());
    }

    #[test]
    fn learns_a_constant_user() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..20 {
            p.observe(&attrs("alice", "etl"), 120.0);
        }
        let pred = p.predict(&attrs("alice", "etl")).unwrap();
        assert!((pred.point - 120.0).abs() < 1e-9);
        assert!((pred.distribution.mean() - 120.0).abs() < 1e-9);
        assert!(pred.history >= 20);
    }

    #[test]
    fn global_fallback_covers_unseen_users() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..10 {
            p.observe(&attrs("alice", "etl"), 100.0);
        }
        // Bob shares no attribute value with alice: only the global
        // feature has history for him.
        let bob = [
            ("user".to_owned(), "bob".to_owned()),
            ("job_name".to_owned(), "novel".to_owned()),
            ("priority".to_owned(), "9".to_owned()),
            ("tasks".to_owned(), "99".to_owned()),
        ];
        let pred = p.predict(&bob).unwrap();
        assert_eq!(pred.feature, "global");
        assert!((pred.point - 100.0).abs() < 1e-9);
    }

    #[test]
    fn selects_the_predictive_feature() {
        // job_name is noisy across users; user is perfectly predictive.
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..30 {
            p.observe(&attrs("alice", "shared"), 100.0);
            p.observe(
                &attrs(&format!("other{}", i % 5), "shared"),
                2000.0 + i as f64 * 37.0,
            );
        }
        let pred = p.predict(&attrs("alice", "shared")).unwrap();
        assert!(
            (pred.point - 100.0).abs() < 1.0,
            "picked alice-specific history, got {} via {}",
            pred.point,
            pred.feature
        );
        assert!(pred.feature.contains("user"));
    }

    #[test]
    fn distribution_covers_multi_modal_history() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..40 {
            let rt = if i % 2 == 0 { 60.0 } else { 600.0 };
            p.observe(&attrs("carol", "sweep"), rt);
        }
        let pred = p.predict(&attrs("carol", "sweep")).unwrap();
        let d = &pred.distribution;
        assert!(d.lower_bound() <= 60.0 + 1e-9);
        assert!(d.upper_bound() >= 600.0 - 1e-9);
        // Both modes carry mass (the histogram interpolation smears some
        // mass between the modes, hence the generous band).
        assert!(d.cdf(100.0) > 0.2 && d.cdf(100.0) < 0.8);
    }

    #[test]
    fn adapts_when_runtimes_drift() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..30 {
            p.observe(&attrs("dave", "etl"), 100.0);
        }
        for _ in 0..30 {
            p.observe(&attrs("dave", "etl"), 1000.0);
        }
        let pred = p.predict(&attrs("dave", "etl")).unwrap();
        // A recent-window expert should have won; estimate near new regime.
        assert!(
            pred.point > 800.0,
            "point {} via {:?}",
            pred.point,
            pred.estimator
        );
    }

    #[test]
    fn sample_cap_flows_through() {
        let mut p = Predictor::new(PredictorConfig {
            sample_cap: Some(5),
            ..PredictorConfig::default()
        });
        for _ in 0..50 {
            p.observe(&attrs("erin", "etl"), 500.0);
        }
        for _ in 0..5 {
            p.observe(&attrs("erin", "etl"), 50.0);
        }
        let pred = p.predict(&attrs("erin", "etl")).unwrap();
        assert_eq!(pred.history, 5);
        assert!(pred.distribution.upper_bound() <= 50.0 + 1e-9);
    }

    #[test]
    fn ignores_degenerate_runtimes() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("f", "g"), f64::NAN);
        p.observe(&attrs("f", "g"), -5.0);
        p.observe(&attrs("f", "g"), 0.0);
        assert!(p.predict(&attrs("f", "g")).is_none());
    }

    #[test]
    fn predict_point_matches_prediction_point() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..15 {
            p.observe(&attrs("zoe", "job"), 60.0 + i as f64);
        }
        let full = p.predict(&attrs("zoe", "job")).unwrap();
        let point = p.predict_point(&attrs("zoe", "job")).unwrap();
        assert_eq!(full.point, point);
    }

    #[test]
    fn untrusted_experts_fall_back_to_history_size() {
        // Below min_expert_evals, the fallback (most history, preferring
        // the median) is used rather than an unscored NMAE.
        let mut p = Predictor::new(PredictorConfig {
            min_expert_evals: 1000, // never trusted
            ..PredictorConfig::default()
        });
        for _ in 0..10 {
            p.observe(&attrs("kim", "x"), 80.0);
        }
        let pred = p.predict(&attrs("kim", "x")).unwrap();
        assert_eq!(pred.estimator, EstimatorKind::RecentMedian);
        assert!((pred.point - 80.0).abs() < 1e-9);
    }

    #[test]
    fn expert_scores_prefer_recent_regime_after_shift() {
        // After a regime change, the rolling/recent experts have lower
        // NMAE than the long-run average and win selection.
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..50 {
            p.observe(&attrs("lee", "y"), 100.0);
        }
        for _ in 0..50 {
            p.observe(&attrs("lee", "y"), 1000.0);
        }
        let pred = p.predict(&attrs("lee", "y")).unwrap();
        assert_ne!(pred.estimator, EstimatorKind::Average, "{pred:?}");
    }

    #[test]
    fn single_observation_still_predicts() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("solo", "once"), 77.0);
        let pred = p.predict(&attrs("solo", "once")).unwrap();
        assert!((pred.point - 77.0).abs() < 1e-9);
        assert_eq!(pred.history, 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..40 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 7) as f64);
        }
        let before = p.predict(&attrs("ana", "etl")).unwrap();
        let snap = p.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let mut fresh = Predictor::new(PredictorConfig::default());
        fresh.restore(serde_json::from_str(&json).unwrap()).unwrap();
        let after = fresh.predict(&attrs("ana", "etl")).unwrap();
        // JSON roundtrips can flip last-ulp ties between experts; the
        // restored prediction must agree to float noise.
        assert!((after.point - before.point).abs() < 1e-6);
        assert_eq!(after.feature, before.feature);
        assert_eq!(after.history, before.history);
    }

    #[test]
    fn restore_rejects_foreign_features() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("x", "y"), 10.0);
        let mut snap = p.snapshot();
        // Corrupt one entry with an out-of-range feature index.
        snap.entries
            .push((999, "v".into(), snap.entries[0].2.clone()));
        let mut fresh = Predictor::new(PredictorConfig::default());
        assert_eq!(
            fresh.restore(snap.clone()),
            Err("entry references unknown feature 999".into())
        );
        // A touch list that does not pair one touch with each entry is
        // refused too, not read as touch 0.
        snap.entries.pop();
        snap.touches.pop();
        let err = fresh.restore(snap).unwrap_err();
        assert!(err.contains("touches for"), "{err}");
        assert_eq!(fresh.tracked_values(), 0);
    }

    #[test]
    fn stats_aggregate_history_and_scores() {
        let mut p = Predictor::new(PredictorConfig::default());
        let empty = p.stats();
        assert_eq!(empty.observations, 0);
        assert!(empty.per_feature.iter().all(|f| f.best_nmae.is_none()));

        for i in 0..200 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 90) as f64);
        }
        let stats = p.stats();
        assert_eq!(stats.tracked_values, p.tracked_values());
        assert!(stats.observations >= 200);
        // 200 distinct-ish values through an 80-bin sketch must compress.
        assert!(stats.bin_merges > 0);
        let user = stats
            .per_feature
            .iter()
            .find(|f| f.feature == "user")
            .unwrap();
        assert_eq!(user.values, 1);
        assert_eq!(user.observations, 200);
        assert!(user.best_nmae.is_some());
        assert_eq!(p.stats(), stats);
    }

    #[test]
    fn quick_stats_match_full_stats() {
        let mut p = Predictor::new(PredictorConfig::default());
        assert_eq!(p.quick_stats().observations, 0);
        for i in 0..200 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 90) as f64);
            p.observe(&attrs("bo", "ml"), 40.0 + (i % 13) as f64);
        }
        let quick = p.quick_stats();
        let full = p.stats();
        assert_eq!(quick.tracked_values, full.tracked_values);
        assert_eq!(quick.observations, full.observations);
        assert_eq!(quick.bin_merges, full.bin_merges);
        // The historical minimum can only be at or below the current one.
        let current = full
            .per_feature
            .iter()
            .filter_map(|f| f.best_nmae)
            .min_by(f64::total_cmp);
        assert!(quick.best_nmae.is_some());
        assert!(quick.best_nmae <= current || current.is_none());
    }

    #[test]
    fn censored_observations_never_touch_the_histories() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..30 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 7) as f64);
        }
        let before = p.predict(&attrs("ana", "etl")).unwrap();
        let stats_before = p.stats();

        // A run killed after 12 s: lower bound only.
        p.observe_censored(&attrs("ana", "etl"), 12.0);
        p.observe_censored(&attrs("ana", "etl"), f64::NAN); // ignored
        p.observe_censored(&attrs("ana", "etl"), -3.0); // ignored

        assert_eq!(p.censored_observations(), 1);
        assert_eq!(p.quick_stats().censored, 1);
        // Histories, predictions, and expert scores are bit-identical:
        // the truncated runtime was not folded in as a completion.
        assert_eq!(p.stats(), stats_before);
        let after = p.predict(&attrs("ana", "etl")).unwrap();
        assert_eq!(after.point, before.point);
        assert_eq!(after.history, before.history);
        assert_eq!(p.quick_stats().observations, stats_before.observations);
    }

    #[test]
    fn quick_stats_match_full_stats_under_a_sample_cap() {
        let mut p = Predictor::new(PredictorConfig {
            sample_cap: Some(5),
            ..PredictorConfig::default()
        });
        for _ in 0..50 {
            p.observe(&attrs("erin", "etl"), 500.0);
        }
        assert_eq!(p.quick_stats().observations, p.stats().observations);
        assert_eq!(p.quick_stats().bin_merges, p.stats().bin_merges);
    }

    #[test]
    fn restore_rebuilds_quick_stats() {
        let mut p = Predictor::new(PredictorConfig::default());
        for i in 0..60 {
            p.observe(&attrs("ana", "etl"), 100.0 + (i % 31) as f64);
        }
        let snap = p.snapshot();
        let mut fresh = Predictor::new(PredictorConfig::default());
        fresh.restore(snap).unwrap();
        assert_eq!(fresh.quick_stats().observations, p.stats().observations);
        assert_eq!(fresh.quick_stats().bin_merges, p.stats().bin_merges);
        assert_eq!(fresh.quick_stats().tracked_values, p.tracked_values());
    }

    #[test]
    fn lru_cap_bounds_tracked_values() {
        let mut p = Predictor::new(PredictorConfig {
            max_tracked_values: Some(12),
            ..PredictorConfig::default()
        });
        for i in 0..200u32 {
            p.observe(&attrs(&format!("user{i}"), &format!("job{i}")), 50.0);
            assert!(
                p.tracked_values() <= 12,
                "cap exceeded at i={i}: {}",
                p.tracked_values()
            );
        }
        assert!(p.evicted_values() > 0);
        assert_eq!(p.quick_stats().evictions, p.evicted_values());
        // Totals shrank with the evicted history: the O(1) counters still
        // agree with a full scan of what remains.
        assert_eq!(p.quick_stats().observations, p.stats().observations);
        assert_eq!(p.quick_stats().bin_merges, p.stats().bin_merges);
        // The most recent user survived; ancient ones are gone.
        assert!(p.predict(&attrs("user199", "job199")).is_some());
    }

    #[test]
    fn ttl_evicts_stale_values() {
        // Each observe touches 5 features (4 attrs + global). TTL of 40
        // touches ≈ 8 observes: a value untouched for longer expires.
        let mut p = Predictor::new(PredictorConfig {
            value_ttl: Some(40),
            ..PredictorConfig::default()
        });
        p.observe(&attrs("old", "old_job"), 100.0);
        for i in 0..30u32 {
            p.observe(&attrs("fresh", &format!("job{i}")), 50.0);
        }
        assert!(p.evicted_values() > 0);
        // The stale user-specific history is gone; fresh history remains.
        let pred = p.predict(&attrs("old", "old_job")).unwrap();
        assert_ne!(pred.feature, "user", "stale per-user state must expire");
        assert!(p.predict(&attrs("fresh", "job0")).is_some());
    }

    #[test]
    fn snapshot_preserves_lru_order_across_restore() {
        let cfg = || PredictorConfig {
            max_tracked_values: Some(10),
            ..PredictorConfig::default()
        };
        let mut a = Predictor::new(cfg());
        for i in 0..40u32 {
            a.observe(&attrs(&format!("u{i}"), "shared"), 60.0);
        }
        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let mut b = Predictor::new(cfg());
        b.restore(serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(b.tracked_values(), a.tracked_values());
        assert_eq!(b.quick_stats().evictions, a.quick_stats().evictions);
        // Continue both identically: eviction decisions must match because
        // the touch order was persisted, not reconstructed.
        for i in 100..120u32 {
            a.observe(&attrs(&format!("u{i}"), "shared"), 60.0);
            b.observe(&attrs(&format!("u{i}"), "shared"), 60.0);
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap(),
            "restored predictor must evolve byte-identically"
        );
    }

    #[test]
    fn snapshot_carries_censored_count() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("a", "b"), 10.0);
        p.observe_censored(&attrs("a", "b"), 3.0);
        let mut fresh = Predictor::new(PredictorConfig::default());
        fresh.restore(p.snapshot()).unwrap();
        assert_eq!(fresh.censored_observations(), 1);
    }

    /// Feature, estimator, history, version, point bits, mass-point bits.
    type PredictionBits = (&'static str, EstimatorKind, u64, u64, u64, Vec<(u64, u64)>);

    /// Everything of a prediction the scheduler reads, as bits.
    fn prediction_bits(p: Option<Prediction>) -> Option<PredictionBits> {
        p.map(|p| {
            let points = (p.distribution.mass_points(40).iter())
                .map(|(t, w)| (t.to_bits(), w.to_bits()))
                .collect();
            (
                p.feature,
                p.estimator,
                p.history,
                p.version,
                p.point.to_bits(),
                points,
            )
        })
    }

    fn keys(p: &Predictor) -> Vec<(usize, String)> {
        p.tracked()
            .map(|(fi, value, _)| (fi, value.clone()))
            .collect()
    }

    fn json(snapshot: &Snapshot) -> String {
        serde_json::to_string(snapshot).unwrap()
    }

    proptest::proptest! {
        /// The interned predictor equals the reference (the predictor as it
        /// was before) on random attribute/runtime streams, with and without
        /// an LRU cap and a TTL, with and without a sample cap: the same
        /// key set and evictions after every operation (so the same
        /// eviction sequence), the same prediction for the operation's job
        /// and a fixed probe (feature, estimator, history, version, point
        /// bits, mass-point bits), and at the end the same `stats()`,
        /// `quick_stats()` and snapshot JSON — also after both restore one
        /// snapshot mid-stream and continue.
        #[test]
        fn interned_predictor_matches_the_reference(
            bounds in 0u8..4,
            capped in 0u8..3,
            evals in 1u64..5,
            len in 1usize..160,
            users in proptest::collection::vec(0u8..9, 160),
            names in proptest::collection::vec(0u8..7, 160),
            kinds in proptest::collection::vec(0u8..16, 160),
            runtimes in proptest::collection::vec(1.0f64..2000.0, 160),
            restart_at in 0usize..200,
        ) {
            let cfg = PredictorConfig {
                max_tracked_values: (bounds & 1 == 1).then_some(7 + usize::from(users[0] % 8)),
                value_ttl: (bounds & 2 == 2).then_some(20 + u64::from(names[0]) * 5),
                sample_cap: (capped == 0).then_some(4),
                min_expert_evals: evals,
                ..PredictorConfig::default()
            };
            let mut new = Predictor::new(cfg.clone());
            let mut old = reference::Reference::new(cfg.clone());
            let probe = attrs("u0", "j0");
            for i in 0..len {
                let job = if names[i] == 6 {
                    // No job name: the features that need one do not match.
                    vec![
                        ("user".to_owned(), format!("u{}", users[i])),
                        ("priority".to_owned(), (kinds[i] % 3).to_string()),
                    ]
                } else {
                    let mut a = attrs(&format!("u{}", users[i]), &format!("j{}", names[i])).to_vec();
                    a[3].1 = (kinds[i] % 5).to_string();
                    a
                };
                let runtime = match kinds[i] % 4 {
                    0 => (runtimes[i] / 100.0).round() * 100.0 + 1.0, // repeats
                    _ => runtimes[i],
                };
                match kinds[i] {
                    15 => {
                        new.observe_censored(&job, runtime);
                        old.observe_censored(&job, runtime);
                    }
                    14 => {
                        new.observe(&job, -runtime);
                        old.observe(&job, -runtime);
                    }
                    _ => {
                        new.observe(&job, runtime);
                        old.observe(&job, runtime);
                    }
                }
                let old_keys: Vec<(usize, String)> = old.state.keys().cloned().collect();
                proptest::prop_assert_eq!(keys(&new), old_keys, "keys after op {}", i);
                proptest::prop_assert_eq!(new.tracked_values(), old.tracked_values());
                proptest::prop_assert_eq!(new.evicted_values(), old.evicted_values());
                for a in [&job[..], &probe[..]] {
                    let want = prediction_bits(old.predict(&a));
                    proptest::prop_assert_eq!(new.predict_point(&a).map(f64::to_bits), want.as_ref().map(|w| w.4));
                    proptest::prop_assert_eq!(prediction_bits(new.predict(&a)), want, "op {}", i);
                }
                if i == restart_at {
                    let snap = json(&new.snapshot());
                    proptest::prop_assert_eq!(&snap, &json(&old.snapshot()));
                    new = Predictor::new(cfg.clone());
                    new.restore(serde_json::from_str(&snap).unwrap()).unwrap();
                    old = reference::Reference::new(cfg.clone());
                    old.restore(serde_json::from_str(&snap).unwrap()).unwrap();
                }
            }
            proptest::prop_assert_eq!(new.stats(), old.stats());
            proptest::prop_assert_eq!(new.quick_stats(), old.quick_stats());
            proptest::prop_assert_eq!(json(&new.snapshot()), json(&old.snapshot()));
        }
    }

    #[test]
    fn restore_rejects_repeated_touches_and_entries() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("x", "y"), 10.0);
        let mut snap = p.snapshot();
        snap.touches[1] = snap.touches[0];
        let mut fresh = Predictor::new(PredictorConfig::default());
        let err = fresh.restore(snap).unwrap_err();
        assert!(err.contains("is repeated"), "{err}");
        let mut snap = p.snapshot();
        snap.entries.push(snap.entries[0].clone());
        snap.touches.push(999);
        let err = fresh.restore(snap).unwrap_err();
        assert!(err.contains("is repeated"), "{err}");
        assert_eq!(fresh.tracked_values(), 0);
    }

    #[test]
    fn tracked_values_grow_with_distinct_features() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.observe(&attrs("a", "x"), 10.0);
        let first = p.tracked_values();
        p.observe(&attrs("b", "y"), 10.0);
        assert!(p.tracked_values() > first);
    }
}
