//! The predictor as it stood before per-feature interned states and
//! per-observation expert estimates, kept for the equivalence properties
//! in the parent module's tests: whatever the stream, the current
//! [`Predictor`](super::Predictor) must predict, report, snapshot and
//! evict exactly as this does.

use std::collections::{BTreeMap, BTreeSet};

use crate::expert::{EstimatorKind, ValueState, ESTIMATORS};
use crate::feature::{AttributeSource, Feature, FeatureSet};

use super::{FeatureStats, Prediction, PredictorConfig, PredictorStats, QuickStats, Snapshot};

/// A state's key: `(feature index, feature value)`.
type Key = (usize, String);

/// The predictor before its states were interned per feature and their
/// estimates kept per observation: one `(feature, value)`-keyed map with
/// touches and the recency index beside it, every estimate recomputed on
/// each read.
#[derive(Debug)]
pub(super) struct Reference {
    config: PredictorConfig,
    features: FeatureSet,
    /// State per `(feature index, feature value)`.
    /// Ordered map: `stats`/`snapshot`/`restore` iterate it, and both
    /// expert scoring and snapshot bytes must not depend on hash order.
    pub(super) state: BTreeMap<(usize, String), ValueState>,
    /// Logical observation clock: advances once per feature-value touch in
    /// [`observe`](Self::observe). Drives LRU/TTL eviction and is persisted
    /// in snapshots so eviction order survives restarts bit-for-bit.
    clock: u64,
    /// Last touch per tracked key (same keys as `state`).
    touch: BTreeMap<(usize, String), u64>,
    /// Recency index: `(touch, feature index, value)` ascending, so the
    /// least-recently-observed entry is always `first()`.
    by_touch: BTreeSet<(u64, usize, String)>,
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
}

impl Reference {
    /// Predictor with the standard feature set.
    pub(super) fn new(config: PredictorConfig) -> Self {
        Self::with_features(config, FeatureSet::standard())
    }

    /// Predictor with an explicit feature set.
    fn with_features(config: PredictorConfig, features: FeatureSet) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        Self {
            config,
            features,
            state: BTreeMap::new(),
            clock: 0,
            touch: BTreeMap::new(),
            by_touch: BTreeSet::new(),
            evictions: 0,
            observations: 0,
            bin_merges: 0,
            censored: 0,
            best_nmae_seen: None,
        }
    }

    /// Number of distinct feature values tracked (memory gauge).
    pub(super) fn tracked_values(&self) -> usize {
        self.state.len()
    }

    /// Records a completed job's measured runtime against all its features.
    pub(super) fn observe(&mut self, attrs: &impl AttributeSource, runtime: f64) {
        if !(runtime.is_finite() && runtime > 0.0) {
            return; // defensive: never poison history with bad samples
        }
        let cfg = &self.config;
        for (fi, feature) in self.features.features.iter().enumerate() {
            let Some(value) = extract(feature, attrs) else {
                continue;
            };
            self.clock += 1;
            let now = self.clock;
            if let Some(prev) = self.touch.insert((fi, value.clone()), now) {
                self.by_touch.remove(&(prev, fi, value.clone()));
            }
            self.by_touch.insert((now, fi, value.clone()));
            let state = self.state.entry((fi, value)).or_insert_with(|| {
                ValueState::new(
                    cfg.max_bins,
                    cfg.recent_window,
                    cfg.ewma_alpha,
                    cfg.sample_cap,
                )
            });
            let (count_before, merges_before) = (state.count(), state.bin_merges());
            state.observe(runtime);
            // Count deltas rather than inserts: a sample cap keeps
            // `count()` flat, and one insert can trigger several merges.
            self.observations += state.count().saturating_sub(count_before);
            self.bin_merges += state.bin_merges().saturating_sub(merges_before);
            if let Some(n) = state.best_nmae() {
                self.best_nmae_seen = Some(self.best_nmae_seen.map_or(n, |cur| cur.min(n)));
            }
        }
        self.enforce_bounds();
    }

    /// Applies the LRU cap and TTL (see [`PredictorConfig`]), evicting
    /// least-recently-observed states first. Running totals shrink with the
    /// evicted history so `quick_stats` keeps agreeing with a full scan.
    fn enforce_bounds(&mut self) {
        if let Some(ttl) = self.config.value_ttl {
            while let Some(oldest) = self.by_touch.first().cloned() {
                if self.clock.saturating_sub(oldest.0) <= ttl {
                    break;
                }
                self.evict(oldest);
            }
        }
        if let Some(cap) = self.config.max_tracked_values {
            while self.state.len() > cap {
                let Some(oldest) = self.by_touch.first().cloned() else {
                    break;
                };
                self.evict(oldest);
            }
        }
    }

    fn evict(&mut self, entry: (u64, usize, String)) {
        self.by_touch.remove(&entry);
        let key = (entry.1, entry.2);
        self.touch.remove(&key);
        if let Some(state) = self.state.remove(&key) {
            self.observations = self.observations.saturating_sub(state.count());
            self.bin_merges = self.bin_merges.saturating_sub(state.bin_merges());
            self.evictions += 1;
        }
    }

    /// Feature-value states evicted so far by the LRU cap or TTL.
    pub(super) fn evicted_values(&self) -> u64 {
        self.evictions
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
    pub(super) fn observe_censored(&mut self, _attrs: &impl AttributeSource, elapsed: f64) {
        if !(elapsed.is_finite() && elapsed >= 0.0) {
            return; // same defensive posture as `observe`
        }
        self.censored += 1;
    }

    /// Predicts the runtime distribution for a job with the given
    /// attributes. `None` when no matching feature value has any history.
    pub(super) fn predict(&self, attrs: &impl AttributeSource) -> Option<Prediction> {
        // Best scored expert: lowest trusted NMAE; tie-break on more history.
        let mut best_scored: Option<(f64, u64, &ValueState, &Key, EstimatorKind)> = None;
        // Fallback: most history, preferring the median estimator.
        let mut best_fallback: Option<(u64, &ValueState, &Key, EstimatorKind)> = None;

        for (fi, feature) in self.features.features.iter().enumerate() {
            let Some(value) = extract(feature, attrs) else {
                continue;
            };
            let Some((key, state)) = self.state.get_key_value(&(fi, value)) else {
                continue;
            };
            if state.count() == 0 {
                continue;
            }
            for kind in ESTIMATORS {
                if state.estimate(kind).is_none() {
                    continue;
                }
                let score = state.score(kind);
                match score.nmae() {
                    Some(nmae) if score.evals >= self.config.min_expert_evals => {
                        let better = match &best_scored {
                            None => true,
                            Some((b_nmae, b_hist, ..)) => {
                                nmae < *b_nmae - 1e-12
                                    || ((nmae - *b_nmae).abs() <= 1e-12 && state.count() > *b_hist)
                            }
                        };
                        if better {
                            best_scored = Some((nmae, state.count(), state, key, kind));
                        }
                    }
                    _ => {
                        let pref = kind == EstimatorKind::RecentMedian;
                        let better = match &best_fallback {
                            None => true,
                            Some((b_hist, _, _, b_kind)) => {
                                state.count() > *b_hist
                                    || (state.count() == *b_hist
                                        && pref
                                        && *b_kind != EstimatorKind::RecentMedian)
                            }
                        };
                        if better {
                            best_fallback = Some((state.count(), state, key, kind));
                        }
                    }
                }
            }
        }

        let (state, key, kind) = match (best_scored, best_fallback) {
            (Some((_, _, s, key, k)), _) => (s, key, k),
            (None, Some((_, s, key, k))) => (s, key, k),
            (None, None) => return None,
        };
        let distribution = state.distribution()?;
        let point = state.estimate(kind)?;
        Some(Prediction {
            distribution,
            point,
            feature: self.features.features[key.0].name,
            estimator: kind,
            history: state.count(),
            version: self.touch.get(key).copied().unwrap_or(0),
        })
    }

    /// Aggregate telemetry over the predictor's state: per-feature history
    /// sizes, sketch compression (bin merges), and the best expert NMAE.
    ///
    /// Every aggregate is order-independent (sums and minima), so the
    /// result is deterministic despite the hash-map backing store.
    pub(super) fn stats(&self) -> PredictorStats {
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
        for ((fi, _), state) in &self.state {
            let fs = &mut per_feature[*fi];
            fs.values += 1;
            fs.observations += state.count();
            fs.bin_merges += state.bin_merges();
            if let Some(n) = state.best_nmae() {
                fs.best_nmae = Some(fs.best_nmae.map_or(n, |cur| cur.min(n)));
            }
        }
        PredictorStats {
            tracked_values: self.state.len(),
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
    pub(super) fn quick_stats(&self) -> QuickStats {
        QuickStats {
            tracked_values: self.state.len(),
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
    pub(super) fn snapshot(&self) -> Snapshot {
        Snapshot {
            touches: self
                .state
                .keys()
                .map(|key| self.touch.get(key).copied().unwrap_or(0))
                .collect(),
            clock: self.clock,
            evictions: self.evictions,
            censored: self.censored,
            best_nmae: self.best_nmae_seen,
            entries: self
                .state
                .iter()
                .map(|((fi, value), state)| (*fi, value.clone(), state.clone()))
                .collect(),
        }
    }

    /// Restores a snapshot taken by [`snapshot`](Self::snapshot), replacing
    /// any current state.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the predictor unchanged, a snapshot that
    /// references a feature this predictor does not have, or whose touch
    /// list does not pair one touch with each entry.
    pub(super) fn restore(&mut self, snapshot: Snapshot) -> Result<(), String> {
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
        self.touch = BTreeMap::new();
        self.by_touch = BTreeSet::new();
        let mut max_touch = 0u64;
        for ((fi, value, _), &t) in snapshot.entries.iter().zip(&snapshot.touches) {
            max_touch = max_touch.max(t);
            self.touch.insert((*fi, value.clone()), t);
            self.by_touch.insert((t, *fi, value.clone()));
        }
        self.clock = snapshot.clock.max(max_touch);
        self.evictions = snapshot.evictions;
        self.censored = snapshot.censored;
        self.state = snapshot
            .entries
            .into_iter()
            .map(|(fi, value, state)| ((fi, value), state))
            .collect();
        // Rebuild the running totals from the restored state (one-off scan —
        // exact, since eviction subtracts the departing history from both).
        self.observations = self.state.values().map(ValueState::count).sum();
        self.bin_merges = self.state.values().map(ValueState::bin_merges).sum();
        // The historical-best NMAE travels in the snapshot (a restarted
        // serve session must republish the same gauge). `observe` already
        // folded every state's score into it.
        self.best_nmae_seen = snapshot.best_nmae;
        Ok(())
    }
}

/// The feature value as it was extracted before: a fresh `String` per
/// feature per call.
fn extract(feature: &Feature, attrs: &impl AttributeSource) -> Option<String> {
    if feature.keys.is_empty() {
        return Some("*".to_owned());
    }
    let mut out = String::new();
    for (i, key) in feature.keys.iter().enumerate() {
        let v = attrs.get_attr(key)?;
        if i > 0 {
            out.push('\u{1f}');
        }
        out.push_str(v);
    }
    Some(out)
}
