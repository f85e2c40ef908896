//! Ben-Haim & Tom-Tov streaming histogram.
//!
//! Maintains at most `max_bins` (centroid, count) pairs over a stream of
//! observations in constant memory. This is the sketch 3σPredict uses to keep
//! a runtime histogram per feature value (the paper caps it at 80 bins), and
//! the basis for the empirical [`RuntimeDistribution`] handed to 3σSched.
//!
//! [`RuntimeDistribution`]: crate::dist::RuntimeDistribution

use serde::{Deserialize, Serialize};

/// Default bin budget used by 3σPredict (the paper's maximum of 80 bins).
pub const DEFAULT_MAX_BINS: usize = 80;

/// One histogram bin: a centroid position and the mass merged into it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bin {
    /// Centroid of the observations merged into this bin.
    pub centroid: f64,
    /// Number of observations merged into this bin.
    pub count: f64,
}

/// A bounded-size histogram over a stream of `f64` observations.
///
/// Inserting is `O(max_bins)` (binary search + possible merge), and the
/// structure never holds more than `max_bins` bins, so memory per feature
/// value is constant — the scalability property §4.1 relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingHistogram {
    bins: Vec<Bin>,
    max_bins: usize,
    count: u64,
    min: f64,
    max: f64,
    /// Times two bins were collapsed to stay within `max_bins` —
    /// observability for how lossy this sketch has been.
    merges: u64,
}

/// The bin two adjacent bins `a < b` collapse into: their summed count at
/// the count-weighted mean centroid.
fn merged(a: Bin, b: Bin) -> Bin {
    let count = a.count + b.count;
    Bin {
        centroid: (a.centroid * a.count + b.centroid * b.count) / count,
        count,
    }
}

impl StreamingHistogram {
    /// Creates an empty histogram holding at most `max_bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `max_bins` is zero.
    pub fn new(max_bins: usize) -> Self {
        assert!(max_bins > 0, "histogram needs at least one bin");
        Self {
            bins: Vec::with_capacity(max_bins),
            max_bins,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            merges: 0,
        }
    }

    /// Creates a histogram with the paper's default bin budget (80).
    pub fn with_default_bins() -> Self {
        Self::new(DEFAULT_MAX_BINS)
    }

    /// Number of observations inserted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no observation has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest observation seen, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest observation seen, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// The current bins, sorted by centroid.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Times two bins were collapsed to respect the bin budget. A high
    /// merge count relative to [`count`](Self::count) means the sketch has
    /// been compressing aggressively and quantiles are coarser.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Mean of the inserted observations (exact for sums, since merging
    /// preserves centroid×count mass).
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let total: f64 = self.bins.iter().map(|b| b.count).sum();
        let sum: f64 = self.bins.iter().map(|b| b.centroid * b.count).sum();
        Some(sum / total)
    }

    /// Inserts one observation (Algorithm "Update" of Ben-Haim & Tom-Tov).
    pub fn insert(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "histogram values must be finite");
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let new = Bin {
            centroid: value,
            count: 1.0,
        };
        match self.bins.binary_search_by(|b| b.centroid.total_cmp(&value)) {
            Ok(i) => self.bins[i].count += 1.0,
            Err(i) if self.bins.len() == self.max_bins => self.insert_full(i, new),
            Err(i) => {
                self.bins.insert(i, new);
                if self.bins.len() > self.max_bins {
                    self.merge_closest();
                }
            }
        }
    }

    /// Inserting `new` at `i` into a full histogram, then merging the
    /// closest pair, in one pass: the pair is the first minimal gap of the
    /// virtual `max_bins + 1` bins (`bins[..i]`, `new`, `bins[i..]`), merged
    /// with [`merge_closest`](Self::merge_closest)'s arithmetic, and at most
    /// one range of bins shifts.
    fn insert_full(&mut self, i: usize, new: Bin) {
        self.merges += 1;
        let bins = &mut self.bins;
        let n = bins.len();
        // Virtual gap `k` lies between virtual bins `k` and `k + 1`.
        let mut best = 0;
        let mut best_gap = f64::INFINITY;
        let mut consider = |k: usize, gap: f64| {
            if gap < best_gap {
                best_gap = gap;
                best = k;
            }
        };
        for k in 0..i.saturating_sub(1) {
            consider(k, bins[k + 1].centroid - bins[k].centroid);
        }
        if i > 0 {
            consider(i - 1, new.centroid - bins[i - 1].centroid);
        }
        if i < n {
            consider(i, bins[i].centroid - new.centroid);
        }
        for k in i + 1..n {
            consider(k, bins[k].centroid - bins[k - 1].centroid);
        }
        if best + 1 < i {
            // Both merged bins lie left of `new`.
            bins[best] = merged(bins[best], bins[best + 1]);
            bins.copy_within(best + 2..i, best + 1);
            bins[i - 1] = new;
        } else if best + 1 == i {
            bins[best] = merged(bins[best], new);
        } else if best == i {
            bins[i] = merged(new, bins[i]);
        } else {
            // Both lie right of `new`: virtual `best` is `bins[best - 1]`.
            bins[best] = merged(bins[best - 1], bins[best]);
            bins.copy_within(i..best - 1, i + 1);
            bins[i] = new;
        }
    }

    /// Merges another histogram into this one (Algorithm "Merge").
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.is_empty() {
            return;
        }
        self.count += other.count;
        self.merges += other.merges;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for bin in &other.bins {
            match self
                .bins
                .binary_search_by(|b| b.centroid.total_cmp(&bin.centroid))
            {
                Ok(i) => self.bins[i].count += bin.count,
                Err(i) => self.bins.insert(i, *bin),
            }
        }
        while self.bins.len() > self.max_bins {
            self.merge_closest();
        }
    }

    fn merge_closest(&mut self) {
        self.merges += 1;
        let mut best = 0;
        let mut best_gap = f64::INFINITY;
        for i in 0..self.bins.len() - 1 {
            let gap = self.bins[i + 1].centroid - self.bins[i].centroid;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        self.bins[best] = merged(self.bins[best], self.bins[best + 1]);
        self.bins.remove(best + 1);
    }

    /// Estimated number of observations `≤ value` (Algorithm "Sum").
    ///
    /// Within `[min, max]` the estimate interpolates between bins treating
    /// each bin's mass as a trapezoid between adjacent centroids; outside
    /// that range it clamps to `0` or `count`. Virtual zero-mass bins at the
    /// exact observed `min` and `max` make the interpolation well-defined
    /// over the full observed support.
    pub fn sum(&self, value: f64) -> f64 {
        if self.is_empty() || value < self.min {
            return 0.0;
        }
        if value >= self.max {
            return self.count as f64;
        }
        let lo = Bin {
            centroid: self.min,
            count: 0.0,
        };
        let hi = Bin {
            centroid: self.max,
            count: 0.0,
        };
        let chain = std::iter::once(lo)
            .chain(self.bins.iter().copied())
            .chain(std::iter::once(hi));
        let mut acc = 0.0;
        let mut prev: Option<Bin> = None;
        for cur in chain {
            if let Some(p) = prev {
                if value < cur.centroid {
                    let width = cur.centroid - p.centroid;
                    let frac = if width > 0.0 {
                        (value - p.centroid) / width
                    } else {
                        0.0
                    };
                    let mb = p.count + (cur.count - p.count) * frac;
                    return acc + p.count / 2.0 + (p.count + mb) / 2.0 * frac;
                }
                acc += p.count;
            }
            prev = Some(cur);
        }
        self.count as f64
    }

    /// Estimated quantile: smallest `x` with `sum(x) ≥ q · count`.
    ///
    /// `q` is clamped to `[0, 1]`. Returns `None` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let (mut lo, mut hi) = (self.min, self.max);
        if target <= 0.0 {
            return Some(lo);
        }
        if target >= self.count as f64 {
            return Some(hi);
        }
        // The interpolated `sum` is monotone, so bisection converges fast.
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.sum(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-9 * (1.0 + hi.abs()) {
                break;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Normalised `(value, probability)` mass points — one per bin.
    ///
    /// This is the discrete form the scheduler integrates against (Eq. 1).
    pub fn mass_points(&self) -> Vec<(f64, f64)> {
        let total: f64 = self.bins.iter().map(|b| b.count).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        self.bins
            .iter()
            .map(|b| (b.centroid, b.count / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_empty() {
        let h = StreamingHistogram::new(8);
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.sum(10.0), 0.0);
    }

    #[test]
    fn exact_when_under_bin_budget() {
        let mut h = StreamingHistogram::new(10);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.insert(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bins().len(), 5);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
        assert!((h.mean().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_values_share_a_bin() {
        let mut h = StreamingHistogram::new(4);
        for _ in 0..100 {
            h.insert(7.0);
        }
        assert_eq!(h.bins().len(), 1);
        assert_eq!(h.bins()[0].count, 100.0);
        assert_eq!(h.quantile(0.5), Some(7.0));
    }

    #[test]
    fn respects_bin_budget() {
        let mut h = StreamingHistogram::new(8);
        for i in 0..1000 {
            h.insert(i as f64);
        }
        assert!(h.bins().len() <= 8);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn mean_is_preserved_by_merging() {
        let mut h = StreamingHistogram::new(4);
        let vals: Vec<f64> = (0..200).map(|i| (i as f64).sqrt()).collect();
        let exact: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        for v in &vals {
            h.insert(*v);
        }
        assert!((h.mean().unwrap() - exact).abs() < 1e-9);
    }

    #[test]
    fn sum_is_monotone_and_bounded() {
        let mut h = StreamingHistogram::new(16);
        for i in 0..500 {
            h.insert((i % 37) as f64 * 1.7);
        }
        let mut prev = -1.0;
        for step in -10..80 {
            let s = h.sum(step as f64);
            assert!(s >= prev - 1e-9, "sum must be monotone");
            assert!((0.0..=500.0 + 1e-9).contains(&s));
            prev = s;
        }
        assert_eq!(h.sum(-1.0), 0.0);
        assert_eq!(h.sum(1e9), 500.0);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = StreamingHistogram::new(32);
        for i in 1..=1000 {
            h.insert(i as f64);
        }
        let q50 = h.quantile(0.5).unwrap();
        assert!((q50 - 500.0).abs() < 25.0, "median estimate {q50}");
        let q0 = h.quantile(0.0).unwrap();
        let q1 = h.quantile(1.0).unwrap();
        assert_eq!(q0, 1.0);
        assert_eq!(q1, 1000.0);
    }

    #[test]
    fn merge_count_tracks_compression() {
        let mut h = StreamingHistogram::new(4);
        for i in 0..4 {
            h.insert(i as f64);
        }
        assert_eq!(h.merge_count(), 0);
        for i in 4..20 {
            h.insert(i as f64);
        }
        // Every insert past the budget costs exactly one merge.
        assert_eq!(h.merge_count(), 16);

        let mut a = StreamingHistogram::new(4);
        for i in 0..10 {
            a.insert(i as f64);
        }
        let before = a.merge_count();
        a.merge(&h);
        assert!(a.merge_count() >= before + h.merge_count());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = StreamingHistogram::new(8);
        let mut b = StreamingHistogram::new(8);
        for i in 0..50 {
            a.insert(i as f64);
        }
        for i in 50..100 {
            b.insert(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), Some(0.0));
        assert_eq!(a.max(), Some(99.0));
        assert!(a.bins().len() <= 8);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingHistogram::new(8);
        a.insert(3.0);
        let before = a.clone();
        a.merge(&StreamingHistogram::new(8));
        assert_eq!(a.count(), before.count());
        assert_eq!(a.bins(), before.bins());
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        let mut h = StreamingHistogram::new(16);
        for i in 0..200 {
            h.insert((i * 7 % 53) as f64);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: StreamingHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.count(), 200);
    }

    #[test]
    fn sum_is_continuous_at_centroids() {
        let mut h = StreamingHistogram::new(8);
        for i in 0..300 {
            h.insert((i % 17) as f64 * 3.0);
        }
        for b in h.bins().to_vec() {
            let eps = 1e-6;
            let below = h.sum(b.centroid - eps);
            let above = h.sum(b.centroid + eps);
            assert!(
                (above - below).abs() < 1.0,
                "jump at centroid {}: {below} → {above}",
                b.centroid
            );
        }
    }

    #[test]
    fn merge_order_does_not_change_count_or_extremes() {
        let mut parts = Vec::new();
        for p in 0..4 {
            let mut h = StreamingHistogram::new(12);
            for i in 0..100 {
                h.insert((p * 100 + i) as f64);
            }
            parts.push(h);
        }
        let mut fwd = StreamingHistogram::new(12);
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = StreamingHistogram::new(12);
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.count(), rev.count());
        assert_eq!(fwd.min(), rev.min());
        assert_eq!(fwd.max(), rev.max());
        let (mf, mr) = (fwd.mean().unwrap(), rev.mean().unwrap());
        assert!((mf - mr).abs() < 1e-9);
    }

    /// `insert` as it was before the single-shift path: insert the new
    /// bin, then merge the closest pair of the now over-full histogram.
    fn reference_insert(h: &mut StreamingHistogram, value: f64) {
        h.count += 1;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
        match h.bins.binary_search_by(|b| b.centroid.total_cmp(&value)) {
            Ok(i) => h.bins[i].count += 1.0,
            Err(i) => {
                let new = Bin {
                    centroid: value,
                    count: 1.0,
                };
                h.bins.insert(i, new);
                if h.bins.len() > h.max_bins {
                    h.merge_closest();
                }
            }
        }
    }

    fn bin_bits(h: &StreamingHistogram) -> Vec<(u64, u64)> {
        (h.bins.iter())
            .map(|b| (b.centroid.to_bits(), b.count.to_bits()))
            .collect()
    }

    proptest::proptest! {
        /// The single-shift insert into a full histogram leaves the same
        /// bins, bit for bit, and the same merge count as inserting and
        /// then merging the closest pair: streams with repeated values,
        /// ties between gaps, and new values below, between and above
        /// every bin, into budgets from one bin to the paper's 80.
        #[test]
        fn single_shift_insert_matches_insert_then_merge(
            budget in 0usize..30,
            len in 1usize..400,
            xs in proptest::collection::vec(0u32..400, 400),
            shapes in proptest::collection::vec(0u8..4, 400),
        ) {
            let max_bins = if budget < 24 { budget + 1 } else { 80 };
            let mut fast = StreamingHistogram::new(max_bins);
            let mut slow = StreamingHistogram::new(max_bins);
            for (i, (x, shape)) in xs.iter().zip(&shapes).take(len).enumerate() {
                // Integer grids tie gaps exactly; the other shapes spread.
                let v = match shape {
                    0 => f64::from(*x),
                    1 => f64::from(*x) * 0.37 + 1e-3 * i as f64,
                    2 => f64::from(*x).sqrt() * 1e4,
                    _ => 1.0 + f64::from(*x % 7),
                };
                fast.insert(v);
                reference_insert(&mut slow, v);
                proptest::prop_assert_eq!(bin_bits(&fast), bin_bits(&slow), "after {} inserts", i + 1);
                proptest::prop_assert_eq!(fast.merge_count(), slow.merge_count());
            }
            proptest::prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn mass_points_sum_to_one() {
        let mut h = StreamingHistogram::new(8);
        for i in 0..123 {
            h.insert((i * i % 97) as f64);
        }
        let total: f64 = h.mass_points().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
