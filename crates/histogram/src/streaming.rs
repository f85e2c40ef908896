//! Ben-Haim & Tom-Tov streaming histogram.
//!
//! Maintains at most `max_bins` (centroid, count) pairs over a stream of
//! observations in constant memory. This is the sketch 3σPredict uses to keep
//! a runtime histogram per feature value (the paper caps it at 80 bins), and
//! its bins are the mass points of the empirical [`DiscreteDist`] handed to
//! 3σSched.

use serde::{Deserialize, Serialize};

use crate::dist::DiscreteDist;

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
    /// Smallest and largest observation. Nothing reads them; they stay
    /// because snapshots carry them.
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

    /// Number of observations inserted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no observation has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Times two bins were collapsed to respect the bin budget. A high
    /// merge count relative to [`count`](Self::count) means the sketch has
    /// been compressing aggressively and quantiles are coarser.
    pub fn merge_count(&self) -> u64 {
        self.merges
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
            Err(i) if self.bins.len() >= self.max_bins => self.insert_full(i, new),
            Err(i) => self.bins.insert(i, new),
        }
    }

    /// Inserting `new` at `i` into a full histogram, then merging the
    /// closest pair, in one pass: the pair is the first minimal gap of the
    /// virtual `max_bins + 1` bins (`bins[..i]`, `new`, `bins[i..]`), merged
    /// into their count-weighted centroid, and at most one range of bins
    /// shifts.
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

    /// The empirical runtime distribution: one mass point per bin, at its
    /// centroid, with the bin's share of the count. `None` when empty.
    pub fn distribution(&self) -> Option<DiscreteDist> {
        let total: f64 = self.bins.iter().map(|b| b.count).sum();
        if total <= 0.0 {
            return None;
        }
        // Bins are sorted by centroid.
        let points = (self.bins.iter())
            .map(|b| (b.centroid, b.count / total))
            .collect();
        let d = DiscreteDist::with_points(points);
        debug_assert!(d.is_normalised());
        Some(d)
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
        assert_eq!(h.distribution(), None);
    }

    #[test]
    fn exact_when_under_bin_budget() {
        let mut h = StreamingHistogram::new(10);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.insert(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bins.len(), 5);
        assert_eq!((h.min, h.max), (1.0, 5.0));
        let d = h.distribution().unwrap();
        assert_eq!(d.points(), [1.0, 2.0, 3.0, 4.0, 5.0].map(|t| (t, 0.2)));
    }

    #[test]
    fn duplicate_values_share_a_bin() {
        let mut h = StreamingHistogram::new(4);
        for _ in 0..100 {
            h.insert(7.0);
        }
        assert_eq!(h.bins.len(), 1);
        assert_eq!(h.bins[0].count, 100.0);
        assert_eq!(h.distribution().unwrap().points(), [(7.0, 1.0)]);
    }

    #[test]
    fn respects_bin_budget() {
        let mut h = StreamingHistogram::new(8);
        for i in 0..1000 {
            h.insert(i as f64);
        }
        assert!(h.bins.len() <= 8);
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
        assert!((h.distribution().unwrap().mean() - exact).abs() < 1e-9);
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

    /// `insert` as it was before the single-shift path: insert the new
    /// bin, then merge the closest pair of the now over-full histogram.
    fn reference_insert(h: &mut StreamingHistogram, value: f64) {
        fn merge_closest(h: &mut StreamingHistogram) {
            h.merges += 1;
            let mut best = 0;
            let mut best_gap = f64::INFINITY;
            for i in 0..h.bins.len() - 1 {
                let gap = h.bins[i + 1].centroid - h.bins[i].centroid;
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            h.bins[best] = merged(h.bins[best], h.bins[best + 1]);
            h.bins.remove(best + 1);
        }

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
                    merge_closest(h);
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
}
