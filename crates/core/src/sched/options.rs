//! Scheduling-cycle hot path: rack masks, the cross-cycle estimate cache,
//! placement-option generation, and the options a capacity row charges.
//!
//! Every cycle, 3σSched enumerates placement options — (equivalence set,
//! start slot) pairs — for each considered job, then charges each option
//! its expected resource consumption in one capacity row per (equivalence
//! set, time slot). This module keeps that path cheap:
//!
//! * [`RackMask`] is a fixed-width partition bitmask (128 racks) replacing
//!   the raw `u64` masks that silently wrapped at 64 partitions.
//! * [`EstimateCache`] holds each job's discretised base distribution and
//!   its slowdown-scaled variants across cycles, re-estimating *pending*
//!   jobs only when the predictor has learned something new (an epoch
//!   counter bumped per observation). It holds pending jobs only: a placed
//!   job's estimate moves out with [`EstimateCache::take`] to the running
//!   attempt that renormalises it (Eq. 2) for the rest of its run.
//! * [`generate`] values every (space, slot) option of every considered
//!   job by Eq. 1, in job order on the calling thread. The job cap, the
//!   plan-ahead window and the §4.3.6 prunes bound the work per cycle.
//! * [`contained_options`] picks, once per equivalence set, the compiled
//!   options that can consume from it, in variable order, so each of the
//!   set's capacity rows visits only those — instead of scanning every
//!   option for every (set, slot) pair — and builds its terms sorted.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use threesigma_cluster::{JobId, PartitionId};
use threesigma_milp::VarId;

use crate::dist::DiscreteDist;
use crate::utility::UtilityCurve;

/// A set of rack partitions as a fixed-width (128-bit) bitmask.
///
/// The seed implementation used raw `u64` masks; `1u64 << p.index()` is a
/// masked shift in release builds, so rack 64 silently aliased rack 0 on
/// clusters with more than 64 partitions. `RackMask` widens the mask and
/// panics with a clear message beyond its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RackMask(u128);

impl RackMask {
    /// The empty set.
    pub const EMPTY: RackMask = RackMask(0);
    /// Maximum number of partitions representable.
    pub const MAX_RACKS: usize = 128;

    /// The singleton set `{index}`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is beyond [`Self::MAX_RACKS`].
    pub fn single(index: usize) -> Self {
        assert!(
            index < Self::MAX_RACKS,
            "rack index {index} exceeds RackMask capacity of {} partitions",
            Self::MAX_RACKS
        );
        RackMask(1u128 << index)
    }

    /// The set of the given partitions.
    pub fn of(parts: &[PartitionId]) -> Self {
        parts
            .iter()
            .fold(Self::EMPTY, |m, p| m.with(Self::single(p.index())))
    }

    /// The full set `{0, …, n-1}`.
    pub fn all(n: usize) -> Self {
        assert!(
            n <= Self::MAX_RACKS,
            "cluster has {n} partitions but RackMask supports at most {}",
            Self::MAX_RACKS
        );
        if n == Self::MAX_RACKS {
            RackMask(u128::MAX)
        } else {
            RackMask((1u128 << n) - 1)
        }
    }

    /// Union with another mask.
    pub fn with(self, other: RackMask) -> Self {
        RackMask(self.0 | other.0)
    }

    /// True if partition `index` is in the set.
    pub fn contains(self, index: usize) -> bool {
        index < Self::MAX_RACKS && self.0 & (1u128 << index) != 0
    }

    /// True if every partition of `self` is also in `other`.
    pub fn is_subset_of(self, other: RackMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Cached estimate state for one job.
struct CacheEntry {
    /// Unscaled discretised distribution.
    base: Arc<DiscreteDist>,
    /// Slowdown-scaled variants, keyed by the scale factor's bit pattern.
    /// Ordered map by the scheduler's no-hash-container rule (eviction and
    /// serve-mode bookkeeping must never observe hash order).
    scaled: BTreeMap<u64, Arc<DiscreteDist>>,
    /// History epoch `base` was estimated at.
    epoch: u64,
}

/// Cross-cycle cache of per-job discretised runtime distributions.
///
/// Replaces the per-cycle `clone()`/`scale()` churn of rebuilding every
/// considered job's distribution each cycle. Invalidation rules:
///
/// * [`EstimateCache::bump_epoch`] marks that the predictor learned from a
///   completion; *pending* jobs are lazily re-estimated on next access, so
///   a job frozen with a poor submission-time estimate sharpens as history
///   accumulates (the seed froze estimates at submission forever).
/// * [`EstimateCache::take`] moves a placed job's estimate out to its
///   running attempt, so the cache only ever holds pending jobs.
/// * [`EstimateCache::invalidate`] drops a cancelled job's entry.
pub struct EstimateCache {
    /// Ordered map: capacity eviction scans this smallest-id-first, so its
    /// victim choice must be independent of hash order.
    entries: BTreeMap<JobId, CacheEntry>,
    /// Optional entry cap (see [`EstimateCache::with_capacity`]).
    capacity: Option<usize>,
    epoch: u64,
    hits: u64,
    misses: u64,
    lookups: u64,
    evictions: u64,
}

/// Deterministic hit/miss counters for the [`EstimateCache`].
///
/// `lookups` is maintained independently of `hits` and `misses` so the
/// simtest counter-consistency invariant (`hits + misses == lookups`) checks
/// real bookkeeping rather than an identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses served from a cached entry (base or scaled variant).
    pub hits: u64,
    /// Accesses that had to (re-)estimate or (re-)scale a distribution.
    pub misses: u64,
    /// Total accesses.
    pub lookups: u64,
    /// Entries evicted by the capacity cap (0 when unbounded).
    pub evictions: u64,
}

impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimateCache {
    /// An empty cache at epoch zero, unbounded (batch runs hold one entry
    /// per live job, which the run length already bounds).
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
            capacity: None,
            epoch: 0,
            hits: 0,
            misses: 0,
            lookups: 0,
            evictions: 0,
        }
    }

    /// An empty cache holding at most `capacity` entries. When an insert
    /// would exceed the cap, *stale* entries (epoch older than current) are
    /// evicted smallest job id first; they would be re-estimated on their
    /// next access anyway, so eviction never changes a value. Current-epoch
    /// entries (estimated this cycle, possibly for still-pending jobs) are
    /// never evicted, so the cache may temporarily overflow rather than
    /// drop an estimate the current cycle relies on.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity.max(1)),
            ..Self::new()
        }
    }

    /// The configured entry cap, if any (bound gauge).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted by the capacity cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evicts stale entries, smallest job id first, until the cap is met
    /// or no safe victim remains.
    fn enforce_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        if self.entries.len() <= cap {
            return;
        }
        let epoch = self.epoch;
        let victims: Vec<JobId> = (self.entries.iter())
            .filter(|(_, e)| e.epoch < epoch)
            .map(|(id, _)| *id)
            .take(self.entries.len() - cap)
            .collect();
        for id in victims {
            self.entries.remove(&id);
            self.evictions += 1;
        }
    }

    /// Cumulative hit/miss counters over the cache's lifetime.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            lookups: self.lookups,
            evictions: self.evictions,
        }
    }

    /// Overwrites the lifetime counters (serve-mode restore: a restarted
    /// service reports stream-lifetime totals, not process totals).
    pub fn restore_stats(&mut self, stats: CacheStats, epoch: u64) {
        self.hits = stats.hits;
        self.misses = stats.misses;
        self.lookups = stats.lookups;
        self.evictions = stats.evictions;
        self.epoch = epoch;
    }

    /// Records that the estimation history changed (e.g. the predictor
    /// observed a completed runtime). Every entry becomes stale.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Current history epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The job's base distribution; `estimate` is invoked only when the
    /// entry is missing or stale (older than the current epoch).
    pub fn base(
        &mut self,
        job: JobId,
        estimate: impl FnOnce() -> Arc<DiscreteDist>,
    ) -> Arc<DiscreteDist> {
        let epoch = self.epoch;
        self.lookups += 1;
        match self.entries.get_mut(&job) {
            Some(e) if e.epoch == epoch => {
                self.hits += 1;
                e.base.clone()
            }
            Some(e) => {
                self.misses += 1;
                e.base = estimate();
                e.epoch = epoch;
                e.scaled.clear();
                e.base.clone()
            }
            None => {
                self.misses += 1;
                let base = estimate();
                self.entries.insert(
                    job,
                    CacheEntry {
                        base: base.clone(),
                        scaled: BTreeMap::new(),
                        epoch,
                    },
                );
                self.enforce_capacity();
                base
            }
        }
    }

    /// The job's distribution scaled by `scale`, cached per scale factor.
    /// Expects a prior [`Self::base`] call in the same cycle; returns
    /// `None` if the job has no cached entry, so a bookkeeping slip
    /// degrades the caller's decision instead of panicking mid-cycle.
    pub fn scaled(&mut self, job: JobId, scale: f64) -> Option<Arc<DiscreteDist>> {
        self.lookups += 1;
        let Some(e) = self.entries.get_mut(&job) else {
            self.misses += 1;
            return None;
        };
        if scale == 1.0 {
            self.hits += 1;
            return Some(e.base.clone());
        }
        let mut hit = true;
        let d = (e.scaled.entry(scale.to_bits()))
            .or_insert_with(|| {
                hit = false;
                Arc::new(e.base.scale(scale))
            })
            .clone();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        Some(d)
    }

    /// Moves the job's base distribution out of the cache (the job was
    /// placed: its running attempt owns the estimate from here on). Counts
    /// no lookup.
    pub fn take(&mut self, job: JobId) -> Option<Arc<DiscreteDist>> {
        self.entries.remove(&job).map(|e| e.base)
    }

    /// Drops the job's entry (a pending job that was cancelled).
    pub fn invalidate(&mut self, job: JobId) {
        self.entries.remove(&job);
    }

    /// Number of cached jobs (for tests/introspection).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the job has an entry.
    #[cfg(test)]
    pub(crate) fn contains(&self, job: JobId) -> bool {
        self.entries.contains_key(&job)
    }
}

/// Per-job input to option generation.
pub(crate) struct GenInput {
    /// Candidate equivalence sets with their (already scaled) runtime
    /// distributions: preferred racks at 1×, whole cluster at the job's
    /// slowdown — or just the whole cluster for indifferent jobs.
    pub spaces: Vec<(RackMask, Arc<DiscreteDist>)>,
    /// The job's utility curve (over-estimate handling already applied).
    pub curve: UtilityCurve,
}

/// One placement option valued by Eq. 1, before MILP compilation. The
/// owning job is implied by the option's position in [`generate`]'s output.
pub(crate) struct GenOption {
    /// Start-slot index within the plan-ahead window.
    pub slot: usize,
    /// Equivalence set the option may run in.
    pub mask: RackMask,
    /// Scaled distribution used for consumption (Eq. 3).
    pub dist: Arc<DiscreteDist>,
    /// Expected utility (Eq. 1) of this option.
    pub utility: f64,
}

/// All options generated for one job.
pub(crate) struct JobOptions {
    /// Options with positive expected utility, in (space, slot) order.
    pub options: Vec<GenOption>,
    /// Best expected utility over *all* (space, slot) pairs, including
    /// pruned ones — drives hopeless-job cancellation.
    pub best_utility: f64,
    /// Total (space, slot) pairs valued, including pruned ones.
    pub enumerated: usize,
    /// Pairs dropped by the §4.3.6 zero-value prune.
    pub pruned: usize,
}

fn generate_one(input: &GenInput, slots: &[f64], max_options: Option<usize>) -> JobOptions {
    let mut options = Vec::new();
    let mut best_utility = 0.0f64;
    let mut enumerated = 0usize;
    let mut pruned = 0usize;
    for (mask, dist) in &input.spaces {
        for (slot, &start) in slots.iter().enumerate() {
            enumerated += 1;
            let eu = input.curve.expected(start, dist);
            // A non-finite expected utility (NaN deadline, inf weight)
            // must never reach the MILP objective; treat it as zero-value.
            let eu = if eu.is_finite() { eu } else { 0.0 };
            best_utility = best_utility.max(eu);
            if eu <= 1e-9 {
                pruned += 1;
                continue; // §4.3.6: prune zero-value terms
            }
            options.push(GenOption {
                slot,
                mask: *mask,
                dist: dist.clone(),
                utility: eu,
            });
        }
    }
    // Aggressive §4.3.6 prune (degraded cycles): keep only the job's top-k
    // options by expected utility, ties broken by original (space, slot)
    // order so the result is deterministic; survivors keep that order.
    if let Some(k) = max_options {
        if options.len() > k {
            let mut idx: Vec<usize> = (0..options.len()).collect();
            idx.sort_by(|&a, &b| {
                options[b]
                    .utility
                    .total_cmp(&options[a].utility)
                    .then(a.cmp(&b))
            });
            idx.truncate(k);
            idx.sort_unstable();
            pruned += options.len() - k;
            let mut keep = idx.into_iter();
            let mut next = keep.next();
            let mut i = 0;
            options.retain(|_| {
                let kept = next == Some(i);
                if kept {
                    next = keep.next();
                }
                i += 1;
                kept
            });
        }
    }
    JobOptions {
        options,
        best_utility,
        enumerated,
        pruned,
    }
}

/// Values every (space, slot) option for every job, in job order.
pub(crate) fn generate(
    inputs: &[GenInput],
    slots: &[f64],
    max_options: Option<usize>,
) -> Vec<JobOptions> {
    inputs
        .iter()
        .map(|g| generate_one(g, slots, max_options))
        .collect()
}

/// A generated option compiled into the MILP (has a binary variable).
pub(crate) struct CompiledOption {
    /// Index into the cycle's considered-job list.
    pub job_idx: usize,
    /// Mask group the option's coordinates live in: `mask` bit *i* means
    /// group-local rack *i* (global partition `group_start + i`). Always 0
    /// on clusters that fit a single [`RackMask`].
    pub group: usize,
    /// The option's binary indicator in the MILP.
    pub var: VarId,
    /// Start-slot index.
    pub slot: usize,
    /// Equivalence set (group-local coordinates).
    pub mask: RackMask,
    /// Scaled distribution for consumption rows.
    pub dist: Arc<DiscreteDist>,
    /// Gang width (tasks) as a float coefficient base.
    pub tasks: f64,
}

/// The options in `group` whose equivalence set is contained in `space`,
/// as indices into `options` (variable order): a capacity row for
/// (`group`, `space`, slot) charges exactly those of them started by its
/// slot. Masks in different groups use independent local coordinates and
/// never mix.
pub(crate) fn contained_options(
    options: &[CompiledOption],
    group: usize,
    space: RackMask,
) -> impl Iterator<Item = usize> + '_ {
    (options.iter().enumerate())
        .filter(move |(_, o)| o.group == group && o.mask.is_subset_of(space))
        .map(|(oi, _)| oi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_mask_handles_more_than_64_racks() {
        let m = RackMask::single(64);
        assert!(m.contains(64));
        assert!(!m.contains(0), "rack 64 must not alias rack 0");
        let all = RackMask::all(65);
        assert!(all.contains(64));
        assert!(m.is_subset_of(all));
        assert!(!all.is_subset_of(m));
        let full = RackMask::all(128);
        assert!(full.contains(127));
        assert!(RackMask::all(65).is_subset_of(full));
    }

    #[test]
    fn rack_mask_set_algebra() {
        let a = RackMask::of(&[PartitionId(0), PartitionId(3)]);
        assert!(a.contains(0) && a.contains(3) && !a.contains(1));
        assert!(RackMask::EMPTY.is_empty());
        assert!(RackMask::EMPTY.is_subset_of(a));
        let b = a.with(RackMask::single(7));
        assert!(a.is_subset_of(b) && !b.is_subset_of(a));
        assert!(!a.contains(200), "out-of-range membership is just false");
    }

    #[test]
    #[should_panic(expected = "exceeds RackMask capacity")]
    fn rack_mask_overflow_panics_clearly() {
        let _ = RackMask::single(128);
    }

    #[test]
    fn rack_mask_word_boundary_widths() {
        // The u64 seed masks wrapped at exactly these widths; pin down the
        // boundary behaviour at 63 / 64 / 65 / 127 / 128 racks.
        for n in [63usize, 64, 65, 127, 128] {
            let all = RackMask::all(n);
            assert!(all.contains(n - 1), "all({n}) must contain rack {}", n - 1);
            assert!(!all.contains(n), "all({n}) must exclude rack {n}");
            assert!(!all.is_empty());
            // Membership count is exactly n: each singleton up to n is a
            // subset, the one just past n is not.
            assert!(RackMask::single(n - 1).is_subset_of(all));
            if n < RackMask::MAX_RACKS {
                assert!(!RackMask::single(n).is_subset_of(all));
            }
        }
        // Widths one apart differ in exactly the boundary rack.
        assert!(!RackMask::all(63).contains(63));
        assert!(RackMask::all(64).contains(63));
        assert!(
            !RackMask::all(64).contains(64),
            "no aliasing at the u64 edge"
        );
        assert!(RackMask::all(65).contains(64));
        assert!(RackMask::all(128).contains(127));
        assert!(RackMask::all(63).is_subset_of(RackMask::all(64)));
        assert!(RackMask::all(127).is_subset_of(RackMask::all(128)));
        assert!(!RackMask::all(128).is_subset_of(RackMask::all(127)));
    }

    #[test]
    #[should_panic(expected = "RackMask supports at most")]
    fn rack_mask_all_past_capacity_panics() {
        let _ = RackMask::all(129);
    }

    #[test]
    fn estimate_cache_coalesces_multiple_epoch_bumps() {
        // Invalidation is lazy: three completions between accesses cost one
        // re-estimation, not three, and the counter is monotone.
        let mut cache = EstimateCache::new();
        let job = JobId(11);
        let mut calls = 0;
        let _ = cache.base(job, || {
            calls += 1;
            Arc::new(DiscreteDist::point(100.0))
        });
        assert_eq!(cache.epoch(), 0);
        cache.bump_epoch();
        cache.bump_epoch();
        cache.bump_epoch();
        assert_eq!(cache.epoch(), 3);
        let _ = cache.base(job, || {
            calls += 1;
            Arc::new(DiscreteDist::point(80.0))
        });
        let _ = cache.base(job, || {
            calls += 1;
            Arc::new(DiscreteDist::point(60.0))
        });
        assert_eq!(calls, 2, "three bumps coalesce into one re-estimation");
        // A job first seen after bumps is already at the current epoch.
        let other = JobId(12);
        let _ = cache.base(other, || Arc::new(DiscreteDist::point(10.0)));
        let d = cache.base(other, || unreachable!("fresh entry must be reused"));
        assert_eq!(d.mean(), 10.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn estimate_cache_reestimates_only_on_epoch_change() {
        let mut cache = EstimateCache::new();
        let mut calls = 0;
        let job = JobId(1);
        for _ in 0..3 {
            let _ = cache.base(job, || {
                calls += 1;
                Arc::new(DiscreteDist::point(100.0))
            });
        }
        assert_eq!(calls, 1, "fresh entry is reused");
        cache.bump_epoch();
        let d = cache.base(job, || {
            calls += 1;
            Arc::new(DiscreteDist::point(50.0))
        });
        assert_eq!(calls, 2, "stale entry is re-estimated");
        assert_eq!(d.mean(), 50.0);
    }

    #[test]
    fn take_moves_a_placed_jobs_estimate_out_of_the_cache() {
        let mut cache = EstimateCache::new();
        let job = JobId(7);
        let base = cache.base(job, || Arc::new(DiscreteDist::point(100.0)));
        let _ = cache.scaled(job, 1.5);
        let counted = cache.stats();
        // The running attempt gets the very `Arc` the plan was valued with;
        // its scaled variants go with the entry, and nothing is counted.
        let taken = cache.take(job).expect("entry present");
        assert!(Arc::ptr_eq(&taken, &base));
        assert!(!cache.contains(job) && cache.is_empty());
        assert_eq!(cache.stats(), counted);
        assert!(cache.take(job).is_none(), "taken once");
        // Epoch bumps no longer reach it; a retry (preemption, kill)
        // re-estimates from current history as a fresh miss.
        cache.bump_epoch();
        assert_eq!(taken.mean(), 100.0);
        let d = cache.base(job, || Arc::new(DiscreteDist::point(25.0)));
        assert_eq!(d.mean(), 25.0);
        assert_eq!(cache.stats().misses, counted.misses + 1);
    }

    #[test]
    fn estimate_cache_scales_once_per_factor() {
        let mut cache = EstimateCache::new();
        let job = JobId(3);
        let _ = cache.base(job, || Arc::new(DiscreteDist::point(100.0)));
        let a = cache.scaled(job, 1.5).unwrap();
        let b = cache.scaled(job, 1.5).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same Arc, no re-scale");
        assert_eq!(a.mean(), 150.0);
        let unit = cache.scaled(job, 1.0).unwrap();
        assert_eq!(unit.mean(), 100.0);
        // Re-estimation clears stale scaled variants.
        cache.bump_epoch();
        let _ = cache.base(job, || Arc::new(DiscreteDist::point(10.0)));
        assert_eq!(cache.scaled(job, 1.5).unwrap().mean(), 15.0);
    }

    #[test]
    fn estimate_cache_scaled_without_base_degrades_gracefully() {
        // Regression: `scaled()` used to panic when the base entry was
        // missing; a bookkeeping slip must degrade the decision, not kill
        // the engine.
        let mut cache = EstimateCache::new();
        assert!(cache.scaled(JobId(99), 1.5).is_none());
        assert!(cache.scaled(JobId(99), 1.0).is_none());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.lookups, 2);
    }

    #[test]
    fn estimate_cache_counts_hits_and_misses() {
        let mut cache = EstimateCache::new();
        let job = JobId(5);
        let _ = cache.base(job, || Arc::new(DiscreteDist::point(100.0))); // miss
        let _ = cache.base(job, || unreachable!()); // hit
        let _ = cache.scaled(job, 2.0); // miss (first scale)
        let _ = cache.scaled(job, 2.0); // hit
        let _ = cache.scaled(job, 1.0); // hit (base reuse)
        cache.bump_epoch();
        let _ = cache.base(job, || Arc::new(DiscreteDist::point(50.0))); // miss (stale)
        let s = cache.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 3);
        assert_eq!(s.lookups, 6);
        assert_eq!(s.hits + s.misses, s.lookups);
    }

    #[test]
    fn estimate_cache_never_evicts_current_cycle_entries() {
        // Every entry estimated this epoch may belong to a still-pending
        // job the in-flight cycle will consult again; the cap must overflow
        // rather than drop one.
        let mut cache = EstimateCache::with_capacity(4);
        for i in 0..10 {
            let _ = cache.base(JobId(i), || Arc::new(DiscreteDist::point(100.0)));
        }
        assert_eq!(cache.len(), 10, "current-epoch entries are safe");
        assert_eq!(cache.evictions(), 0);
        for i in 0..10 {
            let d = cache.base(JobId(i), || unreachable!("entry {i} must survive"));
            assert_eq!(d.mean(), 100.0);
        }
        // Job 2 is placed: its estimate leaves with its attempt. Next
        // cycle the backlog is stale and fair game.
        assert!(cache.take(JobId(2)).is_some());
        cache.bump_epoch();
        let _ = cache.base(JobId(10), || Arc::new(DiscreteDist::point(50.0)));
        assert_eq!(cache.len(), 4, "evicted down to the cap");
        assert_eq!(cache.evictions(), 6, "exactly the excess over the cap");
        let d = cache.base(JobId(10), || {
            unreachable!("current-epoch entry must survive")
        });
        assert_eq!(d.mean(), 50.0);
    }

    #[test]
    fn estimate_cache_epoch_bump_after_eviction_does_not_resurrect() {
        // Regression shape: evict a stale entry, bump the epoch (history
        // changed again), then touch the job. The access must re-estimate
        // from current history — never replay the evicted distribution.
        let mut cache = EstimateCache::with_capacity(1);
        let victim = JobId(1);
        let _ = cache.base(victim, || Arc::new(DiscreteDist::point(100.0)));
        cache.bump_epoch();
        let _ = cache.base(JobId(2), || Arc::new(DiscreteDist::point(10.0)));
        assert_eq!(cache.evictions(), 1, "victim evicted by the cap");
        assert_eq!(cache.len(), 1);
        cache.bump_epoch();
        let mut calls = 0;
        let d = cache.base(victim, || {
            calls += 1;
            Arc::new(DiscreteDist::point(30.0))
        });
        assert_eq!(calls, 1, "evicted entry re-estimates as a fresh miss");
        assert_eq!(d.mean(), 30.0, "the pre-eviction estimate must not return");
        // Scaled variants of the evicted entry are gone too.
        assert_eq!(cache.scaled(victim, 2.0).unwrap().mean(), 60.0);
        let s = cache.stats();
        assert_eq!(s.evictions, cache.evictions());
    }

    #[test]
    fn generate_values_every_space_slot_pair_in_job_order() {
        let slots = [0.0, 60.0, 120.0, 180.0];
        let inputs: Vec<GenInput> = (0..64)
            .map(|i| GenInput {
                spaces: vec![
                    (
                        RackMask::single(i % 3),
                        Arc::new(DiscreteDist::point(50.0 + i as f64)),
                    ),
                    (
                        RackMask::all(8),
                        Arc::new(DiscreteDist::point((50.0 + i as f64) * 1.5)),
                    ),
                ],
                curve: UtilityCurve::SloStep {
                    weight: 10.0,
                    deadline: 200.0 + i as f64,
                },
            })
            .collect();
        let all = generate(&inputs, &slots, None);
        assert_eq!(all.len(), inputs.len());
        for (i, (got, input)) in all.iter().zip(&inputs).enumerate() {
            let alone = generate_one(input, &slots, None);
            assert_eq!(got.best_utility.to_bits(), alone.best_utility.to_bits());
            assert_eq!(got.enumerated, 8, "2 spaces × 4 slots");
            assert_eq!(got.options.len() + got.pruned, got.enumerated);
            assert_eq!(got.options.len(), alone.options.len());
            // Output position i belongs to input i: its first space is the
            // job's own preferred rack.
            assert_eq!(got.options[0].mask, RackMask::single(i % 3));
            for (a, b) in got.options.iter().zip(&alone.options) {
                assert_eq!((a.slot, a.mask), (b.slot, b.mask));
                assert_eq!(a.utility.to_bits(), b.utility.to_bits());
            }
        }
    }

    #[test]
    fn aggressive_prune_keeps_the_top_k_options_deterministically() {
        let slots = [0.0, 60.0, 120.0, 180.0];
        let input = GenInput {
            spaces: vec![
                (RackMask::single(0), Arc::new(DiscreteDist::point(50.0))),
                (RackMask::all(4), Arc::new(DiscreteDist::point(75.0))),
            ],
            curve: UtilityCurve::SloStep {
                weight: 10.0,
                deadline: 500.0,
            },
        };
        let full = generate_one(&input, &slots, None);
        let capped = generate_one(&input, &slots, Some(3));
        assert!(full.options.len() > 3, "test needs something to prune");
        assert_eq!(capped.options.len(), 3);
        // Same enumeration count — the cap prunes, it does not skip work.
        assert_eq!(capped.enumerated, full.enumerated);
        assert_eq!(capped.options.len() + capped.pruned, capped.enumerated);
        assert_eq!(capped.best_utility.to_bits(), full.best_utility.to_bits());
        // The survivors are exactly the top-3 utilities of the full set,
        // still in (space, slot) order.
        let mut best: Vec<u64> = full.options.iter().map(|o| o.utility.to_bits()).collect();
        best.sort_by(|a, b| f64::from_bits(*b).total_cmp(&f64::from_bits(*a)));
        best.truncate(3);
        for o in &capped.options {
            assert!(best.contains(&o.utility.to_bits()));
        }
        for w in capped.options.windows(2) {
            assert!(
                w[0].mask != w[1].mask || w[0].slot < w[1].slot,
                "survivors keep (space, slot) order"
            );
        }
        // Re-running is bit-identical (deterministic tie-breaks).
        let again = generate_one(&input, &slots, Some(3));
        assert_eq!(again.options.len(), capped.options.len());
        for (a, b) in again.options.iter().zip(&capped.options) {
            assert_eq!(a.utility.to_bits(), b.utility.to_bits());
            assert_eq!(a.slot, b.slot);
        }
    }

    #[test]
    fn contained_options_are_exactly_those_inside_the_space() {
        let d = Arc::new(DiscreteDist::point(10.0));
        let mut model = threesigma_milp::Model::new();
        let mut mk = |job_idx, slot, mask| CompiledOption {
            job_idx,
            group: 0,
            var: model.add_binary(0.0),
            slot,
            mask,
            dist: d.clone(),
            tasks: 1.0,
        };
        let a = RackMask::of(&[PartitionId(0)]);
        let b = RackMask::of(&[PartitionId(1)]);
        let full = RackMask::all(2);
        let options = vec![
            mk(0, 0, a),
            mk(0, 1, full),
            mk(1, 0, b),
            mk(1, 2, a),
            mk(2, 1, b),
        ];
        let collect = |space, slot| {
            contained_options(&options, 0, space)
                .filter(|&oi| options[oi].slot <= slot)
                .collect::<Vec<_>>()
        };
        // Space {0}: only mask-a options, started by the slot.
        assert_eq!(collect(a, 0), vec![0]);
        assert_eq!(collect(a, 2), vec![0, 3]);
        // Space {1}: only mask-b options.
        assert_eq!(collect(b, 1), vec![2, 4]);
        // Full cluster: everything started by the slot.
        assert_eq!(collect(full, 0), vec![0, 2]);
        assert_eq!(collect(full, 2), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contained_options_never_mix_mask_groups() {
        // Identical local masks in different groups address different
        // physical racks; a capacity row for group 1 must not charge group
        // 0's options even though the bit patterns match.
        let d = Arc::new(DiscreteDist::point(10.0));
        let mut model = threesigma_milp::Model::new();
        let mut mk = |job_idx, group, mask| CompiledOption {
            job_idx,
            group,
            var: model.add_binary(0.0),
            slot: 0,
            mask,
            dist: d.clone(),
            tasks: 1.0,
        };
        let local = RackMask::all(2);
        let options = vec![mk(0, 0, local), mk(1, 1, local), mk(2, 1, local)];
        let collect = |group| contained_options(&options, group, local).collect::<Vec<_>>();
        assert_eq!(collect(0), vec![0]);
        assert_eq!(collect(1), vec![1, 2]);
        assert_eq!(collect(2), Vec::<usize>::new());
    }
}
