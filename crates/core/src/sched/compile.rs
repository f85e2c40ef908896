//! Stage 2 of the 3σSched cycle: compile the generated options and the
//! running set into the cycle's MILP.
//!
//! The pending side is cheap (one binary per option, one demand row per
//! job). The running side is what a large cluster pays for: every running
//! attempt's prior is conditioned on its elapsed time (Eq. 2) and charged
//! to every capacity row (Eq. 3). [`RunningTable`] keeps that per-attempt
//! state across cycles and rebuilds it only when it can change:
//!
//! * **The conditional** `P(T | T > elapsed)` keeps exactly the mass points
//!   `t > elapsed`. Built at `from`, it is reused while the prior is the
//!   same `Arc` and `from ≤ elapsed < lower()` — no point lies in
//!   `(from, elapsed]`, so [`DiscreteDist::condition`] would keep the same
//!   points and renormalise by the same sum. The exhausted (exp-inc) case is
//!   never cached, and a tiny-mass `point(elapsed)` conditional has
//!   `lower() == from`, which the strict bound rejects.
//! * **Grid survivals.** Slot 0 is `now`, but later slots sit on the
//!   absolute `slot_width` grid, so `survival(slot − start)` at those slots
//!   is a function of the conditional and the grid alone; it is recomputed
//!   only when either changes.
//!
//! Both are value-exact, so the compiled model is bit-identical to a
//! from-scratch compile; the differential tests clear the table before
//! every cycle and compare MILP text.
//!
//! The walk itself is kept free of lookups and allocation: the table is a
//! key-sorted `Vec` merged against the view's running set (which the
//! simulator lists in id order), each attempt costs one
//! [`EstimateCache::running_prior`] probe, and an exhausted attempt's
//! point-mass survivals are computed inline.

use std::sync::Arc;

use threesigma_cluster::{JobId, JobSpec, SimulationView};
use threesigma_milp::{Cmp, Model, VarId};

use crate::dist::DiscreteDist;
use crate::sched::feasibility::mask_capacity;
use crate::sched::groups::MaskGroups;
use crate::sched::options::{CompiledOption, EstimateCache, JobOptions, OptionBuckets, RackMask};
use crate::sched::threesigma::SchedConfig;

/// Stage 1's output, as stage 2 reads it. The three per-job slices are
/// parallel (one entry per considered job, urgency order).
pub(crate) struct Generated<'a> {
    /// Jobs considered this cycle.
    pub considered: &'a [&'a JobSpec],
    /// Home mask group of each considered job.
    pub job_groups: &'a [usize],
    /// Valued options of each considered job.
    pub job_options: &'a [JobOptions],
    /// Distinct (group, equivalence-set mask) pairs that get capacity rows.
    pub space_masks: &'a [(usize, RackMask)],
    /// Partition → mask-group layout.
    pub groups: &'a MaskGroups,
    /// Start-slot times; slot 0 is `now`, later slots are grid-aligned.
    pub slots: &'a [f64],
}

/// A running attempt's column in the compiled model.
pub(crate) struct RunningJob {
    /// The running job.
    pub id: JobId,
    /// Preemption indicator (best-effort jobs, preemption enabled).
    pub preempt_var: Option<VarId>,
}

/// The running set as compiled: one [`RunningJob`] per attempt in view
/// order, with the per-partition node counts in one flat buffer.
pub(crate) struct RunningSide {
    jobs: Vec<RunningJob>,
    /// `jobs.len()` rows of `stride` node counts.
    nodes: Vec<u32>,
    stride: usize,
}

impl RunningSide {
    /// Each running attempt with the nodes it holds per partition.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&RunningJob, &[u32])> {
        self.jobs.iter().zip(self.nodes.chunks_exact(self.stride))
    }
}

/// Stage 2's output: the MILP plus what extraction needs to read a
/// solution back.
pub(crate) struct CompiledModel {
    /// The cycle's MILP.
    pub model: Model,
    /// Options that got a binary, in variable order.
    pub compiled: Vec<CompiledOption>,
    /// The running set and its preemption indicators.
    pub running: RunningSide,
    /// Jobs to cancel: SLO jobs whose every option is worthless (if
    /// configured), and gangs wider than every mask group.
    pub hopeless: Vec<JobId>,
    /// Options dropped because their gang cannot fit under the mask
    /// (clusters of more than one mask group only).
    pub pruned: u64,
}

/// Exp-inc under-estimate state for one running attempt (§4.2.1).
#[derive(Debug, Clone, Copy)]
struct UnderEst {
    increments: u32,
    est_total_runtime: f64,
}

/// §4.2.1 exponential-increment step with saturating arithmetic.
///
/// Advances the attempt's estimated total runtime to `elapsed + 2^t · hint`
/// until it exceeds `elapsed`. The `2^t` factor is computed in `u64` with
/// `checked_shl` and capped once `t` reaches 64, so a long-outlived
/// under-estimate can never push the factor to `inf` (which previously
/// produced a `point(inf)` distribution and NaN survival terms in the
/// MILP). If `hint` is so small it is absorbed by `elapsed` in floating
/// point, the estimate still makes forward progress instead of looping.
fn exp_inc(ue: &mut UnderEst, elapsed: f64, hint: f64) -> f64 {
    while ue.est_total_runtime <= elapsed {
        ue.increments = ue.increments.saturating_add(1);
        let factor = 1u64
            .checked_shl(ue.increments)
            .map_or(u64::MAX as f64, |f| f as f64);
        ue.est_total_runtime = (elapsed + factor * hint).min(f64::MAX);
        if ue.increments >= 64 {
            // The doubling factor has saturated; guarantee progress even
            // when `factor * hint` underflows against `elapsed`.
            if ue.est_total_runtime <= elapsed {
                ue.est_total_runtime = (elapsed * 2.0).min(f64::MAX).max(elapsed + 1.0);
            }
            break;
        }
    }
    ue.est_total_runtime
}

/// An attempt's Eq. 2 conditional and the survivals derived from it.
struct Conditional {
    /// The pinned (placement-scaled) estimate this was conditioned from.
    prior: Arc<DiscreteDist>,
    /// `prior.condition(from)`.
    dist: DiscreteDist,
    /// Elapsed time `dist` was built at.
    from: f64,
    /// `dist.survival(slot − start)` at the grid slots of `grid_epoch`.
    grid: Vec<f64>,
    /// [`RunningTable::grid_epoch`] `grid` was computed under; 0 = never.
    grid_epoch: u64,
}

impl Conditional {
    /// True when conditioning `prior` on `elapsed` would rebuild `dist`
    /// bit for bit (see the module docs).
    fn holds(&self, prior: &Arc<DiscreteDist>, elapsed: f64) -> bool {
        Arc::ptr_eq(&self.prior, prior) && self.from <= elapsed && elapsed < self.dist.lower()
    }

    /// The conditional of `prior` at `elapsed`, reusing `cached` when exact.
    fn refresh(cached: Option<Self>, prior: &Arc<DiscreteDist>, elapsed: f64) -> Self {
        match cached {
            Some(c) if c.holds(prior, elapsed) => c,
            _ => Self {
                prior: prior.clone(),
                dist: prior.condition(elapsed),
                from: elapsed,
                grid: Vec::new(),
                grid_epoch: 0,
            },
        }
    }

    /// Brings `grid` to the survivals at the grid slots `later` (absolute
    /// times) for an attempt started at `start`; recomputed only under a
    /// new grid epoch.
    fn refresh_grid(&mut self, later: &[f64], epoch: u64, start: f64) {
        if self.grid_epoch != epoch {
            self.grid.clear();
            self.grid
                .extend(later.iter().map(|t| self.dist.survival(t - start)));
            self.grid_epoch = epoch;
        }
    }
}

/// Per-attempt state, alive exactly as long as the attempt is running.
#[derive(Default)]
struct Attempt {
    /// Exp-inc state once the attempt has outlived its prior. Decisions
    /// depend on it, unlike `cond`.
    underest: Option<UnderEst>,
    /// Derived state: dropping it only costs a rebuild.
    cond: Option<Conditional>,
}

/// A running attempt: (job, attempt-start bits).
type AttemptKey = (JobId, u64);

/// Cross-cycle table of running attempts; owns the running side of MILP
/// compilation. Each cycle merges the view's running set (id order) into
/// last cycle's table, so an attempt no longer running is simply not
/// carried over.
#[derive(Default)]
pub(crate) struct RunningTable {
    /// This cycle's attempts, sorted by key.
    attempts: Vec<(AttemptKey, Attempt)>,
    /// Last cycle's table while [`Self::step`] merges it; empty between
    /// cycles, kept for its allocation.
    spare: Vec<(AttemptKey, Attempt)>,
    /// The grid slots (`slots[1..]`) the current `grid_epoch` stands for.
    grid: Vec<f64>,
    grid_epoch: u64,
}

impl RunningTable {
    /// Drops every cached conditional, keeping exp-inc state, so the next
    /// compile rebuilds the running side from scratch.
    #[cfg(test)]
    pub(crate) fn forget_conditionals(&mut self) {
        for (_, a) in &mut self.attempts {
            a.cond = None;
        }
    }

    /// Everything the table carries, bit for bit, except the prior `Arc`s
    /// (the idle-path differential compares it after every cycle).
    #[cfg(test)]
    pub(crate) fn state(&self) -> String {
        use std::fmt::Write;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = format!("{} {:?}", self.grid_epoch, bits(&self.grid));
        for ((id, start), a) in &self.attempts {
            let ue = a
                .underest
                .map(|u| (u.increments, u.est_total_runtime.to_bits()));
            let cond = a.cond.as_ref().map(|c| {
                let points: Vec<f64> = c.dist.points().iter().flat_map(|(t, p)| [*t, *p]).collect();
                (c.from.to_bits(), c.grid_epoch, bits(&c.grid), bits(&points))
            });
            let _ = write!(out, "\n{id:?} {start} {ue:?} {cond:?}");
        }
        out
    }

    /// Running attempts currently on exp-inc estimates.
    #[cfg(test)]
    pub(crate) fn exhausted(&self) -> usize {
        self.attempts
            .iter()
            .filter(|(_, a)| a.cond.is_none())
            .count()
    }

    /// Compiles the cycle's MILP: a binary and demand row per generated
    /// option, a preemption indicator per running best-effort job, and one
    /// capacity row per (equivalence set, slot) charging options (Eq. 3)
    /// and running attempts (Eq. 2) their expected consumption.
    pub(crate) fn compile(
        &mut self,
        cfg: &SchedConfig,
        view: &SimulationView<'_>,
        now: f64,
        gen: &Generated<'_>,
        cache: &mut EstimateCache,
        estimate: impl Fn(&JobSpec) -> DiscreteDist,
    ) -> CompiledModel {
        let Generated {
            groups,
            slots,
            space_masks,
            ..
        } = *gen;
        let multi_group = groups.num_groups() > 1;
        let mut model = Model::new();
        let mut compiled: Vec<CompiledOption> = Vec::new();
        let mut hopeless: Vec<JobId> = Vec::new();
        let mut pruned = 0u64;
        let jobs = gen
            .job_options
            .iter()
            .zip(gen.considered)
            .zip(gen.job_groups);
        for (job_idx, ((jo, spec), &group)) in jobs.enumerate() {
            let (group_start, group_len) = groups.group_range(group);
            let mut vars = Vec::with_capacity(jo.options.len());
            for o in &jo.options {
                // Multiple groups only: drop options whose gang cannot fit
                // the static capacity under the mask, so a group never
                // carries dead MILP variables. Single-group models are
                // pinned by the corpus digests and keep every option.
                if multi_group
                    && spec.tasks > mask_capacity(view.cluster, group_start, group_len, o.mask)
                {
                    pruned += 1;
                    continue;
                }
                let var = model.add_binary(o.utility);
                compiled.push(CompiledOption {
                    job_idx,
                    var,
                    slot: o.slot,
                    mask: o.mask,
                    dist: o.dist.clone(),
                    tasks: spec.tasks as f64,
                    group,
                });
                vars.push(var);
            }
            if vars.is_empty() {
                // `home_group` probed every group before settling on this
                // one, so a gang over its capacity fits none and can never
                // run under group-local masks, whatever its kind.
                let too_wide =
                    multi_group && spec.tasks > groups.group_capacity(group, view.cluster);
                let worthless =
                    cfg.cancel_hopeless && spec.kind.is_slo() && jo.best_utility <= 1e-9;
                if too_wide || worthless {
                    hopeless.push(spec.id);
                }
                continue;
            }
            // Demand: at most one option per job.
            let terms: Vec<(VarId, f64)> = vars.iter().map(|v| (*v, 1.0)).collect();
            model.add_constraint(&terms, Cmp::Le, 1.0);
            model.add_sos1(&vars);
        }

        // Running jobs: conditional consumption (one row of `survivals` per
        // attempt, in view order) plus, for best-effort jobs, a preemption
        // indicator and the nodes it would free.
        let mut survivals: Vec<f64> = Vec::with_capacity(view.running.len() * slots.len());
        self.step(cfg, view, now, slots, cache, estimate, Some(&mut survivals));
        let stride = view.cluster.num_partitions().max(1);
        let mut running: Vec<RunningJob> = Vec::with_capacity(view.running.len());
        let mut nodes = vec![0u32; view.running.len() * stride];
        for (r, nodes_by_part) in view.running.iter().zip(nodes.chunks_exact_mut(stride)) {
            for (p, n) in r.allocation {
                if let Some(held) = nodes_by_part.get_mut(p.index()) {
                    *held += n;
                }
            }
            let preempt_var = if cfg.preemption_enabled && !r.spec.kind.is_slo() {
                Some(model.add_binary(-cfg.preemption_cost * r.spec.utility_weight.max(1.0)))
            } else {
                None
            };
            running.push(RunningJob {
                id: r.spec.id,
                preempt_var,
            });
        }

        // Capacity rows per (equivalence set, slot). The (mask, slot)
        // buckets hand each row exactly the options contained in its set
        // that have started by its slot — no full-option scan per row.
        let buckets = OptionBuckets::build(&compiled, slots.len());
        let mut footprints: Vec<u32> = Vec::with_capacity(running.len());
        for &(g, mask) in space_masks {
            let (group_start, group_len) = groups.group_range(g);
            let cap = mask_capacity(view.cluster, group_start, group_len, mask) as f64;
            // `mask` bits are group-local: bit i ↔ global partition
            // group_start + i (identity on single-group clusters).
            footprints.clear();
            footprints.extend(nodes.chunks_exact(stride).map(|row| {
                row.iter()
                    .skip(group_start)
                    .take(group_len)
                    .enumerate()
                    .filter(|(i, _)| mask.contains(*i))
                    .map(|(_, n)| *n)
                    .sum::<u32>()
            }));
            for (si, &t) in slots.iter().enumerate() {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                buckets.for_each_contained(g, mask, si, |oi| {
                    let opt = &compiled[oi];
                    let rc = opt.dist.survival(t - slots[opt.slot]);
                    let coeff = opt.tasks * rc;
                    if coeff > 1e-6 {
                        terms.push((opt.var, coeff));
                    }
                });
                // Running usage inside this set, creditable by preemption.
                let mut used = 0.0;
                let at_slot = survivals.iter().skip(si).step_by(slots.len().max(1));
                for ((ri, &nodes_in), &surv) in running.iter().zip(&footprints).zip(at_slot) {
                    if nodes_in == 0 {
                        continue;
                    }
                    let usage = nodes_in as f64 * surv;
                    if usage <= 1e-6 {
                        continue;
                    }
                    used += usage;
                    if let Some(pv) = ri.preempt_var {
                        terms.push((pv, -usage));
                    }
                }
                if !terms.is_empty() {
                    model.add_constraint(&terms, Cmp::Le, cap - used);
                }
            }
        }
        CompiledModel {
            model,
            compiled,
            running: RunningSide {
                jobs: running,
                nodes,
                stride,
            },
            hopeless,
            pruned,
        }
    }

    /// Advances the table one cycle without compiling a model: everything
    /// [`Self::compile`] does to the running side except emit columns and
    /// rows. An idle cycle (nothing pending) calls this instead of
    /// compiling: exp-inc state is decision state and must step every
    /// cycle, and keeping the conditionals and grid survivals warm leaves
    /// the next busy cycle exactly the work a compiled idle cycle would.
    pub(crate) fn advance(
        &mut self,
        cfg: &SchedConfig,
        view: &SimulationView<'_>,
        now: f64,
        slots: &[f64],
        cache: &mut EstimateCache,
        estimate: impl Fn(&JobSpec) -> DiscreteDist,
    ) {
        self.step(cfg, view, now, slots, cache, estimate, None);
    }

    /// The per-cycle walk of the running set: grid epoch, one estimate-cache
    /// probe per attempt, exp-inc steps, Eq. 2 conditionals and grid
    /// survivals. With `survivals`, appends each attempt's survival at every
    /// slot, in view order.
    ///
    /// Last cycle's table is merged against `view.running` with a cursor
    /// (the simulator lists running attempts in id order, and a job runs
    /// one attempt at a time, so keys are distinct); a view in another order
    /// falls back to binary search and the new table is sorted once.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        cfg: &SchedConfig,
        view: &SimulationView<'_>,
        now: f64,
        slots: &[f64],
        cache: &mut EstimateCache,
        estimate: impl Fn(&JobSpec) -> DiscreteDist,
        mut survivals: Option<&mut Vec<f64>>,
    ) {
        let later = slots.get(1..).unwrap_or_default();
        if self.grid != later {
            self.grid.clear();
            self.grid.extend_from_slice(later);
            self.grid_epoch += 1;
        }
        let Self {
            attempts,
            spare,
            grid_epoch,
            ..
        } = self;
        std::mem::swap(attempts, spare);
        attempts.reserve(view.running.len());
        let mut cursor = 0usize;
        let mut in_order = true;
        let mut prev: Option<AttemptKey> = None;
        for r in &view.running {
            let key = (r.spec.id, r.start_time.to_bits());
            in_order &= prev.is_none_or(|p| p < key);
            prev = Some(key);
            let carried = if in_order {
                while spare.get(cursor).is_some_and(|(k, _)| *k < key) {
                    cursor += 1;
                }
                spare
                    .get_mut(cursor)
                    .filter(|(k, _)| *k == key)
                    .map(|(_, a)| {
                        cursor += 1;
                        std::mem::take(a)
                    })
            } else {
                spare
                    .binary_search_by(|(k, _)| k.cmp(&key))
                    .ok()
                    .and_then(|i| spare.get_mut(i))
                    .map(|(_, a)| std::mem::take(a))
            };
            let mut attempt = carried.unwrap_or_default();
            let elapsed = r.elapsed(now);
            // Scale by the placement actually chosen for this attempt.
            let off_pref = r.spec.preferred.as_ref().is_some_and(|pref| {
                r.allocation
                    .iter()
                    .any(|(p, n)| *n > 0 && !pref.contains(p))
            });
            // A running attempt's estimate stays pinned: Eq. 2 must keep
            // renormalising the prior the plan was built on.
            let prior = cache.running_prior(
                r.spec.id,
                off_pref.then_some(r.spec.nonpreferred_slowdown),
                || estimate(r.spec),
            );
            let start = r.start_time;
            if prior.is_exhausted_at(elapsed) {
                // §4.2.1: exponential-increment under-estimate handling.
                attempt.cond = None;
                let ue = attempt.underest.get_or_insert(UnderEst {
                    increments: 0,
                    est_total_runtime: elapsed + cfg.cycle_hint,
                });
                let est = exp_inc(ue, elapsed, cfg.cycle_hint);
                if let Some(out) = survivals.as_deref_mut() {
                    out.extend(
                        slots
                            .iter()
                            .map(|t| DiscreteDist::point_survival(est, t - start)),
                    );
                }
            } else {
                let cached = attempt.cond.take();
                let cond = attempt
                    .cond
                    .insert(Conditional::refresh(cached, &prior, elapsed));
                cond.refresh_grid(later, *grid_epoch, start);
                if let Some(out) = survivals.as_deref_mut() {
                    out.extend(slots.first().map(|t| cond.dist.survival(t - start)));
                    out.extend_from_slice(&cond.grid);
                }
            }
            attempts.push((key, attempt));
        }
        if !in_order {
            attempts.sort_unstable_by_key(|(k, _)| *k);
        }
        // Attempts that are no longer running take their state with them.
        spare.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use threesigma_cluster::{ClusterSpec, JobKind, PartitionId, RunningJob as ViewJob};
    use threesigma_milp::{solver_for_tier, SolverConfig};

    #[test]
    fn exp_inc_saturates_past_sixty_three_doublings() {
        // Drive the doubling count far past 63: the 2^t factor must
        // saturate instead of overflowing to inf (which produced a
        // `point(inf)` distribution and NaN survival terms downstream).
        let mut ue = UnderEst {
            increments: 0,
            est_total_runtime: 0.0,
        };
        // hint so small relative to elapsed's float granularity that even
        // 2^63 · hint is absorbed — the doubling count must run all the
        // way to the cap and still make finite forward progress.
        let est = exp_inc(&mut ue, 1e30, 1e-6);
        assert!(ue.increments >= 64, "t = {}", ue.increments);
        assert!(est.is_finite(), "estimate must stay finite, got {est}");
        assert!(est > 1e30, "estimate must exceed elapsed, got {est}");

        // Repeated invocations with growing elapsed keep making finite
        // forward progress; the increment counter saturates, never wraps.
        let mut elapsed = est;
        for _ in 0..10 {
            let next = exp_inc(&mut ue, elapsed, 1e-6);
            assert!(next.is_finite() && next > elapsed);
            elapsed = next;
        }

        // The pre-saturation regime still doubles exactly as §4.2.1 asks.
        let mut small = UnderEst {
            increments: 0,
            est_total_runtime: 0.0,
        };
        let est = exp_inc(&mut small, 100.0, 10.0);
        assert_eq!(small.increments, 1);
        assert_eq!(est, 100.0 + 2.0 * 10.0);
        let est = exp_inc(&mut small, 130.0, 10.0);
        assert_eq!(small.increments, 2);
        assert_eq!(est, 130.0 + 4.0 * 10.0);
    }

    fn bits(d: &DiscreteDist) -> Vec<(u64, u64)> {
        d.points()
            .iter()
            .map(|(t, p)| (t.to_bits(), p.to_bits()))
            .collect()
    }

    proptest! {
        /// The exactness oracle for the two reuse rules: along any
        /// non-decreasing `elapsed` walk — onto, just short of and just
        /// past support points, and beyond `upper()` — the carried
        /// conditional and every survival it serves equal a fresh
        /// `condition(elapsed)` bit for bit.
        #[test]
        fn carried_conditional_matches_a_fresh_one_bit_for_bit(
            mut times in prop::collection::vec(1.0f64..500.0, 1..12),
            weights in prop::collection::vec(0.0f64..1.0, 12),
            tiny in prop::collection::vec(0u8..4, 12),
            dups in prop::collection::vec(0u8..3, 12),
            steps in prop::collection::vec(0.0f64..1.0, 60),
            nudges in prop::collection::vec(0u8..4, 60),
            regrids in prop::collection::vec(0u8..5, 60),
        ) {
            times.sort_by(f64::total_cmp);
            // Duplicate abscissae and masses far below the 1e-12
            // renormalisation floor.
            for i in 1..times.len() {
                if dups[i] == 0 {
                    times[i] = times[i - 1];
                }
            }
            let raw: Vec<f64> = (0..times.len())
                .map(|i| if tiny[i] == 0 { 1e-15 } else { 0.05 + weights[i] })
                .collect();
            let total: f64 = raw.iter().sum();
            let points: Vec<(f64, f64)> =
                times.iter().zip(&raw).map(|(t, w)| (*t, w / total)).collect();
            let prior = Arc::new(DiscreteDist::from_points(points));

            let start = 17.0;
            let mut elapsed = 0.0f64;
            let mut epoch = 1u64;
            let mut later = vec![60.0, 120.0, 180.0, 240.0];
            let mut carried: Option<Conditional> = None;
            for ((step, nudge), regrid) in steps.iter().zip(&nudges).zip(&regrids) {
                // Walk to a random support point (or past the last one),
                // landing exactly on it, one ulp short, or one ulp past.
                let k = (step * (times.len() + 1) as f64) as usize;
                let target = times.get(k).copied().unwrap_or(prior.upper() + 100.0 * step);
                let target = match nudge {
                    0 => target,
                    1 => f64::from_bits(target.to_bits() - 1),
                    2 => f64::from_bits(target.to_bits() + 1),
                    _ => elapsed + step,
                };
                elapsed = elapsed.max(target);
                if *regrid == 0 {
                    later = later.iter().map(|t| t + 60.0).collect();
                    epoch += 1;
                } else if *regrid == 1 {
                    later.pop();
                    epoch += 1;
                }
                if prior.is_exhausted_at(elapsed) {
                    carried = None;
                    continue;
                }
                let mut c = Conditional::refresh(carried.take(), &prior, elapsed);
                let fresh = prior.condition(elapsed);
                prop_assert_eq!(bits(&c.dist), bits(&fresh), "conditional at {elapsed}");
                c.refresh_grid(&later, epoch, start);
                let served = c.grid.clone();
                let expect: Vec<f64> = later.iter().map(|t| fresh.survival(t - start)).collect();
                prop_assert_eq!(
                    served.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "grid survivals at {elapsed}"
                );
                for t in [elapsed, elapsed + 1.0, prior.upper(), 1e9] {
                    prop_assert_eq!(c.dist.survival(t).to_bits(), fresh.survival(t).to_bits());
                }
                carried = Some(c);
            }
        }
    }

    #[test]
    fn conditional_is_carried_between_mass_points_only() {
        let prior = Arc::new(DiscreteDist::from_points(vec![
            (100.0, 0.25),
            (200.0, 0.25),
            (300.0, 0.5),
        ]));
        let c = Conditional::refresh(None, &prior, 10.0);
        assert_eq!(c.from, 10.0);
        // Still short of the first point: carried, `from` untouched.
        let c = Conditional::refresh(Some(c), &prior, 99.0);
        assert_eq!(c.from, 10.0);
        // Landing on a point drops it (`t > elapsed` is strict): rebuilt.
        let c = Conditional::refresh(Some(c), &prior, 100.0);
        assert_eq!(c.from, 100.0);
        assert_eq!(c.dist.lower(), 200.0);
        // An equal prior behind a different `Arc` is a different prior.
        let twin = Arc::new((*prior).clone());
        let c = Conditional::refresh(Some(c), &twin, 150.0);
        assert_eq!(c.from, 150.0);
        assert!(Arc::ptr_eq(&c.prior, &twin));
        // Time running backwards is not covered by the carried state.
        let c = Conditional::refresh(Some(c), &twin, 120.0);
        assert_eq!(c.from, 120.0);
    }

    /// Compiles a cycle with nothing pending and job 7 running (or, with
    /// `running` false, finished) and returns the MILP text.
    fn compile_cycle(
        table: &mut RunningTable,
        cache: &mut EstimateCache,
        now: f64,
        estimate: &DiscreteDist,
        running: bool,
    ) -> String {
        let cluster = ClusterSpec::uniform(2, 4);
        let spec = JobSpec::new(7, 0.0, 3, 500.0, JobKind::BestEffort);
        let allocation = [(PartitionId(0), 2), (PartitionId(1), 1)];
        let attempt = ViewJob {
            spec: &spec,
            start_time: 4.0,
            allocation: &allocation,
        };
        let view = SimulationView {
            cluster: &cluster,
            pending: Vec::new(),
            running: if running { vec![attempt] } else { Vec::new() },
            free: &[2, 3],
            now,
        };
        let groups = MaskGroups::new(2);
        let generated = Generated {
            considered: &[],
            job_groups: &[],
            job_options: &[],
            space_masks: &[(0, groups.group_mask(0)), (0, RackMask::single(1))],
            groups: &groups,
            slots: &[now, 60.0, 120.0, 180.0],
        };
        let cfg = SchedConfig::default();
        let compiled = table.compile(&cfg, &view, now, &generated, cache, |_| estimate.clone());
        assert_eq!(compiled.running.iter().count(), usize::from(running));
        compiled.model.to_text()
    }

    fn compile_running(
        table: &mut RunningTable,
        cache: &mut EstimateCache,
        now: f64,
        estimate: &DiscreteDist,
    ) -> String {
        compile_cycle(table, cache, now, estimate, true)
    }

    #[test]
    fn swapped_prior_is_detected_and_reconditioned() {
        let first = DiscreteDist::from_points(vec![(100.0, 0.5), (200.0, 0.5)]);
        let second = DiscreteDist::from_points(vec![(50.0, 0.5), (300.0, 0.5)]);
        let mut table = RunningTable::default();
        let mut cache = EstimateCache::new();
        let before = compile_running(&mut table, &mut cache, 10.0, &first);
        // The entry is dropped and re-estimated between cycles; elapsed is
        // still short of the carried conditional's first point, so only
        // the `Arc` identity tells the two priors apart.
        cache.invalidate(JobId(7));
        let swapped = compile_running(&mut table, &mut cache, 12.0, &second);
        let scratch = compile_running(
            &mut RunningTable::default(),
            &mut EstimateCache::new(),
            12.0,
            &second,
        );
        assert_eq!(swapped, scratch);
        assert_ne!(swapped, before);
        // Same prior, next cycle: carried state and a cleared table agree.
        let carried = compile_running(&mut table, &mut cache, 14.0, &second);
        table.forget_conditionals();
        let rebuilt = compile_running(&mut table, &mut cache, 14.0, &second);
        assert_eq!(carried, rebuilt);
    }

    proptest! {
        /// The idle fast path's premise: with nothing pending, every model
        /// the compile stage can build is solved by the status quo at every
        /// solver tier, and extraction preempts nothing.
        #[test]
        fn with_nothing_pending_the_status_quo_is_the_optimum(
            multi in 0u8..2,
            extra_racks in 0usize..8,
            per_rack in 1u32..6,
            // Per running attempt: SLO?, weight, tasks, first rack,
            // preference (none / on / off the allocation), start, prior
            // scale, prior exhausted?
            n in 0usize..24,
            slo in prop::collection::vec(0u8..2, 24),
            weight in prop::collection::vec(0.0f64..20.0, 24),
            tasks in prop::collection::vec(1u32..5, 24),
            rack in prop::collection::vec(0usize..512, 24),
            pref in prop::collection::vec(0u8..3, 24),
            start in prop::collection::vec(0.0f64..590.0, 24),
            scale in prop::collection::vec(0.05f64..3.0, 24),
            exhausted in prop::collection::vec(0u8..2, 24),
            preemption_cost in 1e-6f64..10.0,
            preemption_off in 0u8..10,
            plan_slots in 1usize..9,
            extra_masks in prop::collection::vec(0usize..128, 0..4),
        ) {
            let racks = if multi == 1 { 129 + extra_racks } else { 1 + extra_racks };
            let cluster = ClusterSpec::uniform(racks, per_rack);
            let now = 600.0;
            let mut free = vec![per_rack; racks];
            let mut specs = Vec::new();
            let mut allocations = Vec::new();
            let mut priors = Vec::new();
            for i in 0..n {
                let (tasks, rack, start) = (tasks[i], rack[i], start[i]);
                // A gang over consecutive racks from `rack`, if it fits.
                let mut alloc: Vec<(PartitionId, u32)> = Vec::new();
                let mut left = tasks;
                for k in 0..racks {
                    let p = (rack + k) % racks;
                    let take = left.min(free[p]);
                    if take > 0 {
                        alloc.push((PartitionId(p), take));
                        left -= take;
                    }
                    if left == 0 {
                        break;
                    }
                }
                if left > 0 {
                    continue;
                }
                for (p, n) in &alloc {
                    free[p.index()] -= n;
                }
                let kind = if slo[i] == 1 {
                    JobKind::Slo { deadline: now + 300.0 }
                } else {
                    JobKind::BestEffort
                };
                let id = specs.len() as u64 + 1;
                let mut spec = JobSpec::new(id, start, tasks, 100.0, kind).with_weight(weight[i]);
                let home = alloc[0].0;
                match pref[i] {
                    1 => spec = spec.with_preference(vec![home], 1.5),
                    2 => {
                        let other = PartitionId((home.index() + racks - 1) % racks);
                        spec = spec.with_preference(vec![other], 1.5);
                    }
                    _ => {}
                }
                let elapsed = now - start;
                let prior = if exhausted[i] == 1 {
                    DiscreteDist::from_points(vec![(0.25 * elapsed, 0.5), (0.5 * elapsed, 0.5)])
                } else {
                    let a = 10.0 + scale[i] * elapsed;
                    DiscreteDist::from_points(vec![(a, 0.3), (2.0 * a, 0.3), (4.0 * a, 0.4)])
                };
                specs.push(spec);
                allocations.push(alloc);
                priors.push(prior);
            }
            let running: Vec<ViewJob<'_>> = specs
                .iter()
                .zip(&allocations)
                .map(|(spec, alloc)| ViewJob {
                    spec,
                    start_time: spec.submit_time,
                    allocation: alloc,
                })
                .collect();
            let view = SimulationView {
                cluster: &cluster,
                pending: Vec::new(),
                running,
                free: &free,
                now,
            };
            let groups = MaskGroups::new(racks);
            let mut space_masks: Vec<(usize, RackMask)> =
                (0..groups.num_groups()).map(|g| (g, groups.group_mask(g))).collect();
            let (_, group0_len) = groups.group_range(0);
            for m in &extra_masks {
                space_masks.push((0, RackMask::single(m % group0_len)));
            }
            let slots: Vec<f64> = std::iter::once(now)
                .chain((1..plan_slots).map(|k| ((now / 60.0).floor() + k as f64) * 60.0))
                .collect();
            let generated = Generated {
                considered: &[],
                job_groups: &[],
                job_options: &[],
                space_masks: &space_masks,
                groups: &groups,
                slots: &slots,
            };
            let cfg = SchedConfig {
                preemption_cost,
                preemption_enabled: preemption_off > 0,
                ..SchedConfig::default()
            };
            let compiled = RunningTable::default().compile(
                &cfg,
                &view,
                now,
                &generated,
                &mut EstimateCache::new(),
                |spec| priors[spec.id.0 as usize - 1].clone(),
            );
            prop_assert!(compiled.compiled.is_empty() && compiled.hopeless.is_empty());
            let model = &compiled.model;
            let warm = vec![0.0; model.num_vars()];
            for tier in 0..=2u8 {
                let config = SolverConfig {
                    node_limit: cfg.solver_nodes,
                    time_limit: Some(cfg.solver_time),
                    gap_tolerance: 1e-4,
                    ..SolverConfig::default()
                };
                let solution = solver_for_tier(tier, config).solve_with_warm_start(model, Some(&warm));
                prop_assert!(solution.has_solution(), "tier {tier}: {:?}", solution.status);
                prop_assert!(!solution.timed_out, "tier {tier} timed out");
                prop_assert!(
                    solution.values.iter().all(|x| *x == 0.0),
                    "tier {tier}: {:?}",
                    solution.values
                );
                for (job, _) in compiled.running.iter() {
                    if let Some(pv) = job.preempt_var {
                        prop_assert!(solution.values[pv.index()] <= 0.5, "tier {tier} preempts");
                    }
                }
            }
        }
    }

    /// A running set on a 4 × 8 cluster: per attempt its spec, allocation
    /// and prior. Odd ids run off their preferred rack; every third has
    /// outlived its prior (exp-inc); the rest sit far short of their first
    /// mass point, so their conditionals carry from cycle to cycle.
    struct Fleet {
        cluster: ClusterSpec,
        specs: Vec<JobSpec>,
        allocations: Vec<Vec<(PartitionId, u32)>>,
        priors: Vec<DiscreteDist>,
    }

    impl Fleet {
        fn new(n: u64) -> Self {
            let mut fleet = Fleet {
                cluster: ClusterSpec::uniform(4, 8),
                specs: Vec::new(),
                allocations: Vec::new(),
                priors: Vec::new(),
            };
            for id in 1..=n {
                let rack = (id % 4) as usize;
                let mut spec = JobSpec::new(id, 10.0 * id as f64, 1, 500.0, JobKind::BestEffort);
                if id % 2 == 1 {
                    spec = spec.with_preference(vec![PartitionId((rack + 1) % 4)], 1.5);
                }
                let prior = if id % 3 == 0 {
                    DiscreteDist::from_points(vec![(50.0, 0.5), (100.0, 0.5)])
                } else {
                    DiscreteDist::from_points(vec![(5_000.0, 0.5), (9_000.0 + id as f64, 0.5)])
                };
                fleet.specs.push(spec);
                fleet.allocations.push(vec![(PartitionId(rack), 1)]);
                fleet.priors.push(prior);
            }
            fleet
        }

        /// The view of the attempts at `order` (indices into the fleet).
        fn view(&self, order: &[usize], now: f64) -> SimulationView<'_> {
            SimulationView {
                cluster: &self.cluster,
                pending: Vec::new(),
                running: order
                    .iter()
                    .map(|&i| ViewJob {
                        spec: &self.specs[i],
                        start_time: self.specs[i].submit_time,
                        allocation: &self.allocations[i],
                    })
                    .collect(),
                free: &[0, 0, 0, 0],
                now,
            }
        }

        /// One walk of `order` at `now`, returning the survivals by job id.
        fn step(
            &self,
            table: &mut RunningTable,
            cache: &mut EstimateCache,
            order: &[usize],
            now: f64,
        ) -> Vec<(JobId, Vec<u64>)> {
            let slots = [now, 660.0, 720.0, 780.0];
            let mut survivals = Vec::new();
            table.step(
                &SchedConfig::default(),
                &self.view(order, now),
                now,
                &slots,
                cache,
                |spec| self.priors[spec.id.0 as usize - 1].clone(),
                Some(&mut survivals),
            );
            let mut by_id: Vec<(JobId, Vec<u64>)> = order
                .iter()
                .zip(survivals.chunks_exact(slots.len()))
                .map(|(&i, s)| (self.specs[i].id, s.iter().map(|x| x.to_bits()).collect()))
                .collect();
            by_id.sort_by_key(|(id, _)| *id);
            by_id
        }
    }

    #[test]
    fn a_shuffled_running_view_leaves_the_same_table() {
        let fleet = Fleet::new(12);
        let (mut sorted, mut shuffled) = (RunningTable::default(), RunningTable::default());
        let (mut sorted_cache, mut shuffled_cache) = (EstimateCache::new(), EstimateCache::new());
        // Attempts start and finish between cycles; the shuffled side sees
        // each running set reversed and rotated.
        let sets: [&[usize]; 5] = [
            &[0, 1, 2, 3, 4, 5],
            &[0, 2, 3, 4, 5, 6, 7],
            &[3, 5, 7, 8, 9, 10, 11],
            &[],
            &[1, 4, 9, 11],
        ];
        for (cycle, set) in sets.iter().enumerate() {
            let now = 600.0 + cycle as f64;
            let mut order: Vec<usize> = set.iter().rev().copied().collect();
            order.rotate_left(set.len() / 3);
            let a = fleet.step(&mut sorted, &mut sorted_cache, set, now);
            let b = fleet.step(&mut shuffled, &mut shuffled_cache, &order, now);
            assert_eq!(a, b, "survivals, cycle {cycle}");
            assert_eq!(sorted.state(), shuffled.state(), "table, cycle {cycle}");
            assert_eq!(sorted.attempts.len(), set.len());
            assert_eq!(sorted_cache.stats(), shuffled_cache.stats());
        }
        assert!(
            sorted.exhausted() > 0,
            "an exp-inc attempt is in the last set"
        );
    }

    thread_local! {
        /// Allocations made by the current thread (tests run on threads of
        /// their own). Const-initialised and without a destructor, so
        /// reading it from inside the allocator neither allocates nor
        /// touches freed thread-local storage.
        static ALLOCATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The system allocator, counting every `alloc`/`alloc_zeroed`/
    /// `realloc`; installed for this crate's unit-test binary.
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // whose `GlobalAlloc` contract is therefore the one upheld; the only
    // addition is a thread-local counter bump that does not allocate.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's obligations for `alloc` are passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            // SAFETY: as above, for `alloc_zeroed`.
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            // SAFETY: as above, for `realloc`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: as above, for `dealloc`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// Allocations one call of `f` makes on this thread.
    fn allocations_of(f: impl FnOnce()) -> usize {
        let before = ALLOCATIONS.with(std::cell::Cell::get);
        f();
        ALLOCATIONS.with(std::cell::Cell::get) - before
    }

    /// Steady state — no reconditioning, no grid change, no attempt
    /// starting or finishing — after two warm-up cycles (one builds the
    /// conditionals and fills the cache, the next sizes the second table
    /// buffer). Views and the survival buffer are the caller's.
    fn steady_state() -> (Fleet, RunningTable, EstimateCache) {
        let fleet = Fleet::new(12);
        let (mut table, mut cache) = (RunningTable::default(), EstimateCache::new());
        let order: Vec<usize> = (0..12).collect();
        for now in [600.0, 601.0] {
            fleet.step(&mut table, &mut cache, &order, now);
        }
        assert!(table.exhausted() > 0 && table.exhausted() < 12);
        (fleet, table, cache)
    }

    #[test]
    fn a_steady_state_idle_cycle_allocates_nothing() {
        let (fleet, mut table, mut cache) = steady_state();
        let order: Vec<usize> = (0..12).collect();
        let cfg = SchedConfig::default();
        for now in [602.0, 603.0, 604.0] {
            let view = fleet.view(&order, now);
            let slots = [now, 660.0, 720.0, 780.0];
            let spent = allocations_of(|| {
                table.advance(&cfg, &view, now, &slots, &mut cache, |spec| {
                    fleet.priors[spec.id.0 as usize - 1].clone()
                });
            });
            assert_eq!(spent, 0, "idle cycle at {now}");
        }
    }

    #[test]
    fn a_steady_state_busy_walk_allocates_nothing() {
        let (fleet, mut table, mut cache) = steady_state();
        let order: Vec<usize> = (0..12).collect();
        let cfg = SchedConfig::default();
        let mut survivals: Vec<f64> = Vec::with_capacity(12 * 4);
        for now in [602.0, 603.0, 604.0] {
            let view = fleet.view(&order, now);
            let slots = [now, 660.0, 720.0, 780.0];
            survivals.clear();
            let spent = allocations_of(|| {
                table.step(
                    &cfg,
                    &view,
                    now,
                    &slots,
                    &mut cache,
                    |spec| fleet.priors[spec.id.0 as usize - 1].clone(),
                    Some(&mut survivals),
                );
            });
            assert_eq!(spent, 0, "running walk at {now}");
            assert_eq!(survivals.len(), 12 * slots.len());
        }
    }

    #[test]
    fn finished_attempts_leave_the_table() {
        let d = DiscreteDist::from_points(vec![(100.0, 1.0)]);
        let mut table = RunningTable::default();
        let mut cache = EstimateCache::new();
        let busy = compile_running(&mut table, &mut cache, 10.0, &d);
        assert_eq!(table.attempts.len(), 1);
        let idle = compile_cycle(&mut table, &mut cache, 12.0, &d, false);
        assert!(table.attempts.is_empty());
        assert_ne!(busy, idle);
        assert_eq!(idle, Model::new().to_text(), "nothing left to constrain");
    }
}
