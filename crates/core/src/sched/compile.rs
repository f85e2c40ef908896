//! Stage 2 of the 3σSched cycle: compile the generated options and the
//! running set into the cycle's MILP.
//!
//! The pending side is cheap (one binary per option, one demand row per
//! job). The running side is what a large cluster pays for: every running
//! attempt's prior is conditioned on its elapsed time (Eq. 2) and charged
//! to every capacity row (Eq. 3). [`RunningTable`] is the one owner of a
//! running attempt's state. Its *decision state* is the prior — handed over
//! at placement ([`RunningTable::place`]), scaled once if the attempt runs
//! off its preferred racks — and, once the attempt outlives it, the §4.2.1
//! exp-inc estimate, which steps every cycle. Its *derived state*, read
//! only by the MILP and brought up to date only by busy cycles, is:
//!
//! * **The conditional** `P(T | T > elapsed)`. It keeps exactly the mass
//!   points `t > elapsed`; built at `from`, it is reused while
//!   `from ≤ elapsed < lower()` — no point lies in `(from, elapsed]`, so
//!   [`DiscreteDist::condition`] would keep the same points and
//!   renormalise by the same sum. A tiny-mass `point(elapsed)` conditional
//!   has `lower() == from`, which the strict bound rejects.
//! * **Grid survivals.** Slot 0 is `now`, but later slots sit on the
//!   absolute `slot_width` grid, so `survival(slot − start)` at those slots
//!   is a function of the conditional and the grid alone; it is recomputed
//!   only when either changes.
//!
//! Both rules are value-exact for any jump in `elapsed`, so however many
//! idle cycles left a conditional stale, the compiled model is
//! bit-identical to a from-scratch compile (the differential tests clear
//! the table before every cycle, or refresh it every cycle, and compare
//! MILP text). The walk is a key-sorted `Vec` merged against the view's
//! running set (which the simulator lists in id order): no lookups, and
//! no allocation in steady state. The table also keeps the cycle's MILP
//! and the buffers its rows are built from; a busy cycle clears and
//! rebuilds them, building every row already in variable order.

use std::sync::Arc;

use threesigma_cluster::{JobId, JobSpec, RunningJob as ViewJob, SimulationView};
use threesigma_milp::{Cmp, Model, VarId};

use crate::sched::feasibility::mask_capacity;
use crate::sched::groups::MaskGroups;
use crate::sched::options::{contained_options, CompiledOption, JobOptions, RackMask};
use crate::sched::threesigma::SchedConfig;
use crate::DiscreteDist;

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

/// Stage 2's output: the MILP plus what extraction needs to read a
/// solution back. The [`RunningTable`] keeps it and rebuilds it in place
/// every busy cycle.
#[derive(Default)]
pub(crate) struct CompiledModel {
    /// The cycle's MILP.
    pub model: Model,
    /// Options that got a binary, in variable order.
    pub compiled: Vec<CompiledOption>,
    /// The running set in view order, with its preemption indicators.
    pub running: Vec<RunningJob>,
    /// Jobs to cancel: SLO jobs whose every option is worthless (if
    /// configured), and gangs wider than every mask group.
    pub hopeless: Vec<JobId>,
    /// Options dropped because their gang cannot fit under the mask
    /// (clusters of more than one mask group only).
    pub pruned: u64,
}

/// The compile's row-building buffers, refilled per job, per (group, mask)
/// or per row and kept for their allocations.
#[derive(Default)]
struct RowScratch {
    /// One job's option binaries.
    vars: Vec<VarId>,
    /// One row's terms, in variable order.
    terms: Vec<(VarId, f64)>,
    /// The (group, mask)'s options, in variable order.
    contained: Vec<usize>,
    /// The (group, mask)'s running members: (attempt in view order, nodes
    /// it holds inside the set, its preemption indicator), nonzero
    /// footprints only.
    members: Vec<(usize, u32, Option<VarId>)>,
}

/// §4.2.1 exponential-increment step with saturating arithmetic, on one
/// running attempt's exp-inc state (`increments`, `est_total_runtime`).
///
/// Advances the attempt's estimated total runtime to `elapsed + 2^t · hint`
/// until it exceeds `elapsed`. The `2^t` factor is computed in `u64` with
/// `checked_shl` and capped once `t` reaches 64, so a long-outlived
/// under-estimate can never push the factor to `inf` (which previously
/// produced a `point(inf)` distribution and NaN survival terms in the
/// MILP). If `hint` is so small it is absorbed by `elapsed` in floating
/// point, the estimate still makes forward progress instead of looping.
fn exp_inc(increments: &mut u32, est_total_runtime: &mut f64, elapsed: f64, hint: f64) -> f64 {
    while *est_total_runtime <= elapsed {
        *increments = increments.saturating_add(1);
        let factor = 1u64
            .checked_shl(*increments)
            .map_or(u64::MAX as f64, |f| f as f64);
        *est_total_runtime = (elapsed + factor * hint).min(f64::MAX);
        if *increments >= 64 {
            // The doubling factor has saturated; guarantee progress even
            // when `factor * hint` underflows against `elapsed`.
            if *est_total_runtime <= elapsed {
                *est_total_runtime = (elapsed * 2.0).min(f64::MAX).max(elapsed + 1.0);
            }
            break;
        }
    }
    *est_total_runtime
}

/// An attempt's Eq. 2 conditional and the survivals derived from it. The
/// fields a busy cycle reads while the conditional holds sit inline, so
/// that visit never touches `dist`'s heap memory.
#[derive(Clone)]
struct Conditional {
    /// The attempt's prior conditioned on `from`.
    dist: DiscreteDist,
    /// Elapsed time `dist` was built at.
    from: f64,
    /// `dist.lower()`.
    lower: f64,
    /// `dist`'s survival at any time short of `lower` (its whole mass):
    /// slot 0's survival for as long as the conditional holds.
    mass: f64,
    /// `dist.survival(slot − start)` at the grid slots of `grid_epoch`.
    grid: Vec<f64>,
    /// [`RunningTable::grid_epoch`] `grid` was computed under; 0 = never.
    grid_epoch: u64,
}

impl Conditional {
    /// The conditional of `prior` at `elapsed`.
    fn new(prior: &DiscreteDist, elapsed: f64) -> Self {
        let dist = prior.condition(elapsed);
        Self {
            from: elapsed,
            lower: dist.lower(),
            mass: dist.survival(f64::NEG_INFINITY),
            dist,
            grid: Vec::new(),
            grid_epoch: 0,
        }
    }

    /// Brings `slot` to the conditional of `prior` at `elapsed`: kept while
    /// conditioning would rebuild it bit for bit (`from ≤ elapsed <
    /// lower`, see the module docs), otherwise re-conditioned in place,
    /// into the box's own point, survival and grid buffers.
    fn refresh<'c>(
        slot: &'c mut Option<Box<Self>>,
        prior: &DiscreteDist,
        elapsed: f64,
    ) -> &'c mut Self {
        match slot {
            Some(c) => {
                if !(c.from <= elapsed && elapsed < c.lower) {
                    prior.condition_into(elapsed, &mut c.dist);
                    c.from = elapsed;
                    c.lower = c.dist.lower();
                    c.mass = c.dist.survival(f64::NEG_INFINITY);
                    c.grid_epoch = 0;
                }
                c
            }
            None => slot.insert(Box::new(Self::new(prior, elapsed))),
        }
    }

    /// `dist.survival(t)` bit for bit: no point lies at or before a `t`
    /// short of `lower`, so the whole mass survives.
    fn survival(&self, t: f64) -> f64 {
        if t < self.lower {
            self.mass
        } else {
            self.dist.survival(t)
        }
    }

    /// Brings `grid` to the survivals at the grid slots `later` (absolute
    /// times) for an attempt started at `start`; recomputed only under a
    /// new grid epoch.
    fn refresh_grid(&mut self, later: &[f64], epoch: u64, start: f64) {
        if self.grid_epoch != epoch {
            let mut grid = std::mem::take(&mut self.grid);
            grid.clear();
            grid.extend(later.iter().map(|t| self.survival(t - start)));
            self.grid = grid;
            self.grid_epoch = epoch;
        }
    }
}

/// Where a running attempt stands against its prior.
#[derive(Clone)]
enum Phase {
    /// Short of the prior's `upper()`. The Eq. 2 conditional is derived
    /// state: built by the first busy cycle that needs it, refreshed only
    /// by busy cycles, and dropping it only costs a rebuild.
    Conditioned(Option<Box<Conditional>>),
    /// Outlived the prior (§4.2.1): exp-inc state, which decisions depend
    /// on and every cycle steps.
    ExpInc {
        increments: u32,
        est_total_runtime: f64,
    },
}

/// Per-attempt state, alive exactly as long as the attempt is running.
#[derive(Clone)]
struct Attempt {
    /// The estimate the attempt was placed on, scaled once if it runs off
    /// its preferred racks; fixed for the attempt's life.
    prior: Arc<DiscreteDist>,
    /// `prior.upper()`, inline so an idle cycle never reads the prior.
    upper: f64,
    phase: Phase,
}

impl Attempt {
    /// A newly seen attempt: takes its prior from `placed` (or, for a view
    /// built without a hand-off, a fresh `estimate`), scaled by the job's
    /// slowdown if any of its nodes lie off its preferred racks.
    fn first_sight(
        r: &ViewJob<'_>,
        placed: &mut Vec<(JobId, Arc<DiscreteDist>)>,
        estimate: impl Fn(&JobSpec) -> DiscreteDist,
    ) -> Self {
        let base = placed
            .iter()
            .position(|(job, _)| *job == r.spec.id)
            .map_or_else(|| Arc::new(estimate(r.spec)), |i| placed.swap_remove(i).1);
        let off_pref = r.spec.preferred.as_ref().is_some_and(|pref| {
            r.allocation
                .iter()
                .any(|(p, n)| *n > 0 && !pref.contains(p))
        });
        let slowdown = r.spec.nonpreferred_slowdown;
        // A 1.0 factor keeps the base, as `EstimateCache::scaled` does.
        let prior = if off_pref && slowdown != 1.0 {
            Arc::new(base.scale(slowdown))
        } else {
            base
        };
        Self {
            upper: prior.upper(),
            prior,
            phase: Phase::Conditioned(None),
        }
    }
}

/// A running attempt: (job, attempt-start bits).
type AttemptKey = (JobId, u64);

/// Cross-cycle table of running attempts; owns the running side of MILP
/// compilation. Each cycle merges the view's running set (id order) into
/// last cycle's table, so an attempt no longer running is simply not
/// carried over. It also keeps the compiled model and every per-cycle
/// buffer the compile fills, so a busy cycle builds into last cycle's
/// allocations.
#[derive(Default)]
pub(crate) struct RunningTable {
    /// This cycle's attempts, sorted by key.
    attempts: Vec<(AttemptKey, Attempt)>,
    /// Last cycle's table while [`Self::advance`] merges it; empty between
    /// cycles, kept for its allocation.
    spare: Vec<(AttemptKey, Attempt)>,
    /// Estimates of jobs placed since the last walk, which takes them as
    /// their attempts appear and drops the rest (attempts that ended
    /// before any cycle saw them).
    placed: Vec<(JobId, Arc<DiscreteDist>)>,
    /// The grid slots (`slots[1..]`) the current `grid_epoch` stands for.
    grid: Vec<f64>,
    grid_epoch: u64,
    /// The last busy walk's survivals, slot-major: attempt `ri` (view
    /// order) at slot `si` is `survivals[si * running + ri]`.
    survivals: Vec<f64>,
    /// The last busy cycle's compiled model.
    out: CompiledModel,
    scratch: RowScratch,
}

impl RunningTable {
    /// Hands a placed job's estimate (the one its plan was valued with) to
    /// the attempt the placement starts.
    pub(crate) fn place(&mut self, job: JobId, base: Arc<DiscreteDist>) {
        self.placed.push((job, base));
    }

    /// Compiles the cycle's MILP: a binary and demand row per generated
    /// option, a preemption indicator per running best-effort job, and one
    /// capacity row per (equivalence set, slot) charging options (Eq. 3)
    /// and running attempts (Eq. 2) their expected consumption. Every row
    /// is built in variable order — option binaries come first and
    /// preemption indicators follow in view order — so the model appends
    /// it without sorting.
    pub(crate) fn compile(
        &mut self,
        cfg: &SchedConfig,
        view: &SimulationView<'_>,
        now: f64,
        gen: &Generated<'_>,
        estimate: impl Fn(&JobSpec) -> DiscreteDist,
    ) -> &CompiledModel {
        let Generated {
            groups,
            slots,
            space_masks,
            ..
        } = *gen;
        // Running jobs' conditional consumption, slot-major in `survivals`.
        self.advance(cfg, view, now, estimate, Some(slots));
        let Self {
            survivals,
            out,
            scratch,
            ..
        } = self;
        let CompiledModel {
            model,
            compiled,
            running,
            hopeless,
            pruned,
        } = out;
        let RowScratch {
            vars,
            terms,
            contained,
            members,
        } = scratch;
        model.clear();
        compiled.clear();
        running.clear();
        hopeless.clear();
        *pruned = 0;
        let multi_group = groups.num_groups() > 1;
        let jobs = gen
            .job_options
            .iter()
            .zip(gen.considered)
            .zip(gen.job_groups);
        for (job_idx, ((jo, spec), &group)) in jobs.enumerate() {
            let (group_start, group_len) = groups.group_range(group);
            vars.clear();
            for o in &jo.options {
                // Multiple groups only: drop options whose gang cannot fit
                // the static capacity under the mask, so a group never
                // carries dead MILP variables. Single-group models are
                // pinned by the corpus digests and keep every option.
                if multi_group
                    && spec.tasks > mask_capacity(view.cluster, group_start, group_len, o.mask)
                {
                    *pruned += 1;
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
            terms.clear();
            terms.extend(vars.iter().map(|v| (*v, 1.0)));
            model.add_constraint(terms, Cmp::Le, 1.0);
            model.add_sos1(vars);
        }

        // Best-effort running jobs get a preemption indicator, crediting
        // the nodes it would free.
        for r in &view.running {
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

        // Capacity rows per (equivalence set, slot): each charges the
        // options contained in its set that have started by its slot, and
        // the set's running members their surviving nodes.
        let n = running.len();
        for &(g, mask) in space_masks {
            let (group_start, group_len) = groups.group_range(g);
            let cap = mask_capacity(view.cluster, group_start, group_len, mask) as f64;
            contained.clear();
            contained.extend(contained_options(compiled, g, mask));
            // `mask` bits are group-local: bit i ↔ global partition
            // group_start + i (identity on single-group clusters).
            let inside = |p: usize| {
                p.checked_sub(group_start)
                    .is_some_and(|i| i < group_len && mask.contains(i))
            };
            members.clear();
            let attempts = view.running.iter().zip(running.iter()).enumerate();
            members.extend(attempts.filter_map(|(ri, (r, job))| {
                let held: u32 = (r.allocation.iter())
                    .filter(|(p, _)| inside(p.index()))
                    .map(|(_, held)| *held)
                    .sum();
                (held > 0).then_some((ri, held, job.preempt_var))
            }));
            for (si, &t) in slots.iter().enumerate() {
                terms.clear();
                for &oi in contained.iter() {
                    let opt = &compiled[oi];
                    if opt.slot > si {
                        continue;
                    }
                    let rc = opt.dist.survival(t - slots[opt.slot]);
                    let coeff = opt.tasks * rc;
                    if coeff > 1e-6 {
                        terms.push((opt.var, coeff));
                    }
                }
                // Running usage inside this set, creditable by preemption.
                let at_slot = survivals.get(si * n..(si + 1) * n).unwrap_or_default();
                let mut used = 0.0;
                for &(ri, held, preempt_var) in members.iter() {
                    let Some(&survival) = at_slot.get(ri) else {
                        continue;
                    };
                    let usage = held as f64 * survival;
                    if usage <= 1e-6 {
                        continue;
                    }
                    used += usage;
                    if let Some(pv) = preempt_var {
                        terms.push((pv, -usage));
                    }
                }
                if !terms.is_empty() {
                    model.add_constraint(terms, Cmp::Le, cap - used);
                }
            }
        }
        out
    }

    /// The per-cycle walk of the running set. Every cycle gives new
    /// attempts their priors and steps exp-inc for exhausted ones; that is
    /// all an idle cycle (nothing pending, no model) does. A busy cycle
    /// passes its `slots` and also brings the grid epoch, Eq. 2
    /// conditionals and grid survivals up to date, writing each attempt's
    /// survival at every slot into `survivals` (slot-major); its reuse
    /// rules rebuild whatever idle cycles left stale, bit for bit.
    ///
    /// Last cycle's table is merged against `view.running` with a cursor
    /// (the simulator lists running attempts in id order, and a job runs
    /// one attempt at a time, so keys are distinct); a view in another order
    /// falls back to binary search and the new table is sorted once.
    pub(crate) fn advance(
        &mut self,
        cfg: &SchedConfig,
        view: &SimulationView<'_>,
        now: f64,
        estimate: impl Fn(&JobSpec) -> DiscreteDist,
        busy: Option<&[f64]>,
    ) {
        let slots = busy.unwrap_or_default();
        let later = slots.get(1..).unwrap_or_default();
        if busy.is_some() && self.grid != later {
            self.grid.clear();
            self.grid.extend_from_slice(later);
            self.grid_epoch += 1;
        }
        let Self {
            attempts,
            spare,
            placed,
            grid_epoch,
            survivals,
            ..
        } = self;
        let n = view.running.len();
        if busy.is_some() {
            survivals.clear();
            survivals.resize(n * slots.len(), 0.0);
        }
        let mut visit = |ri: usize, r: &ViewJob<'_>, carried: Option<Attempt>| {
            let mut attempt = carried.unwrap_or_else(|| Attempt::first_sight(r, placed, &estimate));
            let elapsed = r.elapsed(now);
            let start = r.start_time;
            let Attempt {
                prior,
                upper,
                phase,
            } = &mut attempt;
            if elapsed >= *upper && matches!(phase, Phase::Conditioned(_)) {
                // §4.2.1: the attempt has outlived its prior, and an
                // attempt's elapsed time only grows, so exp-inc from here on.
                *phase = Phase::ExpInc {
                    increments: 0,
                    est_total_runtime: elapsed + cfg.cycle_hint,
                };
            }
            // Attempt `ri`'s survival at each slot, for a busy cycle.
            let column = survivals.iter_mut().skip(ri).step_by(n);
            match phase {
                Phase::ExpInc {
                    increments,
                    est_total_runtime,
                } => {
                    let est = exp_inc(increments, est_total_runtime, elapsed, cfg.cycle_hint);
                    for (out, t) in column.zip(slots) {
                        *out = DiscreteDist::point_survival(est, t - start);
                    }
                }
                Phase::Conditioned(cond) => {
                    if busy.is_some() {
                        let cond = Conditional::refresh(cond, prior, elapsed);
                        cond.refresh_grid(later, *grid_epoch, start);
                        let first = slots.first().map(|t| cond.survival(t - start));
                        for (out, s) in column.zip(first.iter().chain(&cond.grid)) {
                            *out = *s;
                        }
                    }
                }
            }
            attempt
        };
        let key_of = |r: &ViewJob<'_>| (r.spec.id, r.start_time.to_bits());
        std::mem::swap(attempts, spare);
        attempts.reserve(n);
        if view.running.is_sorted_by(|a, b| key_of(a) < key_of(b)) {
            let mut old = spare.drain(..).peekable();
            for (ri, r) in view.running.iter().enumerate() {
                let key = key_of(r);
                while old.next_if(|(k, _)| *k < key).is_some() {}
                let carried = old.next_if(|(k, _)| *k == key).map(|(_, a)| a);
                attempts.push((key, visit(ri, r, carried)));
            }
        } else {
            for (ri, r) in view.running.iter().enumerate() {
                let key = key_of(r);
                let carried = spare
                    .binary_search_by(|(k, _)| k.cmp(&key))
                    .ok()
                    .and_then(|i| spare.get(i))
                    .map(|(_, a)| a.clone());
                attempts.push((key, visit(ri, r, carried)));
            }
            attempts.sort_unstable_by_key(|(k, _)| *k);
        }
        // Attempts that are no longer running take their state with them,
        // and hand-offs no attempt claimed belong to attempts that ended
        // unseen.
        spare.clear();
        placed.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sched::options::GenOption;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use threesigma_cluster::{ClusterSpec, JobKind, PartitionId, RunningJob as ViewJob};
    use threesigma_milp::{solver_for_tier, SolverConfig};

    /// Test views of the table, for the differentials here and in
    /// `threesigma`.
    impl RunningTable {
        /// Drops every cached conditional, keeping decision state, so the next
        /// compile rebuilds the running side from scratch.
        pub(crate) fn forget_conditionals(&mut self) {
            for (_, a) in &mut self.attempts {
                if let Phase::Conditioned(cond) = &mut a.phase {
                    *cond = None;
                }
            }
        }

        /// The table's decision state, bit for bit: per attempt its key,
        /// prior and exp-inc state (derived conditionals are left out).
        pub(crate) fn state(&self) -> String {
            let mut out = String::new();
            for ((id, start), a) in &self.attempts {
                let prior: Vec<_> = (a.prior.points().iter())
                    .map(|(t, p)| (t.to_bits(), p.to_bits()))
                    .collect();
                let ue = match a.phase {
                    Phase::ExpInc {
                        increments,
                        est_total_runtime,
                    } => Some((increments, est_total_runtime.to_bits())),
                    Phase::Conditioned(_) => None,
                };
                out += &format!("\n{id:?} {start} {prior:?} {ue:?}");
            }
            out
        }

        /// Running attempts currently on exp-inc estimates.
        pub(crate) fn exhausted(&self) -> usize {
            self.attempts
                .iter()
                .filter(|(_, a)| matches!(a.phase, Phase::ExpInc { .. }))
                .count()
        }
    }

    #[test]
    fn exp_inc_saturates_past_sixty_three_doublings() {
        // Drive the doubling count far past 63: the 2^t factor must
        // saturate instead of overflowing to inf (which produced a
        // `point(inf)` distribution and NaN survival terms downstream).
        let (mut t, mut total) = (0u32, 0.0f64);
        // hint so small relative to elapsed's float granularity that even
        // 2^63 · hint is absorbed — the doubling count must run all the
        // way to the cap and still make finite forward progress.
        let est = exp_inc(&mut t, &mut total, 1e30, 1e-6);
        assert!(t >= 64, "t = {t}");
        assert!(est.is_finite(), "estimate must stay finite, got {est}");
        assert!(est > 1e30, "estimate must exceed elapsed, got {est}");

        // Repeated invocations with growing elapsed keep making finite
        // forward progress; the increment counter saturates, never wraps.
        let mut elapsed = est;
        for _ in 0..10 {
            let next = exp_inc(&mut t, &mut total, elapsed, 1e-6);
            assert!(next.is_finite() && next > elapsed);
            elapsed = next;
        }

        // The pre-saturation regime still doubles exactly as §4.2.1 asks.
        let (mut t, mut total) = (0u32, 0.0f64);
        let est = exp_inc(&mut t, &mut total, 100.0, 10.0);
        assert_eq!(t, 1);
        assert_eq!(est, 100.0 + 2.0 * 10.0);
        let est = exp_inc(&mut t, &mut total, 130.0, 10.0);
        assert_eq!(t, 2);
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
            let mut carried: Option<Box<Conditional>> = None;
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
                let c = Conditional::refresh(&mut carried, &prior, elapsed);
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
                for t in [-1.0, elapsed, elapsed + 1.0, c.lower, prior.upper(), 1e9] {
                    prop_assert_eq!(c.dist.survival(t).to_bits(), fresh.survival(t).to_bits());
                    prop_assert_eq!(c.survival(t).to_bits(), fresh.survival(t).to_bits());
                }
            }
        }
    }

    #[test]
    fn conditional_is_carried_between_mass_points_only() {
        let prior = DiscreteDist::from_points(vec![(100.0, 0.25), (200.0, 0.25), (300.0, 0.5)]);
        let mut slot = None;
        assert_eq!(Conditional::refresh(&mut slot, &prior, 10.0).from, 10.0);
        let boxed: *const Conditional = slot.as_deref().expect("built");
        // Still short of the first point: carried, `from` untouched.
        assert_eq!(Conditional::refresh(&mut slot, &prior, 99.0).from, 10.0);
        // Landing on a point drops it (`t > elapsed` is strict): rebuilt,
        // in the same box.
        let c = Conditional::refresh(&mut slot, &prior, 100.0);
        assert_eq!((c.from, c.dist.lower()), (100.0, 200.0));
        assert!(std::ptr::eq(c, boxed));
        // Time running backwards is not covered by the carried state.
        assert_eq!(Conditional::refresh(&mut slot, &prior, 50.0).from, 50.0);
    }

    /// Compiles a cycle with nothing pending and job 7 running (or, with
    /// `running` false, finished) and returns the MILP text.
    fn compile_cycle(
        table: &mut RunningTable,
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
        let compiled = table.compile(&cfg, &view, now, &generated, |_| estimate.clone());
        assert_eq!(compiled.running.len(), usize::from(running));
        compiled.model.to_text()
    }

    #[test]
    fn a_new_attempt_takes_its_handed_off_prior_and_scales_it_once() {
        // Odd ids run off their preferred rack (slowdown 1.5); job 3 has
        // already outlived its prior when first seen.
        let fleet = Fleet::new(4);
        let bases: Vec<Arc<DiscreteDist>> = fleet.priors.iter().cloned().map(Arc::new).collect();
        let mut table = RunningTable::default();
        for (spec, base) in fleet.specs.iter().zip(&bases).take(3) {
            table.place(spec.id, base.clone());
        }
        // A hand-off no attempt claims: the placement ended unseen.
        table.place(JobId(99), Arc::new(DiscreteDist::point(1.0)));
        let calls = std::cell::Cell::new(0);
        let order = [0, 1, 2, 3];
        let mut priors: Vec<Arc<DiscreteDist>> = Vec::new();
        for (cycle, now) in [600.0, 601.0, 602.0].into_iter().enumerate() {
            let slots = [now, 660.0, 720.0, 780.0];
            let busy = cycle != 1;
            table.advance(
                &SchedConfig::default(),
                &fleet.view(&order, now),
                now,
                |spec| {
                    calls.set(calls.get() + 1);
                    fleet.priors[spec.id.0 as usize - 1].clone()
                },
                busy.then_some(&slots[..]),
            );
            assert_eq!(calls.get(), 1, "only job 4, handed nothing, is estimated");
            assert!(
                table.placed.is_empty(),
                "every hand-off is consumed or dropped"
            );
            if cycle == 0 {
                priors = table
                    .attempts
                    .iter()
                    .map(|(_, a)| a.prior.clone())
                    .collect();
            }
            for (i, (_, a)) in table.attempts.iter().enumerate() {
                assert!(
                    Arc::ptr_eq(&a.prior, &priors[i]),
                    "job {} keeps its prior",
                    i + 1
                );
                assert_eq!(a.upper.to_bits(), a.prior.upper().to_bits());
            }
        }
        for (i, prior) in priors.iter().enumerate() {
            if fleet.specs[i].id.0 % 2 == 1 {
                assert_eq!(
                    bits(prior),
                    bits(&fleet.priors[i].scale(1.5)),
                    "job {} scaled",
                    i + 1
                );
            } else if i < 3 {
                assert!(
                    Arc::ptr_eq(prior, &bases[i]),
                    "job {} keeps the handed-off Arc",
                    i + 1
                );
            }
        }
        assert_eq!(table.exhausted(), 1);
    }

    #[test]
    fn a_table_entry_fits_in_48_bytes() {
        assert!(std::mem::size_of::<(AttemptKey, Attempt)>() <= 48);
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
            let mut table = RunningTable::default();
            let compiled = table.compile(&cfg, &view, now, &generated, |spec| {
                priors[spec.id.0 as usize - 1].clone()
            });
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
                for job in &compiled.running {
                    if let Some(pv) = job.preempt_var {
                        prop_assert!(solution.values[pv.index()] <= 0.5, "tier {tier} preempts");
                    }
                }
            }
        }
    }

    /// A running set on a 4 × 8 cluster: per attempt its spec, allocation
    /// and prior. Odd ids run off their preferred rack. With
    /// [`Fleet::new`], every third has outlived its prior (exp-inc) and the
    /// rest sit far short of their first mass point, so their conditionals
    /// carry from cycle to cycle.
    struct Fleet {
        cluster: ClusterSpec,
        specs: Vec<JobSpec>,
        allocations: Vec<Vec<(PartitionId, u32)>>,
        priors: Vec<DiscreteDist>,
    }

    impl Fleet {
        fn new(n: u64) -> Self {
            Self::with(
                (1..=n)
                    .map(|id| {
                        let prior = if id % 3 == 0 {
                            vec![(50.0, 0.5), (100.0, 0.5)]
                        } else {
                            vec![(5_000.0, 0.5), (9_000.0 + id as f64, 0.5)]
                        };
                        (10.0 * id as f64, prior)
                    })
                    .collect(),
            )
        }

        /// One attempt per (start time, prior points), ids from 1.
        fn with(attempts: Vec<(f64, Vec<(f64, f64)>)>) -> Self {
            let mut fleet = Fleet {
                cluster: ClusterSpec::uniform(4, 8),
                specs: Vec::new(),
                allocations: Vec::new(),
                priors: Vec::new(),
            };
            for (id, (start, points)) in (1u64..).zip(attempts) {
                let rack = (id % 4) as usize;
                let mut spec = JobSpec::new(id, start, 1, 500.0, JobKind::BestEffort);
                if id % 2 == 1 {
                    spec = spec.with_preference(vec![PartitionId((rack + 1) % 4)], 1.5);
                }
                fleet.specs.push(spec);
                fleet.allocations.push(vec![(PartitionId(rack), 1)]);
                fleet.priors.push(DiscreteDist::from_points(points));
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

        fn estimate(&self, spec: &JobSpec) -> DiscreteDist {
            self.priors[spec.id.0 as usize - 1].clone()
        }

        /// One walk of `order` at `now`, returning the survivals by job id.
        fn step(
            &self,
            table: &mut RunningTable,
            order: &[usize],
            now: f64,
        ) -> Vec<(JobId, Vec<u64>)> {
            let slots = [now, 660.0, 720.0, 780.0];
            table.advance(
                &SchedConfig::default(),
                &self.view(order, now),
                now,
                |spec| self.estimate(spec),
                Some(&slots),
            );
            let n = order.len();
            let mut by_id: Vec<(JobId, Vec<u64>)> = (order.iter().enumerate())
                .map(|(ri, &i)| {
                    let at = |si: usize| table.survivals[si * n + ri].to_bits();
                    (self.specs[i].id, (0..slots.len()).map(at).collect())
                })
                .collect();
            by_id.sort_by_key(|(id, _)| *id);
            by_id
        }

        /// The MILP text of a cycle with nothing pending and `order`
        /// running, under a `plan_slots` window.
        fn compile(
            &self,
            table: &mut RunningTable,
            order: &[usize],
            now: f64,
            plan_slots: usize,
        ) -> String {
            let groups = MaskGroups::new(4);
            let slots: Vec<f64> = std::iter::once(now)
                .chain((1..plan_slots).map(|k| ((now / 60.0).floor() + k as f64) * 60.0))
                .collect();
            let generated = Generated {
                considered: &[],
                job_groups: &[],
                job_options: &[],
                space_masks: &[(0, groups.group_mask(0)), (0, RackMask::single(1))],
                groups: &groups,
                slots: &slots,
            };
            let view = self.view(order, now);
            table
                .compile(&SchedConfig::default(), &view, now, &generated, |spec| {
                    self.estimate(spec)
                })
                .model
                .to_text()
        }
    }

    #[test]
    fn a_shuffled_running_view_leaves_the_same_table() {
        let fleet = Fleet::new(12);
        let (mut sorted, mut shuffled) = (RunningTable::default(), RunningTable::default());
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
            let a = fleet.step(&mut sorted, set, now);
            let b = fleet.step(&mut shuffled, &order, now);
            assert_eq!(a, b, "survivals, cycle {cycle}");
            assert_eq!(sorted.state(), shuffled.state(), "table, cycle {cycle}");
            assert_eq!(sorted.attempts.len(), set.len());
        }
        assert!(
            sorted.exhausted() > 0,
            "an exp-inc attempt is in the last set"
        );
    }

    proptest! {
        /// Idle cycles advance only exp-inc state, leaving conditionals and
        /// grid survivals stale for the next busy cycle. Against a table
        /// that refreshes everything every cycle, over random interleavings
        /// of idle and busy cycles, attempts starting (with or without a
        /// hand-off) and finishing, priors outlived while idle or busy, and
        /// slot-grid and window changes: the same MILP at every busy cycle
        /// and the same decision state after every cycle.
        #[test]
        fn lazy_idle_cycles_match_an_eager_refresh(
            starts in prop::collection::vec(0.0f64..900.0, 10),
            times in prop::collection::vec(prop::collection::vec(1.0f64..1500.0, 1..4), 10),
            weights in prop::collection::vec(prop::collection::vec(0.05f64..1.0, 4), 10),
            joins in prop::collection::vec(0usize..30, 10),
            stays in prop::collection::vec(1usize..30, 10),
            handed in prop::collection::vec(0u8..2, 10),
            steps in prop::collection::vec(0.5f64..90.0, 30),
            busy in prop::collection::vec(0u8..3, 30),
            windows in prop::collection::vec(1usize..6, 30),
        ) {
            let attempts: Vec<(f64, Vec<(f64, f64)>)> = starts
                .iter()
                .zip(times.iter().zip(&weights))
                .map(|(&start, (ts, ws))| {
                    let mut ts = ts.clone();
                    ts.sort_by(f64::total_cmp);
                    let total: f64 = ws.iter().take(ts.len()).sum();
                    (start, ts.iter().zip(ws).map(|(&t, &w)| (t, w / total)).collect())
                })
                .collect();
            let fleet = Fleet::with(attempts);
            let (mut lazy, mut eager) = (RunningTable::default(), RunningTable::default());
            let cfg = SchedConfig::default();
            let mut now = 900.0;
            for cycle in 0..steps.len() {
                now += steps[cycle];
                let order: Vec<usize> = (0..fleet.specs.len())
                    .filter(|&i| joins[i] <= cycle && cycle < joins[i] + stays[i])
                    .collect();
                for &i in &order {
                    if joins[i] == cycle && handed[i] == 1 {
                        let base = Arc::new(fleet.priors[i].clone());
                        lazy.place(fleet.specs[i].id, base.clone());
                        eager.place(fleet.specs[i].id, base);
                    }
                }
                if busy[cycle] == 0 {
                    let a = fleet.compile(&mut lazy, &order, now, windows[cycle]);
                    let b = fleet.compile(&mut eager, &order, now, windows[cycle]);
                    prop_assert_eq!(a, b, "MILP at busy cycle {}", cycle);
                } else {
                    let view = fleet.view(&order, now);
                    lazy.advance(&cfg, &view, now, |spec| fleet.estimate(spec), None);
                    let slots: Vec<f64> = std::iter::once(now)
                        .chain((1..windows[cycle]).map(|k| ((now / 60.0).floor() + k as f64) * 60.0))
                        .collect();
                    eager.advance(&cfg, &view, now, |spec| fleet.estimate(spec), Some(&slots));
                }
                prop_assert_eq!(lazy.state(), eager.state(), "decision state after cycle {}", cycle);
            }
        }
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
    pub(crate) fn allocations_of(f: impl FnOnce()) -> usize {
        let before = ALLOCATIONS.with(std::cell::Cell::get);
        f();
        ALLOCATIONS.with(std::cell::Cell::get) - before
    }

    /// Steady state — no reconditioning, no grid change, no attempt
    /// starting or finishing — after two warm-up cycles (one builds the
    /// conditionals and fills the cache, the next sizes the second table
    /// buffer). Views and the survival buffer are the caller's.
    fn steady_state() -> (Fleet, RunningTable) {
        let fleet = Fleet::new(12);
        let mut table = RunningTable::default();
        let order: Vec<usize> = (0..12).collect();
        for now in [600.0, 601.0] {
            fleet.step(&mut table, &order, now);
        }
        assert!(table.exhausted() > 0 && table.exhausted() < 12);
        (fleet, table)
    }

    #[test]
    fn a_steady_state_idle_cycle_allocates_nothing() {
        let (fleet, mut table) = steady_state();
        let order: Vec<usize> = (0..12).collect();
        let cfg = SchedConfig::default();
        for now in [602.0, 603.0, 604.0] {
            let view = fleet.view(&order, now);
            let spent = allocations_of(|| {
                table.advance(&cfg, &view, now, |spec| fleet.estimate(spec), None);
            });
            assert_eq!(spent, 0, "idle cycle at {now}");
        }
    }

    #[test]
    fn a_steady_state_busy_walk_allocates_nothing() {
        let (fleet, mut table) = steady_state();
        let order: Vec<usize> = (0..12).collect();
        let cfg = SchedConfig::default();
        for now in [602.0, 603.0, 604.0] {
            let view = fleet.view(&order, now);
            let slots = [now, 660.0, 720.0, 780.0];
            let spent = allocations_of(|| {
                table.advance(&cfg, &view, now, |spec| fleet.estimate(spec), Some(&slots));
            });
            assert_eq!(spent, 0, "running walk at {now}");
            assert_eq!(table.survivals.len(), 12 * slots.len());
        }
    }

    /// Allocations of each of four busy compiles of `attempts` running
    /// attempts and three pending jobs, each with an option per slot of a
    /// `plan_slots` window in two equivalence sets.
    fn compile_allocations(attempts: u64, plan_slots: usize) -> Vec<usize> {
        let fleet = Fleet::new(attempts);
        let order: Vec<usize> = (0..fleet.specs.len()).collect();
        let pending: Vec<JobSpec> = (100..103)
            .map(|id| JobSpec::new(id, 500.0, 2, 300.0, JobKind::BestEffort))
            .collect();
        let considered: Vec<&JobSpec> = pending.iter().collect();
        let groups = MaskGroups::new(4);
        let space_masks = [(0, groups.group_mask(0)), (0, RackMask::single(1))];
        let dist = Arc::new(DiscreteDist::from_points(vec![(100.0, 0.5), (400.0, 0.5)]));
        let job_options: Vec<JobOptions> = (0..pending.len())
            .map(|j| JobOptions {
                options: (space_masks.iter())
                    .flat_map(|&(_, mask)| (0..plan_slots).map(move |slot| (mask, slot)))
                    .map(|(mask, slot)| GenOption {
                        slot,
                        mask,
                        dist: dist.clone(),
                        utility: 1.0 + j as f64 - 0.1 * slot as f64,
                    })
                    .collect(),
                best_utility: 1.0,
                enumerated: 0,
                pruned: 0,
            })
            .collect();
        let cfg = SchedConfig::default();
        let mut table = RunningTable::default();
        let mut spent = Vec::new();
        for now in [600.0f64, 601.0, 602.0, 603.0] {
            let slots: Vec<f64> = std::iter::once(now)
                .chain((1..plan_slots).map(|k| ((now / 60.0).floor() + k as f64) * 60.0))
                .collect();
            let generated = Generated {
                considered: &considered,
                job_groups: &[0, 0, 0],
                job_options: &job_options,
                space_masks: &space_masks,
                groups: &groups,
                slots: &slots,
            };
            let view = fleet.view(&order, now);
            spent.push(allocations_of(|| {
                let compiled =
                    table.compile(&cfg, &view, now, &generated, |spec| fleet.estimate(spec));
                assert_eq!(compiled.compiled.len(), 3 * 2 * plan_slots);
                assert_eq!(compiled.running.len(), order.len());
            }));
        }
        spent
    }

    #[test]
    fn a_steady_state_busy_compile_allocates_nothing_at_any_size() {
        // Cycles 0 and 1 estimate new attempts, build the conditionals and
        // size the table's buffers; from cycle 2 on the model — its rows
        // and SOS1 groups — and the row scratch are rebuilt in place, at
        // 12 or 48 attempts and under a 4- or 8-slot window alike.
        for (attempts, plan_slots) in [(12, 4), (48, 4), (12, 8), (48, 8)] {
            let spent = compile_allocations(attempts, plan_slots);
            assert_eq!(
                spent[2..],
                [0, 0],
                "{attempts} attempts, {plan_slots} slots: {spent:?}"
            );
        }
    }

    /// `model`'s rows as its text form spells them: right-hand side and
    /// `(column, coefficient)` terms.
    fn text_rows(model: &Model) -> Vec<(f64, Vec<(usize, f64)>)> {
        let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("f64 hex"));
        let text = model.to_text();
        let rows = text
            .lines()
            .filter(|l| ["le ", "ge ", "eq "].iter().any(|c| l.starts_with(c)));
        rows.map(|line| {
            let mut parts = line.split(' ').skip(1);
            let rhs = hex(parts.next().expect("rhs"));
            let terms = parts.skip(1).map(|t| {
                let (j, c) = t.split_once(':').expect("term");
                (j.parse().expect("column"), hex(c))
            });
            (rhs, terms.collect())
        })
        .collect()
    }

    #[test]
    fn capacity_rows_charge_each_attempt_its_nodes_inside_the_set() {
        // Two groups of 65 racks of 4 nodes. Job 1 (best effort) holds 2
        // nodes on rack 3 (group 0) and 1 on rack 66 (group 1, local rack
        // 1); job 2 (SLO: no preemption column) holds 3 on rack 66. Neither
        // can finish inside the window.
        let cluster = ClusterSpec::uniform(130, 4);
        let groups = MaskGroups::new(130);
        assert_eq!(groups.group_range(1), (65, 65));
        let specs = [
            JobSpec::new(1, 0.0, 3, 500.0, JobKind::BestEffort),
            JobSpec::new(2, 0.0, 3, 500.0, JobKind::Slo { deadline: 1e6 }),
        ];
        let allocations = [
            vec![(PartitionId(3), 2), (PartitionId(66), 1)],
            vec![(PartitionId(66), 3)],
        ];
        let free = vec![4; 130];
        let view = SimulationView {
            cluster: &cluster,
            pending: Vec::new(),
            running: (specs.iter().zip(&allocations))
                .map(|(spec, allocation)| ViewJob {
                    spec,
                    start_time: 0.0,
                    allocation,
                })
                .collect(),
            free: &free,
            now: 10.0,
        };
        let space_masks = [
            (0, groups.group_mask(0)),
            (1, groups.group_mask(1)),
            (0, RackMask::single(3)),
            (1, RackMask::single(1)),
            (0, RackMask::single(1)),
        ];
        let generated = Generated {
            considered: &[],
            job_groups: &[],
            job_options: &[],
            space_masks: &space_masks,
            groups: &groups,
            slots: &[10.0, 60.0],
        };
        let prior = DiscreteDist::from_points(vec![(1e6, 1.0)]);
        let mut table = RunningTable::default();
        let cfg = SchedConfig::default();
        let compiled = table.compile(&cfg, &view, 10.0, &generated, |_| prior.clone());
        // Per set, at both slots: job 1's nodes inside it as its preemption
        // column's credit, and both jobs' nodes off the capacity. Rack 1 of
        // group 0 holds nobody: no row.
        let expect: Vec<(f64, Vec<(usize, f64)>)> =
            [(258.0, -2.0), (256.0, -1.0), (2.0, -2.0), (0.0, -1.0)]
                .into_iter()
                .flat_map(|(rhs, credit)| [(rhs, vec![(0, credit)]), (rhs, vec![(0, credit)])])
                .collect();
        assert_eq!(text_rows(&compiled.model), expect);
    }

    #[test]
    fn finished_attempts_leave_the_table() {
        let d = DiscreteDist::from_points(vec![(100.0, 1.0)]);
        let mut table = RunningTable::default();
        let busy = compile_cycle(&mut table, 10.0, &d, true);
        assert_eq!(table.attempts.len(), 1);
        let idle = compile_cycle(&mut table, 12.0, &d, false);
        assert!(table.attempts.is_empty());
        assert_ne!(busy, idle);
        assert_eq!(idle, Model::new().to_text(), "nothing left to constrain");
    }
}
