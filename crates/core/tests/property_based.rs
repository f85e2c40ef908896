//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use threesigma::{DiscreteDist, UtilityCurve};
use threesigma_histogram::{quantile_sorted, StreamingHistogram, StreamingMoments};
use threesigma_milp::{BranchAndBound, Cmp, Model};

proptest! {
    /// The CDF of the distribution the scheduler reads — one mass point per
    /// bin of the streaming histogram — stays within a coarse band of the
    /// empirical CDF and is monotone; the sketch keeps the count exactly
    /// and its support inside the observed range.
    #[test]
    fn histogram_tracks_empirical_cdf(
        mut values in prop::collection::vec(0.0f64..1e4, 1..300),
    ) {
        let mut h = StreamingHistogram::new(32);
        for v in &values {
            h.insert(*v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(h.count(), values.len() as u64);
        let d = h.distribution().unwrap();
        prop_assert!(d.points().len() <= 32);
        prop_assert!(d.lower() >= values[0] && d.upper() <= *values.last().unwrap());

        let n = values.len() as f64;
        let mut prev = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let x = quantile_sorted(&values, q).unwrap();
            let est = d.cdf(x);
            prop_assert!(est >= prev - 1e-9, "monotone");
            prev = est;
            // Compare against the empirical CDF at x (not q itself — ties
            // make the empirical CDF jump past q). Band: each bin's whole
            // mass sits at its centroid, so the step CDF can miss by about
            // one bin's share (a little over 0.1 at worst in 2M cases).
            let emp = values.partition_point(|v| *v <= x) as f64 / n;
            prop_assert!((est - emp).abs() < 0.2, "x={x} emp={emp} est={est}");
        }
    }

    /// Welford moments agree with the naive two-pass computation.
    #[test]
    fn streaming_moments_match_naive(
        values in prop::collection::vec(-1e5f64..1e5, 1..200),
    ) {
        let mut m = StreamingMoments::new();
        for v in &values {
            m.push(*v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((m.mean().unwrap() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((m.variance().unwrap() - var).abs() <= 1e-5 * (1.0 + var));
    }

    /// Conditioning a discrete distribution never increases the mean
    /// remaining-below-elapsed mass, keeps it normalised, and agrees with
    /// Eq. 2 on survival ratios.
    #[test]
    fn conditioning_respects_eq2(
        samples in prop::collection::vec(1.0f64..1e4, 2..100),
        elapsed_frac in 0.0f64..1.2,
    ) {
        let d = DiscreteDist::from_samples(&samples, 40).unwrap();
        let elapsed = d.upper() * elapsed_frac;
        let c = d.condition(elapsed);
        let total: f64 = c.points().iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        prop_assert!(c.points().iter().all(|(t, _)| *t >= elapsed - 1e-9));
        if !d.is_exhausted_at(elapsed) {
            let s_e = d.survival(elapsed);
            for t in [elapsed + 1.0, elapsed * 1.5 + 10.0] {
                let expected = (d.survival(t) / s_e).clamp(0.0, 1.0);
                prop_assert!((c.survival(t) - expected).abs() < 1e-6);
            }
        }
    }

    /// Expected utility is bounded by the curve's max and is monotone
    /// non-increasing in start time for step/decay SLO curves.
    #[test]
    fn expected_utility_bounds_and_monotonicity(
        samples in prop::collection::vec(1.0f64..5e3, 2..60),
        weight in 0.1f64..20.0,
        deadline in 100.0f64..1e4,
    ) {
        let d = DiscreteDist::from_samples(&samples, 20).unwrap();
        let curve = UtilityCurve::SloStep { weight, deadline };
        let mut prev = f64::INFINITY;
        for k in 0..10 {
            let start = k as f64 * deadline / 8.0;
            let eu = curve.expected(start, &d);
            prop_assert!((0.0..=weight + 1e-9).contains(&eu));
            prop_assert!(eu <= prev + 1e-9, "non-increasing in start");
            prev = eu;
        }
    }

    /// On random feasible binary programs, branch-and-bound returns a
    /// feasible solution matching the exhaustive optimum.
    #[test]
    fn milp_agrees_with_brute_force(
        objs in prop::collection::vec(-5.0f64..10.0, 4..7),
        coeffs in prop::collection::vec(0.0f64..4.0, 12..21),
        rhs in prop::collection::vec(1.0f64..8.0, 3),
    ) {
        let n = objs.len();
        let mut m = Model::new();
        let vars: Vec<_> = objs.iter().map(|&o| m.add_binary(o)).collect();
        for (r, &b) in rhs.iter().enumerate() {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(j, v)| (*v, coeffs[(r * n + j) % coeffs.len()]))
                .collect();
            m.add_constraint(&terms, Cmp::Le, b);
        }
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
            if m.is_feasible(&x, 1e-9) {
                best = best.max(m.objective_value(&x));
            }
        }
        let s = BranchAndBound::new().solve(&m);
        // All-zero is always feasible here (non-negative coefficients).
        prop_assert!(s.has_solution());
        prop_assert!(m.is_feasible(&s.values, 1e-5));
        prop_assert!((s.objective - best).abs() < 1e-5, "{} vs {best}", s.objective);
    }

    /// Random tiny traces through the oracle MILP scheduler preserve the
    /// engine's conservation and timestamp invariants.
    #[test]
    fn engine_invariants_under_random_traces(
        seeds in prop::collection::vec(1u64..1000, 1..4),
        n_jobs in 2usize..8,
    ) {
        use threesigma_cluster::{ClusterSpec, Engine, EngineConfig, JobKind, JobSpec, JobState};
        use threesigma::sched::threesigma::{EstimateSource, SchedConfig, ThreeSigmaScheduler};
        use threesigma_predict::PredictorConfig;

        let seed = seeds[0];
        let mut jobs = Vec::new();
        for i in 0..n_jobs {
            let x = seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64 * 0x85eb_ca6b);
            let submit = (x % 50) as f64;
            let tasks = 1 + (x >> 8) as u32 % 3;
            let duration = 10.0 + ((x >> 16) % 200) as f64;
            let kind = if x % 2 == 0 {
                JobKind::Slo { deadline: submit + duration * (1.4 + (x % 5) as f64 * 0.2) }
            } else {
                JobKind::BestEffort
            };
            jobs.push(JobSpec::new(i as u64 + 1, submit, tasks, duration, kind));
        }
        let engine = Engine::new(
            ClusterSpec::uniform(2, 2),
            EngineConfig { cycle_interval: 5.0, drain: Some(4000.0), seed, ..EngineConfig::default() },
        );
        let mut sched = ThreeSigmaScheduler::new(
            SchedConfig::default(),
            EstimateSource::OraclePoint,
            PredictorConfig::default(),
        );
        let m = engine.run(&jobs, &mut sched).unwrap();
        prop_assert_eq!(m.outcomes.len(), jobs.len());
        let terminal = m.count(JobState::Completed)
            + m.count(JobState::Canceled)
            + m.count(JobState::Pending)
            + m.count(JobState::Running);
        prop_assert_eq!(terminal, jobs.len());
        for o in &m.outcomes {
            if o.state == JobState::Completed {
                let (s, f, rt) = (
                    o.start_time.unwrap(),
                    o.finish_time.unwrap(),
                    o.measured_runtime.unwrap(),
                );
                prop_assert!(s >= o.submit_time - 1e-9);
                prop_assert!((f - s - rt).abs() < 1e-6);
            }
        }
        prop_assert!(m.goodput_hours() <= 4.0 * m.end_time / 3600.0 + 1e-9);
    }

    /// The precomputed suffix-sum survival table agrees *bitwise* with the
    /// linear filter-and-sum scan it replaced — for raw, scaled, and
    /// conditioned distributions, at support points (both sides of each
    /// step) and at arbitrary query times.
    #[test]
    fn survival_table_matches_linear_scan(
        samples in prop::collection::vec(1.0f64..1e4, 2..200),
        queries in prop::collection::vec(-10.0f64..2e4, 1..20),
        factor in 1.0f64..3.0,
        elapsed_frac in 0.0f64..1.1,
    ) {
        let base = DiscreteDist::from_samples(&samples, 40).unwrap();
        let dists = [
            base.clone(),
            base.scale(factor),
            base.condition(base.upper() * elapsed_frac),
        ];
        for d in &dists {
            let mut probes = queries.clone();
            for &(t, _) in d.points() {
                probes.extend([t, t - f64::EPSILON * t, t + f64::EPSILON * t]);
            }
            for t in probes {
                prop_assert_eq!(
                    d.survival(t).to_bits(),
                    d.survival_linear(t).to_bits(),
                    "survival({}) diverges from the linear scan", t
                );
                let cdf = d.cdf(t);
                prop_assert_eq!(
                    cdf.to_bits(),
                    (1.0 - d.survival_linear(t)).to_bits(),
                    "cdf({}) diverges from the linear scan", t
                );
            }
        }
    }

    /// Scaling a distribution scales its mean and survival support.
    #[test]
    fn scaling_is_linear(
        samples in prop::collection::vec(1.0f64..1e3, 1..50),
        factor in 1.0f64..3.0,
    ) {
        let d = DiscreteDist::from_samples(&samples, 20).unwrap();
        let s = d.scale(factor);
        prop_assert!((s.mean() - d.mean() * factor).abs() < 1e-6 * (1.0 + s.mean()));
        prop_assert!((s.upper() - d.upper() * factor).abs() < 1e-9 * (1.0 + s.upper()));
        for t in [10.0, 100.0, 500.0] {
            prop_assert!((s.survival(t * factor) - d.survival(t)).abs() < 1e-9);
        }
    }
}
