//! Utility curves and expected utility (§3.1, Fig. 3).
//!
//! Each job maps completion time to utility. SLO jobs are a step: full
//! utility up to the deadline, zero after (Fig. 3(a)). Over-estimate
//! handling replaces the hard drop with a linear decay past the deadline
//! (Fig. 3(d)) so seemingly impossible jobs keep a small positive utility
//! and still get scheduled when resources are idle (§4.2.2). Best-effort
//! jobs decay linearly from submission to express "the sooner the better".
//!
//! Eq. 1 — the expected utility of starting a job at `start` — is the
//! utility at each possible completion time weighted by the runtime mass
//! points.

use crate::DiscreteDist;

/// A job's utility as a function of its completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilityCurve {
    /// SLO step: `weight` until `deadline`, zero after (Fig. 3(a)).
    SloStep {
        /// Utility while the deadline is met.
        weight: f64,
        /// Absolute deadline.
        deadline: f64,
    },
    /// SLO step with over-estimate handling: `weight` until `deadline`,
    /// then a linear decay hitting zero at `zero_at` (Fig. 3(d)).
    SloDecay {
        /// Utility while the deadline is met.
        weight: f64,
        /// Absolute deadline.
        deadline: f64,
        /// Completion time at which the post-deadline utility reaches zero.
        zero_at: f64,
    },
    /// Best-effort: linear decay from `weight` at `submit` down to
    /// `weight · floor` at `submit + horizon` (and flat after), expressing
    /// latency sensitivity while keeping starvation impossible.
    BeLinear {
        /// Utility at instant completion.
        weight: f64,
        /// Submission time.
        submit: f64,
        /// Time span over which utility decays to the floor.
        horizon: f64,
        /// Fraction of `weight` retained forever (> 0 avoids starvation).
        floor: f64,
    },
}

impl UtilityCurve {
    /// Utility of completing at `completion`.
    pub fn value(&self, completion: f64) -> f64 {
        match *self {
            UtilityCurve::SloStep { weight, deadline } => {
                if completion <= deadline {
                    weight
                } else {
                    0.0
                }
            }
            UtilityCurve::SloDecay {
                weight,
                deadline,
                zero_at,
            } => {
                if completion <= deadline {
                    weight
                } else if completion >= zero_at || zero_at <= deadline {
                    // A degenerate decay window (zero_at ≤ deadline, e.g.
                    // zero step height or span 0) acts like the hard step:
                    // the slope is never evaluated, so it cannot divide by
                    // zero or go negative.
                    0.0
                } else {
                    // Both differences are positive here; the clamp keeps
                    // the fraction in [0, 1] even at float extremes (e.g.
                    // a huge zero_at where the ratio rounds past 1), so no
                    // NaN or negative utility can reach the MILP objective.
                    let frac = ((zero_at - completion) / (zero_at - deadline)).clamp(0.0, 1.0);
                    weight * frac
                }
            }
            UtilityCurve::BeLinear {
                weight,
                submit,
                horizon,
                floor,
            } => {
                let age = (completion - submit).max(0.0);
                let frac = if horizon > 0.0 {
                    (1.0 - age / horizon).max(floor)
                } else {
                    floor
                };
                weight * frac
            }
        }
    }

    /// Eq. 1: expected utility of starting at `start` under runtime
    /// distribution `dist` (mass points over runtimes).
    pub fn expected(&self, start: f64, dist: &DiscreteDist) -> f64 {
        dist.points()
            .iter()
            .map(|(t, p)| p * self.value(start + t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(lo: f64, hi: f64) -> DiscreteDist {
        DiscreteDist::uniform(lo, hi, 64)
    }

    #[test]
    fn slo_step_is_binary() {
        let u = UtilityCurve::SloStep {
            weight: 10.0,
            deadline: 100.0,
        };
        assert_eq!(u.value(99.0), 10.0);
        assert_eq!(u.value(100.0), 10.0);
        assert_eq!(u.value(100.1), 0.0);
    }

    #[test]
    fn slo_decay_degrades_gracefully() {
        let u = UtilityCurve::SloDecay {
            weight: 10.0,
            deadline: 100.0,
            zero_at: 200.0,
        };
        assert_eq!(u.value(50.0), 10.0);
        assert!((u.value(150.0) - 5.0).abs() < 1e-12);
        assert_eq!(u.value(200.0), 0.0);
        assert_eq!(u.value(500.0), 0.0);
    }

    #[test]
    fn degenerate_decay_window_acts_like_step() {
        let u = UtilityCurve::SloDecay {
            weight: 1.0,
            deadline: 100.0,
            zero_at: 100.0,
        };
        assert_eq!(u.value(100.0), 1.0);
        assert_eq!(u.value(101.0), 0.0);
    }

    #[test]
    fn be_linear_prefers_sooner_and_never_starves() {
        let u = UtilityCurve::BeLinear {
            weight: 1.0,
            submit: 0.0,
            horizon: 100.0,
            floor: 0.05,
        };
        assert!(u.value(10.0) > u.value(50.0));
        assert!((u.value(0.0) - 1.0).abs() < 1e-12);
        assert!((u.value(1e6) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn expected_utility_matches_fig5_scenario1() {
        // Fig. 5(e): SLO job, deadline 15, runtime ~ U(0,10). Expected
        // utility at start s is P(completion ≤ 15) = P(T ≤ 15 − s).
        let u = UtilityCurve::SloStep {
            weight: 1.0,
            deadline: 15.0,
        };
        let d = uniform(0.0, 10.0);
        assert!((u.expected(0.0, &d) - 1.0).abs() < 0.02);
        assert!((u.expected(5.0, &d) - 1.0).abs() < 0.02);
        assert!((u.expected(7.5, &d) - 0.75).abs() < 0.05);
        assert!((u.expected(10.0, &d) - 0.5).abs() < 0.05);
        assert!((u.expected(12.5, &d) - 0.25).abs() < 0.05);
        assert!(u.expected(15.0, &d) < 0.05);
    }

    #[test]
    fn expected_utility_matches_fig5_scenario2() {
        // Fig. 5(f): runtime ~ U(2.5, 7.5): utility 1 up to s = 7.5, then a
        // steeper fall to 0 at s = 12.5.
        let u = UtilityCurve::SloStep {
            weight: 1.0,
            deadline: 15.0,
        };
        let d = uniform(2.5, 7.5);
        assert!((u.expected(7.5, &d) - 1.0).abs() < 0.03);
        assert!((u.expected(10.0, &d) - 0.5).abs() < 0.05);
        assert!(u.expected(12.5, &d) < 0.03);
    }

    #[test]
    fn point_estimates_cliff_versus_distribution_slope() {
        // The point scheduler sees utility 1 right up to deadline − 5 and 0
        // after — no risk gradient; the distribution sees the slope.
        let u = UtilityCurve::SloStep {
            weight: 1.0,
            deadline: 15.0,
        };
        let point = DiscreteDist::point(5.0);
        assert_eq!(u.expected(10.0, &point), 1.0);
        assert_eq!(u.expected(10.1, &point), 0.0);
        let dist = uniform(0.0, 10.0);
        let e = u.expected(10.0, &dist);
        assert!(e > 0.4 && e < 0.6, "graded risk, got {e}");
    }

    #[test]
    fn expected_utility_never_exceeds_weight() {
        let d = uniform(1.0, 100.0);
        for curve in [
            UtilityCurve::SloStep {
                weight: 7.0,
                deadline: 50.0,
            },
            UtilityCurve::SloDecay {
                weight: 7.0,
                deadline: 50.0,
                zero_at: 200.0,
            },
            UtilityCurve::BeLinear {
                weight: 7.0,
                submit: 0.0,
                horizon: 100.0,
                floor: 0.1,
            },
        ] {
            for start in [0.0, 25.0, 80.0, 500.0] {
                let e = curve.expected(start, &d);
                assert!((0.0..=7.0 + 1e-9).contains(&e), "{curve:?} at {start}: {e}");
            }
        }
    }

    #[test]
    fn be_expected_utility_decreases_with_start() {
        let d = uniform(10.0, 50.0);
        let u = UtilityCurve::BeLinear {
            weight: 1.0,
            submit: 0.0,
            horizon: 1000.0,
            floor: 0.02,
        };
        let mut prev = f64::INFINITY;
        for start in [0.0, 100.0, 400.0, 900.0, 2000.0] {
            let e = u.expected(start, &d);
            assert!(e <= prev + 1e-12);
            prev = e;
        }
        // The floor keeps even very late completions attractive enough.
        assert!(u.expected(1e6, &d) > 0.0);
    }

    #[test]
    fn decay_curve_dominates_step_curve() {
        let d = uniform(1.0, 300.0);
        let step = UtilityCurve::SloStep {
            weight: 5.0,
            deadline: 100.0,
        };
        let decay = UtilityCurve::SloDecay {
            weight: 5.0,
            deadline: 100.0,
            zero_at: 500.0,
        };
        for start in [0.0, 50.0, 150.0, 300.0] {
            assert!(decay.expected(start, &d) >= step.expected(start, &d) - 1e-12);
        }
    }

    #[test]
    fn zero_step_height_and_zero_span_are_well_defined() {
        // Step height 0: utility is identically zero, never NaN (the slope
        // would be 0/positive or, with span 0, 0/0 if evaluated naively).
        let flat = UtilityCurve::SloDecay {
            weight: 0.0,
            deadline: 100.0,
            zero_at: 100.0,
        };
        for c in [0.0, 100.0, 100.5, 1e9] {
            let v = flat.value(c);
            assert_eq!(v, 0.0, "value({c}) = {v}");
            assert!(!v.is_nan());
        }
        // Decay window starting exactly at the deadline (zero span, nonzero
        // weight): behaves as a step with no NaN at the boundary.
        let step_like = UtilityCurve::SloDecay {
            weight: 5.0,
            deadline: 100.0,
            zero_at: 100.0,
        };
        assert_eq!(step_like.value(100.0), 5.0);
        assert_eq!(step_like.value(100.0 + f64::EPSILON * 200.0), 0.0);
        let d = DiscreteDist::point(50.0);
        assert!(step_like.expected(0.0, &d).is_finite());
        assert!(flat.expected(0.0, &d) == 0.0);
    }

    mod decay_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // §4.2.2 safety envelope: for any decay curve (including zero
            // weight and zero span) utility is finite, within [0, weight],
            // and monotone non-increasing in completion time — in
            // particular past the deadline, where the slope lives.
            #[test]
            fn decay_utility_is_monotone_and_bounded(
                weight in 0.0f64..100.0,
                deadline in 0.0f64..1e6,
                span in 0.0f64..1e6,
                mut completions in prop::collection::vec(0.0f64..4e6, 2..32),
            ) {
                let u = UtilityCurve::SloDecay {
                    weight,
                    deadline,
                    zero_at: deadline + span,
                };
                completions.sort_by(f64::total_cmp);
                let mut prev = f64::INFINITY;
                for &c in &completions {
                    let v = u.value(c);
                    prop_assert!(v.is_finite(), "value({c}) = {v}");
                    prop_assert!(v >= 0.0, "negative utility {v} at {c}");
                    prop_assert!(v <= weight, "utility {v} above weight {weight}");
                    prop_assert!(
                        v <= prev,
                        "not non-increasing: value({c}) = {v} after {prev}"
                    );
                    prev = v;
                }
            }

            // Eq. 1 under the decay curve inherits the envelope: finite
            // and within [0, weight] for any start and mass points.
            #[test]
            fn decay_expected_utility_stays_in_envelope(
                weight in 0.0f64..100.0,
                deadline in 0.0f64..1e5,
                span in 0.0f64..1e5,
                start in 0.0f64..1e6,
                lo in 0.1f64..1e3,
                width in 0.0f64..1e3,
            ) {
                let u = UtilityCurve::SloDecay {
                    weight,
                    deadline,
                    zero_at: deadline + span,
                };
                let d = DiscreteDist::uniform(lo, lo + width.max(1e-6), 16);
                let e = u.expected(start, &d);
                prop_assert!(e.is_finite(), "expected({start}) = {e}");
                prop_assert!((0.0..=weight * (1.0 + 1e-12)).contains(&e), "{e}");
            }
        }
    }

    #[test]
    fn overestimate_handling_keeps_impossible_jobs_alive() {
        // All history says 200 s, deadline is in 100 s: step utility is 0,
        // decay utility is positive.
        let step = UtilityCurve::SloStep {
            weight: 10.0,
            deadline: 100.0,
        };
        let decay = UtilityCurve::SloDecay {
            weight: 10.0,
            deadline: 100.0,
            zero_at: 400.0,
        };
        let d = DiscreteDist::point(200.0);
        assert_eq!(step.expected(0.0, &d), 0.0);
        let e = decay.expected(0.0, &d);
        assert!(e > 0.0 && e < 10.0, "positive but discounted, got {e}");
    }
}
