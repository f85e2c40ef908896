//! Property-based tests for 3σPredict's expert scoring and selection.

use proptest::prelude::*;

use threesigma_predict::{EstimatorKind, Predictor, PredictorConfig, ValueState, ESTIMATORS};

fn attrs(user: &str, name: &str) -> [(String, String); 4] {
    [
        ("user".to_owned(), user.to_owned()),
        ("job_name".to_owned(), name.to_owned()),
        ("priority".to_owned(), "5".to_owned()),
        ("tasks".to_owned(), "4".to_owned()),
    ]
}

/// The closed-form EWMA recurrence: `e_1 = x_1`,
/// `e_k = α·x_k + (1-α)·e_{k-1}`, expanded to
/// `e_n = (1-α)^{n-1}·x_1 + Σ_{k≥2} α·(1-α)^{n-k}·x_k`.
fn ewma_closed_form(alpha: f64, xs: &[f64]) -> f64 {
    let n = xs.len();
    let mut e = (1.0 - alpha).powi(n as i32 - 1) * xs[0];
    for (k, &x) in xs.iter().enumerate().skip(1) {
        e += alpha * (1.0 - alpha).powi((n - 1 - k) as i32) * x;
    }
    e
}

proptest! {
    /// The predictor never selects an expert with strictly worse cumulative
    /// NMAE than another trusted expert over the same history, and its point
    /// estimate is exactly the winning estimator's output.
    #[test]
    fn selection_never_picks_a_strictly_worse_trusted_expert(
        runtimes in prop::collection::vec(1.0f64..5e3, 4..40),
    ) {
        let config = PredictorConfig::default();
        let min_evals = config.min_expert_evals;
        let mut p = Predictor::new(config);
        // A single attribute set: every feature value sees the identical
        // history, so a shadow ValueState reproduces each expert's score.
        for &rt in &runtimes {
            p.observe(&attrs("prop", "trace"), rt);
        }
        let mut shadow = ValueState::new(10, 0.6, None);
        for &rt in &runtimes {
            shadow.observe(rt);
        }
        let pred = p.predict(&attrs("prop", "trace")).unwrap();

        let trusted_nmae = |kind: EstimatorKind| {
            let s = shadow.score(kind);
            (s.evals >= min_evals).then(|| s.nmae()).flatten()
        };
        let best = ESTIMATORS
            .iter()
            .filter_map(|&k| trusted_nmae(k))
            .fold(f64::INFINITY, f64::min);
        if let Some(winner_nmae) = trusted_nmae(pred.estimator) {
            prop_assert!(
                winner_nmae <= best + 1e-9,
                "picked {:?} with NMAE {winner_nmae}, but best trusted NMAE is {best}",
                pred.estimator
            );
        } else {
            // The winner is unscored: legal only when NO expert is trusted.
            prop_assert!(
                best.is_infinite(),
                "picked unscored {:?} while a trusted expert (NMAE {best}) existed",
                pred.estimator
            );
        }
        // The reported point is the winning estimator's output, verbatim.
        prop_assert_eq!(
            pred.point.to_bits(),
            shadow.estimate(pred.estimator).unwrap().to_bits()
        );
    }

    /// The rolling expert (α = 0.6) matches the closed-form EWMA recurrence
    /// on short histories — in both the streaming (uncapped) and
    /// replay-from-window (sample-capped) code paths.
    #[test]
    fn rolling_expert_matches_closed_form_ewma(
        runtimes in prop::collection::vec(0.5f64..1e4, 1..12),
    ) {
        let expected = ewma_closed_form(0.6, &runtimes);

        let mut streaming = ValueState::new(10, 0.6, None);
        for &rt in &runtimes {
            streaming.observe(rt);
        }
        let got = streaming.estimate(EstimatorKind::Rolling).unwrap();
        prop_assert!(
            (got - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
            "streaming EWMA {got} vs closed form {expected}"
        );

        // Capped mode re-folds the window; with the cap wider than the
        // history it must agree with the streaming path exactly.
        let mut capped = ValueState::new(10, 0.6, Some(16));
        for &rt in &runtimes {
            capped.observe(rt);
        }
        let got_capped = capped.estimate(EstimatorKind::Rolling).unwrap();
        prop_assert!(
            (got_capped - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
            "capped EWMA {got_capped} vs closed form {expected}"
        );
    }

    /// NMAE accounting is prequential: an expert that predicts every value
    /// exactly scores zero, and scores only start once an estimate exists.
    #[test]
    fn perfect_predictions_score_zero_nmae(
        value in 1.0f64..1e4,
        reps in 2usize..20,
    ) {
        let mut s = ValueState::new(10, 0.6, None);
        for _ in 0..reps {
            s.observe(value);
        }
        for kind in ESTIMATORS {
            let score = s.score(kind);
            // First observation is unscored (no estimate existed yet).
            prop_assert_eq!(score.evals, reps as u64 - 1, "{:?}", kind);
            prop_assert!(score.nmae().unwrap() <= 1e-12, "{:?}", kind);
        }
    }
}
