//! Streaming histograms and the runtime distribution of 3Sigma.
//!
//! 3σPredict summarises the runtime history of every feature value as a
//! bounded-size streaming histogram (Ben-Haim & Tom-Tov, JMLR 2010,
//! [`StreamingHistogram`]) and hands 3σSched a [`DiscreteDist`] derived
//! from it: one `(runtime, probability)` mass point per bin. That one type
//! carries all of §3's math:
//!
//! * survival `1 − CDF(t)` — expected resource consumption (Eq. 3, §3.2),
//! * conditional tails `P(T > t | T > elapsed)` — Eq. 2 renormalisation,
//! * weighted sums over the mass points — the expected utility of Eq. 1,
//! * mean, variance and support — point estimates, under-estimate handling.
//!
//! The analytic families — the uniform of the paper's worked example (§2.3,
//! Fig. 5), the normal of the perturbation study (§6.3, Fig. 9) and the
//! scheduler's cold-start log-normal — are constructors of the same type,
//! with an explicit number of quantile-grid points.
//!
//! # Example
//!
//! ```
//! use threesigma_histogram::DiscreteDist;
//!
//! let dist = DiscreteDist::from_samples(&[60.0, 90.0, 120.0, 600.0], 80)
//!     .expect("non-empty samples");
//! // Probability the job still runs after 100 s (expected consumption):
//! let s = dist.survival(100.0);
//! assert!(s > 0.2 && s < 0.7);
//! // Eq. 2: condition on 130 s elapsed — the remaining mass shifts toward
//! // the 600 s mode, so late survival grows sharply.
//! let cond = dist.condition(130.0);
//! assert!(cond.survival(300.0) > dist.survival(300.0) + 0.2);
//! ```

mod analytic;
pub mod dist;
pub mod stats;
pub mod streaming;

pub use dist::DiscreteDist;
pub use stats::{coefficient_of_variation, quantile_sorted, Ewma, StreamingMoments};
pub use streaming::StreamingHistogram;
