//! Paper-to-code map: where each concept of the EuroSys'18 paper lives.
//!
//! This module contains no code — it is a reviewer's index from the paper's
//! sections, equations, figures, and tables to the items implementing them.
//!
//! # Concepts and mechanisms
//!
//! | Paper | Code |
//! |---|---|
//! | §3.1 utility functions, Fig. 3(a)/(d) | [`UtilityCurve`](crate::UtilityCurve) (`SloStep`, `SloDecay`, `BeLinear`; best-effort decay over `BE_HORIZON` to `BE_FLOOR` in `sched::threesigma`) |
//! | Eq. 1 expected utility | [`UtilityCurve::expected`](crate::UtilityCurve::expected) over [`DiscreteDist`](crate::DiscreteDist) mass points |
//! | §3.2 expected resource consumption (`1 − CDF`) | [`DiscreteDist::survival`](crate::DiscreteDist::survival); capacity rows in `RunningTable::compile` (`sched::compile`) |
//! | Eq. 2 conditional distribution of running jobs | [`DiscreteDist::condition`](crate::DiscreteDist::condition) (`condition_into` for a running attempt's carried conditional) |
//! | §4.1 3σPredict features | `threesigma_predict::FeatureSet::standard` |
//! | §4.1 experts (average / median / rolling α=0.6 / recent-X) | `threesigma_predict::EstimatorKind`, scored by NMAE in `ValueState` |
//! | §4.1 streaming histogram (≤80 bins) | `threesigma_histogram::StreamingHistogram` (Ben-Haim & Tom-Tov) |
//! | §4.2.1 exp-inc under-estimate handling | `Phase::ExpInc`, a running attempt's state in `RunningTable` (`sched::compile`) |
//! | §4.2.2 over-estimate handling (decaying utility) | `UtilityCurve::SloDecay` via [`OverestimateMode::Always`](crate::OverestimateMode) |
//! | §4.2.3 adaptive enabling (deadline as upper-bound proxy) | [`OverestimateMode::Adaptive`](crate::OverestimateMode) below `OE_THRESHOLD` (0.15, `sched::threesigma`) |
//! | §4.3.3 MILP formulation (indicators, demand, capacity) | `RunningTable::compile` (`sched::compile`) building a `threesigma_milp::Model` from `ThreeSigmaScheduler::generate`'s options |
//! | §4.3.3 equivalence sets | capacity rows per distinct preferred rack-set (bitmasks) |
//! | §4.3.5 preemption terms (cost `P_r`, capacity credit) | preemption indicator variables + `preemption_cost`; the best-effort jobs they stop are valued `BeLinear` over `BE_HORIZON` to `BE_FLOOR` |
//! | §4.3.6 warm start / best-within-budget / plan-ahead bound / pruning | `threesigma::solve` over `threesigma_milp::BranchAndBound::solve_with_warm_start`, `SolverConfig` (integrality: `INTEGRALITY_TOL`), `plan_slots`, zero-term pruning in `Model::add_constraint` |
//! | Table 1 systems | [`SchedulerKind`](crate::SchedulerKind) |
//! | §5 workloads (E2E, DEADLINE-n, LOAD-ℓ, SAMPLE-n, SCALABILITY-n) | `threesigma_workload::WorkloadConfig` (+ `with_slack`, `with_load`, `ArrivalTarget::JobsPerHour`, `PredictorConfig::sample_cap`) |
//! | §5 cluster RC256/SC256 | `threesigma_cluster::ClusterSpec` (+ `RcFidelity`) |
//! | §5 success metrics | `threesigma_cluster::Metrics` |
//!
//! # Figures and tables → bench harnesses
//!
//! | Paper | Harness |
//! |---|---|
//! | Fig. 1 | Google rows of `benches/fig07_workloads` |
//! | Fig. 2(a–d) | `benches/fig02_traces` |
//! | Figs. 3 & 5 (worked example) | `crates/core/examples/worked_example.rs`; unit tests in [`utility`](crate::utility) and `sched::threesigma` |
//! | Fig. 6 + Table 2 | `benches/fig06_e2e_real` |
//! | Fig. 7 | `benches/fig07_workloads` |
//! | Fig. 8 | `benches/fig08_ablation` |
//! | Fig. 9 | `benches/fig09_perturb` |
//! | Fig. 10 | `benches/fig10_load` |
//! | Fig. 11 | `benches/fig11_samples` |
//! | Fig. 12 | `benches/fig12_scalability` |
//!
//! # Extensions beyond the paper
//!
//! * [`SchedulerKind::PointPaddedEst`](crate::SchedulerKind) — §2.2's "stochastic scheduler" heuristic.
//! * [`SchedulerKind::Backfill`](crate::SchedulerKind) — EASY backfilling ([`BackfillScheduler`](crate::BackfillScheduler)).
//! * [`PlanRecord`](crate::PlanRecord) — per-cycle plan introspection.
//! * The degradation governor (`sched::governor`): `LevelCaps` per ladder level, `BUDGET_HYSTERESIS` on-budget cycles to step down.
//! * `benches/ablation_knobs` — quantifies the engineering knobs the paper leaves unquantified.
//! * `threesigma_predict::Predictor::snapshot` — history persistence.
//! * The `threesigma` CLI (`crates/cli`).
