//! Criterion micro-benchmarks for the latency-critical components:
//! 3σPredict lookups, expected-utility evaluation, distribution
//! conditioning, streaming-histogram insertion, and a representative
//! scheduling-cycle MILP solve.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use threesigma::driver::{run, run_observed, CycleTraceWriter, Experiment, SchedulerKind};
use threesigma::{DiscreteDist, UtilityCurve};
use threesigma_histogram::{RuntimeDistribution, StreamingHistogram};
use threesigma_milp::{BranchAndBound, Cmp, Model, SolverConfig};
use threesigma_obs::Recorder;
use threesigma_predict::{AttributeSource, Predictor, PredictorConfig};
use threesigma_workload::{generate, Environment, WorkloadConfig};

struct Attrs<'a>(&'a threesigma_cluster::Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

fn bench_predictor(c: &mut Criterion) {
    let config = WorkloadConfig {
        duration: 60.0,
        pretrain_jobs: 5000,
        ..WorkloadConfig::e2e(Environment::Google, 3)
    };
    let trace = generate(&config);
    let mut predictor = Predictor::new(PredictorConfig::default());
    for j in &trace.pretrain {
        predictor.observe(&Attrs(&j.attributes), j.duration);
    }
    let probe = &trace.pretrain[17];
    c.bench_function("predict_distribution", |b| {
        b.iter(|| black_box(predictor.predict(&Attrs(black_box(&probe.attributes)))))
    });
    let mut predictor2 = predictor;
    c.bench_function("observe_runtime", |b| {
        b.iter(|| predictor2.observe(&Attrs(black_box(&probe.attributes)), black_box(123.0)))
    });
}

fn bench_distribution_math(c: &mut Criterion) {
    let samples: Vec<f64> = (0..500).map(|i| 50.0 + (i % 97) as f64 * 13.0).collect();
    let rd = RuntimeDistribution::from_samples(&samples, 80).unwrap();
    let dist = DiscreteDist::from_distribution(&rd, 40);
    let curve = UtilityCurve::SloStep {
        weight: 10.0,
        deadline: 900.0,
    };
    c.bench_function("expected_utility_40pts", |b| {
        b.iter(|| black_box(curve.expected(black_box(120.0), &dist)))
    });
    c.bench_function("survival_indexed_40pts", |b| {
        b.iter(|| black_box(dist.survival(black_box(400.0))))
    });
    c.bench_function("condition_elapsed", |b| {
        b.iter(|| black_box(dist.condition(black_box(400.0))))
    });
    c.bench_function("histogram_insert", |b| {
        let mut h = StreamingHistogram::with_default_bins();
        let mut x = 1.0;
        b.iter(|| {
            x = (x * 1.37) % 9973.0 + 1.0;
            h.insert(black_box(x));
        })
    });
}

/// A representative scheduling-cycle MILP: 64 jobs × 12 options, demand
/// rows, and 8 set × 8 slot capacity rows.
fn cycle_model() -> Model {
    let mut m = Model::new();
    let mut all = Vec::new();
    let mut seed = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..64 {
        let mut vars = Vec::new();
        for o in 0..12 {
            let u = 10.0 * next() / (1.0 + o as f64 * 0.3);
            vars.push(m.add_binary(u));
        }
        let terms: Vec<_> = vars.iter().map(|v| (*v, 1.0)).collect();
        m.add_constraint(&terms, Cmp::Le, 1.0);
        m.add_sos1(&vars);
        all.push(vars);
    }
    for _set in 0..8 {
        for _slot in 0..8 {
            let mut terms = Vec::new();
            for vars in &all {
                for v in vars {
                    let coeff = 8.0 * next();
                    if coeff > 2.0 {
                        terms.push((*v, coeff));
                    }
                }
            }
            m.add_constraint(&terms, Cmp::Le, 192.0);
        }
    }
    m
}

fn bench_milp(c: &mut Criterion) {
    let model = cycle_model();
    let solver = BranchAndBound::with_config(SolverConfig {
        node_limit: 200,
        time_limit: Some(Duration::from_millis(100)),
        ..SolverConfig::default()
    });
    let warm = vec![0.0; model.num_vars()];
    let mut group = c.benchmark_group("milp");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("cycle_solve_64jobs", |b| {
        b.iter(|| black_box(solver.solve_with_warm_start(&model, Some(&warm))))
    });
    group.finish();
}

/// Observability overhead: the same end-to-end 3σSched run with the
/// recorder disabled (the default path — handles exist but every update is
/// one branch) vs enabled (atomics + per-cycle flush + trace line
/// formatting). The acceptance budget is ≤2% overhead enabled-vs-disabled.
fn bench_recorder_overhead(c: &mut Criterion) {
    let config = WorkloadConfig::e2e(Environment::Google, 3).with_duration(180.0);
    let trace = generate(&config);
    let exp = Experiment::paper_sc256().with_cycle(10.0);
    let mut group = c.benchmark_group("recorder");
    group
        .sample_size(40)
        .measurement_time(Duration::from_secs(20));
    group.bench_function("e2e_run_recorder_disabled", |b| {
        b.iter(|| black_box(run(SchedulerKind::ThreeSigma, &trace, &exp).unwrap()))
    });
    group.bench_function("e2e_run_recorder_enabled", |b| {
        b.iter(|| {
            let recorder = Recorder::enabled();
            let mut writer = CycleTraceWriter::new();
            black_box(
                run_observed(
                    SchedulerKind::ThreeSigma,
                    &trace,
                    &exp,
                    &recorder,
                    &mut writer,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_predictor,
    bench_distribution_math,
    bench_milp,
    bench_recorder_overhead
);
criterion_main!(benches);
