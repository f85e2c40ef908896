//! Serve-mode soak: long-horizon streaming under *bounded* memory, plus
//! restart equivalence at scale.
//!
//! The bounded-memory contract is asserted through the obs gauges the
//! serve stack exports (`predict_tracked_values`, `sched_cache_entries`,
//! `serve_live_jobs`, and their `_limit`/`_capacity` companions): over a
//! stream long enough to overflow every cap, each tracked-entry count must
//! plateau at its cap instead of growing with the job count. The release
//! profile runs 100 000 jobs; a smaller always-on variant keeps the same
//! assertions in every `cargo test`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use threesigma::{EstimateSource, SchedConfig, ServeNode, ThreeSigmaScheduler};
use threesigma_cluster::{Attributes, ClusterSpec, DataDir, JobKind, JobSpec, ServeConfig};
use threesigma_obs::Recorder;
use threesigma_predict::PredictorConfig;

/// Estimate-cache capacity (entries beyond this must be evicted once stale).
const CACHE_CAP: usize = 8;
/// Predictor per-feature-value state cap.
const PREDICTOR_CAP: usize = 512;
/// Distinct tenants — enough that the predictor cap is overflowed many
/// times over (tenants × job names × feature combinations ≫ cap).
const TENANTS: u64 = 300;
/// Jobs per normal arrival burst.
const BURST: usize = 20;
/// Jobs in every eighth burst — an overload storm that outruns the
/// cluster, builds a pending queue, and leaves stale unpinned cache
/// entries beyond the cap (running jobs' entries are pinned, so only a
/// backlog actually exercises eviction).
const STORM: usize = 150;
/// Seconds between bursts.
const BURST_GAP: f64 = 24.0;

/// A serve node on the soak's cluster and caps, on `data` if given.
fn node(recorder: &Recorder, data: Option<DataDir>) -> ServeNode<()> {
    let serve_cfg = ServeConfig {
        cycle_interval: 2.0,
        retention: 120.0,
        ..ServeConfig::default()
    };
    let sched_cfg = SchedConfig {
        cycle_hint: 2.0,
        cache_capacity: Some(CACHE_CAP),
        max_timings: Some(64),
        ..SchedConfig::default()
    };
    let pred_cfg = PredictorConfig {
        max_tracked_values: Some(PREDICTOR_CAP),
        ..PredictorConfig::default()
    };
    let sched = ThreeSigmaScheduler::new(sched_cfg, EstimateSource::Predicted, pred_cfg)
        .with_recorder(recorder);
    let cluster = ClusterSpec::uniform(8, 32);
    ServeNode::open(cluster, serve_cfg, sched, recorder, data, false, 0)
        .expect("valid serve config")
        .0
}

/// A deterministic streamed job: multi-tenant, mixed SLO/BE, short runtimes
/// so the backlog stays modest while estimates churn.
fn wire_job(rng: &mut StdRng, id: u64, submit: f64) -> JobSpec {
    let tenant = rng.random::<u64>() % TENANTS;
    let name = rng.random::<u64>() % 7;
    let tasks = 1 + rng.random::<u32>() % 8;
    let runtime = 5.0 + rng.random::<f64>() * 55.0;
    let kind = if rng.random::<f64>() < 0.5 {
        JobKind::Slo {
            deadline: submit + runtime * (2.0 + rng.random::<f64>() * 3.0),
        }
    } else {
        JobKind::BestEffort
    };
    let attrs = Attributes::new()
        .with("tenant", format!("t{tenant}"))
        .with("user", format!("t{tenant}"))
        .with("job_name", format!("j{name}"));
    JobSpec::new(id, submit, tasks, runtime, kind).with_attributes(attrs)
}

/// Streams `total` jobs through one session, sampling the bound gauges as
/// it goes, and asserts every tracked-entry count plateaus at its cap.
fn soak(total: u64) {
    let recorder = Recorder::enabled();
    let mut node = node(&recorder, None);
    let mut rng = StdRng::seed_from_u64(0x3516_0a7e_50a4);
    let mut id = 0u64;
    let mut t = 0.0;
    let mut bursts = 0u64;
    while id < total {
        let burst = if bursts.is_multiple_of(8) {
            STORM
        } else {
            BURST
        };
        for _ in 0..burst.min((total - id) as usize) {
            let job = wire_job(&mut rng, id, t);
            node.append(job, ServeNode::sync).expect("accepted");
            id += 1;
        }
        t += BURST_GAP;
        bursts += 1;
        // Sample the bounds mid-stream, after the gauges have flushed at
        // least once. Entry counts must track caps, not the job count.
        if bursts.is_multiple_of(10) {
            let snap = recorder.snapshot();
            let tracked = snap.gauge("predict_tracked_values").unwrap();
            assert!(
                tracked <= PREDICTOR_CAP as f64,
                "predictor state exceeded its cap mid-stream: {tracked}"
            );
            let entries = snap.gauge("sched_cache_entries").unwrap();
            let live = snap.gauge("serve_live_jobs").unwrap();
            assert!(
                entries <= CACHE_CAP as f64 + live,
                "cache grew past cap + live jobs: {entries} entries, {live} live"
            );
        }
    }
    node.finish(ServeNode::sync).expect("drains to quiescence");

    let session = node.session();
    let summary = session.summary();
    assert_eq!(summary.submitted, total);
    assert_eq!(summary.completed + summary.canceled, total);
    // Everything is terminal at quiescence; whatever finished more than a
    // retention window before the final event has been retired. Only the
    // last window's worth of records may still be held live.
    assert_eq!(summary.retired + summary.live as u64, total);
    assert!(
        (summary.live as u64) < total.min(1_000),
        "retention must bound live records to the final window ({} live of {total})",
        summary.live
    );

    let snap = recorder.snapshot();
    // Plateau: the predictor saturated its cap exactly and kept evicting.
    assert_eq!(
        snap.gauge("predict_tracked_values").unwrap(),
        PREDICTOR_CAP as f64
    );
    assert_eq!(
        snap.gauge("predict_tracked_values_limit").unwrap(),
        PREDICTOR_CAP as f64
    );
    assert!(snap.counter("predict_evicted_values_total").unwrap() > 0);
    // The cache hit its capacity and evicted stale entries; at quiescence
    // every completed job's entry has been invalidated.
    assert_eq!(
        snap.gauge("sched_cache_capacity").unwrap(),
        CACHE_CAP as f64
    );
    assert!(snap.gauge("sched_cache_entries").unwrap() <= CACHE_CAP as f64);
    assert!(snap.counter("sched_cache_evictions_total").unwrap() > 0);
    // Per-job engine state is bounded by retention, not by the stream.
    assert!(session.live_jobs() < 1_000, "live: {}", session.live_jobs());
}

/// Always-on bounded-memory soak (small enough for debug builds).
#[test]
fn serve_soak_small_stays_bounded() {
    soak(400);
}

/// The full 100k-job soak (release only; ~60k scheduling cycles).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode soak: run with --release")]
fn serve_soak_100k_jobs_stays_bounded() {
    soak(100_000);
}

/// Restart equivalence at scale: N jobs through one serve node must equal
/// the first half, a clean stop (a closing snapshot at an idle gap) and the
/// second half in a fresh node on the same data directory — the same
/// summary (including the outcome digest) and the same stable metrics but
/// for the `wal_*` ones a restart moves.
#[test]
fn serve_snapshot_restore_is_equivalent_at_scale() {
    let total = 1_200u64;
    let mut rng = StdRng::seed_from_u64(0x00d1_e5e1_c0de);
    let mut jobs = Vec::new();
    let mut t = 0.0;
    for id in 0..total {
        if id % BURST as u64 == 0 {
            t += BURST_GAP;
        }
        // Idle gap at the halfway point: long enough for every earlier job
        // to finish and retire (runtime ≤ 60 s ≪ gap, retention 120 s).
        if id == total / 2 {
            t += 3_600.0;
        }
        jobs.push(wire_job(&mut rng, id, t));
    }
    // Each part through a fresh node on one data directory; what the
    // last one reports.
    let run = |tag: &str, parts: &[&[JobSpec]]| {
        let dir =
            std::env::temp_dir().join(format!("threesigma_soak_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut last = None;
        for part in parts {
            let recorder = Recorder::enabled();
            let data = Some(DataDir::open(&dir).expect("data dir"));
            let mut node = node(&recorder, data);
            for spec in *part {
                node.append(spec.clone(), ServeNode::sync)
                    .expect("accepted");
            }
            node.finish(ServeNode::sync).expect("drains");
            let json = recorder.snapshot().to_stable_json();
            let metrics: Vec<String> = json
                .lines()
                .filter(|l| !l.contains("\"wal_"))
                .map(|l| l.trim_end_matches(',').to_owned())
                .collect();
            last = Some((node.session().summary(), metrics));
        }
        let _ = std::fs::remove_dir_all(&dir);
        last.expect("at least one part")
    };
    let (part1, part2) = jobs.split_at(total as usize / 2);
    let (summary_a, metrics_a) = run("straight", &[&jobs]);
    let (summary_c, metrics_c) = run("restarted", &[part1, part2]);
    assert_eq!(summary_a, summary_c, "summary (incl. digest) must match");
    assert_eq!(
        metrics_a, metrics_c,
        "stable metrics must survive the restart"
    );
}
