//! CLI subcommand implementations.

use threesigma::driver::{run, run_observed, CycleTraceWriter, Experiment, SchedulerKind};
use threesigma::CycleBudget;
use threesigma_obs::{parse_prometheus, Recorder};
use threesigma_predict::{AttributeSource, Predictor, PredictorConfig};
use threesigma_workload::analysis::{
    error_histogram, estimate_error_pct, fraction_off_by_factor, runtime_cdf,
};
use threesigma_workload::{generate, ArrivalTarget, Environment, Trace, WorkloadConfig};

use crate::args::{Args, CliError};

struct Attrs<'a>(&'a threesigma_cluster::Attributes);

impl AttributeSource for Attrs<'_> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.0.get(key)
    }
}

/// Usage text.
pub const USAGE: &str = "\
threesigma — distribution-based cluster scheduling (EuroSys'18 reproduction)

USAGE:
  threesigma generate [--env E] [--hours H] [--load L | --jobs-per-hour R]
                      [--slack S] [--seed N] [--pretrain N] --out FILE
  threesigma run      (--trace FILE | --env E [--hours H] [--seed N]
                       [--load L | --jobs-per-hour R] [--slack S] [--pretrain N])
                      [--scheduler NAME] [--cycle SECS] [--rc] [--out FILE]
                      [--cycle-budget-ms MS] [--max-retries N]
                      [--solver-tier T]
  threesigma compare  (--trace FILE | --env E [--hours H] [--seed N]
                       [--load L | --jobs-per-hour R] [--slack S] [--pretrain N])
                      [--cycle SECS] [--rc] [--ablations]
                      [--cycle-budget-ms MS] [--max-retries N]
                      [--solver-tier T]
  threesigma analyze  (--trace FILE | --env E [--jobs N] [--seed N])
  threesigma simtest  [--seed N | --iters K [--start-seed S]]
                      [--cycle-budget-ms MS] [--max-retries N]
                      [--solver-tier T]
                      [--crash [--crash-jobs N] [--kill-points K]]
  threesigma metrics  (--trace FILE | --env E [--hours H] [--seed N]
                       [--load L | --jobs-per-hour R] [--slack S] [--pretrain N])
                      [--scheduler NAME] [--cycle SECS] [--rc]
                      [--cycle-budget-ms MS] [--max-retries N]
                      [--solver-tier T]
                      [--json FILE] [--trace-out FILE]
  threesigma serve    [--input FILE|- | --listen ADDR]
                      [--racks N] [--nodes-per-rack N] [--cycle SECS]
                      [--retention SECS] [--max-retries N]
                      [--data-dir DIR] [--snapshot-every-jobs N] [--no-fsync]
                      [--max-queue N] [--tenant-quota N] [--quarantine FILE]
                      [--metrics-json FILE] [--summary-json FILE]
  threesigma help

ENVIRONMENTS: google (default), hedgefund, mustang
SCHEDULERS:   3sigma (default), 3sigma-nodist, 3sigma-nooe, 3sigma-noadapt,
              point-perfect, point-real, point-padded, backfill, prio

SIMTEST: deterministic invariant-checked simulation campaigns.
  --seed N     replay one seed and print the full byte-stable report
  --iters K    smoke-run K fresh seeds (default start 1, or --start-seed S)
  (no flags)   run the checked-in regression corpus
  Any failure exits non-zero and echoes `FAILING SEED: N` for replay.

ROBUSTNESS: degradation governor and kill/retry knobs (run, compare,
metrics + simtest).
  --cycle-budget-ms MS  per-cycle wall-clock budget for the 3σSched
                        degradation governor (nondeterministic; simtest
                        scenarios default to deterministic work units)
  --max-retries N       retry budget for fault-killed jobs before they are
                        cancelled and counted
  --solver-tier T       pin the MILP backend: 0 greedy rounding, 1 LP+repair,
                        2 branch-and-bound. Default: the degradation ladder
                        picks the tier (level 0 → tier 2, …, level 2 → tier 0)

METRICS: run one instrumented simulation and export its counters.
  Prints a Prometheus-style text exposition to stdout.
  --json FILE       also write the byte-stable JSON metrics dump
  --trace-out FILE  also write the per-cycle trace (one JSON line per cycle)

SERVE: long-running bounded-memory scheduling over a JSONL job stream.
  One job per line: {\"id\":1, \"tenant\":\"acme\", \"submit_time\":0.0,
  \"tasks\":4, \"duration\":120.0, \"deadline\":600.0, \"job_name\":\"etl\"}.
  `deadline` is optional (absent = best-effort); extra string fields become
  predictor attributes; `tenant` doubles as the `user` feature key unless a
  `user` field is given. Lines must arrive in submit_time order.
  --input FILE|-      read the stream from FILE or stdin (default: stdin)
  --listen ADDR       accept ONE TCP connection and stream from it instead
  --retention SECS    retire terminal job records after SECS (default 3600)
  Memory is bounded by fixed caps: 4096 tracked (feature,value) predictor
  states, 4096 estimate-cache entries, 256 per-cycle timing records.

CRASH SAFETY (serve --data-dir): journaled, crash-only operation.
  Accepted jobs are appended to a CRC32-framed write-ahead journal (fsynced
  before they are acknowledged); quiescent idle gaps trigger automatic
  snapshots that truncate the journal. On startup the newest valid snapshot
  is loaded (torn tails tolerated) and the journal suffix is replayed, so a
  killed process recovers digest-identically to a never-crashed run. EOF
  ends in a closing snapshot, so a clean restart on the same directory
  resumes the stream with the uninterrupted run's digest.
  --data-dir DIR            journal + snapshots + quarantine live here
  --snapshot-every-jobs N   snapshot after N journaled records (default 256,
                            0 = only at EOF); quiescent moments only
  --no-fsync                skip fsync on journal appends (faster, weaker)

ADMISSION CONTROL (serve): typed rejections, never a process exit.
  Rejected lines get {\"status\":\"rejected\",\"line\":N,\"reason\":R,...} on the
  wire (reasons: malformed, queue_full, tenant_quota, duplicate,
  out_of_order) and per-reason serve_rejected_* counters. Malformed lines
  are sampled into a quarantine file (the first 100 over the stream's
  life). Partial tails and abrupt disconnects on --listen are absorbed with
  typed warnings.
  --max-queue N             bound on non-terminal jobs (0 = unbounded)
  --tenant-quota N          per-tenant in-flight bound (0 = unbounded)
  --quarantine FILE         poison-line sink (default: DIR/quarantine.jsonl
                            under --data-dir, else disabled)
  --metrics-json FILE write the byte-stable metrics dump at EOF
  --summary-json FILE write the session summary (incl. outcome digest)
";

fn parse_env(args: &Args) -> Result<Environment, CliError> {
    match args.get_or("env", "google") {
        "google" => Ok(Environment::Google),
        "hedgefund" => Ok(Environment::HedgeFund),
        "mustang" => Ok(Environment::Mustang),
        other => Err(CliError::BadValue {
            option: "env".into(),
            value: other.into(),
            expected: "google | hedgefund | mustang",
        }),
    }
}

fn parse_scheduler(name: &str) -> Result<SchedulerKind, CliError> {
    match name {
        "3sigma" => Ok(SchedulerKind::ThreeSigma),
        "3sigma-nodist" => Ok(SchedulerKind::ThreeSigmaNoDist),
        "3sigma-nooe" => Ok(SchedulerKind::ThreeSigmaNoOE),
        "3sigma-noadapt" => Ok(SchedulerKind::ThreeSigmaNoAdapt),
        "point-perfect" => Ok(SchedulerKind::PointPerfEst),
        "point-real" => Ok(SchedulerKind::PointRealEst),
        "point-padded" => Ok(SchedulerKind::PointPaddedEst),
        "backfill" => Ok(SchedulerKind::Backfill),
        "prio" => Ok(SchedulerKind::Prio),
        other => Err(CliError::BadValue {
            option: "scheduler".into(),
            value: other.into(),
            expected: "see `threesigma help`",
        }),
    }
}

fn workload_config(args: &Args) -> Result<WorkloadConfig, CliError> {
    let env = parse_env(args)?;
    let hours: f64 = args.parse_or("hours", 1.0)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let mut config = WorkloadConfig::e2e(env, seed).with_duration(hours * 3600.0);
    if let Some(rate) = args.get("jobs-per-hour") {
        let rate: f64 = rate.parse().map_err(|_| CliError::BadValue {
            option: "jobs-per-hour".into(),
            value: rate.into(),
            expected: "a positive number",
        })?;
        config.arrival = ArrivalTarget::JobsPerHour(rate);
    } else {
        config = config.with_load(args.parse_or("load", 1.4)?);
    }
    if let Some(slack) = args.get("slack") {
        let slack: f64 = slack.parse().map_err(|_| CliError::BadValue {
            option: "slack".into(),
            value: slack.into(),
            expected: "a fraction, e.g. 0.6",
        })?;
        config = config.with_slack(slack);
    }
    config.pretrain_jobs = args.parse_or("pretrain", config.pretrain_jobs)?;
    Ok(config)
}

fn load_or_generate(args: &Args) -> Result<Trace, CliError> {
    match args.get("trace") {
        Some(path) => Trace::load(path).map_err(|e| CliError::Io(e.to_string())),
        None => Ok(generate(&workload_config(args)?)),
    }
}

fn experiment(args: &Args) -> Result<Experiment, CliError> {
    let mut exp = if args.switch("rc") {
        Experiment::paper_rc256()
    } else {
        Experiment::paper_sc256()
    };
    exp = exp.with_cycle(args.parse_or("cycle", 10.0)?);
    if let Some(raw) = args.get("cycle-budget-ms") {
        let ms: f64 = raw
            .parse()
            .ok()
            .filter(|ms: &f64| ms.is_finite() && *ms > 0.0)
            .ok_or_else(|| CliError::BadValue {
                option: "cycle-budget-ms".into(),
                value: raw.into(),
                expected: "a positive number of milliseconds",
            })?;
        exp.sched.cycle_budget = CycleBudget::WallClockMs(ms);
    }
    if args.get("max-retries").is_some() {
        exp.engine.retry.max_retries = args.parse_or("max-retries", 0u32)?;
    }
    if let Some(raw) = args.get("solver-tier") {
        exp.sched.solver_tier = Some(parse_solver_tier(raw)?);
    }
    Ok(exp)
}

fn parse_solver_tier(raw: &str) -> Result<u8, CliError> {
    raw.parse()
        .ok()
        .filter(|t: &u8| *t <= 2)
        .ok_or_else(|| CliError::BadValue {
            option: "solver-tier".into(),
            value: raw.into(),
            expected: "a tier in 0..=2",
        })
}

fn metrics_line(kind: SchedulerKind, m: &threesigma_cluster::Metrics) -> String {
    format!(
        "{:<16} miss={:>5.1}%  slo_gp={:>8.1}M-h  be_gp={:>8.1}M-h  be_lat={:>6.0}s  preempt={}",
        kind.name(),
        m.slo_miss_pct(),
        m.slo_goodput_hours(),
        m.be_goodput_hours(),
        m.mean_be_latency().unwrap_or(f64::NAN),
        m.preemptions,
    )
}

/// `generate` — emit a trace JSON.
pub(crate) fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let config = workload_config(args)?;
    let out = args.require("out")?;
    let trace = generate(&config);
    trace.save(out).map_err(|e| CliError::Io(e.to_string()))?;
    Ok(format!(
        "wrote {} jobs (+{} pretraining) to {out} (offered load {:.2})",
        trace.jobs.len(),
        trace.pretrain.len(),
        trace.offered_load(config.cluster_nodes, config.duration),
    ))
}

/// `run` — one scheduler over one trace.
pub(crate) fn cmd_run(args: &Args) -> Result<String, CliError> {
    let trace = load_or_generate(args)?;
    let kind = parse_scheduler(args.get_or("scheduler", "3sigma"))?;
    let exp = experiment(args)?;
    let result = run(kind, &trace, &exp).map_err(|e| CliError::Io(e.to_string()))?;
    if let Some(out) = args.get("out") {
        let json = serde_json::to_string_pretty(&result.metrics)
            .map_err(|e| CliError::Io(e.to_string()))?;
        std::fs::write(out, json).map_err(|e| CliError::Io(e.to_string()))?;
    }
    Ok(metrics_line(kind, &result.metrics))
}

/// `compare` — the headline systems (plus ablations with `--ablations`).
pub(crate) fn cmd_compare(args: &Args) -> Result<String, CliError> {
    let trace = load_or_generate(args)?;
    let exp = experiment(args)?;
    let mut kinds = SchedulerKind::headline().to_vec();
    if args.switch("ablations") {
        kinds.extend([
            SchedulerKind::ThreeSigmaNoDist,
            SchedulerKind::ThreeSigmaNoOE,
            SchedulerKind::ThreeSigmaNoAdapt,
            SchedulerKind::PointPaddedEst,
            SchedulerKind::Backfill,
        ]);
    }
    let mut out = String::new();
    for kind in kinds {
        let result = run(kind, &trace, &exp).map_err(|e| CliError::Io(e.to_string()))?;
        out.push_str(&metrics_line(kind, &result.metrics));
        out.push('\n');
    }
    Ok(out)
}

/// `analyze` — Fig. 2-style trace statistics.
pub(crate) fn cmd_analyze(args: &Args) -> Result<String, CliError> {
    let trace = match args.get("trace") {
        Some(path) => Trace::load(path).map_err(|e| CliError::Io(e.to_string()))?,
        None => {
            let env = parse_env(args)?;
            let jobs: usize = args.parse_or("jobs", 5000)?;
            let seed: u64 = args.parse_or("seed", 42)?;
            generate(&WorkloadConfig {
                duration: 60.0,
                pretrain_jobs: jobs,
                ..WorkloadConfig::e2e(env, seed)
            })
        }
    };
    let jobs: Vec<_> = trace
        .pretrain
        .iter()
        .chain(trace.jobs.iter())
        .cloned()
        .collect();
    let mut out = format!("{} jobs\n", jobs.len());
    let cdf = runtime_cdf(&jobs);
    let at = |q: f64| cdf[(q * (cdf.len() - 1) as f64) as usize].0;
    out.push_str(&format!(
        "runtime percentiles: p10={:.0}s p50={:.0}s p90={:.0}s p99={:.0}s\n",
        at(0.1),
        at(0.5),
        at(0.9),
        at(0.99)
    ));
    // Prequential estimate-error profile.
    let split = jobs.len() / 2;
    let mut predictor = Predictor::new(PredictorConfig::default());
    for j in &jobs[..split] {
        predictor.observe(&Attrs(&j.attributes), j.duration);
    }
    let mut pairs = Vec::new();
    let mut errors = Vec::new();
    for j in &jobs[split..] {
        if let Some(p) = predictor.predict_point(&Attrs(&j.attributes)) {
            pairs.push((p, j.duration));
            errors.push(estimate_error_pct(p, j.duration));
        }
        predictor.observe(&Attrs(&j.attributes), j.duration);
    }
    let hist = error_histogram(&errors);
    out.push_str(&format!(
        "estimates off by ≥2x: {:.1}%\nerror histogram:\n",
        100.0 * fraction_off_by_factor(&pairs, 2.0)
    ));
    for (c, pct) in &hist.buckets {
        out.push_str(&format!("  {c:>5}%  {pct:>5.1}%\n"));
    }
    out.push_str(&format!("   tail  {:>5.1}%\n", hist.tail_pct));
    Ok(out)
}

/// `simtest` — deterministic invariant-checked simulation campaigns.
///
/// Three modes: `--seed N` replays one seed and prints the full report;
/// `--iters K [--start-seed S]` smoke-runs K fresh seeds; with no flags the
/// checked-in corpus is run. Failures return [`CliError::Failed`] echoing
/// `FAILING SEED: N` so any failure replays from one integer.
///
/// `--crash` instead runs the durable-serve crash-injection campaign:
/// seeded kill points (with torn journal tails) must all recover to a
/// state digest-identical to the straight-through run. `--crash-jobs`
/// sizes the stream, `--kill-points` the number of injected crashes, and
/// `--seed` reseeds both the stream and the kill offsets.
pub(crate) fn cmd_simtest(args: &Args) -> Result<String, CliError> {
    if args.switch("crash") {
        let defaults = threesigma_simtest::CrashConfig::default();
        let cfg = threesigma_simtest::CrashConfig {
            total_jobs: args.parse_or("crash-jobs", defaults.total_jobs)?,
            kill_points: args.parse_or("kill-points", defaults.kill_points)?,
            seed: args.parse_or("seed", defaults.seed)?,
        };
        return threesigma_simtest::run_crash_campaign(&cfg)
            .map(|(report, _)| report)
            .map_err(CliError::Failed);
    }
    let mut overrides = threesigma_simtest::SeedOverrides::default();
    if args.get("max-retries").is_some() {
        overrides.max_retries = Some(args.parse_or("max-retries", 0u32)?);
    }
    if let Some(raw) = args.get("cycle-budget-ms") {
        let ms: f64 = raw
            .parse()
            .ok()
            .filter(|ms: &f64| ms.is_finite() && *ms > 0.0)
            .ok_or_else(|| CliError::BadValue {
                option: "cycle-budget-ms".into(),
                value: raw.into(),
                expected: "a positive number of milliseconds",
            })?;
        overrides.cycle_budget_ms = Some(ms);
    }
    if let Some(raw) = args.get("solver-tier") {
        overrides.solver_tier = Some(parse_solver_tier(raw)?);
    }
    if let Some(raw) = args.get("seed") {
        let seed: u64 = raw.parse().map_err(|_| CliError::BadValue {
            option: "seed".into(),
            value: raw.into(),
            expected: "a u64 seed",
        })?;
        let report = threesigma_simtest::run_seed_with(seed, overrides);
        let rendered = report.render();
        return if report.passed() {
            Ok(rendered)
        } else {
            Err(CliError::Failed(format!(
                "FAILING SEED: {seed}\n{rendered}"
            )))
        };
    }
    let seeds: Vec<u64> = if args.get("iters").is_some() {
        let iters: u64 = args.parse_or("iters", 10)?;
        let start: u64 = args.parse_or("start-seed", 1)?;
        (start..start.saturating_add(iters)).collect()
    } else {
        threesigma_simtest::corpus_seeds()
    };
    let mut out = String::new();
    for seed in seeds {
        let report = threesigma_simtest::run_seed_with(seed, overrides);
        if !report.passed() {
            return Err(CliError::Failed(format!(
                "FAILING SEED: {seed}\nreplay with: threesigma simtest --seed {seed}\n{}",
                report.render()
            )));
        }
        out.push_str(&format!(
            "seed {seed:>4} {:<16} jobs={:<3} faults={} PASS\n",
            report.profile, report.jobs, report.faults
        ));
    }
    out.push_str("all seeds passed\n");
    Ok(out)
}

/// `metrics` — one instrumented run, exported three ways.
///
/// Runs the requested scheduler with an enabled [`Recorder`] and a
/// [`CycleTraceWriter`], then prints the Prometheus-style text exposition.
/// `--json FILE` additionally writes the byte-stable JSON dump (wall-clock
/// timers excluded, so the same trace + seed reproduces the file
/// byte-for-byte); `--trace-out FILE` writes the per-cycle JSON-lines trace.
pub(crate) fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    let trace = load_or_generate(args)?;
    let kind = parse_scheduler(args.get_or("scheduler", "3sigma"))?;
    let exp = experiment(args)?;
    let recorder = Recorder::enabled();
    let mut writer = CycleTraceWriter::new().with_recorder(&recorder);
    let result = run_observed(kind, &trace, &exp, &recorder, &mut writer)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let snapshot = recorder.snapshot();
    let text = snapshot.to_prometheus();
    // Self-check: the exposition we emit must round-trip through our own
    // parser (the same check CI applies to the simtest artifact).
    parse_prometheus(&text)
        .map_err(|e| CliError::Failed(format!("internal error: exposition does not parse: {e}")))?;
    if let Some(path) = args.get("json") {
        std::fs::write(path, snapshot.to_stable_json()).map_err(|e| CliError::Io(e.to_string()))?;
    }
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, writer.to_jsonl()).map_err(|e| CliError::Io(e.to_string()))?;
    }
    let mut out = text;
    out.push_str(&format!(
        "# cycles traced: {}\n# {}\n",
        writer.lines().len(),
        metrics_line(kind, &result.metrics).trim_end(),
    ));
    Ok(out)
}

/// Flags read by [`workload_config`].
const WORKLOAD: &[&str] = &[
    "env",
    "hours",
    "seed",
    "load",
    "jobs-per-hour",
    "slack",
    "pretrain",
];

/// Flags read by [`load_or_generate`].
const TRACE: &[&str] = &["trace"];

/// Flags read by [`experiment`].
const EXPERIMENT: &[&str] = &[
    "cycle",
    "rc",
    "cycle-budget-ms",
    "max-retries",
    "solver-tier",
];

/// One subcommand: its name, every `--flag` it reads (options and switches,
/// grouped by the function that reads them) and its implementation.
struct Subcommand {
    name: &'static str,
    flags: &'static [&'static [&'static str]],
    run: fn(&Args) -> Result<String, CliError>,
}

/// Every subcommand. [`dispatch`] refuses a flag that is not listed here,
/// and a test holds each list equal to the subcommand's [`USAGE`] entry.
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "generate",
        flags: &[WORKLOAD, &["out"]],
        run: cmd_generate,
    },
    Subcommand {
        name: "run",
        flags: &[TRACE, WORKLOAD, EXPERIMENT, &["scheduler", "out"]],
        run: cmd_run,
    },
    Subcommand {
        name: "compare",
        flags: &[TRACE, WORKLOAD, EXPERIMENT, &["ablations"]],
        run: cmd_compare,
    },
    Subcommand {
        name: "analyze",
        flags: &[&["trace", "env", "jobs", "seed"]],
        run: cmd_analyze,
    },
    Subcommand {
        name: "simtest",
        flags: &[&[
            "seed",
            "iters",
            "start-seed",
            "cycle-budget-ms",
            "max-retries",
            "solver-tier",
            "crash",
            "crash-jobs",
            "kill-points",
        ]],
        run: cmd_simtest,
    },
    Subcommand {
        name: "metrics",
        flags: &[
            TRACE,
            WORKLOAD,
            EXPERIMENT,
            &["scheduler", "json", "trace-out"],
        ],
        run: cmd_metrics,
    },
    Subcommand {
        name: "serve",
        flags: &[&[
            "input",
            "listen",
            "racks",
            "nodes-per-rack",
            "cycle",
            "retention",
            "max-retries",
            "data-dir",
            "snapshot-every-jobs",
            "no-fsync",
            "max-queue",
            "tenant-quota",
            "quarantine",
            "metrics-json",
            "summary-json",
        ]],
        run: crate::serve::cmd_serve,
    },
    Subcommand {
        name: "help",
        flags: &[],
        run: |_| Ok(USAGE.to_owned()),
    },
];

/// Dispatches a parsed command line; returns the text to print. A flag the
/// subcommand does not read is an error before any work starts.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == args.command)
        .ok_or_else(|| CliError::UnknownCommand(args.command.clone()))?;
    if let Some(option) = args
        .flags()
        .find(|f| !sub.flags.iter().any(|group| group.contains(f)))
    {
        return Err(CliError::UnknownOption {
            command: args.command.clone(),
            option: option.to_owned(),
        });
    }
    (sub.run)(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("threesigma_cli_{name}_{}.json", std::process::id()))
    }

    #[test]
    fn help_prints_usage() {
        let args = Args::parse(["help"]).unwrap();
        assert!(dispatch(&args).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let args = Args::parse(["frobnicate"]).unwrap();
        assert!(matches!(
            dispatch(&args).unwrap_err(),
            CliError::UnknownCommand(_)
        ));
    }

    #[test]
    fn generate_then_run_roundtrip() {
        let path = tmp("roundtrip");
        let gen = Args::parse([
            "generate",
            "--hours",
            "0.1",
            "--pretrain",
            "50",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let msg = dispatch(&gen).unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let run = Args::parse([
            "run",
            "--trace",
            path.to_str().unwrap(),
            "--scheduler",
            "prio",
            "--cycle",
            "30",
        ])
        .unwrap();
        let out = dispatch(&run).unwrap();
        assert!(out.contains("Prio"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_rejects_unknown_scheduler() {
        let args = Args::parse(["run", "--env", "google", "--scheduler", "magic"]).unwrap();
        assert!(matches!(
            dispatch(&args).unwrap_err(),
            CliError::BadValue { .. }
        ));
    }

    #[test]
    fn analyze_reports_error_profile() {
        let args = Args::parse(["analyze", "--env", "google", "--jobs", "800"]).unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("off by ≥2x"), "{out}");
        assert!(out.contains("percentiles"), "{out}");
    }

    #[test]
    fn simtest_rejects_bad_seed() {
        let args = Args::parse(["simtest", "--seed", "banana"]).unwrap();
        assert!(matches!(
            dispatch(&args).unwrap_err(),
            CliError::BadValue { .. }
        ));
    }

    #[test]
    fn unread_flags_are_rejected_before_any_work() {
        // `--shards` was removed with the decide-stage fan-out; it and any
        // typo must fail loudly instead of running with defaults.
        for (argv, option) in [
            (vec!["simtest", "--seed", "1", "--shards", "2"], "shards"),
            (vec!["run", "--env", "google", "--shards", "2"], "shards"),
            (vec!["simtest", "--seed", "1", "--bogus"], "bogus"),
            (
                vec!["run", "--env", "google", "--no-incrementl"],
                "no-incrementl",
            ),
            (vec!["analyze", "--hours", "2"], "hours"),
            (vec!["help", "--verbose"], "verbose"),
        ] {
            let args = Args::parse(argv.clone()).unwrap();
            let err = dispatch(&args).unwrap_err();
            assert_eq!(
                err,
                CliError::UnknownOption {
                    command: argv[0].to_owned(),
                    option: option.to_owned(),
                },
                "{argv:?}"
            );
            assert!(err.to_string().contains("unknown option"), "{err}");
        }
    }

    /// The `--flag` names in `text`, without the dashes.
    fn flags_in(text: &str) -> std::collections::BTreeSet<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn accepted_flags_equal_the_help_text() {
        // The synopsis block: one entry per subcommand, continuation lines
        // indented further.
        let synopsis = USAGE
            .split_once("USAGE:\n")
            .and_then(|(_, rest)| rest.split_once("\n\n"))
            .expect("USAGE has a synopsis block")
            .0;
        let entries: Vec<&str> = synopsis.split("  threesigma ").skip(1).collect();
        assert_eq!(entries.len(), SUBCOMMANDS.len());
        for (entry, sub) in entries.iter().zip(SUBCOMMANDS) {
            assert_eq!(entry.split_whitespace().next(), Some(sub.name));
            let accepted: std::collections::BTreeSet<&str> =
                sub.flags.iter().flat_map(|g| g.iter().copied()).collect();
            assert_eq!(flags_in(entry), accepted, "`{}` help vs table", sub.name);
        }
        // No section below the synopsis documents a flag nothing accepts.
        for flag in flags_in(USAGE) {
            assert!(
                SUBCOMMANDS
                    .iter()
                    .any(|s| s.flags.iter().any(|g| g.contains(&flag))),
                "--{flag} is documented but no subcommand accepts it"
            );
        }
    }

    #[test]
    fn solver_tier_must_be_zero_one_or_two() {
        for argv in [
            ["simtest", "--seed", "1", "--solver-tier", "3"],
            ["run", "--env", "google", "--solver-tier", "greedy"],
        ] {
            let args = Args::parse(argv).unwrap();
            let err = dispatch(&args).unwrap_err();
            assert!(matches!(err, CliError::BadValue { .. }), "{argv:?}: {err}");
        }
    }

    #[test]
    fn bad_env_is_rejected() {
        let args = Args::parse(["analyze", "--env", "mars"]).unwrap();
        assert!(matches!(
            dispatch(&args).unwrap_err(),
            CliError::BadValue { .. }
        ));
    }

    #[test]
    fn metrics_emits_parseable_prometheus_text() {
        let args = Args::parse([
            "metrics", "--env", "google", "--hours", "0.05", "--seed", "7", "--cycle", "30",
        ])
        .unwrap();
        let out = dispatch(&args).unwrap();
        let parsed = parse_prometheus(&out).unwrap();
        assert!(
            parsed.iter().any(|s| s.name == "engine_cycles_total"),
            "{out}"
        );
        assert!(
            parsed
                .iter()
                .any(|s| s.name == "sched_options_enumerated_total"),
            "{out}"
        );
        assert!(out.contains("# cycles traced:"), "{out}");
    }

    #[test]
    fn metrics_json_dump_is_byte_stable_for_a_fixed_seed() {
        let json_a = tmp("metrics_a");
        let json_b = tmp("metrics_b");
        let trace_out = tmp("metrics_trace");
        let invoke = |json: &std::path::Path, trace: Option<&std::path::Path>| {
            let json = json.to_str().unwrap().to_owned();
            let mut argv = vec![
                "metrics".to_owned(),
                "--env".into(),
                "google".into(),
                "--hours".into(),
                "0.05".into(),
                "--seed".into(),
                "42".into(),
                "--cycle".into(),
                "30".into(),
                "--json".into(),
                json,
            ];
            if let Some(t) = trace {
                argv.push("--trace-out".into());
                argv.push(t.to_str().unwrap().to_owned());
            }
            dispatch(&Args::parse(argv).unwrap()).unwrap()
        };
        invoke(&json_a, Some(&trace_out));
        invoke(&json_b, None);
        let a = std::fs::read(&json_a).unwrap();
        let b = std::fs::read(&json_b).unwrap();
        assert_eq!(a, b, "stable JSON dump must be byte-identical per seed");
        let trace = std::fs::read_to_string(&trace_out).unwrap();
        let first = trace.lines().next().expect("at least one cycle");
        assert!(first.starts_with("{\"cycle\":"), "{first}");
        for p in [&json_a, &json_b, &trace_out] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn missing_trace_file_is_io_error() {
        let args = Args::parse(["run", "--trace", "/nonexistent/t.json"]).unwrap();
        assert!(matches!(dispatch(&args).unwrap_err(), CliError::Io(_)));
    }
}
