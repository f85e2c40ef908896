//! The whole benchmark in one command: every workload, untraced then
//! traced, each in a child process of its own (so one workload's memory and
//! caches are never inherited by the next), with every metric printed by
//! name and unit, and the `--repeat` noise self-check.

use std::process::{Command, Stdio};
use std::time::Duration;

use serde::Value;

use crate::inputs::Scale;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::proc::{Deadline, TempDir};
use crate::stats::{median, quartile_spread};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seconds one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: f64 = 16.0;
/// Hard limit on one workload run, set-up included.
const WORKLOAD_LIMIT: Duration = Duration::from_secs(170);

/// One child run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

impl Outcome {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }
}

/// Runs one workload in a child of this executable and parses the JSON
/// object on the last line of its standard output.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scratch: &TempDir,
) -> Result<Outcome, String> {
    let stdout_path = scratch.path().join("stdout.txt");
    let stdout = std::fs::File::create(&stdout_path)
        .map_err(|e| format!("create {}: {e}", stdout_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(stdout);
    if scale == Scale::Quick {
        command.arg("--quick");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let deadline = Deadline::after(WORKLOAD_LIMIT);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if deadline.check("").is_ok() => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                // Its serve children notice the closed pipe and leave too.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{workload}: no result within {} s, killed",
                    WORKLOAD_LIMIT.as_secs()
                ));
            }
            Err(e) => return Err(format!("wait for {workload}: {e}")),
        }
    };
    let text = std::fs::read_to_string(&stdout_path)
        .map_err(|e| format!("read {}: {e}", stdout_path.display()))?;
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result ({status})"))?;
    let json: Value = serde_json::from_str(line)
        .map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    let field = |key: &str| {
        json.get(key)
            .ok_or_else(|| format!("{workload}: result lacks `{key}`"))
    };
    Ok(Outcome {
        correct: field("correct")?.as_bool() == Some(true) && status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics: field("metrics")?.clone(),
    })
}

/// Runs every workload `repeat` times (set `r` under seed `seed + r`, as the
/// driver varies seeds between its runs). Returns whether every output
/// check passed and, for `repeat > 1`, every spread is within half its bound.
pub fn run(seed: u64, seconds: f64, repeat: u32, scale: Scale) -> Result<bool, String> {
    let scratch = TempDir::new("suite")?;
    let mut ok = true;
    if scale == Scale::Quick {
        println!("QUICK MODE: smoke sizes; these numbers are not comparable with any other run.\n");
    }
    // samples[workload][metric] = one value per repeat.
    let mut samples = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for r in 0..repeat {
        let seed = seed + u64::from(r);
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let plain = child_run(workload, seed, seconds, false, scale, &scratch)?;
            let traced = child_run(workload, seed, seconds, true, scale, &scratch)?;
            ok &= plain.correct && traced.correct;
            println!("## {workload} — seed {seed}, {seconds} s\n");
            println!(
                "output checks: {}; {} operations attempted, {} failed\n",
                if plain.correct && traced.correct {
                    "pass"
                } else {
                    "FAIL"
                },
                plain.attempted,
                plain.failed + traced.failed
            );
            println!("| end-to-end metric (tracing off) | value | unit | better | bound |");
            println!("|---|---:|---|---|---:|");
            for (m, metric) in END_TO_END.iter().enumerate() {
                let value = plain.value(metric.name);
                samples[w][m].push(value);
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                println!(
                    "| `{}` | {value:.4} | {} | {better} | {:.0} % |",
                    metric.name,
                    metric.unit,
                    metric.bound * 100.0
                );
            }
            println!("\n| per-layer metric (traced run) | value | unit |");
            println!("|---|---:|---|");
            for (name, unit, _) in PER_LAYER {
                println!("| `{name}` | {:.4} | {unit} |", traced.value(name));
            }
            println!();
        }
    }
    if repeat > 1 {
        println!(
            "## Noise self-check — {repeat} sets, seeds {seed}–{}\n",
            seed + u64::from(repeat) - 1
        );
        println!("Spread is the distance between the first and third quartile as a share of the median; the check fails above half the bound.\n");
        println!("| workload | metric | min | median | max | spread | bound | spread ÷ bound |");
        println!("|---|---|---:|---:|---:|---:|---:|---:|");
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (m, metric) in END_TO_END.iter().enumerate() {
                let v = &samples[w][m];
                let spread = quartile_spread(v);
                let (min, max) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
                // `setup_s` has no spread limit of its own: the driver holds
                // it only to its median not getting worse.
                let within = spread <= metric.bound / 2.0 || metric.name == "setup_s";
                ok &= within;
                println!(
                    "| {workload} | `{}` | {min:.4} | {:.4} | {max:.4} | {:.1} % | {:.0} % | {:.2}{} |",
                    metric.name,
                    median(v),
                    spread * 100.0,
                    metric.bound * 100.0,
                    spread / metric.bound,
                    if within { "" } else { " FAIL" }
                );
            }
        }
        println!();
    }
    println!(
        "{}",
        if ok {
            "benchmark: all checks passed"
        } else {
            "benchmark: CHECKS FAILED"
        }
    );
    Ok(ok)
}
