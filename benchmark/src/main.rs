//! The repo benchmark: four workloads, end-to-end metrics measured with
//! tracing off, and a traced run that attributes time to layers.
//!
//! ```text
//! threesigma-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! threesigma-benchmark [--seed <n>] [--seconds <s>] [--repeat <r>] [--quick]
//! ```
//!
//! The first form runs one workload and prints one JSON object as the last
//! line of its standard output (the contract `BENCHMARK.json` describes).
//! The second runs every workload, untraced and traced, each in a child
//! process of its own, and prints every metric by name with its unit.

mod batch;
mod inputs;
mod metrics;
mod proc;
mod serve;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use inputs::{BatchKind, Scale};
use metrics::RunResult;

/// What one `--workload` run was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Full size, or the `--quick` smoke size.
    pub scale: Scale,
}

/// Writes a traced run's spans to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(opts: &RunOpts, tracer: &trace::Tracer) -> Result<(), String> {
    let dir = proc::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", opts.workload));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_workload(opts: &RunOpts) -> Result<RunResult, String> {
    match opts.workload.as_str() {
        "batch-solver" => batch::run(BatchKind::Solver, opts),
        "batch-compile" => batch::run(BatchKind::Compile, opts),
        "serve-tcp" => serve::run_tcp(opts),
        "serve-recover" => serve::run_recover(opts),
        other => Err(format!(
            "unknown workload `{other}`; one of {:?}",
            metrics::WORKLOADS
        )),
    }
}

/// `--key value` options and bare `--switch`es.
struct Cli(Vec<String>);

impl Cli {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("{key} {text}: not a number")),
            None => Ok(default),
        }
    }

    fn switch(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "__serve") {
        return proc::serve_child_main(args.split_off(1));
    }
    let cli = Cli(args);
    let outcome = (|| -> Result<bool, String> {
        let scale = if cli.switch("--quick") {
            Scale::Quick
        } else {
            Scale::Full
        };
        let seed = cli.number("--seed", suite::DEFAULT_SEED)?;
        let Some(workload) = cli.value("--workload") else {
            let seconds = cli.number(
                "--seconds",
                if scale == Scale::Full {
                    suite::RUN_SECONDS
                } else {
                    1.0
                },
            )?;
            return suite::run(seed, seconds, cli.number("--repeat", 1)?, scale);
        };
        let opts = RunOpts {
            workload: workload.to_owned(),
            seed,
            seconds: cli.number("--seconds", suite::RUN_SECONDS)?,
            trace: cli.number("--trace", 0u8)? != 0,
            scale,
        };
        let result = run_workload(&opts)?;
        for v in &result.violations {
            eprintln!("check failed: {v}");
        }
        println!("{}", result.to_json(opts.trace));
        Ok(result.violations.is_empty() && result.failed == 0)
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
