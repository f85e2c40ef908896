//! CLI for the workspace linter: `cargo run -p threesigma-lint -- check`.
//!
//! Exit codes: 0 clean, 1 violations (or stale allowlist entries), 2 the
//! check itself failed (usage, I/O, or parse error).

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root(override_path: Option<&str>) -> PathBuf {
    match override_path {
        Some(p) => PathBuf::from(p),
        // crates/lint → workspace root is two levels up; this works both for
        // `cargo run -p threesigma-lint` (any cwd) and a copied binary.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from(".")),
    }
}

const USAGE: &str = "usage: threesigma-lint check [--root <workspace>] [--format human|json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root_override = None;
    let mut command = None;
    let mut format = "human";
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root_override = Some(p.as_str()),
                    None => {
                        eprintln!("--root requires a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("human") => format = "human",
                    Some("json") => format = "json",
                    _ => {
                        eprintln!("--format requires `human` or `json`");
                        return ExitCode::from(2);
                    }
                }
            }
            "check" if command.is_none() => command = Some("check"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if command != Some("check") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let root = workspace_root(root_override);
    match threesigma_lint::check_workspace(&root) {
        Ok(report) => {
            if format == "json" {
                print!("{}", threesigma_lint::render_json(&report));
                return if report.clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                };
            }
            if report.clean() {
                println!(
                    "threesigma-lint: {} files scanned, {} reachable fns, no violations",
                    report.files_scanned, report.reachable_fns
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    println!("{v}");
                }
                for e in &report.stale_allowlist {
                    println!(
                        "[stale-allowlist] {}:{}: entry `{e}` matches no site; remove it",
                        threesigma_lint::config::PANIC_ALLOWLIST_PATH,
                        e.line
                    );
                }
                for e in &report.stale_exclusions {
                    println!(
                        "[stale-exclusion] {}:{}: entry `{e}` matches no finding; remove it",
                        threesigma_lint::config::SNAPSHOT_EXCLUSIONS_PATH,
                        e.line
                    );
                }
                println!(
                    "threesigma-lint: {} violation(s), {} stale allowlist entr(ies), {} stale \
                     exclusion(s) across {} files",
                    report.violations.len(),
                    report.stale_allowlist.len(),
                    report.stale_exclusions.len(),
                    report.files_scanned
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("threesigma-lint: {e}");
            ExitCode::from(2)
        }
    }
}
