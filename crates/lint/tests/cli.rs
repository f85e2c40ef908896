//! Drives the built `threesigma-lint` binary end-to-end against synthetic
//! workspaces: exit 0 on a clean tree, exit 1 for each bad fixture dropped
//! into scope (and for stale allowlist entries), exit 2 on usage errors.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_threesigma-lint");

/// A decision-path root that calls every function the reachability-scoped
/// fixtures define, so a bad fixture is reachable wherever it is dropped.
const ROOT: &str = "impl Scheduler for Root { fn schedule(&mut self) { \
    self.decide(); decide(); pick(); extract(); cycle_budget_exceeded(); value_all(); } }\n";

/// A throwaway workspace root with a decision-path root and the leaf
/// manifests the layering rule always reads; removed on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(tag: &str) -> Self {
        let root = Self::rootless(tag);
        root.write("crates/core/src/root.rs", ROOT);
        root
    }

    fn rootless(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("threesigma-lint-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let root = TempRoot(dir);
        for leaf in ["histogram", "milp", "obs"] {
            root.write(
                &format!("crates/{leaf}/Cargo.toml"),
                "[package]\nname = \"leaf\"\n\n[dependencies]\n",
            );
        }
        root
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().expect("rel has a parent")).expect("mkdir");
        fs::write(path, contents).expect("write fixture");
    }

    fn check(&self) -> (i32, String) {
        self.check_args(&[])
    }

    fn check_args(&self, extra: &[&str]) -> (i32, String) {
        let out = Command::new(BIN)
            .args(["check", "--root"])
            .arg(&self.0)
            .args(extra)
            .output()
            .expect("binary runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn clean_workspace_exits_zero() {
    let root = TempRoot::new("clean");
    root.write(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/float_ord_good.rs"),
    );
    root.write(
        "crates/predict/src/fx.rs",
        include_str!("fixtures/thread_rng_good.rs"),
    );
    root.write(
        "crates/milp/src/fx.rs",
        include_str!("fixtures/thread_scope_good.rs"),
    );
    let (code, stdout) = root.check();
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn each_bad_fixture_exits_nonzero() {
    let cases: [(&str, &str, &str, &str); 10] = [
        (
            "hash-iter",
            include_str!("fixtures/hash_iter_bad.rs"),
            "crates/core/src/sched/fx.rs",
            "hash_iter",
        ),
        (
            "time-source",
            include_str!("fixtures/time_source_bad.rs"),
            "crates/core/src/sched/fx.rs",
            "time_source",
        ),
        (
            "thread-rng",
            include_str!("fixtures/thread_rng_bad.rs"),
            "crates/predict/src/fx.rs",
            "thread_rng",
        ),
        (
            "thread-in-decision-scope",
            include_str!("fixtures/thread_scope_bad.rs"),
            "crates/core/src/sched/fx.rs",
            "thread_scope",
        ),
        (
            "panic",
            include_str!("fixtures/panic_bad.rs"),
            "crates/cluster/src/fx.rs",
            "panic",
        ),
        (
            "float-ord",
            include_str!("fixtures/float_ord_bad.rs"),
            "crates/core/src/sched/fx.rs",
            "float_ord",
        ),
        (
            "layering",
            include_str!("fixtures/layering_bad.toml"),
            "crates/histogram/Cargo.toml",
            "layering",
        ),
        (
            "snapshot-exhaustiveness",
            include_str!("fixtures/snapshot_pair_bad.rs"),
            "crates/predict/src/predictor.rs",
            "snapshot_pair",
        ),
        (
            "wal-ack-ordering",
            include_str!("fixtures/wal_ack_bad.rs"),
            "crates/cli/src/serve.rs",
            "wal_ack",
        ),
        (
            "metrics-consistency",
            include_str!("fixtures/metrics_bad.rs"),
            "crates/obs/src/fx.rs",
            "metrics",
        ),
    ];
    for (rule, fixture, rel, tag) in cases {
        let root = TempRoot::new(tag);
        root.write(rel, fixture);
        let (code, stdout) = root.check();
        assert_eq!(
            code, 1,
            "fixture {tag} should fail the check; stdout:\n{stdout}"
        );
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "fixture {tag} should report rule {rule}; stdout:\n{stdout}"
        );
    }
}

#[test]
fn good_protocol_fixtures_exit_zero() {
    let root = TempRoot::new("protocol-good");
    root.write(
        "crates/predict/src/predictor.rs",
        include_str!("fixtures/snapshot_pair_good.rs"),
    );
    root.write(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_ack_good.rs"),
    );
    root.write(
        "crates/obs/src/fx.rs",
        include_str!("fixtures/metrics_good.rs"),
    );
    let (code, stdout) = root.check();
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("no violations"), "{stdout}");
}

#[test]
fn flush_ordering_fixture_pair_sets_the_exit_code() {
    let bad = TempRoot::new("flush-bad");
    bad.write(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_flush_bad.rs"),
    );
    let (code, stdout) = bad.check();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("[wal-ack-ordering]"), "{stdout}");
    assert!(stdout.contains("`.flush(..)`"), "{stdout}");

    let good = TempRoot::new("flush-good");
    good.write(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_flush_good.rs"),
    );
    let (code, stdout) = good.check();
    assert_eq!(code, 0, "stdout:\n{stdout}");
}

#[test]
fn json_format_renders_findings_and_keeps_exit_codes() {
    let root = TempRoot::new("json");
    root.write(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_ack_bad.rs"),
    );
    let (code, stdout) = root.check_args(&["--format", "json"]);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(
        stdout.starts_with('{') && stdout.ends_with("}\n"),
        "{stdout}"
    );
    assert!(stdout.contains("\"clean\": false"), "{stdout}");
    assert!(
        stdout.contains("\"rule\": \"wal-ack-ordering\""),
        "{stdout}"
    );

    let clean = TempRoot::new("json-clean");
    clean.write(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_ack_good.rs"),
    );
    let (code, stdout) = clean.check_args(&["--format", "json"]);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("\"clean\": true"), "{stdout}");
    assert!(stdout.contains("\"violations\": []"), "{stdout}");
}

#[test]
fn stale_exclusion_entry_exits_nonzero() {
    let root = TempRoot::new("stale-exclusion");
    root.write(
        "crates/lint/snapshot_exclusions.txt",
        "snapshot-exhaustiveness | Predictor | vanished_field | was audited once\n",
    );
    let (code, stdout) = root.check();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("[stale-exclusion]"), "{stdout}");
}

#[test]
fn stale_allowlist_entry_exits_nonzero() {
    let root = TempRoot::new("stale");
    root.write(
        "crates/lint/panic_allowlist.txt",
        "panic | crates/cluster/src/gone.rs | vanished_fn | unwrap()\n",
    );
    let (code, stdout) = root.check();
    assert_eq!(code, 1, "stdout:\n{stdout}");
    assert!(stdout.contains("[stale-allowlist]"), "{stdout}");
}

#[test]
fn a_tree_without_a_decision_root_exits_two() {
    let root = TempRoot::rootless("rootless");
    root.write(
        "crates/cluster/src/fx.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    let out = Command::new(BIN)
        .args(["check", "--root"])
        .arg(&root.0)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no decision-path root"), "{stderr}");
}

#[test]
fn usage_errors_exit_two() {
    let no_command = Command::new(BIN).output().expect("binary runs");
    assert_eq!(no_command.status.code(), Some(2));
    let bad_flag = Command::new(BIN)
        .args(["check", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(bad_flag.status.code(), Some(2));
}
