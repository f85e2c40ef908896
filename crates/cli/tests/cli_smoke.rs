//! Smoke tests driving the compiled `threesigma` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_threesigma"))
}

#[test]
fn help_succeeds_and_mentions_subcommands() {
    let out = bin().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for word in ["generate", "run", "compare", "analyze"] {
        assert!(text.contains(word), "usage should mention {word}");
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_scheduler_fails_with_message() {
    let out = bin()
        .args([
            "run",
            "--env",
            "google",
            "--scheduler",
            "wizard",
            "--hours",
            "0.05",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("scheduler"));
}

#[test]
fn generate_run_analyze_pipeline() {
    let dir = std::env::temp_dir().join(format!("threesigma_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");

    let out = bin()
        .args([
            "generate",
            "--env",
            "google",
            "--hours",
            "0.1",
            "--pretrain",
            "100",
            "--out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = bin()
        .args([
            "run",
            "--trace",
            trace.to_str().unwrap(),
            "--scheduler",
            "3sigma",
            "--cycle",
            "30",
            "--out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("3Sigma"));
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert!(json.get("outcomes").is_some());

    let out = bin()
        .args(["analyze", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("percentiles"));

    let _ = std::fs::remove_dir_all(dir);
}

/// A trace job with preferred racks and a zero or negative off-preferred
/// slowdown is a typed ingest error (exit 1), not a panic in the scheduler's
/// runtime scaling.
#[test]
fn a_non_positive_slowdown_in_a_trace_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("threesigma_slowdown_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let out = bin()
        .args([
            "generate",
            "--env",
            "google",
            "--hours",
            "0.2",
            "--seed",
            "3",
            "--out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    for slowdown in [0.0, -1.0] {
        let mut edited: threesigma_workload::Trace = serde_json::from_str(&text).unwrap();
        let job = edited
            .jobs
            .iter_mut()
            .find(|j| j.preferred.is_some())
            .expect("a job with preferred racks");
        job.nonpreferred_slowdown = slowdown;
        let id = job.id.0;
        let bad = dir.join(format!("bad_{slowdown}.json"));
        std::fs::write(&bad, serde_json::to_string(&edited).unwrap()).unwrap();

        let out = bin()
            .args(["run", "--trace", bad.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "slowdown {slowdown}: {stderr}");
        assert!(
            stderr.contains(&format!("job JobId({id}) has a malformed spec"))
                && stderr.contains("slowdown"),
            "slowdown {slowdown}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A trace job whose `duration` exceeds `MAX_DURATION` (30 days) is a
/// typed ingest error at once (exit 1), where it used to keep `run`
/// cycling through simulated decades; `serve` already refused the value on
/// the wire.
#[test]
fn an_overlong_duration_in_a_trace_is_a_typed_error_at_once() {
    let dir = std::env::temp_dir().join(format!("threesigma_duration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let out = bin()
        .args([
            "generate", "--env", "google", "--hours", "0.2", "--seed", "3",
        ])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut edited: threesigma_workload::Trace =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let job = edited.jobs.last_mut().expect("a job");
    job.duration = 1e9;
    let id = job.id.0;
    let bad = dir.join("bad.json");
    std::fs::write(&bad, serde_json::to_string(&edited).unwrap()).unwrap();

    let mut child = bin()
        .args(["run", "--trace", bad.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if start.elapsed() > std::time::Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`run` still going after 60 s on a 1e9 s duration");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("job JobId({id}) has a malformed spec"))
            && stderr.contains("30 days"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; covered in release by the CI simtest job"
)]
fn simtest_replay_is_byte_identical() {
    let run = || {
        bin()
            .args(["simtest", "--seed", "3"])
            .output()
            .expect("binary runs")
    };
    let (a, b) = (run(), run());
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "simtest replay must be byte-identical");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("digest "), "{text}");
    assert!(text.contains("verdict PASS"), "{text}");
}
