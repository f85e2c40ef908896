//! Processes, ports and scratch directories: everything the benchmark
//! starts is stopped, waited for and removed on every exit path.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Root of the checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
        .to_path_buf()
}

/// `benchmark/out`: traces and scratch data (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A point in time after which a wait gives up.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// `limit` from now.
    pub fn after(limit: Duration) -> Self {
        Self(Instant::now() + limit)
    }

    /// An error naming `what` ran out of time, once it has.
    pub fn check(&self, what: &str) -> Result<(), String> {
        if Instant::now() < self.0 {
            Ok(())
        } else {
            Err(format!("timed out: {what}"))
        }
    }
}

/// A scratch directory under `benchmark/out`, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `benchmark/out/tmp-<pid>-<n>-<label>`.
    pub fn new(label: &str) -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory, as a string for a command line.
    pub fn join(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) and CPU time of a finished or running process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Peak resident set size in MB.
    pub peak_rss_mb: f64,
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
}

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s.
const TICKS_PER_SECOND: f64 = 100.0;

impl Usage {
    /// Usage of this process so far, from `/proc/self`.
    pub fn of_self() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        Self::parse(&status, &stat)
    }

    fn parse(status: &str, stat: &str) -> Self {
        let hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line.
        let ticks: f64 = stat
            .rsplit_once(')')
            .map(|(_, rest)| {
                rest.split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|f| f.parse::<f64>().ok())
                    .sum()
            })
            .unwrap_or(0.0);
        Self {
            peak_rss_mb: hwm_kb / 1024.0,
            cpu_s: ticks / TICKS_PER_SECOND,
        }
    }

    /// The line a serve child prints about itself when it is done.
    pub fn to_line(self) -> String {
        format!(
            "bench-usage peak_rss_mb={} cpu_s={}",
            self.peak_rss_mb, self.cpu_s
        )
    }

    /// Finds [`Self::to_line`] in a child's standard error.
    pub fn from_stderr(text: &str) -> Option<Self> {
        let line = text.lines().rev().find(|l| l.starts_with("bench-usage "))?;
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|f| f.strip_prefix(key))
                .and_then(|v| v.parse::<f64>().ok())
        };
        Some(Self {
            peak_rss_mb: field("peak_rss_mb=")?,
            cpu_s: field("cpu_s=")?,
        })
    }
}

/// A free TCP port on the loopback interface: bound as port 0, read back,
/// and released for the child to bind.
pub fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind port 0: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("local_addr: {e}"))
}

/// A `threesigma <args>` child: this same executable re-run in `__serve`
/// mode, which hands `args` to `threesigma_cli::dispatch` exactly as
/// `src/bin/threesigma.rs` does. Killed and waited for on drop.
#[derive(Debug)]
pub struct CliChild {
    child: Child,
    /// Held open for the child's lifetime: the child exits when it reads
    /// end-of-file here, so it cannot outlive a benchmark that was killed.
    _stdin: Option<ChildStdin>,
    stderr_path: PathBuf,
    spawned: Instant,
}

impl CliChild {
    /// Starts `threesigma <args>`; its standard error goes to a file in `dir`.
    pub fn spawn(args: &[String], dir: &TempDir) -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let stderr_path = dir.path().join(format!("child-{n}.stderr"));
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .arg("__serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn serve child: {e}"))?;
        let stdin = child.stdin.take();
        Ok(Self {
            child,
            _stdin: stdin,
            stderr_path,
            spawned,
        })
    }

    /// When the child was started.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// Connects to the child's listener, polling every millisecond: the
    /// listener binds only once start-up (and recovery) is complete.
    pub fn connect(&mut self, port: u16, deadline: Deadline) -> Result<TcpStream, String> {
        loop {
            if let Ok(conn) = TcpStream::connect(("127.0.0.1", port)) {
                return Ok(conn);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("serve child exited before listening: {status}"));
            }
            deadline.check("serve child never listened")?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits for the child to exit on its own; reports its resource usage.
    pub fn finish(mut self, deadline: Deadline) -> Result<Usage, String> {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut text = String::new();
                    if let Ok(mut f) = std::fs::File::open(&self.stderr_path) {
                        let _ = f.read_to_string(&mut text);
                    }
                    if !status.success() {
                        return Err(format!("serve child failed ({status}): {}", text.trim()));
                    }
                    return Usage::from_stderr(&text)
                        .ok_or_else(|| "serve child reported no usage line".to_owned());
                }
                Ok(None) => {
                    deadline.check("serve child did not exit")?;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("wait for serve child: {e}")),
            }
        }
    }
}

impl Drop for CliChild {
    fn drop(&mut self) {
        // No-ops after `finish`: the child is already reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Body of `__serve` mode: run the CLI command, then report own usage.
pub fn serve_child_main(args: Vec<String>) -> std::process::ExitCode {
    // End-of-file on stdin means the benchmark that started this process is
    // gone (it never writes there): leave instead of listening forever.
    std::thread::spawn(|| {
        let mut byte = [0u8; 1];
        loop {
            if !matches!(std::io::stdin().read(&mut byte), Ok(n) if n > 0) {
                std::process::exit(3);
            }
        }
    });
    let result = threesigma_cli::Args::parse(args).and_then(|a| threesigma_cli::dispatch(&a));
    eprintln!("{}", Usage::of_self().to_line());
    match result {
        Ok(text) => {
            println!("{text}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_parses_procfs_and_round_trips_through_stderr() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        let stat = "1234 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0";
        let u = Usage::parse(status, stat);
        assert_eq!(
            u,
            Usage {
                peak_rss_mb: 2.0,
                cpu_s: 2.0
            }
        );
        let text = format!("serve: warning: x\n{}\n", u.to_line());
        assert_eq!(Usage::from_stderr(&text), Some(u));
        assert_eq!(Usage::from_stderr("nothing"), None);
        assert!(Usage::of_self().peak_rss_mb > 0.0);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let a = TempDir::new("t").unwrap();
        let b = TempDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
    }
}
