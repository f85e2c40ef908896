//! The two `threesigma serve` workloads, `serve-tcp` and `serve-recover`:
//! a real serve process (this executable re-run as the CLI) fed over one
//! TCP connection by one client thread, and restarted from a journal.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;
use threesigma::{EstimateSource, SchedConfig, ThreeSigmaScheduler};
use threesigma_cluster::wal::{decode_journal, recover_data_dir, replay};
use threesigma_cluster::{
    ClusterSpec, DataDir, ServeConfig, ServeSession, ServeSummary, Wal, WalRecord, WAL_MAGIC,
};
use threesigma_obs::Recorder;
use threesigma_predict::PredictorConfig;

use crate::batch::{ratio, scheduler_layers, StageSums, Timed};
use crate::inputs::{light_stream, LightJob, Scale};
use crate::metrics::RunResult;
use crate::proc::{free_port, CliChild, Deadline, TempDir, Usage};
use crate::stats::{median, median_percentile, percentile, sorted};
use crate::trace::{SpanId, Tracer};
use crate::RunOpts;

/// Lines in flight on the one connection `serve` accepts: 32 submitters
/// that each wait for their own ack before sending again (a closed loop).
const WINDOW: usize = 32;
/// Scheduling-cycle interval the serve children run with.
const CYCLE_S: f64 = 10.0;
/// No single serve child may take longer than this, start to exit.
const CHILD_LIMIT: Duration = Duration::from_secs(100);

/// What one closed-loop stream over a connection measured.
#[derive(Debug, Default)]
struct Streamed {
    /// Lines sent.
    sent: u64,
    /// Lines without an `accepted` ack carrying their own line number.
    failed: u64,
    /// Line written → its ack read, per accepted line.
    latencies_ms: Vec<f64>,
    /// First send → last ack.
    stream_s: f64,
}

/// Streams `lines` over `conn`, at most `window` unacknowledged at a time.
/// An ordinary client: `TCP_NODELAY` on its own socket and nothing else; it
/// does not work around how the server writes its responses.
fn stream(
    conn: &TcpStream,
    lines: &[LightJob],
    window: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    deadline: Deadline,
) -> Result<Streamed, String> {
    conn.set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| format!("clone socket: {e}"))?);
    let mut writer = conn;
    let mut sent_at: Vec<Instant> = Vec::with_capacity(lines.len());
    let mut out = Streamed::default();
    let mut send = |sent_at: &mut Vec<Instant>| -> Result<(), String> {
        let line = &lines[sent_at.len()].line;
        sent_at.push(Instant::now());
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send line: {e}"))
    };
    let start = Instant::now();
    let mut last_ack = start;
    while sent_at.len() < window.min(lines.len()) {
        send(&mut sent_at)?;
    }
    let mut ack = String::new();
    for line_no in 1..=lines.len() {
        deadline.check("ack stream")?;
        ack.clear();
        let n = reader
            .read_line(&mut ack)
            .map_err(|e| format!("read ack {line_no}: {e}"))?;
        if n == 0 {
            return Err(format!(
                "server closed the connection after {} acks",
                line_no - 1
            ));
        }
        last_ack = Instant::now();
        // Acks come back in line order on the one connection.
        let parsed: Option<Value> = serde_json::from_str(&ack).ok();
        let field = |key: &str| parsed.as_ref().and_then(|v| v.get(key));
        let accepted = field("status").and_then(Value::as_str) == Some("accepted")
            && field("line").and_then(Value::as_u64) == Some(line_no as u64);
        if accepted {
            out.latencies_ms
                .push((last_ack - sent_at[line_no - 1]).as_secs_f64() * 1e3);
        } else {
            out.failed += 1;
        }
        tracer.record("cli.serve.ack", sent_at[line_no - 1], last_ack, parent);
        if sent_at.len() < lines.len() {
            send(&mut sent_at)?;
        }
    }
    out.sent = lines.len() as u64;
    out.stream_s = (last_ack - start).as_secs_f64();
    sorted(&mut out.latencies_ms);
    Ok(out)
}

/// Where a serve child reads its jobs from.
enum Source<'a> {
    /// `--listen 127.0.0.1:<port>`.
    Tcp(u16),
    /// `--input <file>`.
    File(&'a str),
}

/// `serve` arguments. With a data directory every accepted job is journaled
/// and fsynced before its ack (the default; `--no-fsync` is never passed).
fn serve_args(source: &Source<'_>, data_dir: Option<&str>, summary: &str) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--cycle",
        &CYCLE_S.to_string(),
        "--summary-json",
        summary,
    ]
    .map(String::from)
    .to_vec();
    match source {
        Source::Tcp(port) => args.extend(["--listen".into(), format!("127.0.0.1:{port}")]),
        Source::File(path) => args.extend(["--input".into(), (*path).to_owned()]),
    }
    if let Some(dir) = data_dir {
        // No automatic snapshots: the journal carries the whole stream.
        args.extend(["--data-dir", dir, "--snapshot-every-jobs", "0"].map(String::from));
    }
    args
}

fn read_summary(path: &str) -> Result<ServeSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// One serve child fed over TCP, start to exit.
struct Session {
    /// Spawn → first successful connect (the listener binds only after
    /// start-up, which includes journal recovery).
    ready_s: f64,
    streamed: Streamed,
    summary: ServeSummary,
    usage: Usage,
}

fn tcp_session(
    scratch: &TempDir,
    data: &TempDir,
    lines: &[LightJob],
    window: usize,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let deadline = Deadline::after(CHILD_LIMIT);
    let data_dir = data.join("");
    let port = free_port()?;
    let summary_path = scratch.join("summary.json");
    let root = tracer.begin("bench.iteration", None);
    let span = tracer.begin("cli.serve.ready", Some(root));
    let mut child = CliChild::spawn(
        &serve_args(&Source::Tcp(port), Some(&data_dir), &summary_path),
        scratch,
    )?;
    let conn = child.connect(port, deadline)?;
    let ready_s = child.spawned().elapsed().as_secs_f64();
    tracer.end(span);
    let span = tracer.begin("cli.serve.stream", Some(root));
    let streamed = stream(&conn, lines, window, tracer, Some(span), deadline)?;
    tracer.end(span);
    // End of stream: the child drains its backlog, writes the summary and
    // the closing snapshot, and exits on its own.
    let span = tracer.begin("cli.serve.drain", Some(root));
    conn.shutdown(Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let usage = child.finish(deadline)?;
    tracer.end(span);
    tracer.end(root);
    Ok(Session {
        ready_s,
        streamed,
        summary: read_summary(&summary_path)?,
        usage,
    })
}

/// One serve child fed from a file, optionally journaling (with fsync) into
/// `data`; returns its wall time from spawn to exit, and its summary.
fn file_session(
    scratch: &TempDir,
    input: &str,
    data: Option<&TempDir>,
) -> Result<(f64, ServeSummary), String> {
    let summary_path = scratch.join("summary.json");
    let data_dir = data.map(|d| d.join(""));
    let start = Instant::now();
    let child = CliChild::spawn(
        &serve_args(&Source::File(input), data_dir.as_deref(), &summary_path),
        scratch,
    )?;
    child.finish(Deadline::after(CHILD_LIMIT))?;
    Ok((start.elapsed().as_secs_f64(), read_summary(&summary_path)?))
}

fn write_lines(path: &str, lines: &[LightJob]) -> Result<(), String> {
    let text: String = lines.iter().map(|j| j.line.as_str()).collect();
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// Fills the end-to-end metrics the two serve workloads share.
fn end_to_end(
    result: &mut RunResult,
    sessions: &[Session],
    jobs_per_s: f64,
    jobs_per_child: usize,
    summary: &ServeSummary,
) {
    let acks = || sessions.iter().map(|s| s.streamed.latencies_ms.as_slice());
    let cpu_s: f64 = sessions.iter().map(|s| s.usage.cpu_s).sum();
    let v = &mut result.values;
    v.set("jobs_per_s", jobs_per_s);
    v.set("latency_p50_ms", median_percentile(acks(), 0.50));
    v.set("latency_p99_ms", median_percentile(acks(), 0.99));
    v.set(
        "cpu_ms_per_job",
        cpu_s * 1e3 / (sessions.len() * jobs_per_child) as f64,
    );
    v.set(
        "peak_rss_mb",
        median(
            &sessions
                .iter()
                .map(|s| s.usage.peak_rss_mb)
                .collect::<Vec<_>>(),
        ),
    );
    v.set("slo_met_pct", 100.0 - summary.slo_miss_pct);
    v.set("goodput_mh", summary.goodput_hours);
}

/// `serve-tcp`: the write path. Every accepted job is journaled and
/// fsynced before its ack, so the wire and the WAL do the work.
pub fn run_tcp(opts: &RunOpts) -> Result<RunResult, String> {
    let n = if opts.scale == Scale::Full { 3000 } else { 300 };
    let mut result = RunResult::default();
    let mut tracer = Tracer::new(opts.trace);
    let scratch = TempDir::new("serve-tcp")?;

    // Set-up: generate the stream and push all of it through a throw-away
    // server, which also yields the summary every iteration must reproduce.
    let setup = Instant::now();
    let jobs = light_stream(opts.seed, n);
    let session =
        |tracer: &mut Tracer| tcp_session(&scratch, &TempDir::new("data")?, &jobs, WINDOW, tracer);
    let warm = session(&mut Tracer::new(false))?;
    result.values.set("setup_s", setup.elapsed().as_secs_f64());

    let check = |s: &Session, which: &str, result: &mut RunResult| {
        result.attempted += s.streamed.sent;
        result.failed += s.streamed.failed;
        if s.streamed.failed != 0 {
            result.violation(format!(
                "{which}: {} of {n} lines were not accepted",
                s.streamed.failed
            ));
        }
        if s.summary.submitted != n as u64 || s.summary != warm.summary {
            result.violation(format!(
                "{which}: summary differs from the warm-up's (submitted {} digest {:016x}, expected {n} {:016x})",
                s.summary.submitted, s.summary.digest, warm.summary.digest
            ));
        }
    };

    if opts.trace {
        let plain = session(&mut Tracer::new(false))?;
        check(&plain, "untraced iteration", &mut result);
        let traced = session(&mut tracer)?;
        check(&traced, "traced iteration", &mut result);
        let session_s = session_layers(&jobs, &mut tracer, &plain.summary, &mut result)?;
        wal_layers(&jobs, &mut tracer, &mut result)?;
        tcp_layers(&scratch, &jobs, &plain, session_s, &mut result)?;
        let v = &mut result.values;
        // How much of the stream time the program's own work explains; the
        // rest is the wire (see `cli.serve.tcp_us`).
        let own_us = v.get("cli.serve.parse_us")
            + v.get("cluster.wal.append_us")
            + v.get("cluster.wal.fsync_us");
        v.set(
            "bench.parts_sum_pct",
            100.0 * ratio(session_s + own_us * n as f64 / 1e6, plain.streamed.stream_s),
        );
        v.set("bench.iterations", 1.0);
        v.set("bench.iteration_wall_s", plain.streamed.stream_s);
        v.set(
            "bench.trace_overhead_pct",
            100.0 * (traced.streamed.stream_s / plain.streamed.stream_s - 1.0),
        );
        v.set("bench.traced_wall_s", traced.streamed.stream_s);
        crate::write_trace(opts, &tracer)?;
        return Ok(result);
    }

    let measure = Instant::now();
    let mut sessions = Vec::new();
    while sessions.is_empty() || measure.elapsed().as_secs_f64() < opts.seconds {
        let s = session(&mut tracer)?;
        check(&s, &format!("iteration {}", sessions.len()), &mut result);
        sessions.push(s);
    }
    let acked: usize = sessions.iter().map(|s| s.streamed.latencies_ms.len()).sum();
    let stream_s: Vec<f64> = sessions.iter().map(|s| s.streamed.stream_s).collect();
    end_to_end(
        &mut result,
        &sessions,
        acked as f64 / stream_s.iter().sum::<f64>(),
        n,
        &warm.summary,
    );
    eprintln!(
        "{} iterations of {n} jobs, stream {:.3} s each (median)",
        sessions.len(),
        median(&stream_s)
    );
    Ok(result)
}

/// `serve-recover`: the read path. A crashed data directory (journal, no
/// snapshot) is recovered by a fresh serve process, which then takes a
/// short stream and must end exactly as a run that never crashed.
pub fn run_recover(opts: &RunOpts) -> Result<RunResult, String> {
    let (records, tail) = if opts.scale == Scale::Full {
        (40_000, 500)
    } else {
        (2_000, 100)
    };
    let total = (records + tail) as u64;
    let mut result = RunResult::default();
    let mut tracer = Tracer::new(opts.trace);
    let scratch = TempDir::new("serve-recover")?;

    // Set-up: the stream; the crashed directory (the journal a killed
    // server leaves behind: the same `WalRecord::Job` frames, appended
    // through the public `Wal` API); and the uninterrupted reference run
    // over journal + tail, which doubles as the warm-up.
    let setup = Instant::now();
    let jobs = light_stream(opts.seed, records + tail);
    let crashed = TempDir::new("crashed")?;
    let journal = build_journal(&crashed, &jobs[..records], false)?;
    let input = scratch.join("all.jsonl");
    write_lines(&input, &jobs)?;
    let (_, reference) = file_session(&scratch, &input, None)?;
    result.values.set("setup_s", setup.elapsed().as_secs_f64());
    if reference.submitted != total {
        result.violation(format!(
            "reference run accepted {} of {total} lines",
            reference.submitted
        ));
    }

    let measure = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    // A traced run makes one recovery; the layer probes take the rest.
    while sessions.is_empty() || (!opts.trace && measure.elapsed().as_secs_f64() < opts.seconds) {
        let copy = TempDir::new("copy")?;
        let target = DataDir::open(copy.path())
            .map_err(|e| e.to_string())?
            .journal_path();
        std::fs::copy(&journal, target).map_err(|e| format!("copy journal: {e}"))?;
        let s = tcp_session(&scratch, &copy, &jobs[records..], WINDOW, &mut tracer)?;
        let which = format!("iteration {}", sessions.len());
        result.attempted += total;
        result.failed += s.streamed.failed;
        if s.streamed.failed != 0 {
            result.violation(format!(
                "{which}: {} tail lines were not accepted",
                s.streamed.failed
            ));
        }
        if s.summary != reference {
            result.failed += total - s.streamed.failed;
            result.violation(format!(
                "{which}: recovered run ended at digest {:016x}, the uninterrupted run at {:016x}",
                s.summary.digest, reference.digest
            ));
        }
        sessions.push(s);
    }
    let recover_s: Vec<f64> = sessions.iter().map(|s| s.ready_s).collect();

    if opts.trace {
        // The reference also covers the tail, so only the counters of the
        // in-process replay are checked, not its digest.
        session_layers(&jobs[..records], &mut tracer, &reference, &mut result)?;
        let (wal_recover_s, replay_s) = wal_layers(&jobs[..records], &mut tracer, &mut result)?;
        let spawn_s = spawn_only(&scratch)?;
        let v = &mut result.values;
        v.set("cli.serve.spawn_s", spawn_s);
        v.set("cli.serve.recover_s", median(&recover_s));
        // Parts must sum: process start + journal read and decode + replay
        // against the recovery the client saw.
        v.set(
            "bench.parts_sum_pct",
            100.0 * ratio(spawn_s + wal_recover_s + replay_s, median(&recover_s)),
        );
        v.set("bench.iterations", sessions.len() as f64);
        v.set("bench.iteration_wall_s", median(&recover_s));
        v.set("bench.traced_wall_s", recover_s.iter().sum());
        crate::write_trace(opts, &tracer)?;
        return Ok(result);
    }

    let per_s = (records * sessions.len()) as f64 / recover_s.iter().sum::<f64>();
    end_to_end(&mut result, &sessions, per_s, records + tail, &reference);
    eprintln!(
        "{} recoveries of {records} records, {:.3} s each (median)",
        sessions.len(),
        median(&recover_s)
    );
    Ok(result)
}

/// Appends `jobs` as `WalRecord::Job` frames to a fresh journal in `dir`;
/// returns the journal's path.
fn build_journal(dir: &TempDir, jobs: &[LightJob], sync: bool) -> Result<PathBuf, String> {
    let path = DataDir::open(dir.path())
        .map_err(|e| e.to_string())?
        .journal_path();
    let (mut wal, _) = Wal::open(&path, sync).map_err(|e| e.to_string())?;
    for job in jobs {
        wal.append(WalRecord::Job(job.spec.clone()))
            .map_err(|e| e.to_string())?;
    }
    Ok(path)
}

/// Spawn → connect of a serve child with an empty data directory: what a
/// start costs when there is nothing to recover. Median of five.
fn spawn_only(scratch: &TempDir) -> Result<f64, String> {
    let runs = (0..5)
        .map(|_| {
            Ok(tcp_session(
                scratch,
                &TempDir::new("empty")?,
                &[],
                WINDOW,
                &mut Tracer::new(false),
            )?
            .ready_s)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&runs))
}

/// The scheduler and session a serve child builds by default.
fn serve_pair(recorder: &Recorder) -> Result<(ServeSession, ThreeSigmaScheduler), String> {
    let sched = SchedConfig {
        cycle_hint: CYCLE_S,
        cache_capacity: Some(4096),
        ..SchedConfig::default()
    };
    let predictor = PredictorConfig {
        max_tracked_values: Some(4096),
        ..PredictorConfig::default()
    };
    let config = ServeConfig {
        cycle_interval: CYCLE_S,
        ..ServeConfig::default()
    };
    let session = ServeSession::new(ClusterSpec::uniform(8, 32), config, recorder)
        .map_err(|e| e.to_string())?;
    let sched = ThreeSigmaScheduler::new(sched, EstimateSource::Predicted, predictor)
        .with_recorder(recorder);
    Ok((session, sched))
}

/// The same jobs driven in-process through the public `ServeSession` calls
/// the serve front-end makes, with the scheduler wrapped: what the session
/// and the scheduling under it cost without wire, parser or journal.
/// Returns the session's wall time.
fn session_layers(
    jobs: &[LightJob],
    tracer: &mut Tracer,
    expected: &ServeSummary,
    result: &mut RunResult,
) -> Result<f64, String> {
    let recorder = Recorder::enabled();
    let (mut session, sched) = serve_pair(&recorder)?;
    let root = tracer.begin("cluster.serve.session", None);
    let mut timed = Timed::new(sched, tracer, Some(root));
    let (mut admit, mut pump, mut submit) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    for job in jobs {
        let t0 = Instant::now();
        session.admit(&job.spec).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        session
            .pump_until(job.spec.submit_time, &mut timed)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        session
            .submit(job.spec.clone())
            .map_err(|e| e.to_string())?;
        admit += t1 - t0;
        pump += t2 - t1;
        submit += t2.elapsed();
    }
    session
        .drain(f64::INFINITY, &mut timed)
        .map_err(|e| e.to_string())?;
    let session_s = start.elapsed().as_secs_f64();
    let Timed {
        inner: sched,
        busy_ms,
        ..
    } = timed;
    tracer.end(root);

    let summary = session.summary();
    if summary.submitted == expected.submitted && summary != *expected {
        result.violation("in-process session ended differently from the serve child");
    }
    let stats = sched.stats();
    if stats.solver_timeouts != 0 {
        result.violation(format!(
            "in-process session: {} solver timeouts",
            stats.solver_timeouts
        ));
    }
    let per_job = |d: Duration| d.as_secs_f64() * 1e6 / jobs.len().max(1) as f64;
    let v = &mut result.values;
    scheduler_layers(
        v,
        &[(stats, StageSums::of(sched.timings()))],
        tracer.total_s("core.schedule"),
    );
    v.set("workload.jobs", jobs.len() as f64);
    v.set(
        "predict.tracked_values",
        recorder
            .snapshot()
            .gauge("predict_tracked_values")
            .unwrap_or(0.0),
    );
    v.set("core.callbacks_s", tracer.total_s("core.callbacks"));
    v.set("core.busy_cycles", busy_ms.len() as f64);
    v.set("cluster.engine_cycles", summary.cycles as f64);
    v.set("cluster.preemptions", summary.preemptions as f64);
    v.set("cluster.serve.session_s", session_s);
    v.set("cluster.serve.admit_us", per_job(admit));
    v.set("cluster.serve.pump_us", per_job(pump));
    v.set("cluster.serve.submit_us", per_job(submit));
    Ok(session_s)
}

/// The journal of `jobs` written and read back through the public WAL
/// functions the serve front-end uses, each under its own clock. Returns
/// the `recover_data_dir` and `replay` seconds.
fn wal_layers(
    jobs: &[LightJob],
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(f64, f64), String> {
    /// Records appended with fsync on: enough for a mean, cheap enough to wait for.
    const SYNCED: usize = 500;
    let per_record =
        |start: Instant, n: usize| start.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
    let dir = TempDir::new("wal")?;
    let span = tracer.begin("cluster.wal.append", None);
    let start = Instant::now();
    let journal = build_journal(&dir, jobs, false)?;
    let append_us = per_record(start, jobs.len());
    tracer.end(span);

    let synced = &jobs[..jobs.len().min(SYNCED)];
    let span = tracer.begin("cluster.wal.fsync", None);
    let start = Instant::now();
    build_journal(&TempDir::new("wal-sync")?, synced, true)?;
    let synced_us = per_record(start, synced.len());
    tracer.end(span);

    let bytes = std::fs::read(&journal).map_err(|e| format!("read journal: {e}"))?;
    let span = tracer.begin("cluster.wal.decode", None);
    let start = Instant::now();
    let decoded = decode_journal(&bytes).entries.len();
    let decode_s = start.elapsed().as_secs_f64();
    tracer.end(span);
    if decoded != jobs.len() {
        return Err(format!(
            "journal decoded to {decoded} of {} records",
            jobs.len()
        ));
    }

    let data = DataDir::open(dir.path()).map_err(|e| e.to_string())?;
    let span = tracer.begin("cluster.wal.recover", None);
    let start = Instant::now();
    let recovered = recover_data_dir(&data, false).map_err(|e| e.to_string())?;
    let recover_s = start.elapsed().as_secs_f64();
    tracer.end(span);

    let recorder = Recorder::enabled();
    let (mut session, mut sched) = serve_pair(&recorder)?;
    let span = tracer.begin("cluster.wal.replay", None);
    let start = Instant::now();
    replay(&mut session, &mut sched, &recovered.suffix).map_err(|e| e.to_string())?;
    let replay_s = start.elapsed().as_secs_f64();
    tracer.end(span);

    let v = &mut result.values;
    v.set("cluster.wal.append_us", append_us);
    v.set("cluster.wal.fsync_us", (synced_us - append_us).max(0.0));
    v.set(
        "cluster.wal.bytes_per_record",
        (bytes.len() - WAL_MAGIC.len()) as f64 / jobs.len().max(1) as f64,
    );
    v.set("cluster.wal.decode_s", decode_s);
    v.set("cluster.wal.recover_s", recover_s);
    v.set("cluster.wal.replay_s", replay_s);
    Ok((recover_s, replay_s))
}

/// Differential runs of the serve child over the same stream: from a file
/// (no wire, no journal), from a file with a synced journal (no wire), and
/// over TCP one line at a time (no queueing behind other lines).
fn tcp_layers(
    scratch: &TempDir,
    jobs: &[LightJob],
    plain: &Session,
    session_s: f64,
    result: &mut RunResult,
) -> Result<(), String> {
    // One line in flight waits out the whole stall per line, so a thirtieth
    // of the stream is plenty (and all the smoke mode can afford).
    let depth1_jobs = (jobs.len() / 30).max(1);
    let n = jobs.len() as f64;
    let input = scratch.join("stream.jsonl");
    write_lines(&input, jobs)?;
    let spawn_s = spawn_only(scratch)?;
    let (file_s, bare) = file_session(scratch, &input, None)?;
    let (durable_s, durable) = file_session(scratch, &input, Some(&TempDir::new("data")?))?;
    if bare != plain.summary || durable != plain.summary {
        result.violation("file-fed serve runs ended differently from the TCP run");
    }
    let depth1 = tcp_session(
        scratch,
        &TempDir::new("data")?,
        &jobs[..depth1_jobs],
        1,
        &mut Tracer::new(false),
    )?;
    let v = &mut result.values;
    v.set("cli.serve.file_s", file_s);
    v.set(
        "cli.serve.parse_us",
        (file_s - spawn_s - session_s).max(0.0) * 1e6 / n,
    );
    v.set("cli.serve.spawn_s", spawn_s);
    v.set(
        "cli.serve.tcp_us",
        (plain.streamed.stream_s - (durable_s - spawn_s)) * 1e6 / n,
    );
    v.set(
        "cli.serve.ack_depth1_ms",
        percentile(&depth1.streamed.latencies_ms, 0.50),
    );
    Ok(())
}
