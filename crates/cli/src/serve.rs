//! `threesigma serve` — a long-running scheduling service over a JSONL
//! job stream.
//!
//! Jobs arrive one per line (stdin, a file, or a single TCP connection),
//! tagged with a `tenant`. The session schedules them with the full
//! 3σPredict → 3σSched pipeline under *bounded* memory: the predictor's
//! per-feature-value state, the estimate cache, and the per-job outcome
//! tables are all capped, and every cap is exported as an obs gauge.
//!
//! # Crash safety (`--data-dir`)
//!
//! With `--data-dir DIR` the session is crash-only. Every accepted job is
//! appended to a CRC32-framed write-ahead journal, and every
//! acknowledgment is sent only after the write and fsync (unless
//! `--no-fsync`) that cover its record; quiescent moments
//! trigger automatic snapshots (`--snapshot-every-jobs` /
//! `--snapshot-every-secs`) that truncate the journal past their
//! watermark. On startup the newest valid snapshot is loaded (torn tails
//! and corrupt candidates are tolerated, never panicked on) and the
//! journal suffix is replayed through the same deterministic ingest
//! pipeline, so a `kill -9`'d process recovers to a state digest-identical
//! to a never-crashed run — the CI `crash-smoke` check. The journal,
//! snapshot and recovery protocol is [`Durable`], shared with the crash
//! campaign; this module supplies the payload ([`FullSnapshot`]) and the
//! wire.
//!
//! # The input loop: one commit per `read()`
//!
//! [`Stream::run`] owns the read buffer. Every complete line one `read()`
//! returned goes through the per-line order parse → admit → `pump_until`
//! → [snapshot if due] → journal append → `submit` → *queue* the response,
//! and then [`Stream::commit`] writes the batch: one `write_all` of the
//! queued journal frames, one `sync_data`, then one `write_all` of the
//! queued responses on a `TCP_NODELAY` socket. The batch is whatever the
//! `read()` returned, so a client that waits for each ack still gets one
//! fsync per line and a pipelined client amortises it; responses stay in
//! line order. A due auto-snapshot, EOF and a disconnect commit first; a
//! fatal error returns without writing the queued responses. A crash can
//! therefore leave records that are durable but unacknowledged, never an
//! acknowledgment whose record is not durable. Batching cannot change a
//! scheduling decision: simulated time comes from each job's
//! `submit_time`, never from the wall clock or from where a `read()`
//! happened to end.
//!
//! # Admission control and poison lines
//!
//! `--max-queue` bounds the non-terminal backlog and `--tenant-quota`
//! bounds each tenant's in-flight jobs; violations produce typed
//! `rejected` responses on the wire (reasons `queue_full`,
//! `tenant_quota`, `duplicate`, `out_of_order`) and counters, never a
//! process exit. Malformed lines are counted, sampled into a quarantine
//! file, and rejected with reason `malformed` — they do not kill the
//! connection. Abrupt client disconnects and mid-line EOF on `--listen`
//! are handled gracefully: complete lines are processed (and journaled),
//! the partial tail is discarded with a typed warning. A line longer than
//! [`MAX_LINE_BYTES`] is rejected as `malformed` (`line too long`) as soon
//! as the excess is seen, so no more than that is ever buffered; the
//! stream resynchronises at the next newline.
//!
//! `--snapshot-out` writes a quiescent [`FullSnapshot`] (engine session +
//! scheduler/predictor state + wire counters) in the same [`SnapshotFile`]
//! envelope a data directory holds, watermark 0; `--restore` reads it with
//! the same reader, so one version check covers both. A restored process
//! that streams the remainder of an input reproduces the uninterrupted
//! run's summary digest and stable metrics JSON byte for byte — that
//! equivalence is this mode's correctness contract (and the CI
//! `serve-smoke` check).

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Map, Serialize, Value};
use threesigma::{EstimateSource, SchedConfig, SchedSnapshot, ThreeSigmaScheduler};
use threesigma_cluster::{
    Attributes, ClusterSpec, DataDir, Durable, JobKind, JobSpec, ServeConfig, ServeSession,
    ServeSnapshot, SimError, SnapshotFile, WalError, WalRecord, SNAPSHOT_FORMAT_VERSION,
};
use threesigma_obs::{Counter, Recorder};
use threesigma_predict::PredictorConfig;
use threesigma_workload::MAX_DURATION;

use crate::args::{Args, CliError};

/// Longest input line accepted, newline excluded. Anything longer is
/// rejected as `malformed` and discarded up to the next newline, so a
/// newline-free stream cannot grow the read buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Bytes of an over-long line kept as its quarantine sample.
const LONG_LINE_SAMPLE_BYTES: usize = 256;

/// Size of one `read()`, and so the most input one commit covers.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Wire-layer stream statistics. Persisted inside [`FullSnapshot`] so the
/// byte-stable rejection counters survive restarts and crashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// Lines rejected as malformed (bad JSON, bad fields, bad UTF-8).
    pub rejected_malformed: u64,
    /// Jobs rejected because the non-terminal backlog hit `--max-queue`.
    pub rejected_queue_full: u64,
    /// Jobs rejected because their tenant hit `--tenant-quota`.
    pub rejected_tenant_quota: u64,
    /// Jobs rejected for reusing a live job id.
    pub rejected_duplicate: u64,
    /// Jobs rejected for arriving out of `submit_time` order.
    pub rejected_out_of_order: u64,
    /// Malformed lines written to the quarantine file (sample-capped).
    pub quarantined: u64,
    /// Partial (unterminated) input tails discarded at EOF on `--listen`.
    pub partial_tails: u64,
    /// Abrupt client disconnects absorbed on `--listen`.
    pub disconnects: u64,
}

impl WireStats {
    fn rejected_total(&self) -> u64 {
        self.rejected_malformed
            + self.rejected_queue_full
            + self.rejected_tenant_quota
            + self.rejected_duplicate
            + self.rejected_out_of_order
    }
}

/// The serve payload of a [`SnapshotFile`], in `--snapshot-out` files and
/// data-directory snapshots alike: the engine-side session snapshot, the
/// scheduler/predictor snapshot and the wire counters, composed at the CLI
/// layer so every part restarts from the same quiescent instant. Its
/// layout is versioned by the envelope's [`SNAPSHOT_FORMAT_VERSION`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullSnapshot {
    /// Cluster/session state (`threesigma_cluster::serve`).
    pub engine: ServeSnapshot,
    /// Predictor sketches, expert scores, cache bookkeeping, totals.
    pub sched: SchedSnapshot,
    /// Wire-layer counters.
    pub wire: WireStats,
}

impl FullSnapshot {
    /// Captures a quiescent session, its scheduler and the wire counters.
    fn capture(
        session: &ServeSession,
        sched: &ThreeSigmaScheduler,
        wire: WireStats,
    ) -> Result<Value, CliError> {
        let full = FullSnapshot {
            engine: session.snapshot().map_err(sim_err)?,
            sched: sched.serve_snapshot(),
            wire,
        };
        serde_json::to_value(&full).map_err(io_err)
    }
}

/// Keys of the wire format that are job fields rather than attributes.
const WIRE_FIELDS: &[&str] = &[
    "id",
    "tenant",
    "submit_time",
    "tasks",
    "duration",
    "deadline",
];

fn bad_line(line_no: u64, why: impl std::fmt::Display) -> CliError {
    CliError::Failed(format!("input line {line_no}: {why}"))
}

/// Parses one JSONL wire job into a [`JobSpec`].
///
/// Required fields: `id` (u64), `tenant` (string), `submit_time` (seconds,
/// finite ≥ 0), `tasks` (u32 ≥ 1), `duration` (seconds, > 0 and at most
/// [`MAX_DURATION`], 30 days: a job that runs for years keeps the session
/// cycling for as long).
/// Optional: `deadline` (absolute seconds → SLO job; absent → best-effort)
/// and any further *string* fields, which become predictor attributes.
/// `tenant` is stored as the `tenant` attribute and also mirrored into
/// `user` (the feature set's per-principal key) unless the line sets an
/// explicit `user`.
fn parse_wire_job(line: &str, line_no: u64) -> Result<JobSpec, CliError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| bad_line(line_no, format!("not JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| bad_line(line_no, "expected a JSON object"))?;
    let field = |key: &'static str| {
        obj.get(key)
            .ok_or_else(|| bad_line(line_no, format!("missing required field `{key}`")))
    };
    let id = field("id")?
        .as_u64()
        .ok_or_else(|| bad_line(line_no, "`id` must be a non-negative integer"))?;
    let tenant = field("tenant")?
        .as_str()
        .ok_or_else(|| bad_line(line_no, "`tenant` must be a string"))?;
    let submit_time = field("submit_time")?
        .as_f64()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| bad_line(line_no, "`submit_time` must be a finite number >= 0"))?;
    let tasks = field("tasks")?
        .as_u64()
        .filter(|n| *n >= 1 && *n <= u64::from(u32::MAX))
        .ok_or_else(|| bad_line(line_no, "`tasks` must be an integer >= 1"))?;
    let duration = field("duration")?
        .as_f64()
        .filter(|d| *d > 0.0 && *d <= MAX_DURATION)
        .ok_or_else(|| {
            bad_line(
                line_no,
                format!("`duration` must be a number > 0 and <= {MAX_DURATION} (30 days)"),
            )
        })?;
    let kind = match obj.get("deadline") {
        Some(v) => {
            let deadline = v
                .as_f64()
                .filter(|d| d.is_finite() && *d > submit_time)
                .ok_or_else(|| {
                    bad_line(line_no, "`deadline` must be a finite number > submit_time")
                })?;
            JobKind::Slo { deadline }
        }
        None => JobKind::BestEffort,
    };
    let mut attrs = Attributes::new().with("tenant", tenant);
    for (key, value) in obj.iter() {
        if WIRE_FIELDS.contains(&key.as_str()) {
            continue;
        }
        let text = value
            .as_str()
            .ok_or_else(|| bad_line(line_no, format!("attribute `{key}` must be a string")))?;
        attrs.set(key, text);
    }
    if attrs.get("user").is_none() {
        attrs.set("user", tenant);
    }
    Ok(JobSpec::new(id, submit_time, tasks as u32, duration, kind).with_attributes(attrs))
}

fn positive_dim(args: &Args, key: &'static str, default: usize) -> Result<usize, CliError> {
    let n: usize = args.parse_or(key, default)?;
    if n == 0 {
        return Err(CliError::BadValue {
            option: key.into(),
            value: "0".into(),
            expected: "a count >= 1",
        });
    }
    Ok(n)
}

/// `0 = unbounded` knob convention shared by the serve caps.
fn cap(args: &Args, key: &str, default: usize) -> Result<Option<usize>, CliError> {
    let n: usize = args.parse_or(key, default)?;
    Ok((n > 0).then_some(n))
}

fn io_err(e: impl std::fmt::Display) -> CliError {
    CliError::Io(e.to_string())
}

fn sim_err(e: SimError) -> CliError {
    CliError::Failed(e.to_string())
}

impl From<WalError> for CliError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::UnsupportedSnapshotVersion {
                path,
                found,
                supported,
            } => CliError::SnapshotVersion {
                path: path.display().to_string(),
                found,
                supported,
            },
            other => CliError::Io(other.to_string()),
        }
    }
}

/// The line source — stdin, a file, or one accepted TCP connection — and,
/// for a connection, the write half that carries the per-line responses.
/// A source with `responses` follows the connection rules: a torn final
/// line is discarded and a read error ends the stream with a warning.
struct Input {
    reader: Box<dyn Read>,
    responses: Option<Box<dyn Write>>,
}

fn open_input(args: &Args) -> Result<Input, CliError> {
    if let Some(addr) = args.get("listen") {
        let listener = std::net::TcpListener::bind(addr).map_err(io_err)?;
        // One connection per process: the client streams JSONL and closes;
        // EOF drains the session, writes the snapshot, and exits. A
        // supervisor restarting the binary with `--data-dir` gives the
        // continuous-service loop.
        let (conn, _peer) = listener.accept().map_err(io_err)?;
        // Responses are small and the client answers them with more lines:
        // under Nagle each one would wait out the client's delayed ACK
        // (~40 ms). This only affects latency, so a failure is not fatal.
        let _ = conn.set_nodelay(true);
        let responses = conn.try_clone().ok().map(|c| Box::new(c) as Box<dyn Write>);
        return Ok(Input {
            reader: Box::new(conn),
            responses,
        });
    }
    let reader: Box<dyn Read> = match args.get_or("input", "-") {
        "-" => Box::new(std::io::stdin()),
        path => Box::new(std::fs::File::open(path).map_err(io_err)?),
    };
    Ok(Input {
        reader,
        responses: None,
    })
}

/// Typed rejection reasons echoed on the wire and counted per-reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RejectReason {
    Malformed,
    QueueFull,
    TenantQuota,
    Duplicate,
    OutOfOrder,
}

impl RejectReason {
    fn as_str(self) -> &'static str {
        match self {
            RejectReason::Malformed => "malformed",
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantQuota => "tenant_quota",
            RejectReason::Duplicate => "duplicate",
            RejectReason::OutOfOrder => "out_of_order",
        }
    }
}

/// Maps an admission rejection to its wire reason. `None` means the error
/// is not an admission rejection and must stay fatal.
fn reject_reason(e: &SimError) -> Option<RejectReason> {
    match e {
        SimError::MalformedJobSpec { .. } => Some(RejectReason::Malformed),
        SimError::QueueFull { .. } => Some(RejectReason::QueueFull),
        SimError::TenantQuotaExceeded { .. } => Some(RejectReason::TenantQuota),
        SimError::DuplicateJobId { .. } => Some(RejectReason::Duplicate),
        SimError::OutOfOrderSubmit { .. } => Some(RejectReason::OutOfOrder),
        _ => None,
    }
}

/// Per-line JSON responses for the TCP write half (no-op for file/stdin
/// input). Responses are queued in line order and written by
/// [`Responder::flush`], once per commit. Write failures are ignored: a
/// vanished client must not take the session down.
struct Responder {
    out: Option<Box<dyn Write>>,
    queued: Vec<u8>,
}

impl Responder {
    fn queue(&mut self, m: Map) {
        if let Ok(text) = serde_json::to_string(&Value::Object(m)) {
            self.queued.extend_from_slice(text.as_bytes());
            self.queued.push(b'\n');
        }
    }

    fn accepted(&mut self, line_no: u64, id: u64, seq: Option<u64>) {
        if self.out.is_none() {
            return;
        }
        let mut m = Map::new();
        m.insert("status", Value::String("accepted".into()));
        m.insert("line", Value::UInt(line_no));
        m.insert("id", Value::UInt(id));
        if let Some(seq) = seq {
            m.insert("seq", Value::UInt(seq));
        }
        self.queue(m);
    }

    fn rejected(&mut self, line_no: u64, id: Option<u64>, reason: RejectReason, detail: &str) {
        if self.out.is_none() {
            return;
        }
        let mut m = Map::new();
        m.insert("status", Value::String("rejected".into()));
        m.insert("line", Value::UInt(line_no));
        if let Some(id) = id {
            m.insert("id", Value::UInt(id));
        }
        m.insert("reason", Value::String(reason.as_str().into()));
        m.insert("detail", Value::String(detail.into()));
        self.queue(m);
    }

    /// Writes every queued response with one `write_all`. Only
    /// [`Stream::commit`] calls this, after the journal barrier.
    fn flush(&mut self) {
        if self.queued.is_empty() {
            return;
        }
        if let Some(out) = &mut self.out {
            let _ = out.write_all(&self.queued);
        }
        self.queued.clear();
    }
}

/// Sampled sink for poison input lines: up to `cap` raw lines (with their
/// line number and parse error) are appended as JSONL. Counting happens
/// regardless of the cap; write failures are swallowed — quarantine is an
/// aid, never a reason to stop serving.
struct Quarantine {
    path: Option<PathBuf>,
    cap: u64,
    written: u64,
}

impl Quarantine {
    fn record(&mut self, line_no: u64, raw: &str, error: &str) -> bool {
        let Some(path) = &self.path else { return false };
        if self.written >= self.cap {
            return false;
        }
        let mut m = Map::new();
        m.insert("line", Value::UInt(line_no));
        m.insert("error", Value::String(error.to_owned()));
        m.insert("raw", Value::String(raw.to_owned()));
        let Ok(text) = serde_json::to_string(&Value::Object(m)) else {
            return false;
        };
        let ok = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{text}"))
            .is_ok();
        if ok {
            self.written += 1;
        }
        ok
    }
}

/// Wire-layer counters, published with `set_total` from [`WireStats`] so a
/// recovered process reports stream-lifetime values in the byte-stable
/// metrics dump.
struct WireMetrics {
    rejected_total: Counter,
    malformed: Counter,
    queue_full: Counter,
    tenant_quota: Counter,
    duplicate: Counter,
    out_of_order: Counter,
    quarantined: Counter,
    partial_tails: Counter,
    disconnects: Counter,
}

impl WireMetrics {
    fn register(rec: &Recorder) -> Self {
        Self {
            rejected_total: rec.counter(
                "serve_rejected_total",
                "Input lines rejected by the serve admission layer (all reasons)",
            ),
            malformed: rec.counter(
                "serve_rejected_malformed_total",
                "Input lines rejected as malformed",
            ),
            queue_full: rec.counter(
                "serve_rejected_queue_full_total",
                "Jobs rejected because the non-terminal backlog hit --max-queue",
            ),
            tenant_quota: rec.counter(
                "serve_rejected_tenant_quota_total",
                "Jobs rejected because their tenant hit --tenant-quota",
            ),
            duplicate: rec.counter(
                "serve_rejected_duplicate_total",
                "Jobs rejected for reusing a live job id",
            ),
            out_of_order: rec.counter(
                "serve_rejected_out_of_order_total",
                "Jobs rejected for arriving out of submit_time order",
            ),
            quarantined: rec.counter(
                "serve_quarantined_lines_total",
                "Malformed input lines written to the quarantine file",
            ),
            partial_tails: rec.counter(
                "serve_partial_tail_discards_total",
                "Unterminated input tails discarded at connection EOF",
            ),
            disconnects: rec.counter(
                "serve_disconnects_total",
                "Abrupt client disconnects absorbed without ending the session",
            ),
        }
    }

    fn publish(&self, w: &WireStats) {
        self.rejected_total.set_total(w.rejected_total());
        self.malformed.set_total(w.rejected_malformed);
        self.queue_full.set_total(w.rejected_queue_full);
        self.tenant_quota.set_total(w.rejected_tenant_quota);
        self.duplicate.set_total(w.rejected_duplicate);
        self.out_of_order.set_total(w.rejected_out_of_order);
        self.quarantined.set_total(w.quarantined);
        self.partial_tails.set_total(w.partial_tails);
        self.disconnects.set_total(w.disconnects);
    }
}

/// One serve stream: the session, its scheduler, the durability half and
/// the wire-layer state, driven line by line and committed batch by batch.
struct Stream {
    session: ServeSession,
    sched: ThreeSigmaScheduler,
    durable: Option<Durable>,
    wire: WireStats,
    wire_metrics: WireMetrics,
    responder: Responder,
    quarantine: Quarantine,
}

impl Stream {
    /// Counts a rejection, samples it into quarantine (malformed lines
    /// only), and queues the typed wire response.
    fn reject(
        &mut self,
        line_no: u64,
        id: Option<u64>,
        reason: RejectReason,
        detail: &str,
        quarantine_raw: Option<&str>,
    ) {
        match reason {
            RejectReason::Malformed => self.wire.rejected_malformed += 1,
            RejectReason::QueueFull => self.wire.rejected_queue_full += 1,
            RejectReason::TenantQuota => self.wire.rejected_tenant_quota += 1,
            RejectReason::Duplicate => self.wire.rejected_duplicate += 1,
            RejectReason::OutOfOrder => self.wire.rejected_out_of_order += 1,
        }
        if let Some(raw) = quarantine_raw {
            if self.quarantine.record(line_no, raw, detail) {
                self.wire.quarantined += 1;
            }
        }
        // Typed rejections admit nothing, so there is no record to replay;
        // only accepted jobs are journaled before their ack.
        // lint: no-journal
        self.responder.rejected(line_no, id, reason, detail);
    }

    /// Processes one input line (with or without its newline): parse,
    /// admit, journal, submit, queue the ack. Malformed lines and admission
    /// rejections are absorbed (counted, quarantined, echoed); only
    /// internal failures are fatal. Nothing here reaches the disk or the
    /// socket — that is [`Stream::commit`].
    fn line(&mut self, raw: &[u8], line_no: u64) -> Result<(), CliError> {
        if raw.strip_suffix(b"\n").unwrap_or(raw).len() > MAX_LINE_BYTES {
            let sample = raw.get(..LONG_LINE_SAMPLE_BYTES).unwrap_or(raw);
            let sample = String::from_utf8_lossy(sample).into_owned();
            self.reject(
                line_no,
                None,
                RejectReason::Malformed,
                "line too long",
                Some(&sample),
            );
            return Ok(());
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            let lossy = String::from_utf8_lossy(raw).into_owned();
            self.reject(
                line_no,
                None,
                RejectReason::Malformed,
                "line is not valid UTF-8",
                Some(&lossy),
            );
            return Ok(());
        };
        let line = text.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let spec = match parse_wire_job(line, line_no) {
            Ok(s) => s,
            Err(e) => {
                let detail = e.to_string();
                self.reject(line_no, None, RejectReason::Malformed, &detail, Some(line));
                return Ok(());
            }
        };
        // Admission runs against the *current* state, before any pump, so a
        // rejected line leaves the session untouched: replaying the journal
        // (accepted records only) reconstructs the identical state machine.
        if let Err(e) = self.session.admit(&spec) {
            let Some(reason) = reject_reason(&e) else {
                return Err(sim_err(e));
            };
            let raw = (reason == RejectReason::Malformed).then_some(line);
            self.reject(line_no, Some(spec.id.0), reason, &e.to_string(), raw);
            return Ok(());
        }
        let id = spec.id.0;
        self.session
            .pump_until(spec.submit_time, &mut self.sched)
            .map_err(sim_err)?;
        // Quiescent idle gaps are the only legal snapshot points; take one
        // here if the policy says it is due, *before* journaling the new
        // job (so the snapshot watermark excludes it). The batch so far is
        // committed first: the snapshot truncates the journal on disk.
        if self
            .durable
            .as_ref()
            .is_some_and(|d| d.snapshot_due(&self.session))
        {
            self.commit()?;
            self.snapshot()?;
        }
        // Journal before submitting; the ack queued below is only written
        // by the commit that makes this record durable.
        let seq = match &mut self.durable {
            Some(d) => Some(d.append(WalRecord::Job(spec.clone()))?),
            None => None,
        };
        // Admission passed pre-pump and pumping only completes or cancels
        // work, so this submit cannot be rejected; any error here is internal.
        self.session.submit(spec).map_err(sim_err)?;
        self.responder.accepted(line_no, id, seq);
        Ok(())
    }

    /// The one commit point. Makes every record journaled since the last
    /// commit durable (one write, one fsync), publishes the counters, and
    /// only then writes the queued responses (one write). An error leaves
    /// the responses unwritten: nothing is acked that is not durable.
    fn commit(&mut self) -> Result<(), CliError> {
        if let Some(d) = &mut self.durable {
            d.sync()?;
        }
        self.wire_metrics.publish(&self.wire);
        self.responder.flush();
        Ok(())
    }

    fn snapshot(&mut self) -> Result<(), CliError> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        let payload = FullSnapshot::capture(&self.session, &self.sched, self.wire)?;
        Ok(d.take_snapshot(payload, self.session.now())?)
    }

    /// Reads `reader` to its end: every complete line of one `read()` goes
    /// through [`Stream::line`], then one [`Stream::commit`]. Returns the
    /// warning a torn tail or an abrupt disconnect ended the stream with;
    /// everything processed before it is committed either way.
    fn run(&mut self, reader: &mut dyn Read) -> Result<Option<String>, CliError> {
        let is_tcp = self.responder.out.is_some();
        let mut chunk = vec![0u8; READ_CHUNK_BYTES];
        // Unprocessed input: after each read, at most one newline-free
        // partial line of at most `MAX_LINE_BYTES`.
        let mut buf: Vec<u8> = Vec::new();
        // Inside an over-long line that was already rejected: discard up
        // to the next newline.
        let mut skipping = false;
        let mut line_no = 0u64;
        let warning = loop {
            let mut fresh = match reader.read(&mut chunk) {
                Ok(0) if buf.is_empty() => break None,
                Ok(0) if is_tcp => {
                    // Mid-line EOF: the client died mid-send. Every
                    // complete line is already processed (and journaled);
                    // discard the torn tail with a typed warning.
                    self.wire.partial_tails += 1;
                    break Some(format!(
                        "partial input tail discarded ({} bytes, mid-line EOF)",
                        buf.len()
                    ));
                }
                Ok(0) => {
                    line_no += 1;
                    self.line(&buf, line_no)?;
                    break None;
                }
                Ok(n) => chunk.get(..n).unwrap_or_default(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_tcp => {
                    self.wire.disconnects += 1;
                    break Some(format!("client disconnected abruptly: {e}"));
                }
                Err(e) => return Err(io_err(e)),
            };
            if skipping {
                let Some(end) = fresh.iter().position(|&b| b == b'\n') else {
                    continue;
                };
                fresh = fresh.get(end + 1..).unwrap_or_default();
                skipping = false;
            }
            // `buf` holds no newline, so only the fresh bytes are searched.
            let mut search_from = buf.len();
            buf.extend_from_slice(fresh);
            let mut start = 0;
            while let Some(pos) = buf
                .get(search_from..)
                .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
            {
                let end = search_from + pos + 1;
                line_no += 1;
                self.line(buf.get(start..end).unwrap_or_default(), line_no)?;
                start = end;
                search_from = end;
            }
            buf.drain(..start);
            if buf.len() > MAX_LINE_BYTES {
                line_no += 1;
                self.line(&buf, line_no)?;
                buf.clear();
                skipping = true;
            }
            self.commit()?;
        };
        self.commit()?;
        Ok(warning)
    }
}

/// `serve` — stream JSONL jobs through a bounded-memory scheduling session.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    serve_on(args, open_input)
}

/// [`cmd_serve`] with the input opened by `open` — called only after
/// recovery, so a `--listen` socket is bound once the session is ready.
#[allow(clippy::too_many_lines)]
fn serve_on(
    args: &Args,
    open: impl FnOnce(&Args) -> Result<Input, CliError>,
) -> Result<String, CliError> {
    let racks = positive_dim(args, "racks", 8)?;
    let nodes_per_rack = positive_dim(args, "nodes-per-rack", 32)?;
    let cluster = ClusterSpec::uniform(racks, nodes_per_rack as u32);

    let mut serve_cfg = ServeConfig::default();
    serve_cfg.cycle_interval = args.parse_or("cycle", serve_cfg.cycle_interval)?;
    serve_cfg.retention = args.parse_or("retention", 3600.0)?;
    if args.get("max-retries").is_some() {
        serve_cfg.retry.max_retries = args.parse_or("max-retries", 0u32)?;
    }
    serve_cfg.max_queue = cap(args, "max-queue", 0)?;
    serve_cfg.tenant_quota = cap(args, "tenant-quota", 0)?.map(|n| n as u64);

    let sched_cfg = SchedConfig {
        cycle_hint: serve_cfg.cycle_interval,
        cache_capacity: cap(args, "cache-cap", 4096)?,
        max_timings: cap(args, "max-timings", 256)?,
        ..SchedConfig::default()
    };
    let pred_cfg = PredictorConfig {
        max_tracked_values: cap(args, "predictor-cap", 4096)?,
        value_ttl: cap(args, "predictor-ttl", 0)?.map(|n| n as u64),
        ..PredictorConfig::default()
    };

    let recorder = Recorder::enabled();
    let mut sched = ThreeSigmaScheduler::new(sched_cfg, EstimateSource::Predicted, pred_cfg)
        .with_recorder(&recorder);
    let wire_metrics = WireMetrics::register(&recorder);

    // Durable mode: recover the data directory (newest valid snapshot +
    // journal suffix), restore from the snapshot, and replay the suffix
    // through the same deterministic ingest pipeline the live loop uses.
    let (recovery, restored, origin) = match (args.get("data-dir"), args.get("restore")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Failed(
                "--data-dir and --restore are mutually exclusive; the data directory \
                 carries its own snapshots"
                    .into(),
            ))
        }
        (Some(dir), None) => {
            let recovery = Durable::recover(DataDir::open(dir)?, !args.switch("no-fsync"))?;
            (Some(recovery), None, format!("data dir {dir}"))
        }
        (None, Some(path)) => {
            let snap = SnapshotFile::read(Path::new(path))?;
            (None, Some(snap.payload), format!("--restore {path}"))
        }
        (None, None) => (None, None, String::new()),
    };
    let payload = restored
        .as_ref()
        .or_else(|| Some(&recovery.as_ref()?.recovered.snapshot.as_ref()?.payload));
    let (mut session, wire) = match payload {
        Some(payload) => {
            let failed = |e: &dyn std::fmt::Display| CliError::Failed(format!("{origin}: {e}"));
            let full: FullSnapshot = serde_json::from_value(payload).map_err(|e| failed(&e))?;
            sched.serve_restore(full.sched).map_err(|e| failed(&e))?;
            let session = ServeSession::restore(cluster, serve_cfg, &recorder, &full.engine)
                .map_err(|e| failed(&e))?;
            (session, full.wire)
        }
        None => (
            ServeSession::new(cluster, serve_cfg, &recorder).map_err(sim_err)?,
            WireStats::default(),
        ),
    };
    let durable = match recovery {
        Some(recovery) => {
            let snap_jobs = args.parse_or("snapshot-every-jobs", 256u64)?;
            let snap_secs = args.parse_or("snapshot-every-secs", 0.0f64)?;
            let resumed =
                recovery.resume(&mut session, &mut sched, &recorder, snap_jobs, snap_secs);
            Some(resumed.map_err(sim_err)?)
        }
        None => None,
    };
    wire_metrics.publish(&wire);

    let Input {
        mut reader,
        responses,
    } = open(args)?;
    let quarantine_path = match args.get("quarantine") {
        Some(p) => Some(PathBuf::from(p)),
        None => durable.as_ref().map(|d| d.data().quarantine_path()),
    };
    let mut stream = Stream {
        session,
        sched,
        durable,
        wire,
        wire_metrics,
        responder: Responder {
            out: responses,
            queued: Vec::new(),
        },
        quarantine: Quarantine {
            path: quarantine_path,
            cap: args.parse_or("quarantine-sample", 100u64)?,
            written: 0,
        },
    };
    if let Some(w) = stream.run(reader.as_mut())? {
        eprintln!("serve: warning: {w}");
    }

    // EOF: run the backlog to quiescence. `drain(∞)` returns — and leaves
    // the queue empty, so the snapshot below passes the quiescence check —
    // provided every job the session holds is eventually placed or
    // cancelled: the cycle chain re-arms for as long as anything is
    // pending. `admit` refuses the gangs no cycle could place (more tasks
    // than the cluster has nodes), and the wire injects no faults that
    // could take capacity away for good. In durable mode the drain is
    // journaled as a clock advance first (so a crash before the closing
    // snapshot still recovers it), then the closing snapshot truncates the
    // journal.
    stream
        .session
        .drain(f64::INFINITY, &mut stream.sched)
        .map_err(sim_err)?;
    if let Some(d) = &mut stream.durable {
        d.append(WalRecord::Clock {
            now: stream.session.now(),
        })?;
        stream.commit()?;
        stream.snapshot()?;
    }
    let Stream {
        session,
        sched,
        wire,
        ..
    } = stream;

    if let Some(path) = args.get("snapshot-out") {
        SnapshotFile {
            format_version: SNAPSHOT_FORMAT_VERSION,
            wal_seq: 0,
            wal_truncated_bytes: 0,
            payload: FullSnapshot::capture(&session, &sched, wire)?,
        }
        .write(Path::new(path))?;
    }
    let summary = session.summary();
    if let Some(path) = args.get("summary-json") {
        let json = serde_json::to_string_pretty(&summary).map_err(io_err)?;
        std::fs::write(path, json).map_err(io_err)?;
    }
    if let Some(path) = args.get("metrics-json") {
        std::fs::write(path, recorder.snapshot().to_stable_json()).map_err(io_err)?;
    }
    Ok(format!(
        "serve: submitted={} completed={} canceled={} retired={} live={} \
         cycles={} now={:.1}s slo_miss={:.1}% rejected={} quarantined={} digest={:016x}",
        summary.submitted,
        summary.completed,
        summary.canceled,
        summary.retired,
        summary.live,
        summary.cycles,
        summary.now,
        summary.slo_miss_pct,
        wire.rejected_total(),
        wire.quarantined,
        summary.digest,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;
    use threesigma_cluster::Wal;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "threesigma_serve_{name}_{}.json",
            std::process::id()
        ))
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("threesigma_serve_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The checked-in serve-smoke fixtures: six jobs early (with comment
    /// and blank lines), an idle gap long enough for them all to finish
    /// and retire, then four more at t = 2000. CI streams these same
    /// files through the release binary and `cmp`s the outputs.
    fn part1() -> String {
        fixture("serve_part1.jsonl")
    }

    fn part2() -> String {
        fixture("serve_part2.jsonl")
    }

    fn fixture(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        std::fs::read_to_string(path).unwrap()
    }

    fn serve(extra: &[&str]) -> Result<String, CliError> {
        let mut argv: Vec<String> = vec!["serve".into(), "--retention".into(), "50".into()];
        argv.extend(extra.iter().map(|s| (*s).to_owned()));
        dispatch(&Args::parse(argv).unwrap())
    }

    /// Drops the one genuinely process-local metric before comparing two
    /// runs' stable dumps (a straight-through run recovers nothing).
    fn filter_recovered(metrics: &str) -> String {
        metrics
            .lines()
            .filter(|l| !l.contains("wal_recovered_records"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn serve_streams_jobs_and_reports_summary() {
        let input = tmp("stream_in");
        std::fs::write(&input, format!("{}{}", part1(), part2())).unwrap();
        let out = serve(&["--input", input.to_str().unwrap()]).unwrap();
        assert!(out.contains("submitted=10"), "{out}");
        assert!(out.contains("completed=10"), "{out}");
        assert!(out.contains("rejected=0"), "{out}");
        assert!(out.contains("digest="), "{out}");
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn serve_snapshot_restore_reproduces_the_uninterrupted_run() {
        let files: Vec<_> = [
            "full_in",
            "p1_in",
            "p2_in",
            "snap",
            "m_full",
            "m_resumed",
            "s_full",
            "s_resumed",
        ]
        .iter()
        .map(|n| tmp(&format!("equiv_{n}")))
        .collect();
        let [full_in, p1_in, p2_in, snap, m_full, m_resumed, s_full, s_resumed] =
            <[_; 8]>::try_from(files.clone()).unwrap();
        std::fs::write(&full_in, format!("{}{}", part1(), part2())).unwrap();
        std::fs::write(&p1_in, part1()).unwrap();
        std::fs::write(&p2_in, part2()).unwrap();

        // Uninterrupted run.
        serve(&[
            "--input",
            full_in.to_str().unwrap(),
            "--metrics-json",
            m_full.to_str().unwrap(),
            "--summary-json",
            s_full.to_str().unwrap(),
        ])
        .unwrap();
        // Stream part 1, snapshot at the idle gap, "crash".
        serve(&[
            "--input",
            p1_in.to_str().unwrap(),
            "--snapshot-out",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        // Restore in a fresh process image and stream the remainder.
        serve(&[
            "--input",
            p2_in.to_str().unwrap(),
            "--restore",
            snap.to_str().unwrap(),
            "--metrics-json",
            m_resumed.to_str().unwrap(),
            "--summary-json",
            s_resumed.to_str().unwrap(),
        ])
        .unwrap();

        let metrics_full = std::fs::read(&m_full).unwrap();
        let metrics_resumed = std::fs::read(&m_resumed).unwrap();
        assert_eq!(
            metrics_full, metrics_resumed,
            "restored run must reproduce the uninterrupted metrics dump byte-for-byte"
        );
        let summary_full = std::fs::read(&s_full).unwrap();
        let summary_resumed = std::fs::read(&s_resumed).unwrap();
        assert_eq!(
            summary_full, summary_resumed,
            "restored run must reproduce the uninterrupted summary (incl. digest)"
        );
        for p in &files {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn malformed_lines_are_quarantined_with_line_numbers_not_fatal() {
        let input = tmp("poison_in");
        let qfile = tmp("poison_quarantine");
        let _ = std::fs::remove_file(&qfile);
        let lines = [
            "not json",
            "{\"id\":1,\"submit_time\":0,\"tasks\":1,\"duration\":5}",
            "{\"id\":1,\"tenant\":\"t\",\"submit_time\":0,\"tasks\":0,\"duration\":5}",
            "{\"id\":1,\"tenant\":\"t\",\"submit_time\":0,\"tasks\":1,\"duration\":5,\
             \"deadline\":-1}",
            "{\"id\":9,\"tenant\":\"t\",\"submit_time\":0,\"tasks\":1,\"duration\":5}",
        ];
        std::fs::write(&input, lines.join("\n") + "\n").unwrap();
        let out = serve(&[
            "--input",
            input.to_str().unwrap(),
            "--quarantine",
            qfile.to_str().unwrap(),
        ])
        .unwrap();
        // Poison lines never kill the stream: the one good job still runs.
        assert!(out.contains("submitted=1"), "{out}");
        assert!(out.contains("rejected=4"), "{out}");
        assert!(out.contains("quarantined=4"), "{out}");
        let quarantined = std::fs::read_to_string(&qfile).unwrap();
        assert_eq!(quarantined.lines().count(), 4, "{quarantined}");
        for needle in ["\"line\":1", "tenant", "tasks", "deadline"] {
            assert!(quarantined.contains(needle), "{needle}: {quarantined}");
        }
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(qfile);
    }

    #[test]
    fn overload_burst_is_rejected_typed_and_the_session_stays_up() {
        let input = tmp("burst_in");
        let metrics = tmp("burst_metrics");
        // A 2x burst against --max-queue 4: twelve long jobs land while
        // nothing can finish, so eight are rejected as queue_full.
        let mut lines = String::new();
        for i in 0..12u64 {
            lines.push_str(&format!(
                "{{\"id\":{i},\"tenant\":\"acme\",\"submit_time\":{}.0,\"tasks\":1,\
                 \"duration\":500.0}}\n",
                i
            ));
        }
        std::fs::write(&input, lines).unwrap();
        let out = serve(&[
            "--input",
            input.to_str().unwrap(),
            "--max-queue",
            "4",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        // The process stayed up, every accepted job reached a terminal
        // outcome, and the rejections are typed and counted.
        assert!(out.contains("submitted=4"), "{out}");
        assert!(out.contains("completed=4"), "{out}");
        assert!(out.contains("rejected=8"), "{out}");
        let dump = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            dump.contains("\"serve_rejected_queue_full_total\": 8"),
            "{dump}"
        );
        assert!(dump.contains("\"serve_rejected_total\": 8"), "{dump}");
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(metrics);
    }

    #[test]
    fn tenant_quota_rejections_are_per_tenant() {
        let input = tmp("quota_in");
        // Tenants alternate; each may hold two jobs in flight.
        let mut lines = String::new();
        for i in 0..8u64 {
            let tenant = if i % 2 == 0 { "a" } else { "b" };
            lines.push_str(&format!(
                "{{\"id\":{i},\"tenant\":\"{tenant}\",\"submit_time\":{i}.0,\"tasks\":1,\
                 \"duration\":500.0}}\n"
            ));
        }
        std::fs::write(&input, lines).unwrap();
        let out = serve(&["--input", input.to_str().unwrap(), "--tenant-quota", "2"]).unwrap();
        assert!(out.contains("submitted=4"), "{out}");
        assert!(out.contains("rejected=4"), "{out}");
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn data_dir_crash_recovery_matches_the_straight_through_run() {
        let dir_straight = tmpdir("dd_straight");
        let dir_crashed = tmpdir("dd_crashed");
        let files: Vec<_> = ["full_in", "rest_in", "m_a", "m_b", "s_a", "s_b"]
            .iter()
            .map(|n| tmp(&format!("dd_{n}")))
            .collect();
        let [full_in, rest_in, m_a, m_b, s_a, s_b] = <[_; 6]>::try_from(files.clone()).unwrap();

        let stream = format!("{}{}", part1(), part2());
        let job_lines: Vec<&str> = stream
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        std::fs::write(&full_in, job_lines.join("\n") + "\n").unwrap();

        // Straight-through durable run.
        serve(&[
            "--data-dir",
            dir_straight.to_str().unwrap(),
            "--snapshot-every-jobs",
            "3",
            "--input",
            full_in.to_str().unwrap(),
            "--metrics-json",
            m_a.to_str().unwrap(),
            "--summary-json",
            s_a.to_str().unwrap(),
        ])
        .unwrap();

        // Simulate a crash after the fourth acknowledged job: the journal
        // holds exactly those records, no snapshot was ever written, and
        // the process never reached EOF.
        const KILL_AT: usize = 4;
        let data = DataDir::open(&dir_crashed).unwrap();
        let (mut wal, _) = Wal::open(&data.journal_path(), true).unwrap();
        for line in &job_lines[..KILL_AT] {
            let spec = parse_wire_job(line, 1).unwrap();
            wal.append(WalRecord::Job(spec)).unwrap();
        }
        drop(wal);
        std::fs::write(&rest_in, job_lines[KILL_AT..].join("\n") + "\n").unwrap();

        // Recover and finish the stream.
        serve(&[
            "--data-dir",
            dir_crashed.to_str().unwrap(),
            "--snapshot-every-jobs",
            "3",
            "--input",
            rest_in.to_str().unwrap(),
            "--metrics-json",
            m_b.to_str().unwrap(),
            "--summary-json",
            s_b.to_str().unwrap(),
        ])
        .unwrap();

        let summary_a = std::fs::read(&s_a).unwrap();
        let summary_b = std::fs::read(&s_b).unwrap();
        assert_eq!(
            summary_a, summary_b,
            "recovered run must reproduce the straight-through summary (incl. digest)"
        );
        let metrics_a = filter_recovered(&std::fs::read_to_string(&m_a).unwrap());
        let metrics_b = filter_recovered(&std::fs::read_to_string(&m_b).unwrap());
        assert_eq!(
            metrics_a, metrics_b,
            "recovered run must reproduce the straight-through metrics (modulo \
             wal_recovered_records)"
        );
        assert!(
            metrics_b.contains("wal_appended_records_total"),
            "{metrics_b}"
        );
        for p in &files {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(dir_straight);
        let _ = std::fs::remove_dir_all(dir_crashed);
    }

    /// The `--snapshot-out` envelope this build writes after part 1.
    fn part1_envelope(tag: &str) -> SnapshotFile {
        let (input, snap) = (tmp(&format!("{tag}_in")), tmp(&format!("{tag}_out")));
        std::fs::write(&input, part1()).unwrap();
        let (input_arg, snap_arg) = (input.to_str().unwrap(), snap.to_str().unwrap());
        serve(&["--input", input_arg, "--snapshot-out", snap_arg]).unwrap();
        let envelope = serde_json::from_str(&std::fs::read_to_string(&snap).unwrap()).unwrap();
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(snap);
        envelope
    }

    /// Starts serve with `flag path` and returns the version its typed
    /// refusal reports (the refusal comes before any input is read).
    fn refused_version(flag: &str, path: &Path) -> u32 {
        match serve(&[flag, path.to_str().unwrap()]).unwrap_err() {
            CliError::SnapshotVersion {
                found,
                supported: SNAPSHOT_FORMAT_VERSION,
                ..
            } => found,
            other => panic!("expected a version refusal: {other}"),
        }
    }

    #[test]
    fn restore_refuses_newer_snapshot_versions_with_a_typed_error() {
        let mut envelope = part1_envelope("ver");
        assert_eq!(envelope.format_version, SNAPSHOT_FORMAT_VERSION);
        envelope.format_version = 99;
        let snap = tmp("ver_snap");
        std::fs::write(&snap, serde_json::to_string(&envelope).unwrap()).unwrap();
        assert_eq!(refused_version("--restore", &snap), 99);
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn snapshot_layouts_of_older_builds_are_refused_with_a_typed_error() {
        // The two layouts older builds wrote, rebuilt around this build's
        // payload: `--snapshot-out` wrote a bare version-2 `FullSnapshot`
        // (its engine part versioned 2 as well), and a data directory held
        // that inside a version-1 envelope.
        let payload = serde_json::to_string(&part1_envelope("old").payload).unwrap();
        let bare_v2 = payload.replacen(
            "{\"engine\":{",
            "{\"format_version\":2,\"engine\":{\"version\":2,",
            1,
        );
        assert_ne!(bare_v2, payload);
        let snap = tmp("old_snap");
        std::fs::write(&snap, &bare_v2).unwrap();
        assert_eq!(refused_version("--restore", &snap), 2);
        let dir = tmpdir("old_dir");
        let v1 = format!(
            "{{\"format_version\":1,\"wal_seq\":0,\"wal_truncated_bytes\":0,\"payload\":{bare_v2}}}"
        );
        std::fs::write(dir.join("snapshot-00000000000000000000.json"), v1).unwrap();
        assert_eq!(refused_version("--data-dir", &dir), 1);
        let _ = std::fs::remove_file(snap);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn data_dir_and_restore_are_mutually_exclusive() {
        let dir = tmpdir("excl");
        let err = serve(&[
            "--data-dir",
            dir.to_str().unwrap(),
            "--restore",
            "/nonexistent.json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wire_durations_past_thirty_days_are_rejected() {
        let line = |duration: &str| {
            format!(
                "{{\"id\":1,\"tenant\":\"acme\",\"submit_time\":0,\"tasks\":1,\
                 \"duration\":{duration}}}"
            )
        };
        let spec = parse_wire_job(&line("2592000"), 1).unwrap();
        assert_eq!(spec.duration, MAX_DURATION);
        for duration in ["2592000.5", "1e7", "1e8", "1e308"] {
            let err = parse_wire_job(&line(duration), 3).unwrap_err().to_string();
            assert!(
                err.contains("input line 3") && err.contains("`duration`"),
                "{err}"
            );
        }
    }

    #[test]
    fn an_overlong_duration_is_quarantined_and_serve_exits_promptly() {
        // A 1e308 s job would keep the session cycling for as long as it
        // runs; refused at the wire, the stream drains like any other.
        let input = tmp("overlong_in");
        std::fs::write(
            &input,
            "{\"id\":1,\"tenant\":\"acme\",\"submit_time\":0,\"tasks\":1,\"duration\":1e308}\n\
             {\"id\":2,\"tenant\":\"acme\",\"submit_time\":1,\"tasks\":1,\"duration\":30}\n",
        )
        .unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let arg = input.to_str().unwrap().to_owned();
        let server = std::thread::spawn(move || {
            let _ = done.send(serve(&["--input", &arg]));
        });
        let out = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("serve drains a two-line stream within a minute")
            .unwrap();
        server.join().unwrap();
        assert!(out.contains("submitted=1"), "{out}");
        assert!(out.contains("completed=1"), "{out}");
        assert!(out.contains("rejected=1"), "{out}");
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn wire_jobs_mirror_tenant_into_the_user_feature_unless_overridden() {
        let spec = parse_wire_job(
            "{\"id\":7,\"tenant\":\"acme\",\"submit_time\":1,\"tasks\":2,\"duration\":9}",
            1,
        )
        .unwrap();
        assert_eq!(spec.attributes.get("tenant"), Some("acme"));
        assert_eq!(spec.attributes.get("user"), Some("acme"));
        let spec = parse_wire_job(
            "{\"id\":8,\"tenant\":\"acme\",\"user\":\"alice\",\"submit_time\":1,\
             \"tasks\":2,\"duration\":9}",
            1,
        )
        .unwrap();
        assert_eq!(spec.attributes.get("tenant"), Some("acme"));
        assert_eq!(spec.attributes.get("user"), Some("alice"));
    }

    #[test]
    fn serve_accepts_one_tcp_connection_and_echoes_typed_responses() {
        use std::io::Read;
        // Pick a free port, then hand it to --listen. The probe listener is
        // dropped first; nothing else in this process binds ports.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || serve(&["--listen", &addr]).unwrap())
        };
        // Retry until the server thread is accepting.
        let mut conn = None;
        for _ in 0..200 {
            match std::net::TcpStream::connect(&addr) {
                Ok(c) => {
                    conn = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut conn = conn.expect("server did not start listening");
        conn.write_all(part1().as_bytes()).unwrap();
        // Kill the client mid-line: the torn tail must be discarded, the
        // six complete jobs processed, and the session must still produce
        // its summary.
        conn.write_all(b"{\"id\":99,\"tenant\":\"torn").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut responses = String::new();
        conn.read_to_string(&mut responses).unwrap();
        let out = server.join().unwrap();
        assert!(out.contains("submitted=6"), "{out}");
        assert_eq!(
            responses
                .lines()
                .filter(|l| l.contains("\"status\":\"accepted\""))
                .count(),
            6,
            "{responses}"
        );
        assert!(responses.contains("\"id\":1"), "{responses}");
    }

    #[test]
    fn tcp_rejections_carry_typed_reasons_on_the_wire() {
        use std::io::Read;
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || serve(&["--listen", &addr, "--max-queue", "1"]).unwrap())
        };
        let mut conn = None;
        for _ in 0..200 {
            match std::net::TcpStream::connect(&addr) {
                Ok(c) => {
                    conn = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut conn = conn.expect("server did not start listening");
        let lines = "not json\n\
            {\"id\":1,\"tenant\":\"t\",\"submit_time\":0.0,\"tasks\":1,\"duration\":400.0}\n\
            {\"id\":2,\"tenant\":\"t\",\"submit_time\":1.0,\"tasks\":1,\"duration\":400.0}\n";
        conn.write_all(lines.as_bytes()).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut responses = String::new();
        conn.read_to_string(&mut responses).unwrap();
        let out = server.join().unwrap();
        assert!(out.contains("submitted=1"), "{out}");
        assert!(out.contains("rejected=2"), "{out}");
        assert!(
            responses.contains("\"reason\":\"malformed\""),
            "{responses}"
        );
        assert!(
            responses.contains("\"reason\":\"queue_full\""),
            "{responses}"
        );
        assert!(responses.contains("\"status\":\"accepted\""), "{responses}");
    }
}

/// The batch input loop, driven through an in-memory `Read` that yields
/// chosen chunk boundaries and a recording `Write` in place of the socket.
#[cfg(test)]
mod batch_loop {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::path::Path;
    use std::rc::Rc;
    use threesigma_cluster::wal::decode_journal;

    /// Hands the stream out in reads of the given lengths (cycled), each
    /// capped by the caller's buffer.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        lens: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let len = self.lens[self.reads % self.lens.len()];
            let n = len.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.reads += 1;
            Ok(n)
        }
    }

    /// What the "socket" saw: each `write` call's bytes, and the state of
    /// the data directory on disk at that moment.
    #[derive(Debug, Default, Clone)]
    struct Wire {
        writes: Vec<Vec<u8>>,
        journal_at_write: Vec<Vec<u8>>,
        snapshots_at_write: Vec<BTreeSet<String>>,
    }

    struct Recording {
        wire: Rc<RefCell<Wire>>,
        data_dir: PathBuf,
    }

    fn snapshot_names(dir: &Path) -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snapshot-") && n.ends_with(".json"))
            .collect()
    }

    impl Write for Recording {
        /// Journal-before-ack, checked at the moment of the ack: every
        /// `seq` in the bytes being written already decodes from the
        /// journal file on disk.
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let journal = std::fs::read(self.data_dir.join("journal.wal")).unwrap();
            let durable: BTreeSet<u64> = decode_journal(&journal)
                .entries
                .iter()
                .map(|e| e.seq)
                .collect();
            for line in std::str::from_utf8(buf).unwrap().lines() {
                let v: Value = serde_json::from_str(line).unwrap();
                if let Some(seq) = v.get("seq").and_then(Value::as_u64) {
                    assert!(
                        durable.contains(&seq),
                        "ack for seq {seq} written before its record is in the journal \
                         (on disk: {durable:?})"
                    );
                }
            }
            let mut wire = self.wire.borrow_mut();
            wire.writes.push(buf.to_vec());
            wire.journal_at_write.push(journal);
            wire.snapshots_at_write.push(snapshot_names(&self.data_dir));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Everything a run leaves behind that must not depend on where the
    /// reads happened to end.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        line: String,
        summary: String,
        metrics: String,
        quarantine: String,
        snapshots: Vec<(String, Vec<u8>)>,
        responses: Vec<u8>,
        last_journal: Vec<u8>,
    }

    /// Streams `data` through `serve --data-dir` in reads of `lens` bytes,
    /// under the connection rules (`tcp`) or the file rules.
    fn run(tag: &str, data: &[u8], lens: &[usize], tcp: bool, extra: &[&str]) -> (Outcome, Wire) {
        let dir = std::env::temp_dir().join(format!(
            "threesigma_batch_{tag}_{}_{tcp}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data_dir = dir.join("data");
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let mut argv: Vec<String> = [
            "serve",
            "--retention",
            "50",
            "--no-fsync",
            "--data-dir",
            &path("data"),
            "--summary-json",
            &path("summary.json"),
            "--metrics-json",
            &path("metrics.json"),
        ]
        .map(String::from)
        .to_vec();
        argv.extend(extra.iter().map(|s| (*s).to_owned()));
        let wire = Rc::new(RefCell::new(Wire::default()));
        let line = serve_on(&Args::parse(argv).unwrap(), |_| {
            let responses = tcp.then(|| {
                Box::new(Recording {
                    wire: Rc::clone(&wire),
                    data_dir: data_dir.clone(),
                }) as Box<dyn Write>
            });
            Ok(Input {
                reader: Box::new(Chunked {
                    data: data.to_vec(),
                    pos: 0,
                    lens: lens.to_vec(),
                    reads: 0,
                }),
                responses,
            })
        })
        .unwrap();
        let wire = wire.borrow().clone();
        let outcome = Outcome {
            line,
            summary: std::fs::read_to_string(path("summary.json")).unwrap(),
            metrics: std::fs::read_to_string(path("metrics.json")).unwrap(),
            quarantine: std::fs::read_to_string(data_dir.join("quarantine.jsonl"))
                .unwrap_or_default(),
            snapshots: snapshot_names(&data_dir)
                .into_iter()
                .map(|n| {
                    let bytes = std::fs::read(data_dir.join(&n)).unwrap();
                    (n, bytes)
                })
                .collect(),
            responses: wire.writes.concat(),
            last_journal: wire.journal_at_write.last().cloned().unwrap_or_default(),
        };
        let _ = std::fs::remove_dir_all(&dir);
        (outcome, wire)
    }

    /// Read lengths that deliver `data` one line per read (an
    /// unterminated tail is its own read).
    fn line_lens(data: &[u8]) -> Vec<usize> {
        data.split_inclusive(|&b| b == b'\n')
            .map(<[u8]>::len)
            .collect()
    }

    fn job(id: u64, submit: u64, duration: u64) -> String {
        format!(
            "{{\"id\":{id},\"tenant\":\"t{}\",\"submit_time\":{submit},\"tasks\":2,\
             \"duration\":{duration}}}",
            id % 3
        )
    }

    fn responses(bytes: &[u8]) -> Vec<Value> {
        std::str::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    proptest! {
        /// (a) The same byte stream split at arbitrary read boundaries —
        /// mid-line, inside a CRLF, around blank and comment lines, with
        /// or without an unterminated tail, under the file and the TCP
        /// tail rule — leaves the same responses, journal, snapshots,
        /// summary digest and metrics as one line per read. (b) rides
        /// along: `Recording::write` checks every ack against the disk.
        #[test]
        fn read_boundaries_do_not_change_any_output(
            kinds in prop::collection::vec(0u8..10, 1..24),
            gaps in prop::collection::vec(0u64..400, 24),
            lens in prop::collection::vec(1usize..180, 1..12),
            tail in 0u8..3,
        ) {
            let mut data = Vec::new();
            let (mut id, mut now) = (0u64, 0u64);
            for (kind, gap) in kinds.iter().zip(&gaps) {
                now += gap;
                id += 1;
                match kind {
                    0 => data.extend_from_slice(b"\n"),
                    1 => data.extend_from_slice(b"# a comment\n"),
                    2 => data.extend_from_slice(b"{\"id\":oops\n"),
                    3 => data.extend_from_slice(b"\xff\xfe not utf-8\n"),
                    // A live id again, or an earlier submit_time: rejected
                    // by admission, not by the parser.
                    4 => data.extend_from_slice(format!("{}\n", job(id - 1, now, 500)).as_bytes()),
                    5 => data.extend_from_slice(
                        format!("{}\n", job(id, now.saturating_sub(1000), 20)).as_bytes(),
                    ),
                    6 => data.extend_from_slice(format!("{}\r\n", job(id, now, 20)).as_bytes()),
                    _ => data.extend_from_slice(format!("{}\n", job(id, now, 20)).as_bytes()),
                }
            }
            match tail {
                0 => {}
                1 => data.extend_from_slice(job(id + 1, now + 1, 20).as_bytes()),
                _ => data.extend_from_slice(b"{\"id\":77,\"tenant\":\"torn"),
            }
            let extra = ["--snapshot-every-jobs", "4"];
            for tcp in [false, true] {
                let (by_line, _) = run("prop_ref", &data, &line_lens(&data), tcp, &extra);
                let (chunked, _) = run("prop_cut", &data, &lens, tcp, &extra);
                prop_assert_eq!(&by_line, &chunked);
                let (one_read, _) = run("prop_one", &data, &[usize::MAX], tcp, &extra);
                prop_assert_eq!(&by_line, &one_read);
            }
        }
    }

    /// (c) One response write per commit, and rejections stay in line
    /// order between the acceptances around them.
    #[test]
    fn each_commit_writes_its_responses_once_in_line_order() {
        let lines = [
            job(1, 0, 500),
            "not json".to_owned(),
            job(2, 1, 500),
            job(1, 2, 500), // duplicate of a live id
            "# comment".to_owned(),
            job(3, 3, 500),
            job(4, 4, 500),
        ];
        let lens: Vec<usize> = lines.iter().map(|l| l.len() + 1).collect();
        let data = (lines.join("\n") + "\n").into_bytes();
        // Three reads: lines 1-3, lines 4-6, line 7.
        let reads = [
            lens[..3].iter().sum::<usize>(),
            lens[3..6].iter().sum(),
            lens[6],
        ];
        let (_, wire) = run("once", &data, &reads, true, &["--snapshot-every-jobs", "0"]);
        assert_eq!(wire.writes.len(), 3, "{wire:?}");
        let seen: Vec<Vec<(u64, String)>> = wire
            .writes
            .iter()
            .map(|w| {
                responses(w)
                    .iter()
                    .map(|v| {
                        let status = v.get("status").and_then(Value::as_str).unwrap();
                        let reason = v.get("reason").and_then(Value::as_str).unwrap_or(status);
                        (
                            v.get("line").and_then(Value::as_u64).unwrap(),
                            reason.to_owned(),
                        )
                    })
                    .collect()
            })
            .collect();
        let want = |items: &[(u64, &str)]| -> Vec<(u64, String)> {
            items.iter().map(|(n, s)| (*n, (*s).to_owned())).collect()
        };
        assert_eq!(
            seen[0],
            want(&[(1, "accepted"), (2, "malformed"), (3, "accepted")])
        );
        assert_eq!(seen[1], want(&[(4, "duplicate"), (6, "accepted")]));
        assert_eq!(seen[2], want(&[(7, "accepted")]));
        // One journal write per commit too: each batch's records appear
        // on disk together, exactly at its response write.
        let records: Vec<usize> = wire
            .journal_at_write
            .iter()
            .map(|j| decode_journal(j).entries.len())
            .collect();
        assert_eq!(records, [2, 3, 4]);
    }

    /// (d) An auto-snapshot that falls due in the middle of a batch
    /// commits the batch so far, then snapshots, at the same stream
    /// positions as ten single-line reads.
    #[test]
    fn mid_batch_snapshot_commits_first_and_lands_where_single_reads_put_it() {
        let data: Vec<u8> = (1..=10u64)
            .map(|i| format!("{}\n", job(i, i * 1000, 20)))
            .collect::<String>()
            .into_bytes();
        let extra = ["--snapshot-every-jobs", "3"];
        let (one, wire_one) = run("snap_one", &data, &[usize::MAX], true, &extra);
        let (ten, wire_ten) = run("snap_ten", &data, &line_lens(&data), true, &extra);
        assert_eq!(one, ten);
        // The one read is split into four commits by the three snapshots
        // that fall due before lines 4, 7 and 10.
        let lines_per_write: Vec<usize> =
            wire_one.writes.iter().map(|w| responses(w).len()).collect();
        assert_eq!(lines_per_write, [3, 3, 3, 1]);
        assert_eq!(wire_ten.writes.len(), 10);
        // Commit first: when the acks for lines 1-3 are written their
        // records are in the journal and no snapshot covers them yet.
        assert_eq!(
            decode_journal(&wire_one.journal_at_write[0]).entries.len(),
            3
        );
        assert!(wire_one.snapshots_at_write[0].is_empty());
        // Same positions: every snapshot either run ever had on disk.
        let ever = |wire: &Wire, out: &Outcome| -> BTreeSet<String> {
            let mut all: BTreeSet<String> =
                wire.snapshots_at_write.iter().flatten().cloned().collect();
            all.extend(out.snapshots.iter().map(|(n, _)| n.clone()));
            all
        };
        let positions = ever(&wire_one, &one);
        assert_eq!(positions, ever(&wire_ten, &ten));
        let watermarks: Vec<u64> = positions
            .iter()
            .map(|n| {
                n["snapshot-".len()..n.len() - ".json".len()]
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(watermarks, [3, 6, 9, 11]);
    }

    /// A newline-free flood is rejected once, without being buffered, and
    /// the stream resynchronises: the job after it is accepted under its
    /// own line number.
    #[test]
    fn overlong_line_is_rejected_and_the_stream_resyncs() {
        let mut data = vec![b'x'; 4 * MAX_LINE_BYTES];
        data.push(b'\n');
        data.extend_from_slice(format!("{}\n", job(9, 0, 20)).as_bytes());
        // A complete line just over the cap takes the other detection path
        // (seen whole in the buffer) and must be rejected the same way.
        data.extend_from_slice(&vec![b'y'; MAX_LINE_BYTES + 1]);
        data.push(b'\n');
        data.extend_from_slice(format!("{}\n", job(10, 1, 20)).as_bytes());
        let fitting = MAX_LINE_BYTES + 2;
        for lens in [vec![usize::MAX], vec![1000], vec![fitting]] {
            let (out, wire) = run("long", &data, &lens, true, &[]);
            assert!(out.line.contains("submitted=2"), "{}", out.line);
            assert!(out.line.contains("rejected=2"), "{}", out.line);
            let got = responses(&wire.writes.concat());
            let field = |i: usize, key: &str| got[i].get(key).cloned().unwrap();
            assert_eq!(got.len(), 4, "{got:?}");
            assert_eq!(field(0, "line"), Value::UInt(1));
            assert_eq!(field(0, "reason"), Value::String("malformed".into()));
            assert_eq!(field(0, "detail"), Value::String("line too long".into()));
            assert_eq!(field(1, "line"), Value::UInt(2));
            assert_eq!(field(1, "status"), Value::String("accepted".into()));
            assert_eq!(field(1, "id"), Value::UInt(9));
            assert_eq!(field(2, "line"), Value::UInt(3));
            assert_eq!(field(2, "detail"), Value::String("line too long".into()));
            assert_eq!(field(3, "line"), Value::UInt(4));
            assert_eq!(field(3, "id"), Value::UInt(10));
            // The quarantine sample is truncated, not the whole flood.
            let samples: Vec<Value> = out
                .quarantine
                .lines()
                .map(|l| serde_json::from_str(l).unwrap())
                .collect();
            assert_eq!(samples.len(), 2);
            for (sample, byte) in samples.iter().zip(["x", "y"]) {
                let raw = sample.get("raw").and_then(Value::as_str).unwrap();
                assert_eq!(raw, byte.repeat(LONG_LINE_SAMPLE_BYTES));
            }
        }
        // A line of exactly the cap is still parsed (and found malformed
        // for what it is, not for its length).
        let mut data = vec![b'z'; MAX_LINE_BYTES];
        data.push(b'\n');
        let (_, wire) = run("cap", &data, &[usize::MAX], true, &[]);
        let got = responses(&wire.writes.concat());
        let detail = got[0].get("detail").and_then(Value::as_str).unwrap();
        assert!(detail.contains("not JSON"), "{detail}");
    }

    /// A gang larger than the whole cluster can never be placed; taken in,
    /// it would keep the cycle chain alive forever and the EOF drain (or
    /// the pump ahead of a later line) would never return. It is rejected
    /// under its own line number, the stream goes on, and EOF is reached.
    #[test]
    fn oversized_gang_is_rejected_and_the_stream_reaches_eof() {
        let oversized =
            "{\"id\":1,\"tenant\":\"t\",\"submit_time\":0.0,\"tasks\":100000,\"duration\":120.0}";
        let data = format!("{oversized}\n{}\n{}\n", job(2, 1, 20), job(3, 100_000, 20));
        let (out, wire) = run("oversized", data.as_bytes(), &[usize::MAX], true, &[]);
        assert!(out.line.contains("submitted=2"), "{}", out.line);
        assert!(out.line.contains("completed=2"), "{}", out.line);
        assert!(out.line.contains("rejected=1"), "{}", out.line);
        assert!(
            out.metrics
                .contains("\"serve_rejected_malformed_total\": 1"),
            "{}",
            out.metrics
        );
        let got = responses(&wire.writes.concat());
        let field = |i: usize, key: &str| got[i].get(key).cloned().unwrap();
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(field(0, "line"), Value::UInt(1));
        assert_eq!(field(0, "id"), Value::UInt(1));
        assert_eq!(field(0, "status"), Value::String("rejected".into()));
        assert_eq!(field(0, "reason"), Value::String("malformed".into()));
        let detail = field(0, "detail");
        let detail = detail.as_str().unwrap();
        assert!(detail.contains("exceeds cluster capacity"), "{detail}");
        for (i, (line, id)) in [(2, 2), (3, 3)].into_iter().enumerate() {
            assert_eq!(field(i + 1, "status"), Value::String("accepted".into()));
            assert_eq!(field(i + 1, "line"), Value::UInt(line));
            assert_eq!(field(i + 1, "id"), Value::UInt(id));
        }
    }

    /// 200,000 `[` on one line fit the line cap but used to recurse the
    /// JSON parser off the end of the stack, aborting the process past
    /// every typed rejection. The parser now refuses the nesting, so the
    /// line is one more malformed line: rejected, sampled, and the job
    /// after it is accepted under its own line number.
    #[test]
    fn deeply_nested_line_is_rejected_and_the_stream_goes_on() {
        let data = format!("{}\n{}\n", "[".repeat(200_000), job(2, 1, 20));
        let (out, wire) = run("nested", data.as_bytes(), &[usize::MAX], true, &[]);
        assert!(out.line.contains("submitted=1"), "{}", out.line);
        assert!(out.line.contains("completed=1"), "{}", out.line);
        assert!(out.line.contains("rejected=1"), "{}", out.line);
        assert!(out.line.contains("quarantined=1"), "{}", out.line);
        assert_eq!(out.quarantine.lines().count(), 1);
        let got = responses(&wire.writes.concat());
        let field = |i: usize, key: &str| got[i].get(key).cloned().unwrap();
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(field(0, "line"), Value::UInt(1));
        assert_eq!(field(0, "status"), Value::String("rejected".into()));
        assert_eq!(field(0, "reason"), Value::String("malformed".into()));
        let detail = field(0, "detail");
        let detail = detail.as_str().unwrap();
        assert!(detail.contains("recursion limit"), "{detail}");
        assert_eq!(field(1, "line"), Value::UInt(2));
        assert_eq!(field(1, "status"), Value::String("accepted".into()));
        assert_eq!(field(1, "id"), Value::UInt(2));
    }
}

/// Property tests: the wire job parser is total. Every byte string a
/// client can put on one line must come back as `Ok` or a typed
/// `Malformed` rejection — never a panic, since a poison line must not
/// take down the serve process.
#[cfg(test)]
mod parser_props {
    use super::*;
    use proptest::prelude::*;

    /// A well-formed wire line built from flat samples.
    fn valid_line(id: u64, submit: f64, tasks: u64, duration: f64, slo: bool) -> String {
        let deadline = if slo {
            format!(",\"deadline\":{}", submit + duration * 4.0 + 1.0)
        } else {
            String::new()
        };
        format!(
            "{{\"id\":{id},\"tenant\":\"t{}\",\"submit_time\":{submit},\"tasks\":{tasks},\
             \"duration\":{duration},\"team\":\"x\"{deadline}}}",
            id % 9
        )
    }

    proptest! {
        /// Arbitrary bytes (lossily decoded, as the serve loop does)
        /// never panic the parser.
        #[test]
        fn arbitrary_lines_never_panic(raw in prop::collection::vec(0u16..256, 0..200)) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let line = String::from_utf8_lossy(&bytes);
            let _ = parse_wire_job(&line, 1);
        }

        /// Well-formed lines parse to exactly the sampled fields.
        #[test]
        fn valid_lines_round_trip(
            id in 0u64..1_000_000,
            submit in 0.0f64..100_000.0,
            tasks in 1u64..4_096,
            duration in 0.001f64..100_000.0,
            slo in 0u8..2,
        ) {
            let line = valid_line(id, submit, tasks, duration, slo == 1);
            let spec = parse_wire_job(&line, 1).expect("well-formed line parses");
            prop_assert_eq!(spec.id.0, id);
            prop_assert_eq!(spec.tasks, tasks as u32);
            prop_assert_eq!(spec.attributes.get("team"), Some("x"));
            prop_assert_eq!(matches!(spec.kind, JobKind::Slo { .. }), slo == 1);
        }

        /// Mutations of a valid line — truncation, a flipped byte, or a
        /// duplicated span — never panic; whatever still parses satisfies
        /// the same field invariants admission relies on.
        #[test]
        fn mutated_lines_never_panic(
            id in 0u64..1_000_000,
            submit in 0.0f64..100_000.0,
            tasks in 1u64..4_096,
            duration in 0.001f64..100_000.0,
            mode in 0u8..3,
            pos_frac in 0.0f64..1.0,
            byte in 0u16..256,
        ) {
            let mut bytes = valid_line(id, submit, tasks, duration, true).into_bytes();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            match mode {
                0 => bytes.truncate(pos),
                1 => bytes[pos] = byte as u8,
                _ => {
                    let span = bytes[pos..].to_vec();
                    bytes.extend_from_slice(&span);
                }
            }
            let line = String::from_utf8_lossy(&bytes).into_owned();
            if let Ok(spec) = parse_wire_job(&line, 7) {
                prop_assert!(spec.tasks >= 1);
                prop_assert!(spec.duration.is_finite() && spec.duration > 0.0);
                prop_assert!(spec.submit_time.is_finite() && spec.submit_time >= 0.0);
                prop_assert!(spec.attributes.get("tenant").is_some());
            }
        }
    }
}
