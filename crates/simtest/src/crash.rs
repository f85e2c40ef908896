//! Crash-injection campaign for the durable serve stack.
//!
//! Each kill point runs the same deterministic job/fault stream twice:
//!
//! 1. **Reference** — straight through one durable session (journal +
//!    auto-snapshots in a scratch data directory), drained to quiescence.
//! 2. **Victim** — the stream is cut at a seeded step index and the
//!    process is dropped *without* a final commit, snapshot or journal
//!    truncation (the in-process equivalent of `kill -9`). Steps fed since
//!    its last commit were never durable, so never acknowledged, and are
//!    lost with it. A third of the kill points additionally corrupt the
//!    journal tail — garbage bytes or a half-written frame — to model a
//!    write torn by the crash itself. A fresh process then recovers from
//!    the data directory, must hold exactly the steps through the last
//!    commit, consumes the rest of the stream from there, and finishes.
//!
//! The campaign fails unless, at every kill point, the recovered run's
//! [`ServeSummary`] (including its outcome digest) and its byte-stable
//! metrics dump equal the reference's. Only `wal_recovered_records` is
//! filtered before comparison — it is genuinely process-local (zero on a
//! straight-through run). Every other durability counter is lifetime-
//! valued by construction and must survive the crash exactly.
//!
//! Every process runs [`Durable`], the journal/snapshot/recovery code
//! `threesigma serve --data-dir` runs, in the serve loop's order: admit →
//! pump → (commit, then snapshot, if one is due and the session is
//! quiescent — *before* journaling the new record) → journal → apply. Like
//! the serve loop, which commits once per `read()`, a process commits
//! (one journal sync) once per seeded batch of 1–`MAX_BATCH` steps.
//! Faults and the final clock edge are journaled the same way, so replay
//! reconstructs the exact event history.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::{Path, PathBuf};
use threesigma::{EstimateSource, SchedConfig, SchedSnapshot, ThreeSigmaScheduler};
use threesigma_cluster::wal::encode_frame;
use threesigma_cluster::{
    Attributes, ClusterSpec, DataDir, Durable, FaultEvent, JobKind, JobSpec, PartitionId,
    ServeConfig, ServeSession, ServeSnapshot, ServeSummary, WalEntry, WalRecord,
};
use threesigma_obs::Recorder;

/// Estimate-cache capacity (small, so eviction churn is part of the state
/// being checkpointed).
const CACHE_CAP: usize = 8;
/// Predictor per-feature-value state cap.
const PREDICTOR_CAP: usize = 512;
/// Distinct tenants in the stream.
const TENANTS: u64 = 60;
/// Jobs per arrival burst.
const BURST: usize = 12;
/// Seconds between bursts.
const BURST_GAP: f64 = 24.0;
/// Every 4th burst is preceded by a long idle gap — enough for every
/// in-flight job (runtime ≤ 60 s) to finish, so the session reaches
/// quiescence and the auto-snapshot policy can land a checkpoint.
const IDLE_GAP: f64 = 900.0;
/// Auto-snapshot threshold (journal records since the last snapshot).
const SNAP_EVERY: u64 = 20;
/// Most steps one commit covers.
const MAX_BATCH: u64 = 4;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CrashConfig {
    /// Jobs in the deterministic stream.
    pub total_jobs: u64,
    /// Seeded kill points to exercise (each is a full recovered run).
    pub kill_points: usize,
    /// Seed for both the stream and the kill-point choices.
    pub seed: u64,
}

impl Default for CrashConfig {
    fn default() -> Self {
        Self {
            total_jobs: 240,
            kill_points: 6,
            seed: 0x0003_516c_4a54,
        }
    }
}

/// One step of the deterministic input stream.
#[derive(Debug, Clone)]
enum Step {
    Job(JobSpec),
    Fault(FaultEvent),
}

/// How the journal tail is mangled after the kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailDamage {
    /// Clean cut between two acks — journal ends on a frame boundary.
    None,
    /// Garbage bytes after the last good frame (a torn header).
    Garbage,
    /// A valid frame cut mid-payload (a torn in-progress append).
    HalfFrame,
}

impl TailDamage {
    fn label(self) -> &'static str {
        match self {
            TailDamage::None => "clean",
            TailDamage::Garbage => "garbage-tail",
            TailDamage::HalfFrame => "half-frame",
        }
    }
}

/// The engine + policy state a campaign snapshot checkpoints. Mirrors the
/// CLI's full snapshot minus the wire counters (the campaign sits below
/// the wire layer).
#[derive(Debug, Serialize, Deserialize)]
struct CampaignSnapshot {
    engine: ServeSnapshot,
    sched: SchedSnapshot,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        cycle_interval: 2.0,
        retention: 120.0,
        ..ServeConfig::default()
    }
}

fn build(recorder: &Recorder) -> (ServeSession, ThreeSigmaScheduler) {
    let sched_cfg = SchedConfig {
        cycle_hint: 2.0,
        cache_capacity: Some(CACHE_CAP),
        max_timings: Some(64),
        ..SchedConfig::default()
    };
    let pred_cfg = threesigma_predict::PredictorConfig {
        max_tracked_values: Some(PREDICTOR_CAP),
        ..threesigma_predict::PredictorConfig::default()
    };
    let sched = ThreeSigmaScheduler::new(sched_cfg, EstimateSource::Predicted, pred_cfg)
        .with_recorder(recorder);
    let session = ServeSession::new(ClusterSpec::uniform(4, 16), serve_config(), recorder)
        .expect("valid serve config");
    (session, sched)
}

fn wire_job(rng: &mut StdRng, id: u64, submit: f64) -> JobSpec {
    let tenant = rng.random::<u64>() % TENANTS;
    let name = rng.random::<u64>() % 7;
    let tasks = 1 + rng.random::<u32>() % 6;
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

/// Expands the seed into the full step stream: bursty arrivals, periodic
/// idle gaps (snapshot opportunities), and a partition-loss/restore pair
/// so fault records cross the journal too.
fn plan_stream(cfg: &CrashConfig) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut steps = Vec::new();
    let mut t = 0.0;
    let mut id = 0u64;
    let mut bursts = 0u64;
    let fault_down_at = cfg.total_jobs / 3;
    let fault_up_at = 2 * cfg.total_jobs / 3;
    while id < cfg.total_jobs {
        if bursts > 0 && bursts.is_multiple_of(4) {
            t += IDLE_GAP;
        }
        for _ in 0..BURST.min((cfg.total_jobs - id) as usize) {
            if id == fault_down_at {
                steps.push(Step::Fault(FaultEvent::PartitionDown {
                    at: t + 6.0,
                    partition: PartitionId(1),
                    nodes: 8,
                }));
            }
            if id == fault_up_at {
                steps.push(Step::Fault(FaultEvent::PartitionUp {
                    at: t + 6.0,
                    partition: PartitionId(1),
                    nodes: 8,
                }));
            }
            steps.push(Step::Job(wire_job(&mut rng, id, t)));
            id += 1;
        }
        t += BURST_GAP;
        bursts += 1;
    }
    steps
}

/// Marks the steps after which a process commits: seeded batches of 1 to
/// [`MAX_BATCH`] steps. The stream's last batch ends at the clean stop's
/// own commit.
fn plan_commits(seed: u64, steps: usize) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ba7_c4ed);
    let mut commit_after = vec![false; steps];
    let mut end = 0usize;
    loop {
        end += 1 + (rng.random::<u64>() % MAX_BATCH) as usize;
        let Some(last) = commit_after.get_mut(end - 1) else {
            return commit_after;
        };
        *last = true;
    }
}

/// Labels an error with what was being attempted.
fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One serve process of the campaign: a session and its scheduler over
/// the shipped [`Durable`].
struct Process {
    recorder: Recorder,
    session: ServeSession,
    sched: ThreeSigmaScheduler,
    durable: Durable,
}

impl Process {
    /// Starts a process on the data directory `dir` through the shipped
    /// recovery (an empty directory yields an empty session). Also returns
    /// the torn journal bytes recovery discarded.
    fn start(dir: &Path) -> Result<(Self, u64), String> {
        let recorder = Recorder::enabled();
        let (mut session, mut sched) = build(&recorder);
        let data = DataDir::open(dir).map_err(fail("open data dir"))?;
        let recovery = Durable::recover(data, false).map_err(fail("recover"))?;
        if let Some(file) = &recovery.recovered.snapshot {
            let snap: CampaignSnapshot =
                serde_json::from_value(&file.payload).map_err(fail("decode snapshot"))?;
            sched
                .serve_restore(snap.sched)
                .map_err(fail("scheduler restore"))?;
            let cluster = ClusterSpec::uniform(4, 16);
            session = ServeSession::restore(cluster, serve_config(), &recorder, &snap.engine)
                .map_err(fail("session restore"))?;
        }
        let torn_bytes = recovery.recovered.torn_bytes;
        let durable = recovery
            .resume(&mut session, &mut sched, &recorder, SNAP_EVERY, 0.0)
            .map_err(fail("resume"))?;
        let process = Self {
            recorder,
            session,
            sched,
            durable,
        };
        Ok((process, torn_bytes))
    }

    /// Commits the open batch, then snapshots.
    fn snapshot(&mut self) -> Result<(), String> {
        self.durable.sync().map_err(fail("journal sync"))?;
        let payload = CampaignSnapshot {
            engine: self.session.snapshot().map_err(fail("snapshot"))?,
            sched: self.sched.serve_snapshot(),
        };
        let payload = serde_json::to_value(&payload).map_err(fail("encode snapshot"))?;
        self.durable
            .take_snapshot(payload, self.session.now())
            .map_err(fail("take snapshot"))
    }

    /// Feeds one stream step through the serve loop's order. Returns
    /// whether a due snapshot committed the open batch first.
    fn step(&mut self, step: &Step) -> Result<bool, String> {
        match step {
            Step::Job(spec) => {
                self.session.admit(spec).map_err(fail("admit"))?;
                self.session
                    .pump_until(spec.submit_time, &mut self.sched)
                    .map_err(fail("pump"))?;
                let due = self.durable.snapshot_due(&self.session);
                if due {
                    self.snapshot()?;
                }
                self.durable
                    .append(WalRecord::Job(spec.clone()))
                    .map_err(fail("journal append"))?;
                self.session.submit(spec.clone()).map_err(fail("submit"))?;
                Ok(due)
            }
            Step::Fault(fault) => {
                self.durable
                    .append(WalRecord::Fault(*fault))
                    .map_err(fail("journal append"))?;
                self.session
                    .inject_fault(*fault)
                    .map_err(fail("inject fault"))?;
                Ok(false)
            }
        }
    }

    /// Feeds `steps[range]`, committing after every step `commit_after`
    /// marks. Returns how many steps of the stream were durable at the
    /// last commit.
    fn feed(
        &mut self,
        steps: &[Step],
        range: Range<usize>,
        commit_after: &[bool],
    ) -> Result<usize, String> {
        let mut synced = range.start;
        for i in range {
            if self.step(&steps[i])? {
                synced = i;
            }
            if commit_after[i] {
                self.durable.sync().map_err(fail("journal sync"))?;
                synced = i + 1;
            }
        }
        Ok(synced)
    }

    /// The clean stop — drain to quiescence, journal the final clock edge,
    /// commit, take the shutdown snapshot — then the comparison key: the
    /// summary (with its outcome digest) and the stable metrics dump
    /// minus the process-local `wal_recovered_records` gauge.
    fn finish(mut self) -> Result<(ServeSummary, String), String> {
        self.session
            .drain(f64::INFINITY, &mut self.sched)
            .map_err(fail("drain"))?;
        let clock = WalRecord::Clock {
            now: self.session.now(),
        };
        self.durable.append(clock).map_err(fail("journal append"))?;
        self.snapshot()?;
        let metrics: String = self
            .recorder
            .snapshot()
            .to_stable_json()
            .lines()
            .filter(|l| !l.contains("wal_recovered_records"))
            .collect::<Vec<_>>()
            .join("\n");
        Ok((self.session.summary(), metrics))
    }
}

/// Applies the post-kill tail damage to the journal file.
fn damage_tail(journal: &Path, damage: TailDamage) -> Result<(), String> {
    let mut bytes = std::fs::read(journal).map_err(|e| format!("read journal: {e}"))?;
    match damage {
        TailDamage::None => return Ok(()),
        TailDamage::Garbage => bytes.extend_from_slice(&[0xFF, 0x03, 0x51, 0x64, 0xFF]),
        TailDamage::HalfFrame => {
            // A plausible in-progress append, cut mid-payload. Recovery
            // must drop it: the record was never synced, so it was never
            // acknowledged.
            let frame = encode_frame(&WalEntry {
                seq: u64::MAX / 2,
                record: WalRecord::Clock { now: 1e9 },
            })
            .map_err(|e| format!("encode torn frame: {e}"))?;
            bytes.extend_from_slice(&frame[..frame.len() / 2]);
        }
    }
    std::fs::write(journal, bytes).map_err(|e| format!("write torn journal: {e}"))
}

/// Kills the stream after `kill_at` fed steps, damages the tail, recovers
/// in a "fresh process", finishes the stream, and fingerprints. Also
/// returns how many fed steps the kill lost because no commit covered
/// them.
fn recovered_run(
    dir: &Path,
    steps: &[Step],
    commit_after: &[bool],
    kill_at: usize,
    damage: TailDamage,
) -> Result<((ServeSummary, String), usize), String> {
    // Victim process: feeds `kill_at` steps, then vanishes — no final
    // commit, no drain, no snapshot, no truncation.
    let synced = Process::start(dir)?
        .0
        .feed(steps, 0..kill_at, commit_after)?;
    let data = DataDir::open(dir).map_err(fail("open data dir"))?;
    damage_tail(&data.journal_path(), damage)?;

    let (mut process, torn_bytes) = Process::start(dir)?;
    if damage != TailDamage::None && torn_bytes == 0 {
        return Err("tail damage was not detected as torn bytes".into());
    }
    // No acknowledged step may be lost and no unacknowledged one kept:
    // state must equal exactly the prefix through the last commit, so the
    // resume point is that commit.
    let acked_jobs = steps[..synced]
        .iter()
        .filter(|s| matches!(s, Step::Job(_)))
        .count() as u64;
    let submitted = process.session.summary().submitted;
    if submitted != acked_jobs {
        return Err(format!(
            "recovered {submitted} submitted jobs, but {acked_jobs} were committed before the kill"
        ));
    }
    process.feed(steps, synced..steps.len(), commit_after)?;
    Ok((process.finish()?, kill_at - synced))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("threesigma_crash_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the campaign: one reference run plus `cfg.kill_points` recovered
/// runs at seeded offsets, each compared byte-for-byte. Returns the
/// rendered report and how many kill points cut a batch (lost fed steps
/// that no commit covered), or a reproducible failure description.
///
/// # Errors
///
/// The first kill point whose recovered run diverges from (or fails
/// against) the reference, with the seed, offset, and damage mode needed
/// to replay it.
pub fn run_crash_campaign(cfg: &CrashConfig) -> Result<(String, usize), String> {
    let steps = plan_stream(cfg);
    if steps.len() < 2 {
        return Err("stream too short to kill".into());
    }
    let commit_after = plan_commits(cfg.seed, steps.len());
    // The reference: the whole stream straight through one process.
    let ref_dir = scratch_dir(&format!("{:x}_ref", cfg.seed));
    let reference = Process::start(&ref_dir).and_then(|(mut process, _)| {
        process.feed(&steps, 0..steps.len(), &commit_after)?;
        process.finish()
    });
    let _ = std::fs::remove_dir_all(&ref_dir);
    let (ref_summary, ref_metrics) = reference?;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead_2bad);
    let mut report = format!(
        "crash campaign: seed={} jobs={} steps={} kill_points={}\n",
        cfg.seed,
        cfg.total_jobs,
        steps.len(),
        cfg.kill_points
    );
    let mut mid_batch = 0;
    for point in 0..cfg.kill_points {
        let kill_at = 1 + (rng.random::<u64>() as usize) % (steps.len() - 1);
        let damage = match point % 3 {
            0 => TailDamage::None,
            1 => TailDamage::Garbage,
            _ => TailDamage::HalfFrame,
        };
        let ctx = format!(
            "kill point {point}: offset={kill_at}/{} damage={} (seed {})",
            steps.len(),
            damage.label(),
            cfg.seed
        );
        let dir = scratch_dir(&format!("{:x}_k{point}", cfg.seed));
        let run = recovered_run(&dir, &steps, &commit_after, kill_at, damage);
        let _ = std::fs::remove_dir_all(&dir);
        let ((summary, metrics), unsynced) = run.map_err(|e| format!("{ctx}: {e}"))?;
        if summary != ref_summary {
            return Err(format!(
                "{ctx}: recovered summary diverged\nreference: {ref_summary:?}\nrecovered: {summary:?}"
            ));
        }
        if metrics != ref_metrics {
            let diff = first_diff(&ref_metrics, &metrics);
            return Err(format!(
                "{ctx}: recovered metrics diverged\nfirst differing line:\n{diff}"
            ));
        }
        if unsynced > 0 {
            mid_batch += 1;
        }
        report.push_str(&format!(
            "  {ctx}: equivalent, {unsynced} uncommitted steps lost\n"
        ));
    }
    report.push_str(&format!(
        "all kill points recovered to digest-identical state ({mid_batch} cut a batch)\n"
    ));
    Ok((report, mid_batch))
}

fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("reference: {la}\nrecovered: {lb}");
        }
    }
    format!(
        "line counts differ: reference {} vs recovered {}",
        a.lines().count(),
        b.lines().count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always-on campaign: small stream, three kill points covering all
    /// three tail-damage modes.
    #[test]
    fn crash_recovery_is_equivalent_small() {
        let cfg = CrashConfig {
            total_jobs: 96,
            kill_points: 3,
            seed: 0x0035_160b_ad01,
        };
        let (report, _) = run_crash_campaign(&cfg).expect("campaign passes");
        assert!(report.contains("all kill points recovered"), "{report}");
    }

    /// Full campaign (release only): 20+ seeded kill points across a
    /// longer stream, cycling through every damage mode.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode campaign: run with --release")]
    fn crash_recovery_is_equivalent_at_scale() {
        let cfg = CrashConfig {
            total_jobs: 600,
            kill_points: 21,
            seed: 0x0035_160b_ad02,
        };
        let (report, mid_batch) = run_crash_campaign(&cfg).expect("campaign passes");
        assert!(report.contains("all kill points recovered"), "{report}");
        // Group commit is covered only if some kill lands inside a batch.
        assert!(mid_batch > 0, "{report}");
    }
}
