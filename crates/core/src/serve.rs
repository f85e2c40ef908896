//! One serve node: a [`ServeSession`], its [`ThreeSigmaScheduler`] and,
//! with a data directory, the journal half ([`Durable`]). `threesigma
//! serve` and the crash campaign (`simtest --crash`) both drive it, so
//! they run one ingest, recovery and stop. A job goes pump → [barrier,
//! snapshot if due] → journal → [`apply`], the step journal replay runs
//! too. The snapshot payload is `{engine, sched, wire}`, `wire` being the
//! caller's own counters.

use serde::{Deserialize, Map, Serialize, Value};
use threesigma_cluster::wal::{apply, recover_data_dir, replay};
use threesigma_cluster::{
    ClusterSpec, DataDir, Durable, FaultEvent, JobSpec, ServeConfig, ServeSession, SimError,
    WalError, WalRecord,
};
use threesigma_obs::Recorder;

use crate::sched::threesigma::ThreeSigmaScheduler;

/// Why a node could not open, ingest or stop: the journal or the data
/// directory (a snapshot payload that does not decode is a
/// `WalError::Codec`), or the session (an internal failure, or a journal
/// that disagrees with the configuration).
#[derive(Debug)]
pub enum ServeError {
    /// The journal or the data directory.
    Wal(WalError),
    /// The session.
    Sim(SimError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Wal(e) => e.fmt(f),
            ServeError::Sim(e) => e.fmt(f),
        }
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

/// A serve session, its scheduler and its optional durable half, with the
/// caller's counters `W`, restored from and written to every snapshot.
pub struct ServeNode<W> {
    session: ServeSession,
    sched: ThreeSigmaScheduler,
    durable: Option<Durable>,
    /// The caller's counters.
    pub wire: W,
}

/// Decodes the `key` part of a snapshot payload.
fn part<T: Deserialize>(payload: &Value, key: &str) -> Result<T, WalError> {
    let value = payload.get(key).unwrap_or(&Value::Null);
    T::deserialize(value).map_err(|e| WalError::Codec {
        detail: format!("snapshot payload `{key}`: {e}"),
    })
}

impl<W: Serialize + Deserialize + Default> ServeNode<W> {
    /// Opens a node on `cluster`. Without a data directory it starts
    /// empty. With one it restores session, scheduler and `wire` from the
    /// newest valid snapshot, replays the journal suffix past it, and then
    /// snapshots after every `snapshot_every` journaled records (0 = only
    /// at [`ServeNode::finish`]); `fsync` makes each barrier an fsync.
    /// Also returns the torn journal bytes recovery discarded.
    pub fn open(
        cluster: ClusterSpec,
        config: ServeConfig,
        mut sched: ThreeSigmaScheduler,
        recorder: &Recorder,
        data: Option<DataDir>,
        fsync: bool,
        snapshot_every: u64,
    ) -> Result<(Self, u64), ServeError> {
        let recovered = match data {
            Some(data) => Some((recover_data_dir(&data, fsync)?, data)),
            None => None,
        };
        let (mut session, wire) = match recovered.as_ref().and_then(|(r, _)| r.snapshot.as_ref()) {
            Some(file) => {
                let payload = &file.payload;
                sched
                    .serve_restore(part(payload, "sched")?)
                    .map_err(|detail| WalError::Codec { detail })?;
                let engine = part(payload, "engine")?;
                let session = ServeSession::restore(cluster, config, recorder, &engine)?;
                (session, part(payload, "wire")?)
            }
            None => (ServeSession::new(cluster, config, recorder)?, W::default()),
        };
        let mut torn_bytes = 0;
        let durable = match recovered {
            Some((recovered, data)) => {
                replay(&mut session, &mut sched, &recovered.suffix)?;
                torn_bytes = recovered.torn_bytes;
                Some(Durable::resume(data, recovered, snapshot_every, recorder)?)
            }
            None => None,
        };
        let node = Self {
            session,
            sched,
            durable,
            wire,
        };
        Ok((node, torn_bytes))
    }

    /// Ingests one admitted job: pumps to its submit time; if a snapshot
    /// is due, hands the caller the barrier — `commit`, which calls
    /// [`ServeNode::sync`] and may then write what it made durable — and
    /// snapshots; then journals the job and applies it. Returns its
    /// journal sequence number, to acknowledge after the next barrier.
    pub fn append(
        &mut self,
        spec: JobSpec,
        commit: impl FnOnce(&mut Self) -> Result<(), WalError>,
    ) -> Result<Option<u64>, ServeError> {
        self.session.pump_until(spec.submit_time, &mut self.sched)?;
        // Quiescent idle gaps are the only legal snapshot points; the
        // watermark excludes the job journaled below.
        let session = &self.session;
        if self
            .durable
            .as_ref()
            .is_some_and(|d| d.snapshot_due(session))
        {
            commit(self)?;
            self.snapshot()?;
        }
        self.ingest(WalRecord::Job(spec))
    }

    /// Journals a fault and injects it.
    pub fn inject_fault(&mut self, fault: FaultEvent) -> Result<(), ServeError> {
        self.ingest(WalRecord::Fault(fault)).map(drop)
    }

    fn ingest(&mut self, record: WalRecord) -> Result<Option<u64>, ServeError> {
        let seq = match &mut self.durable {
            Some(d) => Some(d.append(record.clone())?),
            None => None,
        };
        apply(&mut self.session, &mut self.sched, record)?;
        Ok(seq)
    }

    /// The journal barrier: once it returns `Ok`, every record journaled
    /// so far is durable (a no-op without a data directory).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.durable.as_mut().map_or(Ok(()), Durable::sync)
    }

    /// The clean stop: drains the backlog to quiescence (`admit` refuses
    /// the gangs no cycle could place, and the cycle chain re-arms while
    /// anything is pending), then, with a data directory, journals the
    /// clock edge it drained to, hands the caller the barrier and takes
    /// the closing snapshot.
    pub fn finish(
        &mut self,
        commit: impl FnOnce(&mut Self) -> Result<(), WalError>,
    ) -> Result<(), ServeError> {
        self.session.drain(f64::INFINITY, &mut self.sched)?;
        let now = self.session.now();
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        d.append(WalRecord::Clock { now })?;
        commit(self)?;
        self.snapshot()
    }

    /// Writes `{engine, sched, wire}` as a snapshot, which truncates the
    /// journal. The caller has passed a barrier.
    fn snapshot(&mut self) -> Result<(), ServeError> {
        let Some(d) = &mut self.durable else {
            return Ok(());
        };
        let mut payload = Map::new();
        payload.insert("engine", self.session.snapshot()?.serialize());
        payload.insert("sched", self.sched.serve_snapshot().serialize());
        payload.insert("wire", self.wire.serialize());
        Ok(d.take_snapshot(Value::Object(payload))?)
    }
}

impl<W> ServeNode<W> {
    /// The session, for admission and the summary.
    pub fn session(&self) -> &ServeSession {
        &self.session
    }
}
