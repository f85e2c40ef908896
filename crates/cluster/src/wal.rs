//! Crash-safe durability layer for [`ServeSession`]: a CRC32-framed
//! write-ahead journal plus watermarked snapshot files in a data directory.
//!
//! # Journal format
//!
//! A journal file is the 8-byte magic [`WAL_MAGIC`] followed by frames:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]
//! ```
//!
//! The payload is the canonical JSON encoding of one [`WalEntry`] — a
//! monotonically increasing sequence number plus the [`WalRecord`] it
//! carries (an accepted job, an injected fault, or a clock advance). The
//! CRC covers the payload bytes only; `len` is bounded by
//! [`MAX_FRAME_LEN`] so a corrupt length field cannot trigger a huge
//! allocation.
//!
//! # Group commit
//!
//! Appending and making durable are separate steps.
//! [`Wal::append_unsynced`] assigns the sequence number and queues the
//! frame in memory; [`Wal::sync`] is the barrier — one `write_all` of every
//! queued frame and one `sync_data` — after which all of them may be
//! acknowledged. [`Wal::append`] is exactly the two in sequence, one
//! barrier per record. A crash between the two steps loses only records
//! nobody was told about.
//!
//! # Torn-tail tolerance
//!
//! [`decode_journal`] never panics on arbitrary bytes. It walks frames
//! until the first defect (truncated header, truncated payload, CRC
//! mismatch, oversized length, undecodable payload) and reports the byte
//! length of the valid prefix; [`Wal::open`] truncates the file to that
//! prefix, so recovery after a torn write is byte-equivalent to recovery
//! after a clean stop at the last good frame. Duplicated or stale frames
//! (sequence number not above the last accepted one) are skipped, not
//! errors — an interrupted truncation can legitimately leave them behind.
//!
//! # Snapshot watermark and truncation protocol
//!
//! A [`SnapshotFile`] records `wal_seq`, the sequence number of the last
//! journal record folded into its payload. The writer first persists the
//! snapshot (`snapshot-<seq>.json`, temp-file + rename, newest two
//! generations kept), *then* truncates the journal past the watermark
//! ([`Wal::truncate_through`], itself a temp-file + rename rewrite). A
//! crash between the two steps leaves already-covered records in the
//! journal; recovery filters them out by sequence number, so nothing is
//! replayed twice. `wal_truncated_bytes` is carried in the snapshot —
//! counted at snapshot-write time — so the lifetime truncation total is
//! itself crash-consistent. The envelope's `format_version` is the only
//! version a snapshot carries; any other value is refused.
//!
//! # One implementation
//!
//! [`Durable`] runs the whole protocol — group commit, the auto-snapshot
//! policy, snapshot-then-truncate, and recovery ([`Durable::recover`],
//! then [`Recovery::resume`]) — for every caller: `threesigma serve
//! --data-dir` and the in-process crash campaign. A caller supplies only
//! its snapshot payload and restores its own session from it.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use threesigma_obs::{Counter, Gauge, Recorder};

use crate::engine::{FaultEvent, Scheduler, SimError};
use crate::job::JobSpec;
use crate::serve::ServeSession;

/// First 8 bytes of every journal file.
pub const WAL_MAGIC: [u8; 8] = *b"3SIGWAL1";

/// Upper bound on one frame's payload length; a corrupt length field is
/// detected instead of honoured.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Format version of every [`SnapshotFile`]: it covers the envelope and the
/// payload inside it, which carries no version of its own, and it is the
/// only one this build reads. A file with any other version, older or
/// newer, is refused with [`WalError::UnsupportedSnapshotVersion`]. A
/// change to the payload layout bumps it.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// One durable event on the serve boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A job accepted by admission control (journaled before it is
    /// acknowledged to the client).
    Job(JobSpec),
    /// A fault injected into the live session at runtime (scripted
    /// `ServeConfig::faults` travel in the config, not the journal).
    Fault(FaultEvent),
    /// The stream went idle and the session drained to `now` (journaled at
    /// end-of-stream so the final drain survives a crash before the
    /// closing snapshot lands).
    Clock {
        /// Simulated time the session drained to.
        now: f64,
    },
}

/// One journal frame's payload: a lifetime-monotonic sequence number plus
/// the record it carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalEntry {
    /// Lifetime-monotonic sequence number (1-based; survives truncation).
    pub seq: u64,
    /// The durable record.
    pub record: WalRecord,
}

/// Typed durability-layer failures. I/O and codec problems never panic;
/// they surface here so the serve daemon can refuse or degrade.
#[derive(Debug)]
pub enum WalError {
    /// An operating-system I/O failure.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// What was being attempted.
        op: &'static str,
        /// The underlying error, stringified.
        error: String,
    },
    /// A snapshot file carries a format version other than this build's.
    UnsupportedSnapshotVersion {
        /// The offending file.
        path: PathBuf,
        /// Version recorded in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// A record could not be encoded (or a trusted structure re-decoded).
    Codec {
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, op, error } => {
                write!(f, "wal: {op} {} failed: {error}", path.display())
            }
            WalError::UnsupportedSnapshotVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "wal: snapshot {} has format version {found}, but this build \
                 reads only version {supported}; refusing to restore",
                path.display()
            ),
            WalError::Codec { detail } => write!(f, "wal: codec failure: {detail}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, op: &'static str, error: &std::io::Error) -> WalError {
    WalError::Io {
        path: path.to_path_buf(),
        op,
        error: error.to_string(),
    }
}

/// Syncs the directory that holds `path`, making a create or rename there
/// durable: without it, a power loss may keep a later rename (a journal
/// truncation) and lose an earlier one (the snapshot that covers it).
fn sync_dir(path: &Path) -> Result<(), WalError> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(dir, "sync dir", &e))
}

/// Replaces `path` with `bytes` atomically: a temp file (`path` + `.tmp`),
/// renamed over `path`. With `sync` the temp file is synced before the
/// rename and the directory after it.
fn replace_file(path: &Path, bytes: &[u8], sync: bool) -> Result<(), WalError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", &e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, "write", &e))?;
        if sync {
            f.sync_data().map_err(|e| io_err(&tmp, "sync", &e))?;
        }
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, "rename", &e))?;
    if sync {
        sync_dir(path)?;
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let idx = (crc ^ u32::from(b)) & 0xff;
        // Table lookup cannot miss: the index is masked to 0..=255.
        let entry = CRC32_TABLE.get(idx as usize).copied().unwrap_or(0);
        crc = (crc >> 8) ^ entry;
    }
    !crc
}

const CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Encodes one entry as a `[len][crc][payload]` frame.
///
/// # Errors
///
/// [`WalError::Codec`] if the entry cannot be serialized or exceeds
/// [`MAX_FRAME_LEN`].
pub fn encode_frame(entry: &WalEntry) -> Result<Vec<u8>, WalError> {
    let payload = serde_json::to_string(entry)
        .map_err(|e| WalError::Codec {
            detail: format!("encode wal entry {}: {e}", entry.seq),
        })?
        .into_bytes();
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(WalError::Codec {
            detail: format!(
                "wal entry {} payload is {} bytes (limit {MAX_FRAME_LEN})",
                entry.seq,
                payload.len()
            ),
        });
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Why journal decoding stopped before the end of the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// The file does not start with [`WAL_MAGIC`]; nothing is recoverable.
    BadMagic,
    /// Fewer than 8 header bytes remain — a torn header write.
    TornHeader,
    /// The payload extends past the end of the file — a torn payload write.
    TornPayload,
    /// The length field exceeds [`MAX_FRAME_LEN`] (or is zero) — corrupt.
    BadLength,
    /// The payload does not match its CRC — corrupt bytes.
    CrcMismatch,
    /// The payload passed its CRC but is not a valid [`WalEntry`] encoding.
    BadPayload,
}

/// Result of tolerant journal decoding: everything recoverable, plus where
/// and why decoding stopped.
#[derive(Debug, Clone)]
pub struct JournalDecode {
    /// Decoded entries with strictly increasing sequence numbers, in file
    /// order. Duplicated/stale frames are dropped (see `duplicates`).
    pub entries: Vec<WalEntry>,
    /// Byte length of the valid prefix (magic + every good frame). The
    /// file truncated to this length decodes identically with no defect.
    pub valid_len: u64,
    /// The first defect found, if decoding stopped early.
    pub defect: Option<FrameDefect>,
    /// Valid frames skipped because their sequence number was not above
    /// the last accepted one (interrupted truncation leaves these behind).
    pub duplicates: u64,
}

fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    bytes
        .get(off..off.checked_add(4)?)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map(u32::from_le_bytes)
}

/// Decodes a journal byte stream, tolerating a torn or corrupt tail.
/// Never panics; never returns an entry whose CRC did not match.
pub fn decode_journal(bytes: &[u8]) -> JournalDecode {
    let mut out = JournalDecode {
        entries: Vec::new(),
        valid_len: 0,
        defect: None,
        duplicates: 0,
    };
    if bytes.is_empty() {
        return out;
    }
    if bytes.get(..WAL_MAGIC.len()) != Some(WAL_MAGIC.as_slice()) {
        out.defect = Some(FrameDefect::BadMagic);
        return out;
    }
    let mut off = WAL_MAGIC.len();
    out.valid_len = off as u64;
    let mut last_seq = 0u64;
    while off < bytes.len() {
        let Some(len) = read_u32(bytes, off) else {
            out.defect = Some(FrameDefect::TornHeader);
            return out;
        };
        let Some(crc) = read_u32(bytes, off + 4) else {
            out.defect = Some(FrameDefect::TornHeader);
            return out;
        };
        if len == 0 || len > MAX_FRAME_LEN {
            out.defect = Some(FrameDefect::BadLength);
            return out;
        }
        let start = off + 8;
        let Some(end) = start.checked_add(len as usize) else {
            out.defect = Some(FrameDefect::TornPayload);
            return out;
        };
        let Some(payload) = bytes.get(start..end) else {
            out.defect = Some(FrameDefect::TornPayload);
            return out;
        };
        if crc32(payload) != crc {
            out.defect = Some(FrameDefect::CrcMismatch);
            return out;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            out.defect = Some(FrameDefect::BadPayload);
            return out;
        };
        let Ok(entry) = serde_json::from_str::<WalEntry>(text) else {
            out.defect = Some(FrameDefect::BadPayload);
            return out;
        };
        if entry.seq > last_seq {
            last_seq = entry.seq;
            out.entries.push(entry);
        } else {
            out.duplicates += 1;
        }
        off = end;
        out.valid_len = off as u64;
    }
    out
}

/// What [`Wal::open`] found (and repaired) in an existing journal.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// Entries recovered from the valid prefix, strictly increasing `seq`.
    pub entries: Vec<WalEntry>,
    /// Bytes discarded past the first defect (0 for a clean journal).
    pub torn_bytes: u64,
    /// The defect that ended decoding, if any (already repaired by
    /// truncation when this is returned).
    pub defect: Option<FrameDefect>,
    /// Stale/duplicated frames skipped inside the valid prefix.
    pub duplicates: u64,
}

/// An open, append-only journal handle.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: fs::File,
    next_seq: u64,
    fsync: bool,
    /// Logical journal length: bytes on disk plus `pending`.
    len: u64,
    /// Frames appended since the last [`Wal::sync`], not yet written.
    pending: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the journal at `path`, repairing any
    /// torn tail by truncating to the last good frame. With `sync`,
    /// [`Wal::sync`] (and so every [`Wal::append`]) fsyncs before
    /// returning — the ack-after-journal barrier.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures.
    pub fn open(path: &Path, sync: bool) -> Result<(Self, WalRecovery), WalError> {
        let (bytes, created) = match fs::read(path) {
            Ok(b) => (b, false),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), true),
            Err(e) => return Err(io_err(path, "read", &e)),
        };
        let decode = decode_journal(&bytes);
        let valid_len = if decode.defect == Some(FrameDefect::BadMagic) {
            // Header corrupt: no frame is attributable; restart the file.
            0
        } else {
            decode.valid_len
        };
        let torn_bytes = (bytes.len() as u64).saturating_sub(valid_len);
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, "open", &e))?;
        let mut len = valid_len;
        if valid_len == 0 {
            file.set_len(0).map_err(|e| io_err(path, "truncate", &e))?;
            file.write_all(&WAL_MAGIC)
                .map_err(|e| io_err(path, "write header", &e))?;
            len = WAL_MAGIC.len() as u64;
        } else if torn_bytes > 0 {
            file.set_len(valid_len)
                .map_err(|e| io_err(path, "truncate", &e))?;
        }
        if sync && (torn_bytes > 0 || valid_len == 0) {
            file.sync_data().map_err(|e| io_err(path, "sync", &e))?;
            if created {
                sync_dir(path)?;
            }
        }
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(path, "seek", &e))?;
        let next_seq = decode.entries.last().map_or(1, |e| e.seq + 1);
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
                next_seq,
                fsync: sync,
                len,
                pending: Vec::new(),
            },
            WalRecovery {
                entries: decode.entries,
                torn_bytes,
                defect: decode.defect,
                duplicates: decode.duplicates,
            },
        ))
    }

    /// Raises the next sequence number to at least `floor` (used after
    /// loading a snapshot whose watermark is past the journal's tail, so
    /// lifetime numbering continues across truncations).
    pub fn ensure_next_seq(&mut self, floor: u64) {
        self.next_seq = self.next_seq.max(floor);
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime records appended (sequence numbers are 1-based).
    pub fn appended_records(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current journal length in bytes (header + live frames, including
    /// frames appended but not yet [`Wal::sync`]ed).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Assigns `record` the next sequence number and queues its frame in
    /// memory. Nothing reaches the file until [`Wal::sync`]: the caller
    /// must not acknowledge the record before that returns.
    ///
    /// # Errors
    ///
    /// [`WalError::Codec`]; the journal is unchanged.
    pub fn append_unsynced(&mut self, record: WalRecord) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let frame = encode_frame(&WalEntry { seq, record })?;
        self.pending.extend_from_slice(&frame);
        self.next_seq += 1;
        self.len += frame.len() as u64;
        Ok(seq)
    }

    /// The group-commit barrier: writes every queued frame with one
    /// `write_all` and (with `sync` enabled) one `sync_data`. When this
    /// returns, every record appended so far is durable. A no-op when
    /// nothing is queued.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`]. The queued frames are dropped and none of them
    /// may be acknowledged; the handle must not be used further (a torn
    /// partial write is repaired on next open).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.pending);
        self.pending.clear();
        written.map_err(|e| io_err(&self.path, "append", &e))?;
        if self.fsync {
            self.file
                .sync_data()
                .map_err(|e| io_err(&self.path, "sync", &e))?;
        }
        Ok(())
    }

    /// Appends one record and makes it durable: exactly
    /// [`Wal::append_unsynced`] followed by [`Wal::sync`]. With `sync`
    /// enabled the record is durable when this returns — only then may
    /// the caller acknowledge it.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] / [`WalError::Codec`], as the two halves.
    pub fn append(&mut self, record: WalRecord) -> Result<u64, WalError> {
        let seq = self.append_unsynced(record)?;
        self.sync()?;
        Ok(seq)
    }

    /// Drops every record with `seq <= watermark` by atomically rewriting
    /// the journal (temp file + rename), returning the bytes removed.
    /// Call *after* the covering snapshot is durable.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] / [`WalError::Codec`]; on error the original
    /// journal is untouched (the rewrite is atomic).
    pub fn truncate_through(&mut self, watermark: u64) -> Result<u64, WalError> {
        // The rewrite below starts from the file, so queued frames must be
        // in it first or they would be lost.
        self.sync()?;
        let bytes = fs::read(&self.path).map_err(|e| io_err(&self.path, "read", &e))?;
        let decode = decode_journal(&bytes);
        let mut fresh: Vec<u8> = WAL_MAGIC.to_vec();
        for entry in &decode.entries {
            if entry.seq > watermark {
                fresh.extend_from_slice(&encode_frame(entry)?);
            }
        }
        let dropped = self.len.saturating_sub(fresh.len() as u64);
        if dropped == 0 {
            return Ok(0);
        }
        replace_file(&self.path, &fresh, self.fsync)?;
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, "reopen", &e))?;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        self.file = file;
        self.len = fresh.len() as u64;
        Ok(dropped)
    }
}

/// One durable snapshot file: a version-stamped envelope around an opaque
/// payload (the caller's own serialized session/scheduler state).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// Envelope format version ([`SNAPSHOT_FORMAT_VERSION`]); newer
    /// versions are refused on load.
    pub format_version: u32,
    /// Watermark: sequence number of the last journal record folded into
    /// the payload. Recovery replays only records past it.
    pub wal_seq: u64,
    /// Lifetime journal bytes truncated, counted at snapshot-write time so
    /// the total is crash-consistent.
    pub wal_truncated_bytes: u64,
    /// Caller-defined state (e.g. the CLI's engine + scheduler snapshot),
    /// opaque to the durability layer.
    pub payload: serde::Value,
}

impl SnapshotFile {
    /// Writes the file durably at `path`: a synced temp file renamed over
    /// it, then a sync of the directory.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] / [`WalError::Codec`]. On error a file already at
    /// `path` is undamaged.
    pub fn write(&self, path: &Path) -> Result<(), WalError> {
        let text = serde_json::to_string(self).map_err(|e| WalError::Codec {
            detail: format!("encode snapshot: {e}"),
        })?;
        replace_file(path, text.as_bytes(), true)
    }

    /// Reads the file at `path`. The version is checked before anything
    /// else is decoded, so an older or newer layout is reported as a
    /// version problem rather than a parse failure.
    ///
    /// # Errors
    ///
    /// [`WalError::UnsupportedSnapshotVersion`] for any version but
    /// [`SNAPSHOT_FORMAT_VERSION`] (a JSON file without one reads as 0);
    /// [`WalError::Io`] if the file cannot be read; [`WalError::Codec`] if
    /// it is not a snapshot envelope.
    pub fn read(path: &Path) -> Result<Self, WalError> {
        let codec = |why: String| WalError::Codec {
            detail: format!("snapshot {}: {why}", path.display()),
        };
        let text = fs::read_to_string(path).map_err(|e| io_err(path, "read", &e))?;
        let value: serde::Value = serde_json::from_str(&text).map_err(|e| codec(e.to_string()))?;
        let found = value.get("format_version").and_then(serde::Value::as_u64);
        let found = found.unwrap_or(0);
        if found != u64::from(SNAPSHOT_FORMAT_VERSION) {
            return Err(WalError::UnsupportedSnapshotVersion {
                path: path.to_path_buf(),
                found: u32::try_from(found).unwrap_or(u32::MAX),
                supported: SNAPSHOT_FORMAT_VERSION,
            });
        }
        serde_json::from_value(&value).map_err(|e| codec(e.to_string()))
    }
}

/// A serve data directory: one journal plus rotating snapshot files and a
/// quarantine file for poison input lines.
#[derive(Debug, Clone)]
pub struct DataDir {
    dir: PathBuf,
}

impl DataDir {
    /// Opens (creating if absent) a data directory.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create dir", &e))?;
        Ok(Self { dir })
    }

    /// Path of the journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }

    /// Path of the quarantine file for sampled poison input lines.
    pub fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.jsonl")
    }

    fn snapshot_name(seq: u64) -> String {
        // Zero-padded so lexical filename order equals watermark order.
        format!("snapshot-{seq:020}.json")
    }

    /// Writes a snapshot durably (temp file + rename) and prunes all but
    /// the newest two generations. Returns the snapshot's path.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] / [`WalError::Codec`]. On error no existing
    /// snapshot has been damaged.
    pub fn write_snapshot(&self, snap: &SnapshotFile) -> Result<PathBuf, WalError> {
        let path = self.dir.join(Self::snapshot_name(snap.wal_seq));
        snap.write(&path)?;
        // Prune older generations, newest two kept (the newest may be the
        // one just written; the previous one survives as a fallback should
        // the newest prove unreadable later).
        let mut names = self.snapshot_names()?;
        names.sort();
        names.reverse();
        for stale in names.iter().skip(2) {
            let p = self.dir.join(stale);
            let _ = fs::remove_file(&p);
        }
        Ok(path)
    }

    fn snapshot_names(&self) -> Result<Vec<String>, WalError> {
        let mut names = Vec::new();
        let iter = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, "read dir", &e))?;
        for entry in iter {
            let entry = entry.map_err(|e| io_err(&self.dir, "read dir", &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("snapshot-") && name.ends_with(".json") {
                names.push(name);
            }
        }
        Ok(names)
    }

    /// Loads the newest readable snapshot with [`SnapshotFile::read`],
    /// falling back past corrupt or partially written candidates.
    /// `Ok(None)` when no snapshot exists.
    ///
    /// # Errors
    ///
    /// [`WalError::UnsupportedSnapshotVersion`] if the newest readable
    /// candidate carries another build's version (a hard, typed refusal —
    /// silently falling back could silently lose committed state), and
    /// [`WalError::Io`] for directory-scan failures.
    pub fn load_latest_snapshot(&self) -> Result<Option<SnapshotFile>, WalError> {
        let mut names = self.snapshot_names()?;
        names.sort();
        names.reverse();
        for name in names {
            match SnapshotFile::read(&self.dir.join(&name)) {
                Ok(snap) => return Ok(Some(snap)),
                Err(e @ WalError::UnsupportedSnapshotVersion { .. }) => return Err(e),
                // A torn or corrupt candidate: fall back to the previous one.
                Err(_) => continue,
            }
        }
        Ok(None)
    }
}

/// Everything recovered from a data directory: the newest valid snapshot
/// (if any), the opened journal, and the journal suffix past the
/// snapshot's watermark, ready to [`replay`].
#[derive(Debug)]
pub struct Recovered {
    /// Newest valid snapshot, if one exists.
    pub snapshot: Option<SnapshotFile>,
    /// The opened journal, sequence numbering continued past the
    /// snapshot watermark.
    pub wal: Wal,
    /// Journal records past the snapshot watermark, in order.
    pub suffix: Vec<WalEntry>,
    /// Bytes discarded from a torn journal tail.
    pub torn_bytes: u64,
    /// Stale/duplicated frames skipped (interrupted truncation debris).
    pub duplicates: u64,
    /// Journal records already covered by the snapshot (also truncation
    /// debris; filtered, never replayed).
    pub covered: u64,
}

/// Opens a data directory and reassembles its durable state: newest valid
/// snapshot + journal suffix past the watermark. The caller restores its
/// session from the snapshot payload, then [`replay`]s the suffix.
///
/// # Errors
///
/// [`WalError`] on I/O failures or a snapshot from a newer build.
pub fn recover_data_dir(data: &DataDir, sync: bool) -> Result<Recovered, WalError> {
    let snapshot = data.load_latest_snapshot()?;
    let (mut wal, recovery) = Wal::open(&data.journal_path(), sync)?;
    let watermark = snapshot.as_ref().map_or(0, |s| s.wal_seq);
    wal.ensure_next_seq(watermark + 1);
    let mut suffix = recovery.entries;
    let before = suffix.len();
    suffix.retain(|e| e.seq > watermark);
    let covered = (before - suffix.len()) as u64;
    Ok(Recovered {
        snapshot,
        wal,
        suffix,
        torn_bytes: recovery.torn_bytes,
        duplicates: recovery.duplicates,
        covered,
    })
}

/// Replays recovered journal records through a session, mirroring the
/// serve ingest loop exactly (pump to each job's submit time, then
/// submit; drain to each journaled clock advance; re-inject faults), so
/// the replayed session is digest-identical to the original. Returns the
/// number of records applied.
///
/// # Errors
///
/// Any [`SimError`] the original ingest could have produced — a replay
/// rejection means the journal and configuration disagree (for example,
/// admission bounds lowered between runs).
pub fn replay(
    session: &mut ServeSession,
    scheduler: &mut dyn Scheduler,
    entries: &[WalEntry],
) -> Result<u64, SimError> {
    let mut applied = 0u64;
    for entry in entries {
        match &entry.record {
            WalRecord::Job(spec) => {
                session.pump_until(spec.submit_time, scheduler)?;
                session.submit(spec.clone())?;
            }
            WalRecord::Clock { now } => {
                session.drain(*now, scheduler)?;
            }
            WalRecord::Fault(fault) => {
                session.inject_fault(*fault)?;
            }
        }
        applied += 1;
    }
    Ok(applied)
}

/// The durable half of a serve session, shared by `threesigma serve
/// --data-dir` and the crash campaign: the journal, the durability
/// metrics, the lifetime truncation total (carried through snapshots) and
/// the auto-snapshot policy. The caller's payload is opaque to it.
#[derive(Debug)]
pub struct Durable {
    data: DataDir,
    wal: Wal,
    metrics: WalMetrics,
    truncated_total: u64,
    snap_jobs: u64,
    snap_secs: f64,
    records_since_snap: u64,
    last_snap_now: f64,
}

/// A data directory opened by [`Durable::recover`], its journal suffix not
/// yet replayed. The caller restores its session and scheduler from the
/// snapshot's payload (or starts them fresh), then calls
/// [`Recovery::resume`].
#[derive(Debug)]
pub struct Recovery {
    /// What recovery found: the snapshot, the suffix to replay, torn bytes.
    pub recovered: Recovered,
    data: DataDir,
}

impl Durable {
    /// Opens `data` with [`recover_data_dir`] and completes a truncation a
    /// crash interrupted.
    ///
    /// # Errors
    ///
    /// [`WalError`] from recovery or the truncation.
    pub fn recover(data: DataDir, sync: bool) -> Result<Recovery, WalError> {
        let mut recovered = recover_data_dir(&data, sync)?;
        // The snapshot counted these bytes into its lifetime truncation
        // total when it was written, so this pass does not re-count them.
        if recovered.covered > 0 || recovered.duplicates > 0 {
            let watermark = recovered.snapshot.as_ref().map_or(0, |s| s.wal_seq);
            recovered.wal.truncate_through(watermark)?;
        }
        Ok(Recovery { recovered, data })
    }

    /// The data directory.
    pub fn data(&self) -> &DataDir {
        &self.data
    }

    /// Queues `record` for the journal ([`Wal::append_unsynced`]). It may
    /// be acknowledged only after the next [`Durable::sync`].
    pub fn append(&mut self, record: WalRecord) -> Result<u64, WalError> {
        let seq = self.wal.append_unsynced(record)?;
        self.records_since_snap += 1;
        Ok(seq)
    }

    /// The journal barrier ([`Wal::sync`]), then the metrics.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync()?;
        self.metrics.publish(&self.wal, self.truncated_total);
        Ok(())
    }

    /// Whether the policy wants a snapshot of `session` now, which it
    /// can take only at quiescence. Both triggers are functions of the
    /// accepted stream, so a recovered run snapshots at the same stream
    /// positions as a never-crashed one.
    pub fn snapshot_due(&self, session: &ServeSession) -> bool {
        let (records, now) = (self.records_since_snap, session.now());
        records > 0
            && ((self.snap_jobs > 0 && records >= self.snap_jobs)
                || (self.snap_secs > 0.0 && now - self.last_snap_now >= self.snap_secs))
            && session.is_quiescent()
    }

    /// Writes `payload`, the caller's state at simulated time `now`, as a
    /// snapshot watermarked at the last appended record, *then* truncates
    /// the journal through the watermark. A crash between the two steps
    /// only leaves covered records behind, which recovery filters by
    /// sequence number. The caller syncs first.
    pub fn take_snapshot(&mut self, payload: serde::Value, now: f64) -> Result<(), WalError> {
        let watermark = self.wal.next_seq().saturating_sub(1);
        // Count the truncation at snapshot-write time: the snapshot carries
        // the post-truncation lifetime total, so the counter is identical
        // whether or not the truncate below ever runs before a crash.
        let body = self.wal.len_bytes().saturating_sub(WAL_MAGIC.len() as u64);
        let total = self.truncated_total + body;
        self.data.write_snapshot(&SnapshotFile {
            format_version: SNAPSHOT_FORMAT_VERSION,
            wal_seq: watermark,
            wal_truncated_bytes: total,
            payload,
        })?;
        self.truncated_total = total;
        self.wal.truncate_through(watermark)?;
        self.records_since_snap = 0;
        self.last_snap_now = now;
        self.metrics.publish(&self.wal, self.truncated_total);
        Ok(())
    }
}

impl Recovery {
    /// Replays the journal suffix through the caller's restored `session`
    /// and `scheduler`, registers and publishes the durability metrics on
    /// `recorder`, and starts the snapshot policy: a snapshot after
    /// `snap_jobs` journaled records or `snap_secs` simulated seconds (0
    /// turns a trigger off), counted so that the next one lands where a
    /// never-crashed run takes it. Fails as [`replay`] does.
    pub fn resume(
        self,
        session: &mut ServeSession,
        scheduler: &mut dyn Scheduler,
        recorder: &Recorder,
        snap_jobs: u64,
        snap_secs: f64,
    ) -> Result<Durable, SimError> {
        let recovered = self.recovered;
        let truncated_total = recovered.snapshot.map_or(0, |s| s.wal_truncated_bytes);
        let last_snap_now = session.now();
        let replayed = replay(session, scheduler, &recovered.suffix)?;
        let metrics = WalMetrics::register(recorder);
        metrics.recovered_records.set(replayed as f64);
        metrics.publish(&recovered.wal, truncated_total);
        Ok(Durable {
            data: self.data,
            metrics,
            truncated_total,
            snap_jobs,
            snap_secs,
            records_since_snap: recovered.suffix.len() as u64,
            last_snap_now,
            wal: recovered.wal,
        })
    }
}

/// Durability metric handles. Totals are published with `set_total` so a
/// recovered process reports stream-lifetime values: `appended_records`
/// mirrors the lifetime sequence counter and `truncated_bytes` the
/// snapshot-carried total, both independent of crash timing.
/// `recovered_records` is genuinely process-local (zero on a straight-
/// through run) — crash-equivalence comparisons filter it out.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    /// `wal_appended_records_total` — lifetime journal records.
    pub appended_records: Counter,
    /// `wal_truncated_bytes_total` — lifetime journal bytes truncated.
    pub truncated_bytes: Counter,
    /// `wal_recovered_records` — records replayed at the last startup.
    pub recovered_records: Gauge,
    /// `wal_journal_bytes` — current journal file size.
    pub journal_bytes: Gauge,
}

impl WalMetrics {
    /// Registers the durability metrics on `rec`.
    pub fn register(rec: &Recorder) -> Self {
        Self {
            appended_records: rec.counter(
                "wal_appended_records_total",
                "Records appended to the write-ahead journal over the stream lifetime",
            ),
            truncated_bytes: rec.counter(
                "wal_truncated_bytes_total",
                "Journal bytes truncated past snapshot watermarks over the stream lifetime",
            ),
            recovered_records: rec.gauge(
                "wal_recovered_records",
                "Journal records replayed during the last startup recovery",
            ),
            journal_bytes: rec.gauge("wal_journal_bytes", "Current journal file size in bytes"),
        }
    }

    /// Publishes the journal-derived values (`truncated_total` is the
    /// caller's lifetime total, carried through snapshots).
    pub fn publish(&self, wal: &Wal, truncated_total: u64) {
        self.appended_records.set_total(wal.appended_records());
        self.truncated_bytes.set_total(truncated_total);
        self.journal_bytes.set(wal.len_bytes() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn job(id: u64, submit: f64) -> WalRecord {
        WalRecord::Job(JobSpec::new(id, submit, 2, 10.0, JobKind::BestEffort))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("threesigma_wal_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_recover_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("journal.wal");
        let (mut wal, rec) = Wal::open(&path, true).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(wal.append(job(1, 0.0)).unwrap(), 1);
        assert_eq!(wal.append(job(2, 5.0)).unwrap(), 2);
        assert_eq!(wal.append(WalRecord::Clock { now: 42.0 }).unwrap(), 3);
        drop(wal);

        let (wal, rec) = Wal::open(&path, true).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.entries[0].seq, 1);
        assert_eq!(rec.entries[2].record, WalRecord::Clock { now: 42.0 });
        assert_eq!(wal.next_seq(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_appends_reach_the_file_only_at_the_barrier() {
        let dir = tmpdir("group");
        let (mut batched, _) = Wal::open(&dir.join("batched.wal"), true).unwrap();
        let (mut single, _) = Wal::open(&dir.join("single.wal"), true).unwrap();
        for i in 1..=3u64 {
            assert_eq!(batched.append_unsynced(job(i, i as f64)).unwrap(), i);
            assert_eq!(single.append(job(i, i as f64)).unwrap(), i);
        }
        // Sequence numbers and the logical length run ahead of the file,
        // which still holds only the header.
        assert_eq!(batched.next_seq(), 4);
        assert_eq!(batched.len_bytes(), single.len_bytes());
        assert_eq!(fs::read(dir.join("batched.wal")).unwrap(), WAL_MAGIC);
        batched.sync().unwrap();
        // One barrier for three records leaves the same bytes as three
        // appends with a barrier each.
        let bytes = fs::read(dir.join("batched.wal")).unwrap();
        assert_eq!(bytes, fs::read(dir.join("single.wal")).unwrap());
        assert_eq!(bytes.len() as u64, batched.len_bytes());
        // Truncation flushes whatever is still queued before it rewrites.
        batched.append_unsynced(job(4, 4.0)).unwrap();
        batched.truncate_through(3).unwrap();
        drop(batched);
        let (_, rec) = Wal::open(&dir.join("batched.wal"), true).unwrap();
        assert_eq!(rec.entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_good_frame() {
        let dir = tmpdir("torn");
        let path = dir.join("journal.wal");
        let (mut wal, _) = Wal::open(&path, true).unwrap();
        wal.append(job(1, 0.0)).unwrap();
        wal.append(job(2, 1.0)).unwrap();
        drop(wal);

        let full = fs::read(&path).unwrap();
        // Truncate mid-way through the second frame.
        let cut = full.len() - 5;
        fs::write(&path, &full[..cut]).unwrap();

        let (wal, rec) = Wal::open(&path, true).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].seq, 1);
        assert!(rec.torn_bytes > 0);
        assert_eq!(rec.defect, Some(FrameDefect::TornPayload));
        // Byte-equivalent to a clean stop: the repaired file decodes with
        // no defect and the same single entry.
        let repaired = fs::read(&path).unwrap();
        let clean = decode_journal(&repaired);
        assert!(clean.defect.is_none());
        assert_eq!(clean.entries.len(), 1);
        assert_eq!(wal.next_seq(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_decoding_without_panicking() {
        let dir = tmpdir("crc");
        let path = dir.join("journal.wal");
        let (mut wal, _) = Wal::open(&path, true).unwrap();
        wal.append(job(1, 0.0)).unwrap();
        wal.append(job(2, 1.0)).unwrap();
        drop(wal);

        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit in the second frame.
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        let dec = decode_journal(&bytes);
        assert_eq!(dec.entries.len(), 1);
        assert_eq!(dec.defect, Some(FrameDefect::CrcMismatch));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_frames_are_skipped_on_decode() {
        let e1 = WalEntry {
            seq: 1,
            record: job(1, 0.0),
        };
        let e2 = WalEntry {
            seq: 2,
            record: job(2, 1.0),
        };
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(&e1).unwrap());
        bytes.extend_from_slice(&encode_frame(&e1).unwrap()); // duplicate
        bytes.extend_from_slice(&encode_frame(&e2).unwrap());
        let dec = decode_journal(&bytes);
        assert!(dec.defect.is_none());
        assert_eq!(dec.duplicates, 1);
        assert_eq!(
            dec.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn corrupt_header_restarts_the_journal() {
        let dir = tmpdir("magic");
        let path = dir.join("journal.wal");
        fs::write(&path, b"garbage-not-a-journal").unwrap();
        let (mut wal, rec) = Wal::open(&path, true).unwrap();
        assert_eq!(rec.defect, Some(FrameDefect::BadMagic));
        assert!(rec.entries.is_empty());
        assert_eq!(rec.torn_bytes, 21);
        wal.append(job(1, 0.0)).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, true).unwrap();
        assert_eq!(rec.entries.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_drops_covered_records_and_survives_interruption() {
        let dir = tmpdir("truncate");
        let data = DataDir::open(&dir).unwrap();
        let (mut wal, _) = Wal::open(&data.journal_path(), true).unwrap();
        for i in 1..=4u64 {
            wal.append(job(i, i as f64)).unwrap();
        }
        let before = wal.len_bytes();
        let dropped = wal.truncate_through(2).unwrap();
        assert!(dropped > 0);
        assert_eq!(wal.len_bytes(), before - dropped);
        drop(wal);

        let (mut wal, rec) = Wal::open(&data.journal_path(), true).unwrap();
        assert_eq!(
            rec.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Appends continue lifetime numbering.
        assert_eq!(wal.append(job(5, 10.0)).unwrap(), 5);
        // An "interrupted" truncation (snapshot written, truncate never
        // ran) is repaired by the watermark filter in recover_data_dir.
        let snap = SnapshotFile {
            format_version: SNAPSHOT_FORMAT_VERSION,
            wal_seq: 4,
            wal_truncated_bytes: dropped,
            payload: serde::Value::Null,
        };
        data.write_snapshot(&snap).unwrap();
        drop(wal);
        let recovered = recover_data_dir(&data, true).unwrap();
        assert_eq!(recovered.covered, 2); // seqs 3 and 4 skipped
        assert_eq!(
            recovered.suffix.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![5]
        );
        assert_eq!(recovered.wal.next_seq(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_rotate_and_newest_valid_wins() {
        let dir = tmpdir("rotate");
        let data = DataDir::open(&dir).unwrap();
        for seq in [1u64, 2, 3] {
            data.write_snapshot(&SnapshotFile {
                format_version: SNAPSHOT_FORMAT_VERSION,
                wal_seq: seq,
                wal_truncated_bytes: 0,
                payload: serde::Value::Null,
            })
            .unwrap();
        }
        // Only the newest two generations remain.
        let mut kept: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snapshot-"))
            .collect();
        kept.sort();
        assert_eq!(kept.len(), 2);
        // Corrupt the newest: loading falls back to the previous one.
        fs::write(dir.join(&kept[1]), b"{torn").unwrap();
        let snap = data.load_latest_snapshot().unwrap().unwrap();
        assert_eq!(snap.wal_seq, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_and_newer_snapshot_versions_are_a_typed_error() {
        for version in [SNAPSHOT_FORMAT_VERSION - 1, SNAPSHOT_FORMAT_VERSION + 7] {
            let dir = tmpdir(&format!("version{version}"));
            let data = DataDir::open(&dir).unwrap();
            data.write_snapshot(&SnapshotFile {
                format_version: version,
                wal_seq: 1,
                wal_truncated_bytes: 0,
                payload: serde::Value::Null,
            })
            .unwrap();
            let err = data.load_latest_snapshot().unwrap_err();
            assert!(matches!(
                err,
                WalError::UnsupportedSnapshotVersion { found, supported, .. }
                    if found == version && supported == SNAPSHOT_FORMAT_VERSION
            ));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn decode_never_panics_on_arbitrary_prefix_corruption() {
        // Deterministic sweep: every truncation point and a bit flip at
        // every byte of a three-record journal decode without panicking,
        // and the valid prefix always re-decodes cleanly.
        let mut bytes = WAL_MAGIC.to_vec();
        for i in 1..=3u64 {
            bytes.extend_from_slice(
                &encode_frame(&WalEntry {
                    seq: i,
                    record: job(i, i as f64),
                })
                .unwrap(),
            );
        }
        for cut in 0..bytes.len() {
            let dec = decode_journal(&bytes[..cut]);
            let again = decode_journal(&bytes[..dec.valid_len as usize]);
            assert!(again.defect.is_none());
            assert_eq!(again.entries, dec.entries);
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            let dec = decode_journal(&flipped);
            let again = decode_journal(&flipped[..dec.valid_len as usize]);
            assert!(again.defect.is_none());
            assert_eq!(again.entries, dec.entries);
        }
    }
}
