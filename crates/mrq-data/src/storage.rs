//! Durable dataset storage: binary snapshots plus a write-ahead update log.
//!
//! Each durable dataset owns one directory holding two files:
//!
//! * **`snapshot.bin`** — the full dataset state at some version `V`:
//!   every record slot's coordinates, the tombstone bitmap and `V` itself,
//!   protected by a trailing CRC-32.  Snapshots are replaced atomically
//!   (write to a temp file, fsync, rename).
//! * **`wal.log`** — a write-ahead log of update *batches* applied after the
//!   snapshot.  A batch is appended and fsynced **before** the in-memory
//!   dataset swap commits, so a batch is committed if and only if its WAL
//!   record is fully durable.
//!
//! The log sequence number (LSN) of a batch is simply the dataset
//! [version](crate::Dataset::version) after the batch — PR 4's monotonic
//! update counter doubles as the recovery clock, so no second sequence
//! number exists to drift out of sync.
//!
//! # WAL record layout
//!
//! All integers are little-endian.  The file starts with a 16-byte header
//! (`magic, format version, dims`), then zero or more records:
//!
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! payload := u64 lsn | u32 n_ops | op*
//! op      := 0x00 u32 id  f64×dims     (insert; id = slot assigned)
//!          | 0x01 u32 id               (delete)
//! ```
//!
//! A crash can leave a *torn tail*: a final record whose header or payload
//! is incomplete, or whose checksum does not match.  Recovery stops at the
//! first torn record, discards it (the batch never committed — the dataset
//! swap happens only after the fsync returns) and truncates the log back to
//! the last intact boundary.  Because the unit of logging is the batch, a
//! torn tail never resurrects half of an atomic `UPDATE`.
//!
//! # Recovery and idempotence
//!
//! [`DatasetStore::open`] loads the snapshot (version `V`), then replays
//! every intact WAL batch through [`replay_batch`].  A batch with
//! `lsn <= version` is skipped — this makes replay idempotent, which is what
//! keeps the *checkpoint* protocol crash-safe: a checkpoint writes a new
//! snapshot at version `V'` (atomic rename) and then truncates the log; a
//! crash between the two leaves batches with `lsn <= V'` in the log, and the
//! next recovery simply skips them.
//!
//! # Real I/O versus the simulated cost model
//!
//! The per-query `io_reads` counters (`mrq_index::iostats`) implement the
//! paper's *simulated* page-access model — nothing is actually paged.  The
//! byte and page counts reported here ([`RecoveryReport`]) are the opposite:
//! they count bytes genuinely read from disk during recovery, converted to
//! pages of [`STORAGE_PAGE_BYTES`].  The serving layer surfaces them through
//! `metrics` as durability counters so the two kinds of "I/O" are never
//! conflated.
//!
//! # Fault injection (test hook)
//!
//! When the environment variable **`MRQ_STORAGE_CRASH_WAL_BYTES`** is set to
//! an integer `B`, [`DatasetStore::append`] writes WAL bytes only until the
//! cumulative post-header log size would exceed `B`, then writes the partial
//! record and calls [`std::process::abort`].  This produces a *genuinely*
//! torn append — the exact failure recovery must survive — and is used by
//! the crash-injection harness.  The variable is read once per process.
//!
//! A second hook, **`MRQ_STORAGE_FAIL_WAL_IO`**, makes [`DatasetStore::append`]
//! *report* an I/O error instead of dying, so the serving layer's graceful
//! degradation can be exercised: `append` fails before any byte is written,
//! `sync` writes a torn record then reports an fsync failure, `full` writes a
//! torn record then reports a disk-full error.  Unlike the crash hook it is
//! also settable at runtime through [`set_wal_fail_mode`] (tests toggle it
//! per-case within one process).

use crate::dataset::{Dataset, RecordId, Update};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// File name of the snapshot inside a dataset's storage directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// File name of the write-ahead log inside a dataset's storage directory.
pub const WAL_FILE: &str = "wal.log";
/// On-disk format version understood by this build (snapshot and WAL).
pub const FORMAT_VERSION: u32 = 1;
/// Page size used to convert recovery byte counts into page counts.  This
/// matches `mrq_index::PAGE_SIZE_BYTES` numerically, but counts *real* file
/// reads, not the simulated cost model.
pub const STORAGE_PAGE_BYTES: u64 = 4096;

const SNAP_MAGIC: &[u8; 8] = b"MRQSNAP\0";
const WAL_MAGIC: &[u8; 8] = b"MRQWAL\0\0";
/// Bytes of the WAL header: magic (8) + format version (4) + dims (4).
const WAL_HEADER_BYTES: u64 = 16;
/// Sanity cap on a single WAL payload; a larger length prefix is treated as
/// a torn tail (a torn write can leave arbitrary garbage in the length
/// field, so an implausible value must not trigger a huge allocation).
const MAX_WAL_PAYLOAD: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot or WAL could not be written or read.
///
/// Each variant renders to a single, self-contained message (`Display`)
/// suitable for surfacing directly to a CLI user — see the unit tests, which
/// pin one message per failure mode.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes — it is not a
    /// MaxRank storage file at all.
    BadMagic {
        /// The offending file.
        path: PathBuf,
        /// What the file was expected to be ("snapshot" or "WAL").
        expected: &'static str,
    },
    /// The file uses an on-disk format version this build does not read.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The format version found in the header.
        found: u32,
    },
    /// The file is structurally damaged: checksum mismatch, impossible
    /// lengths, or replay inconsistencies that a torn write cannot explain.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly is wrong.
        detail: String,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::BadMagic { path, expected } => write!(
                f,
                "{} is not a MaxRank {expected} file (magic bytes do not match)",
                path.display()
            ),
            StorageError::UnsupportedVersion { path, found } => write!(
                f,
                "{}: format version {found} is not supported (this build reads version {FORMAT_VERSION})",
                path.display()
            ),
            StorageError::Corrupt { path, detail } => {
                write!(f, "{} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — implemented in-tree, the container is offline.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a byte slice; every read is bounds-checked and returns
/// `None` past the end (the caller decides whether that means torn or
/// corrupt).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .map(|s| f64::from_le_bytes(s.try_into().unwrap()))
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Snapshot encode/decode
// ---------------------------------------------------------------------------

fn encode_snapshot(data: &Dataset) -> Vec<u8> {
    let values = data.raw_values();
    let words = data.tombstone_words();
    let mut buf = Vec::with_capacity(32 + values.len() * 8 + words.len() * 8 + 4);
    buf.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut buf, FORMAT_VERSION);
    put_u32(&mut buf, data.dims() as u32);
    put_u64(&mut buf, data.len() as u64);
    put_u64(&mut buf, data.version());
    for &v in values {
        put_f64(&mut buf, v);
    }
    for &w in words {
        put_u64(&mut buf, w);
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Writes a snapshot of `data` to `path` atomically (temp file + fsync +
/// rename + directory fsync).  Returns the snapshot size in bytes.
pub fn write_snapshot(path: &Path, data: &Dataset) -> Result<u64, StorageError> {
    let buf = encode_snapshot(data);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(buf.len() as u64)
}

/// Reads and validates the snapshot at `path`, returning the reconstructed
/// dataset and the number of bytes read.
pub fn read_snapshot(path: &Path) -> Result<(Dataset, u64), StorageError> {
    let buf = std::fs::read(path)?;
    let bytes = buf.len() as u64;
    let corrupt = |detail: String| StorageError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if buf.len() < 8 || &buf[..8] != SNAP_MAGIC {
        return Err(StorageError::BadMagic {
            path: path.to_path_buf(),
            expected: "snapshot",
        });
    }
    let mut cur = Cursor::new(&buf);
    cur.take(8);
    let format = cur
        .u32()
        .ok_or_else(|| corrupt("truncated header".into()))?;
    if format != FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: format,
        });
    }
    if buf.len() < 36 {
        return Err(corrupt("truncated header".into()));
    }
    let body = &buf[..buf.len() - 4];
    let stored_crc = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(corrupt(
            "snapshot checksum mismatch (the file is damaged or was torn mid-write)".into(),
        ));
    }
    let dims = cur.u32().unwrap() as usize;
    let slots = cur.u64().unwrap() as usize;
    let version = cur.u64().unwrap();
    let n_values = slots
        .checked_mul(dims)
        .ok_or_else(|| corrupt(format!("implausible geometry: {slots} slots × {dims} dims")))?;
    let n_words = slots.div_ceil(64);
    let expected = 32 + n_values * 8 + n_words * 8 + 4;
    if buf.len() != expected {
        return Err(corrupt(format!(
            "size {} does not match header ({slots} slots × {dims} dims needs {expected} bytes)",
            buf.len()
        )));
    }
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        values.push(cur.f64().unwrap());
    }
    let mut dead = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        dead.push(cur.u64().unwrap());
    }
    let data = Dataset::from_storage(dims, values, dead, version).map_err(corrupt)?;
    Ok((data, bytes))
}

// ---------------------------------------------------------------------------
// WAL encode/decode
// ---------------------------------------------------------------------------

/// One logged operation inside a [`WalBatch`].  Inserts record the slot id
/// the in-memory apply assigned, so replay can verify it reproduces the same
/// id space.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// An applied insertion: the assigned id and the record's coordinates.
    Insert {
        /// The slot id [`Dataset::apply`] assigned.
        id: RecordId,
        /// The inserted coordinates (`dims` of them).
        row: Vec<f64>,
    },
    /// An applied deletion of record `id`.
    Delete {
        /// The tombstoned record.
        id: RecordId,
    },
}

/// One atomic update batch in the WAL: the dataset version after the batch
/// (its LSN) plus the operations that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    /// Dataset version after the whole batch was applied.
    pub lsn: u64,
    /// The operations, in application order.
    pub ops: Vec<WalOp>,
}

fn encode_record(batch: &WalBatch, dims: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + batch.ops.len() * (5 + dims * 8));
    put_u64(&mut payload, batch.lsn);
    put_u32(&mut payload, batch.ops.len() as u32);
    for op in &batch.ops {
        match op {
            WalOp::Insert { id, row } => {
                debug_assert_eq!(row.len(), dims, "WAL insert row dimensionality mismatch");
                payload.push(0x00);
                put_u32(&mut payload, *id);
                for &v in row {
                    put_f64(&mut payload, v);
                }
            }
            WalOp::Delete { id } => {
                payload.push(0x01);
                put_u32(&mut payload, *id);
            }
        }
    }
    let mut rec = Vec::with_capacity(8 + payload.len());
    put_u32(&mut rec, payload.len() as u32);
    put_u32(&mut rec, crc32(&payload));
    rec.extend_from_slice(&payload);
    rec
}

fn decode_payload(payload: &[u8], dims: usize) -> Result<WalBatch, String> {
    let mut cur = Cursor::new(payload);
    let lsn = cur.u64().ok_or("payload too short for LSN")?;
    let n_ops = cur.u32().ok_or("payload too short for op count")? as usize;
    let mut ops = Vec::with_capacity(n_ops.min(1024));
    for i in 0..n_ops {
        let tag = cur.u8().ok_or_else(|| format!("op {i}: missing tag"))?;
        let id = cur.u32().ok_or_else(|| format!("op {i}: missing id"))?;
        match tag {
            0x00 => {
                let mut row = Vec::with_capacity(dims);
                for _ in 0..dims {
                    row.push(
                        cur.f64()
                            .ok_or_else(|| format!("op {i}: short insert row"))?,
                    );
                }
                ops.push(WalOp::Insert { id, row });
            }
            0x01 => ops.push(WalOp::Delete { id }),
            t => return Err(format!("op {i}: unknown tag 0x{t:02x}")),
        }
    }
    if cur.remaining() != 0 {
        return Err(format!(
            "{} trailing bytes after the last op",
            cur.remaining()
        ));
    }
    Ok(WalBatch { lsn, ops })
}

/// The decoded contents of a WAL file (see [`read_wal`]).
#[derive(Debug)]
pub struct WalContents {
    /// Dimensionality recorded in the WAL header, or `None` when the header
    /// itself is incomplete (a crash during WAL creation) — in that case
    /// `batches` is empty and the whole file is torn.
    pub dims: Option<usize>,
    /// Every intact batch, in log order.
    pub batches: Vec<WalBatch>,
    /// Bytes of the torn tail after the last intact record (0 for a clean
    /// log).  These bytes belong to a batch that never committed.
    pub torn_bytes: u64,
    /// Byte offset of the end of the last intact record — the truncation
    /// point recovery rewinds the file to before appending again.
    pub valid_len: u64,
    /// Total bytes read from the file.
    pub bytes_read: u64,
}

/// Reads the WAL at `path` without modifying it, stopping at (and
/// reporting) the first torn record.  Structural damage *before* the tail —
/// a wrong magic, an unknown format version, a checksum-valid record that
/// does not decode — is an error, not a torn tail.
pub fn read_wal(path: &Path) -> Result<WalContents, StorageError> {
    let buf = std::fs::read(path)?;
    let bytes_read = buf.len() as u64;
    if buf.len() < WAL_HEADER_BYTES as usize {
        // A crash while creating the log can leave a partial header; the
        // whole file is a torn tail.
        return Ok(WalContents {
            dims: None,
            batches: Vec::new(),
            torn_bytes: bytes_read,
            valid_len: 0,
            bytes_read,
        });
    }
    if &buf[..8] != WAL_MAGIC {
        return Err(StorageError::BadMagic {
            path: path.to_path_buf(),
            expected: "WAL",
        });
    }
    let format = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if format != FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: format,
        });
    }
    let dims = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let mut batches = Vec::new();
    let mut off = WAL_HEADER_BYTES as usize;
    while off < buf.len() {
        let rest = &buf[off..];
        if rest.len() < 8 {
            break; // torn: incomplete record header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        if len > MAX_WAL_PAYLOAD {
            break; // torn: the length field itself is garbage
        }
        let len = len as usize;
        if rest.len() - 8 < len {
            break; // torn: incomplete payload
        }
        let stored_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let payload = &rest[8..8 + len];
        if crc32(payload) != stored_crc {
            break; // torn: the payload never finished hitting the disk
        }
        let batch = decode_payload(payload, dims).map_err(|detail| StorageError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("record at byte {off}: {detail}"),
        })?;
        batches.push(batch);
        off += 8 + len;
    }
    Ok(WalContents {
        dims: Some(dims),
        batches,
        torn_bytes: (buf.len() - off) as u64,
        valid_len: off as u64,
        bytes_read,
    })
}

/// Replays one WAL batch onto `data`.
///
/// Returns `Ok(false)` when the batch's LSN is at or below the dataset's
/// current version — already contained in the snapshot — which is what makes
/// replaying the same WAL twice **idempotent**.  Returns `Ok(true)` after
/// actually applying the batch.  An LSN gap, a rejected update or an insert
/// that lands on a different id than the log recorded is corruption: the log
/// does not describe this dataset.
pub fn replay_batch(data: &mut Dataset, batch: &WalBatch) -> Result<bool, String> {
    if batch.lsn <= data.version() {
        return Ok(false);
    }
    if batch.lsn != data.version() + batch.ops.len() as u64 {
        return Err(format!(
            "LSN gap: dataset at version {}, next batch is {} ops ending at LSN {}",
            data.version(),
            batch.ops.len(),
            batch.lsn
        ));
    }
    for op in &batch.ops {
        match op {
            WalOp::Insert { id, row } => {
                let applied = data
                    .apply(&Update::Insert(row.clone()))
                    .map_err(|e| format!("replayed insert rejected: {e}"))?;
                if applied.inserted != Some(*id) {
                    return Err(format!(
                        "replayed insert was assigned id {:?}, the log recorded id {id}",
                        applied.inserted
                    ));
                }
            }
            WalOp::Delete { id } => {
                data.apply(&Update::Delete(*id))
                    .map_err(|e| format!("replayed delete of id {id} rejected: {e}"))?;
            }
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// DatasetStore
// ---------------------------------------------------------------------------

/// What [`DatasetStore::open`] did to bring a dataset back: how much state
/// came from the snapshot, how much was replayed from the WAL, and how many
/// bytes were *actually* read from disk (in contrast to the simulated
/// `io_reads` cost model — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Dataset version after recovery (snapshot version + replayed batches).
    pub version: u64,
    /// Dataset version stored in the snapshot (before WAL replay).
    pub snapshot_version: u64,
    /// Live records after recovery.
    pub live_records: usize,
    /// Record slots (live + tombstoned) after recovery.
    pub slots: usize,
    /// WAL batches actually applied (idempotently skipped ones excluded).
    pub batches_replayed: u64,
    /// Bytes of torn WAL tail discarded (an uncommitted batch).
    pub torn_bytes_discarded: u64,
    /// Snapshot bytes read from disk.
    pub snapshot_bytes: u64,
    /// WAL bytes read from disk.
    pub wal_bytes: u64,
    /// Real pages read during recovery:
    /// `ceil((snapshot_bytes + wal_bytes) / STORAGE_PAGE_BYTES)`.
    pub pages_read: u64,
}

/// Handle on one dataset's durable storage directory: the snapshot, plus an
/// open append handle on the WAL.
///
/// A store assumes single-process ownership of its directory (no file
/// locking is attempted); the serving layer serialises writers through the
/// dataset's update lock.
#[derive(Debug)]
pub struct DatasetStore {
    dir: PathBuf,
    dims: usize,
    wal: File,
    /// Current WAL file size in bytes (header included).
    wal_bytes: u64,
}

impl DatasetStore {
    /// Path of the snapshot file inside `dir`.
    pub fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join(SNAPSHOT_FILE)
    }

    /// Path of the WAL file inside `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join(WAL_FILE)
    }

    /// Whether `dir` already holds a dataset store (a snapshot exists).
    pub fn exists(dir: &Path) -> bool {
        Self::snapshot_path(dir).exists()
    }

    /// Creates a fresh store for `data` in `dir` (creating the directory if
    /// needed): writes the initial snapshot and an empty WAL.
    pub fn create(dir: &Path, data: &Dataset) -> Result<Self, StorageError> {
        std::fs::create_dir_all(dir)?;
        write_snapshot(&Self::snapshot_path(dir), data)?;
        let mut wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(Self::wal_path(dir))?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        header.extend_from_slice(WAL_MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u32(&mut header, data.dims() as u32);
        wal.write_all(&header)?;
        wal.sync_all()?;
        Ok(Self {
            dir: dir.to_path_buf(),
            dims: data.dims(),
            wal,
            wal_bytes: WAL_HEADER_BYTES,
        })
    }

    /// Opens the store in `dir`, recovering the dataset: loads the snapshot,
    /// replays the intact WAL tail and truncates any torn tail so the next
    /// append starts at a clean record boundary.  A missing WAL (never a
    /// normal state, but survivable) is recreated empty.
    pub fn open(dir: &Path) -> Result<(Self, Dataset, RecoveryReport), StorageError> {
        let snap_path = Self::snapshot_path(dir);
        let wal_path = Self::wal_path(dir);
        let (mut data, snapshot_bytes) = read_snapshot(&snap_path)?;
        let snapshot_version = data.version();

        if !wal_path.exists() {
            let store = Self::create_wal_only(dir, &data)?;
            let report = RecoveryReport {
                version: data.version(),
                snapshot_version,
                live_records: data.live_len(),
                slots: data.len(),
                snapshot_bytes,
                pages_read: snapshot_bytes.div_ceil(STORAGE_PAGE_BYTES),
                ..Default::default()
            };
            return Ok((store, data, report));
        }

        let contents = read_wal(&wal_path)?;
        if let Some(dims) = contents.dims {
            if dims != data.dims() {
                return Err(StorageError::Corrupt {
                    path: wal_path,
                    detail: format!(
                        "WAL header says {dims} attributes, the snapshot has {}",
                        data.dims()
                    ),
                });
            }
        }
        let mut batches_replayed = 0u64;
        for batch in &contents.batches {
            let applied =
                replay_batch(&mut data, batch).map_err(|detail| StorageError::Corrupt {
                    path: wal_path.clone(),
                    detail,
                })?;
            if applied {
                batches_replayed += 1;
            }
        }

        // Repair: rewind the log to the last intact record boundary (or
        // recreate it entirely if the header itself was torn) so appends
        // resume cleanly.
        let mut wal;
        let wal_bytes;
        if contents.dims.is_none() {
            let store = Self::create_wal_only(dir, &data)?;
            wal = store.wal;
            wal_bytes = WAL_HEADER_BYTES;
        } else {
            wal = OpenOptions::new().write(true).open(&wal_path)?;
            if contents.torn_bytes > 0 {
                wal.set_len(contents.valid_len)?;
                wal.sync_all()?;
            }
            wal.seek(SeekFrom::End(0))?;
            wal_bytes = contents.valid_len;
        }

        let report = RecoveryReport {
            version: data.version(),
            snapshot_version,
            live_records: data.live_len(),
            slots: data.len(),
            batches_replayed,
            torn_bytes_discarded: contents.torn_bytes,
            snapshot_bytes,
            wal_bytes: contents.bytes_read,
            pages_read: (snapshot_bytes + contents.bytes_read).div_ceil(STORAGE_PAGE_BYTES),
        };
        let store = Self {
            dir: dir.to_path_buf(),
            dims: data.dims(),
            wal,
            wal_bytes,
        };
        Ok((store, data, report))
    }

    /// Writes a fresh empty WAL for `data` in `dir` and returns a store
    /// handle positioned after its header.
    fn create_wal_only(dir: &Path, data: &Dataset) -> Result<Self, StorageError> {
        let mut wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(Self::wal_path(dir))?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        header.extend_from_slice(WAL_MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u32(&mut header, data.dims() as u32);
        wal.write_all(&header)?;
        wal.sync_all()?;
        Ok(Self {
            dir: dir.to_path_buf(),
            dims: data.dims(),
            wal,
            wal_bytes: WAL_HEADER_BYTES,
        })
    }

    /// Appends one batch record and fsyncs it.  Returns the bytes appended.
    /// The caller must only swap the batch into the in-memory dataset
    /// *after* this returns: durability before visibility.
    pub fn append(&mut self, batch: &WalBatch) -> Result<u64, StorageError> {
        let rec = encode_record(batch, self.dims);
        if let Some(budget) = crash_budget() {
            let after = self.wal_bytes - WAL_HEADER_BYTES + rec.len() as u64;
            if after > budget {
                // Fault injection (see module docs): emit a genuinely torn
                // record, make it durable, then die without unwinding.
                let keep = budget.saturating_sub(self.wal_bytes - WAL_HEADER_BYTES) as usize;
                let _ = self.wal.write_all(&rec[..keep.min(rec.len())]);
                let _ = self.wal.sync_data();
                std::process::abort();
            }
        }
        match wal_fail_mode() {
            WalFailMode::Off => {}
            WalFailMode::Append => {
                // Fails before touching the file: the log is byte-for-byte
                // what it was, the batch was simply never written.
                return Err(StorageError::Io(std::io::Error::other(
                    "injected WAL append failure (MRQ_STORAGE_FAIL_WAL_IO=append)",
                )));
            }
            WalFailMode::Sync => {
                // A write that "succeeded" but whose fsync failed: the tail
                // may be torn on disk, and recovery must discard it.
                let _ = self.wal.write_all(&rec[..rec.len() / 2]);
                return Err(StorageError::Io(std::io::Error::other(
                    "injected WAL fsync failure (MRQ_STORAGE_FAIL_WAL_IO=sync)",
                )));
            }
            WalFailMode::Full => {
                // Disk filled mid-record: a short write followed by ENOSPC.
                let keep = rec.len().min(8);
                let _ = self.wal.write_all(&rec[..keep]);
                let _ = self.wal.sync_data();
                return Err(StorageError::Io(std::io::Error::other(
                    "no space left on device (injected, MRQ_STORAGE_FAIL_WAL_IO=full)",
                )));
            }
        }
        self.wal.write_all(&rec)?;
        self.wal.sync_data()?;
        self.wal_bytes += rec.len() as u64;
        Ok(rec.len() as u64)
    }

    /// Current WAL size in bytes, header included (the checkpoint-trigger
    /// metric).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Dimensionality this store was created for.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints: atomically replaces the snapshot with `data`'s current
    /// state, then truncates the WAL back to its header.  A crash between
    /// the two steps is safe because replay skips batches whose LSN is at or
    /// below the snapshot version.  Returns the new snapshot's size.
    pub fn checkpoint(&mut self, data: &Dataset) -> Result<u64, StorageError> {
        let bytes = write_snapshot(&Self::snapshot_path(&self.dir), data)?;
        self.wal.set_len(WAL_HEADER_BYTES)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.wal.sync_all()?;
        self.wal_bytes = WAL_HEADER_BYTES;
        Ok(bytes)
    }
}

/// fsync a directory so a rename inside it is durable (best-effort on
/// platforms where directories cannot be opened).
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    match File::open(dir) {
        Ok(f) => {
            f.sync_all()?;
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

/// The fault-injection budget, read once per process (see module docs).
fn crash_budget() -> Option<u64> {
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("MRQ_STORAGE_CRASH_WAL_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// Injectable WAL append failure, for exercising graceful storage
/// degradation (see module docs).  Unlike the crash hook this one *returns*
/// an error instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WalFailMode {
    /// No fault injected (the default).
    Off = 0,
    /// `append` fails before writing any byte.
    Append = 1,
    /// `append` leaves a torn record, then reports an fsync failure.
    Sync = 2,
    /// `append` leaves a short torn record, then reports disk-full.
    Full = 3,
}

/// `u8::MAX` marks "not yet initialised from the environment".
static WAL_FAIL: AtomicU8 = AtomicU8::new(u8::MAX);

/// Current injected WAL failure mode; first call reads
/// `MRQ_STORAGE_FAIL_WAL_IO` (`append` / `sync` / `full`).
fn wal_fail_mode() -> WalFailMode {
    let v = WAL_FAIL.load(Ordering::Relaxed);
    if v != u8::MAX {
        return decode_fail_mode(v);
    }
    let mode = match std::env::var("MRQ_STORAGE_FAIL_WAL_IO").ok().as_deref() {
        Some("append") => WalFailMode::Append,
        Some("sync") => WalFailMode::Sync,
        Some("full") => WalFailMode::Full,
        _ => WalFailMode::Off,
    };
    WAL_FAIL.store(mode as u8, Ordering::Relaxed);
    mode
}

fn decode_fail_mode(v: u8) -> WalFailMode {
    match v {
        1 => WalFailMode::Append,
        2 => WalFailMode::Sync,
        3 => WalFailMode::Full,
        _ => WalFailMode::Off,
    }
}

/// Sets (or clears, with [`WalFailMode::Off`]) the injected WAL failure mode
/// at runtime, overriding the environment variable.  A documented test hook:
/// degraded-mode tests toggle faults per-case inside one process.
pub fn set_wal_fail_mode(mode: WalFailMode) {
    WAL_FAIL.store(mode as u8, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Update};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mrq_storage_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::from_rows(
            3,
            &[
                vec![0.8, 0.9, 0.1],
                vec![0.2, 0.7, 0.5],
                vec![0.9, 0.4, 0.3],
                vec![0.7, 0.2, 0.8],
            ],
        );
        ds.apply(&Update::Delete(1)).unwrap();
        ds.apply(&Update::Insert(vec![0.4, 0.3, 0.9])).unwrap();
        ds
    }

    /// Applies `n_batches` small deterministic batches through the store,
    /// mirroring them in `data`; returns the per-boundary states keyed by
    /// version.
    fn grow(store: &mut DatasetStore, data: &mut Dataset, n_batches: usize) -> Vec<(u64, Dataset)> {
        let mut states = vec![(data.version(), data.clone())];
        for b in 0..n_batches {
            let mut ops = Vec::new();
            let row: Vec<f64> = (0..data.dims())
                .map(|k| 0.1 + 0.07 * ((b + k) % 9) as f64)
                .collect();
            let applied = data.apply(&Update::Insert(row.clone())).unwrap();
            ops.push(WalOp::Insert {
                id: applied.inserted.unwrap(),
                row,
            });
            if b % 3 == 2 {
                let victim = data.iter().map(|(id, _)| id).next().unwrap();
                data.apply(&Update::Delete(victim)).unwrap();
                ops.push(WalOp::Delete { id: victim });
            }
            store
                .append(&WalBatch {
                    lsn: data.version(),
                    ops,
                })
                .unwrap();
            states.push((data.version(), data.clone()));
        }
        states
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_version() {
        let dir = tmp_dir("snap_roundtrip");
        let ds = sample_dataset();
        let path = DatasetStore::snapshot_path(&dir);
        let written = write_snapshot(&path, &ds).unwrap();
        let (back, read) = read_snapshot(&path).unwrap();
        assert_eq!(written, read);
        assert_eq!(back, ds);
        assert_eq!(back.version(), ds.version(), "version survives, too");
        assert_eq!(back.live_len(), ds.live_len());
        assert_eq!(back.len(), ds.len());
        assert!(!back.is_live(1), "tombstone survived");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_of_empty_dataset_roundtrips() {
        let dir = tmp_dir("snap_empty");
        let mut ds = Dataset::from_rows(2, &[vec![0.1, 0.2]]);
        ds.apply(&Update::Delete(0)).unwrap();
        let path = DatasetStore::snapshot_path(&dir);
        write_snapshot(&path, &ds).unwrap();
        let (back, _) = read_snapshot(&path).unwrap();
        assert_eq!(back, ds);
        assert!(back.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bad_magic_is_a_friendly_error() {
        let dir = tmp_dir("snap_magic");
        let path = DatasetStore::snapshot_path(&dir);
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StorageError::BadMagic { .. }));
        let msg = err.to_string();
        assert!(
            msg.contains("not a MaxRank snapshot file"),
            "message was: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_future_format_version_is_a_friendly_error() {
        let dir = tmp_dir("snap_version");
        let path = DatasetStore::snapshot_path(&dir);
        let mut buf = encode_snapshot(&sample_dataset());
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Re-seal the checksum so only the version field is "wrong".
        let crc = crc32(&buf[..buf.len() - 4]);
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(
            err,
            StorageError::UnsupportedVersion { found: 2, .. }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("format version 2 is not supported"),
            "message was: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bit_flip_fails_the_checksum() {
        let dir = tmp_dir("snap_corrupt");
        let path = DatasetStore::snapshot_path(&dir);
        write_snapshot(&path, &sample_dataset()).unwrap();
        let mut buf = std::fs::read(&path).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        std::fs::write(&path, &buf).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
        let msg = err.to_string();
        assert!(msg.contains("checksum mismatch"), "message was: {msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_io_error_display_mentions_io() {
        let err = StorageError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(err.to_string().contains("storage I/O error"));
    }

    #[test]
    fn create_open_append_reopen_roundtrip() {
        let dir = tmp_dir("store_roundtrip");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        let states = grow(&mut store, &mut data, 7);
        drop(store);

        let (_store2, recovered, report) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered, data);
        assert_eq!(recovered.version(), data.version());
        assert_eq!(report.version, data.version());
        assert_eq!(report.snapshot_version, states[0].0);
        assert_eq!(report.batches_replayed, 7);
        assert_eq!(report.torn_bytes_discarded, 0);
        assert!(report.snapshot_bytes > 0);
        assert!(report.wal_bytes > WAL_HEADER_BYTES);
        assert_eq!(
            report.pages_read,
            (report.snapshot_bytes + report.wal_bytes).div_ceil(STORAGE_PAGE_BYTES)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_after_recovery_continues_the_log() {
        let dir = tmp_dir("store_continue");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        grow(&mut store, &mut data, 3);
        drop(store);

        let (mut store2, mut recovered, _) = DatasetStore::open(&dir).unwrap();
        grow(&mut store2, &mut recovered, 2);
        drop(store2);

        let (_, recovered3, report) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered3, recovered);
        assert_eq!(report.batches_replayed, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = tmp_dir("store_checkpoint");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        grow(&mut store, &mut data, 5);
        assert!(store.wal_bytes() > WAL_HEADER_BYTES);
        store.checkpoint(&data).unwrap();
        assert_eq!(store.wal_bytes(), WAL_HEADER_BYTES);
        let version_at_checkpoint = data.version();
        grow(&mut store, &mut data, 2);
        drop(store);

        let (_, recovered, report) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered, data);
        assert_eq!(report.snapshot_version, version_at_checkpoint);
        assert_eq!(report.batches_replayed, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_batches_are_skipped_idempotently() {
        // Simulates a crash between snapshot rename and WAL truncation: the
        // WAL still holds batches the snapshot already contains.
        let dir = tmp_dir("store_stale_wal");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        grow(&mut store, &mut data, 4);
        // Rewrite the snapshot at the current version but do NOT truncate.
        write_snapshot(&DatasetStore::snapshot_path(&dir), &data).unwrap();
        drop(store);

        let (_, recovered, report) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered, data);
        assert_eq!(
            report.batches_replayed, 0,
            "all WAL batches were at or below the snapshot version"
        );
        assert_eq!(report.snapshot_version, data.version());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replaying_the_same_wal_twice_is_idempotent() {
        let dir = tmp_dir("store_idempotent");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        grow(&mut store, &mut data, 6);
        drop(store);

        let contents = read_wal(&DatasetStore::wal_path(&dir)).unwrap();
        let (mut recovered, _) = read_snapshot(&DatasetStore::snapshot_path(&dir)).unwrap();
        let mut applied = 0;
        for b in &contents.batches {
            if replay_batch(&mut recovered, b).unwrap() {
                applied += 1;
            }
        }
        assert_eq!(applied, 6);
        let once = recovered.clone();
        // Second pass: every batch must be skipped, nothing must change.
        for b in &contents.batches {
            assert!(!replay_batch(&mut recovered, b).unwrap());
        }
        assert_eq!(recovered, once);
        assert_eq!(recovered.version(), once.version());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_truncated_at_every_byte_offset_recovers_a_committed_prefix() {
        // The strongest torn-tail statement we can make: for EVERY possible
        // truncation point of the log, read_wal yields an intact prefix of
        // whole batches, and replaying it reproduces exactly the state the
        // mirror had at that batch boundary.
        let dir = tmp_dir("store_every_offset");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        let states = grow(&mut store, &mut data, 8);
        drop(store);

        let wal_path = DatasetStore::wal_path(&dir);
        let full = std::fs::read(&wal_path).unwrap();
        let snap_path = DatasetStore::snapshot_path(&dir);
        let cut_path = dir.join("wal.cut");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let contents = read_wal(&cut_path).unwrap();
            let (mut recovered, _) = read_snapshot(&snap_path).unwrap();
            for b in &contents.batches {
                replay_batch(&mut recovered, b).unwrap();
            }
            let (expect_version, expect_state) = states
                .iter()
                .rev()
                .find(|(v, _)| *v <= recovered.version())
                .unwrap();
            assert_eq!(
                recovered.version(),
                *expect_version,
                "cut at byte {cut} recovered a non-boundary version"
            );
            assert_eq!(&recovered, expect_state, "cut at byte {cut}");
            // The torn accounting always adds up to the cut length.
            assert_eq!(contents.valid_len + contents.torn_bytes, cut as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_repairs_a_torn_tail_and_appends_cleanly_after() {
        let dir = tmp_dir("store_torn_repair");
        let mut data = sample_dataset();
        let mut store = DatasetStore::create(&dir, &data).unwrap();
        let states = grow(&mut store, &mut data, 4);
        drop(store);

        // Tear the last record by chopping 5 bytes off the file.
        let wal_path = DatasetStore::wal_path(&dir);
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();

        let (mut store2, mut recovered, report) = DatasetStore::open(&dir).unwrap();
        assert!(report.torn_bytes_discarded > 0);
        let (v3, s3) = &states[3];
        assert_eq!(recovered.version(), *v3, "the 4th batch never committed");
        assert_eq!(&recovered, s3);

        // The file was truncated back to a record boundary; appending works.
        grow(&mut store2, &mut recovered, 2);
        drop(store2);
        let (_, recovered2, report2) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered2, recovered);
        assert_eq!(report2.torn_bytes_discarded, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_header_resets_the_log() {
        let dir = tmp_dir("store_torn_header");
        let data = sample_dataset();
        let store = DatasetStore::create(&dir, &data).unwrap();
        drop(store);
        let wal_path = DatasetStore::wal_path(&dir);
        std::fs::write(&wal_path, b"MRQW").unwrap(); // 4 of 16 header bytes
        let (_, recovered, report) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered, data);
        assert_eq!(report.torn_bytes_discarded, 4);
        // The header was rewritten; a reopen sees a clean empty log.
        let contents = read_wal(&wal_path).unwrap();
        assert_eq!(contents.dims, Some(3));
        assert!(contents.batches.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_with_wrong_dims_is_rejected() {
        let dir = tmp_dir("store_wrong_dims");
        let data = sample_dataset(); // 3-dimensional
        let store = DatasetStore::create(&dir, &data).unwrap();
        drop(store);
        // Overwrite the WAL with a header claiming 2 dimensions.
        let other = Dataset::from_rows(2, &[vec![0.1, 0.2]]);
        let tmp2 = tmp_dir("store_wrong_dims_b");
        let s2 = DatasetStore::create(&tmp2, &other).unwrap();
        drop(s2);
        std::fs::copy(DatasetStore::wal_path(&tmp2), DatasetStore::wal_path(&dir)).unwrap();
        let err = DatasetStore::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("attributes"), "message was: {msg}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&tmp2).unwrap();
    }

    #[test]
    fn replay_detects_lsn_gaps_and_id_drift() {
        let mut data = sample_dataset();
        let v = data.version();
        // Gap: claims to end far beyond version + ops.
        let gap = WalBatch {
            lsn: v + 10,
            ops: vec![WalOp::Delete { id: 0 }],
        };
        assert!(replay_batch(&mut data, &gap)
            .unwrap_err()
            .contains("LSN gap"));
        // Id drift: the log says the insert landed on id 99.
        let drift = WalBatch {
            lsn: v + 1,
            ops: vec![WalOp::Insert {
                id: 99,
                row: vec![0.5, 0.5, 0.5],
            }],
        };
        let err = replay_batch(&mut data, &drift).unwrap_err();
        assert!(err.contains("id"), "error was: {err}");
    }

    #[test]
    fn missing_wal_is_recreated_empty() {
        let dir = tmp_dir("store_missing_wal");
        let data = sample_dataset();
        let store = DatasetStore::create(&dir, &data).unwrap();
        drop(store);
        std::fs::remove_file(DatasetStore::wal_path(&dir)).unwrap();
        let (_, recovered, report) = DatasetStore::open(&dir).unwrap();
        assert_eq!(recovered, data);
        assert_eq!(report.wal_bytes, 0);
        assert!(DatasetStore::wal_path(&dir).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
