//! Durable persistence: an append-only segment log plus checkpoint
//! compaction, built on the [`qc_common::codec`] cursor pair.
//!
//! Everything the store accumulates lives in memory; this module is the
//! restart-safety layer ([`crate::SketchStore::recover`] is the entry
//! point). The design is the classic WAL + snapshot pair, specialized to
//! mergeable summaries:
//!
//! * **Segment log** — every mutating store operation (`update_many`,
//!   `ingest_bytes`, `remove`) appends one length-prefixed, CRC-trailed
//!   record to the active `wal-<seq>.log` segment *while holding the
//!   key's stripe lock*, so per-key log order always matches per-key
//!   apply order. Records carry a store-wide **LSN** (log sequence
//!   number, strictly increasing, assigned under the log mutex).
//! * **Checkpoints** — a housekeeping sweep seals the active segment,
//!   then takes each key's `(cut, last_lsn)` in the key's one exclusive
//!   stripe-lock hold and encodes the cut after it: every key's resident
//!   [`qc_common::WeightedSummary`] (the same CRC-checked [`crate::wire`]
//!   frame that crosses the network) plus its last-applied LSN go into
//!   `ckpt-<seq>.ck` (via a temp file + rename), and finally the sweep
//!   deletes the sealed segments and older checkpoints it supersedes. Because summaries merge with **exact**
//!   weight conservation, a checkpoint is a lossless compaction of the
//!   log prefix it covers.
//! * **Recovery** — load the newest fully-valid checkpoint (corrupt ones
//!   fall back to their predecessor, whose segments are still on disk —
//!   pruning happens only after the successor is durable), ingest each
//!   entry through the ordinary summary-ingest path, then replay the
//!   remaining segments in order, skipping records the checkpoint already
//!   covers (`record.lsn <= checkpoint lsn` for that key). Replay stops
//!   at the first torn or corrupt frame with a **typed**
//!   [`RecordError`] in the [`RecoveryReport`] — never a panic and never
//!   an attacker-sized allocation (every allocation is bounded by the
//!   actual file length).
//!
//! # Record frame layout
//!
//! Both file kinds open with the [`qc_common::codec`] header and share
//! one frame envelope (integers, varints and strings per that module's
//! conventions):
//!
//! ```text
//! offset  size  field
//! 0       4     body length `n` (u32 LE, <= MAX_RECORD_LEN)
//! 4       n     body
//! 4+n     4     CRC-32 (IEEE) over the body
//! ```
//!
//! Segment bodies: `opcode u8`, `lsn varint`, `key_len varint`, key
//! bytes, then an opcode-specific payload — `0x01` update batch
//! (`window id` varint, `count` varint + `count` 8-byte LE ordered-bit
//! values), `0x02` ingest (one [`crate::wire`] summary frame, verbatim),
//! `0x03` remove (empty). Checkpoint bodies: `0x10` entry (`lsn varint`,
//! `key_len varint`, key, `active window id` varint, `watermark` varint,
//! `sealed count` varint, then per sealed window `start id` varint +
//! `level u8` + `frame_len` varint + summary frame, then the active
//! summary frame to the end of the body) and `0x1f` footer (`entry
//! count` varint), which must be the final frame — a checkpoint without
//! its footer is rejected whole.
//!
//! # Versioning
//!
//! Version 2 only: the layout above, with the window id in update-batch
//! bodies and the windowed fields in checkpoint entries (an unwindowed
//! store writes window 0 and no sealed windows). Writers emit exactly
//! [`PERSIST_VERSION`] and readers accept exactly it — any other header
//! version is a typed [`CodecError::UnsupportedVersion`], never a
//! best-effort decode. (Version 1, the pre-window layout, was never
//! written by a released build.) The header check's failures — wrong
//! magic, version, flags, a file shorter than the header — arrive as
//! [`RecordError::Codec`].
//!
//! # Durability guarantee
//!
//! With [`FsyncPolicy::PerFrame`], an operation that has returned is
//! durable: recovery conserves every key's weight **exactly** up to the
//! last fsync'd frame, and the crash-injection suite kills a loaded
//! server with SIGKILL to hold it to that. `Interval` bounds data loss by
//! time instead of by frame; `Off` leaves flushing to the OS (a clean
//! shutdown still syncs the tail).
//!
//! The fsync itself is **group commit** (`CommitSequencer`): appends
//! only buffer and sequence under the WAL mutex; a durable writer then
//! parks on the `durable_lsn` watermark after releasing its stripe lock,
//! the first parked waiter leads one fsync covering every LSN appended
//! so far, and all covered waiters wake together. `ack ⇒ durable` is
//! unchanged — only the number of physical syncs shrinks, and no store
//! lock is ever held across the disk wait.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use qc_common::codec::{CodecError, Reader, Writer, CHECKSUM_LEN};

use crate::wire::{decode_summary, WireError};

/// First four bytes of every log segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"QCWL";

/// First four bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"QCCP";

/// On-disk format version for both file kinds — the only one this
/// build reads or writes.
pub const PERSIST_VERSION: u16 = 2;

/// Fixed file header length (magic + version + flags).
pub const FILE_HEADER_LEN: usize = 8;

/// Per-frame envelope overhead (length prefix + CRC trailer).
pub const FRAME_OVERHEAD: usize = 8;

/// Upper bound on a single record body. Anything larger is corruption by
/// construction (the store caps batches far below this), so the decoder
/// can reject absurd lengths before trusting them.
pub const MAX_RECORD_LEN: usize = 1 << 26;

/// When (and whether) the log fsyncs appended frames.
///
/// Since the group-commit split, no policy fsyncs *inside* the append
/// path (which runs under the stripe-lock hold): appends only buffer and
/// sequence; the sync happens afterwards, outside every store lock, via
/// the `CommitSequencer`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// An acknowledged operation is durable before the call returns. The
    /// writer parks on the `durable_lsn` watermark; the first parked
    /// waiter becomes sync leader and one `fdatasync` covers every
    /// concurrent writer (group commit). The default — correctness
    /// first; `qcb`'s `persist.durable_ack_p50_us` prices one writer's
    /// ack, `qc-bench`'s `store_wal_group_*` axis how N writers share it.
    PerFrame,
    /// `fdatasync` at most once per interval, checked on the sync path
    /// (after the stripe lock is released) and on every housekeeping
    /// sweep: bounded data loss, near-`Off` cost, and concurrent
    /// appenders coalesce into one interval sync.
    Interval(Duration),
    /// Never fsync from the store; the OS flushes when it pleases. A
    /// clean shutdown still syncs the tail once.
    Off,
}

/// A filesystem operation failed. Carries which operation, on which
/// path — the one error recovery cannot type its way around.
#[derive(Debug)]
pub struct PersistError {
    /// The operation that failed (`"create"`, `"read"`, `"rename"`, …).
    pub op: &'static str,
    /// The path it failed on.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl PersistError {
    fn new(op: &'static str, path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        PersistError { op, path: path.into(), source }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "persistence {} failed on {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Typed decode failures for one log/checkpoint frame. Like
/// [`WireError`], every malformed input maps to one of these — frame
/// decoding never panics, whatever the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// A failure kind every format shares: a bad file header (short
    /// file, wrong magic, version or flags), a frame whose CRC-32
    /// trailer does not match its body, or a body that fails structural
    /// decoding (varint overrun, length past the body, non-UTF-8 key,
    /// trailing bytes). Offsets inside are file offsets.
    Codec(CodecError),
    /// The file ends mid-frame — the torn tail of an interrupted write.
    Torn {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// Bytes the frame claims to need.
        needed: usize,
        /// Bytes actually present from `offset`.
        have: usize,
    },
    /// A frame length prefix exceeds [`MAX_RECORD_LEN`].
    Oversized {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The claimed body length.
        length: usize,
    },
    /// The body's opcode byte is not one this build knows.
    BadOpcode {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The opcode found.
        found: u8,
    },
    /// The record carries LSN 0, which the log never assigns.
    ZeroLsn {
        /// Byte offset of the frame's length prefix.
        offset: usize,
    },
    /// An ingest record's embedded summary frame failed
    /// [`decode_summary`].
    BadSummary {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The wire-level cause.
        cause: WireError,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Codec(e) => e.fmt(f),
            RecordError::Torn { offset, needed, have } => {
                write!(f, "torn frame at byte {offset}: need {needed} bytes, have {have}")
            }
            RecordError::Oversized { offset, length } => {
                write!(f, "oversized frame at byte {offset}: {length} bytes")
            }
            RecordError::BadOpcode { offset, found } => {
                write!(f, "unknown record opcode {found:#04x} at byte {offset}")
            }
            RecordError::ZeroLsn { offset } => write!(f, "zero LSN in record at byte {offset}"),
            RecordError::BadSummary { offset, cause } => {
                write!(f, "record at byte {offset} embeds an invalid summary: {cause}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<CodecError> for RecordError {
    fn from(e: CodecError) -> Self {
        RecordError::Codec(e)
    }
}

/// Why a whole checkpoint file was rejected (recovery then falls back to
/// the previous checkpoint, whose segments are still on disk).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// A frame inside the checkpoint failed to decode.
    Frame(RecordError),
    /// The file ended without (or with frames after) the footer.
    MissingFooter,
    /// The footer's entry count disagrees with the entries present.
    CountMismatch {
        /// Count stored in the footer.
        stored: u64,
        /// Entries actually decoded.
        found: u64,
    },
    /// An entry's embedded summary frame failed [`decode_summary`].
    BadSummary {
        /// Index of the offending entry.
        index: usize,
        /// The wire-level cause.
        cause: WireError,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Frame(e) => write!(f, "checkpoint frame error: {e}"),
            CheckpointError::MissingFooter => f.write_str("checkpoint footer missing"),
            CheckpointError::CountMismatch { stored, found } => {
                write!(f, "checkpoint footer count {stored} != {found} entries")
            }
            CheckpointError::BadSummary { index, cause } => {
                write!(f, "checkpoint entry {index} summary invalid: {cause}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<RecordError> for CheckpointError {
    fn from(e: RecordError) -> Self {
        CheckpointError::Frame(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Frame(e.into())
    }
}

/// One durable mutation, as decoded from a segment.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordOp {
    /// A batch of ordered-bit values fed to one key.
    UpdateMany {
        /// The target key.
        key: String,
        /// The batch, as order-preserving bit embeddings
        /// ([`qc_common::bits::OrderedBits`]).
        value_bits: Vec<u64>,
        /// Level-0 window id the batch belongs to (`0` for unwindowed
        /// stores).
        window: u64,
    },
    /// A remote summary frame ingested into one key.
    Ingest {
        /// The target key.
        key: String,
        /// The verbatim [`crate::wire`] summary frame.
        frame: Vec<u8>,
    },
    /// A key removal.
    Remove {
        /// The removed key.
        key: String,
    },
}

impl RecordOp {
    /// The key this record targets.
    pub fn key(&self) -> &str {
        match self {
            RecordOp::UpdateMany { key, .. }
            | RecordOp::Ingest { key, .. }
            | RecordOp::Remove { key } => key,
        }
    }
}

/// A decoded segment record: the operation plus its log sequence number.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Store-wide log sequence number (strictly increasing, never 0).
    pub lsn: u64,
    /// The operation.
    pub op: RecordOp,
}

/// One record located inside a parsed segment (byte range included so
/// tests can cut files exactly at frame boundaries).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedRecord {
    /// The decoded record.
    pub record: WalRecord,
    /// Byte offset of the frame's length prefix.
    pub start: usize,
    /// Byte offset one past the frame's CRC trailer.
    pub end: usize,
}

/// The result of scanning a segment byte-for-byte: the clean prefix of
/// records, plus the first error (if any) and where it sits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SegmentScan {
    /// Records decoded before the first error.
    pub records: Vec<ParsedRecord>,
    /// First torn/corrupt frame: `(offset, error)`. `None` for a clean
    /// segment.
    pub error: Option<(usize, RecordError)>,
}

/// One checkpointed key.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointEntry {
    /// The key.
    pub key: String,
    /// The key's last-applied LSN at checkpoint time: replay skips this
    /// key's records with `lsn <=` this value.
    pub lsn: u64,
    /// Level-0 id of the key's active window (`0` when unwindowed).
    pub active_wid: u64,
    /// The key's watermark — highest level-0 id seen (`0` when
    /// unwindowed).
    pub watermark: u64,
    /// Sealed windows as `(start id, level, summary frame)`, ascending
    /// by start. Empty when unwindowed.
    pub sealed: Vec<(u64, u8, Vec<u8>)>,
    /// The active window's summary as a verbatim [`crate::wire`] frame.
    pub summary: Vec<u8>,
}

/// Where a recovery stopped replaying the log.
#[derive(Clone, Debug, PartialEq)]
pub struct LogCorruption {
    /// Sequence number of the damaged segment.
    pub segment: u64,
    /// Byte offset of the first bad frame within it.
    pub offset: u64,
    /// The typed decode failure.
    pub error: RecordError,
    /// Later segments dropped to keep the clean-prefix invariant (always
    /// 0 for a crash-torn tail, which can only sit in the last segment).
    pub segments_dropped: usize,
}

impl std::fmt::Display for LogCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "log segment {} corrupt at byte {} ({}); {} later segment(s) dropped",
            self.segment, self.offset, self.error, self.segments_dropped
        )
    }
}

/// What [`crate::SketchStore::recover`] found and did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint restored from, if any.
    pub checkpoint_seq: Option<u64>,
    /// Keys restored from the checkpoint.
    pub checkpoint_keys: usize,
    /// Newer checkpoints rejected as corrupt before one loaded (each
    /// recorded with its typed cause).
    pub checkpoints_rejected: Vec<(u64, CheckpointError)>,
    /// Log segments scanned during replay.
    pub segments_scanned: usize,
    /// Records applied from the log.
    pub records_applied: u64,
    /// Records skipped because the checkpoint already covered them.
    pub records_skipped: u64,
    /// The torn/corrupt tail that stopped replay, if any. Typed, never a
    /// panic; everything before it was applied, nothing after it was.
    pub corruption: Option<LogCorruption>,
}

/// What one checkpoint pass wrote and reclaimed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Sequence number of the checkpoint file written.
    pub seq: u64,
    /// Keys captured.
    pub keys: usize,
    /// Bytes in the checkpoint file.
    pub bytes: u64,
    /// Log segments deleted behind the checkpoint.
    pub segments_pruned: usize,
    /// Older checkpoint files deleted.
    pub checkpoints_pruned: usize,
}

// ---------------------------------------------------------------------------
// Frame encoding / decoding
// ---------------------------------------------------------------------------

const OP_UPDATE_MANY: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_REMOVE: u8 = 0x03;
const OP_CKPT_ENTRY: u8 = 0x10;
const OP_CKPT_FOOTER: u8 = 0x1f;

/// A borrowed record for the append path (no allocation beyond the
/// frame buffer itself).
pub(crate) enum WalOpRef<'a> {
    UpdateMany { key: &'a str, value_bits: &'a [u64], window: u64 },
    Ingest { key: &'a str, frame: &'a [u8] },
    Remove { key: &'a str },
}

/// Append one framed record to `out` (the caller's reusable buffer).
fn encode_record(out: &mut Vec<u8>, lsn: u64, op: &WalOpRef<'_>) {
    let (opcode, key) = match op {
        WalOpRef::UpdateMany { key, .. } => (OP_UPDATE_MANY, key),
        WalOpRef::Ingest { key, .. } => (OP_INGEST, key),
        WalOpRef::Remove { key } => (OP_REMOVE, key),
    };
    Writer::new(out).frame(|w| {
        w.u8(opcode);
        w.varint(lsn);
        w.str(key);
        match op {
            WalOpRef::UpdateMany { value_bits, window, .. } => {
                w.varint(*window);
                w.varint(value_bits.len() as u64);
                for &bits in *value_bits {
                    w.u64_le(bits);
                }
            }
            WalOpRef::Ingest { frame, .. } => w.bytes(frame),
            WalOpRef::Remove { .. } => {}
        }
    });
}

/// Open a file image: validate its 8-byte header against `magic` and the
/// one supported format version, leaving the cursor at the first frame.
fn open_image(bytes: &[u8], magic: [u8; 4]) -> Result<Reader<'_>, RecordError> {
    let mut r = Reader::new(bytes);
    r.expect_header(magic, PERSIST_VERSION..=PERSIST_VERSION)?;
    Ok(r)
}

/// Split the next frame off `r` and verify its CRC. `Ok(None)` at a
/// clean end of file; on success the cursor over the frame's body.
fn next_frame<'a>(r: &mut Reader<'a>) -> Result<Option<Reader<'a>>, RecordError> {
    let (offset, have) = (r.offset(), r.remaining());
    if have == 0 {
        return Ok(None);
    }
    if have < 4 {
        return Err(RecordError::Torn { offset, needed: FRAME_OVERHEAD, have });
    }
    let length = r.u32_le()? as usize;
    if length > MAX_RECORD_LEN {
        return Err(RecordError::Oversized { offset, length });
    }
    let needed = length + FRAME_OVERHEAD;
    if have < needed {
        return Err(RecordError::Torn { offset, needed, have });
    }
    let mut body = r.sub(length + CHECKSUM_LEN)?;
    body.split_crc_trailer()?;
    Ok(Some(body))
}

/// Decode `(lsn, key)` — the shared prefix of every body kind after its
/// opcode. `offset` is the frame's file offset, for errors.
fn decode_body_prefix(body: &mut Reader<'_>, offset: usize) -> Result<(u64, String), RecordError> {
    let lsn = body.varint()?;
    if lsn == 0 {
        return Err(RecordError::ZeroLsn { offset });
    }
    Ok((lsn, body.str()?.to_owned()))
}

fn decode_record(mut body: Reader<'_>, offset: usize) -> Result<WalRecord, RecordError> {
    let opcode = body.u8()?;
    let (lsn, key) = decode_body_prefix(&mut body, offset)?;
    let op = match opcode {
        OP_UPDATE_MANY => {
            let window = body.varint()?;
            // Bounded by the body length actually read — never by the
            // (attacker-controllable) count alone.
            let count = body.count(8)?;
            let value_bits = body.u64s_le(count)?.collect();
            body.finish()?;
            RecordOp::UpdateMany { key, value_bits, window }
        }
        OP_INGEST => {
            let frame = body.rest().to_vec();
            // Validate the embedded summary now: a corrupt payload is a
            // typed scan error, not a replay-time surprise.
            decode_summary(&frame).map_err(|cause| RecordError::BadSummary { offset, cause })?;
            RecordOp::Ingest { key, frame }
        }
        OP_REMOVE => {
            body.finish()?;
            RecordOp::Remove { key }
        }
        other => return Err(RecordError::BadOpcode { offset, found: other }),
    };
    Ok(WalRecord { lsn, op })
}

/// Scan a whole segment image: header check, then frames until the first
/// error or a clean end. All allocations are bounded by `bytes.len()`.
pub fn parse_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan::default();
    let mut r = match open_image(bytes, SEGMENT_MAGIC) {
        Ok(r) => r,
        Err(e) => {
            scan.error = Some((0, e));
            return scan;
        }
    };
    loop {
        let start = r.offset();
        let record = next_frame(&mut r)
            .and_then(|body| body.map(|body| decode_record(body, start)).transpose());
        match record {
            Ok(None) => return scan,
            Ok(Some(record)) => scan.records.push(ParsedRecord { record, start, end: r.offset() }),
            Err(e) => {
                scan.error = Some((start, e));
                return scan;
            }
        }
    }
}

/// Decode one checkpoint entry body (after its opcode). `index` is the
/// entry's position in the file, for [`CheckpointError::BadSummary`].
fn decode_entry(
    mut body: Reader<'_>,
    offset: usize,
    index: usize,
) -> Result<CheckpointEntry, CheckpointError> {
    let (lsn, key) = decode_body_prefix(&mut body, offset)?;
    let active_wid = body.varint()?;
    let watermark = body.varint()?;
    let validated = |frame: &[u8]| match decode_summary(frame) {
        Ok(_) => Ok(frame.to_vec()),
        Err(cause) => Err(CheckpointError::BadSummary { index, cause }),
    };
    // Each sealed window needs >= 3 bytes (start, level, frame length) —
    // bound the allocation by bytes actually present, never by the
    // (attacker-controllable) count alone.
    let count = body.count(3)?;
    let mut sealed = Vec::with_capacity(count);
    for _ in 0..count {
        let (start, level) = (body.varint()?, body.u8()?);
        sealed.push((start, level, validated(body.len_prefixed_bytes()?)?));
    }
    let summary = validated(body.rest())?;
    Ok(CheckpointEntry { key, lsn, active_wid, watermark, sealed, summary })
}

/// Decode a whole checkpoint image. All-or-nothing: any frame error,
/// missing footer, count mismatch, or invalid embedded summary rejects
/// the file (recovery falls back to the previous checkpoint).
pub fn parse_checkpoint(bytes: &[u8]) -> Result<Vec<CheckpointEntry>, CheckpointError> {
    let mut r = open_image(bytes, CHECKPOINT_MAGIC)?;
    let mut entries = Vec::new();
    let mut footer: Option<u64> = None;
    loop {
        let offset = r.offset();
        let Some(mut body) = next_frame(&mut r)? else { break };
        if footer.is_some() {
            // Frames after the footer: the file was not written by this
            // code; reject it whole.
            return Err(CheckpointError::MissingFooter);
        }
        match body.u8()? {
            OP_CKPT_ENTRY => entries.push(decode_entry(body, offset, entries.len())?),
            OP_CKPT_FOOTER => {
                footer = Some(body.varint()?);
                body.finish()?;
            }
            found => return Err(RecordError::BadOpcode { offset, found }.into()),
        }
    }
    match footer {
        None => Err(CheckpointError::MissingFooter),
        Some(stored) if stored != entries.len() as u64 => {
            Err(CheckpointError::CountMismatch { stored, found: entries.len() as u64 })
        }
        Some(_) => Ok(entries),
    }
}

// ---------------------------------------------------------------------------
// File naming and directory layout
// ---------------------------------------------------------------------------

/// File name of log segment `seq`.
fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

/// File name of checkpoint `seq` (covers segments `<= seq`).
fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.ck")
}

fn checkpoint_tmp_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.tmp")
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// What a data directory contains (sorted ascending by sequence).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct DirListing {
    pub(crate) segments: Vec<u64>,
    pub(crate) checkpoints: Vec<u64>,
    pub(crate) stale_tmp: Vec<PathBuf>,
}

pub(crate) fn scan_dir(dir: &Path) -> Result<DirListing, PersistError> {
    let mut listing = DirListing::default();
    let entries = std::fs::read_dir(dir).map_err(|e| PersistError::new("read_dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::new("read_dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, "wal-", ".log") {
            listing.segments.push(seq);
        } else if let Some(seq) = parse_seq(name, "ckpt-", ".ck") {
            listing.checkpoints.push(seq);
        } else if parse_seq(name, "ckpt-", ".tmp").is_some() {
            listing.stale_tmp.push(entry.path());
        }
    }
    listing.segments.sort_unstable();
    listing.checkpoints.sort_unstable();
    Ok(listing)
}

/// Best-effort directory fsync (directory entries are metadata; some
/// filesystems decline to sync a directory handle — never fatal).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    let mut file = File::open(path).map_err(|e| PersistError::new("open", path, e))?;
    // Size-hint the allocation from real file metadata — reading a
    // corrupt file allocates what the file holds, nothing more.
    let len = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
    let mut bytes = Vec::with_capacity(len.min(1 << 30));
    file.read_to_end(&mut bytes).map_err(|e| PersistError::new("read", path, e))?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// The live log writer
// ---------------------------------------------------------------------------

/// What one append did (for the caller's telemetry).
pub(crate) struct AppendOutcome {
    pub(crate) lsn: u64,
    pub(crate) bytes: u64,
}

/// The open, append-only end of the segment log. Owned by the store
/// behind a mutex; every public method is `&mut self` or a brief read.
///
/// The append path never fsyncs: it encodes, buffers the frame into the
/// OS, and assigns the LSN — all cheap — so holding this mutex (and the
/// stripe lock outside it) across an append costs microseconds, not a
/// disk round-trip. Durability is the [`CommitSequencer`]'s job.
pub(crate) struct Wal {
    dir: PathBuf,
    file: File,
    seq: u64,
    next_lsn: u64,
    /// Appends since the last checkpoint — `0` lets a sweep skip
    /// checkpointing an idle store.
    pub(crate) dirty_records: u64,
    /// A failed append or sync poisons the log: the store keeps serving
    /// from memory, but stops pretending to be durable (counted and
    /// evented by the caller).
    pub(crate) poisoned: bool,
    /// A sealed-but-not-yet-fsynced predecessor segment: a dup of its
    /// handle plus its path, set by [`Wal::install_segment`] and cleared
    /// by [`Wal::seal_complete`] once the rotation's seal fsync lands.
    /// LSNs are global across segments, so while this is set a sync of
    /// the active file alone does NOT cover every LSN up to
    /// `last_lsn()` — [`Wal::sync_point`] captures this handle too so a
    /// group-commit leader racing the rotation window fsyncs both files
    /// before the durable watermark advances past the sealed LSNs.
    pending_seal: Option<(File, PathBuf)>,
    /// The append path's frame buffer, reused across records (appends are
    /// `&mut self`, under the store's WAL mutex).
    scratch: Vec<u8>,
}

pub(crate) fn create_segment(dir: &Path, seq: u64) -> Result<File, PersistError> {
    let path = dir.join(segment_file_name(seq));
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| PersistError::new("create", &path, e))?;
    let mut header = Vec::new();
    Writer::new(&mut header).header(SEGMENT_MAGIC, PERSIST_VERSION);
    file.write_all(&header).map_err(|e| PersistError::new("write", &path, e))?;
    file.sync_data().map_err(|e| PersistError::new("fsync", &path, e))?;
    sync_dir(dir);
    Ok(file)
}

impl Wal {
    /// Open a fresh active segment `seq` in `dir` and hand out LSNs from
    /// `next_lsn` up.
    pub(crate) fn create(dir: &Path, seq: u64, next_lsn: u64) -> Result<Self, PersistError> {
        let file = create_segment(dir, seq)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            seq,
            next_lsn: next_lsn.max(1),
            dirty_records: 0,
            poisoned: false,
            pending_seal: None,
            scratch: Vec::new(),
        })
    }

    /// Append one record: encode, buffered write, LSN assignment — no
    /// fsync, under any policy. Durability is granted afterwards by the
    /// [`CommitSequencer`], outside the caller's stripe-lock hold.
    pub(crate) fn append(&mut self, op: &WalOpRef<'_>) -> Result<AppendOutcome, PersistError> {
        let lsn = self.next_lsn;
        self.scratch.clear();
        encode_record(&mut self.scratch, lsn, op);
        self.file.write_all(&self.scratch).map_err(|e| {
            PersistError::new("append", self.dir.join(segment_file_name(self.seq)), e)
        })?;
        self.next_lsn += 1;
        self.dirty_records += 1;
        Ok(AppendOutcome { lsn, bytes: self.scratch.len() as u64 })
    }

    /// Highest LSN appended so far (`0` before the first append).
    pub(crate) fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Sequence number of the active segment.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Capture a sync point: duplicate handles to every file holding a
    /// not-yet-sealed LSN, plus the highest LSN written so far. The
    /// caller releases this mutex, then [`SyncTicket::sync`]s with
    /// **no** lock held — every LSN up to `covered` was `write_all`'d
    /// before the handles were cloned (both happen under this mutex),
    /// and the clones share their file descriptions, so `fdatasync`ing
    /// them covers those LSNs. When a rotation is mid-flight (segment
    /// swapped in, seal fsync not yet landed) `covered` spans **two**
    /// files, so the ticket carries the sealed predecessor's handle too;
    /// syncing the active file alone would let the watermark advance
    /// past LSNs that live only in the unsynced sealed file.
    pub(crate) fn sync_point(&self) -> Result<SyncTicket, PersistError> {
        let path = self.dir.join(segment_file_name(self.seq));
        let file = self.file.try_clone().map_err(|e| PersistError::new("dup", path.clone(), e))?;
        let sealed = match &self.pending_seal {
            Some((file, path)) => Some((
                file.try_clone().map_err(|e| PersistError::new("dup", path.clone(), e))?,
                path.clone(),
            )),
            None => None,
        };
        Ok(SyncTicket { file, covered: self.last_lsn(), path, sealed })
    }

    /// Swap in a freshly created successor segment (built by
    /// [`create_segment`] with no lock held) and seal the current one.
    /// Returns the sealed segment's file — **not yet fsync'd**; the
    /// caller syncs it outside every lock, then reports back via
    /// [`Wal::seal_complete`] — plus the highest LSN it holds and its
    /// path (for error reporting). Until `seal_complete`, a dup of the
    /// sealed handle stays in `pending_seal` so racing sync points keep
    /// covering its LSNs. Fails (log state untouched) only if the
    /// handle cannot be duplicated.
    pub(crate) fn install_segment(
        &mut self,
        fresh: File,
    ) -> Result<(File, u64, PathBuf), PersistError> {
        let sealed_path = self.dir.join(segment_file_name(self.seq));
        let dup =
            self.file.try_clone().map_err(|e| PersistError::new("dup", sealed_path.clone(), e))?;
        let sealed = std::mem::replace(&mut self.file, fresh);
        self.pending_seal = Some((dup, sealed_path.clone()));
        let covered = self.last_lsn();
        self.seq += 1;
        self.dirty_records = 0;
        Ok((sealed, covered, sealed_path))
    }

    /// The rotation's seal fsync landed: every sealed LSN is on disk,
    /// so sync points go back to covering the active segment alone.
    pub(crate) fn seal_complete(&mut self) {
        self.pending_seal = None;
    }
}

/// A captured sync point: sync the file(s), get back the covered LSN.
pub(crate) struct SyncTicket {
    file: File,
    covered: u64,
    path: PathBuf,
    /// A rotation's sealed-but-unsynced predecessor, captured inside the
    /// rotation window: it holds LSNs at or below `covered`, so it must
    /// reach disk before the watermark may advance to `covered`.
    sealed: Option<(File, PathBuf)>,
}

impl SyncTicket {
    /// `fdatasync` the captured handle(s) (call with no lock held — this
    /// is the ~170µs disk wait the whole split exists to isolate). The
    /// sealed predecessor, if any, syncs first: `covered` is a global
    /// LSN spanning both files, and `ack ⇒ durable` requires every LSN
    /// at or below it on disk before anyone advances the watermark.
    pub(crate) fn sync(self) -> Result<u64, PersistError> {
        if let Some((file, path)) = &self.sealed {
            file.sync_data().map_err(|e| PersistError::new("fsync", path, e))?;
        }
        self.file.sync_data().map_err(|e| PersistError::new("fsync", &self.path, e))?;
        Ok(self.covered)
    }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// What one group commit covered (for the caller's telemetry).
pub(crate) struct GroupOutcome {
    /// The `durable_lsn` watermark after this sync.
    pub(crate) covered: u64,
    /// Appends newly made durable by this sync — the group size. `0`
    /// only if a concurrent rotation's seal fsync covered them first.
    pub(crate) group: u64,
}

/// Why a durable wait failed.
pub(crate) enum WaitError {
    /// This caller's own sync I/O failed (it poisoned the log; count
    /// and event it once).
    Io(PersistError),
    /// Someone else poisoned the log — already counted and evented by
    /// the poisoner; callers must not double-count.
    Poisoned,
}

/// Leader-based group commit: a `durable_lsn` watermark behind a
/// mutex+condvar. A durable writer appends under the WAL mutex (inside
/// its stripe-lock hold), releases both, then parks here until the
/// watermark passes its LSN. The first parked waiter whose LSN is not
/// yet covered becomes **sync leader**: it captures a sync point,
/// fsyncs once with no lock held — covering every LSN appended so far,
/// its own and every concurrent writer's — advances the watermark, and
/// wakes all covered waiters. N concurrent durable writers therefore
/// share ~1 fsync instead of paying N sequential ones, and no stripe
/// lock is ever held across the disk wait.
///
/// **Lock order**: the state mutex is leaf-most on the wait path — the
/// leader drops it before taking the WAL mutex, and nothing acquires the
/// WAL mutex while holding it. (The append path takes state *after* the
/// WAL mutex only to poison, which is compatible.)
pub(crate) struct CommitSequencer {
    state: Mutex<CommitState>,
    cond: Condvar,
}

struct CommitState {
    /// Every LSN at or below this is on disk.
    durable: u64,
    /// A leader is currently syncing; later arrivals park instead of
    /// electing a second one.
    leader: bool,
    /// Mirror of [`Wal::poisoned`] that wakes *all* waiters with the
    /// error — without it, writers parked on the watermark would hang
    /// forever once the log stops advancing.
    poisoned: bool,
    /// When the last physical sync finished — `Interval` coalescing
    /// checks this here, on the sync path, not under the append mutex.
    last_sync: Instant,
    /// Whether the zero-delay leader should hold its election open for
    /// racing appenders (see `wait_durable`). Set when concurrency is
    /// observed — a waiter parks behind a busy leader, or a group of
    /// ≥2 forms — and cleared when groups collapse back to 1, so a
    /// lone durable writer never pays a yield for company that is not
    /// coming.
    hold_open: bool,
}

impl CommitSequencer {
    /// A sequencer whose watermark starts at `durable` (recovery passes
    /// the last recovered LSN: everything replayed from disk is durable
    /// by definition).
    pub(crate) fn new(durable: u64) -> Self {
        CommitSequencer {
            state: Mutex::new(CommitState {
                durable,
                leader: false,
                poisoned: false,
                last_sync: Instant::now(),
                hold_open: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Block until `lsn` is durable (or the log is poisoned), electing
    /// this caller as sync leader if nobody is syncing. Returns
    /// `Ok(Some(outcome))` iff this caller performed the physical sync —
    /// the caller owns the group's telemetry; followers get `Ok(None)`.
    ///
    /// `group_delay` is an optional leader hold-off before capturing the
    /// sync point: a non-zero delay widens groups at the cost of ack
    /// latency (the knob is [`crate::StoreConfig::group_commit_delay`]).
    pub(crate) fn wait_durable(
        &self,
        lsn: u64,
        wal: &Mutex<Wal>,
        group_delay: Duration,
    ) -> Result<Option<GroupOutcome>, WaitError> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.durable >= lsn {
                return Ok(None);
            }
            if state.poisoned {
                return Err(WaitError::Poisoned);
            }
            if state.leader {
                // Parking behind a busy leader is proof of concurrent
                // durable writers: tell future leaders to hold their
                // election open.
                state.hold_open = true;
                state = self.cond.wait(state).unwrap();
                continue;
            }
            state.leader = true;
            let hold_open = state.hold_open;
            drop(state);
            if !group_delay.is_zero() {
                // Hold the election open: writers appending during the
                // delay ride this sync instead of the next one.
                std::thread::sleep(group_delay);
            } else if hold_open {
                // Concurrency was observed, so hold the zero-delay
                // election open until appends quiesce: writers the
                // previous sync just woke are typically about to land
                // their next record, and capturing the sync point ahead
                // of them (acutely on few cores, where the wake-up
                // queue runs only when this thread yields) collapses
                // groups toward one. Sample the tail, yield one
                // scheduling window, and capture as soon as a window
                // adds nothing; the round cap bounds the ack-latency
                // cost. A lone writer never enters this loop — yields
                // donate real time to unrelated load — because solo
                // groups clear `hold_open` below.
                let mut tail = wal.lock().unwrap().last_lsn();
                for _ in 0..8 {
                    std::thread::yield_now();
                    let now = wal.lock().unwrap().last_lsn();
                    if now == tail {
                        break;
                    }
                    tail = now;
                }
            }
            // Brief WAL-mutex hold to capture the sync point; the fsync
            // itself runs with no lock held at all.
            let ticket = {
                let wal = wal.lock().unwrap();
                if wal.poisoned {
                    None
                } else {
                    Some(wal.sync_point())
                }
            };
            let result = match ticket {
                None => Err(None), // an appender poisoned the log meanwhile
                Some(Ok(ticket)) => ticket.sync().map_err(Some),
                Some(Err(e)) => Err(Some(e)),
            };
            match result {
                Ok(covered) => {
                    let mut state = self.state.lock().unwrap();
                    state.leader = false;
                    // `covered` was read after our own append, so it is
                    // at or above `lsn`: this wait is over. The group is
                    // whatever the watermark jumps by (a racing
                    // rotation's seal may have advanced it already).
                    let group = covered.saturating_sub(state.durable);
                    state.durable = state.durable.max(covered);
                    state.last_sync = Instant::now();
                    // Concurrency hysteresis for the next election: a
                    // multi-append group means writers are racing (keep
                    // holding elections open), a solo group means they
                    // are not (stop paying the yield).
                    state.hold_open = group >= 2;
                    drop(state);
                    self.cond.notify_all();
                    return Ok(Some(GroupOutcome { covered, group }));
                }
                Err(cause) => {
                    if cause.is_some() {
                        wal.lock().unwrap().poisoned = true;
                    }
                    let mut state = self.state.lock().unwrap();
                    state.leader = false;
                    state.poisoned = true;
                    drop(state);
                    self.cond.notify_all();
                    return match cause {
                        Some(e) => Err(WaitError::Io(e)),
                        None => Err(WaitError::Poisoned),
                    };
                }
            }
        }
    }

    /// Advance the watermark to `covered` (a rotation's seal fsync made
    /// everything in the sealed segment durable), waking covered
    /// waiters. Returns how many appends newly became durable.
    pub(crate) fn advance(&self, covered: u64) -> u64 {
        let mut state = self.state.lock().unwrap();
        let newly = covered.saturating_sub(state.durable);
        state.durable = state.durable.max(covered);
        state.last_sync = Instant::now();
        drop(state);
        if newly > 0 {
            self.cond.notify_all();
        }
        newly
    }

    /// Mark the log poisoned and wake **all** waiters with the error —
    /// the append path calls this after a failed `Wal::append` so no
    /// durable writer hangs on a watermark that will never advance.
    pub(crate) fn poison(&self) {
        let mut state = self.state.lock().unwrap();
        state.poisoned = true;
        drop(state);
        self.cond.notify_all();
    }

    /// Whether an `Interval(every)` sync is due for `lsn`: the interval
    /// elapsed since the last physical sync and `lsn` is not yet
    /// durable. Checked here — on the sync path — so the decision is
    /// neither taken nor paid under the append mutex, and concurrent
    /// appenders coalesce into one interval sync.
    pub(crate) fn interval_due(&self, every: Duration, lsn: u64) -> bool {
        let state = self.state.lock().unwrap();
        state.durable < lsn && !state.poisoned && state.last_sync.elapsed() >= every
    }

    /// Sync everything appended so far (housekeeping sweeps and clean
    /// shutdown call this so `Interval`/`Off` tails reach disk).
    /// `Ok(None)` when nothing is pending.
    pub(crate) fn force_sync(&self, wal: &Mutex<Wal>) -> Result<Option<GroupOutcome>, WaitError> {
        let last = {
            let wal = wal.lock().unwrap();
            if wal.poisoned {
                return Err(WaitError::Poisoned);
            }
            wal.last_lsn()
        };
        if last == 0 {
            return Ok(None);
        }
        {
            let state = self.state.lock().unwrap();
            if state.durable >= last {
                return Ok(None);
            }
        }
        self.wait_durable(last, wal, Duration::ZERO)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint writing and pruning
// ---------------------------------------------------------------------------

/// Write checkpoint `seq` durably: temp file, fsync, rename, dir fsync.
/// Returns the file's byte size.
pub(crate) fn write_checkpoint(
    dir: &Path,
    seq: u64,
    entries: &[CheckpointEntry],
) -> Result<u64, PersistError> {
    let mut image = Vec::with_capacity(
        FILE_HEADER_LEN
            + entries
                .iter()
                .map(|e| {
                    e.summary.len()
                        + e.key.len()
                        + 48
                        + e.sealed.iter().map(|(_, _, f)| f.len() + 12).sum::<usize>()
                })
                .sum::<usize>(),
    );
    let mut w = Writer::new(&mut image);
    w.header(CHECKPOINT_MAGIC, PERSIST_VERSION);
    for entry in entries {
        w.frame(|w| {
            w.u8(OP_CKPT_ENTRY);
            w.varint(entry.lsn);
            w.str(&entry.key);
            w.varint(entry.active_wid);
            w.varint(entry.watermark);
            w.varint(entry.sealed.len() as u64);
            for (start, level, frame) in &entry.sealed {
                w.varint(*start);
                w.u8(*level);
                w.len_prefixed_bytes(frame);
            }
            w.bytes(&entry.summary);
        });
    }
    w.frame(|w| {
        w.u8(OP_CKPT_FOOTER);
        w.varint(entries.len() as u64);
    });

    let tmp = dir.join(checkpoint_tmp_name(seq));
    let path = dir.join(checkpoint_file_name(seq));
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| PersistError::new("create", &tmp, e))?;
    file.write_all(&image).map_err(|e| PersistError::new("write", &tmp, e))?;
    file.sync_all().map_err(|e| PersistError::new("fsync", &tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, &path).map_err(|e| PersistError::new("rename", &path, e))?;
    sync_dir(dir);
    Ok(image.len() as u64)
}

/// Delete segments with `seq <= upto` and checkpoints with `seq < upto`
/// (the checkpoint named `upto` is the live one). Best-effort per file —
/// a file that refuses deletion is skipped, not fatal (recovery ignores
/// superseded files anyway).
pub(crate) fn prune_obsolete(dir: &Path, upto: u64) -> (usize, usize) {
    let Ok(listing) = scan_dir(dir) else { return (0, 0) };
    let mut segments = 0usize;
    let mut checkpoints = 0usize;
    for seq in listing.segments.iter().filter(|&&s| s <= upto) {
        if std::fs::remove_file(dir.join(segment_file_name(*seq))).is_ok() {
            segments += 1;
        }
    }
    for seq in listing.checkpoints.iter().filter(|&&s| s < upto) {
        if std::fs::remove_file(dir.join(checkpoint_file_name(*seq))).is_ok() {
            checkpoints += 1;
        }
    }
    if segments + checkpoints > 0 {
        sync_dir(dir);
    }
    (segments, checkpoints)
}

/// Truncate segment `seq` to `len` bytes (cutting a torn/corrupt tail)
/// and delete every segment after `seq`, restoring the clean-prefix
/// invariant for the *next* recovery. A `len` below the fixed header —
/// i.e. the header itself never reached disk — deletes the file instead:
/// a headerless stub holds nothing recoverable.
pub(crate) fn truncate_log(
    dir: &Path,
    seq: u64,
    len: u64,
    later: &[u64],
) -> Result<usize, PersistError> {
    let path = dir.join(segment_file_name(seq));
    if len < FILE_HEADER_LEN as u64 {
        std::fs::remove_file(&path).map_err(|e| PersistError::new("remove", &path, e))?;
    } else {
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| PersistError::new("open", &path, e))?;
        file.set_len(len).map_err(|e| PersistError::new("truncate", &path, e))?;
        file.sync_all().map_err(|e| PersistError::new("fsync", &path, e))?;
    }
    let mut dropped = 0usize;
    for &later_seq in later {
        let later_path = dir.join(segment_file_name(later_seq));
        std::fs::remove_file(&later_path)
            .map_err(|e| PersistError::new("remove", &later_path, e))?;
        dropped += 1;
    }
    sync_dir(dir);
    Ok(dropped)
}

/// The durable state a directory scan recovers, before it is applied to
/// a store: the chosen checkpoint, the replayable record stream, and the
/// bookkeeping the store needs to resume logging.
pub(crate) struct RecoveredLog {
    pub(crate) checkpoint: Option<(u64, Vec<CheckpointEntry>)>,
    pub(crate) records: Vec<WalRecord>,
    pub(crate) report: RecoveryReport,
    /// First LSN the resumed log may assign.
    pub(crate) next_lsn: u64,
    /// Sequence the resumed active segment should use.
    pub(crate) next_seq: u64,
}

/// Read everything durable out of `dir` (creating it if missing) and
/// repair the log tail: stale temp files are removed, a torn/corrupt
/// tail is truncated away and later segments dropped. Pure I/O — the
/// caller applies the result to a store.
pub(crate) fn recover_dir(dir: &Path) -> Result<RecoveredLog, PersistError> {
    std::fs::create_dir_all(dir).map_err(|e| PersistError::new("create_dir", dir, e))?;
    let listing = scan_dir(dir)?;
    for tmp in &listing.stale_tmp {
        let _ = std::fs::remove_file(tmp);
    }
    let mut report = RecoveryReport::default();
    let mut max_lsn = 0u64;

    // Newest fully-valid checkpoint wins; corrupt ones are recorded and
    // skipped (their predecessor's segments are still on disk, because
    // pruning runs only after a successor checkpoint is durable).
    let mut checkpoint: Option<(u64, Vec<CheckpointEntry>)> = None;
    for &seq in listing.checkpoints.iter().rev() {
        let path = dir.join(checkpoint_file_name(seq));
        match parse_checkpoint(&read_file(&path)?) {
            Ok(entries) => {
                for entry in &entries {
                    max_lsn = max_lsn.max(entry.lsn);
                }
                report.checkpoint_seq = Some(seq);
                report.checkpoint_keys = entries.len();
                checkpoint = Some((seq, entries));
                break;
            }
            Err(e) => report.checkpoints_rejected.push((seq, e)),
        }
    }
    let ckpt_seq = checkpoint.as_ref().map(|(seq, _)| *seq);

    // Replay candidates: segments the checkpoint does not cover.
    // (`Option` orders `None < Some(_)`, so no checkpoint replays all.)
    let replayable: Vec<u64> =
        listing.segments.iter().copied().filter(|&s| Some(s) > ckpt_seq).collect();
    let mut records = Vec::new();
    for (ix, &seq) in replayable.iter().enumerate() {
        report.segments_scanned += 1;
        let path = dir.join(segment_file_name(seq));
        let scan = parse_segment(&read_file(&path)?);
        for parsed in &scan.records {
            max_lsn = max_lsn.max(parsed.record.lsn);
        }
        records.extend(scan.records.into_iter().map(|p| p.record));
        if let Some((offset, error)) = scan.error {
            // Clean-prefix stop: truncate the damaged tail and drop the
            // segments after it so the next startup sees a valid log.
            // Header errors report offset 0, which `truncate_log` turns
            // into deleting the stub outright.
            let dropped = truncate_log(dir, seq, offset as u64, &replayable[ix + 1..])?;
            report.corruption = Some(LogCorruption {
                segment: seq,
                offset: offset as u64,
                error,
                segments_dropped: dropped,
            });
            break;
        }
    }

    let next_seq = listing.segments.iter().copied().max().unwrap_or(ckpt_seq.unwrap_or(0)) + 1;
    Ok(RecoveredLog { checkpoint, records, report, next_lsn: max_lsn + 1, next_seq })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One framed record in a fresh buffer (the append path reuses one).
    fn encode_record(lsn: u64, op: &WalOpRef<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        super::encode_record(&mut out, lsn, op);
        out
    }

    fn file_header(magic: [u8; 4]) -> Vec<u8> {
        let mut out = Vec::new();
        Writer::new(&mut out).header(magic, PERSIST_VERSION);
        out
    }

    /// Regression test for the rotation/group-commit durability race: a
    /// sync point captured inside the rotation window (segment swapped
    /// in, seal fsync not yet landed) must cover the sealed predecessor
    /// too — its LSNs are at or below `covered`, and advancing the
    /// durable watermark on an fdatasync of the fresh file alone would
    /// ack writers whose records are only in the unsynced sealed file.
    #[test]
    fn sync_point_inside_a_rotation_window_covers_the_sealed_segment() {
        let dir = qc_workloads::tempdir::TempDir::new("persist-pending-seal");
        let mut wal = Wal::create(dir.path(), 1, 1).unwrap();
        for _ in 0..3 {
            wal.append(&WalOpRef::UpdateMany { key: "k", value_bits: &[1], window: 0 }).unwrap();
        }
        // Rotate like `checkpoint()` does: create the successor, install
        // it, but do NOT seal-fsync yet — we are inside the race window.
        let fresh = create_segment(dir.path(), 2).unwrap();
        let (sealed_file, covered, _path) = wal.install_segment(fresh).unwrap();
        assert_eq!(covered, 3);
        // A leader electing now gets a two-file ticket and still covers
        // the global tail.
        let ticket = wal.sync_point().unwrap();
        assert!(ticket.sealed.is_some(), "ticket in the rotation window must carry the seal");
        assert_eq!(ticket.covered, 3);
        assert_eq!(ticket.sync().unwrap(), 3);
        // Once the rotation's seal fsync lands, tickets go back to the
        // active segment alone.
        sealed_file.sync_data().unwrap();
        wal.seal_complete();
        let ticket = wal.sync_point().unwrap();
        assert!(ticket.sealed.is_none(), "seal_complete must clear the pending seal");
    }

    #[test]
    fn record_roundtrips_through_a_frame() {
        let frame = encode_record(
            7,
            &WalOpRef::UpdateMany { key: "lat", value_bits: &[1, 2, u64::MAX], window: 42 },
        );
        let mut image = file_header(SEGMENT_MAGIC).to_vec();
        image.extend_from_slice(&frame);
        let scan = parse_segment(&image);
        assert_eq!(scan.error, None);
        assert_eq!(scan.records.len(), 1);
        let rec = &scan.records[0].record;
        assert_eq!(rec.lsn, 7);
        assert_eq!(
            rec.op,
            RecordOp::UpdateMany {
                key: "lat".into(),
                value_bits: vec![1, 2, u64::MAX],
                window: 42
            }
        );
        assert_eq!(scan.records[0].start, FILE_HEADER_LEN);
        assert_eq!(scan.records[0].end, image.len());
    }

    #[test]
    fn every_truncation_of_a_segment_is_clean_prefix() {
        let mut image = file_header(SEGMENT_MAGIC).to_vec();
        for lsn in 1..=5u64 {
            image.extend_from_slice(&encode_record(
                lsn,
                &WalOpRef::UpdateMany { key: "k", value_bits: &[lsn, lsn * 2], window: lsn },
            ));
        }
        let full = parse_segment(&image);
        assert_eq!(full.records.len(), 5);
        assert_eq!(full.error, None);
        for cut in 0..image.len() {
            let scan = parse_segment(&image[..cut]);
            // The decoded prefix must be an exact prefix of the full log.
            for (i, rec) in scan.records.iter().enumerate() {
                assert_eq!(rec, &full.records[i], "cut={cut}");
            }
            if cut < image.len() {
                assert!(
                    scan.records.len() < 5 || scan.error.is_none(),
                    "cut={cut} decoded too much"
                );
            }
        }
    }

    #[test]
    fn bitflips_are_typed_never_panics() {
        let mut image = file_header(SEGMENT_MAGIC).to_vec();
        image.extend_from_slice(&encode_record(
            1,
            &WalOpRef::Ingest { key: "a", frame: b"not-a-summary" },
        ));
        image.extend_from_slice(&encode_record(2, &WalOpRef::Remove { key: "a" }));
        for bit in 0..image.len() * 8 {
            let mut corrupt = image.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let _ = parse_segment(&corrupt); // must not panic
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut image = file_header(SEGMENT_MAGIC).to_vec();
        image.extend_from_slice(&(u32::MAX).to_le_bytes());
        image.extend_from_slice(&[0u8; 64]);
        let scan = parse_segment(&image);
        assert!(matches!(scan.error, Some((_, RecordError::Oversized { .. }))));
    }

    #[test]
    fn checkpoint_roundtrip_and_footer_enforcement() {
        let dir = std::env::temp_dir().join(format!("qc-persist-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let summary = crate::wire::encode_summary(&qc_common::summary::WeightedSummary::empty());
        let entries = vec![
            CheckpointEntry {
                key: "a".into(),
                lsn: 3,
                active_wid: 7,
                watermark: 9,
                sealed: vec![(4, 1, summary.clone()), (6, 0, summary.clone())],
                summary: summary.clone(),
            },
            CheckpointEntry {
                key: "b".into(),
                lsn: 9,
                active_wid: 0,
                watermark: 0,
                sealed: Vec::new(),
                summary: summary.clone(),
            },
        ];
        write_checkpoint(&dir, 1, &entries).unwrap();
        let path = dir.join(checkpoint_file_name(1));
        let bytes = read_file(&path).unwrap();
        assert_eq!(parse_checkpoint(&bytes).unwrap(), entries);
        // Cutting the footer off rejects the whole file.
        let cut = parse_checkpoint(&bytes[..bytes.len() - 1]);
        assert!(matches!(
            cut,
            Err(CheckpointError::Frame(RecordError::Torn { .. }))
                | Err(CheckpointError::MissingFooter)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // -----------------------------------------------------------------
    // Golden bytes: the on-disk format, pinned. Encoded through the
    // crate's own writers (`Wal::append`, `write_checkpoint`), decoded
    // through `parse_segment` / `parse_checkpoint`, and recovered as a
    // data directory an earlier build wrote.
    // -----------------------------------------------------------------

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        assert_eq!(digits.len() % 2, 0, "odd hex fixture");
        digits
            .chunks_exact(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn golden_summary(items: &[(f64, u64)]) -> Vec<u8> {
        use qc_common::bits::OrderedBits;
        use qc_common::summary::{WeightedItem, WeightedSummary};
        crate::wire::encode_summary(&WeightedSummary::from_items(
            items
                .iter()
                .map(|&(v, weight)| WeightedItem { value_bits: v.to_ordered_bits(), weight })
                .collect(),
        ))
    }

    fn f64_bits(values: &[f64]) -> Vec<u64> {
        use qc_common::bits::OrderedBits;
        values.iter().map(|v| v.to_ordered_bits()).collect()
    }

    /// `wal-0000000000000002.log`: header, then LSNs 2-5 — two windowed
    /// `UpdateMany`, an `Ingest`, a `Remove`.
    const GOLDEN_SEGMENT: &str = "5143574c 0200 0000
         18000000 01 02 03 6c6174 07 02 000000000000d0bf ffffffffffff0f40 b686378f
         20000000 01 03 03 6c6174 08 03 000000000000f8bf 00000000000004c0 0000000065cdcdc1 74034e7e
         1e000000 02 04 03 637075
           51435753 0100 0000 01 80808080808080f0bf01 03 54a52e43
           47fc51ee
         07000000 03 05 04 676f6e65 c962152a";

    /// `ckpt-0000000000000001.ck`: header, one entry (key `lat`, LSN 2,
    /// active window 7, watermark 9, one sealed level-1 window at 4),
    /// footer.
    const GOLDEN_CHECKPOINT: &str = "51434350 0200 0000
         57000000 10 02 03 6c6174 07 09 01
           04 01 18 51435753 0100 0000 01 8080808080808092c001 02 2785abfa
           51435753 0100 0000 04
             80808080808080f8bf01 8080808080808008 8080808080808004 808080808080c038
             01 04 02 08 db806ca8
           3f33a704
         02000000 1f 01 f72c84fb";

    fn golden_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                lsn: 2,
                op: RecordOp::UpdateMany {
                    key: "lat".into(),
                    value_bits: f64_bits(&[0.25, -1.0]),
                    window: 7,
                },
            },
            WalRecord {
                lsn: 3,
                op: RecordOp::UpdateMany {
                    key: "lat".into(),
                    value_bits: f64_bits(&[1.5, 2.5, 1e9]),
                    window: 8,
                },
            },
            WalRecord {
                lsn: 4,
                op: RecordOp::Ingest { key: "cpu".into(), frame: golden_summary(&[(0.5, 3)]) },
            },
            WalRecord { lsn: 5, op: RecordOp::Remove { key: "gone".into() } },
        ]
    }

    fn golden_entries() -> Vec<CheckpointEntry> {
        vec![CheckpointEntry {
            key: "lat".into(),
            lsn: 2,
            active_wid: 7,
            watermark: 9,
            sealed: vec![(4, 1, golden_summary(&[(10.0, 2)]))],
            summary: golden_summary(&[(1.0, 1), (2.0, 4), (3.0, 2), (400.0, 8)]),
        }]
    }

    #[test]
    fn golden_segment_bytes_are_pinned_both_ways() {
        let dir = qc_workloads::tempdir::TempDir::new("persist-golden-seg");
        let mut wal = Wal::create(dir.path(), 2, 2).unwrap();
        for record in golden_records() {
            let op = match &record.op {
                RecordOp::UpdateMany { key, value_bits, window } => {
                    WalOpRef::UpdateMany { key, value_bits, window: *window }
                }
                RecordOp::Ingest { key, frame } => WalOpRef::Ingest { key, frame },
                RecordOp::Remove { key } => WalOpRef::Remove { key },
            };
            assert_eq!(wal.append(&op).unwrap().lsn, record.lsn);
        }
        let written = read_file(&dir.path().join(segment_file_name(2))).unwrap();
        assert_eq!(hex(&written), hex(&unhex(GOLDEN_SEGMENT)));

        let scan = parse_segment(&unhex(GOLDEN_SEGMENT));
        assert_eq!(scan.error, None);
        let decoded: Vec<WalRecord> = scan.records.into_iter().map(|p| p.record).collect();
        assert_eq!(decoded, golden_records());
    }

    #[test]
    fn golden_checkpoint_bytes_are_pinned_both_ways() {
        let dir = qc_workloads::tempdir::TempDir::new("persist-golden-ckpt");
        let bytes = write_checkpoint(dir.path(), 1, &golden_entries()).unwrap();
        let written = read_file(&dir.path().join(checkpoint_file_name(1))).unwrap();
        assert_eq!(bytes, written.len() as u64);
        assert_eq!(hex(&written), hex(&unhex(GOLDEN_CHECKPOINT)));
        assert_eq!(parse_checkpoint(&unhex(GOLDEN_CHECKPOINT)).unwrap(), golden_entries());
    }

    #[test]
    fn golden_data_dir_recovers_with_the_same_report() {
        let dir = qc_workloads::tempdir::TempDir::new("persist-golden-recover");
        std::fs::write(dir.path().join(checkpoint_file_name(1)), unhex(GOLDEN_CHECKPOINT)).unwrap();
        std::fs::write(dir.path().join(segment_file_name(2)), unhex(GOLDEN_SEGMENT)).unwrap();
        let cfg = crate::StoreConfig::default().data_dir(dir.path()).fsync(FsyncPolicy::Off);
        let (store, report) = crate::SketchStore::<f64>::recover(cfg).unwrap();
        assert_eq!(
            report,
            RecoveryReport {
                checkpoint_seq: Some(1),
                checkpoint_keys: 1,
                checkpoints_rejected: Vec::new(),
                segments_scanned: 1,
                // LSN 2 sits at the checkpoint's floor for `lat`.
                records_applied: 3,
                records_skipped: 1,
                corruption: None,
            }
        );
        // 15 active + 2 sealed + 3 replayed for `lat`, 3 ingested for `cpu`.
        assert_eq!(store.stats().stream_len, 23);
        assert_eq!(store.query("lat", 0.0), Some(1.0));
        assert_eq!(store.query("lat", 1.0), Some(1e9));
        assert_eq!(store.query("cpu", 0.5), Some(0.5));
    }

    #[test]
    fn seq_file_names_roundtrip() {
        assert_eq!(parse_seq(&segment_file_name(42), "wal-", ".log"), Some(42));
        assert_eq!(parse_seq(&checkpoint_file_name(7), "ckpt-", ".ck"), Some(7));
        assert_eq!(parse_seq("wal-zz.log", "wal-", ".log"), None);
        assert_eq!(parse_seq("wal-00000000000000010.log", "wal-", ".log"), None);
    }
}
