//! The epoch record and its binary encoding.
//!
//! Every record is one [`crate::frame`] frame (length prefix + CRC-32).
//!
//! # Payload layout
//!
//! All integers little-endian:
//!
//! ```text
//! u8            record-format version (currently 1)
//! u8            record kind (0 load, 1 epoch, 2 migrate-out, 3 migrate-in)
//! u8            dimension D (cross-checked on decode)
//! u64           first_seq — global commit seq of the first committed op
//! u32 V         verdict count, then V bytes (0 commit, 1 rejected,
//!               2 unavailable)
//! u32 N         delete count, then N × u32 point ids
//! u32 M         insert count, then M × (u32 id, u64 weight, D × i64
//!               coords)
//! ```
//!
//! # Replay invariants
//!
//! [`decode_log`] walks frames front to back and **stops cleanly at the
//! first incomplete or corrupt frame**: every record before the bad
//! frame is returned, the bad frame and everything after it is
//! discarded, and the [`LogTail`] reports where and why the walk
//! stopped. A torn tail (partial final frame after a crash mid-append)
//! therefore recovers exactly the epochs that fully committed — never a
//! partial epoch, never a panic. Decoding never reads past the buffer
//! and rejects frames whose declared length exceeds
//! [`MAX_FRAME_PAYLOAD`].

use ddrs_rangetree::Point;

use crate::frame::{self, point_len, put_point, put_u32, put_u64, Reader, FRAME_HEADER};

/// Current record-format version byte.
pub const RECORD_VERSION: u8 = 1;

/// The log's cap on a frame's payload length: a declared length above
/// this is treated as corruption rather than an allocation request, and
/// [`EpochWal::append_record`](crate::EpochWal::append_record) refuses
/// to write a record that large.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// What a logged record represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Initial bulk load of the shard at service start.
    Load,
    /// A committed client write epoch (merged delete+insert batches).
    Epoch,
    /// Points migrated out of this shard by a split/rebalance.
    MigrateOut,
    /// Points migrated into this shard by a split/rebalance.
    MigrateIn,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Load => 0,
            RecordKind::Epoch => 1,
            RecordKind::MigrateOut => 2,
            RecordKind::MigrateIn => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(RecordKind::Load),
            1 => Some(RecordKind::Epoch),
            2 => Some(RecordKind::MigrateOut),
            3 => Some(RecordKind::MigrateIn),
            _ => None,
        }
    }
}

/// Per-op outcome of a committed write epoch, in submission order.
/// Committed ops consume global seqs `first_seq, first_seq+1, …` in
/// this order; rejected/unavailable ops consume none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The op committed and consumed a global seq.
    Commit,
    /// The op was rejected by sequential validation (duplicate id,
    /// reserved id, unknown id).
    Rejected,
    /// The op addressed a quarantined shard.
    Unavailable,
}

impl Verdict {
    fn to_byte(self) -> u8 {
        match self {
            Verdict::Commit => 0,
            Verdict::Rejected => 1,
            Verdict::Unavailable => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Verdict::Commit),
            1 => Some(Verdict::Rejected),
            2 => Some(Verdict::Unavailable),
            _ => None,
        }
    }
}

/// One write-ahead log record: a committed epoch (or load/migration
/// event) exactly as the router applied it to the shard's store.
///
/// Replay applies `deletes` before `inserts`, matching the epoch apply
/// order on the live shard (extract then insert), so replaying a log
/// front to back reproduces the store byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord<const D: usize> {
    /// What this record represents.
    pub kind: RecordKind,
    /// Global commit seq of the epoch's first committed op (forensic;
    /// load/migration records carry the router's next seq at the time).
    pub first_seq: u64,
    /// Per-op outcomes in submission order (empty for load/migration).
    pub verdicts: Vec<Verdict>,
    /// Ids deleted from this shard's store by the epoch.
    pub deletes: Vec<u32>,
    /// Points inserted into this shard's store by the epoch.
    pub inserts: Vec<Point<D>>,
}

impl<const D: usize> EpochRecord<D> {
    /// A record with no verdicts — load and migration events.
    pub fn event(
        kind: RecordKind,
        first_seq: u64,
        deletes: Vec<u32>,
        inserts: Vec<Point<D>>,
    ) -> Self {
        EpochRecord { kind, first_seq, verdicts: Vec::new(), deletes, inserts }
    }
}

/// Why and where [`decode_log`] stopped walking the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogTail {
    /// The stream ended exactly on a frame boundary.
    Clean,
    /// The final frame is incomplete — a crash mid-append. `offset` is
    /// where the torn frame starts.
    Torn {
        /// Byte offset of the incomplete frame's header.
        offset: usize,
    },
    /// A complete frame failed its checksum or structural validation.
    Corrupt {
        /// Byte offset of the corrupt frame's header.
        offset: usize,
        /// Human-readable reason (checksum mismatch, bad version, …).
        reason: String,
    },
}

/// Encode one record as a complete frame (header + payload). The cap
/// is checked where the frame is appended, not here.
pub fn encode_record<const D: usize>(rec: &EpochRecord<D>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(
        32 + rec.verdicts.len() + 4 * rec.deletes.len() + point_len(D) * rec.inserts.len(),
    );
    payload.push(RECORD_VERSION);
    payload.push(rec.kind.to_byte());
    payload.push(D as u8);
    put_u64(&mut payload, rec.first_seq);
    put_u32(&mut payload, rec.verdicts.len() as u32);
    payload.extend(rec.verdicts.iter().map(|v| v.to_byte()));
    put_u32(&mut payload, rec.deletes.len() as u32);
    for id in &rec.deletes {
        put_u32(&mut payload, *id);
    }
    put_u32(&mut payload, rec.inserts.len() as u32);
    for p in &rec.inserts {
        put_point(&mut payload, p);
    }
    frame::wrap(&payload)
}

fn decode_payload<const D: usize>(payload: &[u8]) -> Result<EpochRecord<D>, String> {
    let mut r = Reader::new(payload);
    let version = r.u8().ok_or("payload shorter than version byte")?;
    if version != RECORD_VERSION {
        return Err(format!("unknown record version {version}"));
    }
    let kind = r.u8().and_then(RecordKind::from_byte).ok_or("bad record kind")?;
    let dim = r.u8().ok_or("payload shorter than dimension byte")?;
    if usize::from(dim) != D {
        return Err(format!("record dimension {dim} != store dimension {D}"));
    }
    let first_seq = r.u64().ok_or("truncated first_seq")?;
    let nv = r.count(1, "verdict")?;
    let mut verdicts = Vec::with_capacity(nv);
    for _ in 0..nv {
        let v = r.u8().and_then(Verdict::from_byte).ok_or("bad verdict byte")?;
        verdicts.push(v);
    }
    let nd = r.count(4, "delete")?;
    let mut deletes = Vec::with_capacity(nd);
    for _ in 0..nd {
        deletes.push(r.u32().ok_or("truncated delete id")?);
    }
    let ni = r.count(point_len(D), "insert")?;
    let mut inserts = Vec::with_capacity(ni);
    for _ in 0..ni {
        inserts.push(r.point().ok_or("truncated insert point")?);
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    Ok(EpochRecord { kind, first_seq, verdicts, deletes, inserts })
}

/// Decode a whole log byte stream into the records that fully
/// committed, stopping cleanly at the first torn or corrupt frame (see
/// the module docs for the exact invariants). Never panics on
/// attacker-controlled or crash-damaged input.
pub fn decode_log<const D: usize>(bytes: &[u8]) -> (Vec<EpochRecord<D>>, LogTail) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            return (records, LogTail::Torn { offset: pos });
        }
        let mut hdr = [0u8; FRAME_HEADER];
        hdr.copy_from_slice(&bytes[pos..pos + FRAME_HEADER]);
        let (len, stored_crc) = match frame::parse_header(hdr, MAX_FRAME_PAYLOAD) {
            Ok(parsed) => parsed,
            Err(reason) => return (records, LogTail::Corrupt { offset: pos, reason }),
        };
        if remaining - FRAME_HEADER < len {
            return (records, LogTail::Torn { offset: pos });
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        match frame::verify(payload, stored_crc).and_then(|()| decode_payload::<D>(payload)) {
            Ok(rec) => records.push(rec),
            Err(reason) => return (records, LogTail::Corrupt { offset: pos, reason }),
        }
        pos += FRAME_HEADER + len;
    }
    (records, LogTail::Clean)
}
