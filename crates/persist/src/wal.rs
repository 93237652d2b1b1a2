//! The checksummed update WAL: an append-only log of **committed**
//! update batches, written through the engines' [`WalSink`] hook and
//! replayed at recovery to roll a snapshot forward to the crash point.
//!
//! # Framing
//!
//! The file opens with the 8-byte header `AGQW` + version `u32`. After
//! the header it is a sequence of length-prefixed records:
//!
//! ```text
//! [len: u32][crc: u32][payload: len bytes]
//! ```
//!
//! `crc` is the CRC-32 of the payload alone, so a bit flip anywhere in a
//! record (or its frame — a corrupted `len` desynchronizes the CRC too)
//! is detected at that record. Payloads come in two kinds, by first
//! byte:
//!
//! * tag `1` — one tuple update: `rel u32`, `present u8`, `arity u8`,
//!   then `arity` elements as `u32`s;
//! * tag `2` — a batch **commit marker**: `lsn u64`, `count u32`. The
//!   marker seals the `count` update records immediately before it as
//!   batch `lsn`.
//!
//! A batch is *committed* iff its marker is fully on disk with a valid
//! CRC and its count matches the pending updates. Anything after the
//! last committed marker — a half-written record, updates with no
//! marker, a CRC failure — is the **tail**, and recovery discards it
//! (reported via [`RecoveryReport`]'s `torn_tail`/`corrupt_tail` and
//! `truncated_at`). The engines journal **write-ahead**: a batch is
//! appended (and fsync-flushed per the engine's `DurabilityPolicy`)
//! under the same locks that order the apply, *before* the in-memory
//! apply runs, and the LSN advances only once the append succeeds (or
//! the policy is fail-open). Discarding a torn tail therefore only
//! forgets a batch whose append never completed — one the engine
//! either rejected (fail-stop, nothing applied) or at worst applied
//! without durability in the crash window; replaying the committed
//! prefix plus quarantine-restore covers the rest (see
//! `engine_io::restore_quarantined_shard`).

use crate::codec::{ByteReader, ByteWriter};
use crate::crc32::crc32;
use crate::error::{PersistError, RecoveryReport};
use agq_core::{TupleUpdate, WalSink};
use agq_structure::{RelId, MAX_ARITY};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic of a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"AGQW";
/// Format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;
/// Byte length of the file header (magic + version).
pub const WAL_HEADER_LEN: u64 = 8;

const TAG_UPDATE: u8 = 1;
const TAG_COMMIT: u8 = 2;

fn encode_update(u: &TupleUpdate) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(TAG_UPDATE);
    w.u32(u.rel.0);
    w.u8(u.present as u8);
    w.u8(u.tuple.len() as u8);
    for &e in &u.tuple {
        w.u32(e);
    }
    w.into_bytes()
}

fn encode_commit(lsn: u64, count: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(TAG_COMMIT);
    w.u64(lsn);
    w.u32(count);
    w.into_bytes()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(payload.len() as u32);
    w.u32(crc32(payload));
    w.raw(payload);
    w.into_bytes()
}

/// A file-backed [`WalSink`]: buffered appends, one `flush` per batch
/// (issued by the engines right after the commit marker).
pub struct FileWal {
    out: BufWriter<File>,
}

impl FileWal {
    /// Create a fresh WAL at `path`, truncating any existing file and
    /// writing the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let mut f = File::create(path)?;
        f.write_all(&WAL_MAGIC)?;
        f.write_all(&WAL_VERSION.to_le_bytes())?;
        Ok(FileWal {
            out: BufWriter::new(f),
        })
    }

    /// Open an existing WAL for appending, first scanning it and
    /// truncating any torn or corrupt tail so new records extend a
    /// clean committed prefix. Returns the sink and the highest
    /// committed LSN found.
    pub fn open_append(path: impl AsRef<Path>) -> Result<(Self, u64), PersistError> {
        let path = path.as_ref();
        let scan = scan_wal(path)?;
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(scan.valid_len)?;
        let mut f = f;
        f.seek(SeekFrom::End(0))?;
        Ok((
            FileWal {
                out: BufWriter::new(f),
            },
            scan.last_lsn,
        ))
    }
}

impl WalSink for FileWal {
    fn append_batch(&mut self, lsn: u64, updates: &[&TupleUpdate]) -> std::io::Result<()> {
        for u in updates {
            self.out.write_all(&frame(&encode_update(u)))?;
        }
        self.out
            .write_all(&frame(&encode_commit(lsn, updates.len() as u32)))?;
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }
}

/// One committed batch recovered from a WAL.
pub struct WalBatch {
    /// The batch's sequence number.
    pub lsn: u64,
    /// Its updates, in logged order.
    pub updates: Vec<TupleUpdate>,
}

/// Outcome of scanning a WAL file.
pub struct WalScan {
    /// Every committed batch, in log order (duplicates not yet
    /// filtered — replay handles LSN monotonicity).
    pub batches: Vec<WalBatch>,
    /// Highest committed LSN (0 when the log holds no batches).
    pub last_lsn: u64,
    /// Byte length of the valid committed prefix (header included).
    pub valid_len: u64,
    /// A partial record or uncommitted batch trailed the log.
    pub torn_tail: bool,
    /// A CRC or framing failure trailed the log.
    pub corrupt_tail: bool,
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut r = ByteReader::new(payload);
    let rec = match r.u8()? {
        TAG_UPDATE => {
            let rel = RelId(r.u32()?);
            let present = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PersistError::Corrupt("present flag is neither 0 nor 1")),
            };
            let arity = r.u8()? as usize;
            if arity > MAX_ARITY {
                return Err(PersistError::Corrupt("update arity exceeds MAX_ARITY"));
            }
            let mut tuple = Vec::with_capacity(arity);
            for _ in 0..arity {
                tuple.push(r.u32()?);
            }
            WalRecord::Update(TupleUpdate {
                rel,
                tuple,
                present,
            })
        }
        TAG_COMMIT => WalRecord::Commit {
            lsn: r.u64()?,
            count: r.u32()?,
        },
        _ => return Err(PersistError::Corrupt("unknown WAL record tag")),
    };
    if !r.is_exhausted() {
        return Err(PersistError::Corrupt("trailing bytes in WAL record"));
    }
    Ok(rec)
}

enum WalRecord {
    Update(TupleUpdate),
    Commit { lsn: u64, count: u32 },
}

/// Scan a WAL file: verify the header, walk the records, and return the
/// committed batches plus how far the log is structurally valid.
///
/// The scan never fails on a damaged *body* — torn and corrupt tails
/// are expected after a crash and are reported, not raised. Only a
/// wrong magic, an incompatible version, or an I/O error is an `Err`.
pub fn scan_wal(path: impl AsRef<Path>) -> Result<WalScan, PersistError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < WAL_HEADER_LEN as usize {
        return Err(PersistError::Corrupt("WAL shorter than its header"));
    }
    let found: [u8; 4] = buf[0..4].try_into().unwrap();
    if found != WAL_MAGIC {
        return Err(PersistError::BadMagic {
            expected: WAL_MAGIC,
            found,
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            expected: WAL_VERSION,
        });
    }

    let mut scan = WalScan {
        batches: Vec::new(),
        last_lsn: 0,
        valid_len: WAL_HEADER_LEN,
        torn_tail: false,
        corrupt_tail: false,
    };
    let mut pos = WAL_HEADER_LEN as usize;
    // Updates read since the last commit marker; committed only when a
    // marker with a matching count seals them. If the log ends before
    // that marker, `valid_len` (already at the last committed batch) is
    // the truncation point.
    let mut pending: Vec<TupleUpdate> = Vec::new();

    while pos < buf.len() {
        let rest = &buf[pos..];
        if rest.len() < 8 {
            scan.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if rest.len() < 8 + len {
            scan.torn_tail = true;
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            scan.corrupt_tail = true;
            break;
        }
        let rec = match decode_payload(payload) {
            Ok(rec) => rec,
            Err(_) => {
                scan.corrupt_tail = true;
                break;
            }
        };
        pos += 8 + len;
        match rec {
            WalRecord::Update(u) => pending.push(u),
            WalRecord::Commit { lsn, count } => {
                if count as usize != pending.len() {
                    // The marker does not seal what precedes it: the
                    // log is inconsistent from this batch onward
                    // (`valid_len` already sits at the last good batch).
                    scan.corrupt_tail = true;
                    break;
                }
                scan.batches.push(WalBatch {
                    lsn,
                    updates: std::mem::take(&mut pending),
                });
                scan.last_lsn = scan.last_lsn.max(lsn);
                scan.valid_len = pos as u64;
            }
        }
    }
    if !pending.is_empty() && !scan.corrupt_tail {
        // Updates with no commit marker: an append cut short.
        scan.torn_tail = true;
    }
    Ok(scan)
}

/// Fold a scan into the replay-relevant half of a [`RecoveryReport`]
/// (the `snapshot_lsn` and replay counters are filled in by the
/// caller as it applies batches).
pub fn report_from_scan(scan: &WalScan) -> RecoveryReport {
    let truncated = scan.torn_tail || scan.corrupt_tail;
    RecoveryReport {
        wal_last_lsn: scan.last_lsn,
        batches_committed: scan.batches.len(),
        torn_tail: scan.torn_tail,
        corrupt_tail: scan.corrupt_tail,
        truncated_at: truncated.then_some(scan.valid_len),
        ..RecoveryReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("agq_wal_unit_{}_{}", std::process::id(), name));
        p
    }

    fn upd(rel: u32, a: u32, b: u32, present: bool) -> TupleUpdate {
        TupleUpdate {
            rel: RelId(rel),
            tuple: vec![a, b],
            present,
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append_batch(1, &[&upd(0, 1, 2, true), &upd(0, 2, 3, true)])
            .unwrap();
        wal.append_batch(2, &[&upd(0, 1, 2, false)]).unwrap();
        WalSink::flush(&mut wal).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.last_lsn, 2);
        assert!(!scan.torn_tail && !scan.corrupt_tail);
        assert_eq!(scan.batches[0].updates.len(), 2);
        assert!(!scan.batches[1].updates[0].present);
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_detected_and_bounded() {
        let path = tmp("torn");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append_batch(1, &[&upd(0, 1, 2, true)]).unwrap();
        WalSink::flush(&mut wal).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        // A second batch cut off mid-record.
        wal.append_batch(2, &[&upd(0, 5, 6, true)]).unwrap();
        WalSink::flush(&mut wal).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, good_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_detected() {
        let path = tmp("flip");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append_batch(1, &[&upd(0, 1, 2, true)]).unwrap();
        WalSink::flush(&mut wal).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = WAL_HEADER_LEN as usize + 10;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.batches.len(), 0);
        assert!(scan.corrupt_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_tail() {
        let path = tmp("reopen");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append_batch(1, &[&upd(0, 1, 2, true)]).unwrap();
        WalSink::flush(&mut wal).unwrap();
        drop(wal);
        // Simulate a crash mid-append: garbage after the committed batch.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 7]).unwrap();
        drop(f);
        let (mut wal, last) = FileWal::open_append(&path).unwrap();
        assert_eq!(last, 1);
        wal.append_batch(2, &[&upd(0, 3, 4, true)]).unwrap();
        WalSink::flush(&mut wal).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert!(!scan.torn_tail && !scan.corrupt_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00").unwrap();
        assert!(matches!(
            scan_wal(&path),
            Err(PersistError::BadMagic { .. })
        ));
        let mut hdr = WAL_MAGIC.to_vec();
        hdr.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &hdr).unwrap();
        assert!(matches!(
            scan_wal(&path),
            Err(PersistError::VersionMismatch {
                found: 99,
                expected: WAL_VERSION
            })
        ));
        std::fs::remove_file(&path).ok();
    }
}
