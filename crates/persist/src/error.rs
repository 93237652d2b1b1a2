//! The unified error type of the persistence layer, plus the
//! [`RecoveryReport`] a successful recovery returns.

use agq_core::PartsError;
use agq_enumerate::UpdateError;
use std::fmt;

/// Everything that can go wrong saving or loading persisted engine
/// state. Every failure mode of a corrupted, truncated, or mismatched
/// artifact maps to a variant here — recovery paths never panic on bad
/// bytes.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic — not one of our
    /// artifacts (or the wrong kind of artifact).
    BadMagic {
        /// The magic the artifact kind requires.
        expected: [u8; 4],
        /// What the file actually starts with.
        found: [u8; 4],
    },
    /// The artifact was written by an incompatible format version.
    VersionMismatch {
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The artifact was written for a different semiring carrier than
    /// the one it is being loaded into.
    CarrierMismatch {
        /// Carrier tag stamped in the file.
        found: u8,
        /// Carrier tag of the requested load.
        expected: u8,
    },
    /// The whole-body checksum trailer does not match the contents.
    ChecksumMismatch,
    /// The byte stream is structurally invalid (truncated mid-field,
    /// out-of-range index, impossible length, …).
    Corrupt(&'static str),
    /// A loaded plan/state pair does not fit together.
    Parts(PartsError),
    /// Replaying the WAL tail was rejected by the engine (a batch that
    /// was valid when logged no longer is — e.g. the artifacts come from
    /// different databases).
    Replay(UpdateError),
    /// A save needed the listed shards and they were quarantined: a
    /// whole-engine snapshot would silently omit their state, and the
    /// shared plan cannot be read once *every* shard is down. Restore
    /// them first (see `restore_quarantined_shard`).
    ShardsUnavailable(Vec<usize>),
    /// A restored engine or shard failed its deep invariant
    /// verification (`self_check`); the rebuilt state was **not**
    /// installed.
    Invariant(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            PersistError::VersionMismatch { found, expected } => write!(
                f,
                "format version mismatch: file is v{found}, this build reads v{expected}"
            ),
            PersistError::CarrierMismatch { found, expected } => write!(
                f,
                "semiring carrier mismatch: file tag {found}, requested tag {expected}"
            ),
            PersistError::ChecksumMismatch => write!(f, "body checksum mismatch"),
            PersistError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            PersistError::Parts(e) => write!(f, "plan/state mismatch: {e}"),
            PersistError::Replay(e) => write!(f, "WAL replay rejected: {e}"),
            PersistError::ShardsUnavailable(shards) => {
                write!(
                    f,
                    "shards quarantined, the save would be incomplete: {shards:?}"
                )
            }
            PersistError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<PartsError> for PersistError {
    fn from(e: PartsError) -> Self {
        PersistError::Parts(e)
    }
}

impl From<UpdateError> for PersistError {
    fn from(e: UpdateError) -> Self {
        PersistError::Replay(e)
    }
}

/// What a recovery actually did: how much of the WAL was committed,
/// replayed, skipped, or discarded. Returned alongside the recovered
/// engine so operators can distinguish a clean restart from one that
/// lost an uncommitted tail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN the loaded snapshot was current through.
    pub snapshot_lsn: u64,
    /// Highest committed LSN observed in the WAL (0 when no WAL or
    /// empty).
    pub wal_last_lsn: u64,
    /// Committed batches found in the WAL (valid frame + commit marker).
    pub batches_committed: usize,
    /// Batches actually replayed (committed, LSN past the snapshot).
    pub batches_replayed: usize,
    /// Tuple updates replayed in those batches.
    pub updates_replayed: usize,
    /// Committed batches skipped as duplicates (LSN not monotonically
    /// increasing — e.g. a tail block duplicated by a storage layer).
    pub batches_skipped: usize,
    /// An incomplete batch (update records with no commit marker) or a
    /// half-written record was found at the tail and discarded.
    pub torn_tail: bool,
    /// A checksum or framing failure was found mid-log; everything from
    /// that point on was discarded.
    pub corrupt_tail: bool,
    /// When the log had to be cut back, the byte offset it is valid to
    /// (`None` when the whole log was clean).
    pub truncated_at: Option<u64>,
}
