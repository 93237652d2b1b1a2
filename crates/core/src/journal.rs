//! Write-ahead journaling: the [`WalSink`] durability hook, the
//! [`DurabilityPolicy`] retry/failure rule, and the [`Journal`] every
//! update-ingesting engine commits its batches through.

use crate::engine::TupleUpdate;

/// A durability hook: a sink that records committed update batches as a
/// write-ahead-log stream. Engines that ingest [`TupleUpdate`] batches
/// call [`append_batch`](WalSink::append_batch) once per *applied* batch,
/// tagging it with a monotonically increasing log sequence number (LSN);
/// a snapshot taken at LSN `n` plus a replay of every logged batch with
/// LSN `> n` reconstructs the live state (replay overlap is harmless —
/// tuple updates are idempotent set-membership writes).
///
/// The trait lives here, below the engines in the dependency graph, so
/// any engine layer can carry a sink without knowing the on-disk format;
/// `agq-persist` provides the checksummed file-backed implementation.
pub trait WalSink: Send {
    /// Append one committed batch under sequence number `lsn`. The
    /// updates are borrowed from the caller's (coalesced) batch, so
    /// journaling never clones a tuple.
    fn append_batch(&mut self, lsn: u64, updates: &[&TupleUpdate]) -> std::io::Result<()>;

    /// Flush buffered records to durable storage.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What an engine does when a WAL append still fails after the
/// [`DurabilityPolicy`]'s bounded retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalFailure {
    /// Reject the batch: nothing is applied in memory, the LSN is not
    /// advanced, and the caller gets a typed WAL error. Durability is
    /// preserved at the cost of availability.
    FailStop,
    /// Apply the batch anyway and keep serving, but mark the engine
    /// `wal_degraded` so health reporting (and operators) can see that
    /// the in-memory state has run ahead of the durable log. Availability
    /// is preserved at the cost of durability.
    FailOpen,
}

/// How hard an engine tries to journal a batch before giving up, and
/// what "giving up" means. Engines journal **write-ahead**: the batch is
/// appended (and flushed) under this policy *before* any in-memory state
/// changes, so [`WalFailure::FailStop`] can reject a batch with the
/// engine untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Total append attempts (≥ 1; `0` is treated as `1`).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub backoff: std::time::Duration,
    /// Behaviour after the last attempt fails.
    pub on_failure: WalFailure,
}

impl Default for DurabilityPolicy {
    /// Three attempts, 1 ms initial backoff, fail-stop.
    fn default() -> Self {
        DurabilityPolicy {
            attempts: 3,
            backoff: std::time::Duration::from_millis(1),
            on_failure: WalFailure::FailStop,
        }
    }
}

impl DurabilityPolicy {
    /// The default retry schedule but fail-open on exhaustion.
    pub fn fail_open() -> Self {
        DurabilityPolicy {
            on_failure: WalFailure::FailOpen,
            ..DurabilityPolicy::default()
        }
    }

    /// Append + flush one batch under this policy's retry schedule.
    /// Returns the last error once `attempts` attempts have failed; the
    /// caller decides between fail-stop and fail-open via
    /// [`on_failure`](DurabilityPolicy::on_failure). Each attempt passes
    /// through the `wal.append` fail-point.
    pub fn append(
        &self,
        sink: &mut dyn WalSink,
        lsn: u64,
        updates: &[&TupleUpdate],
    ) -> std::io::Result<()> {
        let attempts = self.attempts.max(1);
        let mut delay = self.backoff;
        for attempt in 1..=attempts {
            let res = crate::fault::io_point("wal.append")
                .and_then(|()| sink.append_batch(lsn, updates))
                .and_then(|()| sink.flush());
            match res {
                Ok(()) => return Ok(()),
                Err(e) if attempt == attempts => return Err(e),
                Err(_) => {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    delay = delay.saturating_mul(2);
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }
}

/// The durability side-state of an engine and the one commit rule every
/// engine follows ([`Journal::commit`]). The fields are plain data — each
/// is readable and settable through the owning engine's public API — so
/// they are public; the flat engine owns a `Journal`, the sharded engine
/// keeps one behind a mutex and commits while the accepting batch's
/// shard write locks are held, so LSN order agrees with apply order.
pub struct Journal {
    /// The attached sink, if any.
    pub sink: Option<Box<dyn WalSink>>,
    /// The LSN of the last committed batch: a snapshot taken now is
    /// current through it.
    pub last_lsn: u64,
    /// The retry/failure policy for appends.
    pub policy: DurabilityPolicy,
    /// Set when a fail-open commit accepted a batch past a failed
    /// append: the log may miss batches until a fresh snapshot.
    pub degraded: bool,
}

impl Journal {
    /// No sink, default policy, current through `last_lsn` (0 for a
    /// fresh build, the replayed LSN after recovery).
    pub fn new(last_lsn: u64) -> Self {
        Journal {
            sink: None,
            last_lsn,
            policy: DurabilityPolicy::default(),
            degraded: false,
        }
    }

    /// Journal one batch **write-ahead**: append it to the attached sink
    /// under the *next* LSN with the policy's retry schedule, and commit
    /// that LSN only if the append succeeded — or unconditionally under
    /// fail-open, which marks the journal degraded. On a fail-stop `Err`
    /// the LSN does not advance and the caller must not apply the batch.
    /// `batch` is only called when a sink is attached, so an unjournaled
    /// engine pays one increment and never gathers the borrowed updates.
    pub fn commit<'u, B: AsRef<[&'u TupleUpdate]>>(
        &mut self,
        batch: impl FnOnce() -> B,
    ) -> std::io::Result<()> {
        let lsn = self.last_lsn + 1;
        if let Some(sink) = &mut self.sink {
            if let Err(e) = self.policy.append(sink.as_mut(), lsn, batch().as_ref()) {
                match self.policy.on_failure {
                    WalFailure::FailStop => return Err(e),
                    WalFailure::FailOpen => self.degraded = true,
                }
            }
        }
        self.last_lsn = lsn;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_structure::RelId;

    struct FailingSink;

    impl WalSink for FailingSink {
        fn append_batch(&mut self, _lsn: u64, _updates: &[&TupleUpdate]) -> std::io::Result<()> {
            Err(std::io::Error::other("sink down"))
        }
    }

    #[test]
    fn failing_sink_pins_lsn_under_fail_stop_and_degrades_under_fail_open() {
        let u = TupleUpdate::insert(RelId(0), &[0, 1]);
        let mut journal = Journal::new(7);
        journal.commit(|| [&u]).expect("no sink: nothing to fail");
        assert_eq!(journal.last_lsn, 8);

        journal.sink = Some(Box::new(FailingSink));
        journal.policy = DurabilityPolicy {
            attempts: 2,
            backoff: std::time::Duration::ZERO,
            on_failure: WalFailure::FailStop,
        };
        assert!(journal.commit(|| [&u]).is_err());
        assert_eq!(journal.last_lsn, 8, "fail-stop leaves the LSN pinned");
        assert!(!journal.degraded);

        journal.policy.on_failure = WalFailure::FailOpen;
        journal
            .commit(|| [&u])
            .expect("fail-open accepts the batch");
        assert_eq!(journal.last_lsn, 9, "fail-open advances the LSN");
        assert!(journal.degraded);
    }
}
