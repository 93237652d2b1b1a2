//! The file layer and the save/load/recover orchestration: artifact
//! headers and checksum trailers, plus the functions that take a live
//! engine apart into `.agqplan` + `.agqsnap` files and put one back
//! together — optionally rolling it forward through a WAL tail.

use crate::codec::ByteReader;
use crate::crc32::crc32;
use crate::error::{PersistError, RecoveryReport};
use crate::plan::{self, LoadedPlan, PlanRefs};
use crate::snapshot::{self, ShardingMeta, SnapshotBundle};
use crate::value::PersistValue;
use crate::wal::{self, FileWal};
use agq_circuit::PermMaint;
use agq_core::{QueryEngine, TupleUpdate};
use agq_enumerate::{
    AnswerIndex, EnumMachine, EnumQueryEngine, ServeError, ShardStateDump, ShardedEngine,
};
use agq_semiring::Semiring;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Magic of a `.agqplan` file.
pub const PLAN_MAGIC: [u8; 4] = *b"AGQP";
/// Magic of a `.agqsnap` file.
pub const SNAP_MAGIC: [u8; 4] = *b"AGQS";
/// Format version this build reads and writes (plan and snapshot files;
/// the WAL versions independently).
pub const FORMAT_VERSION: u32 = 3;

/// Sizes of the artifacts one save produced, for capacity planning and
/// the persistence benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaveStats {
    /// Bytes written to the `.agqplan` file (0 when not saved).
    pub plan_bytes: u64,
    /// Bytes written to the `.agqsnap` file (0 when not saved).
    pub snapshot_bytes: u64,
}

fn write_artifact(
    path: impl AsRef<Path>,
    magic: [u8; 4],
    carrier: u8,
    body: &[u8],
) -> Result<u64, PersistError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&magic)?;
    f.write_all(&FORMAT_VERSION.to_le_bytes())?;
    f.write_all(&[carrier])?;
    f.write_all(body)?;
    f.write_all(&crc32(body).to_le_bytes())?;
    f.flush()?;
    Ok(9 + body.len() as u64 + 4)
}

fn read_artifact(
    path: impl AsRef<Path>,
    magic: [u8; 4],
    carrier: u8,
) -> Result<Vec<u8>, PersistError> {
    let buf = std::fs::read(path)?;
    if buf.len() < 13 {
        return Err(PersistError::Corrupt("artifact shorter than its framing"));
    }
    let mut r = ByteReader::new(&buf);
    let found: [u8; 4] = r.raw(4)?.try_into().unwrap();
    if found != magic {
        return Err(PersistError::BadMagic {
            expected: magic,
            found,
        });
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let tag = r.u8()?;
    if tag != carrier {
        return Err(PersistError::CarrierMismatch {
            found: tag,
            expected: carrier,
        });
    }
    let body = &buf[9..buf.len() - 4];
    let trailer = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
    if crc32(body) != trailer {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok(body.to_vec())
}

// ---------------------------------------------------------------------
// plan files
// ---------------------------------------------------------------------

/// Write the shared immutable plan of `engine` to a `.agqplan` file.
pub fn save_plan<S, P>(
    engine: &EnumQueryEngine<S, P>,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let body = plan::write_bundle(&PlanRefs::of(engine.query_engine(), engine.answer_index()));
    write_artifact(path, PLAN_MAGIC, S::TAG, &body)
}

/// Write the shared immutable plan of a sharded engine to a `.agqplan`
/// file. Every shard references the same plan, so any healthy shard's is
/// *the* plan: quarantined shards do not stand in the way, and only an
/// engine with no healthy shard left is
/// [`PersistError::ShardsUnavailable`].
pub fn save_sharded_plan<S, P>(
    engine: &ShardedEngine<S, P>,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let body = engine
        .with_healthy_shard(|qe, index| plan::write_bundle(&PlanRefs::of(qe, index)))
        .ok_or_else(|| PersistError::ShardsUnavailable(engine.quarantined_shards()))?;
    write_artifact(path, PLAN_MAGIC, S::TAG, &body)
}

/// Load a `.agqplan` file and rebuild the derived plans — one adjacency,
/// one enumeration layout over it, both linear in the one decoded
/// circuit (this is the step that replaces recompilation at cold
/// start).
pub fn load_plan<S: PersistValue>(path: impl AsRef<Path>) -> Result<LoadedPlan<S>, PersistError> {
    let body = read_artifact(path, PLAN_MAGIC, S::TAG)?;
    plan::read_bundle::<S>(&body).map(LoadedPlan::from_bundle)
}

// ---------------------------------------------------------------------
// snapshot files
// ---------------------------------------------------------------------

/// Write the mutable state of `engine` to a `.agqsnap` file, current
/// through the engine's `last_lsn`.
pub fn save_snapshot<S, P>(
    engine: &EnumQueryEngine<S, P>,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    agq_core::fault::io_point("snapshot.save")?;
    let eval = engine.query_engine().evaluator();
    let bundle = SnapshotBundle {
        last_lsn: engine.last_lsn(),
        sharding: None,
        shards: vec![ShardStateDump {
            slot_values: eval.slot_values().to_vec(),
            gate_values: eval.gate_values().to_vec(),
            machine: engine.answer_index().machine().dump_state(),
        }],
    };
    write_artifact(path, SNAP_MAGIC, S::TAG, &snapshot::write_snapshot(&bundle))
}

/// Write every shard's mutable state to a `.agqsnap` file under one
/// consistent whole-engine snapshot (ordered all-shards read lock, so
/// the dump is point-in-time across shards).
pub fn save_sharded_snapshot<S, P>(
    engine: &ShardedEngine<S, P>,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    agq_core::fault::io_point("snapshot.save")?;
    let (last_lsn, shards) =
        engine
            .snapshot_states()
            .map_err(|ServeError::ShardUnavailable { shards }| {
                PersistError::ShardsUnavailable(shards)
            })?;
    let bundle = SnapshotBundle {
        last_lsn,
        sharding: Some(ShardingMeta {
            components: engine.components().clone(),
            component_local: engine.component_local(),
        }),
        shards,
    };
    write_artifact(path, SNAP_MAGIC, S::TAG, &snapshot::write_snapshot(&bundle))
}

/// Save both halves of an engine: plan + snapshot.
pub fn save_engine<S, P>(
    engine: &EnumQueryEngine<S, P>,
    plan_path: impl AsRef<Path>,
    snap_path: impl AsRef<Path>,
) -> Result<SaveStats, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    Ok(SaveStats {
        plan_bytes: save_plan(engine, plan_path)?,
        snapshot_bytes: save_snapshot(engine, snap_path)?,
    })
}

/// Save both halves of a sharded engine: plan + whole-lockset snapshot.
pub fn save_sharded<S, P>(
    engine: &ShardedEngine<S, P>,
    plan_path: impl AsRef<Path>,
    snap_path: impl AsRef<Path>,
) -> Result<SaveStats, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    Ok(SaveStats {
        plan_bytes: save_sharded_plan(engine, plan_path)?,
        snapshot_bytes: save_sharded_snapshot(engine, snap_path)?,
    })
}

fn restore_shard<S, P>(
    lp: &LoadedPlan<S>,
    dump: ShardStateDump<S>,
) -> Result<(QueryEngine<S, P>, AnswerIndex), PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let qe = QueryEngine::from_saved(
        Arc::clone(&lp.compiled),
        Arc::clone(&lp.eval_plan),
        dump.slot_values,
        dump.gate_values,
    )?;
    let machine = EnumMachine::from_saved(Arc::clone(&lp.enum_plan), dump.machine)
        .map_err(PersistError::Corrupt)?;
    let index = AnswerIndex::from_saved_parts(
        machine,
        Arc::clone(&lp.compiled.slots),
        lp.compiled.free_vars.len(),
        lp.dynamic,
        Arc::clone(&lp.sig),
        lp.domain_size,
    );
    Ok((qe, index))
}

/// Reassemble a single engine from a plan and a snapshot file. The
/// returned engine is current through the snapshot's LSN; use
/// [`recover_engine`] to also roll a WAL tail forward.
pub fn load_engine<S, P>(
    plan_path: impl AsRef<Path>,
    snap_path: impl AsRef<Path>,
) -> Result<EnumQueryEngine<S, P>, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let lp = load_plan::<S>(plan_path)?;
    let body = read_artifact(snap_path, SNAP_MAGIC, S::TAG)?;
    let snap = snapshot::read_snapshot::<S>(&body)?;
    if snap.sharding.is_some() {
        return Err(PersistError::Corrupt(
            "snapshot is sharded; load it with load_sharded",
        ));
    }
    let mut shards = snap.shards;
    let dump = shards.pop().expect("validated single-shard snapshot");
    let (qe, index) = restore_shard::<S, P>(&lp, dump)?;
    Ok(EnumQueryEngine::from_parts(qe, index, snap.last_lsn))
}

/// Reassemble a sharded engine from a plan and a snapshot file.
pub fn load_sharded<S, P>(
    plan_path: impl AsRef<Path>,
    snap_path: impl AsRef<Path>,
) -> Result<ShardedEngine<S, P>, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let lp = load_plan::<S>(plan_path)?;
    let body = read_artifact(snap_path, SNAP_MAGIC, S::TAG)?;
    let snap = snapshot::read_snapshot::<S>(&body)?;
    let meta = match snap.sharding {
        Some(meta) => meta,
        None => {
            return Err(PersistError::Corrupt(
                "snapshot is unsharded; load it with load_engine",
            ))
        }
    };
    let mut states = Vec::with_capacity(snap.shards.len());
    for dump in snap.shards {
        states.push(restore_shard::<S, P>(&lp, dump)?);
    }
    ShardedEngine::from_saved_parts(
        meta.components,
        meta.component_local,
        lp.compiled.free_vars.len(),
        states,
        snap.last_lsn,
    )
    .map_err(PersistError::Corrupt)
}

fn replay_batches(
    scan: wal::WalScan,
    snapshot_lsn: u64,
    mut apply: impl FnMut(&wal::WalBatch) -> Result<(), PersistError>,
) -> Result<RecoveryReport, PersistError> {
    let mut report = wal::report_from_scan(&scan);
    report.snapshot_lsn = snapshot_lsn;
    let mut high = 0u64;
    for batch in &scan.batches {
        if batch.lsn <= high {
            // Not monotonically increasing: a duplicated tail block
            // (e.g. a storage layer re-appending the last batch).
            report.batches_skipped += 1;
            continue;
        }
        high = batch.lsn;
        if batch.lsn <= snapshot_lsn {
            continue; // already reflected in the snapshot
        }
        apply(batch)?;
        report.batches_replayed += 1;
        report.updates_replayed += batch.updates.len();
    }
    Ok(report)
}

/// Crash recovery for a single engine: load plan + snapshot, then
/// replay every committed WAL batch sequenced after the snapshot. The
/// returned engine's LSN continues from the highest committed LSN, so
/// re-attaching the (tail-truncated) WAL resumes a consistent sequence.
pub fn recover_engine<S, P>(
    plan_path: impl AsRef<Path>,
    snap_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
) -> Result<(EnumQueryEngine<S, P>, RecoveryReport), PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let mut engine = load_engine::<S, P>(plan_path, snap_path)?;
    let snapshot_lsn = engine.last_lsn();
    let scan = wal::scan_wal(wal_path)?;
    let wal_last = scan.last_lsn;
    let report = replay_batches(scan, snapshot_lsn, |batch| {
        engine.apply_batch(&batch.updates)?;
        Ok(())
    })?;
    engine.set_last_lsn(snapshot_lsn.max(wal_last));
    Ok((engine, report))
}

/// Crash recovery for a sharded engine: load plan + snapshot, replay
/// the committed WAL tail through the coalescing batch path.
pub fn recover_sharded<S, P>(
    plan_path: impl AsRef<Path>,
    snap_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
) -> Result<(ShardedEngine<S, P>, RecoveryReport), PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S> + Send + Sync,
{
    let engine = load_sharded::<S, P>(plan_path, snap_path)?;
    let snapshot_lsn = engine.last_lsn();
    let scan = wal::scan_wal(wal_path)?;
    let wal_last = scan.last_lsn;
    let report = replay_batches(scan, snapshot_lsn, |batch| {
        engine.apply_batch(&batch.updates)?;
        Ok(())
    })?;
    engine.set_last_lsn(snapshot_lsn.max(wal_last));
    Ok((engine, report))
}

/// Re-hydrate one quarantined shard of a **live** sharded engine and
/// lift its quarantine, without restarting the process or touching the
/// healthy shards.
///
/// The shard's state is rebuilt from the `.agqsnap` file, then rolled
/// forward through every committed WAL batch sequenced after the
/// snapshot — filtered to the updates this shard owns. Because the
/// engine journals write-ahead (a batch is durable before it is
/// applied), this replay also completes the batch whose mid-apply panic
/// caused the quarantine: the rebuilt shard converges to exactly the
/// state it would hold had the panic never happened. The shared
/// immutable plan is borrowed from a healthy shard (every shard
/// references the same `Arc`s), so no `.agqplan` file is needed.
///
/// The rebuilt state must pass [`AnswerIndex::self_check`] before it is
/// installed; on any error the live engine is left untouched (the shard
/// stays quarantined).
pub fn restore_quarantined_shard<S, P>(
    engine: &ShardedEngine<S, P>,
    shard: usize,
    snap_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
) -> Result<RecoveryReport, PersistError>
where
    S: Semiring + PersistValue,
    P: PermMaint<S>,
{
    let lp = engine
        .with_healthy_shard(|qe, index| LoadedPlan {
            compiled: Arc::clone(qe.compiled_arc()),
            eval_plan: Arc::clone(qe.plan()),
            enum_plan: Arc::clone(index.machine().plan()),
            sig: Arc::clone(index.signature()),
            domain_size: index.domain_size(),
            dynamic: index.is_dynamic(),
        })
        .ok_or(PersistError::Corrupt(
            "no healthy shard to source the shared plan from; use recover_sharded instead",
        ))?;

    let body = read_artifact(snap_path, SNAP_MAGIC, S::TAG)?;
    let snap = snapshot::read_snapshot::<S>(&body)?;
    if snap.sharding.is_none() {
        return Err(PersistError::Corrupt(
            "snapshot is unsharded; it cannot restore a shard of a sharded engine",
        ));
    }
    let snapshot_lsn = snap.last_lsn;
    let dump = snap
        .shards
        .into_iter()
        .nth(shard)
        .ok_or(PersistError::Corrupt(
            "snapshot has fewer shards than the live engine",
        ))?;

    let (mut qe, mut index) = restore_shard::<S, P>(&lp, dump)?;

    let scan = wal::scan_wal(wal_path)?;
    let mut replayed = 0usize;
    let mut report = replay_batches(scan, snapshot_lsn, |batch| {
        // The journaled batch is already coalesced and grouped by
        // shard, so this shard's subsequence is exactly the group the
        // live engine applied (or would have applied). Add-gate order is
        // a function of the state, but the column order inside a
        // permanent's mask buckets follows the splice order of the
        // sweep — replaying through the same batched path reproduces it
        // exactly.
        let group: Vec<&TupleUpdate> = batch
            .updates
            .iter()
            .filter(|u| engine.owning_shard(&u.tuple) == Some(shard))
            .collect();
        if group.is_empty() {
            return Ok(());
        }
        index.apply_batch_coalesced(&group)?;
        qe.apply_batch_coalesced(&group);
        replayed += group.len();
        Ok(())
    })?;
    // `replay_batches` counts whole batches; this restore only applied
    // the updates the shard owns.
    report.updates_replayed = replayed;

    index.self_check().map_err(PersistError::Invariant)?;
    engine
        .install_shard(shard, qe, index)
        .map_err(PersistError::Corrupt)?;
    Ok(report)
}

/// Open (or create) the WAL at `path` for appending — truncating any
/// torn tail. Returns the sink and the LSN the log was committed through.
fn open_wal(path: &Path) -> Result<(FileWal, u64), PersistError> {
    if path.exists() {
        FileWal::open_append(path)
    } else {
        Ok((FileWal::create(path)?, 0))
    }
}

/// Open (or create) the WAL at `path` for appending — truncating any
/// torn tail — and attach it to `engine`. Returns the LSN the log was
/// committed through.
pub fn attach_file_wal<S, P>(
    engine: &mut EnumQueryEngine<S, P>,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError>
where
    S: Semiring,
    P: PermMaint<S>,
{
    let (sink, last) = open_wal(path.as_ref())?;
    engine.attach_wal(Box::new(sink));
    Ok(last)
}

/// Sharded counterpart of [`attach_file_wal`].
pub fn attach_sharded_file_wal<S, P>(
    engine: &ShardedEngine<S, P>,
    path: impl AsRef<Path>,
) -> Result<u64, PersistError>
where
    S: Semiring,
    P: PermMaint<S>,
{
    let (sink, last) = open_wal(path.as_ref())?;
    engine.attach_wal(Box::new(sink));
    Ok(last)
}
