//! Fault-injection suite: every on-disk damage mode the recovery path
//! claims to handle — truncated WAL tails, bit-flipped records,
//! duplicated tail batches, version-mismatched headers, corrupted
//! plan/snapshot bodies — must produce a clean typed error or an honest
//! [`RecoveryReport`], never a panic and never silently wrong answers.

use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::{EnumQueryEngine, ShardedEngine};
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_persist::{
    attach_file_wal, load_engine, recover_engine, save_engine, save_sharded, save_sharded_plan,
    PersistError, FORMAT_VERSION,
};
use agq_semiring::F64;
use agq_structure::{RelId, Signature, Structure};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Engine = EnumQueryEngine<F64, SegTreePerm<F64>>;

fn scratch(label: &str) -> (PathBuf, PathBuf, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "agq_recovery_{}_{}_{}",
        std::process::id(),
        label,
        id
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    (
        dir.join("q.agqplan"),
        dir.join("q.agqsnap"),
        dir.join("wal.agqlog"),
    )
}

/// A small fixed world: a 6-cycle with chords, φ = E(x,y) ∧ S(x).
fn build() -> (Engine, RelId, RelId) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let mut a = Structure::new(Arc::new(sig), 8);
    for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)] {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    for v in 0..5u32 {
        a.insert(s, &[v]);
    }
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(e, vec![x, y]).and(Formula::Rel(s, vec![x]));
    let eng = Engine::build_dynamic(&Arc::new(a), &phi, &CompileOptions::default())
        .expect("build_dynamic");
    (eng, e, s)
}

/// Save a snapshot, then journal `n_batches` single-update batches
/// through the WAL. Returns the paths plus the live engine.
fn save_and_churn(label: &str, n_batches: usize) -> (Engine, PathBuf, PathBuf, PathBuf) {
    let (mut live, _e, s) = build();
    let (plan, snap, wal) = scratch(label);
    save_engine(&live, &plan, &snap).expect("save");
    attach_file_wal(&mut live, &wal).expect("attach wal");
    for i in 0..n_batches {
        let v = (i as u32) % 8;
        live.apply_batch(&[TupleUpdate {
            rel: s,
            tuple: vec![v],
            present: i % 2 == 0,
        }])
        .expect("batch");
    }
    live.detach_wal();
    (live, plan, snap, wal)
}

fn answers(e: &Engine) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut it = e.enumerate();
    while let Some(t) = it.next() {
        out.push(t);
    }
    out
}

#[test]
fn truncated_wal_tail_recovers_committed_prefix() {
    let (_live, plan, snap, wal) = save_and_churn("trunc", 6);
    let full = std::fs::metadata(&wal).unwrap().len();
    // Cut mid-record: drop the last 5 bytes (inside the final commit
    // marker frame), un-committing the last batch.
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(full - 5).unwrap();
    drop(f);

    let (rec, report) = recover_engine::<F64, SegTreePerm<F64>>(&plan, &snap, &wal)
        .expect("torn tail is recoverable, not fatal");
    assert!(report.torn_tail, "tail cut mid-record must be reported");
    assert!(!report.corrupt_tail);
    assert_eq!(report.batches_committed, 5, "one batch lost to the tear");
    assert_eq!(report.batches_replayed, 5);
    assert!(report.truncated_at.is_some());
    // The recovered engine equals a replay of the first 5 batches.
    let (mut expect, _e2, s2) = build();
    for i in 0..5usize {
        expect
            .apply_update(&TupleUpdate {
                rel: s2,
                tuple: vec![(i as u32) % 8],
                present: i % 2 == 0,
            })
            .unwrap();
    }
    assert_eq!(rec.count(), expect.count());
    assert_eq!(answers(&rec), answers(&expect));
}

#[test]
fn bit_flipped_wal_record_truncates_from_the_flip() {
    let (_live, plan, snap, wal) = save_and_churn("flip", 6);
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip one bit a third of the way into the record stream.
    let pos = 8 + (bytes.len() - 8) / 3;
    bytes[pos] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();

    let (rec, report) = recover_engine::<F64, SegTreePerm<F64>>(&plan, &snap, &wal)
        .expect("CRC failure mid-log is recoverable, not fatal");
    assert!(report.corrupt_tail, "CRC mismatch must be reported");
    assert!(
        report.batches_committed < 6,
        "batches at/after the flip are gone"
    );
    assert_eq!(report.batches_replayed, report.batches_committed);
    assert!(report.truncated_at.is_some());
    // Whatever prefix survived must replay to a consistent engine.
    let (mut expect, _e2, s2) = build();
    for i in 0..report.batches_replayed {
        expect
            .apply_update(&TupleUpdate {
                rel: s2,
                tuple: vec![(i as u32) % 8],
                present: i % 2 == 0,
            })
            .unwrap();
    }
    assert_eq!(answers(&rec), answers(&expect));
}

#[test]
fn duplicated_tail_batch_is_skipped_not_reapplied() {
    let (live, plan, snap, wal) = save_and_churn("dup", 4);
    // Duplicate the last batch's bytes wholesale (a storage layer
    // re-appending its buffer): find the last batch by re-appending the
    // tail third of the record stream… simplest faithful simulation:
    // append a copy of everything after the snapshot of batch 3's end.
    let bytes = std::fs::read(&wal).unwrap();
    // The last batch = one update record + one commit record. Scan from
    // the end: records are [len u32][crc u32][payload], so walk from the
    // header summing frames to find the last two frame starts.
    let mut starts = Vec::new();
    let mut pos = 8usize;
    while pos < bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    let last_batch_start = starts[starts.len() - 2];
    let mut dup = bytes.clone();
    dup.extend_from_slice(&bytes[last_batch_start..]);
    std::fs::write(&wal, &dup).unwrap();

    let (rec, report) =
        recover_engine::<F64, SegTreePerm<F64>>(&plan, &snap, &wal).expect("recover");
    assert_eq!(report.batches_committed, 5, "duplicate parses as committed");
    assert_eq!(
        report.batches_skipped, 1,
        "…but is skipped by LSN monotonicity"
    );
    assert_eq!(report.batches_replayed, 4);
    assert_eq!(rec.count(), live.count(), "no double-application");
    assert_eq!(answers(&rec), answers(&live));
    assert_eq!(rec.last_lsn(), live.last_lsn());
}

#[test]
fn version_mismatch_headers_are_clean_errors() {
    let (_live, plan, snap, wal) = save_and_churn("ver", 2);
    // Bump the version word of each artifact in turn.
    for path in [&plan, &snap] {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }
    let mut wal_bytes = std::fs::read(&wal).unwrap();
    wal_bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&wal, &wal_bytes).unwrap();

    match load_engine::<F64, SegTreePerm<F64>>(&plan, &snap) {
        Err(PersistError::VersionMismatch { found, expected }) => {
            assert_eq!(found, FORMAT_VERSION + 7);
            assert_eq!(expected, FORMAT_VERSION);
        }
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("expected VersionMismatch, got a loaded engine"),
    }
    match agq_persist::scan_wal(&wal) {
        Err(PersistError::VersionMismatch { found: 99, .. }) => {}
        Err(other) => panic!("expected WAL VersionMismatch, got {other:?}"),
        Ok(_) => panic!("expected WAL VersionMismatch, got a clean scan"),
    }
}

#[test]
fn wrong_magic_and_swapped_artifacts_are_clean_errors() {
    let (_live, plan, snap, _wal) = save_and_churn("magic", 1);
    // Loading the snapshot as a plan (and vice versa) is a BadMagic.
    match load_engine::<F64, SegTreePerm<F64>>(&snap, &plan) {
        Err(PersistError::BadMagic { .. }) => {}
        Err(other) => panic!("expected BadMagic, got {other:?}"),
        Ok(_) => panic!("expected BadMagic, got a loaded engine"),
    }
}

#[test]
fn corrupted_plan_body_is_checksum_mismatch() {
    let (_live, plan, snap, _wal) = save_and_churn("body", 1);
    let mut bytes = std::fs::read(&plan).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&plan, &bytes).unwrap();
    match load_engine::<F64, SegTreePerm<F64>>(&plan, &snap) {
        Err(PersistError::ChecksumMismatch) => {}
        Err(other) => panic!("expected ChecksumMismatch, got {other:?}"),
        Ok(_) => panic!("expected ChecksumMismatch, got a loaded engine"),
    }
}

#[test]
fn damaged_enumeration_circuit_tag_is_a_typed_error() {
    let (_live, plan, snap, _wal) = save_and_churn("tag", 1);
    let bytes = std::fs::read(&plan).unwrap();
    // A plan body (layout unchanged since version 2) ends `… compile
    // report | enumeration-circuit tag u8 | signature`, and `build()`'s
    // signature is two relations ("E"/2, "S"/1) and no weights: two u64
    // counts plus, per relation, a length-prefixed one-byte name and an
    // arity byte.
    let sig_len = 8 + 2 * (8 + 1 + 1) + 8;
    let tag_at = bytes.len() - 4 - sig_len - 1;
    assert_eq!(
        bytes[tag_at], 0,
        "a one-call engine stores its circuit once"
    );
    // 7 is no tag at all; 1 announces a second circuit that is not there
    // (the decoder then reads the signature bytes as one).
    for bad in [7u8, 1] {
        let mut damaged = bytes.clone();
        damaged[tag_at] = bad;
        // Re-seal the checksum so the damage reaches the body decoder.
        let body_end = damaged.len() - 4;
        let crc = agq_persist::crc32::crc32(&damaged[9..body_end]);
        damaged[body_end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&plan, &damaged).unwrap();
        match load_engine::<F64, SegTreePerm<F64>>(&plan, &snap) {
            Err(PersistError::Corrupt(_)) => {}
            Err(other) => panic!("tag {bad}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("tag {bad}: expected Corrupt, got a loaded engine"),
        }
    }
}

#[test]
fn oversized_perm_rows_are_a_typed_error() {
    let (_live, plan, snap, _wal) = save_and_churn("rows", 1);
    let bytes = std::fs::read(&plan).unwrap();
    // Walk the plan body (layout unchanged since version 2) to the gate
    // list: `dynamic u8 | domain u64 | num_slots u32 | num_lits u32 |
    // output u32 | children u64 + 4 B each | gates u64`, then one tag
    // byte per gate and its fields (`Perm` = tag 6, rows u8, start u32,
    // len u32).
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let children_at = 9 + 1 + 8 + 12;
    let gates_at = children_at + 8 + 4 * u64_at(children_at);
    let mut at = gates_at + 8;
    let mut last_perm = None;
    for _ in 0..u64_at(gates_at) {
        match bytes[at] {
            0 | 3 => at += 5,
            1 | 2 => at += 1,
            4 | 5 => at += 9,
            6 => {
                last_perm = Some(at);
                at += 10;
            }
            t => panic!("unknown gate tag {t}"),
        }
    }
    // Re-shape the last perm gate into a (MAX_ROWS + 1)-row, one-column
    // matrix over the arena entries that end its own column list: those
    // belong to it or to earlier gates, so every other check still
    // passes and only the row bound can refuse the plan.
    let at = last_perm.expect("the plan has a perm gate");
    let rows = agq_perm::MAX_ROWS + 1;
    let end = u32_at(at + 2) + u32_at(at + 6);
    assert!(end >= rows, "arena too short to re-shape");
    let mut damaged = bytes.clone();
    damaged[at + 1] = rows as u8;
    damaged[at + 2..at + 6].copy_from_slice(&((end - rows) as u32).to_le_bytes());
    damaged[at + 6..at + 10].copy_from_slice(&(rows as u32).to_le_bytes());
    // Re-seal the checksum so the damage reaches the body decoder.
    let body_end = damaged.len() - 4;
    let crc = agq_persist::crc32::crc32(&damaged[9..body_end]);
    damaged[body_end..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&plan, &damaged).unwrap();
    match load_engine::<F64, SegTreePerm<F64>>(&plan, &snap) {
        Err(PersistError::Corrupt("perm rows exceed MAX_ROWS")) => {}
        Err(other) => panic!("expected Corrupt(perm rows), got {other:?}"),
        Ok(_) => panic!("expected Corrupt(perm rows), got a loaded engine"),
    }
}

#[test]
fn damaged_perm_column_order_is_a_typed_error() {
    let (live, plan, snap, _wal) = save_and_churn("order", 0);
    let bytes = std::fs::read(&snap).unwrap();
    // A single-engine snapshot body ends with the machine's perm column
    // order, `u64 n | n × u32`, right before the 4-byte trailer.
    let n = live.answer_index().machine().dump_state().perm_order.len();
    assert!(n >= 2, "the circuit has perm columns to damage");
    let body_end = bytes.len() - 4;
    let len_at = body_end - 4 * n - 8;
    assert_eq!(
        u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()),
        n as u64
    );
    let last_at = body_end - 4;
    let prev = bytes[last_at - 4..last_at].to_vec();
    assert_ne!(prev, bytes[last_at..body_end], "columns are distinct");
    // The last column becomes a copy of the one before it (a repeat, or
    // past the width when the last gate has one column), then a column
    // far past every gate's width.
    for bad in [prev, u32::MAX.to_le_bytes().to_vec()] {
        let mut damaged = bytes.clone();
        damaged[last_at..body_end].copy_from_slice(&bad);
        // Re-seal the checksum so the damage reaches the body decoder.
        let crc = agq_persist::crc32::crc32(&damaged[9..body_end]);
        damaged[body_end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&snap, &damaged).unwrap();
        match load_engine::<F64, SegTreePerm<F64>>(&plan, &snap) {
            Err(PersistError::Corrupt(msg)) if msg.starts_with("perm column order") => {}
            Err(other) => panic!("{bad:?}: expected Corrupt(perm column order), got {other:?}"),
            Ok(_) => panic!("{bad:?}: expected Corrupt, got a loaded engine"),
        }
    }
}

#[test]
fn carrier_mismatch_is_a_clean_error() {
    use agq_circuit::RingMaint;
    use agq_semiring::Int;
    let (_live, plan, snap, _wal) = save_and_churn("carrier", 1);
    // The artifacts were written for F64 (tag 4); loading as Int (tag 2)
    // must refuse before touching the body.
    match load_engine::<Int, RingMaint<Int>>(&plan, &snap) {
        Err(PersistError::CarrierMismatch { found, expected }) => {
            assert_eq!(found, 4);
            assert_eq!(expected, 2);
        }
        Err(other) => panic!("expected CarrierMismatch, got {other:?}"),
        Ok(_) => panic!("expected CarrierMismatch, got a loaded engine"),
    }
}

#[test]
fn empty_wal_recovers_to_the_snapshot() {
    let (mut live, plan, snap, wal) = save_and_churn("empty", 0);
    let (rec, report) =
        recover_engine::<F64, SegTreePerm<F64>>(&plan, &snap, &wal).expect("recover");
    assert_eq!(report.batches_committed, 0);
    assert_eq!(report.batches_replayed, 0);
    assert!(!report.torn_tail && !report.corrupt_tail);
    assert_eq!(rec.count(), live.count());
    assert_eq!(answers(&rec), answers(&live));
    // And the recovered engine keeps working: apply a fresh update to
    // both and compare.
    let (_e, s) = {
        let (_, e, s) = build();
        (e, s)
    };
    let mut rec = rec;
    let u = TupleUpdate {
        rel: s,
        tuple: vec![6],
        present: true,
    };
    live.apply_update(&u).unwrap();
    rec.apply_update(&u).unwrap();
    assert_eq!(answers(&rec), answers(&live));
}

/// Every shard holds the same plan `Arc`s, so a quarantined shard must
/// not stand between an operator and the plan file — whichever shard it
/// is — and an engine with no healthy shard left is a typed error, not a
/// panic crossing the API.
#[test]
fn plan_save_reads_any_healthy_shard_and_never_panics() {
    // Two triangles: two Gaifman components, two shards.
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), 6);
    for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    let a = Arc::new(a);
    let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
    for s in 0..2usize {
        let eng: ShardedEngine<F64, SegTreePerm<F64>> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 0).expect("build");
        assert_eq!(eng.num_shards(), 2);
        let (plan, snap, _) = scratch("quarantined-plan");
        save_sharded_plan(&eng, &plan).expect("healthy save");
        let healthy = std::fs::read(&plan).unwrap();

        eng.quarantine_shard(s);
        save_sharded_plan(&eng, &plan).expect("the other shard holds the same plan");
        assert_eq!(std::fs::read(&plan).unwrap(), healthy, "shard {s} down");
        match save_sharded(&eng, &plan, &snap) {
            Err(PersistError::ShardsUnavailable(down)) => assert_eq!(down, [s]),
            other => panic!("snapshot with shard {s} down: {other:?}"),
        }

        eng.quarantine_shard(1 - s);
        for result in [
            save_sharded_plan(&eng, &plan),
            save_sharded(&eng, &plan, &snap).map(|stats| stats.plan_bytes),
        ] {
            match result {
                Err(PersistError::ShardsUnavailable(down)) => assert_eq!(down, [0, 1]),
                other => panic!("no healthy shard left: {other:?}"),
            }
        }
    }
}
