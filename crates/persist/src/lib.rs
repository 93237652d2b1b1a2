//! # `agq-persist` — plan/state serialization, snapshots, and a WAL
//!
//! Crash-safe persistence for the aggregate-query engines: the compiled
//! plan and the mutable evaluator state are written to disk, updates
//! are journaled through a checksummed write-ahead log, and a restart
//! reassembles an engine that answers **byte-identically** to the one
//! that went down — without re-running the Theorem 6 compilation.
//!
//! Three artifact kinds:
//!
//! * **`.agqplan`** — the immutable half: the **one** circuit the
//!   point-query, enumeration and count sides all valuate, with its slot
//!   registry, literal table, free variables, and compile report, plus
//!   the database signature, the domain size, and the dynamic flag.
//!   Written once per compiled query; loading one skips compilation
//!   entirely (the derived [`agq_circuit::EvalPlan`] adjacency and the
//!   [`agq_enumerate::EnumPlan`] layout over it are rebuilt linearly,
//!   since they are pure functions of the circuit) and hands every
//!   shard the same `Arc`s.
//! * **`.agqsnap`** — the mutable half: per shard, the evaluator's slot
//!   values and committed gate values and the enumeration machine's
//!   input summand lists and permanent-bucket column order, captured at
//!   one LSN. Sharded snapshots are
//!   taken under the engine's ordered whole-lockset read guard, so they
//!   are point-in-time consistent across shards, and additionally carry
//!   the Gaifman component → shard routing tables.
//! * **`wal.agqlog`** — the write-ahead log: committed update batches,
//!   one CRC per record, replayed at recovery to roll a snapshot
//!   forward to the crash point.
//!
//! # File format
//!
//! All integers are **little-endian**, fixed width; lengths are `u64`;
//! there is no alignment padding. Plan and snapshot files share one
//! framing:
//!
//! ```text
//! offset  size  field
//! 0       4     magic           — "AGQP" (plan) / "AGQS" (snapshot)
//! 4       4     version u32     — FORMAT_VERSION (currently 3)
//! 8       1     carrier tag u8  — PersistValue::TAG of the semiring
//! 9       n     body            — bundle payload (plan.rs / snapshot.rs)
//! 9+n     4     crc u32         — CRC-32 (IEEE) of the body bytes
//! ```
//!
//! The plan body, in order (`plan.rs`; unchanged since version 2):
//!
//! ```text
//! dynamic u8 · domain size u64
//! circuit         slots u32, lits u32, output u32, child arena (u64 n,
//!                 n × u32), gates (u64 n, n × tagged gate)
//! slot registry   u64 n, n × tagged key — `FreeVar(i, a)` is both the
//!                 point query's v_i(a) and the enumeration's e^i_a
//! literal table   u64 n, n × carrier value
//! free variables  u64 n, n × u32 (their count is the arity)
//! compile report  u32, 2 × u64, u32, 7 × u64
//! dedup tag u8    0: the circuit above serves enumeration too (the
//!                 writer compares structurally, so independently
//!                 compiled halves land here as well);
//!                 1: a differing enumeration circuit follows
//! signature       relations, then weights: u64 n, n × (string, u8)
//! ```
//!
//! The version-3 snapshot body, in order (`snapshot.rs`):
//!
//! ```text
//! last LSN u64
//! kind u8         0: single engine; 1: sharded, followed by the
//!                 component-local flag u8, the shard count u64, and the
//!                 element → component and component → shard tables
//!                 (u64 n, n × u32 each)
//! shards          u64 n (1 when single), then per shard:
//!   slot values   u64 n, n × carrier value
//!   gate values   u64 n, n × carrier value
//!   input lists   u64 n slots, per slot u64 m summands, per summand
//!                 u64 g generators, g × u64
//!   perm order    u64 n, n × u32 — every permanent gate's local columns
//!                 in bucket order, gates in gate order
//! ```
//!
//! Version 1 stored the circuit and the registry once per side. Version
//! 2 snapshots also stored the machine's support bits, add-gate live
//! prefixes and permanent bucket links. Files of either version are
//! refused, not migrated — recompile and save again.
//!
//! A wrong magic, an unknown version, a foreign carrier tag, and a
//! trailer mismatch each map to their own [`PersistError`] variant; a
//! structurally invalid body is [`PersistError::Corrupt`]. Loading
//! never panics on bad bytes — every length is validated against the
//! buffer before allocation, every index against its range.
//!
//! The WAL has its own header (`"AGQW"` + version `u32`) and is a
//! record stream, not a checksummed monolith, so an arbitrarily damaged
//! *tail* still yields the full committed prefix — see [`wal`] for the
//! record framing and tail-repair rules.
//!
//! # Versioning
//!
//! The version word covers the **whole body layout**: any change to
//! field order, widths, or semantics bumps it, and loaders reject files
//! from other versions outright ([`PersistError::VersionMismatch`])
//! rather than guessing. Carriers version independently through their
//! tag byte. Values round-trip bit-exactly (`f64` through
//! `to_bits`/`from_bits`), which is what makes the differential
//! round-trip suite's byte-identity assertions meaningful.
//!
//! # LSN semantics
//!
//! Every successfully journaled update batch bumps the owning engine's
//! **log sequence number**, whether or not a WAL sink is attached, so
//! snapshots are always sequenced. A snapshot records the LSN it is
//! current through; a WAL commit marker records the LSN of its batch.
//! The engines journal **write-ahead**: the batch is appended under
//! the same locks that order the apply, *before* the in-memory apply,
//! and the LSN advances only if the append succeeds (or the engine's
//! `DurabilityPolicy` is fail-open, which flags `wal_degraded`
//! instead). A failed fail-stop append rejects the batch with nothing
//! applied and the LSN unmoved — no gap, no divergence. The log may
//! therefore briefly contain a batch the engine had not finished
//! applying (a crash in that window is healed by replay, which is
//! idempotent from the snapshot LSN); it never *misses* a batch the
//! engine applied. Recovery replays exactly the committed batches with
//! `snapshot LSN < batch LSN`, skips non-monotonic duplicates,
//! discards torn or corrupt tails, and reports all of it in a
//! [`RecoveryReport`]. The same machinery restores a single
//! quarantined shard in place ([`restore_quarantined_shard`]): its
//! snapshot partition is reloaded and the WAL's shard-owned
//! subsequences are replayed through the batched apply path, so the
//! restored shard is byte-identical to one that never faulted.

pub mod codec;
pub mod crc32;
pub mod engine_io;
pub mod error;
pub mod plan;
pub mod snapshot;
pub mod value;
pub mod wal;

pub use engine_io::{
    attach_file_wal, attach_sharded_file_wal, load_engine, load_plan, load_sharded, recover_engine,
    recover_sharded, restore_quarantined_shard, save_engine, save_plan, save_sharded,
    save_sharded_plan, save_sharded_snapshot, save_snapshot, SaveStats, FORMAT_VERSION, PLAN_MAGIC,
    SNAP_MAGIC,
};
pub use error::{PersistError, RecoveryReport};
pub use plan::LoadedPlan;
pub use value::PersistValue;
pub use wal::{scan_wal, FileWal, WalBatch, WalScan, WAL_MAGIC, WAL_VERSION};
