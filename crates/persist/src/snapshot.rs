//! State snapshots: the **mutable** half of an engine — committed gate
//! values, slot inputs, and the enumeration machine's input summand
//! lists plus its permanent-bucket column order — captured per shard at
//! a point-in-time LSN. Everything else the machine holds (supports,
//! add-gate live bits, column masks, bucket counts) is a function of the
//! input lists and is recomputed on load, never decoded.
//!
//! A snapshot is only meaningful against the plan it was taken under
//! (same circuits, same slot registries); the file layer stamps both
//! artifacts with the carrier tag, and the load path re-validates every
//! length against the plan before reconstructing evaluators.
//!
//! For a [`ShardedEngine`](agq_enumerate::ShardedEngine) the dump also
//! carries the Gaifman component decomposition (element → component →
//! shard tables), so the restored engine routes identically — a
//! snapshot taken on one box restores onto another with the same shard
//! assignment.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::PersistError;
use crate::value::{read_values, write_values, PersistValue};
use agq_enumerate::{InputVal, MachineStateDump, ShardStateDump};
use agq_semiring::Gen;
use agq_structure::gaifman::GaifmanComponents;

/// Snapshot body: single-engine (`kind` 0) or sharded (`kind` 1).
pub struct SnapshotBundle<S> {
    /// LSN the states are current through.
    pub last_lsn: u64,
    /// Sharding metadata — `None` for a single-engine snapshot.
    pub sharding: Option<ShardingMeta>,
    /// One state dump per shard (exactly one when unsharded).
    pub shards: Vec<ShardStateDump<S>>,
}

/// The routing tables of a sharded engine.
pub struct ShardingMeta {
    /// The component decomposition (element → component → shard).
    pub components: GaifmanComponents,
    /// Whether φ passed the component-locality check.
    pub component_local: bool,
}

fn write_input_val(w: &mut ByteWriter, iv: &InputVal) {
    w.len_prefix(iv.len());
    for gens in iv {
        w.len_prefix(gens.len());
        for g in gens {
            w.u64(g.0);
        }
    }
}

fn read_input_val(r: &mut ByteReader) -> Result<InputVal, PersistError> {
    let n = r.len_prefix(8)?;
    let mut iv = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len_prefix(8)?;
        let mut gens = Vec::with_capacity(m);
        for _ in 0..m {
            gens.push(Gen(r.u64()?));
        }
        iv.push(gens);
    }
    Ok(iv)
}

fn write_machine(w: &mut ByteWriter, m: &MachineStateDump) {
    w.len_prefix(m.input_vals.len());
    for iv in &m.input_vals {
        write_input_val(w, iv);
    }
    w.len_prefix(m.perm_order.len());
    for &col in &m.perm_order {
        w.u32(col);
    }
}

fn read_machine(r: &mut ByteReader) -> Result<MachineStateDump, PersistError> {
    let n = r.len_prefix(8)?;
    let mut input_vals = Vec::with_capacity(n);
    for _ in 0..n {
        input_vals.push(read_input_val(r)?);
    }
    let n = r.len_prefix(4)?;
    let mut perm_order = Vec::with_capacity(n);
    for _ in 0..n {
        perm_order.push(r.u32()?);
    }
    Ok(MachineStateDump {
        input_vals,
        perm_order,
    })
}

fn write_shard<S: PersistValue>(w: &mut ByteWriter, dump: &ShardStateDump<S>) {
    write_values(w, &dump.slot_values);
    write_values(w, &dump.gate_values);
    write_machine(w, &dump.machine);
}

fn read_shard<S: PersistValue>(r: &mut ByteReader) -> Result<ShardStateDump<S>, PersistError> {
    let slot_values = read_values(r)?;
    let gate_values = read_values(r)?;
    let machine = read_machine(r)?;
    Ok(ShardStateDump {
        slot_values,
        gate_values,
        machine,
    })
}

/// Serialize a snapshot bundle into `.agqsnap` body bytes (header and
/// checksum trailer are added by the file layer in `engine_io`).
pub fn write_snapshot<S: PersistValue>(bundle: &SnapshotBundle<S>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(bundle.last_lsn);
    match &bundle.sharding {
        None => w.u8(0),
        Some(meta) => {
            w.u8(1);
            w.u8(meta.component_local as u8);
            let (comp, comp_shard) = meta.components.parts();
            w.u64(meta.components.num_shards() as u64);
            w.len_prefix(comp.len());
            for &c in comp {
                w.u32(c);
            }
            w.len_prefix(comp_shard.len());
            for &s in comp_shard {
                w.u32(s);
            }
        }
    }
    w.len_prefix(bundle.shards.len());
    for dump in &bundle.shards {
        write_shard(&mut w, dump);
    }
    w.into_bytes()
}

/// Parse a snapshot bundle back out of `.agqsnap` body bytes.
pub fn read_snapshot<S: PersistValue>(body: &[u8]) -> Result<SnapshotBundle<S>, PersistError> {
    let mut r = ByteReader::new(body);
    let last_lsn = r.u64()?;
    let sharding = match r.u8()? {
        0 => None,
        1 => {
            let component_local = match r.u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(PersistError::Corrupt(
                        "component-local flag is neither 0 nor 1",
                    ))
                }
            };
            let num_shards = r.u64()? as usize;
            let n_comp = r.len_prefix(4)?;
            let mut comp = Vec::with_capacity(n_comp);
            for _ in 0..n_comp {
                comp.push(r.u32()?);
            }
            let n_cs = r.len_prefix(4)?;
            let mut comp_shard = Vec::with_capacity(n_cs);
            for _ in 0..n_cs {
                comp_shard.push(r.u32()?);
            }
            let components = GaifmanComponents::from_parts(comp, comp_shard, num_shards)
                .map_err(PersistError::Corrupt)?;
            Some(ShardingMeta {
                components,
                component_local,
            })
        }
        _ => return Err(PersistError::Corrupt("unknown snapshot kind")),
    };
    let n_shards = r.len_prefix(8)?;
    if let Some(meta) = &sharding {
        if n_shards != meta.components.num_shards() {
            return Err(PersistError::Corrupt(
                "shard count disagrees with the component decomposition",
            ));
        }
    } else if n_shards != 1 {
        return Err(PersistError::Corrupt(
            "single-engine snapshot must hold exactly one state",
        ));
    }
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        shards.push(read_shard(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(PersistError::Corrupt("trailing bytes after snapshot"));
    }
    Ok(SnapshotBundle {
        last_lsn,
        sharding,
        shards,
    })
}
