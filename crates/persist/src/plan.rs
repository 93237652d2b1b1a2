//! Plan serialization: the compiled, immutable half of an engine — the
//! one circuit all three valuations run on, its slot registry, literal
//! table and compile report, plus the database signature — written once
//! to a `.agqplan` file so cold start skips Theorem 6 compilation
//! entirely.
//!
//! Only the **canonical flat buffers** are stored, and each once: the
//! circuit's gate and child arenas and the slot-key registry serve the
//! point-query, enumeration and count sides alike. The writer dedups the
//! enumeration side's circuit against the point side's by *structural*
//! equality, so an engine assembled from independently compiled halves
//! also saves one copy; a circuit that really differs is kept, behind a
//! one-byte tag. The derived structures are *pure functions of the
//! circuit*, recomputed linearly at load time: **one adjacency** (the
//! [`agq_circuit::EvalPlan`] — parent and slot tables, cone memos,
//! dense runs — that every valuation walks) and **one enumeration
//! layout** over it (the [`agq_enumerate::EnumPlan`] — add-segment
//! offsets, perm-pool layout). Storing them would buy little and create
//! a second source of truth the update sweeps would have to trust.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::PersistError;
use crate::value::{read_values, write_values, PersistValue};
use agq_circuit::{ChildRange, Circuit, ConstRef, GateDef, GateId};
use agq_core::{CompileReport, CompiledQuery, QueryEngine, SlotKey, SlotRegistry};
use agq_enumerate::{AnswerIndex, EnumPlan};
use agq_logic::Var;
use agq_structure::{RelId, Signature, Tuple, WeightId, MAX_ARITY};
use std::sync::Arc;

/// Everything the `.agqplan` file captures for one bound query.
pub struct PlanBundle<S> {
    /// The compile output: circuit, slot registry, literals, free
    /// variables, report.
    pub compiled: CompiledQuery<S>,
    /// The enumeration circuit — the same `Arc` as `compiled.circuit`
    /// unless the file carried a differing one.
    pub enum_circuit: Arc<Circuit>,
    /// Signature of the compiled structure (update validation).
    pub sig: Signature,
    /// Domain size of the indexed structure.
    pub domain_size: usize,
    /// Whether the engine was built with dynamic-update support.
    pub dynamic: bool,
}

/// A loaded plan with its derived evaluation structures rebuilt and
/// shared behind `Arc`s, ready to instantiate any number of engine
/// shards over: one circuit, one registry and one evaluation plan back
/// the point queries, the enumeration and the count side of every shard.
pub struct LoadedPlan<S> {
    /// The compile output.
    pub compiled: Arc<CompiledQuery<S>>,
    /// Derived adjacency and point-evaluation plan (parent and slot
    /// tables, cones, dense runs).
    pub eval_plan: Arc<agq_circuit::EvalPlan>,
    /// Derived enumeration layout — over `eval_plan` itself, unless the
    /// file carried a differing enumeration circuit (which then gets an
    /// adjacency of its own).
    pub enum_plan: Arc<EnumPlan>,
    /// Signature of the compiled structure.
    pub sig: Arc<Signature>,
    /// Domain size of the indexed structure.
    pub domain_size: usize,
    /// Whether the engine was built with dynamic-update support.
    pub dynamic: bool,
}

impl<S> LoadedPlan<S> {
    /// Rebuild the derived plans from a parsed bundle: the adjacency in
    /// two counting passes over the circuit's edges, the enumeration
    /// layout in one pass over its gates — the cheap step that stands in
    /// for the full Theorem 6 compilation at cold start.
    pub fn from_bundle(bundle: PlanBundle<S>) -> Self {
        let eval_plan = Arc::new(bundle.compiled.eval_plan());
        let enum_plan = if Arc::ptr_eq(&bundle.enum_circuit, &bundle.compiled.circuit) {
            EnumPlan::with_eval_plan(Arc::clone(&eval_plan))
        } else {
            EnumPlan::new(bundle.enum_circuit)
        };
        LoadedPlan {
            compiled: Arc::new(bundle.compiled),
            eval_plan,
            enum_plan: Arc::new(enum_plan),
            sig: Arc::new(bundle.sig),
            domain_size: bundle.domain_size,
            dynamic: bundle.dynamic,
        }
    }
}

// ---------------------------------------------------------------------
// circuits
// ---------------------------------------------------------------------

fn write_circuit(w: &mut ByteWriter, c: &Circuit) {
    w.u32(c.num_slots() as u32);
    w.u32(c.num_lits() as u32);
    w.u32(c.output().0);
    w.len_prefix(c.child_arena().len());
    for g in c.child_arena() {
        w.u32(g.0);
    }
    w.len_prefix(c.gates().len());
    for g in c.gates() {
        match *g {
            GateDef::Input(slot) => {
                w.u8(0);
                w.u32(slot);
            }
            GateDef::Const(ConstRef::Zero) => w.u8(1),
            GateDef::Const(ConstRef::One) => w.u8(2),
            GateDef::Const(ConstRef::Lit(i)) => {
                w.u8(3);
                w.u32(i);
            }
            GateDef::Add(r) => {
                w.u8(4);
                w.u32(r.start());
                w.u32(r.len() as u32);
            }
            GateDef::Mul(a, b) => {
                w.u8(5);
                w.u32(a.0);
                w.u32(b.0);
            }
            GateDef::Perm { rows, cols } => {
                w.u8(6);
                w.u8(rows);
                w.u32(cols.start());
                w.u32(cols.len() as u32);
            }
        }
    }
}

fn read_circuit(r: &mut ByteReader) -> Result<Circuit, PersistError> {
    let num_slots = r.u32()?;
    let num_lits = r.u32()?;
    let output = GateId(r.u32()?);
    let n_children = r.len_prefix(4)?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        children.push(GateId(r.u32()?));
    }
    let n_gates = r.len_prefix(1)?;
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        gates.push(match r.u8()? {
            0 => GateDef::Input(r.u32()?),
            1 => GateDef::Const(ConstRef::Zero),
            2 => GateDef::Const(ConstRef::One),
            3 => GateDef::Const(ConstRef::Lit(r.u32()?)),
            4 => GateDef::Add(ChildRange::new(r.u32()?, r.u32()?)),
            5 => GateDef::Mul(GateId(r.u32()?), GateId(r.u32()?)),
            6 => {
                let rows = r.u8()?;
                GateDef::Perm {
                    rows,
                    cols: ChildRange::new(r.u32()?, r.u32()?),
                }
            }
            _ => return Err(PersistError::Corrupt("unknown gate tag")),
        });
    }
    Circuit::from_raw_parts(gates, children, num_slots, num_lits, output)
        .map_err(PersistError::Corrupt)
}

// ---------------------------------------------------------------------
// slot registries
// ---------------------------------------------------------------------

fn write_tuple(w: &mut ByteWriter, t: &Tuple) {
    let items = t.as_slice();
    w.u8(items.len() as u8);
    for &e in items {
        w.u32(e);
    }
}

fn read_tuple(r: &mut ByteReader) -> Result<Tuple, PersistError> {
    let len = r.u8()? as usize;
    if len > MAX_ARITY {
        return Err(PersistError::Corrupt("tuple arity exceeds MAX_ARITY"));
    }
    let mut items = [0u32; MAX_ARITY];
    for item in items.iter_mut().take(len) {
        *item = r.u32()?;
    }
    Ok(Tuple::new(&items[..len]))
}

fn write_slots(w: &mut ByteWriter, slots: &SlotRegistry) {
    w.len_prefix(slots.len());
    for (_, key) in slots.iter() {
        match key {
            SlotKey::Weight(wid, t) => {
                w.u8(0);
                w.u32(wid.0);
                write_tuple(w, &t);
            }
            SlotKey::FreeVar(pos, e) => {
                w.u8(1);
                w.u8(pos);
                w.u32(e);
            }
            SlotKey::AtomPos(rid, t) => {
                w.u8(2);
                w.u32(rid.0);
                write_tuple(w, &t);
            }
            SlotKey::AtomNeg(rid, t) => {
                w.u8(3);
                w.u32(rid.0);
                write_tuple(w, &t);
            }
        }
    }
}

fn read_slots(r: &mut ByteReader) -> Result<SlotRegistry, PersistError> {
    let n = r.len_prefix(2)?;
    let mut slots = SlotRegistry::new();
    for i in 0..n {
        let key = match r.u8()? {
            0 => SlotKey::Weight(WeightId(r.u32()?), read_tuple(r)?),
            1 => SlotKey::FreeVar(r.u8()?, r.u32()?),
            2 => SlotKey::AtomPos(RelId(r.u32()?), read_tuple(r)?),
            3 => SlotKey::AtomNeg(RelId(r.u32()?), read_tuple(r)?),
            _ => return Err(PersistError::Corrupt("unknown slot-key tag")),
        };
        // Re-interning in slot order reproduces the registry exactly; a
        // duplicate key means the file was not written by us.
        if slots.intern(key) != i as u32 {
            return Err(PersistError::Corrupt("duplicate slot key"));
        }
    }
    Ok(slots)
}

// ---------------------------------------------------------------------
// signature + report
// ---------------------------------------------------------------------

fn write_signature(w: &mut ByteWriter, sig: &Signature) {
    w.len_prefix(sig.num_relations());
    for r in sig.relation_ids() {
        w.str(sig.relation_name(r));
        w.u8(sig.relation_arity(r) as u8);
    }
    w.len_prefix(sig.num_weights());
    for wid in sig.weight_ids() {
        w.str(sig.weight_name(wid));
        w.u8(sig.weight_arity(wid) as u8);
    }
}

fn read_signature(r: &mut ByteReader) -> Result<Signature, PersistError> {
    let mut sig = Signature::new();
    let n_rel = r.len_prefix(2)?;
    for _ in 0..n_rel {
        let name = r.str()?;
        let arity = r.u8()? as usize;
        sig.add_relation(&name, arity);
    }
    let n_w = r.len_prefix(2)?;
    for _ in 0..n_w {
        let name = r.str()?;
        let arity = r.u8()? as usize;
        sig.add_weight(&name, arity);
    }
    Ok(sig)
}

fn write_report(w: &mut ByteWriter, rep: &CompileReport) {
    w.u32(rep.num_colors);
    w.u64(rep.num_subsets as u64);
    w.u64(rep.shapes_instantiated as u64);
    w.u32(rep.max_forest_depth);
    let s = &rep.stats;
    for v in [
        s.num_gates,
        s.num_edges,
        s.depth,
        s.max_fanout,
        s.max_add_fanin,
        s.max_perm_rows,
        s.max_perm_cols,
    ] {
        w.u64(v as u64);
    }
}

fn read_report(r: &mut ByteReader) -> Result<CompileReport, PersistError> {
    let num_colors = r.u32()?;
    let num_subsets = r.u64()? as usize;
    let shapes_instantiated = r.u64()? as usize;
    let max_forest_depth = r.u32()?;
    let mut vals = [0usize; 7];
    for v in vals.iter_mut() {
        *v = r.u64()? as usize;
    }
    Ok(CompileReport {
        num_colors,
        num_subsets,
        shapes_instantiated,
        max_forest_depth,
        stats: agq_circuit::CircuitStats {
            num_gates: vals[0],
            num_edges: vals[1],
            depth: vals[2],
            max_fanout: vals[3],
            max_add_fanin: vals[4],
            max_perm_rows: vals[5],
            max_perm_cols: vals[6],
        },
    })
}

// ---------------------------------------------------------------------
// the bundle
// ---------------------------------------------------------------------

/// What `write_bundle` needs from a live engine, borrowed — saving
/// never clones the (large) compiled artifacts.
pub struct PlanRefs<'a, S> {
    /// The compile output (circuit, registry, literals, report).
    pub compiled: &'a CompiledQuery<S>,
    /// The enumeration side's circuit (normally the very same one).
    pub enum_circuit: &'a Circuit,
    /// Signature of the compiled structure.
    pub sig: &'a Signature,
    /// Domain size of the indexed structure.
    pub domain_size: usize,
    /// Whether the engine was built with dynamic-update support.
    pub dynamic: bool,
}

impl<'a, S> PlanRefs<'a, S> {
    /// Borrow the plan of one `(point, enumeration)` pair of valuations.
    /// The engines guarantee the two halves number their slots alike, so
    /// the point side's registry speaks for both.
    pub fn of<P: agq_circuit::PermMaint<S>>(
        engine: &'a QueryEngine<S, P>,
        index: &'a AnswerIndex,
    ) -> Self
    where
        S: agq_semiring::Semiring,
    {
        PlanRefs {
            compiled: engine.compiled(),
            enum_circuit: index.machine().circuit(),
            sig: index.signature(),
            domain_size: index.domain_size(),
            dynamic: index.is_dynamic(),
        }
    }
}

/// Enumeration-circuit tag: the point circuit serves enumeration too.
const ENUM_SHARED: u8 = 0;
/// Enumeration-circuit tag: a differing circuit follows.
const ENUM_OWN: u8 = 1;

/// Serialize a plan bundle into the body bytes of a `.agqplan` file
/// (header and checksum trailer are added by the file layer in
/// `engine_io`).
pub fn write_bundle<S: PersistValue>(refs: &PlanRefs<'_, S>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(refs.dynamic as u8);
    w.u64(refs.domain_size as u64);
    write_circuit(&mut w, &refs.compiled.circuit);
    write_slots(&mut w, &refs.compiled.slots);
    write_values(&mut w, &refs.compiled.lits);
    w.len_prefix(refs.compiled.free_vars.len());
    for v in &refs.compiled.free_vars {
        w.u32(v.0);
    }
    write_report(&mut w, &refs.compiled.report);
    // Structural dedup: halves compiled independently hold equal
    // circuits behind different `Arc`s.
    let point: &Circuit = &refs.compiled.circuit;
    if std::ptr::eq(point, refs.enum_circuit) || point == refs.enum_circuit {
        w.u8(ENUM_SHARED);
    } else {
        w.u8(ENUM_OWN);
        write_circuit(&mut w, refs.enum_circuit);
    }
    write_signature(&mut w, refs.sig);
    w.into_bytes()
}

/// Parse a plan bundle back out of `.agqplan` body bytes. Structural
/// invariants (circuit topology, slot/registry consistency) are
/// re-validated; a corrupt body is an `Err`, never a panic.
pub fn read_bundle<S: PersistValue>(body: &[u8]) -> Result<PlanBundle<S>, PersistError> {
    let mut r = ByteReader::new(body);
    let dynamic = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(PersistError::Corrupt("dynamic flag is neither 0 nor 1")),
    };
    let domain_size = r.u64()? as usize;
    let circuit = Arc::new(read_circuit(&mut r)?);
    let slots = read_slots(&mut r)?;
    if slots.len() != circuit.num_slots() {
        return Err(PersistError::Corrupt(
            "slot registry disagrees with circuit",
        ));
    }
    let lits: Vec<S> = read_values(&mut r)?;
    if lits.len() != circuit.num_lits() {
        return Err(PersistError::Corrupt(
            "literal table disagrees with circuit",
        ));
    }
    let n_free = r.len_prefix(4)?;
    let mut free_vars = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free_vars.push(Var(r.u32()?));
    }
    let report = read_report(&mut r)?;
    let enum_circuit = match r.u8()? {
        ENUM_SHARED => Arc::clone(&circuit),
        ENUM_OWN => Arc::new(read_circuit(&mut r)?),
        _ => return Err(PersistError::Corrupt("unknown enumeration-circuit tag")),
    };
    if enum_circuit.num_lits() != 0 {
        return Err(PersistError::Corrupt("enumeration circuit has literals"));
    }
    if enum_circuit.num_slots() != slots.len() {
        return Err(PersistError::Corrupt(
            "slot registry disagrees with enumeration circuit",
        ));
    }
    let sig = read_signature(&mut r)?;
    if !r.is_exhausted() {
        return Err(PersistError::Corrupt("trailing bytes after plan bundle"));
    }
    Ok(PlanBundle {
        compiled: CompiledQuery {
            circuit,
            slots: Arc::new(slots),
            lits,
            free_vars,
            report,
        },
        enum_circuit,
        sig,
        domain_size,
        dynamic,
    })
}
