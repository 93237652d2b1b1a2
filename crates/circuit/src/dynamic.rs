//! Dynamic circuit evaluation under input updates (Theorem 8's engine).
//!
//! # Batched updates and coalesced dirty propagation
//!
//! [`DynEvaluator::set_inputs`] absorbs a whole batch of slot overwrites
//! with **one** dirty-propagation sweep. "Dirty" across a batch means: a
//! gate is queued the moment any child's committed value changes, and is
//! recomputed exactly once, after every child it can see has settled.
//! The single sweep is sound because the queue is a [`DirtyQueue`] —
//! ascending gate ids, each at most once — and children always precede
//! parents in the gate arena: popping in ascending id order is a
//! topological schedule no matter how many slots seeded the queue, so
//! interleaving the cones of all batched updates cannot reorder a parent
//! before a child. Gates shared by several update cones (the wide
//! aggregation gates near the root) are therefore recomputed once per
//! batch instead of once per update, which is where the batch
//! throughput win comes from.
//!
//! Permanent-entry changes are coalesced the same way: child-value
//! changes destined for a permanent gate are buffered per sweep (chained
//! per permanent gate, so a flush walks only its own patches) and
//! flushed through [`PermMaint::update_batch`] when that gate pops, so a
//! segment-tree backend repairs the union of the touched root paths once
//! ([`agq_perm::SegTreePerm::update_batch`]) rather than per entry.
//!
//! The single-update path ([`DynEvaluator::set_input`]) is the batch
//! path at size one — there is no separate cascade to diverge from.
//! Within a batch, later entries for the same slot win, and entries that
//! net out to the current committed value are dropped before any gate is
//! touched.

use crate::csr::{Csr, CsrBuilder};
use crate::dirty::DirtyQueue;
use crate::eval::{sum_add, sum_children, MIN_RUN};
use crate::{Circuit, GateDef, GateId};
use agq_perm::{ColMatrix, FinitePerm, RingPerm, SegTreePerm};
use agq_semiring::{FiniteSemiring, Ring, Semiring};
use std::sync::Arc;

/// A maintenance structure for one permanent gate: how updates to matrix
/// entries are absorbed and the permanent re-read.
///
/// The three implementations are exactly the paper's case split:
///
/// | semiring  | structure                  | update cost      | ref |
/// |-----------|----------------------------|------------------|-----|
/// | arbitrary | [`SegTreePerm`]            | `O(3^k log n)`   | Cor. 13 (tight, Prop. 14) |
/// | ring      | [`RingPerm`]               | `O_k(1)`         | Cor. 17 |
/// | finite    | [`FinitePerm`]             | `O_{k,|S|}(1)`   | Cor. 20 |
pub trait PermMaint<S: Semiring> {
    /// Build from the initial matrix.
    fn build(m: ColMatrix<S>) -> Self;
    /// Overwrite one entry.
    fn update(&mut self, row: usize, col: usize, value: S);
    /// Overwrite several entries at once. Implementations may repair
    /// shared internal structure once for the whole batch; the default
    /// applies the patches one by one. Later patches to the same entry
    /// win.
    fn update_batch(&mut self, patches: &[(usize, usize, S)]) {
        for (row, col, v) in patches {
            self.update(*row, *col, v.clone());
        }
    }
    /// Current permanent. Reads are free: implementations cache the value
    /// across updates.
    fn total(&self) -> &S;
    /// The permanent with some entries replaced, computed **without
    /// mutating** the structure (the zero-restore query path). Later
    /// patches to the same entry win.
    fn peek(&self, patches: &[(usize, usize, S)]) -> S;
}

impl<S: Semiring> PermMaint<S> for SegTreePerm<S> {
    fn build(m: ColMatrix<S>) -> Self {
        SegTreePerm::build(m)
    }
    fn update(&mut self, row: usize, col: usize, value: S) {
        SegTreePerm::update(self, row, col, value);
    }
    fn update_batch(&mut self, patches: &[(usize, usize, S)]) {
        SegTreePerm::update_batch(self, patches);
    }
    fn total(&self) -> &S {
        SegTreePerm::total(self)
    }
    fn peek(&self, patches: &[(usize, usize, S)]) -> S {
        SegTreePerm::peek(self, patches)
    }
}

/// Ring-backed permanent maintenance (constant-time updates). The total
/// is cached so reads return a reference.
pub struct RingMaint<S: Ring> {
    perm: RingPerm<S>,
    total: S,
}

impl<S: Ring> PermMaint<S> for RingMaint<S> {
    fn build(m: ColMatrix<S>) -> Self {
        let perm = RingPerm::build(m);
        let total = perm.total();
        RingMaint { perm, total }
    }
    fn update(&mut self, row: usize, col: usize, value: S) {
        self.perm.update(row, col, value);
        self.total = self.perm.total();
    }
    fn update_batch(&mut self, patches: &[(usize, usize, S)]) {
        for (row, col, v) in patches {
            self.perm.update(*row, *col, v.clone());
        }
        self.total = self.perm.total();
    }
    fn total(&self) -> &S {
        &self.total
    }
    fn peek(&self, patches: &[(usize, usize, S)]) -> S {
        self.perm.peek(patches)
    }
}

/// Finite-semiring permanent maintenance (constant-time updates). The
/// total is cached so reads return a reference.
pub struct FiniteMaint<S: FiniteSemiring> {
    perm: FinitePerm<S>,
    total: S,
}

impl<S: FiniteSemiring> PermMaint<S> for FiniteMaint<S> {
    fn build(m: ColMatrix<S>) -> Self {
        let perm = FinitePerm::build(m);
        let total = perm.total();
        FiniteMaint { perm, total }
    }
    fn update(&mut self, row: usize, col: usize, value: S) {
        self.perm.update(row, col, value);
        self.total = self.perm.total();
    }
    fn update_batch(&mut self, patches: &[(usize, usize, S)]) {
        for (row, col, v) in patches {
            self.perm.update(*row, *col, v.clone());
        }
        self.total = self.perm.total();
    }
    fn total(&self) -> &S {
        &self.total
    }
    fn peek(&self, patches: &[(usize, usize, S)]) -> S {
        self.perm.peek(patches)
    }
}

/// One entry of a gate's parent list ([`EvalPlan::parents`]): which gate
/// reads it, and where. A gate read twice by one parent has two entries.
/// 12 bytes (the `Perm` variant sets the size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParentRef {
    /// Child number `child_pos` of addition gate `gate`.
    Add {
        /// The addition gate.
        gate: u32,
        /// Position in its child list.
        child_pos: u32,
    },
    /// An operand of multiplication gate `.0`.
    Mul(u32),
    /// Entry `(row, col)` of permanent gate `gate`'s matrix.
    Perm {
        /// The permanent gate.
        gate: u32,
        /// Matrix row.
        row: u8,
        /// Matrix column.
        col: u32,
    },
}

impl ParentRef {
    /// The parent gate's id.
    #[inline]
    pub fn gate(self) -> u32 {
        let (ParentRef::Add { gate, .. } | ParentRef::Mul(gate) | ParentRef::Perm { gate, .. }) =
            self;
        gate
    }
}

// Adjacency costs one `ParentRef` per circuit edge.
const _: () = assert!(std::mem::size_of::<ParentRef>() == 12);

/// Sentinel for "gate is not a permanent" in the dense perm index.
const NO_PERM: u32 = u32::MAX;

/// Visit every maximal contiguous ascending child-id run of every add
/// gate: `f(gate index, first child id, run length)`, runs in child-list
/// order. Shared by the two CSR passes of the dense-run analysis.
fn for_each_add_run(circuit: &Circuit, mut f: impl FnMut(usize, u32, u32)) {
    for (i, g) in circuit.gates().iter().enumerate() {
        let GateDef::Add(r) = g else { continue };
        let kids = circuit.children(*r);
        let mut j = 0;
        while j < kids.len() {
            let lo = kids[j].0;
            let mut len = 1u32;
            while j + (len as usize) < kids.len() && kids[j + len as usize].0 == lo + len {
                len += 1;
            }
            f(i, lo, len);
            j += len as usize;
        }
    }
}

/// Append to `cone` every gate reachable upward through `parents` from
/// the `seeds`, ascending, each once: the gates a point query patching
/// the seeds must re-evaluate. Ids are topological, so draining a
/// [`DirtyQueue`] that is fed each popped gate's parents yields the cone
/// already sorted and deduplicated. The one cone walk:
/// [`EvalPlan::with_cones`] memoizes it, [`DynEvaluator::peek_memo`] runs
/// it on demand for the slots the plan left out.
fn walk_cone(parents: &Csr<ParentRef>, seeds: &[u32], queue: &mut DirtyQueue, cone: &mut Vec<u32>) {
    for &g in seeds {
        queue.push(g);
    }
    while let Some(g) = queue.pop() {
        cone.push(g);
        for p in parents.row(g as usize) {
            queue.push(p.gate());
        }
    }
}

/// The immutable half of dynamic evaluation: everything derived from the
/// circuit topology alone — parent references, per-slot input-gate lists,
/// the dense perm-gate numbering, dense-run tables, and (optionally)
/// memoized per-slot peek cones. An `EvalPlan` carries **no values** and
/// is `Send + Sync`, so one `Arc<EvalPlan>` can back any number of
/// [`DynEvaluator`] states — the shard states of a sharded engine, the
/// workers of a batch — without re-deriving the adjacency.
///
/// It is the **only** holder of circuit adjacency: the topology is
/// semiring-independent, so the free-semiring machine of `agq-enumerate`
/// walks these same tables ([`parents`](Self::parents),
/// [`slot_gates`](Self::slot_gates), [`perm_index`](Self::perm_index),
/// [`add_runs`](Self::add_runs)) instead of deriving its own.
pub struct EvalPlan {
    circuit: Arc<Circuit>,
    /// Parents of each gate.
    parents: Csr<ParentRef>,
    /// Gate id → dense perm index (`NO_PERM` for non-perm gates).
    perm_index: Vec<u32>,
    num_perms: usize,
    /// Input gates of each slot.
    slot_gates: Csr<u32>,
    /// Memoized peek cones: for a memoized slot, the ascending (hence
    /// topologically sorted) gate ids of every gate reachable upward from
    /// the slot's input gates. An empty row means "not memoized" or "no
    /// gate reads the slot"; [`DynEvaluator::peek_memo`] walks either on
    /// demand, and the walk of an unread slot is empty.
    cones: Csr<u32>,
    /// Dense-run analysis: for each add gate, the maximal contiguous
    /// ascending runs `(first child id, length)` of its child segment, in
    /// child-list order (non-add gates have empty rows). Runs partition
    /// the child list, so the evaluators can decompose a sum per run —
    /// see the kernel contract in `eval.rs`.
    add_runs: Csr<(u32, u32)>,
}

/// Summary of the plan's dense-run analysis ([`EvalPlan::dense_run_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DenseRunStats {
    /// Number of add gates.
    pub add_gates: usize,
    /// Add gates whose whole child segment is one contiguous run.
    pub full_run_gates: usize,
    /// Total add-gate child mass (Σ fan-in).
    pub total_children: usize,
    /// Children lying in runs long enough for the bulk tier (≥ `MIN_RUN`).
    pub dense_children: usize,
}

impl DenseRunStats {
    /// Fraction of add-gate child mass the bulk tier can sweep as slices.
    pub fn coverage(&self) -> f64 {
        if self.total_children == 0 {
            return 1.0;
        }
        self.dense_children as f64 / self.total_children as f64
    }
}

impl EvalPlan {
    /// Derive the plan of `circuit` (no cone memoization).
    pub fn new(circuit: Arc<Circuit>) -> Self {
        Self::with_cones(circuit, &[])
    }

    /// Derive the plan and memoize the peek cones of `cone_slots`.
    ///
    /// A slot's cone is static topology: for query-bounded slots (the
    /// `v_i` free-variable indicators of Theorem 8) it has constant size,
    /// and memoizing it saves [`DynEvaluator::peek_memo`] the walk that
    /// finds the cone on every query.
    pub fn with_cones(circuit: Arc<Circuit>, cone_slots: &[u32]) -> Self {
        let gates = circuit.gates();
        let n = gates.len();

        // Pass 1: count parent references and input gates per slot.
        let mut parents = CsrBuilder::new(n);
        let mut slot_gates = CsrBuilder::new(circuit.num_slots());
        let mut num_perms = 0usize;
        for g in gates {
            match g {
                GateDef::Input(slot) => slot_gates.count(*slot as usize),
                GateDef::Const(_) => {}
                GateDef::Add(r) => {
                    for c in circuit.children(*r) {
                        parents.count(c.0 as usize);
                    }
                }
                GateDef::Mul(a, b) => {
                    parents.count(a.0 as usize);
                    parents.count(b.0 as usize);
                }
                GateDef::Perm { cols, .. } => {
                    num_perms += 1;
                    for c in circuit.children(*cols) {
                        parents.count(c.0 as usize);
                    }
                }
            }
        }

        // Pass 2: fill the flat adjacency buffers.
        let mut parents = parents.finish_counts(ParentRef::Mul(0));
        let mut slot_gates = slot_gates.finish_counts(0u32);
        let mut perm_index = vec![NO_PERM; n];
        let mut next_perm = 0u32;
        for (i, g) in gates.iter().enumerate() {
            match g {
                GateDef::Input(slot) => slot_gates.place(*slot as usize, i as u32),
                GateDef::Const(_) => {}
                GateDef::Add(r) => {
                    for (p, c) in circuit.children(*r).iter().enumerate() {
                        parents.place(
                            c.0 as usize,
                            ParentRef::Add {
                                gate: i as u32,
                                child_pos: p as u32,
                            },
                        );
                    }
                }
                GateDef::Mul(a, b) => {
                    parents.place(a.0 as usize, ParentRef::Mul(i as u32));
                    parents.place(b.0 as usize, ParentRef::Mul(i as u32));
                }
                GateDef::Perm { rows, cols } => {
                    let k = *rows as usize;
                    for (ci, col) in circuit.children(*cols).chunks_exact(k).enumerate() {
                        for (r, child) in col.iter().enumerate() {
                            parents.place(
                                child.0 as usize,
                                ParentRef::Perm {
                                    gate: i as u32,
                                    row: r as u8,
                                    col: ci as u32,
                                },
                            );
                        }
                    }
                    perm_index[i] = next_perm;
                    next_perm += 1;
                }
            }
        }
        let parents = parents.finish();
        let slot_gates = slot_gates.finish();

        // Cone memoization: the walk `peek_memo` would run on demand.
        let mut queue = DirtyQueue::new();
        let cone_of: Vec<(u32, Vec<u32>)> = cone_slots
            .iter()
            .map(|&slot| {
                let mut cone = Vec::new();
                walk_cone(
                    &parents,
                    slot_gates.row(slot as usize),
                    &mut queue,
                    &mut cone,
                );
                (slot, cone)
            })
            .collect();
        let mut cones = CsrBuilder::new(circuit.num_slots());
        for (slot, cone) in &cone_of {
            for _ in cone {
                cones.count(*slot as usize);
            }
        }
        let mut cones = cones.finish_counts(0u32);
        for (slot, cone) in &cone_of {
            for &g in cone {
                cones.place(*slot as usize, g);
            }
        }

        // Dense-run analysis: maximal contiguous ascending child-id runs
        // per add gate, in child-list order (two counting passes into the
        // shared CSR layout like everything else here).
        let mut counting = CsrBuilder::new(n);
        for_each_add_run(&circuit, |i, _, _| counting.count(i));
        let mut add_runs = counting.finish_counts((0u32, 0u32));
        for_each_add_run(&circuit, |i, lo, len| add_runs.place(i, (lo, len)));

        EvalPlan {
            circuit,
            parents,
            perm_index,
            num_perms,
            slot_gates,
            cones: cones.finish(),
            add_runs: add_runs.finish(),
        }
    }

    fn cone(&self, slot: u32) -> &[u32] {
        self.cones.row(slot as usize)
    }

    /// The circuit this plan describes.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// Every reader of gate `g`, in (parent gate, position in the
    /// parent's child list) order.
    #[inline]
    pub fn parents(&self, g: u32) -> &[ParentRef] {
        self.parents.row(g as usize)
    }

    /// The input gates reading `slot`, ascending.
    #[inline]
    pub fn slot_gates(&self, slot: u32) -> &[u32] {
        self.slot_gates.row(slot as usize)
    }

    /// The number of `g` among the circuit's permanent gates, counted in
    /// gate order (`None` for every other gate).
    #[inline]
    pub fn perm_index(&self, g: u32) -> Option<u32> {
        match self.perm_index[g as usize] {
            NO_PERM => None,
            pi => Some(pi),
        }
    }

    /// The maximal contiguous child-id runs `(first child id, length)` of
    /// gate `g`'s child segment (empty for non-add gates). The runs
    /// partition the child list in order.
    pub fn add_runs(&self, g: u32) -> &[(u32, u32)] {
        self.add_runs.row(g as usize)
    }

    /// Aggregate dense-run coverage over every add gate of the plan.
    pub fn dense_run_stats(&self) -> DenseRunStats {
        let mut stats = DenseRunStats::default();
        for (i, g) in self.circuit.gates().iter().enumerate() {
            let GateDef::Add(r) = g else { continue };
            stats.add_gates += 1;
            stats.total_children += r.len();
            let runs = self.add_runs.row(i);
            if let [(_, len)] = runs {
                if *len as usize == r.len() {
                    stats.full_run_gates += 1;
                }
            }
            stats.dense_children += runs
                .iter()
                .filter(|&&(_, len)| len as usize >= MIN_RUN)
                .map(|&(_, len)| len as usize)
                .sum::<usize>();
        }
        stats
    }
}

/// Dynamic evaluator: caches every gate value and repairs them under input
/// updates, routing permanent-entry changes through a [`PermMaint`].
///
/// Update cost is `O(affected gates · per-gate cost)`; for circuits
/// produced by the Theorem 6 compiler the number of affected gates per
/// input is query-bounded (bounded fan-out, bounded depth), giving the
/// `O(log |A|)` / `O(1)` bounds of Theorem 8.
///
/// The evaluator is the **mutable half** of the plan/state split: it owns
/// only the per-gate value buffer, the per-perm-gate maintenance
/// structures, and the slot values; all adjacency lives in a shared
/// [`EvalPlan`] (see [`DynEvaluator::from_plan`]). Instantiating another
/// state over the same plan costs one circuit evaluation — no counting
/// passes, no adjacency rebuild.
pub struct DynEvaluator<S: Semiring, P: PermMaint<S>> {
    plan: Arc<EvalPlan>,
    values: Vec<S>,
    /// Perm-gate maintenance structures, dense, in gate order.
    perms: Vec<P>,
    slot_values: Vec<S>,
    /// Reused dirty queue of the update sweeps.
    dirty: DirtyQueue,
    /// Perm-entry patches buffered during the current sweep, flushed
    /// through [`PermMaint::update_batch`] when the owning perm gate pops.
    perm_pending: PermPatches<S>,
    /// Assembly buffer for one perm gate's flush.
    perm_flush: Vec<(usize, usize, S)>,
}

impl<S: Semiring, P: PermMaint<S>> DynEvaluator<S, P> {
    /// Build from an initial input assignment, deriving a fresh plan and
    /// evaluating once. Equivalent to
    /// `DynEvaluator::from_plan(Arc::new(EvalPlan::new(circuit)), …)`.
    pub fn new(circuit: Arc<Circuit>, slots: &[S], lits: &[S]) -> Self {
        Self::from_plan(Arc::new(EvalPlan::new(circuit)), slots, lits)
    }

    /// Instantiate a mutable evaluation state over a shared immutable
    /// plan, evaluating the circuit once at `slots`/`lits`.
    pub fn from_plan(plan: Arc<EvalPlan>, slots: &[S], lits: &[S]) -> Self {
        let circuit = &plan.circuit;
        assert_eq!(slots.len(), circuit.num_slots());
        assert_eq!(lits.len(), circuit.num_lits());
        let values = crate::eval_gates(circuit, slots, lits);
        let perms = Self::build_perms(&plan, &values);
        let perm_pending = PermPatches::new(perms.len());
        DynEvaluator {
            plan,
            values,
            perms,
            slot_values: slots.to_vec(),
            dirty: DirtyQueue::new(),
            perm_pending,
            perm_flush: Vec::new(),
        }
    }

    /// The perm-gate maintenance structures, dense, in gate order, each
    /// built over the matrix gathered from its children's `values`.
    fn build_perms(plan: &EvalPlan, values: &[S]) -> Vec<P> {
        let circuit = &plan.circuit;
        let mut perms: Vec<P> = Vec::with_capacity(plan.num_perms);
        for g in circuit.gates() {
            if let GateDef::Perm { rows, cols } = g {
                let k = *rows as usize;
                let cols = circuit.children(*cols);
                let mut m = ColMatrix::with_capacity(k, cols.len() / k);
                let mut buf = Vec::with_capacity(k);
                for col in cols.chunks_exact(k) {
                    buf.clear();
                    buf.extend(col.iter().map(|g| values[g.0 as usize].clone()));
                    m.push_col(&buf);
                }
                perms.push(P::build(m));
            }
        }
        perms
    }

    /// Reinstate a previously saved state over a shared plan without
    /// re-evaluating the circuit: `slot_values` and `values` are the
    /// vectors a live evaluator exposed via
    /// [`slot_value`](Self::slot_value) / [`gate_values`](Self::gate_values).
    ///
    /// Perm maintenance structures are rebuilt with [`PermMaint::build`]
    /// on matrices gathered from the saved `values` — valid because the
    /// update sweep keeps every perm matrix entry equal to the committed
    /// value of its child gate, so the pair `(slot_values, values)` fully
    /// determines the perm state. Lengths are validated (a corrupt
    /// snapshot yields `Err`, not a later out-of-bounds panic); the gate
    /// values themselves are trusted, exactly as a live engine trusts its
    /// own committed buffer.
    pub fn from_saved(
        plan: Arc<EvalPlan>,
        slot_values: Vec<S>,
        values: Vec<S>,
    ) -> Result<Self, &'static str> {
        let circuit = &plan.circuit;
        if slot_values.len() != circuit.num_slots() {
            return Err("saved slot-value count does not match plan");
        }
        if values.len() != circuit.len() {
            return Err("saved gate-value count does not match plan");
        }
        let perms = Self::build_perms(&plan, &values);
        let perm_pending = PermPatches::new(perms.len());
        Ok(DynEvaluator {
            plan,
            values,
            perms,
            slot_values,
            dirty: DirtyQueue::new(),
            perm_pending,
            perm_flush: Vec::new(),
        })
    }

    /// The shared immutable plan.
    pub fn plan(&self) -> &Arc<EvalPlan> {
        &self.plan
    }

    /// The whole slot-value vector, indexed by slot id (the mutable
    /// counterpart of [`gate_values`](Self::gate_values), exposed for
    /// state snapshotting).
    pub fn slot_values(&self) -> &[S] {
        &self.slot_values
    }

    /// Current output value.
    pub fn output(&self) -> &S {
        &self.values[self.plan.circuit.output().0 as usize]
    }

    /// Current value of any gate.
    pub fn value(&self, g: GateId) -> &S {
        &self.values[g.0 as usize]
    }

    /// Current value of an input slot.
    pub fn slot_value(&self, slot: u32) -> &S {
        &self.slot_values[slot as usize]
    }

    /// The whole committed gate-value vector, indexed by gate id. Lets
    /// rank-table builders scan an add gate's dense child range as one
    /// slice instead of gathering per child.
    pub fn gate_values(&self) -> &[S] {
        &self.values
    }

    /// The maintenance structure of a permanent gate (`None` for
    /// non-permanent gates). Gives rank-descent callers access to
    /// backend-specific queries — e.g. the row-subset permanents of
    /// [`SegTreePerm::peek_rows`] — beyond the [`PermMaint`] interface.
    pub fn perm_maint(&self, g: GateId) -> Option<&P> {
        let pi = self.plan.perm_index(g.0)?;
        Some(&self.perms[pi as usize])
    }

    /// Set input `slot` to `value` and repair all affected gates. This is
    /// [`DynEvaluator::set_inputs`] at batch size one.
    pub fn set_input(&mut self, slot: u32, value: S) {
        if self.slot_values[slot as usize] == value {
            return;
        }
        self.set_inputs(&[(slot, value)]);
    }

    /// Overwrite several slots and repair all affected gates with **one**
    /// dirty-propagation sweep (see the module docs for why the single
    /// sweep is sound). Later entries for the same slot win; entries equal
    /// to the slot's committed value seed nothing and are dropped for
    /// free.
    pub fn set_inputs(&mut self, updates: &[(u32, S)]) {
        self.seed_slots(updates, |ev, g, _old| ev.mark_parents(g));
        self.drain_dirty();
    }

    /// Commit `updates` to the slot values, then to every input gate
    /// reading them, calling `changed(self, gate, old value)` for each
    /// input gate whose value moved — the seeding step of both update
    /// sweeps. All slot values are committed first so later entries win
    /// and seeding reads each slot's final value; a slot listed twice is
    /// seeded idempotently (the second pass finds its gates settled).
    fn seed_slots(&mut self, updates: &[(u32, S)], mut changed: impl FnMut(&mut Self, u32, S)) {
        for (slot, v) in updates {
            self.slot_values[*slot as usize] = v.clone();
        }
        for &(slot, _) in updates {
            for i in 0..self.plan.slot_gates(slot).len() {
                let g = self.plan.slot_gates(slot)[i];
                let new = &self.slot_values[slot as usize];
                if self.values[g as usize] != *new {
                    let old = std::mem::replace(&mut self.values[g as usize], new.clone());
                    changed(self, g, old);
                }
            }
        }
    }

    /// One topological sweep over the dirty queue: ascending gate ids,
    /// each gate recomputed at most once, buffered perm-entry patches
    /// flushed when their perm gate pops (every changed child has a
    /// smaller id, so all its patches are already buffered).
    fn drain_dirty(&mut self) {
        while let Some(g) = self.dirty.pop() {
            let new = match &self.plan.circuit.gates()[g as usize] {
                GateDef::Perm { .. } => self.flush_perm(g),
                _ => self.recompute(g),
            };
            if self.values[g as usize] != new {
                self.values[g as usize] = new;
                self.mark_parents(g);
            }
        }
        self.perm_pending.end_sweep();
    }

    /// Move perm gate `g`'s buffered entry patches out of `perm_pending`
    /// into its maintenance structure (one
    /// [`PermMaint::update_batch`]) and return the repaired permanent.
    fn flush_perm(&mut self, g: u32) -> S {
        let pi = self.plan.perm_index[g as usize];
        let mut buf = std::mem::take(&mut self.perm_flush);
        buf.clear();
        self.perm_pending.take(pi, &mut buf);
        if !buf.is_empty() {
            self.perms[pi as usize].update_batch(&buf);
        }
        self.perm_flush = buf;
        self.perms[pi as usize].total().clone()
    }

    /// Perm gate `g` with the entry patches `scratch.perm_patches` holds
    /// for it, answered without mutation by [`PermMaint::peek`]. No
    /// duplicates are possible: every (row, col) has exactly one child
    /// gate, finalized once per peek.
    fn peek_perm(&self, g: u32, scratch: &mut PeekScratch<S>) -> S {
        let pi = self.plan.perm_index[g as usize];
        let mut buf = std::mem::take(&mut scratch.perm_buf);
        buf.clear();
        buf.extend(
            scratch
                .perm_patches
                .iter()
                .filter(|&(p, _r, _c, _v)| *p == pi)
                .map(|(_p, r, c, v)| (*r as usize, *c as usize, v.clone())),
        );
        let out = self.perms[pi as usize].peek(&buf);
        scratch.perm_buf = buf;
        out
    }

    /// Evaluate the output with some slots overwritten, **without
    /// mutating any state** — the point query of Theorem 8, with no
    /// update/restore cycles. Later patches to one slot win; a patch equal
    /// to the slot's committed value changes nothing.
    ///
    /// Only the cones of the changed slots are re-evaluated. A slot's cone
    /// comes from the plan when [`EvalPlan::with_cones`] memoized it and is
    /// otherwise walked on demand through `scratch`'s [`DirtyQueue`] (the
    /// same walk). The merged cone is evaluated by one ascending sweep;
    /// permanent gates answer through the non-mutating [`PermMaint::peek`].
    /// The scratch is reused across calls.
    pub fn peek_memo(&self, patches: &[(u32, S)], scratch: &mut PeekScratch<S>) -> S {
        let resolved = scratch.resolve(patches);
        // Merge the cones of the effectively-changed slots.
        let mut cone = std::mem::take(&mut scratch.cone);
        cone.clear();
        for &(slot, pi) in &resolved {
            if self.slot_values[slot as usize] == patches[pi].1 {
                continue;
            }
            match self.plan.cone(slot) {
                [] => walk_cone(
                    &self.plan.parents,
                    self.plan.slot_gates(slot),
                    &mut scratch.dirty,
                    &mut cone,
                ),
                memo => cone.extend_from_slice(memo),
            }
        }
        cone.sort_unstable();
        cone.dedup();
        if cone.is_empty() {
            scratch.cone = cone;
            scratch.resolved = resolved;
            return self.output().clone();
        }
        // One topological sweep over the merged cone (ascending gate ids;
        // children precede parents in the arena).
        let mut vals = std::mem::take(&mut scratch.cone_vals);
        vals.clear();
        scratch.perm_patches.clear();
        let lookup = |cone: &[u32], vals: &[S], gate: u32| -> Option<usize> {
            cone.binary_search(&gate).ok().filter(|&i| i < vals.len())
        };
        for (ci, &g) in cone.iter().enumerate() {
            let v = match &self.plan.circuit.gates()[g as usize] {
                GateDef::Input(slot) => match resolved.iter().find(|&&(s, _)| s == *slot) {
                    Some(&(_, pi)) => patches[pi].1.clone(),
                    None => self.values[g as usize].clone(),
                },
                GateDef::Const(_) => self.values[g as usize].clone(),
                GateDef::Add(children) => {
                    let kids = self.plan.circuit.children(*children);
                    if S::ORDER_INSENSITIVE_ADD {
                        // Per-run decomposition: a run is a contiguous id
                        // range, so one sorted probe into the (ascending)
                        // cone decides whether any of its children are
                        // overlaid. Untouched runs sum straight off the
                        // committed value slice; touched runs gather
                        // through the cone lookup.
                        let mut acc = S::zero();
                        for &(lo, len) in self.plan.add_runs(g) {
                            let hi = lo + len;
                            let probe = cone.partition_point(|&x| x < lo);
                            if probe < cone.len() && cone[probe] < hi {
                                for c in lo..hi {
                                    match lookup(&cone, &vals, c) {
                                        Some(i) => acc.add_assign(&vals[i]),
                                        None => acc.add_assign(&self.values[c as usize]),
                                    }
                                }
                            } else if len as usize >= MIN_RUN {
                                let seg = &self.values[lo as usize..hi as usize];
                                acc.add_assign(&S::sum_slice(seg));
                            } else {
                                for v in &self.values[lo as usize..hi as usize] {
                                    acc.add_assign(v);
                                }
                            }
                        }
                        acc
                    } else {
                        sum_children(kids, |c| match lookup(&cone, &vals, c.0) {
                            Some(i) => &vals[i],
                            None => &self.values[c.0 as usize],
                        })
                    }
                }
                GateDef::Mul(a, b) => {
                    let eff = |g: GateId| match lookup(&cone, &vals, g.0) {
                        Some(i) => &vals[i],
                        None => &self.values[g.0 as usize],
                    };
                    eff(*a).mul(eff(*b))
                }
                GateDef::Perm { .. } => self.peek_perm(g, scratch),
            };
            // Feed changed values to perm parents (processed later in the
            // sweep); Add/Mul parents re-read children directly.
            if v != self.values[g as usize] {
                for &p in self.plan.parents(g) {
                    if let ParentRef::Perm { gate, row, col } = p {
                        let pi = self.plan.perm_index[gate as usize];
                        scratch.perm_patches.push((pi, row as u32, col, v.clone()));
                    }
                }
            }
            debug_assert_eq!(ci, vals.len());
            vals.push(v);
        }
        let out_gate = self.plan.circuit.output().0;
        let out = match cone.binary_search(&out_gate) {
            Ok(i) => vals[i].clone(),
            Err(_) => self.values[out_gate as usize].clone(),
        };
        scratch.cone = cone;
        scratch.cone_vals = vals;
        scratch.resolved = resolved;
        out
    }

    fn mark_parents(&mut self, g: u32) {
        // Perm parents get the new child value buffered as a pending
        // patch; it is flushed in one `update_batch` when the perm gate
        // pops. A child changes value at most once per sweep, so each
        // (perm, row, col) carries at most one patch.
        for i in 0..self.plan.parents(g).len() {
            let p = self.plan.parents(g)[i];
            if let ParentRef::Perm { gate, row, col } = p {
                let v = self.values[g as usize].clone();
                let pi = self.plan.perm_index[gate as usize];
                self.perm_pending.push(pi, row as u32, col, v);
            }
            self.dirty.push(p.gate());
        }
    }

    fn recompute(&self, g: u32) -> S {
        match &self.plan.circuit.gates()[g as usize] {
            GateDef::Input(_) | GateDef::Const(_) => self.values[g as usize].clone(),
            GateDef::Add(children) => sum_add(
                self.plan.circuit.children(*children),
                self.plan.add_runs(g),
                &self.values,
            ),
            GateDef::Mul(a, b) => self.values[a.0 as usize].mul(&self.values[b.0 as usize]),
            GateDef::Perm { .. } => self.perms[self.plan.perm_index[g as usize] as usize]
                .total()
                .clone(),
        }
    }
}

impl<S: Ring, P: PermMaint<S>> DynEvaluator<S, P> {
    /// [`DynEvaluator::set_inputs`] with **delta repair** of addition
    /// gates: over a ring, a dirtied add gate settles as
    /// `new = old + Σ δ_child` from the accumulated deltas of its
    /// changed children, instead of re-summing its whole fan-in. The
    /// sweep therefore costs O(1) per touched gate *edge* even through
    /// data-sized aggregation gates — the count-evaluator flush path of
    /// rank maintenance, where the gates near the root sum over the
    /// whole color-set family and a `sum_children` per batch would
    /// dominate ingestion. Multiplication gates recompute in O(1)
    /// (binary) and permanent gates flush through
    /// [`PermMaint::update_batch`] exactly as in the plain sweep.
    ///
    /// Deltas accumulate in a small hash map keyed by gate id rather
    /// than a dense per-gate side array: a sweep touches a
    /// cone-bounded handful of gates, so the map stays cache-resident
    /// where a circuit-sized array would stride through cold memory
    /// (measured ~40% slower on the 16k-node ingestion workload).
    ///
    /// Exactness caveat: values are maintained through ring identities,
    /// so for wrapping carriers (`Nat` = ℤ/2⁶⁴) results are the true
    /// values mod 2⁶⁴ — exact whenever the true values fit the word.
    pub fn set_inputs_delta(&mut self, updates: &[(u32, S)]) {
        let mut deltas: agq_semiring::fx::FxHashMap<u32, S> = Default::default();
        self.seed_slots(updates, |ev, g, old| {
            let d = ev.values[g as usize].sub(&old);
            ev.mark_parents_delta(g, &d, &mut deltas);
        });
        while let Some(g) = self.dirty.pop() {
            let new = match &self.plan.circuit.gates()[g as usize] {
                GateDef::Perm { .. } => self.flush_perm(g),
                GateDef::Add(_) => match deltas.remove(&g) {
                    Some(d) => self.values[g as usize].add(&d),
                    None => self.values[g as usize].clone(),
                },
                _ => self.recompute(g),
            };
            if self.values[g as usize] != new {
                let d = new.sub(&self.values[g as usize]);
                self.values[g as usize] = new;
                self.mark_parents_delta(g, &d, &mut deltas);
            }
        }
        self.perm_pending.end_sweep();
    }

    /// [`DynEvaluator::mark_parents`], accumulating the child's delta
    /// into each addition parent's pending-delta slot.
    fn mark_parents_delta(
        &mut self,
        g: u32,
        d: &S,
        deltas: &mut agq_semiring::fx::FxHashMap<u32, S>,
    ) {
        for i in 0..self.plan.parents(g).len() {
            let p = self.plan.parents(g)[i];
            match p {
                ParentRef::Add { gate, .. } => {
                    let slot = deltas.entry(gate).or_insert_with(S::zero);
                    *slot = slot.add(d);
                }
                ParentRef::Mul(_) => {}
                ParentRef::Perm { gate, row, col } => {
                    let v = self.values[g as usize].clone();
                    let pi = self.plan.perm_index[gate as usize];
                    self.perm_pending.push(pi, row as u32, col, v);
                }
            }
            self.dirty.push(p.gate());
        }
    }
}

/// Perm-entry patches buffered by one update sweep, chained per perm
/// gate so a flush walks exactly its own patches: `O(1)` per patch,
/// where scanning one shared buffer on every flush grows quadratically
/// with the batch. A child changes value at most once per sweep, so each
/// (perm, row, col) is patched at most once and the flush order within a
/// gate does not matter.
struct PermPatches<S> {
    /// Newest patch of each perm gate (dense perm index), `NO_PATCH` if
    /// it has none.
    heads: Vec<u32>,
    /// `(next patch of the same gate, row, col, value)`; a value is taken
    /// when its gate flushes.
    patches: Vec<(u32, u32, u32, Option<S>)>,
}

const NO_PATCH: u32 = u32::MAX;

impl<S> PermPatches<S> {
    fn new(perms: usize) -> Self {
        PermPatches {
            heads: vec![NO_PATCH; perms],
            patches: Vec::new(),
        }
    }

    fn push(&mut self, perm: u32, row: u32, col: u32, value: S) {
        let head = &mut self.heads[perm as usize];
        self.patches.push((*head, row, col, Some(value)));
        *head = (self.patches.len() - 1) as u32;
    }

    /// Move perm gate `perm`'s patches into `out`.
    fn take(&mut self, perm: u32, out: &mut Vec<(usize, usize, S)>) {
        let mut i = std::mem::replace(&mut self.heads[perm as usize], NO_PATCH);
        while i != NO_PATCH {
            let (next, row, col, value) = &mut self.patches[i as usize];
            out.push((
                *row as usize,
                *col as usize,
                value.take().expect("taken once"),
            ));
            i = *next;
        }
    }

    /// Forget the sweep's patches, every one of which must have been taken.
    fn end_sweep(&mut self) {
        debug_assert!(
            self.patches.iter().all(|p| p.3.is_none()),
            "perm patches left unflushed after the sweep"
        );
        self.patches.clear();
    }
}

/// Reusable scratch of the point-query path ([`DynEvaluator::peek_memo`]):
/// the merged cone and its values, a flat per-query permanent patch
/// buffer, and the queue of the on-demand cone walk. One scratch serves
/// any number of queries against evaluators of one circuit; every buffer
/// keeps its capacity, so the per-query cost is bounded by the scratch's
/// high-water mark, not the circuit size.
pub struct PeekScratch<S> {
    /// Flat per-query patch buffer: `(perm index, row, col, value)`.
    perm_patches: Vec<(u32, u32, u32, S)>,
    /// Assembly buffer for one permanent's patches.
    perm_buf: Vec<(usize, usize, S)>,
    /// Queue of the on-demand cone walk (empty between calls).
    dirty: DirtyQueue,
    /// Slot-dedup buffer: `(slot, index of its last patch)`.
    resolved: Vec<(u32, usize)>,
    /// Merged-cone gate ids, ascending.
    cone: Vec<u32>,
    /// Values parallel to `cone`.
    cone_vals: Vec<S>,
}

impl<S> PeekScratch<S> {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        PeekScratch {
            perm_patches: Vec::new(),
            perm_buf: Vec::new(),
            dirty: DirtyQueue::new(),
            resolved: Vec::new(),
            cone: Vec::new(),
            cone_vals: Vec::new(),
        }
    }

    /// One `(slot, index of its last patch)` per patched slot — later
    /// patches to a slot win. Returns the reused buffer; callers hand it
    /// back by assigning `self.resolved`.
    fn resolve(&mut self, patches: &[(u32, S)]) -> Vec<(u32, usize)> {
        let mut resolved = std::mem::take(&mut self.resolved);
        resolved.clear();
        for (i, (slot, _)) in patches.iter().enumerate() {
            match resolved.iter_mut().find(|&&mut (s, _)| s == *slot) {
                Some((_, pi)) => *pi = i,
                None => resolved.push((*slot, i)),
            }
        }
        resolved
    }
}

impl<S> Default for PeekScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience alias: dynamic evaluation in an arbitrary semiring
/// (logarithmic updates).
pub type GeneralEvaluator<S> = DynEvaluator<S, SegTreePerm<S>>;

/// Convenience alias: dynamic evaluation in a ring (constant updates).
pub type RingEvaluator<S> = DynEvaluator<S, RingMaint<S>>;

/// Convenience alias: dynamic evaluation in a finite semiring
/// (constant updates).
pub type FiniteEvaluator<S> = DynEvaluator<S, FiniteMaint<S>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;
    use agq_semiring::{Bool, Int, MinPlus, Nat};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Σ_{i≠j} a_i·b_j circuit with 2n slots plus a final +lit.
    fn test_circuit(n: usize) -> Circuit {
        let (b, out) = test_builder(n);
        b.finish(out)
    }

    /// [`test_circuit`]'s builder and output gate, before `finish`.
    fn test_builder(n: usize) -> (CircuitBuilder, GateId) {
        let mut b = CircuitBuilder::new();
        let mut flat = Vec::new();
        for i in 0..n {
            let a = b.input(i as u32);
            let w = b.input((n + i) as u32);
            let m = b.mul(a, w); // extra structure: perm entries are gates
            flat.push(a);
            flat.push(m);
        }
        let p = b.perm_flat(2, flat);
        let l = b.lit(0);
        let s = b.add(&[p, l]);
        (b, s)
    }

    fn reference_eval(slots: &[Nat], lit: Nat, n: usize) -> Nat {
        // Σ_{i≠j} a_i · (a_j · b_j) + lit
        let mut total = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    total += slots[i].0 * (slots[j].0 * slots[n + j].0);
                }
            }
        }
        Nat(total + lit.0)
    }

    #[test]
    fn dynamic_updates_match_reference_general() {
        let n = 6;
        let circuit = Arc::new(test_circuit(n));
        let mut rng = SmallRng::seed_from_u64(5);
        let mut slots: Vec<Nat> = (0..2 * n).map(|_| Nat(rng.gen_range(0..5))).collect();
        let lit = Nat(3);
        let mut ev: GeneralEvaluator<Nat> = DynEvaluator::new(circuit, &slots, &[lit]);
        assert_eq!(*ev.output(), reference_eval(&slots, lit, n));
        for _ in 0..50 {
            let s = rng.gen_range(0..2 * n) as u32;
            let v = Nat(rng.gen_range(0..5));
            slots[s as usize] = v;
            ev.set_input(s, v);
            assert_eq!(*ev.output(), reference_eval(&slots, lit, n));
        }
    }

    #[test]
    fn ring_and_general_agree() {
        let n = 5;
        let circuit = Arc::new(test_circuit(n));
        let mut rng = SmallRng::seed_from_u64(9);
        let slots: Vec<Int> = (0..2 * n).map(|_| Int(rng.gen_range(-3..4))).collect();
        let mut gen: GeneralEvaluator<Int> = DynEvaluator::new(circuit.clone(), &slots, &[Int(0)]);
        let mut ring: RingEvaluator<Int> = DynEvaluator::new(circuit, &slots, &[Int(0)]);
        for _ in 0..40 {
            let s = rng.gen_range(0..2 * n) as u32;
            let v = Int(rng.gen_range(-3..4));
            gen.set_input(s, v);
            ring.set_input(s, v);
            assert_eq!(gen.output(), ring.output());
        }
    }

    #[test]
    fn finite_evaluator_bool() {
        let n = 4;
        let circuit = Arc::new(test_circuit(n));
        let mut rng = SmallRng::seed_from_u64(21);
        let slots: Vec<Bool> = (0..2 * n).map(|_| Bool(rng.gen_bool(0.5))).collect();
        let mut fin: FiniteEvaluator<Bool> =
            DynEvaluator::new(circuit.clone(), &slots, &[Bool(false)]);
        let mut gen: GeneralEvaluator<Bool> = DynEvaluator::new(circuit, &slots, &[Bool(false)]);
        for _ in 0..40 {
            let s = rng.gen_range(0..2 * n) as u32;
            let v = Bool(rng.gen_bool(0.5));
            fin.set_input(s, v);
            gen.set_input(s, v);
            assert_eq!(fin.output(), gen.output());
        }
    }

    /// The reference of the one point-query path: `peek_memo` against a
    /// from-scratch evaluation at the patched slots, over a fully
    /// memoized, a partly memoized and a cone-less plan. Every round
    /// peeks random patches, a duplicate slot (later wins), a patch equal
    /// to the committed value, a slot no gate reads and the empty list,
    /// checks that no gate value moved, then updates the base state.
    fn peek_memo_matches_fresh<S: Semiring, P: PermMaint<S>>(
        seed: u64,
        gen: impl Fn(&mut SmallRng) -> S,
    ) {
        let n = 4;
        let unread = 2 * n as u32;
        let (mut b, out) = test_builder(n);
        b.input(unread); // dead: `cluster_adds` drops the gate, keeps the slot
        let circuit = Arc::new(b.finish(out).cluster_adds());
        let all: Vec<u32> = (0..=unread).collect();
        let even: Vec<u32> = (0..=unread).step_by(2).collect();
        let plans = [
            ("full", EvalPlan::with_cones(circuit.clone(), &all)),
            ("partial", EvalPlan::with_cones(circuit.clone(), &even)),
            ("cone-less", EvalPlan::new(circuit.clone())),
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let lits = [gen(&mut rng)];
        for (name, plan) in plans {
            assert!(plan.slot_gates(unread).is_empty());
            let mut slots: Vec<S> = (0..=unread).map(|_| gen(&mut rng)).collect();
            let mut ev: DynEvaluator<S, P> = DynEvaluator::from_plan(Arc::new(plan), &slots, &lits);
            let mut scratch = PeekScratch::new();
            for round in 0..30 {
                let s = rng.gen_range(0..unread);
                let random = (0..rng.gen_range(1..4))
                    .map(|_| (rng.gen_range(0..unread + 1), gen(&mut rng)))
                    .collect();
                let cases: [Vec<(u32, S)>; 5] = [
                    random,
                    vec![(s, gen(&mut rng)), (1, gen(&mut rng)), (s, gen(&mut rng))],
                    vec![(s, slots[s as usize].clone())],
                    vec![(unread, gen(&mut rng)), (s, gen(&mut rng))],
                    vec![],
                ];
                for patches in &cases {
                    let mut patched = slots.clone();
                    for (slot, v) in patches {
                        patched[*slot as usize] = v.clone();
                    }
                    let fresh: DynEvaluator<S, P> =
                        DynEvaluator::new(circuit.clone(), &patched, &lits);
                    let before = ev.gate_values().to_vec();
                    let got = ev.peek_memo(patches, &mut scratch);
                    assert_eq!(
                        got,
                        *fresh.output(),
                        "{name} plan, round {round}: {patches:?}"
                    );
                    assert_eq!(ev.gate_values(), &before[..], "peek_memo must not mutate");
                }
                let v = gen(&mut rng);
                slots[s as usize] = v.clone();
                ev.set_input(s, v);
            }
        }
    }

    // `peek_memo`'s cone values overlay the committed ones; one table per
    // maintenance backend.
    #[test]
    fn overlay_peek_general_backend() {
        peek_memo_matches_fresh::<MinPlus, SegTreePerm<MinPlus>>(31, |r| {
            if r.gen_bool(0.2) {
                MinPlus::INF
            } else {
                MinPlus(r.gen_range(1..9))
            }
        });
    }

    #[test]
    fn overlay_peek_ring_backend() {
        peek_memo_matches_fresh::<Int, RingMaint<Int>>(32, |r| Int(r.gen_range(-3..4)));
    }

    #[test]
    fn overlay_peek_finite_backend() {
        peek_memo_matches_fresh::<Bool, FiniteMaint<Bool>>(33, |r| Bool(r.gen_bool(0.5)));
    }

    #[test]
    fn peek_memo_falls_back_without_cones() {
        // Only slot 0's cone is memoized: slot 1's is walked on demand and
        // merged with it.
        let n = 4;
        let circuit = Arc::new(test_circuit(n));
        let plan = Arc::new(EvalPlan::with_cones(circuit, &[0]));
        assert!(!plan.cone(0).is_empty());
        assert!(plan.cone(1).is_empty());
        let slots: Vec<Nat> = (0..2 * n).map(|i| Nat(i as u64 % 3 + 1)).collect();
        let ev: GeneralEvaluator<Nat> = DynEvaluator::from_plan(plan, &slots, &[Nat(1)]);
        let mut patched = slots.clone();
        patched[0] = Nat(2);
        patched[1] = Nat(9);
        assert_eq!(
            ev.peek_memo(&[(0, Nat(2)), (1, Nat(9))], &mut PeekScratch::new()),
            reference_eval(&patched, Nat(1), n)
        );
    }

    #[test]
    fn shared_plan_states_update_independently() {
        let n = 5;
        let circuit = Arc::new(test_circuit(n));
        let plan = Arc::new(EvalPlan::new(circuit.clone()));
        let slots: Vec<Nat> = (0..2 * n).map(|i| Nat(i as u64 % 4)).collect();
        let lit = [Nat(2)];
        let mut a: GeneralEvaluator<Nat> = DynEvaluator::from_plan(plan.clone(), &slots, &lit);
        let mut b: GeneralEvaluator<Nat> = DynEvaluator::from_plan(plan.clone(), &slots, &lit);
        // independent references: two evaluators, one fresh control each
        let mut rng = SmallRng::seed_from_u64(77);
        let mut sa = slots.clone();
        let mut sb = slots.clone();
        for _ in 0..30 {
            let s = rng.gen_range(0..2 * n);
            let v = Nat(rng.gen_range(0..4));
            if rng.gen_bool(0.5) {
                sa[s] = v;
                a.set_input(s as u32, v);
            } else {
                sb[s] = v;
                b.set_input(s as u32, v);
            }
            let fa: GeneralEvaluator<Nat> = DynEvaluator::new(circuit.clone(), &sa, &lit);
            let fb: GeneralEvaluator<Nat> = DynEvaluator::new(circuit.clone(), &sb, &lit);
            assert_eq!(a.output(), fa.output(), "state A diverged");
            assert_eq!(b.output(), fb.output(), "state B diverged");
        }
    }

    #[test]
    fn plan_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalPlan>();
    }

    /// Random batches through `set_inputs` against the same updates
    /// applied one-by-one on a control evaluator and a fresh rebuild.
    fn batch_matches_sequential<P: PermMaint<Int>>(seed: u64) {
        let n = 6;
        let circuit = Arc::new(test_circuit(n));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut slots: Vec<Int> = (0..2 * n).map(|_| Int(rng.gen_range(-3..4))).collect();
        let lit = [Int(2)];
        let mut batched: DynEvaluator<Int, P> = DynEvaluator::new(circuit.clone(), &slots, &lit);
        let mut sequential: DynEvaluator<Int, P> = DynEvaluator::new(circuit.clone(), &slots, &lit);
        for round in 0..30 {
            let batch: Vec<(u32, Int)> = (0..rng.gen_range(0..10))
                .map(|_| (rng.gen_range(0..2 * n) as u32, Int(rng.gen_range(-3..4))))
                .collect();
            batched.set_inputs(&batch);
            for &(s, v) in &batch {
                sequential.set_input(s, v);
                slots[s as usize] = v;
            }
            let fresh: DynEvaluator<Int, P> = DynEvaluator::new(circuit.clone(), &slots, &lit);
            assert_eq!(batched.output(), sequential.output(), "round {round}");
            assert_eq!(batched.output(), fresh.output(), "round {round} vs rebuild");
        }
    }

    #[test]
    fn batch_matches_sequential_general() {
        batch_matches_sequential::<SegTreePerm<Int>>(101);
    }

    #[test]
    fn batch_matches_sequential_ring() {
        batch_matches_sequential::<RingMaint<Int>>(102);
    }

    #[test]
    fn batch_matches_sequential_finite() {
        let n = 5;
        let circuit = Arc::new(test_circuit(n));
        let mut rng = SmallRng::seed_from_u64(103);
        let mut slots: Vec<Bool> = (0..2 * n).map(|_| Bool(rng.gen_bool(0.5))).collect();
        let lit = [Bool(false)];
        let mut batched: FiniteEvaluator<Bool> = DynEvaluator::new(circuit.clone(), &slots, &lit);
        let mut sequential: FiniteEvaluator<Bool> =
            DynEvaluator::new(circuit.clone(), &slots, &lit);
        for _ in 0..30 {
            let batch: Vec<(u32, Bool)> = (0..rng.gen_range(0..10))
                .map(|_| (rng.gen_range(0..2 * n) as u32, Bool(rng.gen_bool(0.5))))
                .collect();
            batched.set_inputs(&batch);
            for &(s, v) in &batch {
                sequential.set_input(s, v);
                slots[s as usize] = v;
            }
            let fresh: FiniteEvaluator<Bool> = DynEvaluator::new(circuit.clone(), &slots, &lit);
            assert_eq!(batched.output(), sequential.output());
            assert_eq!(batched.output(), fresh.output());
        }
    }

    /// `set_inputs_delta` (ring delta repair of add gates) must leave
    /// every gate — not just the output — in the exact state the plain
    /// recompute sweep produces.
    fn delta_matches_plain<S: Ring, P: PermMaint<S>>(seed: u64, gen: impl Fn(&mut SmallRng) -> S) {
        let n = 6;
        let circuit = Arc::new(test_circuit(n));
        let mut rng = SmallRng::seed_from_u64(seed);
        let slots: Vec<S> = (0..2 * n).map(|_| gen(&mut rng)).collect();
        let lit = [gen(&mut rng)];
        let mut delta: DynEvaluator<S, P> = DynEvaluator::new(circuit.clone(), &slots, &lit);
        let mut plain: DynEvaluator<S, P> = DynEvaluator::new(circuit.clone(), &slots, &lit);
        for round in 0..40 {
            let batch: Vec<(u32, S)> = (0..rng.gen_range(0..8))
                .map(|_| (rng.gen_range(0..2 * n) as u32, gen(&mut rng)))
                .collect();
            delta.set_inputs_delta(&batch);
            plain.set_inputs(&batch);
            for g in 0..circuit.gates().len() {
                assert_eq!(
                    delta.value(GateId(g as u32)),
                    plain.value(GateId(g as u32)),
                    "round {round}, gate {g}"
                );
            }
        }
    }

    #[test]
    fn delta_matches_plain_nat() {
        delta_matches_plain::<Nat, SegTreePerm<Nat>>(104, |r| Nat(r.gen_range(0..5)));
    }

    #[test]
    fn delta_matches_plain_int() {
        delta_matches_plain::<Int, RingMaint<Int>>(105, |r| Int(r.gen_range(-4..5)));
    }

    #[test]
    fn batch_duplicate_slots_later_wins() {
        let n = 4;
        let circuit = Arc::new(test_circuit(n));
        let slots: Vec<Nat> = (0..2 * n).map(|i| Nat(i as u64 % 3)).collect();
        let mut ev: GeneralEvaluator<Nat> = DynEvaluator::new(circuit.clone(), &slots, &[Nat(1)]);
        ev.set_inputs(&[(0, Nat(9)), (2, Nat(4)), (0, Nat(7))]);
        let mut expect = slots.clone();
        expect[0] = Nat(7);
        expect[2] = Nat(4);
        let fresh: GeneralEvaluator<Nat> = DynEvaluator::new(circuit, &expect, &[Nat(1)]);
        assert_eq!(ev.output(), fresh.output());
        assert_eq!(*ev.slot_value(0), Nat(7));
        // a batch netting out to the committed values touches nothing
        ev.set_inputs(&[(0, Nat(1)), (0, Nat(7)), (2, Nat(4))]);
        assert_eq!(ev.output(), fresh.output());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let n = 3;
        let circuit = Arc::new(test_circuit(n));
        let slots: Vec<Nat> = (0..2 * n).map(|i| Nat(i as u64)).collect();
        let mut ev: RingEvaluator<Int> = {
            let slots: Vec<Int> = slots.iter().map(|v| Int(v.0 as i64)).collect();
            DynEvaluator::new(circuit, &slots, &[Int(0)])
        };
        let before = *ev.output();
        ev.set_inputs(&[]);
        assert_eq!(*ev.output(), before);
    }
}
