//! The Theorem 8 evaluator: dynamic weighted-query evaluation with
//! free-variable queries.
//!
//! # Plan/state architecture
//!
//! A bound query is two halves:
//!
//! * the **immutable plan** — the [`CompiledQuery`] (circuit, slot
//!   registry, literal table, free-variable order) behind an `Arc`, plus
//!   the derived [`EvalPlan`] (parent CSR, per-slot input-gate CSR,
//!   memoized per-`FreeVar`-slot peek cones). Nothing in the plan changes
//!   under weight or relation updates, and it is `Send + Sync`;
//! * the **mutable state** — the [`DynEvaluator`]'s gate values and
//!   permanent maintenance structures, plus reusable query scratch.
//!
//! [`QueryEngine::new`] builds both at once; [`QueryEngine::from_parts`]
//! instantiates another *state* over already-built plan halves. That is
//! the shard constructor: a sharded engine compiles once, then creates
//! one cheap `QueryEngine` per Gaifman shard, all pointing at the same
//! plan (see `agq-enumerate`'s `ShardedEngine`). Each shard state absorbs
//! only its own shard's updates; a point query at a tuple of that shard
//! reads only the cone above the tuple's indicator slots, which — because
//! compiled tuples are Gaifman cliques — never leaves the shard's
//! component, so the other shards' staleness is invisible.
//!
//! Point queries run over the memoized cones
//! ([`DynEvaluator::peek_memo`]): the cone topology above each `v_i(a)`
//! indicator slot is static, so it is precomputed in the plan and each
//! query is one topological sweep — no per-query cone discovery.
//! [`QueryEngine::query_with`] is the `&self` form that takes external
//! scratch, which is what batch workers and shard read-locks use.

use crate::compile::CompiledQuery;
use crate::slots::{AtomSlots, SlotKey};
use agq_circuit::{DynEvaluator, EvalPlan, FiniteMaint, PeekScratch, PermMaint, RingMaint};
use agq_perm::SegTreePerm;
use agq_semiring::Semiring;
use agq_structure::{Elem, RelId, Tuple, WeightId, WeightedStructure};
use std::sync::Arc;

/// One Gaifman-preserving database update: set the membership of `tuple`
/// in relation `rel`. The shared update language of every index bound to
/// a compiled query — [`QueryEngine::apply_update`] patches the dynamic
/// evaluator, and `agq-enumerate`'s `AnswerIndex::apply_update` patches
/// the answer enumeration index — so one update object can drive every
/// structure derived from the same database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleUpdate {
    /// The relation.
    pub rel: RelId,
    /// The tuple (must be a clique of the compile-time Gaifman graph).
    pub tuple: Vec<Elem>,
    /// `true` inserts, `false` removes.
    pub present: bool,
}

impl TupleUpdate {
    /// Insert `tuple` into `rel`.
    pub fn insert(rel: RelId, tuple: &[Elem]) -> Self {
        TupleUpdate {
            rel,
            tuple: tuple.to_vec(),
            present: true,
        }
    }

    /// Remove `tuple` from `rel`.
    pub fn remove(rel: RelId, tuple: &[Elem]) -> Self {
        TupleUpdate {
            rel,
            tuple: tuple.to_vec(),
            present: false,
        }
    }
}

/// Why an engine state could not be instantiated over given plan halves —
/// the typed replacement for the assertion failures a corrupt or
/// mismatched snapshot used to trigger deep inside the evaluator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartsError {
    /// The evaluation plan was derived from a different circuit than the
    /// compiled query (slot counts disagree).
    SlotCountMismatch {
        /// Slots the plan's circuit expects.
        plan: usize,
        /// Slots the compiled query's registry carries.
        compiled: usize,
    },
    /// Literal-table length disagrees between plan circuit and query.
    LitCountMismatch {
        /// Literals the plan's circuit expects.
        plan: usize,
        /// Literals the compiled query carries.
        compiled: usize,
    },
    /// A saved evaluator state does not fit the plan (wrong vector
    /// lengths — e.g. a snapshot from a different query or version).
    SavedState(&'static str),
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::SlotCountMismatch { plan, compiled } => write!(
                f,
                "plan/query slot count mismatch: plan circuit has {plan}, compiled query {compiled}"
            ),
            PartsError::LitCountMismatch { plan, compiled } => write!(
                f,
                "plan/query literal count mismatch: plan circuit has {plan}, compiled query {compiled}"
            ),
            PartsError::SavedState(msg) => write!(f, "saved state does not fit plan: {msg}"),
        }
    }
}

impl std::error::Error for PartsError {}

/// A compiled weighted query bound to live weight values: supports point
/// queries at free-variable tuples, batched zero-restore queries, weight
/// updates, and (in dynamic-atom mode) Gaifman-preserving relation
/// updates.
///
/// * General semirings: `O(log |A|)` per query/update (via segment-tree
///   permanents), tight by Proposition 14.
/// * Rings and finite semirings: `O(1)` per query/update.
///
/// Point queries read the output with the queried tuple's `v_i`
/// indicator slots patched ([`DynEvaluator::peek_memo`]): only the
/// query-bounded cone above those slots is re-evaluated and nothing is
/// committed or rolled back, where the proof of Theorem 8 runs `2|x̄|`
/// update/restore cycles.
pub struct QueryEngine<S: Semiring, P: PermMaint<S>> {
    compiled: Arc<CompiledQuery<S>>,
    eval: DynEvaluator<S, P>,
    scratch: PeekScratch<S>,
    patch_buf: Vec<(u32, S)>,
}

/// Theorem 8 engine for arbitrary semirings (logarithmic updates).
pub type GeneralEngine<S> = QueryEngine<S, SegTreePerm<S>>;
/// Theorem 8 engine for rings (constant-time updates, Corollary 17).
pub type RingEngine<S> = QueryEngine<S, RingMaint<S>>;
/// Theorem 8 engine for finite semirings (constant-time updates,
/// Corollary 20).
pub type FiniteEngine<S> = QueryEngine<S, FiniteMaint<S>>;

impl<S: Semiring, P: PermMaint<S>> QueryEngine<S, P> {
    /// Bind a compiled query to concrete weights (and, in dynamic-atom
    /// mode, the current relation contents). Derives the evaluation plan
    /// with memoized cones for every `FreeVar` indicator slot.
    pub fn new(compiled: CompiledQuery<S>, weights: &WeightedStructure<S>) -> Self {
        let compiled = Arc::new(compiled);
        let plan = Arc::new(compiled.eval_plan());
        Self::from_parts(compiled, plan, weights)
    }

    /// Derive the shared evaluation plan of a compiled query
    /// ([`CompiledQuery::eval_plan`]).
    pub fn build_plan(compiled: &CompiledQuery<S>) -> EvalPlan {
        compiled.eval_plan()
    }

    /// Instantiate a mutable engine *state* over shared plan halves —
    /// the per-shard constructor of the sharded engine. Cost: one circuit
    /// evaluation; no compilation, no adjacency rebuild.
    pub fn from_parts(
        compiled: Arc<CompiledQuery<S>>,
        plan: Arc<EvalPlan>,
        weights: &WeightedStructure<S>,
    ) -> Self {
        match Self::try_from_parts(compiled, plan, weights) {
            Ok(engine) => engine,
            Err(e) => panic!("QueryEngine::from_parts: {e}"),
        }
    }

    /// Fallible form of [`from_parts`](Self::from_parts): validates that
    /// the plan actually belongs to the compiled query before touching the
    /// evaluator, so recovery paths loading plan halves from disk get a
    /// typed [`PartsError`] instead of an assertion panic.
    pub fn try_from_parts(
        compiled: Arc<CompiledQuery<S>>,
        plan: Arc<EvalPlan>,
        weights: &WeightedStructure<S>,
    ) -> Result<Self, PartsError> {
        Self::check_plan(&compiled, &plan)?;
        let a = weights.structure();
        let slot_values: Vec<S> = compiled
            .slots
            .iter()
            .map(|(_, key)| match key {
                SlotKey::Weight(w, t) => weights.get(w, t.as_slice()),
                SlotKey::FreeVar(..) => S::zero(),
                SlotKey::AtomPos(r, t) => {
                    if a.holds(r, t.as_slice()) {
                        S::one()
                    } else {
                        S::zero()
                    }
                }
                SlotKey::AtomNeg(r, t) => {
                    if a.holds(r, t.as_slice()) {
                        S::zero()
                    } else {
                        S::one()
                    }
                }
            })
            .collect();
        let eval = DynEvaluator::from_plan(plan, &slot_values, &compiled.lits);
        Ok(QueryEngine {
            compiled,
            eval,
            scratch: PeekScratch::new(),
            patch_buf: Vec::new(),
        })
    }

    /// Reinstate an engine from a saved evaluator state (`slot_values`
    /// and committed `gate_values` as exposed by
    /// [`evaluator`](Self::evaluator)) without re-evaluating the circuit:
    /// the restore half of snapshot/restore.
    pub fn from_saved(
        compiled: Arc<CompiledQuery<S>>,
        plan: Arc<EvalPlan>,
        slot_values: Vec<S>,
        gate_values: Vec<S>,
    ) -> Result<Self, PartsError> {
        Self::check_plan(&compiled, &plan)?;
        let eval = DynEvaluator::from_saved(plan, slot_values, gate_values)
            .map_err(PartsError::SavedState)?;
        Ok(QueryEngine {
            compiled,
            eval,
            scratch: PeekScratch::new(),
            patch_buf: Vec::new(),
        })
    }

    fn check_plan(compiled: &CompiledQuery<S>, plan: &EvalPlan) -> Result<(), PartsError> {
        let circuit = plan.circuit();
        if circuit.num_slots() != compiled.slots.len() {
            return Err(PartsError::SlotCountMismatch {
                plan: circuit.num_slots(),
                compiled: compiled.slots.len(),
            });
        }
        if circuit.num_lits() != compiled.lits.len() {
            return Err(PartsError::LitCountMismatch {
                plan: circuit.num_lits(),
                compiled: compiled.lits.len(),
            });
        }
        Ok(())
    }

    /// The live evaluator state (read-only; snapshotting reads
    /// `slot_values()` / `gate_values()` through this).
    pub fn evaluator(&self) -> &DynEvaluator<S, P> {
        &self.eval
    }

    /// The compiled query this engine runs.
    pub fn compiled(&self) -> &CompiledQuery<S> {
        &self.compiled
    }

    /// The compiled query behind its shareable `Arc`.
    pub fn compiled_arc(&self) -> &Arc<CompiledQuery<S>> {
        &self.compiled
    }

    /// The shared evaluation plan (for instantiating sibling states).
    pub fn plan(&self) -> &Arc<EvalPlan> {
        self.eval.plan()
    }

    /// Value of a closed query (meaningless when free variables exist —
    /// with all indicators at 0 every free term contributes 0).
    pub fn value(&self) -> &S {
        self.eval.output()
    }

    /// Value at a free-variable tuple: the output with the `v_i`
    /// indicator slots patched to `1`, read by one topological sweep of
    /// their cone (memoized in the plan) with no state mutation or
    /// restore pass.
    pub fn query(&mut self, tuple: &[Elem]) -> S {
        let mut patches = std::mem::take(&mut self.patch_buf);
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.query_with(tuple, &mut scratch, &mut patches);
        self.patch_buf = patches;
        self.scratch = scratch;
        out
    }

    /// [`QueryEngine::query`] through caller-provided scratch, taking
    /// `&self`: the form used by batch workers and by shard read-locks
    /// (the evaluator is never mutated, so any number of `query_with`
    /// calls may run concurrently on one engine).
    pub fn query_with(
        &self,
        tuple: &[Elem],
        scratch: &mut PeekScratch<S>,
        patches: &mut Vec<(u32, S)>,
    ) -> S {
        patches.clear();
        match self.free_var_patches(tuple, patches) {
            true => self.eval.peek_memo(patches, scratch),
            false => S::zero(),
        }
    }

    /// Values at many free-variable tuples. Equivalent to mapping
    /// [`QueryEngine::query`] over `tuples`, with per-query setup
    /// amortized across one reusable scratch per worker.
    ///
    /// Because a point query never mutates the evaluator, the batch fans
    /// out over one worker per available core. Results are returned in
    /// input order regardless.
    pub fn query_batch(&self, tuples: &[&[Elem]]) -> Vec<S>
    where
        P: Sync,
    {
        let run_chunk = |chunk: &[&[Elem]]| -> Vec<S> {
            let mut scratch = PeekScratch::new();
            let mut patches = Vec::new();
            chunk
                .iter()
                .map(|tuple| self.query_with(tuple, &mut scratch, &mut patches))
                .collect()
        };
        let threads = crate::available_cores().min(tuples.len());
        if threads <= 1 {
            return run_chunk(tuples);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = tuples
                .chunks(tuples.len().div_ceil(threads))
                .map(|chunk| scope.spawn(move || run_chunk(chunk)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch worker"))
                .collect()
        })
    }

    /// Build the `v_i(a) := 1` patch list for `tuple`; false when some
    /// indicator has no slot (no gate reads `v_i(a)`: no shape can place
    /// the variable there, so the value is structurally zero).
    fn free_var_patches(&self, tuple: &[Elem], patches: &mut Vec<(u32, S)>) -> bool {
        assert_eq!(
            tuple.len(),
            self.compiled.free_vars.len(),
            "query tuple arity mismatch"
        );
        for (i, &a) in tuple.iter().enumerate() {
            match self.compiled.slots.lookup(&SlotKey::FreeVar(i as u8, a)) {
                Some(slot) => patches.push((slot, S::one())),
                None => return false,
            }
        }
        true
    }

    /// Update a weight: `w(t̄) := value`. Returns false when the weight is
    /// structurally irrelevant (no gate reads it; the query value cannot
    /// depend on it).
    pub fn set_weight(&mut self, w: WeightId, t: &[Elem], value: S) -> bool {
        match self
            .compiled
            .slots
            .lookup(&SlotKey::Weight(w, Tuple::new(t)))
        {
            Some(slot) => {
                self.eval.set_input(slot, value);
                true
            }
            None => false,
        }
    }

    /// Apply a [`TupleUpdate`] (dynamic-atom mode only). Equivalent to
    /// [`QueryEngine::set_atom`]; returns false when the tuple has no
    /// compiled atom slots (a structural zero). Routed through the batch
    /// machinery ([`QueryEngine::apply_batch`] at size one), so the two
    /// paths cannot diverge; net no-ops (presence already at the target)
    /// short-circuit before any gate is touched.
    pub fn apply_update(&mut self, u: &TupleUpdate) -> bool {
        self.set_atom(u.rel, &u.tuple, u.present)
    }

    /// Apply a whole batch of [`TupleUpdate`]s with **one** coalesced
    /// dirty-propagation sweep ([`DynEvaluator::set_inputs`]): updates are
    /// deduplicated per tuple (the last update to a `(rel, tuple)` wins),
    /// net no-ops are dropped, and the union of touched slots is repaired
    /// in a single topological pass — gates shared by several update cones
    /// are recomputed once per batch instead of once per update.
    ///
    /// Accepts `&[TupleUpdate]` or `&[&TupleUpdate]`. Returns the number
    /// of coalesced updates with compiled atom slots (updates on tuples
    /// without any are structural zeros and count as unapplied, matching
    /// [`QueryEngine::apply_update`]'s `false`).
    pub fn apply_batch<U: std::borrow::Borrow<TupleUpdate>>(&mut self, updates: &[U]) -> usize {
        let mut coalesced = Vec::with_capacity(updates.len());
        crate::batch::coalesce_updates(updates, &mut coalesced);
        self.apply_batch_coalesced(&coalesced)
    }

    /// [`QueryEngine::apply_batch`] for a batch that is **already
    /// coalesced** (at most one update per `(rel, tuple)`, e.g. by
    /// [`crate::coalesce_updates`]) — skips the dedup pass so a stack
    /// that coalesced at its top layer does not pay for it again here.
    /// Tuples duplicated within `updates` are staged against the same
    /// pre-batch state, so which duplicate wins is unspecified: callers
    /// must guarantee distinctness.
    pub fn apply_batch_coalesced(&mut self, updates: &[&TupleUpdate]) -> usize {
        let mut patches = self.take_patches();
        let mut applied = 0usize;
        for u in updates {
            if let Some(slots) = self.compiled.slots.atom_slots(u.rel, &u.tuple) {
                self.stage_slots(slots, u.present, &mut patches);
                applied += 1;
            }
        }
        self.commit_patches(patches);
        applied
    }

    /// Apply a coalesced batch whose indicator slots are **already
    /// resolved** ([`crate::SlotRegistry::atom_slots`] on this query's
    /// registry, or on one with the same numbering): the form an engine
    /// that feeds several valuations of one circuit uses, so the
    /// `(rel, tuple)` hash lookups happen once per update, not once per
    /// valuation. One dirty-propagation sweep, net no-ops dropped.
    pub fn apply_resolved(&mut self, staged: &[(AtomSlots, bool)]) {
        let mut patches = self.take_patches();
        for &(slots, present) in staged {
            self.stage_slots(slots, present, &mut patches);
        }
        self.commit_patches(patches);
    }

    /// Dynamic-atom mode only: insert/remove a tuple of relation `r`
    /// (must preserve the Gaifman graph — tuples over non-cliques were
    /// compiled away as structural zeros and return false). This is the
    /// batch path at size one.
    pub fn set_atom(&mut self, r: RelId, t: &[Elem], present: bool) -> bool {
        match self.compiled.slots.atom_slots(r, t) {
            Some(slots) => {
                self.apply_resolved(&[(slots, present)]);
                true
            }
            None => false,
        }
    }

    /// Stage the slot patches of one atom flip into `patches`, skipping
    /// slots already at the target value (net no-ops).
    fn stage_slots(&self, (pos, neg): AtomSlots, present: bool, patches: &mut Vec<(u32, S)>) {
        let (pv, nv) = if present {
            (S::one(), S::zero())
        } else {
            (S::zero(), S::one())
        };
        if let Some(slot) = pos {
            if *self.eval.slot_value(slot) != pv {
                patches.push((slot, pv));
            }
        }
        if let Some(slot) = neg {
            if *self.eval.slot_value(slot) != nv {
                patches.push((slot, nv));
            }
        }
    }

    /// The reusable patch buffer, emptied (a point query leaves its
    /// indicator patches behind).
    fn take_patches(&mut self) -> Vec<(u32, S)> {
        let mut patches = std::mem::take(&mut self.patch_buf);
        patches.clear();
        patches
    }

    /// Commit staged patches in one sweep and hand the buffer back.
    fn commit_patches(&mut self, mut patches: Vec<(u32, S)>) {
        self.eval.set_inputs(&patches);
        patches.clear();
        self.patch_buf = patches;
    }
}
