//! Result (D): constant-delay enumeration of first-order query answers,
//! dynamic under Gaifman-preserving updates (Theorem 24).
//!
//! # One circuit, three valuations
//!
//! The paper builds **one** circuit per query (Theorem 6) and reads
//! everything off it by changing the semiring. For `φ(x₁…x_k)` it
//! computes the closed expression `Σ_x̄ [φ] · v₁(x₁)⋯v_k(x_k)`, and its
//! `v_i(a)` input slots ([`SlotKey::FreeVar`]) are valuated
//!
//! * in the carrier `S` with the indicators of one tuple — the point
//!   query `[φ(ā)]` of Theorem 8 (`agq_core::QueryEngine`);
//! * in the **free semiring** with Section 6's fresh generators `e^i_a`
//!   — one summand `e¹_{a₁}⋯e^k_{a_k}` per answer, which the enumerator
//!   of [`crate::machine`] yields with constant delay, duplicate-free;
//! * in **ℕ** with every slot's summand count — the per-gate counts
//!   behind [`AnswerIndex::count`] and [`AnswerIndex::answer`].
//!
//! An [`AnswerIndex`] is the second and third valuation. Built by an
//! engine ([`AnswerIndex::from_compiled`]) it shares the engine's
//! `Arc<Circuit>`, slot registry and `EvalPlan`; built standalone it
//! runs the same compilation itself. In dynamic mode the relations are
//! 0/1 inputs (Lemma 40's `v±_R` weights), so Gaifman-preserving tuple
//! updates are O(1) maintenance on every valuation.

use crate::cursor::SummandIter;
use crate::machine::{EnumMachine, EnumPlan, InputVal};
use agq_circuit::EvalPlan;
use agq_core::{
    compile_query, eliminate_quantifiers, AtomSlots, CompileError, CompileOptions, CompiledQuery,
    SlotKey, SlotRegistry, TupleUpdate,
};
use agq_logic::{normalize, Expr, Formula};
use agq_semiring::{Gen, Nat, Semiring};
use agq_structure::{Elem, RelId, Signature, Structure};
use std::sync::Arc;

#[cfg(test)]
thread_local! {
    /// Entries into [`compile_indicator`] on this thread (the tests pin
    /// "one compilation per `build*` call" with it).
    pub(crate) static COMPILATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The one Theorem 6 compilation behind every index and engine of this
/// crate: the indicator expression `[φ]` over carrier `S`, with φ's free
/// variables as the query tuple. Returns the compile output and the
/// structure it was compiled against (`a` plus the helper predicates of
/// guarded quantifier elimination). Dynamic mode requires a
/// quantifier-free `φ` — elimination materializes static predicates
/// which updates would invalidate — and says so **before** any work.
pub(crate) fn compile_indicator<S: Semiring>(
    a: &Structure,
    phi: &Formula,
    opts: &CompileOptions,
    dynamic: bool,
) -> Result<(CompiledQuery<S>, Arc<Structure>), CompileError> {
    if dynamic && !phi.is_quantifier_free() {
        return Err(CompileError::UnsupportedQuantifier {
            formula: format!("{phi:?} (dynamic indexes require quantifier-free φ)"),
        });
    }
    #[cfg(test)]
    COMPILATIONS.with(|c| c.set(c.get() + 1));
    let mut copts = opts.clone();
    copts.dynamic_atoms = dynamic;
    let (expr, a2) = eliminate_quantifiers(&Expr::<S>::Bracket(phi.clone()), a, &copts)?;
    let nf = normalize(&expr)?;
    let compiled = compile_query(&a2, &nf, phi.free_vars(), &copts)?;
    Ok((compiled, a2))
}

/// Errors raised by answer-index updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The tuple's elements are not a clique of the (compile-time)
    /// Gaifman graph — the update is not Gaifman-preserving.
    NotGaifmanPreserving,
    /// The index was built statically (`dynamic = false`).
    StaticIndex,
    /// The tuple is malformed for the indexed database: unknown
    /// relation, wrong arity, or an element outside the domain.
    MalformedTuple,
    /// The batch could not be journaled to the attached write-ahead log
    /// within the engine's durability policy. Under fail-stop the batch
    /// was **rejected** — nothing was applied and the LSN did not
    /// advance; only a fail-open engine applies past this error (and
    /// reports itself `wal_degraded` instead of raising it).
    Wal(String),
    /// The update routes to a quarantined shard: it was rejected in full
    /// (batches are all-or-nothing across shards). Restore the shard
    /// first, then retry.
    ShardUnavailable {
        /// The quarantined shard the update routes to.
        shard: usize,
    },
    /// A shard worker panicked while applying this (already journaled)
    /// batch. The named shards are now quarantined; every other shard
    /// applied its part and keeps serving. Replaying the WAL through a
    /// shard restore completes the partial application.
    ShardPanicked {
        /// The shards quarantined by the panic, ascending.
        shards: Vec<usize>,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NotGaifmanPreserving => {
                write!(f, "update does not preserve the Gaifman graph")
            }
            UpdateError::StaticIndex => write!(f, "index was built without dynamic support"),
            UpdateError::MalformedTuple => {
                write!(f, "tuple has wrong arity or an out-of-domain element")
            }
            UpdateError::Wal(e) => {
                write!(f, "batch could not be journaled to the WAL: {e}")
            }
            UpdateError::ShardUnavailable { shard } => {
                write!(f, "update routes to quarantined shard {shard}")
            }
            UpdateError::ShardPanicked { shards } => {
                write!(
                    f,
                    "shard worker panicked applying the batch; quarantined {shards:?}"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// A fail-stop rejection from [`agq_core::Journal::commit`].
impl From<std::io::Error> for UpdateError {
    fn from(e: std::io::Error) -> Self {
        UpdateError::Wal(e.to_string())
    }
}

/// A preprocessed first-order query ready for constant-delay answer
/// enumeration (and constant-time maintenance in dynamic mode).
///
/// The index follows the plan/state split of [`EnumMachine`]: the
/// compiled circuit and its [`SlotRegistry`] are immutable and shared
/// behind `Arc`s — with the point-query engine, when there is one —
/// while the machine state (input summand lists, support shadow) is
/// per-index. [`AnswerIndex::shard_filtered`] instantiates a sibling
/// state over the same plan whose generators are restricted to one set
/// of domain elements — the per-shard answer indexes of the sharded
/// engine.
pub struct AnswerIndex {
    machine: EnumMachine,
    slots: Arc<SlotRegistry>,
    arity: usize,
    dynamic: bool,
    /// Signature of the compiled structure — relation arities for
    /// up-front update validation.
    sig: Arc<Signature>,
    /// Domain size of the indexed structure, for the same validation.
    domain_size: usize,
    /// Reused indicator-flip staging of the update path.
    flips: Vec<(u32, bool)>,
}

impl AnswerIndex {
    /// Preprocess `φ` over `a` in time `O_φ(|A|)` for enumeration only
    /// (quantifiers allowed via guarded elimination).
    pub fn build(
        a: &Structure,
        phi: &Formula,
        opts: &CompileOptions,
    ) -> Result<Self, CompileError> {
        Self::build_inner(a, phi, opts, false)
    }

    /// Preprocess `φ` for enumeration **and** Gaifman-preserving updates
    /// (Theorem 24's dynamic form). Requires a quantifier-free `φ` — the
    /// guarded elimination materializes static predicates which updates
    /// would invalidate.
    pub fn build_dynamic(
        a: &Structure,
        phi: &Formula,
        opts: &CompileOptions,
    ) -> Result<Self, CompileError> {
        Self::build_inner(a, phi, opts, true)
    }

    fn build_inner(
        a: &Structure,
        phi: &Formula,
        opts: &CompileOptions,
        dynamic: bool,
    ) -> Result<Self, CompileError> {
        let (compiled, a2) = compile_indicator::<Nat>(a, phi, opts, dynamic)?;
        let plan = EnumPlan::new(compiled.circuit.clone());
        Ok(Self::over_plan(plan, &compiled, &a2, dynamic))
    }

    /// The enumeration and count valuations of an **already compiled**
    /// indicator query `[φ]` (`compiled`, against `a`): the index shares
    /// `compiled`'s circuit and slot registry and runs its count side on
    /// `eval_plan` — the engine constructors hand over the point side's,
    /// so one build holds one circuit and one evaluation plan.
    ///
    /// # Panics
    /// Panics if `eval_plan` is not a plan of `compiled.circuit`, or if
    /// the circuit reads literal coefficients or declared weights (no
    /// `[φ]` does).
    pub fn from_compiled<S>(
        compiled: &CompiledQuery<S>,
        eval_plan: Arc<EvalPlan>,
        a: &Structure,
        dynamic: bool,
    ) -> AnswerIndex {
        assert!(
            Arc::ptr_eq(eval_plan.circuit(), &compiled.circuit),
            "evaluation plan belongs to another circuit"
        );
        Self::over_plan(EnumPlan::with_eval_plan(eval_plan), compiled, a, dynamic)
    }

    fn over_plan<S>(
        plan: EnumPlan,
        compiled: &CompiledQuery<S>,
        a: &Structure,
        dynamic: bool,
    ) -> AnswerIndex {
        // Input values in the free semiring: `v_i(a)` is the generator
        // `e^i_a`, atom indicators are 0/1.
        let values: Vec<InputVal> = compiled
            .slots
            .iter()
            .map(|(_, key)| match key {
                SlotKey::FreeVar(pos, e) => vec![vec![Gen::pack(pos as u32, e)]],
                SlotKey::AtomPos(r, t) => bool_val(a.holds(r, t.as_slice())),
                SlotKey::AtomNeg(r, t) => bool_val(!a.holds(r, t.as_slice())),
                SlotKey::Weight(..) => unreachable!("[φ] reads no declared weight"),
            })
            .collect();
        AnswerIndex {
            machine: EnumMachine::from_plan(Arc::new(plan), values),
            slots: compiled.slots.clone(),
            arity: compiled.free_vars.len(),
            dynamic,
            sig: a.signature().clone(),
            domain_size: a.domain_size(),
            flips: Vec::new(),
        }
    }

    /// Instantiate a sibling index over the **same shared plan**, keeping
    /// only the answers whose elements all satisfy `keep`: generator
    /// slots `e^i_a` with `!keep(a)` are zeroed, which kills every
    /// summand (answer) mentioning such an element, while atom-indicator
    /// slots copy this index's current state. This is the shard
    /// constructor of the sharded engine — each Gaifman shard keeps the
    /// answers of its own components and absorbs only its own updates.
    ///
    /// Cost: one bottom-up support pass (no compilation, no adjacency
    /// rebuild).
    pub fn shard_filtered(&self, mut keep: impl FnMut(Elem) -> bool) -> AnswerIndex {
        let values: Vec<InputVal> = self
            .slots
            .iter()
            .map(|(slot, key)| match key {
                SlotKey::FreeVar(_, e) if !keep(e) => Vec::new(),
                _ => self.machine.input(slot).clone(),
            })
            .collect();
        AnswerIndex {
            machine: EnumMachine::from_plan(self.machine.plan().clone(), values),
            slots: self.slots.clone(),
            arity: self.arity,
            dynamic: self.dynamic,
            sig: self.sig.clone(),
            domain_size: self.domain_size,
            flips: Vec::new(),
        }
    }

    /// Reassemble an index from its saved parts — the restore half of
    /// snapshot/restore (`agq-persist`). The `machine` must have been
    /// rebuilt over this query's [`crate::machine::EnumPlan`]
    /// ([`EnumMachine::from_saved`]); the remaining arguments are what
    /// the accessors of the same names exposed at save time.
    pub fn from_saved_parts(
        machine: EnumMachine,
        slots: Arc<SlotRegistry>,
        arity: usize,
        dynamic: bool,
        sig: Arc<Signature>,
        domain_size: usize,
    ) -> AnswerIndex {
        AnswerIndex {
            machine,
            slots,
            arity,
            dynamic,
            sig,
            domain_size,
            flips: Vec::new(),
        }
    }

    /// The slot registry of the compiled circuit — in an engine, the
    /// same `Arc` the point-query side reads.
    pub fn slot_registry(&self) -> &Arc<SlotRegistry> {
        &self.slots
    }

    /// Whether slot ids resolved against this index's registry are valid
    /// in `other` — the same `Arc`, or an independent compilation of the
    /// same query (compilation is deterministic, so those number their
    /// slots identically).
    pub(crate) fn same_slots_as(&self, other: &Arc<SlotRegistry>) -> bool {
        Arc::ptr_eq(&self.slots, other) || self.slots.same_numbering(other)
    }

    /// Signature of the compiled structure.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// Domain size of the indexed structure.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Whether the index was built with dynamic-update support.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Answer-tuple arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of answers, from the incrementally maintained per-gate
    /// summand counts: `O_φ(|A|)` the first time (one ℕ evaluation of
    /// the circuit), then `O_φ(pending updates)` — the same counts that
    /// back [`AnswerIndex::answer`]. Counts wrap at `2^64` (see the
    /// overflow policy in the crate docs).
    pub fn count(&self) -> u64 {
        self.machine.summand_count()
    }

    /// Direct access: the `k`-th answer (0-based) of the enumeration
    /// order of [`AnswerIndex::iter`], **without** enumerating the
    /// preceding answers — `None` iff `k >= count()`.
    ///
    /// Cost is `O(depth × perm rows)` gate visits: a single root-to-leaf
    /// rank descent over the maintained subtree counts (`Add`: prefix
    /// scan of live children; `Mul`: div/mod split; `Perm`: per-row
    /// column-choice blocks sized by submatrix permanents), independent
    /// of `k` and of the answer count.
    pub fn answer(&self, k: u64) -> Option<Vec<Elem>> {
        self.iter().seek(k)
    }

    /// [`AnswerIndex::answer`] plus the number of gate visits the rank
    /// descent performed (instrumentation for the complexity contract).
    pub fn answer_counting(&self, k: u64) -> (Option<Vec<Elem>>, u64) {
        self.iter().seek_counting(k)
    }

    /// The answers of ranks `k, k+1, …, k+len-1` (clipped at the end of
    /// the answer set): one rank descent to seek, then a constant-delay
    /// cursor walk — pagination without enumerating ranks `< k`.
    pub fn answer_range(&self, k: u64, len: usize) -> Vec<Vec<Elem>> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let mut it = self.iter();
        if let Some(first) = it.seek(k) {
            out.push(first);
            while out.len() < len {
                match it.next() {
                    Some(t) => out.push(t),
                    None => break,
                }
            }
        }
        out
    }

    /// A uniformly random answer derived from `rng_seed` (deterministic
    /// per seed), or `None` if the answer set is empty. One rank descent
    /// — no enumeration, no rejection loop.
    pub fn sample(&self, rng_seed: u64) -> Option<Vec<Elem>> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        // splitmix64 the seed, then an unbiased-enough multiply-shift
        // reduction onto [0, n).
        let k = ((splitmix64(rng_seed) as u128 * n as u128) >> 64) as u64;
        self.answer(k)
    }

    /// Whether at least one answer exists — `O_φ(1)` from the support
    /// shadow.
    pub fn is_nonempty(&self) -> bool {
        self.machine.output_supported()
    }

    /// The underlying enumeration machine (for instrumentation).
    pub fn machine(&self) -> &EnumMachine {
        &self.machine
    }

    /// Invariant verification for recovery and quarantine-restore paths:
    /// [`EnumMachine::self_check`] (support shadow, add-gate live bits,
    /// perm-pool bucket links — all against the plan) plus
    /// slot/count consistency — the incrementally maintained summand
    /// count must agree with a fresh ℕ evaluation of the circuit over
    /// the current inputs. Linear time; not for the serving path.
    pub fn self_check(&self) -> Result<(), String> {
        self.machine.self_check()?;
        let incremental = self.machine.summand_count();
        let fresh = self.machine.count_summands();
        if incremental != fresh {
            return Err(format!(
                "count drift: incremental evaluator says {incremental}, fresh ℕ evaluation {fresh}"
            ));
        }
        Ok(())
    }

    /// Constant-delay, duplicate-free, bidirectional iterator over the
    /// answers.
    pub fn iter(&self) -> AnswerIter<'_> {
        AnswerIter {
            inner: self.machine.summands(),
            arity: self.arity,
        }
    }

    /// Dynamic mode: set membership of `tuple` in relation `r`.
    ///
    /// Constant time, allocation-free (the indicator slots toggle in
    /// place). Fails if the index is static or the tuple is not a clique
    /// of the compile-time Gaifman graph (insertions only; removing a
    /// never-representable tuple is a no-op). Net no-ops — membership
    /// already at the target — short-circuit without invalidating
    /// outstanding iterators. This is the batch path
    /// ([`AnswerIndex::apply_batch`]) at size one.
    pub fn set_tuple(
        &mut self,
        r: RelId,
        tuple: &[Elem],
        present: bool,
    ) -> Result<(), UpdateError> {
        if let Some(slots) = self.resolve_update(r, tuple, present)? {
            self.apply_resolved(&[(slots, present)]);
        }
        Ok(())
    }

    /// Validate one update and resolve its indicator slots, without
    /// mutating anything: `Ok(None)` is the removing-a-never-
    /// representable-tuple no-op. The verdict and the slot ids depend
    /// only on the shared compiled plan, so any index or point-query
    /// engine over the same registry can apply them
    /// ([`AnswerIndex::apply_resolved`],
    /// `agq_core::QueryEngine::apply_resolved`) — the engines resolve
    /// each update once, before journaling or taking further locks.
    pub fn resolve_update(
        &self,
        r: RelId,
        tuple: &[Elem],
        present: bool,
    ) -> Result<Option<AtomSlots>, UpdateError> {
        if !self.dynamic {
            return Err(UpdateError::StaticIndex);
        }
        if (r.0 as usize) >= self.sig.num_relations()
            || tuple.len() != self.sig.relation_arity(r)
            || tuple.iter().any(|&e| (e as usize) >= self.domain_size)
        {
            return Err(UpdateError::MalformedTuple);
        }
        let slots = self.slots.atom_slots(r, tuple);
        if slots.is_none() && present {
            // The compiler never materialized this atom: either the tuple
            // is not a clique (a true Gaifman violation when inserting) or
            // the atom provably cannot influence any answer (safe no-op
            // when removing). Reject insertions conservatively.
            return Err(UpdateError::NotGaifmanPreserving);
        }
        Ok(slots)
    }

    /// Apply one database update *incrementally*: the support shadow is
    /// patched along the (query-bounded) affected cone — `O_φ(1)` — and
    /// the index immediately enumerates the post-update answers, no
    /// rebuild. Shares the update language of
    /// [`agq_core::QueryEngine::apply_update`].
    pub fn apply_update(&mut self, u: &TupleUpdate) -> Result<(), UpdateError> {
        self.set_tuple(u.rel, &u.tuple, u.present)
    }

    /// Apply a whole batch of updates with **one** support sweep and one
    /// iterator invalidation: updates are coalesced per `(rel, tuple)`
    /// (the last one wins), net no-op flips are dropped against the
    /// machine's presence bitset, and the surviving indicator flips go
    /// through [`EnumMachine::set_input_bools`] in a single word-parallel
    /// pass.
    ///
    /// The whole batch is validated **before** anything is applied: on
    /// `Err` the index is unchanged (a batch is all-or-nothing, unlike a
    /// manual loop over [`AnswerIndex::apply_update`], which stops at the
    /// first offending update). Accepts `&[TupleUpdate]` or
    /// `&[&TupleUpdate]`; returns the number of coalesced updates that
    /// changed at least one indicator slot.
    pub fn apply_batch<U: std::borrow::Borrow<TupleUpdate>>(
        &mut self,
        updates: &[U],
    ) -> Result<usize, UpdateError> {
        let mut coalesced = Vec::with_capacity(updates.len());
        agq_core::coalesce_updates(updates, &mut coalesced);
        self.apply_batch_coalesced(&coalesced)
    }

    /// [`AnswerIndex::apply_batch`] for a batch that is **already
    /// coalesced** (at most one update per `(rel, tuple)`, e.g. by
    /// [`agq_core::coalesce_updates`]) — skips the dedup pass so a stack
    /// that coalesced at its top layer does not pay for it again here.
    /// Tuples duplicated within `updates` are staged against the same
    /// pre-batch state, so which duplicate wins is unspecified: callers
    /// must guarantee distinctness.
    pub fn apply_batch_coalesced(
        &mut self,
        updates: &[&TupleUpdate],
    ) -> Result<usize, UpdateError> {
        // Validate-and-resolve pass; nothing is mutated until it is
        // complete.
        let mut staged: Vec<(AtomSlots, bool)> = Vec::with_capacity(updates.len());
        for u in updates {
            if let Some(slots) = self.resolve_update(u.rel, &u.tuple, u.present)? {
                staged.push((slots, u.present));
            }
        }
        Ok(self.apply_resolved(&staged))
    }

    /// Apply a coalesced batch whose indicator slots are **already
    /// resolved** ([`AnswerIndex::resolve_update`], on this index or any
    /// other over the same registry): net no-op flips are dropped
    /// against the presence bitset and the rest go through one
    /// [`EnumMachine::set_input_bools`] sweep. Returns the number of
    /// updates that changed at least one indicator slot.
    pub fn apply_resolved(&mut self, staged: &[(AtomSlots, bool)]) -> usize {
        self.flips.clear();
        let mut applied = 0usize;
        for &((pos, neg), present) in staged {
            let before = self.flips.len();
            if let Some(s) = pos {
                if self.machine.input_present(s) != present {
                    self.flips.push((s, present));
                }
            }
            if let Some(s) = neg {
                // the negative indicator's target is the complement
                if self.machine.input_present(s) == present {
                    self.flips.push((s, !present));
                }
            }
            applied += usize::from(self.flips.len() > before);
        }
        if !self.flips.is_empty() {
            self.machine.set_input_bools(&self.flips);
        }
        applied
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer — turns a
/// caller-provided seed into a well-distributed word for sampling.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn bool_val(b: bool) -> InputVal {
    if b {
        vec![vec![]]
    } else {
        vec![]
    }
}

/// Bidirectional constant-delay iterator over answers.
pub struct AnswerIter<'a> {
    inner: SummandIter<'a>,
    arity: usize,
}

impl AnswerIter<'_> {
    /// Next answer tuple.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Vec<Elem>> {
        self.inner.next().map(|m| self.decode(m))
    }

    /// Previous answer tuple.
    pub fn prev(&mut self) -> Option<Vec<Elem>> {
        self.inner.prev().map(|m| self.decode(m))
    }

    /// Current answer tuple.
    pub fn current(&self) -> Option<Vec<Elem>> {
        self.inner.current().map(|m| self.decode(m))
    }

    /// Jump to the answer of rank `k` (0-based, enumeration order) with
    /// one O(depth) rank descent and return it; `None` (and a position
    /// past the end) iff `k` is out of range. [`AnswerIter::next`] /
    /// [`AnswerIter::prev`] continue from the sought position.
    pub fn seek(&mut self, k: u64) -> Option<Vec<Elem>> {
        self.inner.seek(k).map(|m| self.decode(m))
    }

    /// [`AnswerIter::seek`] plus the gate-visit count of the descent.
    pub fn seek_counting(&mut self, k: u64) -> (Option<Vec<Elem>>, u64) {
        let (m, visits) = self.inner.seek_counting(k);
        (m.map(|m| self.decode(m)), visits)
    }

    fn decode(&self, monomial: Vec<Gen>) -> Vec<Elem> {
        debug_assert_eq!(monomial.len(), self.arity);
        let mut out = vec![0 as Elem; self.arity];
        for g in monomial {
            let (slot, elem) = g.unpack();
            out[slot as usize] = elem;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_logic::Var;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, m: usize, seed: u64) -> Structure {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        sig.add_relation("S", 1);
        let mut a = Structure::new(Arc::new(sig), n);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..m {
            let x = rng.gen_range(0..n as u32);
            let y = rng.gen_range(0..n as u32);
            if x != y {
                a.insert(e, &[x, y]);
            }
        }
        a
    }

    fn sorted(mut v: Vec<Vec<Elem>>) -> Vec<Vec<Elem>> {
        v.sort();
        v
    }

    fn collect_all(ix: &AnswerIndex) -> Vec<Vec<Elem>> {
        let mut out = Vec::new();
        let mut it = ix.iter();
        while let Some(t) = it.next() {
            out.push(t);
        }
        out
    }

    fn check_against_baseline(a: &Structure, phi: &Formula) {
        let ix = AnswerIndex::build(a, phi, &CompileOptions::default()).unwrap();
        let got = collect_all(&ix);
        let expect = agq_baseline::all_answers(phi, a);
        assert_eq!(got.len() as u64, ix.count(), "count() consistent");
        assert_eq!(
            sorted(got.clone()),
            sorted(expect),
            "answer sets must agree"
        );
        // no duplicates
        let mut dedup = sorted(got.clone());
        dedup.dedup();
        assert_eq!(dedup.len(), got.len(), "no duplicate answers");
    }

    #[test]
    fn edges_enumeration() {
        for seed in 0..4 {
            let a = random_graph(18, 30, seed);
            let e = a.signature().relation("E").unwrap();
            check_against_baseline(&a, &Formula::Rel(e, vec![Var(0), Var(1)]));
        }
    }

    #[test]
    fn paths_of_length_two() {
        for seed in 0..3 {
            let a = random_graph(14, 28, 10 + seed);
            let e = a.signature().relation("E").unwrap();
            let phi = Formula::Rel(e, vec![Var(0), Var(1)])
                .and(Formula::Rel(e, vec![Var(1), Var(2)]))
                .and(Formula::neq(Var(0), Var(2)));
            check_against_baseline(&a, &phi);
        }
    }

    #[test]
    fn triangles_enumeration() {
        let a = random_graph(12, 40, 21);
        let e = a.signature().relation("E").unwrap();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)])
            .and(Formula::Rel(e, vec![Var(1), Var(2)]))
            .and(Formula::Rel(e, vec![Var(2), Var(0)]));
        check_against_baseline(&a, &phi);
    }

    #[test]
    fn non_edges_enumeration() {
        let a = random_graph(10, 16, 33);
        let e = a.signature().relation("E").unwrap();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)])
            .not()
            .and(Formula::neq(Var(0), Var(1)));
        check_against_baseline(&a, &phi);
    }

    #[test]
    fn quantified_formula_static() {
        // nodes with an out-neighbor that has an out-neighbor
        let a = random_graph(13, 22, 44);
        let e = a.signature().relation("E").unwrap();
        let inner = Formula::Exists(Var(2), Box::new(Formula::Rel(e, vec![Var(1), Var(2)])));
        let phi = Formula::Exists(
            Var(1),
            Box::new(Formula::Rel(e, vec![Var(0), Var(1)]).and(inner)),
        );
        check_against_baseline(&a, &phi);
    }

    #[test]
    fn bidirectional_walk() {
        let a = random_graph(12, 25, 55);
        let e = a.signature().relation("E").unwrap();
        let ix = AnswerIndex::build(
            &a,
            &Formula::Rel(e, vec![Var(0), Var(1)]),
            &CompileOptions::default(),
        )
        .unwrap();
        let fwd = collect_all(&ix);
        let mut it = ix.iter();
        while it.next().is_some() {}
        let mut back = Vec::new();
        while let Some(t) = it.prev() {
            back.push(t);
        }
        back.reverse();
        assert_eq!(fwd, back);
    }

    #[test]
    fn dynamic_updates_track_baseline() {
        let mut rng = SmallRng::seed_from_u64(66);
        let mut shadow = random_graph(14, 30, 66);
        let e = shadow.signature().relation("E").unwrap();
        let s = shadow.signature().relation("S").unwrap();
        // φ(x,y) = E(x,y) ∧ S(x): exercises binary + unary updates
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]).and(Formula::Rel(s, vec![Var(0)]));
        let mut ix = AnswerIndex::build_dynamic(&shadow, &phi, &CompileOptions::default()).unwrap();
        // candidate binary tuples: existing E tuples (and their reverses
        // — same Gaifman clique)
        let e_tuples: Vec<[u32; 2]> = shadow
            .relation(e)
            .iter()
            .map(|t| [t.as_slice()[0], t.as_slice()[1]])
            .collect();
        for step in 0..40 {
            if rng.gen_bool(0.5) {
                // toggle S(a)
                let v = rng.gen_range(0..14u32);
                let present = rng.gen_bool(0.5);
                if present {
                    shadow.insert(s, &[v]);
                } else {
                    shadow.remove(s, &[v]);
                }
                ix.set_tuple(s, &[v], present).unwrap();
            } else {
                // toggle an E tuple (forward or reversed — same clique)
                let t = e_tuples[rng.gen_range(0..e_tuples.len())];
                let t = if rng.gen_bool(0.5) { t } else { [t[1], t[0]] };
                let present = rng.gen_bool(0.5);
                if present {
                    shadow.insert(e, &t);
                } else {
                    shadow.remove(e, &t);
                }
                ix.set_tuple(e, &t, present).unwrap();
            }
            let got = sorted(collect_all(&ix));
            let expect = sorted(agq_baseline::all_answers(&phi, &shadow));
            assert_eq!(got, expect, "step {step}");
            // the incrementally maintained rank counts stay live
            assert_eq!(ix.count() as usize, got.len(), "step {step} count");
        }
    }

    #[test]
    fn non_gaifman_insert_rejected() {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let mut a = Structure::new(Arc::new(sig), 5);
        a.insert(e, &[0, 1]);
        a.insert(e, &[2, 3]);
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let mut ix = AnswerIndex::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
        // (0,3) is not an edge of the Gaifman graph
        assert_eq!(
            ix.set_tuple(e, &[0, 3], true),
            Err(UpdateError::NotGaifmanPreserving)
        );
        // removal of a never-representable tuple is a no-op
        assert_eq!(ix.set_tuple(e, &[0, 3], false), Ok(()));
    }

    #[test]
    fn direct_access_matches_iteration() {
        let a = random_graph(14, 28, 77);
        let e = a.signature().relation("E").unwrap();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)])
            .and(Formula::Rel(e, vec![Var(1), Var(2)]))
            .and(Formula::neq(Var(0), Var(2)));
        let ix = AnswerIndex::build(&a, &phi, &CompileOptions::default()).unwrap();
        let all = collect_all(&ix);
        assert!(!all.is_empty());
        for (k, t) in all.iter().enumerate() {
            assert_eq!(ix.answer(k as u64).as_ref(), Some(t), "rank {k}");
        }
        assert_eq!(ix.answer(all.len() as u64), None);
        assert_eq!(ix.answer(u64::MAX), None);
        // ranges: aligned with the enumeration, clipped at the end
        assert_eq!(ix.answer_range(0, all.len()), all);
        let mid = all.len() / 2;
        assert_eq!(
            ix.answer_range(mid as u64, 3),
            all[mid..(mid + 3).min(all.len())]
        );
        assert_eq!(
            ix.answer_range(all.len() as u64 - 1, 10),
            all[all.len() - 1..]
        );
        assert_eq!(
            ix.answer_range(all.len() as u64, 10),
            Vec::<Vec<Elem>>::new()
        );
        assert_eq!(ix.answer_range(2, 0), Vec::<Vec<Elem>>::new());
        // sampling: deterministic per seed, always a real answer
        for seed in 0..32u64 {
            let s = ix.sample(seed).expect("nonempty");
            assert!(all.contains(&s), "seed {seed}");
            assert_eq!(ix.sample(seed), Some(s));
        }
    }

    #[test]
    fn malformed_update_rejected_without_mutation() {
        let a = random_graph(10, 20, 91);
        let e = a.signature().relation("E").unwrap();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let mut ix = AnswerIndex::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
        let before = collect_all(&ix);
        // wrong arity (would panic in Tuple::new / slot lookup otherwise)
        assert_eq!(
            ix.set_tuple(e, &[0, 1, 2, 3, 4, 5], true),
            Err(UpdateError::MalformedTuple)
        );
        assert_eq!(
            ix.set_tuple(e, &[0], false),
            Err(UpdateError::MalformedTuple)
        );
        // out-of-domain element
        assert_eq!(
            ix.set_tuple(e, &[0, 10], true),
            Err(UpdateError::MalformedTuple)
        );
        // unknown relation id
        assert_eq!(
            ix.set_tuple(RelId(7), &[0, 1], true),
            Err(UpdateError::MalformedTuple)
        );
        assert_eq!(collect_all(&ix), before, "state untouched on error");
    }

    #[test]
    fn empty_answer_set() {
        let a = random_graph(8, 0, 1);
        let e = a.signature().relation("E").unwrap();
        let ix = AnswerIndex::build(
            &a,
            &Formula::Rel(e, vec![Var(0), Var(1)]),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(!ix.is_nonempty());
        assert_eq!(ix.count(), 0);
        assert!(collect_all(&ix).is_empty());
    }
}
