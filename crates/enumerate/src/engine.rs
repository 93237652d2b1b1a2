//! One engine API for a first-order query: point queries, answer
//! enumeration, and Gaifman-preserving updates behind a single facade.
//!
//! # One circuit, three valuations
//!
//! [`EnumQueryEngine`] compiles `φ` **once** (Theorem 6) and valuates
//! that one circuit three ways: [`agq_core::QueryEngine`] in the carrier
//! `S` — *point* queries, `is ā an answer?` as the semiring value
//! `[φ](ā)`; [`AnswerIndex`] in the free semiring — constant-delay
//! *enumeration*; and the index's lazy count side in ℕ — `count()` and
//! `answer(k)`. The two halves hold the same `Arc<Circuit>`, the same
//! slot registry and the same `EvalPlan`; an update is resolved to its
//! indicator slots once and that one `(pos, neg)` pair is written into
//! every valuation — so enumeration, point queries, and updates share
//! one engine API (and the differential test suite can assert they never
//! disagree).

use crate::answers::{compile_indicator, AnswerIndex, AnswerIter, UpdateError};
use agq_circuit::{FiniteMaint, PermMaint, RingMaint};
use agq_core::{
    AtomSlots, CompileError, CompileOptions, DurabilityPolicy, Journal, QueryEngine, TupleUpdate,
    WalSink,
};
use agq_logic::Formula;
use agq_perm::SegTreePerm;
use agq_semiring::Semiring;
use agq_structure::{Elem, Structure, WeightedStructure};
use std::sync::Arc;

/// A first-order query bound to a database, answering point queries,
/// constant-delay enumeration, and (in dynamic mode) constant-time
/// Gaifman-preserving updates through one API.
///
/// Every successfully applied update batch bumps a log sequence number
/// (LSN); when a [`WalSink`] is attached the batch is journaled
/// **write-ahead** under that LSN — validated, appended to the sink
/// (with the retry schedule of the configured [`DurabilityPolicy`]), and
/// only then applied in memory. That ordering is what makes a snapshot
/// (taken at [`last_lsn`](Self::last_lsn)) plus a WAL-tail replay
/// reconstruct the live state (`agq-persist`): a batch the WAL rejected
/// under fail-stop was never applied, and a batch the WAL accepted is
/// durable even if the process dies mid-apply. Under
/// [`agq_core::WalFailure::FailOpen`] the engine instead keeps serving
/// through a WAL outage and raises [`wal_degraded`](Self::wal_degraded).
/// State and commit rule live in the engine's [`Journal`].
pub struct EnumQueryEngine<S: Semiring, P: PermMaint<S>> {
    engine: QueryEngine<S, P>,
    index: AnswerIndex,
    journal: Journal,
    /// Reused resolved-slot staging of the update path.
    staged: Vec<(AtomSlots, bool)>,
}

/// Unified engine for arbitrary semirings (logarithmic point queries).
pub type GeneralEnumEngine<S> = EnumQueryEngine<S, SegTreePerm<S>>;
/// Unified engine for rings (constant-time point queries).
pub type RingEnumEngine<S> = EnumQueryEngine<S, RingMaint<S>>;
/// Unified engine for finite semirings (constant-time point queries).
pub type FiniteEnumEngine<S> = EnumQueryEngine<S, FiniteMaint<S>>;

impl<S: Semiring, P: PermMaint<S>> EnumQueryEngine<S, P> {
    /// Preprocess `φ` over `a` for point queries and enumeration only
    /// (quantifiers allowed via guarded elimination; updates rejected).
    pub fn build(
        a: &Arc<Structure>,
        phi: &Formula,
        opts: &CompileOptions,
    ) -> Result<Self, CompileError> {
        Self::build_inner(a, phi, opts, false)
    }

    /// Preprocess a quantifier-free `φ` over `a` for point queries,
    /// enumeration, **and** Gaifman-preserving updates (Theorem 24).
    pub fn build_dynamic(
        a: &Arc<Structure>,
        phi: &Formula,
        opts: &CompileOptions,
    ) -> Result<Self, CompileError> {
        Self::build_inner(a, phi, opts, true)
    }

    fn build_inner(
        a: &Arc<Structure>,
        phi: &Formula,
        opts: &CompileOptions,
        dynamic: bool,
    ) -> Result<Self, CompileError> {
        // One compilation of the indicator expression [φ] with φ's
        // variables free; `query(ā)` evaluates it to `[φ(ā)]` and the
        // answer index enumerates and counts over the same gates.
        let (compiled, a2) = compile_indicator::<S>(a, phi, opts, dynamic)?;
        let weights: WeightedStructure<S> = WeightedStructure::new(a2);
        let engine = QueryEngine::new(compiled, &weights);
        let index = AnswerIndex::from_compiled(
            engine.compiled(),
            engine.plan().clone(),
            weights.structure(),
            dynamic,
        );
        Ok(Self::from_parts(engine, index, 0))
    }

    /// Reassemble an engine from separately obtained halves — the
    /// restore constructor of `agq-persist`, and the way to assemble an
    /// engine from pieces built (and timed) one by one. The halves need
    /// not share their `Arc`s, but they must be valuations of the same
    /// compilation: updates are resolved once, against the index's slot
    /// registry, and applied to both by slot id. `last_lsn` seeds the log
    /// sequence counter (the LSN the restored state is current through).
    ///
    /// # Panics
    /// Panics if the two halves number their input slots differently.
    pub fn from_parts(engine: QueryEngine<S, P>, index: AnswerIndex, last_lsn: u64) -> Self {
        assert!(
            index.same_slots_as(&engine.compiled().slots),
            "EnumQueryEngine::from_parts: the halves were compiled from different queries"
        );
        EnumQueryEngine {
            engine,
            index,
            journal: Journal::new(last_lsn),
            staged: Vec::new(),
        }
    }

    /// Attach a write-ahead-log sink: every subsequently applied batch is
    /// appended to it under its LSN. Returns the previously attached sink.
    pub fn attach_wal(&mut self, sink: Box<dyn WalSink>) -> Option<Box<dyn WalSink>> {
        self.journal.sink.replace(sink)
    }

    /// Detach the WAL sink (e.g. before replaying a recovered tail, so
    /// the replay is not re-logged).
    pub fn detach_wal(&mut self) -> Option<Box<dyn WalSink>> {
        self.journal.sink.take()
    }

    /// The LSN of the last successfully applied update batch (0 before
    /// any update). A snapshot taken now is current through this LSN.
    pub fn last_lsn(&self) -> u64 {
        self.journal.last_lsn
    }

    /// Reset the log sequence counter — used after WAL replay so
    /// subsequent batches continue from the highest committed LSN
    /// rather than from the snapshot's.
    pub fn set_last_lsn(&mut self, lsn: u64) {
        self.journal.last_lsn = lsn;
    }

    /// How hard the engine tries to make a batch durable before giving
    /// up, and what "giving up" means (fail-stop rejection vs. degraded
    /// fail-open serving).
    pub fn set_durability(&mut self, policy: DurabilityPolicy) {
        self.journal.policy = policy;
    }

    /// The active [`DurabilityPolicy`].
    pub fn durability(&self) -> DurabilityPolicy {
        self.journal.policy
    }

    /// Whether a WAL append has failed past its retry budget under
    /// [`agq_core::WalFailure::FailOpen`] — the engine kept serving, but
    /// batches from that point on may be missing from the log (take a
    /// fresh snapshot before trusting it again).
    pub fn wal_degraded(&self) -> bool {
        self.journal.degraded
    }

    /// Acknowledge a WAL outage after repairing the sink (e.g.
    /// re-attaching a fresh one and snapshotting).
    pub fn reset_wal_degraded(&mut self) {
        self.journal.degraded = false;
    }

    /// Answer-tuple arity.
    pub fn arity(&self) -> usize {
        self.index.arity()
    }

    /// Point query: the indicator value `[φ(ā)]` (one when `ā` is an
    /// answer, zero otherwise). Zero-restore, `O_φ(log |A|)` general /
    /// `O_φ(1)` ring and finite backends.
    pub fn query(&mut self, tuple: &[Elem]) -> S {
        self.engine.query(tuple)
    }

    /// Number of answers, from the incrementally maintained rank counts
    /// (`O_φ(|A|)` on first use, then `O_φ(pending updates)`).
    pub fn count(&self) -> u64 {
        self.index.count()
    }

    /// Direct access: the `k`-th answer of enumeration order in
    /// `O(depth)` gate visits, no enumeration of preceding answers.
    /// `None` iff `k >= count()`. See [`AnswerIndex::answer`].
    pub fn answer(&self, k: u64) -> Option<Vec<Elem>> {
        self.index.answer(k)
    }

    /// Answers of ranks `k … k+len-1` — one rank descent plus a
    /// constant-delay cursor walk. See [`AnswerIndex::answer_range`].
    pub fn answer_range(&self, k: u64, len: usize) -> Vec<Vec<Elem>> {
        self.index.answer_range(k, len)
    }

    /// A uniformly random answer, deterministic per seed. See
    /// [`AnswerIndex::sample`].
    pub fn sample(&self, rng_seed: u64) -> Option<Vec<Elem>> {
        self.index.sample(rng_seed)
    }

    /// Whether at least one answer exists, in `O_φ(1)`.
    pub fn is_nonempty(&self) -> bool {
        self.index.is_nonempty()
    }

    /// Constant-delay, duplicate-free, bidirectional answer iterator.
    pub fn enumerate(&self) -> AnswerIter<'_> {
        self.index.iter()
    }

    /// Apply one update to *both* sides — the enumeration index
    /// incrementally (`O_φ(1)`, no rebuild) and the point-query
    /// evaluator. Dynamic mode only; the update must preserve the
    /// Gaifman graph and be well-formed (known relation, right arity,
    /// in-domain elements). On error nothing is modified on either
    /// side: the update is validated *before* it is journaled or
    /// applied, and the write-ahead journal commits (advancing the LSN)
    /// before either in-memory side mutates — a fail-stop WAL rejection
    /// therefore also leaves both sides untouched.
    pub fn apply_update(&mut self, u: &TupleUpdate) -> Result<(), UpdateError> {
        let slots = self.index.resolve_update(u.rel, &u.tuple, u.present)?;
        self.journal.commit(|| [u])?;
        if let Some(slots) = slots {
            let staged = [(slots, u.present)];
            self.index.apply_resolved(&staged);
            self.engine.apply_resolved(&staged);
        }
        Ok(())
    }

    /// Apply a whole batch of updates to *both* sides with one coalesced
    /// sweep each ([`AnswerIndex::apply_resolved`] and
    /// [`agq_core::QueryEngine::apply_resolved`]): per-tuple coalescing, net
    /// no-op dropping, and a single dirty propagation per side. The batch
    /// is validated up front — on `Err` nothing is modified. Returns the
    /// number of coalesced updates that changed the enumeration index.
    ///
    /// Coalescing runs **once**, here ([`agq_core::coalesce_updates`]),
    /// and so does slot resolution: each surviving update is validated
    /// and resolved to its `(pos, neg)` indicator slots in one pass, the
    /// borrowed batch is journaled, and both sides are written by slot
    /// id — on hot-key churn batches the per-incoming-update cost is one
    /// hash, not one per layer.
    pub fn apply_batch<U: std::borrow::Borrow<TupleUpdate>>(
        &mut self,
        updates: &[U],
    ) -> Result<usize, UpdateError> {
        let mut coalesced = Vec::with_capacity(updates.len());
        agq_core::coalesce_updates(updates, &mut coalesced);
        self.staged.clear();
        for u in &coalesced {
            if let Some(slots) = self.index.resolve_update(u.rel, &u.tuple, u.present)? {
                self.staged.push((slots, u.present));
            }
        }
        // Write-ahead: the batch is durable (or cleanly rejected, LSN
        // unadvanced) before anything mutates in memory.
        self.journal.commit(|| &coalesced)?;
        let applied = self.index.apply_resolved(&self.staged);
        self.engine.apply_resolved(&self.staged);
        Ok(applied)
    }

    /// [`EnumQueryEngine::apply_update`] followed by a fresh
    /// [`EnumQueryEngine::enumerate`]: the enumerate-after-update flow of
    /// Theorem 24, as one call.
    pub fn enumerate_after_update(
        &mut self,
        u: &TupleUpdate,
    ) -> Result<AnswerIter<'_>, UpdateError> {
        self.apply_update(u)?;
        Ok(self.index.iter())
    }

    /// Deep invariant verification of the enumeration state: structural
    /// consistency of the machine plus agreement between the incremental
    /// summand count and a fresh from-scratch evaluation. See
    /// [`AnswerIndex::self_check`].
    pub fn self_check(&self) -> Result<(), String> {
        self.index.self_check()
    }

    /// The point-query engine (instrumentation, batch queries).
    pub fn query_engine(&self) -> &QueryEngine<S, P> {
        &self.engine
    }

    /// The enumeration index (instrumentation).
    pub fn answer_index(&self) -> &AnswerIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_logic::Var;
    use agq_semiring::Nat;
    use agq_structure::Signature;

    fn small_graph() -> (Arc<Structure>, agq_structure::RelId) {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let mut a = Structure::new(Arc::new(sig), 6);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (3, 4)] {
            a.insert(e, &[u, v]);
            a.insert(e, &[v, u]);
        }
        (Arc::new(a), e)
    }

    #[test]
    fn point_queries_agree_with_enumeration() {
        let (a, e) = small_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let mut eng: GeneralEnumEngine<Nat> =
            EnumQueryEngine::build(&a, &phi, &CompileOptions::default()).unwrap();
        let mut answers = Vec::new();
        let mut it = eng.enumerate();
        while let Some(t) = it.next() {
            answers.push(t);
        }
        assert_eq!(answers.len() as u64, eng.count());
        for t in &answers {
            assert_eq!(eng.query(t), Nat(1), "enumerated answer {t:?}");
        }
        assert_eq!(eng.query(&[0, 3]), Nat(0), "non-answer");
    }

    #[test]
    fn update_patches_both_sides() {
        let (a, e) = small_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let mut eng: GeneralEnumEngine<Nat> =
            EnumQueryEngine::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
        let before = eng.count();
        let u = TupleUpdate::remove(e, &[0, 1]);
        let mut it = eng.enumerate_after_update(&u).unwrap();
        let mut n = 0;
        while it.next().is_some() {
            n += 1;
        }
        assert_eq!(n, before - 1);
        assert_eq!(eng.query(&[0, 1]), Nat(0), "removed on the query side too");
        eng.apply_update(&TupleUpdate::insert(e, &[0, 1])).unwrap();
        assert_eq!(eng.query(&[0, 1]), Nat(1));
        assert_eq!(eng.count(), before);
    }

    #[test]
    fn direct_access_through_engine() {
        let (a, e) = small_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let eng: GeneralEnumEngine<Nat> =
            EnumQueryEngine::build(&a, &phi, &CompileOptions::default()).unwrap();
        let mut all = Vec::new();
        let mut it = eng.enumerate();
        while let Some(t) = it.next() {
            all.push(t);
        }
        for (k, t) in all.iter().enumerate() {
            assert_eq!(eng.answer(k as u64).as_ref(), Some(t));
        }
        assert_eq!(eng.answer(all.len() as u64), None);
        assert_eq!(eng.answer_range(1, 3), all[1..4.min(all.len())]);
        assert!(all.contains(&eng.sample(3).unwrap()));
    }

    #[test]
    fn malformed_batch_leaves_both_sides_untouched() {
        let (a, e) = small_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let mut eng: GeneralEnumEngine<Nat> =
            EnumQueryEngine::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
        let before = eng.count();
        // valid removal first, then an out-of-domain insert: without
        // up-front validation the removal would land (or the bad tuple
        // would panic mid-batch) before the error surfaces.
        let batch = [
            TupleUpdate::remove(e, &[0, 1]),
            TupleUpdate::insert(e, &[0, 99]),
        ];
        assert_eq!(eng.apply_batch(&batch), Err(UpdateError::MalformedTuple));
        assert_eq!(eng.count(), before, "enumeration side unchanged");
        assert_eq!(eng.query(&[0, 1]), Nat(1), "point side unchanged");
        // arity-mismatched tuple: same contract, no panic
        let batch = [TupleUpdate::insert(e, &[0, 1, 2, 3, 4, 5])];
        assert_eq!(eng.apply_batch(&batch), Err(UpdateError::MalformedTuple));
        assert_eq!(eng.count(), before);
    }

    #[test]
    fn static_engine_rejects_updates() {
        let (a, e) = small_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let mut eng: GeneralEnumEngine<Nat> =
            EnumQueryEngine::build(&a, &phi, &CompileOptions::default()).unwrap();
        assert_eq!(
            eng.apply_update(&TupleUpdate::remove(e, &[0, 1])),
            Err(UpdateError::StaticIndex)
        );
    }
}
