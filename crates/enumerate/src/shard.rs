//! The Gaifman-component sharded engine: one immutable compiled plan,
//! per-shard mutable state, concurrent batched queries and routed
//! updates.
//!
//! # Why components shard
//!
//! The paper's dynamic story (Theorem 24) only admits updates whose
//! tuples are cliques of the *compile-time* Gaifman graph, so the graph
//! never gains edges and its connected components never merge: two
//! elements in different components cannot interact through any update.
//! When additionally every answer of `φ` is forced into one component
//! ([`agq_logic::Formula::answers_component_local`] — free variables
//! chained through positive atoms/equalities in every model), the
//! database decomposes into independent shards:
//!
//! * an update touches exactly one shard (its tuple is a clique, hence
//!   single-component);
//! * a point query at a single-shard tuple reads only the cone above its
//!   indicator slots, which never leaves the shard's components; a
//!   cross-shard tuple is structurally zero;
//! * the global answer set is the disjoint union of per-shard answer
//!   sets.
//!
//! # One plan, N states
//!
//! [`ShardedEngine`] compiles `φ` **once** and derives one immutable,
//! `Send + Sync` plan: the [`agq_core::CompiledQuery`] (one circuit, one
//! slot registry) with its [`agq_circuit::EvalPlan`] and
//! [`crate::machine::EnumPlan`]. One circuit, three valuations: point
//! queries in `S`, enumeration in the free semiring, counts in ℕ (the
//! count side of every shard is a state over that same `EvalPlan`).
//! Every shard then owns only cheap mutable state — a
//! [`QueryEngine`] evaluator state and an [`AnswerIndex`] machine state
//! whose generator slots are restricted to the shard's elements
//! ([`AnswerIndex::shard_filtered`]) — behind its own `RwLock`. Updates
//! take a write lock on the owning shard only; point queries and batch
//! queries take read locks (the zero-restore query path never mutates),
//! so queries against one shard proceed concurrently with updates to
//! every other shard.
//!
//! Formulas that fail the component-locality check degrade gracefully to
//! a single shard — always correct, never parallel.
//!
//! # Ordering and global ranks
//!
//! The engine's one answer order is **global rank order**: shard id
//! first, then the shard's native constant-delay cursor order. The
//! shards partition the answer set, so per-shard ranks compose into
//! global ranks through a prefix table of per-shard counts — that is
//! how [`ShardedEngine::answer`] serves the k-th answer in `O(depth)`
//! per shard probed, and how [`ShardedEngine::for_each_answer`] /
//! [`ShardedEngine::collect_answers`] stream every answer by chaining
//! the per-shard cursors (a k-way merge by global rank degenerates to
//! concatenation, because the shards own contiguous rank intervals).
//! The native cursor order is *not* lexicographic on the answer tuples
//! (it follows the circuit structure), so no lexicographic stream is
//! possible without materializing and sorting — callers that need one
//! sort the collected answers themselves.
//!
//! Cross-shard reads — counts, rank access, full streams — take **all**
//! shard read locks in shard order before touching any state, and
//! [`ShardedEngine::apply_batch`] holds every affected shard's write
//! lock for the whole application (acquired in the same shard order, so
//! the two disciplines cannot deadlock). A snapshot therefore sees a
//! concurrent batch fully applied or not at all — never torn across
//! shards. The differential suite pins sharded ≡ unsharded answer sets,
//! point queries, and post-update behavior on all three backends.
//!
//! # Fault boundary
//!
//! The component decomposition that makes shards *independent* also
//! makes them a **fault** boundary: one shard failing must not take the
//! others down. Three mechanisms enforce that (see ROADMAP.md's "Fault
//! model" for the operator view):
//!
//! * **Panic isolation + quarantine.** Shard apply work runs under
//!   [`catch_unwind`]; a panic (its own bug, or an injected
//!   `shard.apply` / `batch.worker` fail-point) marks the shard
//!   [quarantined](ShardedEngine::is_quarantined) instead of unwinding
//!   through the facade or poisoning the lock for every later caller.
//!   A quarantined shard rejects updates with
//!   [`UpdateError::ShardUnavailable`] and is skipped by reads; the
//!   `try_*` serving APIs report the skip as
//!   [`Served::Degraded`]`{ missing_shards }` (or a typed
//!   [`ServeError`] under [`ServeMode::Strict`]), while the plain
//!   value-returning APIs degrade silently over the healthy shards.
//!   [`ShardedEngine::install_shard`] swaps a re-hydrated state back in
//!   (snapshot + WAL replay — `agq_persist::restore_quarantined_shard`)
//!   and lifts the quarantine.
//! * **Write-ahead journaling with a [`DurabilityPolicy`].** Batches
//!   are journaled *before* any in-memory apply, still under the shard
//!   write locks so LSN order agrees with apply order. A sink error is
//!   retried with backoff; on exhaustion, fail-stop rejects the batch
//!   with nothing applied and the LSN unadvanced, while fail-open
//!   applies anyway and marks the engine
//!   [`wal_degraded`](ShardedEngine::wal_degraded). A worker panic
//!   *after* journaling quarantines the shard but loses nothing: the
//!   batch is durable, and the restore replay completes it.
//! * **Poison-aware locking.** Every lock acquisition maps
//!   [`PoisonError`] into the quarantine path (or recovers the inner
//!   guard, for the WAL mutex) instead of propagating a panic — one
//!   thread's failure never cascades through `expect("shard lock")`.

use crate::answers::{compile_indicator, AnswerIndex, UpdateError};
use crate::machine::MachineStateDump;
use agq_circuit::{FiniteMaint, PeekScratch, PermMaint, RingMaint};
use agq_core::{
    available_cores, AtomSlots, CompileError, CompileOptions, DurabilityPolicy, Journal,
    QueryEngine, TupleUpdate, WalSink,
};
use agq_logic::Formula;
use agq_perm::SegTreePerm;
use agq_semiring::Semiring;
use agq_structure::gaifman::GaifmanComponents;
use agq_structure::{Elem, Structure, WeightedStructure};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One shard's mutable state: a point-query evaluator state and an
/// enumeration index state, both over the engine-wide shared plans.
struct Shard<S: Semiring, P: PermMaint<S>> {
    engine: QueryEngine<S, P>,
    index: AnswerIndex,
}

/// One update resolved to its indicator slots, with the presence to set.
type Staged = (AtomSlots, bool);

/// Write one resolved (validated, coalesced) update group into both
/// valuations of a shard; returns how many updates changed the index.
fn apply_group<S: Semiring, P: PermMaint<S>>(shard: &mut Shard<S, P>, staged: &[Staged]) -> usize {
    agq_core::fault::point("shard.apply");
    let n = shard.index.apply_resolved(staged);
    shard.engine.apply_resolved(staged);
    n
}

/// A shard's lock plus its quarantine flag. The flag lives *outside* the
/// lock so readers can skip a quarantined shard without blocking on a
/// lock a wedged worker might hold, and so the facade never needs to
/// touch possibly-corrupt state to learn that it is corrupt.
struct ShardCell<S: Semiring, P: PermMaint<S>> {
    lock: RwLock<Shard<S, P>>,
    quarantined: AtomicBool,
}

impl<S: Semiring, P: PermMaint<S>> ShardCell<S, P> {
    fn new(shard: Shard<S, P>) -> Self {
        ShardCell {
            lock: RwLock::new(shard),
            quarantined: AtomicBool::new(false),
        }
    }
}

/// How the `try_*` serving APIs treat quarantined shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Any quarantined shard that could contribute to the result turns
    /// the call into [`ServeError::ShardUnavailable`].
    Strict,
    /// Serve from the healthy shards and report the missing ones in
    /// [`Served::Degraded`]. The default.
    #[default]
    Degrade,
}

/// A serving result that is explicit about completeness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Served<T> {
    /// Every shard contributed: the value is exact.
    Complete(T),
    /// Quarantined shards were skipped: the value covers only the
    /// healthy shards.
    Degraded {
        /// The (partial) result over the healthy shards.
        value: T,
        /// The quarantined shards that did not contribute, ascending.
        missing_shards: Vec<usize>,
    },
}

impl<T> Served<T> {
    /// The value, complete or not.
    pub fn value(self) -> T {
        match self {
            Served::Complete(v) | Served::Degraded { value: v, .. } => v,
        }
    }

    /// Borrow the value, complete or not.
    pub fn get(&self) -> &T {
        match self {
            Served::Complete(v) | Served::Degraded { value: v, .. } => v,
        }
    }

    /// Whether every shard contributed.
    pub fn is_complete(&self) -> bool {
        matches!(self, Served::Complete(_))
    }

    /// The shards that did not contribute (empty when complete).
    pub fn missing_shards(&self) -> &[usize] {
        match self {
            Served::Complete(_) => &[],
            Served::Degraded { missing_shards, .. } => missing_shards,
        }
    }
}

/// Typed serving failure under [`ServeMode::Strict`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Quarantined shards would be needed for a complete answer.
    ShardUnavailable {
        /// The quarantined shards, ascending.
        shards: Vec<usize>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShardUnavailable { shards } => {
                write!(
                    f,
                    "quarantined shards {shards:?} are required for this result"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A point-in-time operator view of the engine's fault state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// Total shard count.
    pub shards: usize,
    /// Quarantined shard ids, ascending.
    pub quarantined: Vec<usize>,
    /// Whether a WAL sink is attached.
    pub wal_attached: bool,
    /// Whether a fail-open policy has applied batches past a failed
    /// journal append — the in-memory state runs ahead of the durable
    /// log until the next snapshot.
    pub wal_degraded: bool,
    /// The LSN of the last accepted batch.
    pub last_lsn: u64,
}

/// A first-order query served from Gaifman-component shards: one shared
/// immutable compiled plan, per-shard mutable state, one update/query
/// language. See the [module docs](self) for the decomposition argument
/// and the fault boundary.
pub struct ShardedEngine<S: Semiring, P: PermMaint<S>> {
    components: GaifmanComponents,
    shards: Vec<ShardCell<S, P>>,
    component_local: bool,
    arity: usize,
    /// Durability state (sink, policy, LSN of the last accepted batch),
    /// committed under one mutex *while the accepting batch's shard write
    /// locks are still held* so LSN order agrees with apply order for
    /// conflicting batches.
    wal: Mutex<Journal>,
    /// `true` = [`ServeMode::Strict`] for the `try_*` APIs.
    serve_strict: AtomicBool,
    /// The LSN this engine was seeded with (0 at build, the replayed LSN
    /// after recovery): [`ShardedEngine::self_check`]'s monotonicity
    /// floor — the live counter may never run behind it.
    lsn_floor: AtomicU64,
}

/// One shard's serializable mutable state, as captured by
/// [`ShardedEngine::snapshot_states`] under a consistent all-shards
/// snapshot: the point-query evaluator's slot/gate value vectors and the
/// enumeration machine dump (input summand lists plus the permanent
/// bucket order, the one piece of history the machine keeps). Everything
/// else a shard holds is shared immutable plan or recomputed on load.
pub struct ShardStateDump<S> {
    /// Point side: input-slot values, indexed by slot id.
    pub slot_values: Vec<S>,
    /// Point side: committed per-gate values, indexed by gate id.
    pub gate_values: Vec<S>,
    /// Enumeration side: the machine's mutable state.
    pub machine: MachineStateDump,
}

/// Sharded engine for arbitrary semirings (logarithmic point queries).
pub type GeneralShardedEngine<S> = ShardedEngine<S, SegTreePerm<S>>;
/// Sharded engine for rings (constant-time point queries).
pub type RingShardedEngine<S> = ShardedEngine<S, RingMaint<S>>;
/// Sharded engine for finite semirings (constant-time point queries).
pub type FiniteShardedEngine<S> = ShardedEngine<S, FiniteMaint<S>>;

/// The read guards of one consistent snapshot, with their shard ids
/// (see `ShardedEngine::read_healthy`).
type HealthyShards<'a, S, P> = Vec<(usize, RwLockReadGuard<'a, Shard<S, P>>)>;

/// Where a tuple routes.
enum Route {
    /// All elements in one shard.
    Shard(usize),
    /// Elements span shards: structurally zero for component-local
    /// formulas.
    Cross,
    /// Some element is outside the domain the decomposition was built
    /// over: never a valid tuple, reported as a malformed update instead
    /// of an out-of-bounds panic in the routing table.
    Unknown,
}

impl<S: Semiring, P: PermMaint<S>> ShardedEngine<S, P> {
    /// Preprocess a quantifier-free `φ` over `a` for sharded point
    /// queries, enumeration, and Gaifman-preserving updates, packing the
    /// Gaifman components into at most `max_shards` shards
    /// (`0` = one shard per component).
    ///
    /// Compiles once; instantiates one mutable state per shard. Formulas
    /// whose answers are not syntactically component-local fall back to
    /// one shard (correct, unsharded).
    pub fn build(
        a: &Arc<Structure>,
        phi: &Formula,
        opts: &CompileOptions,
        max_shards: usize,
    ) -> Result<Self, CompileError> {
        // One compilation of the indicator expression [φ] (a quantified
        // φ is rejected here, before any work): the shared evaluation
        // plan (with memoized FreeVar cones) serves every shard's point
        // queries and every shard's count side, and the base answer index
        // enumerates over the same circuit.
        let (compiled, a2) = compile_indicator::<S>(a, phi, opts, true)?;
        let compiled = Arc::new(compiled);
        let arity = compiled.free_vars.len();
        let plan = Arc::new(compiled.eval_plan());
        let base = AnswerIndex::from_compiled(&compiled, plan.clone(), &a2, true);
        let weights: WeightedStructure<S> = WeightedStructure::new(a2);

        // The admission test (arity ≥ 1 included — a closed formula's
        // empty-tuple answer belongs to no component) lives in one
        // place: `Formula::answers_component_local`.
        let component_local = phi.answers_component_local();
        let components = GaifmanComponents::new(a, if component_local { max_shards } else { 1 });
        let num_shards = components.num_shards();

        let mut base = Some(base);
        let shards = (0..num_shards)
            .map(|s| {
                let engine = QueryEngine::from_parts(compiled.clone(), plan.clone(), &weights);
                let index = if num_shards == 1 {
                    base.take().expect("single shard consumes the base index")
                } else {
                    base.as_ref()
                        .expect("base index alive")
                        .shard_filtered(|e| components.shard_of(e) == s as u32)
                };
                ShardCell::new(Shard { engine, index })
            })
            .collect();
        Ok(ShardedEngine {
            components,
            shards,
            component_local,
            arity,
            wal: Mutex::new(Journal::new(0)),
            serve_strict: AtomicBool::new(false),
            lsn_floor: AtomicU64::new(0),
        })
    }

    /// Reassemble an engine from separately restored shard states — the
    /// restore constructor of `agq-persist`. Every `(engine, index)` pair
    /// must have been instantiated over one shared plan (the saved one);
    /// `last_lsn` seeds the log sequence counter. Errs when the shard
    /// count disagrees with the decomposition, or when some half numbers
    /// its input slots differently from shard 0's index (updates are
    /// resolved once, against that registry, for every shard and side).
    pub fn from_saved_parts(
        components: GaifmanComponents,
        component_local: bool,
        arity: usize,
        shard_states: Vec<(QueryEngine<S, P>, AnswerIndex)>,
        last_lsn: u64,
    ) -> Result<Self, &'static str> {
        if shard_states.len() != components.num_shards() {
            return Err("shard count disagrees with the component decomposition");
        }
        if let Some((_, first)) = shard_states.first() {
            let slots = first.slot_registry();
            if !shard_states.iter().all(|(engine, index)| {
                index.same_slots_as(slots) && index.same_slots_as(&engine.compiled().slots)
            }) {
                return Err("shard halves were compiled from different queries");
            }
        }
        Ok(ShardedEngine {
            components,
            shards: shard_states
                .into_iter()
                .map(|(engine, index)| ShardCell::new(Shard { engine, index }))
                .collect(),
            component_local,
            arity,
            wal: Mutex::new(Journal::new(last_lsn)),
            serve_strict: AtomicBool::new(false),
            lsn_floor: AtomicU64::new(last_lsn),
        })
    }

    /// The WAL mutex, poison-recovered: the journal path never panics
    /// while holding it (injected panics fire before the lock is taken,
    /// and sink errors are returned, not thrown), so a poisoned state
    /// still holds a coherent [`Journal`] — recover it rather than
    /// cascade a different thread's failure.
    fn lock_wal(&self) -> MutexGuard<'_, Journal> {
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A shard's read guard, or `Err(s)` if it is quarantined. A
    /// poisoned lock — a panic escaped while the state was mid-mutation
    /// — quarantines the shard instead of propagating the panic.
    fn read_shard(&self, s: usize) -> Result<RwLockReadGuard<'_, Shard<S, P>>, usize> {
        let cell = &self.shards[s];
        if cell.quarantined.load(Ordering::Acquire) {
            return Err(s);
        }
        match cell.lock.read() {
            Ok(g) => Ok(g),
            Err(_) => {
                cell.quarantined.store(true, Ordering::Release);
                Err(s)
            }
        }
    }

    /// A shard's write guard, with the same quarantine mapping as
    /// [`ShardedEngine::read_shard`].
    fn write_shard(&self, s: usize) -> Result<RwLockWriteGuard<'_, Shard<S, P>>, usize> {
        let cell = &self.shards[s];
        if cell.quarantined.load(Ordering::Acquire) {
            return Err(s);
        }
        match cell.lock.write() {
            Ok(g) => Ok(g),
            Err(_) => {
                cell.quarantined.store(true, Ordering::Release);
                Err(s)
            }
        }
    }

    /// Capture every shard's mutable state plus the LSN it is current
    /// through, under one consistent all-shards snapshot (all read locks
    /// in shard order — a concurrent batch is either fully included, or
    /// excluded and sequenced after the returned LSN, never torn).
    ///
    /// Errs if any shard is quarantined: a snapshot must cover the whole
    /// engine, and a quarantined shard's state is not trustworthy.
    /// Restore the shard first.
    pub fn snapshot_states(&self) -> Result<(u64, Vec<ShardStateDump<S>>), ServeError> {
        let (guards, missing) = self.read_healthy();
        if !missing.is_empty() {
            return Err(ServeError::ShardUnavailable { shards: missing });
        }
        let lsn = self.last_lsn();
        let dumps = guards
            .iter()
            .map(|(_, shard)| {
                let eval = shard.engine.evaluator();
                ShardStateDump {
                    slot_values: eval.slot_values().to_vec(),
                    gate_values: eval.gate_values().to_vec(),
                    machine: shard.index.machine().dump_state(),
                }
            })
            .collect();
        Ok((lsn, dumps))
    }

    /// Run `f` against shard `s`'s state under its read lock.
    ///
    /// # Panics
    /// Panics if shard `s` is quarantined; use
    /// [`ShardedEngine::with_healthy_shard`] when any shard will do —
    /// every shard points at the same compiled query and plans.
    pub fn with_shard<R>(
        &self,
        s: usize,
        f: impl FnOnce(&QueryEngine<S, P>, &AnswerIndex) -> R,
    ) -> R {
        match self.read_shard(s) {
            Ok(shard) => f(&shard.engine, &shard.index),
            Err(s) => panic!("shard {s} is quarantined"),
        }
    }

    /// Run `f` against the first healthy shard's state under its read
    /// lock — shared-plan access that tolerates quarantined shards (plan
    /// saves and the restore path source the plan `Arc`s this way).
    /// `None` iff every shard is quarantined.
    pub fn with_healthy_shard<R>(
        &self,
        f: impl FnOnce(&QueryEngine<S, P>, &AnswerIndex) -> R,
    ) -> Option<R> {
        for s in 0..self.shards.len() {
            if let Ok(shard) = self.read_shard(s) {
                return Some(f(&shard.engine, &shard.index));
            }
        }
        None
    }

    /// Answer-tuple arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of shards serving this engine.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether `φ` was admitted to sharding: at least one free variable
    /// and the component-locality check passed. When false, the engine
    /// runs with one shard.
    pub fn component_local(&self) -> bool {
        self.component_local
    }

    /// The component decomposition backing the routing.
    pub fn components(&self) -> &GaifmanComponents {
        &self.components
    }

    fn route(&self, tuple: &[Elem]) -> Route {
        if self.shards.len() == 1 || tuple.is_empty() {
            return Route::Shard(0);
        }
        let mut it = tuple.iter();
        let first = match self
            .components
            .try_shard_of(*it.next().expect("tuple is nonempty"))
        {
            Some(s) => s,
            None => return Route::Unknown,
        };
        for &e in it {
            match self.components.try_shard_of(e) {
                Some(s) if s == first => {}
                Some(_) => return Route::Cross,
                None => return Route::Unknown,
            }
        }
        Route::Shard(first as usize)
    }

    /// Point query: the indicator value `[φ(ā)]`, served by the owning
    /// shard under a read lock. A tuple spanning shards is structurally
    /// zero (its elements can never be chained by positive atoms). A
    /// tuple owned by a quarantined shard is served as zero — use
    /// [`ShardedEngine::try_query`] to distinguish "absent" from
    /// "unavailable".
    pub fn query(&self, tuple: &[Elem]) -> S {
        self.query_inner(tuple).0
    }

    /// [`ShardedEngine::query`] with explicit completeness: `Degraded`
    /// (value zero, naming the owning shard) when the owner is
    /// quarantined, or a typed error under [`ServeMode::Strict`]. Other
    /// shards' quarantine never affects a point query — the cone above a
    /// single-shard tuple's slots stays inside its component.
    pub fn try_query(&self, tuple: &[Elem]) -> Result<Served<S>, ServeError> {
        self.serve(self.query_inner(tuple))
    }

    fn query_inner(&self, tuple: &[Elem]) -> (S, Vec<usize>) {
        self.check_arity(tuple);
        match self.route(tuple) {
            Route::Cross | Route::Unknown => (S::zero(), Vec::new()),
            Route::Shard(s) => match self.read_shard(s) {
                Ok(shard) => {
                    let mut scratch = PeekScratch::new();
                    let mut patches = Vec::new();
                    (
                        shard.engine.query_with(tuple, &mut scratch, &mut patches),
                        Vec::new(),
                    )
                }
                Err(s) => (S::zero(), vec![s]),
            },
        }
    }

    /// Panic on a point-query tuple of the wrong length, as the flat
    /// engine does — before routing, which would otherwise answer a
    /// cross-shard or unowned tuple zero whatever its length.
    fn check_arity(&self, tuple: &[Elem]) {
        assert_eq!(tuple.len(), self.arity, "query tuple arity mismatch");
    }

    /// Wrap what an `*_inner` read body computed under one snapshot — the
    /// value over the healthy shards and the quarantined shards it
    /// skipped — according to the serve mode: complete, degraded naming
    /// the skipped shards, or a strict-mode error.
    fn serve<T>(&self, (value, missing): (T, Vec<usize>)) -> Result<Served<T>, ServeError> {
        if missing.is_empty() {
            Ok(Served::Complete(value))
        } else if self.serve_strict.load(Ordering::Acquire) {
            Err(ServeError::ShardUnavailable { shards: missing })
        } else {
            Ok(Served::Degraded {
                value,
                missing_shards: missing,
            })
        }
    }

    /// How the `try_*` APIs react to quarantined shards (the plain
    /// value-returning APIs always degrade silently).
    pub fn set_serve_mode(&self, mode: ServeMode) {
        self.serve_strict
            .store(mode == ServeMode::Strict, Ordering::Release);
    }

    /// The current serve mode.
    pub fn serve_mode(&self) -> ServeMode {
        if self.serve_strict.load(Ordering::Acquire) {
            ServeMode::Strict
        } else {
            ServeMode::Degrade
        }
    }

    /// Values at many tuples: the batch is grouped by owning shard and
    /// the non-empty shard groups are spread over at most one worker per
    /// core, each taking its shards' read locks in turn — so a batch
    /// proceeds concurrently with updates to shards it does not touch,
    /// without spawning a thread per shard (`max_shards = 0` can make
    /// the shard count data-sized). Results come back in input order.
    pub fn query_batch(&self, tuples: &[&[Elem]]) -> Vec<S>
    where
        P: Send + Sync,
    {
        self.query_batch_inner(tuples).0
    }

    /// [`ShardedEngine::query_batch`] with explicit completeness: tuples
    /// owned by quarantined shards come back zero and the shards are
    /// named in `Degraded` (or turn the whole call into a strict-mode
    /// error).
    pub fn try_query_batch(&self, tuples: &[&[Elem]]) -> Result<Served<Vec<S>>, ServeError>
    where
        P: Send + Sync,
    {
        self.serve(self.query_batch_inner(tuples))
    }

    fn query_batch_inner(&self, tuples: &[&[Elem]]) -> (Vec<S>, Vec<usize>)
    where
        P: Send + Sync,
    {
        for t in tuples {
            self.check_arity(t);
        }
        // Group tuple indices by shard; resolve cross-shard tuples inline.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut out: Vec<Option<S>> = vec![None; tuples.len()];
        for (i, t) in tuples.iter().enumerate() {
            match self.route(t) {
                Route::Cross | Route::Unknown => out[i] = Some(S::zero()),
                Route::Shard(s) => groups[s].push(i),
            }
        }
        // Take the healthy read guards on the calling thread (shard
        // order), resolving quarantined shards' tuples to zero; workers
        // then only ever see `&Shard` references that are known good.
        type ShardWork<'a, S, P> = Vec<(RwLockReadGuard<'a, Shard<S, P>>, Vec<usize>)>;
        let mut missing = Vec::new();
        let mut work: ShardWork<'_, S, P> = Vec::new();
        for (s, g) in groups.into_iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            match self.read_shard(s) {
                Ok(guard) => work.push((guard, g)),
                Err(s) => {
                    missing.push(s);
                    for &i in &g {
                        out[i] = Some(S::zero());
                    }
                }
            }
        }
        let workers = available_cores().min(work.len()).max(1);
        if workers <= 1 {
            // one core (or one shard group): answer on the calling thread
            // instead of paying a thread spawn
            let mut scratch = PeekScratch::new();
            let mut patches = Vec::new();
            for (shard, g) in &work {
                for &i in g {
                    out[i] = Some(
                        shard
                            .engine
                            .query_with(tuples[i], &mut scratch, &mut patches),
                    );
                }
            }
            let vals = out.into_iter().map(|v| v.expect("all filled")).collect();
            return (vals, missing);
        }
        let pairs: Vec<(&Shard<S, P>, &[usize])> =
            work.iter().map(|(gd, g)| (&**gd, g.as_slice())).collect();
        let chunk = pairs.len().div_ceil(workers);
        let results: Vec<(Vec<usize>, Vec<S>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|assigned| {
                    scope.spawn(move || {
                        let mut scratch = PeekScratch::new();
                        let mut patches = Vec::new();
                        assigned
                            .iter()
                            .map(|(shard, g)| {
                                let vals: Vec<S> = g
                                    .iter()
                                    .map(|&i| {
                                        shard.engine.query_with(
                                            tuples[i],
                                            &mut scratch,
                                            &mut patches,
                                        )
                                    })
                                    .collect();
                                (g.to_vec(), vals)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("read-only query worker"))
                .collect()
        });
        for (idxs, vals) in results {
            for (i, v) in idxs.into_iter().zip(vals) {
                out[i] = Some(v);
            }
        }
        let vals = out.into_iter().map(|v| v.expect("all filled")).collect();
        (vals, missing)
    }

    /// Apply one Gaifman-preserving update to the owning shard (write
    /// lock on that shard only): both the shard's enumeration index
    /// (incremental, `O_φ(1)`) and its point-query evaluator absorb it.
    ///
    /// The update is journaled **write-ahead** under the shard lock
    /// (validate → journal → apply): a fail-stop WAL failure rejects it
    /// with nothing applied and the LSN unadvanced, and a panic during
    /// the apply quarantines the shard — already durable, so a restore
    /// replay completes it.
    pub fn apply_update(&self, u: &TupleUpdate) -> Result<(), UpdateError> {
        let s = match self.route(&u.tuple) {
            Route::Shard(s) => s,
            Route::Cross => {
                // A shard-spanning tuple is never a clique of the
                // compile-time Gaifman graph: inserting it is not
                // Gaifman-preserving, removing it is a no-op.
                return if u.present {
                    Err(UpdateError::NotGaifmanPreserving)
                } else {
                    Ok(())
                };
            }
            Route::Unknown => return Err(UpdateError::MalformedTuple),
        };
        let mut shard = self
            .write_shard(s)
            .map_err(|shard| UpdateError::ShardUnavailable { shard })?;
        let slots = shard.index.resolve_update(u.rel, &u.tuple, u.present)?;
        self.lock_wal().commit(|| [u])?;
        let staged = slots.map(|slots| (slots, u.present));
        let shard = &mut *shard;
        let applied = catch_unwind(AssertUnwindSafe(|| {
            apply_group(shard, staged.as_slice());
        }));
        if applied.is_err() {
            self.shards[s].quarantined.store(true, Ordering::Release);
            return Err(UpdateError::ShardPanicked { shards: vec![s] });
        }
        Ok(())
    }

    /// Attach a write-ahead-log sink: every subsequently accepted batch
    /// is appended under its LSN, before it is applied. Returns the
    /// previous sink.
    pub fn attach_wal(&self, sink: Box<dyn WalSink>) -> Option<Box<dyn WalSink>> {
        self.lock_wal().sink.replace(sink)
    }

    /// Detach the WAL sink (e.g. before replaying a recovered tail).
    pub fn detach_wal(&self) -> Option<Box<dyn WalSink>> {
        self.lock_wal().sink.take()
    }

    /// The LSN of the last accepted update batch (0 before any update).
    pub fn last_lsn(&self) -> u64 {
        self.lock_wal().last_lsn
    }

    /// Reset the log sequence counter — used after WAL replay so
    /// subsequent batches continue from the highest committed LSN
    /// rather than from the snapshot's. Also moves the
    /// [`ShardedEngine::self_check`] monotonicity floor.
    pub fn set_last_lsn(&self, lsn: u64) {
        self.lock_wal().last_lsn = lsn;
        self.lsn_floor.store(lsn, Ordering::Release);
    }

    /// The retry/failure policy for WAL appends.
    pub fn set_durability(&self, policy: DurabilityPolicy) {
        self.lock_wal().policy = policy;
    }

    /// The current WAL durability policy.
    pub fn durability(&self) -> DurabilityPolicy {
        self.lock_wal().policy
    }

    /// Whether a fail-open policy has accepted batches past a failed
    /// journal append. While set, the in-memory state runs ahead of the
    /// durable log; a fresh snapshot re-establishes durability (see
    /// [`ShardedEngine::reset_wal_degraded`]).
    pub fn wal_degraded(&self) -> bool {
        self.lock_wal().degraded
    }

    /// Clear the degraded-WAL marker — call after capturing a snapshot
    /// that covers the unjournaled batches.
    pub fn reset_wal_degraded(&self) {
        self.lock_wal().degraded = false;
    }

    /// Apply a whole batch of Gaifman-preserving updates: the batch is
    /// coalesced per `(rel, tuple)` (the last update wins, cross-shard
    /// removals are dropped as no-ops), grouped by owning shard, and the
    /// non-empty shard groups are applied **in parallel** — each shard's
    /// write lock is taken exactly once and absorbs its whole group with
    /// one coalesced sweep per side ([`AnswerIndex::apply_batch`] /
    /// [`agq_core::QueryEngine::apply_batch`]).
    ///
    /// The batch is all-or-nothing on the happy path: every update is
    /// validated against the shared compiled plan, then journaled
    /// write-ahead, *before* any in-memory mutation — on a validation,
    /// routing, quarantine, or fail-stop WAL error no shard has been
    /// modified and the LSN has not advanced. The one partial outcome is
    /// a worker panic mid-apply ([`UpdateError::ShardPanicked`]): the
    /// panicking shards are quarantined, every other shard has applied
    /// its group, and because the batch was journaled first, a restore
    /// replay completes the quarantined shards to the same state.
    /// Returns the number of coalesced updates that changed an
    /// enumeration index.
    pub fn apply_batch(&self, updates: &[TupleUpdate]) -> Result<usize, UpdateError>
    where
        P: Send + Sync,
    {
        // Coalesce per (rel, tuple) — the last update wins — and route
        // the survivors in the order they come back (reverse
        // chronological).
        let mut coalesced = Vec::with_capacity(updates.len());
        agq_core::coalesce_updates(updates, &mut coalesced);
        let mut groups: Vec<Vec<&TupleUpdate>> = vec![Vec::new(); self.shards.len()];
        for u in coalesced {
            match self.route(&u.tuple) {
                Route::Shard(s) => groups[s].push(u),
                Route::Cross => {
                    // see apply_update: inserting a shard-spanning tuple
                    // is never Gaifman-preserving, removing one is a no-op
                    if u.present {
                        return Err(UpdateError::NotGaifmanPreserving);
                    }
                }
                Route::Unknown => return Err(UpdateError::MalformedTuple),
            }
        }
        let work: Vec<(usize, &[&TupleUpdate])> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(s, g)| (s, g.as_slice()))
            .collect();
        if work.is_empty() {
            return Ok(0);
        }
        // All-or-nothing *visibility*: take every affected shard's write
        // lock up front, in shard order — the same order cross-shard
        // readers acquire their read locks, so the disciplines compose
        // without deadlock — and hold them all for the whole
        // application. A snapshot reader (`count`, `answer`,
        // `for_each_answer`, …) then sees the batch fully applied or not
        // at all, never half of it. `work` is built in ascending shard
        // order. A quarantined shard rejects the whole batch here,
        // before anything is journaled or applied.
        let mut guards: Vec<_> = Vec::with_capacity(work.len());
        for (s, _) in &work {
            guards.push(
                self.write_shard(*s)
                    .map_err(|shard| UpdateError::ShardUnavailable { shard })?,
            );
        }
        // Pre-validate the whole batch before journaling or mutating
        // anything, resolving each update's indicator slots on the way.
        // Verdict and slot ids depend only on the shared plan, so the
        // first affected shard's index can vouch for every group.
        let mut staged: Vec<Vec<Staged>> = Vec::with_capacity(work.len());
        for (_, g) in &work {
            let mut group = Vec::with_capacity(g.len());
            for u in *g {
                if let Some(slots) = guards[0].index.resolve_update(u.rel, &u.tuple, u.present)? {
                    group.push((slots, u.present));
                }
            }
            staged.push(group);
        }
        // Journal write-ahead while the write locks are held, so LSN
        // order agrees with apply order. The closure flattens the
        // (borrowed, never cloned) updates and only runs when a sink is
        // attached: the no-WAL hot path pays one mutex lock and an
        // increment. On a fail-stop WAL error the locks drop with nothing
        // applied and the LSN unadvanced.
        self.lock_wal()
            .commit(|| -> Vec<_> { work.iter().flat_map(|(_, g)| g.iter().copied()).collect() })?;
        // Every group runs under `catch_unwind`: a panic (a bug, or the
        // `shard.apply` / `batch.worker` fail-points) quarantines the
        // affected shards instead of crossing the facade.
        let workers = available_cores().min(work.len()).max(1);
        // Spawning threads costs tens of microseconds — far more than a
        // typical shard group. Apply on the calling thread unless there is
        // real parallelism to exploit.
        let mut applied = 0usize;
        let mut panicked: Vec<usize> = Vec::new();
        if workers == 1 {
            for ((shard, (s, _)), g) in guards.iter_mut().zip(&work).zip(&staged) {
                match catch_unwind(AssertUnwindSafe(|| apply_group(&mut **shard, g))) {
                    Ok(n) => applied += n,
                    Err(_) => panicked.push(*s),
                }
            }
        } else {
            let mut pairs: Vec<(usize, &mut Shard<S, P>, &[Staged])> = guards
                .iter_mut()
                .zip(&work)
                .zip(&staged)
                .map(|((shard, (s, _)), g)| (*s, &mut **shard, g.as_slice()))
                .collect();
            let chunk = pairs.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<(Vec<usize>, _)> = pairs
                    .chunks_mut(chunk)
                    .map(|assigned| {
                        let ids: Vec<usize> = assigned.iter().map(|(s, _, _)| *s).collect();
                        let h = scope.spawn(move || {
                            agq_core::fault::point("batch.worker");
                            let mut applied = 0usize;
                            let mut panicked = Vec::new();
                            for (s, shard, g) in assigned.iter_mut() {
                                match catch_unwind(AssertUnwindSafe(|| apply_group(shard, g))) {
                                    Ok(n) => applied += n,
                                    Err(_) => panicked.push(*s),
                                }
                            }
                            (applied, panicked)
                        });
                        (ids, h)
                    })
                    .collect();
                for (ids, h) in handles {
                    match h.join() {
                        Ok((n, p)) => {
                            applied += n;
                            panicked.extend(p);
                        }
                        // The worker died outside the per-group
                        // catch_unwind (the `batch.worker` fail-point,
                        // or glue-code bugs): which of its groups were
                        // applied is unknown, so quarantine them all —
                        // the journaled batch makes the restore exact.
                        Err(_) => panicked.extend(ids),
                    }
                }
            });
        }
        if !panicked.is_empty() {
            panicked.sort_unstable();
            for &s in &panicked {
                self.shards[s].quarantined.store(true, Ordering::Release);
            }
            return Err(UpdateError::ShardPanicked { shards: panicked });
        }
        drop(guards);
        Ok(applied)
    }

    /// A consistent snapshot of the healthy shards: their read locks,
    /// acquired in shard order (the same order
    /// [`ShardedEngine::apply_batch`] takes its write locks, so readers
    /// and batch writers cannot deadlock), plus the quarantined shard
    /// ids that were skipped. Holding all of the guards, a concurrent
    /// batch is observed fully applied or not at all — never torn across
    /// shards.
    fn read_healthy(&self) -> (HealthyShards<'_, S, P>, Vec<usize>) {
        let mut guards = Vec::with_capacity(self.shards.len());
        let mut missing = Vec::new();
        for s in 0..self.shards.len() {
            match self.read_shard(s) {
                Ok(g) => guards.push((s, g)),
                Err(s) => missing.push(s),
            }
        }
        (guards, missing)
    }

    /// Number of answers, summed over the **healthy** shards under one
    /// consistent snapshot — a concurrent batch never shows up as a torn
    /// total. Quarantined shards contribute nothing; use
    /// [`ShardedEngine::try_count`] to be told when that happens.
    pub fn count(&self) -> u64 {
        self.count_inner().0
    }

    /// [`ShardedEngine::count`] with explicit completeness.
    pub fn try_count(&self) -> Result<Served<u64>, ServeError> {
        self.serve(self.count_inner())
    }

    fn count_inner(&self) -> (u64, Vec<usize>) {
        let (guards, missing) = self.read_healthy();
        (guards.iter().map(|(_, s)| s.index.count()).sum(), missing)
    }

    /// Whether at least one answer exists on a **healthy** shard
    /// (`O_φ(1)` per shard), under the same consistent snapshot as
    /// [`ShardedEngine::count`].
    pub fn is_nonempty(&self) -> bool {
        self.is_nonempty_inner().0
    }

    /// [`ShardedEngine::is_nonempty`] with explicit completeness (a
    /// degraded `false` only means the healthy shards are empty).
    pub fn try_is_nonempty(&self) -> Result<Served<bool>, ServeError> {
        self.serve(self.is_nonempty_inner())
    }

    fn is_nonempty_inner(&self) -> (bool, Vec<usize>) {
        let (guards, missing) = self.read_healthy();
        (guards.iter().any(|(_, s)| s.index.is_nonempty()), missing)
    }

    /// Direct access: the answer of **global rank** `k` (shard id, then
    /// the shard's native cursor order — the order of
    /// [`ShardedEngine::for_each_answer`]) without enumerating preceding
    /// answers. The per-shard counts form the rank prefix table; the
    /// owning shard answers its local rank in `O(depth)` gate visits.
    /// `None` iff `k >= count()`. The whole lookup runs under one
    /// consistent snapshot of the healthy shards; quarantined shards are
    /// transparently absent from the rank space (use
    /// [`ShardedEngine::try_answer`] to detect that).
    pub fn answer(&self, k: u64) -> Option<Vec<Elem>> {
        self.answer_inner(k).0
    }

    /// [`ShardedEngine::answer`] with explicit completeness: a degraded
    /// result means the rank space omits the listed quarantined shards.
    #[allow(clippy::type_complexity)]
    pub fn try_answer(&self, k: u64) -> Result<Served<Option<Vec<Elem>>>, ServeError> {
        self.serve(self.answer_inner(k))
    }

    fn answer_inner(&self, k: u64) -> (Option<Vec<Elem>>, Vec<usize>) {
        let (guards, missing) = self.read_healthy();
        (Self::answer_at(&guards, k), missing)
    }

    /// The answer of global rank `k` within one snapshot: skip whole
    /// shards through the prefix table of their counts, then descend.
    fn answer_at(guards: &HealthyShards<'_, S, P>, mut k: u64) -> Option<Vec<Elem>> {
        for (_, shard) in guards {
            let c = shard.index.count();
            if k < c {
                return shard.index.answer(k);
            }
            k -= c;
        }
        None
    }

    /// Answers of global ranks `k … k+len-1` (clipped at the end): one
    /// rank descent into the owning shard, then a constant-delay cursor
    /// walk that chains across shard boundaries — pagination without
    /// enumerating ranks `< k`, under one consistent snapshot.
    pub fn answer_range(&self, k: u64, len: usize) -> Vec<Vec<Elem>> {
        self.answer_range_inner(k, len).0
    }

    /// [`ShardedEngine::answer_range`] with explicit completeness.
    #[allow(clippy::type_complexity)]
    pub fn try_answer_range(
        &self,
        k: u64,
        len: usize,
    ) -> Result<Served<Vec<Vec<Elem>>>, ServeError> {
        self.serve(self.answer_range_inner(k, len))
    }

    fn answer_range_inner(&self, mut k: u64, len: usize) -> (Vec<Vec<Elem>>, Vec<usize>) {
        let (guards, missing) = self.read_healthy();
        let mut out = Vec::new();
        if len == 0 {
            return (out, missing);
        }
        // prefix table: skip whole shards below rank k
        let mut s = 0;
        while s < guards.len() {
            let c = guards[s].1.index.count();
            if k < c {
                break;
            }
            k -= c;
            s += 1;
        }
        while s < guards.len() && out.len() < len {
            let mut it = guards[s].1.index.iter();
            if let Some(first) = it.seek(k) {
                out.push(first);
                while out.len() < len {
                    match it.next() {
                        Some(t) => out.push(t),
                        None => break,
                    }
                }
            }
            k = 0; // subsequent shards continue from their rank 0
            s += 1;
        }
        (out, missing)
    }

    /// A uniformly random answer derived from `rng_seed` (deterministic
    /// per seed), or `None` if the answer set is empty — one rank
    /// descent, no enumeration, under one consistent snapshot.
    pub fn sample(&self, rng_seed: u64) -> Option<Vec<Elem>> {
        let guards = self.read_healthy().0;
        let total: u64 = guards.iter().map(|(_, s)| s.index.count()).sum();
        if total == 0 {
            return None;
        }
        let k = ((crate::answers::splitmix64(rng_seed) as u128 * total as u128) >> 64) as u64;
        Self::answer_at(&guards, k)
    }

    /// Stream every answer to `f` in global rank order (shard id, then
    /// the shard's native cursor order): constant delay per answer, O(1)
    /// memory beyond the caller's own consumption. All shard read locks
    /// are held for the duration — the stream is one consistent
    /// snapshot, and the order is exactly the one
    /// [`ShardedEngine::answer`] indexes.
    pub fn for_each_answer(&self, f: impl FnMut(&[Elem])) {
        self.for_each_inner(f);
    }

    fn for_each_inner(&self, mut f: impl FnMut(&[Elem])) -> Vec<usize> {
        let (guards, missing) = self.read_healthy();
        for (_, shard) in &guards {
            let mut it = shard.index.iter();
            while let Some(t) = it.next() {
                f(&t);
            }
        }
        missing
    }

    /// All answers in global rank order (see
    /// [`ShardedEngine::for_each_answer`]).
    pub fn collect_answers(&self) -> Vec<Vec<Elem>> {
        self.collect_inner().0
    }

    /// [`ShardedEngine::collect_answers`] with explicit completeness: a
    /// degraded stream covers only the healthy shards' rank intervals.
    #[allow(clippy::type_complexity)]
    pub fn try_collect_answers(&self) -> Result<Served<Vec<Vec<Elem>>>, ServeError> {
        self.serve(self.collect_inner())
    }

    fn collect_inner(&self) -> (Vec<Vec<Elem>>, Vec<usize>) {
        let mut out = Vec::new();
        let missing = self.for_each_inner(|t| out.push(t.to_vec()));
        (out, missing)
    }

    // ----- fault management ---------------------------------------------

    /// The shard that owns `tuple` under the Gaifman-component routing,
    /// or `None` when the tuple's elements are not all known to one
    /// component (`agq_persist::restore_quarantined_shard` filters the
    /// journaled batches down to the shard it rebuilds with this).
    pub fn owning_shard(&self, tuple: &[Elem]) -> Option<usize> {
        match self.route(tuple) {
            Route::Shard(s) => Some(s),
            _ => None,
        }
    }

    /// Manually quarantine shard `s` (e.g. after an external integrity
    /// alarm). Idempotent; out-of-range ids are ignored.
    pub fn quarantine_shard(&self, s: usize) {
        if let Some(cell) = self.shards.get(s) {
            cell.quarantined.store(true, Ordering::Release);
        }
    }

    /// Whether shard `s` is currently quarantined.
    pub fn is_quarantined(&self, s: usize) -> bool {
        self.shards
            .get(s)
            .is_some_and(|cell| cell.quarantined.load(Ordering::Acquire))
    }

    /// Ids of every currently quarantined shard, ascending.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| self.shards[s].quarantined.load(Ordering::Acquire))
            .collect()
    }

    /// Replace shard `s` with a freshly rebuilt engine + index and lift
    /// its quarantine. This is the re-admission half of recovery: the
    /// caller (normally `agq_persist::restore_quarantined_shard`)
    /// rebuilds the state from a snapshot plus WAL replay and hands it
    /// over here. Clears lock poison left by the panic that triggered
    /// the quarantine.
    pub fn install_shard(
        &self,
        s: usize,
        engine: QueryEngine<S, P>,
        index: AnswerIndex,
    ) -> Result<(), &'static str> {
        let cell = self.shards.get(s).ok_or("shard id out of range")?;
        if !index.same_slots_as(&engine.compiled().slots) {
            return Err("shard halves were compiled from different queries");
        }
        // A poisoned lock is expected here (the quarantine was likely
        // caused by a worker panicking mid-write); the old state is
        // discarded wholesale, so recovering the guard is sound.
        let mut guard = cell.lock.write().unwrap_or_else(PoisonError::into_inner);
        *guard = Shard { engine, index };
        drop(guard);
        cell.quarantined.store(false, Ordering::Release);
        Ok(())
    }

    /// A point-in-time health summary for operators and tests.
    pub fn health(&self) -> HealthReport {
        let wal = self.lock_wal();
        HealthReport {
            shards: self.shards.len(),
            quarantined: self.quarantined_shards(),
            wal_attached: wal.sink.is_some(),
            wal_degraded: wal.degraded,
            last_lsn: wal.last_lsn,
        }
    }

    /// Deep invariant verification over every **healthy** shard: each
    /// shard's enumeration structures are checked for internal
    /// consistency ([`AnswerIndex::self_check`]), output arities must
    /// agree across shards, and the WAL position must not have moved
    /// backwards past the floor pinned at construction/restore time.
    /// Returns the quarantined shard ids that were skipped, or the first
    /// violation found.
    pub fn self_check(&self) -> Result<Vec<usize>, String> {
        let (guards, missing) = self.read_healthy();
        let mut arity = None;
        for (s, shard) in &guards {
            shard
                .index
                .self_check()
                .map_err(|e| format!("shard {s}: {e}"))?;
            let a = shard.index.arity();
            match arity {
                None => arity = Some(a),
                Some(prev) if prev != a => {
                    return Err(format!("shard {s}: output arity {a} disagrees with {prev}"));
                }
                Some(_) => {}
            }
        }
        drop(guards);
        let lsn = self.last_lsn();
        let floor = self.lsn_floor.load(Ordering::Acquire);
        if lsn < floor {
            return Err(format!(
                "WAL position moved backwards: last_lsn {lsn} < floor {floor}"
            ));
        }
        Ok(missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_logic::Var;
    use agq_semiring::Nat;
    use agq_structure::Signature;

    /// Two triangles in different components plus an isolated edge.
    fn three_component_graph() -> (Arc<Structure>, agq_structure::RelId) {
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let mut a = Structure::new(Arc::new(sig), 9);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)] {
            a.insert(e, &[u, v]);
            a.insert(e, &[v, u]);
        }
        (Arc::new(a), e)
    }

    #[test]
    fn shards_partition_answers() {
        let (a, e) = three_component_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 0).unwrap();
        assert!(eng.component_local());
        assert_eq!(eng.num_shards(), 4, "3 edge components + 1 isolated");
        assert_eq!(eng.count(), 14);
        let collected = eng.collect_answers();
        assert_eq!(
            eng.collect_answers(),
            collected,
            "merged stream is the global rank order"
        );
        let mut dedup = collected.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), collected.len(), "partition is duplicate-free");
        for t in &collected {
            assert_eq!(eng.query(t), Nat(1));
        }
        assert_eq!(eng.query(&[0, 3]), Nat(0), "cross-shard tuple is zero");
    }

    #[test]
    fn closed_formula_runs_on_one_shard() {
        // An arity-0 formula's single empty-tuple answer belongs to no
        // component; sharding would duplicate it per shard. The arity
        // rule is folded into `answers_component_local`, so every build
        // path — any max_shards — must degrade to one shard.
        let (a, _e) = three_component_graph();
        for max_shards in [0usize, 1, 2, 8] {
            let eng: GeneralShardedEngine<Nat> =
                ShardedEngine::build(&a, &Formula::True, &CompileOptions::default(), max_shards)
                    .unwrap();
            assert_eq!(eng.arity(), 0);
            assert!(!eng.component_local());
            assert_eq!(eng.num_shards(), 1, "max_shards = {max_shards}");
            assert_eq!(eng.count(), 1, "exactly one empty-tuple answer");
            assert_eq!(eng.collect_answers(), vec![Vec::<u32>::new()]);
            assert_eq!(eng.answer(0), Some(Vec::new()), "rank 0 = empty tuple");
            assert_eq!(eng.answer(1), None);
            assert_eq!(eng.query(&[]), Nat(1));
        }
        // a closed formula with no answers: same admission outcome
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &Formula::False, &CompileOptions::default(), 0).unwrap();
        assert_eq!(eng.num_shards(), 1);
        assert_eq!(eng.count(), 0);
        assert!(!eng.is_nonempty());
        assert_eq!(eng.answer(0), None);
    }

    #[test]
    fn non_local_formula_falls_back_to_one_shard() {
        let (a, e) = three_component_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)])
            .not()
            .and(Formula::neq(Var(0), Var(1)));
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 0).unwrap();
        assert!(!eng.component_local());
        assert_eq!(eng.num_shards(), 1);
        // cross-component non-edges are genuine answers, served correctly
        assert_eq!(eng.query(&[0, 3]), Nat(1));
        assert_eq!(eng.query(&[0, 1]), Nat(0));
    }

    #[test]
    fn updates_route_to_owning_shard() {
        let (a, e) = three_component_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 2).unwrap();
        assert_eq!(eng.num_shards(), 2);
        let before = eng.count();
        eng.apply_update(&TupleUpdate::remove(e, &[0, 1])).unwrap();
        assert_eq!(eng.count(), before - 1);
        assert_eq!(eng.query(&[0, 1]), Nat(0));
        assert_eq!(eng.query(&[1, 0]), Nat(1), "reverse edge untouched");
        eng.apply_update(&TupleUpdate::insert(e, &[0, 1])).unwrap();
        assert_eq!(eng.count(), before);
        // cross-shard insert rejected, cross-shard remove is a no-op
        assert_eq!(
            eng.apply_update(&TupleUpdate::insert(e, &[0, 3])),
            Err(UpdateError::NotGaifmanPreserving)
        );
        assert_eq!(eng.apply_update(&TupleUpdate::remove(e, &[0, 3])), Ok(()));
    }

    #[test]
    fn sharded_direct_access_matches_stream() {
        let (a, e) = three_component_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 0).unwrap();
        assert!(eng.num_shards() > 1);
        let check = |eng: &GeneralShardedEngine<Nat>| {
            let all = eng.collect_answers();
            for (k, t) in all.iter().enumerate() {
                assert_eq!(eng.answer(k as u64).as_ref(), Some(t), "rank {k}");
            }
            assert_eq!(eng.answer(all.len() as u64), None);
            assert_eq!(eng.answer(u64::MAX), None);
            // ranges, including ones that cross shard boundaries
            assert_eq!(eng.answer_range(0, all.len() + 5), all);
            for k in 0..all.len() {
                assert_eq!(
                    eng.answer_range(k as u64, 4),
                    all[k..(k + 4).min(all.len())],
                    "range at {k}"
                );
            }
            for seed in 0..16u64 {
                let s = eng.sample(seed).expect("nonempty");
                assert!(all.contains(&s), "seed {seed}");
            }
        };
        check(&eng);
        // ranks stay live after an update batch spanning shards
        eng.apply_batch(&[
            TupleUpdate::remove(e, &[0, 1]),
            TupleUpdate::remove(e, &[3, 4]),
            TupleUpdate::insert(e, &[0, 1]),
            TupleUpdate::remove(e, &[6, 7]),
        ])
        .unwrap();
        check(&eng);
    }

    #[test]
    fn count_is_atomic_under_concurrent_batches() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Two components with one edge each; exactly one answer lives in
        // one of them at any time, and each batch moves it to the other
        // component. A torn cross-shard read sees 0 or 2.
        let mut sig = Signature::new();
        let e = sig.add_relation("E", 2);
        let mut a = Structure::new(Arc::new(sig), 4);
        a.insert(e, &[0, 1]);
        a.insert(e, &[2, 3]);
        let a = Arc::new(a);
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 0).unwrap();
        assert_eq!(eng.num_shards(), 2);
        eng.apply_update(&TupleUpdate::remove(e, &[2, 3])).unwrap();
        assert_eq!(eng.count(), 1);
        let to_second = [
            TupleUpdate::remove(e, &[0, 1]),
            TupleUpdate::insert(e, &[2, 3]),
        ];
        let to_first = [
            TupleUpdate::remove(e, &[2, 3]),
            TupleUpdate::insert(e, &[0, 1]),
        ];
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..300 {
                    eng.apply_batch(&to_second).unwrap();
                    eng.apply_batch(&to_first).unwrap();
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                assert_eq!(eng.count(), 1, "torn cross-shard count");
                assert!(eng.is_nonempty(), "torn cross-shard nonempty");
                let t = eng.answer(0).expect("rank 0 exists in every snapshot");
                assert!(t == vec![0, 1] || t == vec![2, 3], "torn rank access");
                assert_eq!(eng.answer(1), None, "rank 1 never exists");
            }
        });
        assert_eq!(eng.count(), 1);
    }

    #[test]
    fn batch_queries_group_by_shard() {
        let (a, e) = three_component_graph();
        let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
        let eng: GeneralShardedEngine<Nat> =
            ShardedEngine::build(&a, &phi, &CompileOptions::default(), 3).unwrap();
        let points: Vec<[u32; 2]> = (0..9).flat_map(|u| (0..9).map(move |v| [u, v])).collect();
        let tuples: Vec<&[u32]> = points.iter().map(|p| p.as_slice()).collect();
        let batch = eng.query_batch(&tuples);
        for (t, got) in tuples.iter().zip(&batch) {
            assert_eq!(*got, eng.query(t), "batch vs point at {t:?}");
        }
    }
}
