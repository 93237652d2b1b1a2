//! Constant-delay enumeration over circuits in the free semiring:
//! system **S8**, results (C), (D) and the enumeration half of (E).
//!
//! The same circuit the Theorem 6 compiler produces can be evaluated in
//! the free (provenance) semiring, where values are formal sums of
//! monomials. Materializing those sums would be as large as the output;
//! instead — exactly as in Section 5 of the paper — every gate value is
//! represented by a **bidirectional enumerator** of its summands:
//!
//! * addition gates concatenate the enumerators of their *supported*
//!   children (a live list maintained under updates);
//! * multiplication gates enumerate the pair product lexicographically;
//! * permanent gates use the Lemma 23 recursion
//!   `perm(M) = Σ_c M[r,c] · perm(M^rc)`, where the columns `c` worth
//!   visiting (`N[r,c] = 1` and `perm(N^rc) = 1`) come from the Lemma 39
//!   structure: per-support-mask column lists plus Hall-condition checks
//!   on the mask counts (`agq_perm::support`), all `O_k(1)` per step.
//!
//! # Plan/state split and CSR layout
//!
//! [`machine::EnumMachine`] holds the support state (Boolean shadow of
//! the circuit) and maintains it in constant time per input flip — the
//! Gaifman-preserving dynamics of Theorem 24. It is split into an
//! immutable, `Send + Sync` **plan** ([`machine::EnumPlan`]) and a cheap
//! mutable **state**, mirroring `agq_circuit::EvalPlan`/`DynEvaluator`:
//!
//! * the plan is the enumeration layout — where each add gate's
//!   live-set words start, and the permanent pool layout — over an
//!   `Arc<agq_circuit::EvalPlan>`, which holds the circuit's adjacency
//!   (parent references, per-slot input-gate lists, perm numbering,
//!   dense runs) once for every valuation: in an engine it is the very
//!   plan the point queries and the count side run on.
//!   One `Arc<EnumPlan>` backs any number of machine states
//!   ([`machine::EnumMachine::from_plan`]);
//! * the state owns only mutable buffers: input summand lists, the
//!   support shadow, the add gates' live-child bitmasks (one bit per
//!   child position, `⌈fan-in / 64⌉` words per gate in one shared
//!   buffer; a support flip is one bit write, and cursors walk live
//!   children in ascending position, so the order at add gates is a
//!   function of the state), and the pooled Lemma 39 permanent structure
//!   (`machine::PermPool` — per-column masks plus doubly-linked
//!   mask-bucket lists threaded through flat arrays, with per-bucket
//!   head/tail/count arrays; a support flip is an O(1) splice). No
//!   per-gate, per-mask `Vec`s anywhere; the hot update path touches
//!   flat arrays only and allocates nothing (the dirty queue — an
//!   [`agq_circuit::DirtyQueue`], the schedule of every sweep in the
//!   stack — is reused).
//!
//! The cursor layer ([`cursor`]) scans add gates' live bits, walks the
//! bucket lists through the pooled links, and keeps its Hall-condition
//! scratch on the stack, so steady-state enumeration (advance/retreat)
//! performs no heap allocation beyond the answer tuples it returns.
//!
//! # Shard routing
//!
//! [`shard::ShardedEngine`] serves one query from Gaifman-component
//! shards: `φ` is compiled **once** into one shared immutable plan (the
//! `CompiledQuery` — circuit plus slot registry — with the `EvalPlan`
//! and `EnumPlan` derived from it; point queries, enumeration and
//! counting are three valuations of that one circuit), and every shard
//! owns only mutable state — a `QueryEngine` evaluator state and an
//! [`AnswerIndex`] whose generator slots are restricted to the shard's
//! elements ([`answers::AnswerIndex::shard_filtered`]) — behind its own
//! `RwLock`.
//! `agq_structure::gaifman::GaifmanComponents` (union-find over the
//! compile-time Gaifman graph) routes every [`agq_core::TupleUpdate`] to
//! the single shard owning its (clique) tuple; batched point queries
//! fan out one worker per shard under read locks; per-shard enumeration
//! streams chain into one **global rank order** (shard id, then the
//! shard's native cursor order) under a consistent all-shards snapshot —
//! cross-shard readers take every shard read lock in shard order, and
//! `apply_batch` holds all affected write locks simultaneously in that
//! same order, so a snapshot never observes half a batch. Admission is
//! the conservative [`agq_logic::Formula::answers_component_local`]
//! check — the arity-≥-1 rule lives there, not in the engine — and
//! formulas whose answers could span components (including all closed
//! formulas) run on one shard (correct, unsharded).
//!
//! # `AnswerIndex` invariants
//!
//! [`answers::AnswerIndex`] packages result (D): linear-time
//! preprocessing, constant-delay, duplicate-free enumeration of the
//! answers to a first-order query, dynamic under Gaifman-preserving
//! updates. It maintains:
//!
//! 1. **Support soundness** — a gate's Boolean support bit is `true` iff
//!    its free-semiring value has at least one summand; cursors only
//!    descend into supported children, which is what bounds the delay.
//! 2. **One summand per answer** — the compiled expression
//!    `Σ_x̄ [φ] · Π_i e^i_{x_i}` yields exactly one monomial
//!    `e¹_{a₁}⋯e^k_{a_k}` per answer `(a₁…a_k)`; enumeration is
//!    therefore duplicate-free without bookkeeping.
//! 3. **Update coherence** — [`answers::AnswerIndex::apply_update`]
//!    patches the 0/1 atom-indicator slots (Lemma 40's `v±_R` weights)
//!    in place and repairs the support shadow along the affected cone
//!    only; after any update sequence the index is in exactly the state
//!    a fresh build over the updated database would produce (asserted by
//!    the update-interleaving test suite).
//! 4. **Cursor invalidation** — every update bumps the machine version;
//!    outstanding iterators panic instead of yielding stale answers.
//!
//! # Batched updates and coalescing
//!
//! The whole update stack has a batch form, one coalesced sweep per
//! layer instead of per-update cascades:
//!
//! * [`machine::EnumMachine::set_input_bools`] stages 0/1 indicator
//!   flips into `u64` words of a presence bitset (later flips of a slot
//!   win), computes the changed set word-at-a-time as
//!   `(current ^ desired) & touched`, seeds only actually-changed slots,
//!   and repairs the support shadow with **one** dirty-propagation sweep
//!   and one version bump. "Dirty" across a batch means a gate is queued
//!   when any child's support flips and settles exactly once — the queue
//!   pops in ascending gate id, a topological order (children precede
//!   parents in the arena), so interleaving the cones of all batched
//!   flips cannot reorder a parent before a child. Gates shared by
//!   several cones settle once per batch, which is the throughput win.
//! * [`answers::AnswerIndex::apply_batch`] coalesces [`agq_core::TupleUpdate`]s
//!   per `(rel, tuple)` (the last wins), drops net no-op flips against
//!   the presence bitset, validates the whole batch *before* mutating
//!   anything (all-or-nothing, unlike a manual `apply_update` loop), and
//!   funnels the surviving flips through one `set_input_bools` call.
//! * [`shard::ShardedEngine::apply_batch`] groups the coalesced batch by
//!   owning shard, takes each affected shard's write lock exactly once,
//!   validates every update against the shared plan — resolving its
//!   indicator slots on the way, once for both sides — and applies the
//!   shard groups in parallel.
//!
//! The single-update paths (`set_input_bool`, `set_tuple`,
//! `apply_update`) are the batch paths at size one — there is no second
//! cascade implementation to diverge from. One relaxation rides along:
//! net no-op updates short-circuit *without* bumping the version, so
//! they no longer invalidate outstanding iterators.
//!
//! # Direct access: `answer(k)` and the count-maintenance invariant
//!
//! [`answers::AnswerIndex::answer`] returns the `k`-th answer in cursor
//! order without enumerating the first `k`. It descends the circuit
//! once, spending O(1) work per gate on the root-to-leaf path (plus one
//! Lemma 23 row recursion per permanent gate): at an addition gate the
//! owning child is found by rank inside the live supported-children
//! list, at a multiplication gate by div/mod on the right factor's
//! count, and at a permanent gate by walking the row's viable columns,
//! each contributing a block of `cnt(entry) × perm(rest)` ranks. The
//! counts that drive the descent are the **ℕ-semiring evaluation** of
//! the same circuit (slot value = summand-list length), held in a lazy
//! side evaluator:
//!
//! * **Count-maintenance invariant** — every slot mutation
//!   (`set_input`, and each slot touched by a `set_input_bools` batch
//!   sweep) appends a `(slot, new_count)` patch to a pending list; the
//!   next count read flushes all pending patches through one batched
//!   delta sweep (`set_inputs_delta` — addition gates settle from
//!   accumulated child deltas instead of re-summing data-sized
//!   fan-ins) and bumps a `count_version`. Between flushes the
//!   evaluator may be stale, but no rank query can observe it: every
//!   descent first acquires the flushed state. The cost model is
//!   write-cheap, read-pays: appends are O(1) per update, while the
//!   flush sweeps the accumulated updates' whole gate cone — counts
//!   change all the way to the root, so that sweep is irreducible
//!   under any repair schedule; laziness batches it across updates and
//!   moves it off the write path.
//! * **Derived caches version out, not patch out** — wide addition
//!   gates keep a per-gate prefix-sum table over their live supported
//!   children so the rank descent binary-searches instead of scanning
//!   a data-sized fan-in. Each table is stamped with the
//!   `count_version` that built it and is rebuilt lazily on first use
//!   after any flush; there is no incremental patching of derived
//!   tables to get wrong.
//!
//! **Overflow policy**: counts live in `Nat` (wrapping `u64`). Answer
//! counts wrap at 2⁶⁴; ranks — and therefore `answer(k)`,
//! `answer_range`, and `sample` — are exact whenever the true answer
//! count fits in a `u64`, which is also the addressable range of
//! `k: u64`. Beyond 2⁶⁴ answers the count is the true count mod 2⁶⁴
//! and direct access is unspecified (enumeration itself is unaffected:
//! cursors never consult counts).
//!
//! On the sharded engine, shards own contiguous global-rank intervals,
//! so [`shard::ShardedEngine::answer`] subtracts per-shard counts under
//! the all-shards snapshot until it finds the owning shard, then
//! delegates — O(#shards + depth) per access.
//!
//! [`cursor`] implements the bidirectional cursor; [`provenance`]
//! packages result (C); [`engine`] fronts point queries, enumeration,
//! and updates with one [`engine::EnumQueryEngine`] API.

pub mod answers;
pub mod cursor;
pub mod engine;
pub mod machine;
#[cfg(test)]
mod one_circuit_tests;
pub mod provenance;
pub mod shard;

pub use answers::{AnswerIndex, AnswerIter, UpdateError};
pub use cursor::{Cursor, SummandIter};
pub use engine::{EnumQueryEngine, FiniteEnumEngine, GeneralEnumEngine, RingEnumEngine};
pub use machine::{EnumMachine, EnumPlan, InputVal, MachineStateDump};
pub use provenance::{ProvIter, ProvenanceIndex};
pub use shard::{
    FiniteShardedEngine, GeneralShardedEngine, HealthReport, RingShardedEngine, ServeError,
    ServeMode, Served, ShardStateDump, ShardedEngine,
};
