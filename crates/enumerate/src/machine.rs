//! Support tracking for circuits evaluated in the free semiring.
//!
//! # Plan/state split
//!
//! The machine mirrors the plan/state architecture of
//! [`agq_circuit::DynEvaluator`], and shares its plan: circuit topology
//! is semiring-independent, so the adjacency the free-semiring sweep
//! walks — parent references, per-slot input-gate lists, the perm-gate
//! numbering, the dense-run table — is the one the point and count
//! valuations walk, held once by an [`agq_circuit::EvalPlan`]. The
//! immutable, `Send + Sync` [`EnumPlan`] adds only the **enumeration
//! layout** on top of an `Arc<EvalPlan>`: where each add gate's live-set
//! words start, and the per-perm-gate pool layout. The [`EnumMachine`]
//! is the mutable state half: input summand lists, the Boolean support
//! shadow, the add gates' live-child bitmasks, and the pooled permanent
//! support structure. One `Arc<EnumPlan>` backs any number of machine
//! states ([`EnumMachine::from_plan`]) — the per-shard answer indexes of
//! a sharded engine share one plan, and through it the engine's one
//! `EvalPlan`.
//!
//! # Flat layout
//!
//! Every addition gate owns `⌈fan-in / 64⌉` words of one shared bitmask
//! buffer, one bit per child position: the bit is set iff that child is
//! supported. A support flip is one bit write, and a cursor walks the
//! live children in ascending child position by word scans — so the
//! order at add gates is a function of the current state, not of the
//! update history. The compiler caps fan-in at 64, so a compiled add
//! gate owns exactly one word.
//!
//! The Lemma 39 permanent support structure is pooled (`PermPool`):
//! per-column masks and doubly-linked bucket lists live in arrays sized
//! by the total column count over all permanent gates, and per-mask
//! bucket heads/tails/counts in arrays sized by the total bucket count —
//! moving a column between buckets is an O(1) splice in flat memory,
//! with no per-gate, per-mask `Vec`s anywhere. A splice appends at the
//! bucket tail, so the column order within a bucket is the one piece of
//! update history the machine keeps ([`MachineStateDump::perm_order`]).

use agq_circuit::{Circuit, ConstRef, DirtyQueue, EvalPlan, GateDef, GeneralEvaluator, ParentRef};
use agq_perm::support::sdr_exists;
use agq_semiring::{Gen, Nat};
use std::sync::{Arc, Mutex, MutexGuard};

/// An input value in the free semiring: a list of summand monomials,
/// each a (not necessarily sorted) list of generators. The empty list is
/// `0`; a single empty monomial is `1`.
pub type InputVal = Vec<Vec<Gen>>;

/// Sentinel for "no neighbor" in the pooled bucket lists.
const NO_IDX: u32 = u32::MAX;

/// Set or clear bit `at` of a word buffer.
fn set_bit(words: &mut [u64], at: usize, on: bool) {
    let bit = 1u64 << (at % 64);
    if on {
        words[at / 64] |= bit;
    } else {
        words[at / 64] &= !bit;
    }
}

/// The first set bit at or after `from`, if any.
pub(crate) fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = words.get(w)? & (!0u64 << (from % 64));
    while word == 0 {
        w += 1;
        word = *words.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// The last set bit strictly before `end`, if any.
pub(crate) fn prev_set(words: &[u64], end: usize) -> Option<usize> {
    let last = end.min(words.len() * 64).checked_sub(1)?;
    let mut w = last / 64;
    let mut word = words[w] & (!0u64 >> (63 - last % 64));
    while word == 0 {
        w = w.checked_sub(1)?;
        word = words[w];
    }
    Some(w * 64 + 63 - word.leading_zeros() as usize)
}

/// Static layout of one permanent gate's slice of the [`PermPool`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct PermMeta {
    /// Row count `k`.
    pub k: u8,
    /// Start of this gate's columns in the pooled per-column arrays.
    pub col_base: u32,
    /// Start of this gate's `2^k` buckets in the pooled per-mask arrays.
    pub bucket_base: u32,
}

/// Lemma 39's structure for every permanent gate, pooled: columns
/// bucketed by their Boolean support mask, with counts for `O_k(1)` Hall
/// checks. Buckets are doubly-linked lists threaded through two flat
/// per-column arrays (`next`/`prev`, local column indexes), with
/// per-bucket head/tail/count arrays — one allocation each for the whole
/// circuit, O(1) splices on support flips.
#[derive(Debug)]
pub(crate) struct PermPool {
    /// Current support mask of each column (indexed by `col_base + col`).
    col_mask: Vec<u32>,
    /// Successor within the column's bucket (`NO_IDX` at the tail).
    next: Vec<u32>,
    /// Predecessor within the column's bucket (`NO_IDX` at the head).
    prev: Vec<u32>,
    /// First column of each bucket (indexed by `bucket_base + mask`).
    heads: Vec<u32>,
    /// Last column of each bucket.
    tails: Vec<u32>,
    /// Number of columns in each bucket.
    counts: Vec<i64>,
}

impl PermPool {
    fn with_layout(total_cols: usize, total_buckets: usize) -> Self {
        PermPool {
            col_mask: vec![0; total_cols],
            next: vec![NO_IDX; total_cols],
            prev: vec![NO_IDX; total_cols],
            heads: vec![NO_IDX; total_buckets],
            tails: vec![NO_IDX; total_buckets],
            counts: vec![0; total_buckets],
        }
    }

    /// Append `col` (local index) to the tail of `mask`'s bucket.
    fn push_bucket(&mut self, meta: PermMeta, mask: u32, col: u32) {
        let cb = meta.col_base as usize;
        let bb = meta.bucket_base as usize + mask as usize;
        let t = self.tails[bb];
        self.prev[cb + col as usize] = t;
        self.next[cb + col as usize] = NO_IDX;
        if t == NO_IDX {
            self.heads[bb] = col;
        } else {
            self.next[cb + t as usize] = col;
        }
        self.tails[bb] = col;
        self.counts[bb] += 1;
        self.col_mask[cb + col as usize] = mask;
    }

    /// Splice `col` out of its current bucket.
    fn unlink(&mut self, meta: PermMeta, col: u32) {
        let cb = meta.col_base as usize;
        let mask = self.col_mask[cb + col as usize];
        let bb = meta.bucket_base as usize + mask as usize;
        let p = self.prev[cb + col as usize];
        let n = self.next[cb + col as usize];
        if p == NO_IDX {
            self.heads[bb] = n;
        } else {
            self.next[cb + p as usize] = n;
        }
        if n == NO_IDX {
            self.tails[bb] = p;
        } else {
            self.prev[cb + n as usize] = p;
        }
        self.counts[bb] -= 1;
    }

    /// Flip one entry's support.
    fn set_entry(&mut self, meta: PermMeta, row: usize, col: usize, nonzero: bool) {
        let old = self.col_mask[meta.col_base as usize + col];
        let new = if nonzero {
            old | (1 << row)
        } else {
            old & !(1 << row)
        };
        if new != old {
            self.unlink(meta, col as u32);
            self.push_bucket(meta, new, col as u32);
        }
    }

    /// Re-thread one gate's buckets so its columns appear in `order` (a
    /// permutation of its local columns), keeping every column's mask.
    fn rethread(&mut self, meta: PermMeta, order: &[u32]) {
        let bb = meta.bucket_base as usize;
        let buckets = bb..bb + (1usize << meta.k);
        self.heads[buckets.clone()].fill(NO_IDX);
        self.tails[buckets.clone()].fill(NO_IDX);
        self.counts[buckets].fill(0);
        for &col in order {
            let mask = self.col_mask[meta.col_base as usize + col as usize];
            self.push_bucket(meta, mask, col);
        }
    }
}

/// Read view of one permanent gate's support structure: the Lemma 39
/// bucket lists, served from the pooled arrays.
#[derive(Clone, Copy)]
pub(crate) struct PermSupport<'m> {
    meta: PermMeta,
    pool: &'m PermPool,
}

impl PermSupport<'_> {
    /// Row count `k`.
    pub fn k(&self) -> usize {
        self.meta.k as usize
    }

    /// `counts[mask]` = number of columns with that support mask.
    pub fn counts(&self) -> &[i64] {
        let bb = self.meta.bucket_base as usize;
        &self.pool.counts[bb..bb + (1usize << self.meta.k)]
    }

    /// Current support mask of a column.
    pub fn mask_of(&self, col: u32) -> u32 {
        self.pool.col_mask[self.meta.col_base as usize + col as usize]
    }

    /// First column of `mask`'s bucket, in enumeration order.
    pub fn head(&self, mask: u32) -> Option<u32> {
        idx_opt(self.pool.heads[self.meta.bucket_base as usize + mask as usize])
    }

    /// Last column of `mask`'s bucket.
    pub fn tail(&self, mask: u32) -> Option<u32> {
        idx_opt(self.pool.tails[self.meta.bucket_base as usize + mask as usize])
    }

    /// Successor of `col` within its bucket.
    pub fn next(&self, col: u32) -> Option<u32> {
        idx_opt(self.pool.next[self.meta.col_base as usize + col as usize])
    }

    /// Predecessor of `col` within its bucket.
    pub fn prev(&self, col: u32) -> Option<u32> {
        idx_opt(self.pool.prev[self.meta.col_base as usize + col as usize])
    }

    /// Whether the permanent is nonzero in the Boolean shadow
    /// (an SDR for all rows exists).
    pub fn supported(&self) -> bool {
        sdr_exists(self.k(), self.counts())
    }
}

fn idx_opt(i: u32) -> Option<u32> {
    if i == NO_IDX {
        None
    } else {
        Some(i)
    }
}

/// Lazily maintained per-gate summand counts: the circuit evaluated in ℕ
/// with every input slot replaced by its summand-list length, kept
/// incrementally correct by a [`GeneralEvaluator`] (its `SegTreePerm<Nat>`
/// backends double as the row-subset rest-count oracle of rank descent).
/// The evaluator is a *state* over the plan's shared
/// [`EnumPlan::eval_plan`] — in an engine, the very `EvalPlan` the point
/// queries run on.
///
/// The evaluator is **not** repaired eagerly on every update — that would
/// tax ingestion whether or not ranks are ever read. Instead the support
/// sweep records `(slot, new count)` patches into `pending` (one `Vec`
/// push per changed slot), and the first rank read flushes them through
/// one batched topological sweep ([`GeneralEvaluator::set_inputs`]).
/// Until the first read nothing is built at all; the initial build reads
/// the current summand lengths directly.
pub(crate) struct CountState {
    /// `None` until the first rank/count read.
    pub(crate) eval: Option<GeneralEvaluator<Nat>>,
    /// Slot count patches recorded since the last flush (only while
    /// `eval` is built; later entries for a slot win).
    pending: Vec<(u32, Nat)>,
    /// Bumped on every flush (and rebuild) — invalidates the cached
    /// prefix-sum tables below.
    count_version: u64,
    /// Per-`Add`-gate prefix sums of child counts in child-position
    /// order, built lazily for wide gates so rank descent binary-searches
    /// the owning child instead of scanning a data-sized fan-in (the
    /// `Add`-gate "prefix-sum table" of direct access). Stale entries
    /// (older `version`) are rebuilt on touch.
    add_prefix: std::collections::HashMap<u32, AddPrefix, agq_core::FxBuildHasher>,
}

/// One cached `Add`-gate prefix table (see [`CountState::add_prefix`]).
struct AddPrefix {
    version: u64,
    /// `prefix[p]` = Σ counts of the children at positions `0..=p`
    /// (wrapping).
    prefix: Vec<u64>,
}

impl CountState {
    /// The count evaluator (callers go through [`EnumMachine::counts`],
    /// which guarantees it is built and flushed).
    pub(crate) fn eval(&self) -> &GeneralEvaluator<Nat> {
        self.eval.as_ref().expect("built by counts()")
    }

    /// The prefix-sum table of add gate `gate` over all its children in
    /// position order, rebuilt if an update flush happened since it was
    /// cached. An unsupported child counts 0, so it never owns a rank.
    /// The table is a prefix scan of the count values, run by run off
    /// the plan's dense-run table, so it reads contiguous value slices.
    pub(crate) fn add_prefix_for(&mut self, gate: u32) -> &[u64] {
        let version = self.count_version;
        let eval = self.eval.as_ref().expect("built by counts()");
        let entry = self.add_prefix.entry(gate).or_insert(AddPrefix {
            version: u64::MAX,
            prefix: Vec::new(),
        });
        if entry.version != version {
            entry.prefix.clear();
            let mut acc = 0u64;
            let vals = eval.gate_values();
            for &(lo, len) in eval.plan().add_runs(gate) {
                let run = &vals[lo as usize..(lo + len) as usize];
                entry.prefix.extend(run.iter().map(|v| {
                    acc = acc.wrapping_add(v.0);
                    acc
                }));
            }
            entry.version = version;
        }
        &entry.prefix
    }
}

/// The immutable half of the enumeration machine: the enumeration layout
/// — add-gate live-set word offsets, perm pool layout — over the
/// [`EvalPlan`] that holds the circuit's adjacency. `Send + Sync`;
/// shared by every state over the same circuit.
pub struct EnumPlan {
    /// `eval_plan`'s circuit, held directly: the cursors resolve it on
    /// every gate visit.
    circuit: Arc<Circuit>,
    /// Adjacency of the circuit, and the plan the ℕ count side runs on:
    /// in an engine, the very `EvalPlan` the point queries use.
    eval_plan: Arc<EvalPlan>,
    /// Gate `g`'s live-child bitmask is words
    /// `add_words[g]..add_words[g + 1]` of the machine's buffer:
    /// `⌈fan-in / 64⌉` words for an add gate, none for any other gate.
    add_words: Vec<u32>,
    /// Pool layout of each perm gate, by [`EvalPlan::perm_index`].
    perm_meta: Vec<PermMeta>,
    total_cols: usize,
    total_buckets: usize,
}

impl EnumPlan {
    /// Derive the plan of `circuit`, adjacency included.
    ///
    /// # Panics
    /// Panics if the circuit uses literal-table constants — enumeration
    /// circuits carry coefficient 1 everywhere.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        Self::with_eval_plan(Arc::new(EvalPlan::new(circuit)))
    }

    /// Lay the enumeration out over the circuit `eval_plan` describes,
    /// reading adjacency from it: an engine valuates **one** circuit
    /// three ways, so point queries, enumeration and rank counts share
    /// one topology. Panics as [`EnumPlan::new`].
    pub fn with_eval_plan(eval_plan: Arc<EvalPlan>) -> Self {
        let circuit = eval_plan.circuit().clone();
        assert_eq!(
            circuit.num_lits(),
            0,
            "enumeration circuits must not use literal constants"
        );
        let mut add_words = Vec::with_capacity(circuit.len() + 1);
        add_words.push(0u32);
        let mut perm_meta: Vec<PermMeta> = Vec::new();
        let mut total_cols = 0usize;
        let mut total_buckets = 0usize;
        for g in circuit.gates() {
            let words = match g {
                GateDef::Add(r) => r.len().div_ceil(64),
                GateDef::Perm { rows, cols } => {
                    perm_meta.push(PermMeta {
                        k: *rows,
                        col_base: total_cols as u32,
                        bucket_base: total_buckets as u32,
                    });
                    total_cols += cols.len() / *rows as usize;
                    total_buckets += 1 << *rows;
                    0
                }
                GateDef::Input(_) | GateDef::Const(_) | GateDef::Mul(..) => 0,
            };
            add_words.push(add_words.last().expect("nonempty") + words as u32);
        }
        EnumPlan {
            circuit,
            eval_plan,
            add_words,
            perm_meta,
            total_cols,
            total_buckets,
        }
    }

    /// The circuit this plan describes.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The evaluation plan holding this circuit's adjacency (and serving
    /// the count side).
    pub fn eval_plan(&self) -> &Arc<EvalPlan> {
        &self.eval_plan
    }

    /// Pool layout of permanent gate `gate`.
    fn perm_meta(&self, gate: u32) -> PermMeta {
        let pi = self.eval_plan.perm_index(gate).expect("a permanent gate");
        self.perm_meta[pi as usize]
    }

    /// Each permanent gate's pool layout and column count, in gate order.
    fn perm_gates(&self) -> impl Iterator<Item = (PermMeta, usize)> + '_ {
        let ends = self
            .perm_meta
            .iter()
            .skip(1)
            .map(|m| m.col_base as usize)
            .chain([self.total_cols]);
        self.perm_meta
            .iter()
            .zip(ends)
            .map(|(&m, end)| (m, end - m.col_base as usize))
    }
}

/// The enumeration state of a circuit over the free semiring: per-slot
/// input summand lists, a Boolean support shadow of every gate, the add
/// gates' live-child bitmasks, and the pooled Lemma 39 structures at
/// permanent gates. Input updates propagate in time proportional to the
/// (query-bounded) number of affected gates, with no allocation on the
/// update path (the adjacency is immutable in the shared plan, the dirty
/// queue is reused).
pub struct EnumMachine {
    plan: Arc<EnumPlan>,
    /// Summand lists per input slot.
    input_vals: Vec<InputVal>,
    /// Boolean support per gate.
    pub(crate) support: Vec<bool>,
    /// Live-child bitmasks of every add gate (layout:
    /// [`EnumPlan::add_words`]).
    add_bits: Vec<u64>,
    perms: PermPool,
    /// Reused dirty queue (drained after every update).
    dirty: DirtyQueue,
    /// Presence bitset over slots: bit `slot` is set iff the slot's value
    /// is nonzero (a non-empty summand list). Lets batched 0/1 flips
    /// compute the changed set word-at-a-time.
    slot_bits: Vec<u64>,
    /// Reused batch staging: `(word index, touched mask, desired mask)`.
    flip_words: Vec<(u32, u64, u64)>,
    /// Reused batch staging: slot-sorted copy of the incoming flips.
    flip_scratch: Vec<(u32, bool)>,
    /// Bumped on every update; outstanding cursors become invalid.
    pub(crate) version: u64,
    /// Lazily built per-gate summand counts (rank access / fast totals).
    /// Interior mutability: rank reads happen under shared references
    /// (shard read locks), but the first read builds and later reads
    /// flush pending patches.
    counts: Mutex<CountState>,
}

/// What `agq-persist` snapshots of an [`EnumMachine`] per shard: the
/// input values, from which everything else is recomputed, plus the one
/// piece of update history the machine keeps — the column order inside
/// each permanent gate's mask buckets — so a restored machine
/// enumerates in exactly the order the live one did.
#[derive(Clone, Debug)]
pub struct MachineStateDump {
    /// Summand lists per input slot.
    pub input_vals: Vec<InputVal>,
    /// Every permanent gate's local column indexes in bucket order
    /// (masks ascending, then list order), gates in gate order: a
    /// permutation of each gate's columns.
    pub perm_order: Vec<u32>,
}

impl EnumMachine {
    /// Build from initial input values, deriving a fresh plan. Equivalent
    /// to `EnumMachine::from_plan(Arc::new(EnumPlan::new(circuit)), …)`.
    ///
    /// # Panics
    /// Panics if the circuit uses literal-table constants.
    pub fn new(circuit: Arc<Circuit>, input_vals: Vec<InputVal>) -> Self {
        Self::from_plan(Arc::new(EnumPlan::new(circuit)), input_vals)
    }

    /// Instantiate a mutable enumeration state over a shared immutable
    /// plan: one bottom-up support pass over the gate arena, no counting
    /// passes, no adjacency rebuild. Permanent buckets list their
    /// columns in ascending order.
    pub fn from_plan(plan: Arc<EnumPlan>, input_vals: Vec<InputVal>) -> Self {
        let circuit = plan.circuit();
        assert_eq!(input_vals.len(), circuit.num_slots());
        let gates = circuit.gates();
        let mut add_bits = vec![0u64; *plan.add_words.last().expect("nonempty") as usize];
        let mut perms = PermPool::with_layout(plan.total_cols, plan.total_buckets);
        let mut support = vec![false; gates.len()];
        // Bottom-up: children precede parents, so one pass suffices.
        for (i, g) in gates.iter().enumerate() {
            support[i] = match g {
                GateDef::Input(slot) => !input_vals[*slot as usize].is_empty(),
                GateDef::Const(ConstRef::Zero) => false,
                GateDef::Const(ConstRef::One) => true,
                GateDef::Const(ConstRef::Lit(_)) => unreachable!("no lits"),
                GateDef::Add(children) => {
                    let base = plan.add_words[i] as usize * 64;
                    let mut any = false;
                    for (p, c) in circuit.children(*children).iter().enumerate() {
                        if support[c.0 as usize] {
                            set_bit(&mut add_bits, base + p, true);
                            any = true;
                        }
                    }
                    any
                }
                GateDef::Mul(a, b) => support[a.0 as usize] && support[b.0 as usize],
                GateDef::Perm { rows, cols } => {
                    let k = *rows as usize;
                    let meta = plan.perm_meta(i as u32);
                    for (ci, col) in circuit.children(*cols).chunks_exact(k).enumerate() {
                        let mut m = 0u32;
                        for (r, child) in col.iter().enumerate() {
                            if support[child.0 as usize] {
                                m |= 1 << r;
                            }
                        }
                        perms.push_bucket(meta, m, ci as u32);
                    }
                    PermSupport { meta, pool: &perms }.supported()
                }
            };
        }
        let mut slot_bits = vec![0u64; input_vals.len().div_ceil(64)];
        for (slot, v) in input_vals.iter().enumerate() {
            set_bit(&mut slot_bits, slot, !v.is_empty());
        }
        EnumMachine {
            plan,
            input_vals,
            support,
            add_bits,
            perms,
            dirty: DirtyQueue::new(),
            slot_bits,
            flip_words: Vec::new(),
            flip_scratch: Vec::new(),
            version: 0,
            counts: Mutex::new(CountState {
                eval: None,
                pending: Vec::new(),
                count_version: 0,
                add_prefix: Default::default(),
            }),
        }
    }

    /// Dump what a restore needs: the input values and each permanent
    /// gate's bucket order. Supports, live-child bits, column masks and
    /// bucket counts are functions of the input values, and so is the
    /// order at add gates (ascending child position); the order within
    /// a permanent's mask bucket is not — a column whose mask changes is
    /// spliced to its new bucket's tail — so it is saved.
    pub fn dump_state(&self) -> MachineStateDump {
        let mut perm_order = Vec::with_capacity(self.plan.total_cols);
        for &meta in &self.plan.perm_meta {
            let ps = PermSupport {
                meta,
                pool: &self.perms,
            };
            for m in 0..1u32 << meta.k {
                let mut cur = ps.head(m);
                while let Some(col) = cur {
                    perm_order.push(col);
                    cur = ps.next(col);
                }
            }
        }
        MachineStateDump {
            input_vals: self.input_vals.clone(),
            perm_order,
        }
    }

    /// Reinstate a machine from a saved dump: [`EnumMachine::from_plan`]
    /// over the saved input values, then each permanent gate's buckets
    /// re-threaded in the saved column order. The restored machine
    /// enumerates in exactly the order the dumped one did. A dump whose
    /// input count disagrees with the plan, or whose column order is not
    /// a permutation of each gate's columns, is an `Err`, never a panic.
    pub fn from_saved(plan: Arc<EnumPlan>, dump: MachineStateDump) -> Result<Self, &'static str> {
        if dump.input_vals.len() != plan.circuit().num_slots() {
            return Err("input count disagrees with the circuit");
        }
        if dump.perm_order.len() != plan.total_cols {
            return Err("perm column order disagrees with the plan layout");
        }
        let mut machine = Self::from_plan(Arc::clone(&plan), dump.input_vals);
        let mut seen = vec![false; plan.total_cols];
        for (meta, cols) in plan.perm_gates() {
            let cb = meta.col_base as usize;
            let order = &dump.perm_order[cb..cb + cols];
            for &col in order {
                if col as usize >= cols {
                    return Err("perm column order names a column past the gate's width");
                }
                if std::mem::replace(&mut seen[cb + col as usize], true) {
                    return Err("perm column order repeats a column");
                }
            }
            machine.perms.rethread(meta, order);
        }
        Ok(machine)
    }

    /// The shared immutable plan.
    pub fn plan(&self) -> &Arc<EnumPlan> {
        &self.plan
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Arc<Circuit> {
        self.plan.circuit()
    }

    /// Current value of an input slot.
    pub fn input(&self, slot: u32) -> &InputVal {
        &self.input_vals[slot as usize]
    }

    /// Whether the output is nonzero (at least one summand).
    pub fn output_supported(&self) -> bool {
        self.support[self.circuit().output().0 as usize]
    }

    /// Live-child bitmask of an addition gate: bit `p` is set iff the
    /// child at position `p` is supported.
    pub(crate) fn add_live(&self, gate: u32) -> &[u64] {
        let w = &self.plan.add_words;
        &self.add_bits[w[gate as usize] as usize..w[gate as usize + 1] as usize]
    }

    /// Lemma 39 support structure of a permanent gate.
    pub(crate) fn perm_support(&self, gate: u32) -> PermSupport<'_> {
        PermSupport {
            meta: self.plan.perm_meta(gate),
            pool: &self.perms,
        }
    }

    /// Overwrite an input slot's value and repair the support shadow.
    /// Invalidates outstanding cursors.
    pub fn set_input(&mut self, slot: u32, value: InputVal) {
        let new_support = !value.is_empty();
        self.input_vals[slot as usize] = value;
        set_bit(&mut self.slot_bits, slot as usize, new_support);
        self.note_count(slot);
        self.refresh_slot(slot, new_support);
    }

    /// Record a slot's new summand count for the lazy count evaluator
    /// (no-op until the evaluator exists — the initial build reads the
    /// summand lengths directly).
    fn note_count(&mut self, slot: u32) {
        let n = self.input_vals[slot as usize].len() as u64;
        let st = self.counts.get_mut().expect("count state lock");
        if st.eval.is_some() {
            st.pending.push((slot, Nat(n)));
        }
    }

    /// Set a 0/1-valued slot: `true` is the single empty monomial `1`,
    /// `false` the empty sum `0`. Unlike [`EnumMachine::set_input`] this
    /// reuses the slot's existing buffers, so toggling relation
    /// indicators (the [Lemma 40] dynamic-atom slots) allocates nothing.
    /// This is [`EnumMachine::set_input_bools`] at batch size one.
    ///
    /// [Lemma 40]: crate::answers
    pub fn set_input_bool(&mut self, slot: u32, present: bool) {
        self.set_input_bools(&[(slot, present)]);
    }

    /// Whether a slot currently holds a nonzero value (for 0/1 indicator
    /// slots: whether the tuple is present). Served from the presence
    /// bitset, so batch callers can drop net no-op flips without touching
    /// the summand buffers.
    pub fn input_present(&self, slot: u32) -> bool {
        self.slot_bits[slot as usize / 64] >> (slot % 64) & 1 == 1
    }

    /// Apply a batch of 0/1 slot flips with **one** dirty-propagation
    /// sweep and one version bump. Flips are staged into `u64` words of
    /// the presence bitset (later flips of the same slot win), the changed
    /// set is computed word-at-a-time as `(current XOR desired) AND
    /// touched`, and only actually-changed slots seed the sweep — a flip
    /// to the current presence costs one bit test. The single sweep is
    /// sound for the same reason as in `agq_circuit::dynamic`: the dirty
    /// queue pops in ascending gate id, which is a topological order, so
    /// gates shared by several flip cones settle once per batch.
    pub fn set_input_bools(&mut self, flips: &[(u32, bool)]) {
        self.version += 1;
        let mut words = std::mem::take(&mut self.flip_words);
        words.clear();
        // Stage per-word masks from a slot-sorted copy: the stable sort
        // keeps input order within a slot, so applying entries in order
        // makes the *last* flip of each slot win, and every flip lands in
        // the trailing word entry (no per-flip scan of `words`).
        let mut sorted = std::mem::take(&mut self.flip_scratch);
        sorted.clear();
        sorted.extend_from_slice(flips);
        sorted.sort_by_key(|&(slot, _)| slot);
        for &(slot, present) in &sorted {
            let w = slot / 64;
            let bit = 1u64 << (slot % 64);
            match words.last_mut() {
                Some(e) if e.0 == w => {
                    e.1 |= bit;
                    if present {
                        e.2 |= bit;
                    } else {
                        e.2 &= !bit;
                    }
                }
                _ => words.push((w, bit, if present { bit } else { 0 })),
            }
        }
        self.flip_scratch = sorted;
        for &(w, touched, desired) in &words {
            let cur = self.slot_bits[w as usize];
            let changed = (cur ^ desired) & touched;
            self.slot_bits[w as usize] = (cur & !touched) | (desired & touched);
            // Normalize the summand buffer of every touched slot to the
            // 0/1 form a sequential `set_input_bool` pass would leave
            // behind; seed the sweep only from slots whose presence
            // actually changed.
            let mut rem = touched;
            while rem != 0 {
                let b = rem.trailing_zeros();
                rem &= rem - 1;
                let slot = w * 64 + b;
                let present = desired >> b & 1 == 1;
                let v = &mut self.input_vals[slot as usize];
                v.clear();
                if present {
                    // `Vec::new()` does not allocate, and the outer push
                    // reuses the slot's retained capacity.
                    v.push(Vec::new());
                }
                self.note_count(slot);
                if changed >> b & 1 == 1 {
                    self.seed_slot(slot, present);
                }
            }
        }
        self.drain_dirty();
        self.flip_words = words;
    }

    /// Propagate a slot's (possibly changed) support through the shadow.
    fn refresh_slot(&mut self, slot: u32, new_support: bool) {
        self.version += 1;
        self.seed_slot(slot, new_support);
        self.drain_dirty();
    }

    /// Flip every input gate reading `slot` to `present` (indexed; an
    /// update must not scan the circuit) and queue the parents of those
    /// that changed.
    fn seed_slot(&mut self, slot: u32, present: bool) {
        for i in 0..self.plan.eval_plan.slot_gates(slot).len() {
            let g = self.plan.eval_plan.slot_gates(slot)[i];
            if self.support[g as usize] != present {
                self.support[g as usize] = present;
                self.notify_parents(g);
            }
        }
    }

    /// Drain the dirty queue: ascending gate ids (topological), each gate
    /// settled at most once per sweep.
    fn drain_dirty(&mut self) {
        while let Some(g) = self.dirty.pop() {
            let new = self.recompute_support(g);
            if self.support[g as usize] != new {
                self.support[g as usize] = new;
                self.notify_parents(g);
            }
        }
    }

    fn notify_parents(&mut self, g: u32) {
        let sup = self.support[g as usize];
        for &p in self.plan.eval_plan.parents(g) {
            match p {
                ParentRef::Add { gate, child_pos } => {
                    let at = self.plan.add_words[gate as usize] as usize * 64 + child_pos as usize;
                    set_bit(&mut self.add_bits, at, sup);
                }
                ParentRef::Mul(_) => {}
                ParentRef::Perm { gate, row, col } => {
                    let meta = self.plan.perm_meta(gate);
                    self.perms.set_entry(meta, row as usize, col as usize, sup);
                }
            }
            self.dirty.push(p.gate());
        }
    }

    fn recompute_support(&self, g: u32) -> bool {
        match &self.circuit().gates()[g as usize] {
            GateDef::Input(_) | GateDef::Const(_) => self.support[g as usize],
            GateDef::Add(_) => self.add_live(g).iter().any(|&w| w != 0),
            GateDef::Mul(a, b) => self.support[a.0 as usize] && self.support[b.0 as usize],
            GateDef::Perm { .. } => self.perm_support(g).supported(),
        }
    }

    /// Total number of summands of the output, counted by evaluating the
    /// circuit in ℕ with each input replaced by its summand count.
    /// Linear time; used by tests (as the oracle the incremental
    /// [`EnumMachine::summand_count`] is checked against).
    pub fn count_summands(&self) -> u64 {
        let slots: Vec<Nat> = self
            .input_vals
            .iter()
            .map(|v| Nat(v.len() as u64))
            .collect();
        self.circuit().eval(&slots, &[]).0
    }

    /// The per-gate count state, built on first use and flushed up to
    /// date: after this call `eval` is `Some` and reflects every update
    /// applied so far. Counts wrap at `2^64` (see the crate docs for the
    /// overflow policy); ranks are exact whenever the answer count fits
    /// in a `u64`, which is also the addressable range of `answer(k)`.
    pub(crate) fn counts(&self) -> MutexGuard<'_, CountState> {
        let mut st = self.counts.lock().expect("count state lock");
        if st.eval.is_none() {
            st.pending.clear();
            st.add_prefix.clear();
            st.count_version = st.count_version.wrapping_add(1);
            let slots: Vec<Nat> = self
                .input_vals
                .iter()
                .map(|v| Nat(v.len() as u64))
                .collect();
            st.eval = Some(GeneralEvaluator::from_plan(
                self.plan.eval_plan().clone(),
                &slots,
                &[],
            ));
        } else if !st.pending.is_empty() {
            // Delta repair: add gates settle from accumulated child
            // deltas instead of re-summing data-sized fan-ins, keeping
            // the flush proportional to the touched cone's edge count.
            let pending = std::mem::take(&mut st.pending);
            st.eval
                .as_mut()
                .expect("just checked")
                .set_inputs_delta(&pending);
            let mut pending = pending;
            pending.clear();
            st.pending = pending;
            st.count_version = st.count_version.wrapping_add(1);
        }
        st
    }

    /// Total number of summands of the output, served from the
    /// incrementally maintained count evaluator: `O(circuit)` on the
    /// first call, `O(pending updates)` afterwards.
    pub fn summand_count(&self) -> u64 {
        self.counts()
            .eval
            .as_ref()
            .expect("built by counts()")
            .output()
            .0
    }

    /// Exhaustive invariant verification of the mutable state against
    /// the plan: the support shadow of every gate matches a fresh
    /// bottom-up recomputation, input presence bits mirror the summand
    /// lists, every add gate's live bits are exactly its supported
    /// children with no bit past the fan-in, and every perm pool bucket
    /// is a coherent doubly-linked list whose masks match the children's
    /// support with each column in exactly one bucket. `O(circuit)` with
    /// allocations — a diagnostic for recovery and quarantine-restore
    /// paths, not a hot path.
    pub fn self_check(&self) -> Result<(), String> {
        let plan = &self.plan;
        let circuit = plan.circuit();
        let gates = circuit.gates();
        if self.support.len() != gates.len() {
            return Err(format!(
                "support length {} disagrees with circuit size {}",
                self.support.len(),
                gates.len()
            ));
        }
        if self.input_vals.len() != circuit.num_slots() {
            return Err(format!(
                "input count {} disagrees with circuit slot count {}",
                self.input_vals.len(),
                circuit.num_slots()
            ));
        }
        for (slot, v) in self.input_vals.iter().enumerate() {
            let bit = self.slot_bits[slot / 64] >> (slot % 64) & 1 == 1;
            if bit == v.is_empty() {
                return Err(format!(
                    "slot {slot}: presence bit {bit} but summand list has {} entries",
                    v.len()
                ));
            }
        }
        for (i, g) in gates.iter().enumerate() {
            let expected = match g {
                GateDef::Input(slot) => !self.input_vals[*slot as usize].is_empty(),
                GateDef::Const(ConstRef::Zero) => false,
                GateDef::Const(ConstRef::One) => true,
                GateDef::Const(ConstRef::Lit(_)) => {
                    return Err(format!(
                        "gate {i}: literal constant in an enumeration circuit"
                    ))
                }
                GateDef::Add(r) => {
                    let kids = circuit.children(*r);
                    let live = self.add_live(i as u32);
                    for (p, c) in kids.iter().enumerate() {
                        let bit = live[p / 64] >> (p % 64) & 1 == 1;
                        if bit != self.support[c.0 as usize] {
                            return Err(format!(
                                "gate {i}: live bit {bit} at position {p} disagrees with the child's support"
                            ));
                        }
                    }
                    if let Some(p) = next_set(live, kids.len()) {
                        return Err(format!(
                            "gate {i}: live bit at position {p} past the fan-in {}",
                            kids.len()
                        ));
                    }
                    next_set(live, 0).is_some()
                }
                GateDef::Mul(a, b) => self.support[a.0 as usize] && self.support[b.0 as usize],
                GateDef::Perm { rows, cols } => {
                    let k = *rows as usize;
                    let Some(pi) = plan.eval_plan.perm_index(i as u32) else {
                        return Err(format!("gate {i}: perm gate missing from the dense index"));
                    };
                    let meta = plan.perm_meta[pi as usize];
                    let children = circuit.children(*cols);
                    let ncols = children.len() / k;
                    let ps = PermSupport {
                        meta,
                        pool: &self.perms,
                    };
                    for ci in 0..ncols {
                        let mut m = 0u32;
                        for (r, child) in children[ci * k..(ci + 1) * k].iter().enumerate() {
                            if self.support[child.0 as usize] {
                                m |= 1 << r;
                            }
                        }
                        if ps.mask_of(ci as u32) != m {
                            return Err(format!(
                                "gate {i}: column {ci} mask {:#b} but child support is {m:#b}",
                                ps.mask_of(ci as u32)
                            ));
                        }
                    }
                    let mut seen = vec![false; ncols];
                    for m in 0..(1u32 << k) {
                        let mut walked = 0i64;
                        let mut prev: Option<u32> = None;
                        let mut cur = ps.head(m);
                        while let Some(col) = cur {
                            if col as usize >= ncols {
                                return Err(format!(
                                    "gate {i}: bucket {m:#b} links to column {col} out of range"
                                ));
                            }
                            if seen[col as usize] {
                                return Err(format!(
                                    "gate {i}: column {col} linked twice (cycle or cross-bucket)"
                                ));
                            }
                            seen[col as usize] = true;
                            if ps.mask_of(col) != m {
                                return Err(format!(
                                    "gate {i}: column {col} in bucket {m:#b} but its mask is {:#b}",
                                    ps.mask_of(col)
                                ));
                            }
                            if ps.prev(col) != prev {
                                return Err(format!(
                                    "gate {i}: broken prev link at column {col} of bucket {m:#b}"
                                ));
                            }
                            prev = Some(col);
                            walked += 1;
                            cur = ps.next(col);
                        }
                        if ps.tail(m) != prev {
                            return Err(format!("gate {i}: tail of bucket {m:#b} disagrees"));
                        }
                        if walked != ps.counts()[m as usize] {
                            return Err(format!(
                                "gate {i}: bucket {m:#b} holds {walked} columns but counts says {}",
                                ps.counts()[m as usize]
                            ));
                        }
                    }
                    if let Some(col) = seen.iter().position(|&s| !s) {
                        return Err(format!("gate {i}: column {col} linked into no bucket"));
                    }
                    ps.supported()
                }
            };
            if expected != self.support[i] {
                return Err(format!(
                    "gate {i}: support shadow {} but recomputation gives {expected}",
                    self.support[i]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_circuit::CircuitBuilder;

    fn gen(i: u64) -> Vec<Gen> {
        vec![Gen(i)]
    }

    #[test]
    fn support_flows_through_gates() {
        // out = (x0 + x1) · x2
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let x2 = b.input(2);
        let s = b.add(&[x0, x1]);
        let m = b.mul(s, x2);
        let c = Arc::new(b.finish(m));
        let mut mach = EnumMachine::new(c, vec![vec![gen(1)], vec![], vec![gen(3)]]);
        assert!(mach.output_supported());
        mach.set_input(0, vec![]);
        assert!(!mach.output_supported(), "both addends zero");
        mach.set_input(1, vec![gen(2)]);
        assert!(mach.output_supported());
        mach.set_input(2, vec![]);
        assert!(!mach.output_supported(), "product by zero");
    }

    #[test]
    fn perm_support_is_hall_condition() {
        // 2×2 permanent of inputs; zeroing a full row kills it, zeroing
        // one diagonal still leaves the other.
        let mut b = CircuitBuilder::new();
        let g: Vec<_> = (0..4).map(|i| b.input(i)).collect();
        // columns (g0,g1), (g2,g3)
        let p = b.perm_flat(2, vec![g[0], g[1], g[2], g[3]]);
        let c = Arc::new(b.finish(p));
        let vals = |present: [bool; 4]| {
            (0..4)
                .map(|i| {
                    if present[i] {
                        vec![gen(i as u64)]
                    } else {
                        vec![]
                    }
                })
                .collect::<Vec<_>>()
        };
        let mut mach = EnumMachine::new(c, vals([true; 4]));
        assert!(mach.output_supported());
        // kill row 0 of both columns
        mach.set_input(0, vec![]);
        mach.set_input(2, vec![]);
        assert!(!mach.output_supported());
        // restore column 1 row 0: perm has the assignment (r0→c1, r1→c0)
        mach.set_input(2, vec![gen(9)]);
        assert!(mach.output_supported());
        // but killing row 1 of column 0 forces both rows into column 1
        mach.set_input(1, vec![]);
        assert!(!mach.output_supported());
    }

    #[test]
    fn pooled_bucket_lists_stay_coherent() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let p = b.perm_flat(2, inputs);
        let pg = p;
        let c = Arc::new(b.finish(p));
        let mut mach = EnumMachine::new(c, (0..6).map(|i| gens(&[i + 1])).collect());
        // walk every bucket forward and backward, checking consistency
        let check = |mach: &EnumMachine| {
            let ps = mach.perm_support(pg.0);
            let mut seen = 0;
            for m in 0..4u32 {
                let mut fwd = Vec::new();
                let mut cur = ps.head(m);
                while let Some(col) = cur {
                    assert_eq!(ps.mask_of(col), m);
                    fwd.push(col);
                    cur = ps.next(col);
                }
                let mut bwd = Vec::new();
                let mut cur = ps.tail(m);
                while let Some(col) = cur {
                    bwd.push(col);
                    cur = ps.prev(col);
                }
                bwd.reverse();
                assert_eq!(fwd, bwd, "mask {m}");
                assert_eq!(fwd.len() as i64, ps.counts()[m as usize]);
                seen += fwd.len();
            }
            assert_eq!(seen, 3, "all three columns accounted for");
        };
        check(&mach);
        for (slot, present) in [(0, false), (3, false), (0, true), (1, false), (4, false)] {
            mach.set_input(slot, if present { vec![gen(9)] } else { vec![] });
            check(&mach);
        }
    }

    #[test]
    fn shared_plan_machines_update_independently() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let p = b.perm_flat(2, inputs);
        let c = Arc::new(b.finish(p));
        let plan = Arc::new(EnumPlan::new(c));
        let init: Vec<InputVal> = (0..6).map(|i| gens(&[i + 1])).collect();
        let mut a = EnumMachine::from_plan(plan.clone(), init.clone());
        let mut bm = EnumMachine::from_plan(plan.clone(), init.clone());
        // kill row 0 of every column in state A only
        a.set_input(0, vec![]);
        a.set_input(2, vec![]);
        a.set_input(4, vec![]);
        assert!(!a.output_supported());
        assert!(bm.output_supported(), "sibling state untouched");
        // kill row 1 of every column in state B only
        bm.set_input(1, vec![]);
        bm.set_input(3, vec![]);
        bm.set_input(5, vec![]);
        assert!(!bm.output_supported());
        a.set_input(0, gens(&[7]));
        assert!(a.output_supported());
        assert!(!bm.output_supported(), "sibling state still independent");
    }

    #[test]
    fn plan_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EnumPlan>();
    }

    /// The stand-alone path ([`EnumPlan::new`]) and the engine path
    /// ([`EnumPlan::with_eval_plan`] over the point side's plan, cones
    /// memoized) differ only in who built the `EvalPlan`: fed one flip
    /// script through both update entry points, the two machines agree
    /// on enumeration *order*, counts and every invariant.
    #[test]
    fn standalone_and_engine_plans_drive_identical_machines() {
        // out = perm₂[(a_i, a_i·b_i)]_{i<4} + Σ_i b_i over slots a = 0..4, b = 4..8
        let mut b = CircuitBuilder::new();
        let (mut entries, mut bs) = (Vec::new(), Vec::new());
        for i in 0..4 {
            let a = b.input(i);
            let w = b.input(4 + i);
            entries.extend([a, b.mul(a, w)]);
            bs.push(w);
        }
        let p = b.perm_flat(2, entries);
        let s = b.add(&bs);
        let out = b.add(&[p, s]);
        let c = Arc::new(b.finish(out));
        let init: Vec<InputVal> = (0..8).map(|i| gens(&[i + 1])).collect();

        let all_slots: Vec<u32> = (0..8).collect();
        let engine_plan = Arc::new(EvalPlan::with_cones(c.clone(), &all_slots));
        let shared_plan = Arc::new(EnumPlan::with_eval_plan(engine_plan.clone()));
        assert!(Arc::ptr_eq(shared_plan.eval_plan(), &engine_plan));
        let mut alone = EnumMachine::new(c, init.clone());
        let mut shared = EnumMachine::from_plan(shared_plan, init);

        let stream = |m: &EnumMachine| {
            let mut it = m.summands();
            std::iter::from_fn(|| it.next()).collect::<Vec<_>>()
        };
        let script = [
            (0, false),
            (5, false),
            (0, true),
            (2, false),
            (6, false),
            (5, true),
            (2, true),
            (7, false),
            (6, true),
        ];
        for (step, &(slot, present)) in script.iter().enumerate() {
            for m in [&mut alone, &mut shared] {
                if step % 2 == 0 {
                    m.set_input_bool(slot, present);
                } else if present {
                    m.set_input(slot, gens(&[slot as u64 + 10, slot as u64 + 20]));
                } else {
                    m.set_input(slot, vec![]);
                }
            }
            let order = stream(&alone);
            assert_eq!(order, stream(&shared), "step {step}: enumeration order");
            assert_eq!(alone.summand_count(), order.len() as u64, "step {step}");
            assert_eq!(shared.summand_count(), order.len() as u64, "step {step}");
            assert_eq!(alone.self_check(), Ok(()), "step {step}");
            assert_eq!(shared.self_check(), Ok(()), "step {step}");
        }
    }

    fn gens(ids: &[u64]) -> InputVal {
        ids.iter().map(|&i| vec![Gen(i)]).collect()
    }

    #[test]
    fn count_summands_matches_nat_eval() {
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let s = b.add(&[x0, x1]);
        let m = b.mul(s, x1);
        let c = Arc::new(b.finish(m));
        let mach = EnumMachine::new(c, vec![vec![gen(1), gen(2)], vec![gen(3), gen(4), gen(5)]]);
        // (2 + 3) * 3 = 15
        assert_eq!(mach.count_summands(), 15);
    }

    #[test]
    fn batched_bool_flips_match_sequential() {
        // 140 slots (three bitset words): out = Σ_i x_{2i}·x_{2i+1}
        let n = 140u32;
        let mut b = CircuitBuilder::new();
        let prods: Vec<_> = (0..n / 2)
            .map(|i| {
                let a = b.input(2 * i);
                let c = b.input(2 * i + 1);
                b.mul(a, c)
            })
            .collect();
        let s = b.add(&prods);
        let c = Arc::new(b.finish(s));
        let init: Vec<InputVal> = (0..n)
            .map(|i| if i % 3 == 0 { gens(&[1]) } else { vec![] })
            .collect();
        let mut batched = EnumMachine::new(c.clone(), init.clone());
        let mut sequential = EnumMachine::new(c.clone(), init.clone());
        let mut vals = init;
        // deterministic pseudo-random flips, duplicates included
        let mut x = 0x9e3779b97f4a7c15u64;
        for round in 0..20 {
            let mut batch: Vec<(u32, bool)> = Vec::new();
            for _ in 0..(round % 7) + 1 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let slot = (x >> 33) as u32 % n;
                let present = x & 1 == 1;
                batch.push((slot, present));
            }
            batched.set_input_bools(&batch);
            for &(slot, present) in &batch {
                sequential.set_input_bool(slot, present);
                vals[slot as usize] = if present { vec![Vec::new()] } else { vec![] };
            }
            let fresh = EnumMachine::new(c.clone(), vals.clone());
            for g in 0..c.gates().len() {
                assert_eq!(
                    batched.support[g], sequential.support[g],
                    "round {round}, gate {g}: batch vs sequential"
                );
                assert_eq!(
                    batched.support[g], fresh.support[g],
                    "round {round}, gate {g}: batch vs rebuild"
                );
            }
            for slot in 0..n {
                assert_eq!(batched.input(slot), sequential.input(slot), "slot {slot}");
                assert_eq!(
                    batched.input_present(slot),
                    !vals[slot as usize].is_empty(),
                    "bitset tracks presence"
                );
            }
        }
    }

    #[test]
    fn bool_input_toggle_matches_set_input() {
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let m = b.mul(x0, x1);
        let c = Arc::new(b.finish(m));
        let mut mach = EnumMachine::new(c, vec![vec![vec![]], vec![gen(7)]]);
        assert!(mach.output_supported());
        mach.set_input_bool(0, false);
        assert!(!mach.output_supported());
        assert!(mach.input(0).is_empty());
        mach.set_input_bool(0, true);
        assert!(mach.output_supported());
        assert_eq!(mach.input(0), &vec![Vec::<Gen>::new()]);
    }

    #[test]
    fn live_bit_scans_cross_word_boundaries() {
        // bits 0, 63, 64, 127 and 129 of a three-word (130-bit) set
        let mut words = vec![0u64; 3];
        for p in [0, 63, 64, 127, 129] {
            set_bit(&mut words, p, true);
        }
        let fwd: Vec<_> =
            std::iter::successors(next_set(&words, 0), |&p| next_set(&words, p + 1)).collect();
        assert_eq!(fwd, [0, 63, 64, 127, 129]);
        let bwd: Vec<_> =
            std::iter::successors(prev_set(&words, 130), |&p| prev_set(&words, p)).collect();
        assert_eq!(bwd, [129, 127, 64, 63, 0]);
        assert_eq!(next_set(&words, 1), Some(63));
        assert_eq!(next_set(&words, 65), Some(127));
        assert_eq!(next_set(&words, 128), Some(129));
        assert_eq!(next_set(&words, 130), None);
        assert_eq!(next_set(&words, 192), None, "from past the last word");
        assert_eq!(prev_set(&words, 64), Some(63));
        assert_eq!(prev_set(&words, 63), Some(0));
        assert_eq!(prev_set(&words, 129), Some(127));
        assert_eq!(prev_set(&words, 1000), Some(129), "end past the last word");
        assert_eq!(prev_set(&words, 0), None);
        set_bit(&mut words, 0, false);
        assert_eq!(prev_set(&words, 63), None);
        assert_eq!(next_set(&[], 0), None);
        assert_eq!(prev_set(&[], 5), None);
    }

    /// perm₂ over three columns of inputs, driven so a column leaves
    /// and re-enters its bucket (the one order a dump must carry).
    fn churned_perm_machine() -> (Arc<EnumPlan>, EnumMachine) {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..6).map(|i| b.input(i)).collect();
        let p = b.perm_flat(2, inputs);
        let plan = Arc::new(EnumPlan::new(Arc::new(b.finish(p))));
        let mut mach = EnumMachine::from_plan(plan.clone(), (0..6).map(|i| gens(&[i])).collect());
        mach.set_input(0, vec![]);
        mach.set_input(0, gens(&[0]));
        (plan, mach)
    }

    #[test]
    fn saved_perm_order_survives_a_restore() {
        let (plan, mach) = churned_perm_machine();
        let dump = mach.dump_state();
        assert_eq!(
            dump.perm_order,
            [1, 2, 0],
            "column 0 re-entered at the tail"
        );
        let restored = EnumMachine::from_saved(plan.clone(), dump).unwrap();
        assert_eq!(restored.self_check(), Ok(()));
        let stream = |m: &EnumMachine| {
            let mut it = m.summands();
            std::iter::from_fn(|| it.next()).collect::<Vec<_>>()
        };
        assert_eq!(stream(&restored), stream(&mach));
        let fresh = EnumMachine::from_plan(plan, (0..6).map(|i| gens(&[i])).collect());
        assert_ne!(stream(&fresh), stream(&mach), "the order is history");
        // a circuit without permanents restores too
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let m = EnumMachine::new(Arc::new(b.finish(x)), vec![gens(&[1])]);
        assert!(EnumMachine::from_saved(m.plan().clone(), m.dump_state()).is_ok());
    }

    #[test]
    fn damaged_perm_order_is_refused() {
        let (plan, mach) = churned_perm_machine();
        let damaged = |order: Vec<u32>| MachineStateDump {
            perm_order: order,
            ..mach.dump_state()
        };
        for (order, err) in [
            (vec![1, 1, 0], "perm column order repeats a column"),
            (
                vec![1, 2, 3],
                "perm column order names a column past the gate's width",
            ),
            (
                vec![1, 2],
                "perm column order disagrees with the plan layout",
            ),
        ] {
            match EnumMachine::from_saved(plan.clone(), damaged(order.clone())) {
                Err(e) => assert_eq!(e, err, "{order:?}"),
                Ok(_) => panic!("{order:?} must be refused"),
            }
        }
        let short = MachineStateDump {
            input_vals: Vec::new(),
            ..mach.dump_state()
        };
        assert!(EnumMachine::from_saved(plan, short).is_err());
    }
}
