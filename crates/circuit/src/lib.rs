//! Circuits with permanent gates: system **S6**, the target representation
//! of the Theorem 6 compiler.
//!
//! A circuit (Section 3 of the paper) is a DAG of gates: inputs, constants,
//! addition, multiplication, and **permanent gates** whose inputs form a
//! `k × n` matrix with `k` bounded by the query. The same circuit can be
//! evaluated in *any* commutative semiring — the universal property that
//! the provenance and enumeration results exploit. Constants are stored as
//! references (`0`, `1`, or an index into a per-evaluation literal table)
//! precisely so the circuit stays semiring-agnostic.
//!
//! # Flat-arena IR
//!
//! A compiled circuit is a handful of contiguous allocations, not one per
//! gate: every gate's child list lives in one shared `Vec<GateId>` arena,
//! and a [`GateDef`] stores only a [`ChildRange`] (offset + length) into
//! it. [`Circuit::children`] resolves a range to a slice. [`GateDef`] is
//! therefore `Copy`-cheap, gate iteration is cache-friendly, and circuits
//! serialize/compare as plain flat buffers. The derived adjacency
//! mirrors this layout: [`EvalPlan`]'s parent lists and per-slot
//! input-gate lists are CSR (offset table + one flat buffer), built in
//! two counting passes.
//!
//! # Evaluation
//!
//! * [`Circuit`]/[`CircuitBuilder`] — construction with topological-id
//!   invariants, peephole zero/one pruning and hash-consed gates;
//! * [`Circuit::eval`] — one-shot evaluation (streaming permanents,
//!   `O_k(size)`);
//! * [`DynEvaluator`] — the dynamic evaluator of Theorem 8: cached gate
//!   values plus a per-permanent-gate maintenance structure chosen by
//!   semiring capability ([`PermMaint`]: segment tree for general
//!   semirings, inclusion–exclusion for rings, column-type counting for
//!   finite semirings);
//! * [`CircuitStats`] — depth, fan-out, permanent-row bounds; the
//!   quantities Theorem 6 promises are constant.
//!
//! # Zero-restore queries
//!
//! [`DynEvaluator::set_input`] mutates persistent state and repairs the
//! affected cone. Point queries, however, only need the output *as if*
//! some inputs were patched, and [`DynEvaluator::peek_memo`] is the one
//! way to read it: it re-evaluates exactly the cone above the patched
//! slots, in one ascending sweep, into a reusable [`PeekScratch`]. A
//! slot's cone comes from the plan when memoized and is otherwise walked
//! on demand through a [`DirtyQueue`] — the same walk the plan memoizes
//! with. No state is written, nothing is restored, and permanent gates
//! answer through the non-mutating [`PermMaint::peek`], where the proof
//! of Theorem 8 runs `2|x̄|` update/restore cycles. Taking `&self`, the
//! read also makes batched and concurrent point queries possible.
//!
//! # Plan/state split
//!
//! The evaluator is split into an immutable, `Send + Sync` [`EvalPlan`]
//! (parent CSR, per-slot input-gate CSR, dense perm numbering, memoized
//! per-slot peek cones) and the mutable [`DynEvaluator`] state (gate
//! values, permanent maintenance structures, slot values). One
//! `Arc<EvalPlan>` backs any number of states
//! ([`DynEvaluator::from_plan`]) — this is what lets a sharded engine
//! keep one compiled plan and a cheap mutable state per Gaifman shard.
//! Topology does not depend on the semiring, so the plan is also the
//! **one** adjacency of the stack: the free-semiring machine of
//! `agq-enumerate` reads [`EvalPlan::parents`] /
//! [`EvalPlan::slot_gates`] / [`EvalPlan::perm_index`] instead of
//! deriving its own, and every sweep — update, delta, support — and every
//! cone walk is scheduled by one [`DirtyQueue`].
//! [`EvalPlan::with_cones`] memoizes the cones of the slots point queries
//! patch, so [`DynEvaluator::peek_memo`] skips the walk for them.
//!
//! # Vectorized sweeps
//!
//! Add gates dominate sweep time on the compiled circuits (the
//! domain-sized aggregates at the root). Three pieces turn their
//! child gathers into bulk slice sums: carrier-level kernels
//! ([`agq_semiring::Semiring::sum_slice`] /
//! `add_assign_slices`, auto-vectorized for machine-word carriers), a
//! plan-time **dense-run analysis** ([`EvalPlan`] precomputes each add
//! gate's maximal contiguous child-id runs, exposed via
//! [`EvalPlan::add_runs`] and summarized by
//! [`EvalPlan::dense_run_stats`]), and the id-relabeling pass
//! [`Circuit::cluster_adds`] that the compiler applies once so exclusive
//! children actually *are* contiguous (and no gate the output does not
//! read is left to be swept). The bit-identity rules for when a
//! sum may go through the bulk tier are documented in `eval.rs` (kernel
//! contract) and enforced by the differential tests.

mod builder;
mod csr;
mod dirty;
mod dynamic;
mod eval;
mod relabel;
mod stats;

pub use builder::CircuitBuilder;
pub use dirty::DirtyQueue;
pub use dynamic::{
    DenseRunStats, DynEvaluator, EvalPlan, FiniteEvaluator, FiniteMaint, GeneralEvaluator,
    ParentRef, PeekScratch, PermMaint, RingEvaluator, RingMaint,
};
pub use eval::eval_gates;
pub use stats::CircuitStats;

use agq_semiring::Semiring;

/// Index of a gate within its circuit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GateId(pub u32);

/// A semiring-agnostic constant: `0`, `1`, or the `i`-th entry of the
/// literal table supplied at evaluation time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConstRef {
    /// The additive identity.
    Zero,
    /// The multiplicative identity.
    One,
    /// An indexed literal (e.g. a coefficient of the compiled expression).
    Lit(u32),
}

/// A contiguous run of child references in the circuit's shared arena
/// (resolve with [`Circuit::children`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChildRange {
    start: u32,
    len: u32,
}

impl ChildRange {
    /// A range of `len` children starting at arena offset `start`.
    /// Used by deserializers reconstructing a circuit from its flat
    /// buffers; [`CircuitBuilder`] is the normal way to mint ranges.
    pub fn new(start: u32, len: u32) -> Self {
        ChildRange { start, len }
    }

    /// Arena offset of the first child.
    pub fn start(self) -> u32 {
        self.start
    }

    /// Number of children in the range.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One gate. Children always have smaller ids (topological invariant,
/// enforced by [`CircuitBuilder`]); child lists live in the circuit's
/// shared arena.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateDef {
    /// External input, identified by a dense *slot* index.
    Input(u32),
    /// A constant.
    Const(ConstRef),
    /// Sum of the referenced children. The compiler emits wide (chunked
    /// data-sized) fan-in for term and top-level sums so the vectorized
    /// dense-run tier has slices to sweep; per-element products still go
    /// through 1-row permanent gates.
    Add(ChildRange),
    /// Product of two children.
    Mul(GateId, GateId),
    /// Permanent of a `rows × (cols.len()/rows)` matrix; the referenced
    /// children are column-major (entry `(r, c)` at `cols[c*rows + r]`).
    Perm {
        /// Number of rows (≤ `agq_perm::MAX_ROWS`).
        rows: u8,
        /// Column-major child references.
        cols: ChildRange,
    },
}

/// An immutable circuit with a distinguished output gate.
///
/// Storage is a flat arena: `gates` (one fixed-size [`GateDef`] each) and
/// `children` (every gate's child list, concatenated). Equality compares
/// both buffers — two circuits are `==` exactly when they are
/// byte-identical IR.
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    gates: Vec<GateDef>,
    children: Vec<GateId>,
    num_slots: u32,
    num_lits: u32,
    output: GateId,
}

impl Circuit {
    /// Reassemble a circuit from its flat buffers (the inverse of
    /// reading them back via [`gates`](Self::gates) /
    /// [`child_arena`](Self::child_arena) / the scalar accessors).
    ///
    /// Every structural invariant the builder enforces is re-checked so
    /// that a corrupted or adversarial byte stream yields an `Err`
    /// instead of out-of-bounds panics later: child ranges must lie
    /// inside the arena, every referenced gate id (children, `Mul`
    /// operands, the output) must be *smaller* than the referencing gate
    /// (topological order) and within bounds, slot/literal references
    /// must be within the declared counts, `Perm` row counts must lie in
    /// `1..=agq_perm::MAX_ROWS`, and `Perm` column counts must be
    /// divisible by their row count.
    pub fn from_raw_parts(
        gates: Vec<GateDef>,
        children: Vec<GateId>,
        num_slots: u32,
        num_lits: u32,
        output: GateId,
    ) -> Result<Self, &'static str> {
        let n = gates.len() as u64;
        let arena = children.len() as u64;
        let check_range = |g: u64, r: ChildRange| -> Result<(), &'static str> {
            if r.start as u64 + r.len as u64 > arena {
                return Err("child range out of arena bounds");
            }
            for &c in &children[r.as_range()] {
                if (c.0 as u64) >= g {
                    return Err("child id violates topological order");
                }
            }
            Ok(())
        };
        for (g, def) in gates.iter().enumerate() {
            let g = g as u64;
            match *def {
                GateDef::Input(slot) => {
                    if slot >= num_slots {
                        return Err("input slot out of range");
                    }
                }
                GateDef::Const(ConstRef::Lit(i)) => {
                    if i >= num_lits {
                        return Err("literal index out of range");
                    }
                }
                GateDef::Const(_) => {}
                GateDef::Add(r) => check_range(g, r)?,
                GateDef::Mul(a, b) => {
                    if a.0 as u64 >= g || b.0 as u64 >= g {
                        return Err("mul operand violates topological order");
                    }
                }
                GateDef::Perm { rows, cols } => {
                    if rows as usize > agq_perm::MAX_ROWS {
                        return Err("perm rows exceed MAX_ROWS");
                    }
                    if rows == 0 || cols.len() % rows as usize != 0 {
                        return Err("perm column count not divisible by rows");
                    }
                    check_range(g, cols)?;
                }
            }
        }
        if n == 0 || output.0 as u64 >= n {
            return Err("output gate out of range");
        }
        Ok(Circuit {
            gates,
            children,
            num_slots,
            num_lits,
            output,
        })
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[GateDef] {
        &self.gates
    }

    /// Resolve a child range to its slice of the shared arena.
    pub fn children(&self, range: ChildRange) -> &[GateId] {
        &self.children[range.as_range()]
    }

    /// The whole child arena (total wire count is its length plus two per
    /// `Mul` gate).
    pub fn child_arena(&self) -> &[GateId] {
        &self.children
    }

    /// The output gate.
    pub fn output(&self) -> GateId {
        self.output
    }

    /// Number of input slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots as usize
    }

    /// Number of literal-table entries expected at evaluation.
    pub fn num_lits(&self) -> usize {
        self.num_lits as usize
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Evaluate in semiring `S`: `slots` maps input slots to values,
    /// `lits` the literal table. Runs in `O_k(size)`.
    pub fn eval<S: Semiring>(&self, slots: &[S], lits: &[S]) -> S {
        assert_eq!(slots.len(), self.num_slots as usize, "slot count mismatch");
        assert_eq!(lits.len(), self.num_lits as usize, "literal count mismatch");
        let values = eval_gates(self, slots, lits);
        values[self.output.0 as usize].clone()
    }

    /// Structural statistics.
    pub fn stats(&self) -> CircuitStats {
        stats::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agq_semiring::{MinPlus, Nat, Poly, Semiring};

    /// Build Σ_{i≠j} a_i·b_j as a 2-row permanent over explicit inputs and
    /// check the universal property: the same circuit evaluates correctly
    /// in ℕ, the tropical semiring, and the free semiring.
    fn two_row_perm_circuit(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let mut cols = Vec::new();
        for i in 0..n {
            let a = b.input(i as u32);
            let w = b.input((n + i) as u32);
            cols.push([a, w]);
        }
        let p = b.perm(2, &cols);
        b.finish(p)
    }

    #[test]
    fn universal_evaluation_nat() {
        let c = two_row_perm_circuit(3);
        // a = [1,2,3], b = [10,20,30]
        let slots: Vec<Nat> = [1, 2, 3, 10, 20, 30].map(Nat).to_vec();
        // Σ_{i≠j} a_i b_j = (1+2+3)(10+20+30) − (10+40+90) = 360−140 = 220
        assert_eq!(c.eval(&slots, &[]), Nat(220));
    }

    #[test]
    fn universal_evaluation_minplus() {
        let c = two_row_perm_circuit(3);
        let slots: Vec<MinPlus> = [5, 1, 4, 2, 8, 3].map(MinPlus).to_vec();
        // min over i≠j of a_i + b_j: candidates 5+8=13,5+3=8,1+2=3,1+3=4,
        // 4+2=6,4+8=12 → 3
        assert_eq!(c.eval(&slots, &[]), MinPlus(3));
    }

    #[test]
    fn universal_evaluation_provenance() {
        use agq_semiring::Gen;
        let c = two_row_perm_circuit(2);
        let g = |i| Poly::var(Gen(i));
        let slots = vec![g(1), g(2), g(10), g(20)];
        let out = c.eval(&slots, &[]);
        // a1·b2 + a2·b1
        let expect = g(1).mul(&g(20)).add(&g(2).mul(&g(10)));
        assert_eq!(out, expect);
    }

    #[test]
    fn literal_constants() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let c = b.lit(0);
        let m = b.mul(x, c);
        let one = b.one();
        let s = b.add(&[m, one]);
        let circuit = b.finish(s);
        assert_eq!(circuit.eval(&[Nat(5)], &[Nat(3)]), Nat(16));
    }

    #[test]
    fn from_raw_parts_rejects_oversized_perms() {
        let rows = agq_perm::MAX_ROWS as u8 + 1;
        let gates = vec![
            GateDef::Input(0),
            GateDef::Perm {
                rows,
                cols: ChildRange::new(0, rows as u32),
            },
        ];
        let children = vec![GateId(0); rows as usize];
        let err = Circuit::from_raw_parts(gates.clone(), children.clone(), 1, 0, GateId(1));
        assert_eq!(err.unwrap_err(), "perm rows exceed MAX_ROWS");
        // The same matrix at the largest admissible height loads.
        let mut ok = gates;
        ok[1] = GateDef::Perm {
            rows: rows - 1,
            cols: ChildRange::new(0, rows as u32 - 1),
        };
        assert!(Circuit::from_raw_parts(ok, children, 1, 0, GateId(1)).is_ok());
    }

    #[test]
    fn arena_holds_all_child_lists() {
        let mut b = CircuitBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.add(&[x, y]);
        let p = b.perm_flat(2, vec![x, y, s, x]);
        let out = b.add(&[s, p]);
        let c = b.finish(out);
        // Add(x,y) + Perm cols (x,y,s,x) + Add(s,p) = 8 arena entries.
        assert_eq!(c.child_arena().len(), 8);
        match c.gates()[s.0 as usize] {
            GateDef::Add(r) => assert_eq!(c.children(r), &[x, y]),
            ref g => panic!("expected add, got {g:?}"),
        }
        match c.gates()[p.0 as usize] {
            GateDef::Perm { rows, cols } => {
                assert_eq!(rows, 2);
                assert_eq!(c.children(cols), &[x, y, s, x]);
            }
            ref g => panic!("expected perm, got {g:?}"),
        }
    }
}
