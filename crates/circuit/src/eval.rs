//! One-shot circuit evaluation, and the bulk-sum kernels shared with the
//! dynamic evaluators.
//!
//! # Kernel contract (fold order and when bulk paths engage)
//!
//! Every add-gate sum in the engine — one-shot [`eval_gates`], the dynamic
//! evaluator's recompute/drain, the point-query peek, and the enumeration
//! count side — produces values **bit-identical** to the *canonical fold*:
//! the 4-lane chunked accumulation of [`agq_semiring::lane_sum_slice`]
//! (element `4k+j` → lane `j`, lanes merged `(l0+l1)+(l2+l3)`, tail
//! scalar). [`sum_children`] below is that fold expressed as a gather over
//! child gate ids; the two are maintained in lockstep.
//!
//! The vectorized paths replace the gather with slice kernels without
//! breaking that contract, by engaging in two tiers:
//!
//! 1. **Full run** — the gate's children are one contiguous ascending id
//!    range, so the child sequence *is* a `&values[lo..hi]` slice. Handing
//!    it to [`Semiring::sum_slice`] preserves the operand sequence, and
//!    `sum_slice` is specified to reproduce the canonical fold bit-for-bit
//!    (its default *is* `lane_sum_slice`; specialized overrides are only
//!    permitted for carriers whose addition is order/grouping-insensitive
//!    at the bit level). Safe for **every** carrier, floats included.
//! 2. **Per-run decomposition** — children split into several maximal
//!    contiguous runs, each summed as a slice and the partial sums folded.
//!    This changes the *grouping* of the sum, so it is gated on
//!    [`Semiring::ORDER_INSENSITIVE_ADD`]; order-sensitive carriers
//!    (`F64`, `MaxF`, `Rat`, `Poly`, pairs) fall back to the scalar
//!    gather whenever the segment is not a single full run.
//!
//! A carrier may specialize `sum_slice`/`add_assign_slices` iff any fold
//! of any permutation of the summands yields the same bits (declared via
//! `ORDER_INSENSITIVE_ADD = true`); the machine-word carriers (`Nat`,
//! `Int`, `Bool`, `Mod`, integer tropicals) do, with tight loops LLVM
//! auto-vectorizes. The differential suite in
//! `tests/vector_differential.rs` pins the bit-identity across all three
//! evaluator backends.

use crate::{Circuit, ConstRef, GateDef};
use agq_perm::PrefixPerm;
use agq_semiring::Semiring;

use crate::GateId;

/// Shortest run worth routing through [`Semiring::sum_slice`]: below
/// this, the call + bounds overhead beats any vectorization win, so
/// shorter runs fold scalar.
pub(crate) const MIN_RUN: usize = 4;

/// Whether `kids` is a single contiguous ascending id run (`lo, lo+1, …`),
/// i.e. the child sequence coincides with `&values[lo..lo+len]`.
#[inline]
pub(crate) fn is_full_run(kids: &[GateId]) -> bool {
    kids.windows(2).all(|w| w[1].0 == w[0].0 + 1)
}

/// Sum an add gate's child segment using the precomputed maximal
/// contiguous runs `(lo, len)` from the plan's dense-run analysis.
///
/// Tier selection per the module contract: single full run → bulk
/// [`Semiring::sum_slice`] for any carrier; several runs → per-run slices
/// only for `ORDER_INSENSITIVE_ADD` carriers (short runs are folded
/// scalar — the slice-call overhead only pays off from ~4 elements);
/// otherwise the canonical scalar gather.
pub(crate) fn sum_add<S: Semiring>(kids: &[GateId], runs: &[(u32, u32)], values: &[S]) -> S {
    if let [(lo, len)] = runs {
        if *len as usize == kids.len() {
            return S::sum_slice(&values[*lo as usize..(*lo + *len) as usize]);
        }
    }
    if S::ORDER_INSENSITIVE_ADD && !runs.is_empty() {
        let mut acc = S::zero();
        for &(lo, len) in runs {
            let seg = &values[lo as usize..(lo + len) as usize];
            if len as usize >= MIN_RUN {
                acc.add_assign(&S::sum_slice(seg));
            } else {
                for v in seg {
                    acc.add_assign(v);
                }
            }
        }
        return acc;
    }
    sum_children(kids, |c| &values[c.0 as usize])
}

/// Chunked accumulation over an addition gate's child segment of the CSR
/// arena: four independent accumulator lanes folded at the end, so wide
/// fan-in sums (the domain-sized aggregates at the circuit root) pipeline
/// instead of serializing on one accumulator. Every evaluation path —
/// one-shot [`eval_gates`], the dynamic evaluator's recompute, and the
/// point-query peek — sums through this helper, so add-gate values are
/// bit-identical across paths even for non-associative carriers (floats).
pub(crate) fn sum_children<'a, S, F>(children: &[GateId], get: F) -> S
where
    S: Semiring + 'a,
    F: Fn(GateId) -> &'a S,
{
    const LANES: usize = 4;
    if children.len() < 2 * LANES {
        let mut acc = S::zero();
        for &c in children {
            acc.add_assign(get(c));
        }
        return acc;
    }
    let mut lanes = [S::zero(), S::zero(), S::zero(), S::zero()];
    let chunks = children.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (lane, &c) in lanes.iter_mut().zip(chunk) {
            lane.add_assign(get(c));
        }
    }
    let [a, b, c, d] = lanes;
    let mut acc = a.add(&b).add(&c.add(&d));
    for &g in rest {
        acc.add_assign(get(g));
    }
    acc
}

/// Evaluate every gate of `circuit` in topological order, returning the
/// full value vector. Permanent gates use the streaming subset DP
/// (`O(n·2^k·k)` per gate, linear overall for fixed `k`).
pub fn eval_gates<S: Semiring>(circuit: &Circuit, slots: &[S], lits: &[S]) -> Vec<S> {
    let mut values: Vec<S> = Vec::with_capacity(circuit.gates().len());
    // One column buffer reused across every permanent gate (hoisted out of
    // the gate loop; `clear` keeps the allocation).
    let mut col_buf: Vec<S> = Vec::new();
    for gate in circuit.gates() {
        let v = match gate {
            GateDef::Input(slot) => slots[*slot as usize].clone(),
            GateDef::Const(ConstRef::Zero) => S::zero(),
            GateDef::Const(ConstRef::One) => S::one(),
            GateDef::Const(ConstRef::Lit(i)) => lits[*i as usize].clone(),
            GateDef::Add(children) => {
                let kids = circuit.children(*children);
                // Dense fast path: a contiguous ascending child range is a
                // value slice (tier 1 of the kernel contract — safe for
                // every carrier). The O(len) id scan is integer compares
                // against a gather of O(len) random loads + clones.
                if kids.len() >= MIN_RUN && is_full_run(kids) {
                    let lo = kids[0].0 as usize;
                    S::sum_slice(&values[lo..lo + kids.len()])
                } else {
                    sum_children(kids, |c| &values[c.0 as usize])
                }
            }
            GateDef::Mul(a, b) => values[a.0 as usize].mul(&values[b.0 as usize]),
            GateDef::Perm { rows, cols } => {
                let k = *rows as usize;
                let mut acc = PrefixPerm::new(k);
                for col in circuit.children(*cols).chunks_exact(k) {
                    col_buf.clear();
                    col_buf.extend(col.iter().map(|g| values[g.0 as usize].clone()));
                    acc.push_col(&col_buf);
                }
                acc.total().clone()
            }
        };
        values.push(v);
    }
    values
}

#[cfg(test)]
mod tests {
    use crate::CircuitBuilder;
    use agq_semiring::Nat;

    #[test]
    fn nested_gates_evaluate() {
        // (x0 + x1) · perm1([x0, x1, 1])
        let mut b = CircuitBuilder::new();
        let x0 = b.input(0);
        let x1 = b.input(1);
        let s = b.add(&[x0, x1]);
        let one = b.one();
        let p = b.perm_flat(1, vec![x0, x1, one]);
        let m = b.mul(s, p);
        let c = b.finish(m);
        // (2+3) * (2+3+1) = 30
        assert_eq!(c.eval(&[Nat(2), Nat(3)], &[]), Nat(30));
    }

    #[test]
    fn three_row_perm_inside_circuit() {
        let mut b = CircuitBuilder::new();
        let inputs: Vec<_> = (0..9).map(|i| b.input(i)).collect();
        let cols: Vec<_> = (0..3)
            .map(|c| [inputs[c * 3], inputs[c * 3 + 1], inputs[c * 3 + 2]])
            .collect();
        let flat: Vec<_> = cols.iter().flat_map(|x| x.iter().copied()).collect();
        let p = b.perm_flat(3, flat);
        let c = b.finish(p);
        let slots: Vec<Nat> = (1..=9).map(Nat).collect();
        // permanent of [[1,4,7],[2,5,8],[3,6,9]] (column-major cols) = 450
        let m = agq_perm::ColMatrix::from_rows(&[
            vec![Nat(1), Nat(4), Nat(7)],
            vec![Nat(2), Nat(5), Nat(8)],
            vec![Nat(3), Nat(6), Nat(9)],
        ]);
        assert_eq!(c.eval(&slots, &[]), agq_perm::perm_naive(&m));
    }
}
