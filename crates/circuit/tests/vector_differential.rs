//! Differential suite for the vectorized sweep kernels.
//!
//! The kernel contract (`eval.rs` module docs) promises that every
//! evaluation path — one-shot [`eval_gates`], the dynamic evaluators'
//! recompute, and the memoized peeks — produces add-gate values
//! **bit-identical** to the canonical 4-lane fold, no matter whether a
//! gate's children happen to form dense id runs (bulk `sum_slice`
//! slices) or are scattered (scalar gather). This suite pins that
//! promise on random circuits:
//!
//! 1. an in-test *reference evaluator* that always gathers child values
//!    into a buffer and folds with [`lane_sum_slice`] — the spec, with
//!    no dense-run analysis at all;
//! 2. [`eval_gates`] on the raw builder output (scattered children →
//!    mostly scalar tier) and on the [`Circuit::cluster_adds`] relabel
//!    (dense runs → bulk tier);
//! 3. the three dynamic backends (`GeneralEvaluator`, `RingEvaluator`,
//!    `FiniteEvaluator`) after random post-build update sweeps;
//! 4. `peek_memo` over memoized and walked cones against a patched
//!    reference evaluation.
//!
//! The same random circuits (plus one with permanent gates) pin the
//! **topology contract** of [`EvalPlan`] — the one adjacency every sweep,
//! semiring or free-semiring, walks: parent entries point back at their
//! child, nothing is missing or listed twice, slot rows and the perm
//! numbering follow gate order.
//!
//! Float comparisons use `f64::to_bits`, so any fold-order drift in the
//! bulk paths fails loudly rather than hiding inside an epsilon.

use agq_circuit::{
    eval_gates, Circuit, CircuitBuilder, ConstRef, DynEvaluator, EvalPlan, FiniteEvaluator,
    GateDef, GateId, GeneralEvaluator, ParentRef, PeekScratch, RingEvaluator,
};
use agq_semiring::{lane_sum_slice, Mod, Nat, Semiring, F64};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Reference evaluator: scalar gather + canonical lane fold, always.
// ---------------------------------------------------------------------

fn reference_eval<S: Semiring>(c: &Circuit, slots: &[S]) -> Vec<S> {
    let mut values: Vec<S> = Vec::with_capacity(c.len());
    let mut buf: Vec<S> = Vec::new();
    for gate in c.gates() {
        let v = match gate {
            GateDef::Input(slot) => slots[*slot as usize].clone(),
            GateDef::Const(ConstRef::Zero) => S::zero(),
            GateDef::Const(ConstRef::One) => S::one(),
            GateDef::Const(ConstRef::Lit(_)) => panic!("no lits in generated circuits"),
            GateDef::Add(r) => {
                buf.clear();
                buf.extend(c.children(*r).iter().map(|g| values[g.0 as usize].clone()));
                lane_sum_slice(&buf)
            }
            GateDef::Mul(a, b) => values[a.0 as usize].mul(&values[b.0 as usize]),
            GateDef::Perm { .. } => panic!("no perm gates in generated circuits"),
        };
        values.push(v);
    }
    values
}

// ---------------------------------------------------------------------
// Random add/mul DAGs. Ops are (kind, picks) with indices taken modulo
// the current gate count; every fourth op is a Mul, the rest are Adds of
// up to ~40 children (wide enough to cross the lane-fold and MIN_RUN
// thresholds in both directions).
// ---------------------------------------------------------------------

type Ops = Vec<(u8, Vec<u16>)>;

fn ops_strategy() -> impl Strategy<Value = Ops> {
    pvec((any::<u8>(), pvec(any::<u16>(), 0..40)), 1..25)
}

fn build_circuit(n_inputs: u32, ops: &Ops) -> Circuit {
    let mut b = CircuitBuilder::new();
    let mut gates: Vec<GateId> = (0..n_inputs).map(|i| b.input(i)).collect();
    for (kind, picks) in ops {
        let pick = |p: &u16| gates[*p as usize % gates.len()];
        let g = if kind % 4 == 0 && picks.len() >= 2 {
            b.mul(pick(&picks[0]), pick(&picks[1]))
        } else {
            let kids: Vec<GateId> = picks.iter().map(pick).collect();
            b.add(&kids)
        };
        gates.push(g);
    }
    let out = b.add(&gates);
    b.finish(out)
}

/// Awkward float inputs: mixed magnitudes and signs, so any change in
/// fold order or grouping shifts the rounding and flips output bits.
fn f64_slots(n: u32, salt: u32) -> Vec<F64> {
    const TABLE: [f64; 8] = [0.1, -7.25, 1e15, -1e15, 3.333333333e-3, 1.0, 2.5e7, -1e-8];
    (0..n)
        .map(|i| F64(TABLE[((i + salt) % 8) as usize] * (1.0 + f64::from(i) * 0.5)))
        .collect()
}

fn bits(xs: &[F64]) -> Vec<u64> {
    xs.iter().map(|x| x.0.to_bits()).collect()
}

// ---------------------------------------------------------------------
// Topology contract of the plan.
// ---------------------------------------------------------------------

fn check_topology(c: Circuit) {
    let c = Arc::new(c);
    let plan = EvalPlan::new(c.clone());
    let gates = c.gates();
    let n = gates.len() as u32;

    // Every parent entry points back at the gate it is filed under, and
    // no (parent, position) is filed twice.
    let mut entries = 0usize;
    let mut seen = std::collections::HashSet::new();
    for g in 0..n {
        for &p in plan.parents(g) {
            entries += 1;
            match (p, gates[p.gate() as usize]) {
                (ParentRef::Add { gate, child_pos }, GateDef::Add(r)) => {
                    assert_eq!(c.children(r)[child_pos as usize], GateId(g));
                    assert!(seen.insert((gate, child_pos)), "{p:?} filed twice");
                }
                (ParentRef::Mul(_), GateDef::Mul(a, b)) => {
                    let reads = usize::from(a.0 == g) + usize::from(b.0 == g);
                    let filed = plan.parents(g).iter().filter(|&&q| q == p).count();
                    assert_eq!(filed, reads, "{p:?} under gate {g}");
                }
                (ParentRef::Perm { gate, row, col }, GateDef::Perm { rows, cols }) => {
                    assert!(row < rows);
                    let at = col * u32::from(rows) + u32::from(row);
                    assert_eq!(c.children(cols)[at as usize], GateId(g));
                    assert!(seen.insert((gate, at)), "{p:?} filed twice");
                }
                (p, def) => panic!("{p:?} under gate {g} names {def:?}"),
            }
        }
    }
    // …and with the row lengths summing to the wire count, none is missing.
    let wires: usize = gates
        .iter()
        .map(|g| match g {
            GateDef::Add(r) => r.len(),
            GateDef::Mul(..) => 2,
            GateDef::Perm { cols, .. } => cols.len(),
            GateDef::Input(_) | GateDef::Const(_) => 0,
        })
        .sum();
    assert_eq!(entries, wires);

    for slot in 0..c.num_slots() as u32 {
        let readers: Vec<u32> = (0..n)
            .filter(|&g| gates[g as usize] == GateDef::Input(slot))
            .collect();
        assert_eq!(plan.slot_gates(slot), readers, "slot {slot}");
    }

    let mut perms = 0u32;
    for g in 0..n {
        if matches!(gates[g as usize], GateDef::Perm { .. }) {
            assert_eq!(plan.perm_index(g), Some(perms), "gate {g}");
            perms += 1;
        } else {
            assert_eq!(plan.perm_index(g), None, "gate {g}");
        }
    }
}

/// Permanent gates of three and two rows whose entries are inputs, inner
/// gates and repeats of both, read further up by an add (twice) and a mul.
#[test]
fn plan_topology_with_permanent_gates() {
    let mut b = CircuitBuilder::new();
    let x: Vec<GateId> = (0..5).map(|i| b.input(i)).collect();
    let s = b.add(&[x[0], x[1], x[0]]);
    let m = b.mul(x[2], x[2]);
    let p3 = b.perm_flat(3, vec![x[0], s, m, x[3], x[3], s, m, x[4], x[1]]);
    let p2 = b.perm_flat(2, vec![p3, x[0], s, p3, x[4], m]);
    let sum = b.add(&[p2, p3, p2]);
    let out = b.mul(sum, p2);
    let c = b.finish(out);
    assert_eq!(
        c.stats().max_perm_rows,
        3,
        "the builder kept the permanents"
    );
    check_topology(c);
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bulk one-shot evaluation ≡ scalar reference, bit-for-bit, on the
    /// raw (scattered) circuit AND on the clustered (dense-run) relabel
    /// — for the order-sensitive carrier where grouping drift shows.
    #[test]
    fn oneshot_bulk_matches_scalar_reference_f64(
        n_inputs in 1u32..12,
        salt in 0u32..8,
        ops in ops_strategy(),
    ) {
        let slots = f64_slots(n_inputs, salt);
        let raw = build_circuit(n_inputs, &ops);
        prop_assert_eq!(
            bits(&eval_gates(&raw, &slots, &[])),
            bits(&reference_eval(&raw, &slots))
        );

        let clustered = raw.cluster_adds();
        let got = eval_gates(&clustered, &slots, &[]);
        let want = reference_eval(&clustered, &slots);
        prop_assert_eq!(bits(&got), bits(&want));
        // The relabel must also preserve the circuit's *output* bits.
        let raw_out = eval_gates(&raw, &slots, &[]).last().unwrap().0.to_bits();
        prop_assert_eq!(got.last().unwrap().0.to_bits(), raw_out);
    }

    /// Same property for the wrapping-ℕ carrier that takes the
    /// specialized (order-insensitive, multi-run) bulk paths.
    #[test]
    fn oneshot_bulk_matches_scalar_reference_nat(
        n_inputs in 1u32..12,
        ops in ops_strategy(),
    ) {
        let slots: Vec<Nat> = (0..n_inputs).map(|i| Nat(u64::from(i) * 37 + 5)).collect();
        for c in [build_circuit(n_inputs, &ops), build_circuit(n_inputs, &ops).cluster_adds()] {
            prop_assert_eq!(eval_gates(&c, &slots, &[]), reference_eval(&c, &slots));
        }
    }

    /// Dynamic backends after post-update sweeps: every backend's gate
    /// values must match a from-scratch reference evaluation at every
    /// update step, bit-identically.
    #[test]
    fn dynamic_backends_match_reference_after_updates(
        n_inputs in 2u32..10,
        salt in 0u32..8,
        ops in ops_strategy(),
        updates in pvec((any::<u16>(), any::<u16>()), 1..12),
    ) {
        let circuit = Arc::new(build_circuit(n_inputs, &ops).cluster_adds());
        let mut slots = f64_slots(n_inputs, salt);

        let mut gen: GeneralEvaluator<F64> = DynEvaluator::new(circuit.clone(), &slots, &[]);
        let mut ring: RingEvaluator<F64> = DynEvaluator::new(circuit.clone(), &slots, &[]);
        for (slot, val) in &updates {
            let slot = u32::from(*slot) % n_inputs;
            let new = F64(f64::from(*val) * 0.125 - 1e3);
            slots[slot as usize] = new;
            gen.set_input(slot, new);
            ring.set_input(slot, new);
            let want = bits(&reference_eval(&circuit, &slots));
            prop_assert_eq!(bits(gen.gate_values()), want.clone());
            prop_assert_eq!(bits(ring.gate_values()), want);
        }

        // Finite backend over ℤ/5 (order-insensitive multi-run tier).
        let mut mslots: Vec<Mod> = (0..n_inputs).map(|i| Mod::new(u64::from(i), 5)).collect();
        let mut fin: FiniteEvaluator<Mod> = DynEvaluator::new(circuit.clone(), &mslots, &[]);
        for (slot, val) in &updates {
            let slot = u32::from(*slot) % n_inputs;
            let new = Mod::new(u64::from(*val), 5);
            mslots[slot as usize] = new;
            fin.set_input(slot, new);
            prop_assert_eq!(fin.gate_values(), &reference_eval(&circuit, &mslots)[..]);
        }
    }

    /// The plan's adjacency is exactly the circuit's wiring, before and
    /// after the relabel that makes add children contiguous.
    #[test]
    fn plan_topology_points_back_at_the_circuit(
        n_inputs in 1u32..10,
        ops in ops_strategy(),
    ) {
        let circuit = build_circuit(n_inputs, &ops);
        check_topology(circuit.cluster_adds());
        check_topology(circuit);
    }

    /// `peek_memo` over the dense-run circuit ≡ reference evaluation of
    /// the patched inputs, bit-for-bit, with every cone memoized in the
    /// plan and with every cone walked on demand — for the bit-compared
    /// float carrier (`sum_children`) and for the order-insensitive ℕ
    /// carrier (per-run sums behind one probe into the merged cone).
    #[test]
    fn peek_memo_matches_patched_reference(
        n_inputs in 2u32..10,
        salt in 0u32..8,
        ops in ops_strategy(),
        patches in pvec((any::<u16>(), any::<u16>()), 1..6),
    ) {
        let circuit = Arc::new(build_circuit(n_inputs, &ops).cluster_adds());
        let all_slots: Vec<u32> = (0..n_inputs).collect();
        let plans = [
            Arc::new(EvalPlan::with_cones(circuit.clone(), &all_slots)),
            Arc::new(EvalPlan::new(circuit.clone())),
        ];
        let slots = f64_slots(n_inputs, salt);
        let patches: Vec<(u32, F64)> = patches
            .iter()
            .enumerate()
            .map(|(i, (slot, val))| {
                let slot = u32::from(*slot) % n_inputs;
                (slot, F64(f64::from(*val) * 0.0625 + f64::from(i as u32)))
            })
            .collect();
        let nat = |x: F64| Nat(x.0.to_bits() % 1000);
        let nat_slots: Vec<Nat> = slots.iter().map(|&x| nat(x)).collect();
        let nat_patches: Vec<(u32, Nat)> = patches.iter().map(|&(s, x)| (s, nat(x))).collect();
        let mut patched = slots.clone();
        for (slot, val) in &patches {
            patched[*slot as usize] = *val;
        }
        let nat_patched: Vec<Nat> = patched.iter().map(|&x| nat(x)).collect();
        let want = reference_eval(&circuit, &patched).last().unwrap().0.to_bits();
        let nat_want = *reference_eval(&circuit, &nat_patched).last().unwrap();

        for plan in plans {
            let ev: GeneralEvaluator<F64> = DynEvaluator::from_plan(plan.clone(), &slots, &[]);
            let mut scratch = PeekScratch::new();
            prop_assert_eq!(ev.peek_memo(&patches, &mut scratch).0.to_bits(), want);
            // Baseline (committed) values must be untouched by the peek.
            prop_assert_eq!(bits(ev.gate_values()), bits(&reference_eval(&circuit, &slots)));

            let ev: GeneralEvaluator<Nat> = DynEvaluator::from_plan(plan, &nat_slots, &[]);
            prop_assert_eq!(ev.peek_memo(&nat_patches, &mut PeekScratch::new()), nat_want);
            prop_assert_eq!(ev.gate_values(), &reference_eval(&circuit, &nat_slots)[..]);
        }
    }
}

/// Clustering must turn interleaved builder output into full dense runs
/// and the one-shot dense tier must kick in — a deterministic (non-prop)
/// anchor so coverage regressions fail without relying on random draws.
#[test]
fn clustering_yields_full_runs_on_interleaved_adds() {
    let mut b = CircuitBuilder::new();
    let inputs: Vec<GateId> = (0..32).map(|i| b.input(i)).collect();
    // Two adds whose children interleave in builder order.
    let even: Vec<GateId> = inputs.iter().copied().step_by(2).collect();
    let odd: Vec<GateId> = inputs.iter().copied().skip(1).step_by(2).collect();
    let a = b.add(&even);
    let c = b.add(&odd);
    let out = b.mul(a, c);
    let raw = b.finish(out);
    let clustered = raw.cluster_adds();

    let plan = agq_circuit::EvalPlan::new(Arc::new(clustered.clone()));
    let stats = plan.dense_run_stats();
    assert_eq!(stats.add_gates, 2);
    assert_eq!(
        stats.full_run_gates, 2,
        "clustering should densify both adds"
    );
    assert!((stats.coverage() - 1.0).abs() < 1e-12);

    let slots: Vec<Nat> = (0..32).map(|i| Nat(i * i + 1)).collect();
    assert_eq!(
        eval_gates(&clustered, &slots, &[]),
        reference_eval(&clustered, &slots)
    );
    assert_eq!(
        eval_gates(&clustered, &slots, &[]).last(),
        eval_gates(&raw, &slots, &[]).last()
    );
}
