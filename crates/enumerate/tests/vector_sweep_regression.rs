//! Vectorized-sweep regression test over the E9 count-side circuit.
//!
//! Pins the two properties the dense-run work bought:
//!
//! 1. **Dense-run coverage**: after the compiler's `cluster_adds`
//!    relabel, at least 80% of the add-gate child mass of the E9
//!    count circuit (`Σ_{x,y,z} [E(x,y) ∧ E(y,z) ∧ x≠z]`, dynamic
//!    atoms — the circuit the PR 7 rank tables evaluate) lies in
//!    contiguous id runs of length ≥ 4, i.e. is eligible for the bulk
//!    `sum_slice` tier instead of the scalar gather.
//! 2. **Sweep throughput**: a full add-gate sweep through the dense-run
//!    tier beats the canonical 4-lane scalar gather by ≥1.3× on the
//!    same circuit and the same `Nat` value vector (the benchmark
//!    matrix tracks the kernels as `semiring.sum_slice_ns_per_elem.*`
//!    and the coverage as `circuit.dense_run_coverage`; the floor
//!    leaves room for CI noise), and both sweeps produce identical sums.
//!
//! Wall-clock budgets are only meaningful with optimizations on, so the
//! assertions are compiled under `not(debug_assertions)`: run via
//! `cargo test -p agq-enumerate --release` (CI does).

#![cfg(not(debug_assertions))]

use agq_circuit::{eval_gates, Circuit, EvalPlan, GateDef, GateId};
use agq_core::{compile, eliminate_quantifiers, CompileOptions, CompiledQuery, SlotKey};
use agq_logic::{normalize, Expr, Formula, Var};
use agq_semiring::{Nat, Semiring};
use agq_structure::{Signature, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E9 world at size `n`: sparse random `G(n, 2n)`, symmetrized.
fn e9_structure(n: usize) -> (Arc<Structure>, agq_structure::RelId) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), n);
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..2 * n {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            a.insert(e, &[u, v]);
            a.insert(e, &[v, u]);
        }
    }
    (Arc::new(a), e)
}

/// Compile the E9 count query (two-path with distinct endpoints) in
/// dynamic-atom mode and build the slot vector, exactly as the count
/// side of the answer index does.
fn e9_count_circuit() -> (CompiledQuery<Nat>, Vec<Nat>) {
    let n = 20_000;
    let (a, e) = e9_structure(n);
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(e, vec![x, y])
        .and(Formula::Rel(e, vec![y, z]))
        .and(Formula::neq(x, z));
    let expr = Expr::<Nat>::Bracket(phi).sum_over([x, y, z]);
    let opts = CompileOptions {
        dynamic_atoms: true,
        ..CompileOptions::default()
    };
    let (expr, a2) = eliminate_quantifiers(&expr, &a, &opts).unwrap();
    let nf = normalize(&expr).unwrap();
    let compiled = compile(&a2, &nf, &opts).unwrap();
    let slots: Vec<Nat> = compiled
        .slots
        .iter()
        .map(|(_, key)| match key {
            SlotKey::AtomPos(r, t) => Nat(u64::from(a2.holds(r, t.as_slice()))),
            SlotKey::AtomNeg(r, t) => Nat(u64::from(!a2.holds(r, t.as_slice()))),
            _ => unreachable!("count expression has no weights or free vars"),
        })
        .collect();
    (compiled, slots)
}

/// The canonical scalar gather: 4-lane fold over per-child loads
/// (`sum_children`'s exact shape, restated here because the kernel
/// itself is crate-private). A standalone, never-inlined function — as
/// is [`dense_sweep`] — so the two timed kernels are compiled the same
/// way whatever else this test binary instantiates around them.
#[inline(never)]
fn gather_sweep(values: &[Nat], adds: &[(u32, &[GateId])]) -> Nat {
    let mut check = Nat(0);
    for (_, kids) in adds {
        const LANES: usize = 4;
        let s = if kids.len() < 2 * LANES {
            let mut acc = Nat(0);
            for c in *kids {
                acc.add_assign(&values[c.0 as usize]);
            }
            acc
        } else {
            let mut lanes = [Nat(0); LANES];
            let chunks = kids.chunks_exact(LANES);
            let rest = chunks.remainder();
            for chunk in chunks {
                for (lane, c) in lanes.iter_mut().zip(chunk) {
                    lane.add_assign(&values[c.0 as usize]);
                }
            }
            let [a, b, c, d] = lanes;
            let mut acc = a.add(&b).add(&c.add(&d));
            for g in rest {
                acc.add_assign(&values[g.0 as usize]);
            }
            acc
        };
        check.add_assign(&s);
    }
    check
}

/// The dense-run tier: slice kernels over the plan's precomputed
/// maximal runs, scalar fold for sub-threshold runs (MIN_RUN = 4).
#[inline(never)]
fn dense_sweep(values: &[Nat], runs: &[(u32, u32)]) -> Nat {
    let mut check = Nat(0);
    for &(lo, len) in runs {
        let seg = &values[lo as usize..(lo + len) as usize];
        if len >= 4 {
            check.add_assign(&Nat::sum_slice(seg));
        } else {
            for v in seg {
                check.add_assign(v);
            }
        }
    }
    check
}

#[test]
fn dense_run_coverage_and_sweep_throughput() {
    let (compiled, slots) = e9_count_circuit();
    let plan = EvalPlan::new(compiled.circuit.clone());

    // -- 1. dense-run coverage of the add-gate child mass ------------
    let stats = plan.dense_run_stats();
    let coverage = stats.coverage();
    println!(
        "E9 dense-run stats: {} add gates ({} full-run), {}/{} children dense, coverage {:.3}",
        stats.add_gates, stats.full_run_gates, stats.dense_children, stats.total_children, coverage
    );
    assert!(
        coverage >= 0.8,
        "dense-run coverage regressed: {coverage:.3} < 0.8 — did the \
         compiler stop clustering add children?"
    );

    // -- 2. bulk sweep vs scalar gather on the same values -----------
    //
    // The timed A/B covers the *dense-run path*: every add gate whose
    // runs reach the bulk tier (run length ≥ MIN_RUN = 4) — 97%+ of the
    // child mass here. Sub-threshold gates execute the identical scalar
    // fold on both sides, so including them only dilutes the kernel
    // comparison with a no-op; the correctness check below still spans
    // every add gate.
    let values = eval_gates(&compiled.circuit, &slots, &compiled.lits);
    let circuit: &Circuit = &compiled.circuit;
    let adds: Vec<(u32, &[GateId])> = circuit
        .gates()
        .iter()
        .enumerate()
        .filter_map(|(g, def)| match def {
            GateDef::Add(r) => Some((g as u32, circuit.children(*r))),
            _ => None,
        })
        .collect();
    let dense_adds: Vec<(u32, &[GateId])> = adds
        .iter()
        .filter(|(g, _)| plan.add_runs(*g).iter().any(|&(_, len)| len as usize >= 4))
        .copied()
        .collect();

    let gather_over = |adds: &[(u32, &[GateId])]| gather_sweep(&values, adds);

    // The dense-run tier: slice kernels over the plan's precomputed
    // maximal runs, scalar fold for sub-threshold runs (MIN_RUN = 4).
    // The run lists are flattened out of the plan's CSR once — the same
    // shape the plan hands `sum_add` — so the timed loop pays only the
    // slice sums, as the evaluator sweeps do.
    let runs_over = |adds: &[(u32, &[GateId])]| -> Vec<(u32, u32)> {
        adds.iter()
            .flat_map(|(g, _)| plan.add_runs(*g).iter().copied())
            .collect()
    };
    let dense_over = |runs: &[(u32, u32)]| dense_sweep(&values, runs);

    // Correctness: both sweeps agree over *every* add gate (the dense
    // path degrades to the same scalar fold on sub-threshold runs).
    let all_runs = runs_over(&adds);
    assert_eq!(
        gather_over(&adds),
        dense_over(&all_runs),
        "bulk and scalar sweeps must agree on every add gate"
    );

    // Throughput floor on the dense-run mass, min-of-k to shed noise.
    // The two kernels alternate inside each round, so host drift over
    // the measurement lands on both sides alike.
    let dense_runs = runs_over(&dense_adds);
    let reps = 100u32;
    let time = |f: &dyn Fn() -> Nat| -> Duration {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t.elapsed() / reps
    };
    let (mut t_gather, mut t_dense) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        t_gather = t_gather.min(time(&|| gather_over(&dense_adds)));
        t_dense = t_dense.min(time(&|| dense_over(&dense_runs)));
    }
    let speedup = t_gather.as_secs_f64() / t_dense.as_secs_f64();
    let mass: usize = dense_adds.iter().map(|(_, k)| k.len()).sum();
    println!(
        "E9 dense-path sweep ({} gates, {mass} children): gather {t_gather:?}, \
         dense {t_dense:?}, speedup {speedup:.2}x",
        dense_adds.len()
    );
    assert!(
        speedup >= 1.3,
        "dense-run sweep speedup regressed: {speedup:.2}x < 1.3x"
    );
}
