//! Differential suite for "compile once, hold one circuit".
//!
//! The engines of this crate used to run Theorem 6 **twice** per build:
//! once for the point side (`[φ]` with φ's variables free) and once for
//! the enumeration side (the closed expression `Σ_x̄ [φ] · Π __gen_i(x_i)`
//! over a signature extended with generator weights). That build
//! survives here, test-only, as the reference ([`Reference`]): every
//! shared-circuit engine must agree with it on `count()`, the full
//! enumeration **order**, `answer(k)` and per-tuple point-query values,
//! before and after an update script — on all three perm backends,
//! static / dynamic / quantified-static formulas, flat and 2-shard.
//!
//! The structural half of the contract is asserted by pointer: the point
//! circuit, the enumeration circuit and the count evaluator's plan
//! circuit are one allocation (also across shards), and one `build*`
//! call enters the compiler once.

use crate::answers::COMPILATIONS;
use crate::machine::{EnumMachine, InputVal};
use crate::{AnswerIndex, EnumQueryEngine, ShardedEngine, UpdateError};
use agq_circuit::{FiniteMaint, PermMaint, RingMaint};
use agq_core::{
    compile, eliminate_quantifiers, CompileError, CompileOptions, QueryEngine, SlotKey,
    SlotRegistry, TupleUpdate,
};
use agq_logic::{normalize, Expr, Formula, Var};
use agq_perm::SegTreePerm;
use agq_semiring::{Bool, Gen, Int, Nat, Semiring};
use agq_structure::gaifman::GaifmanComponents;
use agq_structure::{Elem, RelId, Signature, Structure, Tuple, WeightId, WeightedStructure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------
// the twice-compiled reference
// ---------------------------------------------------------------------

/// The pre-sharing build: an independently compiled point engine plus an
/// enumeration machine over its own closed-form circuit, one machine per
/// shard (generator slots of foreign elements zeroed, as
/// `AnswerIndex::shard_filtered` does).
struct Reference<S: Semiring, P: PermMaint<S>> {
    engine: QueryEngine<S, P>,
    machines: Vec<EnumMachine>,
    enum_slots: Arc<SlotRegistry>,
    components: GaifmanComponents,
    arity: usize,
}

impl<S: Semiring, P: PermMaint<S>> Reference<S, P> {
    fn build(a: &Arc<Structure>, phi: &Formula, dynamic: bool, shards: usize) -> Self {
        let copts = CompileOptions {
            dynamic_atoms: dynamic,
            ..CompileOptions::default()
        };
        // compilation 1: the point side
        let (expr, a2) = eliminate_quantifiers(&Expr::<S>::Bracket(phi.clone()), a, &copts)
            .expect("reference QE");
        let nf = normalize(&expr).expect("reference normal form");
        let compiled = compile(&a2, &nf, &copts).expect("reference point compile");
        let engine = QueryEngine::new(compiled, &WeightedStructure::new(a2));

        // compilation 2: the enumeration side, closed over generator
        // weights on an extended copy of the structure
        let free = phi.free_vars();
        let mut sig = (**a.signature()).clone();
        let gens: Vec<WeightId> = (0..free.len())
            .map(|i| sig.add_weight(&format!("__gen{i}"), 1))
            .collect();
        let mut b = Structure::new(Arc::new(sig), a.domain_size());
        for r in a.signature().relation_ids() {
            for t in a.relation(r).iter() {
                b.insert(r, t.as_slice());
            }
        }
        let mut factors: Vec<Expr<Nat>> = vec![Expr::Bracket(phi.clone())];
        for (i, v) in free.iter().enumerate() {
            factors.push(Expr::Weight(gens[i], vec![*v]));
        }
        let expr = Expr::Mul(factors).sum_over(free.iter().copied());
        let (expr, a3) = eliminate_quantifiers(&expr, &b, &copts).expect("reference QE");
        let nf = normalize(&expr).expect("reference normal form");
        let closed = compile(&a3, &nf, &copts).expect("reference enum compile");
        let bool_val = |b: bool| -> InputVal {
            if b {
                vec![vec![]]
            } else {
                vec![]
            }
        };
        let values: Vec<InputVal> = closed
            .slots
            .iter()
            .map(|(_, key)| match key {
                SlotKey::Weight(w, t) => {
                    let pos = gens.iter().position(|g| *g == w).expect("generator");
                    vec![vec![Gen::pack(pos as u32, t.as_slice()[0])]]
                }
                SlotKey::AtomPos(r, t) => bool_val(a3.holds(r, t.as_slice())),
                SlotKey::AtomNeg(r, t) => bool_val(!a3.holds(r, t.as_slice())),
                SlotKey::FreeVar(..) => unreachable!("expression is closed"),
            })
            .collect();
        let base = EnumMachine::new(closed.circuit.clone(), values);

        let local = phi.answers_component_local();
        let components = GaifmanComponents::new(a, if local { shards } else { 1 });
        let machines = if components.num_shards() == 1 {
            vec![base]
        } else {
            (0..components.num_shards() as u32)
                .map(|s| {
                    let values = closed
                        .slots
                        .iter()
                        .map(|(slot, key)| match key {
                            SlotKey::Weight(_, t) if components.shard_of(t.as_slice()[0]) != s => {
                                Vec::new()
                            }
                            _ => base.input(slot).clone(),
                        })
                        .collect();
                    EnumMachine::from_plan(base.plan().clone(), values)
                })
                .collect()
        };
        Reference {
            engine,
            machines,
            enum_slots: closed.slots.clone(),
            components,
            arity: free.len(),
        }
    }

    fn shard_of(&self, tuple: &[Elem]) -> usize {
        if self.machines.len() == 1 {
            0
        } else {
            self.components.shard_of(tuple[0]) as usize
        }
    }

    /// The pre-sharing batch path: coalesce, then per side stage the
    /// indicator flips (dropping net no-ops) and run one sweep.
    fn apply_batch(&mut self, updates: &[TupleUpdate]) {
        let mut coalesced = Vec::new();
        agq_core::coalesce_updates(updates, &mut coalesced);
        let mut flips: Vec<Vec<(u32, bool)>> = vec![Vec::new(); self.machines.len()];
        for u in &coalesced {
            let s = self.shard_of(&u.tuple);
            let t = Tuple::new(&u.tuple);
            if let Some(slot) = self.enum_slots.lookup(&SlotKey::AtomPos(u.rel, t)) {
                if self.machines[s].input_present(slot) != u.present {
                    flips[s].push((slot, u.present));
                }
            }
            if let Some(slot) = self.enum_slots.lookup(&SlotKey::AtomNeg(u.rel, t)) {
                if self.machines[s].input_present(slot) == u.present {
                    flips[s].push((slot, !u.present));
                }
            }
        }
        for (m, f) in self.machines.iter_mut().zip(&flips) {
            if !f.is_empty() {
                m.set_input_bools(f);
            }
        }
        self.engine.apply_batch_coalesced(&coalesced);
    }

    fn decode(&self, monomial: Vec<Gen>) -> Vec<Elem> {
        let mut out = vec![0 as Elem; self.arity];
        for g in monomial {
            let (pos, elem) = g.unpack();
            out[pos as usize] = elem;
        }
        out
    }

    /// Every answer, in global rank order (shard id, then cursor order).
    fn stream(&self) -> Vec<Vec<Elem>> {
        let mut out = Vec::new();
        for m in &self.machines {
            let mut it = m.summands();
            while let Some(mono) = it.next() {
                out.push(self.decode(mono));
            }
        }
        out
    }

    fn count(&self) -> u64 {
        self.machines.iter().map(|m| m.summand_count()).sum()
    }

    fn answer(&self, mut k: u64) -> Option<Vec<Elem>> {
        for m in &self.machines {
            let c = m.summand_count();
            if k < c {
                return m.summands().seek(k).map(|mono| self.decode(mono));
            }
            k -= c;
        }
        None
    }
}

// ---------------------------------------------------------------------
// inputs
// ---------------------------------------------------------------------

/// Two disjoint random graphs on `0..n/2` and `n/2..n` (so 2 shards have
/// something to own), both directions of every edge, unary `S` on a
/// random third of the vertices.
fn two_component_graph(n: u32, seed: u64) -> (Arc<Structure>, RelId, RelId) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let mut a = Structure::new(Arc::new(sig), n as usize);
    let mut rng = SmallRng::seed_from_u64(seed);
    let half = n / 2;
    for base in [0, half] {
        // a spanning path keeps each half one component
        for v in 1..half {
            let u = rng.gen_range(0..v);
            a.insert(e, &[base + u, base + v]);
            a.insert(e, &[base + v, base + u]);
        }
        for _ in 0..half {
            let u = rng.gen_range(0..half);
            let v = rng.gen_range(0..half);
            if u != v {
                a.insert(e, &[base + u, base + v]);
                a.insert(e, &[base + v, base + u]);
            }
        }
    }
    for v in 0..n {
        if rng.gen_range(0..3) == 0 {
            a.insert(s, &[v]);
        }
    }
    (Arc::new(a), e, s)
}

/// Presence flips of existing `E` tuples and (when `φ` reads `S`)
/// arbitrary `S` tuples — all Gaifman-preserving — as a sequence of
/// batches (size 1 = the single update path), with hot duplicates inside
/// the larger ones.
fn update_script(
    a: &Structure,
    phi: &Formula,
    e: RelId,
    s: RelId,
    seed: u64,
) -> Vec<Vec<TupleUpdate>> {
    let reads_s = mentions(phi, s);
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges: Vec<[Elem; 2]> = a
        .relation(e)
        .iter()
        .map(|t| [t.as_slice()[0], t.as_slice()[1]])
        .collect();
    let n = a.domain_size() as u32;
    let one = |rng: &mut SmallRng| {
        let present = rng.gen_bool(0.5);
        if reads_s && rng.gen_range(0..4) == 0 {
            TupleUpdate {
                rel: s,
                tuple: vec![rng.gen_range(0..n)],
                present,
            }
        } else {
            TupleUpdate {
                rel: e,
                tuple: edges[rng.gen_range(0..edges.len())].to_vec(),
                present,
            }
        }
    };
    (0..24)
        .map(|i| {
            let len = if i % 3 == 0 { 1 } else { rng.gen_range(2..12) };
            let mut batch: Vec<TupleUpdate> = (0..len).map(|_| one(&mut rng)).collect();
            if len > 3 {
                // a hot key flipped back and forth inside one batch
                let hot = batch[0].clone();
                batch.push(TupleUpdate {
                    present: !hot.present,
                    ..hot.clone()
                });
                batch.push(hot);
            }
            batch
        })
        .collect()
}

fn mentions(phi: &Formula, rel: RelId) -> bool {
    match phi {
        Formula::True | Formula::False | Formula::Eq(..) => false,
        Formula::Rel(r, _) => *r == rel,
        Formula::Not(f) | Formula::Forall(_, f) | Formula::Exists(_, f) => mentions(f, rel),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|f| mentions(f, rel)),
    }
}

fn twopath(e: RelId) -> Formula {
    Formula::Rel(e, vec![Var(0), Var(1)])
        .and(Formula::Rel(e, vec![Var(1), Var(2)]))
        .and(Formula::neq(Var(0), Var(2)))
}

fn marked_edge(e: RelId, s: RelId) -> Formula {
    Formula::Rel(e, vec![Var(0), Var(1)]).and(Formula::Rel(s, vec![Var(0)]))
}

/// `S(x) ∨ E(x,y)`: its first exclusive-DNF clause never mentions `y` —
/// the shape of term the shared circuit pads with an unconstrained
/// `v_y` read.
fn marked_or_edge(e: RelId, s: RelId) -> Formula {
    Formula::Rel(s, vec![Var(0)]).or(Formula::Rel(e, vec![Var(0), Var(1)]))
}

/// `E(x,y) ∧ ∃z E(y,z)`: static only (guarded elimination).
fn edge_with_successor(e: RelId) -> Formula {
    Formula::Rel(e, vec![Var(0), Var(1)]).and(Formula::Exists(
        Var(2),
        Box::new(Formula::Rel(e, vec![Var(1), Var(2)])),
    ))
}

/// Every tuple the point-query comparison probes: all answers of either
/// side plus a pseudo-random sample of the tuple space.
fn probe_tuples(arity: usize, n: u32, answers: &[Vec<Elem>], seed: u64) -> Vec<Vec<Elem>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<Vec<Elem>> = answers.iter().step_by(3).cloned().collect();
    for _ in 0..200 {
        out.push((0..arity).map(|_| rng.gen_range(0..n)).collect());
    }
    out
}

fn compilations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = COMPILATIONS.with(|c| c.get());
    let out = f();
    (out, COMPILATIONS.with(|c| c.get()) - before)
}

// ---------------------------------------------------------------------
// flat
// ---------------------------------------------------------------------

fn assert_flat_shares_one_circuit<S: Semiring, P: PermMaint<S>>(eng: &EnumQueryEngine<S, P>) {
    let qe = eng.query_engine();
    let machine = eng.answer_index().machine();
    assert!(
        Arc::ptr_eq(&qe.compiled().circuit, machine.circuit()),
        "point and enumeration sides hold one circuit"
    );
    assert!(
        Arc::ptr_eq(&qe.compiled().slots, eng.answer_index().slot_registry()),
        "one slot registry"
    );
    assert!(
        Arc::ptr_eq(qe.plan(), machine.plan().eval_plan()),
        "count side runs on the point side's evaluation plan"
    );
    let counts = machine.counts();
    assert!(
        Arc::ptr_eq(counts.eval().plan(), qe.plan()),
        "count evaluator is a state over that plan"
    );
    assert!(Arc::ptr_eq(
        counts.eval().plan().circuit(),
        &qe.compiled().circuit
    ));
}

fn flat_matches_reference<S, P>(phi: &Formula, dynamic: bool, seed: u64)
where
    S: Semiring + std::fmt::Debug,
    P: PermMaint<S>,
{
    let (a, e, s) = two_component_graph(28, seed);
    let (eng, compiles) = compilations_during(|| {
        if dynamic {
            EnumQueryEngine::<S, P>::build_dynamic(&a, phi, &CompileOptions::default())
        } else {
            EnumQueryEngine::<S, P>::build(&a, phi, &CompileOptions::default())
        }
    });
    let mut eng = eng.expect("build");
    assert_eq!(compiles, 1, "one compilation per build call");
    assert_flat_shares_one_circuit(&eng);
    let mut reference = Reference::<S, P>::build(&a, phi, dynamic, 1);
    assert_eq!(eng.arity(), reference.arity);

    let mut shadow = (*a).clone();
    let compare = |eng: &mut EnumQueryEngine<S, P>,
                   reference: &mut Reference<S, P>,
                   shadow: &Structure,
                   at: &str| {
        let want = reference.stream();
        let mut got = Vec::new();
        let mut it = eng.enumerate();
        while let Some(t) = it.next() {
            got.push(t);
        }
        assert_eq!(got, want, "{at}: enumeration order");
        assert_eq!(eng.count(), reference.count(), "{at}: count");
        assert_eq!(eng.count() as usize, got.len(), "{at}: count vs stream");
        for k in (0..got.len() as u64).step_by(7).chain([got.len() as u64]) {
            assert_eq!(eng.answer(k), reference.answer(k), "{at}: answer({k})");
        }
        let mut sorted = got.clone();
        sorted.sort();
        let mut truth = agq_baseline::all_answers(phi, shadow);
        truth.sort();
        assert_eq!(sorted, truth, "{at}: answer set vs brute force");
        for t in probe_tuples(eng.arity(), a.domain_size() as u32, &got, seed) {
            let (x, y) = (eng.query(&t), reference.engine.query(&t));
            assert_eq!(format!("{x:?}"), format!("{y:?}"), "{at}: query({t:?})");
            assert_eq!(x.is_one(), truth.binary_search(&t).is_ok(), "{at}: {t:?}");
        }
    };
    compare(&mut eng, &mut reference, &shadow, "fresh");
    if !dynamic {
        return;
    }
    for (i, batch) in update_script(&a, phi, e, s, seed ^ 0xabcd)
        .iter()
        .enumerate()
    {
        if let [u] = batch.as_slice() {
            eng.apply_update(u).expect("valid update");
        } else {
            eng.apply_batch(batch).expect("valid batch");
        }
        reference.apply_batch(batch);
        for u in batch {
            if u.present {
                shadow.insert(u.rel, &u.tuple);
            } else {
                shadow.remove(u.rel, &u.tuple);
            }
        }
        if i % 4 == 3 {
            compare(
                &mut eng,
                &mut reference,
                &shadow,
                &format!("after batch {i}"),
            );
        }
    }
    compare(&mut eng, &mut reference, &shadow, "after the script");
    eng.self_check().expect("invariants hold");
    assert_flat_shares_one_circuit(&eng);
}

fn flat_suite<S: Semiring + std::fmt::Debug, P: PermMaint<S>>(seed: u64) {
    let (_, e, s) = two_component_graph(28, seed);
    for (phi, dynamic) in [
        (twopath(e), false),
        (twopath(e), true),
        (marked_edge(e, s), true),
        (marked_or_edge(e, s), false),
        (marked_or_edge(e, s), true),
        (edge_with_successor(e), false),
    ] {
        flat_matches_reference::<S, P>(&phi, dynamic, seed);
    }
}

#[test]
fn flat_general_backend_matches_twice_compiled() {
    flat_suite::<Nat, SegTreePerm<Nat>>(11);
}

#[test]
fn flat_ring_backend_matches_twice_compiled() {
    flat_suite::<Int, RingMaint<Int>>(12);
}

#[test]
fn flat_finite_backend_matches_twice_compiled() {
    flat_suite::<Bool, FiniteMaint<Bool>>(13);
}

// ---------------------------------------------------------------------
// sharded
// ---------------------------------------------------------------------

fn sharded_matches_reference<S, P>(phi: &Formula, seed: u64)
where
    S: Semiring + std::fmt::Debug,
    P: PermMaint<S> + Send + Sync,
{
    let (a, e, s) = two_component_graph(28, seed);
    let (eng, compiles) = compilations_during(|| {
        ShardedEngine::<S, P>::build(&a, phi, &CompileOptions::default(), 2)
    });
    let eng = eng.expect("build");
    assert_eq!(compiles, 1, "one compilation per build call");
    let mut reference = Reference::<S, P>::build(&a, phi, true, 2);
    assert_eq!(eng.num_shards(), reference.machines.len());

    // every shard: one circuit, one registry, one evaluation plan — the
    // same ones as shard 0's
    let shared = eng.with_shard(0, |qe, ix| {
        (
            qe.compiled().circuit.clone(),
            qe.compiled().slots.clone(),
            qe.plan().clone(),
            ix.machine().plan().clone(),
        )
    });
    for sh in 0..eng.num_shards() {
        eng.with_shard(sh, |qe, ix| {
            assert!(Arc::ptr_eq(&qe.compiled().circuit, &shared.0), "shard {sh}");
            assert!(Arc::ptr_eq(ix.machine().circuit(), &shared.0), "shard {sh}");
            assert!(Arc::ptr_eq(&qe.compiled().slots, &shared.1), "shard {sh}");
            assert!(Arc::ptr_eq(ix.slot_registry(), &shared.1), "shard {sh}");
            assert!(Arc::ptr_eq(qe.plan(), &shared.2), "shard {sh}");
            assert!(Arc::ptr_eq(ix.machine().plan(), &shared.3), "shard {sh}");
            let counts = ix.machine().counts();
            assert!(Arc::ptr_eq(counts.eval().plan(), &shared.2), "shard {sh}");
        });
    }

    let compare = |reference: &mut Reference<S, P>, at: &str| {
        let want = reference.stream();
        let got = eng.collect_answers();
        assert_eq!(got, want, "{at}: global rank order");
        assert_eq!(eng.count(), reference.count(), "{at}: count");
        for k in (0..got.len() as u64).step_by(5).chain([got.len() as u64]) {
            assert_eq!(eng.answer(k), reference.answer(k), "{at}: answer({k})");
        }
        for t in probe_tuples(eng.arity(), a.domain_size() as u32, &got, seed) {
            let (x, y) = (eng.query(&t), reference.engine.query(&t));
            assert_eq!(format!("{x:?}"), format!("{y:?}"), "{at}: query({t:?})");
        }
    };
    compare(&mut reference, "fresh");
    for (i, batch) in update_script(&a, phi, e, s, seed ^ 0x5eed)
        .iter()
        .enumerate()
    {
        if let [u] = batch.as_slice() {
            eng.apply_update(u).expect("valid update");
        } else {
            eng.apply_batch(batch).expect("valid batch");
        }
        reference.apply_batch(batch);
        if i % 4 == 3 {
            compare(&mut reference, &format!("after batch {i}"));
        }
    }
    compare(&mut reference, "after the script");
    assert_eq!(eng.self_check(), Ok(Vec::new()));
}

fn sharded_suite<S: Semiring + std::fmt::Debug, P: PermMaint<S> + Send + Sync>(seed: u64) {
    let (_, e, s) = two_component_graph(28, seed);
    for phi in [twopath(e), marked_edge(e, s), marked_or_edge(e, s)] {
        sharded_matches_reference::<S, P>(&phi, seed);
    }
}

#[test]
fn sharded_general_backend_matches_twice_compiled() {
    sharded_suite::<Nat, SegTreePerm<Nat>>(21);
}

#[test]
fn sharded_ring_backend_matches_twice_compiled() {
    sharded_suite::<Int, RingMaint<Int>>(22);
}

#[test]
fn sharded_finite_backend_matches_twice_compiled() {
    sharded_suite::<Bool, FiniteMaint<Bool>>(23);
}

// ---------------------------------------------------------------------
// rejection before compilation, assembly from independent halves
// ---------------------------------------------------------------------

#[test]
fn quantified_dynamic_build_is_rejected_before_any_compilation() {
    let (a, e, _) = two_component_graph(16, 5);
    let phi = edge_with_successor(e);
    let opts = CompileOptions::default();
    let (flat, compiles) = compilations_during(|| {
        EnumQueryEngine::<Nat, SegTreePerm<Nat>>::build_dynamic(&a, &phi, &opts)
    });
    assert!(matches!(
        flat.err(),
        Some(CompileError::UnsupportedQuantifier { .. })
    ));
    assert_eq!(compiles, 0, "flat engine rejected without compiling");
    let (sharded, compiles) =
        compilations_during(|| ShardedEngine::<Nat, SegTreePerm<Nat>>::build(&a, &phi, &opts, 2));
    assert!(matches!(
        sharded.err(),
        Some(CompileError::UnsupportedQuantifier { .. })
    ));
    assert_eq!(compiles, 0, "sharded engine rejected without compiling");
    let (index, compiles) = compilations_during(|| AnswerIndex::build_dynamic(&a, &phi, &opts));
    assert!(matches!(
        index.err(),
        Some(CompileError::UnsupportedQuantifier { .. })
    ));
    assert_eq!(compiles, 0);
    // the static builders still take it
    assert!(EnumQueryEngine::<Nat, SegTreePerm<Nat>>::build(&a, &phi, &opts).is_ok());
}

#[test]
fn independent_halves_assemble_and_agree() {
    // The traced benchmark run builds the two halves itself: they share
    // no `Arc`, but number their slots alike, so updates resolved once
    // reach both.
    let (a, e, s) = two_component_graph(24, 31);
    let phi = twopath(e);
    let opts = CompileOptions {
        dynamic_atoms: true,
        ..CompileOptions::default()
    };
    let (expr, a2) = eliminate_quantifiers(&Expr::<Nat>::Bracket(phi.clone()), &a, &opts).unwrap();
    let compiled = compile(&a2, &normalize(&expr).unwrap(), &opts).unwrap();
    let qe: QueryEngine<Nat, SegTreePerm<Nat>> =
        QueryEngine::new(compiled, &WeightedStructure::new(a2));
    let index = AnswerIndex::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
    assert!(!Arc::ptr_eq(
        &qe.compiled().circuit,
        index.machine().circuit()
    ));
    assert_eq!(
        *qe.compiled().circuit,
        **index.machine().circuit(),
        "independent compilations are byte-identical"
    );
    let mut assembled = EnumQueryEngine::from_parts(qe, index, 0);
    let mut one_call = EnumQueryEngine::<Nat, SegTreePerm<Nat>>::build_dynamic(
        &a,
        &phi,
        &CompileOptions::default(),
    )
    .unwrap();
    for batch in update_script(&a, &phi, e, s, 77) {
        assembled.apply_batch(&batch).unwrap();
        one_call.apply_batch(&batch).unwrap();
    }
    let stream = |eng: &EnumQueryEngine<Nat, SegTreePerm<Nat>>| {
        let mut out = Vec::new();
        let mut it = eng.enumerate();
        while let Some(t) = it.next() {
            out.push(t);
        }
        out
    };
    let got = stream(&assembled);
    assert_eq!(got, stream(&one_call));
    for t in &got {
        assert_eq!(assembled.query(t), Nat(1));
    }
    assembled.self_check().unwrap();
}

#[test]
#[should_panic(expected = "compiled from different queries")]
fn halves_of_different_queries_are_refused() {
    let (a, e, s) = two_component_graph(16, 41);
    let opts = CompileOptions::default();
    let point =
        EnumQueryEngine::<Nat, SegTreePerm<Nat>>::build_dynamic(&a, &twopath(e), &opts).unwrap();
    let other = AnswerIndex::build_dynamic(&a, &marked_edge(e, s), &opts).unwrap();
    let weights = WeightedStructure::new(a.clone());
    let qe = QueryEngine::from_parts(
        point.query_engine().compiled_arc().clone(),
        point.query_engine().plan().clone(),
        &weights,
    );
    let _ = EnumQueryEngine::<Nat, SegTreePerm<Nat>>::from_parts(qe, other, 0);
}

#[test]
fn static_engine_still_rejects_updates_after_resolution_moved() {
    let (a, e, _) = two_component_graph(16, 51);
    let mut eng = EnumQueryEngine::<Nat, SegTreePerm<Nat>>::build(
        &a,
        &twopath(e),
        &CompileOptions::default(),
    )
    .unwrap();
    let t: Vec<Elem> = a.relation(e).iter().next().unwrap().as_slice().to_vec();
    assert_eq!(
        eng.apply_batch(&[TupleUpdate::remove(e, &t)]),
        Err(UpdateError::StaticIndex)
    );
    assert_eq!(eng.last_lsn(), 0, "a rejected batch is not sequenced");
}
