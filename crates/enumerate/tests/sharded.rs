//! Differential and concurrency suites for the Gaifman-component
//! sharded engine and the plan/state split beneath it.
//!
//! * sharded ≡ unsharded: point queries, answer sets, the merged
//!   ordered stream, and post-update behavior, on all three point-query
//!   backends (General / Ring / Finite);
//! * property test: one shared plan with N states under disjoint update
//!   streams is indistinguishable from N independently built engines;
//! * concurrent smoke test: threads updating distinct shards while other
//!   threads run `query_batch` (run in release mode by CI).

use agq_circuit::{FiniteMaint, PermMaint, RingMaint};
use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::{AnswerIndex, EnumQueryEngine, ShardedEngine, UpdateError};
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_semiring::{Bool, Int, Nat, Semiring};
use agq_structure::gaifman::GaifmanComponents;
use agq_structure::{Elem, RelId, Signature, Structure};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A multi-component world: `num_comps` disjoint random clusters over
/// one edge relation `E` (symmetrized) and one unary relation `S`.
struct World {
    a: Arc<Structure>,
    e: RelId,
    s: RelId,
    /// Gaifman-preserving binary update candidates.
    e_tuples: Vec<[u32; 2]>,
    n: u32,
}

fn clustered_world(num_comps: usize, comp_size: usize, seed: u64) -> World {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let s = sig.add_relation("S", 1);
    let n = num_comps * comp_size;
    let mut a = Structure::new(Arc::new(sig), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    for c in 0..num_comps {
        let base = (c * comp_size) as u32;
        // a random connected-ish cluster: a path plus chords
        for i in 1..comp_size as u32 {
            let u = base + i;
            let v = base + rng.gen_range(0..i);
            a.insert(e, &[u, v]);
            a.insert(e, &[v, u]);
        }
        for _ in 0..comp_size / 2 {
            let u = base + rng.gen_range(0..comp_size as u32);
            let v = base + rng.gen_range(0..comp_size as u32);
            if u != v {
                a.insert(e, &[u, v]);
                a.insert(e, &[v, u]);
            }
        }
    }
    for v in 0..n as u32 {
        if rng.gen_bool(0.5) {
            a.insert(s, &[v]);
        }
    }
    let e_tuples: Vec<[u32; 2]> = a
        .relation(e)
        .iter()
        .map(|t| [t.as_slice()[0], t.as_slice()[1]])
        .collect();
    World {
        a: Arc::new(a),
        e,
        s,
        e_tuples,
        n: n as u32,
    }
}

fn sorted(mut v: Vec<Vec<Elem>>) -> Vec<Vec<Elem>> {
    v.sort();
    v
}

fn collect_engine<S: Semiring, P: PermMaint<S>>(eng: &EnumQueryEngine<S, P>) -> Vec<Vec<Elem>> {
    let mut out = Vec::new();
    let mut it = eng.enumerate();
    while let Some(t) = it.next() {
        out.push(t);
    }
    out
}

/// Differential: the sharded engine must agree with the unsharded
/// `EnumQueryEngine` on point queries, the answer set, the merged
/// ordered stream, and after every update of a random Gaifman-preserving
/// update sequence.
fn sharded_matches_unsharded<S, P, F>(seed: u64, mk_one: F)
where
    S: Semiring + PartialEq,
    P: PermMaint<S> + Send + Sync,
    F: Fn() -> S,
{
    let w = clustered_world(4, 6, seed);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(w.e, vec![x, y]).and(Formula::Rel(w.s, vec![x]));
    assert!(phi.answers_component_local());
    let opts = CompileOptions::default();
    let sharded: ShardedEngine<S, P> = ShardedEngine::build(&w.a, &phi, &opts, 0).unwrap();
    let mut flat: EnumQueryEngine<S, P> =
        EnumQueryEngine::build_dynamic(&w.a, &phi, &opts).unwrap();
    assert!(sharded.num_shards() > 1, "world must actually shard");

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
    let one = mk_one();
    let mut check = |sharded: &ShardedEngine<S, P>, flat: &mut EnumQueryEngine<S, P>| {
        let flat_answers = sorted(collect_engine(flat));
        assert_eq!(
            sorted(sharded.collect_answers()),
            flat_answers,
            "answer sets"
        );
        let merged = sharded.collect_answers();
        assert_eq!(sorted(merged), flat_answers, "merged answer set");
        assert_eq!(sharded.count(), flat_answers.len() as u64);
        // global rank access agrees with the merged stream
        let stream = sharded.collect_answers();
        for k in [0, stream.len() / 2, stream.len().saturating_sub(1)] {
            if k < stream.len() {
                assert_eq!(
                    sharded.answer(k as u64).as_ref(),
                    Some(&stream[k]),
                    "global rank {k}"
                );
            }
        }
        assert_eq!(sharded.answer(stream.len() as u64), None);
        // point queries: answers are one, random non-answers agree too
        for t in flat_answers.iter().take(8) {
            assert_eq!(sharded.query(t), one, "answer point query");
        }
        let probes: Vec<[u32; 2]> = (0..16)
            .map(|_| [rng.gen_range(0..w.n), rng.gen_range(0..w.n)])
            .collect();
        let probe_refs: Vec<&[u32]> = probes.iter().map(|p| p.as_slice()).collect();
        let batch = sharded.query_batch(&probe_refs);
        for (p, got) in probes.iter().zip(batch) {
            assert_eq!(got, flat.query(p), "probe {p:?}");
            assert_eq!(sharded.query(p), flat.query(p), "point probe {p:?}");
        }
    };
    check(&sharded, &mut flat);
    // interleave updates and re-checks
    let mut rng2 = SmallRng::seed_from_u64(seed ^ 0x1234);
    for step in 0..25 {
        let u = if rng2.gen_bool(0.4) {
            TupleUpdate {
                rel: w.s,
                tuple: vec![rng2.gen_range(0..w.n)],
                present: rng2.gen_bool(0.5),
            }
        } else {
            let t = w.e_tuples[rng2.gen_range(0..w.e_tuples.len())];
            let t = if rng2.gen_bool(0.5) { t } else { [t[1], t[0]] };
            TupleUpdate {
                rel: w.e,
                tuple: t.to_vec(),
                present: rng2.gen_bool(0.5),
            }
        };
        sharded.apply_update(&u).unwrap();
        flat.apply_update(&u).unwrap();
        if step % 5 == 4 {
            check(&sharded, &mut flat);
        }
    }
    check(&sharded, &mut flat);
}

#[test]
fn sharded_differential_general() {
    sharded_matches_unsharded::<Nat, SegTreePerm<Nat>, _>(7, || Nat(1));
}

#[test]
fn sharded_differential_ring() {
    sharded_matches_unsharded::<Int, RingMaint<Int>, _>(8, || Int(1));
}

#[test]
fn sharded_differential_finite() {
    sharded_matches_unsharded::<Bool, FiniteMaint<Bool>, _>(9, || Bool(true));
}

/// A wrong-length tuple panics on every sharded point read with the flat
/// engine's message, even when its elements span shards — routing first
/// would answer such a tuple zero.
#[test]
fn sharded_point_reads_reject_wrong_arity() {
    let w = clustered_world(2, 4, 21);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(w.e, vec![x, y]).and(Formula::Rel(w.s, vec![x]));
    let opts = CompileOptions::default();
    let sharded: ShardedEngine<Nat, SegTreePerm<Nat>> =
        ShardedEngine::build(&w.a, &phi, &opts, 2).unwrap();
    let mut flat: EnumQueryEngine<Nat, SegTreePerm<Nat>> =
        EnumQueryEngine::build_dynamic(&w.a, &phi, &opts).unwrap();
    assert_eq!((sharded.num_shards(), sharded.arity()), (2, 2));
    let spanning: [Elem; 3] = [0, 4, 1];
    let components = sharded.components();
    assert_ne!(
        components.shard_of(0),
        components.shard_of(4),
        "tuple spans shards"
    );

    let panic_message = |read: &mut dyn FnMut()| -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
            .expect_err("a wrong-length tuple must panic");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(err) => err.downcast::<&str>().map(|s| s.to_string()).unwrap(),
        }
    };
    let expected = panic_message(&mut || {
        flat.query(&spanning);
    });
    assert!(
        expected.contains("query tuple arity mismatch"),
        "{expected}"
    );
    let reads: [(&str, &mut dyn FnMut()); 3] = [
        ("query", &mut || {
            sharded.query(&spanning);
        }),
        ("try_query", &mut || {
            let _ = sharded.try_query(&spanning);
        }),
        ("query_batch", &mut || {
            sharded.query_batch(&[&[0, 1], &spanning]);
        }),
    ];
    for (name, read) in reads {
        assert_eq!(panic_message(read), expected, "{name}");
    }
}

/// The fallback path must stay correct: a non-component-local formula
/// (negated atom) runs on one shard and still matches the flat engine.
#[test]
fn sharded_fallback_differential() {
    let w = clustered_world(3, 4, 11);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(w.e, vec![x, y]).not().and(Formula::neq(x, y));
    assert!(!phi.answers_component_local());
    let opts = CompileOptions::default();
    let sharded: ShardedEngine<Nat, SegTreePerm<Nat>> =
        ShardedEngine::build(&w.a, &phi, &opts, 0).unwrap();
    assert_eq!(sharded.num_shards(), 1);
    let mut flat: EnumQueryEngine<Nat, SegTreePerm<Nat>> =
        EnumQueryEngine::build_dynamic(&w.a, &phi, &opts).unwrap();
    assert_eq!(
        sorted(sharded.collect_answers()),
        sorted(collect_engine(&flat))
    );
    let u = TupleUpdate::remove(w.e, &[0, 1]);
    sharded.apply_update(&u).unwrap();
    flat.apply_update(&u).unwrap();
    assert_eq!(
        sorted(sharded.collect_answers()),
        sorted(collect_engine(&flat))
    );
    assert_eq!(sharded.query(&[0, 1]), flat.query(&[0, 1]));
}

// ---------------------------------------------------------------------
// Property test: one shared plan, N states, disjoint update streams.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plan shared by N `AnswerIndex` states, each absorbing its own
    /// update stream, must enumerate exactly what N independently built
    /// indexes over the same update streams do.
    #[test]
    fn shared_plan_states_match_independent_engines(
        seed in 0u64..1000,
        steps in pvec((0usize..3, 0u32..24, any::<bool>(), any::<bool>()), 1..30),
    ) {
        let w = clustered_world(3, 8, seed);
        let (x, y) = (Var(0), Var(1));
        let phi = Formula::Rel(w.e, vec![x, y]).and(Formula::Rel(w.s, vec![x]));
        let opts = CompileOptions::default();
        // N states over ONE shared plan (shard_filtered keeps every
        // element: same answers, same plan, distinct mutable state).
        let base = AnswerIndex::build_dynamic(&w.a, &phi, &opts).unwrap();
        let mut shared: Vec<AnswerIndex> = (0..3).map(|_| base.shard_filtered(|_| true)).collect();
        // N independently built engines, one per stream.
        let mut independent: Vec<AnswerIndex> =
            (0..3).map(|_| AnswerIndex::build_dynamic(&w.a, &phi, &opts).unwrap()).collect();
        for (stream, pick, use_s, present) in steps {
            let u = if use_s {
                TupleUpdate { rel: w.s, tuple: vec![pick % w.n], present }
            } else {
                let t = w.e_tuples[pick as usize % w.e_tuples.len()];
                TupleUpdate { rel: w.e, tuple: t.to_vec(), present }
            };
            shared[stream].apply_update(&u).unwrap();
            independent[stream].apply_update(&u).unwrap();
            // the updated pair must agree; the other streams are untouched
            for i in 0..3 {
                prop_assert_eq!(
                    shared[i].count(),
                    independent[i].count(),
                    "stream {} diverged", i
                );
            }
        }
        for i in 0..3 {
            let collect = |ix: &AnswerIndex| {
                let mut out = Vec::new();
                let mut it = ix.iter();
                while let Some(t) = it.next() { out.push(t); }
                out.sort();
                out
            };
            prop_assert_eq!(collect(&shared[i]), collect(&independent[i]));
        }
    }
}

// ---------------------------------------------------------------------
// Batched ingestion across shards.
// ---------------------------------------------------------------------

/// `ShardedEngine::apply_batch` with batches straddling shards must agree
/// with one-by-one sharded application and with a flat engine absorbing
/// the same updates, on all three backends. Batches mix relations,
/// duplicate tuples (last wins) and guaranteed mutually-cancelling flips.
fn sharded_batch_matches_sequential<S, P>(seed: u64)
where
    S: Semiring + PartialEq,
    P: PermMaint<S> + Send + Sync,
{
    let w = clustered_world(4, 6, seed);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(w.e, vec![x, y]).and(Formula::Rel(w.s, vec![x]));
    let opts = CompileOptions::default();
    let batched: ShardedEngine<S, P> = ShardedEngine::build(&w.a, &phi, &opts, 0).unwrap();
    let sequential: ShardedEngine<S, P> = ShardedEngine::build(&w.a, &phi, &opts, 0).unwrap();
    let mut flat: EnumQueryEngine<S, P> =
        EnumQueryEngine::build_dynamic(&w.a, &phi, &opts).unwrap();
    assert!(batched.num_shards() > 1, "world must actually shard");

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    for round in 0..6 {
        // a batch touching several components at once
        let mut batch = Vec::new();
        for _ in 0..12 {
            if rng.gen_bool(0.4) {
                batch.push(TupleUpdate {
                    rel: w.s,
                    tuple: vec![rng.gen_range(0..w.n)],
                    present: rng.gen_bool(0.5),
                });
            } else {
                let t = w.e_tuples[rng.gen_range(0..w.e_tuples.len())];
                batch.push(TupleUpdate {
                    rel: w.e,
                    tuple: t.to_vec(),
                    present: rng.gen_bool(0.5),
                });
            }
        }
        // guaranteed cancelling pair on one tuple: the remove wins
        let t = w.e_tuples[rng.gen_range(0..w.e_tuples.len())];
        batch.push(TupleUpdate::insert(w.e, &t));
        batch.push(TupleUpdate::remove(w.e, &t));

        batched.apply_batch(&batch).unwrap();
        for u in &batch {
            sequential.apply_update(u).unwrap();
            flat.apply_update(u).unwrap();
        }
        let expect = sorted(collect_engine(&flat));
        assert_eq!(
            sorted(batched.collect_answers()),
            expect,
            "round {round}: batched sharded ≠ flat"
        );
        assert_eq!(
            sorted(sequential.collect_answers()),
            expect,
            "round {round}: sequential sharded ≠ flat"
        );
        assert_eq!(batched.count(), expect.len() as u64);
    }
}

#[test]
fn sharded_batch_differential_general() {
    sharded_batch_matches_sequential::<Nat, SegTreePerm<Nat>>(21);
}

#[test]
fn sharded_batch_differential_ring() {
    sharded_batch_matches_sequential::<Int, RingMaint<Int>>(22);
}

#[test]
fn sharded_batch_differential_finite() {
    sharded_batch_matches_sequential::<Bool, FiniteMaint<Bool>>(23);
}

/// A batch containing a cross-shard insert is rejected whole: the error
/// surfaces before any update in the batch is applied, even ones routed
/// to other shards. Cross-shard removes are dropped as no-ops and the
/// rest of the batch still applies.
#[test]
fn sharded_batch_is_all_or_nothing() {
    let w = clustered_world(3, 4, 31);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(w.e, vec![x, y]).and(Formula::Rel(w.s, vec![x]));
    let opts = CompileOptions::default();
    let eng: ShardedEngine<Nat, SegTreePerm<Nat>> =
        ShardedEngine::build(&w.a, &phi, &opts, 0).unwrap();
    assert!(eng.num_shards() > 1);
    let before = sorted(eng.collect_answers());
    let t = w.e_tuples[0];
    let cross = [0u32, w.n - 1]; // first and last cluster: spans shards
    let batch = vec![
        TupleUpdate::remove(w.e, &t), // would change state if applied
        TupleUpdate::insert(w.e, &cross),
    ];
    assert_eq!(
        eng.apply_batch(&batch),
        Err(UpdateError::NotGaifmanPreserving)
    );
    assert_eq!(
        sorted(eng.collect_answers()),
        before,
        "rejected batch must leave no partial application"
    );
    // cross-shard removes are no-ops; the in-shard remove still applies
    let batch = vec![
        TupleUpdate::remove(w.e, &cross),
        TupleUpdate::remove(w.e, &t),
    ];
    let applied = eng.apply_batch(&batch).unwrap();
    assert_eq!(applied, 1, "only the in-shard remove touches slots");
    let mut flat: EnumQueryEngine<Nat, SegTreePerm<Nat>> =
        EnumQueryEngine::build_dynamic(&w.a, &phi, &opts).unwrap();
    flat.apply_update(&TupleUpdate::remove(w.e, &t)).unwrap();
    assert_eq!(sorted(eng.collect_answers()), sorted(collect_engine(&flat)));
}

// ---------------------------------------------------------------------
// Concurrent smoke test (CI runs this in release mode).
// ---------------------------------------------------------------------

/// Threads hammer distinct shards with updates while other threads run
/// `query_batch` and enumeration concurrently; afterwards the engine
/// must agree with a flat engine that absorbed the same updates.
#[test]
fn concurrent_shard_updates_and_batch_queries() {
    let w = clustered_world(4, 8, 42);
    let (x, y) = (Var(0), Var(1));
    let phi = Formula::Rel(w.e, vec![x, y]).and(Formula::Rel(w.s, vec![x]));
    let opts = CompileOptions::default();
    let eng: ShardedEngine<Nat, SegTreePerm<Nat>> =
        ShardedEngine::build(&w.a, &phi, &opts, 4).unwrap();
    assert_eq!(eng.num_shards(), 4);
    let components = GaifmanComponents::new(&w.a, 4);

    // Partition the update candidates by owning shard so writer threads
    // never contend on one shard.
    let mut per_shard: Vec<Vec<TupleUpdate>> = vec![Vec::new(); 4];
    for t in &w.e_tuples {
        let s = components.shard_of(t[0]) as usize;
        per_shard[s].push(TupleUpdate::remove(w.e, t));
        per_shard[s].push(TupleUpdate::insert(w.e, t));
    }
    for v in 0..w.n {
        let s = components.shard_of(v) as usize;
        per_shard[s].push(TupleUpdate::insert(w.s, &[v]));
    }

    let probes: Vec<[u32; 2]> = {
        let mut rng = SmallRng::seed_from_u64(5);
        (0..64)
            .map(|_| [rng.gen_range(0..w.n), rng.gen_range(0..w.n)])
            .collect()
    };
    let eng = &eng;
    std::thread::scope(|scope| {
        // four writers, one per shard
        for stream in &per_shard {
            scope.spawn(move || {
                for _ in 0..20 {
                    for u in stream {
                        eng.apply_update(u).unwrap();
                    }
                }
            });
        }
        // two readers running batches + enumeration the whole time
        for _ in 0..2 {
            scope.spawn(|| {
                let tuples: Vec<&[u32]> = probes.iter().map(|p| p.as_slice()).collect();
                for _ in 0..20 {
                    let vals = eng.query_batch(&tuples);
                    assert_eq!(vals.len(), tuples.len());
                    let n = eng.count();
                    let mut seen = 0u64;
                    eng.for_each_answer(|_| seen += 1);
                    // counts race benignly between the two snapshots;
                    // both must stay within the world's answer bound
                    assert!(n <= (w.n as u64) * (w.n as u64));
                    assert!(seen <= (w.n as u64) * (w.n as u64));
                }
            });
        }
    });

    // Deterministic end state: every writer's last pass ran to
    // completion, so replay the same final updates into a flat engine.
    let mut flat: EnumQueryEngine<Nat, SegTreePerm<Nat>> =
        EnumQueryEngine::build_dynamic(&w.a, &phi, &opts).unwrap();
    for stream in &per_shard {
        for u in stream {
            flat.apply_update(u).unwrap();
        }
    }
    assert_eq!(
        sorted(eng.collect_answers()),
        sorted(collect_engine(&flat)),
        "post-race state must equal sequential replay"
    );
    for p in &probes {
        assert_eq!(eng.query(p), flat.query(p));
    }
}
