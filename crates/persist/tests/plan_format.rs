//! Plan files (body layout unchanged since format version 2): the
//! circuit and its slot registry are stored **once**, whoever built the
//! engine; a loaded plan shares one circuit, one registry and one
//! evaluation plan across the point, enumeration and count sides of
//! every shard; artefacts of an older format version are refused with
//! the typed `VersionMismatch`.

use agq_circuit::CircuitBuilder;
use agq_core::{
    compile, eliminate_quantifiers, CompileOptions, CompiledQuery, QueryEngine, TupleUpdate,
};
use agq_enumerate::{AnswerIndex, EnumQueryEngine, ShardedEngine};
use agq_logic::{normalize, Expr, Formula, Var};
use agq_perm::SegTreePerm;
use agq_persist::plan::{read_bundle, write_bundle, LoadedPlan, PlanRefs};
use agq_persist::{
    load_engine, load_plan, load_sharded, save_engine, save_plan, save_sharded, PersistError,
    FORMAT_VERSION,
};
use agq_semiring::Nat;
use agq_structure::{RelId, Signature, Structure, WeightedStructure};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Engine = EnumQueryEngine<Nat, SegTreePerm<Nat>>;
type Sharded = ShardedEngine<Nat, SegTreePerm<Nat>>;

fn scratch(label: &str) -> (PathBuf, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "agq_planfmt_{}_{}_{}",
        std::process::id(),
        label,
        id
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    (dir.join("q.agqplan"), dir.join("q.agqsnap"))
}

/// Two disjoint 5-cycles with a chord each; φ = E(x,y) ∧ E(y,z) ∧ x≠z.
fn world() -> (Arc<Structure>, RelId, Formula) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), 10);
    for base in [0u32, 5] {
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            a.insert(e, &[base + u, base + v]);
            a.insert(e, &[base + v, base + u]);
        }
    }
    let phi = Formula::Rel(e, vec![Var(0), Var(1)])
        .and(Formula::Rel(e, vec![Var(1), Var(2)]))
        .and(Formula::neq(Var(0), Var(2)));
    (Arc::new(a), e, phi)
}

/// The point side compiled on its own, the way a decomposed build does.
fn point_side(a: &Arc<Structure>, phi: &Formula) -> (CompiledQuery<Nat>, WeightedStructure<Nat>) {
    let opts = CompileOptions {
        dynamic_atoms: true,
        ..CompileOptions::default()
    };
    let (expr, a2) = eliminate_quantifiers(&Expr::<Nat>::Bracket(phi.clone()), a, &opts).unwrap();
    let compiled = compile(&a2, &normalize(&expr).unwrap(), &opts).unwrap();
    (compiled, WeightedStructure::new(a2))
}

fn assert_flat_shares(eng: &Engine) {
    let qe = eng.query_engine();
    let ix = eng.answer_index();
    assert!(Arc::ptr_eq(&qe.compiled().circuit, ix.machine().circuit()));
    assert!(Arc::ptr_eq(&qe.compiled().slots, ix.slot_registry()));
    assert!(Arc::ptr_eq(qe.plan(), ix.machine().plan().eval_plan()));
}

#[test]
fn independent_halves_save_one_copy_and_load_shared() {
    let (a, _e, phi) = world();
    let opts = CompileOptions::default();
    let one_call = Engine::build_dynamic(&a, &phi, &opts).unwrap();
    assert_flat_shares(&one_call);

    let (compiled, weights) = point_side(&a, &phi);
    let qe = QueryEngine::new(compiled, &weights);
    let index = AnswerIndex::build_dynamic(&a, &phi, &opts).unwrap();
    assert!(
        !Arc::ptr_eq(&qe.compiled().circuit, index.machine().circuit()),
        "the halves were compiled separately"
    );
    let assembled = Engine::from_parts(qe, index, 0);

    let (plan_a, snap_a) = scratch("assembled");
    let (plan_b, _) = scratch("onecall");
    let assembled_bytes = save_engine(&assembled, &plan_a, &snap_a)
        .unwrap()
        .plan_bytes;
    let one_call_bytes = save_plan(&one_call, &plan_b).unwrap();
    assert!(
        assembled_bytes <= one_call_bytes,
        "structural dedup: {assembled_bytes} B vs {one_call_bytes} B"
    );
    assert_eq!(
        std::fs::read(&plan_a).unwrap(),
        std::fs::read(&plan_b).unwrap(),
        "same query, same bytes — whoever assembled the engine"
    );

    let loaded: Engine = load_engine(&plan_a, &snap_a).unwrap();
    assert_flat_shares(&loaded);
    assert_eq!(loaded.count(), one_call.count());
    let lp: LoadedPlan<Nat> = load_plan(&plan_a).unwrap();
    assert!(Arc::ptr_eq(&lp.compiled.circuit, lp.enum_plan.circuit()));
    assert!(Arc::ptr_eq(&lp.eval_plan, lp.enum_plan.eval_plan()));
    assert_eq!(lp.compiled.free_vars.len(), 3);
}

#[test]
fn loaded_shards_share_one_circuit_and_one_plan() {
    let (a, e, phi) = world();
    let eng = Sharded::build(&a, &phi, &CompileOptions::default(), 2).unwrap();
    assert_eq!(eng.num_shards(), 2);
    eng.apply_batch(&[
        TupleUpdate::remove(e, &[0, 1]),
        TupleUpdate::remove(e, &[6, 7]),
    ])
    .unwrap();
    let (plan, snap) = scratch("sharded");
    save_sharded(&eng, &plan, &snap).unwrap();
    let loaded: Sharded = load_sharded(&plan, &snap).unwrap();
    assert_eq!(loaded.collect_answers(), eng.collect_answers());
    let first = loaded.with_shard(0, |qe, ix| {
        (
            qe.compiled().circuit.clone(),
            qe.plan().clone(),
            ix.slot_registry().clone(),
        )
    });
    for s in 0..loaded.num_shards() {
        loaded.with_shard(s, |qe, ix| {
            assert!(Arc::ptr_eq(&qe.compiled().circuit, &first.0), "shard {s}");
            assert!(Arc::ptr_eq(ix.machine().circuit(), &first.0), "shard {s}");
            assert!(Arc::ptr_eq(qe.plan(), &first.1), "shard {s}");
            assert!(
                Arc::ptr_eq(ix.machine().plan().eval_plan(), &first.1),
                "shard {s}: count side on the shared plan"
            );
            assert!(Arc::ptr_eq(&qe.compiled().slots, &first.2), "shard {s}");
            assert!(Arc::ptr_eq(ix.slot_registry(), &first.2), "shard {s}");
        });
    }
    // rank reads (which instantiate the count states) agree
    assert_eq!(loaded.count(), eng.count());
    assert_eq!(loaded.answer(3), eng.answer(3));
}

#[test]
fn a_differing_enumeration_circuit_survives_behind_its_tag() {
    let (a, _e, phi) = world();
    let eng = Engine::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
    let compiled = eng.query_engine().compiled();
    let index = eng.answer_index();
    let shared = write_bundle(&PlanRefs::of(eng.query_engine(), index));

    // Some other literal-free circuit over the same slots.
    let mut b = CircuitBuilder::new();
    let inputs: Vec<_> = (0..compiled.slots.len() as u32)
        .map(|s| b.input(s))
        .collect();
    let out = b.add(&inputs);
    let other = b.finish(out);
    assert_ne!(other, *compiled.circuit);
    let own = write_bundle(&PlanRefs {
        enum_circuit: &other,
        ..PlanRefs::of(eng.query_engine(), index)
    });
    assert!(own.len() > shared.len(), "the second circuit is stored");

    let bundle = read_bundle::<Nat>(&own).unwrap();
    assert!(!Arc::ptr_eq(&bundle.enum_circuit, &bundle.compiled.circuit));
    assert_eq!(*bundle.enum_circuit, other);
    assert_eq!(*bundle.compiled.circuit, *compiled.circuit);
    let lp = LoadedPlan::from_bundle(bundle);
    assert!(!Arc::ptr_eq(lp.enum_plan.circuit(), &lp.compiled.circuit));

    let bundle = read_bundle::<Nat>(&shared).unwrap();
    assert!(Arc::ptr_eq(&bundle.enum_circuit, &bundle.compiled.circuit));
}

#[test]
fn version_2_artefacts_are_refused() {
    assert_eq!(FORMAT_VERSION, 3);
    let (a, _e, phi) = world();
    let eng = Engine::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
    let (plan, snap) = scratch("v2");
    save_engine(&eng, &plan, &snap).unwrap();
    let stamp_v2 = |path: &PathBuf| {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    };
    stamp_v2(&plan);
    match load_plan::<Nat>(&plan) {
        Err(PersistError::VersionMismatch {
            found: 2,
            expected: 3,
        }) => {}
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("a version-2 plan must not load"),
    }
    // restore the plan, stamp the snapshot instead
    save_plan(&eng, &plan).unwrap();
    stamp_v2(&snap);
    match load_engine::<Nat, SegTreePerm<Nat>>(&plan, &snap) {
        Err(PersistError::VersionMismatch {
            found: 2,
            expected: 3,
        }) => {}
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
        Ok(_) => panic!("a version-2 snapshot must not load"),
    }
}
