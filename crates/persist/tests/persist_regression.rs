//! Persistence performance regression test (PR 9) over the E9 workload
//! at n = 16 000.
//!
//! Pins the two properties that make the persistence layer worth its
//! bytes:
//!
//! 1. **Plan load beats recompile by ≥ 5×, and a full restart from
//!    disk beats a rebuild by ≥ 2×.** `.agqplan` stores the canonical
//!    flat circuit buffers — once, since format version 2; loading is a
//!    linear decode plus the linear `EvalPlan`/`EnumPlan` rebuilds,
//!    while a build re-runs tree-decomposition, circuit construction,
//!    and slot binding. The baseline is the one-call `build_dynamic`,
//!    which since the halves share one circuit compiles **once** — it
//!    is ≈ 1.5× cheaper than the twice-compiling build the legacy E18
//!    record (frozen in README.md) measured its 11.3× against, so the
//!    ratios are lower than they were while every side is faster; the
//!    benchmark matrix tracks both sides as `persist.load_plan_ms` and
//!    `core.compile_ms` on `cold_start`. Measured on the 2-vCPU VM, `load_plan`
//!    ≈ 1.1 s and `load_engine` (plan + 67 MB snapshot decode + state
//!    restore) ≈ 1.5–1.7 s against a ≈ 8 s build, i.e. ≈ 7.5× and
//!    ≈ 5×. The 5× gate sits on the plan load — the step that stands in
//!    for compilation, and the one a load path that accidentally
//!    re-enters the compiler would blow — and the whole restart keeps a
//!    2× gate of its own with headroom for noisy CI.
//!
//! 2. **Snapshot + WAL restart beats a cold rebuild.** Recovering from
//!    a snapshot plus a 64-batch WAL tail must come in under the time a
//!    fresh `build_dynamic` takes — otherwise crash recovery would be
//!    pointless — and under a generous absolute ceiling so a quadratic
//!    replay loop can't hide behind a slow baseline.
//!
//! Budgets are only meaningful with optimizations on, so the assertions
//! are compiled under `not(debug_assertions)`: run via
//! `cargo test -p agq-persist --release` (CI does).

#![cfg(not(debug_assertions))]

use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::EnumQueryEngine;
use agq_graph::generators;
use agq_logic::{Formula, Var};
use agq_perm::SegTreePerm;
use agq_persist::{attach_file_wal, load_engine, load_plan, recover_engine, save_engine};
use agq_semiring::F64;
use agq_structure::{RelId, Signature, Structure};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Engine = EnumQueryEngine<F64, SegTreePerm<F64>>;

/// The E9 workload: symmetrized G(n, 2n), two-path query with x ≠ z.
fn e9_workload(n: usize) -> (Structure, Formula, RelId) {
    let g = generators::gnm(n, 2 * n, 7);
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), n);
    for (u, v) in g.edges() {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    let (x, y, z) = (Var(0), Var(1), Var(2));
    let phi = Formula::Rel(e, vec![x, y])
        .and(Formula::Rel(e, vec![y, z]))
        .and(Formula::neq(x, z));
    (a, phi, e)
}

fn scratch(label: &str) -> (PathBuf, PathBuf, PathBuf) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("agq_persist_reg_{}_{}", std::process::id(), label));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    (
        dir.join("q.agqplan"),
        dir.join("q.agqsnap"),
        dir.join("wal.agqlog"),
    )
}

#[test]
fn plan_load_beats_recompile() {
    /// Loading a serialized plan must be at least this many times
    /// faster than building the engine from the formula.
    const PLAN_SPEEDUP_FLOOR: f64 = 5.0;
    /// Loading the whole engine (plan + snapshot) must be at least this
    /// many times faster than building it.
    const ENGINE_SPEEDUP_FLOOR: f64 = 2.0;

    let n = 16_000;
    let (a, phi, _) = e9_workload(n);
    let a = Arc::new(a);
    let opts = CompileOptions::default();

    // Cold compile, timed. A second compile would be the honest
    // baseline for "restart without persistence" — the first already
    // paid page-faults for the structure, so time the second.
    let engine = Engine::build_dynamic(&a, &phi, &opts).expect("build");
    let t = Instant::now();
    let rebuilt = Engine::build_dynamic(&a, &phi, &opts).expect("rebuild");
    let t_compile = t.elapsed();
    assert_eq!(engine.count(), rebuilt.count());
    drop(rebuilt);

    let (plan, snap, _wal) = scratch("planload");
    save_engine(&engine, &plan, &snap).expect("save");

    // Warm the file cache (and the allocator) with one load each, then
    // time the second.
    drop(load_plan::<F64>(&plan).expect("first plan load"));
    let t = Instant::now();
    let lp = load_plan::<F64>(&plan).expect("second plan load");
    let t_plan = t.elapsed();
    assert_eq!(lp.compiled.circuit.len(), {
        let compiled = engine.query_engine().compiled();
        compiled.circuit.len()
    });
    drop(lp);

    drop(load_engine::<F64, SegTreePerm<F64>>(&plan, &snap).expect("first load"));
    let t = Instant::now();
    let loaded = load_engine::<F64, SegTreePerm<F64>>(&plan, &snap).expect("second load");
    let t_load = t.elapsed();

    assert_eq!(
        loaded.count(),
        engine.count(),
        "loaded engine answers match"
    );
    let plan_speedup = t_compile.as_secs_f64() / t_plan.as_secs_f64();
    let engine_speedup = t_compile.as_secs_f64() / t_load.as_secs_f64();
    eprintln!(
        "plan_load_beats_recompile: build {t_compile:?}, load_plan {t_plan:?} \
         ({plan_speedup:.1}×), load_engine {t_load:?} ({engine_speedup:.1}×)"
    );
    assert!(
        plan_speedup >= PLAN_SPEEDUP_FLOOR,
        "plan load {t_plan:?} is only {plan_speedup:.1}× faster than a build \
         {t_compile:?}; floor is {PLAN_SPEEDUP_FLOOR}× — the load path is doing \
         compiler work"
    );
    assert!(
        engine_speedup >= ENGINE_SPEEDUP_FLOOR,
        "engine load {t_load:?} is only {engine_speedup:.1}× faster than a build \
         {t_compile:?}; floor is {ENGINE_SPEEDUP_FLOOR}×"
    );
}

#[test]
fn wal_recovery_beats_cold_rebuild() {
    /// Recovery (plan + snapshot load + 64-batch replay) must not cost
    /// more than this fraction of a cold compile — above 1.0 the WAL
    /// restart path would be slower than throwing the state away.
    const REBUILD_FRACTION: f64 = 1.0;
    /// Absolute ceiling so a slow baseline can't mask a quadratic
    /// replay loop; the measured recovery is ≈ 4.3 s on the 2-vCPU VM
    /// (≈ 1.4 s of it the plan + snapshot load) against a ≈ 6.8 s
    /// rebuild.
    const ABSOLUTE_CEILING: Duration = Duration::from_secs(10);

    let n = 16_000;
    let (a, phi, e) = e9_workload(n);
    let a = Arc::new(a);
    let opts = CompileOptions::default();
    let edges: Vec<Vec<u32>> = a
        .relation(e)
        .iter()
        .map(|t| t.as_slice().to_vec())
        .collect();

    let mut live = Engine::build_dynamic(&a, &phi, &opts).expect("build");
    let (plan, snap, wal) = scratch("walrec");
    save_engine(&live, &plan, &snap).expect("save");
    attach_file_wal(&mut live, &wal).expect("attach wal");

    // 64 batches of 16 deterministic edge flips through the WAL.
    let mut present = vec![true; edges.len()];
    let mut s = 0x9e3779b97f4a7c15u64;
    for _ in 0..64 {
        let batch: Vec<TupleUpdate> = (0..16)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let ei = (s % edges.len() as u64) as usize;
                present[ei] = !present[ei];
                TupleUpdate {
                    rel: e,
                    tuple: edges[ei].clone(),
                    present: present[ei],
                }
            })
            .collect();
        live.apply_batch(&batch).expect("batch");
    }
    live.detach_wal();

    // The cold-rebuild baseline recovery has to beat.
    let t = Instant::now();
    let _cold = Engine::build_dynamic(&a, &phi, &opts).expect("rebuild");
    let t_rebuild = t.elapsed();

    let t = Instant::now();
    let (rec, report) =
        recover_engine::<F64, SegTreePerm<F64>>(&plan, &snap, &wal).expect("recover");
    let t_recover = t.elapsed();

    assert_eq!(report.batches_committed, 64);
    assert_eq!(report.batches_replayed, 64);
    assert!(!report.torn_tail && !report.corrupt_tail);
    assert_eq!(
        rec.count(),
        live.count(),
        "recovery reproduces the live state"
    );
    assert_eq!(rec.last_lsn(), live.last_lsn());

    assert!(
        t_recover < ABSOLUTE_CEILING,
        "64-batch recovery took {t_recover:?}; ceiling {ABSOLUTE_CEILING:?}"
    );
    let fraction = t_recover.as_secs_f64() / t_rebuild.as_secs_f64();
    eprintln!("wal_recovery_beats_cold_rebuild: rebuild {t_rebuild:?}, recover {t_recover:?}");
    assert!(
        fraction < REBUILD_FRACTION,
        "recovery {t_recover:?} is {:.0}% of a cold rebuild ({t_rebuild:?}); \
         past {:.0}% the restart path is slower than recompiling",
        fraction * 100.0,
        REBUILD_FRACTION * 100.0
    );
}
