//! Per-layer probes of the traced run.
//!
//! Each layer is measured from outside, by a span around a call into one
//! of its public functions, on the workload's own inputs. Probes mutate
//! only sibling states instantiated over the engine's shared plans, so
//! the engine the phases run on is untouched. [`derive`] turns the span
//! file into the per-layer metrics of `BENCHMARK.json`.

use crate::gen::{forest64, Shadow, World};
use crate::phases::{query_tuple, Ctx, Flipper, MixedPhase, Side, BATCH};
use crate::report::{Value, PER_LAYER};
use crate::rng::SplitMix64;
use crate::stats::{loglog_slope, median, quantile_sorted};
use crate::target::{Files, Flat, FlatEngine, Sharded, Target};
use crate::trace::Recorder;
use agq_circuit::{eval_gates, DynEvaluator, PeekScratch};
use agq_core::{coalesce_updates, QueryEngine, SlotKey, TupleUpdate};
use agq_enumerate::{EnumMachine, InputVal};
use agq_logic::{normalize, parse_formula, Expr};
use agq_perm::{ColMatrix, FinitePerm, RingPerm, SegTreePerm};
use agq_persist::PersistValue;
use agq_semiring::{Bool, Int, MinPlus, Nat, Semiring, F64};
use agq_structure::gaifman::GaifmanComponents;
use agq_structure::{Elem, Tuple, WeightedStructure};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Numbers that are not a span duration: counts, ratios, fitted slopes.
pub type Direct = BTreeMap<&'static str, f64>;

const PROBE_BATCHES: usize = 32;
const PROBE_QUERIES: usize = 2048;
const PERM_COLS: usize = 4096;
const PERM_ROWS: usize = 3;
const SUM_SLICE_LEN: usize = 1 << 16;
/// `next()` calls timed one by one for the cursor-delay percentiles.
const DELAY_SAMPLES: usize = 20_000;
/// Side world for the shard probes of workloads that are not sharded.
const SHARD_PROBE_N: usize = 4096;

/// Probes of the logic, structure, core, circuit and enumerate layers on
/// a pristine flat dynamic engine over `ctx.world`.
pub fn flat_probes<S: Semiring + PersistValue>(
    ctx: &mut Ctx,
    direct: &mut Direct,
    eng: &FlatEngine<S>,
) {
    let w = ctx.world;
    let (rec, tally) = (&mut ctx.rec, &mut ctx.tally);
    rec.begin_op("layer probes: flat engine halves");
    let (qe, index) = (eng.query_engine(), eng.answer_index());
    let (compiled, eval, plan) = (qe.compiled(), qe.evaluator(), qe.plan().clone());

    for _ in 0..64 {
        rec.time("logic.parse", 1, || {
            black_box(parse_formula(w.query.source(), w.a.signature()).is_ok())
        });
    }
    let expr: Expr<S> = Expr::Bracket(w.formula());
    for _ in 0..64 {
        rec.time("logic.normalize", 1, || black_box(normalize(&expr).is_ok()));
    }
    for _ in 0..3 {
        rec.time("structure.components", 1, || {
            black_box(GaifmanComponents::new(&w.a, crate::target::SHARDS).num_shards())
        });
    }

    // one presence-tracked script for every sibling: uniform batches,
    // then hot-key batches, then uniform again
    let mut shadow = Shadow::new(w);
    let all: Vec<u32> = (0..w.tuples.len() as u32).collect();
    let mut flips = Flipper::new(SplitMix64::stream(ctx.seed, "probe-flips"), all);
    let mut script = |churn| -> Vec<Vec<TupleUpdate>> {
        (0..PROBE_BATCHES)
            .map(|_| flips.batch(&mut shadow, BATCH, churn))
            .collect()
    };
    let (uniform, churn, uniform2) = (script(false), script(true), script(false));

    for (name, kept_name, batches) in [
        (
            "core.coalesce.uniform",
            "core.coalesce.uniform.kept",
            &uniform,
        ),
        ("core.coalesce.churn", "core.coalesce.churn.kept", &churn),
    ] {
        for b in batches {
            let mut out = Vec::with_capacity(b.len());
            rec.time(name, b.len() as u64, || coalesce_updates(b, &mut out));
            rec.add(kept_name, out.len() as u64);
        }
    }

    // core: point query through the engine, batch apply on a sibling
    let mut rng = SplitMix64::stream(ctx.seed, "probe-queries");
    let m = w.tuples.len();
    let tuples: Vec<Vec<Elem>> = (0..PROBE_QUERIES)
        .map(|_| query_tuple(w, &mut rng, |r| r.below(m)))
        .collect();
    let mut scratch = PeekScratch::new();
    let mut patches = Vec::new();
    for _ in 0..3 {
        rec.time("core.point_query", tuples.len() as u64, || {
            for t in &tuples {
                black_box(qe.query_with(t, &mut scratch, &mut patches));
            }
        });
    }
    let weights = WeightedStructure::<S>::new(w.a.clone());
    let mut sib_qe: QueryEngine<S, SegTreePerm<S>> =
        QueryEngine::from_parts(qe.compiled_arc().clone(), plan.clone(), &weights);
    for b in &uniform {
        let mut refs = Vec::with_capacity(b.len());
        coalesce_updates(b, &mut refs);
        rec.time("core.point_apply", b.len() as u64, || {
            sib_qe.apply_batch_coalesced(&refs)
        });
    }
    drop(sib_qe);

    // circuit: state init, full sweep, memoized peek, input commit
    let mut sib_eval: DynEvaluator<S, SegTreePerm<S>> = rec.time("circuit.state_init", 1, || {
        DynEvaluator::from_plan(plan.clone(), eval.slot_values(), &compiled.lits)
    });
    let gates = compiled.circuit.len() as u64;
    for _ in 0..3 {
        rec.time("circuit.eval_gates", gates, || {
            black_box(eval_gates(&compiled.circuit, eval.slot_values(), &compiled.lits).len())
        });
    }
    direct.insert(
        "circuit.dense_run_coverage",
        plan.dense_run_stats().coverage(),
    );
    let resolved: Vec<Vec<(u32, S)>> = tuples
        .iter()
        .filter_map(|t| {
            t.iter()
                .enumerate()
                .map(|(i, &a)| {
                    let slot = compiled.slots.lookup(&SlotKey::FreeVar(i as u8, a))?;
                    Some((slot, S::one()))
                })
                .collect()
        })
        .collect();
    for _ in 0..3 {
        rec.time("circuit.peek_memo", resolved.len() as u64, || {
            for p in &resolved {
                black_box(eval.peek_memo(p, &mut scratch));
            }
        });
    }
    for b in &uniform {
        let mut commits = Vec::with_capacity(2 * b.len());
        for u in b {
            let t = Tuple::new(&u.tuple);
            let (on, off) = if u.present {
                (S::one(), S::zero())
            } else {
                (S::zero(), S::one())
            };
            if let Some(s) = compiled.slots.lookup(&SlotKey::AtomPos(u.rel, t)) {
                commits.push((s, on));
            }
            if let Some(s) = compiled.slots.lookup(&SlotKey::AtomNeg(u.rel, t)) {
                commits.push((s, off));
            }
        }
        rec.time("circuit.set_inputs", b.len() as u64, || {
            sib_eval.set_inputs(&commits)
        });
    }
    drop(sib_eval);

    // enumerate: machine init, count build, seeks and cursor on a
    // pristine sibling; batch apply, rank flush, first answer on another
    let machine = index.machine();
    let inputs: Vec<InputVal> = (0..machine.circuit().num_slots() as u32)
        .map(|s| machine.input(s).clone())
        .collect();
    rec.time("enumerate.machine_init", 1, || {
        black_box(EnumMachine::from_plan(machine.plan().clone(), inputs).output_supported())
    });
    let comps = GaifmanComponents::new(&w.a, crate::target::SHARDS);
    rec.time("enumerate.shard_filtered", 1, || {
        black_box(index.shard_filtered(|e| comps.shard_of(e) == 0).arity())
    });
    let sib = index.shard_filtered(|_| true);
    let count = rec.time("enumerate.count_build", 1, || sib.count());
    if count > 0 {
        let ks: Vec<u64> = (0..PROBE_QUERIES)
            .map(|_| rng.below(count as usize) as u64)
            .collect();
        for &k in &ks {
            rec.time("enumerate.seek", 1, || black_box(sib.answer(k).is_some()));
        }
        let visits: u64 = ks.iter().take(256).map(|&k| sib.answer_counting(k).1).sum();
        rec.add("enumerate.seek.visits", visits);
        rec.add("enumerate.seek.visits.seeks", ks.len().min(256) as u64);
        let mut it = sib.iter();
        for _ in 0..DELAY_SAMPLES.min(count as usize) {
            rec.time("enumerate.cursor.next", 1, || {
                black_box(it.next().is_some())
            });
        }
    }
    drop(sib);
    let mut sib = index.shard_filtered(|_| true);
    for b in &uniform {
        let mut refs = Vec::with_capacity(b.len());
        coalesce_updates(b, &mut refs);
        let r = rec.time("enumerate.index_apply", b.len() as u64, || {
            sib.apply_batch_coalesced(&refs)
        });
        tally.ops(1);
        tally.check(r.is_ok(), || {
            format!("probe batch on a sibling index: {r:?}")
        });
    }
    let mut apply = |sib: &mut agq_enumerate::AnswerIndex, b: &Vec<TupleUpdate>| {
        let r = sib.apply_batch(b);
        tally.ops(1);
        tally.check(r.is_ok(), || {
            format!("probe batch on a sibling index: {r:?}")
        });
    };
    for b in &churn {
        apply(&mut sib, b);
    }
    black_box(sib.count());
    for b in &uniform2 {
        apply(&mut sib, b);
        rec.time("enumerate.rank_flush", 1, || black_box(sib.count()));
        rec.time("enumerate.first_answer", 1, || {
            black_box(sib.iter().next().is_some())
        });
    }
}

fn random_matrix<S: Semiring>(rng: &mut SplitMix64, val: impl Fn(u64) -> S) -> ColMatrix<S> {
    let mut m = ColMatrix::with_capacity(PERM_ROWS, PERM_COLS);
    for _ in 0..PERM_COLS {
        let col: Vec<S> = (0..PERM_ROWS).map(|_| val(rng.next_u64() % 8)).collect();
        m.push_col(&col);
    }
    m
}

/// Probes of the perm and semiring layers on synthetic inputs (3 × 4096
/// matrices, 64 K-element slices) made from the seed.
pub fn micro_probes(rec: &mut Recorder, seed: u64) {
    rec.begin_op("layer probes: perm and semiring kernels");
    let mut rng = SplitMix64::stream(seed, "probe-perm");
    let cells: Vec<(usize, usize, u64)> = (0..PERM_COLS)
        .map(|_| {
            (
                rng.below(PERM_ROWS),
                rng.below(PERM_COLS),
                rng.next_u64() % 8,
            )
        })
        .collect();

    let m = random_matrix(&mut rng, Nat);
    let mut seg = rec.time("perm.segtree.build", PERM_COLS as u64, || {
        SegTreePerm::build(m)
    });
    rec.time("perm.segtree.update", cells.len() as u64, || {
        for &(r, c, v) in &cells {
            seg.update(r, c, Nat(v));
        }
    });
    let patches: Vec<(usize, usize, Nat)> =
        cells.iter().map(|&(r, c, v)| (r, c, Nat(v + 1))).collect();
    rec.time("perm.segtree.update_batch", patches.len() as u64, || {
        for chunk in patches.chunks(8) {
            seg.update_batch(chunk);
        }
    });
    rec.time("perm.segtree.peek", patches.len() as u64, || {
        for p in &patches {
            black_box(seg.peek(std::slice::from_ref(p)));
        }
    });

    let mut ring = RingPerm::build(random_matrix(&mut rng, |v| Int(v as i64)));
    rec.time("perm.ring.update", cells.len() as u64, || {
        for &(r, c, v) in &cells {
            ring.update(r, c, Int(v as i64));
        }
    });
    let mut fin = FinitePerm::build(random_matrix(&mut rng, |v| Bool(v % 2 == 0)));
    rec.time("perm.finite.update", cells.len() as u64, || {
        for &(r, c, v) in &cells {
            fin.update(r, c, Bool(v % 2 == 1));
        }
    });

    let nat: Vec<Nat> = (0..SUM_SLICE_LEN)
        .map(|_| Nat(rng.next_u64() % 1024))
        .collect();
    let f64s: Vec<F64> = nat.iter().map(|n| F64(n.0 as f64)).collect();
    let minplus: Vec<MinPlus> = nat.iter().map(|n| MinPlus(n.0)).collect();
    for _ in 0..16 {
        rec.time("semiring.sum_slice.nat", SUM_SLICE_LEN as u64, || {
            black_box(Nat::sum_slice(&nat))
        });
        rec.time("semiring.sum_slice.f64", SUM_SLICE_LEN as u64, || {
            black_box(F64::sum_slice(&f64s))
        });
        rec.time("semiring.sum_slice.minplus", SUM_SLICE_LEN as u64, || {
            black_box(MinPlus::sum_slice(&minplus))
        });
    }
}

/// Probes of the sharded serving path: a sharded and a flat engine over
/// the same `marked_edge` world run the same scripts, so the difference
/// is routing, locking and fan-out. `own` is the workload's world when
/// it is itself sharded; other workloads use a small side world.
pub fn shard_probes(ctx: &mut Ctx, direct: &mut Direct, own: Option<&World>) -> Result<(), String> {
    let side_world;
    let w = match own {
        Some(w) => w,
        None => {
            side_world = forest64(SHARD_PROBE_N, ctx.seed);
            &side_world
        }
    };
    ctx.rec.begin_op(format!(
        "layer probes: sharded vs flat on forest64({})",
        w.n
    ));
    let phi = w.formula();
    let sharded = Sharded::build(&w.a, &phi, true)?;
    let mut flat = Flat::<Nat>::build(&w.a, &phi, true)?;
    let mut shadow = Shadow::new(w);
    let all: Vec<u32> = (0..w.tuples.len() as u32).collect();
    let seed = ctx.seed;
    let rng = |p: &str| SplitMix64::stream(seed, p);
    let (rec, tally) = (&mut ctx.rec, &mut ctx.tally);
    let mut expect_ok = |what: &str, ok: bool, ops: u64| {
        tally.ops(ops);
        tally.check(ok, || format!("shard probe: {what} rejected an update"));
    };

    let singles = Flipper::new(rng("shard-single"), all.clone()).batch(&mut shadow, 4096, false);
    let ok = rec.time(
        "enumerate.sharded.single_update",
        singles.len() as u64,
        || singles.iter().all(|u| sharded.eng.apply_update(u).is_ok()),
    );
    expect_ok("sharded apply_update", ok, singles.len() as u64);
    let ok = rec.time("enumerate.flat.single_update", singles.len() as u64, || {
        singles.iter().all(|u| flat.apply_update(u).is_ok())
    });
    expect_ok("flat apply_update", ok, singles.len() as u64);
    drop(flat);

    let owner = |id: &u32| sharded.eng.owning_shard(&w.tuples[*id as usize]);
    let shard0: Vec<u32> = all
        .iter()
        .copied()
        .filter(|i| owner(i) == Some(0))
        .collect();
    if shard0.is_empty() || shard0.len() == all.len() {
        return Err("shard probe world does not split over two shards".into());
    }
    let mut one = Flipper::new(rng("shard-one"), shard0);
    let mut two = Flipper::new(rng("shard-two"), all);
    for _ in 0..64 {
        let b = one.batch(&mut shadow, BATCH, false);
        let ok = rec.time("enumerate.sharded.batch_one_shard", 1, || {
            sharded.eng.apply_batch(&b).is_ok()
        });
        expect_ok("one-shard apply_batch", ok, 1);
        let b = two.batch(&mut shadow, BATCH, false);
        let ok = rec.time("enumerate.sharded.batch_two_shard", 1, || {
            sharded.eng.apply_batch(&b).is_ok()
        });
        expect_ok("two-shard apply_batch", ok, 1);
    }
    for _ in 0..256 {
        rec.time("enumerate.sharded.snapshot_read", 1, || {
            black_box(sharded.eng.count())
        });
    }

    // reader call latency alone, then beside a writer: the difference is
    // time the reader's work waited
    let mut probe = Ctx {
        world: w,
        tally: Default::default(),
        rec: Recorder::new(false),
        slice: ctx.slice,
        seed,
    };
    let mut side = Side::with_shadow(sharded, shadow);
    let mut mixed = MixedPhase::new(&probe, &side);
    let (mut alone, mut beside) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        alone.push(mixed.reader_alone(&mut probe, &mut side).p99_ns);
        beside.push(mixed.slice(&mut probe, &mut side).reader.p99_ns);
    }
    mixed.finish(&mut probe);
    ctx.tally.absorb(probe.tally);
    direct.insert(
        "enumerate.sharded.reader_wait_p99_us",
        (median(&beside) - median(&alone)) / 1e3,
    );
    Ok(())
}

/// One size of the ladder the slopes are fitted over.
pub struct LadderPoint {
    pub n: usize,
    pub build_op: u32,
    /// Gates of the point-query circuit at this size.
    pub gates: f64,
    pub load_plan_ns: f64,
    pub read_snapshot_ns: f64,
}

/// Save the engine, then time `load_plan` and `read_snapshot` (on the
/// file body, framing stripped) — the two decoders whose growth with `n`
/// decides recovery time.
pub fn decode_probes<T: Target>(
    rec: &mut Recorder,
    eng: &T,
    files: &Files,
) -> Result<(f64, f64), String> {
    eng.save(files)?;
    let mut plan_ns = Vec::new();
    let mut snap_ns = Vec::new();
    for _ in 0..3 {
        let t = std::time::Instant::now();
        rec.time("persist.load_plan", 1, || {
            agq_persist::load_plan::<T::Carrier>(&files.plan).map(drop)
        })
        .map_err(|e| e.to_string())?;
        plan_ns.push(t.elapsed().as_nanos() as f64);
        let buf = std::fs::read(&files.snap).map_err(|e| e.to_string())?;
        if buf.len() < 13 {
            return Err("snapshot shorter than its framing".into());
        }
        let body = &buf[9..buf.len() - 4];
        let t = std::time::Instant::now();
        rec.time("persist.read_snapshot", 1, || {
            agq_persist::snapshot::read_snapshot::<T::Carrier>(body).map(drop)
        })
        .map_err(|e| e.to_string())?;
        snap_ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok((median(&plan_ns), median(&snap_ns)))
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn median_ns(rec: &Recorder, name: &str) -> f64 {
    let d = rec.durations(name);
    if d.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&d, 0.5) as f64
}

/// Every per-layer metric of `BENCHMARK.json`, from the spans, the
/// counters and the direct values of one traced run.
///
/// Build-side metrics are read at the primary size `ladder[0]`; the
/// persist-side times at `persisted_n`, the size that was saved and
/// recovered (4n on `cold_start`, n elsewhere).
pub fn derive(
    rec: &Recorder,
    direct: &Direct,
    ladder: &[LadderPoint],
    persisted_n: usize,
) -> Vec<Value> {
    let first = ladder.first().expect("ladder has the primary size");
    let saved = ladder
        .iter()
        .find(|p| p.n == persisted_n)
        .expect("the persisted size is on the ladder");
    let primary = first.build_op;
    let at = |name: &str| rec.op_ns(name, primary) as f64;
    let slope = |f: &dyn Fn(&LadderPoint) -> f64| {
        let pts: Vec<(f64, f64)> = ladder.iter().map(|p| (p.n as f64, f(p))).collect();
        loglog_slope(&pts)
    };
    let compile = at("core.compile");
    let gates = first.gates;
    let load_engine = median_ns(rec, "persist.load_engine");
    let (load_plan, read_snap) = (saved.load_plan_ns, saved.read_snapshot_ns);
    let recover = median_ns(rec, "op.recover.engine_only");
    let journaled = rec.ns_per_op("op.journaled_batch");
    let plain = rec.ns_per_op("op.plain_batch16");
    let seek = rec.durations("enumerate.seek");
    let delay = rec.durations("enumerate.cursor.next");
    let pct = |d: &[u64], q: f64| {
        if d.is_empty() {
            f64::NAN
        } else {
            quantile_sorted(d, q) as f64
        }
    };
    PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "logic.parse_us" => median_ns(rec, "logic.parse") / 1e3,
                "logic.normalize_us" => median_ns(rec, "logic.normalize") / 1e3,
                "structure.gaifman_graph_ms" => ms(at("structure.gaifman_graph")),
                "structure.components_ms" => ms(median_ns(rec, "structure.components")),
                "graph.ltd_coloring_ms" => ms(at("graph.ltd_coloring")),
                "core.qe_ms" => ms(at("core.qe")),
                "core.compile_ms" => ms(compile),
                "core.compile_self_ms" => {
                    ms(compile - at("structure.gaifman_graph") - at("graph.ltd_coloring"))
                }
                "core.compile_ns_per_gate" => compile / gates,
                "core.compile_gates" => gates,
                "persist.bytes_per_gate" => {
                    (direct["persist.plan_bytes"] + direct["persist.snapshot_bytes"]) / saved.gates
                }
                "core.compile_slope" => slope(&|p| rec.op_ns("core.compile", p.build_op) as f64),
                "core.coalesce_ns_per_update" => {
                    (rec.total_ns("core.coalesce.uniform") + rec.total_ns("core.coalesce.churn"))
                        as f64
                        / (rec.total_ops("core.coalesce.uniform")
                            + rec.total_ops("core.coalesce.churn")) as f64
                }
                "core.coalesce_keep_ratio" => {
                    rec.counter("core.coalesce.churn.kept") as f64
                        / rec.total_ops("core.coalesce.churn") as f64
                }
                "core.point_query_us" => rec.ns_per_op("core.point_query") / 1e3,
                "core.point_apply_ns_per_update" => rec.ns_per_op("core.point_apply"),
                "circuit.plan_build_ms" => ms(at("circuit.plan_build")),
                "circuit.state_init_ms" => ms(median_ns(rec, "circuit.state_init")),
                "circuit.eval_gates_ns_per_gate" => rec.ns_per_op("circuit.eval_gates"),
                "circuit.peek_memo_us" => rec.ns_per_op("circuit.peek_memo") / 1e3,
                "circuit.set_inputs_ns_per_update" => rec.ns_per_op("circuit.set_inputs"),
                "perm.segtree.update_ns" => rec.ns_per_op("perm.segtree.update"),
                "perm.segtree.update_batch_ns" => rec.ns_per_op("perm.segtree.update_batch"),
                "perm.segtree.peek_ns" => rec.ns_per_op("perm.segtree.peek"),
                "perm.segtree.build_ns_per_col" => rec.ns_per_op("perm.segtree.build"),
                "perm.ring.update_ns" => rec.ns_per_op("perm.ring.update"),
                "perm.finite.update_ns" => rec.ns_per_op("perm.finite.update"),
                "semiring.sum_slice_ns_per_elem.nat" => rec.ns_per_op("semiring.sum_slice.nat"),
                "semiring.sum_slice_ns_per_elem.f64" => rec.ns_per_op("semiring.sum_slice.f64"),
                "semiring.sum_slice_ns_per_elem.minplus" => {
                    rec.ns_per_op("semiring.sum_slice.minplus")
                }
                "enumerate.index_build_ms" => ms(at("enumerate.index_build")),
                "enumerate.index_build_slope" => {
                    slope(&|p| rec.op_ns("enumerate.index_build", p.build_op) as f64)
                }
                "enumerate.machine_init_ms" => ms(median_ns(rec, "enumerate.machine_init")),
                "enumerate.count_build_ms" => ms(median_ns(rec, "enumerate.count_build")),
                "enumerate.index_apply_ns_per_update" => rec.ns_per_op("enumerate.index_apply"),
                "enumerate.rank_flush_us" => median_ns(rec, "enumerate.rank_flush") / 1e3,
                "enumerate.seek_gate_visits" => {
                    rec.counter("enumerate.seek.visits") as f64
                        / rec.counter("enumerate.seek.visits.seeks").max(1) as f64
                }
                "enumerate.seek_p50_ns" => pct(&seek, 0.5),
                "enumerate.seek_p99_ns" => pct(&seek, 0.99),
                "enumerate.cursor.delay_p50_ns" => pct(&delay, 0.5),
                "enumerate.cursor.delay_p99_ns" => pct(&delay, 0.99),
                "enumerate.cursor.delay_max_ns" => pct(&delay, 1.0),
                "enumerate.first_answer_us" => median_ns(rec, "enumerate.first_answer") / 1e3,
                "enumerate.shard_filtered_ms" => ms(median_ns(rec, "enumerate.shard_filtered")),
                "enumerate.sharded.single_update_ns" => {
                    rec.ns_per_op("enumerate.sharded.single_update")
                }
                "enumerate.flat.single_update_ns" => rec.ns_per_op("enumerate.flat.single_update"),
                "enumerate.sharded.batch_one_shard_us" => {
                    median_ns(rec, "enumerate.sharded.batch_one_shard") / 1e3
                }
                "enumerate.sharded.batch_two_shard_us" => {
                    median_ns(rec, "enumerate.sharded.batch_two_shard") / 1e3
                }
                "enumerate.sharded.snapshot_read_us" => {
                    median_ns(rec, "enumerate.sharded.snapshot_read") / 1e3
                }
                "persist.save_plan_ms" => ms(median_ns(rec, "persist.save_plan")),
                "persist.save_snapshot_ms" => ms(median_ns(rec, "persist.save_snapshot")),
                "persist.load_plan_ms" => ms(load_plan),
                "persist.load_plan_slope" => slope(&|p| p.load_plan_ns),
                "persist.read_snapshot_ms" => ms(read_snap),
                "persist.read_snapshot_slope" => slope(&|p| p.read_snapshot_ns),
                "persist.restore_state_ms" => ms(load_engine - load_plan - read_snap),
                "persist.scan_wal_ms" => ms(median_ns(rec, "persist.scan_wal")),
                "persist.replay_ups" => {
                    let updates = (crate::phases::WAL_BATCHES * crate::phases::WAL_BATCH) as f64;
                    updates / ((recover - load_engine).max(1.0) / 1e9)
                }
                "persist.wal_append_us" => {
                    (journaled - plain) * crate::phases::WAL_BATCH as f64 / 1e3
                }
                name => *direct
                    .get(name)
                    .unwrap_or_else(|| panic!("no source for per-layer metric {name}")),
            };
            Value {
                name: def.name,
                value,
                spread: None,
            }
        })
        .collect()
}
