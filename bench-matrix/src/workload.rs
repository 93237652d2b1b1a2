//! The four workloads and the schedule every one of them runs.
//!
//! A workload is a configuration — graph family, query, size, carrier,
//! engine — and every workload reports every end-to-end metric, so each
//! (workload, metric) cell has a parent value a later change can be held
//! to. The schedule is the same everywhere:
//!
//! 1. set-up (five times, median),
//! 2. save, journal, crash, recover — the run continues on a recovered
//!    engine,
//! 3. write phases without rank tables: `apply_update`, `apply_batch`
//!    uniform, `apply_batch` hot-key — interleaved slice by slice,
//! 4. `answer(0)` materialises the rank tables; batch + `count()` +
//!    `answer(k)`,
//! 5. read phases over the state the writes left: point queries, rank
//!    seeks, full enumeration — interleaved slice by slice,
//! 6. readers beside writers.
//!
//! Interleaving means a noisy interval of the machine hits every phase
//! of a group alike.

use crate::gen::{forest64, reg4, World};
use crate::layers::{self, Direct, LadderPoint};
use crate::phases::{
    enum_slice, pack, persist_stage, unpack, verify_stream, Ctx, MixedPhase, QueryPhase, SeekPhase,
    Side, Slice, Tally, WriteKind, WritePhase,
};
use crate::report::{RunReport, Stamp, Value, END_TO_END};
use crate::stats::{fastest_tenth, lowest_tenth, median, spread};
use crate::target::{Files, Flat, Sharded, Target};
use crate::trace::Recorder;
use agq_semiring::{Nat, F64};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Reg4,
    Forest64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    FlatF64,
    FlatNat,
    ShardedNat,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub name: &'static str,
    pub family: Family,
    /// Primary size; the ladder is `n, 2n, 4n`.
    pub n: usize,
    pub engine: Engine,
    /// Reads run on a static `build`; writes on a `build_dynamic` twin.
    pub static_reads: bool,
    /// Set-up also builds 2n and 4n from scratch, and it is the 4n engine
    /// that is saved, crashed and recovered.
    pub cold: bool,
    /// Time in engine calls per slice.
    pub slice: Duration,
}

pub fn config(name: &str) -> Option<Config> {
    let c = match name {
        "read_static" => Config {
            name: "read_static",
            family: Family::Reg4,
            n: 1000,
            engine: Engine::FlatF64,
            static_reads: true,
            cold: false,
            slice: SLICE,
        },
        "ingest_flat" => Config {
            name: "ingest_flat",
            family: Family::Reg4,
            n: 1000,
            engine: Engine::FlatNat,
            static_reads: false,
            cold: false,
            slice: SLICE,
        },
        "sharded_rw" => Config {
            name: "sharded_rw",
            family: Family::Forest64,
            n: 4096,
            engine: Engine::ShardedNat,
            static_reads: false,
            cold: false,
            slice: SLICE,
        },
        "cold_start" => Config {
            name: "cold_start",
            family: Family::Reg4,
            n: 1000,
            engine: Engine::FlatF64,
            static_reads: false,
            cold: true,
            slice: SLICE,
        },
        _ => return None,
    };
    Some(c)
}

impl Config {
    fn world(&self, n: usize, seed: u64) -> World {
        match self.family {
            Family::Reg4 => reg4(n, seed),
            Family::Forest64 => forest64(n, seed),
        }
    }

    fn ladder(&self) -> [usize; 3] {
        [self.n, 2 * self.n, 4 * self.n]
    }
}

/// Timed phases sharing `--seconds`.
const PHASES: usize = 8;
pub const SLICE: Duration = Duration::from_millis(100);
const MIN_SLICES: usize = 3;
const SETUP_REPS: usize = 5;
const RECOVER_REPS: usize = 7;

pub fn run(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<RunReport, String> {
    match cfg.engine {
        Engine::FlatF64 => run_on::<Flat<F64>>(cfg, seed, seconds, trace, out_dir),
        Engine::FlatNat => run_on::<Flat<Nat>>(cfg, seed, seconds, trace, out_dir),
        Engine::ShardedNat => run_on::<Sharded>(cfg, seed, seconds, trace, out_dir),
    }
}

/// One set-up: from generated inputs in memory to an engine that has
/// served its first operations.
fn setup_once<T: Target>(
    rec: &mut Recorder,
    tally: &mut Tally,
    w: &World,
    dynamic: bool,
    with_count: bool,
) -> Result<(T, f64, Option<agq_core::CompileReport>), String> {
    let t = Instant::now();
    let phi = rec.time("logic.parse", 1, || w.formula());
    let (mut eng, report) = if rec.on() {
        let (e, r) = T::build_traced(&w.a, &phi, dynamic, rec)?;
        (e, Some(r))
    } else {
        (T::build(&w.a, &phi, dynamic)?, None)
    };
    let first = eng.first_answer();
    let probe = first.clone().unwrap_or_else(|| vec![0; w.query.arity()]);
    let mut out = Vec::new();
    eng.query_group(&[&probe], &mut out);
    let count = with_count.then(|| eng.count());
    let secs = t.elapsed().as_secs_f64();
    tally.ops(2 + u64::from(with_count));
    tally.check(first.is_some() && out == [true], || {
        format!("first answer {first:?} is not confirmed by a point query")
    });
    if let Some(c) = count {
        let closed = crate::gen::Shadow::new(w).count();
        tally.check(c == closed, || {
            format!("count() after build = {c}, closed form {closed}")
        });
    }
    Ok((eng, secs, report))
}

fn rate_value(name: &'static str, slices: &[Slice]) -> Value {
    let r: Vec<f64> = slices.iter().map(Slice::rate).collect();
    Value {
        name,
        value: fastest_tenth(&r),
        spread: Some(spread(&r)),
    }
}

fn p99_value(name: &'static str, slices: &[&[Slice]]) -> Value {
    let p: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.calls > 0)
        .map(|s| s.p99_ns / 1e3)
        .collect();
    Value {
        name,
        value: lowest_tenth(&p),
        spread: Some(spread(&p)),
    }
}

/// Start this run's high-water mark from the current resident size
/// (`--selfcheck` runs several workloads in one process).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `1 − traced/untraced` of the fastest-tenth rates, where even slices
/// were recorded and odd slices were not.
fn overhead(slices: &[Slice]) -> Option<f64> {
    let on: Vec<f64> = slices.iter().step_by(2).map(Slice::rate).collect();
    let off: Vec<f64> = slices.iter().skip(1).step_by(2).map(Slice::rate).collect();
    (!on.is_empty() && !off.is_empty()).then(|| 1.0 - fastest_tenth(&on) / fastest_tenth(&off))
}

fn run_on<T: Target>(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<RunReport, String> {
    reset_peak_rss();
    let tmp = out_dir.join(format!("tmp.{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let files = Files::in_dir(&tmp, cfg.name);
    let result = run_in::<T>(cfg, seed, seconds, trace, out_dir, &files);
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

fn run_in<T: Target>(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    files: &Files,
) -> Result<RunReport, String> {
    let n_slices =
        ((seconds / PHASES as f64 / cfg.slice.as_secs_f64()).round() as usize).max(MIN_SLICES);
    // the primary size and, where the run climbs the ladder, 2n and 4n
    let climb = cfg.cold || trace;
    let worlds: Vec<World> = cfg.ladder()[..if climb { 3 } else { 1 }]
        .iter()
        .map(|&n| cfg.world(n, seed))
        .collect();
    let world = &worlds[0];
    let mut ctx = Ctx {
        world,
        tally: Tally::default(),
        rec: Recorder::new(trace),
        slice: cfg.slice,
        seed,
    };
    let mut direct = Direct::new();
    let dynamic = !cfg.static_reads;
    // a read-only side pays its one-time count build at set-up; a side
    // that takes writes must not, or its first write phases would run
    // with rank tables live
    let with_count = cfg.static_reads;

    // ---- set-up ------------------------------------------------------
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::with_capacity(reps);
    let mut primary = None;
    for _ in 0..reps {
        drop(primary.take());
        let build_op = ctx.rec.begin_op(format!("build n={}", cfg.n));
        let (eng, secs, report) =
            setup_once::<T>(&mut ctx.rec, &mut ctx.tally, world, dynamic, with_count)?;
        setup_secs.push(secs);
        primary = Some((eng, build_op, report));
    }
    let (eng, build_op, report) = primary.expect("at least one set-up");
    let mut sides = vec![Side::new(eng, world)];
    let mut ladder: Vec<LadderPoint> = Vec::new();
    if trace {
        let (load_plan_ns, read_snapshot_ns) =
            layers::decode_probes(&mut ctx.rec, &sides[0].eng, files)?;
        let r = report.expect("traced build reports");
        ladder.push(LadderPoint {
            n: cfg.n,
            build_op,
            gates: r.stats.num_gates as f64,
            load_plan_ns,
            read_snapshot_ns,
        });
        direct.insert("graph.ltd_colors", f64::from(r.num_colors));
        direct.insert("core.compile_edges", r.stats.num_edges as f64);
        direct.insert("core.compile_shapes", r.shapes_instantiated as f64);
        direct.insert("core.compile_subsets", r.num_subsets as f64);
        same_as_one_call_build(&mut ctx, &sides[0].eng, dynamic)?;
    }
    if cfg.static_reads {
        ctx.rec.begin_op(format!("build dynamic twin n={}", cfg.n));
        let (twin, _, _) = setup_once::<T>(&mut ctx.rec, &mut ctx.tally, world, true, false)?;
        sides.push(Side::new(twin, world));
    }
    let (ri, wi) = (0, sides.len() - 1);

    // ---- the ladder: 2n and 4n from scratch ----------------------------
    // `cold_start` pays for these builds in `setup_s` and saves, crashes
    // and recovers the largest engine; a traced run fits its slopes here.
    let mut setup_extra = 0.0;
    let mut persisted = None;
    for w in &worlds[1..] {
        ctx.world = w;
        let build_op = ctx.rec.begin_op(format!("build n={}", w.n));
        let (eng, secs, report) =
            setup_once::<T>(&mut ctx.rec, &mut ctx.tally, w, dynamic, with_count)?;
        if cfg.cold {
            setup_extra += secs;
        }
        if let Some(r) = report {
            let (load_plan_ns, read_snapshot_ns) =
                layers::decode_probes(&mut ctx.rec, &eng, files)?;
            ladder.push(LadderPoint {
                n: w.n,
                build_op,
                gates: r.stats.num_gates as f64,
                load_plan_ns,
                read_snapshot_ns,
            });
        }
        if cfg.cold && w.n == cfg.ladder()[2] {
            ctx.rec.begin_op("persistence");
            let (out, _) = persist_stage(&mut ctx, Side::new(eng, w), files, RECOVER_REPS)?;
            persisted = Some((out, w.n));
        }
    }
    ctx.world = world;

    if trace {
        let phi = world.formula();
        let built;
        let flat = match sides[wi].eng.flat_engine() {
            Some(e) => e,
            None => {
                built = Flat::<T::Carrier>::build(&world.a, &phi, true)?;
                &built.eng
            }
        };
        layers::flat_probes(&mut ctx, &mut direct, flat);
        layers::micro_probes(&mut ctx.rec, seed);
        let own = (T::SHARDS > 1).then_some(world);
        layers::shard_probes(&mut ctx, &mut direct, own)?;
    }

    // ---- save, journal, crash, recover -----------------------------------
    // on the fresh engine, and the run continues on a recovered one
    let (persisted, persisted_n) = match persisted {
        Some(p) => p,
        None => {
            ctx.rec.begin_op("persistence");
            let fresh = sides.pop().expect("write side");
            let (out, shadow) = persist_stage(&mut ctx, fresh, files, RECOVER_REPS)?;
            // recovered, and not yet asked for a count: rank tables unbuilt
            ctx.tally.ops(1);
            sides.push(Side::with_shadow(T::recover(files)?, shadow));
            (out, world.n)
        }
    };

    // ---- write phases, rank tables not live ---------------------------
    let pause = |ctx: &mut Ctx, i: usize| ctx.rec.set_paused(i % 2 == 1);
    ctx.rec.begin_op("write phases");
    let mut single = WritePhase::new(&ctx, WriteKind::Single);
    let mut batch = WritePhase::new(&ctx, WriteKind::Batch);
    let mut churn = WritePhase::new(&ctx, WriteKind::Churn);
    let (mut s_single, mut s_batch, mut s_churn) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n_slices {
        pause(&mut ctx, i);
        s_single.push(single.slice(&mut ctx, &mut sides[wi]));
        s_batch.push(batch.slice(&mut ctx, &mut sides[wi]));
        s_churn.push(churn.slice(&mut ctx, &mut sides[wi]));
    }

    // ---- batch + count + answer(k), rank tables live -------------------
    ctx.rec.begin_op("ranked write phase");
    ctx.tally.ops(1);
    let first = sides[wi].eng.answer(0);
    ctx.tally
        .check(first.is_some(), || "answer(0) found no answer".into());
    let mut ranked = WritePhase::new(&ctx, WriteKind::Ranked);
    let mut s_ranked = Vec::new();
    for i in 0..n_slices {
        pause(&mut ctx, i);
        s_ranked.push(ranked.slice(&mut ctx, &mut sides[wi]));
    }
    ctx.rec.set_paused(false);

    // ---- read phases ----------------------------------------------------
    for side in sides.iter_mut() {
        verify_stream(&mut ctx, side, "before the read phases");
    }
    ctx.rec.begin_op("read phases");
    let mut query = QueryPhase::new(&ctx);
    let mut seek = SeekPhase::new(&ctx);
    let (mut s_query, mut s_seek, mut s_enum) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n_slices {
        pause(&mut ctx, i);
        s_query.push(query.slice(&mut ctx, &mut sides[ri]));
        s_seek.push(seek.slice(&mut ctx, &mut sides[ri]));
        s_enum.push(enum_slice(&mut ctx, &mut sides[ri]));
    }
    ctx.rec.set_paused(false);

    // ---- readers beside writers ------------------------------------------
    ctx.rec.begin_op("mixed phase");
    let clients = if sides[wi].eng.fork().is_some() { 2 } else { 1 };
    let mut mixed = MixedPhase::new(&ctx, &sides[wi]);
    let (mut s_mixed_w, mut s_mixed_r) = (Vec::new(), Vec::new());
    for _ in 0..n_slices {
        let s = mixed.slice(&mut ctx, &mut sides[wi]);
        s_mixed_w.push(s.writer);
        s_mixed_r.push(s.reader);
    }
    mixed.finish(&mut ctx);
    verify_stream(&mut ctx, &mut sides[wi], "after the mixed phase");

    // ---- report -------------------------------------------------------------
    let stamp = Stamp {
        workload: cfg.name.to_owned(),
        seed,
        seconds,
        trace,
        sizes: if cfg.cold || trace {
            cfg.ladder().to_vec()
        } else {
            vec![cfg.n]
        },
        query: world.query.source(),
        carrier: std::any::type_name::<T::Carrier>()
            .rsplit("::")
            .next()
            .unwrap_or("?"),
        engine: T::KIND,
        shards: T::SHARDS,
        client_threads: clients,
        slices_per_phase: n_slices,
        slice_ms: cfg.slice.as_secs_f64() * 1e3,
    };
    let stored = persisted.stats.plan_bytes + persisted.stats.snapshot_bytes + persisted.wal_bytes;
    let mut metrics;
    let mut trace_file = None;
    if trace {
        direct.insert("persist.plan_bytes", persisted.stats.plan_bytes as f64);
        direct.insert(
            "persist.snapshot_bytes",
            persisted.stats.snapshot_bytes as f64,
        );
        let updates = (crate::phases::WAL_BATCHES * crate::phases::WAL_BATCH) as f64;
        direct.insert(
            "persist.wal_bytes_per_update",
            persisted.wal_bytes as f64 / updates,
        );
        let overheads: Vec<f64> = [
            &s_single, &s_batch, &s_churn, &s_ranked, &s_query, &s_seek, &s_enum,
        ]
        .iter()
        .filter_map(|s| overhead(s))
        .collect();
        direct.insert("trace_overhead_frac", median(&overheads));
        metrics = layers::derive(&ctx.rec, &direct, &ladder, persisted_n);
        let path = out_dir.join(format!("trace.{}.json", cfg.name));
        std::fs::write(&path, ctx.rec.to_json(&stamp.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        trace_file = Some(path.display().to_string());
    } else {
        metrics = vec![
            Value {
                name: "setup_s",
                value: median(&setup_secs) + setup_extra,
                spread: Some(spread(&setup_secs)),
            },
            rate_value("query_ops_s", &s_query),
            p99_value("query_p99_us", &[&s_query]),
            rate_value("seek_ops_s", &s_seek),
            rate_value("enum_answers_s", &s_enum),
            rate_value("update_ops_s", &s_single),
            rate_value("batch_update_ops_s", &s_batch),
            rate_value("churn_update_ops_s", &s_churn),
            rate_value("ranked_update_ops_s", &s_ranked),
            p99_value("batch_p99_us", &[&s_batch, &s_ranked]),
            rate_value("mixed_update_ops_s", &s_mixed_w),
            rate_value("mixed_query_ops_s", &s_mixed_r),
            Value {
                name: "recover_s",
                value: lowest_tenth(&persisted.recover_s),
                spread: Some(spread(&persisted.recover_s)),
            },
            Value {
                name: "stored_bytes_per_elem",
                value: stored as f64 / persisted_n as f64,
                spread: None,
            },
            Value {
                name: "peak_rss_mb",
                value: peak_rss_mib(),
                spread: None,
            },
        ];
        debug_assert_eq!(metrics.len(), END_TO_END.len());
    }
    for v in &mut metrics {
        if !v.value.is_finite() {
            ctx.tally
                .fail(|| format!("metric {} is not a finite number", v.name));
            v.value = -1.0;
        }
    }
    Ok(RunReport {
        stamp,
        attempted: ctx.tally.attempted,
        failed: ctx.tally.failed,
        notes: ctx.tally.notes,
        metrics,
        trace_file,
    })
}

/// The engine assembled piece by piece must answer like the one a user
/// gets from the one-call build: same count, same answer stream, same
/// point-query results.
fn same_as_one_call_build<T: Target>(
    ctx: &mut Ctx,
    pieces: &T,
    dynamic: bool,
) -> Result<(), String> {
    ctx.rec.begin_op("one-call build for comparison");
    let w = ctx.world;
    let mut whole = ctx.rec.time("build.one_call", 1, || {
        T::build(&w.a, &w.formula(), dynamic)
    })?;
    let stream = |e: &T| {
        let mut v = Vec::new();
        e.for_each_answer(&mut |t| v.push(pack(t)));
        v
    };
    let (a, b) = (stream(pieces), stream(&whole));
    ctx.tally.ops(2);
    ctx.tally.check(a == b, || {
        format!(
            "piecewise build enumerates {} answers, one-call build {} (or in another order)",
            a.len(),
            b.len()
        )
    });
    // point queries need `&mut`; the piecewise engine is checked through
    // its stream, the one-call engine against that stream
    let sample: Vec<Vec<u32>> = a
        .iter()
        .step_by((a.len() / 64).max(1))
        .map(|&p| unpack(p, w.query.arity()))
        .collect();
    let refs: Vec<&[u32]> = sample.iter().map(Vec::as_slice).collect();
    let mut out = Vec::new();
    for group in refs.chunks(T::QUERY_GROUP) {
        whole.query_group(group, &mut out);
    }
    ctx.tally.ops(refs.len() as u64);
    ctx.tally.check(out.iter().all(|&x| x), || {
        "one-call build rejects an answer the piecewise build enumerates".into()
    });
    Ok(())
}
