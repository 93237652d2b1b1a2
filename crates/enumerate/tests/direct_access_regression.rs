//! Direct-access performance regression test (PR 7) over the E9
//! workload at n = 16 000.
//!
//! Pins two properties of `answer(k)`:
//!
//! 1. **Seek latency is O(depth), not O(k).** A warm `answer(k)` is a
//!    pure gate-by-gate descent — measured p50 ≈ 5–7 µs, p99 ≈ 12–30 µs
//!    on shared hardware (the tail is first-touch prefix-table builds
//!    and scheduler noise, not rank-dependent work; the instrumented
//!    test in `direct_access.rs` proves gate visits are flat in `k`).
//!    The budgets below are ~4× those numbers: loose enough for noisy
//!    CI, tight enough that any enumeration loop over preceding answers
//!    (milliseconds at this size, see the `nth_walk` ratio asserted
//!    here) trips them immediately.
//!
//! 2. **Rank maintenance is (almost) free for writers.** Under the lazy
//!    design, `apply_batch` only appends count patches — the repair
//!    sweep is deferred to the next read. The gated number is therefore
//!    ingestion with count state live for the whole run *plus the one
//!    flush that brings ranks current*, vs. a count-free index:
//!    measured ≈ +3 % appends + one ~230 ms flush for 20 k updates
//!    (≈ +50 % total at this scale), gated at +100 %. Since the compiler
//!    emits no dead or duplicate gate, both sides are smaller — on a
//!    2-vCPU VM ingestion ≈ 120 ms and the flush ≈ 80 ms, where they read
//!    ≈ 300 ms and ≈ 210 ms before — and the ratio reads ≈ +50…+110 %
//!    there, as it did before (≈ +50…+100 %): near the gate, the spread
//!    is the VM's, not rank work. A reader after
//!    *every* batch instead re-pays each batch's full update cone
//!    (~2.4 ms/batch, +140–170 % — the benchmark matrix reports it as
//!    `ranked_update_ops_s` / `enumerate.rank_flush_us`; not gated here):
//!    counts change through the whole cone so no repair schedule, eager
//!    or lazy, can avoid that sweep; the lazy design merely moves it
//!    off the write path.
//!
//! Budgets are only meaningful with optimizations on, so the assertions
//! are compiled under `not(debug_assertions)`: run via
//! `cargo test -p agq-enumerate --release` (CI does).

#![cfg(not(debug_assertions))]

use agq_core::{CompileOptions, TupleUpdate};
use agq_enumerate::AnswerIndex;
use agq_graph::generators;
use agq_logic::{Formula, Var};
use agq_structure::{Signature, Structure};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The E9 workload: symmetrized G(n, 2n), two-path query with x ≠ z.
fn e9_workload(n: usize) -> (Structure, Formula, agq_structure::RelId) {
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

#[test]
fn answer_k_seek_budgets() {
    /// Median seek budget: ~4× the measured ≈ 5–7 µs descent.
    const P50_BUDGET: Duration = Duration::from_micros(30);
    /// Tail budget: first-touch prefix builds + CI scheduler noise.
    const P99_BUDGET: Duration = Duration::from_micros(150);
    /// A walk to rank n/2 must be ≥ 100× slower than a seek — the
    /// structural claim that `answer(k)` does no enumeration loop.
    const WALK_SEEK_RATIO: f64 = 100.0;

    let n = 16_000;
    let (a, phi, _) = e9_workload(n);
    let ix = AnswerIndex::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
    let total = ix.count();
    assert!(total > 100_000, "workload sanity: enough answers to seek");

    ix.answer(0).unwrap(); // one-time count materialization
    let probes: Vec<u64> = (0..1000).map(|i| (total - 1) * i / 999).collect();
    let mut seek: Vec<Duration> = probes
        .iter()
        .map(|&k| {
            let t = Instant::now();
            std::hint::black_box(ix.answer(k).unwrap());
            t.elapsed()
        })
        .collect();
    seek.sort();
    let p50 = seek[seek.len() / 2];
    let p99 = seek[seek.len() - 1 - seek.len() / 100];
    assert!(
        p50 < P50_BUDGET,
        "answer(k) p50 {p50:?} over budget {P50_BUDGET:?} across {} probes",
        seek.len()
    );
    assert!(
        p99 < P99_BUDGET,
        "answer(k) p99 {p99:?} over budget {P99_BUDGET:?} across {} probes",
        seek.len()
    );

    // The walk `answer(k)` replaces: advance a cursor to rank total/2.
    let t = Instant::now();
    let mut it = ix.iter();
    let mut mid = None;
    for _ in 0..=total / 2 {
        mid = it.next();
    }
    let walk = t.elapsed();
    assert_eq!(mid, ix.answer(total / 2), "seek must agree with the walk");
    assert!(
        walk > p50.mul_f64(WALK_SEEK_RATIO),
        "iter().nth({}) took {walk:?} vs seek p50 {p50:?} — a {WALK_SEEK_RATIO}× \
         separation is the floor; anything less means answer(k) is walking",
        total / 2
    );
}

#[test]
fn rank_repair_ingestion_overhead() {
    /// Deferred rank repair (pending appends + one flush) may at most
    /// double ingestion at this scale; measured ≈ +50 %.
    const OVERHEAD_BUDGET: f64 = 1.0;

    let n = 16_000;
    let (a, phi, e) = e9_workload(n);
    let opts = CompileOptions::default();
    let edges: Vec<Vec<u32>> = a
        .relation(e)
        .iter()
        .map(|t| t.as_slice().to_vec())
        .collect();

    // Deterministic flip script: toggle pseudo-random edges in and out.
    let reps = 20_000usize;
    let mut present = vec![true; edges.len()];
    let mut s = 0x9e3779b97f4a7c15u64;
    let script: Vec<TupleUpdate> = (0..reps)
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

    // Baseline: counts never materialized — no rank bookkeeping at all.
    let mut base = AnswerIndex::build_dynamic(&a, &phi, &opts).unwrap();
    let t0 = Instant::now();
    for chunk in script.chunks(64) {
        base.apply_batch(chunk).unwrap();
    }
    let t_base = t0.elapsed();

    // Ranks live: count state materialized up front, pending patches
    // accumulate through the whole run, one flush at the end brings
    // ranks current. This is the repair cost ingestion actually pays.
    let mut live = AnswerIndex::build_dynamic(&a, &phi, &opts).unwrap();
    live.answer(0).unwrap();
    let t0 = Instant::now();
    for chunk in script.chunks(64) {
        live.apply_batch(chunk).unwrap();
    }
    std::hint::black_box(live.count());
    let t_live = t0.elapsed();

    assert_eq!(base.count(), live.count(), "both replicas saw one script");
    let overhead = t_live.as_secs_f64() / t_base.as_secs_f64() - 1.0;
    assert!(
        overhead < OVERHEAD_BUDGET,
        "rank repair added {:.0}% to {reps}-update batch-64 ingestion \
         (base {t_base:?}, ranks live {t_live:?}); budget {:.0}%",
        overhead * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
    // Ranks must actually be live after the flush: a mid-range seek
    // agrees with a fresh walk.
    let k = live.count() / 2;
    let mut it = live.iter();
    let mut mid = None;
    for _ in 0..=k {
        mid = it.next();
    }
    assert_eq!(mid, live.answer(k), "post-ingestion ranks are current");
}
