//! Smoke tests at tiny sizes: generators, oracles, and every workload end
//! to end in both modes. (Estimators and span self-time are unit-tested
//! beside their code.)

use bench_matrix::gen::{forest64, reg4, Shadow, World};
use bench_matrix::phases::{verify_stream, Ctx, QueryPhase, Side, Tally};
use bench_matrix::report::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use bench_matrix::rng::SplitMix64;
use bench_matrix::target::{Flat, Target};
use bench_matrix::trace::Recorder;
use bench_matrix::workload::{config, run, Family};
use std::path::PathBuf;
use std::time::Duration;

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generators_are_a_pure_function_of_the_seed() {
    for make in [reg4 as fn(usize, u64) -> World, forest64] {
        let (a, b, c) = (make(256, 7), make(256, 7), make(256, 8));
        assert_eq!(a.tuples, b.tuples);
        assert_ne!(a.tuples, c.tuples);
        assert!(a.tuples.chunks(2).all(|p| p[0] == [p[1][1], p[1][0]]));
        // sizes of one seed are independent draws, not rescalings
        assert_ne!(make(128, 7).tuples[..64], a.tuples[..64]);
    }
    assert_eq!(reg4(256, 1).tuples.len(), 4 * 256);
    assert_eq!(forest64(256, 1).tuples.len(), 2 * (256 - 64));
}

#[test]
fn closed_form_count_follows_flips() {
    for w in [reg4(96, 3), forest64(192, 3)] {
        let phi = w.formula();
        let mut shadow = Shadow::new(&w);
        let mut rng = SplitMix64::new(11);
        for round in 0..40 {
            let brute = agq_baseline::all_answers(&phi, &shadow.a).len() as u64;
            assert_eq!(shadow.count(), brute, "{:?} round {round}", w.query);
            for _ in 0..5 {
                shadow.flip(rng.below(w.tuples.len()));
            }
        }
    }
}

#[test]
fn wrong_expectation_is_a_failed_operation_not_a_panic() {
    let w = reg4(96, 5);
    let eng = Flat::<agq_semiring::Nat>::build(&w.a, &w.formula(), true).unwrap();
    let mut side = Side::new(eng, &w);
    let mut ctx = Ctx {
        world: &w,
        tally: Tally::default(),
        rec: Recorder::new(false),
        slice: Duration::from_millis(5),
        seed: 5,
    };
    verify_stream(&mut ctx, &mut side, "honest");
    assert_eq!(ctx.tally.failed, 0, "{:?}", ctx.tally.notes);
    // the model now believes in flips the engine never saw
    for i in 0..w.tuples.len() / 2 {
        side.shadow.flip(2 * i);
    }
    verify_stream(&mut ctx, &mut side, "lying model");
    let after_verify = ctx.tally.failed;
    assert!(after_verify >= 2, "{:?}", ctx.tally);
    QueryPhase::new(&ctx).slice(&mut ctx, &mut side);
    assert!(ctx.tally.failed > after_verify, "{:?}", ctx.tally);
    assert!(!ctx.tally.notes.is_empty());
}

#[test]
fn benchmark_json_is_generated_from_the_metric_table() {
    let on_disk = include_str!("../../BENCHMARK.json");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with `bench-matrix --print-benchmark-json > BENCHMARK.json`"
    );
    let ok = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(ok(m.name, "_.-", 64), "name {}", m.name);
        assert!(ok(m.unit, "_/%.-", 16), "unit {} of {}", m.unit, m.name);
        assert!(matches!(m.better, "lower" | "higher"));
        names.push(m.name);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    for (name, why) in WORKLOADS {
        assert!(ok(name, "_.-", 64) && why.len() <= 200 && !why.contains('\n'));
        assert!(config(name).is_some());
        names.push(name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

/// Every workload, untraced and traced: zero failed operations and
/// exactly the metric names `BENCHMARK.json` lists for that mode.
#[test]
fn every_workload_runs_end_to_end_in_both_modes() {
    for (name, _) in WORKLOADS {
        let mut cfg = config(name).unwrap();
        cfg.n = match cfg.family {
            Family::Reg4 => 128,
            Family::Forest64 => 512,
        };
        cfg.slice = Duration::from_millis(2);
        for trace in [false, true] {
            let dir = out_dir(&format!("{name}-{trace}"));
            let report = run(&cfg, 42, 0.05, trace, &dir).unwrap();
            assert_eq!(report.failed, 0, "{name} trace={trace}: {:?}", report.notes);
            assert!(report.attempted > 0);
            let want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let got: Vec<&str> = report.metrics.iter().map(|v| v.name).collect();
            assert_eq!(got, want, "{name} trace={trace}");
            for v in &report.metrics {
                assert!(v.value.is_finite(), "{name} {} = {}", v.name, v.value);
            }
            let line = report.result_line();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n'));
            let trace_file = dir.join(format!("trace.{name}.json"));
            assert_eq!(trace_file.exists(), trace);
            if trace {
                let spans = std::fs::read_to_string(trace_file).unwrap();
                for needle in ["\"core.compile\"", "\"persist.load_plan\"", "\"op.query\""] {
                    assert!(spans.contains(needle), "{name}: no span {needle}");
                }
            } else {
                for m in ["setup_s", "query_ops_s", "recover_s", "peak_rss_mb"] {
                    assert!(report.get(m).unwrap().value > 0.0, "{name} {m}");
                }
            }
            assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("tmp.")));
        }
    }
}
