use bench_matrix::report::{benchmark_json, RunReport, END_TO_END, RUN_SECONDS, WORKLOADS};
use bench_matrix::workload::{config, run};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench-matrix --workload <read_static|ingest_flat|sharded_rw|cold_start> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
       bench-matrix --selfcheck [--seed <n>] [--seconds <s>] [--out <dir>]
       bench-matrix --print-benchmark-json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    selfcheck: bool,
    print_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: PathBuf::from("bench-matrix/out"),
        selfcheck: false,
        print_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--selfcheck" => a.selfcheck = true,
            "--print-benchmark-json" => a.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn run_one(name: &str, a: &Args, trace: bool) -> Result<RunReport, String> {
    let cfg = config(name).ok_or(format!("unknown workload {name}"))?;
    run(&cfg, a.seed, a.seconds, trace, &a.out)
}

/// Run every workload twice with the same seed; fail unless the second
/// set repeats the first within each metric's bound (counts exactly).
fn selfcheck(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let first = run_one(name, a, false)?;
        let second = run_one(name, a, false)?;
        println!("{}", first.table());
        for def in &END_TO_END {
            let (v1, v2) = (first.get(def.name), second.get(def.name));
            let (Some(v1), Some(v2)) = (v1, v2) else {
                return Err(format!("{name}: metric {} missing", def.name));
            };
            let is_count = def.name == "stored_bytes_per_elem";
            let rel = (v2.value - v1.value).abs() / v1.value.abs();
            let pass = if is_count {
                v1.value == v2.value
            } else {
                rel <= def.bound
            };
            println!(
                "{name:<12} {:<24} first {:>14.4} second {:>14.4} diff {:>6.2}% bound {:>5.1}% {}",
                def.name,
                v1.value,
                v2.value,
                rel * 100.0,
                def.bound * 100.0,
                if pass { "ok" } else { "OUT OF BOUND" }
            );
            if !pass {
                ok = false;
                println!(
                    "  spread of first  {:?}\n  spread of second {:?}",
                    v1.spread, v2.spread
                );
            }
        }
        for r in [&first, &second] {
            if r.failed > 0 {
                ok = false;
                println!("{name}: {} failed operations: {:?}", r.failed, r.notes);
            }
        }
    }
    Ok(ok)
}

/// glibc's malloc raises its mmap threshold as large blocks are freed,
/// so whether a big vector is unmapped on drop or parked in the heap
/// depends on allocation history across threads: the same run peaks
/// anywhere within ±15 % of resident memory. Pinning the thresholds makes
/// `peak_rss_mb` repeat.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets tunables of the process allocator; it is
    // called first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
        mallopt(M_TRIM_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator_thresholds() {}

fn main() -> ExitCode {
    pin_allocator_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("bench-matrix refuses to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    if args.selfcheck {
        return match selfcheck(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("selfcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run_one(name, &args, args.trace) {
        Ok(report) => {
            println!("{}", report.table());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-matrix: {e}");
            ExitCode::FAILURE
        }
    }
}
