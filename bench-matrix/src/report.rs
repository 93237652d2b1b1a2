//! Metric definitions (the source `BENCHMARK.json` is generated from),
//! the run stamp, and the output format.

use crate::stats::Spread;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "read_static",
        "twopath on reg4(1000), F64, static build, fits the cache share: reads hit compile, cone-memo peek, cursor and count side; ingestion does nothing here (write cells run on a dynamic twin)",
    ),
    (
        "ingest_flat",
        "twopath on reg4(1000), Nat, dynamic flat engine, fits the cache share: heavy overlapping cones, so dirty sweep, perm repair and rank repair dominate; reads follow the churn",
    ),
    (
        "sharded_rw",
        "marked_edge on forest64(4096), Nat, 2 shards: light cones, so coalesce, route, lock and fan-out dominate; the only workload where 2 client threads contend",
    ),
    (
        "cold_start",
        "twopath on reg4, F64: setup_s adds from-scratch builds at n=1000, 2000 and 4000; the n=4000 engine is saved, journaled, crashed and recovered; steady-state cells run at n=1000",
    ),
];

/// Bounds: every timing moves with the VM's memory latency and with how
/// its two vCPUs are scheduled; ten seeds per workload spread (IQR over
/// median) by 3–12 % in a quiet quarter of an hour and by 15–30 % in a
/// loud one, so every timing gets the widest bound the contract allows.
/// `stored_bytes_per_elem` repeats exactly for one seed and moves ±2 %
/// with the generated graph.
pub const END_TO_END: [MetricDef; 15] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_ops_s", "tuples/s", "higher", 0.25),
    e2e("query_p99_us", "us", "lower", 0.25),
    e2e("seek_ops_s", "seeks/s", "higher", 0.25),
    e2e("enum_answers_s", "answers/s", "higher", 0.25),
    e2e("update_ops_s", "updates/s", "higher", 0.25),
    e2e("batch_update_ops_s", "updates/s", "higher", 0.25),
    e2e("churn_update_ops_s", "updates/s", "higher", 0.25),
    e2e("ranked_update_ops_s", "updates/s", "higher", 0.25),
    e2e("batch_p99_us", "us", "lower", 0.25),
    e2e("mixed_update_ops_s", "updates/s", "higher", 0.25),
    e2e("mixed_query_ops_s", "tuples/s", "higher", 0.25),
    e2e("recover_s", "s", "lower", 0.25),
    e2e("stored_bytes_per_elem", "B", "lower", 0.10),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

pub const PER_LAYER: [MetricDef; 69] = [
    layer("logic.parse_us", "us", "lower"),
    layer("logic.normalize_us", "us", "lower"),
    layer("structure.gaifman_graph_ms", "ms", "lower"),
    layer("structure.components_ms", "ms", "lower"),
    layer("graph.ltd_coloring_ms", "ms", "lower"),
    layer("graph.ltd_colors", "count", "lower"),
    layer("core.qe_ms", "ms", "lower"),
    layer("core.compile_ms", "ms", "lower"),
    layer("core.compile_self_ms", "ms", "lower"),
    layer("core.compile_ns_per_gate", "ns", "lower"),
    layer("core.compile_gates", "count", "lower"),
    layer("core.compile_edges", "count", "lower"),
    layer("core.compile_shapes", "count", "lower"),
    layer("core.compile_subsets", "count", "lower"),
    layer("core.compile_slope", "exponent", "lower"),
    layer("core.coalesce_ns_per_update", "ns", "lower"),
    layer("core.coalesce_keep_ratio", "ratio", "lower"),
    layer("core.point_query_us", "us", "lower"),
    layer("core.point_apply_ns_per_update", "ns", "lower"),
    layer("circuit.plan_build_ms", "ms", "lower"),
    layer("circuit.state_init_ms", "ms", "lower"),
    layer("circuit.eval_gates_ns_per_gate", "ns", "lower"),
    layer("circuit.dense_run_coverage", "ratio", "higher"),
    layer("circuit.peek_memo_us", "us", "lower"),
    layer("circuit.set_inputs_ns_per_update", "ns", "lower"),
    layer("perm.segtree.update_ns", "ns", "lower"),
    layer("perm.segtree.update_batch_ns", "ns", "lower"),
    layer("perm.segtree.peek_ns", "ns", "lower"),
    layer("perm.segtree.build_ns_per_col", "ns", "lower"),
    layer("perm.ring.update_ns", "ns", "lower"),
    layer("perm.finite.update_ns", "ns", "lower"),
    layer("semiring.sum_slice_ns_per_elem.nat", "ns", "lower"),
    layer("semiring.sum_slice_ns_per_elem.f64", "ns", "lower"),
    layer("semiring.sum_slice_ns_per_elem.minplus", "ns", "lower"),
    layer("enumerate.index_build_ms", "ms", "lower"),
    layer("enumerate.index_build_slope", "exponent", "lower"),
    layer("enumerate.machine_init_ms", "ms", "lower"),
    layer("enumerate.count_build_ms", "ms", "lower"),
    layer("enumerate.index_apply_ns_per_update", "ns", "lower"),
    layer("enumerate.rank_flush_us", "us", "lower"),
    layer("enumerate.seek_gate_visits", "count", "lower"),
    layer("enumerate.seek_p50_ns", "ns", "lower"),
    layer("enumerate.seek_p99_ns", "ns", "lower"),
    layer("enumerate.cursor.delay_p50_ns", "ns", "lower"),
    layer("enumerate.cursor.delay_p99_ns", "ns", "lower"),
    layer("enumerate.cursor.delay_max_ns", "ns", "lower"),
    layer("enumerate.first_answer_us", "us", "lower"),
    layer("enumerate.shard_filtered_ms", "ms", "lower"),
    layer("enumerate.sharded.single_update_ns", "ns", "lower"),
    layer("enumerate.flat.single_update_ns", "ns", "lower"),
    layer("enumerate.sharded.batch_one_shard_us", "us", "lower"),
    layer("enumerate.sharded.batch_two_shard_us", "us", "lower"),
    layer("enumerate.sharded.snapshot_read_us", "us", "lower"),
    layer("enumerate.sharded.reader_wait_p99_us", "us", "lower"),
    layer("persist.save_plan_ms", "ms", "lower"),
    layer("persist.save_snapshot_ms", "ms", "lower"),
    layer("persist.plan_bytes", "B", "lower"),
    layer("persist.snapshot_bytes", "B", "lower"),
    layer("persist.bytes_per_gate", "B", "lower"),
    layer("persist.wal_bytes_per_update", "B", "lower"),
    layer("persist.load_plan_ms", "ms", "lower"),
    layer("persist.load_plan_slope", "exponent", "lower"),
    layer("persist.read_snapshot_ms", "ms", "lower"),
    layer("persist.read_snapshot_slope", "exponent", "lower"),
    layer("persist.restore_state_ms", "ms", "lower"),
    layer("persist.scan_wal_ms", "ms", "lower"),
    layer("persist.replay_ups", "updates/s", "higher"),
    layer("persist.wal_append_us", "us", "lower"),
    layer("trace_overhead_frac", "ratio", "lower"),
];

pub const RUN_SECONDS: u32 = 16;

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"bench-matrix/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench-matrix\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(name),
            json_str(why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Everything needed to read a number later: what ran, on what, how.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Vec<usize>,
    pub query: &'static str,
    pub carrier: &'static str,
    pub engine: &'static str,
    pub shards: usize,
    pub client_threads: usize,
    pub slices_per_phase: usize,
    pub slice_ms: f64,
}

pub const ESTIMATOR: &str =
    "rate = mean of fastest tenth of slices (>=3); latency = mean of lowest tenth of per-slice percentiles; setup = median of 5; recover = mean of fastest 3 of 7";

fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or("unknown".into(), |s| s.trim().to_owned()),
        None => head.to_owned(),
    }
}

impl Stamp {
    pub fn to_json(&self) -> String {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let sizes: Vec<String> = self.sizes.iter().map(usize::to_string).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"rustc\": {}, \"nproc\": {cpus}, \"debug_assertions\": {}, \"sizes\": [{}], \"query\": {}, \"carrier\": \"{}\", \"engine\": \"{}\", \"shards\": {}, \"client_threads\": {}, \"slices_per_phase\": {}, \"slice_ms\": {}, \"estimator\": {}, \"compile_threads\": \"CompileOptions::default (0 = one per core)\", \"wal_flush\": \"default DurabilityPolicy, sync_data per batch\"}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            json_str(&commit()),
            json_str(env!("BENCH_MATRIX_RUSTC")),
            cfg!(debug_assertions),
            sizes.join(", "),
            json_str(self.query),
            self.carrier,
            self.engine,
            self.shards,
            self.client_threads,
            self.slices_per_phase,
            self.slice_ms,
            json_str(ESTIMATOR),
        )
    }
}

/// One reported number, with the spread over slices or repeats behind it.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub spread: Option<Spread>,
}

pub struct RunReport {
    pub stamp: Stamp,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: Vec<Value>,
    /// Where the span file went (traced runs).
    pub trace_file: Option<String>,
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"))
}

impl RunReport {
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|v| v.name == name)
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!("# stamp {}\n", self.stamp.to_json());
        for v in &self.metrics {
            let unit = def_of(v.name).unit;
            let _ = write!(out, "{:<42} {:>16.4} {:<10}", v.name, v.value, unit);
            if let Some(s) = v.spread {
                let _ = write!(
                    out,
                    " spread q1 {:.4} median {:.4} q3 {:.4} over {}",
                    s.q1, s.median, s.q3, s.n
                );
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "operations attempted {} failed {}",
            self.attempted, self.failed
        );
        for n in &self.notes {
            let _ = writeln!(out, "  failure: {n}");
        }
        if let Some(f) = &self.trace_file {
            let _ = writeln!(out, "spans written to {f}");
        }
        out
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_str(v.name),
                    v.value,
                    def_of(v.name).unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
