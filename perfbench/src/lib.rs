//! # cfr-sim benchmark
//!
//! One command runs one workload of the repository benchmark and prints,
//! as its last line, a JSON result with the end-to-end metrics (untraced
//! run) or the per-layer metrics (traced run). See `BENCHMARK.json` at
//! the repository root for the contract and `METRICS.md` beside this
//! package for what each metric means and which workload moves it.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cold --seed 1 --seconds 50 --trace 0
//! ```

pub mod host;
pub mod replay;
pub mod spans;
pub mod timed_store;
pub mod workloads;

pub use workloads::{run, Outcome, RunArgs, Workload};

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("commits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units. Every workload reports
/// all of them; counts and bytes of a layer a workload does not use are
/// 0. Every time here is measured on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("core.engine.simulated_runs", "count"),
    ("core.engine.parallel_eff", "ratio"),
    ("core.engine.tail_s", "s"),
    ("core.simulator.run_s.p50", "s"),
    ("core.simulator.run_s.p95", "s"),
    ("core.simulator.run_s.max", "s"),
    ("core.simulator.ns_per_commit.p50", "ns"),
    ("workload.generate_ms", "ms"),
    ("core.compiler.compile_for_ms", "ms"),
    ("workload.compile_trace_ms", "ms"),
    ("workload.walk_ns_per_step", "ns"),
    ("types.record.encode_us", "us"),
    ("types.record.decode_us", "us"),
    ("mem.itlb.lookup_ns", "ns"),
    ("mem.il1.access_ns", "ns"),
    ("mem.dtlb.lookup_ns", "ns"),
    ("mem.dl1.access_ns", "ns"),
    ("mem.l2.access_ns", "ns"),
    ("cpu.bpred.predict_ns", "ns"),
    ("energy.meter.charge_ns", "ns"),
    ("core.scenario.context_switches", "count"),
    ("core.scenario.tlb_flushed", "count"),
    ("core.scenario.shootdowns", "count"),
    ("core.store.loads", "count"),
    ("core.store.saves", "count"),
    ("core.store.bytes.runs", "bytes"),
    ("core.store.bytes.walks", "bytes"),
    ("core.store.bytes.programs", "bytes"),
    ("core.store.bytes.traces", "bytes"),
    ("replay_ms.p50", "ms"),
    ("core.store.open_ms", "ms"),
    ("core.store.load_many_ms.p50", "ms"),
    ("store_bytes", "bytes"),
    ("paper_err_pp", "pp"),
    ("cpu.ipc", "ratio"),
    ("mem.itlb.access_pki", "per_1k"),
    ("mem.itlb.miss_pki", "per_1k"),
    ("core.strategy.boundary_pki", "per_1k"),
    ("core.strategy.branch_pki", "per_1k"),
    ("mem.il1.miss_pki", "per_1k"),
    ("mem.dl1.miss_pki", "per_1k"),
    ("mem.l2.miss_pki", "per_1k"),
    ("mem.dtlb.miss_pki", "per_1k"),
    ("cpu.bpred.mispredict_pki", "per_1k"),
    ("energy.itlb_mj", "mJ"),
];

/// Layer timings only some workloads exercise: written to the traced
/// run's layer report (0 where the workload does not call the layer),
/// not reported as metrics.
pub const LAYER_REPORT_ONLY: &[&str] = &[
    "core.experiment.table2_s",
    "core.experiment.fig4_s",
    "core.experiment.table3_s",
    "core.experiment.table4_s",
    "core.experiment.table5_s",
    "core.experiment.table6_s",
    "core.experiment.table7_s",
    "core.experiment.fig6_s",
    "core.experiment.table8_s",
    "core.store.save_us.p50",
    "core.scenario.run_s.p50",
    "core.scenario.run_s.max",
    "core.scenario.ns_per_commit",
    "replay_ms.p95",
];

/// A metric value as a JSON number with every digit Rust's shortest
/// round-trip formatting gives; non-finite values (never produced by a
/// correct run) become 0.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
#[must_use]
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let missing = declared
        .iter()
        .any(|(name, _)| !outcome.metrics.get(name).is_some_and(|v| v.is_finite()));
    let attempted = outcome.attempted.max(1);
    let failed = outcome.failed.min(attempted);
    let correct = failed == 0 && !missing && outcome.attempted > 0;
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::json_str(name),
                json_number(v),
                host::json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
