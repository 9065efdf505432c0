//! The four workloads and their passes.
//!
//! Every workload is a closed loop: one caller issues the next pass only
//! after the previous one returns. The workload seed becomes the walker
//! seed (`ExperimentScale::seed`); the program only ever sees the inputs
//! generated from it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cfr_core::{
    compiler, fig4, fig6, scenario, table2, table3, table4, table5, table6, table7, table8, Engine,
    ExecBackend, ExperimentScale, RunKey, RunReport, ScenarioBinary, ScenarioConfig, ScenarioProc,
    ScenarioReport, Store, StrategyKind, TlbMode, FIG4_SCHEMES,
};
use cfr_types::{
    fnv1a64, AddressingMode, ArtifactStore, GcPolicy, PageGeometry, RecordReader, RecordWriter,
    StoreBackend, NS_PROGRAMS, NS_RUNS, NS_TRACES, NS_WALKS,
};
use cfr_workload::{compile_trace, profiles, CompiledTrace, GeneratorParams, LaidProgram};

use crate::host::{cpu_seconds, dir_bytes, json_str, median, peak_rss_mb, quantile, threads};
use crate::replay::replay;
use crate::spans::{undersubscribed_secs, Tracer};
use crate::timed_store::{StoreTraffic, TimedStore};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The nine `all_experiments` calls on a fresh engine over an empty store.
    PaperCold,
    /// The same nine calls replayed from a filled store.
    PaperWarm,
    /// The `table_os` multiprogrammed sweep on an in-memory engine.
    Multiprog,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::PaperWarm,
        Workload::Multiprog,
    ];

    /// The workloads `BENCHMARK.json` declares, in its order.
    /// `paper-warm` runs on request only: its replays are too short and
    /// too memory-bound to hold the bound across runs (see `METRICS.md`);
    /// `paper-cold`'s traced run measures the same read path.
    pub const DECLARED: [Workload; 2] = [Workload::PaperCold, Workload::Multiprog];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::PaperWarm => "paper-warm",
            Workload::Multiprog => "multiprog",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Committed instructions per simulation run (per process for
/// `multiprog`) at the benchmark's scale.
pub const COMMITS_PER_RUN: u64 = 100_000;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed (the walker seed).
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span trace instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Committed instructions per run.
    pub commits: u64,
    /// Where stores, the trace and the layer report are written.
    pub out_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, replays or scenarios).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every per-layer value measured, including those that apply to
    /// this workload only (written to the layer report when traced).
    pub layers: BTreeMap<String, f64>,
    /// Digest of the pass's simulated outputs.
    pub digest: u64,
    /// Extra facts for the information line, as JSON members.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    fn fail(&mut self, ops: u64, why: &str) {
        self.failed += ops;
        self.info.push(("check_failed".into(), json_str(why)));
    }

    fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

// ------------------------------------------------------------ entry points

/// Runs one benchmark invocation.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let _ = std::fs::create_dir_all(&args.out_dir);
    let mut out = match args.workload {
        Workload::PaperCold => paper_cold(args),
        Workload::PaperWarm => paper_warm(args, None),
        Workload::Multiprog => multiprog(args),
    };
    out.info
        .push(("commits_per_run".into(), args.commits.to_string()));
    out
}

/// Damages a filled store (directory, scale) before `paper-warm` replays it.
pub type Corruptor<'a> = &'a dyn Fn(&Path, &ExperimentScale);

/// Runs `paper-warm` with `corrupt` applied to the filled store before
/// the replays (the self-tests plant a damaged record this way).
#[must_use]
pub fn run_paper_warm_with(args: &RunArgs, corrupt: Corruptor<'_>) -> Outcome {
    let _ = std::fs::create_dir_all(&args.out_dir);
    paper_warm(args, Some(corrupt))
}

// ------------------------------------------------------------------ shared

/// Runs `pass` until `seconds` have passed and at least `min_passes` ran;
/// returns the pass count.
fn timed_loop(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min_passes || start.elapsed().as_secs_f64() < seconds {
        pass(n);
        n += 1;
    }
    n
}

/// `f`'s result with its wall and CPU seconds.
fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - cpu)
}

fn scale_of(args: &RunArgs) -> ExperimentScale {
    ExperimentScale {
        max_commits: args.commits,
        seed: args.seed,
    }
}

fn record_of(report: &RunReport) -> String {
    let mut w = RecordWriter::new();
    report.to_record(&mut w);
    w.finish()
}

/// A fresh, empty directory for one store.
fn fresh_dir(out: &Path, tag: &str) -> PathBuf {
    let dir = out
        .join("stores")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Digest of `records`, and the digest check against `reference`: every
/// operation of a pass whose digest differs fails.
fn check_digest(records: &[String], reference: Option<u64>, ops: u64, out: &mut Outcome) -> u64 {
    let digest = fnv1a64(&records.join("\n"));
    if reference.is_some_and(|d| d != digest) {
        out.fail(ops, "digest differs across passes");
    }
    digest
}

/// The modelled (simulated, exact) component metrics over `reports`,
/// per 1000 committed instructions.
fn modelled(reports: &[&RunReport], out: &mut Outcome) {
    let committed: u64 = reports.iter().map(|r| r.committed).sum();
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let pki = |f: fn(&RunReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64 * 1000.0 / committed.max(1) as f64
    };
    out.layer("cpu.ipc", committed as f64 / cycles.max(1) as f64);
    out.layer("mem.itlb.access_pki", pki(|r| r.itlb.accesses));
    out.layer("mem.itlb.miss_pki", pki(|r| r.itlb.misses));
    out.layer("core.strategy.boundary_pki", pki(|r| r.breakdown.boundary));
    out.layer("core.strategy.branch_pki", pki(|r| r.breakdown.branch));
    out.layer("mem.il1.miss_pki", pki(|r| r.cpu.il1.misses));
    out.layer("mem.dl1.miss_pki", pki(|r| r.cpu.dl1.misses));
    out.layer("mem.l2.miss_pki", pki(|r| r.cpu.l2.misses));
    out.layer("mem.dtlb.miss_pki", pki(|r| r.cpu.dtlb.misses));
    out.layer("cpu.bpred.mispredict_pki", pki(|r| r.cpu.mispredicts));
    out.layer(
        "energy.itlb_mj",
        reports.iter().map(|r| r.itlb_energy_mj()).sum::<f64>(),
    );
}

/// `RunReport::to_record` / `from_record` time per report, in µs, over
/// at least 50 ms of round trips (each checked to round-trip exactly).
fn record_codec(reports: &[&RunReport], out: &mut Outcome) {
    let (mut encode_ns, mut decode_ns, mut calls) = (0.0, 0.0, 0usize);
    let start = Instant::now();
    while calls == 0 || start.elapsed().as_secs_f64() < 0.05 {
        for &r in reports {
            let t = Instant::now();
            let text = record_of(std::hint::black_box(r));
            encode_ns += t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            let back = RunReport::from_record(&mut RecordReader::new(&text));
            decode_ns += t.elapsed().as_nanos() as f64;
            if back.as_ref().ok() != Some(r) {
                out.fail(1, "a report does not round-trip through its record");
            }
            calls += 1;
        }
    }
    out.layer("types.record.encode_us", encode_ns / calls as f64 / 1e3);
    out.layer("types.record.decode_us", decode_ns / calls as f64 / 1e3);
}

/// Generates and compiles each `(params, strategy)` pair (in spans when
/// traced), recording the median per-call times; returns the laid
/// programs and their traces.
fn build_programs(
    items: &[(GeneratorParams, StrategyKind)],
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Vec<(LaidProgram, CompiledTrace)> {
    fn timed<T>(
        tracer: Option<&Tracer>,
        name: &str,
        ms: &mut Vec<f64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = tracer.map(|t| t.span(name));
        let start = Instant::now();
        let value = f();
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        value
    }
    let geom = PageGeometry::default_4k();
    let (mut gen, mut comp, mut trace) = (Vec::new(), Vec::new(), Vec::new());
    let built = items
        .iter()
        .map(|(params, kind)| {
            let program = timed(tracer, "workload.generate", &mut gen, || {
                cfr_workload::generate(params)
            });
            let laid = timed(tracer, "core.compiler.compile_for", &mut comp, || {
                compiler::compile_for(&program, geom, *kind)
            });
            let compiled = timed(tracer, "workload.compile_trace", &mut trace, || {
                compile_trace(&laid)
            });
            (laid, compiled)
        })
        .collect();
    out.layer("workload.generate_ms", median(&gen));
    out.layer("core.compiler.compile_for_ms", median(&comp));
    out.layer("workload.compile_trace_ms", median(&trace));
    built
}

/// Component replay over `laid`, into the layer map.
fn components(laid: &[&LaidProgram], seed: u64, out: &mut Outcome) {
    for (name, ns) in replay(laid, seed) {
        out.layer(name, ns);
    }
}

/// Simulator and engine layers of pass `run` from its `span` intervals,
/// each one simulation call committing `commits_per_call`; `wall` and
/// `cpu` are the traced pass's. Returns the calls' durations (s).
fn simulation_layers(
    tracer: &Tracer,
    run: u64,
    span: &str,
    commits_per_call: u64,
    (wall, cpu): (f64, f64),
    out: &mut Outcome,
) -> Vec<f64> {
    let spans: Vec<_> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.run == run && s.name == span)
        .collect();
    let secs: Vec<f64> = spans.iter().map(|s| s.secs()).collect();
    out.layer("core.simulator.run_s.p50", median(&secs));
    out.layer("core.simulator.run_s.p95", quantile(&secs, 0.95));
    out.layer("core.simulator.run_s.max", quantile(&secs, 1.0));
    out.layer(
        "core.simulator.ns_per_commit.p50",
        median(&secs) * 1e9 / commits_per_call as f64,
    );
    // Idle-worker time, batch by batch (a batch is the calls sharing a
    // parent span).
    let mut batches: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans {
        batches
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let tail = batches
        .values()
        .map(|iv| undersubscribed_secs(iv, threads()))
        .sum();
    out.layer("core.engine.tail_s", tail);
    out.layer("core.engine.parallel_eff", cpu / (wall * threads() as f64));
    secs
}

// ------------------------------------------------------------- paper calls

/// The nine experiment calls `all_experiments` makes, in its order.
const PAPER_CALLS: [&str; 9] = [
    "table2", "fig4", "table3", "table4", "table5", "table6", "table7", "fig6", "table8",
];

/// The nine calls, each inside a `core.experiment.<call>` span when
/// traced. Returns the digest of every row they produced.
fn paper_calls(engine: &Engine, scale: &ExperimentScale, tracer: Option<&Tracer>) -> u64 {
    fn call<T: std::fmt::Debug>(
        tracer: Option<&Tracer>,
        name: &str,
        text: &mut String,
        f: impl FnOnce() -> T,
    ) {
        let _span = tracer.map(|t| t.root_span(format!("core.experiment.{name}")));
        let rows = f();
        text.push_str(&format!("{name}: {rows:?}\n"));
    }
    let mut text = String::new();
    call(tracer, "table2", &mut text, || table2(engine, scale));
    call(tracer, "fig4", &mut text, || fig4(engine, scale));
    call(tracer, "table3", &mut text, || table3(engine, scale));
    call(tracer, "table4", &mut text, || table4(engine, scale));
    call(tracer, "table5", &mut text, || table5(engine, scale));
    call(tracer, "table6", &mut text, || table6(engine, scale));
    call(tracer, "table7", &mut text, || table7(engine, scale));
    call(tracer, "fig6", &mut text, || fig6(engine, scale));
    call(tracer, "table8", &mut text, || table8(engine, scale));
    fnv1a64(&text)
}

/// Figure 4's run keys (both panels), base first in each group of six:
/// a subset of the plan, so asking for them after a pass simulates
/// nothing.
fn fig4_keys(engine: &Engine, scale: &ExperimentScale) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for mode in [AddressingMode::ViPt, AddressingMode::ViVt] {
        for p in engine.profiles() {
            keys.push(RunKey::new(p.name, scale, StrategyKind::Base, mode));
            for kind in FIG4_SCHEMES {
                keys.push(RunKey::new(p.name, scale, kind, mode));
            }
        }
    }
    keys
}

/// Mean absolute difference, in percentage points, between the measured
/// Figure 4 averages (5 schemes x 2 modes) plus the Figure 5 IA average
/// and the paper's values (as `all_experiments` prints them), over
/// [`fig4_keys`]'s reports.
#[must_use]
fn paper_err_pp(reports: &[Arc<RunReport>]) -> f64 {
    const PAPER_FIG4: [(AddressingMode, [f64; 5]); 2] = [
        (AddressingMode::ViPt, [5.69, 12.24, 5.01, 3.82, 3.20]),
        (AddressingMode::ViVt, [15.23, 36.83, 16.39, 14.04, 12.74]),
    ];
    const PAPER_FIG5_IA: f64 = 96.45;
    let ia = FIG4_SCHEMES
        .iter()
        .position(|&k| k == StrategyKind::Ia)
        .expect("IA is a Figure 4 scheme");
    let mut errors = Vec::new();
    for (mode, paper) in PAPER_FIG4 {
        let rows: Vec<&[Arc<RunReport>]> = reports
            .chunks_exact(6)
            .filter(|g| g[0].mode == mode)
            .collect();
        let n = rows.len() as f64;
        for (i, p) in paper.iter().enumerate() {
            let avg = rows.iter().map(|g| g[i + 1].energy_vs(&g[0])).sum::<f64>() / n;
            errors.push((avg * 100.0 - p).abs());
        }
        if mode == AddressingMode::ViVt {
            let avg = rows.iter().map(|g| g[ia + 1].cycles_vs(&g[0])).sum::<f64>() / n;
            errors.push((avg * 100.0 - PAPER_FIG5_IA).abs());
        }
    }
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// An engine over the store in `dir`: `Store::open` untraced, or the
/// timing wrapper around `ArtifactStore::open` when traced.
fn engine_over(dir: &Path, tracer: Option<&Arc<Tracer>>) -> (Engine, Option<Arc<TimedStore>>) {
    match tracer {
        None => (
            Engine::new().with_store(Store::open(dir).expect("benchmark store opens")),
            None,
        ),
        Some(t) => {
            let inner = {
                let _span = t.span("core.store.open");
                ArtifactStore::open(dir, GcPolicy::from_env()).expect("benchmark store opens")
            };
            let timed = Arc::new(TimedStore::new(inner, Arc::clone(t)));
            let backend: Arc<dyn StoreBackend> = timed.clone();
            (Engine::new().with_store(Store::over(backend)), Some(timed))
        }
    }
}

/// What the checks need from one pass of the nine calls.
struct PaperPass {
    digest: u64,
    /// Runs simulated (0 on a warm replay).
    simulated: u64,
    /// Run records in the store after the pass.
    records: usize,
    /// Walks measured rather than loaded.
    walks_cold: u64,
    /// Runs served from the store.
    runs_warm: u64,
    /// Figure 4's reports, in [`fig4_keys`] order.
    fig4: Vec<Arc<RunReport>>,
    wall: f64,
    cpu: f64,
}

/// The nine calls on `engine`, timed; the checks' inputs are gathered
/// after the timed region.
fn paper_pass(engine: &Engine, scale: &ExperimentScale, tracer: Option<&Tracer>) -> PaperPass {
    let (digest, wall, cpu) = measure(|| paper_calls(engine, scale, tracer));
    let summary = engine.store_summary();
    PaperPass {
        digest,
        simulated: engine.simulated_runs(),
        records: engine.store().map_or(0, Store::record_count),
        walks_cold: summary.walks.cold,
        runs_warm: summary.runs.warm,
        fig4: engine.run_many(&fig4_keys(engine, scale)),
        wall,
        cpu,
    }
}

/// The cold-pass checks: Figure 4's runs commit exactly `commits`, the
/// engine simulated each of the plan's unique keys (one store record
/// each), and the digest matches `reference`.
fn check_cold(pass: &PaperPass, commits: u64, reference: Option<u64>, out: &mut Outcome) {
    out.attempted += pass.simulated;
    let ops = pass.simulated.max(1);
    let short = pass.fig4.iter().filter(|r| r.committed != commits).count() as u64;
    if short > 0 {
        out.fail(short, "a run committed other than max_commits");
    }
    if pass.simulated == 0 || pass.simulated != pass.records as u64 {
        out.fail(ops, "simulated runs differ from the plan's unique keys");
    }
    if reference.is_some_and(|d| d != pass.digest) {
        out.fail(ops, "digest differs across passes");
    }
}

/// The replay check: a replay simulates no run, measures no walk and
/// reproduces `reference`, the digest of the pass that filled the store
/// (`None` when the fills disagreed, which fails every replay).
fn check_replay(pass: &PaperPass, reference: Option<u64>, out: &mut Outcome) {
    out.attempted += 1;
    if reference != Some(pass.digest) || pass.simulated != 0 || pass.walks_cold != 0 {
        out.fail(
            1,
            "a replay simulated, or its digest differs from the cold fill",
        );
    }
}

/// Replays run by [`warm_read_layers`] for `replay_ms.p50`.
const WARM_REPLAYS: usize = 30;

/// Tracer run of the traced warm replay in `paper-cold`'s traced run
/// (its traced passes are runs 1, 2, ...).
const WARM_REPLAY_RUN: u64 = 0;

/// The read path over the store a traced cold pass filled in `dir`:
/// `replay_ms.p50` from [`WARM_REPLAYS`] untraced replays (each a fresh
/// `Store::open` + `Engine` and the nine calls), then the store open and
/// batched loads of one traced replay. Every replay is checked against
/// the cold pass's digest `cold`.
fn warm_read_layers(
    tracer: &Arc<Tracer>,
    dir: &Path,
    scale: &ExperimentScale,
    cold: u64,
    out: &mut Outcome,
) {
    let mut ms = Vec::new();
    for _ in 0..WARM_REPLAYS {
        let ((engine, _), open_wall, _) = measure(|| engine_over(dir, None));
        let pass = paper_pass(&engine, scale, None);
        ms.push((open_wall + pass.wall) * 1e3);
        check_replay(&pass, Some(cold), out);
    }
    out.layer("replay_ms.p50", median(&ms));
    tracer.set_run(WARM_REPLAY_RUN);
    let (engine, _) = engine_over(dir, Some(tracer));
    let pass = paper_pass(&engine, scale, Some(tracer));
    check_replay(&pass, Some(cold), out);
    store_read_layers(tracer, WARM_REPLAY_RUN, out);
}

/// Durations (ms) of the spans named `name` in pass `run`.
fn span_ms(tracer: &Tracer, name: &str, run: u64) -> Vec<f64> {
    tracer
        .durations(name, run)
        .iter()
        .map(|s| s * 1e3)
        .collect()
}

/// The store open and batched-load times of pass `run`.
fn store_read_layers(tracer: &Tracer, run: u64, out: &mut Outcome) {
    let ms = |name: &str| span_ms(tracer, name, run);
    out.layer("core.store.open_ms", ms("core.store.open").iter().sum());
    out.layer(
        "core.store.load_many_ms.p50",
        median(&ms("core.store.load_many")),
    );
}

/// Store layers of pass `run` from the wrapper's spans and traffic.
fn store_layers(tracer: &Tracer, run: u64, traffic: &StoreTraffic, out: &mut Outcome) {
    store_read_layers(tracer, run, out);
    let mut saves = span_ms(tracer, "core.store.save", run);
    saves.extend(span_ms(tracer, "core.store.save_many", run));
    out.layer("core.store.save_us.p50", median(&saves) * 1e3);
    out.layer("core.store.loads", traffic.loads as f64);
    out.layer("core.store.saves", traffic.saves as f64);
    for ns in [NS_RUNS, NS_WALKS, NS_PROGRAMS, NS_TRACES] {
        out.layer(
            format!("core.store.bytes.{ns}"),
            traffic.bytes.get(ns).copied().unwrap_or(0) as f64,
        );
    }
}

/// Layers of a traced cold pass (pass 1 of `tracer`) over the store in
/// `dir`, including the check of every saved run record.
fn cold_layers(
    tracer: &Tracer,
    pass: &PaperPass,
    timed: &TimedStore,
    commits: u64,
    dir: &Path,
    out: &mut Outcome,
) {
    for call in PAPER_CALLS {
        let name = format!("core.experiment.{call}");
        out.layer(format!("{name}_s"), tracer.durations(&name, 1).iter().sum());
    }
    simulation_layers(
        tracer,
        1,
        "core.simulator.run",
        commits,
        (pass.wall, pass.cpu),
        out,
    );
    out.layer("core.engine.simulated_runs", pass.simulated as f64);
    let traffic = timed.traffic();
    let bad = traffic
        .run_records
        .iter()
        .filter(|v| {
            RunReport::from_record(&mut RecordReader::new(v))
                .map_or(true, |rep| rep.committed != commits)
        })
        .count() as u64;
    if bad > 0 {
        out.fail(bad, "a saved run record is malformed or short");
    }
    store_layers(tracer, 1, &traffic, out);
    out.layer("store_bytes", dir_bytes(dir) as f64);
    out.layer("paper_err_pp", paper_err_pp(&pass.fig4));
    let reports: Vec<&RunReport> = pass.fig4.iter().map(|r| &**r).collect();
    modelled(&reports, out);
    record_codec(&reports, out);
}

/// Component replay over the six paper programs (plain layout), with
/// their generation and compilation timings.
fn paper_components(seed: u64, out: &mut Outcome) {
    let items: Vec<(GeneratorParams, StrategyKind)> = profiles::all()
        .into_iter()
        .map(|p| (p.params, StrategyKind::Base))
        .collect();
    let built = build_programs(&items, None, out);
    let laid: Vec<&LaidProgram> = built.iter().map(|(l, _)| l).collect();
    components(&laid, seed, out);
}

// -------------------------------------------------------------- paper-cold

fn paper_cold(args: &RunArgs) -> Outcome {
    let scale = scale_of(args);
    let mut out = Outcome::default();
    if args.trace {
        let tracer = Tracer::new();
        let reference = Cell::new(None);
        overhead_loops(
            args.seconds,
            &tracer,
            &mut out,
            |out| {
                let dir = fresh_dir(&args.out_dir, "cold-untraced");
                let (engine, _) = engine_over(&dir, None);
                let pass = paper_pass(&engine, &scale, None);
                drop(engine);
                let _ = std::fs::remove_dir_all(&dir);
                check_cold(&pass, args.commits, reference.get(), out);
                reference.set(reference.get().or(Some(pass.digest)));
                pass.wall
            },
            |run, out| {
                let dir = fresh_dir(&args.out_dir, "cold-traced");
                let (engine, timed) = engine_over(&dir, Some(&tracer));
                let pass = paper_pass(&engine, &scale, Some(&tracer));
                drop(engine);
                check_cold(&pass, args.commits, reference.get(), out);
                if run == 1 {
                    let timed = timed.expect("a traced pass runs over the wrapper");
                    cold_layers(&tracer, &pass, &timed, args.commits, &dir, out);
                    drop(timed);
                    warm_read_layers(&tracer, &dir, &scale, pass.digest, out);
                    out.digest = pass.digest;
                }
                let _ = std::fs::remove_dir_all(&dir);
                pass.wall
            },
        );
        paper_components(args.seed, &mut out);
        finish_trace(args, &tracer, &mut out);
        return out;
    }
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    let mut commits = 0;
    timed_loop(args.seconds, 3, |i| {
        let dir = fresh_dir(&args.out_dir, &format!("cold-{i}"));
        // Set-up: the engine and its empty store.
        let t = Instant::now();
        let (engine, _) = engine_over(&dir, None);
        setups.push(t.elapsed().as_secs_f64());
        let pass = paper_pass(&engine, &scale, None);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        check_cold(&pass, args.commits, reference, &mut out);
        reference.get_or_insert(pass.digest);
        commits = pass.simulated * args.commits;
        walls.push(pass.wall);
        cpus.push(pass.cpu);
    });
    out.digest = reference.unwrap_or(0);
    end_to_end(&mut out, &walls, &cpus, commits as f64, &setups);
    out
}

// -------------------------------------------------------------- paper-warm

/// Fills the store in `dir` with `paper-cold`'s plan (3 times, timed, as
/// the set-up; once, traced, for the traced run), applies `corrupt`, then
/// replays: each replay opens the store, builds an engine over it and
/// runs the nine calls.
fn paper_warm(args: &RunArgs, corrupt: Option<Corruptor<'_>>) -> Outcome {
    let scale = scale_of(args);
    let mut out = Outcome::default();
    let tracer = args.trace.then(Tracer::new);
    let dir = fresh_dir(&args.out_dir, "warm");
    let mut setups = Vec::new();
    let mut fill_digests = Vec::new();
    for _ in 0..if args.trace { 1 } else { 3 } {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        if let Some(tr) = &tracer {
            // The fill is this workload's simulating part: its runs give
            // the simulator and engine layers.
            tr.set_run(1);
            let (engine, timed) = engine_over(&dir, Some(tr));
            let pass = paper_pass(&engine, &scale, Some(tr));
            drop(engine);
            check_cold(&pass, args.commits, None, &mut out);
            let timed = timed.expect("a traced pass runs over the wrapper");
            cold_layers(tr, &pass, &timed, args.commits, &dir, &mut out);
            fill_digests.push(pass.digest);
        } else {
            let (engine, _) = engine_over(&dir, None);
            fill_digests.push(paper_calls(&engine, &scale, None));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    if let Some(f) = corrupt {
        f(&dir, &scale);
    }
    let reference = fill_digests[0];
    let checked = fill_digests
        .iter()
        .all(|&d| d == reference)
        .then_some(reference);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut delivered = 0;
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // At least 200 replays, so more than 10 samples lie beyond p95.
    timed_loop(budget, 200, |_| {
        // A replay's time includes opening the store.
        let ((engine, _), open_wall, open_cpu) = measure(|| engine_over(&dir, None));
        let pass = paper_pass(&engine, &scale, None);
        walls.push(open_wall + pass.wall);
        cpus.push(open_cpu + pass.cpu);
        delivered = pass.runs_warm * args.commits;
        check_replay(&pass, checked, &mut out);
    });
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let (p50, p95) = (median(&ms), quantile(&ms, 0.95));
    out.layer("replay_ms.p50", p50);
    out.layer("replay_ms.p95", p95);
    out.info.push((
        "replay_ms".into(),
        format!(
            "{{\"p50\": {p50}, \"p95\": {p95}, \"samples\": {}}}",
            ms.len()
        ),
    ));
    out.digest = reference;
    match &tracer {
        None => end_to_end(&mut out, &walls, &cpus, delivered as f64, &setups),
        Some(tr) => {
            let mut traced = Vec::new();
            let mut last = None;
            let start = Instant::now();
            while traced.len() < 20 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
                let run = traced.len() as u64 + 2;
                tr.set_run(run);
                let ((engine, timed), open_wall, _) = measure(|| engine_over(&dir, Some(tr)));
                let pass = paper_pass(&engine, &scale, Some(tr));
                traced.push(open_wall + pass.wall);
                check_replay(&pass, checked, &mut out);
                last = timed.map(|timed| (run, timed.traffic()));
            }
            // Store layers from the last traced replay; experiment spans
            // as the median over the traced replays.
            if let Some((run, traffic)) = last {
                store_layers(tr, run, &traffic, &mut out);
            }
            for call in PAPER_CALLS {
                let name = format!("core.experiment.{call}");
                let per_replay: Vec<f64> =
                    tr.sums_by_run(&name).range(2..).map(|(_, s)| *s).collect();
                out.layer(format!("{name}_s"), median(&per_replay));
            }
            // Nothing simulates during a replay.
            out.layer("core.engine.simulated_runs", 0.0);
            out.layer(
                "core.engine.parallel_eff",
                median(&cpus) / (median(&walls) * threads() as f64),
            );
            paper_components(args.seed, &mut out);
            overhead(&mut out, median(&walls), median(&traced));
            finish_trace(args, tr, &mut out);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// --------------------------------------------------------------- multiprog

/// OS cost constants of the `table_os` sweep (cycles).
const SWITCH_PENALTY: u32 = 400;
const SHOOTDOWN_PER_ENTRY: u32 = 2;
const FAULT_LATENCY: u32 = 300;
const DEMAND_FAULT_PENALTY: u32 = 800;

/// Seed of the 4-program mix: `table_os`'s default seed, so every
/// workload seed runs the same four programs (a per-seed mix would make
/// the amount of work, and so every timing, depend on the seed).
const MIX_SEED: u64 = 0x5EED;

/// The `table_os` sweep: quantum {10k, 50k, 250k} x {ASID 2, ASID 16,
/// flush} over `table_os`'s 4-program mix, IA under VI-PT. The workload
/// seed is the walker seed.
#[must_use]
fn multiprog_configs(scale: &ExperimentScale) -> Vec<ScenarioConfig> {
    let names = profiles::mix(MIX_SEED, 4);
    let mut cfgs = Vec::new();
    for quantum in [10_000u64, 50_000, 250_000] {
        for (tlb_mode, asid_count) in [
            (TlbMode::Asid, 2u16),
            (TlbMode::Asid, 16),
            (TlbMode::Flush, 1),
        ] {
            let mut cfg = ScenarioConfig::new(
                names.iter().map(|n| ScenarioProc::new(n)).collect(),
                *scale,
                StrategyKind::Ia,
                AddressingMode::ViPt,
            );
            cfg.quantum = quantum;
            cfg.tlb_mode = tlb_mode;
            cfg.asid_count = asid_count;
            cfg.switch_penalty = SWITCH_PENALTY;
            cfg.shootdown_per_entry = SHOOTDOWN_PER_ENTRY;
            cfg.fault_latency = FAULT_LATENCY;
            cfg.demand_fault_penalty = DEMAND_FAULT_PENALTY;
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// Every process of every scenario commits exactly `commits` and the
/// digest matches `reference`; returns the digest.
fn check_scenarios(
    reports: &[Arc<ScenarioReport>],
    commits: u64,
    reference: Option<u64>,
    out: &mut Outcome,
) -> u64 {
    out.attempted += reports.len() as u64;
    let short = reports
        .iter()
        .filter(|r| {
            r.per_proc_committed.iter().any(|&c| c != commits)
                || r.machine.committed != commits * r.per_proc_committed.len() as u64
        })
        .count() as u64;
    if short > 0 {
        out.fail(short, "a scenario process committed other than max_commits");
    }
    let records: Vec<String> = reports
        .iter()
        .map(|r| {
            let mut w = RecordWriter::new();
            r.to_record(&mut w);
            w.finish()
        })
        .collect();
    check_digest(&records, reference, reports.len() as u64, out)
}

/// The traced pass: the mix's binaries built by direct calls, then each
/// scenario simulated by a direct `scenario::simulate` call on
/// `threads()` workers pulling from a shared queue.
fn multiprog_traced(
    cfgs: &[ScenarioConfig],
    tracer: &Tracer,
    out: &mut Outcome,
) -> (Vec<Arc<ScenarioReport>>, Vec<LaidProgram>) {
    let items: Vec<(GeneratorParams, StrategyKind)> = cfgs[0]
        .procs
        .iter()
        .map(|p| {
            let profile = profiles::all()
                .into_iter()
                .find(|q| q.name == p.profile)
                .expect("the mix names registered profiles");
            (profile.params, cfgs[0].strategy)
        })
        .collect();
    let (laid, traces): (Vec<LaidProgram>, Vec<CompiledTrace>) =
        build_programs(&items, Some(tracer), out)
            .into_iter()
            .unzip();
    let bins: Vec<ScenarioBinary> = laid
        .iter()
        .zip(traces)
        .map(|(l, t)| ScenarioBinary {
            laid: Arc::new(l.clone()),
            trace: Some(Arc::new(t)),
        })
        .collect();
    let backend = ExecBackend::from_env();
    let next = AtomicUsize::new(0);
    let batch = tracer.root_span("core.scenario.batch");
    let mut done: Vec<(usize, ScenarioReport)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads())
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cfg) = cfgs.get(i) else { break mine };
                        let _span = tracer.span("core.scenario.simulate");
                        mine.push((i, scenario::simulate(cfg, &bins, backend)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a scenario worker panicked"))
            .collect()
    });
    drop(batch);
    done.sort_by_key(|(i, _)| *i);
    (done.into_iter().map(|(_, r)| Arc::new(r)).collect(), laid)
}

/// Layers of the first traced multiprog pass: simulation and engine
/// layers from its `core.scenario.simulate` spans (a scenario commits
/// `commits` per process), the scenario counts, the modelled metrics and
/// record codec over the machine reports, and the component replay of
/// the mix's programs.
fn multiprog_layers(
    tracer: &Tracer,
    reports: &[Arc<ScenarioReport>],
    laid: &[LaidProgram],
    args: &RunArgs,
    procs: u64,
    wall_cpu: (f64, f64),
    out: &mut Outcome,
) {
    let secs = simulation_layers(
        tracer,
        1,
        "core.scenario.simulate",
        args.commits * procs,
        wall_cpu,
        out,
    );
    out.layer("core.scenario.run_s.p50", median(&secs));
    out.layer("core.scenario.run_s.max", quantile(&secs, 1.0));
    out.layer(
        "core.scenario.ns_per_commit",
        out.layers["core.simulator.ns_per_commit.p50"],
    );
    let sum = |f: fn(&ScenarioReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.layer(
        "core.scenario.context_switches",
        sum(|r| r.context_switches),
    );
    out.layer(
        "core.scenario.tlb_flushed",
        sum(|r| r.itlb_flushed + r.dtlb_flushed),
    );
    out.layer("core.scenario.shootdowns", sum(|r| r.shootdowns));
    let machines: Vec<&RunReport> = reports.iter().map(|r| &r.machine).collect();
    modelled(&machines, out);
    record_codec(&machines, out);
    components(&laid.iter().collect::<Vec<_>>(), args.seed, out);
}

fn multiprog(args: &RunArgs) -> Outcome {
    let scale = scale_of(args);
    let cfgs = multiprog_configs(&scale);
    let procs = cfgs[0].procs.len() as u64;
    let mut out = Outcome::default();
    out.info.push((
        "mix".into(),
        json_str(&profiles::mix(MIX_SEED, 4).join(",")),
    ));
    if args.trace {
        let tracer = Tracer::new();
        let reference = Cell::new(None);
        overhead_loops(
            args.seconds,
            &tracer,
            &mut out,
            |out| {
                let (reports, wall, _) = measure(|| Engine::new().run_scenarios(&cfgs));
                let digest = check_scenarios(&reports, args.commits, reference.get(), out);
                reference.set(reference.get().or(Some(digest)));
                wall
            },
            |run, out| {
                let ((reports, laid), wall, cpu) =
                    measure(|| multiprog_traced(&cfgs, &tracer, out));
                let digest = check_scenarios(&reports, args.commits, reference.get(), out);
                if run == 1 {
                    out.digest = digest;
                    multiprog_layers(&tracer, &reports, &laid, args, procs, (wall, cpu), out);
                }
                wall
            },
        );
        finish_trace(args, &tracer, &mut out);
        return out;
    }
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    timed_loop(args.seconds, 5, |_| {
        // Set-up: the in-memory engine and the sweep's configs.
        let t = Instant::now();
        let engine = Engine::new();
        let cfgs = multiprog_configs(&scale);
        setups.push(t.elapsed().as_secs_f64());
        let (reports, wall, cpu) = measure(|| engine.run_scenarios(&cfgs));
        let digest = check_scenarios(&reports, args.commits, reference, &mut out);
        reference.get_or_insert(digest);
        walls.push(wall);
        cpus.push(cpu);
    });
    out.digest = reference.unwrap_or(0);
    let commits = args.commits * procs * cfgs.len() as u64;
    end_to_end(&mut out, &walls, &cpus, commits as f64, &setups);
    out
}

// ----------------------------------------------------------------- metrics

/// Fills the end-to-end metrics from per-pass samples. `commits` is the
/// committed instructions one pass delivers.
fn end_to_end(out: &mut Outcome, walls: &[f64], cpus: &[f64], commits: f64, setups: &[f64]) {
    let wall = median(walls);
    out.metrics.insert("wall_s", wall);
    out.metrics.insert("cpu_s", median(cpus));
    out.metrics.insert("commits_per_s", commits / wall);
    out.metrics.insert("setup_s", median(setups));
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out.info.push((
        "pass_wall_s".into(),
        format!(
            "{{\"n\": {}, \"min\": {}, \"p25\": {}, \"p50\": {wall}, \"p75\": {}, \"max\": {}}}",
            walls.len(),
            quantile(walls, 0.0),
            quantile(walls, 0.25),
            quantile(walls, 0.75),
            quantile(walls, 1.0)
        ),
    ));
}

/// The traced run's timed part: untraced passes for the first half of
/// `seconds`, then traced passes (pass `i` is tracer run `i`, from 1) for
/// the second, at least one of each; each closure returns its pass's
/// wall time. Records the tracing overhead from the two medians.
fn overhead_loops(
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    mut untraced: impl FnMut(&mut Outcome) -> f64,
    mut traced: impl FnMut(u64, &mut Outcome) -> f64,
) {
    let mut plain = Vec::new();
    timed_loop(seconds / 2.0, 1, |_| plain.push(untraced(out)));
    let mut walls = Vec::new();
    timed_loop(seconds / 2.0, 1, |i| {
        let run = i as u64 + 1;
        tracer.set_run(run);
        walls.push(traced(run, out));
    });
    overhead(out, median(&plain), median(&walls));
}

fn overhead(out: &mut Outcome, untraced: f64, traced: f64) {
    out.layer("trace.untraced_wall_s", untraced);
    out.layer("trace.traced_wall_s", traced);
    out.layer("trace.overhead_s", traced - untraced);
}

/// Writes the span trace and the layer report, fills zeros for layers
/// this workload does not exercise, and selects the declared per-layer
/// metrics.
fn finish_trace(args: &RunArgs, tracer: &Tracer, out: &mut Outcome) {
    let names = crate::PER_LAYER.iter().map(|(n, _)| *n);
    for name in names.chain(crate::LAYER_REPORT_ONLY.iter().copied()) {
        out.layers.entry(name.to_string()).or_insert(0.0);
    }
    let stem = format!("{}-{}", args.workload.name(), args.seed);
    let trace_path = args.out_dir.join(format!("trace-{stem}.jsonl"));
    let layers_path = args.out_dir.join(format!("layers-{stem}.json"));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        out.fail(1, &format!("cannot write the span trace: {e}"));
    }
    let body: Vec<String> = out
        .layers
        .iter()
        .map(|(k, v)| format!("  {}: {}", json_str(k), crate::json_number(*v)))
        .collect();
    if let Err(e) = std::fs::write(&layers_path, format!("{{\n{}\n}}\n", body.join(",\n"))) {
        out.fail(1, &format!("cannot write the layer report: {e}"));
    }
    for (key, path) in [("trace_file", &trace_path), ("layers_file", &layers_path)] {
        out.info
            .push((key.into(), json_str(&path.display().to_string())));
    }
    out.info
        .push(("spans".into(), tracer.spans().len().to_string()));
    for &(name, _) in crate::PER_LAYER {
        out.metrics.insert(name, out.layers[name]);
    }
}
