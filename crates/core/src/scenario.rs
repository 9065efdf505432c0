//! Multiprogrammed OS scenarios: time-slicing N programs over one core.
//!
//! The paper evaluates its CFR mechanisms on single programs; its §3.2
//! sketches the OS interactions — the CFR is invalidated on a context
//! switch, pages can be evicted — without quantifying them. This module
//! quantifies them: a [`ScenarioConfig`] describes N generated programs
//! round-robin scheduled over one core with a cycle quantum, and
//! [`simulate`] runs the whole mix to completion on one machine model:
//!
//! - each process has its **own** pipeline state, page table, and private
//!   caches (a pipeline is frozen mid-flight when its quantum expires and
//!   resumed transparently later — see `Pipeline::run_slice`),
//! - the **iTLB + CFR** (one [`Strategy`]) and the **dTLB** are shared
//!   hardware, migrated between processes by the scheduler,
//! - the shared TLBs run in one of two [`TlbMode`]s: **ASID-tagged**
//!   (entries are tagged with the incoming process's address-space ID;
//!   ASID reuse forces a shootdown) or **flush-on-switch** (every entry —
//!   and the MRU recency / last-hit fast paths behind them — is
//!   invalidated on each switch),
//! - context-switch, per-entry shootdown, demand-fault, and
//!   protection-fault-trap latencies are all configurable and all cost
//!   cycles (fault traps cost energy too, via the strategy's meter).
//!
//! **Degeneracy guarantee** (enforced by `tests/scenario_differential.rs`):
//! a 1-process scenario with an infinite quantum and zero penalties is
//! field-for-field identical to the plain [`crate::Simulator`] path, under
//! both execution backends and both TLB modes.

use std::sync::Arc;

use cfr_cpu::{CompiledBackend, CpuStats, FetchTranslator as _, InterpBackend, Pipeline, SliceEnd};
use cfr_energy::EnergyModel;
use cfr_mem::CacheStats;
use cfr_types::{AddressingMode, PageGeometry, RecordError, RecordReader, RecordWriter};
use cfr_workload::{CompiledTrace, LaidProgram};

use crate::experiment::ExperimentScale;
use crate::simulator::{ExecBackend, Executable, RunReport, SimConfig};
use crate::strategy::{Strategy, StrategyKind};

/// How the shared TLBs (iTLB and dTLB) survive a context switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TlbMode {
    /// Entries are tagged with the running process's address-space ID;
    /// switches retag, and ASID reuse shoots down the recycled space.
    Asid,
    /// Every entry is invalidated on every switch (architectures without
    /// ASIDs). Set state, MRU recency, and last-hit fast paths all clear.
    Flush,
}

impl TlbMode {
    /// Stable lower-case name (`asid` / `flush`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TlbMode::Asid => "asid",
            TlbMode::Flush => "flush",
        }
    }

    /// Serializes as the mode name (persistent store codec).
    pub fn to_record(self, w: &mut RecordWriter) {
        w.token(self.name());
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on an unknown mode token.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        match r.token()? {
            "asid" => Ok(TlbMode::Asid),
            "flush" => Ok(TlbMode::Flush),
            other => Err(RecordError::new(format!("unknown TLB mode {other:?}"))),
        }
    }
}

/// One process of a scenario: a benchmark profile, optionally laid out
/// with a non-default page size (the 4K/2M mix axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioProc {
    /// Benchmark profile name (resolved against the engine's registry).
    pub profile: &'static str,
    /// Page-size override in bytes (`None` = the paper's 4 KB).
    pub page_bytes: Option<u64>,
}

impl ScenarioProc {
    /// A process at the default page size.
    #[must_use]
    pub fn new(profile: &'static str) -> Self {
        Self {
            profile,
            page_bytes: None,
        }
    }

    /// The same process at an explicit page size; the default page size
    /// canonicalizes to "no override" so equal configurations share one
    /// store record.
    #[must_use]
    pub fn with_page_bytes(mut self, bytes: u64) -> Self {
        let default = PageGeometry::default_4k().page_bytes();
        self.page_bytes = (bytes != default).then_some(bytes);
        self
    }
}

/// Quantum value meaning "never preempt" (run each process to completion
/// in its first activation).
pub const QUANTUM_INFINITE: u64 = u64::MAX;

/// The identity of one multiprogrammed scenario run. Equal configs produce
/// bit-identical [`ScenarioReport`]s, which makes the engine's dedup and
/// the persistent `scenarios` store namespace sound.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScenarioConfig {
    /// The process mix, in scheduling order.
    pub procs: Vec<ScenarioProc>,
    /// Per-process run length and base walker seed (process `i` walks with
    /// `seed + i`, so equal profiles still execute distinct streams).
    pub scale: ExperimentScale,
    /// CFR strategy driving the shared fetch-translation path.
    pub strategy: StrategyKind,
    /// iL1 addressing mode.
    pub mode: AddressingMode,
    /// ASID-tagged vs flush-on-switch shared TLBs.
    pub tlb_mode: TlbMode,
    /// Hardware ASIDs available (process `i` gets ASID `i % asid_count`,
    /// so fewer ASIDs than processes forces shootdowns on reuse). Ignored
    /// in flush mode. Must be ≥ 1.
    pub asid_count: u16,
    /// Scheduling quantum in cycles ([`QUANTUM_INFINITE`] = no
    /// preemption). Must be ≥ 1.
    pub quantum: u64,
    /// Flat cycles charged per context switch (register save/restore,
    /// kernel path).
    pub switch_penalty: u32,
    /// Cycles charged per TLB entry flushed or shot down at a switch.
    pub shootdown_per_entry: u32,
    /// Cycles a protection fault spends trapping to the OS handler, wired
    /// into both the fetch path (with a `fault_trap` energy charge) and
    /// the data path. 0 keeps faults free, as in the single-program model.
    pub fault_latency: u32,
    /// Cycles a demand fault (first touch of an unmapped page) adds on top
    /// of a TLB miss. 0 disables demand-fault accounting entirely.
    pub demand_fault_penalty: u32,
}

impl ScenarioConfig {
    /// A scenario with the OS knobs at their degenerate defaults:
    /// ASID-tagged TLBs, 16 ASIDs, no preemption, and every penalty zero.
    #[must_use]
    pub fn new(
        procs: Vec<ScenarioProc>,
        scale: ExperimentScale,
        strategy: StrategyKind,
        mode: AddressingMode,
    ) -> Self {
        Self {
            procs,
            scale,
            strategy,
            mode,
            tlb_mode: TlbMode::Asid,
            asid_count: 16,
            quantum: QUANTUM_INFINITE,
            switch_penalty: 0,
            shootdown_per_entry: 0,
            fault_latency: 0,
            demand_fault_penalty: 0,
        }
    }

    /// Serializes every identity field. The record doubles as the store's
    /// content address (`scenarios` namespace), exactly like
    /// [`crate::RunKey::to_record`].
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("scenario");
        w.u64(self.procs.len() as u64);
        for p in &self.procs {
            w.token(p.profile);
            match p.page_bytes {
                None => w.token("default"),
                Some(bytes) => w.u64(bytes),
            }
        }
        self.scale.to_record(w);
        self.strategy.to_record(w);
        self.mode.to_record(w);
        self.tlb_mode.to_record(w);
        w.u64(u64::from(self.asid_count));
        w.u64(self.quantum);
        w.u64(u64::from(self.switch_penalty));
        w.u64(u64::from(self.shootdown_per_entry));
        w.u64(u64::from(self.fault_latency));
        w.u64(u64::from(self.demand_fault_penalty));
    }

    /// Parses a [`Self::to_record`] stream. `resolve` maps a profile name
    /// back to its registered `&'static str`.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream or an unresolvable profile name.
    pub fn from_record(
        r: &mut RecordReader<'_>,
        resolve: impl Fn(&str) -> Option<&'static str>,
    ) -> Result<Self, RecordError> {
        r.expect("scenario")?;
        let n = r.u64()?;
        let mut procs = Vec::new();
        for _ in 0..n {
            let name = r.token()?;
            let profile = resolve(name)
                .ok_or_else(|| RecordError::new(format!("unknown benchmark profile {name:?}")))?;
            let page_bytes = match r.token()? {
                "default" => None,
                bytes => Some(bytes.parse::<u64>().map_err(|_| {
                    RecordError::new(format!("malformed page-size token {bytes:?}"))
                })?),
            };
            procs.push(ScenarioProc {
                profile,
                page_bytes,
            });
        }
        Ok(Self {
            procs,
            scale: ExperimentScale::from_record(r)?,
            strategy: StrategyKind::from_record(r)?,
            mode: AddressingMode::from_record(r)?,
            tlb_mode: TlbMode::from_record(r)?,
            asid_count: read_u16(r, "ASID count")?,
            quantum: r.u64()?,
            switch_penalty: r.u32()?,
            shootdown_per_entry: r.u32()?,
            fault_latency: r.u32()?,
            demand_fault_penalty: r.u32()?,
        })
    }

    /// The record string — the scenario's store key.
    #[must_use]
    pub fn store_key(&self) -> String {
        let mut w = RecordWriter::new();
        self.to_record(&mut w);
        w.finish()
    }

    /// The per-process simulator configuration: the scale's config with
    /// this process's page geometry, walker seed (`scale.seed + index`),
    /// and the scenario's data-side fault latency applied.
    ///
    /// # Panics
    ///
    /// Panics if a page-size override is not a power of two.
    #[must_use]
    pub fn proc_config(&self, index: usize) -> SimConfig {
        let mut cfg = self.scale.config();
        if let Some(bytes) = self.procs[index].page_bytes {
            cfg.cpu.geometry = PageGeometry::new(bytes).expect("page size must be a power of two");
        }
        cfg.seed = self.scale.seed.wrapping_add(index as u64);
        cfg.cpu.fault_latency = self.fault_latency;
        cfg
    }
}

fn read_u16(r: &mut RecordReader<'_>, what: &str) -> Result<u16, RecordError> {
    let v = r.u64()?;
    u16::try_from(v).map_err(|_| RecordError::new(format!("{what} {v} out of range")))
}

/// The executable artifacts of one scenario process, resolved by a
/// [`simulate`] caller (the [`crate::Engine`] instead memoizes, per
/// compilation class, only the artifact its backend executes).
#[derive(Clone, Debug)]
pub struct ScenarioBinary {
    /// The laid-out, instrumented program.
    pub laid: Arc<LaidProgram>,
    /// Its pre-decoded trace — required under [`ExecBackend::Compiled`].
    pub trace: Option<Arc<CompiledTrace>>,
}

/// What one scenario run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Whole-machine totals in [`RunReport`] shape: summed pipeline
    /// counters, the shared iTLB/CFR stats, energy, and the global cycle
    /// clock. For a 1-process infinite-quantum scenario this is
    /// field-identical to the plain simulator's report.
    pub machine: RunReport,
    /// Instructions committed per process, in mix order.
    pub per_proc_committed: Vec<u64>,
    /// Context switches taken (process-to-process handoffs).
    pub context_switches: u64,
    /// iTLB entries invalidated by flush-on-switch.
    pub itlb_flushed: u64,
    /// dTLB entries invalidated by flush-on-switch.
    pub dtlb_flushed: u64,
    /// TLB entries (both TLBs) shot down by ASID reuse.
    pub shootdowns: u64,
    /// Demand faults taken (first touches of unmapped pages, both TLBs);
    /// 0 unless a demand-fault penalty is configured.
    pub demand_faults: u64,
    /// Cycles spent in switch overhead (switch penalty + per-entry
    /// shootdown/flush charges), already included in `machine.cycles`.
    pub switch_cycles: u64,
}

impl ScenarioReport {
    /// Machine cycles per committed instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.machine.committed == 0 {
            0.0
        } else {
            self.machine.cycles as f64 / self.machine.committed as f64
        }
    }

    /// Serializes the full report (persistent store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("scenreport");
        self.machine.to_record(w);
        w.u64(self.per_proc_committed.len() as u64);
        for &c in &self.per_proc_committed {
            w.u64(c);
        }
        w.u64(self.context_switches);
        w.u64(self.itlb_flushed);
        w.u64(self.dtlb_flushed);
        w.u64(self.shootdowns);
        w.u64(self.demand_faults);
        w.u64(self.switch_cycles);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream — the store treats any error as a
    /// cache miss and re-simulates.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("scenreport")?;
        let machine = RunReport::from_record(r)?;
        let n = r.u64()?;
        let mut per_proc_committed = Vec::new();
        for _ in 0..n {
            per_proc_committed.push(r.u64()?);
        }
        Ok(Self {
            machine,
            per_proc_committed,
            context_switches: r.u64()?,
            itlb_flushed: r.u64()?,
            dtlb_flushed: r.u64()?,
            shootdowns: r.u64()?,
            demand_faults: r.u64()?,
            switch_cycles: r.u64()?,
        })
    }
}

/// A per-process pipeline over either execution backend. Both backends
/// must agree field-for-field under scenarios, exactly as they do for
/// single runs (`tests/scenario_differential.rs` proves it).
enum AnyPipeline<'a> {
    Interp(Pipeline<InterpBackend<'a>>),
    Compiled(Pipeline<CompiledBackend<'a>>),
}

impl AnyPipeline<'_> {
    fn run_slice(&mut self, s: &mut Strategy, max_commits: u64, quantum_end: u64) -> SliceEnd {
        match self {
            AnyPipeline::Interp(p) => p.run_slice(s, max_commits, quantum_end),
            AnyPipeline::Compiled(p) => p.run_slice(s, max_commits, quantum_end),
        }
    }

    fn set_cycle(&mut self, cycle: u64) {
        match self {
            AnyPipeline::Interp(p) => p.set_cycle(cycle),
            AnyPipeline::Compiled(p) => p.set_cycle(cycle),
        }
    }

    fn cycle(&self) -> u64 {
        match self {
            AnyPipeline::Interp(p) => p.cycle(),
            AnyPipeline::Compiled(p) => p.cycle(),
        }
    }

    fn finalize_stats(&mut self) {
        match self {
            AnyPipeline::Interp(p) => p.finalize_stats(),
            AnyPipeline::Compiled(p) => p.finalize_stats(),
        }
    }

    fn stats(&self) -> &CpuStats {
        match self {
            AnyPipeline::Interp(p) => p.stats(),
            AnyPipeline::Compiled(p) => p.stats(),
        }
    }

    fn dtlb_mut(&mut self) -> &mut cfr_mem::Tlb {
        match self {
            AnyPipeline::Interp(p) => p.dtlb_mut(),
            AnyPipeline::Compiled(p) => p.dtlb_mut(),
        }
    }
}

/// Swaps the shared hardware dTLB between two per-process pipelines.
fn migrate_dtlb(pipes: &mut [AnyPipeline<'_>], from: usize, to: usize) {
    if from == to {
        return;
    }
    let (lo, hi) = if from < to { (from, to) } else { (to, from) };
    let (left, right) = pipes.split_at_mut(hi);
    std::mem::swap(left[lo].dtlb_mut(), right[0].dtlb_mut());
}

fn add_cache(into: &mut CacheStats, s: &CacheStats) {
    into.accesses += s.accesses;
    into.hits += s.hits;
    into.misses += s.misses;
    into.writebacks += s.writebacks;
}

/// Runs a scenario to completion (every process commits its full scale)
/// under an explicit execution backend and returns the aggregate report.
///
/// Deterministic: the report depends only on `cfg` and the binaries, never
/// on the backend (`Interp` and `Compiled` agree field-for-field) — which
/// is what lets the engine persist scenario reports content-addressed by
/// the config record alone.
///
/// # Panics
///
/// Panics if `bins` does not match `cfg.procs` one-for-one, if the
/// compiled backend is selected without traces, if `cfg.procs` is empty,
/// or if `asid_count` or `quantum` is zero.
#[must_use]
pub fn simulate(
    cfg: &ScenarioConfig,
    bins: &[ScenarioBinary],
    backend: ExecBackend,
) -> ScenarioReport {
    let procs: Vec<Executable> = bins
        .iter()
        .map(|bin| match backend {
            ExecBackend::Interp => Executable::Laid(Arc::clone(&bin.laid)),
            ExecBackend::Compiled => Executable::Trace(Arc::clone(
                bin.trace
                    .as_ref()
                    .expect("compiled backend needs a pre-decoded trace per process"),
            )),
        })
        .collect();
    run(cfg, &procs)
}

/// [`simulate`] over one executable per process, each run on the backend
/// its kind selects — the entry point the [`crate::Engine`] calls with its
/// memoized artifacts.
pub(crate) fn run(cfg: &ScenarioConfig, procs: &[Executable]) -> ScenarioReport {
    assert!(
        !cfg.procs.is_empty(),
        "a scenario needs at least one process"
    );
    assert_eq!(procs.len(), cfg.procs.len(), "one binary per process");
    assert!(cfg.asid_count >= 1, "at least one ASID");
    assert!(cfg.quantum >= 1, "a zero quantum cannot make progress");

    let n = cfg.procs.len();
    let sims: Vec<SimConfig> = (0..n).map(|i| cfg.proc_config(i)).collect();
    let mut pipes: Vec<AnyPipeline<'_>> = sims
        .iter()
        .zip(procs)
        .map(|(sim, exe)| match exe {
            Executable::Laid(laid) => AnyPipeline::Interp(Pipeline::new(laid, sim.cpu, sim.seed)),
            Executable::Trace(trace) => {
                AnyPipeline::Compiled(Pipeline::compiled(trace, sim.cpu, sim.seed))
            }
        })
        .collect();

    // The shared fetch-translation hardware (iTLB + CFR + energy meter),
    // constructed exactly as the plain simulator path does.
    let mut strategy = Strategy::with_itlb(
        cfg.strategy,
        cfg.mode,
        sims[0].cpu.geometry,
        sims[0].itlb.build(sims[0].itlb_miss_penalty),
        EnergyModel::default(),
    );
    strategy.set_fault_latency(cfg.fault_latency);
    strategy.set_demand_fault_penalty(cfg.demand_fault_penalty);
    // The shared dTLB starts in (and always lives in) the running pipe.
    pipes[0]
        .dtlb_mut()
        .set_demand_fault_penalty(cfg.demand_fault_penalty);

    let mut global: u64 = 0;
    let mut current: Option<usize> = None;
    let mut holder = 0usize; // which pipe holds the shared dTLB
    let mut asid_owner: Vec<Option<usize>> = vec![None; usize::from(cfg.asid_count)];
    let mut done = vec![false; n];
    let mut itlb_flushed = 0u64;
    let mut dtlb_flushed = 0u64;
    let mut shootdowns = 0u64;
    let mut switch_cycles = 0u64;

    while done.iter().any(|d| !d) {
        // Round-robin: the next not-yet-finished process after the
        // current one (the current process itself when it is the only
        // one left — no switch overhead then).
        let start = current.map_or(0, |c| (c + 1) % n);
        let next = (0..n)
            .map(|off| (start + off) % n)
            .find(|&i| !done[i])
            .expect("loop guard: someone is unfinished");

        match current {
            // First activation: no switch happened, so no switch handling
            // at all — this is what makes the 1-process scenario
            // degenerate exactly to the plain simulator path. ASID 0's
            // ownership is recorded (pure bookkeeping, no machine effect).
            None => {
                if cfg.tlb_mode == TlbMode::Asid {
                    asid_owner[next % usize::from(cfg.asid_count)] = Some(next);
                }
            }
            Some(cur) if cur != next => {
                strategy.on_context_switch();
                migrate_dtlb(&mut pipes, holder, next);
                holder = next;
                let mut charged_entries = 0u64;
                match cfg.tlb_mode {
                    TlbMode::Flush => {
                        let i = strategy.flush_itlb();
                        let d = pipes[holder].dtlb_mut().invalidate_all();
                        itlb_flushed += i;
                        dtlb_flushed += d;
                        charged_entries = i + d;
                    }
                    TlbMode::Asid => {
                        let slot = next % usize::from(cfg.asid_count);
                        let asid = slot as u16;
                        if asid_owner[slot] != Some(next) {
                            // The incoming process recycles an ASID that
                            // last belonged to someone else: shoot down
                            // every entry still tagged with it.
                            let shot = strategy.shootdown_asid(asid)
                                + pipes[holder].dtlb_mut().invalidate_asid(asid);
                            shootdowns += shot;
                            charged_entries = shot;
                            asid_owner[slot] = Some(next);
                        }
                        strategy.set_asid(asid);
                        pipes[holder].dtlb_mut().set_asid(asid);
                    }
                }
                strategy.set_geometry(sims[next].cpu.geometry);
                let cost = u64::from(cfg.switch_penalty)
                    + charged_entries * u64::from(cfg.shootdown_per_entry);
                switch_cycles += cost;
                global += cost;
            }
            // Quantum expired with no other runnable process: resume
            // without a switch.
            Some(_) => {}
        }
        current = Some(next);

        pipes[next].set_cycle(global);
        let quantum_end = global.saturating_add(cfg.quantum); // u64::MAX saturates to itself
        if pipes[next].run_slice(&mut strategy, cfg.scale.max_commits, quantum_end)
            == SliceEnd::Finished
        {
            done[next] = true;
        }
        global = pipes[next].cycle();
    }

    for pipe in &mut pipes {
        pipe.finalize_stats();
    }
    let mut agg = CpuStats::default();
    for pipe in &pipes {
        let s = pipe.stats();
        agg.committed += s.committed;
        agg.fetched += s.fetched;
        agg.wrong_path_fetched += s.wrong_path_fetched;
        agg.branches += s.branches;
        agg.mispredicts += s.mispredicts;
        agg.boundary_branches += s.boundary_branches;
        agg.crossings_branch += s.crossings_branch;
        agg.crossings_boundary += s.crossings_boundary;
        agg.loads += s.loads;
        agg.stores += s.stores;
        add_cache(&mut agg.il1, &s.il1);
        add_cache(&mut agg.dl1, &s.dl1);
        add_cache(&mut agg.l2, &s.l2);
    }
    agg.cycles = global;
    // The dTLB is shared hardware: its counters are read once, from the
    // pipe currently holding it, not summed over the parked (dead) copies.
    agg.dtlb = pipes[holder].stats().dtlb;
    let demand_faults = strategy.demand_faults() + pipes[holder].dtlb_mut().demand_faults();
    let per_proc_committed: Vec<u64> = pipes.iter().map(|p| p.stats().committed).collect();
    let context_switches = strategy.context_switches();

    let machine = RunReport {
        strategy: cfg.strategy,
        mode: cfg.mode,
        committed: agg.committed,
        cycles: global,
        itlb: strategy.itlb_stats(),
        energy: strategy.meter().clone(),
        breakdown: strategy.breakdown(),
        cpu: agg,
    };
    ScenarioReport {
        machine,
        per_proc_committed,
        context_switches,
        itlb_flushed,
        dtlb_flushed,
        shootdowns,
        demand_faults,
        switch_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler;
    use crate::simulator::Simulator;
    use cfr_workload::{compile_trace, profiles};

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            max_commits: 8_000,
            seed: 0x5EED,
        }
    }

    fn mix_cfg(names: &[&'static str]) -> ScenarioConfig {
        ScenarioConfig::new(
            names.iter().map(|n| ScenarioProc::new(n)).collect(),
            tiny_scale(),
            StrategyKind::Ia,
            AddressingMode::ViPt,
        )
    }

    /// Compiles each process's binary the way the engine would.
    fn bins_for(cfg: &ScenarioConfig, with_traces: bool) -> Vec<ScenarioBinary> {
        let all = profiles::all();
        (0..cfg.procs.len())
            .map(|i| {
                let p = all
                    .iter()
                    .find(|p| p.name == cfg.procs[i].profile)
                    .expect("registered profile");
                let program = p.generate();
                let geom = cfg.proc_config(i).cpu.geometry;
                let laid = Arc::new(compiler::compile_for(&program, geom, cfg.strategy));
                let trace = with_traces.then(|| Arc::new(compile_trace(&laid)));
                ScenarioBinary { laid, trace }
            })
            .collect()
    }

    #[test]
    fn config_and_report_records_round_trip() {
        let mut cfg = mix_cfg(&["177.mesa", "254.gap"]);
        cfg.procs[1] = cfg.procs[1].with_page_bytes(2 * 1024 * 1024);
        cfg.tlb_mode = TlbMode::Flush;
        cfg.quantum = 40_000;
        cfg.asid_count = 2;
        cfg.switch_penalty = 100;
        cfg.shootdown_per_entry = 3;
        cfg.fault_latency = 700;
        cfg.demand_fault_penalty = 1_200;
        let record = cfg.store_key();
        let mut r = RecordReader::new(&record);
        let resolve = |name: &str| ["177.mesa", "254.gap"].into_iter().find(|p| *p == name);
        let back = ScenarioConfig::from_record(&mut r, resolve).unwrap();
        r.finish().unwrap();
        assert_eq!(back, cfg, "bit-exact config round trip");

        let report = simulate(&cfg, &bins_for(&cfg, false), ExecBackend::Interp);
        let mut w = RecordWriter::new();
        report.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        let back = ScenarioReport::from_record(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, report, "bit-exact report round trip");
        assert!(
            ScenarioReport::from_record(&mut RecordReader::new(&record[..record.len() - 6]))
                .is_err(),
            "truncation is an error, not a zero-filled report"
        );
    }

    #[test]
    fn one_proc_infinite_quantum_degenerates_to_plain_simulator() {
        for tlb_mode in [TlbMode::Asid, TlbMode::Flush] {
            let mut cfg = mix_cfg(&["177.mesa"]);
            cfg.tlb_mode = tlb_mode;
            let bins = bins_for(&cfg, true);
            let plain_cfg = cfg.proc_config(0);
            let plain = Simulator::run_interp(&bins[0].laid, &plain_cfg, cfg.strategy, cfg.mode);
            let scen = simulate(&cfg, &bins, ExecBackend::Interp);
            assert_eq!(
                scen.machine, plain,
                "{tlb_mode:?}: field-identical to the plain path"
            );
            assert_eq!(scen.context_switches, 0);
            assert_eq!(scen.switch_cycles, 0);
            assert_eq!(scen.per_proc_committed, vec![plain.committed]);
            let traced = Simulator::run_traced(
                bins[0].trace.as_ref().unwrap(),
                &plain_cfg,
                cfg.strategy,
                cfg.mode,
            );
            let scen_c = simulate(&cfg, &bins, ExecBackend::Compiled);
            assert_eq!(scen_c.machine, traced, "{tlb_mode:?}: compiled backend too");
            assert_eq!(scen.machine, scen_c.machine, "backends agree");
        }
    }

    #[test]
    fn backends_agree_under_preemption_and_faults() {
        let mut cfg = mix_cfg(&["177.mesa", "254.gap", "186.crafty"]);
        cfg.quantum = 7_321;
        cfg.asid_count = 2; // forces ASID reuse shootdowns
        cfg.switch_penalty = 500;
        cfg.shootdown_per_entry = 5;
        cfg.fault_latency = 300;
        cfg.demand_fault_penalty = 900;
        let bins = bins_for(&cfg, true);
        let a = simulate(&cfg, &bins, ExecBackend::Interp);
        let b = simulate(&cfg, &bins, ExecBackend::Compiled);
        assert_eq!(a, b, "interp and compiled must agree field-for-field");
        assert!(a.context_switches > 0, "the quantum must actually preempt");
        assert!(a.shootdowns > 0, "2 ASIDs over 3 procs must recycle");
        assert!(a.demand_faults > 0, "first touches demand-fault");
        assert_eq!(
            a.machine.committed,
            3 * cfg.scale.max_commits,
            "every process runs to completion"
        );
    }

    #[test]
    fn flush_mode_flushes_and_costs_more_than_asid_mode() {
        let mut asid = mix_cfg(&["177.mesa", "254.gap"]);
        asid.quantum = 5_000;
        asid.asid_count = 16; // no reuse: entries survive switches
        let mut flush = asid.clone();
        flush.tlb_mode = TlbMode::Flush;
        let bins = bins_for(&asid, false);
        let ra = simulate(&asid, &bins, ExecBackend::Interp);
        let rf = simulate(&flush, &bins, ExecBackend::Interp);
        assert_eq!(ra.itlb_flushed + ra.dtlb_flushed, 0);
        assert_eq!(ra.shootdowns, 0, "16 ASIDs over 2 procs never recycle");
        assert!(rf.itlb_flushed > 0, "flush mode empties the iTLB");
        assert!(rf.dtlb_flushed > 0, "flush mode empties the dTLB");
        assert!(
            rf.machine.itlb.misses > ra.machine.itlb.misses,
            "cold iTLB after every switch must re-miss"
        );
        assert!(
            rf.machine.cycles > ra.machine.cycles,
            "refilling flushed TLBs costs cycles"
        );
    }

    #[test]
    fn switch_penalty_charges_exact_cycles() {
        let mut free = mix_cfg(&["177.mesa", "254.gap"]);
        free.quantum = 5_000;
        let mut paid = free.clone();
        paid.switch_penalty = 10_000;
        let bins = bins_for(&free, false);
        let rf = simulate(&free, &bins, ExecBackend::Interp);
        let rp = simulate(&paid, &bins, ExecBackend::Interp);
        assert_eq!(rf.switch_cycles, 0);
        assert_eq!(
            rp.switch_cycles,
            rp.context_switches * 10_000,
            "flat penalty per switch"
        );
        assert!(rp.machine.cycles > rf.machine.cycles);
    }
}
