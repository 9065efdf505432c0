//! End-to-end simulation: program → compiler → pipeline → report.

use std::sync::Arc;

use cfr_cpu::{CpuConfig, CpuStats, ExecutionBackend, Pipeline};
use cfr_energy::{EnergyMeter, EnergyModel};
use cfr_mem::{TlbConfig, TlbStats, TwoLevelTlb};
use cfr_types::{AddressingMode, RecordError, RecordReader, RecordWriter, TlbOrganization};
use cfr_workload::{
    compile_trace, BenchmarkProfile, CompiledTrace, LaidProgram, Program, ProgramCache,
};
use serde::{Deserialize, Serialize};

use crate::compiler;
use crate::strategy::{ItlbModel, LookupBreakdown, Strategy, StrategyKind};

/// Environment variable selecting the execution backend (`compiled`,
/// the default, or `interp`).
pub const BACKEND_ENV: &str = "CFR_BACKEND";

/// Which execution backend drives the pipeline.
///
/// Both backends are byte-identical by construction (the compiled trace
/// is a pure representation change; the golden tests and the
/// backend-equivalence property test enforce it), so this is purely a
/// performance/diagnostics switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// Pre-decoded compiled-trace backend (the default fast path).
    Compiled,
    /// Reference interpreter over the laid-out program.
    Interp,
}

impl ExecBackend {
    /// Reads `$CFR_BACKEND`: `interp` selects the reference interpreter;
    /// `compiled`, unset, or anything else selects the compiled-trace
    /// backend.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("interp") => ExecBackend::Interp,
            _ => ExecBackend::Compiled,
        }
    }

    /// Stable lower-case name (`compiled` / `interp`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Compiled => "compiled",
            ExecBackend::Interp => "interp",
        }
    }
}

/// The one artifact a backend executes for a compiled binary — what the
/// [`crate::Engine`] memoizes per compilation class.
#[derive(Clone, Debug)]
pub(crate) enum Executable {
    /// The laid-out program, run by the reference interpreter.
    Laid(Arc<LaidProgram>),
    /// The pre-decoded trace, run by the compiled backend.
    Trace(Arc<CompiledTrace>),
}

impl Executable {
    /// Runs this binary to completion on the backend its kind selects.
    pub(crate) fn run(
        &self,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        match self {
            Executable::Laid(laid) => Simulator::run_interp(laid, cfg, kind, mode),
            Executable::Trace(trace) => Simulator::run_traced(trace, cfg, kind, mode),
        }
    }
}

/// Which iTLB structure a run models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ItlbChoice {
    /// A monolithic TLB of the given shape.
    Mono(TlbOrganization),
    /// A serial two-level TLB (level-1 shape, level-2 shape, level-2
    /// latency in cycles).
    TwoLevel(TlbOrganization, TlbOrganization, u32),
}

impl ItlbChoice {
    /// The paper's default: 32-entry fully associative.
    #[must_use]
    pub fn default_mono() -> Self {
        ItlbChoice::Mono(TlbOrganization::fully_associative(32))
    }

    /// Serializes as `mono <org>` or `two <l1-org> <l2-org> <latency>`
    /// (persistent run store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        match self {
            ItlbChoice::Mono(org) => {
                w.token("mono");
                org.to_record(w);
            }
            ItlbChoice::TwoLevel(l1, l2, latency) => {
                w.token("two");
                l1.to_record(w);
                l2.to_record(w);
                w.u64(u64::from(*latency));
            }
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        match r.token()? {
            "mono" => Ok(ItlbChoice::Mono(TlbOrganization::from_record(r)?)),
            "two" => Ok(ItlbChoice::TwoLevel(
                TlbOrganization::from_record(r)?,
                TlbOrganization::from_record(r)?,
                r.u32()?,
            )),
            other => Err(RecordError::new(format!("unknown iTLB choice {other:?}"))),
        }
    }

    pub(crate) fn build(self, miss_penalty: u32) -> ItlbModel {
        match self {
            ItlbChoice::Mono(org) => ItlbModel::Mono(cfr_mem::Tlb::new(TlbConfig {
                organization: org,
                miss_penalty,
            })),
            ItlbChoice::TwoLevel(l1, l2, lat) => ItlbModel::TwoLevel(TwoLevelTlb::new(
                TlbConfig {
                    organization: l1,
                    miss_penalty,
                },
                TlbConfig {
                    organization: l2,
                    miss_penalty,
                },
                lat,
            )),
        }
    }
}

/// Everything a single simulation run needs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Core + memory-hierarchy configuration (Table 1).
    pub cpu: CpuConfig,
    /// iTLB structure.
    pub itlb: ItlbChoice,
    /// iTLB miss (page-walk) penalty in cycles.
    pub itlb_miss_penalty: u32,
    /// Committed instructions to simulate. The paper ran 250 M; the default
    /// here is 1/100 of that (rates are stationary).
    pub max_commits: u64,
    /// Walker seed (same seed ⇒ identical instruction stream).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's default configuration at 1/100 scale.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            cpu: CpuConfig::default_config(),
            itlb: ItlbChoice::default_mono(),
            itlb_miss_penalty: 50,
            max_commits: 2_500_000,
            seed: 0x5EED,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// The result of one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Strategy that ran.
    pub strategy: StrategyKind,
    /// iL1 addressing mode.
    pub mode: AddressingMode,
    /// Committed instructions.
    pub committed: u64,
    /// Total cycles.
    pub cycles: u64,
    /// iTLB behavioural counters.
    pub itlb: TlbStats,
    /// Translation-path energy accounting (iTLB accesses/refills, CFR
    /// reads, comparators).
    pub energy: EnergyMeter,
    /// Lookup cause breakdown (Table 3).
    pub breakdown: LookupBreakdown,
    /// Full pipeline statistics.
    pub cpu: CpuStats,
}

impl RunReport {
    /// Total translation-path energy in millijoules.
    #[must_use]
    pub fn itlb_energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Energy normalized against a base run (Figure 4's y-axis).
    #[must_use]
    pub fn energy_vs(&self, base: &RunReport) -> f64 {
        self.itlb_energy_mj() / base.itlb_energy_mj()
    }

    /// Cycles normalized against a base run (Figure 5's y-axis).
    #[must_use]
    pub fn cycles_vs(&self, base: &RunReport) -> f64 {
        self.cycles as f64 / base.cycles as f64
    }

    /// Serializes the full report — every counter and every energy
    /// component, floats as exact bits — so a warm store read reproduces
    /// byte-identical experiment output (persistent run store codec; the
    /// vendored `serde` is a no-op).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("report");
        self.strategy.to_record(w);
        self.mode.to_record(w);
        w.u64(self.committed);
        w.u64(self.cycles);
        self.itlb.to_record(w);
        self.energy.to_record(w);
        self.breakdown.to_record(w);
        self.cpu.to_record(w);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream — the store treats any error as a
    /// cache miss and re-simulates.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("report")?;
        Ok(Self {
            strategy: StrategyKind::from_record(r)?,
            mode: AddressingMode::from_record(r)?,
            committed: r.u64()?,
            cycles: r.u64()?,
            itlb: TlbStats::from_record(r)?,
            energy: EnergyMeter::from_record(r)?,
            breakdown: crate::strategy::LookupBreakdown::from_record(r)?,
            cpu: CpuStats::from_record(r)?,
        })
    }
}

/// The top-level runner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulator;

impl Simulator {
    /// Compiles `program` for `kind` and runs it to completion.
    #[must_use]
    pub fn run_program(
        program: &Program,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        let laid = compiler::compile_for(program, cfg.cpu.geometry, kind);
        Self::run_compiled(&laid, cfg, kind, mode)
    }

    /// Runs an already-compiled (laid-out, instrumented, marked) program
    /// under the environment-selected [`ExecBackend`].
    ///
    /// `laid` must be the [`compiler::compile_for`] output for this
    /// `kind` and `cfg.cpu.geometry` — the [`crate::Engine`] memoizes
    /// those compilations across runs, since every strategy of a
    /// compilation class shares the same binary. When the compiled-trace
    /// backend is selected the trace is compiled here ad hoc; callers
    /// holding a memoized trace should use [`Simulator::run_traced`]
    /// directly.
    #[must_use]
    pub fn run_compiled(
        laid: &LaidProgram,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        match ExecBackend::from_env() {
            ExecBackend::Compiled => {
                let trace = compile_trace(laid);
                Self::run_traced(&trace, cfg, kind, mode)
            }
            ExecBackend::Interp => Self::run_interp(laid, cfg, kind, mode),
        }
    }

    /// Runs a compiled program on the reference interpreter backend,
    /// regardless of `$CFR_BACKEND`.
    #[must_use]
    pub fn run_interp(
        laid: &LaidProgram,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        Self::run_pipeline(Pipeline::new(laid, cfg.cpu, cfg.seed), cfg, kind, mode)
    }

    /// Runs a pre-decoded trace on the compiled-trace backend, regardless
    /// of `$CFR_BACKEND`. `trace` must be [`compile_trace`]'s output for
    /// the binary this `kind` and `cfg.cpu.geometry` denote.
    #[must_use]
    pub fn run_traced(
        trace: &CompiledTrace,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        Self::run_pipeline(
            Pipeline::compiled(trace, cfg.cpu, cfg.seed),
            cfg,
            kind,
            mode,
        )
    }

    fn run_pipeline<B: ExecutionBackend>(
        mut pipe: Pipeline<B>,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        let mut strategy = Strategy::with_itlb(
            kind,
            mode,
            cfg.cpu.geometry,
            cfg.itlb.build(cfg.itlb_miss_penalty),
            EnergyModel::default(),
        );
        pipe.run(&mut strategy, cfg.max_commits);
        let stats = *pipe.stats();
        RunReport {
            strategy: kind,
            mode,
            committed: stats.committed,
            cycles: stats.cycles,
            itlb: {
                use cfr_cpu::FetchTranslator as _;
                strategy.itlb_stats()
            },
            energy: {
                use cfr_cpu::FetchTranslator as _;
                strategy.meter().clone()
            },
            breakdown: strategy.breakdown(),
            cpu: stats,
        }
    }

    /// Runs `profile`'s program, borrowing it from `programs` — the
    /// program is generated at most once per cache, no matter how many
    /// (strategy, mode, iTLB) combinations run over it.
    #[must_use]
    pub fn run_profile(
        profile: &BenchmarkProfile,
        programs: &ProgramCache,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        let program = programs.get(profile);
        Self::run_program(&program, cfg, kind, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfr_workload::{generate, GeneratorParams};

    fn quick_cfg() -> SimConfig {
        let mut cfg = SimConfig::default_config();
        cfg.max_commits = 30_000;
        cfg
    }

    fn quick_report(kind: StrategyKind, mode: AddressingMode) -> RunReport {
        let program = generate(&GeneratorParams::small_test());
        Simulator::run_program(&program, &quick_cfg(), kind, mode)
    }

    #[test]
    fn base_vipt_charges_itlb_per_fetch() {
        let r = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        assert_eq!(r.committed, 30_000);
        // Every fetch (right and wrong path) accessed the iTLB.
        let fetches = r.cpu.fetched + r.cpu.wrong_path_fetched;
        assert_eq!(r.itlb.accesses, fetches);
        assert!(r.itlb_energy_mj() > 0.0);
    }

    #[test]
    fn ia_saves_most_of_the_energy() {
        let base = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        let ia = quick_report(StrategyKind::Ia, AddressingMode::ViPt);
        let ratio = ia.energy_vs(&base);
        assert!(ratio < 0.25, "IA should cut >75% of iTLB energy: {ratio}");
    }

    #[test]
    fn ordering_matches_figure4() {
        let cfg = quick_cfg();
        let program = generate(&GeneratorParams::small_test());
        let run = |k| Simulator::run_program(&program, &cfg, k, AddressingMode::ViPt);
        let base = run(StrategyKind::Base);
        let opt = run(StrategyKind::Opt);
        let hoa = run(StrategyKind::HoA);
        let soca = run(StrategyKind::SoCA);
        let sola = run(StrategyKind::SoLA);
        let ia = run(StrategyKind::Ia);
        // OPT is the floor; SoCA the worst of the four schemes; everything
        // beats base by a lot.
        let e = |r: &RunReport| r.itlb_energy_mj();
        assert!(e(&opt) <= e(&ia));
        assert!(e(&ia) <= e(&sola) * 1.05, "IA ~ SoLA or better");
        assert!(e(&sola) < e(&soca), "static analysis must help");
        assert!(e(&hoa) < e(&soca), "SoCA is the most conservative");
        for r in [&opt, &hoa, &soca, &sola, &ia] {
            assert!(e(r) < 0.6 * e(&base), "{} vs base", r.strategy);
        }
    }

    #[test]
    fn vivt_base_consumes_far_less_than_vipt_base() {
        let vipt = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        let vivt = quick_report(StrategyKind::Base, AddressingMode::ViVt);
        assert!(
            vivt.itlb_energy_mj() < 0.3 * vipt.itlb_energy_mj(),
            "VI-VT translates only on iL1 misses"
        );
        assert!(vivt.cycles >= vipt.cycles, "VI-VT pays miss-path latency");
    }

    #[test]
    fn pipt_base_is_slowest_and_ia_repairs_it() {
        let pipt_base = quick_report(StrategyKind::Base, AddressingMode::PiPt);
        let pipt_ia = quick_report(StrategyKind::Ia, AddressingMode::PiPt);
        let vipt_base = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        assert!(
            pipt_base.cycles > vipt_base.cycles,
            "serial iTLB must cost cycles"
        );
        assert!(
            pipt_ia.cycles < pipt_base.cycles,
            "the CFR pulls the iTLB off the critical path"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let a = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        let b = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        assert_eq!(a, b);
    }

    #[test]
    fn two_level_base_vs_mono_ia_energy() {
        // Fig 6, 32-entry flavour: two-level (1 + 32) base consumes more
        // energy than monolithic 32 with IA.
        let program = generate(&GeneratorParams::small_test());
        let mut cfg = quick_cfg();
        cfg.itlb = ItlbChoice::TwoLevel(
            TlbOrganization::fully_associative(1),
            TlbOrganization::fully_associative(32),
            1,
        );
        let two_level_base =
            Simulator::run_program(&program, &cfg, StrategyKind::Base, AddressingMode::ViPt);
        let mut mono_cfg = quick_cfg();
        mono_cfg.itlb = ItlbChoice::default_mono();
        let mono_ia =
            Simulator::run_program(&program, &mono_cfg, StrategyKind::Ia, AddressingMode::ViPt);
        assert!(
            two_level_base.itlb_energy_mj() > mono_ia.itlb_energy_mj(),
            "filter TLB still pays a per-fetch comparison; the CFR does not"
        );
        assert!(
            two_level_base.cycles >= mono_ia.cycles,
            "two-level pays the serial L2 lookup on filter misses"
        );
    }

    #[test]
    fn run_report_record_round_trips() {
        // A real (tiny) run exercises every field, energy floats included.
        let report = quick_report(StrategyKind::Ia, AddressingMode::ViPt);
        let mut w = RecordWriter::new();
        report.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        let back = RunReport::from_record(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, report, "bit-exact round trip");
        // Truncation and tag damage are errors, never mis-parses.
        assert!(
            RunReport::from_record(&mut RecordReader::new(&record[..record.len() - 8])).is_err()
        );
        let damaged = record.replacen("report", "repork", 1);
        assert!(RunReport::from_record(&mut RecordReader::new(&damaged)).is_err());
    }

    #[test]
    fn itlb_choice_record_round_trips() {
        for choice in [
            ItlbChoice::default_mono(),
            ItlbChoice::Mono(TlbOrganization::set_associative(16, 2)),
            ItlbChoice::TwoLevel(
                TlbOrganization::fully_associative(1),
                TlbOrganization::fully_associative(32),
                1,
            ),
        ] {
            let mut w = RecordWriter::new();
            choice.to_record(&mut w);
            let record = w.finish();
            let mut r = RecordReader::new(&record);
            assert_eq!(ItlbChoice::from_record(&mut r).unwrap(), choice);
            r.finish().unwrap();
        }
    }

    #[test]
    fn soca_breakdown_has_both_causes() {
        let r = quick_report(StrategyKind::SoCA, AddressingMode::ViPt);
        assert!(r.breakdown.branch > 0);
        // The tiny test program may or may not execute boundary branches;
        // the sum must equal the iTLB access count either way.
        assert_eq!(r.breakdown.branch + r.breakdown.boundary, r.itlb.accesses);
    }
}
