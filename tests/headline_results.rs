//! Integration tests: the paper's headline results must reproduce in shape
//! at reduced scale, across crates (workload → compiler → CPU → strategies).

use cfr_sim::core::{
    fig6, table6, table6_itlbs, Engine, ExperimentScale, SimConfig, Simulator, StrategyKind,
};
use cfr_sim::types::AddressingMode;
use cfr_sim::workload::profiles;

fn quick() -> SimConfig {
    let mut cfg = SimConfig::default_config();
    cfg.max_commits = 120_000;
    cfg
}

/// Figure 4 (VI-PT): every scheme saves the overwhelming majority of iTLB
/// energy, with the paper's ordering.
#[test]
fn figure4_vipt_shape() {
    let cfg = quick();
    for profile in [profiles::mesa(), profiles::eon()] {
        let program = profile.generate();
        let run = |k| Simulator::run_program(&program, &cfg, k, AddressingMode::ViPt);
        let base = run(StrategyKind::Base);
        let opt = run(StrategyKind::Opt);
        let hoa = run(StrategyKind::HoA);
        let soca = run(StrategyKind::SoCA);
        let sola = run(StrategyKind::SoLA);
        let ia = run(StrategyKind::Ia);
        let norm = |r: &cfr_sim::core::RunReport| r.energy_vs(&base);
        // Paper: HoA ~5.7%, SoCA ~12.2%, SoLA ~5.0%, IA ~3.8%, OPT ~3.2%.
        assert!(norm(&hoa) < 0.15, "{}: HoA {}", profile.name, norm(&hoa));
        assert!(norm(&soca) < 0.25, "{}: SoCA {}", profile.name, norm(&soca));
        assert!(norm(&sola) < 0.15, "{}: SoLA {}", profile.name, norm(&sola));
        assert!(norm(&ia) < 0.12, "{}: IA {}", profile.name, norm(&ia));
        // Orderings.
        assert!(
            norm(&opt) <= norm(&ia),
            "{}: OPT is the floor",
            profile.name
        );
        assert!(
            norm(&sola) < norm(&soca),
            "{}: SoLA beats SoCA",
            profile.name
        );
        assert!(norm(&ia) < norm(&hoa), "{}: IA beats HoA", profile.name);
    }
}

/// Figure 4 (VI-VT): savings exist and SoCA remains the worst scheme.
#[test]
fn figure4_vivt_shape() {
    let cfg = quick();
    let profile = profiles::gap();
    let program = profile.generate();
    let run = |k| Simulator::run_program(&program, &cfg, k, AddressingMode::ViVt);
    let base = run(StrategyKind::Base);
    let opt = run(StrategyKind::Opt);
    let hoa = run(StrategyKind::HoA);
    let soca = run(StrategyKind::SoCA);
    let ia = run(StrategyKind::Ia);
    assert!(opt.energy_vs(&base) < 0.6);
    assert!(hoa.energy_vs(&base) < 0.7);
    assert!(ia.energy_vs(&base) < soca.energy_vs(&base) * 1.02);
}

/// Figure 5: IA never slows VI-VT down, and VI-PT cycles are essentially
/// scheme-independent (the paper: "no significant difference").
#[test]
fn figure5_cycles() {
    let cfg = quick();
    let profile = profiles::vortex();
    let program = profile.generate();
    let vivt_base =
        Simulator::run_program(&program, &cfg, StrategyKind::Base, AddressingMode::ViVt);
    let vivt_ia = Simulator::run_program(&program, &cfg, StrategyKind::Ia, AddressingMode::ViVt);
    assert!(
        vivt_ia.cycles as f64 <= vivt_base.cycles as f64 * 1.005,
        "IA must not hurt VI-VT: {} vs {}",
        vivt_ia.cycles,
        vivt_base.cycles
    );
    let vipt_base =
        Simulator::run_program(&program, &cfg, StrategyKind::Base, AddressingMode::ViPt);
    let vipt_ia = Simulator::run_program(&program, &cfg, StrategyKind::Ia, AddressingMode::ViPt);
    let ratio = vipt_ia.cycles as f64 / vipt_base.cycles as f64;
    assert!(
        (0.98..1.02).contains(&ratio),
        "VI-PT cycles must be scheme-independent: {ratio}"
    );
}

/// Table 3's shape: SoCA forces the most BRANCH-case lookups, SoLA fewer,
/// IA fewest; the BOUNDARY column is (near-)identical across the three.
#[test]
fn table3_lookup_ordering() {
    let cfg = quick();
    let profile = profiles::crafty();
    let program = profile.generate();
    let run = |k| Simulator::run_program(&program, &cfg, k, AddressingMode::ViPt);
    let soca = run(StrategyKind::SoCA);
    let sola = run(StrategyKind::SoLA);
    let ia = run(StrategyKind::Ia);
    assert!(
        soca.breakdown.branch > sola.breakdown.branch,
        "SoCA {} vs SoLA {}",
        soca.breakdown.branch,
        sola.breakdown.branch
    );
    assert!(
        sola.breakdown.branch > ia.breakdown.branch,
        "SoLA {} vs IA {}",
        sola.breakdown.branch,
        ia.breakdown.branch
    );
    assert_eq!(soca.breakdown.boundary, sola.breakdown.boundary);
}

/// Table 6's shape: as the iTLB shrinks, base energy shrinks slightly but
/// VI-VT base cycles explode (misses), while IA's energy stays near-flat
/// and its cycles track far better.
#[test]
fn table6_small_itlb_pressure() {
    let scale = ExperimentScale {
        max_commits: 120_000,
        seed: 0x5EED,
    };
    let rows = table6(&Engine::new(), &scale);
    let labels = table6_itlbs();
    let mesa_1 = rows
        .iter()
        .find(|r| r.name == "177.mesa" && r.itlb == labels[0].0)
        .unwrap();
    let mesa_32 = rows
        .iter()
        .find(|r| r.name == "177.mesa" && r.itlb == labels[3].0)
        .unwrap();
    // 1-entry: base VI-VT runs much slower than 32-entry (50-cycle walks).
    assert!(mesa_1.vivt_cycles[0] > mesa_32.vivt_cycles[0]);
    // IA recovers a large share of that gap.
    assert!(mesa_1.vivt_cycles[2] < mesa_1.vivt_cycles[0]);
    // Energy: IA's absolute VI-PT energy at 32 entries is a tiny fraction
    // of base.
    assert!(mesa_32.vipt_energy_mj[2] < 0.12 * mesa_32.vipt_energy_mj[0]);
}

/// Figure 6's shape: a (1+32) two-level filter TLB (base) consumes more
/// energy than a monolithic 32 with IA.
#[test]
fn figure6_two_level_comparison() {
    let scale = ExperimentScale {
        max_commits: 120_000,
        seed: 0x5EED,
    };
    let rows = fig6(&Engine::new(), &scale);
    let small: Vec<_> = rows.iter().filter(|r| r.config == "1+32").collect();
    assert_eq!(small.len(), 6);
    let avg: f64 = small.iter().map(|r| r.energy_ratio).sum::<f64>() / 6.0;
    assert!(
        avg > 1.2,
        "two-level base should cost >120% of mono+IA: {avg}"
    );
    // And it should not be meaningfully faster.
    let cyc: f64 = small.iter().map(|r| r.cycle_ratio).sum::<f64>() / 6.0;
    assert!(cyc > 0.99, "two-level pays serial L2 lookups: {cyc}");
}

/// Table 8's shape: PI-PT base is the slowest configuration; IA repairs
/// most of the damage while slashing energy.
#[test]
fn table8_pipt_study() {
    let cfg = quick();
    let profile = profiles::fma3d();
    let program = profile.generate();
    let pipt_base =
        Simulator::run_program(&program, &cfg, StrategyKind::Base, AddressingMode::PiPt);
    let pipt_ia = Simulator::run_program(&program, &cfg, StrategyKind::Ia, AddressingMode::PiPt);
    let vipt_base =
        Simulator::run_program(&program, &cfg, StrategyKind::Base, AddressingMode::ViPt);
    assert!(pipt_base.cycles > vipt_base.cycles);
    assert!(pipt_ia.cycles < pipt_base.cycles);
    assert!(pipt_ia.itlb_energy_mj() < 0.15 * pipt_base.itlb_energy_mj());
    // IA brings PI-PT within striking distance of VI-PT (paper: ~5.7%).
    let gap = pipt_ia.cycles as f64 / vipt_base.cycles as f64;
    assert!(gap < 1.15, "PI-PT+IA within 15% of VI-PT base: {gap}");
}

/// Energy accounting must be internally consistent: counted events times
/// per-event prices equals the meter total, and iTLB access counts match
/// the behavioural model's.
#[test]
fn accounting_consistency() {
    let cfg = quick();
    let profile = profiles::mesa();
    let program = profile.generate();
    for kind in StrategyKind::ALL {
        for mode in AddressingMode::ALL {
            let r = Simulator::run_program(&program, &cfg, kind, mode);
            assert_eq!(
                r.energy.events("itlb_access"),
                r.itlb.accesses,
                "{kind} {mode}: meter vs TLB"
            );
            assert_eq!(
                r.energy.events("itlb_refill"),
                r.itlb.misses,
                "{kind} {mode}: refills vs misses"
            );
            assert_eq!(r.committed, cfg.max_commits);
        }
    }
}

/// The six profiles all run end-to-end under the default configuration.
#[test]
fn all_profiles_run() {
    let mut cfg = quick();
    cfg.max_commits = 40_000;
    for p in profiles::all() {
        let r = Simulator::run_program(&p.generate(), &cfg, StrategyKind::Ia, AddressingMode::ViPt);
        assert_eq!(r.committed, 40_000, "{}", p.name);
        assert!(r.cpu.ipc() > 0.1 && r.cpu.ipc() <= 4.0, "{}", p.name);
    }
}
