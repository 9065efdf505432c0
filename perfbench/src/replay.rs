//! Component replay: per-call host time of the memory, predictor and
//! energy components, measured from outside the pipeline.
//!
//! Each of the workload's laid programs is walked with the architectural
//! [`Walker`] for a fixed number of steps, collecting its fetch, branch
//! and data-address streams. Each public component call is then timed in
//! a tight loop over its stream, on a fresh component with the
//! `CpuConfig::default_config()` geometry, and divided by the number of
//! calls. The L2 stream is the sequence of iL1 and dL1 misses, in walk
//! order, so the L2 sees what the hierarchy would send it.

use std::hint::black_box;
use std::time::Instant;

use cfr_cpu::{BranchPredictor, CpuConfig};
use cfr_energy::EnergyMeter;
use cfr_mem::{AccessKind, Cache, CacheConfig, PageTable, Tlb, TlbConfig};
use cfr_types::{PageGeometry, Protection, VirtAddr, Vpn};
use cfr_workload::{BranchKind, LaidProgram, OpClass, Walker};

/// Walker steps collected per program.
const STEPS_PER_PROGRAM: u64 = 200_000;

/// Timing repetitions per component; the median is reported.
const REPEATS: usize = 3;

/// One branch as the predictor sees it.
#[derive(Clone, Copy, Debug)]
struct BranchEvent {
    pc: VirtAddr,
    kind: BranchKind,
    fallthrough: VirtAddr,
    taken: bool,
    target: VirtAddr,
}

/// The streams of one program's walk.
#[derive(Debug, Default)]
struct Streams {
    fetch: Vec<(u64, AccessKind)>,
    fetch_vpn: Vec<Vpn>,
    branches: Vec<BranchEvent>,
    data: Vec<(u64, AccessKind)>,
    data_vpn: Vec<Vpn>,
    l2: Vec<(u64, AccessKind)>,
    /// Per fetch: the energy component the translation path charges
    /// (an iTLB access on a page change, a CFR read otherwise).
    charges: Vec<&'static str>,
}

/// The per-call metric names, in the order [`replay`] measures them.
const NAMES: [&str; 8] = [
    "mem.itlb.lookup_ns",
    "mem.il1.access_ns",
    "mem.dtlb.lookup_ns",
    "mem.dl1.access_ns",
    "mem.l2.access_ns",
    "cpu.bpred.predict_ns",
    "energy.meter.charge_ns",
    "workload.walk_ns_per_step",
];

fn collect(laid: &LaidProgram, seed: u64, cfg: &CpuConfig) -> Streams {
    let geom: PageGeometry = laid.geom;
    let mut s = Streams::default();
    let mut il1 = Cache::new(cfg.il1);
    let mut dl1 = Cache::new(cfg.dl1);
    let mut last_page = None;
    let mut walker = Walker::new(laid, seed);
    for _ in 0..STEPS_PER_PROGRAM {
        let step = walker.step();
        let pc = step.addr;
        s.fetch.push((pc.raw(), AccessKind::Read));
        let vpn = geom.vpn(pc);
        s.fetch_vpn.push(vpn);
        s.charges.push(if last_page == Some(vpn) {
            "cfr_read"
        } else {
            "itlb_access"
        });
        last_page = Some(vpn);
        if !il1.access(pc.raw(), AccessKind::Read).hit {
            s.l2.push((pc.raw(), AccessKind::Read));
        }
        if step.class == OpClass::Branch {
            let spec = laid.slots[step.slot]
                .instr
                .branch
                .as_ref()
                .expect("a branch slot carries its spec");
            let exec = step.branch.expect("a branch step carries its outcome");
            s.branches.push(BranchEvent {
                pc,
                kind: spec.kind,
                fallthrough: pc.add(4),
                taken: exec.taken,
                target: exec.next_addr,
            });
        }
        if let Some(addr) = step.mem_addr {
            let kind = if step.class == OpClass::Store {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            s.data.push((addr.raw(), kind));
            s.data_vpn.push(geom.vpn(addr));
            if !dl1.access(addr.raw(), kind).hit {
                s.l2.push((addr.raw(), kind));
            }
        }
    }
    s
}

/// Median over [`REPEATS`] of `f`'s wall time in ns.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPEATS / 2]
}

fn per_call(total_ns: f64, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns / calls as f64
    }
}

fn time_tlb(cfg: TlbConfig, vpns: &[Vpn], prot: Protection) -> f64 {
    time_ns(|| {
        let mut tlb = Tlb::new(cfg);
        let mut pt = PageTable::new();
        for &vpn in vpns {
            black_box(tlb.lookup(black_box(vpn), &mut pt, prot));
        }
    })
}

fn time_cache(cfg: CacheConfig, stream: &[(u64, AccessKind)]) -> f64 {
    time_ns(|| {
        let mut cache = Cache::new(cfg);
        for &(addr, kind) in stream {
            black_box(cache.access(black_box(addr), kind));
        }
    })
}

/// Replays every program in `programs` and returns host ns per call of
/// `Tlb::lookup` (iTLB per fetch, dTLB per load/store), `Cache::access`
/// (iL1 per fetch, dL1 per load/store, L2 per L1 miss),
/// `BranchPredictor::predict` + `update` (per branch),
/// `EnergyMeter::charge` (per fetch) and `Walker::step`, each averaged
/// over all programs' calls.
#[must_use]
pub fn replay(programs: &[&LaidProgram], seed: u64) -> Vec<(&'static str, f64)> {
    let cfg = CpuConfig::default_config();
    // (total ns, calls) per component, summed over programs.
    let mut acc = [(0.0f64, 0usize); 8];
    for laid in programs {
        let s = collect(laid, seed, &cfg);
        let timings = [
            (
                time_tlb(TlbConfig::default_itlb(), &s.fetch_vpn, Protection::code()),
                s.fetch_vpn.len(),
            ),
            (time_cache(cfg.il1, &s.fetch), s.fetch.len()),
            (
                time_tlb(cfg.dtlb, &s.data_vpn, Protection::data()),
                s.data_vpn.len(),
            ),
            (time_cache(cfg.dl1, &s.data), s.data.len()),
            (time_cache(cfg.l2, &s.l2), s.l2.len()),
            (
                time_ns(|| {
                    let mut bp = BranchPredictor::new(cfg.predictor);
                    for b in &s.branches {
                        black_box(bp.predict(black_box(b.pc), b.kind, b.fallthrough));
                        bp.update(b.pc, b.kind, b.taken, b.target);
                    }
                }),
                s.branches.len(),
            ),
            (
                time_ns(|| {
                    let mut meter = EnergyMeter::new();
                    for &component in &s.charges {
                        meter.charge(black_box(component), black_box(4.6));
                    }
                    black_box(&meter);
                }),
                s.charges.len(),
            ),
            (
                time_ns(|| {
                    let mut walker = Walker::new(laid, seed);
                    for _ in 0..STEPS_PER_PROGRAM {
                        black_box(walker.step());
                    }
                }),
                STEPS_PER_PROGRAM as usize,
            ),
        ];
        for (slot, (ns, calls)) in acc.iter_mut().zip(timings) {
            slot.0 += ns;
            slot.1 += calls;
        }
    }
    NAMES
        .into_iter()
        .zip(acc)
        .map(|(name, (ns, calls))| (name, per_call(ns, calls)))
        .collect()
}
