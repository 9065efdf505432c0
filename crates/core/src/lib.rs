//! # cfr-core
//!
//! The paper's contribution: **Current Frame Register (CFR) mechanisms for
//! saving instruction-TLB energy** (Kadayif et al., MICRO 2002).
//!
//! One translation — `<VPN, PFN, protection bits>` for the page currently
//! executing — lives in the [`Cfr`] register. As long as fetches stay on
//! that page the physical address is formed directly from the CFR and the
//! iTLB is never consulted. Six [`StrategyKind`]s decide *when* the CFR can
//! be trusted:
//!
//! | kind | mechanism |
//! |------|-----------|
//! | [`StrategyKind::Base`]  | no CFR: the iTLB serves every translation demand |
//! | [`StrategyKind::Opt`]   | oracle lower bound: iTLB only on a true page change |
//! | [`StrategyKind::HoA`]   | hardware comparator on every fetch (VAX-style) |
//! | [`StrategyKind::SoCA`]  | compiler: boundary branches + lookup at *every* branch target |
//! | [`StrategyKind::SoLA`]  | SoCA + statically-marked in-page branches skip the lookup |
//! | [`StrategyKind::Ia`]    | boundary branches + BTB-target page compare (Figure 3) |
//!
//! The strategies implement `cfr-cpu`'s `FetchTranslator`, so any of them
//! can drive the out-of-order core under any iL1 addressing mode (PI-PT,
//! VI-PT, VI-VT) and any iTLB organization (monolithic or two-level).
//!
//! # The experiment engine
//!
//! Experiments do not call the simulator directly: they describe the runs
//! they need as [`RunKey`]s — *(benchmark, scale, strategy, mode, iTLB)* —
//! and hand them to an [`Engine`], which
//!
//! - **memoizes program generation**: each benchmark's synthetic program is
//!   generated once per engine and shared via `Arc`
//!   (`cfr_workload::ProgramCache`),
//! - **deduplicates runs**: identical keys — within a batch, across
//!   batches, and across experiments sharing the engine — simulate exactly
//!   once, and
//! - **parallelizes**: missing runs execute on all cores via rayon, with
//!   results reassembled in request order so parallel output is
//!   bit-identical to serial execution.
//!
//! Every `table*`/`fig*` function in this crate is a thin plan over the
//! engine; `cfr-bench`'s `all_experiments` shares one engine across all
//! ten tables/figures, so their heavily-overlapping run sets collapse to
//! one simulation per unique key.
//!
//! ```
//! use cfr_core::{Engine, ExperimentScale, RunKey, StrategyKind};
//! use cfr_types::AddressingMode;
//!
//! let engine = Engine::new();
//! let scale = ExperimentScale { max_commits: 20_000, seed: 0x5EED }; // keep the doctest quick
//! let base = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
//! let ia = RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt);
//! let reports = engine.run_many(&[base, ia, base]); // duplicate key: served from cache
//! assert_eq!(engine.simulated_runs(), 2);
//! // The headline result: IA eliminates the overwhelming majority of
//! // iTLB energy on a VI-PT iL1.
//! assert!(reports[1].itlb_energy_mj() < 0.2 * reports[0].itlb_energy_mj());
//! ```

mod cfr;
pub mod compiler;
mod engine;
mod experiment;
pub mod scenario;
mod simulator;
mod store;
mod strategy;

pub use cfr::Cfr;
pub use cfr_types::net::{
    LayeredStore, RemoteStore, ServerConfig, StoreServer, StoreStats, DEFAULT_DAEMON_ADDR,
    STORE_ADDR_ENV,
};
pub use cfr_types::store::{
    ArtifactStore, ClaimOutcome, GcPolicy, GcReport, ShardOccupancy, StoreBackend, StoreLock,
    DEFAULT_STORE_DIR, LOCK_FILE_NAME, NS_PROGRAMS, NS_RUNS, NS_SCENARIOS, NS_TRACES, NS_WALKS,
    SHARD_COUNT, STORE_DIR_ENV, STORE_FORMAT_VERSION, STORE_MAX_AGE_ENV, STORE_MAX_BYTES_ENV,
};
pub use engine::{Engine, MemoCounts, NamespaceTraffic, RunKey, StoreSummary};
pub use experiment::{
    fig4, fig5, fig6, table2, table3, table4, table5, table6, table6_itlbs, table7, table8,
    ExperimentScale, Fig4Row, Fig6Row, Table2Row, Table3Row, Table4Row, Table6Row, Table8Row,
    FIG4_SCHEMES,
};
pub use scenario::{
    ScenarioBinary, ScenarioConfig, ScenarioProc, ScenarioReport, TlbMode, QUANTUM_INFINITE,
};
pub use simulator::{ExecBackend, ItlbChoice, RunReport, SimConfig, Simulator, BACKEND_ENV};
pub use store::{RunClaim, Store};
pub use strategy::{ItlbModel, LookupBreakdown, Strategy, StrategyKind};
