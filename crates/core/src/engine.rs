//! The parallel experiment engine.
//!
//! Every table and figure in the paper's evaluation is a set of
//! *(benchmark, strategy, addressing mode, iTLB)* simulation runs at some
//! [`ExperimentScale`] — and the sets overlap heavily (`table2`,
//! `table5`, `fig4`, and `table8` all need the base VI-PT run of every
//! benchmark, for example). Run serially and independently, the full
//! evaluation pays for the same simulations many times over.
//!
//! The [`Engine`] replaces that with a declarative plan:
//!
//! 1. experiments describe the runs they need as [`RunKey`]s,
//! 2. the engine **deduplicates** keys against its result cache, so every
//!    unique key is simulated exactly once per engine — across calls and
//!    across experiments,
//! 3. keys still missing are looked up in the optional **persistent
//!    [`Store`]** ([`Engine::with_store`]), which extends the dedup
//!    guarantee across *processes*: a key any binary on this machine has
//!    already simulated is read back from disk,
//! 4. the remaining cold runs execute **in parallel** (rayon), each
//!    borrowing its benchmark's program from a shared, memoized
//!    [`ProgramCache`], and are written back to the store, and
//! 5. results come back as cheap [`Arc`] handles in request order.
//!
//! Parallel execution is **deterministic**: a run's outcome depends only
//! on its key (the simulator is seeded, single-threaded per run, and
//! shares nothing mutable), and the engine reassembles results in input
//! order, so the reports are bit-identical to serial
//! [`Simulator::run_program`](crate::Simulator::run_program) calls
//! regardless of worker scheduling.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cfr_types::{
    AddressingMode, PageGeometry, RecordError, RecordReader, RecordWriter, NS_SCENARIOS, NS_WALKS,
};
use cfr_workload::{
    compile_trace, measure_walk, walk_store_key, BenchmarkProfile, LaidProgram, Program,
    ProgramCache, WalkMeasurement,
};
use rayon::prelude::*;

use crate::compiler;
use crate::experiment::ExperimentScale;
use crate::scenario::{self, ScenarioConfig, ScenarioReport};
use crate::simulator::{ExecBackend, Executable, ItlbChoice, RunReport, SimConfig};
use crate::store::{RunClaim, Store};
use crate::strategy::StrategyKind;

/// Identity of one compiled (laid-out) binary: benchmark, page size, and
/// the compilation class — whether boundary instrumentation ran and
/// whether the SoLA in-page marking pass ran. Strategies within a class
/// execute the *same* binary, so the engine compiles it once.
type LaidKey = (&'static str, u64, bool, bool);

/// The identity of one simulation run. Two runs with equal keys produce
/// bit-identical [`RunReport`]s, which is what makes engine-level
/// deduplication — and the cross-process persistent [`Store`] — sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Benchmark profile name (e.g. `"177.mesa"`), resolved against the
    /// engine's registered profiles.
    pub profile: &'static str,
    /// Run length and walker seed.
    pub scale: ExperimentScale,
    /// CFR strategy.
    pub strategy: StrategyKind,
    /// iL1 addressing mode.
    pub mode: AddressingMode,
    /// iTLB structure.
    pub itlb: ItlbChoice,
    /// iL1 capacity override in bytes (`None` = the paper's 8 KB) — the
    /// iL1-sensitivity sweep runs through the engine like everything else.
    pub il1_bytes: Option<u64>,
    /// Page size override in bytes (`None` = the paper's 4 KB), for the
    /// page-size sweep.
    pub page_bytes: Option<u64>,
}

impl RunKey {
    /// A key for the default iTLB (the paper's 32-entry fully-associative
    /// monolith) at the paper's default iL1 capacity and page size.
    #[must_use]
    pub fn new(
        profile: &'static str,
        scale: &ExperimentScale,
        strategy: StrategyKind,
        mode: AddressingMode,
    ) -> Self {
        Self {
            profile,
            scale: *scale,
            strategy,
            mode,
            itlb: ItlbChoice::default_mono(),
            il1_bytes: None,
            page_bytes: None,
        }
    }

    /// The same run with a different iTLB structure.
    #[must_use]
    pub fn with_itlb(mut self, itlb: ItlbChoice) -> Self {
        self.itlb = itlb;
        self
    }

    /// The same run with an iL1 capacity override (power of two, bytes).
    /// The default capacity canonicalizes to "no override", so a sweep's
    /// default column shares its key — its in-memory cache entry *and*
    /// its store record — with the non-sweep runs of the same
    /// configuration.
    #[must_use]
    pub fn with_il1_bytes(mut self, bytes: u64) -> Self {
        let default = cfr_mem::CacheConfig::default_il1().organization.size_bytes;
        self.il1_bytes = (bytes != default).then_some(bytes);
        self
    }

    /// The same run with a page-size override (power of two, bytes); the
    /// default page size canonicalizes to "no override" (see
    /// [`RunKey::with_il1_bytes`]).
    #[must_use]
    pub fn with_page_bytes(mut self, bytes: u64) -> Self {
        let default = PageGeometry::default_4k().page_bytes();
        self.page_bytes = (bytes != default).then_some(bytes);
        self
    }

    /// The full simulator configuration this key denotes.
    ///
    /// # Panics
    ///
    /// Panics if a page-size override is not a power of two.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        let mut cfg = self.scale.config();
        cfg.itlb = self.itlb;
        if let Some(bytes) = self.il1_bytes {
            cfg.cpu.il1.organization.size_bytes = bytes;
        }
        if let Some(bytes) = self.page_bytes {
            cfg.cpu.geometry = PageGeometry::new(bytes).expect("page size must be a power of two");
        }
        cfg
    }

    /// Serializes every identity field (persistent run store codec). The
    /// record doubles as the store's content address: equal keys produce
    /// byte-equal records, and the store verifies a loaded record against
    /// the requested key token-for-token, so a hash collision or stale
    /// file degrades to a miss.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("runkey");
        w.token(self.profile);
        self.scale.to_record(w);
        self.strategy.to_record(w);
        self.mode.to_record(w);
        self.itlb.to_record(w);
        for over in [self.il1_bytes, self.page_bytes] {
            match over {
                None => w.token("default"),
                Some(bytes) => w.u64(bytes),
            }
        }
    }

    /// Parses a [`Self::to_record`] stream. `resolve` maps a profile name
    /// back to its registered `&'static str` (e.g. via
    /// [`Engine::profiles`]); an unknown profile is an error.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream or an unresolvable profile name.
    pub fn from_record(
        r: &mut RecordReader<'_>,
        resolve: impl Fn(&str) -> Option<&'static str>,
    ) -> Result<Self, RecordError> {
        r.expect("runkey")?;
        let name = r.token()?;
        let profile = resolve(name)
            .ok_or_else(|| RecordError::new(format!("unknown benchmark profile {name:?}")))?;
        let scale = ExperimentScale::from_record(r)?;
        let strategy = StrategyKind::from_record(r)?;
        let mode = AddressingMode::from_record(r)?;
        let itlb = ItlbChoice::from_record(r)?;
        let mut overrides = [None, None];
        for slot in &mut overrides {
            *slot = match r.token()? {
                "default" => None,
                bytes => Some(bytes.parse::<u64>().map_err(|_| {
                    RecordError::new(format!("malformed override token {bytes:?}"))
                })?),
            };
        }
        Ok(Self {
            profile,
            scale,
            strategy,
            mode,
            itlb,
            il1_bytes: overrides[0],
            page_bytes: overrides[1],
        })
    }
}

/// A deduplicating, memoizing, parallel executor of simulation runs.
///
/// One engine should be shared across every experiment of a session (the
/// `all_experiments` binary shares a single engine across all ten
/// tables/figures); its caches are what turn the evaluation's overlapping
/// run sets into single simulations.
#[derive(Debug)]
pub struct Engine {
    profiles: Vec<BenchmarkProfile>,
    programs: ProgramCache,
    /// Memoized compiled binaries: one compilation per [`LaidKey`] and
    /// backend, no matter how many (strategy, mode, iTLB) runs execute
    /// it, holding only the artifact that backend executes.
    binaries: Mutex<HashMap<(LaidKey, ExecBackend), Executable>>,
    state: Mutex<EngineState>,
    /// Signalled whenever results land or in-flight claims are released,
    /// so concurrent `run_many` callers waiting on another batch's keys
    /// can re-check.
    resolved: Condvar,
    simulated: AtomicU64,
    /// Walk measurements served from the persistent store.
    walks_warm: AtomicU64,
    /// Walk measurements actually computed (store miss, or no store).
    walks_cold: AtomicU64,
    /// Memoized scenario reports, keyed by the config record (the same
    /// string that content-addresses the `scenarios` store namespace).
    scenarios: Mutex<HashMap<String, Arc<ScenarioReport>>>,
    /// Scenario reports served from the persistent store.
    scenarios_warm: AtomicU64,
    /// Scenario reports actually simulated (store miss, or no store).
    scenarios_cold: AtomicU64,
    /// Persistent cross-process result store, consulted before simulating
    /// and written after (see [`Store`]). `None` = in-memory only.
    store: Option<Store>,
}

/// Warm (store-served) and cold (computed) request counts for one store
/// namespace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamespaceTraffic {
    /// Requests served from the persistent store.
    pub warm: u64,
    /// Requests that had to be computed in-process.
    pub cold: u64,
}

/// Per-namespace warm/cold accounting for every persisted layer (see
/// [`Engine::store_summary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Pipeline run reports (`runs` namespace).
    pub runs: NamespaceTraffic,
    /// Functional walk measurements (`walks`).
    pub walks: NamespaceTraffic,
    /// Multiprogrammed scenario reports (`scenarios`); all zero unless
    /// [`Engine::run_scenarios`] was used.
    pub scenarios: NamespaceTraffic,
}

/// What the engine's compilation memo holds (see
/// [`Engine::memo_counts`]): under the compiled backend only traces,
/// under the interpreter only layouts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Laid-out programs (one per class the interpreter ran).
    pub layouts: usize,
    /// Pre-decoded traces (one per class the compiled backend ran).
    pub traces: usize,
}

/// Result cache plus the set of keys some `run_many` call is currently
/// simulating. Claiming a key into `in_flight` under the same lock that
/// guards `results` is what makes concurrent batches simulate each
/// unique key exactly once.
#[derive(Debug, Default)]
struct EngineState {
    results: HashMap<RunKey, Arc<RunReport>>,
    in_flight: HashSet<RunKey>,
}

/// Releases a batch's in-flight claims even if a simulation panics, so
/// concurrent callers waiting on those keys wake up and re-claim them
/// instead of blocking forever.
struct ClaimGuard<'a> {
    engine: &'a Engine,
    keys: &'a [RunKey],
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.engine.state.lock().expect("engine state poisoned");
        for key in self.keys {
            state.in_flight.remove(key);
        }
        drop(state);
        self.engine.resolved.notify_all();
    }
}

impl Engine {
    /// An engine over the six canonical benchmark profiles.
    #[must_use]
    pub fn new() -> Self {
        Self::with_profiles(cfr_workload::profiles::all())
    }

    /// An engine over a custom profile set.
    ///
    /// # Panics
    ///
    /// Panics if two profiles share a name (names are the cache identity).
    #[must_use]
    pub fn with_profiles(profiles: Vec<BenchmarkProfile>) -> Self {
        let mut names = HashSet::new();
        for p in &profiles {
            assert!(names.insert(p.name), "duplicate profile name {:?}", p.name);
        }
        Self {
            profiles,
            programs: ProgramCache::new(),
            binaries: Mutex::new(HashMap::new()),
            state: Mutex::new(EngineState::default()),
            resolved: Condvar::new(),
            simulated: AtomicU64::new(0),
            walks_warm: AtomicU64::new(0),
            walks_cold: AtomicU64::new(0),
            scenarios: Mutex::new(HashMap::new()),
            scenarios_warm: AtomicU64::new(0),
            scenarios_cold: AtomicU64::new(0),
            store: None,
        }
    }

    /// Attaches a persistent [`Store`]: every run key is looked up on
    /// disk before simulating, and every fresh simulation is written
    /// back, so a key simulates once *per machine* rather than once per
    /// process. The same store backs the functional walk path (`walks`)
    /// and the scenario reports (`scenarios`). Programs and traces are
    /// never persisted: a fully-warm invocation needs neither, so it
    /// generates, compiles, and walks nothing.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(store);
        self
    }

    /// An engine backed by the environment's default store: the
    /// `cfr-store-serve` daemon at `$CFR_STORE_ADDR` (layered over the
    /// local shards) when that variable is set, else the machine-shared
    /// local store (`$CFR_STORE_DIR`, default `target/cfr-store`, GC
    /// policy from `CFR_STORE_MAX_BYTES`/`CFR_STORE_MAX_AGE`). If the
    /// store cannot be opened the engine still works, just without
    /// cross-process caching (a warning goes to stderr).
    #[must_use]
    pub fn with_default_store() -> Self {
        match Store::open_default() {
            Ok(store) => Self::new().with_store(store),
            Err(err) => {
                eprintln!("warning: persistent artifact store disabled: {err}");
                Self::new()
            }
        }
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Runs served from the persistent store instead of being simulated
    /// (0 without a store). Together with [`Engine::store_cold_runs`]
    /// this accounts for every unique key this engine resolved.
    #[must_use]
    pub fn store_warm_runs(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::hits)
    }

    /// Runs that had to be simulated — store misses, or every unique key
    /// when no store is attached. Always equals
    /// [`Engine::simulated_runs`].
    #[must_use]
    pub fn store_cold_runs(&self) -> u64 {
        self.simulated_runs()
    }

    /// The functional walk measurement of `profile`'s laid-out program:
    /// the non-pipeline path behind Table 4 and the calibration tooling.
    /// With a store attached the `walks` namespace is consulted first —
    /// a warm read returns without touching the generator *or* the
    /// walker — and a fresh measurement is written back.
    ///
    /// # Panics
    ///
    /// Panics if `profile` is not registered.
    #[must_use]
    pub fn walk_measurement(&self, profile: &str, scale: &ExperimentScale) -> WalkMeasurement {
        self.walk_measurements(&[profile], scale)
            .pop()
            .expect("one profile in, one measurement out")
    }

    /// [`Engine::walk_measurement`] for a whole profile set in **one**
    /// store exchange each way: a single batched probe of the `walks`
    /// namespace up front, a single batched write-back of whatever had
    /// to be measured cold. Per-profile semantics and warm/cold
    /// accounting are identical to calling the singular form in a loop.
    ///
    /// # Panics
    ///
    /// Panics if any profile is not registered.
    #[must_use]
    pub fn walk_measurements(
        &self,
        profiles: &[&str],
        scale: &ExperimentScale,
    ) -> Vec<WalkMeasurement> {
        let geom = PageGeometry::default_4k();
        let resolved: Vec<&BenchmarkProfile> = profiles
            .iter()
            .map(|name| {
                self.profiles
                    .iter()
                    .find(|p| p.name == *name)
                    .unwrap_or_else(|| panic!("unknown benchmark profile {name:?}"))
            })
            .collect();
        let keys: Vec<String> = resolved
            .iter()
            .map(|p| walk_store_key(p, geom, false, scale.max_commits, scale.seed))
            .collect();
        let artifacts = self.store.as_ref().map(Store::backend);
        let mut warm: Vec<Option<WalkMeasurement>> = match &artifacts {
            Some(store) => {
                let items: Vec<(String, String)> = keys
                    .iter()
                    .map(|key| (NS_WALKS.to_string(), key.clone()))
                    .collect();
                store
                    .load_many(&items)
                    .into_iter()
                    .map(|value| {
                        value.and_then(|text| {
                            let mut r = RecordReader::new(&text);
                            let m = WalkMeasurement::from_record(&mut r).ok()?;
                            r.finish().ok()?;
                            Some(m)
                        })
                    })
                    .collect()
            }
            None => profiles.iter().map(|_| None).collect(),
        };
        // A backend must answer slot-for-slot; pad defensively so a
        // short reply degrades to cold measurements, not lost outputs.
        warm.resize_with(profiles.len(), || None);
        let mut fresh: Vec<(String, String, String)> = Vec::new();
        let out: Vec<WalkMeasurement> = resolved
            .iter()
            .zip(&keys)
            .zip(warm)
            .map(|((p, key), warm)| {
                if let Some(m) = warm {
                    self.walks_warm.fetch_add(1, Ordering::Relaxed);
                    return m;
                }
                let program = self.programs.get(p);
                let laid = LaidProgram::lay_out(&program, geom, false);
                let m = measure_walk(&laid, scale.max_commits, scale.seed);
                self.walks_cold.fetch_add(1, Ordering::Relaxed);
                let mut w = RecordWriter::new();
                m.to_record(&mut w);
                fresh.push((NS_WALKS.to_string(), key.clone(), w.finish()));
                m
            })
            .collect();
        if let Some(store) = &artifacts {
            if !fresh.is_empty() {
                store.save_many(&fresh);
            }
        }
        out
    }

    /// Warm/cold traffic per persisted namespace (runs, walks,
    /// scenarios). "Warm" = served from the store; "cold" = computed this
    /// process (every request, when no store is attached).
    #[must_use]
    pub fn store_summary(&self) -> StoreSummary {
        StoreSummary {
            runs: NamespaceTraffic {
                warm: self.store_warm_runs(),
                cold: self.store_cold_runs(),
            },
            walks: NamespaceTraffic {
                warm: self.walks_warm.load(Ordering::Relaxed),
                cold: self.walks_cold.load(Ordering::Relaxed),
            },
            scenarios: NamespaceTraffic {
                warm: self.scenarios_warm.load(Ordering::Relaxed),
                cold: self.scenarios_cold.load(Ordering::Relaxed),
            },
        }
    }

    /// The one-line store accounting every binary prints on stderr:
    /// per-namespace warm/cold traffic and the store identity (directory
    /// path, daemon address, or both when layered), or the in-process
    /// counts when no store is attached.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let s = self.store_summary();
        // The scenarios segment only appears when scenarios ran, so the
        // line stays byte-identical for every pre-existing binary.
        let scen = if s.scenarios.warm + s.scenarios.cold > 0 {
            format!(
                "; scenarios {} warm / {} cold",
                s.scenarios.warm, s.scenarios.cold
            )
        } else {
            String::new()
        };
        match &self.store {
            Some(store) => format!(
                "store: runs {} warm / {} cold; walks {} warm / {} cold{} ({})",
                s.runs.warm,
                s.runs.cold,
                s.walks.warm,
                s.walks.cold,
                scen,
                store.describe(),
            ),
            None => format!(
                "store: disabled ({} runs simulated, {} walks measured, \
                 {} programs generated in-process{})",
                s.runs.cold,
                s.walks.cold,
                self.programs.generated(),
                if s.scenarios.cold > 0 {
                    format!(", {} scenarios simulated", s.scenarios.cold)
                } else {
                    String::new()
                },
            ),
        }
    }

    /// The registered profiles, in registration (paper table) order.
    #[must_use]
    pub fn profiles(&self) -> &[BenchmarkProfile] {
        &self.profiles
    }

    /// The shared program memo, for callers that drive
    /// [`Simulator::run_profile`](crate::Simulator::run_profile) with
    /// configurations outside the [`RunKey`] space (e.g. the iL1 and
    /// page-size sweep binaries).
    #[must_use]
    pub fn program_cache(&self) -> &ProgramCache {
        &self.programs
    }

    /// How many layouts and traces the compilation memo holds.
    #[must_use]
    pub fn memo_counts(&self) -> MemoCounts {
        let memo = self.binaries.lock().expect("binary memo poisoned");
        let mut counts = MemoCounts::default();
        for exe in memo.values() {
            match exe {
                Executable::Laid(_) => counts.layouts += 1,
                Executable::Trace(_) => counts.traces += 1,
            }
        }
        counts
    }

    /// The binary a run key executes on `backend`, memoized per
    /// [`LaidKey`] and backend: layout (and boundary instrumentation /
    /// SoLA marking) runs once per compilation class, not once per run.
    /// The memo keeps only what `backend` executes — the compiled
    /// backend's layout is traced and dropped here.
    fn executable(&self, key: &RunKey, backend: ExecBackend) -> Executable {
        let geom = key.config().cpu.geometry;
        let memo_key: (LaidKey, ExecBackend) = (
            (
                key.profile,
                geom.page_bytes(),
                compiler::wants_instrumented(key.strategy),
                key.strategy == StrategyKind::SoLA,
            ),
            backend,
        );
        let hit = self
            .binaries
            .lock()
            .expect("binary memo poisoned")
            .get(&memo_key)
            .cloned();
        hit.unwrap_or_else(|| {
            // Compile outside the lock (layout is the expensive part); a
            // concurrent compilation of the same class produces an
            // identical binary, so first-insert-wins is correct.
            let program = self.program(key.profile);
            let laid = compiler::compile_for(&program, geom, key.strategy);
            let fresh = match backend {
                ExecBackend::Interp => Executable::Laid(Arc::new(laid)),
                ExecBackend::Compiled => Executable::Trace(Arc::new(compile_trace(&laid))),
            };
            let mut memo = self.binaries.lock().expect("binary memo poisoned");
            memo.entry(memo_key).or_insert(fresh).clone()
        })
    }

    /// The generated program for a registered profile, memoized.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered profile.
    #[must_use]
    pub fn program(&self, name: &str) -> Arc<Program> {
        let profile = self
            .profiles
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown benchmark profile {name:?}"));
        self.programs.get(profile)
    }

    /// How many simulations have actually executed. Without a store,
    /// deduplication makes this equal to the number of *unique* keys ever
    /// requested; with a store attached, warm keys are served from disk
    /// and do not count here (see [`Engine::store_warm_runs`]).
    #[must_use]
    pub fn simulated_runs(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Executes one run (cached like any other).
    ///
    /// # Panics
    ///
    /// Panics if the key names an unregistered profile.
    #[must_use]
    pub fn run(&self, key: RunKey) -> Arc<RunReport> {
        self.run_many(&[key])
            .pop()
            .expect("one key in, one report out")
    }

    /// Executes a batch of runs, returning reports in request order.
    ///
    /// Keys already simulated (by any earlier call) are served from the
    /// result cache; the remaining *unique* keys run in parallel. Results
    /// are bit-identical to serial
    /// [`Simulator::run_program`](crate::Simulator::run_program) calls
    /// with the same key, in any batch composition or order.
    ///
    /// Safe to call from several threads at once: overlapping keys are
    /// claimed atomically, so each unique key still simulates exactly
    /// once — later callers block until the claiming batch publishes the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if a key names an unregistered profile, or if a previous
    /// batch panicked mid-update (poisoned cache).
    #[must_use]
    pub fn run_many(&self, keys: &[RunKey]) -> Vec<Arc<RunReport>> {
        loop {
            // Atomically claim every requested key that is neither done
            // nor already being simulated by a concurrent batch.
            let claimed: Vec<RunKey> = {
                let mut state = self.state.lock().expect("engine state poisoned");
                let mut claimed = Vec::new();
                for key in keys {
                    if !state.results.contains_key(key) && state.in_flight.insert(*key) {
                        claimed.push(*key);
                    }
                }
                claimed
            };
            if !claimed.is_empty() {
                let guard = ClaimGuard {
                    engine: self,
                    keys: &claimed,
                };
                // Consult the persistent store first, in ONE batched
                // probe for the whole claimed set (a networked backend
                // collapses it into a single pipelined MGET exchange),
                // so fully-warm batches touch neither the generator nor
                // a worker pool — and pay one round trip, not one per
                // key.
                let warm: Vec<Option<RunReport>> = match &self.store {
                    Some(store) => store.load_many(&claimed),
                    None => claimed.iter().map(|_| None).collect(),
                };
                let mut resolved: Vec<(RunKey, Option<RunReport>)> =
                    claimed.iter().copied().zip(warm).collect();
                // Resolve the cold keys' executables up front (serially,
                // memoized) so parallel workers share one immutable Arc
                // per compilation class.
                let backend = ExecBackend::from_env();
                let jobs: Vec<(RunKey, Executable)> = resolved
                    .iter()
                    .filter(|(_, warm)| warm.is_none())
                    .map(|(k, _)| (*k, self.executable(k, backend)))
                    .collect();
                // Simulate the cold keys in parallel and write each result
                // back (a single append per record; concurrent binaries
                // sharing the store resync past any torn bytes and treat
                // them as misses, never as torn reports). With a
                // coordinating backend each key is first *claimed*, so N
                // processes racing the same cold plan simulate each key
                // once globally: losers of the race get the winner's
                // published report back warm instead of re-simulating.
                let fresh: Vec<RunReport> = jobs
                    .par_iter()
                    .map(|(key, exe)| {
                        if let Some(store) = &self.store {
                            if let RunClaim::Warm(report) = store.claim_run(key) {
                                return *report;
                            }
                        }
                        let report = exe.run(&key.config(), key.strategy, key.mode);
                        self.simulated.fetch_add(1, Ordering::Relaxed);
                        if let Some(store) = &self.store {
                            store.save(key, &report);
                        }
                        report
                    })
                    .collect();
                let mut fresh = fresh.into_iter();
                {
                    let mut state = self.state.lock().expect("engine state poisoned");
                    for (key, warm) in resolved.drain(..) {
                        let report =
                            warm.unwrap_or_else(|| fresh.next().expect("one report per cold key"));
                        state.results.insert(key, Arc::new(report));
                    }
                }
                drop(guard); // release claims and wake waiters
            }
            // Collect — waiting out keys a concurrent batch is still
            // simulating. If one of those batches panicked, its claims
            // were released without results; loop back and claim them.
            let mut state = self.state.lock().expect("engine state poisoned");
            loop {
                if keys.iter().all(|k| state.results.contains_key(k)) {
                    return keys.iter().map(|k| Arc::clone(&state.results[k])).collect();
                }
                let orphaned = keys
                    .iter()
                    .any(|k| !state.results.contains_key(k) && !state.in_flight.contains(k));
                if orphaned {
                    break; // re-claim in the outer loop
                }
                state = self.resolved.wait(state).expect("engine state poisoned");
            }
        }
    }

    /// Executes one multiprogrammed scenario (cached like any other).
    ///
    /// # Panics
    ///
    /// Panics if the config names an unregistered profile (see
    /// [`Engine::run_scenarios`]).
    #[must_use]
    pub fn run_scenario(&self, cfg: &ScenarioConfig) -> Arc<ScenarioReport> {
        self.run_scenarios(std::slice::from_ref(cfg))
            .pop()
            .expect("one config in, one report out")
    }

    /// Executes a batch of scenarios, returning reports in request order.
    ///
    /// A scenario's identity is its full config record: equal configs
    /// deduplicate in-process (within and across batches) and across
    /// processes through the `scenarios` store namespace, exactly like
    /// plain runs — one batched store probe up front, one batched
    /// write-back of whatever had to be simulated cold, and warm replays
    /// are byte-identical. Per-process executables resolve through the
    /// same memoized compilation cache the single-program path uses.
    ///
    /// # Panics
    ///
    /// Panics if a config names an unregistered profile, asks for zero
    /// processes, or sets a zero quantum or ASID count.
    #[must_use]
    pub fn run_scenarios(&self, cfgs: &[ScenarioConfig]) -> Vec<Arc<ScenarioReport>> {
        let keys: Vec<String> = cfgs.iter().map(ScenarioConfig::store_key).collect();
        // Unique keys not already memoized (first requester wins; a
        // concurrent batch racing the same key recomputes the identical
        // report, so last-insert-wins stays correct).
        let unique: Vec<usize> = {
            let memo = self.scenarios.lock().expect("scenario memo poisoned");
            let mut seen = HashSet::new();
            keys.iter()
                .enumerate()
                .filter(|(_, k)| !memo.contains_key(*k) && seen.insert((*k).clone()))
                .map(|(i, _)| i)
                .collect()
        };
        if !unique.is_empty() {
            let artifacts = self.store.as_ref().map(Store::backend);
            let mut warm: Vec<Option<ScenarioReport>> = match &artifacts {
                Some(store) => {
                    let items: Vec<(String, String)> = unique
                        .iter()
                        .map(|&i| (NS_SCENARIOS.to_string(), keys[i].clone()))
                        .collect();
                    let mut values = store.load_many(&items);
                    values.resize_with(items.len(), || None);
                    values
                        .into_iter()
                        .map(|value| {
                            value.and_then(|text| {
                                let mut r = RecordReader::new(&text);
                                let rep = ScenarioReport::from_record(&mut r).ok()?;
                                r.finish().ok()?;
                                Some(rep)
                            })
                        })
                        .collect()
                }
                None => unique.iter().map(|_| None).collect(),
            };
            let backend = ExecBackend::from_env();
            let mut ready: Vec<(usize, ScenarioReport)> = Vec::new();
            let mut cold: Vec<(usize, Vec<Executable>)> = Vec::new();
            for (&i, warm) in unique.iter().zip(warm.drain(..)) {
                if let Some(rep) = warm {
                    self.scenarios_warm.fetch_add(1, Ordering::Relaxed);
                    ready.push((i, rep));
                    continue;
                }
                // Resolve this scenario's executables serially (memoized
                // per compilation class) so parallel workers share one
                // immutable Arc per binary, exactly as `run_many` does.
                let exes: Vec<Executable> = cfgs[i]
                    .procs
                    .iter()
                    .map(|p| {
                        let mut key =
                            RunKey::new(p.profile, &cfgs[i].scale, cfgs[i].strategy, cfgs[i].mode);
                        if let Some(bytes) = p.page_bytes {
                            key = key.with_page_bytes(bytes);
                        }
                        self.executable(&key, backend)
                    })
                    .collect();
                cold.push((i, exes));
            }
            let fresh: Vec<(usize, ScenarioReport)> = cold
                .par_iter()
                .map(|(i, exes)| {
                    let rep = scenario::run(&cfgs[*i], exes);
                    self.scenarios_cold.fetch_add(1, Ordering::Relaxed);
                    (*i, rep)
                })
                .collect();
            if let Some(store) = &artifacts {
                let writes: Vec<(String, String, String)> = fresh
                    .iter()
                    .map(|(i, rep)| {
                        let mut w = RecordWriter::new();
                        rep.to_record(&mut w);
                        (NS_SCENARIOS.to_string(), keys[*i].clone(), w.finish())
                    })
                    .collect();
                if !writes.is_empty() {
                    store.save_many(&writes);
                }
            }
            let mut memo = self.scenarios.lock().expect("scenario memo poisoned");
            for (i, rep) in ready.into_iter().chain(fresh) {
                memo.insert(keys[i].clone(), Arc::new(rep));
            }
        }
        let memo = self.scenarios.lock().expect("scenario memo poisoned");
        keys.iter()
            .map(|k| Arc::clone(memo.get(k).expect("every requested scenario resolved")))
            .collect()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            max_commits: 10_000,
            seed: 0x5EED,
        }
    }

    #[test]
    fn dedup_simulates_unique_keys_once() {
        let engine = Engine::new();
        let scale = tiny();
        let a = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        let b = RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt);
        let reports = engine.run_many(&[a, b, a, a, b]);
        assert_eq!(reports.len(), 5);
        assert_eq!(engine.simulated_runs(), 2, "two unique keys");
        assert!(Arc::ptr_eq(&reports[0], &reports[2]));
        // A later batch re-requesting a key hits the cache.
        let again = engine.run(a);
        assert_eq!(engine.simulated_runs(), 2);
        assert!(Arc::ptr_eq(&again, &reports[0]));
        // Each benchmark's program was generated once.
        assert_eq!(engine.program_cache().generated(), 1);
    }

    #[test]
    fn parallel_matches_serial() {
        let engine = Engine::new();
        let scale = tiny();
        let keys: Vec<RunKey> = [StrategyKind::Base, StrategyKind::Ia, StrategyKind::HoA]
            .into_iter()
            .map(|k| RunKey::new("254.gap", &scale, k, AddressingMode::ViPt))
            .collect();
        let parallel = engine.run_many(&keys);
        for (key, report) in keys.iter().zip(&parallel) {
            let program = engine.program(key.profile);
            let serial = Simulator::run_program(&program, &key.config(), key.strategy, key.mode);
            assert_eq!(**report, serial, "{key:?}");
        }
    }

    #[test]
    fn one_trace_per_compilation_class() {
        let engine = Engine::new();
        let scale = tiny();
        let base = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        // HoA runs the same uninstrumented, unmarked binary as Base.
        let hoa = RunKey::new("177.mesa", &scale, StrategyKind::HoA, AddressingMode::ViVt);
        let ia = RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt);
        let trace = |key: &RunKey| match engine.executable(key, ExecBackend::Compiled) {
            Executable::Trace(t) => t,
            Executable::Laid(_) => panic!("the compiled backend executes a trace"),
        };
        let laid = |key: &RunKey| match engine.executable(key, ExecBackend::Interp) {
            Executable::Laid(l) => l,
            Executable::Trace(_) => panic!("the interpreter executes a layout"),
        };
        // Compiled callers of one class share one trace.
        let (a, b, c) = (trace(&base), trace(&hoa), trace(&ia));
        assert!(Arc::ptr_eq(&a, &b), "same class shares one trace");
        assert!(!Arc::ptr_eq(&a, &c), "instrumented binary is another class");
        assert_eq!(
            *c,
            compile_trace(&compiler::compile_for(
                &engine.program("177.mesa"),
                PageGeometry::default_4k(),
                StrategyKind::Ia
            ))
        );
        // Compiled-only classes retain no layout.
        let traced_only = MemoCounts {
            layouts: 0,
            traces: 2,
        };
        assert_eq!(engine.memo_counts(), traced_only);
        // Interpreter callers of one class share one layout, and never
        // build a trace.
        let (x, y) = (laid(&base), laid(&hoa));
        assert!(Arc::ptr_eq(&x, &y), "same class shares one layout");
        let both = MemoCounts {
            layouts: 1,
            traces: 2,
        };
        assert_eq!(engine.memo_counts(), both);
        assert_eq!(engine.program_cache().generated(), 1);
    }

    #[test]
    fn itlb_override_is_part_of_the_key() {
        let engine = Engine::new();
        let scale = tiny();
        let base = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        let one_entry = base.with_itlb(ItlbChoice::Mono(
            cfr_types::TlbOrganization::fully_associative(1),
        ));
        assert_ne!(base, one_entry);
        // The default-iTLB override is the *same* key as the plain one.
        assert_eq!(base, base.with_itlb(ItlbChoice::default_mono()));
        let _ = engine.run_many(&[base, one_entry, base.with_itlb(ItlbChoice::default_mono())]);
        assert_eq!(engine.simulated_runs(), 2);
    }

    #[test]
    fn store_makes_runs_warm_across_engines() {
        let dir =
            std::env::temp_dir().join(format!("cfr-store-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = tiny();
        let keys = [
            RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt),
            RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt),
        ];

        let cold = Engine::new().with_store(Store::open(&dir).unwrap());
        let cold_reports = cold.run_many(&keys);
        assert_eq!(cold.simulated_runs(), 2);
        assert_eq!(cold.store_warm_runs(), 0);
        assert_eq!(cold.store_cold_runs(), 2);

        // A fresh engine (= a fresh process, as far as caching goes) over
        // the same directory serves everything from disk, bit-identically.
        let warm = Engine::new().with_store(Store::open(&dir).unwrap());
        let warm_reports = warm.run_many(&keys);
        assert_eq!(warm.simulated_runs(), 0, "all served from the store");
        assert_eq!(warm.store_warm_runs(), 2);
        for (a, b) in cold_reports.iter().zip(&warm_reports) {
            assert_eq!(**a, **b);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_overrides_apply() {
        let scale = tiny();
        let base = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        assert_eq!(base.config().cpu.il1.organization.size_bytes, 8 * 1024);
        assert_eq!(base.config().cpu.geometry.page_bytes(), 4096);
        let swept = base.with_il1_bytes(2048).with_page_bytes(16384);
        assert_ne!(base, swept, "overrides are part of the identity");
        assert_eq!(swept.config().cpu.il1.organization.size_bytes, 2048);
        assert_eq!(swept.config().cpu.geometry.page_bytes(), 16384);
        // Default-valued overrides canonicalize to the plain key, so a
        // sweep's default column deduplicates against non-sweep runs.
        assert_eq!(base.with_il1_bytes(8 * 1024).with_page_bytes(4096), base);
    }

    #[test]
    fn scenarios_dedup_and_persist() {
        use crate::scenario::{ScenarioProc, TlbMode};
        let dir =
            std::env::temp_dir().join(format!("cfr-store-scenario-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ScenarioConfig::new(
            vec![ScenarioProc::new("177.mesa"), ScenarioProc::new("254.gap")],
            tiny(),
            StrategyKind::Ia,
            AddressingMode::ViPt,
        );
        cfg.quantum = 4_000;
        cfg.tlb_mode = TlbMode::Flush;

        let cold = Engine::new().with_store(Store::open(&dir).unwrap());
        let a = cold.run_scenarios(&[cfg.clone(), cfg.clone()]);
        assert!(
            Arc::ptr_eq(&a[0], &a[1]),
            "duplicate configs share one report"
        );
        let s = cold.store_summary().scenarios;
        assert_eq!((s.warm, s.cold), (0, 1), "one unique scenario simulated");
        assert!(a[0].context_switches > 0);

        // A fresh engine over the same directory replays warm,
        // byte-identically (the differential suite pins this end to end).
        let warm = Engine::new().with_store(Store::open(&dir).unwrap());
        let b = warm.run_scenario(&cfg);
        let s = warm.store_summary().scenarios;
        assert_eq!((s.warm, s.cold), (1, 0), "served from the store");
        assert_eq!(*b, *a[0], "warm replay is field-identical");
        assert!(
            warm.summary_line().contains("scenarios 1 warm / 0 cold"),
            "summary line grows a scenarios segment: {}",
            warm.summary_line()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_line_has_no_scenario_segment_without_scenarios() {
        let engine = Engine::new();
        let _ = engine.run(RunKey::new(
            "177.mesa",
            &tiny(),
            StrategyKind::Base,
            AddressingMode::ViPt,
        ));
        assert!(
            !engine.summary_line().contains("scenario"),
            "pre-existing binaries' store lines must stay byte-identical"
        );
    }

    #[test]
    #[should_panic(expected = "unknown benchmark profile")]
    fn unknown_profile_panics() {
        let engine = Engine::new();
        let _ = engine.run(RunKey::new(
            "000.nope",
            &tiny(),
            StrategyKind::Base,
            AddressingMode::ViPt,
        ));
    }
}
