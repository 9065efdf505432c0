//! A timing [`StoreBackend`] around [`ArtifactStore`].
//!
//! Every method delegates to the artifact store unchanged; the wrapper
//! only records a span per call, counts loads and saves, sums the value
//! bytes saved per namespace, and keeps the saved run records so the
//! benchmark can check them after the pass. A key's `claim` → `save`
//! interval on one engine worker is the time that worker spent
//! simulating it, recorded as a `core.simulator.run` span.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cfr_types::{ArtifactStore, ClaimOutcome, StoreBackend, NS_RUNS};

use crate::spans::Tracer;

/// What the wrapper saw during a pass.
#[derive(Clone, Debug, Default)]
pub struct StoreTraffic {
    /// Keys looked up (`load` calls plus every key of a `load_many`).
    pub loads: u64,
    /// Records saved (`save` calls plus every record of a `save_many`).
    pub saves: u64,
    /// Value bytes saved, per namespace.
    pub bytes: BTreeMap<String, u64>,
    /// Saved `runs` values, in save order.
    pub run_records: Vec<String>,
}

/// The benchmark's timing wrapper (see the module docs).
#[derive(Debug)]
pub struct TimedStore {
    inner: ArtifactStore,
    tracer: Arc<Tracer>,
    traffic: Mutex<StoreTraffic>,
    /// Claim time (tracer ns) of each `runs` key claimed but not yet saved.
    claimed: Mutex<HashMap<String, u64>>,
}

impl TimedStore {
    /// Wraps `inner`, recording spans into `tracer`.
    #[must_use]
    pub fn new(inner: ArtifactStore, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            traffic: Mutex::new(StoreTraffic::default()),
            claimed: Mutex::new(HashMap::new()),
        }
    }

    /// A copy of the traffic seen so far.
    #[must_use]
    pub fn traffic(&self) -> StoreTraffic {
        self.traffic.lock().expect("store traffic poisoned").clone()
    }

    fn note_saved(&self, ns: &str, key: &str, value: &str) {
        if ns == NS_RUNS {
            let claimed = self.claimed.lock().expect("claim map poisoned").remove(key);
            if let Some(start) = claimed {
                self.tracer
                    .record("core.simulator.run", start, self.tracer.now_ns());
            }
        }
        let mut t = self.traffic.lock().expect("store traffic poisoned");
        t.saves += 1;
        *t.bytes.entry(ns.to_string()).or_default() += value.len() as u64;
        if ns == NS_RUNS {
            t.run_records.push(value.to_string());
        }
    }
}

impl StoreBackend for TimedStore {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        let _span = self.tracer.span("core.store.load");
        self.traffic.lock().expect("store traffic poisoned").loads += 1;
        StoreBackend::load(&self.inner, ns, key)
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        self.note_saved(ns, key, value);
        let _span = self.tracer.span("core.store.save");
        StoreBackend::save(&self.inner, ns, key, value);
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        let _span = self.tracer.span("core.store.load_many");
        self.traffic.lock().expect("store traffic poisoned").loads += items.len() as u64;
        StoreBackend::load_many(&self.inner, items)
    }

    fn save_many(&self, items: &[(String, String, String)]) {
        for (ns, key, value) in items {
            self.note_saved(ns, key, value);
        }
        let _span = self.tracer.span("core.store.save_many");
        StoreBackend::save_many(&self.inner, items);
    }

    fn claim(&self, ns: &str, key: &str, lease: Duration) -> ClaimOutcome {
        if ns == NS_RUNS {
            self.claimed
                .lock()
                .expect("claim map poisoned")
                .insert(key.to_string(), self.tracer.now_ns());
        }
        StoreBackend::claim(&self.inner, ns, key, lease)
    }

    fn wait_for(&self, ns: &str, key: &str, timeout: Duration) -> Option<String> {
        StoreBackend::wait_for(&self.inner, ns, key, timeout)
    }

    fn write_errors(&self) -> u64 {
        StoreBackend::write_errors(&self.inner)
    }

    fn namespace_records(&self, ns: &str) -> usize {
        StoreBackend::namespace_records(&self.inner, ns)
    }

    fn describe(&self) -> String {
        StoreBackend::describe(&self.inner)
    }
}
