//! Memoized program generation.
//!
//! Generating a [`BenchmarkProfile`]'s program is deterministic (the
//! profile's [`GeneratorParams`] embed the seed) but not cheap, and the
//! experiment harness historically regenerated the same six programs for
//! every (strategy, mode, iTLB) combination. A [`ProgramCache`] generates
//! each profile **once** and shares the result via [`Arc`], so concurrent
//! simulations of the same benchmark borrow one immutable program.
//!
//! Programs live only in memory: regenerating the six takes milliseconds,
//! and a warm replay served from the persistent store's `runs`/`walks`
//! records never needs a program at all.
//!
//! [`GeneratorParams`]: crate::GeneratorParams

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::profiles::BenchmarkProfile;
use crate::program::Program;

/// A by-name memo of generated programs.
///
/// Profiles are identified by their `name`: two profiles sharing a name
/// are assumed to share [`GeneratorParams`] (true of the canonical
/// [`profiles`](crate::profiles) set, whose names are unique).
///
/// [`GeneratorParams`]: crate::GeneratorParams
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: Mutex<HashMap<&'static str, Arc<Program>>>,
    generated: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The program for `profile`, generated on first request and shared
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned (a previous generation
    /// panicked).
    #[must_use]
    pub fn get(&self, profile: &BenchmarkProfile) -> Arc<Program> {
        let mut programs = self.programs.lock().expect("program cache poisoned");
        if let Some(program) = programs.get(profile.name) {
            return Arc::clone(program);
        }
        self.generated.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(profile.generate());
        programs.insert(profile.name, Arc::clone(&program));
        program
    }

    /// How many programs this cache actually generated; the memoization
    /// guarantee asserted by tests.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn generates_each_profile_once() {
        let cache = ProgramCache::new();
        let a = cache.get(&profiles::mesa());
        let b = cache.get(&profiles::mesa());
        assert!(Arc::ptr_eq(&a, &b), "second get must share the first Arc");
        assert_eq!(cache.generated(), 1);
        let _ = cache.get(&profiles::gap());
        assert_eq!(cache.generated(), 2);
    }

    #[test]
    fn cached_program_equals_fresh_generation() {
        let cache = ProgramCache::new();
        let profile = profiles::crafty();
        let cached = cache.get(&profile);
        assert_eq!(
            *cached,
            profile.generate(),
            "memoization must not change the program"
        );
    }
}
