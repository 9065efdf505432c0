//! The engine's compilation memo holds exactly the artifact the active
//! execution backend runs, and nothing else.
//!
//! A counting global allocator tracks the live heap. After a Figure 4
//! pass (both panels: all 18 compilation classes of the six paper
//! benchmarks) on a fresh storeless engine, the heap the engine still
//! holds — generated programs, memoized executables, cached reports — must
//! stay small under the compiled backend (traces only, no layouts), and
//! under `CFR_BACKEND=interp` the memo must hold layouts and no trace.
//!
//! This file holds a single test so no concurrent test skews the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cfr_sim::core::{fig4, Engine, ExecBackend, ExperimentScale, MemoCounts};

/// [`System`], counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic and never influences an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1024 * 1024;

#[test]
fn engine_retains_only_what_the_active_backend_executes() {
    let scale = ExperimentScale {
        max_commits: 4_000,
        seed: 0x5EED,
    };
    let before = LIVE.load(Ordering::Relaxed);
    let engine = Engine::new();
    let rows = fig4(&engine, &scale);
    assert_eq!(rows.len(), 12, "two panels of six benchmarks");
    drop(rows);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let memo = engine.memo_counts();
    match ExecBackend::from_env() {
        ExecBackend::Compiled => {
            assert_eq!(
                memo,
                MemoCounts {
                    layouts: 0,
                    traces: 18
                },
                "one trace per compilation class, no layout"
            );
            assert!(
                held < 64 * MIB,
                "the engine holds {:.1} MiB after a Figure 4 pass",
                held as f64 / MIB as f64
            );
        }
        ExecBackend::Interp => assert_eq!(
            memo,
            MemoCounts {
                layouts: 18,
                traces: 0
            },
            "the interpreter never builds a trace"
        ),
    }
    drop(engine);
}
