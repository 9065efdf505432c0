//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program), kept in memory, and written out as JSON
//! lines when the run ends. Every span carries the id of the pass it
//! belongs to, so the spans of one pass can be grouped.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::host::json_str;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer (1-based).
    pub id: u64,
    /// The span that caused this one; 0 for a top-level span.
    pub parent: u64,
    /// The pass this span belongs to.
    pub run: u64,
    /// Small per-thread id (1 = first thread that recorded a span).
    pub thread: u64,
    /// Layer-qualified name, e.g. `core.store.save`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<u64> = const { RefCell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let mut t = t.borrow_mut();
        if *t == 0 {
            *t = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        }
        *t
    })
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    /// Parent for spans opened on threads with no open span of their own
    /// (engine worker threads): the caller's current span.
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    previous_root: Option<u64>,
}

impl SpanGuard<'_> {
    /// This span's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        if let Some(previous) = self.previous_root {
            self.tracer.root.store(previous, Ordering::Relaxed);
        }
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            run: self.tracer.run.load(Ordering::Relaxed),
            thread: thread_id(),
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new pass: later spans carry `run`.
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn current_parent(&self) -> u64 {
        OPEN.with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| self.root.load(Ordering::Relaxed))
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Opens a span on this thread, nested under the thread's innermost
    /// open span (or the current root).
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        self.open(name.into(), false)
    }

    /// Opens a span that also becomes the parent of spans opened on
    /// other threads (engine workers) until it closes.
    pub fn root_span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        self.open(name.into(), true)
    }

    fn open(&self, name: String, as_root: bool) -> SpanGuard<'_> {
        let id = self.next_id();
        let parent = self.current_parent();
        OPEN.with(|open| open.borrow_mut().push(id));
        let previous_root = as_root.then(|| self.root.swap(id, Ordering::Relaxed));
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            previous_root,
        }
    }

    /// Records an already-measured interval on the calling thread (used
    /// for intervals that open and close in different calls, such as a
    /// run's claim-to-save simulation).
    pub fn record(&self, name: impl Into<String>, start_ns: u64, end_ns: u64) {
        let id = self.next_id();
        let parent = self.current_parent();
        self.push(Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            thread: thread_id(),
            name: name.into(),
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (s) of the spans named `name` in pass `run`.
    #[must_use]
    pub fn durations(&self, name: &str, run: u64) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of the spans named `name`, per pass.
    #[must_use]
    pub fn sums_by_run(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut sums = BTreeMap::new();
        for s in self.spans.lock().expect("span list poisoned").iter() {
            if s.name == name {
                *sums.entry(s.run).or_insert(0.0) += s.secs();
            }
        }
        sums
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"thread\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.run,
                s.thread,
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Seconds within `[from, to]` during which fewer than `threads` of the
/// `intervals` (start, end ns) are open at once: the part of a batch
/// where workers sit idle waiting for the slowest runs.
#[must_use]
pub fn undersubscribed_secs(intervals: &[(u64, u64)], threads: usize) -> f64 {
    if intervals.is_empty() {
        return 0.0;
    }
    let mut events: Vec<(u64, i64)> = intervals
        .iter()
        .flat_map(|&(s, e)| [(s, 1), (e, -1)])
        .collect();
    events.sort_unstable();
    let from = events[0].0;
    let to = events[events.len() - 1].0;
    let mut open = 0i64;
    let mut last = from;
    let mut full_ns = 0u64;
    for (t, delta) in events {
        if open >= threads as i64 {
            full_ns += t - last;
        }
        open += delta;
        last = t;
    }
    (to - from - full_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_run() {
        let t = Tracer::new();
        t.set_run(3);
        let outer_id;
        {
            let outer = t.root_span("outer");
            outer_id = outer.id();
            let _inner = t.span("inner");
            std::thread::scope(|s| {
                s.spawn(|| t.record("worker", 1, 2));
            });
        }
        let spans = t.spans();
        let find = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(find("outer").parent, 0);
        assert_eq!(find("inner").parent, outer_id);
        assert_eq!(
            find("worker").parent,
            outer_id,
            "worker threads nest under the root"
        );
        assert!(spans.iter().all(|s| s.run == 3));
        let _after = t.span("after");
        drop(_after);
        assert_eq!(t.spans().last().expect("span").parent, 0, "root restored");
    }

    #[test]
    fn undersubscription_counts_idle_tails() {
        // Two threads: both busy 0..10, then one alone until 30.
        let iv = [(0, 10_000_000_000), (0, 30_000_000_000)];
        assert!((undersubscribed_secs(&iv, 2) - 20.0).abs() < 1e-9);
        assert!((undersubscribed_secs(&iv, 1) - 0.0).abs() < 1e-9);
        assert_eq!(undersubscribed_secs(&[], 2), 0.0);
    }
}
