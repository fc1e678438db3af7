#![deny(missing_docs)]
//! # llamp-obs — zero-overhead-when-off tracing, metrics and profiling
//!
//! A hand-rolled span/metrics core for the LLAMP pipeline (the registry
//! is unreachable in this build environment, so no `tracing` /
//! `metrics` crates — same shim philosophy as `crates/shims`). Three
//! primitives:
//!
//! * **spans** — hierarchical timed regions with structured key/value
//!   fields, opened with [`span()`] (or the [`span!`] macro) and closed by
//!   RAII guard drop. Per-thread buffers collect closed spans and drain
//!   into the global recorder whenever a thread's root span closes, so
//!   workers never contend mid-task.
//! * **metrics** — monotonic [`counter`]s, last-write-wins [`gauge`]s and
//!   HDR-style log-bucketed [`Histogram`]s ([`observe`] / [`time`]) in
//!   a thread-safe registry.
//! * **exporters** — [`take`] drains everything into a [`Snapshot`],
//!   which renders as a human-readable aggregate tree
//!   ([`Summary::render`]) or a `chrome://tracing` JSON file
//!   ([`Snapshot::chrome_trace_json`]).
//!
//! ## The off switch is the design
//!
//! Recording is globally disabled by default. Every entry point loads
//! one relaxed atomic and returns: no clock read, no allocation, no
//! lock. [`span()`] returns an inert guard, [`counter`]/[`observe`]
//! return before touching the registry, and [`time`] runs its closure
//! untimed. The LP crate's counting-allocator harness
//! (`crates/lp/tests/alloc_count.rs`) certifies that the instrumented
//! simplex hot loop stays zero-allocation with recording off.
//!
//! ## Determinism contract
//!
//! Telemetry is strictly *out-of-band*: nothing recorded here may enter
//! results JSON, cache keys or any other deterministic artifact.
//! Enabling or disabling recording must never change a computed result
//! — the engine's integration tests run the full campaign pipeline both
//! ways and require byte-identical output (see
//! `docs/OBSERVABILITY.md`).
//!
//! ## Usage
//!
//! ```
//! llamp_obs::enable();
//! {
//!     let s = llamp_obs::span("solve");
//!     s.field_u64("iterations", 42);
//!     llamp_obs::counter("cache.pt.hit", 1);
//!     llamp_obs::observe("solve.point_ns", 1_500);
//! }
//! let snapshot = llamp_obs::take();
//! llamp_obs::disable();
//! assert_eq!(snapshot.events.len(), 1);
//! let tree = snapshot.summary().render();
//! assert!(tree.contains("solve"));
//! ```

pub mod hist;
pub mod report;

pub use hist::{Histogram, HistogramSummary};
pub use report::{Snapshot, SpanAgg, SpanEvent, Summary};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A structured span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Float (rates, drifts).
    F64(f64),
    /// Short label (backend names, workload names).
    Str(String),
}

// ---------------------------------------------------------------------
// Global recorder state.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by `enable()`; thread-local buffers from an older generation
/// are discarded on first use instead of leaking stale frames in.
static GENERATION: AtomicU32 = AtomicU32::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Epoch for all timestamps. Set once per process so Chrome-trace
/// timestamps stay monotone across enable/disable cycles.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Sink {
    events: Vec<SpanEvent>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Sink::default()))
}

struct OpenFrame {
    name: &'static str,
    path: String,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

struct ThreadBuf {
    generation: u32,
    tid: u32,
    stack: Vec<OpenFrame>,
    done: Vec<SpanEvent>,
}

thread_local! {
    static LOCAL: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            generation: 0,
            tid: 0,
            stack: Vec::new(),
            done: Vec::new(),
        })
    };
}

/// Turn recording on (clearing anything a previous session left behind).
pub fn enable() {
    {
        let mut s = sink().lock().expect("obs sink");
        *s = Sink::default();
    }
    GENERATION.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Spans still open keep unwinding their stacks
/// correctly; they are simply no longer exported.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is on. The single branch every instrumentation
/// point pays when telemetry is off.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drain everything recorded since [`enable`] into a [`Snapshot`]
/// (flushing the calling thread's buffer first; worker threads flush
/// when their root spans close).
pub fn take() -> Snapshot {
    LOCAL.with(|l| flush_local(&mut l.borrow_mut()));
    let mut s = sink().lock().expect("obs sink");
    let s = std::mem::take(&mut *s);
    Snapshot {
        events: s.events,
        counters: s.counters,
        gauges: s.gauges,
        hists: s.hists,
    }
}

fn flush_local(buf: &mut ThreadBuf) {
    if buf.done.is_empty() {
        return;
    }
    let mut s = sink().lock().expect("obs sink");
    s.events.append(&mut buf.done);
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// RAII guard for one open span. Dropping it closes the span and, if it
/// was the thread's root span, drains the thread buffer into the global
/// recorder.
#[must_use = "a span measures the scope of its guard; bind it with `let`"]
pub struct SpanGuard {
    /// Depth of this guard's frame (0 = inert guard, recording off).
    depth: usize,
}

/// Open a span. With recording off this is one atomic load and an inert
/// guard — no clock read, no allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { depth: 0 };
    }
    span_slow(name)
}

/// Open a span (macro form, mirroring the function; both compile to
/// near-nothing when recording is off).
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        if buf.generation != generation {
            // A new recording session started since this thread last
            // recorded: drop stale state, assign a fresh lane.
            buf.generation = generation;
            buf.stack.clear();
            buf.done.clear();
            buf.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        let path = match buf.stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        buf.stack.push(OpenFrame {
            name,
            path,
            start_ns: now_ns(),
            fields: Vec::new(),
        });
        SpanGuard {
            depth: buf.stack.len(),
        }
    })
}

impl SpanGuard {
    #[inline]
    fn with_frame(&self, f: impl FnOnce(&mut OpenFrame)) {
        if self.depth == 0 {
            return;
        }
        LOCAL.with(|l| {
            let mut buf = l.borrow_mut();
            // The frame may be gone if a new session started mid-span.
            if let Some(frame) = buf.stack.get_mut(self.depth - 1) {
                f(frame);
            }
        });
    }

    /// Attach an unsigned-integer field.
    #[inline]
    pub fn field_u64(&self, key: &'static str, v: u64) {
        self.with_frame(|fr| fr.fields.push((key, FieldValue::U64(v))));
    }

    /// Attach a float field.
    #[inline]
    pub fn field_f64(&self, key: &'static str, v: f64) {
        self.with_frame(|fr| fr.fields.push((key, FieldValue::F64(v))));
    }

    /// Attach a string field.
    #[inline]
    pub fn field_str(&self, key: &'static str, v: &str) {
        if self.depth == 0 {
            return;
        }
        let v = v.to_string();
        self.with_frame(|fr| fr.fields.push((key, FieldValue::Str(v))));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        let end = now_ns();
        LOCAL.with(|l| {
            let mut buf = l.borrow_mut();
            // Guards drop LIFO; anything deeper was leaked by a panic
            // unwinding past its scope — discard those frames silently.
            while buf.stack.len() >= self.depth {
                let frame = buf.stack.pop().expect("frame present");
                if buf.stack.len() + 1 == self.depth {
                    let tid = buf.tid;
                    buf.done.push(SpanEvent {
                        path: frame.path,
                        name: frame.name,
                        tid,
                        start_ns: frame.start_ns,
                        dur_ns: end.saturating_sub(frame.start_ns),
                        fields: frame.fields,
                    });
                }
            }
            if buf.stack.is_empty() {
                flush_local(&mut buf);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut s = sink().lock().expect("obs sink");
    match s.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            s.counters.insert(name.to_string(), delta);
        }
    }
}

/// Set the named gauge (last write wins).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    let mut s = sink().lock().expect("obs sink");
    match s.gauges.get_mut(name) {
        Some(v) => *v = value,
        None => {
            s.gauges.insert(name.to_string(), value);
        }
    }
}

/// Record one sample into the named histogram. By convention a name
/// ending in `_ns` holds durations in nanoseconds; any other holds plain
/// counts (e.g. `lp.zone_steps`) and renders as such.
#[inline]
pub fn observe(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut s = sink().lock().expect("obs sink");
    match s.hists.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            s.hists.insert(name.to_string(), h);
        }
    }
}

/// Time a closure into the named histogram. With recording off the
/// closure runs bare — no clock reads.
#[inline]
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !is_enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    observe(name, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Obs state is process-global; unit tests touching it serialize
    /// through this lock so `cargo test`'s threaded harness cannot
    /// interleave sessions.
    fn session_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = session_lock().lock().unwrap();
        disable();
        let s = span("nothing");
        s.field_u64("n", 1);
        drop(s);
        counter("c", 1);
        observe("h", 5);
        gauge("g", 1.0);
        let snap = take();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_flushes_at_root_close() {
        let _guard = session_lock().lock().unwrap();
        enable();
        {
            let outer = span("outer");
            {
                let inner = span("inner");
                inner.field_u64("k", 7);
            }
            outer.field_str("label", "x");
        }
        let snap = take();
        disable();
        assert_eq!(snap.events.len(), 2);
        // Inner closes first.
        assert_eq!(snap.events[0].path, "outer/inner");
        assert_eq!(snap.events[1].path, "outer");
        assert_eq!(snap.events[0].fields, vec![("k", FieldValue::U64(7))]);
        let summary = snap.summary();
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.spans[0].path, "outer");
        assert_eq!(summary.spans[1].depth, 1);
    }

    #[test]
    fn metrics_accumulate() {
        let _guard = session_lock().lock().unwrap();
        enable();
        counter("jobs", 2);
        counter("jobs", 3);
        gauge("g", 1.0);
        gauge("g", 4.0);
        observe("lat", 100);
        observe("lat", 200);
        let snap = take();
        disable();
        assert_eq!(snap.counters.get("jobs"), Some(&5));
        assert_eq!(snap.gauges.get("g"), Some(&4.0));
        assert_eq!(snap.hists.get("lat").unwrap().count(), 2);
    }

    #[test]
    fn cross_thread_spans_land_on_distinct_lanes() {
        let _guard = session_lock().lock().unwrap();
        enable();
        let main_span = span("main");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = span("worker");
                });
            }
        });
        drop(main_span);
        let snap = take();
        disable();
        assert_eq!(snap.events.len(), 3);
        let mut tids: Vec<u32> = snap.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread gets its own lane");
    }

    #[test]
    fn time_feeds_histogram_only_when_enabled() {
        let _guard = session_lock().lock().unwrap();
        disable();
        assert_eq!(time("t", || 41) + 1, 42);
        assert!(take().hists.is_empty());
        enable();
        let v = time("t", || 42);
        assert_eq!(v, 42);
        let snap = take();
        disable();
        assert_eq!(snap.hists.get("t").unwrap().count(), 1);
    }
}
