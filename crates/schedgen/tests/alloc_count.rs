//! Allocation accounting for the front end: ingestion and the
//! reduction passes.
//!
//! The reduction arena keeps its adjacency lists in one flat pool per
//! direction, fills live-edge lists into reused buffers and keeps every
//! pass's scratch across passes and rounds, so reducing a graph costs a
//! bounded number of allocations per pass, not per vertex. Ingestion
//! threads every channel's pending ops through one arena and every
//! wait's op list through one flat list, so it costs allocations per
//! channel and per collective instance, not per record. A counting
//! global allocator enforces both on HPCG at 24 ranks × 1 iteration
//! (5,184 records, 13,352 vertices):
//! building the graph must allocate fewer than `records / 8` times and
//! reducing it fewer than `vertices / 8` times. A per-record queue or
//! wait list, a per-vertex member list, or a `Vec` collected per
//! live-list query costs at least one allocation per record or vertex.

use llamp_schedgen::{graph_of_programs, reduce, GraphConfig, ReduceConfig};
use llamp_workloads::App;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The count is process-wide: tests take this lock so that they do not
/// count each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn ingestion_does_not_allocate_per_record() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        !llamp_obs::is_enabled(),
        "obs recording must be off for the allocation count"
    );
    let set = App::Hpcg.programs(24, 1);
    let records = set.num_records() as u64;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let g = graph_of_programs(&set, &GraphConfig::paper()).expect("hpcg builds");
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(g.num_messages() > 0, "the build ran");
    assert!(
        allocs < records / 8,
        "{allocs} allocations building {records} records (budget {}): \
         ingestion is allocating per record",
        records / 8
    );
}

#[test]
fn reduction_does_not_allocate_per_vertex() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // With telemetry off every span is an inert guard, so the count
    // below is the passes' own.
    assert!(
        !llamp_obs::is_enabled(),
        "obs recording must be off for the allocation count"
    );
    let set = App::Hpcg.programs(24, 1);
    let g = graph_of_programs(&set, &GraphConfig::paper()).expect("hpcg builds");
    let n = g.num_vertices() as u64;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reduced = reduce(&g, &ReduceConfig::default());
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(reduced.stats().vertices_after < n, "reduction ran");
    assert!(
        allocs < n / 8,
        "{allocs} allocations reducing {n} vertices (budget {}): the \
         reduction is allocating per vertex",
        n / 8
    );
}
