//! Allocation accounting for the reduction passes.
//!
//! The reduction arena keeps its adjacency lists in one flat pool per
//! direction, fills live-edge lists into reused buffers and keeps every
//! pass's scratch across passes and rounds, so reducing a graph costs a
//! bounded number of allocations per pass, not per vertex. A counting
//! global allocator enforces it: reducing HPCG at 24 ranks × 1 iteration
//! (13,352 vertices, whole-graph path) must allocate fewer than
//! `vertices / 8` times. A per-vertex member list, or a `Vec` collected
//! per live-list query, costs at least one allocation per vertex.

use llamp_schedgen::{graph_of_programs, reduce, GraphConfig, ReduceConfig};
use llamp_workloads::App;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn reduction_does_not_allocate_per_vertex() {
    // With telemetry off every span is an inert guard, so the count
    // below is the passes' own.
    assert!(
        !llamp_obs::is_enabled(),
        "obs recording must be off for the allocation count"
    );
    let set = App::Hpcg.programs(24, 1);
    let g = graph_of_programs(&set, &GraphConfig::paper()).expect("hpcg builds");
    let n = g.num_vertices() as u64;
    let cfg = ReduceConfig::default();
    assert!(
        g.num_vertices() < cfg.par_threshold,
        "{n} vertices: the shape must stay on the whole-graph path"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reduced = reduce(&g, &cfg);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(reduced.stats().vertices_after < n, "reduction ran");
    assert!(
        allocs < n / 8,
        "{allocs} allocations reducing {n} vertices (budget {}): the \
         reduction is allocating per vertex",
        n / 8
    );
}
