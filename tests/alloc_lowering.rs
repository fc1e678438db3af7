//! LP lowering (Algorithm 1), the last build stage before the solves:
//! its allocation budget and its pinned rows.
//!
//! `GraphLp::build` names no variable or row, fills every row from one
//! reused term buffer, and the model appends rows to flat arrays, so
//! lowering costs a bounded number of allocations per model, not per
//! row. A counting global allocator enforces it on HPCG at 24 ranks × 1
//! iteration (1 984 rows once reduced): lowering must allocate fewer
//! than `rows / 8` times, as ingestion stays under `records / 8` and
//! reduction under `vertices / 8`. A formatted name or a term `Vec` per
//! row costs at least one allocation per row.
//!
//! The rows themselves are pinned by fingerprint on the campaign
//! benchmark's `lp-zones` shapes: every LP answer is a function of
//! these columns, coefficients and bounds, so moving one bit needs a new
//! LP tag in the cache key and new fingerprints here.

use llamp::core::{Binding, GraphLp};
use llamp::lp::ConId;
use llamp::model::LogGPSParams;
use llamp::schedgen::{reduced_graph_of_programs, GraphConfig, ReduceConfig, ReducedGraph};
use llamp::workloads::App;
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

fn reduced(app: App) -> ReducedGraph {
    reduced_graph_of_programs(
        &app.programs(24, 1),
        &GraphConfig::paper(),
        &ReduceConfig::default(),
    )
    .expect("workload builds")
}

fn binding() -> Binding {
    Binding::uniform(&LogGPSParams::default())
}

#[test]
fn lowering_does_not_allocate_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Telemetry is off in this binary, so `lp.lower` is an inert guard
    // and the count below is lowering's own.
    let graph = reduced(App::Hpcg);
    let binding = binding();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let lp = GraphLp::build(&graph, &binding);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let rows = lp.model().num_constraints() as u64;
    assert_eq!(rows, 1_984, "HPCG r24 i1 lowers to its reduced row count");
    assert!(
        allocs < rows / 8,
        "{allocs} allocations lowering {rows} rows (budget {}): \
         lowering is allocating per row",
        rows / 8
    );
}

/// FNV-1a over 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn lowered_rows_are_pinned() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let binding = binding();
    for (app, want) in [
        (App::Hpcg, 0x5fda_98bd_1169_e30b_u64),
        (App::Lulesh, 0x49c5_2242_09f3_0ad1),
    ] {
        let lp = GraphLp::build(&reduced(app), &binding);
        let model = lp.model();
        let mut words = vec![model.num_vars() as u64, model.num_constraints() as u64];
        for i in 0..model.num_constraints() as u32 {
            let row = ConId(i);
            for &(col, coef) in model.row(row) {
                words.push(u64::from(col));
                words.push(coef.to_bits());
            }
            let (lb, ub) = model.row_bounds(row);
            words.extend([lb.to_bits(), ub.to_bits()]);
        }
        assert_eq!(fnv1a(words), want, "{} r24 i1 rows moved", app.name());
    }
}
