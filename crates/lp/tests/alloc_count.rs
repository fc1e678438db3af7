//! Allocation accounting for the simplex hot path.
//!
//! ISSUE 3's contract: no per-iteration heap allocation in the
//! FTRAN/BTRAN/pricing path — all hot-loop linear algebra runs through
//! solver-owned `IndexedVec` workspaces. This test enforces it with a
//! counting global allocator: a solve that runs hundreds of iterations
//! must allocate strictly fewer times than it iterates (the PR 2 loop
//! allocated ~6 vectors per iteration; the rewritten loop allocates only
//! at build, refactorisation and extraction).
//!
//! A crash-started zero-pivot re-solve — the solve every LLAMP query
//! runs — must stay allocation-light at any size: the model keeps its
//! matrix, the crash tree factors by substitution into exactly-sized
//! arrays, and extraction reuses the one pricing pass, so its allocation
//! count is a constant, not a function of the row count.

use llamp_lp::simplex::{solve_sparse, SimplexOptions};
use llamp_lp::solution::VarStatus;
use llamp_lp::{Basis, LpModel, Objective, Relation, VarId};
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

/// A diagonal LP: `x_i ≥ 1` as rows forces one pivot per row from the
/// all-logical start while keeping every FTRAN result a singleton, so the
/// eta file grows slowly and the long middle of the solve runs without a
/// single refactorisation — isolating the per-iteration path the test is
/// about. (Refactorisation and extraction legitimately allocate; they are
/// amortized, not per-iteration.)
fn diagonal(n: usize) -> LpModel {
    let mut m = LpModel::new(Objective::Minimize);
    for j in 0..n {
        let x = m.add_var(format!("x{j}"), 0.0, f64::INFINITY, 1.0 + (j % 7) as f64);
        m.add_constraint(format!("r{j}"), &[(x, 1.0)], Relation::Ge, 1.0);
    }
    m
}

#[test]
fn hot_loop_does_not_allocate_per_iteration() {
    let _serial = serial();
    let n = 400;
    let model = diagonal(n);
    let opts = SimplexOptions::default();

    // ISSUE 6's contract rides on top: the solve path is instrumented
    // with llamp-obs spans, and with recording *off* (the default) the
    // instrumentation must be a single relaxed atomic load — zero
    // allocations, zero clock reads. This assertion documents that the
    // run below certifies the tracing-off regime.
    assert!(
        !llamp_obs::is_enabled(),
        "obs recording must be off for the zero-allocation certification"
    );

    // Warm-up pass so lazily initialised runtime structures don't count.
    let warm = solve_sparse(&model, &opts, None).expect("diagonal solves");
    assert!(
        warm.iterations() >= n as u64 / 2,
        "diagonal model too easy: {} iterations",
        warm.iterations()
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sol = solve_sparse(&model, &opts, None).expect("diagonal solves");
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // Build + periodic refactorisations + canonical extraction allocate;
    // the iterations in between must not. The PR 2 loop allocated ~6
    // vectors per iteration, so `allocs < iterations` cleanly separates
    // the two regimes.
    assert!(
        allocs < sol.iterations(),
        "{allocs} allocations over {} iterations: the hot loop is allocating",
        sol.iterations()
    );

    // With recording ON the span machinery may allocate — but only at
    // solve granularity (one event, a path string, a fields vector),
    // never per iteration. Run in the same test function so the global
    // obs state cannot race the off-certification above under the
    // threaded test harness.
    llamp_obs::enable();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sol = solve_sparse(&model, &opts, None).expect("diagonal solves");
    let allocs_on = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let snap = llamp_obs::take();
    llamp_obs::disable();
    assert_eq!(snap.events.len(), 1, "one lp.solve span per solve");
    assert!(
        allocs_on < sol.iterations() + 64,
        "{allocs_on} allocations over {} iterations: tracing-on overhead \
         must stay amortized at solve granularity",
        sol.iterations()
    );
}

/// A chain-of-diamonds DAG LP in Algorithm 1's shape (`min t`, one merge
/// variable per vertex with two in-edges, one of them latency-bound) and
/// its longest-path crash basis at `l = l0`: each merge variable (and
/// `t`) basic on the row defining its max, ties to the lowest row.
fn dag_lp_with_crash(vertices: usize, l0: f64) -> (LpModel, Basis) {
    let mut m = LpModel::new(Objective::Minimize);
    let l = m.add_var("l", l0, f64::INFINITY, 0.0);
    let t = m.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    let y: Vec<VarId> = (0..vertices)
        .map(|v| m.add_var(format!("y{v}"), f64::NEG_INFINITY, f64::INFINITY, 0.0))
        .collect();
    // (target, base, c, latency multiplier) per row, in topological order.
    let mut rows: Vec<(usize, Option<usize>, f64, f64)> = Vec::new();
    for v in 0..vertices {
        rows.push((v, v.checked_sub(1), 1.0 + (v % 3) as f64, 0.0));
        rows.push((
            v,
            v.checked_sub(2),
            0.5 * (v % 5) as f64,
            1.0 + (v % 2) as f64,
        ));
    }
    for &(v, base, c, ml) in &rows {
        let mut terms = vec![(y[v], 1.0)];
        if let Some(b) = base {
            terms.push((y[b], -1.0));
        }
        if ml != 0.0 {
            terms.push((l, -ml));
        }
        m.add_constraint(format!("in{v}"), &terms, Relation::Ge, c);
    }
    m.add_constraint(
        "sink",
        &[(t, 1.0), (y[vertices - 1], -1.0)],
        Relation::Ge,
        0.0,
    );

    let mut pot = vec![f64::NEG_INFINITY; vertices];
    let mut winner = vec![usize::MAX; vertices];
    for (i, &(v, base, c, ml)) in rows.iter().enumerate() {
        let score = base.map_or(0.0, |b| pot[b]) + c + ml * l0;
        if winner[v] == usize::MAX || score > pot[v] {
            winner[v] = i;
            pot[v] = score;
        }
    }
    let mut row_status = vec![VarStatus::Basic; rows.len() + 1];
    for &w in &winner {
        row_status[w] = VarStatus::AtLower;
    }
    row_status[rows.len()] = VarStatus::AtLower;
    let mut col_status = vec![VarStatus::Basic; 2 + vertices];
    col_status[0] = VarStatus::AtLower;
    (m, Basis::from_statuses(col_status, row_status))
}

/// Allocation ceiling for one crash-started zero-pivot re-solve, the same
/// at every size.
const CRASH_RESOLVE_ALLOCATIONS: u64 = 48;

#[test]
fn crash_resolve_allocates_a_constant_handful() {
    let _serial = serial();
    assert!(!llamp_obs::is_enabled());
    for vertices in [600, 2_400] {
        let (model, first) = dag_lp_with_crash(vertices, 2.0);
        assert!(model.num_constraints() > 1_000);
        let opts = SimplexOptions::default();
        // Warm-up: the first solve builds the model's matrix.
        solve_sparse(&model, &opts, Some(&first)).expect("crash solve");

        // The next query point, crash-started like every engine point.
        let mut model = model;
        model.set_var_lb(VarId(0), 0.5);
        let (_, crash) = dag_lp_with_crash(vertices, 0.5);
        assert_ne!(crash, first, "the query point picks other defining rows");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sol = solve_sparse(&model, &opts, Some(&crash)).expect("crash re-solve");
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(sol.stats().pivots, 0, "the crash basis is optimal");
        eprintln!(
            "{} rows: {allocs} allocations per crash re-solve",
            model.num_constraints()
        );
        assert!(
            allocs < CRASH_RESOLVE_ALLOCATIONS,
            "{allocs} allocations for one zero-pivot re-solve at {} rows \
             (ceiling {CRASH_RESOLVE_ALLOCATIONS})",
            model.num_constraints()
        );
    }
}

/// The allocation counter is process-global: tests that read it take
/// turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
