//! Release-mode *sweep* smoke, run explicitly in CI (`cargo test
//! --release -p llamp-bench --test sweep_smoke -- --ignored`): a
//! 64-point crash-start sweep on the 32k-row scaled LULESH shape must
//! stay within a pivots-per-point ceiling and a generous wall budget.
//! This is the regression tripwire for the sweep-economics work: above
//! the auto-policy threshold every point starts from its own longest-path
//! crash basis (optimal up to degeneracy, so approximately zero pivots),
//! and inside a stability region consecutive points share one LU
//! factorisation (`lp.lu_reuse`). A regression in either — crash basis
//! quality or LU adoption — shows up as pivots-per-point or missing
//! reuse long before the wall budget trips. `anchor_scaling.rs` is the
//! matching tripwire for the one-off cold anchor.

use llamp_bench::{graph_of, linspace};
use llamp_core::{Binding, GraphLp, ReduceConfig};
use llamp_model::LogGPSParams;
use llamp_util::time::us;
use llamp_workloads::App;
use std::time::Instant;

/// Pivot ceiling *per sweep point*. Observed: < 1 (the crash basis is
/// optimal at the point for almost every delta); anchor-warm re-solves
/// at this scale paid hundreds of pivots per far point.
const PIVOTS_PER_POINT_CEILING: f64 = 50.0;
/// Wall budget in seconds for the whole 64-point sweep (observed: well
/// under 2 s in release single-threaded; CI machines vary). The
/// pre-crash anchor-warm sweep took minutes at this shape.
const WALL_BUDGET_S: f64 = 30.0;

#[test]
#[ignore = "timing assertion; CI runs it explicitly in release mode"]
fn crash_start_sweep_stays_cheap_at_32k_rows() {
    let set = llamp_workloads::scaled(App::Lulesh, 2, 100);
    let raw = graph_of(&set);
    let reduced = raw.reduced(&ReduceConfig::default());
    let graph = reduced.graph();
    let params = LogGPSParams::cscs_testbed(raw.nranks()).with_o(us(6.0));
    let binding = Binding::uniform(&params);

    let rows = reduced.stats().rows_after;
    assert!(rows > 30_000, "shape shrank: {rows} rows");
    let deltas = linspace(0.0, us(60.0), 64);

    llamp_obs::enable();
    let mut lp = GraphLp::build(graph, &binding);
    let start = Instant::now();
    let mut acc = 0.0;
    for &d in &deltas {
        lp.reset_backend();
        acc += lp
            .predict(params.l + d)
            .expect("sweep point solves")
            .runtime;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(acc.is_finite());
    let stats = lp.solver_stats();
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    let lu_reuse = snapshot
        .summary()
        .counters
        .iter()
        .find(|(k, _)| k == "lp.lu_reuse")
        .map(|&(_, v)| v)
        .unwrap_or(0);

    let pivots_per_point = stats.pivots as f64 / deltas.len() as f64;
    eprintln!(
        "sweep smoke  {rows} rows  64 points  {elapsed:.3} s  \
         {:.2} pivots/point  {} refactorisations  {lu_reuse} lu reuses",
        pivots_per_point, stats.refactorizations
    );

    assert!(
        pivots_per_point <= PIVOTS_PER_POINT_CEILING,
        "crash-start sweep at {rows} rows averaged {pivots_per_point:.1} \
         pivots/point (ceiling {PIVOTS_PER_POINT_CEILING}): the per-point \
         crash basis has regressed"
    );
    assert!(
        elapsed <= WALL_BUDGET_S,
        "64-point sweep at {rows} rows took {elapsed:.3}s (budget {WALL_BUDGET_S}s)"
    );
    // The shared-LU path must actually engage: within stability regions
    // consecutive crash bases coincide, so a sweep this dense reuses
    // many factorisations. Zero reuse means the adoption gate broke.
    assert!(
        lu_reuse > 0,
        "64-point crash-start sweep skipped no LU factorisations: \
         the shared-LU reuse path has regressed"
    );
}
