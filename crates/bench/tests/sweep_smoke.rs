//! Release-mode *sweep* and *zone* smokes, run explicitly in CI (`cargo
//! test --release -p llamp-bench --test sweep_smoke -- --ignored`) on the
//! 32k-row scaled LULESH shape:
//!
//! * a 64-point crash-start sweep must stay within a pivots-per-point
//!   ceiling and a generous wall budget, and run on substitution alone.
//!   Every point starts from its own longest-path crash basis (optimal up
//!   to degeneracy, so approximately zero pivots), which peels into a
//!   permuted triangle: one triangular factorisation per point, no LU. A
//!   regression in either — crash basis quality or the structural factor
//!   choice — shows up as pivots-per-point or an LU count long before the
//!   wall budget trips;
//! * the 1/2/5% tolerance zones must stay within steps-per-zone and wall
//!   ceilings, agree with the exact envelope, and run with no pivot and
//!   no LU at all. Each zone is a Newton walk over crash-started points
//!   from the baseline, and its last point is the zone: a walk that stops
//!   converging trips the step ceiling, and a step that pivots or misses
//!   the substitution path trips the exact pivot and LU counts;
//! * the eval backend's zones — the same walk over direct evaluations,
//!   with no LP at all — must stay within a steps-per-zone ceiling and
//!   agree with the exact envelope.
//!
//! `anchor_scaling.rs` is the matching tripwire for the one-off cold
//! anchor.

use llamp_bench::{graph_of, linspace};
use llamp_core::{Analyzer, Binding, GraphLp, ParametricProfile, ReduceConfig};
use llamp_model::LogGPSParams;
use llamp_util::time::us;
use llamp_workloads::App;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The zone smoke reads the process-global obs recorder; the smokes take
/// turns.
static OBS_SESSION: Mutex<()> = Mutex::new(());

/// Pivot ceiling *per sweep point*. Observed: < 1 (the crash basis is
/// optimal at the point for almost every delta); anchor-warm re-solves
/// at this scale paid hundreds of pivots per far point.
const PIVOTS_PER_POINT_CEILING: f64 = 50.0;
/// Wall budget in seconds for the whole 64-point sweep (observed: well
/// under 2 s in release single-threaded; CI machines vary). The
/// pre-crash anchor-warm sweep took minutes at this shape.
const WALL_BUDGET_S: f64 = 30.0;
/// Walk ceiling *per zone*, in `predict` steps past the baseline.
/// Observed: at most 2.
const STEPS_PER_ZONE_CEILING: u64 = 16;
/// Walk ceiling *per eval zone*, in evaluations past the baseline.
/// Observed: at most 2.
const EVAL_STEPS_PER_ZONE_CEILING: u64 = 16;
/// Wall budget in seconds for the three zones (observed: well under
/// 0.5 s in release single-threaded).
const ZONE_WALL_BUDGET_S: f64 = 30.0;

#[test]
#[ignore = "timing assertion; CI runs it explicitly in release mode"]
fn crash_start_sweep_stays_cheap_at_32k_rows() {
    let _session = OBS_SESSION.lock().unwrap_or_else(|p| p.into_inner());
    let set = llamp_workloads::scaled(App::Lulesh, 2, 100);
    let raw = graph_of(&set);
    let reduced = raw.reduced(&ReduceConfig::default());
    let graph = reduced.graph();
    let params = LogGPSParams::cscs_testbed(raw.nranks()).with_o(us(6.0));
    let binding = Binding::uniform(&params);

    let rows = reduced.stats().rows_after;
    assert!(rows > 30_000, "shape shrank: {rows} rows");
    let deltas = linspace(0.0, us(60.0), 64);

    let mut lp = GraphLp::build(graph, &binding);
    let start = Instant::now();
    let mut acc = 0.0;
    for &d in &deltas {
        acc += lp
            .predict(params.l + d)
            .expect("sweep point solves")
            .runtime;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(acc.is_finite());
    let stats = lp.solver_stats();

    let pivots_per_point = stats.pivots as f64 / deltas.len() as f64;
    eprintln!(
        "sweep smoke  {rows} rows  64 points  {elapsed:.3} s  \
         {:.2} pivots/point  {} triangular / {} LU factorisations",
        pivots_per_point, stats.triangular_factors, stats.lu_factors
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
    // Every crash tree peels into a permuted triangle, so every point
    // factors by substitution and the sweep never runs an LU.
    assert!(
        stats.triangular_factors >= deltas.len() as u64,
        "{} triangular factorisations for {} crash-started points: \
         a crash basis missed the substitution path",
        stats.triangular_factors,
        deltas.len()
    );
    assert_eq!(
        stats.lu_factors, 0,
        "the crash-start sweep at {rows} rows ran LU factorisations"
    );
}

#[test]
#[ignore = "timing assertion; CI runs it explicitly in release mode"]
fn zone_walk_stays_cheap_at_32k_rows() {
    let _session = OBS_SESSION.lock().unwrap_or_else(|p| p.into_inner());
    let set = llamp_workloads::scaled(App::Lulesh, 2, 100);
    let raw = graph_of(&set);
    let reduced = raw.reduced(&ReduceConfig::default());
    let graph = reduced.graph();
    let params = LogGPSParams::cscs_testbed(raw.nranks()).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let rows = reduced.stats().rows_after;
    assert!(rows > 30_000, "shape shrank: {rows} rows");

    // The engine's zones: crash-started baseline, then three walks from
    // it over the default 2 ms window.
    let (base, top) = (params.l, params.l + us(2_000.0));
    let mut lp = GraphLp::build(graph, &binding);
    let p = lp.predict(base).expect("baseline solves");
    let before = lp.solver_stats();
    llamp_obs::enable();
    let start = Instant::now();
    let zones: Vec<(f64, f64)> = [1.0, 2.0, 5.0]
        .iter()
        .map(|pct| {
            let cap = p.runtime * (1.0 + pct / 100.0);
            let zone = lp.tolerance_from(base, (p.runtime, p.lambda), top, cap);
            (cap, zone.expect("zone solves"))
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    let steps = &snapshot.hists["lp.zone_steps"];
    let after = lp.solver_stats();
    let (pivots, lu_factors) = (
        after.pivots - before.pivots,
        after.lu_factors - before.lu_factors,
    );
    eprintln!(
        "zone smoke  {rows} rows  3 zones  {elapsed:.3} s  {} steps (max {}/zone)  \
         {pivots} pivots  {lu_factors} LU factorisations",
        steps.sum(),
        steps.max()
    );

    assert_eq!(steps.count(), 3, "one lp.zone_steps sample per zone");
    assert!(
        steps.max() <= STEPS_PER_ZONE_CEILING,
        "a zone walk at {rows} rows took {} steps (ceiling {STEPS_PER_ZONE_CEILING})",
        steps.max()
    );
    // Every step is a crash-started point: no pivot, and a triangular
    // factorisation by substitution, never an LU.
    assert_eq!(pivots, 0, "the zone walks at {rows} rows pivoted");
    assert_eq!(
        lu_factors, 0,
        "the zone walks at {rows} rows ran LU factorisations"
    );
    assert!(
        elapsed <= ZONE_WALL_BUDGET_S,
        "three zones at {rows} rows took {elapsed:.3}s (budget {ZONE_WALL_BUDGET_S}s)"
    );
    let prof = ParametricProfile::compute(graph, &binding, (base, top));
    for (cap, lp_zone) in zones {
        let env = match prof.tolerance(cap) {
            Some(x) if x < top => x,
            _ => f64::INFINITY,
        };
        let agree = lp_zone == env || (lp_zone - env).abs() <= 1e-9 * (env - base).abs();
        assert!(agree, "cap {cap}: LP zone {lp_zone} vs envelope {env}");
    }
}

#[test]
#[ignore = "timing assertion; CI runs it explicitly in release mode"]
fn eval_zone_walk_stays_cheap_at_32k_rows() {
    let _session = OBS_SESSION.lock().unwrap_or_else(|p| p.into_inner());
    let set = llamp_workloads::scaled(App::Lulesh, 2, 100);
    let raw = graph_of(&set);
    let reduced = Arc::new(raw.reduced(&ReduceConfig::default()));
    let params = LogGPSParams::cscs_testbed(raw.nranks()).with_o(us(6.0));
    let rows = reduced.stats().rows_after;
    assert!(rows > 30_000, "shape shrank: {rows} rows");
    let analyzer = Analyzer::from_reduced(reduced, Binding::uniform(&params), params.l);

    // The eval backend's zones: the baseline evaluation, then three walks
    // from it over the default 2 ms window.
    let (base, top) = (params.l, params.l + us(2_000.0));
    let floor = analyzer.evaluate(base);
    llamp_obs::enable();
    let start = Instant::now();
    let zones: Vec<(f64, f64)> = [1.0, 2.0, 5.0]
        .iter()
        .map(|pct| {
            let cap = floor.runtime * (1.0 + pct / 100.0);
            let zone = analyzer.eval_tolerance(base, (floor.runtime, floor.lambda), top, cap);
            (cap, zone.expect("eval zone walks"))
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    let steps = &snapshot.hists["eval.zone_steps"];
    eprintln!(
        "eval zone smoke  {rows} rows  3 zones  {elapsed:.3} s  {} evaluations (max {}/zone)",
        steps.sum(),
        steps.max()
    );

    assert_eq!(steps.count(), 3, "one eval.zone_steps sample per zone");
    assert!(
        !snapshot.hists.contains_key("lp.zone_steps"),
        "eval walks must not report as LP walks"
    );
    assert!(
        steps.max() <= EVAL_STEPS_PER_ZONE_CEILING,
        "an eval zone walk at {rows} rows took {} evaluations (ceiling \
         {EVAL_STEPS_PER_ZONE_CEILING})",
        steps.max()
    );
    assert!(
        elapsed <= ZONE_WALL_BUDGET_S,
        "three eval zones at {rows} rows took {elapsed:.3}s (budget {ZONE_WALL_BUDGET_S}s)"
    );
    let prof = analyzer.profile(base, top);
    for (cap, eval_zone) in zones {
        let env = match prof.tolerance(cap) {
            Some(x) if x < top => x,
            _ => f64::INFINITY,
        };
        let agree = eval_zone == env || (eval_zone - env).abs() <= 1e-9 * (env - base).abs();
        assert!(agree, "cap {cap}: eval zone {eval_zone} vs envelope {env}");
    }
}
