//! Latency tolerance consistency: the LP's zone walk, the eval zone walk,
//! the parametric envelope inversion, the paper's flipped tolerance LP
//! (§II-D2) solved cold, bisection on direct evaluation and bisection on
//! the dataflow simulator must all agree. The flipped LP and bisection
//! live only here, as the oracles the walks are checked against.

use llamp::core::{Analyzer, Binding, GraphLp};
use llamp::lp::{Objective, SolveError};
use llamp::model::LogGPSParams;
use llamp::schedgen::{build_graph, ExecGraph, GraphConfig};
use llamp::sim::{SimConfig, Simulator};
use llamp::topo::FatTree;
use llamp::trace::TracerConfig;
use llamp::util::time::us;
use llamp::workloads::App;

/// Zone search window above the base latency (the engine's default).
const WINDOW: f64 = 2_000_000.0;

fn tolerance_by_bisection(graph: &ExecGraph, params: &LogGPSParams, cap: f64) -> f64 {
    // Noise-free dataflow replay is the analytical model; bisect the
    // largest ∆L with makespan ≤ cap.
    let runtime = |delta: f64| {
        Simulator::new(graph, SimConfig::dataflow(*params).with_delta_l(delta))
            .run()
            .makespan
    };
    let mut lo = 0.0f64;
    let mut hi = us(1_000_000.0);
    assert!(runtime(lo) <= cap, "cap below baseline");
    assert!(runtime(hi) > cap, "cap never exceeded in window");
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if runtime(mid) <= cap {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Largest ∆L in `[0, WINDOW]` with `T(base + ∆L) ≤ cap`, by bisection on
/// direct critical-path evaluation; infinite when the window end holds.
fn eval_bisection(analyzer: &Analyzer, cap: f64) -> f64 {
    let base = analyzer.base_l();
    let t = |d: f64| analyzer.evaluate(base + d).runtime;
    if t(WINDOW) <= cap {
        return f64::INFINITY;
    }
    let (mut lo, mut hi) = (0.0f64, WINDOW);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if t(mid) <= cap {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The paper's tolerance LP (§II-D2) solved cold: `max l` s.t. `l ≥ base`
/// and `t ≤ cap` on a copy of `lp`'s model, as `∆L` above `base`. An
/// optimum at or beyond the window top, or an unbounded LP, reads as
/// `f64::INFINITY`, like the walk.
fn flipped_lp(lp: &GraphLp, analyzer: &Analyzer, base: f64, top: f64, cap: f64) -> f64 {
    let mut model = lp.model().clone();
    let l = lp.param_var(analyzer.binding().variable.param());
    model.set_var_lb(l, base);
    model.set_var_ub(lp.t_var(), cap);
    model.set_sense(Objective::Maximize);
    model.set_objective(&[(l, 1.0)]);
    match model.solve() {
        Ok(sol) if sol.value(l) < top => sol.value(l) - base,
        Ok(_) | Err(SolveError::Unbounded) => f64::INFINITY,
        Err(e) => panic!("tolerance LP failed: {e:?}"),
    }
}

/// Relative gap, with equal infinities agreeing exactly.
fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / b.abs().max(1.0)
    }
}

/// `n` evenly spaced `∆L` samples over `[0, hi]`, as a spec's
/// `window = { lo = 0, hi, points = n }` expands.
fn linspace(hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| hi * i as f64 / (n - 1) as f64).collect()
}

/// The 1/2/5% zones of one analysis five ways: the LP walk and the eval
/// walk, each from its own baseline as the engine runs them, against the
/// exact envelope, the flipped LP and eval bisection, all to 1e-9
/// relative. The LP walk neither pivots nor factors by LU.
///
/// A latency grid read off the zone window's profile must also equal
/// [`Analyzer::sweep`]'s bit for bit, in runtime and λ, so one envelope
/// over the zone window can answer both the grid and the zones.
fn assert_zones_agree(label: &str, analyzer: &Analyzer) {
    let base = analyzer.base_l();
    let top = base + WINDOW;
    let profile = analyzer.profile(base, top);
    for deltas in [linspace(us(40.0), 17), linspace(us(100.0), 9)] {
        for (&d, p) in deltas.iter().zip(analyzer.sweep(&deltas)) {
            let l = base + d;
            assert_eq!(
                profile.runtime(l).to_bits(),
                p.runtime.to_bits(),
                "{label} ∆L {d}: zone-window runtime vs sweep"
            );
            assert_eq!(
                profile.lambda(l).to_bits(),
                p.lambda.to_bits(),
                "{label} ∆L {d}: zone-window λ vs sweep"
            );
        }
    }
    let env = analyzer.tolerance_zones(top);
    let mut lp = analyzer.lp();
    let lp_floor = lp.predict(base).unwrap();
    let t0 = lp_floor.runtime;
    let eval_floor = analyzer.evaluate(base);
    assert!(rel(t0, env.baseline_runtime) < 1e-12, "{label}: baseline");
    assert!(
        rel(eval_floor.runtime, t0) < 1e-12,
        "{label}: eval baseline"
    );
    for (pct, env_zone) in [(1.0, env.pct1), (2.0, env.pct2), (5.0, env.pct5)] {
        let cap = t0 * (1.0 + pct / 100.0);
        let lp_zone = lp
            .tolerance_from(base, (t0, lp_floor.lambda), top, cap)
            .unwrap()
            - base;
        let eval_cap = eval_floor.runtime * (1.0 + pct / 100.0);
        let walked = analyzer
            .eval_tolerance(base, (eval_floor.runtime, eval_floor.lambda), top, eval_cap)
            .unwrap()
            - base;
        let bisected = eval_bisection(analyzer, cap);
        let flipped = flipped_lp(&lp, analyzer, base, top, cap);
        for (name, zone) in [("LP", lp_zone), ("eval walk", walked)] {
            assert!(
                rel(zone, env_zone) < 1e-9,
                "{label} {pct}%: {name} {zone} vs envelope {env_zone}"
            );
            assert!(
                rel(zone, flipped) < 1e-9,
                "{label} {pct}%: {name} {zone} vs flipped LP {flipped}"
            );
            assert!(
                rel(zone, bisected) < 1e-9,
                "{label} {pct}%: {name} {zone} vs eval bisection {bisected}"
            );
        }
    }
    let stats = lp.solver_stats();
    assert_eq!(
        (stats.pivots, stats.lu_factors),
        (0, 0),
        "{label}: the baseline and the three LP walks must neither pivot nor factor by LU"
    );
}

#[test]
fn three_ways_to_tolerance_agree() {
    for app in App::ALL {
        let graph = build_graph(
            &app.programs(8, 2).trace(&TracerConfig::default()),
            &GraphConfig::paper(),
        )
        .unwrap();
        let params = LogGPSParams::cscs_testbed(8).with_o(app.paper_o());
        assert_zones_agree(app.name(), &Analyzer::new(&graph, &params));
    }

    // One topology binding: LULESH on a k = 8 fat tree, the wire latency
    // as the analysis variable.
    let graph = build_graph(
        &App::Lulesh.programs(8, 2).trace(&TracerConfig::default()),
        &GraphConfig::paper(),
    )
    .unwrap();
    let params = LogGPSParams::cscs_testbed(8).with_o(App::Lulesh.paper_o());
    let placement: Vec<u32> = (0..8).collect();
    let binding = Binding::wire(&params, &FatTree::new(8), &placement, 108.0);
    assert_zones_agree(
        "LULESH fattree",
        &Analyzer::with_binding(&graph, binding, 274.0),
    );
}

/// FNV-1a over the bit patterns of `xs`: a stable fingerprint to pin
/// floats with.
fn fnv1a_bits(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn lulesh_sweep_and_zones_bits_are_pinned() {
    // The cross-checks above compare answer paths with one another, so a
    // change that moved all of them at once would pass there. These
    // bits cannot move without it showing.
    let graph = build_graph(
        &App::Lulesh.programs(8, 2).trace(&TracerConfig::default()),
        &GraphConfig::paper(),
    )
    .unwrap();
    let params = LogGPSParams::cscs_testbed(8).with_o(App::Lulesh.paper_o());
    let analyzer = Analyzer::new(&graph, &params);
    let sweep = analyzer.sweep(&linspace(us(40.0), 17));
    let bits = sweep
        .iter()
        .flat_map(|p| [p.delta_l, p.runtime, p.lambda, p.rho]);
    assert_eq!(
        fnv1a_bits(bits),
        0x5bd7_9f13_028c_bfff,
        "LULESH r8 i2 17-point sweep moved"
    );
    let zones = analyzer.tolerance_zones(analyzer.base_l() + WINDOW);
    // 72 526.35, 145 052.70 and 362 631.75 ns.
    assert_eq!(
        [zones.pct1, zones.pct2, zones.pct5].map(f64::to_bits),
        [
            0x40f1_b4e5_9bce_ce80,
            0x4101_b4e5_9bce_ce80,
            0x4116_221f_02c2_8220
        ],
        "LULESH r8 i2 tolerance zones moved"
    );
}

#[test]
fn dataflow_simulator_agrees_with_the_envelope() {
    // The discrete-event simulator as a fourth oracle, on the two small
    // graphs where bisecting it stays cheap.
    for app in [App::Milc, App::Cloverleaf] {
        let graph = build_graph(
            &app.programs(8, 2).trace(&TracerConfig::default()),
            &GraphConfig::paper(),
        )
        .unwrap();
        let params = LogGPSParams::cscs_testbed(8).with_o(app.paper_o());
        let analyzer = Analyzer::new(&graph, &params);
        let cap = 1.02 * analyzer.baseline_runtime();
        let tol_env = analyzer.tolerance_pct(2.0, params.l + us(1_000_000.0));
        let tol_sim = tolerance_by_bisection(&graph, &params, cap);
        assert!(
            rel(tol_env, tol_sim) < 1e-3,
            "{}: envelope {tol_env} vs bisection {tol_sim}",
            app.name()
        );
    }
}

#[test]
fn tolerance_is_monotone_in_percentage() {
    let set = App::Icon.programs(8, 4);
    let trace = set.trace(&TracerConfig::default());
    let graph = build_graph(&trace, &GraphConfig::paper()).unwrap();
    let params = LogGPSParams::cscs_testbed(8).with_o(App::Icon.paper_o());
    let analyzer = Analyzer::new(&graph, &params);
    let hi = params.l + us(10_000_000.0);
    let mut prev = 0.0;
    for pct in [0.5, 1.0, 2.0, 5.0, 10.0] {
        let tol = analyzer.tolerance_pct(pct, hi);
        assert!(tol >= prev, "tolerance not monotone at {pct}%");
        prev = tol;
    }
}

#[test]
fn runtime_at_tolerance_equals_cap() {
    let set = App::Lulesh.programs(8, 4);
    let trace = set.trace(&TracerConfig::default());
    let graph = build_graph(&trace, &GraphConfig::paper()).unwrap();
    let params = LogGPSParams::cscs_testbed(8).with_o(App::Lulesh.paper_o());
    let analyzer = Analyzer::new(&graph, &params);
    let t0 = analyzer.baseline_runtime();
    for pct in [1.0, 5.0] {
        let tol = analyzer.tolerance_pct(pct, params.l + us(1_000_000.0));
        let at = analyzer.evaluate(params.l + tol).runtime;
        let cap = t0 * (1.0 + pct / 100.0);
        assert!(
            (at - cap).abs() < 1e-6 * cap,
            "{pct}%: runtime at tolerance {at} vs cap {cap}"
        );
    }
}
