//! Algorithm 2 against the exact envelope: the LP's critical-latency
//! search (a walk down basis-stability windows) and the parametric
//! envelope's breakpoints are two independent answers to "where does the
//! slope of `T(L)` change". On the seven workloads at 8 ranks × 2
//! iterations and three windows, each must find exactly the other's
//! breakpoints — none missing, none extra — to 1e-9 relative. Every step
//! of the walk solves from the crash basis at its own point, which is
//! optimal there: a whole search pivots zero times and factors only by
//! substitution.

use llamp::core::Analyzer;
use llamp::model::LogGPSParams;
use llamp::schedgen::{build_graph, GraphConfig};
use llamp::trace::TracerConfig;
use llamp::workloads::App;

/// Window tops (ns): 20 µs, 200 µs and 2 ms, every window starting at
/// `L = 0`.
const TOPS: [f64; 3] = [20_000.0, 200_000.0, 2_000_000.0];

/// Algorithm 2's resolution (ns).
const STEP: f64 = 1.0;

/// Algorithm 2's nudge past a discovered breakpoint (ns).
const EPS: f64 = 1e-6;

/// Relative gap, absolute below 1 ns.
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Every element of `xs` within 1e-9 relative of some element of `of`.
fn all_found(xs: &[f64], of: &[f64]) -> Result<(), f64> {
    match xs.iter().find(|&&x| !of.iter().any(|&y| rel(x, y) < 1e-9)) {
        Some(&x) => Err(x),
        None => Ok(()),
    }
}

#[test]
fn algorithm2_finds_exactly_the_envelope_breakpoints() {
    for app in App::ALL {
        let graph = build_graph(
            &app.programs(8, 2).trace(&TracerConfig::default()),
            &GraphConfig::paper(),
        )
        .unwrap();
        let params = LogGPSParams::cscs_testbed(8).with_o(app.paper_o());
        let analyzer = Analyzer::new(&graph, &params);
        for top in TOPS {
            let exact = analyzer.profile(0.0, top).critical_latencies();
            let mut lp = analyzer.lp();
            let alg2 = lp.critical_latencies(0.0, top, STEP, EPS).unwrap();
            let label = format!("{} on [0, {top}]", app.name());
            let stats = lp.solver_stats();
            assert_eq!(
                (stats.pivots, stats.lu_factors),
                (0, 0),
                "{label}: Algorithm 2 pivoted or factored by LU"
            );
            if let Err(bp) = all_found(&exact, &alg2) {
                panic!("{label}: Algorithm 2 misses {bp}: {alg2:?} vs envelope {exact:?}");
            }
            if let Err(x) = all_found(&alg2, &exact) {
                panic!("{label}: Algorithm 2 reports {x}: {alg2:?} vs envelope {exact:?}");
            }
        }
    }
}
