//! Release-mode cold-anchor smoke, run explicitly in CI (`cargo test
//! --release -p llamp-bench --test cold_smoke -- --ignored`): the cold
//! sparse anchor solve on the LULESH proxy must stay within an iteration
//! ceiling and a generous wall budget. The ceiling is the regression
//! tripwire for the solver-start work: the longest-path crash basis
//! (ISSUE 9) lands the anchor in a single iteration — zero pivots, just
//! the optimality pricing pass (the ISSUE 3 topological heuristic needed
//! ~35, the PR 2 all-logical start 535) — so a pricing or crash
//! regression shows up as an order-of-magnitude jump long before the
//! wall budget trips. `anchor_scaling.rs` is the same tripwire at the
//! 32k-row scaled shape.

use llamp_bench::graph_of;
use llamp_core::{Binding, GraphLp};
use llamp_model::LogGPSParams;
use llamp_util::time::us;
use llamp_workloads::App;
use std::time::Instant;

/// Iteration ceiling for the LULESH cold anchor (944 rows). Observed: 1
/// with the longest-path crash (~35 with the topological heuristic).
const ITERATION_CEILING: u64 = 200;
/// Wall budget in seconds (observed: ~1 ms in release; CI machines vary).
const WALL_BUDGET_S: f64 = 2.0;

#[test]
#[ignore = "timing assertion; CI runs it explicitly in release mode"]
fn lulesh_cold_anchor_stays_cheap() {
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let graph = graph_of(&App::Lulesh.programs(8, 1)).contracted();

    // Throwaway pass to warm caches/allocator before timing.
    let mut lp = GraphLp::build(&graph, &binding);
    lp.predict(params.l).expect("anchor solves");

    let mut lp = GraphLp::build(&graph, &binding);
    let start = Instant::now();
    lp.predict(params.l).expect("anchor solves");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = lp.solver_stats();

    assert!(
        stats.iterations <= ITERATION_CEILING,
        "cold anchor took {} iterations (ceiling {ITERATION_CEILING}): \
         pricing or crash-basis regression",
        stats.iterations
    );
    assert!(
        elapsed <= WALL_BUDGET_S,
        "cold anchor took {elapsed:.3}s (budget {WALL_BUDGET_S}s)"
    );
    // The anchor is a real solve: the crash start is certified by full
    // pricing scans, with no pivot behind it.
    assert!(
        stats.pricing_full_scans > 0 && stats.pivots == 0,
        "{stats:?}"
    );
}
