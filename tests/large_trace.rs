//! Release-scale smoke: the reduced LP must agree with the raw LP on a
//! ≥10⁵-vertex scaled workload, and the reduced graph's answers at that
//! shape — the LP's, direct evaluation's and the envelope's — are
//! pinned bit for bit.
//!
//! Ignored by default — the raw-graph LP solve is only reasonable in
//! release mode. CI and local runs use:
//!
//! ```text
//! cargo test --release --test large_trace -- --ignored
//! ```

use llamp::core::{evaluate, Binding, GraphLp, ParametricProfile, ReduceConfig};
use llamp::model::LogGPSParams;
use llamp::schedgen::{graph_of_programs, GraphConfig};
use llamp::util::time::us;
use llamp::workloads::{scaled, App};

/// LULESH inflated ~100× in outer iterations: 116 008 vertices, large
/// enough to exercise the reduction at scale while keeping the raw
/// (unreduced) LP solvable in CI time.
fn large_graph() -> llamp::schedgen::ExecGraph {
    let set = scaled(App::Lulesh, 1, 100);
    graph_of_programs(&set, &GraphConfig::paper()).expect("scaled LULESH compiles")
}

#[test]
#[ignore = "release-mode scale test: run with --release -- --ignored"]
fn reduced_lp_matches_raw_lp_at_scale() {
    let g = large_graph();
    assert_eq!(g.num_vertices(), 116_008, "the pinned shape moved");

    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);

    // Raw LP: the ground truth Algorithm-1 model, no reduction at all.
    let raw = GraphLp::build(&g, &binding)
        .predict(params.l)
        .expect("raw LP solves");

    // Reduced LP: objective and latency sensitivity (the dual the paper
    // reports) must match the raw model to solver tolerance.
    let reduced = g.reduced(&ReduceConfig::default());
    let lp = GraphLp::build(&reduced, &binding)
        .predict(params.l)
        .expect("reduced LP solves");
    assert!(
        llamp::util::approx_eq(raw.runtime, lp.runtime, 1e-3, 1e-9),
        "objective drifted: raw {} vs reduced {}",
        raw.runtime,
        lp.runtime
    );
    assert!(
        llamp::util::approx_eq(raw.lambda, lp.lambda, 1e-6, 1e-9),
        "lambda drifted: raw {} vs reduced {}",
        raw.lambda,
        lp.lambda
    );

    // The answers a campaign caches, bit for bit: a change to the
    // reduced graph that moves any of them moves results bytes, and needs
    // a reduction tag in every cache key.
    let eval = evaluate(&reduced, &binding, params.l);
    let window = (params.l, params.l + us(60.0));
    let envelope = ParametricProfile::compute(&reduced, &binding, window).runtime(params.l);
    let got = [
        ("LP runtime", lp.runtime.to_bits()),
        ("LP lambda", lp.lambda.to_bits()),
        ("eval runtime", eval.runtime.to_bits()),
        ("envelope runtime", envelope.to_bits()),
    ];
    let want = [
        0x41e5_9f60_5d78_6878_u64,
        0x4077_c000_0000_0000,
        0x41e5_9f60_5d78_6876,
        0x41e5_9f60_5d78_6878,
    ];
    for ((what, bits), want) in got.into_iter().zip(want) {
        assert_eq!(
            bits,
            want,
            "{what} moved: {} ({bits:#018x}), pinned {} ({want:#018x})",
            f64::from_bits(bits),
            f64::from_bits(want)
        );
    }
}
