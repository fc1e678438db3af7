//! Bandwidth (`G`) sensitivity analysis — the §VI / Eq. 4 extension:
//! "each term in max represents the cost of a path … `s_i` is approximately
//! the number of bytes contained in messages along each path", so `λ_G`
//! measures the total message size on the critical path.

use llamp::core::{evaluate, Analyzer, Binding, GraphLp, ParametricProfile};
use llamp::model::LogGPSParams;
use llamp::schedgen::{build_graph, GraphConfig};
use llamp::trace::{ProgramSet, TracerConfig};
use llamp::util::time::us;
use llamp::workloads::App;

fn two_rank_pingpong(bytes: u64) -> llamp::schedgen::ExecGraph {
    let set = ProgramSet::spmd(2, |rank, b| {
        b.comp(us(1.0));
        if rank == 0 {
            b.send(1, bytes, 0);
            b.recv(1, bytes, 1);
        } else {
            b.recv(0, bytes, 0);
            b.send(0, bytes, 1);
        }
        b.comp(us(1.0));
    });
    build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
}

/// λ_G equals the byte count on the critical path: a ping-pong of two
/// s-byte messages has λ_G = 2(s−1).
#[test]
fn lambda_g_counts_bytes_on_critical_path() {
    let bytes = 10_000u64;
    let g = two_rank_pingpong(bytes);
    let params = LogGPSParams::cscs_testbed(2).with_o(100.0);
    let binding = Binding::bandwidth(&params);
    // Evaluate at a G large enough that the wire dominates local compute.
    let e = evaluate(&g, &binding, 1.0);
    assert_eq!(e.lambda, 2.0 * (bytes - 1) as f64, "λ_G = {}", e.lambda);
}

/// Evaluating the bandwidth binding at the configured G must equal
/// evaluating the latency binding at the configured L — the same point in
/// parameter space.
#[test]
fn bandwidth_and_latency_bindings_agree_at_base_point() {
    for app in [App::Milc, App::Cloverleaf] {
        let set = app.programs(8, 3);
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper()).unwrap();
        let params = LogGPSParams::cscs_testbed(8).with_o(app.paper_o());
        let t_lat = evaluate(&g, &Binding::uniform(&params), params.l).runtime;
        let t_bw = evaluate(&g, &Binding::bandwidth(&params), params.big_g).runtime;
        assert!(
            (t_lat - t_bw).abs() < 1e-6 * t_lat,
            "{}: {t_lat} vs {t_bw}",
            app.name()
        );
    }
}

/// Bandwidth tolerance via the LP's flipped objective: the maximum G
/// (slowest per-byte rate) keeping the runtime under a cap, checked
/// against the envelope inversion.
#[test]
fn bandwidth_tolerance_lp_matches_envelope() {
    let g = two_rank_pingpong(50_000).contracted();
    let params = LogGPSParams::cscs_testbed(2).with_o(100.0);
    let binding = Binding::bandwidth(&params);

    let base = evaluate(&g, &binding, params.big_g).runtime;
    let cap = 1.10 * base;

    // Both searches span G ∈ [0, 10] ns/byte.
    let mut lp = GraphLp::build(&g, &binding);
    let tol_lp = lp.tolerance(0.0, 10.0, cap).unwrap();

    let prof = ParametricProfile::compute(&g, &binding, (0.0, 10.0));
    let tol_env = prof.tolerance(cap).unwrap();

    assert!(
        (tol_lp - tol_env).abs() < 1e-9 * (1.0 + tol_env),
        "LP {tol_lp} vs envelope {tol_env}"
    );
    // The runtime at the tolerance hits the cap exactly.
    let at = evaluate(&g, &binding, tol_env).runtime;
    assert!((at - cap).abs() < 1e-6 * cap);
}

/// T(G) is convex nondecreasing and λ_G is a nondecreasing staircase,
/// exactly like the latency analysis.
#[test]
fn bandwidth_profile_is_convex_monotone() {
    let set = App::Lammps.programs(8, 3);
    let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper()).unwrap();
    let params = LogGPSParams::cscs_testbed(8).with_o(App::Lammps.paper_o());
    let binding = Binding::bandwidth(&params);
    let prof = ParametricProfile::compute(&g, &binding, (0.0, 2.0));
    let mut prev_t = f64::NEG_INFINITY;
    let mut prev_lam = -1.0;
    for i in 0..=40 {
        let gv = 0.05 * i as f64;
        let t = prof.runtime(gv);
        let lam = prof.lambda(gv);
        assert!(t >= prev_t - 1e-9);
        assert!(lam >= prev_lam - 1e-9);
        prev_t = t;
        prev_lam = lam;
    }
}

/// The Analyzer facade works identically under the bandwidth binding:
/// tolerance zones answer "how much slower may the per-byte rate get".
#[test]
fn analyzer_bandwidth_zones() {
    let set = App::Hpcg.programs(8, 3);
    let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper()).unwrap();
    let params = LogGPSParams::cscs_testbed(8).with_o(App::Hpcg.paper_o());
    let a = Analyzer::with_binding(&g, Binding::bandwidth(&params), params.big_g);
    // HPCG hides its halos well: only the 8-byte dot-product reductions sit
    // on the critical path, so the admissible per-byte slowdown is huge —
    // search a wide G window (ns/byte).
    let zones = a.tolerance_zones(1e6);
    assert!(zones.pct1 > 0.0);
    assert!(zones.pct1 <= zones.pct2 && zones.pct2 <= zones.pct5);
    assert!(zones.pct1.is_finite());
}
