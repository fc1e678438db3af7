//! Property tests for the multi-parameter (`L × G × o`) analysis: the
//! dual sensitivities `λ_G` and `λ_o` read off the multi-parameter LP
//! must agree with finite-difference makespan slopes measured on the
//! independently implemented direct evaluator — the same certificate the
//! latency analysis has for `λ_L`, extended to the other LogGPS axes.

use llamp::core::{evaluate_multi, Binding, GraphLp, ParamPoint, SweepParam};
use llamp::model::LogGPSParams;
use llamp::schedgen::{build_graph, ExecGraph, GraphConfig};
use llamp::trace::{ProgramBuilder, ProgramSet, TracerConfig};
use proptest::prelude::*;

/// One phase: matched messages `(src, dst, bytes)`, per-rank compute,
/// and whether an allreduce closes the phase.
type PatternPhase = (Vec<(u32, u32, u64)>, Vec<f64>, bool);

/// Deadlock-free random SPMD pattern: phases of matched nonblocking
/// messages + waitall + optional collective (a trimmed version of the
/// pipeline property generator).
#[derive(Debug, Clone)]
struct Pattern {
    ranks: u32,
    phases: Vec<PatternPhase>,
}

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    (2u32..6).prop_flat_map(|ranks| {
        let msg = (0..ranks, 0..ranks, 1u64..100_000)
            .prop_filter_map("no self messages", move |(a, b, bytes)| {
                (a != b).then_some((a, b, bytes))
            });
        let phase = (
            prop::collection::vec(msg, 0..5),
            prop::collection::vec(0.0f64..100_000.0, ranks as usize),
            any::<bool>(),
        );
        prop::collection::vec(phase, 1..4).prop_map(move |phases| Pattern { ranks, phases })
    })
}

fn raw_graph_of(p: &Pattern) -> ExecGraph {
    let programs = (0..p.ranks)
        .map(|rank| {
            let mut b = ProgramBuilder::new();
            for (pi, (messages, comp, coll)) in p.phases.iter().enumerate() {
                b.comp(comp[rank as usize]);
                let mut reqs = Vec::new();
                for (mi, &(src, dst, bytes)) in messages.iter().enumerate() {
                    let tag = (pi * 64 + mi) as u32;
                    if src == rank {
                        reqs.push(b.isend(dst, bytes, tag));
                    }
                    if dst == rank {
                        reqs.push(b.irecv(src, bytes, tag));
                    }
                }
                b.waitall(reqs);
                if *coll {
                    b.allreduce(256);
                }
            }
            b.build()
        })
        .collect();
    build_graph(
        &ProgramSet::new(programs).trace(&TracerConfig::default()),
        &GraphConfig::paper(),
    )
    .unwrap()
}

fn graph_of(p: &Pattern) -> ExecGraph {
    raw_graph_of(p).contracted()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The multi-parameter LP's full gradient agrees with the direct
    /// evaluator at arbitrary (L, G, o) query points.
    #[test]
    fn multi_lp_gradient_matches_direct_evaluation(
        p in pattern_strategy(),
        l in 0.0f64..100_000.0,
        g in 0.0f64..2.0,
        o in 0.0f64..20_000.0,
    ) {
        let graph = graph_of(&p);
        let params = LogGPSParams::cscs_testbed(p.ranks).with_o(2_000.0);
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build_axes(&graph, &binding);
        let pred = lp.predict_at(ParamPoint { l, g, o }).unwrap();
        let ev = evaluate_multi(&graph, &binding, l, g, o);
        prop_assert!(
            (pred.runtime - ev.runtime).abs() <= 1e-6 * (1.0 + ev.runtime),
            "T: lp {} vs eval {}", pred.runtime, ev.runtime
        );
        prop_assert!((pred.lambda_l - ev.lambda_l).abs() <= 1e-6, "λ_L");
        prop_assert!((pred.lambda_g - ev.lambda_g).abs() <= 1e-6, "λ_G");
        prop_assert!((pred.lambda_o - ev.lambda_o).abs() <= 1e-6, "λ_o");
    }

    /// The dual certificate: within the per-parameter basis-stability
    /// window the makespan is exactly linear, so the central finite
    /// difference of the *evaluated* makespan equals the LP's reduced
    /// cost — for every sweepable parameter, λ_G and λ_o included.
    #[test]
    fn duals_match_finite_difference_slopes(
        p in pattern_strategy(),
        l in 0.0f64..80_000.0,
        g in 0.0f64..1.0,
        o in 500.0f64..10_000.0,
    ) {
        let graph = graph_of(&p);
        let params = LogGPSParams::cscs_testbed(p.ranks).with_o(2_000.0);
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build_axes(&graph, &binding);
        let at = ParamPoint { l, g, o };
        let pred = lp.predict_at(at).unwrap();
        let sol = lp.solve_raw(at).unwrap();
        for param in SweepParam::ALL {
            let x = at.get(param);
            let (lo, hi) = sol.lb_range(lp.param_var(param));
            // An interior step that stays inside the stability window on
            // both sides (windows can be degenerate at breakpoints —
            // skip those draws, the slope is one-sided there).
            let up = if hi.is_finite() { (hi - x) / 4.0 } else { x.max(1.0) };
            let dn = if lo.is_finite() { (x - lo) / 4.0 } else { x };
            let h = up.min(dn);
            if h.is_nan() || h <= 1e-9 {
                continue;
            }
            let t_plus = evaluate_multi(
                &graph, &binding,
                at.with(param, x + h).l, at.with(param, x + h).g, at.with(param, x + h).o,
            ).runtime;
            let t_minus = evaluate_multi(
                &graph, &binding,
                at.with(param, x - h).l, at.with(param, x - h).g, at.with(param, x - h).o,
            ).runtime;
            let slope = (t_plus - t_minus) / (2.0 * h);
            prop_assert!(
                (slope - pred.lambda(param)).abs() <= 1e-5 * (1.0 + pred.lambda(param).abs()),
                "{param}: finite-difference slope {slope} vs dual {}",
                pred.lambda(param)
            );
        }
    }

    /// At the (G, o) base cross-section the multi-parameter LP reproduces
    /// the single-parameter latency LP.
    #[test]
    fn base_cross_section_matches_single_parameter_lp(
        p in pattern_strategy(),
        l in 0.0f64..100_000.0,
    ) {
        let graph = graph_of(&p);
        let params = LogGPSParams::cscs_testbed(p.ranks).with_o(2_000.0);
        let binding = Binding::uniform(&params);
        let mut multi = GraphLp::build_axes(&graph, &binding);
        let mut single = GraphLp::build(&graph, &binding);
        let a = multi
            .predict_at(ParamPoint { l, g: params.big_g, o: params.o })
            .unwrap();
        let b = single.predict(l).unwrap();
        prop_assert!(
            (a.runtime - b.runtime).abs() <= 1e-7 * (1.0 + b.runtime),
            "T: multi {} vs single {}", a.runtime, b.runtime
        );
        prop_assert!((a.lambda_l - b.lambda).abs() <= 1e-7);
    }
}

// ---------------------------------------------------------------------------
// Graph reduction pipeline certificates: on the same random graphs, the
// reduced IR must answer identically — makespans to 1e-9 and duals
// matching finite-difference slopes measured on the *raw* graph — so
// every answer is read off the reduced graph as it is.
// ---------------------------------------------------------------------------

use llamp::schedgen::{reduce, ReduceConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reduced graph's makespan and full (λ_L, λ_G, λ_o) gradient
    /// equal the raw graph's at arbitrary (L, G, o) query points.
    #[test]
    fn reduced_evaluation_matches_raw(
        p in pattern_strategy(),
        l in 0.0f64..100_000.0,
        g in 0.0f64..2.0,
        o in 0.0f64..20_000.0,
    ) {
        let raw = raw_graph_of(&p);
        let red = reduce(&raw, &ReduceConfig::default());
        let params = LogGPSParams::cscs_testbed(p.ranks).with_o(2_000.0);
        let binding = Binding::uniform(&params);
        let a = evaluate_multi(&raw, &binding, l, g, o);
        let b = evaluate_multi(red.graph(), &binding, l, g, o);
        prop_assert!(
            (a.runtime - b.runtime).abs() <= 1e-9 * (1.0 + a.runtime),
            "T: raw {} vs reduced {}", a.runtime, b.runtime
        );
        prop_assert!((a.lambda_l - b.lambda_l).abs() <= 1e-9, "λ_L");
        prop_assert!((a.lambda_g - b.lambda_g).abs() <= 1e-9, "λ_G");
        prop_assert!((a.lambda_o - b.lambda_o).abs() <= 1e-9, "λ_o");
    }

    /// The multi-parameter LP built from the reduced graph reports the
    /// same makespan and duals as the LP built from the raw graph.
    #[test]
    fn reduced_lp_matches_unreduced_lp(
        p in pattern_strategy(),
        l in 0.0f64..100_000.0,
        g in 0.0f64..1.0,
        o in 0.0f64..10_000.0,
    ) {
        let raw = raw_graph_of(&p);
        let red = reduce(&raw, &ReduceConfig::default());
        let params = LogGPSParams::cscs_testbed(p.ranks).with_o(2_000.0);
        let binding = Binding::uniform(&params);
        let at = ParamPoint { l, g, o };
        let a = GraphLp::build_axes(&raw, &binding).predict_at(at).unwrap();
        let b = GraphLp::build_axes(red.graph(), &binding).predict_at(at).unwrap();
        prop_assert!(
            (a.runtime - b.runtime).abs() <= 1e-9 * (1.0 + a.runtime),
            "T: raw LP {} vs reduced LP {}", a.runtime, b.runtime
        );
        prop_assert!((a.lambda_l - b.lambda_l).abs() <= 1e-9, "λ_L");
        prop_assert!((a.lambda_g - b.lambda_g).abs() <= 1e-9, "λ_G");
        prop_assert!((a.lambda_o - b.lambda_o).abs() <= 1e-9, "λ_o");
    }

    /// Raw-graph dual certificate: λ duals read off the *reduced* LP
    /// match central finite-difference makespan slopes measured on the
    /// *raw* graph, inside the reported stability windows — the duals
    /// really do refer to original-graph sensitivities.
    #[test]
    fn reduced_lp_duals_match_raw_finite_differences(
        p in pattern_strategy(),
        l in 0.0f64..80_000.0,
        g in 0.0f64..1.0,
        o in 500.0f64..10_000.0,
    ) {
        let raw = raw_graph_of(&p);
        let red = reduce(&raw, &ReduceConfig::default());
        let params = LogGPSParams::cscs_testbed(p.ranks).with_o(2_000.0);
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build_axes(red.graph(), &binding);
        let at = ParamPoint { l, g, o };
        let pred = lp.predict_at(at).unwrap();
        let sol = lp.solve_raw(at).unwrap();
        for param in SweepParam::ALL {
            let x = at.get(param);
            let (lo, hi) = sol.lb_range(lp.param_var(param));
            let up = if hi.is_finite() { (hi - x) / 4.0 } else { x.max(1.0) };
            let dn = if lo.is_finite() { (x - lo) / 4.0 } else { x };
            // Clamp the downward probe to the non-negative domain: the
            // reduction pipeline's equivalence (and LogGPS itself) is
            // defined for θ ≥ 0, while a degenerate window may extend
            // below zero.
            let h = up.min(dn).min(x);
            if h.is_nan() || h <= 1e-9 {
                continue;
            }
            let up_pt = at.with(param, x + h);
            let dn_pt = at.with(param, x - h);
            let t_plus = evaluate_multi(&raw, &binding, up_pt.l, up_pt.g, up_pt.o).runtime;
            let t_minus = evaluate_multi(&raw, &binding, dn_pt.l, dn_pt.g, dn_pt.o).runtime;
            let slope = (t_plus - t_minus) / (2.0 * h);
            prop_assert!(
                (slope - pred.lambda(param)).abs() <= 1e-5 * (1.0 + pred.lambda(param).abs()),
                "{param}: raw finite-difference slope {slope} vs reduced dual {} \
                 (x={x}, window=({lo},{hi}), h={h}, at={at:?})",
                pred.lambda(param)
            );
        }
    }
}
