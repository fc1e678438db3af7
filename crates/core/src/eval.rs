//! Direct graph evaluation: longest path under a bound configuration.
//!
//! This is the "first conventional approach" of §II-C — two traversals,
//! `O(|V| + |E|)` — kept for three purposes: cross-validating the LP and
//! parametric backends, extracting the critical path itself (the LP only
//! reports which constraints are tight), and accumulating the *pairwise*
//! sensitivity matrices the placement algorithm needs (Appendix I:
//! `λ_L^{i,j}` counts messages between ranks `i` and `j` on the critical
//! path, `λ_G^{i,j}` counts their bytes).

use crate::binding::Binding;
use crate::lowering::lower_walk;
use llamp_schedgen::{EdgeKind, GraphView};

/// Absolute tie width (ns) when choosing among predecessor paths and
/// among sinks. A path later by more than `TIE_EPS` wins; within it, the
/// larger latency coefficient wins, so on an exact tie `λ` is the right
/// derivative at the evaluation point. The width is below one ulp of a
/// 10⁷ ns runtime, so finish times that differ only by rounding do not
/// tie: at such a kink `λ` follows whichever path rounded later, and may
/// differ from the envelope's right derivative and from the LP's (whose
/// crash keeps the lowest row index on exact ties).
const TIE_EPS: f64 = 1e-9;

/// Result of a single evaluation.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Predicted runtime `T` (ns) at the given variable value.
    pub runtime: f64,
    /// Latency sensitivity `λ = ∂T/∂λ_var`: the summed variable
    /// multipliers along the critical path.
    pub lambda: f64,
    /// Per-vertex completion times.
    pub finish: Vec<f64>,
    /// One critical path, source → sink, as vertex ids.
    pub critical_path: Vec<u32>,
}

impl Evaluation {
    /// The latency ratio `ρ = (λ·λ_value)/T`: the fraction of the critical
    /// path spent waiting on the studied latency (§II-D1; the prose
    /// defines the reciprocal but every plot shows this fraction).
    pub fn rho(&self, lambda_value: f64) -> f64 {
        if self.runtime <= 0.0 {
            0.0
        } else {
            self.lambda * lambda_value / self.runtime
        }
    }
}

/// Evaluate the graph under `binding` with the analysis variable set to
/// `lambda_value` (for the uniform model: the network latency `L`).
/// Accepts any [`GraphView`] — raw or reduced graphs alike.
pub fn evaluate<V: GraphView + ?Sized>(g: &V, binding: &Binding, lambda_value: f64) -> Evaluation {
    let n = g.num_vertices();
    let mut finish = vec![0.0f64; n];
    // Slope (latency-coefficient sum) of the best path into each vertex,
    // used both for tie-breaking and to read λ at the sink.
    let mut slope = vec![0.0f64; n];
    let mut argmax: Vec<u32> = vec![u32::MAX; n];

    lower_walk(g, binding, |low| {
        let v = low.id;
        let (vc, vm) = binding.project(low.cost);
        let mut best_t = 0.0f64;
        let mut best_slope = 0.0f64;
        let mut best_pred = u32::MAX;
        for &(u, eb) in low.preds {
            let (ec, em) = binding.project(eb);
            let t = finish[u as usize] + ec + em * lambda_value;
            let s = slope[u as usize] + em;
            if t > best_t + TIE_EPS || (t > best_t - TIE_EPS && s > best_slope) {
                best_t = t;
                best_slope = s;
                best_pred = u;
            }
        }
        finish[v as usize] = best_t + vc + vm * lambda_value;
        slope[v as usize] = best_slope + vm;
        argmax[v as usize] = best_pred;
    });

    // Sink with the latest finish; same tie-break.
    let mut runtime = f64::NEG_INFINITY;
    let mut lambda = 0.0;
    let mut sink = u32::MAX;
    for v in 0..n as u32 {
        if g.succs(v).is_empty() {
            let t = finish[v as usize];
            let s = slope[v as usize];
            let better = sink == u32::MAX
                || t > runtime + TIE_EPS
                || ((t - runtime).abs() <= TIE_EPS && s > lambda);
            if better {
                runtime = t;
                lambda = s;
                sink = v;
            }
        }
    }
    if sink == u32::MAX {
        runtime = 0.0;
    }

    let mut critical_path = Vec::new();
    let mut cur = sink;
    while cur != u32::MAX {
        critical_path.push(cur);
        cur = argmax[cur as usize];
    }
    critical_path.reverse();

    Evaluation {
        runtime,
        lambda,
        finish,
        critical_path,
    }
}

/// Result of a multi-parameter evaluation: the makespan plus its full
/// gradient in the three sweepable LogGPS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiEvaluation {
    /// Predicted runtime `T` (ns) at the query point.
    pub runtime: f64,
    /// Latency sensitivity `λ_L = ∂T/∂L` (traversals on the critical
    /// path, scaled by the latency model's multipliers).
    pub lambda_l: f64,
    /// Bandwidth sensitivity `λ_G = ∂T/∂G` (bytes on the critical path).
    pub lambda_g: f64,
    /// Overhead sensitivity `λ_o = ∂T/∂o` (message overheads on the
    /// critical path).
    pub lambda_o: f64,
}

impl MultiEvaluation {
    /// Sensitivity of one sweep parameter.
    pub fn lambda(&self, p: crate::binding::SweepParam) -> f64 {
        use crate::binding::SweepParam;
        match p {
            SweepParam::L => self.lambda_l,
            SweepParam::G => self.lambda_g,
            SweepParam::O => self.lambda_o,
        }
    }
}

/// Evaluate the graph at an arbitrary `(L, G, o)` point, tracking the full
/// sensitivity gradient along the critical path. Costs come from
/// [`Binding::bind_multi`], so nothing is baked to a constant: this is the
/// direct-evaluation counterpart of the multi-parameter LP, and the
/// reference the `λ_G` / `λ_o` dual certificates are checked against.
/// Ties between equal-cost paths prefer the larger `(λ_L, λ_G, λ_o)`
/// gradient lexicographically — the right-derivative at the query point,
/// matching the 1-D evaluator's slope tie-break.
pub fn evaluate_multi<V: GraphView + ?Sized>(
    g: &V,
    binding: &Binding,
    l: f64,
    gap: f64,
    o: f64,
) -> MultiEvaluation {
    let n = g.num_vertices();
    let mut finish = vec![0.0f64; n];
    // Per-vertex gradient of the best incoming path, for tie-breaking and
    // the sink read-out.
    let mut grad: Vec<[f64; 3]> = vec![[0.0; 3]; n];

    lower_walk(g, binding, |low| {
        let v = low.id;
        let vb = low.cost;
        let mut best_t = 0.0f64;
        let mut best_g = [0.0f64; 3];
        for &(u, eb) in low.preds {
            let t = finish[u as usize] + eb.eval(l, gap, o);
            let s = [
                grad[u as usize][0] + eb.l,
                grad[u as usize][1] + eb.g,
                grad[u as usize][2] + eb.o,
            ];
            if t > best_t + TIE_EPS || (t > best_t - TIE_EPS && s > best_g) {
                best_t = t;
                best_g = s;
            }
        }
        finish[v as usize] = best_t + vb.eval(l, gap, o);
        grad[v as usize] = [best_g[0] + vb.l, best_g[1] + vb.g, best_g[2] + vb.o];
    });

    let mut runtime = 0.0f64;
    let mut best = [0.0f64; 3];
    let mut found = false;
    for v in 0..n as u32 {
        if g.succs(v).is_empty() {
            let t = finish[v as usize];
            let s = grad[v as usize];
            let better =
                !found || t > runtime + TIE_EPS || ((t - runtime).abs() <= TIE_EPS && s > best);
            if better {
                runtime = t;
                best = s;
                found = true;
            }
        }
    }
    MultiEvaluation {
        runtime,
        lambda_l: best[0],
        lambda_g: best[1],
        lambda_o: best[2],
    }
}

/// Pairwise sensitivity matrices over ranks (Appendix I). `lambda[i·P+j]`
/// counts latency traversals between ranks `i` and `j` on the critical
/// path; `bytes[i·P+j]` sums the corresponding `G` coefficients. Both are
/// accumulated symmetrically.
#[derive(Debug, Clone)]
pub struct PairSensitivities {
    /// World size.
    pub nranks: u32,
    /// `λ_L^{i,j}` (messages on the critical path between the pair).
    pub lambda: Vec<f64>,
    /// `λ_G^{i,j}` (bytes on the critical path between the pair).
    pub bytes: Vec<f64>,
}

impl PairSensitivities {
    /// Look up `λ_L^{i,j}`.
    pub fn lambda_at(&self, i: u32, j: u32) -> f64 {
        self.lambda[(i * self.nranks + j) as usize]
    }

    /// Look up `λ_G^{i,j}`.
    pub fn bytes_at(&self, i: u32, j: u32) -> f64 {
        self.bytes[(i * self.nranks + j) as usize]
    }
}

/// Walk the critical path of an evaluation and accumulate the pairwise
/// sensitivity matrices. Works on any [`GraphView`]: the evaluation must
/// come from `g` itself, since the path names `g`'s vertices.
pub fn pair_sensitivities<V: GraphView + ?Sized>(g: &V, eval: &Evaluation) -> PairSensitivities {
    let p = g.nranks();
    let mut lambda = vec![0.0; (p * p) as usize];
    let mut bytes = vec![0.0; (p * p) as usize];
    for w in eval.critical_path.windows(2) {
        let (u, v) = (w[0], w[1]);
        let edge = g
            .preds(v)
            .iter()
            .find(|e| e.other == u)
            .expect("critical path follows edges");
        if edge.cost.l_count == 0.0 && edge.cost.gbytes == 0.0 {
            continue;
        }
        let (a, b) = (g.vertex(u).rank, g.vertex(v).rank);
        if matches!(edge.kind, EdgeKind::Comm | EdgeKind::Rendezvous) && a != b {
            lambda[(a * p + b) as usize] += edge.cost.l_count;
            lambda[(b * p + a) as usize] += edge.cost.l_count;
            bytes[(a * p + b) as usize] += edge.cost.gbytes;
            bytes[(b * p + a) as usize] += edge.cost.gbytes;
        }
    }
    PairSensitivities {
        nranks: p,
        lambda,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use llamp_model::LogGPSParams;
    use llamp_schedgen::{build_graph, ExecGraph, GraphConfig};
    use llamp_trace::{ProgramSet, TracerConfig};
    use llamp_util::time::us;

    fn running_example(c0_us: f64) -> ExecGraph {
        let set = ProgramSet::spmd(2, |rank, b| {
            if rank == 0 {
                b.comp(us(c0_us));
                b.send(1, 4, 0);
                b.comp(us(1.0));
            } else {
                b.comp(us(0.5));
                b.recv(0, 4, 0);
                b.comp(us(1.0));
            }
        });
        build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
    }

    fn didactic() -> Binding {
        Binding::uniform(&LogGPSParams::didactic())
    }

    #[test]
    fn late_sender_lambda_is_one() {
        // Fig. 4b: with c0 = 1 µs the message edge stays critical, λ = 1.
        let g = running_example(1.0);
        for l in [0.0, 100.0, 1000.0, 100_000.0] {
            let e = evaluate(&g, &didactic(), l);
            assert_eq!(e.lambda, 1.0, "L = {l}");
            assert!((e.runtime - (l + 2_015.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn overlap_lambda_switches_at_critical_latency() {
        // Fig. 4c: with c0 = 0.1 µs, λ flips from 0 to 1 at 0.385 µs.
        let g = running_example(0.1);
        let below = evaluate(&g, &didactic(), 200.0);
        assert_eq!(below.lambda, 0.0);
        assert!((below.runtime - us(1.5)).abs() < 1e-9);
        let above = evaluate(&g, &didactic(), 500.0);
        assert_eq!(above.lambda, 1.0);
        assert!((above.runtime - us(1.615)).abs() < 1e-9);
        // At the breakpoint the right derivative (slope tie-break) wins.
        let at = evaluate(&g, &didactic(), 385.0);
        assert_eq!(at.lambda, 1.0);
    }

    #[test]
    fn critical_path_is_connected_and_monotone() {
        let g = running_example(1.0);
        let e = evaluate(&g, &didactic(), us(3.0));
        assert!(e.critical_path.len() >= 2);
        for w in e.critical_path.windows(2) {
            assert!(g.preds(w[1]).iter().any(|edge| edge.other == w[0]));
            assert!(e.finish[w[0] as usize] <= e.finish[w[1] as usize] + 1e-9);
        }
        // The path ends at the global sink.
        let last = *e.critical_path.last().unwrap();
        assert!((e.finish[last as usize] - e.runtime).abs() < 1e-9);
    }

    #[test]
    fn rho_fraction() {
        let g = running_example(1.0);
        let l = us(3.0);
        let e = evaluate(&g, &didactic(), l);
        // T = L + 2.015 µs, latency share = L/T.
        let want = l / (l + 2_015.0);
        assert!((e.rho(l) - want).abs() < 1e-12);
    }

    #[test]
    fn matches_dataflow_simulator_without_noise() {
        use llamp_sim::{SimConfig, Simulator};
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(10.0) * (rank + 1) as f64);
            b.allreduce(256);
            b.comp(us(5.0));
            b.barrier();
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap();
        let params = LogGPSParams::cscs_testbed(4).with_o(us(2.0));
        let e = evaluate(&g, &Binding::uniform(&params), params.l);
        // Dataflow replay (no CPU serialisation): exact agreement.
        let s = Simulator::new(&g, SimConfig::dataflow(params)).run();
        assert!(
            (e.runtime - s.makespan).abs() < 1e-6,
            "eval {} vs sim {}",
            e.runtime,
            s.makespan
        );
        // LogGOPSim-style CPU serialisation only ever slows execution, and
        // by at most one o per concurrent send/recv pair per round.
        let s2 = Simulator::new(&g, SimConfig::ideal(params)).run();
        assert!(s2.makespan >= e.runtime - 1e-6);
        assert!(s2.makespan <= e.runtime + 8.0 * params.o);
    }

    #[test]
    fn pair_sensitivities_accumulate_on_critical_pair() {
        let g = running_example(1.0);
        let e = evaluate(&g, &didactic(), us(3.0));
        let ps = pair_sensitivities(&g, &e);
        assert_eq!(ps.lambda_at(0, 1), 1.0);
        assert_eq!(ps.lambda_at(1, 0), 1.0);
        assert_eq!(ps.bytes_at(0, 1), 3.0); // 4-byte message: s-1
        assert_eq!(ps.lambda_at(0, 0), 0.0);
    }

    #[test]
    fn contracted_graph_evaluates_identically() {
        let set = ProgramSet::spmd(3, |rank, b| {
            b.comp(us(1.0) * (rank + 1) as f64);
            b.allreduce(64);
            b.comp(us(2.0));
            b.bcast(128, 0);
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap();
        let cg = g.contracted();
        let params = LogGPSParams::cscs_testbed(3).with_o(500.0);
        let b = Binding::uniform(&params);
        for l in [0.0, 1_000.0, 50_000.0] {
            let full = evaluate(&g, &b, l);
            let contracted = evaluate(&cg, &b, l);
            assert!(
                (full.runtime - contracted.runtime).abs() < 1e-6,
                "L={l}: {} vs {}",
                full.runtime,
                contracted.runtime
            );
            assert_eq!(full.lambda, contracted.lambda, "L={l}");
        }
    }
}
