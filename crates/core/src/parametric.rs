//! Parametric critical-path analysis: the exact value function `T(L)` over
//! a latency window.
//!
//! The paper dismisses exhaustive path enumeration ("generally
//! intractable") and plain dynamic programming (hours on a 500K-vertex
//! LULESH graph, §II-C) and leans on the LP solver plus Algorithm 2 to
//! explore an interval. This backend is this workspace's answer to the
//! same problem and its analogue of "presolve + barrier make the LP fast":
//! a DP over *windowed upper envelopes*. Each vertex carries the convex
//! envelope of `a·L + C` over all incoming paths, **clipped to the window
//! of interest** — pruning every line that cannot win inside
//! `[l_min, l_max]`. In practice per-vertex envelopes stay tiny (a handful
//! of lines), giving near-linear time and the complete `T(L)` curve —
//! every critical latency, `λ_L(L)` and exact tolerances — in one pass,
//! with no per-`L` re-solves.
//!
//! Cross-validated against the LP backend and direct evaluation in the
//! test suite.

use crate::binding::Binding;
use crate::lowering::lower_walk;
use llamp_lp::piecewise::{Envelope, Invert, Line};
use llamp_schedgen::ExecGraph;

/// The exact runtime curve of a graph over a latency window.
#[derive(Debug, Clone)]
pub struct ParametricProfile {
    window: (f64, f64),
    envelope: Envelope,
    /// Largest per-vertex envelope width observed (diagnostic).
    pub max_envelope_width: usize,
}

impl ParametricProfile {
    /// Run the windowed-envelope DP. `window` is the latency interval the
    /// curve must be exact on.
    pub fn compute(graph: &ExecGraph, binding: &Binding, window: (f64, f64)) -> Self {
        assert!(window.0 <= window.1, "empty latency window");
        let (lo, hi) = window;
        let n = graph.num_vertices();
        let mut envs: Vec<Option<Envelope>> = vec![None; n];
        let mut remaining: Vec<u32> = (0..n as u32).map(|v| graph.succs(v).len() as u32).collect();
        let mut global: Option<Envelope> = None;
        let mut max_width = 0usize;

        lower_walk(graph, binding, |low| {
            let v = low.id;
            let (vc, vm) = binding.project(low.cost);
            let env: Envelope = if low.preds.is_empty() {
                Envelope::from_line(Line::new(vm, vc))
            } else {
                let mut lines: Vec<Line> = Vec::new();
                for &(p, eb) in low.preds {
                    let (ec, em) = binding.project(eb);
                    let upstream = envs[p as usize]
                        .as_ref()
                        .expect("topological order guarantees predecessor envelopes");
                    for line in upstream.lines() {
                        lines.push(Line::new(line.slope + em + vm, line.intercept + ec + vc));
                    }
                    // Release predecessor storage once all consumers ran.
                    let r = &mut remaining[p as usize];
                    *r -= 1;
                    if *r == 0 {
                        envs[p as usize] = None;
                    }
                }
                let mut e = Envelope::from_lines(lines);
                e.clip(lo, hi);
                e
            };
            max_width = max_width.max(env.len());
            if low.is_sink {
                global = Some(match global.take() {
                    None => env.clone(),
                    Some(g) => {
                        let mut m = g.max_with(&env);
                        m.clip(lo, hi);
                        m
                    }
                });
            }
            envs[v as usize] = Some(env);
        });

        let mut envelope = global.unwrap_or_else(Envelope::zero);
        envelope.clip(lo, hi);
        Self {
            window,
            envelope,
            max_envelope_width: max_width,
        }
    }

    /// The latency window the profile is exact on.
    pub fn window(&self) -> (f64, f64) {
        self.window
    }

    /// The `T(L)` envelope itself.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Predicted runtime at latency `l` (ns). `l` should lie inside the
    /// window.
    pub fn runtime(&self, l: f64) -> f64 {
        debug_assert!(l >= self.window.0 - 1e-9 && l <= self.window.1 + 1e-9);
        self.envelope.eval(l)
    }

    /// Latency sensitivity `λ_L(l)` — the right derivative of `T`.
    pub fn lambda(&self, l: f64) -> f64 {
        self.envelope.slope_at(l)
    }

    /// Latency ratio `ρ_L(l) = λ_L·l / T(l)`.
    pub fn rho(&self, l: f64) -> f64 {
        let t = self.runtime(l);
        if t <= 0.0 {
            0.0
        } else {
            self.lambda(l) * l / t
        }
    }

    /// All critical latencies inside the window, ascending.
    pub fn critical_latencies(&self) -> Vec<f64> {
        self.envelope
            .breakpoints()
            .into_iter()
            .filter(|&x| x >= self.window.0 && x <= self.window.1)
            .collect()
    }

    /// The largest latency keeping `T(l) ≤ max_runtime`, clamped to the
    /// window. `None` when even `l = l_min` violates the cap;
    /// `Some(window.1)` when the cap is never reached inside the window.
    pub fn tolerance(&self, max_runtime: f64) -> Option<f64> {
        match self.envelope.invert_below(max_runtime) {
            Invert::Always => Some(self.window.1),
            Invert::Never => None,
            Invert::At(x) => {
                if x < self.window.0 {
                    None
                } else {
                    Some(x.min(self.window.1))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use crate::eval::evaluate;
    use crate::lp_build::GraphLp;
    use llamp_model::LogGPSParams;
    use llamp_schedgen::{build_graph, ExecGraph, GraphConfig};
    use llamp_trace::{ProgramSet, TracerConfig};
    use llamp_util::time::us;

    fn running_example() -> ExecGraph {
        let set = ProgramSet::spmd(2, |rank, b| {
            if rank == 0 {
                b.comp(100.0);
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
    fn running_example_full_curve() {
        let g = running_example();
        let prof = ParametricProfile::compute(&g, &didactic(), (0.0, 2_000.0));
        // One breakpoint at 0.385 µs.
        let lcs = prof.critical_latencies();
        assert_eq!(lcs.len(), 1, "{lcs:?}");
        assert!((lcs[0] - 385.0).abs() < 1e-9);
        // Values and slopes on both sides.
        assert!((prof.runtime(200.0) - 1_500.0).abs() < 1e-9);
        assert!((prof.runtime(500.0) - 1_615.0).abs() < 1e-9);
        assert_eq!(prof.lambda(200.0), 0.0);
        assert_eq!(prof.lambda(500.0), 1.0);
        // Tolerance at cap 2 µs: 0.885 µs (Fig. 6).
        let tol = prof.tolerance(2_000.0).unwrap();
        assert!((tol - 885.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_eval_and_lp_on_collective_workload() {
        let set = ProgramSet::spmd(8, |rank, b| {
            b.comp(us(2.0) * ((rank % 3) + 1) as f64);
            b.allreduce(128);
            b.comp(us(4.0));
            b.barrier();
            b.bcast(4096, 2);
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(8).with_o(us(1.5));
        let binding = Binding::uniform(&params);
        let prof = ParametricProfile::compute(&g, &binding, (0.0, us(200.0)));
        let mut lp = GraphLp::build(&g, &binding);
        for l in [0.0, us(0.5), us(3.0), us(17.0), us(60.0), us(180.0)] {
            let e = evaluate(&g, &binding, l);
            let p = lp.predict(l).unwrap();
            assert!(
                (prof.runtime(l) - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "L={l}: envelope {} vs eval {}",
                prof.runtime(l),
                e.runtime
            );
            assert!(
                (prof.runtime(l) - p.runtime).abs() < 1e-6 * (1.0 + p.runtime),
                "L={l}: envelope {} vs LP {}",
                prof.runtime(l),
                p.runtime
            );
            // At a breakpoint the LP may report any subgradient; the
            // envelope's left/right slopes bracket it.
            let left = prof.lambda((l - 1.0).max(0.0));
            let right = prof.lambda(l + 1.0);
            assert!(
                p.lambda >= left - 1e-6 && p.lambda <= right + 1e-6,
                "L={l}: λ_lp {} outside [{left}, {right}]",
                p.lambda
            );
        }
    }

    #[test]
    fn critical_latencies_match_algorithm2() {
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(1.0) * (rank + 1) as f64);
            b.allreduce(64);
            b.comp(us(2.0));
            b.allreduce(64);
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(4).with_o(200.0);
        let binding = Binding::uniform(&params);
        let prof = ParametricProfile::compute(&g, &binding, (0.0, us(20.0)));
        let exact = prof.critical_latencies();
        let mut lp = GraphLp::build(&g, &binding);
        let alg2 = lp.critical_latencies(0.0, us(20.0), us(1.0), 0.5).unwrap();
        // Algorithm 2 must find each exact breakpoint (within its eps),
        // and report nothing else.
        for bp in &exact {
            assert!(
                alg2.iter().any(|x| (x - bp).abs() < 1.0),
                "missing breakpoint {bp} in {alg2:?} (exact {exact:?})"
            );
        }
        for x in &alg2 {
            assert!(
                exact.iter().any(|bp| (x - bp).abs() < 1.0),
                "extra breakpoint {x} in {alg2:?} (exact {exact:?})"
            );
        }
    }

    #[test]
    fn lambda_is_monotone_in_l() {
        // Convexity: λ_L never decreases as L grows (paper §II-B: "As L
        // increases, more communication edges that cannot be overlapped
        // will lead to an increase in λ_L").
        let set = ProgramSet::spmd(4, |rank, b| {
            for i in 0..5 {
                b.comp(us(1.0) * ((rank + i) % 4) as f64);
                b.allreduce(64);
            }
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let binding = Binding::uniform(&LogGPSParams::cscs_testbed(4).with_o(100.0));
        let prof = ParametricProfile::compute(&g, &binding, (0.0, us(50.0)));
        let mut prev = -1.0;
        for i in 0..100 {
            let l = us(0.5) * i as f64;
            let lam = prof.lambda(l);
            assert!(lam >= prev - 1e-9, "λ decreased at L={l}");
            prev = lam;
        }
    }

    #[test]
    fn window_clipping_is_exact_inside() {
        let g = running_example();
        let wide = ParametricProfile::compute(&g, &didactic(), (0.0, 10_000.0));
        let narrow = ParametricProfile::compute(&g, &didactic(), (300.0, 600.0));
        for i in 0..=30 {
            let l = 300.0 + 10.0 * i as f64;
            assert!((wide.runtime(l) - narrow.runtime(l)).abs() < 1e-9, "L={l}");
        }
    }
}
