//! High-level analysis facade.
//!
//! [`Analyzer`] bundles the pieces a user of the toolchain actually wants:
//! build once from an execution graph and a network parameter set, then ask
//! for runtime predictions, sensitivity/ratio curves, critical latencies
//! and the x% latency-tolerance figures of Fig. 1 / Fig. 9 — without
//! touching LPs or envelopes directly.

use crate::binding::Binding;
use crate::eval::{evaluate, Evaluation};
use crate::lp_build::{GraphLp, MultiPrediction, ParamPoint};
use crate::parametric::ParametricProfile;
use crate::zone::{self, ZONE_STEP_LIMIT};
use llamp_lp::SolveError;
use llamp_model::LogGPSParams;
use llamp_schedgen::{ExecGraph, ReduceConfig, ReducedGraph, ReductionStats};
use std::sync::Arc;

/// The x% latency-tolerance triple the paper highlights (green / orange /
/// red zones of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceZones {
    /// Baseline runtime `T₀` at the base latency (ns).
    pub baseline_runtime: f64,
    /// Max added latency `∆L` before >1% slowdown (ns).
    pub pct1: f64,
    /// Max added latency before >2% slowdown (ns).
    pub pct2: f64,
    /// Max added latency before >5% slowdown (ns).
    pub pct5: f64,
}

/// One sample of a latency sweep (a row of the Fig. 9 curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Added latency `∆L` (ns).
    pub delta_l: f64,
    /// Predicted runtime (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L`.
    pub lambda: f64,
    /// Latency ratio `ρ_L`.
    pub rho: f64,
}

/// Analysis driver for one execution graph under one network binding.
///
/// The reduced graph sits behind an [`Arc`]: costs stay symbolic in
/// `L`, `G` and `o` until the binding evaluates them, so one reduced
/// graph serves any number of analyzers that differ only in their
/// binding (see [`Analyzer::from_reduced`]).
#[derive(Debug, Clone)]
pub struct Analyzer {
    graph: Arc<ReducedGraph>,
    binding: Binding,
    base_l: f64,
}

impl Analyzer {
    /// Build from a graph and LogGPS parameters (uniform latency model).
    /// The graph runs through the full makespan-preserving reduction
    /// pipeline — the analysis-level presolve — so construction cost is
    /// paid once. Every answer is read off the reduced graph, which keeps
    /// the makespan, the sensitivities and the critical latencies of the
    /// raw one.
    pub fn new(graph: &ExecGraph, params: &LogGPSParams) -> Self {
        Self::with_binding(graph, Binding::uniform(params), params.l)
    }

    /// Build with an explicit binding (topology / per-class / HLogGP
    /// analyses). `base_l` is the reference value of the analysis variable
    /// (e.g. the baseline wire latency).
    pub fn with_binding(graph: &ExecGraph, binding: Binding, base_l: f64) -> Self {
        let reduced = graph.reduced(&ReduceConfig::default());
        Self::from_reduced(Arc::new(reduced), binding, base_l)
    }

    /// Bind an already reduced graph: the one constructor. Reduction
    /// only merges and reassociates the symbolic cost expressions, never
    /// evaluates them, so a graph reduced once can be shared by every
    /// binding of it with the same answers as reducing per binding. The
    /// raw graph is analysed by passing it as
    /// [`ReducedGraph::identity`].
    pub fn from_reduced(graph: Arc<ReducedGraph>, binding: Binding, base_l: f64) -> Self {
        Self {
            graph,
            binding,
            base_l,
        }
    }

    /// The reduced graph under analysis.
    pub fn graph(&self) -> &ExecGraph {
        self.graph.graph()
    }

    /// The reduction IR: the reduced graph and its pass stats.
    pub fn reduction(&self) -> &ReducedGraph {
        &self.graph
    }

    /// What the reduction pipeline did to this analyzer's graph.
    pub fn reduction_stats(&self) -> &ReductionStats {
        self.graph.stats()
    }

    /// The active binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Base value of the analysis variable (network latency `L` for the
    /// uniform model).
    pub fn base_l(&self) -> f64 {
        self.base_l
    }

    /// Fast runtime/λ/critical-path evaluation at one latency value.
    pub fn evaluate(&self, l: f64) -> Evaluation {
        evaluate(self.graph(), &self.binding, l)
    }

    /// Predicted runtime at the base latency.
    pub fn baseline_runtime(&self) -> f64 {
        self.evaluate(self.base_l).runtime
    }

    /// Build the LP form (Algorithm 1) for solver-based queries, with
    /// the binding's analysis variable as its one parameter column.
    pub fn lp(&self) -> GraphLp {
        GraphLp::build(self.graph(), &self.binding)
    }

    /// Build the LP form with `L`, `G` and `o` all symbolic (see
    /// [`GraphLp::build_axes`]).
    pub fn lp_axes(&self) -> GraphLp {
        GraphLp::build_axes(self.graph(), &self.binding)
    }

    /// Base value of one sweep parameter: the point the campaign's delta
    /// axes are relative to (`L` from the analyzer, `G`/`o` from the
    /// binding).
    pub fn base_param(&self, p: crate::binding::SweepParam) -> f64 {
        self.binding.base_value(p, self.base_l)
    }

    /// The full base query point `(L, G, o)`.
    pub fn base_point(&self) -> ParamPoint {
        use crate::binding::SweepParam;
        ParamPoint {
            l: self.base_param(SweepParam::L),
            g: self.base_param(SweepParam::G),
            o: self.base_param(SweepParam::O),
        }
    }

    /// Direct evaluation at an arbitrary `(L, G, o)` point, with the full
    /// sensitivity gradient (see [`crate::eval::evaluate_multi`]).
    pub fn evaluate_multi(&self, at: ParamPoint) -> MultiPrediction {
        crate::eval::evaluate_multi(self.graph(), &self.binding, at.l, at.g, at.o)
    }

    /// Exact `T(L)` profile over `[l_min, l_max]`.
    pub fn profile(&self, l_min: f64, l_max: f64) -> ParametricProfile {
        ParametricProfile::compute(self.graph(), &self.binding, (l_min, l_max))
    }

    /// The x% tolerance (§II-D2) as *added* latency `∆L` above the base
    /// latency, computed exactly from the parametric profile.
    /// `f64::INFINITY` means the cap is never exceeded within `search_hi`.
    pub fn tolerance_pct(&self, pct: f64, search_hi: f64) -> f64 {
        let t0 = self.baseline_runtime();
        let cap = t0 * (1.0 + pct / 100.0);
        let prof = self.profile(self.base_l, search_hi);
        match prof.tolerance(cap) {
            None => 0.0,
            Some(x) if x >= search_hi => f64::INFINITY,
            Some(x) => x - self.base_l,
        }
    }

    /// The x% tolerance by direct evaluation: the largest `l ≥ floor`
    /// with `T(l) ≤ cap`, searched up to the finite window top `top`, by
    /// the zone walk [`GraphLp::tolerance`] runs, stepping on
    /// [`Analyzer::evaluate`]'s `(runtime, λ)` instead of LP solves.
    /// `at_floor` is that pair at `floor` — the caller's baseline — so
    /// only points right of the floor are evaluated. The answer is the
    /// walk's last point, the root up to `T`'s rounding, as for the LP.
    /// Outcomes as [`GraphLp::tolerance`]: `f64::INFINITY` when the cap
    /// holds at `top`, `Err(SolveError::Infeasible)` when it fails at the
    /// floor, `Err(SolveError::IterationLimit)` past [`ZONE_STEP_LIMIT`]
    /// steps.
    pub fn eval_tolerance(
        &self,
        floor: f64,
        at_floor: (f64, f64),
        top: f64,
        cap: f64,
    ) -> Result<f64, SolveError> {
        zone::walk(
            floor,
            at_floor,
            top,
            cap,
            ZONE_STEP_LIMIT,
            "eval.zone_steps",
            |l| {
                let e = self.evaluate(l);
                Ok((e.runtime, e.lambda))
            },
        )
    }

    /// The 1/2/5% tolerance zones of Fig. 1.
    pub fn tolerance_zones(&self, search_hi: f64) -> ToleranceZones {
        let t0 = self.baseline_runtime();
        let prof = self.profile(self.base_l, search_hi);
        let zone = |pct: f64| -> f64 {
            let cap = t0 * (1.0 + pct / 100.0);
            match prof.tolerance(cap) {
                None => 0.0,
                Some(x) if x >= search_hi => f64::INFINITY,
                Some(x) => x - self.base_l,
            }
        };
        ToleranceZones {
            baseline_runtime: t0,
            pct1: zone(1.0),
            pct2: zone(2.0),
            pct5: zone(5.0),
        }
    }

    /// Sweep `∆L` over `deltas` (the Fig. 9 x-axis), producing runtime,
    /// `λ_L` and `ρ_L` per point from the exact profile.
    pub fn sweep(&self, deltas: &[f64]) -> Vec<SweepPoint> {
        let hi = self.base_l + deltas.iter().copied().fold(0.0f64, f64::max);
        let prof = self.profile(self.base_l.min(hi), hi.max(self.base_l) + 1.0);
        deltas
            .iter()
            .map(|&d| {
                let l = self.base_l + d;
                SweepPoint {
                    delta_l: d,
                    runtime: prof.runtime(l),
                    lambda: prof.lambda(l),
                    rho: prof.rho(l),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_schedgen::{build_graph, GraphConfig};
    use llamp_trace::{ProgramSet, TracerConfig};
    use llamp_util::time::us;

    /// A bulk-synchronous job: per-iteration compute then allreduce — a
    /// miniature of the paper's applications.
    fn bsp_graph(ranks: u32, iters: usize, comp_us: f64) -> ExecGraph {
        let set = ProgramSet::spmd(ranks, |_, b| {
            for _ in 0..iters {
                b.comp(us(comp_us));
                b.allreduce(64);
            }
        });
        build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
    }

    #[test]
    fn zones_are_ordered() {
        let g = bsp_graph(8, 10, 50.0);
        let params = LogGPSParams::cscs_testbed(8).with_o(us(2.0));
        let a = Analyzer::new(&g, &params);
        let z = a.tolerance_zones(us(2_000.0));
        assert!(z.pct1 > 0.0);
        assert!(z.pct1 <= z.pct2);
        assert!(z.pct2 <= z.pct5);
    }

    #[test]
    fn zone_caps_are_respected() {
        let g = bsp_graph(4, 5, 100.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(us(2.0));
        let a = Analyzer::new(&g, &params);
        let z = a.tolerance_zones(us(5_000.0));
        let t0 = z.baseline_runtime;
        // Runtime exactly at the 1% tolerance equals 1.01 T0.
        let at = a.evaluate(params.l + z.pct1).runtime;
        assert!(
            (at - 1.01 * t0).abs() < 1e-6 * t0,
            "runtime at pct1 {} vs cap {}",
            at,
            1.01 * t0
        );
        // Just past it, the cap is exceeded.
        let past = a.evaluate(params.l + z.pct1 + us(1.0)).runtime;
        assert!(past > 1.01 * t0);
    }

    #[test]
    fn eval_walk_matches_the_envelope() {
        let g = bsp_graph(4, 5, 100.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(us(2.0));
        let a = Analyzer::new(&g, &params);
        let hi = params.l + us(5_000.0);
        let z = a.tolerance_zones(hi);
        let floor = a.evaluate(params.l);
        let at_floor = (floor.runtime, floor.lambda);
        for (pct, env) in [(1.0, z.pct1), (2.0, z.pct2), (5.0, z.pct5)] {
            let cap = floor.runtime * (1.0 + pct / 100.0);
            let walked = a.eval_tolerance(params.l, at_floor, hi, cap).unwrap() - params.l;
            assert!(
                (walked - env).abs() <= 1e-9 * env.max(1.0),
                "{pct}%: walked {walked} vs envelope {env}"
            );
        }
        assert_eq!(
            a.eval_tolerance(params.l, at_floor, hi, 0.5 * floor.runtime),
            Err(SolveError::Infeasible)
        );
    }

    #[test]
    fn sweep_points_match_evaluation() {
        let g = bsp_graph(4, 8, 20.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let a = Analyzer::new(&g, &params);
        let deltas: Vec<f64> = (0..10).map(|i| us(10.0) * i as f64).collect();
        for pt in a.sweep(&deltas) {
            let e = a.evaluate(params.l + pt.delta_l);
            assert!((pt.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime));
            assert!((pt.lambda - e.lambda).abs() < 1e-9);
        }
    }

    #[test]
    fn more_compute_means_more_tolerance() {
        // Strong-scaling intuition (§III-C): more compute per rank hides
        // more latency.
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let small = Analyzer::new(&bsp_graph(4, 6, 10.0), &params);
        let big = Analyzer::new(&bsp_graph(4, 6, 1_000.0), &params);
        let zs = small.tolerance_zones(us(100_000.0));
        let zb = big.tolerance_zones(us(100_000.0));
        assert!(
            zb.pct1 > zs.pct1,
            "compute-heavy {} vs light {}",
            zb.pct1,
            zs.pct1
        );
    }

    #[test]
    fn one_reduced_graph_serves_every_binding() {
        // Reducing once and binding twice answers exactly what reducing
        // per binding does: reduction never evaluates the symbolic costs.
        let g = bsp_graph(4, 6, 30.0);
        let shared = Arc::new(g.reduced(&ReduceConfig::default()));
        for o in [us(1.0), us(4.0)] {
            let params = LogGPSParams::cscs_testbed(4).with_o(o);
            let own = Analyzer::new(&g, &params);
            let on_shared =
                Analyzer::from_reduced(Arc::clone(&shared), Binding::uniform(&params), params.l);
            for d in [0.0, us(5.0), us(50.0)] {
                let (a, b) = (own.evaluate(params.l + d), on_shared.evaluate(params.l + d));
                assert_eq!(a.runtime.to_bits(), b.runtime.to_bits());
                assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            }
            assert_eq!(
                own.tolerance_zones(us(2_000.0)),
                on_shared.tolerance_zones(us(2_000.0))
            );
        }
    }

    #[test]
    fn fully_synchronous_job_has_near_zero_tolerance() {
        // No compute at all: any added latency shows up ~proportionally.
        let g = bsp_graph(4, 4, 0.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(100.0);
        let a = Analyzer::new(&g, &params);
        let z = a.tolerance_zones(us(1_000.0));
        // 1% of an all-communication runtime is tiny.
        assert!(z.pct1 < a.baseline_runtime() * 0.02);
    }
}
