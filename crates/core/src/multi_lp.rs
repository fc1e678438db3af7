//! The multi-parameter LP: Algorithm 1 generalised so that **all three**
//! sweepable LogGPS parameters — the latency `L`, the per-byte gap `G`
//! and the per-message overhead `o` — are decision variables at once.
//!
//! The construction mirrors [`crate::lp_build::GraphLp`] exactly, except
//! that edge costs enter through [`Binding::bind_multi`]: instead of
//! baking `G` and `o` into row constants, every `≥` constraint carries
//! coefficients `(-m_L, -m_G, -m_o)` on the three parameter columns.
//! Queries pin each parameter with a *lower bound* (never an equality),
//! so the reduced cost of each column is the corresponding sensitivity —
//! `λ_L`, `λ_G` and `λ_o` all fall out of the **same dual solution** of
//! one solve, and per-parameter basis-stability windows come from the
//! same ranging machinery Algorithm 2 uses for `L`.
//!
//! Crash starts work unchanged: the longest-path crash instantiated at a
//! query's `(L, G, o)` point is optimal there, so every grid point solves
//! with one factorisation and zero pivots.

use crate::binding::{Binding, SweepParam};
use crate::crash::{CrashPlan, CrashRow, NO_BASE};
use crate::lowering::lower_walk;
use crate::zone::{self, WalkEnd, ZONE_STEP_LIMIT};
use llamp_lp::{
    resolve_robust, Basis, LpModel, Objective, Relation, Solution, SolveError, SolveStats,
    SparseSimplex, VarId,
};
use llamp_schedgen::GraphView;

/// A query point in the three-parameter space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamPoint {
    /// Network (or per-wire) latency `L` (ns).
    pub l: f64,
    /// Per-byte gap `G` (ns/byte).
    pub g: f64,
    /// Per-message overhead `o` (ns).
    pub o: f64,
}

impl ParamPoint {
    /// The value of one sweep parameter.
    pub fn get(&self, p: SweepParam) -> f64 {
        match p {
            SweepParam::L => self.l,
            SweepParam::G => self.g,
            SweepParam::O => self.o,
        }
    }

    /// Replace the value of one sweep parameter.
    pub fn with(mut self, p: SweepParam, value: f64) -> Self {
        match p {
            SweepParam::L => self.l = value,
            SweepParam::G => self.g = value,
            SweepParam::O => self.o = value,
        }
        self
    }
}

/// Affine running expression `base + c + m·(L,G,o)` for a vertex's
/// completion time while building the LP (Algorithm 1's `Tv`, with the
/// full coefficient vector kept symbolic).
#[derive(Debug, Clone, Copy)]
struct Expr {
    base: Option<VarId>,
    c: f64,
    ml: f64,
    mg: f64,
    mo: f64,
}

/// What a single multi-parameter solve reports: the runtime plus the full
/// sensitivity gradient. (The per-parameter basis-stability ranges are
/// one `Solution::lb_range` away, through [`GraphMultiLp::solve_raw`].)
#[derive(Debug, Clone, Copy)]
pub struct MultiPrediction {
    /// Predicted runtime `T` (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L` (reduced cost of the `L` column).
    pub lambda_l: f64,
    /// Bandwidth sensitivity `λ_G` (reduced cost of the `G` column).
    pub lambda_g: f64,
    /// Overhead sensitivity `λ_o` (reduced cost of the `o` column).
    pub lambda_o: f64,
    /// Simplex iterations spent.
    pub iterations: u64,
}

impl MultiPrediction {
    /// Sensitivity of one sweep parameter.
    pub fn lambda(&self, p: SweepParam) -> f64 {
        match p {
            SweepParam::L => self.lambda_l,
            SweepParam::G => self.lambda_g,
            SweepParam::O => self.lambda_o,
        }
    }

    /// The ratio `ρ_X = λ_X · X / T` for one parameter at its query
    /// value: the critical-path share attributable to that parameter.
    pub fn rho(&self, p: SweepParam, value: f64) -> f64 {
        if self.runtime <= 0.0 {
            0.0
        } else {
            self.lambda(p) * value / self.runtime
        }
    }
}

/// The multi-parameter LP form of an execution graph under a binding,
/// paired with the [`SparseSimplex`] that answers its queries (same
/// crash, warm-start and zone-walk protocol as
/// [`crate::lp_build::GraphLp`]).
#[derive(Debug)]
pub struct GraphMultiLp {
    model: LpModel,
    l: VarId,
    g: VarId,
    o: VarId,
    t: VarId,
    solver: SparseSimplex,
    /// Crash plan — instantiated into a crash [`Basis`] at each query's
    /// `(L, G, o)` point (see [`crate::lp_build::GraphLp::build`]).
    plan: CrashPlan,
}

impl GraphMultiLp {
    /// Algorithm 1 with symbolic `(L, G, o)` for any [`GraphView`] — raw
    /// or reduced graphs alike: one decision variable per parameter, each
    /// edge constraint carrying its full coefficient vector from
    /// [`Binding::bind_multi`]. The crash plan is recorded exactly as in
    /// the single-parameter build, with all three multipliers kept per
    /// row.
    pub fn build<V: GraphView + ?Sized>(graph: &V, binding: &Binding) -> Self {
        use llamp_lp::solution::VarStatus;

        let span = llamp_obs::span("lp.lower");
        let mut model = LpModel::new(Objective::Minimize);
        let l = model.add_var("l", 0.0, f64::INFINITY, 0.0);
        let g = model.add_var("g", 0.0, f64::INFINITY, 0.0);
        let o = model.add_var("o", 0.0, f64::INFINITY, 0.0);
        let t = model.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let mut col_status = vec![
            VarStatus::AtLower,
            VarStatus::AtLower,
            VarStatus::AtLower,
            VarStatus::FreeZero,
        ];
        let mut rows: Vec<CrashRow> = Vec::new();
        let mut has_sink = false;

        let n = graph.num_vertices();
        let mut exprs: Vec<Expr> = vec![
            Expr {
                base: None,
                c: 0.0,
                ml: 0.0,
                mg: 0.0,
                mo: 0.0,
            };
            n
        ];

        // Append the parameter coefficients of an expression to a
        // constraint's term list (negated: y − base − m·(l,g,o) ≥ c).
        let push_coeffs = |terms: &mut Vec<(VarId, f64)>, ml: f64, mg: f64, mo: f64| {
            if ml != 0.0 {
                terms.push((l, -ml));
            }
            if mg != 0.0 {
                terms.push((g, -mg));
            }
            if mo != 0.0 {
                terms.push((o, -mo));
            }
        };

        lower_walk(graph, binding, |low| {
            let v = low.id;
            let vb = low.cost;
            let e = match low.preds.len() {
                0 => Expr {
                    base: None,
                    c: vb.constant,
                    ml: vb.l,
                    mg: vb.g,
                    mo: vb.o,
                },
                1 => {
                    let (p, eb) = low.preds[0];
                    let u = exprs[p as usize];
                    Expr {
                        base: u.base,
                        c: u.c + eb.constant + vb.constant,
                        ml: u.ml + eb.l + vb.l,
                        mg: u.mg + eb.g + vb.g,
                        mo: u.mo + eb.o + vb.o,
                    }
                }
                _ => {
                    let y = model.add_var(format!("y{v}"), f64::NEG_INFINITY, f64::INFINITY, 0.0);
                    col_status.push(VarStatus::Basic);
                    for &(p, eb) in low.preds {
                        let u = exprs[p as usize];
                        // y ≥ base_u + (c_u + ec) + (m_u + em)·(l,g,o)
                        let mut terms = vec![(y, 1.0)];
                        if let Some(b) = u.base {
                            terms.push((b, -1.0));
                        }
                        push_coeffs(&mut terms, u.ml + eb.l, u.mg + eb.g, u.mo + eb.o);
                        let rhs = u.c + eb.constant;
                        model.add_constraint(format!("in{v}_{p}"), &terms, Relation::Ge, rhs);
                        rows.push(CrashRow {
                            target: y.0,
                            base: u.base.map_or(NO_BASE, |b| b.0),
                            c: rhs,
                            ml: u.ml + eb.l,
                            mg: u.mg + eb.g,
                            mo: u.mo + eb.o,
                        });
                    }
                    Expr {
                        base: Some(y),
                        c: vb.constant,
                        ml: vb.l,
                        mg: vb.g,
                        mo: vb.o,
                    }
                }
            };
            exprs[v as usize] = e;

            // Sinks bound the makespan variable: t ≥ Tv.
            if low.is_sink {
                let ex = exprs[v as usize];
                let mut terms = vec![(t, 1.0)];
                if let Some(b) = ex.base {
                    terms.push((b, -1.0));
                }
                push_coeffs(&mut terms, ex.ml, ex.mg, ex.mo);
                model.add_constraint(format!("sink{v}"), &terms, Relation::Ge, ex.c);
                rows.push(CrashRow {
                    target: t.0,
                    base: ex.base.map_or(NO_BASE, |b| b.0),
                    c: ex.c,
                    ml: ex.ml,
                    mg: ex.mg,
                    mo: ex.mo,
                });
                has_sink = true;
            }
        });

        if has_sink {
            col_status[t.0 as usize] = VarStatus::Basic;
        }
        let plan = CrashPlan { col_status, rows };

        let lp = Self {
            model,
            l,
            g,
            o,
            t,
            solver: SparseSimplex::default(),
            plan,
        };
        if llamp_obs::is_enabled() {
            span.field_str("shape", "multi");
            span.field_u64("rows", lp.model.num_constraints() as u64);
            span.field_u64("cols", lp.model.num_vars() as u64);
        }
        lp
    }

    /// The underlying model (for statistics or custom solves).
    pub fn model(&self) -> &LpModel {
        &self.model
    }

    /// Drop accumulated warm state: the next query seeds the crash basis
    /// at its own `(L, G, o)` point, as a freshly built instance would.
    pub fn reset(&mut self) {
        self.solver.reset();
    }

    /// Instantiate the crash basis at a parameter point (exposed for
    /// conformance tests and benchmarks; queries do this internally).
    pub fn crash_basis(&self, at: ParamPoint) -> Basis {
        self.plan.basis_at(at.l, at.g, at.o)
    }

    /// Compute the crash at `at`, seed it if the solver holds no warm
    /// state, and hand it back for the robust-resolve fallback ladder.
    fn arm_crash(&mut self, at: ParamPoint) -> Basis {
        let crash = self.crash_basis(at);
        if self.solver.warm_basis().is_none() {
            self.solver.seed(&crash);
        }
        crash
    }

    /// Cumulative solver-effort counters across every query this instance
    /// has answered.
    pub fn solver_stats(&self) -> SolveStats {
        self.solver.stats()
    }

    /// The decision variable of one sweep parameter.
    pub fn param_var(&self, p: SweepParam) -> VarId {
        match p {
            SweepParam::L => self.l,
            SweepParam::G => self.g,
            SweepParam::O => self.o,
        }
    }

    /// Makespan decision variable.
    pub fn t_var(&self) -> VarId {
        self.t
    }

    /// Solve `min t` with `l ≥ L`, `g ≥ G`, `o ≥ o` and report the
    /// runtime and the full sensitivity gradient — all from one dual
    /// solution.
    pub fn predict(&mut self, at: ParamPoint) -> Result<MultiPrediction, SolveError> {
        let sol = self.solve_raw(at)?;
        Ok(MultiPrediction {
            runtime: sol.objective(),
            lambda_l: sol.reduced_cost(self.l),
            lambda_g: sol.reduced_cost(self.g),
            lambda_o: sol.reduced_cost(self.o),
            iterations: sol.iterations(),
        })
    }

    /// Solve and hand back the raw solution (tight-constraint /
    /// critical-path inspection).
    pub fn solve_raw(&mut self, at: ParamPoint) -> Result<Solution, SolveError> {
        self.model.set_var_lb(self.l, at.l);
        self.model.set_var_lb(self.g, at.g);
        self.model.set_var_lb(self.o, at.o);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        let crash = self.arm_crash(at);
        resolve_robust(&mut self.solver, &self.model, Some(&crash))
    }

    /// Tolerance along one parameter (§II-D2 generalised): the largest
    /// value `x ≥ at.get(p)` of parameter `p` with `T ≤ max_runtime`, the
    /// other two pinned at `at`'s values, searched up to the finite window
    /// top `top`. Same walk, certification and outcomes as
    /// [`crate::GraphLp::tolerance`]; solves the floor `at` itself.
    pub fn tolerance(
        &mut self,
        p: SweepParam,
        at: ParamPoint,
        top: f64,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        self.reset();
        let floor = self.predict(at)?;
        self.tolerance_from(p, at, (floor.runtime, floor.lambda(p)), top, max_runtime)
    }

    /// [`GraphMultiLp::tolerance`] walking from a floor the caller
    /// already holds: `at_floor` is the crash-started `(runtime, λ_p)` of
    /// [`GraphMultiLp::predict`] at `at` (see
    /// [`crate::GraphLp::tolerance_from`]).
    pub fn tolerance_from(
        &mut self,
        p: SweepParam,
        at: ParamPoint,
        at_floor: (f64, f64),
        top: f64,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        self.tolerance_within(p, at, at_floor, top, max_runtime, ZONE_STEP_LIMIT)
    }

    /// [`GraphMultiLp::tolerance_from`] under an explicit step ceiling.
    fn tolerance_within(
        &mut self,
        p: SweepParam,
        at: ParamPoint,
        at_floor: (f64, f64),
        top: f64,
        max_runtime: f64,
        limit: u32,
    ) -> Result<f64, SolveError> {
        let floor = at.get(p);
        let end = zone::walk(
            floor,
            at_floor,
            top,
            max_runtime,
            limit,
            "lp.zone_steps",
            |x| {
                self.solver.reset();
                let pred = self.predict(at.with(p, x))?;
                Ok((pred.runtime, pred.lambda(p)))
            },
        )?;
        let WalkEnd::Root { at: x, lambda } = end else {
            return Ok(f64::INFINITY);
        };
        let (var, t) = (self.param_var(p), self.t);
        let root = at.with(p, x);
        let start = if lambda > 0.0 {
            self.plan
                .tolerance_basis_at(root.l, root.g, root.o, var.0, t.0)
        } else {
            self.crash_basis(root)
        };
        self.model.set_var_lb(var, floor);
        zone::certify(
            &mut self.model,
            &mut self.solver,
            var,
            t,
            max_runtime,
            top,
            &start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use crate::eval::evaluate_multi;
    use crate::lp_build::GraphLp;
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
        build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted()
    }

    fn didactic() -> (Binding, ParamPoint) {
        let p = LogGPSParams::didactic();
        (
            Binding::uniform(&p),
            ParamPoint {
                l: p.l,
                g: p.big_g,
                o: p.o,
            },
        )
    }

    #[test]
    fn matches_single_parameter_lp_at_base_point() {
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut multi = GraphMultiLp::build(&g, &binding);
        let mut single = GraphLp::build(&g, &binding);
        for l in [0.0, 200.0, 385.0, 500.0, 2_000.0] {
            let a = multi.predict(base.with(SweepParam::L, l)).unwrap();
            let b = single.predict(l).unwrap();
            assert!(
                (a.runtime - b.runtime).abs() < 1e-9 * (1.0 + b.runtime),
                "L={l}: {} vs {}",
                a.runtime,
                b.runtime
            );
            assert!((a.lambda_l - b.lambda).abs() < 1e-9, "L={l}");
        }
    }

    #[test]
    fn gradient_matches_direct_evaluation() {
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(3.0) * (rank + 1) as f64);
            b.allreduce(512);
            b.comp(us(1.0));
            b.barrier();
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let mut lp = GraphMultiLp::build(&g, &binding);
        for (l, gap, o) in [
            (0.0, 0.018, 1_000.0),
            (3_000.0, 0.018, 1_000.0),
            (50_000.0, 0.5, 2_000.0),
            (3_000.0, 2.0, 500.0),
        ] {
            let p = lp.predict(ParamPoint { l, g: gap, o }).unwrap();
            let e = evaluate_multi(&g, &binding, l, gap, o);
            assert!(
                (p.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "({l},{gap},{o}): lp {} vs eval {}",
                p.runtime,
                e.runtime
            );
            assert!(
                (p.lambda_l - e.lambda_l).abs() < 1e-6,
                "λ_L at ({l},{gap},{o})"
            );
            assert!(
                (p.lambda_g - e.lambda_g).abs() < 1e-6,
                "λ_G at ({l},{gap},{o})"
            );
            assert!(
                (p.lambda_o - e.lambda_o).abs() < 1e-6,
                "λ_o at ({l},{gap},{o})"
            );
        }
    }

    #[test]
    fn stability_window_step_is_exactly_linear() {
        // Inside the reported per-parameter stability window the basis is
        // unchanged, so T moves exactly linearly with slope λ — the dual
        // certificate for λ_G and λ_o.
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut lp = GraphMultiLp::build(&g, &binding);
        let at = base.with(SweepParam::L, 500.0);
        let p0 = lp.predict(at).unwrap();
        let sol = lp.solve_raw(at).unwrap();
        for param in SweepParam::ALL {
            let (lo, hi) = sol.lb_range(lp.param_var(param));
            let x0 = at.get(param);
            // Step halfway to the window edge (bounded to stay finite).
            let step_up = if hi.is_finite() { (hi - x0) / 2.0 } else { 1.0 };
            if step_up > 0.0 {
                let p1 = lp.predict(at.with(param, x0 + step_up)).unwrap();
                let want = p0.runtime + p0.lambda(param) * step_up;
                assert!(
                    (p1.runtime - want).abs() < 1e-7 * (1.0 + want.abs()),
                    "{param}: {} vs {}",
                    p1.runtime,
                    want
                );
            }
            let _ = lo;
            let p_back = lp.predict(at).unwrap();
            assert!((p_back.runtime - p0.runtime).abs() < 1e-9);
        }
    }

    #[test]
    fn tolerance_along_each_parameter() {
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut lp = GraphMultiLp::build(&g, &binding);
        let at = base.with(SweepParam::L, 0.0);
        // Fig. 6: max L s.t. T ≤ 2 µs is 0.885 µs (G, o at base).
        let tol_l = lp.tolerance(SweepParam::L, at, 10_000.0, 2_000.0).unwrap();
        assert!((tol_l - 885.0).abs() < 1e-6, "{tol_l}");
        // The prediction shape is restored afterwards.
        let p = lp.predict(at).unwrap();
        assert!((p.runtime - 1_500.0).abs() < 1e-6);
        // G tolerance: a cap above the G-free runtime admits a positive
        // per-byte gap; the runtime at the tolerance hits the cap.
        let tol_g = lp.tolerance(SweepParam::G, at, 1e6, 2_000.0).unwrap();
        assert!(tol_g.is_finite() && tol_g > at.g, "{tol_g}");
        let e = evaluate_multi(&g, &binding, at.l, tol_g, at.o);
        assert!((e.runtime - 2_000.0).abs() < 1e-6 * 2_000.0);
    }

    #[test]
    fn g_axis_tolerance_agrees_with_evaluation() {
        // Per-byte gap tolerance on a collective-heavy graph: the walk's
        // answer puts T exactly on the cap, and a hair past it breaks it.
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(3.0) * (rank + 1) as f64);
            b.allreduce(4096);
            b.comp(us(1.0));
            b.barrier();
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let at = ParamPoint {
            l: params.l,
            g: params.big_g,
            o: params.o,
        };
        let mut lp = GraphMultiLp::build(&g, &binding);
        let t0 = lp.predict(at).unwrap().runtime;
        for pct in [1.0, 2.0, 5.0] {
            let cap = t0 * (1.0 + pct / 100.0);
            let tol = lp.tolerance(SweepParam::G, at, 1e3, cap).unwrap();
            assert!(tol.is_finite() && tol > at.g, "{pct}%: {tol}");
            let on = evaluate_multi(&g, &binding, at.l, tol, at.o).runtime;
            assert!(
                (on - cap).abs() <= 1e-9 * cap,
                "{pct}%: T = {on} vs cap {cap}"
            );
            let past = evaluate_multi(&g, &binding, at.l, tol * (1.0 + 1e-6), at.o).runtime;
            assert!(past > cap, "{pct}%: cap still held past the tolerance");
        }
    }

    #[test]
    fn tolerance_outcomes_are_typed() {
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut lp = GraphMultiLp::build(&g, &binding);
        let at = base.with(SweepParam::L, 0.0);
        // A cap below T(floor) = 1.5 µs is infeasible along any axis.
        assert_eq!(
            lp.tolerance(SweepParam::O, at, 1e6, 1_000.0),
            Err(SolveError::Infeasible)
        );
        // λ_L = 0 on [0, 385): the walk jumps to the window top, where
        // the runtime still fits the cap.
        assert_eq!(
            lp.tolerance(SweepParam::L, at, 300.0, 1_600.0),
            Ok(f64::INFINITY)
        );
        // The fig. 6 walk takes two steps past the floor; one is not
        // enough.
        let base = lp.predict(at).unwrap();
        assert_eq!(
            lp.tolerance_within(
                SweepParam::L,
                at,
                (base.runtime, base.lambda_l),
                10_000.0,
                2_000.0,
                1
            ),
            Err(SolveError::IterationLimit)
        );
    }
}
