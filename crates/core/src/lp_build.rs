//! Execution graph → linear program (Algorithm 1) and the LP-powered
//! analyses: runtime prediction, latency sensitivity via reduced costs,
//! latency tolerance via the flipped objective (§II-D2, reached by a
//! Newton walk over crash-started predictions), and the critical-latency
//! search of Algorithm 2.
//!
//! The construction follows the paper exactly: traversing the graph in
//! topological order, a vertex with one predecessor extends its
//! predecessor's affine expression, while a vertex with several
//! predecessors introduces a decision variable `y_v` and one `≥` constraint
//! per incoming edge. The network latency appears as the decision variable
//! `l`; queries pin it with a lower bound (`l ≥ L`) — never an equality —
//! which is what makes the reduced cost of `l` equal `∂T/∂L ≥ 0`.

use crate::binding::Binding;
use crate::crash::{CrashPlan, CrashRow, NO_BASE};
use crate::lowering::lower_walk;
use crate::zone::{self, WalkEnd, ZONE_STEP_LIMIT};
use llamp_lp::{
    resolve_robust, Basis, LpModel, Objective, Relation, Solution, SolveError, SolveStats,
    SparseSimplex, VarId,
};
use llamp_schedgen::GraphView;

/// Affine running expression `base + c + m·l` for a vertex's completion
/// time while building the LP (Algorithm 1's `Tv`).
#[derive(Debug, Clone, Copy)]
struct Expr {
    base: Option<VarId>,
    c: f64,
    m: f64,
}

/// The LP form of an execution graph under a binding, paired with the
/// [`SparseSimplex`] that answers its queries. A fresh (or reset)
/// instance starts each query from the longest-path crash basis at the
/// query's latency point; otherwise successive queries re-solve warm
/// from the previous optimal basis.
#[derive(Debug)]
pub struct GraphLp {
    model: LpModel,
    l: VarId,
    t: VarId,
    solver: SparseSimplex,
    /// Crash *plan* (see [`GraphLp::build`]): the per-row longest-path
    /// recursion records, instantiated into a concrete crash [`Basis`] at
    /// each query's latency point.
    plan: CrashPlan,
}

/// Step ceiling of Algorithm 2 ([`GraphLp::critical_latencies`]): a
/// search that needs more `predict` steps than this fails with a typed
/// [`SolveError::IterationLimit`] instead of running unbounded. Every
/// step descends by at least the caller's resolution `step`, so the
/// ceiling binds only when `(l_max − l_min) / step` exceeds it.
pub const CRITICAL_STEP_LIMIT: u32 = 1024;

/// What a single `predict` solve reports (the quantities LLAMP reads from
/// the solver).
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Predicted runtime `T` (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L` (reduced cost of `l`).
    pub lambda: f64,
    /// Simplex iterations spent.
    pub iterations: u64,
}

impl Prediction {
    /// The latency ratio `ρ_L` at the given latency.
    pub fn rho(&self, l: f64) -> f64 {
        if self.runtime <= 0.0 {
            0.0
        } else {
            self.lambda * l / self.runtime
        }
    }
}

impl GraphLp {
    /// Algorithm 1: build the LP for `graph` under `binding` (any
    /// [`GraphView`] — raw or reduced graphs alike). The latency variable
    /// starts with bound `l ≥ 0`.
    ///
    /// Alongside the model this records a `CrashPlan`: one record per
    /// row of the longest-path recursion the LP encodes. Each query
    /// instantiates the plan *at its latency point* — running the exact
    /// forward DAG longest-path pass, so every merge variable `y_v` (and the makespan
    /// `t`) is made basic on the row that defines its max at that point
    /// while all other rows keep their logical basic. By the graph's
    /// topological order that submatrix is unit lower triangular —
    /// trivially nonsingular, and factored by substitution alone — and
    /// evaluated at the query point the basis is primal feasible *and*
    /// dual feasible, i.e. optimal up to degeneracy: a cold solve seeded
    /// from it needs no pivots at all, only that factorisation and one
    /// pricing pass.
    pub fn build<V: GraphView + ?Sized>(graph: &V, binding: &Binding) -> Self {
        use llamp_lp::solution::VarStatus;

        let span = llamp_obs::span("lp.lower");
        let mut model = LpModel::new(Objective::Minimize);
        let l = model.add_var("l", 0.0, f64::INFINITY, 0.0);
        let t = model.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        // Crash-plan skeleton, filled in as variables and rows appear.
        let mut col_status = vec![VarStatus::AtLower, VarStatus::FreeZero];
        let mut rows: Vec<CrashRow> = Vec::new();
        let mut has_sink = false;

        let n = graph.num_vertices();
        let mut exprs: Vec<Expr> = vec![
            Expr {
                base: None,
                c: 0.0,
                m: 0.0
            };
            n
        ];

        lower_walk(graph, binding, |low| {
            let v = low.id;
            let (vc, vm) = binding.project(low.cost);
            let e = match low.preds.len() {
                0 => Expr {
                    base: None,
                    c: vc,
                    m: vm,
                },
                1 => {
                    let (p, eb) = low.preds[0];
                    let (ec, em) = binding.project(eb);
                    let u = exprs[p as usize];
                    Expr {
                        base: u.base,
                        c: u.c + ec + vc,
                        m: u.m + em + vm,
                    }
                }
                _ => {
                    let y = model.add_var(format!("y{v}"), f64::NEG_INFINITY, f64::INFINITY, 0.0);
                    col_status.push(VarStatus::Basic);
                    for &(p, eb) in low.preds {
                        let (ec, em) = binding.project(eb);
                        let u = exprs[p as usize];
                        // y ≥ base_u + (c_u + ec) + (m_u + em)·l
                        let mut terms = vec![(y, 1.0)];
                        if let Some(b) = u.base {
                            terms.push((b, -1.0));
                        }
                        let m = u.m + em;
                        if m != 0.0 {
                            terms.push((l, -m));
                        }
                        let rhs = u.c + ec;
                        model.add_constraint(format!("in{v}_{p}"), &terms, Relation::Ge, rhs);
                        rows.push(CrashRow {
                            target: y.0,
                            base: u.base.map_or(NO_BASE, |b| b.0),
                            c: rhs,
                            ml: m,
                            mg: 0.0,
                            mo: 0.0,
                        });
                    }
                    Expr {
                        base: Some(y),
                        c: vc,
                        m: vm,
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
                if ex.m != 0.0 {
                    terms.push((l, -ex.m));
                }
                model.add_constraint(format!("sink{v}"), &terms, Relation::Ge, ex.c);
                rows.push(CrashRow {
                    target: t.0,
                    base: ex.base.map_or(NO_BASE, |b| b.0),
                    c: ex.c,
                    ml: ex.m,
                    mg: 0.0,
                    mo: 0.0,
                });
                has_sink = true;
            }
        });

        // `t` is basic on its defining sink row (a sink always exists in a
        // nonempty DAG; stay free-at-zero otherwise).
        if has_sink {
            col_status[t.0 as usize] = VarStatus::Basic;
        }
        let plan = CrashPlan { col_status, rows };

        let lp = Self {
            model,
            l,
            t,
            solver: SparseSimplex::default(),
            plan,
        };
        if llamp_obs::is_enabled() {
            span.field_str("shape", "single");
            span.field_u64("rows", lp.model.num_constraints() as u64);
            span.field_u64("cols", lp.model.num_vars() as u64);
        }
        lp
    }

    /// The underlying model (for statistics or custom solves).
    pub fn model(&self) -> &LpModel {
        &self.model
    }

    /// Drop the warm state accumulated from previous queries: the next
    /// query seeds the crash basis at its own latency point, exactly as a
    /// freshly built `GraphLp` would.
    pub fn reset(&mut self) {
        self.solver.reset();
    }

    /// Instantiate the crash basis at a latency point (exposed for
    /// conformance tests and benchmarks; queries do this internally).
    pub fn crash_basis(&self, l_value: f64) -> Basis {
        self.plan.basis_at(l_value, 0.0, 0.0)
    }

    /// Compute the crash at `l_value`, seed it if the solver holds no
    /// warm state (fresh build or after [`GraphLp::reset`]), and
    /// hand it back for the robust-resolve fallback ladder.
    fn arm_crash(&mut self, l_value: f64) -> Basis {
        let crash = self.crash_basis(l_value);
        if self.solver.warm_basis().is_none() {
            self.solver.seed(&crash);
        }
        crash
    }

    /// Cumulative solver-effort counters across every query this instance
    /// has answered (see [`SolveStats`]).
    pub fn solver_stats(&self) -> SolveStats {
        self.solver.stats()
    }

    /// Latency decision variable.
    pub fn l_var(&self) -> VarId {
        self.l
    }

    /// Makespan decision variable.
    pub fn t_var(&self) -> VarId {
        self.t
    }

    /// Solve `min t` with `l ≥ l_value` and report runtime and `λ_L`.
    pub fn predict(&mut self, l_value: f64) -> Result<Prediction, SolveError> {
        let sol = self.solve_raw(l_value)?;
        Ok(self.prediction(&sol))
    }

    /// [`GraphLp::predict`] plus the range of feasibility of the latency
    /// lower bound: within `[l_low, l_high]` the optimal basis — and
    /// hence the critical path and `λ_L` — stay unchanged
    /// (`SALBLow`/`SALBUp`). The window costs one more FTRAN, so only the
    /// callers that read it (Algorithm 2) pay for it.
    pub fn predict_with_window(
        &mut self,
        l_value: f64,
    ) -> Result<(Prediction, (f64, f64)), SolveError> {
        let sol = self.solve_raw(l_value)?;
        Ok((self.prediction(&sol), sol.lb_range(self.l)))
    }

    fn prediction(&self, sol: &Solution) -> Prediction {
        Prediction {
            runtime: sol.objective(),
            lambda: sol.reduced_cost(self.l),
            iterations: sol.iterations(),
        }
    }

    /// Solve `min t` and hand back the raw solution (for tight-constraint /
    /// critical-path inspection).
    pub fn solve_raw(&mut self, l_value: f64) -> Result<Solution, SolveError> {
        self.model.set_var_lb(self.l, l_value);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        let crash = self.arm_crash(l_value);
        resolve_robust(&mut self.solver, &self.model, Some(&crash))
    }

    /// Latency tolerance (§II-D2): the largest `l ≥ l_floor` with
    /// `T(l) ≤ max_runtime`, searched up to the finite window top `l_top`.
    /// Returns `f64::INFINITY` when the runtime at `l_top` stays within
    /// the cap, `Err(SolveError::Infeasible)` when even `l_floor` exceeds
    /// it, and `Err(SolveError::IterationLimit)` when the walk needs more
    /// than [`ZONE_STEP_LIMIT`] steps.
    ///
    /// The paper flips the objective to `max l` s.t. `t ≤ max_runtime`.
    /// Solved warm from an optimum at the floor, that LP pivots through
    /// every basis between the floor and the answer — thousands at 10⁵
    /// rows. Instead, a Newton walk on `T(l) = max_runtime` over
    /// crash-started [`GraphLp::predict`] solves finds the answer's
    /// linear piece in a few zero-pivot steps, and the tolerance LP is
    /// solved once, from that step's crash basis with `l` made basic in
    /// place of `t`. The answer is a pure function of (model, floor,
    /// top, cap); the solver is left reset. This entry point solves the
    /// floor itself; a caller that already holds it uses
    /// [`GraphLp::tolerance_from`].
    pub fn tolerance(
        &mut self,
        l_floor: f64,
        l_top: f64,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        self.reset();
        let floor = self.predict(l_floor)?;
        self.tolerance_from(l_floor, (floor.runtime, floor.lambda), l_top, max_runtime)
    }

    /// [`GraphLp::tolerance`] walking from a floor the caller already
    /// holds: `at_floor` is the crash-started `(runtime, λ)` of
    /// [`GraphLp::predict`] at `l_floor` — a scenario's baseline — so the
    /// walk solves only the points right of it. The same floor gives the
    /// same bits as [`GraphLp::tolerance`].
    pub fn tolerance_from(
        &mut self,
        l_floor: f64,
        at_floor: (f64, f64),
        l_top: f64,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        self.tolerance_within(l_floor, at_floor, l_top, max_runtime, ZONE_STEP_LIMIT)
    }

    /// [`GraphLp::tolerance_from`] under an explicit step ceiling.
    fn tolerance_within(
        &mut self,
        l_floor: f64,
        at_floor: (f64, f64),
        l_top: f64,
        max_runtime: f64,
        limit: u32,
    ) -> Result<f64, SolveError> {
        let end = zone::walk(
            l_floor,
            at_floor,
            l_top,
            max_runtime,
            limit,
            "lp.zone_steps",
            |l| {
                self.solver.reset();
                let p = self.predict(l)?;
                Ok((p.runtime, p.lambda))
            },
        )?;
        let WalkEnd::Root { at, lambda } = end else {
            return Ok(f64::INFINITY);
        };
        let start = if lambda > 0.0 {
            self.plan
                .tolerance_basis_at(at, 0.0, 0.0, self.l.0, self.t.0)
        } else {
            self.crash_basis(at)
        };
        self.model.set_var_lb(self.l, l_floor);
        zone::certify(
            &mut self.model,
            &mut self.solver,
            self.l,
            self.t,
            max_runtime,
            l_top,
            &start,
        )
    }

    /// Algorithm 2: critical latencies within `[l_min, l_max]`, walking
    /// basis-stability ranges from the top of the interval downward. `step`
    /// caps the per-iteration progress (resolution), `eps` nudges the bound
    /// strictly past a discovered breakpoint. A search needing more than
    /// [`CRITICAL_STEP_LIMIT`] steps returns
    /// `Err(SolveError::IterationLimit)`.
    pub fn critical_latencies(
        &mut self,
        l_min: f64,
        l_max: f64,
        step: f64,
        eps: f64,
    ) -> Result<Vec<f64>, SolveError> {
        self.critical_latencies_within(l_min, l_max, step, eps, CRITICAL_STEP_LIMIT)
    }

    /// [`GraphLp::critical_latencies`] under an explicit step ceiling.
    fn critical_latencies_within(
        &mut self,
        l_min: f64,
        l_max: f64,
        step: f64,
        eps: f64,
        limit: u32,
    ) -> Result<Vec<f64>, SolveError> {
        assert!(l_min <= l_max && step > 0.0 && eps > 0.0);
        let mut lcs: Vec<f64> = Vec::new();
        let mut l = l_max;
        let mut lambda: Option<f64> = None;
        for steps in 1.. {
            if steps > limit {
                return Err(SolveError::IterationLimit);
            }
            let (pred, window) = self.predict_with_window(l)?;
            let l_fl = window.0;
            match lambda {
                Some(prev) if (pred.lambda - prev).abs() <= 1e-9 => {}
                _ => {
                    // λ changed (or first solve): the low end of the new
                    // basis-stability region is a critical latency.
                    if l_fl.is_finite() && l_fl >= l_min && l_fl <= l_max {
                        lcs.push(l_fl);
                    }
                    lambda = Some(pred.lambda);
                }
            }
            if l_fl < l_min || l_fl == f64::NEG_INFINITY {
                break;
            }
            let next = (l - step).min(l_fl - eps);
            if next < l_min {
                break;
            }
            l = next;
        }
        lcs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        lcs.dedup_by(|a, b| (*a - *b).abs() < eps);
        Ok(lcs)
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
    fn fig5_predict_at_half_microsecond() {
        // Fig. 5: l ≥ 0.5 µs ⇒ t = 1.615 µs, λ_L = 1, basis stable down to
        // the critical latency 0.385 µs.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let (p, window) = lp.predict_with_window(500.0).unwrap();
        assert!((p.runtime - 1_615.0).abs() < 1e-6, "{}", p.runtime);
        assert!((p.lambda - 1.0).abs() < 1e-9);
        assert!((window.0 - 385.0).abs() < 1e-6, "{window:?}");
    }

    #[test]
    fn below_critical_latency_lambda_zero() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let p = lp.predict(200.0).unwrap();
        assert!((p.runtime - 1_500.0).abs() < 1e-6);
        assert!(p.lambda.abs() < 1e-9);
    }

    /// Search window top for the running example's tolerance queries.
    const TOP: f64 = 10_000.0;

    #[test]
    fn fig6_tolerance() {
        // Fig. 6: max l s.t. t ≤ 2 µs ⇒ 0.885 µs. λ = 0 at the floor, so
        // the walk jumps to the window top and descends onto the root.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let tol = lp.tolerance(0.0, TOP, 2_000.0).unwrap();
        assert!((tol - 885.0).abs() < 1e-6, "{tol}");
    }

    #[test]
    fn tolerance_matches_the_flipped_lp_solved_cold() {
        // The walk only picks the start: its answer is the tolerance LP's
        // optimum, bit for bit, from any floor.
        let g = running_example(0.1).contracted();
        for floor in [0.0, 200.0, 385.0, 600.0] {
            let mut lp = GraphLp::build(&g, &didactic());
            let walked = lp.tolerance(floor, TOP, 2_000.0).unwrap();
            let mut m = lp.model().clone();
            m.set_var_lb(lp.l_var(), floor);
            m.set_var_ub(lp.t_var(), 2_000.0);
            m.set_sense(Objective::Maximize);
            m.set_objective(&[(lp.l_var(), 1.0)]);
            let cold = SparseSimplex::default().solve(&m).unwrap();
            assert_eq!(
                walked.to_bits(),
                cold.value(lp.l_var()).to_bits(),
                "floor {floor}"
            );
        }
    }

    #[test]
    fn cap_held_at_the_window_top_is_infinite() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        // λ = 0 on [0, 385): a window that ends there never leaves the
        // baseline, and T(800) = 1.915 µs still fits a 2 µs cap.
        assert_eq!(lp.tolerance(0.0, 300.0, 1_600.0), Ok(f64::INFINITY));
        assert_eq!(lp.tolerance(500.0, 800.0, 2_000.0), Ok(f64::INFINITY));
    }

    #[test]
    fn tolerance_restores_prediction_state() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let before = lp.predict(500.0).unwrap();
        let _ = lp.tolerance(0.0, TOP, 2_000.0).unwrap();
        let after = lp.predict(500.0).unwrap();
        assert!((before.runtime - after.runtime).abs() < 1e-9);
        assert!((before.lambda - after.lambda).abs() < 1e-9);
    }

    #[test]
    fn infeasible_tolerance_reported() {
        // Cap below the zero-latency runtime 1.5 µs: typed, and answered
        // by the floor prediction alone — no tolerance LP runs.
        let g = running_example(0.1).contracted();
        let mut lp = GraphLp::build(&g, &didactic());
        assert_eq!(lp.tolerance(0.0, TOP, 1_000.0), Err(SolveError::Infeasible));
        let mut floor_only = GraphLp::build(&g, &didactic());
        floor_only.predict(0.0).unwrap();
        assert_eq!(lp.solver_stats(), floor_only.solver_stats());
    }

    #[test]
    fn a_held_baseline_is_the_floor_solve() {
        // Walking from a baseline the caller already solved gives the
        // bits of the self-contained walk, and baseline plus walk cost
        // exactly what the walk alone does: the floor is solved once.
        let g = running_example(0.1).contracted();
        let mut own = GraphLp::build(&g, &didactic());
        let walked = own.tolerance(0.0, TOP, 2_000.0).unwrap();
        let mut lp = GraphLp::build(&g, &didactic());
        let base = lp.predict(0.0).unwrap();
        let from = lp
            .tolerance_from(0.0, (base.runtime, base.lambda), TOP, 2_000.0)
            .unwrap();
        assert_eq!(walked.to_bits(), from.to_bits());
        assert_eq!(own.solver_stats(), lp.solver_stats());
    }

    #[test]
    fn walk_past_its_step_ceiling_is_an_iteration_limit() {
        // The fig. 6 walk takes two steps past the floor (top, root).
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let base = lp.predict(0.0).unwrap();
        let floor = (base.runtime, base.lambda);
        assert_eq!(
            lp.tolerance_within(0.0, floor, TOP, 2_000.0, 1),
            Err(SolveError::IterationLimit)
        );
        assert!(lp.tolerance_within(0.0, floor, TOP, 2_000.0, 2).is_ok());
    }

    #[test]
    fn fig16_critical_latency_search() {
        // Algorithm 2 on the running example over [0.2, 0.5] µs finds the
        // single critical latency 0.385 µs.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let lcs = lp.critical_latencies(200.0, 500.0, 100.0, 0.01).unwrap();
        assert_eq!(lcs.len(), 1, "{lcs:?}");
        assert!((lcs[0] - 385.0).abs() < 1e-6);
    }

    #[test]
    fn critical_latency_search_past_its_step_ceiling_is_an_iteration_limit() {
        // Each step leaves the current stability window, so even a 1 ps
        // resolution finds 385 ns in two steps (500 ns, then 385 − ε)...
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let lcs = lp.critical_latencies(200.0, 500.0, 1e-3, 1e-4).unwrap();
        assert_eq!(lcs.len(), 1, "{lcs:?}");
        assert!((lcs[0] - 385.0).abs() < 1e-6);
        // ...and a ceiling below that is a typed failure, not a hang.
        assert_eq!(
            lp.critical_latencies_within(200.0, 500.0, 1e-3, 1e-4, 1),
            Err(SolveError::IterationLimit)
        );
        assert!(lp
            .critical_latencies_within(200.0, 500.0, 1e-3, 1e-4, 2)
            .is_ok());
    }

    #[test]
    fn warm_sweep_matches_cold_solves_bitwise() {
        // A descending latency sweep chained warm through one instance
        // must report exactly what independent fresh (crash-started)
        // instances do on this nondegenerate example.
        let g = running_example(0.1).contracted();
        let mut warm = GraphLp::build(&g, &didactic());
        for i in (0..=20).rev() {
            let l = 50.0 * i as f64;
            let p = warm.predict(l).unwrap();
            let mut cold = GraphLp::build(&g, &didactic());
            let q = cold.predict(l).unwrap();
            assert_eq!(p.runtime.to_bits(), q.runtime.to_bits(), "L={l}");
            assert_eq!(p.lambda.to_bits(), q.lambda.to_bits(), "L={l}");
        }
    }

    #[test]
    fn lp_agrees_with_graph_evaluation() {
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(3.0) * (rank + 1) as f64);
            b.allreduce(512);
            b.comp(us(1.0));
            b.barrier();
            if rank == 0 {
                b.send(3, 2048, 9);
            } else if rank == 3 {
                b.recv(0, 2048, 9);
            }
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build(&g, &binding);
        for l in [0.0, us(1.0), us(10.0), us(100.0)] {
            let p = lp.predict(l).unwrap();
            let e = crate::eval::evaluate(&g, &binding, l);
            assert!(
                (p.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "L={l}: lp {} vs eval {}",
                p.runtime,
                e.runtime
            );
            assert!(
                (p.lambda - e.lambda).abs() < 1e-6,
                "L={l}: λ lp {} vs eval {}",
                p.lambda,
                e.lambda
            );
        }
    }

    #[test]
    fn rendezvous_lp_matches_eval() {
        let bytes = 300 * 1024u64;
        let set = ProgramSet::spmd(2, |rank, b| {
            if rank == 0 {
                b.comp(us(2.0));
                b.send(1, bytes, 0);
            } else {
                b.recv(0, bytes, 0);
                b.comp(us(1.0));
            }
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(2).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build(&g, &binding);
        for l in [0.0, us(5.0), us(50.0)] {
            let p = lp.predict(l).unwrap();
            let e = crate::eval::evaluate(&g, &binding, l);
            assert!(
                (p.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "L={l}: {} vs {}",
                p.runtime,
                e.runtime
            );
            // Rendezvous: 4 latency traversals on the critical path (REQ +
            // 3 in the completion edge).
            assert!((p.lambda - e.lambda).abs() < 1e-6);
        }
    }
}
