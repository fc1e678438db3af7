//! Execution graph → linear program (Algorithm 1) and the LP-powered
//! analyses: runtime prediction, sensitivities via reduced costs,
//! tolerance (§II-D2: the flipped objective's optimum, found by a Newton
//! walk over crash-started predictions instead of solving that LP), and
//! the critical-latency search of Algorithm 2.
//!
//! The construction follows the paper exactly: traversing the graph in
//! topological order, a vertex with one predecessor extends its
//! predecessor's affine expression, while a vertex with several
//! predecessors introduces a decision variable `y_v` and one `≥` constraint
//! per incoming edge. The network latency appears as the decision variable
//! `l`; queries pin it with a lower bound (`l ≥ L`) — never an equality —
//! which is what makes the reduced cost of `l` equal `∂T/∂L ≥ 0`.
//!
//! Which LogGPS parameters stay symbolic is a per-parameter choice, as in
//! upstream LLAMP's converter (`G` is a variable or a constant). An LP
//! keeps one *parameter column* per symbolic parameter:
//! [`GraphLp::build`] keeps the binding's analysis variable alone and
//! bakes the others into row constants through [`Binding::project`];
//! [`GraphLp::build_axes`] keeps `L`, `G` and `o`, so `λ_L`, `λ_G` and
//! `λ_o` all fall out of the same dual solution and each parameter gets
//! its own basis-stability window. Every column is pinned by a lower
//! bound, and the crash, predictions and the zone walk read the columns —
//! they exist once for both shapes.

use crate::binding::{Binding, MultiBound, SweepParam};
use crate::crash::{CrashPlan, CrashRow, NO_BASE};
use crate::lowering::lower_walk;
use crate::zone::{self, ZONE_STEP_LIMIT};
use llamp_lp::{
    resolve_robust, LpModel, Objective, Relation, Solution, SolveError, SolveStats, VarId,
};
use llamp_schedgen::ExecGraph;

/// A query point in the three-parameter space. An LP reads the
/// coordinates of its parameter columns; a parameter it bakes into its
/// constants keeps the binding's value whatever the point says.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// Affine running expression `base + c + m·(L, G, o)` for a vertex's
/// completion time while building the LP (Algorithm 1's `Tv`). A
/// parameter without a column keeps a zero coefficient: its cost is in
/// `c`.
#[derive(Debug, Clone, Copy)]
struct Expr {
    base: Option<VarId>,
    c: f64,
    m: [f64; 3],
}

/// The LP form of an execution graph under a binding. Every query solves
/// from the longest-path crash basis at its own point, so an answer is a
/// pure function of (model, query), whatever the instance answered
/// before.
#[derive(Debug)]
pub struct GraphLp {
    model: LpModel,
    /// The parameter columns, in `L < G < o` order: the binding's
    /// analysis variable alone ([`GraphLp::build`]) or all three
    /// ([`GraphLp::build_axes`]).
    cols: Vec<(SweepParam, VarId)>,
    t: VarId,
    /// Solver effort summed over every query this instance answered.
    stats: SolveStats,
    /// Crash *plan* (see [`GraphLp::build`]): the per-row longest-path
    /// recursion records, instantiated into a concrete crash [`Basis`] at
    /// each query's point.
    plan: CrashPlan,
}

/// Step ceiling of Algorithm 2 ([`GraphLp::critical_latencies`]): a
/// search that needs more `predict` steps than this fails with a typed
/// [`SolveError::IterationLimit`] instead of running unbounded. Every
/// step descends by at least the caller's resolution `step`, so the
/// ceiling binds only when `(l_max − l_min) / step` exceeds it.
pub const CRITICAL_STEP_LIMIT: u32 = 1024;

/// What a single `predict` solve reports on the LP's first parameter
/// column (the quantities LLAMP reads from the solver).
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Predicted runtime `T` (ns).
    pub runtime: f64,
    /// Sensitivity of the first column: `λ_L` (the reduced cost of `l`),
    /// or the analysis variable's under a `G` or `o` binding.
    pub lambda: f64,
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

/// The answer at a [`ParamPoint`]: the runtime plus the sensitivity of
/// every parameter. An LP solve ([`GraphLp::predict_at`]) reads them
/// off one dual solution, as reduced costs of its parameter columns; a
/// parameter the LP bakes into its constants has no column and reports
/// zero. (The per-parameter basis-stability ranges are one
/// `Solution::lb_range` away, through [`GraphLp::solve_raw`].) Direct
/// evaluation ([`crate::eval::evaluate_multi`]) reads them off the
/// critical path: the summed `L`, `G` and `o` coefficients along it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiPrediction {
    /// Predicted runtime `T` (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L = ∂T/∂L`.
    pub lambda_l: f64,
    /// Bandwidth sensitivity `λ_G = ∂T/∂G`.
    pub lambda_g: f64,
    /// Overhead sensitivity `λ_o = ∂T/∂o`.
    pub lambda_o: f64,
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
}

impl GraphLp {
    /// Algorithm 1: build the LP for `graph` under `binding` with one
    /// parameter column, the binding's analysis variable, starting at
    /// bound `≥ 0`; the other parameters are baked into row constants.
    ///
    /// Alongside the model this records a `CrashPlan`: one record per
    /// row of the longest-path recursion the LP encodes. Each query
    /// instantiates the plan *at its point* — running the exact
    /// forward DAG longest-path pass, so every merge variable `y_v` (and the makespan
    /// `t`) is made basic on the row that defines its max at that point
    /// while all other rows keep their logical basic. By the graph's
    /// topological order that submatrix is unit lower triangular —
    /// trivially nonsingular, and factored by substitution alone — and
    /// evaluated at the query point the basis is primal feasible *and*
    /// dual feasible, i.e. optimal up to degeneracy: a cold solve seeded
    /// from it needs no pivots at all, only that factorisation and one
    /// pricing pass.
    pub fn build(graph: &ExecGraph, binding: &Binding) -> Self {
        Self::lower(graph, binding, &[binding.variable.param()])
    }

    /// Algorithm 1 with `L`, `G` and `o` all symbolic: one column per
    /// parameter, each edge constraint carrying its full coefficient
    /// vector from [`Binding::bind_multi`], and the crash plan keeping
    /// all three multipliers per row.
    pub fn build_axes(graph: &ExecGraph, binding: &Binding) -> Self {
        Self::lower(graph, binding, &SweepParam::ALL)
    }

    /// The one lowering: Algorithm 1 with a column for each of `params`
    /// (canonical order).
    ///
    /// It visits each vertex and each in-edge once and allocates per
    /// model, not per row: merge variables and rows carry no names (no
    /// engine path reads one; the model's text form prints them as
    /// `x{index}`), every row's terms are assembled in one reused buffer,
    /// and the model appends them to its flat row arrays.
    fn lower(graph: &ExecGraph, binding: &Binding, params: &[SweepParam]) -> Self {
        use llamp_lp::solution::VarStatus;

        let span = llamp_obs::span("lp.lower");
        let mut model = LpModel::new(Objective::Minimize);
        let cols: Vec<(SweepParam, VarId)> = params
            .iter()
            .map(|&p| {
                let name = p.name().to_ascii_lowercase();
                (p, model.add_var(name, 0.0, f64::INFINITY, 0.0))
            })
            .collect();
        let t = model.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        // Crash-plan skeleton, filled in as variables and rows appear.
        let mut col_status = vec![VarStatus::AtLower; cols.len()];
        col_status.push(VarStatus::FreeZero);
        let mut rows: Vec<CrashRow> = Vec::new();
        let mut has_sink = false;

        // A bound cost as `(constant, per-parameter coefficients)`. With
        // one column the other two parameters are baked into the
        // constant; with three, nothing is.
        let split = |mb: MultiBound| -> (f64, [f64; 3]) {
            if let [(p, _)] = cols[..] {
                let (c, m) = binding.project(mb);
                let mut ms = [0.0; 3];
                ms[p as usize] = m;
                (c, ms)
            } else {
                (mb.constant, [mb.l, mb.g, mb.o])
            }
        };
        // Fill a constraint's term list: the bounded variable, the
        // expression's base, then its column coefficients (negated:
        // y − base − m·(l, g, o) ≥ c).
        let fill_terms =
            |terms: &mut Vec<(VarId, f64)>, y: VarId, base: Option<VarId>, m: [f64; 3]| {
                terms.clear();
                terms.push((y, 1.0));
                if let Some(b) = base {
                    terms.push((b, -1.0));
                }
                for &(p, var) in &cols {
                    let x = m[p as usize];
                    if x != 0.0 {
                        terms.push((var, -x));
                    }
                }
            };
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let sum = |a: [f64; 3], b: [f64; 3]| [a[0] + b[0], a[1] + b[1], a[2] + b[2]];

        let n = graph.num_vertices();
        let mut exprs: Vec<Expr> = vec![
            Expr {
                base: None,
                c: 0.0,
                m: [0.0; 3],
            };
            n
        ];

        lower_walk(graph, binding, |low| {
            let v = low.id;
            let (vc, vm) = split(low.cost);
            let e = match low.preds.len() {
                0 => Expr {
                    base: None,
                    c: vc,
                    m: vm,
                },
                1 => {
                    let (p, eb) = low.preds[0];
                    let (ec, em) = split(eb);
                    let u = exprs[p as usize];
                    Expr {
                        base: u.base,
                        c: u.c + ec + vc,
                        m: sum(sum(u.m, em), vm),
                    }
                }
                _ => {
                    let y = model.add_var("", f64::NEG_INFINITY, f64::INFINITY, 0.0);
                    col_status.push(VarStatus::Basic);
                    for &(p, eb) in low.preds {
                        let (ec, em) = split(eb);
                        let u = exprs[p as usize];
                        // y ≥ base_u + (c_u + ec) + (m_u + em)·(l, g, o)
                        let m = sum(u.m, em);
                        fill_terms(&mut terms, y, u.base, m);
                        let rhs = u.c + ec;
                        model.add_constraint("", &terms, Relation::Ge, rhs);
                        rows.push(CrashRow {
                            target: y.0,
                            base: u.base.map_or(NO_BASE, |b| b.0),
                            c: rhs,
                            ml: m[0],
                            mg: m[1],
                            mo: m[2],
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
                fill_terms(&mut terms, t, ex.base, ex.m);
                model.add_constraint("", &terms, Relation::Ge, ex.c);
                rows.push(CrashRow {
                    target: t.0,
                    base: ex.base.map_or(NO_BASE, |b| b.0),
                    c: ex.c,
                    ml: ex.m[0],
                    mg: ex.m[1],
                    mo: ex.m[2],
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
            cols,
            t,
            stats: SolveStats::default(),
            plan,
        };
        if llamp_obs::is_enabled() {
            let shape = if lp.cols.len() == 1 {
                "single"
            } else {
                "multi"
            };
            span.field_str("shape", shape);
            span.field_u64("rows", lp.model.num_constraints() as u64);
            span.field_u64("cols", lp.model.num_vars() as u64);
        }
        lp
    }

    /// The underlying model (for statistics or custom solves).
    pub fn model(&self) -> &LpModel {
        &self.model
    }

    /// Cumulative solver-effort counters across every query this instance
    /// has answered (see [`SolveStats`]).
    pub fn solver_stats(&self) -> SolveStats {
        self.stats
    }

    /// The column of one sweep parameter. Panics when the LP bakes `p`
    /// into its constants.
    pub fn param_var(&self, p: SweepParam) -> VarId {
        self.column(p)
            .unwrap_or_else(|| panic!("this LP has no {p} column"))
    }

    fn column(&self, p: SweepParam) -> Option<VarId> {
        self.cols.iter().find(|c| c.0 == p).map(|c| c.1)
    }

    /// Makespan decision variable.
    pub fn t_var(&self) -> VarId {
        self.t
    }

    /// The point with the first column at `x` and every other coordinate
    /// zero: what the scalar queries ask.
    fn point(&self, x: f64) -> ParamPoint {
        ParamPoint::default().with(self.cols[0].0, x)
    }

    /// Solve `min t` with every column pinned at `at`'s coordinate by its
    /// lower bound — by certifying the crash basis at `at`, which never
    /// pivots — and hand back the raw solution (tight-constraint /
    /// critical-path inspection, stability windows). A crash basis that
    /// fails to certify is a bug, reported as
    /// [`SolveError::Uncertified`].
    pub fn solve_raw(&mut self, at: ParamPoint) -> Result<Solution, SolveError> {
        for &(p, var) in &self.cols {
            self.model.set_var_lb(var, at.get(p));
        }
        // Baked parameters have zero multipliers, so their coordinates
        // never matter.
        let crash = self.plan.basis_at(at.l, at.g, at.o);
        resolve_robust(&self.model, &crash).inspect(|sol| self.stats.merge(sol.stats()))
    }

    /// Solve with the first column at `x` and report runtime and its `λ`.
    pub fn predict(&mut self, x: f64) -> Result<Prediction, SolveError> {
        let sol = self.solve_raw(self.point(x))?;
        Ok(self.prediction(&sol))
    }

    /// [`GraphLp::predict`] plus the range of feasibility of the first
    /// column's lower bound: within `[low, high]` the optimal basis —
    /// and hence the critical path and `λ` — stay unchanged
    /// (`SALBLow`/`SALBUp`). The window costs one more FTRAN, so only the
    /// callers that read it (Algorithm 2) pay for it.
    pub fn predict_with_window(&mut self, x: f64) -> Result<(Prediction, (f64, f64)), SolveError> {
        let sol = self.solve_raw(self.point(x))?;
        Ok((self.prediction(&sol), sol.lb_range(self.cols[0].1)))
    }

    fn prediction(&self, sol: &Solution) -> Prediction {
        Prediction {
            runtime: sol.objective(),
            lambda: sol.reduced_cost(self.cols[0].1),
        }
    }

    /// Solve at `at` and report the runtime and every parameter's
    /// sensitivity — all from one dual solution.
    pub fn predict_at(&mut self, at: ParamPoint) -> Result<MultiPrediction, SolveError> {
        let sol = self.solve_raw(at)?;
        let lambda = |p| self.column(p).map_or(0.0, |var| sol.reduced_cost(var));
        Ok(MultiPrediction {
            runtime: sol.objective(),
            lambda_l: lambda(SweepParam::L),
            lambda_g: lambda(SweepParam::G),
            lambda_o: lambda(SweepParam::O),
        })
    }

    /// Tolerance (§II-D2) along the first column: the largest
    /// `x ≥ floor` with `T(x) ≤ max_runtime`, searched up to the finite
    /// window top `top`. Returns `f64::INFINITY` when the runtime at
    /// `top` stays within the cap, `Err(SolveError::Infeasible)` when
    /// even `floor` exceeds it, and `Err(SolveError::IterationLimit)`
    /// when the walk needs more than [`ZONE_STEP_LIMIT`] steps.
    ///
    /// The paper flips the objective to `max l` s.t. `t ≤ max_runtime`.
    /// That LP's optimum is the root of `T(x) = max_runtime`, so it is
    /// answered without solving it: a Newton walk over crash-started
    /// predictions lands on the root in a few zero-pivot steps — the walk
    /// [`crate::Analyzer::eval_tolerance`] runs over direct evaluations.
    /// The answer is the walk's last point, the root up to `T`'s
    /// rounding, and a pure function of (model, floor, top, cap). This
    /// entry point solves the floor itself; a caller that already holds
    /// it uses [`GraphLp::tolerance_from`].
    pub fn tolerance(&mut self, floor: f64, top: f64, max_runtime: f64) -> Result<f64, SolveError> {
        let at_floor = self.predict(floor)?;
        self.tolerance_from(floor, (at_floor.runtime, at_floor.lambda), top, max_runtime)
    }

    /// [`GraphLp::tolerance`] walking from a floor the caller already
    /// holds: `at_floor` is the crash-started `(runtime, λ)` of
    /// [`GraphLp::predict`] at `floor` — a scenario's baseline — so the
    /// walk solves only the points right of it. The same floor gives the
    /// same bits as [`GraphLp::tolerance`].
    pub fn tolerance_from(
        &mut self,
        floor: f64,
        at_floor: (f64, f64),
        top: f64,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        let (p, at) = (self.cols[0].0, self.point(floor));
        self.tolerance_along(p, at, at_floor, top, max_runtime)
    }

    /// Tolerance along any column `p`: the largest `x ≥ at.get(p)` with
    /// `T ≤ max_runtime`, the other columns pinned at `at`, walking from
    /// `at_floor`, the crash-started `(runtime, λ_p)` at `at`. Same walk
    /// and outcomes as [`GraphLp::tolerance`].
    pub fn tolerance_along(
        &mut self,
        p: SweepParam,
        at: ParamPoint,
        at_floor: (f64, f64),
        top: f64,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        self.tolerance_within(p, at, at_floor, top, max_runtime, ZONE_STEP_LIMIT)
    }

    /// [`GraphLp::tolerance_along`] under an explicit step ceiling.
    fn tolerance_within(
        &mut self,
        p: SweepParam,
        at: ParamPoint,
        at_floor: (f64, f64),
        top: f64,
        max_runtime: f64,
        limit: u32,
    ) -> Result<f64, SolveError> {
        let var = self.param_var(p);
        zone::walk(
            at.get(p),
            at_floor,
            top,
            max_runtime,
            limit,
            "lp.zone_steps",
            |x| {
                let sol = self.solve_raw(at.with(p, x))?;
                Ok((sol.objective(), sol.reduced_cost(var)))
            },
        )
    }

    /// Algorithm 2: critical latencies within `[l_min, l_max]`, walking
    /// basis-stability ranges of the first column from the top of the
    /// interval downward. `step` caps the per-iteration progress
    /// (resolution), `eps` nudges the bound strictly past a discovered
    /// breakpoint. A search needing more than [`CRITICAL_STEP_LIMIT`]
    /// steps returns `Err(SolveError::IterationLimit)`.
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
        // λ and the window's low end of the previous solve.
        let mut prev: Option<(f64, f64)> = None;
        for steps in 1.. {
            if steps > limit {
                return Err(SolveError::IterationLimit);
            }
            let (pred, window) = self.predict_with_window(l)?;
            let l_fl = window.0;
            // Below the previous solve's window its basis is no longer
            // optimal; if λ changed there, the slope of T breaks at that
            // window's low end: a critical latency.
            if let Some((lambda, fl)) = prev {
                let changed = (pred.lambda - lambda).abs() > 1e-9;
                if changed && fl.is_finite() && fl >= l_min && fl <= l_max {
                    lcs.push(fl);
                }
            }
            prev = Some((pred.lambda, l_fl));
            if l_fl < l_min || l_fl == f64::NEG_INFINITY {
                break;
            }
            let next = (l - step).min(l_fl - eps);
            if next < l_min {
                break;
            }
            l = next;
        }
        lcs.sort_by(f64::total_cmp);
        lcs.dedup_by(|a, b| (*a - *b).abs() < eps);
        Ok(lcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use crate::eval::evaluate_multi;
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
        // The walk answers the tolerance LP without solving it: here,
        // where every breakpoint is exact, its root is that LP's optimum
        // bit for bit, from any floor.
        let g = running_example(0.1).contracted();
        for floor in [0.0, 200.0, 385.0, 600.0] {
            let mut lp = GraphLp::build(&g, &didactic());
            let walked = lp.tolerance(floor, TOP, 2_000.0).unwrap();
            let mut m = lp.model().clone();
            let l = lp.param_var(SweepParam::L);
            m.set_var_lb(l, floor);
            m.set_var_ub(lp.t_var(), 2_000.0);
            m.set_sense(Objective::Maximize);
            m.set_objective(&[(l, 1.0)]);
            let cold = m.solve().unwrap();
            assert_eq!(walked.to_bits(), cold.value(l).to_bits(), "floor {floor}");
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
        let at = ParamPoint::default();
        assert_eq!(
            lp.tolerance_within(SweepParam::L, at, floor, TOP, 2_000.0, 1),
            Err(SolveError::IterationLimit)
        );
        assert!(lp
            .tolerance_within(SweepParam::L, at, floor, TOP, 2_000.0, 2)
            .is_ok());
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
    fn chained_queries_match_fresh_instances_bitwise() {
        // A descending latency sweep through one instance, with a
        // tolerance query between points, must report exactly what
        // independent fresh instances do: no query leaves state behind.
        let g = running_example(0.1).contracted();
        let mut chained = GraphLp::build(&g, &didactic());
        for i in (0..=20).rev() {
            let l = 50.0 * i as f64;
            chained.tolerance(l, TOP, 2_500.0).unwrap();
            let p = chained.predict(l).unwrap();
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

    fn didactic_at() -> (Binding, ParamPoint) {
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

    /// A self-contained walk along `p` from `at`: the floor solve, then
    /// the walk from it.
    fn walk_from(
        lp: &mut GraphLp,
        p: SweepParam,
        at: ParamPoint,
        top: f64,
        cap: f64,
    ) -> Result<f64, SolveError> {
        let floor = lp.predict_at(at)?;
        lp.tolerance_along(p, at, (floor.runtime, floor.lambda(p)), top, cap)
    }

    #[test]
    fn matches_single_parameter_lp_at_base_point() {
        let g = running_example(0.1).contracted();
        let (binding, base) = didactic_at();
        let mut multi = GraphLp::build_axes(&g, &binding);
        let mut single = GraphLp::build(&g, &binding);
        for l in [0.0, 200.0, 385.0, 500.0, 2_000.0] {
            let a = multi.predict_at(base.with(SweepParam::L, l)).unwrap();
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
        let mut lp = GraphLp::build_axes(&g, &binding);
        for (l, gap, o) in [
            (0.0, 0.018, 1_000.0),
            (3_000.0, 0.018, 1_000.0),
            (50_000.0, 0.5, 2_000.0),
            (3_000.0, 2.0, 500.0),
        ] {
            let p = lp.predict_at(ParamPoint { l, g: gap, o }).unwrap();
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
        let g = running_example(0.1).contracted();
        let (binding, base) = didactic_at();
        let mut lp = GraphLp::build_axes(&g, &binding);
        let at = base.with(SweepParam::L, 500.0);
        let p0 = lp.predict_at(at).unwrap();
        let sol = lp.solve_raw(at).unwrap();
        for param in SweepParam::ALL {
            let (lo, hi) = sol.lb_range(lp.param_var(param));
            let x0 = at.get(param);
            // Step halfway to the window edge (bounded to stay finite).
            let step_up = if hi.is_finite() { (hi - x0) / 2.0 } else { 1.0 };
            if step_up > 0.0 {
                let p1 = lp.predict_at(at.with(param, x0 + step_up)).unwrap();
                let want = p0.runtime + p0.lambda(param) * step_up;
                assert!(
                    (p1.runtime - want).abs() < 1e-7 * (1.0 + want.abs()),
                    "{param}: {} vs {}",
                    p1.runtime,
                    want
                );
            }
            let _ = lo;
            let p_back = lp.predict_at(at).unwrap();
            assert!((p_back.runtime - p0.runtime).abs() < 1e-9);
        }
    }

    #[test]
    fn tolerance_along_each_parameter() {
        let g = running_example(0.1).contracted();
        let (binding, base) = didactic_at();
        let mut lp = GraphLp::build_axes(&g, &binding);
        let at = base.with(SweepParam::L, 0.0);
        // Fig. 6: max L s.t. T ≤ 2 µs is 0.885 µs (G, o at base).
        let tol_l = walk_from(&mut lp, SweepParam::L, at, 10_000.0, 2_000.0).unwrap();
        assert!((tol_l - 885.0).abs() < 1e-6, "{tol_l}");
        // The prediction shape is restored afterwards.
        let p = lp.predict_at(at).unwrap();
        assert!((p.runtime - 1_500.0).abs() < 1e-6);
        // G tolerance: a cap above the G-free runtime admits a positive
        // per-byte gap; the runtime at the tolerance hits the cap.
        let tol_g = walk_from(&mut lp, SweepParam::G, at, 1e6, 2_000.0).unwrap();
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
        let mut lp = GraphLp::build_axes(&g, &binding);
        let t0 = lp.predict_at(at).unwrap().runtime;
        for pct in [1.0, 2.0, 5.0] {
            let cap = t0 * (1.0 + pct / 100.0);
            let tol = walk_from(&mut lp, SweepParam::G, at, 1e3, cap).unwrap();
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
        let g = running_example(0.1).contracted();
        let (binding, base) = didactic_at();
        let mut lp = GraphLp::build_axes(&g, &binding);
        let at = base.with(SweepParam::L, 0.0);
        // A cap below T(floor) = 1.5 µs is infeasible along any axis.
        assert_eq!(
            walk_from(&mut lp, SweepParam::O, at, 1e6, 1_000.0),
            Err(SolveError::Infeasible)
        );
        // λ_L = 0 on [0, 385): the walk jumps to the window top, where
        // the runtime still fits the cap.
        assert_eq!(
            walk_from(&mut lp, SweepParam::L, at, 300.0, 1_600.0),
            Ok(f64::INFINITY)
        );
        // The fig. 6 walk takes two steps past the floor; one is not
        // enough.
        let base = lp.predict_at(at).unwrap();
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
