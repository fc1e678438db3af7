//! The two LP solves: the certificate every engine query runs, and the
//! bounded-variable primal simplex kept as the test and ablation oracle.
//!
//! Design notes (what a reader needs to audit the implementation):
//!
//! * **Computational form.** The model's `m` range rows `lb ≤ aᵀx ≤ ub` are
//!   rewritten as equalities `aᵀx − s = 0` with one *logical* (slack)
//!   variable `s ∈ [lb, ub]` per row, so the working system is
//!   `A_ext · (x, s) = 0` with box bounds on every column. The right-hand
//!   side being identically zero makes the initial all-logical basis
//!   (`B = −I`) trivially factorised. The constraint matrix itself is
//!   built once per model and shared by every solve of it.
//! * **The certificate ([`certify`]).** LLAMP starts every query from the
//!   longest-path crash basis at the query's point, which is optimal
//!   there up to degeneracy. `certify` installs that basis, factors it by
//!   substitution (it must peel into a permuted triangle), computes `x_B`,
//!   `y` and the reduced costs, and checks primal and dual feasibility
//!   within the solver's tolerances. A basis that does not fit the model,
//!   does not peel or is not optimal fails with
//!   [`SolveError::Uncertified`]: nothing pivots, so pivots and LU
//!   factorisations on the engine path are zero by construction.
//! * **The oracle ([`solve`]).** A pivoting simplex on a dense basis
//!   inverse (`O(m²)` memory, `O(m²)` per pivot), for tests and
//!   ablations on models up to a few thousand rows. It starts from a
//!   caller's [`Basis`] or, without one (or when the start does not fit
//!   the model or is singular), from the all-logical basis.
//! * **Phase 1 without artificials.** If the starting basis is primal
//!   infeasible we minimise the sum of bound violations of basic variables
//!   using the standard piecewise-linear phase-1 costs (−1 below the lower
//!   bound, +1 above the upper bound). Infeasible basic variables block the
//!   ratio test at the bound they are approaching, which monotonically
//!   shrinks total infeasibility.
//! * **Pricing.** The reduced-cost vector `d` is maintained
//!   *incrementally*: after each basis exchange it is updated from the
//!   pivot row (`d ← d − θ_d·α_r`, with `α_r` scattered from a sparse
//!   BTRAN of the pivot row), and in phase 1 the cost flips of basic
//!   variables crossing their bounds are folded in through one batched
//!   sparse BTRAN per iteration. Selection is candidate-list partial
//!   pricing driven by Devex reference weights (score `d²/w`): a full
//!   scan refills the list periodically (and proves optimality), cheap
//!   candidate scans serve the iterations in between. Ties (within a
//!   relative epsilon) break toward the lowest column index, so the pivot
//!   sequence — and therefore the final basis — does not hang on
//!   rounding noise. A Bland fallback (least-index, after a run of
//!   degenerate pivots) guarantees termination; the periodic
//!   resynchronisation recomputes `d` from scratch so incremental drift
//!   stays at rounding level (observable via
//!   [`SolveStats::max_resync_drift`]).
//! * **Ratio test.** Two-pass Harris over the *nonzeros* of the FTRAN
//!   result: pass 1 computes the largest step every basic variable
//!   tolerates with its bound expanded by the feasibility tolerance;
//!   pass 2 picks the largest-magnitude pivot among rows blocking within
//!   that step, breaking near-ties toward the lowest basis position.
//! * **Factorisation.** The oracle holds its basis as a dense inverse,
//!   absorbs each exchange as a dense eta transformation and
//!   refactorises periodically. Its hot-path linear algebra runs through
//!   caller-owned [`IndexedVec`] workspaces: the FTRAN / BTRAN / pricing
//!   path performs **no heap allocation**.
//! * **Canonical extraction.** Both solves end in one function
//!   (`Core::extract`): the final basis in ascending column order,
//!   nonbasic values snapped exactly onto their bounds, factored by
//!   structure — the triangle when it peels, the dense inverse otherwise
//!   — and every reported number computed off that factorisation.
//!   Solutions are therefore a pure function of `(model, final basis)`:
//!   the certificate and an oracle solve that end on the same basis
//!   report bit-identical numbers.

// Dense linear-algebra kernels index several same-length buffers per loop;
// iterator zips would obscure the math without changing codegen.
#![allow(clippy::needless_range_loop)]

use crate::error::SolveError;
use crate::factor::{DenseInv, Factor, Triangle, MIN_PIVOT};
use crate::model::{LpModel, Matrix, Objective};
use crate::solution::{Basis, Solution, SolveStats, VarStatus};
use llamp_util::IndexedVec;
use std::sync::Arc;

const INF: f64 = f64::INFINITY;

/// Relative epsilon under which two pricing scores count as tied (ties
/// break toward the lowest column index). Wide enough to swallow
/// rounding: mathematically tied candidates resolve by index, not by
/// noise, so degenerate final bases do not hang on it.
const PRICE_TIE_REL: f64 = 1e-6;
/// Relative epsilon under which two ratio-test pivot magnitudes count as
/// tied (ties break toward the lowest basis position).
const RATIO_TIE_REL: f64 = 1e-6;
/// Candidate-list refill cadence: a full pricing scan at least every this
/// many iterations, so stale lists cannot starve a strongly improving
/// column for long. Keyed to the iteration counter to keep pivot
/// sequences reproducible.
const PARTIAL_REFILL_EVERY: u64 = 16;
/// Devex reference-framework reset threshold: when the leaving variable's
/// new weight estimate exceeds this, the weights have degraded and the
/// framework restarts from 1.
const DEVEX_RESET: f64 = 1e8;
/// Primal feasibility tolerance on variable bounds, scaled by the bound's
/// magnitude (see `viol_tol`).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility (optimality) tolerance on reduced costs.
const OPT_TOL: f64 = 1e-7;
/// Smallest pivot-element magnitude the ratio test and ranging accept.
const PIVOT_TOL: f64 = 1e-9;

/// Settings of the pivoting oracle ([`solve`]). Oracle solves run the
/// defaults; the fields let tests reach rare paths. The tolerances are
/// fixed (primal and dual `1e-7`, pivot `1e-9`) and shared with
/// [`certify`], which takes no settings: it never pivots. A pivoting
/// solve has one budget, the iteration cap, and one distress tripwire,
/// the resync drift; both fail with typed errors.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard iteration cap; `0` (the default) selects `20_000 + 50·(m+n)`.
    pub max_iterations: u64,
    /// Refactorise the basis every this many pivots.
    pub refactor_every: u64,
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    pub bland_after: u32,
    /// Numerical-distress tripwire on incremental-pricing drift: when a
    /// from-scratch reduced-cost resync disagrees with the incremental
    /// values by more than this relative gap, the solve aborts with
    /// [`SolveError::Distress`] rather than risk certifying a wrong
    /// optimum. `0.0` disables. The default `1e-6` sits ~8 orders of
    /// magnitude above the drift measured on LLAMP's models (~1e-14).
    pub drift_limit: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 0,
            refactor_every: 256,
            bland_after: 64,
            drift_limit: 1e-6,
        }
    }
}

/// Retained basis data enabling post-solve ranging queries. Holds the
/// canonical factorisation of the final basis, so ranging is identical
/// whichever solve reached it.
#[derive(Debug)]
pub(crate) struct RangingData {
    factor: Factor,
    /// The model's extended matrix (structural + logical columns).
    mat: Arc<Matrix>,
    /// Basic column per row position (ascending column order).
    basis: Vec<usize>,
    /// Values and bounds of all extended columns at the optimum.
    pub(crate) x: Vec<f64>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
}

impl RangingData {
    /// Range of the lower bound of extended column `j` keeping the basis
    /// optimal (primal feasible; dual feasibility is unaffected by bound
    /// shifts): Gurobi's `SALBLow`/`SALBUp`.
    ///
    /// A basic, free or at-upper column's lower bound is slack up to the
    /// column's value (or upper bound). An at-lower column rides its
    /// bound: moving it by `t` moves the basic variables by `−t·B⁻¹a_j`,
    /// so the window is where they, and the column's own upper bound,
    /// stay feasible.
    pub(crate) fn lb_range(&self, j: usize, status: VarStatus) -> (f64, f64) {
        match status {
            VarStatus::Basic | VarStatus::FreeZero => return (f64::NEG_INFINITY, self.x[j]),
            VarStatus::AtUpper => return (f64::NEG_INFINITY, self.ub[j]),
            VarStatus::AtLower => {}
        }
        let mut dn = f64::NEG_INFINITY;
        let mut up = if self.ub[j].is_finite() {
            self.ub[j] - self.x[j]
        } else {
            INF
        };
        let w = self.factor.ftran_col(self.mat.cols(), self.mat.m, j);
        for (i, &wi) in w.iter().enumerate() {
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let b = self.basis[i];
            let xb = self.x[b];
            let (lbi, ubi) = (self.lb[b], self.ub[b]);
            if wi > 0.0 {
                // x_b decreases as t grows.
                if lbi.is_finite() {
                    up = up.min((xb - lbi) / wi);
                }
                if ubi.is_finite() {
                    dn = dn.max((xb - ubi) / wi);
                }
            } else {
                // x_b increases as t grows.
                if ubi.is_finite() {
                    up = up.min((xb - ubi) / wi);
                }
                if lbi.is_finite() {
                    dn = dn.max((xb - lbi) / wi);
                }
            }
        }
        (self.x[j] + dn, self.x[j] + up)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NbStatus {
    Basic,
    Lower,
    Upper,
    FreeZero,
}

impl NbStatus {
    fn to_var_status(self) -> VarStatus {
        match self {
            NbStatus::Basic => VarStatus::Basic,
            NbStatus::Lower => VarStatus::AtLower,
            NbStatus::Upper => VarStatus::AtUpper,
            NbStatus::FreeZero => VarStatus::FreeZero,
        }
    }
}

/// The state both solves share: bounds, costs, statuses and values of
/// every extended column, the basis, and — for the oracle only — the
/// dense inverse and the pivoting workspaces (all empty until a pivoting
/// solve sizes them).
struct Core {
    m: usize,
    n_struct: usize,
    n_total: usize,
    /// The model's extended matrix. Its row-wise mirror scatters pivot
    /// rows: `α_j = Σ_i ρ_i A_ij` costs only the nonzeros of the rows in
    /// `supp(ρ)`, logical columns implicit (−1 on the diagonal).
    mat: Arc<Matrix>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Internal costs (always a minimisation): `sign ·` the model's.
    cost: Vec<f64>,
    /// `1` for a minimisation, `−1` for a maximisation.
    sign: f64,
    basis: Vec<usize>,
    in_basis: Vec<i32>,
    status: Vec<NbStatus>,
    x: Vec<f64>,
    factor: DenseInv,
    iterations: u64,
    pivots_since_refactor: u64,
    // --- incremental pricing state ---
    /// Reduced costs of all columns under the current phase's objective,
    /// maintained incrementally and resynchronised at refactorisations;
    /// recomputed from scratch at extraction.
    d: Vec<f64>,
    /// Whether `d` still holds the values of the last
    /// from-scratch resync: no basis exchange or phase-1 cost change
    /// since. An optimality claim on fresh values needs no confirming
    /// resync.
    d_fresh: bool,
    /// Devex reference weights; empty means all 1 (the first pivot of a
    /// phase sizes it).
    devex: Vec<f64>,
    /// Candidate list (ascending column order).
    cand: Vec<u32>,
    /// Phase-1 cost of each basic position (−1/0/+1).
    cb1: Vec<f64>,
    /// Number of (scaled-tolerance) infeasible basic positions.
    infeas_count: usize,
    /// Whether the current Bland streak has already forced a resync.
    bland_active: bool,
    /// Set when a drift-recording resync drifted past `drift_limit`; the
    /// iteration loop aborts on it at its next check.
    distressed: bool,
    // --- solver-owned workspaces (no per-iteration allocation) ---
    w: IndexedVec,
    rho: IndexedVec,
    alpha: IndexedVec,
    delta: IndexedVec,
    cb_buf: Vec<f64>,
    y_buf: Vec<f64>,
    stats: SolveStats,
    opts: SimplexOptions,
}

/// Certify `basis` optimal for `model` and read the solution off it: the
/// one solve every engine query runs. The basis is installed with its
/// statuses normalised against the current bounds, factored by
/// substitution and priced once. It fails with
/// [`SolveError::Uncertified`] — never a pivot — when the basis does not
/// fit the model, does not peel into a permuted triangle, or is not
/// primal and dual feasible within the solver's tolerances. An oracle
/// solve ([`solve`]) that ends on the same basis reports the same bits.
pub fn certify(model: &LpModel, basis: &Basis) -> Result<Solution, SolveError> {
    traced_solve("triangular", model, || {
        if llamp_faults::should_inject("solve.stall") {
            // The `solve.stall` site models a wedged solve: abort with
            // the typed injected-fault error the fallback ladder (and
            // chaos suite) expects.
            return Err(SolveError::Injected);
        }
        let mut core = Core::build(model, SimplexOptions::default());
        if !core.install(basis) {
            return Err(SolveError::Uncertified);
        }
        let triangle = Triangle::peel(core.m, core.mat.cols(), &core.basis, MIN_PIVOT)
            .ok_or(SolveError::Uncertified)?;
        // The one pricing pass is the solve's one iteration.
        core.iterations = 1;
        core.stats.pricing_full_scans = 1;
        core.extract(Factor::Triangle(triangle), true)
    })
}

/// Solve `model` with the pivoting simplex on the dense basis inverse —
/// the test and ablation oracle, for models up to a few thousand rows —
/// from `start` (the all-logical basis when `None`, or when `start` does
/// not fit the model or is singular). Returns the optimal [`Solution`] or
/// the terminal [`SolveError`] explaining why none exists.
pub fn solve(
    model: &LpModel,
    opts: &SimplexOptions,
    start: Option<&Basis>,
) -> Result<Solution, SolveError> {
    traced_solve("dense", model, || {
        let mut core = Core::build(model, opts.clone());
        if !start.is_some_and(|b| core.install(b) && core.refactorize()) {
            core.install_default_basis();
        }
        core.recompute_basics();
        let max_iters = core.iteration_cap();

        // Phase 1: restore primal feasibility if the starting basis
        // violates row bounds.
        if !core.is_primal_feasible(1.0) {
            match core.iterate(true, max_iters) {
                PhaseOutcome::Done => {
                    if !core.is_primal_feasible(10.0) {
                        return Err(SolveError::Infeasible);
                    }
                }
                PhaseOutcome::Unbounded => {
                    // Phase-1 objective is bounded below by zero; an
                    // unbounded ray here signals numerical failure,
                    // treated as infeasible.
                    return Err(SolveError::Infeasible);
                }
                PhaseOutcome::Abort(e) => return Err(e),
            }
        }

        // Phase 2: optimise the true objective.
        match core.iterate(false, max_iters) {
            PhaseOutcome::Done => {}
            PhaseOutcome::Unbounded => return Err(SolveError::Unbounded),
            PhaseOutcome::Abort(e) => return Err(e),
        }
        core.canonicalise();
        let factor = Factor::canonical(core.m, core.mat.cols(), &core.basis);
        core.extract(factor, false)
    })
}

/// Wrap one solve in an `lp.solve` obs span, folding the per-solve
/// [`SolveStats`] into span fields at close. Telemetry stays strictly
/// out-of-band: the span neither observes nor perturbs the numerical
/// path, and with recording off this is a single relaxed atomic load
/// (no allocation — certified by `tests/alloc_count.rs`).
fn traced_solve(
    factor: &str,
    model: &LpModel,
    f: impl FnOnce() -> Result<Solution, SolveError>,
) -> Result<Solution, SolveError> {
    let g = llamp_obs::span("lp.solve");
    let out = f();
    if llamp_obs::is_enabled() {
        g.field_str("factor", factor);
        g.field_u64("rows", model.num_constraints() as u64);
        g.field_u64("cols", model.num_vars() as u64);
        match &out {
            Ok(sol) => {
                let s = sol.stats();
                g.field_u64("iterations", s.iterations);
                g.field_u64("phase1_iterations", s.phase1_iterations);
                g.field_u64("pivots", s.pivots);
                g.field_u64("bound_flips", s.bound_flips);
                g.field_u64("refactorisations", s.refactorizations);
                g.field_u64("triangular_factors", s.triangular_factors);
                g.field_u64("lu_factors", s.lu_factors);
                g.field_f64("max_resync_drift", s.max_resync_drift);
            }
            Err(status) => g.field_str("status", &format!("{status:?}")),
        }
    }
    out
}

/// Bound-violation tolerance, scaled by the bound's magnitude. Feasibility
/// must be relative on these models: grid latencies are nanoseconds, so
/// basic values reach `1e9` where an absolute `1e-7` sits inside the
/// factorisation's recompute noise — a noise-triggered phase 1 or
/// certificate failure would follow rounding, not the model.
#[inline]
fn viol_tol(bound: f64, feas: f64) -> f64 {
    feas * (1.0 + bound.abs())
}

enum PhaseOutcome {
    Done,
    Unbounded,
    /// The iteration cap, the drift tripwire or an injected fault aborted
    /// the phase with this typed error.
    Abort(SolveError),
}

impl Core {
    /// Effective iteration budget (`max_iterations`, or the size-scaled
    /// default when 0).
    fn iteration_cap(&self) -> u64 {
        if self.opts.max_iterations == 0 {
            20_000 + 50 * (self.m as u64 + self.n_total as u64)
        } else {
            self.opts.max_iterations
        }
    }

    /// Build a solver core for `model` (sharing the model's matrix), with
    /// no basis installed yet.
    fn build(model: &LpModel, opts: SimplexOptions) -> Self {
        let mat = model.matrix();
        let (m, n_struct) = (mat.m, mat.n_struct);
        let n_total = n_struct + m;
        let sign = match model.sense {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };

        let mut lb = Vec::with_capacity(n_total);
        let mut ub = Vec::with_capacity(n_total);
        let mut cost = Vec::with_capacity(n_total);
        lb.extend_from_slice(&model.vars.lb);
        lb.extend_from_slice(&model.rows.lb);
        ub.extend_from_slice(&model.vars.ub);
        ub.extend_from_slice(&model.rows.ub);
        cost.extend(model.obj.iter().map(|&c| sign * c));
        cost.resize(n_total, 0.0);

        Self {
            m,
            n_struct,
            n_total,
            mat,
            lb,
            ub,
            cost,
            sign,
            basis: Vec::with_capacity(m),
            in_basis: vec![-1i32; n_total],
            status: vec![NbStatus::Lower; n_total],
            x: vec![0.0; n_total],
            factor: DenseInv::new(m),
            iterations: 0,
            pivots_since_refactor: 0,
            d: vec![0.0; n_total],
            d_fresh: false,
            devex: Vec::new(),
            cand: Vec::new(),
            // Sized when phase 1 first runs.
            cb1: Vec::new(),
            infeas_count: 0,
            bland_active: false,
            distressed: false,
            // Sized on first use: a solve that never pivots never
            // touches them.
            w: IndexedVec::default(),
            rho: IndexedVec::default(),
            alpha: IndexedVec::default(),
            delta: IndexedVec::default(),
            cb_buf: Vec::new(),
            y_buf: Vec::new(),
            stats: SolveStats {
                rows: m as u64,
                ..SolveStats::default()
            },
            opts,
        }
    }

    /// Cold start: nonbasic structural variables at their bound nearest
    /// zero, logical variables forming the basis (`B = −I`).
    fn install_default_basis(&mut self) {
        let (m, n_struct) = (self.m, self.n_struct);
        for j in 0..n_struct {
            let (l, u) = (self.lb[j], self.ub[j]);
            let (st, xj) = if l.is_finite() && u.is_finite() {
                if l.abs() <= u.abs() {
                    (NbStatus::Lower, l)
                } else {
                    (NbStatus::Upper, u)
                }
            } else if l.is_finite() {
                (NbStatus::Lower, l)
            } else if u.is_finite() {
                (NbStatus::Upper, u)
            } else {
                (NbStatus::FreeZero, 0.0)
            };
            self.status[j] = st;
            self.x[j] = xj;
            self.in_basis[j] = -1;
        }
        self.basis.clear();
        for i in 0..m {
            let j = n_struct + i;
            self.basis.push(j);
            self.in_basis[j] = i as i32;
            self.status[j] = NbStatus::Basic;
        }
        let ok = self.refactorize();
        debug_assert!(ok, "the all-logical basis is always nonsingular");
    }

    /// Install a caller's basis: statuses normalised against the
    /// *current* bounds (a bound that became infinite demotes the
    /// status), nonbasic values on their bounds, basic columns in
    /// ascending order. `false` when the basis does not fit the model or
    /// does not hold one basic column per row; the oracle then falls back
    /// to the cold start, which overwrites every status, value and basis
    /// slot written here.
    fn install(&mut self, start: &Basis) -> bool {
        if start.cols.len() != self.n_struct || start.rows.len() != self.m {
            return false;
        }
        self.basis.clear();
        for j in 0..self.n_total {
            let s = if j < self.n_struct {
                start.cols[j]
            } else {
                start.rows[j - self.n_struct]
            };
            let (l, u) = (self.lb[j], self.ub[j]);
            let st = match s {
                VarStatus::Basic => NbStatus::Basic,
                VarStatus::AtLower if l.is_finite() => NbStatus::Lower,
                VarStatus::AtUpper if u.is_finite() => NbStatus::Upper,
                // Bound vanished (or FreeZero): rest on the nearest
                // remaining finite bound, or free at zero.
                _ => {
                    if l.is_finite() {
                        NbStatus::Lower
                    } else if u.is_finite() {
                        NbStatus::Upper
                    } else {
                        NbStatus::FreeZero
                    }
                }
            };
            self.status[j] = st;
            self.in_basis[j] = -1;
            self.x[j] = match st {
                NbStatus::Basic => {
                    self.in_basis[j] = self.basis.len() as i32;
                    self.basis.push(j);
                    0.0
                }
                NbStatus::Lower => l,
                NbStatus::Upper => u,
                NbStatus::FreeZero => 0.0,
            };
        }
        self.basis.len() == self.m
    }

    /// Refactorise the dense inverse (the singularity check of an
    /// installed start), resetting the pivot counter on success. Every
    /// factorisation counts as general elimination (`lu_factors`); the
    /// install-time one of a fresh solve (iterations still 0) is setup,
    /// so `refactorizations` reports only mid-solve ones, as documented
    /// on `SolveStats`.
    fn refactorize(&mut self) -> bool {
        if !self
            .factor
            .refactor(self.mat.cols(), &self.basis, MIN_PIVOT)
        {
            return false;
        }
        self.stats.lu_factors += 1;
        self.pivots_since_refactor = 0;
        if self.iterations > 0 {
            self.stats.refactorizations += 1;
        }
        true
    }

    /// Recompute all basic variable values from the nonbasic assignment:
    /// `x_B = B⁻¹ (0 − A_N x_N)`.
    fn recompute_basics(&mut self) {
        let xb = self.factor.ftran_dense(&self.nonbasic_rhs());
        for (&b, &v) in self.basis.iter().zip(&xb) {
            self.x[b] = v;
        }
    }

    /// The row-space right-hand side `0 − A_N x_N` of the basic system.
    fn nonbasic_rhs(&self) -> Vec<f64> {
        let mat = &*self.mat;
        let mut r = vec![0.0; self.m];
        for j in 0..self.n_total {
            if self.in_basis[j] >= 0 || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            for idx in mat.col_start[j]..mat.col_start[j + 1] {
                r[mat.col_rows[idx] as usize] -= mat.col_vals[idx] * xj;
            }
        }
        r
    }

    /// Whether every basic variable sits within its (magnitude-scaled,
    /// `mult`-relaxed) bounds.
    fn is_primal_feasible(&self, mult: f64) -> bool {
        let feas = FEAS_TOL * mult;
        self.basis.iter().all(|&b| {
            let v = self.x[b];
            v >= self.lb[b] - viol_tol(self.lb[b], feas)
                && v <= self.ub[b] + viol_tol(self.ub[b], feas)
        })
    }

    /// Phase-1 cost class of column `b` given its current value:
    /// −1 below the (scaled-tolerance) lower bound, +1 above the upper.
    #[inline]
    fn p1_class(&self, b: usize) -> f64 {
        let v = self.x[b];
        if v < self.lb[b] - viol_tol(self.lb[b], FEAS_TOL) {
            -1.0
        } else if v > self.ub[b] + viol_tol(self.ub[b], FEAS_TOL) {
            1.0
        } else {
            0.0
        }
    }

    /// Rebuild the phase-1 basic cost vector and infeasibility count from
    /// scratch (phase entry and after every refactorisation, where all
    /// basic values move slightly). Returns whether any cost changed —
    /// when it did, the incremental reduced costs are stale *by objective
    /// change*, not by drift, so the following resync must not count the
    /// gap as incremental error.
    fn rebuild_cb1(&mut self) -> bool {
        self.cb1.resize(self.m, 0.0);
        self.infeas_count = 0;
        let mut changed = false;
        for i in 0..self.m {
            let c = self.p1_class(self.basis[i]);
            if c != self.cb1[i] {
                changed = true;
            }
            self.cb1[i] = c;
            if c != 0.0 {
                self.infeas_count += 1;
            }
        }
        changed
    }

    /// Recompute the reduced-cost vector from scratch for the given
    /// phase. When `record_drift` is set, the worst relative gap between
    /// the incremental values and the fresh ones is folded into
    /// [`SolveStats::max_resync_drift`] — the observable bound on
    /// incremental-pricing error.
    fn resync_d(&mut self, phase1: bool, record_drift: bool) {
        self.cb_buf.resize(self.m, 0.0);
        self.y_buf.resize(self.m, 0.0);
        for i in 0..self.m {
            self.cb_buf[i] = if phase1 {
                self.cb1[i]
            } else {
                self.cost[self.basis[i]]
            };
        }
        self.factor.btran_into(&self.cb_buf, &mut self.y_buf);
        let mut d = std::mem::take(&mut self.d);
        let mut drift = 0.0f64;
        for j in 0..self.n_total {
            if self.status[j] == NbStatus::Basic {
                d[j] = 0.0;
                continue;
            }
            let cj = if phase1 { 0.0 } else { self.cost[j] };
            let fresh = cj - self.mat.dot_col(j, &self.y_buf);
            if record_drift {
                let gap = (fresh - d[j]).abs() / (1.0 + fresh.abs());
                drift = drift.max(gap);
            }
            d[j] = fresh;
        }
        self.d = d;
        self.d_fresh = true;
        if record_drift {
            self.stats.max_resync_drift = self.stats.max_resync_drift.max(drift);
            if self.opts.drift_limit > 0.0 && drift > self.opts.drift_limit {
                self.distressed = true;
            }
        }
    }

    /// Enter a phase: build phase costs, resynchronise reduced costs,
    /// reset the Devex framework and candidate list.
    fn enter_phase(&mut self, phase1: bool) {
        if phase1 {
            self.rebuild_cb1();
        }
        self.resync_d(phase1, false);
        self.devex.clear();
        self.cand.clear();
        self.bland_active = false;
    }

    /// Eligibility of a nonbasic column under the current reduced costs:
    /// the entering direction, or `None`.
    #[inline]
    fn eligible(&self, j: usize) -> Option<f64> {
        let dj = self.d[j];
        match self.status[j] {
            NbStatus::Basic => None,
            NbStatus::Lower => (dj < -OPT_TOL).then_some(1.0),
            NbStatus::Upper => (dj > OPT_TOL).then_some(-1.0),
            NbStatus::FreeZero => {
                if dj < -OPT_TOL {
                    Some(1.0)
                } else if dj > OPT_TOL {
                    Some(-1.0)
                } else {
                    None
                }
            }
        }
    }

    /// Refill the candidate list with every eligible column (ascending).
    fn refill_candidates(&mut self) {
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        for j in 0..self.n_total {
            if self.eligible(j).is_some() {
                cand.push(j as u32);
            }
        }
        self.cand = cand;
    }

    /// Scan the candidate list for the best Devex-scored entering column
    /// (`d²/w`, epsilon ties toward the lowest index), pruning members
    /// that became basic or ineligible.
    fn scan_candidates(&mut self) -> Option<(usize, f64)> {
        let mut cand = std::mem::take(&mut self.cand);
        let mut best: Option<(usize, f64, f64)> = None; // (col, score, dir)
        cand.retain(|&ju| {
            let j = ju as usize;
            match self.eligible(j) {
                None => false,
                Some(dir) => {
                    let score = self.d[j] * self.d[j] / self.devex.get(j).unwrap_or(&1.0);
                    let better = match best {
                        None => true,
                        Some((_, bs, _)) => score > bs * (1.0 + PRICE_TIE_REL),
                    };
                    if better {
                        best = Some((j, score, dir));
                    }
                    true
                }
            }
        });
        self.cand = cand;
        best.map(|(j, _, dir)| (j, dir))
    }

    /// Pick the entering column, or `None` at (phase-)optimality. Cheap
    /// candidate scans serve most iterations; a full refill runs on the
    /// [`PARTIAL_REFILL_EVERY`] cadence, when the list runs dry, and to
    /// confirm optimality (after a from-scratch reduced-cost resync, so
    /// incremental drift can never fake convergence).
    fn select_entering(&mut self, phase1: bool, use_bland: bool) -> Option<(usize, f64)> {
        if use_bland {
            // Least-index rule (termination guarantee). The reduced costs
            // were resynchronised when the Bland streak began.
            self.stats.pricing_full_scans += 1;
            for j in 0..self.n_total {
                if let Some(dir) = self.eligible(j) {
                    return Some((j, dir));
                }
            }
            return None;
        }
        let refill = self.cand.is_empty() || self.iterations.is_multiple_of(PARTIAL_REFILL_EVERY);
        if !refill {
            self.stats.pricing_candidate_scans += 1;
            if let Some(sel) = self.scan_candidates() {
                return Some(sel);
            }
        }
        self.stats.pricing_full_scans += 1;
        self.refill_candidates();
        if let Some(sel) = self.scan_candidates() {
            return Some(sel);
        }
        // Optimality claim: confirm on freshly recomputed reduced costs —
        // unless nothing moved since the last resync, whose values a
        // second one would reproduce bit for bit.
        if self.d_fresh {
            return None;
        }
        self.resync_d(phase1, true);
        self.stats.pricing_full_scans += 1;
        self.refill_candidates();
        self.scan_candidates()
    }

    /// Scatter the pivot row `α = Aᵀρ` (column space) from a row-space
    /// BTRAN result, using the CSR mirror plus the implicit −1 logical
    /// diagonal.
    fn scatter_alpha(&mut self) {
        let mat = &*self.mat;
        self.alpha.reset(self.n_total);
        for &iu in self.rho.indices() {
            let i = iu as usize;
            let ri = self.rho.get(i);
            if ri == 0.0 {
                continue;
            }
            for idx in mat.row_start[i]..mat.row_start[i + 1] {
                self.alpha
                    .add(mat.row_cols[idx] as usize, ri * mat.row_vals[idx]);
            }
            self.alpha.add(self.n_struct + i, -ri);
        }
    }

    /// Fold phase-1 basic-cost deltas (already written into `cb1`,
    /// accumulated in `self.delta` as a position-space vector) into the
    /// incremental reduced costs: `d ← d − Aᵀ B⁻ᵀ Σ δᵢeᵢ`. One batched
    /// sparse BTRAN regardless of how many basic variables crossed a
    /// bound this iteration.
    fn apply_cost_deltas(&mut self) {
        self.d_fresh = false;
        self.factor.btran_sparse(&self.delta, &mut self.rho);
        self.stats.btran_calls += 1;
        self.stats.btran_nnz += self.rho.nnz() as u64;
        self.scatter_alpha();
        for &ju in self.alpha.indices() {
            let j = ju as usize;
            if self.status[j] != NbStatus::Basic {
                self.d[j] -= self.alpha.get(j);
            }
        }
    }

    /// The bound (and whether it is the upper one) at which basic position
    /// `i` blocks a step that changes it at `rate` per unit step.
    /// Phase-aware: an infeasible basic variable blocks at the bound it is
    /// approaching and never at one behind it.
    fn blocking_bound(&self, i: usize, rate: f64, phase1: bool) -> Option<(f64, bool)> {
        let b = self.basis[i];
        let xb = self.x[b];
        let (lbi, ubi) = (self.lb[b], self.ub[b]);
        if rate > 0.0 {
            // x_b increases.
            if phase1 && xb < lbi - viol_tol(lbi, FEAS_TOL) {
                // Infeasible below: blocks when it reaches lb.
                Some((lbi, false))
            } else if phase1 && xb > ubi + viol_tol(ubi, FEAS_TOL) {
                // Already above ub and moving further up: no bound ahead
                // to cross (its cost is in the pricing).
                None
            } else if ubi.is_finite() {
                Some((ubi, true))
            } else {
                None
            }
        } else {
            // x_b decreases.
            if phase1 && xb > ubi + viol_tol(ubi, FEAS_TOL) {
                Some((ubi, true))
            } else if phase1 && xb < lbi - viol_tol(lbi, FEAS_TOL) {
                None
            } else if lbi.is_finite() {
                Some((lbi, false))
            } else {
                None
            }
        }
    }

    /// Run simplex iterations for one phase. `phase1` selects infeasibility
    /// costs instead of the model objective.
    fn iterate(&mut self, phase1: bool, max_iters: u64) -> PhaseOutcome {
        let mut degenerate_streak = 0u32;
        self.enter_phase(phase1);

        loop {
            if self.iterations >= max_iters {
                return PhaseOutcome::Abort(SolveError::IterationLimit);
            }
            if llamp_faults::should_inject("solve.stall") {
                // The `solve.stall` site models a wedged solve: abort with
                // the typed injected-fault error the fallback ladder (and
                // chaos suite) expects.
                return PhaseOutcome::Abort(SolveError::Injected);
            }
            self.iterations += 1;
            if phase1 {
                self.stats.phase1_iterations += 1;
                if self.infeas_count == 0 {
                    // Every basic variable is back inside its bounds.
                    return PhaseOutcome::Done;
                }
            }

            let use_bland = degenerate_streak >= self.opts.bland_after;
            if use_bland && !self.bland_active {
                // Bland's termination argument needs trustworthy reduced
                // costs: resynchronise once per streak.
                self.resync_d(phase1, true);
                self.bland_active = true;
            }
            if self.distressed {
                // A drift-recording resync (Bland engagement or
                // refactorisation) found the incremental reduced costs
                // untrustworthy: refuse to certify anything from them.
                return PhaseOutcome::Abort(SolveError::Distress);
            }
            let entering = self.select_entering(phase1, use_bland);

            let Some((q, dir)) = entering else {
                if self.distressed {
                    // The resync that confirms optimality found the
                    // drift over the limit: certify nothing from it.
                    return PhaseOutcome::Abort(SolveError::Distress);
                }
                // No improving column (confirmed on fresh reduced costs):
                // this phase is optimal (for phase 1 the caller checks
                // whether infeasibility reached ~zero).
                return PhaseOutcome::Done;
            };

            // FTRAN the entering column into the solver-owned workspace;
            // the sorted support drives everything downstream.
            self.factor.ftran_col(self.mat.cols(), q, &mut self.w);
            self.w.sort_indices();
            self.stats.ftran_calls += 1;
            self.stats.ftran_nnz += self.w.nnz() as u64;

            // Two-pass Harris ratio test over the nonzeros of `w`.
            // `t_room` caps the step at a full bound traversal of the
            // entering variable.
            let t_room = if self.lb[q].is_finite() && self.ub[q].is_finite() {
                self.ub[q] - self.lb[q]
            } else {
                INF
            };
            // Pass 1: the largest step under feas-expanded bounds.
            let mut t_max = t_room;
            for (i, wi) in self.w.iter() {
                let rate = -dir * wi;
                if rate.abs() <= PIVOT_TOL {
                    continue;
                }
                if let Some((bound, _)) = self.blocking_bound(i, rate, phase1) {
                    let xb = self.x[self.basis[i]];
                    let expanded = (bound - xb) / rate + viol_tol(bound, FEAS_TOL) / rate.abs();
                    if expanded < t_max {
                        t_max = expanded;
                    }
                }
            }
            if t_max.is_infinite() {
                return PhaseOutcome::Unbounded;
            }
            let t_max = t_max.max(0.0);
            // Pass 2: the largest-magnitude pivot among rows blocking
            // within t_max, near-ties keeping the lowest basis position
            // (the support is sorted ascending).
            let mut leaving: Option<(usize, bool)> = None;
            let mut leave_t = 0.0f64;
            let mut leave_w = 0.0f64;
            for (i, wi) in self.w.iter() {
                let rate = -dir * wi;
                if rate.abs() <= PIVOT_TOL {
                    continue;
                }
                if let Some((bound, at_upper)) = self.blocking_bound(i, rate, phase1) {
                    let xb = self.x[self.basis[i]];
                    let strict = ((bound - xb) / rate).max(0.0);
                    if strict <= t_max {
                        let better = match leaving {
                            None => true,
                            Some(_) => wi.abs() > leave_w * (1.0 + RATIO_TIE_REL),
                        };
                        if better {
                            leaving = Some((i, at_upper));
                            leave_t = strict;
                            leave_w = wi.abs();
                        }
                    }
                }
            }

            let t_limit = match leaving {
                // No blocking row within reach: the entering variable
                // traverses its whole box (t_room is finite here, or
                // t_max would have stayed infinite).
                None => t_room,
                Some(_) => leave_t,
            };
            if t_limit <= 1e-12 {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
                self.bland_active = false;
            }

            #[cfg(debug_assertions)]
            if std::env::var_os("LLAMP_LP_TRACE").is_some() {
                eprintln!(
                    "iter={} phase1={} q={} status={:?} dir={} t_limit={} leaving={:?} x_q={}",
                    self.iterations,
                    phase1,
                    q,
                    self.status[q],
                    dir,
                    t_limit,
                    leaving.map(|(r, up)| (r, self.basis[r], up)),
                    self.x[q]
                );
            }
            // Apply the step.
            let step = dir * t_limit;
            self.x[q] += step;
            for (i, wi) in self.w.iter() {
                if wi != 0.0 {
                    let b = self.basis[i];
                    self.x[b] -= step * wi;
                }
            }

            match leaving {
                None => {
                    // Bound flip: x_q traversed its whole box. The basis
                    // (and hence d) is unchanged; only phase-1 costs of
                    // basic variables that crossed a bound need folding.
                    self.stats.bound_flips += 1;
                    self.status[q] = match self.status[q] {
                        NbStatus::Lower => NbStatus::Upper,
                        NbStatus::Upper => NbStatus::Lower,
                        s => s,
                    };
                    if phase1 {
                        self.collect_cost_deltas(None);
                        if self.delta.nnz() > 0 {
                            self.apply_cost_deltas();
                        }
                    }
                }
                Some((r, at_upper)) => {
                    self.stats.pivots += 1;
                    let out = self.basis[r];
                    let w_r = self.w.get(r);
                    let old_r_class = if phase1 { self.cb1[r] } else { 0.0 };

                    // Pivot row (against the *current* basis) for the
                    // incremental reduced-cost and Devex updates.
                    {
                        let mut unit = std::mem::take(&mut self.delta);
                        unit.reset(self.m);
                        unit.set(r, 1.0);
                        self.factor.btran_sparse(&unit, &mut self.rho);
                        unit.clear();
                        self.delta = unit;
                    }
                    self.stats.btran_calls += 1;
                    self.stats.btran_nnz += self.rho.nnz() as u64;
                    self.scatter_alpha();

                    // d ← d − θ_d·α  (θ_d = d_q / α_q; α_q ≡ w_r).
                    let theta_d = self.d[q] / w_r;
                    self.devex.resize(self.n_total, 1.0);
                    let wq_ref = self.devex[q].max(1.0);
                    for &ju in self.alpha.indices() {
                        let j = ju as usize;
                        if self.status[j] == NbStatus::Basic || j == q {
                            continue;
                        }
                        let aj = self.alpha.get(j);
                        if aj == 0.0 {
                            continue;
                        }
                        self.d[j] -= theta_d * aj;
                        // Devex reference-weight update.
                        let ratio = aj / w_r;
                        let cand_w = ratio * ratio * wq_ref;
                        if cand_w > self.devex[j] {
                            self.devex[j] = cand_w;
                        }
                    }
                    self.d[q] = 0.0;
                    // The leaving variable lands exactly on its bound; its
                    // phase-1 cost contribution (if it was infeasible)
                    // leaves the basic cost vector with it.
                    self.d[out] = -theta_d - old_r_class;
                    let w_out = (wq_ref / (w_r * w_r)).max(1.0);
                    self.devex[out] = w_out;
                    if w_out > DEVEX_RESET {
                        self.devex.fill(1.0);
                        self.stats.devex_resets += 1;
                    }

                    // Snap the leaving variable exactly onto its bound.
                    self.x[out] = if at_upper { self.ub[out] } else { self.lb[out] };
                    self.status[out] = if at_upper {
                        NbStatus::Upper
                    } else {
                        NbStatus::Lower
                    };
                    self.in_basis[out] = -1;
                    self.basis[r] = q;
                    self.in_basis[q] = r as i32;
                    self.status[q] = NbStatus::Basic;
                    self.factor.update(&self.w, r);
                    self.d_fresh = false;
                    if phase1 {
                        // Position r now carries the entering variable at
                        // cost 0 (θ_d already priced that in); the old
                        // occupant's infeasibility left with it.
                        if old_r_class != 0.0 {
                            self.infeas_count -= 1;
                        }
                        self.cb1[r] = 0.0;
                        self.collect_cost_deltas(Some(r));
                        if self.delta.nnz() > 0 {
                            self.apply_cost_deltas();
                        }
                    }
                    #[cfg(debug_assertions)]
                    if std::env::var_os("LLAMP_LP_CHECK").is_some() {
                        let incr: Vec<f64> = self.basis.iter().map(|&b| self.x[b]).collect();
                        self.recompute_basics();
                        for (i, &b) in self.basis.iter().enumerate() {
                            assert!((incr[i] - self.x[b]).abs() < 1e-6 * (1.0 + incr[i].abs()),
                                "x_B[{i}] (col {b}) drift: incremental {} vs fresh {} at iter {} phase1={phase1}",
                                incr[i], self.x[b], self.iterations);
                        }
                    }
                    self.pivots_since_refactor += 1;
                    // Periodic refactorisation. A (numerically) singular
                    // refactorisation keeps the eta-updated inverse.
                    if self.pivots_since_refactor >= self.opts.refactor_every && self.refactorize()
                    {
                        self.recompute_basics();
                        // All basic values moved (slightly): rebuild the
                        // phase-1 classification and resynchronise the
                        // incremental reduced costs. Drift is recorded only
                        // when the phase-1 costs did not flip — a flipped
                        // cost changes the objective itself, so the gap
                        // would not measure incremental error.
                        let costs_flipped = phase1 && self.rebuild_cb1();
                        self.resync_d(phase1, !costs_flipped);
                    }
                }
            }
        }
    }

    /// Reclassify the phase-1 cost of every basic position whose value
    /// just changed (the FTRAN support, minus the freshly exchanged
    /// position `skip`, which the pivot handled), accumulating the cost
    /// deltas into `self.delta` and maintaining the infeasibility count.
    fn collect_cost_deltas(&mut self, skip: Option<usize>) {
        let mut delta = std::mem::take(&mut self.delta);
        delta.reset(self.m);
        // Iterate the FTRAN support without borrowing `self.w` across the
        // mutation of `cb1`/`infeas_count` (indices are read up front).
        for k in 0..self.w.indices().len() {
            let i = self.w.indices()[k] as usize;
            if skip == Some(i) {
                continue;
            }
            let old = self.cb1[i];
            let new = self.p1_class(self.basis[i]);
            if new != old {
                delta.add(i, new - old);
                self.cb1[i] = new;
                if old != 0.0 {
                    self.infeas_count -= 1;
                }
                if new != 0.0 {
                    self.infeas_count += 1;
                }
            }
        }
        // The freshly exchanged position enters at cost 0; if the ratio
        // test left it (tolerance-)infeasible after all, classify it too.
        if let Some(r) = skip {
            let new = self.p1_class(self.basis[r]);
            if new != self.cb1[r] {
                delta.add(r, new - self.cb1[r]);
                if self.cb1[r] != 0.0 {
                    self.infeas_count -= 1;
                }
                if new != 0.0 {
                    self.infeas_count += 1;
                }
                self.cb1[r] = new;
            }
        }
        self.delta = delta;
    }

    /// Put the final basis in canonical form: basic columns in ascending
    /// order, nonbasic values exactly on their bounds. (An installed basis
    /// already is.)
    fn canonicalise(&mut self) {
        self.basis.sort_unstable();
        for (i, &b) in self.basis.iter().enumerate() {
            self.in_basis[b] = i as i32;
        }
        for j in 0..self.n_total {
            match self.status[j] {
                NbStatus::Basic => {}
                NbStatus::Lower => self.x[j] = self.lb[j],
                NbStatus::Upper => self.x[j] = self.ub[j],
                NbStatus::FreeZero => self.x[j] = 0.0,
            }
        }
    }

    /// Canonical extraction, where both solves end: report the solution
    /// as a pure function of `(model, final basis)`. The basis is in
    /// canonical form and `factor` is its factorisation picked by
    /// structure ([`Factor::canonical`]; the certificate's basis peels by
    /// definition), so `x_B`, `y` and the reduced costs are the same
    /// arithmetic whichever solve reached the basis. With `certify` set
    /// the basis must also be primal and dual feasible within the
    /// tolerances — the checks that let the oracle stop without a pivot —
    /// or the solve fails with [`SolveError::Uncertified`].
    fn extract(mut self, factor: Factor, certify: bool) -> Result<Solution, SolveError> {
        match factor {
            Factor::Triangle(_) => self.stats.triangular_factors += 1,
            Factor::Dense(_) => self.stats.lu_factors += 1,
        }
        let xb = factor.ftran(self.nonbasic_rhs());
        for (&b, &v) in self.basis.iter().zip(&xb) {
            self.x[b] = v;
        }
        let cb: Vec<f64> = self.basis.iter().map(|&b| self.cost[b]).collect();
        let y = factor.btran(&cb);
        for j in 0..self.n_total {
            self.d[j] = self.cost[j] - self.mat.dot_col(j, &y);
        }
        if certify
            && !(self.is_primal_feasible(1.0)
                && (0..self.n_total).all(|j| self.eligible(j).is_none()))
        {
            return Err(SolveError::Uncertified);
        }

        let (sign, n) = (self.sign, self.n_struct);
        let mut objective = 0.0;
        for j in 0..n {
            if self.cost[j] != 0.0 {
                // `sign · cost` is the model's own coefficient, exactly.
                objective += sign * self.cost[j] * self.x[j];
            }
        }
        let reduced = self.d[..n].iter().map(|&d| sign * d).collect();
        let statuses = self.status[..n].iter().map(|s| s.to_var_status()).collect();
        // Logical column i has coefficient −1: reduced cost of the
        // logical is 0 − yᵀ(−e_i) = y_i = ∂obj/∂(row bound).
        let duals = y.iter().map(|&yi| sign * yi).collect();
        let row_statuses = self.status[n..].iter().map(|s| s.to_var_status()).collect();
        let basis = Basis {
            cols: statuses,
            rows: row_statuses,
        };
        let ranging = RangingData {
            factor,
            mat: self.mat,
            basis: self.basis,
            x: self.x,
            lb: self.lb,
            ub: self.ub,
        };
        let mut stats = self.stats;
        stats.iterations = self.iterations;
        Ok(Solution {
            objective,
            reduced_costs: reduced,
            duals,
            iterations: self.iterations,
            stats,
            basis,
            ranging: Arc::new(ranging),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{LpModel, Objective, Relation, VarId};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    /// The paper's running example (Eq. 6) under `l ≥ l_lb`, `min t`.
    fn running_example(l_lb: f64) -> (LpModel, VarId) {
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", l_lb, INF, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        (m, l)
    }

    #[test]
    fn trivial_bound_only() {
        // min x s.t. x >= 5 (as a bound).
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 5.0, INF, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 5.0);
        assert_close(sol.value(x), 5.0);
        assert_close(sol.reduced_cost(x), 1.0);
    }

    #[test]
    fn simple_row_dual() {
        // min x s.t. x >= 5 (as a row): dual must be 1.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        let c = m.add_constraint("r", &[(x, 1.0)], Relation::Ge, 5.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 5.0);
        assert_close(sol.dual(c), 1.0);
        assert!(sol.is_tight(c));
    }

    #[test]
    fn maximize_with_capacity() {
        // max 3a + 5b s.t. a <= 4, 2b <= 12, 3a + 2b <= 18 (classic).
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        let c2 = m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        let c3 = m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 36.0);
        assert_close(sol.value(a), 2.0);
        assert_close(sol.value(b), 6.0);
        // Known duals of the Dakota-style example: y2 = 1.5, y3 = 1.
        assert_close(sol.dual(c2), 1.5);
        assert_close(sol.dual(c3), 1.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 4 => x=7, y=3.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, INF, 1.0);
        let y = m.add_var("y", 0.0, INF, 1.0);
        m.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        m.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Relation::Eq, 4.0);
        let sol = m.solve().unwrap();
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
        assert_close(sol.objective(), 10.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint("hi", &[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, 0.0, 1.0);
        m.add_constraint("r", &[(x, 1.0)], Relation::Le, 0.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn free_variables() {
        // min |shift| style: free var pinned by two inequalities.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("lo", &[(x, 1.0)], Relation::Ge, -3.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), -3.0);
    }

    #[test]
    fn paper_running_example_min_t() {
        // Equation 6 + l >= 0.5: t = 1.615, reduced cost of l = 1 (Fig. 5).
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", 0.5, INF, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
        let c1 = m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        let c2 = m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        let c3 = m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        let c4 = m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 1.615);
        assert_close(sol.reduced_cost(l), 1.0);
        // Constraints (1) and (4) are tight: the critical path C0->S->R->C3.
        assert!(sol.is_tight(c1));
        assert!(sol.is_tight(c4));
        assert!(!sol.is_tight(c2));
        assert!(!sol.is_tight(c3));
        // Basis stays optimal down to l >= 0.385 (the critical latency).
        let (lo, _hi) = sol.lb_range(l);
        assert_close(lo, 0.385);
    }

    #[test]
    fn paper_running_example_max_l() {
        // Fig. 6: maximize l subject to t <= 2 => l = 0.885.
        let mut m = LpModel::new(Objective::Maximize);
        let l = m.add_var("l", 0.0, INF, 1.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, 2.0, 0.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 0.885);
        assert_close(sol.value(l), 0.885);
    }

    #[test]
    fn running_example_below_critical_latency() {
        // With l >= 0.2 (< 0.385) the compute path dominates: t = 1.5 and
        // the latency sensitivity is 0.
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", 0.2, INF, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 1.5);
        assert_close(sol.reduced_cost(l), 0.0);
    }

    #[test]
    fn range_row_is_respected() {
        // max x with 2 <= x <= 7 expressed as a range row.
        let mut m = LpModel::new(Objective::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        m.add_range_constraint("rng", &[(x, 1.0)], 2.0, 7.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 7.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, INF, 1.0);
        let y = m.add_var("y", 0.0, INF, 1.0);
        for i in 0..20 {
            let w = 1.0 + (i as f64) * 0.0; // identical rows
            m.add_constraint(format!("r{i}"), &[(x, w), (y, w)], Relation::Ge, 4.0);
        }
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 4.0);
    }

    #[test]
    fn iterations_are_counted() {
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        let sol = m.solve().unwrap();
        assert!(sol.iterations() > 0);
        // The stats agree with the headline counter and saw real work.
        assert_eq!(sol.stats().iterations, sol.iterations());
        assert!(sol.stats().ftran_calls > 0);
        assert_eq!(sol.stats().rows, 3);
    }

    #[test]
    fn dense_and_sparse_are_bit_identical() {
        // The oracle pivots on the dense inverse; the certificate of its
        // final basis factors that basis by substitution. Canonical
        // extraction makes them report the same bits.
        let _g = faults_session();
        let m = pivoty_model();
        let d = solve(&m, &SimplexOptions::default(), None).unwrap();
        assert!(d.stats().pivots > 0);
        let s = certify(&m, d.basis()).unwrap();
        assert_eq!(s.stats().pivots, 0);
        assert_eq!(d.objective().to_bits(), s.objective().to_bits());
        for v in [VarId(0), VarId(1)] {
            assert_eq!(d.value(v).to_bits(), s.value(v).to_bits());
            assert_eq!(d.reduced_cost(v).to_bits(), s.reduced_cost(v).to_bits());
            assert_eq!(d.lb_range(v), s.lb_range(v));
        }
        assert_eq!(d.basis(), s.basis());
    }

    #[test]
    fn warm_start_reaches_same_optimum() {
        // min t with l >= L, warm-started from a neighbouring L.
        let opts = SimplexOptions::default();
        let first = solve(&running_example(0.5).0, &opts, None).unwrap();
        // Warm-started re-solve at a nearby bound must agree bitwise with
        // a cold solve (same final basis, canonical extraction).
        let m2 = running_example(0.6).0;
        let warm = solve(&m2, &opts, Some(first.basis())).unwrap();
        let cold = solve(&m2, &opts, None).unwrap();
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
        assert_eq!(warm.basis(), cold.basis());
        // Inside the stability window the warm start needs no pivots.
        assert_eq!(warm.iterations(), 1, "only the optimality pricing pass");
    }

    #[test]
    fn in_window_resolve_needs_no_pivots() {
        let opts = SimplexOptions::default();
        let (m, _) = running_example(0.5);
        let first = solve(&m, &opts, None).unwrap();
        assert!(first.stats().pivots > 0);
        // 0.45 is inside the stability window [0.385, ∞) of the l ≥ 0.5
        // optimum: started from it, the basis is still optimal, so no
        // pivot happens.
        let (m2, l2) = running_example(0.45);
        let second = solve(&m2, &opts, Some(first.basis())).unwrap();
        assert_eq!(second.stats().pivots, 0);
        assert!((second.objective() - 1.565).abs() < 1e-9);
        assert!((second.reduced_cost(l2) - 1.0).abs() < 1e-9);
        // 0.2 is below the 0.385 breakpoint: started from that optimum,
        // the solve pivots onto the compute-dominated one.
        let (m3, l3) = running_example(0.2);
        let third = solve(&m3, &opts, Some(second.basis())).unwrap();
        assert!((third.objective() - 1.5).abs() < 1e-9);
        assert!(third.reduced_cost(l3).abs() < 1e-9);
    }

    #[test]
    fn warm_sweep_matches_cold_solves_bitwise() {
        // Each point starts from the previous point's optimum.
        let opts = SimplexOptions::default();
        let mut prev: Option<Solution> = None;
        for i in 0..20 {
            let l = 0.1 + 0.03 * i as f64;
            let (m, lv) = running_example(l);
            let a = solve(&m, &opts, prev.as_ref().map(Solution::basis)).unwrap();
            let b = solve(&m, &opts, None).unwrap();
            assert_eq!(a.objective().to_bits(), b.objective().to_bits(), "L={l}");
            assert_eq!(
                a.reduced_cost(lv).to_bits(),
                b.reduced_cost(lv).to_bits(),
                "L={l}"
            );
            prev = Some(a);
        }
    }

    /// A two-parameter miniature: `t ≥ c + 1·l + 2·g` beside a constant
    /// floor, so moving `l` and `g` *together* is a multi-parameter sweep
    /// step.
    fn two_param_example(l_lb: f64, g_lb: f64) -> (LpModel, VarId, VarId) {
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", l_lb, INF, 0.0);
        let g = m.add_var("g", g_lb, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("wire", &[(t, 1.0), (l, -1.0), (g, -2.0)], Relation::Ge, 0.4);
        m.add_constraint("comp", &[(t, 1.0)], Relation::Ge, 1.0);
        (m, l, g)
    }

    #[test]
    fn joint_lb_move_resolves_without_pivots() {
        let opts = SimplexOptions::default();
        let (m, l, g) = two_param_example(0.5, 0.2);
        let first = solve(&m, &opts, None).unwrap();
        // Wire path active: T = 0.4 + 0.5 + 0.4 = 1.3, λ_l = 1, λ_g = 2.
        assert!((first.objective() - 1.3).abs() < 1e-9);
        assert!((first.reduced_cost(l) - 1.0).abs() < 1e-9);
        assert!((first.reduced_cost(g) - 2.0).abs() < 1e-9);
        // Both bounds move, staying on the wire-dominated facet: the solve
        // started from the first optimum must not pivot and must match a
        // cold solve bitwise.
        let (m2, l2, g2) = two_param_example(0.45, 0.25);
        let sol = solve(&m2, &opts, Some(first.basis())).unwrap();
        assert_eq!(sol.stats().pivots, 0, "joint in-window move must not pivot");
        let cold = solve(&m2, &opts, None).unwrap();
        assert_eq!(sol.objective().to_bits(), cold.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l2).to_bits(),
            cold.reduced_cost(l2).to_bits()
        );
        assert_eq!(
            sol.reduced_cost(g2).to_bits(),
            cold.reduced_cost(g2).to_bits()
        );
        // A joint move crossing the facet change (wire cost below the
        // 1.0 compute floor): the sensitivities drop to zero.
        let (m3, l3, g3) = two_param_example(0.1, 0.05);
        let sol3 = solve(&m3, &opts, Some(sol.basis())).unwrap();
        assert!((sol3.objective() - 1.0).abs() < 1e-9);
        assert!(sol3.reduced_cost(l3).abs() < 1e-9);
        assert!(sol3.reduced_cost(g3).abs() < 1e-9);
    }

    #[test]
    fn mismatched_start_basis_falls_back_to_cold() {
        let mut small = LpModel::new(Objective::Minimize);
        let x = small.add_var("x", 0.0, 10.0, 1.0);
        small.add_constraint("r", &[(x, 1.0)], Relation::Ge, 2.0);
        let sol = small.solve().unwrap();

        let mut big = LpModel::new(Objective::Minimize);
        let a = big.add_var("a", 0.0, 10.0, 1.0);
        let b = big.add_var("b", 0.0, 10.0, 1.0);
        big.add_constraint("r1", &[(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        big.add_constraint("r2", &[(a, 1.0)], Relation::Ge, 1.0);
        let warm = solve(&big, &SimplexOptions::default(), Some(sol.basis())).unwrap();
        assert_close(warm.objective(), 3.0);
    }

    /// A model that needs a few pivots, for exercising the iteration cap.
    fn pivoty_model() -> LpModel {
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        m
    }

    #[test]
    fn iteration_budget_reports_typed_error() {
        let opts = SimplexOptions {
            max_iterations: 1,
            ..Default::default()
        };
        assert_eq!(
            solve(&pivoty_model(), &opts, None).unwrap_err(),
            SolveError::IterationLimit
        );
    }

    /// A model whose coefficients are not exact binary fractions, so its
    /// incremental reduced costs carry rounding a resync can measure.
    fn inexact_model() -> LpModel {
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 0.3);
        let b = m.add_var("b", 0.0, INF, 0.7);
        let c = m.add_var("c", 0.0, INF, 1.1);
        m.add_constraint("r1", &[(a, 0.1), (b, 0.3), (c, 0.7)], Relation::Le, 1.3);
        m.add_constraint("r2", &[(a, 0.9), (b, 0.2), (c, 0.1)], Relation::Le, 1.7);
        m.add_constraint("r3", &[(a, 0.3), (b, 1.1), (c, 0.3)], Relation::Le, 2.9);
        m
    }

    #[test]
    fn drift_tripwire_fires_on_absurd_threshold() {
        // On by default, and quiet: the default solve's drift is rounding.
        let opts = SimplexOptions::default();
        assert!(opts.drift_limit > 0.0, "drift tripwire is on by default");
        let clean = solve(&inexact_model(), &opts, None).unwrap();
        let drift = clean.stats().max_resync_drift;
        assert!(drift > 0.0 && drift < opts.drift_limit, "drift {drift}");
        // Force a refactor+resync every pivot with a drift limit below
        // machine noise: the first nonzero drift aborts with distress.
        let opts = SimplexOptions {
            refactor_every: 1,
            drift_limit: 1e-300,
            ..Default::default()
        };
        assert_eq!(
            solve(&inexact_model(), &opts, None).unwrap_err(),
            SolveError::Distress
        );
        // With the default cadence the only drift-recording resync is the
        // one that confirms optimality: it must trip the wire too.
        let opts = SimplexOptions {
            drift_limit: 1e-300,
            ..Default::default()
        };
        assert_eq!(
            solve(&inexact_model(), &opts, None).unwrap_err(),
            SolveError::Distress
        );
    }

    /// The optimal basis of `running_example(l_lb)`, from the oracle.
    fn running_optimum(l_lb: f64) -> Basis {
        let (m, _) = running_example(l_lb);
        solve(&m, &SimplexOptions::default(), None)
            .unwrap()
            .basis()
            .clone()
    }

    #[test]
    fn certify_is_one_triangular_factor_and_no_pivot() {
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let sol = certify(&m, &running_optimum(0.5)).unwrap();
        let st = sol.stats();
        assert_eq!((st.iterations, st.pivots, st.phase1_iterations), (1, 0, 0));
        assert_eq!((st.triangular_factors, st.lu_factors), (1, 0));
        assert_close(sol.objective(), 1.615);
        assert_close(sol.reduced_cost(l), 1.0);
    }

    #[test]
    fn certify_refuses_a_primal_infeasible_basis() {
        // Below the 0.385 breakpoint the l ≥ 0.5 optimum leaves y1 under
        // c2's bound: the oracle pivots away from it, the certificate
        // refuses it typed.
        let _g = faults_session();
        let start = running_optimum(0.5);
        let (m, _) = running_example(0.2);
        assert_eq!(certify(&m, &start).unwrap_err(), SolveError::Uncertified);
        let pivoted = solve(&m, &SimplexOptions::default(), Some(&start)).unwrap();
        assert!(pivoted.stats().pivots > 0);
        assert_close(pivoted.objective(), 1.5);
    }

    #[test]
    fn certify_refuses_a_dual_infeasible_basis() {
        // Flipped to `max t`, the min-t optimum stays primal feasible but
        // every reduced cost has the wrong sign.
        let _g = faults_session();
        let start = running_optimum(0.5);
        let (mut m, _) = running_example(0.5);
        m.set_sense(Objective::Maximize);
        assert_eq!(certify(&m, &start).unwrap_err(), SolveError::Uncertified);
        assert_eq!(
            solve(&m, &SimplexOptions::default(), Some(&start)).unwrap_err(),
            SolveError::Unbounded
        );
    }

    #[test]
    fn certify_refuses_a_basis_that_does_not_fit_or_peel() {
        let _g = faults_session();
        // `x + y ≥ 2`, `x − y ≥ 0`, min x + y: the optimum {x, y} basic
        // is a dense 2×2 block, so it does not peel.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        let y = m.add_var("y", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        m.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Relation::Ge, 0.0);
        let dense = Basis::from_statuses(vec![VarStatus::Basic; 2], vec![VarStatus::AtLower; 2]);
        assert_eq!(certify(&m, &dense).unwrap_err(), SolveError::Uncertified);
        let oracle = solve(&m, &SimplexOptions::default(), Some(&dense)).unwrap();
        assert_eq!(oracle.stats().pivots, 0, "the basis is optimal");
        assert_eq!(oracle.stats().triangular_factors, 0);
        // A basis of another model, and one with a basic column too many.
        assert_eq!(
            certify(&m, &running_optimum(0.5)).unwrap_err(),
            SolveError::Uncertified
        );
        let crowded = Basis::from_statuses(
            vec![VarStatus::Basic; 2],
            vec![VarStatus::Basic, VarStatus::AtLower],
        );
        assert_eq!(certify(&m, &crowded).unwrap_err(), SolveError::Uncertified);
    }

    // The faults registry is process-global and `certify` consults its
    // `solve.stall` site: every test here that certifies takes turns, or
    // a fault configured by one fires inside another's solve.
    static FAULTS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn faults_session() -> std::sync::MutexGuard<'static, ()> {
        FAULTS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
