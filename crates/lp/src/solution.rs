//! Solved-model accessors: primal values, duals, reduced costs, ranging.
//!
//! The fields mirror what LLAMP reads from Gurobi:
//!
//! * the objective value (predicted runtime `T`),
//! * the reduced cost of the latency variable (`λ_L = ∂T/∂L`, §II-D1),
//! * the *range of feasibility* of a variable's lower bound — Gurobi's
//!   `SALBLow`/`SALBUp` attributes — which Algorithm 2 uses to walk the
//!   critical-latency breakpoints,
//! * per-constraint tightness, which identifies the critical path (§II-D1:
//!   "if a set of constraints are tight after optimization, their
//!   corresponding edges are on the critical path").

use crate::model::{ConId, VarId};
use crate::simplex::RangingData;

/// Counters describing how a solve spent its effort. Cheap to collect
/// (increments on paths that already run), deterministic for a
/// deterministic pivot sequence, and additive: [`SolveStats::merge`]
/// folds per-solve stats into per-instance totals. A certificate reads
/// one iteration (its pricing pass), one full pricing scan and one
/// triangular factorisation; everything else counts the oracle's pivots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex iterations (phases 1 and 2 combined; a certificate's
    /// pricing pass counts as one).
    pub iterations: u64,
    /// Iterations spent restoring primal feasibility (phase 1).
    pub phase1_iterations: u64,
    /// Basis exchanges (pivots); the remainder were bound flips.
    pub pivots: u64,
    /// Basis factorisations that peeled into a permuted triangle and
    /// solve by substitution alone — at extraction. A certificate
    /// performs exactly one.
    pub triangular_factors: u64,
    /// Basis factorisations that needed general elimination (the
    /// oracle's dense inverse) — at install, mid-solve and at extraction.
    /// A certificate performs none.
    pub lu_factors: u64,
    /// Full pricing passes (candidate-list refills / optimality proofs).
    pub pricing_full_scans: u64,
    /// Worst relative gap between the incrementally maintained reduced
    /// costs and a from-scratch recompute, observed at periodic resyncs.
    pub max_resync_drift: f64,
}

impl SolveStats {
    /// Fold another solve's counters into this aggregate.
    pub fn merge(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.pivots += other.pivots;
        self.triangular_factors += other.triangular_factors;
        self.lu_factors += other.lu_factors;
        self.pricing_full_scans += other.pricing_full_scans;
        self.max_resync_drift = self.max_resync_drift.max(other.max_resync_drift);
    }
}

/// Basis membership of a variable in the optimal solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis (value strictly between bounds, barring degeneracy).
    Basic,
    /// Nonbasic, resting on its lower bound.
    AtLower,
    /// Nonbasic, resting on its upper bound.
    AtUpper,
    /// Nonbasic free variable pinned at zero.
    FreeZero,
}

/// A complete basis snapshot: the status of every structural column and
/// every row's logical (slack) column. [`Solution::basis`] exports it,
/// [`crate::simplex::certify`] certifies one and [`crate::simplex::solve`]
/// accepts one as its start. A basis outlives bound, objective and sense
/// edits on its model (the edits a query point and the tolerance flip
/// perform), so a basis built from the model's structure — `llamp-core`'s
/// longest-path crash — installs at every query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Status of each structural variable, by column index.
    pub(crate) cols: Vec<VarStatus>,
    /// Status of each row's logical variable, by row index.
    pub(crate) rows: Vec<VarStatus>,
}

impl Basis {
    /// Assemble a basis from explicit per-column / per-row statuses — the
    /// entry point for *crash bases* built by model constructors that
    /// know their problem's structure (e.g. `llamp-core`'s longest-path
    /// crash for execution-graph LPs). [`crate::simplex::certify`] checks
    /// it (column counts, a triangular factorisation, primal and dual
    /// feasibility) and refuses a bad one typed; the oracle falls back to
    /// the all-logical start.
    pub fn from_statuses(cols: Vec<VarStatus>, rows: Vec<VarStatus>) -> Self {
        Self { cols, rows }
    }

    /// Number of structural columns the basis was taken from.
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows the basis was taken from.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

/// The result of a successful solve. All reported quantities are expressed
/// in the *user's* optimisation sense (signs are flipped internally for
/// maximisation problems).
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) objective: f64,
    pub(crate) reduced_costs: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    pub(crate) stats: SolveStats,
    /// Full basis snapshot (structural + logical statuses): every
    /// variable's status.
    pub(crate) basis: Basis,
    /// The final basis's factorisation and the values and bounds of every
    /// extended column (structural, then one logical per row: its row's
    /// activity and bounds). Retained so ranging queries can run on
    /// demand instead of eagerly for every variable. Shared (`Arc`) so
    /// cloning a `Solution` does not copy them.
    pub(crate) ranging: std::sync::Arc<RangingData>,
}

impl Solution {
    /// Optimal objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable at the optimum.
    pub fn value(&self, v: VarId) -> f64 {
        self.ranging.x[v.0 as usize]
    }

    /// Reduced cost of a variable. For a `min t` LLAMP model this is
    /// `∂T/∂(bound of v)` when `v` is nonbasic at a bound — reading it for
    /// the latency variable yields the latency sensitivity `λ_L`.
    pub fn reduced_cost(&self, v: VarId) -> f64 {
        self.reduced_costs[v.0 as usize]
    }

    /// Dual value (shadow price) of a constraint row: the rate of change of
    /// the objective per unit increase of the row's binding bound.
    pub fn dual(&self, c: ConId) -> f64 {
        self.duals[c.0 as usize]
    }

    /// Activity `aᵀx` of a constraint row at the optimum.
    pub fn activity(&self, c: ConId) -> f64 {
        self.ranging.x[self.logical(c)]
    }

    /// Extended column of a row's logical.
    fn logical(&self, c: ConId) -> usize {
        self.basis.cols.len() + c.0 as usize
    }

    /// Whether a constraint is *tight* (its activity sits on a finite row
    /// bound). Tight rows correspond to critical-path edges in LLAMP.
    pub fn is_tight(&self, c: ConId) -> bool {
        let j = self.logical(c);
        let (a, lb, ub) = (self.ranging.x[j], self.ranging.lb[j], self.ranging.ub[j]);
        let tol = 1e-6 * (1.0 + a.abs());
        (lb.is_finite() && (a - lb).abs() <= tol) || (ub.is_finite() && (a - ub).abs() <= tol)
    }

    /// Basis status of a variable.
    pub fn var_status(&self, v: VarId) -> VarStatus {
        self.basis.cols[v.0 as usize]
    }

    /// Range of feasibility of the variable's **lower bound**: the interval
    /// of lower-bound values over which the current optimal basis remains
    /// optimal. The low end is the paper's `SALBLow` (Algorithm 2).
    ///
    /// For a basic variable the lower bound is slack: the range extends to
    /// `-∞` below and up to the variable's current value above. For a
    /// nonbasic variable at its upper bound the lower bound is equally
    /// slack and the range is `(-∞, ub]`.
    pub fn lb_range(&self, v: VarId) -> (f64, f64) {
        self.ranging.lb_range(v.0 as usize, self.var_status(v))
    }

    /// Equivalent of Gurobi's `SALBLow` attribute: the smallest lower-bound
    /// value for which the current basis stays optimal.
    pub fn salb_low(&self, v: VarId) -> f64 {
        self.lb_range(v).0
    }

    /// Number of simplex iterations performed (phases 1 and 2 combined).
    pub fn iterations(&self) -> u64 {
        self.stats.iterations
    }

    /// Detailed solver-effort counters for this solve (see
    /// [`SolveStats`]).
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The optimal basis, usable as the start of a related solve (see
    /// [`Basis`]).
    pub fn basis(&self) -> &Basis {
        &self.basis
    }
}
