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

use crate::factor::FactorKind;
use crate::model::{ConId, VarId};
use crate::simplex::RangingData;

/// Counters describing how a solve spent its effort — the observability
/// layer of the hypersparse hot path. Cheap to collect (increments on
/// paths that already run), deterministic for a deterministic pivot
/// sequence, and additive: [`SolveStats::merge`] folds per-solve stats
/// into campaign-level aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex iterations (phases 1 and 2 combined).
    pub iterations: u64,
    /// Iterations spent restoring primal feasibility (phase 1).
    pub phase1_iterations: u64,
    /// Basis exchanges (pivots); the remainder were bound flips.
    pub pivots: u64,
    /// Bound flips (the entering variable traversed its whole box).
    pub bound_flips: u64,
    /// Mid-solve basis refactorisations (periodic + eta-growth-triggered).
    pub refactorizations: u64,
    /// Basis factorisations that peeled into a permuted triangle and
    /// solve by substitution alone — at install, mid-solve and at
    /// extraction. A crash-started zero-pivot solve performs exactly one.
    pub triangular_factors: u64,
    /// Basis factorisations that needed general elimination (sparse LU,
    /// or the dense oracle's inverse) — at install, mid-solve and at
    /// extraction.
    pub lu_factors: u64,
    /// Hot-path FTRAN calls and the nonzeros they produced.
    pub ftran_calls: u64,
    /// Total nonzeros across hot-path FTRAN results.
    pub ftran_nnz: u64,
    /// Hot-path BTRAN calls (pivot rows + phase-1 cost corrections).
    pub btran_calls: u64,
    /// Total nonzeros across hot-path BTRAN results.
    pub btran_nnz: u64,
    /// Full pricing passes (candidate-list refills / optimality proofs).
    pub pricing_full_scans: u64,
    /// Candidate-list pricing passes (the cheap, common case).
    pub pricing_candidate_scans: u64,
    /// Devex reference-framework resets.
    pub devex_resets: u64,
    /// Rows of the largest model solved (denominator for nnz ratios).
    pub rows: u64,
    /// Worst relative gap between the incrementally maintained reduced
    /// costs and a from-scratch recompute, observed at periodic resyncs.
    pub max_resync_drift: f64,
}

impl SolveStats {
    /// Count one factorisation of the given kind.
    pub(crate) fn count_factor(&mut self, kind: FactorKind) {
        match kind {
            FactorKind::Triangular => self.triangular_factors += 1,
            FactorKind::Lu => self.lu_factors += 1,
        }
    }

    /// Mean FTRAN result density (nnz / m), in `[0, 1]`.
    pub fn ftran_density(&self) -> f64 {
        if self.ftran_calls == 0 || self.rows == 0 {
            0.0
        } else {
            self.ftran_nnz as f64 / (self.ftran_calls * self.rows) as f64
        }
    }

    /// Mean BTRAN result density (nnz / m), in `[0, 1]`.
    pub fn btran_density(&self) -> f64 {
        if self.btran_calls == 0 || self.rows == 0 {
            0.0
        } else {
            self.btran_nnz as f64 / (self.btran_calls * self.rows) as f64
        }
    }

    /// Fold another solve's counters into this aggregate.
    pub fn merge(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.pivots += other.pivots;
        self.bound_flips += other.bound_flips;
        self.refactorizations += other.refactorizations;
        self.triangular_factors += other.triangular_factors;
        self.lu_factors += other.lu_factors;
        self.ftran_calls += other.ftran_calls;
        self.ftran_nnz += other.ftran_nnz;
        self.btran_calls += other.btran_calls;
        self.btran_nnz += other.btran_nnz;
        self.pricing_full_scans += other.pricing_full_scans;
        self.pricing_candidate_scans += other.pricing_candidate_scans;
        self.devex_resets += other.devex_resets;
        self.rows = self.rows.max(other.rows);
        self.max_resync_drift = self.max_resync_drift.max(other.max_resync_drift);
    }

    /// Render a compact human-readable block (the `--solver-stats` view).
    pub fn render(&self) -> String {
        format!(
            "iterations: {} ({} phase-1), pivots: {}, bound flips: {}\n\
             factorisations: {} triangular, {} LU ({} mid-solve), devex resets: {}\n\
             ftran: {} calls ({:.1}% dense), btran: {} calls ({:.1}% dense)\n\
             pricing: {} full scans, {} candidate scans\n\
             max reduced-cost resync drift: {:.2e}",
            self.iterations,
            self.phase1_iterations,
            self.pivots,
            self.bound_flips,
            self.triangular_factors,
            self.lu_factors,
            self.refactorizations,
            self.devex_resets,
            self.ftran_calls,
            100.0 * self.ftran_density(),
            self.btran_calls,
            100.0 * self.btran_density(),
            self.pricing_full_scans,
            self.pricing_candidate_scans,
            self.max_resync_drift
        )
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
/// every row's logical (slack) column. [`Solution::basis`] exports it and
/// [`crate::simplex::solve_sparse`] accepts one as its start. A basis
/// outlives bound, objective and sense edits on its model (the edits a
/// query point and the tolerance flip perform), so a start built from the
/// model's structure — `llamp-core`'s longest-path crash — installs at
/// every query.
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
    /// crash for execution-graph LPs). The solver verifies the basis on
    /// installation (column count, nonsingular refactorisation) and falls
    /// back to the all-logical start if it is unusable, so a bad crash
    /// costs one failed factorisation, never correctness.
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
    pub(crate) iterations: u64,
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
        self.iterations
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
