//! # llamp-lp — linear programming substrate
//!
//! LLAMP converts MPI execution graphs into linear programs and reads
//! predicted runtimes, latency sensitivities (reduced costs), basis-stability
//! ranges (for critical-latency search) and latency tolerances (a flipped
//! objective) off the solved model. The paper answers every one of those
//! queries with one LP and one solver (Gurobi, after its presolve); here
//! the reduced graph is the presolve and the longest-path crash basis is
//! already optimal, so the one solve the engine needs is a certificate:
//!
//! * [`model::LpModel`] — a general LP model builder: variables with bounds,
//!   linear constraints (`≤`, `≥`, `=`, ranges), minimise/maximise. The
//!   model keeps the constraint matrix in the solver's form, built by the
//!   first solve and shared by every later one until a row or column is
//!   added.
//! * [`simplex::certify`] — the engine's solve: install a caller's
//!   [`Basis`], factor it by substitution, compute `x_B`, `y` and the
//!   reduced costs, and return the solution when the basis is primal and
//!   dual feasible — [`SolveError::Uncertified`] otherwise. It never
//!   pivots.
//! * [`simplex::solve`] (and [`LpModel::solve`]) — the oracle: a
//!   bounded-variable primal simplex on a dense basis inverse, with
//!   artificial-free phase 1, Devex partial pricing with deterministic
//!   lowest-index tie-breaking and a Bland fallback (anti-cycling), a
//!   two-pass Harris ratio test, bound flips and periodic
//!   refactorisation. A test and ablation tool for models up to a few
//!   thousand rows; nothing on the engine path calls it.
//! * [`resolve_robust`] — the call the analysis layers make: one
//!   certificate of the caller's basis, behind the fallback ladder.
//! * [`solution::Solution`] — primal values, objective, row duals, reduced
//!   costs, the optimal [`Basis`], and *bound ranging*: the
//!   equivalent of Gurobi's `SARHSLow` / `SALBLow` attributes that
//!   Algorithm 2 of the paper relies on.
//! * [`piecewise`] — convex piecewise-linear functions represented as upper
//!   envelopes of lines. This powers the graph-level *parametric envelope*
//!   backend in `llamp-core`: the full value function `T(L)` over a
//!   latency window in a single pass.
//!
//! ## Bases
//!
//! Every solved model exports its optimal [`Basis`]
//! ([`Solution::basis`]), and a basis outlives the edits a query makes
//! (bounds moved, objective or sense changed), so any basis of the model
//! can be certified at, or start an oracle solve of, any of its queries.
//! `llamp-core` certifies one basis only: the longest-path crash at the
//! query's own point, which is optimal there up to degeneracy. The
//! solver keeps no state between solves; each answer is a pure function
//! of (model, basis).
//!
//! ## Determinism
//!
//! Solutions are extracted *canonically*: every reported number comes
//! from the factorisation of the final basis (columns in ascending order,
//! nonbasic values snapped exactly onto their bounds) whose kind the
//! basis's structure picks — substitution when it peels into a permuted
//! triangle, the dense inverse otherwise. The certificate and the oracle
//! end in the same extraction, and the oracle's pricing and ratio-test
//! ties break by lowest index within a relative epsilon. Together these
//! make a solution a pure function of `(model, final basis)`: a
//! certificate and an oracle solve that land on the same basis return
//! bit-identical results. Solves from *different* starts may land on
//! different optimal bases of a degenerate LP, whose numbers agree only
//! to rounding; `llamp-core` therefore answers every query from one rule
//! (its longest-path crash basis).
//!
//! The certificate and the oracle are cross-validated against each other
//! and against brute-force vertex enumeration in the test suites of this
//! crate and `llamp-core`.
//!
//! ## Robustness
//!
//! A certificate either certifies or fails typed; it has no budget
//! because it has no loop. The oracle has one budget, the iteration cap
//! (always on, sized to the model), and one distress tripwire, the
//! resync drift of its incremental reduced costs
//! ([`simplex::SimplexOptions`]). Failed solves surface as the typed
//! [`SolveError`]: model properties (infeasible / unbounded), an
//! uncertified basis, and recoverable solve failures (the iteration cap,
//! the drift tripwire, injected faults). [`robust::resolve_robust`]
//! certifies the same basis a second time after a recoverable failure,
//! and canonical extraction guarantees a recovery returns the
//! byte-identical answer the no-fault solve would have produced.

pub mod error;
pub(crate) mod factor;
pub mod model;
pub mod piecewise;
pub mod robust;
pub mod simplex;
pub mod solution;

pub use error::SolveError;
pub use model::{ConId, LpModel, Objective, Relation, VarId};
pub use piecewise::{Envelope, Line};
pub use robust::resolve_robust;
pub use solution::{Basis, Solution, SolveStats};
