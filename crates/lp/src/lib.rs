//! # llamp-lp — linear programming substrate
//!
//! LLAMP converts MPI execution graphs into linear programs and reads
//! predicted runtimes, latency sensitivities (reduced costs), basis-stability
//! ranges (for critical-latency search) and latency tolerances (a flipped
//! objective) off the solved model. The paper answers every one of those
//! queries with one LP and one solver (Gurobi); no comparable solver exists
//! as a mature Rust crate, so this crate implements the one solver it needs
//! from scratch:
//!
//! * [`model::LpModel`] — a general LP model builder: variables with bounds,
//!   linear constraints (`≤`, `≥`, `=`, ranges), minimise/maximise. The
//!   model keeps the constraint matrix in the solver's form, built by the
//!   first solve and shared by every later one until a row or column is
//!   added.
//! * [`simplex`] — a bounded-variable primal simplex on a sparse
//!   factorisation picked from the basis's structure (substitution for a
//!   basis that peels into a permuted triangle, an LU otherwise) with a
//!   product-form eta file. Artificial-free phase 1, Devex partial pricing
//!   with deterministic lowest-index tie-breaking and a Bland fallback
//!   (anti-cycling), a two-pass Harris ratio test, periodic
//!   refactorisation, and a start from any caller's [`Basis`]. A
//!   dense-inverse variant ([`simplex::solve_dense`]) is kept only as the
//!   test oracle the sparse path is cross-validated against.
//! * [`resolve_robust`] — the call the analysis layers make: one solve
//!   from the caller's start, behind the fallback ladder.
//! * [`solution::Solution`] — primal values, objective, row duals, reduced
//!   costs, the optimal [`Basis`], and *bound ranging*: the
//!   equivalent of Gurobi's `SARHSLow` / `SALBLow` attributes that
//!   Algorithm 2 of the paper relies on.
//! * [`piecewise`] — convex piecewise-linear functions represented as upper
//!   envelopes of lines. This powers the graph-level *parametric envelope*
//!   backend in `llamp-core`: the full value function `T(L)` over a
//!   latency window in a single pass.
//!
//! ## Start bases
//!
//! A solve starts from the basis its caller passes, or from the
//! all-logical one. Every solved model exports its optimal [`Basis`]
//! ([`Solution::basis`]), and a basis outlives the edits a query makes
//! (bounds moved, objective or sense changed), so any basis of the model
//! can start any of its solves. `llamp-core` passes one start only: the
//! longest-path crash basis at the query's own point, which is optimal
//! there up to degeneracy, so a query solves with zero pivots. The
//! solver keeps no state between solves; each answer is a pure function
//! of (model, start).
//!
//! ## Determinism
//!
//! Solutions are extracted *canonically*: every reported number comes
//! from the factorisation of the final basis (columns in ascending order,
//! nonbasic values snapped exactly onto their bounds) whose kind the
//! basis's structure picks. A solve that never left its installed basis
//! already holds exactly those numbers — one substitution each way and
//! one pricing pass for a crash start — and extraction takes them over.
//! Pricing and ratio-test ties break by lowest index within a relative
//! epsilon. Together these make a solution a pure function of
//! `(model, final basis)` — slack-started, crash-started and
//! dense-oracle solves that land on the same basis return bit-identical
//! results.
//! Solves from *different* starts may land on different optimal bases of
//! a degenerate LP, whose numbers agree only to rounding; `llamp-core`
//! therefore starts every query from one rule (its longest-path crash
//! basis).
//!
//! All solving styles are cross-validated against the dense oracle and
//! brute-force vertex enumeration in the test suites of this crate and
//! `llamp-core`.
//!
//! ## Robustness
//!
//! A solve has one budget, the iteration cap (always on, sized to the
//! model), and one distress tripwire, the resync drift of its incremental
//! reduced costs ([`simplex::SimplexOptions`]). Failed solves surface as
//! the typed [`SolveError`]: model properties (infeasible / unbounded)
//! versus recoverable solve failures (the iteration cap, the drift
//! tripwire, injected faults). For the latter,
//! [`robust::resolve_robust`] walks the fallback ladder — the caller's
//! start → the same start again → default-options solve from the slack
//! basis — and canonical extraction guarantees any rung that succeeds
//! returns the byte-identical answer the no-fault solve would have
//! produced.

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
