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
//!   refactorisation, and warm starts from a previous [`Basis`]. A
//!   dense-inverse variant ([`simplex::solve_dense`]) is kept only as the
//!   test oracle the sparse path is cross-validated against.
//! * [`backend::SparseSimplex`] — the solver object the analysis layers
//!   hold: cold solves and warm re-solves from the previous (or a seeded)
//!   basis.
//! * [`solution::Solution`] — primal values, objective, row duals, reduced
//!   costs, the exportable warm-start [`Basis`], and *bound ranging*: the
//!   equivalent of Gurobi's `SARHSLow` / `SALBLow` attributes that
//!   Algorithm 2 of the paper relies on.
//! * [`piecewise`] — convex piecewise-linear functions represented as upper
//!   envelopes of lines. This powers the graph-level *parametric envelope*
//!   backend in `llamp-core`: the full value function `T(L)` over a
//!   latency window in a single pass.
//!
//! ## The warm-start protocol
//!
//! Every solved model exports its optimal [`Basis`]
//! ([`Solution::basis`]). Passing it back into the next solve of an
//! *edited* model (bounds moved, objective or sense changed — the edits a
//! latency sweep and the tolerance flip perform) starts the simplex from
//! that basis instead of the all-logical one. A query that stays within
//! the basis-stability window re-solves with zero pivots; one that
//! crosses a breakpoint needs only the few pivots that walk to the
//! adjacent basis. [`SparseSimplex::resolve`] is this protocol's front
//! door; `solve` always starts cold.
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
//! `(model, final basis)` — cold, warm, crash-started and dense-oracle
//! solves that land on the same basis return bit-identical results.
//! Solves from *different* starts may land on different optimal bases of
//! a degenerate LP, whose numbers agree only to rounding; `llamp-core`
//! therefore starts every point query from one rule (its longest-path
//! crash basis).
//!
//! All solving styles are cross-validated against the dense oracle and
//! brute-force vertex enumeration in the test suites of this crate and
//! `llamp-core`.
//!
//! ## Robustness
//!
//! Failed solves surface as the typed [`SolveError`]: model properties
//! (infeasible / unbounded) versus recoverable solve failures (budget
//! exhaustion, numerical distress, injected faults). For the latter,
//! [`robust::resolve_robust`] walks the fallback ladder — warm resolve →
//! cold re-solve from the caller's crash basis → default-options solve
//! from the slack basis — and canonical extraction guarantees any rung
//! that succeeds returns the byte-identical answer the no-fault solve
//! would have produced.

pub mod backend;
pub mod error;
pub(crate) mod factor;
pub mod model;
pub mod piecewise;
pub mod robust;
pub mod simplex;
pub mod solution;

pub use backend::SparseSimplex;
pub use error::{Distress, SolveError};
pub use model::{ConId, LpModel, Objective, Relation, VarId};
pub use piecewise::{Envelope, Line};
pub use robust::resolve_robust;
pub use solution::{Basis, Solution, SolveStats};
