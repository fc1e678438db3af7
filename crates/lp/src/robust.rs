//! The solver fallback ladder.
//!
//! [`resolve_robust`] answers an LP query through a [`SparseSimplex`]
//! like `resolve` does, but when the solve fails *recoverably* (budget
//! exhaustion, numerical distress, an injected fault — see
//! [`SolveError::is_recoverable`]) it walks a ladder of progressively
//! more conservative re-solves instead of giving up:
//!
//! 1. **warm resolve** — the solver's normal path from its warm (or
//!    seeded) basis;
//! 2. **cold re-solve** — drop the warm state, optionally re-seed the
//!    caller's crash basis, and solve again under the solver's own
//!    options;
//! 3. **slack re-solve** — a fresh default-options [`SparseSimplex`]
//!    solving from the all-logical (slack) basis: no seed and none of
//!    the caller's budgets, the most conservative start there is.
//!
//! **Why a recovered answer is byte-identical.** Solutions are extracted
//! canonically (a pure function of the final basis — see the crate
//! docs), and all rungs use the same deterministic pivot
//! rules, so any rung that reaches the optimal basis reports exactly the
//! bytes the no-fault solve would have. After a rung-3 recovery the
//! caller's solver is re-seeded with the answering basis, so subsequent
//! warm queries continue from the same state as an unfaulted run.
//!
//! Every rung taken past the first emits the obs counter
//! `solve.fallback` plus a per-rung counter (`solve.fallback.cold`,
//! `solve.fallback.slack`); unrecovered failures return the *first*
//! rung's error (the most informative one).

use crate::backend::SparseSimplex;
use crate::error::SolveError;
use crate::model::LpModel;
use crate::solution::{Basis, Solution};

/// Re-solve `model` through `solver` with fallback recovery. `crash`
/// optionally re-seeds the cold rung (the caller's structural crash
/// basis — what a freshly built solver would start from).
pub fn resolve_robust(
    solver: &mut SparseSimplex,
    model: &LpModel,
    crash: Option<&Basis>,
) -> Result<Solution, SolveError> {
    // Rung 1: the solver's normal warm path.
    let first = match solver.resolve(model) {
        Ok(sol) => return Ok(sol),
        Err(e) if !e.is_recoverable() => return Err(e),
        Err(e) => e,
    };

    // Rung 2: cold re-solve, seeded like a freshly built instance.
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.cold", 1);
    solver.reset();
    let cold = match crash {
        Some(b) => {
            solver.seed(b);
            solver.resolve(model)
        }
        None => solver.solve(model),
    };
    match cold {
        Ok(sol) => return Ok(sol),
        Err(e) if !e.is_recoverable() => return Err(e),
        Err(_) => {}
    }

    // Rung 3: default options from the slack basis.
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.slack", 1);
    match SparseSimplex::default().solve(model) {
        Ok(sol) => {
            // Leave the caller's solver warm on the answering basis,
            // exactly as an unfaulted resolve would have.
            solver.seed(sol.basis());
            Ok(sol)
        }
        Err(e) if !e.is_recoverable() => Err(e),
        // Every rung failed recoverably: report the original failure.
        Err(_) => Err(first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpModel, Objective, Relation, VarId};
    use crate::simplex::SimplexOptions;

    fn running_example(l_lb: f64) -> (LpModel, VarId) {
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", l_lb, f64::INFINITY, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        (m, l)
    }

    #[test]
    fn clean_solves_pass_straight_through() {
        let _g = faults_session();
        let mut b = SparseSimplex::default();
        let (m, l) = running_example(0.5);
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        assert!((sol.objective() - 1.615).abs() < 1e-9);
        assert!((sol.reduced_cost(l) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unrecoverable_errors_skip_the_ladder() {
        let _g = faults_session();
        // An infeasible model must come back infeasible immediately, not
        // after burning two extra solves.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint("c", &[(x, 1.0)], Relation::Ge, 2.0);
        let mut b = SparseSimplex::default();
        assert_eq!(
            resolve_robust(&mut b, &m, None).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn injected_stall_recovers_byte_identical() {
        // Fire `solve.stall` on the first hit: rung 1 aborts with the
        // typed injected error, rung 2 re-solves cold (the counter has
        // passed its mark, so no re-fire) and must reproduce the no-fault
        // answer bit-for-bit.
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let clean = SparseSimplex::default().solve(&m).unwrap();

        llamp_faults::configure("solve.stall:1", 0).unwrap();
        let mut b = SparseSimplex::default();
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        llamp_faults::clear();

        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        assert_eq!(sol.basis(), clean.basis());
    }

    #[test]
    fn iteration_budget_recovers_through_slack_rung() {
        let _g = faults_session();
        // A one-iteration budget fails rungs 1 and 2 (both run under the
        // solver's own options), so only the slack rung — a fresh
        // default-options solver — can answer. Still byte-identical, and
        // the solver is left warm on the answering basis.
        let (m, l) = running_example(0.5);
        let clean = SparseSimplex::default().solve(&m).unwrap();

        let opts = SimplexOptions {
            max_iterations: 1,
            ..SimplexOptions::default()
        };
        let mut b = SparseSimplex::with_options(opts);
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        assert_eq!(b.warm_basis(), Some(clean.basis()));
        // A follow-up in-window query must still answer (through its own
        // ladder) with the bits of a clean solve.
        let (m2, l2) = running_example(0.45);
        let sol2 = resolve_robust(&mut b, &m2, None).unwrap();
        let clean2 = SparseSimplex::default().solve(&m2).unwrap();
        assert_eq!(sol2.objective().to_bits(), clean2.objective().to_bits());
        assert_eq!(
            sol2.reduced_cost(l2).to_bits(),
            clean2.reduced_cost(l2).to_bits()
        );
    }

    #[test]
    fn exhausted_ladder_reports_the_first_error() {
        // A stall probability of ~1 fails every rung; the caller sees the
        // rung-1 error, typed, never a panic.
        let _g = faults_session();
        llamp_faults::configure("solve.stall:0.99999", 7).unwrap();
        let (m, _) = running_example(0.5);
        let mut b = SparseSimplex::default();
        let err = resolve_robust(&mut b, &m, None).unwrap_err();
        llamp_faults::clear();
        assert_eq!(err, SolveError::Injected);
    }

    // The faults registry is process-global and consulted by every solve:
    // serialize every test here, or a probabilistic fault configured by
    // one test fires inside another's solves.
    static FAULTS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn faults_session() -> std::sync::MutexGuard<'static, ()> {
        FAULTS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
