//! The solver fallback ladder.
//!
//! [`resolve_robust`] answers an LP query with [`solve_sparse`] from the
//! caller's start, but when the solve fails *recoverably* (the iteration
//! cap ran out, the resync-drift tripwire fired, a fault was injected —
//! see [`SolveError::is_recoverable`]) it walks a ladder of progressively
//! more conservative re-solves instead of giving up:
//!
//! 1. **the caller's start** under the caller's options;
//! 2. **the same start again** — a failure that does not reproduce (an
//!    injected stall) clears here;
//! 3. **slack re-solve** — default options from the all-logical (slack)
//!    basis: no start and none of the caller's settings (an iteration cap
//!    too tight for the query, say), the most conservative solve there
//!    is.
//!
//! **Why a recovered answer is byte-identical.** Solutions are extracted
//! canonically (a pure function of the final basis — see the crate
//! docs), and all rungs use the same deterministic pivot
//! rules, so any rung that reaches the optimal basis reports exactly the
//! bytes the no-fault solve would have. The ladder holds no state, so a
//! recovery leaves nothing behind for the next query.
//!
//! Every rung taken past the first emits the obs counter
//! `solve.fallback` plus a per-rung counter (`solve.fallback.cold`,
//! `solve.fallback.slack`); unrecovered failures return the *first*
//! rung's error (the most informative one).

use crate::error::SolveError;
use crate::model::LpModel;
use crate::simplex::{solve_sparse, SimplexOptions};
use crate::solution::{Basis, Solution};

/// Solve `model` under `opts` from `start` (the slack basis when `None`)
/// with fallback recovery.
pub fn resolve_robust(
    model: &LpModel,
    opts: &SimplexOptions,
    start: Option<&Basis>,
) -> Result<Solution, SolveError> {
    // Rung 1: the caller's start.
    let first = match solve_sparse(model, opts, start) {
        Err(e) if e.is_recoverable() => e,
        out => return out,
    };

    // Rung 2: the same start again.
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.cold", 1);
    match solve_sparse(model, opts, start) {
        Err(e) if e.is_recoverable() => {}
        out => return out,
    }

    // Rung 3: default options from the slack basis.
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.slack", 1);
    match solve_sparse(model, &SimplexOptions::default(), None) {
        // Every rung failed recoverably: report the original failure.
        Err(e) if e.is_recoverable() => Err(first),
        out => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpModel, Objective, Relation, VarId};

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

    fn clean_solve(m: &LpModel) -> Solution {
        solve_sparse(m, &SimplexOptions::default(), None).unwrap()
    }

    #[test]
    fn clean_solves_pass_straight_through() {
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let sol = resolve_robust(&m, &SimplexOptions::default(), None).unwrap();
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
        assert_eq!(
            resolve_robust(&m, &SimplexOptions::default(), None).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn injected_stall_recovers_byte_identical() {
        // Fire `solve.stall` on the first hit: rung 1 aborts with the
        // typed injected error, rung 2 re-solves from the same start (the
        // counter has passed its mark, so no re-fire) and must reproduce
        // the no-fault answer bit-for-bit.
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let clean = clean_solve(&m);

        llamp_faults::configure("solve.stall:1", 0).unwrap();
        let sol = resolve_robust(&m, &SimplexOptions::default(), None).unwrap();
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
        // caller's options), so only the slack rung — default options —
        // can answer. Still byte-identical, on the clean solve's basis.
        let (m, l) = running_example(0.5);
        let clean = clean_solve(&m);

        let opts = SimplexOptions {
            max_iterations: 1,
            ..SimplexOptions::default()
        };
        let sol = resolve_robust(&m, &opts, None).unwrap();
        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        assert_eq!(sol.basis(), clean.basis());
        // A follow-up in-window query started from the answering basis
        // must still answer (through its own ladder) with the bits of a
        // clean solve.
        let (m2, l2) = running_example(0.45);
        let sol2 = resolve_robust(&m2, &opts, Some(sol.basis())).unwrap();
        let clean2 = clean_solve(&m2);
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
        let err = resolve_robust(&m, &SimplexOptions::default(), None).unwrap_err();
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
