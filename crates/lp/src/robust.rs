//! The solver fallback ladder.
//!
//! [`resolve_robust`] answers an engine LP query by certifying the
//! caller's basis ([`certify`]). A certificate never pivots, so the only
//! failure worth a second try is one that does not reproduce: an
//! injected `solve.stall` ([`SolveError::is_recoverable`]). The ladder
//! has two rungs:
//!
//! 1. **the caller's basis**;
//! 2. **the same basis again** — an injected stall clears here.
//!
//! A basis that fails to certify ([`SolveError::Uncertified`]) is not
//! retried: on the engine path it means the crash basis is wrong, which
//! is a bug to report, not a numerical event to recover from.
//!
//! **Why a recovered answer is byte-identical.** A certificate is a pure
//! function of `(model, basis)` (see the crate docs), so rung 2 reports
//! exactly the bytes the no-fault solve would have. The ladder holds no
//! state, so a recovery leaves nothing behind for the next query.
//!
//! Taking rung 2 emits the obs counters `solve.fallback` and
//! `solve.fallback.cold`.

use crate::error::SolveError;
use crate::model::LpModel;
use crate::simplex::certify;
use crate::solution::{Basis, Solution};

/// Certify `basis` for `model`, retrying once on a recoverable failure.
pub fn resolve_robust(model: &LpModel, basis: &Basis) -> Result<Solution, SolveError> {
    match certify(model, basis) {
        Err(e) if e.is_recoverable() => {}
        out => return out,
    }
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.cold", 1);
    certify(model, basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Relation, VarId};
    use crate::simplex::tests::faults_session;
    use crate::simplex::{solve, SimplexOptions};

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

    /// The oracle's solve, whose final basis the ladder certifies.
    fn clean_solve(m: &LpModel) -> Solution {
        solve(m, &SimplexOptions::default(), None).unwrap()
    }

    #[test]
    fn clean_solves_pass_straight_through() {
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let sol = resolve_robust(&m, clean_solve(&m).basis()).unwrap();
        assert!((sol.objective() - 1.615).abs() < 1e-9);
        assert!((sol.reduced_cost(l) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unrecoverable_errors_skip_the_ladder() {
        let _g = faults_session();
        // A basis that does not certify must come back typed at once, not
        // after a second solve.
        let (m, _) = running_example(0.5);
        let (below, _) = running_example(0.2);
        llamp_obs::enable();
        let err = resolve_robust(&below, clean_solve(&m).basis()).unwrap_err();
        let snap = llamp_obs::take();
        llamp_obs::disable();
        assert_eq!(err, SolveError::Uncertified);
        assert!(!snap.counters.contains_key("solve.fallback"), "no rung 2");
    }

    #[test]
    fn injected_stall_recovers_byte_identical() {
        // Fire `solve.stall` on the first hit: rung 1 aborts with the
        // typed injected error, rung 2 certifies the same basis again
        // (the counter has passed its mark, so no re-fire) and must
        // reproduce the no-fault answer bit for bit.
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let basis = clean_solve(&m).basis().clone();
        let clean = certify(&m, &basis).unwrap();

        llamp_faults::configure("solve.stall:1", 0).unwrap();
        llamp_obs::enable();
        let sol = resolve_robust(&m, &basis).unwrap();
        let snap = llamp_obs::take();
        llamp_obs::disable();
        llamp_faults::clear();

        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        assert_eq!(sol.basis(), clean.basis());
        assert_eq!(snap.counters.get("solve.fallback.cold"), Some(&1));
        assert_eq!(snap.counters.get("solve.fallback"), Some(&1));
    }

    #[test]
    fn exhausted_ladder_reports_the_first_error() {
        // A stall probability of ~1 fails both rungs; the caller sees the
        // injected error, typed, never a panic.
        let _g = faults_session();
        let (m, _) = running_example(0.5);
        let basis = clean_solve(&m).basis().clone();
        llamp_faults::configure("solve.stall:0.99999", 7).unwrap();
        let err = resolve_robust(&m, &basis).unwrap_err();
        llamp_faults::clear();
        assert_eq!(err, SolveError::Injected);
    }
}
