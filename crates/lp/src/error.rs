//! Typed solver failure: what a solve reports when it cannot return an
//! optimum, split by *what the caller can do about it*.
//!
//! [`SolveError::Infeasible`] and [`SolveError::Unbounded`] are
//! properties of the model — re-solving cannot change them, and LLAMP's
//! analyses give them meaning (an infeasible tolerance cap, an unbounded
//! tolerance direction). [`SolveError::Uncertified`] is a property of the
//! basis handed to [`crate::simplex::certify`]: re-certifying it cannot
//! change it either, and on the engine path it is a crash bug. The rest
//! are properties of the *solve*: the oracle's iteration cap ran out
//! ([`SolveError::IterationLimit`]), its resync-drift tripwire fired
//! ([`SolveError::Distress`]), or a fault was injected on purpose
//! ([`SolveError::Injected`]). Those are **recoverable**: the fallback
//! ladder ([`crate::robust::resolve_robust`]) certifies the same basis
//! again, and canonical solution extraction guarantees that a second
//! rung that succeeds returns the byte-identical answer.

/// Why a solve returned no optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible point (model property; not recoverable).
    Infeasible,
    /// The objective is unbounded in the optimising direction (model
    /// property; not recoverable — but meaningful: an unbounded tolerance
    /// objective reads as "infinite tolerance").
    Unbounded,
    /// The basis does not fit the model, does not peel into a permuted
    /// triangle, or is not primal and dual feasible within the solver's
    /// tolerances, so [`crate::simplex::certify`] cannot certify it (not
    /// recoverable: the certificate never pivots).
    Uncertified,
    /// The iteration cap (`SimplexOptions::max_iterations`, sized to the
    /// model by default) ran out before optimality.
    IterationLimit,
    /// The resync-drift tripwire fired: a from-scratch reduced-cost
    /// resync disagreed with the incremental values by more than
    /// `SimplexOptions::drift_limit`, so the answer so far cannot be
    /// trusted.
    Distress,
    /// A configured `llamp-faults` site (`solve.stall`) fired.
    Injected,
}

impl SolveError {
    /// Whether a re-solve could plausibly succeed. Model properties —
    /// infeasible, unbounded — and an uncertified basis are final;
    /// everything else is worth a trip down the fallback ladder.
    pub fn is_recoverable(&self) -> bool {
        !matches!(
            self,
            SolveError::Infeasible | SolveError::Unbounded | SolveError::Uncertified
        )
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolveError::Infeasible => "infeasible",
            SolveError::Unbounded => "unbounded",
            SolveError::Uncertified => "basis not certified optimal",
            SolveError::IterationLimit => "iteration limit",
            SolveError::Distress => "numerical distress: resync drift over limit",
            SolveError::Injected => "injected fault",
        })
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_splits_model_from_solve_failures() {
        assert!(!SolveError::Infeasible.is_recoverable());
        assert!(!SolveError::Unbounded.is_recoverable());
        assert!(!SolveError::Uncertified.is_recoverable());
        for e in [
            SolveError::IterationLimit,
            SolveError::Distress,
            SolveError::Injected,
        ] {
            assert!(e.is_recoverable(), "{e:?}");
        }
    }

    #[test]
    fn displays_are_stable_strings() {
        assert_eq!(SolveError::Infeasible.to_string(), "infeasible");
        assert_eq!(SolveError::IterationLimit.to_string(), "iteration limit");
        assert_eq!(
            SolveError::Uncertified.to_string(),
            "basis not certified optimal"
        );
        assert_eq!(
            SolveError::Distress.to_string(),
            "numerical distress: resync drift over limit"
        );
    }
}
