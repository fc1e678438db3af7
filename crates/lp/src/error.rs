//! Typed solver failure: what a simplex solve reports when it cannot
//! return an optimum, split by *what the caller can do about it*.
//!
//! [`SolveError::Infeasible`] and [`SolveError::Unbounded`] are
//! properties of the model — re-solving cannot change them, and LLAMP's
//! analyses give them meaning (an infeasible tolerance cap, an unbounded
//! tolerance direction). The rest are properties of the *solve*: the
//! iteration cap ran out ([`SolveError::IterationLimit`]), the
//! resync-drift tripwire fired ([`SolveError::Distress`]), or a fault was
//! injected on purpose ([`SolveError::Injected`]). Those are
//! **recoverable**: the fallback ladder
//! ([`crate::robust::resolve_robust`]) re-solves — from the same start,
//! then from the slack basis under default options — and canonical
//! solution extraction guarantees any rung that succeeds returns the
//! byte-identical answer.

/// Why a solve returned no optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible point (model property; not recoverable).
    Infeasible,
    /// The objective is unbounded in the optimising direction (model
    /// property; not recoverable — but meaningful: an unbounded tolerance
    /// objective reads as "infinite tolerance").
    Unbounded,
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
    /// Whether a from-scratch re-solve (possibly on another
    /// factorisation) could plausibly succeed. Model properties —
    /// infeasible, unbounded — are final; everything else is worth a trip
    /// down the fallback ladder.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, SolveError::Infeasible | SolveError::Unbounded)
    }

    /// Whether this is the unbounded-objective outcome (which tolerance
    /// queries interpret as "infinite tolerance", not an error).
    pub fn is_unbounded(&self) -> bool {
        matches!(self, SolveError::Unbounded)
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolveError::Infeasible => "infeasible",
            SolveError::Unbounded => "unbounded",
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
            SolveError::Distress.to_string(),
            "numerical distress: resync drift over limit"
        );
    }
}
