//! Typed solver failure: what a simplex solve reports when it cannot
//! return an optimum, split by *what the caller can do about it*.
//!
//! [`SolveError::Infeasible`] and [`SolveError::Unbounded`] are
//! properties of the model — re-solving cannot change them, and LLAMP's
//! analyses give them meaning (an infeasible tolerance cap, an unbounded
//! tolerance direction). Everything else is a property of the *solve*:
//! budgets ran out ([`SolveError::IterationLimit`],
//! [`SolveError::TimeLimit`], [`SolveError::Stalled`]), the numerics
//! degraded ([`SolveError::Distress`]), or a fault was injected on
//! purpose ([`SolveError::Injected`]). Those are **recoverable**: the
//! fallback ladder ([`crate::robust::resolve_robust`]) re-solves — from
//! the same start, then from the slack basis under default options — and
//! canonical solution extraction guarantees any rung that succeeds
//! returns the byte-identical answer.

/// Which numerical-distress tripwire fired (see
/// [`crate::simplex::SimplexOptions`] for the thresholds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distress {
    /// Incremental pricing drifted further from freshly recomputed
    /// reduced costs than `drift_limit` allows.
    ResyncDrift,
    /// Bland's rule had to be engaged more than `bland_streak_limit`
    /// separate times within one solve.
    BlandStreak,
    /// More than `singular_limit` refactorisations came back singular,
    /// leaving the solver on an ever-longer eta file.
    SingularFactor,
}

impl std::fmt::Display for Distress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Distress::ResyncDrift => "resync drift over limit",
            Distress::BlandStreak => "repeated Bland streaks",
            Distress::SingularFactor => "repeated singular refactorisations",
        })
    }
}

/// Why a solve returned no optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible point (model property; not recoverable).
    Infeasible,
    /// The objective is unbounded in the optimising direction (model
    /// property; not recoverable — but meaningful: an unbounded tolerance
    /// objective reads as "infinite tolerance").
    Unbounded,
    /// The iteration budget ran out before optimality.
    IterationLimit,
    /// The wall-clock budget (`SimplexOptions::time_limit_ms`) ran out.
    TimeLimit,
    /// No objective progress for `stall_iters` consecutive degenerate
    /// iterations.
    Stalled,
    /// A numerical-distress tripwire fired; the answer so far cannot be
    /// trusted.
    Distress(Distress),
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
        match self {
            SolveError::Infeasible => f.write_str("infeasible"),
            SolveError::Unbounded => f.write_str("unbounded"),
            SolveError::IterationLimit => f.write_str("iteration limit"),
            SolveError::TimeLimit => f.write_str("time limit"),
            SolveError::Stalled => f.write_str("stalled"),
            SolveError::Distress(d) => write!(f, "numerical distress: {d}"),
            SolveError::Injected => f.write_str("injected fault"),
        }
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
            SolveError::TimeLimit,
            SolveError::Stalled,
            SolveError::Distress(Distress::ResyncDrift),
            SolveError::Distress(Distress::BlandStreak),
            SolveError::Distress(Distress::SingularFactor),
            SolveError::Injected,
        ] {
            assert!(e.is_recoverable(), "{e:?}");
        }
    }

    #[test]
    fn displays_are_stable_strings() {
        assert_eq!(SolveError::Infeasible.to_string(), "infeasible");
        assert_eq!(SolveError::TimeLimit.to_string(), "time limit");
        assert_eq!(
            SolveError::Distress(Distress::ResyncDrift).to_string(),
            "numerical distress: resync drift over limit"
        );
    }
}
