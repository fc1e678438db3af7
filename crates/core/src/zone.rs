//! The tolerance-zone walk behind [`crate::GraphLp::tolerance`] and
//! [`crate::GraphMultiLp::tolerance`].
//!
//! The x% tolerance (§II-D2) is the largest `x ≥ floor` with
//! `T(x) ≤ cap`, where `T(x)` is the optimal `min t` runtime with one
//! parameter's lower bound at `x`. `T` is convex, piecewise linear and
//! nondecreasing, and a crash-started `predict` returns `T(x)` together
//! with a subgradient `λ` (the parameter's reduced cost) for one
//! triangular factorisation and no pivots. So the walk runs Newton on
//! `T(x) = cap`:
//!
//! * from the floor, the tangent root overshoots the root (the tangent of
//!   a convex function lies below it); a zero slope jumps to the window
//!   top instead;
//! * from any point right of the root, the tangent root lands between
//!   the root and that point, so every later step descends monotonically
//!   and the walk stops on the root's linear piece after finitely many
//!   steps: at the first landing whose slope is the one the step was
//!   aimed with, which is the root up to `T`'s own rounding.
//!
//! `T(top) ≤ cap` ends the walk early: the zone covers the whole search
//! window. Otherwise [`certify`] answers with one tolerance-LP solve
//! started from the last step's crash basis with the parameter made basic
//! in place of `t` — optimal at the root, or a pivot or two from it — so
//! the zone comes out of the same canonical extraction as every other LP
//! answer and is a pure function of (model, floor, top, cap).

use llamp_lp::{resolve_robust, Basis, LpModel, Objective, SolveError, SparseSimplex, VarId};

/// Step ceiling of one zone walk, counted in `predict` solves (the one at
/// the floor included). Walks on the bundled workloads and the
/// 10⁶-vertex LULESH shape take 1–6 steps; one that needs more stops
/// with [`SolveError::IterationLimit`].
pub const ZONE_STEP_LIMIT: u32 = 64;

/// Where a walk ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WalkEnd {
    /// `T(top) ≤ cap`: the zone covers the whole window.
    Beyond,
    /// The walk's last point — the root, up to rounding — and the slope
    /// its crash basis reported there.
    Root { at: f64, lambda: f64 },
}

/// Walk `[floor, top]` (`top` finite) with `step(x) = (T(x), λ(x))`, at
/// most `limit` steps. A cap below `T(floor)` is `Err(Infeasible)`.
/// Records how many steps the walk took in the `lp.zone_steps`
/// histogram, failed walks included.
pub(crate) fn walk(
    floor: f64,
    top: f64,
    cap: f64,
    limit: u32,
    step: impl FnMut(f64) -> Result<(f64, f64), SolveError>,
) -> Result<WalkEnd, SolveError> {
    debug_assert!(top.is_finite() && floor <= top, "window [{floor}, {top}]");
    let mut steps = 0;
    let out = newton(floor, top, cap, limit, &mut steps, step);
    llamp_obs::observe("lp.zone_steps", u64::from(steps));
    out
}

fn newton(
    floor: f64,
    top: f64,
    cap: f64,
    limit: u32,
    steps: &mut u32,
    mut step: impl FnMut(f64) -> Result<(f64, f64), SolveError>,
) -> Result<WalkEnd, SolveError> {
    let mut eval = |x: f64| {
        if *steps == limit {
            return Err(SolveError::IterationLimit);
        }
        *steps += 1;
        step(x)
    };
    let (t0, lambda0) = eval(floor)?;
    if t0 > cap {
        return Err(SolveError::Infeasible);
    }
    let mut x = if lambda0 > 0.0 {
        (floor + (cap - t0) / lambda0).min(top)
    } else {
        top
    };
    // The slope the step onto `x` was aimed with (none for the jump).
    let mut aimed = lambda0;
    loop {
        let (t, lambda) = eval(x)?;
        if t <= cap {
            return Ok(if x >= top {
                WalkEnd::Beyond
            } else {
                WalkEnd::Root { at: x, lambda }
            });
        }
        // Right of the root: λ > 0 by convexity, and the tangent root
        // lies in [root, x). A step that landed on the piece it was aimed
        // along (same slope: distinct pieces of a convex T have distinct
        // slopes) hit the root exactly, so any excess is T's rounding,
        // which further steps could only chase ulp by ulp. Rounding can
        // also stall the step itself; x is the root then too.
        if lambda == aimed && x < top {
            return Ok(WalkEnd::Root { at: x, lambda });
        }
        let next = (x - (t - cap) / lambda).max(floor);
        if next >= x {
            return Ok(WalkEnd::Root { at: x, lambda });
        }
        (x, aimed) = (next, lambda);
    }
}

/// Solve the tolerance LP — `max var` s.t. `t ≤ cap`, with every lower
/// bound already at the floor — from `start`, then restore the `min t`
/// shape and drop the warm state, so the next query crash-starts again.
/// A root at or beyond `top` reads as `f64::INFINITY`, like the walk's
/// early exit.
pub(crate) fn certify(
    model: &mut LpModel,
    solver: &mut SparseSimplex,
    var: VarId,
    t: VarId,
    cap: f64,
    top: f64,
    start: &Basis,
) -> Result<f64, SolveError> {
    model.set_var_ub(t, cap);
    model.set_sense(Objective::Maximize);
    model.set_objective(&[(var, 1.0)]);
    solver.seed(start);
    let out = resolve_robust(solver, model, Some(start));
    model.set_var_ub(t, f64::INFINITY);
    model.set_sense(Objective::Minimize);
    model.set_objective(&[(t, 1.0)]);
    solver.reset();
    match out {
        Ok(sol) if sol.value(var) < top => Ok(sol.value(var)),
        Ok(_) | Err(SolveError::Unbounded) => Ok(f64::INFINITY),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `T(x) = max(10, 2x − 10, 5x − 100)` — flat, then two rising
    /// pieces — with the slope of an active piece as its subgradient.
    fn curve(x: f64) -> Result<(f64, f64), SolveError> {
        let pieces = [(10.0, 0.0), (-10.0, 2.0), (-100.0, 5.0)];
        let (c, m) = pieces
            .into_iter()
            .max_by(|a, b| (a.0 + a.1 * x).total_cmp(&(b.0 + b.1 * x)))
            .unwrap();
        Ok((c + m * x, m))
    }

    #[test]
    fn flat_floor_jumps_to_the_top_then_descends_onto_the_root() {
        // T(floor) = 10 with λ = 0: jump to 100 (T = 400 on the 5x
        // piece), overshoot to its root 26 (T = 42 on the 2x piece), then
        // land on the root 20 exactly.
        let mut xs = Vec::new();
        let end = walk(0.0, 100.0, 30.0, ZONE_STEP_LIMIT, |x| {
            xs.push(x);
            curve(x)
        })
        .unwrap();
        assert_eq!(
            end,
            WalkEnd::Root {
                at: 20.0,
                lambda: 2.0
            }
        );
        assert_eq!(xs, vec![0.0, 100.0, 26.0, 20.0]);
    }

    #[test]
    fn window_inside_the_cap_is_beyond() {
        assert_eq!(
            walk(0.0, 15.0, 30.0, ZONE_STEP_LIMIT, curve),
            Ok(WalkEnd::Beyond)
        );
    }

    #[test]
    fn cap_below_the_floor_is_infeasible_after_one_step() {
        let mut steps = 0;
        let out = walk(0.0, 100.0, 5.0, ZONE_STEP_LIMIT, |x| {
            steps += 1;
            curve(x)
        });
        assert_eq!(out, Err(SolveError::Infeasible));
        assert_eq!(steps, 1);
    }

    #[test]
    fn step_ceiling_is_a_typed_failure() {
        assert_eq!(
            walk(0.0, 100.0, 30.0, 2, curve),
            Err(SolveError::IterationLimit)
        );
    }
}
