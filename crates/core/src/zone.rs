//! The tolerance-zone walk behind [`crate::GraphLp::tolerance_along`]
//! (either LP shape, along any column) and
//! [`crate::Analyzer::eval_tolerance`].
//!
//! The x% tolerance (§II-D2) is the largest `x ≥ floor` with
//! `T(x) ≤ cap`, where `T(x)` is the runtime with one parameter at `x`.
//! `T` is convex, piecewise linear and nondecreasing, and both answer
//! paths that can query it pointwise return `T(x)` together with a
//! subgradient `λ` in one pass: a crash-started `predict` (the
//! parameter's reduced cost, one triangular factorisation and no pivots)
//! and direct evaluation (the critical path's latency count). So the walk
//! runs Newton on `T(x) = cap`:
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
//! The floor's `(T, λ)` comes from the caller: every backend already
//! holds it as its scenario baseline `T₀`, so a walk only pays for the
//! points right of the floor.
//!
//! The walk's last point is the zone, for both backends: the paper's
//! flipped LP (`max x` s.t. `t ≤ cap`) has that root as its optimum, so
//! the LP backend answers it without solving it. `T(top) ≤ cap` ends the
//! walk early: the zone covers the whole search window and reads as
//! `f64::INFINITY`.

use llamp_lp::SolveError;

/// Step ceiling of one zone walk, counted in evaluations of `T` right
/// of the floor (`predict` solves or direct evaluations; the floor is the
/// caller's baseline and not a step). Walks on the bundled workloads and
/// the 10⁶-vertex LULESH shape take 1–4 steps; one that needs more stops
/// with [`SolveError::IterationLimit`].
pub const ZONE_STEP_LIMIT: u32 = 64;

/// Walk `[floor, top]` (`top` finite) from `at_floor = (T(floor),
/// λ(floor))` with `step(x) = (T(x), λ(x))`, at most `limit` steps, and
/// return the zone: the root up to `T`'s rounding, or `f64::INFINITY`
/// when `T(top) ≤ cap`. A cap below `T(floor)` is `Err(Infeasible)`
/// without a step. Records how many steps the walk took in the
/// `steps_metric` histogram, failed walks included.
pub(crate) fn walk(
    floor: f64,
    at_floor: (f64, f64),
    top: f64,
    cap: f64,
    limit: u32,
    steps_metric: &str,
    step: impl FnMut(f64) -> Result<(f64, f64), SolveError>,
) -> Result<f64, SolveError> {
    debug_assert!(top.is_finite() && floor <= top, "window [{floor}, {top}]");
    let mut steps = 0;
    let out = newton(floor, at_floor, top, cap, limit, &mut steps, step);
    llamp_obs::observe(steps_metric, u64::from(steps));
    out
}

fn newton(
    floor: f64,
    (t0, lambda0): (f64, f64),
    top: f64,
    cap: f64,
    limit: u32,
    steps: &mut u32,
    mut step: impl FnMut(f64) -> Result<(f64, f64), SolveError>,
) -> Result<f64, SolveError> {
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
        if *steps == limit {
            return Err(SolveError::IterationLimit);
        }
        *steps += 1;
        let (t, lambda) = step(x)?;
        if t <= cap {
            return Ok(if x >= top { f64::INFINITY } else { x });
        }
        // Right of the root: λ > 0 by convexity, and the tangent root
        // lies in [root, x). A step that landed on the piece it was aimed
        // along (same slope: distinct pieces of a convex T have distinct
        // slopes) hit the root exactly, so any excess is T's rounding,
        // which further steps could only chase ulp by ulp. Rounding can
        // also stall the step itself; x is the root then too.
        if lambda == aimed && x < top {
            return Ok(x);
        }
        let next = (x - (t - cap) / lambda).max(floor);
        if next >= x {
            return Ok(x);
        }
        (x, aimed) = (next, lambda);
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

    /// Walk `curve` from its own floor, recording every stepped `x`.
    fn walk_curve(
        floor: f64,
        top: f64,
        cap: f64,
        limit: u32,
    ) -> (Result<f64, SolveError>, Vec<f64>) {
        let mut xs = Vec::new();
        let end = walk(
            floor,
            curve(floor).unwrap(),
            top,
            cap,
            limit,
            "test.zone_steps",
            |x| {
                xs.push(x);
                curve(x)
            },
        );
        (end, xs)
    }

    #[test]
    fn flat_floor_jumps_to_the_top_then_descends_onto_the_root() {
        // T(floor) = 10 with λ = 0: jump to 100 (T = 400 on the 5x
        // piece), overshoot to its root 26 (T = 42 on the 2x piece), then
        // land on the root 20 exactly.
        let (end, xs) = walk_curve(0.0, 100.0, 30.0, ZONE_STEP_LIMIT);
        assert_eq!(end, Ok(20.0));
        assert_eq!(xs, vec![100.0, 26.0, 20.0]);
    }

    #[test]
    fn supplied_floor_is_not_a_step() {
        // From (T, λ) = (40, 2) at 25 the tangent aims at 35 (T = 75 on
        // the 5x piece), whose tangent lands on the root 32. The floor's
        // pair is the caller's: `step` never sees 25.
        let (end, xs) = walk_curve(25.0, 100.0, 60.0, ZONE_STEP_LIMIT);
        assert_eq!(end, Ok(32.0));
        assert_eq!(xs, vec![35.0, 32.0]);
    }

    #[test]
    fn window_inside_the_cap_is_beyond() {
        let (end, xs) = walk_curve(0.0, 15.0, 30.0, ZONE_STEP_LIMIT);
        assert_eq!(end, Ok(f64::INFINITY));
        assert_eq!(xs, vec![15.0]);
    }

    #[test]
    fn cap_below_the_floor_is_infeasible_without_a_step() {
        for floor in [0.0, 25.0] {
            let (end, xs) = walk_curve(floor, 100.0, 5.0, ZONE_STEP_LIMIT);
            assert_eq!(end, Err(SolveError::Infeasible));
            assert!(xs.is_empty(), "stepped {xs:?}");
        }
    }

    #[test]
    fn step_ceiling_is_a_typed_failure() {
        // The flat-floor walk takes three steps; two are not enough.
        assert_eq!(
            walk_curve(0.0, 100.0, 30.0, 2).0,
            Err(SolveError::IterationLimit)
        );
        assert!(walk_curve(0.0, 100.0, 30.0, 3).0.is_ok());
    }
}
