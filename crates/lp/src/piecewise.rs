//! Convex piecewise-linear functions as upper envelopes of lines.
//!
//! The runtime of an MPI program under LogGPS is
//! `T(L) = max_i (a_i·L + C_i)` over all paths through the execution graph
//! (paper Eq. 3) — a convex, nondecreasing, piecewise-linear function of the
//! latency. This module represents such functions exactly as the upper
//! envelope of a set of lines and implements the operations the parametric
//! DAG solver needs:
//!
//! * the upper envelope of a set of lines (a vertex joining its
//!   predecessors' paths, each shifted by its edge's cost `c + a·L`),
//! * `max` of two envelopes (a sink joining the running maximum),
//! * evaluation, right-derivatives (`λ_L`), breakpoints (critical
//!   latencies `L_c`), window clipping, and inversion (latency tolerance).
//!
//! Everything is exact up to f64 arithmetic: no sampling, no sweeps.

/// A line `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// Coefficient of the parameter (for `T(L)`: the number of
    /// non-overlapped messages along a path).
    pub slope: f64,
    /// Constant part (all other path costs).
    pub intercept: f64,
}

impl Line {
    /// Construct a line.
    pub fn new(slope: f64, intercept: f64) -> Self {
        Self { slope, intercept }
    }

    /// Evaluate at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Where two lines with `b.slope > a.slope` cross.
#[inline]
fn intersect_x(a: Line, b: Line) -> f64 {
    (a.intercept - b.intercept) / (b.slope - a.slope)
}

const SLOPE_EPS: f64 = 1e-9;

/// Result of inverting a nondecreasing envelope against a cap value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Invert {
    /// The function never exceeds the cap: any `x` is admissible.
    Always,
    /// The function exceeds the cap everywhere.
    Never,
    /// The function crosses the cap at this `x` (largest admissible value).
    At(f64),
}

/// Upper envelope of a non-empty set of lines: a convex piecewise-linear
/// function. Lines are stored left-to-right (slopes strictly increasing),
/// each maximal on some interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    lines: Vec<Line>,
}

impl Envelope {
    /// The constant-zero envelope (single line `y = 0`).
    pub fn zero() -> Self {
        Self {
            lines: vec![Line::new(0.0, 0.0)],
        }
    }

    /// Envelope of a single line.
    pub fn from_line(line: Line) -> Self {
        Self { lines: vec![line] }
    }

    /// Build the upper envelope of an arbitrary set of lines.
    ///
    /// # Panics
    /// Panics when `lines` is empty.
    pub fn from_lines(mut lines: Vec<Line>) -> Self {
        assert!(!lines.is_empty(), "envelope of zero lines");
        lines.sort_by(|a, b| {
            a.slope
                .partial_cmp(&b.slope)
                .unwrap()
                .then(a.intercept.partial_cmp(&b.intercept).unwrap())
        });
        let mut hull: Vec<Line> = Vec::with_capacity(lines.len());
        for line in lines {
            // Identical slope: only the largest intercept survives. Input is
            // sorted so the incoming line has the larger (or equal) one.
            if let Some(last) = hull.last() {
                if (line.slope - last.slope).abs() <= SLOPE_EPS {
                    if line.intercept <= last.intercept {
                        continue;
                    }
                    hull.pop();
                }
            }
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // b is useless if the new line already beats it where b
                // overtakes a.
                if intersect_x(a, line) <= intersect_x(a, b) {
                    hull.pop();
                } else {
                    break;
                }
            }
            // With exactly one line on the stack, pop it if dominated
            // everywhere... a line with smaller slope is never dominated
            // everywhere by a steeper one, so nothing to do.
            hull.push(line);
        }
        Self { lines: hull }
    }

    /// Number of linear pieces.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether this envelope has exactly one piece (affine function).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Access the pieces left-to-right.
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// Index of the piece active at `x` (right-continuous: at a breakpoint
    /// the steeper piece wins, matching the right derivative).
    fn active_index(&self, x: f64) -> usize {
        // Binary search over breakpoints: piece i is active on
        // [bp(i-1), bp(i)] where bp(i) = intersect(lines[i], lines[i+1]).
        let mut lo = 0usize;
        let mut hi = self.lines.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let bp = intersect_x(self.lines[mid], self.lines[mid + 1]);
            if x >= bp {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Evaluate the envelope at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.lines[self.active_index(x)].eval(x)
    }

    /// Right derivative at `x`. For `T(L)` this is the latency sensitivity
    /// `λ_L` (the message count on the critical path) at latency `x`.
    pub fn slope_at(&self, x: f64) -> f64 {
        self.lines[self.active_index(x)].slope
    }

    /// The breakpoints (x-coordinates where the active piece changes).
    /// For `T(L)` these are the *critical latencies* `L_c`.
    pub fn breakpoints(&self) -> Vec<f64> {
        self.lines
            .windows(2)
            .map(|w| intersect_x(w[0], w[1]))
            .collect()
    }

    /// Pointwise maximum with another envelope (vertex join in the DAG DP).
    pub fn max_with(&self, other: &Envelope) -> Envelope {
        let mut lines = Vec::with_capacity(self.lines.len() + other.lines.len());
        lines.extend_from_slice(&self.lines);
        lines.extend_from_slice(&other.lines);
        Envelope::from_lines(lines)
    }

    /// Drop pieces that are never active within `[lo, hi]`. Keeps the
    /// envelope exact inside the window (values outside may change). This
    /// is what keeps the parametric DAG solver near-linear: per-vertex
    /// envelopes retain only the handful of slopes that can win inside the
    /// latency interval of interest.
    pub fn clip(&mut self, lo: f64, hi: f64) {
        debug_assert!(lo <= hi);
        let first = self.active_index(lo);
        let last = self.active_index(hi);
        if first > 0 || last + 1 < self.lines.len() {
            self.lines.drain(last + 1..);
            self.lines.drain(..first);
        }
    }

    /// Largest `x` with `f(x) ≤ cap`, assuming all slopes are nonnegative
    /// (the envelope is nondecreasing). Used for latency tolerance: the
    /// biggest `L` keeping `T(L)` under the allowed runtime.
    pub fn invert_below(&self, cap: f64) -> Invert {
        debug_assert!(
            self.lines.iter().all(|l| l.slope >= -SLOPE_EPS),
            "invert_below requires a nondecreasing envelope"
        );
        let last = self.lines[self.lines.len() - 1];
        if last.slope <= SLOPE_EPS {
            // Constant tail: either always under the cap or never crossing.
            return if last.intercept <= cap {
                Invert::Always
            } else {
                Invert::Never
            };
        }
        if last.eval(0.0) > cap && self.lines[0].slope <= SLOPE_EPS && self.lines[0].intercept > cap
        {
            return Invert::Never;
        }
        // Walk pieces right-to-left to find the crossing piece.
        for (idx, line) in self.lines.iter().enumerate().rev() {
            let start = if idx == 0 {
                f64::NEG_INFINITY
            } else {
                intersect_x(self.lines[idx - 1], *line)
            };
            if line.slope <= SLOPE_EPS {
                // Flat piece below the cap extends left indefinitely only if
                // it is the leftmost piece.
                if line.intercept <= cap {
                    // The crossing happens in some steeper piece to the
                    // right which we already rejected; cap lies within this
                    // flat piece's reach.
                    continue;
                }
                return Invert::Never;
            }
            let x = (cap - line.intercept) / line.slope;
            if x >= start {
                return Invert::At(x);
            }
        }
        Invert::Never
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_max(lines: &[Line], x: f64) -> f64 {
        lines
            .iter()
            .map(|l| l.eval(x))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn single_line() {
        let e = Envelope::from_line(Line::new(2.0, 1.0));
        assert_eq!(e.eval(3.0), 7.0);
        assert_eq!(e.slope_at(100.0), 2.0);
        assert!(e.breakpoints().is_empty());
    }

    #[test]
    fn paper_running_example_envelope() {
        // T(L) = max(1.5, L + 1.115): breakpoint at 0.385 (critical
        // latency), slope 0 below, 1 above (Fig. 4c).
        let e = Envelope::from_lines(vec![Line::new(0.0, 1.5), Line::new(1.0, 1.115)]);
        assert_eq!(e.len(), 2);
        let bps = e.breakpoints();
        assert!((bps[0] - 0.385).abs() < 1e-12);
        assert_eq!(e.slope_at(0.2), 0.0);
        assert_eq!(e.slope_at(0.5), 1.0);
        assert!((e.eval(0.5) - 1.615).abs() < 1e-12);
        // Tolerance: largest L with T <= 2 is 0.885 (Fig. 6).
        match e.invert_below(2.0) {
            Invert::At(x) => assert!((x - 0.885).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dominated_lines_are_dropped() {
        let e = Envelope::from_lines(vec![
            Line::new(1.0, 0.0),
            Line::new(1.0, -5.0),  // same slope, lower: dropped
            Line::new(0.5, -10.0), // below everywhere in relevant range
            Line::new(2.0, -100.0),
        ]);
        for &x in &[-10.0, 0.0, 50.0, 150.0] {
            let full = brute_max(
                &[
                    Line::new(1.0, 0.0),
                    Line::new(1.0, -5.0),
                    Line::new(0.5, -10.0),
                    Line::new(2.0, -100.0),
                ],
                x,
            );
            assert!((e.eval(x) - full).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn max_with_matches_pointwise() {
        let a = Envelope::from_lines(vec![Line::new(0.0, 3.0), Line::new(2.0, -1.0)]);
        let b = Envelope::from_lines(vec![Line::new(1.0, 0.0)]);
        let m = a.max_with(&b);
        for i in -20..40 {
            let x = i as f64 * 0.25;
            let want = a.eval(x).max(b.eval(x));
            assert!((m.eval(x) - want).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn clip_preserves_window_values() {
        let lines = vec![
            Line::new(0.0, 10.0),
            Line::new(1.0, 5.0),
            Line::new(3.0, -10.0),
            Line::new(6.0, -50.0),
        ];
        let full = Envelope::from_lines(lines.clone());
        let mut clipped = full.clone();
        clipped.clip(4.0, 6.0);
        assert!(clipped.len() <= full.len());
        for i in 0..=20 {
            let x = 4.0 + (i as f64) * 0.1;
            assert!((clipped.eval(x) - full.eval(x)).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn invert_below_flat_function() {
        let e = Envelope::from_line(Line::new(0.0, 5.0));
        assert_eq!(e.invert_below(6.0), Invert::Always);
        assert_eq!(e.invert_below(4.0), Invert::Never);
    }

    #[test]
    fn invert_below_on_breakpoint_cap() {
        let e = Envelope::from_lines(vec![Line::new(0.0, 1.5), Line::new(1.0, 1.115)]);
        // Cap exactly at the flat level: crossing is at the breakpoint.
        match e.invert_below(1.5) {
            Invert::At(x) => assert!((x - 0.385).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn line_strategy() -> impl Strategy<Value = Line> {
        // Slopes like message counts: small nonnegative integers; intercepts
        // like path costs.
        (0u32..20, -1000.0f64..1000.0).prop_map(|(s, c)| Line::new(s as f64, c))
    }

    proptest! {
        #[test]
        fn envelope_matches_brute_force(
            lines in prop::collection::vec(line_strategy(), 1..40),
            xs in prop::collection::vec(-500.0f64..500.0, 1..20),
        ) {
            let env = Envelope::from_lines(lines.clone());
            for x in xs {
                let brute = lines.iter().map(|l| l.eval(x)).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!((env.eval(x) - brute).abs() < 1e-6 * (1.0 + brute.abs()));
            }
        }

        #[test]
        fn envelope_slopes_strictly_increase(
            lines in prop::collection::vec(line_strategy(), 1..40),
        ) {
            let env = Envelope::from_lines(lines);
            for w in env.lines().windows(2) {
                prop_assert!(w[1].slope > w[0].slope);
            }
        }

        #[test]
        fn invert_below_is_consistent(
            lines in prop::collection::vec(line_strategy(), 1..20),
            cap in -500.0f64..2000.0,
        ) {
            let env = Envelope::from_lines(lines);
            match env.invert_below(cap) {
                Invert::At(x) => {
                    prop_assert!(env.eval(x) <= cap + 1e-6 * (1.0 + cap.abs()));
                    // A step to the right must exceed the cap.
                    prop_assert!(env.eval(x + 1.0) >= cap - 1e-6 * (1.0 + cap.abs()));
                }
                Invert::Always => {
                    prop_assert!(env.eval(1e6) <= cap + 1e-6 * (1.0 + cap.abs()));
                }
                Invert::Never => {
                    prop_assert!(env.eval(-1e6) > cap - 1e-6 * (1.0 + cap.abs()));
                }
            }
        }
    }
}
