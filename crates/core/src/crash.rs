//! Crash-basis construction for the Algorithm-1 LPs.
//!
//! LLAMP's `min t` LP is the dual of a pure DAG-longest-path problem, so
//! the optimal basis has a known combinatorial shape: every merge
//! variable `y_v` (and the makespan `t`) is basic on the incoming row
//! that *defines* its max, that row's logical rests at its lower bound
//! (the constraint is tight), and every non-defining row keeps its
//! logical basic. Which row defines the max depends on where the
//! parameters sit — so the crash is stored as a **plan** (one record per
//! row, in the build's topological row order) and instantiated into a
//! [`Basis`] at a concrete parameter point.
//!
//! Instantiation runs the exact forward longest-path recursion at the
//! query point: one pass over the rows computes every target's potential
//! `max(pot(base) + c + m·point)` and records the argmax row. Evaluated
//! **at that point** the resulting tree basis is primal feasible (each
//! `y_v` equals its max) *and* dual feasible (the duals are the 0/1
//! critical-subtree indicators, and every parameter multiplier is
//! nonnegative), i.e. optimal up to degeneracy — a cold solve seeded from
//! it needs no pivots, only the optimality pricing pass.
//!
//! Ties break toward the lowest row index (strict `>` replacement), so a
//! plan instantiated at the same point is bit-identical everywhere — the
//! property that makes a crash-started answer a pure function of
//! (model, query point).

use llamp_lp::solution::VarStatus;
use llamp_lp::Basis;

/// One LP row as the crash recursion sees it:
/// `target ≥ base + c + ml·l + mg·g + mo·o` (base absent for source
/// rows; a parameter the LP bakes has a zero multiplier, its cost
/// pre-folded into `c`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashRow {
    /// Column index of the `+1` variable (`y_v` or `t`).
    pub target: u32,
    /// Column index of the `−1` predecessor variable, or `u32::MAX`.
    pub base: u32,
    pub c: f64,
    pub ml: f64,
    pub mg: f64,
    pub mo: f64,
}

pub(crate) const NO_BASE: u32 = u32::MAX;

/// Deferred crash basis: the per-row recursion records plus the
/// point-independent column statuses (parameters at lower bound, merge
/// variables and — when a sink row exists — `t` basic).
#[derive(Debug, Clone)]
pub(crate) struct CrashPlan {
    pub col_status: Vec<VarStatus>,
    pub rows: Vec<CrashRow>,
}

impl CrashPlan {
    /// Instantiate the plan into a concrete [`Basis`] at parameter point
    /// `(l, g, o)`: each target's argmax row tight, every other row's
    /// logical basic. One pass over the rows (they are stored in
    /// topological order, so every base's potential is final before it
    /// is referenced).
    pub fn basis_at(&self, l: f64, g: f64, o: f64) -> Basis {
        let n_cols = self.col_status.len();
        // Longest-path potential per column (only targets/bases are read;
        // sources implicitly contribute 0 through `NO_BASE`).
        let mut pot = vec![0.0f64; n_cols];
        let mut winner: Vec<u32> = vec![NO_BASE; n_cols];
        let mut best: Vec<f64> = vec![f64::NEG_INFINITY; n_cols];
        for (i, r) in self.rows.iter().enumerate() {
            let tgt = r.target as usize;
            let from = if r.base == NO_BASE {
                0.0
            } else {
                pot[r.base as usize]
            };
            let score = from + r.c + r.ml * l + r.mg * g + r.mo * o;
            // Strict `>`: ties keep the lowest row index.
            if winner[tgt] == NO_BASE || score > best[tgt] {
                winner[tgt] = i as u32;
                best[tgt] = score;
            }
            if best[tgt] > pot[tgt] {
                pot[tgt] = best[tgt];
            }
        }
        let mut row_status = vec![VarStatus::Basic; self.rows.len()];
        for (tgt, &w) in winner.iter().enumerate() {
            debug_assert!(
                w != NO_BASE || self.col_status[tgt] != VarStatus::Basic || self.rows.is_empty(),
                "basic crash column {tgt} has no defining row"
            );
            if w != NO_BASE {
                row_status[w as usize] = VarStatus::AtLower;
            }
        }
        Basis::from_statuses(self.col_status.clone(), row_status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: t ≥ y; y ≥ 1 + 2l (edge A), y ≥ 3 (edge B). Below
    /// l = 1 the constant edge defines the max; above, the latency edge.
    fn diamond() -> CrashPlan {
        let row = |target, base, c, ml| CrashRow {
            target,
            base,
            c,
            ml,
            mg: 0.0,
            mo: 0.0,
        };
        CrashPlan {
            // cols: l (param), t, y
            col_status: vec![VarStatus::AtLower, VarStatus::Basic, VarStatus::Basic],
            rows: vec![
                row(2, NO_BASE, 1.0, 2.0), // y ≥ 1 + 2l
                row(2, NO_BASE, 3.0, 0.0), // y ≥ 3
                row(1, 2, 0.5, 0.0),       // t ≥ y + 0.5
            ],
        }
    }

    #[test]
    fn longest_path_winner_tracks_the_point() {
        let plan = diamond();
        let low = plan.basis_at(0.0, 0.0, 0.0);
        let high = plan.basis_at(5.0, 0.0, 0.0);
        assert_ne!(low, high, "different points pick different in-edges");
    }

    #[test]
    fn exact_tie_keeps_the_lowest_row() {
        // At l = 1 both in-edges score 3.0: the first row must win.
        let plan = diamond();
        let tie = plan.basis_at(1.0, 0.0, 0.0);
        let high = plan.basis_at(5.0, 0.0, 0.0);
        assert_eq!(tie, high, "tie resolves to the lowest (latency) row");
    }
}
