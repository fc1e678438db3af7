//! The solver the analysis layers (`llamp-core`, `llamp-engine`) program
//! against.
//!
//! [`SparseSimplex`] is the sparse / eta-file primal simplex with warm
//! starts: solve a model, re-solve it cheaply after the incremental edits
//! LLAMP performs (bound tightenings, the tolerance objective flip), and
//! read duals / reduced costs / ranging off the returned [`Solution`].
//! `resolve` warm-starts from the previous optimal basis (or an explicitly
//! seeded one, such as the longest-path crash basis `llamp-core` builds),
//! and every solution comes out of canonical extraction, so two solves
//! that land on the same final basis return bit-identical numbers.
//!
//! Nothing but the basis carries over between solves: the constraint
//! matrix lives on the [`LpModel`] (built once, shared by every solve of
//! it), and a crash basis factors by substitution, so there is no
//! factorisation worth handing from one solve to the next.

use crate::error::SolveError;
use crate::model::LpModel;
use crate::simplex::{solve_sparse, SimplexOptions};
use crate::solution::{Basis, Solution, SolveStats};

/// Sparse / eta-file simplex with warm starts.
#[derive(Debug, Default)]
pub struct SparseSimplex {
    opts: SimplexOptions,
    warm: Option<Basis>,
    stats: SolveStats,
}

impl SparseSimplex {
    /// Solver with explicit simplex options.
    pub fn with_options(opts: SimplexOptions) -> Self {
        Self {
            opts,
            ..Self::default()
        }
    }

    /// Cold solve from the all-logical (slack) basis: ignores (and
    /// replaces) any retained warm state.
    pub fn solve(&mut self, model: &LpModel) -> Result<Solution, SolveError> {
        let sol = solve_sparse(model, &self.opts, None)?;
        Ok(self.remember(sol))
    }

    /// Re-solve after incremental model edits, warm-starting from the
    /// previous optimal (or seeded) basis when one is retained. Falls back
    /// to a cold solve when no state fits the model. A failed solve leaves
    /// the warm state untouched.
    pub fn resolve(&mut self, model: &LpModel) -> Result<Solution, SolveError> {
        let sol = solve_sparse(model, &self.opts, self.warm.as_ref())?;
        Ok(self.remember(sol))
    }

    fn remember(&mut self, sol: Solution) -> Solution {
        self.stats.merge(sol.stats());
        self.warm = Some(sol.basis().clone());
        sol
    }

    /// The basis the next `resolve` would warm-start from, if any.
    pub fn warm_basis(&self) -> Option<&Basis> {
        self.warm.as_ref()
    }

    /// Replace the warm state with an explicit basis (a crash basis, or a
    /// shared reference optimum several related queries start from).
    pub fn seed(&mut self, basis: &Basis) {
        self.warm = Some(basis.clone());
    }

    /// Drop the warm basis (the next `resolve` starts cold).
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// Cumulative solver-effort counters across every solve this solver
    /// has run (not cleared by [`SparseSimplex::reset`] — they are
    /// observability, not solver state).
    pub fn stats(&self) -> SolveStats {
        self.stats
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

    #[test]
    fn in_window_resolve_needs_no_pivots() {
        let mut b = SparseSimplex::default();
        let (m, _) = running_example(0.5);
        let first = b.solve(&m).unwrap();
        assert!(first.stats().pivots > 0);
        // 0.45 is inside the stability window [0.385, ∞) of the l ≥ 0.5
        // optimum: the warm basis is still optimal, so no pivot happens.
        let (m2, l2) = running_example(0.45);
        let second = b.resolve(&m2).unwrap();
        assert_eq!(second.stats().pivots, 0);
        assert!((second.objective() - 1.565).abs() < 1e-9);
        assert!((second.reduced_cost(l2) - 1.0).abs() < 1e-9);
        // 0.2 is below the 0.385 breakpoint: the warm solve pivots onto
        // the compute-dominated optimum.
        let (m3, l3) = running_example(0.2);
        let third = b.resolve(&m3).unwrap();
        assert!((third.objective() - 1.5).abs() < 1e-9);
        assert!(third.reduced_cost(l3).abs() < 1e-9);
    }

    #[test]
    fn warm_sweep_matches_cold_solves_bitwise() {
        let mut warm = SparseSimplex::default();
        for i in 0..20 {
            let l = 0.1 + 0.03 * i as f64;
            let (m, lv) = running_example(l);
            let a = warm.resolve(&m).unwrap();
            let b = SparseSimplex::default().solve(&m).unwrap();
            assert_eq!(a.objective().to_bits(), b.objective().to_bits(), "L={l}");
            assert_eq!(
                a.reduced_cost(lv).to_bits(),
                b.reduced_cost(lv).to_bits(),
                "L={l}"
            );
        }
    }

    /// A two-parameter miniature: `t ≥ c + 1·l + 2·g` beside a constant
    /// floor, so moving `l` and `g` *together* is a multi-parameter sweep
    /// step.
    fn two_param_example(l_lb: f64, g_lb: f64) -> (LpModel, VarId, VarId) {
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", l_lb, f64::INFINITY, 0.0);
        let g = m.add_var("g", g_lb, f64::INFINITY, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint("wire", &[(t, 1.0), (l, -1.0), (g, -2.0)], Relation::Ge, 0.4);
        m.add_constraint("comp", &[(t, 1.0)], Relation::Ge, 1.0);
        (m, l, g)
    }

    #[test]
    fn joint_lb_move_resolves_without_pivots() {
        let mut p = SparseSimplex::default();
        let (m, l, g) = two_param_example(0.5, 0.2);
        let first = p.solve(&m).unwrap();
        // Wire path active: T = 0.4 + 0.5 + 0.4 = 1.3, λ_l = 1, λ_g = 2.
        assert!((first.objective() - 1.3).abs() < 1e-9);
        assert!((first.reduced_cost(l) - 1.0).abs() < 1e-9);
        assert!((first.reduced_cost(g) - 2.0).abs() < 1e-9);
        // Both bounds move, staying on the wire-dominated facet: the warm
        // re-solve must not pivot and must match a cold solve bitwise.
        let (m2, l2, g2) = two_param_example(0.45, 0.25);
        let sol = p.resolve(&m2).unwrap();
        assert_eq!(sol.stats().pivots, 0, "joint in-window move must not pivot");
        let cold = SparseSimplex::default().solve(&m2).unwrap();
        assert_eq!(sol.objective().to_bits(), cold.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l2).to_bits(),
            cold.reduced_cost(l2).to_bits()
        );
        assert_eq!(
            sol.reduced_cost(g2).to_bits(),
            cold.reduced_cost(g2).to_bits()
        );
        // A joint move crossing the facet change (wire cost below the
        // 1.0 compute floor): the sensitivities drop to zero.
        let (m3, l3, g3) = two_param_example(0.1, 0.05);
        let sol3 = p.resolve(&m3).unwrap();
        assert!((sol3.objective() - 1.0).abs() < 1e-9);
        assert!(sol3.reduced_cost(l3).abs() < 1e-9);
        assert!(sol3.reduced_cost(g3).abs() < 1e-9);
    }

    #[test]
    fn directional_range_matches_componentwise_for_unit_moves() {
        let mut s = SparseSimplex::default();
        let (m, l, g) = two_param_example(0.5, 0.2);
        let sol = s.solve(&m).unwrap();
        // dir = e_l reproduces the classic per-column window.
        let (lo, hi) = sol.lb_step_range(&[(l, 1.0)]);
        let (vlo, vhi) = sol.lb_range(l);
        assert!((0.5 + lo - vlo).abs() < 1e-12 || (lo.is_infinite() && vlo.is_infinite()));
        assert!((0.5 + hi - vhi).abs() < 1e-12 || (hi.is_infinite() && vhi.is_infinite()));
        // The joint direction (−0.1, +0.05) keeps the wire facet active
        // while 1·δl + 2·δg = 0: the window must contain far more than a
        // unit step in that objective-neutral direction.
        let (lo2, hi2) = sol.lb_step_range(&[(l, -0.1), (g, 0.05)]);
        assert!(lo2 <= 0.0 && hi2 >= 1.0, "window [{lo2}, {hi2}]");
    }

    #[test]
    fn reset_forgets_state() {
        let mut b = SparseSimplex::default();
        let (m, _) = running_example(0.5);
        b.solve(&m).unwrap();
        b.reset();
        assert!(b.warm_basis().is_none());
        let (m2, _) = running_example(0.45);
        let sol = b.resolve(&m2).unwrap();
        // Cold again: pivots happen.
        assert!(sol.stats().pivots > 0);
    }
}
