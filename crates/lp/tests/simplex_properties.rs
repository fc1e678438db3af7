//! Property tests for the simplex solver.
//!
//! Strategy: generate random bounded LPs, solve, and check the *certificates*
//! rather than re-deriving the optimum: primal feasibility of the returned
//! point, consistency across solver configurations (refactorising every
//! pivot must agree with eta-update-only runs), duality relationships, and
//! agreement with brute-force vertex enumeration on tiny instances.

use llamp_lp::simplex::{solve, solve_dense, solve_sparse, SimplexOptions};
use llamp_lp::{ConId, LpModel, Objective, Relation, Solution, SolveError, VarId};
use proptest::prelude::*;

/// A constraint row: sparse terms, relation code (0 ≤, 1 ≥, 2 =), rhs.
type RandomRow = (Vec<(usize, f64)>, u8, f64);

#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    lbs: Vec<f64>,
    ubs: Vec<f64>,
    objs: Vec<f64>,
    rows: Vec<RandomRow>,
    maximize: bool,
}

fn lp_strategy(max_vars: usize, max_rows: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let bounds = prop::collection::vec((0.0f64..5.0, 0.0f64..10.0), nvars);
        let objs = prop::collection::vec(-5.0f64..5.0, nvars);
        let row = (
            prop::collection::vec((0..nvars, -3.0f64..3.0), 1..=3),
            0u8..3,
            -10.0f64..20.0,
        );
        let rows = prop::collection::vec(row, 1..=max_rows);
        (bounds, objs, rows, any::<bool>()).prop_map(move |(bounds, objs, rows, maximize)| {
            let (lbs, spans): (Vec<f64>, Vec<f64>) = bounds.into_iter().unzip();
            let ubs: Vec<f64> = lbs.iter().zip(&spans).map(|(l, s)| l + s).collect();
            RandomLp {
                nvars,
                lbs,
                ubs,
                objs,
                rows,
                maximize,
            }
        })
    })
}

fn build(lp: &RandomLp) -> (LpModel, Vec<VarId>, Vec<ConId>) {
    let mut m = LpModel::new(if lp.maximize {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<VarId> = (0..lp.nvars)
        .map(|j| m.add_var(format!("x{j}"), lp.lbs[j], lp.ubs[j], lp.objs[j]))
        .collect();
    let mut cons = Vec::new();
    for (i, (terms, rel, rhs)) in lp.rows.iter().enumerate() {
        let t: Vec<(VarId, f64)> = terms.iter().map(|&(v, c)| (vars[v], c)).collect();
        let rel = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        cons.push(m.add_constraint(format!("r{i}"), &t, rel, *rhs));
    }
    (m, vars, cons)
}

/// Whether two outcomes agree bit for bit: the same error, or the same
/// objective, primal values, reduced costs and duals over the listed
/// variables and rows.
fn same_bits(
    a: &Result<Solution, SolveError>,
    b: &Result<Solution, SolveError>,
    vars: &[VarId],
    cons: &[ConId],
) -> Result<(), String> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            if x.objective().to_bits() != y.objective().to_bits() {
                return Err(format!("objective {} vs {}", x.objective(), y.objective()));
            }
            for &v in vars {
                if x.value(v).to_bits() != y.value(v).to_bits() {
                    return Err(format!("x[{v:?}]"));
                }
                if x.reduced_cost(v).to_bits() != y.reduced_cost(v).to_bits() {
                    return Err(format!("d[{v:?}]"));
                }
            }
            for &c in cons {
                if x.dual(c).to_bits() != y.dual(c).to_bits() {
                    return Err(format!("y[{c:?}]"));
                }
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        (x, y) => Err(format!("status mismatch: {x:?} vs {y:?}")),
    }
}

/// Check that a point satisfies all rows and bounds within tolerance.
fn is_feasible(lp: &RandomLp, x: &[f64]) -> bool {
    const TOL: f64 = 1e-5;
    for (j, &xj) in x.iter().enumerate() {
        if xj < lp.lbs[j] - TOL || xj > lp.ubs[j] + TOL {
            return false;
        }
    }
    for (terms, rel, rhs) in &lp.rows {
        let a: f64 = terms.iter().map(|&(v, c)| c * x[v]).sum();
        let ok = match rel {
            0 => a <= rhs + TOL,
            1 => a >= rhs - TOL,
            _ => (a - rhs).abs() <= TOL,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Solve a dense square linear system by Gaussian elimination with
/// partial pivoting. `None` when (numerically) singular.
// Rows are eliminated in place against the pivot row; indexing keeps the
// two-row access pattern legible.
#[allow(clippy::needless_range_loop)]
fn solve_square(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let piv = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[piv][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[r][k] -= f * a[col][k];
            }
            b[r] -= f * b[col];
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

/// Brute-force LP optimum: enumerate every candidate vertex (intersection
/// of `nvars` hyperplanes drawn from row-equalities and variable bounds),
/// keep the feasible ones, and return the best objective. `None` when no
/// candidate vertex is feasible.
fn brute_force_optimum(lp: &RandomLp) -> Option<f64> {
    let n = lp.nvars;
    // Hyperplanes: each row at equality, each bound.
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for (terms, _, rhs) in &lp.rows {
        let mut a = vec![0.0; n];
        for &(v, c) in terms {
            a[v] += c;
        }
        planes.push((a, *rhs));
    }
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        planes.push((e.clone(), lp.lbs[j]));
        planes.push((e, lp.ubs[j]));
    }
    let mut best: Option<f64> = None;
    let k = planes.len();
    // All C(k, n) subsets via a mixed-radix combination walk.
    let mut idx: Vec<usize> = (0..n).collect();
    loop {
        let a: Vec<Vec<f64>> = idx.iter().map(|&i| planes[i].0.clone()).collect();
        let b: Vec<f64> = idx.iter().map(|&i| planes[i].1).collect();
        if let Some(x) = solve_square(a, b) {
            if is_feasible(lp, &x) {
                let obj: f64 = (0..n).map(|j| lp.objs[j] * x[j]).sum();
                best = Some(match best {
                    None => obj,
                    Some(cur) if lp.maximize => cur.max(obj),
                    Some(cur) => cur.min(obj),
                });
            }
        }
        // Next combination.
        let mut i = n;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if idx[i] + (n - i) < k {
                idx[i] += 1;
                for j in i + 1..n {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The returned "optimal" point is actually feasible, and the reported
    /// objective matches the point.
    #[test]
    fn solutions_are_feasible(lp in lp_strategy(5, 6)) {
        let (m, vars, _) = build(&lp);
        if let Ok(sol) = m.solve() {
            let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
            prop_assert!(is_feasible(&lp, &x), "infeasible point returned: {x:?}");
            let obj: f64 = (0..lp.nvars).map(|j| lp.objs[j] * x[j]).sum();
            prop_assert!((obj - sol.objective()).abs() < 1e-5 * (1.0 + obj.abs()));
        }
    }

    /// Eta updates must agree with refactorising after every pivot — the
    /// configuration that exposed the phase-1 ratio-test bug during
    /// development.
    #[test]
    fn refactor_frequency_does_not_change_answers(lp in lp_strategy(5, 6)) {
        let (m, _, _) = build(&lp);
        let every = SimplexOptions { refactor_every: 1, ..Default::default() };
        let never = SimplexOptions { refactor_every: 1_000_000, ..Default::default() };
        let a = solve(&m, &every);
        let b = solve(&m, &never);
        match (a, b) {
            (Ok(sa), Ok(sb)) => {
                prop_assert!(
                    (sa.objective() - sb.objective()).abs() < 1e-5 * (1.0 + sa.objective().abs()),
                    "objectives differ: {} vs {}", sa.objective(), sb.objective()
                );
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (x, y) => prop_assert!(false, "status mismatch: {x:?} vs {y:?}"),
        }
    }

    /// Bland-from-the-start agrees with Dantzig pricing.
    #[test]
    fn pricing_rule_does_not_change_answers(lp in lp_strategy(5, 6)) {
        let (m, _, _) = build(&lp);
        let dantzig = SimplexOptions::default();
        let bland = SimplexOptions { bland_after: 0, ..Default::default() };
        if let (Ok(a), Ok(b)) = (solve(&m, &dantzig), solve(&m, &bland)) {
            prop_assert!(
                (a.objective() - b.objective()).abs() < 1e-5 * (1.0 + a.objective().abs())
            );
        }
    }

    /// Tiny LPs vs. brute force: sample the box on a grid, keep feasible
    /// points; the solver's optimum must weakly dominate all of them.
    #[test]
    fn optimum_dominates_grid_samples(lp in lp_strategy(3, 4)) {
        let (m, _, _) = build(&lp);
        if let Ok(sol) = m.solve() {
            let steps = 7usize;
            let mut idx = vec![0usize; lp.nvars];
            loop {
                let x: Vec<f64> = (0..lp.nvars)
                    .map(|j| lp.lbs[j] + (lp.ubs[j] - lp.lbs[j]) * idx[j] as f64 / (steps - 1) as f64)
                    .collect();
                if is_feasible(&lp, &x) {
                    let obj: f64 = (0..lp.nvars).map(|j| lp.objs[j] * x[j]).sum();
                    if lp.maximize {
                        prop_assert!(sol.objective() >= obj - 1e-4 * (1.0 + obj.abs()),
                            "grid point beats optimum: {obj} > {}", sol.objective());
                    } else {
                        prop_assert!(sol.objective() <= obj + 1e-4 * (1.0 + obj.abs()),
                            "grid point beats optimum: {obj} < {}", sol.objective());
                    }
                }
                // advance the mixed-radix counter
                let mut k = 0;
                loop {
                    if k == lp.nvars { return Ok(()); }
                    idx[k] += 1;
                    if idx[k] < steps { break; }
                    idx[k] = 0;
                    k += 1;
                }
            }
        }
    }

    /// An infeasibility verdict must be genuine: no grid point may satisfy
    /// all constraints.
    #[test]
    fn infeasible_verdicts_have_no_witness(lp in lp_strategy(3, 4)) {
        let (m, _, _) = build(&lp);
        if let Err(llamp_lp::SolveError::Infeasible) = m.solve() {
            let steps = 9usize;
            let mut idx = vec![0usize; lp.nvars];
            loop {
                let x: Vec<f64> = (0..lp.nvars)
                    .map(|j| lp.lbs[j] + (lp.ubs[j] - lp.lbs[j]) * idx[j] as f64 / (steps - 1) as f64)
                    .collect();
                // Use a strict margin: grid feasibility within -1e-3 slack
                // would contradict the verdict.
                let strictly_ok = lp.rows.iter().all(|(terms, rel, rhs)| {
                    let a: f64 = terms.iter().map(|&(v, c)| c * x[v]).sum();
                    match rel {
                        0 => a <= rhs - 1e-3,
                        1 => a >= rhs + 1e-3,
                        _ => (a - rhs).abs() <= 0.0,
                    }
                });
                prop_assert!(!strictly_ok, "witness found for 'infeasible' LP: {x:?}");
                let mut k = 0;
                loop {
                    if k == lp.nvars { return Ok(()); }
                    idx[k] += 1;
                    if idx[k] < steps { break; }
                    idx[k] = 0;
                    k += 1;
                }
            }
        }
    }

    /// The dense and sparse factorisation paths must agree on the whole
    /// reported optimum: status, objective, primal values, duals, reduced
    /// costs and bound ranging, all within 1e-7 (in practice they are
    /// bit-identical thanks to deterministic tie-breaking and canonical
    /// extraction).
    #[test]
    fn dense_and_sparse_backends_agree(lp in lp_strategy(5, 6)) {
        let (m, vars, cons) = build(&lp);
        let opts = SimplexOptions::default();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-7 * (1.0 + a.abs());
        match (solve_dense(&m, &opts, None), solve_sparse(&m, &opts, None)) {
            (Ok(d), Ok(s)) => {
                prop_assert!(close(d.objective(), s.objective()),
                    "objective: {} vs {}", d.objective(), s.objective());
                for &v in &vars {
                    prop_assert!(close(d.value(v), s.value(v)), "x[{v:?}]");
                    prop_assert!(close(d.reduced_cost(v), s.reduced_cost(v)), "d[{v:?}]");
                    let (dl, dh) = d.lb_range(v);
                    let (sl, sh) = s.lb_range(v);
                    prop_assert!(dl == sl || close(dl, sl), "lb_range lo[{v:?}]: {dl} vs {sl}");
                    prop_assert!(dh == sh || close(dh, sh), "lb_range hi[{v:?}]: {dh} vs {sh}");
                }
                for &c in &cons {
                    prop_assert!(close(d.dual(c), s.dual(c)), "y[{c:?}]: {} vs {}",
                        d.dual(c), s.dual(c));
                }
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (x, y) => prop_assert!(false, "status mismatch: {x:?} vs {y:?}"),
        }
    }

    /// Both simplex paths must agree with brute-force vertex enumeration
    /// on tiny instances: the optimum of a bounded LP sits on a vertex,
    /// and every vertex is the intersection of n active hyperplanes.
    #[test]
    fn backends_agree_with_vertex_enumeration(lp in lp_strategy(3, 3)) {
        let (m, _, _) = build(&lp);
        let opts = SimplexOptions::default();
        for sol in [solve_dense(&m, &opts, None), solve_sparse(&m, &opts, None)]
            .into_iter()
            .flatten()
        {
            // The box is bounded, so an optimum must sit on a vertex.
            let best = brute_force_optimum(&lp);
            prop_assert!(best.is_some(), "solver found an optimum but enumeration none");
            let best = best.unwrap();
            prop_assert!(
                (sol.objective() - best).abs() <= 1e-6 * (1.0 + best.abs()),
                "objective {} vs brute force {}", sol.objective(), best
            );
        }
    }

    /// Warm-starting from a neighbouring model's basis must not change
    /// the reported optimum.
    #[test]
    fn warm_start_agrees_with_cold(lp in lp_strategy(5, 6), bump in 0.0f64..1.0) {
        let (m, _, _) = build(&lp);
        let opts = SimplexOptions::default();
        if let Ok(first) = solve_sparse(&m, &opts, None) {
            // Tighten var 0's lower bound part-way up its box.
            let mut lp2 = lp.clone();
            lp2.lbs[0] += (lp2.ubs[0] - lp2.lbs[0]) * bump * 0.5;
            let (m2, vars, cons) = build(&lp2);
            let warm = solve_sparse(&m2, &opts, Some(first.basis()));
            let cold = solve_sparse(&m2, &opts, None);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-7 * (1.0 + a.abs());
            match (warm, cold) {
                (Ok(w), Ok(c)) => {
                    prop_assert!(close(w.objective(), c.objective()),
                        "objective: {} vs {}", w.objective(), c.objective());
                    for &v in &vars {
                        prop_assert!(close(w.value(v), c.value(v)), "x[{v:?}]");
                    }
                    for &con in &cons {
                        prop_assert!(close(w.dual(con), c.dual(con)), "y[{con:?}]");
                    }
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (x, y) => prop_assert!(false, "status mismatch: {x:?} vs {y:?}"),
            }
        }
    }

    /// The matrix a model keeps for its solves never goes stale. A model
    /// that already holds its built matrix, solved from its previous
    /// optimum, must answer bit for bit like a freshly built model after
    /// it grows a constraint, then a variable. A clone shares the built
    /// matrix: edited on its own it must answer like a fresh model with
    /// the same edits, and the original must not see those edits.
    #[test]
    fn kept_matrix_never_goes_stale(
        lp in lp_strategy(5, 6),
        rhs in -5.0f64..15.0,
        coef in -3.0f64..3.0,
        bump in 0.0f64..1.0,
    ) {
        let edit_row = |m: &mut LpModel, vars: &[VarId]| {
            m.add_constraint("grown", &[(vars[0], 1.0), (vars[1], coef)], Relation::Le, rhs);
        };
        let edit_var = |m: &mut LpModel, vars: &[VarId]| {
            let z = m.add_var("z", 0.0, 4.0, -1.0);
            m.add_constraint("uses_z", &[(z, 1.0), (vars[0], -1.0)], Relation::Le, 1.0);
        };
        let opts = SimplexOptions::default();
        let cold = |m: &LpModel| solve_sparse(m, &opts, None);
        // A solve started from the previous solve's optimum, if any.
        let after = |m: &LpModel, prev: &Result<Solution, SolveError>| {
            solve_sparse(m, &opts, prev.as_ref().ok().map(Solution::basis))
        };
        let (mut m, vars, cons) = build(&lp);
        let first = cold(&m);
        let clone = m.clone();

        edit_row(&mut m, &vars);
        let (mut fresh, _, _) = build(&lp);
        edit_row(&mut fresh, &vars);
        let grown_row = after(&m, &first);
        let check = same_bits(&grown_row, &cold(&fresh), &vars, &cons);
        prop_assert!(check.is_ok(), "after add_constraint: {check:?}");

        edit_var(&mut m, &vars);
        edit_var(&mut fresh, &vars);
        let grown = after(&m, if grown_row.is_ok() { &grown_row } else { &first });
        let check = same_bits(&grown, &cold(&fresh), &vars, &cons);
        prop_assert!(check.is_ok(), "after add_var: {check:?}");

        let mut clone = clone;
        let mut lp2 = lp.clone();
        lp2.lbs[0] += (lp2.ubs[0] - lp2.lbs[0]) * bump;
        clone.set_var_lb(vars[0], lp2.lbs[0]);
        edit_row(&mut clone, &vars);
        let (mut fresh2, _, _) = build(&lp2);
        edit_row(&mut fresh2, &vars);
        let check = same_bits(&cold(&clone), &cold(&fresh2), &vars, &cons);
        prop_assert!(check.is_ok(), "edited clone: {check:?}");

        let check = same_bits(&cold(&m), &grown, &vars, &cons);
        prop_assert!(check.is_ok(), "original after clone edits: {check:?}");
        let check = same_bits(&cold(&build(&lp).0), &first, &vars, &cons);
        prop_assert!(check.is_ok(), "first solve: {check:?}");
    }

    /// Reduced-cost sign convention at optimum: for minimisation, nonbasic
    /// variables at lower bound have d >= 0 and at upper bound d <= 0.
    #[test]
    fn reduced_cost_signs(lp in lp_strategy(4, 5)) {
        use llamp_lp::solution::VarStatus;
        let (m, vars, _) = build(&lp);
        if let Ok(sol) = m.solve() {
            let sign = if lp.maximize { -1.0 } else { 1.0 };
            for &v in &vars {
                let d = sign * sol.reduced_cost(v);
                match sol.var_status(v) {
                    VarStatus::AtLower => prop_assert!(d >= -1e-5, "d={d} at lower"),
                    VarStatus::AtUpper => prop_assert!(d <= 1e-5, "d={d} at upper"),
                    _ => {}
                }
            }
        }
    }
}
