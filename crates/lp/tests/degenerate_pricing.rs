//! Degenerate / cycling-prone LPs under the partial-pricing hot path.
//!
//! The pivoting oracle prices with candidate-list Devex over
//! *incrementally maintained* reduced costs instead of full-scan Dantzig.
//! Two properties keep that honest:
//!
//! 1. **Termination.** Degenerate problems — the inputs that make naive
//!    simplex cycle — must still terminate: the Bland fallback kicks in
//!    after a degenerate streak regardless of the pricing strategy, and
//!    a from-scratch reduced-cost resync runs when the streak begins, so
//!    Bland's argument is applied to trustworthy numbers.
//! 2. **Incremental accuracy.** At every periodic resynchronisation the
//!    incrementally updated reduced costs are compared against a
//!    from-scratch recompute; the worst relative gap is reported in
//!    [`SolveStats::max_resync_drift`] and must stay at rounding level
//!    (≤ 1e-9) — far below the 1e-7 optimality tolerance the pricing
//!    decisions are made at.

use llamp_lp::simplex::{solve, SimplexOptions};
use llamp_lp::{LpModel, Objective, Relation};
use proptest::prelude::*;

/// Beale's classic cycling example: Dantzig pricing without anti-cycling
/// loops forever on it. The optimum is −1/20.
#[test]
fn beale_cycling_example_terminates_at_optimum() {
    let mut m = LpModel::new(Objective::Minimize);
    let x1 = m.add_var("x1", 0.0, f64::INFINITY, -0.75);
    let x2 = m.add_var("x2", 0.0, f64::INFINITY, 150.0);
    let x3 = m.add_var("x3", 0.0, 1.0, -0.02);
    let x4 = m.add_var("x4", 0.0, f64::INFINITY, 6.0);
    m.add_constraint(
        "r1",
        &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::Le,
        0.0,
    );
    m.add_constraint(
        "r2",
        &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::Le,
        0.0,
    );
    let sol = m.solve().expect("Beale's example is solvable");
    assert!(
        (sol.objective() - (-0.05)).abs() < 1e-9,
        "objective {} vs -0.05",
        sol.objective()
    );
}

/// A maximally degenerate star: every constraint passes through the same
/// vertex, with redundant copies. Bland must terminate it even when
/// forced from the first iteration.
#[test]
fn redundant_star_terminates_under_forced_bland() {
    for nvars in [2usize, 4, 6] {
        let mut m = LpModel::new(Objective::Minimize);
        let vars: Vec<_> = (0..nvars)
            .map(|j| m.add_var(format!("x{j}"), 0.0, 10.0, 1.0 + j as f64 * 0.1))
            .collect();
        for i in 0..4 * nvars {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(j, &v)| (v, 1.0 + ((i + j) % 3) as f64 * 0.0))
                .collect();
            m.add_constraint(format!("r{i}"), &terms, Relation::Ge, 5.0);
        }
        let opts = SimplexOptions {
            bland_after: 0, // least-index from the very first pivot
            ..Default::default()
        };
        let sol = solve(&m, &opts, None).expect("degenerate star is feasible");
        let dantzig = solve(&m, &SimplexOptions::default(), None).expect("and under devex pricing");
        assert!(
            (sol.objective() - dantzig.objective()).abs() < 1e-6 * (1.0 + sol.objective().abs()),
            "bland {} vs devex {}",
            sol.objective(),
            dantzig.objective()
        );
    }
}

/// A constraint row over `nvars` variables: sparse terms, relation code
/// (0 ≤, 1 ≥, 2 =), rhs snapped to a small grid so ties and degenerate
/// vertices are common.
type RandomRow = (Vec<(usize, f64)>, u8, f64);

#[derive(Debug, Clone)]
struct DegenerateLp {
    nvars: usize,
    ubs: Vec<f64>,
    objs: Vec<f64>,
    rows: Vec<RandomRow>,
}

fn degenerate_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = DegenerateLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let ubs = prop::collection::vec(1.0f64..5.0, nvars);
        let objs = prop::collection::vec(-3.0f64..3.0, nvars);
        // Integer coefficients and rhs values drawn from a tiny set makes
        // coincident hyperplanes — degeneracy — the norm, not the
        // exception.
        let row = (
            prop::collection::vec((0..nvars, -2.0f64..2.0), 1..=3),
            0u8..3,
            0.0f64..3.0,
        );
        let rows = prop::collection::vec(row, 2..=max_rows);
        (ubs, objs, rows).prop_map(move |(ubs, objs, rows)| {
            let rows = rows
                .into_iter()
                .map(|(terms, rel, rhs)| {
                    let terms: Vec<(usize, f64)> = terms
                        .into_iter()
                        .map(|(v, c)| (v, c.round()))
                        .filter(|&(_, c)| c != 0.0)
                        .collect();
                    (terms, rel, rhs.round())
                })
                .filter(|(terms, _, _)| !terms.is_empty())
                .collect();
            DegenerateLp {
                nvars,
                ubs,
                objs,
                rows,
            }
        })
    })
}

fn build(lp: &DegenerateLp) -> LpModel {
    let mut m = LpModel::new(Objective::Minimize);
    let vars: Vec<_> = (0..lp.nvars)
        .map(|j| m.add_var(format!("x{j}"), 0.0, lp.ubs[j], lp.objs[j]))
        .collect();
    for (i, (terms, rel, rhs)) in lp.rows.iter().enumerate() {
        let t: Vec<_> = terms.iter().map(|&(v, c)| (vars[v], c)).collect();
        let rel = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        m.add_constraint(format!("r{i}"), &t, rel, *rhs);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cycling-prone LPs terminate (no iteration-limit verdicts), with or
    /// without the Bland fallback forced on, and both pricing modes land
    /// on the same objective.
    #[test]
    fn degenerate_lps_terminate(lp in degenerate_lp(5, 8)) {
        use llamp_lp::SolveError;
        let m = build(&lp);
        let devex = solve(&m, &SimplexOptions::default(), None);
        let bland = solve(&m, &SimplexOptions { bland_after: 0, ..Default::default() }, None);
        prop_assert!(!matches!(devex, Err(SolveError::IterationLimit)), "devex hit the cap");
        prop_assert!(!matches!(bland, Err(SolveError::IterationLimit)), "bland hit the cap");
        if let (Ok(a), Ok(b)) = (&devex, &bland) {
            prop_assert!(
                (a.objective() - b.objective()).abs() < 1e-5 * (1.0 + a.objective().abs()),
                "objectives differ: {} vs {}", a.objective(), b.objective()
            );
        }
    }

    /// With refactorisation (and therefore resynchronisation) forced every
    /// few pivots, the incrementally maintained reduced costs must match
    /// the from-scratch recompute to 1e-9 at every resync.
    #[test]
    fn incremental_reduced_costs_match_recompute(lp in degenerate_lp(5, 8)) {
        let m = build(&lp);
        let opts = SimplexOptions { refactor_every: 4, ..Default::default() };
        if let Ok(sol) = solve(&m, &opts, None) {
            prop_assert!(
                sol.stats().max_resync_drift <= 1e-9,
                "incremental reduced costs drifted: {:.3e}",
                sol.stats().max_resync_drift
            );
        }
    }
}
