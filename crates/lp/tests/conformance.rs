//! Solver conformance suite: the one solver ([`solve_sparse`]) under
//! every start it meets in this codebase, checked against two independent
//! oracles.
//!
//! Starts: cold (the all-logical slack basis), warm (started from the
//! cold optimum) and — for the DAG LPs that mirror Algorithm 1 — the exact
//! longest-path crash basis `llamp-core` builds.
//!
//! Oracles:
//!
//! * the dense-inverse simplex ([`solve_dense`]) from the same start: the
//!   same pivot rules on a different factorisation. Both must finish on
//!   the *same final basis*, and there every reported quantity —
//!   objective, primal values, reduced costs, duals, lower-bound ranging —
//!   must be **bit-for-bit** identical (canonical extraction makes a
//!   solution a pure function of model and basis);
//! * brute-force vertex enumeration: every start's objective must match
//!   the best feasible vertex to 1e-9.
//!
//! Inputs: random DAG longest-path LPs (proptest; integer cost grids so
//! degenerate ties are the norm) plus the Beale / degenerate fixed
//! corpus.
//!
//! Path independence: a crash-started zero-pivot solve (whose extraction
//! takes over the solver's own factor, `x_B`, `y` and reduced costs), a
//! slack-started cold solve that pivots (whose extraction refactorises
//! the final basis) and the dense oracle must agree bit for bit whenever
//! they end on the same basis.

use llamp_lp::simplex::{solve_dense, solve_sparse, SimplexOptions};
use llamp_lp::solution::VarStatus;
use llamp_lp::{Basis, ConId, LpModel, Objective, Solution, VarId};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const INF: f64 = f64::INFINITY;

// ---------------------------------------------------------------------
// LP descriptions: one source for the model and the enumeration oracle
// ---------------------------------------------------------------------

/// One row `lo ≤ Σ c·x_v ≤ hi` as `(terms, lo, hi)`.
type Row = (Vec<(usize, f64)>, f64, f64);

/// A dense description of an LP, from which the test builds both the
/// solver's model and the brute-force vertex enumeration.
struct Desc {
    maximize: bool,
    /// `(lb, ub, obj)` per variable.
    cols: Vec<(f64, f64, f64)>,
    rows: Vec<Row>,
}

impl Desc {
    fn model(&self) -> (LpModel, Vec<VarId>, Vec<ConId>) {
        let mut m = LpModel::new(if self.maximize {
            Objective::Maximize
        } else {
            Objective::Minimize
        });
        let vars: Vec<VarId> = (self.cols.iter().enumerate())
            .map(|(j, &(lb, ub, obj))| m.add_var(format!("x{j}"), lb, ub, obj))
            .collect();
        let cons = (self.rows.iter().enumerate())
            .map(|(i, (terms, lo, hi))| {
                let t: Vec<(VarId, f64)> = terms.iter().map(|&(v, c)| (vars[v], c)).collect();
                m.add_range_constraint(format!("r{i}"), &t, *lo, *hi)
            })
            .collect();
        (m, vars, cons)
    }

    fn feasible(&self, x: &[f64]) -> bool {
        let tol = |b: f64| 1e-7 * (1.0 + b.abs());
        let bounds = self
            .cols
            .iter()
            .zip(x)
            .map(|(&(lb, ub, _), &xj)| (lb, ub, xj));
        let rows = self.rows.iter().map(|(terms, lo, hi)| {
            let a: f64 = terms.iter().map(|&(v, c)| c * x[v]).sum();
            (*lo, *hi, a)
        });
        bounds
            .chain(rows)
            .all(|(lo, hi, a)| a >= lo - tol(lo) && a <= hi + tol(hi))
    }

    /// Best objective over every feasible vertex: each intersection of
    /// `n` hyperplanes drawn from finite row sides and finite variable
    /// bounds. `None` when no vertex is feasible.
    fn brute_force_optimum(&self) -> Option<f64> {
        let n = self.cols.len();
        let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
        for (terms, lo, hi) in &self.rows {
            let mut a = vec![0.0; n];
            for &(v, c) in terms {
                a[v] += c;
            }
            for side in [*lo, *hi] {
                if side.is_finite() {
                    planes.push((a.clone(), side));
                }
            }
        }
        for (j, &(lb, ub, _)) in self.cols.iter().enumerate() {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            for side in [lb, ub] {
                if side.is_finite() {
                    planes.push((e.clone(), side));
                }
            }
        }
        let k = planes.len();
        let mut best: Option<f64> = None;
        let mut idx: Vec<usize> = (0..n).collect();
        loop {
            let a = idx.iter().map(|&i| planes[i].0.clone()).collect();
            let b = idx.iter().map(|&i| planes[i].1).collect();
            if let Some(x) = solve_square(a, b).filter(|x| self.feasible(x)) {
                let obj: f64 = self.cols.iter().zip(&x).map(|(c, xj)| c.2 * xj).sum();
                best = Some(match best {
                    None => obj,
                    Some(cur) if self.maximize => cur.max(obj),
                    Some(cur) => cur.min(obj),
                });
            }
            // Next n-subset of the k planes, in lexicographic order.
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
}

/// Gaussian elimination with partial pivoting; `None` when singular.
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
            let f = a[r][col] / a[col][col];
            if r == col || f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

// ---------------------------------------------------------------------
// The battery
// ---------------------------------------------------------------------

/// Assert that `sol` and `reference` finished on the same basis and
/// that **every** reported quantity — objective, primal values, duals,
/// reduced costs, lower-bound ranging — is bit-for-bit identical.
fn assert_bitwise(
    label: &str,
    reference: &Solution,
    sol: &Solution,
    vars: &[VarId],
    cons: &[ConId],
) {
    assert_eq!(
        reference.basis(),
        sol.basis(),
        "{label}: final basis diverged"
    );
    assert_eq!(
        reference.objective().to_bits(),
        sol.objective().to_bits(),
        "{label}: objective bits differ on identical bases"
    );
    for &v in vars {
        assert_eq!(
            reference.value(v).to_bits(),
            sol.value(v).to_bits(),
            "{label}: x[{v:?}] bits"
        );
        assert_eq!(
            reference.reduced_cost(v).to_bits(),
            sol.reduced_cost(v).to_bits(),
            "{label}: d[{v:?}] bits"
        );
        let (rl, rh) = reference.lb_range(v);
        let (sl, sh) = sol.lb_range(v);
        assert_eq!(rl.to_bits(), sl.to_bits(), "{label}: lb_range lo[{v:?}]");
        assert_eq!(rh.to_bits(), sh.to_bits(), "{label}: lb_range hi[{v:?}]");
    }
    for &c in cons {
        assert_eq!(
            reference.dual(c).to_bits(),
            sol.dual(c).to_bits(),
            "{label}: y[{c:?}] bits"
        );
    }
}

/// Run the solver from every start against both oracles. Alternative
/// optimal bases may differ in non-binding primal values and degenerate
/// duals, so across starts only the objective is compared; bit-identity
/// is a same-basis contract.
fn battery(desc: &Desc, crash: Option<&Basis>) {
    let (model, vars, cons) = desc.model();
    let want = desc
        .brute_force_optimum()
        .expect("corpus LPs are feasible and bounded");
    let opts = SimplexOptions::default();
    let cold = solve_sparse(&model, &opts, None).expect("cold solve");
    let mut starts = vec![("cold", None), ("warm", Some(cold.basis()))];
    starts.extend(crash.map(|b| ("crash", Some(b))));
    for (label, start) in starts {
        let sol = solve_sparse(&model, &opts, start)
            .unwrap_or_else(|e| panic!("{label}: solve failed: {e}"));
        assert!(
            (sol.objective() - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "{label}: objective {} vs vertex enumeration {want}",
            sol.objective()
        );
        let oracle = solve_dense(&model, &opts, start)
            .unwrap_or_else(|e| panic!("{label}: dense oracle failed: {e}"));
        assert_bitwise(&format!("{label}/dense"), &oracle, &sol, &vars, &cons);
        if label == "warm" {
            // The warm start re-installs the cold optimum: zero pivots,
            // and the whole extraction reproduces bitwise.
            assert_eq!(sol.stats().pivots, 0, "warm start pivoted");
            assert_bitwise("warm/cold", &cold, &sol, &vars, &cons);
        }
    }
}

// ---------------------------------------------------------------------
// Random DAG longest-path LPs (the Algorithm-1 shape)
// ---------------------------------------------------------------------

/// One in-edge of a DAG vertex: predecessor (None ⇒ source row), integer
/// constant cost and latency multiplier.
type Edge = (Option<usize>, u8, u8);

#[derive(Debug, Clone)]
struct RandomDag {
    /// In-edges per vertex, topologically indexed (vertex 0 is a source).
    in_edges: Vec<Vec<Edge>>,
    /// Query latency lower bound.
    l0: f64,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    // A flat pool of (pred-seed, c, m) draws, folded into per-vertex
    // in-edge lists below: vertex 0 is the source (one defining row),
    // every later vertex j takes two in-edges with predecessors
    // `seed % j` — always topologically earlier. Six vertices at most
    // keep vertex enumeration to a few thousand candidate vertices.
    (
        3usize..=6,
        prop::collection::vec((0u16..4096, 0u8..5, 0u8..3), 11..=11),
        0.0f64..4.0,
    )
        .prop_map(|(k, pool, l0)| {
            let mut in_edges: Vec<Vec<Edge>> = Vec::with_capacity(k);
            let mut draws = pool.into_iter().cycle();
            for j in 0..k {
                let n = if j == 0 { 1 } else { 2 };
                let edges = (0..n)
                    .map(|_| {
                        let (seed, c, m) = draws.next().unwrap();
                        let pred = (j > 0).then(|| seed as usize % j);
                        (pred, c, m)
                    })
                    .collect();
                in_edges.push(edges);
            }
            RandomDag {
                in_edges,
                // Integer-snapped latency: exact longest-path ties abound.
                l0: l0.round(),
            }
        })
}

/// The Algorithm-1-shaped LP over columns `l = 0`, `t = 1`, `y_j = 2 + j`:
/// `min t`, `y_j ≥ y_p + c + m·l` per in-edge, `t ≥ y_s` per sink,
/// `l ≥ l0`. Also returns `(target, base or usize::MAX, c, m)` per row, the
/// records the crash recursion reads.
fn dag_lp(dag: &RandomDag) -> (Desc, Vec<(usize, usize, f64, f64)>) {
    let k = dag.in_edges.len();
    let y = |j: usize| 2 + j;
    let mut cols = vec![(dag.l0, INF, 0.0), (-INF, INF, 1.0)];
    cols.extend((0..k).map(|_| (-INF, INF, 0.0)));
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut has_succ = vec![false; k];
    for (j, edges) in dag.in_edges.iter().enumerate() {
        for &(p, c, mul) in edges {
            let (c, mul) = (c as f64, mul as f64);
            let mut terms = vec![(y(j), 1.0)];
            if let Some(p) = p {
                terms.push((y(p), -1.0));
                has_succ[p] = true;
            }
            if mul != 0.0 {
                terms.push((0, -mul));
            }
            rows.push((terms, c, INF));
            records.push((y(j), p.map_or(usize::MAX, y), c, mul));
        }
    }
    for j in (0..k).filter(|&j| !has_succ[j]) {
        rows.push((vec![(1, 1.0), (y(j), -1.0)], 0.0, INF));
        records.push((1, y(j), 0.0, 0.0));
    }
    let desc = Desc {
        maximize: false,
        cols,
        rows,
    };
    (desc, records)
}

/// The longest-path crash `llamp-core` would build at `l0`: each merge
/// variable (and `t`) basic on the row defining its max, ties to the
/// lowest row.
fn longest_path_crash(
    n_cols: usize,
    records: &[(usize, usize, f64, f64)],
    l0: f64,
) -> (Basis, f64) {
    let mut pot = vec![0.0f64; n_cols];
    let mut winner = vec![usize::MAX; n_cols];
    let mut best = vec![f64::NEG_INFINITY; n_cols];
    for (i, &(tgt, base, c, mul)) in records.iter().enumerate() {
        let from = if base == usize::MAX { 0.0 } else { pot[base] };
        let score = from + c + mul * l0;
        if winner[tgt] == usize::MAX || score > best[tgt] {
            winner[tgt] = i;
            best[tgt] = score;
        }
        if best[tgt] > pot[tgt] {
            pot[tgt] = best[tgt];
        }
    }
    let mut col_status = vec![VarStatus::Basic; n_cols];
    col_status[0] = VarStatus::AtLower;
    let mut row_status = vec![VarStatus::Basic; records.len()];
    for &w in winner.iter().filter(|&&w| w != usize::MAX) {
        row_status[w] = VarStatus::AtLower;
    }
    (Basis::from_statuses(col_status, row_status), pot[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full battery on random DAG LPs: cold, warm and longest-path
    /// crash starts against the dense oracle and vertex enumeration.
    #[test]
    fn dag_lps_conform_across_backends_and_starts(dag in dag_strategy()) {
        let (desc, records) = dag_lp(&dag);
        let (crash, _) = longest_path_crash(desc.cols.len(), &records, dag.l0);
        battery(&desc, Some(&crash));
    }

    /// The longest-path crash is optimal at its own point: starting from it
    /// solves with zero pivots, and the objective equals the forward
    /// longest-path recursion run in plain arithmetic.
    #[test]
    fn longest_path_crash_needs_no_pivots(dag in dag_strategy()) {
        let (desc, records) = dag_lp(&dag);
        let (crash, want) = longest_path_crash(desc.cols.len(), &records, dag.l0);
        let opts = SimplexOptions::default();
        let sol = solve_sparse(&desc.model().0, &opts, Some(&crash)).expect("crash-started solve");
        let stats = sol.stats();
        prop_assert!(stats.phase1_iterations == 0, "crash not primal feasible");
        prop_assert!(stats.pivots == 0, "crash not optimal: {} pivots", stats.pivots);
        prop_assert!(
            (sol.objective() - want).abs() <= 1e-9 * (1.0 + want),
            "objective {} vs longest path {}", sol.objective(), want
        );
    }
}

/// Path independence on random DAG LPs. The crash start never pivots and
/// factors its tree by substitution alone; the slack start pivots its way
/// to an optimum, and extraction picks that basis's factorisation by
/// structure. Where the two (or the dense oracle) end on the same basis
/// every reported bit must agree. Some cold solves must pivot onto a
/// triangular final basis, so the structural selection is exercised from
/// both starts.
#[test]
fn crash_cold_and_dense_agree_bitwise_on_shared_bases() {
    let mut rng = TestRng::from_name("conformance::path_independence");
    let dags = dag_strategy();
    let opts = SimplexOptions::default();
    let (mut shared, mut pivoted_onto_triangle) = (0, 0);
    for case in 0..256 {
        let dag = dags.sample(&mut rng);
        let (desc, records) = dag_lp(&dag);
        let (crash, _) = longest_path_crash(desc.cols.len(), &records, dag.l0);
        let (model, vars, cons) = desc.model();

        let crashed = solve_sparse(&model, &opts, Some(&crash)).expect("crash solve");
        let st = crashed.stats();
        assert_eq!(st.pivots, 0, "case {case}: crash pivoted");
        assert_eq!(
            (st.triangular_factors, st.lu_factors),
            (1, 0),
            "case {case}: a crash solve is one substitution factor, taken over by extraction"
        );
        let dense_crash = solve_dense(&model, &opts, Some(&crash)).expect("dense crash");
        assert_bitwise(
            &format!("case {case}: crash/dense"),
            &dense_crash,
            &crashed,
            &vars,
            &cons,
        );

        let cold = solve_sparse(&model, &opts, None).expect("cold solve");
        let dense = solve_dense(&model, &opts, None).expect("dense cold");
        assert_bitwise(
            &format!("case {case}: cold/dense"),
            &dense,
            &cold,
            &vars,
            &cons,
        );
        if cold.stats().pivots > 0 && cold.stats().lu_factors == 0 {
            pivoted_onto_triangle += 1;
        }
        if cold.basis() == crashed.basis() {
            shared += 1;
            assert_bitwise(
                &format!("case {case}: cold/crash"),
                &cold,
                &crashed,
                &vars,
                &cons,
            );
        }
    }
    assert!(shared > 0, "no cold solve ended on its crash basis");
    assert!(
        pivoted_onto_triangle > 0,
        "no cold solve pivoted onto a triangular basis"
    );
}

// ---------------------------------------------------------------------
// Beale / degenerate fixed corpus
// ---------------------------------------------------------------------

/// Beale's classic cycling example (optimum −1/20).
fn beale() -> Desc {
    Desc {
        maximize: false,
        cols: vec![
            (0.0, INF, -0.75),
            (0.0, INF, 150.0),
            (0.0, 1.0, -0.02),
            (0.0, INF, 6.0),
        ],
        rows: vec![
            (vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], -INF, 0.0),
            (vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], -INF, 0.0),
        ],
    }
}

/// A maximally degenerate star: many redundant constraints through one
/// vertex.
fn redundant_star(nvars: usize) -> Desc {
    let all: Vec<(usize, f64)> = (0..nvars).map(|j| (j, 1.0)).collect();
    Desc {
        maximize: false,
        cols: (0..nvars)
            .map(|j| (0.0, 10.0, 1.0 + j as f64 * 0.1))
            .collect(),
        rows: (0..4 * nvars).map(|_| (all.clone(), 5.0, INF)).collect(),
    }
}

/// A degenerate box: the optimum sits on a corner shared by every row.
fn tied_box() -> Desc {
    Desc {
        maximize: true,
        cols: vec![(0.0, 4.0, 1.0), (0.0, 4.0, 1.0)],
        rows: vec![
            (vec![(0, 1.0), (1, 1.0)], -INF, 4.0),
            (vec![(0, 1.0)], -INF, 4.0),
            (vec![(1, 1.0)], -INF, 4.0),
            (vec![(0, 2.0), (1, 2.0)], -INF, 8.0),
        ],
    }
}

#[test]
fn beale_corpus_conforms_across_backends_and_starts() {
    for desc in [beale(), redundant_star(3), redundant_star(4), tied_box()] {
        battery(&desc, None);
    }
}
