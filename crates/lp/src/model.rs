//! LP model builder.
//!
//! The representation follows solver conventions rather than textbook
//! canonical form: every variable carries a `[lb, ub]` box (either side may
//! be infinite) and every constraint is a *range row* `lb ≤ aᵀx ≤ ub`.
//! Plain `≤` / `≥` / `=` rows are special cases. This makes the bounded
//! simplex natural and lets callers tighten a single variable bound (the
//! paper's `l ≥ L` step in Algorithm 2) without touching the constraint
//! matrix.

use crate::factor::ColsView;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Handle to a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConId(pub u32);

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimise the objective function (LLAMP runtime prediction).
    #[default]
    Minimize,
    /// Maximise the objective function (LLAMP latency tolerance).
    Maximize,
}

/// Constraint sense for the convenience [`LpModel::add_constraint`] API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `aᵀx ≤ rhs`
    Le,
    /// `aᵀx ≥ rhs`
    Ge,
    /// `aᵀx = rhs`
    Eq,
}

/// Names and `[lb, ub]` boxes of the variables, or of the rows, as
/// parallel arrays: a solve copies the bounds wholesale.
#[derive(Debug, Clone, Default)]
pub(crate) struct Boxes {
    pub names: Vec<String>,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
}

impl Boxes {
    fn push(&mut self, name: String, lb: f64, ub: f64) -> u32 {
        self.names.push(name);
        self.lb.push(lb);
        self.ub.push(ub);
        (self.names.len() - 1) as u32
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// The constraint matrix in the simplex's computational form, built once
/// per model and shared by every solve of it: the column-wise extended
/// matrix (structural columns, then one logical column with `−1` at its
/// row, from `aᵀx − s = 0`) and a row-wise mirror of the structural part
/// (logicals stay implicit). Only `add_var` and `add_*constraint` change
/// it; bound, objective and sense edits leave it alone.
pub(crate) struct Matrix {
    pub m: usize,
    pub n_struct: usize,
    pub col_start: Vec<usize>,
    pub col_rows: Vec<u32>,
    pub col_vals: Vec<f64>,
    pub row_start: Vec<usize>,
    pub row_cols: Vec<u32>,
    pub row_vals: Vec<f64>,
}

impl Matrix {
    fn build(model: &LpModel) -> Self {
        let m = model.row_end.len();
        let n_struct = model.vars.len();
        let n_total = n_struct + m;
        let mut col_start = vec![0usize; n_total + 1];
        for &(v, _) in &model.terms {
            col_start[v as usize + 1] += 1;
        }
        for i in 0..m {
            col_start[n_struct + i + 1] = 1;
        }
        for j in 0..n_total {
            col_start[j + 1] += col_start[j];
        }
        let nnz = col_start[n_total];
        let mut col_rows = vec![0u32; nnz];
        let mut col_vals = vec![0.0f64; nnz];
        let mut fill = col_start[..n_total].to_vec();
        for i in 0..m {
            for &(v, c) in model.row_terms(i) {
                let p = fill[v as usize];
                col_rows[p] = i as u32;
                col_vals[p] = c;
                fill[v as usize] += 1;
            }
        }
        for i in 0..m {
            let p = fill[n_struct + i];
            col_rows[p] = i as u32;
            col_vals[p] = -1.0;
        }

        // The row-wise half is the model's own flat rows.
        let mut row_start = Vec::with_capacity(m + 1);
        row_start.push(0);
        row_start.extend_from_slice(&model.row_end);
        let row_cols = model.terms.iter().map(|&(v, _)| v).collect();
        let row_vals = model.terms.iter().map(|&(_, c)| c).collect();
        Self {
            m,
            n_struct,
            col_start,
            col_rows,
            col_vals,
            row_start,
            row_cols,
            row_vals,
        }
    }

    /// Column-wise view for the factorisations.
    pub fn cols(&self) -> ColsView<'_> {
        ColsView {
            start: &self.col_start,
            rows: &self.col_rows,
            vals: &self.col_vals,
        }
    }

    /// `a_jᵀ y` for extended column `j` and a row-space vector `y`.
    pub fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for idx in self.col_start[j]..self.col_start[j + 1] {
            acc += self.col_vals[idx] * y[self.col_rows[idx] as usize];
        }
        acc
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.m)
            .field("cols", &(self.n_struct + self.m))
            .field("nnz", &self.col_rows.len())
            .finish()
    }
}

/// A linear program under construction.
///
/// Rows are stored flat, the way the solver's row-wise matrix holds them:
/// every row's `(column, coefficient)` terms in one array, row after row,
/// with one end offset per row. Adding a constraint appends its terms at
/// the tail and sorts and merges them in place, so building a model
/// allocates per array growth, not per row, and a variable or row added
/// with an empty name allocates nothing for it (the text form prints it
/// as `x{index}`).
///
/// ```
/// use llamp_lp::{LpModel, Objective, Relation};
///
/// // The paper's running example (Fig. 5): min t
/// //   y1 >= l + 0.115, y1 >= 0.5, t >= 1.1, t >= y1 + 1, l >= 0.5
/// let mut m = LpModel::new(Objective::Minimize);
/// let l = m.add_var("l", 0.5, f64::INFINITY, 0.0);
/// let y1 = m.add_var("y1", f64::NEG_INFINITY, f64::INFINITY, 0.0);
/// let t = m.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
/// m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
/// m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
/// m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
/// m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
/// let sol = m.solve().unwrap();
/// assert!((sol.objective() - 1.615).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpModel {
    pub(crate) sense: Objective,
    pub(crate) vars: Boxes,
    /// Objective coefficient per variable.
    pub(crate) obj: Vec<f64>,
    pub(crate) rows: Boxes,
    /// End offset of each row's terms in `terms` (a row starts where the
    /// previous one ends).
    pub(crate) row_end: Vec<usize>,
    /// Every row's `(column, coefficient)` terms, row after row; each
    /// row sorted by column, deduplicated, exact zeros dropped.
    pub(crate) terms: Vec<(u32, f64)>,
    /// The computational-form matrix, built by the first solve and
    /// dropped by every edit that changes it (a clone shares it until
    /// its own first such edit).
    matrix: OnceLock<Arc<Matrix>>,
}

impl LpModel {
    /// Create an empty model with the given optimisation direction.
    pub fn new(sense: Objective) -> Self {
        Self {
            sense,
            ..Self::default()
        }
    }

    /// Add a variable with box bounds and objective coefficient, returning
    /// its handle. Use `f64::NEG_INFINITY` / `f64::INFINITY` for free sides.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(
            lb <= ub,
            "variable bounds crossed: lb={lb} > ub={ub} for {}",
            name.into()
        );
        self.matrix.take();
        self.obj.push(obj);
        VarId(self.vars.push(name.into(), lb, ub))
    }

    /// Add a `≤` / `≥` / `=` constraint over the given `(variable,
    /// coefficient)` terms. Duplicate variables in `terms` are summed.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        rel: Relation,
        rhs: f64,
    ) -> ConId {
        let (lb, ub) = match rel {
            Relation::Le => (f64::NEG_INFINITY, rhs),
            Relation::Ge => (rhs, f64::INFINITY),
            Relation::Eq => (rhs, rhs),
        };
        self.add_range_constraint(name, terms, lb, ub)
    }

    /// Add a range constraint `lb ≤ aᵀx ≤ ub`. Duplicate variables in
    /// `terms` are summed.
    pub fn add_range_constraint(
        &mut self,
        name: impl Into<String>,
        terms: &[(VarId, f64)],
        lb: f64,
        ub: f64,
    ) -> ConId {
        assert!(lb <= ub, "constraint bounds crossed: {lb} > {ub}");
        for &(v, _) in terms {
            assert!(
                (v.0 as usize) < self.vars.len(),
                "constraint references unknown variable {v:?}"
            );
        }
        // Append at the tail, sort there, then merge duplicates and drop
        // exact zeros in place.
        let start = self.terms.len();
        self.terms.extend(terms.iter().map(|&(v, c)| (v.0, c)));
        self.terms[start..].sort_unstable_by_key(|&(v, _)| v);
        let mut end = start;
        for k in start..self.terms.len() {
            let (v, c) = self.terms[k];
            if end > start && self.terms[end - 1].0 == v {
                self.terms[end - 1].1 += c;
            } else {
                self.terms[end] = (v, c);
                end += 1;
            }
        }
        let mut kept = start;
        for k in start..end {
            if self.terms[k].1 != 0.0 {
                self.terms[kept] = self.terms[k];
                kept += 1;
            }
        }
        self.terms.truncate(kept);
        self.row_end.push(kept);
        self.matrix.take();
        ConId(self.rows.push(name.into(), lb, ub))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Optimisation direction.
    pub fn sense(&self) -> Objective {
        self.sense
    }

    /// Change the optimisation direction (the paper flips `min t` into
    /// `max l` when computing latency tolerance).
    pub fn set_sense(&mut self, sense: Objective) {
        self.sense = sense;
    }

    /// Replace the objective with the given terms (all other coefficients
    /// become zero).
    pub fn set_objective(&mut self, terms: &[(VarId, f64)]) {
        self.obj.fill(0.0);
        for &(v, c) in terms {
            self.obj[v.0 as usize] += c;
        }
    }

    /// Tighten/relax the lower bound of a variable. This is the hot
    /// operation of Algorithm 2 (`assign constraint l ≥ L`).
    pub fn set_var_lb(&mut self, v: VarId, lb: f64) {
        let j = v.0 as usize;
        let ub = self.vars.ub[j];
        assert!(
            lb <= ub,
            "lb {lb} exceeds ub {ub} for {}",
            self.vars.names[j]
        );
        self.vars.lb[j] = lb;
    }

    /// Tighten/relax the upper bound of a variable (used by the tolerance
    /// formulation `t ≤ (1+x)·T₀`).
    pub fn set_var_ub(&mut self, v: VarId, ub: f64) {
        let j = v.0 as usize;
        let lb = self.vars.lb[j];
        assert!(ub >= lb, "ub {ub} below lb {lb} for {}", self.vars.names[j]);
        self.vars.ub[j] = ub;
    }

    /// The computational-form matrix, built on first use.
    pub(crate) fn matrix(&self) -> Arc<Matrix> {
        Arc::clone(self.matrix.get_or_init(|| Arc::new(Matrix::build(self))))
    }

    /// The `(column, coefficient)` terms of a constraint: sorted by
    /// column, duplicates summed, exact zeros dropped.
    pub fn row(&self, c: ConId) -> &[(u32, f64)] {
        self.row_terms(c.0 as usize)
    }

    fn row_terms(&self, i: usize) -> &[(u32, f64)] {
        let start = if i == 0 { 0 } else { self.row_end[i - 1] };
        &self.terms[start..self.row_end[i]]
    }

    /// Row bounds `(lb, ub)` of a constraint.
    pub fn row_bounds(&self, c: ConId) -> (f64, f64) {
        let i = c.0 as usize;
        (self.rows.lb[i], self.rows.ub[i])
    }

    /// Solve from the all-logical basis with the pivoting oracle under
    /// default options ([`simplex::solve`]): a test and ablation tool for
    /// models up to a few thousand rows, whose dense basis inverse costs
    /// `O(m²)` memory. See [`Solution`] for what can be read back.
    ///
    /// [`simplex::solve`]: crate::simplex::solve
    /// [`Solution`]: crate::solution::Solution
    pub fn solve(&self) -> Result<crate::solution::Solution, crate::error::SolveError> {
        crate::simplex::solve(self, &crate::simplex::SimplexOptions::default(), None)
    }
}

impl fmt::Display for LpModel {
    /// Render in an LP-file-like text format (objective, constraints,
    /// bounds). Intended for debugging and golden tests, not interchange.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sense {
            Objective::Minimize => writeln!(f, "Minimize")?,
            Objective::Maximize => writeln!(f, "Maximize")?,
        }
        let var = |j: usize| nm(&self.vars.names[j], j);
        write!(f, "  obj:")?;
        for (j, &c) in self.obj.iter().enumerate() {
            if c != 0.0 {
                write!(f, " {:+} {}", c, var(j))?;
            }
        }
        writeln!(f)?;
        writeln!(f, "Subject To")?;
        for i in 0..self.row_end.len() {
            write!(f, "  {}:", nm(&self.rows.names[i], i))?;
            for &(v, coef) in self.row_terms(i) {
                write!(f, " {:+} {}", coef, var(v as usize))?;
            }
            let (lb, ub) = (self.rows.lb[i], self.rows.ub[i]);
            if lb == ub {
                writeln!(f, " = {ub}")?;
            } else if lb.is_finite() && ub.is_finite() {
                writeln!(f, " in [{lb}, {ub}]")?;
            } else if lb.is_finite() {
                writeln!(f, " >= {lb}")?;
            } else {
                writeln!(f, " <= {ub}")?;
            }
        }
        writeln!(f, "Bounds")?;
        for j in 0..self.vars.len() {
            writeln!(
                f,
                "  {} <= {} <= {}",
                self.vars.lb[j],
                var(j),
                self.vars.ub[j]
            )?;
        }
        Ok(())
    }
}

fn nm(name: &str, idx: usize) -> String {
    if name.is_empty() {
        format!("x{idx}")
    } else {
        name.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let c = m.add_constraint("r", &[(x, 1.0), (x, 2.0)], Relation::Le, 6.0);
        assert_eq!(m.row(c), [(0, 3.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 0.0);
        let c = m.add_constraint("r", &[(x, 1.0), (y, 0.0)], Relation::Le, 6.0);
        assert_eq!(m.row(c), [(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "bounds crossed")]
    fn crossed_bounds_panic() {
        let mut m = LpModel::new(Objective::Minimize);
        m.add_var("x", 1.0, 0.0, 0.0);
    }

    #[test]
    fn display_contains_sections() {
        let mut m = LpModel::new(Objective::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 2.0);
        m.add_constraint("cap", &[(x, 1.0)], Relation::Le, 0.5);
        let s = m.to_string();
        assert!(s.contains("Maximize"));
        assert!(s.contains("Subject To"));
        assert!(s.contains("Bounds"));
        assert!(s.contains("cap"));
    }
}
