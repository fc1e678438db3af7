//! Basis factorisations for the bounded-variable simplex.
//!
//! The simplex core is generic over a [`BasisFactor`]: the object that
//! represents (an implicit form of) `B⁻¹` and answers FTRAN / BTRAN
//! queries, absorbs rank-one basis exchanges, and refactorises from
//! scratch. Two implementations exist:
//!
//! * [`DenseInv`] — the original dense column-major basis inverse,
//!   rebuilt by Gauss–Jordan elimination and updated with dense eta
//!   transformations. `O(m²)` per FTRAN/BTRAN/update and `O(m³)` per
//!   refactorisation. Only the `simplex::solve_dense` test oracle runs
//!   on it: the cross-validation reference for the sparse path.
//! * [`SparseLu`] — a sparse LU factorisation (left-looking, partial
//!   pivoting by magnitude, Markowitz-style static column ordering to cut
//!   fill-in) with a *product-form eta file* absorbing the pivots between
//!   refactorisations. For the near-triangular, ±1-coefficient LPs LLAMP
//!   generates, `L` and `U` stay close to the nonzero count of `B`
//!   itself, so FTRAN/BTRAN cost `O(nnz)` instead of `O(m²)`.
//!
//! The hot-path operations (`ftran_col`, `btran_sparse`, `update`, and
//! `btran_dense_into`) take `&mut self` and write into caller-owned
//! [`IndexedVec`] workspaces: the simplex inner loop performs **no heap
//! allocation** in FTRAN/BTRAN/pricing. Allocating `&self` variants
//! (`ftran_dense`, `btran_dense`, `ftran_col_alloc`) remain for the cold
//! extraction and on-demand ranging paths.
//!
//! Index conventions (shared with `simplex.rs`): *row space* vectors are
//! indexed by original constraint row; *position space* vectors are
//! indexed by basis position `i` (pairing with `basis[i]`). FTRAN maps a
//! row-space right-hand side to position space (`w = B⁻¹ b`), BTRAN maps
//! position-space basic costs to row-space duals (`y = B⁻ᵀ c_B`).
//! `SparseLu` additionally keeps an internal *factor order* (the
//! Markowitz column order); the mapping is private and all public answers
//! are in position/row space.

use llamp_util::IndexedVec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Read-only view of the extended constraint matrix in compressed sparse
/// column form (structural columns first, then one logical column per
/// row).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColsView<'a> {
    pub start: &'a [usize],
    pub rows: &'a [u32],
    pub vals: &'a [f64],
}

impl ColsView<'_> {
    /// Scatter column `j` into a dense row-space vector.
    fn scatter(&self, j: usize, x: &mut [f64]) {
        for idx in self.start[j]..self.start[j + 1] {
            x[self.rows[idx] as usize] = self.vals[idx];
        }
    }
}

/// The operations the simplex core needs from a basis representation.
pub(crate) trait BasisFactor {
    /// Fresh, unfactorised state for an `m`-row problem.
    fn new(m: usize) -> Self;

    /// Factorise the basis whose columns are `cols[basis[i]]`. Returns
    /// `false` (leaving the previous state untouched) when the matrix is
    /// numerically singular.
    fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize]) -> bool;

    /// Hot-path FTRAN of sparse column `j`: `w = B⁻¹ A_j` (position
    /// space), written into the caller-owned workspace (reset here).
    fn ftran_col(&mut self, cols: ColsView<'_>, j: usize, w: &mut IndexedVec);

    /// FTRAN of a dense row-space right-hand side (cold paths; allocates).
    fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64>;

    /// BTRAN: `y = B⁻ᵀ c_B` with `c_B` in position space, `y` in row
    /// space (cold paths; allocates).
    fn btran_dense(&self, cb: &[f64]) -> Vec<f64>;

    /// Hot-path dense BTRAN into a caller-owned row-space buffer of
    /// length `m` (no allocation).
    fn btran_dense_into(&mut self, cb: &[f64], y: &mut [f64]);

    /// Hot-path BTRAN of a *sparse* position-space vector `v` (e.g. the
    /// unit vector of a pivot row, or a batch of phase-1 cost deltas):
    /// `y = B⁻ᵀ v`, written into the caller-owned row-space workspace
    /// (reset here).
    fn btran_sparse(&mut self, v: &IndexedVec, y: &mut IndexedVec);

    /// Absorb a basis exchange at position `r`, where `w` is the FTRAN of
    /// the entering column (support sorted ascending).
    fn update(&mut self, w: &IndexedVec, r: usize);

    /// Nonzeros of the fresh factorisation — the yardstick for the
    /// eta-growth early-refactorisation trigger. `0` means "not
    /// applicable" (the dense inverse), which disables the trigger.
    fn factor_nnz(&self) -> usize;

    /// Nonzeros absorbed into the update (eta) file since the last
    /// refactorisation.
    fn update_nnz(&self) -> usize;

    /// Adopt an existing factorisation of the *same* basis matrix instead
    /// of refactorising from scratch. Returns `false` (the default) when
    /// the representation cannot host a `SparseLu`, in which case the
    /// caller falls back to [`BasisFactor::refactor`].
    fn adopt(&mut self, _lu: &SparseLu) -> bool {
        false
    }

    /// Surrender the factorisation for reuse elsewhere, when it is a
    /// pristine (eta-free) `SparseLu`. `None` (the default) means the
    /// representation has nothing transferable.
    fn take_sparse_lu(&mut self) -> Option<SparseLu> {
        None
    }
}

// ---------------------------------------------------------------------------
// Dense inverse
// ---------------------------------------------------------------------------

/// Dense column-major basis inverse (`binv[k·m + i]` maps row `k` to
/// position `i`).
#[derive(Debug, Clone)]
pub(crate) struct DenseInv {
    m: usize,
    binv: Vec<f64>,
}

impl BasisFactor for DenseInv {
    fn new(m: usize) -> Self {
        Self {
            m,
            binv: vec![0.0; m * m],
        }
    }

    /// Gauss–Jordan with partial pivoting on `[B | I]`.
    fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize]) -> bool {
        let m = self.m;
        if m == 0 {
            return true;
        }
        let mut b = vec![0.0; m * m];
        for (pos, &j) in basis.iter().enumerate() {
            for idx in cols.start[j]..cols.start[j + 1] {
                b[pos * m + cols.rows[idx] as usize] = cols.vals[idx];
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            let mut best = b[col * m + col].abs();
            for r in col + 1..m {
                let v = b[col * m + r].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return false;
            }
            if piv != col {
                for k in 0..m {
                    b.swap(k * m + col, k * m + piv);
                    inv.swap(k * m + col, k * m + piv);
                }
            }
            let d = b[col * m + col];
            for k in 0..m {
                b[k * m + col] /= d;
                inv[k * m + col] /= d;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = b[col * m + r];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    b[k * m + r] -= f * b[k * m + col];
                    inv[k * m + r] -= f * inv[k * m + col];
                }
            }
        }
        self.binv = inv;
        true
    }

    fn ftran_col(&mut self, cols: ColsView<'_>, j: usize, w: &mut IndexedVec) {
        let m = self.m;
        w.reset(m);
        for idx in cols.start[j]..cols.start[j + 1] {
            let k = cols.rows[idx] as usize;
            let a = cols.vals[idx];
            let col = &self.binv[k * m..(k + 1) * m];
            for (i, &ci) in col.iter().enumerate() {
                if ci != 0.0 {
                    w.add(i, a * ci);
                }
            }
        }
    }

    fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for (k, &rk) in rhs.iter().enumerate() {
            if rk == 0.0 {
                continue;
            }
            let col = &self.binv[k * m..(k + 1) * m];
            for (wi, &ci) in w.iter_mut().zip(col) {
                *wi += rk * ci;
            }
        }
        w
    }

    fn btran_dense(&self, cb: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        self.btran_core(cb, &mut y);
        y
    }

    fn btran_dense_into(&mut self, cb: &[f64], y: &mut [f64]) {
        self.btran_core(cb, y);
    }

    fn btran_sparse(&mut self, v: &IndexedVec, y: &mut IndexedVec) {
        let m = self.m;
        y.reset(m);
        for k in 0..m {
            let col = &self.binv[k * m..(k + 1) * m];
            let mut acc = 0.0;
            for &i in v.indices() {
                acc += v.get(i as usize) * col[i as usize];
            }
            if acc != 0.0 {
                y.set(k, acc);
            }
        }
    }

    /// Dense eta transformation replacing basic position `r`.
    fn update(&mut self, w: &IndexedVec, r: usize) {
        let m = self.m;
        let wr = w.get(r);
        for k in 0..m {
            let col = &mut self.binv[k * m..(k + 1) * m];
            let brk = col[r];
            if brk == 0.0 {
                continue;
            }
            let scaled = brk / wr;
            col[r] = scaled;
            for &iu in w.indices() {
                let i = iu as usize;
                let wi = w.get(i);
                if i != r && wi != 0.0 {
                    col[i] -= wi * scaled;
                }
            }
        }
    }

    fn factor_nnz(&self) -> usize {
        0
    }

    fn update_nnz(&self) -> usize {
        0
    }
}

impl DenseInv {
    fn btran_core(&self, cb: &[f64], y: &mut [f64]) {
        let m = self.m;
        for (k, yk) in y.iter_mut().enumerate().take(m) {
            let col = &self.binv[k * m..(k + 1) * m];
            let mut acc = 0.0;
            for (cbi, &ci) in cb.iter().zip(col) {
                acc += cbi * ci;
            }
            *yk = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse LU + product-form eta file
// ---------------------------------------------------------------------------

/// Sparse LU factorisation `P B Q = L U` (columns processed in a
/// Markowitz-style fill-reducing order `Q`, rows permuted by partial
/// pivoting `P`) plus a product-form eta file for the basis exchanges
/// since the last refactorisation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseLu {
    m: usize,
    /// Factor order `k` → original row chosen as pivot.
    pivot_row: Vec<u32>,
    /// Factor order `k` → basis position (the column-order permutation).
    pos_of_factor: Vec<u32>,
    /// `L` columns (unit diagonal implicit), by factor order: multipliers
    /// `(original row, value)` per pivot.
    l_start: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// `U` columns, by factor order: off-diagonal `(factor position
    /// k < j, u_kj)` per column `j`; diagonal stored separately.
    u_start: Vec<usize>,
    u_pos: Vec<u32>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// Product-form eta file in *position space*: eta `e` replaces
    /// position `eta_r[e]`, with sparse entries `(position, value)`; the
    /// entry at `eta_r[e]` holds `1/w_r`, the others `−w_i/w_r`.
    eta_start: Vec<usize>,
    eta_pos: Vec<u32>,
    eta_vals: Vec<f64>,
    eta_r: Vec<u32>,
    /// Hot-path scratch (row / position / factor space). Fully owned so
    /// FTRAN/BTRAN never allocate.
    work_row: Vec<f64>,
    work_pos: Vec<f64>,
    work_fac: Vec<f64>,
    work_touch: Vec<u32>,
}

impl SparseLu {
    /// Nonzeros in `L + U` (diagnostic / refactor trigger).
    pub(crate) fn nnz(&self) -> usize {
        self.l_rows.len() + self.u_pos.len() + self.u_diag.len()
    }

    /// Apply the eta file (ascending) to a sparse position-space vector:
    /// the FTRAN tail.
    fn apply_etas_sparse(&self, w: &mut IndexedVec) {
        for e in 0..self.eta_r.len() {
            let r = self.eta_r[e] as usize;
            let xr = w.get(r);
            if xr == 0.0 {
                continue;
            }
            w.set(r, 0.0);
            for idx in self.eta_start[e]..self.eta_start[e + 1] {
                w.add(self.eta_pos[idx] as usize, self.eta_vals[idx] * xr);
            }
        }
    }

    /// Dense-slice variant of [`SparseLu::apply_etas_sparse`].
    fn apply_etas(&self, w: &mut [f64]) {
        for e in 0..self.eta_r.len() {
            let r = self.eta_r[e] as usize;
            let xr = w[r];
            if xr == 0.0 {
                continue;
            }
            w[r] = 0.0;
            for idx in self.eta_start[e]..self.eta_start[e + 1] {
                w[self.eta_pos[idx] as usize] += self.eta_vals[idx] * xr;
            }
        }
    }

    /// Apply the transposed eta file (descending) to a dense
    /// position-space vector: the BTRAN head.
    fn apply_etas_rev(&self, c: &mut [f64]) {
        for e in (0..self.eta_r.len()).rev() {
            let mut acc = 0.0;
            for idx in self.eta_start[e]..self.eta_start[e + 1] {
                acc += self.eta_vals[idx] * c[self.eta_pos[idx] as usize];
            }
            c[self.eta_r[e] as usize] = acc;
        }
    }

    /// Lower/upper triangular solves of the base factorisation on a dense
    /// row-space vector `x` (destroyed), producing a dense position-space
    /// result.
    fn lu_solve_dense(&self, x: &mut [f64]) -> Vec<f64> {
        let m = self.m;
        for k in 0..m {
            let xk = x[self.pivot_row[k] as usize];
            if xk == 0.0 {
                continue;
            }
            for idx in self.l_start[k]..self.l_start[k + 1] {
                x[self.l_rows[idx] as usize] -= self.l_vals[idx] * xk;
            }
        }
        let mut w = vec![0.0; m];
        for k in (0..m).rev() {
            let v = x[self.pivot_row[k] as usize];
            if v == 0.0 {
                continue;
            }
            let wk = v / self.u_diag[k];
            w[self.pos_of_factor[k] as usize] = wk;
            for idx in self.u_start[k]..self.u_start[k + 1] {
                x[self.pivot_row[self.u_pos[idx] as usize] as usize] -= self.u_vals[idx] * wk;
            }
        }
        w
    }

    /// Shared BTRAN spine: `c` is a dense position-space vector with the
    /// transposed etas already applied; the Uᵀ/Lᵀ solves write the
    /// row-space result into `y` (fully overwritten).
    fn btran_spine(&self, c: &[f64], fac: &mut [f64], y: &mut [f64]) {
        let m = self.m;
        // Gather into factor order.
        for k in 0..m {
            fac[k] = c[self.pos_of_factor[k] as usize];
        }
        // Uᵀ forward solve (factor space).
        for k in 0..m {
            let mut acc = fac[k];
            for idx in self.u_start[k]..self.u_start[k + 1] {
                acc -= self.u_vals[idx] * fac[self.u_pos[idx] as usize];
            }
            fac[k] = if acc == 0.0 {
                0.0
            } else {
                acc / self.u_diag[k]
            };
        }
        // Scatter to row space, then Lᵀ solve in reverse factor order.
        for k in 0..m {
            y[self.pivot_row[k] as usize] = fac[k];
        }
        for k in (0..m).rev() {
            let pr = self.pivot_row[k] as usize;
            let mut acc = y[pr];
            for idx in self.l_start[k]..self.l_start[k + 1] {
                acc -= self.l_vals[idx] * y[self.l_rows[idx] as usize];
            }
            y[pr] = acc;
        }
    }

    /// Allocating FTRAN of sparse column `j` (on-demand ranging path;
    /// `&self` so it can run off the shared canonical factorisation).
    pub(crate) fn ftran_col_alloc(&self, cols: ColsView<'_>, j: usize) -> Vec<f64> {
        let mut x = vec![0.0; self.m];
        cols.scatter(j, &mut x);
        let mut w = self.lu_solve_dense(&mut x);
        self.apply_etas(&mut w);
        w
    }

    /// Etas absorbed since the last refactorisation (diagnostic).
    #[cfg(test)]
    pub(crate) fn updates(&self) -> u64 {
        self.eta_r.len() as u64
    }
}

impl BasisFactor for SparseLu {
    fn new(m: usize) -> Self {
        Self {
            m,
            // `eta_start` keeps a leading sentinel so eta `e` spans
            // `eta_start[e]..eta_start[e+1]`.
            eta_start: vec![0],
            work_row: vec![0.0; m],
            work_pos: vec![0.0; m],
            work_fac: vec![0.0; m],
            ..Self::default()
        }
    }

    /// Left-looking sparse LU with partial pivoting by magnitude and a
    /// static fill-reducing column order. Builds into fresh storage and
    /// swaps on success, so a singular matrix leaves the previous
    /// factorisation intact.
    fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize]) -> bool {
        self.refactor_min_pivot(cols, basis, 1e-12)
    }

    fn adopt(&mut self, lu: &SparseLu) -> bool {
        if lu.m != self.m {
            return false;
        }
        *self = lu.clone();
        true
    }

    fn take_sparse_lu(&mut self) -> Option<SparseLu> {
        if self.eta_r.is_empty() && self.m > 0 && !self.pivot_row.is_empty() {
            Some(std::mem::take(self))
        } else {
            None
        }
    }

    fn ftran_col(&mut self, cols: ColsView<'_>, j: usize, w: &mut IndexedVec) {
        let m = self.m;
        w.reset(m);
        // Split the borrows: the triangular data is read-only while the
        // scratch buffers are written.
        let (pivot_row, pos_of_factor) = (&self.pivot_row, &self.pos_of_factor);
        let (l_start, l_rows, l_vals) = (&self.l_start, &self.l_rows, &self.l_vals);
        let (u_start, u_pos, u_vals, u_diag) =
            (&self.u_start, &self.u_pos, &self.u_vals, &self.u_diag);
        let x = &mut self.work_row;
        let touch = &mut self.work_touch;
        touch.clear();
        for idx in cols.start[j]..cols.start[j + 1] {
            let r = cols.rows[idx] as usize;
            x[r] = cols.vals[idx];
            touch.push(r as u32);
        }
        // L solve in factor order; the O(m) scan is sequential u32 loads,
        // the arithmetic is O(nnz).
        for k in 0..m {
            let xk = x[pivot_row[k] as usize];
            if xk == 0.0 {
                continue;
            }
            for idx in l_start[k]..l_start[k + 1] {
                let r = l_rows[idx] as usize;
                x[r] -= l_vals[idx] * xk;
                touch.push(r as u32);
            }
        }
        // U back-substitution, emitting nonzeros straight into `w`.
        for k in (0..m).rev() {
            let v = x[pivot_row[k] as usize];
            if v == 0.0 {
                continue;
            }
            let wk = v / u_diag[k];
            w.set(pos_of_factor[k] as usize, wk);
            for idx in u_start[k]..u_start[k + 1] {
                let r = pivot_row[u_pos[idx] as usize] as usize;
                x[r] -= u_vals[idx] * wk;
                touch.push(r as u32);
            }
        }
        for &r in touch.iter() {
            x[r as usize] = 0.0;
        }
        self.apply_etas_sparse(w);
    }

    fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64> {
        let mut x = rhs.to_vec();
        let mut w = self.lu_solve_dense(&mut x);
        self.apply_etas(&mut w);
        w
    }

    fn btran_dense(&self, cb: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut c = cb.to_vec();
        self.apply_etas_rev(&mut c);
        let mut fac = vec![0.0; m];
        let mut y = vec![0.0; m];
        self.btran_spine(&c, &mut fac, &mut y);
        y
    }

    fn btran_dense_into(&mut self, cb: &[f64], y: &mut [f64]) {
        let m = self.m;
        self.work_pos[..m].copy_from_slice(&cb[..m]);
        // Move the scratch out so `self` methods can borrow immutably.
        let mut c = std::mem::take(&mut self.work_pos);
        let mut fac = std::mem::take(&mut self.work_fac);
        self.apply_etas_rev(&mut c);
        self.btran_spine(&c, &mut fac, y);
        // Restore the all-zero invariant the sparse paths rely on.
        c[..m].fill(0.0);
        self.work_pos = c;
        self.work_fac = fac;
    }

    fn btran_sparse(&mut self, v: &IndexedVec, y: &mut IndexedVec) {
        let m = self.m;
        y.reset(m);
        let mut c = std::mem::take(&mut self.work_pos);
        let mut fac = std::mem::take(&mut self.work_fac);
        let mut yd = std::mem::take(&mut self.work_row);
        for &i in v.indices() {
            c[i as usize] = v.get(i as usize);
        }
        self.apply_etas_rev(&mut c);
        self.btran_spine(&c, &mut fac, &mut yd);
        // Clear the position-space scratch: the input support plus every
        // eta target written by `apply_etas_rev`.
        for &i in v.indices() {
            c[i as usize] = 0.0;
        }
        for &r in &self.eta_r {
            c[r as usize] = 0.0;
        }
        // `yd` is fully overwritten by the spine; gather the support,
        // then zero exactly those entries so the row-space scratch keeps
        // its all-zero invariant for the FTRAN path.
        for (r, &val) in yd.iter().enumerate().take(m) {
            if val != 0.0 {
                y.set(r, val);
            }
        }
        for &r in y.indices() {
            yd[r as usize] = 0.0;
        }
        self.work_pos = c;
        self.work_fac = fac;
        self.work_row = yd;
    }

    /// Append a product-form eta for the exchange at position `r`.
    fn update(&mut self, w: &IndexedVec, r: usize) {
        let wr = w.get(r);
        for &iu in w.indices() {
            let i = iu as usize;
            let wi = w.get(i);
            if i == r {
                self.eta_pos.push(r as u32);
                self.eta_vals.push(1.0 / wr);
            } else if wi != 0.0 {
                self.eta_pos.push(i as u32);
                self.eta_vals.push(-wi / wr);
            }
        }
        self.eta_start.push(self.eta_pos.len());
        self.eta_r.push(r as u32);
    }

    fn factor_nnz(&self) -> usize {
        self.nnz()
    }

    fn update_nnz(&self) -> usize {
        self.eta_pos.len()
    }
}

impl SparseLu {
    /// The factorisation behind [`BasisFactor::refactor`], with an
    /// explicit minimum pivot magnitude. Canonical extraction retries a
    /// numerically borderline basis with `min_pivot = 0.0` (any nonzero
    /// pivot accepted) so a basis the solver itself maintained degrades
    /// to reduced accuracy instead of failing outright.
    ///
    /// Columns are processed in a Markowitz-style static order (ascending
    /// nonzero count, ties by basis position): singleton columns pivot
    /// first and generate no fill, which keeps `L`/`U` near the nonzero
    /// count of `B` itself on LLAMP's near-triangular bases. Elimination
    /// follows the nonzero pattern through a min-heap of pivot positions
    /// (Gilbert–Peierls style), so each column costs `O(fill · log)`
    /// rather than a full `O(m)` scan.
    pub(crate) fn refactor_min_pivot(
        &mut self,
        cols: ColsView<'_>,
        basis: &[usize],
        min_pivot: f64,
    ) -> bool {
        let m = self.m;
        let mut next = SparseLu::new(m);
        next.pivot_row = vec![u32::MAX; m];
        next.pos_of_factor = Vec::with_capacity(m);
        next.l_start = Vec::with_capacity(m + 1);
        next.l_start.push(0);
        next.u_start = Vec::with_capacity(m + 1);
        next.u_start.push(0);
        next.u_diag = Vec::with_capacity(m);

        // Markowitz-style static column order: ascending nonzero count,
        // deterministic position tie-break.
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_unstable_by_key(|&p| {
            let j = basis[p as usize];
            ((cols.start[j + 1] - cols.start[j]) as u32, p)
        });

        // row → factor position (u32::MAX while unpivoted).
        let mut row_pos = vec![u32::MAX; m];
        let mut x = vec![0.0; m];
        let mut touched: Vec<u32> = Vec::with_capacity(64);
        // Pending pivot positions to eliminate with, deduplicated by a
        // per-column stamp and processed in ascending factor order.
        let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut queued: Vec<u32> = vec![u32::MAX; m];

        for (k, &p) in order.iter().enumerate() {
            let col = basis[p as usize];
            touched.clear();
            debug_assert!(heap.is_empty());
            for idx in cols.start[col]..cols.start[col + 1] {
                let r = cols.rows[idx] as usize;
                x[r] = cols.vals[idx];
                touched.push(r as u32);
                let rp = row_pos[r];
                if rp != u32::MAX && queued[rp as usize] != k as u32 {
                    queued[rp as usize] = k as u32;
                    heap.push(Reverse(rp));
                }
            }
            // Eliminate along the nonzero pattern: popping ascending
            // factor positions; fill can only land in later positions.
            while let Some(Reverse(kku)) = heap.pop() {
                let kk = kku as usize;
                let ukj = x[next.pivot_row[kk] as usize];
                if ukj == 0.0 {
                    continue;
                }
                next.u_pos.push(kku);
                next.u_vals.push(ukj);
                for idx in next.l_start[kk]..next.l_start[kk + 1] {
                    let r = next.l_rows[idx] as usize;
                    if x[r] == 0.0 {
                        touched.push(r as u32);
                    }
                    x[r] -= next.l_vals[idx] * ukj;
                    let rp = row_pos[r];
                    if rp != u32::MAX && queued[rp as usize] != k as u32 {
                        queued[rp as usize] = k as u32;
                        heap.push(Reverse(rp));
                    }
                }
            }
            next.u_start.push(next.u_pos.len());
            // Partial pivot: largest remaining magnitude (duplicates in
            // `touched` are harmless — same row, same value).
            let mut piv = usize::MAX;
            let mut best = 0.0f64;
            for &t in &touched {
                let r = t as usize;
                if row_pos[r] == u32::MAX && x[r].abs() > best {
                    best = x[r].abs();
                    piv = r;
                }
            }
            if piv == usize::MAX || best <= 0.0 || best < min_pivot {
                return false;
            }
            let d = x[piv];
            next.pivot_row[k] = piv as u32;
            row_pos[piv] = k as u32;
            next.u_diag.push(d);
            next.pos_of_factor.push(p);
            for &t in &touched {
                let r = t as usize;
                let v = x[r];
                x[r] = 0.0;
                if r != piv && row_pos[r] == u32::MAX && v != 0.0 {
                    next.l_rows.push(r as u32);
                    next.l_vals.push(v / d);
                }
            }
            next.l_start.push(next.l_rows.len());
        }
        *self = next;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3×3 system with known inverse, expressed through the CSC view.
    fn cols_3x3() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        // Columns: [2,1,0], [0,3,1], [1,0,2]
        let start = vec![0, 2, 4, 6];
        let rows = vec![0, 1, 1, 2, 0, 2];
        let vals = vec![2.0, 1.0, 3.0, 1.0, 1.0, 2.0];
        (start, rows, vals)
    }

    fn check_ftran_btran<F: BasisFactor>(mut f: F) {
        let (start, rows, vals) = cols_3x3();
        let view = ColsView {
            start: &start,
            rows: &rows,
            vals: &vals,
        };
        assert!(f.refactor(view, &[0, 1, 2]));
        // B = [[2,0,1],[1,3,0],[0,1,2]]; solve B w = e0 + 2·e2.
        let w = f.ftran_dense(&[1.0, 0.0, 2.0]);
        // Verify B·w = rhs.
        let b = [[2.0, 0.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 2.0]];
        let rhs = [1.0, 0.0, 2.0];
        for i in 0..3 {
            let acc: f64 = (0..3).map(|j| b[i][j] * w[j]).sum();
            assert!((acc - rhs[i]).abs() < 1e-12, "row {i}: {acc}");
        }
        // BTRAN: y solves Bᵀ y = c.
        let c = [1.0, -2.0, 0.5];
        let y = f.btran_dense(&c);
        for j in 0..3 {
            let acc: f64 = (0..3).map(|i| b[i][j] * y[i]).sum();
            assert!((acc - c[j]).abs() < 1e-12, "col {j}: {acc}");
        }
        // The hot-path variants agree with the allocating ones.
        let mut y2 = vec![0.0; 3];
        f.btran_dense_into(&c, &mut y2);
        assert_eq!(y, y2);
        let mut sp = IndexedVec::new(3);
        let mut ys = IndexedVec::new(3);
        sp.set(1, 1.0);
        f.btran_sparse(&sp, &mut ys);
        let ye = f.btran_dense(&[0.0, 1.0, 0.0]);
        for (r, &v) in ye.iter().enumerate() {
            assert!((ys.get(r) - v).abs() < 1e-14, "row {r}");
        }
        let mut wv = IndexedVec::new(3);
        f.ftran_col(view, 2, &mut wv);
        let wd = {
            let mut x = [0.0; 3];
            view.scatter(2, &mut x);
            f.ftran_dense(&x)
        };
        for (i, &v) in wd.iter().enumerate() {
            assert!((wv.get(i) - v).abs() < 1e-14, "pos {i}");
        }
    }

    #[test]
    fn dense_solves_small_system() {
        check_ftran_btran(DenseInv::new(3));
    }

    #[test]
    fn sparse_solves_small_system() {
        check_ftran_btran(SparseLu::new(3));
    }

    #[test]
    fn eta_update_matches_refactorisation() {
        let (mut start, mut rows, mut vals) = cols_3x3();
        // Add a fourth column [1, 1, 1] to pivot in.
        start.push(9);
        rows.extend([0, 1, 2]);
        vals.extend([1.0, 1.0, 1.0]);
        let view = ColsView {
            start: &start,
            rows: &rows,
            vals: &vals,
        };
        let (mut inc, mut fresh) = (SparseLu::new(3), SparseLu::new(3));
        assert!(inc.refactor(view, &[0, 1, 2]));
        let mut w = IndexedVec::new(3);
        inc.ftran_col(view, 3, &mut w);
        w.sort_indices();
        inc.update(&w, 1);
        assert_eq!(inc.updates(), 1);
        assert!(inc.update_nnz() > 0);
        assert!(fresh.refactor(view, &[0, 3, 2]));
        let rhs = [0.3, -1.2, 2.5];
        let wi = inc.ftran_dense(&rhs);
        let wf = fresh.ftran_dense(&rhs);
        for (a, b) in wi.iter().zip(&wf) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        let cb = [1.0, 0.0, -3.0];
        let yi = inc.btran_dense(&cb);
        let yf = fresh.btran_dense(&cb);
        for (a, b) in yi.iter().zip(&yf) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_and_sparse_agree() {
        let (start, rows, vals) = cols_3x3();
        let view = ColsView {
            start: &start,
            rows: &rows,
            vals: &vals,
        };
        let mut d = DenseInv::new(3);
        let mut s = SparseLu::new(3);
        assert!(d.refactor(view, &[2, 0, 1]));
        assert!(s.refactor(view, &[2, 0, 1]));
        let rhs = [1.5, -0.5, 4.0];
        for (a, b) in d.ftran_dense(&rhs).iter().zip(&s.ftran_dense(&rhs)) {
            assert!((a - b).abs() < 1e-12);
        }
        let cb = [2.0, 1.0, -1.0];
        for (a, b) in d.btran_dense(&cb).iter().zip(&s.btran_dense(&cb)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_basis_rejected_and_state_preserved() {
        // Two identical columns → singular.
        let start = vec![0, 1, 2, 3];
        let rows = vec![0, 0, 1];
        let vals = vec![1.0, 1.0, 1.0];
        let view = ColsView {
            start: &start,
            rows: &rows,
            vals: &vals,
        };
        let mut s = SparseLu::new(2);
        assert!(s.refactor(view, &[0, 2]));
        let before = s.ftran_dense(&[1.0, 1.0]);
        assert!(!s.refactor(view, &[0, 1]));
        let after = s.ftran_dense(&[1.0, 1.0]);
        assert_eq!(before, after);
        let mut d = DenseInv::new(2);
        assert!(d.refactor(view, &[0, 2]));
        assert!(!d.refactor(view, &[0, 1]));
    }

    #[test]
    fn column_ordering_is_a_pure_implementation_detail() {
        // A basis whose natural order causes fill: the answers must be
        // independent of the internal Markowitz permutation. Compare the
        // permuted sparse LU against the dense inverse on a 4×4 system.
        let start = vec![0, 4, 6, 8, 9];
        let rows = vec![0, 1, 2, 3, 0, 1, 1, 2, 3];
        let vals = vec![4.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 2.0, 5.0];
        let view = ColsView {
            start: &start,
            rows: &rows,
            vals: &vals,
        };
        let mut s = SparseLu::new(4);
        let mut d = DenseInv::new(4);
        assert!(s.refactor(view, &[0, 1, 2, 3]));
        assert!(d.refactor(view, &[0, 1, 2, 3]));
        let rhs = [1.0, -2.0, 0.5, 3.0];
        for (a, b) in s.ftran_dense(&rhs).iter().zip(&d.ftran_dense(&rhs)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let cb = [0.5, 1.0, -1.0, 2.0];
        for (a, b) in s.btran_dense(&cb).iter().zip(&d.btran_dense(&cb)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
