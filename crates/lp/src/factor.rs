//! Basis factorisations.
//!
//! Two representations of `B⁻¹` exist, and a basis's structure picks
//! between them wherever a solution is read off ([`Factor::canonical`]):
//!
//! * [`Triangle`] — a basis that peels into a permuted triangle (every
//!   longest-path crash basis does) is its own columns in peel order, so
//!   FTRAN and BTRAN are one substitution each, with no heap, no sort and
//!   no fill. [`crate::simplex::certify`] factors every engine solve this
//!   way and nothing else.
//! * [`DenseInv`] — a dense column-major basis inverse, rebuilt by
//!   Gauss–Jordan elimination and updated with dense eta
//!   transformations: `O(m²)` memory and per FTRAN/BTRAN/update, and up
//!   to `O(m³)` per refactorisation. The pivoting simplex (the test and ablation oracle,
//!   [`crate::simplex::solve`]) runs on it, and extraction falls back to
//!   it for a final basis that does not peel.
//!
//! The pivoting hot path (`DenseInv::ftran_col`, `btran_sparse`,
//! `update`, `btran_into`) writes into caller-owned [`IndexedVec`]
//! workspaces and buffers: the simplex inner loop performs **no heap
//! allocation** in FTRAN/BTRAN/pricing.
//!
//! Index conventions (shared with `simplex.rs`): *row space* vectors are
//! indexed by original constraint row; *position space* vectors are
//! indexed by basis position `i` (pairing with `basis[i]`). FTRAN maps a
//! row-space right-hand side to position space (`w = B⁻¹ b`), BTRAN maps
//! position-space basic costs to row-space duals (`y = B⁻ᵀ c_B`).

use llamp_util::IndexedVec;

/// Smallest diagonal a factorisation accepts by default. Extraction
/// retries a numerically borderline basis at `0.0` (any nonzero pivot).
pub(crate) const MIN_PIVOT: f64 = 1e-12;

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

// ---------------------------------------------------------------------------
// Dense inverse
// ---------------------------------------------------------------------------

/// Dense column-major basis inverse (`binv[k·m + i]` maps row `k` to
/// position `i`). Empty until the first refactorisation, so a solve that
/// never pivots never allocates it.
#[derive(Debug, Clone)]
pub(crate) struct DenseInv {
    m: usize,
    binv: Vec<f64>,
}

impl DenseInv {
    /// Fresh, unfactorised state for an `m`-row problem.
    pub(crate) fn new(m: usize) -> Self {
        Self {
            m,
            binv: Vec::new(),
        }
    }

    /// Gauss–Jordan with partial pivoting on `[B | I]` for the basis whose
    /// columns are `cols[basis[i]]`. Returns `false` (leaving the previous
    /// inverse untouched) when no pivot of at least `min_pivot` remains
    /// for some column, or none at all.
    pub(crate) fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize], min_pivot: f64) -> bool {
        let m = self.m;
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
        let mut nz: Vec<usize> = Vec::with_capacity(m);
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
            if best == 0.0 || best < min_pivot {
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
            // Only the pivot row's nonzeros change the other rows: a zero
            // there would subtract a zero, which can flip the sign of a
            // zero entry but never moves a nonzero one. On LLAMP's sparse
            // bases this cuts the elimination from `O(m³)` to `O(m²·fill)`.
            nz.clear();
            nz.extend((0..m).filter(|&k| b[k * m + col] != 0.0 || inv[k * m + col] != 0.0));
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = b[col * m + r];
                if f == 0.0 {
                    continue;
                }
                for &k in &nz {
                    b[k * m + r] -= f * b[k * m + col];
                    inv[k * m + r] -= f * inv[k * m + col];
                }
            }
        }
        self.binv = inv;
        true
    }

    /// Hot-path FTRAN of sparse column `j`: `w = B⁻¹ A_j` (position
    /// space), written into the caller-owned workspace (reset here).
    pub(crate) fn ftran_col(&self, cols: ColsView<'_>, j: usize, w: &mut IndexedVec) {
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

    /// FTRAN of a dense row-space right-hand side (allocates the result).
    pub(crate) fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64> {
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

    /// Dense BTRAN into a caller-owned row-space buffer of length `m`:
    /// `y = B⁻ᵀ c_B` with `c_B` in position space.
    pub(crate) fn btran_into(&self, cb: &[f64], y: &mut [f64]) {
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

    /// Hot-path BTRAN of a *sparse* position-space vector `v` (the unit
    /// vector of a pivot row, or a batch of phase-1 cost deltas):
    /// `y = B⁻ᵀ v`, written into the caller-owned row-space workspace
    /// (reset here).
    pub(crate) fn btran_sparse(&self, v: &IndexedVec, y: &mut IndexedVec) {
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

    /// Dense eta transformation absorbing the basis exchange at position
    /// `r`, where `w` is the FTRAN of the entering column.
    pub(crate) fn update(&mut self, w: &IndexedVec, r: usize) {
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
}

// ---------------------------------------------------------------------------
// Permuted triangle
// ---------------------------------------------------------------------------

/// A basis peeled into a permuted triangle. Peel step `s` takes row
/// `row[s]` with the column at basis position `pos[s]`, whose entry there
/// is `diag[s]` and whose other entries (`rows`/`vals` from `start[s]`)
/// all sit in rows peeled later. FTRAN is one forward substitution in
/// peel order, BTRAN one backward substitution against it; nothing is
/// eliminated, so there is no fill.
#[derive(Debug, Clone, Default)]
pub(crate) struct Triangle {
    row: Vec<u32>,
    pos: Vec<u32>,
    diag: Vec<f64>,
    start: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl Triangle {
    /// Peel `B` into a permuted triangle. Singleton columns (every basic
    /// logical among them) pivot on their one row and go last: nothing
    /// solved after them reads their row. The rest peels by row
    /// singletons: a permuted triangular matrix always has a row with a
    /// single nonzero among the columns not yet taken, and removing that
    /// row and its column leaves a permuted triangle. So peeling succeeds
    /// exactly when the basis is (nonsingular and) permuted triangular —
    /// `None` otherwise, or when a diagonal entry falls below
    /// `min_pivot`. Each row keeps the count and the XOR of the basis
    /// positions still covering it, so a singleton row names its column
    /// directly: no heap, no sort. The arithmetic a solve performs
    /// depends only on the matrix and the *set* of basic columns, never
    /// on their positions.
    pub(crate) fn peel(
        m: usize,
        cols: ColsView<'_>,
        basis: &[usize],
        min_pivot: f64,
    ) -> Option<Self> {
        /// `count` marker of a row a singleton column took.
        const TAKEN: u32 = u32::MAX;
        let mut count = vec![0u32; m];
        let mut cover = vec![0u32; m];
        let mut tail: Vec<u32> = Vec::new();
        let mut nnz = 0;
        for (p, &j) in basis.iter().enumerate() {
            let (a, b) = (cols.start[j], cols.start[j + 1]);
            nnz += b - a;
            if b - a == 1 {
                let r = cols.rows[a] as usize;
                if count[r] == TAKEN || cols.vals[a].abs() < min_pivot {
                    return None;
                }
                count[r] = TAKEN;
                tail.push(p as u32);
                continue;
            }
            for &r in &cols.rows[a..b] {
                let r = r as usize;
                if count[r] != TAKEN {
                    count[r] += 1;
                    cover[r] ^= p as u32;
                }
            }
        }
        // A row joins when its count reaches one, which happens at most
        // once, so `row` doubles as the queue.
        let mut t = Triangle {
            row: Vec::with_capacity(m),
            pos: Vec::with_capacity(m),
            diag: Vec::with_capacity(m),
            start: Vec::with_capacity(m + 1),
            rows: Vec::with_capacity(nnz.saturating_sub(m)),
            vals: Vec::with_capacity(nnz.saturating_sub(m)),
        };
        t.row
            .extend((0..m as u32).filter(|&r| count[r as usize] == 1));
        t.start.push(0);
        while let Some(&r) = t.row.get(t.pos.len()) {
            let r = r as usize;
            if count[r] != 1 {
                // Another singleton row took this row's only column.
                return None;
            }
            let p = cover[r];
            let j = basis[p as usize];
            let mut d = 0.0;
            for idx in cols.start[j]..cols.start[j + 1] {
                let rr = cols.rows[idx] as usize;
                if rr == r {
                    d = cols.vals[idx];
                    count[rr] = 0;
                    continue;
                }
                t.rows.push(rr as u32);
                t.vals.push(cols.vals[idx]);
                if count[rr] != TAKEN {
                    count[rr] -= 1;
                    cover[rr] ^= p;
                    if count[rr] == 1 {
                        t.row.push(rr as u32);
                    }
                }
            }
            if d.abs() < min_pivot {
                return None;
            }
            t.pos.push(p);
            t.diag.push(d);
            t.start.push(t.rows.len());
        }
        if t.pos.len() + tail.len() != m {
            return None;
        }
        for p in tail {
            let a = cols.start[basis[p as usize]];
            t.row.push(cols.rows[a]);
            t.pos.push(p);
            t.diag.push(cols.vals[a]);
            t.start.push(t.rows.len());
        }
        Some(t)
    }

    /// `B w = x` for a row-space `x`, which is consumed (left zero),
    /// reporting each nonzero `(position, w)`.
    fn solve(&self, x: &mut [f64], mut emit: impl FnMut(usize, f64)) {
        for s in 0..self.row.len() {
            let r = self.row[s] as usize;
            let v = x[r];
            if v == 0.0 {
                continue;
            }
            x[r] = 0.0;
            let w = v / self.diag[s];
            emit(self.pos[s] as usize, w);
            for idx in self.start[s]..self.start[s + 1] {
                x[self.rows[idx] as usize] -= self.vals[idx] * w;
            }
        }
    }

    /// `Bᵀ y = c` for a position-space `c`; every entry of the row-space
    /// `y` is overwritten.
    fn solve_transposed(&self, c: &[f64], y: &mut [f64]) {
        for s in (0..self.row.len()).rev() {
            let mut acc = c[self.pos[s] as usize];
            for idx in self.start[s]..self.start[s + 1] {
                acc -= self.vals[idx] * y[self.rows[idx] as usize];
            }
            y[self.row[s] as usize] = if acc == 0.0 { 0.0 } else { acc / self.diag[s] };
        }
    }
}

// ---------------------------------------------------------------------------
// The factorisation a solution is read off
// ---------------------------------------------------------------------------

/// The factorisation of a final basis in ascending column order, kept by
/// the solution for on-demand ranging.
#[derive(Debug)]
pub(crate) enum Factor {
    /// The basis peeled: substitution.
    Triangle(Triangle),
    /// General elimination: the dense inverse.
    Dense(DenseInv),
}

impl Factor {
    /// The triangle when the basis peels, the dense inverse otherwise. A
    /// basis the pivoting simplex maintained is nonsingular; if its fresh
    /// factorisation is numerically borderline (a pivot under
    /// [`MIN_PIVOT`]), any nonzero pivot is accepted, so extraction
    /// degrades to reduced accuracy rather than failing.
    pub(crate) fn canonical(m: usize, cols: ColsView<'_>, basis: &[usize]) -> Self {
        let of = |min_pivot| match Triangle::peel(m, cols, basis, min_pivot) {
            Some(t) => Some(Factor::Triangle(t)),
            None => {
                let mut inv = DenseInv::new(m);
                inv.refactor(cols, basis, min_pivot)
                    .then_some(Factor::Dense(inv))
            }
        };
        of(MIN_PIVOT)
            .or_else(|| of(0.0))
            .expect("exactly singular basis at extraction")
    }

    /// `w = B⁻¹ x` for a row-space `x` (consumed), in position space.
    pub(crate) fn ftran(&self, mut x: Vec<f64>) -> Vec<f64> {
        match self {
            Factor::Triangle(t) => {
                let mut w = vec![0.0; x.len()];
                t.solve(&mut x, |p, v| w[p] = v);
                w
            }
            Factor::Dense(inv) => inv.ftran_dense(&x),
        }
    }

    /// `w = B⁻¹ A_j` for extended column `j` (on-demand ranging).
    pub(crate) fn ftran_col(&self, cols: ColsView<'_>, m: usize, j: usize) -> Vec<f64> {
        let mut x = vec![0.0; m];
        cols.scatter(j, &mut x);
        self.ftran(x)
    }

    /// `y = B⁻ᵀ c_B` with `c_B` in position space, `y` in row space.
    pub(crate) fn btran(&self, cb: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; cb.len()];
        match self {
            Factor::Triangle(t) => t.solve_transposed(cb, &mut y),
            Factor::Dense(inv) => inv.btran_into(cb, &mut y),
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(start: &'a [usize], rows: &'a [u32], vals: &'a [f64]) -> ColsView<'a> {
        ColsView { start, rows, vals }
    }

    /// `B·w` for the basis `cols[basis[i]]`, in row space.
    fn times(cols: ColsView<'_>, basis: &[usize], w: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; basis.len()];
        for (p, &j) in basis.iter().enumerate() {
            for idx in cols.start[j]..cols.start[j + 1] {
                out[cols.rows[idx] as usize] += cols.vals[idx] * w[p];
            }
        }
        out
    }

    /// `Bᵀ·y` for the basis `cols[basis[i]]`, in position space.
    fn times_transposed(cols: ColsView<'_>, basis: &[usize], y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; basis.len()];
        for (p, &j) in basis.iter().enumerate() {
            for idx in cols.start[j]..cols.start[j + 1] {
                out[p] += cols.vals[idx] * y[cols.rows[idx] as usize];
            }
        }
        out
    }

    fn assert_solves(f: &Factor, cols: ColsView<'_>, basis: &[usize]) {
        let rhs = [1.0, -2.0, 0.5, 3.0][..basis.len()].to_vec();
        let w = f.ftran(rhs.clone());
        for (a, b) in times(cols, basis, &w).iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-12, "B w: {a} vs {b}");
        }
        let cb = [0.5, 1.0, -1.0, 2.0][..basis.len()].to_vec();
        let y = f.btran(&cb);
        for (a, b) in times_transposed(cols, basis, &y).iter().zip(&cb) {
            assert!((a - b).abs() < 1e-12, "Bᵀ y: {a} vs {b}");
        }
    }

    /// A 3×3 system with known inverse that does not peel: columns
    /// `[2,1,0]`, `[0,3,1]`, `[1,0,2]` — every row holds two entries.
    fn cols_3x3() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let start = vec![0, 2, 4, 6];
        let rows = vec![0, 1, 1, 2, 0, 2];
        let vals = vec![2.0, 1.0, 3.0, 1.0, 1.0, 2.0];
        (start, rows, vals)
    }

    /// A permuted triangle: row 3 names column 3, then row 1 column 2,
    /// row 0 column 1 and row 2 column 0.
    fn cols_triangle() -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let start = vec![0, 1, 3, 5, 8];
        let rows = vec![2, 0, 2, 0, 1, 1, 2, 3];
        let vals = vec![2.0, -1.0, 1.0, 0.5, 3.0, -2.0, 4.0, 1.0];
        (start, rows, vals)
    }

    #[test]
    fn dense_solves_small_system() {
        let (start, rows, vals) = cols_3x3();
        let cols = view(&start, &rows, &vals);
        let basis = [0, 1, 2];
        assert!(Triangle::peel(3, cols, &basis, MIN_PIVOT).is_none());
        let f = Factor::canonical(3, cols, &basis);
        assert!(matches!(f, Factor::Dense(_)), "a basis that does not peel");
        assert_solves(&f, cols, &basis);
        // The hot-path variants agree with the allocating ones.
        let Factor::Dense(inv) = &f else {
            unreachable!()
        };
        let mut sp = IndexedVec::new(3);
        let mut ys = IndexedVec::new(3);
        sp.set(1, 1.0);
        inv.btran_sparse(&sp, &mut ys);
        for (r, &v) in f.btran(&[0.0, 1.0, 0.0]).iter().enumerate() {
            assert!((ys.get(r) - v).abs() < 1e-14, "row {r}");
        }
        let mut wv = IndexedVec::new(3);
        inv.ftran_col(cols, 2, &mut wv);
        for (i, &v) in f.ftran_col(cols, 3, 2).iter().enumerate() {
            assert!((wv.get(i) - v).abs() < 1e-14, "pos {i}");
        }
    }

    #[test]
    fn sparse_solves_small_system() {
        // The substitution answers `B w = x` and `Bᵀ y = c` exactly like
        // the residuals say, from any basis order.
        let (start, rows, vals) = cols_triangle();
        let cols = view(&start, &rows, &vals);
        for basis in [[3, 0, 2, 1], [0, 1, 2, 3], [2, 3, 1, 0]] {
            let f = Factor::canonical(4, cols, &basis);
            assert!(matches!(f, Factor::Triangle(_)), "{basis:?} peels");
            assert_solves(&f, cols, &basis);
        }
    }

    #[test]
    fn eta_update_matches_refactorisation() {
        let (mut start, mut rows, mut vals) = cols_3x3();
        // Add a fourth column [1, 1, 1] to pivot in.
        start.push(9);
        rows.extend([0, 1, 2]);
        vals.extend([1.0, 1.0, 1.0]);
        let cols = view(&start, &rows, &vals);
        let (mut inc, mut fresh) = (DenseInv::new(3), DenseInv::new(3));
        assert!(inc.refactor(cols, &[0, 1, 2], MIN_PIVOT));
        let mut w = IndexedVec::new(3);
        inc.ftran_col(cols, 3, &mut w);
        w.sort_indices();
        inc.update(&w, 1);
        assert!(fresh.refactor(cols, &[0, 3, 2], MIN_PIVOT));
        let rhs = [0.3, -1.2, 2.5];
        for (a, b) in inc.ftran_dense(&rhs).iter().zip(&fresh.ftran_dense(&rhs)) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        let cb = [1.0, 0.0, -3.0];
        let (mut yi, mut yf) = (vec![0.0; 3], vec![0.0; 3]);
        inc.btran_into(&cb, &mut yi);
        fresh.btran_into(&cb, &mut yf);
        for (a, b) in yi.iter().zip(&yf) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_and_sparse_agree() {
        // On a basis that peels, the dense inverse and the substitution
        // answer alike (to rounding).
        let (start, rows, vals) = cols_triangle();
        let cols = view(&start, &rows, &vals);
        let basis = [2, 0, 3, 1];
        let tri = Factor::canonical(4, cols, &basis);
        let mut inv = DenseInv::new(4);
        assert!(inv.refactor(cols, &basis, MIN_PIVOT));
        let dense = Factor::Dense(inv);
        let rhs = vec![1.5, -0.5, 4.0, 2.0];
        for (a, b) in tri.ftran(rhs.clone()).iter().zip(&dense.ftran(rhs)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let cb = [2.0, 1.0, -1.0, 0.5];
        for (a, b) in tri.btran(&cb).iter().zip(&dense.btran(&cb)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn singular_basis_rejected_and_state_preserved() {
        // Two identical columns → singular.
        let start = vec![0, 1, 2, 3];
        let rows = vec![0, 0, 1];
        let vals = vec![1.0, 1.0, 1.0];
        let cols = view(&start, &rows, &vals);
        let mut d = DenseInv::new(2);
        assert!(d.refactor(cols, &[0, 2], MIN_PIVOT));
        let before = d.ftran_dense(&[1.0, 1.0]);
        assert!(!d.refactor(cols, &[0, 1], 0.0));
        assert_eq!(before, d.ftran_dense(&[1.0, 1.0]));
        assert!(Triangle::peel(2, cols, &[0, 1], 0.0).is_none());
    }

    #[test]
    fn triangular_basis_factors_by_substitution() {
        // The permuted triangle peels with no fill: the factor holds
        // exactly B's nonzeros.
        let (start, rows, vals) = cols_triangle();
        let cols = view(&start, &rows, &vals);
        let t = Triangle::peel(4, cols, &[3, 0, 2, 1], MIN_PIVOT).expect("peels");
        assert_eq!(t.rows.len() + t.diag.len(), 8, "no fill");
        // A singular column set never peels.
        assert!(Triangle::peel(4, cols, &[0, 0, 2, 3], MIN_PIVOT).is_none());
        // A diagonal under the pivot floor does not either.
        assert!(Triangle::peel(4, cols, &[3, 0, 2, 1], 5.0).is_none());
    }
}
