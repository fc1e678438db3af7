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
//! * [`SparseFactor`] — a sparse factorisation with a *product-form eta
//!   file* absorbing the pivots between refactorisations. Its kind is
//!   picked from the basis's structure ([`FactorKind`]): a basis that
//!   peels into a permuted triangle (every longest-path crash basis
//!   does) is a [`Triangle`] — its own columns in peel order, so FTRAN
//!   and BTRAN are one substitution each, with no heap, no sort and no
//!   fill. Every other basis gets an [`Lu`]: left-looking, partial
//!   pivoting by magnitude, Markowitz-style static column ordering to
//!   cut fill-in. For the ±1-coefficient LPs LLAMP generates, `L` and `U`
//!   stay close to the nonzero count of `B` itself, so FTRAN/BTRAN cost
//!   `O(nnz)` instead of `O(m²)`.
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
//! `SparseFactor` additionally keeps an internal order (the peel or
//! Markowitz column order); the mapping is private and all public
//! answers are in position/row space.

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

/// Which factorisation a refactorisation built (the `SolveStats`
/// factorisation counters key on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FactorKind {
    /// The basis peeled into a permuted triangle: pure substitution.
    Triangular,
    /// General elimination: the sparse LU, or the dense oracle's
    /// Gauss–Jordan inverse.
    Lu,
}

/// The operations the simplex core needs from a basis representation.
pub(crate) trait BasisFactor {
    /// Fresh, unfactorised state for an `m`-row problem.
    fn new(m: usize) -> Self;

    /// Factorise the basis whose columns are `cols[basis[i]]`, reporting
    /// which kind of factorisation it built. Returns `None` (leaving the
    /// previous state untouched) when the matrix is numerically singular.
    fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize]) -> Option<FactorKind>;

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

    /// Surrender the factorisation to canonical extraction, when it is a
    /// pristine (eta-free) `SparseFactor`. `None` (the default) means the
    /// representation has nothing transferable.
    fn take_sparse(&mut self) -> Option<SparseFactor> {
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
    fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize]) -> Option<FactorKind> {
        let m = self.m;
        if m == 0 {
            return Some(FactorKind::Lu);
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
                return None;
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
        Some(FactorKind::Lu)
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
// Sparse factorisation (triangle or LU) + product-form eta file
// ---------------------------------------------------------------------------

/// The production basis factorisation: a base picked from the basis's
/// structure plus a product-form eta file for the basis exchanges since
/// the last refactorisation. A basis that peels into a permuted triangle
/// gets a [`Triangle`] ([`FactorKind::Triangular`]): solves are plain
/// substitution. Any other basis gets an [`Lu`] ([`FactorKind::Lu`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseFactor {
    m: usize,
    base: Base,
    /// Product-form eta file in *position space*: eta `e` replaces
    /// position `eta_r[e]`, with sparse entries `(position, value)`; the
    /// entry at `eta_r[e]` holds `1/w_r`, the others `−w_i/w_r`.
    eta_start: Vec<usize>,
    eta_pos: Vec<u32>,
    eta_vals: Vec<f64>,
    eta_r: Vec<u32>,
    /// Hot-path scratch (row / position / factor space), all-zero between
    /// calls. Sized by the first hot-path solve and kept across
    /// refactorisations, so FTRAN/BTRAN never allocate.
    work_row: Vec<f64>,
    work_pos: Vec<f64>,
    work_fac: Vec<f64>,
    work_touch: Vec<u32>,
}

#[derive(Debug, Clone)]
enum Base {
    Triangle(Triangle),
    Lu(Lu),
}

impl Default for Base {
    fn default() -> Self {
        Base::Triangle(Triangle::default())
    }
}

/// A basis peeled into a permuted triangle. Peel step `s` takes row
/// `row[s]` with the column at basis position `pos[s]`, whose entry there
/// is `diag[s]` and whose other entries (`rows`/`vals` from `start[s]`)
/// all sit in rows peeled later. FTRAN is one forward substitution in
/// peel order, BTRAN one backward substitution against it; nothing is
/// eliminated, so there is no fill.
#[derive(Debug, Clone, Default)]
struct Triangle {
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
    fn peel(m: usize, cols: ColsView<'_>, basis: &[usize], min_pivot: f64) -> Option<Self> {
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

/// Sparse LU factorisation `P B Q = L U`: columns processed in a
/// Markowitz-style fill-reducing order `Q`, rows permuted by partial
/// pivoting `P`.
#[derive(Debug, Clone, Default)]
struct Lu {
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
}

impl Lu {
    /// Left-looking sparse LU with partial pivoting by magnitude; `None`
    /// when no pivot of at least `min_pivot` remains for some column.
    ///
    /// Columns are processed in a Markowitz-style static order (ascending
    /// nonzero count, ties by basis position): singleton columns pivot
    /// first and generate no fill, which keeps `L`/`U` near the nonzero
    /// count of `B` itself on LLAMP's near-triangular bases. Elimination
    /// follows the nonzero pattern through a min-heap of pivot positions
    /// (Gilbert–Peierls style), so each column costs `O(fill · log)`
    /// rather than a full `O(m)` scan.
    fn eliminate(m: usize, cols: ColsView<'_>, basis: &[usize], min_pivot: f64) -> Option<Self> {
        let mut lu = Lu {
            pivot_row: vec![u32::MAX; m],
            pos_of_factor: Vec::with_capacity(m),
            l_start: Vec::with_capacity(m + 1),
            u_start: Vec::with_capacity(m + 1),
            u_diag: Vec::with_capacity(m),
            ..Lu::default()
        };
        lu.l_start.push(0);
        lu.u_start.push(0);

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
                let ukj = x[lu.pivot_row[kk] as usize];
                if ukj == 0.0 {
                    continue;
                }
                lu.u_pos.push(kku);
                lu.u_vals.push(ukj);
                for idx in lu.l_start[kk]..lu.l_start[kk + 1] {
                    let r = lu.l_rows[idx] as usize;
                    if x[r] == 0.0 {
                        touched.push(r as u32);
                    }
                    x[r] -= lu.l_vals[idx] * ukj;
                    let rp = row_pos[r];
                    if rp != u32::MAX && queued[rp as usize] != k as u32 {
                        queued[rp as usize] = k as u32;
                        heap.push(Reverse(rp));
                    }
                }
            }
            lu.u_start.push(lu.u_pos.len());
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
                return None;
            }
            let d = x[piv];
            lu.pivot_row[k] = piv as u32;
            row_pos[piv] = k as u32;
            lu.u_diag.push(d);
            lu.pos_of_factor.push(p);
            for &t in &touched {
                let r = t as usize;
                let v = x[r];
                x[r] = 0.0;
                if r != piv && row_pos[r] == u32::MAX && v != 0.0 {
                    lu.l_rows.push(r as u32);
                    lu.l_vals.push(v / d);
                }
            }
            lu.l_start.push(lu.l_rows.len());
        }
        Some(lu)
    }

    /// `B w = x` for a row-space `x` (left dirty): the `L` solve, then
    /// `U` back-substitution reporting each nonzero `(position, w)`.
    /// `touched` hears every row written beyond `x`'s own support.
    fn solve(&self, x: &mut [f64], mut touched: impl FnMut(u32), mut emit: impl FnMut(usize, f64)) {
        let m = self.pivot_row.len();
        // The O(m) scans are sequential u32 loads; the arithmetic is
        // O(nnz).
        for k in 0..m {
            let xk = x[self.pivot_row[k] as usize];
            if xk == 0.0 {
                continue;
            }
            for idx in self.l_start[k]..self.l_start[k + 1] {
                let r = self.l_rows[idx];
                x[r as usize] -= self.l_vals[idx] * xk;
                touched(r);
            }
        }
        for k in (0..m).rev() {
            let v = x[self.pivot_row[k] as usize];
            if v == 0.0 {
                continue;
            }
            let wk = v / self.u_diag[k];
            emit(self.pos_of_factor[k] as usize, wk);
            for idx in self.u_start[k]..self.u_start[k + 1] {
                let r = self.pivot_row[self.u_pos[idx] as usize];
                x[r as usize] -= self.u_vals[idx] * wk;
                touched(r);
            }
        }
    }

    /// `Bᵀ y = c` for a position-space `c`: the `Uᵀ` solve in factor
    /// space (`fac`, fully overwritten), then `Lᵀ` in row space; every
    /// entry of `y` is overwritten.
    fn solve_transposed(&self, c: &[f64], fac: &mut [f64], y: &mut [f64]) {
        let m = self.pivot_row.len();
        for k in 0..m {
            fac[k] = c[self.pos_of_factor[k] as usize];
        }
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
}

impl SparseFactor {
    /// Nonzeros of the base factorisation (diagnostic / refactor
    /// trigger).
    pub(crate) fn nnz(&self) -> usize {
        match &self.base {
            Base::Triangle(t) => t.rows.len() + t.diag.len(),
            Base::Lu(lu) => lu.l_rows.len() + lu.u_pos.len() + lu.u_diag.len(),
        }
    }

    /// Which kind of factorisation the base is.
    pub(crate) fn kind(&self) -> FactorKind {
        match self.base {
            Base::Triangle(_) => FactorKind::Triangular,
            Base::Lu(_) => FactorKind::Lu,
        }
    }

    /// Whether the base factorises all `m` rows.
    fn factored(&self) -> bool {
        let k = match &self.base {
            Base::Triangle(t) => t.pos.len(),
            Base::Lu(lu) => lu.pos_of_factor.len(),
        };
        self.m > 0 && k == self.m
    }

    /// Size the hot-path scratch (a no-op after the first call).
    fn scratch(&mut self) {
        if self.work_row.len() != self.m {
            self.work_row = vec![0.0; self.m];
            self.work_pos = vec![0.0; self.m];
            self.work_fac = vec![0.0; self.m];
        }
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

    /// Dense-slice variant of [`SparseFactor::apply_etas_sparse`].
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

    /// Base solve of a dense row-space `x` (destroyed) into a dense
    /// position-space result, etas not applied.
    fn base_solve_dense(&self, x: &mut [f64]) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        match &self.base {
            Base::Triangle(t) => t.solve(x, |p, v| w[p] = v),
            Base::Lu(lu) => lu.solve(x, |_| {}, |p, v| w[p] = v),
        }
        w
    }

    /// Base transposed solve (`fac` is LU scratch of length `m`).
    fn base_solve_transposed(&self, c: &[f64], fac: &mut [f64], y: &mut [f64]) {
        match &self.base {
            Base::Triangle(t) => t.solve_transposed(c, y),
            Base::Lu(lu) => lu.solve_transposed(c, fac, y),
        }
    }

    /// Allocating FTRAN of sparse column `j` (on-demand ranging path;
    /// `&self` so it can run off the shared canonical factorisation).
    pub(crate) fn ftran_col_alloc(&self, cols: ColsView<'_>, j: usize) -> Vec<f64> {
        let mut x = vec![0.0; self.m];
        cols.scatter(j, &mut x);
        let mut w = self.base_solve_dense(&mut x);
        self.apply_etas(&mut w);
        w
    }

    /// Etas absorbed since the last refactorisation (diagnostic).
    #[cfg(test)]
    pub(crate) fn updates(&self) -> u64 {
        self.eta_r.len() as u64
    }

    /// The factorisation behind [`BasisFactor::refactor`], with an
    /// explicit minimum pivot magnitude. Canonical extraction retries a
    /// numerically borderline basis with `min_pivot = 0.0` (any nonzero
    /// pivot accepted) so a basis the solver itself maintained degrades
    /// to reduced accuracy instead of failing outright.
    ///
    /// The kind is chosen from the basis's structure alone: peel first,
    /// eliminate only when the basis does not peel. Both build into
    /// fresh storage, so a singular matrix leaves the previous
    /// factorisation intact; the eta file empties on success.
    pub(crate) fn refactor_min_pivot(
        &mut self,
        cols: ColsView<'_>,
        basis: &[usize],
        min_pivot: f64,
    ) -> Option<FactorKind> {
        self.base = match Triangle::peel(self.m, cols, basis, min_pivot) {
            Some(t) => Base::Triangle(t),
            None => Base::Lu(Lu::eliminate(self.m, cols, basis, min_pivot)?),
        };
        self.eta_start.clear();
        self.eta_start.push(0);
        self.eta_pos.clear();
        self.eta_vals.clear();
        self.eta_r.clear();
        Some(self.kind())
    }
}

impl BasisFactor for SparseFactor {
    fn new(m: usize) -> Self {
        Self {
            m,
            // `eta_start` keeps a leading sentinel so eta `e` spans
            // `eta_start[e]..eta_start[e+1]`.
            eta_start: vec![0],
            ..Self::default()
        }
    }

    fn refactor(&mut self, cols: ColsView<'_>, basis: &[usize]) -> Option<FactorKind> {
        self.refactor_min_pivot(cols, basis, 1e-12)
    }

    fn take_sparse(&mut self) -> Option<SparseFactor> {
        if self.eta_r.is_empty() && self.factored() {
            Some(std::mem::take(self))
        } else {
            None
        }
    }

    fn ftran_col(&mut self, cols: ColsView<'_>, j: usize, w: &mut IndexedVec) {
        w.reset(self.m);
        self.scratch();
        let x = &mut self.work_row;
        let touch = &mut self.work_touch;
        touch.clear();
        for idx in cols.start[j]..cols.start[j + 1] {
            let r = cols.rows[idx] as usize;
            x[r] = cols.vals[idx];
            touch.push(r as u32);
        }
        match &self.base {
            // The substitution consumes `x` entirely.
            Base::Triangle(t) => t.solve(x, |p, v| w.set(p, v)),
            Base::Lu(lu) => lu.solve(x, |r| touch.push(r), |p, v| w.set(p, v)),
        }
        for &r in touch.iter() {
            x[r as usize] = 0.0;
        }
        self.apply_etas_sparse(w);
    }

    fn ftran_dense(&self, rhs: &[f64]) -> Vec<f64> {
        let mut x = rhs.to_vec();
        let mut w = self.base_solve_dense(&mut x);
        self.apply_etas(&mut w);
        w
    }

    fn btran_dense(&self, cb: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut c = cb.to_vec();
        self.apply_etas_rev(&mut c);
        let mut y = vec![0.0; m];
        match &self.base {
            Base::Triangle(t) => t.solve_transposed(&c, &mut y),
            Base::Lu(lu) => lu.solve_transposed(&c, &mut vec![0.0; m], &mut y),
        }
        y
    }

    fn btran_dense_into(&mut self, cb: &[f64], y: &mut [f64]) {
        let m = self.m;
        self.scratch();
        let mut fac = std::mem::take(&mut self.work_fac);
        if self.eta_r.is_empty() {
            self.base_solve_transposed(cb, &mut fac, y);
        } else {
            // Move the scratch out so `self` methods can borrow immutably.
            let mut c = std::mem::take(&mut self.work_pos);
            c[..m].copy_from_slice(&cb[..m]);
            self.apply_etas_rev(&mut c);
            self.base_solve_transposed(&c, &mut fac, y);
            // Restore the all-zero invariant the sparse paths rely on.
            c[..m].fill(0.0);
            self.work_pos = c;
        }
        self.work_fac = fac;
    }

    fn btran_sparse(&mut self, v: &IndexedVec, y: &mut IndexedVec) {
        let m = self.m;
        y.reset(m);
        self.scratch();
        let mut c = std::mem::take(&mut self.work_pos);
        let mut fac = std::mem::take(&mut self.work_fac);
        let mut yd = std::mem::take(&mut self.work_row);
        for &i in v.indices() {
            c[i as usize] = v.get(i as usize);
        }
        self.apply_etas_rev(&mut c);
        self.base_solve_transposed(&c, &mut fac, &mut yd);
        // Clear the position-space scratch: the input support plus every
        // eta target written by `apply_etas_rev`.
        for &i in v.indices() {
            c[i as usize] = 0.0;
        }
        for &r in &self.eta_r {
            c[r as usize] = 0.0;
        }
        // `yd` is fully overwritten by the solve; gather the support,
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
        assert!(f.refactor(view, &[0, 1, 2]).is_some());
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
        check_ftran_btran(SparseFactor::new(3));
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
        let (mut inc, mut fresh) = (SparseFactor::new(3), SparseFactor::new(3));
        assert!(inc.refactor(view, &[0, 1, 2]).is_some());
        let mut w = IndexedVec::new(3);
        inc.ftran_col(view, 3, &mut w);
        w.sort_indices();
        inc.update(&w, 1);
        assert_eq!(inc.updates(), 1);
        assert!(inc.update_nnz() > 0);
        assert!(fresh.refactor(view, &[0, 3, 2]).is_some());
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
        let mut s = SparseFactor::new(3);
        assert!(d.refactor(view, &[2, 0, 1]).is_some());
        assert!(s.refactor(view, &[2, 0, 1]).is_some());
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
        let mut s = SparseFactor::new(2);
        assert!(s.refactor(view, &[0, 2]).is_some());
        let before = s.ftran_dense(&[1.0, 1.0]);
        assert!(s.refactor(view, &[0, 1]).is_none());
        let after = s.ftran_dense(&[1.0, 1.0]);
        assert_eq!(before, after);
        let mut d = DenseInv::new(2);
        assert!(d.refactor(view, &[0, 2]).is_some());
        assert!(d.refactor(view, &[0, 1]).is_none());
    }

    #[test]
    fn triangular_basis_factors_by_substitution() {
        // A permuted triangle: row 3 names column 3, then row 1 column 2,
        // row 0 column 1 and row 2 column 0. It must peel (no LU), and
        // every solve must agree with the dense inverse.
        let start = vec![0, 1, 3, 5, 8];
        let rows = vec![2, 0, 2, 0, 1, 1, 2, 3];
        let vals = vec![2.0, -1.0, 1.0, 0.5, 3.0, -2.0, 4.0, 1.0];
        let view = ColsView {
            start: &start,
            rows: &rows,
            vals: &vals,
        };
        let basis = [3, 0, 2, 1];
        let mut s = SparseFactor::new(4);
        let mut d = DenseInv::new(4);
        assert_eq!(s.refactor(view, &basis), Some(FactorKind::Triangular));
        assert_eq!(s.nnz(), 8, "no fill: the factor holds exactly B's nonzeros");
        assert!(d.refactor(view, &basis).is_some());
        let rhs = [1.0, -2.0, 0.5, 3.0];
        for (a, b) in s.ftran_dense(&rhs).iter().zip(&d.ftran_dense(&rhs)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let cb = [0.5, 1.0, -1.0, 2.0];
        let y = s.btran_dense(&cb);
        for (a, b) in y.iter().zip(&d.btran_dense(&cb)) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let mut y2 = vec![0.0; 4];
        s.btran_dense_into(&cb, &mut y2);
        assert_eq!(y, y2);
        let (mut w, mut wd) = (IndexedVec::new(4), IndexedVec::new(4));
        s.ftran_col(view, 3, &mut w);
        d.ftran_col(view, 3, &mut wd);
        for i in 0..4 {
            assert!((w.get(i) - wd.get(i)).abs() < 1e-12, "pos {i}");
        }
        // A singular column set never peels, and the LU refuses it too.
        assert!(s.refactor(view, &[0, 0, 2, 3]).is_none());
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
        let mut s = SparseFactor::new(4);
        let mut d = DenseInv::new(4);
        assert!(s.refactor(view, &[0, 1, 2, 3]).is_some());
        assert!(d.refactor(view, &[0, 1, 2, 3]).is_some());
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
