//! Basis factorization for the revised simplex: a triangularized LU of the
//! basis `B₀` at the last refactorization, times a product-form eta file
//! for the pivots since, `B = B₀ · E₁ ⋯ E_k`.
//!
//! The simplex never needs `B⁻¹` itself, only its action: `ftran(a) = B⁻¹a`
//! (entering columns, basic values) and `btran(c) = B⁻ᵀc` (multipliers,
//! pivot rows). Verifier bases are mostly unit slack columns with a few
//! hundred structural columns, so [`BasisLu::factor`] first peels singleton
//! columns and rows — each is a pivot on an original entry, no arithmetic
//! at all — and factors only the remaining *bump* densely, with partial
//! pivoting. Peeled singletons make the basis block triangular:
//!
//! * a **column singleton** (one nonzero among the rows still active)
//!   is solved last by `ftran`, after every column that touches its row;
//! * a **row singleton** (one nonzero among the columns still active) is
//!   solved first, from its row alone.
//!
//! A pivot that replaces the column at basis position `r` by `a` with
//! `w = B⁻¹a` multiplies `B` on the right by `E = I + (w − e_r)e_rᵀ`;
//! [`BasisLu::update`] records `w` as an eta column, so an update costs
//! `O(nnz(w))` and every solve applies the eta file after (ftran) or before
//! (btran) the factors. The caller refactors once the file grows long.

use crate::LpError;

/// Smallest pivot magnitude a factorization accepts: below it the basis
/// counts as numerically singular.
const PIVOT_TOL: f64 = 1e-11;

/// A triangular pivot: basis position `pos` is solved from row `row`.
#[derive(Debug, Clone, Copy)]
struct Singleton {
    row: usize,
    pos: usize,
    pivot: f64,
}

/// The factorization `B = B₀ · E₁ ⋯ E_k`; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct BasisLu {
    m: usize,
    /// Columns of `B₀` by basis position, compressed: the entries of
    /// position `k` are `cols[col_start[k]..col_start[k + 1]]`.
    col_start: Vec<usize>,
    cols: Vec<(usize, f64)>,
    /// Row singletons in peeling order (ftran solves them first).
    lower: Vec<Singleton>,
    /// Column singletons in peeling order (ftran solves them last, in
    /// reverse).
    upper: Vec<Singleton>,
    /// Bump rows in pivot order: LU row `i` is row `bump_rows[i]` of `B₀`.
    bump_rows: Vec<usize>,
    /// Bump basis positions: LU column `c` is position `bump_pos[c]`.
    bump_pos: Vec<usize>,
    /// Dense LU of the bump (unit `L` strictly below the diagonal, `U` on
    /// and above it), row-major for btran and column-major for ftran, so
    /// both solves run by columns of their triangles and skip zeros.
    bump_lu: Vec<f64>,
    bump_lu_t: Vec<f64>,
    /// Eta file: eta `e` replaced position `eta_pos[e]` with pivot
    /// `eta_pivot[e]`; its off-pivot entries `(position, w_i)` are
    /// `eta_entries[eta_start[e]..eta_start[e + 1]]`.
    eta_pos: Vec<usize>,
    eta_pivot: Vec<f64>,
    eta_start: Vec<usize>,
    eta_entries: Vec<(usize, f64)>,
}

impl BasisLu {
    /// Factors the `m×m` basis whose column at position `k` is the `k`-th
    /// item of `columns` (sparse `(row, value)` pairs).
    ///
    /// # Errors
    ///
    /// [`LpError::SingularBasis`] when the basis is structurally singular
    /// (a column or row with nothing left to pivot on) or a pivot falls
    /// below `1e-11` in magnitude.
    pub(crate) fn factor<C, I>(m: usize, columns: C) -> Result<Self, LpError>
    where
        C: IntoIterator<Item = I>,
        I: IntoIterator<Item = (usize, f64)>,
    {
        let mut col_start = Vec::with_capacity(m + 1);
        let mut cols = Vec::new();
        col_start.push(0);
        for col in columns {
            cols.extend(col.into_iter().filter(|&(_, v)| v != 0.0));
            col_start.push(cols.len());
        }
        assert_eq!(col_start.len(), m + 1, "a basis has one column per row");
        // Row-wise pattern: the positions with an entry in each row.
        let mut row_start = vec![0usize; m + 1];
        for &(i, _) in &cols {
            row_start[i + 1] += 1;
        }
        for i in 0..m {
            row_start[i + 1] += row_start[i];
        }
        let mut row_pos = vec![0usize; cols.len()];
        let mut fill = row_start.clone();
        for k in 0..m {
            for &(i, _) in &cols[col_start[k]..col_start[k + 1]] {
                row_pos[fill[i]] = k;
                fill[i] += 1;
            }
        }

        // Peel singletons. Counts are over the rows/columns still active;
        // a count that drops to zero makes the basis structurally singular.
        let mut col_count: Vec<usize> = (0..m).map(|k| col_start[k + 1] - col_start[k]).collect();
        let mut row_count: Vec<usize> = (0..m).map(|i| row_start[i + 1] - row_start[i]).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        let mut col_queue: Vec<usize> = (0..m).filter(|&k| col_count[k] <= 1).collect();
        let mut row_queue: Vec<usize> = (0..m).filter(|&i| row_count[i] <= 1).collect();
        let (mut cq, mut rq) = (0, 0);
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        loop {
            let (row, pos, pivot, is_upper) = if let Some(&k) = col_queue.get(cq) {
                cq += 1;
                if col_done[k] {
                    continue;
                }
                let &(row, pivot) = cols[col_start[k]..col_start[k + 1]]
                    .iter()
                    .find(|&&(i, _)| !row_done[i])
                    .ok_or(LpError::SingularBasis)?;
                (row, k, pivot, true)
            } else if let Some(&i) = row_queue.get(rq) {
                rq += 1;
                if row_done[i] {
                    continue;
                }
                let &k = row_pos[row_start[i]..row_start[i + 1]]
                    .iter()
                    .find(|&&k| !col_done[k])
                    .ok_or(LpError::SingularBasis)?;
                let &(_, pivot) = cols[col_start[k]..col_start[k + 1]]
                    .iter()
                    .find(|&&(r, _)| r == i)
                    .expect("the row pattern mirrors the columns");
                (i, k, pivot, false)
            } else {
                break;
            };
            if pivot.abs() < PIVOT_TOL {
                return Err(LpError::SingularBasis);
            }
            let s = Singleton { row, pos, pivot };
            if is_upper {
                upper.push(s);
            } else {
                lower.push(s);
            }
            row_done[row] = true;
            col_done[pos] = true;
            for &k in &row_pos[row_start[row]..row_start[row + 1]] {
                if !col_done[k] {
                    col_count[k] -= 1;
                    if col_count[k] == 1 {
                        col_queue.push(k);
                    } else if col_count[k] == 0 {
                        return Err(LpError::SingularBasis);
                    }
                }
            }
            for &(i, _) in &cols[col_start[pos]..col_start[pos + 1]] {
                if !row_done[i] {
                    row_count[i] -= 1;
                    if row_count[i] == 1 {
                        row_queue.push(i);
                    } else if row_count[i] == 0 {
                        return Err(LpError::SingularBasis);
                    }
                }
            }
        }

        // Dense LU of the bump with partial pivoting.
        let mut bump_rows: Vec<usize> = (0..m).filter(|&i| !row_done[i]).collect();
        let bump_pos: Vec<usize> = (0..m).filter(|&k| !col_done[k]).collect();
        let nb = bump_rows.len();
        debug_assert_eq!(nb, bump_pos.len());
        let mut bump_index = vec![usize::MAX; m];
        for (bi, &i) in bump_rows.iter().enumerate() {
            bump_index[i] = bi;
        }
        let mut lu = vec![0.0; nb * nb];
        for (c, &k) in bump_pos.iter().enumerate() {
            for &(i, v) in &cols[col_start[k]..col_start[k + 1]] {
                if bump_index[i] != usize::MAX {
                    lu[bump_index[i] * nb + c] += v;
                }
            }
        }
        for c in 0..nb {
            let mut p = c;
            let mut best = lu[c * nb + c].abs();
            for r in c + 1..nb {
                let v = lu[r * nb + c].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < PIVOT_TOL {
                return Err(LpError::SingularBasis);
            }
            if p != c {
                for k in 0..nb {
                    lu.swap(p * nb + k, c * nb + k);
                }
                bump_rows.swap(p, c);
            }
            let (head, tail) = lu.split_at_mut((c + 1) * nb);
            let pivot_row = &head[c * nb..];
            let piv = pivot_row[c];
            for row in tail.chunks_mut(nb) {
                let f = row[c] / piv;
                row[c] = f;
                if f != 0.0 {
                    for (v, u) in row[c + 1..].iter_mut().zip(&pivot_row[c + 1..]) {
                        *v -= f * u;
                    }
                }
            }
        }
        let mut lu_t = vec![0.0; nb * nb];
        for (i, row) in lu.chunks(nb.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                lu_t[c * nb + i] = v;
            }
        }
        Ok(Self {
            m,
            col_start,
            cols,
            lower,
            upper,
            bump_rows,
            bump_pos,
            bump_lu: lu,
            bump_lu_t: lu_t,
            eta_pos: Vec::new(),
            eta_pivot: Vec::new(),
            eta_start: vec![0],
            eta_entries: Vec::new(),
        })
    }

    /// Pivots recorded in the eta file since the factorization.
    pub(crate) fn updates(&self) -> usize {
        self.eta_pos.len()
    }

    /// Size of the densely factored bump.
    #[cfg(test)]
    fn bump_size(&self) -> usize {
        self.bump_pos.len()
    }

    fn col(&self, k: usize) -> &[(usize, f64)] {
        &self.cols[self.col_start[k]..self.col_start[k + 1]]
    }

    /// Records that the column at basis position `pos` was replaced by one
    /// whose `ftran` is `w`. The caller guarantees `w[pos]` is a usable
    /// pivot.
    pub(crate) fn update(&mut self, pos: usize, w: &[f64]) {
        self.eta_pos.push(pos);
        self.eta_pivot.push(w[pos]);
        self.eta_entries.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &wi)| i != pos && wi != 0.0)
                .map(|(i, &wi)| (i, wi)),
        );
        self.eta_start.push(self.eta_entries.len());
    }

    /// `B⁻¹a`: `a` is indexed by row (and used as scratch), the result by
    /// basis position.
    pub(crate) fn ftran(&self, mut a: Vec<f64>) -> Vec<f64> {
        let mut x = vec![0.0; self.m];
        let solve = |s: &Singleton, a: &mut [f64], x: &mut [f64]| {
            let v = a[s.row];
            if v != 0.0 {
                let xv = v / s.pivot;
                x[s.pos] = xv;
                for &(i, c) in self.col(s.pos) {
                    a[i] -= c * xv;
                }
            }
        };
        for s in &self.lower {
            solve(s, &mut a, &mut x);
        }
        let nb = self.bump_pos.len();
        if nb > 0 {
            // L forward (unit diagonal), then U backward.
            let mut z: Vec<f64> = self.bump_rows.iter().map(|&i| a[i]).collect();
            for (c, col) in self.bump_lu_t.chunks(nb).enumerate() {
                let zc = z[c];
                if zc != 0.0 {
                    for (zi, l) in z[c + 1..].iter_mut().zip(&col[c + 1..]) {
                        *zi -= l * zc;
                    }
                }
            }
            for (c, col) in self.bump_lu_t.chunks(nb).enumerate().rev() {
                let zc = z[c] / col[c];
                z[c] = zc;
                if zc != 0.0 {
                    for (zi, u) in z[..c].iter_mut().zip(&col[..c]) {
                        *zi -= u * zc;
                    }
                }
            }
            for (&k, &xv) in self.bump_pos.iter().zip(&z) {
                if xv != 0.0 {
                    x[k] = xv;
                    for &(i, c) in self.col(k) {
                        a[i] -= c * xv;
                    }
                }
            }
        }
        for s in self.upper.iter().rev() {
            solve(s, &mut a, &mut x);
        }
        for (e, (&r, &pivot)) in self.eta_pos.iter().zip(&self.eta_pivot).enumerate() {
            let xr = x[r] / pivot;
            x[r] = xr;
            if xr != 0.0 {
                for &(i, wi) in &self.eta_entries[self.eta_start[e]..self.eta_start[e + 1]] {
                    x[i] -= wi * xr;
                }
            }
        }
        x
    }

    /// `B⁻ᵀc`: `c` is indexed by basis position (and used as scratch), the
    /// result by row.
    pub(crate) fn btran(&self, mut c: Vec<f64>) -> Vec<f64> {
        for (e, (&r, &pivot)) in self.eta_pos.iter().zip(&self.eta_pivot).enumerate().rev() {
            let dot: f64 = self.eta_entries[self.eta_start[e]..self.eta_start[e + 1]]
                .iter()
                .map(|&(i, wi)| wi * c[i])
                .sum();
            c[r] = (c[r] - dot) / pivot;
        }
        let mut y = vec![0.0; self.m];
        // Rows not yet solved still hold 0 in `y`, so each dot product
        // runs over the whole column.
        let solve = |s: &Singleton, y: &mut [f64]| {
            let dot: f64 = self.col(s.pos).iter().map(|&(i, v)| v * y[i]).sum();
            y[s.row] = (c[s.pos] - dot) / s.pivot;
        };
        for s in &self.upper {
            solve(s, &mut y);
        }
        let nb = self.bump_pos.len();
        if nb > 0 {
            let lu = &self.bump_lu;
            let mut t: Vec<f64> = self
                .bump_pos
                .iter()
                .map(|&k| c[k] - self.col(k).iter().map(|&(i, v)| v * y[i]).sum::<f64>())
                .collect();
            // Uᵀ forward, then Lᵀ backward (unit diagonal).
            for i in 0..nb {
                let row = &lu[i * nb..(i + 1) * nb];
                let ti = t[i] / row[i];
                t[i] = ti;
                if ti != 0.0 {
                    for (tk, u) in t[i + 1..].iter_mut().zip(&row[i + 1..]) {
                        *tk -= u * ti;
                    }
                }
            }
            for i in (1..nb).rev() {
                let ti = t[i];
                if ti != 0.0 {
                    for (tk, l) in t[..i].iter_mut().zip(&lu[i * nb..i * nb + i]) {
                        *tk -= l * ti;
                    }
                }
            }
            for (&i, &v) in self.bump_rows.iter().zip(&t) {
                y[i] = v;
            }
        }
        for s in self.lower.iter().rev() {
            solve(s, &mut y);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_tensor::Rng;

    /// A random `m×m` basis: `n_unit` signed unit (slack/artificial)
    /// columns on distinct rows, the rest structural with about `density`
    /// of their entries nonzero and a dominant entry on a row of their
    /// own, so the basis is nonsingular but not triangular.
    fn random_basis(
        rng: &mut Rng,
        m: usize,
        n_unit: usize,
        density: f64,
    ) -> Vec<Vec<(usize, f64)>> {
        let mut rows: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut rows);
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for (k, &r) in rows.iter().enumerate() {
            if k < n_unit {
                let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
                cols.push(vec![(r, sign)]);
                continue;
            }
            let mut col = vec![(r, 4.0 + rng.uniform())];
            for i in 0..m {
                if i != r && rng.uniform() < density {
                    col.push((i, rng.in_range(-1.0, 1.0)));
                }
            }
            cols.push(col);
        }
        rng.shuffle(&mut cols);
        cols
    }

    fn mat_vec(cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; cols.len()];
        for (col, &xk) in cols.iter().zip(x) {
            for &(i, v) in col {
                out[i] += v * xk;
            }
        }
        out
    }

    fn mat_t_vec(cols: &[Vec<(usize, f64)>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().map(|&(i, v)| v * y[i]).sum())
            .collect()
    }

    fn norm(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Asserts `‖B·ftran(a) − a‖∞` and `‖Bᵀ·btran(c) − c‖∞` are within
    /// `1e-9·(1 + ‖·‖)` for random right-hand sides.
    fn assert_solves(rng: &mut Rng, lu: &BasisLu, cols: &[Vec<(usize, f64)>], case: &str) {
        let m = cols.len();
        for _ in 0..3 {
            let a: Vec<f64> = (0..m).map(|_| rng.in_range(-2.0, 2.0)).collect();
            let x = lu.ftran(a.clone());
            let back = mat_vec(cols, &x);
            let err = norm(&back.iter().zip(&a).map(|(p, q)| p - q).collect::<Vec<_>>());
            assert!(
                err <= 1e-9 * (1.0 + norm(&a)),
                "{case}: ftran residual {err}"
            );
            let c: Vec<f64> = (0..m).map(|_| rng.in_range(-2.0, 2.0)).collect();
            let y = lu.btran(c.clone());
            let back = mat_t_vec(cols, &y);
            let err = norm(&back.iter().zip(&c).map(|(p, q)| p - q).collect::<Vec<_>>());
            assert!(
                err <= 1e-9 * (1.0 + norm(&c)),
                "{case}: btran residual {err}"
            );
        }
    }

    #[test]
    fn solves_random_bases_through_eta_updates() {
        let mut rng = Rng::new(15);
        let refactor_every = crate::SimplexOptions::default().refactor_every;
        for case in 0..6 {
            let m = 40 + 20 * case;
            let n_unit = m / 2 + rng.below(m / 4);
            let mut cols = random_basis(&mut rng, m, n_unit, 0.08);
            let mut lu = BasisLu::factor(m, cols.iter().map(|c| c.iter().copied())).unwrap();
            assert!(
                lu.bump_size() > 0,
                "case {case}: the structural block peels away"
            );
            assert_solves(&mut rng, &lu, &cols, &format!("case {case}, 0 etas"));
            // Replace random positions by fresh sparse columns, keeping
            // only well-conditioned pivots, past one refactor interval.
            let mut updates = 0;
            while updates < refactor_every + 10 {
                let pos = rng.below(m);
                let mut col = vec![(rng.below(m), 3.0)];
                for i in 0..m {
                    if rng.uniform() < 0.1 {
                        col.push((i, rng.in_range(-1.0, 1.0)));
                    }
                }
                let mut a = vec![0.0; m];
                for &(i, v) in &col {
                    a[i] += v;
                }
                let w = lu.ftran(a);
                if w[pos].abs() < 0.5 {
                    continue;
                }
                lu.update(pos, &w);
                cols[pos] = col;
                updates += 1;
                if updates == 1 || updates == refactor_every + 10 {
                    assert_solves(
                        &mut rng,
                        &lu,
                        &cols,
                        &format!("case {case}, {updates} etas"),
                    );
                }
            }
            assert_eq!(lu.updates(), refactor_every + 10);
        }
    }

    #[test]
    fn all_slack_basis_has_an_empty_bump() {
        let m = 7;
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|k| vec![((k * 3) % m, if k % 2 == 0 { 1.0 } else { -1.0 })])
            .collect();
        let lu = BasisLu::factor(m, cols.iter().map(|c| c.iter().copied())).unwrap();
        assert_eq!(lu.bump_size(), 0);
        assert_solves(&mut Rng::new(3), &lu, &cols, "all slack");
    }

    #[test]
    fn zero_or_duplicated_columns_are_singular() {
        let mut rng = Rng::new(11);
        let m = 30;
        let base = random_basis(&mut rng, m, 10, 0.2);
        assert!(BasisLu::factor(m, base.iter().map(|c| c.iter().copied())).is_ok());
        // Pick a structural column (more than one entry) to break.
        let k = (0..m).find(|&k| base[k].len() > 1).unwrap();
        let mut zero = base.clone();
        zero[k] = Vec::new();
        let mut dup = base.clone();
        dup[k] = base[(0..m).find(|&j| j != k && base[j].len() > 1).unwrap()].clone();
        let mut tiny = base.clone();
        tiny[k] = vec![(0, 1e-13)];
        for (name, cols) in [("zero", zero), ("duplicated", dup), ("tiny", tiny)] {
            assert_eq!(
                BasisLu::factor(m, cols.iter().map(|c| c.iter().copied())).unwrap_err(),
                LpError::SingularBasis,
                "{name} column"
            );
        }
    }
}
