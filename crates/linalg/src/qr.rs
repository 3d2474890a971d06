//! Householder QR factorization.
//!
//! The randomized SVD (Algorithm 1 of the paper, line 3) orthonormalizes the
//! sketch `Y = (AAᵀ)^q A Ω` with a QR factorization; this module provides the
//! thin (`economy-size`) variant `A = Q R` with `Q ∈ R^{m×k}`, `R ∈ R^{k×n}`,
//! `k = min(m, n)` via Householder reflections, which is unconditionally
//! numerically stable (unlike Gram–Schmidt).

use crate::mat::Mat;
use crate::view::AsMatRef;

/// Result of a thin QR factorization `A = Q R`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Column-orthonormal `m × k` factor, `k = min(m, n)`.
    pub q: Mat,
    /// Upper-triangular (trapezoidal when `m < n`) `k × n` factor.
    pub r: Mat,
}

/// Householder reflectors are applied to this many columns per pass over
/// the reflector vector: the columns' dot products are independent
/// accumulation chains, so a block keeps several in flight while `v` is
/// read once.
const LANES: usize = 8;

/// Reusable scratch for [`qr_into`]: the full-size column-major working
/// store and the Householder vectors. Holding one of these across calls
/// makes repeated factorizations of same-shaped inputs allocation-free.
#[derive(Debug, Default)]
pub struct QrScratch {
    /// Column-major working store, `n` columns of length `m`: `A` is
    /// reflected into `R` here, and once `R` is extracted the first `k`
    /// columns are reused to accumulate `Q`.
    work: Vec<f64>,
    /// Householder vectors; `vs[j]` has length `m - j`. The outer vector is
    /// never cleared, so inner capacities persist across calls.
    vs: Vec<Vec<f64>>,
    /// Reflector scales, one per column.
    taus: Vec<f64>,
}

/// Computes the thin QR factorization of `a` using Householder reflections.
///
/// For each column `k`, a reflector `H_k = I − τ v vᵀ` annihilates the
/// entries below the diagonal; `Q` is accumulated by applying the reflectors
/// to the thin identity in reverse order.
pub fn qr(a: impl AsMatRef) -> QrFactors {
    let mut f = QrFactors { q: Mat::zeros(0, 0), r: Mat::zeros(0, 0) };
    qr_into(a, &mut f.q, &mut f.r, &mut QrScratch::default());
    f
}

/// [`qr`] into caller-owned output buffers (`q`, `r` resized in place) with
/// reusable scratch — the allocation-free form the per-iteration SVDs of
/// the ALS solvers run on. Bit-identical to [`qr`].
///
/// The reflectors run on a column-major copy of `a`, several columns per
/// pass, but each column's update is the plain Householder arithmetic: its
/// dot product with `v` starts at `0.0` and adds in ascending row order, is
/// scaled by `τ`, and a zero scale skips the update. Accumulating `Q` also
/// skips the columns whose dot product is provably `+0.0`. `Q` and
/// `R` are therefore bitwise equal to the one-column-at-a-time row-major
/// loops, non-finite input included (`tests/qr_differential.rs` pins
/// this).
pub fn qr_into(a: impl AsMatRef, q: &mut Mat, r_thin: &mut Mat, ws: &mut QrScratch) {
    let a = a.as_mat_ref();
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let w = &mut ws.work;
    w.clear();
    w.resize(m * n, 0.0);
    for i in 0..m {
        for (c, &x) in a.row(i).iter().enumerate() {
            w[c * m + i] = x;
        }
    }
    // Householder vectors, one per reflected column. v[j] has length m - j.
    while ws.vs.len() < k {
        ws.vs.push(Vec::new());
    }
    ws.taus.clear();

    for j in 0..k {
        // Build the reflector from column j, rows j..m.
        let v = &mut ws.vs[j];
        v.clear();
        v.extend_from_slice(&w[j * m + j..(j + 1) * m]);
        let alpha = v[0];
        let sigma: f64 = v[1..].iter().map(|&x| x * x).sum();
        if sigma == 0.0 && alpha >= 0.0 {
            // Column already in upper-triangular form; identity reflector.
            ws.taus.push(0.0);
            continue;
        }
        let norm = (alpha * alpha + sigma).sqrt();
        // Choose the sign that avoids cancellation.
        let v0 = if alpha <= 0.0 { alpha - norm } else { -sigma / (alpha + norm) };
        let tau = 2.0 * v0 * v0 / (sigma + v0 * v0);
        let inv_v0 = 1.0 / v0;
        v[0] = 1.0;
        for x in &mut v[1..] {
            *x *= inv_v0;
        }

        // Apply H = I − τ v vᵀ to the trailing submatrix R[j.., j..].
        reflect_columns(v, tau, &mut w[j * m..], m, j);
        ws.taus.push(tau);
    }

    // Copy out the upper triangle of R (its subdiagonal stays zero),
    // truncated to k rows.
    r_thin.resize_zeroed(k, n);
    for i in 0..k {
        for j in i..n {
            r_thin.set(i, j, w[j * m + i]);
        }
    }

    // Accumulate the thin Q in the first k columns of the store: apply
    // H_0 H_1 … H_{k-1} to the m×k identity, from the last reflector
    // backwards. When H_j is applied, every column c < j is still +0.0 in
    // rows j.. (each earlier reflector's dot product there summed only
    // zeros, so it skipped the update), so H_j would skip it too and starts
    // at column j. That needs finite reflectors: 0·∞ and 0·NaN are NaN, so
    // from the first non-finite `v` or `τ` on, every column is reflected.
    let qw = &mut w[..m * k];
    qw.fill(0.0);
    for i in 0..k {
        qw[i * m + i] = 1.0;
    }
    let mut finite = true;
    for j in (0..k).rev() {
        let (v, tau) = (&ws.vs[j], ws.taus[j]);
        if tau != 0.0 {
            finite &= tau.is_finite() && v.iter().all(|x| x.is_finite());
            let first = if finite { j } else { 0 };
            reflect_columns(v, tau, &mut qw[first * m..], m, j);
        }
    }
    q.resize_zeroed(m, k);
    for c in 0..k {
        for (i, &x) in qw[c * m..(c + 1) * m].iter().enumerate() {
            q.set(i, c, x);
        }
    }
}

/// Applies `H = I − τ v vᵀ` to rows `row0..` of every column of the
/// column-major block `cols` (columns of length `ld`, `v.len() == ld -
/// row0`): `LANES` columns per pass, then the remainder in halving blocks.
fn reflect_columns(v: &[f64], tau: f64, cols: &mut [f64], ld: usize, row0: usize) {
    let rest = reflect_blocks::<LANES>(v, tau, cols, ld, row0);
    let rest = reflect_blocks::<4>(v, tau, rest, ld, row0);
    let rest = reflect_blocks::<2>(v, tau, rest, ld, row0);
    reflect_blocks::<1>(v, tau, rest, ld, row0);
}

/// Reflects as many whole `B`-column blocks of `cols` as fit and returns
/// the columns left over.
fn reflect_blocks<'a, const B: usize>(
    v: &[f64],
    tau: f64,
    cols: &'a mut [f64],
    ld: usize,
    row0: usize,
) -> &'a mut [f64] {
    let mut blocks = cols.chunks_exact_mut(ld * B);
    for block in &mut blocks {
        reflect_block::<B>(v, tau, block, ld, row0);
    }
    blocks.into_remainder()
}

/// [`reflect_columns`] on exactly `B` columns: one pass over `v` forms the
/// `B` dot products (each its own accumulator, in ascending row order),
/// then each column with a nonzero scale is updated.
#[inline(always)]
fn reflect_block<const B: usize>(v: &[f64], tau: f64, block: &mut [f64], ld: usize, row0: usize) {
    let len = v.len();
    let mut it = block.chunks_exact_mut(ld);
    let cols: [&mut [f64]; B] =
        std::array::from_fn(|_| &mut it.next().expect("block holds B columns")[row0..][..len]);
    let mut s = [0.0; B];
    for i in 0..len {
        let vi = v[i];
        for b in 0..B {
            s[b] += vi * cols[b][i];
        }
    }
    for b in 0..B {
        let sb = s[b] * tau;
        if sb != 0.0 {
            for (x, &vi) in cols[b].iter_mut().zip(v) {
                *x -= sb * vi;
            }
        }
    }
}

/// Solves the least-squares problem `min_x ‖A x − b‖₂` for tall full-rank `A`
/// via the thin QR factorization (`R x = Qᵀ b` back-substitution).
///
/// # Panics
/// Panics if `a.rows() < a.cols()` or `b.len() != a.rows()`.
pub fn lstsq(a: impl AsMatRef, b: &[f64]) -> Vec<f64> {
    let a = a.as_mat_ref();
    assert!(a.rows() >= a.cols(), "lstsq: system must be square or overdetermined");
    assert_eq!(b.len(), a.rows(), "lstsq: rhs length mismatch");
    let f = qr(a);
    let qtb = f.q.matvec_t(b);
    // Back substitution on R (k × n with k == n here).
    let n = a.cols();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = qtb[i];
        for j in i + 1..n {
            s -= f.r.at(i, j) * x[j];
        }
        let d = f.r.at(i, i);
        x[i] = if d.abs() > crate::EPS { s / d } else { 0.0 };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_orthonormal_cols(q: &Mat, tol: f64) {
        let g = q.gram();
        let eye = Mat::eye(q.cols());
        assert!(
            (&g - &eye).fro_norm() < tol,
            "columns not orthonormal: deviation {}",
            (&g - &eye).fro_norm()
        );
    }

    #[test]
    fn qr_reconstructs_tall() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = gaussian_mat(20, 5, &mut rng);
        let f = qr(&a);
        assert_eq!(f.q.shape(), (20, 5));
        assert_eq!(f.r.shape(), (5, 5));
        assert_orthonormal_cols(&f.q, 1e-12);
        let recon = f.q.matmul(&f.r).unwrap();
        assert!((&a - &recon).fro_norm() < 1e-12 * a.fro_norm().max(1.0));
    }

    #[test]
    fn qr_reconstructs_square() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = gaussian_mat(9, 9, &mut rng);
        let f = qr(&a);
        assert_orthonormal_cols(&f.q, 1e-12);
        assert!((&a - &f.q.matmul(&f.r).unwrap()).fro_norm() < 1e-11);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = gaussian_mat(4, 11, &mut rng);
        let f = qr(&a);
        assert_eq!(f.q.shape(), (4, 4));
        assert_eq!(f.r.shape(), (4, 11));
        assert_orthonormal_cols(&f.q, 1e-12);
        assert!((&a - &f.q.matmul(&f.r).unwrap()).fro_norm() < 1e-11);
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = gaussian_mat(8, 6, &mut rng);
        let f = qr(&a);
        for i in 0..f.r.rows() {
            for j in 0..i.min(f.r.cols()) {
                assert_eq!(f.r.at(i, j), 0.0, "R({i},{j}) not zeroed");
            }
        }
    }

    #[test]
    fn qr_of_identity() {
        let f = qr(Mat::eye(5));
        assert!((&f.q.matmul(&f.r).unwrap() - &Mat::eye(5)).fro_norm() < 1e-14);
    }

    #[test]
    fn qr_rank_deficient_still_factorizes() {
        // Two identical columns.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let f = qr(&a);
        assert!((&a - &f.q.matmul(&f.r).unwrap()).fro_norm() < 1e-12);
    }

    #[test]
    fn qr_zero_matrix() {
        let a = Mat::zeros(4, 3);
        let f = qr(&a);
        assert!((&a - &f.q.matmul(&f.r).unwrap()).fro_norm() < 1e-15);
    }

    #[test]
    fn lstsq_exact_system() {
        let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
        let x = lstsq(&a, &[2.0, 8.0, 0.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_overdetermined_matches_normal_equations() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = gaussian_mat(30, 4, &mut rng);
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let x = lstsq(&a, &b);
        // Residual must be orthogonal to the column space: Aᵀ(Ax − b) = 0.
        let ax = a.matvec(&x);
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let at_r = a.matvec_t(&resid);
        assert!(at_r.iter().all(|v| v.abs() < 1e-10));
    }
}
