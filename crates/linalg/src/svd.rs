//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! Every PARAFAC2 solver in this repository leans on the SVD:
//!
//! * PARAFAC2-ALS updates `Q_k` from the truncated SVD of `X_k V S_k Hᵀ`
//!   (Algorithm 2, line 4),
//! * DPar2 takes the SVD of the tiny `R×R` matrix `F(k) E Dᵀ V S_k Hᵀ`
//!   (Algorithm 3, line 9),
//! * randomized SVD (Algorithm 1) finishes with an exact SVD of the small
//!   sketch `B = Qᵀ A`.
//!
//! We implement the *one-sided Jacobi* method: it orthogonalizes the columns
//! of the working matrix by plane rotations until convergence, at which point
//! column norms are the singular values. It is simple, unconditionally
//! convergent in practice, and delivers high relative accuracy — a good match
//! for the small/medium matrices these algorithms produce. Tall matrices are
//! QR-preconditioned first (`A = Q·R`, Jacobi on `R`); wide matrices are
//! transposed.

use crate::mat::Mat;
use crate::qr::{qr_into, QrScratch};
use crate::view::{AsMatRef, MatRef};

/// Maximum number of Jacobi sweeps before declaring non-convergence.
/// One-sided Jacobi converges quadratically; well-conditioned inputs finish
/// in < 10 sweeps, so 60 leaves a wide margin.
const MAX_SWEEPS: usize = 60;

/// A (thin) singular value decomposition `A ≈ U · diag(s) · Vᵀ`.
#[derive(Debug, Clone, Default)]
pub struct SvdFactors {
    /// Column-orthonormal left factor, `m × k`.
    pub u: Mat,
    /// Singular values in non-increasing order, length `k`.
    pub s: Vec<f64>,
    /// Column-orthonormal right factor, `n × k`.
    pub v: Mat,
}

impl SvdFactors {
    /// Reconstructs `U · diag(s) · Vᵀ`.
    pub fn reconstruct(&self) -> Mat {
        let us = scale_cols(&self.u, &self.s);
        us.matmul_nt(&self.v).expect("SvdFactors::reconstruct: shape mismatch")
    }

    /// Numerical rank at relative tolerance `rel_tol` (fraction of `s[0]`).
    pub fn rank(&self, rel_tol: f64) -> usize {
        let cutoff = self.s.first().copied().unwrap_or(0.0) * rel_tol;
        self.s.iter().filter(|&&x| x > cutoff).count()
    }
}

/// Returns `m` with column `j` scaled by `s[j]`.
fn scale_cols(m: &Mat, s: &[f64]) -> Mat {
    let mut out = m.clone();
    let cols = m.cols();
    for i in 0..m.rows() {
        let row = out.row_mut(i);
        for (j, &sj) in s.iter().enumerate().take(cols) {
            row[j] *= sj;
        }
    }
    out
}

/// Reusable scratch for the in-place SVD entry points. One instance serves
/// any sequence of factorizations; buffers grow to the largest shape seen
/// and are then reused, so repeated same-shape factorizations (the per-slice
/// `R×R` SVDs of the ALS iterations) perform no heap allocations.
#[derive(Debug, Default)]
pub struct SvdScratch {
    /// Column-major Jacobi working store (`n` columns of length `m`).
    w: Vec<f64>,
    /// Accumulated right-rotation matrix before sorting.
    v: Mat,
    /// Column norms (candidate singular values) before sorting.
    sigmas: Vec<f64>,
    /// Column permutation sorting the spectrum descending.
    order: Vec<usize>,
    /// Indices of numerically-null columns of `U` to re-orthonormalize.
    deficient: Vec<usize>,
    /// Gram–Schmidt candidate vector for basis completion.
    cand: Vec<f64>,
    /// QR-preconditioning scratch (tall inputs).
    qr: QrScratch,
    /// QR factors of tall inputs.
    qr_q: Mat,
    qr_r: Mat,
    /// Left factor of the preconditioned inner SVD.
    u_inner: Mat,
    /// Transposed copy for wide inputs.
    trans: Mat,
}

/// Thin SVD of an arbitrary dense matrix.
///
/// Strategy:
/// * `m ≥ n`: QR-precondition when noticeably tall, then one-sided Jacobi.
/// * `m < n`: factorize the transpose and swap `U`/`V`.
pub fn svd_thin(a: impl AsMatRef) -> SvdFactors {
    let mut out = SvdFactors::default();
    svd_thin_into(a, &mut out, &mut SvdScratch::default());
    out
}

/// [`svd_thin`] into a caller-owned [`SvdFactors`] with reusable scratch —
/// the allocation-free form the ALS hot loops run on. Bit-identical to
/// [`svd_thin`].
pub fn svd_thin_into(a: impl AsMatRef, out: &mut SvdFactors, ws: &mut SvdScratch) {
    let a = a.as_mat_ref();
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        out.u.resize_zeroed(m, 0);
        out.s.clear();
        out.v.resize_zeroed(n, 0);
        return;
    }
    if m < n {
        // Wide: factorize the transpose with U/V output slots swapped.
        let mut t = std::mem::take(&mut ws.trans);
        a.transpose_into(&mut t);
        svd_tall_into(t.view(), &mut out.v, &mut out.s, &mut out.u, ws);
        ws.trans = t;
        return;
    }
    svd_tall_into(a, &mut out.u, &mut out.s, &mut out.v, ws);
}

/// Tall/square driver (`m ≥ n`): QR-precondition when noticeably tall.
fn svd_tall_into(a: MatRef<'_>, u: &mut Mat, s: &mut Vec<f64>, v: &mut Mat, ws: &mut SvdScratch) {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    // QR preconditioning: Jacobi sweeps cost O(m n²) each, so shrinking the
    // row dimension to n first is a large win whenever m is even modestly
    // larger than n (and never hurts accuracy).
    if m > n + n / 4 {
        qr_into(a, &mut ws.qr_q, &mut ws.qr_r, &mut ws.qr);
        let mut u_inner = std::mem::take(&mut ws.u_inner);
        let r = std::mem::take(&mut ws.qr_r);
        jacobi_svd_into(r.view(), &mut u_inner, s, v, ws);
        ws.qr_q.matmul_into(&u_inner, u);
        ws.u_inner = u_inner;
        ws.qr_r = r;
        return;
    }
    jacobi_svd_into(a, u, s, v, ws);
}

/// Rank-`r` truncated SVD: the leading `r` singular triplets of `a`.
///
/// This mirrors MATLAB's `svds(A, r)` as used throughout the paper's
/// pseudocode ("performing truncated SVD at rank R").
pub fn svd_truncated(a: impl AsMatRef, r: usize) -> SvdFactors {
    let f = svd_thin(a);
    truncate(&f, r)
}

/// [`svd_truncated`] into a caller-owned [`SvdFactors`]; `tmp` holds the
/// full factorization before truncation. Bit-identical to [`svd_truncated`].
pub fn svd_truncated_into(
    a: impl AsMatRef,
    r: usize,
    out: &mut SvdFactors,
    tmp: &mut SvdFactors,
    ws: &mut SvdScratch,
) {
    svd_thin_into(a, tmp, ws);
    let k = r.min(tmp.s.len());
    out.u.resize_zeroed(tmp.u.rows(), k);
    for i in 0..tmp.u.rows() {
        out.u.row_mut(i).copy_from_slice(&tmp.u.row(i)[..k]);
    }
    out.s.clear();
    out.s.extend_from_slice(&tmp.s[..k]);
    out.v.resize_zeroed(tmp.v.rows(), k);
    for i in 0..tmp.v.rows() {
        out.v.row_mut(i).copy_from_slice(&tmp.v.row(i)[..k]);
    }
}

/// Keeps the leading `r` triplets of an existing factorization.
pub fn truncate(f: &SvdFactors, r: usize) -> SvdFactors {
    let k = r.min(f.s.len());
    SvdFactors {
        u: f.u.block(0, f.u.rows(), 0, k),
        s: f.s[..k].to_vec(),
        v: f.v.block(0, f.v.rows(), 0, k),
    }
}

/// One-sided Jacobi SVD for `m ≥ n`, writing into caller buffers.
///
/// Works on `W = A` column-wise: each rotation orthogonalizes one pair of
/// columns of `W` while accumulating the same rotation into `V`. On
/// convergence `W = U · diag(s)` and `A = W Vᵀ`. The working store is one
/// flat column-major buffer (column `j` at `w[j·m..(j+1)·m]`), so the
/// rotation loops stream contiguous memory.
fn jacobi_svd_into(
    a: MatRef<'_>,
    u: &mut Mat,
    s: &mut Vec<f64>,
    v_out: &mut Mat,
    ws: &mut SvdScratch,
) {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    // Column-major working copy: rotations touch whole columns, so columns
    // must be contiguous for this loop to vectorize.
    let w = &mut ws.w;
    w.clear();
    w.reserve(n * m);
    for j in 0..n {
        for i in 0..m {
            w.push(a.at(i, j));
        }
    }
    let v = &mut ws.v;
    v.resize_zeroed(n, n);
    for i in 0..n {
        v.set(i, i, 1.0);
    }

    let fro: f64 = a.fro_norm();
    if fro == 0.0 {
        // Zero matrix: arbitrary orthonormal factors, zero spectrum.
        u.resize_zeroed(m, n);
        for j in 0..n {
            u.set(j, j, 1.0);
        }
        s.clear();
        s.resize(n, 0.0);
        v_out.copy_from(&*v);
        return;
    }
    let tol = 1e-15 * fro * fro;

    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in p + 1..n {
                let (col_p, col_q) = (&w[p * m..(p + 1) * m], &w[q * m..(q + 1) * m]);
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for i in 0..m {
                    let wp = col_p[i];
                    let wq = col_q[i];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= tol.max(1e-30) || apq.abs() <= 1e-15 * (app * aqq).sqrt() {
                    continue;
                }
                rotated = true;
                // Closed-form Jacobi rotation that zeroes the (p,q) entry of
                // the implicit Gram matrix WᵀW.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s_rot = c * t;
                // Rotate columns p and q of W…
                let (wp, wq) = pair_mut(w, m, p, q);
                for i in 0..m {
                    let xp = wp[i];
                    let xq = wq[i];
                    wp[i] = c * xp - s_rot * xq;
                    wq[i] = s_rot * xp + c * xq;
                }
                // …and the same columns of V.
                for i in 0..n {
                    let vp = v.at(i, p);
                    let vq = v.at(i, q);
                    v.set(i, p, c * vp - s_rot * vq);
                    v.set(i, q, s_rot * vp + c * vq);
                }
            }
        }
        if !rotated {
            break;
        }
    }

    // Column norms are the singular values.
    let order = &mut ws.order;
    order.clear();
    order.extend(0..n);
    let sigmas = &mut ws.sigmas;
    sigmas.clear();
    sigmas
        .extend(w.chunks_exact(m.max(1)).map(|col| col.iter().map(|&x| x * x).sum::<f64>().sqrt()));
    // Descending; `total_cmp` orders finite (non-negative) norms exactly as
    // `partial_cmp` does and cannot fail on a NaN from a non-finite input.
    order.sort_by(|&i, &j| sigmas[j].total_cmp(&sigmas[i]));

    u.resize_zeroed(m, n);
    s.clear();
    v_out.resize_zeroed(n, n);
    let sigma_max = order.first().map(|&i| sigmas[i]).unwrap_or(0.0);
    let rank_tol = sigma_max * 1e-14;
    ws.deficient.clear();
    for (new_j, &old_j) in order.iter().enumerate() {
        let sigma = sigmas[old_j];
        s.push(sigma);
        if sigma > rank_tol && sigma > 0.0 {
            let inv = 1.0 / sigma;
            let col = &w[old_j * m..(old_j + 1) * m];
            for i in 0..m {
                u.set(i, new_j, col[i] * inv);
            }
        } else {
            ws.deficient.push(new_j);
        }
        for i in 0..n {
            v_out.set(i, new_j, v.at(i, old_j));
        }
    }
    // Rank-deficient inputs leave null columns in U; PARAFAC2's Q_k update
    // needs a fully orthonormal U, so complete the basis deterministically.
    if !ws.deficient.is_empty() {
        complete_orthonormal_columns(u, &ws.deficient, &mut ws.cand);
    }
}

/// Borrows two distinct columns of the flat working store mutably.
fn pair_mut(w: &mut [f64], m: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let (lo, hi) = w.split_at_mut(q * m);
    (&mut lo[p * m..(p + 1) * m], &mut hi[..m])
}

/// Fills the given columns of `u` with vectors orthonormal to all other
/// columns, using modified Gram–Schmidt against deterministic seed vectors.
fn complete_orthonormal_columns(u: &mut Mat, targets: &[usize], cand: &mut Vec<f64>) {
    let m = u.rows();
    let n = u.cols();
    let mut next_seed = 0usize;
    for &col in targets {
        'seed: loop {
            // Try canonical basis vectors e_0, e_1, … as seeds.
            cand.clear();
            cand.resize(m, 0.0);
            if next_seed < m {
                cand[next_seed] = 1.0;
            } else {
                // Extremely unlikely fallback: pseudo-random deterministic fill.
                for (i, c) in cand.iter_mut().enumerate() {
                    *c = ((i * 2654435761 + next_seed) % 1000) as f64 / 1000.0 - 0.5;
                }
            }
            next_seed += 1;
            // Orthogonalize against every other column (twice for stability).
            for _ in 0..2 {
                for j in 0..n {
                    if j == col {
                        continue;
                    }
                    let proj: f64 = (0..m).map(|i| cand[i] * u.at(i, j)).sum();
                    for (i, c) in cand.iter_mut().enumerate() {
                        *c -= proj * u.at(i, j);
                    }
                }
            }
            let norm: f64 = cand.iter().map(|&x| x * x).sum::<f64>().sqrt();
            if norm > 1e-8 {
                let inv = 1.0 / norm;
                for (i, c) in cand.iter().enumerate() {
                    u.set(i, col, c * inv);
                }
                break 'seed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_valid_svd(a: &Mat, f: &SvdFactors, tol: f64) {
        // Orthonormality.
        let iu = (&f.u.gram() - &Mat::eye(f.u.cols())).fro_norm();
        let iv = (&f.v.gram() - &Mat::eye(f.v.cols())).fro_norm();
        assert!(iu < tol, "U not orthonormal: {iu}");
        assert!(iv < tol, "V not orthonormal: {iv}");
        // Ordering.
        for wpair in f.s.windows(2) {
            assert!(wpair[0] >= wpair[1] - 1e-12, "singular values not sorted: {:?}", f.s);
        }
        // Reconstruction.
        let err = (a - &f.reconstruct()).fro_norm();
        assert!(err < tol * a.fro_norm().max(1.0), "reconstruction error {err}");
    }

    #[test]
    fn non_finite_input_returns_without_panicking() {
        // The descending sort of the column norms used to `expect` a
        // comparable value and panicked on the NaN a non-finite entry makes.
        let mut rng = StdRng::seed_from_u64(40);
        for (m, n, bad) in [(12, 4, f64::NAN), (5, 5, f64::INFINITY), (4, 9, f64::NAN)] {
            let mut a = gaussian_mat(m, n, &mut rng);
            a.set(1, 2, bad);
            let f = svd_thin(&a);
            assert_eq!(f.s.len(), m.min(n));
            assert!(
                !f.s.iter().all(|x| x.is_finite()),
                "{m}x{n}: non-finite input, finite spectrum"
            );
        }
    }

    #[test]
    fn svd_known_2x2() {
        // A = [[3, 0], [0, -2]] has singular values {3, 2}.
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, -2.0]]);
        let f = svd_thin(&a);
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 2.0).abs() < 1e-12);
        assert_valid_svd(&a, &f, 1e-10);
    }

    #[test]
    fn svd_square_random() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = gaussian_mat(12, 12, &mut rng);
        assert_valid_svd(&a, &svd_thin(&a), 1e-9);
    }

    #[test]
    fn svd_tall_random_uses_qr_path() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = gaussian_mat(60, 7, &mut rng);
        assert_valid_svd(&a, &svd_thin(&a), 1e-9);
    }

    #[test]
    fn svd_wide_random_transposes() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = gaussian_mat(5, 40, &mut rng);
        let f = svd_thin(&a);
        assert_eq!(f.u.shape(), (5, 5));
        assert_eq!(f.v.shape(), (40, 5));
        assert_valid_svd(&a, &f, 1e-9);
    }

    #[test]
    fn svd_rank_deficient() {
        // rank 1: outer product.
        let u = Mat::col_vector(&[1.0, 2.0, 3.0, 4.0]);
        let v = Mat::row_vector(&[1.0, -1.0, 0.5]);
        let a = u.matmul(&v).unwrap();
        let f = svd_thin(&a);
        assert_valid_svd(&a, &f, 1e-9);
        assert_eq!(f.rank(1e-10), 1);
        assert!(f.s[1] < 1e-10);
        assert!(f.s[2] < 1e-10);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Mat::zeros(6, 3);
        let f = svd_thin(&a);
        assert_eq!(f.s, vec![0.0; 3]);
        let iu = (&f.u.gram() - &Mat::eye(3)).fro_norm();
        assert!(iu < 1e-12);
    }

    #[test]
    fn svd_matches_frobenius_identity() {
        // ‖A‖²_F = Σ σᵢ².
        let mut rng = StdRng::seed_from_u64(24);
        let a = gaussian_mat(15, 9, &mut rng);
        let f = svd_thin(&a);
        let sum_sq: f64 = f.s.iter().map(|&x| x * x).sum();
        assert!((sum_sq - a.fro_norm_sq()).abs() < 1e-9 * a.fro_norm_sq());
    }

    #[test]
    fn truncated_svd_is_best_low_rank() {
        // Eckart–Young: truncation error equals the tail singular values.
        let mut rng = StdRng::seed_from_u64(25);
        let a = gaussian_mat(20, 10, &mut rng);
        let full = svd_thin(&a);
        let r = 4;
        let tr = svd_truncated(&a, r);
        assert_eq!(tr.s.len(), r);
        let err_sq = (&a - &tr.reconstruct()).fro_norm_sq();
        let tail_sq: f64 = full.s[r..].iter().map(|&x| x * x).sum();
        assert!((err_sq - tail_sq).abs() < 1e-8 * a.fro_norm_sq());
    }

    #[test]
    fn truncate_beyond_rank_is_identity() {
        let mut rng = StdRng::seed_from_u64(26);
        let a = gaussian_mat(6, 4, &mut rng);
        let f = svd_truncated(&a, 99);
        assert_eq!(f.s.len(), 4);
    }

    #[test]
    fn singular_values_invariant_under_orthogonal_transform() {
        let mut rng = StdRng::seed_from_u64(27);
        let a = gaussian_mat(10, 6, &mut rng);
        let q = crate::qr::qr(gaussian_mat(10, 10, &mut rng)).q;
        let qa = q.matmul(&a).unwrap();
        let s1 = svd_thin(&a).s;
        let s2 = svd_thin(&qa).s;
        for (x, y) in s1.iter().zip(&s2) {
            assert!((x - y).abs() < 1e-9 * s1[0]);
        }
    }

    #[test]
    fn empty_matrix() {
        let f = svd_thin(Mat::zeros(0, 0));
        assert!(f.s.is_empty());
    }

    #[test]
    fn reconstruct_diag() {
        let a = Mat::diag(&[5.0, 1.0, 3.0]);
        let f = svd_thin(&a);
        assert_eq!(f.s.len(), 3);
        assert!((f.s[0] - 5.0).abs() < 1e-12);
        assert!((f.s[1] - 3.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
        assert_valid_svd(&a, &f, 1e-10);
    }
}
