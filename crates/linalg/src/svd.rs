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
//!
//! ## Scale window
//!
//! The sweep's skip test has an absolute floor (`1e-30`) and forms
//! `app·aqq` and `‖A‖²_F`, so on its own it depends on the scale of the
//! input: below `‖A‖_F ≈ 3e-8` it skips rotations it needs, and huge inputs
//! overflow. Every factorization therefore first checks `‖A‖_F` against a
//! window, `[2^-24, 2^200]`, inside which neither threshold can bind on
//! scale alone. An input outside it is multiplied by the power of two that
//! brings its largest entry into `[1, 2)`, and the singular values are
//! scaled back. Power-of-two scaling is exact, so the rotations are those
//! of the scaled matrix; in-window inputs are not touched and keep their
//! bits.
//!
//! ## Lockstep sweeps
//!
//! A single sweep is latency-bound: each rotation waits for its dot
//! products and its div/sqrt chain before the next can start.
//! [`svd_thin_batch_into`] factors many inputs per call and, on CPUs with
//! AVX2, sweeps up to four same-shape matrices at once, one per lane of a
//! 256-bit register, their entries interleaved. Each lane runs the scalar
//! operation sequence unchanged — ascending-row dot products with one
//! accumulator each, the same skip test and `zeta → t → c → s` formulas,
//! separate multiply and add, never FMA — a lane that skips a pair keeps
//! its columns through a blend, and a lane stops after its first sweep
//! without a rotation, exactly where the scalar loop stops. So every lane
//! returns the bits [`svd_thin_into`] returns. Only inputs whose Jacobi
//! core needs no QR preconditioning and whose entries are finite go to
//! lockstep; the rest, and every input on other CPUs, take the scalar path
//! one at a time. Single calls stay scalar too: one matrix alone in
//! lockstep is slower than the scalar sweep. The SIMD sweep is the crate's
//! second contained `unsafe` exception, built like the GEMM microkernel in
//! [`crate::kernel`].

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
    /// Buffers of the post-sweep tail.
    tail: TailScratch,
    /// QR-preconditioning scratch (tall inputs).
    qr: QrScratch,
    /// QR factors of tall inputs.
    qr_q: Mat,
    qr_r: Mat,
    /// Left factor of the preconditioned inner SVD.
    u_inner: Mat,
    /// Transposed copy for wide inputs.
    trans: Mat,
    /// Power-of-two rescaled copy for inputs outside [`SCALE_WINDOW`].
    scaled: Mat,
}

/// Buffers of [`jacobi_finish`], shared by the scalar and lockstep paths.
#[derive(Debug, Default)]
struct TailScratch {
    /// Column norms (candidate singular values) before sorting.
    sigmas: Vec<f64>,
    /// Column permutation sorting the spectrum descending.
    order: Vec<usize>,
    /// Indices of numerically-null columns of `U` to re-orthonormalize.
    deficient: Vec<usize>,
    /// Gram–Schmidt candidate vector for basis completion.
    cand: Vec<f64>,
}

/// Frobenius-norm window inside which the sweep's thresholds cannot bind
/// on scale alone. The skip test's absolute floor `1e-30` exceeds the
/// relative `1e-15·‖A‖²` only for `‖A‖ < 3.2e-8`, below `2^-24 ≈ 6e-8`;
/// up to `2^200`, `app·aqq ≤ ‖A‖⁴ ≤ 2^800` and `‖A‖²` stay far from
/// overflow. Inputs outside it are scaled so that their largest entry
/// lies in `[1, 2)`, which puts `‖A‖` in `[1, 2√(mn)]`.
const SCALE_WINDOW: (f64, f64) = (pow2(-24), pow2(200));

/// `2^k` for `-1022 ≤ k ≤ 1023`, exactly.
const fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The power of two that brings `a` into [`SCALE_WINDOW`], or `None` when
/// its norm `fro` is already inside (or `a` is zero or non-finite, which
/// no scaling helps).
fn window_scale(a: MatRef<'_>, fro: f64) -> Option<f64> {
    if fro.is_nan() || (SCALE_WINDOW.0..=SCALE_WINDOW.1).contains(&fro) {
        return None;
    }
    let amax = a.max_abs();
    if amax == 0.0 || !amax.is_finite() {
        return None;
    }
    // Unbiased exponent of the largest entry (subnormals clamp to -1022).
    let e = ((amax.to_bits() >> 52) as i32 - 1023).clamp(-1022, 1022);
    Some(pow2(-e))
}

/// What [`prepare`] did to an input before the Jacobi core sees it.
#[derive(Debug, Default, Clone, Copy)]
struct Prepared {
    /// The input was wide and is factorized transposed: `U` and `V` swap.
    wide: bool,
    /// Frobenius norm of the prepared matrix.
    fro: f64,
    /// Power of two that maps the prepared singular values back to the
    /// input's (`1.0` unless the input was rescaled).
    unscale: f64,
}

impl Prepared {
    /// The `(U, s, V)` output slots of the prepared matrix's factorization.
    fn slots<'o>(&self, out: &'o mut SvdFactors) -> (&'o mut Mat, &'o mut Vec<f64>, &'o mut Mat) {
        if self.wide {
            (&mut out.v, &mut out.s, &mut out.u)
        } else {
            (&mut out.u, &mut out.s, &mut out.v)
        }
    }

    /// Maps the prepared singular values back to the input's scale.
    fn unscale(&self, s: &mut [f64]) {
        if self.unscale != 1.0 {
            for x in s {
                *x *= self.unscale;
            }
        }
    }
}

/// The preprocessing every factorization shares: wide inputs are
/// transposed into `trans`, and inputs outside [`SCALE_WINDOW`] are
/// rescaled by a power of two into `scaled`. Returns the matrix the core
/// factorizes (`m ≥ n`) and what was done to reach it.
fn prepare<'a>(a: MatRef<'a>, trans: &'a mut Mat, scaled: &'a mut Mat) -> (MatRef<'a>, Prepared) {
    let wide = a.rows() < a.cols();
    let a = if wide {
        a.transpose_into(trans);
        let t: &'a Mat = trans;
        t.view()
    } else {
        a
    };
    let fro = a.fro_norm();
    let Some(scale) = window_scale(a, fro) else {
        return (a, Prepared { wide, fro, unscale: 1.0 });
    };
    scaled.resize_zeroed(a.rows(), a.cols());
    for i in 0..a.rows() {
        for (y, &x) in scaled.row_mut(i).iter_mut().zip(a.row(i)) {
            *y = x * scale;
        }
    }
    let s: &'a Mat = scaled;
    (s.view(), Prepared { wide, fro: s.fro_norm(), unscale: 1.0 / scale })
}

/// True when an `m × n` (`m ≥ n`) Jacobi input is QR-preconditioned first:
/// sweeps cost O(m n²) each, so shrinking the row dimension to n pays off
/// whenever m is even modestly larger than n (and never hurts accuracy).
fn needs_qr(m: usize, n: usize) -> bool {
    m > n + n / 4
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
    let (mut trans, mut scaled) = (std::mem::take(&mut ws.trans), std::mem::take(&mut ws.scaled));
    let (a, prep) = prepare(a, &mut trans, &mut scaled);
    let (u, s, v) = prep.slots(out);
    svd_tall_into(a, prep.fro, u, s, v, ws);
    prep.unscale(s);
    ws.trans = trans;
    ws.scaled = scaled;
}

/// Tall/square dispatch (`m ≥ n`, Frobenius norm `fro`): QR-precondition
/// when noticeably tall.
fn svd_tall_into(
    a: MatRef<'_>,
    fro: f64,
    u: &mut Mat,
    s: &mut Vec<f64>,
    v: &mut Mat,
    ws: &mut SvdScratch,
) {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    if needs_qr(m, n) {
        qr_into(a, &mut ws.qr_q, &mut ws.qr_r, &mut ws.qr);
        let mut u_inner = std::mem::take(&mut ws.u_inner);
        let r = std::mem::take(&mut ws.qr_r);
        jacobi_svd_into(r.view(), r.fro_norm(), &mut u_inner, s, v, ws);
        ws.qr_q.matmul_into(&u_inner, u);
        ws.u_inner = u_inner;
        ws.qr_r = r;
        return;
    }
    jacobi_svd_into(a, fro, u, s, v, ws);
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

/// One-sided Jacobi SVD for `m ≥ n` with Frobenius norm `fro`, writing
/// into caller buffers.
///
/// Works on `W = A` column-wise: each rotation orthogonalizes one pair of
/// columns of `W` while accumulating the same rotation into `V`. On
/// convergence `W = U · diag(s)` and `A = W Vᵀ`. The working store is one
/// flat column-major buffer (column `j` at `w[j·m..(j+1)·m]`), so the
/// rotation loops stream contiguous memory.
fn jacobi_svd_into(
    a: MatRef<'_>,
    fro: f64,
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
    let thresh = skip_floor(fro);

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
                if apq.abs() <= thresh || apq.abs() <= 1e-15 * (app * aqq).sqrt() {
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
    jacobi_finish(w, m, v, u, s, v_out, &mut ws.tail);
}

/// The absolute part of the sweep's skip test for an input of Frobenius
/// norm `fro`: `|apq|` at or below it counts as already orthogonal.
fn skip_floor(fro: f64) -> f64 {
    let tol = 1e-15 * fro * fro;
    tol.max(1e-30)
}

/// The post-sweep tail shared by the scalar and lockstep paths: from the
/// swept column-major `w` (`m × n`) and accumulated rotations `v`, the
/// column norms become the singular values, sorted descending, `U` is `w`
/// with normalized columns (completed to an orthonormal basis where the
/// input is rank-deficient) and `V` is `v` permuted to match.
fn jacobi_finish(
    w: &[f64],
    m: usize,
    v: &Mat,
    u: &mut Mat,
    s: &mut Vec<f64>,
    v_out: &mut Mat,
    tail: &mut TailScratch,
) {
    let n = v.rows();
    // Column norms are the singular values.
    let order = &mut tail.order;
    order.clear();
    order.extend(0..n);
    let sigmas = &mut tail.sigmas;
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
    tail.deficient.clear();
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
            tail.deficient.push(new_j);
        }
        for i in 0..n {
            v_out.set(i, new_j, v.at(i, old_j));
        }
    }
    // Rank-deficient inputs leave null columns in U; PARAFAC2's Q_k update
    // needs a fully orthonormal U, so complete the basis deterministically.
    if !tail.deficient.is_empty() {
        complete_orthonormal_columns(u, &tail.deficient, &mut tail.cand);
    }
}

/// Borrows two distinct columns of the flat working store mutably.
fn pair_mut(w: &mut [f64], m: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let (lo, hi) = w.split_at_mut(q * m);
    (&mut lo[p * m..(p + 1) * m], &mut hi[..m])
}

/// Matrices swept together by the lockstep path: one per lane of a
/// 256-bit register.
const LANES: usize = 4;

/// Reusable scratch for [`svd_thin_batch_into`]. As with [`SvdScratch`],
/// buffers grow to the largest batch seen, so a second same-shape batch on
/// the same instance performs no heap allocations.
#[derive(Debug, Default)]
pub struct SvdBatchScratch {
    /// Scalar-path scratch; its staging copies and tail buffers also serve
    /// the lockstep lanes.
    scalar: SvdScratch,
    /// Inputs queued for lockstep, sorted by Jacobi shape.
    queue: Vec<usize>,
    /// Lane-interleaved working store: entry `(i, j)` of lane `l` at
    /// `w[(j·m + i)·LANES + l]`.
    w: Vec<f64>,
    /// Lane-interleaved rotations, the same layout with `n` rows.
    v: Vec<f64>,
}

/// Thin SVDs of many inputs: `outs[i]` gets exactly the bits
/// [`svd_thin_into`] returns for `inputs[i]`.
///
/// On CPUs with AVX2, inputs that need no QR preconditioning and have
/// finite entries are swept four same-shape matrices at a time (see the
/// module doc); everything else, and every input on other CPUs, takes the
/// scalar path one matrix at a time.
///
/// # Panics
/// Panics if `inputs` and `outs` differ in length.
pub fn svd_thin_batch_into<A: AsMatRef>(
    inputs: &[A],
    outs: &mut [SvdFactors],
    ws: &mut SvdBatchScratch,
) {
    assert_eq!(
        inputs.len(),
        outs.len(),
        "svd_thin_batch_into: {} inputs, {} outputs",
        inputs.len(),
        outs.len()
    );
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        lockstep_batch(inputs, outs, ws, avx2);
        return;
    }
    scalar_batch(inputs, outs, &mut ws.scalar);
}

/// The batch entry's fallback for CPUs without AVX2: every input through
/// [`svd_thin_into`].
fn scalar_batch<A: AsMatRef>(inputs: &[A], outs: &mut [SvdFactors], ws: &mut SvdScratch) {
    for (a, out) in inputs.iter().zip(outs) {
        svd_thin_into(a, out, ws);
    }
}

/// Proof that the CPU supports AVX2: only [`Avx2::detect`] makes one, so
/// holding one is what licenses calling [`sweeps_avx2`].
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// Cached runtime CPU-feature probe.
    fn detect() -> Option<Avx2> {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2")).then_some(Avx2(()))
    }
}

/// One loaded lane: which input it holds and how it was prepared.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Default, Clone, Copy)]
struct Lane {
    idx: usize,
    prep: Prepared,
}

/// The lockstep batch: inputs eligible by shape are queued and sorted by
/// Jacobi shape, then loaded lane by lane; a group is swept when four
/// lanes are full or the shape changes. An input whose prepared norm is
/// zero or non-finite falls back to [`svd_thin_into`] at load time.
#[cfg(target_arch = "x86_64")]
fn lockstep_batch<A: AsMatRef>(
    inputs: &[A],
    outs: &mut [SvdFactors],
    ws: &mut SvdBatchScratch,
    avx2: Avx2,
) {
    let SvdBatchScratch { scalar, queue, w, v } = ws;
    // The shape the Jacobi core sees: wide inputs are transposed.
    let shape = |i: usize| {
        let (m, n) = inputs[i].as_mat_ref().shape();
        (m.max(n), m.min(n))
    };
    queue.clear();
    for (i, (a, out)) in inputs.iter().zip(outs.iter_mut()).enumerate() {
        let (m, n) = shape(i);
        if n > 0 && !needs_qr(m, n) {
            queue.push(i);
        } else {
            svd_thin_into(a, out, scalar);
        }
    }
    queue.sort_unstable_by_key(|&i| shape(i));

    let mut lanes = [Lane::default(); LANES];
    let (mut live, mut group) = (0, (0, 0));
    for &i in queue.iter() {
        let (m, n) = shape(i);
        if live > 0 && (m, n) != group {
            run_lanes(&lanes[..live], group, w, v, outs, scalar, avx2);
            live = 0;
        }
        if live == 0 {
            group = (m, n);
            w.resize(m * n * LANES, 0.0);
            v.resize(n * n * LANES, 0.0);
        }
        let (a, prep) = prepare(inputs[i].as_mat_ref(), &mut scalar.trans, &mut scalar.scaled);
        if !(prep.fro.is_finite() && prep.fro > 0.0) {
            svd_thin_into(&inputs[i], &mut outs[i], scalar);
            continue;
        }
        for j in 0..n {
            for r in 0..m {
                w[(j * m + r) * LANES + live] = a.at(r, j);
            }
            for r in 0..n {
                v[(j * n + r) * LANES + live] = if r == j { 1.0 } else { 0.0 };
            }
        }
        lanes[live] = Lane { idx: i, prep };
        live += 1;
        if live == LANES {
            run_lanes(&lanes, group, w, v, outs, scalar, avx2);
            live = 0;
        }
    }
    if live > 0 {
        run_lanes(&lanes[..live], group, w, v, outs, scalar, avx2);
    }
}

/// Sweeps one loaded group of `(m, n)` lanes to convergence, then runs
/// each lane's tail into its output. Unused lanes are zeroed and idle.
#[cfg(target_arch = "x86_64")]
fn run_lanes(
    lanes: &[Lane],
    (m, n): (usize, usize),
    w: &mut [f64],
    v: &mut [f64],
    outs: &mut [SvdFactors],
    scalar: &mut SvdScratch,
    _avx2: Avx2,
) {
    let mut floor = [0.0; LANES];
    for (f, lane) in floor.iter_mut().zip(lanes) {
        *f = skip_floor(lane.prep.fro);
    }
    for entry in w.chunks_exact_mut(LANES).chain(v.chunks_exact_mut(LANES)) {
        entry[lanes.len()..].fill(0.0);
    }
    // SAFETY: an `Avx2` token exists only after the runtime check found
    // AVX2, the one precondition of the `#[target_feature]` function.
    #[allow(unsafe_code)]
    unsafe {
        sweeps_avx2(w, v, m, n, floor, lanes.len())
    };
    for (l, lane) in lanes.iter().enumerate() {
        scalar.w.clear();
        scalar.w.extend(w.iter().skip(l).step_by(LANES));
        scalar.v.resize_zeroed(n, n);
        for j in 0..n {
            for r in 0..n {
                scalar.v.set(r, j, v[(j * n + r) * LANES + l]);
            }
        }
        let (u, s, v_out) = lane.prep.slots(&mut outs[lane.idx]);
        jacobi_finish(&scalar.w, m, &scalar.v, u, s, v_out, &mut scalar.tail);
        lane.prep.unscale(s);
    }
}

/// The Jacobi sweeps of [`jacobi_svd_into`] on up to four interleaved
/// `m × n` matrices at once, lane `l` holding matrix `l` (`l < live`) with
/// skip floor `floor[l]`.
///
/// Every lane runs the scalar operation sequence: dot products in
/// ascending rows, one accumulator each; the same skip test; the same
/// `zeta → t → c → s` formulas; separate multiply and add (this function
/// enables AVX2 only, never FMA). A lane that skips a pair keeps its
/// columns through a blend, and drops out after its first sweep without a
/// rotation — where the scalar loop breaks, because a further sweep would
/// repeat the same skips. So each lane ends with the scalar path's bits.
///
/// # Safety
/// The CPU must support AVX2 (an [`Avx2`] token proves it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // contained SIMD exception; see module docs
unsafe fn sweeps_avx2(
    w: &mut [f64],
    v: &mut [f64],
    m: usize,
    n: usize,
    floor: [f64; LANES],
    live: usize,
) {
    use core::arch::x86_64::*;
    assert!(w.len() == m * n * LANES && v.len() == n * n * LANES, "sweeps_avx2: buffer sizes");
    let (wp, vp) = (w.as_mut_ptr(), v.as_mut_ptr());
    // SAFETY: each access is a 4-wide load or store at `(c·len + i)·LANES`
    // with column `c < n` and row `i < len`, `len` being `m` for `w` and `n`
    // for `v`, so it stays inside the asserted lengths; `loadu`/`storeu`
    // need no alignment. Columns `p < q` never overlap.
    unsafe {
        let sign = _mm256_set1_pd(-0.0);
        let one = _mm256_set1_pd(1.0);
        let two = _mm256_set1_pd(2.0);
        let rel = _mm256_set1_pd(1e-15);
        let floor = _mm256_loadu_pd(floor.as_ptr());
        let lane_on = |l: usize| if l < live { -1 } else { 0 };
        let mut active =
            _mm256_castsi256_pd(_mm256_set_epi64x(lane_on(3), lane_on(2), lane_on(1), lane_on(0)));
        for _sweep in 0..MAX_SWEEPS {
            if _mm256_movemask_pd(active) == 0 {
                break;
            }
            let mut rotated = _mm256_setzero_pd();
            for p in 0..n {
                for q in p + 1..n {
                    let (cp, cq) = (wp.add(p * m * LANES), wp.add(q * m * LANES));
                    let (mut app, mut aqq, mut apq) =
                        (_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd());
                    for i in 0..m {
                        let xp = _mm256_loadu_pd(cp.add(i * LANES));
                        let xq = _mm256_loadu_pd(cq.add(i * LANES));
                        app = _mm256_add_pd(app, _mm256_mul_pd(xp, xp));
                        aqq = _mm256_add_pd(aqq, _mm256_mul_pd(xq, xq));
                        apq = _mm256_add_pd(apq, _mm256_mul_pd(xp, xq));
                    }
                    let abs = _mm256_andnot_pd(sign, apq);
                    let bound = _mm256_mul_pd(rel, _mm256_sqrt_pd(_mm256_mul_pd(app, aqq)));
                    let skip = _mm256_or_pd(
                        _mm256_cmp_pd::<_CMP_LE_OQ>(abs, floor),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(abs, bound),
                    );
                    let rot = _mm256_andnot_pd(skip, active);
                    if _mm256_movemask_pd(rot) == 0 {
                        continue;
                    }
                    rotated = _mm256_or_pd(rotated, rot);
                    let zeta = _mm256_div_pd(_mm256_sub_pd(aqq, app), _mm256_mul_pd(two, apq));
                    // signum(zeta) = ±1 carrying zeta's sign bit.
                    let signum = _mm256_or_pd(_mm256_and_pd(zeta, sign), one);
                    let root = _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(zeta, zeta)));
                    let t =
                        _mm256_div_pd(signum, _mm256_add_pd(_mm256_andnot_pd(sign, zeta), root));
                    let c =
                        _mm256_div_pd(one, _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(t, t))));
                    let s = _mm256_mul_pd(c, t);
                    // Rotate columns p and q of W, then of V.
                    let pairs = [(cp, cq, m), (vp.add(p * n * LANES), vp.add(q * n * LANES), n)];
                    for (a, b, len) in pairs {
                        for i in 0..len {
                            let (pa, pb) = (a.add(i * LANES), b.add(i * LANES));
                            let xp = _mm256_loadu_pd(pa);
                            let xq = _mm256_loadu_pd(pb);
                            let np = _mm256_sub_pd(_mm256_mul_pd(c, xp), _mm256_mul_pd(s, xq));
                            let nq = _mm256_add_pd(_mm256_mul_pd(s, xp), _mm256_mul_pd(c, xq));
                            _mm256_storeu_pd(pa, _mm256_blendv_pd(xp, np, rot));
                            _mm256_storeu_pd(pb, _mm256_blendv_pd(xq, nq, rot));
                        }
                    }
                }
            }
            active = _mm256_and_pd(active, rotated);
        }
    }
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

    /// Bit patterns of a factorization, for exact comparisons.
    fn factor_bits(f: &SvdFactors) -> Vec<u64> {
        f.u.data().iter().chain(&f.s).chain(f.v.data()).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn scale_window_keeps_far_scaled_inputs_correct() {
        // Before the rescale, the skip test's absolute floor and the
        // products `app·aqq`, `‖A‖²` made these scales skip rotations (or
        // overflow) and return wrong factors.
        let mut rng = StdRng::seed_from_u64(28);
        let square = Mat::from_rows(&[&[2.0, -1.0, 0.5], &[0.3, 4.0, 1.0], &[-1.5, 0.7, 3.0]]);
        for a in [square, gaussian_mat(12, 4, &mut rng), gaussian_mat(4, 7, &mut rng)] {
            let base = svd_thin(&a);
            for c in [1e12, 1e-12, 1e30, 1e-30, 1e150, 1e-150] {
                let ca = a.scaled(c);
                let f = svd_thin(&ca);
                let k = f.s.len();
                let iu = (&f.u.gram() - &Mat::eye(k)).fro_norm();
                let iv = (&f.v.gram() - &Mat::eye(k)).fro_norm();
                assert!(
                    iu <= 1e-13 && iv <= 1e-13,
                    "c = {c:e}: ‖UᵀU − I‖ {iu:e}, ‖VᵀV − I‖ {iv:e}"
                );
                let rec = (&ca - &f.reconstruct()).fro_norm() / ca.fro_norm();
                assert!(rec <= 1e-13, "c = {c:e}: relative reconstruction error {rec:e}");
                for (x, y) in f.s.iter().zip(&base.s) {
                    assert!(
                        (x - c * y).abs() <= 1e-13 * c * y,
                        "c = {c:e}: σ {x:e} vs {:e}",
                        c * y
                    );
                }
            }
        }
    }

    #[test]
    fn power_of_two_scaling_is_exact() {
        // In the window, the sweep is equivariant under exact power-of-two
        // scaling; outside it, the rescale lands on the same sweep. Either
        // way U and V keep their bits and σ scales exactly.
        let mut rng = StdRng::seed_from_u64(29);
        for (m, n) in [(6, 6), (9, 7), (30, 5), (3, 8)] {
            let a = gaussian_mat(m, n, &mut rng);
            let base = svd_thin(&a);
            for k in [-900, -600, -100, -3, 5, 100, 600, 900] {
                let f = svd_thin(a.scaled(2f64.powi(k)));
                let unscaled: Vec<f64> = f.s.iter().map(|x| x * 2f64.powi(-k)).collect();
                let f = SvdFactors { s: unscaled, ..f };
                assert_eq!(factor_bits(&f), factor_bits(&base), "{m}x{n} scaled by 2^{k}");
            }
        }
    }

    #[test]
    fn scalar_batch_fallback_matches_batch_entry() {
        // The fallback CPUs without AVX2 take, called directly so that
        // machines with AVX2 cover it too.
        let mut rng = StdRng::seed_from_u64(30);
        let mut nan = gaussian_mat(6, 6, &mut rng);
        nan.set(1, 1, f64::NAN);
        let inputs = [
            gaussian_mat(6, 6, &mut rng),
            gaussian_mat(6, 6, &mut rng),
            Mat::zeros(6, 6),
            nan,
            gaussian_mat(6, 6, &mut rng).scaled(1e-200),
            gaussian_mat(20, 4, &mut rng),
            gaussian_mat(4, 5, &mut rng),
            gaussian_mat(6, 6, &mut rng),
            gaussian_mat(6, 6, &mut rng),
        ];
        let mut fallback = vec![SvdFactors::default(); inputs.len()];
        scalar_batch(&inputs, &mut fallback, &mut SvdScratch::default());
        let mut batch = vec![SvdFactors::default(); inputs.len()];
        svd_thin_batch_into(&inputs, &mut batch, &mut SvdBatchScratch::default());
        for (i, a) in inputs.iter().enumerate() {
            let want = factor_bits(&svd_thin(a));
            assert_eq!(factor_bits(&fallback[i]), want, "fallback, input {i}");
            assert_eq!(factor_bits(&batch[i]), want, "batch entry, input {i}");
        }
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
