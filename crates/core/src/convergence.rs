//! The compressed convergence criterion (§III-E, "Convergence Criterion").
//!
//! Measuring the true reconstruction error `Σ_k ‖X_k − X̂_k‖²_F` costs
//! `O(Σ_k I_k J R)` time per iteration — as much as the whole preprocessing.
//! The paper's trick: because the update process minimizes the distance to
//! the *compressed* slices, and `Q_k` has orthonormal columns, the residual
//!
//! ```text
//! Σ_k ‖P_k Z_kᵀ F(k) E Dᵀ − H S_k Vᵀ‖²_F
//!   = Σ_k ‖A_k F(k) E Dᵀ − Q_k H S_k Vᵀ‖²_F
//! ```
//!
//! needs no `I_k`-sized matrix. (Unitary invariance of the Frobenius norm
//! plus `P_kᵀP_k = I`, `Z_k Z_kᵀ = I` gives the equality; see the
//! derivation in §III-E.)
//!
//! Evaluated as written, each slice still forms two `R×J` products, an
//! `O(J K R²)` pass. This module instead takes two thin QRs once per call,
//!
//! ```text
//! (E Dᵀ)ᵀ = Q R̃,     (I − Q Qᵀ) V = Q₂ R₂          O(J R²)
//! ```
//!
//! so `E Dᵀ = R̃ᵀ Qᵀ` and `Vᵀ = (VᵀQ) Qᵀ + R₂ᵀ Q₂ᵀ`. The residual splits
//! into a part with rows in `span(Q)` and a part with rows in
//! `span(Q₂ R₂)`, which `Qᵀ Q₂ R₂ = 0` makes orthogonal, so per slice
//!
//! ```text
//! ‖PZF_k·EDᵀ − H S_k Vᵀ‖² = ‖PZF_k·R̃ᵀ − H S_k·(VᵀQ)‖² + ‖H S_k·R₂ᵀ‖²
//! ```
//!
//! on `R×R` blocks, `O(R³)`: `O(J R² + K R³)` per call, the cost of the
//! Lemma 1–3 kernels. Both terms are sums of squares, so unlike the Gram
//! expansion `‖Y‖² − 2⟨Y, M⟩ + ‖M‖²` nothing cancels: the value is `≥ 0`
//! by construction and an exact model gives about `0`, not rounding noise
//! at the scale of `‖Y‖²`.

use crate::lemmas::k_run;
use crate::session::Workspace;
use dpar2_linalg::{qr_into, Mat};
use dpar2_parallel::ThreadPool;

/// The per-call `R×R`-sized blocks of the projected criterion: `H`, `R̃`
/// from `(E Dᵀ)ᵀ = Q R̃`, `QᵀV`, and `R₂` from `(I − QQᵀ)V = Q₂ R₂`.
struct Blocks<'a> {
    h: &'a Mat,
    r_edt: &'a Mat,
    qtv: &'a Mat,
    r2: &'a Mat,
}

impl Blocks<'_> {
    /// One slice's residual `‖PZF_k·R̃ᵀ − H S_k·(QᵀV)ᵀ‖² + ‖H S_k·R₂ᵀ‖²`
    /// into caller-owned scratch. Shared by the serial and pooled paths, so
    /// both produce bit-identical per-slice values.
    fn residual_sq(
        &self,
        pzf_k: &Mat,
        wrow: &[f64],
        hs: &mut Mat,
        pred: &mut Mat,
        model: &mut Mat,
    ) -> f64 {
        // H S_k: scale column c of H by W(k, c).
        hs.copy_from(self.h);
        for i in 0..hs.rows() {
            let row = hs.row_mut(i);
            for (c, &wv) in wrow.iter().enumerate() {
                row[c] *= wv;
            }
        }
        // The part in span(Q): PZF_k·R̃ᵀ against H S_k·(QᵀV)ᵀ.
        pzf_k.matmul_nt_into(self.r_edt, pred);
        hs.matmul_nt_into(self.qtv, model);
        let inside = pred.view().diff_norm_sq(&*model);
        // The model's part outside span(Q), which the data lacks.
        hs.matmul_nt_into(self.r2, model);
        inside + model.fro_norm_sq()
    }
}

/// Evaluates the compressed residual
/// `Σ_k ‖PZF_k · E Dᵀ − H · diag(W(k,:)) · Vᵀ‖²_F`.
///
/// * `pzf[k] = P_k Z_kᵀ F(k) ∈ R^{R×R}`
/// * `edt = E Dᵀ ∈ R^{R×J}`
/// * `h ∈ R^{R×R}`, `w ∈ R^{K×R}` (row `k` is `diag(S_k)`), `v ∈ R^{J×R}`
pub fn compressed_criterion(
    pzf: &[Mat],
    edt: &Mat,
    h: &Mat,
    w: &Mat,
    v: &Mat,
    pool: &ThreadPool,
) -> f64 {
    compressed_criterion_ws(pzf, edt, h, w, v, pool, &mut Workspace::new())
}

/// [`compressed_criterion`] against a caller-owned [`Workspace`], in the
/// projected form of the module doc: two thin QRs on the calling thread
/// (`O(J R²)`), then `O(R³)` per slice. The single-threaded path runs on
/// the arena's criterion buffers and performs zero allocations; larger
/// pools split the slices into one run per worker call, each with one
/// scratch set. Per-slice values are summed in ascending `k` on both paths, so
/// the result is bit-identical for every thread count.
pub fn compressed_criterion_ws(
    pzf: &[Mat],
    edt: &Mat,
    h: &Mat,
    w: &Mat,
    v: &Mat,
    pool: &ThreadPool,
    ws: &mut Workspace,
) -> f64 {
    let Workspace {
        qr,
        crit_tall,
        crit_q,
        crit_r,
        crit_qtv,
        crit_r2,
        crit_hs,
        crit_pred,
        crit_model,
        ..
    } = ws;
    // (E Dᵀ)ᵀ = Q·R̃.
    edt.view().transpose_into(crit_tall);
    qr_into(&*crit_tall, crit_q, crit_r, qr);
    // QᵀV, then (I − QQᵀ)·V = Q₂·R₂; Q₂ overwrites Q, which is done.
    crit_q.matmul_tn_into(v, crit_qtv);
    crit_q.matmul_into(&*crit_qtv, crit_tall);
    for (x, &vx) in crit_tall.data_mut().iter_mut().zip(v.data()) {
        *x = vx - *x;
    }
    qr_into(&*crit_tall, crit_q, crit_r2, qr);
    let blocks = Blocks { h, r_edt: crit_r, qtv: crit_qtv, r2: crit_r2 };

    if pool.threads() == 1 {
        let mut total = 0.0;
        for (k, pzf_k) in pzf.iter().enumerate() {
            total += blocks.residual_sq(pzf_k, w.row(k), crit_hs, crit_pred, crit_model);
        }
        return total;
    }
    let mut partial = vec![0.0; pzf.len()];
    let run = k_run(pzf.len(), pool.threads());
    pool.for_each_chunk_mut(&mut partial, run, |c, out| {
        let (mut hs, mut pred, mut model) = (Mat::default(), Mat::default(), Mat::default());
        for (off, out_k) in out.iter_mut().enumerate() {
            let k = c * run + off;
            *out_k = blocks.residual_sq(&pzf[k], w.row(k), &mut hs, &mut pred, &mut model);
        }
    });
    partial.iter().fold(0.0, |total, &x| total + x)
}

/// The naive equivalent on explicit matrices — `Σ_k ‖Y_k − H S_k Vᵀ‖²_F`
/// with caller-materialized `Y_k`. Used as a test oracle and by the
/// RD-ALS-style baselines that keep explicit reduced slices.
pub fn explicit_criterion(y: &[Mat], h: &Mat, w: &Mat, v: &Mat) -> f64 {
    let r = h.rows();
    let mut total = 0.0;
    let mut hs = Mat::default();
    let mut model = Mat::default();
    for (k, yk) in y.iter().enumerate() {
        hs.copy_from(h);
        let wrow = w.row(k);
        for i in 0..r {
            let row = hs.row_mut(i);
            for (c, &wv) in wrow.iter().enumerate() {
                row[c] *= wv;
            }
        }
        hs.matmul_nt_into(v, &mut model);
        total += (yk - &model).fro_norm_sq();
    }
    total
}

/// Shared stopping rule for every ALS-family solver: stop when the squared
/// criterion `err` ceases to decrease relative to `prev` by more than `tol`,
/// or when it is already negligible against the data norm (`err ≤ tol·‖X‖²`,
/// i.e. fitness ≥ 1 − tol under this repo's `1 − residual²/‖X‖²` fitness
/// convention). Without the absolute test, ALS "swamps" that keep shaving
/// ~1% per iteration off an already-converged solution never terminate.
///
/// DPar2 applies this to the compressed criterion and the baselines to the
/// true reconstruction error (via [`crate::FitSession`]), so cross-method
/// timing comparisons measure algorithmic cost rather than differing
/// stopping rules.
pub fn converged(prev: Option<f64>, err: f64, data_norm_sq: f64, tol: f64) -> bool {
    err <= tol * data_norm_sq || prev.is_some_and(|p| (p - err) / p.max(1e-300) < tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converged_rule() {
        // Absolute branch: residual negligible against the data norm.
        assert!(converged(None, 1e-9, 1.0, 1e-4));
        // Relative branch: stalls by less than tol (absolute branch does
        // not fire: 9.9999 > 1e-4 · 1e4).
        assert!(converged(Some(10.0), 9.9999, 1.0e4, 1e-4));
        // Still making progress: keep going.
        assert!(!converged(Some(10.0), 8.0, 1.0e4, 1e-4));
        // First iteration with a non-negligible residual: keep going.
        assert!(!converged(None, 5.0, 1.0e4, 1e-4));
        // Zero tolerance only stops on an exactly-zero residual.
        assert!(!converged(Some(10.0), 9.9999, 1.0e4, 0.0));
        assert!(converged(None, 0.0, 1.0e4, 0.0));
    }

    #[test]
    fn matches_explicit_materialization() {
        let mut rng = StdRng::seed_from_u64(201);
        let (k, j, r) = (5, 9, 3);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let pool = ThreadPool::new(1);
        let fast = compressed_criterion(&pzf, &edt, &h, &w, &v, &pool);
        let y: Vec<Mat> = pzf.iter().map(|p| p.matmul(&edt).unwrap()).collect();
        let slow = explicit_criterion(&y, &h, &w, &v);
        assert!((fast - slow).abs() < 1e-9 * (1.0 + slow));
    }

    #[test]
    fn zero_when_model_exact() {
        // Construct PZF_k·EDᵀ = H S_k Vᵀ exactly, criterion must be 0.
        let mut rng = StdRng::seed_from_u64(202);
        let (j, r) = (8, 3);
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        // Choose edt = Vᵀ and PZF_k = H·S_k, then PZF_k·EDᵀ = H S_k Vᵀ.
        let edt = v.transpose();
        let w = Mat::from_rows(&[&[1.0, 2.0, 0.5], &[0.3, 1.5, 2.2]]);
        let pzf: Vec<Mat> = (0..2)
            .map(|k| {
                let mut hs = h.clone();
                for i in 0..r {
                    let row = hs.row_mut(i);
                    for (c, &wv) in w.row(k).iter().enumerate() {
                        row[c] *= wv;
                    }
                }
                hs
            })
            .collect();
        let crit = compressed_criterion(&pzf, &edt, &h, &w, &v, &ThreadPool::new(2));
        assert!(crit < 1e-18, "criterion should vanish, got {crit}");
    }

    #[test]
    fn deterministic_across_threads() {
        // K spans several fixed-width chunks, the last one partial.
        let mut rng = StdRng::seed_from_u64(203);
        let (k, j, r) = (3 * crate::lemmas::K_CHUNK + 5, 6, 4);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let c1 = compressed_criterion(&pzf, &edt, &h, &w, &v, &ThreadPool::new(1));
        for threads in 2..=4 {
            let ct = compressed_criterion(&pzf, &edt, &h, &w, &v, &ThreadPool::new(threads));
            assert_eq!(c1.to_bits(), ct.to_bits(), "threads = {threads}: {c1} vs {ct}");
        }
    }

    #[test]
    fn nonnegative() {
        let mut rng = StdRng::seed_from_u64(204);
        let pzf = vec![gaussian_mat(2, 2, &mut rng)];
        let edt = gaussian_mat(2, 5, &mut rng);
        let h = gaussian_mat(2, 2, &mut rng);
        let w = gaussian_mat(1, 2, &mut rng);
        let v = gaussian_mat(5, 2, &mut rng);
        assert!(compressed_criterion(&pzf, &edt, &h, &w, &v, &ThreadPool::new(1)) >= 0.0);
    }
}
