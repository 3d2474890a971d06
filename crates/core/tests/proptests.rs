//! Property-based tests for the DPar2 core: compression fidelity, lemma
//! kernel equivalence, and criterion consistency over randomized shapes.

use dpar2_core::compress::compress;
use dpar2_core::config::FitOptions;
use dpar2_core::convergence::{compressed_criterion, explicit_criterion};
use dpar2_core::lemmas::{g1, g2, g3, materialize_y, naive_g1, naive_g2, naive_g3};
use dpar2_core::{Dpar2, StreamingDpar2};
use dpar2_linalg::{gaussian_mat, qr, Mat};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::IrregularTensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Planted PARAFAC2 tensor with randomized shape.
fn planted(seed: u64, k: usize, j: usize, r: usize) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = gaussian_mat(r, r, &mut rng);
    let v = gaussian_mat(j, r, &mut rng);
    let slices = (0..k)
        .map(|i| {
            let ik = j + 3 + 7 * i; // varied, ≥ j ≥ r
            let q = qr::qr(gaussian_mat(ik, r, &mut rng)).q;
            q.matmul(&h).unwrap().matmul_nt(&v).unwrap()
        })
        .collect();
    IrregularTensor::new(slices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-stage compression is lossless on exactly rank-R data, for any
    /// shape: ‖X_k − A_k F(k) E Dᵀ‖ ≈ 0.
    #[test]
    fn compression_lossless_on_planted(seed in 0u64..500, k in 2usize..6, j in 6usize..14, r in 1usize..4) {
        let t = planted(seed, k, j, r);
        let ct = compress(&t, &FitOptions::new(r).with_seed(seed ^ 1)).unwrap();
        for kk in 0..t.k() {
            let rel = (t.slice(kk) - &ct.reconstruct_slice(kk)).fro_norm()
                / t.slice(kk).fro_norm().max(1e-12);
            prop_assert!(rel < 1e-6, "slice {kk} rel err {rel}");
        }
    }

    /// Lemma kernels equal the naive MTTKRP on the materialized Y for
    /// arbitrary factor contents.
    #[test]
    fn lemmas_match_naive(seed in 0u64..500, k in 1usize..8, j in 2usize..12, r in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let de = edt.transpose();
        let v = gaussian_mat(j, r, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let edtv = edt.matmul(&v).unwrap();
        let pool = ThreadPool::new(1);
        let y = materialize_y(&pzf, &edt);

        let f1 = g1(&pzf, &w, &edtv, &pool);
        let n1 = naive_g1(&y, &v, &w);
        prop_assert!((&f1 - &n1).fro_norm() < 1e-8 * (1.0 + n1.fro_norm()));

        let f2 = g2(&pzf, &w, &h, &de, &pool);
        let n2 = naive_g2(&y, &h, &w);
        prop_assert!((&f2 - &n2).fro_norm() < 1e-8 * (1.0 + n2.fro_norm()));

        let f3 = g3(&pzf, &edtv, &h, &pool);
        let n3 = naive_g3(&y, &h, &v);
        prop_assert!((&f3 - &n3).fro_norm() < 1e-8 * (1.0 + n3.fro_norm()));
    }

    /// The compressed criterion equals the explicit residual on
    /// materialized Y slices.
    #[test]
    fn criterion_matches_explicit(seed in 0u64..500, k in 1usize..7, j in 2usize..10, r in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let pool = ThreadPool::new(1);
        let fast = compressed_criterion(&pzf, &edt, &h, &w, &v, &pool);
        let y: Vec<Mat> = pzf.iter().map(|p| p.matmul(&edt).unwrap()).collect();
        let slow = explicit_criterion(&y, &h, &w, &v);
        prop_assert!((fast - slow).abs() < 1e-8 * (1.0 + slow));
    }

    /// The criterion stays accurate on solver-shaped inputs near an exact
    /// model: `edt = E·Dᵀ` with orthonormal `D`, `V = D·C + γ·N` inside
    /// (`γ = 0`) or partly outside `span(D)`, and `PZF_k` exact up to a
    /// perturbation `δ·G_k`. A `δ = γ = 1e-6` residual is about 1e-12 of
    /// `‖Y‖²`, so a form that cancels against `‖Y‖²` loses most of its
    /// digits here; the projected form keeps 1e-6 relative.
    #[test]
    fn criterion_accurate_near_exact_model(
        seed in 0u64..500,
        k in 1usize..40,
        r in 1usize..5,
        extra in 0usize..12,
        delta_i in 0usize..2,
        gamma_i in 0usize..3,
    ) {
        let delta = [1e-6, 1.0][delta_i];
        let gamma = [0.0, 1e-6, 1.0][gamma_i];
        let mut rng = StdRng::seed_from_u64(seed);
        let j = r + extra;
        let d = qr::qr(gaussian_mat(j, r, &mut rng)).q;
        let e: Vec<f64> = (0..r).map(|i| 3.0 - i as f64 * 0.5).collect();
        let mut edt = d.transpose();
        for (row, &ev) in e.iter().enumerate() {
            edt.row_mut(row).iter_mut().for_each(|x| *x *= ev);
        }
        let c = gaussian_mat(r, r, &mut rng);
        let mut v = d.matmul(&c).unwrap();
        v.axpy(gamma, &gaussian_mat(j, r, &mut rng));
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        // PZF_k = H S_k Cᵀ E⁻¹ + δ·G_k, so PZF_k·EDᵀ = H S_k (D C)ᵀ + δ·G_k E Dᵀ.
        let pzf: Vec<Mat> = (0..k)
            .map(|kk| {
                let mut hs = h.clone();
                for i in 0..r {
                    for (x, &wv) in hs.row_mut(i).iter_mut().zip(w.row(kk)) {
                        *x *= wv;
                    }
                }
                let mut p = hs.matmul_nt(&c).unwrap();
                for i in 0..r {
                    for (x, &ev) in p.row_mut(i).iter_mut().zip(&e) {
                        *x /= ev;
                    }
                }
                p.axpy(delta, &gaussian_mat(r, r, &mut rng));
                p
            })
            .collect();
        let y: Vec<Mat> = pzf.iter().map(|p| p.matmul(&edt).unwrap()).collect();
        let slow = explicit_criterion(&y, &h, &w, &v);
        for threads in [1, 3] {
            let fast = compressed_criterion(&pzf, &edt, &h, &w, &v, &ThreadPool::new(threads));
            prop_assert!(fast >= 0.0);
            prop_assert!(
                (fast - slow).abs() <= 1e-6 * slow,
                "threads {threads}: projected {fast:e} vs explicit {slow:e}"
            );
        }
    }

    /// Fitness is always in (−∞, 1] and the solver never panics across
    /// shapes; on planted data it is near 1.
    #[test]
    fn solver_fitness_bounds(seed in 0u64..200, k in 2usize..5, j in 6usize..12, r in 1usize..4) {
        let t = planted(seed, k, j, r);
        let fit = Dpar2
            .fit(&t, &FitOptions::new(r).with_seed(seed).with_max_iterations(8))
            .unwrap();
        let f = fit.fitness(&t);
        prop_assert!(f <= 1.0 + 1e-9);
        prop_assert!(f > 0.5, "planted-data fitness {f} too low");
    }

    /// Streaming ingestion in two batches reproduces batch compression
    /// fidelity on planted data.
    #[test]
    fn streaming_equals_batch_compression(seed in 0u64..200, j in 6usize..12, r in 1usize..4) {
        let t = planted(seed, 4, j, r);
        let slices = t.to_slices();
        let cfg = FitOptions::new(r).with_seed(seed ^ 7);
        let mut stream = StreamingDpar2::new(cfg);
        stream.append(slices[..2].to_vec()).unwrap();
        stream.append(slices[2..].to_vec()).unwrap();
        let ct = stream.compressed().unwrap();
        for kk in 0..t.k() {
            let rel = (t.slice(kk) - &ct.reconstruct_slice(kk)).fro_norm()
                / t.slice(kk).fro_norm().max(1e-12);
            prop_assert!(rel < 1e-5, "slice {kk} rel err {rel}");
        }
    }
}
