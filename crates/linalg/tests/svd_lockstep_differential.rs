//! Differential test suite for the batched SVD.
//!
//! `svd_thin_batch_into` sweeps up to four same-shape inputs in lockstep,
//! one per lane of an AVX2 register, and sends the rest through the
//! scalar path. Each lane runs the scalar operation sequence unchanged, so
//! the oracle is **bitwise**: every output must equal `svd_thin_into` on
//! the same input, `U`, `s` and `V` compared with `to_bits` (NaNs
//! included, since a non-finite input takes the very same scalar code).
//!
//! Coverage:
//! * proptest batches of 1–9 inputs, shapes `0..=20 × 0..=20` mixed in one
//!   call: square, wide (transposed before the sweep), tall enough to be
//!   QR-preconditioned (scalar path) and empty;
//! * zero, rank-deficient and duplicate lanes, `±0.0` entries, NaN / `±∞`
//!   entries, and inputs far outside the scale window (rescaled first);
//! * same-shape groups whose lanes converge after different numbers of
//!   sweeps (diagonal, orthogonal-column, graded and random inputs);
//! * the shapes of the ALS slice step and the stage-1 sketch: 6×6, 10×10
//!   and 16×14;
//! * one scratch reused across calls of changing shapes and lengths.

use dpar2_linalg::svd::{svd_thin_batch_into, svd_thin_into, SvdBatchScratch};
use dpar2_linalg::{gaussian_mat, Mat, SvdFactors, SvdScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `got` and `want` are the same factorization bit for bit.
fn assert_same_bits(got: &SvdFactors, want: &SvdFactors, ctx: &str) {
    assert_eq!(got.u.shape(), want.u.shape(), "{ctx}: U shape");
    assert_eq!(got.v.shape(), want.v.shape(), "{ctx}: V shape");
    assert_eq!(bits(&got.s), bits(&want.s), "{ctx}: singular values differ");
    assert_eq!(bits(got.u.data()), bits(want.u.data()), "{ctx}: U differs");
    assert_eq!(bits(got.v.data()), bits(want.v.data()), "{ctx}: V differs");
}

/// Runs one batch call on `ws` and checks every output against a fresh
/// scalar factorization.
fn check_batch(inputs: &[Mat], ws: &mut SvdBatchScratch) {
    let mut outs = vec![SvdFactors::default(); inputs.len()];
    svd_thin_batch_into(inputs, &mut outs, ws);
    for (i, (a, got)) in inputs.iter().zip(&outs).enumerate() {
        let mut want = SvdFactors::default();
        svd_thin_into(a, &mut want, &mut SvdScratch::default());
        assert_same_bits(got, &want, &format!("input {i} ({}x{})", a.rows(), a.cols()));
    }
}

/// What goes into one generated input.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Gaussian,
    /// Sum of `rank` outer products (rank-deficient when below `min(m, n)`).
    LowRank(usize),
    Zero,
    /// A copy of the previous input (a Gaussian one when there is none).
    Duplicate,
    /// Gaussian with a few entries replaced by `±0.0`, NaN or `±∞`.
    Special(u8),
    /// Gaussian times `2^e·1.3`, outside the scale window for large `|e|`.
    Scaled(i32),
}

/// Weighted choice of a [`Kind`] from one draw in `0..14`.
fn kind(draw: u8) -> Kind {
    match draw {
        0..=3 => Kind::Gaussian,
        4..=5 => Kind::LowRank(draw as usize - 3),
        6 => Kind::LowRank(0),
        7 => Kind::Zero,
        8..=9 => Kind::Duplicate,
        10..=11 => Kind::Special(draw * 7 % 6),
        _ => Kind::Scaled([-700, -120, 0, 150, 700][(draw as usize * 3) % 5]),
    }
}

fn build(m: usize, n: usize, kind: Kind, seed: u64, prev: Option<&Mat>) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        Kind::Gaussian => gaussian_mat(m, n, &mut rng),
        Kind::LowRank(rank) => {
            let mut a = Mat::zeros(m, n);
            for _ in 0..rank {
                let x = gaussian_mat(m, 1, &mut rng);
                let y = gaussian_mat(1, n, &mut rng);
                a += &x.matmul(&y).unwrap();
            }
            a
        }
        Kind::Zero => Mat::zeros(m, n),
        Kind::Duplicate => prev.cloned().unwrap_or_else(|| gaussian_mat(m, n, &mut rng)),
        Kind::Special(which) => {
            let mut a = gaussian_mat(m, n, &mut rng);
            if m * n > 0 {
                let specials = [0.0, -0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                for _ in 0..=(which as usize % 3) {
                    let (i, j) =
                        (rng.random::<u64>() as usize % m, rng.random::<u64>() as usize % n);
                    a.set(i, j, specials[which as usize]);
                }
            }
            a
        }
        Kind::Scaled(e) => {
            let a = gaussian_mat(m, n, &mut rng);
            let c = 1.3 * 2f64.powi(e / 2) * 2f64.powi(e - e / 2);
            a.scaled(c)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_matches_scalar_bitwise(
        specs in prop::collection::vec((0usize..21, 0usize..21, 0u8..14, 0u64..u64::MAX), 1..10),
        one_shape in 0u8..2,
    ) {
        // Half the batches use one shape throughout, so lanes fill up.
        let shape0 = (specs[0].0, specs[0].1);
        let mut inputs: Vec<Mat> = Vec::with_capacity(specs.len());
        for &(m, n, draw, seed) in &specs {
            let (m, n) = if one_shape == 1 { shape0 } else { (m, n) };
            let prev = inputs.last().filter(|p| p.shape() == (m, n));
            let a = build(m, n, kind(draw), seed, prev);
            inputs.push(a);
        }
        check_batch(&inputs, &mut SvdBatchScratch::default());
    }
}

/// The workload shapes, every batch length up to two full chunks.
#[test]
fn workload_shapes_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut ws = SvdBatchScratch::default();
    for (m, n) in [(6, 6), (10, 10), (16, 14)] {
        for len in 1..=16 {
            let inputs: Vec<Mat> = (0..len)
                .map(|i| {
                    if i % 2 == 0 {
                        gaussian_mat(m, n, &mut rng)
                    } else {
                        // Rank-6 signal plus small noise.
                        let mut a = gaussian_mat(m, 6, &mut rng)
                            .matmul(gaussian_mat(6, n, &mut rng))
                            .unwrap();
                        a.axpy(1e-3, &gaussian_mat(m, n, &mut rng));
                        a
                    }
                })
                .collect();
            check_batch(&inputs, &mut ws);
        }
    }
}

/// Lanes of one group that converge after different numbers of sweeps:
/// a diagonal input needs no rotation at all, orthogonal columns one
/// sweep of checks, a strongly graded input many sweeps.
#[test]
fn lanes_converging_at_different_sweeps_bitwise() {
    let n = 8;
    let mut rng = StdRng::seed_from_u64(77);
    let diag = Mat::diag(&[5.0, 1.0, 3.0, 0.5, 2.0, 7.0, 0.25, 4.0]);
    let orth = dpar2_linalg::qr(gaussian_mat(n, n, &mut rng)).q;
    let mut graded = gaussian_mat(n, n, &mut rng);
    for j in 0..n {
        for i in 0..n {
            graded.set(i, j, graded.at(i, j) * 10f64.powi(-(j as i32) * 2));
        }
    }
    let random = gaussian_mat(n, n, &mut rng);
    let near_dup = {
        let mut a = random.clone();
        a.set(0, 0, a.at(0, 0) + 1e-9);
        a
    };
    let inputs = vec![diag, graded.clone(), orth, random, near_dup, graded];
    check_batch(&inputs, &mut SvdBatchScratch::default());
}

/// Inputs the lockstep path must hand to the scalar path, mixed with
/// eligible ones of the same shape: zero and `-0.0` matrices, NaN and
/// `±∞` entries.
#[test]
fn zero_and_non_finite_lanes_bitwise() {
    let mut rng = StdRng::seed_from_u64(91);
    let neg_zero = Mat::zeros(6, 6).map(|_| -0.0);
    let mut signed_zeros = gaussian_mat(6, 6, &mut rng);
    for i in 0..6 {
        signed_zeros.set(i, (i + 1) % 6, -0.0);
        signed_zeros.set(i, (i + 3) % 6, 0.0);
    }
    let mut nan = gaussian_mat(6, 6, &mut rng);
    nan.set(2, 3, f64::NAN);
    let mut inf = gaussian_mat(6, 6, &mut rng);
    inf.set(4, 1, f64::INFINITY);
    let mut neg_inf = gaussian_mat(6, 6, &mut rng);
    neg_inf.set(0, 5, f64::NEG_INFINITY);
    let huge = gaussian_mat(6, 6, &mut rng).scaled(1e300);
    let inputs = vec![
        gaussian_mat(6, 6, &mut rng),
        Mat::zeros(6, 6),
        nan,
        signed_zeros,
        neg_zero,
        inf,
        huge,
        neg_inf,
        gaussian_mat(6, 6, &mut rng),
    ];
    check_batch(&inputs, &mut SvdBatchScratch::default());
}

/// Shapes the lockstep path never sweeps (tall enough for QR
/// preconditioning, wide ones whose transpose is, empty ones) next to
/// ones it does, including wide inputs whose transpose qualifies.
#[test]
fn mixed_paths_and_shapes_bitwise() {
    let mut rng = StdRng::seed_from_u64(92);
    let inputs = vec![
        gaussian_mat(30, 6, &mut rng),
        gaussian_mat(5, 6, &mut rng),
        gaussian_mat(6, 5, &mut rng),
        gaussian_mat(5, 40, &mut rng),
        Mat::zeros(0, 0),
        Mat::zeros(0, 5),
        Mat::zeros(5, 0),
        gaussian_mat(1, 1, &mut rng),
        gaussian_mat(6, 5, &mut rng),
        gaussian_mat(20, 20, &mut rng),
    ];
    check_batch(&inputs, &mut SvdBatchScratch::default());
}

/// One scratch across calls of changing shapes and lengths, including a
/// shrink after a larger group.
#[test]
fn scratch_reuse_across_shapes_bitwise() {
    let mut rng = StdRng::seed_from_u64(93);
    let mut ws = SvdBatchScratch::default();
    for (m, n, len) in [(12, 12, 9), (3, 3, 2), (12, 10, 5), (4, 4, 7), (12, 12, 1)] {
        let inputs: Vec<Mat> = (0..len).map(|_| gaussian_mat(m, n, &mut rng)).collect();
        check_batch(&inputs, &mut ws);
    }
}

#[test]
#[should_panic(expected = "2 inputs, 1 outputs")]
fn length_mismatch_panics() {
    let inputs = [Mat::eye(2), Mat::eye(2)];
    let mut outs = [SvdFactors::default()];
    svd_thin_batch_into(&inputs, &mut outs, &mut SvdBatchScratch::default());
}
