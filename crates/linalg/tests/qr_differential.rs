//! Differential test suite for the Householder QR.
//!
//! `qr_into` reflects a column-major working copy several columns per pass
//! over the reflector vector. Each column's arithmetic is unchanged by
//! that blocking — its dot product with `v` starts at `0.0`, adds in
//! ascending row order, is scaled by `τ`, and a zero scale skips the
//! update. When it accumulates `Q`, it skips only columns whose dot
//! product is provably `+0.0`, and stops skipping at the first non-finite
//! reflector. So the oracle here is **bitwise**: the one-column-at-a-time row-major
//! loops below (the implementation `qr_into` replaced, kept verbatim) must
//! produce the same `Q` and `R`, bit for bit.
//!
//! Coverage:
//! * proptest shapes `0..40 × 0..40`, tall, square and wide (`m < n`),
//!   including empty inputs;
//! * all-zero columns, `±0.0`, and NaN / `±∞` entries (NaNs compare as a
//!   class: IEEE-754 leaves a propagated NaN's sign and payload
//!   unspecified), and a reflector whose `τ` overflows to NaN while `v`
//!   stays finite;
//! * strided views and a scratch reused across shape changes;
//! * the shapes the DPar2 stage-1 rSVD factorizes on the benchmark
//!   workloads: 1185×18, 2000×18, 88×18 and 60000×14.

use dpar2_linalg::{gaussian_mat, qr, qr_into, Mat, MatRef, QrScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scalar Householder QR on a row-major working copy: the reference
/// `qr_into` must match bit for bit.
fn qr_oracle(a: &Mat) -> (Mat, Mat) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let mut r = a.clone();
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut taus = Vec::with_capacity(k);

    for j in 0..k {
        let mut v: Vec<f64> = (j..m).map(|i| r.at(i, j)).collect();
        let alpha = v[0];
        let sigma: f64 = v[1..].iter().map(|&x| x * x).sum();
        if sigma == 0.0 && alpha >= 0.0 {
            vs.push(v);
            taus.push(0.0);
            continue;
        }
        let norm = (alpha * alpha + sigma).sqrt();
        let v0 = if alpha <= 0.0 { alpha - norm } else { -sigma / (alpha + norm) };
        let tau = 2.0 * v0 * v0 / (sigma + v0 * v0);
        let inv_v0 = 1.0 / v0;
        v[0] = 1.0;
        for x in &mut v[1..] {
            *x *= inv_v0;
        }
        for col in j..n {
            let mut s = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                s += vi * r.at(j + idx, col);
            }
            s *= tau;
            if s != 0.0 {
                for (idx, &vi) in v.iter().enumerate() {
                    let cur = r.at(j + idx, col);
                    r.set(j + idx, col, cur - s * vi);
                }
            }
        }
        vs.push(v);
        taus.push(tau);
    }

    let mut r_thin = Mat::zeros(k, n);
    for i in 0..k {
        for j in i..n {
            r_thin.set(i, j, r.at(i, j));
        }
    }

    let mut q = Mat::zeros(m, k);
    for i in 0..k {
        q.set(i, i, 1.0);
    }
    for j in (0..k).rev() {
        let v = &vs[j];
        let tau = taus[j];
        if tau == 0.0 {
            continue;
        }
        for col in 0..k {
            let mut s = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                s += vi * q.at(j + idx, col);
            }
            s *= tau;
            if s != 0.0 {
                for (idx, &vi) in v.iter().enumerate() {
                    let cur = q.at(j + idx, col);
                    q.set(j + idx, col, cur - s * vi);
                }
            }
        }
    }
    (q, r_thin)
}

/// Bitwise matrix comparison, including zero signs; NaN entries compare
/// as NaN-to-NaN.
fn assert_mat_bits(reference: &Mat, got: &Mat, ctx: &str) {
    assert_eq!(reference.shape(), got.shape(), "{ctx}: shape mismatch");
    for (idx, (&r, &g)) in reference.data().iter().zip(got.data()).enumerate() {
        assert!(
            r.to_bits() == g.to_bits() || (r.is_nan() && g.is_nan()),
            "{ctx}: entry {idx} diverges bitwise: reference {r:?} ({:#018x}) vs got {g:?} ({:#018x})",
            r.to_bits(),
            g.to_bits()
        );
    }
}

/// Checks `qr` and `qr_into` (fresh and on the given reused scratch)
/// against the oracle.
fn check(a: &Mat, ws: &mut QrScratch, ctx: &str) {
    let (q_ref, r_ref) = qr_oracle(a);
    let f = qr(a);
    assert_mat_bits(&q_ref, &f.q, &format!("{ctx} qr Q"));
    assert_mat_bits(&r_ref, &f.r, &format!("{ctx} qr R"));
    let (mut q, mut r) = (Mat::zeros(3, 1), Mat::zeros(1, 2));
    qr_into(a, &mut q, &mut r, ws);
    assert_mat_bits(&q_ref, &q, &format!("{ctx} qr_into Q"));
    assert_mat_bits(&r_ref, &r, &format!("{ctx} qr_into R"));
}

/// Deterministic fill derived from a proptest seed (xorshift64). `special`
/// selects the entry mix: 0 plain values, 1 with zero columns and signed
/// zeros, 2 with NaN and ±∞ sprinkled in as well.
fn filled(m: usize, n: usize, seed: u64, special: u8) -> Mat {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let zero_col = if n > 0 { (next() % n as u64) as usize } else { 0 };
    Mat::from_fn(m, n, |_, j| {
        let bits = next();
        let x = (bits as f64 / u64::MAX as f64) * 20.0 - 10.0;
        match special {
            0 => x,
            _ if j == zero_col => {
                if bits % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            }
            1 => match bits % 8 {
                0 => 0.0,
                1 => -0.0,
                _ => x,
            },
            _ => match bits % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                _ => x,
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn qr_into_bitwise_matches_scalar_oracle(
        m in 0usize..40,
        n in 0usize..40,
        seed in 0u64..u64::MAX,
        special in 0u8..3,
    ) {
        let a = filled(m, n, seed, special);
        check(&a, &mut QrScratch::default(), &format!("{m}x{n} seed {seed} special {special}"));
    }

    #[test]
    fn strided_view_matches_oracle(m in 1usize..30, n in 1usize..30, seed in 0u64..u64::MAX) {
        // The input is a column window of a wider matrix (row stride ≠ n).
        let wide = filled(m, n + 5, seed, 1);
        let view: MatRef<'_> = wide.subview(0, m, 2, 2 + n);
        let dense = view.to_mat();
        let (q_ref, r_ref) = qr_oracle(&dense);
        let (mut q, mut r) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
        qr_into(view, &mut q, &mut r, &mut QrScratch::default());
        assert_mat_bits(&q_ref, &q, "view Q");
        assert_mat_bits(&r_ref, &r, "view R");
    }
}

#[test]
fn degenerate_inputs_match_oracle() {
    let mut ws = QrScratch::default();
    for (m, n) in [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1)] {
        check(&Mat::zeros(m, n), &mut ws, &format!("zeros {m}x{n}"));
        check(&Mat::from_fn(m, n, |_, _| -0.0), &mut ws, &format!("-0 {m}x{n}"));
    }
    check(&Mat::from_fn(6, 4, |_, _| f64::NAN), &mut ws, "all NaN");
    check(&Mat::from_fn(6, 4, |i, _| if i == 2 { f64::INFINITY } else { 1.0 }), &mut ws, "inf row");
    // v₀² overflows, so τ is NaN while v stays finite: the reflector must
    // still spread NaN into the Q columns left of it, as the oracle does.
    let mut huge = Mat::zeros(6, 2);
    huge.set(0, 0, 1.0);
    huge.set(1, 1, -1e154);
    huge.set(2, 1, 1e154);
    check(&huge, &mut ws, "overflowing tau");
    check(&Mat::eye(9), &mut ws, "identity");
    check(&Mat::from_fn(9, 9, |i, j| if i == j { -1.0 } else { 0.0 }), &mut ws, "-identity");
}

#[test]
fn reused_scratch_across_shape_changes_matches_oracle() {
    // One scratch through growing, shrinking, tall and wide shapes: stale
    // contents of the store or of longer Householder vectors must never
    // leak into a later factorization.
    let mut ws = QrScratch::default();
    let mut rng = StdRng::seed_from_u64(11);
    for (m, n) in [(30, 8), (5, 12), (40, 17), (3, 3), (40, 17), (17, 40), (1, 9), (33, 9)] {
        check(&gaussian_mat(m, n, &mut rng), &mut ws, &format!("reuse {m}x{n}"));
    }
}

#[test]
fn stage1_shapes_match_oracle() {
    // Sketch shapes of the stage-1 rSVD at rank 10 (width R + 8 = 18):
    // I_k×18 for a 1185-day US-Stock slice, J×18 for J = 88 features and
    // for the J = 2000 columns of the sparse workload, plus a long
    // 60000×14 sketch.
    let mut rng = StdRng::seed_from_u64(12);
    let mut ws = QrScratch::default();
    for (m, n) in [(1185, 18), (2000, 18), (88, 18), (60000, 14)] {
        check(&gaussian_mat(m, n, &mut rng), &mut ws, &format!("stage-1 {m}x{n}"));
    }
}
