//! Property tests for the fused-chain matmul contract: every public matmul
//! kernel produces, per output element, exactly the bits of one fused
//! multiply-add chain started from the element's initial value — the naive
//! `matmul_*_naive` oracles.
//!
//! Shapes cover `k = 0`, row counts below the 4-row tile height, and column
//! counts at every residue mod 32 (so every masked tail width of both the
//! 8- and 16-lane paths is hit). Operands carry exact zeros, and the output
//! starts from a pattern that includes `-0.0` entries: a fused chain must
//! neither skip a zero product nor lose the sign of a `-0.0` it never
//! touched. Above the pool cutoff, the row-chunked kernels are run at 1, 2
//! and 8 threads against the same oracle. A last test bounds the distance
//! to the old unfused (separate multiply and add) loop by the textbook
//! dot-product error bound.

use bootleg_pool::{with_pool, ThreadPool};
use bootleg_tensor::kernels;
use proptest::prelude::*;

/// Values in [-2, 2) with exact zeros salted in every `7`th slot.
fn operand(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if (i + salt).is_multiple_of(7) {
                0.0
            } else {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(salt as u64);
                ((h >> 11) as f32 / (1u64 << 53) as f32) * 4.0 - 1.0
            }
        })
        .collect()
}

/// Non-zero starting output including `-0.0` entries.
fn initial_c(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match (i + salt) % 5 {
            0 => -0.0,
            1 => 0.25,
            2 => -1.5,
            3 => 0.0,
            _ => 3.0,
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i}: kernel {g} ({:#010x}) vs oracle {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The three layouts as `(name, kernel, oracle, [a, b, c] lengths)` for `m, k, n`.
type Layout = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
fn layouts(m: usize, k: usize, n: usize) -> [(&'static str, Layout, Layout, [usize; 3]); 3] {
    [
        ("a·b", kernels::matmul_acc, kernels::matmul_acc_naive, [m * k, k * n, m * n]),
        ("aᵀ·b", kernels::matmul_at_b_acc, kernels::matmul_at_b_naive, [m * k, m * n, k * n]),
        ("a·bᵀ", kernels::matmul_a_bt_acc, kernels::matmul_a_bt_naive, [m * k, n * k, m * n]),
    ]
}

/// Runs every layout's kernel on one shape and compares it to its oracle.
fn check_layouts(m: usize, k: usize, n: usize, salt: usize) {
    for (name, kernel, oracle, [la, lb, lc]) in layouts(m, k, n) {
        let a = operand(la, salt);
        let b = operand(lb, salt + 1);
        let mut got = initial_c(lc, salt);
        let mut want = got.clone();
        kernel(&a, &b, &mut got, m, k, n);
        oracle(&a, &b, &mut want, m, k, n);
        assert_bits_eq(&got, &want, &format!("{name} {m}x{k}x{n}"));
    }
}

/// Column counts `32·q + r`: every residue mod 32, up to three blocks.
fn cols() -> impl Strategy<Value = usize> {
    (0usize..3, 0usize..32).prop_map(|(q, r)| 32 * q + r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_layouts_bit_identical_to_fused_oracle(
        (m, k, n, salt) in (0usize..14, 0usize..40, cols(), 0usize..1000)
    ) {
        check_layouts(m, k, n, salt);
    }

    #[test]
    fn batch_matmul_bit_identical_to_per_slab_oracle(
        (bb, m, k, n, salt) in (1usize..6, 1usize..9, 0usize..20, cols(), 0usize..1000)
    ) {
        let a = operand(bb * m * k, salt);
        let b = operand(bb * k * n, salt + 1);
        let mut got = initial_c(bb * m * n, salt);
        let mut want = got.clone();
        kernels::batch_matmul_acc(&a, &b, &mut got, bb, m, k, n);
        for t in 0..bb {
            kernels::matmul_acc_naive(
                &a[t * m * k..(t + 1) * m * k],
                &b[t * k * n..(t + 1) * k * n],
                &mut want[t * m * n..(t + 1) * m * n],
                m,
                k,
                n,
            );
        }
        assert_bits_eq(&got, &want, &format!("batch {bb}x{m}x{k}x{n}"));
    }
}

#[test]
fn k_zero_and_tiny_shapes_are_bit_identical() {
    for m in 0..6 {
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            for k in [0, 1, 2] {
                check_layouts(m, k, n, m * 100 + n * 3 + k);
            }
        }
    }
}

/// Above the pool cutoff every layout fans out over row chunks; at 1, 2
/// and 8 threads the result must still be the oracle's, bit for bit.
#[test]
fn pool_chunked_kernels_bit_identical_at_1_2_8_threads() {
    let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(8)];
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |lo: usize, hi: usize| {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        lo + (s >> 33) as usize % (hi - lo)
    };
    for case in 0..12 {
        let (m, k, n) = (draw(33, 130), draw(24, 100), draw(33, 130));
        assert!(m * k * n >= kernels::PAR_MATMUL_FLOPS, "case {case} stays serial");
        for pool in &pools {
            with_pool(pool, || check_layouts(m, k, n, case));
        }
    }
}

/// The old loop: `c += a·b` with a separate multiply and add per term and
/// exact-zero `a` operands skipped.
fn unfused_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j];
            }
        }
    }
}

/// Fused and unfused chains over the same `k` terms, both started from
/// zero, are each within the textbook dot-product bound `γₖ·Σ|a||b|` of
/// the exact sum, `γₖ = k·u / (1 − k·u)` with `u = 2⁻²⁴` (Higham, *Accuracy
/// and Stability of Numerical Algorithms*, §3.1): each term passes through
/// at most `k` roundings on either path. The test asserts those two bounds
/// against an f64 reference (products of f32 values are exact in f64; the
/// f64 summation error is below 2⁻⁴⁴·Σ|a||b| here, far inside the f32
/// bound), and asserts the fused-vs-unfused difference within the same
/// `γₖ·Σ|a||b|` — half of what the triangle inequality guarantees, so a
/// kernel that drifted systematically from either chain would fail it.
#[test]
fn fused_and_unfused_chains_agree_within_textbook_bound() {
    let u = f64::from(f32::EPSILON) / 2.0;
    for (case, &(m, k, n)) in
        [(3, 1, 5), (5, 17, 33), (4, 64, 48), (7, 128, 128), (2, 300, 17), (9, 513, 20)]
            .iter()
            .enumerate()
    {
        let a = operand(m * k, 10 + case);
        let b = operand(k * n, 20 + case);
        let mut fused = vec![0.0f32; m * n];
        let mut unfused = vec![0.0f32; m * n];
        kernels::matmul_acc(&a, &b, &mut fused, m, k, n);
        unfused_matmul(&a, &b, &mut unfused, m, k, n);
        let gamma = k as f64 * u / (1.0 - k as f64 * u);
        for i in 0..m {
            for j in 0..n {
                let (mut exact, mut mag) = (0.0f64, 0.0f64);
                for p in 0..k {
                    let t = f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                    exact += t;
                    mag += t.abs();
                }
                let bound = gamma * mag;
                let (f, uf) = (f64::from(fused[i * n + j]), f64::from(unfused[i * n + j]));
                let at = format!("{m}x{k}x{n} element ({i}, {j})");
                assert!(
                    (f - uf).abs() <= bound,
                    "{at}: |fused − unfused| = {} > {bound}",
                    (f - uf).abs()
                );
                assert!(
                    (f - exact).abs() <= bound,
                    "{at}: fused off the exact sum by {}",
                    (f - exact).abs()
                );
                assert!(
                    (uf - exact).abs() <= bound,
                    "{at}: unfused off the exact sum by {}",
                    (uf - exact).abs()
                );
            }
        }
    }
}
