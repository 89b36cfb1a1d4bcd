//! Matrix product entry point.
//!
//! [`matmul`] (`C = A·B`) is the one allocating convenience wrapper over the
//! blocked GEMM engine in [`crate::gemm`]: it runs on this thread's scratch
//! [`crate::Workspace`] and returns a fresh tensor. The transposed products
//! of a backward pass (`Aᵀ·B` weight gradients, `A·Bᵀ` input gradients) are
//! [`crate::GemmMode`]s of the same engine and have no wrapper: call
//! [`crate::gemm_into`] with the mode, an output tensor and a workspace.

use crate::gemm::{gemm_slice, with_scratch, Epilogue, GemmMode};
use crate::{Tensor, TensorError};

/// `C = A·B` for `A: (m×k)`, `B: (k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = a.shape().as_2d();
    let (kb, n) = b.shape().as_2d();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    with_scratch(|ws| {
        gemm_slice(
            GemmMode::Ab,
            a.data(),
            ka,
            b.data(),
            m,
            ka,
            n,
            c.data_mut(),
            &Epilogue::NONE,
            0,
            ws,
        );
    });
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm_into, reference, Workspace};
    use proptest::prelude::*;
    use xrng::RandomSource;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_2d();
        let (_, n) = b.shape().as_2d();
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a.at2(i, l) * b.at2(l, j);
                }
                *c.at2_mut(i, j) = acc;
            }
        }
        c
    }

    /// `op(A)·op(B)` through the engine's tensor entry point.
    fn product(mode: GemmMode, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, _, n) = mode.dims(a.shape(), b.shape()).unwrap();
        let mut c = Tensor::zeros([m, n]);
        gemm_into(mode, a, b, &mut c, &Epilogue::NONE, &mut Workspace::new()).unwrap();
        c
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = t.shape().as_2d();
        Tensor::from_fn([c, r], |i| t.at2(i % r, i / r))
    }

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = xrng::seeded(seed);
        Tensor::from_fn([rows, cols], |_| rng.next_f32() * 2.0 - 1.0)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity() {
        let a = random_tensor(5, 5, 1);
        let eye = Tensor::from_fn([5, 5], |i| if i / 5 == i % 5 { 1.0 } else { 0.0 });
        assert_close(&matmul(&a, &eye).unwrap(), &a, 1e-6);
        assert_close(&matmul(&eye, &a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_matches_naive() {
        let a = random_tensor(7, 11, 2);
        let b = random_tensor(11, 5, 3);
        assert_close(&matmul(&a, &b).unwrap(), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = random_tensor(3, 4, 4);
        let b = random_tensor(5, 6, 5);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = random_tensor(9, 4, 6);
        let b = random_tensor(9, 7, 7);
        let expect = naive_matmul(&transpose(&a), &b);
        assert_close(&product(GemmMode::AtB, &a, &b), &expect, 1e-4);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = random_tensor(6, 8, 8);
        let b = random_tensor(5, 8, 9);
        let expect = naive_matmul(&a, &transpose(&b));
        assert_close(&product(GemmMode::ABt, &a, &b), &expect, 1e-4);
    }

    #[test]
    fn large_matmul_uses_parallel_path() {
        // 512 rows exceeds the sequential threshold with default threads.
        let a = random_tensor(512, 64, 10);
        let b = random_tensor(64, 32, 11);
        let got = matmul(&a, &b).unwrap();
        let expect = naive_matmul(&a, &b);
        assert_close(&got, &expect, 1e-3);
    }

    #[test]
    fn one_by_one() {
        let a = Tensor::from_vec([1, 1], vec![3.0]).unwrap();
        let b = Tensor::from_vec([1, 1], vec![4.0]).unwrap();
        assert_eq!(matmul(&a, &b).unwrap().data(), &[12.0]);
    }

    #[test]
    fn matches_seed_kernels() {
        // The retained seed kernels are an independent oracle for all
        // three modes (summation order matches modulo the old
        // zero-skip, hence the small tolerance).
        let a = random_tensor(17, 33, 100);
        let b = random_tensor(33, 9, 101);
        assert_close(
            &matmul(&a, &b).unwrap(),
            &reference::matmul_seed(&a, &b).unwrap(),
            1e-5,
        );
        let x = random_tensor(21, 13, 102);
        let d = random_tensor(21, 6, 103);
        assert_close(
            &product(GemmMode::AtB, &x, &d),
            &reference::matmul_at_b_seed(&x, &d).unwrap(),
            1e-5,
        );
        let g = random_tensor(12, 19, 104);
        let w = random_tensor(8, 19, 105);
        assert_close(
            &product(GemmMode::ABt, &g, &w),
            &reference::matmul_a_bt_seed(&g, &w).unwrap(),
            1e-5,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn all_kernels_consistent(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
            let a = random_tensor(m, k, seed);
            let b = random_tensor(k, n, seed ^ 0xFFFF);
            let c = matmul(&a, &b).unwrap();
            // (A·B) == ((Aᵀ)ᵀ·B) via the AtB mode with transposed A.
            let c2 = product(GemmMode::AtB, &transpose(&a), &b);
            // (A·B) == A·(Bᵀ)ᵀ via the ABt mode with transposed B.
            let c3 = product(GemmMode::ABt, &a, &transpose(&b));
            for ((x, y), z) in c.data().iter().zip(c2.data()).zip(c3.data()) {
                prop_assert!((x - y).abs() < 1e-4);
                prop_assert!((x - z).abs() < 1e-4);
            }
        }
    }
}
