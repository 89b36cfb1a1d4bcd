//! Elementwise operations and reductions.
//!
//! These are methods on [`Tensor`] rather than free functions so call sites
//! in the training loop read like the Keras pseudocode they reproduce.

use crate::{Tensor, TensorError};

impl Tensor {
    /// Elementwise `self + other`.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise `self * other` (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place `self += scale * other` (axpy).
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> Result<(), TensorError> {
        self.zip_assign(other, |a, b| *a += scale * b)
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, factor: f32) {
        for x in self.data_mut() {
            *x *= factor;
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        for x in out.data_mut() {
            *x = f(*x);
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data().iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements. Returns 0 for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Largest element. Returns negative infinity for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Sum of squares of all elements.
    pub fn sum_squares(&self) -> f64 {
        self.data().iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// Sums a rank-2 tensor over rows, producing a length-`cols` vector.
    /// This is the bias-gradient reduction.
    pub fn sum_rows(&self) -> Tensor {
        let (_, cols) = self.shape().as_2d();
        let mut out = Tensor::zeros([cols]);
        self.sum_rows_into(&mut out);
        out
    }

    /// Row-sum reduction into an existing length-`cols` tensor
    /// (allocation-free variant of [`Tensor::sum_rows`]).
    ///
    /// # Panics
    /// Panics if `out` does not have exactly `cols` elements.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        let (_, cols) = self.shape().as_2d();
        assert_eq!(out.len(), cols, "sum_rows_into: output length mismatch");
        out.data_mut().fill(0.0);
        for row in self.data().chunks_exact(cols) {
            for (o, &x) in out.data_mut().iter_mut().zip(row) {
                *o += x;
            }
        }
    }

    /// Index of the largest element in each row of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (_, cols) = self.shape().as_2d();
        self.data()
            .chunks_exact(cols)
            .map(|row| {
                let mut best = 0usize;
                for (i, &x) in row.iter().enumerate().skip(1) {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilized).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax (same math and evaluation order as
    /// [`Tensor::softmax_rows`], without the clone).
    pub fn softmax_rows_inplace(&mut self) {
        let (_, cols) = self.shape().as_2d();
        for row in self.data_mut().chunks_exact_mut(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                denom += *x;
            }
            let inv = 1.0 / denom;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().clone(),
                right: other.shape().clone(),
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(self.shape().clone().dims().to_vec(), data)
    }

    fn zip_assign(&mut self, other: &Tensor, f: impl Fn(&mut f32, f32)) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().clone(),
                right: other.shape().clone(),
            });
        }
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            f(a, b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec([n], v).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0, 27.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10.0, 40.0, 90.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = t(vec![1.0, 2.0]);
        let b = t(vec![1.0, 2.0, 3.0]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(vec![1.0, 1.0]);
        a.axpy(0.5, &t(vec![2.0, 4.0])).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0]);
        a.scale(10.0);
        assert_eq!(a.data(), &[20.0, 30.0]);
    }

    #[test]
    fn reductions() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.sum_squares(), 30.0);
        assert_eq!(Tensor::zeros([0]).mean(), 0.0);
    }

    #[test]
    fn sum_rows_adds_each_column() {
        let m = Tensor::from_fn([2, 3], |i| i as f32);
        assert_eq!(m.sum_rows().data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max_on_ties() {
        let m = Tensor::from_vec([2, 3], vec![1.0, 5.0, 5.0, 0.0, -1.0, -2.0]).unwrap();
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let m = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]).unwrap();
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large inputs must not overflow to NaN.
        assert!(s.data().iter().all(|x| x.is_finite()));
        // Monotonic: larger logits get larger probabilities.
        assert!(s.at2(0, 2) > s.at2(0, 1) && s.at2(0, 1) > s.at2(0, 0));
    }

    #[test]
    fn map_roundtrip() {
        let a = t(vec![1.0, -2.0, 3.0]);
        let b = a.map(|x| x.abs());
        assert_eq!(b.data(), &[1.0, 2.0, 3.0]);
        let mut c = a.clone();
        c.map_inplace(|x| -x);
        assert_eq!(c.data(), &[-1.0, 2.0, -3.0]);
    }

    proptest! {
        #[test]
        fn add_commutes(v in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let a = t(v.clone());
            let b = t(v.iter().map(|x| x * 0.5 + 1.0).collect());
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            prop_assert_eq!(ab.data(), ba.data());
        }

        #[test]
        fn softmax_rows_sum_to_one(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
            use xrng::RandomSource;
            let mut rng = xrng::seeded(seed);
            let m = Tensor::from_fn([rows, cols], |_| rng.next_f32() * 20.0 - 10.0);
            let s = m.softmax_rows();
            for r in 0..rows {
                let sum: f32 = s.row(r).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }
}
