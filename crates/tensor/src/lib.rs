//! Dense `f32` tensor library backing the `dlframe` neural-network framework.
//!
//! The CANDLE P1 benchmarks need exactly four kinds of kernel: dense matrix
//! products (MLP layers in P1B1/P1B2/P1B3), 1-D convolution and max-pooling
//! (the NT3 convolutional classifier), elementwise maps, and reductions.
//! This crate implements those from scratch with deterministic, chunked
//! parallelism from `parx` — no BLAS, no external array crate — so the whole
//! reproduction builds offline and runs identically everywhere.
//!
//! Layout is always row-major and owned (`Vec<f32>`); views are expressed as
//! `(offset, rows, cols)` slices where needed. That is deliberately simpler
//! than a general strided tensor: every use in the workspace is covered, and
//! the flat layout keeps the hot kernels readable and autovectorizable.

mod conv;
mod gemm;
mod init;
mod matmul;
mod ops;
pub mod reference;
mod shape;

pub use conv::{
    conv1d_backward, conv1d_forward, conv1d_forward_ws, conv1d_input_grad_ws, conv1d_output_len,
    conv1d_weight_grad_ws, maxpool1d_backward_ws, maxpool1d_forward_ws, maxpool1d_infer_ws,
    pool1d_output_len,
};
pub use gemm::{
    gemm_into, gemm_into_with_threads, gemm_slice, sigmoid, with_scratch, Epilogue, FusedAct,
    GemmMode, Workspace, MR, NR,
};
pub use init::{glorot_uniform, he_normal, Initializer};
pub use matmul::matmul;
pub use shape::{Shape, MAX_RANK};

/// Errors produced by tensor constructors and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the product of the dimensions.
    LengthMismatch { expected: usize, actual: usize },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch { left: Shape, right: Shape },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "incompatible shapes {left} and {right}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major, owned `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Self {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Self {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Wraps existing data in a tensor.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Self { data, shape })
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.volume()).map(&mut f).collect();
        Self { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or indices are out of range.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        let (rows, cols) = self.shape.as_2d();
        assert!(
            row < rows && col < cols,
            "index ({row},{col}) out of {rows}x{cols}"
        );
        self.data[row * cols + col]
    }

    /// Mutable element access for rank-2 tensors.
    pub fn at2_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        let (rows, cols) = self.shape.as_2d();
        assert!(
            row < rows && col < cols,
            "index ({row},{col}) out of {rows}x{cols}"
        );
        &mut self.data[row * cols + col]
    }

    /// Borrow of one row of a rank-2 tensor.
    pub fn row(&self, row: usize) -> &[f32] {
        let (rows, cols) = self.shape.as_2d();
        assert!(row < rows, "row {row} out of {rows}");
        &self.data[row * cols..(row + 1) * cols]
    }

    /// Copies the given rows (by index) of a rank-2 tensor into a new tensor.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let (_, cols) = self.shape.as_2d();
        let mut out = Tensor::zeros([indices.len(), cols]);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Copies the given rows of a rank-2 tensor into `out`, reshaping it to
    /// `(indices.len(), cols)`. Allocation-free once `out`'s buffer is large
    /// enough — the batch-assembly primitive of the training hot path.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        let (_, cols) = self.shape.as_2d();
        out.shape = Shape::new(&[indices.len(), cols]);
        out.data.clear();
        out.data.reserve(indices.len() * cols);
        for &src in indices {
            out.data.extend_from_slice(self.row(src));
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}[", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full([4], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec([2, 2], vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([2, 6], |i| i as f32);
        let r = t.clone().reshape([3, 4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([5, 5]).is_err());
    }

    #[test]
    fn at2_and_row() {
        let t = Tensor::from_fn([3, 4], |i| i as f32);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(2), &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn at2_out_of_range_panics() {
        Tensor::zeros([2, 2]).at2(2, 0);
    }

    #[test]
    fn gather_rows_copies_in_order() {
        let t = Tensor::from_fn([4, 2], |i| i as f32);
        let g = t.gather_rows(&[3, 0, 3]);
        assert_eq!(g.shape().dims(), &[3, 2]);
        assert_eq!(g.data(), &[6.0, 7.0, 0.0, 1.0, 6.0, 7.0]);
    }

    #[test]
    fn gather_rows_into_reuses_buffer() {
        let t = Tensor::from_fn([4, 2], |i| i as f32);
        let mut out = Tensor::zeros([3, 2]);
        let ptr = out.data().as_ptr();
        t.gather_rows_into(&[1, 1, 2], &mut out);
        assert_eq!(out.data(), &[2.0, 3.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(out.data().as_ptr(), ptr, "buffer must be reused");
        // Shrinking reshapes too.
        t.gather_rows_into(&[0], &mut out);
        assert_eq!(out.shape().dims(), &[1, 2]);
        assert_eq!(out.data(), &[0.0, 1.0]);
    }

    #[test]
    fn display_is_compact() {
        let t = Tensor::from_fn([10], |i| i as f32);
        let s = format!("{t}");
        assert!(s.contains('…'));
    }

    #[test]
    fn error_display() {
        let e = TensorError::LengthMismatch {
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains("does not match"));
    }
}
