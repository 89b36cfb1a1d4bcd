//! A minimal column-oriented data frame.
//!
//! Just enough of a DataFrame for the CANDLE ingestion path: typed columns,
//! fragment concatenation with dtype unification (the expensive step the
//! pandas-default reader repeats per chunk), and conversion to a dense
//! `f32` matrix for training.

use crate::schema::{unify, Dtype};
use crate::DataError;
use std::ops::Range;

/// One typed column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer storage.
    Int64(Vec<i64>),
    /// Float storage.
    Float64(Vec<f64>),
    /// Text storage.
    Str(Vec<String>),
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's dtype.
    pub fn dtype(&self) -> Dtype {
        match self {
            Column::Int64(_) => Dtype::Int64,
            Column::Float64(_) => Dtype::Float64,
            Column::Str(_) => Dtype::Str,
        }
    }

    /// Converts the column to the target dtype (pandas' `astype` during
    /// fragment unification). String data converts to floats via parsing,
    /// with unparseable entries becoming NaN.
    pub fn cast(self, target: Dtype) -> Column {
        if self.dtype() == target {
            return self;
        }
        match (self, target) {
            (Column::Int64(v), Dtype::Float64) => {
                Column::Float64(v.into_iter().map(|x| x as f64).collect())
            }
            (Column::Int64(v), Dtype::Str) => {
                Column::Str(v.into_iter().map(|x| x.to_string()).collect())
            }
            (Column::Float64(v), Dtype::Str) => {
                Column::Str(v.into_iter().map(|x| x.to_string()).collect())
            }
            (Column::Float64(v), Dtype::Int64) => {
                Column::Int64(v.into_iter().map(|x| x as i64).collect())
            }
            (Column::Str(v), Dtype::Float64) => Column::Float64(
                v.into_iter()
                    .map(|s| s.trim().parse::<f64>().unwrap_or(f64::NAN))
                    .collect(),
            ),
            (Column::Str(v), Dtype::Int64) => Column::Int64(
                v.into_iter()
                    .map(|s| s.trim().parse::<i64>().unwrap_or(0))
                    .collect(),
            ),
            (col, _) => col,
        }
    }

    /// Appends another column's values, promoting dtypes as needed.
    pub fn extend(self, other: Column) -> Column {
        let target = unify(self.dtype(), other.dtype());
        let mut a = self.cast(target);
        let b = other.cast(target);
        match (&mut a, b) {
            (Column::Int64(x), Column::Int64(y)) => x.extend(y),
            (Column::Float64(x), Column::Float64(y)) => x.extend(y),
            (Column::Str(x), Column::Str(y)) => x.extend(y),
            _ => unreachable!("both sides cast to the unified dtype"),
        }
        a
    }

    /// Value as f32 at `row` (NaN-preserving; strings parse or NaN).
    pub fn f32_at(&self, row: usize) -> f32 {
        match self {
            Column::Int64(v) => v[row] as f32,
            Column::Float64(v) => v[row] as f32,
            Column::Str(v) => v[row].trim().parse::<f32>().unwrap_or(f32::NAN),
        }
    }
}

/// A column-oriented table.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    columns: Vec<Column>,
    nrows: usize,
}

impl Frame {
    /// Builds a frame from equal-length columns.
    pub fn new(columns: Vec<Column>) -> Result<Self, DataError> {
        let nrows = columns.first().map(Column::len).unwrap_or(0);
        if columns.iter().any(|c| c.len() != nrows) {
            return Err(DataError::Malformed("columns have unequal lengths".into()));
        }
        Ok(Self { columns, nrows })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Concatenates frames row-wise (pandas `pd.concat(axis=0)`), unifying
    /// dtypes column-by-column. This is the step the paper's optimized
    /// loader performs once over large chunks, and the pandas-default path
    /// effectively performs per small chunk.
    pub fn concat(frames: Vec<Frame>) -> Result<Frame, DataError> {
        let mut iter = frames.into_iter();
        let first = match iter.next() {
            Some(f) => f,
            None => return Frame::new(Vec::new()),
        };
        let mut columns = first.columns;
        let mut nrows = first.nrows;
        for frame in iter {
            if frame.ncols() != columns.len() {
                return Err(DataError::Malformed(format!(
                    "cannot concat frames with {} vs {} columns",
                    columns.len(),
                    frame.ncols()
                )));
            }
            nrows += frame.nrows;
            let taken = std::mem::take(&mut columns);
            columns = taken
                .into_iter()
                .zip(frame.columns)
                .map(|(a, b)| a.extend(b))
                .collect();
        }
        Ok(Frame { columns, nrows })
    }

    /// Flattens to a dense row-major `f32` matrix `(nrows × ncols)` —
    /// the hand-off to model training.
    pub fn to_f32_matrix(&self) -> Vec<f32> {
        self.to_f32_block(0..self.nrows, 0..self.ncols())
    }

    /// Rows `rows` of columns `cols` as a dense row-major `f32` matrix —
    /// the column-major → row-major transpose every consumer of a frame
    /// needs, done once here: in blocks that read a run of each column and
    /// fill whole cache lines of the output (a strided walk of one column
    /// per value touches a new line, and on wide frames a new page, for
    /// every element), over row ranges split across
    /// [`parx::kernel_threads`].
    ///
    /// # Panics
    /// Panics if either range reaches outside the frame.
    pub fn to_f32_block(&self, rows: Range<usize>, cols: Range<usize>) -> Vec<f32> {
        assert!(rows.end <= self.nrows, "row range outside the frame");
        let columns = &self.columns[cols];
        let width = columns.len();
        let mut out = vec![0f32; rows.len() * width];
        if out.is_empty() {
            return out;
        }
        let workers = parx::kernel_threads()
            .min(out.len() / TRANSPOSE_GRAIN)
            .max(1);
        let share = rows.len().div_ceil(workers);
        parx::parallel_each(out.chunks_mut(share * width), |w, part| {
            transpose_rows(columns, rows.start + w * share, part);
        });
        out
    }
}

/// Output values per worker below which [`Frame::to_f32_block`] does not
/// fork another thread.
const TRANSPOSE_GRAIN: usize = 1 << 18;

/// Fills `out` (row-major, `columns.len()` wide) with the rows of `columns`
/// from `row0` on, 64 rows × 16 columns at a time: 16 `f32`s are one cache
/// line of the output, and 64 rows of a `Float64` column are 512
/// contiguous bytes of the input.
fn transpose_rows(columns: &[Column], row0: usize, out: &mut [f32]) {
    const ROWS: usize = 64;
    const COLS: usize = 16;
    let width = columns.len();
    for (block, out_rows) in out.chunks_mut(ROWS * width).enumerate() {
        let first = row0 + block * ROWS;
        let height = out_rows.len() / width;
        for col0 in (0..width).step_by(COLS) {
            let block_cols = &columns[col0..(col0 + COLS).min(width)];
            for (c, column) in block_cols.iter().enumerate() {
                match column {
                    Column::Float64(v) => {
                        for (k, &x) in v[first..first + height].iter().enumerate() {
                            out_rows[k * width + col0 + c] = x as f32;
                        }
                    }
                    other => {
                        for k in 0..height {
                            out_rows[k * width + col0 + c] = other.f32_at(first + k);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_cast_int_to_float() {
        let c = Column::Int64(vec![1, 2]).cast(Dtype::Float64);
        assert_eq!(c, Column::Float64(vec![1.0, 2.0]));
    }

    #[test]
    fn column_cast_str_to_float_with_nan() {
        let c = Column::Str(vec!["1.5".into(), "oops".into()]).cast(Dtype::Float64);
        match c {
            Column::Float64(v) => {
                assert_eq!(v[0], 1.5);
                assert!(v[1].is_nan());
            }
            _ => panic!("wrong dtype"),
        }
    }

    #[test]
    fn extend_promotes_dtypes() {
        let a = Column::Int64(vec![1, 2]);
        let b = Column::Float64(vec![0.5]);
        let c = a.extend(b);
        assert_eq!(c.dtype(), Dtype::Float64);
        assert_eq!(c.len(), 3);
        assert_eq!(c.f32_at(2), 0.5);
    }

    #[test]
    fn frame_rejects_ragged_columns() {
        let r = Frame::new(vec![Column::Int64(vec![1]), Column::Int64(vec![1, 2])]);
        assert!(r.is_err());
    }

    #[test]
    fn concat_unifies_and_counts() {
        let a = Frame::new(vec![Column::Int64(vec![1, 2])]).unwrap();
        let b = Frame::new(vec![Column::Float64(vec![3.5])]).unwrap();
        let c = Frame::concat(vec![a, b]).unwrap();
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.columns()[0].dtype(), Dtype::Float64);
    }

    #[test]
    fn concat_rejects_mismatched_width() {
        let a = Frame::new(vec![Column::Int64(vec![1])]).unwrap();
        let b = Frame::new(vec![Column::Int64(vec![1]), Column::Int64(vec![2])]).unwrap();
        assert!(Frame::concat(vec![a, b]).is_err());
    }

    #[test]
    fn concat_empty_list_is_empty_frame() {
        let f = Frame::concat(vec![]).unwrap();
        assert_eq!(f.nrows(), 0);
        assert_eq!(f.ncols(), 0);
    }

    /// The blocked transpose against the per-value walk it replaced, on a
    /// frame that crosses block edges in both directions and mixes dtypes,
    /// for whole-frame and interior blocks, forked and not.
    #[test]
    fn to_f32_block_equals_the_per_value_walk() {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(0xB10C);
        for (nrows, ncols) in [(1, 1), (70, 19), (64, 16), (129, 33), (3000, 180)] {
            let columns: Vec<Column> = (0..ncols)
                .map(|c| match c % 5 {
                    3 => Column::Int64((0..nrows).map(|_| rng.next_u64() as i64 >> 40).collect()),
                    4 => Column::Str((0..nrows).map(|r| format!(" {r}.5 ")).collect()),
                    _ => Column::Float64(
                        (0..nrows)
                            .map(|r| {
                                if r % 17 == 3 {
                                    f64::NAN
                                } else {
                                    rng.next_f32() as f64 - 0.5
                                }
                            })
                            .collect(),
                    ),
                })
                .collect();
            let frame = Frame::new(columns).unwrap();
            let blocks = [
                (0..nrows, 0..ncols),
                (nrows / 3..nrows, ncols / 2..ncols),
                (0..nrows / 2, 0..1),
                (nrows..nrows, 0..ncols),
            ];
            for (rows, cols) in blocks {
                let mut expect = Vec::new();
                for r in rows.clone() {
                    for c in cols.clone() {
                        expect.push(frame.columns()[c].f32_at(r).to_bits());
                    }
                }
                let got = frame.to_f32_block(rows.clone(), cols.clone());
                let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expect, "{nrows}x{ncols} block {rows:?} x {cols:?}");
            }
        }
    }

    #[test]
    fn to_f32_matrix_is_row_major() {
        let f = Frame::new(vec![
            Column::Int64(vec![1, 2]),
            Column::Float64(vec![10.0, 20.0]),
        ])
        .unwrap();
        assert_eq!(f.to_f32_matrix(), vec![1.0, 10.0, 2.0, 20.0]);
    }
}
