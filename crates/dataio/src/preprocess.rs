//! Feature preprocessing — the "data loading **and preprocessing**" phase
//! of the benchmark control flow (paper Figure 2).
//!
//! The CANDLE Pilot1 benchmarks scale their inputs before training: NT3
//! max-abs-scales the FPKM-UQ expression values, P1B1 min-max-scales to
//! `[0, 1]`, and P1B2/P1B3 standardize. All three scalers follow the
//! scikit-learn fit/transform contract: statistics are computed on the
//! training matrix only and then applied to both splits, so no test-set
//! information leaks into training.

/// A fitted, column-wise feature scaler.
#[derive(Debug, Clone, PartialEq)]
pub enum Scaler {
    /// `x / max(|x|)` per column (sparse-safe; keeps zeros).
    MaxAbs {
        /// Per-column maximum absolute value (1 for all-zero columns).
        scales: Vec<f32>,
    },
    /// `(x - min) / (max - min)` per column, into `[0, 1]`.
    MinMax {
        /// Per-column minimum.
        mins: Vec<f32>,
        /// Per-column `max - min` (1 for constant columns).
        spans: Vec<f32>,
    },
    /// `(x - mean) / std` per column.
    Standard {
        /// Per-column mean.
        means: Vec<f32>,
        /// Per-column standard deviation (1 for constant columns).
        stds: Vec<f32>,
    },
}

/// Which scaling a benchmark requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalerKind {
    /// Max-abs scaling (NT3).
    MaxAbs,
    /// Min-max scaling (P1B1).
    MinMax,
    /// Standardization (P1B2/P1B3).
    Standard,
}

impl Scaler {
    /// Fits a scaler of the given kind on a row-major `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is empty or its length is not `rows × cols`.
    pub fn fit(kind: ScalerKind, data: &[f32], rows: usize, cols: usize) -> Scaler {
        assert!(
            rows > 0 && cols > 0,
            "cannot fit a scaler on an empty matrix"
        );
        assert_eq!(data.len(), rows * cols, "matrix dims mismatch");
        match kind {
            ScalerKind::MaxAbs => {
                let mut scales = vec![0.0f32; cols];
                for row in data.chunks_exact(cols) {
                    for (s, &x) in scales.iter_mut().zip(row) {
                        *s = s.max(x.abs());
                    }
                }
                for s in &mut scales {
                    if *s == 0.0 || !s.is_finite() {
                        *s = 1.0;
                    }
                }
                Scaler::MaxAbs { scales }
            }
            ScalerKind::MinMax => {
                let mut mins = vec![f32::INFINITY; cols];
                let mut maxs = vec![f32::NEG_INFINITY; cols];
                for row in data.chunks_exact(cols) {
                    for ((mn, mx), &x) in mins.iter_mut().zip(&mut maxs).zip(row) {
                        *mn = mn.min(x);
                        *mx = mx.max(x);
                    }
                }
                let spans = mins
                    .iter()
                    .zip(&maxs)
                    .map(|(&mn, &mx)| {
                        let span = mx - mn;
                        if span == 0.0 || !span.is_finite() {
                            1.0
                        } else {
                            span
                        }
                    })
                    .collect();
                Scaler::MinMax { mins, spans }
            }
            ScalerKind::Standard => {
                let n = rows as f64;
                let mut means = vec![0.0f64; cols];
                for row in data.chunks_exact(cols) {
                    for (m, &x) in means.iter_mut().zip(row) {
                        *m += x as f64;
                    }
                }
                for m in &mut means {
                    *m /= n;
                }
                let mut vars = vec![0.0f64; cols];
                for row in data.chunks_exact(cols) {
                    for ((v, m), &x) in vars.iter_mut().zip(&means).zip(row) {
                        let d = x as f64 - *m;
                        *v += d * d;
                    }
                }
                let stds = vars
                    .iter()
                    .map(|&v| {
                        let s = (v / n).sqrt();
                        if s == 0.0 || !s.is_finite() {
                            1.0
                        } else {
                            s as f32
                        }
                    })
                    .collect();
                Scaler::Standard {
                    means: means.into_iter().map(|m| m as f32).collect(),
                    stds,
                }
            }
        }
    }

    /// Number of feature columns the scaler was fitted on.
    pub fn cols(&self) -> usize {
        match self {
            Scaler::MaxAbs { scales } => scales.len(),
            Scaler::MinMax { mins, .. } => mins.len(),
            Scaler::Standard { means, .. } => means.len(),
        }
    }

    /// Applies the fitted transform in place to a row-major matrix with
    /// the same column count.
    ///
    /// # Panics
    /// Panics if the data length is not a multiple of the fitted width.
    pub fn transform(&self, data: &mut [f32]) {
        let cols = self.cols();
        assert_eq!(data.len() % cols, 0, "matrix width mismatch");
        match self {
            Scaler::MaxAbs { scales } => {
                for row in data.chunks_exact_mut(cols) {
                    for (x, &s) in row.iter_mut().zip(scales) {
                        *x /= s;
                    }
                }
            }
            Scaler::MinMax { mins, spans } => {
                for row in data.chunks_exact_mut(cols) {
                    for ((x, &mn), &sp) in row.iter_mut().zip(mins).zip(spans) {
                        *x = (*x - mn) / sp;
                    }
                }
            }
            Scaler::Standard { means, stds } => {
                for row in data.chunks_exact_mut(cols) {
                    for ((x, &m), &s) in row.iter_mut().zip(means).zip(stds) {
                        *x = (*x - m) / s;
                    }
                }
            }
        }
    }

    /// Convenience: fit on `train` and transform both splits.
    pub fn fit_transform(
        kind: ScalerKind,
        train: &mut [f32],
        test: &mut [f32],
        rows: usize,
        cols: usize,
    ) -> Scaler {
        let scaler = Scaler::fit(kind, train, rows, cols);
        scaler.transform(train);
        scaler.transform(test);
        scaler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn maxabs_bounds_to_unit() {
        let mut data = vec![2.0f32, -8.0, 0.5, 4.0, 1.0, -0.25];
        let scaler = Scaler::fit(ScalerKind::MaxAbs, &data, 2, 3);
        scaler.transform(&mut data);
        assert_eq!(data, vec![0.5, -1.0, 1.0, 1.0, 0.125, -0.5]);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let mut train = vec![0.0f32, 10.0, 5.0, 20.0, 10.0, 30.0];
        let scaler = Scaler::fit(ScalerKind::MinMax, &train, 3, 2);
        scaler.transform(&mut train);
        for &x in &train {
            assert!((0.0..=1.0).contains(&x));
        }
        assert_eq!(train[0], 0.0); // column minimum
        assert_eq!(train[4], 1.0); // column maximum
    }

    #[test]
    fn standard_zero_mean_unit_variance() {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(5);
        let rows = 500;
        let cols = 4;
        let mut data: Vec<f32> = (0..rows * cols)
            .map(|i| rng.next_f32() * 10.0 + (i % cols) as f32 * 3.0)
            .collect();
        let scaler = Scaler::fit(ScalerKind::Standard, &data, rows, cols);
        scaler.transform(&mut data);
        for c in 0..cols {
            let col: Vec<f64> = (0..rows).map(|r| data[r * cols + c] as f64).collect();
            let mean = col.iter().sum::<f64>() / rows as f64;
            let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / rows as f64;
            assert!(mean.abs() < 1e-4, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "col {c} var {var}");
        }
    }

    #[test]
    fn constant_columns_do_not_divide_by_zero() {
        for kind in [ScalerKind::MaxAbs, ScalerKind::MinMax, ScalerKind::Standard] {
            let mut data = vec![5.0f32; 8];
            let scaler = Scaler::fit(kind, &data, 4, 2);
            scaler.transform(&mut data);
            assert!(data.iter().all(|x| x.is_finite()), "{kind:?}");
        }
        // All-zero column under MaxAbs keeps zeros.
        let mut data = vec![0.0f32; 6];
        Scaler::fit(ScalerKind::MaxAbs, &data, 3, 2).transform(&mut data);
        assert!(data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn statistics_come_from_train_only() {
        // The test split may exceed [0,1] under MinMax — proof the scaler
        // did not peek at it.
        let mut train = vec![0.0f32, 1.0, 2.0, 3.0];
        let mut test = vec![10.0f32, -5.0];
        Scaler::fit_transform(ScalerKind::MinMax, &mut train, &mut test, 2, 2);
        assert!(test[0] > 1.0);
        assert!(test[1] < 0.0);
    }

    #[test]
    #[should_panic(expected = "empty matrix")]
    fn empty_fit_panics() {
        Scaler::fit(ScalerKind::MaxAbs, &[], 0, 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn transform_width_checked() {
        let scaler = Scaler::fit(ScalerKind::MaxAbs, &[1.0, 2.0], 1, 2);
        let mut bad = vec![1.0f32; 3];
        scaler.transform(&mut bad);
    }

    proptest! {
        #[test]
        fn transforms_are_affine_and_invertible_in_spirit(
            rows in 1usize..20, cols in 1usize..6, seed in 0u64..100
        ) {
            use xrng::RandomSource;
            let mut rng = xrng::seeded(seed);
            let data: Vec<f32> = (0..rows * cols).map(|_| rng.next_f32() * 20.0 - 10.0).collect();
            for kind in [ScalerKind::MaxAbs, ScalerKind::MinMax, ScalerKind::Standard] {
                let scaler = Scaler::fit(kind, &data, rows, cols);
                let mut transformed = data.clone();
                scaler.transform(&mut transformed);
                prop_assert!(transformed.iter().all(|x| x.is_finite()));
                // Affine property: order of values within a column is
                // preserved (all three scalers are monotone per column).
                for c in 0..cols {
                    for r1 in 0..rows {
                        for r2 in 0..rows {
                            let before = data[r1 * cols + c] <= data[r2 * cols + c];
                            let after =
                                transformed[r1 * cols + c] <= transformed[r2 * cols + c] + 1e-6;
                            prop_assert!(!before || after);
                        }
                    }
                }
            }
        }
    }
}
