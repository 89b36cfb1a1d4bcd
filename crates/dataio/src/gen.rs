//! Synthetic dataset generation.
//!
//! The CANDLE P1 data (NCI Genomic Data Commons RNA-seq profiles, somatic
//! SNPs, NCI-60 drug screens) is not redistributable, so the reproduction
//! generates class-structured Gaussian data with the same geometry: the
//! same row/column aspect (wide-few-rows for NT3/P1B1/P1B2, narrow-many-
//! rows for P1B3) and a learnable signal so training accuracy behaves like
//! the paper's (rising with epochs, collapsing when each worker sees too
//! few).

use crate::csv::write_matrix_csv;
use crate::frame::{Column, Frame};
use std::path::Path;
use xrng::Normal;

/// The supervised structure of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassSpec {
    /// `classes` Gaussian blobs with centroid scale `separation`.
    Classification {
        /// Number of classes.
        classes: usize,
        /// Standard deviation of centroid coordinates; larger separates
        /// classes more and makes the task easier.
        separation: f64,
    },
    /// Continuous target `y = sigmoid(x[0..k]·w) + noise`.
    Regression {
        /// Number of leading features carrying signal.
        signal_features: usize,
    },
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Sample count.
    pub rows: usize,
    /// Feature count.
    pub cols: usize,
    /// Label structure.
    pub kind: ClassSpec,
    /// Per-feature Gaussian noise standard deviation.
    pub noise: f64,
    /// Generation seed.
    pub seed: u64,
}

/// A generated dataset: dense features plus labels.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Row-major `rows × cols` features.
    pub features: Vec<f32>,
    /// Per-row label: class index (as f32) for classification, continuous
    /// target for regression.
    pub labels: Vec<f32>,
    /// Sample count.
    pub rows: usize,
    /// Feature count.
    pub cols: usize,
    /// Class count (0 for regression).
    pub classes: usize,
}

impl SyntheticDataset {
    /// Packs the dataset into a [`Frame`] — feature columns first, then
    /// one label column, all `Float64` (exact f32 widening). This is the
    /// shared cold-build path: services hand this frame to the shard
    /// cache instead of round-tripping through a CSV on disk.
    pub fn to_frame(&self) -> Frame {
        let mut columns = Vec::with_capacity(self.cols + 1);
        for c in 0..self.cols {
            columns.push(Column::Float64(
                (0..self.rows)
                    .map(|r| self.features[r * self.cols + c] as f64)
                    .collect(),
            ));
        }
        columns.push(Column::Float64(
            self.labels.iter().map(|&v| v as f64).collect(),
        ));
        Frame::new(columns).expect("generated columns share the row count")
    }

    /// One-hot encodes classification labels into a `rows × classes`
    /// row-major matrix.
    ///
    /// # Panics
    /// Panics for regression datasets (`classes == 0`).
    pub fn one_hot_labels(&self) -> Vec<f32> {
        assert!(
            self.classes > 0,
            "one_hot_labels requires a classification dataset"
        );
        let mut out = vec![0.0f32; self.rows * self.classes];
        for (r, &l) in self.labels.iter().enumerate() {
            let class = l as usize;
            debug_assert!(class < self.classes);
            out[r * self.classes + class] = 1.0;
        }
        out
    }
}

/// Generates a dataset from a spec. Deterministic in the seed.
///
/// # Panics
/// Panics on zero rows/cols or a degenerate class spec.
pub fn generate(spec: &SyntheticSpec) -> SyntheticDataset {
    assert!(spec.rows > 0 && spec.cols > 0, "dataset must be non-empty");
    let mut rng = xrng::seeded(spec.seed);
    let mut noise = Normal::new(0.0, spec.noise.max(0.0));
    match spec.kind {
        ClassSpec::Classification {
            classes,
            separation,
        } => {
            assert!(classes >= 2, "need at least two classes");
            let mut centroid_dist = Normal::new(0.0, separation);
            // Centroids: classes × cols.
            let centroids: Vec<f32> = (0..classes * spec.cols)
                .map(|_| centroid_dist.sample_f32(&mut rng))
                .collect();
            let mut features = Vec::with_capacity(spec.rows * spec.cols);
            let mut labels = Vec::with_capacity(spec.rows);
            for r in 0..spec.rows {
                // Balanced classes, interleaved (matches NT3's balanced
                // normal/tumor pairs).
                let class = r % classes;
                labels.push(class as f32);
                let c0 = class * spec.cols;
                for c in 0..spec.cols {
                    features.push(centroids[c0 + c] + noise.sample_f32(&mut rng));
                }
            }
            SyntheticDataset {
                features,
                labels,
                rows: spec.rows,
                cols: spec.cols,
                classes,
            }
        }
        ClassSpec::Regression { signal_features } => {
            let k = signal_features.min(spec.cols).max(1);
            // Weight scale 1/sqrt(k) keeps the logit ~N(0,1), so the
            // sigmoid target stays in its responsive range instead of
            // saturating at 0/1 — the signal a regressor can learn.
            let mut wdist = Normal::new(0.0, 1.0 / (k as f64).sqrt());
            let weights: Vec<f32> = (0..k).map(|_| wdist.sample_f32(&mut rng)).collect();
            let mut feat_dist = Normal::new(0.0, 1.0);
            let mut features = Vec::with_capacity(spec.rows * spec.cols);
            let mut labels = Vec::with_capacity(spec.rows);
            for _ in 0..spec.rows {
                let row_start = features.len();
                for _ in 0..spec.cols {
                    features.push(feat_dist.sample_f32(&mut rng));
                }
                let dot: f32 = weights
                    .iter()
                    .zip(&features[row_start..row_start + k])
                    .map(|(w, x)| w * x)
                    .sum();
                let y = 1.0 / (1.0 + (-dot).exp()) + noise.sample_f32(&mut rng);
                labels.push(y);
            }
            SyntheticDataset {
                features,
                labels,
                rows: spec.rows,
                cols: spec.cols,
                classes: 0,
            }
        }
    }
}

/// Writes a dataset as a headerless CSV in the CANDLE layout: the label in
/// the first column, features after it. Returns bytes written.
pub fn write_csv_dataset(path: &Path, ds: &SyntheticDataset) -> std::io::Result<u64> {
    let cols = ds.cols + 1;
    let mut matrix = Vec::with_capacity(ds.rows * cols);
    for r in 0..ds.rows {
        matrix.push(ds.labels[r]);
        matrix.extend_from_slice(&ds.features[r * ds.cols..(r + 1) * ds.cols]);
    }
    write_matrix_csv(path, &matrix, ds.rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_spec(rows: usize, cols: usize) -> SyntheticSpec {
        SyntheticSpec {
            rows,
            cols,
            kind: ClassSpec::Classification {
                classes: 2,
                separation: 1.0,
            },
            noise: 0.5,
            seed: 42,
        }
    }

    #[test]
    fn to_frame_packs_features_then_label() {
        let ds = generate(&class_spec(30, 5));
        let frame = ds.to_frame();
        assert_eq!(frame.nrows(), 30);
        assert_eq!(frame.ncols(), 6);
        let matrix = frame.to_f32_matrix();
        for r in 0..ds.rows {
            assert_eq!(&matrix[r * 6..r * 6 + 5], &ds.features[r * 5..(r + 1) * 5]);
            assert_eq!(matrix[r * 6 + 5], ds.labels[r]);
        }
    }

    #[test]
    fn classification_shape_and_balance() {
        let ds = generate(&class_spec(100, 8));
        assert_eq!(ds.features.len(), 800);
        assert_eq!(ds.labels.len(), 100);
        assert_eq!(ds.classes, 2);
        let ones = ds.labels.iter().filter(|&&l| l == 1.0).count();
        assert_eq!(ones, 50);
    }

    #[test]
    fn one_hot_is_consistent() {
        let ds = generate(&class_spec(10, 3));
        let oh = ds.one_hot_labels();
        assert_eq!(oh.len(), 20);
        for r in 0..10 {
            let row = &oh[r * 2..(r + 1) * 2];
            assert_eq!(row.iter().sum::<f32>(), 1.0);
            assert_eq!(row[ds.labels[r] as usize], 1.0);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&class_spec(20, 5));
        let b = generate(&class_spec(20, 5));
        assert_eq!(a.features, b.features);
        let mut spec = class_spec(20, 5);
        spec.seed = 43;
        let c = generate(&spec);
        assert_ne!(a.features, c.features);
    }

    #[test]
    fn classes_are_linearly_separable_enough() {
        // Nearest-centroid classification on generated data should beat 90%
        // with good separation — guaranteeing the learnability the accuracy
        // experiments depend on.
        let spec = SyntheticSpec {
            rows: 200,
            cols: 16,
            kind: ClassSpec::Classification {
                classes: 2,
                separation: 1.0,
            },
            noise: 0.5,
            seed: 7,
        };
        let ds = generate(&spec);
        // Estimate centroids from the data itself.
        let mut centroids = vec![0.0f64; 2 * 16];
        let mut counts = [0usize; 2];
        for r in 0..ds.rows {
            let class = ds.labels[r] as usize;
            counts[class] += 1;
            for c in 0..16 {
                centroids[class * 16 + c] += ds.features[r * 16 + c] as f64;
            }
        }
        for class in 0..2 {
            for c in 0..16 {
                centroids[class * 16 + c] /= counts[class] as f64;
            }
        }
        let mut correct = 0;
        for r in 0..ds.rows {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for class in 0..2 {
                let d: f64 = (0..16)
                    .map(|c| {
                        let diff = ds.features[r * 16 + c] as f64 - centroids[class * 16 + c];
                        diff * diff
                    })
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = class;
                }
            }
            if best == ds.labels[r] as usize {
                correct += 1;
            }
        }
        assert!(correct >= 180, "only {correct}/200 correct");
    }

    #[test]
    fn regression_targets_bounded() {
        let spec = SyntheticSpec {
            rows: 50,
            cols: 10,
            kind: ClassSpec::Regression { signal_features: 4 },
            noise: 0.01,
            seed: 9,
        };
        let ds = generate(&spec);
        assert_eq!(ds.classes, 0);
        for &y in &ds.labels {
            assert!(y > -0.2 && y < 1.2, "target {y} out of expected band");
        }
    }

    #[test]
    #[should_panic(expected = "classification dataset")]
    fn one_hot_rejected_for_regression() {
        let spec = SyntheticSpec {
            rows: 5,
            cols: 2,
            kind: ClassSpec::Regression { signal_features: 1 },
            noise: 0.0,
            seed: 1,
        };
        generate(&spec).one_hot_labels();
    }

    #[test]
    fn csv_export_layout() {
        let ds = generate(&class_spec(4, 3));
        let dir = parx::scratch("gen_tests").expect("scratch dir");
        let path = dir.join("ds.csv");
        write_csv_dataset(&path, &ds).unwrap();
        let (frame, _) =
            crate::csv::read_csv(&path, crate::csv::ReadStrategy::ChunkedLowMemory).unwrap();
        assert_eq!(frame.nrows(), 4);
        assert_eq!(frame.ncols(), 4); // label + 3 features
                                      // First column is the class label.
        for r in 0..4 {
            assert_eq!(frame.columns()[0].f32_at(r), ds.labels[r]);
        }
    }
}
