//! The four network architectures, built on `dlframe`.
//!
//! Shapes follow the published CANDLE models (NT3's 1-D convolutional
//! classifier; P1B1's sparse autoencoder with a bottleneck; P1B2's
//! regularized MLP classifier; P1B3's MLP drug-response regressor), with
//! layer widths scaled down in proportion to the feature dimension so the
//! functional experiments run in seconds. The architecture *kind* per
//! benchmark — conv vs autoencoder vs classifier vs regressor, and the
//! loss/optimizer pairing of Table 1 — is preserved exactly.

use crate::params::{BenchId, HyperParams};
use cluster::calib::Bench;
use dlframe::{
    Activation, ActivationLayer, Conv1D, Dense, Dropout, Flatten, Loss, MaxPooling1D, Reshape3,
    Sequential,
};

/// Builds the benchmark's model for `features` input features, compiled
/// with its Table-1 optimizer at learning rate `lr`.
///
/// Returns the model and its loss (also set on the model).
///
/// # Panics
/// Panics if `features` is too small for the architecture (NT3 needs at
/// least 16 features for its conv/pool stack).
pub fn build_model(bench: BenchId, features: usize, lr: f32, seed: u64) -> (Sequential, Loss) {
    let hp = HyperParams::of(bench);
    let mut rng = xrng::seeded(xrng::derive_seed(seed, 0x90DE1));
    let mut model = Sequential::new(seed);
    let loss = match bench {
        Bench::Nt3 => {
            assert!(
                features >= 16,
                "NT3 conv stack needs >= 16 features, got {features}"
            );
            // Classic conv architecture: Conv1D → pool → Conv1D → pool →
            // dense head (the full-scale model uses 128 filters and kernel
            // 20 over 60,483 steps).
            let conv1 = Conv1D::new(1, 16, 5, 2, Activation::Relu, &mut rng);
            let steps1 = conv1.output_len(features).expect("checked above");
            let pool1 = 2usize;
            let steps1p = steps1 / pool1;
            assert!(steps1p >= 3, "NT3 needs more features for the second conv");
            let conv2 = Conv1D::new(16, 16, 3, 1, Activation::Relu, &mut rng);
            let steps2 = conv2.output_len(steps1p).expect("checked above");
            let flat = steps2 * 16;
            model.add(Box::new(Reshape3::new(features, 1)));
            model.add(Box::new(conv1));
            model.add(Box::new(MaxPooling1D::new(pool1)));
            model.add(Box::new(conv2));
            model.add(Box::new(Flatten::new()));
            model.add(Box::new(Dense::new(flat, 32, Activation::Relu, &mut rng)));
            model.add(Box::new(Dropout::new(
                0.1,
                xrng::seeded(xrng::derive_seed(seed, 1)),
            )));
            model.add(Box::new(Dense::new(32, 2, Activation::Linear, &mut rng)));
            Loss::SoftmaxCrossEntropy
        }
        Bench::P1b1 => {
            // Autoencoder: encode → bottleneck → decode, MSE
            // reconstruction (full scale: 2000-600-2000 over 60,484).
            let h = (features / 4).clamp(8, 128);
            let z = (features / 16).clamp(4, 32);
            model.add(Box::new(Dense::new(
                features,
                h,
                Activation::Relu,
                &mut rng,
            )));
            model.add(Box::new(Dense::new(h, z, Activation::Relu, &mut rng)));
            model.add(Box::new(Dense::new(z, h, Activation::Relu, &mut rng)));
            model.add(Box::new(Dense::new(
                h,
                features,
                Activation::Linear,
                &mut rng,
            )));
            Loss::MeanSquaredError
        }
        Bench::P1b2 => {
            // Five-layer regularized MLP classifier (full scale:
            // 1024-512-256 over 28,204 SNP features, 10 cancer types).
            let h1 = (features / 2).clamp(16, 128);
            let h2 = (h1 / 2).max(8);
            model.add(Box::new(Dense::new(
                features,
                h1,
                Activation::Relu,
                &mut rng,
            )));
            model.add(Box::new(Dropout::new(
                0.1,
                xrng::seeded(xrng::derive_seed(seed, 2)),
            )));
            model.add(Box::new(Dense::new(h1, h2, Activation::Relu, &mut rng)));
            model.add(Box::new(Dense::new(h2, 10, Activation::Linear, &mut rng)));
            Loss::SoftmaxCrossEntropy
        }
        Bench::P1b3 => {
            // MLP regressor with convolution-like dense feature layers
            // (full scale: 1000-500-100-50 heads on drug descriptors).
            let h1 = (features / 2).clamp(8, 64);
            let h2 = (h1 / 2).max(4);
            model.add(Box::new(Dense::new(
                features,
                h1,
                Activation::Relu,
                &mut rng,
            )));
            model.add(Box::new(Dense::new(h1, h2, Activation::Relu, &mut rng)));
            model.add(Box::new(Dense::new(h2, 1, Activation::Linear, &mut rng)));
            model.add(Box::new(ActivationLayer::new(Activation::Sigmoid)));
            Loss::MeanSquaredError
        }
    };
    model.compile(loss, hp.make_optimizer(lr));
    (model, loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Tensor;

    #[test]
    fn nt3_forward_shape() {
        let (m, loss) = build_model(Bench::Nt3, 64, 0.001, 1);
        assert_eq!(loss, Loss::SoftmaxCrossEntropy);
        let y = m.predict(&Tensor::zeros([3, 64])).unwrap();
        assert_eq!(y.shape().dims(), &[3, 2]);
    }

    /// Serving batches requests as they come, so a row's prediction must
    /// not depend on how many rows share its batch. On NT3-2000 a batch of
    /// up to eight rows runs the dense head with B read in place (one row
    /// panel) while the convolutions, whose products have hundreds of
    /// rows, pack it; larger batches pack everywhere.
    #[test]
    fn nt3_predict_rows_are_independent_of_batch_size() {
        use xrng::RandomSource;
        let features = 2000;
        let (m, _) = build_model(Bench::Nt3, features, 0.001, 11);
        let mut rng = xrng::seeded(12);
        let x = Tensor::from_fn([40, features], |_| rng.next_f32() * 2.0 - 1.0);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let full = bits(&m.predict(&x).unwrap());
        for rows in 1..=17 {
            let i0 = (rows * 5) % (40 - rows + 1);
            let part = Tensor::from_vec(
                [rows, features],
                x.data()[i0 * features..(i0 + rows) * features].to_vec(),
            )
            .unwrap();
            assert_eq!(
                bits(&m.predict(&part).unwrap()),
                full[i0 * 2..(i0 + rows) * 2],
                "batch of {rows} from row {i0}"
            );
        }
    }

    #[test]
    fn p1b1_reconstructs_input_dim() {
        let (m, loss) = build_model(Bench::P1b1, 48, 0.001, 2);
        assert_eq!(loss, Loss::MeanSquaredError);
        let y = m.predict(&Tensor::zeros([2, 48])).unwrap();
        assert_eq!(y.shape().dims(), &[2, 48]);
    }

    #[test]
    fn p1b2_outputs_ten_classes() {
        let (m, _) = build_model(Bench::P1b2, 40, 0.001, 3);
        let y = m.predict(&Tensor::zeros([5, 40])).unwrap();
        assert_eq!(y.shape().dims(), &[5, 10]);
    }

    #[test]
    fn p1b3_outputs_bounded_growth() {
        let (m, _) = build_model(Bench::P1b3, 20, 0.001, 4);
        let y = m.predict(&Tensor::zeros([4, 20])).unwrap();
        assert_eq!(y.shape().dims(), &[4, 1]);
        for &v in y.data() {
            assert!((0.0..=1.0).contains(&v), "sigmoid output {v}");
        }
    }

    #[test]
    fn models_have_parameters() {
        for bench in [Bench::Nt3, Bench::P1b1, Bench::P1b2, Bench::P1b3] {
            let (m, _) = build_model(bench, 64, 0.001, 5);
            assert!(
                m.param_count() > 100,
                "{bench:?} has {} params",
                m.param_count()
            );
        }
    }

    #[test]
    fn same_seed_same_weights_different_seed_different() {
        let (a, _) = build_model(Bench::P1b2, 32, 0.001, 7);
        let (b, _) = build_model(Bench::P1b2, 32, 0.001, 7);
        let (c, _) = build_model(Bench::P1b2, 32, 0.001, 8);
        assert_eq!(a.flat_params(), b.flat_params());
        assert_ne!(a.flat_params(), c.flat_params());
    }

    #[test]
    #[should_panic(expected = "NT3 conv stack")]
    fn nt3_rejects_tiny_input() {
        build_model(Bench::Nt3, 8, 0.001, 9);
    }

    #[test]
    fn optimizer_lr_is_respected() {
        let (m, _) = build_model(Bench::Nt3, 64, 0.048, 10);
        assert!((m.optimizer().unwrap().learning_rate() - 0.048).abs() < 1e-7);
    }
}
