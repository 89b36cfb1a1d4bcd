//! The `Sequential` model: Keras-style layer stack with `fit`, `evaluate`
//! and `predict`, plus the two splice points the distributed runtime needs.

use crate::history::{EpochStats, History};
use crate::layers::Layer;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use crate::{Dataset, DlError};
use std::time::{Duration, Instant};
use tensor::{with_scratch, Tensor, Workspace};
use xrng::Rng;

/// Hook invoked on the flattened gradient vector after backward and before
/// the optimizer step — exactly where Horovod's `DistributedOptimizer`
/// inserts its allreduce.
pub trait GradientSync {
    /// Synchronizes (e.g. averages across workers) the flat gradient in
    /// place.
    fn sync_gradients(&mut self, flat: &mut [f32]);

    /// Opens one batch step. Returning `true` switches
    /// [`Sequential::train_batch`] to the streaming protocol: each layer's
    /// gradient region is handed over via [`GradientSync::region_ready`] as
    /// soon as that layer's backward pass finishes (regions arrive in
    /// descending flat-offset order, covering the layout exactly once), and
    /// [`GradientSync::finish_step`] is the completion barrier before the
    /// optimizer step. The default (blocking) implementation returns
    /// `false`, in which case only [`GradientSync::sync_gradients`] fires.
    ///
    /// `param_count` is the full flat-gradient length, so implementations
    /// can validate their bucket geometry eagerly.
    fn begin_step(&mut self, param_count: usize) -> bool {
        let _ = param_count;
        false
    }

    /// Streams one ready gradient region (`offset` is its flat offset).
    /// Only called between a `begin_step` that returned `true` and the
    /// matching `finish_step`; an implementation may start communicating
    /// this region immediately while earlier layers are still computing.
    fn region_ready(&mut self, offset: usize, grad: &[f32]) {
        let _ = (offset, grad);
    }

    /// Completion barrier for a streamed step: must overwrite `flat` (the
    /// full gradient layout) with the synchronized values before returning.
    fn finish_step(&mut self, flat: &mut [f32]) {
        let _ = flat;
    }
}

/// No-op sync for single-process training.
pub struct NoSync;

impl GradientSync for NoSync {
    fn sync_gradients(&mut self, _flat: &mut [f32]) {}
}

/// Training-run configuration (the knobs the paper varies).
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Number of passes over the (local shard of the) dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle sample order each epoch.
    pub shuffle: bool,
    /// Record classification accuracy per epoch (argmax match).
    pub compute_accuracy: bool,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            epochs: 1,
            batch_size: 32,
            shuffle: true,
            compute_accuracy: true,
        }
    }
}

/// Wall-clock accounting of the training hot path, split into the three
/// phases the paper's per-phase profiles use (forward, backward, optimizer
/// step — the optimizer bucket includes gradient flatten and sync).
#[derive(Debug, Clone, Copy, Default)]
pub struct HotStats {
    /// Total time in layer forward passes plus the loss.
    pub forward: Duration,
    /// Total time in layer backward passes.
    pub backward: Duration,
    /// Total time in gradient sync and optimizer updates.
    pub optimizer: Duration,
    /// Number of batches accumulated into the totals.
    pub batches: u64,
}

/// A linear stack of layers trained with backpropagation.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    loss: Option<Loss>,
    optimizer: Option<Optimizer>,
    rng: Rng,
    /// Pooled scratch buffers for the training hot path: activations,
    /// gradients, and GEMM packing all draw from here, so steady-state
    /// training performs no per-batch heap allocation.
    ws: Workspace,
    /// Flat gradient buffer reused across batches for sync + optimizer.
    flat_buf: Vec<f32>,
    /// The activations of the training step in flight: `chain[i]` is layer
    /// `i`'s output, and so layer `i + 1`'s input. The model, not the
    /// layers, owns these — each layer borrows its two during backward —
    /// and every one is back in `ws`'s pool when `train_batch` returns.
    chain: Vec<Tensor>,
    hot: HotStats,
}

impl Sequential {
    /// Creates an empty model with a deterministic shuffling stream.
    pub fn new(seed: u64) -> Self {
        Self {
            layers: Vec::new(),
            loss: None,
            optimizer: None,
            rng: xrng::seeded(xrng::derive_seed(seed, 0xF17)),
            ws: Workspace::new(),
            flat_buf: Vec::new(),
            chain: Vec::new(),
            hot: HotStats::default(),
        }
    }

    /// Accumulated hot-path timings since the last reset.
    pub fn hot_stats(&self) -> HotStats {
        self.hot
    }

    /// Appends a layer.
    pub fn add(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Sets the loss and optimizer (Keras `compile`).
    pub fn compile(&mut self, loss: Loss, optimizer: Optimizer) -> &mut Self {
        self.loss = Some(loss);
        self.optimizer = Some(optimizer);
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Per-layer trainable parameter counts in forward (layer) order,
    /// including zero entries for parameterless layers. Reversed, this is
    /// the order in which gradient regions become ready during backward —
    /// the input for overlap-aware fusion plans.
    pub fn layer_param_counts(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.param_count()).collect()
    }

    /// Immutable access to the optimizer, if compiled.
    pub fn optimizer(&self) -> Option<&Optimizer> {
        self.optimizer.as_ref()
    }

    /// Mutable access to the optimizer, if compiled (a checkpoint restore
    /// sets its rate and slots).
    pub fn optimizer_mut(&mut self) -> Option<&mut Optimizer> {
        self.optimizer.as_mut()
    }

    /// Serialises every random stream the model owns: the epoch-shuffle
    /// stream first, then each stochastic layer's private stream (e.g.
    /// dropout) in layer order.
    ///
    /// Restoring these via [`Sequential::set_rng_states`] is what makes a
    /// checkpointed training run resumable bit-exactly — both the sample
    /// order and the dropout masks continue from the captured position.
    pub fn rng_states(&self) -> Vec<[u8; 32]> {
        let mut states = vec![self.rng.to_bytes()];
        states.extend(
            self.layers
                .iter()
                .filter_map(|l| l.rng().map(Rng::to_bytes)),
        );
        states
    }

    /// Restores every random stream captured by [`Sequential::rng_states`]
    /// on a model of identical architecture.
    ///
    /// # Panics
    /// Panics if the number of states does not match this model's stream
    /// count (shuffle stream + one per stochastic layer).
    pub fn set_rng_states(&mut self, states: &[[u8; 32]]) {
        let expected = 1 + self.layers.iter().filter(|l| l.rng().is_some()).count();
        assert_eq!(
            states.len(),
            expected,
            "rng state count mismatch: model has {expected} streams"
        );
        let mut it = states.iter();
        self.rng = Rng::from_bytes(*it.next().expect("checked above"));
        for layer in &mut self.layers {
            if let Some(rng) = layer.rng_mut() {
                *rng = Rng::from_bytes(*it.next().expect("checked above"));
            }
        }
    }

    /// Inference forward pass: no backward caches are written and no RNG
    /// state advances, so a trained model behind an `Arc` can serve
    /// predictions from many threads concurrently. The whole chain runs on
    /// the calling thread's scratch workspace, recycling each intermediate
    /// once the next layer has consumed it.
    pub fn predict(&self, x: &Tensor) -> Result<Tensor, DlError> {
        with_scratch(|ws| self.infer(x, ws))
    }

    /// The inference chain on a caller-supplied workspace.
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let (first, rest) = self
            .layers
            .split_first()
            .ok_or_else(|| DlError::NotReady("model has no layers".into()))?;
        let mut h = first.forward_infer(x, ws)?;
        for layer in rest {
            let out = layer.forward_infer(&h, ws)?;
            ws.recycle(std::mem::replace(&mut h, out));
        }
        Ok(h)
    }

    /// Copies all parameters into one flat vector, in layer/parameter order.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.for_each_param(&mut |p| out.extend_from_slice(p.data()));
        }
        out
    }

    /// Overwrites all parameters from a flat vector produced by a model of
    /// identical architecture (the weight-broadcast splice point).
    ///
    /// # Panics
    /// Panics if the length does not match [`Sequential::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.for_each_param_mut(&mut |p| {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            });
        }
    }

    /// Trains on one already-materialized batch, returning the batch loss
    /// and (for classifiers) the number of argmax-correct predictions.
    ///
    /// This is the zero-allocation hot path: activations and gradients come
    /// from the model's [`Workspace`] pool and are recycled as the chain
    /// advances, gradients flow through one reused flat buffer, and the
    /// optimizer updates parameter slices in place.
    ///
    /// An `Err` from any layer, forward or backward, leaves the parameters
    /// and the optimizer untouched and every activation back in the pool:
    /// the next call starts from the state this one found.
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        sync: &mut dyn GradientSync,
    ) -> Result<(f64, usize), DlError> {
        let loss_fn = self
            .loss
            .ok_or_else(|| DlError::NotReady("compile before fit".into()))?;
        if self.layers.is_empty() {
            return Err(DlError::NotReady("model has no layers".into()));
        }
        if self.optimizer.is_none() {
            return Err(DlError::NotReady("compile before fit".into()));
        }
        let step = self.forward_backward(x, y, loss_fn, sync);
        // Backward hands each boundary back as it passes it; what is left
        // lies below the lowest parameters, or above a layer that failed.
        while let Some(t) = self.chain.pop() {
            self.ws.recycle(t);
        }
        let (loss, correct, overlap) = step?;
        // Gradient synchronization on the flat layout. The synchronized
        // values live only there: the optimizer reads them from it, and the
        // layers' own gradient tensors keep this rank's local values.
        let opt_start = Instant::now();
        if overlap {
            sync.finish_step(&mut self.flat_buf);
        } else {
            self.flat_buf.clear();
            for layer in &self.layers {
                layer.for_each_grad(&mut |gt| self.flat_buf.extend_from_slice(gt.data()));
            }
            sync.sync_gradients(&mut self.flat_buf);
        }
        // Optimizer step, slot per parameter tensor, reading each slot's
        // gradient window straight out of the flat buffer.
        let opt = self.optimizer.as_mut().expect("checked above");
        let mut slot = 0;
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.for_each_param_mut(&mut |p| {
                let n = p.len();
                opt.update_slice(slot, p.data_mut(), &self.flat_buf[offset..offset + n]);
                slot += 1;
                offset += n;
            });
        }
        self.hot.optimizer += opt_start.elapsed();
        self.hot.batches += 1;
        Ok((loss, correct))
    }

    /// The forward chain, the loss, and the backward walk of one step:
    /// `(loss, correct predictions, whether `sync` streamed the step)`.
    /// On `Err` the chain may still hold tensors; the caller recycles
    /// them.
    fn forward_backward(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        loss_fn: Loss,
        sync: &mut dyn GradientSync,
    ) -> Result<(f64, usize, bool), DlError> {
        // Forward: each layer reads the boundary below it and its output
        // becomes the next boundary. Nothing is copied aside for backward
        // — the chain is what backward reads.
        let fwd_start = Instant::now();
        debug_assert!(self.chain.is_empty(), "a step left tensors in the chain");
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let input = input_of(x, &self.chain, i);
            let out = layer.forward(input, true, &mut self.ws)?;
            self.chain.push(out);
        }
        let pred = self.chain.last().expect("at least one layer");
        let (loss, grad) = loss_fn.loss_and_grad_ws(pred, y, &mut self.ws);
        let correct = count_argmax_matches(pred, y);
        self.hot.forward += fwd_start.elapsed();
        // Backward through the stack, recycling each upstream gradient and
        // each boundary tensor the moment the layer under it has used it.
        // In overlapped mode each layer's gradient region is streamed to
        // the sync hook as soon as that layer's backward finishes
        // (descending flat offsets), so communication proceeds under the
        // remaining layers' compute.
        let bwd_start = Instant::now();
        let total = self.param_count();
        let overlap = sync.begin_step(total);
        if overlap {
            self.flat_buf.resize(total, 0.0);
        }
        // The walk ends at the lowest layer that owns parameters, which is
        // asked for its parameter gradients only: the input gradient it
        // would pass down feeds no parameter.
        let lowest = self
            .layers
            .iter()
            .position(|l| l.param_count() > 0)
            .unwrap_or(self.layers.len());
        let mut end = total;
        let mut g = grad;
        for (i, layer) in self.layers.iter_mut().enumerate().skip(lowest).rev() {
            let output = self.chain.pop().expect("one boundary per layer");
            let input = input_of(x, &self.chain, i);
            let passed = layer.backward(input, &output, &g, i > lowest, &mut self.ws);
            self.ws.recycle(output);
            match passed {
                Ok(Some(gi)) => self.ws.recycle(std::mem::replace(&mut g, gi)),
                Ok(None) => {}
                Err(e) => {
                    self.ws.recycle(g);
                    return Err(e);
                }
            }
            if overlap {
                let n = layer.param_count();
                if n == 0 {
                    continue;
                }
                let start = end - n;
                let mut off = start;
                let flat = &mut self.flat_buf;
                layer.for_each_grad(&mut |gt| {
                    flat[off..off + gt.len()].copy_from_slice(gt.data());
                    off += gt.len();
                });
                sync.region_ready(start, &self.flat_buf[start..end]);
                end = start;
            }
        }
        self.ws.recycle(g);
        debug_assert!(
            !overlap || end == 0,
            "streamed regions must cover the layout"
        );
        self.hot.backward += bwd_start.elapsed();
        Ok((loss, correct, overlap))
    }

    /// Trains for `config.epochs` passes over `data`, invoking `sync` on
    /// every batch gradient.
    pub fn fit(
        &mut self,
        data: &Dataset,
        config: &FitConfig,
        sync: &mut dyn GradientSync,
    ) -> Result<History, DlError> {
        if data.is_empty() {
            return Err(DlError::BadInput("empty training dataset".into()));
        }
        check_batch_size(config.batch_size)?;
        let mut history = History::new();
        // Batch tensors persist across the whole fit; `batch_into` reuses
        // their buffers, so batch materialization is allocation-free after
        // the first (full-size) batch.
        let mut bx = Tensor::zeros([1, 1]);
        let mut by = Tensor::zeros([1, 1]);
        for epoch in 0..config.epochs {
            let batches =
                data.batch_indices(config.batch_size, config.shuffle.then_some(&mut self.rng));
            let mut loss_sum = 0.0;
            let mut correct = 0usize;
            let steps = batches.len();
            for idx in &batches {
                data.batch_into(idx, &mut bx, &mut by);
                let (loss, c) = self.train_batch(&bx, &by, sync)?;
                loss_sum += loss;
                correct += c;
            }
            history.push(EpochStats {
                epoch,
                loss: loss_sum / steps.max(1) as f64,
                accuracy: config
                    .compute_accuracy
                    .then(|| correct as f64 / data.len() as f64),
                batch_steps: steps,
            });
        }
        Ok(history)
    }

    /// Computes `(mean loss, accuracy)` on a dataset without training.
    /// Runs on the immutable inference path, so it can be called on a
    /// shared model replica.
    pub fn evaluate(&self, data: &Dataset, batch_size: usize) -> Result<(f64, f64), DlError> {
        let loss_fn = self
            .loss
            .ok_or_else(|| DlError::NotReady("compile first".into()))?;
        if data.is_empty() {
            return Err(DlError::BadInput("empty evaluation dataset".into()));
        }
        check_batch_size(batch_size)?;
        let batches = data.batch_indices(batch_size, None);
        let mut bx = Tensor::zeros([1, 1]);
        let mut by = Tensor::zeros([1, 1]);
        with_scratch(|ws| {
            let mut loss_sum = 0.0;
            let mut correct = 0usize;
            for idx in &batches {
                data.batch_into(idx, &mut bx, &mut by);
                let pred = self.infer(&bx, ws)?;
                loss_sum += loss_fn.loss_ws(&pred, &by, ws) * idx.len() as f64;
                correct += count_argmax_matches(&pred, &by);
                ws.recycle(pred);
            }
            Ok((
                loss_sum / data.len() as f64,
                correct as f64 / data.len() as f64,
            ))
        })
    }
}

/// `Dataset::batch_indices` cannot cut batches of zero rows.
fn check_batch_size(batch_size: usize) -> Result<(), DlError> {
    if batch_size == 0 {
        return Err(DlError::BadInput("batch_size must be positive".into()));
    }
    Ok(())
}

/// Layer `i`'s input: the batch itself for the first layer, otherwise the
/// boundary tensor the layer below wrote.
fn input_of<'t>(x: &'t Tensor, chain: &'t [Tensor], i: usize) -> &'t Tensor {
    i.checked_sub(1).map_or(x, |below| &chain[below])
}

/// Counts rows where prediction and target argmax agree (classification
/// accuracy numerator). For single-column outputs this degenerates to
/// "always 0 matches count" — regression callers ignore it.
///
/// Row-at-a-time with the same first-max tie rule as
/// [`Tensor::argmax_rows`], without materializing the index vectors.
fn count_argmax_matches(pred: &Tensor, target: &Tensor) -> usize {
    if pred.shape().rank() != 2 {
        return 0;
    }
    let (_, cols) = pred.shape().as_2d();
    if cols == 0 {
        return 0;
    }
    pred.data()
        .chunks_exact(cols)
        .zip(target.data().chunks_exact(cols))
        .filter(|(p, t)| argmax_slice(p) == argmax_slice(t))
        .count()
}

/// Index of the first maximum of a non-empty row.
fn argmax_slice(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in row.iter().enumerate().skip(1) {
        if x > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Dense};

    /// Builds a small two-class spiral-ish dataset that a 2-layer MLP can
    /// separate.
    fn toy_classification(n: usize, seed: u64) -> Dataset {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(seed);
        let mut x = Tensor::zeros([n, 2]);
        let mut y = Tensor::zeros([n, 2]);
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { -1.0 } else { 1.0 };
            *x.at2_mut(i, 0) = base + (rng.next_f32() - 0.5) * 0.4;
            *x.at2_mut(i, 1) = base + (rng.next_f32() - 0.5) * 0.4;
            *y.at2_mut(i, class) = 1.0;
        }
        Dataset::new(x, y)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = xrng::seeded(seed);
        let mut m = Sequential::new(seed);
        m.add(Box::new(Dense::new(2, 8, Activation::Relu, &mut rng)));
        m.add(Box::new(Dense::new(8, 2, Activation::Linear, &mut rng)));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.1));
        m
    }

    #[test]
    fn fit_reduces_loss_and_reaches_high_accuracy() {
        let data = toy_classification(200, 1);
        let mut model = mlp(2);
        let config = FitConfig {
            epochs: 30,
            batch_size: 20,
            ..Default::default()
        };
        let history = model.fit(&data, &config, &mut NoSync).unwrap();
        let first = history.epochs().first().unwrap().loss;
        let last = history.final_loss().unwrap();
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(history.final_accuracy().unwrap() > 0.95);
        let (eval_loss, eval_acc) = model.evaluate(&data, 50).unwrap();
        assert!(eval_loss < 0.3);
        assert!(eval_acc > 0.95);
    }

    #[test]
    fn fit_without_compile_errors() {
        let data = toy_classification(10, 3);
        let mut rng = xrng::seeded(4);
        let mut m = Sequential::new(4);
        m.add(Box::new(Dense::new(2, 2, Activation::Linear, &mut rng)));
        let config = FitConfig::default();
        assert!(matches!(
            m.fit(&data, &config, &mut NoSync),
            Err(DlError::NotReady(_))
        ));
    }

    #[test]
    fn predict_without_layers_errors() {
        let m = Sequential::new(5);
        assert!(matches!(
            m.predict(&Tensor::zeros([1, 2])),
            Err(DlError::NotReady(_))
        ));
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut a = mlp(10);
        let b = mlp(11);
        assert_ne!(a.flat_params(), b.flat_params());
        let theirs = b.flat_params();
        a.set_flat_params(&theirs);
        assert_eq!(a.flat_params(), theirs);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_params_wrong_length_panics() {
        let mut m = mlp(12);
        m.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn gradient_sync_hook_is_invoked_with_full_layout() {
        struct Probe {
            calls: usize,
            len: usize,
        }
        impl GradientSync for Probe {
            fn sync_gradients(&mut self, flat: &mut [f32]) {
                self.calls += 1;
                self.len = flat.len();
                // Zeroing the gradient must freeze the parameters.
                for g in flat.iter_mut() {
                    *g = 0.0;
                }
            }
        }
        let data = toy_classification(40, 6);
        let mut model = mlp(7);
        let before = model.flat_params();
        let mut probe = Probe { calls: 0, len: 0 };
        let config = FitConfig {
            epochs: 1,
            batch_size: 10,
            shuffle: false,
            compute_accuracy: false,
        };
        model.fit(&data, &config, &mut probe).unwrap();
        assert_eq!(probe.calls, 4);
        assert_eq!(probe.len, model.param_count());
        assert_eq!(
            model.flat_params(),
            before,
            "zeroed grads must not move params"
        );
    }

    #[test]
    fn overlapped_sync_streams_descending_contiguous_regions() {
        struct StreamProbe {
            total: usize,
            cursor: usize,
            regions: Vec<(usize, usize)>,
            finishes: usize,
        }
        impl GradientSync for StreamProbe {
            fn sync_gradients(&mut self, _flat: &mut [f32]) {
                panic!("blocking hook must not fire in overlapped mode");
            }
            fn begin_step(&mut self, param_count: usize) -> bool {
                self.total = param_count;
                self.cursor = param_count;
                true
            }
            fn region_ready(&mut self, offset: usize, grad: &[f32]) {
                assert_eq!(
                    offset + grad.len(),
                    self.cursor,
                    "regions must arrive in descending contiguous order"
                );
                assert!(!grad.is_empty());
                self.cursor = offset;
                self.regions.push((offset, grad.len()));
            }
            fn finish_step(&mut self, flat: &mut [f32]) {
                assert_eq!(self.cursor, 0, "regions must cover the full layout");
                assert_eq!(flat.len(), self.total);
                self.finishes += 1;
                // Zeroing the synchronized gradient must freeze the
                // parameters, proving finish_step's output is what the
                // optimizer consumes.
                for g in flat.iter_mut() {
                    *g = 0.0;
                }
            }
        }
        let data = toy_classification(40, 8);
        let mut model = mlp(9);
        // Dropout contributes a zero-parameter layer mid-stack, so the
        // region stream must skip it without breaking contiguity.
        model.add(Box::new(crate::Dropout::new(0.1, xrng::seeded(10))));
        let before = model.flat_params();
        let mut probe = StreamProbe {
            total: 0,
            cursor: 0,
            regions: Vec::new(),
            finishes: 0,
        };
        let config = FitConfig {
            epochs: 1,
            batch_size: 10,
            shuffle: false,
            compute_accuracy: false,
        };
        model.fit(&data, &config, &mut probe).unwrap();
        assert_eq!(probe.finishes, 4);
        // Two Dense layers with parameters -> two regions per step.
        assert_eq!(probe.regions.len(), 8);
        let counts = model.layer_param_counts();
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[2], 0, "dropout has no parameters");
        assert_eq!(probe.regions[0], (counts[0], counts[1]));
        assert_eq!(probe.regions[1], (0, counts[0]));
        assert_eq!(model.flat_params(), before);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let data = toy_classification(60, 20);
            let mut model = mlp(21);
            let config = FitConfig {
                epochs: 3,
                batch_size: 12,
                ..Default::default()
            };
            model.fit(&data, &config, &mut NoSync).unwrap();
            model.flat_params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn history_counts_batch_steps() {
        let data = toy_classification(50, 30);
        let mut model = mlp(31);
        let config = FitConfig {
            epochs: 2,
            batch_size: 20,
            ..Default::default()
        };
        let h = model.fit(&data, &config, &mut NoSync).unwrap();
        // 50 samples / 20 batch = 3 steps (trailing partial kept).
        assert_eq!(h.epochs()[0].batch_steps, 3);
        assert_eq!(h.total_batch_steps(), 6);
    }

    #[test]
    fn predict_is_immutable_and_shareable() {
        use crate::Dropout;
        let data = toy_classification(60, 70);
        let mut model = mlp(71);
        // Insert dropout to prove the inference path ignores it without
        // touching its RNG stream.
        model.add(Box::new(Dropout::new(0.5, xrng::seeded(72))));
        let config = FitConfig {
            epochs: 2,
            batch_size: 20,
            ..Default::default()
        };
        model.fit(&data, &config, &mut NoSync).unwrap();
        let x = Tensor::from_fn([7, 2], |i| (i as f32) * 0.1 - 0.5);
        let via_shared = model.predict(&x).unwrap();
        // Repeated shared predictions are stable (no hidden state moves).
        assert_eq!(model.predict(&x).unwrap().data(), via_shared.data());
        // And the model is shareable across threads.
        let shared = std::sync::Arc::new(model);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&shared);
                let x = x.clone();
                std::thread::spawn(move || m.predict(&x).unwrap().into_vec())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), via_shared.data());
        }
    }

    #[test]
    fn empty_dataset_is_error() {
        let mut model = mlp(40);
        let empty = Dataset::new(Tensor::zeros([0, 2]), Tensor::zeros([0, 2]));
        assert!(model
            .fit(&empty, &FitConfig::default(), &mut NoSync)
            .is_err());
        assert!(model.evaluate(&empty, 4).is_err());
    }

    #[test]
    fn fit_rejects_zero_batch_size() {
        let data = toy_classification(10, 41);
        let mut model = mlp(42);
        let config = FitConfig {
            batch_size: 0,
            ..Default::default()
        };
        assert!(matches!(
            model.fit(&data, &config, &mut NoSync),
            Err(DlError::BadInput(_))
        ));
    }

    #[test]
    fn evaluate_rejects_zero_batch_size() {
        let data = toy_classification(10, 43);
        let model = mlp(44);
        assert!(matches!(
            model.evaluate(&data, 0),
            Err(DlError::BadInput(_))
        ));
    }
}
