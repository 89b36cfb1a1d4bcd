//! The bucketed gradient-sync engine — hiding gradient communication
//! under backward compute, without a communication thread.
//!
//! Averaging the whole flat gradient *after* backprop finishes makes
//! communication pure added wall-clock — the scalability killer Shi et al.
//! identify and the thing Horovod fixes with layer-by-layer fused
//! allreduce. [`AsyncBucketedOptimizer`] is that fix: it implements the
//! streaming [`dlframe::GradientSync`] protocol (`begin_step` /
//! `region_ready` / `finish_step`). As each layer's backward pass
//! completes, its gradient region is staged; every bucket the region
//! completes (geometry from a [`FusionPlan`] in readiness order) is
//! *posted* to the peers at once, and every bucket all peers have already
//! posted is *folded* — reduced straight out of their slots — on the way.
//! `finish_step` folds the rest: the one place a step waits for its peers
//! (posting waits only for a peer a lane's worth of buckets behind). The
//! rank's own thread does all of it: while every core belongs to some
//! rank's kernels, a comm thread has no core of its own and only adds a
//! wake-up to each bucket.
//!
//! [`crate::DistributedOptimizer`] is the same [`Engine`] with one bucket
//! (or a fusion plan's groups) posted and folded inside `sync_gradients`.
//!
//! **Bit-identity contract.** An allreduce's per-element summation order
//! depends on segment boundaries, so "same boundaries" is a precondition
//! for bit-identical weights. [`FusionPlan::for_model`] buckets tile the
//! flat layout top-down (readiness order); the blocking comparator must
//! use [`FusionPlan::reversed`] of the same plan. With the default 64 MB
//! threshold a small model gets one bucket, which matches the unfused
//! blocking path as well.
//!
//! **Failure semantics.** If a peer dies mid-epoch, the post or fold that
//! needed it returns a typed [`CommError`] — at once if the peer dropped
//! its endpoint, within the peer timeout if it is merely silent. The
//! engine then answers every later bucket with the same error instead of
//! touching the wire again (it drains, never hangs), and `finish_step`
//! panics with the typed message — mirroring the blocking optimizer's
//! behaviour. [`AsyncBucketedOptimizer::shutdown`] returns the quiesced
//! `Communicator`, so a survivor can [`Communicator::shrink`] and rebuild
//! an optimizer on the smaller world at an epoch boundary.

use crate::comm::{Communicator, LANE_SLOTS};
use crate::fusion::FusionPlan;
use crate::ring::{exchange_fits, exchange_fold, exchange_post, exchange_ready, ring_allreduce};
use crate::CommError;
use obs::Timeline;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregate counters of one overlapped training run (per rank).
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapStats {
    /// Total wall-clock the rank spent communicating: posting buckets,
    /// folding them, and waiting for peers.
    pub comm_busy: Duration,
    /// The part of it spent inside `finish_step`, after backward compute
    /// had nothing left to hide it under.
    pub exposed: Duration,
    /// Buckets dispatched.
    pub buckets: u64,
    /// Batch steps completed.
    pub steps: u64,
    /// Gradient elements communicated.
    pub elements: u64,
}

impl OverlapStats {
    /// Fraction of communication time left exposed (not hidden under
    /// backward compute), in `[0, 1]`. 0 when no communication happened.
    pub fn exposed_fraction(&self) -> f64 {
        let busy = self.comm_busy.as_secs_f64();
        if busy <= 0.0 {
            return 0.0;
        }
        (self.exposed.as_secs_f64() / busy).min(1.0)
    }
}

/// Where an engine records one span per reduced bucket.
struct SpanLane {
    timeline: Timeline,
    origin: Instant,
    /// Horovod's zero-length negotiation marker ahead of each span.
    negotiate: Option<Arc<str>>,
    /// Span name per bucket; the last one serves every later bucket.
    reduce: Vec<Arc<str>>,
    /// Buckets are reduced one after another; a span never starts before
    /// the previous one ended, whatever microsecond truncation says.
    last_end_us: u64,
}

/// A bucket that has been posted and not yet folded.
struct Open {
    idx: usize,
    lo: usize,
    hi: usize,
    tag: u64,
    posted_at: Instant,
}

/// Mean-allreduce of a sequence of buckets of one buffer, each posted as
/// soon as it is submitted and folded later, in order.
pub(crate) struct Engine {
    pub(crate) comm: Communicator,
    open: VecDeque<Open>,
    /// The first failure; every later call answers with it.
    failed: Option<CommError>,
    spans: Option<SpanLane>,
    comm_busy: Duration,
}

impl Engine {
    pub(crate) fn new(comm: Communicator) -> Self {
        Self {
            comm,
            open: VecDeque::with_capacity(LANE_SLOTS),
            failed: None,
            spans: None,
            comm_busy: Duration::ZERO,
        }
    }

    /// Records a span named `reduce[idx]` (the last name for any `idx`
    /// past the end) per bucket, preceded by a zero-length `negotiate`
    /// marker if one is given.
    pub(crate) fn record_spans(
        &mut self,
        timeline: Timeline,
        origin: Instant,
        negotiate: Option<&str>,
        reduce: Vec<Arc<str>>,
    ) {
        assert!(!reduce.is_empty(), "a span lane needs a name");
        self.spans = Some(SpanLane {
            timeline,
            origin,
            negotiate: negotiate.map(Arc::from),
            reduce,
            last_end_us: 0,
        });
    }

    /// Starts the mean-allreduce of bucket `idx`, `buf[lo..hi]`. A bucket
    /// small enough for one exchange is posted and left open — at most
    /// [`LANE_SLOTS`] of them, the oldest is folded first if need be; a
    /// larger one runs the ring to completion here, after everything
    /// posted before it.
    pub(crate) fn submit(
        &mut self,
        idx: usize,
        lo: usize,
        hi: usize,
        buf: &mut [f32],
    ) -> Result<(), CommError> {
        self.guarded(|e, posted_at| {
            if exchange_fits(e.comm.size(), hi - lo) {
                if e.open.len() == LANE_SLOTS {
                    e.fold_oldest(buf)?;
                }
                let tag = exchange_post(&mut e.comm, &buf[lo..hi])?;
                e.open.push_back(Open {
                    idx,
                    lo,
                    hi,
                    tag,
                    posted_at,
                });
            } else {
                e.fold_all(buf)?;
                ring_allreduce(&mut e.comm, &mut buf[lo..hi])?;
                e.comm.scale_to_mean(&mut buf[lo..hi]);
                e.record_span(idx, posted_at);
            }
            Ok(())
        })
    }

    /// Folds every open bucket that would not have to wait for a peer.
    pub(crate) fn fold_ready(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        self.guarded(|e, _| {
            while !e.open.is_empty() && exchange_ready(&e.comm) {
                e.fold_oldest(buf)?;
            }
            Ok(())
        })
    }

    /// Folds every open bucket, waiting for peers as needed.
    pub(crate) fn drain(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        self.guarded(|e, _| e.fold_all(buf))
    }

    /// Runs `work` on the clock (it is told when it started), unless an
    /// earlier call failed; remembers the first failure and forgets the
    /// buckets it strands.
    fn guarded(
        &mut self,
        work: impl FnOnce(&mut Self, Instant) -> Result<(), CommError>,
    ) -> Result<(), CommError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let start = Instant::now();
        let outcome = work(self, start);
        self.comm_busy += start.elapsed();
        if let Err(e) = &outcome {
            self.failed = Some(e.clone());
            self.open.clear();
        }
        outcome
    }

    fn fold_all(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        while !self.open.is_empty() {
            self.fold_oldest(buf)?;
        }
        Ok(())
    }

    fn fold_oldest(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        let Open {
            idx,
            lo,
            hi,
            tag,
            posted_at,
        } = self.open.pop_front().expect("caller checked");
        exchange_fold(&mut self.comm, tag, &mut buf[lo..hi])?;
        self.comm.scale_to_mean(&mut buf[lo..hi]);
        self.record_span(idx, posted_at);
        Ok(())
    }

    /// One span from the bucket's post (or the end of the previous
    /// bucket's span, whichever is later) to now.
    fn record_span(&mut self, idx: usize, posted_at: Instant) {
        let Some(lane) = &mut self.spans else { return };
        let rank = self.comm.rank();
        let since = |t: Instant| t.saturating_duration_since(lane.origin).as_micros() as u64;
        let start_us = since(posted_at).max(lane.last_end_us);
        let dur_us = since(Instant::now()).saturating_sub(start_us).max(1);
        lane.last_end_us = start_us + dur_us;
        if let Some(negotiate) = &lane.negotiate {
            lane.timeline
                .record(Arc::clone(negotiate), rank, start_us, 0);
        }
        let name = &lane.reduce[idx.min(lane.reduce.len() - 1)];
        lane.timeline
            .record(Arc::clone(name), rank, start_us, dur_us);
    }
}

/// `{prefix}{i}` for `i` in `from..to`, built once so that recording a
/// span shares the name instead of formatting it.
fn span_names(prefix: &str, from: usize, to: usize) -> impl Iterator<Item = Arc<str>> + '_ {
    (from..to).map(move |i| Arc::from(format!("{prefix}{i}")))
}

/// [`dlframe::GradientSync`] implementation that overlaps per-bucket
/// allreduce with backward compute. See the module docs for the protocol
/// and the bit-identity contract.
pub struct AsyncBucketedOptimizer {
    engine: Engine,
    /// Bucket element counts in readiness (reverse-layer) order.
    elems: Vec<usize>,
    /// Flat low offset of each bucket (buckets tile the layout top-down).
    lo: Vec<usize>,
    /// This step's gradient, region by region, then bucket by bucket its
    /// mean.
    stage: Vec<f32>,
    // Per-step fill state.
    cur: usize,
    cursor: usize,
    region_seq: usize,
    last_mark: Instant,
    /// Region sequence number whose `region_ready` completed each bucket
    /// (identical every step; the producing layer span of bucket `b` is
    /// `backward_layer_{producers[b]}`).
    producers: Vec<usize>,
    /// Timeline, its origin, and `backward_layer_{seq}` for every region
    /// sequence number seen so far.
    layer_spans: Option<(Timeline, Instant, Vec<Arc<str>>)>,
    exposed: Duration,
    buckets_sent: u64,
    steps: u64,
    elements: u64,
}

impl AsyncBucketedOptimizer {
    /// Wraps a communicator endpoint with bucket geometry from `plan`
    /// (readiness order, e.g. [`FusionPlan::for_model`]).
    pub fn new(comm: Communicator, plan: &FusionPlan) -> Self {
        let elems: Vec<usize> = plan.group_elements().to_vec();
        let total: usize = elems.iter().sum();
        let mut lo = Vec::with_capacity(elems.len());
        let mut hi = total;
        for &n in &elems {
            lo.push(hi - n);
            hi -= n;
        }
        Self {
            engine: Engine::new(comm),
            producers: vec![0; elems.len()],
            elems,
            lo,
            stage: vec![0.0; total],
            cur: 0,
            cursor: 0,
            region_seq: 0,
            last_mark: Instant::now(),
            layer_spans: None,
            exposed: Duration::ZERO,
            buckets_sent: 0,
            steps: 0,
            elements: 0,
        }
    }

    /// Enables timeline recording; `origin` anchors timestamps so all
    /// ranks share a time base. Each streamed region gets a
    /// `backward_layer_{seq}` span; each bucket a `bucket_allreduce_{idx}`
    /// span from its post to the end of its fold (buckets fold in order,
    /// so the spans of one rank never overlap).
    pub fn with_timeline(mut self, timeline: Timeline, origin: Instant) -> Self {
        let buckets = span_names("bucket_allreduce_", 0, self.elems.len().max(1)).collect();
        self.engine
            .record_spans(timeline.clone(), origin, None, buckets);
        self.layer_spans = Some((timeline, origin, Vec::new()));
        self
    }

    /// This rank's id in the world the optimizer was built over.
    pub fn rank(&self) -> usize {
        self.engine.comm.rank()
    }

    /// World size the optimizer was built over.
    pub fn size(&self) -> usize {
        self.engine.comm.size()
    }

    /// Number of buckets per step.
    pub fn bucket_count(&self) -> usize {
        self.elems.len()
    }

    /// Flat `(lo, hi)` element range of each bucket, in readiness order.
    pub fn bucket_ranges(&self) -> Vec<(usize, usize)> {
        self.lo
            .iter()
            .zip(&self.elems)
            .map(|(&lo, &n)| (lo, lo + n))
            .collect()
    }

    /// For each bucket, the region sequence number whose arrival completed
    /// (and dispatched) it — meaningful after at least one step.
    pub fn bucket_producers(&self) -> &[usize] {
        &self.producers
    }

    /// Returns the communicator plus the run's [`OverlapStats`]. Must not
    /// be called with a step open.
    pub fn shutdown(self) -> (Communicator, OverlapStats) {
        let stats = OverlapStats {
            comm_busy: self.engine.comm_busy,
            exposed: self.exposed,
            buckets: self.buckets_sent,
            steps: self.steps,
            elements: self.elements,
        };
        (self.engine.comm, stats)
    }

    fn open_step(&mut self, param_count: usize) {
        assert_eq!(
            param_count,
            self.stage.len(),
            "fusion plan covers {} elements but the model has {param_count}",
            self.stage.len()
        );
        assert!(self.engine.open.is_empty(), "previous step not finished");
        self.cursor = param_count;
        self.cur = 0;
        self.region_seq = 0;
        self.last_mark = Instant::now();
        self.steps += 1;
    }

    /// Submits every bucket that lies wholly at or above flat offset
    /// `filled_from` and has not been submitted yet. A failure is kept by
    /// the engine and surfaces in `finish_step`.
    fn submit_complete(&mut self, filled_from: usize, buf: &mut [f32]) {
        while self.cur < self.elems.len() && self.lo[self.cur] >= filled_from {
            let (b, lo, n) = (self.cur, self.lo[self.cur], self.elems[self.cur]);
            self.producers[b] = self.region_seq;
            self.buckets_sent += 1;
            self.elements += n as u64;
            let _ = self.engine.submit(b, lo, lo + n, buf);
            self.cur += 1;
        }
    }

    /// Folds what is left and fails the step loudly if any bucket did.
    fn close_step(&mut self, buf: &mut [f32]) {
        let wait_start = Instant::now();
        let outcome = self.engine.drain(buf);
        self.exposed += wait_start.elapsed();
        if let Err(e) = outcome {
            panic!("allreduce failed: {e} (a worker died mid-collective)");
        }
    }
}

impl dlframe::GradientSync for AsyncBucketedOptimizer {
    /// Blocking fallback: every bucket of `flat` is posted, then folded,
    /// in place.
    fn sync_gradients(&mut self, flat: &mut [f32]) {
        self.open_step(flat.len());
        self.submit_complete(0, flat);
        self.close_step(flat);
    }

    fn begin_step(&mut self, param_count: usize) -> bool {
        self.open_step(param_count);
        true
    }

    fn region_ready(&mut self, offset: usize, grad: &[f32]) {
        assert_eq!(
            offset + grad.len(),
            self.cursor,
            "regions must stream in descending contiguous flat order"
        );
        if let Some((tl, origin, names)) = &mut self.layer_spans {
            if names.len() <= self.region_seq {
                let known = names.len();
                names.extend(span_names("backward_layer_", known, self.region_seq + 1));
            }
            let now = Instant::now();
            let start_us = self.last_mark.duration_since(*origin).as_micros() as u64;
            let dur_us = now.duration_since(self.last_mark).as_micros() as u64;
            tl.record(
                Arc::clone(&names[self.region_seq]),
                self.engine.comm.rank(),
                start_us,
                dur_us.max(1),
            );
            self.last_mark = now;
        }
        // Buckets tile the layout top-down and regions arrive top-down, so
        // a bucket is complete once the regions reach down to its low end;
        // one region may complete several.
        let mut stage = std::mem::take(&mut self.stage);
        stage[offset..self.cursor].copy_from_slice(grad);
        self.submit_complete(offset, &mut stage);
        let _ = self.engine.fold_ready(&mut stage);
        self.stage = stage;
        self.cursor = offset;
        self.region_seq += 1;
    }

    fn finish_step(&mut self, flat: &mut [f32]) {
        assert_eq!(self.cursor, 0, "streamed regions must cover the layout");
        assert_eq!(
            self.cur,
            self.elems.len(),
            "every bucket must have been dispatched before the barrier"
        );
        let mut stage = std::mem::take(&mut self.stage);
        self.close_step(&mut stage);
        flat.copy_from_slice(&stage);
        self.stage = stage;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_workers_owned;
    use crate::DistributedOptimizer;
    use dlframe::GradientSync;

    /// Regions that span bucket boundaries reduce to exactly the same
    /// values as the blocking optimizer over the reversed plan.
    #[test]
    fn async_buckets_match_blocking_with_same_boundaries() {
        let results = run_workers_owned(3, |comm| {
            let rank = comm.rank() as f32;
            // 16-byte threshold = 4 floats: buckets [4], [2], [6] over a
            // 12-element layout (readiness order, top-down tiling).
            let plan = FusionPlan::plan(&[4, 2, 6], 16);
            let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
            assert_eq!(opt.bucket_ranges(), vec![(8, 12), (6, 8), (0, 6)]);
            let mut flat: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 + rank).collect();
            // "Layers" of sizes 5 and 7: regions misaligned with buckets.
            assert!(opt.begin_step(12));
            let tail = flat[7..12].to_vec();
            opt.region_ready(7, &tail);
            let head = flat[0..7].to_vec();
            opt.region_ready(0, &head);
            opt.finish_step(&mut flat);
            let (comm, stats) = opt.shutdown();
            assert_eq!(stats.buckets, 3);
            assert_eq!(stats.steps, 1);
            assert_eq!(stats.elements, 12);
            assert_eq!(comm.stats().allreduce_calls, 3);
            flat
        });
        let blocking = run_workers_owned(3, |comm| {
            let plan = FusionPlan::plan(&[4, 2, 6], 16).reversed();
            let mut opt = DistributedOptimizer::new(comm).with_fusion_plan(plan);
            let rank = opt.comm().rank() as f32;
            let mut flat: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 + rank).collect();
            opt.sync_gradients(&mut flat);
            flat
        });
        for (a, b) in results.iter().zip(&blocking) {
            let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    /// Multiple steps recycle staging buffers and keep averaging.
    #[test]
    fn repeated_steps_recycle_and_average() {
        let results = run_workers_owned(2, |comm| {
            let plan = FusionPlan::plan(&[3, 3], 12);
            let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
            let rank = opt.rank() as f32;
            let mut last = Vec::new();
            for step in 0..4 {
                let mut flat: Vec<f32> = (0..6).map(|i| rank + step as f32 + i as f32).collect();
                opt.begin_step(6);
                let hi = flat[3..6].to_vec();
                opt.region_ready(3, &hi);
                let lo = flat[0..3].to_vec();
                opt.region_ready(0, &lo);
                opt.finish_step(&mut flat);
                last = flat;
            }
            let (_, stats) = opt.shutdown();
            assert_eq!(stats.steps, 4);
            assert_eq!(stats.buckets, 8);
            last
        });
        // Mean of ranks {0,1} adds 0.5 to every element.
        for r in &results {
            for (i, &x) in r.iter().enumerate() {
                assert!((x - (0.5 + 3.0 + i as f32)).abs() < 1e-6);
            }
        }
    }

    /// The timeline carries both backward-layer and per-bucket spans, and
    /// the comm lane's bucket spans never overlap.
    #[test]
    fn timeline_records_overlap_spans() {
        let tl = Timeline::new();
        let origin = Instant::now();
        let tl2 = tl.clone();
        run_workers_owned(2, move |comm| {
            let plan = FusionPlan::plan(&[2, 2], 8);
            let mut opt =
                AsyncBucketedOptimizer::new(comm, &plan).with_timeline(tl2.clone(), origin);
            let mut flat = vec![1.0f32; 4];
            opt.begin_step(4);
            let hi = flat[2..4].to_vec();
            opt.region_ready(2, &hi);
            let lo = flat[0..2].to_vec();
            opt.region_ready(0, &lo);
            opt.finish_step(&mut flat);
        });
        for rank in 0..2 {
            let layers = tl.spans_with_prefix("backward_layer_", rank);
            assert_eq!(layers.len(), 2);
            let buckets = tl.spans_with_prefix("bucket_allreduce_", rank);
            assert_eq!(buckets.len(), 2);
            for w in buckets.windows(2) {
                assert!(w[0].start_us + w[0].dur_us <= w[1].start_us);
            }
        }
    }

    /// More buckets than a lane has slots, one of them large enough to
    /// take the ring: posting folds the oldest bucket to make room, the
    /// ring bucket runs after everything posted before it, and the values
    /// are the blocking optimizer's over the same boundaries.
    #[test]
    fn more_buckets_than_slots_and_a_ring_bucket_match_blocking() {
        let mut sizes = vec![40usize; 2 * LANE_SLOTS + 3];
        sizes[5] = 70_000; // 273 KiB: beyond one exchange at any world size
        let total: usize = sizes.iter().sum();
        let input = |rank: usize| -> Vec<f32> {
            (0..total)
                .map(|i| ((i * 7 + rank * 13) % 101) as f32 * 0.37 - 9.0)
                .collect()
        };
        let streamed = run_workers_owned(3, |comm| {
            let plan = FusionPlan::plan(&sizes, 160);
            let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
            assert_eq!(opt.bucket_count(), sizes.len());
            let grad = input(opt.rank());
            let mut out = vec![0.0; total];
            opt.begin_step(total);
            opt.region_ready(total / 3, &grad[total / 3..]);
            opt.region_ready(0, &grad[..total / 3]);
            opt.finish_step(&mut out);
            let (comm, stats) = opt.shutdown();
            assert_eq!(stats.buckets, sizes.len() as u64);
            assert_eq!(comm.stats().allreduce_calls, sizes.len() as u64);
            out
        });
        let blocking = run_workers_owned(3, |comm| {
            let plan = FusionPlan::plan(&sizes, 160).reversed();
            let mut opt = DistributedOptimizer::new(comm).with_fusion_plan(plan);
            let mut flat = input(opt.comm().rank());
            opt.sync_gradients(&mut flat);
            flat
        });
        for (a, b) in streamed.iter().zip(&blocking) {
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    /// `sync_gradients` (the blocking fallback) still averages.
    #[test]
    fn blocking_fallback_averages() {
        let results = run_workers_owned(4, |comm| {
            let plan = FusionPlan::plan(&[6], 1024);
            let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
            let mut grad = vec![opt.rank() as f32; 6];
            opt.sync_gradients(&mut grad);
            grad
        });
        for r in results {
            for x in r {
                assert!((x - 1.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fusion plan covers")]
    fn mismatched_plan_panics() {
        let comm = Communicator::world(1).pop().unwrap();
        let plan = FusionPlan::plan(&[4], 1024);
        let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
        opt.begin_step(5);
    }
}
