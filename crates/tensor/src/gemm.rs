//! Blocked GEMM engine: the single kernel behind every matrix product.
//!
//! The three ad-hoc kernels that used to live in `matmul.rs` (`A·B`,
//! `Aᵀ·B`, `A·Bᵀ`) are expressed here as *packing modes* of one engine:
//!
//! * macro-loops tile the output into `KC`-deep, `NC`-wide blocks whose
//!   packed B slab stays L2-resident;
//! * each block is driven row-panel by row-panel through a register-blocked
//!   micro-kernel over one [`Panel`] of A and the block's [`Strips`] of B;
//! * transposition is handled outside the micro-kernel — B by its pack
//!   routine, A by the panel it is handed — so the only hot loop is
//!   branch-free and the same arithmetic for all three modes.
//!
//! The A operand takes a row stride, so a matrix whose rows overlap or
//! are spaced in memory — a convolution's receptive fields, which the
//! `(batch, steps, channels)` input already holds back to back — is never
//! copied out. A non-transposed A (`Ab`, `ABt`: every forward product and
//! input gradient) is not packed either: the micro-kernel broadcasts each
//! value from where it lies, because packing it was a scalar transpose
//! that cost as much as the multiply-adds it fed when `n` is one or two
//! strips wide.
//!
//! B is packed only when a packed strip is read more than once, i.e. when
//! the worker owns more than one row panel. A worker with a single panel
//! (a served batch of one to eight rows) reads a non-transposed B where it
//! lies: packing it would copy every value to read it once, and for the
//! NT3 dense head at batch 1 that copy cost more than the multiply-adds.
//! A short panel has few rows to spread the reduction over, so the AVX2
//! kernel covers several strips per tile there to keep enough
//! independent accumulators in flight.
//!
//! # Determinism
//!
//! Every output element keeps exactly one accumulator. `KC` blocks advance
//! sequentially and the micro-kernel walks the reduction index upward, so
//! each `C[i][j]` is the strictly left-to-right sum over `l` — the same
//! order for every thread count and every batch composition. A call forks
//! at most once, into workers that own whole row panels (disjoint `&mut`
//! output rows) and walk every block of them with their own packing
//! scratch, so results are bit-identical across thread counts, which
//! `tests/serving.rs` and `tests/resilience.rs` rely on.
//!
//! # Epilogue
//!
//! `C = act(A·B + bias)` is fused: after the final `KC` block each tile
//! gets bias and activation applied in place, saving two full passes over
//! the output in `Dense::compute`.

use crate::{Shape, Tensor, TensorError};
use parx::kernel_threads;
use std::cell::RefCell;
use std::ops::Range;

/// Micro-kernel rows (register-blocked output rows per panel).
pub const MR: usize = 8;
/// Micro-kernel columns (one AVX2 vector of f32).
pub const NR: usize = 8;
/// Reduction-dimension block: the packed A panel is `MR×KC` (8 KiB, L1).
const KC: usize = 256;
/// Column block: the packed B slab is at most `KC×NC` (512 KiB, L2).
const NC: usize = 512;
/// Don't spawn a thread for less than ~2 MFLOP of work.
const MIN_FLOPS_PER_THREAD: usize = 2_000_000;
/// Recycled-buffer pool cap; beyond this, retired buffers are dropped.
const MAX_POOL: usize = 32;

/// How the raw operand slices are laid out relative to the product
/// `C(m×n) = op(A)(m×k) · op(B)(k×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmMode {
    /// `A` stored `(m×k)`, `B` stored `(k×n)` — forward activations.
    Ab,
    /// `A` stored `(k×m)` (transposed access), `B` stored `(k×n)` —
    /// weight gradients `xᵀ·δ`.
    AtB,
    /// `A` stored `(m×k)`, `B` stored `(n×k)` (transposed access) —
    /// input gradients `δ·Wᵀ`.
    ABt,
}

impl GemmMode {
    #[inline]
    fn trans_a(self) -> bool {
        matches!(self, GemmMode::AtB)
    }

    #[inline]
    fn trans_b(self) -> bool {
        matches!(self, GemmMode::ABt)
    }

    /// Derives `(m, k, n)` from rank-2 operand shapes, or `None` on a
    /// reduction-dimension mismatch.
    pub fn dims(self, a: &Shape, b: &Shape) -> Option<(usize, usize, usize)> {
        let (a0, a1) = a.as_2d();
        let (b0, b1) = b.as_2d();
        let (m, ka) = if self.trans_a() { (a1, a0) } else { (a0, a1) };
        let (kb, n) = if self.trans_b() { (b1, b0) } else { (b0, b1) };
        (ka == kb).then_some((m, ka, n))
    }
}

/// Activation functions the epilogue can fuse into the output pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusedAct {
    /// Identity.
    #[default]
    Linear,
    /// `max(x, 0)`.
    Relu,
    /// Numerically stable logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl FusedAct {
    /// Applies the activation to one value. `dlframe` delegates here so
    /// fused and unfused paths are bit-identical.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            FusedAct::Linear => x,
            FusedAct::Relu => x.max(0.0),
            FusedAct::Sigmoid => sigmoid(x),
            FusedAct::Tanh => x.tanh(),
        }
    }
}

/// Stable logistic sigmoid: never exponentiates a large positive value.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Fused output transform `C = act(C + bias)`, applied tile by tile after
/// the final reduction block.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-column bias added before the activation.
    pub bias: Option<&'a [f32]>,
    /// Activation applied last.
    pub act: FusedAct,
}

impl Epilogue<'_> {
    /// No bias, no activation: a plain matrix product.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        act: FusedAct::Linear,
    };
}

/// Reusable scratch memory for the kernels and the training hot path.
///
/// Holds the kernels' per-worker scratch (each worker's packed GEMM
/// panels, plus the row tile a convolution's input gradient is scattered
/// from) and a pool of retired `Tensor` buffers that the two allocation
/// forms hand back out — so a warmed-up training step performs no heap
/// allocation:
///
/// * [`Workspace::alloc_as_is`] for a tensor whose every element the
///   caller is about to overwrite (a GEMM or pooling output, a gradient
///   written by one select pass, a copy): the pooled buffer is handed over
///   with whatever it last held, so no pass is spent filling it;
/// * [`Workspace::alloc_zeroed`] for a tensor the caller accumulates into
///   (the convolution input gradient is the one such user).
#[derive(Debug, Default)]
pub struct Workspace {
    scratch: Vec<f32>,
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a tensor of `shape` whose contents are unspecified: the
    /// caller must write every element before reading any. Reuses a pooled
    /// buffer when one with enough capacity exists and leaves what it held
    /// in place — sound, because the pool only ever holds initialised
    /// `f32`s (a retired tensor's values; any tail past them is filled
    /// here), so "unspecified" means stale, never uninitialised. Debug
    /// builds fill the tensor with NaN instead, so a kernel that skips an
    /// element fails the tests that read it.
    pub fn alloc_as_is(&mut self, shape: impl Into<Shape>) -> Tensor {
        self.alloc_with(shape.into(), |buf, len| {
            // Shortens, or extends with zeros past the old length: in
            // steady state the buffer already has this length and nothing
            // is written.
            buf.resize(len, 0.0);
            if cfg!(debug_assertions) {
                buf.fill(f32::NAN);
            }
        })
    }

    /// Returns a zero-filled tensor of `shape`, for callers that add into
    /// it; pooled like [`Workspace::alloc_as_is`].
    pub fn alloc_zeroed(&mut self, shape: impl Into<Shape>) -> Tensor {
        self.alloc_with(shape.into(), |buf, len| {
            buf.clear();
            buf.resize(len, 0.0);
        })
    }

    /// Returns a copy of `src` backed by a pooled buffer (the as-is form,
    /// overwritten by the copy).
    pub fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        self.alloc_with(src.shape().clone(), |buf, _| {
            buf.clear();
            buf.extend_from_slice(src.data());
        })
    }

    /// A pooled buffer, brought to `shape`'s volume by `fill`, as a tensor.
    fn alloc_with(&mut self, shape: Shape, fill: impl FnOnce(&mut Vec<f32>, usize)) -> Tensor {
        let len = shape.volume();
        let mut buf = self.grab(len);
        fill(&mut buf, len);
        Tensor::from_vec(shape, buf).expect("buffer length matches shape volume")
    }

    /// Retires a tensor's buffer into the pool for later `alloc` calls.
    pub fn recycle(&mut self, t: Tensor) {
        let v = t.into_vec();
        if v.capacity() > 0 && self.pool.len() < MAX_POOL {
            self.pool.push(v);
        }
    }

    /// The first `len` values of the kernel scratch, grown if needed and
    /// never shrunk. Contents are whatever the last kernel left there.
    pub(crate) fn scratch(&mut self, len: usize) -> &mut [f32] {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0.0);
        }
        &mut self.scratch[..len]
    }

    fn grab(&mut self, len: usize) -> Vec<f32> {
        // Best fit: the smallest pooled buffer that holds `len`, breaking
        // ties toward the most recently recycled (cache-warm) one. Training
        // replays the same multiset of sizes every batch, so after one warm
        // batch each request finds an exact-size buffer and nothing is ever
        // grown again — last-fit would let a large buffer serve a small
        // request and force a reallocation later in the same batch.
        let mut best: Option<usize> = None;
        let mut best_cap = usize::MAX;
        for (i, v) in self.pool.iter().enumerate() {
            let cap = v.capacity();
            if cap >= len && cap <= best_cap {
                best = Some(i);
                best_cap = cap;
            }
        }
        match best {
            Some(i) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's scratch [`Workspace`].
///
/// For callers that have no workspace of their own to thread through:
/// `&self` inference (`Sequential::predict` / `evaluate`) and the
/// allocating conveniences `matmul`, `conv1d_forward` and
/// `conv1d_backward`. Re-entrant calls fall back to a fresh workspace
/// instead of panicking.
pub fn with_scratch<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

/// How many ways a kernel call worth `flops` forks over `items`
/// independent pieces of output: at most `threads` (0 = this thread's
/// [`kernel_threads`]), never a thread for less than
/// [`MIN_FLOPS_PER_THREAD`], never more workers than pieces.
pub(crate) fn fork_width(threads: usize, flops: usize, items: usize) -> usize {
    let threads = if threads == 0 {
        kernel_threads()
    } else {
        threads
    };
    threads
        .min((flops / MIN_FLOPS_PER_THREAD).max(1))
        .min(items.max(1))
}

/// `2·m·k·n`, saturating.
pub(crate) fn gemm_flops(m: usize, k: usize, n: usize) -> usize {
    2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n)
}

/// The one fork of a kernel call: splits `0..items` into `workers`
/// contiguous ranges and runs `body(range, out_part, scratch_part)` once
/// per range, the first on the calling thread. Item `i` owns
/// `out[i * out_per_item..][..out_per_item]` (the last item may own
/// less), so every worker gets a disjoint `&mut` share of the output and
/// its own `scratch_per_worker` values of `scratch` — no pointer is
/// shared. One worker runs inline without touching the heap.
pub(crate) fn fork_disjoint(
    items: usize,
    workers: usize,
    out: &mut [f32],
    out_per_item: usize,
    scratch: &mut [f32],
    scratch_per_worker: usize,
    body: impl Fn(Range<usize>, &mut [f32], &mut [f32]) + Sync,
) {
    if items == 0 {
        return;
    }
    if workers <= 1 {
        body(0..items, out, &mut scratch[..scratch_per_worker]);
        return;
    }
    let mut rest = out;
    let shares: Vec<_> = parx::chunk_ranges(items, workers)
        .into_iter()
        .zip(scratch.chunks_exact_mut(scratch_per_worker))
        .map(|(chunk, scratch)| {
            let take = (chunk.len() * out_per_item).min(rest.len());
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            (chunk.start..chunk.end, mine, scratch)
        })
        .collect();
    parx::parallel_each(shares, |_, (range, out, scratch)| body(range, out, scratch));
}

/// Scratch values one worker of a product with `n` output columns needs:
/// the packed A panel plus one packed B block.
pub(crate) fn scratch_len(n: usize) -> usize {
    MR * KC + n.min(NC).div_ceil(NR) * KC * NR
}

/// One product `C(m×n) = epilogue(op(A)·op(B))`, as every worker sees it.
#[derive(Clone, Copy)]
pub(crate) struct Product<'a> {
    pub mode: GemmMode,
    /// Stored A: `(m×k)`, or `(k×m)` for [`GemmMode::AtB`], row `r`
    /// starting at `a[r * lda]`.
    pub a: &'a [f32],
    pub lda: usize,
    /// Stored B, dense: `(k×n)`, or `(n×k)` for [`GemmMode::ABt`].
    pub b: &'a [f32],
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub epilogue: Epilogue<'a>,
}

impl Product<'_> {
    /// Panics unless the operands hold exactly what `(m, k, n)` and `lda`
    /// describe — the check every in-bounds argument below rests on.
    fn validate(&self) {
        let (rows, cols) = if self.mode.trans_a() {
            (self.k, self.m)
        } else {
            (self.m, self.k)
        };
        let a_len = if rows == 0 {
            0
        } else {
            (rows - 1) * self.lda + cols
        };
        assert_eq!(self.a.len(), a_len, "gemm: A length != (rows-1)*lda+cols");
        assert_eq!(self.b.len(), self.k * self.n, "gemm: B length != k*n");
        if let Some(bias) = self.epilogue.bias {
            assert_eq!(bias.len(), self.n, "gemm: bias length != n");
        }
    }

    /// Computes output rows `i_start..i_start + c_rows.len() / n` on the
    /// calling thread, walking every `NC`/`KC` block of those rows: B
    /// blocks that are packed go into this worker's own `scratch`
    /// ([`scratch_len`] values), so workers share nothing but the
    /// read-only operands.
    ///
    /// With `accumulate`, `c_rows` already holds a partial sum over
    /// earlier reduction indices and this call extends each element's
    /// chain in place — the same bits as one call over the concatenated
    /// reduction range.
    pub(crate) fn run_rows(
        &self,
        i_start: usize,
        c_rows: &mut [f32],
        accumulate: bool,
        scratch: &mut [f32],
    ) {
        // Safe indexing below catches a wrong operand length anyway; debug
        // builds say which invariant broke.
        if cfg!(debug_assertions) {
            self.validate();
        }
        let (m, k, n) = (self.m, self.k, self.n);
        if n == 0 || c_rows.is_empty() {
            return;
        }
        let i_end = i_start + c_rows.len() / n;
        assert!(
            c_rows.len().is_multiple_of(n) && i_end <= m,
            "gemm: output rows outside m×n"
        );
        let (apack, bpack) = scratch
            .split_first_chunk_mut::<{ MR * KC }>()
            .expect("gemm: scratch shorter than scratch_len(n)");
        assert!(
            bpack.len() >= n.min(NC).div_ceil(NR) * KC * NR,
            "gemm: scratch shorter than scratch_len(n)"
        );
        if k == 0 {
            // Empty reduction: C is the epilogue of zero (or stays as is).
            if !accumulate {
                for row in c_rows.chunks_exact_mut(n) {
                    for (j, v) in row.iter_mut().enumerate() {
                        let z = self.epilogue.bias.map_or(0.0, |bias| bias[j]);
                        *v = self.epilogue.act.apply(z);
                    }
                }
            }
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by runtime detection. The AVX2 instantiation
            // executes the same scalar operations in the same order (no
            // FMA contraction, one accumulator per element), so its
            // results are bit-identical to the generic path.
            unsafe { self.blocks_avx2(i_start, c_rows, accumulate, apack, bpack) };
            return;
        }
        self.blocks(i_start, c_rows, accumulate, apack, bpack, false);
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn blocks_avx2(
        &self,
        i_start: usize,
        c_rows: &mut [f32],
        accumulate: bool,
        apack: &mut [f32; MR * KC],
        bpack: &mut [f32],
    ) {
        self.blocks(i_start, c_rows, accumulate, apack, bpack, true);
    }

    /// The macro loops over whole rows `i_start..` of the output:
    /// `NC`-wide column blocks, `KC`-deep reduction blocks (B packed once
    /// per block, or read in place), then this worker's row panels.
    ///
    /// `avx2` selects the intrinsics micro-kernel; the caller must have
    /// verified CPU support. Both kernels perform the identical multiply
    /// and add per element in the identical order, so the choice never
    /// changes a single output bit.
    #[inline(always)]
    fn blocks(
        &self,
        i_start: usize,
        c_rows: &mut [f32],
        accumulate: bool,
        apack: &mut [f32; MR * KC],
        bpack: &mut [f32],
        avx2: bool,
    ) {
        let (k, n) = (self.k, self.n);
        let i_end = i_start + c_rows.len() / n;
        // A packed strip pays for its copy only when more than one row
        // panel reads it. With one panel, a B stored `(k×n)` is read where
        // it lies; `ABt` needs its transposing pack either way.
        let in_place = !self.mode.trans_b() && i_end - i_start <= MR;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            let full = nc / NR;
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                // Read in place, only a ragged last strip is packed: its
                // last step's `NR` values would run past the end of B.
                let packed = if in_place { full } else { 0 }..nc.div_ceil(NR);
                pack_b(self.mode, self.b, k, n, pc, kc, jc, nc, packed, bpack);
                let b = if in_place {
                    Strips {
                        b: &self.b[pc * n + jc..],
                        ld: n,
                        stride: NR,
                        kc,
                    }
                } else {
                    Strips {
                        b: bpack,
                        ld: NR,
                        stride: KC * NR,
                        kc,
                    }
                };
                let block = Block {
                    kc,
                    jc,
                    nc,
                    first: pc == 0 && !accumulate,
                    last: pc + kc == k,
                };
                for i0 in (i_start..i_end).step_by(MR) {
                    let mr = MR.min(i_end - i0);
                    let a = if self.mode.trans_a() {
                        pack_at(self.a, self.lda, i0, mr, pc, kc, apack);
                        Panel::Packed(apack)
                    } else {
                        Panel::Rows(RowPanel::new(self.a, self.lda, i0, mr, pc, kc))
                    };
                    let panel = &mut c_rows[(i0 - i_start) * n..];
                    row_panel(self, block, mr, a, b, bpack, panel, avx2);
                }
            }
        }
    }
}

/// Where the micro-kernel finds the `mr × kc` values of `op(A)` it
/// broadcasts for one row panel and one reduction block.
#[derive(Clone, Copy)]
enum Panel<'a> {
    /// A stored `(m×k)`, read where it lies.
    Rows(RowPanel<'a>),
    /// A stored `(k×m)`, copied by [`pack_at`]: reduction step `l` is
    /// `apack[l * MR..][..MR]`.
    Packed(&'a [f32; MR * KC]),
}

/// One row panel of a non-transposed A for one reduction block: `kc`
/// values of each of its `MR` rows, where they lie.
///
/// Invariant (the AVX2 kernel's unchecked loads rest on it): every row is
/// exactly `kc` values long. [`RowPanel::new`] is the only constructor.
#[derive(Clone, Copy)]
struct RowPanel<'a> {
    rows: [&'a [f32]; MR],
    kc: usize,
}

impl<'a> RowPanel<'a> {
    /// Rows `i0..i0 + mr` of `a` (row `r` at `a[r * lda]`), reduction
    /// slice `pc..pc + kc`, bounds-checked here once per panel. Rows past
    /// `mr` repeat the last live one: the portable kernel computes on
    /// them and never stores the result.
    #[inline(always)]
    fn new(a: &'a [f32], lda: usize, i0: usize, mr: usize, pc: usize, kc: usize) -> Self {
        let rows = std::array::from_fn(|r| &a[(i0 + r.min(mr - 1)) * lda + pc..][..kc]);
        Self { rows, kc }
    }
}

/// Where the micro-kernels find the full `NR`-wide strips of `op(B)` for
/// one reduction block: the B-side counterpart of [`Panel`]. Step `l` of
/// strip `s` (output columns `jc + s * NR..`) is `b[s * stride + l * ld..]
/// [..NR]`: strips copied by [`pack_b`] (`stride = KC * NR`, `ld = NR`), or
/// a B stored `(k×n)` read where it lies (`stride = NR`, `ld = n`).
#[derive(Clone, Copy)]
struct Strips<'a> {
    b: &'a [f32],
    ld: usize,
    stride: usize,
    kc: usize,
}

impl<'a> Strips<'a> {
    /// Strips `s..s + count`, bounds-checked here: exactly
    /// `(count - 1) * stride + (kc - 1) * ld + NR` values from the first
    /// one, so step `l < kc` of strip `t < count` lies inside at
    /// `t * stride + l * ld` — the AVX2 kernel's unchecked loads rest on
    /// this length.
    #[inline(always)]
    fn group(self, s: usize, count: usize) -> &'a [f32] {
        &self.b[s * self.stride..][..(count - 1) * self.stride + (self.kc - 1) * self.ld + NR]
    }
}

/// One `(KC × NC)` block of the macro loops.
#[derive(Clone, Copy)]
struct Block {
    kc: usize,
    jc: usize,
    nc: usize,
    /// No partial sum to extend: accumulators start from zero and `C` may
    /// hold garbage from a recycled buffer.
    first: bool,
    /// The reduction ends in this block: apply the epilogue.
    last: bool,
}

/// `C = epilogue(op(A)·op(B))` over raw row-major slices. Row `r` of the
/// stored A starts at `a[r * lda]`: `lda` is the row length for a dense
/// operand, and any other stride reads overlapping or spaced rows in place
/// — the way a convolution reads its receptive fields. B and C are dense.
///
/// `threads == 0` means "use the default kernel thread count". The call
/// forks at most once — each worker walks every reduction block of its
/// own row panels — and the result is bit-identical for every `threads`
/// value (see module docs).
///
/// # Panics
/// Panics if a slice length disagrees with `(m, k, n)` and `lda` (A must
/// end with its last row) or a bias is not `n` long.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice(
    mode: GemmMode,
    a: &[f32],
    lda: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    epilogue: &Epilogue,
    threads: usize,
    ws: &mut Workspace,
) {
    let product = Product {
        mode,
        a,
        lda,
        b,
        m,
        k,
        n,
        epilogue: *epilogue,
    };
    product.validate();
    assert_eq!(c.len(), m * n, "gemm: C length != m*n");
    let npanels = m.div_ceil(MR);
    let workers = fork_width(threads, gemm_flops(m, k, n), npanels);
    let per_worker = scratch_len(n);
    fork_disjoint(
        npanels,
        workers,
        c,
        MR * n,
        ws.scratch(workers * per_worker),
        per_worker,
        |panels, c_rows, scratch| product.run_rows(panels.start * MR, c_rows, false, scratch),
    );
}

/// `C = epilogue(op(A)·op(B))` for rank-2 tensors, writing into `c`.
///
/// `c` must already hold `m*n` elements; its shape is left untouched so
/// callers can keep e.g. a rank-3 conv weight-gradient tensor.
pub fn gemm_into(
    mode: GemmMode,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
    epilogue: &Epilogue,
    ws: &mut Workspace,
) -> Result<(), TensorError> {
    gemm_into_with_threads(mode, a, b, c, epilogue, 0, ws)
}

/// [`gemm_into`] with an explicit thread count (0 = default). Exists so
/// tests can pin thread counts and prove bit-identical results.
pub fn gemm_into_with_threads(
    mode: GemmMode,
    a: &Tensor,
    b: &Tensor,
    c: &mut Tensor,
    epilogue: &Epilogue,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(), TensorError> {
    let (m, k, n) = mode
        .dims(a.shape(), b.shape())
        .ok_or_else(|| TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        })?;
    if c.len() != m * n {
        return Err(TensorError::LengthMismatch {
            expected: m * n,
            actual: c.len(),
        });
    }
    let (_, lda) = a.shape().as_2d();
    gemm_slice(
        mode,
        a.data(),
        lda,
        b.data(),
        m,
        k,
        n,
        c.data_mut(),
        epilogue,
        threads,
        ws,
    );
    Ok(())
}

/// Drives the micro-kernels across every `NR` strip of the current block
/// for one row panel, applying the epilogue on the last reduction block.
/// Full strips are read through `b`; a ragged last strip is always the
/// packed one in its slot of `bpack`. `panel` starts at the panel's first
/// output row (column 0).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_panel(
    product: &Product,
    block: Block,
    mr: usize,
    a: Panel,
    b: Strips,
    bpack: &[f32],
    panel: &mut [f32],
    avx2: bool,
) {
    let n = product.n;
    let full = block.nc / NR;
    let mut s = 0;
    while s < block.nc.div_ceil(NR) {
        // The AVX2 kernel may cover several full strips in one tile.
        let (width, nr) = if s == full {
            (1, block.nc - s * NR)
        } else if avx2 {
            let width = strips_per_tile(mr, full - s);
            (width, width * NR)
        } else {
            (1, NR)
        };
        let j0 = block.jc + s * NR;
        // Tile `[0..mr) × [j0..j0+nr)` of the panel, row stride `n`.
        let tile = &mut panel[j0..];
        assert!(
            tile.len() >= (mr - 1) * n + nr,
            "gemm: tile reaches past m×n"
        );
        // What is left of the epilogue for this tile: nothing until the
        // reduction ends.
        let (mut bias, mut act) = (None, FusedAct::Linear);
        if block.last {
            bias = product.epilogue.bias.map(|bias| &bias[j0..j0 + nr]);
            act = product.epilogue.act;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 && s < full {
            // Bias and ReLU are applied to the accumulators before they
            // are stored; the transcendental activations run on the
            // stored tile below.
            let relu = act == FusedAct::Relu;
            // SAFETY: `avx2` is only true after runtime detection, and the
            // tile's `mr` rows of `nr = width * NR` values at stride `n`
            // lie inside `tile` (asserted above).
            unsafe {
                micro_tile_avx2(a, b, s, width, tile, n, mr, block.first, bias.take(), relu);
            }
            if relu {
                act = FusedAct::Linear;
            }
            apply_epilogue(tile, n, mr, nr, bias, act);
            s += width;
            continue;
        }
        let (bstrip, ldb) = if s < full {
            (b.group(s, 1), b.ld)
        } else {
            (&bpack[s * KC * NR..][..block.kc * NR], NR)
        };
        micro_tile(block.kc, a, bstrip, ldb, tile, n, mr, nr, block.first);
        apply_epilogue(tile, n, mr, nr, bias, act);
        s += width;
    }
}

/// How many of the `left` full strips one AVX2 tile of an `mr`-row panel
/// covers. Each output element is one serial chain of adds, so a tile of
/// one row on one strip runs a single chain at the latency of `vaddps`;
/// one or two rows take four strips and three or four rows take two,
/// which keeps at least four independent chains per reduction step (and
/// at most eight accumulators, plus the strips' loads, in registers).
/// Halved while fewer strips are left.
fn strips_per_tile(mr: usize, left: usize) -> usize {
    let mut width = match mr {
        1 | 2 => 4,
        3 | 4 => 2,
        _ => 1,
    };
    while width > left {
        width /= 2;
    }
    width
}

/// The AVX2 micro-kernel for full-width strips: `width` adjacent strips
/// of `b` from strip `s`, one `ymm` accumulator per live output row and
/// strip, one broadcast per row and one multiply and one add per
/// accumulator per reduction step, then `bias` added and (with `relu`)
/// `max(·, 0)` taken before the store. Separate `vmulps`/`vaddps` (never
/// FMA) and the `vmaxps` that `f32::max(v, 0.0)` compiles to keep every
/// lane's arithmetic — and therefore every output bit — identical to
/// [`micro_tile`] followed by [`apply_epilogue`]. Dispatches on `mr` so
/// edge row-panels (e.g. NT3's batch of 20 → panels of 8, 8, 4) stay
/// vectorized too, and on `width` as [`strips_per_tile`] chose it.
///
/// # Safety
/// As [`micro_tile_avx2_rows`] with `M = mr` and `S = width`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_tile_avx2(
    a: Panel,
    b: Strips,
    s: usize,
    width: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    first: bool,
    bias: Option<&[f32]>,
    relu: bool,
) {
    macro_rules! tile {
        ($m:literal, $s:literal) => {
            micro_tile_avx2_rows::<$m, $s>(a, b, s, c, ldc, first, bias, relu)
        };
    }
    match (mr, width) {
        (1, 4) => tile!(1, 4),
        (2, 4) => tile!(2, 4),
        (1, 2) => tile!(1, 2),
        (2, 2) => tile!(2, 2),
        (3, 2) => tile!(3, 2),
        (4, 2) => tile!(4, 2),
        (8, 1) => tile!(8, 1),
        (7, 1) => tile!(7, 1),
        (6, 1) => tile!(6, 1),
        (5, 1) => tile!(5, 1),
        (4, 1) => tile!(4, 1),
        (3, 1) => tile!(3, 1),
        (2, 1) => tile!(2, 1),
        (1, 1) => tile!(1, 1),
        _ => unreachable!("no AVX2 tile of {mr} rows by {width} strips"),
    }
}

/// # Safety
/// The CPU must support AVX2 and `c` must hold `M` rows of `S * NR` values
/// at row stride `ldc` (`c.len() >= (M - 1) * ldc + S * NR`). A, B and the
/// bias are read through bounds-checked views: a panel of other than
/// `b.kc` steps, a strip past the end of `b`, or a bias other than
/// `S * NR` values panics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_tile_avx2_rows<const M: usize, const S: usize>(
    a: Panel,
    b: Strips,
    s: usize,
    c: &mut [f32],
    ldc: usize,
    first: bool,
    bias: Option<&[f32]>,
    relu: bool,
) {
    use std::arch::x86_64::*;
    debug_assert!(M <= MR);
    debug_assert!(c.len() >= (M - 1) * ldc + S * NR);
    let (kc, ldb, stride) = (b.kc, b.ld, b.stride);
    let group = b.group(s, S).as_ptr();
    let c = c.as_mut_ptr();
    let mut acc = [[_mm256_setzero_ps(); S]; M];
    if !first {
        for (r, row) in acc.iter_mut().enumerate() {
            for (t, v) in row.iter_mut().enumerate() {
                // SAFETY: row `r < M` of the tile, `NR` values from
                // `r * ldc + t * NR` with `t < S`, is inside `c`
                // (precondition).
                *v = unsafe { _mm256_loadu_ps(c.add(r * ldc + t * NR)) };
            }
        }
    }
    // Step `l` of every strip, reloaded per step.
    let mut bv = [_mm256_setzero_ps(); S];
    match a {
        Panel::Rows(panel) => {
            assert_eq!(
                panel.kc, kc,
                "gemm: A panel and B strips of different blocks"
            );
            for l in 0..kc {
                for (t, v) in bv.iter_mut().enumerate() {
                    // SAFETY: `t < S` and `l < kc`, so `NR` values from
                    // `t * stride + l * ldb` lie inside what
                    // `Strips::group` sliced.
                    *v = unsafe { _mm256_loadu_ps(group.add(t * stride + l * ldb)) };
                }
                for (accs, row) in acc.iter_mut().zip(&panel.rows) {
                    // SAFETY: `l < kc == panel.kc`, and every row of a
                    // `RowPanel` holds exactly `kc` values (its
                    // invariant, bounds-checked where it is built).
                    // Checked, this load costs half the loop again — the
                    // compiler does not see that the rows are equally
                    // long — and an in-place read that slow loses to
                    // packing.
                    let av = _mm256_set1_ps(unsafe { *row.get_unchecked(l) });
                    for (v, &bv) in accs.iter_mut().zip(&bv) {
                        *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bv));
                    }
                }
            }
        }
        Panel::Packed(apack) => {
            for (l, arow) in apack.as_chunks::<MR>().0[..kc].iter().enumerate() {
                for (t, v) in bv.iter_mut().enumerate() {
                    // SAFETY: as in the other arm.
                    *v = unsafe { _mm256_loadu_ps(group.add(t * stride + l * ldb)) };
                }
                for (accs, &av) in acc.iter_mut().zip(arow) {
                    let av = _mm256_set1_ps(av);
                    for (v, &bv) in accs.iter_mut().zip(&bv) {
                        *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bv));
                    }
                }
            }
        }
    }
    if let Some(bias) = bias {
        let (chunks, rest) = bias.as_chunks::<NR>();
        assert!(
            chunks.len() == S && rest.is_empty(),
            "gemm: bias is not the tile's width"
        );
        for (v, chunk) in bv.iter_mut().zip(chunks) {
            // SAFETY: `chunk` is `NR` values.
            *v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
        }
        for accs in acc.iter_mut() {
            for (v, &bv) in accs.iter_mut().zip(&bv) {
                *v = _mm256_add_ps(*v, bv);
            }
        }
    }
    if relu {
        // `vmaxps v, 0`: the second operand wins on NaN, as in
        // `f32::max(v, 0.0)`.
        let zero = _mm256_setzero_ps();
        // Nested loops, not `flatten()`: behind the flattening iterator
        // the accumulators were kept in memory, stored on every step.
        for accs in acc.iter_mut() {
            for v in accs.iter_mut() {
                *v = _mm256_max_ps(*v, zero);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (t, v) in row.iter().enumerate() {
            // SAFETY: as for the loads above.
            unsafe { _mm256_storeu_ps(c.add(r * ldc + t * NR), *v) };
        }
    }
}

/// The register-blocked micro-kernel: an `MR×NR` accumulator tile over
/// one A panel and one B strip whose step `l` is `bstrip[l * ldb..]
/// [..NR]` (`ldb` is `NR` for a packed strip, `n` for B read in place).
/// `c` starts at the tile's first element and has row stride `ldc`.
///
/// On the first reduction block the accumulators start from zero (so `C`
/// may hold garbage from a recycled buffer); on later blocks the partial
/// `C` tile is loaded, extended in ascending `l`, and stored back —
/// preserving one strictly ordered sum per element. Panel rows past `mr`
/// and padded strip columns are computed and never stored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_tile(
    kc: usize,
    a: Panel,
    bstrip: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[r * ldc..][..nr]);
        }
    }
    // The multiply-add body is written out in both arms: behind a shared
    // helper that takes `&mut acc` the tile lives in memory instead of
    // registers, and the edge strips this kernel serves on AVX2 hosts (a
    // dense head with `n` of 1, 2 or 10) run five times slower.
    match a {
        Panel::Rows(panel) => {
            for l in 0..kc {
                let arow: [f32; MR] = std::array::from_fn(|r| panel.rows[r][l]);
                let brow = &bstrip[l * ldb..][..NR];
                for (row, av) in acc.iter_mut().zip(arow) {
                    for (v, &bv) in row.iter_mut().zip(brow) {
                        *v += av * bv;
                    }
                }
            }
        }
        Panel::Packed(apack) => {
            for l in 0..kc {
                let arow = &apack[l * MR..l * MR + MR];
                let brow = &bstrip[l * ldb..][..NR];
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = arow[r];
                    for (v, &bv) in row.iter_mut().zip(brow) {
                        *v += av * bv;
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * ldc..][..nr].copy_from_slice(&row[..nr]);
    }
}

/// Applies `C = act(C + bias)` to one stored tile; `bias` is the tile's
/// `nr` columns of it.
#[inline(always)]
fn apply_epilogue(
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    bias: Option<&[f32]>,
    act: FusedAct,
) {
    if bias.is_none() && act == FusedAct::Linear {
        return;
    }
    for r in 0..mr {
        let row = &mut c[r * ldc..][..nr];
        if let Some(bias) = bias {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
        match act {
            FusedAct::Linear => {}
            FusedAct::Relu => {
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            FusedAct::Sigmoid => {
                for v in row.iter_mut() {
                    *v = sigmoid(*v);
                }
            }
            FusedAct::Tanh => {
                for v in row.iter_mut() {
                    *v = v.tanh();
                }
            }
        }
    }
}

/// Packs rows `i0..i0+mr` of `Aᵀ`, reduction slice `pc..pc+kc`, into the
/// `l`-major panel `apack[l*MR + r]`. A is stored `(k×m)`, row `l`
/// starting at `a[l * lda]`, so each step's `mr` values are contiguous and
/// the pack is a row copy, not a transpose. Rows past `mr` get whatever
/// follows in A (zeros where A ends): the kernels never store them, and a
/// fixed-width copy is what keeps a narrow panel — a convolution's
/// `kernel * in_ch` can be 5 — from paying a `memcpy` call per step.
#[inline(always)]
fn pack_at(
    a: &[f32],
    lda: usize,
    i0: usize,
    mr: usize,
    pc: usize,
    kc: usize,
    apack: &mut [f32; MR * KC],
) {
    let (rows, _) = apack.as_chunks_mut::<MR>();
    for (l, dst) in rows[..kc].iter_mut().enumerate() {
        let src = &a[(pc + l) * lda + i0..];
        match src.first_chunk() {
            Some(wide) => *dst = *wide,
            None => copy_padded(&src[..mr], dst),
        }
    }
}

/// `dst = src` followed by zeros: one packed row. The full-width case is
/// a fixed-size copy rather than a `memcpy` call per row.
#[inline(always)]
fn copy_padded<const W: usize>(src: &[f32], dst: &mut [f32; W]) {
    match <&[f32; W]>::try_from(src) {
        Ok(full) => *dst = *full,
        Err(_) => {
            dst[..src.len()].copy_from_slice(src);
            dst[src.len()..].fill(0.0);
        }
    }
}

/// Packs strips `strips` of the `op(B)` block `[pc..pc+kc) × [jc..jc+nc)`
/// into `NR`-wide, `l`-major strips at a fixed `KC*NR` stride (strip `s`
/// in slot `s`), zero-padding edge columns.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pack_b(
    mode: GemmMode,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    strips: Range<usize>,
    bpack: &mut [f32],
) {
    for s in strips {
        let j0 = jc + s * NR;
        let w = NR.min(nc - s * NR);
        let strip = &mut bpack[s * KC * NR..];
        if mode.trans_b() {
            // B stored (n×k): each output column is a contiguous B row.
            for jj in 0..NR {
                if jj < w {
                    let src = &b[(j0 + jj) * k + pc..][..kc];
                    for (l, &v) in src.iter().enumerate() {
                        strip[l * NR + jj] = v;
                    }
                } else {
                    for l in 0..kc {
                        strip[l * NR + jj] = 0.0;
                    }
                }
            }
        } else {
            // B stored (k×n): copy row slices per reduction index.
            let (rows, _) = strip.as_chunks_mut::<NR>();
            for (l, dst) in rows[..kc].iter_mut().enumerate() {
                copy_padded(&b[(pc + l) * n + j0..][..w], dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xrng::RandomSource;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = xrng::seeded(seed);
        (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
    }

    /// Plain triple-loop reference for `op(A)·op(B)` plus epilogue.
    fn naive(
        mode: GemmMode,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: &Epilogue,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    let av = if mode.trans_a() {
                        a[l * m + i]
                    } else {
                        a[i * k + l]
                    };
                    let bv = if mode.trans_b() {
                        b[j * k + l]
                    } else {
                        b[l * n + j]
                    };
                    acc += av * bv;
                }
                if let Some(bias) = ep.bias {
                    acc += bias[j];
                }
                c[i * n + j] = ep.act.apply(acc);
            }
        }
        c
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        mode: GemmMode,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: &Epilogue,
        threads: usize,
    ) -> Vec<f32> {
        // Seed C with garbage to prove the first-block path ignores it.
        let mut c = vec![f32::NAN; m * n];
        let mut ws = Workspace::new();
        let lda = if mode.trans_a() { m } else { k };
        gemm_slice(mode, a, lda, b, m, k, n, &mut c, ep, threads, &mut ws);
        c
    }

    const MODES: [GemmMode; 3] = [GemmMode::Ab, GemmMode::AtB, GemmMode::ABt];
    const ACTS: [FusedAct; 4] = [
        FusedAct::Linear,
        FusedAct::Relu,
        FusedAct::Sigmoid,
        FusedAct::Tanh,
    ];

    #[test]
    fn matches_naive_across_modes_and_edges() {
        // Cross panel/strip/block boundaries: MR/NR are 8, KC is 256.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (9, 300, 17),
            (16, 257, 9),
            (33, 64, 40),
        ] {
            for mode in MODES {
                let a = rand_vec(m * k, 11 + m as u64);
                let b = rand_vec(k * n, 23 + n as u64);
                let got = run(mode, &a, &b, m, k, n, &Epilogue::NONE, 1);
                let want = naive(mode, &a, &b, m, k, n, &Epilogue::NONE);
                for (x, y) in got.iter().zip(&want) {
                    assert!((x - y).abs() < 1e-4, "{mode:?} {m}x{k}x{n}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn fused_epilogue_matches_naive() {
        let (m, k, n) = (13, 70, 21);
        let a = rand_vec(m * k, 5);
        let b = rand_vec(k * n, 6);
        let bias = rand_vec(n, 7);
        for act in ACTS {
            let ep = Epilogue {
                bias: Some(&bias),
                act,
            };
            let got = run(GemmMode::Ab, &a, &b, m, k, n, &ep, 1);
            let want = naive(GemmMode::Ab, &a, &b, m, k, n, &ep);
            for (x, y) in got.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{act:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn single_row_result_is_independent_of_batch_composition() {
        // Serving depends on this: a row computed in a batch of 40 must be
        // bit-identical to the same row computed in any smaller batch —
        // one panel (B read in place, several strips per AVX2 tile) or
        // several (B packed). `k` crosses `KC`, so later blocks extend
        // partial sums in place; `n` has a ragged last strip or four or
        // more full ones. `k = 2000` is large enough for two threads to
        // fork, so a worker of a 16- or 17-row product owns one panel.
        const M: usize = 40;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut ws = Workspace::new();
        for (k, n) in [96, 257, 600]
            .into_iter()
            .flat_map(|k| [24, 37, 64].map(|n| (k, n)))
            .chain([(2000, 64)])
        {
            let a = rand_vec(M * k, 41 + k as u64);
            let b = rand_vec(k * n, 42 + n as u64);
            let bias = rand_vec(n, 43);
            let ep = Epilogue {
                bias: Some(&bias),
                act: FusedAct::Relu,
            };
            for mode in [GemmMode::Ab, GemmMode::AtB] {
                // Rows `i0..i0 + rows` of the product: rows of the stored A
                // for `Ab`, columns of it (row stride `M`) for `AtB`.
                let mut product = |i0: usize, rows: usize, threads: usize| {
                    let (a, lda) = match mode {
                        GemmMode::AtB => (&a[i0..(k - 1) * M + i0 + rows], M),
                        _ => (&a[i0 * k..(i0 + rows) * k], k),
                    };
                    let mut c = vec![f32::NAN; rows * n];
                    gemm_slice(mode, a, lda, &b, rows, k, n, &mut c, &ep, threads, &mut ws);
                    bits(&c)
                };
                let full = product(0, M, 1);
                for rows in (1..=9).chain([16, 17]) {
                    let i0 = (rows * 7) % (M - rows + 1);
                    for threads in [1, 2] {
                        assert_eq!(
                            product(i0, rows, threads),
                            full[i0 * n..(i0 + rows) * n],
                            "{mode:?} k {k} n {n}: rows {i0}..{} at {threads} threads",
                            i0 + rows
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn k_zero_applies_epilogue_of_zero() {
        let bias = vec![1.0f32, -2.0];
        let ep = Epilogue {
            bias: Some(&bias),
            act: FusedAct::Relu,
        };
        let got = run(GemmMode::Ab, &[], &[], 2, 0, 2, &ep, 1);
        assert_eq!(got, vec![1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn gemm_into_validates_shapes() {
        let a = Tensor::from_fn([3, 4], |i| i as f32);
        let b = Tensor::from_fn([5, 2], |i| i as f32);
        let mut c = Tensor::zeros([3, 2]);
        let mut ws = Workspace::new();
        assert!(matches!(
            gemm_into(GemmMode::Ab, &a, &b, &mut c, &Epilogue::NONE, &mut ws),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let b = Tensor::from_fn([4, 2], |i| i as f32);
        let mut short = Tensor::zeros([3, 1]);
        assert!(matches!(
            gemm_into(GemmMode::Ab, &a, &b, &mut short, &Epilogue::NONE, &mut ws),
            Err(TensorError::LengthMismatch { .. })
        ));
        assert!(gemm_into(GemmMode::Ab, &a, &b, &mut c, &Epilogue::NONE, &mut ws).is_ok());
    }

    #[test]
    fn workspace_reuses_buffers() {
        let mut ws = Workspace::new();
        let t = ws.alloc_zeroed([4, 4]);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        let t2 = ws.alloc_zeroed([2, 8]);
        assert_eq!(t2.data().as_ptr(), ptr, "pooled buffer not reused");
        assert!(t2.data().iter().all(|&v| v == 0.0));
        let copy_src = Tensor::from_fn([3, 3], |i| i as f32);
        ws.recycle(t2);
        let copied = ws.alloc_copy(&copy_src);
        assert_eq!(copied.data(), copy_src.data());
        assert_eq!(copied.shape(), copy_src.shape());
    }

    #[test]
    fn as_is_allocation_hands_the_buffer_over_without_filling_it() {
        let mut ws = Workspace::new();
        let mut t = ws.alloc_zeroed([4, 4]);
        t.data_mut().fill(7.0);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        // Shorter than what the buffer held: the stale values stay (debug
        // builds poison them instead, so a reader of unwritten elements
        // sees NaN).
        let short = ws.alloc_as_is([3, 2]);
        assert_eq!(short.data().as_ptr(), ptr, "pooled buffer not reused");
        assert_eq!(short.len(), 6);
        let expect = if cfg!(debug_assertions) {
            f32::NAN
        } else {
            7.0
        };
        assert!(short.data().iter().all(|v| v.to_bits() == expect.to_bits()));
        ws.recycle(short);
        // Longer than what it last held, within its capacity: the tail is
        // initialised here, never handed out raw.
        let long = ws.alloc_as_is([4, 4]);
        assert_eq!(long.data().as_ptr(), ptr);
        assert_eq!(long.len(), 16);
        if !cfg!(debug_assertions) {
            assert!(long.data()[..6].iter().all(|&v| v == 7.0));
            assert!(long.data()[6..].iter().all(|&v| v == 0.0));
        }
        ws.recycle(long);
        // The zeroed form clears whatever the buffer held.
        let zeroed = ws.alloc_zeroed([4, 4]);
        assert_eq!(zeroed.data().as_ptr(), ptr);
        assert!(zeroed.data().iter().all(|&v| v == 0.0));
    }

    /// The AVX2 and the portable micro-kernels, run through the same
    /// macro loops on the same operands, agree on every output bit: all
    /// three modes, shapes that cross the `MR` / `NR` / `KC` / `NC` edges,
    /// an A whose rows abut (`lda` = row length), are spaced, or overlap
    /// (`lda` < row length: a convolution's receptive fields), B packed
    /// or (one panel) read in place, a first pass and an accumulating
    /// one, with and without the fused epilogue.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_micro_kernels_agree_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let shapes = [
            (1, 1, 1),
            (5, 5, 8),
            (8, 16, 16),
            (13, 255, 9),
            (9, 257, 17),
            (16, 300, 23),
            (3, 7, NC + 9),
            // One panel, so `Ab` and `AtB` read B in place: every
            // multi-strip tile, a strip count it does not divide, a ragged
            // last strip, and `k` across `KC`.
            (1, 300, 40),
            (2, 257, 33),
            (3, 513, 64),
            (4, 256, 16),
            (7, 300, 17),
            (8, 600, 32),
        ];
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            for mode in MODES {
                // Stored A is (rows × cols).
                let (rows, cols) = if mode.trans_a() { (k, m) } else { (m, k) };
                for lda in [cols, cols + 3, (cols / 3).max(1)] {
                    let seed = (case * 31 + lda) as u64;
                    let a = rand_vec((rows - 1) * lda + cols, seed);
                    let b = rand_vec(k * n, seed ^ 0xB);
                    let bias = rand_vec(n, seed ^ 0xC);
                    let partial = rand_vec(m * n, seed ^ 0xD);
                    for accumulate in [false, true] {
                        for (with_bias, act) in [
                            (false, FusedAct::Linear),
                            (true, FusedAct::Relu),
                            (true, FusedAct::Tanh),
                        ] {
                            let product = Product {
                                mode,
                                a: &a,
                                lda,
                                b: &b,
                                m,
                                k,
                                n,
                                epilogue: Epilogue {
                                    bias: with_bias.then_some(bias.as_slice()),
                                    act,
                                },
                            };
                            product.validate();
                            let run = |avx2: bool| {
                                // Garbage where nothing is accumulated:
                                // the first block must not read it.
                                let mut c = if accumulate {
                                    partial.clone()
                                } else {
                                    vec![f32::NAN; m * n]
                                };
                                let mut apack = [0.0f32; MR * KC];
                                let mut bpack = vec![0.0f32; scratch_len(n) - MR * KC];
                                if avx2 {
                                    // SAFETY: AVX2 was detected above.
                                    unsafe {
                                        product.blocks_avx2(
                                            0, &mut c, accumulate, &mut apack, &mut bpack,
                                        )
                                    };
                                } else {
                                    product.blocks(
                                        0, &mut c, accumulate, &mut apack, &mut bpack, false,
                                    );
                                }
                                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(
                                run(true),
                                run(false),
                                "{mode:?} {m}x{k}x{n} lda {lda} accumulate {accumulate} \
                                 bias {with_bias} {act:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite: bit-identical across thread counts {1, 2, 4} and
        /// within 1e-4 of the naive reference, for every pack mode and
        /// the fused bias+activation epilogue.
        #[test]
        fn bit_identical_across_thread_counts(
            m in 1usize..40,
            k in 1usize..40,
            n in 1usize..40,
            // mode (3) × act (4) × bias on/off (2) folded into one index
            // to stay within proptest's strategy-tuple arity.
            cfg in 0usize..24,
            seed in 0u64..500,
        ) {
            let mode = MODES[cfg % 3];
            let act = ACTS[(cfg / 3) % 4];
            let with_bias = cfg / 12;
            let a = rand_vec(m * k, seed);
            let b = rand_vec(k * n, seed ^ 0xABCD);
            let bias = rand_vec(n, seed ^ 0x77);
            let ep = Epilogue { bias: (with_bias == 1).then_some(bias.as_slice()), act };
            let one = run(mode, &a, &b, m, k, n, &ep, 1);
            let two = run(mode, &a, &b, m, k, n, &ep, 2);
            let four = run(mode, &a, &b, m, k, n, &ep, 4);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&one), bits(&two));
            prop_assert_eq!(bits(&one), bits(&four));
            let want = naive(mode, &a, &b, m, k, n, &ep);
            for (x, y) in one.iter().zip(&want) {
                prop_assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
            }
        }
    }
}
