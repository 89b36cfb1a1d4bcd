//! Blocked GEMM engine: the single kernel behind every matrix product.
//!
//! The three ad-hoc kernels that used to live in `matmul.rs` (`A·B`,
//! `Aᵀ·B`, `A·Bᵀ`) are expressed here as *packing modes* of one engine:
//!
//! * macro-loops tile the output into `KC`-deep, `NC`-wide blocks whose
//!   packed B slab stays L2-resident;
//! * each block is driven row-panel by row-panel through a register-blocked
//!   `MR×NR` micro-kernel over a stack-packed A panel;
//! * transposition is handled entirely in the pack routines, so the
//!   micro-kernel — the only hot loop — is branch-free and identical for
//!   all three modes (the old `aval == 0.0` skip that poisoned
//!   autovectorization is gone).
//!
//! # Determinism
//!
//! Every output element keeps exactly one accumulator. `KC` blocks advance
//! sequentially and the micro-kernel walks the reduction index upward, so
//! each `C[i][j]` is the strictly left-to-right sum over `l` — the same
//! order for every thread count and every batch composition. Threads only
//! split whole row panels (disjoint output rows), so results are
//! bit-identical across thread counts, which `tests/serving.rs` and
//! `tests/resilience.rs` rely on.
//!
//! # Epilogue
//!
//! `C = act(A·B + bias)` is fused: after the final `KC` block each tile
//! gets bias and activation applied in place, saving two full passes over
//! the output in `Dense::compute`.

use crate::{Shape, Tensor, TensorError};
use parx::kernel_threads;
use std::cell::RefCell;

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

    #[inline]
    fn is_noop(&self) -> bool {
        self.bias.is_none() && self.act == FusedAct::Linear
    }
}

/// Reusable scratch memory for the kernels and the training hot path.
///
/// Holds the GEMM packing slab, the im2col/col-grad scratch for Conv1D,
/// the per-block partial accumulators of the deterministic weight-grad
/// reduction, and a pool of retired `Tensor` buffers that
/// [`Workspace::alloc`] hands back out — so a warmed-up training step
/// performs no heap allocation.
#[derive(Debug, Default)]
pub struct Workspace {
    pack_b: Vec<f32>,
    pub(crate) im2col: Vec<f32>,
    pub(crate) colgrad: Vec<f32>,
    pub(crate) partials: Vec<f32>,
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a zero-filled tensor of `shape`, reusing a pooled buffer
    /// when one with enough capacity exists.
    pub fn alloc(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let len = shape.volume();
        let mut buf = self.grab(len);
        buf.clear();
        buf.resize(len, 0.0);
        Tensor::from_vec(shape, buf).expect("buffer length matches shape volume")
    }

    /// Returns a copy of `src` backed by a pooled buffer.
    pub fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        let mut buf = self.grab(src.len());
        buf.clear();
        buf.extend_from_slice(src.data());
        Tensor::from_vec(src.shape().clone(), buf).expect("buffer length matches shape volume")
    }

    /// Retires a tensor's buffer into the pool for later `alloc` calls.
    pub fn recycle(&mut self, t: Tensor) {
        let v = t.into_vec();
        if v.capacity() > 0 && self.pool.len() < MAX_POOL {
            self.pool.push(v);
        }
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

/// `C = epilogue(op(A)·op(B))` over raw row-major slices.
///
/// `threads == 0` means "use the default kernel thread count". The result
/// is bit-identical for every `threads` value (see module docs).
///
/// # Panics
/// Panics if a slice length disagrees with `(m, k, n)` or a bias is not
/// `n` long.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice(
    mode: GemmMode,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    epilogue: &Epilogue,
    threads: usize,
    ws: &mut Workspace,
) {
    assert_eq!(a.len(), m * k, "gemm: A length != m*k");
    assert_eq!(b.len(), k * n, "gemm: B length != k*n");
    assert_eq!(c.len(), m * n, "gemm: C length != m*n");
    if let Some(bias) = epilogue.bias {
        assert_eq!(bias.len(), n, "gemm: bias length != n");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty reduction: C is the epilogue of zero.
        for row in c.chunks_exact_mut(n) {
            for (j, v) in row.iter_mut().enumerate() {
                let z = epilogue.bias.map_or(0.0, |bias| bias[j]);
                *v = epilogue.act.apply(z);
            }
        }
        return;
    }

    let threads = if threads == 0 {
        kernel_threads()
    } else {
        threads
    };
    let flops = 2usize
        .saturating_mul(m)
        .saturating_mul(k)
        .saturating_mul(n);
    let t = threads.min((flops / MIN_FLOPS_PER_THREAD).max(1));
    let npanels = m.div_ceil(MR);
    let mut bpack = std::mem::take(&mut ws.pack_b);

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nstrips = nc.div_ceil(NR);
        if bpack.len() < nstrips * KC * NR {
            bpack.resize(nstrips * KC * NR, 0.0);
        }
        for (pci, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            pack_b(mode, b, k, n, pc, kc, jc, nc, &mut bpack);
            let first = pci == 0;
            let last = pc + kc == k;
            let cbase = RawBase(c.as_mut_ptr() as usize);
            let run = |chunk: parx::Chunk| {
                for panel in chunk.start..chunk.end {
                    let i0 = panel * MR;
                    let job = PanelJob {
                        mode,
                        a,
                        m,
                        k,
                        n,
                        i0,
                        mr: MR.min(m - i0),
                        pc,
                        kc,
                        jc,
                        nc,
                        bpack: &bpack,
                        cbase: cbase.0,
                        first,
                        last,
                    };
                    run_row_panel(job, epilogue);
                }
            };
            if t == 1 {
                // Allocation-free sequential fast path.
                run(parx::Chunk {
                    index: 0,
                    start: 0,
                    end: npanels,
                });
            } else {
                parx::parallel_for_grained(npanels, t, 1, run);
            }
        }
    }
    ws.pack_b = bpack;
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
    gemm_slice(
        mode,
        a.data(),
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

/// One row panel's worth of work on one packed block: everything a worker
/// thread needs, bundled so the hot call stays register-friendly.
#[derive(Clone, Copy)]
struct PanelJob<'a> {
    mode: GemmMode,
    a: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    i0: usize,
    mr: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bpack: &'a [f32],
    cbase: usize,
    first: bool,
    last: bool,
}

/// Shares a mutable base pointer across scoped threads for disjoint-row
/// writes.
struct RawBase(usize);
unsafe impl Sync for RawBase {}

fn run_row_panel(job: PanelJob, epilogue: &Epilogue) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by runtime detection. The AVX2 instantiation
            // executes the same scalar operations in the same order (no
            // FMA contraction, one accumulator per element), so its
            // results are bit-identical to the generic path.
            unsafe { row_panel_avx2(job, epilogue) };
            return;
        }
    }
    row_panel(job, epilogue, false);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_panel_avx2(job: PanelJob, epilogue: &Epilogue) {
    row_panel(job, epilogue, true);
}

/// Packs the panel's A rows, then drives the micro-kernel across every
/// `NR` strip of the current block, applying the epilogue on the last
/// reduction block.
///
/// `avx2` selects the intrinsics micro-kernel; the caller must have
/// verified CPU support. Both kernels perform the identical multiply and
/// add per element in the identical order, so the choice never changes a
/// single output bit.
#[inline(always)]
fn row_panel(job: PanelJob, epilogue: &Epilogue, avx2: bool) {
    let mut apack = [0.0f32; MR * KC];
    pack_a(
        job.mode, job.a, job.m, job.k, job.i0, job.mr, job.pc, job.kc, &mut apack,
    );
    let nstrips = job.nc.div_ceil(NR);
    for s in 0..nstrips {
        let j0 = job.jc + s * NR;
        let nr = NR.min(job.nc - s * NR);
        let cptr = (job.cbase as *mut f32).wrapping_add(job.i0 * job.n + j0);
        // SAFETY: the (panel, strip) tile `[i0..i0+mr) × [j0..j0+nr)` is
        // written by exactly one thread (threads split whole panels), and
        // `cbase` points at an `m*n` allocation that outlives the scope.
        unsafe {
            #[cfg(target_arch = "x86_64")]
            let full = avx2 && nr == NR;
            #[cfg(target_arch = "x86_64")]
            if full {
                micro_tile_avx2(
                    job.kc,
                    &apack,
                    &job.bpack[s * KC * NR..],
                    cptr,
                    job.n,
                    job.mr,
                    job.first,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            let full = {
                let _ = avx2;
                false
            };
            if !full {
                micro_tile(
                    job.kc,
                    &apack,
                    &job.bpack[s * KC * NR..],
                    cptr,
                    job.n,
                    job.mr,
                    nr,
                    job.first,
                );
            }
            if job.last && !epilogue.is_noop() {
                apply_epilogue(cptr, job.n, job.mr, nr, j0, epilogue);
            }
        }
    }
}

/// The AVX2 micro-kernel for full-width (`nr == NR`) strips: one `ymm`
/// accumulator per live output row, one broadcast multiply and one add
/// per reduction step. Separate `vmulps`/`vaddps` (never FMA) keep every
/// lane's arithmetic — and therefore every output bit — identical to
/// [`micro_tile`]. Dispatches on `mr` so edge row-panels (e.g. NT3's
/// batch of 20 → panels of 8, 8, 4) stay vectorized too.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_tile_avx2(
    kc: usize,
    apack: &[f32; MR * KC],
    bstrip: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    first: bool,
) {
    match mr {
        8 => micro_tile_avx2_rows::<8>(kc, apack, bstrip, c, ldc, first),
        7 => micro_tile_avx2_rows::<7>(kc, apack, bstrip, c, ldc, first),
        6 => micro_tile_avx2_rows::<6>(kc, apack, bstrip, c, ldc, first),
        5 => micro_tile_avx2_rows::<5>(kc, apack, bstrip, c, ldc, first),
        4 => micro_tile_avx2_rows::<4>(kc, apack, bstrip, c, ldc, first),
        3 => micro_tile_avx2_rows::<3>(kc, apack, bstrip, c, ldc, first),
        2 => micro_tile_avx2_rows::<2>(kc, apack, bstrip, c, ldc, first),
        _ => micro_tile_avx2_rows::<1>(kc, apack, bstrip, c, ldc, first),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_tile_avx2_rows<const M: usize>(
    kc: usize,
    apack: &[f32; MR * KC],
    bstrip: &[f32],
    c: *mut f32,
    ldc: usize,
    first: bool,
) {
    use std::arch::x86_64::*;
    debug_assert!(bstrip.len() >= kc * NR);
    let mut acc = [_mm256_setzero_ps(); M];
    if !first {
        for (r, v) in acc.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(c.add(r * ldc));
        }
    }
    let ap = apack.as_ptr();
    let bp = bstrip.as_ptr();
    for l in 0..kc {
        let bv = _mm256_loadu_ps(bp.add(l * NR));
        let arow = ap.add(l * MR);
        for (r, v) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*arow.add(r));
            *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bv));
        }
    }
    for (r, v) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), *v);
    }
}

/// The register-blocked micro-kernel: an `MR×NR` accumulator tile over a
/// packed A panel and one packed B strip.
///
/// On the first reduction block the accumulators start from zero (so `C`
/// may hold garbage from a recycled buffer); on later blocks the partial
/// `C` tile is loaded, extended in ascending `l`, and stored back —
/// preserving one strictly ordered sum per element. Padded panel rows and
/// strip columns are computed on zeros and never stored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn micro_tile(
    kc: usize,
    apack: &[f32; MR * KC],
    bstrip: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            for (j, v) in row.iter_mut().enumerate().take(nr) {
                *v = *c.add(r * ldc + j);
            }
        }
    }
    for l in 0..kc {
        let arow = &apack[l * MR..l * MR + MR];
        let brow = &bstrip[l * NR..l * NR + NR];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (v, &bv) in row.iter_mut().zip(brow) {
                *v += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        for (j, &v) in row.iter().enumerate().take(nr) {
            *c.add(r * ldc + j) = v;
        }
    }
}

/// Applies `C = act(C + bias)` to one stored tile.
#[inline(always)]
unsafe fn apply_epilogue(
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
    j0: usize,
    epilogue: &Epilogue,
) {
    for r in 0..mr {
        // SAFETY: same tile ownership as the caller.
        let row = std::slice::from_raw_parts_mut(c.add(r * ldc), nr);
        if let Some(bias) = epilogue.bias {
            for (v, &bv) in row.iter_mut().zip(&bias[j0..j0 + nr]) {
                *v += bv;
            }
        }
        match epilogue.act {
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

/// Packs rows `i0..i0+mr` of `op(A)`, reduction slice `pc..pc+kc`, into
/// the `l`-major panel `apack[l*MR + r]`, zero-padding rows past `mr`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pack_a(
    mode: GemmMode,
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    mr: usize,
    pc: usize,
    kc: usize,
    apack: &mut [f32; MR * KC],
) {
    if mode.trans_a() {
        // A stored (k×m): panel rows are contiguous per reduction index.
        for l in 0..kc {
            let src = &a[(pc + l) * m + i0..][..mr];
            let dst = &mut apack[l * MR..l * MR + MR];
            dst[..mr].copy_from_slice(src);
            dst[mr..].fill(0.0);
        }
    } else {
        // A stored (m×k): transpose row-by-row into the panel.
        for r in 0..MR {
            if r < mr {
                let src = &a[(i0 + r) * k + pc..][..kc];
                for (l, &v) in src.iter().enumerate() {
                    apack[l * MR + r] = v;
                }
            } else {
                for l in 0..kc {
                    apack[l * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs the `op(B)` block `[pc..pc+kc) × [jc..jc+nc)` into `NR`-wide,
/// `l`-major strips at a fixed `KC*NR` stride, zero-padding edge columns.
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
    bpack: &mut [f32],
) {
    let nstrips = nc.div_ceil(NR);
    for s in 0..nstrips {
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
            for l in 0..kc {
                let src = &b[(pc + l) * n + j0..][..w];
                let dst = &mut strip[l * NR..l * NR + NR];
                dst[..w].copy_from_slice(src);
                dst[w..].fill(0.0);
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
        gemm_slice(mode, a, b, m, k, n, &mut c, ep, threads, &mut ws);
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
        // bit-identical to the same row computed alone.
        let (m, k, n) = (40, 96, 24);
        let a = rand_vec(m * k, 41);
        let b = rand_vec(k * n, 42);
        let bias = rand_vec(n, 43);
        let ep = Epilogue {
            bias: Some(&bias),
            act: FusedAct::Relu,
        };
        let full = run(GemmMode::Ab, &a, &b, m, k, n, &ep, 0);
        for i in [0usize, 7, 39] {
            let row = run(GemmMode::Ab, &a[i * k..(i + 1) * k], &b, 1, k, n, &ep, 0);
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                full[i * n..(i + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "row {i} drifted"
            );
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
        let t = ws.alloc([4, 4]);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        let t2 = ws.alloc([2, 8]);
        assert_eq!(t2.data().as_ptr(), ptr, "pooled buffer not reused");
        assert!(t2.data().iter().all(|&v| v == 0.0));
        let copy_src = Tensor::from_fn([3, 3], |i| i as f32);
        ws.recycle(t2);
        let copied = ws.alloc_copy(&copy_src);
        assert_eq!(copied.data(), copy_src.data());
        assert_eq!(copied.shape(), copy_src.shape());
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
