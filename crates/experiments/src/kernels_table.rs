//! Old-vs-new kernel comparison: seed loops against the blocked GEMM engine.
//!
//! Tables 3/4 of the paper quantify how much faster the improved data
//! loaders are than the stock `pandas.read_csv` path. This driver applies
//! the same treatment to the compute kernels: it times the retained seed
//! kernels ([`tensor::reference`]) against the blocked/packed GEMM engine
//! that replaced them, at the Dense and Conv1D shapes the benchmarks
//! actually run, and reports the wall-time speedup per kernel.

use crate::report::{format_table, Experiment};
use std::hint::black_box;
use std::time::Instant;
use tensor::{
    conv1d_backward, conv1d_forward, gemm_into, matmul, reference, Epilogue, GemmMode, Tensor,
    Workspace,
};
use xrng::RandomSource;

/// One seed-vs-blocked timing at a fixed shape.
#[derive(Debug, Clone)]
pub struct KernelComparison {
    /// Kernel + shape label.
    pub name: String,
    /// Floating-point operations per invocation (2·m·k·n style count).
    pub flops: f64,
    /// Best-of-reps seed kernel seconds.
    pub seed_s: f64,
    /// Best-of-reps blocked engine seconds.
    pub blocked_s: f64,
    /// True for the NT3-shaped rows the acceptance criteria gate on.
    pub nt3: bool,
}

impl KernelComparison {
    /// Seed time over blocked time.
    pub fn speedup(&self) -> f64 {
        self.seed_s / self.blocked_s.max(1e-12)
    }

    /// Blocked engine throughput in GFLOP/s.
    pub fn blocked_gflops(&self) -> f64 {
        self.flops / self.blocked_s.max(1e-12) / 1e9
    }

    /// Seed kernel throughput in GFLOP/s.
    pub fn seed_gflops(&self) -> f64 {
        self.flops / self.seed_s.max(1e-12) / 1e9
    }
}

fn best_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn filled(shape: impl Into<tensor::Shape>, seed: u64) -> Tensor {
    let mut rng = xrng::seeded(seed);
    Tensor::from_fn(shape, |_| rng.next_f32() - 0.5)
}

/// Times every kernel pair at benchmark shapes. `quick` shrinks the shapes
/// so the debug-mode test suite stays fast; the full mode uses the
/// P1B1-class 512×960×1024 GEMM and an NT3-class convolution.
pub fn measure_kernel_comparison(quick: bool) -> Vec<KernelComparison> {
    let reps = if quick { 2 } else { 3 };
    let mut rows = Vec::new();

    // Dense-layer GEMMs. P1B1's widest layer is the 960→1024 encoder at
    // batch 512; quick mode keeps the inner dimension and shrinks the rest.
    let (m, k, n) = if quick {
        (64, 960, 64)
    } else {
        (512, 960, 1024)
    };
    let a = filled([m, k], 1);
    let b = filled([k, n], 2);
    let gemm_flops = 2.0 * (m * k * n) as f64;
    rows.push(KernelComparison {
        name: format!("Dense forward A·B {m}x{k}x{n}"),
        flops: gemm_flops,
        seed_s: best_time(reps, || {
            black_box(reference::matmul_seed(&a, &b).unwrap());
        }),
        blocked_s: best_time(reps, || {
            black_box(matmul(&a, &b).unwrap());
        }),
        nt3: false,
    });

    // The backward products are modes of the one engine, written into a
    // preallocated output the way the layers call them.
    let g = filled([m, n], 3);
    let mut ws = Workspace::new();
    let mut grad_w = Tensor::zeros([k, n]);
    let mut grad_x = Tensor::zeros([m, k]);
    rows.push(KernelComparison {
        name: format!("Dense weight-grad Aᵀ·B {m}x{k}x{n}"),
        flops: gemm_flops,
        seed_s: best_time(reps, || {
            black_box(reference::matmul_at_b_seed(&a, &g).unwrap());
        }),
        blocked_s: best_time(reps, || {
            gemm_into(GemmMode::AtB, &a, &g, &mut grad_w, &Epilogue::NONE, &mut ws).unwrap();
            black_box(&grad_w);
        }),
        nt3: false,
    });

    // Input gradient G·Wᵀ reuses the forward weight (k×n) as the Bᵀ operand.
    rows.push(KernelComparison {
        name: format!("Dense input-grad A·Bᵀ {m}x{n}x{k}"),
        flops: gemm_flops,
        seed_s: best_time(reps, || {
            black_box(reference::matmul_a_bt_seed(&g, &b).unwrap());
        }),
        blocked_s: best_time(reps, || {
            gemm_into(GemmMode::ABt, &g, &b, &mut grad_x, &Epilogue::NONE, &mut ws).unwrap();
            black_box(&grad_x);
        }),
        nt3: false,
    });

    // NT3's dense head: the flattened conv stack feeding a narrow layer.
    let (hm, hk, hn) = if quick {
        (20, 960, 32)
    } else {
        (20, 9600, 200)
    };
    let ha = filled([hm, hk], 5);
    let hb = filled([hk, hn], 6);
    rows.push(KernelComparison {
        name: format!("NT3 dense head A·B {hm}x{hk}x{hn}"),
        flops: 2.0 * (hm * hk * hn) as f64,
        seed_s: best_time(reps, || {
            black_box(reference::matmul_seed(&ha, &hb).unwrap());
        }),
        blocked_s: best_time(reps, || {
            black_box(matmul(&ha, &hb).unwrap());
        }),
        nt3: true,
    });

    // NT3's two convolution blocks. The first (one input channel, stride
    // 2) has a 5-wide reduction against tens of thousands of rows — 11% of
    // a training step's FLOPs and, before the kernels read the input in
    // place, 40% of its time; the second is multi-channel with a wide
    // filter bank.
    let conv_shapes = if quick {
        [(4, 600, 1, 16, 5, 2), (4, 256, 8, 16, 5, 2)]
    } else {
        [(20, 3000, 1, 16, 5, 2), (20, 1024, 16, 128, 20, 1)]
    };
    for (i, (cb, steps, in_ch, out_ch, kernel, stride)) in conv_shapes.into_iter().enumerate() {
        let out_steps = (steps - kernel) / stride + 1;
        let x = filled([cb, steps, in_ch], 7 + 10 * i as u64);
        let w = filled([kernel, in_ch, out_ch], 8 + 10 * i as u64);
        let conv_flops = 2.0 * (cb * out_steps * kernel * in_ch * out_ch) as f64;
        let shape = format!("b{cb} {steps}x{in_ch}→{out_ch} k{kernel}s{stride}");
        rows.push(KernelComparison {
            name: format!("NT3 Conv1D fwd {shape}"),
            flops: conv_flops,
            seed_s: best_time(reps, || {
                black_box(reference::conv1d_forward_seed(&x, &w, stride).unwrap());
            }),
            blocked_s: best_time(reps, || {
                black_box(conv1d_forward(&x, &w, stride).unwrap());
            }),
            nt3: true,
        });

        let go = filled([cb, out_steps, out_ch], 9 + 10 * i as u64);
        rows.push(KernelComparison {
            name: format!("NT3 Conv1D bwd {shape}"),
            flops: 2.0 * conv_flops,
            seed_s: best_time(reps, || {
                black_box(reference::conv1d_backward_seed(&x, &w, &go, stride).unwrap());
            }),
            blocked_s: best_time(reps, || {
                black_box(conv1d_backward(&x, &w, &go, stride).unwrap());
            }),
            nt3: true,
        });
    }

    rows
}

/// The kernel-engine experiment: seed loops vs the blocked GEMM engine,
/// rendered like the paper's loader-speedup tables. In full mode on a
/// release build it also asserts the blocked engine wins at the NT3
/// shapes (the acceptance bar); debug timings are too distorted to gate
/// on, and quick mode's shrunken shapes are not the NT3 shapes.
pub fn table_kernels(quick: bool) -> Experiment {
    let rows = measure_kernel_comparison(quick);
    if crate::gate::timed_asserts_enabled(quick) {
        for r in rows.iter().filter(|r| r.nt3) {
            assert!(
                r.speedup() > 1.0,
                "blocked engine slower than seed at {}: {:.4}s vs {:.4}s",
                r.name,
                r.blocked_s,
                r.seed_s
            );
        }
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}ms", r.seed_s * 1e3),
                format!("{:.2}ms", r.blocked_s * 1e3),
                format!("{:.2}", r.seed_gflops()),
                format!("{:.2}", r.blocked_gflops()),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    let mut text = String::from(
        "Seed kernels (scalar loops with zero-skip, serial conv weight-grad)\n\
         vs the blocked GEMM engine (packed panels, 8x8 micro-kernel, fused\n\
         epilogue, convolution over the input read in place), best-of-reps\n\
         wall time:\n",
    );
    text.push_str(&format_table(
        &[
            "kernel @ shape",
            "seed",
            "blocked",
            "seed GF/s",
            "blocked GF/s",
            "speedup",
        ],
        &cells,
    ));
    Experiment {
        id: "table_kernels",
        title: "Seed vs blocked kernel engine wall time at benchmark shapes",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_every_kernel_row() {
        let e = table_kernels(true);
        assert_eq!(e.id, "table_kernels");
        assert!(e.text.contains("Dense forward"));
        assert!(e.text.contains("NT3 Conv1D fwd"));
        assert!(e.text.contains("NT3 Conv1D bwd"));
        assert!(e.text.contains("speedup"));
    }

    #[test]
    fn nt3_rows_are_marked() {
        let rows = measure_kernel_comparison(true);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows.iter().filter(|r| r.nt3).count(), 5);
        // Both convolutions are probed: the one-channel first layer and the
        // multi-channel second.
        for shape in ["x1→16 k5s2", "x8→16 k5s2"] {
            assert_eq!(rows.iter().filter(|r| r.name.contains(shape)).count(), 2);
        }
        for r in &rows {
            assert!(r.seed_s > 0.0 && r.blocked_s > 0.0);
            assert!(r.flops > 0.0);
        }
    }

    // Timing comparisons only mean something with optimizations on; the
    // debug-mode suite checks rendering above instead.
    #[cfg(not(debug_assertions))]
    #[test]
    fn blocked_engine_beats_seed_at_nt3_shapes() {
        for r in measure_kernel_comparison(false).iter().filter(|r| r.nt3) {
            assert!(
                r.speedup() > 1.0,
                "{}: blocked {:.4}s vs seed {:.4}s",
                r.name,
                r.blocked_s,
                r.seed_s
            );
        }
    }
}
