//! Property tests of the scaling-law fitter: known synthetic laws with
//! seeded noise are recovered within tolerance, and fits are
//! bit-deterministic across thread counts {1, 2, 4}.

use perfmodel::fit::{fit_with_threads, SamplePoint, EXPONENT_GRID, LOG_POWER_GRID};
use proptest::prelude::*;
use xrng::RandomSource;

/// Scales start at 2 so `log2(N)` factors never zero a data value.
const SCALES: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

fn synthetic(
    c: f64,
    exp_idx: usize,
    log_idx: usize,
    noise_frac: f64,
    seed: u64,
) -> Vec<SamplePoint> {
    let (num, den) = EXPONENT_GRID[exp_idx];
    let a = num as f64 / den as f64;
    let b = LOG_POWER_GRID[log_idx] as i32;
    let mut rng = xrng::seeded(seed);
    SCALES
        .iter()
        .map(|&n| {
            let truth = c * n.powf(a) * n.log2().powi(b);
            let eps = (2.0 * rng.next_f64() - 1.0) * noise_frac;
            SamplePoint {
                scale: n,
                value: truth * (1.0 + eps),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With 1% multiplicative noise the fitter must recover the
    /// generating law well enough to predict 2× beyond the largest
    /// measured scale within 15%, and within-range points within 5%.
    #[test]
    fn recovers_synthetic_laws_within_tolerance(
        exp_idx in 0usize..EXPONENT_GRID.len(),
        log_idx in 0usize..LOG_POWER_GRID.len(),
        c in 0.1f64..50.0,
        seed in 0u64..1_000_000,
    ) {
        let pts = synthetic(c, exp_idx, log_idx, 0.01, seed);
        let fitted = fit_with_threads(&pts, 1).expect("synthetic series must fit");

        let (num, den) = EXPONENT_GRID[exp_idx];
        let a = num as f64 / den as f64;
        let b = LOG_POWER_GRID[log_idx] as i32;
        let truth = |n: f64| c * n.powf(a) * n.log2().powi(b);

        // Interpolation: every measured scale within 5%.
        for &n in &SCALES {
            let rel = (fitted.predict(n) - truth(n)).abs() / truth(n);
            prop_assert!(rel < 0.05, "in-range miss {rel:.4} at N={n}");
        }
        // Extrapolation at 2× beyond the largest measured scale.
        let n2 = 2.0 * SCALES[SCALES.len() - 1];
        let rel = (fitted.predict(n2) - truth(n2)).abs() / truth(n2);
        prop_assert!(rel < 0.15, "2x-extrapolation miss {rel:.4}");
        // The stated band must cover the cross-validated record.
        prop_assert!(fitted.error_band_frac() >= fitted.cv_mean_rel_err);
    }

    /// The grid search parallelises over candidates; selection and
    /// coefficients must be bit-identical at 1, 2, and 4 threads even on
    /// noisy data with no clean winner.
    #[test]
    fn fits_are_bit_deterministic_across_thread_counts(
        exp_idx in 0usize..EXPONENT_GRID.len(),
        log_idx in 0usize..LOG_POWER_GRID.len(),
        c in 0.1f64..50.0,
        noise in 0.0f64..0.30,
        seed in 0u64..1_000_000,
    ) {
        let pts = synthetic(c, exp_idx, log_idx, noise, seed);
        let reference = fit_with_threads(&pts, 1);
        for threads in [2usize, 4] {
            let other = fit_with_threads(&pts, threads);
            match (&reference, &other) {
                (Ok(r), Ok(o)) => {
                    prop_assert_eq!(r.model.exp_num, o.model.exp_num);
                    prop_assert_eq!(r.model.exp_den, o.model.exp_den);
                    prop_assert_eq!(r.model.log_pow, o.model.log_pow);
                    prop_assert_eq!(r.model.c0.to_bits(), o.model.c0.to_bits());
                    prop_assert_eq!(r.model.c1.to_bits(), o.model.c1.to_bits());
                    prop_assert_eq!(
                        r.cv_mean_rel_err.to_bits(),
                        o.cv_mean_rel_err.to_bits()
                    );
                    let bits =
                        |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&r.loo_rel_err), bits(&o.loo_rel_err));
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "thread count changed fit success"),
            }
        }
    }
}
