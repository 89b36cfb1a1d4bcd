//! Empirical scaling-law fitting in the Extra-P performance-model normal
//! form (PMNF).
//!
//! Extra-P models a measured cost metric as a small sum of
//! `c · N^a · log2^b(N)` terms, with the exponents drawn from a fixed
//! rational grid rather than free-fit — free exponents overfit noise,
//! while the grid spans every asymptotic class HPC codes actually exhibit
//! (Amdahl tails, linear scans, `N log N` sorts, quadratic collectives,
//! inverse strong-scaling …). This module implements the two forms the
//! reproduction's series need:
//!
//! * **power law** — `f(N) = c1 · N^a · log2^b(N)`;
//! * **constant plus power** — `f(N) = c0 + c1 · N^a · log2^b(N)` (the
//!   Amdahl shape: a serial floor plus a scaling term).
//!
//! For a fixed `(form, a, b)` candidate the coefficients are a *linear*
//! least-squares problem, solved in closed form with **relative**
//! residuals (`(f(N_i) − y_i)/y_i`), so a series spanning three orders of
//! magnitude is not dominated by its largest point. Model selection is
//! leave-one-out cross-validation: each candidate is scored by the mean
//! relative error of predicting every held-out point from the rest, and
//! the lowest score wins (ties resolve to the earliest candidate in the
//! fixed enumeration order, which lists simpler forms first).
//!
//! Everything is deterministic: candidates are enumerated from `const`
//! grids, each candidate's score depends only on its own arithmetic
//! (fixed summation order), and the optional thread-parallel grid search
//! writes per-candidate results by index — so fits are bit-identical at
//! any thread count.

use std::fmt;

/// One measured point of a scaling series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// The scale axis value (workers, bytes, replicas, …); must be ≥ 1.
    pub scale: f64,
    /// The measured metric (seconds, joules, …); must be > 0.
    pub value: f64,
}

/// The exponent grid, as exact rationals `(numerator, denominator)` so
/// enumeration order and display are deterministic. Negative exponents
/// cover strong-scaling (decreasing) series; the positive side matches
/// Extra-P's default quarter/third steps up to cubic.
pub const EXPONENT_GRID: &[(i32, u32)] = &[
    (-3, 1),
    (-5, 2),
    (-2, 1),
    (-3, 2),
    (-4, 3),
    (-1, 1),
    (-3, 4),
    (-2, 3),
    (-1, 2),
    (-1, 3),
    (-1, 4),
    (0, 1),
    (1, 4),
    (1, 3),
    (1, 2),
    (2, 3),
    (3, 4),
    (1, 1),
    (5, 4),
    (4, 3),
    (3, 2),
    (2, 1),
    (5, 2),
    (3, 1),
];

/// The logarithm-power grid (`log2^b(N)` factors).
pub const LOG_POWER_GRID: &[u32] = &[0, 1, 2];

/// A fitted analytic scaling model `c0 + c1 · N^(num/den) · log2^b(N)`
/// (`c0 = 0` for the pure power-law form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingModel {
    /// Additive constant (0 for the pure power law).
    pub c0: f64,
    /// Coefficient of the scaling term.
    pub c1: f64,
    /// Exponent numerator.
    pub exp_num: i32,
    /// Exponent denominator.
    pub exp_den: u32,
    /// Power of the `log2(N)` factor.
    pub log_pow: u32,
}

impl ScalingModel {
    /// The exponent as a float.
    pub fn exponent(&self) -> f64 {
        self.exp_num as f64 / self.exp_den as f64
    }

    /// The basis function `N^a · log2^b(N)` at scale `n`.
    pub fn basis(&self, n: f64) -> f64 {
        n.powf(self.exponent()) * n.log2().powi(self.log_pow as i32)
    }

    /// The model's prediction at scale `n`.
    pub fn predict(&self, n: f64) -> f64 {
        self.c0 + self.c1 * self.basis(n)
    }
}

/// Compact coefficient rendering: fixed-point in the human range,
/// scientific outside it.
fn fmt_coeff(x: f64) -> String {
    let a = x.abs();
    if a != 0.0 && !(1e-3..1e5).contains(&a) {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

impl fmt::Display for ScalingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.c0 != 0.0 {
            write!(f, "{} + ", fmt_coeff(self.c0))?;
        }
        write!(f, "{}", fmt_coeff(self.c1))?;
        if self.exp_num != 0 {
            if self.exp_den == 1 {
                write!(f, "·N^{}", self.exp_num)?;
            } else {
                write!(f, "·N^({}/{})", self.exp_num, self.exp_den)?;
            }
        }
        match self.log_pow {
            0 => {}
            1 => write!(f, "·log2(N)")?,
            b => write!(f, "·log2^{b}(N)")?,
        }
        Ok(())
    }
}

/// Why a series could not be fitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than three distinct scale points.
    NotEnoughPoints {
        /// Distinct scales supplied.
        have: usize,
    },
    /// A point's scale was below 1 or its value was not strictly positive
    /// and finite.
    InvalidPoint {
        /// Index of the offending point.
        index: usize,
    },
    /// Every candidate was rejected (degenerate geometry).
    NoViableCandidate,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NotEnoughPoints { have } => {
                write!(f, "need at least 3 distinct scales, have {have}")
            }
            FitError::InvalidPoint { index } => {
                write!(f, "point {index}: scale must be >= 1 and value > 0")
            }
            FitError::NoViableCandidate => write!(f, "no scaling-law candidate fits this series"),
        }
    }
}

impl std::error::Error for FitError {}

/// A selected and fully-fitted scaling law with its cross-validation
/// record — the object predictions, error bands, and regression flags
/// are derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    /// The winning model, fitted on every point.
    pub model: ScalingModel,
    /// Leave-one-out relative error per point (same order as the input).
    pub loo_rel_err: Vec<f64>,
    /// Mean of `loo_rel_err` (the model-selection score).
    pub cv_mean_rel_err: f64,
    /// Largest leave-one-out relative error.
    pub cv_max_rel_err: f64,
    /// Median leave-one-out relative error (robust to a single outlier;
    /// the regression-flag threshold builds on it).
    pub cv_median_rel_err: f64,
    /// Largest in-sample relative error of the final fit.
    pub insample_max_rel_err: f64,
    /// Number of points fitted.
    pub n_points: usize,
    /// Largest scale in the fitted data — predictions beyond it are
    /// extrapolations.
    pub largest_scale: f64,
}

impl FittedModel {
    /// Predicts the metric at scale `n`.
    pub fn predict(&self, n: f64) -> f64 {
        self.model.predict(n)
    }

    /// The stated relative error band for predictions up to 2× beyond
    /// [`FittedModel::largest_scale`]: four cross-validated mean errors
    /// (extrapolating doubles the lever arm of coefficient error, and the
    /// CV errors themselves are one-point-short fits), never tighter than
    /// 10% — scaling data below that is indistinguishable from timer
    /// noise.
    pub fn error_band_frac(&self) -> f64 {
        (4.0 * self.cv_mean_rel_err)
            .max(2.0 * self.cv_max_rel_err)
            .max(0.10)
    }

    /// The stated regression-flag threshold: five *median* leave-one-out
    /// errors (the median survives the regressed point inflating the
    /// other points' scores), floored at 15%.
    pub fn flag_threshold_frac(&self) -> f64 {
        (5.0 * self.cv_median_rel_err).max(0.15)
    }
}

/// One candidate of the deterministic grid search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    with_constant: bool,
    exp_num: i32,
    exp_den: u32,
    log_pow: u32,
}

/// Enumerates the candidate grid in its fixed order: the pure power laws
/// first (simpler form wins ties), then constant-plus-power.
fn candidates(n_points: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    for &with_constant in &[false, true] {
        // Constant-plus-power has two coefficients: leave-one-out needs
        // at least three training points, i.e. four points overall.
        if with_constant && n_points < 4 {
            continue;
        }
        for &(exp_num, exp_den) in EXPONENT_GRID {
            for &log_pow in LOG_POWER_GRID {
                // `c0 + c1·1` is collinear with the pure constant law.
                if with_constant && exp_num == 0 && log_pow == 0 {
                    continue;
                }
                out.push(Candidate {
                    with_constant,
                    exp_num,
                    exp_den,
                    log_pow,
                });
            }
        }
    }
    out
}

fn basis_of(c: &Candidate, n: f64) -> f64 {
    n.powf(c.exp_num as f64 / c.exp_den as f64) * n.log2().powi(c.log_pow as i32)
}

/// Fits the candidate's coefficients on `points` by relative least
/// squares. Returns `None` when the system is degenerate or the fitted
/// curve is not strictly positive over the data and its 4× extrapolation
/// (a negative "seconds" prediction disqualifies the shape).
fn fit_candidate(c: &Candidate, points: &[SamplePoint]) -> Option<ScalingModel> {
    let (mut c0, c1);
    if c.with_constant {
        // Regressors a_i = 1/y_i, b_i = basis_i/y_i, target 1.
        let (mut saa, mut sab, mut sbb, mut sa, mut sb) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for p in points {
            let a = 1.0 / p.value;
            let b = basis_of(c, p.scale) / p.value;
            saa += a * a;
            sab += a * b;
            sbb += b * b;
            sa += a;
            sb += b;
        }
        let det = saa * sbb - sab * sab;
        if !det.is_finite() || det.abs() < 1e-30 {
            return None;
        }
        c0 = (sa * sbb - sb * sab) / det;
        c1 = (saa * sb - sab * sa) / det;
    } else {
        // Single regressor u_i = basis_i/y_i, target 1.
        let (mut su, mut suu) = (0.0, 0.0);
        for p in points {
            let u = basis_of(c, p.scale) / p.value;
            su += u;
            suu += u * u;
        }
        if !suu.is_finite() || suu < 1e-30 {
            return None;
        }
        c0 = 0.0;
        c1 = su / suu;
    }
    if !c0.is_finite() || !c1.is_finite() {
        return None;
    }
    if c0.abs() < 1e-300 {
        c0 = 0.0;
    }
    let model = ScalingModel {
        c0,
        c1,
        exp_num: c.exp_num,
        exp_den: c.exp_den,
        log_pow: c.log_pow,
    };
    let largest = points.iter().fold(1.0f64, |m, p| m.max(p.scale));
    let positive = points
        .iter()
        .map(|p| p.scale)
        .chain([2.0 * largest, 4.0 * largest])
        .all(|n| {
            let y = model.predict(n);
            y.is_finite() && y > 0.0
        });
    positive.then_some(model)
}

/// Leave-one-out score of one candidate: mean relative prediction error
/// over the held-out points, or `None` when any reduced fit fails.
fn loo_errors(c: &Candidate, points: &[SamplePoint]) -> Option<Vec<f64>> {
    let mut errs = Vec::with_capacity(points.len());
    let mut rest = Vec::with_capacity(points.len() - 1);
    for (i, held) in points.iter().enumerate() {
        rest.clear();
        rest.extend(
            points
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, p)| *p),
        );
        let m = fit_candidate(c, &rest)?;
        let pred = m.predict(held.scale);
        if !pred.is_finite() {
            return None;
        }
        errs.push((pred - held.value).abs() / held.value);
    }
    Some(errs)
}

fn validate(points: &[SamplePoint]) -> Result<(), FitError> {
    for (i, p) in points.iter().enumerate() {
        if !(p.scale >= 1.0 && p.scale.is_finite() && p.value > 0.0 && p.value.is_finite()) {
            return Err(FitError::InvalidPoint { index: i });
        }
    }
    let mut scales: Vec<f64> = points.iter().map(|p| p.scale).collect();
    scales.sort_by(f64::total_cmp);
    scales.dedup();
    if scales.len() < 3 {
        return Err(FitError::NotEnoughPoints { have: scales.len() });
    }
    Ok(())
}

/// Fits the best scaling law to `points` (sequential grid search).
pub fn fit(points: &[SamplePoint]) -> Result<FittedModel, FitError> {
    fit_with_threads(points, 1)
}

/// Like [`fit`], with the candidate grid search parallelised across
/// `threads` contiguous blocks of candidates. Each candidate's score is
/// computed independently, the blocks come back in candidate order, and
/// the winner is chosen by a sequential scan in enumeration order —
/// results are **bit-identical** at any thread count.
pub fn fit_with_threads(points: &[SamplePoint], threads: usize) -> Result<FittedModel, FitError> {
    assert!(threads >= 1, "threads must be >= 1");
    validate(points)?;
    let cands = candidates(points.len());
    let blocks = parx::parallel_each(parx::chunk_ranges(cands.len(), threads), |_, block| {
        cands[block.start..block.end]
            .iter()
            .map(|cand| {
                loo_errors(cand, points)
                    .map(|errs| errs.iter().sum::<f64>() / errs.len() as f64)
                    .filter(|s| s.is_finite())
            })
            .collect::<Vec<_>>()
    });
    let scored: Vec<Option<f64>> = blocks.into_iter().flatten().collect();
    // A later candidate must beat the incumbent by more than float hair:
    // on exact-fit data a two-coefficient form can edge out the true
    // one-coefficient law by ~1e-17, and the simpler form should win
    // those ties. LOO scores are dimensionless relative errors, so an
    // absolute margin is meaningful.
    const TIE_MARGIN: f64 = 1e-9;
    let mut best_idx = None;
    let mut best_score = f64::INFINITY;
    for (i, s) in scored.iter().enumerate() {
        if let Some(score) = s {
            if *score + TIE_MARGIN < best_score {
                best_score = *score;
                best_idx = Some(i);
            }
        }
    }
    let winner = cands[best_idx.ok_or(FitError::NoViableCandidate)?];
    // The winner scored, so the full fit and every reduced fit succeed.
    let model = fit_candidate(&winner, points).ok_or(FitError::NoViableCandidate)?;
    let loo = loo_errors(&winner, points).ok_or(FitError::NoViableCandidate)?;
    let mut sorted = loo.clone();
    sorted.sort_by(f64::total_cmp);
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
    };
    let insample_max = points
        .iter()
        .map(|p| (model.predict(p.scale) - p.value).abs() / p.value)
        .fold(0.0f64, f64::max);
    Ok(FittedModel {
        model,
        cv_mean_rel_err: loo.iter().sum::<f64>() / loo.len() as f64,
        cv_max_rel_err: loo.iter().fold(0.0f64, |m, &e| m.max(e)),
        cv_median_rel_err: median,
        insample_max_rel_err: insample_max,
        n_points: points.len(),
        largest_scale: points.iter().fold(1.0f64, |m, p| m.max(p.scale)),
        loo_rel_err: loo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(f: impl Fn(f64) -> f64, scales: &[f64]) -> Vec<SamplePoint> {
        scales
            .iter()
            .map(|&n| SamplePoint {
                scale: n,
                value: f(n),
            })
            .collect()
    }

    #[test]
    fn recovers_linear_law_exactly() {
        let pts = series(|n| 3.0 * n, &[1.0, 2.0, 4.0, 8.0, 16.0]);
        let fit = fit(&pts).expect("fit");
        assert_eq!(fit.model.exp_num, 1);
        assert_eq!(fit.model.exp_den, 1);
        assert_eq!(fit.model.log_pow, 0);
        assert!((fit.model.c1 - 3.0).abs() < 1e-9);
        assert!(fit.cv_mean_rel_err < 1e-9);
        assert!((fit.predict(32.0) - 96.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_nlogn_law() {
        let pts = series(|n| 0.5 * n * n.log2(), &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let fit = fit(&pts).expect("fit");
        assert_eq!(
            (fit.model.exp_num, fit.model.exp_den, fit.model.log_pow),
            (1, 1, 1)
        );
        let pred = fit.predict(64.0);
        let truth = 0.5 * 64.0 * 6.0;
        assert!((pred - truth).abs() / truth < 1e-9);
    }

    #[test]
    fn recovers_amdahl_shape() {
        // Serial floor + perfectly-scaling part: t(N) = 10 + 100/N.
        let pts = series(|n| 10.0 + 100.0 / n, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        let fit = fit(&pts).expect("fit");
        assert!(
            fit.model.c0 > 9.0 && fit.model.c0 < 11.0,
            "c0 {}",
            fit.model.c0
        );
        assert_eq!((fit.model.exp_num, fit.model.exp_den), (-1, 1));
        let pred = fit.predict(64.0);
        let truth = 10.0 + 100.0 / 64.0;
        assert!((pred - truth).abs() / truth < 0.01, "{pred} vs {truth}");
    }

    #[test]
    fn rejects_degenerate_series() {
        assert!(matches!(
            fit(&series(|_| 1.0, &[1.0, 2.0])),
            Err(FitError::NotEnoughPoints { have: 2 })
        ));
        let mut bad = series(|n| n, &[1.0, 2.0, 4.0]);
        bad[1].value = -1.0;
        assert!(matches!(
            fit(&bad),
            Err(FitError::InvalidPoint { index: 1 })
        ));
    }

    #[test]
    fn constant_series_fits_constant_law() {
        let pts = series(|_| 7.5, &[1.0, 2.0, 4.0, 8.0]);
        let fit = fit(&pts).expect("fit");
        assert!((fit.predict(16.0) - 7.5).abs() < 1e-9);
        assert_eq!(fit.model.exp_num, 0);
        assert_eq!(fit.model.log_pow, 0);
    }

    #[test]
    fn display_renders_rational_exponents() {
        let m = ScalingModel {
            c0: 2.0,
            c1: 3.0,
            exp_num: 1,
            exp_den: 2,
            log_pow: 1,
        };
        let s = format!("{m}");
        assert!(s.contains("N^(1/2)"), "{s}");
        assert!(s.contains("log2(N)"), "{s}");
    }

    #[test]
    fn error_band_has_floor() {
        let pts = series(|n| 3.0 * n, &[1.0, 2.0, 4.0, 8.0]);
        let fit = fit(&pts).expect("fit");
        assert!((fit.error_band_frac() - 0.10).abs() < 1e-12);
        assert!((fit.flag_threshold_frac() - 0.15).abs() < 1e-12);
    }
}
