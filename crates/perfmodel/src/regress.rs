//! Performance-regression detection against fitted scaling laws.
//!
//! A fresh benchmark series should lie on *some* smooth scaling law; a
//! single scale point that the law fitted to the **other** points cannot
//! predict is exactly what a regression (or a broken measurement) looks
//! like. The detector therefore reuses the fitter's leave-one-out
//! machinery: point `i` is flagged when predicting it from the rest
//! misses by more than the fitted model's stated
//! [`FittedModel::flag_threshold_frac`] — a median-based threshold, so
//! the regressed point inflating everyone else's fit does not hide it.
//! `table_perfmodel` asserts it on a simulated series with one injected
//! slowdown.

use crate::fit::{fit, FitError, FittedModel, SamplePoint};

/// One point the fitted law could not predict.
#[derive(Debug, Clone, PartialEq)]
pub struct Flag {
    /// Scale of the suspicious point.
    pub scale: f64,
    /// Measured value.
    pub measured: f64,
    /// The full fit's prediction at that scale (context for the report;
    /// the flag decision uses the leave-one-out prediction error).
    pub predicted: f64,
    /// Leave-one-out relative error that tripped the flag.
    pub loo_rel_err: f64,
}

/// Fits `points` and returns the fitted law plus every point whose
/// leave-one-out prediction error exceeds the stated flag threshold.
pub fn check_points(points: &[SamplePoint]) -> Result<(FittedModel, Vec<Flag>), FitError> {
    let fitted = fit(points)?;
    let threshold = fitted.flag_threshold_frac();
    let flags = points
        .iter()
        .zip(&fitted.loo_rel_err)
        .filter(|&(_, &err)| err > threshold)
        .map(|(p, &err)| Flag {
            scale: p.scale,
            measured: p.value,
            predicted: fitted.predict(p.scale),
            loo_rel_err: err,
        })
        .collect();
    Ok((fitted, flags))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_series(n: usize) -> Vec<SamplePoint> {
        (0..n)
            .map(|i| {
                let scale = (1 << i) as f64;
                SamplePoint {
                    scale,
                    value: 2.0 + 30.0 / scale,
                }
            })
            .collect()
    }

    #[test]
    fn clean_series_has_no_flags() {
        let (fitted, flags) = check_points(&clean_series(7)).expect("fit");
        assert!(flags.is_empty(), "clean data flagged: {flags:?}");
        assert!(fitted.cv_mean_rel_err < 0.01);
    }

    #[test]
    fn injected_regression_is_flagged_exactly_once() {
        let mut pts = clean_series(7);
        pts[4].value *= 1.6; // +60% at scale 16
        let (_, flags) = check_points(&pts).expect("fit");
        assert_eq!(flags.len(), 1, "flags: {flags:?}");
        assert_eq!(flags[0].scale, 16.0);
        assert!(flags[0].loo_rel_err > 0.15);
    }
}
