//! Simulated time.

/// A point in simulated time, in seconds.
///
/// Wraps `f64` with a total order, so breakpoints sort by it. Only finite
/// values are constructible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point.
    ///
    /// # Panics
    /// Panics on NaN/infinite or negative values.
    pub fn new(seconds: f64) -> Self {
        assert!(seconds.is_finite(), "SimTime must be finite");
        assert!(seconds >= 0.0, "SimTime must be non-negative");
        Self(seconds)
    }

    /// The value in seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite-only invariant makes partial_cmp total.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is always finite")
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(SimTime::ZERO.min(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        SimTime::new(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::new(1.5).to_string(), "1.500000s");
    }
}
