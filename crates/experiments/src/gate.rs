//! Host-capability gating for the timed acceptance asserts.
//!
//! Several tables back their claims with wall-clock measurements, and
//! those asserts are only meaningful when (a) the binary is an optimized
//! build — debug timings are dominated by unoptimized code, (b) the run
//! is in full mode — quick mode's shrunken workloads are too noisy to
//! gate on, and (c) for comparisons that need real parallelism, the host
//! has at least two hardware threads. Every table used to re-derive this
//! trio inline; this module is the single shared answer.

/// True when full-mode wall-clock asserts are meaningful: a release
/// (optimized) build running the full workload.
pub fn timed_asserts_enabled(quick: bool) -> bool {
    !quick && !cfg!(debug_assertions)
}

/// True when the host can physically run two threads in parallel —
/// required before asserting that overlapped or multi-worker execution
/// beats sequential execution.
pub fn multicore_host() -> bool {
    ranks_fit_host(2)
}

/// True when `ranks` worker threads each get a hardware thread of their
/// own. The bucketed sync engine folds a bucket on the rank's own thread
/// while its *peers* are still computing; with more ranks than hardware
/// threads the peers are not running at all, so there is nothing for a
/// fold to hide under and overlap cannot be asserted to win.
pub fn ranks_fit_host(ranks: usize) -> bool {
    std::thread::available_parallelism().is_ok_and(|p| p.get() >= ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_never_enables_timed_asserts() {
        assert!(!timed_asserts_enabled(true));
    }

    #[test]
    fn full_mode_tracks_build_profile() {
        assert_eq!(timed_asserts_enabled(false), !cfg!(debug_assertions));
    }

    #[test]
    fn multicore_probe_is_consistent() {
        // The probe is pure environment; just pin that it does not panic
        // and agrees with the raw API.
        let raw = std::thread::available_parallelism()
            .map(|p| p.get() >= 2)
            .unwrap_or(false);
        assert_eq!(multicore_host(), raw);
    }
}
