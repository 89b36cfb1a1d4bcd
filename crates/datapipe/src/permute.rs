//! Seeded global shuffle as an index-mapping bijection.
//!
//! A fleet of concurrent jobs cannot afford one materialized permutation
//! vector per `(job, epoch)` — at P1B3 scale that is hundreds of megabytes
//! of `usize` per epoch per job, all of it pure bookkeeping. Following the
//! reproducible-pipeline literature (Uber's shared data service shuffles by
//! *function*, not by table), the shuffle here is a keyed Feistel network
//! over the row-index domain: `apply(i)` computes where row slot `i` lands,
//! in O(1) space, and the full map `[0, n) → [0, n)` is a bijection for
//! every seed and every `n` — including non-powers-of-two, via
//! cycle-walking.
//!
//! Determinism is structural: the permutation is a pure function of
//! `(n, job seed, epoch)`, so a job's batch stream is identical whether it
//! runs alone or next to 31 neighbours, on 1 worker thread or 8.

use xrng::derive_seed;

/// Feistel rounds. Four rounds of a keyed balanced network are the
/// standard floor for statistical mixing (Luby–Rackoff); the keys differ
/// per round, per job, and per epoch.
const ROUNDS: usize = 4;

/// A keyed bijection over `[0, n)` computed per index, never materialized.
#[derive(Debug, Clone)]
pub struct EpochPermutation {
    n: u64,
    /// Bits in each Feistel half; the walk domain is `2^(2·half_bits)`.
    half_bits: u32,
    keys: [u64; ROUNDS],
}

impl EpochPermutation {
    /// Builds the permutation of `[0, n)` keyed by `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        let n = n as u64;
        // Smallest even-bit domain covering n: the balanced network needs
        // two equal halves. n ≤ 1 still gets a 2-bit domain; the walk
        // collapses it to the identity in at most 4 steps.
        let bits = 64 - n.saturating_sub(1).leading_zeros().min(63);
        let half_bits = bits.div_ceil(2).max(1);
        let mut keys = [0u64; ROUNDS];
        for (round, key) in keys.iter_mut().enumerate() {
            *key = derive_seed(seed, 0xFE15_7E00 + round as u64);
        }
        Self { n, half_bits, keys }
    }

    /// The permutation a job uses for one epoch: keys derived from the
    /// job's seed and the epoch index, so every epoch reshuffles and every
    /// job shuffles independently.
    pub fn for_job_epoch(n: usize, job_seed: u64, epoch: u64) -> Self {
        Self::new(n, derive_seed(derive_seed(job_seed, 0x5EED_5817), epoch))
    }

    /// Domain size `n`.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Maps slot `i` to its shuffled row index.
    ///
    /// # Panics
    /// Panics if `i >= n`.
    pub fn apply(&self, i: usize) -> usize {
        let i = i as u64;
        assert!(i < self.n, "index {i} out of range for domain {}", self.n);
        let mask = (1u64 << self.half_bits) - 1;
        let mut x = i;
        // Cycle-walk: the network permutes the padded even-bit domain;
        // re-encrypt until the image lands back inside [0, n). Because the
        // padded map is itself a bijection, the walk always terminates and
        // the restriction to [0, n) stays a bijection.
        loop {
            let mut l = x >> self.half_bits;
            let mut r = x & mask;
            for key in self.keys {
                let f = mix(r ^ key) & mask;
                (l, r) = (r, l ^ f);
            }
            x = (l << self.half_bits) | r;
            if x < self.n {
                return x as usize;
            }
        }
    }
}

/// SplitMix64-style finalizer used as the Feistel round function.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrng::RandomSource;

    fn assert_bijection(n: usize, seed: u64) {
        let p = EpochPermutation::new(n, seed);
        let mut seen = vec![false; n];
        for i in 0..n {
            let j = p.apply(i);
            assert!(j < n, "n={n} seed={seed:#x}: {i} -> {j} escapes domain");
            assert!(!seen[j], "n={n} seed={seed:#x}: {j} hit twice");
            seen[j] = true;
        }
    }

    #[test]
    fn bijection_on_edge_domains() {
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 127] {
            for seed in [0, 1, 0xDEAD_BEEF] {
                assert_bijection(n, seed);
            }
        }
    }

    #[test]
    fn bijection_on_random_non_power_of_two_domains() {
        let mut rng = xrng::seeded(0x00B1_1EC7);
        for _ in 0..40 {
            let n = 1 + rng.next_index(5000);
            assert_bijection(n, rng.next_u64());
        }
    }

    #[test]
    fn deterministic_in_job_and_epoch() {
        let a = EpochPermutation::for_job_epoch(1000, 7, 3);
        let b = EpochPermutation::for_job_epoch(1000, 7, 3);
        for i in 0..1000 {
            assert_eq!(a.apply(i), b.apply(i));
        }
    }

    #[test]
    fn different_jobs_and_epochs_shuffle_differently() {
        let n = 512;
        let base = EpochPermutation::for_job_epoch(n, 1, 0);
        for (job, epoch) in [(1u64, 1u64), (2, 0), (9, 5)] {
            let other = EpochPermutation::for_job_epoch(n, job, epoch);
            let same = (0..n).filter(|&i| base.apply(i) == other.apply(i)).count();
            assert!(
                same < n / 4,
                "job {job} epoch {epoch}: {same}/{n} fixed points"
            );
        }
    }

    #[test]
    fn actually_shuffles() {
        let p = EpochPermutation::new(1024, 42);
        let fixed = (0..1024).filter(|&i| p.apply(i) == i).count();
        assert!(fixed < 32, "{fixed}/1024 fixed points is not a shuffle");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        EpochPermutation::new(10, 1).apply(10);
    }
}
