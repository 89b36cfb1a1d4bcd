//! Allreduce algorithms.
//!
//! [`ring_allreduce`] is the bandwidth-optimal algorithm used by NCCL and
//! baidu-allreduce (the lineage the paper cites for Horovod): a
//! reduce-scatter phase followed by an allgather phase, each of `n−1`
//! neighbour exchanges over a logical ring. Every rank moves `2(n−1)/n ×
//! |data|` elements regardless of `n`, which is why it scales — and it
//! pays `2(n−1)` message latencies one after the other, which is all a
//! small payload costs.
//!
//! The **one-exchange** algorithm ([`exchange_post`] + [`exchange_fold`])
//! pays one: every rank posts its whole vector to every peer and reduces
//! all `n` ring segments itself, each in the order the ring would have —
//! segment `s` as `((d_s + d_{s+1}) + …) + d_{s+n−1}`, ranks taken modulo
//! `n`. Every single addition has the same two operands as on the ring
//! (IEEE addition commutes, so which rank performs it does not matter),
//! hence the result is the ring's, bit for bit, for any `n`. It moves
//! `(n−1) × |data|` per rank, so [`Communicator::allreduce_sum`] only
//! takes it while that is cheaper than the latencies it saves
//! ([`exchange_fits`]).
//!
//! [`naive_allreduce`] (reduce-to-root then broadcast) is kept as the
//! ablation baseline; its root link carries `O(n × |data|)`.

use crate::comm::{add_from, copy_from, same_len, Communicator};
use crate::CommError;

/// Largest `(n−1) × |data|`, in bytes, that takes one exchange instead of
/// the ring. The ring's extra `2(n−1) − 1` sequential rounds cost ≈ 1–2 µs
/// each when the peer is met spinning and ≈ 20 µs when it is parked; the
/// exchange's extra `(n−1)(1 − 2/n) × |data|` of copy-and-add runs at
/// ≈ 5 GB/s per rank. Measured at worlds 2–8 the exchange wins below
/// ≈ 256–400 KiB of `(n−1) × |data|` and loses beyond — at `n = 2`, where
/// the two move the same bytes, because one large slot falls out of L2
/// where two half-sized ones did not (`experiments::table_overlap` renders
/// the per-call sweep; DESIGN §5k has the table).
const EXCHANGE_MAX_BYTES: usize = 256 * 1024;

/// Whether a sum-allreduce of `len` elements over `n` ranks takes one
/// exchange (latency-bound) rather than the ring (bandwidth-bound).
pub(crate) fn exchange_fits(n: usize, len: usize) -> bool {
    (n - 1) * len * std::mem::size_of::<f32>() <= EXCHANGE_MAX_BYTES
}

/// Balanced segment bounds: segment `i` of `n` over `len` elements.
/// Unlike `parx::chunk_ranges`, segments may be empty (needed when the
/// buffer is shorter than the ring).
fn segment(len: usize, n: usize, i: usize) -> (usize, usize) {
    let base = len / n;
    let extra = len % n;
    let start = i * base + i.min(extra);
    let seg_len = base + usize::from(i < extra);
    (start, start + seg_len)
}

/// In-place **sum** allreduce over the ring.
///
/// All ranks must pass buffers of identical length and call collectives in
/// the same order.
pub fn ring_allreduce(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
    comm.next_op();
    comm.record_allreduce(data.len());
    let (n, rank) = (comm.size(), comm.rank());
    ring_over(comm, data, n, rank, |i| i)
}

/// The ring among `n` members of the world, of which this rank is number
/// `me`; `member(i)` is the rank of member `i`. The caller has opened the
/// operation ([`Communicator::next_op`]).
pub(crate) fn ring_over(
    comm: &mut Communicator,
    data: &mut [f32],
    n: usize,
    me: usize,
    member: impl Fn(usize) -> usize,
) -> Result<(), CommError> {
    if n == 1 {
        return Ok(());
    }
    let next = member((me + 1) % n);
    let prev = member((me + n - 1) % n);
    let len = data.len();

    // Phase 1 — reduce-scatter: after n−1 steps, member r holds the fully
    // reduced segment (r+1) mod n.
    for step in 0..n - 1 {
        let (ss, se) = segment(len, n, (me + n - step) % n);
        let (rs, re) = segment(len, n, (me + n - step - 1) % n);
        let tag = comm.tag(step);
        comm.post(next, tag, &data[ss..se])?;
        comm.recv_with(prev, tag, |incoming| add_from(&mut data[rs..re], incoming))??;
    }

    // Phase 2 — allgather: circulate the finished segments.
    for step in 0..n - 1 {
        let (ss, se) = segment(len, n, (me + 1 + n - step) % n);
        let (rs, re) = segment(len, n, (me + n - step) % n);
        // Offset the tag space past phase 1 so the two phases cannot alias.
        let tag = comm.tag(n - 1 + step);
        comm.post(next, tag, &data[ss..se])?;
        comm.recv_with(prev, tag, |incoming| copy_from(&mut data[rs..re], incoming))??;
    }
    Ok(())
}

/// In-place **sum** allreduce in one exchange, whatever the payload size:
/// the algorithm [`Communicator::allreduce_sum`] picks for small payloads,
/// by name, for the ablation table and the latency probe.
pub fn exchange_allreduce(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
    let tag = exchange_post(comm, data)?;
    exchange_fold(comm, tag, data)
}

/// First half of the one-exchange sum-allreduce: opens the operation and
/// posts `data` to every peer. Returns the tag [`exchange_fold`] finishes
/// it by; other collectives may be started in between as long as every
/// rank folds in the order it posted.
pub(crate) fn exchange_post(comm: &mut Communicator, data: &[f32]) -> Result<u64, CommError> {
    comm.next_op();
    comm.record_allreduce(data.len());
    let tag = comm.tag(0);
    let (n, rank) = (comm.size(), comm.rank());
    for k in 1..n {
        comm.post((rank + k) % n, tag, data)?;
    }
    Ok(tag)
}

/// Whether every peer's half of the oldest unfolded exchange has arrived,
/// i.e. [`exchange_fold`] would not wait.
pub(crate) fn exchange_ready(comm: &Communicator) -> bool {
    (0..comm.size()).all(|k| k == comm.rank() || comm.has_message(k))
}

/// Second half: reduces every ring segment out of the peers' slots, in the
/// ring's order, and hands the slots back. `data` must still hold what
/// [`exchange_post`] sent.
pub(crate) fn exchange_fold(
    comm: &mut Communicator,
    tag: u64,
    data: &mut [f32],
) -> Result<(), CommError> {
    let mut prefix = std::mem::take(&mut comm.scratch);
    let folded = fold_segments(comm, tag, data, &mut prefix);
    comm.scratch = prefix;
    folded?;
    for k in (0..comm.size()).filter(|&k| k != comm.rank()) {
        comm.release(k);
    }
    Ok(())
}

/// Segment `s` is summed along the chain of ranks `s, s+1, …, s+n−1`
/// (mod `n`), the order in which the ring's reduce-scatter passes it on.
/// `data` starts as this rank's own term and ends as the sum; where two or
/// more ranks come before this one in a chain, their partial sum is built
/// in `prefix` and this rank's term joins it when its turn comes.
fn fold_segments(
    comm: &Communicator,
    tag: u64,
    data: &mut [f32],
    prefix: &mut Vec<f32>,
) -> Result<(), CommError> {
    let (n, rank) = (comm.size(), comm.rank());
    let len = data.len();
    if n > 2 && prefix.len() < len.div_ceil(n) {
        prefix.resize(len.div_ceil(n), 0.0);
    }
    for s in 0..n {
        let (lo, hi) = segment(len, n, s);
        let acc = &mut data[lo..hi];
        let own_at = (rank + n - s) % n;
        let prefix = &mut prefix[..if own_at >= 2 { hi - lo } else { 0 }];
        for at in 0..n {
            let k = (s + at) % n;
            if k == rank {
                if own_at >= 2 {
                    add_from(acc, prefix)?;
                }
                continue;
            }
            comm.peek_with(k, tag, |theirs| {
                same_len(len, theirs)?;
                let theirs = &theirs[lo..hi];
                if at > own_at || own_at == 1 {
                    add_from(acc, theirs)
                } else if at == 0 {
                    copy_from(prefix, theirs)
                } else {
                    add_from(prefix, theirs)
                }
            })??;
        }
    }
    Ok(())
}

/// In-place **sum** allreduce via gather-to-root + broadcast — the naive
/// baseline for the ablation benchmark.
pub fn naive_allreduce(comm: &mut Communicator, data: &mut [f32]) -> Result<(), CommError> {
    comm.next_op();
    let n = comm.size();
    let rank = comm.rank();
    comm.record_allreduce(data.len());
    if n == 1 {
        return Ok(());
    }
    if rank == 0 {
        for src in 1..n {
            comm.recv_with(src, comm.tag(0), |incoming| add_from(data, incoming))??;
        }
    } else {
        comm.post(0, comm.tag(0), data)?;
    }
    comm.broadcast(0, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_workers;
    use proptest::prelude::*;

    #[test]
    fn segment_bounds_partition() {
        for len in [0usize, 1, 5, 16, 17] {
            for n in [1usize, 2, 3, 7, 20] {
                let mut cursor = 0;
                for i in 0..n {
                    let (s, e) = segment(len, n, i);
                    assert_eq!(s, cursor, "len {len} n {n} i {i}");
                    assert!(e >= s);
                    cursor = e;
                }
                assert_eq!(cursor, len);
            }
        }
    }

    fn check_sum_allreduce(n: usize, len: usize, ring: bool) {
        let results = run_workers(n, move |comm| {
            let rank = comm.rank() as f32;
            let mut data: Vec<f32> = (0..len).map(|i| rank + i as f32).collect();
            if ring {
                ring_allreduce(comm, &mut data).unwrap();
            } else {
                naive_allreduce(comm, &mut data).unwrap();
            }
            data
        });
        // Expected: sum over ranks of (rank + i) = n*i + n(n-1)/2.
        let rank_sum = (n * (n - 1) / 2) as f32;
        for r in &results {
            for (i, &x) in r.iter().enumerate() {
                let expect = n as f32 * i as f32 + rank_sum;
                assert!(
                    (x - expect).abs() < 1e-3,
                    "n={n} len={len} i={i}: {x} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn ring_allreduce_various_world_sizes() {
        for n in [1usize, 2, 3, 4, 7, 8] {
            check_sum_allreduce(n, 64, true);
        }
    }

    #[test]
    fn ring_allreduce_buffer_shorter_than_ring() {
        // len < n forces empty segments.
        check_sum_allreduce(6, 3, true);
        check_sum_allreduce(5, 1, true);
        check_sum_allreduce(4, 0, true);
    }

    #[test]
    fn naive_allreduce_matches() {
        for n in [1usize, 2, 5] {
            check_sum_allreduce(n, 32, false);
        }
    }

    #[test]
    fn mean_allreduce_averages() {
        let results = run_workers(4, |comm| {
            let mut data = vec![comm.rank() as f32; 10];
            comm.allreduce_mean(&mut data).unwrap();
            data
        });
        for r in results {
            for x in r {
                assert!((x - 1.5).abs() < 1e-6); // mean of 0,1,2,3
            }
        }
    }

    #[test]
    fn repeated_allreduces_stay_aligned() {
        let results = run_workers(3, |comm| {
            let mut acc = vec![1.0f32; 8];
            for _ in 0..20 {
                comm.allreduce_mean(&mut acc).unwrap();
            }
            acc
        });
        for r in results {
            for x in r {
                assert!((x - 1.0).abs() < 1e-4);
            }
        }
    }

    /// Per-rank inputs whose sum depends on the order it is taken in:
    /// magnitudes spread over eight decades, both signs.
    fn rank_inputs(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        use xrng::RandomSource;
        (0..n)
            .map(|r| {
                let mut rng = xrng::seeded(xrng::derive_seed(seed, r as u64));
                (0..len)
                    .map(|_| (rng.next_f32() - 0.5) * 10f32.powi((rng.next_f32() * 8.0) as i32 - 4))
                    .collect()
            })
            .collect()
    }

    type Algo = fn(&mut Communicator, &mut [f32]) -> Result<(), CommError>;

    fn reduced_bits(inputs: &[Vec<f32>], algo: Algo) -> Vec<Vec<u32>> {
        run_workers(inputs.len(), |comm| {
            let mut data = inputs[comm.rank()].clone();
            algo(comm, &mut data).unwrap();
            data.iter().map(|x| x.to_bits()).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// The one-exchange algorithm, and whichever algorithm
        /// `allreduce_sum` picks, produce the ring's bits on every rank:
        /// at every world size, at the lengths where segments are empty,
        /// one element or uneven, at the `narrow_steps` payload, and on
        /// both sides of the size where `allreduce_sum` changes algorithm.
        #[test]
        fn every_algorithm_reduces_to_the_rings_bits(seed in 0u64..1000) {
            for n in 1usize..=8 {
                let crossover = EXCHANGE_MAX_BYTES / 4 / (n - 1).max(1);
                prop_assert!(exchange_fits(n, crossover));
                prop_assert!(n == 1 || !exchange_fits(n, crossover + 1));
                let lens = [0, 1, n - 1, n, n + 1, 12_417, crossover - 1, crossover, crossover + 1];
                for len in lens {
                    let inputs = rank_inputs(n, len, seed);
                    let ring = reduced_bits(&inputs, ring_allreduce);
                    let exchange = reduced_bits(&inputs, exchange_allreduce);
                    prop_assert!(exchange == ring, "exchange differs at n {} len {}", n, len);
                    let auto = reduced_bits(&inputs, |c, d| c.allreduce_sum(d));
                    prop_assert!(auto == ring, "allreduce_sum differs at n {} len {}", n, len);
                    let agree = ring.iter().all(|r| r == &ring[0]);
                    prop_assert!(agree, "ranks disagree at n {} len {}", n, len);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn ring_equals_local_sum(n in 1usize..6, len in 0usize..40, seed in 0u64..50) {
            use xrng::RandomSource;
            // Generate per-rank vectors up front so the expected sum is known.
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|r| {
                    let mut rng = xrng::seeded(xrng::derive_seed(seed, r as u64));
                    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
                })
                .collect();
            let mut expected = vec![0.0f32; len];
            for v in &inputs {
                for (e, &x) in expected.iter_mut().zip(v) {
                    *e += x;
                }
            }
            let inputs2 = inputs.clone();
            let results = run_workers(n, move |comm| {
                let mut data = inputs2[comm.rank()].clone();
                ring_allreduce(comm, &mut data).unwrap();
                data
            });
            for r in &results {
                for (a, b) in r.iter().zip(&expected) {
                    prop_assert!((a - b).abs() < 1e-3);
                }
            }
        }
    }
}
