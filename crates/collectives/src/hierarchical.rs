//! Hierarchical (two-level) allreduce.
//!
//! NCCL on Summit exploits the node structure: 6 GPUs share NVLink inside
//! an AC922 node, and only node leaders cross the InfiniBand fabric. The
//! two-level algorithm — intra-node reduce to a leader, ring allreduce
//! among leaders, intra-node broadcast — moves `(n/g−1)/(n/g)` of the data
//! across the slow fabric instead of `(n−1)/n` with a flat ring over all
//! ranks, and shrinks the latency chain from `n−1` hops to `g−1 + n/g−1`.
//!
//! This module provides the *functional* implementation used by the
//! ablation benchmark; the analytic counterpart lives in
//! `cluster::comm`.

use crate::comm::{add_from, copy_from, Communicator};
use crate::ring::{ring_allreduce, ring_over};
use crate::CommError;

/// In-place **sum** allreduce using the two-level algorithm with
/// `per_node` ranks per simulated node.
///
/// Works for any world size; a trailing partial node is handled like a
/// full one. With `per_node == 1` this degenerates to the flat ring.
///
/// # Panics
/// Panics if `per_node == 0`.
pub fn hierarchical_allreduce(
    comm: &mut Communicator,
    data: &mut [f32],
    per_node: usize,
) -> Result<(), CommError> {
    assert!(per_node > 0, "per_node must be positive");
    let n = comm.size();
    let rank = comm.rank();
    if per_node == 1 || n <= per_node {
        // Single level suffices.
        return ring_allreduce(comm, data);
    }
    comm.next_op();
    comm.record_allreduce(data.len());
    let node = rank / per_node;
    let local = rank % per_node;
    let leader = node * per_node;
    let node_size = per_node.min(n - leader);

    // Level 1 — intra-node reduce to the leader.
    if local == 0 {
        for member in 1..node_size {
            comm.recv_with(leader + member, comm.tag(member), |incoming| {
                add_from(data, incoming)
            })??;
        }
    } else {
        comm.post(leader, comm.tag(local), data)?;
    }

    // Level 2 — the ring among the node leaders (ranks `0, g, 2g, …`), as
    // an operation of its own. Non-leaders open it too, so that every
    // rank's operation counter stays aligned.
    comm.next_op();
    if local == 0 {
        ring_over(comm, data, n.div_ceil(per_node), node, |i| i * per_node)?;
    }

    // Level 3 — intra-node broadcast of the result.
    if local == 0 {
        for member in 1..node_size {
            comm.post(leader + member, comm.tag(per_node + member), data)?;
        }
    } else {
        comm.recv_with(leader, comm.tag(per_node + local), |incoming| {
            copy_from(data, incoming)
        })??;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_workers;

    fn check(n: usize, per_node: usize, len: usize) {
        let results = run_workers(n, move |comm| {
            let rank = comm.rank() as f32;
            let mut data: Vec<f32> = (0..len).map(|i| rank + i as f32).collect();
            hierarchical_allreduce(comm, &mut data, per_node).unwrap();
            data
        });
        let rank_sum = (n * (n - 1) / 2) as f32;
        for (r, result) in results.iter().enumerate() {
            for (i, &x) in result.iter().enumerate() {
                let expect = n as f32 * i as f32 + rank_sum;
                assert!(
                    (x - expect).abs() < 1e-3,
                    "n={n} g={per_node} rank={r} i={i}: {x} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn matches_flat_ring_results() {
        check(6, 3, 64); // 2 full nodes
        check(8, 4, 32); // 2 full nodes
        check(4, 2, 10);
    }

    #[test]
    fn partial_trailing_node() {
        check(7, 3, 48); // nodes of 3,3,1
        check(5, 2, 16); // nodes of 2,2,1
    }

    #[test]
    fn degenerate_cases() {
        check(4, 1, 16); // per_node=1 -> flat ring
        check(3, 8, 16); // single node -> flat ring
        check(1, 2, 8); // one rank
    }

    #[test]
    fn short_buffers() {
        check(6, 2, 2); // fewer elements than leaders
        check(6, 3, 0); // empty buffer
    }

    #[test]
    fn repeated_calls_stay_aligned() {
        let results = run_workers(6, |comm| {
            let mut acc = vec![1.0f32; 32];
            for _ in 0..10 {
                hierarchical_allreduce(comm, &mut acc, 3).unwrap();
                for x in acc.iter_mut() {
                    *x /= 6.0;
                }
            }
            acc
        });
        for r in results {
            for x in r {
                assert!((x - 1.0).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn mixing_with_other_collectives_stays_aligned() {
        // Hierarchical allreduce interleaved with broadcast and flat ring:
        // op counters must remain consistent across ranks.
        let results = run_workers(6, |comm| {
            let mut a = vec![comm.rank() as f32; 8];
            hierarchical_allreduce(comm, &mut a, 3).unwrap();
            let mut b = vec![comm.rank() as f32; 4];
            comm.broadcast(2, &mut b).unwrap();
            let mut c = vec![1.0f32; 6];
            comm.allreduce_sum(&mut c).unwrap();
            (a[0], b[0], c[0])
        });
        for (a, b, c) in results {
            assert_eq!(a, 15.0); // sum 0..5
            assert_eq!(b, 2.0); // root 2's value
            assert_eq!(c, 6.0); // 1.0 × 6 ranks
        }
    }

    /// The two-level result is pinned to the bits it had when the leaders'
    /// ring was a hand-written copy of the flat one: full and partial
    /// trailing nodes, uneven segments, order-sensitive inputs.
    #[test]
    fn result_bits_are_pinned() {
        use xrng::RandomSource;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (n, per_node, len) in [
            (6usize, 3usize, 64usize),
            (7, 3, 48),
            (8, 4, 1000),
            (5, 2, 17),
        ] {
            let results = run_workers(n, move |comm| {
                let mut rng = xrng::seeded(xrng::derive_seed(77, comm.rank() as u64));
                let mut data: Vec<f32> = (0..len)
                    .map(|_| (rng.next_f32() - 0.5) * 10f32.powi((rng.next_f32() * 8.0) as i32 - 4))
                    .collect();
                hierarchical_allreduce(comm, &mut data, per_node).unwrap();
                data
            });
            for x in results.iter().flatten() {
                hash = (hash ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x265b_98ec_008b_e813, "{hash:#x}");
    }

    #[test]
    #[should_panic(expected = "per_node must be positive")]
    fn zero_per_node_panics() {
        let mut world = Communicator::world(2);
        let mut data = vec![0.0f32; 4];
        hierarchical_allreduce(&mut world[0], &mut data, 0).unwrap();
    }
}
