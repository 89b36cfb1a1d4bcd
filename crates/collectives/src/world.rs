//! Worker-world execution: spawn one thread per simulated rank.

use crate::comm::Communicator;
use obs::Timeline;
use std::time::Instant;

/// Runs `f(rank_communicator)` on `n` threads (one per rank) and returns
/// the per-rank results in rank order.
///
/// This is the reproduction's stand-in for `mpirun -np n`: each thread is
/// one Horovod worker pinned (conceptually) to one GPU or node. As when `n`
/// processes share a node, each rank's kernels get `1/n` of the hardware
/// threads ([`parx::among_peers`]) rather than all of them `n` times over.
///
/// # Panics
/// Propagates a panic if any worker panics.
pub fn run_workers<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Communicator) -> T + Send + Sync,
{
    run_workers_owned(n, |mut comm| f(&mut comm))
}

/// Like [`run_workers`], but hands each worker *ownership* of its
/// communicator: what a rank that trains needs, since the gradient-sync
/// optimizers take the endpoint by value, and what elastic recovery needs,
/// since surviving an injected crash means consuming the endpoint through
/// [`Communicator::shrink`](crate::Communicator::shrink) and continuing on
/// the smaller world.
///
/// # Panics
/// Propagates a panic if any worker panics.
pub fn run_workers_owned<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Communicator) -> T + Send + Sync,
{
    assert!(n > 0, "worker count must be positive");
    let world = Communicator::world(n);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| scope.spawn(move || parx::among_peers(n, || f(comm))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker rank panicked"))
            .collect()
    })
}

/// Broadcasts rank 0's parameter vector to every rank, recording the
/// `negotiate_broadcast` / `mpi_broadcast` spans that
/// `BroadcastGlobalVariablesHook` produces in a Horovod timeline.
///
/// The negotiation span models Horovod's coordination phase: every rank
/// must announce readiness before the broadcast proper starts, so a rank
/// that is still loading data delays all others — the effect the paper's
/// Figures 7/12/19 visualize.
pub fn broadcast_parameters(
    comm: &mut Communicator,
    params: &mut [f32],
    timeline: Option<(&Timeline, Instant)>,
) {
    let negotiate_start = Instant::now();
    // Negotiation: a barrier stands in for Horovod's readiness gossip.
    comm.barrier();
    let broadcast_start = Instant::now();
    comm.broadcast(0, params)
        .expect("broadcast failed: a worker died mid-collective");
    if let Some((tl, origin)) = timeline {
        let neg_us = negotiate_start.duration_since(origin).as_micros() as u64;
        let neg_dur = broadcast_start.duration_since(negotiate_start).as_micros() as u64;
        let bc_us = broadcast_start.duration_since(origin).as_micros() as u64;
        let bc_dur = broadcast_start.elapsed().as_micros() as u64;
        tl.record("negotiate_broadcast", comm.rank(), neg_us, neg_dur.max(1));
        tl.record("mpi_broadcast", comm.rank(), bc_us, bc_dur.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_see_their_own_rank() {
        let ranks = run_workers(5, |comm| comm.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    /// `n` ranks split the machine's kernel threads `n` ways; the caller's
    /// own budget is untouched.
    #[test]
    fn ranks_split_the_kernel_threads() {
        let all = parx::kernel_threads();
        for n in [1, 2, all * 2] {
            let seen = run_workers(n, |_| parx::kernel_threads());
            assert_eq!(seen, vec![(all / n).max(1); n]);
        }
        assert_eq!(parx::kernel_threads(), all);
    }

    #[test]
    fn single_worker_world() {
        let out = run_workers(1, |comm| comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "worker count must be positive")]
    fn zero_workers_panics() {
        run_workers(0, |_| ());
    }

    #[test]
    fn broadcast_parameters_synchronizes_weights() {
        let results = run_workers(4, |comm| {
            let mut params = vec![comm.rank() as f32 + 1.0; 8];
            broadcast_parameters(comm, &mut params, None);
            params
        });
        for r in results {
            assert_eq!(r, vec![1.0; 8]); // rank 0's values everywhere
        }
    }

    #[test]
    fn broadcast_parameters_records_timeline() {
        let tl = Timeline::new();
        let origin = Instant::now();
        let tl2 = tl.clone();
        run_workers(3, move |comm| {
            let mut params = vec![0.0f32; 16];
            broadcast_parameters(comm, &mut params, Some((&tl2, origin)));
        });
        let events = tl.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "negotiate_broadcast")
                .count(),
            3
        );
        assert_eq!(
            events.iter().filter(|e| e.name == "mpi_broadcast").count(),
            3
        );
    }

    #[test]
    fn slow_rank_delays_negotiation_for_all() {
        // The paper's key observation: data loading delays the broadcast.
        // Rank 1 sleeps before negotiating; every rank's negotiate span
        // must absorb that delay.
        let tl = Timeline::new();
        let origin = Instant::now();
        let tl2 = tl.clone();
        run_workers(3, move |comm| {
            if comm.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            let mut params = vec![0.0f32; 4];
            broadcast_parameters(comm, &mut params, Some((&tl2, origin)));
        });
        // The two fast ranks each stall in negotiation for ~50 ms; the slow
        // rank itself passes the barrier immediately on arrival.
        let stalled = tl
            .events()
            .iter()
            .filter(|e| e.name == "negotiate_broadcast" && e.dur_us >= 30_000)
            .count();
        assert!(
            stalled >= 2,
            "fast ranks should wait for the slow one, got {stalled} stalled"
        );
    }
}
