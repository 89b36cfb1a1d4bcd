//! The communicator: the point-to-point wire plus the collectives built on
//! it.
//!
//! **The wire.** Every ordered pair of ranks `(src, dst)` shares one
//! bounded FIFO of [`LANE_SLOTS`] recycled slot buffers. [`Communicator::
//! post`] copies a payload into the next free slot; [`Communicator::
//! recv_with`] lends the oldest slot to the caller, which adds or copies
//! straight out of it, and hands the slot back. Nothing on the wire
//! allocates once each slot has seen the lane's largest payload, and that
//! happens on the first such message: a payload larger than any before
//! grows every slot of its lane at once.
//!
//! Messages carry a tag derived from a per-rank operation counter. All
//! ranks execute the same sequence of collectives (the SPMD contract that
//! Horovod also relies on), and a lane delivers in the order its one
//! sender posted, so the oldest message of a lane *is* the one the
//! receiver's current step expects — there is no reorder buffer. The tag
//! is only checked: an older one is residue of a collective that failed
//! half way and is discarded, a newer one means the sender has moved on
//! without this rank and surfaces as [`CommError::PeerLost`].
//!
//! **Waiting.** One routine, [`Communicator::wait`], serves both a
//! receiver waiting for a message and a sender waiting for a free slot:
//! spin (yielding) for [`SPIN_BUDGET`], then park until the peer timeout. A rank
//! that drops its endpoint clears its liveness flag and unparks every
//! peer, so waiting on a dead rank fails at once instead of after the
//! timeout — but a message it posted before leaving is still delivered.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::CommError;

/// Default peer timeout: how long a collective waits on a silent peer
/// before declaring it lost. Collectives in this workspace exchange
/// messages within a batch step, so prolonged silence means a wedged
/// worker, not a slow one (a worker that *exited* is noticed at once).
/// The window is deliberately large: it only converts a genuine hang into
/// a typed error, and on a loaded single-CPU runner — e.g. `cargo test
/// --workspace` interleaving test runs with compilation — a healthy
/// 4-rank world can easily be starved for tens of seconds.
/// Latency-sensitive callers can pick their own window via
/// [`Communicator::world_with_timeout`].
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(120);

/// Slots per `(src, dst)` lane: how many messages a sender may be ahead of
/// its receiver before `post` waits. The blocking collectives need one;
/// the bucketed engine keeps up to this many buckets in flight.
pub(crate) const LANE_SLOTS: usize = 8;

/// How long a waiter spins before it parks. A parked waiter costs its
/// waker a futex call and itself a reschedule (≈ 20 µs a round on the
/// reference VM); two ranks of one step reach the same collective within
/// tens of microseconds of each other, so a spin of that order meets the
/// peer without either: `narrow_steps`' median sync call is 24–31 µs
/// parking at once, 10–23 µs spinning 100 µs first, and no better at
/// 400 µs (DESIGN §5k). Each turn of the spin yields the core. Zero when
/// the world has more ranks than the host has hardware threads: the
/// ranks then take turns on the cores anyway, and parking hands the core
/// over without the detour.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// One recycled message buffer.
struct Slot {
    tag: u64,
    buf: Vec<f32>,
}

/// The FIFO from one rank to one other. `posted` is written only by the
/// sender and `taken` only by the receiver; slot `i % LANE_SLOTS` belongs
/// to the receiver while `taken <= i < posted` and to the sender
/// otherwise, so the slot mutexes are never contended in steady state —
/// they are what makes the hand-off safe Rust.
struct Lane {
    slots: Vec<Mutex<Slot>>,
    posted: AtomicU64,
    taken: AtomicU64,
    /// Largest payload posted so far (sender only).
    high_water: AtomicUsize,
}

impl Lane {
    fn new() -> Self {
        Lane {
            slots: (0..LANE_SLOTS)
                .map(|_| {
                    Mutex::new(Slot {
                        tag: 0,
                        buf: Vec::new(),
                    })
                })
                .collect(),
            posted: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    fn slot(&self, seq: u64) -> &Mutex<Slot> {
        &self.slots[(seq % LANE_SLOTS as u64) as usize]
    }

    /// Makes room for `len` elements in *every* slot the first time a
    /// payload that large is posted, so which slot a later message lands
    /// in never decides whether it allocates. A slot still queued for the
    /// receiver keeps its contents (`reserve` preserves them).
    fn grow_to(&self, len: usize) {
        if len <= self.high_water.load(Ordering::Relaxed) {
            return;
        }
        for slot in &self.slots {
            let buf = &mut slot.lock().unwrap().buf;
            buf.reserve_exact(len.saturating_sub(buf.len()));
        }
        self.high_water.store(len, Ordering::Relaxed);
    }
}

/// A rank's place in the world it was created in: liveness and the handle
/// peers wake it by.
struct Seat {
    alive: AtomicBool,
    parked: AtomicBool,
    /// Registered by the waiter itself each time it parks: an endpoint may
    /// be built on one thread and used on another.
    thread: Mutex<Option<Thread>>,
}

/// What all endpoints of one world share. Lanes and seats are indexed by
/// the rank an endpoint was *created* with; an elastic shrink renumbers
/// ranks but not seats.
struct Fabric {
    seats: Vec<Seat>,
    /// Lane `(src, dst)` at `src * seats.len() + dst`.
    lanes: Vec<Lane>,
    barrier: std::sync::Barrier,
    spin: Duration,
}

impl Fabric {
    fn lane(&self, src: usize, dst: usize) -> &Lane {
        &self.lanes[src * self.seats.len() + dst]
    }

    /// Unparks `seat` if it is parked. Callers publish what the waiter is
    /// waiting for with a `SeqCst` store first; the waiter sets `parked`
    /// (`SeqCst`) before it re-checks, so one of the two sees the other.
    fn wake(&self, seat: usize) {
        let seat = &self.seats[seat];
        if seat.parked.load(Ordering::SeqCst) {
            if let Some(thread) = seat.thread.lock().unwrap().as_ref() {
                thread.unpark();
            }
        }
    }
}

/// Aggregate communication counters for one rank, used by the performance
/// model and the experiment reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Completed allreduce operations.
    pub allreduce_calls: u64,
    /// Total f32 elements this rank contributed to allreduces.
    pub allreduce_elements: u64,
    /// Completed broadcast operations.
    pub broadcast_calls: u64,
    /// Total f32 elements broadcast through this rank.
    pub broadcast_elements: u64,
    /// Point-to-point messages sent.
    pub messages_sent: u64,
}

/// One rank's endpoint in a communicator world. Dropping it tells every
/// peer this rank is gone.
pub struct Communicator {
    rank: usize,
    size: usize,
    /// Seat of each current rank; `seats[rank]` is this endpoint's own.
    seats: Vec<usize>,
    fabric: Arc<Fabric>,
    op_counter: u64,
    stats: CommStats,
    /// Set once this endpoint survives an elastic [`Communicator::shrink`];
    /// the shared barrier is still sized to the original world, so
    /// [`Communicator::barrier`] is forbidden from then on.
    shrunk: bool,
    /// How long a wait on a silent peer lasts before it fails with
    /// [`CommError::PeerLost`].
    peer_timeout: Duration,
    /// Prefix sums of the one-exchange allreduce (worlds of three or more).
    pub(crate) scratch: Vec<f32>,
}

impl Drop for Communicator {
    fn drop(&mut self) {
        let fabric = &self.fabric;
        fabric.seats[self.seats[self.rank]]
            .alive
            .store(false, Ordering::SeqCst);
        for seat in 0..fabric.seats.len() {
            fabric.wake(seat);
        }
    }
}

impl Communicator {
    /// Creates the full world of `size` connected communicators, one per
    /// rank.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn world(size: usize) -> Vec<Communicator> {
        Self::world_with_timeout(size, DEFAULT_PEER_TIMEOUT)
    }

    /// Creates the full world with a caller-chosen peer timeout: the
    /// window a rank waits on a silent peer before a collective fails
    /// with [`CommError::PeerLost`]. [`Communicator::world`] uses
    /// [`DEFAULT_PEER_TIMEOUT`].
    ///
    /// # Panics
    /// Panics if `size == 0` or the timeout is zero (a zero window would
    /// declare healthy peers lost on the first scheduling hiccup).
    pub fn world_with_timeout(size: usize, peer_timeout: Duration) -> Vec<Communicator> {
        assert!(size > 0, "communicator size must be positive");
        assert!(
            peer_timeout > Duration::ZERO,
            "peer timeout must be positive"
        );
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let fabric = Arc::new(Fabric {
            seats: (0..size)
                .map(|_| Seat {
                    alive: AtomicBool::new(true),
                    parked: AtomicBool::new(false),
                    thread: Mutex::new(None),
                })
                .collect(),
            lanes: (0..size * size).map(|_| Lane::new()).collect(),
            barrier: std::sync::Barrier::new(size),
            spin: if size <= cores {
                SPIN_BUDGET
            } else {
                Duration::ZERO
            },
        });
        (0..size)
            .map(|rank| Communicator {
                rank,
                size,
                seats: (0..size).collect(),
                fabric: Arc::clone(&fabric),
                op_counter: 0,
                stats: CommStats::default(),
                shrunk: false,
                peer_timeout,
                scratch: Vec::new(),
            })
            .collect()
    }

    /// This rank's id (`hvd.rank()`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (`hvd.size()`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Local rank within a simulated node of `gpus_per_node` devices
    /// (`hvd.local_rank()`, used for GPU pinning on Summit).
    pub fn local_rank(&self, gpus_per_node: usize) -> usize {
        assert!(gpus_per_node > 0);
        self.rank % gpus_per_node
    }

    /// Communication counters accumulated so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The configured peer-silence window.
    pub fn peer_timeout(&self) -> Duration {
        self.peer_timeout
    }

    /// The tag of message `step` of the current operation.
    pub(crate) fn tag(&self, step: usize) -> u64 {
        debug_assert!(step < 1 << 16, "collective step {step} overflows the tag");
        (self.op_counter << 16) | step as u64
    }

    /// Whether `rank` still holds its endpoint.
    pub(crate) fn alive(&self, rank: usize) -> bool {
        self.fabric.seats[self.seats[rank]]
            .alive
            .load(Ordering::SeqCst)
    }

    /// Blocks until `ready()` — something only `peer` can make true — or
    /// fails with [`CommError::PeerLost`] once `peer` has dropped its
    /// endpoint or stayed silent for the peer timeout. What the peer did
    /// before it left counts: `ready` is looked at again after the
    /// liveness flag reads false.
    fn wait(&self, peer: usize, ready: impl Fn() -> bool) -> Result<(), CommError> {
        if ready() {
            return Ok(());
        }
        let start = Instant::now();
        let spin_until = start + self.fabric.spin;
        let deadline = start + self.peer_timeout;
        let me = &self.fabric.seats[self.seats[self.rank]];
        let mut registered = false;
        let outcome = loop {
            if ready() {
                break Ok(());
            }
            let lost = Err(CommError::PeerLost { rank: peer });
            if !self.alive(peer) {
                // What it posted before it left still counts.
                break if ready() { Ok(()) } else { lost };
            }
            let now = Instant::now();
            if now >= deadline {
                break lost;
            }
            if now < spin_until {
                // Not a bare spin: if the scheduler has put the peer on
                // this core, yielding is what lets it make `ready` true.
                std::thread::yield_now();
            } else if registered {
                std::thread::park_timeout(deadline - now);
            } else {
                // Publish the handle, then look once more before parking:
                // a waker that missed the flag has already made `ready`
                // true.
                *me.thread.lock().unwrap() = Some(std::thread::current());
                me.parked.store(true, Ordering::SeqCst);
                registered = true;
            }
        };
        if registered {
            me.parked.store(false, Ordering::SeqCst);
        }
        outcome
    }

    /// Copies `payload` into the next free slot of the lane to `dst`,
    /// waiting for one if the receiver is [`LANE_SLOTS`] messages behind.
    pub(crate) fn post(&mut self, dst: usize, tag: u64, payload: &[f32]) -> Result<(), CommError> {
        let lane = self.fabric.lane(self.seats[self.rank], self.seats[dst]);
        let seq = lane.posted.load(Ordering::Relaxed);
        self.wait(dst, || {
            seq - lane.taken.load(Ordering::SeqCst) < LANE_SLOTS as u64
        })?;
        lane.grow_to(payload.len());
        {
            let mut slot = lane.slot(seq).lock().unwrap();
            slot.tag = tag;
            slot.buf.clear();
            slot.buf.extend_from_slice(payload);
        }
        lane.posted.store(seq + 1, Ordering::SeqCst);
        self.fabric.wake(self.seats[dst]);
        self.stats.messages_sent += 1;
        Ok(())
    }

    /// Whether the lane from `src` holds a message this rank has not taken.
    pub(crate) fn has_message(&self, src: usize) -> bool {
        let lane = self.fabric.lane(self.seats[src], self.seats[self.rank]);
        lane.posted.load(Ordering::SeqCst) > lane.taken.load(Ordering::Relaxed)
    }

    /// Waits for message `tag` from `src` and lends its slot to `read`
    /// without taking it off the lane: the next call sees the same
    /// message. [`Communicator::release`] hands the slot back.
    pub(crate) fn peek_with<R>(
        &self,
        src: usize,
        tag: u64,
        read: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, CommError> {
        let lane = self.fabric.lane(self.seats[src], self.seats[self.rank]);
        loop {
            let seq = lane.taken.load(Ordering::Relaxed);
            self.wait(src, || lane.posted.load(Ordering::SeqCst) > seq)?;
            let slot = lane.slot(seq).lock().unwrap();
            match slot.tag.cmp(&tag) {
                std::cmp::Ordering::Equal => return Ok(read(&slot.buf)),
                // Left behind by a collective that failed half way.
                std::cmp::Ordering::Less => {
                    drop(slot);
                    self.release(src);
                }
                // The sender is past this operation: it will never post it.
                std::cmp::Ordering::Greater => return Err(CommError::PeerLost { rank: src }),
            }
        }
    }

    /// Returns the oldest slot of the lane from `src` to its sender.
    pub(crate) fn release(&self, src: usize) {
        let lane = self.fabric.lane(self.seats[src], self.seats[self.rank]);
        debug_assert!(self.has_message(src), "release without a lent slot");
        lane.taken.fetch_add(1, Ordering::SeqCst);
        self.fabric.wake(self.seats[src]);
    }

    /// Receives message `tag` from `src`: lends its slot to `read`, then
    /// hands the slot back.
    pub(crate) fn recv_with<R>(
        &mut self,
        src: usize,
        tag: u64,
        read: impl FnOnce(&[f32]) -> R,
    ) -> Result<R, CommError> {
        let out = self.peek_with(src, tag, read)?;
        self.release(src);
        Ok(out)
    }

    /// Starts a new collective operation; all ranks must call collectives in
    /// the same order.
    pub(crate) fn next_op(&mut self) -> u64 {
        self.op_counter += 1;
        self.op_counter
    }

    /// Blocks until every rank reaches the barrier.
    ///
    /// # Panics
    /// Panics after an elastic [`Communicator::shrink`]: the underlying
    /// barrier is still sized to the original world, so waiting on it from
    /// a smaller world would deadlock.
    pub fn barrier(&mut self) {
        assert!(
            !self.shrunk,
            "barrier is not usable after an elastic shrink"
        );
        self.next_op();
        self.fabric.barrier.wait();
    }

    /// Elastically removes dead ranks from the world, consuming this
    /// endpoint and returning the surviving world's endpoint — or `None`
    /// if this rank is itself marked dead.
    ///
    /// Surviving ranks are renumbered densely in original-rank order (the
    /// survivor with the lowest original rank becomes rank 0, and so on);
    /// the lanes to and from dead peers are never looked at again, whatever
    /// a dying rank left in them. All point-to-point collectives
    /// (`allreduce_*`, `broadcast`, `allgather`) keep working over the
    /// smaller world, and [`Communicator::allreduce_mean`] now divides by
    /// the survivor count — exactly the gradient re-scaling an elastic
    /// data-parallel run needs.
    ///
    /// **Contract:** every rank (including departing ones) must pass the
    /// same `alive` mask and must be quiescent — all previously started
    /// collectives completed on all ranks. A faster survivor may already
    /// have shrunk and posted the first post-shrink messages; they wait in
    /// its own lane, behind whatever it posted before, and are received in
    /// that order. [`Communicator::barrier`] is forbidden after shrinking
    /// (the shared barrier is still sized to the original world); it
    /// panics rather than deadlocking.
    ///
    /// # Panics
    /// Panics if `alive` does not match the world size or marks nobody
    /// alive.
    pub fn shrink(mut self, alive: &[bool]) -> Option<Communicator> {
        assert_eq!(
            alive.len(),
            self.size,
            "alive mask length {} vs world size {}",
            alive.len(),
            self.size
        );
        let survivors = alive.iter().filter(|&&a| a).count();
        assert!(survivors > 0, "elastic shrink needs at least one survivor");
        if !alive[self.rank] {
            return None;
        }
        let mut keep = alive.iter();
        self.seats
            .retain(|_| *keep.next().expect("mask covers the world"));
        self.rank = alive[..self.rank].iter().filter(|&&a| a).count();
        self.size = survivors;
        self.shrunk = true;
        Some(self)
    }

    /// In-place average-allreduce (the default path, mirroring
    /// Horovod-on-NCCL): [`Communicator::allreduce_sum`], then one
    /// multiply by `1/size`.
    pub fn allreduce_mean(&mut self, data: &mut [f32]) -> Result<(), CommError> {
        self.allreduce_sum(data)?;
        self.scale_to_mean(data);
        Ok(())
    }

    /// The multiply that turns a finished sum into the mean.
    pub(crate) fn scale_to_mean(&self, data: &mut [f32]) {
        let inv = 1.0 / self.size as f32;
        for x in data.iter_mut() {
            *x *= inv;
        }
    }

    /// In-place sum-allreduce. Small payloads take one exchange, large
    /// ones the hop-by-hop ring (see the `ring` module); both produce
    /// [`crate::ring_allreduce`]'s bits.
    pub fn allreduce_sum(&mut self, data: &mut [f32]) -> Result<(), CommError> {
        if crate::ring::exchange_fits(self.size, data.len()) {
            crate::ring::exchange_allreduce(self, data)
        } else {
            crate::ring::ring_allreduce(self, data)
        }
    }

    /// Binomial-tree broadcast from `root`, the `MPI_Bcast` pattern used by
    /// `BroadcastGlobalVariablesHook`.
    pub fn broadcast(&mut self, root: usize, data: &mut [f32]) -> Result<(), CommError> {
        assert!(root < self.size, "broadcast root {root} out of range");
        self.next_op();
        let n = self.size;
        if n == 1 {
            self.record_broadcast(data.len());
            return Ok(());
        }
        // Re-index so the root is virtual rank 0.
        let vrank = (self.rank + n - root) % n;
        // Receive phase: find the step at which this rank's subtree parent
        // sends to it.
        let mut received = vrank == 0;
        let mut mask = 1usize;
        let mut step = 0;
        while mask < n {
            if !received && vrank < mask * 2 && vrank >= mask {
                let vparent = vrank - mask;
                let parent = (vparent + root) % n;
                self.recv_with(parent, self.tag(step), |payload| copy_from(data, payload))??;
                received = true;
            } else if received && vrank < mask {
                let vchild = vrank + mask;
                if vchild < n {
                    let child = (vchild + root) % n;
                    self.post(child, self.tag(step), data)?;
                }
            }
            mask *= 2;
            step += 1;
        }
        self.record_broadcast(data.len());
        Ok(())
    }

    /// Gathers equal-sized contributions from all ranks, concatenated in
    /// rank order, via an allgather ring.
    pub fn allgather(&mut self, mine: &[f32]) -> Result<Vec<f32>, CommError> {
        self.next_op();
        let n = self.size;
        let seg = mine.len();
        let mut out = vec![0.0f32; seg * n];
        out[self.rank * seg..(self.rank + 1) * seg].copy_from_slice(mine);
        if n == 1 {
            return Ok(out);
        }
        let next = (self.rank + 1) % n;
        let prev = (self.rank + n - 1) % n;
        // Ring allgather: at step s, forward the segment originally owned by
        // (rank - s) mod n.
        for s in 0..n - 1 {
            let send_owner = (self.rank + n - s) % n;
            let recv_owner = (self.rank + n - s - 1) % n;
            self.post(
                next,
                self.tag(s),
                &out[send_owner * seg..(send_owner + 1) * seg],
            )?;
            let into = &mut out[recv_owner * seg..(recv_owner + 1) * seg];
            self.recv_with(prev, self.tag(s), |received| copy_from(into, received))??;
        }
        Ok(out)
    }

    pub(crate) fn record_allreduce(&mut self, elements: usize) {
        self.stats.allreduce_calls += 1;
        self.stats.allreduce_elements += elements as u64;
    }

    fn record_broadcast(&mut self, elements: usize) {
        self.stats.broadcast_calls += 1;
        self.stats.broadcast_elements += elements as u64;
    }
}

/// Fails with [`CommError::SizeMismatch`] unless `incoming` is as long as
/// the buffer a collective is about to combine it with.
pub(crate) fn same_len(expected: usize, incoming: &[f32]) -> Result<(), CommError> {
    if incoming.len() == expected {
        Ok(())
    } else {
        Err(CommError::SizeMismatch {
            expected,
            actual: incoming.len(),
        })
    }
}

/// `into = incoming`, sizes checked.
pub(crate) fn copy_from(into: &mut [f32], incoming: &[f32]) -> Result<(), CommError> {
    same_len(into.len(), incoming)?;
    into.copy_from_slice(incoming);
    Ok(())
}

/// `into += incoming` element by element, sizes checked.
pub(crate) fn add_from(into: &mut [f32], incoming: &[f32]) -> Result<(), CommError> {
    same_len(into.len(), incoming)?;
    for (d, &x) in into.iter_mut().zip(incoming) {
        *d += x;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_workers;

    #[test]
    fn world_has_distinct_ranks() {
        let world = Communicator::world(4);
        let ranks: Vec<usize> = world.iter().map(|c| c.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        assert!(world.iter().all(|c| c.size() == 4));
    }

    #[test]
    fn default_world_uses_default_timeout() {
        let world = Communicator::world(2);
        assert_eq!(world[0].peer_timeout(), DEFAULT_PEER_TIMEOUT);
        assert_eq!(DEFAULT_PEER_TIMEOUT, Duration::from_secs(120));
    }

    #[test]
    fn configured_timeout_converts_silent_peer_into_peer_lost() {
        // Rank 1 never participates; with a tight window rank 0's
        // allreduce must fail typed (and fast) instead of hanging for
        // the default two minutes.
        let mut world = Communicator::world_with_timeout(2, Duration::from_millis(50));
        let mut rank0 = world.remove(0);
        let start = std::time::Instant::now();
        let err = rank0.allreduce_mean(&mut [1.0, 2.0]).unwrap_err();
        assert!(matches!(err, CommError::PeerLost { .. }), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timeout did not bound the wait"
        );
    }

    #[test]
    fn timeout_survives_elastic_shrink() {
        let timeout = Duration::from_secs(7);
        let world = Communicator::world_with_timeout(3, timeout);
        let alive = [true, false, true];
        for (rank, comm) in world.into_iter().enumerate() {
            match comm.shrink(&alive) {
                Some(survivor) => assert_eq!(survivor.peer_timeout(), timeout),
                None => assert_eq!(rank, 1),
            }
        }
    }

    #[test]
    #[should_panic(expected = "peer timeout must be positive")]
    fn zero_timeout_rejected() {
        let _ = Communicator::world_with_timeout(2, Duration::ZERO);
    }

    #[test]
    fn local_rank_wraps_per_node() {
        let world = Communicator::world(12);
        // 6 GPUs per Summit node.
        assert_eq!(world[0].local_rank(6), 0);
        assert_eq!(world[5].local_rank(6), 5);
        assert_eq!(world[6].local_rank(6), 0);
        assert_eq!(world[11].local_rank(6), 5);
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..5 {
            let results = run_workers(5, move |comm| {
                let mut data = if comm.rank() == root {
                    vec![42.0, 7.0, -1.0]
                } else {
                    vec![0.0; 3]
                };
                comm.broadcast(root, &mut data).unwrap();
                data
            });
            for r in results {
                assert_eq!(r, vec![42.0, 7.0, -1.0], "root {root}");
            }
        }
    }

    #[test]
    fn broadcast_single_rank_is_identity() {
        let results = run_workers(1, |comm| {
            let mut data = vec![1.0, 2.0];
            comm.broadcast(0, &mut data).unwrap();
            data
        });
        assert_eq!(results[0], vec![1.0, 2.0]);
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let results = run_workers(4, |comm| {
            let mine = vec![comm.rank() as f32 * 10.0, comm.rank() as f32 * 10.0 + 1.0];
            comm.allgather(&mine).unwrap()
        });
        let expect = vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0];
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let results = run_workers(6, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank must see all increments.
            c2.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&v| v == 6));
    }

    #[test]
    fn stats_count_broadcasts() {
        let results = run_workers(3, |comm| {
            let mut d = vec![0.0f32; 10];
            comm.broadcast(0, &mut d).unwrap();
            comm.broadcast(0, &mut d).unwrap();
            comm.stats().clone()
        });
        for s in &results {
            assert_eq!(s.broadcast_calls, 2);
            assert_eq!(s.broadcast_elements, 20);
        }
        // Root sends messages; leaves may not.
        assert!(results[0].messages_sent > 0);
    }

    mod properties {
        use crate::world::run_workers;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn broadcast_any_root_any_size(
                n in 1usize..7,
                root_pick in 0usize..7,
                len in 0usize..40,
                seed in 0u64..100
            ) {
                use xrng::RandomSource;
                let root = root_pick % n;
                let mut rng = xrng::seeded(seed);
                let payload: Vec<f32> = (0..len).map(|_| rng.next_f32()).collect();
                let expect = payload.clone();
                let results = run_workers(n, move |comm| {
                    let mut data = if comm.rank() == root {
                        payload.clone()
                    } else {
                        vec![0.0; len]
                    };
                    comm.broadcast(root, &mut data).unwrap();
                    data
                });
                for r in results {
                    prop_assert_eq!(&r, &expect);
                }
            }

            #[test]
            fn allgather_roundtrip(n in 1usize..6, seg in 0usize..16) {
                let results = run_workers(n, move |comm| {
                    let mine: Vec<f32> = (0..seg).map(|i| (comm.rank() * 100 + i) as f32).collect();
                    comm.allgather(&mine).unwrap()
                });
                for r in &results {
                    prop_assert_eq!(r.len(), seg * n);
                    for rank in 0..n {
                        for i in 0..seg {
                            prop_assert_eq!(r[rank * seg + i], (rank * 100 + i) as f32);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shrink_renumbers_and_collectives_continue() {
        use crate::world::run_workers_owned;
        // World of 4; rank 2 "dies" after a first allreduce. Survivors
        // shrink and the next allreduce_mean averages over 3 with dense
        // ranks {0, 1, 2}.
        let results = run_workers_owned(4, |mut comm| {
            let mut data = vec![comm.rank() as f32; 2];
            comm.allreduce_mean(&mut data).unwrap();
            assert_eq!(data, vec![1.5, 1.5]); // (0+1+2+3)/4
            let alive = [true, true, false, true];
            let old_rank = comm.rank();
            match comm.shrink(&alive) {
                None => {
                    assert_eq!(old_rank, 2);
                    None
                }
                Some(mut small) => {
                    assert_eq!(small.size(), 3);
                    let mut data = vec![small.rank() as f32 * 10.0];
                    small.allreduce_mean(&mut data).unwrap();
                    Some((old_rank, small.rank(), data[0]))
                }
            }
        });
        let survivors: Vec<_> = results.into_iter().flatten().collect();
        // Old ranks 0,1,3 became new ranks 0,1,2; mean of {0,10,20} = 10.
        assert_eq!(survivors, vec![(0, 0, 10.0), (1, 1, 10.0), (3, 2, 10.0)]);
    }

    #[test]
    fn shrink_world_broadcast_and_allgather_work() {
        use crate::world::run_workers_owned;
        let results = run_workers_owned(3, |comm| {
            let alive = [true, false, true];
            match comm.shrink(&alive) {
                None => None,
                Some(mut small) => {
                    let mut data = if small.rank() == 0 {
                        vec![7.0, 8.0]
                    } else {
                        vec![0.0; 2]
                    };
                    small.broadcast(0, &mut data).unwrap();
                    let gathered = small.allgather(&[small.rank() as f32]).unwrap();
                    Some((data, gathered))
                }
            }
        });
        let survivors: Vec<_> = results.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 2);
        for (bcast, gathered) in survivors {
            assert_eq!(bcast, vec![7.0, 8.0]);
            assert_eq!(gathered, vec![0.0, 1.0]);
        }
    }

    /// The shrink race: a fast survivor completes the liveness vote,
    /// shrinks, and races into its first post-shrink collective while a
    /// slow survivor is still draining vote messages. The early message
    /// waits in the fast survivor's own lane, behind its vote, so the slow
    /// survivor finds it after shrinking; whatever the victim left in
    /// *its* lane goes with the route. Scripted deterministically,
    /// single-threaded, via the raw post/recv layer.
    #[test]
    fn shrink_preserves_early_post_shrink_messages() {
        let mut world = Communicator::world_with_timeout(3, Duration::from_millis(200));
        let mut c2 = world.pop().unwrap(); // slow survivor
        let mut c1 = world.pop().unwrap(); // victim
        let mut c0 = world.pop().unwrap(); // fast survivor
        let alive = [true, false, true];
        let take = |c: &mut Communicator, src: usize| {
            let tag = c.tag(0);
            c.recv_with(src, tag, |p| p.to_vec())
        };

        // Vote "allgather", one op, scripted so the victim's vote reaches
        // the slow survivor LAST.
        c0.next_op();
        c1.next_op();
        c2.next_op();
        c1.post(0, c1.tag(0), &[0.0]).unwrap(); // victim's vote to fast survivor
        c2.post(0, c2.tag(0), &[1.0]).unwrap();
        c0.post(1, c0.tag(0), &[1.0]).unwrap();
        c0.post(2, c0.tag(0), &[1.0]).unwrap();
        take(&mut c0, 1).unwrap();
        take(&mut c0, 2).unwrap();

        // The fast survivor completes the vote, shrinks, and immediately
        // starts a post-shrink collective: its segment is posted to the
        // slow survivor *before* the victim's vote is.
        let mut fast = c0.shrink(&alive).unwrap();
        assert_eq!(fast.rank(), 0);
        fast.next_op();
        fast.post(1, fast.tag(0), &[42.0]).unwrap();
        c1.post(2, c1.tag(0), &[0.0]).unwrap(); // victim's vote, late
        c1.post(2, c1.tag(1), &[-1.0]).unwrap(); // and residue nobody reads
        drop(c1); // the victim is gone

        // The slow survivor drains the vote: the fast survivor's vote is
        // ahead of its post-shrink segment, and the victim's vote is
        // delivered although the victim has left.
        assert_eq!(take(&mut c2, 0).unwrap(), vec![1.0]);
        assert_eq!(take(&mut c2, 1).unwrap(), vec![0.0]);

        // After the shrink the early message is the next one in its lane.
        let mut slow = c2.shrink(&alive).unwrap();
        assert_eq!(slow.rank(), 1);
        slow.next_op();
        assert_eq!(
            take(&mut slow, 0).expect("early post-shrink message was lost"),
            vec![42.0]
        );
    }

    /// The lane is bounded: a sender `LANE_SLOTS` messages ahead of a
    /// receiver that never takes them fails typed within the timeout.
    #[test]
    fn full_lane_times_out_typed() {
        let mut world = Communicator::world_with_timeout(2, Duration::from_millis(50));
        let _silent = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.next_op();
        for step in 0..LANE_SLOTS {
            c0.post(1, c0.tag(step), &[step as f32]).unwrap();
        }
        let err = c0.post(1, c0.tag(LANE_SLOTS), &[0.0]).unwrap_err();
        assert_eq!(err, CommError::PeerLost { rank: 1 });
    }

    /// What a message's tag says about the sender: an older one is
    /// residue and skipped, a newer one means the awaited message will
    /// never come.
    #[test]
    fn stale_messages_are_skipped_and_a_sender_ahead_is_lost() {
        let mut world = Communicator::world_with_timeout(2, Duration::from_millis(50));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c0.next_op();
        c0.post(1, c0.tag(0), &[1.0]).unwrap(); // op 1: c1 never reads it
        c0.next_op();
        c0.post(1, c0.tag(0), &[2.0]).unwrap();
        c1.next_op();
        c1.next_op();
        assert_eq!(c1.recv_with(0, c1.tag(0), |p| p[0]).unwrap(), 2.0);
        c0.next_op();
        c0.next_op();
        c0.post(1, c0.tag(0), &[4.0]).unwrap(); // op 4 while c1 expects op 3
        c1.next_op();
        let err = c1.recv_with(0, c1.tag(0), |p| p[0]).unwrap_err();
        assert_eq!(err, CommError::PeerLost { rank: 0 });
    }

    /// A rank that drops its endpoint is noticed at once — default
    /// two-minute timeout, sub-second failure — and the rank that leaves
    /// on that error is noticed by the one waiting on *it*.
    #[test]
    fn dead_rank_fails_survivors_at_once_and_cascades() {
        let world = Communicator::world(3);
        let start = std::time::Instant::now();
        let results: Vec<Result<(), CommError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = world
                .into_iter()
                .map(|mut comm| {
                    scope.spawn(move || {
                        if comm.rank() == 1 {
                            return Ok(()); // returns before the collective
                        }
                        // Rank 0 waits on rank 2, rank 2 on rank 1: rank 2
                        // fails first and its exit is what fails rank 0.
                        crate::ring_allreduce(&mut comm, &mut [1.0f32; 64])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(results[0], Err(CommError::PeerLost { rank: 2 }));
        assert_eq!(results[2], Err(CommError::PeerLost { rank: 1 }));
    }

    #[test]
    #[should_panic(expected = "not usable after an elastic shrink")]
    fn barrier_after_shrink_panics() {
        let world = Communicator::world(2);
        let mut it = world.into_iter();
        let c0 = it.next().unwrap();
        let mut small = c0.shrink(&[true, false]).unwrap();
        small.barrier();
    }

    #[test]
    #[should_panic(expected = "at least one survivor")]
    fn shrink_to_empty_world_panics() {
        let world = Communicator::world(2);
        let c0 = world.into_iter().next().unwrap();
        let _ = c0.shrink(&[false, false]);
    }

    #[test]
    #[should_panic(expected = "root 9 out of range")]
    fn broadcast_invalid_root_panics() {
        let mut world = Communicator::world(2);
        let mut data = vec![0.0];
        // Call directly on rank 0 (will panic before any communication).
        world[0].broadcast(9, &mut data).unwrap();
    }
}
