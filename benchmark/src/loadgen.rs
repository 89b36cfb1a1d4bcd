//! Seeded load for the serving stages: a Poisson open loop that times every
//! request from the instant it was *due*, and a closed loop with a fixed
//! number of requests outstanding. Rates and counts are constants of the
//! workload; nothing here is calibrated against the machine at run time.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's own generator, so the request trace depends
/// on `--seed` alone and not on any product crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the stage starts at which the request is due.
    pub due_s: f64,
    /// Which pooled request row it sends.
    pub row: usize,
}

/// Poisson arrivals at `rate_rps` for `duration_s`: exponential gaps, rows
/// drawn uniformly from a pool of `pool` rows. Same seed, same schedule.
pub fn poisson_schedule(seed: u64, rate_rps: f64, duration_s: f64, pool: usize) -> Vec<Arrival> {
    assert!(rate_rps > 0.0 && pool > 0, "rate and pool must be positive");
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity((rate_rps * duration_s * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            row: (rng.next_u64() % pool as u64) as usize,
        });
    }
}

/// What the server said about one request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Submit → reply, as the server measured it.
    pub latency_s: f64,
    /// Time queued before its batch was dispatched.
    pub enqueue_wait_s: f64,
    /// Rows in the batch it was served in.
    pub batch: usize,
    pub output: Vec<f32>,
}

/// The serving engine as the load generators see it.
pub trait Server: Sync {
    type Pending: Send;
    /// Sends pooled row `row`; `Err` when the request was refused.
    fn submit(&self, row: usize) -> Result<Self::Pending, String>;
    /// Blocks until the reply (or its error) arrives.
    fn wait(pending: Self::Pending) -> Result<Reply, String>;
}

/// How many replies per stage are kept whole for the output check.
pub const CHECKED_REPLIES: usize = 256;

/// Everything one stage measured.
#[derive(Debug, Clone, Default)]
pub struct StageResult {
    pub attempted: u64,
    /// Requests refused at submit or answered with an error.
    pub failed: u64,
    pub wall_s: f64,
    /// Due (open loop) or submit (closed loop) → reply, milliseconds.
    pub latency_ms: Vec<f64>,
    pub enqueue_wait_ms: Vec<f64>,
    /// Server-side time after dispatch (latency minus queueing) divided by
    /// the batch size: this request's share of its batch's forward pass.
    pub busy_share_s: f64,
    pub batch_sum: u64,
    /// How late the generator submitted each request (open loop only).
    pub late_ms: Vec<f64>,
    /// `(row, output)` of the first [`CHECKED_REPLIES`] replies.
    pub outputs: Vec<(usize, Vec<f32>)>,
    /// First error text seen, for the failure report.
    pub first_error: Option<String>,
}

impl StageResult {
    fn absorb(&mut self, row: usize, extra_latency_s: f64, reply: Result<Reply, String>) {
        match reply {
            Ok(r) => {
                self.latency_ms.push((extra_latency_s + r.latency_s) * 1e3);
                self.enqueue_wait_ms.push(r.enqueue_wait_s * 1e3);
                self.busy_share_s +=
                    (r.latency_s - r.enqueue_wait_s).max(0.0) / r.batch.max(1) as f64;
                self.batch_sum += r.batch as u64;
                if self.outputs.len() < CHECKED_REPLIES {
                    self.outputs.push((row, r.output));
                }
            }
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }

    pub fn completed(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    /// Adds another stage's requests to this one (wall times add up; the
    /// checked outputs stay those of the first stage).
    pub fn absorb_stage(&mut self, mut other: StageResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.latency_ms.append(&mut other.latency_ms);
        self.enqueue_wait_ms.append(&mut other.enqueue_wait_ms);
        self.busy_share_s += other.busy_share_s;
        self.batch_sum += other.batch_sum;
        self.late_ms.append(&mut other.late_ms);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Open loop: one thread submits on the schedule whatever the server does,
/// a second collects replies. A request's latency runs from its due time,
/// so a generator or server stall is charged to every request it delays.
pub fn open_loop<S: Server>(server: &S, schedule: &[Arrival]) -> StageResult {
    let (tx, rx) = mpsc::channel::<(usize, f64, S::Pending)>();
    let start = Instant::now();
    let mut result = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut result = StageResult::default();
            for (row, late_s, pending) in rx {
                result.absorb(row, late_s, S::wait(pending));
            }
            result
        });
        let mut late_ms = Vec::with_capacity(schedule.len());
        let mut refused = Vec::new();
        for arrival in schedule {
            let due = start + Duration::from_secs_f64(arrival.due_s);
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let late_s = Instant::now().saturating_duration_since(due).as_secs_f64();
            late_ms.push(late_s * 1e3);
            match server.submit(arrival.row) {
                Ok(pending) => tx
                    .send((arrival.row, late_s, pending))
                    .expect("the collector outlives the generator"),
                Err(e) => refused.push(e),
            }
        }
        drop(tx);
        let mut result = collector.join().expect("the reply collector panicked");
        result.late_ms = late_ms;
        for e in refused {
            result.fail(e);
        }
        result
    });
    result.attempted = schedule.len() as u64;
    result.wall_s = start.elapsed().as_secs_f64();
    result
}

/// Closed loop: one client keeps `outstanding` requests in flight until
/// `total` have been sent, so a slower server receives less load.
pub fn closed_loop<S: Server>(
    server: &S,
    seed: u64,
    total: usize,
    outstanding: usize,
    pool: usize,
) -> StageResult {
    assert!(
        outstanding > 0 && pool > 0,
        "outstanding and pool must be positive"
    );
    let mut rng = Rng::new(seed);
    let mut result = StageResult {
        attempted: total as u64,
        ..Default::default()
    };
    let mut in_flight: VecDeque<(usize, S::Pending)> = VecDeque::with_capacity(outstanding);
    let start = Instant::now();
    let mut sent = 0;
    while sent < total || !in_flight.is_empty() {
        while sent < total && in_flight.len() < outstanding {
            let row = (rng.next_u64() % pool as u64) as usize;
            sent += 1;
            match server.submit(row) {
                Ok(pending) => in_flight.push_back((row, pending)),
                Err(e) => result.fail(e),
            }
        }
        if let Some((row, pending)) = in_flight.pop_front() {
            result.absorb(row, 0.0, S::wait(pending));
        }
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 500.0, 2.0, 256);
        assert_eq!(a, poisson_schedule(7, 500.0, 2.0, 256));
        assert_ne!(a, poisson_schedule(8, 500.0, 2.0, 256));
        // Mean 1000 arrivals, standard deviation ~32.
        assert!((850..1150).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|x| x.due_s < 2.0 && x.row < 256));
    }

    /// Answers at once, refusing every fifth request.
    struct Fake {
        submitted: AtomicU64,
    }

    impl Server for Fake {
        type Pending = usize;
        fn submit(&self, row: usize) -> Result<usize, String> {
            // Relaxed: a test counter.
            let n = self.submitted.fetch_add(1, Ordering::Relaxed);
            if n % 5 == 4 {
                Err("refused".into())
            } else {
                Ok(row)
            }
        }
        fn wait(row: usize) -> Result<Reply, String> {
            Ok(Reply {
                latency_s: 0.002,
                enqueue_wait_s: 0.001,
                batch: 4,
                output: vec![row as f32],
            })
        }
    }

    #[test]
    fn both_loops_account_for_every_request() {
        let fake = Fake {
            submitted: AtomicU64::new(0),
        };
        let schedule = poisson_schedule(3, 20_000.0, 0.05, 8);
        let open = open_loop(&fake, &schedule);
        assert_eq!(open.attempted, schedule.len() as u64);
        assert_eq!(open.completed() + open.failed, open.attempted);
        assert_eq!(open.failed, open.attempted / 5);
        assert_eq!(open.late_ms.len(), schedule.len());
        assert_eq!(open.first_error.as_deref(), Some("refused"));
        // Latency counts from the due time: never below the server's own.
        assert!(open.latency_ms.iter().all(|&ms| ms >= 2.0));
        assert_eq!(open.batch_sum, 4 * open.completed());

        let closed = closed_loop(&fake, 3, 1000, 32, 8);
        assert_eq!(closed.attempted, 1000);
        assert_eq!(closed.completed() + closed.failed, 1000);
        assert_eq!(closed.outputs.len(), CHECKED_REPLIES);
        assert!(closed
            .outputs
            .iter()
            .all(|(row, out)| out[0] == *row as f32));
        let share = closed.completed() as f64 * 0.001 / 4.0;
        assert!((closed.busy_share_s - share).abs() < 1e-9);

        let (attempted, completed, wall) = (open.attempted, open.completed(), open.wall_s);
        let mut both = open;
        both.absorb_stage(closed);
        assert_eq!(both.attempted, attempted + 1000);
        assert_eq!(both.completed() + both.failed, both.attempted);
        assert!(both.completed() > completed && both.wall_s > wall);
    }
}
