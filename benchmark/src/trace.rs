//! Spans taken from outside: the benchmark wraps its own calls into the
//! product's public functions, keeps the spans in memory, and writes them
//! out as Chrome-trace JSON when the traced pass ends. Nothing in the
//! product is instrumented and the timed pass records no spans at all.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `<layer>.<what>`, e.g. `dataio.read`.
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Iteration the span belongs to (0 is set-up).
    pub iter: u32,
    /// Training rank (thread lane); 0 for everything on the main thread.
    pub rank: u32,
}

/// Where a new span hangs in the tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub parent: Option<u32>,
    pub iter: u32,
    pub rank: u32,
}

impl Ctx {
    pub fn on_rank(self, rank: u32) -> Ctx {
        Ctx { rank, ..self }
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(0),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; `f` receives the context its
    /// own child spans should use.
    pub fn span<T>(&self, name: &str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        self.span_timed(name, ctx, f).0
    }

    /// [`Tracer::span`], also returning the span's length in seconds.
    pub fn span_timed<T>(&self, name: &str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> (T, f64) {
        // Relaxed: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(Ctx {
            parent: Some(id),
            ..ctx
        });
        let end_us = self.now_us();
        self.push(vec![Span {
            id,
            parent: ctx.parent,
            name: name.to_string(),
            start_us,
            end_us,
            iter: ctx.iter,
            rank: ctx.rank,
        }]);
        (out, (end_us - start_us) / 1e6)
    }

    /// Records spans whose clock readings were taken by the caller (the
    /// per-step spans a rank thread buffers locally), under one lock.
    pub fn record_many(&self, ctx: Ctx, timed: impl IntoIterator<Item = (&'static str, f64, f64)>) {
        let spans: Vec<Span> = timed
            .into_iter()
            .map(|(name, start_us, end_us)| Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: ctx.parent,
                name: name.to_string(),
                start_us,
                end_us,
                iter: ctx.iter,
                rank: ctx.rank,
            })
            .collect();
        self.push(spans);
    }

    fn push(&self, mut spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .append(&mut spans);
    }

    /// All spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Self seconds per span name over all spans: a span's duration minus the
/// part of its interval that its direct children cover. Children that run
/// side by side (two ranks under one stage span) cover their union once.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|kids| covered_us(kids, s.start_us, s.end_us))
            .unwrap_or(0.0);
        *out.entry(s.name.clone()).or_insert(0.0) += (s.end_us - s.start_us - covered) / 1e6;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
/// complete events, one thread lane per rank.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::obj([
                ("name", Value::str(&s.name)),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_us)),
                ("dur", Value::Num(s.end_us - s.start_us)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(f64::from(s.rank))),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                        ),
                        ("iter", Value::Num(f64::from(s.iter))),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("displayTimeUnit", Value::str("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
}

/// Splits one rank's `fit` into forward+optimizer, backward and gradient
/// sync from the only three instants visible from outside the training
/// loop: the sync hook's `begin_step` (forward has ended, backward starts),
/// the entry into the sync call (backward has ended) and its exit. From a
/// sync exit to the next `begin_step` the loop runs the optimizer step,
/// gathers the next batch and runs forward; those cannot be told apart from
/// outside and are reported together.
pub struct StepClock<'t> {
    tracer: &'t Tracer,
    /// End of the previous segment.
    mark_us: f64,
    segments: Vec<(&'static str, f64, f64)>,
    sync_bytes: u64,
}

pub const FWD_OPT: &str = "dlframe.fwd_opt";
pub const BACKWARD: &str = "dlframe.backward";
pub const SYNC: &str = "collectives.sync";

/// What one rank's steps added up to.
#[derive(Debug, Clone, Default)]
pub struct StepTotals {
    pub fwd_opt_s: f64,
    pub backward_s: f64,
    pub sync_s: f64,
    pub steps: u64,
    pub sync_bytes: u64,
    /// Duration of every sync call, microseconds.
    pub sync_us: Vec<f64>,
}

impl<'t> StepClock<'t> {
    /// Starts the clock; call immediately before `fit`.
    pub fn start(tracer: &'t Tracer) -> Self {
        Self {
            tracer,
            mark_us: tracer.now_us(),
            segments: Vec::new(),
            sync_bytes: 0,
        }
    }

    fn close(&mut self, name: &'static str) {
        let now = self.tracer.now_us();
        self.segments.push((name, self.mark_us, now));
        self.mark_us = now;
    }

    pub fn begin_step(&mut self) {
        self.close(FWD_OPT);
    }

    pub fn sync_enter(&mut self) {
        self.close(BACKWARD);
    }

    pub fn sync_exit(&mut self, bytes: u64) {
        self.close(SYNC);
        self.sync_bytes += bytes;
    }

    /// Closes the last optimizer step (call immediately after `fit`),
    /// records every segment as a span under `ctx` and returns the sums.
    pub fn finish(mut self, ctx: Ctx) -> StepTotals {
        self.close(FWD_OPT);
        let mut totals = StepTotals {
            sync_bytes: self.sync_bytes,
            ..Default::default()
        };
        for &(name, start, end) in &self.segments {
            let us = end - start;
            match name {
                FWD_OPT => totals.fwd_opt_s += us / 1e6,
                BACKWARD => totals.backward_s += us / 1e6,
                _ => {
                    totals.sync_s += us / 1e6;
                    totals.sync_us.push(us);
                    totals.steps += 1;
                }
            }
        }
        self.tracer.record_many(ctx, self.segments);
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        name: &str,
        start_us: f64,
        end_us: f64,
        rank: u32,
    ) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_us,
            end_us,
            iter: 1,
            rank,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "stage", 0.0, 100e6, 0),
            // Two ranks side by side: their union covers 10..70.
            span(1, Some(0), "rank", 10e6, 60e6, 0),
            span(2, Some(0), "rank", 20e6, 70e6, 1),
            // A grandchild takes time from its parent only.
            span(3, Some(1), "fit", 10e6, 40e6, 0),
            // A child sticking out of its parent is clipped.
            span(4, Some(0), "late", 90e6, 120e6, 0),
        ];
        let own = self_seconds_by_name(&spans);
        assert_eq!(own["stage"], 100.0 - 60.0 - 10.0);
        assert_eq!(own["rank"], (50.0 - 30.0) + 50.0);
        assert_eq!(own["fit"], 30.0);
        assert_eq!(own["late"], 30.0);
    }

    #[test]
    fn tracer_nests_spans_and_orders_them() {
        let tracer = Tracer::new();
        let inner_ctx = tracer.span("outer", Ctx::default(), |ctx| {
            tracer.span("inner", ctx, |inner| inner)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(inner_ctx.parent, Some(spans[1].id));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }

    #[test]
    fn step_clock_tiles_the_fit_without_gaps() {
        let tracer = Tracer::new();
        let t0 = tracer.now_us();
        let mut clock = StepClock::start(&tracer);
        for _ in 0..3 {
            clock.begin_step();
            clock.sync_enter();
            clock.sync_exit(40);
        }
        let totals = clock.finish(Ctx::default());
        let t1 = tracer.now_us();
        assert_eq!(totals.steps, 3);
        assert_eq!(totals.sync_bytes, 120);
        assert_eq!(totals.sync_us.len(), 3);
        let spans = tracer.spans();
        // 3 × (fwd_opt, backward, sync) + the trailing optimizer step.
        assert_eq!(spans.len(), 10);
        for pair in spans.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us, "segments must tile");
        }
        let sum = totals.fwd_opt_s + totals.backward_s + totals.sync_s;
        assert!(sum <= (t1 - t0) / 1e6);
        assert!(spans[0].start_us >= t0 && spans[9].end_us <= t1);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let spans = vec![
            span(0, None, "dataio.read", 0.0, 1500.5, 0),
            span(1, Some(0), "x", 10.0, 20.0, 1),
        ];
        let doc = chrome_trace(&spans);
        let back = crate::json::parse(&doc.to_json_pretty()).unwrap();
        assert_eq!(back, doc);
        let events = match back.get("traceEvents") {
            Some(Value::Arr(e)) => e.clone(),
            other => panic!("no events: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(Value::as_f64), Some(1500.5));
        assert_eq!(events[1].get("tid").and_then(Value::as_f64), Some(1.0));
    }
}
