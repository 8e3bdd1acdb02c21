//! The metrics registry and span machinery.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::StreamingHistogram;

/// One completed span: a named, timed section of work.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Dotted span name, e.g. `plan.partition`.
    pub name: String,
    /// Coarse category (by convention the emitting crate), e.g.
    /// `planner`.
    pub cat: String,
    /// Start offset from the recorder's creation, in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Logical thread index (0 for the recorder's first thread).
    pub tid: usize,
    /// Key/value annotations attached via [`SpanGuard::with_arg`].
    pub args: Vec<(String, String)>,
}

/// Summary statistics of one timing/value histogram.
///
/// `count`/`sum`/`max` are exact; the quantiles come from the bounded
/// [`StreamingHistogram`] backend and carry its documented bucket error
/// (see [`crate::hist::quantile_error_bound`], ≈ 4.4 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

/// An immutable view of everything a [`Recorder`] has collected.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write (or max-write) gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms, summarized.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Completed spans in completion order.
    pub spans: Vec<SpanEvent>,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, StreamingHistogram>,
    spans: Vec<SpanEvent>,
    threads: Vec<std::thread::ThreadId>,
}

impl State {
    fn tid(&mut self) -> usize {
        let id = std::thread::current().id();
        match self.threads.iter().position(|t| *t == id) {
            Some(i) => i,
            None => {
                self.threads.push(id);
                self.threads.len() - 1
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// A cheap, clonable handle onto a metrics registry.
///
/// A `Recorder` is either *enabled* (backed by a shared registry) or
/// *disabled* (a `None`; every operation is a single branch and no
/// clock is read). Instrumented code takes `&Recorder` unconditionally;
/// callers that don't care pass [`Recorder::disabled`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// Creates an enabled recorder with an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// The no-op recorder: records nothing, costs one branch per call.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| {
            // Recover from a panic in another holder: metrics must not
            // cascade failures into the instrumented code.
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut state)
        })
    }

    /// Adds `delta` to the counter `key`. Allocates only the first
    /// time a key is seen: hot counters are bumped in place.
    pub fn add(&self, key: &str, delta: u64) {
        self.with_state(|s| match s.counters.get_mut(key) {
            Some(c) => *c = c.saturating_add(delta),
            None => {
                s.counters.insert(key.to_string(), delta);
            }
        });
    }

    /// Increments the counter `key` by one.
    pub fn incr(&self, key: &str) {
        self.add(key, 1);
    }

    /// Sets the gauge `key` to `value` (last write wins).
    pub fn gauge(&self, key: &str, value: f64) {
        self.with_state(|s| {
            s.gauges.insert(key.to_string(), value);
        });
    }

    /// Raises the gauge `key` to `value` if larger (high-water marks).
    pub fn gauge_max(&self, key: &str, value: f64) {
        self.with_state(|s| {
            let g = s.gauges.entry(key.to_string()).or_insert(f64::NEG_INFINITY);
            if value > *g {
                *g = value;
            }
        });
    }

    /// Records one observation into the histogram `key`. Histograms are
    /// log-bucketed [`StreamingHistogram`]s: memory stays O(buckets) no
    /// matter how many values are observed.
    pub fn observe(&self, key: &str, value: f64) {
        self.with_state(|s| match s.histograms.get_mut(key) {
            Some(h) => h.record(value),
            None => s
                .histograms
                .entry(key.to_string())
                .or_default()
                .record(value),
        });
    }

    /// Opens a span named `name` with category `adapipe`; it records
    /// itself when dropped. Attach annotations with
    /// [`SpanGuard::with_arg`] or use the [`crate::span!`] macro.
    #[must_use = "the span is recorded when the guard drops; binding it to `_` ends it immediately"]
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_cat(name, "adapipe")
    }

    /// Opens a span with an explicit category (by convention the
    /// emitting crate: `planner`, `partition`, `recompute`, `sim`).
    #[must_use = "the span is recorded when the guard drops; binding it to `_` ends it immediately"]
    pub fn span_cat(&self, name: &str, cat: &str) -> SpanGuard {
        SpanGuard {
            live: self.inner.as_ref().map(|inner| LiveSpan {
                inner: Arc::clone(inner),
                name: name.to_string(),
                cat: cat.to_string(),
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    /// Times `f` under a span named `name`, returning its result.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// Current value of the counter `key` (0 if never written or the
    /// recorder is disabled).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.with_state(|s| s.counters.get(key).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Current value of the gauge `key`, if any.
    #[must_use]
    pub fn gauge_value(&self, key: &str) -> Option<f64> {
        self.with_state(|s| s.gauges.get(key).copied()).flatten()
    }

    /// Snapshots everything recorded so far. Histograms are summarized
    /// (count/sum/p50/p95/p99/max); spans come out in completion order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.with_state(|s| Snapshot {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            spans: s.spans.clone(),
        })
        .unwrap_or_default()
    }

    /// Folds another recorder's metrics into this one: counters add,
    /// gauges max-fold (the registry-wide value is the worst/peak seen
    /// by any contributor), histograms merge bucket-wise. Spans are
    /// deliberately **not** absorbed — per-request spans belong to the
    /// request's own trace, not the long-lived registry (which would
    /// otherwise grow without bound under sustained traffic).
    ///
    /// A disabled handle on either side makes this a no-op.
    pub fn absorb(&self, other: &Recorder) {
        // Clone out of `other` first, then fold into `self`: the two
        // locks are never held at once, so two threads absorbing in
        // opposite directions cannot deadlock.
        let Some(parts) =
            other.with_state(|s| (s.counters.clone(), s.gauges.clone(), s.histograms.clone()))
        else {
            return;
        };
        let (counters, gauges, histograms) = parts;
        self.with_state(|s| {
            for (k, v) in counters {
                let c = s.counters.entry(k).or_insert(0);
                *c = c.saturating_add(v);
            }
            for (k, v) in gauges {
                let g = s.gauges.entry(k).or_insert(f64::NEG_INFINITY);
                if v > *g {
                    *g = v;
                }
            }
            for (k, h) in histograms {
                s.histograms.entry(k).or_default().merge(&h);
            }
        });
    }

    /// Records an already-measured span from explicit instants — for
    /// phases whose start predates any recorder call, like a request's
    /// queue wait (the span starts when the request is enqueued but can
    /// only be recorded once a worker picks it up). Instants before the
    /// recorder's epoch clamp to 0.
    pub fn record_span(&self, name: &str, cat: &str, start: Instant, end: Instant) {
        let Some(inner) = &self.inner else { return };
        let start_us = start.saturating_duration_since(inner.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let tid = state.tid();
        state.spans.push(SpanEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            start_us,
            dur_us,
            tid,
            args: Vec::new(),
        });
    }
}

#[derive(Debug)]
struct LiveSpan {
    inner: Arc<Inner>,
    name: String,
    cat: String,
    start: Instant,
    args: Vec<(String, String)>,
}

/// RAII guard for an open span; records a [`SpanEvent`] on drop. For a
/// disabled recorder the guard is empty and dropping it is free.
#[derive(Debug)]
#[must_use = "a span records when this guard drops; binding it to `_` drops immediately"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Attaches a key/value annotation (rendered with `Display`).
    pub fn with_arg(mut self, key: &str, value: &dyn std::fmt::Display) -> Self {
        if let Some(live) = self.live.as_mut() {
            live.args.push((key.to_string(), value.to_string()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        let start_us = live
            .start
            .saturating_duration_since(live.inner.epoch)
            .as_secs_f64()
            * 1e6;
        let dur_us = end.saturating_duration_since(live.start).as_secs_f64() * 1e6;
        let mut state = live.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let tid = state.tid();
        state.spans.push(SpanEvent {
            name: live.name,
            cat: live.cat,
            start_us,
            dur_us,
            tid,
            args: live.args,
        });
    }
}

/// Opens a span on a [`Recorder`] with optional `key = value`
/// annotations:
///
/// ```
/// use adapipe_obs::{span, Recorder};
/// let rec = Recorder::new();
/// let stage = 3;
/// let _g = span!(rec, "knapsack", stage = stage, layers = 24);
/// ```
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $rec.span($name)
    };
    ($rec:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $rec.span($name)$(.with_arg(stringify!($key), &$value))+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let rec = Recorder::new();
        rec.add("c", 2);
        rec.incr("c");
        rec.gauge("g", 1.5);
        rec.gauge("g", 2.5);
        rec.gauge_max("peak", 3.0);
        rec.gauge_max("peak", 1.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            rec.observe("h", v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(rec.counter("c"), 3);
        assert_eq!(snap.gauges["g"], 2.5);
        assert_eq!(snap.gauges["peak"], 3.0);
        let h = snap.histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 4.0);
        assert!((h.sum - 10.0).abs() < 1e-12);
        assert!(h.p50 >= 1.0 && h.p50 <= 3.0);
        assert!(h.p95 >= h.p50);
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let rec = Recorder::new();
        {
            let _outer = span!(rec, "outer", kind = "test");
            let _inner = rec.span_cat("inner", "unit");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Inner drops first.
        assert_eq!(snap.spans[0].name, "inner");
        assert_eq!(snap.spans[0].cat, "unit");
        assert_eq!(snap.spans[1].name, "outer");
        assert_eq!(snap.spans[1].args, vec![("kind".into(), "test".into())]);
        let (o, i) = (&snap.spans[1], &snap.spans[0]);
        assert!(o.start_us <= i.start_us);
        assert!(o.start_us + o.dur_us >= i.start_us + i.dur_us);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add("c", 10);
        rec.gauge("g", 1.0);
        rec.observe("h", 1.0);
        let _g = span!(rec, "s", a = 1);
        drop(_g);
        assert_eq!(rec.counter("c"), 0);
        assert_eq!(rec.gauge_value("g"), None);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn disabled_recorder_is_effectively_free() {
        // Guard against the no-op path acquiring locks or allocating:
        // ten million disabled ops must finish far faster than any
        // realistic lock-per-op implementation would (functional bound,
        // deliberately loose to stay robust on loaded CI machines).
        let rec = Recorder::disabled();
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            rec.add("k", i);
        }
        assert!(
            start.elapsed().as_secs_f64() < 2.0,
            "no-op recorder too slow: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn clones_share_the_registry() {
        let rec = Recorder::new();
        let other = rec.clone();
        other.incr("shared");
        assert_eq!(rec.counter("shared"), 1);
    }

    #[test]
    fn time_wraps_and_returns() {
        let rec = Recorder::new();
        let out = rec.time("work", || 41 + 1);
        assert_eq!(out, 42);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "work");
        assert!(snap.spans[0].dur_us >= 0.0);
    }

    #[test]
    fn absorb_merges_metrics_but_not_spans() {
        let registry = Recorder::new();
        registry.add("c", 1);
        registry.gauge("depth", 2.0);
        registry.observe("lat", 10.0);

        let request = Recorder::new();
        request.add("c", 2);
        request.gauge("depth", 5.0);
        request.observe("lat", 40.0);
        request.time("request-span", || {});

        registry.absorb(&request);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.gauges["depth"], 5.0, "gauges max-fold");
        let h = snap.histograms["lat"];
        assert_eq!(h.count, 2);
        assert!((h.sum - 50.0).abs() < 1e-9);
        assert_eq!(h.max, 40.0);
        assert!(snap.spans.is_empty(), "spans stay with the request");
        // The donor is untouched.
        assert_eq!(request.counter("c"), 2);
    }

    #[test]
    fn absorb_with_disabled_sides_is_a_noop() {
        let enabled = Recorder::new();
        enabled.incr("c");
        Recorder::disabled().absorb(&enabled);
        enabled.absorb(&Recorder::disabled());
        assert_eq!(enabled.counter("c"), 1);
    }

    #[test]
    fn absorbed_counters_saturate_instead_of_overflowing() {
        let near_max = Recorder::new();
        near_max.add("c", u64::MAX - 1);
        near_max.observe("h", 1.0);
        let registry = Recorder::new();
        registry.add("c", 5);
        registry.absorb(&near_max);
        registry.absorb(&near_max);
        registry.incr("c");
        assert_eq!(registry.counter("c"), u64::MAX);
        assert_eq!(registry.snapshot().histograms["h"].count, 2);
    }

    #[test]
    fn record_span_injects_explicit_intervals() {
        let rec = Recorder::new();
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(1500);
        rec.record_span("queue.wait", "serve", start, end);
        // Pre-epoch starts clamp to 0 rather than going negative.
        let before_epoch = start - std::time::Duration::from_secs(3600);
        rec.record_span("clamped", "serve", before_epoch, start);
        let snap = rec.snapshot();
        let q = snap.spans.iter().find(|s| s.name == "queue.wait").unwrap();
        assert_eq!(q.cat, "serve");
        assert!((q.dur_us - 1500.0).abs() < 1.0);
        let c = snap.spans.iter().find(|s| s.name == "clamped").unwrap();
        assert_eq!(c.start_us, 0.0);
    }

    #[test]
    fn summary_quantiles_are_monotone_through_p99() {
        let rec = Recorder::new();
        for i in 1..=1000 {
            rec.observe("h", f64::from(i));
        }
        let h = rec.snapshot().histograms["h"];
        assert_eq!(h.count, 1000);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
        assert_eq!(h.max, 1000.0);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let rec = Recorder::new();
        rec.time("main-thread", || {});
        let r2 = rec.clone();
        std::thread::spawn(move || r2.time("worker", || {}))
            .join()
            .unwrap();
        let snap = rec.snapshot();
        let main_tid = snap.spans.iter().find(|s| s.name == "main-thread").unwrap();
        let worker = snap.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_ne!(main_tid.tid, worker.tid);
    }
}
