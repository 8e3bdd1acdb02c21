//! Concurrency contract of the observability layer: writers hammering
//! counters, histograms and the flight ring while another thread
//! snapshots must never deadlock, lose updates, or tear a
//! [`HistogramSummary`]. All of it under `#![forbid(unsafe_code)]` —
//! the only synchronization primitive in play is a poisoning-immune
//! `Mutex`, so these tests are a loom-free stress harness plus
//! property tests over the histogram's summary invariants.

use adapipe_obs::{FlightRecorder, Recorder, StreamingHistogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 4;
const OPS_PER_WRITER: u64 = 10_000;

/// Every increment lands: concurrent writers on a shared key and on
/// per-thread keys, with a snapshot thread spinning the whole time.
#[test]
fn counters_are_exact_under_contention() {
    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let snapshotter = {
        let rec = rec.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut snaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = rec.snapshot();
                // A mid-flight snapshot sees some prefix of the updates,
                // never more than the final total.
                assert!(
                    snap.counters.get("shared").copied().unwrap_or(0)
                        <= WRITERS as u64 * OPS_PER_WRITER
                );
                snaps += 1;
            }
            snaps
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = rec.clone();
            thread::spawn(move || {
                for _ in 0..OPS_PER_WRITER {
                    rec.add("shared", 1);
                    rec.incr(&format!("writer.{w}"));
                }
            })
        })
        .collect();
    for t in writers {
        t.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let snaps = snapshotter.join().expect("snapshotter panicked");
    assert!(snaps > 0, "snapshot thread never ran");

    let snap = rec.snapshot();
    assert_eq!(
        snap.counters.get("shared").copied(),
        Some(WRITERS as u64 * OPS_PER_WRITER)
    );
    for w in 0..WRITERS {
        assert_eq!(
            snap.counters.get(&format!("writer.{w}")).copied(),
            Some(OPS_PER_WRITER),
            "writer {w} lost increments"
        );
    }
}

/// A summary read mid-stream is always internally consistent — the
/// quantiles are ordered, bounded by the observed extrema, and the
/// totals never exceed what has been recorded. A torn summary (e.g.
/// p95 from one generation, max from another) would violate these.
#[test]
fn snapshots_never_tear_a_histogram_summary() {
    const LO: f64 = 1.0;
    const HI: f64 = 1e6;
    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));
    let checker = {
        let rec = rec.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut checked = 0u64;
            loop {
                // Read `stop` before the snapshot: the pass that sees it
                // set still checks one snapshot taken after every write,
                // so the checker cannot exit before seeing the histogram.
                let done = stop.load(Ordering::Acquire);
                let snap = rec.snapshot();
                if let Some(h) = snap.histograms.get("lat") {
                    assert!(h.p50 <= h.p95, "p50 {} > p95 {}", h.p50, h.p95);
                    assert!(h.p95 <= h.p99, "p95 {} > p99 {}", h.p95, h.p99);
                    assert!(h.p99 <= h.max, "p99 {} > max {}", h.p99, h.max);
                    assert!(h.max <= HI, "max {} above any recorded value", h.max);
                    assert!(h.p50 >= LO * 0.9, "p50 {} below any recorded value", h.p50);
                    assert!(h.count <= WRITERS as u64 * OPS_PER_WRITER);
                    assert!(
                        h.sum <= h.count as f64 * HI + 1e-6,
                        "sum {} impossible for count {}",
                        h.sum,
                        h.count
                    );
                    checked += 1;
                }
                if done {
                    break;
                }
            }
            checked
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = rec.clone();
            thread::spawn(move || {
                // Deterministic per-thread log-spread values in [LO, HI].
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (w as u64) << 32 | 1;
                for _ in 0..OPS_PER_WRITER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
                    rec.observe("lat", LO * (HI / LO).powf(unit));
                }
            })
        })
        .collect();
    for t in writers {
        t.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Release);
    let checked = checker.join().expect("checker panicked");
    assert!(checked > 0, "checker never saw the histogram");
    let snap = rec.snapshot();
    let h = snap.histograms.get("lat").expect("histogram exists");
    assert_eq!(h.count, WRITERS as u64 * OPS_PER_WRITER);
}

/// The flight ring stays bounded under concurrent noters and accounts
/// every overwritten event in `dropped`.
#[test]
fn flight_ring_is_bounded_and_accounts_drops() {
    const CAPACITY: usize = 64;
    let flight = FlightRecorder::new(CAPACITY);
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let flight = flight.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snap = flight.snapshot();
                assert!(snap.events.len() <= CAPACITY);
                assert_eq!(snap.capacity, CAPACITY);
            }
        })
    };
    let noters: Vec<_> = (0..WRITERS)
        .map(|w| {
            let flight = flight.clone();
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    flight.note("stress", format!("writer {w} event {i}"));
                }
            })
        })
        .collect();
    for t in noters {
        t.join().expect("noter panicked");
    }
    stop.store(true, Ordering::Relaxed);
    watcher.join().expect("watcher panicked");

    let snap = flight.snapshot();
    let total = WRITERS as u64 * OPS_PER_WRITER;
    assert_eq!(snap.events.len(), CAPACITY);
    assert_eq!(
        snap.dropped + snap.events.len() as u64,
        total,
        "every note is either retained or counted as dropped"
    );
}

/// Cross-absorbing recorders while both sides take writes and
/// snapshots must not deadlock (absorb clones the donor under its own
/// lock, then folds — locks are never held nested).
#[test]
fn cross_absorb_is_deadlock_free() {
    let a = Recorder::new();
    let b = Recorder::new();
    let threads: Vec<_> = (0..2)
        .map(|dir| {
            let (src, dst) = if dir == 0 {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            };
            thread::spawn(move || {
                for i in 0..500 {
                    src.incr("ticks");
                    src.observe("lat", f64::from(i) + 1.0);
                    dst.absorb(&src);
                    let _ = dst.snapshot();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("absorber panicked");
    }
    // Both registries end up with every key; totals are positive and
    // the process got here — no deadlock, no poisoned-lock panic.
    for rec in [&a, &b] {
        let snap = rec.snapshot();
        assert!(snap.counters.get("ticks").copied().unwrap_or(0) >= 500);
        assert!(snap.histograms.contains_key("lat"));
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any in-range positive sample set (the buckets cover
        /// `2^-32..2^32`; outside that, values clamp and only the
        /// exact accumulators stay tight) yields an
        /// internally-consistent summary whose quantiles respect the
        /// documented relative error bound.
        #[test]
        fn summary_invariants_hold_for_arbitrary_samples(
            xs in proptest::collection::vec(1e-6f64..1e9, 1..400)
        ) {
            let mut hist = StreamingHistogram::new();
            for x in &xs {
                hist.record(*x);
            }
            let s = hist.summary();
            prop_assert_eq!(s.count, xs.len() as u64);
            prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
            let exact_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((s.max - exact_max).abs() <= exact_max * 1e-12, "max is exact");
            let exact_sum: f64 = xs.iter().sum();
            prop_assert!((s.sum - exact_sum).abs() <= exact_sum.abs() * 1e-9, "sum is exact");

            // Nearest-rank p50 against the documented bucket error.
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((sorted.len() - 1) as f64 * 0.5).round() as usize;
            let exact_p50 = sorted[rank];
            let bound = adapipe_obs::hist::quantile_error_bound() + 1e-9;
            prop_assert!(
                (s.p50 - exact_p50).abs() <= exact_p50 * bound,
                "p50 {} vs exact {} exceeds bound {}",
                s.p50, exact_p50, bound
            );
        }

        /// Merging partitions of a sample set is equivalent to one
        /// histogram observing everything (mergeability under any split).
        #[test]
        fn merge_is_partition_invariant(
            xs in proptest::collection::vec(1e-3f64..1e8, 2..200),
            split in 1usize..199
        ) {
            let split = split.min(xs.len() - 1);
            let mut whole = StreamingHistogram::new();
            for x in &xs {
                whole.record(*x);
            }
            let mut left = StreamingHistogram::new();
            let mut right = StreamingHistogram::new();
            for (i, x) in xs.iter().enumerate() {
                if i < split {
                    left.record(*x);
                } else {
                    right.record(*x);
                }
            }
            left.merge(&right);
            let (a, b) = (left.summary(), whole.summary());
            prop_assert_eq!(a.count, b.count);
            prop_assert!((a.sum - b.sum).abs() <= b.sum.abs() * 1e-9);
            prop_assert!((a.p50 - b.p50).abs() <= b.p50.abs() * 1e-12);
            prop_assert!((a.p95 - b.p95).abs() <= b.p95.abs() * 1e-12);
            prop_assert!((a.p99 - b.p99).abs() <= b.p99.abs() * 1e-12);
            prop_assert!((a.max - b.max).abs() <= b.max.abs() * 1e-12);
        }
    }
}
