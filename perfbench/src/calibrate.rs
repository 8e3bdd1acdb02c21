//! Host-speed calibration.
//!
//! On a shared VM the same binary runs up to ~1.5× slower in one run
//! than in the next, and user CPU time tracks wall time, so the host
//! itself changes speed between runs; medians within a run cannot
//! remove that. Each run therefore also times a frozen, benchmark-owned
//! kernel (a 0/1 knapsack DP shaped like the planner's leaf solves: a
//! value row plus a take-bit table) while the program under test is
//! idle, spread through its window and its set-up, and reports
//! end-to-end times scaled to the reference speed:
//! `reported = measured × reference ms / kernel ms`. The kernel never
//! calls the program and never shares the CPU with it, and its time is
//! left out of every timed window, so a faster (or hungrier) planner
//! still reads faster (or slower).

use crate::grid::Rng;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time (ms) on the idle 2-core reference VM; any fixed value
/// works, this one keeps scaled times close to raw ones there.
pub const REFERENCE_MS: f64 = 12.0;

/// Kernel samples taken between two set-up repetitions.
pub const PER_SETUP: usize = 2;

/// A request is scaled by the median of the kernel samples within this
/// many places of the last one taken before it.
const NEARBY: usize = 4;

const ITEMS: usize = 128;
const CAPACITY: usize = 32_768;

/// The calibration kernel's fixed input.
pub struct Kernel {
    items: Vec<(usize, u64)>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5EED, 99);
        Kernel {
            items: (0..ITEMS)
                .map(|_| (1 + rng.below(1024), 1 + rng.next_u64() % 10_000))
                .collect(),
        }
    }

    /// Runs the kernel once; returns its milliseconds.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        black_box(solve(black_box(&self.items)));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel `n` times; returns each run's milliseconds.
    pub fn samples(&self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.time_ms()).collect()
    }
}

/// How much slower than the reference the host ran around kernel
/// sample `k`: the median of the samples within `NEARBY` places of it,
/// over `REFERENCE_MS`.
pub fn slowness_near(kernel_ms: &[f64], k: usize) -> f64 {
    let nearby = &kernel_ms[k.saturating_sub(NEARBY)..(k + NEARBY + 1).min(kernel_ms.len())];
    median(nearby) / REFERENCE_MS
}

/// The kernel ms around one set-up repetition: the median of the
/// samples taken just before it and just after it.
pub fn around(before: &[f64], after: &[f64]) -> f64 {
    median(&[before, after].concat())
}

/// Seconds of a window that ran the kernel `kernel_ms` times, without
/// the kernel's own time.
pub fn excluding(window: Duration, kernel_ms: &[f64]) -> f64 {
    window.as_secs_f64() - kernel_ms.iter().sum::<f64>() / 1e3
}

fn solve(items: &[(usize, u64)]) -> u64 {
    let words = (CAPACITY + 1).div_ceil(64);
    let mut best = vec![0u64; CAPACITY + 1];
    let mut take = vec![0u64; items.len() * words];
    for (i, &(w, v)) in items.iter().enumerate() {
        for c in (w..=CAPACITY).rev() {
            let with = best[c - w] + v;
            if with > best[c] {
                best[c] = with;
                take[i * words + c / 64] |= 1 << (c % 64);
            }
        }
    }
    // Trace back so the take table is read as well as written.
    let (mut c, mut chosen) = (CAPACITY, 0u64);
    for i in (0..items.len()).rev() {
        if take[i * words + c / 64] >> (c % 64) & 1 == 1 {
            chosen += 1;
            c -= items[i].0;
        }
    }
    best[CAPACITY] ^ chosen
}
