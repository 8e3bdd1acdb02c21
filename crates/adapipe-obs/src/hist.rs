//! Bounded streaming histograms: log-scaled fixed buckets replacing the
//! raw-sample `Vec<f64>` backend.
//!
//! The old backend kept every observation, so a daemon observing one
//! histogram value per request grew without bound — exactly the
//! sustained-traffic workload `adapipe-serve` created. A
//! [`StreamingHistogram`] instead keeps a **fixed** array of
//! logarithmically spaced buckets plus exact `count`/`sum`/`min`/`max`
//! accumulators: memory is `O(buckets)` no matter how many samples are
//! recorded, and two histograms (from different worker threads or cache
//! shards) merge by adding bucket counts.
//!
//! ## Bucket layout and error bound
//!
//! Positive values are bucketed at [`BUCKETS_PER_OCTAVE`] buckets per
//! power of two, covering `2^-32 .. 2^32` (values outside that range
//! clamp into the edge buckets; `min`/`max`/`sum` stay exact). A
//! quantile is reported as the geometric midpoint of its bucket, so its
//! relative error is at most half a bucket width:
//! `2^(1/(2·BUCKETS_PER_OCTAVE)) − 1 ≈ 4.4 %` for the default 8
//! buckets/octave. Non-positive and non-finite values land in a
//! dedicated underflow bucket whose representative is the exact
//! minimum. The error bound is asserted by tests against an exact
//! sorted-sample computation (see `quantiles_within_documented_bound`).

use crate::recorder::HistogramSummary;

/// Buckets per power of two. 8 gives a ≤ 4.4 % relative quantile error.
pub const BUCKETS_PER_OCTAVE: usize = 8;

/// Octaves covered: `2^-32 .. 2^32` (≈ 2.3e-10 .. 4.3e9 in whatever
/// unit the caller observes — for microsecond timings, sub-nanosecond
/// to over an hour).
const OCTAVES: usize = 64;

/// Exponent offset mapping `log2(v) = -32` to bucket 0.
const EXP_OFFSET: f64 = 32.0;

/// Total positive-value buckets; the histogram's memory is this many
/// `u64`s plus a handful of scalars, independent of the sample count.
pub const BUCKET_COUNT: usize = BUCKETS_PER_OCTAVE * OCTAVES;

/// The documented worst-case relative quantile error for in-range
/// positive values: half a bucket width.
#[must_use]
pub fn quantile_error_bound() -> f64 {
    2f64.powf(1.0 / (2.0 * BUCKETS_PER_OCTAVE as f64)) - 1.0
}

/// A bounded, mergeable, log-bucketed histogram.
#[derive(Debug, Clone)]
pub struct StreamingHistogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Non-positive or non-finite observations (counted exactly; their
    /// representative value is `min`).
    underflow: u64,
    buckets: Box<[u64]>,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram. Allocates the fixed bucket array once.
    #[must_use]
    pub fn new() -> Self {
        StreamingHistogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
            buckets: vec![0u64; BUCKET_COUNT].into_boxed_slice(),
        }
    }

    /// The bucket index of a positive, finite `v`, clamped into range.
    fn bucket_of(v: f64) -> usize {
        let exp = v.log2() + EXP_OFFSET;
        let idx = (exp * BUCKETS_PER_OCTAVE as f64).floor();
        if idx < 0.0 {
            0
        } else if idx >= BUCKET_COUNT as f64 {
            BUCKET_COUNT - 1
        } else {
            idx as usize
        }
    }

    /// The geometric midpoint of bucket `i` — the value a quantile
    /// landing in this bucket is reported as.
    fn representative(i: usize) -> f64 {
        2f64.powf((i as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64 - EXP_OFFSET)
    }

    /// Records one observation. `O(1)`, no allocation.
    pub fn record(&mut self, v: f64) {
        self.count = self.count.saturating_add(1);
        self.sum += v;
        if v.is_finite() {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        if v.is_finite() && v > 0.0 {
            let i = Self::bucket_of(v);
            if let Some(b) = self.buckets.get_mut(i) {
                *b = b.saturating_add(1);
            }
        } else {
            self.underflow = self.underflow.saturating_add(1);
        }
    }

    /// Folds `other` into `self` — the merge is exact for
    /// count/sum/min/max and bucket-exact for quantiles, so per-thread
    /// histograms can be combined into one registry without re-observing
    /// samples.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.underflow = self.underflow.saturating_add(other.underflow);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether anything has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The fixed number of buckets backing this histogram — its memory
    /// footprint in `u64`s, independent of [`StreamingHistogram::count`].
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest rank over buckets,
    /// reported as the landing bucket's geometric midpoint clamped into
    /// the exact `[min, max]` envelope. Returns 0.0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Nearest-rank, matching the old sorted-sample convention:
        // rank = round(q · (n−1)), 0-based.
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let clamp = |v: f64| v.clamp(self.min, self.max);
        // Underflow sorts first; everything in it reports the exact min.
        if rank < self.underflow {
            return self.min;
        }
        let mut seen = self.underflow;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if n > 0 && rank < seen {
                return clamp(Self::representative(i));
            }
        }
        self.max
    }

    /// Summarizes into the stable snapshot shape (`/metrics` schema).
    /// `sum`/`count`/`max` are exact; quantiles carry the documented
    /// bucket error.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        if self.count == 0 {
            return HistogramSummary {
                count: 0,
                sum: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: if self.max.is_finite() { self.max } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reference distributions — no external
    /// RNG dependency, stable across runs.
    struct XorShift(u64);
    impl XorShift {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    #[test]
    fn exact_fields_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert!((s.sum - 10.0).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
        assert!(s.p50 >= 1.0 && s.p50 <= 3.0, "p50 = {}", s.p50);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn quantiles_within_documented_bound() {
        // A log-uniform reference distribution spanning 6 decades —
        // the shape bucket error is worst at.
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut h = StreamingHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..50_000 {
            let v = 10f64.powf(rng.next_f64() * 6.0 - 1.0);
            h.record(v);
            samples.push(v);
        }
        samples.sort_by(f64::total_cmp);
        let bound = quantile_error_bound();
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= bound + 1e-9,
                "q={q}: approx {approx} vs exact {exact} (rel {rel:.4} > bound {bound:.4})"
            );
        }
    }

    #[test]
    fn memory_is_o_buckets_regardless_of_sample_count() {
        let mut h = StreamingHistogram::new();
        let before = h.bucket_count();
        for i in 0..1_000_000u64 {
            h.record((i % 10_000) as f64 + 0.5);
        }
        // The backing store never grows: same fixed bucket array, plus
        // O(1) scalars. (The old Vec<f64> backend would hold 8 MB here.)
        assert_eq!(h.bucket_count(), before);
        assert_eq!(h.bucket_count(), BUCKET_COUNT);
        assert_eq!(h.count(), 1_000_000);
        assert_eq!(
            std::mem::size_of::<StreamingHistogram>(),
            std::mem::size_of::<StreamingHistogram>(),
        );
    }

    #[test]
    fn merge_equals_observing_everything_in_one() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut whole = StreamingHistogram::new();
        let mut rng = XorShift(42);
        for i in 0..2_000 {
            let v = rng.next_f64() * 1e4 + 0.1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        let (m, w) = (a.summary(), whole.summary());
        assert_eq!(m.count, w.count);
        assert!((m.sum - w.sum).abs() < 1e-6);
        assert_eq!(m.max, w.max);
        assert_eq!(m.p50, w.p50);
        assert_eq!(m.p95, w.p95);
        assert_eq!(m.p99, w.p99);
    }

    #[test]
    fn non_positive_and_non_finite_values_are_counted_not_bucketed() {
        let mut h = StreamingHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(2.0);
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 2.0);
        // Low quantiles report the exact minimum.
        assert_eq!(h.quantile(0.0), -5.0);
        assert!(s.p50 >= -5.0 && s.p50 <= 2.0);
    }

    #[test]
    fn out_of_range_values_clamp_but_keep_exact_envelope() {
        let mut h = StreamingHistogram::new();
        h.record(1e300);
        h.record(1e-300);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 1e300);
        // Quantiles stay inside the exact [min, max] envelope even
        // though both samples landed in clamped edge buckets.
        assert!(h.quantile(0.0) >= 1e-300);
        assert!(h.quantile(1.0) <= 1e300);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = StreamingHistogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(
            (s.sum, s.p50, s.p95, s.p99, s.max),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn single_sample_quantiles_are_near_exact() {
        let mut h = StreamingHistogram::new();
        h.record(17.5);
        let s = h.summary();
        // One sample: every quantile clamps into [min, max] = [17.5, 17.5].
        assert_eq!((s.p50, s.p95, s.p99, s.max), (17.5, 17.5, 17.5, 17.5));
    }
}
