//! Dimensional analysis as a type system for the AdaPipe cost pipeline.
//!
//! Every quantity the planner reasons about — per-unit forward/backward
//! times feeding the Eq. (1)–(2) knapsack, activation bytes against the
//! stage budget, the `T = W₀ + E₀ + (n−p)·M₀` recurrence of Algorithm 1 —
//! used to be a bare `f64` or `u64`, so a seconds/microseconds or
//! bytes/MiB mix-up type-checked silently and only surfaced as a wrong
//! plan. This crate makes unit confusion a *compile* error: each physical
//! dimension gets a `#[repr(transparent)]` newtype, and only the
//! dimensionally-legal arithmetic is implemented.
//!
//! The legal operations form a tiny algebra:
//!
//! | expression                     | result       | meaning                    |
//! |--------------------------------|--------------|----------------------------|
//! | [`Flops`] / [`FlopsPerSec`]    | [`MicroSecs`]| roofline math time         |
//! | [`Bytes`] / [`BytesPerSec`]    | [`MicroSecs`]| roofline / transfer time   |
//! | [`MicroSecs`] + [`MicroSecs`]  | [`MicroSecs`]| schedule composition       |
//! | [`MicroSecs`] * [`FlopsPerSec`]| [`Flops`]    | budgeted math (MFU)        |
//! | [`Bytes`] saturating/checked ± | [`Bytes`]    | memory accounting          |
//! | scalar `f64`/`u64` scaling     | same unit    | efficiencies, micro-batches|
//!
//! Cross-dimension operations simply do not compile:
//!
//! ```compile_fail
//! use adapipe_units::{Bytes, MicroSecs};
//! // Adding a memory footprint to a time is dimensional nonsense.
//! let _ = MicroSecs::new(1.0) + Bytes::new(1);
//! ```
//!
//! ```compile_fail
//! use adapipe_units::{Bytes, Flops, FlopsPerSec};
//! // Bytes are not Flops: the roofline math term rejects the swap.
//! let rate = FlopsPerSec::new(1e12);
//! let _ = Bytes::new(1024) / rate;
//! ```
//!
//! ```compile_fail
//! use adapipe_units::{Bytes, MicroSecs};
//! // The knapsack's value axis is time; passing the memory axis where
//! // time is expected fails to compile.
//! fn value_axis(saved: MicroSecs) -> MicroSecs { saved }
//! let _ = value_axis(Bytes::new(4096));
//! ```
//!
//! Fields are private on purpose: escaping a newtype goes through a
//! named accessor (`as_secs`, `get`, …), and `xtask lint`'s
//! `raw-quantity-in-api` rule keeps bare `f64`/`u64` quantities out of
//! public signatures.
//!
//! See `docs/units.md` for the mapping from these types to the paper's
//! symbols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

// ---------------------------------------------------------------------------
// MicroSecs
// ---------------------------------------------------------------------------

/// A duration in microseconds — the native tick of the cost model.
///
/// Kernel times, pipeline-stage times and iteration times all live at the
/// microsecond-to-second scale, so storing µs keeps the mantissa busy with
/// significant digits instead of leading zeros. Construct from seconds
/// with [`MicroSecs::from_secs`] (profiling hardware knobs are usually
/// quoted in seconds) and read back with [`MicroSecs::as_secs`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct MicroSecs(f64);

impl MicroSecs {
    /// Zero duration.
    pub const ZERO: MicroSecs = MicroSecs(0.0);

    /// A duration of `us` microseconds.
    #[must_use]
    pub const fn new(us: f64) -> Self {
        MicroSecs(us)
    }

    /// Converts from seconds (×10⁶).
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        MicroSecs(secs * 1e6)
    }

    /// Converts from milliseconds (×10³).
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        MicroSecs(ms * 1e3)
    }

    /// The raw microsecond count.
    #[must_use]
    pub const fn as_micros(self) -> f64 {
        self.0
    }

    /// The duration in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 * 1e-6
    }

    /// The duration in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e-3
    }

    /// The larger of two durations (IEEE `max`: ignores a NaN operand).
    #[must_use]
    pub fn max(self, other: MicroSecs) -> MicroSecs {
        MicroSecs(self.0.max(other.0))
    }

    /// The smaller of two durations (IEEE `min`: ignores a NaN operand).
    #[must_use]
    pub fn min(self, other: MicroSecs) -> MicroSecs {
        MicroSecs(self.0.min(other.0))
    }

    /// Magnitude of the duration (useful for signed differences).
    #[must_use]
    pub fn abs(self) -> MicroSecs {
        MicroSecs(self.0.abs())
    }

    /// True unless the duration is NaN or ±∞.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// True when the duration is negative or NaN — never legal for a
    /// measured or modeled cost; verifiers use this to reject plans.
    #[must_use]
    pub fn is_invalid_cost(self) -> bool {
        self.0.is_nan() || self.0 < 0.0 || self.0.is_infinite()
    }
}

impl Add for MicroSecs {
    type Output = MicroSecs;
    fn add(self, rhs: MicroSecs) -> MicroSecs {
        MicroSecs(self.0 + rhs.0)
    }
}

impl AddAssign for MicroSecs {
    fn add_assign(&mut self, rhs: MicroSecs) {
        self.0 += rhs.0;
    }
}

impl Sub for MicroSecs {
    type Output = MicroSecs;
    fn sub(self, rhs: MicroSecs) -> MicroSecs {
        MicroSecs(self.0 - rhs.0)
    }
}

impl SubAssign for MicroSecs {
    fn sub_assign(&mut self, rhs: MicroSecs) {
        self.0 -= rhs.0;
    }
}

impl Neg for MicroSecs {
    type Output = MicroSecs;
    fn neg(self) -> MicroSecs {
        MicroSecs(-self.0)
    }
}

/// Scaling by a dimensionless factor (efficiencies, probabilities).
impl Mul<f64> for MicroSecs {
    type Output = MicroSecs;
    fn mul(self, rhs: f64) -> MicroSecs {
        MicroSecs(self.0 * rhs)
    }
}

/// Scaling from the left, so `(n - p) as f64 * m0` reads like Eq. (3).
impl Mul<MicroSecs> for f64 {
    type Output = MicroSecs;
    fn mul(self, rhs: MicroSecs) -> MicroSecs {
        MicroSecs(self * rhs.0)
    }
}

/// Dividing by a dimensionless factor.
impl Div<f64> for MicroSecs {
    type Output = MicroSecs;
    fn div(self, rhs: f64) -> MicroSecs {
        MicroSecs(self.0 / rhs)
    }
}

/// The ratio of two durations is dimensionless (relative errors, MFU).
impl Div<MicroSecs> for MicroSecs {
    type Output = f64;
    fn div(self, rhs: MicroSecs) -> f64 {
        self.0 / rhs.0
    }
}

/// Time × math rate = math amount — the budget side of an MFU figure.
impl Mul<FlopsPerSec> for MicroSecs {
    type Output = Flops;
    fn mul(self, rhs: FlopsPerSec) -> Flops {
        Flops(self.0 * 1e-6 * rhs.0)
    }
}

/// Time × transfer rate = data volume — how many bytes a bus can move in
/// a window (rounds down to whole bytes; negative windows clamp to zero).
impl Mul<BytesPerSec> for MicroSecs {
    type Output = Bytes;
    fn mul(self, rhs: BytesPerSec) -> Bytes {
        Bytes((self.0 * 1e-6 * rhs.0).max(0.0) as u64)
    }
}

impl Sum for MicroSecs {
    fn sum<I: Iterator<Item = MicroSecs>>(iter: I) -> MicroSecs {
        MicroSecs(iter.map(|t| t.0).sum())
    }
}

impl<'a> Sum<&'a MicroSecs> for MicroSecs {
    fn sum<I: Iterator<Item = &'a MicroSecs>>(iter: I) -> MicroSecs {
        MicroSecs(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for MicroSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.prec$}us", self.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

/// A memory footprint or message size in bytes.
///
/// Plain `+`/`-` are deliberately *not* implemented: memory accounting
/// must choose between the saturating and checked flavors so overflow and
/// underflow are explicit decisions, never silent wraparound (the stage
/// budget `capacity − static − buffer` underflows exactly when a stage is
/// infeasible, which callers must observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// A footprint of `n` bytes.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// `n` mebibytes (n × 2²⁰ bytes).
    #[must_use]
    pub const fn from_mib(n: u64) -> Self {
        Bytes(n << 20)
    }

    /// `n` gibibytes (n × 2³⁰ bytes).
    #[must_use]
    pub const fn from_gib(n: u64) -> Self {
        Bytes(n << 30)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The byte count as an `f64` (for ratios and display only).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Sum that clamps at `u64::MAX` instead of wrapping.
    #[must_use]
    pub const fn saturating_add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }

    /// Difference that clamps at zero instead of wrapping — the "how much
    /// budget is left" operation.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Sum, or `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: Bytes) -> Option<Bytes> {
        match self.0.checked_add(rhs.0) {
            Some(n) => Some(Bytes(n)),
            None => None,
        }
    }

    /// Difference, or `None` when `rhs` exceeds `self` — this is how the
    /// memory model reports an infeasible stage budget.
    #[must_use]
    pub const fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        match self.0.checked_sub(rhs.0) {
            Some(n) => Some(Bytes(n)),
            None => None,
        }
    }

    /// Scales by a count (micro-batches, replicas), saturating.
    #[must_use]
    pub const fn saturating_mul(self, count: u64) -> Bytes {
        Bytes(self.0.saturating_mul(count))
    }

    /// The larger footprint.
    #[must_use]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// The smaller footprint.
    #[must_use]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// Whether this footprint fits within `capacity`.
    #[must_use]
    pub fn fits(self, capacity: Bytes) -> bool {
        self.0 <= capacity.0
    }
}

/// Scaling by a count (micro-batches, live activations). Panics on
/// overflow in debug builds like ordinary integer arithmetic.
impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

/// Scaling from the left: `live * saved_bytes`.
impl Mul<Bytes> for u64 {
    type Output = Bytes;
    fn mul(self, rhs: Bytes) -> Bytes {
        Bytes(self * rhs.0)
    }
}

/// Even split across `rhs` parts (integer division, rounds down).
impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl<'a> Sum<&'a Bytes> for Bytes {
    fn sum<I: Iterator<Item = &'a Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1 << 30 {
            write!(f, "{:.2} GiB", self.0 as f64 / (1u64 << 30) as f64)
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2} MiB", self.0 as f64 / (1u64 << 20) as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Flops and rates
// ---------------------------------------------------------------------------

/// An amount of floating-point work (FLOPs — a count, not a rate).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Flops(f64);

impl Flops {
    /// Zero work.
    pub const ZERO: Flops = Flops(0.0);

    /// `n` floating-point operations. `f64` because unit FLOP counts
    /// (6·s·h² and friends) overflow nothing but are born fractional.
    #[must_use]
    pub const fn new(n: f64) -> Self {
        Flops(n)
    }

    /// The raw operation count.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

/// Scaling by a dimensionless factor (2× for the backward pass, etc.).
impl Mul<f64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: f64) -> Flops {
        Flops(self.0 * rhs)
    }
}

/// Scaling from the left: `6.0 * params * tokens` style estimates.
impl Mul<Flops> for f64 {
    type Output = Flops;
    fn mul(self, rhs: Flops) -> Flops {
        Flops(self * rhs.0)
    }
}

/// Work / rate = time: the math leg of the roofline.
impl Div<FlopsPerSec> for Flops {
    type Output = MicroSecs;
    fn div(self, rhs: FlopsPerSec) -> MicroSecs {
        MicroSecs(self.0 / rhs.0 * 1e6)
    }
}

/// The ratio of two work amounts is dimensionless (MFU).
impl Div<Flops> for Flops {
    type Output = f64;
    fn div(self, rhs: Flops) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        Flops(iter.map(|x| x.0).sum())
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GFLOP", self.0 / 1e9)
    }
}

/// A math rate in FLOP/s (device peak or sustained).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct FlopsPerSec(f64);

impl FlopsPerSec {
    /// A rate of `per_sec` FLOP/s.
    #[must_use]
    pub const fn new(per_sec: f64) -> Self {
        FlopsPerSec(per_sec)
    }

    /// The raw FLOP/s value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

/// Derating by an efficiency fraction.
impl Mul<f64> for FlopsPerSec {
    type Output = FlopsPerSec;
    fn mul(self, rhs: f64) -> FlopsPerSec {
        FlopsPerSec(self.0 * rhs)
    }
}

/// Aggregating across devices: `devices as f64 * peak`.
impl Mul<FlopsPerSec> for f64 {
    type Output = FlopsPerSec;
    fn mul(self, rhs: FlopsPerSec) -> FlopsPerSec {
        FlopsPerSec(self * rhs.0)
    }
}

impl fmt::Display for FlopsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} TFLOP/s", self.0 / 1e12)
    }
}

/// A transfer rate in bytes/s (HBM, NVLink, InfiniBand…).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct BytesPerSec(f64);

impl BytesPerSec {
    /// A rate of `per_sec` bytes/s.
    #[must_use]
    pub const fn new(per_sec: f64) -> Self {
        BytesPerSec(per_sec)
    }

    /// The raw bytes/s value.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}

/// Derating by an efficiency fraction.
impl Mul<f64> for BytesPerSec {
    type Output = BytesPerSec;
    fn mul(self, rhs: f64) -> BytesPerSec {
        BytesPerSec(self.0 * rhs)
    }
}

/// Aggregating parallel links: `links as f64 * bw`.
impl Mul<BytesPerSec> for f64 {
    type Output = BytesPerSec;
    fn mul(self, rhs: BytesPerSec) -> BytesPerSec {
        BytesPerSec(self * rhs.0)
    }
}

/// Data / rate = time: the bandwidth leg of the roofline and every
/// communication estimate.
impl Div<BytesPerSec> for Bytes {
    type Output = MicroSecs;
    fn div(self, rhs: BytesPerSec) -> MicroSecs {
        MicroSecs(self.0 as f64 / rhs.0 * 1e6)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GB/s", self.0 / 1e9)
    }
}

// ---------------------------------------------------------------------------
// Cost — totally ordered, NaN-free
// ---------------------------------------------------------------------------

/// A schedule cost: a duration with a *total* order, safe to use as a DP
/// objective or `BinaryHeap`/`sort` key.
///
/// `f64`'s `PartialOrd` poisons comparisons the moment a NaN sneaks in —
/// a DP that minimizes over NaN silently keeps the wrong branch. `Cost`
/// normalizes NaN to `+∞` at the constructor (the "infeasible" value, so
/// a corrupted candidate can never *win* a minimization) and implements
/// `Ord` via IEEE total ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Cost(f64);

impl Cost {
    /// The infeasible cost: worse than every finite cost.
    pub const INFINITE: Cost = Cost(f64::INFINITY);

    /// Zero cost.
    pub const ZERO: Cost = Cost(0.0);

    /// Wraps a duration, normalizing NaN to `+∞`.
    #[must_use]
    pub fn of(t: MicroSecs) -> Cost {
        if t.0.is_nan() {
            Cost(f64::INFINITY)
        } else {
            Cost(t.0)
        }
    }

    /// The underlying duration (`+∞` µs when infeasible).
    #[must_use]
    pub const fn time(self) -> MicroSecs {
        MicroSecs(self.0)
    }

    /// True for any cost other than [`Cost::INFINITE`].
    #[must_use]
    pub fn is_feasible(self) -> bool {
        self.0.is_finite()
    }
}

impl From<MicroSecs> for Cost {
    fn from(t: MicroSecs) -> Cost {
        Cost::of(t)
    }
}

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Cost) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Cost) -> Ordering {
        // NaN is impossible by construction; total_cmp keeps the
        // comparison total anyway (and orders -0.0 < +0.0 harmlessly).
        self.0.total_cmp(&other.0)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}us", self.0)
        } else {
            write!(f, "infeasible")
        }
    }
}

// ---------------------------------------------------------------------------
// Designated numeric conversions
// ---------------------------------------------------------------------------

/// The sanctioned numeric conversions for cost-carrying code.
///
/// Bare `as` casts silently truncate, wrap or lose precision, so the cost
/// crates (adapipe-recompute, adapipe-partition, adapipe-sim,
/// adapipe-memory, adapipe-check) deny `clippy::as_conversions` outside
/// tests. Code there converts through these helpers — each one
/// documents the rounding/saturation contract it implements — or through
/// `try_from` when failure should be observable at the call site.
pub mod convert {
    /// A count (layers, stages, micro-batches, DP cells) as an `f64`
    /// scaling factor — the `(n − p)` of Eq. (3). Exact for every count
    /// below 2⁵³, which exceeds any quantity the planner enumerates.
    #[must_use]
    pub fn count_f64(n: usize) -> f64 {
        // Counts in this workspace are bounded by layer/stage/microbatch
        // limits far below 2^53, where u64→f64 is exact.
        u64_f64(usize_u64(n))
    }

    /// A `u64` magnitude (bytes, scale factors) as an `f64` for ratio and
    /// display math. Values above 2⁵³ round to the nearest representable
    /// float — acceptable for the statistics this feeds, never used to
    /// re-derive an integer.
    #[must_use]
    pub fn u64_f64(n: u64) -> f64 {
        // `as` is the only primitive for this conversion; the rounding
        // contract is documented above and this is the one sanctioned
        // spelling (see docs/static-analysis.md, `unchecked-cast`).
        n as f64
    }

    /// Widens a `usize` index or count to `u64`. Lossless on every
    /// supported target (usize ≤ 64 bits).
    #[must_use]
    pub fn usize_u64(n: usize) -> u64 {
        n as u64
    }

    /// Widens a `u32` index to `usize`. Lossless on every supported
    /// target (usize ≥ 32 bits).
    #[must_use]
    pub fn u32_usize(n: u32) -> usize {
        n as usize
    }

    /// Narrows a `u64` to `usize`, saturating at `usize::MAX` instead of
    /// wrapping — for sizing DP axes from byte quantities, where a
    /// saturated axis is still sound (it only over-allocates).
    #[must_use]
    pub fn u64_usize_saturating(n: u64) -> usize {
        usize::try_from(n).unwrap_or(usize::MAX)
    }

    /// Truncates a non-negative `f64` toward zero into a `u64`,
    /// clamping negatives to 0 and values beyond `u64::MAX` (or NaN) to
    /// `u64::MAX` — the byte-quantization rule for modeled capacities.
    #[must_use]
    pub fn f64_u64_clamped(x: f64) -> u64 {
        if x.is_nan() || x <= 0.0 {
            0
        } else if x >= u64_f64(u64::MAX) {
            u64::MAX
        } else {
            // In-range by the guards above; `as` truncates toward zero.
            x as u64
        }
    }

    /// Truncates an `f64` into a `usize` with the same clamping contract
    /// as [`f64_u64_clamped`] — for mapping continuous time/ratio axes
    /// onto discrete render or DP cells.
    #[must_use]
    pub fn f64_usize_clamped(x: f64) -> usize {
        u64_usize_saturating(f64_u64_clamped(x))
    }

    /// Reinterprets a `u64` magnitude as a signed delta, saturating at
    /// `i64::MAX` — for signed running-balance accounting (memory
    /// high-water tracking) fed by unsigned byte quantities.
    #[must_use]
    pub fn u64_i64_saturating(n: u64) -> i64 {
        i64::try_from(n).unwrap_or(i64::MAX)
    }

    /// Reads a signed running balance back as an unsigned magnitude,
    /// clamping negatives to 0 — a transient negative balance means
    /// "released more than acquired so far", which is zero held bytes.
    #[must_use]
    pub fn i64_u64_clamped(n: i64) -> u64 {
        u64::try_from(n).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn convert_helpers_honor_their_contracts() {
        assert_eq!(convert::count_f64(0), 0.0);
        assert_eq!(convert::count_f64(12), 12.0);
        assert_eq!(convert::u64_f64(1 << 53), 9_007_199_254_740_992.0);
        assert_eq!(convert::usize_u64(7), 7);
        assert_eq!(convert::u64_usize_saturating(42), 42);
        assert_eq!(convert::f64_u64_clamped(-1.5), 0);
        assert_eq!(convert::f64_u64_clamped(f64::NAN), 0);
        assert_eq!(convert::f64_u64_clamped(3.9), 3);
        assert_eq!(convert::f64_u64_clamped(f64::INFINITY), u64::MAX);
        assert_eq!(convert::f64_u64_clamped(2e19 * 10.0), u64::MAX);
        assert_eq!(convert::f64_usize_clamped(7.9), 7);
        assert_eq!(convert::f64_usize_clamped(-3.0), 0);
        assert_eq!(convert::u64_i64_saturating(5), 5);
        assert_eq!(convert::u64_i64_saturating(u64::MAX), i64::MAX);
        assert_eq!(convert::i64_u64_clamped(-9), 0);
        assert_eq!(convert::i64_u64_clamped(9), 9);
    }

    #[test]
    fn roofline_division_lands_in_microseconds() {
        // 312 TFLOP/s for 312 MFLOP of work = 1 µs.
        let t = Flops::new(312e6) / FlopsPerSec::new(312e12);
        assert!((t.as_micros() - 1.0).abs() < 1e-12, "{t}");
        // 2 TB/s moving 2 MB = 1 µs.
        let t = Bytes::new(2_000_000) / BytesPerSec::new(2e12);
        assert!((t.as_micros() - 1.0).abs() < 1e-12, "{t}");
    }

    #[test]
    fn seconds_round_trip() {
        let t = MicroSecs::from_secs(1.5e-3);
        assert!((t.as_micros() - 1500.0).abs() < 1e-9);
        assert!((t.as_secs() - 1.5e-3).abs() < 1e-15);
        assert!((MicroSecs::from_millis(2.0).as_micros() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn time_times_rate_is_work() {
        let budget = MicroSecs::from_secs(2.0) * FlopsPerSec::new(10.0);
        assert!((budget.get() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_arithmetic_is_explicit_about_underflow() {
        let cap = Bytes::from_gib(1);
        let used = Bytes::from_gib(2);
        assert_eq!(cap.saturating_sub(used), Bytes::ZERO);
        assert_eq!(cap.checked_sub(used), None);
        assert_eq!(used.checked_sub(cap), Some(Bytes::from_gib(1)));
        assert_eq!(Bytes::new(3) * 4, Bytes::new(12));
        assert_eq!(4 * Bytes::new(3), Bytes::new(12));
        assert_eq!(Bytes::new(10) / 3, Bytes::new(3));
        assert!(Bytes::from_mib(512).fits(cap));
        assert!(!used.fits(cap));
    }

    #[test]
    fn bytes_display_scales_units() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(Bytes::from_gib(80).to_string(), "80.00 GiB");
    }

    #[test]
    fn cost_orders_nan_as_infeasible() {
        let good = Cost::of(MicroSecs::new(5.0));
        let nan = Cost::of(MicroSecs::new(f64::NAN));
        assert_eq!(nan, Cost::INFINITE);
        assert!(!nan.is_feasible());
        assert!(good < nan);
        let mut v = [nan, good, Cost::of(MicroSecs::new(1.0))];
        v.sort();
        assert_eq!(v[0].time().as_micros(), 1.0);
        assert_eq!(*v.last().unwrap(), Cost::INFINITE);
        assert_eq!(v.iter().min(), Some(&Cost::of(MicroSecs::new(1.0))));
    }

    #[test]
    fn invalid_cost_detection() {
        assert!(MicroSecs::new(-1.0).is_invalid_cost());
        assert!(MicroSecs::new(f64::NAN).is_invalid_cost());
        assert!(MicroSecs::new(f64::INFINITY).is_invalid_cost());
        assert!(!MicroSecs::new(0.0).is_invalid_cost());
        assert!(!MicroSecs::new(3.5).is_invalid_cost());
    }

    #[test]
    fn sums_accumulate() {
        let total: MicroSecs = [MicroSecs::new(1.0), MicroSecs::new(2.5)].into_iter().sum();
        assert!((total.as_micros() - 3.5).abs() < 1e-12);
        let bytes: Bytes = [Bytes::new(1), Bytes::new(2)].iter().sum();
        assert_eq!(bytes, Bytes::new(3));
        let work: Flops = [Flops::new(1.0), Flops::new(2.0)].into_iter().sum();
        assert!((work.get() - 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn saturating_sub_never_exceeds_lhs(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let d = Bytes::new(a).saturating_sub(Bytes::new(b));
            prop_assert!(d.get() <= a);
            if b <= a {
                prop_assert_eq!(d.get(), a - b);
            } else {
                prop_assert_eq!(d.get(), 0);
            }
        }

        #[test]
        fn cost_min_is_total(xs in proptest::collection::vec(-1e9f64..1e9, 1..20)) {
            let costs: Vec<Cost> = xs.iter().map(|&x| Cost::of(MicroSecs::new(x))).collect();
            let min = costs.iter().min().copied();
            prop_assert!(min.is_some());
            let m = min.unwrap();
            for c in &costs {
                prop_assert!(m <= *c);
            }
        }
    }
}
