//! A cast waived by a live `#[expect]`.

#[expect(clippy::as_conversions, reason = "count below 2^53, exact in f64")]
pub fn cost_math_waived(n: usize) -> f64 {
    n as f64
}
