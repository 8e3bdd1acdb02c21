//! Five bare `as` casts across four lines.

pub fn cost_math(n: usize, bytes: u64, t: f64) -> f64 {
    let scale = n as f64; //~ clippy::as_conversions
    let cells = bytes as usize; //~ clippy::as_conversions
    let ticks = t as u64; //~ clippy::as_conversions
    scale + cells as f64 + ticks as f64 //~ clippy::as_conversions clippy::as_conversions
}

pub fn sanctioned_spellings(n: usize, d: std::time::Duration) -> u128 {
    // `try_from` and identifiers containing `as` are not casts.
    let wide = u128::try_from(n).unwrap_or(u128::MAX);
    wide + d.as_micros()
}
