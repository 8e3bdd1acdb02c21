//! The file-wide waiver the string-formatting modules carry, and a
//! waiver on one item.
#![expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]

use std::fmt::Write as _;

pub fn render(out: &mut String, path: &str) {
    let _ = writeln!(out, "{path}");
}

#[expect(
    clippy::let_underscore_must_use,
    clippy::let_underscore_untyped,
    reason = "best-effort cache warm-up"
)]
pub fn warm(path: &str) {
    let _ = std::fs::write(path, "");
}
