//! `xtask` library surface: the lint pass and the bench artifact
//! differ.
//!
//! Exposed as a library so the fixture-based self-tests in `tests/`
//! can drive the lint rules against deliberately-violating sources
//! (see `tests/fixtures/`); the `xtask` binary in `main.rs` is a thin
//! CLI over [`clippy::run`], [`lint::run`] and [`bench_diff::diff_dirs`].

#![forbid(unsafe_code)]

pub mod bench_diff;
pub mod clippy;
pub mod lint;
pub mod source;
