//! Fixture-based self-tests for the lint pass.
//!
//! Each hand-written rule is driven against a deliberately-violating
//! source file under `fixtures/` and must fire with its own rule id; the
//! `_waived` twin carries a justified `// lint: allow(rule): reason` and
//! must stay silent.
//!
//! The compiler-enforced rules are checked by running the lint pass's
//! own clippy command on the `fixtures/compiler_lints` crate, whose
//! `//~ lint` comments name every error it must report.
//!
//! Without these the linter is only ever exercised against the live
//! (clean) tree, so a regressed rule would pass silently.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use xtask::clippy::{self, Diagnostic};
use xtask::lint::{
    check_bounded_channel, check_float_eq, check_index, check_raw_quantities,
    check_stringly_metric, check_waiver_reasons, Violation,
};
use xtask::source::SourceFile;

type Checker = fn(&SourceFile, &mut Vec<Violation>);

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    SourceFile::parse(PathBuf::from(name), &text)
}

fn violations(checker: Checker, name: &str) -> Vec<Violation> {
    let file = fixture(name);
    let mut out = Vec::new();
    checker(&file, &mut out);
    out
}

/// Every violating fixture fires its own rule id at least once, and
/// nothing else; the `_waived` twin is silent.
#[test]
fn each_rule_fires_on_its_fixture_and_respects_waivers() {
    let cases: &[(&str, &str, Checker)] = &[
        ("index", "index.rs", check_index),
        ("float-eq", "float_eq.rs", check_float_eq),
        (
            "raw-quantity-in-api",
            "raw_quantity_in_api.rs",
            check_raw_quantities,
        ),
        (
            "bounded-channel",
            "bounded_channel.rs",
            check_bounded_channel,
        ),
        (
            "stringly-metric",
            "stringly_metric.rs",
            check_stringly_metric,
        ),
    ];
    for (rule, file, checker) in cases {
        let bad = violations(*checker, file);
        assert!(
            bad.iter().any(|v| v.rule == *rule),
            "{file}: rule `{rule}` did not fire: {:?}",
            bad.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        let waived_name = file.replace(".rs", "_waived.rs");
        let waived = violations(*checker, &waived_name);
        assert!(
            waived.iter().all(|v| v.rule != *rule),
            "{waived_name}: waiver did not suppress `{rule}`: {:?}",
            waived.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }
}

/// The raw-quantity fixture flags both the `flops: f64` and the
/// `bytes: u64` parameter — the rule reads names and scalar types, not
/// just one hard-coded pattern.
#[test]
fn raw_quantity_fixture_flags_both_parameters() {
    let v = violations(check_raw_quantities, "raw_quantity_in_api.rs");
    assert_eq!(
        v.len(),
        2,
        "{:?}",
        v.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    assert!(v.iter().all(|v| v.rule == "raw-quantity-in-api"));
}

/// A waiver naming an unknown rule, with no justification, is itself
/// flagged twice (unknown rule + missing reason).
#[test]
fn bogus_waiver_fixture_is_flagged() {
    let v = violations(check_waiver_reasons, "waiver_bad.rs");
    assert_eq!(
        v.len(),
        2,
        "{:?}",
        v.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    assert!(v.iter().all(|v| v.rule == "waiver"));
}

/// Checks the fixture crate's modules whose names start with `prefix`:
/// one run of the lint pass's clippy command must report exactly the
/// errors named by the `//~ lint …` comments trailing their code lines.
fn check_compiler_fixture(prefix: &str) {
    static RUN: OnceLock<Vec<Diagnostic>> = OnceLock::new();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("compiler_lints");
    let reported = RUN.get_or_init(|| {
        let mut cmd = clippy::command(&fixture);
        cmd.env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiler_lints"),
        );
        clippy::run(&mut cmd).unwrap_or_else(|e| panic!("{e}"))
    });
    let (got, want) =
        clippy::fixture_sites(&fixture, reported, prefix).expect("fixture crate readable");
    assert_eq!(got, want, "reported (left) vs annotated (right)");
}

/// Every moved rule fails with its own lints where annotated; the
/// twins waived by a live `#[expect]`, test code and scoped
/// spawns stay silent; a stale `#[expect]` is reported as unfulfilled.
#[test]
fn compiler_lint_fixtures_fail_exactly_where_annotated() {
    check_compiler_fixture("");
}

/// Every one of the five bare casts is flagged, the sanctioned
/// spellings (`try_from`, `as_micros`) are not, and `#[expect]` waives
/// a cast.
#[test]
fn unchecked_cast_fixture_flags_every_bare_cast() {
    check_compiler_fixture("unchecked_cast");
}

/// `unsafe` code in a library crate is a hard error even where the crate
/// root has no `#![forbid(unsafe_code)]` of its own.
#[test]
fn unsafe_header_fixture() {
    check_compiler_fixture("unsafe_code");
}
