//! Fixture-based self-tests for the lint runner: each rule is driven
//! against a deliberately-violating source file under `fixtures/` and
//! must fire with its own rule id; the `_waived` twin carries a
//! justified `// lint: allow(rule): reason` and must stay silent.
//!
//! Without these the linter is only ever exercised against the live
//! (clean) tree, so a regressed rule would pass silently.

use std::path::{Path, PathBuf};
use xtask::lint::{
    check_bounded_channel, check_float_eq, check_panic_freedom, check_raw_quantities,
    check_stringly_metric, check_swallowed_result, check_unchecked_cast, check_unpooled_thread,
    check_unsafe_header, check_waiver_reasons, Violation,
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
        ("unwrap", "unwrap.rs", check_panic_freedom),
        ("expect", "expect.rs", check_panic_freedom),
        ("panic", "panic.rs", check_panic_freedom),
        ("index", "index.rs", check_panic_freedom),
        ("float-eq", "float_eq.rs", check_float_eq),
        (
            "raw-quantity-in-api",
            "raw_quantity_in_api.rs",
            check_raw_quantities,
        ),
        (
            "swallowed-result",
            "swallowed_result.rs",
            check_swallowed_result,
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
        ("unchecked-cast", "unchecked_cast.rs", check_unchecked_cast),
        (
            "unpooled-thread",
            "unpooled_thread.rs",
            check_unpooled_thread,
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

/// The unchecked-cast fixture holds five bare numeric casts across four
/// lines; `as_micros`, `try_from`, the `convert` helper and the cast
/// inside a string literal all stay silent.
#[test]
fn unchecked_cast_fixture_flags_every_bare_cast() {
    let v = violations(check_unchecked_cast, "unchecked_cast.rs");
    assert_eq!(
        v.len(),
        5,
        "{:?}",
        v.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    assert!(v.iter().all(|v| v.rule == "unchecked-cast"));
}

/// `unsafe-header` works on raw crate-root text, not a SourceFile: the
/// missing-attribute fixture fires, the compliant one does not.
#[test]
fn unsafe_header_fixture() {
    let read = |name: &str| {
        std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests")
                .join("fixtures")
                .join(name),
        )
        .expect("fixture readable")
    };
    let mut v = Vec::new();
    check_unsafe_header(Path::new("lib.rs"), &read("unsafe_header.rs"), &mut v);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "unsafe-header");

    let mut ok = Vec::new();
    check_unsafe_header(Path::new("lib.rs"), &read("unsafe_header_ok.rs"), &mut ok);
    assert!(ok.is_empty());
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
