//! Units metadata round-trips and rejections for serialized plans.
//!
//! The golden plans under `tests/golden/*.plan` are the accepted `v2`
//! artifacts (microseconds + bytes, declared in the header); the
//! fixtures under `tests/golden/rejected/` must *fail* to load with
//! the `unit-mismatch` diagnostic. CI drives the same fixtures through
//! the `adapipe verify` binary; these tests pin the library behaviour.

use adapipe::plan_io::{self, PlanParseError};
use std::path::Path;

fn read(rel: &str) -> String {
    // CARGO_MANIFEST_DIR is crates/adapipe; the shared fixtures live at
    // the workspace root.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every checked-in golden plan declares this build's units and loads
/// without conversion warnings.
#[test]
fn golden_plans_are_v2_and_warning_free() {
    for name in ["gpt2_adapipe", "gpt2_even"] {
        let text = read(&format!("tests/golden/{name}.plan"));
        assert!(
            text.starts_with("adapipe-plan v2"),
            "{name}: golden plans must be v2"
        );
        assert!(
            text.contains("units.time = us"),
            "{name}: missing time unit"
        );
        assert!(
            text.contains("units.bytes = B"),
            "{name}: missing byte unit"
        );
        let (plan, warnings) =
            plan_io::from_text_with_warnings(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(warnings.is_empty(), "{name}: unexpected {warnings:?}");
        assert!(!plan.stages.is_empty());
    }
}

/// A checked-in legacy v1 artifact (times in seconds, no units block)
/// loads with the conversion warning, and re-emitting it produces a
/// clean v2 plan that passes the full static verifier.
#[test]
fn legacy_v1_fixture_converts_with_a_warning_and_reverifies() {
    let text = read("tests/golden/legacy_v1.plan");
    assert!(text.starts_with("adapipe-plan v1"), "fixture must be v1");
    assert!(!text.contains("units."), "v1 must carry no units block");

    let (plan, warnings) = plan_io::from_text_with_warnings(&text).expect("v1 fixture loads");
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].contains("legacy v1 plan")
            && warnings[0].contains("seconds")
            && warnings[0].contains("microseconds"),
        "conversion warning must say what was rescaled: {warnings:?}"
    );

    // Re-emit: the upgraded artifact is v2 and loads warning-free.
    let upgraded = plan_io::to_text(&plan);
    assert!(upgraded.starts_with("adapipe-plan v2"), "{upgraded}");
    assert!(upgraded.contains("units.time = us"), "{upgraded}");
    let (back, clean) = plan_io::from_text_with_warnings(&upgraded).expect("v2 re-load");
    assert!(
        clean.is_empty(),
        "upgraded plan must be warning-free: {clean:?}"
    );
    assert_eq!(plan, back, "upgrade round-trip must preserve the plan");

    // The converted plan is not just parseable — it still satisfies
    // every invariant of the world it was planned for (the gpt2 golden
    // config: cluster a, one node).
    let planner = adapipe::Planner::new(
        adapipe_model::presets::gpt2_small(),
        adapipe_hw::presets::cluster_a_with_nodes(1),
    );
    let report = planner.verify_with(&back, adapipe::VerifyOptions::default());
    assert!(
        !report.has_errors(),
        "upgraded v1 plan failed verification:\n{report}"
    );
}

/// Re-planning the golden configuration reproduces the checked-in
/// artifacts byte for byte: gpt2 on cluster a with one node at
/// `(t, p, d) = (2, 4, 1)`, sequence 1024, global batch 32 — what
/// `adapipe plan --model gpt2 --cluster a --nodes 1 --tensor 2
/// --pipeline 4 --seq 1024 --global-batch 32 --method adapipe|even`
/// writes.
#[test]
fn golden_plans_regenerate_byte_for_byte() -> Result<(), adapipe::PlanError> {
    let planner = adapipe::Planner::new(
        adapipe_model::presets::gpt2_small(),
        adapipe_hw::presets::cluster_a_with_nodes(1),
    );
    let parallel = adapipe_model::ParallelConfig::new(2, 4, 1)?;
    let train = adapipe_model::TrainConfig::new(1, 1024, 32)?;
    for (name, method) in [
        ("gpt2_adapipe", adapipe::Method::AdaPipe),
        ("gpt2_even", adapipe::Method::EvenPartitioning),
    ] {
        let plan = planner.plan(method, parallel, train)?;
        assert_eq!(
            plan_io::to_text(&plan),
            read(&format!("tests/golden/{name}.plan")),
            "{name}: re-planned artifact differs from the golden"
        );
    }
    Ok(())
}

/// A plan declaring a foreign time unit is rejected outright — with
/// the stable `unit-mismatch` code — instead of being silently
/// reinterpreted (a ms-vs-µs slip rescales every Eq. (1)–(3) term by
/// 1000×).
#[test]
fn mismatched_units_fixture_is_rejected_with_the_diagnostic_code() {
    let text = read("tests/golden/rejected/units_ms.plan");
    let err = plan_io::from_text_with_warnings(&text)
        .expect_err("ms-declared plan must not load in a µs build");
    assert!(
        err.to_string().starts_with("unit-mismatch:"),
        "diagnostic code missing from message: {err}"
    );
    match err {
        PlanParseError::UnitMismatch {
            key,
            declared,
            expected,
        } => {
            assert_eq!(key, "units.time");
            assert_eq!(declared, "ms");
            assert_eq!(expected, "us");
        }
        other => panic!("wrong error: {other}"),
    }
    // The code is part of the stable diagnostic catalog.
    assert_eq!(
        adapipe_check::CheckCode::UnitMismatch.name(),
        "unit-mismatch"
    );
}
