//! `xtask` — workspace maintenance tasks, invoked as
//! `cargo run -p xtask -- <task>`.
//!
//! * `lint` — the panic-freedom and API-hygiene rules documented in
//!   `docs/static-analysis.md`: one `cargo clippy` run over the library
//!   crates with those rules' compiler lints denied, then the
//!   hand-written rules no compiler lint covers. Those are deliberately
//!   *not* a Rust parser — they scan masked source text (comments and
//!   strings blanked) so they stay dependency-free and fast, at the cost
//!   of only catching the idioms they were written for.
//! * `bench-diff` — compares two directories of `BENCH_*.json` bench
//!   artifacts and fails when a deterministic work counter changes at
//!   all or a rate or time regresses by >20% (see
//!   `docs/observability.md`).

use xtask::{bench_diff, clippy, lint};

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p xtask -- <task>

tasks:
  lint                              run clippy with the workspace's denied lints,
                                    then the source-level lint pass
                                    (see docs/static-analysis.md)
  bench-diff <baseline-dir> <new>   compare BENCH_*.json artifacts; exits
                                    non-zero when a work counter changes or a
                                    rate or time regresses >20%
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(task) = args.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match task.as_str() {
        "lint" => lint_task(),
        "bench-diff" => {
            let (Some(baseline), Some(new)) = (args.next(), args.next()) else {
                eprintln!("error: bench-diff needs <baseline-dir> and <new-dir>\n");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            };
            bench_diff_task(&PathBuf::from(baseline), &PathBuf::from(new))
        }
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown task `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn bench_diff_task(baseline: &Path, new: &Path) -> ExitCode {
    let report = match bench_diff::diff_dirs(baseline, new) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in &report.missing_in_new {
        println!("note: {name} present in baseline only — skipped");
    }
    for name in &report.only_in_new {
        println!("note: {name} present in new run only — no baseline");
    }
    for d in &report.diffs {
        println!("{d}");
    }
    let regressions = report.regressions(bench_diff::REGRESSION_THRESHOLD);
    if regressions.is_empty() {
        println!(
            "bench-diff: ok — {} metric(s) compared, no work counter changed, \
             no rate or time regressed >{:.0}%",
            report.diffs.len(),
            bench_diff::REGRESSION_THRESHOLD * 100.0
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "\nbench-diff: {} regression(s) (changed work counters, rates or times >{:.0}% worse):",
        regressions.len(),
        bench_diff::REGRESSION_THRESHOLD * 100.0
    );
    for d in regressions {
        println!("  REGRESSED {d}");
    }
    ExitCode::FAILURE
}

fn lint_task() -> ExitCode {
    let root = workspace_root();
    let compiler = match clippy::run(&mut clippy::command(&root)) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = lint::run(&root);
    if compiler.is_empty() && violations.is_empty() {
        println!("lint: ok — no violations");
        return ExitCode::SUCCESS;
    }
    for d in &compiler {
        print!("{}", d.rendered);
    }
    for v in &violations {
        println!("{v}");
    }
    println!("lint: {} violation(s)", compiler.len() + violations.len());
    ExitCode::FAILURE
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo,
/// the current directory otherwise.
fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(dir);
        if let Some(root) = manifest.parent().and_then(|p| p.parent()) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}
