//! The compiler-enforced half of the lint pass: one `cargo clippy` run
//! over the workspace's library crates with the lints in [`FLAGS`]
//! raised to errors. The comments in [`FLAGS`] name the rule each lint
//! enforces, as `docs/static-analysis.md` lists them.
//!
//! A site is waived with `#[expect(lint, reason = "…")]`. An `allow` or
//! `expect` without a reason is an error, and so is an `expect` that
//! suppresses nothing.

use adapipe_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The lint levels handed to clippy, one flag each.
pub const FLAGS: &[&str] = &[
    // `unsafe-header`
    "-Funsafe_code",
    // `unwrap`, `expect`, `panic`
    "-Dclippy::unwrap_used",
    "-Dclippy::expect_used",
    "-Dclippy::panic",
    "-Dclippy::todo",
    "-Dclippy::unimplemented",
    // `swallowed-result`
    "-Dclippy::let_underscore_must_use",
    "-Dclippy::let_underscore_untyped",
    // `unpooled-thread`, with `std::thread::spawn` listed in `clippy/clippy.toml`
    "-Dclippy::disallowed_methods",
    // Waivers must give a reason and must still suppress something.
    "-Dclippy::allow_attributes_without_reason",
    "-Dunfulfilled_lint_expectations",
];

/// Workspace members the run leaves out: the benchmark harness
/// (experiment-driver code, like `benches/`) and the offline stand-ins
/// for external crates under `shims/`. The flags reach every member a
/// run compiles, so the harness must go too: its library pulls in the
/// `criterion` shim.
const SKIPPED: &[&str] = &[
    "adapipe-bench",
    "criterion",
    "proptest",
    "rand",
    "serde",
    "serde_derive",
];

/// One error the compiler reported.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The lint or error code (`clippy::unwrap_used`); empty when the
    /// compiler gave none.
    pub code: String,
    /// The file of the primary span, relative to the workspace root.
    pub path: PathBuf,
    /// The primary span's first line, 1-based.
    pub line: usize,
    /// The compiler's human-readable rendering.
    pub rendered: String,
}

/// The `cargo clippy` command for the cargo workspace at `root`: every
/// member's library target except `SKIPPED`, at the levels in
/// [`FLAGS`], with JSON diagnostics on stdout.
pub fn command(root: &Path) -> Command {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.arg("clippy")
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .args(["--workspace", "--lib", "--keep-going", "--quiet"])
        .arg("--message-format=json");
    for name in SKIPPED {
        cmd.args(["--exclude", name]);
    }
    cmd.arg("--").args(FLAGS).env(
        "CLIPPY_CONF_DIR",
        Path::new(env!("CARGO_MANIFEST_DIR")).join("clippy"),
    );
    cmd
}

/// An error site: the file relative to the crate root, the 1-based
/// line and the lint.
pub type Site = (PathBuf, usize, String);

/// The error sites in the files under `root/src` whose names start with
/// `prefix`: first those in `reported` (a run of [`command`] on the
/// crate at `root`), then those named by the `//~ lint …` comments
/// trailing its code lines, each sorted. A fixture crate passes when
/// the two agree.
///
/// # Errors
///
/// When `root/src` or one of its files cannot be read.
pub fn fixture_sites(
    root: &Path,
    reported: &[Diagnostic],
    prefix: &str,
) -> std::io::Result<(Vec<Site>, Vec<Site>)> {
    let in_scope = |path: &Path| {
        path.file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
    };
    let mut got: Vec<Site> = reported
        .iter()
        .filter(|d| in_scope(&d.path))
        .map(|d| (d.path.clone(), d.line, d.code.clone()))
        .collect();
    let mut want = Vec::new();
    for entry in std::fs::read_dir(root.join("src"))? {
        let path = entry?.path();
        let Some(name) = path.file_name().filter(|_| in_scope(&path)) else {
            continue;
        };
        let file = Path::new("src").join(name);
        for (i, line) in std::fs::read_to_string(&path)?.lines().enumerate() {
            let Some((code, lints)) = line.split_once("//~") else {
                continue;
            };
            if code.trim_start().starts_with("//") {
                continue; // prose about annotations, not one
            }
            want.extend(
                lints
                    .split_whitespace()
                    .map(|lint| (file.clone(), i + 1, lint.to_string())),
            );
        }
    }
    got.sort();
    want.sort();
    Ok((got, want))
}

/// Runs `cmd` (built by [`command`]) and returns every error it
/// reported.
///
/// # Errors
///
/// When cargo cannot be started, or fails without reporting an error
/// against a source line (a broken manifest, say).
pub fn run(cmd: &mut Command) -> Result<Vec<Diagnostic>, String> {
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run cargo clippy: {e}"))?;
    let found = errors(&String::from_utf8_lossy(&out.stdout));
    if found.is_empty() && !out.status.success() {
        return Err(format!(
            "cargo clippy failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(found)
}

/// The error-level diagnostics with a primary span in cargo's
/// `--message-format=json` output.
fn errors(stdout: &str) -> Vec<Diagnostic> {
    stdout
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter_map(|msg| {
            if msg.get("reason")?.as_str()? != "compiler-message" {
                return None;
            }
            let diag = msg.get("message")?;
            if diag.get("level")?.as_str()? != "error" {
                return None;
            }
            let span = diag
                .get("spans")?
                .as_array()?
                .iter()
                .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))?;
            Some(Diagnostic {
                code: diag
                    .get("code")
                    .and_then(|c| c.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                path: PathBuf::from(span.get("file_name")?.as_str()?),
                line: span.get("line_start")?.as_f64()? as usize,
                rendered: diag.get("rendered")?.as_str()?.to_string(),
            })
        })
        .collect()
}
