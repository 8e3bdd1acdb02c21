//! The lint rules themselves.
//!
//! Each rule scans the masked source (see [`crate::source`]) of library
//! crates and reports violations; `#[cfg(test)]` regions, `src/bin/`,
//! `tests/`, and `benches/` are exempt from the panic-freedom rules.
//!
//! | rule           | what it forbids                                          |
//! |----------------|----------------------------------------------------------|
//! | `unwrap`       | `.unwrap()` on Option/Result in library code             |
//! | `expect`       | `.expect(...)` in library code                           |
//! | `panic`        | `panic!` / `todo!` / `unimplemented!` in library code    |
//! | `index`        | integer-literal indexing (`xs[0]`) without a bounds gate |
//! | `float-eq`     | `==` / `!=` on floating-point cost/time expressions      |
//! | `unsafe-header`| a library crate missing `#![forbid(unsafe_code)]`        |
//! | `raw-quantity-in-api` | a bare `f64`/`u64` time/byte/flops parameter in a |
//! |                | public signature of a core cost crate — use an           |
//! |                | `adapipe-units` newtype                                  |
//! | `index-confusion` | raw `.0`/tuple-constructor access to the index        |
//! |                | newtypes outside the designated `::new()`/`.get()`       |
//! |                | conversion helpers                                       |
//! | `swallowed-result` | `let _ = ...` discards in library code — the idiom   |
//! |                | that silently drops a `Result` (and with it the error    |
//! |                | path); handle the value or bind it to a named `_x`       |
//! | `bounded-channel` | an unbounded queue (`mpsc::channel()`,                |
//! |                | `VecDeque::new()`/`default()`) in the serving/training   |
//! |                | crates — queues there are backpressure boundaries and    |
//! |                | must carry an explicit capacity                          |
//! | `unpooled-thread` | bare `std::thread::spawn` in library crates outside   |
//! |                | `adapipe-exec`/`adapipe-serve` — fork-join compute goes  |
//! |                | through the deterministic `adapipe_exec::ExecPool`       |
//!
//! Any rule can be waived at a site with `// lint: allow(rule): reason`
//! (covers that line and the next) or for a whole file with
//! `// lint: allow-file(rule): reason`. A waiver without a reason is
//! itself a violation.

use crate::source::{crate_sources, discover_crates, CrateKind, SourceFile};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
pub struct Violation {
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (crate_dir, kind) in discover_crates(root) {
        if kind == CrateKind::Binary {
            continue;
        }
        let lib_rs = crate_dir.join("src").join("lib.rs");
        if let Ok(text) = std::fs::read_to_string(&lib_rs) {
            check_unsafe_header(&rel(root, &lib_rs), &text, &mut violations);
        }
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        for path in crate_sources(&crate_dir) {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let file = SourceFile::parse(rel(root, &path), &text);
            check_waiver_reasons(&file, &mut violations);
            if kind == CrateKind::Library {
                check_panic_freedom(&file, &mut violations);
                check_float_eq(&file, &mut violations);
                check_index_confusion(&file, &mut violations);
                check_swallowed_result(&file, &mut violations);
                if COST_CRATES.contains(&crate_name.as_str()) {
                    check_raw_quantities(&file, &mut violations);
                }
                if QUEUE_CRATES.contains(&crate_name.as_str()) {
                    check_bounded_channel(&file, &mut violations);
                }
                if CAST_CRATES.contains(&crate_name.as_str()) {
                    check_unchecked_cast(&file, &mut violations);
                }
                if crate_name != "adapipe-obs" {
                    check_stringly_metric(&file, &mut violations);
                }
                if !POOLED_CRATES.contains(&crate_name.as_str()) {
                    check_unpooled_thread(&file, &mut violations);
                }
            }
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    violations
}

fn rel(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

/// The names of every rule, for waiver validation.
const RULES: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "index",
    "float-eq",
    "unsafe-header",
    "raw-quantity-in-api",
    "index-confusion",
    "swallowed-result",
    "bounded-channel",
    "stringly-metric",
    "unchecked-cast",
    "unpooled-thread",
];

/// The crates whose public APIs must speak `adapipe-units` newtypes.
/// `adapipe-units` itself is exempt: it defines the raw-value
/// constructors (`MicroSecs::new(f64)` and friends) everything else
/// converts through.
const COST_CRATES: &[&str] = &[
    "adapipe",
    "adapipe-hw",
    "adapipe-profiler",
    "adapipe-memory",
    "adapipe-recompute",
    "adapipe-partition",
    "adapipe-sim",
    "adapipe-check",
];

/// The crates where queues are load-bearing backpressure boundaries:
/// the serving daemon (accept queue) and the training pipeline
/// (inter-stage activation channels). An unbounded queue there turns
/// overload into silent memory growth instead of an explicit rejection.
const QUEUE_CRATES: &[&str] = &["adapipe-serve", "adapipe-train"];

/// The crates where a silent numeric truncation corrupts a cost, a byte
/// budget, or a verifier verdict. Bare `as` casts there must be replaced
/// by the documented `adapipe_units::convert` helpers or `try_from`.
/// `adapipe-units` itself is exempt: it *defines* the sanctioned
/// conversions, with the rounding contract in their doc comments.
const CAST_CRATES: &[&str] = &[
    "adapipe-recompute",
    "adapipe-partition",
    "adapipe-sim",
    "adapipe-memory",
    "adapipe-check",
];

/// The crates allowed to spawn bare threads: `adapipe-exec` *is* the
/// pool, and `adapipe-serve`'s acceptor/worker threads are long-lived
/// daemon infrastructure, not fork-join compute. Everywhere else,
/// planner parallelism must go through the deterministic
/// `adapipe_exec::ExecPool` so results stay byte-identical at any
/// thread count.
const POOLED_CRATES: &[&str] = &["adapipe-exec", "adapipe-serve"];

/// The primitive numeric types a bare `as` cast can target.
const NUMERIC_PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// `unchecked-cast`: no bare `as` numeric casts in cost-carrying lib
/// code. `as` silently truncates (`f64`→integer), wraps (`u64`→`usize`
/// on 32-bit), and loses precision (`u64`→`f64`), and every one of those
/// failure modes lands directly in an Eq. (1)–(3) quantity here. Convert
/// through `adapipe_units::convert` — each helper documents its
/// rounding/saturation contract — or `try_from` when the call site
/// should observe failure.
///
/// Detection is token-based on the masked source: a standalone `as`
/// keyword whose next token is a primitive numeric type. `as_secs`-style
/// identifiers and `use x as y` renames don't match.
pub fn check_unchecked_cast(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("unchecked-cast", i) {
            continue;
        }
        for (pos, _) in line.match_indices(" as ") {
            let target: String = line[pos + " as ".len()..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if NUMERIC_PRIMITIVES.contains(&target.as_str()) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    rule: "unchecked-cast",
                    message: format!(
                        "bare `as {target}` cast — convert through `adapipe_units::convert` \
                         (documented rounding contract) or `try_from` so truncation is an \
                         explicit decision"
                    ),
                });
            }
        }
    }
}

/// `bounded-channel`: no unbounded queues in the queue crates.
/// `mpsc::channel()` buffers without limit (use
/// `mpsc::sync_channel(n)`); `VecDeque::new()`/`VecDeque::default()`
/// start life unbounded and invite push-without-cap growth (use
/// `VecDeque::with_capacity(n)` next to an explicit depth check, or a
/// purpose-built bounded queue).
pub fn check_bounded_channel(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("bounded-channel", i) {
            continue;
        }
        if line.contains("mpsc::channel(") {
            out.push(Violation {
                path: file.path.clone(),
                line: i + 1,
                rule: "bounded-channel",
                message: "unbounded `mpsc::channel()` — use `mpsc::sync_channel(n)` so \
                          saturation blocks (or rejects) instead of buffering without limit"
                    .to_string(),
            });
        }
        for ctor in ["VecDeque::new()", "VecDeque::default()"] {
            if line.contains(ctor) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    rule: "bounded-channel",
                    message: format!(
                        "`{ctor}` creates an unbounded queue — use \
                         `VecDeque::with_capacity(n)` beside an explicit depth bound"
                    ),
                });
            }
        }
    }
}

/// `unpooled-thread`: no bare `std::thread::spawn` in library code
/// outside the pooled crates. An ad-hoc thread bypasses the
/// deterministic exec pool — its scheduling is OS-dependent,
/// its panics unwind past the typed `ExecError` containment, and its
/// results escape the byte-identity argument of docs/parallel.md. Use
/// `adapipe_exec::ExecPool::map` (fork-join) instead; `thread::scope`
/// spawns inside `adapipe-exec` itself are how the pool is built and
/// do not match this pattern.
pub fn check_unpooled_thread(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("unpooled-thread", i) {
            continue;
        }
        if line.contains("thread::spawn(") {
            out.push(Violation {
                path: file.path.clone(),
                line: i + 1,
                rule: "unpooled-thread",
                message: "bare `thread::spawn` in library code — route fork-join compute \
                          through `adapipe_exec::ExecPool::map` so scheduling stays \
                          deterministic and panics become typed `ExecError`s"
                    .to_string(),
            });
        }
    }
}

/// Method calls on the obs recorders whose first argument names a
/// metric, span, or flight event.
const METRIC_METHODS: &[&str] = &[
    ".incr(",
    ".add(",
    ".gauge(",
    ".gauge_max(",
    ".observe(",
    ".span(",
    ".span_cat(",
    ".time(",
    ".note(",
    ".note_traced(",
];

/// `stringly-metric`: metric/span/flight-event names in library code
/// must be `adapipe_obs::keys` constants, not inline string literals.
/// Scattered literals drift apart silently — `keys` is the single
/// vocabulary that dashboards, the metrics report, and the golden
/// observability tests all key off.
///
/// Detection rides the masking pass: string contents *and* their
/// quotes blank to spaces, so a literal first argument shows up as a
/// non-empty all-blank region between the call's `(` and the first
/// `,`/`)`, while a `keys::` constant (or any other expression)
/// leaves visible tokens.
pub fn check_stringly_metric(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("stringly-metric", i) {
            continue;
        }
        for method in METRIC_METHODS {
            for (pos, _) in line.match_indices(method) {
                if first_arg_is_blanked_literal(file, i, pos + method.len()) {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: i + 1,
                        rule: "stringly-metric",
                        message: format!(
                            "string-literal name passed to `{}` — add a constant to \
                             `adapipe_obs::keys` and pass that instead",
                            method.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }
}

/// Whether the argument region starting at byte `col` of line `line` —
/// everything up to the first `,` or `)`, scanning across a few
/// continuation lines for wrapped calls — is non-empty and entirely
/// blank in the masked source, i.e. was a string literal. Zero-arg
/// calls (`s.time()` on some unrelated type) have an *empty* region
/// and stay legal.
fn first_arg_is_blanked_literal(file: &SourceFile, line: usize, col: usize) -> bool {
    let mut seen_blank = false;
    let mut start = col;
    for l in file.lines.iter().skip(line).take(4) {
        for c in l.get(start..).unwrap_or("").chars() {
            match c {
                ',' | ')' => return seen_blank,
                c if c.is_whitespace() => seen_blank = true,
                _ => return false,
            }
        }
        start = 0;
    }
    false
}

/// A waiver must name real rules and carry a justification.
pub fn check_waiver_reasons(file: &SourceFile, out: &mut Vec<Violation>) {
    for w in &file.waivers {
        for rule in &w.rules {
            if !RULES.contains(&rule.as_str()) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: w.line + 1,
                    rule: "waiver",
                    message: format!("waiver names unknown rule `{rule}`"),
                });
            }
        }
        if !w.has_reason {
            out.push(Violation {
                path: file.path.clone(),
                line: w.line + 1,
                rule: "waiver",
                message: "waiver has no justification — add `: why` after the rule list"
                    .to_string(),
            });
        }
    }
}

/// `#![forbid(unsafe_code)]` must appear in every library crate root.
pub fn check_unsafe_header(path: &Path, lib_rs: &str, out: &mut Vec<Violation>) {
    let has = lib_rs
        .lines()
        .any(|l| l.trim().replace(' ', "") == "#![forbid(unsafe_code)]");
    if !has {
        out.push(Violation {
            path: path.to_path_buf(),
            line: 1,
            rule: "unsafe-header",
            message: "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// `.unwrap()`, `.expect(`, `panic!`/`todo!`/`unimplemented!`, and
/// integer-literal indexing in non-test library code.
pub fn check_panic_freedom(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] {
            continue;
        }
        let mut push = |rule: &'static str, message: String| {
            if !file.is_waived(rule, i) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    rule,
                    message,
                });
            }
        };
        if line.contains(".unwrap()") {
            push(
                "unwrap",
                "`.unwrap()` in library code — return a typed error".to_string(),
            );
        }
        if line.contains(".expect(") {
            push(
                "expect",
                "`.expect(...)` in library code — return a typed error".to_string(),
            );
        }
        for mac in ["panic!", "todo!", "unimplemented!"] {
            if let Some(pos) = line.find(mac) {
                // `core::panic!` etc. still match; a preceding ident char
                // (e.g. `event_panic!`) does not.
                let prev = line[..pos].chars().next_back();
                if !prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    push(
                        "panic",
                        format!("`{mac}` in library code — return a typed error"),
                    );
                }
            }
        }
        for col in literal_index_sites(line) {
            push(
                "index",
                format!(
                    "integer-literal indexing at column {} — use `.get(..)`/`.first()` or a \
                     length-checked pattern",
                    col + 1
                ),
            );
        }
    }
}

/// Columns of `ident[<digits>]` sites: a `[` whose content is all
/// digits/underscores and whose previous non-space char continues an
/// expression (identifier, `)`, or `]`). Excludes attributes (`#[...]`)
/// and type ascriptions (`[f64; 4]`).
fn literal_index_sites(line: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let mut sites = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let Some(close) = chars[i + 1..].iter().position(|&c| c == ']') else {
            continue;
        };
        let inner = &chars[i + 1..i + 1 + close];
        if inner.is_empty() || !inner.iter().all(|c| c.is_ascii_digit() || *c == '_') {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        if prev.is_some_and(|&c| c.is_alphanumeric() || c == '_' || c == ')' || c == ']') {
            sites.push(i);
        }
    }
    sites
}

/// `==` / `!=` where one operand is a float literal or a field access
/// that names a time/cost quantity. Exact float comparison is almost
/// always a bug in cost code — use `approx_eq` or compare bit patterns
/// deliberately (and waive with a reason).
pub fn check_float_eq(file: &SourceFile, out: &mut Vec<Violation>) {
    const FLOAT_FIELDS: &[&str] = &[
        ".time",
        ".time_f",
        ".time_b",
        ".dur",
        ".duration",
        ".makespan",
        ".warmup",
        ".steady",
        ".ending",
        ".bottleneck",
        ".iteration_time",
        ".cost",
        ".total",
    ];
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("float-eq", i) {
            continue;
        }
        for op in ["==", "!="] {
            for (pos, _) in line.match_indices(op) {
                // Skip `<=`, `>=`, `!=` found inside `!==`-like runs and
                // pattern arms (`=>`).
                let before = line[..pos].chars().next_back();
                let after = line[pos + 2..].chars().next();
                if matches!(before, Some('<' | '>' | '=' | '!')) || after == Some('=') {
                    continue;
                }
                let lhs = last_token(&line[..pos]);
                let rhs = first_token(&line[pos + 2..]);
                if is_float_literal(&lhs)
                    || is_float_literal(&rhs)
                    || FLOAT_FIELDS
                        .iter()
                        .any(|f| lhs.ends_with(f) || rhs.ends_with(f))
                {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: i + 1,
                        rule: "float-eq",
                        message: format!(
                            "exact float comparison `{} {} {}` — use an approx/tolerance \
                             comparison",
                            lhs.trim(),
                            op,
                            rhs.trim()
                        ),
                    });
                }
            }
        }
    }
}

fn last_token(s: &str) -> String {
    s.trim_end()
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | ':'))
        .collect::<String>()
        .chars()
        .rev()
        .collect()
}

fn first_token(s: &str) -> String {
    s.trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | ':'))
        .collect()
}

fn is_float_literal(token: &str) -> bool {
    let t = token.trim().trim_end_matches("f64").trim_end_matches("f32");
    !t.is_empty()
        && t.contains('.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '_')
}

/// Parameter names that denote a physical quantity: a bare `f64`/`u64`
/// under one of these names in a public cost-crate signature is almost
/// certainly a unit bug waiting to happen (seconds vs microseconds,
/// bytes vs MiB). The fix is an `adapipe-units` newtype; deliberate
/// raw-scalar APIs carry a justified waiver.
const QUANTITY_HINTS: &[&str] = &[
    "time",
    "secs",
    "micros",
    "millis",
    "latency",
    "duration",
    "makespan",
    "overhead",
    "p2p",
    "bytes",
    "capacity",
    "budget",
    "flops",
    "bandwidth",
];

/// `raw-quantity-in-api`: public fns in the core cost crates must not
/// take bare `f64`/`u64` parameters whose names say they are times,
/// byte counts, FLOP counts or rates — those travel as `adapipe-units`
/// newtypes so a unit mix-up is a compile error.
pub fn check_raw_quantities(file: &SourceFile, out: &mut Vec<Violation>) {
    for (line, name, raw) in public_fns(file) {
        if file.is_waived("raw-quantity-in-api", line) {
            continue;
        }
        for (pname, ptype) in param_decls(&raw) {
            if !matches!(ptype.as_str(), "f64" | "u64" | "f32" | "u32") {
                continue;
            }
            let lname = pname.to_lowercase();
            if QUANTITY_HINTS.iter().any(|h| lname.contains(h)) {
                out.push(Violation {
                    path: file.path.clone(),
                    line: line + 1,
                    rule: "raw-quantity-in-api",
                    message: format!(
                        "public fn `{name}` takes quantity parameter `{pname}: {ptype}` — \
                         use an adapipe-units newtype (MicroSecs/Bytes/Flops/BytesPerSec/\
                         FlopsPerSec)"
                    ),
                });
            }
        }
    }
}

/// `index-confusion`: the `LayerIdx`/`StageIdx`/`MicrobatchIdx` spaces
/// convert only through the designated helpers (`::new()`, `.get()`,
/// `From<usize>`). Raw tuple construction (`LayerIdx(i)`) and raw field
/// extraction (`some_idx.0`) bypass them and make it easy to do
/// arithmetic that silently crosses index spaces.
pub fn check_index_confusion(file: &SourceFile, out: &mut Vec<Violation>) {
    const IDX_TYPES: &[&str] = &["LayerIdx", "StageIdx", "MicrobatchIdx"];
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("index-confusion", i) {
            continue;
        }
        let chars: Vec<char> = line.chars().collect();
        for t in IDX_TYPES {
            for (pos, _) in line.match_indices(&format!("{t}(")) {
                // A longer identifier (`MyLayerIdx(`) is not this type.
                if !ident_before(&chars, char_index(line, pos)) {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: i + 1,
                        rule: "index-confusion",
                        message: format!(
                            "raw `{t}(..)` construction — use `{t}::new(..)` (or `.get()` to \
                             leave the index space)"
                        ),
                    });
                }
            }
        }
        for (pos, _) in line.match_indices(".0") {
            // Exclude longer numeric tokens: `.05`, `1.0`, `.0f64`, `x.0.1`.
            let after = line[pos + 2..].chars().next();
            if after.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
                continue;
            }
            let lhs = last_token(&line[..pos]);
            if lhs.to_lowercase().ends_with("idx") {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    rule: "index-confusion",
                    message: format!(
                        "raw `.0` extraction from index `{lhs}` — use `.get()`",
                        lhs = lhs.trim()
                    ),
                });
            }
        }
    }
}

/// `swallowed-result`: a wildcard `let _ = ...;` discard in non-test
/// library code. The pattern is how `Result`s get silently dropped —
/// the compiler's `#[must_use]` on `Result` is satisfied, but the error
/// path vanishes without a trace (the fault-injection work found
/// exactly such swallowed watchdog plumbing). Handle the value, bind it
/// to a *named* underscore (`let _ack = ...`, which documents intent
/// without defeating `#[must_use]` audits), or waive with a reason.
pub fn check_swallowed_result(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("swallowed-result", i) {
            continue;
        }
        for (pos, _) in line.match_indices("let _") {
            // `outlet _`-style identifier runs are not the keyword.
            let prev = line[..pos].chars().next_back();
            if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            // `let _x = ...` is a named discard and stays legal.
            let rest = &line[pos + "let _".len()..];
            if rest
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            // Require an assignment: `let _ = ...` (not `let _;`).
            let after = rest.trim_start();
            if after.starts_with('=') && !after.starts_with("==") {
                out.push(Violation {
                    path: file.path.clone(),
                    line: i + 1,
                    rule: "swallowed-result",
                    message: "`let _ = ...` silently discards the value — and with it any \
                              `Result` error path; handle it, bind a named `_x`, or waive \
                              with a reason"
                        .to_string(),
                });
            }
        }
    }
}

/// Maps a byte offset in `line` to the index of that char in the
/// line's char vector (the masked source is ASCII-dominated, but doc
/// prose can hold multi-byte chars).
fn char_index(line: &str, byte_pos: usize) -> usize {
    line[..byte_pos].chars().count()
}

/// Splits a parameter list on top-level commas into `(name, type)`
/// pairs; receivers (`self` in any flavour) are skipped and the type's
/// whitespace is removed.
fn param_decls(raw: &str) -> Vec<(String, String)> {
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut current = String::new();
    for c in raw.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                params.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(c);
    }
    if !current.trim().is_empty() {
        params.push(current);
    }
    params
        .into_iter()
        .filter_map(|p| {
            let p = p.trim().to_string();
            let mut depth = 0i64;
            for (i, c) in p.char_indices() {
                match c {
                    '<' | '(' | '[' => depth += 1,
                    '>' | ')' | ']' => depth -= 1,
                    ':' if depth == 0 => {
                        let name = p[..i].trim().trim_start_matches("mut ").trim().to_string();
                        let ty = p[i + 1..].split_whitespace().collect::<String>();
                        return (name != "self").then_some((name, ty));
                    }
                    _ => {}
                }
            }
            None // receiver or malformed — nothing to check
        })
        .collect()
}

/// Extracts `(0-based line, name, raw parameter list)` for each public
/// fn in non-test code. Callers split the raw list with
/// [`param_decls`].
fn public_fns(file: &SourceFile) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    let text = &file.masked;
    let mut line = 0usize;
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if !text[..].is_char_boundary(0) {
            break;
        }
        // Match "pub fn " / "pub(crate) fn " etc. at word boundary.
        if bytes[i] == 'p' && text_at(&bytes, i, "pub") && !ident_before(&bytes, i) {
            let mut j = i + 3;
            // Optional visibility qualifier `(...)`.
            while j < bytes.len() && bytes[j].is_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&'(') {
                while j < bytes.len() && bytes[j] != ')' {
                    j += 1;
                }
                j += 1;
                while j < bytes.len() && bytes[j].is_whitespace() {
                    j += 1;
                }
            }
            if text_at(&bytes, j, "fn") {
                let mut k = j + 2;
                while k < bytes.len() && bytes[k].is_whitespace() {
                    k += 1;
                }
                let start = k;
                while k < bytes.len() && (bytes[k].is_alphanumeric() || bytes[k] == '_') {
                    k += 1;
                }
                let name: String = bytes[start..k].iter().collect();
                // Skip generics to the parameter list.
                let mut depth = 0i64;
                while k < bytes.len() {
                    match bytes[k] {
                        '<' => depth += 1,
                        '>' => depth -= 1,
                        '(' if depth <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let params_start = k + 1;
                let mut paren = 1i64;
                k += 1;
                while k < bytes.len() && paren > 0 {
                    match bytes[k] {
                        '(' => paren += 1,
                        ')' => paren -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let raw: String = bytes[params_start..k.saturating_sub(1)].iter().collect();
                if !file.test_lines.get(line).copied().unwrap_or(false) && !name.is_empty() {
                    out.push((line, name, raw));
                }
                // Count newlines we skipped over.
                line += bytes[i..k].iter().filter(|&&c| c == '\n').count();
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn text_at(bytes: &[char], i: usize, needle: &str) -> bool {
    let n: Vec<char> = needle.chars().collect();
    i + n.len() <= bytes.len()
        && bytes[i..i + n.len()] == n[..]
        && !bytes
            .get(i + n.len())
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

fn ident_before(bytes: &[char], i: usize) -> bool {
    i > 0
        && bytes
            .get(i - 1)
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("lib.rs"), text)
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let f = file("fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t {\n fn b() { y.unwrap(); }\n}\n");
        let mut v = Vec::new();
        check_panic_freedom(&f, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, "unwrap");
    }

    #[test]
    fn waiver_silences_a_site() {
        let f = file("// lint: allow(unwrap): upheld by ctor\nfn a() { x.unwrap(); }\n");
        let mut v = Vec::new();
        check_panic_freedom(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn literal_index_sites_ignore_attributes_and_types() {
        assert_eq!(literal_index_sites("let x = xs[0];"), vec![10]);
        assert!(literal_index_sites("#[cfg(feature = \"x\")]").is_empty());
        assert!(literal_index_sites("let x: [f64; 4] = y;").is_empty());
        assert!(literal_index_sites("let x = xs[i];").is_empty());
        assert_eq!(literal_index_sites("m[1_0]").len(), 1);
    }

    #[test]
    fn float_eq_catches_literals_and_time_fields() {
        let f = file("fn a() { if x == 0.5 { } if t.time_f == u.time_f { } if n == 3 { } }\n");
        let mut v = Vec::new();
        check_float_eq(&f, &mut v);
        assert_eq!(
            v.len(),
            2,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn float_eq_skips_comparison_operators() {
        let f = file("fn a() { if x <= 0.5 { } if y >= 1.0 { } match z { _ => 0.1 } }\n");
        let mut v = Vec::new();
        check_float_eq(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unsafe_header_rule() {
        let mut v = Vec::new();
        check_unsafe_header(
            Path::new("a/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            &mut v,
        );
        assert!(v.is_empty());
        check_unsafe_header(Path::new("a/lib.rs"), "pub fn f() {}\n", &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn raw_quantity_flags_bare_scalar_params() {
        let f = file(
            "pub fn with_latency(latency: f64) {}\n\
             pub fn stage_count(n: usize) {}\n\
             pub fn with_budget(budget: Bytes) {}\n",
        );
        let mut v = Vec::new();
        check_raw_quantities(&f, &mut v);
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(v[0].rule, "raw-quantity-in-api");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn raw_quantity_waiver_suppresses() {
        let f = file(
            "// lint: allow(raw-quantity-in-api): wire format is raw microseconds\n\
             pub fn push_raw(time_us: f64) {}\n",
        );
        let mut v = Vec::new();
        check_raw_quantities(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn index_confusion_flags_raw_construction_and_extraction() {
        let f = file(
            "fn a() { let x = LayerIdx(3); }\n\
             fn b(layer_idx: LayerIdx) -> usize { layer_idx.0 + 1 }\n\
             fn c() { let ok = StageIdx::new(2).get(); }\n\
             fn d() { let f = 1.0; let tup = pair.0; }\n",
        );
        let mut v = Vec::new();
        check_index_confusion(&f, &mut v);
        assert_eq!(
            v.len(),
            2,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert!(v.iter().all(|v| v.rule == "index-confusion"));
        assert_eq!((v[0].line, v[1].line), (1, 2));
    }

    #[test]
    fn index_confusion_waiver_suppresses() {
        let f = file(
            "// lint: allow(index-confusion): serializing the raw index\n\
             fn a(layer_idx: LayerIdx) -> usize { layer_idx.0 }\n",
        );
        let mut v = Vec::new();
        check_index_confusion(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn swallowed_result_flags_wildcard_discards_only() {
        let f = file(
            "fn a() { let _ = fallible(); }\n\
             fn b() { let _ack = fallible(); }\n\
             fn c() { let _span = rec.span(\"x\"); }\n\
             fn d(x: usize) { if x == 1 { } }\n\
             #[cfg(test)]\nmod t {\n fn e() { let _ = fallible(); }\n}\n",
        );
        let mut v = Vec::new();
        check_swallowed_result(&f, &mut v);
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert_eq!((v[0].line, v[0].rule), (1, "swallowed-result"));
    }

    #[test]
    fn swallowed_result_waivers_suppress_site_and_file() {
        let site = file(
            "// lint: allow(swallowed-result): best-effort cache warm-up\n\
             fn a() { let _ = warm(); }\n",
        );
        let mut v = Vec::new();
        check_swallowed_result(&site, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );

        let whole = file(
            "// lint: allow-file(swallowed-result): fmt::Write into a String cannot fail\n\
             fn a(out: &mut String) { let _ = writeln!(out, \"x\"); }\n\
             fn b(out: &mut String) { let _ = write!(out, \"y\"); }\n",
        );
        let mut v = Vec::new();
        check_swallowed_result(&whole, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bounded_channel_flags_unbounded_ctors_only() {
        let f = file(
            "fn a() { let (tx, rx) = mpsc::channel(); }\n\
             fn b() { let (tx, rx) = mpsc::sync_channel(4); }\n\
             fn c() { let q: VecDeque<u32> = VecDeque::new(); }\n\
             fn d() { let q: VecDeque<u32> = VecDeque::with_capacity(8); }\n\
             fn e() { let q: VecDeque<u32> = VecDeque::default(); }\n\
             #[cfg(test)]\nmod t {\n fn f() { let q: VecDeque<u32> = VecDeque::new(); }\n}\n",
        );
        let mut v = Vec::new();
        check_bounded_channel(&f, &mut v);
        assert_eq!(
            v.len(),
            3,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert!(v.iter().all(|v| v.rule == "bounded-channel"));
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn bounded_channel_waiver_suppresses() {
        let f = file(
            "// lint: allow(bounded-channel): drained synchronously before the next push\n\
             fn a() { let q: VecDeque<u32> = VecDeque::new(); }\n",
        );
        let mut v = Vec::new();
        check_bounded_channel(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stringly_metric_flags_literal_names_only() {
        let f = file(
            "fn a(rec: &Recorder) { rec.incr(\"serve.requests\"); }\n\
             fn b(rec: &Recorder) { rec.observe(keys::SERVE_WAIT_US, w); }\n\
             fn c(rec: &Recorder) { rec.add(\n    \"serve.bytes\",\n    n,\n); }\n\
             fn d(s: &Sweep) { let t = s.time(); }\n\
             fn e(fl: &FlightRecorder) { fl.note(keys::FLIGHT_MANUAL, detail); }\n\
             #[cfg(test)]\nmod t {\n fn f(rec: &Recorder) { rec.incr(\"fine.in.tests\"); }\n}\n",
        );
        let mut v = Vec::new();
        check_stringly_metric(&f, &mut v);
        assert_eq!(
            v.len(),
            2,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert!(v.iter().all(|v| v.rule == "stringly-metric"));
        assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn stringly_metric_waiver_suppresses() {
        let f = file(
            "// lint: allow(stringly-metric): one-off probe, not part of the taxonomy\n\
             fn a(rec: &Recorder) { rec.incr(\"probe.count\"); }\n",
        );
        let mut v = Vec::new();
        check_stringly_metric(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_rule_and_missing_reason_in_waivers_are_flagged() {
        let f = file("// lint: allow(frobnicate)\nfn a() {}\n");
        let mut v = Vec::new();
        check_waiver_reasons(&f, &mut v);
        assert_eq!(
            v.len(),
            2,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unchecked_cast_flags_numeric_targets_only() {
        let f = file(
            "fn a(n: usize) -> f64 { n as f64 }\n\
             fn b(b: u64) -> usize { b as usize }\n\
             fn c(t: MicroSecs) -> f64 { t.as_micros() }\n\
             fn d(x: Foo) -> Bar { x as Bar }\n\
             fn e(s: &str) { let masked = \"n as f64\"; }\n\
             #[cfg(test)]\nmod t {\n fn f(n: usize) -> f64 { n as f64 }\n}\n",
        );
        let mut v = Vec::new();
        check_unchecked_cast(&f, &mut v);
        assert_eq!(
            v.len(),
            2,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert!(v.iter().all(|v| v.rule == "unchecked-cast"));
        assert_eq!((v[0].line, v[1].line), (1, 2));
        assert!(v[0].message.contains("as f64"), "{}", v[0].message);
    }

    #[test]
    fn unchecked_cast_waiver_suppresses() {
        let f = file(
            "// lint: allow(unchecked-cast): count below 2^53, exact in f64\n\
             fn a(n: usize) -> f64 { n as f64 }\n",
        );
        let mut v = Vec::new();
        check_unchecked_cast(&f, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }
}
