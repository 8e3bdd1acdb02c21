//! The hand-written lint rules: the ones no compiler lint covers exactly
//! (the rest are clippy lints, see [`crate::clippy`]).
//!
//! Each rule scans the masked source (see [`crate::source`]) of library
//! crates and reports violations; `#[cfg(test)]` regions, `src/bin/`,
//! `tests/`, and `benches/` are exempt.
//!
//! | rule           | what it forbids                                          |
//! |----------------|----------------------------------------------------------|
//! | `index`        | integer-literal indexing (`xs[0]`) without a bounds gate |
//! | `float-eq`     | `==` / `!=` on floating-point cost/time expressions      |
//! | `raw-quantity-in-api` | a bare `f64`/`u64` time/byte/flops parameter in a |
//! |                | public signature of a core cost crate — use an           |
//! |                | `adapipe-units` newtype                                  |
//! | `bounded-channel` | an unbounded queue (`mpsc::channel()`,                |
//! |                | `VecDeque::new()`/`default()`) in the serving/training   |
//! |                | crates — queues there are backpressure boundaries and    |
//! |                | must carry an explicit capacity                          |
//! | `stringly-metric` | a string-literal metric, span or flight-event name |
//! |                | outside `adapipe-obs` — use an `adapipe_obs::keys` const |
//!
//! Any rule can be waived at a site with `// lint: allow(rule): reason`
//! (covers that line and the next) or for a whole file with
//! `// lint: allow-file(rule): reason`. A waiver without a reason, or
//! naming a rule not listed here, is itself a violation.

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
                check_index(&file, &mut violations);
                check_float_eq(&file, &mut violations);
                if COST_CRATES.contains(&crate_name.as_str()) {
                    check_raw_quantities(&file, &mut violations);
                }
                if QUEUE_CRATES.contains(&crate_name.as_str()) {
                    check_bounded_channel(&file, &mut violations);
                }
                if crate_name != "adapipe-obs" {
                    check_stringly_metric(&file, &mut violations);
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
    "index",
    "float-eq",
    "raw-quantity-in-api",
    "bounded-channel",
    "stringly-metric",
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

/// `index`: integer-literal indexing in non-test library code.
pub fn check_index(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if file.test_lines[i] || file.is_waived("index", i) {
            continue;
        }
        for col in literal_index_sites(line) {
            out.push(Violation {
                path: file.path.clone(),
                line: i + 1,
                rule: "index",
                message: format!(
                    "integer-literal indexing at column {} — use `.get(..)`/`.first()` or a \
                     length-checked pattern",
                    col + 1
                ),
            });
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
    use crate::clippy::{self, Diagnostic};
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("lib.rs"), text)
    }

    #[test]
    fn waiver_silences_a_site() {
        let f = file("// lint: allow(index): length checked above\nfn a() { xs[0]; }\n");
        let mut v = Vec::new();
        check_index(&f, &mut v);
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

    /// The rules that became compiler lints are waived with `#[expect]`;
    /// a leftover comment waiver for one is an unknown rule.
    #[test]
    fn waivers_for_compiler_lints_are_unknown_rules() {
        let f = file("// lint: allow(unwrap): moved\nfn a() { x.unwrap(); }\n");
        let mut v = Vec::new();
        check_waiver_reasons(&f, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown rule `unwrap`"), "{}", v[0]);
    }

    /// Checks the `tests/fixtures/compiler_lints` modules whose names
    /// start with `prefix`, the fixtures of the rules clippy enforces:
    /// one run of the lint pass's clippy command must report exactly the
    /// errors their `//~ lint …` comments name.
    fn check_compiler_fixture(prefix: &str) {
        static RUN: OnceLock<Vec<Diagnostic>> = OnceLock::new();
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("fixtures")
            .join("compiler_lints");
        let reported = RUN.get_or_init(|| {
            // Unit tests get no `CARGO_TARGET_TMPDIR`; build where the
            // integration tests do, `<target>/tmp`, found from this
            // binary's path `<target>/<profile>/deps/xtask-…`.
            let exe = std::env::current_exe().expect("test binary path");
            let target = exe.ancestors().nth(3).expect("binary under <target>");
            let mut cmd = clippy::command(&fixture);
            cmd.env(
                "CARGO_TARGET_DIR",
                target.join("tmp").join("compiler_lints"),
            );
            clippy::run(&mut cmd).unwrap_or_else(|e| panic!("{e}"))
        });
        let (got, want) =
            clippy::fixture_sites(&fixture, reported, prefix).expect("fixture crate readable");
        assert_eq!(got, want, "reported (left) vs annotated (right)");
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        check_compiler_fixture("unwrap");
        check_compiler_fixture("exempt");
    }

    #[test]
    fn swallowed_result_flags_wildcard_discards_only() {
        check_compiler_fixture("swallowed_result.rs");
    }

    #[test]
    fn swallowed_result_waivers_suppress_site_and_file() {
        check_compiler_fixture("swallowed_result_waived");
    }

    #[test]
    fn unchecked_cast_flags_numeric_targets_only() {
        check_compiler_fixture("unchecked_cast.rs");
        check_compiler_fixture("exempt");
    }

    #[test]
    fn unchecked_cast_waiver_suppresses() {
        check_compiler_fixture("unchecked_cast_waived");
    }

    /// Forbidden, not denied: no crate can allow `unsafe` back, whether
    /// or not its root repeats `#![forbid(unsafe_code)]`.
    #[test]
    fn unsafe_header_rule() {
        assert!(clippy::FLAGS.contains(&"-Funsafe_code"));
        check_compiler_fixture("unsafe_code");
    }
}
