//! Source preparation for the lint pass: comment/string masking,
//! `#[cfg(test)]` region detection and waiver-directive parsing.
//!
//! The linter never parses Rust properly — it scans a *masked* copy of
//! each file in which comment and string-literal contents are blanked
//! out (newlines preserved), so token searches cannot trip over prose
//! or string payloads. Waiver directives are read from the comments
//! before they are blanked.

use std::collections::HashSet;
use std::path::PathBuf;

/// A waiver parsed from a `lint: allow(...)` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Lint rule names the waiver covers.
    pub rules: HashSet<String>,
    /// Whether the author wrote a justification after the rule list.
    pub has_reason: bool,
    /// 0-based line the directive appears on.
    pub line: usize,
    /// Whether the waiver covers the whole file.
    pub file_scope: bool,
}

/// One source file, masked and annotated for the lint rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (for diagnostics).
    pub path: PathBuf,
    /// Masked text: identical shape to the original, with comment and
    /// string contents replaced by spaces.
    pub masked: String,
    /// Masked text split into lines (same indices as the original).
    pub lines: Vec<String>,
    /// `test_lines[i]` — line `i` is inside a `#[cfg(test)]` block.
    pub test_lines: Vec<bool>,
    /// All waivers found in comments.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// Masks `text` and extracts waivers and test regions.
    pub fn parse(path: PathBuf, text: &str) -> SourceFile {
        let (masked, comments) = mask(text);
        let lines: Vec<String> = masked.lines().map(str::to_string).collect();
        let test_lines = find_test_regions(&masked, lines.len());
        let waivers = comments
            .iter()
            .filter_map(|(line, text)| parse_waiver(*line, text))
            .collect();
        SourceFile {
            path,
            masked,
            lines,
            test_lines,
            waivers,
        }
    }

    /// Whether `rule` is waived on `line` (0-based): by a file-scope
    /// waiver, or by a line waiver whose directive is on the same line or
    /// whose covered line — the first non-blank code line after the
    /// directive's comment block — is `line`.
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        self.waivers.iter().any(|w| {
            w.rules.contains(rule)
                && (w.file_scope || w.line == line || self.waiver_target(w) == Some(line))
        })
    }

    /// The code line a line-scope waiver covers: the first line after the
    /// directive whose masked text is non-blank (comment continuation
    /// lines mask to blanks and are skipped).
    fn waiver_target(&self, w: &Waiver) -> Option<usize> {
        self.lines
            .iter()
            .enumerate()
            .skip(w.line + 1)
            .find(|(_, l)| !l.trim().is_empty())
            .map(|(i, _)| i)
    }
}

/// Blanks comment and string contents, returning the masked text and the
/// comments as `(0-based start line, text)` pairs.
fn mask(text: &str) -> (String, Vec<(usize, String)>) {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let mut st = St::Code;
    let mut out = String::with_capacity(text.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut comment = String::new();
    let mut comment_line = 0usize;
    let mut line = 0usize;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            line += 1;
        }
        match st {
            St::Code => {
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    comment.clear();
                    comment_line = line;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    comment.clear();
                    comment_line = line;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Str;
                    out.push(' ');
                    i += 1;
                    continue;
                }
                // Raw strings: r"..." / r#"..."# / br#"..."# — scan the
                // hash run between `r` and the opening quote.
                if (c == 'r' || (c == 'b' && next == Some('r'))) && !prev_is_ident(&chars, i) {
                    let start = if c == 'b' { i + 2 } else { i + 1 };
                    let mut hashes = 0usize;
                    while chars.get(start + hashes) == Some(&'#') {
                        hashes += 1;
                    }
                    if chars.get(start + hashes) == Some(&'"') {
                        for _ in i..=start + hashes {
                            out.push(' ');
                        }
                        i = start + hashes + 1;
                        st = St::RawStr(hashes);
                        continue;
                    }
                }
                // Char literals vs lifetimes: `'x'` / `'\n'` are
                // literals; `'a` followed by anything but a closing
                // quote is a lifetime and passes through.
                if c == '\'' {
                    if next == Some('\\') {
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        for _ in i..=j.min(chars.len() - 1) {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    if let Some(n) = next {
                        if chars.get(i + 2) == Some(&'\'') && n != '\'' {
                            out.push_str("   ");
                            i += 3;
                            continue;
                        }
                    }
                }
                out.push(c);
                i += 1;
            }
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    comments.push((comment_line, comment.clone()));
                    out.push('\n');
                } else {
                    comment.push(c);
                    out.push(' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        st = St::Code;
                        comments.push((comment_line, comment.clone()));
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                    out.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    st = St::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += hashes + 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    if st == St::LineComment {
        comments.push((comment_line, comment));
    }
    (out, comments)
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0
        && chars
            .get(i - 1)
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// Marks every line inside a `#[cfg(test)]`-attributed block.
fn find_test_regions(masked: &str, n_lines: usize) -> Vec<bool> {
    let mut test = vec![false; n_lines];
    let bytes: Vec<char> = masked.chars().collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut line_of = Vec::with_capacity(bytes.len());
    let mut line = 0usize;
    for &c in &bytes {
        line_of.push(line);
        if c == '\n' {
            line += 1;
        }
    }
    let mut i = 0usize;
    while i + needle.len() <= bytes.len() {
        if bytes[i..i + needle.len()] != needle[..] {
            i += 1;
            continue;
        }
        // Find the block opened after the attribute and span it.
        let mut j = i + needle.len();
        while j < bytes.len() && bytes[j] != '{' && bytes[j] != ';' {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == ';' {
            i = j;
            continue;
        }
        let mut depth = 0i64;
        while j < bytes.len() {
            match bytes[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let first = line_of[i];
        let last = line_of[j.min(bytes.len() - 1)];
        for t in test.iter_mut().take(last + 1).skip(first) {
            *t = true;
        }
        i = j + 1;
    }
    test
}

/// Parses a `lint: allow(rule, ...) — reason` or
/// `lint: allow-file(rule, ...) — reason` directive from a comment.
fn parse_waiver(line: usize, comment: &str) -> Option<Waiver> {
    let trimmed = comment.trim();
    let rest = trimmed.strip_prefix("lint:")?.trim_start();
    let (file_scope, rest) = match rest.strip_prefix("allow-file(") {
        Some(r) => (true, r),
        None => (false, rest.strip_prefix("allow(")?),
    };
    let close = rest.find(')')?;
    let rules: HashSet<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = rest[close + 1..].trim();
    let has_reason = reason
        .trim_start_matches(['—', '-', ':', ' '])
        .chars()
        .any(char::is_alphanumeric);
    Some(Waiver {
        rules,
        has_reason,
        line,
        file_scope,
    })
}

/// A crate in `crates/`, classified for the lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// Library crate: all rules apply to its `src/` (minus tests/bins).
    Library,
    /// The benchmark harness crate: experiment-driver code, the moral
    /// equivalent of `benches/`, so only its waivers are checked.
    BenchHarness,
    /// Binary-only crate (no `src/lib.rs`): exempt, like `src/bin/`.
    Binary,
}

/// Discovers the workspace's crates and their kinds.
pub fn discover_crates(root: &std::path::Path) -> Vec<(PathBuf, CrateKind)> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return out;
    };
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        if !dir.join("src").join("lib.rs").is_file() {
            out.push((dir, CrateKind::Binary));
            continue;
        }
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let kind = if name.ends_with("-bench") {
            CrateKind::BenchHarness
        } else {
            CrateKind::Library
        };
        out.push((dir, kind));
    }
    out
}

/// Collects the `.rs` files of one crate's `src/`, excluding `src/bin/`
/// and `benches/`/`tests/` directories (allowlisted like `#[cfg(test)]`).
pub fn crate_sources(crate_dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![crate_dir.join("src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, "bin" | "benches" | "tests") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("test.rs"), text)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = src("let x = \"a.unwrap()\"; // .unwrap() in prose\nx.unwrap();\n");
        assert!(!f.lines[0].contains("unwrap"), "{}", f.lines[0]);
        assert!(f.lines[1].contains(".unwrap()"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = src("let x = r#\"panic!(\"no\")\"#;\nlet y = 1;\n");
        assert!(!f.lines[0].contains("panic"), "{}", f.lines[0]);
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let f = src("fn f<'a>(x: &'a str) -> char { '\"' }\nlet y = x.unwrap();\n");
        assert!(f.lines[0].contains("fn f<'a>"), "{}", f.lines[0]);
        assert!(f.lines[1].contains("unwrap"), "{}", f.lines[1]);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let f = src("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        assert_eq!(f.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn waivers_parse_with_and_without_reason() {
        let f = src(
            "// lint: allow(unwrap) — engine invariant: heap is non-empty\nx.unwrap();\n\
             // lint: allow(expect)\ny.expect(\"\");\n",
        );
        assert!(f.is_waived("unwrap", 1));
        assert!(!f.is_waived("unwrap", 3));
        assert!(f.is_waived("expect", 3));
        let unjustified: Vec<usize> = f
            .waivers
            .iter()
            .filter(|w| !w.has_reason)
            .map(|w| w.line)
            .collect();
        assert_eq!(unjustified, vec![2]);
    }

    #[test]
    fn file_scope_waiver_covers_everything() {
        let f = src("// lint: allow-file(index) — fixed-shape outputs\nfn f() {}\nlet x = a[0];\n");
        assert!(f.is_waived("index", 2));
        assert!(!f.is_waived("unwrap", 2));
    }
}
