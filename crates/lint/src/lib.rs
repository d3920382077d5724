//! `vcsel_lint` — a workspace invariant analyzer.
//!
//! The threaded numerical engine (PRs 2–5) rests on conventions that the
//! compiler cannot check: threaded kernels must hide behind the size
//! gate and `hardware_threads()`, relaxed-atomic scratch writes must carry
//! a written justification, hot loops must stay allocation-free, every
//! `env::var` knob must be documented. This crate turns those conventions
//! into machine-checkable rules over a hand-rolled lexer (no `syn` — the
//! same philosophy as the workspace's `serde_derive` shim), with per-rule
//! allowlists in a committed `lint.toml` where every suppression carries a
//! justification string.
//!
//! Rules (see [`rules`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic_surface`    | no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code without an allowlist entry |
//! | `threaded_gate`    | every spawn site in `vcsel_numerics` is reachable only behind the size gate + `hardware_threads()` |
//! | `hot_path`         | registered hot functions contain no allocation or clone |
//! | `atomic_ordering`  | every atomic `Ordering::` is `Relaxed` with an adjacent `// ORDER:` justification, or allowlisted |
//! | `env_registry`     | every `env::var("…")` literal appears in the README env table |

pub mod config;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::Path;

use config::Config;
use lexer::{functions, lex, test_mask, FnSpan, Token};

/// A lexed workspace source file plus the derived views rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw source lines (for `line_contains` matching and reporting).
    pub lines: Vec<String>,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// Per-token flag: `true` for tokens inside `#[test]`/`#[cfg(test)]`.
    pub mask: Vec<bool>,
    /// Named functions with body token ranges.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes `src` and precomputes the test mask and function spans.
    pub fn parse(path: impl Into<String>, src: &str) -> Self {
        let tokens = lex(src);
        let mask = test_mask(&tokens);
        let fns = functions(&tokens);
        Self {
            path: path.into(),
            lines: src.lines().map(str::to_string).collect(),
            tokens,
            mask,
            fns,
        }
    }

    /// The source text of 1-indexed `line`, or `""` past end of file.
    pub fn line_text(&self, line: usize) -> &str {
        line.checked_sub(1).and_then(|l| self.lines.get(l)).map_or("", String::as_str)
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Rule identifier (`panic_surface`, …) — also the allowlist key.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line (0 for file/config-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Runs every rule over `files` and returns the raw (pre-allowlist)
/// findings, sorted by file then line.
pub fn lint_all(files: &[SourceFile], cfg: &Config, env_doc: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(rules::panic_surface(files));
    out.extend(rules::threaded_gate(files, cfg));
    out.extend(rules::hot_path(files, cfg));
    out.extend(rules::atomic_ordering(files));
    out.extend(rules::env_registry(files, cfg, env_doc));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Splits `findings` into (kept, suppressed) under the allowlist: an entry
/// suppresses a finding when the rule and file match and the finding's
/// source line contains the entry's `line_contains` substring.
pub fn apply_allowlist(
    findings: Vec<Finding>,
    files: &[SourceFile],
    cfg: &Config,
) -> (Vec<Finding>, Vec<Finding>) {
    let line_of = |f: &Finding| -> String {
        files
            .iter()
            .find(|s| s.path == f.file)
            .map(|s| s.line_text(f.line).to_string())
            .unwrap_or_default()
    };
    findings.into_iter().partition(|f| {
        let text = line_of(f);
        !cfg.allow.iter().any(|a| {
            a.rule == f.rule
                && a.file == f.file
                && !text.is_empty()
                && text.contains(&a.line_contains)
        })
    })
}

/// Returns one message per stale allowlist entry: entries whose file is
/// gone or whose `line_contains` no longer matches any source line.
pub fn stale_suppressions(files: &[SourceFile], cfg: &Config) -> Vec<String> {
    let mut out = Vec::new();
    for a in &cfg.allow {
        match files.iter().find(|s| s.path == a.file) {
            None => out.push(format!(
                "stale suppression [allow.{}] for {}: file is not part of the workspace scan",
                a.rule, a.file
            )),
            Some(s) => {
                if !s.lines.iter().any(|l| l.contains(&a.line_contains)) {
                    out.push(format!(
                        "stale suppression [allow.{}] for {}: no line contains `{}`",
                        a.rule, a.file, a.line_contains
                    ));
                }
            }
        }
    }
    out
}

/// Collects the workspace's library sources: `src/**/*.rs` (umbrella crate
/// and its bins) plus `crates/*/src/**/*.rs`. `third_party/` shims and
/// build output are deliberately out of scope.
///
/// # Errors
///
/// Propagates I/O failures other than the top-level directories simply not
/// existing.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk_rs(&root.join("src"), root, &mut out)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates)?.collect::<io::Result<Vec<_>>>()?;
        dirs.sort_by_key(std::fs::DirEntry::file_name);
        for entry in dirs {
            let p = entry.path();
            if p.is_dir() {
                walk_rs(&p.join("src"), root, &mut out)?;
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(&p)?;
            out.push(SourceFile::parse(rel, &text));
        }
    }
    Ok(())
}

/// Serializes findings as a JSON array (hand-rolled: the crate is
/// dependency-free).
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                esc(f.rule),
                esc(&f.file),
                f.line,
                esc(&f.message)
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_requires_rule_file_and_line_match() {
        let files = vec![SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n",
        )];
        let cfg = config::parse(
            "[[allow.panic_surface]]\nfile = \"crates/x/src/lib.rs\"\n\
             line_contains = \"a.unwrap()\"\nreason = \"a is constructed infallibly above\"\n",
        )
        .expect("valid config");
        let findings = rules::panic_surface(&files);
        assert_eq!(findings.len(), 2);
        let (kept, suppressed) = apply_allowlist(findings, &files, &cfg);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 2);
    }

    #[test]
    fn stale_suppressions_are_reported() {
        let files = vec![SourceFile::parse("crates/x/src/lib.rs", "fn f() {}\n")];
        let cfg = config::parse(
            "[[allow.panic_surface]]\nfile = \"crates/x/src/lib.rs\"\n\
             line_contains = \"a.unwrap()\"\nreason = \"kept for the stale-entry self-test\"\n\
             [[allow.panic_surface]]\nfile = \"crates/gone/src/lib.rs\"\n\
             line_contains = \"x\"\nreason = \"kept for the missing-file self-test\"\n",
        )
        .expect("valid config");
        let stale = stale_suppressions(&files, &cfg);
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert!(stale[0].contains("no line contains"));
        assert!(stale[1].contains("not part of the workspace scan"));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = vec![Finding {
            rule: "panic_surface",
            file: "a \"b\".rs".into(),
            line: 3,
            message: "x\ny".into(),
        }];
        let json = findings_to_json(&f);
        assert!(json.contains("a \\\"b\\\".rs"));
        assert!(json.contains("x\\ny"));
    }
}
