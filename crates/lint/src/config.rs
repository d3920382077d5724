//! `lint.toml` — rule configuration and per-rule allowlists.
//!
//! Parsed by a deliberately small hand-rolled TOML-subset reader (the
//! workspace builds offline and dependency-free): tables `[a.b]`, arrays
//! of tables `[[a.b]]`, `key = "string"`, `key = ["array", "of",
//! "strings"]`, and `#` comments. That subset is the whole
//! format of `lint.toml`; anything else is a hard error so drift in the
//! file surfaces immediately instead of being silently ignored.

use std::collections::BTreeMap;

/// One allowlist entry: suppresses findings of `rule` in `file` on lines
/// containing `line_contains`. The `reason` is mandatory — an allowlist
/// entry without a justification is itself a lint error.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    /// Rule the suppression applies to (`panic_surface`, …).
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Substring the offending source line must contain.
    pub line_contains: String,
    /// Why this site is allowed to violate the rule.
    pub reason: String,
}

/// A hot-path function registration: `name` in `file` must stay
/// allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPathFn {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Function name (every function of that name in the file is checked).
    pub name: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directory prefix the threaded-gate rule scans.
    pub threaded_gate_path: String,
    /// Constants that act as size gates (`PARALLEL_NNZ_THRESHOLD`, …).
    pub gate_consts: Vec<String>,
    /// Functions that act as worker-count sources (`hardware_threads`).
    pub gate_fns: Vec<String>,
    /// Functions whose bodies must stay allocation-free.
    pub hot_path_fns: Vec<HotPathFn>,
    /// Path of the env-var registry document (the README table).
    pub env_registry_doc: String,
    /// All allowlist entries, keyed by rule at lookup time.
    pub allow: Vec<AllowEntry>,
}

/// A configuration-file problem (syntax or semantic), with its line.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// 1-indexed line in `lint.toml`.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

/// One `key = value` binding in the subset grammar.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    List(Vec<String>),
}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

/// Unquotes a `"…"` literal supporting the escapes TOML basic strings
/// share with Rust (`\\`, `\"`, `\n`, `\t`).
fn unquote(raw: &str, line: usize) -> Result<String, ConfigError> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected a quoted string, got `{raw}`")))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => return Err(err(line, "dangling escape in string")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Splits a `["a", "b"]` literal into its elements.
fn parse_list(raw: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let inner = raw
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [\"…\", …], got `{raw}`")))?;
    let mut out = Vec::new();
    let chars: Vec<char> = inner.chars().collect();
    let mut i = 0;
    loop {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() {
            break;
        }
        if chars[i] != '"' {
            return Err(err(line, format!("expected a quoted list element, found `{}`", chars[i])));
        }
        // Find the closing quote, honouring escapes.
        let start = i;
        i += 1;
        while i < chars.len() && chars[i] != '"' {
            if chars[i] == '\\' {
                i += 1;
            }
            i += 1;
        }
        if i >= chars.len() {
            return Err(err(line, "unterminated string in list"));
        }
        let elem: String = chars[start..=i].iter().collect();
        out.push(unquote(&elem, line)?);
        i += 1;
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i < chars.len() {
            if chars[i] != ',' {
                return Err(err(line, "expected `,` between list elements"));
            }
            i += 1;
        }
    }
    Ok(out)
}

/// Key/value lines grouped under one table header: key → (value, line).
type TableKeys = BTreeMap<String, (Value, usize)>;

/// Parses the `lint.toml` text into a [`Config`].
///
/// # Errors
///
/// Returns the first syntax or semantic problem (unknown table/key, entry
/// missing a mandatory field, empty `reason`, …) with its line number.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    // Pass 1: group `key = value` lines under their table headers.
    let mut tables: Vec<(String, usize, TableKeys)> = Vec::new();
    let mut current: Option<usize> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            tables.push((format!("[[{}]]", header.trim()), lineno, BTreeMap::new()));
            current = Some(tables.len() - 1);
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            tables.push((format!("[{}]", header.trim()), lineno, BTreeMap::new()));
            current = Some(tables.len() - 1);
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
        let (key, value) = (key.trim(), value.trim());
        // Strip a trailing comment outside of strings: scan for `#` not
        // inside quotes.
        let mut in_str = false;
        let mut escaped = false;
        let mut cut = value.len();
        for (i, c) in value.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '#' if !in_str => {
                    cut = i;
                    break;
                }
                _ => {}
            }
        }
        let value = value[..cut].trim();
        let parsed = if value.starts_with('[') {
            Value::List(parse_list(value, lineno)?)
        } else {
            Value::Str(unquote(value, lineno)?)
        };
        let slot = current.ok_or_else(|| err(lineno, "key before any table header"))?;
        tables[slot].2.insert(key.to_string(), (parsed, lineno));
    }

    // Pass 2: interpret the grouped tables.
    let mut cfg = Config::default();
    for (header, hline, keys) in tables {
        let get_str = |keys: &TableKeys, k: &str| -> Result<String, ConfigError> {
            match keys.get(k) {
                Some((Value::Str(s), _)) => Ok(s.clone()),
                Some((Value::List(_), l)) => Err(err(*l, format!("`{k}` must be a string"))),
                None => Err(err(hline, format!("{header} entry is missing `{k}`"))),
            }
        };
        let get_list = |keys: &TableKeys, k: &str| -> Result<Vec<String>, ConfigError> {
            match keys.get(k) {
                Some((Value::List(v), _)) => Ok(v.clone()),
                Some((Value::Str(_), l)) => Err(err(*l, format!("`{k}` must be a list"))),
                None => Err(err(hline, format!("{header} entry is missing `{k}`"))),
            }
        };
        match header.as_str() {
            "[threaded_gate]" => {
                cfg.threaded_gate_path = get_str(&keys, "path")?;
                cfg.gate_consts = get_list(&keys, "gate_consts")?;
                cfg.gate_fns = get_list(&keys, "gate_fns")?;
            }
            "[env_registry]" => {
                cfg.env_registry_doc = get_str(&keys, "doc")?;
            }
            "[[hot_path.functions]]" => {
                cfg.hot_path_fns.push(HotPathFn {
                    file: get_str(&keys, "file")?,
                    name: get_str(&keys, "name")?,
                });
            }
            h if h.starts_with("[[allow.") && h.ends_with("]]") => {
                let rule = h["[[allow.".len()..h.len() - 2].to_string();
                let entry = AllowEntry {
                    rule,
                    file: get_str(&keys, "file")?,
                    line_contains: get_str(&keys, "line_contains")?,
                    reason: get_str(&keys, "reason")?,
                };
                if entry.reason.trim().len() < 10 {
                    return Err(err(
                        hline,
                        format!(
                            "allowlist entry for {} needs a real justification (≥ 10 chars), got \
                             `{}`",
                            entry.file, entry.reason
                        ),
                    ));
                }
                if entry.line_contains.trim().is_empty() {
                    return Err(err(hline, "allowlist `line_contains` must be non-empty"));
                }
                cfg.allow.push(entry);
            }
            other => return Err(err(hline, format!("unknown table {other}"))),
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r##"
# comment
[threaded_gate]
path = "crates/numerics/src"
gate_consts = ["PARALLEL_NNZ_THRESHOLD", "PARALLEL_LEN_THRESHOLD"]
gate_fns = ["hardware_threads"]

[env_registry]
doc = "README.md"  # trailing comment

[[hot_path.functions]]
file = "crates/numerics/src/solver.rs"
name = "preconditioned_cg"

[[allow.panic_surface]]
file = "crates/a/src/x.rs"
line_contains = ".expect(\"non-empty\")"
reason = "slice is built three lines above with fixed length"
"##;

    #[test]
    fn parses_the_full_shape() {
        let cfg = parse(SAMPLE).expect("parses");
        assert_eq!(cfg.threaded_gate_path, "crates/numerics/src");
        assert_eq!(cfg.gate_consts.len(), 2);
        assert_eq!(cfg.gate_fns, vec!["hardware_threads"]);
        assert_eq!(cfg.hot_path_fns.len(), 1);
        assert_eq!(cfg.hot_path_fns[0].name, "preconditioned_cg");
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "panic_surface");
        assert_eq!(cfg.allow[0].line_contains, ".expect(\"non-empty\")");
    }

    #[test]
    fn rejects_missing_reason() {
        let bad = "[[allow.panic_surface]]\nfile = \"a.rs\"\nline_contains = \"x\"\n";
        let e = parse(bad).expect_err("must reject");
        assert!(e.message.contains("missing `reason`"), "{e}");
    }

    #[test]
    fn rejects_trivial_reason() {
        let bad =
            "[[allow.panic_surface]]\nfile = \"a.rs\"\nline_contains = \"x\"\nreason = \"ok\"\n";
        let e = parse(bad).expect_err("must reject");
        assert!(e.message.contains("justification"), "{e}");
    }

    #[test]
    fn rejects_unknown_tables_and_bare_keys() {
        assert!(parse("[mystery]\nx = \"y\"\n").is_err());
        assert!(parse("x = \"y\"\n").is_err());
        assert!(parse("[env_registry]\ndoc = [\"a\"]\n").is_err());
    }
}
