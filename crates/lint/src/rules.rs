//! The five workspace rules.
//!
//! Every rule walks lexed tokens (never raw text), skips test-masked
//! regions where the invariant is production-only, and emits [`Finding`]s
//! that the engine then filters through the `lint.toml` allowlist.

use crate::config::Config;
use crate::lexer::{FnSpan, TokKind, Token};
use crate::{Finding, SourceFile};

/// Atomic memory-ordering variants (so `std::cmp::Ordering::Less` and
/// friends are never audited).
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn finding(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
    Finding { rule, file: file.to_string(), line, message }
}

/// Whether `tokens[i]`, `tokens[i+1]` form `ident "("`.
fn ident_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens[i].is_ident(name) && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Whether `tokens[i..]` starts with `first :: second`.
fn path_pair(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    tokens[i].is_ident(first)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(second))
}

/// Rule 1 — **panic-surface**: `unwrap()` / `expect(` / `panic!` /
/// `unreachable!` in non-test library code requires an allowlist entry
/// with a justification. Binary entry points (`src/bin/`) are exempt: a
/// CLI aborting on bad input is policy, not a library invariant.
pub fn panic_surface(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in files {
        if sf.path.contains("/bin/") {
            continue;
        }
        for (i, t) in sf.tokens.iter().enumerate() {
            if sf.mask[i] || t.kind != TokKind::Ident {
                continue;
            }
            let what = if ident_call(&sf.tokens, i, "unwrap") {
                Some("unwrap()")
            } else if ident_call(&sf.tokens, i, "expect") {
                Some("expect(…)")
            } else if t.is_ident("panic") && sf.tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                Some("panic!")
            } else if t.is_ident("unreachable")
                && sf.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                Some("unreachable!")
            } else {
                None
            };
            if let Some(what) = what {
                out.push(finding(
                    "panic_surface",
                    &sf.path,
                    t.line,
                    format!(
                        "`{what}` in non-test library code — return a typed error, or add a \
                         justified lint.toml allowlist entry"
                    ),
                ));
            }
        }
    }
    out
}

/// Innermost function span containing token index `i`.
fn enclosing_fn(fns: &[FnSpan], i: usize) -> Option<&FnSpan> {
    fns.iter().filter(|f| f.body.0 <= i && i <= f.body.1).max_by_key(|f| f.body.0)
}

/// Whether the body of `span` mentions any identifier in `names`.
fn body_mentions(sf: &SourceFile, span: &FnSpan, names: &[&str]) -> bool {
    sf.tokens[span.body.0..=span.body.1]
        .iter()
        .any(|t| t.kind == TokKind::Ident && names.iter().any(|n| t.text == *n))
}

/// Rule 2 — **threaded-gate conformance**: every spawn site under the
/// configured path (`crates/numerics/src`) must be reachable only behind
/// the size gates (`PARALLEL_*_THRESHOLD`) and `hardware_threads()`.
///
/// A spawn site passes when its enclosing function references a gate
/// (constant or gate function), or when every non-test caller of that
/// function does.
pub fn threaded_gate(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let scoped: Vec<&SourceFile> =
        files.iter().filter(|s| s.path.starts_with(&cfg.threaded_gate_path)).collect();
    let gate_names: Vec<&str> =
        cfg.gate_consts.iter().chain(&cfg.gate_fns).map(String::as_str).collect();

    for sf in &scoped {
        // One finding per ungated enclosing function, at its first spawn.
        let mut flagged: Vec<(usize, usize)> = Vec::new();
        for (i, t) in sf.tokens.iter().enumerate() {
            if sf.mask[i] || !ident_call(&sf.tokens, i, "spawn") {
                continue;
            }
            let Some(owner) = enclosing_fn(&sf.fns, i) else {
                out.push(finding(
                    "threaded_gate",
                    &sf.path,
                    t.line,
                    "spawn site outside any function body".to_string(),
                ));
                continue;
            };
            if flagged.contains(&owner.body) {
                continue;
            }
            flagged.push(owner.body);
            if body_mentions(sf, owner, &gate_names) {
                continue;
            }
            // One-level caller analysis: all non-test callers must gate.
            let mut callers = 0usize;
            let mut ungated_caller: Option<String> = None;
            for other in &scoped {
                for g in &other.fns {
                    if (other.path == sf.path && g.body == owner.body)
                        || other.mask.get(g.body.0) == Some(&true)
                    {
                        continue;
                    }
                    let calls =
                        other.tokens[g.body.0..=g.body.1].iter().any(|t| t.is_ident(&owner.name));
                    if calls {
                        callers += 1;
                        if !body_mentions(other, g, &gate_names) {
                            ungated_caller
                                .get_or_insert_with(|| format!("{}::{}", other.path, g.name));
                        }
                    }
                }
            }
            if callers == 0 || ungated_caller.is_some() {
                let via = match ungated_caller {
                    Some(c) => format!("caller `{c}` does not apply the gate"),
                    None => "no caller found to verify the gate".to_string(),
                };
                out.push(finding(
                    "threaded_gate",
                    &sf.path,
                    t.line,
                    format!(
                        "spawn in `{}` is not behind a size gate ({}) or `{}()`: {via}",
                        owner.name,
                        cfg.gate_consts.join("/"),
                        cfg.gate_fns.join("/"),
                    ),
                ));
            }
        }
    }
    out
}

/// Rule 3 — **hot-path allocation**: functions registered in `lint.toml`
/// (`[[hot_path.functions]]`) must contain no allocation, clone, or
/// string construction. Registrations that no longer match a function are
/// findings too, so the set cannot rot.
pub fn hot_path(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for reg in &cfg.hot_path_fns {
        let Some(sf) = files.iter().find(|s| s.path == reg.file) else {
            out.push(finding(
                "hot_path",
                &reg.file,
                0,
                format!("stale hot-path registration: `{}` is not in the workspace scan", reg.file),
            ));
            continue;
        };
        let spans: Vec<&FnSpan> = sf.fns.iter().filter(|f| f.name == reg.name).collect();
        if spans.is_empty() {
            out.push(finding(
                "hot_path",
                &sf.path,
                0,
                format!("stale hot-path registration: no `fn {}` in this file", reg.name),
            ));
            continue;
        }
        for span in spans {
            for (off, t) in sf.tokens[span.body.0..=span.body.1].iter().enumerate() {
                let i = span.body.0 + off;
                if t.kind != TokKind::Ident {
                    continue;
                }
                let next = sf.tokens.get(i + 1);
                let what = match t.text.as_str() {
                    "vec" | "format" if next.is_some_and(|n| n.is_punct('!')) => {
                        Some(format!("{}!", t.text))
                    }
                    "Vec"
                        if path_pair(&sf.tokens, i, "Vec", "new")
                            || path_pair(&sf.tokens, i, "Vec", "with_capacity")
                            || path_pair(&sf.tokens, i, "Vec", "from") =>
                    {
                        Some(format!("Vec::{}", sf.tokens[i + 3].text))
                    }
                    "Box" if path_pair(&sf.tokens, i, "Box", "new") => Some("Box::new".into()),
                    "String"
                        if path_pair(&sf.tokens, i, "String", "new")
                            || path_pair(&sf.tokens, i, "String", "from")
                            || path_pair(&sf.tokens, i, "String", "with_capacity") =>
                    {
                        Some(format!("String::{}", sf.tokens[i + 3].text))
                    }
                    "clone" | "to_vec" | "to_string" | "to_owned"
                        if next.is_some_and(|n| n.is_punct('(')) =>
                    {
                        Some(format!(".{}()", t.text))
                    }
                    // `collect` may take a turbofish before the parens.
                    "collect" if next.is_some_and(|n| n.is_punct('(') || n.is_punct(':')) => {
                        Some(".collect()".into())
                    }
                    _ => None,
                };
                if let Some(what) = what {
                    out.push(finding(
                        "hot_path",
                        &sf.path,
                        t.line,
                        format!(
                            "hot-path fn `{}` allocates via `{what}` — hoist the allocation to \
                             setup or use a preallocated scratch buffer",
                            reg.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Rule 4 — **atomic-ordering audit**: every atomic `Ordering::X` must be
/// `Relaxed` and carry an adjacent `// ORDER: …` justification (same line
/// or the line above). Stronger orderings (`Acquire`/`Release`/`AcqRel`/
/// `SeqCst`) always require an allowlist entry naming why. `std::cmp::
/// Ordering` variants are not audited.
pub fn atomic_ordering(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in files {
        let comment_lines: Vec<usize> =
            sf.tokens.iter().filter(|t| t.kind == TokKind::Comment).map(|t| t.line).collect();
        let order_lines: Vec<usize> = sf
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Comment && t.text.contains("ORDER:"))
            .map(|t| t.line)
            .collect();
        // A use on line T is justified by an `// ORDER:` on T itself or
        // anywhere in the contiguous comment block ending at T - 1.
        let justified = |target: usize| -> bool {
            if order_lines.contains(&target) {
                return true;
            }
            let mut l = target.saturating_sub(1);
            while l > 0 && comment_lines.contains(&l) {
                if order_lines.contains(&l) {
                    return true;
                }
                l -= 1;
            }
            false
        };
        for (i, t) in sf.tokens.iter().enumerate() {
            if sf.mask[i] || !t.is_ident("Ordering") {
                continue;
            }
            let Some(variant) =
                ATOMIC_ORDERINGS.iter().find(|v| path_pair(&sf.tokens, i, "Ordering", v))
            else {
                continue;
            };
            if *variant == "Relaxed" {
                if !justified(t.line) {
                    out.push(finding(
                        "atomic_ordering",
                        &sf.path,
                        t.line,
                        "Ordering::Relaxed without an adjacent `// ORDER:` justification comment"
                            .to_string(),
                    ));
                }
            } else {
                out.push(finding(
                    "atomic_ordering",
                    &sf.path,
                    t.line,
                    format!(
                        "non-relaxed atomic ordering `Ordering::{variant}` requires a lint.toml \
                         allowlist entry explaining the required synchronization"
                    ),
                ));
            }
        }
    }
    out
}

/// Rule 5 — **env-var registry**: every `env::var("NAME")` literal in the
/// workspace must appear backtick-quoted in the README env table
/// (`env_doc`), so knobs cannot drift undocumented.
pub fn env_registry(files: &[SourceFile], cfg: &Config, env_doc: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in files {
        for (i, t) in sf.tokens.iter().enumerate() {
            if !(path_pair(&sf.tokens, i, "env", "var")
                || path_pair(&sf.tokens, i, "env", "var_os"))
            {
                continue;
            }
            // env :: var ( "NAME"  — the string may be absent (dynamic name).
            let Some(arg) = sf.tokens.get(i + 5) else { continue };
            if !sf.tokens[i + 4].is_punct('(') || arg.kind != TokKind::Str {
                continue;
            }
            let name = &arg.text;
            if name.is_empty() {
                continue;
            }
            // Table rows document knobs as `NAME` or `NAME=<value>`.
            let documented =
                env_doc.contains(&format!("`{name}`")) || env_doc.contains(&format!("`{name}="));
            if !documented {
                out.push(finding(
                    "env_registry",
                    &sf.path,
                    t.line,
                    format!(
                        "env var `{name}` is read here but missing from the `{}` env table",
                        cfg.env_registry_doc
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    fn sf(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    fn gate_cfg() -> Config {
        config::parse(
            "[threaded_gate]\npath = \"crates/numerics/src\"\n\
             gate_consts = [\"PARALLEL_NNZ_THRESHOLD\"]\n\
             gate_fns = [\"hardware_threads\"]\n\
             [env_registry]\ndoc = \"README.md\"\n",
        )
        .expect("valid fixture config")
    }

    // ---- rule 1: panic_surface -------------------------------------------

    #[test]
    fn panic_surface_fires_on_each_macro_and_method() {
        let f = sf(
            "crates/x/src/lib.rs",
            "fn f() { a.unwrap(); b.expect(\"m\"); panic!(\"x\"); unreachable!(); }",
        );
        let got = panic_surface(&[f]);
        assert_eq!(got.len(), 4, "{got:?}");
    }

    #[test]
    fn panic_surface_passes_tests_strings_comments_and_bins() {
        let clean = sf(
            "crates/x/src/lib.rs",
            "// a.unwrap()\nfn f() { let s = \"panic!\"; g(s); }\n\
             #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n",
        );
        let bin = sf("src/bin/tool.rs", "fn main() { run().unwrap(); }");
        assert!(panic_surface(&[clean, bin]).is_empty());
    }

    // ---- rule 2: threaded_gate -------------------------------------------

    #[test]
    fn threaded_gate_fires_on_ungated_spawn() {
        let f = sf(
            "crates/numerics/src/bad.rs",
            "fn rogue(s: &S) { std::thread::scope(|t| { t.spawn(|| w()); }); }",
        );
        let got = threaded_gate(&[f], &gate_cfg());
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("rogue"));
    }

    #[test]
    fn threaded_gate_passes_direct_and_caller_level_gates() {
        let direct = sf(
            "crates/numerics/src/a.rs",
            "fn gated() { if nnz >= PARALLEL_NNZ_THRESHOLD { \
             std::thread::scope(|t| { t.spawn(|| w()); }); } }",
        );
        let split = sf(
            "crates/numerics/src/b.rs",
            "fn driver() { if hardware_threads() > 1 { kernel(); } }\n\
             fn kernel() { std::thread::scope(|t| { t.spawn(|| w()); }); }\n",
        );
        let got = threaded_gate(&[direct, split], &gate_cfg());
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn threaded_gate_fires_when_any_caller_skips_the_gate() {
        let f = sf(
            "crates/numerics/src/c.rs",
            "fn good() { if hardware_threads() > 1 { kernel(); } }\n\
             fn bad() { kernel(); }\n\
             fn kernel() { std::thread::scope(|t| { t.spawn(|| w()); }); }\n",
        );
        let got = threaded_gate(&[f], &gate_cfg());
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("bad"), "{got:?}");
    }

    #[test]
    fn threaded_gate_ignores_files_outside_scope_and_test_spawns() {
        let outside = sf(
            "crates/thermal/src/x.rs",
            "fn rogue() { std::thread::scope(|t| { t.spawn(|| w()); }); }",
        );
        let test_only = sf(
            "crates/numerics/src/e.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::thread::scope(|s| { s.spawn(|| w()); }); } }\n",
        );
        let got = threaded_gate(&[outside, test_only], &gate_cfg());
        assert!(got.is_empty(), "{got:?}");
    }

    // ---- rule 3: hot_path ------------------------------------------------

    fn hot_cfg(file: &str, name: &str) -> Config {
        config::parse(&format!("[[hot_path.functions]]\nfile = \"{file}\"\nname = \"{name}\"\n"))
            .expect("valid fixture config")
    }

    #[test]
    fn hot_path_fires_on_every_allocation_kind() {
        let src = "fn hot(v: &[f64]) -> f64 {\n\
                   let a = Vec::new();\n\
                   let b = vec![0.0; 4];\n\
                   let c = v.to_vec();\n\
                   let d = c.clone();\n\
                   let e: Vec<f64> = d.iter().copied().collect();\n\
                   let f = Box::new(e);\n\
                   let g = format!(\"{}\", f.len());\n\
                   let h = String::from(\"x\");\n\
                   a.len() as f64\n}";
        let f = sf("crates/numerics/src/k.rs", src);
        let got = hot_path(&[f], &hot_cfg("crates/numerics/src/k.rs", "hot"));
        assert_eq!(got.len(), 8, "{got:?}");
    }

    #[test]
    fn hot_path_passes_clean_kernels_and_ignores_unregistered_fns() {
        let src = "fn hot(y: &mut [f64], x: &[f64]) { for (o, i) in y.iter_mut().zip(x) \
                   { *o += *i; } }\nfn setup() -> Vec<f64> { vec![0.0; 8] }";
        let f = sf("crates/numerics/src/k.rs", src);
        let got = hot_path(&[f], &hot_cfg("crates/numerics/src/k.rs", "hot"));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn hot_path_flags_stale_registrations() {
        let f = sf("crates/numerics/src/k.rs", "fn other() {}");
        let missing_fn = hot_path(&[f], &hot_cfg("crates/numerics/src/k.rs", "gone"));
        assert_eq!(missing_fn.len(), 1);
        assert!(missing_fn[0].message.contains("stale"));
        let missing_file = hot_path(&[], &hot_cfg("crates/numerics/src/gone.rs", "hot"));
        assert_eq!(missing_file.len(), 1);
        assert!(missing_file[0].message.contains("stale"));
    }

    // ---- rule 4: atomic_ordering -----------------------------------------

    #[test]
    fn atomic_ordering_requires_order_comment_on_relaxed() {
        let f = sf(
            "crates/numerics/src/a.rs",
            "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }",
        );
        let got = atomic_ordering(&[f]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("ORDER:"));
    }

    #[test]
    fn atomic_ordering_accepts_adjacent_justifications() {
        let f = sf(
            "crates/numerics/src/a.rs",
            "fn f(x: &AtomicU64) {\n\
             // ORDER: slots are disjoint per worker; the barrier publishes.\n\
             x.store(1, Ordering::Relaxed);\n\
             x.load(Ordering::Relaxed); // ORDER: same-thread readback.\n\
             // ORDER: a multi-line justification whose marker sits on the\n\
             // first line of the comment block still counts.\n\
             x.store(2, Ordering::Relaxed);\n}",
        );
        let got = atomic_ordering(&[f]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn atomic_ordering_flags_stronger_orderings_and_skips_cmp() {
        let f = sf(
            "crates/numerics/src/a.rs",
            "fn f(x: &AtomicUsize) -> Ordering { x.fetch_add(1, Ordering::AcqRel); \
             Ordering::Less }",
        );
        let got = atomic_ordering(&[f]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("AcqRel"));
    }

    // ---- rule 5: env_registry --------------------------------------------

    #[test]
    fn env_registry_fires_on_undocumented_and_passes_documented() {
        let f = sf(
            "crates/x/src/lib.rs",
            "fn f() { let _ = std::env::var(\"DOCUMENTED\"); \
             let _ = std::env::var(\"WITH_VALUE\"); \
             let _ = std::env::var(\"MYSTERY_KNOB\"); }",
        );
        let cfg = config::parse("[env_registry]\ndoc = \"README.md\"\n").expect("valid");
        let doc = "| `DOCUMENTED` | documented knob |\n| `WITH_VALUE=<n>` | documented knob |";
        let got = env_registry(&[f], &cfg, doc);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("MYSTERY_KNOB"));
    }
}
