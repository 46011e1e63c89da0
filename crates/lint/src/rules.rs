//! The determinism & contract rules.
//!
//! Each rule is a token-level matcher over one file's lexed stream (or,
//! for the doc/fixture cross-checks, over workspace-level facts the
//! engine in `lib.rs` assembles). The matchers deliberately consult the
//! *real* registries — [`collie_core::env::HOOKS`] for environment hooks,
//! [`collie_rnic::counters`] for counter names — instead of re-parsing
//! their source, so the linter can never drift from the contract it
//! enforces: adding a hook or a counter updates the lint at the same
//! commit, by construction.
//!
//! Matching happens on non-comment tokens only (comments carry the
//! suppression annotations, handled in `annot.rs`), and string-literal
//! rules match the literal's **entire** content — `"perf/nope"` is a
//! counter name, `"see perf/nope above"` is prose. That exactness is what
//! lets the linter's own tests embed offending snippets inside raw
//! strings without flagging themselves.

use crate::lexer::{Token, TokenKind};

/// A rule's identity and one-line contract, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Kebab-case rule name, as used in annotations and `--allow`.
    pub name: &'static str,
    /// What the rule enforces.
    pub doc: &'static str,
}

/// Every rule, in canonical (report) order.
pub const RULES: [RuleInfo; 8] = [
    RuleInfo {
        name: "wall-clock",
        doc: "deterministic crates must not read wall-clock time \
              (Instant::now, SystemTime, std::time) outside annotated \
              profiling sites",
    },
    RuleInfo {
        name: "env-registry",
        doc: "std::env::var(\"COLLIE_*\") must name a hook registered in \
              collie_core::env::HOOKS, and every registered hook must be \
              documented in README.md",
    },
    RuleInfo {
        name: "serde-skip",
        doc: "execution-detail fields (memoize, speculation, incremental) \
              on serde-derived structs must carry #[serde(skip)] so they \
              cannot leak into golden fixtures",
    },
    RuleInfo {
        name: "rng-clone",
        doc: "campaign RNG state is never cloned in a deterministic crate; \
              an exception needs an annotated reason",
    },
    RuleInfo {
        name: "counter-name",
        doc: "perf/, diag/ and fabric/ counter string literals must match \
              the canonical registry in collie_rnic::counters",
    },
    RuleInfo {
        name: "forbid-unsafe",
        doc: "every crate root and bin declares #![forbid(unsafe_code)]",
    },
    RuleInfo {
        name: "fixture-drift",
        doc: "golden fixtures referenced by root tests must exist under \
              tests/fixtures/, and every fixture on disk must be referenced \
              by a test",
    },
    RuleInfo {
        name: "annotation",
        doc: "collie-lint suppression annotations must parse, name a known \
              rule, and state a reason",
    },
];

/// All rule names, for annotation validation and `--allow` checking.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|rule| rule.name).collect()
}

/// Crates whose behaviour must be a pure function of (config, seed): the
/// campaign pipeline from the simulator up through the search layer. The
/// bench harness and the linter itself measure real time on purpose and
/// are out of scope.
pub const DETERMINISTIC_PREFIXES: [&str; 5] = [
    "crates/sim-engine/",
    "crates/host-model/",
    "crates/rnic-model/",
    "crates/verbs/",
    "crates/core/",
];

/// The execution-detail knobs that must never serialize (rule
/// `serde-skip`). `speculation` names a knob that no longer exists; it
/// stays listed so a reintroduced field of that name still needs
/// `#[serde(skip)]`.
pub const EXEC_DETAIL_FIELDS: [&str; 3] = ["memoize", "speculation", "incremental"];

/// One rule hit before suppression filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The rule that fired.
    pub rule: &'static str,
    /// 1-indexed line of the offending token.
    pub line: usize,
    /// 1-indexed column of the offending token.
    pub column: usize,
    /// What the rule objects to.
    pub message: String,
}

impl Candidate {
    fn at(rule: &'static str, token: &Token, message: String) -> Candidate {
        Candidate {
            rule,
            line: token.line,
            column: token.column,
            message,
        }
    }
}

/// Whether `rel` lives in a deterministic crate (D1/D4 scope).
pub fn deterministic_scope(rel: &str) -> bool {
    DETERMINISTIC_PREFIXES
        .iter()
        .any(|prefix| rel.starts_with(prefix))
}

/// Whether `rel` is a crate root or bin root (D6 scope).
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")))
        || rel.starts_with("src/bin/")
        || (rel.starts_with("crates/") && rel.contains("/src/bin/"))
}

/// Run every file-scoped rule over one file's token stream.
pub fn check_file(rel: &str, tokens: &[Token]) -> Vec<Candidate> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|token| token.kind != TokenKind::Comment)
        .collect();
    let mut out = Vec::new();
    check_wall_clock(rel, &code, &mut out);
    check_env_registry(&code, &mut out);
    check_serde_skip(&code, &mut out);
    check_rng_clone(rel, &code, &mut out);
    check_counter_name(&code, &mut out);
    check_forbid_unsafe(rel, &code, &mut out);
    out
}

fn ident_at(code: &[&Token], index: usize, text: &str) -> bool {
    code.get(index)
        .is_some_and(|token| token.kind == TokenKind::Ident && token.text == text)
}

fn punct_at(code: &[&Token], index: usize, text: &str) -> bool {
    code.get(index)
        .is_some_and(|token| token.kind == TokenKind::Punct && token.text == text)
}

/// D1: no wall-clock reads in deterministic crates.
fn check_wall_clock(rel: &str, code: &[&Token], out: &mut Vec<Candidate>) {
    if !deterministic_scope(rel) {
        return;
    }
    for (index, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        match token.text.as_str() {
            "SystemTime" => out.push(Candidate::at(
                "wall-clock",
                token,
                "SystemTime read in a deterministic crate; campaign behaviour must be \
                 a pure function of (config, seed) — annotate profiling sites with \
                 `collie-lint: allow(wall-clock, reason = \"…\")`"
                    .to_string(),
            )),
            "std"
                if punct_at(code, index + 1, ":")
                    && punct_at(code, index + 2, ":")
                    && ident_at(code, index + 3, "time") =>
            {
                out.push(Candidate::at(
                    "wall-clock",
                    token,
                    "std::time used in a deterministic crate; simulated time lives in \
                     collie_sim — annotate profiling sites with \
                     `collie-lint: allow(wall-clock, reason = \"…\")`"
                        .to_string(),
                ));
            }
            "Instant"
                if punct_at(code, index + 1, ":")
                    && punct_at(code, index + 2, ":")
                    && ident_at(code, index + 3, "now") =>
            {
                out.push(Candidate::at(
                    "wall-clock",
                    token,
                    "Instant::now() in a deterministic crate; annotate profiling sites \
                     with `collie-lint: allow(wall-clock, reason = \"…\")`"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Whether `text` is exactly an environment-hook name (`COLLIE_` plus a
/// non-empty `[A-Z0-9_]` tail).
fn is_collie_env_name(text: &str) -> bool {
    text.strip_prefix("COLLIE_").is_some_and(|tail| {
        !tail.is_empty()
            && tail
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

/// D2 (code half): every literal `COLLIE_*` passed to `env::var` must be
/// a registered hook. (The doc half — every hook appears in the README —
/// is a workspace-level check in `lib.rs`.)
fn check_env_registry(code: &[&Token], out: &mut Vec<Candidate>) {
    for (index, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Str || !is_collie_env_name(&token.text) {
            continue;
        }
        let is_var_arg =
            index >= 2 && punct_at(code, index - 1, "(") && ident_at(code, index - 2, "var");
        if is_var_arg && collie_core::env::hook(&token.text).is_none() {
            out.push(Candidate::at(
                "env-registry",
                token,
                format!(
                    "std::env::var(\"{}\") reads an unregistered hook; declare it in \
                     collie_core::env::HOOKS (with grammar and doc) and the README table",
                    token.text
                ),
            ));
        }
    }
}

/// Index of the token closing the bracket opened at `open`, or `None`.
fn matching_close(code: &[&Token], open: usize) -> Option<usize> {
    let close = match code.get(open)?.text.as_str() {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => return None,
    };
    let open_text = code[open].text.clone();
    let mut depth = 0usize;
    for (offset, token) in code[open..].iter().enumerate() {
        if token.kind != TokenKind::Punct {
            continue;
        }
        if token.text == open_text {
            depth += 1;
        } else if token.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(open + offset);
            }
        }
    }
    None
}

/// D3: execution-detail fields on serde-derived structs carry
/// `#[serde(skip)]`.
fn check_serde_skip(code: &[&Token], out: &mut Vec<Candidate>) {
    let mut index = 0;
    while index < code.len() {
        // Find `#[derive(… Serialize | Deserialize …)]`.
        if !(punct_at(code, index, "#") && punct_at(code, index + 1, "[")) {
            index += 1;
            continue;
        }
        let Some(attr_close) = matching_close(code, index + 1) else {
            return;
        };
        let attr = &code[index + 2..attr_close];
        let serde_derived = attr.first().is_some_and(|t| t.text == "derive")
            && attr.iter().any(|t| {
                t.kind == TokenKind::Ident && (t.text == "Serialize" || t.text == "Deserialize")
            });
        index = attr_close + 1;
        if !serde_derived {
            continue;
        }
        // Skip any further attributes and the visibility to the item keyword.
        let mut at = index;
        while punct_at(code, at, "#") && punct_at(code, at + 1, "[") {
            match matching_close(code, at + 1) {
                Some(close) => at = close + 1,
                None => return,
            }
        }
        if ident_at(code, at, "pub") {
            at += 1;
            if punct_at(code, at, "(") {
                match matching_close(code, at) {
                    Some(close) => at = close + 1,
                    None => return,
                }
            }
        }
        if !ident_at(code, at, "struct") {
            continue; // enums and derives on other items have no named knobs
        }
        // Find the named-field body (`;` or `(` first means unit/tuple).
        let body_open = code[at + 1..]
            .iter()
            .position(|token| matches!(token.text.as_str(), "{" | ";" | "("))
            .map(|offset| at + 1 + offset)
            .filter(|&found| code[found].text == "{");
        let Some(body_open) = body_open else { continue };
        let Some(body_close) = matching_close(code, body_open) else {
            return;
        };
        check_struct_fields(code, body_open, body_close, out);
        index = body_close + 1;
    }
}

/// Walk one named-struct body, checking each execution-detail field for a
/// preceding `#[serde(… skip …)]`.
fn check_struct_fields(
    code: &[&Token],
    body_open: usize,
    body_close: usize,
    out: &mut Vec<Candidate>,
) {
    let mut at = body_open + 1;
    let mut has_serde_skip = false;
    while at < body_close {
        // Field attributes.
        if punct_at(code, at, "#") && punct_at(code, at + 1, "[") {
            let Some(close) = matching_close(code, at + 1) else {
                return;
            };
            let attr = &code[at + 2..close];
            if attr.first().is_some_and(|t| t.text == "serde")
                && attr
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text == "skip")
            {
                has_serde_skip = true;
            }
            at = close + 1;
            continue;
        }
        if ident_at(code, at, "pub") {
            at += 1;
            if punct_at(code, at, "(") {
                match matching_close(code, at) {
                    Some(close) => at = close + 1,
                    None => return,
                }
            }
            continue;
        }
        // The field name (an identifier directly followed by `:`).
        let token = code[at];
        if token.kind == TokenKind::Ident
            && punct_at(code, at + 1, ":")
            && EXEC_DETAIL_FIELDS.contains(&token.text.as_str())
            && !has_serde_skip
        {
            out.push(Candidate::at(
                "serde-skip",
                token,
                format!(
                    "execution-detail field `{}` on a serde-derived struct lacks \
                     #[serde(skip)]; execution knobs must never leak into golden fixtures",
                    token.text
                ),
            ));
        }
        // Skip the type, to the `,` that ends this field.
        at += 1;
        let mut depth = 0usize;
        while at < body_close {
            match code[at].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                "," if depth == 0 => {
                    at += 1;
                    break;
                }
                _ => {}
            }
            at += 1;
        }
        has_serde_skip = false;
    }
}

/// D4: campaign RNG state is never cloned in a deterministic crate; an
/// exception needs an annotated reason.
fn check_rng_clone(rel: &str, code: &[&Token], out: &mut Vec<Candidate>) {
    if !deterministic_scope(rel) {
        return;
    }
    for (index, token) in code.iter().enumerate() {
        let is_rng =
            token.kind == TokenKind::Ident && (token.text == "rng" || token.text.ends_with("_rng"));
        if is_rng
            && punct_at(code, index + 1, ".")
            && ident_at(code, index + 2, "clone")
            && punct_at(code, index + 3, "(")
        {
            out.push(Candidate::at(
                "rng-clone",
                token,
                format!(
                    "`{}.clone()` forks campaign RNG state, which is never cloned \
                     in a deterministic crate; an exception needs an annotated reason",
                    token.text
                ),
            ));
        }
    }
}

/// Whether `text` is exactly a counter name (`perf/…`, `diag/…`,
/// `fabric/…`), and if so whether it is canonical.
fn counter_name_status(text: &str) -> Option<bool> {
    let (prefix, tail) = text.split_once('/')?;
    if tail.is_empty()
        || !tail
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    let all: &[&str] = match prefix {
        "perf" => &collie_rnic::counters::perf::ALL,
        "diag" => &collie_rnic::counters::diag::ALL,
        "fabric" => &collie_rnic::counters::fabric::ALL,
        _ => return None,
    };
    Some(all.contains(&text))
}

/// D5: counter literals match the canonical registry.
fn check_counter_name(code: &[&Token], out: &mut Vec<Candidate>) {
    for token in code {
        if token.kind != TokenKind::Str {
            continue;
        }
        if counter_name_status(&token.text) == Some(false) {
            out.push(Candidate::at(
                "counter-name",
                token,
                format!(
                    "\"{}\" is not a registered counter; the canonical names live in \
                     collie_rnic::counters (a typo here would silently read zeros)",
                    token.text
                ),
            ));
        }
    }
}

/// D6: crate roots declare `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(rel: &str, code: &[&Token], out: &mut Vec<Candidate>) {
    if !is_crate_root(rel) {
        return;
    }
    let has_forbid = (0..code.len()).any(|index| {
        punct_at(code, index, "#")
            && punct_at(code, index + 1, "!")
            && punct_at(code, index + 2, "[")
            && ident_at(code, index + 3, "forbid")
            && punct_at(code, index + 4, "(")
            && ident_at(code, index + 5, "unsafe_code")
            && punct_at(code, index + 6, ")")
            && punct_at(code, index + 7, "]")
    });
    if !has_forbid {
        out.push(Candidate {
            rule: "forbid-unsafe",
            line: 1,
            column: 1,
            message: "crate root lacks #![forbid(unsafe_code)]; the workspace is a \
                      pure-Rust model and must stay that way"
                .to_string(),
        });
    }
}

/// Whether `text` is exactly a golden-fixture basename
/// (`golden_….json`).
pub fn is_golden_basename(text: &str) -> bool {
    text.strip_prefix("golden_")
        .and_then(|rest| rest.strip_suffix(".json"))
        .is_some_and(|stem| {
            !stem.is_empty()
                && stem
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Extract the fixture basename a string literal references, if any:
/// either a bare golden basename or a `…fixtures/<name>.json` path.
pub fn fixture_reference(text: &str) -> Option<String> {
    if is_golden_basename(text) {
        return Some(text.to_string());
    }
    let after = &text[text.find("fixtures/")? + "fixtures/".len()..];
    (!after.is_empty() && !after.contains('/') && after.ends_with(".json"))
        .then(|| after.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn candidates(rel: &str, source: &str) -> Vec<Candidate> {
        check_file(rel, &tokenize(source))
    }

    fn rules_fired(rel: &str, source: &str) -> Vec<&'static str> {
        candidates(rel, source)
            .into_iter()
            .map(|c| c.rule)
            .collect()
    }

    const DET: &str = "crates/core/src/x.rs";
    const NON_DET: &str = "crates/bench/src/x.rs";

    #[test]
    fn wall_clock_fires_in_deterministic_scope_only() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        let fired = rules_fired(DET, src);
        assert_eq!(
            fired.iter().filter(|r| **r == "wall-clock").count(),
            2,
            "{fired:?}"
        );
        assert!(rules_fired(NON_DET, src).is_empty());
        // SystemTime alone is enough.
        assert_eq!(
            rules_fired(DET, "fn f() -> SystemTime { todo!() }"),
            ["wall-clock"]
        );
    }

    #[test]
    fn wall_clock_ignores_strings_and_comments() {
        let src = "// Instant::now() would be wrong here\nlet s = \"std::time::Instant\";";
        assert!(rules_fired(DET, src).is_empty());
    }

    #[test]
    fn env_registry_accepts_registered_and_rejects_unregistered() {
        let ok = r#"let v = std::env::var("COLLIE_MEMOIZE");"#;
        assert!(rules_fired(DET, ok).is_empty());
        let bad = r#"let v = std::env::var("COLLIE_BOGUS_HOOK");"#;
        let found = candidates(NON_DET, bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "env-registry");
        assert!(found[0].message.contains("COLLIE_BOGUS_HOOK"));
    }

    #[test]
    fn env_registry_ignores_literals_outside_var_calls() {
        // A mention in a table or assert is not an env read.
        let src = r#"assert_eq!(hook("COLLIE_BOGUS_HOOK"), None);"#;
        assert!(rules_fired(DET, src).is_empty());
    }

    #[test]
    fn serde_skip_requires_the_attribute_on_exec_detail_fields() {
        let bad = "#[derive(Debug, Serialize, Deserialize)]\npub struct C {\n    pub seed: u64,\n    pub memoize: bool,\n}";
        let found = candidates(NON_DET, bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "serde-skip");
        assert_eq!(found[0].line, 4);

        let ok = "#[derive(Serialize)]\npub struct C {\n    #[serde(skip)]\n    pub memoize: bool,\n    pub speculation_budget: u64,\n}";
        assert!(rules_fired(NON_DET, ok).is_empty());
    }

    #[test]
    fn serde_skip_ignores_non_serde_structs_and_other_fields() {
        let plain = "#[derive(Debug, Clone)]\npub struct C { pub memoize: bool }";
        assert!(rules_fired(NON_DET, plain).is_empty());
        let other = "#[derive(Serialize)]\npub struct C { pub seed: u64, pub budget: Option<u32> }";
        assert!(rules_fired(NON_DET, other).is_empty());
    }

    #[test]
    fn serde_skip_walks_complex_field_types() {
        let bad = "#[derive(Deserialize)]\nstruct C {\n    pub table: Vec<(String, Option<u64>)>,\n    speculation: Option<usize>,\n}";
        let found = candidates(NON_DET, bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn rng_clone_fires_on_rng_named_receivers_in_scope() {
        let src = "let fork = self.rng.clone();\nlet other = planner_rng.clone();\nlet fine = config.clone();";
        let found = candidates(DET, src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|c| c.rule == "rng-clone"));
        assert!(rules_fired(NON_DET, src).is_empty());
    }

    #[test]
    fn counter_name_checks_literals_against_the_registry() {
        let ok = r#"set("perf/tx_bytes_per_sec"); set("diag/mtt_cache_miss"); set("fabric/pause_spread");"#;
        assert!(rules_fired(DET, ok).is_empty());
        let bad = r#"set("diag/mtt_cache_mis");"#;
        let found = candidates(DET, bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "counter-name");
    }

    #[test]
    fn counter_name_ignores_prose_and_other_prefixes() {
        let src = r#"let a = "see diag/mtt_cache_miss for details"; let b = "other/name"; let c = "diag/";"#;
        assert!(rules_fired(DET, src).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let bare = "pub mod x;";
        let fired = rules_fired("crates/core/src/lib.rs", bare);
        assert_eq!(fired, ["forbid-unsafe"]);
        assert_eq!(rules_fired("src/lib.rs", bare), ["forbid-unsafe"]);
        assert_eq!(
            rules_fired("crates/bench/src/bin/fig4.rs", bare),
            ["forbid-unsafe"]
        );
        // Non-root modules don't need the attribute.
        assert!(rules_fired("crates/core/src/search/mod.rs", bare).is_empty());
        // And the attribute satisfies the rule.
        assert!(rules_fired(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;"
        )
        .is_empty());
    }

    #[test]
    fn fixture_reference_extraction() {
        assert_eq!(
            fixture_reference("golden_fig4.json"),
            Some("golden_fig4.json".to_string())
        );
        assert_eq!(
            fixture_reference("tests/fixtures/golden_fig7_bo.json"),
            Some("golden_fig7_bo.json".to_string())
        );
        assert_eq!(
            fixture_reference("golden_fig4.json (shared cache off)"),
            None
        );
        assert_eq!(fixture_reference("tests/fixtures"), None);
        assert_eq!(fixture_reference("not_golden.json"), None);
    }

    #[test]
    fn rule_names_are_unique_and_kebab_case() {
        let names = rule_names();
        for (index, name) in names.iter().enumerate() {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name}"
            );
            assert!(!names[..index].contains(name), "duplicate {name}");
        }
    }
}
