//! The single source of truth for every `COLLIE_*` environment hook.
//!
//! Determinism contract (DESIGN.md §13, rule `env-registry`): an
//! environment variable may steer *how* a campaign executes — never *what*
//! it computes — and every such hook must be declared exactly once, here,
//! with its grammar, clamp, and documentation. `collie-lint` enforces the
//! contract statically: any `std::env::var("COLLIE_…")` whose name is not
//! in [`HOOKS`] is a violation, and every registered hook must appear in
//! the README's environment-hook table so operators can discover it.
//!
//! The parsers are separated from the env reads so they can be tested
//! without mutating process-global state under a parallel test runner;
//! the typed reader ([`workers`]) is the only place in the workspace that
//! actually reads a `COLLIE_*` variable.

/// One registered environment hook: the variable name, its default when
/// unset, the accepted grammar (clamps included), and what it steers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hook {
    /// The environment variable, e.g. `COLLIE_WORKERS`.
    pub name: &'static str,
    /// Human-readable default when the variable is unset.
    pub default: &'static str,
    /// Accepted values and how out-of-range values are clamped.
    pub grammar: &'static str,
    /// One-line description of the execution detail the hook steers.
    pub doc: &'static str,
}

/// Every `COLLIE_*` hook the workspace honours. `collie-lint` rejects any
/// env read whose name is missing here, and checks each entry is
/// documented in the README table.
pub const HOOKS: [Hook; 1] = [Hook {
    name: "COLLIE_WORKERS",
    default: "auto (machine parallelism clamped to 2..=16)",
    grammar: "a positive integer; `0` clamps to 1; malformed values fall back to auto",
    doc: "Matrix worker-pool width override.",
}];

/// Look a hook up by variable name (`None` for unregistered names — the
/// condition `collie-lint` rule `env-registry` reports).
pub fn hook(name: &str) -> Option<&'static Hook> {
    HOOKS.iter().find(|hook| hook.name == name)
}

/// Read one registered hook from the process environment. Private so the
/// typed reader below stays the only consumer; `debug_assert`s that the
/// name went through the registry.
fn read(name: &'static str) -> Option<String> {
    debug_assert!(hook(name).is_some(), "unregistered env hook {name}");
    std::env::var(name).ok()
}

/// The process-wide `COLLIE_WORKERS` override (see [`HOOKS`]); `None`
/// when unset or malformed (the caller falls back to the automatic
/// width).
pub fn workers() -> Option<usize> {
    parse_workers(read("COLLIE_WORKERS").as_deref())
}

/// `COLLIE_WORKERS` parser. Positive integers are honoured as-is; `0`
/// clamps to 1 (a pool cannot be empty); anything unparsable falls back
/// to the automatic width.
pub fn parse_workers(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok().map(|n| n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_documented() {
        for (index, hook) in HOOKS.iter().enumerate() {
            assert!(hook.name.starts_with("COLLIE_"), "{}", hook.name);
            assert!(!hook.default.is_empty(), "{}", hook.name);
            assert!(!hook.grammar.is_empty(), "{}", hook.name);
            assert!(!hook.doc.is_empty(), "{}", hook.name);
            assert!(
                !HOOKS[..index].iter().any(|other| other.name == hook.name),
                "duplicate hook {}",
                hook.name
            );
        }
        assert_eq!(
            hook("COLLIE_WORKERS").map(|h| h.name),
            Some("COLLIE_WORKERS")
        );
        assert_eq!(hook("COLLIE_NO_SUCH_HOOK"), None);
    }

    #[test]
    fn workers_parser_parses_and_clamps() {
        // CI and operators pin the matrix pool with COLLIE_WORKERS; this
        // pins the parser without touching process-global state.
        for (value, expected) in [
            (None, None),
            (Some(""), None),
            (Some("  "), None),
            (Some("not a pool"), None),
            (Some("-2"), None),
            (Some("0"), Some(1)),
            (Some("1"), Some(1)),
            (Some(" 3 "), Some(3)),
            (Some("24"), Some(24)),
        ] {
            assert_eq!(parse_workers(value), expected, "COLLIE_WORKERS={value:?}");
        }
    }
}
