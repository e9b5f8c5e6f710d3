//! The lint rules and the workspace analysis pass.
//!
//! Every rule has a stable ID (`D1`, `D2`, `N2`, `C1`, `T1`, `W1`,
//! `F2`, plus `A0` for malformed annotations) and an annotation key for
//! suppression. The float-width rule (`N2`) is path-scoped; the
//! determinism rules (`D1`, `D2`, `C1`) are scoped by *call-graph
//! reachability* from the simulation roots (see [`crate::graph`]), so
//! a new crate wired into the simulation enters scope automatically
//! instead of by editing a hand-pinned path list. The taint rule (`T1`) reports the actual
//! root-to-sink call path for every reachable nondeterminism sink, and
//! the worker-pool rules (`W1`, `F2`) inspect closures passed to
//! spawn-reaching functions.
//!
//! Panic hygiene, bare numeric casts and crate-root headers are not
//! smartlint rules: clippy (`unwrap_used`, `expect_used`, `panic`,
//! `unreachable`, `as_conversions`) and the workspace rustc lints
//! (`missing_docs`, `unsafe_code`) enforce them, with justified sites
//! carrying `#[expect(lint, reason = "…")]`.
//!
//! # Annotation grammar
//!
//! A finding is suppressed by a justification comment on the same line
//! or the line directly above:
//!
//! ```text
//! // smartlint: allow(<key>, "<why this site is sound>")
//! ```
//!
//! The reason string is mandatory and must be non-empty; a `smartlint:`
//! comment that does not parse is itself reported (rule `A0`) so a
//! typo cannot silently disable enforcement. Suppressing a sink with
//! its native key (`nondeterminism`, `unordered-iter`,
//! `checkpoint-write`) also suppresses the paired `T1` taint finding
//! at that line — one justification covers both views of the same
//! site.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;

use crate::graph::{
    is_binary_root, is_thread_spawn, DerivedScope, FileModel, Graph, EXEMPT_D_UNITS,
};
use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use crate::parser::{parse_file, Callee, ParsedFile};
use crate::SourceFile;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// Rule ID (`D1`, `D2`, `N2`, `C1`, `T1`, `W1`, `F2`, `A0`).
    pub rule: String,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human explanation of what is wrong and how to fix it.
    pub message: String,
    /// The trimmed source line of the violation.
    pub excerpt: String,
    /// For `T1`: the root-to-sink call chain (`path:line fn` labels,
    /// root first). Empty for every other rule.
    pub trace: Vec<String>,
}

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule ID.
    pub id: &'static str,
    /// The `allow(<key>, ...)` annotation key.
    pub key: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule smartlint enforces, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        key: "unordered-iter",
        summary: "no HashMap/HashSet iteration in root-reachable simulation code (keyed lookups stay legal)",
    },
    RuleInfo {
        id: "D2",
        key: "nondeterminism",
        summary: "no wall-clock, ambient randomness or env-dependent values in root-reachable simulation code",
    },
    RuleInfo {
        id: "N2",
        key: "float-width",
        summary: "no f32 in power/energy paths; all accounting is f64",
    },
    RuleInfo {
        id: "C1",
        key: "checkpoint-write",
        summary: "no direct file writes in campaign checkpoint code; all persistence goes through the atomic temp-file+rename writer",
    },
    RuleInfo {
        id: "T1",
        key: "taint-path",
        summary: "no call path from a simulation root to a nondeterminism sink (clock, randomness, env, unordered iteration, raw file write, thread spawn)",
    },
    RuleInfo {
        id: "W1",
        key: "worker-capture",
        summary: "worker-pool closures must not touch shared mutable state (locks, atomics, RefCells) outside the sanctioned merge points",
    },
    RuleInfo {
        id: "F2",
        key: "float-fold",
        summary: "no order-sensitive accumulation into captured state inside worker-pool closures; fold per-slot and merge deterministically",
    },
    RuleInfo {
        id: "A0",
        key: "annotation",
        summary: "smartlint annotations must parse and carry a non-empty reason",
    },
];

/// Looks up a rule by ID.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

// ---------------------------------------------------------------------
// Path scope (N2 stays path-driven)
// ---------------------------------------------------------------------

/// Power/energy-path files where `f32` is banned outright (N2). The
/// scope is per file, finer than a per-crate `clippy.toml` can express.
const POWER_FILES: &[&str] = &[
    "crates/mcpat/src/",
    "crates/core/src/objective.rs",
    "crates/kernelsim/src/stats.rs",
];

fn n2_applies(path: &str) -> bool {
    POWER_FILES.iter().any(|p| {
        if p.ends_with(".rs") {
            path == *p
        } else {
            path.starts_with(p)
        }
    })
}

// ---------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Annotation {
    key: String,
    line: u32,
}

/// Parses `smartlint:` comments into suppression annotations; comments
/// that mention smartlint but do not parse become `A0` findings.
fn collect_annotations(
    comments: &[Comment],
    path: &str,
    lines: &[&str],
    findings: &mut Vec<Finding>,
) -> Vec<Annotation> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments routinely *mention* the grammar (as this file
        // does); only a plain comment whose body leads with
        // `smartlint:` is an annotation.
        let text = c.text.as_str();
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let body = text
            .strip_prefix("//")
            .or_else(|| text.strip_prefix("/*"))
            .unwrap_or(text)
            .trim_start();
        let Some(rest) = body.strip_prefix("smartlint:").map(str::trim) else {
            continue;
        };
        match parse_allow(rest) {
            Some(key) if RULES.iter().any(|r| r.key == key) => {
                out.push(Annotation { key, line: c.line })
            }
            Some(key) => findings.push(finding(
                "A0",
                path,
                c.line,
                lines,
                format!("unknown smartlint rule key {key:?} in annotation"),
            )),
            None => findings.push(finding(
                "A0",
                path,
                c.line,
                lines,
                "malformed smartlint annotation; expected `smartlint: allow(<key>, \"reason\")`"
                    .to_string(),
            )),
        }
    }
    out
}

/// Parses `allow(<key>, "<reason>")`, returning the key. The reason is
/// mandatory and must be a non-empty string literal.
fn parse_allow(text: &str) -> Option<String> {
    let body = text.strip_prefix("allow")?.trim_start();
    let body = body.strip_prefix('(')?;
    let close = body.rfind(')')?;
    let body = &body[..close];
    let comma = body.find(',')?;
    let key = body[..comma].trim();
    let reason = body[comma + 1..].trim();
    let reason = reason.strip_prefix('"')?.strip_suffix('"')?;
    if key.is_empty() || reason.trim().is_empty() {
        return None;
    }
    Some(key.to_string())
}

fn suppressed(annotations: &[Annotation], key: &str, line: u32) -> bool {
    annotations
        .iter()
        .any(|a| a.key == key && (a.line == line || a.line + 1 == line))
}

// ---------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items. D2 and C1
/// skip these: tests may time themselves and write scratch files.
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(attr_end) = match_test_attr(tokens, i) {
            // Find the item's opening brace, then its matching close.
            let mut j = attr_end;
            while j < tokens.len() && !is_punct(&tokens[j], "{") {
                j += 1;
            }
            let start_line = tokens[i].line;
            let mut depth = 0i64;
            while j < tokens.len() {
                if is_punct(&tokens[j], "{") {
                    depth += 1;
                } else if is_punct(&tokens[j], "}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end_line = tokens.get(j).map_or(u32::MAX, |t| t.line);
            regions.push((start_line, end_line));
            i = j.max(i) + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// If tokens at `i` start `#[cfg(test)]` or `#[test]`, returns the
/// index one past the closing `]`.
fn match_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !is_punct(tokens.get(i)?, "#") || !is_punct(tokens.get(i + 1)?, "[") {
        return None;
    }
    let name = tokens.get(i + 2)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    match name.text.as_str() {
        "test" if is_punct(tokens.get(i + 3)?, "]") => Some(i + 4),
        "cfg" => {
            // #[cfg(test)] exactly: cfg ( test ) ]
            if is_punct(tokens.get(i + 3)?, "(")
                && tokens.get(i + 4).is_some_and(|t| t.text == "test")
                && is_punct(tokens.get(i + 5)?, ")")
                && is_punct(tokens.get(i + 6)?, "]")
            {
                Some(i + 7)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn in_test_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

// ---------------------------------------------------------------------
// Sink detectors (shared by the base rules and the taint pass)
// ---------------------------------------------------------------------

/// One detector hit: the raw material for a base-rule finding and, when
/// the enclosing fn is root-reachable, a `T1` taint finding.
struct SinkHit {
    line: u32,
    /// Token index of the offending token (locates the enclosing fn).
    tok: usize,
    /// Short sink description for the `T1` message.
    what: String,
    /// Full message for the base-rule finding.
    message: String,
}

/// D1 — unordered iteration. Collects identifiers declared with
/// `HashMap`/`HashSet` types or constructors, then flags iteration
/// method calls and `for … in` loops whose receiver is one of them.
fn detect_d1(lexed: &Lexed) -> Vec<SinkHit> {
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "into_keys",
        "into_values",
        "drain",
        "retain",
    ];
    let toks = &lexed.tokens;
    let mut names: Vec<String> = Vec::new();

    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident
            || (toks[i].text != "HashMap" && toks[i].text != "HashSet")
        {
            continue;
        }
        // Walk backwards over a path/type prefix (`std :: collections ::`,
        // `&`, `mut`, `<` of generics) to the declared name: the nearest
        // preceding `ident :` or `ident =`.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1];
            let skippable = is_punct(prev, ":")
                || is_punct(prev, "&")
                || is_punct(prev, "<")
                || is_ident(prev, "std")
                || is_ident(prev, "collections")
                || is_ident(prev, "mut")
                || is_ident(prev, "dyn");
            if !skippable {
                break;
            }
            j -= 1;
            if is_punct(&toks[j], ":") && j > 0 && toks[j - 1].kind == TokenKind::Ident {
                // `name : … HashMap` — a field, binding or parameter;
                // but `seg :: HashMap` is a path, not a declaration.
                let path_sep = j >= 2 && is_punct(&toks[j - 2], ":");
                if !path_sep {
                    names.push(toks[j - 1].text.clone());
                }
                break;
            }
        }
        // `name = HashMap::new()` style.
        if i >= 2 && is_punct(&toks[i - 1], "=") && toks[i - 2].kind == TokenKind::Ident {
            names.push(toks[i - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();

    let mut hits = Vec::new();
    for i in 0..toks.len() {
        // Method-call form: `name . iter (`  /  `self . name . drain (`.
        if toks[i].kind == TokenKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && i >= 2
            && is_punct(&toks[i - 1], ".")
            && toks[i - 2].kind == TokenKind::Ident
            && names.contains(&toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
        {
            hits.push(SinkHit {
                line: toks[i].line,
                tok: i,
                what: format!(
                    "unordered iteration `{}.{}()`",
                    toks[i - 2].text,
                    toks[i].text
                ),
                message: format!(
                    "iteration over unordered container `{recv}.{m}()`: HashMap/HashSet visit \
                     order is nondeterministic and must never reach reports, serialized output \
                     or allocation decisions — use BTreeMap or a sorted Vec, or justify with \
                     `// smartlint: allow(unordered-iter, \"…\")`",
                    recv = toks[i - 2].text,
                    m = toks[i].text
                ),
            });
        }
        // `for pat in <expr containing a map name> {`
        if is_ident(&toks[i], "for") {
            let mut j = i + 1;
            while j < toks.len() && !is_ident(&toks[j], "in") {
                j += 1;
            }
            let mut k = j + 1;
            let mut offender: Option<usize> = None;
            while k < toks.len() && !is_punct(&toks[k], "{") {
                if toks[k].kind == TokenKind::Ident && names.contains(&toks[k].text) {
                    offender = Some(k);
                }
                k += 1;
            }
            if let Some(k) = offender {
                hits.push(SinkHit {
                    line: toks[k].line,
                    tok: k,
                    what: format!("unordered `for … in {}`", toks[k].text),
                    message: format!(
                        "`for … in` over unordered container `{}`: iteration order is \
                         nondeterministic — use BTreeMap or a sorted Vec, or justify with \
                         `// smartlint: allow(unordered-iter, \"…\")`",
                        toks[k].text
                    ),
                });
            }
        }
    }
    hits
}

/// D2 — ambient nondeterminism: wall clocks, OS randomness,
/// environment. Tokens inside `use` statements are skipped — importing
/// a name is not an effect; every *usage* site still fires.
fn detect_d2(lexed: &Lexed, parsed: &ParsedFile, regions: &[(u32, u32)]) -> Vec<SinkHit> {
    const BANNED: &[(&str, &str)] = &[
        ("Instant", "wall-clock time"),
        ("SystemTime", "wall-clock time"),
        ("UNIX_EPOCH", "wall-clock time"),
        ("thread_rng", "ambient randomness"),
        ("getrandom", "ambient randomness"),
        ("from_entropy", "ambient randomness"),
        ("available_parallelism", "environment-dependent parallelism"),
    ];
    let toks = &lexed.tokens;
    let mut hits = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test_region(regions, t.line) || parsed.in_use_span(i) {
            continue;
        }
        if let Some((_, what)) = BANNED.iter().find(|(name, _)| t.text == *name) {
            hits.push(SinkHit {
                line: t.line,
                tok: i,
                what: format!("{what} (`{}`)", t.text),
                message: format!(
                    "`{}` introduces {what} into simulation code; results must be a pure \
                     function of explicit seeds and inputs (timing belongs in crates/bench \
                     or the suite harness)",
                    t.text
                ),
            });
        }
        // `rand` as a path segment (`rand::thread_rng`).
        if t.text == "rand"
            && toks.get(i + 1).is_some_and(|n| is_punct(n, ":"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, ":"))
        {
            hits.push(SinkHit {
                line: t.line,
                tok: i,
                what: "ambient randomness (`rand::`)".to_string(),
                message: "the `rand` crate is banned in simulation code; use the repo's seeded \
                          splitmix64/xorshift streams"
                    .to_string(),
            });
        }
        // `env :: var/vars/var_os/args` — environment reads.
        if t.text == "env"
            && toks.get(i + 1).is_some_and(|n| is_punct(n, ":"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, ":"))
            && toks.get(i + 3).is_some_and(|n| {
                matches!(
                    n.text.as_str(),
                    "var" | "vars" | "var_os" | "args" | "args_os"
                )
            })
        {
            hits.push(SinkHit {
                line: t.line,
                tok: i,
                what: "environment read (`env::`)".to_string(),
                message: "environment reads are banned in simulation code; thread configuration \
                          through explicit config structs"
                    .to_string(),
            });
        }
    }
    hits
}

/// C1 — non-atomic checkpoint writes. Flags the raw file-writing
/// surface (`File::create`, `OpenOptions`, `fs::write`, `.write_all(`)
/// in campaign persistence code: a process killed mid-write leaves a
/// torn journal unless the bytes went to a temp sibling first and were
/// renamed over the target in one step. The one sanctioned writer
/// (`CheckpointJournal::flush`) carries the justification annotations.
fn detect_c1(lexed: &Lexed, parsed: &ParsedFile, regions: &[(u32, u32)]) -> Vec<SinkHit> {
    let toks = &lexed.tokens;
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || in_test_region(regions, t.line) || parsed.in_use_span(i) {
            continue;
        }
        // `File :: create` / `File :: options` / any `OpenOptions` use.
        let file_ctor = t.text == "File"
            && toks.get(i + 1).is_some_and(|n| is_punct(n, ":"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, ":"))
            && toks
                .get(i + 3)
                .is_some_and(|n| matches!(n.text.as_str(), "create" | "create_new" | "options"));
        let open_options = t.text == "OpenOptions";
        // `fs :: write` path call.
        let fs_write = t.text == "fs"
            && toks.get(i + 1).is_some_and(|n| is_punct(n, ":"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, ":"))
            && toks.get(i + 3).is_some_and(|n| n.text == "write");
        // `. write_all (` method call.
        let write_all = t.text == "write_all"
            && i >= 1
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "("));
        if file_ctor || open_options || fs_write || write_all {
            hits.push(SinkHit {
                line: t.line,
                tok: i,
                what: format!("non-atomic file write (`{}`)", t.text),
                message: format!(
                    "`{}` writes checkpoint state non-atomically: a kill mid-write tears the \
                     journal — write to a `.tmp` sibling and `fs::rename` over the target \
                     (CheckpointJournal::flush), or justify with \
                     `// smartlint: allow(checkpoint-write, \"…\")`",
                    t.text
                ),
            });
        }
    }
    hits
}

// ---------------------------------------------------------------------
// Path-driven rule (unchanged by the graph)
// ---------------------------------------------------------------------

fn finding(rule: &str, path: &str, line: u32, lines: &[&str], message: String) -> Finding {
    let excerpt = lines
        .get(line.saturating_sub(1) as usize)
        .map_or("", |l| l.trim())
        .to_string();
    Finding {
        rule: rule.to_string(),
        file: path.to_string(),
        line,
        message,
        excerpt,
        trace: Vec::new(),
    }
}

/// N2 — `f32` anywhere in power/energy paths.
fn rule_n2(path: &str, lexed: &Lexed, lines: &[&str], findings: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        let is_f32_type = t.kind == TokenKind::Ident && t.text == "f32";
        let is_f32_literal = t.kind == TokenKind::Number && t.text.ends_with("f32");
        if is_f32_type || is_f32_literal {
            findings.push(finding(
                "N2",
                path,
                t.line,
                lines,
                "f32 in a power/energy path: all power and energy accounting is f64 so \
                 accumulated error stays below measurement noise"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Worker-pool rules (W1, F2)
// ---------------------------------------------------------------------

/// Shared-mutable-state access methods that must not appear inside a
/// worker closure outside the sanctioned merge points (W1).
const SHARED_MUT_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "store",
];

/// Identifiers bound *inside* a closure: its parameters and `let`
/// bindings. Everything else an accumulation targets is captured.
fn closure_locals(toks: &[Token], params: (usize, usize), body: (usize, usize)) -> Vec<String> {
    let mut locals = Vec::new();
    for t in toks.iter().take(params.1 + 1).skip(params.0) {
        if t.kind == TokenKind::Ident && t.text != "mut" && t.text != "ref" {
            locals.push(t.text.clone());
        }
    }
    let mut i = body.0;
    while i <= body.1.min(toks.len().saturating_sub(1)) {
        if is_ident(&toks[i], "let") {
            let mut j = i + 1;
            // `let`, `let mut`, simple tuple patterns.
            while j <= body.1 && j < toks.len() {
                let t = &toks[j];
                if t.kind == TokenKind::Ident && t.text != "mut" && t.text != "ref" {
                    locals.push(t.text.clone());
                } else if !(is_ident(t, "mut")
                    || is_ident(t, "ref")
                    || is_punct(t, "(")
                    || is_punct(t, ",")
                    || is_punct(t, ")"))
                {
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    locals.sort();
    locals.dedup();
    locals
}

/// Walks a postfix chain (`head.a().b().sum()`) backwards from the
/// token *before* the final `.` to the chain's head identifier.
/// Returns `None` when the chain head is not a plain identifier (e.g.
/// a call result or a parenthesized expression).
fn chain_head(toks: &[Token], mut pos: usize) -> Option<String> {
    loop {
        if is_punct(&toks[pos], ")") {
            // Balance back to the matching `(`.
            let mut depth = 0i64;
            loop {
                if is_punct(&toks[pos], ")") {
                    depth += 1;
                } else if is_punct(&toks[pos], "(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if pos == 0 {
                    return None;
                }
                pos -= 1;
            }
            // `name(...)`: a method link continues the chain; a bare
            // call is a fresh value, not a capture.
            if pos >= 1 && toks[pos - 1].kind == TokenKind::Ident {
                if pos >= 2 && is_punct(&toks[pos - 2], ".") {
                    if pos < 3 {
                        return None;
                    }
                    pos -= 3;
                    continue;
                }
                return None;
            }
            return None;
        }
        if toks[pos].kind == TokenKind::Ident {
            if pos >= 1 && is_punct(&toks[pos - 1], ".") {
                if pos < 2 {
                    return None;
                }
                pos -= 2;
                continue;
            }
            return Some(toks[pos].text.clone());
        }
        if is_punct(&toks[pos], "]") {
            // Index expression `name[i]`: balance back over brackets.
            let mut depth = 0i64;
            loop {
                if is_punct(&toks[pos], "]") {
                    depth += 1;
                } else if is_punct(&toks[pos], "[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if pos == 0 {
                    return None;
                }
                pos -= 1;
            }
            if pos == 0 {
                return None;
            }
            pos -= 1;
            continue;
        }
        return None;
    }
}

/// W1 + F2 over one worker-closure body.
fn scan_worker_closure(
    path: &str,
    toks: &[Token],
    lines: &[&str],
    params: (usize, usize),
    body: (usize, usize),
    pool_label: &str,
    findings: &mut Vec<Finding>,
) {
    let locals = closure_locals(toks, params, body);
    let end = body.1.min(toks.len().saturating_sub(1));
    let mut i = body.0;
    while i <= end {
        let t = &toks[i];
        // W1: shared-mutable-state access methods.
        if t.kind == TokenKind::Ident
            && SHARED_MUT_METHODS.contains(&t.text.as_str())
            && i >= 1
            && is_punct(&toks[i - 1], ".")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "("))
        {
            findings.push(finding(
                "W1",
                path,
                t.line,
                lines,
                format!(
                    "`.{}(…)` inside a closure running on the `{pool_label}` worker pool: \
                     shared mutable state observed from workers makes results depend on \
                     completion order — return per-index values and merge at the pool's \
                     deterministic merge point, or justify with \
                     `// smartlint: allow(worker-capture, \"…\")`",
                    t.text
                ),
            ));
        }
        // F2: compound assignment (`x += …`) to a captured identifier.
        if t.kind == TokenKind::Ident
            && toks
                .get(i + 1)
                .is_some_and(|n| is_punct(n, "+") || is_punct(n, "-") || is_punct(n, "*"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, "="))
            && !toks.get(i + 3).is_some_and(|n| is_punct(n, "="))
        {
            let target_is_chain = i >= 1 && is_punct(&toks[i - 1], ".");
            let head = if target_is_chain {
                chain_head(toks, i)
            } else {
                Some(t.text.clone())
            };
            if let Some(head) = head {
                if !locals.contains(&head) {
                    findings.push(finding(
                        "F2",
                        path,
                        t.line,
                        lines,
                        format!(
                            "order-sensitive accumulation into captured `{head}` inside a \
                             closure on the `{pool_label}` worker pool: float folds are not \
                             associative, so completion order changes the result — accumulate \
                             into closure-local state and merge in index order, or justify \
                             with `// smartlint: allow(float-fold, \"…\")`",
                        ),
                    ));
                }
            }
        }
        // F2: `.sum(` / `.fold(` whose receiver chain heads at a
        // captured identifier.
        if t.kind == TokenKind::Ident
            && (t.text == "sum" || t.text == "fold")
            && i >= 2
            && is_punct(&toks[i - 1], ".")
            && toks
                .get(i + 1)
                .is_some_and(|n| is_punct(n, "(") || is_punct(n, ":"))
        {
            if let Some(head) = chain_head(toks, i - 2) {
                if !locals.contains(&head) && head != "self" {
                    findings.push(finding(
                        "F2",
                        path,
                        t.line,
                        lines,
                        format!(
                            "`.{}()` over captured `{head}` inside a closure on the \
                             `{pool_label}` worker pool: order-sensitive folds over shared \
                             data belong outside the pool (or in the sanctioned per-slice \
                             folds) — or justify with `// smartlint: allow(float-fold, \"…\")`",
                            t.text
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// The analysis pipeline
// ---------------------------------------------------------------------

/// Analyzes one file's source as if it lived at workspace-relative
/// `path` (scoping is path-driven for N2, and assume-all for
/// the graph rules when the file defines no simulation root — which is
/// what lets the fixture tests exercise every rule without touching
/// the real tree).
pub fn analyze_source(path: &str, source: &str) -> Vec<Finding> {
    let files = vec![SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    }];
    analyze_set(&files, &BTreeMap::new()).0
}

/// Analyzes a set of files as one workspace: builds the call graph,
/// derives rule scope from root reachability, and runs every rule.
/// Returns the findings (file order, then line order) and the derived
/// scope.
pub(crate) fn analyze_set(
    files: &[SourceFile],
    crate_names: &BTreeMap<String, String>,
) -> (Vec<Finding>, DerivedScope) {
    struct Prep<'a> {
        lexed: Lexed,
        lines: Vec<&'a str>,
        regions: Vec<(u32, u32)>,
        annotations: Vec<Annotation>,
        raw: Vec<Finding>,
    }

    let mut preps: Vec<Prep<'_>> = Vec::with_capacity(files.len());
    let mut models: Vec<FileModel> = Vec::with_capacity(files.len());
    for f in files {
        let lexed = lex(&f.source);
        let lines: Vec<&str> = f.source.lines().collect();
        let mut raw = Vec::new();
        let annotations = collect_annotations(&lexed.comments, &f.path, &lines, &mut raw);
        let regions = test_regions(&lexed.tokens);
        models.push(FileModel::new(&f.path, parse_file(&lexed.tokens, &regions)));
        preps.push(Prep {
            lexed,
            lines,
            regions,
            annotations,
            raw,
        });
    }

    let graph = Graph::build(models, crate_names);
    let reach = graph.reach_from_roots();
    let scope = graph.derived_scope(&reach);
    let spawnful = graph.spawnful();

    for (i, f) in files.iter().enumerate() {
        let path = f.path.as_str();
        let parsed = &graph.files[i].parsed;
        let prep = &mut preps[i];
        let exempt = EXEMPT_D_UNITS.iter().any(|u| path.starts_with(u));

        let d1_hits = detect_d1(&prep.lexed);
        let d2_hits = detect_d2(&prep.lexed, parsed, &prep.regions);
        let c1_hits = detect_c1(&prep.lexed, parsed, &prep.regions);

        if scope.d1_applies(path) {
            for h in &d1_hits {
                prep.raw
                    .push(finding("D1", path, h.line, &prep.lines, h.message.clone()));
            }
        }
        if scope.d2_applies(path) {
            for h in &d2_hits {
                prep.raw
                    .push(finding("D2", path, h.line, &prep.lines, h.message.clone()));
            }
        }
        if n2_applies(path) {
            rule_n2(path, &prep.lexed, &prep.lines, &mut prep.raw);
        }
        if scope.c1_applies(path) {
            for h in &c1_hits {
                prep.raw
                    .push(finding("C1", path, h.line, &prep.lines, h.message.clone()));
            }
        }

        // T1 — taint: every sink inside a root-reachable fn gets a
        // path finding. Binary roots and the exempt timing harness are
        // out of scope exactly as for D2; suppressing the sink with
        // its native key suppresses the paired taint finding too.
        if !is_binary_root(path) && !exempt {
            let mut sinks: Vec<(&SinkHit, Option<&str>)> = Vec::new();
            for h in &d1_hits {
                sinks.push((h, Some("unordered-iter")));
            }
            for h in &d2_hits {
                sinks.push((h, Some("nondeterminism")));
            }
            let spawn_hits: Vec<SinkHit> = parsed
                .calls
                .iter()
                .filter(|c| is_thread_spawn(parsed, c))
                .map(|c| SinkHit {
                    line: c.line,
                    tok: c.tok,
                    what: "thread spawn (`spawn`)".to_string(),
                    message: String::new(),
                })
                .collect();
            for h in &spawn_hits {
                sinks.push((h, None));
            }
            let c1_in_scope = scope.c1_applies(path);
            if c1_in_scope {
                for h in &c1_hits {
                    sinks.push((h, Some("checkpoint-write")));
                }
            }
            for (h, native) in sinks {
                let Some(ni) = parsed.enclosing_fn(h.tok) else {
                    continue;
                };
                let Some(node) = graph.node_id(i, ni) else {
                    continue;
                };
                if !reach.reachable[node] {
                    continue;
                }
                if native.is_some_and(|k| suppressed(&prep.annotations, k, h.line)) {
                    continue;
                }
                let trace = graph.trace_to(&reach, node);
                let root = trace.first().cloned().unwrap_or_default();
                let mut tf = finding(
                    "T1",
                    path,
                    h.line,
                    &prep.lines,
                    format!(
                        "{what} is reachable from simulation root `{root}` ({hops} call{s} \
                         away): every function on this path feeds deterministic results — \
                         break the path or justify the sink with \
                         `// smartlint: allow(taint-path, \"…\")`",
                        what = h.what,
                        hops = trace.len().saturating_sub(1),
                        s = if trace.len() == 2 { "" } else { "s" },
                    ),
                );
                tf.trace = trace;
                prep.raw.push(tf);
            }
        }
    }

    // W1/F2 — closures handed to spawn-reaching callees.
    for (fi, prep) in preps.iter_mut().enumerate() {
        let path = graph.files[fi].path.clone();
        if is_binary_root(&path) || EXEMPT_D_UNITS.iter().any(|u| path.starts_with(u)) {
            continue;
        }
        let thread_spawn_toks: BTreeSet<usize> = graph.files[fi]
            .parsed
            .calls
            .iter()
            .filter(|c| is_thread_spawn(&graph.files[fi].parsed, c))
            .map(|c| c.tok)
            .collect();
        let closure_count = graph.files[fi].parsed.closures.len();
        for ci in 0..closure_count {
            let (callee, caller, call_tok, params, body) = {
                let c = &graph.files[fi].parsed.closures[ci];
                (c.callee.clone(), c.caller, c.call_tok, c.params, c.body)
            };
            let spawn_reaching = thread_spawn_toks.contains(&call_tok)
                || graph
                    .resolve(fi, caller, &callee)
                    .iter()
                    .any(|&n| spawnful[n]);
            if !spawn_reaching {
                continue;
            }
            let label = match &callee {
                Callee::Method(m) => format!(".{m}"),
                other => other.name().to_string(),
            };
            scan_worker_closure(
                &path,
                &prep.lexed.tokens,
                &prep.lines,
                params,
                body,
                &label,
                &mut prep.raw,
            );
        }
    }

    // Apply suppressions, dedupe to one finding per (rule, line), and
    // order by position for stable output — per file, in input order.
    let mut out = Vec::new();
    for prep in preps {
        let annotations = prep.annotations;
        let mut kept: Vec<Finding> = Vec::new();
        for f in prep.raw {
            let key = rule_info(&f.rule).map_or("", |r| r.key);
            if f.rule != "A0" && suppressed(&annotations, key, f.line) {
                continue;
            }
            if kept.iter().any(|k| k.rule == f.rule && k.line == f.line) {
                continue;
            }
            kept.push(f);
        }
        kept.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
        out.extend(kept);
    }
    (out, scope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar_round_trips() {
        assert_eq!(
            parse_allow("allow(float-width, \"exact by construction\")"),
            Some("float-width".to_string())
        );
        assert_eq!(
            parse_allow("allow(float-width)"),
            None,
            "reason is mandatory"
        );
        assert_eq!(
            parse_allow("allow(float-width, \"\")"),
            None,
            "reason non-empty"
        );
        assert_eq!(parse_allow("deny(float-width, \"x\")"), None);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// smartlint: allow(float-width, \"fine\")\npub fn f(x: f32) -> f32 { x }\npub fn g(x: f32) -> f32 { x }\n";
        let f = analyze_source("crates/mcpat/src/demo.rs", src);
        assert_eq!(f.len(), 1, "only the un-annotated f32 fires: {f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn test_regions_are_exempt_from_d2() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(analyze_source("crates/kernelsim/src/demo.rs", src).is_empty());
    }

    #[test]
    fn scoping_is_path_driven() {
        let narrow = "pub fn f(x: f32) -> f32 { x }\n";
        assert!(!analyze_source("crates/core/src/objective.rs", narrow).is_empty());
        assert!(analyze_source("crates/core/src/predict.rs", narrow).is_empty());
        assert!(analyze_source("crates/bench/src/harness.rs", narrow).is_empty());
    }

    #[test]
    fn binary_roots_are_exempt_from_determinism_rules() {
        let src = "pub fn stamp() { let _ = std::time::Instant::now(); }\n";
        assert!(analyze_source("crates/smartlint/src/main.rs", src).is_empty());
        assert!(analyze_source("crates/bench/src/bin/run.rs", src).is_empty());
        assert!(!analyze_source("crates/kernelsim/src/system.rs", src).is_empty());
    }

    #[test]
    fn use_statements_are_not_sinks() {
        // Importing `Instant` is harmless; *reading* the clock fires.
        let src = "use std::time::Instant;\npub fn stamp() -> Instant { Instant::now() }\n";
        let f = analyze_source("crates/kernelsim/src/system.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|x| x.rule == "D2")
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![2], "only the usage line fires: {f:?}");
    }

    #[test]
    fn c1_flags_every_raw_write_surface() {
        let src = "use std::io::Write;\npub fn a(p: &std::path::Path) { let _ = std::fs::File::create(p); }\npub fn b(p: &std::path::Path) { let _ = std::fs::OpenOptions::new().append(true).open(p); }\npub fn c(p: &std::path::Path) { let _ = std::fs::write(p, b\"x\"); }\npub fn d(mut f: std::fs::File) { let _ = f.write_all(b\"x\"); }\n";
        let got: Vec<(String, u32)> = analyze_source("crates/campaign/src/journal.rs", src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(
            got,
            vec![
                ("C1".to_string(), 2),
                ("C1".to_string(), 3),
                ("C1".to_string(), 4),
                ("C1".to_string(), 5),
            ],
            "File::create, OpenOptions, fs::write and write_all must each fire"
        );
    }

    #[test]
    fn c1_spares_renames_reads_and_annotated_sites() {
        let src = "use std::fs;\npub fn swap(a: &std::path::Path, b: &std::path::Path) -> std::io::Result<()> {\n    let _ = fs::read_to_string(a);\n    fs::rename(a, b)\n}\n// smartlint: allow(checkpoint-write, \"writes the .tmp sibling, then renames over the journal\")\npub fn tmp(p: &std::path::Path) { let _ = fs::write(p, b\"x\"); }\n";
        assert!(
            analyze_source("crates/campaign/src/journal.rs", src).is_empty(),
            "rename/read and the annotated tmp-writer are the sanctioned surface"
        );
    }

    #[test]
    fn taint_paths_carry_the_call_chain() {
        let src = "impl System {\n    pub fn run_epoch(&mut self) { sense(); }\n}\nfn sense() { stamp(); }\nfn stamp() { let _ = std::time::Instant::now(); }\n";
        let f = analyze_source("crates/kernelsim/src/system.rs", src);
        let t1: Vec<&Finding> = f.iter().filter(|x| x.rule == "T1").collect();
        assert_eq!(t1.len(), 1, "one taint path: {f:?}");
        assert_eq!(t1[0].line, 5);
        assert_eq!(
            t1[0].trace.len(),
            3,
            "root -> sense -> stamp: {:?}",
            t1[0].trace
        );
        assert!(t1[0].trace[0].contains("System::run_epoch"));
        assert!(
            f.iter().any(|x| x.rule == "D2" && x.line == 5),
            "base D2 fires too"
        );
    }

    #[test]
    fn native_key_suppression_covers_the_taint_finding() {
        let src = "impl System {\n    pub fn run_epoch(&mut self) {\n        // smartlint: allow(nondeterminism, \"test fixture\")\n        let _ = std::time::Instant::now();\n    }\n}\n";
        let f = analyze_source("crates/kernelsim/src/system.rs", src);
        assert!(f.is_empty(), "one annotation silences D2 and T1: {f:?}");
    }

    #[test]
    fn spawn_outside_sanctioned_pools_is_a_taint_sink() {
        let src = "impl Campaign {\n    pub fn run(&mut self) {\n        std::thread::spawn(|| {});\n    }\n}\n";
        let f = analyze_source("crates/campaign/src/runner.rs", src);
        assert!(
            f.iter().any(|x| x.rule == "T1" && x.line == 3),
            "unsanctioned spawn must taint: {f:?}"
        );
    }
}
