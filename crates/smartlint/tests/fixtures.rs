//! Per-rule fixture tests: every rule has one deliberately-bad fixture
//! that must produce exactly the expected findings, and one clean
//! fixture that must produce none.
//!
//! The retired smartlint rules P1 (panic hygiene), N1 (bare numeric
//! casts) and H1 (crate-root headers) keep their fixtures, now compiled
//! by `clippy-driver` / `rustc` with the lint levels the workspace sets
//! for them. A missing driver fails these tests; it never skips them.

use std::path::Path;
use std::process::Command;

use serde::Value;
use smartlint::rules::analyze_source;

/// The library roots' panic-hygiene lints (P1), as denied by
/// `#![cfg_attr(not(test), deny(…))]` in every library crate root.
const P1_LINTS: &str =
    "clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable";

/// The accounting modules' cast lint (N1).
const N1_LINT: &str = "clippy::as_conversions";

/// Library crate roots that deny [`P1_LINTS`] (bins, tests, examples and
/// `crates/bench` are separate crates and stay exempt).
const LIB_ROOTS: &[&str] = &[
    "crates/archsim/src/lib.rs",
    "crates/kernelsim/src/lib.rs",
    "crates/mcpat/src/lib.rs",
    "crates/workloads/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/smartlint/src/lib.rs",
    "crates/telemetry/src/lib.rs",
    "crates/campaign/src/lib.rs",
    "crates/obsd/src/lib.rs",
];

/// Counter/energy accounting modules that deny [`N1_LINT`].
const NUMERIC_FILES: &[&str] = &[
    "crates/archsim/src/counters.rs",
    "crates/archsim/src/execution.rs",
    "crates/mcpat/src/lib.rs",
    "crates/core/src/estimate.rs",
];

fn fixture_path(name: &str) -> String {
    format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn workspace_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Compiles a fixture as a library crate with `driver` (`rustc` or
/// `clippy-driver`, taken from the toolchain of the `cargo` that built
/// this test) under `-D warnings` plus the space-separated lint `levels`.
/// Returns the `(lint, line)` of every error, sorted.
fn compile_errors(driver: &str, name: &str, levels: &str) -> Vec<(String, u32)> {
    let bin = Path::new(env!("CARGO")).with_file_name(driver);
    assert!(
        bin.is_file(),
        "{} not found: the P1/N1/H1 fixtures need the toolchain's {driver}",
        bin.display()
    );
    let out = Command::new(&bin)
        .args("--edition 2021 --crate-type lib --emit metadata --error-format json".split(' '))
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR"), "-D", "warnings"])
        .args(levels.split_whitespace())
        .arg(fixture_path(name))
        .output()
        .unwrap_or_else(|e| panic!("run {}: {e}", bin.display()));
    let mut errors = Vec::new();
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        let diag: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("{driver} emitted a non-JSON line {line:?}: {e}"));
        // The closing "aborting due to N previous errors" has no code.
        let Value::Str(lint) = diag.map_get("code").map_get("code") else {
            continue;
        };
        let Value::Array(spans) = diag.map_get("spans") else {
            panic!("diagnostic without spans: {line}");
        };
        for span in spans {
            if span.map_get("is_primary") == &Value::Bool(true) {
                let &Value::UInt(line_no) = span.map_get("line_start") else {
                    panic!("line_start is not a line number: {line}");
                };
                errors.push((lint.clone(), u32::try_from(line_no).unwrap_or(u32::MAX)));
            }
        }
    }
    errors.sort();
    assert_eq!(
        out.status.success(),
        errors.is_empty(),
        "{driver} exit status disagrees with its diagnostics on {name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    errors
}

/// `clippy-driver` with each lint of the comma-separated `lints` denied.
fn clippy_errors(name: &str, lints: &str) -> Vec<(String, u32)> {
    let levels: String = lints.split(", ").map(|l| format!("-D {l} ")).collect();
    compile_errors("clippy-driver", name, &levels)
}

/// `rustc` with the workspace's `missing_docs = "deny"` and
/// `unsafe_code = "forbid"`.
fn rustc_header_errors(name: &str) -> Vec<(String, u32)> {
    compile_errors("rustc", name, "-D missing_docs -F unsafe_code")
}

fn errs(expected: &[(&str, u32)]) -> Vec<(String, u32)> {
    expected.iter().map(|&(l, n)| (l.to_string(), n)).collect()
}

/// Run a fixture under a virtual workspace path and return `(rule, line)`
/// pairs in source order.
fn findings(name: &str, virtual_path: &str) -> Vec<(String, u32)> {
    analyze_source(virtual_path, &fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn d1_bad_flags_every_escape_of_hash_order() {
    let got = findings("d1_bad.rs", "crates/core/src/sense.rs");
    assert_eq!(
        got,
        vec![("D1".to_string(), 9), ("D1".to_string(), 12)],
        "iter() in a for-loop and keys() must both be flagged"
    );
}

#[test]
fn d1_good_is_clean() {
    assert!(findings("d1_good.rs", "crates/core/src/sense.rs").is_empty());
}

#[test]
fn d2_bad_flags_wall_clock_and_env() {
    let got = findings("d2_bad.rs", "crates/kernelsim/src/system.rs");
    let rules: Vec<&str> = got.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, vec!["D2", "D2"], "findings: {got:?}");
    assert_eq!(got[0].1, 4, "Instant::now");
    assert_eq!(got[1].1, 5, "env::var");
}

#[test]
fn d2_good_is_clean() {
    assert!(findings("d2_good.rs", "crates/kernelsim/src/system.rs").is_empty());
}

#[test]
fn n1_bad_flags_bare_numeric_casts() {
    assert_eq!(
        clippy_errors("n1_bad.rs", N1_LINT),
        errs(&[(N1_LINT, 5), (N1_LINT, 9), (N1_LINT, 9)]),
        "the float->int cast and both int->float casts must be rejected"
    );
}

#[test]
fn n1_good_is_clean() {
    assert!(clippy_errors("n1_good.rs", N1_LINT).is_empty());
}

#[test]
fn n2_bad_flags_f32_in_power_paths() {
    let got = findings("n2_bad.rs", "crates/mcpat/src/model.rs");
    let lines: Vec<u32> = got
        .iter()
        .inspect(|(r, _)| assert_eq!(r, "N2"))
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(lines, vec![5, 8], "struct field and fn signature lines");
}

#[test]
fn n2_good_is_clean() {
    assert!(findings("n2_good.rs", "crates/mcpat/src/model.rs").is_empty());
}

#[test]
fn p1_bad_flags_unwrap_expect_and_panic() {
    assert_eq!(
        clippy_errors("p1_bad.rs", P1_LINTS),
        errs(&[
            ("clippy::expect_used", 8),
            ("clippy::panic", 14),
            ("clippy::unwrap_used", 4),
        ])
    );
}

#[test]
fn p1_good_is_clean() {
    assert!(clippy_errors("p1_good.rs", P1_LINTS).is_empty());
}

#[test]
fn h1_bad_flags_missing_headers() {
    assert_eq!(
        rustc_header_errors("h1_bad.rs"),
        errs(&[("missing_docs", 4), ("unsafe_code", 8)])
    );
}

#[test]
fn h1_good_is_clean() {
    assert!(rustc_header_errors("h1_good.rs").is_empty());
}

#[test]
fn lint_levels_keep_the_retired_rule_scopes() {
    let manifest = workspace_file("Cargo.toml");
    for level in ["unsafe_code = \"forbid\"", "missing_docs = \"deny\""] {
        assert!(manifest.contains(level), "workspace lints lost `{level}`");
    }
    // rustfmt wraps long attributes, so compare with whitespace removed.
    let carries = |file: &str, lints: &str| {
        let attr = format!("#![cfg_attr(not(test),deny({lints}))]").replace(' ', "");
        let text: String = workspace_file(file).split_whitespace().collect();
        assert!(text.contains(&attr), "{file} lost `{attr}`");
    };
    for root in LIB_ROOTS {
        carries(root, P1_LINTS);
    }
    for file in NUMERIC_FILES {
        carries(file, N1_LINT);
    }
}

#[test]
fn c1_bad_flags_every_raw_checkpoint_write() {
    let got = findings("c1_bad.rs", "crates/campaign/src/journal.rs");
    assert_eq!(
        got,
        vec![
            ("C1".to_string(), 6),
            ("C1".to_string(), 10),
            ("C1".to_string(), 14),
            ("C1".to_string(), 18),
        ],
        "File::create, OpenOptions, fs::write and write_all must each be flagged"
    );
}

#[test]
fn c1_good_is_clean() {
    assert!(findings("c1_good.rs", "crates/campaign/src/journal.rs").is_empty());
}

#[test]
fn a0_bad_flags_malformed_annotations() {
    let got = findings("a0_bad.rs", "crates/mcpat/src/model.rs");
    assert_eq!(
        got,
        vec![("A0".to_string(), 5), ("A0".to_string(), 10)],
        "missing reason and unknown key must each be an A0 finding"
    );
}

#[test]
fn annotations_suppress_only_their_own_line_and_rule() {
    // The annotation sits on line 2 and covers the clock read on line
    // 3; the read on line 4 stays flagged, and so does the f32 on line
    // 3, which the `nondeterminism` key does not cover.
    let src = "pub fn f() -> f32 {\n    // smartlint: allow(nondeterminism, \"display-only timestamp\")\n    let a: f32 = std::time::Instant::now().elapsed().as_secs_f32();\n    let _ = std::time::Instant::now();\n    a\n}\n";
    let got: Vec<(String, u32)> = analyze_source("crates/kernelsim/src/stats.rs", src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("N2".to_string(), 1),
            ("N2".to_string(), 3),
            ("D2".to_string(), 4),
        ]
    );
}

#[test]
fn w1_bad_flags_shared_state_in_worker_closures() {
    let got = findings("w1_bad.rs", "crates/core/src/pool.rs");
    assert_eq!(
        got,
        vec![("W1".to_string(), 10), ("W1".to_string(), 12)],
        "the atomic counter and the lock inside the spawned closure must both be flagged"
    );
}

#[test]
fn w1_good_is_clean() {
    assert!(
        findings("w1_good.rs", "crates/core/src/pool.rs").is_empty(),
        "annotated merge points are the sanctioned surface"
    );
}

#[test]
fn f2_bad_flags_captured_accumulation_in_worker_closures() {
    let got = findings("f2_bad.rs", "crates/core/src/pool.rs");
    assert_eq!(
        got,
        vec![("F2".to_string(), 9), ("F2".to_string(), 19)],
        "compound assignment to a captured f64 and a fold over captured data must both be flagged"
    );
}

#[test]
fn f2_good_is_clean() {
    assert!(
        findings("f2_good.rs", "crates/core/src/pool.rs").is_empty(),
        "closure-local accumulators are fine"
    );
}

#[test]
fn t1_bad_reports_the_root_to_sink_call_path() {
    let all = analyze_source("crates/kernelsim/src/system.rs", &fixture("t1_bad.rs"));
    let got: Vec<(String, u32)> = all.iter().map(|f| (f.rule.clone(), f.line)).collect();
    assert_eq!(
        got,
        vec![("D2".to_string(), 17), ("T1".to_string(), 17)],
        "the sink line carries both the base rule and the taint path"
    );
    let t1 = &all[1];
    assert_eq!(
        t1.trace.len(),
        3,
        "run_epoch -> sense -> stamp: {:?}",
        t1.trace
    );
    assert!(t1.trace[0].contains("System::run_epoch"), "{:?}", t1.trace);
    assert!(t1.trace[1].contains("sense"), "{:?}", t1.trace);
    assert!(t1.trace[2].contains("stamp"), "{:?}", t1.trace);
}

#[test]
fn t1_good_is_clean() {
    assert!(
        findings("t1_good.rs", "crates/kernelsim/src/system.rs").is_empty(),
        "the simulated clock is a pure function of explicit state"
    );
}
