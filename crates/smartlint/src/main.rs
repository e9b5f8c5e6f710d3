//! smartlint CLI: scan the workspace, print findings, emit JSON/SARIF
//! and gate CI.
//!
//! ```text
//! smartlint [--root DIR] [--deny] [--json FILE]
//!           [--format text|json|sarif] [--out FILE] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean (or warn-only), `1` any finding under
//! `--deny`, `2` usage or I/O error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use smartlint::output::{render_json, render_sarif, Report};
use smartlint::{analyze_workspace, Analysis, RULES};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: Option<PathBuf>,
    deny: bool,
    json: Option<PathBuf>,
    format: Format,
    out: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        deny: false,
        json: None,
        format: Format::Text,
        out: None,
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory")?,
                ))
            }
            "--json" => opts.json = Some(PathBuf::from(it.next().ok_or("--json requires a file")?)),
            "--format" => {
                opts.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format requires text, json or sarif (got {other:?})"
                        ))
                    }
                }
            }
            "--out" => opts.out = Some(PathBuf::from(it.next().ok_or("--out requires a file")?)),
            "--deny" => opts.deny = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: smartlint [--root DIR] [--deny] [--json FILE] \
                     [--format text|json|sarif] [--out FILE] [--list-rules]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if opts.list_rules {
        for r in RULES {
            println!("{:3}  allow({:14})  {}", r.id, r.key, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match &opts.root {
        Some(r) => r.clone(),
        None => find_root()?,
    };
    let analysis = analyze_workspace(&root)?;
    let report = Report::from_analysis(&analysis);

    let rendered = match opts.format {
        Format::Text => None,
        Format::Json => Some(render_json(&report)),
        Format::Sarif => Some(render_sarif(&report)),
    };
    match (&rendered, &opts.out) {
        (Some(text), Some(path)) => {
            fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
            print_findings(&analysis);
        }
        (Some(text), None) => print!("{text}"),
        (None, _) => print_findings(&analysis),
    }

    // `--json FILE` predates `--format`; it always writes the JSON
    // report to FILE regardless of the display format.
    if let Some(json_path) = &opts.json {
        fs::write(json_path, render_json(&report))
            .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    }

    if opts.deny && !analysis.findings.is_empty() {
        eprintln!(
            "smartlint: {} finding(s) — failing (--deny)",
            analysis.findings.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn print_findings(analysis: &Analysis) {
    for f in &analysis.findings {
        println!("{}: {}:{}\n    {}", f.rule, f.file, f.line, f.message);
        if !f.excerpt.is_empty() {
            println!("    | {}", f.excerpt);
        }
        if !f.trace.is_empty() {
            println!("    call path:");
            for step in &f.trace {
                println!("      -> {step}");
            }
        }
    }
    println!(
        "smartlint: {} file(s), {} root(s), {} finding(s)",
        analysis.files_scanned,
        analysis.scope.roots.len(),
        analysis.findings.len()
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("smartlint: {msg}");
            ExitCode::from(2)
        }
    }
}
