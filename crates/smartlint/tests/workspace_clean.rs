//! The self-clean gate: running smartlint over the live workspace must
//! produce zero findings. This is the same check CI runs via
//! `cargo run -p smartlint -- --deny`.

use smartlint::analyze_workspace;
use std::path::Path;

#[test]
fn workspace_has_no_unbaselined_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = analyze_workspace(&root).expect("workspace walk succeeds");

    assert!(
        analysis.files_scanned > 20,
        "walker found only {} files — scope bug?",
        analysis.files_scanned
    );
    let findings: Vec<String> = analysis
        .findings
        .iter()
        .map(|f| format!("{} {}:{} {}", f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "workspace is not smartlint-clean:\n{}",
        findings.join("\n")
    );
}
