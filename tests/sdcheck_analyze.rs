//! `sdcheck analyze` end to end: the exact answer, then the §6.5
//! Floyd-cover proof with a legal and with an illegal cover.

use std::path::PathBuf;
use std::process::Command;

/// The §6.5 flowchart program: `beta := alpha` runs only when `q > 10`.
const SEC_6_5: &str = "\
var alpha: int 0..1;
var beta: int 0..1;
var q: int 0..15;
var t: bool;
if q > 10 { t := true; } else { t := false; }
if t { beta := alpha; }
";

/// Writes the program to a file of its own in the temp directory.
fn program_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sdcheck-{}-{name}.sd", std::process::id()));
    std::fs::write(&path, SEC_6_5).expect("write temp program");
    path
}

/// Runs `sdcheck analyze` with `--from alpha --to beta --entry "q < 10"`
/// and one `--assert`; returns the exit code and stdout.
fn analyze(name: &str, assert: &str) -> (i32, String) {
    let path = program_file(name);
    let out = Command::new(env!("CARGO_BIN_EXE_sdcheck"))
        .arg("analyze")
        .arg(&path)
        .args(["--from", "alpha", "--to", "beta", "--entry", "q < 10"])
        .args(["--assert", assert])
        .output()
        .expect("run sdcheck");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn legal_cover_prints_the_theorem_6_7_certificate() {
    // ¬t holds at statement 2 whenever q < 10 on entry.
    let (code, out) = analyze("legal", "2=!t");
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("NO FLOW"), "{out}");
    assert!(out.contains("Floyd-cover proof (Theorem 6-7)"), "{out}");
    assert!(!out.contains("inapplicable"), "{out}");
}

#[test]
fn illegal_cover_is_reported_through_the_proof() {
    // t never holds at statement 2 under q < 10, so the cover is not
    // inductive; the exact answer is still "no flow".
    let (code, out) = analyze("illegal", "2=t");
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("NO FLOW"), "{out}");
    assert!(
        out.contains(
            "note: Floyd-cover proof inapplicable: {φi} is not an inductive cover for φ (Def 6-2)"
        ),
        "{out}"
    );
    assert!(!out.contains("Theorem 6-7"), "{out}");
}
