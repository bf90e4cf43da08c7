//! Golden pin for the three paired studies, Table 3 and the robustness
//! study: each binary's `--quick` report must stay byte-identical to the
//! committed artifact under `tests/golden/`.
//!
//! The goldens fix the pairing, flip counting, verdict rules, scoring,
//! seed derivation and row formatting at once; regenerate one only when a
//! study's output is meant to change:
//!
//! ```text
//! CAP_FIDELITY_OUT=crates/exp/tests/golden/cap_fidelity.quick.json \
//!     cargo run -p vg-exp --bin cap_fidelity -- --quick
//! ```
//!
//! `table2 --quick` runs 4,080 simulations, too slow for a debug test; CI
//! diffs its release-build report against `tests/golden/table2.quick.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin --quick` with its report redirected into a scratch file and
/// compares the report with `tests/golden/<name>.quick.json`.
fn check(name: &str, bin: &str, out_var: &str) {
    check_with(name, bin, out_var, &[]);
}

/// [`check`], passing `extra` flags after `--quick`: they must not change
/// the report.
fn check_with(name: &str, bin: &str, out_var: &str, extra: &[&str]) {
    let scratch = format!("{name}{}.quick.json", extra.concat());
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(scratch);
    let _ = std::fs::remove_file(&out);
    let run = Command::new(bin)
        .arg("--quick")
        .args(extra)
        .env(out_var, &out)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot spawn {bin}: {e}"));
    assert!(
        run.status.success(),
        "{name} exited with {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let got = std::fs::read_to_string(&out).expect("study wrote its report");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.quick.json"));
    let want = std::fs::read_to_string(&golden).expect("golden file present");
    assert!(
        got == want,
        "{name}: report differs from {}\n--- got ---\n{got}",
        golden.display()
    );
}

#[test]
fn cap_fidelity_quick_matches_golden() {
    check(
        "cap_fidelity",
        env!("CARGO_BIN_EXE_cap_fidelity"),
        "CAP_FIDELITY_OUT",
    );
}

#[test]
fn chaos_robustness_quick_matches_golden() {
    check(
        "chaos_robustness",
        env!("CARGO_BIN_EXE_chaos_robustness"),
        "CHAOS_ROBUSTNESS_OUT",
    );
}

#[test]
fn mold_cosched_quick_matches_golden() {
    check(
        "mold_cosched",
        env!("CARGO_BIN_EXE_mold_cosched"),
        "MOLD_COSCHED_OUT",
    );
}

#[test]
fn table3_quick_matches_golden() {
    check("table3", env!("CARGO_BIN_EXE_table3"), "TABLE3_OUT");
}

#[test]
fn robustness_quick_matches_golden() {
    check(
        "robustness",
        env!("CARGO_BIN_EXE_robustness"),
        "ROBUSTNESS_OUT",
    );
}

#[test]
fn robustness_quick_on_two_threads_matches_golden() {
    check_with(
        "robustness",
        env!("CARGO_BIN_EXE_robustness"),
        "ROBUSTNESS_OUT",
        &["--threads", "2"],
    );
}
