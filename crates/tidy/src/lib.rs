//! `vg-tidy` — a workspace source-level static-analysis pass, in the
//! tradition of rustc's `tidy` tool.
//!
//! Every result this reproduction reports rests on invariants the compiler
//! cannot see: bit-identical [`SimReport`]s across store layouts and
//! parallelism, common-random-number pairing in the fidelity studies, and an
//! allocation-free slot loop. The runtime tests pin those invariants on a
//! handful of configurations; this pass enforces them *at the source level*
//! on every line of the workspace:
//!
//! - **`default_hasher`** — no `HashMap`/`HashSet` with the randomized
//!   default hasher in non-test library code.
//! - **`wall_clock`** — no `Instant`/`SystemTime` outside `vg-bench` and
//!   binary targets; simulated time comes from slots.
//! - **`float_cmp`** — no float `==`/`!=` against literals outside the
//!   committed allowlist; the codebase's idiom is `total_cmp` and packed
//!   integer keys.
//! - **`hot_alloc`** — in `tidy.toml`-declared hot modules, allocation
//!   idioms (`vec!`, `collect`, `to_vec`, `format!`, `Box::new`,
//!   `String::from`, `.clone()`) are flagged, complementing the runtime
//!   alloc-counter which only covers three configurations.
//! - **panic-surface ratchet** — per-crate `unwrap`/`expect`/panic-macro
//!   counts in library code are checked against `tidy_baseline.toml`, which
//!   may only go down.
//! - **`unsafe_safety`** — every `unsafe` block / `unsafe impl` needs an
//!   adjacent `// SAFETY:` comment.
//!
//! See `docs/tidy.md` for the rule catalog, waiver syntax
//! (`// tidy:allow(rule): reason`), and the ratchet workflow. The gate runs
//! in CI as `cargo run -p vg-tidy --release` and exits non-zero on any
//! non-waived finding or baseline growth.
//!
//! [`SimReport`]: ../vg_sim/report/struct.SimReport.html

pub mod config;
pub mod lexer;
pub mod rules;

use config::{Baseline, Config};
use rules::{check_file, FileMeta, Finding};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into, anywhere in the tree.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github"];

/// Workspace-relative path prefixes excluded from scanning. The fixtures
/// are rule-violation corpora for the self-tests — they *must* fire.
const SKIP_PREFIXES: &[&str] = &["crates/tidy/fixtures/"];

/// A failure of the pass itself (I/O, config parse) — distinct from lint
/// findings, and exits with a different status so CI can tell them apart.
#[derive(Debug)]
pub enum TidyError {
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
    /// `tidy.toml` / `tidy_baseline.toml` did not parse.
    Config(PathBuf, config::ParseError),
}

impl fmt::Display for TidyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TidyError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            TidyError::Config(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for TidyError {}

/// The aggregated result of one workspace pass.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Panic-surface counts per crate directory (library code only).
    pub panic_counts: BTreeMap<String, u64>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl WorkspaceReport {
    /// True when the workspace is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collects every workspace `.rs` file (relative, forward slashes, sorted —
/// the report order is part of the deterministic contract).
pub fn collect_files(root: &Path) -> Result<Vec<String>, TidyError> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| TidyError::Io(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| TidyError::Io(dir.clone(), e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                    continue;
                }
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Derives the scope classification for one workspace-relative path.
#[must_use]
pub fn classify(rel: &str) -> FileMeta {
    let crate_dir = if let Some(rest) = rel.strip_prefix("crates/") {
        match rest.split('/').next() {
            Some(name) => format!("crates/{name}"),
            None => "crates".to_string(),
        }
    } else {
        match rel.split('/').next() {
            Some(first) => first.to_string(),
            None => String::new(),
        }
    };
    let in_src = rel.starts_with("src/") || {
        rel.strip_prefix(&crate_dir)
            .is_some_and(|r| r.starts_with("/src/"))
    };
    // `src/main.rs` and `src/bin/*` are binary targets, not library code.
    let is_lib = in_src && !rel.contains("/bin/") && !rel.ends_with("src/main.rs");
    FileMeta {
        rel: rel.to_string(),
        crate_dir,
        is_lib,
    }
}

/// Runs the full pass: walk, lint, ratchet. `baseline` of `None` skips the
/// ratchet comparison (used by `--write-baseline` to seed the file).
pub fn run_workspace(
    root: &Path,
    config: &Config,
    baseline: Option<&Baseline>,
) -> Result<WorkspaceReport, TidyError> {
    let mut report = WorkspaceReport::default();
    let mut panic_sites: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();

    for rel in collect_files(root)? {
        let meta = classify(&rel);
        let path = root.join(&rel);
        let src = fs::read_to_string(&path).map_err(|e| TidyError::Io(path.clone(), e))?;
        let file_report = check_file(&meta, &src, config);
        report.findings.extend(file_report.findings);
        if meta.is_lib && !file_report.panic_sites.is_empty() {
            let bucket = panic_sites.entry(meta.crate_dir.clone()).or_default();
            for line in file_report.panic_sites {
                bucket.push((rel.clone(), line));
            }
        }
        report.files_scanned += 1;
    }

    for (crate_dir, sites) in &panic_sites {
        report
            .panic_counts
            .insert(crate_dir.clone(), sites.len() as u64);
    }

    if let Some(baseline) = baseline {
        ratchet(&mut report, &panic_sites, baseline);
    }

    report.findings.sort();
    Ok(report)
}

/// Compares panic-surface counts against the baseline, in both directions.
fn ratchet(
    report: &mut WorkspaceReport,
    sites: &BTreeMap<String, Vec<(String, u32)>>,
    baseline: &Baseline,
) {
    let mut crates: Vec<&String> = baseline.panic_surface.keys().collect();
    for k in sites.keys() {
        if !baseline.panic_surface.contains_key(k) {
            crates.push(k);
        }
    }
    for crate_dir in crates {
        let count = sites.get(crate_dir).map_or(0, |v| v.len() as u64);
        let allowed = baseline.panic_surface.get(crate_dir).copied().unwrap_or(0);
        if count > allowed {
            let listed: Vec<String> = sites
                .get(crate_dir)
                .map(|v| v.iter().map(|(f, l)| format!("{f}:{l}")).collect())
                .unwrap_or_default();
            report.findings.push(Finding {
                file: "tidy_baseline.toml".to_string(),
                line: 0,
                rule: "panic_ratchet",
                msg: format!(
                    "{crate_dir}: {count} unwrap/expect/panic sites in library \
                     code, baseline allows {allowed} — the panic surface may \
                     only shrink; return a Result or cite the violated contract \
                     in an expect() AND keep the total at or below the \
                     baseline. Sites: {}",
                    listed.join(", ")
                ),
            });
        } else if count < allowed {
            report.findings.push(Finding {
                file: "tidy_baseline.toml".to_string(),
                line: 0,
                rule: "panic_ratchet",
                msg: format!(
                    "{crate_dir}: {count} panic sites but the baseline still \
                     says {allowed} — lock the improvement in: run \
                     `cargo run -p vg-tidy -- --write-baseline` and commit"
                ),
            });
        }
    }
}

/// Convenience entry: load `tidy.toml` + `tidy_baseline.toml` from `root`
/// and run the pass.
pub fn run_from_root(root: &Path) -> Result<WorkspaceReport, TidyError> {
    let config_path = root.join("tidy.toml");
    let config_text =
        fs::read_to_string(&config_path).map_err(|e| TidyError::Io(config_path.clone(), e))?;
    let config =
        Config::parse_str(&config_text).map_err(|e| TidyError::Config(config_path.clone(), e))?;
    let baseline_path = root.join("tidy_baseline.toml");
    let baseline_text =
        fs::read_to_string(&baseline_path).map_err(|e| TidyError::Io(baseline_path.clone(), e))?;
    let baseline = Baseline::parse_str(&baseline_text)
        .map_err(|e| TidyError::Config(baseline_path.clone(), e))?;
    run_workspace(root, &config, Some(&baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let m = classify("crates/sim/src/engine.rs");
        assert_eq!(m.crate_dir, "crates/sim");
        assert!(m.is_lib);
        assert!(!classify("crates/sim/tests/golden_grid.rs").is_lib);
        assert!(!classify("crates/exp/src/bin/table1.rs").is_lib);
        assert!(!classify("crates/tidy/src/main.rs").is_lib);
        assert!(!classify("crates/bench/benches/slotloop.rs").is_lib);
        assert!(classify("src/lib.rs").is_lib);
        assert_eq!(classify("src/lib.rs").crate_dir, "src");
        assert!(!classify("examples/gantt.rs").is_lib);
        assert!(!classify("tests/simulator_invariants.rs").is_lib);
    }
}
