//! Self-tests: every rule must fire on its fixture file, exactly where the
//! fixture says it should, and nowhere else.

use vg_tidy::config::Config;
use vg_tidy::rules::{check_file, FileMeta, Finding};

/// Loads a fixture and checks it as if it were library code at `rel`.
fn run(fixture: &str, rel: &str, config: &Config) -> Vec<Finding> {
    let path = format!("{}/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let meta = FileMeta {
        rel: rel.to_string(),
        crate_dir: rel.split('/').take(2).collect::<Vec<_>>().join("/"),
        is_lib: true,
    };
    check_file(&meta, &src, config).findings
}

fn config() -> Config {
    Config::parse_str(
        r#"
[wall_clock]
allow_crates = ["crates/bench"]

[float_cmp]
allow = []

[hot_alloc]
paths = ["crates/fake/src/hot.rs"]
"#,
    )
    .expect("fixture config parses")
}

/// (rule, line) pairs, sorted — the shape the assertions compare.
fn fired(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    let mut v: Vec<(&'static str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    v.sort_unstable();
    v
}

#[test]
fn default_hasher_fires() {
    let f = run("default_hasher.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(
        fired(&f),
        vec![
            ("default_hasher", 4),
            ("default_hasher", 6),
            ("default_hasher", 9)
        ]
    );
}

#[test]
fn wall_clock_fires_and_respects_crate_allowlist() {
    let cfg = config();
    let f = run("wall_clock.rs", "crates/fake/src/lib.rs", &cfg);
    assert_eq!(
        fired(&f),
        vec![("wall_clock", 3), ("wall_clock", 6), ("wall_clock", 10)]
    );
    // The same file inside an allowlisted crate is clean.
    let f = run("wall_clock.rs", "crates/bench/src/lib.rs", &cfg);
    assert_eq!(fired(&f), vec![]);
}

#[test]
fn float_cmp_fires_on_literal_comparisons_only() {
    let f = run("float_cmp.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(fired(&f), vec![("float_cmp", 5), ("float_cmp", 6)]);
}

#[test]
fn hot_alloc_fires_only_in_declared_hot_files() {
    let cfg = config();
    // Not declared hot: the alloc idioms are silent — so the fixture's
    // waiver has nothing to suppress and is itself flagged as unused.
    let f = run("hot_alloc.rs", "crates/fake/src/cold.rs", &cfg);
    assert_eq!(fired(&f), vec![("waiver", 12)]);
    // Declared hot: one finding per idiom, waived line excluded.
    let f = run("hot_alloc.rs", "crates/fake/src/hot.rs", &cfg);
    assert_eq!(
        fired(&f),
        vec![
            ("hot_alloc", 5),  // vec!
            ("hot_alloc", 6),  // collect
            ("hot_alloc", 7),  // format!
            ("hot_alloc", 8),  // Box::new
            ("hot_alloc", 9),  // String::from
            ("hot_alloc", 10), // .clone()
            ("hot_alloc", 11), // .to_vec()
        ]
    );
}

#[test]
fn unsafe_safety_fires_on_uncommented_unsafe_only() {
    let f = run("unsafe_safety.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(fired(&f), vec![("unsafe_safety", 7), ("unsafe_safety", 18)]);
}

#[test]
fn waiver_hygiene_is_enforced() {
    let f = run("waivers.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(
        fired(&f),
        vec![("waiver", 4), ("waiver", 7), ("waiver", 10)]
    );
}

/// The `dead_pub` fixture is a miniature workspace (`fixtures/dead_pub/`):
/// a library, its binary and integration test, a second library, an
/// example and a `perfbench/src` caller. Every finding lands in its
/// library file; this returns their (rule, line) pairs with that file's
/// text.
fn dead_pub_fixture() -> (Vec<(&'static str, u32)>, String) {
    const LIB: &str = "crates/lib/src/lib.rs";
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/dead_pub");
    let report = vg_tidy::run_workspace(&root, &config(), None).expect("fixture walk");
    assert!(
        report.findings.iter().all(|f| f.file == LIB),
        "{:?}",
        report.findings
    );
    let src = std::fs::read_to_string(root.join(LIB)).expect("fixture library");
    (fired(&report.findings), src)
}

/// The 1-based line declaring `name` in the fixture library.
fn line_of(src: &str, name: &str) -> u32 {
    let words = |l: &str| {
        l.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|w| w == name)
    };
    let at = src
        .lines()
        .position(|l| l.trim_start().starts_with("pub") && words(l))
        .unwrap_or_else(|| panic!("the fixture declares no `{name}`"));
    at as u32 + 1
}

/// The rules that fire on the line declaring `name` (`dead_pub`) or on
/// the waiver right above it (`waiver`).
fn dead_pub_on(name: &str) -> Vec<&'static str> {
    let (fired, src) = dead_pub_fixture();
    let line = line_of(&src, name);
    fired
        .iter()
        .filter(|&&(rule, l)| (rule, l) == ("dead_pub", line) || (rule, l) == ("waiver", line - 1))
        .map(|&(rule, _)| rule)
        .collect()
}

#[test]
fn dead_pub_fires_when_no_other_file_names_the_item() {
    for name in [
        "orphan_fn",
        "orphan_const_fn",
        "orphan_extern_fn",
        "ORPHAN_CONST",
        "ORPHAN_STATIC",
    ] {
        assert_eq!(dead_pub_on(name), ["dead_pub"], "{name}");
    }
}

#[test]
fn dead_pub_fires_when_only_the_own_file_names_the_item() {
    assert_eq!(dead_pub_on("OWN_FILE_ONLY"), ["dead_pub"]);
}

#[test]
fn dead_pub_fires_when_only_tests_name_the_item() {
    assert_eq!(dead_pub_on("TESTS_ONLY"), ["dead_pub"]);
}

#[test]
fn dead_pub_counts_libraries_binaries_examples_and_perfbench_as_callers() {
    for name in ["used", "from_bin", "from_example", "from_perfbench"] {
        assert!(dead_pub_on(name).is_empty(), "{name}");
    }
}

#[test]
fn dead_pub_waiver_silences_the_item() {
    assert!(dead_pub_on("waived").is_empty());
}

#[test]
fn stale_dead_pub_waiver_is_a_finding() {
    assert_eq!(dead_pub_on("stale_waiver"), ["waiver"]);
}

#[test]
fn dead_pub_exempts_scoped_visibility_and_types() {
    assert!(dead_pub_on("scoped").is_empty());
    assert!(dead_pub_on("Exempt").is_empty());
}

#[test]
fn dead_pub_exempts_test_regions() {
    assert!(dead_pub_on("in_test_region").is_empty());
}

#[test]
fn dead_pub_name_collision_is_a_false_negative() {
    // Nothing calls `collision`, but another file binds a local of that
    // name: the rule matches names, not paths, and stays silent.
    assert!(dead_pub_on("collision").is_empty());
}

#[test]
fn dead_pub_fires_nowhere_else() {
    let (fired, src) = dead_pub_fixture();
    let mut want: Vec<(&'static str, u32)> = [
        "orphan_fn",
        "orphan_const_fn",
        "orphan_extern_fn",
        "ORPHAN_CONST",
        "ORPHAN_STATIC",
        "OWN_FILE_ONLY",
        "TESTS_ONLY",
    ]
    .iter()
    .map(|name| ("dead_pub", line_of(&src, name)))
    .collect();
    want.push(("waiver", line_of(&src, "stale_waiver") - 1));
    want.sort_unstable();
    assert_eq!(fired, want);
}
