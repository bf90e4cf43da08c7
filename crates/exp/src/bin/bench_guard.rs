//! Bench-regression gate over `BENCH_slotloop.json` artifacts.
//!
//! ```text
//! bench_guard <baseline.json>[,…] <candidate.json>[,…] [min_ratio] [min_small_ratio] [phase_profile.json]
//! ```
//!
//! Compares the freshly measured slot-loop throughput against a baseline
//! measurement and **exits non-zero** if the candidate's slots/sec at
//! `p = 1024` (either replication setting) drops below `min_ratio ×
//! baseline` (default 0.85 — runners are noisy; a real regression from a
//! hot-path change shows up far below that), or if any *other* cell
//! (`p ≤ 256`) drops below `min_small_ratio × baseline` (default 0.95 —
//! the selector work's acceptance bar: large-`p` wins must not tax the
//! small platforms where the linear rescan still runs). Absolute
//! slots/sec vary with hardware, so the baseline must come from the
//! **same machine** — CI benches the merge-base revision in the same job
//! and passes that file here (the committed `BENCH_slotloop.json` is a
//! recorded trajectory, not a cross-machine gate). Every baseline cell is
//! printed and gated, and a cell missing from where it must exist fails
//! loudly instead of un-gating itself: every baseline cell must still
//! exist in the candidate (a dropped or truncated row is exactly how a
//! regression slips through); only cells the *candidate* adds (a grown
//! grid) pass ungated, having no baseline.
//!
//! Cells are matched on `(p, replication, capped)`; `"capped": true` is
//! the `PlacementBudget::BindCapacity` engine mode, and a row without the
//! field is refused. Both artifacts must hold every `p ∈ {1024, 16384,
//! 131072}` cell, capped and uncapped, replication off and on. The
//! platform-scale cells (`p ≥ 16384`, with a `peak_rss_bytes` footprint
//! field the gate ignores) gate at the `min_small_ratio` floor. When a
//! phase-profile artifact path is given, it too must contain a capped
//! `p = 1024` row, so the sub-split trajectory of the capped slot loop
//! cannot quietly vanish from CI.
//!
//! A floor must be a ratio in (0, 1], and every cell's `slots_per_sec`
//! in either artifact a positive finite number: a `NaN` on either side
//! would make every comparison false and pass any regression.
//!
//! Each side may be a comma-separated list of artifacts, one per bench
//! run; CI interleaves three base and three candidate runs. A cell's
//! throughput is then its median over the side's runs, and the gate
//! compares the two medians. A single slotloop run spreads past either
//! floor on a 2-vCPU box even for unchanged code, while one outlier run
//! of three cannot move a median. Every run of a side must hold the same
//! cells.
//!
//! All artifacts are read with [`read_rows`], the reader of the format
//! `vg_exp::paired` writes.

use std::process::ExitCode;
use vg_exp::paired::read_rows;

const USAGE: &str = "usage: bench_guard <baseline.json>[,...] <candidate.json>[,...] \
                     [min_ratio] [min_small_ratio] [phase_profile.json]";

/// One `{"p": …, "replication": …, …, "slots_per_sec": …}` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellPerf {
    p: u64,
    replication: bool,
    capped: bool,
    slots_per_sec: f64,
}

impl CellPerf {
    fn same_cell(&self, other: &Self) -> bool {
        (self.p, self.replication, self.capped) == (other.p, other.replication, other.capped)
    }
}

/// Parses every benchmark cell out of a `BENCH_slotloop.json` body,
/// refusing a cell without a `"capped"` field.
fn parse_cells(json: &str) -> Result<Vec<CellPerf>, String> {
    let cells = read_rows(json).into_iter().filter_map(|row| {
        let p = row.get("p")?.parse().ok()?;
        let replication = row.get("replication")? == "true";
        let slots_per_sec = row.get("slots_per_sec")?.parse().ok()?;
        Some(match row.get("capped") {
            Some(capped) => Ok(CellPerf {
                p,
                replication,
                capped: capped == "true",
                slots_per_sec,
            }),
            None => Err(format!(
                "cell p={p} replication={replication} has no \"capped\" field"
            )),
        })
    });
    cells.collect()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The cells of the artifact at `path`, each with a positive finite
/// `slots_per_sec`.
fn read_cells(path: &str) -> Result<Vec<CellPerf>, String> {
    let cells = parse_cells(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let bad = cells
        .iter()
        .find(|c| !(c.slots_per_sec.is_finite() && c.slots_per_sec > 0.0));
    match bad {
        Some(c) => Err(format!(
            "{path}: cell p={} replication={} capped={} has slots_per_sec {}",
            c.p, c.replication, c.capped, c.slots_per_sec
        )),
        None => Ok(cells),
    }
}

/// The cells of the comma-separated artifacts `paths`, each cell's
/// `slots_per_sec` the median over them (the mean of the middle two for
/// an even count). Every artifact must hold exactly the first one's cells.
fn median_cells(paths: &str) -> Result<Vec<CellPerf>, String> {
    let runs = paths
        .split(',')
        .map(|path| Ok((path, read_cells(path)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let (first_path, first) = &runs[0];
    if let Some((path, cells)) = runs.iter().find(|(_, cells)| cells.len() != first.len()) {
        return Err(format!(
            "{path} has {} cells but {first_path} has {}",
            cells.len(),
            first.len()
        ));
    }
    let mut medians = Vec::with_capacity(first.len());
    for cell in first {
        let mut samples = Vec::with_capacity(runs.len());
        for (path, cells) in &runs {
            let Some(c) = cells.iter().find(|c| c.same_cell(cell)) else {
                return Err(format!(
                    "{path} is missing the cell p={} replication={} capped={} of {first_path}",
                    cell.p, cell.replication, cell.capped
                ));
            };
            samples.push(c.slots_per_sec);
        }
        samples.sort_unstable_by(f64::total_cmp);
        let mid = samples.len() / 2;
        let median = if samples.len() % 2 == 1 {
            samples[mid]
        } else {
            (samples[mid - 1] + samples[mid]) / 2.0
        };
        medians.push(CellPerf {
            slots_per_sec: median,
            ..*cell
        });
    }
    Ok(medians)
}

/// The floor argument `arg`, else `default`: a ratio in (0, 1].
fn parse_floor(arg: Option<&String>, name: &str, default: f64) -> Result<f64, String> {
    let Some(arg) = arg else {
        return Ok(default);
    };
    match arg.parse::<f64>() {
        // NaN fails both comparisons.
        Ok(v) if v > 0.0 && v <= 1.0 => Ok(v),
        _ => Err(format!("{name} must be a ratio in (0, 1], got {arg:?}")),
    }
}

/// Requires the phase-profile artifact to carry a capped `p = 1024` row
/// (the sub-split trajectory of the capped slot loop).
fn check_phase_profile(path: &str, json: &str) -> Result<(), String> {
    let has = read_rows(json).iter().any(|row| {
        row.get("p").and_then(|v| v.parse::<u64>().ok()) == Some(1024)
            && row.get("capped").is_some_and(|v| v == "true")
    });
    if has {
        Ok(())
    } else {
        Err(format!(
            "{path} is missing the capped p=1024 phase-profile row"
        ))
    }
}

fn run(
    baseline_path: &str,
    candidate_path: &str,
    min_ratio: f64,
    min_small_ratio: f64,
    phase_profile_path: Option<&str>,
) -> Result<(), String> {
    let baseline = median_cells(baseline_path)?;
    let candidate = median_cells(candidate_path)?;
    if baseline.is_empty() || candidate.is_empty() {
        return Err(format!(
            "no benchmark cells parsed ({} baseline, {} candidate)",
            baseline.len(),
            candidate.len()
        ));
    }
    // The gate is only meaningful if every gated cell actually exists in
    // both artifacts — a missing cell must fail loudly, not un-gate itself.
    for (file, cells) in [(baseline_path, &baseline), (candidate_path, &candidate)] {
        for p in [1024u64, 16_384, 131_072] {
            for (replication, capped) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                if !cells
                    .iter()
                    .any(|c| (c.p, c.replication, c.capped) == (p, replication, capped))
                {
                    return Err(format!(
                        "{file} is missing the gated cell p={p} replication={replication} \
                         capped={capped}"
                    ));
                }
            }
        }
    }
    if let Some(path) = phase_profile_path {
        check_phase_profile(path, &read(path)?)?;
    }
    let runs = |paths: &str| paths.split(',').count();
    println!(
        "per-cell medians over {} baseline and {} candidate run(s)",
        runs(baseline_path),
        runs(candidate_path)
    );
    let mut gated = 0usize;
    let mut failures = Vec::new();
    for base in &baseline {
        let Some(cand) = candidate.iter().find(|c| c.same_cell(base)) else {
            // A cell the baseline measured but the candidate no longer
            // emits must fail loudly, not un-gate itself — dropping a row
            // from the bench grid (or a truncated artifact) is exactly how
            // a small-cell regression would slip past its floor. (Cells
            // only the candidate has — a grown grid — have no baseline to
            // gate against and are fine.)
            return Err(format!(
                "candidate is missing the baseline cell p={} replication={} capped={}",
                base.p, base.replication, base.capped
            ));
        };
        let ratio = cand.slots_per_sec / base.slots_per_sec;
        // p = 1024 is the scale the structured selectors exist for; the
        // smaller cells gate at the wider small-cell floor so selector
        // crossover changes cannot quietly tax the linear-scan band.
        let floor = if base.p == 1024 {
            min_ratio
        } else {
            min_small_ratio
        };
        println!(
            "p={:<5} replication={:<5} capped={:<5} baseline={:>12.1} candidate={:>12.1} ratio={:.3}  [floor {floor}]",
            base.p, base.replication, base.capped, base.slots_per_sec, cand.slots_per_sec, ratio,
        );
        if base.p == 1024 {
            gated += 1;
        }
        if ratio < floor {
            failures.push(format!(
                "p={} replication={} capped={}: {:.1} slots/sec is {:.3}× the baseline {:.1} \
                 (floor {floor})",
                base.p,
                base.replication,
                base.capped,
                cand.slots_per_sec,
                ratio,
                base.slots_per_sec
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "bench guard OK ({gated} p=1024 cells ≥ {min_ratio}×, \
             small cells ≥ {min_small_ratio}× baseline)"
        );
        Ok(())
    } else {
        Err(format!(
            "slot-loop regression:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 || args.len() > 6 {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let floors = parse_floor(args.get(3), "min_ratio", 0.85)
        .and_then(|min| Ok((min, parse_floor(args.get(4), "min_small_ratio", 0.95)?)));
    let (min_ratio, min_small_ratio) = match floors {
        Ok(floors) => floors,
        Err(msg) => {
            eprintln!("bench_guard: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(
        &args[1],
        &args[2],
        min_ratio,
        min_small_ratio,
        args.get(5).map(String::as_str),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmarks": [
    {"p": 32, "replication": false, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 1000.0},
    {"p": 1024, "replication": false, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 3000.0},
    {"p": 1024, "replication": true, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 1600.0},
    {"p": 1024, "replication": false, "capped": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 5000.0},
    {"p": 1024, "replication": true, "capped": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 2600.0},
    {"p": 16384, "replication": false, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 2900.0, "peak_rss_bytes": 52428800},
    {"p": 16384, "replication": true, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 1500.0, "peak_rss_bytes": 52428800},
    {"p": 16384, "replication": false, "capped": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 4500.0, "peak_rss_bytes": 52428800},
    {"p": 16384, "replication": true, "capped": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 2400.0, "peak_rss_bytes": 52428800},
    {"p": 131072, "replication": false, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 700.0, "peak_rss_bytes": 209715200},
    {"p": 131072, "replication": true, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 400.0, "peak_rss_bytes": 209715200},
    {"p": 131072, "replication": false, "capped": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 1100.0, "peak_rss_bytes": 209715200},
    {"p": 131072, "replication": true, "capped": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 600.0, "peak_rss_bytes": 209715200}
  ]
}"#;

    #[test]
    fn parses_the_slotloop_format() {
        let cells = parse_cells(SAMPLE).unwrap();
        assert_eq!(cells.len(), 13);
        // The footprint field rides along without disturbing the parse.
        assert_eq!(
            cells[5],
            CellPerf {
                p: 16384,
                replication: false,
                capped: false,
                slots_per_sec: 2900.0
            }
        );
        assert_eq!(
            cells[2],
            CellPerf {
                p: 1024,
                replication: true,
                capped: false,
                slots_per_sec: 1600.0
            }
        );
        assert_eq!(
            cells[4],
            CellPerf {
                p: 1024,
                replication: true,
                capped: true,
                slots_per_sec: 2600.0
            }
        );
    }

    #[test]
    fn rows_without_a_capped_field_are_refused() {
        // Every revision the gate can compare emits the field, so a cell
        // without it is a malformed artifact, not an uncapped cell.
        let legacy = r#"{"p": 1024, "replication": true, "slots": 1, "seconds": 1.0, "slots_per_sec": 1600.0}"#;
        let err = parse_cells(legacy).unwrap_err();
        assert!(
            err.contains("cell p=1024 replication=true has no \"capped\" field"),
            "{err}"
        );
    }

    #[test]
    fn gate_logic_passes_and_fails_on_ratio() {
        let dir = std::env::temp_dir().join("vg_bench_guard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(&base, SAMPLE).unwrap();
        std::fs::write(&good, SAMPLE.replace("1600.0", "1700.0")).unwrap();
        std::fs::write(&bad, SAMPLE.replace("1600.0", "900.0")).unwrap();
        let b = base.to_str().unwrap();
        assert!(run(b, good.to_str().unwrap(), 0.85, 0.90, None).is_ok());
        assert!(run(b, bad.to_str().unwrap(), 0.85, 0.90, None).is_err());
        // Candidate faster than baseline on one gated cell but regressed on
        // the other must still fail.
        let mixed = dir.join("mixed.json");
        std::fs::write(
            &mixed,
            SAMPLE
                .replace("3000.0", "9000.0")
                .replace("1600.0", "100.0"),
        )
        .unwrap();
        assert!(run(b, mixed.to_str().unwrap(), 0.85, 0.90, None).is_err());
        // A capped-cell regression gates exactly like an uncapped one.
        let capped_bad = dir.join("capped_bad.json");
        std::fs::write(&capped_bad, SAMPLE.replace("2600.0", "1000.0")).unwrap();
        let err = run(b, capped_bad.to_str().unwrap(), 0.85, 0.90, None).unwrap_err();
        assert!(err.contains("capped=true"), "{err}");
    }

    #[test]
    fn small_cells_gate_at_their_own_floor() {
        // A p = 32 regression below min_small_ratio must fail even with
        // both p = 1024 cells healthy — the selector crossover must not
        // quietly tax the linear-scan band — while a small dip inside the
        // noise margin passes.
        let dir = std::env::temp_dir().join("vg_bench_guard_small_cells");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        std::fs::write(&base, SAMPLE).unwrap();
        let b = base.to_str().unwrap();
        let dipped = dir.join("dipped.json");
        std::fs::write(
            &dipped,
            SAMPLE.replace("\"slots_per_sec\": 1000.0", "\"slots_per_sec\": 930.0"),
        )
        .unwrap();
        assert!(run(b, dipped.to_str().unwrap(), 0.85, 0.90, None).is_ok());
        let regressed = dir.join("regressed.json");
        std::fs::write(
            &regressed,
            SAMPLE.replace("\"slots_per_sec\": 1000.0", "\"slots_per_sec\": 500.0"),
        )
        .unwrap();
        let err = run(b, regressed.to_str().unwrap(), 0.85, 0.90, None).unwrap_err();
        assert!(err.contains("p=32"), "{err}");
        // A small cell the candidate stopped emitting must fail loudly —
        // un-gating by omission is the failure mode this guard exists
        // for — while extra candidate-only cells (a grown grid) pass.
        let dropped = dir.join("dropped.json");
        std::fs::write(
            &dropped,
            SAMPLE
                .lines()
                .filter(|l| !l.contains("\"p\": 32"))
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let err = run(b, dropped.to_str().unwrap(), 0.85, 0.90, None).unwrap_err();
        assert!(err.contains("missing the baseline cell p=32"), "{err}");
        assert!(run(dropped.to_str().unwrap(), b, 0.85, 0.90, None).is_ok());
    }

    #[test]
    fn medians_gate_a_steady_drop_but_not_one_outlier_run() {
        // Three runs a side, the CI floors. A 10% drop of the p = 32 cell
        // in every candidate run fails; a halved p = 32 in one run of
        // three, which would fail a single-run gate, does not move the
        // median.
        let dir = std::env::temp_dir().join("vg_bench_guard_medians");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, json: &str| {
            let path = dir.join(name);
            std::fs::write(&path, json).unwrap();
            path.to_str().unwrap().to_string()
        };
        let p32 = |v: &str| SAMPLE.replace("\"slots_per_sec\": 1000.0", v);
        let base = write("base.json", SAMPLE);
        let bases = [base.as_str(); 3].join(",");
        let dropped = write("dropped.json", &p32("\"slots_per_sec\": 900.0"));
        let outlier = write("outlier.json", &p32("\"slots_per_sec\": 500.0"));
        let err = run(&bases, &[dropped.as_str(); 3].join(","), 0.85, 0.95, None).unwrap_err();
        assert!(err.contains("p=32"), "{err}");
        assert!(run(&base, &outlier, 0.85, 0.95, None).is_err());
        let one_outlier = [base.as_str(), outlier.as_str(), base.as_str()].join(",");
        assert!(run(&bases, &one_outlier, 0.85, 0.95, None).is_ok());
        // The median of an even count is the mean of the middle two.
        let two = [base.as_str(), outlier.as_str()].join(",");
        let medians = median_cells(&two).unwrap();
        assert_eq!(medians[0].slots_per_sec, 750.0);
        // Every run of a side must hold the same cells.
        let short = write(
            "short.json",
            &SAMPLE
                .lines()
                .filter(|l| !l.contains("\"p\": 32"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
        for set in [
            [base.as_str(), short.as_str()],
            [short.as_str(), base.as_str()],
        ] {
            let err = run(&bases, &set.join(","), 0.85, 0.95, None).unwrap_err();
            assert!(err.contains("cells but"), "{err}");
        }
    }

    #[test]
    fn missing_gated_cell_fails_instead_of_ungating() {
        // Regression guard for the guard: dropping the replication-on
        // p = 1024 cell from either artifact must be an error, not a pass
        // with one fewer gated cell.
        let dir = std::env::temp_dir().join("vg_bench_guard_missing_cell");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        std::fs::write(&base, SAMPLE).unwrap();
        let rep_line = r#"    {"p": 1024, "replication": true, "capped": false, "slots": 1, "seconds": 1.0, "slots_per_sec": 1600.0}"#;
        for (name, json) in [
            ("norep.json", SAMPLE.replace(rep_line, "")),
            (
                "norep_at_all.json",
                SAMPLE
                    .lines()
                    .filter(|l| !l.contains("1024"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        ] {
            let cand = dir.join(name);
            std::fs::write(&cand, json).unwrap();
            let err = run(
                base.to_str().unwrap(),
                cand.to_str().unwrap(),
                0.85,
                0.90,
                None,
            )
            .unwrap_err();
            assert!(err.contains("missing the gated cell"), "{name}: {err}");
            // And a candidate baseline missing the cell fails symmetrically.
            let err = run(
                cand.to_str().unwrap(),
                base.to_str().unwrap(),
                0.85,
                0.90,
                None,
            )
            .unwrap_err();
            assert!(err.contains("missing the gated cell"), "{name}: {err}");
        }
    }

    #[test]
    fn capped_and_platform_scale_cells_required_of_both_sides() {
        // Dropping the capped grid or any platform-scale cell from either
        // artifact would silently retire its regression gate.
        let dir = std::env::temp_dir().join("vg_bench_guard_required_cells");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.json");
        std::fs::write(&full, SAMPLE).unwrap();
        let without = |name: &str, drop: &dyn Fn(&str) -> bool| {
            let json: String = SAMPLE
                .lines()
                .filter(|l| !drop(l))
                .collect::<Vec<_>>()
                .join("\n")
                .replace("\"slots_per_sec\": 1600.0},", "\"slots_per_sec\": 1600.0}");
            let path = dir.join(name);
            std::fs::write(&path, json).unwrap();
            path
        };
        let uncapped = without("uncapped.json", &|l| l.contains("\"capped\": true"));
        let prescale = without("prescale.json", &|l| {
            l.contains("16384") || l.contains("131072")
        });
        let partial = without("partial.json", &|l| {
            l.contains("131072")
                && l.contains("\"replication\": true")
                && l.contains("\"capped\": true")
        });
        for (cut, missing) in [
            (&uncapped, "p=1024 replication=false capped=true"),
            (&prescale, "p=16384 replication=false capped=false"),
            (&partial, "p=131072 replication=true capped=true"),
        ] {
            for (base, cand) in [(cut, &full), (&full, cut)] {
                let err = run(
                    base.to_str().unwrap(),
                    cand.to_str().unwrap(),
                    0.85,
                    0.90,
                    None,
                )
                .unwrap_err();
                assert!(
                    err.contains(&format!("missing the gated cell {missing}")),
                    "{err}"
                );
            }
        }
        // A regression below min_small_ratio on a platform-scale cell
        // fails the gate.
        let regressed = dir.join("regressed.json");
        std::fs::write(
            &regressed,
            SAMPLE.replace("\"slots_per_sec\": 2900.0", "\"slots_per_sec\": 2000.0"),
        )
        .unwrap();
        let err = run(
            full.to_str().unwrap(),
            regressed.to_str().unwrap(),
            0.85,
            0.90,
            None,
        )
        .unwrap_err();
        assert!(err.contains("p=16384"), "{err}");
    }

    #[test]
    fn phase_profile_artifact_must_carry_the_capped_row() {
        let dir = std::env::temp_dir().join("vg_bench_guard_phase_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        std::fs::write(&base, SAMPLE).unwrap();
        let b = base.to_str().unwrap();
        let with = dir.join("profile_with.json");
        std::fs::write(
            &with,
            r#"{"p": 1024, "capped": true, "slots": 1, "total_seconds": 1.0}"#,
        )
        .unwrap();
        assert!(run(b, b, 0.85, 0.90, Some(with.to_str().unwrap())).is_ok());
        let without = dir.join("profile_without.json");
        std::fs::write(
            &without,
            r#"{"p": 1024, "capped": false, "slots": 1, "total_seconds": 1.0}"#,
        )
        .unwrap();
        let err = run(b, b, 0.85, 0.90, Some(without.to_str().unwrap())).unwrap_err();
        assert!(err.contains("capped p=1024 phase-profile row"), "{err}");
    }

    #[test]
    fn floors_must_be_ratios_in_the_unit_interval() {
        // `nan` parses as a float, and `ratio < NaN` is always false, so a
        // NaN floor would pass any regression.
        for bad in ["nan", "NaN", "inf", "0", "-0.5", "1.5", "0.9x", ""] {
            let err = parse_floor(Some(&bad.to_string()), "min_ratio", 0.85).unwrap_err();
            assert!(
                err.contains("min_ratio must be a ratio in (0, 1]"),
                "{bad}: {err}"
            );
        }
        assert_eq!(
            parse_floor(Some(&"1".to_string()), "min_ratio", 0.85),
            Ok(1.0)
        );
        assert_eq!(
            parse_floor(Some(&"0.9".to_string()), "min_ratio", 0.85),
            Ok(0.9)
        );
        assert_eq!(parse_floor(None, "min_ratio", 0.85), Ok(0.85));
    }

    #[test]
    fn non_finite_or_non_positive_cells_fail_the_gate() {
        // A 0-slot/0-second cell renders its throughput as NaN; a NaN ratio
        // compares false against every floor, so it must fail on its own.
        let dir = std::env::temp_dir().join("vg_bench_guard_nan_cells");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        std::fs::write(&base, SAMPLE).unwrap();
        let b = base.to_str().unwrap();
        for (name, value) in [
            ("nan.json", "NaN"),
            ("inf.json", "inf"),
            ("zero.json", "0.0"),
        ] {
            let bad = dir.join(name);
            std::fs::write(
                &bad,
                SAMPLE.replace(
                    "\"slots_per_sec\": 1600.0",
                    &format!("\"slots_per_sec\": {value}"),
                ),
            )
            .unwrap();
            let bad = bad.to_str().unwrap();
            let err = run(b, bad, 0.85, 0.95, None).unwrap_err();
            assert!(
                err.contains("p=1024 replication=true capped=false"),
                "{name}: {err}"
            );
            // The baseline side is checked the same way.
            assert!(run(bad, b, 0.85, 0.95, None).is_err(), "{name}");
        }
    }

    #[test]
    fn reads_the_committed_artifacts_like_the_previous_parser() {
        // The cells the hand-rolled line parser this reader replaced found
        // in the committed BENCH_slotloop.json, in file order: the full
        // (p, replication, capped) grid with these throughputs. Re-recording
        // the artifact means re-recording them.
        let slots_per_sec = [
            258190.889609,
            412848.904224,
            270812.327640,
            330021.297674,
            41490.901802,
            58349.451568,
            22630.031367,
            37444.709202,
            10708.235632,
            16676.069619,
            5310.558678,
            9448.539340,
            3583.650751,
            3361.513424,
            981.601422,
            985.540485,
            371.513055,
            350.260965,
            187.272345,
            190.350106,
        ];
        let keys = [32, 256, 1024, 16384, 131072].into_iter().flat_map(|p| {
            [(false, false), (false, true), (true, false), (true, true)].map(|(r, c)| (p, r, c))
        });
        let want: Vec<CellPerf> = keys
            .zip(slots_per_sec)
            .map(|((p, replication, capped), slots_per_sec)| CellPerf {
                p,
                replication,
                capped,
                slots_per_sec,
            })
            .collect();
        assert_eq!(
            parse_cells(include_str!("../../../../BENCH_slotloop.json")),
            Ok(want)
        );
        let profile = include_str!("../../../../BENCH_phase_profile.json");
        assert!(check_phase_profile("BENCH_phase_profile.json", profile).is_ok());
    }
}
