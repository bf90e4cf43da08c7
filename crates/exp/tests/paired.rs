//! The shared rules of `vg_exp::paired`: pairing, flips, verdicts and the
//! report rendering.

use vg_core::HeuristicKind;
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{pair_campaigns, Paired, Report, Row, Value};
use vg_exp::{CampaignResult, InstanceOutcome, ScenarioParams};

fn campaign(outcomes: Vec<InstanceOutcome>) -> CampaignResult {
    CampaignResult {
        cells: vec![ScenarioParams::paper(5, 5, 1); 2],
        heuristics: vec![HeuristicKind::Mct, HeuristicKind::Emct],
        cell_stats: Vec::new(),
        instances: outcomes.len(),
        rejected_runs: 0,
        outcomes: Some(outcomes),
    }
}

fn outcome(cell: usize, makespans: [u64; 2], completed: [bool; 2]) -> InstanceOutcome {
    InstanceOutcome {
        cell,
        makespans: makespans.to_vec(),
        completed: completed.to_vec(),
    }
}

#[test]
fn pairs_deltas_and_flips_by_cell_and_heuristic() {
    let base = campaign(vec![
        outcome(0, [10, 20], [true, true]),
        outcome(1, [0, 40], [true, false]),
    ]);
    let variant = campaign(vec![
        outcome(0, [11, 20], [true, true]),
        outcome(1, [5, 50], [true, true]),
    ]);
    let p = pair_campaigns(&base, &variant).unwrap();
    assert_eq!(p.cells[0].stats.count(), 2);
    assert!((p.cells[0].stats.mean() - 5.0).abs() < 1e-12);
    // A zero baseline is skipped; the cap-vs-finish pair is a flip.
    assert_eq!((p.cells[1].stats.count(), p.cells[1].flips), (0, 1));
    assert_eq!(
        (p.heuristics[1].stats.count(), p.heuristics[1].flips),
        (1, 1)
    );
    assert_eq!(p.flips(), 1);
}

#[test]
fn misaligned_streams_are_errors_not_panics() {
    let base = campaign(vec![outcome(0, [1, 1], [true, true])]);
    let shifted = campaign(vec![outcome(1, [1, 1], [true, true])]);
    assert!(pair_campaigns(&base, &shifted)
        .unwrap_err()
        .contains("misaligned"));
    assert!(pair_campaigns(&base, &campaign(Vec::new())).is_err());
    let mut dropped = base.clone();
    dropped.outcomes = None;
    assert!(pair_campaigns(&base, &dropped).is_err());
}

#[test]
fn verdicts_need_no_flips() {
    let mut p = Paired::new(1, 1);
    for d in [10.0, 11.0, 12.0] {
        p.record(0, 0, (true, true), || Some(d));
    }
    assert!(p.cells[0].wins() && !p.cells[0].indistinguishable());
    p.record(0, 0, (false, true), || unreachable!("flips carry no delta"));
    assert!(!p.cells[0].wins(), "a flip vetoes the win");
    let mut q = Paired::new(1, 1);
    for d in [-1.0, 1.0, 0.5] {
        q.record(0, 0, (true, true), || Some(d));
    }
    assert!(q.cells[0].indistinguishable() && !q.cells[0].wins());
    q.record(0, 0, (true, false), || None);
    assert!(!q.cells[0].indistinguishable(), "a flip vetoes the match");
}

#[test]
fn rows_render_json_and_csv_alike() {
    let row = Row::default()
        .with("name", "a\"b\\")
        .with("n", 3usize)
        .with("x", 0.5)
        .with("m", Value::Real3(1.25))
        .with("ok", true);
    assert_eq!(
        row.json(),
        r#"{"name": "a\"b\\", "n": 3, "x": 0.500000, "m": 1.250, "ok": true}"#
    );
    assert_eq!(row.values().join(","), r#"a"b\,3,0.500000,1.250,true"#);
}

#[test]
fn report_layout() {
    let mut report = Report::start("s", &ExpArgs::default(), 1, "a vs b", 2);
    report.array("families");
    for _ in 0..2 {
        report.object();
        report.line(&Row::default().with("family", "f"));
        report.rows("cells", &[Row::default().with("n", 1usize)]);
        report.close();
    }
    report.close();
    report.rows("empty", &[]);
    let want = r#"{
  "study": "s",
  "config": {"scenarios": 8, "trials": 2, "seed": 42, "quick": false},
  "families": [
    {
      "family": "f",
      "cells": [
        {"n": 1}
      ]
    },
    {
      "family": "f",
      "cells": [
        {"n": 1}
      ]
    }
  ],
  "empty": [
  ]
}
"#;
    assert_eq!(report.json(), want);
}
