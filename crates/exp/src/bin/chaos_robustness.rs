//! Chaos robustness study: how much do the paper's 17 heuristics degrade
//! when the platform's volatility stops being independent?
//!
//! Reruns the Table-1 campaign grid once per **chaos family** — scripted
//! mass kills, correlated group bursts, diurnal phase — plus the independent
//! baseline, all with the **same master seed**. Scripted overlays force
//! states *after* base sampling and correlated group modulators draw from
//! their own seed streams, so every family sees byte-identical base
//! availability and its pairing against the baseline ([`vg_exp::paired`])
//! measures the chaos alone.
//!
//! Chaos timescales ride the cell's `wmin` (the paper's base time unit), so
//! a `wmin = 10` cell is hit at the same *phase* of its execution as a
//! `wmin = 1` cell, not at the same absolute slot.
//!
//! ```text
//! cargo run -p vg-exp --release --bin chaos_robustness -- [--quick] [--scenarios K] [--trials T]
//! ```
//!
//! Writes a JSON report to `$CHAOS_ROBUSTNESS_OUT` (default
//! `target/CHAOS_ROBUSTNESS.json`) and prints a text summary.

use std::time::Instant;

use vg_exp::cli::ExpArgs;
use vg_exp::paired::{self, Delta, Paired, Report, Row};
use vg_exp::report::text_table;
use vg_exp::scenario::VolatilitySpec;
use vg_exp::ScenarioParams;
use vg_sim::SimOptions;

/// The studied families: a name plus the `wmin`-aware spec builder. Mass
/// kill hits 30% of the platform mid-execution; bursts take one of four
/// racks down for ~20 slots at a time; the diurnal cycle parks half of
/// each "day" across four staggered timezones.
type Family = (&'static str, fn(&ScenarioParams) -> VolatilitySpec);
const FAMILIES: [Family; 3] = [
    ("mass_kill", |c| VolatilitySpec::MassKill {
        pct: 30,
        at: 50 * c.wmin,
        lasts: 100 * c.wmin,
    }),
    ("correlated_bursts", |_| VolatilitySpec::CorrelatedBursts {
        groups: 4,
        p_fail: 0.01,
        p_recover: 0.05,
    }),
    ("diurnal", |c| VolatilitySpec::Diurnal {
        groups: 4,
        period: 400 * c.wmin,
        off_len: 120 * c.wmin,
        stagger: 100 * c.wmin,
    }),
];

fn main() {
    let args = ExpArgs::from_env();
    let cells = paired::study_cells(&args);
    let what = format!("baseline + {} chaos families", FAMILIES.len());
    let sides = 1 + FAMILIES.len();
    let mut report = Report::start("chaos_robustness", &args, cells.len(), &what, sides);

    let t0 = Instant::now();
    let baseline = paired::campaign(&args, &cells, SimOptions::default());
    let pairings: Vec<Paired> = FAMILIES
        .iter()
        .map(|(name, spec)| {
            let chaos_cells: Vec<ScenarioParams> =
                cells.iter().map(|c| c.with_volatility(spec(c))).collect();
            let chaos = paired::campaign(&args, &chaos_cells, SimOptions::default());
            let pairing = paired::pair_campaigns(&baseline, &chaos).expect("CRN-aligned campaigns");
            println!(
                "  {name} campaign done ({:.1}s)",
                t0.elapsed().as_secs_f64()
            );
            pairing
        })
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();

    // Text summary: per family, the overall paired delta and the most
    // degraded heuristics.
    for ((name, _), pairing) in FAMILIES.iter().zip(&pairings) {
        let means = pairing.heuristics.iter().map(|d| d.stats.mean());
        let all = means.sum::<f64>() / pairing.heuristics.len() as f64;
        let indist = pairing.count_cells(Delta::indistinguishable);
        println!(
            "\n=== {name} === mean makespan delta {all:+.2}% | {indist}/{} cells \
             indistinguishable | {} flips",
            cells.len(),
            pairing.flips()
        );
        let mut ranked: Vec<(usize, &Delta)> = pairing.heuristics.iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.stats.mean().total_cmp(&a.1.stats.mean()));
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .take(5)
            .chain(ranked.iter().rev().take(3).rev())
            .map(|(h, d)| {
                let [mean, ci] = d.text(3);
                let name = baseline.heuristics[*h].name().into();
                vec![name, d.stats.count().to_string(), mean, ci]
            })
            .collect();
        let headers = ["Algorithm", "pairs", "mk Δ%", "95% CI"];
        println!("{}", text_table(&headers, &rows));
    }
    eprintln!("done in {elapsed:.1}s");

    let mut csv = Vec::new();
    report.array("families");
    for ((name, _), pairing) in FAMILIES.iter().zip(&pairings) {
        let family = Row::default().with("family", *name);
        report.object();
        report.line(
            &family
                .clone()
                .with("cells_total", cells.len())
                .with(
                    "cells_indistinguishable",
                    pairing.count_cells(Delta::indistinguishable),
                )
                .with("completion_flips", pairing.flips()),
        );
        let kinds = &baseline.heuristics;
        let rows = paired::makespan_arrays(&mut report, &cells, kinds, pairing, |_| Row::default());
        csv.extend(rows.into_iter().map(|row| family.clone().append(row)));
        report.close();
    }
    report.close();
    report.finish(&args, &csv).expect("write chaos report");
}
