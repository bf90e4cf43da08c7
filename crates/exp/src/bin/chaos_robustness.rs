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

use vg_core::HeuristicKind;
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{self, Delta, Report, Row};
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
    let roster = HeuristicKind::ALL;
    let what = format!("baseline + {} chaos families", FAMILIES.len());
    let sides = 1 + FAMILIES.len();
    let mut report = Report::start(
        "chaos_robustness",
        &args,
        cells.len(),
        roster.len(),
        &what,
        sides,
    );

    let baseline = args.campaign(&roster, &cells, SimOptions::default(), true);
    let mut families = Vec::new();
    report.array("families");
    for (name, spec) in FAMILIES {
        let chaos_cells: Vec<ScenarioParams> =
            cells.iter().map(|c| c.with_volatility(spec(c))).collect();
        let chaos = args.campaign(&roster, &chaos_cells, SimOptions::default(), true);
        let pairing = paired::pair_campaigns(&baseline, &chaos).expect("CRN-aligned campaigns");
        let summary = Row::default()
            .with("family", name)
            .with("cells_total", cells.len())
            .with(
                "cells_indistinguishable",
                pairing.count_cells(Delta::indistinguishable),
            )
            .with("completion_flips", pairing.flips());
        report.object();
        report.line(&summary);
        let (_, heuristic_rows) =
            paired::makespan_arrays(&mut report, &cells, &roster, &pairing, |_| Row::default());
        report.close();

        // The text summary adds the mean delta over heuristics and ranks
        // the heuristics, most degraded first.
        let means = pairing.heuristics.iter().map(|d| d.stats.mean());
        let all = means.sum::<f64>() / pairing.heuristics.len() as f64;
        families.push(summary.with("mk_delta_pct_mean", all));
        let ranked = paired::top_rows(
            &heuristic_rows,
            heuristic_rows.len(),
            |_| true,
            |h| pairing.heuristics[h].stats.mean(),
        );
        println!("\n=== {name} ===\n{}", text_table(&ranked));
    }
    report.close();
    println!("{}", text_table(&families));
    report.finish().expect("write chaos report");
}
