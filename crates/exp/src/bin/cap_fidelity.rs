//! Fidelity study for [`PlacementBudget::BindCapacity`]: does capping the
//! pool/replica placement rounds at the slot's bindable capacity change
//! *answers*, or only *throughput*?
//!
//! Runs the Table-1 campaign grid uncapped (base) and capped (variant) with
//! the **same master seed** and pairs the two with [`vg_exp::paired`]. Only
//! *indistinguishable* cells are candidates for making the cap the default;
//! divergent cells are documented with their deltas in the report (see
//! `docs/placement_budget.md`).
//!
//! ```text
//! cargo run -p vg-exp --release --bin cap_fidelity -- [--quick] [--scenarios K] [--trials T]
//! ```
//!
//! Writes a JSON report to `$CAP_FIDELITY_OUT` (default
//! `target/CAP_FIDELITY.json`) and prints a text summary.

use vg_core::HeuristicKind;
use vg_des::stats::OnlineStats;
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{self, Delta, Report, Row};
use vg_exp::report::text_table;
use vg_exp::CampaignResult;
use vg_sim::{PlacementBudget, SimOptions};

/// Mean dfb of cell `i`, averaged over heuristics.
fn mean_dfb(result: &CampaignResult, i: usize) -> f64 {
    let dfb = &result.cell_stats[i].dfb;
    dfb.iter().map(OnlineStats::mean).sum::<f64>() / dfb.len() as f64
}

fn main() {
    let args = ExpArgs::from_env();
    let cells = paired::study_cells(&args);
    let roster = HeuristicKind::ALL;
    let what = "capped vs uncapped";
    let mut report = Report::start("cap_fidelity", &args, cells.len(), roster.len(), what, 2);

    let sim = |placement_budget| SimOptions {
        placement_budget,
        ..SimOptions::default()
    };
    let uncapped = args.campaign(&roster, &cells, sim(PlacementBudget::Uncapped), true);
    let capped = args.campaign(&roster, &cells, sim(PlacementBudget::BindCapacity), true);
    let pairing = paired::pair_campaigns(&uncapped, &capped).expect("CRN-aligned campaigns");

    // Indistinguishable: the paired 95% CI of the relative makespan delta
    // contains 0, and no completion flips.
    let summary = Row::default().with("cells_total", cells.len()).with(
        "cells_indistinguishable",
        pairing.count_cells(Delta::indistinguishable),
    );
    report.line(&summary);
    let (cell_rows, heuristic_rows) =
        paired::makespan_arrays(&mut report, &cells, &roster, &pairing, |i| {
            Row::default().with(
                "dfb_delta_pp",
                mean_dfb(&capped, i) - mean_dfb(&uncapped, i),
            )
        });

    println!("\n{}", text_table(&[summary]));
    // The cells where the cap changes answers the most, by |mean delta|.
    let divergent = paired::top_rows(
        &cell_rows,
        10,
        |i| !pairing.cells[i].indistinguishable(),
        |i| pairing.cells[i].stats.mean().abs(),
    );
    if !divergent.is_empty() {
        println!(
            "most divergent cells (capped − uncapped):\n{}",
            text_table(&divergent)
        );
    }
    println!(
        "per-heuristic relative makespan delta (%):\n{}",
        text_table(&heuristic_rows)
    );
    report.finish().expect("write fidelity report");
}
