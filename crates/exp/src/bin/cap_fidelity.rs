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

use std::time::Instant;

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
    let mut report = Report::start("cap_fidelity", &args, cells.len(), "capped vs uncapped", 2);

    let t0 = Instant::now();
    let sim = |placement_budget| SimOptions {
        placement_budget,
        ..SimOptions::default()
    };
    let uncapped = paired::campaign(&args, &cells, sim(PlacementBudget::Uncapped));
    let capped = paired::campaign(&args, &cells, sim(PlacementBudget::BindCapacity));
    let elapsed = t0.elapsed().as_secs_f64();
    let pairing = paired::pair_campaigns(&uncapped, &capped).expect("CRN-aligned campaigns");
    let dfb_pp = |i| mean_dfb(&capped, i) - mean_dfb(&uncapped, i);

    let indistinguishable = pairing.count_cells(Delta::indistinguishable);
    println!(
        "\n{indistinguishable}/{} cells statistically indistinguishable \
         (paired 95% CI of the relative makespan delta contains 0, no completion flips)",
        cells.len()
    );

    // The cells where the cap changes answers the most, by |mean delta|.
    let rows = paired::top_cells(
        &cells,
        |i| !pairing.cells[i].indistinguishable(),
        |i| pairing.cells[i].stats.mean().abs(),
        |i| {
            let d = &pairing.cells[i];
            let [mean, ci] = d.text(3);
            vec![mean, ci, format!("{:+.3}", dfb_pp(i)), d.flips.to_string()]
        },
    );
    if !rows.is_empty() {
        let headers = ["n", "ncom", "wmin", "mk Δ%", "95% CI", "dfb Δpp", "flips"];
        println!(
            "\nmost divergent cells (capped − uncapped):\n{}",
            text_table(&headers, &rows)
        );
    }

    let rows: Vec<Vec<String>> = uncapped
        .heuristics
        .iter()
        .zip(&pairing.heuristics)
        .map(|(kind, d)| {
            let [mean, ci] = d.text(4);
            vec![kind.name().into(), d.stats.count().to_string(), mean, ci]
        })
        .collect();
    println!(
        "per-heuristic relative makespan delta (%):\n{}",
        text_table(&["Algorithm", "pairs", "mean Δ%", "95% CI"], &rows)
    );
    eprintln!("done in {elapsed:.1}s");

    report.line(
        &Row::default()
            .with("cells_total", cells.len())
            .with("cells_indistinguishable", indistinguishable),
    );
    let csv = paired::makespan_arrays(&mut report, &cells, &uncapped.heuristics, &pairing, |i| {
        Row::default().with("dfb_delta_pp", dfb_pp(i))
    });
    report.finish(&args, &csv).expect("write fidelity report");
}
