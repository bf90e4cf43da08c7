//! Regenerates **Table 2** and **Figure 2** from one campaign over the full
//! Table-1 grid, all 17 heuristics: average degradation-from-best and wins
//! per heuristic (Table 2), and average dfb versus `wmin` for MCT, MCT*,
//! EMCT, EMCT*, UD* and LW*, the paper's plotted subset (Figure 2).
//!
//! ```text
//! cargo run -p vg-exp --release --bin table2 -- [--scenarios K] [--trials T]
//!                                               [--paper-scale]
//! ```
//!
//! Writes both as the `table2` and `figure2` arrays of a JSON report to
//! `$TABLE2_OUT` (default `target/TABLE2.json`), then prints both tables
//! and the Figure-2 plot.
//!
//! Paper reference (296,400 instances): EMCT 4.77 / EMCT* 4.81 / MCT 5.35 /
//! MCT* 5.46 / UD* 7.06 / UD 8.09 / LW* 11.15 / LW 12.74 / Random*w ≈ 28–31 /
//! Random* ≈ 44–48. Expect the same ordering (up to neighbor swaps) at
//! reduced scale; absolute values drift with the instance sample. Figure 2's
//! shape: the MCT curves rise steeply with `wmin` (availability transitions
//! per task grow), the EMCT curves overtake MCT around `wmin ≈ 3`, and UD*
//! closes in on (or overtakes) EMCT at the volatile end (`wmin ≳ 7`).

use std::time::Instant;

use vg_core::HeuristicKind;
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{Report, Row};
use vg_exp::report::{ascii_plot, text_table};
use vg_exp::scenario::ScenarioParams;
use vg_exp::HeuristicSummary;
use vg_sim::SimOptions;

fn main() {
    let args = ExpArgs::from_env();
    let grid = ScenarioParams::table1_grid();
    let roster = HeuristicKind::ALL;
    let what = "Table 2 and Figure 2";
    let mut report = Report::start("table2", &args, grid.len(), roster.len(), what, 1);
    let t0 = Instant::now();
    let result = args.campaign(&roster, &grid, SimOptions::default(), false);
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());

    let table2: Vec<Row> = result
        .summarize()
        .iter()
        .map(HeuristicSummary::row)
        .collect();
    let kinds = HeuristicKind::FIGURE2;
    let (wmins, series) = result.by_wmin(&kinds);
    let figure2: Vec<Row> = (0..wmins.len())
        .map(|i| {
            let points = kinds.iter().zip(&series);
            points.fold(Row::default().with("wmin", wmins[i]), |row, (k, s)| {
                row.with(k.name(), s[i])
            })
        })
        .collect();
    report.line(&result.counts());
    report.rows("table2", &table2);
    report.rows("figure2", &figure2);

    println!("Table 2: results over all problem instances\n");
    println!("{}", text_table(&table2));
    println!("Figure 2: averaged dfb results vs. wmin\n");
    println!("{}", text_table(&figure2));
    let labels: Vec<String> = wmins.iter().map(u64::to_string).collect();
    let plot: Vec<(&str, Vec<f64>)> = kinds.iter().map(|k| k.name()).zip(series).collect();
    println!("{}", ascii_plot(&labels, &plot, 60, 16));
    report.finish().expect("write Table 2 report");
}
