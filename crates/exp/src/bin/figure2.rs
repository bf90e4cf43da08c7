//! Regenerates **Figure 2**: average degradation-from-best versus `wmin`
//! for MCT, MCT*, EMCT, EMCT*, UD* and LW* (the paper's plotted subset).
//!
//! ```text
//! cargo run -p vg-exp --release --bin figure2 -- [--scenarios K] [--trials T] [--csv]
//! ```
//!
//! Paper shape to look for: the MCT curves rise steeply with `wmin`
//! (availability transitions per task grow), the EMCT curves overtake MCT
//! around `wmin ≈ 3`, and UD* closes in on (or overtakes) EMCT at the
//! volatile end (`wmin ≳ 7`).

use std::time::Instant;
use vg_core::HeuristicKind;
use vg_exp::campaign::{run_campaign, CampaignConfig};
use vg_exp::cli::{exit_on_rejected, ExpArgs};
use vg_exp::report::{ascii_plot, csv, text_table};
use vg_exp::scenario::ScenarioParams;

fn main() {
    let args = ExpArgs::from_env();
    let grid = ScenarioParams::table1_grid();
    let kinds = HeuristicKind::FIGURE2;
    let cfg = CampaignConfig {
        // Run the full roster so dfb's "best" matches Table 2 semantics.
        heuristics: HeuristicKind::ALL.to_vec(),
        scenarios_per_cell: args.scenarios,
        trials: args.trials,
        master_seed: args.seed,
        parallelism: args.parallelism(),
        ..CampaignConfig::default()
    };
    eprintln!(
        "figure2: {} cells x {} scenarios x {} trials",
        grid.len(),
        cfg.scenarios_per_cell,
        cfg.trials
    );
    let t0 = Instant::now();
    let result = run_campaign(&grid, &cfg);
    exit_on_rejected(&result);
    let (wmins, series) = result.by_wmin(&kinds);
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if result.capped_instances() > 0 || result.degenerate_instances() > 0 {
        eprintln!(
            "excluded from scoring: {} capped, {} degenerate instance(s)",
            result.capped_instances(),
            result.degenerate_instances()
        );
    }

    println!("Figure 2: averaged dfb results vs. wmin\n");
    let headers: Vec<String> = std::iter::once("wmin".to_string())
        .chain(kinds.iter().map(|k| k.name().to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = wmins
        .iter()
        .enumerate()
        .map(|(i, w)| {
            std::iter::once(w.to_string())
                .chain(series.iter().map(|s| format!("{:.2}", s[i])))
                .collect()
        })
        .collect();
    println!("{}", text_table(&header_refs, &rows));

    let labels: Vec<String> = wmins.iter().map(u64::to_string).collect();
    let plot_series: Vec<(&str, Vec<f64>)> = kinds
        .iter()
        .zip(&series)
        .map(|(k, s)| (k.name(), s.clone()))
        .collect();
    println!("{}", ascii_plot(&labels, &plot_series, 60, 16));

    if args.csv {
        let csv_rows: Vec<Vec<String>> = rows;
        println!("{}", csv(&header_refs, &csv_rows));
    }
}
