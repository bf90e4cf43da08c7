//! A miniature Table-2 campaign on one grid cell: all 17 heuristics,
//! several sampled scenarios and trials, degradation-from-best and wins —
//! the paper's evaluation methodology end to end through the library API.
//!
//! ```text
//! cargo run --release --example heuristic_tournament
//! ```

use volatile_grid::exp::campaign::{run_campaign, CampaignConfig};
use volatile_grid::exp::cli::exit_on_rejected;
use volatile_grid::exp::report::summary_table;
use volatile_grid::exp::scenario::ScenarioParams;
use volatile_grid::prelude::*;

fn main() {
    // One volatile cell: n = 20 tasks, ncom = 5 channels, wmin = 5 (tasks
    // long relative to availability intervals — the regime where the
    // failure-aware heuristics shine, per Figure 2).
    let cell = ScenarioParams::paper(20, 5, 5);
    let cfg = CampaignConfig {
        heuristics: HeuristicKind::ALL.to_vec(),
        scenarios_per_cell: 5,
        trials: 2,
        master_seed: 42,
        parallelism: ParallelismConfig::Auto,
        sim: SimOptions::default(),
        keep_outcomes: false,
    };
    println!(
        "tournament: 17 heuristics × {} scenarios × {} trials on (n={}, ncom={}, wmin={})\n",
        cfg.scenarios_per_cell, cfg.trials, cell.n_tasks, cell.ncom, cell.wmin
    );
    let result = run_campaign(std::slice::from_ref(&cell), &cfg);
    exit_on_rejected(&result);
    let summaries = result.summarize();
    println!("{}", summary_table(&summaries));

    let champion = &summaries[0];
    println!(
        "champion: {} with mean dfb {:.2}% over {} instances",
        champion.kind,
        champion.dfb.mean(),
        champion.dfb.count()
    );
}
