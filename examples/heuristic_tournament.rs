//! A miniature Table-2 campaign on one grid cell: all 17 heuristics,
//! several sampled scenarios and trials, degradation-from-best and wins —
//! the paper's evaluation methodology end to end through the library API.
//!
//! ```text
//! cargo run --release --example heuristic_tournament
//! ```

use volatile_grid::exp::cli::ExpArgs;
use volatile_grid::exp::report::text_table;
use volatile_grid::exp::scenario::ScenarioParams;
use volatile_grid::exp::HeuristicSummary;
use volatile_grid::prelude::*;

fn main() {
    // One volatile cell: n = 20 tasks, ncom = 5 channels, wmin = 5 (tasks
    // long relative to availability intervals — the regime where the
    // failure-aware heuristics shine, per Figure 2).
    let cell = ScenarioParams::paper(20, 5, 5);
    let args = ExpArgs {
        scenarios: 5,
        trials: 2,
        seed: 42,
        ..ExpArgs::default()
    };
    println!(
        "tournament: 17 heuristics × {} scenarios × {} trials on (n={}, ncom={}, wmin={})\n",
        args.scenarios, args.trials, cell.n_tasks, cell.ncom, cell.wmin
    );
    let result = args.campaign(&HeuristicKind::ALL, &[cell], SimOptions::default(), false);
    let summaries = result.summarize();
    let rows: Vec<_> = summaries.iter().map(HeuristicSummary::row).collect();
    println!("{}", text_table(&rows));

    let champion = &summaries[0];
    println!(
        "champion: {} with mean dfb {:.2}% over {} instances",
        champion.kind,
        champion.dfb.mean(),
        champion.dfb.count()
    );
}
