//! Regenerates **Table 2**: average degradation-from-best and number of
//! wins for all 17 heuristics over the full Table-1 grid.
//!
//! ```text
//! cargo run -p vg-exp --release --bin table2 -- [--scenarios K] [--trials T]
//!                                               [--paper-scale] [--csv]
//! ```
//!
//! Paper reference (296,400 instances): EMCT 4.77 / EMCT* 4.81 / MCT 5.35 /
//! MCT* 5.46 / UD* 7.06 / UD 8.09 / LW* 11.15 / LW 12.74 / Random*w ≈ 28–31 /
//! Random* ≈ 44–48. Expect the same ordering (up to neighbor swaps) at
//! reduced scale; absolute values drift with the instance sample.

use std::time::Instant;
use vg_exp::campaign::{run_campaign, CampaignConfig};
use vg_exp::cli::{exit_on_rejected, ExpArgs};
use vg_exp::report::{csv, summary_table};
use vg_exp::scenario::ScenarioParams;

fn main() {
    let args = ExpArgs::from_env();
    let grid = ScenarioParams::table1_grid();
    let cfg = CampaignConfig {
        scenarios_per_cell: args.scenarios,
        trials: args.trials,
        master_seed: args.seed,
        parallelism: args.parallelism(),
        ..CampaignConfig::default()
    };
    let instances = grid.len() * cfg.scenarios_per_cell * cfg.trials as usize;
    eprintln!(
        "table2: {} cells x {} scenarios x {} trials = {} instances x {} heuristics",
        grid.len(),
        cfg.scenarios_per_cell,
        cfg.trials,
        instances,
        cfg.heuristics.len()
    );
    let t0 = Instant::now();
    let result = run_campaign(&grid, &cfg);
    exit_on_rejected(&result);
    let summaries = result.summarize();
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if result.capped_instances() > 0 || result.degenerate_instances() > 0 {
        eprintln!(
            "excluded from scoring: {} capped instance(s) (no heuristic finished), {} degenerate instance(s) (best makespan 0)",
            result.capped_instances(),
            result.degenerate_instances()
        );
    }

    println!("Table 2: results over all problem instances\n");
    println!("{}", summary_table(&summaries));

    if args.csv {
        let rows: Vec<Vec<String>> = summaries
            .iter()
            .map(|s| {
                vec![
                    s.kind.name().to_string(),
                    format!("{:.4}", s.dfb.mean()),
                    format!("{:.4}", s.dfb.std_dev()),
                    s.wins.to_string(),
                    s.dfb.count().to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            csv(
                &["algorithm", "avg_dfb", "sd_dfb", "wins", "instances"],
                &rows
            )
        );
    }
}
