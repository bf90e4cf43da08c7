//! Regenerates **Table 3**: the contention-prone experiments. Communication
//! times are scaled ×5 (`T_data = 5·wmin`, `T_prog = 25·wmin`) and ×10 on
//! the `n = 20, ncom = 5, wmin = 1` cell; only the 8 greedy heuristics are
//! compared (the paper's table).
//!
//! ```text
//! cargo run -p vg-exp --release --bin table3 -- [--scenarios K] [--trials T]
//! ```
//!
//! Paper reference — ×5: EMCT* 3.87, MCT* 4.10, UD* 5.23, EMCT 6.13,
//! UD 6.42, MCT 7.70, LW* 8.76, LW 10.11. ×10: UD* 2.76, UD 3.20,
//! EMCT* 3.66, LW* 4.02, MCT* 4.22, LW 4.46, EMCT 8.02, MCT 15.50.
//! The headline shape: starred (contention-aware) variants overtake their
//! plain twins, and UD* tops the ×10 column.

use std::time::Instant;
use vg_core::HeuristicKind;
use vg_exp::campaign::{run_campaign, CampaignConfig};
use vg_exp::cli::{exit_on_rejected, ExpArgs};
use vg_exp::report::{csv, summary_table};
use vg_exp::scenario::ScenarioParams;

fn main() {
    let args = ExpArgs::from_env();
    // The paper runs 100 scenarios x 10 trials per scale; our default is
    // smaller unless --paper-scale (which for this table means 100 x 10).
    let scenarios = if args.paper_scale {
        100
    } else {
        args.scenarios.max(4)
    };
    let trials = if args.paper_scale { 10 } else { args.trials };

    for scale in [5u64, 10] {
        let cell = ScenarioParams::contention_prone(scale);
        let cfg = CampaignConfig {
            heuristics: HeuristicKind::GREEDY.to_vec(),
            scenarios_per_cell: scenarios,
            trials,
            master_seed: args.seed,
            parallelism: args.parallelism(),
            ..CampaignConfig::default()
        };
        eprintln!(
            "table3 x{scale}: {} scenarios x {} trials",
            cfg.scenarios_per_cell, cfg.trials
        );
        let t0 = Instant::now();
        let result = run_campaign(std::slice::from_ref(&cell), &cfg);
        exit_on_rejected(&result);
        let summaries = result.summarize();
        eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
        if result.capped_instances() > 0 || result.degenerate_instances() > 0 {
            eprintln!(
                "excluded from scoring: {} capped, {} degenerate instance(s)",
                result.capped_instances(),
                result.degenerate_instances()
            );
        }

        println!("Table 3: communication times x{scale}\n");
        println!("{}", summary_table(&summaries));

        if args.csv {
            let rows: Vec<Vec<String>> = summaries
                .iter()
                .map(|s| {
                    vec![
                        format!("x{scale}"),
                        s.kind.name().to_string(),
                        format!("{:.4}", s.dfb.mean()),
                        s.wins.to_string(),
                    ]
                })
                .collect();
            println!("{}", csv(&["scale", "algorithm", "avg_dfb", "wins"], &rows));
        }
    }
}
