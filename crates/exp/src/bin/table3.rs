//! Regenerates **Table 3**: the contention-prone experiments. Communication
//! times are scaled ×5 (`T_data = 5·wmin`, `T_prog = 25·wmin`) and ×10 on
//! the `n = 20, ncom = 5, wmin = 1` cell; only the 8 greedy heuristics are
//! compared (the paper's table).
//!
//! ```text
//! cargo run -p vg-exp --release --bin table3 -- [--scenarios K] [--trials T]
//!                                               [--paper-scale]
//! ```
//!
//! `--paper-scale` runs the paper's 100 scenarios × 10 trials per scale.
//! Writes both scales' rows to `$TABLE3_OUT` (default `target/TABLE3.json`).
//!
//! Paper reference — ×5: EMCT* 3.87, MCT* 4.10, UD* 5.23, EMCT 6.13,
//! UD 6.42, MCT 7.70, LW* 8.76, LW 10.11. ×10: UD* 2.76, UD 3.20,
//! EMCT* 3.66, LW* 4.02, MCT* 4.22, LW 4.46, EMCT 8.02, MCT 15.50.
//! The headline shape: starred (contention-aware) variants overtake their
//! plain twins, and UD* tops the ×10 column.

use vg_core::HeuristicKind;
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{Report, Row};
use vg_exp::report::text_table;
use vg_exp::scenario::ScenarioParams;
use vg_sim::SimOptions;

fn main() {
    let mut args = ExpArgs::from_env();
    if args.paper_scale {
        args.scenarios = 100;
    }
    let roster = HeuristicKind::GREEDY;
    let what = "communication times x5 and x10";
    let mut report = Report::start("table3", &args, 2, roster.len(), what, 1);
    let (mut counts, mut rows) = (Vec::new(), Vec::new());
    for scale in [5u64, 10] {
        let cell = ScenarioParams::contention_prone(scale);
        let result = args.campaign(&roster, &[cell], SimOptions::default(), false);
        let scale_row = Row::default().with("scale", scale);
        counts.push(scale_row.clone().append(result.counts()));
        let table: Vec<Row> = result
            .summarize()
            .iter()
            .map(|s| scale_row.clone().append(s.row()))
            .collect();
        println!("Table 3: communication times x{scale}\n");
        println!("{}", text_table(&table));
        rows.extend(table);
    }
    report.rows("campaigns", &counts);
    report.rows("table3", &rows);
    report.finish().expect("write Table 3 report");
}
