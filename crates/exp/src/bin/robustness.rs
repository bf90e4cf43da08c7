//! Model-misspecification study (the paper's Section-8 "next step"):
//! true availability is a heavy-tailed semi-Markov process; the scheduler's
//! Markov beliefs are fitted from training traces. Compares the greedy
//! heuristics' dfb under the Markov truth (paper setting) and under the
//! semi-Markov truth, at matched time scales.
//!
//! ```text
//! cargo run -p vg-exp --release --bin robustness -- [--scenarios K] [--trials T] [--threads N]
//! ```
//!
//! Writes the setting, each arm's tallies and summary, and the head-to-head
//! rows to `$ROBUSTNESS_OUT` (default `target/ROBUSTNESS.json`).

use vg_core::HeuristicKind;
use vg_des::par::par_map_init_consume;
use vg_des::rng::SeedPath;
use vg_exp::campaign::{run_instance, CampaignConfig, CellStats};
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{Report, Row};
use vg_exp::report::text_table;
use vg_exp::robustness::{expected_up_occupancy, make_robustness_scenario, RobustnessParams};
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_exp::HeuristicSummary;
use vg_sim::SimArena;

fn main() {
    let args = ExpArgs::from_env();
    let kinds = HeuristicKind::GREEDY.to_vec();
    let rp = RobustnessParams::default();
    let params = ScenarioParams::paper(20, 5, 5);
    let cfg = CampaignConfig {
        heuristics: kinds.clone(),
        master_seed: args.seed,
        ..CampaignConfig::default()
    };
    let occupancy = expected_up_occupancy(&rp).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let what = "Markov vs semi-Markov truth";
    let mut report = Report::start("robustness", &args, 1, kinds.len(), what, 2);
    // True availability: Weibull UP sojourns; belief: a Markov chain
    // fitted on `training_slots` slots.
    let setting = Row::default()
        .with("up_shape", rp.up_shape)
        .with("up_mean", rp.up_mean)
        .with("up_occupancy", occupancy)
        .with("training_slots", rp.training_slots);
    report.line(&setting);
    println!("{}", text_table(&[setting]));

    // Each arm runs every trial of its scenarios through the campaign's
    // instance runner, one scenario per work item and one arena per
    // thread. Arm A is the paper's setting (Markov truth, exact belief);
    // arm B is semi-Markov truth with a fitted belief. Results fold in
    // (arm, scenario, trial) order whatever the thread count; a rejected
    // instance ends the study.
    let root = SeedPath::root(args.seed);
    let units: Vec<(usize, usize)> = (0..2)
        .flat_map(|arm| (0..args.scenarios).map(move |s| (arm, s)))
        .collect();
    let mut arms = [CellStats::new(kinds.len()), CellStats::new(kinds.len())];
    par_map_init_consume(
        &units,
        args.parallelism(),
        1,
        SimArena::new,
        |arena, &(arm, s_idx)| {
            let scenario = if arm == 0 {
                make_scenario(params, root.child_str("mk-scn").child(s_idx as u64))
            } else {
                make_robustness_scenario(params, &rp, root.child_str("sm-scn").child(s_idx as u64))
                    .map_err(|e| format!("scenario {s_idx}: {e}"))?
            };
            let chains: Vec<_> = scenario.platform.chain_stats().collect();
            (0..args.trials)
                .map(|trial| {
                    run_instance(arena, &scenario, &chains, &cfg, arm, s_idx, trial)
                        .map_err(|e| format!("arm {arm}, scenario {s_idx}, trial {trial}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        },
        |i, outcomes| match outcomes {
            Ok(outcomes) => outcomes.iter().for_each(|o| arms[units[i].0].absorb(o)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
    );
    let [markov, semi] = arms;

    let (mut tallies, mut summaries) = (Vec::new(), Vec::new());
    for (name, stats) in [("markov", &markov), ("semi_markov", &semi)] {
        let arm = Row::default().with("arm", name);
        tallies.push(
            arm.clone()
                .with("scored_instances", stats.scored_instances)
                .with("capped_instances", stats.capped_instances)
                .with("degenerate_instances", stats.degenerate_instances),
        );
        let table: Vec<Row> = HeuristicSummary::fold(&kinds, [stats])
            .iter()
            .map(|s| arm.clone().append(s.row()))
            .collect();
        println!("{}", text_table(&table));
        summaries.extend(table);
    }
    // Head-to-head: how much of each failure-aware heuristic's edge survives.
    let head_to_head: Vec<Row> = kinds
        .iter()
        .enumerate()
        .map(|(h, kind)| {
            let (a, b) = (markov.dfb[h].mean(), semi.dfb[h].mean());
            let row = Row::default().with("heuristic", kind.name());
            row.with("dfb_markov", a)
                .with("dfb_semi_markov", b)
                .with("delta", b - a)
        })
        .collect();
    println!("{}", text_table(&tallies));
    println!("{}", text_table(&head_to_head));
    report.rows("arms", &tallies);
    report.rows("summaries", &summaries);
    report.rows("head_to_head", &head_to_head);
    report.finish().expect("write robustness report");
}
