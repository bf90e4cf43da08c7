//! Model-misspecification study (the paper's Section-8 "next step"):
//! true availability is a heavy-tailed semi-Markov process; the scheduler's
//! Markov beliefs are fitted from training traces. Compares the greedy
//! heuristics' dfb under the Markov truth (paper setting) and under the
//! semi-Markov truth, at matched time scales.
//!
//! ```text
//! cargo run -p vg-exp --release --bin robustness -- [--scenarios K] [--trials T]
//! ```

use std::time::Instant;
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::campaign::{run_instance, CampaignConfig, CellStats, InstanceOutcome};
use vg_exp::cli::ExpArgs;
use vg_exp::report::{summary_table, text_table};
use vg_exp::robustness::{expected_up_occupancy, make_robustness_scenario, RobustnessParams};
use vg_exp::scenario::{make_scenario, Scenario, ScenarioParams};
use vg_exp::HeuristicSummary;
use vg_sim::SimArena;

/// Folds instances through the campaign's shared scoring routine, so capped
/// and degenerate instances are excluded here exactly as in Table 2 (a
/// burned slot cap is a lower bound, never a makespan or a win).
fn summarize(
    label: &str,
    outcomes: &[InstanceOutcome],
    kinds: &[HeuristicKind],
) -> Vec<HeuristicSummary> {
    let mut stats = CellStats::new(kinds.len());
    for outcome in outcomes {
        stats.absorb(outcome);
    }
    let mut out: Vec<HeuristicSummary> = kinds
        .iter()
        .enumerate()
        .map(|(h, &kind)| HeuristicSummary {
            kind,
            dfb: stats.dfb[h],
            wins: stats.wins[h],
            capped_runs: stats.capped_runs[h],
        })
        .collect();
    out.sort_by(|a, b| a.dfb.mean().total_cmp(&b.dfb.mean()));
    println!("{label}\n");
    if stats.capped_instances > 0 || stats.degenerate_instances > 0 {
        println!(
            "(excluded from scoring: {} capped, {} degenerate instance(s))\n",
            stats.capped_instances, stats.degenerate_instances
        );
    }
    println!("{}", summary_table(&out));
    out
}

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
    let scenarios = args.scenarios.max(4);

    println!(
        "robustness: true availability semi-Markov (Weibull shape {}, mean UP {} slots, UP occupancy {:.2})",
        rp.up_shape,
        rp.up_mean,
        expected_up_occupancy(&rp)
    );
    println!(
        "scheduler belief: Markov chain fitted on {} training slots\n",
        rp.training_slots
    );

    let t0 = Instant::now();
    let root = SeedPath::root(args.seed);

    // Each arm runs every trial of its scenarios through the campaign's
    // instance runner; a rejected instance ends the study.
    let mut arena = SimArena::new();
    let mut arm = |arm: usize, scenario_of: &dyn Fn(u64) -> Scenario| {
        let mut outcomes: Vec<InstanceOutcome> = Vec::new();
        for s_idx in 0..scenarios {
            let scenario = scenario_of(s_idx as u64);
            let chains: Vec<_> = scenario.platform.chain_stats().collect();
            for trial in 0..args.trials {
                match run_instance(&mut arena, &scenario, &chains, &cfg, arm, s_idx, trial) {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => {
                        eprintln!("error: arm {arm}, scenario {s_idx}, trial {trial}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        outcomes
    };

    // Arm A: the paper's setting (Markov truth, exact belief).
    let markov_outcomes = arm(0, &|s| {
        make_scenario(params, root.child_str("mk-scn").child(s))
    });
    let markov_summaries = summarize(
        "Arm A — Markov truth (paper setting)",
        &markov_outcomes,
        &kinds,
    );

    // Arm B: semi-Markov truth, fitted belief.
    let semi_outcomes = arm(1, &|s| {
        make_robustness_scenario(params, &rp, root.child_str("sm-scn").child(s))
    });
    let semi_summaries = summarize(
        "Arm B — semi-Markov truth, fitted Markov belief",
        &semi_outcomes,
        &kinds,
    );
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());

    // Head-to-head: how much of each failure-aware heuristic's edge survives.
    let rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|k| {
            let a = markov_summaries
                .iter()
                .find(|s| s.kind == *k)
                .expect("present");
            let b = semi_summaries
                .iter()
                .find(|s| s.kind == *k)
                .expect("present");
            vec![
                k.name().to_string(),
                format!("{:.2}", a.dfb.mean()),
                format!("{:.2}", b.dfb.mean()),
                format!("{:+.2}", b.dfb.mean() - a.dfb.mean()),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["Algorithm", "dfb (Markov)", "dfb (semi-Markov)", "delta"],
            &rows
        )
    );
}
