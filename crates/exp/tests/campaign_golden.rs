//! The campaign half of the golden-digest corpus: `run_campaign`'s
//! per-instance outcomes pinned to `golden/campaign_digests.txt`.
//!
//! A tiny grid runs all 17 heuristics under each of the four
//! [`VolatilitySpec`] families (independent chains, a scripted mass kill,
//! correlated bursts and a diurnal phase) and both placement budgets. Each
//! row is the FNV-1a-64 digest of one [`InstanceOutcome`]'s `Debug` string:
//! the cell, every heuristic's makespan (or burned cap) and its completion
//! flag. The rows therefore pin the whole arena path of a campaign — trace
//! recording, shared-trace replay, fault overlays and correlated row
//! sources — and the reference runner must reproduce them too. The format
//! and the no-bless rule are the engine corpus's (`docs/oracle.md`).

use vg_core::HeuristicKind;
use vg_des::par::ParallelismConfig;
use vg_exp::scenario::VolatilitySpec;
use vg_exp::{run_campaign, run_campaign_reference, CampaignConfig, ScenarioParams};
use vg_sim::{PlacementBudget, SimOptions};

/// The committed corpus: `<section> <row identity> <digest>` lines.
const GOLDEN: &str = include_str!("golden/campaign_digests.txt");

/// FNV-1a-64 of a value's `Debug` string.
fn digest(value: &impl std::fmt::Debug) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The four volatility families, labelled for the corpus.
const FAMILIES: [(&str, VolatilitySpec); 4] = [
    ("independent", VolatilitySpec::Independent),
    (
        "mass-kill",
        VolatilitySpec::MassKill {
            pct: 50,
            at: 10,
            lasts: 40,
        },
    ),
    (
        "bursts",
        VolatilitySpec::CorrelatedBursts {
            groups: 3,
            p_fail: 0.02,
            p_recover: 0.05,
        },
    ),
    (
        "diurnal",
        VolatilitySpec::Diurnal {
            groups: 2,
            period: 40,
            off_len: 15,
            stagger: 20,
        },
    ),
];

/// Two paper cells: one with twice as many tasks as processors, so the
/// bind-capacity cap engages, and one with fewer tasks than processors.
fn cells(volatility: VolatilitySpec) -> Vec<ScenarioParams> {
    [(40, 5, 1), (5, 5, 3)]
        .into_iter()
        .map(|(n, ncom, wmin)| ScenarioParams {
            iterations: 3,
            ..ScenarioParams::paper(n, ncom, wmin).with_volatility(volatility)
        })
        .collect()
}

#[test]
fn campaign_outcomes_match_the_committed_digests() {
    let mut actual = Vec::new();
    for (family, volatility) in FAMILIES {
        for (budget, placement_budget) in [
            ("uncapped", PlacementBudget::Uncapped),
            ("bind-capacity", PlacementBudget::BindCapacity),
        ] {
            let cfg = CampaignConfig {
                heuristics: HeuristicKind::ALL.to_vec(),
                scenarios_per_cell: 2,
                trials: 1,
                master_seed: 17,
                parallelism: ParallelismConfig::fixed(2),
                sim: SimOptions {
                    placement_budget,
                    ..SimOptions::default()
                },
                keep_outcomes: true,
            };
            let grid = cells(volatility);
            let result = run_campaign(&grid, &cfg);
            let outcomes = result.outcomes.expect("outcomes kept");
            assert_eq!(outcomes.len(), 4, "{family} {budget}: grid shape drifted");
            let reference = run_campaign_reference(&grid, &cfg);
            assert_eq!(
                reference.outcomes.as_ref(),
                Some(&outcomes),
                "{family} {budget}: the reference runner diverged"
            );
            for (i, outcome) in outcomes.iter().enumerate() {
                actual.push(format!(
                    "campaign {family} {budget} instance={i} {}",
                    digest(outcome)
                ));
            }
        }
    }
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    if expected != actual {
        for i in 0..expected.len().max(actual.len()) {
            let (e, a) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
            if e != a {
                eprintln!("row {i}: expected {e:?}, actual {a:?}");
            }
        }
        eprintln!("actual corpus rows:");
        for row in &actual {
            eprintln!("{row}");
        }
        panic!(
            "{} recomputed rows disagree with the {} committed ones",
            actual.len(),
            expected.len()
        );
    }
}
