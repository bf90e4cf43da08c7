//! # vg-exp — the evaluation campaign of Section 7
//!
//! Regenerates every table and figure of Casanova, Dufossé, Robert & Vivien
//! (IPDPS 2011):
//!
//! | artifact | binary | module |
//! |---|---|---|
//! | Table 1 (parameter grid) | `table1` | [`scenario`] |
//! | Table 2 (dfb + wins, all 17 heuristics) | `table2` | [`campaign`] |
//! | Figure 2 (dfb vs `wmin`, same campaign) | `table2` | [`campaign`] |
//! | Table 3 (contention-prone, ×5/×10) | `table3` | [`campaign`] + [`scenario`] |
//! | Figure 1 (Theorem-1 gadget) | `figure1` | `vg_offline::reduction` |
//! | robustness study (Section-8 future work) | `robustness` | [`robustness`] |
//! | bind-capacity cap fidelity | `cap_fidelity` | [`paired`] |
//! | chaos robustness | `chaos_robustness` | [`paired`] + [`scenario`] |
//! | moldable + co-scheduling fidelity | `mold_cosched` | [`paired`] + the multi-app engine |
//!
//! All binaries but `table1`, `figure1` and `sweep` accept `--scenarios`,
//! `--trials`, `--seed`, `--threads`, `--paper-scale` and `--quick` (see
//! [`cli::USAGE`]), run their campaigns through
//! [`cli::ExpArgs::campaign`], and write their results as [`paired::Row`]s
//! to `target/<BINARY>.json` through [`paired::Report`]; the same rows
//! render the stdout tables ([`report::text_table`]). Scaled-down
//! defaults run in minutes on a laptop; `--paper-scale` reproduces the
//! full 247 × 10 campaign.

pub mod campaign;
pub mod cli;
pub mod paired;
pub mod report;
pub mod robustness;
pub mod scenario;

pub use campaign::{
    instance_seeds, run_campaign, run_campaign_reference, run_instance, scenario_seed,
    CampaignConfig, CampaignResult, CellStats, HeuristicSummary, InstanceOutcome,
};
pub use scenario::{make_scenario, Scenario, ScenarioParams};
