//! Campaign throughput: instances simulated per second through the batched,
//! arena-reusing pipeline (`run_campaign`) versus the PR 1 per-unit runner
//! (`run_campaign_reference`), at sequential and auto parallelism — the
//! numerator of every "how long will the paper-scale campaign take"
//! estimate.
//!
//! Like `slotloop`, this target emits machine-readable JSON
//! (`BENCH_campaign.json`, override with `BENCH_CAMPAIGN_OUT`) so CI can
//! track the campaign-throughput trajectory across PRs. The `speedup` field
//! of the batched/auto row is relative to the per-unit runner at the same
//! parallelism — the acceptance metric of the batching work.

use std::time::Instant;
use vg_core::HeuristicKind;
use vg_des::par::ParallelismConfig;
use vg_exp::campaign::{run_campaign, run_campaign_reference, CampaignConfig, CampaignResult};
use vg_exp::paired::{Report, Row, Value};
use vg_exp::scenario::ScenarioParams;

/// Times `run` after a warm-up pass, prints the cell and returns its row
/// and its instances per second.
fn time_runner(
    runner: &'static str,
    parallelism: &'static str,
    cells: &[ScenarioParams],
    cfg: &CampaignConfig,
    run: impl Fn(&[ScenarioParams], &CampaignConfig) -> CampaignResult,
) -> (Row, f64) {
    // One warm-up pass at reduced size (allocator and branch predictors).
    let warm_cfg = CampaignConfig {
        scenarios_per_cell: 1,
        trials: 1,
        ..cfg.clone()
    };
    let warm = run(cells, &warm_cfg);
    assert!(warm.instances > 0);

    let start = Instant::now();
    let result = run(cells, cfg);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(result.capped_instances(), 0, "bench cells must complete");
    // Worker threads the row actually ran with, recorded so a baseline
    // from a machine with a different core count is recognizably
    // incomparable.
    let threads = cfg.parallelism.threads();
    let instances = result.instances;
    let rate = instances as f64 / seconds;
    println!(
        "campaign runner={runner:<9} parallelism={parallelism:<10} threads={threads} {rate:>8.1} instances/sec ({instances} instances in {seconds:.3}s)"
    );
    let row = Row::default()
        .with("runner", runner)
        .with("parallelism", parallelism)
        .with("threads", threads)
        .with("instances", instances)
        .with("seconds", seconds)
        .with("instances_per_sec", rate);
    (row, rate)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Two representative Table-1 cells: the smallest (setup-dominated) and a
    // mid-grid one (simulation-dominated), so the batching win is averaged
    // over both regimes rather than cherry-picked.
    let grid = vec![
        ScenarioParams::paper(5, 5, 1),
        ScenarioParams::paper(10, 10, 2),
    ];
    let cfg = CampaignConfig {
        heuristics: HeuristicKind::ALL.to_vec(),
        scenarios_per_cell: if quick { 2 } else { 8 },
        trials: if quick { 2 } else { 5 },
        master_seed: 42,
        parallelism: ParallelismConfig::Sequential,
        ..CampaignConfig::default()
    };

    let mut rows = Vec::new();
    let mut speedup_auto = f64::NAN;
    // The fixed(4) row deliberately oversubscribes a 1-core container:
    // ROADMAP notes BENCH_campaign.json was measured on one core, where
    // "auto" degenerates to a single worker. A pinned multi-worker cell
    // keeps the thread-pool + channel machinery (claim contention, in-order
    // consume) on the measured path regardless of the host's core count.
    for (parallelism, label) in [
        (ParallelismConfig::Sequential, "sequential"),
        (ParallelismConfig::Auto, "auto"),
        (ParallelismConfig::fixed(4), "fixed4"),
    ] {
        let cfg = CampaignConfig {
            parallelism,
            ..cfg.clone()
        };
        let (per_unit, per_unit_rate) =
            time_runner("per_unit", label, &grid, &cfg, run_campaign_reference);
        let (batched, batched_rate) = time_runner("batched", label, &grid, &cfg, run_campaign);
        if label == "auto" {
            speedup_auto = batched_rate / per_unit_rate;
        }
        rows.extend([per_unit, batched]);
    }
    println!("batched vs per-unit at auto parallelism: {speedup_auto:.2}x");

    let mut report = Report::default();
    report.rows("benchmarks", &rows);
    report.line(&Row::default().with(
        "batched_vs_per_unit_auto_speedup",
        Value::Real3(speedup_auto),
    ));
    // Default under the workspace target/ so local runs don't dirty the
    // tracked BENCH_campaign.json trajectory anchor; CI overrides via the
    // env var. (Bench binaries run with the package dir as cwd, so the
    // default is anchored to the manifest, not the cwd.)
    let default = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_campaign.json"
    );
    let out = report
        .write("BENCH_CAMPAIGN_OUT", default)
        .expect("write bench output");
    println!("wrote {out}");
}
