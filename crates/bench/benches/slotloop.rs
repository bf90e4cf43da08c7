//! Slot-loop throughput: slots simulated per second at several platform
//! sizes, with replication on and off — the denominator of every campaign
//! cost estimate, and the regression gate for hot-path work.
//!
//! Emits machine-readable JSON (`BENCH_slotloop.json`, override with
//! `BENCH_SLOTLOOP_OUT`) so CI can track a perf trajectory across PRs and
//! `bench_guard` can gate it.

use std::time::Instant;
use vg_bench::{paper_app, paper_platform, peak_rss_bytes};
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::paired::{Report, Row};
use vg_sim::{AppSpec, Availability, PlacementBudget, RunSpec, SimOptions, Simulation};

/// Runs one cell after a warm-up run, prints it and returns its row.
fn run_cell(p: usize, m: usize, replication: bool, budget: PlacementBudget, max_slots: u64) -> Row {
    let ncom = (p / 10).max(2);
    let platform = paper_platform(p, ncom, 2, 11);
    // Enough work to keep the scheduler busy for the whole horizon: an
    // iteration needs at least one slot, so `max_slots` iterations can
    // never finish before the cap.
    let app = paper_app(m, max_slots, 2, 1);
    let options = SimOptions {
        max_slots,
        replication,
        record_timeline: false,
        placement_budget: budget,
    };
    let run = |options| {
        Simulation::new(RunSpec::new(
            &platform,
            &[AppSpec::rigid(app)],
            Availability::Seeded(SeedPath::root(2)),
            HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
            options,
        ))
        .expect("valid")
        .run()
    };
    // One warm-up run (allocator warm, branch predictors settled).
    let warm = run(SimOptions {
        max_slots: (max_slots / 10).max(10),
        ..options
    });
    assert!(warm.slots_run > 0);

    let start = Instant::now();
    let slots = run(options).slots_run;
    let seconds = start.elapsed().as_secs_f64();
    let capped = budget == PlacementBudget::BindCapacity;
    let slots_per_sec = slots as f64 / seconds;
    // Process-wide peak RSS (`VmHWM`) sampled right after the cell ran.
    // The kernel counter is monotone, so this bounds the footprint of
    // everything up to and including this cell — cells run in ascending
    // `p`, so each platform size's first cell is the meaningful reading.
    let rss = peak_rss_bytes();
    println!(
        "slotloop p={p:<6} replication={replication:<5} capped={capped:<5} {slots_per_sec:>12.0} slots/sec ({slots} slots in {seconds:.3}s, peak rss {} MiB)",
        rss >> 20,
    );
    Row::default()
        .with("p", p)
        .with("replication", replication)
        .with("capped", capped)
        .with("slots", slots)
        .with("seconds", seconds)
        .with("slots_per_sec", slots_per_sec)
        .with("peak_rss_bytes", rss)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows = Vec::new();
    // The platform-scale cells (p ≥ 16384) run reduced slot counts — the
    // constant worker-slot budget floors them near 100 slots — and a
    // *fixed* application size instead of the small cells' `m = 2p`: the
    // production regime those cells model is a volunteer grid whose
    // platform dwarfs any one application (the paper's apps are hundreds
    // of tasks), so most workers are idle most slots and the change-fed
    // passes and the persistent selector lanes are what keep per-slot
    // cost sub-linear in `p`. The same app as the p = 1024 cell makes the
    // naive-extrapolation comparison (same work, 16×/128× the platform)
    // direct. The small cells keep `m = 2p` — their committed trajectory
    // predates this PR and must stay comparable.
    for p in [32usize, 256, 1024, 16_384, 131_072] {
        // Constant total worker-slot budget so each cell costs about the same
        // wall time regardless of platform size.
        let budget: u64 = if quick { 200_000 } else { 4_000_000 };
        let max_slots = (budget / p as u64).max(100);
        let m = if p > 1024 { 2048 } else { 2 * p };
        // Each (p, replication) point runs under both placement budgets:
        // the uncapped cells carry the historical trajectory, the capped
        // ones track the demand-driven placement win.
        for replication in [false, true] {
            for placement in [PlacementBudget::Uncapped, PlacementBudget::BindCapacity] {
                rows.push(run_cell(p, m, replication, placement, max_slots));
            }
        }
    }

    let mut report = Report::default();
    report.rows("benchmarks", &rows);
    // Default under the workspace target/ so local runs don't dirty the
    // tracked BENCH_slotloop.json trajectory anchor; CI overrides via the
    // env var. (Bench binaries run with the package dir as cwd, so the
    // default is anchored to the manifest, not the cwd.)
    let default = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_slotloop.json"
    );
    let out = report
        .write("BENCH_SLOTLOOP_OUT", default)
        .expect("write bench output");
    println!("wrote {out}");
}
