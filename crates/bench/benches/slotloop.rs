//! Slot-loop throughput: slots simulated per second at several platform
//! sizes, with replication on and off — the denominator of every campaign
//! cost estimate, and the regression gate for hot-path work.
//!
//! Unlike the criterion benches this target emits machine-readable JSON
//! (`BENCH_slotloop.json`, override with `BENCH_SLOTLOOP_OUT`) so CI can
//! track a perf trajectory across PRs.

use std::fmt::Write as _;
use std::time::Instant;
use vg_bench::{paper_app, paper_platform, peak_rss_bytes};
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_sim::{PlacementBudget, SimOptions, Simulation};

struct Cell {
    p: usize,
    replication: bool,
    capped: bool,
    slots: u64,
    seconds: f64,
    /// Process-wide peak RSS (`VmHWM`) sampled right after the cell ran.
    /// The kernel counter is monotone, so this bounds the footprint of
    /// everything up to and including this cell — cells run in ascending
    /// `p`, so each platform size's first cell is the meaningful reading.
    peak_rss_bytes: u64,
}

impl Cell {
    fn slots_per_sec(&self) -> f64 {
        self.slots as f64 / self.seconds
    }
}

fn run_cell(
    p: usize,
    m: usize,
    replication: bool,
    budget: PlacementBudget,
    max_slots: u64,
) -> Cell {
    let ncom = (p / 10).max(2);
    let platform = paper_platform(p, ncom, 2, 11);
    // Enough work to keep the scheduler busy for the whole horizon: an
    // iteration needs at least one slot, so `max_slots` iterations can
    // never finish before the cap.
    let app = paper_app(m, max_slots, 2, 1);
    let options = SimOptions {
        max_slots,
        replication,
        max_extra_replicas: 2,
        record_timeline: false,
        placement_budget: budget,
    };
    // One warm-up run (allocator warm, branch predictors settled).
    let warm = Simulation::run_seeded(
        &platform,
        &app,
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SeedPath::root(2),
        SimOptions {
            max_slots: (max_slots / 10).max(10),
            ..options
        },
    )
    .expect("valid");
    assert!(warm.slots_run > 0);

    let start = Instant::now();
    let report = Simulation::run_seeded(
        &platform,
        &app,
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SeedPath::root(2),
        options,
    )
    .expect("valid");
    let seconds = start.elapsed().as_secs_f64();
    Cell {
        p,
        replication,
        capped: budget == PlacementBudget::BindCapacity,
        slots: report.slots_run,
        seconds,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut cells = Vec::new();
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
                let cell = run_cell(p, m, replication, placement, max_slots);
                println!(
                    "slotloop p={:<6} replication={:<5} capped={:<5} {:>12.0} slots/sec ({} slots in {:.3}s, peak rss {} MiB)",
                    cell.p,
                    cell.replication,
                    cell.capped,
                    cell.slots_per_sec(),
                    cell.slots,
                    cell.seconds,
                    cell.peak_rss_bytes >> 20,
                );
                cells.push(cell);
            }
        }
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"p\": {}, \"replication\": {}, \"capped\": {}, \"slots\": {}, \"seconds\": {:.6}, \"slots_per_sec\": {:.1}, \"peak_rss_bytes\": {}}}{}",
            c.p,
            c.replication,
            c.capped,
            c.slots,
            c.seconds,
            c.slots_per_sec(),
            c.peak_rss_bytes,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    // Default under the workspace target/ so local runs don't dirty the
    // tracked BENCH_slotloop.json trajectory anchor; CI overrides via the
    // env var. (Bench binaries run with the package dir as cwd, so the
    // default is anchored to the manifest, not the cwd.)
    let out = std::env::var("BENCH_SLOTLOOP_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_slotloop.json"
        )
        .into()
    });
    std::fs::write(&out, &json).expect("write bench output");
    println!("wrote {out}");
}
