//! Per-phase wall-clock split of the slot loop, at several platform sizes.
//!
//! Run with:
//! `cargo bench -p vg-bench --bench phase_profile`
//!
//! Backs the ROADMAP's per-phase cost-split claims (which phase is the next
//! lever) with a reproducible measurement instead of ad-hoc instrumentation,
//! including the crash pass on its own and the schedule phase's sub-split
//! (view sync / pool placement / candidates / replica placement). Besides the
//! human-readable lines it emits a machine-readable JSON artifact
//! (`target/BENCH_phase_profile.json`, override with
//! `BENCH_PHASE_PROFILE_OUT`) that CI uploads next to `BENCH_slotloop.json`
//! so the split's trajectory is tracked across PRs. Each cell's engine owns
//! a [`PhaseTimer`], so the split is that engine's alone.

use vg_bench::{paper_app, paper_platform};
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::paired::{Report, Row};
use vg_sim::{
    AppSpec, Availability, PhaseTimer, PlacementBudget, RunSpec, SimOptions, Simulation, WorkerSoA,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut rows = Vec::new();
    // The uncapped sweep carries the historical split; the capped p = 1024
    // cell shows where the slot budget goes once demand-driven placement
    // has collapsed the pool_place bucket.
    let grid = [
        (20usize, PlacementBudget::Uncapped),
        (32, PlacementBudget::Uncapped),
        (256, PlacementBudget::Uncapped),
        (1024, PlacementBudget::Uncapped),
        (1024, PlacementBudget::BindCapacity),
        // Platform-scale rows: where the change-fed passes and the
        // persistent selector lanes live or die. The p = 131072 row has
        // the shape of perfbench's `platform_scale` workload (m = 2048,
        // wmin = 2, ncom = p/10, EMCT*, replication on, uncapped).
        (16_384, PlacementBudget::Uncapped),
        (16_384, PlacementBudget::BindCapacity),
        (131_072, PlacementBudget::Uncapped),
    ];
    for (p, placement) in grid {
        let capped = placement == PlacementBudget::BindCapacity;
        let platform = paper_platform(p, (p / 10).max(2), 2, 11);
        let budget: u64 = if quick { 100_000 } else { 1_000_000 };
        let max_slots = (budget / p as u64).max(100);
        // Same application regime as the slotloop cells: `m = 2p` for the
        // historical small-p trajectory, a fixed volunteer-grid app at
        // platform scale.
        let m = if p > 1024 { 2048 } else { 2 * p };
        let app = paper_app(m, max_slots, 2, 1);
        // Seeded construction picks the dense Markov bank — the same
        // source path the slotloop cells measure.
        let mut sim = Simulation::<WorkerSoA, PhaseTimer>::with_probe(RunSpec::new(
            &platform,
            &[AppSpec::rigid(app)],
            Availability::Seeded(SeedPath::root(2)),
            HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
            SimOptions {
                max_slots,
                replication: true,
                record_timeline: false,
                placement_budget: placement,
            },
        ))
        .expect("valid configuration");
        // Warm up outside the measured window, then profile the remainder.
        for _ in 0..(max_slots / 10).max(10) {
            sim.step();
        }
        *sim.probe() = PhaseTimer::default();
        while !sim.is_done() {
            sim.step();
        }
        let PhaseTimer { nanos, sub } = *sim.probe();
        let total: u64 = nanos.iter().sum();
        let pct = |n: u64| 100.0 * n as f64 / total.max(1) as f64;
        print!("phase_profile p={p:<5} capped={capped:<5}");
        for (name, n) in PhaseTimer::NAMES.iter().zip(nanos) {
            print!(" {name}={:.1}%", pct(n));
        }
        println!(
            " (total {:.3}s over {} slots)",
            total as f64 / 1e9,
            sim.slots_run()
        );
        print!("  sched sub:");
        for (name, n) in PhaseTimer::SUB_NAMES.iter().zip(sub) {
            print!(" {name}={:.1}%", pct(n));
        }
        println!();

        let mut row = Row::default()
            .with("p", p)
            .with("capped", capped)
            .with("slots", sim.slots_run())
            .with("total_seconds", total as f64 / 1e9);
        for (name, n) in PhaseTimer::NAMES.iter().zip(nanos) {
            row = row.with(format!("{name}_pct"), pct(n));
        }
        for (name, n) in PhaseTimer::SUB_NAMES.iter().zip(sub) {
            row = row.with(format!("schedule.{name}_pct"), pct(n));
        }
        rows.push(row);
    }

    let mut report = Report::default();
    report.rows("phase_profile", &rows);
    // Default under the workspace target/ (anchored to the manifest — bench
    // binaries run with the package dir as cwd); CI overrides via the env
    // var, same pattern as the slotloop artifact.
    let default = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_phase_profile.json"
    );
    let out = report
        .write("BENCH_PHASE_PROFILE_OUT", default)
        .expect("write phase-profile output");
    println!("wrote {out}");
}
