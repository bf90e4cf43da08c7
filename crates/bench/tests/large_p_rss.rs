//! Platform-scale memory-footprint smoke test: a `p = 131072` run must fit
//! the SoA store's expected per-worker budget.
//!
//! The dense columns cost a few hundred bytes per worker (state/occupancy
//! bytes, copy slots, delay estimates, change-feed bits, block summaries, the
//! availability chains and snapshot buffers), so the whole platform should
//! stay within a ~1 KiB/worker envelope plus a fixed process baseline —
//! an accidental `O(p)` *per-slot* or per-task allocation (or a dense
//! `p × m` structure) blows through that envelope immediately, which is
//! exactly what this test exists to catch. The reading is the kernel's
//! process-wide `VmHWM`, so this file must stay its own integration-test
//! binary (one process, no unrelated allocations in the high-water mark).
//!
//! This is a *smoke* test: few slots, one heuristic — the throughput story
//! lives in the `slotloop` bench cells and the byte-identity story in the
//! `golden_grid` grid (p = 16384 row).

use vg_bench::{paper_app, paper_platform, peak_rss_bytes};
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_sim::{AppSpec, Availability, PlacementBudget, RunSpec, SimOptions, Simulation};

#[cfg(target_os = "linux")]
#[test]
fn p_131072_run_stays_within_the_per_worker_memory_budget() {
    let p = 131_072usize;
    let platform = paper_platform(p, (p / 10).max(2), 2, 11);
    let app = paper_app(4096, 2, 2, 1);
    let options = SimOptions {
        max_slots: 6,
        replication: true,
        max_extra_replicas: 2,
        record_timeline: false,
        placement_budget: PlacementBudget::BindCapacity,
    };
    let report = Simulation::new(RunSpec::new(
        &platform,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(2)),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        options,
    ))
    .expect("valid platform-scale run")
    .run();
    assert!(report.slots_run > 0);

    let rss = peak_rss_bytes();
    assert!(
        rss > 0,
        "VmHWM unavailable — cannot smoke-test the footprint"
    );
    // Budget: 1 KiB per worker for every per-worker structure in the
    // process (store columns, chains, traces, snapshots, scratch) plus a
    // 64 MiB fixed baseline for the binary, the task state, and allocator
    // slack. p = 131072 ⇒ 192 MiB ceiling; the run fits comfortably
    // today, so tripping this means a platform-sized structure was
    // duplicated or a per-slot allocation scales with p.
    let budget = 64 * (1 << 20) + (p as u64) * 1024;
    assert!(
        rss <= budget,
        "peak RSS {} MiB exceeds the platform-scale budget {} MiB \
         (≈{} bytes/worker)",
        rss >> 20,
        budget >> 20,
        rss / p as u64,
    );
}
