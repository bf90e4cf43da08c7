//! The SoA ⇄ AoS bit-identity oracle.
//!
//! The production engine runs on the [`WorkerSoA`] hot/cold layout; the
//! original `Vec<WorkerRuntime>` path is retained behind the [`AosWorkers`]
//! adapter (`ReferenceSimulation = Simulation<AosWorkers>`), delegating every
//! per-worker operation to the unchanged pre-refactor methods. This harness
//! proves the refactor safe: across the full 17-heuristic × seed ×
//! platform-size × replication grid, the two engines must produce
//! **identical [`SimReport`]s** — makespans, per-iteration completion slots,
//! every counter, and the bandwidth statistic — same pattern as PR 1's
//! 1632-run pin of the zero-allocation slot loop.
//!
//! The same grid also pins the **change-fed vs. from-scratch paths**
//! against each other: the SoA engine patches its persistent snapshot
//! buffer and free mask from the store's change feed, crashes only the
//! workers that just went DOWN, and hands the scheduler per-lane deltas
//! that the greedy families turn into patched persistent winner trees at
//! platform scale; the AoS reference keeps no feed, so it rebuilds every
//! view from scratch, crashes every DOWN worker and never sends a delta. A
//! missed feed entry or a mis-patched lane therefore shows up here as a
//! report divergence (and, in debug builds, as the engine's and the
//! scheduler's per-consult oracles firing first). The `p = 16384` rows run
//! uncapped, capped and two-application rounds with replication on and off,
//! where the candidate count puts every greedy round on the lanes.
//!
//! The grid deliberately includes runs that hit the slot cap (the p = 1024
//! cells): capped runs exercise crash/cancel/replica churn for the whole
//! horizon and compare every counter, which is a stronger equivalence check
//! than a short happy path.

use vg_core::{HeuristicKind, SharePolicy};
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_platform::source::StartPolicy;
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig};
use vg_sim::{AppSpec, PlacementBudget, ReferenceSimulation, SimArena, SimOptions, Simulation};

/// Paper-style platform: Markov chains with diagonals in `[0.90, 0.99]`,
/// speeds in `[2, 20]`.
fn platform(p: usize, ncom: usize, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(2, 20);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom,
    }
}

/// One grid cell: platform size, tasks, iterations, slot cap, trace seeds.
struct Cell {
    p: usize,
    m: usize,
    iterations: u64,
    max_slots: u64,
    seeds: &'static [u64],
}

/// The platform-scale cell of [`GRID`], shared with the lane rows below.
const LARGE: Cell = Cell {
    p: 16_384,
    m: 2_048,
    iterations: 1,
    max_slots: 12,
    seeds: &[41],
};

/// The equivalence grid. Larger platforms get a tighter slot cap so the
/// whole grid stays affordable in debug builds; the p = 1024 cells cap out
/// by design (see the module docs).
const GRID: &[Cell] = &[
    Cell {
        p: 32,
        m: 48,
        iterations: 2,
        max_slots: 20_000,
        seeds: &[11, 12, 13],
    },
    Cell {
        p: 256,
        m: 256,
        iterations: 1,
        max_slots: 1_500,
        seeds: &[21, 22],
    },
    Cell {
        p: 1024,
        m: 768,
        iterations: 1,
        max_slots: 260,
        seeds: &[31],
    },
    // Platform-scale row: u ≥ WINNER_TREE_MIN_UPS puts the greedy rounds
    // on the persistent lane trees and the engine on its change-fed
    // passes, so this cell pins delta-patched ≡ rebuilt (the AoS
    // reference sends no delta and rescans everything). Few slots keep the
    // debug grid affordable; the debug oracles sample at this size (see
    // `exhaustive_debug_checks`), so the bit-identity check here is the
    // full-platform one.
    LARGE,
];

#[test]
fn soa_engine_is_bit_identical_to_aos_reference_across_the_grid() {
    let mut runs = 0usize;
    let mut finished = 0usize;
    for cell in GRID {
        let ncom = (cell.p / 10).max(3);
        for &seed in cell.seeds {
            let platform = platform(cell.p, ncom, seed);
            let app = AppConfig {
                tasks_per_iteration: cell.m,
                iterations: cell.iterations,
                t_prog: 10,
                t_data: 2,
            };
            for replication in [false, true] {
                let options = SimOptions {
                    max_slots: cell.max_slots,
                    replication,
                    max_extra_replicas: 2,
                    record_timeline: false,
                    placement_budget: PlacementBudget::Uncapped,
                };
                for kind in HeuristicKind::ALL {
                    let soa = Simulation::run_seeded(
                        &platform,
                        &app,
                        kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                        SeedPath::root(seed),
                        options,
                    )
                    .unwrap();
                    let aos = ReferenceSimulation::run_seeded_in(
                        &platform,
                        &app,
                        kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                        SeedPath::root(seed),
                        options,
                    )
                    .unwrap();
                    assert_eq!(
                        soa, aos,
                        "SoA/AoS divergence: p={} seed={seed} replication={replication} {kind}",
                        cell.p
                    );
                    runs += 2;
                    finished += usize::from(soa.finished());
                }
            }
        }
    }
    assert_eq!(runs, 17 * 2 * 2 * (3 + 2 + 1 + 1), "grid shape drifted");
    // The grid must exercise both completed and capped runs.
    assert!(
        finished > 0,
        "no run finished — grid too tight to mean much"
    );
    assert!(
        finished < runs / 2,
        "every run finished — the capped-run half of the grid is gone"
    );
}

#[test]
fn multi_app_api_with_single_roster_matches_single_app_api_on_both_layouts() {
    // The application runtime layer's spine contract: a one-application
    // roster under `Fixed` reconfiguration and the default equal-split
    // share, driven through the *multi*-application entry points, must be
    // **byte-identical** to the historical single-application API — same
    // grid, all 17 heuristics, both store layouts. The multi API's combined
    // report is compared field-for-field against `run_seeded`, and the SoA
    // and AoS multi engines are pinned against each other, so a divergence
    // in either the app dispatch or the per-layout plumbing lands here.
    let mut runs = 0usize;
    for cell in GRID {
        let ncom = (cell.p / 10).max(3);
        let seed = cell.seeds[0];
        let platform = platform(cell.p, ncom, seed);
        let app = AppConfig {
            tasks_per_iteration: cell.m,
            iterations: cell.iterations,
            t_prog: 10,
            t_data: 2,
        };
        let specs = [AppSpec::rigid(app)];
        for replication in [false, true] {
            let options = SimOptions {
                max_slots: cell.max_slots,
                replication,
                max_extra_replicas: 2,
                record_timeline: false,
                placement_budget: PlacementBudget::Uncapped,
            };
            for kind in HeuristicKind::ALL {
                let single = Simulation::run_seeded(
                    &platform,
                    &app,
                    kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                    SeedPath::root(seed),
                    options,
                )
                .unwrap();
                let multi = Simulation::run_multi_seeded(
                    &platform,
                    &specs,
                    SharePolicy::default(),
                    kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                    SeedPath::root(seed),
                    options,
                )
                .unwrap();
                let multi_aos = ReferenceSimulation::run_multi_seeded_in(
                    &platform,
                    &specs,
                    SharePolicy::default(),
                    kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                    SeedPath::root(seed),
                    options,
                )
                .unwrap();
                assert_eq!(
                    multi.combined, single,
                    "multi-API combined report diverged from the single-app \
                     API: p={} seed={seed} replication={replication} {kind}",
                    cell.p
                );
                assert_eq!(
                    multi, multi_aos,
                    "multi-API SoA/AoS divergence: p={} seed={seed} \
                     replication={replication} {kind}",
                    cell.p
                );
                // The per-app slice of a one-app roster must agree with the
                // combined report.
                assert_eq!(multi.apps.len(), 1);
                let per_app = &multi.apps[0];
                assert_eq!(per_app.completed_iterations, single.completed_iterations);
                assert_eq!(per_app.makespan, single.makespan);
                assert_eq!(per_app.final_m, cell.m);
                assert_eq!(
                    per_app.tasks_completed, single.counters.tasks_completed,
                    "per-app task credit diverged from the shared counter"
                );
                assert_eq!(
                    per_app.iteration_completed_at,
                    single.iteration_completed_at
                );
                runs += 3;
            }
        }
    }
    assert_eq!(runs, 17 * 2 * 4 * 3, "grid shape drifted");
}

#[test]
fn warmed_arena_matches_cold_engines_of_both_layouts_across_resizes() {
    // PR 2's arena-equality test, extended to the new layout: one arena
    // driven through a grow → shrink → grow platform sequence (dirty
    // buffers from each previous shape) must match a cold SoA engine *and*
    // the cold AoS reference, run for run.
    let mut arena = SimArena::new();
    let plans: &[(usize, usize, bool)] = &[
        (8, 12, true),
        (96, 128, false), // grow
        (4, 3, true),     // shrink
        (96, 128, true),  // regrow onto dirty buffers, replicas on
        (8, 12, true),    // original shape again
    ];
    for (round, &(p, m, replication)) in plans.iter().enumerate() {
        let seed = (round * 100 + p) as u64;
        let platform = platform(p, (p / 10).max(2), seed);
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        let options = SimOptions {
            max_slots: 50_000,
            replication,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [
            HeuristicKind::EmctStar,
            HeuristicKind::Mct,
            HeuristicKind::Random2w,
        ] {
            let warm = arena
                .run_seeded(
                    &platform,
                    &app,
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                )
                .unwrap();
            let cold = Simulation::run_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            let reference = ReferenceSimulation::run_seeded_in(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            assert_eq!(cold, reference, "round {round} {kind}: layout divergence");
        }
    }
}

#[test]
fn capped_runs_leave_no_stale_dirty_bits_across_arena_resizes() {
    // Incremental snapshots live off per-worker dirty bits and a persistent
    // snapshot buffer, both retained by the arena across runs. A *capped*
    // run aborts mid-iteration with pipelines full — every bit set, the
    // buffer full of half-finished delays — which is the worst state to
    // inherit. Drive one arena through grow → shrink → grow with tightly
    // capped runs in between and pin each run against cold engines of both
    // layouts: a leaked bit (or a snapshot patched from another platform's
    // buffer) diverges here.
    let mut arena = SimArena::new();
    let plans: &[(usize, usize, u64)] = &[
        (64, 96, 40),     // capped: aborts with every pipeline mid-flight
        (8, 12, 50_000),  // shrink, runs to completion
        (64, 96, 35),     // regrow onto the capped run's dirty buffers
        (256, 256, 60),   // grow past every previous high-water mark
        (64, 96, 50_000), // the capped shape again, now to completion
    ];
    let mut capped = 0usize;
    for (round, &(p, m, max_slots)) in plans.iter().enumerate() {
        let seed = (round * 1000 + p) as u64;
        let platform = platform(p, (p / 10).max(2), seed);
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        let options = SimOptions {
            max_slots,
            replication: true,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [
            HeuristicKind::EmctStar,
            HeuristicKind::Ud,
            HeuristicKind::Random2w,
        ] {
            let warm = arena
                .run_seeded(
                    &platform,
                    &app,
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                )
                .unwrap();
            let cold = Simulation::run_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            let reference = ReferenceSimulation::run_seeded_in(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            assert_eq!(cold, reference, "round {round} {kind}: layout divergence");
            capped += usize::from(!warm.finished());
        }
    }
    assert!(
        capped >= 6,
        "only {capped} capped runs — the caps are too loose to leave dirty state"
    );
}

/// The heuristics the lane rows run: one greedy family per objective,
/// with and without the Equation-(2) correction — they consume deltas —
/// plus one random family, which must ignore them.
const LANE_KINDS: [HeuristicKind; 5] = [
    HeuristicKind::EmctStar,
    HeuristicKind::Mct,
    HeuristicKind::LwStar,
    HeuristicKind::Ud,
    HeuristicKind::Random2w,
];

#[test]
fn capped_and_two_app_platform_scale_rows_match_the_aos_reference() {
    // Demand-driven rounds send no delta and narrow the candidates to the
    // workers with room; the pool and replica lanes keep accumulating
    // changes across them. Two-application rounds run the replica lane
    // once per application per slot. Both must stay bit-identical to the
    // reference, which rebuilds everything every round.
    let cell = &LARGE;
    let seed = cell.seeds[0];
    let platform = platform(cell.p, cell.p / 10, seed);
    let app = AppConfig {
        tasks_per_iteration: cell.m,
        iterations: cell.iterations,
        t_prog: 10,
        t_data: 2,
    };
    let half = AppConfig {
        tasks_per_iteration: cell.m / 2,
        ..app
    };
    let specs = [AppSpec::rigid(half), AppSpec::rigid(half)];
    // More tasks than workers: the capped pool round engages from the
    // first slot, so it runs on the per-round loser tree with a room
    // column.
    let flood = AppConfig {
        tasks_per_iteration: cell.p + cell.p / 2,
        ..app
    };
    let mut runs = 0usize;
    let mut engaged = 0u64;
    for replication in [false, true] {
        for kind in LANE_KINDS {
            // A few slots suffice: the cap engages from the first one.
            let capped = SimOptions {
                max_slots: 4,
                replication,
                max_extra_replicas: 2,
                record_timeline: false,
                placement_budget: PlacementBudget::BindCapacity,
            };
            let mut sim: Simulation = Simulation::new_seeded(
                &platform,
                &flood,
                kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                SeedPath::root(seed),
                capped,
            )
            .unwrap();
            while !sim.is_done() {
                sim.step();
            }
            engaged += sim.cap_engagements();
            let soa = sim.into_report();
            let aos = ReferenceSimulation::run_seeded_in(
                &platform,
                &flood,
                kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                SeedPath::root(seed),
                capped,
            )
            .unwrap();
            assert_eq!(
                soa, aos,
                "capped divergence: replication={replication} {kind}"
            );
            let options = SimOptions {
                max_slots: cell.max_slots,
                placement_budget: PlacementBudget::Uncapped,
                ..capped
            };
            let soa = Simulation::run_multi_seeded(
                &platform,
                &specs,
                SharePolicy::default(),
                kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                SeedPath::root(seed),
                options,
            )
            .unwrap();
            let aos = ReferenceSimulation::run_multi_seeded_in(
                &platform,
                &specs,
                SharePolicy::default(),
                kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                SeedPath::root(seed),
                options,
            )
            .unwrap();
            assert_eq!(
                soa, aos,
                "two-app divergence: replication={replication} {kind}"
            );
            runs += 1;
        }
    }
    assert_eq!(runs, 2 * LANE_KINDS.len(), "row shape drifted");
    assert!(engaged > 0, "the capped rows never engaged the cap");
}

#[test]
fn warmed_arena_does_not_carry_lanes_across_same_size_platforms() {
    // Two different platforms of the same size back to back through one
    // arena: every buffer the lanes hang off (snapshot, free mask, pending
    // change sets, sequence numbers) has the right length for the second
    // platform, so only the run-start invalidation keeps the first
    // platform's lane state out of it. A small application finishes within
    // the cap, so each warm run's makespan is a real trajectory signal; it
    // must match cold engines of both layouts, whose full reports must
    // match each other.
    let p = LARGE.p;
    let mut arena = SimArena::new();
    let mut finished = 0usize;
    for (round, seed) in [41u64, 42, 41].into_iter().enumerate() {
        let platform = platform(p, p / 10, seed);
        let app = AppConfig {
            tasks_per_iteration: 48,
            iterations: 2,
            t_prog: 10,
            t_data: 2,
        };
        let options = SimOptions {
            max_slots: 2_000,
            replication: true,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [HeuristicKind::EmctStar, HeuristicKind::Lw] {
            let warm = arena
                .run_seeded(
                    &platform,
                    &app,
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                )
                .unwrap();
            let cold = Simulation::run_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            let reference = ReferenceSimulation::run_seeded_in(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            assert_eq!(cold, reference, "round {round} {kind}: layout divergence");
            finished += usize::from(warm.finished());
        }
    }
    assert_eq!(
        finished, 6,
        "every run must finish for its makespan to count"
    );
}
