//! The golden-digest grid: the engine's reports pinned to a committed
//! corpus.
//!
//! Every row below runs the engine and recomputes an FNV-1a-64 digest of its
//! [`SimReport`] or [`MultiReport`] `Debug` string — makespans,
//! per-iteration completion slots, every counter and the bandwidth
//! statistic — then checks it against `golden/grid_digests.txt`. The corpus
//! was generated while a second worker-store layout still ran the same
//! grid, with both engines agreeing on every row, so it records that
//! agreed behaviour. It covers what the Section-3 oracle
//! (`tests/section3_oracle.rs`) leaves out: the 17-heuristic × seed ×
//! platform-size × replication grid up to `p = 16384`, where the greedy
//! rounds run on persistent lane trees fed by the change-fed views; the
//! multi-application API with a one-app roster; warmed arenas across
//! platform resizes; capped and two-application rows at platform scale;
//! co-scheduled rosters on small platforms under every share policy; and
//! arena reuse across same-size platforms. A mismatch prints the
//! differing rows and the whole actual section; `docs/oracle.md` says when
//! pasting it back is legitimate.
//!
//! The grid deliberately includes runs that hit the slot cap (the p = 1024
//! cells): capped runs exercise crash/cancel/replica churn for the whole
//! horizon and pin every counter, which is a stronger check than a short
//! happy path.

use vg_core::share::SharePolicy;
use vg_core::HeuristicKind;
use vg_core::Scheduler;
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_platform::source::StartPolicy;
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig};
use vg_sim::{
    AppSpec, Availability, MoldableParams, PlacementBudget, RunSpec, SimArena, SimOptions,
    Simulation,
};

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

/// A run of `apps` over availability seeded from `trace`.
fn seeded<'a>(
    platform: &'a PlatformConfig,
    apps: &'a [AppSpec],
    scheduler: Box<dyn Scheduler>,
    trace: SeedPath,
    options: SimOptions,
) -> RunSpec<'a> {
    RunSpec::new(
        platform,
        apps,
        Availability::Seeded(trace),
        scheduler,
        options,
    )
}

/// FNV-1a-64 of a report's `Debug` string: the row digest of the committed
/// corpus in `golden/grid_digests.txt`.
fn digest(report: &impl std::fmt::Debug) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{report:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The committed corpus: `<section> <row identity> <digest>` lines.
const GOLDEN: &str = include_str!("golden/grid_digests.txt");

/// One test's rows of the corpus, recomputed from the engine.
struct Digests {
    section: &'static str,
    rows: Vec<(String, String)>,
}

impl Digests {
    fn new(section: &'static str) -> Self {
        Self {
            section,
            rows: Vec::new(),
        }
    }

    /// Records row `id`'s digest.
    fn push(&mut self, id: String, report: &impl std::fmt::Debug) {
        self.rows.push((id, digest(report)));
    }

    /// Compares the recomputed rows with the committed section. On a
    /// mismatch, prints every differing row and then the whole actual
    /// section in corpus format (see `docs/oracle.md` for when pasting it
    /// back is legitimate).
    fn check(self) {
        let prefix = format!("{} ", self.section);
        let expected: Vec<(String, String)> = GOLDEN
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(id, d)| (id.to_string(), d.to_string()))
            .collect();
        if expected == self.rows {
            return;
        }
        for i in 0..expected.len().max(self.rows.len()) {
            let (e, a) = (expected.get(i), self.rows.get(i));
            if e != a {
                eprintln!("row {i}: expected {e:?}, actual {a:?}");
            }
        }
        eprintln!("actual `{}` section:", self.section);
        for (id, d) in &self.rows {
            eprintln!("{} {id} {d}", self.section);
        }
        panic!(
            "{}: {} recomputed rows disagree with the {} committed ones",
            self.section,
            self.rows.len(),
            expected.len()
        );
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
    // passes. Few slots keep the debug grid affordable; the engine's debug
    // cross-checks sample at this size (see `exhaustive_debug_checks`), so
    // the digest here is the full-platform check.
    LARGE,
];

#[test]
fn grid_reports_match_the_committed_digests() {
    let mut runs = 0usize;
    let mut finished = 0usize;
    let mut digests = Digests::new("grid");
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
                    record_timeline: false,
                    placement_budget: PlacementBudget::Uncapped,
                };
                for kind in HeuristicKind::ALL {
                    let report = Simulation::new(seeded(
                        &platform,
                        &[AppSpec::rigid(app)],
                        kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                        SeedPath::root(seed),
                        options,
                    ))
                    .unwrap()
                    .run();
                    digests.push(
                        format!("p={} seed={seed} rep={replication} {kind}", cell.p),
                        &report,
                    );
                    runs += 1;
                    finished += usize::from(report.finished());
                }
            }
        }
    }
    assert_eq!(runs, 17 * 2 * (3 + 2 + 1 + 1), "grid shape drifted");
    // The grid must exercise both completed and capped runs.
    assert!(
        finished > 0,
        "no run finished — grid too tight to mean much"
    );
    assert!(
        finished < runs,
        "every run finished — the capped-run half of the grid is gone"
    );
    digests.check();
}

#[test]
fn multi_app_api_with_single_roster_matches_single_app_api() {
    // The application runtime layer's spine contract: a one-application
    // roster under `Fixed` reconfiguration and the default equal-split
    // share, finished through the per-application `run_multi`, must be
    // **byte-identical** to the single-application `run` — same grid, all
    // 17 heuristics. The combined report is compared field-for-field
    // against `run`'s, and the whole multi report is pinned by its digest.
    let mut runs = 0usize;
    let mut digests = Digests::new("single-roster");
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
                record_timeline: false,
                placement_budget: PlacementBudget::Uncapped,
            };
            for kind in HeuristicKind::ALL {
                let single = Simulation::new(seeded(
                    &platform,
                    &[AppSpec::rigid(app)],
                    kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                    SeedPath::root(seed),
                    options,
                ))
                .unwrap()
                .run();
                let multi = Simulation::new(seeded(
                    &platform,
                    &specs,
                    kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                    SeedPath::root(seed),
                    options,
                ))
                .unwrap()
                .run_multi();
                assert_eq!(
                    multi.combined, single,
                    "multi-API combined report diverged from the single-app \
                     API: p={} seed={seed} replication={replication} {kind}",
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
                digests.push(
                    format!("p={} seed={seed} rep={replication} {kind}", cell.p),
                    &multi,
                );
                runs += 2;
            }
        }
    }
    assert_eq!(runs, 17 * 2 * 4 * 2, "grid shape drifted");
    digests.check();
}

#[test]
fn warmed_arena_matches_cold_engines_across_resizes() {
    // One arena driven through a grow → shrink → grow platform sequence
    // (dirty buffers from each previous shape) must match a cold engine run
    // for run, and the cold report must match its digest.
    let mut arena = SimArena::new();
    let plans: &[(usize, usize, bool)] = &[
        (8, 12, true),
        (96, 128, false), // grow
        (4, 3, true),     // shrink
        (96, 128, true),  // regrow onto dirty buffers, replicas on
        (8, 12, true),    // original shape again
    ];
    let mut digests = Digests::new("arena-resize");
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
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [
            HeuristicKind::EmctStar,
            HeuristicKind::Mct,
            HeuristicKind::Random2w,
        ] {
            let warm = arena
                .run(seeded(
                    &platform,
                    &[AppSpec::rigid(app)],
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                ))
                .unwrap();
            let cold = Simulation::new(seeded(
                &platform,
                &[AppSpec::rigid(app)],
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            ))
            .unwrap()
            .run();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            digests.push(format!("round={round} p={p} {kind}"), &cold);
        }
    }
    digests.check();
}

#[test]
fn capped_runs_leave_no_stale_dirty_bits_across_arena_resizes() {
    // Incremental snapshots live off per-worker dirty bits and a persistent
    // snapshot buffer, both retained by the arena across runs. A *capped*
    // run aborts mid-iteration with pipelines full — every bit set, the
    // buffer full of half-finished delays — which is the worst state to
    // inherit. Drive one arena through grow → shrink → grow with tightly
    // capped runs in between and pin each run against a cold engine and
    // its digest: a leaked bit (or a snapshot patched from another
    // platform's buffer) diverges here.
    let mut arena = SimArena::new();
    let plans: &[(usize, usize, u64)] = &[
        (64, 96, 40),     // capped: aborts with every pipeline mid-flight
        (8, 12, 50_000),  // shrink, runs to completion
        (64, 96, 35),     // regrow onto the capped run's dirty buffers
        (256, 256, 60),   // grow past every previous high-water mark
        (64, 96, 50_000), // the capped shape again, now to completion
    ];
    let mut capped = 0usize;
    let mut digests = Digests::new("arena-capped");
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
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [
            HeuristicKind::EmctStar,
            HeuristicKind::Ud,
            HeuristicKind::Random2w,
        ] {
            let warm = arena
                .run(seeded(
                    &platform,
                    &[AppSpec::rigid(app)],
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                ))
                .unwrap();
            let cold = Simulation::new(seeded(
                &platform,
                &[AppSpec::rigid(app)],
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            ))
            .unwrap()
            .run();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            digests.push(format!("round={round} p={p} {kind}"), &cold);
            capped += usize::from(!warm.finished());
        }
    }
    digests.check();
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
fn capped_and_two_app_platform_scale_rows_match_the_committed_digests() {
    // Demand-driven rounds send no delta and narrow the candidates to the
    // workers with room; the pool and replica lanes keep accumulating
    // changes across them. Two-application rounds run the replica lane
    // once per application per slot. Both are pinned by their digests.
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
    let mut capped_digests = Digests::new("large-capped");
    let mut two_app_digests = Digests::new("large-two-app");
    for replication in [false, true] {
        for kind in LANE_KINDS {
            // A few slots suffice: the cap engages from the first one.
            let capped = SimOptions {
                max_slots: 4,
                replication,
                record_timeline: false,
                placement_budget: PlacementBudget::BindCapacity,
            };
            let mut sim = Simulation::new(seeded(
                &platform,
                &[AppSpec::rigid(flood)],
                kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                SeedPath::root(seed),
                capped,
            ))
            .unwrap();
            while !sim.is_done() {
                sim.step();
            }
            engaged += sim.cap_engagements();
            let capped_report = sim.into_report();
            capped_digests.push(format!("rep={replication} {kind}"), &capped_report);
            let options = SimOptions {
                max_slots: cell.max_slots,
                placement_budget: PlacementBudget::Uncapped,
                ..capped
            };
            let two_app = Simulation::new(seeded(
                &platform,
                &specs,
                kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                SeedPath::root(seed),
                options,
            ))
            .unwrap()
            .run_multi();
            two_app_digests.push(format!("rep={replication} {kind}"), &two_app);
            runs += 1;
        }
    }
    assert_eq!(runs, 2 * LANE_KINDS.len(), "row shape drifted");
    assert!(engaged > 0, "the capped rows never engaged the cap");
    capped_digests.check();
    two_app_digests.check();
}

/// The heuristics of the small multi-application rows: one greedy family
/// per objective, with and without the Equation-(2) correction, plus the
/// plain random family.
const SMALL_MULTI_KINDS: [HeuristicKind; 4] = [
    HeuristicKind::EmctStar,
    HeuristicKind::Mct,
    HeuristicKind::LwStar,
    HeuristicKind::Random,
];

#[test]
fn small_multi_app_rows_match_the_committed_digests() {
    // Co-scheduled rosters on small platforms, where the share split, the
    // demand clamp, the spare hand-down and the per-app replica rounds
    // decide most slots: two rigid apps weighted 1 and 3, a rigid app
    // beside a moldable one, and three mixed apps. Every share policy,
    // replication on and off, and both placement budgets.
    let app = |m: usize, iterations: u64| AppConfig {
        tasks_per_iteration: m,
        iterations,
        t_prog: 4,
        t_data: 1,
    };
    let moldable = |m: usize, iterations: u64, weight: u32| AppSpec {
        weight,
        ..AppSpec::moldable(
            app(m, iterations),
            MoldableParams {
                tasks_per_up_num: 3,
                tasks_per_up_den: 2,
                min_tasks: 2,
                max_tasks: 2 * m,
            },
        )
    };
    let rosters = |p: usize| -> Vec<(&'static str, Vec<AppSpec>)> {
        let m = p + p / 2;
        let weighted = (
            "weighted-1-3",
            vec![
                AppSpec::weighted(app(m, 2), 1),
                AppSpec::weighted(app(m / 2, 3), 3),
            ],
        );
        let mixed = (
            "three-mixed",
            vec![
                AppSpec::weighted(app(m / 2, 2), 2),
                moldable(p / 2, 3, 1),
                AppSpec::weighted(app(p / 4, 4), 3),
            ],
        );
        let rigid_moldable = (
            "rigid-moldable",
            vec![AppSpec::rigid(app(m, 2)), moldable(p, 3, 1)],
        );
        if p <= 8 {
            vec![weighted, mixed]
        } else {
            vec![rigid_moldable, mixed]
        }
    };
    let mut runs = 0usize;
    let mut finished = 0usize;
    let mut digests = Digests::new("small-multi");
    for (p, seed) in [(8usize, 51u64), (64, 52)] {
        let platform = platform(p, (p / 10).max(2), seed);
        for (name, specs) in rosters(p) {
            for share in SharePolicy::ALL {
                for replication in [false, true] {
                    for placement_budget in
                        [PlacementBudget::Uncapped, PlacementBudget::BindCapacity]
                    {
                        let options = SimOptions {
                            max_slots: 5_000,
                            replication,
                            record_timeline: false,
                            placement_budget,
                        };
                        for kind in SMALL_MULTI_KINDS {
                            let report = Simulation::new(RunSpec {
                                share,
                                ..seeded(
                                    &platform,
                                    &specs,
                                    kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                                    SeedPath::root(seed),
                                    options,
                                )
                            })
                            .unwrap()
                            .run_multi();
                            finished += usize::from(report.combined.finished());
                            digests.push(
                                format!(
                                    "p={p} roster={name} share={share} rep={replication} \
                                     budget={placement_budget:?} {kind}"
                                ),
                                &report,
                            );
                            runs += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 2 * 2 * 3 * 2 * 2 * 4, "row shape drifted");
    assert!(
        finished > 0,
        "no run finished — the rows pin only capped runs"
    );
    digests.check();
}

#[test]
fn warmed_arena_does_not_carry_lanes_across_same_size_platforms() {
    // Two different platforms of the same size back to back through one
    // arena: every buffer the lanes hang off (snapshot, free mask, pending
    // change sets, sequence numbers) has the right length for the second
    // platform, so only the run-start invalidation keeps the first
    // platform's lane state out of it. A small application finishes within
    // the cap, so each warm run's makespan is a real trajectory signal; it
    // must match a cold engine, whose full report must match its digest.
    let p = LARGE.p;
    let mut arena = SimArena::new();
    let mut finished = 0usize;
    let mut digests = Digests::new("same-size-lanes");
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
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [HeuristicKind::EmctStar, HeuristicKind::Lw] {
            let warm = arena
                .run(seeded(
                    &platform,
                    &[AppSpec::rigid(app)],
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                ))
                .unwrap();
            let cold = Simulation::new(seeded(
                &platform,
                &[AppSpec::rigid(app)],
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            ))
            .unwrap()
            .run();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            digests.push(format!("round={round} seed={seed} {kind}"), &cold);
            finished += usize::from(warm.finished());
        }
    }
    digests.check();
    assert_eq!(
        finished, 6,
        "every run must finish for its makespan to count"
    );
}
