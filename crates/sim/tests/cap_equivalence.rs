//! Capped ⇄ uncapped equivalence over the golden_grid grid.
//!
//! The [`PlacementBudget::BindCapacity`] engine mode promises that a slot
//! whose pool fits inside the bindable capacity takes the **exact uncapped
//! code path** — so a run in which the cap never *engages* (pool ≤ capacity
//! on every slot) must produce a [`SimReport`] byte-identical to its
//! uncapped twin: same makespan, same per-iteration completion slots, every
//! counter, the bandwidth statistic. This harness drives the full
//! 17-heuristic × seed × platform-size × replication grid of
//! `golden_grid.rs` once per budget and pins exactly that: every
//! never-engaging capped run is compared report-for-report against the
//! uncapped run of the same instance.
//!
//! Runs where the cap *does* engage are allowed to diverge — that is the
//! point of the optimisation, and the `cap_fidelity` binary measures the
//! statistical size of the divergence — but the grid must contain a healthy
//! population of **both** kinds of run, or the equivalence half of the test
//! is vacuous. The engine's `cap_engagements()` counter (asserted against a
//! naive capacity rescan inside the engine on every debug-build slot) is
//! what classifies each run.

use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_platform::source::StartPolicy;
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig};
use vg_sim::{AppSpec, Availability, PlacementBudget, RunSpec, SimOptions, SimReport, Simulation};

/// Paper-style platform, identical to `golden_grid.rs`.
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

/// The golden_grid grid plus one under-subscribed cell. All three
/// inherited cells run `m ≥ 1.5·p` tasks (the paper's oversubscription),
/// which engages the cap within the first slots of every instance — so a
/// grid of only those cells would leave the equivalence half of this test
/// vacuous. The `m = p/4` cell keeps the pool far under the bindable
/// capacity on almost every slot and supplies the never-engaging
/// population.
const GRID: &[Cell] = &[
    Cell {
        p: 32,
        m: 8,
        iterations: 2,
        max_slots: 20_000,
        seeds: &[41, 42],
    },
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
];

/// Runs one instance step-wise (the consuming `run()` would drop the engine
/// before `cap_engagements()` can be read) and returns the report plus the
/// engagement count.
fn run_counting(
    platform: &PlatformConfig,
    app: &AppConfig,
    kind: HeuristicKind,
    sched_seed: u64,
    trace_seed: u64,
    options: SimOptions,
) -> (SimReport, u64) {
    let sources: Vec<_> = platform
        .seeded_sources(SeedPath::root(trace_seed))
        .collect();
    let mut sim = Simulation::new(RunSpec::new(
        platform,
        &[AppSpec::rigid(*app)],
        Availability::Rows(Box::new(sources)),
        kind.build(SeedPath::root(sched_seed).rng()),
        options,
    ))
    .unwrap();
    while !sim.is_done() {
        sim.step();
    }
    let engagements = sim.cap_engagements();
    (sim.into_report(), engagements)
}

#[test]
fn capped_runs_that_never_engage_are_bit_identical_to_uncapped() {
    let mut runs = 0usize;
    let mut engaged = 0usize;
    let mut quiet = 0usize;
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
                let capped_options = SimOptions {
                    placement_budget: PlacementBudget::BindCapacity,
                    ..options
                };
                for kind in HeuristicKind::ALL {
                    let (capped, engagements) =
                        run_counting(&platform, &app, kind, seed ^ 0xbeef, seed, capped_options);
                    runs += 1;
                    if engagements > 0 {
                        engaged += 1;
                        continue;
                    }
                    quiet += 1;
                    let (uncapped, zero) =
                        run_counting(&platform, &app, kind, seed ^ 0xbeef, seed, options);
                    assert_eq!(zero, 0, "Uncapped must never count engagements");
                    assert_eq!(
                        capped, uncapped,
                        "never-engaging capped run diverged: p={} seed={seed} \
                         replication={replication} {kind}",
                        cell.p
                    );
                }
            }
        }
    }
    assert_eq!(runs, 17 * 2 * (2 + 3 + 2 + 1), "grid shape drifted");
    // Both populations must be represented, or the test lost its teeth:
    // no quiet runs means the equivalence claim was never checked, no
    // engaged runs means the grid no longer exercises the capped branch
    // at all.
    assert!(
        quiet > 0,
        "every run engaged the cap — the equivalence half of the grid is gone"
    );
    assert!(
        engaged > 0,
        "no run engaged the cap — the grid no longer reaches the capped branch"
    );
}
