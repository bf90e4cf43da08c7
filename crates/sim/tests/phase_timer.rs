//! The engine's probe seam: timing a run changes nothing it reports, and
//! every engine's [`PhaseTimer`] is its own.
//!
//! A [`PhaseTimer`] engine reads the clock around each slot phase and
//! schedule sub-phase; the default [`vg_sim::NoProbe`] engine reads none.
//! The clock is never consulted by simulation logic, so both engines must
//! return the same [`SimReport`] for the same spec — uncapped and capped,
//! with replication on and off, and for a two-application roster.

use vg_core::{HeuristicKind, SharePolicy};
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_platform::source::StartPolicy;
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig};
use vg_sim::{
    AppSpec, Availability, PhaseTimer, PlacementBudget, RunSpec, SimOptions, SimReport, Simulation,
    WorkerSoA,
};

fn platform(p: usize) -> PlatformConfig {
    let mut rng = SeedPath::root(5).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(2, 20);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom: 4,
    }
}

/// `m = 48` tasks on 32 workers: the pool outgrows the bindable capacity,
/// so a capped run engages the cap.
const APP: AppConfig = AppConfig {
    tasks_per_iteration: 48,
    iterations: 2,
    t_prog: 4,
    t_data: 1,
};

fn spec<'a>(
    platform: &'a PlatformConfig,
    apps: &'a [AppSpec],
    replication: bool,
    placement_budget: PlacementBudget,
) -> RunSpec<'a> {
    let spec = RunSpec::new(
        platform,
        apps,
        Availability::Seeded(SeedPath::root(42)),
        HeuristicKind::EmctStar.build(SeedPath::root(11).rng()),
        SimOptions {
            max_slots: 100_000,
            replication,
            record_timeline: false,
            placement_budget,
        },
    );
    RunSpec {
        share: SharePolicy::Weighted,
        ..spec
    }
}

/// Runs `spec` on a [`PhaseTimer`] engine, slot by slot; also returns how
/// often the cap engaged.
fn timed_run(spec: RunSpec<'_>) -> (SimReport, PhaseTimer, u64) {
    let mut sim = Simulation::<WorkerSoA, PhaseTimer>::with_probe(spec).expect("valid spec");
    while !sim.is_done() {
        sim.step();
    }
    let (timer, engaged) = (*sim.probe(), sim.cap_engagements());
    (sim.into_report(), timer, engaged)
}

#[test]
fn phase_timer_engine_reports_what_the_default_engine_reports() {
    let platform = platform(32);
    let one = [AppSpec::rigid(APP)];
    let two = [AppSpec::rigid(APP), AppSpec::weighted(APP, 3)];
    for apps in [&one[..], &two[..]] {
        for replication in [false, true] {
            for budget in [PlacementBudget::Uncapped, PlacementBudget::BindCapacity] {
                let what = format!("{} apps, replication={replication}, {budget:?}", apps.len());
                let plain = Simulation::new(spec(&platform, apps, replication, budget))
                    .expect("valid spec")
                    .run();
                let (timed, timer, engaged) = timed_run(spec(&platform, apps, replication, budget));
                assert!(plain.finished(), "{what}: {plain}");
                if apps.len() == 1 && budget == PlacementBudget::BindCapacity {
                    assert!(engaged > 0, "{what}: the cap never engaged");
                }
                assert_eq!(timed, plain, "{what}");
                // The sub-phases are disjoint spans inside the schedule
                // phase, so their sum cannot exceed it.
                let sub: u64 = timer.sub.iter().sum();
                assert!(sub <= timer.nanos[2], "{what}: {timer:?}");
                assert!(timer.nanos.iter().sum::<u64>() > 0, "{what}: nothing timed");
            }
        }
    }
}

#[test]
fn a_fresh_phase_timer_reads_zero_after_another_engine_ran() {
    let platform = platform(32);
    let apps = [AppSpec::rigid(APP)];
    let (_, first, _) = timed_run(spec(&platform, &apps, true, PlacementBudget::Uncapped));
    assert!(first.nanos.iter().sum::<u64>() > 0);
    let mut fresh = Simulation::<WorkerSoA, PhaseTimer>::with_probe(spec(
        &platform,
        &apps,
        true,
        PlacementBudget::Uncapped,
    ))
    .expect("valid spec");
    assert_eq!(*fresh.probe(), PhaseTimer::default());
}
