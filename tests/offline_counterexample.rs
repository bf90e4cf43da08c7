//! The Section-4 counter-example: with bounded master bandwidth
//! (`ncom = 1`), greedy MCT is no longer optimal.
//!
//! Instance: `T_prog = T_data = 2`, two tasks, two same-speed processors
//! (`w = 2`), traces `S1 = uuuuuurrr`, `S2 = ruuuuuuuu`. The optimum waits
//! one slot and serves `P2`, finishing both tasks in 9 slots; the on-line
//! MCT heuristic greedily commits `P1` and cannot recover.

use volatile_grid::offline::bnb;
use volatile_grid::offline::OfflineInstance;
use volatile_grid::prelude::*;

fn counterexample_traces() -> (Trace, Trace) {
    (
        Trace::parse("uuuuuurrr").unwrap(),
        Trace::parse("ruuuuuuuu").unwrap(),
    )
}

#[test]
fn exact_optimum_is_nine_slots() {
    let (s1, s2) = counterexample_traces();
    let inst = OfflineInstance::uniform(2, 2, 2, 2, Some(1), 9, vec![s1, s2]);
    let optimum = bnb::min_makespan(&inst, 10_000_000)
        .expect("tiny instance")
        .expect("the paper's optimal schedule exists");
    assert_eq!(optimum, 9);

    // Tighter deadlines are infeasible.
    assert!(!bnb::feasible_within(&inst, 8, 10_000_000).unwrap());
}

#[test]
fn online_mct_fails_the_counterexample() {
    // Run the real on-line MCT heuristic in the simulator over replayed
    // traces. MCT estimates assuming processors stay UP, so it pins work on
    // P1, whose trace turns RECLAIMED forever — the run never completes
    // (without replication) while the clairvoyant optimum is 9 slots.
    let (s1, s2) = counterexample_traces();
    let platform = PlatformConfig {
        processors: vec![
            ProcessorConfig {
                spec: volatile_grid::platform::ProcessorSpec::new(2),
                avail: AvailabilityModelConfig::Replay {
                    trace: s1,
                    tail: TailBehavior::HoldLast, // r forever after slot 8
                },
                believed: None,
            },
            ProcessorConfig {
                spec: volatile_grid::platform::ProcessorSpec::new(2),
                avail: AvailabilityModelConfig::Replay {
                    trace: s2,
                    tail: TailBehavior::HoldLast, // u forever after slot 8
                },
                believed: None,
            },
        ],
        ncom: 1,
    };
    let app = AppConfig {
        tasks_per_iteration: 2,
        iterations: 1,
        t_prog: 2,
        t_data: 2,
    };
    let report = Simulation::new(RunSpec::new(
        &platform,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(2)),
        HeuristicKind::Mct.build(SeedPath::root(1).rng()), // ignored by replay sources
        SimOptions {
            max_slots: 200,
            replication: false,
            max_extra_replicas: 0,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        },
    ))
    .unwrap()
    .run();
    assert!(
        report.makespan_or_cap() > 9,
        "online MCT should be suboptimal here, got {report}"
    );
}

#[test]
fn replication_rescues_online_mct() {
    // Same instance with the Section-6.1 replication policy: the idle
    // processor picks up a replica, bounding the damage.
    let (s1, s2) = counterexample_traces();
    let platform = PlatformConfig {
        processors: vec![
            ProcessorConfig {
                spec: volatile_grid::platform::ProcessorSpec::new(2),
                avail: AvailabilityModelConfig::Replay {
                    trace: s1,
                    tail: TailBehavior::HoldLast,
                },
                believed: None,
            },
            ProcessorConfig {
                spec: volatile_grid::platform::ProcessorSpec::new(2),
                avail: AvailabilityModelConfig::Replay {
                    trace: s2,
                    tail: TailBehavior::HoldLast,
                },
                believed: None,
            },
        ],
        ncom: 1,
    };
    let app = AppConfig {
        tasks_per_iteration: 2,
        iterations: 1,
        t_prog: 2,
        t_data: 2,
    };
    let without = Simulation::new(RunSpec::new(
        &platform,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(2)),
        HeuristicKind::Mct.build(SeedPath::root(1).rng()),
        SimOptions {
            max_slots: 500,
            replication: false,
            max_extra_replicas: 0,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        },
    ))
    .unwrap()
    .run();
    let with = Simulation::new(RunSpec::new(
        &platform,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(2)),
        HeuristicKind::Mct.build(SeedPath::root(1).rng()),
        SimOptions {
            max_slots: 500,
            replication: true,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        },
    ))
    .unwrap()
    .run();
    assert!(with.finished(), "replication must complete the iteration");
    assert!(
        with.makespan_or_cap() <= without.makespan_or_cap(),
        "replication never hurts here: {} vs {}",
        with.makespan_or_cap(),
        without.makespan_or_cap()
    );
}

#[test]
fn bnb_requires_down_splitting_first() {
    // The exact solver does not model in-place program loss, so it rejects
    // raw 3-state instances; the Section-4 transform makes them solvable.
    let inst3 = OfflineInstance::uniform(
        2,
        1,
        1,
        2,
        Some(1),
        12,
        vec![
            Trace::parse("uuuduuuuuuuu").unwrap(),
            Trace::parse("uuuuuuduuuuu").unwrap(),
        ],
    );
    assert_eq!(
        bnb::min_makespan(&inst3, 1_000_000),
        Err(volatile_grid::offline::bnb::BnbError::ContainsDown)
    );
    let inst2 = inst3.split_down();
    assert!(inst2.is_two_state());
    // Splitting yields 4 crash-free virtual processors; both tasks fit.
    assert_eq!(inst2.p(), 4);
    let optimum = bnb::min_makespan(&inst2, 10_000_000)
        .expect("small instance")
        .expect("feasible");
    // P1's prefix (uuu) can do prog 0 + data 1 + compute… w=2 needs 2 UP
    // slots: prog@0, data@1, compute@2 only 1 slot left — so the suffixes
    // carry the work; sanity: optimum is within the horizon and ≥ the
    // single-task lower bound Tprog + Tdata + w = 4.
    assert!((4..=12).contains(&optimum), "optimum {optimum}");
}
