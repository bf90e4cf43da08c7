//! Cross-crate property tests: the simulator's reports must be internally
//! consistent on randomized platforms, and identical seeds must yield
//! identical runs regardless of heuristic internals.

use proptest::prelude::*;
use volatile_grid::prelude::*;

/// Builds a random paper-style Markov platform.
fn platform(p: usize, ncom: usize, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.88, 0.99);
                let w = rng.u64_range_inclusive(1, 8);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom,
    }
}

fn run(
    platform: &PlatformConfig,
    app: &AppConfig,
    kind: HeuristicKind,
    trace_seed: u64,
    replication: bool,
) -> SimReport {
    Simulation::new(RunSpec::new(
        platform,
        &[AppSpec::rigid(*app)],
        Availability::Seeded(SeedPath::root(trace_seed)),
        kind.build(SeedPath::root(1).rng()),
        SimOptions {
            max_slots: 150_000,
            replication,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        },
    ))
    .expect("valid configuration")
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn report_accounting_is_consistent(
        p in 2usize..8,
        ncom in 1usize..4,
        m in 1usize..10,
        iters in 1u64..4,
        t_prog in 0u64..6,
        t_data in 0u64..4,
        seed in 0u64..1000,
        kind_idx in 0usize..17,
    ) {
        let platform = platform(p, ncom, seed);
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: iters,
            t_prog,
            t_data,
        };
        let kind = HeuristicKind::ALL[kind_idx];
        let r = run(&platform, &app, kind, seed.wrapping_add(13), true);

        // State occupancy covers exactly p worker-slots per simulated slot.
        let occupancy: u64 = r.counters.state_slots.iter().sum();
        prop_assert_eq!(occupancy, r.slots_run * p as u64);

        // Completion accounting.
        if r.finished() {
            prop_assert_eq!(r.completed_iterations, iters);
            prop_assert_eq!(r.counters.tasks_completed, m as u64 * iters);
            prop_assert_eq!(r.makespan, Some(r.slots_run));
            prop_assert_eq!(r.iteration_completed_at.len() as u64, iters);
            // Iteration completions are strictly increasing.
            for w in r.iteration_completed_at.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        } else {
            prop_assert!(r.completed_iterations < iters);
        }
        prop_assert_eq!(r.counters.copies_completed, r.counters.tasks_completed);

        // Bandwidth can never exceed capacity.
        prop_assert!(r.mean_bandwidth_utilization <= 1.0 + 1e-12);

        // Channel-slots are bounded by slots × ncom.
        let channel_slots = r.counters.prog_channel_slots + r.counters.data_channel_slots;
        prop_assert!(channel_slots <= r.slots_run * ncom as u64);
    }

    #[test]
    fn determinism_across_reruns(
        seed in 0u64..500,
        kind_idx in 0usize..17,
    ) {
        let platform = platform(4, 2, seed);
        let app = AppConfig {
            tasks_per_iteration: 5,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        let kind = HeuristicKind::ALL[kind_idx];
        let a = run(&platform, &app, kind, seed, true);
        let b = run(&platform, &app, kind, seed, true);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn trace_seed_controls_availability_not_heuristic(
        seed in 0u64..300,
    ) {
        // Two heuristics, same trace seed: state occupancies over the same
        // number of slots must match slot-for-slot; we verify by running the
        // *same* heuristic under different scheduler seeds — availability
        // (and hence the whole run, for deterministic greedy heuristics)
        // is unchanged.
        let platform = platform(5, 2, seed);
        let app = AppConfig {
            tasks_per_iteration: 6,
            iterations: 2,
            t_prog: 5,
            t_data: 1,
        };
        let mk = |sched_seed: u64| {
            Simulation::new(RunSpec::new(
                &platform,
                &[AppSpec::rigid(app)],
                Availability::Seeded(SeedPath::root(seed)),
                HeuristicKind::EmctStar.build(SeedPath::root(sched_seed).rng()),
                SimOptions::default(),
            ))
            .expect("valid").run()
        };
        // EMCT* is deterministic: scheduler seed is irrelevant.
        prop_assert_eq!(mk(1), mk(999));
    }

    #[test]
    fn replication_never_breaks_completion(
        seed in 0u64..200,
        m in 1usize..6,
    ) {
        let platform = platform(5, 2, seed);
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: 2,
            t_prog: 3,
            t_data: 1,
        };
        let with = run(&platform, &app, HeuristicKind::Emct, seed, true);
        let without = run(&platform, &app, HeuristicKind::Emct, seed, false);
        // Both must finish on these mild platforms; replication must never
        // leave an iteration incomplete.
        prop_assert!(with.finished());
        prop_assert!(without.finished());
        prop_assert_eq!(with.counters.tasks_completed, without.counters.tasks_completed);
    }
}
