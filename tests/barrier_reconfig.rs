//! Property tests for barrier reconfiguration and co-scheduling: random
//! shrink/grow under [`ReconfigPolicy::Moldable`] must conserve tasks
//! (no drop, no double-complete), and the `Fixed` policy driven through the
//! multi-application API must stay bit-identical to the pre-refactor
//! single-application engine.
//!
//! The strongest conservation checks are the engine's own debug assertions
//! (every barrier asserts the finished iteration drained completely and the
//! resized pool holds exactly `m` tasks); these properties run in the debug
//! profile, so each random trajectory exercises them thousands of times.
//! On top of that, the observable reports are checked for closed accounting.

use proptest::prelude::*;
use volatile_grid::prelude::*;

/// Builds a random paper-style Markov platform. Diagonals down at 0.85 on
/// purpose: frequent state churn makes the barrier's UP count move, which is
/// what drives Moldable shrinks and grows.
fn platform(p: usize, ncom: usize, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.85, 0.99);
                let w = rng.u64_range_inclusive(1, 8);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom,
    }
}

fn options(replication: bool) -> SimOptions {
    SimOptions {
        max_slots: 150_000,
        replication,
        record_timeline: false,
        placement_budget: PlacementBudget::Uncapped,
    }
}

fn run_multi(
    platform: &PlatformConfig,
    specs: &[AppSpec],
    share: SharePolicy,
    kind: HeuristicKind,
    trace_seed: u64,
    replication: bool,
) -> MultiReport {
    Simulation::new(RunSpec {
        share,
        ..RunSpec::new(
            platform,
            specs,
            Availability::Seeded(SeedPath::root(trace_seed)),
            kind.build(SeedPath::root(1).rng()),
            options(replication),
        )
    })
    .expect("valid configuration")
    .run_multi()
}

/// Closed accounting every multi-app report must satisfy, finished or not.
fn check_accounting(r: &MultiReport, specs: &[AppSpec]) {
    prop_assert_eq!(r.apps.len(), specs.len());
    // No drop, no double-complete: the shared completion counter must be
    // exactly the sum of the per-app credits.
    let per_app_total: u64 = r.apps.iter().map(|a| a.tasks_completed).sum();
    prop_assert_eq!(r.combined.counters.tasks_completed, per_app_total);
    let per_app_iters: u64 = r.apps.iter().map(|a| a.completed_iterations).sum();
    prop_assert_eq!(r.combined.completed_iterations, per_app_iters);
    // The combined barrier record is the (slot-ordered) merge of the
    // per-app records.
    let mut merged: Vec<Slot> = r
        .apps
        .iter()
        .flat_map(|a| a.iteration_completed_at.iter().copied())
        .collect();
    merged.sort_unstable();
    let mut combined = r.combined.iteration_completed_at.clone();
    combined.sort_unstable();
    prop_assert_eq!(combined, merged);
    for (a, spec) in r.apps.iter().zip(specs) {
        prop_assert_eq!(
            a.iteration_completed_at.len() as u64,
            a.completed_iterations
        );
        // Per-app barriers are strictly increasing (two iterations of one
        // app can never end in the same slot).
        for w in a.iteration_completed_at.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if a.finished() {
            prop_assert_eq!(a.completed_iterations, spec.config.iterations);
            prop_assert_eq!(a.makespan, a.iteration_completed_at.last().map(|s| s + 1));
        } else {
            prop_assert!(a.completed_iterations < spec.config.iterations);
            prop_assert_eq!(a.makespan, None);
        }
    }
    // The combined makespan is set iff every app finished, and then equals
    // the last app's.
    if r.apps.iter().all(AppReport::finished) {
        prop_assert_eq!(
            r.combined.makespan,
            r.apps.iter().filter_map(|a| a.makespan).max()
        );
    } else {
        prop_assert_eq!(r.combined.makespan, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random shrink/grow: a moldable app on a churning platform re-picks
    /// its task count at every barrier. Tasks must be conserved — each
    /// finished iteration contributes exactly its (resized) `m` completions,
    /// nothing is dropped or double-completed — and the run must still
    /// finish and satisfy closed accounting.
    #[test]
    fn moldable_resizing_conserves_tasks(
        p in 3usize..8,
        ncom in 1usize..4,
        m0 in 1usize..10,
        iters in 2u64..6,
        num in 1u32..4,
        den in 1u32..3,
        max_tasks in 4usize..16,
        seed in 0u64..1000,
        kind_idx in 0usize..17,
        rep_idx in 0usize..2,
    ) {
        let replication = rep_idx == 1;
        let params = MoldableParams {
            tasks_per_up_num: num,
            tasks_per_up_den: den,
            min_tasks: 1,
            max_tasks,
        };
        let app = AppConfig {
            tasks_per_iteration: m0,
            iterations: iters,
            t_prog: 3,
            t_data: 1,
        };
        let specs = [AppSpec::moldable(app, params)];
        let platform = platform(p, ncom, seed);
        let kind = HeuristicKind::ALL[kind_idx];
        let r = run_multi(&platform, &specs, SharePolicy::default(), kind, seed, replication);
        check_accounting(&r, &specs);
        let a = &r.apps[0];
        prop_assert!(a.finished(), "mild platform, generous cap: must finish");
        // Every iteration's size was clamped to [1, max_tasks]; the first
        // used the configured m0 (reconfiguration happens at barriers only).
        prop_assert!(a.final_m >= 1 && a.final_m <= max_tasks);
        let lo = iters - 1 + m0 as u64; // first iteration is m0, rest ≥ 1
        let hi = m0 as u64 + (iters - 1) * max_tasks as u64;
        prop_assert!(
            a.tasks_completed >= lo && a.tasks_completed <= hi,
            "task credit {} outside the reachable [{}, {}]",
            a.tasks_completed, lo, hi
        );
        // Determinism across reruns, resizes included.
        let again = run_multi(&platform, &specs, SharePolicy::default(), kind, seed, replication);
        prop_assert_eq!(r, again);
    }

    /// A moldable app whose clamp pins the pick to the configured size
    /// (`min == max == m`) must be **bit-identical** to `Fixed`: the barrier
    /// takes the exact reset path whenever the pick equals the current size.
    #[test]
    fn pinned_moldable_is_bit_identical_to_fixed(
        p in 3usize..8,
        m in 1usize..10,
        iters in 1u64..5,
        seed in 0u64..1000,
        kind_idx in 0usize..17,
    ) {
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: iters,
            t_prog: 3,
            t_data: 1,
        };
        let params = MoldableParams {
            tasks_per_up_num: 1,
            tasks_per_up_den: 1,
            min_tasks: m,
            max_tasks: m,
        };
        let platform = platform(p, 2, seed);
        let kind = HeuristicKind::ALL[kind_idx];
        let fixed = run_multi(
            &platform, &[AppSpec::rigid(app)], SharePolicy::default(), kind, seed, true,
        );
        let pinned = run_multi(
            &platform, &[AppSpec::moldable(app, params)], SharePolicy::default(), kind, seed, true,
        );
        prop_assert_eq!(fixed, pinned);
    }

    /// `Fixed` through the multi-application API is bit-identical to the
    /// pre-refactor single-application engine on random small
    /// configurations (the big fixed grid lives in `golden_grid`).
    #[test]
    fn fixed_multi_api_matches_single_app_engine(
        p in 2usize..8,
        ncom in 1usize..4,
        m in 1usize..10,
        iters in 1u64..4,
        seed in 0u64..1000,
        kind_idx in 0usize..17,
        rep_idx in 0usize..2,
    ) {
        let replication = rep_idx == 1;
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: iters,
            t_prog: 3,
            t_data: 1,
        };
        let platform = platform(p, ncom, seed);
        let kind = HeuristicKind::ALL[kind_idx];
        let single = Simulation::new(RunSpec::new(
            &platform,
            &[AppSpec::rigid(app)],
            Availability::Seeded(SeedPath::root(seed)),
            kind.build(SeedPath::root(1).rng()),
            options(replication),
        )).expect("valid configuration").run();
        let multi = run_multi(
            &platform, &[AppSpec::rigid(app)], SharePolicy::default(), kind, seed, replication,
        );
        prop_assert_eq!(multi.combined, single);
    }

    /// Co-scheduled rosters (2–3 apps, mixed rigid/moldable, every share
    /// policy) keep closed accounting and deterministic reruns.
    #[test]
    fn coscheduled_rosters_keep_closed_accounting(
        p in 3usize..8,
        napps in 2usize..4,
        m in 1usize..7,
        iters in 1u64..4,
        w2 in 1u32..5,
        seed in 0u64..1000,
        kind_idx in 0usize..17,
        share_idx in 0usize..3,
    ) {
        let share = [
            SharePolicy::EqualSplit,
            SharePolicy::Weighted,
            SharePolicy::StrictPriority,
        ][share_idx];
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: iters,
            t_prog: 3,
            t_data: 1,
        };
        let mut specs = vec![AppSpec::weighted(app, w2)];
        let params = MoldableParams {
            tasks_per_up_num: 1,
            tasks_per_up_den: 1,
            min_tasks: 1,
            max_tasks: 8,
        };
        specs.push(AppSpec::moldable(app, params));
        if napps > 2 {
            specs.push(AppSpec::rigid(AppConfig {
                tasks_per_iteration: m + 1,
                ..app
            }));
        }
        let platform = platform(p, 2, seed);
        let kind = HeuristicKind::ALL[kind_idx];
        let r = run_multi(&platform, &specs, share, kind, seed, true);
        check_accounting(&r, &specs);
        prop_assert!(
            r.apps.iter().all(AppReport::finished),
            "mild platform, generous cap: every app must finish"
        );
        let again = run_multi(&platform, &specs, share, kind, seed, true);
        prop_assert_eq!(r, again);
    }
}
