//! End-to-end record/replay equivalence: availability recorded from a live
//! Markov platform, persisted through the trace-set text format, and
//! replayed into the simulator must yield the *identical* run — makespan,
//! counters, everything. This ties together `vg-markov` streams,
//! `vg-platform` trace I/O, and the `vg-sim` engine.

use volatile_grid::platform::{ProcessorSpec, TraceSet};
use volatile_grid::prelude::*;

fn markov_platform(p: usize, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(2, 6);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom: 2,
    }
}

#[test]
fn recorded_traces_replay_identically() {
    let live = markov_platform(5, 77);
    let app = AppConfig {
        tasks_per_iteration: 6,
        iterations: 3,
        t_prog: 4,
        t_data: 1,
    };
    let trace_seed = SeedPath::root(123);

    // Run live.
    let live_report = Simulation::new(RunSpec::new(
        &live,
        &[AppSpec::rigid(app)],
        Availability::Seeded(trace_seed),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SimOptions::default(),
    ))
    .expect("valid")
    .run();
    assert!(live_report.finished());

    // Record the availability the run consumed (same seeds, enough slots).
    let horizon = live_report.slots_run as usize;
    let entries: Vec<(ProcessorSpec, Trace)> = live
        .processors
        .iter()
        .enumerate()
        .map(|(q, pc)| {
            let mut src = pc.avail.build_source(trace_seed.child(q as u64).rng());
            let trace: Trace = (0..horizon).map(|_| src.next_state()).collect();
            (pc.spec, trace)
        })
        .collect();

    // Persist + reload through the text format.
    let text = TraceSet::new(entries).to_text();
    let loaded = TraceSet::from_text(&text).expect("round-trip");
    assert_eq!(loaded.p(), live.p());

    // Rebuild the platform on replay sources. The scheduler needs the same
    // *beliefs* as the live run, so keep the Markov chains as `believed`.
    let replay = PlatformConfig {
        processors: live
            .processors
            .iter()
            .zip(&loaded.entries)
            .map(|(pc, (spec, trace))| ProcessorConfig {
                spec: *spec,
                avail: AvailabilityModelConfig::Replay {
                    trace: trace.clone(),
                    tail: TailBehavior::ReclaimedForever, // never reached
                },
                believed: Some(pc.believed_chain()),
            })
            .collect(),
        ncom: live.ncom,
    };
    let replay_report = Simulation::new(RunSpec::new(
        &replay,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(999)),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()), // replay ignores trace seeds
        SimOptions::default(),
    ))
    .expect("valid")
    .run();

    assert_eq!(replay_report.makespan, live_report.makespan);
    assert_eq!(replay_report.counters, live_report.counters);
    assert_eq!(
        replay_report.iteration_completed_at,
        live_report.iteration_completed_at
    );
}

#[test]
fn replay_with_different_heuristic_still_within_recorded_horizon() {
    // Safety of the recording approach: a *different* heuristic on the same
    // recorded traces may need more slots than were recorded; with the
    // ReclaimedForever tail it can only see r beyond the horizon, so a
    // finished run must have stayed within it — or not finished at all.
    let live = markov_platform(5, 78);
    let app = AppConfig {
        tasks_per_iteration: 6,
        iterations: 2,
        t_prog: 4,
        t_data: 1,
    };
    let trace_seed = SeedPath::root(5);
    let live_report = Simulation::new(RunSpec::new(
        &live,
        &[AppSpec::rigid(app)],
        Availability::Seeded(trace_seed),
        HeuristicKind::Emct.build(SeedPath::root(1).rng()),
        SimOptions::default(),
    ))
    .expect("valid")
    .run();
    let horizon = live_report.slots_run as usize + 50;

    let replay = PlatformConfig {
        processors: live
            .processors
            .iter()
            .enumerate()
            .map(|(q, pc)| {
                let mut src = pc.avail.build_source(trace_seed.child(q as u64).rng());
                let trace: Trace = (0..horizon).map(|_| src.next_state()).collect();
                ProcessorConfig {
                    spec: pc.spec,
                    avail: AvailabilityModelConfig::Replay {
                        trace,
                        tail: TailBehavior::ReclaimedForever,
                    },
                    believed: Some(pc.believed_chain()),
                }
            })
            .collect(),
        ncom: live.ncom,
    };
    let other = Simulation::new(RunSpec::new(
        &replay,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(0)),
        HeuristicKind::Random.build(SeedPath::root(9).rng()),
        SimOptions {
            max_slots: 10_000,
            ..SimOptions::default()
        },
    ))
    .expect("valid")
    .run();
    if other.finished() {
        assert!(other.makespan_or_cap() <= horizon as u64);
    }
}
