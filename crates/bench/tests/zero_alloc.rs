//! The zero-allocation claim of the slot loop, as a test.
//!
//! Run with: `cargo test -p vg-bench --features alloc-counter --release`
//!
//! The engine promises (see `vg_sim::engine` module docs) that once its
//! scratch buffers have warmed up, a steady-state slot — including scheduler
//! placement, the replica path, transfers, compute, task completions and
//! sibling cancellation — performs **zero** heap allocations. This binary
//! installs the counting global allocator, warms a mid-iteration simulation
//! up, and asserts allocator silence over a long run of subsequent slots.
//!
//! This file holds exactly one test so the default multi-threaded test
//! harness cannot run a neighbor concurrently and pollute the counters.
#![cfg(feature = "alloc-counter")]

use vg_bench::alloc_counter::{snapshot, CountingAllocator};
use vg_bench::{paper_app, paper_platform};
use vg_core::{HeuristicKind, SharePolicy};
use vg_des::rng::SeedPath;
use vg_markov::OutageChain;
use vg_platform::volatility::{CorrelatedModel, DiurnalSpec};
use vg_platform::FaultScript;
use vg_sim::{
    AppSpec, Availability, NoProbe, PhaseTimer, PlacementBudget, Probe, RunSpec, SimOptions,
    Simulation, WorkerSoA,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Where a warmed simulation's availability comes from: boxed
/// per-processor sources, or `Availability::Seeded`, which gives this
/// all-Markov platform the dense, row-blocked `MarkovSourceBank`.
#[derive(Debug, Clone, Copy)]
enum Avail {
    Boxed,
    DenseBank,
}

fn warmed_simulation<P: Probe>(
    p: usize,
    replication: bool,
    placement_budget: PlacementBudget,
    avail: Avail,
) -> Simulation<WorkerSoA, P> {
    let platform = paper_platform(p, (p / 10).max(2), 2, 11);
    // Many iterations keep the workload alive for the whole measured
    // window. Iteration barriers are themselves allocation-free
    // (IterationState::reset reuses buffers; the completion log is
    // preallocated), so the window may span them freely.
    let app = paper_app(2 * p, 10_000, 2, 1);
    let availability = match avail {
        Avail::Boxed => {
            let sources: Vec<_> = platform.seeded_sources(SeedPath::root(2)).collect();
            Availability::Rows(Box::new(sources))
        }
        Avail::DenseBank => Availability::Seeded(SeedPath::root(2)),
    };
    Simulation::with_probe(RunSpec::new(
        &platform,
        &[AppSpec::rigid(app)],
        availability,
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SimOptions {
            max_slots: 1_000_000,
            replication,
            record_timeline: false,
            placement_budget,
        },
    ))
    .expect("valid configuration")
}

/// The full chaos stack in steady state: a [`CorrelatedModel`] row source
/// (per-worker base chains × 4 group modulators × diurnal phase) feeding the
/// engine through `SourceBank::Rows`, with a scripted overlay whose spans
/// stay **active across the entire measured window** — every measured slot
/// pays the row fill, the group draws, the diurnal demotion and the overlay
/// forcing. All of it must be exactly as silent as the plain slot loop.
fn warmed_chaos_simulation(p: usize) -> Simulation {
    let platform = paper_platform(p, (p / 10).max(2), 2, 11);
    let app = paper_app(2 * p, 10_000, 2, 1);
    let mut model =
        CorrelatedModel::uniform_groups(p, 4, OutageChain::new(0.01, 0.20).expect("probabilities"));
    model.diurnal = Some(DiurnalSpec {
        period: 200,
        off_len: 60,
        group_stagger: 50,
    });
    let rows = model
        .build(&platform, &SeedPath::root(2))
        .expect("valid model");
    // One span covering every slot of the run plus a long kill burst inside
    // the measured window: the overlay scan always has live spans to apply.
    let script = FaultScript::parse("degrade 25% at 0 for 1000000\nkill 10% at 3000 for 2000")
        .expect("valid script")
        .compile(p)
        .expect("compiles");
    let apps = [AppSpec::rigid(app)];
    let spec = RunSpec::new(
        &platform,
        &apps,
        Availability::Rows(Box::new(rows)),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SimOptions {
            max_slots: 1_000_000,
            replication: true,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        },
    );
    Simulation::new(RunSpec {
        overlay: Some(&script),
        ..spec
    })
    .expect("valid configuration")
}

/// A 2-application co-scheduled simulation in steady state: the
/// multi-application dispatch (share quotas, per-app pool and replica
/// rounds, per-app barrier records) must be exactly as silent as the
/// single-application path once warmed.
fn warmed_two_app_simulation(p: usize) -> Simulation {
    let platform = paper_platform(p, (p / 10).max(2), 2, 11);
    let app = paper_app(p, 10_000, 2, 1);
    let specs = [AppSpec::rigid(app), AppSpec::weighted(app, 3)];
    let sources: Vec<_> = platform.seeded_sources(SeedPath::root(2)).collect();
    let spec = RunSpec::new(
        &platform,
        &specs,
        Availability::Rows(Box::new(sources)),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SimOptions {
            max_slots: 1_000_000,
            replication: true,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        },
    );
    Simulation::new(RunSpec {
        share: SharePolicy::Weighted,
        ..spec
    })
    .expect("valid configuration")
}

/// Warms `sim` up for 2000 slots — scratch buffers, worker bound-lists and
/// scheduler internals (including the loser tree and the per-candidate hot
/// rows) reach their high-water capacities — then asserts allocator
/// silence over the next 5000.
fn assert_quiet_window<P: Probe>(mut sim: Simulation<WorkerSoA, P>, what: &str) {
    for _ in 0..2_000 {
        sim.step();
        if sim.is_done() {
            panic!("warm-up exhausted the {what} workload; enlarge the app");
        }
    }
    let before = snapshot();
    for _ in 0..5_000 {
        sim.step();
        if sim.is_done() {
            break;
        }
    }
    let delta = snapshot().delta(before);
    assert!(
        delta.is_quiet(),
        "steady-state {what} slots allocated: {} allocs, {} reallocs, {} bytes over 5000 slots",
        delta.allocs,
        delta.reallocs,
        delta.bytes,
    );
}

#[test]
fn steady_state_slot_loop_is_allocation_free() {
    // p = 64 exercises the SoA column scans and the linear-scan side of the
    // greedy selection; p = 256 with replication pushes the post-barrier
    // and replica placement bursts (count ≈ 2p over ~p UP candidates) far
    // across the structured-selector crossover (`SelectorKind::choose`:
    // count · u ≥ 4096), so every such round runs on the loser tree — its
    // tournament storage (node, key and build-scratch vectors) is pinned
    // as persistent scheduler scratch, warmed to the high-water platform
    // size during the warm-up window and silent over all 5000 measured
    // slots thereafter.
    // The final config re-runs the heaviest cell under the BindCapacity
    // placement budget: at iteration starts its pool (2p tasks) dwarfs the
    // bindable capacity (≤ p workers), so the capped branch and its top-up
    // loop — pending-list seeding, per-round re-requests, in-place
    // compaction — run on most measured slots and must be exactly as
    // silent as the uncapped path (the `pending` buffer lives in the
    // persistent SlotScratch, warmed like every other column).
    // The last config samples through the dense bank: its row buffer is
    // allocated at construction, so the measured window's block sweeps
    // and per-slot row copies must be silent too.
    for (p, replication, budget, avail) in [
        (64, false, PlacementBudget::Uncapped, Avail::Boxed),
        (64, true, PlacementBudget::Uncapped, Avail::Boxed),
        (256, true, PlacementBudget::Uncapped, Avail::Boxed),
        (256, true, PlacementBudget::BindCapacity, Avail::Boxed),
        (256, true, PlacementBudget::Uncapped, Avail::DenseBank),
    ] {
        let sim = warmed_simulation::<NoProbe>(p, replication, budget, avail);
        let what = format!("p={p} replication={replication} {budget:?} {avail:?}");
        assert_quiet_window(sim, &what);
    }

    // Phase timing: a PhaseTimer engine reads the clock around every phase
    // and schedule sub-phase and sums into its own arrays, so the heaviest
    // capped cell must stay exactly as silent with the timer on.
    let sim =
        warmed_simulation::<PhaseTimer>(256, true, PlacementBudget::BindCapacity, Avail::Boxed);
    assert_quiet_window(sim, "PhaseTimer p=256 capped");

    // The multi-application engine: two weighted co-scheduled apps through
    // the quota-sharing schedule phase and the per-app barrier loop. The
    // 10_000-iteration apps keep both alive for the whole window; the
    // per-app completion logs are preallocated for every barrier, so
    // crossing barriers mid-window must stay silent too.
    assert_quiet_window(warmed_two_app_simulation(64), "2-app");

    // Scheduler chain statistics: `ChainStats::new` solves each 3×3
    // stationary distribution on the stack, so the per-processor
    // iterator allocates nothing at all.
    let platform = paper_platform(1024, 102, 2, 11);
    let before = snapshot();
    let p_plus: f64 = platform.chain_stats().map(|s| s.p_plus()).sum();
    let delta = snapshot().delta(before);
    assert!(p_plus > 0.0);
    assert!(
        delta.is_quiet(),
        "chain_stats allocated over 1024 processors: {} allocs, {} reallocs, {} bytes",
        delta.allocs,
        delta.reallocs,
        delta.bytes,
    );

    // The scripted-injection stack: correlated rows + diurnal demotion +
    // an always-active overlay. The warm-up crosses the kill burst's start
    // (slot 3000), so the measured window covers both the burst and the
    // steady degrade span.
    assert_quiet_window(warmed_chaos_simulation(64), "chaos");
}
