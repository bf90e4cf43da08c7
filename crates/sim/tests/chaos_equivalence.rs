//! Chaos-layer degeneracy grid: the volatility stack must vanish exactly.
//!
//! Two passthrough contracts from the volatility layer are pinned across
//! the full 17-heuristic grid:
//!
//! 1. a [`RunSpec::overlay`] holding an **empty script** leaves
//!    every run byte-identical to the un-overlaid engine (same makespan,
//!    same per-iteration completion slots, every counter — including
//!    `injected_faults = 0`);
//! 2. a [`CorrelatedSource`] whose group modulators are all
//!    [`OutageChain::identity`] (and no diurnal spec) is byte-identical to
//!    the independent seeded path, because group draws come from their own
//!    seed streams and never shift the worker streams.
//!
//! A third pin ties the two scripted-injection implementations together:
//! for a *non-trivial* script, the row-level overlay and the per-source
//! wrappers of [`CompiledScript::wrap_sources`] must force exactly the same
//! states (the overlay additionally counts its injections; the wrappers by
//! design cannot).

use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_markov::OutageChain;
use vg_platform::fault::FaultScript;
use vg_platform::source::StartPolicy;
use vg_platform::volatility::CorrelatedModel;
use vg_platform::{AppConfig, CompiledScript, PlatformConfig, ProcessorConfig};
use vg_sim::{AppSpec, Availability, RunSpec, SimOptions, SimReport, Simulation};

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

fn app() -> AppConfig {
    AppConfig {
        tasks_per_iteration: 24,
        iterations: 1,
        t_prog: 10,
        t_data: 2,
    }
}

fn options() -> SimOptions {
    SimOptions {
        max_slots: 600,
        replication: true,
        max_extra_replicas: 2,
        ..SimOptions::default()
    }
}

/// One run of `kind` over `availability`, with an optional overlay.
fn run(
    pf: &PlatformConfig,
    kind: HeuristicKind,
    seed: u64,
    availability: Availability<'_>,
    overlay: Option<&CompiledScript>,
) -> SimReport {
    let sched = kind.build(SeedPath::root(seed ^ 0xbeef).rng());
    let apps = [AppSpec::rigid(app())];
    let spec = RunSpec::new(pf, &apps, availability, sched, options());
    Simulation::new(RunSpec { overlay, ..spec }).unwrap().run()
}

/// Base seeded run.
fn run_base(pf: &PlatformConfig, kind: HeuristicKind, seed: u64) -> SimReport {
    run(
        pf,
        kind,
        seed,
        Availability::Seeded(SeedPath::root(seed)),
        None,
    )
}

/// Same run with an overlay installed.
fn run_overlaid(
    pf: &PlatformConfig,
    kind: HeuristicKind,
    seed: u64,
    script: &CompiledScript,
) -> SimReport {
    let seeded = Availability::Seeded(SeedPath::root(seed));
    run(pf, kind, seed, seeded, Some(script))
}

/// Same run over a row source built from a correlated model.
fn run_rows(
    pf: &PlatformConfig,
    kind: HeuristicKind,
    seed: u64,
    model: &CorrelatedModel,
) -> SimReport {
    let rows = model.build(pf, &SeedPath::root(seed)).unwrap();
    run(pf, kind, seed, Availability::Rows(Box::new(rows)), None)
}

#[test]
fn empty_script_overlay_is_byte_identical_to_base() {
    let empty = CompiledScript::empty(16);
    // A script with events that all resolve to zero victims is passthrough
    // too — `kill 1%` of 16 workers rounds to zero.
    let rounded = FaultScript::parse("kill 1% at 5")
        .unwrap()
        .compile(16)
        .unwrap();
    assert!(rounded.is_passthrough());
    for seed in [41u64, 42] {
        let pf = platform(16, 3, seed);
        for kind in HeuristicKind::ALL {
            for script in [&empty, &rounded] {
                let base = run_base(&pf, kind, seed);
                let overlaid = run_overlaid(&pf, kind, seed, script);
                assert_eq!(base, overlaid, "diverged: seed={seed} {kind}");
                assert_eq!(overlaid.counters.injected_faults, 0);
            }
        }
    }
}

#[test]
fn identity_correlated_source_is_byte_identical_to_base() {
    for seed in [41u64, 42] {
        let pf = platform(16, 3, seed);
        for n_groups in [1usize, 4] {
            let model = CorrelatedModel::uniform_groups(16, n_groups, OutageChain::identity());
            for kind in HeuristicKind::ALL {
                let base = run_base(&pf, kind, seed);
                let rows = run_rows(&pf, kind, seed, &model);
                assert_eq!(base, rows, "diverged: seed={seed} groups={n_groups} {kind}");
            }
        }
    }
}

#[test]
fn row_overlay_matches_wrapped_sources() {
    let script_text = "group rack0 = 0..8\nkill group rack0 at 20 for 30\ndegrade 25% at 80 for 40";
    let seed = 7u64;
    let pf = platform(16, 3, seed);
    let script = FaultScript::parse(script_text)
        .unwrap()
        .compile(16)
        .unwrap();
    assert!(!script.is_passthrough());
    for kind in HeuristicKind::ALL {
        // Path A: per-source wrappers around the boxed seeded sources.
        let sources = pf.seeded_sources(SeedPath::root(seed)).collect();
        let wrapped = Availability::Sources(script.wrap_sources(sources));
        let wrapped = run(&pf, kind, seed, wrapped, None);
        // Path B: row-level overlay on the dense seeded bank.
        let mut overlaid = run_overlaid(&pf, kind, seed, &script);
        assert!(
            overlaid.counters.injected_faults > 0,
            "script never injected anything: {kind}"
        );
        // The wrappers cannot count injections; zero the overlay's counter
        // and the two reports must agree bit for bit.
        overlaid.counters.injected_faults = 0;
        assert_eq!(wrapped, overlaid, "overlay vs wrapped sources: {kind}");
    }
}

#[test]
fn chaos_specs_reject_mismatched_p() {
    let pf = platform(8, 3, 1);
    let apps = [AppSpec::rigid(app())];
    let spec = |availability| {
        let sched = HeuristicKind::Emct.build(SeedPath::root(2).rng());
        RunSpec::new(&pf, &apps, availability, sched, options())
    };
    let script = CompiledScript::empty(9);
    let overlaid = RunSpec {
        overlay: Some(&script),
        ..spec(Availability::Seeded(SeedPath::root(3)))
    };
    assert!(Simulation::new(overlaid).is_err());

    let model = CorrelatedModel::uniform_groups(9, 2, OutageChain::identity());
    let wide = platform(9, 3, 1);
    let rows = model.build(&wide, &SeedPath::root(3)).unwrap();
    assert!(Simulation::new(spec(Availability::Rows(Box::new(rows)))).is_err());
}
