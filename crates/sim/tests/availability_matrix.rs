//! Every [`Availability`] kind through both consumers of a [`RunSpec`].
//!
//! For one underlying stream — processor `q` seeded from `seed.child(q)` —
//! the four kinds must drive identical runs:
//!
//! * `Seeded`: the dense bank on an all-Markov platform, boxed sources on
//!   a mixed one;
//! * `sources`: `Rows` over boxed per-processor sources the caller built,
//!   on every platform;
//! * `rows`: `Rows` over an identity correlated model of the same streams;
//! * `Shared`: a recording of the same streams, with the caller's chains.
//!
//! Each runs through a fresh [`Simulation::new`] and through one warmed
//! [`SimArena`] reused across every row, with no overlay, a passthrough
//! overlay and a real one. Every fresh report must equal the seeded fresh
//! report field for field, and every arena outcome must agree with it.

use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_markov::availability::{AvailabilityChain, ChainStats};
use vg_markov::OutageChain;
use vg_platform::fault::FaultScript;
use vg_platform::source::{SharedTraceMatrix, StartPolicy, TailBehavior};
use vg_platform::volatility::CorrelatedModel;
use vg_platform::{
    AppConfig, AvailabilityModelConfig, CompiledScript, PlatformConfig, ProcessorConfig,
    ProcessorSpec, Trace,
};
use vg_sim::{AppSpec, Availability, RunSpec, SimArena, SimOptions, SimReport, Simulation};

/// Paper-style Markov processors; with `mixed`, every fourth one replays a
/// fixed trace instead, so seeded runs fall back to boxed sources.
fn platform(p: usize, mixed: bool) -> PlatformConfig {
    let mut rng = SeedPath::root(3).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|q| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(2, 8);
                if mixed && q % 4 == 0 {
                    ProcessorConfig {
                        spec: ProcessorSpec::new(w),
                        avail: AvailabilityModelConfig::Replay {
                            trace: Trace::parse("uuuurruuuud").unwrap(),
                            tail: TailBehavior::Cycle,
                        },
                        believed: None,
                    }
                } else {
                    ProcessorConfig::markov(w, chain, StartPolicy::Up)
                }
            })
            .collect(),
        ncom: 3,
    }
}

/// Four ways to give a run the stream seeded from `seed`.
const KINDS: [&str; 4] = ["seeded", "sources", "rows", "shared"];

fn availability<'a>(
    kind: &str,
    pf: &PlatformConfig,
    seed: SeedPath,
    trace: &'a SharedTraceMatrix,
    chains: &'a [ChainStats],
) -> Availability<'a> {
    match kind {
        "seeded" => Availability::Seeded(seed),
        "sources" => Availability::Rows(Box::new(pf.seeded_sources(seed).collect::<Vec<_>>())),
        "rows" => {
            let model = CorrelatedModel::uniform_groups(pf.p(), 2, OutageChain::identity());
            Availability::Rows(Box::new(model.build(pf, &seed).unwrap()))
        }
        _ => Availability::Shared { trace, chains },
    }
}

#[test]
fn every_availability_kind_agrees_through_both_consumers() {
    let p = 24;
    let app = AppConfig {
        tasks_per_iteration: 32,
        iterations: 2,
        t_prog: 4,
        t_data: 1,
    };
    let apps = [AppSpec::rigid(app)];
    let passthrough = CompiledScript::empty(p);
    let real = FaultScript::parse("kill 50% at 5 for 20")
        .unwrap()
        .compile(p)
        .unwrap();
    let overlays: [(&str, Option<&CompiledScript>); 3] = [
        ("none", None),
        ("passthrough", Some(&passthrough)),
        ("real", Some(&real)),
    ];
    let mut arena = SimArena::new();
    let mut rows = 0usize;
    for mixed in [false, true] {
        let pf = platform(p, mixed);
        let chains: Vec<ChainStats> = pf.chain_stats().collect();
        for replication in [false, true] {
            let options = SimOptions {
                max_slots: 20_000,
                replication,
                ..SimOptions::default()
            };
            for heuristic in [HeuristicKind::EmctStar, HeuristicKind::Random2w] {
                let seed = SeedPath::root(41);
                let trace = SharedTraceMatrix::record(pf.seeded_sources(seed).collect());
                let mut base: Option<SimReport> = None;
                for (overlay_name, overlay) in overlays {
                    let mut seeded_report: Option<SimReport> = None;
                    for kind in KINDS {
                        let row = format!(
                            "mixed={mixed} rep={replication} {heuristic} {overlay_name} {kind}"
                        );
                        let spec = || RunSpec {
                            overlay,
                            ..RunSpec::new(
                                &pf,
                                &apps,
                                availability(kind, &pf, seed, &trace, &chains),
                                heuristic.build(SeedPath::root(7).rng()),
                                options,
                            )
                        };
                        let fresh = Simulation::new(spec()).unwrap().run();
                        let warm = arena.run(spec()).unwrap();
                        assert_eq!(warm.makespan, fresh.makespan, "{row}");
                        assert_eq!(warm.slots_run, fresh.slots_run, "{row}");
                        assert_eq!(
                            warm.completed_iterations, fresh.completed_iterations,
                            "{row}"
                        );
                        match &seeded_report {
                            None => seeded_report = Some(fresh),
                            Some(seeded) => assert_eq!(&fresh, seeded, "{row}"),
                        }
                        rows += 1;
                    }
                    let report = seeded_report.expect("seeded row ran");
                    match overlay_name {
                        "none" => base = Some(report),
                        "passthrough" => {
                            assert_eq!(Some(&report), base.as_ref(), "passthrough changed a run");
                            assert_eq!(report.counters.injected_faults, 0);
                        }
                        _ => assert!(
                            report.counters.injected_faults > 0,
                            "the real overlay injected nothing"
                        ),
                    }
                }
            }
        }
    }
    assert_eq!(rows, 2 * 2 * 2 * 3 * KINDS.len(), "matrix shape drifted");
}

#[test]
fn every_consumer_rejects_mismatched_widths() {
    let pf = platform(8, false);
    let app = AppConfig {
        tasks_per_iteration: 4,
        iterations: 1,
        t_prog: 2,
        t_data: 1,
    };
    let apps = [AppSpec::rigid(app)];
    let wide = platform(9, false);
    let chains: Vec<ChainStats> = pf.chain_stats().collect();
    let wide_chains: Vec<ChainStats> = wide.chain_stats().collect();
    let seed = SeedPath::root(3);
    let wide_trace = SharedTraceMatrix::record(wide.seeded_sources(seed).collect());
    let trace = SharedTraceMatrix::record(pf.seeded_sources(seed).collect());
    let wide_script = CompiledScript::empty(9);
    let identity = CorrelatedModel::uniform_groups(9, 2, OutageChain::identity());
    let bad = || -> Vec<(&str, Availability<'_>, Option<&CompiledScript>)> {
        vec![
            (
                "sources",
                Availability::Rows(Box::new(wide.seeded_sources(seed).collect::<Vec<_>>())),
                None,
            ),
            (
                "rows",
                Availability::Rows(Box::new(identity.build(&wide, &seed).unwrap())),
                None,
            ),
            (
                "trace",
                Availability::Shared {
                    trace: &wide_trace,
                    chains: &chains,
                },
                None,
            ),
            (
                "chains",
                Availability::Shared {
                    trace: &trace,
                    chains: &wide_chains,
                },
                None,
            ),
            ("overlay", Availability::Seeded(seed), Some(&wide_script)),
        ]
    };
    let mut arena = SimArena::new();
    for consumer in ["fresh", "arena"] {
        for (what, availability, overlay) in bad() {
            let spec = RunSpec {
                overlay,
                ..RunSpec::new(
                    &pf,
                    &apps,
                    availability,
                    HeuristicKind::Emct.build(SeedPath::root(2).rng()),
                    SimOptions::default(),
                )
            };
            let rejected = match consumer {
                "fresh" => Simulation::new(spec).is_err(),
                _ => arena.run(spec).is_err(),
            };
            assert!(rejected, "{consumer} accepted a mismatched {what}");
        }
    }
}
