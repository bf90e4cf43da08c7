//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **replication cap** — 0 / 1 / 2 extra copies (Section 6.1 fixes 2);
//! * **master channel width** — `ncom ∈ {1, 5, 20}` on a fixed platform
//!   (the constraint whose presence makes the problem NP-hard);
//! * **contention correction** — Equation (1) vs Equation (2) on a
//!   communication-heavy cell.
//!
//! The throughput numbers double as outcome probes: each bench returns the
//! makespan, so `--verbose` runs expose how the knob moves the result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vg_bench::{paper_app, paper_platform};
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_sim::{AppSpec, Availability, PlacementBudget, RunSpec, SimOptions, Simulation};

fn bench_replication_cap(c: &mut Criterion) {
    let platform = paper_platform(20, 5, 3, 31);
    let app = paper_app(10, 5, 3, 1);
    let mut g = c.benchmark_group("ablation_replication_cap");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for (label, replication, cap) in [
        ("off", false, 0u8),
        ("one_extra", true, 1),
        ("paper_two_extra", true, 2),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let r = Simulation::new(RunSpec::new(
                    &platform,
                    &[AppSpec::rigid(app)],
                    Availability::Seeded(SeedPath::root(2)),
                    HeuristicKind::Emct.build(SeedPath::root(1).rng()),
                    SimOptions {
                        max_slots: 1_000_000,
                        replication,
                        max_extra_replicas: cap,
                        record_timeline: false,
                        placement_budget: PlacementBudget::Uncapped,
                    },
                ))
                .expect("valid")
                .run();
                black_box(r.makespan_or_cap())
            });
        });
    }
    g.finish();
}

fn bench_channel_width(c: &mut Criterion) {
    let app = paper_app(20, 5, 2, 1);
    let mut g = c.benchmark_group("ablation_ncom");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for ncom in [1usize, 5, 20] {
        let platform = paper_platform(20, ncom, 2, 33);
        g.bench_with_input(BenchmarkId::from_parameter(ncom), &ncom, |b, _| {
            b.iter(|| {
                let r = Simulation::new(RunSpec::new(
                    &platform,
                    &[AppSpec::rigid(app)],
                    Availability::Seeded(SeedPath::root(2)),
                    HeuristicKind::MctStar.build(SeedPath::root(1).rng()),
                    SimOptions::default(),
                ))
                .expect("valid")
                .run();
                black_box(r.makespan_or_cap())
            });
        });
    }
    g.finish();
}

fn bench_contention_correction(c: &mut Criterion) {
    // Communication-heavy: comm_scale 10 on a narrow master.
    let platform = paper_platform(20, 5, 1, 35);
    let app = paper_app(20, 5, 1, 10);
    let mut g = c.benchmark_group("ablation_eq1_vs_eq2");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for kind in [
        HeuristicKind::Mct,
        HeuristicKind::MctStar,
        HeuristicKind::Ud,
        HeuristicKind::UdStar,
    ] {
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let r = Simulation::new(RunSpec::new(
                    &platform,
                    &[AppSpec::rigid(app)],
                    Availability::Seeded(SeedPath::root(2)),
                    kind.build(SeedPath::root(1).rng()),
                    SimOptions::default(),
                ))
                .expect("valid")
                .run();
                black_box(r.makespan_or_cap())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_replication_cap,
    bench_channel_width,
    bench_contention_correction
);
criterion_main!(benches);
