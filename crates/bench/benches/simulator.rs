//! Simulator throughput: complete runs on paper-sized platforms. The
//! per-run wall time here, multiplied by 296,400, is what a paper-scale
//! campaign costs.
//!
//! Worker count and replication are parameterized separately so a
//! regression in either path (the base slot loop vs the replica placement
//! path) is visible on its own axis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vg_bench::{paper_app, paper_platform};
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_sim::{AppSpec, Availability, RunSpec, SimOptions, Simulation};

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_run");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);

    for (label, p, n, wmin, iters) in [
        ("small_p6_n5_w1", 6usize, 5usize, 1u64, 3u64),
        ("paper_p20_n20_w1", 20, 20, 1, 10),
        ("volatile_p20_n20_w5", 20, 20, 5, 10),
    ] {
        let platform = paper_platform(p, 5, wmin, 11);
        let app = paper_app(n, iters, wmin, 1);
        for kind in [HeuristicKind::Mct, HeuristicKind::EmctStar] {
            for replication in [false, true] {
                let rep_label = if replication { "rep" } else { "norep" };
                g.bench_with_input(
                    BenchmarkId::new(label, format!("{}/{rep_label}", kind.name())),
                    &kind,
                    |b, &kind| {
                        b.iter(|| {
                            let report = Simulation::new(RunSpec::new(
                                &platform,
                                &[AppSpec::rigid(app)],
                                Availability::Seeded(SeedPath::root(2)),
                                kind.build(SeedPath::root(1).rng()),
                                SimOptions {
                                    replication,
                                    ..SimOptions::default()
                                },
                            ))
                            .expect("valid")
                            .run();
                            black_box(report.makespan_or_cap())
                        });
                    },
                );
            }
        }
    }
    g.finish();
}

fn bench_simulator_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_run_scaling");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);

    for p in [32usize, 128] {
        let platform = paper_platform(p, (p / 10).max(2), 2, 11);
        let app = paper_app(2 * p, 2, 2, 1);
        for replication in [false, true] {
            let rep_label = if replication { "rep" } else { "norep" };
            g.bench_with_input(
                BenchmarkId::new(rep_label, p),
                &replication,
                |b, &replication| {
                    b.iter(|| {
                        let report = Simulation::new(RunSpec::new(
                            &platform,
                            &[AppSpec::rigid(app)],
                            Availability::Seeded(SeedPath::root(2)),
                            HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
                            SimOptions {
                                max_slots: 100_000,
                                replication,
                                ..SimOptions::default()
                            },
                        ))
                        .expect("valid")
                        .run();
                        black_box(report.makespan_or_cap())
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_simulator_scaling);
criterion_main!(benches);
