//! Mirrors **Table 3** at bench scale: the contention-prone cell
//! (`n = 20, ncom = 5, wmin = 1`) at communication scales ×1, ×5 and ×10,
//! contrasting a plain heuristic with its contention-aware `*` variant.
//! The real table is regenerated by `cargo run -p vg-exp --release --bin table3`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_sim::{AppSpec, Availability, RunSpec, SimOptions, Simulation};

fn bench_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3_comm_scale");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);

    for scale in [1u64, 5, 10] {
        let params = ScenarioParams {
            comm_scale: scale,
            ..ScenarioParams::paper(20, 5, 1)
        };
        let scenario = make_scenario(params, SeedPath::root(21).child(scale));
        for kind in [HeuristicKind::Emct, HeuristicKind::EmctStar] {
            g.bench_with_input(
                BenchmarkId::new(format!("x{scale}"), kind.name()),
                &kind,
                |b, &kind| {
                    b.iter(|| {
                        let r = Simulation::new(RunSpec::new(
                            &scenario.platform,
                            &[AppSpec::rigid(scenario.app)],
                            Availability::Seeded(SeedPath::root(3)),
                            kind.build(SeedPath::root(1).rng()),
                            SimOptions::default(),
                        ))
                        .expect("valid")
                        .run();
                        black_box(r.makespan_or_cap())
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
