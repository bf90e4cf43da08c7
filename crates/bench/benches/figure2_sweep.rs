//! Mirrors **Figure 2** at bench scale: how run cost (and the MCT↔EMCT gap)
//! scales along the `wmin` axis — the x-axis of the paper's figure. The
//! real figure is regenerated by `cargo run -p vg-exp --release --bin figure2`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_sim::{AppSpec, Availability, RunSpec, SimOptions, Simulation};

fn bench_figure2_axis(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure2_wmin_axis");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);

    for wmin in [1u64, 5, 10] {
        let params = ScenarioParams::paper(20, 5, wmin);
        let scenario = make_scenario(params, SeedPath::root(9).child(wmin));
        for kind in [HeuristicKind::Mct, HeuristicKind::Emct] {
            g.bench_with_input(
                BenchmarkId::new(format!("wmin{wmin}"), kind.name()),
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

criterion_group!(benches, bench_figure2_axis);
criterion_main!(benches);
