//! Mirrors **Table 2** at bench scale: one full dfb instance — all 17
//! heuristics on identical availability — for a representative grid cell.
//! `cargo run -p vg-exp --release --bin table2` regenerates the real table;
//! this bench tracks the cost (and, via the printed summary, the outcome)
//! of its atomic unit.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::campaign::{run_instance, CampaignConfig};
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_sim::SimArena;

fn bench_table2_instance(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2");
    g.warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);

    for (label, n, ncom, wmin) in [
        ("cell_n5_ncom5_w1", 5usize, 5usize, 1u64),
        ("cell_n20_ncom10_w5", 20, 10, 5),
    ] {
        let params = ScenarioParams::paper(n, ncom, wmin);
        let scenario = make_scenario(params, SeedPath::root(5).child(1));
        let chains: Vec<_> = scenario.platform.chain_stats().collect();
        let cfg = CampaignConfig {
            heuristics: HeuristicKind::ALL.to_vec(),
            master_seed: 42,
            ..CampaignConfig::default()
        };
        let mut arena = SimArena::new();
        g.bench_function(label, |b| {
            b.iter(|| {
                let outcome = run_instance(&mut arena, &scenario, &chains, &cfg, 0, 0, 0);
                black_box(outcome.expect("valid instance").makespans)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_table2_instance);
criterion_main!(benches);
