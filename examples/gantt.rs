//! Visualize a schedule: record the per-slot activity timeline of a small
//! volatile run and render it as an ASCII Gantt chart — program transfers,
//! data transfers, compute/communication overlap, reclamations, crashes and
//! iteration barriers, worker by worker.
//!
//! ```text
//! cargo run --release --example gantt
//! ```

use volatile_grid::prelude::*;

fn main() {
    // Small, readable platform: 4 volatile processors, 2 channels.
    let mut rng = SeedPath::root(17).rng();
    let platform = PlatformConfig {
        processors: (0..4)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.88, 0.97);
                let w = rng.u64_range_inclusive(3, 8);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom: 2,
    };
    let app = AppConfig {
        tasks_per_iteration: 6,
        iterations: 2,
        t_prog: 5,
        t_data: 2,
    };

    let report = Simulation::new(RunSpec::new(
        &platform,
        &[AppSpec::rigid(app)],
        Availability::Seeded(SeedPath::root(4)),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SimOptions {
            record_timeline: true,
            placement_budget: PlacementBudget::Uncapped,
            ..SimOptions::default()
        },
    ))
    .expect("valid configuration")
    .run();

    println!("{report}\n");
    let timeline = report.timeline.as_ref().expect("recording was enabled");
    let end = report.slots_run.min(120);
    println!("{}", timeline.render(0, end));
    if report.slots_run > end {
        println!("(showing the first {end} of {} slots)", report.slots_run);
    }
    for q in 0..timeline.p() {
        println!(
            "P{q}: productive in {:.0}% of slots",
            100.0 * timeline.utilization(q)
        );
    }
}
