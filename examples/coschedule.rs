//! Co-schedule two applications on one volatile platform: a weight-1 and a
//! weight-3 application share the workers under `SharePolicy::Weighted`,
//! and the run is rendered as the worker Gantt chart plus one **lane per
//! application** marking its iteration barriers — the per-app view that
//! the combined chart cannot show.
//!
//! ```text
//! cargo run --release --example coschedule
//! ```

use volatile_grid::prelude::*;

/// One ASCII lane for an application: `─` while the app is still running,
/// a digit at each slot where one of its iterations completed (the
/// iteration number, mod 10), blank after its last barrier.
fn app_lane(report: &AppReport, from: u64, to: u64) -> String {
    let mut lane = String::with_capacity((to - from) as usize);
    let end = report.makespan.unwrap_or(to);
    for t in from..to {
        let barrier = report
            .iteration_completed_at
            .iter()
            .position(|&b| b == t)
            .map(|i| char::from_digit(((i + 1) % 10) as u32, 10).unwrap_or('#'));
        lane.push(match barrier {
            Some(d) => d,
            None if t < end => '─',
            None => ' ',
        });
    }
    lane
}

fn main() {
    // Small, readable platform: 6 volatile processors, 2 channels.
    let mut rng = SeedPath::root(23).rng();
    let platform = PlatformConfig {
        processors: (0..6)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.98);
                let w = rng.u64_range_inclusive(3, 8);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom: 2,
    };
    // Two co-resident applications. The weighted quota split gives the
    // second app three pool placements for every one of the first when
    // both are unfinished; once one finishes, the survivor takes the
    // whole platform.
    let small = AppConfig {
        tasks_per_iteration: 4,
        iterations: 3,
        t_prog: 5,
        t_data: 2,
    };
    let big = AppConfig {
        tasks_per_iteration: 8,
        iterations: 2,
        t_prog: 5,
        t_data: 2,
    };
    let specs = [AppSpec::rigid(small), AppSpec::weighted(big, 3)];

    let spec = RunSpec::new(
        &platform,
        &specs,
        Availability::Seeded(SeedPath::root(6)),
        HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
        SimOptions {
            record_timeline: true,
            ..SimOptions::default()
        },
    );
    let report = Simulation::new(RunSpec {
        share: SharePolicy::Weighted,
        ..spec
    })
    .expect("valid configuration")
    .run_multi();

    println!("{}\n", report.combined);
    let timeline = report
        .combined
        .timeline
        .as_ref()
        .expect("recording was enabled");
    let end = report.combined.slots_run.min(120);
    println!("{}", timeline.render(0, end));

    // Per-application lanes, aligned under the worker chart: each digit is
    // an iteration barrier of that application.
    for (a, app) in report.apps.iter().enumerate() {
        println!("A{a}:   {}", app_lane(app, 0, end));
    }
    println!();
    for (a, app) in report.apps.iter().enumerate() {
        let mk = app
            .makespan
            .map_or_else(|| "unfinished".to_string(), |mk| format!("{mk} slots"));
        println!(
            "A{a} (weight {}): {} iterations of {} tasks in {mk} ({} task completions)",
            specs[a].weight, app.completed_iterations, app.final_m, app.tasks_completed,
        );
    }
    if report.combined.slots_run > end {
        println!(
            "(showing the first {end} of {} slots)",
            report.combined.slots_run
        );
    }
}
