//! Scripted chaos: kill half the platform mid-run and watch the schedule
//! absorb it.
//!
//! Runs the same seeded instance twice — once clean, once under a fault
//! script that forces 50% of the workers `DOWN` for a window — and renders
//! both Gantt charts. The kill window shows up as a solid band of crashes
//! and re-transfers; the injected-fault counter on the report says exactly
//! how many worker-slots the script flipped.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use volatile_grid::prelude::*;

fn main() {
    let mut rng = SeedPath::root(23).rng();
    let platform = PlatformConfig {
        processors: (0..6)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.92, 0.99);
                let w = rng.u64_range_inclusive(3, 8);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom: 3,
    };
    let app = AppConfig {
        tasks_per_iteration: 8,
        iterations: 2,
        t_prog: 5,
        t_data: 2,
    };
    let options = SimOptions {
        record_timeline: true,
        replication: true,
        max_extra_replicas: 2,
        ..SimOptions::default()
    };

    // The chaos DSL: plain text, compiled against the platform size.
    let script_text = "kill 50% at 30 for 25";
    let script: CompiledScript = FaultScript::parse(script_text)
        .expect("valid script")
        .compile(platform.p())
        .expect("fits the platform");

    // The script rides on the run spec as an overlay: it forces states
    // after they are drawn, so both runs face the same base availability.
    let apps = [AppSpec::rigid(app)];
    let run = |with_chaos: bool| -> SimReport {
        let spec = RunSpec::new(
            &platform,
            &apps,
            Availability::Seeded(SeedPath::root(4)),
            HeuristicKind::EmctStar.build(SeedPath::root(1).rng()),
            options,
        );
        let overlay = with_chaos.then_some(&script);
        Simulation::new(RunSpec { overlay, ..spec })
            .expect("valid configuration")
            .run()
    };

    let clean = run(false);
    let chaotic = run(true);

    for (label, report) in [("clean", &clean), (script_text, &chaotic)] {
        println!("=== {label} ===");
        println!("{report}");
        println!("injected faults: {}", report.counters.injected_faults);
        let timeline = report.timeline.as_ref().expect("recording was enabled");
        let end = report.slots_run.min(90);
        println!("{}", timeline.render(0, end));
        if report.slots_run > end {
            println!("(showing the first {end} of {} slots)", report.slots_run);
        }
        println!();
    }
    println!(
        "makespan {} -> {} slots under the kill window",
        clean.makespan_or_cap(),
        chaotic.makespan_or_cap()
    );
    assert!(
        chaotic.counters.injected_faults > 0,
        "the script must have flipped some states"
    );
}
