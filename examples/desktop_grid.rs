//! A BOINC-style desktop grid: heavy-tailed (non-Markov!) availability,
//! with the scheduler's Markov beliefs *fitted from observed traces* — the
//! model-misspecification setting the paper names as future work.
//!
//! Machines follow a semi-Markov process: long Weibull-distributed UP
//! stretches (shape < 1, as measured on real desktop grids), log-normal
//! owner interruptions, occasional crashes. The master fits a Markov chain
//! to each machine's heartbeat history and feeds it to the Section-6
//! heuristics.
//!
//! ```text
//! cargo run --release --example desktop_grid
//! ```

use volatile_grid::exp::robustness::{desktop_model, fit_belief, RobustnessParams};
use volatile_grid::markov::semi_markov::SemiMarkovModel;
use volatile_grid::platform::ProcessorSpec;
use volatile_grid::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rp = RobustnessParams {
        up_shape: 0.7, // heavy-tailed UP durations
        up_mean: 60.0, // one "work session" ≈ 60 slots
        training_slots: 30_000,
    };

    // --- 12 heterogeneous machines --------------------------------------
    let mut rng = SeedPath::root(99).rng();
    let mut processors = Vec::new();
    println!("machine fleet (semi-Markov truth, fitted Markov belief):");
    for q in 0..12 {
        let jitter = rng.f64_range(0.5, 2.0); // office PC … workstation
        let model: SemiMarkovModel = desktop_model(&rp, jitter)?;
        let belief = fit_belief(&model, rp.training_slots, SeedPath::root(500 + q))?;
        let w = rng.u64_range_inclusive(6, 30);
        println!(
            "  M{q:<2} w = {w:>2}  true UP occupancy = {:.2}  fitted P(u,u) = {:.4}",
            model.occupancy()[0],
            belief.p_uu()
        );
        processors.push(ProcessorConfig {
            spec: ProcessorSpec::new(w),
            avail: AvailabilityModelConfig::SemiMarkov {
                model,
                start: StartPolicy::Stationary,
            },
            believed: Some(belief),
        });
    }
    let platform = PlatformConfig {
        processors,
        ncom: 4,
    };
    let app = AppConfig {
        tasks_per_iteration: 20,
        iterations: 5,
        t_prog: 25,
        t_data: 5,
    };

    // --- Tournament on identical availability ---------------------------
    println!("\nheuristic results (identical availability for all):");
    let trace_seed = SeedPath::root(2);
    let mut results = Vec::new();
    for kind in [
        HeuristicKind::Mct,
        HeuristicKind::MctStar,
        HeuristicKind::Emct,
        HeuristicKind::EmctStar,
        HeuristicKind::Ud,
        HeuristicKind::UdStar,
        HeuristicKind::Random,
    ] {
        let report = Simulation::new(RunSpec::new(
            &platform,
            &[AppSpec::rigid(app)],
            Availability::Seeded(trace_seed),
            kind.build(SeedPath::root(1).rng()),
            SimOptions::default(),
        ))
        .expect("valid configuration")
        .run();
        results.push((kind, report));
    }
    let best = results
        .iter()
        .map(|(_, r)| r.makespan_or_cap())
        .min()
        .expect("non-empty");
    for (kind, r) in &results {
        let mk = r.makespan_or_cap();
        println!(
            "  {:<8} makespan {:>6}  (+{:>5.1}% vs best)  crashes cost {} copies",
            kind.name(),
            mk,
            100.0 * (mk - best) as f64 / best as f64,
            r.counters.copies_lost_to_down,
        );
    }
    println!("\nNote: beliefs are *fitted*, not true — the failure-aware heuristics");
    println!("keep an edge exactly insofar as the Markov fit captures volatility.");
    Ok(())
}
