//! Quickstart: run one iterative application on a volatile platform and
//! compare a volatility-blind heuristic (MCT) against the paper's
//! failure-aware EMCT* on identical availability.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use volatile_grid::prelude::*;

fn main() {
    // --- Platform: 8 volatile processors sampled the paper's way --------
    // Self-loop probabilities U[0.90, 0.99], exits split evenly; speeds
    // w_q ∈ [4, 40] slots per task; master can serve 3 workers at once.
    let mut rng = SeedPath::root(2026).rng();
    let processors: Vec<ProcessorConfig> = (0..8)
        .map(|_| {
            let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
            let w = rng.u64_range_inclusive(4, 40);
            ProcessorConfig::markov(w, chain, StartPolicy::Up)
        })
        .collect();
    let platform = PlatformConfig {
        processors,
        ncom: 3,
    };

    // --- Application: 10 iterations of 12 tasks -------------------------
    let app = AppConfig {
        tasks_per_iteration: 12,
        iterations: 10,
        t_prog: 20, // program takes 5× a data file
        t_data: 4,
    };

    println!("platform: p = {}, ncom = {}", platform.p(), platform.ncom);
    for (q, pc) in platform.processors.iter().enumerate() {
        let c = pc.believed_chain();
        println!(
            "  P{q}: w = {:>2}, P+ = {:.4}, E(w) = {:>6.2}, pi_u = {:.3}",
            pc.spec.w,
            c.p_plus(),
            c.e_w(pc.spec.w),
            c.stationary()[0]
        );
    }
    println!();

    // --- Run both heuristics on byte-identical availability -------------
    let trace_seed = SeedPath::root(7); // shared ⇒ same availability
    for kind in [HeuristicKind::Mct, HeuristicKind::EmctStar] {
        let report = Simulation::new(RunSpec::new(
            &platform,
            &[AppSpec::rigid(app)],
            Availability::Seeded(trace_seed),
            kind.build(SeedPath::root(1).rng()),
            SimOptions::default(),
        ))
        .expect("valid configuration")
        .run();
        println!("{report}");
        println!(
            "    lost to crashes: {} copies, replicas started: {}, canceled: {}",
            report.counters.copies_lost_to_down,
            report.counters.replicas_started,
            report.counters.replicas_canceled
        );
    }
}
