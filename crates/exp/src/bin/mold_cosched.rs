//! Fidelity study for the application runtime layer: what do **moldable
//! resizing** and **two-application co-scheduling** buy on the paper's
//! volatile platforms?
//!
//! Two paired sub-studies ([`vg_exp::paired`]) over the Table-1 grid; each
//! compared pair of runs sees the byte-identical platform, availability
//! trace and scheduler seed:
//!
//! 1. **Moldable vs rigid** ([`ScenarioParams::moldable_spec`]: `n/p` tasks
//!    per UP worker, clamped to `[max(1, n/4), 2n]`). A shrunk iteration
//!    completes *less work*, so next to the relative makespan delta the
//!    study pairs the **relative throughput delta** (tasks per slot).
//! 2. **Co-scheduled vs back-to-back** ([`ScenarioParams::cosched_specs`],
//!    equal-split quotas): two identical rigid applications together versus
//!    one after the other on the same trace. The metric is the **relative
//!    makespan saving** `100·(2·solo − cosched)/(2·solo)`.
//!
//! ```text
//! cargo run -p vg-exp --release --bin mold_cosched -- [--quick] [--scenarios K] [--trials T]
//! ```
//!
//! Writes a JSON report to `$MOLD_COSCHED_OUT` (default
//! `target/MOLD_COSCHED.json`) and prints a text summary (see
//! `docs/applications.md` for the committed full-grid run).

use std::time::Instant;

use vg_core::{HeuristicKind, SharePolicy};
use vg_des::par::par_map;
use vg_exp::cli::ExpArgs;
use vg_exp::paired::{self, pct_delta, Delta, Paired, Report, Row, Value};
use vg_exp::report::text_table;
use vg_exp::{instance_seeds, make_scenario, scenario_seed, ScenarioParams};
use vg_sim::{AppSpec, Availability, RunSpec, SimArena, SimOptions};

/// What the paired design reads from one run.
#[derive(Clone, Copy)]
struct Run {
    done: bool,
    makespan: f64,
    tasks: f64,
    final_m: f64,
}

/// Runs every heuristic rigid, moldable and co-scheduled on instance
/// `(cell, scenario, trial)` — the very instance of the Table-2 campaign.
fn run_unit(
    (cell, scenario, trial): (usize, usize, u64),
    params: ScenarioParams,
    seed: u64,
) -> Vec<[Run; 3]> {
    let platform = make_scenario(params, scenario_seed(seed, cell, scenario)).platform;
    let (trace, sched) = instance_seeds(seed, cell, scenario, trial);
    let rosters: [&[AppSpec]; 3] = [
        &[params.rigid_spec()],
        &[params.moldable_spec()],
        &params.cosched_specs(),
    ];
    let mut arena = SimArena::new();
    let runs = HeuristicKind::ALL.iter().enumerate().map(|(h, kind)| {
        // All three runs share the trace and scheduler seed. The rigid run
        // doubles as the back-to-back baseline: two consecutive solo runs
        // see the same trace from slot 0, so the total is twice its makespan.
        rosters.map(|apps| {
            let scheduler = kind.build(sched.child(h as u64).rng());
            let seeded = Availability::Seeded(trace);
            let spec = RunSpec::new(&platform, apps, seeded, scheduler, SimOptions::default());
            let share = SharePolicy::EqualSplit;
            let out = arena.run(RunSpec { share, ..spec });
            let out = out.expect("valid study roster");
            let first = arena.app_outcomes().next().expect("a non-empty roster");
            Run {
                done: out.finished(),
                makespan: out.makespan_or_cap() as f64,
                tasks: first.tasks_completed as f64,
                final_m: first.final_m as f64,
            }
        })
    });
    runs.collect()
}

fn main() {
    let args = ExpArgs::from_env();
    let cells = paired::study_cells(&args);
    let what = "rigid vs moldable vs 2-app co-schedule";
    let (nc, nh) = (cells.len(), HeuristicKind::ALL.len());
    let mut report = Report::start("mold_cosched", &args, nc, nh, what, 3);

    let (scenarios, trials) = (args.scenarios, args.trials);
    let units: Vec<(usize, usize, u64)> = (0..nc)
        .flat_map(|c| (0..scenarios).flat_map(move |s| (0..trials).map(move |t| (c, s, t))))
        .collect();
    let t0 = Instant::now();
    let runs = par_map(&units, args.parallelism(), |&unit| {
        run_unit(unit, cells[unit.0], args.seed)
    });
    let elapsed = t0.elapsed().as_secs_f64();

    // Moldable vs rigid: makespan, throughput (tasks per slot) and final
    // iteration size; co-scheduled vs back-to-back: makespan saving.
    let [mut mk, mut tput, mut final_m, mut saved] = [(); 4].map(|()| Paired::new(nc, nh));
    for (&(cell, ..), unit_runs) in units.iter().zip(&runs) {
        for (h, [rigid, mold, co]) in unit_runs.iter().enumerate() {
            let done = (rigid.done, mold.done);
            let (tput_r, tput_m) = (rigid.tasks / rigid.makespan, mold.tasks / mold.makespan);
            let ok = rigid.makespan > 0.0 && mold.makespan > 0.0 && tput_r > 0.0;
            let mk_delta = pct_delta(rigid.makespan, mold.makespan);
            mk.record(cell, h, done, || ok.then_some(mk_delta));
            tput.record(cell, h, done, || ok.then(|| pct_delta(tput_r, tput_m)));
            final_m.record(cell, h, done, || Some(mold.final_m));
            let b2b = 2.0 * rigid.makespan;
            let co_saving = 100.0 * (b2b - co.makespan) / b2b;
            saved.record(cell, h, (rigid.done, co.done), || {
                (b2b > 0.0).then_some(co_saving)
            });
        }
    }

    let tput_keys = [
        "mold_tput_delta_pct_mean",
        "mold_tput_ci95_lo",
        "mold_tput_ci95_hi",
    ];
    let saved_keys = [
        "cosched_saved_pct_mean",
        "cosched_ci95_lo",
        "cosched_ci95_hi",
    ];
    // Wins: the paired 95% CI is strictly positive, and no completion flips.
    let summary = Row::default()
        .with("cells_total", nc)
        .with("cells_mold_tput_wins", tput.count_cells(Delta::wins))
        .with("cells_cosched_wins", saved.count_cells(Delta::wins));
    report.line(&summary);
    let cell_rows: Vec<Row> = (0..nc)
        .map(|i| {
            let (t, s) = (&tput.cells[i], &saved.cells[i]);
            Row::cell(&cells[i])
                .with("pairs", t.stats.count())
                .with("mold_mk_delta_pct_mean", mk.cells[i].stats.mean())
                .mean_ci(tput_keys, t)
                .with(
                    "mold_final_m_mean",
                    Value::Real3(final_m.cells[i].stats.mean()),
                )
                .with("mold_flips", t.flips)
                .with("mold_tput_wins", t.wins())
                .mean_ci(saved_keys, s)
                .with("cosched_flips", s.flips)
                .with("cosched_wins", s.wins())
        })
        .collect();
    report.rows("cells", &cell_rows);
    let heuristic_rows: Vec<Row> = HeuristicKind::ALL
        .iter()
        .enumerate()
        .map(|(h, kind)| {
            Row::default()
                .with("heuristic", kind.name())
                .with("pairs", tput.heuristics[h].stats.count())
                .mean_ci(tput_keys, &tput.heuristics[h])
                .mean_ci(saved_keys, &saved.heuristics[h])
        })
        .collect();
    report.rows("per_heuristic", &heuristic_rows);

    // The cells where each policy moves the needle the most.
    let by_tput = paired::top_rows(
        &cell_rows,
        10,
        |_| true,
        |i| tput.cells[i].stats.mean().abs(),
    );
    let by_saving = paired::top_rows(&cell_rows, 10, |_| true, |i| saved.cells[i].stats.mean());
    println!("\n{}", text_table(&[summary]));
    println!(
        "moldable vs rigid, largest |throughput delta| first:\n{}",
        text_table(&by_tput)
    );
    println!(
        "co-scheduled vs back-to-back, largest saving first:\n{}",
        text_table(&by_saving)
    );
    println!("per-heuristic deltas:\n{}", text_table(&heuristic_rows));
    eprintln!("done in {elapsed:.1}s");
    report.finish().expect("write fidelity report");
}
