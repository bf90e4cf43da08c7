//! Free-form single-cell exploration: run any `(p, n, ncom, wmin,
//! comm-scale)` cell with any heuristic subset and print the dfb summary —
//! the tool for poking at regimes the paper's grid does not cover.
//!
//! ```text
//! cargo run -p vg-exp --release --bin sweep -- \
//!     --n 30 --ncom 2 --wmin 8 --comm-scale 3 \
//!     --heuristics EMCT*,MCT,UD* --scenarios 10 --trials 3
//! ```

use vg_core::HeuristicKind;
use vg_des::par::ParallelismConfig;
use vg_exp::campaign::{run_campaign, CampaignConfig};
use vg_exp::cli::exit_on_rejected;
use vg_exp::report::summary_table;
use vg_exp::scenario::ScenarioParams;
use vg_sim::SimOptions;

#[derive(Debug)]
struct SweepArgs {
    p: usize,
    n: usize,
    ncom: usize,
    wmin: u64,
    comm_scale: u64,
    iterations: u64,
    heuristics: Vec<HeuristicKind>,
    scenarios: usize,
    trials: u64,
    seed: u64,
}

impl Default for SweepArgs {
    fn default() -> Self {
        Self {
            p: 20,
            n: 20,
            ncom: 5,
            wmin: 5,
            comm_scale: 1,
            iterations: 10,
            heuristics: HeuristicKind::GREEDY.to_vec(),
            scenarios: 8,
            trials: 2,
            seed: 42,
        }
    }
}

const USAGE: &str = "
sweep — run one custom experiment cell

Options (all optional):
  --p K             processors                    (default 20)
  --n K             tasks per iteration           (default 20)
  --ncom K          master channels               (default 5)
  --wmin K          base task cost                (default 5)
  --comm-scale K    multiply T_data and T_prog    (default 1)
  --iterations K    iterations per run            (default 10)
  --heuristics L    comma-separated paper names   (default: the 8 greedy)
  --scenarios K     sampled scenarios             (default 8)
  --trials K        trials per scenario           (default 2)
  --seed S          master seed                   (default 42)
";

fn parse_args() -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(tok) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match tok.as_str() {
            "--p" => out.p = val("--p")?.parse().map_err(|e| format!("--p: {e}"))?,
            "--n" => out.n = val("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--ncom" => out.ncom = val("--ncom")?.parse().map_err(|e| format!("--ncom: {e}"))?,
            "--wmin" => out.wmin = val("--wmin")?.parse().map_err(|e| format!("--wmin: {e}"))?,
            "--comm-scale" => {
                out.comm_scale = val("--comm-scale")?
                    .parse()
                    .map_err(|e| format!("--comm-scale: {e}"))?;
            }
            "--iterations" => {
                out.iterations = val("--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?;
            }
            "--heuristics" => {
                let list = val("--heuristics")?;
                out.heuristics = list
                    .split(',')
                    .map(|name| {
                        HeuristicKind::parse(name.trim())
                            .ok_or_else(|| format!("unknown heuristic {name:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if out.heuristics.is_empty() {
                    return Err("need at least one heuristic".into());
                }
            }
            "--scenarios" => {
                out.scenarios = val("--scenarios")?
                    .parse()
                    .map_err(|e| format!("--scenarios: {e}"))?;
            }
            "--trials" => {
                out.trials = val("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--seed" => out.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--help" | "-h" => return Err(USAGE.trim().to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cell = ScenarioParams {
        p: args.p,
        n_tasks: args.n,
        ncom: args.ncom,
        wmin: args.wmin,
        comm_scale: args.comm_scale,
        iterations: args.iterations,
        diag_lo: 0.90,
        diag_hi: 0.99,
        volatility: vg_exp::scenario::VolatilitySpec::Independent,
    };
    println!(
        "sweep: p={} n={} ncom={} wmin={} T_data={} T_prog={} iterations={}",
        cell.p,
        cell.n_tasks,
        cell.ncom,
        cell.wmin,
        cell.t_data(),
        cell.t_prog(),
        cell.iterations
    );
    let cfg = CampaignConfig {
        heuristics: args.heuristics,
        scenarios_per_cell: args.scenarios,
        trials: args.trials,
        master_seed: args.seed,
        parallelism: ParallelismConfig::Auto,
        sim: SimOptions::default(),
        keep_outcomes: false,
    };
    let result = run_campaign(std::slice::from_ref(&cell), &cfg);
    exit_on_rejected(&result);
    println!(
        "{} instances\n\n{}",
        result.instances,
        summary_table(&result.summarize())
    );
}
