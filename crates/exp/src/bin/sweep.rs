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
use vg_exp::cli::ExpArgs;
use vg_exp::report::text_table;
use vg_exp::scenario::ScenarioParams;
use vg_exp::HeuristicSummary;
use vg_sim::SimOptions;

#[derive(Debug)]
struct SweepArgs {
    /// The cell; the paper's `n = 20, ncom = 5, wmin = 5` by default.
    cell: ScenarioParams,
    heuristics: Vec<HeuristicKind>,
    /// Scenarios, trials and seed; the rest at its defaults.
    campaign: ExpArgs,
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

/// The value after flag `name`, parsed.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    name: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
    v.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args() -> Result<SweepArgs, String> {
    let mut out = SweepArgs {
        cell: ScenarioParams::paper(20, 5, 5),
        heuristics: HeuristicKind::GREEDY.to_vec(),
        campaign: ExpArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(tok) = it.next() {
        let it = &mut it;
        match tok.as_str() {
            "--p" => out.cell.p = value(it, &tok)?,
            "--n" => out.cell.n_tasks = value(it, &tok)?,
            "--ncom" => out.cell.ncom = value(it, &tok)?,
            "--wmin" => out.cell.wmin = value(it, &tok)?,
            "--comm-scale" => out.cell.comm_scale = value(it, &tok)?,
            "--iterations" => out.cell.iterations = value(it, &tok)?,
            "--heuristics" => {
                let list: String = value(it, &tok)?;
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
            "--scenarios" => out.campaign.scenarios = value(it, &tok)?,
            "--trials" => out.campaign.trials = value(it, &tok)?,
            "--seed" => out.campaign.seed = value(it, &tok)?,
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
    let cell = args.cell;
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
    let roster = &args.heuristics;
    let result = args
        .campaign
        .campaign(roster, &[cell], SimOptions::default(), false);
    let rows: Vec<_> = result
        .summarize()
        .iter()
        .map(HeuristicSummary::row)
        .collect();
    println!("{} instances\n\n{}", result.instances, text_table(&rows));
}
