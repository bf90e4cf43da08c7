//! Regenerates **Table 1**: the experimental parameter grid, plus one fully
//! sampled scenario so the derived quantities are visible.
//!
//! ```text
//! cargo run -p vg-exp --release --bin table1
//! ```

use vg_des::rng::SeedPath;
use vg_exp::paired::{Row, Value};
use vg_exp::report::text_table;
use vg_exp::scenario::{make_scenario, ScenarioParams};

fn main() {
    println!("Table 1: parameter values for the Markov experiments\n");
    let parameters = [
        ("p", "20"),
        ("n", "5, 10, 20, 40"),
        ("ncom", "5, 10, 20"),
        ("wmin", "1..=10"),
        ("P(x,x)", "U[0.90, 0.99]"),
        ("P(x,y)", "(1 - P(x,x)) / 2"),
        ("w_q", "U[wmin, 10*wmin]"),
        ("T_data", "wmin"),
        ("T_prog", "5*wmin"),
        ("iterations", "10"),
    ];
    let rows: Vec<Row> = parameters
        .iter()
        .map(|&(p, values)| Row::default().with("parameter", p).with("values", values))
        .collect();
    println!("{}", text_table(&rows));

    let grid = ScenarioParams::table1_grid();
    println!("grid cells: {} (4 x 3 x 10)\n", grid.len());

    let params = ScenarioParams::paper(10, 5, 2);
    let s = make_scenario(params, SeedPath::root(42).child_str("scenario"));
    println!(
        "sample scenario (n={}, ncom={}, wmin={}): T_prog={}, T_data={}",
        params.n_tasks, params.ncom, params.wmin, s.app.t_prog, s.app.t_data
    );
    let rows: Vec<Row> = s
        .platform
        .processors
        .iter()
        .enumerate()
        .map(|(q, pc)| {
            let c = pc.believed_chain();
            Row::default()
                .with("proc", format!("P{q}"))
                .with("w", pc.spec.w)
                .with("P(u,u)", Value::Real3(c.p_uu()))
                .with("P(r,r)", Value::Real3(c.p_rr()))
                .with("P(d,d)", Value::Real3(c.raw()[2][2]))
                .with("pi_u", Value::Real3(c.stationary()[0]))
                .with("P+", Value::Real3(c.p_plus()))
                .with("E(w)", Value::Real3(c.e_w(pc.spec.w)))
        })
        .collect();
    println!("{}", text_table(&rows));
}
