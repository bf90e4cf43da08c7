//! Paired A/B studies under common random numbers (CRN).
//!
//! The paper scores heuristics by running them on identical availability.
//! The paired studies (`cap_fidelity`, `chaos_robustness`, `mold_cosched`)
//! extend that to *configurations*: each runs a **base** and a **variant**
//! through the campaign's seed derivation ([`scenario_seed`],
//! [`instance_seeds`]), so both sides of a pair see the byte-identical
//! platform, availability trace and scheduler seed, and any difference is
//! the variant's alone. This module owns every rule those studies share.
//!
//! * **Pairing.** Per (cell, heuristic, instance), the two runs form one
//!   pair. Two campaigns stream their outcomes in input order, so
//!   [`pair_campaigns`] pairs them index by index; custom designs feed
//!   [`Paired::record`] directly.
//! * **Delta.** A pair where *both* runs completed contributes one delta —
//!   by default [`pct_delta`], `100·(variant − base)/base` — to its cell's
//!   and its heuristic's statistics. A pair with an unusable baseline (a
//!   zero makespan) contributes nothing.
//! * **Flips.** A pair where exactly one run completed (the other burned
//!   the slot cap) is a *completion flip*: it is counted, never averaged.
//!   A pair where neither completed is ignored.
//! * **Verdicts**, over a group's 95% confidence interval of the delta:
//!   *indistinguishable* when there are no flips and the interval contains
//!   0 ([`Delta::indistinguishable`]); the variant *wins* when there are no
//!   flips and the interval's lower bound is above 0 ([`Delta::wins`]).
//!
//! Reports are built from [`Row`]s — ordered `(key, value)` lists that
//! render both the artifact's one-line JSON objects and the `--csv` lines —
//! and written by [`Report`].
//!
//! [`scenario_seed`]: crate::campaign::scenario_seed
//! [`instance_seeds`]: crate::campaign::instance_seeds

use std::fmt::Write as _;

use vg_core::HeuristicKind;
use vg_des::stats::{ConfidenceInterval, OnlineStats};
use vg_sim::SimOptions;

use crate::campaign::{run_campaign, CampaignConfig, CampaignResult};
use crate::cli::{exit_on_rejected, ExpArgs};
use crate::scenario::ScenarioParams;

/// A study's grid: one small contention-free cell under `--quick` (the CI
/// smoke run), else the full 120-cell Table-1 grid.
#[must_use]
pub fn study_cells(args: &ExpArgs) -> Vec<ScenarioParams> {
    if args.quick {
        vec![ScenarioParams::paper(20, 5, 1)]
    } else {
        ScenarioParams::table1_grid()
    }
}

/// One side of a campaign pairing: `cells` under `sim` at the scale, seed
/// and threads of `args`, with the outcomes kept for [`pair_campaigns`].
/// Exits the process if any run was rejected ([`exit_on_rejected`]).
#[must_use]
pub fn campaign(args: &ExpArgs, cells: &[ScenarioParams], sim: SimOptions) -> CampaignResult {
    let cfg = CampaignConfig {
        scenarios_per_cell: args.scenarios,
        trials: args.trials,
        master_seed: args.seed,
        parallelism: args.parallelism(),
        sim,
        keep_outcomes: true,
        ..CampaignConfig::default()
    };
    let result = run_campaign(cells, &cfg);
    exit_on_rejected(&result);
    result
}

/// The relative delta `100·(variant − base)/base`, in percent.
#[must_use]
pub fn pct_delta(base: f64, variant: f64) -> f64 {
    100.0 * (variant - base) / base
}

/// Paired deltas of one group of pairs: a grid cell or a heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Deltas of the pairs where both runs completed.
    pub stats: OnlineStats,
    /// Pairs where exactly one run completed.
    pub flips: u64,
}

impl Delta {
    /// The 95% confidence interval of the mean delta.
    #[must_use]
    pub fn ci(&self) -> ConfidenceInterval {
        self.stats.confidence_interval(0.95)
    }

    /// No flips and the 95% CI contains 0.
    #[must_use]
    pub fn indistinguishable(&self) -> bool {
        self.flips == 0 && self.ci().contains(0.0)
    }

    /// No flips and the 95% CI lies strictly above 0.
    #[must_use]
    pub fn wins(&self) -> bool {
        self.flips == 0 && self.ci().lo > 0.0
    }

    /// Text-table cells `+mean` and `[+lo, +hi]` at `prec` decimals.
    #[must_use]
    pub fn text(&self, prec: usize) -> [String; 2] {
        let ci = self.ci();
        let mean = format!("{:+.*}", prec, self.stats.mean());
        [mean, format!("[{:+.*}, {:+.*}]", prec, ci.lo, prec, ci.hi)]
    }
}

/// Per-cell and per-heuristic paired deltas of one base/variant design.
#[derive(Debug, Clone, PartialEq)]
pub struct Paired {
    /// One group per grid cell.
    pub cells: Vec<Delta>,
    /// One group per heuristic (campaign order).
    pub heuristics: Vec<Delta>,
}

impl Paired {
    /// Empty groups for `cells` cells and `heuristics` heuristics.
    #[must_use]
    pub fn new(cells: usize, heuristics: usize) -> Self {
        let empty = Delta {
            stats: OnlineStats::new(),
            flips: 0,
        };
        Self {
            cells: vec![empty; cells],
            heuristics: vec![empty; heuristics],
        }
    }

    /// Records one pair of runs of heuristic `h` in `cell`; `done` is the
    /// completion of (base, variant). `delta` is evaluated only when both
    /// completed; `None` marks an unusable pair (see the module docs).
    pub fn record(
        &mut self,
        cell: usize,
        h: usize,
        done: (bool, bool),
        delta: impl FnOnce() -> Option<f64>,
    ) {
        match done {
            (true, true) => {
                if let Some(d) = delta() {
                    self.cells[cell].stats.push(d);
                    self.heuristics[h].stats.push(d);
                }
            }
            (true, false) | (false, true) => {
                self.cells[cell].flips += 1;
                self.heuristics[h].flips += 1;
            }
            (false, false) => {}
        }
    }

    /// Number of cells passing `verdict`, e.g. [`Delta::wins`].
    #[must_use]
    pub fn count_cells(&self, verdict: fn(&Delta) -> bool) -> usize {
        self.cells.iter().filter(|d| verdict(d)).count()
    }

    /// Completion flips over the whole grid.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.cells.iter().map(|d| d.flips).sum()
    }
}

/// Pairs two campaigns run by [`campaign`] on grids of the same length:
/// the relative makespan delta of `variant` against `base`, per cell and
/// per heuristic.
///
/// # Errors
/// When either campaign dropped its outcomes, or the two outcome streams
/// differ in length, heuristic count or cell at some index.
pub fn pair_campaigns(base: &CampaignResult, variant: &CampaignResult) -> Result<Paired, String> {
    let (Some(b), Some(v)) = (&base.outcomes, &variant.outcomes) else {
        return Err("pairing needs the outcomes of both campaigns".into());
    };
    let nh = base.heuristics.len();
    if b.len() != v.len() || nh != variant.heuristics.len() {
        return Err(format!(
            "shapes differ: {} vs {} instances, {nh} vs {} heuristics",
            b.len(),
            v.len(),
            variant.heuristics.len()
        ));
    }
    let mut paired = Paired::new(base.cells.len(), nh);
    for (i, (u, w)) in b.iter().zip(v).enumerate() {
        if u.cell != w.cell {
            return Err(format!(
                "outcome {i} misaligned: cell {} vs {}",
                u.cell, w.cell
            ));
        }
        for h in 0..nh {
            paired.record(u.cell, h, (u.completed[h], w.completed[h]), || {
                let (mb, mv) = (u.makespans[h], w.makespans[h]);
                (mb > 0).then(|| pct_delta(mb as f64, mv as f64))
            });
        }
    }
    Ok(paired)
}

/// Writes the `cells` and `per_heuristic` arrays of a makespan pairing
/// such as [`pair_campaigns`]'s. A cell row holds `n, ncom, wmin, pairs`,
/// the mean delta and its CI, the study's `extra(cell)` fields, then
/// `completion_flips, indistinguishable`; the cell rows are returned as
/// the study's `--csv` lines.
pub fn makespan_arrays(
    report: &mut Report,
    cells: &[ScenarioParams],
    kinds: &[HeuristicKind],
    pairing: &Paired,
    extra: impl Fn(usize) -> Row,
) -> Vec<Row> {
    const KEYS: [&str; 3] = ["mk_delta_pct_mean", "ci95_lo", "ci95_hi"];
    let cell_rows: Vec<Row> = cells
        .iter()
        .zip(&pairing.cells)
        .enumerate()
        .map(|(i, (params, d))| {
            Row::cell(params)
                .with("pairs", d.stats.count())
                .mean_ci(KEYS, d)
                .append(extra(i))
                .with("completion_flips", d.flips)
                .with("indistinguishable", d.indistinguishable())
        })
        .collect();
    let heuristic_rows: Vec<Row> = kinds
        .iter()
        .zip(&pairing.heuristics)
        .map(|(kind, d)| {
            Row::default()
                .with("heuristic", kind.name())
                .with("pairs", d.stats.count())
                .mean_ci(KEYS, d)
        })
        .collect();
    report.rows("cells", &cell_rows);
    report.rows("per_heuristic", &heuristic_rows);
    cell_rows
}

/// Text-table rows of the ten cells with the largest `key` among those
/// passing `keep`, ties in grid order: `n, ncom, wmin`, then `tail(cell)`.
pub fn top_cells(
    cells: &[ScenarioParams],
    keep: impl Fn(usize) -> bool,
    key: impl Fn(usize) -> f64,
    tail: impl Fn(usize) -> Vec<String>,
) -> Vec<Vec<String>> {
    let mut order: Vec<usize> = (0..cells.len()).filter(|&i| keep(i)).collect();
    order.sort_by(|&a, &b| key(b).total_cmp(&key(a)));
    order.truncate(10);
    let rows = order.into_iter().map(|i| {
        let c = &cells[i];
        let mut row = vec![
            c.n_tasks.to_string(),
            c.ncom.to_string(),
            c.wmin.to_string(),
        ];
        row.extend(tail(i));
        row
    });
    rows.collect()
}

/// One value of a report row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(u64),
    /// A real, rendered `{:.6}`.
    Real(f64),
    /// A real rendered `{:.3}` (iteration sizes).
    Real3(f64),
    /// A boolean.
    Bool(bool),
    /// A string, escaped in JSON.
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Self::$variant(v.into())
            }
        }
    )*};
}
value_from!(u64 => Int, f64 => Real, bool => Bool, &str => Str);

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Self::Int(v as u64)
    }
}

impl Value {
    /// The value as JSON (`json`) or as one CSV field.
    fn render(&self, json: bool) -> String {
        match self {
            Self::Int(v) => v.to_string(),
            Self::Real(v) => format!("{v:.6}"),
            Self::Real3(v) => format!("{v:.3}"),
            Self::Bool(v) => v.to_string(),
            Self::Str(s) if json => json_str(s),
            Self::Str(s) => s.clone(),
        }
    }
}

/// An ordered list of `(key, value)` pairs: one JSON object of a report,
/// or one `--csv` line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(pub Vec<(&'static str, Value)>);

impl Row {
    /// Appends `key: value`.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// Appends every pair of `other`.
    #[must_use]
    pub fn append(mut self, other: Row) -> Self {
        self.0.extend(other.0);
        self
    }

    /// The `n`, `ncom`, `wmin` keys identifying a grid cell.
    #[must_use]
    pub fn cell(params: &ScenarioParams) -> Self {
        Self::default()
            .with("n", params.n_tasks)
            .with("ncom", params.ncom)
            .with("wmin", params.wmin)
    }

    /// Appends a group's mean delta and its 95% CI bounds under `keys`
    /// (mean, lower, upper).
    #[must_use]
    pub fn mean_ci(self, keys: [&'static str; 3], d: &Delta) -> Self {
        let ci = d.ci();
        self.with(keys[0], d.stats.mean())
            .with(keys[1], ci.lo)
            .with(keys[2], ci.hi)
    }

    /// `"key": value` pairs joined by `", "`, without braces.
    #[must_use]
    pub fn fields(&self) -> String {
        let fields = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), v.render(true)));
        fields.collect::<Vec<_>>().join(", ")
    }

    /// The row as a one-line JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        format!("{{{}}}", self.fields())
    }

    /// The row's values as CSV fields.
    #[must_use]
    pub fn values(&self) -> Vec<String> {
        self.0.iter().map(|(_, v)| v.render(false)).collect()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out + "\""
}

/// A study's JSON report, written member by member in the artifact layout:
/// one line per field group, one line per array element.
#[derive(Debug)]
pub struct Report {
    study: &'static str,
    out: String,
    /// Closing brackets of the open arrays and objects.
    open: Vec<char>,
    /// No member written yet in the innermost open array or object.
    first: bool,
}

impl Report {
    /// Announces `study` on stdout — `cells` under `args`, 17 heuristics,
    /// `sides` runs of each — and starts its report with its name and run
    /// configuration.
    #[must_use]
    pub fn start(
        study: &'static str,
        args: &ExpArgs,
        cells: usize,
        what: &str,
        sides: usize,
    ) -> Self {
        let (s, t) = (args.scenarios, args.trials);
        let runs = cells * s * t as usize * 17 * sides;
        println!(
            "{study}: {cells} cells x {s} scenarios x {t} trials, 17 heuristics, {what} \
             ({runs} simulations total)"
        );
        let mut report = Self {
            study,
            out: "{".to_string(),
            open: Vec::new(),
            first: true,
        };
        let config = Row::default()
            .with("scenarios", s)
            .with("trials", t)
            .with("seed", args.seed)
            .with("quick", args.quick);
        report.line(&Row::default().with("study", study));
        report.member(&format!("\"config\": {}", config.json()));
        report
    }

    fn member(&mut self, text: &str) {
        let comma = if self.first { "" } else { "," };
        let indent = "  ".repeat(self.open.len() + 1);
        let _ = write!(self.out, "{comma}\n{indent}{text}");
        self.first = false;
    }

    fn open(&mut self, text: &str, close: char) {
        self.member(text);
        self.open.push(close);
        self.first = true;
    }

    /// Writes the fields of `row` on one line of the current object.
    pub fn line(&mut self, row: &Row) {
        self.member(&row.fields());
    }

    /// Opens the array `name` in the current object.
    pub fn array(&mut self, name: &str) {
        self.open(&format!("{}: [", json_str(name)), ']');
    }

    /// Opens a multi-line object element in the current array.
    pub fn object(&mut self) {
        self.open("{", '}');
    }

    /// Closes the innermost open array or object.
    pub fn close(&mut self) {
        if let Some(close) = self.open.pop() {
            let _ = write!(self.out, "\n{}{close}", "  ".repeat(self.open.len() + 1));
            self.first = false;
        }
    }

    /// Writes the array `name` with one one-line object per row.
    pub fn rows(&mut self, name: &str, rows: &[Row]) {
        self.array(name);
        rows.iter().for_each(|row| self.member(&row.json()));
        self.close();
    }

    /// The finished JSON text; every array and object must be closed.
    #[must_use]
    pub fn json(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed report member");
        self.out + "\n}\n"
    }

    /// Writes the report to `$<STUDY>_OUT` (default `target/<STUDY>.json`,
    /// `<STUDY>` being the upper-cased study name), then prints `csv` with
    /// a header line when `--csv` was given.
    ///
    /// # Errors
    /// When the report file cannot be written.
    pub fn finish(self, args: &ExpArgs, csv: &[Row]) -> std::io::Result<()> {
        let name = self.study.to_uppercase();
        let out = std::env::var(format!("{name}_OUT")).unwrap_or(format!("target/{name}.json"));
        if let Some(parent) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&out, self.json())?;
        println!("report written to {out}");
        if let (true, Some(first)) = (args.csv, csv.first()) {
            let keys: Vec<&str> = first.0.iter().map(|(key, _)| *key).collect();
            let rows: Vec<Vec<String>> = csv.iter().map(Row::values).collect();
            print!("{}", crate::report::csv(&keys, &rows));
        }
        Ok(())
    }
}
