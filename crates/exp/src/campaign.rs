//! Campaign runner: degradation-from-best over scenario grids.
//!
//! The paper's quality metric (Section 7): for each problem instance
//! (scenario × trial), run every heuristic against *identical* availability
//! (common random numbers), take the best makespan, and charge each
//! heuristic its percentage excess over that best — the *degradation from
//! best* (dfb). A heuristic "wins" an instance when it attains (or ties) the
//! best makespan. Averaging dfb over instances and counting wins yields
//! Table 2; slicing by `wmin` yields Figure 2; the contention-prone cells
//! yield Table 3.
//!
//! ## The batched, arena-reusing pipeline
//!
//! [`run_campaign`] fans out one work unit per **scenario** (not per
//! instance): all trials and heuristics of a scenario run on the worker that
//! pulled it, so the `make_scenario` platform construction is paid once per
//! scenario instead of once per trial. Each worker thread keeps one warmed
//! [`SimArena`] for its whole lifetime, so back-to-back simulations reuse
//! every engine buffer. Instance results stream back to the calling thread
//! in claim order (`vg_des::par::par_map_init_consume`) and fold immediately
//! into per-cell [`CellStats`], keeping memory O(cells × heuristics) at
//! paper scale; set [`CampaignConfig::keep_outcomes`] to also retain the raw
//! per-instance [`InstanceOutcome`]s.
//!
//! ## Longest-predicted-first claims
//!
//! Units are claimed one at a time in descending predicted cost
//! (`predicted_cost`, ties by cell index), the longest-processing-time
//! list rule. The Table-1 grid lists its heaviest cells last (`n = 40`,
//! `wmin = 8–10`), so in grid order a pass ended with one thread running
//! the few slowest units while the others sat idle. Claim order keeps
//! units cell-major, and each cell's scenarios (and their trials) stay
//! ascending.
//!
//! Folding in claim order changes no bit of the result: [`CellStats::absorb`]
//! touches only its own cell, which still sees its instances in grid order,
//! and the remaining counters (`instances`, `rejected_runs`) are sums.
//! Kept outcomes are put back in grid order before they are returned.
//! Because claims and consumption follow the same order, the reorder buffer
//! of `par_map_init_consume` holds only results that finished while an
//! earlier-claimed unit was still running, as in grid order.
//!
//! Because all seeds derive from `(master_seed, cell, scenario, trial,
//! heuristic)` — never from the thread schedule — and each cell folds in
//! grid order on every path, [`run_campaign`] is bit-identical to the
//! per-unit reference runner [`run_campaign_reference`] at any parallelism.
//!
//! ## Capped and degenerate instances
//!
//! A run that hits [`SimOptions::max_slots`] has no makespan — only a burned
//! cap, a *lower bound* on the truth. Scoring caps as makespans would award
//! dfb 0 and a "win" to every heuristic on an instance where everyone
//! capped. Instead:
//!
//! * an instance where **no** heuristic finished is excluded from dfb/wins
//!   and tallied in [`CellStats::capped_instances`];
//! * on an instance where some finished, `best` ranges over the finishers
//!   only; a capped heuristic is charged its (lower-bound) cap dfb and
//!   counted in [`HeuristicSummary::capped_runs`], but can never win;
//! * an instance whose best makespan is 0 (degenerate configuration) is
//!   excluded and tallied in [`CellStats::degenerate_instances`] — release
//!   builds never divide by zero, so dfb is always finite and the summary
//!   sort cannot panic.

use vg_core::HeuristicKind;
use vg_des::par::{par_map, par_map_init_consume, ParallelismConfig};
use vg_des::rng::SeedPath;
use vg_des::stats::OnlineStats;
use vg_des::Slot;
use vg_markov::availability::ChainStats;
use vg_platform::source::{RowSource, SharedTraceMatrix};
use vg_platform::{CompiledScript, ConfigError, CorrelatedModel};
use vg_sim::{AppSpec, Availability, RunSpec, SimArena, SimOptions, Simulation};

use crate::paired::Row;
use crate::scenario::{make_scenario, Scenario, ScenarioParams};

/// Campaign-wide settings.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Heuristics to compare.
    pub heuristics: Vec<HeuristicKind>,
    /// Random scenarios per grid cell (the paper uses 247).
    pub scenarios_per_cell: usize,
    /// Trials (trace re-seeds) per scenario (the paper uses 10).
    pub trials: u64,
    /// Master seed; everything derives from it.
    pub master_seed: u64,
    /// Fan-out across cores.
    pub parallelism: ParallelismConfig,
    /// Engine options (slot cap, replication).
    pub sim: SimOptions,
    /// Retain every per-instance [`InstanceOutcome`] in the result
    /// (O(instances × heuristics) memory). Off by default: summaries are
    /// folded streamingly into per-cell statistics and the raw outcomes are
    /// dropped.
    pub keep_outcomes: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            heuristics: HeuristicKind::ALL.to_vec(),
            scenarios_per_cell: 8,
            trials: 2,
            master_seed: 42,
            parallelism: ParallelismConfig::Auto,
            sim: SimOptions::default(),
            keep_outcomes: false,
        }
    }
}

/// One batched unit of work: a scenario, run for every trial × heuristic on
/// one worker pull (amortizing platform construction and arena warmth).
#[derive(Debug, Clone, Copy)]
struct ScenarioUnit {
    cell: usize,
    scenario: usize,
}

/// Makespans and completion flags of all heuristics on one instance (same
/// order as the campaign's heuristic list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceOutcome {
    /// Which grid cell the instance belongs to.
    pub cell: usize,
    /// Makespan (or burned slot cap) per heuristic.
    pub makespans: Vec<Slot>,
    /// Whether each heuristic actually completed all iterations; `false`
    /// means the corresponding makespan is a slot cap, i.e. a lower bound.
    pub completed: Vec<bool>,
}

impl InstanceOutcome {
    /// Best makespan among the heuristics that finished, if any did.
    #[must_use]
    fn best_completed(&self) -> Option<Slot> {
        self.makespans
            .iter()
            .zip(&self.completed)
            .filter(|&(_, &done)| done)
            .map(|(&mk, _)| mk)
            .min()
    }
}

/// Streaming per-cell aggregates: everything `summarize`/`by_wmin` need,
/// with memory independent of the instance count.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// dfb statistics per heuristic (campaign heuristic order).
    pub dfb: Vec<OnlineStats>,
    /// Wins per heuristic (completed runs attaining the best makespan).
    pub wins: Vec<u64>,
    /// Per-heuristic capped runs on *scored* instances (charged a
    /// lower-bound dfb, never a win).
    pub capped_runs: Vec<u64>,
    /// Instances that entered the dfb/wins statistics.
    pub scored_instances: u64,
    /// Instances excluded because no heuristic finished under the slot cap.
    pub capped_instances: u64,
    /// Instances excluded because the best makespan was 0.
    pub degenerate_instances: u64,
}

impl CellStats {
    /// Empty aggregates for `heuristics` heuristics.
    #[must_use]
    pub fn new(heuristics: usize) -> Self {
        Self {
            dfb: vec![OnlineStats::new(); heuristics],
            wins: vec![0; heuristics],
            capped_runs: vec![0; heuristics],
            scored_instances: 0,
            capped_instances: 0,
            degenerate_instances: 0,
        }
    }

    /// Folds one instance into the aggregates — the single scoring routine
    /// shared by every runner (and reusable by custom studies such as the
    /// `robustness` binary), so all consumers score capped and degenerate
    /// instances identically.
    pub fn absorb(&mut self, outcome: &InstanceOutcome) {
        let Some(best) = outcome.best_completed() else {
            // Every heuristic burned its cap: the instance carries no
            // ranking information, only a tally.
            self.capped_instances += 1;
            return;
        };
        if best == 0 {
            // Degenerate (e.g. a zero-slot cap): dividing would yield
            // NaN/inf dfb; exclude rather than poison the summary sort.
            self.degenerate_instances += 1;
            return;
        }
        self.scored_instances += 1;
        for (h, (&mk, &done)) in outcome.makespans.iter().zip(&outcome.completed).enumerate() {
            // A capped run's `mk` is its burned cap ≥ best, so this charge
            // is a lower bound on its true degradation.
            let dfb = 100.0 * (mk - best) as f64 / best as f64;
            self.dfb[h].push(dfb);
            if done && mk == best {
                self.wins[h] += 1;
            }
            if !done {
                self.capped_runs[h] += 1;
            }
        }
    }
}

/// Aggregated per-heuristic results.
#[derive(Debug, Clone)]
pub struct HeuristicSummary {
    /// The heuristic.
    pub kind: HeuristicKind,
    /// dfb percentage statistics over all scored instances.
    pub dfb: OnlineStats,
    /// Number of scored instances where this heuristic was (or tied) the
    /// best *and finished*.
    pub wins: u64,
    /// Runs that hit the slot cap on scored instances (their dfb entries
    /// are lower bounds).
    pub capped_runs: u64,
}

impl HeuristicSummary {
    /// Per-heuristic dfb/wins over the instances folded into `stats`, in
    /// the order of `kinds` (the campaign's), sorted by mean dfb.
    pub fn fold<'a>(
        kinds: &[HeuristicKind],
        stats: impl IntoIterator<Item = &'a CellStats>,
    ) -> Vec<Self> {
        let mut out: Vec<Self> = kinds
            .iter()
            .map(|&kind| Self {
                kind,
                dfb: OnlineStats::new(),
                wins: 0,
                capped_runs: 0,
            })
            .collect();
        for stats in stats {
            for (h, summary) in out.iter_mut().enumerate() {
                summary.dfb.merge(&stats.dfb[h]);
                summary.wins += stats.wins[h];
                summary.capped_runs += stats.capped_runs[h];
            }
        }
        // `total_cmp` is panic-free even on pathological inputs; dfb means
        // are finite by construction (degenerate instances are excluded).
        out.sort_by(|a, b| a.dfb.mean().total_cmp(&b.dfb.mean()));
        out
    }

    /// The summary as one table row: the heuristic, its mean dfb, the
    /// half width of that mean's 95% CI, the dfb standard deviation, its
    /// wins, the scored instances and its capped runs.
    #[must_use]
    pub fn row(&self) -> Row {
        Row::default()
            .with("heuristic", self.kind.name())
            .with("avg_dfb", self.dfb.mean())
            .with("ci95_half", self.dfb.confidence_interval(0.95).half_width())
            .with("sd_dfb", self.dfb.std_dev())
            .with("wins", self.wins)
            .with("instances", self.dfb.count())
            .with("capped_runs", self.capped_runs)
    }
}

/// Full campaign result: per-cell streaming aggregates, plus the raw
/// outcomes when [`CampaignConfig::keep_outcomes`] was set.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The grid that was run.
    pub cells: Vec<ScenarioParams>,
    /// Heuristic order used throughout.
    pub heuristics: Vec<HeuristicKind>,
    /// Streaming aggregates, one per cell.
    pub cell_stats: Vec<CellStats>,
    /// Total instances run (scored + excluded).
    pub instances: usize,
    /// Runs whose volatility spec or engine configuration was rejected.
    /// They are scored as capped runs, so a non-zero count means the
    /// statistics are not the grid's: every binary that runs a campaign
    /// says so on stderr and exits non-zero.
    pub rejected_runs: u64,
    /// Per-instance outcomes in grid order (cell, scenario, trial), kept
    /// only when the config asked for them.
    pub outcomes: Option<Vec<InstanceOutcome>>,
}

impl CampaignResult {
    /// Instances excluded because every heuristic hit the slot cap.
    #[must_use]
    pub fn capped_instances(&self) -> u64 {
        self.cell_stats.iter().map(|c| c.capped_instances).sum()
    }

    /// Instances excluded because the best makespan was 0.
    #[must_use]
    pub fn degenerate_instances(&self) -> u64 {
        self.cell_stats.iter().map(|c| c.degenerate_instances).sum()
    }

    /// Instances that entered the dfb/wins statistics.
    #[must_use]
    pub fn scored_instances(&self) -> u64 {
        self.cell_stats.iter().map(|c| c.scored_instances).sum()
    }

    /// Per-heuristic dfb/wins over all instances (Table 2).
    #[must_use]
    pub fn summarize(&self) -> Vec<HeuristicSummary> {
        self.summarize_filtered(|_| true)
    }

    /// Per-heuristic dfb/wins over instances whose cell passes `keep` —
    /// e.g. `|c| c.wmin == 3` for one Figure-2 point. Cells are the
    /// aggregation granularity, so any cell-level filter is exact.
    #[must_use]
    fn summarize_filtered(&self, keep: impl Fn(&ScenarioParams) -> bool) -> Vec<HeuristicSummary> {
        let kept = self.cells.iter().zip(&self.cell_stats);
        let stats = kept.filter(|(cell, _)| keep(cell)).map(|(_, stats)| stats);
        HeuristicSummary::fold(&self.heuristics, stats)
    }

    /// The instance tallies as one row: instances run, scored, and
    /// excluded as capped or as degenerate.
    #[must_use]
    pub fn counts(&self) -> Row {
        Row::default()
            .with("instances", self.instances)
            .with("scored_instances", self.scored_instances())
            .with("capped_instances", self.capped_instances())
            .with("degenerate_instances", self.degenerate_instances())
    }

    /// Figure-2 series: mean dfb per `wmin` value for each heuristic, in the
    /// heuristic order of `kinds`. Returns `(wmins, series)` where
    /// `series[k][i]` is heuristic `k`'s mean dfb at `wmins[i]`.
    ///
    /// A kind in `kinds` that was **not** part of the campaign yields an
    /// empty series (`series[k].is_empty()`) instead of a panic, so a plot
    /// request can never abort a finished multi-hour campaign.
    #[must_use]
    pub fn by_wmin(&self, kinds: &[HeuristicKind]) -> (Vec<u64>, Vec<Vec<f64>>) {
        let mut wmins: Vec<u64> = self.cells.iter().map(|c| c.wmin).collect();
        wmins.sort_unstable();
        wmins.dedup();
        let mut series = vec![Vec::with_capacity(wmins.len()); kinds.len()];
        for &wmin in &wmins {
            let summaries = self.summarize_filtered(|c| c.wmin == wmin);
            for (k, &kind) in kinds.iter().enumerate() {
                if let Some(s) = summaries.iter().find(|s| s.kind == kind) {
                    series[k].push(s.dfb.mean());
                }
            }
        }
        (wmins, series)
    }
}

/// Seed path of the platform of scenario `scenario_idx` in grid cell
/// `cell`: every runner and every paired study builds that scenario's
/// platform from it, so they all run the very same instances.
#[must_use]
pub fn scenario_seed(master_seed: u64, cell: usize, scenario_idx: usize) -> SeedPath {
    SeedPath::root(master_seed)
        .child_str("scenario")
        .child(cell as u64)
        .child(scenario_idx as u64)
}

/// Derives the per-instance seed paths `(trace, sched)` shared by every
/// runner: trace seeds depend only on `(cell, scenario, trial, processor)`
/// so every heuristic sees identical availability; scheduler seeds
/// additionally mix in the heuristic index.
#[must_use]
pub fn instance_seeds(
    master_seed: u64,
    cell: usize,
    scenario_idx: usize,
    trial: u64,
) -> (SeedPath, SeedPath) {
    let root = SeedPath::root(master_seed);
    let trace_path = root
        .child_str("trace")
        .child(cell as u64)
        .child(scenario_idx as u64)
        .child(trial);
    let sched_path = root
        .child_str("sched")
        .child(cell as u64)
        .child(scenario_idx as u64)
        .child(trial);
    (trace_path, sched_path)
}

/// One instance's availability, resolved once for all its heuristics:
/// the seed paths of `(cell, scenario, trial)` and the cell's chaos layers.
struct Instance<'s> {
    scenario: &'s Scenario,
    trace_path: SeedPath,
    sched_path: SeedPath,
    script: Option<CompiledScript>,
    model: Option<CorrelatedModel>,
}

impl<'s> Instance<'s> {
    fn resolve(
        scenario: &'s Scenario,
        master_seed: u64,
        cell: usize,
        scenario_idx: usize,
        trial: u64,
    ) -> Result<Self, ConfigError> {
        let (trace_path, sched_path) = instance_seeds(master_seed, cell, scenario_idx, trial);
        let (p, volatility) = (scenario.platform.p(), scenario.params.volatility);
        Ok(Self {
            scenario,
            trace_path,
            sched_path,
            script: volatility.fault_script(p)?,
            model: volatility.correlated_model(p)?,
        })
    }

    /// The instance's live availability, which a fresh run samples and
    /// [`run_instance`] records for all its heuristics. Correlated rows
    /// replace the per-worker sampling; the base worker streams inside the
    /// row source use the exact per-processor seeds of the independent
    /// path, so identity models reproduce it bit for bit.
    fn rows(&self) -> Result<Box<dyn RowSource>, ConfigError> {
        let platform = &self.scenario.platform;
        Ok(match &self.model {
            Some(model) => Box::new(model.build(platform, &self.trace_path)?),
            None => platform.seeded_rows(self.trace_path),
        })
    }

    /// Runs every heuristic in order, each on the availability
    /// `availability` returns, through `run`.
    fn run_all<'a>(
        &self,
        cell: usize,
        cfg: &CampaignConfig,
        mut availability: impl FnMut() -> Result<Availability<'a>, ConfigError>,
        mut run: impl FnMut(RunSpec<'_>) -> Result<(Slot, bool), ConfigError>,
    ) -> Result<InstanceOutcome, ConfigError> {
        let apps = [AppSpec::rigid(self.scenario.app)];
        let h = cfg.heuristics.len();
        let (mut makespans, mut completed) = (Vec::with_capacity(h), Vec::with_capacity(h));
        for (h, kind) in cfg.heuristics.iter().enumerate() {
            let scheduler = kind.build(self.sched_path.child(h as u64).rng());
            let spec = RunSpec::new(
                &self.scenario.platform,
                &apps,
                availability()?,
                scheduler,
                cfg.sim,
            );
            let (makespan, done) = run(RunSpec {
                overlay: self.script.as_ref(),
                ..spec
            })?;
            makespans.push(makespan);
            completed.push(done);
        }
        Ok(InstanceOutcome {
            cell,
            makespans,
            completed,
        })
    }
}

/// Runs instance `(cell, scenario_idx, trial)` of a campaign under `cfg`
/// through a **warmed arena**: every heuristic on byte-identical
/// availability, reusing the arena's buffers across runs.
///
/// `chains` must be `scenario.platform.chain_stats()` — computed once per
/// scenario and shared across its trials and heuristics. The availability
/// is sampled once into a [`SharedTraceMatrix`] by whichever run gets
/// furthest first and replayed by the others (common random numbers make
/// their traces byte-identical anyway). Results are bit-identical to
/// fresh engines per run ([`run_campaign_reference`]).
///
/// # Errors
/// A volatility spec or engine configuration that the instance's runs
/// reject. [`run_campaign`] scores such an instance as capped runs and
/// counts them in [`CampaignResult::rejected_runs`].
pub fn run_instance(
    arena: &mut SimArena,
    scenario: &Scenario,
    chains: &[ChainStats],
    cfg: &CampaignConfig,
    cell: usize,
    scenario_idx: usize,
    trial: u64,
) -> Result<InstanceOutcome, ConfigError> {
    let instance = Instance::resolve(scenario, cfg.master_seed, cell, scenario_idx, trial)?;
    let trace = SharedTraceMatrix::try_record_rows(instance.rows()?)?;
    let shared = || {
        Ok(Availability::Shared {
            trace: &trace,
            chains,
        })
    };
    instance.run_all(cell, cfg, shared, |spec| {
        arena.run(spec).map(|o| (o.makespan_or_cap(), o.finished()))
    })
}

fn empty_result(cells: &[ScenarioParams], cfg: &CampaignConfig) -> CampaignResult {
    CampaignResult {
        cells: cells.to_vec(),
        heuristics: cfg.heuristics.clone(),
        cell_stats: (0..cells.len())
            .map(|_| CellStats::new(cfg.heuristics.len()))
            .collect(),
        instances: 0,
        rejected_runs: 0,
        outcomes: cfg.keep_outcomes.then(Vec::new),
    }
}

/// Folds one instance into `result`; each cell must see its instances in
/// grid order. A rejected instance scores every heuristic as a capped
/// run — a lower bound that can never win, exactly like a run that burned
/// its slot cap — and counts its runs in [`CampaignResult::rejected_runs`].
fn fold(
    result: &mut CampaignResult,
    cell: usize,
    cfg: &CampaignConfig,
    instance: Result<InstanceOutcome, ConfigError>,
) {
    let h = cfg.heuristics.len();
    let outcome = instance.unwrap_or_else(|_| {
        result.rejected_runs += h as u64;
        InstanceOutcome {
            cell,
            makespans: vec![cfg.sim.max_slots; h],
            completed: vec![false; h],
        }
    });
    result.cell_stats[cell].absorb(&outcome);
    result.instances += 1;
    if let Some(kept) = &mut result.outcomes {
        kept.push(outcome);
    }
}

/// Predicted relative cost of one scenario of `cell`:
/// `iterations · n_tasks · (wmin + t_data)`, saturating.
///
/// It only orders claims, so it needs to rank cells, not time them. A run
/// simulates roughly `iterations · n/p · (w + T_data)` slots, each costing
/// O(p) engine work, so `p` cancels; task costs scale with `wmin`. The
/// estimate is an integer function of the cell's parameters, so the claim
/// order is the same on every machine and every run.
fn predicted_cost(cell: &ScenarioParams) -> u64 {
    cell.iterations
        .saturating_mul(cell.n_tasks as u64)
        .saturating_mul(cell.wmin.saturating_add(cell.t_data()))
}

/// Cell indices in claim order: descending `predicted_cost`, ties by
/// ascending index.
fn claim_order(cells: &[ScenarioParams]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_unstable_by_key(|&c| (std::cmp::Reverse(predicted_cost(&cells[c])), c));
    order
}

/// Runs a campaign over `cells` through the batched, arena-reusing pipeline
/// (see the module docs). Bit-identical to [`run_campaign_reference`] at any
/// [`ParallelismConfig`].
#[must_use]
pub fn run_campaign(cells: &[ScenarioParams], cfg: &CampaignConfig) -> CampaignResult {
    let units: Vec<ScenarioUnit> = claim_order(cells)
        .into_iter()
        .flat_map(|cell| {
            (0..cfg.scenarios_per_cell).map(move |scenario| ScenarioUnit { cell, scenario })
        })
        .collect();
    let mut result = empty_result(cells, cfg);
    par_map_init_consume(
        &units,
        cfg.parallelism,
        1,
        SimArena::new,
        |arena, unit| {
            let seed = scenario_seed(cfg.master_seed, unit.cell, unit.scenario);
            let scenario = make_scenario(cells[unit.cell], seed);
            // Chain statistics are a pure function of the platform: compute
            // them once per scenario, share across trials × heuristics.
            let chains: Vec<ChainStats> = scenario.platform.chain_stats().collect();
            (0..cfg.trials)
                .map(|trial| {
                    run_instance(
                        arena,
                        &scenario,
                        &chains,
                        cfg,
                        unit.cell,
                        unit.scenario,
                        trial,
                    )
                })
                .collect::<Vec<_>>()
        },
        |i, instances| {
            for instance in instances {
                fold(&mut result, units[i].cell, cfg, instance);
            }
        },
    );
    // Each cell's instances arrived contiguous and in grid order, so a
    // stable sort by cell restores the grid order.
    if let Some(kept) = &mut result.outcomes {
        kept.sort_by_key(|o| o.cell);
    }
    result
}

/// The **per-unit reference runner**: one work item per (scenario, trial),
/// a fresh platform and a fresh engine for every run, results collected
/// then folded. Kept as the bit-identity oracle for [`run_campaign`]'s
/// batched pipeline and as the baseline of the campaign throughput bench;
/// prefer [`run_campaign`] everywhere else.
#[must_use]
pub fn run_campaign_reference(cells: &[ScenarioParams], cfg: &CampaignConfig) -> CampaignResult {
    let mut units = Vec::with_capacity(cells.len() * cfg.scenarios_per_cell * cfg.trials as usize);
    for cell in 0..cells.len() {
        for scenario in 0..cfg.scenarios_per_cell {
            for trial in 0..cfg.trials {
                units.push((cell, scenario, trial));
            }
        }
    }
    // `run_instance` with a fresh engine per run over live availability.
    let all = par_map(&units, cfg.parallelism, |&(cell, scenario_idx, trial)| {
        let seed = scenario_seed(cfg.master_seed, cell, scenario_idx);
        let scenario = make_scenario(cells[cell], seed);
        let instance = Instance::resolve(&scenario, cfg.master_seed, cell, scenario_idx, trial)?;
        instance.run_all(
            cell,
            cfg,
            || Ok(Availability::Rows(instance.rows()?)),
            |spec| {
                let report = Simulation::new(spec)?.run();
                Ok((report.makespan_or_cap(), report.finished()))
            },
        )
    });
    let mut result = empty_result(cells, cfg);
    for (&(cell, ..), instance) in units.iter().zip(all) {
        fold(&mut result, cell, cfg, instance);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(heuristics: Vec<HeuristicKind>) -> CampaignConfig {
        CampaignConfig {
            heuristics,
            scenarios_per_cell: 2,
            trials: 1,
            master_seed: 7,
            parallelism: ParallelismConfig::Sequential,
            sim: SimOptions {
                max_slots: 200_000,
                ..SimOptions::default()
            },
            keep_outcomes: false,
        }
    }

    fn tiny_cells() -> Vec<ScenarioParams> {
        vec![
            ScenarioParams {
                p: 6,
                ..ScenarioParams::paper(5, 5, 1)
            },
            ScenarioParams {
                p: 6,
                ..ScenarioParams::paper(5, 5, 3)
            },
        ]
    }

    #[test]
    fn campaign_runs_and_aggregates() {
        let cfg = tiny_config(vec![
            HeuristicKind::Mct,
            HeuristicKind::Emct,
            HeuristicKind::Random,
        ]);
        let result = run_campaign(&tiny_cells(), &cfg);
        assert_eq!(result.instances, 4);
        assert_eq!(result.scored_instances(), 4);
        assert_eq!(result.capped_instances(), 0);
        assert_eq!(result.degenerate_instances(), 0);
        assert!(result.outcomes.is_none(), "streaming mode drops outcomes");
        let summaries = result.summarize();
        assert_eq!(summaries.len(), 3);
        // Every instance has at least one winner; ties allowed.
        let total_wins: u64 = summaries.iter().map(|s| s.wins).sum();
        assert!(total_wins >= 4);
        // The best heuristic has dfb mean 0 only if it always wins; all
        // dfbs are non-negative.
        for s in &summaries {
            assert!(s.dfb.mean() >= 0.0, "{}: {}", s.kind, s.dfb.mean());
            assert_eq!(s.dfb.count(), 4);
            assert_eq!(s.capped_runs, 0);
        }
        // Sorted ascending by mean dfb.
        for pair in summaries.windows(2) {
            assert!(pair[0].dfb.mean() <= pair[1].dfb.mean());
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let mut cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::Lw]);
        cfg.keep_outcomes = true;
        let a = run_campaign(&tiny_cells(), &cfg);
        let b = run_campaign(&tiny_cells(), &cfg);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.cell_stats, b.cell_stats);
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::Ud]);
        cfg.keep_outcomes = true;
        let seq = run_campaign(&tiny_cells(), &cfg);
        cfg.parallelism = ParallelismConfig::fixed(4);
        let par = run_campaign(&tiny_cells(), &cfg);
        assert_eq!(seq.outcomes, par.outcomes);
        // The in-order streaming fold makes even the floating-point
        // aggregates bit-identical, not merely close.
        assert_eq!(seq.cell_stats, par.cell_stats);
    }

    #[test]
    fn batched_is_bit_identical_to_reference_runner() {
        // The acceptance gate: batched + parallel + arena-reusing must
        // reproduce the per-unit, fresh-engine-per-run PR 1 path bit for
        // bit — outcomes AND folded statistics.
        let mut cfg = tiny_config(vec![
            HeuristicKind::Mct,
            HeuristicKind::EmctStar,
            HeuristicKind::Random2w,
        ]);
        cfg.trials = 2;
        cfg.keep_outcomes = true;
        let reference = run_campaign_reference(&tiny_cells(), &cfg);
        cfg.parallelism = ParallelismConfig::fixed(4);
        let batched = run_campaign(&tiny_cells(), &cfg);
        assert_eq!(reference.instances, 8);
        assert_eq!(batched.instances, 8);
        assert_eq!(reference.outcomes, batched.outcomes);
        assert_eq!(reference.cell_stats, batched.cell_stats);
    }

    #[test]
    fn chaos_families_stay_bit_identical_across_runners() {
        // The volatility layer must preserve the batched ≡ reference
        // contract: shared-trace-plus-overlay in the arena vs fresh engines
        // with row sources and overlays, same bits either way.
        use crate::scenario::VolatilitySpec;
        let families = [
            VolatilitySpec::MassKill {
                pct: 50,
                at: 10,
                lasts: 40,
            },
            VolatilitySpec::CorrelatedBursts {
                groups: 3,
                p_fail: 0.02,
                p_recover: 0.05,
            },
            VolatilitySpec::Diurnal {
                groups: 2,
                period: 40,
                off_len: 15,
                stagger: 20,
            },
        ];
        let mut cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::EmctStar]);
        cfg.keep_outcomes = true;
        let baseline = run_campaign(&tiny_cells(), &cfg);
        for family in families {
            let cells: Vec<ScenarioParams> = tiny_cells()
                .into_iter()
                .map(|c| c.with_volatility(family))
                .collect();
            let reference = run_campaign_reference(&cells, &cfg);
            let mut par_cfg = cfg.clone();
            par_cfg.parallelism = ParallelismConfig::fixed(4);
            let batched = run_campaign(&cells, &par_cfg);
            assert_eq!(
                reference.outcomes, batched.outcomes,
                "{family:?}: batched diverged from reference"
            );
            assert_eq!(reference.cell_stats, batched.cell_stats);
            // And the chaos must actually bite: at least one makespan moves
            // relative to the independent baseline.
            assert_ne!(
                baseline.outcomes, batched.outcomes,
                "{family:?}: chaos changed nothing"
            );
        }
    }

    #[test]
    fn rejected_specs_are_counted_and_scored_as_capped() {
        // A 150% mass kill is not a valid fault script. Every run of the
        // cell is rejected, scored as capped (so every instance is
        // excluded), and counted — by both runners.
        use crate::scenario::VolatilitySpec;
        let cells: Vec<ScenarioParams> = tiny_cells()
            .into_iter()
            .map(|c| {
                c.with_volatility(VolatilitySpec::MassKill {
                    pct: 150,
                    at: 10,
                    lasts: 40,
                })
            })
            .collect();
        let cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::Emct]);
        let mut expected = CellStats::new(2);
        expected.capped_instances = 2;
        for result in [
            run_campaign(&cells, &cfg),
            run_campaign_reference(&cells, &cfg),
        ] {
            assert_eq!(result.instances, 4);
            assert_eq!(result.rejected_runs, 4 * 2);
            assert_eq!(result.cell_stats, vec![expected.clone(); 2]);
        }
        // A valid grid rejects nothing.
        assert_eq!(run_campaign(&tiny_cells(), &cfg).rejected_runs, 0);
    }

    #[test]
    fn forced_cap_instances_do_not_pollute_wins_or_dfb() {
        // A cap so tight nothing can finish: every instance is capped, so
        // no heuristic may record a win or a dfb observation.
        let mut cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::Emct]);
        cfg.sim.max_slots = 3;
        let result = run_campaign(&tiny_cells(), &cfg);
        assert_eq!(result.instances, 4);
        assert_eq!(result.capped_instances(), 4);
        assert_eq!(result.scored_instances(), 0);
        let summaries = result.summarize();
        for s in &summaries {
            assert_eq!(
                s.wins, 0,
                "{}: capped instances must not count wins",
                s.kind
            );
            assert_eq!(
                s.dfb.count(),
                0,
                "{}: capped instances must not enter dfb",
                s.kind
            );
        }
        // The summary sort must survive the all-empty (mean 0) case.
        assert_eq!(summaries.len(), 2);
        // by_wmin on a fully-capped campaign: finite, no panic.
        let (wmins, series) = result.by_wmin(&[HeuristicKind::Mct]);
        assert_eq!(wmins, vec![1, 3]);
        assert!(series[0].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn partially_capped_instance_charges_cap_but_never_wins() {
        let mut stats = CellStats::new(2);
        // Heuristic 0 finished in 10; heuristic 1 burned a 10-slot cap.
        // Identical numbers — but the cap must not tie-win.
        stats.absorb(&InstanceOutcome {
            cell: 0,
            makespans: vec![10, 10],
            completed: vec![true, false],
        });
        assert_eq!(stats.scored_instances, 1);
        assert_eq!(stats.wins, vec![1, 0]);
        assert_eq!(stats.capped_runs, vec![0, 1]);
        assert_eq!(stats.dfb[0].count(), 1);
        assert_eq!(stats.dfb[0].mean(), 0.0);
        // The capped run is charged its lower-bound dfb (here 0%).
        assert_eq!(stats.dfb[1].count(), 1);

        // A capped run far beyond the best is charged the full gap.
        stats.absorb(&InstanceOutcome {
            cell: 0,
            makespans: vec![10, 50],
            completed: vec![true, false],
        });
        assert_eq!(stats.dfb[1].count(), 2);
        assert_eq!(stats.dfb[1].max(), 400.0);
        assert_eq!(stats.wins, vec![2, 0]);
    }

    #[test]
    fn degenerate_best_zero_is_excluded_not_nan() {
        let mut stats = CellStats::new(2);
        stats.absorb(&InstanceOutcome {
            cell: 0,
            makespans: vec![0, 0],
            completed: vec![true, true],
        });
        assert_eq!(stats.degenerate_instances, 1);
        assert_eq!(stats.scored_instances, 0);
        assert_eq!(stats.wins, vec![0, 0]);
        assert_eq!(stats.dfb[0].count(), 0);

        // Summarizing a result containing only degenerate instances must
        // yield finite means and a panic-free sort.
        let result = CampaignResult {
            cells: vec![ScenarioParams::paper(5, 5, 1)],
            heuristics: vec![HeuristicKind::Mct, HeuristicKind::Emct],
            cell_stats: vec![stats],
            instances: 1,
            rejected_runs: 0,
            outcomes: None,
        };
        let summaries = result.summarize();
        assert_eq!(summaries.len(), 2);
        for s in &summaries {
            assert!(s.dfb.mean().is_finite());
            assert_eq!(s.dfb.count(), 0);
        }
        assert_eq!(result.degenerate_instances(), 1);
    }

    #[test]
    fn by_wmin_produces_one_point_per_value() {
        let cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::Emct]);
        let result = run_campaign(&tiny_cells(), &cfg);
        let (wmins, series) = result.by_wmin(&[HeuristicKind::Mct, HeuristicKind::Emct]);
        assert_eq!(wmins, vec![1, 3]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].len(), 2);
    }

    #[test]
    fn by_wmin_skips_kinds_absent_from_the_campaign() {
        // Asking to plot a heuristic that never ran must not panic after a
        // finished campaign — it yields an empty series instead.
        let cfg = tiny_config(vec![HeuristicKind::Mct]);
        let result = run_campaign(&tiny_cells(), &cfg);
        let (wmins, series) = result.by_wmin(&[HeuristicKind::Mct, HeuristicKind::Emct]);
        assert_eq!(wmins, vec![1, 3]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].len(), 2, "present kind gets its full series");
        assert!(series[1].is_empty(), "absent kind yields an empty series");
    }

    #[test]
    fn filtered_summary_restricts_instances() {
        let cfg = tiny_config(vec![HeuristicKind::Mct]);
        let result = run_campaign(&tiny_cells(), &cfg);
        let all = result.summarize();
        let only_w1 = result.summarize_filtered(|c| c.wmin == 1);
        assert_eq!(all[0].dfb.count(), 4);
        assert_eq!(only_w1[0].dfb.count(), 2);
    }

    #[test]
    fn claim_order_puts_the_heaviest_table1_cells_first() {
        let grid = ScenarioParams::table1_grid();
        let order = claim_order(&grid);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..grid.len()).collect::<Vec<_>>(), "a permutation");
        let key = |c: usize| (grid[c].n_tasks, grid[c].wmin);
        // One cell per ncom value has n = 40, wmin = 10 (the costliest)
        // and n = 5, wmin = 1 (the cheapest); ties keep grid order.
        let (first, last) = (&order[..3], &order[order.len() - 3..]);
        assert!(first.iter().all(|&c| key(c) == (40, 10)), "{first:?}");
        assert!(last.iter().all(|&c| key(c) == (5, 1)), "{last:?}");
        assert!(first.is_sorted() && last.is_sorted());
        for pair in order.windows(2) {
            assert!(predicted_cost(&grid[pair[0]]) >= predicted_cost(&grid[pair[1]]));
        }
    }

    #[test]
    fn cost_order_folds_bit_identically_to_grid_order() {
        // Cells listed cheapest first, so every claim runs against grid
        // order; three scenarios × two trials per cell.
        let cells: Vec<ScenarioParams> = [(5, 1), (5, 3), (10, 2)]
            .into_iter()
            .map(|(n, wmin)| ScenarioParams {
                p: 6,
                ..ScenarioParams::paper(n, 5, wmin)
            })
            .collect();
        assert_eq!(claim_order(&cells), vec![2, 1, 0]);
        let mut cfg = tiny_config(vec![
            HeuristicKind::Mct,
            HeuristicKind::EmctStar,
            HeuristicKind::Random2w,
        ]);
        cfg.scenarios_per_cell = 3;
        cfg.trials = 2;
        cfg.keep_outcomes = true;
        let reference = run_campaign_reference(&cells, &cfg);
        let grid_order: Vec<usize> = (0..3).flat_map(|c| [c; 6]).collect();
        for parallelism in [
            ParallelismConfig::Sequential,
            ParallelismConfig::fixed(2),
            ParallelismConfig::fixed(3),
        ] {
            let result = run_campaign(
                &cells,
                &CampaignConfig {
                    parallelism,
                    ..cfg.clone()
                },
            );
            let outcomes = result.outcomes.as_ref().expect("kept");
            let seen: Vec<usize> = outcomes.iter().map(|o| o.cell).collect();
            assert_eq!(seen, grid_order, "{parallelism:?}: outcomes in grid order");
            assert_eq!(result.outcomes, reference.outcomes, "{parallelism:?}");
            assert_eq!(result.cell_stats, reference.cell_stats, "{parallelism:?}");
            assert_eq!(result.instances, reference.instances);
            assert_eq!(result.rejected_runs, reference.rejected_runs);
        }
    }

    #[test]
    fn kept_outcomes_match_instance_order() {
        let mut cfg = tiny_config(vec![HeuristicKind::Mct, HeuristicKind::Emct]);
        cfg.keep_outcomes = true;
        cfg.trials = 2;
        let result = run_campaign(&tiny_cells(), &cfg);
        let outcomes = result.outcomes.as_ref().expect("kept");
        assert_eq!(outcomes.len(), result.instances);
        // (cell, scenario, trial) lexicographic order: cells change slowest.
        let cells_seen: Vec<usize> = outcomes.iter().map(|o| o.cell).collect();
        assert_eq!(cells_seen, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        for o in outcomes {
            assert_eq!(o.makespans.len(), 2);
            assert_eq!(o.completed.len(), 2);
        }
    }
}
