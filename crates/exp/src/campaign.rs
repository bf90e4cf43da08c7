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
//! in input order (`vg_des::par::par_map_init_consume`) and fold immediately
//! into per-cell [`CellStats`], keeping memory O(cells × heuristics) at
//! paper scale; set [`CampaignConfig::keep_outcomes`] to also retain the raw
//! per-instance [`InstanceOutcome`]s.
//!
//! Because all seeds derive from `(master_seed, cell, scenario, trial,
//! heuristic)` — never from the thread schedule — and the in-order fold is
//! the same code on every path, [`run_campaign`] is bit-identical to the
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
use vg_platform::source::{AvailabilitySource, SharedTraceMatrix};
use vg_platform::volatility::ScriptedOverlay;
use vg_platform::CompiledScript;
use vg_sim::{platform_chain_stats, SimArena, SimOptions, Simulation, WorkerSoA};

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
    pub fn best_completed(&self) -> Option<Slot> {
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
    /// Per-instance outcomes, kept only when the config asked for them.
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
    pub fn summarize_filtered(
        &self,
        keep: impl Fn(&ScenarioParams) -> bool,
    ) -> Vec<HeuristicSummary> {
        let mut out: Vec<HeuristicSummary> = self
            .heuristics
            .iter()
            .map(|&kind| HeuristicSummary {
                kind,
                dfb: OnlineStats::new(),
                wins: 0,
                capped_runs: 0,
            })
            .collect();
        for (cell, stats) in self.cell_stats.iter().enumerate() {
            if !keep(&self.cells[cell]) {
                continue;
            }
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

/// Runs one instance through a **warmed arena**: every heuristic on
/// byte-identical availability, reusing the arena's buffers across runs.
///
/// `chains` must be `platform_chain_stats(&scenario.platform)` — computed
/// once per scenario and shared across its trials and heuristics. The
/// availability trace is sampled once into a
/// [`SharedTraceMatrix`] by whichever run gets furthest first and replayed
/// by the other 16 heuristics (common random numbers make their traces
/// byte-identical anyway). Results are bit-identical to [`run_instance_fresh`].
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors run_instance_fresh's identity tuple plus the shared state
pub fn run_instance_in(
    arena: &mut SimArena,
    scenario: &Scenario,
    chains: &[ChainStats],
    heuristics: &[HeuristicKind],
    master_seed: u64,
    cell: usize,
    scenario_idx: usize,
    trial: u64,
    sim: SimOptions,
) -> InstanceOutcome {
    let (trace_path, sched_path) = instance_seeds(master_seed, cell, scenario_idx, trial);
    let p = scenario.platform.p();
    // The chaos layer of the cell, resolved once per instance. A malformed
    // spec scores every heuristic as capped (the generators only emit valid
    // specs, but a campaign must not abort mid-flight).
    let chaos = scenario
        .params
        .volatility
        .fault_script(p)
        .and_then(|script| {
            let model = scenario.params.volatility.correlated_model(p)?;
            Ok((script, model))
        });
    let (script, model) = match chaos {
        Ok(parts) => parts,
        Err(e) => {
            debug_assert!(false, "volatility spec rejected: {e}");
            return InstanceOutcome {
                cell,
                makespans: vec![sim.max_slots; heuristics.len()],
                completed: vec![false; heuristics.len()],
            };
        }
    };
    let trace = match model {
        // Correlated rows replace the per-worker sampling; the base worker
        // streams inside the row source use the exact per-processor seeds of
        // the independent path, so identity models reproduce it bit for bit.
        Some(model) => match model.build(&scenario.platform, &trace_path) {
            Ok(rows) => SharedTraceMatrix::record_rows(Box::new(rows)),
            Err(e) => {
                debug_assert!(false, "volatility spec rejected: {e}");
                return InstanceOutcome {
                    cell,
                    makespans: vec![sim.max_slots; heuristics.len()],
                    completed: vec![false; heuristics.len()],
                };
            }
        },
        None => {
            let live: Vec<Box<dyn AvailabilitySource>> = scenario
                .platform
                .processors
                .iter()
                .enumerate()
                .map(|(q, pc)| pc.avail.build_source(trace_path.child(q as u64).rng()))
                .collect();
            SharedTraceMatrix::record(live)
        }
    };
    let mut makespans = Vec::with_capacity(heuristics.len());
    let mut completed = Vec::with_capacity(heuristics.len());
    for (h, kind) in heuristics.iter().enumerate() {
        match arena.run_shared_trace_overlay(
            &scenario.platform,
            &scenario.app,
            kind.build(sched_path.child(h as u64).rng()),
            chains,
            &trace,
            script.as_ref(),
            sim,
        ) {
            Ok(outcome) => {
                makespans.push(outcome.makespan_or_cap());
                completed.push(outcome.finished());
            }
            Err(e) => {
                // Scenario generators only emit valid configs, but an
                // engine-rejected one must not abort a multi-hour campaign:
                // score it as a capped run (a lower bound that can never
                // win), exactly like a run that burned its slot cap.
                debug_assert!(false, "scenario config rejected: {e}");
                makespans.push(sim.max_slots);
                completed.push(false);
            }
        }
    }
    InstanceOutcome {
        cell,
        makespans,
        completed,
    }
}

/// Runs one instance with a **fresh engine per run** (the PR 1 path): every
/// heuristic on byte-identical availability, no buffer reuse.
#[must_use]
pub fn run_instance_fresh(
    scenario: &Scenario,
    heuristics: &[HeuristicKind],
    master_seed: u64,
    cell: usize,
    scenario_idx: usize,
    trial: u64,
    sim: SimOptions,
) -> InstanceOutcome {
    let (trace_path, sched_path) = instance_seeds(master_seed, cell, scenario_idx, trial);
    let p = scenario.platform.p();
    let chaos = scenario
        .params
        .volatility
        .fault_script(p)
        .and_then(|script| {
            let model = scenario.params.volatility.correlated_model(p)?;
            Ok((script, model))
        });
    let (script, model) = match chaos {
        Ok(parts) => parts,
        Err(e) => {
            debug_assert!(false, "volatility spec rejected: {e}");
            return InstanceOutcome {
                cell,
                makespans: vec![sim.max_slots; heuristics.len()],
                completed: vec![false; heuristics.len()],
            };
        }
    };
    let mut makespans = Vec::with_capacity(heuristics.len());
    let mut completed = Vec::with_capacity(heuristics.len());
    for (h, kind) in heuristics.iter().enumerate() {
        let report = run_fresh_one(
            scenario,
            *kind,
            &sched_path.child(h as u64),
            &trace_path,
            script.as_ref(),
            model.as_ref(),
            sim,
        );
        match report {
            Ok(report) => {
                makespans.push(report.makespan_or_cap());
                completed.push(report.finished());
            }
            Err(e) => {
                // Same capped-run scoring as `run_instance_in`: the two
                // runners must stay bit-identical on every path, rejected
                // configurations included.
                debug_assert!(false, "scenario config rejected: {e}");
                makespans.push(sim.max_slots);
                completed.push(false);
            }
        }
    }
    InstanceOutcome {
        cell,
        makespans,
        completed,
    }
}

/// One fresh-engine run of `run_instance_fresh`, chaos layers included —
/// the reference twin of the arena's shared-trace-plus-overlay path.
fn run_fresh_one(
    scenario: &Scenario,
    kind: HeuristicKind,
    sched_seed: &SeedPath,
    trace_path: &SeedPath,
    script: Option<&CompiledScript>,
    model: Option<&vg_platform::volatility::CorrelatedModel>,
    sim: SimOptions,
) -> Result<vg_sim::SimReport, vg_platform::ConfigError> {
    let mut engine = match model {
        Some(model) => Simulation::<WorkerSoA>::new_rows_in(
            &scenario.platform,
            &scenario.app,
            kind.build(sched_seed.rng()),
            Box::new(model.build(&scenario.platform, trace_path)?),
            sim,
        )?,
        None => Simulation::<WorkerSoA>::new_seeded(
            &scenario.platform,
            &scenario.app,
            kind.build(sched_seed.rng()),
            *trace_path,
            sim,
        )?,
    };
    if let Some(script) = script {
        engine.set_overlay(ScriptedOverlay::new(script.clone()))?;
    }
    Ok(engine.run())
}

fn empty_result(cells: &[ScenarioParams], cfg: &CampaignConfig) -> CampaignResult {
    CampaignResult {
        cells: cells.to_vec(),
        heuristics: cfg.heuristics.clone(),
        cell_stats: (0..cells.len())
            .map(|_| CellStats::new(cfg.heuristics.len()))
            .collect(),
        instances: 0,
        outcomes: cfg.keep_outcomes.then(Vec::new),
    }
}

/// Runs a campaign over `cells` through the batched, arena-reusing pipeline
/// (see the module docs). Bit-identical to [`run_campaign_reference`] at any
/// [`ParallelismConfig`].
#[must_use]
pub fn run_campaign(cells: &[ScenarioParams], cfg: &CampaignConfig) -> CampaignResult {
    let mut units = Vec::with_capacity(cells.len() * cfg.scenarios_per_cell);
    for cell in 0..cells.len() {
        for scenario in 0..cfg.scenarios_per_cell {
            units.push(ScenarioUnit { cell, scenario });
        }
    }
    let mut result = empty_result(cells, cfg);
    // A handful of scenarios per claim keeps the atomic/channel overhead
    // negligible while staying fine-grained enough to balance makespan
    // variance across threads.
    let chunk = (units.len() / (cfg.parallelism.threads() * 8)).clamp(1, 4);
    par_map_init_consume(
        &units,
        cfg.parallelism,
        chunk,
        SimArena::new,
        |arena, unit| {
            let seed = scenario_seed(cfg.master_seed, unit.cell, unit.scenario);
            let scenario = make_scenario(cells[unit.cell], seed);
            // Chain statistics are a pure function of the platform: compute
            // them once per scenario, share across trials × heuristics.
            let chains = platform_chain_stats(&scenario.platform);
            (0..cfg.trials)
                .map(|trial| {
                    run_instance_in(
                        arena,
                        &scenario,
                        &chains,
                        &cfg.heuristics,
                        cfg.master_seed,
                        unit.cell,
                        unit.scenario,
                        trial,
                        cfg.sim,
                    )
                })
                .collect::<Vec<InstanceOutcome>>()
        },
        |_, unit_outcomes| {
            for outcome in unit_outcomes {
                result.cell_stats[outcome.cell].absorb(&outcome);
                result.instances += 1;
                if let Some(kept) = &mut result.outcomes {
                    kept.push(outcome);
                }
            }
        },
    );
    result
}

/// The PR 1 **per-unit reference runner**: one work item per (scenario,
/// trial), a fresh platform and a fresh engine for every run, results
/// collected then folded. Kept as the bit-identity oracle for
/// [`run_campaign`]'s batched pipeline and as the baseline of the campaign
/// throughput bench; prefer [`run_campaign`] everywhere else.
#[must_use]
pub fn run_campaign_reference(cells: &[ScenarioParams], cfg: &CampaignConfig) -> CampaignResult {
    #[derive(Clone, Copy)]
    struct WorkUnit {
        cell: usize,
        scenario: usize,
        trial: u64,
    }
    let mut units = Vec::with_capacity(cells.len() * cfg.scenarios_per_cell * cfg.trials as usize);
    for cell in 0..cells.len() {
        for scenario in 0..cfg.scenarios_per_cell {
            for trial in 0..cfg.trials {
                units.push(WorkUnit {
                    cell,
                    scenario,
                    trial,
                });
            }
        }
    }
    let all: Vec<InstanceOutcome> = par_map(&units, cfg.parallelism, |unit| {
        let seed = scenario_seed(cfg.master_seed, unit.cell, unit.scenario);
        let scenario = make_scenario(cells[unit.cell], seed);
        run_instance_fresh(
            &scenario,
            &cfg.heuristics,
            cfg.master_seed,
            unit.cell,
            unit.scenario,
            unit.trial,
            cfg.sim,
        )
    });
    let mut result = empty_result(cells, cfg);
    for outcome in all {
        result.cell_stats[outcome.cell].absorb(&outcome);
        result.instances += 1;
        if let Some(kept) = &mut result.outcomes {
            kept.push(outcome);
        }
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
        // with row sources / set_overlay, same bits either way.
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
