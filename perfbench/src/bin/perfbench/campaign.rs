//! The campaign workloads, `table2_grid` and `chaos_grid`.
//!
//! A **pass** is one `run_campaign` over the 120-cell Table-1 grid with all
//! 17 heuristics, one scenario and one trial per cell (2,040 runs), default
//! `SimOptions` (replication on, uncapped), on [`bench_threads`] threads.
//! Pass `k` of seed `s` uses its own master seed, so passes are different
//! inputs and the same `(s, k)` is always the same input.
//!
//! The untraced run times whole passes, starting another while less than
//! `--seconds` has gone by. The traced run takes pass 0, runs it once
//! through `run_campaign` (the reference and the untraced wall time), then
//! recomposes it from public pieces with a span around each layer call
//! ([`Campaign::traced_pass`]), and checks that the recomposition's
//! `CellStats` equal the reference bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vg_core::HeuristicKind;
use vg_des::par::{par_map, par_map_init_consume, ParallelismConfig};
use vg_des::rng::SeedPath;
use vg_des::Slot;
use vg_exp::scenario::{Scenario, VolatilitySpec};
use vg_exp::{
    make_scenario, run_campaign, CampaignConfig, CampaignResult, CellStats, InstanceOutcome,
    ScenarioParams,
};
use vg_markov::availability::ChainStats;
use vg_platform::source::{AvailabilitySource, SharedTraceMatrix};
use vg_platform::volatility::ScriptedOverlay;
use vg_platform::{CompiledScript, ConfigError};
use vg_sim::{platform_chain_stats, SimArena, SimOptions, Simulation, WorkerSoA};

use crate::report::{
    bench_threads, peak_rss_mib, process_cpu_s, quantile, ratio, setup_note, Digest,
    EngineCounters, LayerReport, Outcome, DEFAULT_SEED,
};
use crate::trace::{self, take_sched_tally, Layer, Recorder, SchedTally, Span, TimedScheduler};

/// Set-up repetitions at each measuring point: before every pass and
/// after the last one.
const SETUP_REPS: usize = 5;

/// Runs in the paper's own campaign: 296,400 instances × 17 heuristics.
const PAPER_RUNS: f64 = 296_400.0 * 17.0;

/// `CellStats` digest of pass 0 at [`DEFAULT_SEED`], per grid.
const PINNED_TABLE2: u64 = 0x6bf6_07a3_0165_2c9e;
const PINNED_CHAOS: u64 = 0xae14_6a06_09ba_2892;

/// Which campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The Table-1 grid under independent volatility (the paper's setting).
    Table2,
    /// The same grid, each cell under one `chaos_robustness` family,
    /// assigned round-robin.
    Chaos,
}

impl Grid {
    /// The 120 cells.
    #[must_use]
    pub fn cells(self) -> Vec<ScenarioParams> {
        let grid = ScenarioParams::table1_grid();
        match self {
            Self::Table2 => grid,
            Self::Chaos => grid
                .into_iter()
                .enumerate()
                .map(|(i, c)| c.with_volatility(chaos_family(i, &c)))
                .collect(),
        }
    }

    /// Output checks of one pass: zero capped or degenerate instances,
    /// the paper's ordering on `table2_grid`, and the pinned digest for
    /// pass 0 at the default seed.
    fn check(self, result: &CampaignResult, seed: u64, pass: u64) -> Vec<String> {
        let mut problems = Vec::new();
        let excluded = result.capped_instances() + result.degenerate_instances();
        if excluded > 0 {
            problems.push(format!(
                "pass {pass}: {excluded} capped or degenerate instance(s)"
            ));
        }
        if self == Self::Table2 {
            let order: Vec<HeuristicKind> = result.summarize().iter().map(|s| s.kind).collect();
            let best4 = &order[..4];
            if !best4.contains(&HeuristicKind::Emct) || !best4.contains(&HeuristicKind::EmctStar) {
                problems.push(format!(
                    "pass {pass}: EMCT/EMCT* not in the best four: {best4:?}"
                ));
            }
            let worst5 = &order[order.len() - 5..];
            let unweighted = [
                HeuristicKind::Random,
                HeuristicKind::Random1,
                HeuristicKind::Random2,
                HeuristicKind::Random3,
                HeuristicKind::Random4,
            ];
            if !unweighted.iter().all(|k| worst5.contains(k)) {
                problems.push(format!(
                    "pass {pass}: unweighted Random family not the worst five: {worst5:?}"
                ));
            }
        }
        if seed == DEFAULT_SEED && pass == 0 {
            let pinned = match self {
                Self::Table2 => PINNED_TABLE2,
                Self::Chaos => PINNED_CHAOS,
            };
            let got = stats_digest(&result.cell_stats);
            if got != pinned {
                problems.push(format!(
                    "pass 0: CellStats digest {got:#018x} != pinned {pinned:#018x}"
                ));
            }
        }
        problems
    }
}

/// The `chaos_robustness` families with that study's parameters, picked
/// round-robin by cell index.
fn chaos_family(i: usize, c: &ScenarioParams) -> VolatilitySpec {
    match i % 3 {
        0 => VolatilitySpec::MassKill {
            pct: 30,
            at: 50 * c.wmin,
            lasts: 100 * c.wmin,
        },
        1 => VolatilitySpec::CorrelatedBursts {
            groups: 4,
            p_fail: 0.01,
            p_recover: 0.05,
        },
        _ => VolatilitySpec::Diurnal {
            groups: 4,
            period: 400 * c.wmin,
            off_len: 120 * c.wmin,
            stagger: 100 * c.wmin,
        },
    }
}

/// Master seed of pass `pass` of workload seed `seed`.
#[must_use]
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    SeedPath::root(seed).child_str("pass").child(pass).seed()
}

/// Digest of every field of every cell's statistics, floats by their bits.
#[must_use]
pub fn stats_digest(cells: &[CellStats]) -> u64 {
    let mut d = Digest::default();
    for c in cells {
        for s in &c.dfb {
            d.word(s.count());
            d.float(s.mean());
            d.float(s.variance());
            d.float(s.min());
            d.float(s.max());
        }
        c.wins.iter().chain(&c.capped_runs).for_each(|&w| d.word(w));
        d.word(c.scored_instances);
        d.word(c.capped_instances);
        d.word(c.degenerate_instances);
    }
    d.value()
}

/// Runs of a result that failed: capped runs on scored instances, and
/// every run of a capped or degenerate instance.
fn failed_runs(result: &CampaignResult) -> u64 {
    let h = result.heuristics.len() as u64;
    result
        .cell_stats
        .iter()
        .map(|c| {
            c.capped_runs.iter().sum::<u64>() + (c.capped_instances + c.degenerate_instances) * h
        })
        .sum()
}

/// Seed of `cell`'s only scenario, as `run_campaign` derives it.
fn scenario_seed(master: u64, cell: usize) -> SeedPath {
    SeedPath::root(master)
        .child_str("scenario")
        .child(cell as u64)
        .child(0)
}

/// Trace and scheduler seed paths of `cell`'s only instance (scenario 0,
/// trial 0), as `run_campaign` derives them.
fn instance_seeds(master: u64, cell: usize) -> (SeedPath, SeedPath) {
    let root = SeedPath::root(master);
    let path = |label: &str| root.child_str(label).child(cell as u64).child(0).child(0);
    (path("trace"), path("sched"))
}

/// The instance's shared availability recording and fault script, built
/// as `run_instance_in` builds them: a correlated model records whole
/// rows, otherwise one live source per processor.
///
/// # Errors
/// A volatility spec the platform layer rejects.
pub fn instance_trace(
    scenario: &Scenario,
    trace_path: &SeedPath,
) -> Result<(SharedTraceMatrix, Option<CompiledScript>), ConfigError> {
    let p = scenario.platform.p();
    let script = scenario.params.volatility.fault_script(p)?;
    let trace = match scenario.params.volatility.correlated_model(p)? {
        Some(model) => {
            SharedTraceMatrix::record_rows(Box::new(model.build(&scenario.platform, trace_path)?))
        }
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
    Ok((trace, script))
}

/// A campaign: cells × heuristics, one scenario and one trial per cell, on
/// a fixed thread count. Each cell is one work unit.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Grid cells.
    pub cells: Vec<ScenarioParams>,
    /// Heuristics, in campaign order.
    pub heuristics: Vec<HeuristicKind>,
    /// Fan-out threads.
    pub threads: usize,
}

/// Per-unit accumulators of the traced pass.
#[derive(Debug, Default)]
struct Acc {
    sched: SchedTally,
    rows: u64,
    replayed: u64,
    quiet: u64,
    compared: u64,
    runs: u64,
    slots: u64,
    rerecord_mismatches: u64,
    slot_us: Vec<f64>,
}

/// What one traced unit sends back to the folding thread.
struct UnitResult {
    outcome: InstanceOutcome,
    spans: Vec<Span>,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
    acc: Acc,
}

/// Result of [`Campaign::traced_pass`].
#[derive(Debug)]
pub struct TracedPass {
    /// Folded per-cell statistics (must equal `run_campaign`'s).
    pub cell_stats: Vec<CellStats>,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Per-layer measurements (counters and overhead are filled later).
    pub report: LayerReport,
    /// Rows where the re-recorded trace differed from the original.
    pub rerecord_mismatches: u64,
    /// Makespans per instance, in unit order.
    pub makespans: Vec<Vec<Slot>>,
}

impl Campaign {
    /// The full workload: `grid`'s cells, all 17 heuristics.
    #[must_use]
    pub fn workload(grid: Grid) -> Self {
        Self {
            cells: grid.cells(),
            heuristics: HeuristicKind::ALL.to_vec(),
            threads: bench_threads(),
        }
    }

    /// Work units (cell indices) in `run_campaign` order.
    fn units(&self) -> Vec<usize> {
        (0..self.cells.len()).collect()
    }

    fn par(&self) -> ParallelismConfig {
        ParallelismConfig::fixed(self.threads)
    }

    /// One untraced pass through `run_campaign`.
    #[must_use]
    pub fn run_pass(&self, master: u64) -> CampaignResult {
        let cfg = CampaignConfig {
            heuristics: self.heuristics.clone(),
            scenarios_per_cell: 1,
            trials: 1,
            master_seed: master,
            parallelism: self.par(),
            sim: SimOptions::default(),
            keep_outcomes: true,
        };
        run_campaign(&self.cells, &cfg)
    }

    /// Set-up time: grid construction plus the arena warm-up, i.e. one
    /// `SimArena` per thread and, for every cell, everything its instance
    /// needs before its first slot (scenario, chain statistics, trace
    /// recording and fault script). Returns what it built, so the caller
    /// decides when that memory is freed.
    fn setup_once(&self, grid: Grid, master: u64) -> (f64, Box<dyn std::any::Any>) {
        let start = Instant::now();
        let cells = grid.cells();
        let arenas: Vec<SimArena> = (0..self.threads).map(|_| SimArena::new()).collect();
        let prepared: Vec<_> = self
            .units()
            .into_iter()
            .map(|cell| {
                let scenario = make_scenario(cells[cell], scenario_seed(master, cell));
                let chains = platform_chain_stats(&scenario.platform);
                let trace = instance_trace(&scenario, &instance_seeds(master, cell).0);
                (chains, trace)
            })
            .collect();
        (start.elapsed().as_secs_f64(), Box::new((arenas, prepared)))
    }

    /// [`SETUP_REPS`] set-up repetitions, appended to `samples`.
    fn setup_point(&self, grid: Grid, master: u64, samples: &mut Vec<f64>) {
        let mut held = None;
        for _ in 0..SETUP_REPS {
            let (secs, built) = self.setup_once(grid, master);
            // The previous repetition is freed only after this one has
            // allocated, so the next reuses warm pages, as a running
            // campaign's units do. Freed at once, the memory goes back to
            // the kernel and every repetition pays fresh page faults,
            // whose cost on a VM swings 2x from second to second.
            drop(held.replace(built));
            samples.push(secs);
        }
    }

    /// Recomposes one pass from public pieces with a span around each layer
    /// call: `par_map_init_consume` over one unit per cell, each unit
    /// `make_scenario` → `platform_chain_stats` → trace recording → 17
    /// arena runs (each heuristic wrapped in [`TimedScheduler`]), folded in
    /// order through `CellStats::absorb`. Seeds, chunking and fold order
    /// are `run_campaign`'s, so the statistics match it bit for bit.
    #[must_use]
    pub fn traced_pass(&self, master: u64) -> TracedPass {
        let h = self.heuristics.len();
        let units = self.units();
        let chunk = (units.len() / (self.par().threads() * 8)).clamp(1, 4);
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch, 0);
        let par_id = main.alloc();
        let next_thread = AtomicU64::new(1);
        let cpu0 = process_cpu_s();
        let mut cell_stats = vec![CellStats::new(h); self.cells.len()];
        let mut acc = Acc::default();
        let mut spans = Vec::new();
        let mut unit_times = Vec::with_capacity(units.len());
        let mut makespans = Vec::with_capacity(units.len());
        par_map_init_consume(
            &units,
            self.par(),
            chunk,
            || {
                (
                    SimArena::new(),
                    Recorder::new(epoch, next_thread.fetch_add(1, Ordering::Relaxed)),
                )
            },
            |(arena, rec), &cell| self.traced_unit(arena, rec, par_id, master, cell),
            |i, unit: UnitResult| {
                let outcome = &unit.outcome;
                main.time(Layer::Fold, par_id, i as u64, || {
                    cell_stats[outcome.cell].absorb(outcome);
                });
                makespans.push(unit.outcome.makespans);
                spans.extend(unit.spans);
                unit_times.push((unit.thread, unit.start_ns, unit.end_ns));
                let a = unit.acc;
                acc.sched.add(&a.sched);
                acc.rows += a.rows;
                acc.replayed += a.replayed;
                acc.quiet += a.quiet;
                acc.compared += a.compared;
                acc.runs += a.runs;
                acc.slots += a.slots;
                acc.rerecord_mismatches += a.rerecord_mismatches;
                acc.slot_us.extend(a.slot_us);
            },
        );
        let wall_ns = main.now();
        let cpu_s = process_cpu_s() - cpu0;
        main.push(
            par_id,
            0,
            Layer::Par,
            0,
            0,
            wall_ns,
            units.len() as u64,
            false,
        );
        spans.append(&mut main.spans);
        let report = LayerReport {
            times: trace::layer_times(&spans),
            sched: acc.sched,
            source_rows: acc.rows,
            source_replayed: acc.replayed,
            source_quiet: acc.quiet,
            source_compared: acc.compared,
            engine_runs: acc.runs,
            engine_slots: acc.slots,
            slot_us: acc.slot_us,
            threads: self.threads,
            cpu_s,
            wall_s: wall_ns as f64 * 1e-9,
            unit_ms: unit_times
                .iter()
                .map(|&(_, s, e)| (e - s) as f64 * 1e-6)
                .collect(),
            tail_s: tail_s(&unit_times),
            ..LayerReport::default()
        };
        TracedPass {
            cell_stats,
            spans,
            report,
            rerecord_mismatches: acc.rerecord_mismatches,
            makespans,
        }
    }

    /// One traced work unit: the only instance of `cell`.
    fn traced_unit(
        &self,
        arena: &mut SimArena,
        rec: &mut Recorder,
        par_id: u64,
        master: u64,
        cell: usize,
    ) -> UnitResult {
        let unit_id = rec.alloc();
        let start_ns = rec.now();
        let inst = cell as u64;
        let mut acc = Acc::default();
        let scenario = rec.time(Layer::Scenario, unit_id, inst, || {
            make_scenario(self.cells[cell], scenario_seed(master, cell))
        });
        let chains = rec.time(Layer::Chains, unit_id, inst, || {
            platform_chain_stats(&scenario.platform)
        });
        let (trace_path, sched_path) = instance_seeds(master, cell);
        let outcome = match rec.time(Layer::Source, unit_id, inst, || {
            instance_trace(&scenario, &trace_path)
        }) {
            Ok((trace, script)) => {
                let ids = self.traced_runs(
                    arena,
                    rec,
                    unit_id,
                    cell,
                    inst,
                    &scenario,
                    &chains,
                    &trace,
                    script.as_ref(),
                    &sched_path,
                    &mut acc,
                );
                rerecord(rec, inst, &scenario, &trace_path, &trace, &ids, &mut acc);
                ids.outcome
            }
            Err(_) => {
                // Scored as `run_instance_in` scores a rejected spec.
                InstanceOutcome {
                    cell,
                    makespans: vec![SimOptions::default().max_slots; self.heuristics.len()],
                    completed: vec![false; self.heuristics.len()],
                }
            }
        };
        let end_ns = rec.now();
        rec.push(
            unit_id,
            par_id,
            Layer::Unit,
            inst,
            start_ns,
            end_ns - start_ns,
            1,
            false,
        );
        UnitResult {
            outcome,
            spans: std::mem::take(&mut rec.spans),
            thread: rec.thread(),
            start_ns,
            end_ns,
            acc,
        }
    }

    /// Every heuristic of one instance through the arena, each run an
    /// engine span with a sched rollup child.
    #[allow(clippy::too_many_arguments)]
    fn traced_runs(
        &self,
        arena: &mut SimArena,
        rec: &mut Recorder,
        unit_id: u64,
        cell: usize,
        inst: u64,
        scenario: &Scenario,
        chains: &[ChainStats],
        trace: &SharedTraceMatrix,
        script: Option<&CompiledScript>,
        sched_path: &SeedPath,
        acc: &mut Acc,
    ) -> InstanceRuns {
        let h = self.heuristics.len();
        let mut outcome = InstanceOutcome {
            cell,
            makespans: Vec::with_capacity(h),
            completed: Vec::with_capacity(h),
        };
        let mut engines = Vec::with_capacity(h);
        for (k, kind) in self.heuristics.iter().enumerate() {
            let sched = TimedScheduler::boxed(kind.build(sched_path.child(k as u64).rng()));
            let before = trace.recorded_slots();
            let id = rec.alloc();
            let start = rec.now();
            let run = arena.run_shared_trace_overlay(
                &scenario.platform,
                &scenario.app,
                sched,
                chains,
                trace,
                script,
                SimOptions::default(),
            );
            let dur = rec.now() - start;
            let tally = take_sched_tally();
            let sampled = (trace.recorded_slots() - before) as u64;
            let slots = match run {
                Ok(o) => {
                    outcome.makespans.push(o.makespan_or_cap());
                    outcome.completed.push(o.finished());
                    o.slots_run
                }
                Err(_) => {
                    outcome.makespans.push(SimOptions::default().max_slots);
                    outcome.completed.push(false);
                    0
                }
            };
            // The run read rows 0..slots; those it did not sample itself
            // were replays of earlier runs' recording.
            acc.replayed += slots.saturating_sub(sampled);
            acc.runs += 1;
            acc.slots += slots;
            if slots > 0 {
                acc.slot_us.push(dur as f64 * 1e-3 / slots as f64);
            }
            acc.sched.add(&tally);
            rec.push(id, unit_id, Layer::Engine, inst, start, dur, slots, false);
            let sid = rec.alloc();
            rec.push(
                sid,
                id,
                Layer::Sched,
                inst,
                start,
                tally.busy_ns,
                tally.calls,
                false,
            );
            engines.push((id, start, sampled));
        }
        InstanceRuns { outcome, engines }
    }

    /// Fresh-engine pass over the same instances (`Simulation::new_seeded`
    /// or `new_rows_in`, plus the scripted overlay), for the public
    /// `SimReport` counters the arena path does not return. Also returns
    /// the makespans, which must equal the arena runs'.
    #[must_use]
    pub fn counter_pass(&self, master: u64) -> (EngineCounters, Vec<Vec<Slot>>) {
        let per_unit = par_map(&self.units(), self.par(), |&cell| {
            let scenario = make_scenario(self.cells[cell], scenario_seed(master, cell));
            let (trace_path, sched_path) = instance_seeds(master, cell);
            let (platform, app) = (&scenario.platform, &scenario.app);
            let vol = scenario.params.volatility;
            let mut counters = EngineCounters::default();
            let mut makespans = Vec::with_capacity(self.heuristics.len());
            for (k, kind) in self.heuristics.iter().enumerate() {
                let sched = kind.build(sched_path.child(k as u64).rng());
                let engine = match vol.correlated_model(platform.p()) {
                    Ok(Some(model)) => model.build(platform, &trace_path).and_then(|rows| {
                        Simulation::<WorkerSoA>::new_rows_in(
                            platform,
                            app,
                            sched,
                            Box::new(rows),
                            SimOptions::default(),
                        )
                    }),
                    Ok(None) => Simulation::new_seeded(
                        platform,
                        app,
                        sched,
                        trace_path,
                        SimOptions::default(),
                    ),
                    Err(e) => Err(e),
                };
                let engine = engine.and_then(|mut engine| {
                    if let Some(script) = vol.fault_script(platform.p())? {
                        engine.set_overlay(ScriptedOverlay::new(script))?;
                    }
                    Ok(engine)
                });
                match engine {
                    Ok(engine) => {
                        let report = engine.run();
                        makespans.push(report.makespan_or_cap());
                        counters.add(&report);
                    }
                    Err(_) => makespans.push(SimOptions::default().max_slots),
                }
            }
            (counters, makespans)
        });
        let mut total = EngineCounters::default();
        let mut makespans = Vec::with_capacity(per_unit.len());
        for (c, m) in per_unit {
            total.merge(&c);
            makespans.push(m);
        }
        (total, makespans)
    }
}

/// Engine span ids of one instance's runs, with when each started and how
/// many rows it sampled.
struct InstanceRuns {
    outcome: InstanceOutcome,
    engines: Vec<(u64, u64, u64)>,
}

/// Times the instance's lazily sampled rows by re-recording the same
/// horizon on a fresh matrix with the same seeds, and charges that time to
/// the engine spans in proportion to the rows each sampled. Also counts
/// quiet rows and checks the re-recording equals the original.
fn rerecord(
    rec: &mut Recorder,
    inst: u64,
    scenario: &Scenario,
    trace_path: &SeedPath,
    trace: &SharedTraceMatrix,
    runs: &InstanceRuns,
    acc: &mut Acc,
) {
    let horizon = trace.recorded_slots();
    let Ok((fresh, _)) = instance_trace(scenario, trace_path) else {
        acc.rerecord_mismatches += 1;
        return;
    };
    if horizon == 0 {
        return;
    }
    let start = Instant::now();
    fresh.with_row(horizon - 1, |_| ());
    let ns = trace::nanos_since(start);
    let mut prev = Vec::with_capacity(trace.p());
    for slot in 0..horizon {
        fresh.with_row(slot, |row| {
            if trace.with_row(slot, |orig| orig != row) {
                acc.rerecord_mismatches += 1;
            }
            if slot > 0 && prev.as_slice() == row {
                acc.quiet += 1;
            }
            prev.clear();
            prev.extend_from_slice(row);
        });
    }
    acc.rows += horizon as u64;
    acc.compared += horizon as u64 - 1;
    for &(engine, start_ns, sampled) in &runs.engines {
        if sampled > 0 {
            let id = rec.alloc();
            rec.push(
                id,
                engine,
                Layer::Source,
                inst,
                start_ns,
                ns * sampled / horizon as u64,
                sampled,
                true,
            );
        }
    }
}

/// Seconds from the first worker finding no unit left (the end of its
/// last unit) to the end of the last unit overall.
fn tail_s(units: &[(u64, u64, u64)]) -> f64 {
    let mut last_end: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &(thread, _, end) in units {
        let e = last_end.entry(thread).or_default();
        *e = (*e).max(end);
    }
    let first_dry = last_end.values().copied().min().unwrap_or(0);
    let last = last_end.values().copied().max().unwrap_or(0);
    (last - first_dry) as f64 * 1e-9
}

/// The untraced run: whole passes until `seconds` have gone by, end-to-end
/// metrics.
#[must_use]
pub fn measure(grid: Grid, seed: u64, seconds: f64) -> Outcome {
    let campaign = Campaign::workload(grid);
    let h = campaign.heuristics.len() as u64;
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    // Throughput over the whole window: total runs and slots over total
    // pass wall time, so every instance of every pass weighs the same.
    let (mut passes, mut runs, mut slots, mut wall) = (0u64, 0u64, 0u64, 0.0);
    let start = Instant::now();
    for pass in 0u64.. {
        campaign.setup_point(grid, pass_seed(seed, pass), &mut setup);
        let t = Instant::now();
        let result = campaign.run_pass(pass_seed(seed, pass));
        let pass_wall = t.elapsed().as_secs_f64();
        let pass_runs = result.instances as u64 * h;
        let pass_slots: u64 = result
            .outcomes
            .iter()
            .flatten()
            .flat_map(|o| &o.makespans)
            .sum();
        let problems = grid.check(&result, seed, pass);
        out.attempted += pass_runs;
        out.failed += if problems.is_empty() {
            failed_runs(&result)
        } else {
            pass_runs
        };
        out.problems.extend(problems);
        out.notes.push(format!(
            "pass {pass}: {pass_runs} runs, {pass_slots} slots in {pass_wall:.3} s, CellStats digest {:#018x}",
            stats_digest(&result.cell_stats)
        ));
        (passes, runs, slots, wall) = (
            passes + 1,
            runs + pass_runs,
            slots + pass_slots,
            wall + pass_wall,
        );
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    campaign.setup_point(grid, pass_seed(seed, passes), &mut setup);
    let sims_per_s = runs as f64 / wall;
    out.notes.push(format!(
        "{passes} pass(es) on {} thread(s); paper scale (296,400 x 17 runs) at this rate: {:.2} h",
        campaign.threads,
        ratio(PAPER_RUNS, sims_per_s) / 3600.0
    ));
    out.metric("sims_per_s", sims_per_s, "1/s");
    out.metric("slots_per_s", slots as f64 / wall, "1/s");
    out.notes.push(setup_note(&setup));
    out.metric("setup_s", quantile(&setup, 0.0), "s");
    out.notes
        .push(format!("peak RSS {:.1} MiB", peak_rss_mib()));
    out
}

/// The traced run: pass 0 untraced (reference), then traced, then the
/// fresh-engine counter pass; per-layer metrics.
#[must_use]
pub fn traced(grid: Grid, seed: u64) -> (Outcome, Vec<Span>) {
    let campaign = Campaign::workload(grid);
    let master = pass_seed(seed, 0);
    let mut out = Outcome::default();
    let start = Instant::now();
    let reference = campaign.run_pass(master);
    let untraced_s = start.elapsed().as_secs_f64();
    let mut pass = campaign.traced_pass(master);
    let (counters, fresh_makespans) = campaign.counter_pass(master);
    pass.report.counters = counters;
    pass.report.overhead_ratio = ratio(pass.report.wall_s, untraced_s);
    out.attempted = reference.instances as u64 * campaign.heuristics.len() as u64;
    out.problems = grid.check(&reference, seed, 0);
    if pass.cell_stats != reference.cell_stats {
        out.problems
            .push("traced recomposition's CellStats differ from run_campaign".into());
    }
    if pass.rerecord_mismatches > 0 {
        out.problems.push(format!(
            "{} re-recorded trace row(s) differ",
            pass.rerecord_mismatches
        ));
    }
    if fresh_makespans != pass.makespans {
        out.problems
            .push("fresh-engine makespans differ from the arena runs".into());
    }
    // A rejected run is scored as capped, so `failed_runs` counts it.
    out.failed = if out.problems.is_empty() {
        failed_runs(&reference)
    } else {
        out.attempted
    };
    pass.report.emit(&mut out);
    (out, pass.spans)
}
