//! The `platform_scale` workload: one seeded run at a time on a
//! p = 131072 paper-style platform (`wmin = 2`, `ncom = p/10`), EMCT*,
//! replication on, uncapped, an m = 2048-task application with enough
//! iterations to finish well inside the slot cap.
//!
//! Each run builds its platform with `make_scenario`, constructs the engine
//! with `Simulation::new_seeded` (timed as set-up) and then calls `step`
//! until done (timed as the loop). Run `k` of seed `s` has its own seeds.
//! The untraced run repeats runs for `--seconds`; the traced run does a
//! fixed [`TRACED_RUNS`] runs, first untraced (reference reports and wall
//! time), then with a span per `new_seeded` and per `step`.

use std::time::Instant;

use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::scenario::Scenario;
use vg_exp::{make_scenario, ScenarioParams};
use vg_platform::source::MarkovSourceBank;
use vg_sim::{platform_chain_stats, SimOptions, SimReport, Simulation, WorkerSoA};

use crate::report::{
    peak_rss_mib, process_cpu_s, quantile, ratio, setup_note, Digest, LayerReport, Outcome,
    DEFAULT_SEED,
};
use crate::trace::{self, take_sched_tally, Layer, Recorder, Span, TimedScheduler};

/// Runs of the traced run.
pub const TRACED_RUNS: u64 = 2;

/// `SimReport` digest of run 0 at [`DEFAULT_SEED`].
const PINNED: u64 = 0x5620_79b8_4c33_524f;

/// Platform and application size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Processors.
    pub p: usize,
    /// Tasks per iteration.
    pub m: usize,
    /// Iterations per run.
    pub iterations: u64,
}

/// One run's inputs and engine seeds.
struct RunInput {
    scenario_seed: SeedPath,
    sched_seed: SeedPath,
    trace_seed: SeedPath,
}

impl Scale {
    /// The benchmark workload.
    pub const WORKLOAD: Self = Self {
        p: 131_072,
        m: 2048,
        iterations: 20,
    };

    fn params(self) -> ScenarioParams {
        ScenarioParams {
            p: self.p,
            iterations: self.iterations,
            ..ScenarioParams::paper(self.m, self.p / 10, 2)
        }
    }

    fn input(seed: u64, run: u64) -> RunInput {
        let root = SeedPath::root(seed).child_str("platform_scale").child(run);
        RunInput {
            scenario_seed: root.child_str("scenario"),
            sched_seed: root.child_str("sched"),
            trace_seed: root.child_str("trace"),
        }
    }

    fn scenario(self, input: &RunInput) -> Scenario {
        make_scenario(self.params(), input.scenario_seed)
    }

    /// Problems with one finished report: incomplete, or a task count
    /// other than `m × iterations`.
    fn check(self, report: &SimReport) -> Option<String> {
        let expect = self.m as u64 * self.iterations;
        (!report.finished() || report.counters.tasks_completed != expect).then(|| {
            format!(
                "run incomplete: {} of {} iterations, {} of {expect} tasks",
                report.completed_iterations, self.iterations, report.counters.tasks_completed
            )
        })
    }

    /// One untraced run: `(report, set-up seconds, loop seconds)`.
    ///
    /// # Errors
    /// An engine configuration error.
    pub fn run(
        self,
        seed: u64,
        run: u64,
    ) -> Result<(SimReport, f64, f64), vg_platform::ConfigError> {
        let input = Self::input(seed, run);
        let scenario = self.scenario(&input);
        let sched = HeuristicKind::EmctStar.build(input.sched_seed.rng());
        let start = Instant::now();
        let mut sim = Simulation::<WorkerSoA>::new_seeded(
            &scenario.platform,
            &scenario.app,
            sched,
            input.trace_seed,
            SimOptions::default(),
        )?;
        let setup = start.elapsed().as_secs_f64();
        let start = Instant::now();
        while !sim.is_done() {
            sim.step();
        }
        let looped = start.elapsed().as_secs_f64();
        Ok((sim.into_report(), setup, looped))
    }

    /// One traced run, recording into `rec` and `report`; returns the
    /// `SimReport` and the traced wall seconds (isolated re-runs excluded).
    ///
    /// # Errors
    /// An engine configuration error.
    pub fn traced_run(
        self,
        seed: u64,
        run: u64,
        rec: &mut Recorder,
        out: &mut LayerReport,
    ) -> Result<(SimReport, f64), vg_platform::ConfigError> {
        let input = Self::input(seed, run);
        let start = rec.now();
        let scenario = rec.time(Layer::Scenario, 0, run, || self.scenario(&input));
        let platform = &scenario.platform;
        let sched = TimedScheduler::boxed(HeuristicKind::EmctStar.build(input.sched_seed.rng()));
        let setup_id = rec.alloc();
        let t = rec.now();
        let mut sim = Simulation::<WorkerSoA>::new_seeded(
            platform,
            &scenario.app,
            sched,
            input.trace_seed,
            SimOptions::default(),
        )?;
        rec.push(setup_id, 0, Layer::Engine, run, t, rec.now() - t, 0, false);
        out.sched.add(&take_sched_tally());
        let mut steps = Vec::new();
        while !sim.is_done() {
            let id = rec.alloc();
            let t = rec.now();
            sim.step();
            let dur = rec.now() - t;
            let tally = take_sched_tally();
            out.sched.add(&tally);
            rec.push(id, 0, Layer::Engine, run, t, dur, 1, false);
            let sid = rec.alloc();
            rec.push(
                sid,
                id,
                Layer::Sched,
                run,
                t,
                tally.busy_ns,
                tally.calls,
                false,
            );
            out.slot_us.push(dur as f64 * 1e-3);
            steps.push((id, t));
        }
        let report = sim.into_report();
        let wall_ns = rec.now() - start;

        // Work inside `new_seeded` and `step` that the benchmark cannot
        // split, re-run in isolation on the same platform and seeds.
        let t = Instant::now();
        std::hint::black_box(platform_chain_stats(platform));
        let id = rec.alloc();
        rec.push(
            id,
            setup_id,
            Layer::Chains,
            run,
            start,
            trace::nanos_since(t),
            1,
            true,
        );
        let t = Instant::now();
        let mut bank = MarkovSourceBank::try_from_platform(platform, &input.trace_seed)
            .ok_or_else(|| {
                vg_platform::ConfigError("platform_scale expects an all-Markov platform".into())
            })?;
        let id = rec.alloc();
        rec.push(
            id,
            setup_id,
            Layer::Source,
            run,
            start,
            trace::nanos_since(t),
            0,
            true,
        );
        let (mut row, mut prev) = (Vec::with_capacity(self.p), Vec::with_capacity(self.p));
        for (k, &(step_id, step_start)) in steps.iter().enumerate() {
            row.clear();
            let t = Instant::now();
            bank.next_row_into(&mut row);
            let ns = trace::nanos_since(t);
            let id = rec.alloc();
            rec.push(id, step_id, Layer::Source, run, step_start, ns, 1, true);
            if k > 0 && row == prev {
                out.source_quiet += 1;
            }
            std::mem::swap(&mut row, &mut prev);
        }
        out.source_rows += steps.len() as u64;
        out.source_compared += (steps.len() as u64).saturating_sub(1);
        out.engine_runs += 1;
        out.engine_slots += report.slots_run;
        out.counters.add(&report);
        out.unit_ms.push(wall_ns as f64 * 1e-6);
        Ok((report, wall_ns as f64 * 1e-9))
    }
}

/// Digest of every deterministic field of a report.
#[must_use]
pub fn report_digest(r: &SimReport) -> u64 {
    let mut d = Digest::default();
    d.word(r.makespan.unwrap_or(u64::MAX));
    d.word(r.slots_run);
    d.word(r.completed_iterations);
    r.iteration_completed_at.iter().for_each(|&s| d.word(s));
    let c = &r.counters;
    for w in [
        c.tasks_completed,
        c.copies_completed,
        c.duplicate_results,
        c.copies_lost_to_down,
        c.replicas_started,
        c.replicas_canceled,
        c.programs_delivered,
        c.prog_channel_slots,
        c.data_channel_slots,
        c.state_slots[0],
        c.state_slots[1],
        c.state_slots[2],
        c.injected_faults,
    ] {
        d.word(w);
    }
    d.float(r.mean_bandwidth_utilization);
    d.value()
}

/// The untraced run: whole runs for `seconds`, end-to-end metrics.
#[must_use]
pub fn measure(scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut slots, mut looped_s) = (0u64, 0.0);
    let start = Instant::now();
    for run in 0u64.. {
        out.attempted += 1;
        match scale.run(seed, run) {
            Ok((report, setup, looped)) => {
                if let Some(problem) = scale.check(&report) {
                    out.failed += 1;
                    out.problems.push(format!("run {run}: {problem}"));
                }
                if run == 0 {
                    let digest = report_digest(&report);
                    out.notes
                        .push(format!("run 0 SimReport digest: {digest:#018x}"));
                    if seed == DEFAULT_SEED && digest != PINNED {
                        out.failed += 1;
                        out.problems.push(format!(
                            "run 0: SimReport digest {digest:#018x} != pinned {PINNED:#018x}"
                        ));
                    }
                }
                out.notes.push(format!(
                    "run {run}: {} slots in {looped:.3} s after a {setup:.4} s set-up",
                    report.slots_run
                ));
                setups.push(setup);
                slots += report.slots_run;
                looped_s += looped;
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("run {run}: rejected: {e}"));
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{} run(s) of p = {}, m = {}, {} iterations",
        out.attempted, scale.p, scale.m, scale.iterations
    ));
    out.metric("sims_per_s", out.attempted as f64 / wall, "1/s");
    out.metric("slots_per_s", slots as f64 / looped_s, "1/s");
    out.notes.push(setup_note(&setups));
    out.metric("setup_s", quantile(&setups, 0.0), "s");
    out.notes
        .push(format!("peak RSS {:.1} MiB", peak_rss_mib()));
    out
}

/// The traced run: [`TRACED_RUNS`] runs untraced, then traced; the traced
/// reports must equal the untraced ones.
#[must_use]
pub fn traced(scale: Scale, seed: u64) -> (Outcome, Vec<Span>) {
    let mut out = Outcome {
        attempted: TRACED_RUNS,
        ..Outcome::default()
    };
    let start = Instant::now();
    let reference: Vec<_> = (0..TRACED_RUNS)
        .map(|run| scale.run(seed, run).map(|r| r.0))
        .collect();
    let untraced_s = start.elapsed().as_secs_f64();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut report = LayerReport {
        threads: 1,
        ..LayerReport::default()
    };
    let cpu0 = process_cpu_s();
    let mut traced_s = 0.0;
    for (run, reference) in (0..TRACED_RUNS).zip(reference) {
        let traced = scale.traced_run(seed, run, &mut rec, &mut report);
        let problem = match (reference, traced) {
            (Ok(a), Ok((b, secs))) => {
                traced_s += secs;
                if a != b {
                    Some("traced report differs from the untraced one".to_string())
                } else {
                    scale.check(&b)
                }
            }
            (Err(e), _) | (_, Err(e)) => Some(format!("rejected: {e}")),
        };
        if let Some(problem) = problem {
            out.failed += 1;
            out.problems.push(format!("run {run}: {problem}"));
        }
    }
    report.cpu_s = process_cpu_s() - cpu0;
    report.wall_s = rec.now() as f64 * 1e-9;
    report.times = trace::layer_times(&rec.spans);
    report.overhead_ratio = ratio(traced_s, untraced_s);
    report.emit(&mut out);
    (out, rec.spans)
}
