//! A Section-3 oracle: a deliberately naive transcription of the paper's
//! slot model, checked differentially against the engine.
//!
//! The engine owes its speed to a column store with a change feed,
//! persistent scheduler views and exact-location cancellation. None of that
//! is here: the oracle keeps one flat list of live task copies and
//! re-derives the pool, replica counts, bind room, `Delay(q)` and the
//! channel queue by rescanning it, O(p²) per slot. It shares no code with
//! the engine. It drives the same `vg_core` schedulers through views it
//! builds itself, draws states from the same `vg_platform` sources and
//! reports through the public `SimReport`, so a semantic slip in the
//! engine's phase code shows up as a diverging report. Conservation
//! invariants are asserted on every oracle slot and on every report.
//!
//! Scope: one application, the uncapped placement budget, no fault overlay
//! and no timeline. The digest corpus checked by
//! `crates/sim/tests/golden_grid.rs` pins the rest (see `docs/oracle.md`).
//!
//! The model, slot by slot (Section 3, and §6.1 for the dynamic heuristics):
//!
//! 1. every processor is `UP`, `RECLAIMED` or `DOWN` for the slot;
//! 2. a `DOWN` processor loses its program, its data and its partial work;
//!    a lost original returns to the pool, a lost replica is gone;
//! 3. the scheduler places every unstarted original, then replicas of the
//!    least-replicated unfinished tasks onto idle `UP` processors, at most
//!    two extra copies per task;
//! 4. the master's `ncom` channels go to transfers already under way,
//!    oldest first, then to new transfers in placement order. A processor
//!    first receives the program, then data for at most one task beyond the
//!    one it computes;
//! 5. `UP` processors holding the program and a task's data compute one
//!    slot; the first copy of a task to finish completes it, and every
//!    other copy of that task is canceled;
//! 6. received data enters the buffer, and the buffer feeds an idle compute
//!    unit;
//! 7. placements whose transfer has not begun dissolve back into the pool,
//!    and the iteration barrier fires once all `m` tasks are done.

use proptest::prelude::*;
use vg_core::view::{ProcSnapshot, SchedView};
use vg_core::{HeuristicKind, Scheduler};
use vg_des::rng::SeedPath;
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_markov::availability::{AvailabilityChain, ChainStats, ProcState};
use vg_platform::source::{AvailabilitySource, StartPolicy};
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, ProcessorId};
use vg_sim::{AppSpec, Availability, Counters, RunSpec, SimOptions, SimReport, Simulation};

/// The paper's replica cap: at most two extra copies of a task (Section
/// 6.1), written out here rather than read from the engine.
const MAX_EXTRA_REPLICAS: usize = 2;

/// Where a live copy of a task is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Placed this slot; its data transfer has not begun.
    Bound,
    /// Receiving its data: `done` slots so far, since slot `began`.
    Receiving { done: u64, began: u64 },
    /// Data complete, waiting for the compute unit.
    Buffered,
    /// `done` UP-slots of computation so far.
    Computing { done: u64 },
}

/// One live copy: the original of `task` or one of its replicas, on `proc`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Live {
    task: usize,
    original: bool,
    proc: usize,
    stage: Stage,
}

#[derive(Debug, Clone, Copy)]
enum Request {
    Program,
    MoreData,
    NewData { task: usize },
}

/// The oracle's state: processors, the live copies and the bookkeeping
/// that ends up in the report.
struct Oracle {
    w: Vec<u64>,
    state: Vec<ProcState>,
    /// Program slots received, and the slot its transfer began.
    prog: Vec<u64>,
    prog_began: Vec<u64>,
    sources: Vec<Box<dyn AvailabilitySource>>,
    chains: Vec<ChainStats>,
    sched: Box<dyn Scheduler>,
    app: AppConfig,
    ncom: usize,
    options: SimOptions,
    /// Every live copy. Bound copies appear in placement order.
    copies: Vec<Live>,
    /// Which tasks of the running iteration are complete.
    done: Vec<bool>,
    slot: u64,
    iterations: u64,
    completed_at: Vec<u64>,
    granted: u64,
    counters: Counters,
}

impl Oracle {
    fn new(
        platform: &PlatformConfig,
        app: &AppConfig,
        mut sched: Box<dyn Scheduler>,
        seeds: SeedPath,
        options: SimOptions,
    ) -> Self {
        sched.begin_run();
        let procs = &platform.processors;
        Self {
            w: procs.iter().map(|pc| pc.spec.w).collect(),
            state: vec![ProcState::Reclaimed; procs.len()],
            prog: vec![0; procs.len()],
            prog_began: vec![0; procs.len()],
            sources: (0..procs.len())
                .map(|q| procs[q].avail.build_source(seeds.child(q as u64).rng()))
                .collect(),
            chains: procs
                .iter()
                .map(|pc| ChainStats::new(pc.believed_chain()))
                .collect(),
            sched,
            app: *app,
            ncom: platform.ncom,
            options,
            copies: Vec::new(),
            done: vec![false; app.tasks_per_iteration],
            slot: 0,
            iterations: 0,
            completed_at: Vec::new(),
            granted: 0,
            counters: Counters::default(),
        }
    }

    fn p(&self) -> usize {
        self.w.len()
    }

    fn up(&self, q: usize) -> bool {
        self.state[q] == ProcState::Up
    }

    fn has_program(&self, q: usize) -> bool {
        self.prog[q] >= self.app.t_prog
    }

    /// The copies on processor `q`.
    fn on(&self, q: usize) -> impl Iterator<Item = &Live> {
        self.copies.iter().filter(move |c| c.proc == q)
    }

    fn receiving(&self, q: usize) -> Option<(u64, u64)> {
        self.on(q).find_map(|c| match c.stage {
            Stage::Receiving { done, began } => Some((done, began)),
            _ => None,
        })
    }

    fn buffered(&self, q: usize) -> bool {
        self.on(q).any(|c| c.stage == Stage::Buffered)
    }

    fn computing(&self, q: usize) -> bool {
        self.on(q)
            .any(|c| matches!(c.stage, Stage::Computing { .. }))
    }

    /// Index of the copy of `task` on `q` in the given stage, if any.
    fn find(&self, q: usize, task: usize, pred: impl Fn(Stage) -> bool) -> Option<usize> {
        self.copies
            .iter()
            .position(|c| c.proc == q && c.task == task && pred(c.stage))
    }

    /// `Delay(q)` (§6.3.1): slots until `q` has received the rest of its
    /// program and finished everything it holds past placement, if it
    /// stayed `UP` with no contention. Placed-but-unstarted copies are left
    /// out: the scheduler is re-deciding them.
    fn delay(&self, q: usize) -> u64 {
        let mut comm = self.app.t_prog.saturating_sub(self.prog[q]);
        let mut cpu = 0;
        for c in self.on(q) {
            match c.stage {
                Stage::Computing { done } => cpu += self.w[q] - done,
                Stage::Buffered => cpu += self.w[q],
                _ => {}
            }
        }
        if let Some((done, _)) = self.receiving(q) {
            comm += self.app.t_data - done;
            cpu = cpu.max(comm) + self.w[q];
        }
        cpu.max(comm)
    }

    /// Live replicas of `task`, placed or started.
    fn replicas(&self, task: usize) -> usize {
        self.copies
            .iter()
            .filter(|c| c.task == task && !c.original)
            .count()
    }

    /// Asks the scheduler for `count` processors, among `candidates` when
    /// given, over a view rebuilt from scratch.
    fn place(&mut self, count: usize, candidates: Option<&[bool]>) -> Vec<ProcessorId> {
        let procs: Vec<ProcSnapshot> = (0..self.p())
            .map(|q| ProcSnapshot {
                id: ProcessorId(q as u32),
                state: self.state[q],
                w: self.w[q],
                has_program: self.has_program(q),
                delay: if self.up(q) { self.delay(q) } else { 0 },
            })
            .collect();
        let view = SchedView {
            procs: &procs,
            chains: &self.chains,
            t_prog: self.app.t_prog,
            t_data: self.app.t_data,
            ncom: self.ncom,
            room: None,
            candidates,
            delta: None,
        };
        let mut out = self.sched.place(&view, count);
        out.truncate(count);
        out
    }

    /// Places a copy of `task` on `q` if `q` is `UP`, holds fewer than two
    /// copies and no copy of `task`. With zero-length data and the program
    /// present, the copy starts at once.
    fn bind(&mut self, q: usize, task: usize, original: bool) {
        if !self.up(q) || self.on(q).count() >= 2 || self.on(q).any(|c| c.task == task) {
            return;
        }
        let stage = if self.app.t_data == 0
            && self.has_program(q)
            && self.receiving(q).is_none()
            && !self.buffered(q)
        {
            self.counters.replicas_started += u64::from(!original);
            if self.computing(q) {
                Stage::Buffered
            } else {
                Stage::Computing { done: 0 }
            }
        } else {
            Stage::Bound
        };
        self.copies.push(Live {
            task,
            original,
            proc: q,
            stage,
        });
    }

    /// One slot through the seven steps of the module docs.
    fn step(&mut self) {
        let (p, m) = (self.p(), self.app.tasks_per_iteration);
        let t_data = self.app.t_data;

        // 1. States.
        for q in 0..p {
            self.state[q] = self.sources[q].next_state();
            self.counters.state_slots[self.state[q].index()] += 1;
        }

        // 2. Crashes.
        for q in 0..p {
            if self.state[q] == ProcState::Down {
                self.prog[q] = 0;
                let before = self.copies.len();
                self.copies.retain(|c| c.proc != q);
                self.counters.copies_lost_to_down += (before - self.copies.len()) as u64;
            }
        }

        // 3. Placement: unstarted originals, then replicas.
        let pool: Vec<usize> = (0..m)
            .filter(|&t| {
                !self.done[t]
                    && !self
                        .copies
                        .iter()
                        .any(|c| c.task == t && c.original && c.stage != Stage::Bound)
            })
            .collect();
        if !pool.is_empty() {
            let chosen = self.place(pool.len(), None);
            for (&task, pid) in pool.iter().zip(chosen) {
                self.bind(pid.idx(), task, true);
            }
        }
        if self.options.replication && !self.done.iter().all(|&d| d) {
            let this = &*self;
            let wanted: Vec<usize> = (0..MAX_EXTRA_REPLICAS)
                .flat_map(|level| (0..m).filter(move |&t| this.replicas(t) == level))
                .filter(|&t| !self.done[t])
                .collect();
            let idle: Vec<bool> = (0..p)
                .map(|q| self.up(q) && self.on(q).next().is_none())
                .collect();
            let k = wanted.len().min(idle.iter().filter(|&&f| f).count());
            if k > 0 {
                let chosen = self.place(k, Some(&idle));
                for (&task, pid) in wanted.iter().zip(chosen) {
                    self.bind(pid.idx(), task, false);
                }
            }
        }
        self.check_copies();
        let frozen: Vec<(usize, u64, Vec<Live>)> = (0..p)
            .filter(|&q| !self.up(q))
            .map(|q| (q, self.prog[q], self.on(q).copied().collect()))
            .collect();

        // 4. Channels: transfers under way (oldest first), then new ones in
        //    placement order.
        let mut ongoing: Vec<(u64, usize, Request)> = Vec::new();
        for q in (0..p).filter(|&q| self.up(q)) {
            if let Some((_, began)) = self.receiving(q) {
                ongoing.push((began, q, Request::MoreData));
            } else if self.prog[q] > 0 && !self.has_program(q) && self.on(q).next().is_some() {
                ongoing.push((self.prog_began[q], q, Request::Program));
            }
        }
        ongoing.sort_by_key(|&(began, q, _)| (began, q));
        let mut requests: Vec<(usize, Request)> =
            ongoing.into_iter().map(|(_, q, r)| (q, r)).collect();
        let (mut asked_prog, mut asked_data) = (vec![false; p], vec![false; p]);
        for c in self.copies.iter().filter(|c| c.stage == Stage::Bound) {
            let q = c.proc;
            if !self.has_program(q) {
                if self.prog[q] == 0 && !asked_prog[q] {
                    asked_prog[q] = true;
                    requests.push((q, Request::Program));
                }
            } else if self.receiving(q).is_none()
                && !self.buffered(q)
                && !asked_data[q]
                && t_data > 0
            {
                asked_data[q] = true;
                requests.push((q, Request::NewData { task: c.task }));
            }
        }
        let mut granted = 0;
        for (q, req) in requests.into_iter().take(self.ncom) {
            granted += 1;
            match req {
                Request::Program => {
                    if self.prog[q] == 0 {
                        self.prog_began[q] = self.slot;
                    }
                    self.prog[q] += 1;
                    self.counters.prog_channel_slots += 1;
                    self.counters.programs_delivered += u64::from(self.has_program(q));
                }
                Request::MoreData => {
                    for c in self.copies.iter_mut().filter(|c| c.proc == q) {
                        if let Stage::Receiving { done, .. } = &mut c.stage {
                            *done += 1;
                        }
                    }
                    self.counters.data_channel_slots += 1;
                }
                Request::NewData { task } => {
                    let i = self.find(q, task, |s| s == Stage::Bound).unwrap();
                    self.copies[i].stage = Stage::Receiving {
                        done: 1,
                        began: self.slot,
                    };
                    self.counters.data_channel_slots += 1;
                    self.counters.replicas_started += u64::from(!self.copies[i].original);
                }
            }
        }
        assert!(granted <= self.ncom, "more than ncom channels in one slot");
        self.granted += granted as u64;

        // 5. Computation; the first finished copy of a task wins.
        let mut finished = Vec::new();
        for q in 0..p {
            let (w, up) = (self.w[q], self.up(q));
            for c in self.copies.iter_mut().filter(|c| c.proc == q) {
                if let (true, Stage::Computing { done }) = (up, &mut c.stage) {
                    *done += 1;
                    if *done == w {
                        finished.push((q, c.task));
                    }
                }
            }
        }
        for (q, task) in finished {
            let Some(i) = self.find(q, task, |s| matches!(s, Stage::Computing { .. })) else {
                self.counters.duplicate_results += 1; // a sibling won this slot
                continue;
            };
            self.copies.remove(i);
            assert!(
                !self.done[task],
                "task {task} completed twice in one iteration"
            );
            self.done[task] = true;
            self.counters.copies_completed += 1;
            self.counters.tasks_completed += 1;
            let before = self.copies.len();
            self.copies.retain(|c| c.task != task);
            self.counters.replicas_canceled += (before - self.copies.len()) as u64;
        }
        for (q, prog, held) in frozen {
            let still = self.prog[q] == prog && self.on(q).all(|c| held.contains(c));
            assert!(still, "processor {q} progressed while not UP");
        }

        // 6. Promotions.
        for q in 0..p {
            for c in self.copies.iter_mut().filter(|c| c.proc == q) {
                if matches!(c.stage, Stage::Receiving { done, .. } if t_data > 0 && done >= t_data)
                {
                    c.stage = Stage::Buffered;
                }
            }
            if !self.computing(q) {
                if let Some(c) = self
                    .copies
                    .iter_mut()
                    .find(|c| c.proc == q && c.stage == Stage::Buffered)
                {
                    c.stage = Stage::Computing { done: 0 };
                }
            }
        }

        // 7. Dissolution and the barrier.
        self.copies.retain(|c| c.stage != Stage::Bound);
        if self.done.iter().all(|&d| d) {
            assert!(self.copies.is_empty(), "copies outlived their iteration");
            self.completed_at.push(self.slot);
            self.iterations += 1;
            if self.iterations < self.app.iterations {
                self.done.fill(false);
            }
        }
        self.slot += 1;
    }

    /// Structural invariants after placement: at most `1 + MAX_EXTRA_REPLICAS`
    /// copies per task (one without replication), at most two per
    /// processor and one per task there, and never data in flight next to
    /// a full buffer.
    fn check_copies(&self) {
        let cap = if self.options.replication {
            1 + MAX_EXTRA_REPLICAS
        } else {
            1
        };
        for t in 0..self.app.tasks_per_iteration {
            let live: Vec<&Live> = self.copies.iter().filter(|c| c.task == t).collect();
            let originals = live.iter().filter(|c| c.original).count();
            assert!(live.len() <= cap && originals <= 1, "task {t}: {live:?}");
        }
        for q in 0..self.p() {
            let held: Vec<&Live> = self.on(q).collect();
            let twice = held.len() == 2 && held[0].task == held[1].task;
            assert!(
                held.len() <= 2 && !twice,
                "processor {q} overfull: {held:?}"
            );
            assert!(
                !(self.receiving(q).is_some() && self.buffered(q)),
                "look-ahead overrun"
            );
            assert!(held.iter().all(|c| c.stage == Stage::Bound) || self.has_program(q));
        }
    }

    fn run(mut self) -> SimReport {
        let all_done = |o: &Self| o.iterations == o.app.iterations;
        while !all_done(&self) && self.slot < self.options.max_slots {
            self.step();
        }
        SimReport {
            scheduler: self.sched.name().to_string(),
            completed_iterations: self.iterations,
            makespan: all_done(&self).then_some(self.slot),
            slots_run: self.slot,
            iteration_completed_at: self.completed_at,
            counters: self.counters,
            mean_bandwidth_utilization: if self.slot == 0 {
                0.0
            } else {
                self.granted as f64 / (self.slot as f64 * self.ncom as f64)
            },
            timeline: None,
        }
    }
}

/// Conservation laws every report of the model obeys.
fn assert_conserved(r: &SimReport, p: usize, ncom: usize, m: usize) {
    let c = &r.counters;
    assert_eq!(c.copies_completed, c.tasks_completed);
    let whole = m as u64 * r.completed_iterations;
    if r.finished() {
        assert_eq!(c.tasks_completed, whole, "tasks completed ≠ m × iterations");
    } else {
        assert!((whole..whole + m as u64).contains(&c.tasks_completed));
    }
    assert!(c.prog_channel_slots + c.data_channel_slots <= ncom as u64 * r.slots_run);
    assert_eq!(c.state_slots.iter().sum::<u64>(), p as u64 * r.slots_run);
}

/// Runs the engine and the oracle on the same instance and demands the
/// same report.
fn agree(
    platform: &PlatformConfig,
    app: &AppConfig,
    kind: HeuristicKind,
    seed: u64,
    options: SimOptions,
) {
    let sched = || kind.build(SeedPath::root(seed ^ 0x5eed).rng());
    let engine = Simulation::new(RunSpec::new(
        platform,
        &[AppSpec::rigid(*app)],
        Availability::Seeded(SeedPath::root(seed)),
        sched(),
        options,
    ))
    .unwrap()
    .run();
    let mut oracle = Oracle::new(platform, app, sched(), SeedPath::root(seed), options).run();
    let (m, p) = (app.tasks_per_iteration, platform.p());
    assert_conserved(&engine, p, platform.ncom, m);
    assert_conserved(&oracle, p, platform.ncom, m);
    let (e, o) = (
        engine.mean_bandwidth_utilization,
        oracle.mean_bandwidth_utilization,
    );
    assert!((e - o).abs() <= 1e-12 * e.max(o), "bandwidth {e} vs {o}");
    oracle.mean_bandwidth_utilization = e;
    assert_eq!(engine, oracle, "engine and oracle disagree: {kind}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn oracle_agrees_with_engine_on_small_random_instances(
        shape in (1usize..=8, 1usize..=4, 1usize..=12, 1u64..=3),
        times in (0u64..=4, 0u64..=3, 1u64..=6, 1u64..=400),
        policy in (0usize..17, 0u8..2),
        avail in (0.3f64..0.99, 0u8..2, 0u8..4, 0u64..1 << 40),
    ) {
        let ((p, ncom, m, iterations), (t_prog, t_data, w_max, max_slots)) = (shape, times);
        let ((kind, replication), (diag_lo, stationary, misbelief, seed)) =
            (policy, avail);
        let mut rng = SeedPath::root(seed).child(1).rng();
        let start = if stationary == 1 { StartPolicy::Stationary } else { StartPolicy::Up };
        let processors = (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, diag_lo, 0.995);
                let mut pc = ProcessorConfig::markov(rng.u64_range_inclusive(1, w_max), chain, start);
                if misbelief == 0 {
                    pc.believed = Some(AvailabilityChain::sample_paper(&mut rng, 0.5, 0.99));
                }
                pc
            })
            .collect();
        let platform = PlatformConfig { processors, ncom };
        let app = AppConfig { tasks_per_iteration: m, iterations, t_prog, t_data };
        let options = SimOptions {
            max_slots,
            replication: replication == 1,
            ..SimOptions::default()
        };
        agree(&platform, &app, HeuristicKind::ALL[kind], seed, options);
    }
}

#[test]
fn oracle_agrees_with_engine_on_table1_cells() {
    // Every 23rd cell of the 120-cell grid: all four `n`, all three `ncom`
    // and spread-out `wmin`, each under all 17 heuristics with the paper's
    // replication policy.
    let grid = ScenarioParams::table1_grid();
    for (i, params) in grid.iter().enumerate().step_by(23) {
        let scenario = make_scenario(*params, SeedPath::root(2011).child(i as u64));
        let (pf, app, seed) = (&scenario.platform, &scenario.app, 7 + i as u64);
        for kind in HeuristicKind::ALL {
            agree(pf, app, kind, seed, SimOptions::default());
        }
    }
}
