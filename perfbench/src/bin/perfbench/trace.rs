//! Spans recorded around each layer call, the timing `Scheduler` wrapper,
//! and the self-time rollup.
//!
//! A span carries a name (its [`Layer`]), start, duration, parent span and
//! the id of the campaign instance (or platform-scale run) it belongs to.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. Self time of a span is its duration minus its children's.
//!
//! Two kinds of child spans are not intervals on the clock:
//!
//! * **sched** — one rollup per engine span: the summed duration of every
//!   `place_into` call inside it, with the call count. Recording each call
//!   would cost more memory than the run itself.
//! * **estimated** children (`source` rows sampled lazily inside an engine
//!   run, `chains`/`source` construction inside `Simulation::new_seeded`) —
//!   that work happens inside library calls the benchmark cannot split, so
//!   it is re-run in isolation with the same seeds and the measured time
//!   is charged to the engine span as a child.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use vg_core::{SchedView, Scheduler};
use vg_platform::ProcessorId;

/// The layers the benchmark times, named after the modules they call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `par_map_init_consume` call (`vg_des::par`).
    Par,
    /// One work unit pulled by a `par` worker.
    Unit,
    /// `vg_exp::scenario::make_scenario`.
    Scenario,
    /// `vg_sim::platform_chain_stats`.
    Chains,
    /// `vg_platform::source`: trace recording and row sampling.
    Source,
    /// `vg_sim::engine`: one arena run, one `new_seeded`, or one `step`.
    Engine,
    /// `Scheduler::place_into` (rollup per engine span).
    Sched,
    /// `vg_exp::campaign::CellStats::absorb`.
    Fold,
}

impl Layer {
    /// Span name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Par => "par",
            Self::Unit => "unit",
            Self::Scenario => "scenario",
            Self::Chains => "chains",
            Self::Source => "source",
            Self::Engine => "engine",
            Self::Sched => "sched",
            Self::Fold => "fold",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (thread in the high bits, sequence in the low bits).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Layer.
    pub layer: Layer,
    /// Campaign instance or platform-scale run the span belongs to.
    pub instance: u64,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (summed busy time for a sched rollup).
    pub dur_ns: u64,
    /// Work count of the span: slots for engine spans, calls for sched
    /// rollups, rows for source spans, 1 otherwise.
    pub count: u64,
    /// Charged from an isolated re-run rather than timed in place.
    pub estimated: bool,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u64,
    next: u64,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread number `thread`; all threads of a run share
    /// `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// The thread number this recorder was made for.
    #[must_use]
    pub fn thread(&self) -> u64 {
        self.thread
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span is closed.
    pub fn alloc(&mut self) -> u64 {
        self.next += 1;
        (self.thread + 1) << 40 | self.next
    }

    /// Records a span with a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        layer: Layer,
        instance: u64,
        start_ns: u64,
        dur_ns: u64,
        count: u64,
        estimated: bool,
    ) {
        self.spans.push(Span {
            id,
            parent,
            layer,
            instance,
            start_ns,
            dur_ns,
            count,
            estimated,
        });
    }

    /// Times `f` as one span of `layer`.
    pub fn time<R>(
        &mut self,
        layer: Layer,
        parent: u64,
        instance: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.alloc();
        let start = self.now();
        let r = f();
        let dur = self.now() - start;
        self.push(id, parent, layer, instance, start, dur, 1, false);
        r
    }
}

/// Nanoseconds elapsed since `epoch`.
#[must_use]
pub fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the timing wrapper saw since the last [`take_sched_tally`] on this
/// thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTally {
    /// `place_into` calls.
    pub calls: u64,
    /// Task instances requested (`count` summed over calls).
    pub requested: u64,
    /// Processors returned.
    pub placed: u64,
    /// `UP` entries of the view, summed over calls.
    pub candidates: u64,
    /// Time inside `place_into`, nanoseconds.
    pub busy_ns: u64,
}

impl SchedTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Self) {
        self.calls += other.calls;
        self.requested += other.requested;
        self.placed += other.placed;
        self.candidates += other.candidates;
        self.busy_ns += other.busy_ns;
    }
}

thread_local! {
    // The engine calls the scheduler on the thread that runs the
    // simulation, so a thread-local tally needs no synchronisation and
    // survives the engine dropping the boxed wrapper at the end of a run.
    static SCHED: Cell<SchedTally> = const {
        Cell::new(SchedTally { calls: 0, requested: 0, placed: 0, candidates: 0, busy_ns: 0 })
    };
}

/// Returns and clears this thread's scheduler tally.
pub fn take_sched_tally() -> SchedTally {
    SCHED.with(|t| t.replace(SchedTally::default()))
}

/// A `Scheduler` that times `place_into` of the heuristic it wraps and
/// counts its work into this thread's tally. Boxed in place of the
/// heuristic; its choices are the heuristic's, so runs stay bit-identical.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
}

impl TimedScheduler {
    /// Wraps `inner`.
    #[must_use]
    pub fn boxed(inner: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        Box::new(Self { inner })
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place_into(&mut self, view: &SchedView<'_>, count: usize, out: &mut Vec<ProcessorId>) {
        let candidates = view.procs.iter().filter(|p| p.state.is_up()).count() as u64;
        let before = out.len();
        let start = Instant::now();
        self.inner.place_into(view, count, out);
        let busy = nanos_since(start);
        let placed = (out.len() - before) as u64;
        SCHED.with(|t| {
            let mut s = t.get();
            s.calls += 1;
            s.requested += count as u64;
            s.placed += placed;
            s.candidates += candidates;
            s.busy_ns += busy;
            t.set(s);
        });
    }

    fn begin_run(&mut self) {
        self.inner.begin_run();
    }
}

/// Self time (seconds) and span count per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Self seconds per layer, indexed by [`Layer`] discriminant.
    pub self_s: [f64; 8],
    /// Spans per layer.
    pub spans: [u64; 8],
}

impl LayerTimes {
    /// Self seconds of `layer`.
    #[must_use]
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    /// Spans of `layer`.
    #[must_use]
    pub fn spans(&self, layer: Layer) -> u64 {
        self.spans[layer as usize]
    }
}

/// Rolls spans up into per-layer self times. `par` has no meaningful self
/// time (its units run in parallel, so their sum exceeds it); it is
/// reported through its own metrics instead.
#[must_use]
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut children: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out = LayerTimes::default();
    for s in spans {
        let child = children.get(&s.id).copied().unwrap_or(0);
        out.self_s[s.layer as usize] += s.dur_ns.saturating_sub(child) as f64 * 1e-9;
        out.spans[s.layer as usize] += 1;
    }
    out
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 128);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"instance\": {}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}, \"estimated\": {}}}",
            s.id,
            s.parent,
            s.layer.name(),
            s.instance,
            s.start_ns,
            s.start_ns + s.dur_ns,
            s.count,
            s.estimated
        );
    }
    std::fs::write(path, text)
}
