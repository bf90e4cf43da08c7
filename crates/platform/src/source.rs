//! Uniform interface over availability generators.
//!
//! The simulator pulls one state per processor per slot. A source can be a
//! Markov chain (the paper's model), a semi-Markov process (the robustness
//! extension), or a recorded trace being replayed (off-line instances,
//! archive logs). All are deterministic functions of their construction
//! arguments, which is what makes common-random-number comparisons between
//! heuristics possible.

use vg_des::rng::{SeedPath, StreamRng};
use vg_markov::availability::{AvailabilityChain, AvailabilityStream, ProcState};
use vg_markov::semi_markov::{SemiMarkovModel, SemiMarkovStream};

use crate::config::{AvailabilityModelConfig, ConfigError, PlatformConfig};
use crate::trace::Trace;

/// A per-slot availability state generator for one processor.
pub trait AvailabilitySource {
    /// Returns the state for the next slot and advances.
    fn next_state(&mut self) -> ProcState;
}

/// A per-slot availability generator for a **whole platform at once**: one
/// call emits the next state of every processor, in processor order.
///
/// Per-processor sources ([`AvailabilitySource`]) cannot express *cross-
/// worker correlation* — a shared group modulator must decide one outage
/// draw and apply it to every member of the group in the same slot. Row
/// sources own the whole row, so correlated models, the dense
/// [`MarkovSourceBank`] and plain per-processor sources (a
/// `Vec<Box<dyn AvailabilitySource>>`, scanned in processor order) plug
/// into the engine and the shared-trace recorder through one interface.
/// [`PlatformConfig::seeded_rows`] picks between the last two.
pub trait RowSource {
    /// Number of processors per row.
    fn p(&self) -> usize;

    /// Appends the next slot's state for every processor (in order) to
    /// `out` and advances. Must append exactly [`Self::p`] states.
    fn next_row_into(&mut self, out: &mut Vec<ProcState>);
}

impl RowSource for MarkovSourceBank {
    fn p(&self) -> usize {
        self.states.len()
    }

    fn next_row_into(&mut self, out: &mut Vec<ProcState>) {
        MarkovSourceBank::next_row_into(self, out);
    }
}

impl RowSource for Vec<Box<dyn AvailabilitySource>> {
    fn p(&self) -> usize {
        self.len()
    }

    fn next_row_into(&mut self, out: &mut Vec<ProcState>) {
        out.extend(self.iter_mut().map(|src| src.next_state()));
    }
}

impl AvailabilitySource for AvailabilityStream {
    fn next_state(&mut self) -> ProcState {
        AvailabilityStream::next_state(self)
    }
}

impl AvailabilitySource for SemiMarkovStream {
    fn next_state(&mut self) -> ProcState {
        SemiMarkovStream::next_state(self)
    }
}

/// What a [`ReplaySource`] emits once the recorded trace is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TailBehavior {
    /// Keep emitting the final state of the trace (default: a machine that
    /// was UP stays UP).
    HoldLast,
    /// Restart from the beginning (periodic availability, e.g. daily cycles).
    Cycle,
    /// Emit `RECLAIMED` forever — the conservative choice for off-line
    /// instances, where nothing may execute beyond the defined horizon.
    ReclaimedForever,
}

/// Replays a fixed trace.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    trace: Trace,
    pos: usize,
    tail: TailBehavior,
}

impl ReplaySource {
    /// Rejects a replay with no defined state stream: an empty trace
    /// cannot be held or cycled.
    pub fn check(trace: &Trace, tail: TailBehavior) -> Result<(), ConfigError> {
        if trace.is_empty() && matches!(tail, TailBehavior::HoldLast | TailBehavior::Cycle) {
            return Err(ConfigError(format!(
                "cannot hold/cycle an empty trace (tail = {tail:?})"
            )));
        }
        Ok(())
    }

    /// Creates a replay source.
    ///
    /// # Panics
    /// Panics if the trace is empty and `tail` is [`TailBehavior::HoldLast`]
    /// or [`TailBehavior::Cycle`] (there is nothing to hold or cycle); use
    /// [`Self::check`] first to handle that case as an error.
    #[must_use]
    pub fn new(trace: Trace, tail: TailBehavior) -> Self {
        if matches!(tail, TailBehavior::HoldLast | TailBehavior::Cycle) {
            assert!(!trace.is_empty(), "cannot hold/cycle an empty trace");
        }
        Self {
            trace,
            pos: 0,
            tail,
        }
    }

    /// The underlying trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl AvailabilitySource for ReplaySource {
    fn next_state(&mut self) -> ProcState {
        if self.pos < self.trace.len() {
            let s = self.trace.states()[self.pos];
            self.pos += 1;
            return s;
        }
        match self.tail {
            // Construction guarantees a non-empty trace for HoldLast; the
            // fallback keeps the exhausted-trace path panic-free anyway.
            TailBehavior::HoldLast => self
                .trace
                .states()
                .last()
                .copied()
                .unwrap_or(ProcState::Reclaimed),
            TailBehavior::Cycle => {
                self.pos = 1;
                self.trace.states()[0]
            }
            TailBehavior::ReclaimedForever => ProcState::Reclaimed,
        }
    }
}

/// A **shared availability recording** for one platform × one trace seed:
/// the per-slot states of every processor, sampled lazily row by row from
/// one live [`RowSource`] and replayed to any number of consumers.
///
/// This is the campaign's common-random-number accelerator: the paper runs
/// every heuristic of an instance against byte-identical availability, so
/// sampling each `(slot, processor)` state once and replaying it 16 more
/// times replaces 16/17 of all RNG draws with a contiguous byte read. The
/// matrix is **slot-major** (`states[slot·p + q]`), matching the engine's
/// per-slot scan order, so replay reads are sequential.
///
/// Rows extend on demand: when any reader asks for a slot beyond the
/// horizon, the matrix draws the row source's next row. The recorded rows
/// are therefore exactly the rows the source would have produced
/// stand-alone — replay is bit-identical to direct sampling, regardless of
/// which run triggered the extension.
#[derive(Debug)]
pub struct SharedTraceMatrix {
    inner: std::rc::Rc<std::cell::RefCell<TraceMatrixInner>>,
}

struct TraceMatrixInner {
    /// Number of processors (row width).
    p: usize,
    /// Slot-major state matrix: `states[slot * p + q]`.
    states: Vec<ProcState>,
    /// The live generator, consulted only beyond the horizon.
    live: Box<dyn RowSource>,
}

impl std::fmt::Debug for TraceMatrixInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceMatrixInner")
            .field("p", &self.p)
            .field("recorded_slots", &(self.states.len() / self.p.max(1)))
            .finish_non_exhaustive()
    }
}

impl SharedTraceMatrix {
    /// Wraps one live source per processor, in processor order: the
    /// [`RowSource`] of a `Vec<Box<dyn AvailabilitySource>>`, recorded
    /// through [`Self::record_rows`].
    ///
    /// # Panics
    /// Panics when `sources` is empty.
    #[must_use]
    pub fn record(sources: Vec<Box<dyn AvailabilitySource>>) -> Self {
        Self::record_rows(Box::new(sources))
    }

    /// Wraps a whole-row generator. The recording replays exactly the rows
    /// `rows` would emit stand-alone.
    ///
    /// # Panics
    /// Panics when `rows.p() == 0`; use [`Self::try_record_rows`] to handle
    /// that case as an error.
    #[must_use]
    pub fn record_rows(rows: Box<dyn RowSource>) -> Self {
        assert!(rows.p() > 0, "a platform has at least one processor");
        Self {
            inner: std::rc::Rc::new(std::cell::RefCell::new(TraceMatrixInner {
                p: rows.p(),
                states: Vec::new(),
                live: rows,
            })),
        }
    }

    /// Fallible form of [`Self::record_rows`]: an empty row source is a
    /// loud configuration error instead of a panic.
    pub fn try_record_rows(rows: Box<dyn RowSource>) -> Result<Self, ConfigError> {
        if rows.p() == 0 {
            return Err(ConfigError(
                "cannot record a trace matrix over an empty row source".into(),
            ));
        }
        Ok(Self::record_rows(rows))
    }

    /// Number of processors.
    #[must_use]
    pub fn p(&self) -> usize {
        self.inner.borrow().p
    }

    /// Slots recorded so far.
    #[must_use]
    pub fn recorded_slots(&self) -> usize {
        let inner = self.inner.borrow();
        inner.states.len() / inner.p
    }

    /// A cheap second handle to the same shared recording (the backing
    /// matrix is reference-counted).
    #[must_use]
    pub fn handle(&self) -> Self {
        Self {
            inner: std::rc::Rc::clone(&self.inner),
        }
    }

    /// Runs `f` on the full state row of `slot` (one state per processor,
    /// in order), sampling and recording the row first if it lies beyond
    /// the horizon. This is the bulk-read fast path: one borrow and `p`
    /// contiguous byte reads per slot, no per-processor virtual calls.
    pub fn with_row<R>(&self, slot: usize, f: impl FnOnce(&[ProcState]) -> R) -> R {
        let mut inner = self.inner.borrow_mut();
        let p = inner.p;
        while (slot + 1) * p > inner.states.len() {
            let TraceMatrixInner { states, live, .. } = &mut *inner;
            live.next_row_into(states);
            debug_assert_eq!(states.len() % p, 0, "row source appended a partial row");
        }
        f(&inner.states[slot * p..(slot + 1) * p])
    }
}

/// A **dense, monomorphic bank** of per-processor Markov availability
/// streams: the platform-scale replacement for a `Vec<Box<dyn
/// AvailabilitySource>>` when every processor runs the paper's 3-state
/// chain (the common case by far).
///
/// The boxed form costs one virtual call plus a scattered heap load per
/// processor per slot — at `p = 131072` the states pass becomes a pointer
/// chase across a hundred thousand allocations. The bank keeps the chains,
/// RNG states and current states in contiguous columns and samples
/// `BLOCK` rows per sweep: each processor's 72-byte chain, 32-byte RNG
/// and state are loaded once, advanced `BLOCK` times in registers and
/// stored back, and the rows land in a private `BLOCK × p` buffer that
/// [`Self::next_row_into`] copies out one row per call. A per-slot sweep
/// streamed ~105 bytes per processor per slot; the blocked sweep streams
/// that once per `BLOCK` slots.
///
/// **Bit-identity contract**: processor `q`'s emitted stream is exactly the
/// stream of `markov_source(chain_q, start_q, trace_seeds.child(q).rng())`
/// — same construction-time draws (stationary starts), same per-slot
/// `sample_next` logic on the same per-processor RNG. Per-processor
/// streams are independent, so sampling ahead changes no emitted row; a
/// run that stops mid-block has sampled at most `BLOCK − 1` rows it never
/// emits. The `dense_markov_bank_matches_boxed_streams` test pins this.
#[derive(Debug, Default)]
pub struct MarkovSourceBank {
    /// One chain per processor: Section-7 platforms draw every processor's
    /// chain afresh, so there is nothing to share.
    chains: Vec<AvailabilityChain>,
    rngs: Vec<StreamRng>,
    /// Each processor's state at the first row of the next sweep.
    states: Vec<ProcState>,
    /// The current sweep's rows, slot-major: `rows[k·p + q]`.
    rows: Vec<ProcState>,
    /// Rows of `rows` already emitted; [`BLOCK`] when a sweep is due.
    emitted: usize,
}

/// Rows sampled per sweep of [`MarkovSourceBank`]. At `p = 131072` on a
/// 2-vCPU box, 8 rows per sweep sampled faster than 4 or 16, and 16
/// faster than 32 (`docs/scaling.md`).
const BLOCK: usize = 8;

impl MarkovSourceBank {
    /// Builds a bank for `platform` with the per-processor seed layout of
    /// [`PlatformConfig::seeded_sources`] (`trace_seeds.child(q)`).
    /// Returns `None` when any processor's availability model is not a
    /// Markov chain (semi-Markov, replay); [`PlatformConfig::seeded_rows`]
    /// then falls back to boxed sources.
    #[must_use]
    pub fn try_from_platform(platform: &PlatformConfig, trace_seeds: &SeedPath) -> Option<Self> {
        let p = platform.processors.len();
        let mut bank = Self {
            chains: Vec::with_capacity(p),
            rngs: Vec::with_capacity(p),
            states: Vec::with_capacity(p),
            rows: Vec::new(),
            emitted: BLOCK,
        };
        for (q, pc) in platform.processors.iter().enumerate() {
            let AvailabilityModelConfig::Markov { chain, start } = &pc.avail else {
                return None;
            };
            let mut rng = trace_seeds.child(q as u64).rng();
            // Mirror `markov_source` exactly, construction draws included.
            let state = match start {
                StartPolicy::Up => ProcState::Up,
                StartPolicy::Stationary => {
                    let pi = chain.stationary();
                    ProcState::from_index(rng.weighted_index(&pi).unwrap_or(0))
                }
            };
            bank.chains.push(chain.clone());
            bank.rngs.push(rng);
            bank.states.push(state);
        }
        // Allocated here so that `next_row_into` never allocates.
        bank.rows = vec![ProcState::Up; BLOCK * p];
        Some(bank)
    }

    /// Appends the next slot's state for every processor (in order) to
    /// `out` and advances all streams — the dense equivalent of calling
    /// `next_state()` on `p` boxed sources. Every `BLOCK`-th call samples
    /// the next `BLOCK` rows; the others only copy.
    pub fn next_row_into(&mut self, out: &mut Vec<ProcState>) {
        if self.emitted == BLOCK {
            self.sweep();
        }
        let p = self.states.len();
        out.extend_from_slice(&self.rows[self.emitted * p..(self.emitted + 1) * p]);
        self.emitted += 1;
    }

    /// Samples the next [`BLOCK`] rows into `rows`, one processor at a time.
    fn sweep(&mut self) {
        let p = self.states.len();
        for (q, ((chain, rng), state)) in self
            .chains
            .iter()
            .zip(self.rngs.iter_mut())
            .zip(self.states.iter_mut())
            .enumerate()
        {
            let mut local = rng.clone();
            let mut cur = *state;
            for k in 0..BLOCK {
                self.rows[k * p + q] = cur;
                cur = chain.sample_next(cur, &mut local);
            }
            *rng = local;
            *state = cur;
        }
        self.emitted = 0;
    }
}

/// Initial-state policy for stochastic sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StartPolicy {
    /// Begin `UP` (the paper's simulator enrolls from a live pool).
    Up,
    /// Draw the initial state from the stationary distribution (a platform
    /// observed at an arbitrary instant).
    Stationary,
}

/// Builds a boxed source from a Markov chain.
#[must_use]
pub fn markov_source(
    chain: AvailabilityChain,
    start: StartPolicy,
    rng: StreamRng,
) -> Box<dyn AvailabilitySource> {
    match start {
        StartPolicy::Up => Box::new(AvailabilityStream::new(chain, ProcState::Up, rng)),
        StartPolicy::Stationary => Box::new(AvailabilityStream::stationary_start(chain, rng)),
    }
}

/// Builds a boxed source from a semi-Markov model (starts a fresh sojourn;
/// `Stationary` draws the starting state from the occupancy distribution).
#[must_use]
pub fn semi_markov_source(
    model: SemiMarkovModel,
    start: StartPolicy,
    mut rng: StreamRng,
) -> Box<dyn AvailabilitySource> {
    let state = match start {
        StartPolicy::Up => ProcState::Up,
        StartPolicy::Stationary => {
            let occ = model.occupancy();
            ProcState::from_index(rng.weighted_index(&occ).unwrap_or(0))
        }
    };
    Box::new(SemiMarkovStream::new(model, state, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;
    use vg_markov::dist::SojournDist;
    use ProcState::{Down as D, Reclaimed as R, Up as U};

    /// A BOINC-style desktop model: heavy-tailed Weibull `UP` stretches,
    /// log-normal `RECLAIMED` interruptions, rare long `DOWN` repairs.
    fn desktop_model(scale_up: f64) -> SemiMarkovModel {
        SemiMarkovModel::new(
            [[0.0, 0.85, 0.15], [0.9, 0.0, 0.1], [1.0, 0.0, 0.0]],
            [
                SojournDist::Weibull {
                    scale: scale_up,
                    shape: 0.7,
                },
                SojournDist::LogNormal {
                    mu: 2.0,
                    sigma: 0.8,
                },
                SojournDist::Weibull {
                    scale: 4.0 * scale_up,
                    shape: 1.0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn replay_emits_trace_then_tail() {
        let t = Trace::parse("urd").unwrap();
        let mut hold = ReplaySource::new(t.clone(), TailBehavior::HoldLast);
        let seq: Vec<_> = (0..5).map(|_| hold.next_state()).collect();
        assert_eq!(seq, vec![U, R, D, D, D]);

        let mut cycle = ReplaySource::new(t.clone(), TailBehavior::Cycle);
        let seq: Vec<_> = (0..7).map(|_| cycle.next_state()).collect();
        assert_eq!(seq, vec![U, R, D, U, R, D, U]);

        let mut rec = ReplaySource::new(t, TailBehavior::ReclaimedForever);
        let seq: Vec<_> = (0..5).map(|_| rec.next_state()).collect();
        assert_eq!(seq, vec![U, R, D, R, R]);
    }

    #[test]
    fn replay_empty_trace_reclaimed_tail() {
        let mut s = ReplaySource::new(Trace::default(), TailBehavior::ReclaimedForever);
        assert_eq!(s.next_state(), R);
    }

    #[test]
    fn replay_check_rejects_empty_hold_and_cycle() {
        // The check turns the two undefined configurations into loud
        // errors and accepts everything else.
        for tail in [TailBehavior::HoldLast, TailBehavior::Cycle] {
            let e = ReplaySource::check(&Trace::default(), tail).unwrap_err();
            assert!(e.0.contains("empty trace"), "unhelpful: {e}");
        }
        assert!(ReplaySource::check(&Trace::default(), TailBehavior::ReclaimedForever).is_ok());
        assert!(ReplaySource::check(&Trace::parse("u").unwrap(), TailBehavior::Cycle).is_ok());
    }

    #[test]
    fn replay_short_trace_tails_are_total() {
        // A trace shorter than the run keeps emitting well-defined states
        // under every tail policy (no truncation, no panic).
        for (tail, expect) in [
            (TailBehavior::HoldLast, D),
            (TailBehavior::Cycle, U),
            (TailBehavior::ReclaimedForever, R),
        ] {
            let mut s = ReplaySource::new(Trace::parse("ud").unwrap(), tail);
            let run: Vec<_> = (0..100).map(|_| s.next_state()).collect();
            assert_eq!(run[0], U);
            assert_eq!(run[1], D);
            assert_eq!(run[2], expect, "{tail:?}");
            assert_eq!(run.len(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold/cycle")]
    fn replay_empty_trace_hold_panics() {
        let _ = ReplaySource::new(Trace::default(), TailBehavior::HoldLast);
    }

    #[test]
    fn markov_source_starts_up() {
        let chain =
            AvailabilityChain::new([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.05, 0.05, 0.9]])
                .unwrap();
        let mut src = markov_source(chain, StartPolicy::Up, SeedPath::root(1).rng());
        assert_eq!(src.next_state(), U);
    }

    #[test]
    fn boxed_sources_are_deterministic() {
        let chain =
            AvailabilityChain::new([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.05, 0.05, 0.9]])
                .unwrap();
        let run = || {
            let mut src = markov_source(chain.clone(), StartPolicy::Up, SeedPath::root(9).rng());
            (0..100).map(|_| src.next_state()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    fn test_chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.05, 0.05, 0.9]]).unwrap()
    }

    fn live_sources(p: usize, seed: u64) -> Vec<Box<dyn AvailabilitySource>> {
        let path = SeedPath::root(seed);
        (0..p)
            .map(|q| markov_source(test_chain(), StartPolicy::Up, path.child(q as u64).rng()))
            .collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `t` is the slot number under test
    fn shared_trace_rows_replay_bit_identically() {
        // Each processor's column of the row stream must equal the
        // stand-alone source stream, for a short first consumer, a longer
        // second consumer (replays the prefix, extends beyond), and a third
        // fully inside the horizon.
        let p = 3;
        let direct: Vec<Vec<ProcState>> = live_sources(p, 77)
            .into_iter()
            .map(|mut s| (0..200).map(|_| s.next_state()).collect())
            .collect();
        let matrix = SharedTraceMatrix::record(live_sources(p, 77));
        assert_eq!(matrix.p(), 3);

        for (consumer, horizon) in [("first", 50), ("second", 200), ("third", 200)] {
            for t in 0..horizon {
                matrix.with_row(t, |row| {
                    for (q, &state) in row.iter().enumerate() {
                        assert_eq!(state, direct[q][t], "{consumer} run, slot {t} proc {q}");
                    }
                });
            }
            assert_eq!(matrix.recorded_slots(), horizon.max(50));
        }
        assert_eq!(matrix.recorded_slots(), 200);
    }

    #[test]
    fn shared_trace_try_record_rejects_empty_rosters() {
        let no_sources: Vec<Box<dyn AvailabilitySource>> = Vec::new();
        let e = SharedTraceMatrix::try_record_rows(Box::new(no_sources)).unwrap_err();
        assert!(e.0.contains("empty row source"), "unhelpful: {e}");
        let e =
            SharedTraceMatrix::try_record_rows(Box::new(MarkovSourceBank::default())).unwrap_err();
        assert!(e.0.contains("empty row source"), "unhelpful: {e}");
        assert!(SharedTraceMatrix::try_record_rows(Box::new(live_sources(1, 3))).is_ok());
    }

    /// A Section-7 platform of `p` processors, each with its own sampled
    /// chain; processor `q` starts under `starts[q % starts.len()]`.
    fn paper_platform(p: u64, starts: &[StartPolicy]) -> PlatformConfig {
        use crate::config::ProcessorConfig;
        let mut rng = SeedPath::root(100 + p).rng();
        PlatformConfig {
            processors: (0..p)
                .map(|q| {
                    let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                    ProcessorConfig::markov(1 + q, chain, starts[q as usize % starts.len()])
                })
                .collect(),
            ncom: 2,
        }
    }

    /// Platform sizes, start layouts and row count of the bank tests: one
    /// processor, a few, and more than a `u8` counts; every processor `Up`,
    /// every processor `Stationary`, and the two alternating in one bank;
    /// 300 rows are 37 full sweeps and half of the 38th.
    const BANK_SIZES: [u64; 3] = [1, 7, 257];
    const BANK_STARTS: [&[StartPolicy]; 3] = [
        &[StartPolicy::Up],
        &[StartPolicy::Stationary],
        &[StartPolicy::Up, StartPolicy::Stationary],
    ];
    const BANK_ROWS: usize = 300;
    const _: () = assert!(BANK_ROWS > 3 * BLOCK && !BANK_ROWS.is_multiple_of(BLOCK));

    /// Every bank test platform, labelled for assertion messages: the
    /// Section-7 grid above, plus five processors sharing one chain.
    fn bank_platforms() -> Vec<(String, PlatformConfig)> {
        use crate::config::ProcessorConfig;
        let mut platforms = Vec::new();
        for p in BANK_SIZES {
            for starts in BANK_STARTS {
                platforms.push((format!("p = {p} {starts:?}"), paper_platform(p, starts)));
            }
        }
        let shared = PlatformConfig {
            processors: (0..5)
                .map(|_| ProcessorConfig::markov(2, test_chain(), StartPolicy::Up))
                .collect(),
            ncom: 1,
        };
        platforms.push(("p = 5 one shared chain".to_string(), shared));
        platforms
    }

    #[test]
    fn shared_trace_dense_and_boxed_recordings_agree() {
        // Recording the dense bank `seeded_rows` picks must replay exactly
        // the same matrix as recording the equivalent boxed sources,
        // whichever slot a reader asks for first.
        for (label, platform) in bank_platforms() {
            let seeds = SeedPath::root(13);
            let dense = SharedTraceMatrix::record_rows(platform.seeded_rows(seeds));
            let boxed = SharedTraceMatrix::record(platform.seeded_sources(seeds).collect());
            assert_eq!(dense.p(), platform.p());
            // The first read lands mid-block, two sweeps in.
            dense.with_row(2 * BLOCK + 3, |_| ());
            for t in 0..BANK_ROWS {
                let a = boxed.with_row(t, <[ProcState]>::to_vec);
                let b = dense.with_row(t, <[ProcState]>::to_vec);
                assert_eq!(a, b, "{label} slot {t}");
            }
            assert_eq!(dense.recorded_slots(), BANK_ROWS);
        }
    }

    #[test]
    fn shared_trace_handle_shares_the_recording() {
        // A cheap handle observes (and extends) the same backing matrix.
        let matrix = SharedTraceMatrix::record(live_sources(2, 5));
        let handle = matrix.handle();
        let via_handle = handle.with_row(9, |row| row.to_vec());
        assert_eq!(matrix.recorded_slots(), 10);
        let via_original = matrix.with_row(9, |row| row.to_vec());
        assert_eq!(via_handle, via_original);
        assert_eq!(matrix.recorded_slots(), 10, "replays do not extend");
    }

    /// Asserts that `rows` emits, row for row, the streams of
    /// `platform.seeded_sources(seeds)` for `slots` slots.
    fn assert_rows_match_seeded_sources(
        platform: &PlatformConfig,
        seeds: SeedPath,
        rows: &mut dyn RowSource,
        slots: usize,
        label: &str,
    ) {
        assert_eq!(rows.p(), platform.p(), "{label}");
        let mut boxed: Vec<_> = platform.seeded_sources(seeds).collect();
        let mut row = Vec::new();
        for slot in 0..slots {
            row.clear();
            rows.next_row_into(&mut row);
            assert_eq!(row.len(), platform.p(), "{label} slot {slot}: partial row");
            for (q, src) in boxed.iter_mut().enumerate() {
                assert_eq!(row[q], src.next_state(), "{label} slot {slot} proc {q}");
            }
        }
    }

    #[test]
    fn dense_markov_bank_matches_boxed_streams() {
        // The bank's per-processor streams must be bit-identical to the
        // boxed `markov_source` streams under the engine's seed layout,
        // for both start policies, across block boundaries and into a
        // partly emitted block. `seeded_rows` picks the bank here, so its
        // rows match too.
        for (label, platform) in bank_platforms() {
            let seeds = SeedPath::root(9);
            let mut bank = MarkovSourceBank::try_from_platform(&platform, &seeds)
                .expect("all-Markov platform");
            assert_rows_match_seeded_sources(&platform, seeds, &mut bank, BANK_ROWS, &label);
            let mut rows = platform.seeded_rows(seeds);
            assert_eq!(
                std::mem::size_of_val(&*rows),
                std::mem::size_of::<MarkovSourceBank>(),
                "{label}: an all-Markov platform gets the dense bank"
            );
            assert_rows_match_seeded_sources(&platform, seeds, &mut *rows, BANK_ROWS, &label);
        }
    }

    #[test]
    fn dense_markov_bank_rejects_non_markov_platforms() {
        // No bank for a mixed platform: `seeded_rows` falls back to the
        // boxed per-processor sources, which emit the same streams.
        use crate::processor::ProcessorSpec;
        let platform = PlatformConfig {
            processors: vec![
                crate::config::ProcessorConfig::markov(1, test_chain(), StartPolicy::Stationary),
                crate::config::ProcessorConfig {
                    spec: ProcessorSpec::new(1),
                    avail: AvailabilityModelConfig::Replay {
                        trace: Trace::parse("urdu").unwrap(),
                        tail: TailBehavior::Cycle,
                    },
                    believed: None,
                },
                crate::config::ProcessorConfig {
                    spec: ProcessorSpec::new(2),
                    avail: AvailabilityModelConfig::SemiMarkov {
                        model: desktop_model(20.0),
                        start: StartPolicy::Stationary,
                    },
                    believed: None,
                },
            ],
            ncom: 1,
        };
        let seeds = SeedPath::root(1);
        assert!(MarkovSourceBank::try_from_platform(&platform, &seeds).is_none());
        let mut rows = platform.seeded_rows(seeds);
        assert_eq!(
            std::mem::size_of_val(&*rows),
            std::mem::size_of::<Vec<Box<dyn AvailabilitySource>>>(),
            "a mixed platform gets boxed per-processor sources"
        );
        assert_rows_match_seeded_sources(&platform, seeds, &mut *rows, 300, "mixed");
    }

    #[test]
    fn semi_markov_source_runs() {
        let model = desktop_model(20.0);
        let mut src = semi_markov_source(model, StartPolicy::Stationary, SeedPath::root(2).rng());
        for _ in 0..100 {
            let _ = src.next_state();
        }
    }
}
