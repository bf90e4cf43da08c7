//! Composable volatility: scripted overlays and correlated failure models.
//!
//! Three layers, all meeting the same source interfaces so they compose
//! with everything the engine already runs:
//!
//! * [`ScriptedOverlay`] — applies a [`CompiledScript`] to sampled state
//!   rows *after* the base source has drawn them. The base
//!   stream (and its RNG schedule) is untouched, so an empty script is
//!   **byte-identical passthrough** — the same contract as the per-source
//!   wrappers of [`CompiledScript::wrap_sources`](crate::fault::CompiledScript::wrap_sources),
//!   lifted to whole rows so one overlay serves any backend (boxed sources,
//!   dense bank, shared trace matrix).
//! * [`CorrelatedModel`] / [`CorrelatedSource`] — per-worker base chains
//!   modulated by shared group-level `Normal ⇄ Outage` chains
//!   ([`OutageChain`]) plus an optional diurnal phase: O(groups + p) per
//!   slot, allocation-free in steady state. Identity modulators and no
//!   diurnal spec reproduce the independent model bit for bit (group draws
//!   come from their own seed streams, so worker streams never shift).
//! * FTA-style trace import ([`crate::trace_io::TraceSet::from_fta_text`])
//!   feeds recorded real-world volatility into the same replay path.

use vg_des::rng::{SeedPath, StreamRng};
use vg_markov::availability::ProcState;
use vg_markov::modulator::{ModState, OutageChain};

use crate::config::{ConfigError, PlatformConfig};
use crate::fault::CompiledScript;
use crate::source::{AvailabilitySource, MarkovSourceBank, RowSource};

/// Row-level scripted fault injector: forces the scripted states onto each
/// sampled row and counts how many worker-slots it actually changed.
///
/// The count only increments when the forced state *differs* from what the
/// base sampled — a `kill` hitting an already-`DOWN` worker injects
/// nothing. A passthrough script therefore reports zero injected faults and
/// leaves every row untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedOverlay {
    script: CompiledScript,
    injected: u64,
}

impl ScriptedOverlay {
    /// Wraps a compiled script.
    #[must_use]
    pub fn new(script: CompiledScript) -> Self {
        Self {
            script,
            injected: 0,
        }
    }

    /// Platform size the script was compiled against.
    #[must_use]
    pub fn p(&self) -> usize {
        self.script.p()
    }

    /// True when the overlay can never change a row.
    #[must_use]
    pub fn is_passthrough(&self) -> bool {
        self.script.is_passthrough()
    }

    /// Worker-slots changed so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.injected
    }

    /// Forces the scripted states onto `row` (the sampled states of `slot`,
    /// one per worker) and returns how many entries this call changed.
    /// Allocation-free; spans are sorted by start, so the scan exits at the
    /// first span starting beyond `slot`.
    pub fn apply_row(&mut self, slot: u64, row: &mut [ProcState]) -> u64 {
        debug_assert_eq!(row.len(), self.script.p());
        let mut changed = 0u64;
        for span in self.script.spans() {
            if span.start > slot {
                break;
            }
            if slot >= span.end {
                continue;
            }
            for &q in &span.workers {
                let cell = &mut row[q as usize];
                if *cell != span.state {
                    *cell = span.state;
                    changed += 1;
                }
            }
        }
        self.injected += changed;
        changed
    }
}

/// Diurnal phase modulation: every group has a periodic "off" window during
/// which its `UP` workers are demoted to `RECLAIMED` (owners using their
/// machines), staggered across groups like timezones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiurnalSpec {
    /// Cycle length in slots (a "day").
    pub period: u64,
    /// Leading window of each cycle during which the group is off.
    pub off_len: u64,
    /// Per-group phase shift in slots (group `g` is shifted by `g·stagger`).
    pub group_stagger: u64,
}

impl DiurnalSpec {
    /// Validates the spec: a cycle must be longer than its off window
    /// (otherwise the platform never wakes up).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.period == 0 {
            return Err(ConfigError("diurnal period must be ≥ 1".into()));
        }
        if self.off_len >= self.period {
            // tidy:allow(hot_alloc): validation error path, before any slot runs.
            return Err(ConfigError(format!(
                "diurnal off window {} must be shorter than the period {}",
                self.off_len, self.period
            )));
        }
        Ok(())
    }

    /// True when group `g` is in its off window at `slot`.
    #[must_use]
    pub fn is_off(&self, group: usize, slot: u64) -> bool {
        let shift = (group as u64).wrapping_mul(self.group_stagger);
        (slot.wrapping_add(shift)) % self.period < self.off_len
    }
}

/// One worker group of a correlated model: a contiguous member range driven
/// by one shared outage chain.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Member worker indices, half-open.
    pub members: std::ops::Range<u32>,
    /// The group's shared `Normal ⇄ Outage` chain.
    pub outage: OutageChain,
}

/// Declarative correlated-volatility model: groups × outage chains,
/// optionally with diurnal phase modulation on top.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrelatedModel {
    /// Worker groups (may be empty: base model only).
    pub groups: Vec<GroupSpec>,
    /// Optional diurnal phase modulation, applied per group.
    pub diurnal: Option<DiurnalSpec>,
}

impl CorrelatedModel {
    /// `n_groups` near-equal contiguous groups covering `0..p`, all driven
    /// by (independent copies of) the same outage chain.
    #[must_use]
    pub fn uniform_groups(p: usize, n_groups: usize, outage: OutageChain) -> Self {
        let n = n_groups.clamp(1, p.max(1));
        let groups = (0..n)
            .map(|g| GroupSpec {
                members: ((g * p) / n) as u32..(((g + 1) * p) / n) as u32,
                outage,
            })
            .collect(); // tidy:allow(hot_alloc): model construction, not the sampling path.
        Self {
            groups,
            diurnal: None,
        }
    }

    /// Validates the model against a platform of `p` workers.
    pub fn validate(&self, p: usize) -> Result<(), ConfigError> {
        for (g, spec) in self.groups.iter().enumerate() {
            if spec.members.start >= spec.members.end {
                // tidy:allow(hot_alloc): validation error path, before any slot runs.
                return Err(ConfigError(format!(
                    "group {g} has an empty member range {}..{}",
                    spec.members.start, spec.members.end
                )));
            }
            if spec.members.end as usize > p {
                // tidy:allow(hot_alloc): validation error path, before any slot runs.
                return Err(ConfigError(format!(
                    "group {g} spans {}..{} but the platform has only {p} workers",
                    spec.members.start, spec.members.end
                )));
            }
        }
        if let Some(d) = &self.diurnal {
            d.validate()?;
        }
        Ok(())
    }

    /// Instantiates the row source for `platform`, seeding the per-worker
    /// base exactly as the engine's independent path does
    /// (`trace_seeds.child(q)`) and each group modulator from its own
    /// stream (`trace_seeds.child_str("corr-group").child(g)`).
    ///
    /// Because group draws never touch the worker streams, a model whose
    /// chains are all [`OutageChain::identity`] (and no diurnal spec) emits
    /// rows byte-identical to the unmodulated base.
    pub fn build(
        &self,
        platform: &PlatformConfig,
        trace_seeds: &SeedPath,
    ) -> Result<CorrelatedSource, ConfigError> {
        platform.validate()?;
        self.validate(platform.p())?;
        let base = match MarkovSourceBank::try_from_platform(platform, trace_seeds) {
            Some(bank) => BaseBank::Dense(bank),
            None => BaseBank::Boxed(
                platform
                    .seeded_sources(*trace_seeds)
                    // tidy:allow(hot_alloc): one-time construction fallback, not the sampling path.
                    .collect(),
            ),
        };
        let group_seeds = trace_seeds.child_str("corr-group");
        let groups = self
            .groups
            .iter()
            .enumerate()
            .map(|(g, spec)| GroupRuntime {
                members: spec.members.start..spec.members.end,
                outage: spec.outage,
                state: ModState::Normal,
                rng: group_seeds.child(g as u64).rng(),
            })
            .collect(); // tidy:allow(hot_alloc): one-time construction, not the sampling path.
        Ok(CorrelatedSource {
            p: platform.p(),
            base,
            groups,
            diurnal: self.diurnal,
            slot: 0,
        })
    }
}

/// The per-worker base generator of a [`CorrelatedSource`].
enum BaseBank {
    /// All-Markov platform: the dense bank.
    Dense(MarkovSourceBank),
    /// Mixed platform: boxed per-worker sources.
    Boxed(Vec<Box<dyn AvailabilitySource>>),
}

impl std::fmt::Debug for BaseBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dense(bank) => f.debug_tuple("Dense").field(&bank.p()).finish(),
            Self::Boxed(srcs) => f.debug_tuple("Boxed").field(&srcs.len()).finish(),
        }
    }
}

/// Live state of one group modulator.
#[derive(Debug)]
struct GroupRuntime {
    members: std::ops::Range<u32>,
    outage: OutageChain,
    state: ModState,
    rng: StreamRng,
}

/// A whole-row availability source with correlated group failures: the
/// instantiated form of [`CorrelatedModel`]. Per slot: one base draw per
/// worker, one modulator draw per group, zero allocations.
#[derive(Debug)]
pub struct CorrelatedSource {
    p: usize,
    base: BaseBank,
    groups: Vec<GroupRuntime>,
    diurnal: Option<DiurnalSpec>,
    slot: u64,
}

impl CorrelatedSource {
    /// Slots emitted so far.
    #[must_use]
    pub fn slots_emitted(&self) -> u64 {
        self.slot
    }
}

impl RowSource for CorrelatedSource {
    fn p(&self) -> usize {
        self.p
    }

    fn next_row_into(&mut self, out: &mut Vec<ProcState>) {
        let start = out.len();
        match &mut self.base {
            BaseBank::Dense(bank) => bank.next_row_into(out),
            BaseBank::Boxed(srcs) => {
                out.reserve(srcs.len());
                for src in srcs.iter_mut() {
                    out.push(src.next_state());
                }
            }
        }
        let row = &mut out[start..];
        for (g, grp) in self.groups.iter_mut().enumerate() {
            // Current modulator state applies to this slot (groups start
            // Normal, like workers start from their configured policy);
            // then advance — always exactly one draw from the group's own
            // stream, so worker streams never shift.
            if grp.state.is_outage() {
                for q in grp.members.start..grp.members.end {
                    row[q as usize] = ProcState::Down;
                }
            } else if let Some(d) = &self.diurnal {
                if d.is_off(g, self.slot) {
                    for q in grp.members.start..grp.members.end {
                        if row[q as usize] == ProcState::Up {
                            row[q as usize] = ProcState::Reclaimed;
                        }
                    }
                }
            }
            grp.state = grp.outage.sample_next(grp.state, &mut grp.rng);
        }
        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;
    use crate::fault::FaultScript;
    use crate::StartPolicy;
    use vg_markov::AvailabilityChain;
    use ProcState::{Down as D, Reclaimed as R, Up as U};

    fn test_chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.05, 0.05, 0.9]]).unwrap()
    }

    fn platform(p: usize) -> PlatformConfig {
        PlatformConfig {
            processors: (0..p)
                .map(|_| ProcessorConfig::markov(2, test_chain(), StartPolicy::Up))
                .collect(),
            ncom: 2,
        }
    }

    #[test]
    fn overlay_forces_and_counts_only_real_changes() {
        let script = FaultScript::parse("kill 2 at 1 for 2")
            .unwrap()
            .compile(4)
            .unwrap();
        let mut ov = ScriptedOverlay::new(script);
        assert!(!ov.is_passthrough());
        assert_eq!(ov.p(), 4);

        let mut row = [U, U, U, U];
        assert_eq!(ov.apply_row(0, &mut row), 0, "before the span");
        assert_eq!(row, [U, U, U, U]);

        // Victims of `kill 2` on p=4 are workers 0 and 2; worker 2 is
        // already DOWN, so only one injection is counted.
        let mut row = [U, R, D, U];
        assert_eq!(ov.apply_row(1, &mut row), 1);
        assert_eq!(row, [D, R, D, U]);

        let mut row = [U, U, U, U];
        assert_eq!(ov.apply_row(2, &mut row), 2);
        assert_eq!(ov.apply_row(3, &mut row), 0, "after the span");
        assert_eq!(ov.injected_faults(), 3);
    }

    #[test]
    fn passthrough_overlay_never_touches_rows() {
        let mut ov = ScriptedOverlay::new(CompiledScript::empty(3));
        assert!(ov.is_passthrough());
        let mut row = [U, R, D];
        for slot in 0..100 {
            assert_eq!(ov.apply_row(slot, &mut row), 0);
        }
        assert_eq!(row, [U, R, D]);
        assert_eq!(ov.injected_faults(), 0);
    }

    #[test]
    fn identity_model_is_byte_identical_to_base() {
        // Single identity group, then four identity groups: both must
        // reproduce the unmodulated dense bank exactly.
        let pf = platform(8);
        let seeds = SeedPath::root(21);
        for n_groups in [1usize, 4] {
            let model = CorrelatedModel::uniform_groups(8, n_groups, OutageChain::identity());
            let mut corr = model.build(&pf, &seeds).unwrap();
            let mut bank = MarkovSourceBank::try_from_platform(&pf, &seeds).unwrap();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for slot in 0..500 {
                a.clear();
                b.clear();
                corr.next_row_into(&mut a);
                bank.next_row_into(&mut b);
                assert_eq!(a, b, "{n_groups} groups, slot {slot}");
            }
            assert_eq!(corr.slots_emitted(), 500);
        }
    }

    #[test]
    fn sticky_outage_forces_members_down() {
        // One group covering workers 0..4 of 8 that fails immediately and
        // never recovers: from slot 1 on, exactly that half is DOWN.
        let pf = platform(8);
        let model = CorrelatedModel {
            groups: vec![GroupSpec {
                members: 0..4,
                outage: OutageChain::new(1.0, 0.0).unwrap(),
            }],
            diurnal: None,
        };
        let mut corr = model.build(&pf, &SeedPath::root(3)).unwrap();
        let mut row = Vec::new();
        corr.next_row_into(&mut row); // slot 0: modulator still Normal
        for slot in 1..50 {
            row.clear();
            corr.next_row_into(&mut row);
            assert_eq!(&row[..4], &[D, D, D, D], "slot {slot}");
        }
    }

    #[test]
    fn diurnal_demotes_up_members_in_off_phase() {
        let pf = platform(6);
        let mut model = CorrelatedModel::uniform_groups(6, 2, OutageChain::identity());
        model.diurnal = Some(DiurnalSpec {
            period: 10,
            off_len: 4,
            group_stagger: 5,
        });
        model.validate(6).unwrap();
        let mut corr = model.build(&pf, &SeedPath::root(9)).unwrap();
        let mut base = MarkovSourceBank::try_from_platform(&pf, &SeedPath::root(9)).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let d = model.diurnal.unwrap();
        for slot in 0..200u64 {
            a.clear();
            b.clear();
            corr.next_row_into(&mut a);
            base.next_row_into(&mut b);
            for (g, lo) in [(0usize, 0usize), (1, 3)] {
                for q in lo..lo + 3 {
                    if d.is_off(g, slot) && b[q] == U {
                        assert_eq!(a[q], R, "slot {slot} proc {q}");
                    } else {
                        assert_eq!(a[q], b[q], "slot {slot} proc {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn model_validation_is_loud() {
        assert!(CorrelatedModel {
            groups: vec![GroupSpec {
                members: 2..2,
                outage: OutageChain::identity(),
            }],
            diurnal: None,
        }
        .validate(4)
        .is_err());
        assert!(CorrelatedModel {
            groups: vec![GroupSpec {
                members: 0..9,
                outage: OutageChain::identity(),
            }],
            diurnal: None,
        }
        .validate(4)
        .is_err());
        assert!(DiurnalSpec {
            period: 5,
            off_len: 5,
            group_stagger: 0,
        }
        .validate()
        .is_err());
        assert!(DiurnalSpec {
            period: 0,
            off_len: 0,
            group_stagger: 0,
        }
        .validate()
        .is_err());
        let e = CorrelatedModel::uniform_groups(4, 9, OutageChain::identity());
        assert_eq!(e.groups.len(), 4, "groups clamp to p");
        assert!(e.validate(4).is_ok());
    }

    #[test]
    fn correlated_source_records_into_shared_matrix() {
        use crate::source::SharedTraceMatrix;
        let pf = platform(5);
        let model = CorrelatedModel::uniform_groups(5, 2, OutageChain::new(0.3, 0.3).unwrap());
        let direct = {
            let mut src = model.build(&pf, &SeedPath::root(4)).unwrap();
            let mut all = Vec::new();
            for _ in 0..40 {
                src.next_row_into(&mut all);
            }
            all
        };
        let matrix =
            SharedTraceMatrix::record_rows(Box::new(model.build(&pf, &SeedPath::root(4)).unwrap()));
        for t in 0..40 {
            matrix.with_row(t, |row| {
                assert_eq!(row, &direct[t * 5..(t + 1) * 5], "slot {t}");
            });
        }
    }
}
