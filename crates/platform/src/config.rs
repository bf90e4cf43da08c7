//! Declarative platform and application configuration.
//!
//! Everything the simulator needs is carried by two plain-data structs:
//! [`PlatformConfig`] (processors, availability models, master channels) and
//! [`AppConfig`] (tasks per iteration, iteration count, transfer times).
//! Both derive `serde` traits so downstream users can persist them in any
//! serde format.

use serde::{Deserialize, Serialize};
use vg_des::rng::{SeedPath, StreamRng};
use vg_des::SlotSpan;
use vg_markov::availability::{AvailabilityChain, ChainStats};
use vg_markov::semi_markov::SemiMarkovModel;

use crate::processor::ProcessorSpec;
use crate::source::{
    markov_source, semi_markov_source, AvailabilitySource, MarkovSourceBank, ReplaySource,
    RowSource, StartPolicy, TailBehavior,
};
use crate::trace::Trace;

/// Configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Which stochastic (or recorded) process drives a processor's availability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AvailabilityModelConfig {
    /// The paper's 3-state Markov chain.
    Markov {
        /// Transition matrix.
        chain: AvailabilityChain,
        /// Initial-state policy.
        start: StartPolicy,
    },
    /// Semi-Markov process with arbitrary sojourn distributions
    /// (robustness experiments; Section 8 future work).
    SemiMarkov {
        /// The model.
        model: SemiMarkovModel,
        /// Initial-state policy.
        start: StartPolicy,
    },
    /// Replay of a fixed trace (off-line instances, archive logs).
    Replay {
        /// The recorded states.
        trace: Trace,
        /// Behaviour beyond the end of the trace.
        tail: TailBehavior,
    },
}

impl AvailabilityModelConfig {
    /// Instantiates the per-slot state source. `rng` is consumed even by the
    /// deterministic replay variant so that callers can treat all variants
    /// uniformly (replay simply ignores it).
    #[must_use]
    pub fn build_source(&self, rng: StreamRng) -> Box<dyn AvailabilitySource> {
        match self {
            Self::Markov { chain, start } => markov_source(chain.clone(), *start, rng),
            Self::SemiMarkov { model, start } => semi_markov_source(model.clone(), *start, rng),
            Self::Replay { trace, tail } => Box::new(ReplaySource::new(trace.clone(), *tail)),
        }
    }

    /// The true Markov chain, when this model is Markov.
    #[must_use]
    fn markov_chain(&self) -> Option<&AvailabilityChain> {
        match self {
            Self::Markov { chain, .. } => Some(chain),
            _ => None,
        }
    }
}

/// A mild default belief used when the scheduler has no information about a
/// processor: mostly UP, occasional reclamations, rare failures.
#[must_use]
fn default_belief() -> AvailabilityChain {
    AvailabilityChain::new([[0.95, 0.04, 0.01], [0.45, 0.50, 0.05], [0.45, 0.05, 0.50]])
        .expect("static matrix is stochastic")
}

/// One processor: speed, true availability process, and (optionally) the
/// chain parameters the *scheduler believes*, which the Section 5/6 formulas
/// consume.
///
/// Separating truth from belief is what lets the harness study model
/// mis-specification: run reality as semi-Markov Weibull while the scheduler
/// still reasons with a fitted Markov chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorConfig {
    /// Static characteristics (`w_q`).
    pub spec: ProcessorSpec,
    /// True availability process.
    pub avail: AvailabilityModelConfig,
    /// Scheduler's model of this processor. `None` means: use the true chain
    /// if `avail` is Markov, otherwise fall back to a mild default belief:
    /// mostly UP, occasional reclamations, rare failures.
    pub believed: Option<AvailabilityChain>,
}

impl ProcessorConfig {
    /// Convenience constructor for the common Markov case where belief is
    /// the truth (the paper's setting).
    #[must_use]
    pub fn markov(w: SlotSpan, chain: AvailabilityChain, start: StartPolicy) -> Self {
        Self {
            spec: ProcessorSpec::new(w),
            avail: AvailabilityModelConfig::Markov { chain, start },
            believed: None,
        }
    }

    /// The chain the scheduler should use for this processor.
    #[must_use]
    pub fn believed_chain(&self) -> AvailabilityChain {
        if let Some(b) = &self.believed {
            return b.clone();
        }
        self.avail
            .markov_chain()
            .cloned()
            .unwrap_or_else(default_belief)
    }
}

/// The platform: processors plus the master's channel capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// All processors (`p = processors.len()`).
    pub processors: Vec<ProcessorConfig>,
    /// `ncom = BW / bw`: maximum simultaneous master transfers.
    pub ncom: usize,
}

/// Upper bound on the platform size: processor identities are dense `u32`
/// indices ([`crate::ProcessorId`]), and the simulator builds scheduler
/// snapshots with `ProcessorId(q as u32)` — a platform with more
/// processors would silently truncate ids into aliases. The bound is
/// enforced once by [`PlatformConfig::validate`] (every simulation entry
/// point validates), so downstream casts are infallible.
const MAX_PROCESSORS: usize = u32::MAX as usize;

/// Validates a processor count against `1..=`[`MAX_PROCESSORS`].
///
/// Factored out of [`PlatformConfig::validate`] so the upper bound is
/// testable without materializing four billion processor configs.
fn validate_processor_count(p: usize) -> Result<(), ConfigError> {
    if p == 0 {
        return Err(ConfigError("platform has no processors".into()));
    }
    if p > MAX_PROCESSORS {
        return Err(ConfigError(format!(
            "{p} processors exceed the maximum of {MAX_PROCESSORS} \
             (processor ids are u32 indices)"
        )));
    }
    Ok(())
}

impl PlatformConfig {
    /// Number of processors `p`.
    #[must_use]
    pub fn p(&self) -> usize {
        self.processors.len()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_processor_count(self.processors.len())?;
        if self.ncom == 0 {
            return Err(ConfigError("ncom must be ≥ 1".into()));
        }
        for (i, p) in self.processors.iter().enumerate() {
            if p.spec.w == 0 {
                return Err(ConfigError(format!("processor {i} has w = 0")));
            }
            if let AvailabilityModelConfig::Replay { trace, tail } = &p.avail {
                ReplaySource::check(trace, *tail)
                    .map_err(|e| ConfigError(format!("processor {i}: {}", e.0)))?;
            }
        }
        Ok(())
    }

    /// Statistics of every processor's believed chain, in processor order:
    /// what a scheduler's view reads. They depend on the platform alone,
    /// so compute them once and share them across its runs — the
    /// stationary solve behind [`ChainStats::new`] is about half of a
    /// short run's set-up cost.
    pub fn chain_stats(&self) -> impl ExactSizeIterator<Item = ChainStats> + '_ {
        self.processors
            .iter()
            .map(|pc| ChainStats::new(pc.believed_chain()))
    }

    /// One live availability source per processor, processor `q` seeded
    /// from `seeds.child(q)`. Every seeded path shares this layout, so
    /// runs on the same `seeds` face identical availability (common
    /// random numbers).
    // tidy:allow(dead_pub): the per-processor reference that vg-sim's tests/availability_matrix.rs and the bank tests in source.rs hold the dense bank to
    pub fn seeded_sources(
        &self,
        seeds: SeedPath,
    ) -> impl ExactSizeIterator<Item = Box<dyn AvailabilitySource>> + '_ {
        self.processors
            .iter()
            .enumerate()
            .map(move |(q, pc)| pc.avail.build_source(seeds.child(q as u64).rng()))
    }

    /// The live availability of a run seeded from `seeds`, as one row
    /// source. All-Markov platforms — the paper's setting — get the dense
    /// [`MarkovSourceBank`] (columns sampled in row blocks, no per-processor
    /// virtual calls); anything else gets the boxed
    /// [`Self::seeded_sources`]. Both emit the same streams, and this is
    /// the one place that chooses between them.
    #[must_use]
    pub fn seeded_rows(&self, seeds: SeedPath) -> Box<dyn RowSource> {
        match MarkovSourceBank::try_from_platform(self, &seeds) {
            Some(bank) => Box::new(bank),
            None => Box::new(self.seeded_sources(seeds).collect::<Vec<_>>()),
        }
    }
}

/// The application: `m` tasks per iteration, iteration count, transfer times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppConfig {
    /// `m`: independent, same-size tasks per iteration (Section 3.1).
    pub tasks_per_iteration: usize,
    /// Number of iterations to complete (the experiments fix 10 and measure
    /// makespan; Section 7).
    pub iterations: u64,
    /// `T_prog = V_prog / bw`: slots to transfer the program.
    pub t_prog: SlotSpan,
    /// `T_data = V_data / bw`: slots to transfer one task's input.
    /// May be zero (the Theorem-1 reduction uses `T_data = 0`); zero-length
    /// transfers complete instantly and consume no channel.
    pub t_data: SlotSpan,
}

impl AppConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tasks_per_iteration == 0 {
            return Err(ConfigError("application needs at least one task".into()));
        }
        if self.iterations == 0 {
            return Err(ConfigError(
                "application needs at least one iteration".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;
    use vg_markov::ProcState;

    fn chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.05, 0.05, 0.9]]).unwrap()
    }

    #[test]
    fn markov_config_builds_source() {
        let cfg = AvailabilityModelConfig::Markov {
            chain: chain(),
            start: StartPolicy::Up,
        };
        let mut src = cfg.build_source(SeedPath::root(1).rng());
        assert_eq!(src.next_state(), ProcState::Up);
        assert!(cfg.markov_chain().is_some());
    }

    #[test]
    fn replay_config_ignores_rng() {
        let cfg = AvailabilityModelConfig::Replay {
            trace: Trace::parse("ud").unwrap(),
            tail: TailBehavior::HoldLast,
        };
        let mut a = cfg.build_source(SeedPath::root(1).rng());
        let mut b = cfg.build_source(SeedPath::root(999).rng());
        for _ in 0..4 {
            assert_eq!(a.next_state(), b.next_state());
        }
        assert!(cfg.markov_chain().is_none());
    }

    #[test]
    fn believed_chain_resolution() {
        // Markov without explicit belief: truth.
        let p = ProcessorConfig::markov(2, chain(), StartPolicy::Up);
        assert_eq!(p.believed_chain(), chain());

        // Explicit belief wins.
        let mut p2 = p.clone();
        p2.believed = Some(default_belief());
        assert_eq!(p2.believed_chain(), default_belief());

        // Non-Markov without belief: default.
        let p3 = ProcessorConfig {
            spec: ProcessorSpec::new(1),
            avail: AvailabilityModelConfig::Replay {
                trace: Trace::parse("u").unwrap(),
                tail: TailBehavior::HoldLast,
            },
            believed: None,
        };
        assert_eq!(p3.believed_chain(), default_belief());
    }

    #[test]
    fn platform_validation() {
        let ok = PlatformConfig {
            processors: vec![ProcessorConfig::markov(1, chain(), StartPolicy::Up)],
            ncom: 1,
        };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.p(), 1);

        let empty = PlatformConfig {
            processors: vec![],
            ncom: 1,
        };
        assert!(empty.validate().is_err());

        let no_channels = PlatformConfig {
            processors: ok.processors.clone(),
            ncom: 0,
        };
        assert!(no_channels.validate().is_err());
    }

    #[test]
    fn processor_count_bounded_by_u32_ids() {
        // Regression for the silent `ProcessorId(q as u32)` truncation: the
        // count check must reject anything past MAX_PROCESSORS (tested on
        // the factored-out check — four billion configs don't fit in a
        // test).
        assert!(validate_processor_count(1).is_ok());
        assert!(validate_processor_count(MAX_PROCESSORS).is_ok());
        assert!(validate_processor_count(0).is_err());
        if let Some(too_many) = MAX_PROCESSORS.checked_add(1) {
            let err = validate_processor_count(too_many).unwrap_err();
            assert!(err.0.contains("u32"), "unhelpful message: {err}");
        }
    }

    #[test]
    fn app_validation() {
        let ok = AppConfig {
            tasks_per_iteration: 5,
            iterations: 10,
            t_prog: 5,
            t_data: 1,
        };
        assert!(ok.validate().is_ok());
        assert!(AppConfig {
            tasks_per_iteration: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(AppConfig {
            iterations: 0,
            ..ok
        }
        .validate()
        .is_err());
        // T_data = 0 is legal (Theorem-1 reduction instances).
        assert!(AppConfig { t_data: 0, ..ok }.validate().is_ok());
    }

    #[test]
    fn default_belief_is_valid_and_optimistic() {
        let b = default_belief();
        assert!(b.p_uu() >= 0.9);
        let pi = b.stationary();
        assert!(pi[0] > 0.8, "default belief should be mostly UP: {pi:?}");
    }
}
