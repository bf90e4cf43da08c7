//! Group-level outage modulators for correlated volatility.
//!
//! The paper's availability model draws every processor's state from an
//! independent per-worker chain; real desktop grids fail in *bursts* — a
//! switch reboot or a power dip takes an entire rack down at once. The
//! cheapest faithful model layers a **shared two-state modulator** on top of
//! the per-worker chains: each worker group follows one `Normal ⇄ Outage`
//! Markov chain, and while the group is in `Outage` every member is forced
//! `DOWN` regardless of what its private chain says. Per-slot cost is
//! O(groups), one RNG draw per group, and the identity chain
//! ([`OutageChain::identity`]) never leaves `Normal` — so the degenerate
//! configuration is byte-identical to the independent model as long as group
//! draws come from their own seed streams.

use vg_des::rng::StreamRng;

/// State of one group-level outage modulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModState {
    /// The group behaves normally: members follow their private chains.
    #[default]
    Normal,
    /// The group is in a correlated outage: members are forced `DOWN`.
    Outage,
}

impl ModState {
    /// True while the modulator forces its members `DOWN`.
    #[must_use]
    pub fn is_outage(self) -> bool {
        matches!(self, Self::Outage)
    }
}

/// Error constructing an [`OutageChain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModulatorError {
    /// A transition probability fell outside `[0, 1]` (or was NaN).
    BadProbability {
        /// Which parameter: `"p_fail"` or `"p_recover"`.
        which: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ModulatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadProbability { which, value } => {
                write!(f, "{which} = {value} is not a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ModulatorError {}

/// A two-state `Normal ⇄ Outage` Markov chain shared by one worker group.
///
/// `p_fail` is the per-slot probability of entering an outage from `Normal`;
/// `p_recover` the per-slot probability of leaving it. Sojourn times are
/// geometric: a burst lasts `1 / p_recover` slots in expectation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageChain {
    p_fail: f64,
    p_recover: f64,
}

impl OutageChain {
    /// Validated constructor: both parameters must be probabilities.
    pub fn new(p_fail: f64, p_recover: f64) -> Result<Self, ModulatorError> {
        if !(0.0..=1.0).contains(&p_fail) {
            return Err(ModulatorError::BadProbability {
                which: "p_fail",
                value: p_fail,
            });
        }
        if !(0.0..=1.0).contains(&p_recover) {
            return Err(ModulatorError::BadProbability {
                which: "p_recover",
                value: p_recover,
            });
        }
        Ok(Self { p_fail, p_recover })
    }

    /// The identity modulator: never fails, recovers immediately. A group
    /// driven by this chain is indistinguishable from no modulator at all
    /// (it still consumes one RNG draw per slot, from its *own* stream).
    #[must_use]
    pub fn identity() -> Self {
        Self {
            p_fail: 0.0,
            p_recover: 1.0,
        }
    }

    /// Per-slot probability of `Normal → Outage`.
    #[must_use]
    pub fn p_fail(&self) -> f64 {
        self.p_fail
    }

    /// Per-slot probability of `Outage → Normal`.
    #[must_use]
    pub fn p_recover(&self) -> f64 {
        self.p_recover
    }

    /// Samples the successor state. Always consumes exactly one `f64` draw,
    /// whatever the current state — a fixed draw schedule keeps replay and
    /// common-random-number pairing trivial.
    #[must_use]
    pub fn sample_next(&self, cur: ModState, rng: &mut StreamRng) -> ModState {
        let u = rng.f64();
        match cur {
            ModState::Normal => {
                if u < self.p_fail {
                    ModState::Outage
                } else {
                    ModState::Normal
                }
            }
            ModState::Outage => {
                if u < self.p_recover {
                    ModState::Normal
                } else {
                    ModState::Outage
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;

    #[test]
    fn rejects_non_probabilities() {
        assert!(OutageChain::new(-0.1, 0.5).is_err());
        assert!(OutageChain::new(0.1, 1.5).is_err());
        assert!(OutageChain::new(f64::NAN, 0.5).is_err());
        assert!(OutageChain::new(0.0, 0.0).is_ok());
        assert!(OutageChain::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn identity_never_leaves_normal_but_draws() {
        let chain = OutageChain::identity();
        let mut rng = SeedPath::root(11).rng();
        let mut sibling = SeedPath::root(11).rng();
        let mut state = ModState::Normal;
        for _ in 0..1000 {
            state = chain.sample_next(state, &mut rng);
            assert_eq!(state, ModState::Normal);
        }
        // Exactly one draw per slot was consumed.
        for _ in 0..1000 {
            let _ = sibling.f64();
        }
        assert_eq!(rng.f64().to_bits(), sibling.f64().to_bits());
    }

    #[test]
    fn always_one_draw_regardless_of_state() {
        let chain = OutageChain::new(0.5, 0.5).unwrap();
        let mut rng = SeedPath::root(3).rng();
        let mut sibling = SeedPath::root(3).rng();
        let mut state = ModState::Normal;
        for _ in 0..64 {
            state = chain.sample_next(state, &mut rng);
            let _ = sibling.f64();
        }
        assert_eq!(rng.f64().to_bits(), sibling.f64().to_bits());
    }

    #[test]
    fn empirical_outage_fraction_matches_stationary() {
        let chain = OutageChain::new(0.02, 0.10).unwrap();
        let mut rng = SeedPath::root(77).rng();
        let mut state = ModState::Normal;
        let mut outage = 0u64;
        let total = 200_000u64;
        for _ in 0..total {
            state = chain.sample_next(state, &mut rng);
            if state.is_outage() {
                outage += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let frac = outage as f64 / total as f64;
        // Stationary outage probability p_fail / (p_fail + p_recover).
        let expect = 0.02 / (0.02 + 0.10);
        assert!(
            (frac - expect).abs() < 0.01,
            "empirical {frac} vs stationary {expect}"
        );
    }

    #[test]
    fn sticky_outage_chain_stays_down() {
        let chain = OutageChain::new(1.0, 0.0).unwrap();
        let mut rng = SeedPath::root(5).rng();
        let mut state = ModState::Normal;
        state = chain.sample_next(state, &mut rng);
        assert!(state.is_outage());
        for _ in 0..32 {
            state = chain.sample_next(state, &mut rng);
            assert!(state.is_outage());
        }
    }
}
