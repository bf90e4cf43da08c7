//! Model-misspecification study (the paper's Section-8 future work).
//!
//! The paper's heuristics assume Markov availability, but real desktop-grid
//! interval durations are Weibull/log-normal. This module builds scenarios
//! whose *true* availability is a semi-Markov process with heavy-tailed
//! sojourns, while the scheduler reasons with a Markov chain *fitted* to a
//! training trace (maximum-likelihood estimation, exactly what a production
//! master would do). Running the standard campaign on such scenarios
//! measures how much of the failure-aware heuristics' advantage survives
//! when the memoryless assumption is wrong.

use vg_des::rng::SeedPath;
use vg_markov::availability::ProcState;
use vg_markov::dist::SojournDist;
use vg_markov::estimate::TransitionCounts;
use vg_markov::semi_markov::{SemiMarkovError, SemiMarkovModel, SemiMarkovStream};
use vg_platform::{
    AppConfig, AvailabilityModelConfig, PlatformConfig, ProcessorConfig, ProcessorSpec, StartPolicy,
};

use crate::scenario::{Scenario, ScenarioParams};

/// How the semi-Markov truth is parameterized per processor.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessParams {
    /// Weibull shape of the `UP` sojourn (< 1 ⇒ heavy-tailed, the regime
    /// reported for desktop grids).
    pub up_shape: f64,
    /// Mean `UP` sojourn in slots (scale derives from it).
    pub up_mean: f64,
    /// Slots of training trace used to fit the scheduler's Markov belief.
    pub training_slots: usize,
}

impl Default for RobustnessParams {
    fn default() -> Self {
        Self {
            up_shape: 0.7,
            up_mean: 40.0,
            training_slots: 20_000,
        }
    }
}

/// Builds a heavy-tailed desktop model with the requested mean UP sojourn.
///
/// # Errors
/// When `rp` and `jitter` give an invalid sojourn law, e.g. a zero
/// `up_mean` or `up_shape`.
pub fn desktop_model(
    rp: &RobustnessParams,
    jitter: f64,
) -> Result<SemiMarkovModel, SemiMarkovError> {
    // Scale so that the continuous Weibull mean matches up_mean·jitter:
    // E[Weibull(λ, k)] = λ Γ(1 + 1/k)  ⇒  λ = mean / Γ(1 + 1/k).
    let mean = rp.up_mean * jitter;
    let scale = mean / vg_markov::dist::gamma_fn(1.0 + 1.0 / rp.up_shape);
    SemiMarkovModel::new(
        [[0.0, 0.85, 0.15], [0.90, 0.0, 0.10], [1.0, 0.0, 0.0]],
        [
            SojournDist::Weibull {
                scale,
                shape: rp.up_shape,
            },
            SojournDist::LogNormal {
                mu: 1.5,
                sigma: 0.8,
            },
            SojournDist::Weibull {
                scale: 2.0 * mean,
                shape: 1.0,
            },
        ],
    )
}

/// Fits a Markov chain to a training trace of the model (MLE with light
/// smoothing so unseen rows stay well-defined).
///
/// # Errors
/// When the smoothed estimate is not a valid availability chain.
pub fn fit_belief(
    model: &SemiMarkovModel,
    training_slots: usize,
    seed: SeedPath,
) -> Result<vg_markov::AvailabilityChain, SemiMarkovError> {
    let mut stream = SemiMarkovStream::new(model.clone(), ProcState::Up, seed.rng());
    let mut counts = TransitionCounts::new();
    let trace: Vec<ProcState> = (0..training_slots).map(|_| stream.next_state()).collect();
    counts.observe_trace(&trace);
    counts
        .estimate(1.0)
        .map_err(|e| SemiMarkovError(format!("fitted belief: {e}")))
}

/// Samples a robustness scenario: true availability is semi-Markov, the
/// scheduler's belief is a fitted Markov chain.
///
/// # Errors
/// When [`desktop_model`] rejects `rp` or a belief cannot be fitted.
pub fn make_robustness_scenario(
    params: ScenarioParams,
    rp: &RobustnessParams,
    seed: SeedPath,
) -> Result<Scenario, SemiMarkovError> {
    let mut rng = seed.rng();
    let processors = (0..params.p)
        .map(|q| {
            // Per-processor jitter keeps the platform heterogeneous.
            let jitter = rng.f64_range(0.5, 2.0);
            let model = desktop_model(rp, jitter)?;
            let belief = fit_belief(&model, rp.training_slots, seed.child(1_000 + q as u64))?;
            let w = rng.u64_range_inclusive(params.wmin, 10 * params.wmin);
            Ok(ProcessorConfig {
                spec: ProcessorSpec::new(w),
                avail: AvailabilityModelConfig::SemiMarkov {
                    model,
                    start: StartPolicy::Up,
                },
                believed: Some(belief),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Scenario {
        params,
        platform: PlatformConfig {
            processors,
            ncom: params.ncom,
        },
        app: AppConfig {
            tasks_per_iteration: params.n_tasks,
            iterations: params.iterations,
            t_prog: params.t_prog(),
            t_data: params.t_data(),
        },
    })
}

/// Mean `UP` occupancy implied by `rp` (sanity metric for reports).
///
/// # Errors
/// When [`desktop_model`] rejects `rp`.
pub fn expected_up_occupancy(rp: &RobustnessParams) -> Result<f64, SemiMarkovError> {
    Ok(desktop_model(rp, 1.0)?.occupancy()[ProcState::Up.index()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_model_mean_matches_request() {
        let rp = RobustnessParams::default();
        let model = desktop_model(&rp, 1.0).unwrap();
        let mean = model.sojourn()[0].approx_mean();
        assert!(
            (mean - rp.up_mean).abs() < 1.5,
            "requested {} got {mean}",
            rp.up_mean
        );
    }

    #[test]
    fn fitted_belief_is_plausible() {
        let rp = RobustnessParams::default();
        let model = desktop_model(&rp, 1.0).unwrap();
        let belief = fit_belief(&model, 50_000, SeedPath::root(3)).unwrap();
        // Mean UP sojourn 40 ⇒ P(stay UP) ≈ 1 − 1/40.
        assert!(belief.p_uu() > 0.9, "p_uu = {}", belief.p_uu());
        // Fitted chain's stationary UP mass should be near the true
        // occupancy.
        let occ = model.occupancy()[0];
        let pi = belief.stationary()[0];
        assert!((occ - pi).abs() < 0.1, "occ {occ} vs π_u {pi}");
    }

    #[test]
    fn robustness_scenario_builds_and_validates() {
        let params = ScenarioParams {
            p: 4,
            ..ScenarioParams::paper(5, 5, 2)
        };
        let rp = RobustnessParams {
            training_slots: 2_000,
            ..RobustnessParams::default()
        };
        let s = make_robustness_scenario(params, &rp, SeedPath::root(11)).unwrap();
        assert!(s.platform.validate().is_ok());
        assert_eq!(s.platform.p(), 4);
        for pc in &s.platform.processors {
            assert!(pc.believed.is_some());
            assert!(matches!(
                pc.avail,
                AvailabilityModelConfig::SemiMarkov { .. }
            ));
        }
    }

    #[test]
    fn scenario_is_reproducible() {
        let params = ScenarioParams {
            p: 3,
            ..ScenarioParams::paper(5, 5, 1)
        };
        let rp = RobustnessParams {
            training_slots: 1_000,
            ..RobustnessParams::default()
        };
        let a = make_robustness_scenario(params, &rp, SeedPath::root(5)).unwrap();
        let b = make_robustness_scenario(params, &rp, SeedPath::root(5)).unwrap();
        assert_eq!(a.platform, b.platform);
    }

    #[test]
    fn occupancy_metric_is_sane() {
        let occ = expected_up_occupancy(&RobustnessParams::default()).unwrap();
        assert!(occ > 0.3 && occ < 0.95, "{occ}");
    }

    #[test]
    fn degenerate_up_sojourns_are_errors_not_panics() {
        let params = ScenarioParams {
            p: 2,
            ..ScenarioParams::paper(5, 5, 1)
        };
        for rp in [
            RobustnessParams {
                up_mean: 0.0,
                ..RobustnessParams::default()
            },
            RobustnessParams {
                up_shape: 0.0,
                ..RobustnessParams::default()
            },
        ] {
            assert!(desktop_model(&rp, 1.0).is_err(), "{rp:?}");
            assert!(expected_up_occupancy(&rp).is_err(), "{rp:?}");
            assert!(make_robustness_scenario(params, &rp, SeedPath::root(1)).is_err());
        }
    }
}
