//! Experimental-scenario generation (Section 7, Table 1).
//!
//! A scenario fixes the platform and application of one experiment cell:
//! `p = 20` processors whose Markov chains draw their self-loop
//! probabilities uniformly from `[0.90, 0.99]` (exits split evenly), task
//! costs `w_q ~ U[wmin, 10·wmin]`, `T_data = wmin`, `T_prog = 5·wmin`, and
//! 10 iterations of `n` tasks. The grid sweeps `n ∈ {5,10,20,40}`,
//! `ncom ∈ {5,10,20}`, `wmin ∈ 1..=10`. Table 3's contention-prone variants
//! scale both communication times by 5 or 10.

use serde::{Deserialize, Serialize};
use vg_des::rng::SeedPath;
use vg_des::SlotSpan;
use vg_markov::availability::AvailabilityChain;
use vg_markov::OutageChain;
use vg_platform::volatility::{CorrelatedModel, DiurnalSpec};
use vg_platform::{
    AppConfig, CompiledScript, ConfigError, FaultScript, PlatformConfig, ProcessorConfig,
    StartPolicy,
};
use vg_sim::{AppSpec, MoldableParams};

/// Chaos family applied on top of a cell's base availability model.
///
/// `Independent` is the paper's setting (every worker its own chain) and the
/// default; the other variants inject the volatility stack of
/// `vg_platform::volatility` into the campaign runners. Because scripted
/// overlays act *after* base sampling and correlated group draws come from
/// their own seed streams, every family shares the cell's base availability
/// trace under common random numbers — paired chaos-vs-baseline differences
/// measure the chaos alone.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum VolatilitySpec {
    /// Independent per-worker chains (the paper's model; no chaos).
    #[default]
    Independent,
    /// Scripted mass kill: `pct`% of the workers forced `DOWN` at slot
    /// `at` for `lasts` slots (the `kill pct% at T for N` DSL form).
    MassKill {
        /// Percentage of workers hit (0..=100).
        pct: u32,
        /// First affected slot.
        at: u64,
        /// Outage length in slots.
        lasts: u64,
    },
    /// Correlated group bursts: `groups` contiguous racks, each driven by a
    /// shared `Normal ⇄ Outage` chain forcing its members `DOWN`.
    CorrelatedBursts {
        /// Number of contiguous worker groups.
        groups: usize,
        /// Per-slot `Normal → Outage` probability.
        p_fail: f64,
        /// Per-slot `Outage → Normal` probability.
        p_recover: f64,
    },
    /// Diurnal phase: groups cycle through a periodic off-window during
    /// which their `UP` members are demoted to `RECLAIMED`, staggered like
    /// timezones.
    Diurnal {
        /// Number of contiguous worker groups.
        groups: usize,
        /// Cycle length in slots.
        period: u64,
        /// Off-window length at the head of each cycle.
        off_len: u64,
        /// Per-group phase shift in slots.
        stagger: u64,
    },
}

impl VolatilitySpec {
    /// The scripted-overlay half of this spec: a compiled fault script for a
    /// `p`-worker platform, or `None` when the family injects nothing
    /// through the script path. Errors are loud (bad percentage, zero
    /// duration) rather than silently un-chaotic.
    pub fn fault_script(&self, p: usize) -> Result<Option<CompiledScript>, ConfigError> {
        match *self {
            Self::MassKill { pct, at, lasts } => {
                let text = format!("kill {pct}% at {at} for {lasts}");
                let script = FaultScript::parse(&text)
                    .map_err(|e| ConfigError(format!("mass-kill spec: {e}")))?
                    .compile(p)
                    .map_err(|e| ConfigError(format!("mass-kill spec: {e}")))?;
                Ok(Some(script))
            }
            Self::Independent | Self::CorrelatedBursts { .. } | Self::Diurnal { .. } => Ok(None),
        }
    }

    /// The row-source half of this spec: a correlated model for a
    /// `p`-worker platform, or `None` when the family leaves the base
    /// per-worker sampling untouched.
    pub fn correlated_model(&self, p: usize) -> Result<Option<CorrelatedModel>, ConfigError> {
        match *self {
            Self::CorrelatedBursts {
                groups,
                p_fail,
                p_recover,
            } => {
                let outage = OutageChain::new(p_fail, p_recover)
                    .map_err(|e| ConfigError(format!("correlated-burst spec: {e}")))?;
                let model = CorrelatedModel::uniform_groups(p, groups, outage);
                model.validate(p)?;
                Ok(Some(model))
            }
            Self::Diurnal {
                groups,
                period,
                off_len,
                stagger,
            } => {
                let mut model = CorrelatedModel::uniform_groups(p, groups, OutageChain::identity());
                model.diurnal = Some(DiurnalSpec {
                    period,
                    off_len,
                    group_stagger: stagger,
                });
                model.validate(p)?;
                Ok(Some(model))
            }
            Self::Independent | Self::MassKill { .. } => Ok(None),
        }
    }
}

/// Parameters of one experiment cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Processors (`p`; the paper fixes 20).
    pub p: usize,
    /// Tasks per iteration (`n` in Table 1).
    pub n_tasks: usize,
    /// Master channel bound.
    pub ncom: usize,
    /// Base time unit: fastest-possible task cost.
    pub wmin: SlotSpan,
    /// Multiplier on both communication times (1 = base grid; 5 and 10 are
    /// the Table-3 contention-prone settings).
    pub comm_scale: SlotSpan,
    /// Iterations to complete (the paper fixes 10).
    pub iterations: u64,
    /// Lower bound of the self-loop probability draw.
    pub diag_lo: f64,
    /// Upper bound of the self-loop probability draw.
    pub diag_hi: f64,
    /// Chaos family layered on the base availability model
    /// ([`VolatilitySpec::Independent`] reproduces the paper exactly).
    pub volatility: VolatilitySpec,
}

impl ScenarioParams {
    /// Paper defaults for a given `(n, ncom, wmin)` cell.
    #[must_use]
    pub fn paper(n_tasks: usize, ncom: usize, wmin: SlotSpan) -> Self {
        Self {
            p: 20,
            n_tasks,
            ncom,
            wmin,
            comm_scale: 1,
            iterations: 10,
            diag_lo: 0.90,
            diag_hi: 0.99,
            volatility: VolatilitySpec::Independent,
        }
    }

    /// The same cell under a chaos family — the paired-run twin used by the
    /// `chaos_robustness` study (identical platform and seeds; only the
    /// volatility layer differs).
    #[must_use]
    pub fn with_volatility(self, volatility: VolatilitySpec) -> Self {
        Self { volatility, ..self }
    }

    /// `T_data = comm_scale · wmin`.
    #[must_use]
    pub fn t_data(&self) -> SlotSpan {
        self.comm_scale * self.wmin
    }

    /// `T_prog = 5 · comm_scale · wmin`.
    #[must_use]
    pub fn t_prog(&self) -> SlotSpan {
        5 * self.comm_scale * self.wmin
    }

    /// The full Table-1 grid: `n × ncom × wmin` = 4·3·10 = 120 cells.
    #[must_use]
    pub fn table1_grid() -> Vec<ScenarioParams> {
        let mut grid = Vec::with_capacity(120);
        for &n in &[5usize, 10, 20, 40] {
            for &ncom in &[5usize, 10, 20] {
                for wmin in 1..=10 {
                    grid.push(Self::paper(n, ncom, wmin));
                }
            }
        }
        grid
    }

    /// The Table-3 contention-prone cell: `n = 20`, `ncom = 5`, `wmin = 1`
    /// with communications scaled by `scale` (the paper uses 5 and 10).
    #[must_use]
    pub fn contention_prone(scale: SlotSpan) -> Self {
        Self {
            comm_scale: scale,
            ..Self::paper(20, 5, 1)
        }
    }

    /// The cell's application configuration — shared by every roster below
    /// and by [`make_scenario`].
    #[must_use]
    pub fn app(&self) -> AppConfig {
        AppConfig {
            tasks_per_iteration: self.n_tasks,
            iterations: self.iterations,
            t_prog: self.t_prog(),
            t_data: self.t_data(),
        }
    }

    /// Rigid single-application roster: the historical campaign workload,
    /// bit-identical to the single-application engine path.
    #[must_use]
    pub fn rigid_spec(&self) -> AppSpec {
        AppSpec::rigid(self.app())
    }

    /// The moldable resizing rule of this cell (see [`Self::moldable_spec`]).
    #[must_use]
    fn moldable_params(&self) -> MoldableParams {
        MoldableParams {
            tasks_per_up_num: u32::try_from(self.n_tasks).unwrap_or(u32::MAX),
            tasks_per_up_den: u32::try_from(self.p).unwrap_or(u32::MAX).max(1),
            min_tasks: (self.n_tasks / 4).max(1),
            max_tasks: 2 * self.n_tasks,
        }
    }

    /// Moldable single-application roster under the cell's resizing rule:
    /// `n/p` tasks per UP worker, so a fully-available platform re-picks
    /// exactly the configured `n` and a half-down platform shrinks the
    /// iteration proportionally. The pick is clamped to `[max(1, n/4), 2n]`
    /// — the application can shed at most three quarters of an iteration or
    /// grow to twice the configured size when the platform over-delivers.
    #[must_use]
    pub fn moldable_spec(&self) -> AppSpec {
        AppSpec::moldable(self.app(), self.moldable_params())
    }

    /// Two identical rigid applications co-scheduled on the cell's
    /// platform — the workload of the co-scheduling fidelity study, whose
    /// back-to-back baseline is two consecutive [`Self::rigid_spec`] runs.
    #[must_use]
    pub fn cosched_specs(&self) -> [AppSpec; 2] {
        [self.rigid_spec(), self.rigid_spec()]
    }
}

/// A fully instantiated scenario (sampled platform + application).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating parameters.
    pub params: ScenarioParams,
    /// The sampled platform: chains and speeds.
    pub platform: PlatformConfig,
    /// The application derived from the parameters.
    pub app: AppConfig,
}

/// Samples a scenario. All randomness derives from `seed`, so a scenario is
/// reproducible from `(params, seed)` alone.
#[must_use]
pub fn make_scenario(params: ScenarioParams, seed: SeedPath) -> Scenario {
    let mut rng = seed.rng();
    let processors = (0..params.p)
        .map(|_| {
            let chain = AvailabilityChain::sample_paper(&mut rng, params.diag_lo, params.diag_hi);
            let w = rng.u64_range_inclusive(params.wmin, 10 * params.wmin);
            ProcessorConfig::markov(w, chain, StartPolicy::Up)
        })
        .collect();
    Scenario {
        params,
        platform: PlatformConfig {
            processors,
            ncom: params.ncom,
        },
        app: params.app(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_120_cells() {
        let grid = ScenarioParams::table1_grid();
        assert_eq!(grid.len(), 120);
        assert!(grid.iter().all(|c| c.p == 20 && c.iterations == 10));
        // Spot-check corners.
        assert_eq!((grid[0].n_tasks, grid[0].ncom, grid[0].wmin), (5, 5, 1));
        let last = grid.last().unwrap();
        assert_eq!((last.n_tasks, last.ncom, last.wmin), (40, 20, 10));
    }

    #[test]
    fn communication_times_follow_the_paper() {
        let base = ScenarioParams::paper(20, 5, 3);
        assert_eq!(base.t_data(), 3);
        assert_eq!(base.t_prog(), 15);
        let prone = ScenarioParams::contention_prone(5);
        assert_eq!(prone.t_data(), 5);
        assert_eq!(prone.t_prog(), 25);
        assert_eq!((prone.n_tasks, prone.ncom, prone.wmin), (20, 5, 1));
    }

    #[test]
    fn scenario_is_reproducible() {
        let params = ScenarioParams::paper(10, 5, 2);
        let a = make_scenario(params, SeedPath::root(7).child(1));
        let b = make_scenario(params, SeedPath::root(7).child(1));
        assert_eq!(a.platform, b.platform);
        assert_eq!(a.app, b.app);
        let c = make_scenario(params, SeedPath::root(7).child(2));
        assert_ne!(a.platform, c.platform);
    }

    #[test]
    fn sampled_speeds_in_range() {
        let params = ScenarioParams::paper(5, 5, 4);
        let s = make_scenario(params, SeedPath::root(3));
        assert_eq!(s.platform.p(), 20);
        for pc in &s.platform.processors {
            assert!((4..=40).contains(&pc.spec.w), "w = {}", pc.spec.w);
        }
        assert!(s.platform.validate().is_ok());
        assert!(s.app.validate().is_ok());
    }

    #[test]
    fn moldable_rule_repicks_the_configured_size_at_full_availability() {
        let params = ScenarioParams::paper(40, 5, 1);
        // n/p = 40/20 tasks per UP worker: all 20 workers UP re-pick
        // exactly the configured n; the pick is clamped to [n/4, 2n].
        assert_eq!(
            params.moldable_params(),
            MoldableParams {
                tasks_per_up_num: 40,
                tasks_per_up_den: 20,
                min_tasks: 10,
                max_tasks: 80,
            }
        );
        let spec = params.moldable_spec();
        assert_eq!(spec.config, params.app());
        assert_eq!(spec.weight, 1);
    }

    #[test]
    fn cosched_roster_is_two_rigid_twins() {
        let params = ScenarioParams::paper(10, 5, 2);
        let specs = params.cosched_specs();
        assert_eq!(specs[0], params.rigid_spec());
        assert_eq!(specs[1], specs[0]);
        assert_eq!(
            specs[0].config,
            make_scenario(params, SeedPath::root(1)).app
        );
    }

    #[test]
    fn sampled_chains_have_paper_diagonals() {
        let params = ScenarioParams::paper(5, 5, 1);
        let s = make_scenario(params, SeedPath::root(9));
        for pc in &s.platform.processors {
            let chain = pc.believed_chain();
            for i in 0..3 {
                assert!((0.90..=0.99).contains(&chain.raw()[i][i]));
            }
        }
    }
}
