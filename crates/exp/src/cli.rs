//! Minimal flag parsing shared by the experiment binaries.
//!
//! Hand-rolled on purpose: the binaries need five flags, not a dependency.
//! Supported forms: `--flag value` and `--flag` (boolean).

use vg_core::HeuristicKind;
use vg_des::par::ParallelismConfig;
use vg_sim::SimOptions;

use crate::campaign::{run_campaign, CampaignConfig, CampaignResult};
use crate::scenario::ScenarioParams;

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Scenarios per grid cell.
    pub scenarios: usize,
    /// Trials per scenario.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (`None` = auto).
    pub threads: Option<usize>,
    /// Paper-scale run (247 scenarios × 10 trials).
    pub paper_scale: bool,
    /// Quick run for smoke tests (2 × 1).
    pub quick: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scenarios: 8,
            trials: 2,
            seed: 42,
            threads: None,
            paper_scale: false,
            quick: false,
        }
    }
}

/// Parse error with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "argument error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl ExpArgs {
    /// Parses from an iterator of tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut out = Self::default();
        // The last explicit count flag: `--quick` and `--paper-scale` set
        // both counts, so they contradict it.
        let mut explicit_counts = None;
        let mut it = args.into_iter();
        let next_value = |name: &str, it: &mut dyn Iterator<Item = String>| {
            it.next()
                .ok_or_else(|| ArgError(format!("{name} needs a value")))
        };
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--scenarios" => {
                    explicit_counts = Some("--scenarios");
                    out.scenarios = next_value("--scenarios", &mut it)?
                        .parse()
                        .map_err(|_| ArgError("--scenarios expects an integer".into()))?;
                }
                "--trials" => {
                    explicit_counts = Some("--trials");
                    out.trials = next_value("--trials", &mut it)?
                        .parse()
                        .map_err(|_| ArgError("--trials expects an integer".into()))?;
                }
                "--seed" => {
                    out.seed = next_value("--seed", &mut it)?
                        .parse()
                        .map_err(|_| ArgError("--seed expects an integer".into()))?;
                }
                "--threads" => {
                    out.threads = Some(
                        next_value("--threads", &mut it)?
                            .parse()
                            .map_err(|_| ArgError("--threads expects an integer".into()))?,
                    );
                }
                "--paper-scale" => out.paper_scale = true,
                "--quick" => out.quick = true,
                "--help" | "-h" => {
                    return Err(ArgError(USAGE.trim().to_string()));
                }
                other => return Err(ArgError(format!("unknown flag {other}\n{USAGE}"))),
            }
        }
        let preset = match (out.quick, out.paper_scale) {
            (true, true) => {
                return Err(ArgError(
                    "--quick and --paper-scale contradict each other".into(),
                ))
            }
            (true, false) => Some(("--quick", 2, 1)),
            (false, true) => Some(("--paper-scale", 247, 10)),
            (false, false) => None,
        };
        if let Some((flag, scenarios, trials)) = preset {
            if let Some(counts) = explicit_counts {
                return Err(ArgError(format!(
                    "{flag} sets the scenario and trial counts; it contradicts {counts}"
                )));
            }
            out.scenarios = scenarios;
            out.trials = trials;
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with usage on error.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The parallelism configuration implied by `--threads`.
    #[must_use]
    pub fn parallelism(&self) -> ParallelismConfig {
        match self.threads {
            Some(n) => ParallelismConfig::fixed(n),
            None => ParallelismConfig::Auto,
        }
    }

    /// Runs `roster` over `cells` under `sim` at the scale, seed and
    /// threads of these arguments — every binary's campaign — keeping the
    /// per-instance outcomes when `keep_outcomes` (for
    /// [`pair_campaigns`](crate::paired::pair_campaigns)). Says on stderr
    /// how many instances were excluded from scoring.
    /// Exits with status 1, after saying so, if any run was rejected: a
    /// rejected run is scored as capped, so the campaign's statistics would
    /// not describe the requested grid.
    #[must_use]
    pub fn campaign(
        &self,
        roster: &[HeuristicKind],
        cells: &[ScenarioParams],
        sim: SimOptions,
        keep_outcomes: bool,
    ) -> CampaignResult {
        let cfg = CampaignConfig {
            heuristics: roster.to_vec(),
            scenarios_per_cell: self.scenarios,
            trials: self.trials,
            master_seed: self.seed,
            parallelism: self.parallelism(),
            sim,
            keep_outcomes,
        };
        let result = run_campaign(cells, &cfg);
        if result.rejected_runs > 0 {
            eprintln!(
                "error: {} of {} runs were rejected (invalid volatility spec or engine \
                 configuration) and scored as capped",
                result.rejected_runs,
                result.instances * roster.len()
            );
            std::process::exit(1);
        }
        let (capped, degenerate) = (result.capped_instances(), result.degenerate_instances());
        if capped > 0 || degenerate > 0 {
            eprintln!(
                "excluded from scoring: {capped} capped instance(s) (no heuristic finished), \
                 {degenerate} degenerate instance(s) (best makespan 0)"
            );
        }
        result
    }
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "
Options:
  --scenarios K    random scenarios per grid cell (default 8)
  --trials T       trials per scenario (default 2)
  --seed S         master seed (default 42)
  --threads N      worker threads (default: all cores)
  --paper-scale    247 scenarios x 10 trials (the paper's campaign size)
  --quick          2 scenarios x 1 trial (smoke test)
                   (--quick and --paper-scale exclude each other and the counts)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ExpArgs, ArgError> {
        ExpArgs::parse(tokens.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, ExpArgs::default());
    }

    #[test]
    fn explicit_values() {
        let a = parse(&[
            "--scenarios",
            "5",
            "--trials",
            "3",
            "--seed",
            "9",
            "--threads",
            "2",
        ])
        .unwrap();
        assert_eq!(a.scenarios, 5);
        assert_eq!(a.trials, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn paper_scale_sets_counts() {
        let a = parse(&["--paper-scale", "--seed", "3"]).unwrap();
        assert_eq!(a.scenarios, 247);
        assert_eq!(a.trials, 10);
    }

    #[test]
    fn quick_sets_counts() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.scenarios, 2);
        assert_eq!(a.trials, 1);
    }

    #[test]
    fn contradictory_count_flags_are_rejected() {
        // Each error names both flags, in either order on the command line.
        for (tokens, flags) in [
            (&["--quick", "--trials", "3"][..], ["--quick", "--trials"]),
            (
                &["--scenarios", "3", "--quick"][..],
                ["--quick", "--scenarios"],
            ),
            (
                &["--scenarios", "3", "--paper-scale"][..],
                ["--paper-scale", "--scenarios"],
            ),
            (
                &["--paper-scale", "--trials", "4"][..],
                ["--paper-scale", "--trials"],
            ),
            (
                &["--quick", "--paper-scale"][..],
                ["--quick", "--paper-scale"],
            ),
            (
                &["--paper-scale", "--quick"][..],
                ["--quick", "--paper-scale"],
            ),
        ] {
            let e = parse(tokens).unwrap_err();
            for flag in flags {
                assert!(e.0.contains(flag), "{tokens:?}: {e} does not name {flag}");
            }
        }
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scenarios"]).is_err());
        assert!(parse(&["--scenarios", "abc"]).is_err());
    }

    #[test]
    fn parallelism_mapping() {
        assert_eq!(parse(&[]).unwrap().parallelism(), ParallelismConfig::Auto);
        assert_eq!(
            parse(&["--threads", "3"]).unwrap().parallelism(),
            ParallelismConfig::fixed(3)
        );
    }
}
